"""Command-line front end.

Subcommands: ``invert`` (quantile coefficients), ``moments`` (expansion term
grid, optionally evaluated), ``verify`` (expansion vs oracle with a fitted
convergence rate), ``typos`` (the correction ledger) and
``list-distributions``.  CSV is the default output; ``--format json`` emits
one object per invocation.  The default Monte Carlo seed comes from the
``PARETOTAIL_SEED`` environment variable when set.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 moment does
not exist.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from .catalog import _LAWS, DistributionSpec, parse_distribution, tail_of
from .errors import InfiniteMomentError, ParetoTailError
from .expansion import (
    MomentQuery,
    joint_cumulant_expansion,
    moment_expansion,
)
from .ledger import ledger_rows
from .oracle import (
    _depth_blocks,
    _infinite_square,
    _joint_cumulant,
    _quad,
    convergence_rate_probe,
    mc_top_order_stats,
    quad_joint_moment,
    quad_moment,
)
from .quantile import TailModel, quantile_series
from .series import FormalSeries

__all__ = ["main", "run"]

SCHEMA_VERSION = "1"
DEFAULT_SEED = 20260823
SEED_ENV_VAR = "PARETOTAIL_SEED"
VERIFY_SLOPE_TOL = 0.5


def _int_list(text: str):
    return [int(tok) for tok in text.split(",")]


def _float_list(text: str):
    return [float(tok) for tok in text.split(",")]


def _order(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    """The process's one parser, its ``verify --seed`` default read from
    ``PARETOTAIL_SEED`` at this call, so a change to the environment holds
    from the next call on."""
    top, p_ver = _parsers()
    raw = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
    try:
        p_ver.set_defaults(seed=_order(raw))
    except argparse.ArgumentTypeError as exc:
        raise SystemExit(_usage_error(f"{SEED_ENV_VAR} {exc}")) from None
    return top


@functools.lru_cache(maxsize=None)
def _parsers():
    """(top-level parser, its ``verify`` subparser), built once per process."""
    top = argparse.ArgumentParser(
        prog="paretotail",
        description="Tail-expansion quantiles and top order statistic moments.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_inv = sub.add_parser("invert", help="quantile power series coefficients")
    p_inv.add_argument("--dist", help="catalog spec, e.g. cauchy or student_t(3)")
    p_inv.add_argument(
        "--tail",
        help="raw tail model alpha,beta,c0,c1,... (alternative to --dist)",
    )
    p_inv.add_argument("--order", type=_order, required=True)
    p_inv.add_argument("--theta", type=float, default=1.0)
    add_format(p_inv)

    p_mom = sub.add_parser("moments", help="joint moment expansion term grid")
    p_mom.add_argument("--dist", required=True)
    p_mom.add_argument("--s", type=_int_list, required=True)
    p_mom.add_argument("--theta", type=_float_list)
    p_mom.add_argument("--imax", type=_order, default=7)
    p_mom.add_argument("--jmax", type=_order, default=2)
    p_mom.add_argument("--n", type=int)
    add_format(p_mom)

    p_ver = sub.add_parser("verify", help="compare an expansion with an oracle")
    p_ver.add_argument("--dist", required=True)
    p_ver.add_argument("--s", type=_int_list, required=True)
    p_ver.add_argument("--n", type=_int_list, required=True)
    p_ver.add_argument("--oracle", choices=("quad", "mc"), default="quad")
    p_ver.add_argument("--reps", type=int, default=1_000_000)
    p_ver.add_argument("--seed", type=_order)
    p_ver.add_argument("--imax", type=_order, default=2)
    p_ver.add_argument("--jmax", type=_order, default=1)
    add_format(p_ver)

    p_typ = sub.add_parser("typos", help="print the correction ledger")
    add_format(p_typ)

    p_lst = sub.add_parser("list-distributions", help="catalog and capabilities")
    add_format(p_lst)
    return top, p_ver


def _emit(args, payload: dict, columns, rows, out) -> None:
    if args.format == "json":
        payload = dict(payload)
        payload["schema_version"] = SCHEMA_VERSION
        payload["rows"] = [dict(zip(columns, row)) for row in rows]
        json.dump(payload, out, indent=2, default=float)
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)


def _tail_from_args(args, order: int) -> TailModel:
    if bool(args.dist) == bool(args.tail):
        raise SystemExit(_usage_error("exactly one of --dist / --tail is required"))
    if args.dist:
        return tail_of(parse_distribution(args.dist), order)
    parts = _float_list(args.tail)
    if len(parts) < 3:
        raise SystemExit(_usage_error("--tail needs alpha,beta,c0 at least"))
    alpha, beta, coeffs = parts[0], parts[1], parts[2:]
    if len(coeffs) < order + 1:
        coeffs = coeffs + [0.0] * (order + 1 - len(coeffs))
    return TailModel(alpha, beta, FormalSeries(coeffs[: order + 1]))


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _cmd_invert(args, out) -> int:
    tail = _tail_from_args(args, args.order)
    q = quantile_series(tail, args.theta)
    rows = [
        (i, repr(q.exponent(i)), repr(float(q.C[i])))
        for i in range(q.order + 1)
    ]
    payload = {"command": "invert", "theta": args.theta, "a": tail.a}
    _emit(args, payload, ("i", "exponent", "coefficient"), rows, out)
    return 0


def _cmd_moments(args, out) -> int:
    dist = parse_distribution(args.dist)
    s = tuple(args.s)
    theta = tuple(args.theta) if args.theta else (1.0,) * len(s)
    tail = tail_of(dist, args.jmax)
    query = MomentQuery(tail, s, theta, imax=args.imax, jmax=args.jmax)
    exp = moment_expansion(query)
    rows = [
        (i, j, repr(exp.order_of(i, j)), repr(float(c)))
        for (i, j), c in sorted(exp.terms.items())
    ]
    payload = {
        "command": "moments",
        "dist": str(dist),
        "s": list(s),
        "theta": list(theta),
        "lead": exp.lead,
        "a": exp.a,
        "remainder_order": exp.remainder_order,
    }
    if args.n is not None:
        value, last = exp.evaluate(args.n)
        payload.update(n=args.n, value=value, last_term=last)
    _emit(args, payload, ("i", "j", "order", "coefficient"), rows, out)
    if args.n is not None and args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(())
        writer.writerow(("n", "value", "last_term"))
        writer.writerow((args.n, repr(payload["value"]), repr(payload["last_term"])))
    return 0


def _require_mc_standard_error(dist: DistributionSpec, s, n_grid) -> None:
    """Refuse a Monte Carlo check whose product has an infinite second
    moment at some n of the grid: its batch standard error, and so the
    noise floor, would mean nothing."""
    for n in n_grid:
        refusal = _infinite_square(dist, n, s, (1.0,) * len(s))
        if refusal is not None:
            raise ParetoTailError(
                f"--oracle mc cannot verify {dist} at --s {','.join(map(str, s))}: "
                f"the squared product has an infinite mean, so the standard error "
                f"is undefined ({refusal})"
            )


def _verify_values(args, dist, s, n_grid):
    """(remainder order, rows of (n, expansion value, oracle value, oracle
    floor)) for the joint cumulant of Y_{n,s_1}, ..., Y_{n,s_k}, k <= 4, cut
    before its first omitted order, against the oracle's block moments."""
    if len(s) > 4:  # a 48^5 tensor rule would need about 2 GB per array
        raise SystemExit(_usage_error("verify supports 1 to 4 depths in --s"))
    if args.oracle == "mc":
        _require_mc_standard_error(dist, s, n_grid)
    tail = tail_of(dist, max(args.jmax, 1))
    grid = joint_cumulant_expansion(tail, s, args.imax, args.jmax)
    remainder = grid.remainder_order
    # strictly below the remainder, whose own terms' float orders may round down
    exp = grid.truncated(remainder - 1e-9)
    blocks = _depth_blocks(s)
    # one Monte Carlo draw per stream serves every n (common random numbers)
    mc_grid = dict.fromkeys(n_grid)
    rows = []
    for n in n_grid:
        ev = exp.evaluate(n)[0]
        norm = (float(n * tail.c[0]) ** (1.0 / tail.alpha)) ** len(s)
        if args.oracle == "quad":
            res = [
                quad_moment(dist, n, *b, 1.0) if len(b) == 1
                else quad_joint_moment(dist, n, *b, 1.0, 1.0) if len(b) == 2
                else _quad(dist, n, b, (1.0,) * len(b))
                for b in blocks
            ]
            floor = 1e-9 if len(s) == 1 else 1e-8
        else:
            specs = [(b, (1.0,) * len(b)) for b in blocks]
            res = mc_top_order_stats(dist, n, specs, args.reps, args.seed, grid=mc_grid)
            floor = 4.0 * res[0].std_error / norm
        moment = dict(zip(blocks, (r.value for r in res)))
        rows.append((n, ev, _joint_cumulant(s, moment.__getitem__) / norm, floor))
    return remainder, rows


def _cmd_verify(args, out) -> int:
    if min(args.n) < 1 or len(set(args.n)) < 3:
        raise SystemExit(_usage_error(f"--n needs 3 distinct values >= 1, got {args.n}"))
    dist = parse_distribution(args.dist)
    remainder, rows = _verify_values(args, dist, tuple(args.s), args.n)
    diffs = [abs(ev - ov) for _, ev, ov, _ in rows]
    floor = max(max(fl for *_, fl in rows), 1e-12)
    fit = convergence_rate_probe(args.n, diffs, floor=floor)
    # one-sided: a wrong coefficient below the first omitted order R would
    # make the difference decay like n^-o with o < R, never faster
    ok = fit.saturated or fit.slope <= -remainder + VERIFY_SLOPE_TOL
    slope_text = "saturated" if fit.saturated else repr(fit.slope)
    out_rows = [
        (n, repr(ev), repr(ov), repr(abs(ev - ov)), slope_text)
        for n, ev, ov, _ in rows
    ]
    payload = {
        "command": "verify",
        "dist": str(dist),
        "s": list(args.s),
        "oracle": args.oracle,
        "expected_order": -remainder,
        "slope": None if fit.saturated else fit.slope,
        "saturated": fit.saturated,
        "passed": ok,
    }
    _emit(
        args,
        payload,
        ("n", "expansion", "oracle", "abs_diff", "slope"),
        out_rows,
        out,
    )
    return 0 if ok else 1


def _cmd_typos(args, out) -> int:
    rows = [
        (e["id"], e["where"], e["printed"], e["derived"], e["verified_by"])
        for e in ledger_rows()
    ]
    payload = {"command": "typos", "entries": len(rows)}
    _emit(args, payload, ("id", "where", "printed", "derived", "verified_by"), rows, out)
    return 0


def _cmd_list(args, out) -> int:
    rows = []
    for name, law in _LAWS.items():
        d = DistributionSpec(name, law.example)
        flags = (d.has_exact_quantile, d.has_numeric_quantile, d.has_sampler)
        rows.append((name, str(d), *map(int, flags)))
    columns = ("name", "example", "exact_quantile", "numeric_quantile", "sampler")
    _emit(args, {"command": "list-distributions"}, columns, rows, out)
    return 0


_HANDLERS = {
    "invert": _cmd_invert,
    "moments": _cmd_moments,
    "verify": _cmd_verify,
    "typos": _cmd_typos,
    "list-distributions": _cmd_list,
}


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _HANDLERS[args.command](args, out)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except InfiniteMomentError as exc:
        print(f"moment does not exist: {exc}", file=sys.stderr)
        return 3
    except (ParetoTailError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
