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
import json
import os
import sys

from .catalog import (
    CATALOG_NAMES,
    DistributionSpec,
    parse_distribution,
    tail_of,
)
from .errors import InfiniteMomentError, ParetoTailError
from .expansion import (
    MomentQuery,
    covariance_expansion,
    mean_expansion,
    moment_expansion,
)
from .ledger import ledger_rows
from .oracle import (
    _check_mc_finiteness,
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


def _build_parser() -> argparse.ArgumentParser:
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
    p_inv.add_argument("--order", type=int, required=True)
    p_inv.add_argument("--theta", type=float, default=1.0)
    add_format(p_inv)

    p_mom = sub.add_parser("moments", help="joint moment expansion term grid")
    p_mom.add_argument("--dist", required=True)
    p_mom.add_argument("--s", type=_int_list, required=True)
    p_mom.add_argument("--theta", type=_float_list)
    p_mom.add_argument("--imax", type=int, default=7)
    p_mom.add_argument("--jmax", type=int, default=2)
    p_mom.add_argument("--n", type=int)
    add_format(p_mom)

    p_ver = sub.add_parser("verify", help="compare an expansion with an oracle")
    p_ver.add_argument("--dist", required=True)
    p_ver.add_argument("--s", type=_int_list, required=True)
    p_ver.add_argument("--n", type=_int_list, required=True)
    p_ver.add_argument("--oracle", choices=("quad", "mc"), default="quad")
    p_ver.add_argument("--reps", type=int, default=1_000_000)
    p_ver.add_argument(
        "--seed",
        type=int,
        default=int(os.environ.get(SEED_ENV_VAR, DEFAULT_SEED)),
    )
    p_ver.add_argument("--imax", type=int, default=2)
    p_ver.add_argument("--jmax", type=int, default=1)
    add_format(p_ver)

    p_typ = sub.add_parser("typos", help="print the correction ledger")
    add_format(p_typ)

    p_lst = sub.add_parser("list-distributions", help="catalog and capabilities")
    add_format(p_lst)
    return top


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


def _normalization(dist: DistributionSpec, n: int, theta_total: float) -> float:
    tail = tail_of(dist, 0)
    return float(n * tail.c[0]) ** (theta_total / tail.alpha)


def _require_mc_standard_error(dist: DistributionSpec, s) -> None:
    """Refuse a Monte Carlo check whose product has an infinite second
    moment: its batch standard error, and so the noise floor, would mean
    nothing."""
    try:
        _check_mc_finiteness(tail_of(dist, 0).alpha, s, (2.0,) * len(s))
    except InfiniteMomentError as exc:
        raise ParetoTailError(
            f"--oracle mc cannot verify {dist} at --s {','.join(map(str, s))}: "
            f"the squared product has an infinite mean, so the standard error "
            f"is undefined ({exc})"
        ) from None


def _verify_values(args, dist, s, n_grid):
    """(expansion value, oracle value, oracle floor) per n."""
    if args.oracle == "mc":
        _require_mc_standard_error(dist, s)
    if len(s) == 1:
        tail = tail_of(dist, max(args.jmax, 1))
        exp = mean_expansion(tail, s[0], imax=args.imax, jmax=args.jmax)
        # drop grid stragglers beyond the first omitted order so the fitted
        # slope is comparable with the remainder tag
        exp = exp.truncated(exp.remainder_order - 0.5)
        remainder = exp.remainder_order
        rows = []
        for n in n_grid:
            ev, _ = exp.evaluate(n)
            if args.oracle == "quad":
                res = quad_moment(dist, n, s[0], 1.0)
                floor = 1e-9
            else:
                (res,) = mc_top_order_stats(
                    dist, n, [((s[0],), (1.0,))], args.reps, args.seed
                )
                floor = 4.0 * res.std_error / _normalization(dist, n, 1.0)
            ov = res.value / _normalization(dist, n, 1.0)
            rows.append((n, ev, ov, floor))
        return remainder, rows
    if len(s) == 2:
        tail = tail_of(dist, max(args.jmax, 1))
        rep = covariance_expansion(tail, s[0], s[1])
        remainder = 2.0 * rep.a0
        rows = []
        for n in n_grid:
            ev = rep.evaluate(n)
            if args.oracle == "quad":
                pair = quad_joint_moment(dist, n, s[0], s[1], 1.0, 1.0)
                m1 = quad_moment(dist, n, s[0], 1.0)
                m2 = quad_moment(dist, n, s[1], 1.0)
                norm1 = _normalization(dist, n, 1.0)
                ov = pair.value / norm1**2 - m1.value * m2.value / norm1**2
                floor = 1e-8
            else:
                res_pair, res1, res2 = mc_top_order_stats(
                    dist,
                    n,
                    [
                        ((s[0], s[1]), (1.0, 1.0)),
                        ((s[0],), (1.0,)),
                        ((s[1],), (1.0,)),
                    ],
                    args.reps,
                    args.seed,
                )
                norm1 = _normalization(dist, n, 1.0)
                ov = (
                    res_pair.value / norm1**2
                    - res1.value * res2.value / norm1**2
                )
                floor = 4.0 * res_pair.std_error / norm1**2
            rows.append((n, ev, ov, floor))
        return remainder, rows
    raise SystemExit(_usage_error("verify supports 1 or 2 depths in --s"))


def _cmd_verify(args, out) -> int:
    dist = parse_distribution(args.dist)
    remainder, rows = _verify_values(args, dist, tuple(args.s), args.n)
    diffs = [abs(ev - ov) for _, ev, ov, _ in rows]
    floor = max(max(fl for *_, fl in rows), 1e-12)
    fit = convergence_rate_probe(args.n, diffs, floor=floor)
    ok = fit.saturated or abs(fit.slope - (-remainder)) <= VERIFY_SLOPE_TOL
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
    examples = {
        "pareto": "pareto(1)",
        "cauchy": "cauchy",
        "student_t": "student_t(3)",
        "f_dist": "f_dist(2,6)",
        "stable": "stable(0.5,-0.5)",
        "frechet": "frechet(1)",
    }
    rows = []
    for name in CATALOG_NAMES:
        d = parse_distribution(examples[name])
        rows.append(
            (
                name,
                examples[name],
                int(d.has_exact_quantile),
                int(d.has_numeric_quantile),
                int(d.has_sampler),
            )
        )
    payload = {"command": "list-distributions"}
    _emit(
        args,
        payload,
        ("name", "example", "exact_quantile", "numeric_quantile", "sampler"),
        rows,
        out,
    )
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
