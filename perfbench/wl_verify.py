"""verify: in-process ``paretotail verify`` requests, import paid once.

One operation is one ``paretotail.cli.run(["verify", ...])`` call from the
fixed list below; a round is the whole list in order.  Nearly all the time
goes to the oracles and the catalog quantiles they call.
"""

from __future__ import annotations

import csv
import io
import json

import reference as ref
from harness import BENCH_DIR

NAME = "verify"
TRACE_ROUNDS = 1
REFS_PATH = BENCH_DIR / "verify_refs.json"
DEFAULT_N = "50,100,200"
QUAD_REL = 1e-9  # quadrature oracle against its reference (they agree to 2e-12)
MC_SIGMAS = 8.0  # MC oracle against the reference, in reported standard errors

# (dist, s, n grid or None, MC reps or None)
REQUESTS = (
    ("cauchy", "1", None, None),
    ("frechet(1)", "2,1", None, None),
    ("frechet(1)", "3,1", "100,200,400", None),
    ("frechet(2.5)", "1", None, None),
    ("pareto(1.5)", "2", None, None),
    ("student_t(4)", "1", None, None),
    ("student_t(3)", "2,1", None, None),
    ("f_dist(2,6)", "1", None, None),
    ("pareto", "3", "20,40,80", 100_000),
    ("student_t(3)", "1", None, 200_000),
    ("stable(0.5,-0.5)", "4", None, 100_000),
    # exit 1 today on correct expansions: verify fits one slope of log|diff|
    # and wants it within 0.5 of the tagged first omitted order
    ("f_dist(2,6)", "2,1", None, None),
    ("student_t(3)", "2", None, None),
    ("cauchy", "3,1", None, None),
)


def request_key(dist, s, n):
    return f"{dist} --s {s} --n {n or DEFAULT_N}"


def request_argv(dist, s, n, reps, seed):
    argv = ["verify", "--dist", dist, "--s", s, "--n", n or DEFAULT_N]
    if reps:
        argv += ["--oracle", "mc", "--reps", str(reps), "--seed", str(seed)]
    return argv


def reference_value(dist, s, n) -> tuple:
    """(normalized oracle reference, how it was computed) for one row."""
    depths = [int(x) for x in s.split(",")]
    if len(depths) == 2:
        return ref.normalized_covariance(dist, n, *depths), "x-space quadrature (scipy.stats)"
    (d,) = depths
    name = dist.split("(")[0]
    if name == "pareto":
        alpha = float(dist[7:-1]) if "(" in dist else 1.0
        return ref.pareto_joint_moment(n, (d,), (1,), alpha) / ref.normalization(dist, n), "closed form (log-gamma)"
    if name == "frechet" and float(dist[8:-1]) > 1:
        return ref.frechet_mean(n, d, float(dist[8:-1])) / ref.normalization(dist, n), "closed form (binomial sum)"
    return ref.normalized_mean(dist, n, d), "x-space quadrature (scipy.stats)"


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)["references"]


class State:
    def __init__(self, seed, requests=REQUESTS):
        import paretotail.cli as cli
        from paretotail import catalog, oracle

        self.cli = cli
        self.requests = requests
        self.refs = load_refs()
        self.argvs = [request_argv(d, s, n, reps, seed) for d, s, n, reps in requests]
        self.mc_results = []  # OracleResults of the MC calls, in call order

        # warm-up: one cheap oracle call per law, so lazy scipy.stats imports
        # finish before timing
        for dist in sorted({d for d, _, _, reps in requests if not reps}):
            oracle.quad_moment(catalog.parse_distribution(dist), 10, 1, 1.0)
        for dist, s, _, reps in requests:
            if reps:
                depth = int(s)
                oracle.mc_top_order_stats(catalog.parse_distribution(dist), 10, [((depth,), (1.0,))], 10_000, seed)

        # The CLI prints MC values but not their standard errors; keep the
        # OracleResults it gets.  The lookup goes through the oracle module at
        # call time, so a traced run sees its own wrapper underneath.
        results = self.mc_results

        def keep_mc_results(*args, **kwargs):
            out = oracle.mc_top_order_stats(*args, **kwargs)
            results.append(out)
            return out

        cli.mc_top_order_stats = keep_mc_results

    def ops(self):
        return len(self.argvs)

    def label(self, i):
        dist, s, n, reps = self.requests[i]
        return "verify " + request_key(dist, s, n) + (" --oracle mc" if reps else "")

    def run_op(self, i):
        buf = io.StringIO()
        n_mc = len(self.mc_results)
        code = self.cli.run(self.argvs[i], out=buf)
        return code == 0, (code, buf.getvalue(), self.mc_results[n_mc:])


def setup(seed):
    return State(seed)


def describe(state) -> str:
    return f"{len(state.requests)} requests per round"


# --- checks ----------------------------------------------------------------

def check_output(request, output, refs) -> list:
    """Failures (strings) of one request's output."""
    dist, s, n_text, reps = request
    key = request_key(dist, s, n_text)
    code, text, mc = output
    if code not in (0, 1):
        return [f"{key}: exit code {code}"]
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != ["n", "expansion", "oracle", "abs_diff", "slope"]:
        return [f"{key}: unexpected header {rows[:1]}"]
    body = rows[1:]
    want = refs[key]
    grid = [int(x) for x in (n_text or DEFAULT_N).split(",")]
    if [int(r[0]) for r in body] != grid:
        return [f"{key}: n column {[r[0] for r in body]}"]
    bad = []
    if len({r[4] for r in body}) != 1:
        bad.append(f"{key}: slope column differs between rows")
    for j, (row, n) in enumerate(zip(body, grid)):
        ev, ov, diff = float(row[1]), float(row[2]), float(row[3])
        if not abs(diff - abs(ev - ov)) <= 1e-12 * max(abs(ev), abs(ov)):
            bad.append(f"{key} n={n}: abs_diff {diff!r} is not |expansion - oracle|")
        r = want["oracle"][j]
        if reps:
            # each MC call serves one n; its single result is E X_{n,n-s}
            (res,) = mc[j]
            norm = ref.normalization(dist, n)
            if not abs(ov - res.value / norm) <= 1e-12 * abs(ov):
                bad.append(f"{key} n={n}: printed oracle {ov!r} is not the MC mean {res.value / norm!r}")
            if not abs(ov - r) <= MC_SIGMAS * res.std_error / norm:
                bad.append(f"{key} n={n}: MC {ov!r} vs reference {r!r} beyond {MC_SIGMAS} SE")
        elif not abs(ov - r) <= QUAD_REL * abs(r):
            bad.append(f"{key} n={n}: oracle {ov!r} vs reference {r!r}")
    return bad


def check_round(state, oks, outputs):
    """(failures, known faults): a request that exits 1 is already a failed
    operation; its oracle values are still checked."""
    bad = []
    for request, out in zip(state.requests, outputs):
        bad += check_output(request, out, state.refs)
    return bad, 0
