"""Benchmark of paretotail: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload coeff --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics for ``--seconds`` of
whole rounds.  With ``--trace 1`` it runs a fixed number of rounds twice,
untraced and then traced, and reports the per-layer metrics and the tracing
overhead.  Every output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time

import harness

WORKLOADS = ("coeff", "verify_quick", "verify", "cold_cli")
SETUP_CHILDREN = 4  # set-up is also timed in this many fresh interpreters
RUN_LIMIT_S = 150.0  # no round starts that would likely end after this
STARTED = time.perf_counter()


class Pass:
    """Outcome of running whole rounds of a workload."""

    def __init__(self, n_ops):
        self.per_op_ms = [[] for _ in range(n_ops)]  # latencies of op i, one per round
        self.elapsed_s = 0.0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @property
    def ops_per_s(self):
        return self.attempted / self.elapsed_s

    @property
    def p50_ms(self):
        return statistics.median(x for lat in self.per_op_ms for x in lat)

    @property
    def best_ms(self):
        """Each operation's fastest latency over the rounds."""
        return [min(lat) for lat in self.per_op_ms]

    def raw(self) -> str:
        return f"{self.rounds} round(s), {self.attempted} operations in {self.elapsed_s:.3f} s"


def run_rounds(wl, state, seconds=None, rounds=None, tracer=None, res=None) -> Pass:
    """Whole rounds until ``seconds`` of timed work (fewer when another round
    would likely end past ``RUN_LIMIT_S`` from start), or exactly ``rounds``
    more rounds added to ``res``.

    Only the operations are timed; each round is checked after its last
    operation, outside the timed span.
    """
    clock = time.perf_counter
    n_ops = state.ops()
    if res is None:
        res = Pass(n_ops)
    stop_at = res.rounds + rounds if rounds is not None else None
    while True:
        oks, outputs = [], []
        start = clock()
        for i in range(n_ops):
            t0 = clock()
            if tracer is not None:
                tracer.op_id = res.attempted
                sid = tracer.begin("op." + wl.NAME)
            ok, out = state.run_op(i)
            if tracer is not None:
                tracer.end(sid)
            res.per_op_ms[i].append((clock() - t0) * 1e3)
            res.attempted += 1
            oks.append(ok)
            outputs.append(out)
        res.elapsed_s += clock() - start
        res.rounds += 1
        bad, known = wl.check_round(state, oks, outputs)
        res.problems += bad
        res.failed += oks.count(False) + known
        if stop_at is not None:
            if res.rounds >= stop_at:
                return res
        elif res.elapsed_s >= seconds:
            return res
        elif clock() - STARTED + res.elapsed_s / res.rounds > RUN_LIMIT_S:
            print(f"stopping after {res.rounds} round(s): another would pass {RUN_LIMIT_S:.0f} s")
            return res


def end_to_end(wl, state, res: Pass, setup_s: float) -> dict:
    """Throughput and median latency of a round made of each operation at
    its fastest over the run's rounds, as ``timeit`` takes the best repeat.

    The host runs this code at up to twice its fastest speed for seconds to
    minutes at a time, the fixed pure-Python loop of the drift probe too.
    Contention only adds time, so an operation's fastest time over some
    hundred rounds is the figure it disturbs least: over the same runs the
    plain figures (``Pass.ops_per_s``, ``Pass.p50_ms``, printed beside
    these) spread about twice as much for ``coeff``, and for
    ``verify_quick`` more in some sets and less in others (see README)."""
    best = res.best_ms
    m = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(best) * 1e3 / sum(best), "1/s"),
        "latency_p50_ms": (statistics.median(best), "ms"),
    }
    rss = state.max_child_rss_mb if wl.NAME == "cold_cli" else harness.self_peak_rss_mb()
    m["peak_rss_mb"] = (rss, "MB")
    return m


def traced(wl, state):
    """Per-layer metrics: a fixed number of rounds traced, each after the
    same round untraced, so that the overhead compares rounds run close
    together in time."""
    import tracer as tr
    from wl_cold_cli import warm_cli_ms

    plain, with_spans = Pass(state.ops()), Pass(state.ops())
    t = tr.Tracer()
    for _ in range(wl.TRACE_ROUNDS):
        run_rounds(wl, state, rounds=1, res=plain)
        tr.install(t)
        try:
            run_rounds(wl, state, rounds=1, tracer=t, res=with_spans)
        finally:
            t.restore()
    path = harness.OUT_DIR / f"trace_{wl.NAME}.csv"
    t.write(path)

    m = tr.layer_metrics(t)
    overhead = (plain.ops_per_s / with_spans.ops_per_s - 1.0) * 100.0
    m["trace.overhead_pct"] = (overhead, "%")
    for name, (value, unit) in harness.import_times().items():
        m[name] = (value, unit)
    for kind, ms in warm_cli_ms().items():
        m[f"cli.{kind}.warm_ms"] = (ms, "ms")
    print(f"trace: {len(t.spans)} spans written to {path.relative_to(harness.ROOT)}")
    print(
        f"tracing overhead: {overhead:+.1f}% "
        f"(untraced {plain.ops_per_s:.4g} ops/s, p50 {plain.p50_ms:.4g} ms; "
        f"traced {with_spans.ops_per_s:.4g} ops/s, p50 {with_spans.p50_ms:.4g} ms; "
        f"{wl.TRACE_ROUNDS} round(s) each)"
    )
    return m, [plain, with_spans]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time the set-up alone and exit")
    args = p.parse_args(argv)

    if not (harness.SRC / "paretotail" / "__init__.py").is_file():
        print(f"error: no src/paretotail under {harness.ROOT}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    wl = importlib.import_module("wl_" + args.workload)

    t0 = time.perf_counter()
    state = wl.setup(args.seed)
    setup_here = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_here}))
        return 0

    drift_before = harness.drift_probe_ms()
    setups = [setup_here] + harness.setup_samples(args.workload, args.seed, SETUP_CHILDREN)
    setup_s = statistics.median(setups)
    print(f"workload {wl.NAME}: {wl.describe(state)}; seed {args.seed}")
    print("set-up samples (s): " + ", ".join(f"{x:.3f}" for x in setups))

    if args.trace:
        metrics, passes = traced(wl, state)
    else:
        res = run_rounds(wl, state, seconds=args.seconds)
        metrics, passes = end_to_end(wl, state, res, setup_s), [res]
        print("timed: " + res.raw())
        print(f"plain figures (not gated): {res.ops_per_s:.6g} ops/s, p50 {res.p50_ms:.6g} ms")
        print("per-operation best and median (ms):")
        for i, lat in enumerate(res.per_op_ms):
            print(f"  {min(lat):12.3f}  {statistics.median(lat):12.3f}  {state.label(i)}")
    drift_after = harness.drift_probe_ms()

    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    problems = [x for r in passes for x in r.problems]
    for line in problems[:20]:
        print("CHECK FAILED: " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    print(f"attempted {attempted}, failed {failed}")
    print(f"host drift probe (ms, not a metric): before {drift_before:.3f}, after {drift_after:.3f}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    harness.OUT_DIR.mkdir(exist_ok=True)
    out = harness.OUT_DIR / f"result_{wl.NAME}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
