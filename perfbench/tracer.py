"""Spans and counts at paretotail's layer boundaries, recorded from outside.

For the length of a traced run, ``install`` rebinds module attributes of the
package (for example ``paretotail.oracle.upper_quantile`` or
``paretotail.expansion.quantile_series``) to wrappers that open a span around
each call.  Every module that imported a function by name holds its own
reference, so each reference is rebound; ``restore`` puts the originals
back.  Nothing under ``src/`` is edited.

A span is (id, parent id, operation id, name, start ns, end ns).  Spans and
counts stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import collections
import functools
import statistics
import sys
import time
from fractions import Fraction

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, op, name, t0, t1]
        self.counts = collections.Counter()
        self.op_id = None
        self._stack = []
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self.op_id, name, _now(), 0])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][5] = _now()
        self._stack.pop()

    def wrap(self, fn, name, after=None):
        """Wrapper that records a span per call; ``name`` is a string or a
        function of the call's arguments, ``after(args, result)`` adds counts."""
        begin, end = self.begin, self.end
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = begin(name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                end(sid)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counting(self, fn, key):
        """Wrapper that only counts calls (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- rebinding -----------------------------------------------------------

    def rebind(self, original, replacement) -> None:
        """Point every paretotail module attribute bound to ``original`` at
        ``replacement``."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "paretotail" or mod_name.startswith("paretotail.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    hits += 1
        if not hits:
            raise RuntimeError(f"nothing in paretotail is bound to {original!r}")

    def restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive durations (ms) and total self ms.

        Self time is a span's duration minus the time its child spans cover;
        spans are opened and closed on one thread, so children never overlap.
        """
        child_ns = collections.Counter()
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        out = {}
        for sid, _, _, name, t0, t1 in self.spans:
            rec = out.setdefault(name, {"calls": 0, "durations_ms": [], "self_ms": 0.0})
            rec["calls"] += 1
            rec["durations_ms"].append((t1 - t0) / 1e6)
            rec["self_ms"] += (t1 - t0 - child_ns[sid]) / 1e6
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,op_id,name,start_ns,end_ns\n")
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},{'' if op is None else op},{name},{t0},{t1}\n")
            for key in sorted(self.counts):
                fh.write(f"# count {key}={self.counts[key]}\n")


def _exact(x) -> bool:
    return isinstance(x, Fraction)


def install(tracer: Tracer) -> None:
    """Wrap each layer boundary of paretotail; undo with ``tracer.restore()``."""
    import numpy as np

    import paretotail.cli as cli
    from paretotail import betamoments, catalog, expansion, inversion, oracle, quantile, series

    t = tracer
    counts = t.counts

    # series: BellTable construction is the layer's unit of work
    base = series.BellTable
    begin, end = t.begin, t.end

    class BellTable(base):
        def __init__(self, x):
            sid = begin("series.BellTable")
            try:
                super().__init__(x)
            finally:
                end(sid)

    t.rebind(base, BellTable)

    t.rebind(inversion.invert_series, t.wrap(inversion.invert_series, "inversion.invert_series"))
    t.rebind(
        quantile.quantile_series,
        t.wrap(
            quantile.quantile_series,
            lambda a: "quantile.quantile_series." + ("fraction" if _exact(a[0].c[0]) else "float"),
        ),
    )
    t.rebind(
        betamoments.gamma_ratio_coeffs,
        t.wrap(betamoments.gamma_ratio_coeffs, "betamoments.gamma_ratio_coeffs"),
    )
    t.rebind(betamoments.n_free_factor, t.wrap(betamoments.n_free_factor, "betamoments.n_free_factor"))

    t.rebind(
        expansion.moment_expansion,
        t.wrap(
            expansion.moment_expansion,
            lambda a: "expansion.moment_expansion." + ("fraction" if _exact(a[0].tail.c[0]) else "float"),
        ),
    )
    for fname in ("mean_expansion", "covariance_expansion", "third_cumulant_expansion"):
        fn = getattr(expansion, fname)
        t.rebind(fn, t.wrap(fn, "expansion." + fname))

    def quantile_counts(args, result):
        counts["catalog.upper_quantile.scalar_calls" if np.ndim(args[1]) == 0 else "catalog.upper_quantile.array_calls"] += 1

    t.rebind(
        catalog.upper_quantile,
        t.wrap(catalog.upper_quantile, lambda a: "catalog.upper_quantile." + a[0].name, after=quantile_counts),
    )
    t.rebind(catalog.sample, t.wrap(catalog.sample, "catalog.sample"))

    def evals(key):
        def after(args, result):
            counts[key] += result.cost
        return after

    t.rebind(oracle.quad_moment, t.wrap(oracle.quad_moment, "oracle.quad_moment", evals("oracle.quad_moment.evals")))
    t.rebind(
        oracle.quad_joint_moment,
        t.wrap(oracle.quad_joint_moment, "oracle.quad_joint_moment", evals("oracle.quad_joint_moment.evals")),
    )
    t.rebind(oracle.quad, t.counting(oracle.quad, "oracle.scipy_quad.calls"))
    t.rebind(oracle.mc_top_order_stats, t.wrap(oracle.mc_top_order_stats, "oracle.mc_top_order_stats"))
    t.rebind(
        oracle.convergence_rate_probe,
        t.wrap(oracle.convergence_rate_probe, "oracle.convergence_rate_probe"),
    )
    t.rebind(cli.run, t.wrap(cli.run, "cli.run"))


QUANTILE_LAWS = ("cauchy", "f_dist", "frechet", "pareto", "student_t")  # laws with a quantile
EXPANSION_SPANS = (
    "expansion.moment_expansion.float",
    "expansion.moment_expansion.fraction",
    "expansion.mean_expansion",
    "expansion.covariance_expansion",
    "expansion.third_cumulant_expansion",
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass: (value, unit) by name.

    A median over calls that never happened reads 0; so does a count.
    """
    summ = tracer.summary()
    counts = tracer.counts
    spans = tracer.spans

    def calls(name):
        return summ.get(name, {}).get("calls", 0)

    def median_ms(name):
        d = summ.get(name, {}).get("durations_ms")
        return statistics.median(d) if d else 0.0

    def self_ms(*names):
        return sum(summ.get(n, {}).get("self_ms", 0.0) for n in names)

    # outermost expansion spans: calls into the expansion layer from outside it
    names = {sid: name for sid, _, _, name, _, _ in spans}
    parents = {sid: parent for sid, parent, _, _, _, _ in spans}

    def expansion_ancestor(sid):
        p = parents[sid]
        while p is not None:
            if names[p] in EXPANSION_SPANS:
                return p
            p = parents[p]
        return None

    outer_exp = [s for s in spans if s[3] in EXPANSION_SPANS and expansion_ancestor(s[0]) is None]
    qs_in_exp = sum(
        1 for s in spans if s[3].startswith("quantile.quantile_series.") and expansion_ancestor(s[0]) is not None
    )
    verify_build = sum(
        (s[5] - s[4]) / 1e6 for s in outer_exp if s[1] is not None and names[s[1]] == "cli.run"
    )

    m = {
        "quantile.quantile_series.float_ms": (median_ms("quantile.quantile_series.float"), "ms"),
        "quantile.quantile_series.fraction_ms": (median_ms("quantile.quantile_series.fraction"), "ms"),
        "inversion.invert_series.calls": (calls("inversion.invert_series"), "count"),
        "series.BellTable.builds": (calls("series.BellTable"), "count"),
        "series.BellTable.self_ms": (self_ms("series.BellTable"), "ms"),
        "betamoments.gamma_ratio_coeffs.calls": (calls("betamoments.gamma_ratio_coeffs"), "count"),
        "betamoments.gamma_ratio_coeffs.self_ms": (self_ms("betamoments.gamma_ratio_coeffs"), "ms"),
        "betamoments.n_free_factor.calls": (calls("betamoments.n_free_factor"), "count"),
        "expansion.moment_expansion.float_ms": (median_ms("expansion.moment_expansion.float"), "ms"),
        "expansion.moment_expansion.fraction_ms": (median_ms("expansion.moment_expansion.fraction"), "ms"),
        "expansion.quantile_series_calls": (qs_in_exp, "count"),
        "expansion.expansion_calls": (len(outer_exp), "count"),
        "expansion.quantile_series_per_expansion": (qs_in_exp / len(outer_exp) if outer_exp else 0.0, "ratio"),
        "expansion.third_cumulant_expansion.ms": (median_ms("expansion.third_cumulant_expansion"), "ms"),
        "expansion.verify_build_ms": (verify_build, "ms"),
        "oracle.quad_moment.calls": (calls("oracle.quad_moment"), "count"),
        "oracle.quad_moment.self_ms": (self_ms("oracle.quad_moment"), "ms"),
        "oracle.quad_moment.evals": (counts["oracle.quad_moment.evals"], "count"),
        "oracle.quad_joint_moment.calls": (calls("oracle.quad_joint_moment"), "count"),
        "oracle.quad_joint_moment.self_ms": (self_ms("oracle.quad_joint_moment"), "ms"),
        "oracle.quad_joint_moment.evals": (counts["oracle.quad_joint_moment.evals"], "count"),
        "oracle.scipy_quad.calls": (counts["oracle.scipy_quad.calls"], "count"),
        "oracle.mc_top_order_stats.self_ms": (self_ms("oracle.mc_top_order_stats"), "ms"),
        "oracle.convergence_rate_probe.ms": (
            sum(summ.get("oracle.convergence_rate_probe", {}).get("durations_ms", [])), "ms"),
        "catalog.upper_quantile.scalar_calls": (counts["catalog.upper_quantile.scalar_calls"], "count"),
        "catalog.upper_quantile.array_calls": (counts["catalog.upper_quantile.array_calls"], "count"),
        "catalog.upper_quantile.self_ms": (
            self_ms(*("catalog.upper_quantile." + law for law in QUANTILE_LAWS)), "ms"),
        "catalog.sample.self_ms": (self_ms("catalog.sample"), "ms"),
        "cli.verify.self_ms": (self_ms("cli.run"), "ms"),
    }
    for law in QUANTILE_LAWS:
        m[f"catalog.upper_quantile.self_ms.{law}"] = (self_ms("catalog.upper_quantile." + law), "ms")
    return m
