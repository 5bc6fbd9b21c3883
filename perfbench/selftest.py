"""Self-test of the output checks: each must catch an output off by 1e-6.

    python3 perfbench/selftest.py

Runs one round of every workload from the repository root, confirms that the
real outputs pass their checks (apart from the known faults), then scales
the numbers of each output by 1 + 1e-6, one output and one column at a time
(one coefficient at a time for quantile series), and confirms that every
such output is rejected.  Text-only outputs (the
typos and list-distributions tables) are altered by renaming one entry.
Exits 1 when a check passes a perturbed output.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction

import harness

EPS = 1e-6


def scale(x):
    if isinstance(x, Fraction):
        return x * Fraction(1_000_001, 1_000_000)
    return x * (1 + EPS)


def coeff_cases():
    import wl_coeff as w

    state = w.setup(1)
    outputs = [state.run_op(i)[1] for i in range(state.ops())]
    canons = [w.canon(o) for o in outputs]
    results = []
    for op, c in zip(state.ops_list, canons):
        if op.check is None or op.known_fault:
            continue
        twin = canons[op.twin] if op.twin is not None else None
        clean = w.check_output(op, c, twin)
        tag = c[0]
        if tag == "q":
            # one coefficient at a time, the last one included; a coefficient
            # that is zero up to rounding has no relative error to catch
            size = max(abs(float(x)) for x in c[4])
            for i, x in enumerate(c[4]):
                if abs(float(x)) > 1e-9 * size:
                    bent = c[:4] + (c[4][:i] + (scale(x),) + c[4][i + 1:],)
                    results.append((f"coeff {op.check}: {op.label} C_{i}", clean, w.check_output(op, bent, twin)))
            continue
        if tag == "e":
            bent = c[:4] + (tuple((ij, scale(v)) for ij, v in c[4]),)
        elif tag == "cov":
            bent = (tag,) + tuple(scale(x) for x in c[1:7]) + c[7:]
        else:
            bent = (tag,) + tuple(scale(x) for x in c[1:])
        results.append((f"coeff {op.check}: {op.label}", clean, w.check_output(op, bent, twin)))
    return results


def _bend_csv(text, column):
    rows = list(csv.reader(text.splitlines()))
    for row in rows[1:]:
        row[column] = repr(float(row[column]) * (1 + EPS))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def verify_cases():
    import wl_verify as w

    state = w.setup(1)
    results = []
    for i in range(state.ops()):
        _, (code, text, mc) = state.run_op(i)
        label = "verify " + " ".join(state.argvs[i][1:5])
        request = state.requests[i]
        clean = w.check_output(request, (code, text, mc), state.refs)
        for column, what in ((1, "expansion"), (2, "oracle"), (3, "abs_diff")):
            bent = w.check_output(request, (code, _bend_csv(text, column), mc), state.refs)
            results.append((f"{label} [{what}]", clean, bent))
    return results


def _bend_cli(kind, argv, text):
    as_json = "--format" in argv
    if kind in ("invert", "moments"):
        if as_json:
            payload = json.loads(text)
            if kind == "invert":
                for row in payload["rows"]:
                    row["coefficient"] = repr(float(row["coefficient"]) * (1 + EPS))
            else:
                payload["value"] *= 1 + EPS
            return json.dumps(payload)
        if kind == "invert":
            return _bend_csv(text, 2)
        lines = text.splitlines()
        n, value, last = lines[-1].split(",")
        return "\n".join(lines[:-1] + [f"{n},{float(value) * (1 + EPS)!r},{last}"]) + "\n"
    # text tables: rename the first entry
    field = "verified_by" if kind == "typos" else "name"
    if as_json:
        payload = json.loads(text)
        payload["rows"][0][field] += "_x"
        return json.dumps(payload)
    rows = list(csv.reader(text.splitlines()))
    rows[1][rows[0].index(field)] += "_x"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def cold_cli_cases():
    import wl_cold_cli as w

    state = w.setup(1)
    results = []
    for i, (kind, argv) in enumerate(state.commands):
        _, (code, text) = state.run_op(i)
        label = "cold_cli " + " ".join(argv)
        clean = w.check_output(state, i, (code, text))
        bent = w.check_output(state, i, (code, _bend_cli(kind, argv, text)))
        results.append((label[:90], clean, bent))
    return results


def main() -> int:
    if not (harness.SRC / "paretotail" / "__init__.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    ok = True
    for cases in (coeff_cases, verify_cases, cold_cli_cases):
        for label, clean, bent in cases():
            if clean:
                ok = False
                print(f"FAILS CLEAN  {label}: {clean}")
            elif not bent:
                ok = False
                print(f"MISSED       {label}")
            else:
                print(f"caught       {label}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
