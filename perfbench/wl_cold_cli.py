"""cold_cli: one fresh ``python -m paretotail.cli`` process per operation.

A round runs ten commands one at a time: invert (``--dist`` and ``--tail``),
moments with ``--n``, typos and list-distributions, each in CSV and in
``--format json``.  Interpreter start-up and package import dominate; no
oracle runs here.
"""

from __future__ import annotations

import ast
import csv
import json
import math
import random
import sys

import reference as ref
from harness import ROOT, run_child

NAME = "cold_cli"
TRACE_ROUNDS = 1
INVERT_ORDER = 6  # the float reversion stays within 1e-9 of cot(pi v) here
REL = 1e-9

CAUCHY_TAIL = ",".join(
    ["1", "2"] + [repr((-1.0) ** i / ((2 * i + 1) * math.pi)) for i in range(INVERT_ORDER + 1)]
)


def commands(seed: int) -> list:
    """(kind, argv after ``paretotail``) for one round; moments inputs come from the seed."""
    rng = random.Random(seed)
    alpha = rng.choice((1.5, 2.0, 2.5, 3.0))
    s = rng.choice((2, 3, 4))
    n = rng.randint(500, 5000)
    base = [
        ("invert", ["invert", "--dist", "cauchy", "--order", str(INVERT_ORDER), "--theta", "1"]),
        ("invert", ["invert", "--tail", CAUCHY_TAIL, "--order", str(INVERT_ORDER)]),
        ("moments", ["moments", "--dist", f"pareto({alpha:g})", "--s", str(s), "--n", str(n)]),
        ("typos", ["typos"]),
        ("list-distributions", ["list-distributions"]),
    ]
    out = []
    for kind, argv in base:
        out.append((kind, argv))
        out.append((kind, argv + ["--format", "json"]))
    return out


def test_ids() -> set:
    """'tests/<file>.py::<test name>' for every test function under tests/."""
    ids = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
                ids.add(f"tests/{path.name}::{node.name}")
    return ids


class State:
    def __init__(self, seed):
        from paretotail import catalog

        self.catalog = catalog
        self.commands = commands(seed)
        self.tests = test_ids()
        self.cot = ref.cot_laurent(INVERT_ORDER)
        self.max_child_rss_mb = 0.0
        # warm-up: one child compiles the package's bytecode and fills the
        # file cache before timing
        code, _, err, _, _ = run_child(self.argv(("list-distributions", ["list-distributions"])))
        if code != 0:
            raise RuntimeError(f"warm-up child failed: {err.strip()[-300:]}")

    @staticmethod
    def argv(command):
        return [sys.executable, "-m", "paretotail.cli"] + command[1]

    def ops(self):
        return len(self.commands)

    def label(self, i):
        return "paretotail " + " ".join(self.commands[i][1])[:80]

    def run_op(self, i):
        code, out, err, _, rss = run_child(self.argv(self.commands[i]))
        self.max_child_rss_mb = max(self.max_child_rss_mb, rss)
        return code == 0, (code, out)


def setup(seed):
    return State(seed)


def describe(state) -> str:
    return f"{len(state.commands)} child processes per round, one at a time"


# --- checks ----------------------------------------------------------------

def _rows(text, as_json):
    if as_json:
        payload = json.loads(text)
        return payload, payload["rows"]
    lines = text.splitlines()
    reader = csv.reader(lines[: lines.index("")] if "" in lines else lines)
    header, *body = list(reader)
    return lines, [dict(zip(header, row)) for row in body]


def _close(x, y, rel=REL):
    return abs(x - y) <= rel * max(abs(x), abs(y))


def check_output(state, i, output) -> list:
    kind, argv = state.commands[i]
    label = " ".join(argv[:3])
    code, text = output
    as_json = "--format" in argv
    try:
        payload, rows = _rows(text, as_json)
    except (ValueError, KeyError) as exc:
        return [f"{label}: unparsable output ({exc})"]
    bad = []
    if kind == "invert":
        for row in rows:
            j = int(row["i"])
            if float(row["exponent"]) != 2 * j - 1 or not _close(float(row["coefficient"]), state.cot[j]):
                bad.append(f"{label}: row {j} {row} vs cot coefficient {state.cot[j]!r}")
        if [int(r["i"]) for r in rows] != list(range(INVERT_ORDER + 1)):
            bad.append(f"{label}: rows {[r['i'] for r in rows]}")
    elif kind == "moments":
        alpha = float(argv[argv.index("--dist") + 1][7:-1])
        s = int(argv[argv.index("--s") + 1])
        n = int(argv[argv.index("--n") + 1])
        want = ref.pareto_joint_moment(n, (s,), (1,), alpha)
        if as_json:
            value = float(payload["value"])
        else:
            tail = payload[payload.index("") + 1:]
            if tail[0] != "n,value,last_term":
                return [f"{label}: no evaluation block"]
            value = float(tail[1].split(",")[1])
        if not _close(value, want):
            bad.append(f"{label}: value {value!r} vs log-gamma {want!r}")
    elif kind == "typos":
        missing = [r["verified_by"] for r in rows if r["verified_by"] not in state.tests]
        if missing or not rows:
            bad.append(f"{label}: verified_by names no test: {missing or 'no rows'}")
        if as_json and payload["entries"] != len(rows):
            bad.append(f"{label}: entries {payload['entries']} for {len(rows)} rows")
    elif kind == "list-distributions":
        names = tuple(r["name"] for r in rows)
        if names != tuple(state.catalog.CATALOG_NAMES):
            bad.append(f"{label}: names {names}")
        for r in rows:
            try:
                if state.catalog.parse_distribution(r["example"]).name != r["name"]:
                    bad.append(f"{label}: example {r['example']} is not a {r['name']}")
            except ValueError as exc:
                bad.append(f"{label}: example {r['example']} does not parse ({exc})")
    return bad


def check_round(state, oks, outputs):
    """(failures, known faults): no cold_cli operation has a known fault."""
    bad = []
    for i, (ok, out) in enumerate(zip(oks, outputs)):
        if ok:
            bad += check_output(state, i, out)
    return bad, 0


def warm_cli_ms(reps: int = 5) -> dict:
    """Median in-process ``cli.run`` time per subcommand, after one warm call."""
    import io
    import statistics
    import time

    import paretotail.cli as cli

    out = {}
    for kind, argv in commands(0)[::2]:
        cli.run(argv, out=io.StringIO())
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            cli.run(argv, out=io.StringIO())
            times.append((time.perf_counter() - t0) * 1e3)
        out.setdefault(kind, []).append(statistics.median(times))
    return {kind: statistics.median(v) for kind, v in out.items()}
