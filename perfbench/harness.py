"""Timing, statistics and process helpers shared by the workloads."""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"


def child_env() -> dict:
    """Environment for child interpreters: the package is imported from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PARETOTAIL_SEED", None)  # the CLI's default MC seed stays the package default
    return env


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _drift_loop() -> int:
    acc = 0
    for i in range(20_000):
        acc = (acc + i * i) % 1_000_003
    return acc


def drift_probe_ms(reps: int = 15) -> float:
    """Median time of a fixed pure-Python loop: a reading of the host's speed.

    Printed before and after each workload; it is not a metric.  When it moves
    by as much as a metric does, the host changed speed, not the program.
    """
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _drift_loop()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def run_child(argv, timeout: float = 120.0):
    """Run one child interpreter to completion.

    Returns (exit code, stdout, stderr, wall seconds, peak RSS in MB of this
    child alone, from wait4).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    err_chunks = []
    reader = threading.Thread(target=lambda: err_chunks.append(proc.stderr.read()))
    reader.start()
    timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        out.decode(),
        b"".join(err_chunks).decode(),
        wall,
        usage.ru_maxrss / 1024.0,
    )


def setup_samples(workload: str, seed: int, count: int) -> list:
    """Set-up time of ``count`` fresh interpreters, each doing the workload's
    whole set-up (import, inputs, warm-up) and nothing else."""
    argv = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed), "--setup-only",
    ]
    out = []
    for _ in range(count):
        code, stdout, stderr, _, _ = run_child(argv, timeout=170.0)
        if code != 0:
            raise RuntimeError(f"set-up child failed ({code}): {stderr.strip()[-500:]}")
        out.append(json.loads(stdout.strip().splitlines()[-1])["setup_s"])
    return out


def import_times(reps: int = 3) -> dict:
    """Import costs in fresh interpreters, as (value, unit) by metric name.

    ``import.interpreter_ms`` is the wall time of a bare ``python -c pass``.
    The others are cumulative ``-X importtime`` figures from
    ``import paretotail, scipy.integrate, scipy.stats``: each module counts
    what it was first to import, in that order.  Medians over ``reps``.
    """
    bare = [run_child([sys.executable, "-c", "pass"])[3] * 1e3 for _ in range(reps)]
    modules = {"paretotail": [], "scipy.integrate": [], "scipy.stats": []}
    for _ in range(reps):
        code, _, err, _, _ = run_child(
            [sys.executable, "-X", "importtime", "-c", "import paretotail, scipy.integrate, scipy.stats"]
        )
        if code != 0:
            raise RuntimeError(f"import probe failed: {err.strip()[-300:]}")
        seen = {}
        for line in err.splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cumulative, name = line[len("import time:"):].split("|")
                name = name.strip()
                if name in modules and name not in seen:
                    seen[name] = int(cumulative) / 1e3
        for name, values in modules.items():
            values.append(seen.get(name, 0.0))
    out = {"import.interpreter_ms": (statistics.median(bare), "ms")}
    for name, values in modules.items():
        out[f"import.{name.replace('.', '_')}_ms"] = (statistics.median(values), "ms")
    return out
