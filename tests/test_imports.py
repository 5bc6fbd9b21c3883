"""What importing the package and running each path loads.

The series, expansion and ledger code is pure Python; numpy and scipy load
on the first quantile, CDF, sampler or oracle call.  Each check runs in a
fresh interpreter, so that nothing loaded by other tests hides an import.
"""

import importlib
import io
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import paretotail
from paretotail.cli import run

SRC = str(Path(paretotail.__file__).resolve().parents[1])
HEAVY = ("numpy", "scipy", "sympy")


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with PYTHONPATH=src; its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str) -> str:
    """Which of numpy, scipy and sympy are loaded once ``code`` has run."""
    probe = f"\nimport sys\nprint([m for m in {HEAVY!r} if m in sys.modules])\n"
    return fresh(code + probe).splitlines()[-1]


def test_import_loads_no_numeric_stack():
    assert loaded_after("import paretotail") == "[]"


def test_stable_quantile_builds_its_table_on_first_use():
    code = """
from paretotail import catalog
from paretotail.catalog import parse_distribution, tail_of, upper_quantile
dist = parse_distribution("stable(0.5,-0.5)")
tail_of(dist, 6)
print(catalog._stable_table.cache_info().currsize)
upper_quantile(dist, 0.1)
print(catalog._stable_table.cache_info().currsize)
"""
    assert fresh(code).split() == ["0", "1"]


def test_coefficient_paths_load_no_numeric_stack():
    code = """
import io
from fractions import Fraction as F
from paretotail import (FormalSeries, MomentQuery, TailModel, covariance_expansion,
    moment_expansion, quantile_series, third_cumulant_expansion)
from paretotail.cli import run
for argv in (
    ["invert", "--dist", "cauchy", "--order", "6"],
    ["invert", "--tail", "1,2,0.3,-0.1,0.05", "--order", "4"],
    ["moments", "--dist", "pareto(2)", "--s", "3,1", "--n", "100"],
    ["typos"],
    ["list-distributions"],
    ["list-distributions", "--format", "json"],
):
    assert run(argv, out=io.StringIO()) == 0, argv
for one in (1.0, F(1)):
    tail = TailModel(one, 2 * one, FormalSeries([3 * one / 10, -one / 10, one / 20]))
    quantile_series(tail, 1)
    moment_expansion(MomentQuery(tail, (3, 1), (1, 1), imax=3, jmax=2))
    covariance_expansion(tail, 3, 1)
    third_cumulant_expansion(5, 3, 1, tail)
"""
    assert loaded_after(code) == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--dist", "cauchy", "--s", "3", "--n", "50,100,200"],
        ["verify", "--dist", "student_t(4)", "--s", "2,1", "--n", "50,100,200"],
        [
            "verify", "--dist", "cauchy", "--s", "3", "--n", "50,100,200",
            "--oracle", "mc", "--reps", "20000", "--seed", "5",
        ],
    ],
)
def test_verify_from_cold_start(argv):
    # the same CSV as a run in this process, where numpy and scipy are loaded
    out = io.StringIO()
    code_here = run(argv, out=out)
    cold = fresh(
        "import io\nfrom paretotail.cli import run\n"
        f"out = io.StringIO()\ncode = run({argv!r}, out=out)\n"
        "print(code)\nprint(out.getvalue(), end='')\n"
    )
    assert cold == f"{code_here}\n{out.getvalue()}"


@pytest.mark.parametrize(
    "expr",
    [
        "upper_quantile(parse_distribution('student_t(3)'), 1e-3)",
        "upper_quantile(parse_distribution('cauchy'), 1e-3)",
        "cdf(parse_distribution('f_dist(2,6)'), 4.0)",
        "float(upper_quantile(parse_distribution('frechet(2)'), 1 - 0.99))",
        "make_rng(7, 1).random(3)",
        "quad_moment(parse_distribution('pareto(2)'), 20, 1, 1.0)",
        "mc_top_order_stats(parse_distribution('pareto(3)'), 30, [((2, 1), (1.0, 1.0))], 10_000, 3)",
        "convergence_rate_probe([50, 100, 200], [1e-3, 2.6e-4, 6e-5])",
        "sample(parse_distribution('stable(0.5,-0.5)'), numpy.random.default_rng(1), 5)",
    ],
)
def test_first_numeric_call(expr):
    # the caller may hold numpy itself before the package has loaded it
    pre = "import numpy\n" if "numpy." in expr else ""
    cold = fresh(f"{pre}from paretotail import *\nprint(repr({expr}))\n")
    namespace = {}
    exec("import numpy\nfrom paretotail import *", namespace)
    assert cold == repr(eval(expr, namespace)) + "\n"


def test_lazy_oracle_reexport():
    # the package's names are its modules' __all__ lists, the console
    # entry point's aside; the oracle's load on first access, and the one
    # list the package writes out for them must be oracle.__all__
    names = paretotail.__all__
    assert len(set(names)) == len(names)
    modules = [
        importlib.import_module(f"paretotail.{m.name}")
        for m in pkgutil.iter_modules(paretotail.__path__)
        if m.name != "cli"
    ]
    assert sorted(names) == sorted(n for m in modules for n in m.__all__)
    assert paretotail._ORACLE_NAMES == tuple(paretotail.oracle.__all__)
    eager = {
        n
        for n, v in vars(paretotail).items()
        if not n.startswith("_") and not isinstance(v, ModuleType)
    }
    assert set(names) == eager | set(paretotail._ORACLE_NAMES)
    namespace = {}
    exec("from paretotail import *", namespace)
    assert set(names) <= set(namespace)
    assert paretotail.quad_moment is paretotail.oracle.quad_moment
    with pytest.raises(AttributeError):
        paretotail.no_such_name
    # the oracle module itself loads on first access, not at import
    code = (
        "import sys, paretotail\n"
        "assert 'paretotail.oracle' not in sys.modules\n"
        "assert paretotail.RateFit is sys.modules['paretotail.oracle'].RateFit\n"
    )
    fresh(code)
