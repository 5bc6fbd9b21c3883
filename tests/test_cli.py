"""Command-line interface: output schemas, golden values, exit codes."""

import io
import json
import math

import pytest

from paretotail.cli import DEFAULT_SEED, SCHEMA_VERSION, SEED_ENV_VAR, run
from paretotail.ledger import LEDGER


def run_cli(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def csv_rows(text):
    import csv

    lines = [ln for ln in text.splitlines() if ln]
    parsed = list(csv.reader(lines))
    return parsed[0], parsed[1:]


def test_invert_cauchy_golden():
    code, out = run_cli(
        ["invert", "--dist", "cauchy", "--order", "4", "--theta", "1"]
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["i", "exponent", "coefficient"]
    assert len(rows) == 5
    i0 = rows[0]
    assert (int(i0[0]), float(i0[1])) == (0, -1.0)
    assert float(i0[2]) == pytest.approx(1 / math.pi, rel=1e-12)
    i1 = rows[1]
    assert (int(i1[0]), float(i1[1])) == (1, 1.0)
    assert float(i1[2]) == pytest.approx(-math.pi / 3, rel=1e-12)


def test_invert_raw_tail():
    code, out = run_cli(
        ["invert", "--tail", "1,1,2,0.5", "--order", "2", "--theta", "1"]
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert float(rows[0][2]) == pytest.approx(2.0)
    # requires exactly one tail source
    code, _ = run_cli(["invert", "--order", "2"])
    assert code == 2
    code, _ = run_cli(
        ["invert", "--dist", "cauchy", "--tail", "1,1,1", "--order", "2"]
    )
    assert code == 2


def test_moments_pareto_golden():
    code, out = run_cli(
        ["moments", "--dist", "pareto", "--s", "2", "--theta", "1", "--n", "5"]
    )
    assert code == 0
    assert "n,value,last_term" in out
    tail_block = out.split("n,value,last_term")[1].strip().split(",")
    assert int(tail_block[0]) == 5
    assert float(tail_block[1]) == pytest.approx(2.5, rel=1e-12)


def test_moments_json_schema():
    code, out = run_cli(
        [
            "moments",
            "--dist",
            "pareto",
            "--s",
            "2",
            "--theta",
            "1",
            "--n",
            "5",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["value"] == pytest.approx(2.5)
    assert doc["dist"] == "pareto"
    assert {"i", "j", "order", "coefficient"} <= set(doc["rows"][0])


def test_moments_infinite_exit_code():
    code, _ = run_cli(["moments", "--dist", "pareto", "--s", "0", "--theta", "2"])
    assert code == 3


def test_usage_exit_codes():
    code, _ = run_cli(["moments", "--dist", "nonsense", "--s", "2"])
    assert code == 2
    code, _ = run_cli(["no-such-command"])
    assert code == 2
    code, _ = run_cli(["verify", "--dist", "cauchy", "--s", "1,1,1", "--n", "5,9,13"])
    assert code == 2


def test_verify_mean_quad():
    code, out = run_cli(
        [
            "verify",
            "--dist",
            "cauchy",
            "--s",
            "1",
            "--n",
            "50,100,200",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["saturated"] or abs(doc["slope"] - doc["expected_order"]) <= 0.5


def test_verify_covariance_quad():
    code, out = run_cli(
        [
            "verify",
            "--dist",
            "frechet(1)",
            "--s",
            "2,1",
            "--n",
            "50,100,200",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_verify_mc_path():
    code, out = run_cli(
        [
            "verify",
            "--dist",
            "pareto",
            "--s",
            "3",
            "--n",
            "20,40,80",
            "--oracle",
            "mc",
            "--reps",
            "50000",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    # pareto means are exact, so the mc comparison saturates at its floor
    assert doc["passed"] is True


def test_verify_mc_refuses_undefined_standard_error(capsys):
    # the squared Cauchy product X_{n,n-2} X_{n,n-1} has suffix powers
    # (4, 2) against the bound (s + 1) alpha = 3 at depth 2: infinite mean
    code, out = run_cli(
        [
            "verify",
            "--dist",
            "cauchy",
            "--s",
            "2,1",
            "--n",
            "50,100,200",
            "--oracle",
            "mc",
            "--reps",
            "200000",
            "--seed",
            "1",
        ]
    )
    assert code == 2
    assert out == ""
    assert "standard error is undefined" in capsys.readouterr().err


def test_seed_env_var(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "12345")
    from paretotail.cli import _build_parser

    args = _build_parser().parse_args(
        ["verify", "--dist", "pareto", "--s", "1", "--n", "10,20,40"]
    )
    assert args.seed == 12345
    monkeypatch.delenv(SEED_ENV_VAR)
    args = _build_parser().parse_args(
        ["verify", "--dist", "pareto", "--s", "1", "--n", "10,20,40"]
    )
    assert args.seed == DEFAULT_SEED


def test_typos_schema():
    code, out = run_cli(["typos"])
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["id", "where", "printed", "derived", "verified_by"]
    assert len(rows) == len(LEDGER)
    code, out = run_cli(["typos", "--format", "json"])
    doc = json.loads(out)
    assert doc["schema_version"] == SCHEMA_VERSION
    ids = [r["id"] for r in doc["rows"]]
    assert len(ids) == len(set(ids))
    for row in doc["rows"]:
        assert row["printed"] and row["derived"] and "::" in row["verified_by"]


def test_list_distributions():
    code, out = run_cli(["list-distributions"])
    assert code == 0
    header, rows = csv_rows(out)
    assert header == [
        "name",
        "example",
        "exact_quantile",
        "numeric_quantile",
        "sampler",
    ]
    by_name = {r[0]: r for r in rows}
    assert by_name["stable"][2:] == ["0", "0", "1"]
    assert by_name["cauchy"][2:] == ["1", "1", "1"]
    assert by_name["f_dist"][2:] == ["0", "1", "1"]


def test_output_determinism():
    argv = ["moments", "--dist", "cauchy", "--s", "3,1"]
    _, a = run_cli(argv)
    _, b = run_cli(argv)
    assert a == b


def test_verify_does_not_import_scipy_stats():
    # t and F quantiles come from scipy.special; scipy.stats would add about
    # half a second and 20 MB to every process that runs an oracle
    import subprocess
    import sys
    from pathlib import Path

    import paretotail

    src = str(Path(paretotail.__file__).resolve().parents[1])
    code = (
        "import io, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from paretotail.cli import run\n"
        "for d in ('student_t(4)', 'f_dist(2,6)'):\n"
        "    argv = ['verify', '--dist', d, '--s', '1', '--n', '50,100,200']\n"
        "    assert run(argv, out=io.StringIO()) == 0, d\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
