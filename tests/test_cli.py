"""Command-line interface: output schemas, golden values, exit codes."""

import io
import json
import math

import pytest

from paretotail import catalog
from paretotail.betamoments import RankSpec, joint_beta_moment
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


def test_moments_nan_power_is_a_usage_error(capsys):
    code, out = run_cli(["moments", "--dist", "cauchy", "--s", "1", "--theta", "nan"])
    assert (code, out) == (2, "")
    assert "theta must not be nan" in capsys.readouterr().err


def test_usage_exit_codes():
    code, _ = run_cli(["moments", "--dist", "nonsense", "--s", "2"])
    assert code == 2
    code, _ = run_cli(["no-such-command"])
    assert code == 2
    code, _ = run_cli(["verify", "--dist", "cauchy", "--s", "5,4,3,2,1", "--n", "5,9,13"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--dist", "cauchy", "--s", "1", "--jmax", "-1"],
        ["moments", "--dist", "cauchy", "--s", "1", "--imax", "-1"],
        ["verify", "--dist", "cauchy", "--s", "1", "--n", "50,100,200", "--imax", "-1"],
        ["invert", "--dist", "cauchy", "--order", "-1"],
        ["verify", "--dist", "pareto", "--s", "1", "--n", "10,20,40", "--seed", "-1"],
    ],
)
def test_negative_orders_name_their_flag(argv, capsys):
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    assert f"argument {argv[-2]}: must be an integer >= 0, got '-1'" in capsys.readouterr().err


def test_moments_past_order_seven():
    code, out = run_cli(["moments", "--dist", "cauchy", "--s", "3,1", "--imax", "10", "--n", "100"])
    assert code == 0
    header, rows = csv_rows(out.split("\n\n")[0])
    assert max(int(row[0]) for row in rows) == 10


@pytest.mark.parametrize(
    "spec", ["student_t(inf)", "f_dist(3,inf)", "student_t(400)", "f_dist(3,400)"]
)
def test_non_finite_or_overflowing_parameters_are_usage_errors(spec, capsys):
    code, _ = run_cli(["moments", "--dist", spec, "--s", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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


def test_verify_keeps_the_first_grid_terms_of_a_small_gap():
    # a = 2/9: the first omitted order is 2a = 0.444, below any fixed margin
    code, out = run_cli(
        ["verify", "--dist", "f_dist(4,9)", "--s", "1", "--n", "50,100,200", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["expected_order"] == pytest.approx(-4 / 9)
    assert all(float(row["expansion"]) != 0.0 for row in doc["rows"])


@pytest.mark.parametrize(
    "dist, s",
    [
        ("student_t(3)", "2"),
        ("f_dist(2,6)", "2,1"),
        ("cauchy", "2,1"),
        ("cauchy", "3,1"),
        ("cauchy", "5,3,1"),
        ("frechet(1)", "5,3,1"),
    ],
)
def test_verify_passes_differences_that_decay_faster(dist, s):
    # correct expansions whose difference decays faster than the first
    # omitted order predicts: the verdict is one-sided
    code, out = run_cli(
        ["verify", "--dist", dist, "--s", s, "--n", "50,100,200", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and not doc["saturated"]
    assert doc["slope"] <= doc["expected_order"] + 0.5


def set_partitions(items):
    """Every partition of the tuple items into blocks, each block in order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in set_partitions(rest):
        yield [(first,)] + p
        for i, block in enumerate(p):
            yield p[:i] + [(first,) + block] + p[i + 1 :]


@pytest.mark.parametrize("s", [(3, 2, 1), (7, 5, 3, 1)], ids=["3,2,1", "7,5,3,1"])
def test_verify_third_cumulant_oracle_is_exact_on_pareto(s):
    # the Pareto block moments are beta ratios, so the oracle column is the
    # joint cumulant of exact values, with Y = X / n^(1/alpha), here summed
    # over set partitions: sum_pi (-1)^(|pi|-1) (|pi|-1)! prod_B m(B)
    alpha = 3.0
    argv = ["verify", "--dist", "pareto(3)", "--s", ",".join(map(str, s))]
    code, out = run_cli(argv + ["--n", "20,40,80", "--format", "json"])
    assert code == 0
    for row in json.loads(out)["rows"]:
        n = row["n"]

        def m(depths):
            spec = RankSpec(n, tuple(n - d for d in depths))
            return joint_beta_moment(spec, (-1 / alpha,) * len(depths)) / n ** (len(depths) / alpha)

        kappa = sum(
            (-1) ** (len(p) - 1) * math.factorial(len(p) - 1) * math.prod(m(b) for b in p)
            for p in set_partitions(s)
        )
        assert float(row["oracle"]) == pytest.approx(kappa, rel=1e-9)


def test_verify_jmax_moves_the_remainder():
    # student_t(4) has a = 1/2: the first omitted order is (jmax + 1) a
    orders = []
    for jmax in ("1", "2"):
        argv = ["verify", "--dist", "student_t(4)", "--s", "3,1", "--n", "50,100,200"]
        code, out = run_cli(argv + ["--jmax", jmax, "--format", "json"])
        assert code == 0
        orders.append(json.loads(out)["expected_order"])
    assert orders == [pytest.approx(-1.0), pytest.approx(-1.5)]


@pytest.mark.parametrize("dist", ("cauchy", "frechet(1)"))
def test_verify_three_depths_past_n_minus_s_1020(dist):
    # the outer Jacobi exponent n - s_1 - 1 passes the ~1020 where
    # scipy.special.roots_jacobi's weights overflow, and three depths have
    # no adaptive fallback
    argv = ["verify", "--dist", dist, "--s", "3,2,1", "--n", "1100,1200,1300"]
    code, _ = run_cli(argv)
    assert code == 0


def test_verify_three_depths_without_a_confirmed_rule_is_an_error(capsys):
    argv = ["verify", "--dist", "student_t(3)", "--s", "3,2,1", "--n", "5,10,20"]
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: no Gauss-Jacobi rule") and "Traceback" not in err


@pytest.mark.parametrize(
    "s, n_grid", [("2,1", "0,10,20"), ("1", "50,50,50"), ("1", "50,100")]
)
def test_verify_refuses_a_bad_n_grid_before_any_oracle_work(s, n_grid, monkeypatch):
    import paretotail.cli as cli

    def no_oracle_work(*args):
        raise AssertionError("the grid reached the oracles")

    monkeypatch.setattr(cli, "_verify_values", no_oracle_work)
    code, out = run_cli(["verify", "--dist", "cauchy", "--s", s, "--n", n_grid])
    assert code == 2
    assert out == ""


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


def test_verify_mc_serves_a_repeated_n_again():
    # one draw serves the whole grid; an n given twice gets its row twice,
    # and the other rows are those of the grid without the repeat
    argv = ["verify", "--dist", "pareto", "--s", "3", "--oracle", "mc", "--reps", "20000", "--seed", "1"]
    code, out = run_cli(argv + ["--n", "20,40,80,80"])
    assert code == 0
    rows = out.splitlines()
    assert rows[-1] == rows[-2]
    code, once = run_cli(argv + ["--n", "20,40,80"])
    assert code == 0
    assert [r.split(",")[:4] for r in once.splitlines()] == [r.split(",")[:4] for r in rows[:-1]]


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


def test_verify_mc_refuses_lower_tail_infinite_variance(capsys):
    # at n = 5 the square of X_{5,2}, the second lowest of five Cauchy
    # draws, needs n - s = 2 draws below -x against its power 2
    argv = ["verify", "--dist", "cauchy", "--s", "3", "--n", "5,6,7"]
    mc = ["--oracle", "mc", "--reps", "10000", "--seed", "1"]
    code, out = run_cli(argv + mc)
    assert code == 2
    assert out == ""
    assert "lower tail" in capsys.readouterr().err
    code, _ = run_cli(argv[:-1] + ["6,7,8"] + mc)
    assert code in (0, 1)


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


def test_run_reads_the_seed_env_var_on_every_call(monkeypatch):
    # run keeps one parser per process, and each call still takes its
    # default seed from the environment as it is at that call
    import paretotail.cli as cli

    assert cli._build_parser() is cli._build_parser()
    seeds = []
    monkeypatch.setitem(
        cli._HANDLERS, "verify", lambda args, out: seeds.append(args.seed) or 0
    )
    argv = ["verify", "--dist", "pareto", "--s", "1", "--n", "10,20,40"]
    for seed in ("11", "7"):
        monkeypatch.setenv(SEED_ENV_VAR, seed)
        assert run_cli(argv)[0] == 0
    monkeypatch.delenv(SEED_ENV_VAR)
    assert run_cli(argv)[0] == 0
    assert run_cli(argv + ["--seed", "5"])[0] == 0
    assert seeds == [11, 7, DEFAULT_SEED, 5]


@pytest.mark.parametrize(
    "argv",
    [["list-distributions"], ["verify", "--dist", "pareto", "--s", "1", "--n", "10,20,40"]],
)
def test_seed_env_var_that_is_not_an_integer_is_a_usage_error(monkeypatch, capsys, argv):
    for value in ("abc", "-1"):
        monkeypatch.setenv(SEED_ENV_VAR, value)
        code, out = run_cli(argv)
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert SEED_ENV_VAR in err and repr(value) in err


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
    assert rows == [
        ["pareto", "pareto(1)", "1", "1", "1"],
        ["cauchy", "cauchy", "1", "1", "1"],
        ["student_t", "student_t(3)", "0", "1", "1"],
        ["f_dist", "f_dist(2,6)", "0", "1", "1"],
        ["stable", "stable(0.5,-0.5)", "0", "1", "1"],
        ["frechet", "frechet(1)", "1", "1", "1"],
    ]


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


def test_verify_builds_each_tail_once():
    # the oracles, the normalization and the expansion share the cached
    # tails: one of order 0 and one of order max(jmax, 1)
    catalog._tail_model.cache_clear()
    code, _ = run_cli(["verify", "--dist", "frechet(1)", "--s", "2,1", "--n", "50,100,200"])
    assert code == 0
    assert catalog._tail_model.cache_info().misses <= 2
