"""Config parsing, sweep persistence, determinism, and the CLI."""

import csv
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxopt import cli, diagnostics, engine, harness, problems, seeding
from ctxopt.errors import CapabilityError, ConfigurationError, CtxoptError

SMALL_CONFIG = """\
problem.name = BT
run.gamma = 2
run.alpha = 0.05
run.schedule = FixedHorizon
run.seed = 7
sweep = 1
replications = 1
lambda = 1
c1 = 2.24
c2 = 0.21875
output_dir = {out}
"""


def test_parse_config_full():
    text = """\
# comment
problem.name = LG(3)
problem.seed = 4
run.gamma = 20
run.alpha = auto
run.schedule = Anytime
run.seed = 99
run.init_beta = 0.1,0.2,0.3
sweep = 8, 16, 32
replications = 5
lambda = 2.5
output_dir = somewhere
ledger.estimate = true
ledger.M = 0.5
workers = 2
"""
    config = harness.parse_config(text)
    assert config.problem_name == "LG(3)"
    assert config.problem_params == {"seed": "4"}
    assert config.alpha is None
    assert config.schedule is engine.Schedule.ANYTIME
    assert config.seed == 99
    assert config.init_beta == [0.1, 0.2, 0.3]
    assert config.sweep == [8, 16, 32]
    assert config.replications == 5
    assert config.lam == 2.5 and config.c1 is None
    assert config.estimate_ledger is True
    assert config.ledger_overrides == {"M": 0.5}
    assert config.workers == 2


def test_parse_config_rejects_unknown_keys_and_bad_sweep():
    with pytest.raises(ConfigurationError):
        harness.parse_config("problem.name=BT\nrun.gamma=1\nsweep=4\nbogus=1\n")
    with pytest.raises(ConfigurationError):
        harness.parse_config("problem.name=BT\nrun.gamma=1\nsweep=8,4\n")
    with pytest.raises(ConfigurationError):
        harness.parse_config("run.gamma=1\nsweep=4\n")


BASE_CONFIG = "problem.name = BT\nrun.gamma = 2\nsweep = 4\n"


@pytest.mark.parametrize("key, value", [
    ("run.gamma", "abc"),
    ("run.alpha", "fast"),
    ("run.schedule", "Sometimes"),
    ("run.seed", "1.5"),
    ("run.init_beta", "0.1,x"),
    ("run.init_theta", "y"),
    ("sweep", "4,eight"),
    ("replications", "two"),
    ("lambda", "big"),
    ("c1", "-"),
    ("c2", "1e"),
    ("workers", "many"),
    ("ledger.M", "huge"),
])
def test_parse_config_bad_value_names_the_key(key, value):
    lines = [line for line in BASE_CONFIG.splitlines()
             if not line.startswith(key + " ")]
    text = "\n".join(lines + [f"{key} = {value}"]) + "\n"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(key)}: "):
        harness.parse_config(text)


@pytest.mark.parametrize("line, env, message", [
    ("workers = -3\n", None, "workers must be >= 0"),
    ("", "-3", "workers must be >= 0"),
    ("", "two", "^CTXOPT_WORKERS: "),
], ids=["config-negative", "env-negative", "env-not-int"])
def test_bad_worker_count_rejected(tmp_path, monkeypatch, line, env, message):
    if env is None:
        monkeypatch.delenv("CTXOPT_WORKERS", raising=False)
    else:
        monkeypatch.setenv("CTXOPT_WORKERS", env)
    config = harness.parse_config(SMALL_CONFIG.format(out=tmp_path / "out") + line)
    with pytest.raises(ConfigurationError, match=message):
        harness.run_experiment(config)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines, key", [
    ("problem.name = LG\nproblem.n_x = abc\n", "problem.n_x"),
    ("problem.name = BT\nproblem.colour = blue\n", "problem.colour"),
    ("problem.name = LG(4)\nproblem.n_x = 3\n", "problem.n_x"),
    ("problem.name = LG(four)\n", "problem.name"),
], ids=["not-an-int", "unknown-param", "contradicts-name", "bad-name"])
def test_bad_problem_parameter_names_the_key(tmp_path, capsys, lines, key):
    text = SMALL_CONFIG.format(out=tmp_path / "out").replace(
        "problem.name = BT\n", lines)
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(text)
    assert cli.main(["run", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not (tmp_path / "out").exists()


def test_diag_every_is_not_a_config_key():
    with pytest.raises(ConfigurationError, match="run.diag_every"):
        harness.parse_config(BASE_CONFIG + "run.diag_every = 4\n")


def test_smallest_run_writes_single_row(tmp_path, bt):
    config = harness.parse_config(SMALL_CONFIG.format(out=tmp_path / "out"))
    result = harness.run_experiment(config)
    with open(result["results"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == harness.RESULT_COLUMNS
    assert int(row["N"]) == 1
    assert int(row["S"]) == 0  # the only admissible stopping index
    assert int(row["samples_used"]) == 1  # exact diagnostics draw nothing
    # V at S=0 is V(z^0) with the configured weights
    q0, _ = diagnostics.tracking_error_Q(bt.spec, np.zeros(1), np.zeros(2))
    g0, _ = diagnostics.grad_G(bt.spec, np.zeros(1))
    assert float(row["V_at_S"]) == pytest.approx(
        2.24 * q0 + 0.21875 * float(g0 @ g0), abs=1e-12)


def test_rerun_is_byte_identical(tmp_path):
    text = """\
problem.name = BT
run.gamma = 2
run.alpha = 0.05
run.seed = 11
sweep = 4,8
replications = 3
lambda = 1
c1 = 1
c2 = 1
output_dir = {out}
"""
    a = harness.run_experiment(harness.parse_config(text.format(out=tmp_path / "a")))
    b = harness.run_experiment(harness.parse_config(text.format(out=tmp_path / "b")))
    for name in ("results.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    assert a["summary_rows"] == b["summary_rows"]


def test_worker_pool_matches_serial(tmp_path, monkeypatch):
    text = """\
problem.name = BT
run.gamma = 2
run.alpha = 0.05
run.seed = 13
sweep = 4,8
replications = 2
lambda = 1
c1 = 1
c2 = 1
output_dir = {out}
workers = {workers}
"""
    monkeypatch.delenv("CTXOPT_WORKERS", raising=False)
    harness.run_experiment(harness.parse_config(
        text.format(out=tmp_path / "serial", workers=1)))
    harness.run_experiment(harness.parse_config(
        text.format(out=tmp_path / "pool", workers=2)))
    for name in ("results.csv", "summary.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "pool" / name).read_bytes()


def test_timings_csv_holds_the_wall_times(tmp_path):
    config = harness.parse_config(
        "problem.name=BT\nrun.gamma=2\nrun.alpha=0.05\nrun.seed=3\n"
        f"sweep=2,4\nreplications=2\nlambda=1\nc1=1\nc2=1\noutput_dir={tmp_path}\n")
    result = harness.run_experiment(config)
    with open(result["timings"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["N", "replication", "wall_ms"]
    assert [(int(r["N"]), int(r["replication"])) for r in rows] == \
        [(2, 0), (2, 1), (4, 0), (4, 1)]
    assert all(float(r["wall_ms"]) >= 0.0 for r in rows)


def test_problem_is_built_once_per_sweep(tmp_path, monkeypatch):
    built = []
    build = problems.by_name

    def by_name(name, **params):
        built.append(name)
        return build(name, **params)

    monkeypatch.setattr(harness.problems, "by_name", by_name)
    monkeypatch.delenv("CTXOPT_WORKERS", raising=False)
    config = harness.parse_config(
        "problem.name=BT\nrun.gamma=2\nrun.alpha=0.05\nrun.seed=5\n"
        f"sweep=2,4\nreplications=3\nlambda=1\nc1=1\nc2=1\noutput_dir={tmp_path}\n"
        "workers=1\n")
    harness.run_experiment(config)
    assert built == ["BT"]


def test_seed_mixing_per_replication(tmp_path):
    config = harness.parse_config(
        "problem.name=BT\nrun.gamma=2\nrun.alpha=0.05\nrun.seed=21\n"
        f"sweep=2,4\nreplications=2\nlambda=1\nc1=1\nc2=1\noutput_dir={tmp_path}\n")
    result = harness.run_experiment(config)
    with open(result["results"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    seeds = {(int(r["N"]), int(r["replication"])): int(r["seed"]) for r in rows}
    for (n, r), seed in seeds.items():
        assert seed == seeding.mix(21, n, r)
    assert len(set(seeds.values())) == len(seeds)


def test_manifest_contents(tmp_path):
    config = harness.parse_config(SMALL_CONFIG.format(out=tmp_path))
    result = harness.run_experiment(config)
    manifest = json.loads(result["manifest"].read_text())
    assert manifest["problem"] == "BT"
    assert set(manifest["ledger"]) == {"L_g", "L_hess_g", "Lbar_f", "C_f",
                                       "Lbar_grad_f", "Lbar_psi", "C_psi",
                                       "Lbar_grad_psi", "M"}
    assert manifest["derived"]["c1"] == 2.24
    assert len(manifest["config_sha256"]) == 64


def test_read_summary_round_trip(tmp_path):
    config = harness.parse_config(
        "problem.name=BT\nrun.gamma=2\nrun.alpha=0.05\nrun.seed=1\n"
        f"sweep=2,4\nreplications=2\nlambda=1\nc1=1\nc2=1\noutput_dir={tmp_path}\n")
    result = harness.run_experiment(config)
    rows = harness.read_summary(result["summary"])
    assert [n for n, _ in rows] == [2, 4]
    assert rows[0][1] == pytest.approx(result["summary_rows"][0]["mean_V"])


def test_cli_check_worked_example(capsys):
    status = cli.main(["check", "BT", "--unit-ledger", "--lambda", "3",
                       "--gamma", "20"])
    out = capsys.readouterr().out
    assert status == 0
    assert "COMPLIANT" in out
    assert "cap_C" in out and "8" in out


def test_cli_check_gamma_boundary(capsys):
    status = cli.main(["check", "BT", "--unit-ledger", "--lambda", "3",
                       "--gamma", "16.5"])
    out = capsys.readouterr().out
    assert status == 1
    assert "gamma" in out and "NON-COMPLIANT" in out


def test_cli_check_lambda_floor(capsys):
    status = cli.main(["check", "BT", "--unit-ledger", "--lambda", "1",
                       "--gamma", "20"])
    out = capsys.readouterr().out
    assert status == 1
    assert "floor" in out


def test_cli_check_estimate_is_the_harness_estimate(bt_estimated_ledger,
                                                   capsys):
    status = cli.main(["check", "BT", "--estimate", "--seed", "20260823",
                       "--lambda", "1", "--gamma", "20"])
    out = capsys.readouterr().out
    assert status == 1 and "floor" in out
    for key, value in bt_estimated_ledger.as_dict().items():
        assert f"ledger {key:<13} {value:.6g}\n" in out


def _write_summary(path, rows):
    with open(path, "w") as fh:
        fh.write("N,mean_V,stderr_V,replications\n")
        for n, v in rows:
            fh.write(f"{n},{float(v)!r},0.0,30\n")


def test_cli_rate_synthetic_laws(tmp_path, capsys):
    ns = [64, 256, 1024, 4096]
    good = tmp_path / "good.csv"
    _write_summary(good, [(n, 2.0 / np.sqrt(n)) for n in ns])
    assert cli.main(["rate", str(good)]) == 0
    out = capsys.readouterr().out
    assert "slope" in out

    bad = tmp_path / "bad.csv"
    _write_summary(bad, [(n, 2.0 / n) for n in ns])
    assert cli.main(["rate", str(bad)]) == 1

    short = tmp_path / "short.csv"
    _write_summary(short, [(n, 1.0 / n) for n in ns[:3]])
    assert cli.main(["rate", str(short)]) == 2
    capsys.readouterr()


def test_cli_rate_counts_distinct_n(tmp_path, capsys):
    repeated = tmp_path / "repeated.csv"
    _write_summary(repeated, [(n, 1.0 / n) for n in (64, 64, 256, 256, 1024)])
    assert cli.main(["rate", str(repeated)]) == 2
    assert "need >= 4 distinct N values, got 3" in capsys.readouterr().out


def test_cli_gradcheck(capsys):
    assert cli.main(["gradcheck", "BT", "--probes", "20"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_cli_run_smoke(tmp_path, capsys):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(SMALL_CONFIG.format(out=tmp_path / "out"))
    assert cli.main(["run", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "results.csv" in out
    assert (tmp_path / "out" / "summary.csv").exists()


def test_cli_reports_config_errors(tmp_path, capsys):
    config_path = tmp_path / "broken.cfg"
    config_path.write_text("problem.name = BT\nsweep = 4\n")
    assert cli.main(["run", str(config_path)]) == 1
    assert "error" in capsys.readouterr().err


DIVERGING_CONFIG = SMALL_CONFIG.replace("run.alpha = 0.05", "run.alpha = 1e8") \
    .replace("sweep = 1", "sweep = 4,16").replace("replications = 1", "replications = 4")


# The divergent rows overflow in the outer function before they fail.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_replications_are_recorded_not_fatal(tmp_path, capsys):
    # At alpha = 1e8 three of the four N = 16 replications overflow at
    # iterations 13-15; every N = 4 replication finishes.
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(DIVERGING_CONFIG.format(out=tmp_path / "out"))
    assert cli.main(["run", str(config_path)]) == 1
    assert "3 replications diverged" in capsys.readouterr().err
    out = tmp_path / "out"
    for name in ("results.csv", "summary.csv", "timings.csv", "manifest.jsonl"):
        assert (out / name).exists()
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["ok"] * 5 + [
        "diverged@15", "diverged@13", "diverged@15"]
    assert all(row["V_at_S"] == row["S"] == "" for row in rows[5:])
    with open(out / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    for srow, kept, excluded in zip(summary, (rows[:4], rows[4:5]), (0, 3)):
        assert float(srow["mean_V"]) == np.mean([float(r["V_at_S"]) for r in kept])
        assert (int(srow["replications"]), int(srow["excluded"])) == \
            (len(kept), excluded)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_rows_match_across_worker_counts(tmp_path, monkeypatch):
    monkeypatch.delenv("CTXOPT_WORKERS", raising=False)
    for workers in (1, 2):
        harness.run_experiment(harness.parse_config(
            DIVERGING_CONFIG.format(out=tmp_path / str(workers))
            + f"workers = {workers}\n"))
    for name in ("results.csv", "summary.csv"):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes()


def test_z0_quantities_fail_before_drawing_without_g_min(tmp_path):
    lg8 = problems.by_name("LG(8)")
    calls = []

    def counting_sampler(rng):
        calls.append(1)
        return lg8.spec.sampler(rng)

    lg8.spec.sampler = counting_sampler
    config = harness.parse_config(
        "problem.name = LG(8)\nrun.gamma = 1\nsweep = 4\n"
        f"output_dir = {tmp_path}\n")
    with pytest.raises(CapabilityError, match="no known G_min"):
        harness.measure_z0_quantities(lg8, config, lam=1.0)
    assert calls == []


# ------------------------------------------------------------ malformed configs

# A valid config that finishes in milliseconds: explicit alpha and weights,
# so a malformed variant must fail on its own fault, not run a sweep.
VALID_CONFIG = {
    "problem.name": "BT", "run.gamma": "2", "run.alpha": "0.05",
    "run.schedule": "FixedHorizon", "run.seed": "7", "sweep": "2,4",
    "replications": "1", "lambda": "1", "c1": "2.24", "c2": "0.21875",
    "workers": "1", "ledger.estimate": "false",
}
REQUIRED_KEYS = ("problem.name", "run.gamma", "sweep")
BAD_VALUES = {
    "problem.name": ["", "XYZ", "LG(x)", "LG(0)", "LG(-2)"],
    "run.gamma": ["", "abc", "0", "-1", "nan", "inf"],
    "run.alpha": ["", "fast", "0", "-2", "nan", "inf", "-inf"],
    "run.schedule": ["", "Daily", "fixedhorizon"],
    "run.seed": ["", "1.5", "x"],
    "run.init_beta": ["", "x", "0.1,0.2", "nan", "inf"],
    "run.init_theta": ["0.1", "0,0,0", "0,nan", "y"],
    "sweep": ["", "0", "-4", "8,4", "4,4", "a", "1.5", "0,4"],
    "replications": ["", "0", "-1", "x", "2.5"],
    "lambda": ["x", "nan", "inf", "-1", "0"],
    "c1": ["-", "nan", "inf", "-2.24", "0"],
    "c2": ["1e", "nan", "-inf", "-1", "0"],
    "workers": ["-1", "many", "1.5"],
    "ledger.estimate": ["maybe", "2"],
    "ledger.L_g": ["huge", "nan", "-1", "0"],
    "ledger.bogus": ["1"],
    "problem.n_x": ["3"],
    "run.diag_every": ["4"],
    "unknown": ["1"],
}


def _config_text(pairs, extra=(), out=None):
    lines = [f"{key} = {value}" for key, value in pairs.items()] + list(extra)
    return "\n".join(lines + [f"output_dir = {out}"]) + "\n"


def _assert_fails_early(text, out):
    with pytest.raises(CtxoptError):
        harness.run_experiment(harness.parse_config(text))
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    (key, value) for key, values in BAD_VALUES.items() for value in values])
def test_each_malformed_value_raises_a_ctxopt_error(tmp_path, key, value):
    pairs = dict(VALID_CONFIG, **{key: value})
    _assert_fails_early(_config_text(pairs, out=tmp_path / "out"), tmp_path / "out")


@st.composite
def malformed_configs(draw):
    pairs = dict(VALID_CONFIG)
    faults = draw(st.lists(st.sampled_from(sorted(BAD_VALUES) + ["drop", "line"]),
                           min_size=1, max_size=3))
    extra = []
    for fault in faults:
        if fault == "drop":
            pairs.pop(draw(st.sampled_from(REQUIRED_KEYS)), None)
        elif fault == "line":
            extra.append(draw(st.sampled_from(["not a pair", "=", "= 4"])))
        else:
            pairs[fault] = draw(st.sampled_from(BAD_VALUES[fault]))
    return draw(st.permutations(list(pairs.items()))), extra


@given(config=malformed_configs())
@settings(max_examples=150, deadline=None)
def test_malformed_configs_raise_a_ctxopt_error(config, tmp_path_factory):
    # Up to three faults, in any line order: parsing or the run must fail
    # with a CtxoptError before anything is written.
    out = tmp_path_factory.mktemp("malformed") / "out"
    pairs, extra = config
    _assert_fails_early(_config_text(dict(pairs), extra, out), out)
