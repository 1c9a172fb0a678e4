"""Config parsing, sweep persistence, determinism, and the CLI."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ctxopt
from ctxopt import cli, constants, diagnostics, engine, harness, problems, seeding
from ctxopt.errors import (CapabilityError, ConfigurationError, CtxoptError,
                           DomainError)

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
    ("sweep", "8,4"),
    ("sweep", "0,4"),
    ("sweep", "4,,8"),
    ("replications", "two"),
    ("replications", "0"),
    ("output_dir", ""),
    ("lambda", "big"),
    ("c1", "-"),
    ("c2", "1e"),
    ("workers", "many"),
    ("workers", "-3"),
    ("ledger.M", "huge"),
    ("ledger.L_g", "nan"),
    ("ledger.M", "0"),
    ("ledger.L_hess_g", "-1"),
])
def test_parse_config_bad_value_names_the_key(key, value):
    lines = [line for line in BASE_CONFIG.splitlines()
             if not line.startswith(key + " ")]
    text = "\n".join(lines + [f"{key} = {value}"]) + "\n"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(key)}: "):
        harness.parse_config(text)


def test_parse_config_accepts_the_overrides_the_ledger_accepts():
    # a gradient-Lipschitz entry may be zero; M is infinite on an A4 violation
    config = harness.parse_config(
        BASE_CONFIG + "ledger.L_hess_g = 0\nledger.M = inf\n")
    assert config.ledger_overrides == {"L_hess_g": 0.0, "M": math.inf}


def test_an_unknown_ledger_key_fails_before_the_estimate(tmp_path, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the ledger estimate ran before the keys were checked")

    monkeypatch.setattr(harness, "estimated_ledger", no_work)
    with pytest.raises(ConfigurationError,
                       match=r"^unknown config keys: \['ledger\.Lg'\]$"):
        harness.run_experiment(harness.parse_config(
            SMALL_CONFIG.format(out=tmp_path / "out")
            + "ledger.estimate = true\nledger.Lg = 1\n"))
    assert not (tmp_path / "out").exists()


def test_ledger_overrides_are_marked_in_the_provenance(tmp_path):
    result = harness.run_experiment(harness.parse_config(
        SMALL_CONFIG.format(out=tmp_path / "out") + "ledger.M = 2\n"))
    ledger = result["ledger"]
    assert ledger.M == 2.0 and ledger.provenance["M"] == "override"
    assert ledger.provenance["L_g"] == "analytic"


@pytest.mark.parametrize("lines, key", [
    ("problem.name = LG(abc)\n", "problem.name"),
    ("problem.name = BT\nproblem.colour = blue\n", "problem.colour"),
    ("problem.name = LG(0)\n", "problem.name"),
    ("problem.name = LG(four)\n", "problem.name"),
    ("problem.name = XYZ\n", "problem.name"),
    ("problem.name = LG(-2)\n", "problem.name"),
    ("problem.name = LG()\n", "problem.name"),
    ("problem.name = LG(2)\nproblem.seed = x\n", "problem.seed"),
    ("problem.name = LG\nproblem.n_x = 4\n", "problem.n_x"),
], ids=["not-an-int", "unknown-param", "n-below-one", "bad-name",
        "unknown-name", "negative-n", "empty-n", "seed-not-an-int",
        "n_x-is-not-a-parameter"])
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


def test_a_key_set_twice_is_rejected():
    text = "problem.name = BT\nsweep = 4\nrun.gamma = 20\n\nrun.gamma = 5\n"
    with pytest.raises(ConfigurationError,
                       match=r"^run\.gamma: set again on config line 5$"):
        harness.parse_config(text)


@pytest.mark.parametrize("given, missing", [("c1", "c2"), ("c2", "c1")])
def test_a_lone_weight_names_the_missing_one(given, missing):
    with pytest.raises(ConfigurationError, match=f"^{missing}: missing"):
        harness.parse_config(BASE_CONFIG + f"lambda = 20\n{given} = 5\n")


@pytest.mark.parametrize("alpha", ["auto", "0.05"])
def test_a_misshapen_init_vector_names_the_key_before_any_work(
        tmp_path, monkeypatch, alpha):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the init vectors were checked")

    monkeypatch.setattr(constants, "estimate_ledger", no_work)
    monkeypatch.setattr(harness, "estimated_ledger", no_work)
    monkeypatch.setattr(harness, "measure_z0_quantities", no_work)
    config = harness.parse_config(
        SMALL_CONFIG.format(out=tmp_path / "out").replace("run.alpha = 0.05", "")
        + f"run.alpha = {alpha}\nrun.init_beta = 0.1,0.2\nledger.estimate = true\n")
    with pytest.raises(ConfigurationError,
                       match=r"^run\.init_beta: shape \(2,\), not \(1,\)$"):
        harness.run_experiment(config)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", [
    "run.init_beta = 1,2\n", "run.init_theta = 1,2,3\n", "problem.colour = blue\n",
    "problem.seed = x\n", "ledger.M = inf\n"],
    ids=["init_beta", "init_theta", "problem.colour", "problem.seed", "M-inf"])
def test_check_and_gradcheck_reject_what_run_rejects_before_any_work(
        tmp_path, capsys, extra):
    text = SMALL_CONFIG.format(out=tmp_path / "out") + extra
    if extra.startswith("problem.seed"):
        text = text.replace("problem.name = BT", "problem.name = LG(2)")
    if extra.startswith("ledger.M"):
        text = text.replace("lambda = 1\n", "")
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 1
    error = capsys.readouterr().err
    assert error.startswith("error: ") and error.count("\n") == 1
    assert not (tmp_path / "out").exists()
    for command in ("check", "gradcheck"):
        assert cli.main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", error)


def test_z0_quantities_name_a_misshapen_init_vector(tmp_path):
    config = harness.parse_config(
        SMALL_CONFIG.format(out=tmp_path) + "run.init_theta = 1,2,3\n")
    with pytest.raises(ConfigurationError, match=r"^run\.init_theta: shape"):
        harness.resolve(config)


@pytest.mark.parametrize("estimate", ["false", "true"])
def test_lambda_below_the_hessian_bound_is_rejected_before_any_work(
        tmp_path, bt_estimated_ledger, monkeypatch, estimate):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before lambda was checked")

    monkeypatch.setattr(harness, "estimated_ledger",
                        lambda problem, seed: bt_estimated_ledger)
    monkeypatch.setattr(harness, "measure_z0_quantities", no_work)
    text = (SMALL_CONFIG.format(out=tmp_path / "out")
            .replace("lambda = 1\n", "lambda = 0.1\n")
            .replace("run.alpha = 0.05", "run.alpha = auto")
            + f"ledger.estimate = {estimate}\n")
    with pytest.raises(DomainError, match=r"^lambda: 0\.1 is below L_hess_g = 1$"):
        harness.run_experiment(harness.parse_config(text))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha, weights", [
    ("0.1", True), ("0.1", False), ("auto", True)])
def test_an_infinite_default_lambda_is_rejected_before_any_work(
        tmp_path, monkeypatch, alpha, weights):
    # ledger.M = inf leaves no finite best_lambda, and so no default lambda.
    def no_work(*args, **kwargs):
        raise AssertionError("work started before lambda was checked")

    monkeypatch.setattr(harness, "measure_z0_quantities", no_work)
    monkeypatch.setattr(engine, "run", no_work)
    text = (SMALL_CONFIG.format(out=tmp_path / "out")
            .replace("lambda = 1\n", "ledger.M = inf\n")
            .replace("run.alpha = 0.05", f"run.alpha = {alpha}"))
    if not weights:
        text = text.replace("c1 = 2.24\nc2 = 0.21875\n", "")
    with pytest.raises(DomainError,
                       match=r"^lambda: M = inf leaves no finite default; set lambda$"):
        harness.run_experiment(harness.parse_config(text))
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_every_lambda_when_M_is_infinite(tmp_path, capsys):
    # On LIN L_hess_g = 0, so the floor 2*M*Lbar_psi^2*L_hess_g is inf*0.
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        SMALL_CONFIG.format(out=tmp_path / "out")
        .replace("problem.name = BT", "problem.name = LIN")
        .replace("run.alpha = 0.05", "run.alpha = 0.1")
        .replace("c1 = 2.24\nc2 = 0.21875\n", "ledger.M = inf\n"))
    assert cli.main(["run", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: lambda=1.0 does not exceed the floor")
    assert not (tmp_path / "out").exists()


def test_an_auto_alpha_that_is_not_positive_fails_before_the_sweep(
        tmp_path, monkeypatch):
    # L_g = inf makes L_W infinite, and the bound's minimiser alpha zero.
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started with an auto alpha of zero")

    monkeypatch.setattr(engine, "run", no_work)
    text = (SMALL_CONFIG.format(out=tmp_path / "out")
            .replace("run.alpha = 0.05", "run.alpha = auto")
            + "ledger.L_g = inf\n")
    with pytest.raises(DomainError, match=r"^alpha: .*L_W = inf, "
                       r"C_d\^2 \+ sigma\^2 = .* and W0 - G_min = "):
        harness.run_experiment(harness.parse_config(text))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("output_dir", ["file", "file/out"])
def test_an_output_dir_that_cannot_be_a_directory_fails_before_any_work(
        tmp_path, monkeypatch, output_dir):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before output_dir was checked")

    monkeypatch.setattr(harness.problems, "by_name", no_work)
    (tmp_path / "file").write_text("kept\n")
    with pytest.raises(ConfigurationError,
                       match=f"^output_dir: {re.escape(str(tmp_path / 'file'))} "
                             "is not a directory$"):
        harness.run_experiment(harness.parse_config(
            SMALL_CONFIG.format(out=tmp_path / output_dir)))
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("argv, content, message", [
    (["run", "{path}"], None, "No such file or directory"),
    (["rate", "{path}"], None, "No such file or directory"),
    (["rate", "{path}"], "M,mean_V\n4,0.5\n", "no N column"),
    (["rate", "{path}"], "N,mean_V\n4,abc\n", "column mean_V: .*'abc'"),
], ids=["run-missing-config", "rate-missing-summary", "rate-no-N-column",
        "rate-bad-mean_V"])
def test_cli_input_file_errors_name_the_file(tmp_path, capsys, argv, content,
                                             message):
    path = tmp_path / "input.csv"
    if content is not None:
        path.write_text(content)
    assert cli.main([arg.format(path=path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert re.search(message, err)


@pytest.mark.parametrize("command, content", [
    ("run", b"\x7fELF\x02\x01\x01\x00\xd0\x00\x00\x00"),
    ("check", b"problem.name = BT\nrun.gamma = \xd0\n"),
    ("rate", b"N,mean_V\n4,\xff\xfe\n")], ids=["run", "check", "rate"])
def test_cli_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command,
                                                       content):
    path = tmp_path / "input"
    path.write_bytes(content)
    assert cli.main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {path}: ")
    assert "codec can't decode" in captured.err


@pytest.mark.parametrize("alpha", ["auto", "0.05"])
def test_a_sweep_computes_L_W_once(tmp_path, monkeypatch, alpha):
    calls = []
    lipschitz_W = constants.lipschitz_W

    def counted(*args):
        calls.append(args)
        return lipschitz_W(*args)

    monkeypatch.setattr(constants, "lipschitz_W", counted)
    result = harness.run_experiment(harness.parse_config(
        SMALL_CONFIG.format(out=tmp_path / "out")
        .replace("run.alpha = 0.05", f"run.alpha = {alpha}")))
    assert len(calls) == 1 and calls[0][1] == result["lam"]


def test_a_bad_task_fails_before_the_pool_starts(tmp_path, monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("the pool started before the tasks were checked")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(constants, "optimal_alpha", lambda *args: math.nan)
    # Two tasks, since a one-task sweep runs in process and starts no pool.
    config = harness.parse_config(
        SMALL_CONFIG.format(out=tmp_path / "out")
        .replace("run.alpha = 0.05", "run.alpha = auto")
        .replace("replications = 1", "replications = 2") + "workers = 2\n")
    with pytest.raises(ConfigurationError, match="^alpha must be positive"):
        harness.run_experiment(config)
    assert not (tmp_path / "out").exists()


def test_readme_config_block_names_every_key():
    # The block is a config that parse_config takes, so it names no key twice
    # and no unknown key.  It names exactly the keys of the table, plus
    # problem.* and ledger.<entry> keys as examples.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = harness.parse_config(block)
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines()}
    assert config.problem_params and config.ledger_overrides
    assert keys == (set(harness._KEYS)
                    | {f"problem.{name}" for name in config.problem_params}
                    | {f"ledger.{entry}" for entry in config.ledger_overrides})


def test_each_plain_key_is_declared_on_its_field():
    # Every field but the prefix keys and the text declares its config key,
    # _KEYS holds exactly those keys, and a key is required when its field
    # has no default.
    own = [f for f in dataclasses.fields(harness.ExperimentConfig)
           if f.name not in ("problem_params", "ledger_overrides", "raw_text")]
    assert all("key" in f.metadata and "convert" in f.metadata for f in own)
    assert harness._KEYS == {f.metadata["key"]: f for f in own}
    assert [key for key, f in harness._KEYS.items()
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING] == \
        ["problem.name", "run.gamma", "sweep"]


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


def test_worker_pool_matches_serial(tmp_path):
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
    harness.run_experiment(harness.parse_config(
        text.format(out=tmp_path / "serial", workers=1)))
    harness.run_experiment(harness.parse_config(
        text.format(out=tmp_path / "pool", workers=2)))
    for name in ("results.csv", "summary.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "pool" / name).read_bytes()


@pytest.mark.parametrize("sweep, replications, workers, pool_size", [
    ("4,8", 2, 0, 4), ("4,8", 2, 3, 3), ("4", 1, 0, None), ("4", 1, 8, None)])
def test_the_pool_starts_no_more_workers_than_tasks(
        tmp_path, monkeypatch, sweep, replications, workers, pool_size):
    # A forked ProcessPoolExecutor starts all max_workers at the first submit.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    text = (SMALL_CONFIG.format(out=tmp_path / "out")
            .replace("sweep = 1", f"sweep = {sweep}")
            .replace("replications = 1", f"replications = {replications}"))
    result = harness.run_experiment(harness.parse_config(text + f"workers = {workers}\n"))
    assert sizes == ([] if pool_size is None else [pool_size])
    assert len(result["results"].read_text().splitlines()) == 1 + replications * len(
        sweep.split(","))


def test_V_grid_is_the_mean_of_V_over_the_trajectory_grid(tmp_path, bt):
    # N = 2048 strides the grid by 2; N = 4 takes every state before z^N.
    text = SMALL_CONFIG.replace("sweep = 1", "sweep = 4,2048").replace(
        "replications = 1", "replications = 2") + "workers = {workers}\n"
    results = {}
    for workers in (1, 2):
        out = tmp_path / str(workers)
        results[workers] = harness.run_experiment(harness.parse_config(
            text.format(out=out, workers=workers)))
    for name in ("results.csv", "summary.csv"):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes()
    with open(results[1]["results"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        n = int(row["N"])
        record = engine.run(bt.spec, engine.RunConfig(
            gamma=2.0, alpha=0.05, n_iters=n, seed=int(row["seed"])))
        grid = slice(0, n, max(1, n // 1024))
        assert float(row["V_grid"]) == float(np.mean(diagnostics.nonoptimality_V(
            bt.spec, record.betas[grid], record.thetas[grid], 2.24, 0.21875)))
    for srow in results[1]["summary_rows"]:
        assert srow["mean_V_grid"] == np.mean(
            [float(r["V_grid"]) for r in rows if int(r["N"]) == srow["N"]])


def test_anytime_V_grid_is_the_tau_weighted_mean_of_V(tmp_path, bt):
    # Under Anytime, P[S=k] is proportional to tau_k, so V_grid weights each
    # grid state's V by its tau_k; N = 2048 strides the grid by 2.
    text = SMALL_CONFIG.replace("FixedHorizon", "Anytime").replace(
        "sweep = 1", "sweep = 16,2048") + "workers = 1\n"
    result = harness.run_experiment(harness.parse_config(text.format(out=tmp_path)))
    with open(result["results"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        n = int(row["N"])
        record = engine.run(bt.spec, engine.RunConfig(
            gamma=2.0, alpha=0.05, n_iters=n, schedule=engine.Schedule.ANYTIME,
            seed=int(row["seed"])))
        grid = range(0, n, max(1, n // 1024))
        vs = [diagnostics.nonoptimality_V(bt.spec, record.betas[k], record.thetas[k],
                                          2.24, 0.21875) for k in grid]
        taus = [record.taus[k] for k in grid]
        weighted = sum(t * v for t, v in zip(taus, vs)) / sum(taus)
        assert float(row["V_grid"]) == pytest.approx(weighted, rel=1e-12, abs=0)
        assert float(row["V_grid"]) != pytest.approx(np.mean(vs), rel=1e-6)


def test_V_grid_is_empty_in_monte_carlo_mode(tmp_path):
    result = harness.run_experiment(harness.parse_config(
        "problem.name = LG(2)\nrun.gamma = 1\nrun.alpha = 0.5\nsweep = 4\n"
        f"lambda = 3\nc1 = 1\nc2 = 1\nworkers = 1\noutput_dir = {tmp_path}\n"))
    with open(result["results"], newline="") as fh:
        (row,) = csv.DictReader(fh)
    with open(result["summary"], newline="") as fh:
        (srow,) = csv.DictReader(fh)
    assert row["status"] == "ok" and row["V_grid"] == ""
    assert srow["mean_V_grid"] == "nan"


def test_the_manifest_holds_the_engine_times(tmp_path):
    config = harness.parse_config(
        "problem.name=BT\nrun.gamma=2\nrun.alpha=0.05\nrun.seed=3\n"
        f"sweep=2,4\nreplications=2\nlambda=1\nc1=1\nc2=1\noutput_dir={tmp_path}\n")
    result = harness.run_experiment(config)
    manifest = json.loads(result["manifest"].read_text())
    assert "timings" not in result
    assert manifest["versions"]["ctxopt"] == ctxopt.__version__
    rows = manifest["engine_ms"]
    assert [(n, r) for n, r, _ in rows] == [(2, 0), (2, 1), (4, 0), (4, 1)]
    assert all(wall_ms >= 0.0 for _, _, wall_ms in rows)


# setuptools marks its reading of [tool.setuptools] as beta with a warning
@pytest.mark.filterwarnings("ignore")
def test_the_package_version_is_declared_once():
    from setuptools.config.pyprojecttoml import read_configuration

    project = read_configuration(Path(__file__).parents[1] / "pyproject.toml")["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == ctxopt.__version__


def test_problem_is_built_once_per_sweep(tmp_path, monkeypatch):
    built = []
    build = problems.by_name

    def by_name(name, **params):
        built.append(name)
        return build(name, **params)

    monkeypatch.setattr(harness.problems, "by_name", by_name)
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


# The all-ones ledger stand-in: one override per entry.
UNIT_LEDGER = "".join(f"ledger.{key} = 1\n" for key in constants.LEDGER_KEYS)


def _check_config(tmp_path, problem, gamma, lam=None, extra=""):
    """A config for ``ctxopt check``: the keys a run requires, and ``extra``."""
    path = tmp_path / "check.cfg"
    path.write_text(f"problem.name = {problem}\nrun.gamma = {gamma}\nsweep = 1\n"
                    + ("" if lam is None else f"lambda = {lam}\n") + extra)
    return str(path)


def test_cli_check_worked_example(tmp_path, capsys):
    status = cli.main(["check", _check_config(tmp_path, "BT", 20, 3, UNIT_LEDGER)])
    out = capsys.readouterr().out
    assert status == 0
    assert "COMPLIANT" in out
    assert "cap_C" in out and "8" in out


def test_cli_check_gamma_boundary(tmp_path, capsys):
    status = cli.main(["check", _check_config(tmp_path, "BT", 16.5, 3, UNIT_LEDGER)])
    out = capsys.readouterr().out
    assert status == 1
    assert "gamma" in out and "NON-COMPLIANT" in out
    # the verdict is derive's own inequality
    ledger = constants.ConstantLedger(**dict.fromkeys(constants.LEDGER_KEYS, 1.0))
    with pytest.raises(DomainError) as verdict:
        constants.derive(ledger, 3.0, 16.5)
    assert out.endswith(f"lambda_floor     2\nNON-COMPLIANT: {verdict.value}\n")


def test_cli_check_lambda_floor(tmp_path, capsys):
    status = cli.main(["check", _check_config(tmp_path, "BT", 20, 1, UNIT_LEDGER)])
    out = capsys.readouterr().out
    assert status == 1
    assert "floor" in out


@pytest.mark.parametrize("gamma, lam, bad", [
    ("inf", "20", "gamma=inf"), ("300", "nan", "lambda=nan"),
    ("300", "inf", "lambda=inf"), ("nan", "20", "gamma=nan")])
def test_cli_check_names_a_non_finite_input(tmp_path, capsys, gamma, lam, bad):
    # The config refuses a non-finite gamma or lambda by its key as it is
    # read; derive's own finiteness verdicts are pinned in test_constants.
    status = cli.main(["check", _check_config(tmp_path, "BT", gamma, lam)])
    name, value = bad.split("=")
    key = {"gamma": "run.gamma", "lambda": "lambda"}[name]
    captured = capsys.readouterr()
    assert status == 1 and captured.out == ""
    assert captured.err == f"error: {key}: must be positive and finite, got {value!r}\n"


def test_cli_check_estimate_is_the_harness_estimate(bt_estimated_ledger,
                                                   tmp_path, capsys):
    status = cli.main(["check", _check_config(
        tmp_path, "BT", 20, 1, "ledger.estimate = true\nrun.seed = 20260823\n")])
    out = capsys.readouterr().out
    assert status == 1 and "floor" in out
    for key, value in bt_estimated_ledger.as_dict().items():
        assert f"ledger {key:<13} {value:.6g}\n" in out


# sha256 of stdout and the exit code of each config, as the former flag
# invocations (in the comments) printed them.
CHECK_DIGESTS = [
    (("BT", 300, 20, ""), 0,  # check BT --gamma 300 --lambda 20
     "b464c8ff65fab82b93a0578e8e9c5764a93fb50858ec3358a64226591f8bd579"),
    (("BT", 20, 3, UNIT_LEDGER), 0,  # --unit-ledger
     "67046b99c8a6b4df5f97b305797a5d1f68183376000fc694096ea2e7a256036c"),
    (("BT", 16.5, 3, UNIT_LEDGER), 1,
     "c26b55a94b9c16efef3dccebc19240fcbf3aac47cccd27de06ad9525eb9fb319"),
    (("BT", 20, 1, UNIT_LEDGER), 1,
     "381d4c8ee0098387ad351a2a02cdd0ad12a4911bf7c78d8153b2e11c06d4c5c1"),
    (("LIN", 300, 20, ""), 0,
     "af284c17c436d0c2b61d83b1ac56e4e20b4382d44baa0514409b779796621fc2"),
    (("LG(8)", 300, 25, ""), 0,
     "d34cc6861122ad09b087640a35ecb5344f9b2bb2445028144bbacdca9374c454"),
    (("BT", 300, 20, "ledger.estimate = true\nrun.seed = 20260823\n"), 0,
     # --estimate --seed 20260823
     "bac8f08671c5c6fcbaeab3136ad3deb74145045e7fac0695c189714b1de0fe9b"),
]


@pytest.mark.parametrize("config, status, digest", CHECK_DIGESTS,
                         ids=["BT", "unit-20-3", "unit-16.5-3", "unit-20-1",
                              "LIN", "LG(8)", "estimate"])
def test_cli_check_keeps_the_flag_reports(tmp_path, capsys, config, status, digest):
    assert cli.main(["check", _check_config(tmp_path, *config)]) == status
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_check_reaches_the_run_verdict(tmp_path, capsys):
    # A ledger.M override reaches check's ledger, and check names the
    # inequality that stops ctxopt run on the same config.
    path = _check_config(tmp_path, "BT", 300, 20, "ledger.M = 5\nrun.alpha = 0.05\n"
                         f"output_dir = {tmp_path / 'out'}\n")
    assert cli.main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "ledger M             5\n" in out
    label, verdict = out.splitlines()[-1].split(": ", 1)
    assert label == "NON-COMPLIANT" and verdict.endswith("(requires gamma > 1336.96)")
    assert cli.main(["run", path]) == 1
    assert capsys.readouterr().err == f"error: {verdict}\n"
    assert not (tmp_path / "out").exists()


def test_cli_check_derives_the_run_lambda(tmp_path, capsys):
    path = _check_config(tmp_path, "BT", 300)
    assert cli.main(["check", path]) == 0
    config = harness.parse_config(Path(path).read_text())
    lam = harness.resolve(config)[3]
    assert f"{lam:.6g}" == "19.8881"
    assert "derived lambda       19.8881\n" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [["--gamma", "300"], ["--lambda", "20"],
                                  ["--unit-ledger"], ["--estimate"], ["--seed", "3"]],
                         ids=lambda flag: flag[0])
def test_cli_check_takes_no_flag(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as usage:
        cli.main(["check", _check_config(tmp_path, "BT", 300, 20), *flag])
    assert usage.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


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


def test_cli_rate_counts_only_n_with_a_finite_mean(tmp_path, capsys):
    # Every replication of N = 1024 and 4096 diverged: three N remain.
    diverged = tmp_path / "diverged.csv"
    _write_summary(diverged, [(64, 0.25), (256, 0.125), (1024, math.nan),
                              (4096, math.nan), (16384, 0.03125)])
    assert cli.main(["rate", str(diverged)]) == 2
    assert "got 3 with a finite mean_V" in capsys.readouterr().out


def test_cli_rate_counts_only_n_that_the_fit_keeps(tmp_path, capsys):
    # A mean of 0 is finite, but the log-log fit drops it: three N remain.
    summary = tmp_path / "summary.csv"
    _write_summary(summary, [(1024, 1.0), (4096, 0.5), (16384, 0.25), (65536, 0.0)])
    assert cli.main(["rate", str(summary)]) == 2
    captured = capsys.readouterr()
    assert "got 3 with a finite mean_V > 0" in captured.out
    assert captured.err == ""


def test_cli_rate_reports_the_rows_that_the_fit_leaves_out(tmp_path, capsys):
    # Four N are kept, so the fit runs; the fifth, with a mean of 0, is left
    # out on one line of the report, and stderr stays empty.
    summary = tmp_path / "summary.csv"
    _write_summary(summary, [(1024, 0.25), (4096, 0.125), (16384, 0.0625),
                             (65536, 0.03125), (262144, 0.0)])
    assert cli.main(["rate", str(summary)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == ("excluded  1 of 5 rows (no finite mean_V > 0)\n"
                            "fitted    mean_V\n"
                            "slope     -0.5\nintercept 2.07944\nr_squared 1\n"
                            "slope within [-0.65, -0.35]\n")


def _write_grid_summary(path, rows):
    with open(path, "w") as fh:
        fh.write("N,mean_V,stderr_V,replications,excluded,mean_V_grid\n")
        for n, v, grid in rows:
            fh.write(f"{n},{float(v)!r},0.0,30,0,{float(grid)!r}\n")


def test_cli_rate_fits_mean_V_grid_where_every_kept_row_has_one(tmp_path, capsys):
    # mean_V, one heavy-tailed V(z^S) draw per replication, is off the law;
    # mean_V_grid is on it, and is the column fitted.  The row whose every
    # replication diverged has neither, and is left out of both.
    summary = tmp_path / "summary.csv"
    _write_grid_summary(summary, [(1024, 0.5, 0.25), (4096, 0.5, 0.125),
                                  (16384, 0.01, 0.0625), (65536, 0.5, 0.03125),
                                  (262144, math.nan, math.nan)])
    assert harness.read_summary(summary, "mean_V_grid")[0] == (1024, 0.25)
    assert cli.main(["rate", str(summary)]) == 0
    assert capsys.readouterr().out == (
        "excluded  1 of 5 rows (no finite mean_V_grid > 0)\n"
        "fitted    mean_V_grid\n"
        "slope     -0.5\nintercept 2.07944\nr_squared 1\n"
        "slope within [-0.65, -0.35]\n")


@pytest.mark.parametrize("grid", [math.nan, 0.0], ids=["monte-carlo", "zero"])
def test_cli_rate_fits_mean_V_unless_every_kept_row_has_a_grid_mean(tmp_path,
                                                                     capsys, grid):
    # A Monte Carlo row has no grid mean (NaN); one row without a finite
    # mean_V_grid > 0 is enough to fit mean_V, as a summary without the column is.
    summary = tmp_path / "summary.csv"
    _write_grid_summary(summary, [(1024, 0.25, 1.0), (4096, 0.125, 1.0),
                                  (16384, 0.0625, 1.0), (65536, 0.03125, grid)])
    assert cli.main(["rate", str(summary)]) == 0
    assert capsys.readouterr().out.startswith("fitted    mean_V\nslope     -0.5\n")
    plain = tmp_path / "plain.csv"
    _write_summary(plain, [(1024, 0.25), (4096, 0.125)])
    assert harness.read_summary(plain, "mean_V_grid") is None


def test_cli_rate_refuses_an_n_below_one(tmp_path, capfd):
    # LAPACK writes its complaints to the process's own stdout: capfd sees them.
    summary = tmp_path / "summary.csv"
    _write_summary(summary, [(0, 1.0), (1, 0.5), (2, 0.25), (4, 0.125)])
    assert cli.main(["rate", str(summary)]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rate_fit needs every N >= 1, got N = 0\n"


@pytest.mark.parametrize("flag", ["--alpha", "--n-iters"])
def test_cli_check_prints_no_unit_moment_bound(flag, tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["check", _check_config(tmp_path, "BT", 300, 20), flag, "4"])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_run_has_no_workers_flag(capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    assert "--workers" not in capsys.readouterr().out


def test_cli_gradcheck(tmp_path, capsys):
    assert cli.main(["gradcheck", _check_config(tmp_path, "BT", 20)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


# sha256 of stdout of the former ``gradcheck <problem> [--seed 5]``
GRADCHECK_DIGESTS = [
    ("BT", "", "ebee7fd0aac4d5714bcf2c57590dbcd09e868fc6fcf4a4ab402088bf60f6da84"),
    ("LIN", "", "4a2f38cb814f0082c2b251ed196d06b02ef6b36a3407971f5a601a8b4cc6ae86"),
    ("LG(2)", "", "0d2fe834ec945c506abceea2c10d01a288a14b42be0ae2f3447136c6b570cf44"),
    ("BT", "run.seed = 5\n",
     "9fd0e6100f00977292bee5e93f88590ed33654822cea235e1286bfb6d301d1d5"),
    ("LG(2)", "run.seed = 5\n",
     "078fc6fc41fe8689c2d76025e9e12789ff6ca88c30872423cc2e264843b03a9c"),
]


@pytest.mark.parametrize("problem, extra, digest", GRADCHECK_DIGESTS,
                         ids=["BT", "LIN", "LG(2)", "BT-seed-5", "LG(2)-seed-5"])
def test_cli_gradcheck_keeps_the_problem_reports(tmp_path, capsys, problem, extra,
                                                 digest):
    assert cli.main(["gradcheck", _check_config(tmp_path, problem, 20, extra=extra)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_gradcheck_checks_the_configured_problem(tmp_path, capsys, monkeypatch):
    built, checked = [], []
    build, check = problems.by_name, cli.finite_difference_check

    def by_name(name, **params):
        built.append(build(name, **params))
        return built[-1]

    def finite_difference_check(spec, n_probes, rng):
        checked.append(spec)
        return check(spec, n_probes, rng)

    monkeypatch.setattr(harness.problems, "by_name", by_name)
    monkeypatch.setattr(cli, "finite_difference_check", finite_difference_check)
    path = _check_config(tmp_path, "LG(3)", 20, extra="problem.seed = 5\n")
    assert cli.main(["gradcheck", path]) == 0
    assert "ok" in capsys.readouterr().out
    assert len(built) == len(checked) == 1 and checked[0] is built[0].spec
    assert np.array_equal(built[0].a, problems.make_linear_gaussian(3, 5).a)
    assert not np.array_equal(built[0].a, problems.make_linear_gaussian(3).a)


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


def test_diverged_replications_are_recorded_not_fatal(tmp_path, capsys):
    # At alpha = 1e8 three of the four N = 16 replications overflow at
    # iterations 13-15; every N = 4 replication finishes.
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(DIVERGING_CONFIG.format(out=tmp_path / "out"))
    assert cli.main(["run", str(config_path)]) == 1
    assert "3 replications diverged" in capsys.readouterr().err
    out = tmp_path / "out"
    assert sorted(path.name for path in out.iterdir()) == \
        ["manifest.jsonl", "results.csv", "summary.csv"]
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["ok"] * 5 + [
        "diverged@15", "diverged@13", "diverged@15"]
    assert all(row["V_at_S"] == row["S"] == row["V_grid"] == "" for row in rows[5:])
    with open(out / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    for srow, kept, excluded in zip(summary, (rows[:4], rows[4:5]), (0, 3)):
        assert float(srow["mean_V"]) == np.mean([float(r["V_at_S"]) for r in kept])
        assert (int(srow["replications"]), int(srow["excluded"])) == \
            (len(kept), excluded)


def test_diverged_rows_match_across_worker_counts(tmp_path):
    for workers in (1, 2):
        harness.run_experiment(harness.parse_config(
            DIVERGING_CONFIG.format(out=tmp_path / str(workers))
            + f"workers = {workers}\n"))
    for name in ("results.csv", "summary.csv"):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes()


def test_diverging_run_prints_no_overflow_warnings(tmp_path):
    # Both replications overflow in the pseudo-Huber outer at iteration 12.
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        SMALL_CONFIG.format(out=tmp_path / "out")
        .replace("run.alpha = 0.05", "run.alpha = 1e8")
        .replace("run.seed = 7", "run.seed = 3")
        .replace("sweep = 1", "sweep = 64").replace("replications = 1",
                                                    "replications = 2"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-m", "ctxopt.cli", "run",
                           str(config_path)], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 1
    assert "RuntimeWarning" not in done.stderr
    assert done.stderr.startswith("error: 2 replications diverged")
    with open(tmp_path / "out" / "results.csv", newline="") as fh:
        assert [row["status"] for row in csv.DictReader(fh)] == \
            ["diverged@12", "diverged@12"]


def test_z0_quantities_fail_before_drawing_without_g_min(tmp_path):
    lg8 = problems.by_name("LG(8)")
    lg8.g_min = None
    calls = []

    def counting_sampler(rng):
        calls.append(1)
        return lg8.spec.sampler(rng)

    lg8.spec.sampler = counting_sampler
    config = harness.parse_config(
        "problem.name = LG(8)\nrun.gamma = 1\nsweep = 4\n"
        f"output_dir = {tmp_path}\n")
    with pytest.raises(CapabilityError, match="no known G_min"):
        harness.measure_z0_quantities(lg8, config, engine.initial_state(lg8.spec),
                                      lam=1.0)
    assert calls == []


def test_lg_runs_with_alpha_auto(tmp_path):
    # LG ships G_min = 0, so alpha = auto measures the z^0 quantities.
    config_path = tmp_path / "exp.cfg"
    config_path.write_text("problem.name = LG(2)\nrun.gamma = 20\nrun.alpha = auto\n"
                           f"sweep = 4,8\nworkers = 1\noutput_dir = {tmp_path / 'out'}\n")
    assert cli.main(["run", str(config_path)]) == 0
    with open(tmp_path / "out" / "manifest.jsonl") as fh:
        derived = json.loads(fh.readline())["derived"]
    assert derived["G_min"] == 0.0 and derived["alpha"] > 0.0


def test_a_schedule_name_runs_a_row_as_its_member(bt):
    # A RunConfig schedule given by name writes the member's row.
    rows = [harness._run_one(bt.spec, engine.RunConfig(
                gamma=2.0, alpha=0.05, n_iters=8, schedule=schedule, seed=3),
                0, 1.0, 2.24, 0.21875)
            for schedule in (engine.Schedule.FIXED_HORIZON, "FixedHorizon")]
    for row in rows:
        del row["wall_ms"]
    assert rows[0]["tau_schedule"] == "FixedHorizon"
    assert repr(rows[0]) == repr(rows[1])


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
