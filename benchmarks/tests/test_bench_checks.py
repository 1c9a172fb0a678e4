"""Tests of the benchmark's oracles and output checks, at a tiny size.

Run from the root of a checkout:  python3 -m pytest benchmarks/tests -q
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from ctxopt import engine, harness, problems  # noqa: E402

SEED = 7


def tiny(name, **changes):
    return dataclasses.replace(WORKLOADS[name], **changes)


def run_harness(workload, out):
    config = harness.parse_config(workload.config_text(SEED, str(out), 1))
    harness.run_experiment(config)
    return {"dir": out}


@pytest.fixture(scope="module")
def bt_outputs(tmp_path_factory):
    workload = tiny("bt-sweep", sweep=(64, 256), replications=2)
    return workload, run_harness(workload, tmp_path_factory.mktemp("bt"))


@pytest.fixture(scope="module")
def lg_outputs(tmp_path_factory):
    workload = tiny("lg-mc-pool", sweep=(64, 128), replications=1, workers=1)
    return workload, run_harness(workload, tmp_path_factory.mktemp("lg"))


@pytest.fixture(scope="module")
def rate_outputs(tmp_path_factory):
    workload = tiny("bt-rate-grid", sweep=(256, 512, 1024, 2048),
                    replications=2, grid=64)
    out = tmp_path_factory.mktemp("rate")
    child.run_rate_grid(workload, SEED, out)
    return workload, {"dir": out}


def perturb(path, column, row_index, change):
    """Rewrite one value of a results.csv row through ``change``."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1 + row_index].split(",")
    i = header.index(column)
    cells[i] = change(cells[i])
    lines[1 + row_index] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def copy_outputs(info, tmp_path):
    for item in info["dir"].iterdir():
        (tmp_path / item.name).write_bytes(item.read_bytes())
    return {"dir": tmp_path}


# ----------------------------------------------------------------- oracles

def test_bt_realizing_theta_gives_zero_Q():
    for beta in (0.0, 0.3, 1.0):
        theta = problems.theta_realizing(beta)
        q, _ = oracles.bt_Q_gradG([beta], [theta])
        assert q[0] == pytest.approx(0.0, abs=1e-30)


def test_bt_G_min_matches_closed_form_minimizer():
    assert oracles.bt_G_min() == pytest.approx(
        problems.make_bernoulli_testbed().g_min, rel=1e-12)


def test_lg_Q_vanishes_at_a():
    a = oracles.lg_vector(8)
    beta = np.linspace(-0.5, 0.5, 8)
    assert oracles.lg_Q(a, beta, a - beta) == 0.0


def test_quadrature_agrees_with_numpy_monte_carlo():
    a = oracles.lg_vector(8)
    beta = 0.3 * np.ones(8)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((400_000, 8))
    u = x @ (a - beta)
    per_sample = -x * (u / np.sqrt(1.0 + u * u))[:, None]
    mean = per_sample.mean(axis=0)
    stderr = per_sample.std(axis=0, ddof=1) / math.sqrt(len(x))
    assert np.all(np.abs(oracles.lg_gradG(a, beta) - mean) <= 5 * stderr)
    trace = float(np.trace(np.cov(per_sample.T)))
    assert oracles.lg_gradG_sample_trace(a, beta) == pytest.approx(trace,
                                                                   rel=0.02)


def test_replays_reproduce_the_engine_bitwise():
    bt = problems.by_name("BT")
    record = engine.run(bt.spec, engine.RunConfig(gamma=20.0, alpha=0.1,
                                                  n_iters=300, seed=5))
    betas, thetas = oracles.bt_replay(5, 300, 20.0, 0.1)
    assert np.array_equal(record.betas[:, 0], betas)
    assert np.array_equal(record.thetas, thetas)
    assert record.stop_index == oracles.stop_index(5, 300)

    lg = problems.by_name("LG(8)")
    record = engine.run(lg.spec, engine.RunConfig(gamma=1.0, alpha=0.5,
                                                  n_iters=300, seed=5))
    betas, thetas = oracles.lg_replay(oracles.lg_vector(8), 5, 300, 1.0, 0.5)
    assert np.array_equal(record.betas, betas)
    assert np.array_equal(record.thetas, thetas)


def test_ledger_check_accepts_closed_forms_and_rejects_a_change():
    shipped = problems.make_bernoulli_testbed().ledger.as_dict()
    assert checks.check_bt_ledger(shipped) == []
    shipped["C_psi"] *= 1.03
    assert len(checks.check_bt_ledger(shipped)) == 1


# ------------------------------------------------------------------ checks

def test_bt_outputs_pass(bt_outputs):
    workload, info = bt_outputs
    assert run.check_round(workload, SEED, info) == []


@pytest.mark.parametrize("column, change", [
    ("V_at_S", lambda v: repr(float(v) * (1 + 1e-7))),
    ("S", lambda v: str(int(v) + 1)),
    ("W_final", lambda v: repr(float(v) * (1 + 1e-7))),
])
def test_bt_check_rejects_one_perturbed_value(bt_outputs, tmp_path, column,
                                              change):
    workload, info = bt_outputs
    info = copy_outputs(info, tmp_path)
    perturb(tmp_path / "results.csv", column, 2, change)
    assert run.check_round(workload, SEED, info)


def test_lg_outputs_pass(lg_outputs):
    workload, info = lg_outputs
    assert run.check_round(workload, SEED, info) == []


@pytest.mark.parametrize("column, change", [
    ("Q_at_S", lambda v: repr(float(v) * 1.5)),
    ("normgradG_at_S", lambda v: repr(float(v) * 1.5 + 0.05)),
    ("S", lambda v: str(int(v) + 1)),
])
def test_lg_check_rejects_one_perturbed_value(lg_outputs, tmp_path, column,
                                              change):
    workload, info = lg_outputs
    info = copy_outputs(info, tmp_path)
    perturb(tmp_path / "results.csv", column, 1, change)
    assert run.check_round(workload, SEED, info)


def test_rate_grid_outputs_pass(rate_outputs):
    workload, info = rate_outputs
    assert run.check_round(workload, SEED, info) == []


def test_rate_grid_check_rejects_one_perturbed_value(rate_outputs, tmp_path):
    workload, info = rate_outputs
    info = copy_outputs(info, tmp_path)
    perturb(tmp_path / "results.csv", "mean_V", 3, lambda v: repr(float(v) * 1.01))
    assert run.check_round(workload, SEED, info)


def test_rate_fit_and_bound_are_enforced():
    manifest = {"lambda": 20.0, "alpha": 0.05, "C_d_sq": 100.0,
                "sigma_sq": 100.0, "W0": 0.1, "G_min": 0.0}
    ns = [1024, 2048, 4096, 8192]
    assert checks.check_rate_fit(ns, [1e-3 / math.sqrt(n) for n in ns],
                                 manifest) == []
    flat = checks.check_rate_fit(ns, [1e-5] * 4, manifest)
    assert len(flat) == 1 and flat[0].startswith("rate fit")
    too_high = checks.check_rate_fit(ns, [1e6 / math.sqrt(n) for n in ns],
                                     manifest)
    assert len(too_high) == 4


def test_canonical_results_ignores_only_wall_ms(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text("N,V_at_S,wall_ms\n64,0.5,1.25\n")
    second.write_text("N,V_at_S,wall_ms\n64,0.5,9.75\n")
    assert checks.canonical_results(first) == checks.canonical_results(second)
    second.write_text("N,V_at_S,wall_ms\n64,0.50000001,1.25\n")
    assert checks.canonical_results(first) != checks.canonical_results(second)


# ------------------------------------------------------------- host speed

def test_normalised_takes_out_slices_and_scales_by_their_slowness():
    import hostspeed

    phase = {"slices": 10, "cpu_s": 20 * hostspeed.NOMINAL_S, "wall_s": 0.5}
    # slices ran twice as slow as nominal: the program's 2.5 s count as 1.25
    assert hostspeed.normalised(3.0, phase) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        hostspeed.normalised(3.0, {"slices": 0, "cpu_s": 0.0, "wall_s": 0.0})


def test_sampler_times_slices_while_the_program_runs():
    import time

    import hostspeed

    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        end = time.monotonic() + 0.5
        while time.monotonic() < end:
            sum(range(1000))
        first = sampler.phase()
    finally:
        last = sampler.stop()
    assert 5 <= first["slices"] <= 12
    assert 0.0 < first["cpu_s"] <= first["wall_s"] < 0.5
    assert last["slices"] == 1
