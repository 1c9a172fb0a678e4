"""Iteration mechanics: directions, stepsizes, stopping laws, determinism."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from ctxopt import diagnostics, engine, model, seeding
from ctxopt.engine import Direction, RunConfig, Schedule
from ctxopt.errors import ConfigurationError, EvaluationError
from ctxopt.model import IterateState


def test_direction_worked_example(bt):
    # At theta=0 the model output is 0, grad g(0) = 0, so the beta component
    # vanishes and theta moves toward the observed inner value.
    state = IterateState(np.array([0.0]), np.array([0.0, 0.0]))
    sample = (np.array([1.0]), np.array([1.0]))
    d = engine.compute_direction(bt.spec, state, sample, gamma=2.0)
    assert d.d_beta == pytest.approx([0.0])
    assert d.d_theta == pytest.approx([2.0, 2.0])


def test_direction_requires_positive_gamma(bt):
    state = IterateState(np.array([0.0]), np.array([0.0, 0.0]))
    with pytest.raises(ConfigurationError):
        engine.compute_direction(bt.spec, state,
                                 (np.array([0.0]), np.array([0.0])), 0.0)


def test_step_arithmetic():
    state = IterateState(np.array([1.0]), np.array([2.0, 3.0]), k=4)
    nxt = engine.step(state, Direction(np.array([2.0]), np.array([-1.0, 0.5])),
                      tau=0.5)
    assert nxt.beta == pytest.approx([2.0])
    assert nxt.theta == pytest.approx([1.5, 3.25])
    assert nxt.k == 5
    with pytest.raises(ConfigurationError):
        engine.step(state, Direction(np.array([0.0]), np.array([0.0, 0.0])), 0.0)


def test_stepsize_schedules():
    for k in range(16):
        assert engine.stepsize(Schedule.FIXED_HORIZON, k, 16, 0.5) == 0.5 / 4.0
        assert engine.stepsize(Schedule.ANYTIME, k, 16, 0.5) == \
            pytest.approx(0.5 / np.sqrt(k + 1))
    with pytest.raises(ConfigurationError):
        engine.stepsize(Schedule.FIXED_HORIZON, 16, 16, 0.5)
    with pytest.raises(ConfigurationError):
        engine.stepsize(Schedule.ANYTIME, -1, 16, 0.5)


def test_stepsizes_equal_stepsize_bitwise():
    for schedule in Schedule:
        for n in (1, 7, 1000):
            expected = [engine.stepsize(schedule, k, n, 0.37) for k in range(n)]
            assert engine.stepsizes(schedule, n, 0.37).tolist() == expected


def test_nonfinite_inner_names_the_iteration(bt):
    spec = bt.spec
    calls = []

    def inner(x, y, beta):
        calls.append(None)
        if len(calls) == 6:
            return np.array([np.nan]), np.array([[0.0]])
        return spec.inner(x, y, beta)

    broken = dataclasses.replace(spec, inner=inner)
    with pytest.raises(EvaluationError) as exc:
        engine.run(broken, RunConfig(gamma=1.0, alpha=0.1, n_iters=20, seed=2))
    assert "evaluation failed at iteration 5: inner produced a non-finite" \
        in str(exc.value)
    x, y, beta = exc.value.offending_input
    assert len(x) == len(y) == len(beta) == 1


@pytest.mark.parametrize("output, message", [
    (0, "outer value non-finite"),
    (2, "outer hessian produced a non-finite"),
])
def test_nonfinite_outer_names_the_iteration(bt, output, message):
    # The outer value and Hessian feed no direction; the step's one
    # finiteness test covers them directly.
    spec = bt.spec
    calls = []

    def outer(u):
        calls.append(None)
        outputs = list(spec.outer(u))
        if len(calls) == 9:
            outputs[output] = outputs[output] * np.inf
        return tuple(outputs)

    broken = dataclasses.replace(spec, outer=outer)
    with pytest.raises(EvaluationError) as exc:
        engine.run(broken, RunConfig(gamma=1.0, alpha=0.1, n_iters=20, seed=2))
    assert f"evaluation failed at iteration 8: {message}" in str(exc.value)
    assert exc.value.offending_input.shape == (1,)
    assert len(calls) == 9


def test_stacked_samples_give_per_sample_directions(bt):
    state = IterateState(np.array([0.3]), np.array([0.1, 0.4]))
    rng = seeding.substream(8, 1)
    xs, ys = model.sample_stack(bt.spec, 50, rng)
    stacked = engine.compute_direction(bt.spec, state, (xs, ys), 2.0)
    for i in range(50):
        d = engine.compute_direction(bt.spec, state, (xs[i], ys[i]), 2.0)
        assert stacked.d_beta[i].tolist() == d.d_beta.tolist()
        assert stacked.d_theta[i].tolist() == d.d_theta.tolist()


def test_run_shapes_and_taus(bt):
    cfg = RunConfig(gamma=1.0, alpha=0.1, n_iters=32, seed=11)
    rec = engine.run(bt.spec, cfg)
    assert rec.betas.shape == (33, 1)
    assert rec.thetas.shape == (33, 2)
    assert rec.taus == pytest.approx(np.full(32, 0.1 / np.sqrt(32)))
    assert 0 <= rec.stop_index < 32
    stopped = rec.stopped_state
    assert np.array_equal(stopped.beta, rec.betas[rec.stop_index])
    assert rec.final_state.k == 32


def test_run_is_bitwise_deterministic(bt):
    cfg = RunConfig(gamma=2.0, alpha=0.2, n_iters=64, seed=123)
    a = engine.run(bt.spec, cfg)
    b = engine.run(bt.spec, cfg)
    assert np.array_equal(a.betas, b.betas)
    assert np.array_equal(a.thetas, b.thetas)
    assert a.stop_index == b.stop_index


def test_run_consumes_exactly_one_sample_per_iteration(bt):
    calls = []
    base_sampler = bt.spec.sampler

    def counting_sampler(rng):
        calls.append(1)
        return base_sampler(rng)

    spec = dataclasses.replace(bt.spec, sampler=counting_sampler)
    engine.run(spec, RunConfig(gamma=1.0, alpha=0.1, n_iters=50, seed=3))
    assert len(calls) == 50


def test_run_rejects_bad_config(bt):
    with pytest.raises(ConfigurationError):
        RunConfig(gamma=1.0, alpha=0.1, n_iters=0)
    with pytest.raises(ConfigurationError):
        RunConfig(gamma=-1.0, alpha=0.1, n_iters=8)
    with pytest.raises(ConfigurationError):
        engine.run(bt.spec, RunConfig(gamma=1.0, alpha=0.1, n_iters=8,
                                      init_beta=[0.0, 0.0]))


def test_diagnostics_callback_cadence(bt):
    seen = []

    def cb(state, rng):
        seen.append(state.k)
        return state.k

    cfg = RunConfig(gamma=1.0, alpha=0.1, n_iters=20, seed=5, diag_every=8)
    rec = engine.run(bt.spec, cfg, diagnostics_fn=cb)
    assert seen == [0, 8, 16]
    assert rec.diagnostics == [(0, 0), (8, 8), (16, 16)]


def test_direction_is_unbiased_for_gamma_dir(bt):
    # The single-sample direction matches the enumerated expectation within
    # Monte Carlo error.
    beta, theta = np.array([0.3]), np.array([0.1, 0.4])
    gamma = 2.0
    exact = diagnostics.expected_direction_Gamma(bt.spec, beta, theta, gamma)
    rng = seeding.substream(9, 1)
    n = 4000
    dirs = np.empty((n, 3))
    state = IterateState(beta, theta)
    for i in range(n):
        d = engine.compute_direction(bt.spec, state,
                                     bt.spec.sampler(rng), gamma)
        dirs[i] = [d.d_beta[0], d.d_theta[0], d.d_theta[1]]
    mean = dirs.mean(axis=0)
    stderr = dirs.std(axis=0, ddof=1) / np.sqrt(n)
    target = np.array([exact.d_beta[0], exact.d_theta[0], exact.d_theta[1]])
    assert np.all(np.abs(mean - target) <= 4 * stderr + 1e-12)


def test_stop_index_laws_small():
    n = 8
    draws_fh = [engine.draw_stop_index(Schedule.FIXED_HORIZON, n, 0.1,
                                       seeding.substream(1, i))
                for i in range(20000)]
    counts = np.bincount(draws_fh, minlength=n)
    assert stats.chisquare(counts).pvalue > 1e-3

    draws_at = [engine.draw_stop_index(Schedule.ANYTIME, n, 0.1,
                                       seeding.substream(2, i))
                for i in range(20000)]
    taus = 1.0 / np.sqrt(np.arange(1, n + 1))
    expected = taus / taus.sum() * 20000
    counts = np.bincount(draws_at, minlength=n)
    assert stats.chisquare(counts, expected).pvalue > 1e-3


def test_trajectory_iterator(bt):
    rec = engine.run(bt.spec, RunConfig(gamma=1.0, alpha=0.1, n_iters=4, seed=1))
    rows = list(rec.trajectory())
    assert len(rows) == 5
    assert rows[0][0] == 0 and rows[-1][0] == 4
    assert rows[-1][1] is None
    assert rows[2][1] == pytest.approx(0.1 / 2.0)
