"""Iteration mechanics: directions, stepsizes, stopping laws, determinism."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from ctxopt import diagnostics, engine, model, seeding
from ctxopt.engine import RunConfig, Schedule
from ctxopt.errors import ConfigurationError, EvaluationError


def test_direction_worked_example(bt):
    # At theta=0 the model output is 0, grad g(0) = 0, so the beta component
    # vanishes and theta moves toward the observed inner value.
    sample = (np.array([1.0]), np.array([1.0]))
    d_beta, d_theta = engine.compute_direction(
        bt.spec, np.array([0.0]), np.array([0.0, 0.0]), sample, gamma=2.0)
    assert d_beta == pytest.approx([0.0])
    assert d_theta == pytest.approx([2.0, 2.0])


def test_direction_requires_positive_gamma(bt):
    with pytest.raises(ConfigurationError):
        engine.compute_direction(bt.spec, np.array([0.0]), np.array([0.0, 0.0]),
                                 (np.array([0.0]), np.array([0.0])), 0.0)


def test_step_arithmetic(bt):
    # Step k of a run is z^{k+1} = z^k + tau_k d(z^k; x_k, y_k), with sample k
    # of the trajectory substream.
    cfg = RunConfig(gamma=2.0, alpha=0.3, n_iters=6, seed=4,
                    schedule=Schedule.ANYTIME, init_beta=[0.2],
                    init_theta=[0.1, -0.3])
    rec = engine.run(bt.spec, cfg)
    xs, ys = model.sample_stack(
        bt.spec, 6, seeding.substream(4, seeding.STREAM_TRAJECTORY))
    assert rec.betas[0].tolist() == [0.2]
    assert rec.thetas[0].tolist() == [0.1, -0.3]
    for k in range(6):
        d_beta, d_theta = engine.compute_direction(
            bt.spec, rec.betas[k], rec.thetas[k], (xs[k], ys[k]), 2.0)
        assert rec.betas[k + 1].tolist() == \
            (rec.betas[k] + rec.taus[k] * d_beta).tolist()
        assert rec.thetas[k + 1].tolist() == \
            (rec.thetas[k] + rec.taus[k] * d_theta).tolist()


def test_stepsize_schedules():
    assert engine.stepsizes(Schedule.FIXED_HORIZON, 16, 0.5).tolist() == \
        [0.5 / 4.0] * 16
    assert engine.stepsizes(Schedule.ANYTIME, 16, 0.5) == \
        pytest.approx([0.5 / np.sqrt(k + 1) for k in range(16)])


def test_stepsizes_equal_stepsize_bitwise():
    # The closed forms alpha/sqrt(N) and alpha/sqrt(k+1), to the last bit.
    for n in (1, 7, 1000):
        assert engine.stepsizes(Schedule.FIXED_HORIZON, n, 0.37).tolist() == \
            [0.37 / math.sqrt(n)] * n
        assert engine.stepsizes(Schedule.ANYTIME, n, 0.37).tolist() == \
            [0.37 / math.sqrt(k + 1) for k in range(n)]


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
    beta, theta = np.array([0.3]), np.array([0.1, 0.4])
    rng = seeding.substream(8, 1)
    xs, ys = model.sample_stack(bt.spec, 50, rng)
    stacked = engine.compute_direction(bt.spec, beta, theta, (xs, ys), 2.0)
    for i in range(50):
        d = engine.compute_direction(bt.spec, beta, theta, (xs[i], ys[i]), 2.0)
        assert stacked[0][i].tolist() == d[0].tolist()
        assert stacked[1][i].tolist() == d[1].tolist()


def test_run_shapes_and_taus(bt):
    cfg = RunConfig(gamma=1.0, alpha=0.1, n_iters=32, seed=11)
    rec = engine.run(bt.spec, cfg)
    assert rec.betas.shape == (33, 1)
    assert rec.thetas.shape == (33, 2)
    assert rec.taus == pytest.approx(np.full(32, 0.1 / np.sqrt(32)))
    assert 0 <= rec.stop_index < 32


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
    with pytest.raises(ConfigurationError, match=r"^init_beta: shape \(2,\)"):
        engine.run(bt.spec, RunConfig(gamma=1.0, alpha=0.1, n_iters=8,
                                      init_beta=[0.0, 0.0]))


@pytest.mark.parametrize("field, value", [
    ("gamma", float("nan")), ("gamma", float("inf")),
    ("alpha", float("nan")), ("alpha", float("inf")),
    ("init_beta", [float("nan")]), ("init_theta", [0.0, float("inf")]),
])
def test_run_config_rejects_non_finite_values(field, value):
    kwargs = dict(gamma=1.0, alpha=0.1, n_iters=8)
    kwargs[field] = value
    with pytest.raises(ConfigurationError, match=f"^{field} must be"):
        RunConfig(**kwargs)


def test_misshapen_draw_fails_before_any_evaluation(bt):
    # The sixth of eight draws has a y of length 2: the pre-draw rejects it
    # before step 0 evaluates anything.
    draws, calls = [], []
    base_sampler = bt.spec.sampler

    def sampler(rng):
        draws.append(None)
        x, y = base_sampler(rng)
        return (x, np.append(y, 0.0)) if len(draws) == 6 else (x, y)

    def counting(fn):
        def wrapped(*args):
            calls.append(fn)
            return fn(*args)
        return wrapped

    spec = dataclasses.replace(
        bt.spec, sampler=sampler, inner=counting(bt.spec.inner),
        model=counting(bt.spec.model), outer=counting(bt.spec.outer))
    with pytest.raises(ConfigurationError, match="^sampler drew x of shape "
                       r"\(1,\) and y of shape \(2,\), expected"):
        engine.run(spec, RunConfig(gamma=1.0, alpha=0.1, n_iters=8, seed=2))
    assert len(draws) == 6
    assert calls == []


def test_direction_is_unbiased_for_gamma_dir(bt):
    # The single-sample direction matches the enumerated expectation within
    # Monte Carlo error.
    beta, theta = np.array([0.3]), np.array([0.1, 0.4])
    gamma = 2.0
    exact = diagnostics.expected_direction_Gamma(bt.spec, beta, theta, gamma)
    rng = seeding.substream(9, 1)
    n = 4000
    dirs = np.concatenate(engine.compute_direction(
        bt.spec, beta, theta, model.sample_stack(bt.spec, n, rng), gamma), axis=1)
    mean = dirs.mean(axis=0)
    stderr = dirs.std(axis=0, ddof=1) / np.sqrt(n)
    target = np.concatenate(exact)
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
    # N + 1 states beta^0 .. beta^N, and N stepsizes tau_0 .. tau_{N-1}
    assert rec.betas.shape == (5, 1) and rec.thetas.shape == (5, 2)
    assert len(rec.taus) == 4
    assert rec.taus[2] == pytest.approx(0.1 / 2.0)


def test_initial_state_defaults_to_zeros_and_names_a_bad_vector(bt):
    beta, theta = engine.initial_state(bt.spec)
    assert beta.tolist() == [0.0] and theta.tolist() == [0.0, 0.0]
    beta, theta = engine.initial_state(bt.spec, [0.5], (1, 2))
    assert beta.tolist() == [0.5] and theta.tolist() == [1.0, 2.0]
    with pytest.raises(ConfigurationError, match=r"^run\.init_theta: shape "):
        engine.initial_state(bt.spec, None, [0.0], prefix="run.")
