"""Iteration mechanics: directions, stepsizes, stopping laws, determinism."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import stats

from ctxopt import diagnostics, engine, model, problems, seeding
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


@pytest.mark.parametrize("z0", ["zero", "nonzero"])
@pytest.mark.parametrize("schedule", list(Schedule), ids=lambda s: s.value)
@pytest.mark.parametrize("name", ["BT", "LIN", "LG(8)"])
def test_step_arithmetic(name, schedule, z0):
    # Step k of a run is z^{k+1} = z^k + tau_k d(z^k; x_k, y_k), with sample k
    # of the trajectory substream, to the bit: the run subtracts tau_k times
    # the descent gradient, and compute_direction returns it negated.  From a
    # zero z^0, BT's first directions hold signed zeros.
    spec, n = problems.by_name(name).spec, 64
    init = {} if z0 == "zero" else {
        "init_beta": np.resize([0.2], spec.dim_beta),
        "init_theta": np.resize([0.1, -0.3], spec.dim_theta)}
    rec = engine.run(spec, RunConfig(gamma=2.0, alpha=0.3, n_iters=n, seed=4,
                                     schedule=schedule, **init))
    xs, ys = model.sample_stack(spec, n, seeding.substream(4, seeding.STREAM_TRAJECTORY))
    beta0, theta0 = engine.initial_state(spec, **init)
    assert rec.betas[0].tobytes() == beta0.tobytes()
    assert rec.thetas[0].tobytes() == theta0.tobytes()
    for k in range(n):
        d_beta, d_theta = engine.compute_direction(
            spec, rec.betas[k], rec.thetas[k], (xs[k], ys[k]), 2.0)
        assert rec.betas[k + 1].tobytes() == \
            (rec.betas[k] + rec.taus[k] * d_beta).tobytes()
        assert rec.thetas[k + 1].tobytes() == \
            (rec.thetas[k] + rec.taus[k] * d_theta).tobytes()


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


# Each of the seven outputs of a step, by (evaluator, output): the text of
# its non-finite error, the offending input, and the text of its shape error.
# The outer value and Hessian feed no direction, and are checked all the same.
_XYB = "(array([0.]), array([1.]), array([0.]))"
_XT = "(array([0.]), array([0.02236068, 0.02236068]))"
_U = "array([0.02236068])"
BAD_STEP_OUTPUTS = {
    ("inner", 0): (f"inner produced a non-finite output array([nan]) at input {_XYB}",
                   _XYB, "f_value has shape (7,), expected (1,)"),
    ("inner", 1): ("inner gradient produced a non-finite output array([[nan]]) "
                   f"at input {_XYB}", _XYB,
                   "f_grad_beta has shape (7,), expected (1, 1)"),
    ("model", 0): (f"model produced a non-finite output array([nan]) at input {_XT}",
                   _XT, "psi_value has shape (7,), expected (1,)"),
    ("model", 1): ("model gradient produced a non-finite output array([[nan],\n"
                   f"       [nan]]) at input {_XT}", _XT,
                   "psi_grad_theta has shape (7,), expected (2, 1)"),
    ("outer", 0): (f"outer value non-finite at u={_U}", _U,
                   "g_value has shape (7,), expected ()"),
    ("outer", 1): (f"outer gradient produced a non-finite output array([nan]) "
                   f"at input {_U}", _U, "g_grad has shape (7,), expected (1,)"),
    ("outer", 2): (f"outer hessian produced a non-finite output array([[nan]]) "
                   f"at input {_U}", _U, "g_hess has shape (7,), expected (1, 1)"),
}


@pytest.mark.parametrize("bad", ["nan", "shape"])
@pytest.mark.parametrize("evaluator, output", sorted(BAD_STEP_OUTPUTS))
def test_a_bad_step_output_is_named(bt, evaluator, output, bad):
    # The output is made NaN or misshapen at the ninth call of its
    # evaluator, iteration 8 of the run.
    calls = {"inner": 0, "model": 0, "outer": 0}

    def counted(name):
        def wrapped(*args):
            calls[name] += 1
            outputs = list(getattr(bt.spec, name)(*args))
            if name == evaluator and calls[name] == 9:
                outputs[output] = (outputs[output] * np.nan if bad == "nan"
                                   else np.zeros(7))
            return tuple(outputs)
        return wrapped

    spec = dataclasses.replace(bt.spec, **{name: counted(name) for name in calls})
    with pytest.raises((ConfigurationError, EvaluationError)) as exc:
        engine.run(spec, RunConfig(gamma=1.0, alpha=0.1, n_iters=20, seed=2))
    nan_text, offending, shape_text = BAD_STEP_OUTPUTS[evaluator, output]
    if bad == "nan":
        assert type(exc.value) is EvaluationError
        assert str(exc.value) == f"evaluation failed at iteration 8: {nan_text}"
        assert exc.value.iteration == 8
        assert repr(exc.value.offending_input) == offending
    else:
        assert type(exc.value) is ConfigurationError
        assert str(exc.value) == shape_text
    # the failure is named from the outputs at hand: no evaluator runs again
    assert calls[evaluator] == 9
    # and outer never sees a psi that the checks reject
    if evaluator == "model":
        assert calls["outer"] == 8


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
    # a numpy integer N runs the same
    c = engine.run(bt.spec, dataclasses.replace(cfg, n_iters=np.int64(64)))
    assert np.array_equal(a.betas, c.betas) and a.stop_index == c.stop_index


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
    ("n_iters", 2.5), ("n_iters", "8"), ("n_iters", True),
])
def test_run_config_rejects_non_finite_values(field, value):
    kwargs = dict(gamma=1.0, alpha=0.1, n_iters=8)
    kwargs[field] = value
    with pytest.raises(ConfigurationError, match=f"^{field} must be"):
        RunConfig(**kwargs)


def test_a_schedule_name_runs_that_schedule(bt):
    # "FixedHorizon" steps alpha/sqrt(N), as the member does, not Anytime's
    # alpha/sqrt(k+1), and gives the member's record bit for bit.
    for schedule in Schedule:
        by_member = engine.run(bt.spec, RunConfig(gamma=1.0, alpha=0.1, n_iters=8,
                                                  schedule=schedule, seed=5))
        config = RunConfig(gamma=1.0, alpha=0.1, n_iters=8, schedule=schedule.value,
                           seed=5)
        assert config.schedule is schedule
        by_name = engine.run(bt.spec, config)
        for got, want in ((by_name.betas, by_member.betas),
                          (by_name.thetas, by_member.thetas),
                          (by_name.taus, by_member.taus)):
            assert got.tobytes() == want.tobytes()
        assert by_name.stop_index == by_member.stop_index
        assert engine.stepsizes(schedule.value, 8, 0.1).tobytes() == \
            by_member.taus.tobytes()
        assert engine.draw_stop_index(schedule.value, 8, 0.1, seeding.substream(5, 4)) \
            == engine.draw_stop_index(schedule, 8, 0.1, seeding.substream(5, 4))
    fixed = RunConfig(gamma=1.0, alpha=0.1, n_iters=8, schedule="FixedHorizon")
    assert engine.run(bt.spec, fixed).taus.tolist() == [0.1 / math.sqrt(8)] * 8


@pytest.mark.parametrize("call", [
    lambda: RunConfig(gamma=1.0, alpha=0.1, n_iters=8, schedule="Daily"),
    lambda: RunConfig(gamma=1.0, alpha=0.1, n_iters=8, schedule="fixedhorizon"),
    lambda: engine.stepsizes(42, 3, 1.0),
    lambda: engine.draw_stop_index(None, 3, 1.0, seeding.substream(1, 1)),
], ids=["unknown name", "lower case", "stepsizes", "draw_stop_index"])
def test_an_unknown_schedule_is_named(call):
    with pytest.raises(ConfigurationError, match="^schedule: .* is not one of "
                       r"\['FixedHorizon', 'Anytime'\]$"):
        call()


@pytest.mark.parametrize("field, value", [
    ("init_beta", "abc"), ("init_beta", {"a": 1}), ("init_theta", [[1], [2, 3]])],
    ids=["string", "dict", "ragged"])
def test_a_non_numeric_initial_vector_is_named(bt, field, value):
    with pytest.raises(ConfigurationError, match=f"^{field} must be a float vector: "):
        engine.run(bt.spec, RunConfig(gamma=1.0, alpha=0.1, n_iters=8, **{field: value}))


@pytest.mark.parametrize("prefix", ["", "run."])
def test_initial_state_names_a_non_numeric_vector(bt, prefix):
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(prefix)}init_beta must be a float vector: "):
        engine.initial_state(bt.spec, "x", prefix=prefix)
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(prefix)}init_theta must be a float vector: "):
        engine.initial_state(bt.spec, None, [[1], [2, 3]], prefix=prefix)


@pytest.mark.parametrize("prefix", ["", "run."])
def test_initial_state_names_a_non_finite_vector(bt, prefix):
    with pytest.raises(ConfigurationError,
                       match=rf"^{re.escape(prefix)}init_beta must be finite, got \[nan\]$"):
        engine.initial_state(bt.spec, [math.nan], prefix=prefix)


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


def test_a_list_draw_runs_as_the_array_draw(bt):
    # A draw of Python lists has no .shape: the draw check falls back to
    # np.shape, and the rows it fills hold the same floats.
    def sampler(rng):
        x, y = bt.spec.sampler(rng)
        return x.tolist(), y.tolist()

    cfg = RunConfig(gamma=2.0, alpha=0.2, n_iters=64, seed=123)
    a = engine.run(bt.spec, cfg)
    b = engine.run(dataclasses.replace(bt.spec, sampler=sampler), cfg)
    assert a.betas.tobytes() == b.betas.tobytes()
    assert a.thetas.tobytes() == b.thetas.tobytes()
    assert a.stop_index == b.stop_index


def test_a_bare_float_draw_fails_before_any_evaluation(bt):
    calls = []

    def sampler(rng):
        x, y = bt.spec.sampler(rng)
        return float(x[0]), y

    def counting(fn):
        def wrapped(*args):
            calls.append(fn)
            return fn(*args)
        return wrapped

    spec = dataclasses.replace(
        bt.spec, sampler=sampler, inner=counting(bt.spec.inner),
        model=counting(bt.spec.model), outer=counting(bt.spec.outer))
    with pytest.raises(ConfigurationError, match=r"^sampler drew x of shape \(\) and y "
                       r"of shape \(1,\), expected \(1,\) and \(1,\)$"):
        engine.run(spec, RunConfig(gamma=1.0, alpha=0.1, n_iters=8, seed=2))
    assert calls == []


@pytest.mark.parametrize("draw, named", [
    (lambda x, y: None, "None"),
    (lambda x, y: 0.5, "0.5"),
    (lambda x, y: (x, y, y), "tuple of length 3"),
    (lambda x, y: x, "ndarray of length 1"),
], ids=["none", "float", "triple", "one-element"])
def test_a_draw_that_is_not_a_pair_fails_before_any_evaluation(bt, draw, named):
    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(fn)
            return fn(*args)
        return wrapped

    spec = dataclasses.replace(
        bt.spec, sampler=lambda rng: draw(*bt.spec.sampler(rng)),
        inner=counting(bt.spec.inner), model=counting(bt.spec.model),
        outer=counting(bt.spec.outer))
    with pytest.raises(ConfigurationError, match=f"^sampler returned {re.escape(named)}, "
                       r"expected an \(x, y\) pair$"):
        engine.run(spec, RunConfig(gamma=1.0, alpha=0.1, n_iters=8, seed=2))
    assert calls == []


def test_a_wrong_number_of_step_outputs_names_the_evaluator(bt):
    def inner(x, y, beta):
        return (*bt.spec.inner(x, y, beta), None)

    with pytest.raises(ConfigurationError,
                       match="^inner returned 3 outputs, expected 2$"):
        engine.run(dataclasses.replace(bt.spec, inner=inner),
                   RunConfig(gamma=1.0, alpha=0.1, n_iters=8, seed=2))


@pytest.mark.parametrize("bare", [0.5, np.zeros(2)], ids=["float", "ndarray"])
def test_a_bare_step_output_names_the_evaluator(bt, bare):
    with pytest.raises(ConfigurationError, match=f"^inner returned {type(bare).__name__}, "
                       f"expected a tuple of 2 outputs$"):
        engine.run(dataclasses.replace(bt.spec, inner=lambda x, y, beta: bare),
                   RunConfig(gamma=1.0, alpha=0.1, n_iters=8, seed=2))


@pytest.mark.parametrize("output", ["abc", {"a": 1}], ids=["string", "dict"])
def test_a_non_numeric_step_output_names_the_evaluator(bt, output):
    with pytest.raises(ConfigurationError, match="^inner output f_grad_beta is "
                       "not a float array: "):
        engine.run(dataclasses.replace(bt.spec, inner=lambda x, y, beta: (np.zeros(1), output)),
                   RunConfig(gamma=1.0, alpha=0.1, n_iters=8, seed=2))


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
