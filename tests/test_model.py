"""Evaluator contracts: shapes, finiteness, enumeration, gradient checks."""

import dataclasses

import numpy as np
import pytest

from ctxopt import model, problems, seeding
from ctxopt.errors import CapabilityError, ConfigurationError, EvaluationError
from ctxopt.model import ProblemSpec


def test_bt_inner_worked_example(bt):
    # f(x, y, beta) = (y - beta)^2 at y=1, beta=0.
    f, grad = model.evaluate_inner(bt.spec, np.array([0.0]), np.array([1.0]),
                                   np.array([0.0]))
    assert f == pytest.approx([1.0])
    assert grad.ravel() == pytest.approx([-2.0])


def test_bt_outer_pseudo_huber(bt):
    g, grad, hess = model.evaluate_outer(bt.spec, np.array([0.0]))
    assert g == 0.0 and grad == pytest.approx([0.0])
    assert hess.ravel() == pytest.approx([1.0])
    g, grad, _ = model.evaluate_outer(bt.spec, np.array([3.0]))
    assert g == pytest.approx(np.sqrt(10.0) - 1.0)
    assert grad == pytest.approx([3.0 / np.sqrt(10.0)])


def test_dimension_mismatch_rejected(bt):
    with pytest.raises(ConfigurationError):
        model.evaluate_inner(bt.spec, np.array([0.0, 1.0]), np.array([1.0]),
                             np.array([0.0]))
    with pytest.raises(ConfigurationError):
        model.evaluate_outer(bt.spec, np.array([0.0, 0.0]))
    with pytest.raises(ConfigurationError):
        model.evaluate_model(bt.spec, np.array([0.0]), np.array([0.0]))


def test_support_probabilities_must_sum_to_one(bt):
    bad = [(np.array([0.0]), np.array([0.0]), 0.5),
           (np.array([1.0]), np.array([0.0]), 0.4)]
    spec = bt.spec
    with pytest.raises(ConfigurationError):
        ProblemSpec(dim_x=1, dim_y=1, dim_beta=1, dim_theta=2, dim_f=1,
                    inner=spec.inner, outer=spec.outer, model=spec.model,
                    sampler=spec.sampler, support=bad)


def test_support_groups_marginals_and_conditionals(bt):
    groups = model.support_groups(bt.spec)
    assert len(groups) == 2
    by_x = {float(x[0]): (p_x, cond) for x, p_x, cond in groups}
    assert by_x[0.0][0] == pytest.approx(0.5)
    assert by_x[1.0][0] == pytest.approx(0.5)
    # conditional law of Y given X=1 is Bernoulli(0.7)
    cond = {float(y[0]): p for y, p in by_x[1.0][1]}
    assert cond[1.0] == pytest.approx(0.7)
    assert cond[0.0] == pytest.approx(0.3)


def test_enumerate_conditional_matches_oracle(bt):
    groups = model.support_groups(bt.spec)
    for beta in (np.array([0.0]), np.array([0.3]), np.array([0.9])):
        for x, _, cond in groups:
            F_o, G_o = model.conditional_oracle(bt.spec, x, beta)
            F_e, G_e = model.enumerate_conditional(bt.spec, x, beta, cond)
            assert F_o == pytest.approx(F_e, abs=1e-14)
            assert G_o == pytest.approx(G_e, abs=1e-14)


def test_oracle_consistency_check_small(bt):
    rng = seeding.substream(0, 99)
    betas = [rng.uniform(0, 1, 1) for _ in range(20)]
    assert model.oracle_consistency_check(bt.spec, betas) < 1e-10


@pytest.mark.parametrize("fixture", ["bt", "lin", "lg"])
def test_finite_difference_consistency(fixture, request):
    problem = request.getfixturevalue(fixture)
    rng = seeding.substream(7, 23)
    worst = model.finite_difference_check(problem.spec, 100, rng)
    for name, err in worst.items():
        assert err < 1e-5, f"{name} finite-difference error {err}"


def test_sampler_purity_and_law(bt):
    a = [model.sample_joint(bt.spec, seeding.substream(5, 1)) for _ in range(50)]
    b = [model.sample_joint(bt.spec, seeding.substream(5, 1)) for _ in range(50)]
    assert np.array_equal(a[0][0], b[0][0])
    xs = np.array([x[0] for x, _ in a])
    assert set(xs) <= {0.0, 1.0}


def test_nonfinite_output_raises_evaluation_error(bt):
    spec = bt.spec

    def bad_inner(x, y, beta):
        return np.array([np.nan]), np.array([[0.0]])

    broken = ProblemSpec(dim_x=1, dim_y=1, dim_beta=1, dim_theta=2, dim_f=1,
                         inner=bad_inner, outer=spec.outer, model=spec.model,
                         sampler=spec.sampler)
    with pytest.raises(EvaluationError) as exc:
        model.evaluate_inner(broken, np.array([0.0]), np.array([0.0]),
                             np.array([0.0]))
    assert exc.value.offending_input is not None


def test_missing_capabilities_raise(bt):
    spec = bt.spec
    bare = ProblemSpec(dim_x=1, dim_y=1, dim_beta=1, dim_theta=2, dim_f=1,
                       inner=spec.inner, outer=spec.outer, model=spec.model,
                       sampler=spec.sampler)
    assert not bare.has_support and not bare.has_oracle
    with pytest.raises(CapabilityError):
        model.support_groups(bare)
    with pytest.raises(CapabilityError):
        model.conditional_oracle(bare, np.array([0.0]), np.array([0.0]))


# numpy warns about the overflowing sum; the check itself must not raise.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_finite_output_whose_sum_overflows_passes(bt):
    # The cheap test sums the squares of the entries; a finite array whose
    # sum overflows must still pass through the entrywise check.
    def huge_grad(x, y, beta):
        return np.array([1.0]), np.array([[1e308], [1e308]])

    wide = dataclasses.replace(bt.spec, dim_beta=2, inner=huge_grad)
    _, grad = model.evaluate_inner(wide, np.array([0.0]), np.array([0.0]),
                                   np.array([0.0, 0.0]))
    assert grad.ravel().tolist() == [1e308, 1e308]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["value", "gradient"])
def test_each_nonfinite_entry_names_the_evaluator(bt, bad, where):
    def inner(x, y, beta):
        value, grad = np.array([0.5]), np.array([[1.0]])
        if where == "value":
            value[0] = bad
        else:
            grad[0, 0] = bad
        return value, grad

    inputs = (np.array([0.0]), np.array([1.0]), np.array([0.25]))
    name = "inner" if where == "value" else "inner gradient"
    with pytest.raises(EvaluationError, match=f"^{name} produced a non-finite"):
        model.evaluate_inner(dataclasses.replace(bt.spec, inner=inner), *inputs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_outer_value_raises(bt, bad):
    broken = dataclasses.replace(
        bt.spec, outer=lambda u: (bad, np.zeros(1), np.zeros((1, 1))))
    with pytest.raises(EvaluationError, match="^outer value non-finite") as exc:
        model.evaluate_outer(broken, np.array([0.5]))
    assert exc.value.offending_input.tolist() == [0.5]


def test_support_groups_are_built_once(bt):
    assert model.support_groups(bt.spec) is model.support_groups(bt.spec)


@pytest.mark.parametrize("name", ["BT", "LIN", "LG(1)", "LG(3)"])
def test_batched_evaluators_match_per_sample_calls(name):
    # Unbatched calls are the per-sample reference; with one context
    # dimension no dot product is longer than one element, so batched rows
    # match bit for bit; LG(3) batches through a matrix product.
    spec = problems.by_name(name).spec
    rng = seeding.substream(3, 5)
    xs, ys = model.sample_stack(spec, 6, rng)
    beta = rng.uniform(-1, 1, spec.dim_beta)
    theta = rng.uniform(-1, 1, spec.dim_theta)
    us = rng.uniform(-2, 2, (6, spec.dim_f))
    batched = {
        "inner": model.evaluate_inner(spec, xs, ys, beta),
        "model": model.evaluate_model(spec, xs, theta),
        "oracle": model.conditional_oracle(spec, xs, beta),
        "outer": model.evaluate_outer(spec, us),
    }
    single = {
        "inner": [model.evaluate_inner(spec, x, y, beta) for x, y in zip(xs, ys)],
        "model": [model.evaluate_model(spec, x, theta) for x in xs],
        "oracle": [model.conditional_oracle(spec, x, beta) for x in xs],
        "outer": [model.evaluate_outer(spec, u) for u in us],
    }
    for key, outputs in batched.items():
        for out, rows in zip(outputs, zip(*single[key])):
            assert out.shape == (6,) + np.shape(rows[0])
            if name == "LG(3)":
                np.testing.assert_allclose(out, np.array(rows), rtol=1e-15,
                                           atol=1e-15)
            else:
                assert out.tolist() == np.array(rows).tolist(), key


def test_batched_shape_mismatch_rejected(bt):
    xs = np.zeros((3, 1))
    with pytest.raises(ConfigurationError):
        model.evaluate_inner(bt.spec, xs, np.zeros((2, 1)), np.zeros(1))
    with pytest.raises(ConfigurationError):
        model.evaluate_model(bt.spec, np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ConfigurationError):
        model.evaluate_outer(bt.spec, np.zeros((3, 2)))
    # three contexts and two stacked states do not broadcast
    with pytest.raises(ConfigurationError, match="do not broadcast"):
        model.evaluate_model(bt.spec, xs, np.zeros((2, 2)))
    # an evaluator that ignores the batch axes fails its output shape check
    per_sample = dataclasses.replace(
        bt.spec, inner=lambda x, y, beta: (np.zeros(1), np.zeros((1, 1))))
    with pytest.raises(ConfigurationError, match="f_value has shape"):
        model.evaluate_inner(per_sample, xs, xs, np.zeros(1))


@pytest.mark.parametrize("evaluator, message", [
    ("inner", "^inner produced a non-finite"),
    ("model", "^model produced a non-finite"),
    ("conditional_oracle", "^conditional oracle produced a non-finite"),
    ("outer", "^outer value non-finite"),
])
def test_nan_in_one_row_names_the_evaluator(bt, evaluator, message):
    original = getattr(bt.spec, evaluator)

    def poisoned(*args):
        outputs = original(*args)
        value = np.array(outputs[0], dtype=float)
        value[1] = np.nan
        return (value,) + tuple(outputs[1:])

    spec = dataclasses.replace(bt.spec, **{evaluator: poisoned})
    xs = np.array([[0.0], [1.0], [1.0]])
    calls = {
        "inner": lambda: model.evaluate_inner(spec, xs, xs, np.array([0.3])),
        "model": lambda: model.evaluate_model(spec, xs, np.array([0.2, 0.4])),
        "conditional_oracle":
            lambda: model.conditional_oracle(spec, xs, np.array([0.3])),
        "outer": lambda: model.evaluate_outer(spec, xs),
    }
    with pytest.raises(EvaluationError, match=message) as exc:
        calls[evaluator]()
    assert exc.value.offending_input is not None


def test_list_inputs_match_array_inputs(bt):
    beta, theta = [0.3], [0.2, 0.4]
    pairs = [
        (model.evaluate_inner(bt.spec, [1.0], [0.0], beta),
         model.evaluate_inner(bt.spec, np.ones(1), np.zeros(1), np.array(beta))),
        (model.evaluate_model(bt.spec, [1.0], theta),
         model.evaluate_model(bt.spec, np.ones(1), np.array(theta))),
        (model.evaluate_outer(bt.spec, [0.5]),
         model.evaluate_outer(bt.spec, np.array([0.5]))),
        (model.conditional_oracle(bt.spec, [1.0], beta),
         model.conditional_oracle(bt.spec, np.ones(1), np.array(beta))),
    ]
    for from_lists, from_arrays in pairs:
        for a, b in zip(from_lists, from_arrays):
            assert np.array_equal(a, b)
    with pytest.raises(ConfigurationError):
        model.evaluate_inner(bt.spec, [1.0, 0.0], [0.0], beta)


def _state_calls(spec, xs, ys, betas, thetas):
    """Each state-taking evaluator over contexts ``xs`` and states."""
    return {
        "inner": model.evaluate_inner(spec, xs, ys, betas),
        "model": model.evaluate_model(spec, xs, thetas),
        "oracle": model.conditional_oracle(spec, xs, betas),
    }


@pytest.mark.parametrize("name", ["BT", "LIN", "LG(1)", "LG(3)"])
def test_stacked_states_match_per_state_calls(name):
    # Four contexts (axis 0) by five states (axis 1) in one call per
    # evaluator, against one call per context and state.  BT's oracle
    # squares by a product, so its rows agree bit for bit too.
    spec = problems.by_name(name).spec
    rng = seeding.substream(3, 6)
    xs, ys = model.sample_stack(spec, 4, rng)
    betas = rng.uniform(-1, 1, (5, spec.dim_beta))
    thetas = rng.uniform(-1, 1, (5, spec.dim_theta))
    stacked = _state_calls(spec, xs[:, None], ys[:, None], betas, thetas)
    for key, outputs in stacked.items():
        for i, (x, y) in enumerate(zip(xs, ys)):
            for s in range(5):
                single = _state_calls(spec, x, y, betas[s], thetas[s])[key]
                for out, row in zip(outputs, single):
                    assert out.shape == (4, 5) + row.shape
                    if name == "LG(3)":
                        np.testing.assert_allclose(out[i, s], row, rtol=1e-15,
                                                   atol=1e-15)
                    else:
                        assert out[i, s].tolist() == row.tolist(), key


@pytest.mark.parametrize("name", ["BT", "LG(3)"])
def test_contexts_and_states_broadcast(name):
    spec = problems.by_name(name).spec
    xs, ys = model.sample_stack(spec, 6, seeding.substream(3, 7))
    f, b, t = spec.dim_f, spec.dim_beta, spec.dim_theta
    # one context by 3 states, and (6, 1, 1) contexts by 2 x 3 states
    for x, y, lead in ((xs[0], ys[0], (3,)),
                       (xs[:, None, None], ys[:, None, None], (6, 2, 3))):
        betas, thetas = np.zeros(lead[-2:] + (b,)), np.zeros(lead[-2:] + (t,))
        shapes = [out.shape for out in (
            *model.evaluate_inner(spec, x, y, betas),
            *model.evaluate_model(spec, x, thetas),
            *model.conditional_oracle(spec, x, betas))]
        assert shapes == [lead + (f,), lead + (b, f), lead + (f,),
                          lead + (t, f), lead + (f,), lead + (b, f)]


def test_wrong_state_width_is_rejected(bt):
    xs = np.zeros((3, 1))
    with pytest.raises(ConfigurationError, match="^evaluate_inner: input dim"):
        model.evaluate_inner(bt.spec, xs, xs, np.zeros((3, 2)))
    with pytest.raises(ConfigurationError, match="^evaluate_model: input dim"):
        model.evaluate_model(bt.spec, xs, np.zeros((3, 1)))
    with pytest.raises(ConfigurationError, match="^conditional_oracle: input dim"):
        model.conditional_oracle(bt.spec, xs, np.zeros((4, 3)))


@pytest.mark.parametrize("evaluator, message", [
    ("inner", "^inner produced a non-finite"),
    ("model", "^model produced a non-finite"),
    ("conditional_oracle", "^conditional oracle produced a non-finite"),
])
def test_nan_in_one_states_row_names_the_evaluator(bt, evaluator, message):
    original = getattr(bt.spec, evaluator)

    def poisoned(*args):
        outputs = original(*args)
        value = np.array(outputs[0], dtype=float)
        value[:, 2] = np.nan                       # the third state's row
        return (value,) + tuple(outputs[1:])

    spec = dataclasses.replace(bt.spec, **{evaluator: poisoned})
    xs = np.array([[0.0], [1.0]])[:, None]
    betas, thetas = np.full((4, 1), 0.3), np.full((4, 2), 0.2)
    calls = {
        "inner": lambda: model.evaluate_inner(spec, xs, xs, betas),
        "model": lambda: model.evaluate_model(spec, xs, thetas),
        "conditional_oracle": lambda: model.conditional_oracle(spec, xs, betas),
    }
    with pytest.raises(EvaluationError, match=message) as exc:
        calls[evaluator]()
    assert exc.value.offending_input is not None


def test_bt_oracle_over_many_stacked_states_matches_per_state_calls(bt):
    # Over 10k states a float's ** 2 (C pow) would differ from the array
    # product in a few F values; BT's oracle squares by a product.
    betas = seeding.substream(3, 8).uniform(0, 1, (10000, 1))
    xs = np.array([[0.0], [1.0]])[:, None]
    F, F_grad = model.conditional_oracle(bt.spec, xs, betas)
    for i, x in enumerate(np.array([[0.0], [1.0]])):
        rows = [model.conditional_oracle(bt.spec, x, beta) for beta in betas]
        assert F[i].tolist() == [row[0].tolist() for row in rows]
        assert F_grad[i].tolist() == [row[1].tolist() for row in rows]
