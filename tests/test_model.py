"""Evaluator contracts: shapes, finiteness, enumeration, gradient checks."""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ctxopt import constants, diagnostics, engine, model, problems, seeding
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
    for dim_x in (1.5, "1", True, 0):
        with pytest.raises(ConfigurationError, match="^dim_x must be a positive integer"):
            dataclasses.replace(bt.spec, dim_x=dim_x)
    assert dataclasses.replace(bt.spec, dim_x=np.int64(1)).dim_x == 1


def test_support_probabilities_must_sum_to_one(bt):
    spec = bt.spec
    for bad, message in (
            ([(np.array([0.0]), np.array([0.0]), 0.5),
              (np.array([1.0]), np.array([0.0]), 0.4)], "^support probabilities sum to"),
            # NaN fails both p < 0 and |total - 1| > tol, so it needs its own test
            ([(np.array([0.0]), np.array([0.0]), np.nan),
              (np.array([1.0]), np.array([1.0]), 1.0)],
             "^support atom 0: probability nan, expected finite and >= 0$")):
        with pytest.raises(ConfigurationError, match=message):
            ProblemSpec(dim_x=1, dim_y=1, dim_beta=1, dim_theta=2, dim_f=1,
                        inner=spec.inner, outer=spec.outer, model=spec.model,
                        sampler=spec.sampler, support=bad)


@pytest.mark.parametrize("atom, message", [
    ((np.zeros(2), np.zeros(1), 0.5), r"x of shape \(2,\), expected \(1,\)"),
    ((np.zeros(1), np.zeros((1, 1)), 0.5), r"y of shape \(1, 1\), expected \(1,\)"),
    ((0.0, np.zeros(1), 0.5), r"x of shape \(\), expected \(1,\)"),
])
def test_a_misshapen_support_atom_is_named(bt, atom, message):
    support = [(np.zeros(1), np.ones(1), 0.5), atom]
    with pytest.raises(ConfigurationError, match=f"^support atom 1: {message}$"):
        dataclasses.replace(bt.spec, support=support)


def test_support_table_marginals_and_conditionals(bt):
    xs, p_x = bt.spec._exact[:2]
    assert xs.tolist() == [[0.0], [1.0]] and not xs.flags.writeable
    assert p_x == pytest.approx((0.5, 0.5))
    # f = (y - beta)^2 with y in {0, 1}: F(x, 0) = P(Y=1 | x), F(x, 1) = P(Y=0 | x)
    F, _ = model._support_F(bt.spec, np.array([[0.0], [1.0]]))
    assert F[..., 0] == pytest.approx(np.array([[0.2, 0.8], [0.7, 0.3]]))
    # a context of probability 0 is left out: it has no conditional law
    zero = dataclasses.replace(bt.spec, support=[
        *bt.spec.support, (np.array([2.0]), np.array([0.0]), 0.0)])
    assert zero._exact[0].tolist() == [[0.0], [1.0]]


def test_support_F_matches_oracle_at_stacked_betas(bt):
    xs = bt.spec._exact[0]
    betas = np.array([[0.0], [0.3], [0.9]])
    for x, beta in ((xs[:, None], betas), (xs, betas[1])):
        for oracle, enumerated in zip(model.conditional_oracle(bt.spec, x, beta),
                                      model._support_F(bt.spec, beta)):
            assert enumerated.shape == oracle.shape
            assert enumerated == pytest.approx(oracle, abs=1e-14)


def test_support_F_equals_a_per_atom_loop_bit_for_bit(bt):
    # The reference: one inner call per atom and state, each context's atoms
    # summed from 0 in support order, weighted by p / p_x.
    xs, p_x = bt.spec._exact[:2]
    betas = seeding.substream(3, 9).uniform(0, 1, (6, 1))
    stacked = model._support_F(bt.spec, betas)
    for i, x in enumerate(xs):
        for s, beta in enumerate(betas):
            sums = [0, 0]
            for atom_x, y, p in bt.spec.support:
                if atom_x.tolist() == x.tolist():
                    for k, out in enumerate(model.evaluate_inner(bt.spec, x, y, beta)):
                        sums[k] = sums[k] + p / p_x[i] * out
            for out, total in zip(stacked, sums):
                assert out[i, s].tolist() == total.tolist()


def test_oracle_consistency_check_small(bt):
    rng = seeding.substream(0, 99)
    betas = [rng.uniform(0, 1, 1) for _ in range(20)]
    assert model.oracle_consistency_check(bt.spec, betas) < 1e-10


@pytest.mark.parametrize("betas", [[], np.zeros((0, 1)), np.zeros(1)])
def test_oracle_consistency_check_needs_a_stack_of_betas(bt, betas):
    with pytest.raises(ConfigurationError, match="^betas must be a nonempty"):
        model.oracle_consistency_check(bt.spec, betas)


@pytest.mark.parametrize("n_probes", [0, -3, 2.5, True, "10"])
def test_finite_difference_check_needs_a_probe_count(bt, n_probes):
    with pytest.raises(ConfigurationError,
                       match=f"^n_probes must be a positive integer, got {n_probes!r}$"):
        model.finite_difference_check(bt.spec, n_probes, seeding.substream(7, 23))


@pytest.mark.parametrize("fixture", ["bt", "lin", "lg"])
def test_finite_difference_consistency(fixture, request):
    problem = request.getfixturevalue(fixture)
    rng = seeding.substream(7, 23)
    worst = model.finite_difference_check(problem.spec, 100, rng)
    for name, err in worst.items():
        assert err < 1e-5, f"{name} finite-difference error {err}"


def test_sampler_purity_and_law(bt):
    a = model.sample_stack(bt.spec, 50, seeding.substream(5, 1))
    b = model.sample_stack(bt.spec, 50, seeding.substream(5, 1))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert a[0].shape == (50, 1) and a[1].shape == (50, 1)
    assert set(a[0][:, 0]) <= {0.0, 1.0}


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
        model._support_F(bare, np.array([0.0]))
    with pytest.raises(CapabilityError):
        model.conditional_oracle(bare, np.array([0.0]), np.array([0.0]))


# numpy warns about the overflowing sum; the check itself must not raise.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_finite_output_whose_sum_overflows_passes(bt):
    # The cheap test sums the entries of a small output; a finite array whose
    # sum overflows must still pass through the entrywise check.
    def huge_grad(x, y, beta):
        return np.array([1.0]), np.array([[1e308], [1e308]])

    wide = dataclasses.replace(bt.spec, dim_beta=2, inner=huge_grad)
    _, grad = model.evaluate_inner(wide, np.array([0.0]), np.array([0.0]),
                                   np.array([0.0, 0.0]))
    assert grad.ravel().tolist() == [1e308, 1e308]


def test_a_large_finite_output_whose_squares_overflow_passes(bt):
    # Above the cut-off the cheap test is the sum of squares by np.vdot,
    # which overflows on entries near 1e200; the entrywise check passes them.
    n = 2 * model._SMALL
    huge = np.linspace(1e200, 2e200, n).reshape(n, 1, 1)
    assert huge.size > model._SMALL and not math.isfinite(np.vdot(huge, huge))
    spec = dataclasses.replace(
        bt.spec, inner=lambda x, y, beta: (np.ones((n, 1)), huge.copy()))
    _, grad = model.evaluate_inner(spec, np.zeros((n, 1)), np.zeros((n, 1)),
                                   np.array([0.0]))
    assert grad.tobytes() == huge.tobytes()


def test_a_small_output_whose_entries_sum_to_nan_is_named(bt):
    # inf + -inf is NaN: the cheap test of a small output sends it to the
    # entrywise check, which names it.
    assert math.isnan(sum([math.inf, -math.inf]))
    wide = dataclasses.replace(bt.spec, dim_beta=2, inner=lambda x, y, beta: (
        np.array([1.0]), np.array([[np.inf], [-np.inf]])))
    with pytest.raises(EvaluationError, match=r"^inner gradient produced a non-finite "
                       r"output array\(\[\[ inf\],\n +\[-inf\]\]\) at input "):
        model.evaluate_inner(wide, np.array([0.0]), np.array([0.0]), np.array([0.0, 0.0]))


def test_inf_and_minus_inf_in_two_outputs_of_one_gate_call_name_the_first(bt):
    # The inner gradient's inf and the model value's -inf meet in one sum of
    # the step's gate call: NaN sends it to the per-output pass, which names
    # the first offending output.
    spec = dataclasses.replace(
        bt.spec, inner=lambda x, y, beta: (np.array([1.0]), np.array([[np.inf]])),
        model=lambda x, theta: (np.array([-np.inf]), np.ones((2, 1))))
    with pytest.raises(EvaluationError, match=re.escape(
            "inner gradient produced a non-finite output array([[inf]]) at input "
            "(array([0.]), array([1.]), array([0.]))") + "$"):
        engine.compute_direction(spec, np.array([0.0]), np.array([0.0, 0.0]),
                                 (np.array([0.0]), np.array([1.0])), 2.0)


# numpy warns about the overflowing sum; the check itself must not raise.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_two_small_outputs_whose_entries_sum_past_the_largest_float_pass(bt):
    # Each output sums to 1e308; their one sum overflows, and the per-output
    # pass lets both through with their bits.
    spec = dataclasses.replace(
        bt.spec, inner=lambda x, y, beta: (np.array([1e308]), np.array([[1e308]])))
    outputs = model.evaluate_inner(spec, np.array([0.0]), np.array([0.0]),
                                   np.array([0.0]))
    assert [output.tobytes() for output in outputs] == \
        [np.array([1e308]).tobytes(), np.array([[1e308]]).tobytes()]


def test_nan_in_one_row_of_a_large_stack_names_the_inner_gradient(bt):
    # A stack of more rows than the cut-off takes the np.vdot test.
    n = 2 * model._SMALL

    def poisoned(x, y, beta):
        value, grad = bt.spec.inner(x, y, beta)
        grad = grad.copy()
        grad[5] = np.nan
        return value, grad

    xs = np.zeros((n, 1))
    with pytest.raises(EvaluationError, match="^inner gradient produced a non-finite "
                       "output ") as exc:
        model.evaluate_inner(dataclasses.replace(bt.spec, inner=poisoned), xs, xs,
                             np.array([0.25]))
    assert exc.value.offending_input[2].tolist() == [0.25]


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


@pytest.mark.parametrize("extra", [1, -1], ids=["one-too-many", "one-too-few"])
@pytest.mark.parametrize("evaluator", ["inner", "model", "outer", "conditional_oracle"])
def test_a_wrong_number_of_outputs_names_the_evaluator(bt, evaluator, extra):
    original = getattr(bt.spec, evaluator)

    def miscounted(*args):
        outputs = tuple(original(*args))
        return outputs + outputs[:1] if extra > 0 else outputs[:-1]

    spec = dataclasses.replace(bt.spec, **{evaluator: miscounted})
    x, beta = np.array([1.0]), np.array([0.3])
    calls = {
        "inner": lambda: model.evaluate_inner(spec, x, x, beta),
        "model": lambda: model.evaluate_model(spec, x, np.array([0.2, 0.4])),
        "outer": lambda: model.evaluate_outer(spec, x),
        "conditional_oracle": lambda: model.conditional_oracle(spec, x, beta),
    }
    expected = 3 if evaluator == "outer" else 2
    name = evaluator.replace("_", " ")
    with pytest.raises(ConfigurationError, match=f"^{name} returned "
                       f"{expected + extra} outputs, expected {expected}$"):
        calls[evaluator]()


@pytest.mark.parametrize("bare", [0.5, "zeros"], ids=["float", "ndarray"])
@pytest.mark.parametrize("evaluator", ["inner", "model", "outer", "conditional_oracle"])
def test_a_bare_output_names_the_evaluator(bt, evaluator, bare):
    expected = 3 if evaluator == "outer" else 2
    # an array of as many entries as outputs unpacks, but is still not a tuple
    value = np.zeros(expected) if bare == "zeros" else bare
    spec = dataclasses.replace(bt.spec, **{evaluator: lambda *args: value})
    x, beta = np.array([1.0]), np.array([0.3])
    calls = {
        "inner": lambda: model.evaluate_inner(spec, x, x, beta),
        "model": lambda: model.evaluate_model(spec, x, np.array([0.2, 0.4])),
        "outer": lambda: model.evaluate_outer(spec, x),
        "conditional_oracle": lambda: model.conditional_oracle(spec, x, beta),
    }
    name = evaluator.replace("_", " ")
    with pytest.raises(ConfigurationError, match=f"^{name} returned "
                       f"{type(value).__name__}, expected a tuple of {expected} outputs$"):
        calls[evaluator]()


@pytest.mark.parametrize("output", ["abc", {"a": 1}], ids=["string", "dict"])
def test_a_non_numeric_output_names_the_evaluator(bt, output):
    # numpy raises a ValueError for the string and a TypeError for the dict
    spec = dataclasses.replace(bt.spec, inner=lambda x, y, beta: (np.zeros(1), output))
    with pytest.raises(ConfigurationError, match="^inner output f_grad_beta is "
                       "not a float array: "):
        model.evaluate_inner(spec, np.ones(1), np.ones(1), np.array([0.3]))


def test_a_sampler_without_a_draw_count_names_the_contract(bt):
    spec = dataclasses.replace(bt.spec, sampler=lambda rng: bt.spec.sampler(rng))
    rng = seeding.substream(5, 1)
    state = rng.bit_generator.state
    with pytest.raises(ConfigurationError, match=r"^sampler takes no draw count: "
                       r"the contract is sampler\(rng\) for one draw and "
                       r"sampler\(rng, n\) for n draws"):
        model.sample_stack(spec, 10, rng)
    assert rng.bit_generator.state == state


def test_a_type_error_inside_the_sampler_is_not_caught(bt):
    def sampler(rng, n=None):
        raise TypeError("raised in the sampler")

    spec = dataclasses.replace(bt.spec, sampler=sampler)
    with pytest.raises(TypeError, match="^raised in the sampler$"):
        model.sample_stack(spec, 10, seeding.substream(5, 1))


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


# The argument gate: every entry point below checks an argument by a rule of
# model._RULES.  Each (entry point, bad value) case names its argument in a
# ConfigurationError; before the gate each one ran on, returned a value, or
# failed with a raw or differently worded error.  Where an entry point took
# some bad values already, only the others are listed.
_Z0 = (np.array([0.3]), np.array([0.2, 0.1]))
_FH = engine.Schedule.FIXED_HORIZON
_UNIT = constants.ConstantLedger(**dict.fromkeys(constants.LEDGER_KEYS, 1.0))
_BAD = {"count": (0, -1, 2.5, True, "3", math.nan, math.inf),
        "positive": (0, -1, True, "3", math.nan, math.inf),
        "real": ("3", None, True, [1.0]),
        "seed": (1.5, True, False, "a", None, math.nan),
        "generator": (None, 0, "rng")}
_TEXT = {"count": "a positive integer", "positive": "positive and finite",
         "real": "a real number", "seed": "an integer",
         "generator": r"a numpy\.random\.Generator"}
_GATED = [  # (entry point, argument, rule, call(spec, value), bad values)
    ("sample_stack", "n", "count",
     lambda spec, v: model.sample_stack(spec, v, seeding.substream(1, 2)), None),
    ("estimate_ledger", "sample_count", "count", lambda spec, v: constants.estimate_ledger(
        spec, sample_count=v, probe_count=10, rng=seeding.substream(1, 2)), None),
    ("estimate_ledger", "probe_count", "count", lambda spec, v: constants.estimate_ledger(
        spec, sample_count=10, probe_count=v, rng=seeding.substream(1, 2)), None),
    ("stepsizes", "n_iters", "count", lambda spec, v: engine.stepsizes(_FH, v, 0.5), None),
    ("stepsizes", "alpha", "positive", lambda spec, v: engine.stepsizes(_FH, 8, v), None),
    ("theorem_bound", "n_iters", "count",
     lambda spec, v: constants.theorem_bound(2.0, 1.0, 1.0, 1.0, v, 1.0, 0.0), None),
    ("theorem_bound", "alpha", "positive",
     lambda spec, v: constants.theorem_bound(2.0, 1.0, 1.0, v, 8, 1.0, 0.0), None),
    ("draw_stop_index", "n_iters", "count",
     lambda spec, v: engine.draw_stop_index(_FH, v, 0.5, seeding.substream(1, 2)), None),
    ("make_linear_gaussian", "n_x", "count",
     lambda spec, v: problems.make_linear_gaussian(v), None),
    ("ProblemSpec", "dim_x", "count",
     lambda spec, v: dataclasses.replace(spec, dim_x=v), (-1, math.nan, math.inf)),
    ("RunConfig", "gamma", "positive",
     lambda spec, v: engine.RunConfig(gamma=v, alpha=0.1, n_iters=8), (True, "3")),
    ("RunConfig", "alpha", "positive",
     lambda spec, v: engine.RunConfig(gamma=1.0, alpha=v, n_iters=8), (True, "3")),
    ("compute_direction", "gamma", "positive", lambda spec, v: engine.compute_direction(
        spec, *_Z0, (np.array([1.0]), np.array([0.0])), v), (True, "3")),
    ("nonoptimality_V", "c1", "positive",
     lambda spec, v: diagnostics.nonoptimality_V(spec, *_Z0, v, 1.0), (True, "3")),
    ("descent_check", "c2", "positive",
     lambda spec, v: diagnostics.descent_check(spec, *_Z0, 20.0, 3.0, 1.0, v), (True, "3")),
    ("descent_check", "gamma", "positive",
     lambda spec, v: diagnostics.descent_check(spec, *_Z0, v, 3.0, 1.0, 1.0), None),
    ("descent_check", "lam", "positive",
     lambda spec, v: diagnostics.descent_check(spec, *_Z0, 20.0, v, 1.0, 1.0), None),
    ("bregman_delta_and_W", "lam", "positive",
     lambda spec, v: diagnostics.bregman_delta_and_W(spec, *_Z0, v), None),
    ("grad_W", "lam", "positive", lambda spec, v: diagnostics.grad_W(spec, *_Z0, v), None),
    ("expected_direction_Gamma", "gamma", "positive",
     lambda spec, v: diagnostics.expected_direction_Gamma(spec, *_Z0, v), None),
    ("RunConfig", "seed", "seed",
     lambda spec, v: engine.RunConfig(gamma=1.0, alpha=0.1, n_iters=8, seed=v), None),
    ("make_linear_gaussian", "seed", "seed",
     lambda spec, v: problems.make_linear_gaussian(2, seed=v), None),
    ("sample_stack", "rng", "generator", lambda spec, v: model.sample_stack(spec, 3, v), None),
    ("direction_moment_stats", "rng", "generator",
     lambda spec, v: diagnostics.direction_moment_stats(spec, *_Z0, 20.0, 1000, v), None),
    ("estimate_ledger", "rng", "generator", lambda spec, v: constants.estimate_ledger(
        spec, sample_count=10, probe_count=10, rng=v), None),
    ("finite_difference_check", "rng", "generator",
     lambda spec, v: model.finite_difference_check(spec, 2, v), None),
    ("ConstantLedger", "L_g", "real",
     lambda spec, v: dataclasses.replace(_UNIT, L_g=v), None),
    ("ConstantLedger", "M", "real", lambda spec, v: dataclasses.replace(_UNIT, M=v), None),
    ("gamma_min", "lam", "real", lambda spec, v: constants.gamma_min(_UNIT, v), None),
    ("lipschitz_W", "lam", "real", lambda spec, v: constants.lipschitz_W(_UNIT, v), None),
    ("derive", "gamma", "real", lambda spec, v: constants.derive(_UNIT, 20.0, v), None),
]


@pytest.mark.parametrize("name, rule, call, value", [
    pytest.param(name, rule, call, value, id=f"{entry}-{name}-{value!r}")
    for entry, name, rule, call, values in _GATED for value in values or _BAD[rule]])
def test_a_bad_argument_is_named_by_the_gate(bt, name, rule, call, value):
    with pytest.raises(ConfigurationError, match=f"^{name} must be {_TEXT[rule]}, "
                                                 f"got {re.escape(repr(value))}$"):
        call(bt.spec, value)


def test_the_gate_accepts_python_and_numpy_scalars(bt):
    # Each pair of calls, with Python and with numpy scalars, gives equal values.
    i64, f64 = np.int64, np.float64
    pairs = [
        (lambda n, a: engine.stepsizes(engine.Schedule.ANYTIME, n, a), (16, 0.5),
         (i64(16), f64(0.5))),
        (lambda n, a: constants.theorem_bound(2.0, 1.0, 1.0, a, n, 1.0, 0.0), (8, 2),
         (i64(8), i64(2))),
        (lambda n, _: model.sample_stack(bt.spec, n, seeding.substream(1, 2)), (5, None),
         (i64(5), None)),
        (lambda g, lam: diagnostics.descent_check(bt.spec, *_Z0, g, lam, 2.24, 0.21875),
         (20.0, 3), (f64(20.0), i64(3))),
        (lambda _, lam: diagnostics.bregman_delta_and_W(bt.spec, *_Z0, lam), (None, 3.0),
         (None, np.float32(3.0))),
        (lambda g, a: engine.run(bt.spec, engine.RunConfig(g, a, n_iters=8)).betas,
         (2.0, 0.1), (f64(2.0), f64(0.1))),
    ]
    for call, plain, numpy_ in pairs:
        np.testing.assert_equal(call(*numpy_), call(*plain))
    assert dataclasses.replace(bt.spec, dim_x=np.int64(1)).dim_x == 1


def test_an_integer_seed_of_any_type_runs_that_seed(bt):
    # A numpy integer seed gives the Python integer's record and LG vector bit for bit.
    records = [engine.run(bt.spec, engine.RunConfig(2.0, 0.1, n_iters=16, seed=seed))
               for seed in (7, np.int64(7))]
    for name in ("betas", "thetas", "taus"):
        assert getattr(records[0], name).tobytes() == getattr(records[1], name).tobytes()
    assert records[0].stop_index == records[1].stop_index
    assert problems.make_linear_gaussian(2, seed=np.int64(2)).a.tobytes() == \
        problems.make_linear_gaussian(2, seed=2).a.tobytes()


def test_a_legacy_random_state_is_refused(bt):
    # BT's sampler would draw from a RandomState; the signatures name a Generator.
    with pytest.raises(ConfigurationError,
                       match=r"^rng must be a numpy\.random\.Generator, got RandomState"):
        model.sample_stack(bt.spec, 3, np.random.RandomState(0))


def test_the_argument_rules_are_written_once():
    # The texts of model._RULES appear nowhere else in the package: a second
    # copy of either would be a second rule.  Harness converters reuse them.
    package = Path(model.__file__).parent
    tree = ast.parse((package / "model.py").read_text())
    rules = next(node for node in tree.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "_RULES")
    inside = [("model.py", lineno) for lineno in range(rules.lineno, rules.end_lineno + 1)]
    for text in ("must be a positive integer", "must be positive and finite"):
        found = [(path.name, lineno) for path in sorted(package.glob("*.py"))
                 for lineno, line in enumerate(path.read_text().splitlines(), 1)
                 if text in line]
        assert len(found) == 1 and found[0] in inside, (text, found)
