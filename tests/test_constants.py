"""Ledger arithmetic, derived constants, and numerical estimation."""

import collections
import dataclasses
import hashlib
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize, minimize_scalar, rosen

from ctxopt import constants, diagnostics, model, problems, seeding
from ctxopt.constants import ConstantLedger
from ctxopt.errors import (
    CapabilityError,
    ConfigurationError,
    DomainError,
    EvaluationError,
)


def ones_ledger(**overrides):
    values = {key: 1.0 for key in constants.LEDGER_KEYS}
    values.update(overrides)
    return ConstantLedger(**values)


def descent_weights(ledger, lam, gamma):
    """(cap_C, epsilon, c1, c2) of ``constants.derive``."""
    derived = constants.derive(ledger, lam, gamma)
    return derived.cap_C, derived.epsilon, derived.c1, derived.c2


def test_lambda_floor_worked_example():
    assert constants.lambda_floor(ones_ledger()) == 2.0


def test_gamma_min_worked_example():
    # lambda=3 on the all-ones ledger: (9/2 + 12) / (3 - 2) = 16.5
    assert constants.gamma_min(ones_ledger(), 3.0) == 16.5


@pytest.mark.parametrize("fixture, lam, g_min", [
    ("BT", 19.888111555889278, 250.16), ("LG(8)", 21.255, 112.94), ("LIN", 0.0, None)])
def test_best_lambda_minimises_gamma_min(fixture, lam, g_min):
    ledger = problems.by_name(fixture).ledger
    best = constants.best_lambda(ledger)
    assert best == pytest.approx(lam, abs=5e-4)
    if g_min is not None:
        assert constants.gamma_min(ledger, best) == pytest.approx(g_min, abs=5e-3)
        for step in (1e-6, 1e-3, 0.5):
            assert constants.gamma_min(ledger, best) <= min(
                constants.gamma_min(ledger, best * (1 - step)),
                constants.gamma_min(ledger, best * (1 + step)))


def test_best_lambda_matches_the_bounded_search(bt):
    floor = constants.lambda_floor(bt.ledger)
    search = minimize_scalar(lambda lam: constants.gamma_min(bt.ledger, lam),
                             bounds=(floor * 1.0001, floor * 50.0), method="bounded",
                             options={"xatol": 1e-10}).x
    assert constants.best_lambda(bt.ledger) == 19.888111555889278
    assert constants.best_lambda(bt.ledger) == pytest.approx(search, rel=1e-9)


def test_best_lambda_is_at_least_L_hess_g():
    # The stationary point is 0.257, below L_hess_g = 2, which gamma_min needs.
    ledger = ones_ledger(L_hess_g=2.0, M=1e-3)
    assert constants.best_lambda(ledger) == 2.0
    assert constants.gamma_min(ledger, 2.0) < constants.gamma_min(ledger, 2.1)


def test_best_lambda_needs_a_finite_M():
    with pytest.raises(DomainError, match=r"^lambda: M = inf leaves no finite default"):
        constants.best_lambda(ones_ledger(M=math.inf))


def test_gamma_min_rejects_lambda_at_floor():
    with pytest.raises(DomainError):
        constants.gamma_min(ones_ledger(), 2.0)


def test_an_infinite_M_admits_no_lambda_even_when_L_hess_g_is_zero():
    # 2*M*Lbar_psi^2*L_hess_g is inf*0 = NaN here, and lambda/M - 0 is 0.
    ledger = ones_ledger(M=math.inf, L_hess_g=0.0)
    assert constants.lambda_floor(ledger) == math.inf
    with pytest.raises(DomainError, match=r"^lambda=1\.0 does not exceed the floor "
                       r"\(lambda > 2\*M\*Lbar_psi\^2\*L_hess_g = inf and "
                       r"lambda >= L_hess_g = 0\)$"):
        constants.gamma_min(ledger, 1.0)


def test_descent_coefficients_worked_example():
    cap_C, eps, c1, c2 = descent_weights(ones_ledger(), 3.0, 20.0)
    assert cap_C == 8.0
    assert eps == 1.5625
    assert c1 == 2.24
    assert c2 == 0.21875


def test_descent_coefficients_boundary():
    with pytest.raises(DomainError, match=r"^gamma=16.5 violates the strict "
                       r"descent threshold .*\(requires gamma > 16.5\)$"):
        descent_weights(ones_ledger(), 3.0, 16.5)
    # just above the threshold is accepted and gives tiny positive weights
    cap_C, _, c1, c2 = descent_weights(ones_ledger(), 3.0, 16.5 + 1e-6)
    assert cap_C > 0 and c1 > 0 and c2 > 0


def test_derive_rejects_a_gamma_whose_C_rounds_to_the_threshold():
    # gamma is one ulp above gamma_min = 10.67, but C rounds to
    # lam^2*Lbar_f^2/2, which leaves epsilon no room below 2 (c2 would be 0).
    gamma = math.nextafter(constants.gamma_min(ones_ledger(), 8.0), math.inf)
    with pytest.raises(DomainError, match=r"^epsilon=2\.0 outside the open "
                       r"interval \(2\.0, 2\)$"):
        constants.derive(ones_ledger(), 8.0, gamma)


def test_lipschitz_W_worked_example():
    lwb, lwt, lw = constants.lipschitz_W(ones_ledger(), 3.0)
    assert lwb == 18.0
    assert lwt == 16.0
    assert lw == math.sqrt(580.0)


def test_lipschitz_W_requires_lambda_above_hessian_bound():
    for lam in (0.5, math.nan):
        with pytest.raises(DomainError,
                           match=f"^lambda: {lam} is below L_hess_g = 1$"):
            constants.lipschitz_W(ones_ledger(), lam)


def test_theorem_bound_worked_example():
    assert constants.theorem_bound(2.0, 1.0, 1.0, 1.0, 100, 1.0, 0.0) == \
        pytest.approx(0.3)


def test_optimal_alpha_minimizes_the_bound():
    args = (math.sqrt(580.0), 2.0, 3.0)
    alpha = constants.optimal_alpha(*args, 1.5, 0.1)
    best = constants.theorem_bound(*args, alpha, 1000, 1.5, 0.1)
    for scale in (0.5, 0.9, 1.1, 2.0):
        assert best <= constants.theorem_bound(*args, alpha * scale, 1000,
                                               1.5, 0.1)


@pytest.mark.parametrize("args", [
    (math.inf, 2.0, 3.0, 1.5, 0.1),         # L_W = inf: alpha = 0
    (2.0, 0.0, 0.0, 1.5, 0.1),              # no direction moment: alpha = inf
    (2.0, 2.0, 3.0, 0.1, 1.5),              # W0 below G_min
    (2.0, 2.0, 3.0, math.nan, 0.1)])
def test_optimal_alpha_rejects_a_non_positive_or_infinite_alpha(args):
    with pytest.raises(DomainError, match=r"^alpha: .* L_W = .*, C_d\^2 \+ "
                       r"sigma\^2 = .* and W0 - G_min = "):
        constants.optimal_alpha(*args)


def test_derive_bundles_everything():
    d = constants.derive(ones_ledger(), 3.0, 20.0)
    assert d.gamma_min == 16.5 and d.cap_C == 8.0
    assert d.c1 == 2.24 and d.c2 == 0.21875
    assert d.L_W == math.sqrt(580.0)
    assert set(d.as_dict()) == {"lambda", "gamma", "gamma_min", "epsilon",
                                "cap_C", "c1", "c2", "L_W_beta", "L_W_theta",
                                "L_W"}


def test_ledger_positivity_rules():
    with pytest.raises(ConfigurationError):
        ones_ledger(L_g=0.0)
    with pytest.raises(ConfigurationError):
        ones_ledger(M=-1.0)
    with pytest.raises(ConfigurationError,
                       match=r"^ledger entry L_hess_g=-1\.0 must be >= 0$"):
        ones_ledger(L_hess_g=-1.0)
    # gradient-Lipschitz entries may vanish (linear/affine evaluators)
    ledger = ones_ledger(L_hess_g=0.0, Lbar_grad_f=0.0, Lbar_grad_psi=0.0)
    assert ledger.L_hess_g == 0.0


def test_estimated_bt_ledger_matches_analytic(bt, bt_estimated_ledger):
    est, ana = bt_estimated_ledger, bt.ledger
    # suprema attained at box corners are exact; L_g saturates at the probe
    # box edge |u| = 100
    assert est.L_g == pytest.approx(ana.L_g, abs=1e-4)
    assert est.L_hess_g == ana.L_hess_g
    assert est.Lbar_f == ana.Lbar_f
    assert est.C_f == ana.C_f
    assert est.Lbar_grad_f == pytest.approx(ana.Lbar_grad_f)
    # fourth-moment entries carry Monte Carlo error
    assert est.Lbar_psi == pytest.approx(ana.Lbar_psi, rel=0.02)
    assert est.C_psi == pytest.approx(ana.C_psi, rel=0.02)
    assert est.Lbar_grad_psi == pytest.approx(ana.Lbar_grad_psi, abs=1e-9)
    assert est.M == pytest.approx(ana.M, rel=1e-6)
    assert not est.a4_violations
    assert est.provenance["Lbar_f"].startswith("estimated")


def test_estimate_ledger_needs_support(lg):
    rng = seeding.substream(0, 1)
    with pytest.raises(CapabilityError):
        constants.estimate_ledger(lg.spec, sample_count=100, probe_count=100,
                                  rng=rng)


def test_envelope_moments_match_the_per_sample_loop():
    # The per-sample loop that the batched helper replaced is the reference;
    # the evaluator rows come from one batched call, so only the envelope
    # arithmetic is compared, and it must agree bit for bit.
    rng = seeding.substream(5, 5)
    xs, ys = rng.standard_normal((300, 3)), rng.standard_normal((300, 1))

    def inner(beta):
        r = ys[:, 0] - xs @ beta
        return (np.stack([r * r, r], axis=-1),
                np.stack([-2.0 * r[:, None] * xs, -xs], axis=-1))

    betas = rng.uniform(-1.0, 1.0, (6, 3))
    betas[3] = betas[2]                     # a zero gap is skipped
    outputs = [inner(beta) for beta in betas]
    envelopes = np.zeros((3, len(xs)))
    for i in range(len(xs)):
        for a, (value, grad) in enumerate(outputs):
            envelopes[0, i] = max(envelopes[0, i], np.linalg.norm(grad[i]))
            envelopes[2, i] = max(envelopes[2, i], np.linalg.norm(value[i]))
            gap = np.linalg.norm(betas[a] - betas[a - 1])
            if a and gap > 1e-12:
                ratio = np.linalg.norm(grad[i] - outputs[a - 1][1][i]) / gap
                envelopes[1, i] = max(envelopes[1, i], ratio)
    expected = tuple(float(np.mean(e ** 4) ** 0.25) for e in envelopes)
    assert constants._envelope_moments(betas, inner) == expected


def _all_svd_maximum(stack):
    return float(np.max(np.linalg.norm(stack, ord=2, axis=(1, 2))))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_largest_operator_norm_is_the_all_svd_maximum(k):
    # Random symmetric matrices of mixed scales, each beside its negation, so
    # more than one matrix has a Frobenius norm that reaches the maximum and
    # the SVDs of several decide it.
    rng = seeding.substream(27, k)
    half = rng.standard_normal((1000, k, k)) * rng.uniform(0.1, 10.0, (1000, 1, 1))
    half = half + np.swapaxes(half, 1, 2)
    stack = np.concatenate([half, -half[::-1]])
    expected = _all_svd_maximum(stack)
    assert np.sum(np.linalg.norm(stack, axis=(1, 2)) >= expected) > 1
    assert float.hex(constants._largest_operator_norm(stack)) == float.hex(expected)


@pytest.mark.parametrize("stack", [
    np.repeat(np.array([[[2.0, -1.0, 0.5], [-1.0, 3.0, 0.0], [0.5, 0.0, -4.0]]]), 50, axis=0),
    np.zeros((50, 2, 2)),
], ids=["one-repeated-matrix", "all-zero"])
def test_largest_operator_norm_where_every_matrix_is_kept(stack):
    assert (float.hex(constants._largest_operator_norm(stack))
            == float.hex(_all_svd_maximum(stack)))


def test_estimated_L_hess_g_of_a_linear_outer_is_exactly_zero(lin):
    # LIN's Hessians are all zero: every one reaches the bound and is kept.
    ledger = constants.estimate_ledger(lin.spec, sample_count=500, probe_count=500,
                                      rng=seeding.substream(11, 3))
    assert float.hex(ledger.L_hess_g) == float.hex(0.0)


def test_estimate_ledger_fails_before_drawing_without_support(lg):
    calls = []

    def counting_sampler(rng):
        calls.append(1)
        return lg.spec.sampler(rng)

    spec = dataclasses.replace(lg.spec, sampler=counting_sampler)
    rng = seeding.substream(0, 1)
    state = rng.bit_generator.state
    with pytest.raises(CapabilityError, match="support enumeration"):
        constants.estimate_ledger(spec, sample_count=100, probe_count=100,
                                  rng=rng)
    assert calls == []
    assert rng.bit_generator.state == state


def test_estimate_ledger_names_a_nonfinite_inner(bt):
    def poisoned(x, y, beta):
        f_value, f_grad = bt.spec.inner(x, y, beta)
        f_value = np.array(f_value)
        f_value[3] = np.nan
        return f_value, f_grad

    spec = dataclasses.replace(bt.spec, inner=poisoned)
    with pytest.raises(EvaluationError, match="^inner produced a non-finite"):
        constants.estimate_ledger(spec, sample_count=20, probe_count=20,
                                  rng=seeding.substream(0, 1))


def test_estimate_ledger_names_a_sampler_of_the_wrong_shape(bt):
    # dim_x = 3 with a support, but the sampler draws x of length 1: an
    # (n, 1) stack would broadcast silently against the (n, 3) contexts.
    def sampler(rng, n=None):
        shape = (1,) if n is None else (n, 1)
        return rng.random(shape), np.ones(shape)

    spec = dataclasses.replace(
        bt.spec, dim_x=3, sampler=sampler,
        support=[(np.zeros(3), np.array([0.0]), 0.5),
                 (np.ones(3), np.array([1.0]), 0.5)])
    with pytest.raises(ConfigurationError, match=r"^sampler drew x of shape "
                       r"\(20, 1\) and y of shape \(20, 1\), expected "
                       r"\(20, 3\) and \(20, 1\)$"):
        constants.estimate_ledger(spec, sample_count=20, probe_count=20,
                                  rng=seeding.substream(0, 1))


def test_check_lambda_accepts_only_lambda_above_the_floor():
    constants.gamma_min(ones_ledger(), 2.5)
    for lam in (2.0, 1.0):
        with pytest.raises(DomainError, match="does not exceed the floor"):
            constants.gamma_min(ones_ledger(), lam)
    # L_hess_g = 2 and M tiny: the strict floor is met, lambda >= L_hess_g not
    with pytest.raises(DomainError, match="lambda >= L_hess_g = 2"):
        constants.gamma_min(ones_ledger(L_hess_g=2.0, M=1e-3), 1.5)


def test_estimate_ledger_validates_counts(bt):
    rng = seeding.substream(0, 1)
    with pytest.raises(ConfigurationError):
        constants.estimate_ledger(bt.spec, sample_count=0, probe_count=10,
                                  rng=rng)


@given(a=st.floats(0, 1e6), b=st.floats(0, 1e6),
       eps=st.floats(1e-6, 2.0, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_young_inequality_property(a, b, eps):
    # a*b <= (eps/2) a^2 + b^2 / (2 eps), the splitting behind (c1, c2)
    assert a * b <= (eps / 2.0) * a * a + b * b / (2.0 * eps) + 1e-9 * (1 + a * b)


@given(lam=st.floats(2.001, 50.0), scale=st.floats(1.001, 10.0))
@settings(max_examples=100, deadline=None)
def test_compliant_pairs_give_positive_weights(lam, scale):
    ledger = ones_ledger()
    gamma = scale * constants.gamma_min(ledger, lam)
    cap_C, eps, c1, c2 = descent_weights(ledger, lam, gamma)
    assert cap_C > 0 and 0 < eps < 2 and c1 > 0 and 0 < c2 < 1
    # c1 decomposes as C minus the Young remainder
    assert c1 == pytest.approx(cap_C - lam ** 2 / eps, rel=1e-12)


def test_probe_block_draw_equals_one_draw_per_probe():
    # estimate_ledger draws all A4 probes in one call; row k must be the
    # beta probe and then the theta probe of the k-th per-probe draw.
    beta_box, theta_box = (0.0, 1.0), (-3.0, 0.5)
    lows, highs = np.array([0.0, -3.0, -3.0]), np.array([1.0, 0.5, 0.5])
    block = seeding.substream(8, 1).uniform(lows, highs, (500, 3))
    rng = seeding.substream(8, 1)
    rows = [np.concatenate([rng.uniform(*beta_box, 1), rng.uniform(*theta_box, 2)])
            for _ in range(500)]
    assert block.tolist() == np.array(rows).tolist()


def _a4_violations_by_probe(spec, sample_count, probe_count, rng, beta_box,
                            theta_box):
    """The A4 violations of the one-probe-at-a-time loop, on the same draws."""
    constants._probe_box(rng, probe_count, -100.0, 100.0, spec.dim_f)
    for box, dim in ((beta_box, spec.dim_beta), (theta_box, spec.dim_theta)):
        constants._probe_box(rng, 14, *box, dim, include_zero=False)
    model.sample_stack(spec, sample_count, rng)
    violations = []
    for _ in range(probe_count):
        point = np.concatenate([rng.uniform(*beta_box, spec.dim_beta),
                                rng.uniform(*theta_box, spec.dim_theta)])
        q, _, gq_theta = diagnostics.Q_and_grad_Q(spec, point[:1], point[1:])
        denom = float(np.dot(gq_theta, gq_theta))
        if denom < 1e-14 and q > 1e-10:
            violations.append((point.tolist(), q, denom))
    return violations


def test_zero_theta_gradient_gives_infinite_M_with_the_probe_loop_violations(bt):
    # psi = theta_0 x (1 - x) has zero theta-gradient at the support contexts
    # 0 and 1, where A4 evaluates Q, so every probe with Q > 1e-10 violates
    # A4.  The sampler draws x in (0, 1), which keeps Lbar_psi positive.
    def bump_model(x, theta):
        w = (x * (1.0 - x))[..., 0]
        grad = np.zeros(np.broadcast_shapes(x.shape[:-1], theta.shape[:-1])
                        + (2, 1))
        grad[..., 0, 0] = w
        return (theta[..., 0] * w)[..., None], grad

    def sampler(rng, n=None):
        if n is None:
            return np.array([rng.random()]), np.array([float(rng.random() < 0.5)])
        u = rng.random((n, 2))
        return u[:, :1], (u[:, 1:] < 0.5) * 1.0

    spec = dataclasses.replace(bt.spec, model=bump_model, sampler=sampler)
    boxes = {"beta_box": (0.0, 1.0), "theta_box": (-1.0, 2.0)}
    ledger = constants.estimate_ledger(spec, 50, 200, seeding.substream(9, 2),
                                       **boxes)
    expected = _a4_violations_by_probe(spec, 50, 200, seeding.substream(9, 2),
                                       *boxes.values())
    assert ledger.M == math.inf
    assert ledger.provenance["M"] == f"a4-violation({len(expected)} probes)"
    assert len(expected) > 100
    assert [(p.tolist(), q, d) for p, q, d in ledger.a4_violations] == expected


def _constant_model(x, theta):
    lead = np.broadcast_shapes(x.shape[:-1], theta.shape[:-1])
    return (np.broadcast_to(theta[..., :1], lead + (1,)).copy(),
            np.ones(lead + (1, 1)))


@pytest.mark.parametrize("seed", [1, 3])
def test_a_misspecified_model_is_an_a4_violation_of_the_polish(bt, seed):
    # psi = theta_0 cannot fit both contexts: Q > 0 where grad_theta Q = 0,
    # so no finite M exists.  No random probe lands there (the probe loop
    # alone gave M = 8.6e10 at seed 3); the polish walks onto such points.
    spec = dataclasses.replace(bt.spec, model=_constant_model, dim_theta=1)
    ledger = constants.estimate_ledger(spec, 2000, 2000, seeding.substream(seed, 17),
                                       beta_box=bt.beta_box, theta_box=bt.theta_box)
    assert ledger.M == math.inf
    assert ledger.a4_violations
    assert ledger.provenance["M"] == f"a4-violation({len(ledger.a4_violations)} probes)"
    for point, q, denom in ledger.a4_violations:
        assert point.shape == (2,) and denom < 1e-14 and q > 1e-10
    assert len({point.tobytes() for point, _, _ in ledger.a4_violations}) == \
        len(ledger.a4_violations)


NELDER_MEAD = constants._nelder_mead
# The func calls of the port, in source order.
NELDER_MEAD_STEPS = ("simplex", "reflection", "expansion",
                     "outside contraction", "inside contraction", "shrink")


def _assert_port_matches_scipy(func, x0, maxiter, xatol, fatol, steps):
    """Run the port and scipy from ``x0`` and require equal bits and calls.

    Each call of the port is counted in ``steps`` under the step of its call
    site.  Returns the port's result and scipy's.
    """
    lines, first = inspect.getsourcelines(NELDER_MEAD)
    sites = [first + i for i, line in enumerate(lines) if "func(" in line]
    assert len(sites) == len(NELDER_MEAD_STEPS)
    step_at = dict(zip(sites, NELDER_MEAD_STEPS))
    calls = collections.Counter()

    def counted(x):
        calls[step_at[sys._getframe(1).f_lineno]] += 1
        return func(x)

    ours = NELDER_MEAD(counted, x0, maxiter, xatol, fatol)
    ref = minimize(func, x0, method="Nelder-Mead",
                   options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})
    assert float(ours).hex() == float(ref.fun).hex()
    assert sum(calls.values()) == ref.nfev
    steps.update(calls)
    return ours, ref


def test_nelder_mead_port_matches_scipy_bit_for_bit(bt, monkeypatch):
    steps = collections.Counter()

    # The A4 polish of estimate_ledger, from the best probe of each draw.
    starts = []

    def polish(func, x0, maxiter, xatol, fatol):
        starts.append(x0)
        return _assert_port_matches_scipy(func, x0, maxiter, xatol, fatol,
                                          steps)[0]

    monkeypatch.setattr(constants, "_nelder_mead", polish)
    for seed in range(5):
        for boxes in ({}, {"beta_box": (-2.0, 3.0), "theta_box": (-1.0, 2.0)}):
            constants.estimate_ledger(bt.spec, 300, 400,
                                      seeding.substream(seed, 17), **boxes)
    monkeypatch.undo()
    assert len(starts) == 10

    # Rosenbrock in 2-D and 3-D, stopped by maxiter (status 2) and by the
    # tolerances (status 0).
    for x0 in ([-1.2, 1.0], [0.0, 0.0], [2.0, -1.5], [-1.2, 1.0, 0.5],
               [0.0, 0.0, 0.0], [2.0, -1.5, 0.3]):
        for maxiter, status in ((30, 2), (5000, 0)):
            _, ref = _assert_port_matches_scipy(rosen, np.array(x0), maxiter,
                                                1e-12, 1e-14, steps)
            assert ref.status == status

    assert set(steps) == set(NELDER_MEAD_STEPS), steps


@pytest.mark.parametrize("ledger, lam", [
    (ones_ledger(), 1.0),                          # below the strict floor 2
    (ones_ledger(L_hess_g=2.0, M=1e-3), 1.5),      # above it, below L_hess_g
], ids=["strict-floor", "below-L_hess_g"])
def test_derive_judges_lambda_with_check_lambda_first(ledger, lam):
    with pytest.raises(DomainError, match="does not exceed the floor"):
        constants.derive(ledger, lam, 1e6)


# The float.hex of each field of derive, or the error's type and text, on
# the shipped ledgers over lambdas on both sides of each floor (BT's
# best_lambda among them) and gammas on both sides of each threshold.
DERIVE_GRID_SHA256 = "acacd4c60556ec0bb347c7a6c3ef8845717f35209379eeb7eff6b1775a5a2843"


def test_derive_keeps_its_bits_on_the_shipped_ledgers():
    def case(ledger, lam, gamma):
        try:
            derived = constants.derive(ledger, lam, gamma)
        except DomainError as exc:
            return f"{type(exc).__name__}: {exc}"
        return " ".join(float(v).hex() for v in derived.as_dict().values())

    lines = [case(problems.by_name(name).ledger, lam, gamma)
             for name in ("BT", "LG(8)", "LIN")
             for lam in (0.5, 3.0, 8.3, 19.888111555889278, 50.0, math.inf)
             for gamma in (20.0, 300.0, 1e4, math.nan)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DERIVE_GRID_SHA256


@pytest.mark.parametrize("verdict", ["does not exceed the floor",
                                     "violates the strict descent threshold"])
def test_each_compliance_verdict_is_written_once(verdict):
    package = Path(constants.__file__).parent
    assert sum(path.read_text().count(verdict)
               for path in package.glob("*.py")) == 1
