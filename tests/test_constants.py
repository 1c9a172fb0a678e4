"""Ledger arithmetic, derived constants, and numerical estimation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxopt import constants, diagnostics, model, seeding
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


def test_lambda_floor_worked_example():
    assert constants.lambda_floor(ones_ledger()) == 2.0


def test_gamma_min_worked_example():
    # lambda=3 on the all-ones ledger: (9/2 + 12) / (3 - 2) = 16.5
    assert constants.gamma_min(ones_ledger(), 3.0) == 16.5


def test_gamma_min_rejects_lambda_at_floor():
    with pytest.raises(DomainError):
        constants.gamma_min(ones_ledger(), 2.0)


def test_descent_coefficients_worked_example():
    cap_C, eps, c1, c2 = constants.descent_coefficients(ones_ledger(), 3.0, 20.0)
    assert cap_C == 8.0
    assert eps == 1.5625
    assert c1 == 2.24
    assert c2 == 0.21875


def test_descent_coefficients_boundary():
    with pytest.raises(DomainError):
        constants.descent_coefficients(ones_ledger(), 3.0, 16.5)
    # just above the threshold is accepted and gives tiny positive weights
    cap_C, _, c1, c2 = constants.descent_coefficients(ones_ledger(), 3.0,
                                                      16.5 + 1e-6)
    assert cap_C > 0 and c1 > 0 and c2 > 0


def test_epsilon_interval_enforced():
    with pytest.raises(DomainError):
        constants.descent_coefficients(ones_ledger(), 3.0, 20.0, epsilon=2.0)
    with pytest.raises(DomainError):
        constants.descent_coefficients(ones_ledger(), 3.0, 20.0, epsilon=1.125)


def test_lipschitz_W_worked_example():
    lwb, lwt, lw = constants.lipschitz_W(ones_ledger(), 3.0)
    assert lwb == 18.0
    assert lwt == 16.0
    assert lw == math.sqrt(580.0)


def test_lipschitz_W_requires_lambda_above_hessian_bound():
    with pytest.raises(DomainError):
        constants.lipschitz_W(ones_ledger(), 0.5)


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


def test_derive_bundles_everything():
    d = constants.derive(ones_ledger(), 3.0, 20.0)
    assert d.gamma_min == 16.5 and d.cap_C == 8.0
    assert d.c1 == 2.24 and d.c2 == 0.21875
    assert d.L_W == math.sqrt(580.0)
    assert set(d.as_dict()) == {"lambda", "gamma", "gamma_min", "epsilon",
                                "cap_C", "c1", "c2", "L_W_beta", "L_W_theta",
                                "L_W"}


def test_ledger_text_round_trip():
    ledger = ones_ledger(Lbar_f=2.0, M=2.5)
    again = ConstantLedger.from_text(ledger.to_text())
    assert again.as_dict() == ledger.as_dict()


def test_ledger_text_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigurationError):
        ConstantLedger.from_text("L_g = 1\nbogus = 2\n")
    with pytest.raises(ConfigurationError):
        ConstantLedger.from_text("L_g = 1\n")


def test_ledger_positivity_rules():
    with pytest.raises(ConfigurationError):
        ones_ledger(L_g=0.0)
    with pytest.raises(ConfigurationError):
        ones_ledger(M=-1.0)
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
    # dim_x = 3 with a support, but the sampler draws a length-1 x; a row
    # assignment into the (n, 3) sample stack would broadcast it silently.
    spec = dataclasses.replace(
        bt.spec, dim_x=3,
        sampler=lambda rng: (np.array([rng.random()]), np.array([1.0])),
        support=[(np.zeros(3), np.array([0.0]), 0.5),
                 (np.ones(3), np.array([1.0]), 0.5)])
    with pytest.raises(ConfigurationError, match="^sampler drew x of shape"):
        constants.estimate_ledger(spec, sample_count=20, probe_count=20,
                                  rng=seeding.substream(0, 1))


def test_check_lambda_accepts_only_lambda_above_the_floor():
    constants.check_lambda(ones_ledger(), 2.5)
    for lam in (2.0, 1.0):
        with pytest.raises(DomainError, match="does not exceed the floor"):
            constants.check_lambda(ones_ledger(), lam)
    # L_hess_g = 2 and M tiny: the strict floor is met, lambda >= L_hess_g not
    with pytest.raises(DomainError, match="lambda >= L_hess_g = 2"):
        constants.check_lambda(ones_ledger(L_hess_g=2.0, M=1e-3), 1.5)


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
    cap_C, eps, c1, c2 = constants.descent_coefficients(ledger, lam, gamma)
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

    def sampler(rng):
        return np.array([rng.random()]), np.array([float(rng.random() < 0.5)])

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
