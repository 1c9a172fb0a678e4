"""Built-in fixtures: laws, realizability, analytic constants."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ctxopt import diagnostics, model, problems, seeding
from ctxopt.errors import ConfigurationError, EvaluationError


def test_bt_conditional_expectation_values(bt):
    F0, _ = model.conditional_oracle(bt.spec, np.array([0.0]), np.array([0.0]))
    F1, _ = model.conditional_oracle(bt.spec, np.array([1.0]), np.array([0.0]))
    assert F0 == pytest.approx([0.2])
    assert F1 == pytest.approx([0.7])


def test_bt_realizing_theta():
    assert problems.theta_realizing(0.0) == pytest.approx([0.2, 0.5])
    # the affine model interpolates F at both contexts for any beta
    rng = seeding.substream(3, 3)
    for beta in rng.uniform(-1, 2, 20):
        theta = problems.theta_realizing(beta)
        for x in (0.0, 1.0):
            F, _ = problems._bt_oracle(np.array([x]), np.array([beta]))
            psi, _ = problems._affine_model(np.array([x]), theta)
            assert psi == pytest.approx(F, abs=1e-14)


def test_bt_realizing_theta_zeroes_Q(bt):
    for beta in (0.0, 0.37, 1.0):
        theta = problems.theta_realizing(beta)
        q, _ = diagnostics.tracking_error_Q(bt.spec, np.array([beta]), theta)
        assert q == pytest.approx(0.0, abs=1e-28)


def test_bt_analytic_ledger(bt):
    ledger = bt.ledger
    assert ledger.L_g == 1.0 and ledger.L_hess_g == 1.0
    assert ledger.Lbar_f == 2.0 and ledger.C_f == 1.0
    assert ledger.Lbar_psi == pytest.approx(2.5 ** 0.25)
    assert ledger.C_psi == pytest.approx(8.5 ** 0.25)
    assert ledger.M == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0)
    assert ledger.provenance["M"] == "analytic"


def test_bt_gradient_sign_change_brackets_minimum(bt):
    g0, _ = diagnostics.grad_G(bt.spec, np.array([0.0]))
    g1, _ = diagnostics.grad_G(bt.spec, np.array([1.0]))
    assert g0[0] < 0 < g1[0]
    assert bt.g_min is not None and 0 < bt.g_min < 0.1


def test_building_bt_leaves_scipy_unloaded():
    code = ("import sys; from ctxopt import problems; "
            "problems.make_bernoulli_testbed(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_lin_reduces_to_quadratic_objective(lin):
    # linear outer: grad G = 2 beta - 2 E[Y] with E[Y] = 0.45
    rng = seeding.substream(4, 3)
    for beta in rng.uniform(0, 1, 20):
        g, _ = diagnostics.grad_G(lin.spec, np.array([beta]))
        assert g[0] == pytest.approx(2 * beta - 0.9, abs=1e-12)
    g_min, _ = diagnostics.value_G(lin.spec, np.array([0.45]))
    assert g_min == pytest.approx(0.2475, abs=1e-14)
    assert lin.g_min == 0.2475
    assert lin.ledger.L_hess_g == 0.0


def test_lg_tracking_error_values(lg):
    a = lg.a
    # beta = a, theta = 0: F - psi vanishes sample-by-sample
    rng = seeding.substream(5, 3)
    q, _ = diagnostics.tracking_error_Q(lg.spec, a, np.zeros(2), mode="mc",
                                        n_samples=2000, rng=rng)
    assert q == pytest.approx(0.0, abs=1e-28)
    # beta = theta = 0: Q = 0.5 E (a^T X)^2 = 0.5 ||a||^2 = 0.5
    q, se = diagnostics.tracking_error_Q(lg.spec, np.zeros(2), np.zeros(2),
                                         mode="mc", n_samples=20000, rng=rng)
    assert abs(q - 0.5) <= 5 * se


def test_lg_stationary_at_realizable_optimum(lg):
    # F(x, a) = 0 and grad g(0) = 0, so every sampled gradient term vanishes
    rng = seeding.substream(6, 3)
    g, _ = diagnostics.grad_G(lg.spec, lg.a, mode="mc", n_samples=500, rng=rng)
    assert np.allclose(g, 0.0, atol=1e-15)


def test_lg_requires_positive_dimension():
    with pytest.raises(ConfigurationError):
        problems.make_linear_gaussian(0)


def test_lg_regression_vector_is_unit_norm_and_seeded():
    a1 = problems.make_linear_gaussian(5, seed=1).a
    a2 = problems.make_linear_gaussian(5, seed=1).a
    a3 = problems.make_linear_gaussian(5, seed=2).a
    assert np.linalg.norm(a1) == pytest.approx(1.0)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, a3)


def test_by_name_resolution():
    assert problems.by_name("BT").name == "BT"
    assert problems.by_name("bt").name == "BT"
    assert problems.by_name("LIN").name == "LIN"
    assert problems.by_name("LG(3)").spec.dim_x == 3
    assert problems.by_name("LG", n_x=4).spec.dim_beta == 4
    assert problems.by_name("lg(4)", n_x="4", seed="1").spec.dim_x == 4
    with pytest.raises(ConfigurationError):
        problems.by_name("NOPE")


@pytest.mark.parametrize("fixture", ["bt", "lin"])
def test_builtins_pass_oracle_consistency(fixture, request):
    problem = request.getfixturevalue(fixture)
    rng = seeding.substream(8, 3)
    betas = [rng.uniform(0, 1, 1) for _ in range(20)]
    assert model.oracle_consistency_check(problem.spec, betas) < 1e-10


def test_bt_oracle_rejects_contexts_outside_the_support(bt):
    xs = np.array([[0.0], [0.5], [1.0]])
    with pytest.raises(EvaluationError, match="^conditional oracle produced"):
        model.conditional_oracle(bt.spec, xs, np.array([0.3]))
