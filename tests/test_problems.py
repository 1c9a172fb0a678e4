"""Built-in fixtures: laws, realizability, analytic constants."""

import math
import os
import pickle
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


def _scipy_modules_after(code, *args):
    """The scipy modules loaded once ``code`` has run in a fresh process."""
    code = ("import sys; " + code + "; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout.strip()


def test_building_bt_leaves_scipy_unloaded():
    assert _scipy_modules_after("from ctxopt import problems; "
                                "problems.make_bernoulli_testbed()") == "[]"


def test_estimating_the_ledger_in_a_run_leaves_scipy_unloaded(tmp_path):
    config = ("problem.name = BT\nrun.gamma = 2\nrun.alpha = 0.05\nsweep = 4\n"
              "replications = 1\nlambda = 1\nc1 = 2.24\nc2 = 0.21875\n"
              f"ledger.estimate = true\noutput_dir = {tmp_path}\n")
    assert _scipy_modules_after(
        "from ctxopt import harness; "
        "harness.run_experiment(harness.parse_config(sys.argv[1]))",
        config) == "[]"
    manifest = (tmp_path / "manifest.jsonl").read_text()
    assert '"M": "estimated(n=10000)"' in manifest


@pytest.mark.parametrize("name", ["BT", "LIN", "LG(1)", "LG(2)", "LG(8)"])
def test_a_batched_draw_equals_one_draw_calls(name):
    spec = problems.by_name(name).spec
    for n in (1, 7, 2000):
        batched, single = seeding.substream(5, n), seeding.substream(5, n)
        xs, ys = spec.sampler(batched, n)
        draws = [spec.sampler(single) for _ in range(n)]
        assert {np.shape(v) for draw in draws for v in draw} == \
            ({(spec.dim_x,)} | {(spec.dim_y,)})
        assert xs.shape == (n, spec.dim_x) and ys.shape == (n, spec.dim_y)
        assert xs.tobytes() == np.array([x for x, _ in draws]).tobytes()
        assert ys.tobytes() == np.array([y for _, y in draws]).tobytes()
        assert batched.bit_generator.state == single.bit_generator.state


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


def test_lg_ships_G_min_zero(lg):
    # G(a) = 0 and g >= 0
    g, _ = diagnostics.value_G(lg.spec, lg.a, mode="mc", n_samples=500,
                               rng=seeding.substream(6, 4))
    assert lg.g_min == 0.0 and g == 0.0


def test_lg_evaluators_survive_pickling(lg):
    # A worker pool pickles the spec; its sampler and oracle keep their bits.
    spec = pickle.loads(pickle.dumps(lg.spec))
    draws = [model.sample_stack(s, 50, seeding.substream(7, 1)) for s in (lg.spec, spec)]
    assert [v.tobytes() for v in draws[0]] == [v.tobytes() for v in draws[1]]
    x, beta = draws[0][0], np.full(2, 0.3)
    assert [v.tobytes() for v in lg.spec.conditional_oracle(x, beta)] == \
        [v.tobytes() for v in spec.conditional_oracle(x, beta)]


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
    assert problems.by_name("LG").spec.dim_x == 2
    assert problems.by_name("LG(4)").spec.dim_beta == 4
    seeded = problems.by_name("lg(4)", seed="1")
    assert seeded.spec.dim_x == 4
    assert np.array_equal(seeded.a, problems.make_linear_gaussian(4, seed=1).a)
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


def test_lin_is_bt_with_a_linear_outer():
    bt, lin = problems.make_bernoulli_testbed(), problems.make_linear_outer()
    assert lin.ledger.as_dict() == dict(bt.ledger.as_dict(), L_hess_g=0.0)
    assert lin.ledger.provenance == bt.ledger.provenance
    assert lin.spec.outer is problems._linear_outer
    for attr in ("inner", "model", "sampler", "conditional_oracle"):
        assert getattr(lin.spec, attr) is getattr(bt.spec, attr)
    assert lin.spec.support is not None and (lin.beta_box, lin.theta_box) == (
        bt.beta_box, bt.theta_box)
