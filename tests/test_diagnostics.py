"""Analytical diagnostics against independently derived frozen values.

The frozen decimals below come from evaluating the closed-form BT
expressions (two-point context, Bernoulli conditionals, pseudo-Huber outer)
directly, outside this package.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxopt import diagnostics, problems, seeding
from ctxopt.errors import CapabilityError, ConfigurationError

Z0 = (np.array([0.0]), np.array([0.0, 0.0]))

# Frozen independent-oracle values at z0 = (0, (0, 0)).
Q0 = 0.1325
G0 = 0.12022973214596366
DG0 = -0.4406468680819666
DELTA0_LAM1 = 0.25272973214596367
W0_LAM1 = 0.37295946429192733
GRADW_BETA_LAM1 = -1.4112937361639333
GRADW_THETA_LAM1 = (-0.9, -0.7)
GAMMA_THETA_UNIT = (0.45, 0.35)
BETA_STAR = 0.46611268761684205
G_STAR = 0.030366593387195495


def test_tracking_error_Q_frozen(bt):
    q, se = diagnostics.tracking_error_Q(bt.spec, *Z0)
    assert q == pytest.approx(Q0, abs=1e-14)
    assert se == 0.0


def test_value_and_grad_G_frozen(bt):
    g, se = diagnostics.value_G(bt.spec, Z0[0])
    assert g == pytest.approx(G0, abs=1e-14)
    grad, _ = diagnostics.grad_G(bt.spec, Z0[0])
    assert grad == pytest.approx([DG0], abs=1e-14)
    assert se == 0.0


def test_bregman_delta_and_W_frozen(bt):
    delta, w = diagnostics.bregman_delta_and_W(bt.spec, *Z0, lam=1.0)
    assert delta == pytest.approx(DELTA0_LAM1, abs=1e-14)
    assert w == pytest.approx(W0_LAM1, abs=1e-14)


def test_expected_direction_frozen(bt):
    d = diagnostics.expected_direction_Gamma(bt.spec, *Z0, gamma=1.0)
    assert d.d_beta == pytest.approx([0.0], abs=1e-14)
    assert d.d_theta == pytest.approx(GAMMA_THETA_UNIT, abs=1e-14)


def test_grad_W_frozen(bt):
    gb, gt = diagnostics.grad_W(bt.spec, *Z0, lam=1.0)
    assert gb == pytest.approx([GRADW_BETA_LAM1], abs=1e-14)
    assert gt == pytest.approx(GRADW_THETA_LAM1, abs=1e-14)


def test_minimize_scalar_G_frozen(bt):
    beta_star, g_star = diagnostics.minimize_scalar_G(bt.spec, 0.0, 1.0)
    assert beta_star == pytest.approx(BETA_STAR, abs=1e-9)
    assert g_star == pytest.approx(G_STAR, abs=1e-12)
    assert bt.g_min == pytest.approx(G_STAR, abs=1e-12)
    assert bt.g_min == g_star               # BT ships these bits


def _fd(fun, point, h=1e-6):
    point = np.asarray(point, float)
    grad = np.empty_like(point)
    for i in range(len(point)):
        e = np.zeros_like(point)
        e[i] = h
        grad[i] = (fun(point + e) - fun(point - e)) / (2 * h)
    return grad


def test_gradients_match_finite_differences(bt):
    rng = seeding.substream(13, 4)
    for _ in range(50):
        beta = rng.uniform(0, 1, 1)
        theta = rng.uniform(0, 1, 2)
        lam = rng.uniform(1.0, 5.0)

        g_exact, _ = diagnostics.grad_G(bt.spec, beta)
        g_fd = _fd(lambda b: diagnostics.value_G(bt.spec, b)[0], beta)
        assert np.linalg.norm(g_fd - g_exact) < 1e-5 * max(1, np.linalg.norm(g_exact))

        qb, qt = diagnostics.grad_Q(bt.spec, beta, theta)
        qb_fd = _fd(lambda b: diagnostics.tracking_error_Q(bt.spec, b, theta)[0], beta)
        qt_fd = _fd(lambda t: diagnostics.tracking_error_Q(bt.spec, beta, t)[0], theta)
        assert np.linalg.norm(qb_fd - qb) < 1e-5 * max(1, np.linalg.norm(qb))
        assert np.linalg.norm(qt_fd - qt) < 1e-5 * max(1, np.linalg.norm(qt))

        wb, wt = diagnostics.grad_W(bt.spec, beta, theta, lam)
        wb_fd = _fd(lambda b: diagnostics.bregman_delta_and_W(
            bt.spec, b, theta, lam)[1], beta)
        wt_fd = _fd(lambda t: diagnostics.bregman_delta_and_W(
            bt.spec, beta, t, lam)[1], theta)
        assert np.linalg.norm(wb_fd - wb) < 1e-5 * max(1, np.linalg.norm(wb))
        assert np.linalg.norm(wt_fd - wt) < 1e-5 * max(1, np.linalg.norm(wt))


def test_nonnegativity_invariants(bt):
    rng = seeding.substream(14, 4)
    for _ in range(100):
        beta = rng.uniform(-0.5, 1.5, 1)
        theta = rng.uniform(-0.5, 1.5, 2)
        q, _ = diagnostics.tracking_error_Q(bt.spec, beta, theta)
        assert q >= 0
        # lam >= L_hess_g = 1 keeps the Bregman gap nonnegative, so W >= G
        delta, w = diagnostics.bregman_delta_and_W(bt.spec, beta, theta, lam=1.0)
        g, _ = diagnostics.value_G(bt.spec, beta)
        assert delta >= -1e-14
        assert w >= g - 1e-14


def test_lojasiewicz_spot_check(bt, bt_estimated_ledger):
    m_hat = bt_estimated_ledger.M
    rng = seeding.substream(15, 4)
    for _ in range(10**4):
        beta = rng.uniform(0, 1, 1)
        theta = rng.uniform(0, 1, 2)
        q, _ = diagnostics.tracking_error_Q(bt.spec, beta, theta)
        _, gq_theta = diagnostics.grad_Q(bt.spec, beta, theta)
        assert q <= m_hat * float(gq_theta @ gq_theta) + 1e-12


def test_descent_check_under_compliant_constants(bt, bt_compliant):
    d = bt_compliant
    rng = seeding.substream(16, 4)
    for _ in range(20):
        beta = rng.uniform(0, 1, 1)
        theta = rng.uniform(0, 1, 2)
        lhs, rhs, passed = diagnostics.descent_check(
            bt.spec, beta, theta, d.gamma, d.lam, d.c1, d.c2)
        assert passed, f"descent violated: {lhs} > {rhs}"


def test_direction_moment_stats(bt):
    rng = seeding.substream(17, 4)
    c_d_sq, sigma_sq = diagnostics.direction_moment_stats(
        bt.spec, *Z0, gamma=1.0, n=20000, rng=rng)
    # mean direction is (0, 0.45, 0.35), so C_d^2 -> 0.325
    assert c_d_sq == pytest.approx(0.325, rel=0.05)
    assert sigma_sq > 0
    with pytest.raises(ConfigurationError):
        diagnostics.direction_moment_stats(bt.spec, *Z0, gamma=1.0, n=10,
                                           rng=rng)


def test_mc_mode_agrees_with_exact(bt):
    beta, theta = np.array([0.3]), np.array([0.2, 0.1])
    q_exact, _ = diagnostics.tracking_error_Q(bt.spec, beta, theta)
    rng = seeding.substream(18, 4)
    q_mc, se = diagnostics.tracking_error_Q(bt.spec, beta, theta, mode="mc",
                                            n_samples=20000, rng=rng)
    assert abs(q_mc - q_exact) <= 5 * se + 1e-12

    g_exact, _ = diagnostics.grad_G(bt.spec, beta)
    g_mc, g_se = diagnostics.grad_G(bt.spec, beta, mode="mc",
                                    n_samples=20000, rng=rng)
    assert np.all(np.abs(g_mc - g_exact) <= 5 * g_se + 1e-12)


def test_mc_mode_requires_oracle_and_rng(bt, lg):
    import dataclasses
    bare = dataclasses.replace(bt.spec, conditional_oracle=None, support=None)
    with pytest.raises(CapabilityError):
        diagnostics.tracking_error_Q(bare, *Z0)
    with pytest.raises(CapabilityError):
        diagnostics.tracking_error_Q(bare, *Z0, mode="mc",
                                     rng=seeding.substream(0, 0))
    with pytest.raises(ConfigurationError):
        diagnostics.tracking_error_Q(lg.spec, np.zeros(2), np.zeros(2),
                                     mode="mc", rng=None)


def test_support_enumeration_matches_oracle_path(bt):
    # Without the oracle, exact mode enumerates each conditional law of Y.
    enum = dataclasses.replace(bt.spec, conditional_oracle=None)
    rng = seeding.substream(19, 4)
    for _ in range(10):
        beta, theta = rng.uniform(0, 1, 1), rng.uniform(0, 1, 2)
        lam = rng.uniform(1.0, 5.0)
        pairs = [
            (diagnostics.tracking_error_Q, (beta, theta)),
            (diagnostics.value_G, (beta,)),
            (diagnostics.grad_G, (beta,)),
            (diagnostics.grad_Q, (beta, theta)),
            (diagnostics.bregman_delta_and_W, (beta, theta, lam)),
            (diagnostics.grad_W, (beta, theta, lam)),
        ]
        for fn, args in pairs:
            for a, b in zip(fn(enum, *args), fn(bt.spec, *args)):
                assert np.allclose(a, b, rtol=0, atol=1e-15), fn.__name__
        d_enum = diagnostics.expected_direction_Gamma(enum, beta, theta, 2.0)
        d_oracle = diagnostics.expected_direction_Gamma(bt.spec, beta, theta, 2.0)
        assert np.allclose(d_enum.d_beta, d_oracle.d_beta, rtol=0, atol=1e-15)
        assert np.allclose(d_enum.d_theta, d_oracle.d_theta, rtol=0, atol=1e-15)


def test_mc_mode_draws_one_sample_per_context(lg):
    calls = []

    def sampler(rng):
        calls.append(None)
        return lg.spec.sampler(rng)

    spec = dataclasses.replace(lg.spec, sampler=sampler)
    diagnostics.grad_G(spec, np.zeros(2), mode="mc", n_samples=300,
                       rng=seeding.substream(20, 4))
    assert len(calls) == 300


@pytest.mark.parametrize("short", [lambda x: x[:1], lambda x: x[0]],
                         ids=["length-1", "scalar"])
def test_short_sampler_draw_is_rejected(short):
    # A draw of the wrong shape must not broadcast over a row of contexts.
    lg3 = problems.make_linear_gaussian(3, seed=0)

    def sampler(rng):
        x, y = lg3.spec.sampler(rng)
        return short(x), y

    spec = dataclasses.replace(lg3.spec, sampler=sampler)
    rng = seeding.substream(21, 4)
    with pytest.raises(ConfigurationError, match="sampler drew x of shape"):
        diagnostics.tracking_error_Q(spec, np.zeros(3), np.zeros(3),
                                     mode="mc", n_samples=50, rng=rng)
    with pytest.raises(ConfigurationError, match="sampler drew x of shape"):
        diagnostics.direction_moment_stats(spec, np.zeros(3), np.zeros(3),
                                           1.0, 1000, rng)


def test_rate_fit_exact_power_laws():
    ns = [100, 400, 1600, 6400]
    slope, _, r2 = diagnostics.rate_fit([(n, 3.0 / np.sqrt(n)) for n in ns])
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0)
    slope, _, _ = diagnostics.rate_fit([(n, 2.0 / n) for n in ns])
    assert slope == pytest.approx(-1.0, abs=1e-12)


def test_rate_fit_excludes_nonpositive_with_warning():
    pts = [(100, 1.0), (400, 0.5), (1600, 0.25), (6400, -0.1)]
    with pytest.warns(UserWarning):
        slope, _, _ = diagnostics.rate_fit(pts)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(ConfigurationError):
        diagnostics.rate_fit([(100, 1.0), (100, 2.0)])


def test_make_report_bundles_values(bt):
    report = diagnostics.make_report(bt.spec, *Z0, gamma=1.0, lam=1.0,
                                     c1=2.24, c2=0.21875)
    assert report.mode == "exact"
    assert report.q_value == pytest.approx(Q0, abs=1e-14)
    assert report.v_value == pytest.approx(2.24 * Q0 + 0.21875 * DG0 ** 2,
                                           abs=1e-14)
    assert report.w_value == pytest.approx(W0_LAM1, abs=1e-14)


@given(q=st.floats(0, 100), lam=st.floats(0.1, 50),
       lf=st.floats(0.1, 10), eps=st.floats(1e-3, 2.0, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_young_split_with_tracking_term(q, lam, lf, eps):
    # the splitting a*b <= (eps/2)a^2 + b^2/(2 eps) with b = lam*Lf*sqrt(2Q)
    a = np.sqrt(q)
    b = lam * lf * np.sqrt(2 * q)
    assert a * b <= (eps / 2) * a * a + b * b / (2 * eps) + 1e-9 * (1 + a * b)


def _per_state(fn, *stacks):
    """fn at each state of the stacks, stacked along a new first axis."""
    rows = [fn(*state) for state in zip(*stacks)]
    return [np.array(column) for column in zip(*rows)]


@pytest.mark.parametrize("name, oracle", [("BT", True), ("BT", False),
                                          ("LIN", True)],
                         ids=["BT", "BT-enumerated", "LIN"])
def test_stacked_states_match_per_state_exact_diagnostics(name, oracle):
    spec = problems.by_name(name).spec
    if not oracle:
        spec = dataclasses.replace(spec, conditional_oracle=None)
    rng = seeding.substream(22, 4)
    betas, thetas = rng.uniform(0, 1, (7, 1)), rng.uniform(0, 1, (7, 2))
    calls = [
        (diagnostics.tracking_error_Q, (betas, thetas), ()),
        (diagnostics.grad_G, (betas,), ()),
        (diagnostics.Q_and_grad_Q, (betas, thetas), ()),
        (diagnostics.bregman_delta_and_W, (betas, thetas), (3.0,)),
    ]
    for fn, stacks, args in calls:
        rows = _per_state(lambda *state: fn(spec, *state, *args), *stacks)
        for out, expected in zip(fn(spec, *stacks, *args), rows):
            assert np.shape(out) == expected.shape
            assert np.asarray(out).tolist() == expected.tolist(), fn.__name__
    v = diagnostics.nonoptimality_V(spec, betas, thetas, 2.24, 0.21875)
    assert v.tolist() == [diagnostics.nonoptimality_V(spec, b, t, 2.24, 0.21875)
                          for b, t in zip(betas, thetas)]


def test_stacked_states_match_per_state_monte_carlo_diagnostics():
    # Every per-state call draws the same 500 contexts that the stacked call
    # shares; only the order of the context sums differs.
    spec = problems.by_name("LG(3)").spec
    rng = seeding.substream(22, 5)
    betas, thetas = rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (4, 3))

    def mc(fn, *state):
        return fn(spec, *state, mode="mc", n_samples=500,
                  rng=seeding.substream(22, 6))

    for fn, stacks in ((diagnostics.tracking_error_Q, (betas, thetas)),
                       (diagnostics.grad_G, (betas,)),
                       (diagnostics.Q_and_grad_Q, (betas, thetas))):
        for out, rows in zip(mc(fn, *stacks),
                             _per_state(lambda *s: mc(fn, *s), *stacks)):
            np.testing.assert_allclose(out, rows, rtol=1e-12, atol=1e-15)


def test_unbatched_diagnostics_return_floats(bt):
    q, se = diagnostics.tracking_error_Q(bt.spec, *Z0)
    assert type(q) is float and type(se) is float
    assert type(diagnostics.Q_and_grad_Q(bt.spec, *Z0)[0]) is float
    assert type(diagnostics.nonoptimality_V(bt.spec, *Z0, 1.0, 1.0)) is float
