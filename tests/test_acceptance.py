"""End-to-end acceptance suite.

Nine criteria: empirical O(1/sqrt(N)) rate, validity of the rate bound,
the Lyapunov descent inequality, the one-step recursion, gradient/oracle
consistency, direction unbiasedness and moment stability, the plain-SGD
reduction, both stopping laws, and the derived-constant arithmetic.

The rate sweep follows the pinned recipe (BT, gamma=20, fixed horizon,
alpha from the rate-bound minimizer, N in {2^10, 2^12, 2^14, 2^16}, 30
replications).  E[V(z^S)] is evaluated by averaging V over an evenly spaced
grid of trajectory states, which is the conditional expectation of V(z^S)
over the uniform stopping draw (up to grid discretization) and removes the
heavy-tailed noise a single S draw per replication would add; the estimand
is unchanged.  Each replication's grid is one stacked-state V evaluation.
"""

import math

import numpy as np
import pytest
from scipy import stats

from ctxopt import constants, diagnostics, engine, model, seeding
from ctxopt.engine import RunConfig, Schedule
from ctxopt.model import IterateState

from conftest import MASTER_SEED

GAMMA_RUN = 20.0
SWEEP = [1024, 4096, 16384, 65536]
REPLICATIONS = 30
SLOPE_BAND = (-0.65, -0.35)


@pytest.fixture(scope="module")
def pipeline(bt, bt_estimated_ledger, bt_compliant):
    """Estimated ledger, compliant weights, measured moments, tuned alpha."""
    d = bt_compliant
    _, _, l_w = constants.lipschitz_W(bt_estimated_ledger, d.lam)
    z0 = (np.zeros(1), np.zeros(2))
    rng = seeding.substream(MASTER_SEED, 7)
    c_d_sq, sigma_sq = diagnostics.direction_moment_stats(
        bt.spec, *z0, gamma=GAMMA_RUN, n=20000, rng=rng)
    _, w0 = diagnostics.bregman_delta_and_W(bt.spec, *z0, lam=d.lam)
    alpha = constants.optimal_alpha(l_w, math.sqrt(c_d_sq),
                                    math.sqrt(sigma_sq), w0, bt.g_min)
    return {"ledger": bt_estimated_ledger, "derived": d, "L_W": l_w,
            "c_d_sq": c_d_sq, "sigma_sq": sigma_sq, "w0": w0,
            "g_min": bt.g_min, "alpha": alpha}


@pytest.fixture(scope="module")
def sweep_means(bt, pipeline):
    """Per-N mean of E[V(z^S)] over the pinned replication sweep."""
    d = pipeline["derived"]
    alpha = pipeline["alpha"]
    means = {}
    for n in SWEEP:
        stride = max(1, n // 1024)
        per_rep = []
        for r in range(REPLICATIONS):
            seed = seeding.mix(MASTER_SEED, n, r)
            record = engine.run(bt.spec, RunConfig(
                gamma=GAMMA_RUN, alpha=alpha, n_iters=n, seed=seed))
            grid = slice(0, n, stride)
            vals = diagnostics.nonoptimality_V(
                bt.spec, record.betas[grid], record.thetas[grid], d.c1, d.c2)
            per_rep.append(float(np.mean(vals)))
        means[n] = float(np.mean(per_rep))
    return means


def test_criterion_1_rate_reproduction(sweep_means):
    slope, intercept, r2 = diagnostics.rate_fit(sorted(sweep_means.items()))
    ok = SLOPE_BAND[0] <= slope <= SLOPE_BAND[1] and r2 >= 0.9
    print(f"criterion 1 (rate): slope={slope:.4f} r2={r2:.4f} -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]
    assert r2 >= 0.9


def test_criterion_2_theorem_bound_validity(pipeline, sweep_means):
    c_d = math.sqrt(pipeline["c_d_sq"])
    sigma = math.sqrt(pipeline["sigma_sq"])
    ok = True
    for n, mean_v in sorted(sweep_means.items()):
        bound = constants.theorem_bound(pipeline["L_W"], c_d, sigma,
                                        pipeline["alpha"], n,
                                        pipeline["w0"], pipeline["g_min"])
        ok = ok and mean_v <= bound
        assert mean_v <= bound, f"N={n}: mean V {mean_v} exceeds bound {bound}"
    print(f"criterion 2 (bound validity): -> {'PASS' if ok else 'FAIL'}")


def test_criterion_3_descent_inequality(bt, bt_compliant):
    d = bt_compliant
    rng = seeding.substream(MASTER_SEED, 31)
    worst = -np.inf
    for _ in range(100):
        beta = rng.uniform(0, 1, 1)
        theta = rng.uniform(0, 1, 2)
        lhs, rhs, passed = diagnostics.descent_check(
            bt.spec, beta, theta, d.gamma, d.lam, d.c1, d.c2)
        worst = max(worst, lhs - rhs)
        assert passed, f"descent violated by {lhs - rhs}"
    print(f"criterion 3 (descent): worst lhs-rhs={worst:.3e} -> PASS")


def test_criterion_4_one_step_recursion(bt, pipeline):
    d = pipeline["derived"]
    tau = 0.01
    n_steps = 10**4
    probe_rng = seeding.substream(MASTER_SEED, 41)
    probes = [(probe_rng.uniform(0, 1, 1), probe_rng.uniform(0, 1, 2))
              for _ in range(20)]
    atoms = [(x, y, p) for x, y, p in bt.spec.support]

    # uniform direction second moment over the probes, exact by enumeration
    def second_moment(beta, theta):
        state = IterateState(beta, theta)
        total = 0.0
        for x, y, p in atoms:
            dd = engine.compute_direction(bt.spec, state, (x, y), d.gamma)
            total += p * (float(dd.d_beta @ dd.d_beta)
                          + float(dd.d_theta @ dd.d_theta))
        return total

    cd2_sig2 = max(second_moment(b, t) for b, t in probes)

    for i, (beta, theta) in enumerate(probes):
        state = IterateState(beta, theta)
        v = diagnostics.nonoptimality_V(bt.spec, beta, theta, d.c1, d.c2)
        _, w = diagnostics.bregman_delta_and_W(bt.spec, beta, theta, d.lam)
        # the four possible successors and their Lyapunov values
        w_next = {}
        for x, y, _ in atoms:
            dd = engine.compute_direction(bt.spec, state, (x, y), d.gamma)
            nxt = engine.step(state, dd, tau)
            _, w_next[(x[0], y[0])] = diagnostics.bregman_delta_and_W(
                bt.spec, nxt.beta, nxt.theta, d.lam)
        rng = seeding.substream(MASTER_SEED, 42, i)
        draws = np.array([w_next[(x[0], y[0])]
                          for x, y in (model.sample_joint(bt.spec, rng)
                                       for _ in range(n_steps))])
        mean_w = draws.mean()
        stderr = draws.std(ddof=1) / math.sqrt(n_steps)
        rhs = (w - tau * v + 0.5 * pipeline["L_W"] * tau ** 2 * cd2_sig2
               + 4 * stderr)
        assert mean_w <= rhs, f"probe {i}: {mean_w} > {rhs}"
    print("criterion 4 (one-step recursion): 20 probes -> PASS")


def test_criterion_5_gradient_and_oracle_consistency(bt):
    def fd(fun, point, h=1e-6):
        point = np.asarray(point, float)
        grad = np.empty_like(point)
        for i in range(len(point)):
            e = np.zeros_like(point)
            e[i] = h
            grad[i] = (fun(point + e) - fun(point - e)) / (2 * h)
        return grad

    rng = seeding.substream(MASTER_SEED, 51)
    for _ in range(50):
        beta = rng.uniform(0, 1, 1)
        theta = rng.uniform(0, 1, 2)
        lam = rng.uniform(1.0, 5.0)

        g, _ = diagnostics.grad_G(bt.spec, beta)
        err = np.linalg.norm(
            fd(lambda b: diagnostics.value_G(bt.spec, b)[0], beta) - g)
        assert err < 1e-5 * max(1, np.linalg.norm(g))

        wb, wt = diagnostics.grad_W(bt.spec, beta, theta, lam)
        err_b = np.linalg.norm(fd(
            lambda b: diagnostics.bregman_delta_and_W(bt.spec, b, theta, lam)[1],
            beta) - wb)
        err_t = np.linalg.norm(fd(
            lambda t: diagnostics.bregman_delta_and_W(bt.spec, beta, t, lam)[1],
            theta) - wt)
        assert err_b < 1e-5 * max(1, np.linalg.norm(wb))
        assert err_t < 1e-5 * max(1, np.linalg.norm(wt))

        _, qt = diagnostics.grad_Q(bt.spec, beta, theta)
        err_q = np.linalg.norm(fd(
            lambda t: diagnostics.tracking_error_Q(bt.spec, beta, t)[0],
            theta) - qt)
        assert err_q < 1e-5 * max(1, np.linalg.norm(qt))

    betas = [rng.uniform(0, 1, 1) for _ in range(50)]
    gap = model.oracle_consistency_check(bt.spec, betas)
    assert gap < 1e-10
    print(f"criterion 5 (gradient/oracle consistency): oracle gap={gap:.2e} "
          "-> PASS")


def test_criterion_6_direction_unbiasedness_and_moments(bt):
    rng = seeding.substream(MASTER_SEED, 61)
    n = 10**4
    for i in range(20):
        beta = rng.uniform(0, 1, 1)
        theta = rng.uniform(0, 1, 2)
        gamma = diagnostics.expected_direction_Gamma(bt.spec, beta, theta,
                                                     GAMMA_RUN)
        target = np.concatenate([gamma.d_beta, gamma.d_theta])
        state = IterateState(beta, theta)
        dirs = np.empty((n, 3))
        for j in range(n):
            dd = engine.compute_direction(
                bt.spec, state, model.sample_joint(bt.spec, rng), GAMMA_RUN)
            dirs[j, 0] = dd.d_beta[0]
            dirs[j, 1:] = dd.d_theta
        mean = dirs.mean(axis=0)
        stderr = dirs.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(mean - target) <= 4 * stderr + 1e-12), \
            f"probe {i}: bias {mean - target} vs stderr {stderr}"

    z0 = (np.zeros(1), np.zeros(2))
    m_small = diagnostics.direction_moment_stats(
        bt.spec, *z0, gamma=GAMMA_RUN, n=10000,
        rng=seeding.substream(MASTER_SEED, 62))
    m_large = diagnostics.direction_moment_stats(
        bt.spec, *z0, gamma=GAMMA_RUN, n=20000,
        rng=seeding.substream(MASTER_SEED, 63))
    ratio = sum(m_small) / sum(m_large)
    assert 0.9 <= ratio <= 1.1
    print(f"criterion 6 (unbiasedness/moments): ratio={ratio:.4f} -> PASS")


def test_criterion_7_plain_sgd_reduction(lin):
    n = 10**4
    alpha = 0.3
    seed = 31337
    record = engine.run(lin.spec, RunConfig(gamma=1.0, alpha=alpha,
                                            n_iters=n, seed=seed))
    # reference loop: plain SGD on E[(Y - beta)^2] with the same sample stream
    rng = seeding.substream(seed, seeding.STREAM_TRAJECTORY)
    tau = alpha / math.sqrt(n)
    beta = 0.0
    betas = [beta]
    for _ in range(n):
        _, y = lin.spec.sampler(rng)
        beta = beta + tau * (2.0 * (y[0] - beta))
        betas.append(beta)
    assert np.array_equal(record.betas[:, 0], np.array(betas))
    print("criterion 7 (SGD reduction): bitwise identical -> PASS")


def test_criterion_8_stopping_laws():
    n, draws = 64, 10**5
    rng = seeding.substream(MASTER_SEED, 81)
    fh = np.bincount([engine.draw_stop_index(Schedule.FIXED_HORIZON, n, 0.1,
                                             rng) for _ in range(draws)],
                     minlength=n)
    p_fh = stats.chisquare(fh).pvalue
    assert p_fh > 1e-3

    rng = seeding.substream(MASTER_SEED, 82)
    at = np.bincount([engine.draw_stop_index(Schedule.ANYTIME, n, 0.1, rng)
                      for _ in range(draws)], minlength=n)
    taus = 1.0 / np.sqrt(np.arange(1, n + 1))
    p_at = stats.chisquare(at, taus / taus.sum() * draws).pvalue
    assert p_at > 1e-3
    print(f"criterion 8 (stopping laws): p_uniform={p_fh:.3f} "
          f"p_tau={p_at:.3f} -> PASS")


def test_criterion_9_constants_arithmetic():
    ledger = constants.ConstantLedger(
        **{key: 1.0 for key in constants.LEDGER_KEYS})
    d = constants.derive(ledger, 3.0, 20.0)
    ok = (d.cap_C == 8.0 and d.epsilon == 1.5625 and d.c1 == 2.24
          and d.c2 == 0.21875 and d.L_W_beta == 18.0 and d.L_W_theta == 16.0
          and d.L_W == math.sqrt(580.0))
    print(f"criterion 9 (constants arithmetic): -> {'PASS' if ok else 'FAIL'}")
    assert ok
