"""End-to-end acceptance suite.

Nine criteria: empirical O(1/sqrt(N)) rate, validity of the rate bound,
the Lyapunov descent inequality, the one-step recursion, gradient/oracle
consistency, direction unbiasedness and moment stability, the plain-SGD
reduction, both stopping laws, and the derived-constant arithmetic.

Criteria 1 and 2 run the sweep that ``ctxopt run`` ships
(``harness.run_experiment``) on the pinned recipe: BT, gamma=20, fixed
horizon, ``run.alpha = auto`` (the rate-bound minimizer), the estimated
ledger, N in {2^10, 2^12, 2^14, 2^16}, 30 replications.  They read E[V(z^S)]
as summary.csv's ``mean_V_grid``: each replication averages V over an
evenly spaced grid of trajectory states, which is the conditional
expectation of V(z^S) over the uniform stopping draw (up to grid
discretization) and removes the heavy-tailed noise a single S draw per
replication would add; the estimand is unchanged.
"""

import math

import numpy as np
import pytest
from scipy import stats

from ctxopt import cli, constants, diagnostics, engine, harness, model, seeding
from ctxopt.engine import RunConfig, Schedule

from conftest import MASTER_SEED

GAMMA_RUN = 20.0
SWEEP = [1024, 4096, 16384, 65536]
REPLICATIONS = 30
SLOPE_BAND = (-0.65, -0.35)
# the sweep's per-N mean_V_grid as float.hex, pinned bit for bit
SWEEP_MEANS_HEX = {1024: "0x1.99025268a0ea9p+0", 4096: "0x1.a12cb93a903dep-1",
                   16384: "0x1.adf8148e745ffp-2", 65536: "0x1.bcf98440ae7c7p-3"}


@pytest.fixture(scope="module")
def sweep(bt_compliant, tmp_path_factory):
    """``harness.run_experiment`` on the pinned recipe and compliant weights."""
    d = bt_compliant
    out = tmp_path_factory.mktemp("sweep") / "out"
    text = (f"problem.name = BT\nrun.gamma = {GAMMA_RUN}\nrun.alpha = auto\n"
            f"run.seed = {MASTER_SEED}\nsweep = {','.join(map(str, SWEEP))}\n"
            f"replications = {REPLICATIONS}\nledger.estimate = true\n"
            f"lambda = {d.lam!r}\nc1 = {d.c1!r}\nc2 = {d.c2!r}\n"
            f"workers = 0\noutput_dir = {out}\n")
    result = harness.run_experiment(harness.parse_config(text))
    assert result["diverged"] == 0
    result["means"] = {row["N"]: row["mean_V_grid"]
                       for row in result["summary_rows"]}
    return result


def test_sweep_means_are_the_recorded_values(sweep):
    assert {n: float.hex(v) for n, v in sweep["means"].items()} == SWEEP_MEANS_HEX


def test_criterion_1_rate_reproduction(sweep):
    slope, intercept, r2 = diagnostics.rate_fit(sorted(sweep["means"].items()))
    ok = SLOPE_BAND[0] <= slope <= SLOPE_BAND[1] and r2 >= 0.9
    print(f"criterion 1 (rate): slope={slope:.4f} r2={r2:.4f} -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]
    assert r2 >= 0.9


def test_cli_rate_fits_the_sweep_summary(sweep, capsys):
    # ``ctxopt rate`` on the recipe's own summary fits criterion 1's estimand.
    assert cli.main(["rate", str(sweep["summary"])]) == 0
    assert "fitted    mean_V_grid\n" in capsys.readouterr().out


def test_criterion_2_theorem_bound_validity(sweep):
    _, _, l_w = constants.lipschitz_W(sweep["ledger"], sweep["lam"])
    c_d_sq, sigma_sq, w0, g_min = sweep["moments"]
    ok = True
    for n, mean_v in sorted(sweep["means"].items()):
        bound = constants.theorem_bound(l_w, math.sqrt(c_d_sq),
                                        math.sqrt(sigma_sq), sweep["alpha"], n,
                                        w0, g_min)
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


def test_criterion_4_one_step_recursion(bt, bt_estimated_ledger, bt_compliant):
    d = bt_compliant
    _, _, l_w = constants.lipschitz_W(bt_estimated_ledger, d.lam)
    tau = 0.01
    n_steps = 10**4
    probe_rng = seeding.substream(MASTER_SEED, 41)
    probes = [(probe_rng.uniform(0, 1, 1), probe_rng.uniform(0, 1, 2))
              for _ in range(20)]
    atoms = [(x, y, p) for x, y, p in bt.spec.support]

    # uniform direction second moment over the probes, exact by enumeration
    def second_moment(beta, theta):
        total = 0.0
        for x, y, p in atoms:
            d_beta, d_theta = engine.compute_direction(bt.spec, beta, theta,
                                                       (x, y), d.gamma)
            total += p * (float(d_beta @ d_beta) + float(d_theta @ d_theta))
        return total

    cd2_sig2 = max(second_moment(b, t) for b, t in probes)

    for i, (beta, theta) in enumerate(probes):
        v = diagnostics.nonoptimality_V(bt.spec, beta, theta, d.c1, d.c2)
        _, w = diagnostics.bregman_delta_and_W(bt.spec, beta, theta, d.lam)
        # the four possible successors and their Lyapunov values
        w_next = {}
        for x, y, _ in atoms:
            d_beta, d_theta = engine.compute_direction(bt.spec, beta, theta,
                                                       (x, y), d.gamma)
            _, w_next[(x[0], y[0])] = diagnostics.bregman_delta_and_W(
                bt.spec, beta + tau * d_beta, theta + tau * d_theta, d.lam)
        xs, ys = model.sample_stack(bt.spec, n_steps,
                                    seeding.substream(MASTER_SEED, 42, i))
        draws = np.array([w_next[key] for key in zip(xs[:, 0], ys[:, 0])])
        mean_w = draws.mean()
        stderr = draws.std(ddof=1) / math.sqrt(n_steps)
        rhs = (w - tau * v + 0.5 * l_w * tau ** 2 * cd2_sig2
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

        _, qt = diagnostics.Q_and_grad_Q(bt.spec, beta, theta)[1:]
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
        target = np.concatenate(diagnostics.expected_direction_Gamma(
            bt.spec, beta, theta, GAMMA_RUN))
        dirs = np.concatenate(engine.compute_direction(
            bt.spec, beta, theta, model.sample_stack(bt.spec, n, rng),
            GAMMA_RUN), axis=1)
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
