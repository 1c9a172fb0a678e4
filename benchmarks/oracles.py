"""Reference computations for the benchmark's correctness checks.

Everything here is derived from the problem definitions on paper, not from
the package: closed forms for the BT and LG(n) fixtures, trajectory replays
that redo the single-sample iteration with plain floats, and the rate-bound
arithmetic.  Only numpy is used, plus ``ctxopt.seeding`` to derive the same
substream keys as the program (its splitmix64 reference vector is pinned by
the package's own tests).

BT (Bernoulli testbed): X ~ Bernoulli(1/2), Y | X=x ~ Bernoulli(p_x) with
p = {0: 0.2, 1: 0.7}; f = (y - beta)^2, psi = theta0 + theta1 x, and the
pseudo-Huber outer g(u) = sqrt(1 + u^2) - 1.  So F(x, beta) =
p_x (1 - beta)^2 + (1 - p_x) beta^2.

LG(n): X ~ N(0, I_n), Y = a.X + noise with a unit-norm a; f = y - beta.x,
psi = theta.x, same outer.  So F(x, beta) = (a - beta).x.
"""

from __future__ import annotations

import math

import numpy as np

from ctxopt import seeding

STREAM_TRAJECTORY = 1
STREAM_STOPPING = 2
BT_P = (0.2, 0.7)
MC_SAMPLES = 10000          # samples behind each Monte Carlo diagnostic

# BT ledger on the probe boxes beta in [0, 1], theta in [0, 1]^2.
# g' = u/sqrt(1+u^2) and g'' = (1+u^2)^(-3/2) peak at 1 (L_g at |u| -> inf,
# L_hess_g at u = 0).  |df/dbeta| = 2|y - beta| <= 2 with Lipschitz modulus 2,
# and |f| <= 1 on the box, for every sample.  grad psi = (1, x) is constant in
# theta, with E||(1, x)||^4 = (1 + 4)/2; sup |psi| = 1 + x, E(1 + x)^4 = 17/2.
# M is the supremum of Q / ||grad_theta Q||^2 for a two-point uniform
# context with an interpolating affine model.
BT_LEDGER = {
    "L_g": 1.0, "L_hess_g": 1.0,
    "Lbar_f": 2.0, "C_f": 1.0, "Lbar_grad_f": 2.0,
    "Lbar_psi": 2.5 ** 0.25, "C_psi": 8.5 ** 0.25, "Lbar_grad_psi": 0.0,
    "M": (3.0 + math.sqrt(5.0)) / 2.0,
}


def _g(u):
    return np.sqrt(1.0 + u * u) - 1.0


def _g_prime(u):
    return u / np.sqrt(1.0 + u * u)


# ------------------------------------------------------------------ replays

def stop_index(seed: int, n_iters: int) -> int:
    """Fixed-horizon stopping draw: uniform on {0..N-1} from stream 2."""
    return int(seeding.substream(seed, STREAM_STOPPING).integers(n_iters))


def bt_replay(seed: int, n_iters: int, gamma: float, alpha: float):
    """Redo the fixed-horizon BT iteration; returns betas (N+1,), thetas (N+1, 2).

    Each step draws two uniforms from stream 1: the first picks x, the second
    y given x.  The arithmetic follows the update rule term by term in
    float64, so it reproduces the program's trajectory to the last bit.
    """
    u = seeding.substream(seed, STREAM_TRAJECTORY).random(2 * n_iters).tolist()
    tau = alpha / math.sqrt(n_iters)
    b = t0 = t1 = 0.0
    betas = [b]
    thetas = [(t0, t1)]
    for k in range(n_iters):
        x = 1.0 if u[2 * k] < 0.5 else 0.0
        y = 1.0 if u[2 * k + 1] < BT_P[int(x)] else 0.0
        r = y - b
        f = r * r
        psi = t0 + t1 * x
        g_prime = psi / math.sqrt(1.0 + psi * psi)
        gap = f - psi
        b = b + tau * -((-2.0 * r) * g_prime)
        t0 = t0 + tau * (gamma * gap)
        t1 = t1 + tau * (gamma * (x * gap))
        betas.append(b)
        thetas.append((t0, t1))
    return np.array(betas), np.array(thetas)


def lg_vector(n_x: int, problem_seed: int = 0) -> np.ndarray:
    """The unit regression vector a of LG(n_x), from problem stream 101."""
    a = seeding.substream(problem_seed, 101).standard_normal(n_x)
    return a / np.linalg.norm(a)


def lg_replay(a: np.ndarray, seed: int, n_iters: int, gamma: float,
              alpha: float):
    """Redo the fixed-horizon LG iteration; returns betas, thetas (N+1, n).

    Each step draws n standard normals for x and one for the noise of y.
    """
    n_x = len(a)
    z = seeding.substream(seed, STREAM_TRAJECTORY).standard_normal(
        (n_iters, n_x + 1))
    tau = alpha / math.sqrt(n_iters)
    beta = np.zeros(n_x)
    theta = np.zeros(n_x)
    betas = np.empty((n_iters + 1, n_x))
    thetas = np.empty((n_iters + 1, n_x))
    betas[0], thetas[0] = beta, theta
    for k in range(n_iters):
        x = z[k, :n_x]
        f = a @ x + z[k, n_x] - beta @ x
        psi = theta @ x
        beta = beta + tau * (x * (psi / math.sqrt(1.0 + psi * psi)))
        theta = theta + tau * (gamma * (x * (f - psi)))
        betas[k + 1], thetas[k + 1] = beta, theta
    return betas, thetas


# ------------------------------------------------------------- closed forms

def bt_terms(betas, thetas):
    """Per-context F, dF/dbeta and psi for arrays of BT states; shape (2, m)."""
    b = np.asarray(betas, dtype=float).reshape(-1)
    th = np.asarray(thetas, dtype=float).reshape(-1, 2)
    p = np.array(BT_P)[:, None]
    F = p * (1.0 - b) ** 2 + (1.0 - p) * b * b
    dF = 2.0 * b - 2.0 * p
    psi = np.stack([th[:, 0], th[:, 0] + th[:, 1]])
    return F, dF, psi


def bt_Q_gradG(betas, thetas):
    """Exact Q and scalar grad G at BT states (each context has mass 1/2)."""
    F, dF, psi = bt_terms(betas, thetas)
    q = 0.25 * ((F - psi) ** 2).sum(axis=0)
    grad = 0.5 * (dF * _g_prime(F)).sum(axis=0)
    return q, grad


def bt_V(betas, thetas, c1, c2):
    q, grad = bt_Q_gradG(betas, thetas)
    return c1 * q + c2 * grad * grad


def bt_W(betas, thetas, lam):
    """Lyapunov value W = G + Delta^lambda at BT states."""
    F, _, psi = bt_terms(betas, thetas)
    gap = F - psi
    delta = _g(F) - _g(psi) - _g_prime(psi) * gap + 0.5 * lam * gap * gap
    return 0.5 * (_g(F) + delta).sum(axis=0)


def bt_G_min(tol=1e-13):
    """min over beta of G(beta) = E g(F(X, beta)), by golden-section search.

    G is convex (F is a convex quadratic in beta with F >= 0 and g is convex
    and increasing on [0, inf)), and its minimizer lies in [0, 1].
    """
    def G(b):
        F, _, _ = bt_terms([b], [[0.0, 0.0]])
        return float(0.5 * _g(F).sum())

    lo, hi = 0.0, 1.0
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > tol:
        m1 = hi - ratio * (hi - lo)
        m2 = lo + ratio * (hi - lo)
        if G(m1) < G(m2):
            hi = m2
        else:
            lo = m1
    return G(0.5 * (lo + hi))


def lg_Q(a, beta, theta):
    """Q = (1/2)||a - beta - theta||^2, since (a - beta - theta).X ~ N(0, .)."""
    v = np.asarray(a) - beta - theta
    return 0.5 * float(v @ v)


_GH_T, _GH_W = np.polynomial.hermite.hermgauss(200)


def gauss_expect(fun):
    """E[fun(Z)] for Z ~ N(0, 1) by 200-node Gauss-Hermite quadrature."""
    return float((_GH_W * fun(math.sqrt(2.0) * _GH_T)).sum() / math.sqrt(math.pi))


def lg_gradG(a, beta):
    """grad G = -(a - beta) E[(1 + ||a - beta||^2 Z^2)^(-3/2)] (Stein's lemma)."""
    v = np.asarray(a) - beta
    c2 = float(v @ v)
    return -v * gauss_expect(lambda z: (1.0 + c2 * z * z) ** -1.5)


def lg_gradG_sample_trace(a, beta):
    """Trace of the covariance of the per-sample gradient -X g'((a-beta).X).

    With Z the component of X along a - beta, ||X||^2 = Z^2 + (n - 1 other
    squared normals), independent of Z.
    """
    v = np.asarray(a) - beta
    c = math.sqrt(float(v @ v))
    n_x = len(v)
    second = gauss_expect(lambda z: (z * z + n_x - 1.0) * _g_prime(c * z) ** 2)
    mean = lg_gradG(a, beta)
    return second - float(mean @ mean)


# ------------------------------------------------- constants and the bound

def lipschitz_W(ledger: dict, lam: float) -> float:
    """L_W of the Lyapunov gradient, from the paper's appendix formula."""
    lg, lhg = ledger["L_g"], ledger["L_hess_g"]
    lf, cf, ldf = ledger["Lbar_f"], ledger["C_f"], ledger["Lbar_grad_f"]
    lp, cp, ldp = ledger["Lbar_psi"], ledger["C_psi"], ledger["Lbar_grad_psi"]
    l_beta = (lf ** 2 * lhg + lg * ldf
              + (lf ** 2 * lhg + 2.0 * lg * ldf + lf * lhg * lp)
              + lam * (lf ** 2 + ldf * cf + ldf * cp + lf * lp))
    l_theta = (lhg * (lp * lf + 2.0 * ldp * cf + lp ** 2)
               + lam * (lp * ldf + ldp * cf + lp ** 2 + ldp * cp))
    return math.hypot(l_beta, l_theta)


def optimal_alpha(l_w, c_d_sq, sigma_sq, w0, g_min) -> float:
    """Minimizer over alpha of the rate bound below."""
    return math.sqrt(2.0 * (w0 - g_min) / (l_w * (c_d_sq + sigma_sq)))


def rate_bound(l_w, c_d_sq, sigma_sq, alpha, n_iters, w0, g_min) -> float:
    """((L_W/2)(C_d^2 + sigma^2) alpha^2 + W0 - G_min) / (alpha sqrt N)."""
    return ((0.5 * l_w * (c_d_sq + sigma_sq) * alpha ** 2 + w0 - g_min)
            / (alpha * math.sqrt(n_iters)))


def loglog_fit(ns, values):
    """Least-squares slope and r^2 of log(values) against log(ns)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2
