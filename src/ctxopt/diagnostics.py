"""Analytical diagnostics: Q, grad G, V, the Lyapunov function, and checks.

Every diagnostic averages a per-context expression in F(x, beta),
psi(x, theta) and g over contexts x.  One context provider serves both
modes:

* ``"exact"`` takes the support's distinct contexts with their marginal
  probabilities p_x, grouped once when the problem is built, and averages by
  a p_x-weighted sum in support order.  It is the default for all
  verification work; standard errors are zero.
* ``"mc"`` draws n contexts, one sampler call each, and averages by the
  sample mean with its standard error.  It requires the conditional oracle
  for F, because Q, the Bregman gap, and the expected direction all contain F
  inside nonlinear expressions where a single-sample plug-in is biased.  A
  nested inner-sampling fallback is deliberately not provided: the whole
  point of the method is that conditional sampling is infeasible.

Each diagnostic calls each evaluator it needs once, over all the contexts
(see the evaluator contract in ``ctxopt.model``).  F comes from the
conditional oracle when the problem has one and otherwise from enumerating
the support's conditional laws.

The diagnostics also take stacks of states: ``beta`` of shape
(S, dim_beta) and ``theta`` of shape (S, dim_theta), or any batch shape
that broadcasts.  The contexts then sit on axis 0, ahead of the state axes,
every evaluator is still called once, and each value comes back as an array
with one entry (or row) per state.  All states share the same contexts, so
in Monte Carlo mode they share one draw.  Unbatched calls return the floats
and vectors of a single state.

Problems lacking both support and oracle admit engine-only runs with no
value diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .engine import Direction, IterateState, compute_direction
from .errors import CapabilityError, ConfigurationError
from .model import (
    ProblemSpec,
    _dot,
    _matvec,
    conditional_oracle,
    enumerate_conditional,
    evaluate_model,
    evaluate_outer,
    sample_stack,
    support_groups,
)

Array = np.ndarray


@dataclass
class DiagnosticsReport:
    """Snapshot of all analytical quantities at one point (beta, theta)."""

    q_value: float
    q_stderr: float
    grad_G: Array
    grad_G_stderr: Array
    v_value: float
    delta_lambda: float
    w_value: float
    gamma_dir: Direction
    mode: str


def _contexts(problem: ProblemSpec, mode, n_samples, rng, *states):
    """The context points of ``mode`` and the average over them.

    Returns (xs, average).  xs has the n contexts on axis 0 and one unit
    axis for each batch axis of the ``states``, so that evaluator outputs
    lead with n and then the state batch shape; ``average`` maps values
    stacked that way to (mean, stderr) over axis 0.
    """
    if mode == "exact":
        if not problem.has_support:
            raise CapabilityError("exact mode requires a support enumeration")
        groups = support_groups(problem)
        xs = np.array([x for x, _, _ in groups])
        p_x = [p for _, p, _ in groups]

        def average(values):
            total = sum(p * v for p, v in zip(p_x, values))
            return total, np.zeros(np.shape(total))
    else:
        if not problem.has_oracle:
            raise CapabilityError("Monte Carlo diagnostics require a conditional oracle for F")
        if rng is None:
            raise ConfigurationError("Monte Carlo mode needs an rng")
        if n_samples < 1:
            raise ConfigurationError("n_samples must be positive")
        xs, average = sample_stack(problem, n_samples, rng)[0], _mean_stderr
    state_axes = max(map(np.ndim, states)) - 1
    if state_axes > 0:
        xs = xs.reshape(xs.shape[:1] + (1,) * state_axes + xs.shape[1:])
    return xs, average


def _F(problem: ProblemSpec, xs, beta):
    """F(x, beta) and its beta-gradient at every context of ``xs``.

    Without a conditional oracle the contexts are the support groups.
    """
    if problem.has_oracle:
        return conditional_oracle(problem, xs, beta)
    F, F_grad = zip(*(enumerate_conditional(problem, x, beta, cond)
                      for x, _, cond in support_groups(problem)))
    return np.array(F), np.array(F_grad)


def _float(value):
    """A Python float for a single state's value, else the per-state array."""
    return float(value) if value.ndim == 0 else value


def _mean_stderr(values):
    n = values.shape[0]
    mean = values.mean(axis=0)
    stderr = values.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(mean)
    return mean, stderr


def tracking_error_Q(problem: ProblemSpec, beta, theta, mode="exact",
                     n_samples=10000, rng=None):
    """Mean squared model gap Q = (1/2) E ||F(X,beta) - psi(X,theta)||^2."""
    xs, average = _contexts(problem, mode, n_samples, rng, beta, theta)
    gap = _F(problem, xs, beta)[0] - evaluate_model(problem, xs, theta)[0]
    q, stderr = average(0.5 * (gap * gap).sum(axis=-1))
    return _float(q), _float(stderr)


def value_G(problem: ProblemSpec, beta, mode="exact", n_samples=10000, rng=None):
    """Objective value G(beta) = E[g(F(X, beta))]."""
    xs, average = _contexts(problem, mode, n_samples, rng, beta)
    g, stderr = average(evaluate_outer(problem, _F(problem, xs, beta)[0])[0])
    return _float(g), _float(stderr)


def grad_G(problem: ProblemSpec, beta, mode="exact", n_samples=10000, rng=None):
    """Objective gradient E[grad_beta F(X,beta) grad g(F(X,beta))]."""
    xs, average = _contexts(problem, mode, n_samples, rng, beta)
    F, F_grad = _F(problem, xs, beta)
    return average(_matvec(F_grad, evaluate_outer(problem, F)[1]))


def grad_Q(problem: ProblemSpec, beta, theta, mode="exact",
           n_samples=10000, rng=None):
    """Gradient of Q: E[[grad F; -grad psi] (F - psi)] split into blocks."""
    return Q_and_grad_Q(problem, beta, theta, mode, n_samples, rng)[1:]


def Q_and_grad_Q(problem: ProblemSpec, beta, theta, mode="exact",
                 n_samples=10000, rng=None):
    """Q and both blocks of grad Q from one oracle call and one model call.

    Returns (q, grad_beta, grad_theta); q is the mean of tracking_error_Q.
    """
    xs, average = _contexts(problem, mode, n_samples, rng, beta, theta)
    F, F_grad = _F(problem, xs, beta)
    psi, psi_grad = evaluate_model(problem, xs, theta)
    gap = F - psi
    return (_float(average(0.5 * (gap * gap).sum(axis=-1))[0]),
            average(_matvec(F_grad, gap))[0], average(-_matvec(psi_grad, gap))[0])


def nonoptimality_V(problem: ProblemSpec, beta, theta, c1, c2, mode="exact",
                    n_samples=10000, rng=None) -> float:
    """Non-optimality measure V = c1*Q + c2*||grad G||^2."""
    if c1 <= 0 or c2 <= 0:
        raise ConfigurationError("c1 and c2 must be positive")
    q, _ = tracking_error_Q(problem, beta, theta, mode, n_samples, rng)
    g, _ = grad_G(problem, beta, mode, n_samples, rng)
    return c1 * q + c2 * _float(_dot(g, g))


def bregman_delta_and_W(problem: ProblemSpec, beta, theta, lam,
                        mode="exact", n_samples=10000, rng=None):
    """Regularized Bregman gap Delta^lambda and Lyapunov value W = G + Delta.

    Delta = E[g(F) - g(psi) - grad g(psi)^T (F - psi) + (lam/2)||F - psi||^2]
    is nonnegative whenever lam >= L_hess_g, making W an upper bound on G.
    """
    xs, average = _contexts(problem, mode, n_samples, rng, beta, theta)
    F = _F(problem, xs, beta)[0]
    psi = evaluate_model(problem, xs, theta)[0]
    g_F = evaluate_outer(problem, F)[0]
    g_psi, g_psi_grad, _ = evaluate_outer(problem, psi)
    gap = F - psi
    delta = _float(average(g_F - g_psi - (g_psi_grad * gap).sum(axis=-1)
                           + 0.5 * lam * (gap * gap).sum(axis=-1))[0])
    return delta, _float(average(g_F)[0]) + delta


def expected_direction_Gamma(problem: ProblemSpec, beta, theta, gamma,
                             mode="exact", n_samples=10000, rng=None) -> Direction:
    """Expected update direction Gamma at (beta, theta).

    Matches the Monte Carlo mean of ``engine.compute_direction`` at the same
    point (the single-sample direction is conditionally unbiased).
    """
    xs, average = _contexts(problem, mode, n_samples, rng, beta, theta)
    F, F_grad = _F(problem, xs, beta)
    psi, psi_grad = evaluate_model(problem, xs, theta)
    g_psi_grad = evaluate_outer(problem, psi)[1]
    return Direction(average(-_matvec(F_grad, g_psi_grad))[0],
                     average(gamma * _matvec(psi_grad, F - psi))[0])


def grad_W(problem: ProblemSpec, beta, theta, lam, mode="exact",
           n_samples=10000, rng=None):
    """Gradient of the Lyapunov function, split into beta and theta blocks.

    beta block:  E[grad F grad g(F)] + E[grad F (grad g(F) - grad g(psi))]
                 + lam E[grad F (F - psi)]
    theta block: -E[grad psi hess g(psi) (F - psi)] - lam E[grad psi (F - psi)]
    """
    xs, average = _contexts(problem, mode, n_samples, rng, beta, theta)
    F, F_grad = _F(problem, xs, beta)
    psi, psi_grad = evaluate_model(problem, xs, theta)
    g_F_grad = evaluate_outer(problem, F)[1]
    _, g_psi_grad, g_psi_hess = evaluate_outer(problem, psi)
    gap = F - psi
    g_beta = (_matvec(F_grad, g_F_grad)
              + _matvec(F_grad, g_F_grad - g_psi_grad)
              + lam * _matvec(F_grad, gap))
    g_theta = (-_matvec(psi_grad, _matvec(g_psi_hess, gap))
               - lam * _matvec(psi_grad, gap))
    return average(g_beta)[0], average(g_theta)[0]


def direction_moment_stats(problem: ProblemSpec, beta, theta, gamma,
                           n: int, rng: np.random.Generator):
    """Empirical second moments of the stochastic direction at a fixed state.

    Decomposes the mean of ||d_tilde||^2 into ||mean||^2 (estimating C_d^2)
    plus the variance about the mean (estimating sigma^2).  The n samples
    go through one ``compute_direction`` call.
    """
    if n < 1000:
        raise ConfigurationError("direction_moment_stats needs n >= 1000")
    state = IterateState(np.asarray(beta, float), np.asarray(theta, float))
    d = compute_direction(problem, state, sample_stack(problem, n, rng), gamma)
    dirs = np.concatenate((d.d_beta, d.d_theta), axis=1)
    mean = dirs.mean(axis=0)
    c_d_sq = float(mean @ mean)
    sigma_sq = float(((dirs - mean) ** 2).sum(axis=1).mean())
    return c_d_sq, sigma_sq


def descent_check(problem: ProblemSpec, beta, theta, gamma, lam, c1, c2):
    """Verify <grad W, Gamma> <= -V at one point by exact enumeration.

    Returns (lhs, rhs, passed) with passed iff lhs <= rhs + 1e-9; all
    quantities here are closed-form on a finite support, so the tolerance is
    absolute.
    """
    gw_beta, gw_theta = grad_W(problem, beta, theta, lam, mode="exact")
    gam = expected_direction_Gamma(problem, beta, theta, gamma, mode="exact")
    lhs = float(gw_beta @ gam.d_beta + gw_theta @ gam.d_theta)
    rhs = -nonoptimality_V(problem, beta, theta, c1, c2, mode="exact")
    return lhs, rhs, lhs <= rhs + 1e-9


def rate_fit(records):
    """Least-squares fit of log(mean V) against log N.

    ``records`` is a collection of (N, mean_V) pairs.  Nonpositive means are
    excluded with a warning.  Returns (slope, intercept, r_squared); a slope
    near -1/2 reproduces the theoretical rate.
    """
    records = list(records)
    kept = [(n, v) for n, v in records if v > 0]
    dropped = len(records) - len(kept)
    if dropped:
        warnings.warn(f"rate_fit excluded {dropped} nonpositive mean-V points")
    if len({n for n, _ in kept}) < 2:
        raise ConfigurationError("rate_fit needs at least two distinct N values")
    log_n = np.log([n for n, _ in kept])
    log_v = np.log([v for _, v in kept])
    slope, intercept = np.polyfit(log_n, log_v, 1)
    fitted = slope * log_n + intercept
    ss_res = float(((log_v - fitted) ** 2).sum())
    ss_tot = float(((log_v - log_v.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


def make_report(problem: ProblemSpec, beta, theta, *, gamma, lam, c1, c2,
                mode="exact", n_samples=10000, rng=None) -> DiagnosticsReport:
    """Assemble a full DiagnosticsReport at one point."""
    q, q_se = tracking_error_Q(problem, beta, theta, mode, n_samples, rng)
    g, g_se = grad_G(problem, beta, mode, n_samples, rng)
    delta, w = bregman_delta_and_W(problem, beta, theta, lam, mode, n_samples, rng)
    gam = expected_direction_Gamma(problem, beta, theta, gamma, mode, n_samples, rng)
    v = c1 * q + c2 * float(np.dot(g, g))
    label = "exact" if mode == "exact" else f"monte_carlo(n={n_samples})"
    return DiagnosticsReport(q_value=q, q_stderr=q_se, grad_G=np.asarray(g),
                             grad_G_stderr=np.asarray(g_se), v_value=v,
                             delta_lambda=delta, w_value=w, gamma_dir=gam,
                             mode=label)


def minimize_scalar_G(problem: ProblemSpec, lo=0.0, hi=1.0, tol=1e-12):
    """Locate the minimizer of G for a scalar decision by bisecting grad G.

    Requires exact mode and a sign change of the scalar gradient on [lo, hi].
    Returns (beta_star, G(beta_star)).
    """
    from scipy.optimize import brentq

    if problem.dim_beta != 1:
        raise ConfigurationError("minimize_scalar_G handles scalar beta only")

    def dg(b):
        g, _ = grad_G(problem, np.array([b]), mode="exact")
        return float(g[0])

    root = brentq(dg, lo, hi, xtol=tol)
    g_val, _ = value_G(problem, np.array([root]), mode="exact")
    return float(root), g_val
