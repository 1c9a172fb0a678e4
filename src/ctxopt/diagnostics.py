"""Analytical diagnostics: Q, grad G, V, the Lyapunov function, and checks.

Every diagnostic averages a per-context expression in F(x, beta),
psi(x, theta) and g over contexts x, read from one context pass
(``_Pass``).  Its contexts and their average come from one of two modes:

* ``"exact"`` takes the distinct contexts and their marginal probabilities
  p_x from the support table that ``ProblemSpec`` builds once, and averages
  by a p_x-weighted sum in support order.  It is the default for all
  verification work; standard errors are zero.
* ``"mc"`` draws n contexts in one ``sample_stack`` call, and averages by the
  sample mean with its standard error.  It requires the conditional oracle
  for F, because Q, the Bregman gap, and the expected direction all contain F
  inside nonlinear expressions where a single-sample plug-in is biased.  A
  nested inner-sampling fallback is deliberately not provided: the whole
  point of the method is that conditional sampling is infeasible.

The pass forms F (and psi, given theta) at once and g(F) and g(psi) on
first read, each by one evaluator call over all the contexts (see the
evaluator contract in ``ctxopt.model``), so V and ``descent_check`` form F
once and V's Monte Carlo Q and grad G share one draw.  F comes from the
conditional oracle, else from one ``evaluate_inner`` call over all atoms.

The diagnostics also take stacks of states: ``beta`` of shape
(S, dim_beta) and ``theta`` of shape (S, dim_theta), or any batch shape
that broadcasts.  Every evaluator is still called once, over contexts and
states, and each value comes back with one entry (or row) per state; in
Monte Carlo mode all states share one draw.  Unbatched calls return the
floats and vectors of a single state.

Problems lacking both support and oracle admit engine-only runs with no
value diagnostics.
"""

from __future__ import annotations

import warnings

import numpy as np

from .engine import compute_direction
from .errors import CapabilityError, ConfigurationError
from .model import (_RULES, ProblemSpec, _dot, _matvec, _require, _support_F,
                    conditional_oracle, evaluate_model, evaluate_outer, sample_stack)


class _Pass:
    """The contexts of ``mode``, and F, psi, g(F) and g(psi) at them.

    Each term leads with the contexts, then the states' batch shape.  F, and
    psi if ``theta`` is given, are formed here; g(F) and g(psi) on first read.
    """

    def __init__(self, problem: ProblemSpec, mode, n_samples, rng, beta, theta=None):
        if mode == "exact":
            if not problem.has_support:
                raise CapabilityError("exact mode requires a support enumeration")
            xs, self.p_x = problem._exact[:2]
        elif mode == "mc":
            if not problem.has_oracle:
                raise CapabilityError(
                    "Monte Carlo diagnostics require a conditional oracle for F")
            if rng is None:
                raise ConfigurationError("Monte Carlo mode needs an rng")
            _require("count", n_samples=n_samples)
            xs, self.p_x = sample_stack(problem, n_samples, rng)[0], None
        else:
            raise ConfigurationError(f"mode must be 'exact' or 'mc', got {mode!r}")
        state_axes = max(np.ndim(beta), 0 if theta is None else np.ndim(theta)) - 1
        if state_axes > 0:
            xs = xs.reshape(xs.shape[:1] + (1,) * state_axes + xs.shape[1:])
        self.problem, self.outer = problem, {}
        self.F = (conditional_oracle(problem, xs, beta) if problem.has_oracle
                  else _support_F(problem, beta))
        if theta is not None:
            self.psi = evaluate_model(problem, xs, theta)
            self.gap = self.F[0] - self.psi[0]

    def average(self, values):
        """(mean, stderr) over the contexts on axis 0."""
        if self.p_x is None:
            n, mean = len(values), values.mean(axis=0)
            return mean, (values.std(axis=0, ddof=1) / np.sqrt(n) if n > 1
                          else np.zeros_like(mean))
        total = sum(p * v for p, v in zip(self.p_x, values))
        return total, np.zeros(np.shape(total))

    def g(self, term):
        """g, grad g and hess g at ``term``, "F" or "psi": one outer call, made once."""
        if term not in self.outer:
            self.outer[term] = evaluate_outer(self.problem, getattr(self, term)[0])
        return self.outer[term]

    def Q(self):
        return self.average(0.5 * (self.gap * self.gap).sum(axis=-1))

    def grad_G(self):
        return self.average(_matvec(self.F[1], self.g("F")[1]))

    def V(self, c1, c2):
        g = self.grad_G()[0]
        return c1 * _float(self.Q()[0]) + c2 * _float(_dot(g, g))

    def Gamma(self, gamma):
        return (self.average(-_matvec(self.F[1], self.g("psi")[1]))[0],
                self.average(gamma * _matvec(self.psi[1], self.gap))[0])

    def grad_W(self, lam):
        F_grad, psi_grad, g_F_grad, gap = self.F[1], self.psi[1], self.g("F")[1], self.gap
        _, g_psi_grad, g_psi_hess = self.g("psi")
        g_beta = (_matvec(F_grad, g_F_grad)
                  + _matvec(F_grad, g_F_grad - g_psi_grad)
                  + lam * _matvec(F_grad, gap))
        g_theta = (-_matvec(psi_grad, _matvec(g_psi_hess, gap))
                   - lam * _matvec(psi_grad, gap))
        return self.average(g_beta)[0], self.average(g_theta)[0]


def _float(value):
    """A Python float for a single state's value, else the per-state array."""
    return float(value) if value.ndim == 0 else value


def tracking_error_Q(problem: ProblemSpec, beta, theta, mode="exact",
                     n_samples=10000, rng=None):
    """Mean squared model gap Q = (1/2) E ||F(X,beta) - psi(X,theta)||^2."""
    q, stderr = _Pass(problem, mode, n_samples, rng, beta, theta).Q()
    return _float(q), _float(stderr)


def value_G(problem: ProblemSpec, beta, mode="exact", n_samples=10000, rng=None):
    """Objective value G(beta) = E[g(F(X, beta))]."""
    run = _Pass(problem, mode, n_samples, rng, beta)
    return tuple(map(_float, run.average(run.g("F")[0])))


def grad_G(problem: ProblemSpec, beta, mode="exact", n_samples=10000, rng=None):
    """Objective gradient E[grad_beta F(X,beta) grad g(F(X,beta))]."""
    return _Pass(problem, mode, n_samples, rng, beta).grad_G()


def Q_and_grad_Q(problem: ProblemSpec, beta, theta, mode="exact",
                 n_samples=10000, rng=None):
    """(q, grad_beta, grad_theta): Q and both blocks of grad Q, from one pass."""
    run = _Pass(problem, mode, n_samples, rng, beta, theta)
    return (_float(run.Q()[0]), run.average(_matvec(run.F[1], run.gap))[0],
            run.average(-_matvec(run.psi[1], run.gap))[0])


def nonoptimality_V(problem: ProblemSpec, beta, theta, c1, c2, mode="exact",
                    n_samples=10000, rng=None) -> float:
    """Non-optimality measure V = c1*Q + c2*||grad G||^2."""
    _require("positive", c1=c1, c2=c2)
    return _Pass(problem, mode, n_samples, rng, beta, theta).V(c1, c2)


def bregman_delta_and_W(problem: ProblemSpec, beta, theta, lam,
                        mode="exact", n_samples=10000, rng=None):
    """Regularized Bregman gap Delta^lambda and Lyapunov value W = G + Delta.

    Delta = E[g(F) - g(psi) - grad g(psi)^T (F - psi) + (lam/2)||F - psi||^2]
    is nonnegative whenever lam >= L_hess_g, making W an upper bound on G.
    """
    _require("positive", lam=lam)
    run = _Pass(problem, mode, n_samples, rng, beta, theta)
    (g_F, _, _), (g_psi, g_psi_grad, _), gap = run.g("F"), run.g("psi"), run.gap
    delta = _float(run.average(g_F - g_psi - (g_psi_grad * gap).sum(axis=-1)
                               + 0.5 * lam * (gap * gap).sum(axis=-1))[0])
    return delta, _float(run.average(g_F)[0]) + delta


def expected_direction_Gamma(problem: ProblemSpec, beta, theta, gamma,
                             mode="exact", n_samples=10000, rng=None):
    """Expected update direction Gamma = (d_beta, d_theta) at (beta, theta).

    Matches the Monte Carlo mean of ``engine.compute_direction`` at the same
    point (the single-sample direction is conditionally unbiased).
    """
    _require("positive", gamma=gamma)
    return _Pass(problem, mode, n_samples, rng, beta, theta).Gamma(gamma)


def grad_W(problem: ProblemSpec, beta, theta, lam, mode="exact",
           n_samples=10000, rng=None):
    """Gradient of the Lyapunov function, split into beta and theta blocks.

    beta block:  E[grad F grad g(F)] + E[grad F (grad g(F) - grad g(psi))]
                 + lam E[grad F (F - psi)]
    theta block: -E[grad psi hess g(psi) (F - psi)] - lam E[grad psi (F - psi)]
    """
    _require("positive", lam=lam)
    return _Pass(problem, mode, n_samples, rng, beta, theta).grad_W(lam)


def direction_moment_stats(problem: ProblemSpec, beta, theta, gamma,
                           n: int, rng: np.random.Generator):
    """Empirical second moments of the stochastic direction at a fixed state.

    Decomposes the mean of ||d_tilde||^2 into ||mean||^2 (estimating C_d^2)
    plus the variance about the mean (estimating sigma^2).  The n samples
    go through one ``compute_direction`` call.
    """
    if not (_RULES["count"][0](n) and n >= 1000):
        raise ConfigurationError(
            f"direction_moment_stats needs an integer n >= 1000, got {n!r}")
    d = compute_direction(problem, np.asarray(beta, float),
                          np.asarray(theta, float), sample_stack(problem, n, rng),
                          gamma)
    dirs = np.concatenate(d, axis=1)
    mean = dirs.mean(axis=0)
    c_d_sq = float(mean @ mean)
    sigma_sq = float(((dirs - mean) ** 2).sum(axis=1).mean())
    return c_d_sq, sigma_sq


def descent_check(problem: ProblemSpec, beta, theta, gamma, lam, c1, c2):
    """Verify <grad W, Gamma> <= -V by exact enumeration, from one pass.

    Returns (lhs, rhs, passed), each with one entry per state of a stack,
    with passed iff lhs <= rhs + 1e-9; all quantities here are closed-form
    on a finite support, so the tolerance is absolute.
    """
    _require("positive", gamma=gamma, lam=lam, c1=c1, c2=c2)
    run = _Pass(problem, "exact", None, None, beta, theta)
    (gw_beta, gw_theta), (gam_beta, gam_theta) = run.grad_W(lam), run.Gamma(gamma)
    lhs = _float(_dot(gw_beta, gam_beta) + _dot(gw_theta, gam_theta))
    rhs = -run.V(c1, c2)
    return lhs, rhs, lhs <= rhs + 1e-9


def _fit_points(records):
    """The (N, mean_V) pairs that ``rate_fit`` keeps: 0 < mean_V < inf.
    Every N must be >= 1."""
    for n, _ in records:
        if not n >= 1:
            raise ConfigurationError(f"rate_fit needs every N >= 1, got N = {n}")
    return [(n, v) for n, v in records if 0 < v < np.inf]


def rate_fit(records):
    """Least-squares fit of log(mean V) against log N.

    ``records`` is a collection of (N, mean_V) pairs, N >= 1.  Nonpositive and
    non-finite means (every replication of that N diverged) are excluded
    with a warning.  Returns (slope, intercept, r_squared); a slope near
    -1/2 reproduces the theoretical rate.
    """
    records = list(records)
    kept = _fit_points(records)
    dropped = len(records) - len(kept)
    if dropped:
        warnings.warn(f"rate_fit excluded {dropped} nonpositive or non-finite "
                      f"mean-V points")
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
