"""Assumption constants and every quantity derived from them.

The ledger collects the bound constants of the standing assumptions:

    A1: ||grad g|| <= L_g, ||hess g|| <= L_hess_g  (g convex, C^2)
    A2: per-sample envelopes of ||grad_beta f|| and its Lipschitz modulus
        with p = 2, 4 moment bounds Lbar_f, Lbar_grad_f, and C_f on ||f||
    A3: the analogous bounds Lbar_psi, Lbar_grad_psi, C_psi for the model
    A4: Lojasiewicz constant M with Q <= M * ||grad_theta Q||^2

From a ledger and a Lyapunov weight lambda the module computes the descent
threshold gamma_min, the coefficient C, the Young's-inequality interval for
epsilon, the resulting positive weights (c1, c2) of the non-optimality
measure V = c1*Q + c2*||grad G||^2, the Lipschitz constant L_W of the
Lyapunov gradient, and the final rate bound

    E[V(z^S)] <= ((L_W/2)(C_d^2 + sigma^2) alpha^2 + W(z^0) - G_min)
                 / (alpha sqrt(N)).

Note on notation: the appendix formulas for L_W mix barred moment constants
with pointwise envelopes; the envelopes are random functions, not constants,
so every occurrence is read as the corresponding barred moment bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .diagnostics import Q_and_grad_Q
from .errors import CapabilityError, ConfigurationError, DomainError
from .model import (
    ProblemSpec,
    _dot,
    evaluate_inner,
    evaluate_model,
    evaluate_outer,
    sample_stack,
)

LEDGER_KEYS = ("L_g", "L_hess_g", "Lbar_f", "C_f", "Lbar_grad_f",
               "Lbar_psi", "C_psi", "Lbar_grad_psi", "M")

# Gradient-Lipschitz entries may legitimately vanish (linear g, affine f or
# psi); everything else must be strictly positive, and none may be NaN.
_MAY_BE_ZERO = {"L_hess_g", "Lbar_grad_f", "Lbar_grad_psi"}


@dataclass
class ConstantLedger:
    """Numeric values for the assumption constants A1-A4.

    ``provenance`` maps each key to either "analytic" or
    "estimated(n=<samples>)".
    """

    L_g: float
    L_hess_g: float
    Lbar_f: float
    C_f: float
    Lbar_grad_f: float
    Lbar_psi: float
    C_psi: float
    Lbar_grad_psi: float
    M: float
    provenance: dict = field(default_factory=dict)
    a4_violations: list = field(default_factory=list)

    def __post_init__(self):
        for key in LEDGER_KEYS:
            value = getattr(self, key)
            if not value >= 0 or (value == 0 and key not in _MAY_BE_ZERO):
                raise ConfigurationError(f"ledger entry {key}={value} must be positive")

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in LEDGER_KEYS}

    def to_text(self) -> str:
        """Flat key=value serialization (harness config format)."""
        return "".join(f"{key} = {getattr(self, key)!r}\n" for key in LEDGER_KEYS)

    @classmethod
    def from_text(cls, text: str) -> "ConstantLedger":
        values = {}
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in LEDGER_KEYS:
                raise ConfigurationError(f"unknown ledger key {key!r}")
            values[key] = float(raw)
        missing = [key for key in LEDGER_KEYS if key not in values]
        if missing:
            raise ConfigurationError(f"ledger text missing keys {missing}")
        return cls(**values)


@dataclass
class DerivedConstants:
    """All quantities derived from a ledger and a choice of (lambda, gamma)."""

    lam: float
    gamma: float
    gamma_min: float
    epsilon: float
    cap_C: float
    c1: float
    c2: float
    L_W_beta: float
    L_W_theta: float
    L_W: float

    def as_dict(self) -> dict:
        return {
            "lambda": self.lam, "gamma": self.gamma, "gamma_min": self.gamma_min,
            "epsilon": self.epsilon, "cap_C": self.cap_C,
            "c1": self.c1, "c2": self.c2,
            "L_W_beta": self.L_W_beta, "L_W_theta": self.L_W_theta, "L_W": self.L_W,
        }


def lambda_floor(ledger: ConstantLedger) -> float:
    """Lower limit for the Lyapunov weight lambda.

    Callers must pick lambda strictly above 2*M*Lbar_psi^2*L_hess_g (and at
    least L_hess_g, which keeps the Bregman gap nonnegative).
    """
    return max(ledger.L_hess_g,
               2.0 * ledger.M * ledger.Lbar_psi ** 2 * ledger.L_hess_g)


def check_lambda(ledger: ConstantLedger, lam: float) -> None:
    """Raise DomainError unless lam lies strictly above the lambda floor."""
    strict_floor = 2.0 * ledger.M * ledger.Lbar_psi ** 2 * ledger.L_hess_g
    if lam <= strict_floor or lam < ledger.L_hess_g:
        raise DomainError(
            f"lambda={lam} does not exceed the floor "
            f"(lambda > 2*M*Lbar_psi^2*L_hess_g = {strict_floor:.6g} "
            f"and lambda >= L_hess_g = {ledger.L_hess_g:.6g})")


def gamma_min(ledger: ConstantLedger, lam: float) -> float:
    """Threshold on the method parameter gamma for the descent inequality.

    Any gamma strictly above the returned value makes
    2*(gamma*(lam/M - 2*Lbar_psi^2*L_hess_g) - 4*lam*Lbar_f^2*L_hess_g)
    exceed lam^2*Lbar_f^2.
    """
    denom = lam / ledger.M - 2.0 * ledger.Lbar_psi ** 2 * ledger.L_hess_g
    if denom <= 0:
        raise DomainError(
            f"lambda={lam} is at or below the floor "
            f"2*M*Lbar_psi^2*L_hess_g={2 * ledger.M * ledger.Lbar_psi**2 * ledger.L_hess_g}"
        )
    lf2 = ledger.Lbar_f ** 2
    return (lam ** 2 * lf2 / 2.0 + 4.0 * lam * lf2 * ledger.L_hess_g) / denom


def descent_coefficients(ledger: ConstantLedger, lam: float, gamma: float,
                         epsilon: Optional[float] = None):
    """Coefficient C and the positive weights (c1, c2) of V.

    If ``epsilon`` is omitted it defaults to the midpoint of the open
    interval (lam^2*Lbar_f^2/C, 2), which stays clear of both degenerate
    endpoints.  Returns (cap_C, epsilon, c1, c2).
    """
    g_min = gamma_min(ledger, lam)
    if gamma <= g_min:
        raise DomainError(f"gamma={gamma} must be strictly above gamma_min={g_min}")
    denom = lam / ledger.M - 2.0 * ledger.Lbar_psi ** 2 * ledger.L_hess_g
    lf2 = ledger.Lbar_f ** 2
    cap_C = gamma * denom - 4.0 * lam * lf2 * ledger.L_hess_g
    lo = lam ** 2 * lf2 / cap_C
    if epsilon is None:
        epsilon = (lo + 2.0) / 2.0
    if not lo < epsilon < 2.0:
        raise DomainError(f"epsilon={epsilon} outside the open interval ({lo}, 2)")
    c1 = cap_C - lam ** 2 * lf2 / epsilon
    c2 = 1.0 - epsilon / 2.0
    return cap_C, epsilon, c1, c2


def lipschitz_W(ledger: ConstantLedger, lam: float):
    """Lipschitz constants of the Lyapunov gradient: (L_W_beta, L_W_theta, L_W)."""
    if lam < ledger.L_hess_g:
        raise DomainError(f"lambda={lam} must be >= L_hess_g={ledger.L_hess_g}")
    lg, lhg = ledger.L_g, ledger.L_hess_g
    lf, cf, ldf = ledger.Lbar_f, ledger.C_f, ledger.Lbar_grad_f
    lp, cp, ldp = ledger.Lbar_psi, ledger.C_psi, ledger.Lbar_grad_psi
    L_W_beta = (lf ** 2 * lhg + lg * ldf
                + (lf ** 2 * lhg + 2.0 * lg * ldf + lf * lhg * lp)
                + lam * (lf ** 2 + ldf * cf + ldf * cp + lf * lp))
    L_W_theta = (lhg * (lp * lf + 2.0 * ldp * cf + lp ** 2)
                 + lam * (lp * ldf + ldp * cf + lp ** 2 + ldp * cp))
    return L_W_beta, L_W_theta, math.hypot(L_W_beta, L_W_theta)


def theorem_bound(L_W: float, C_d: float, sigma: float, alpha: float,
                  n_iters: int, W0: float, G_min: float) -> float:
    """Right-hand side of the rate theorem for the fixed-horizon schedule."""
    return ((L_W / 2.0) * (C_d ** 2 + sigma ** 2) * alpha ** 2 + W0 - G_min) \
        / (alpha * math.sqrt(n_iters))


def optimal_alpha(L_W: float, C_d: float, sigma: float, W0: float,
                  G_min: float) -> float:
    """Stepsize scale minimizing the rate bound over alpha."""
    return math.sqrt(2.0 * (W0 - G_min) / (L_W * (C_d ** 2 + sigma ** 2)))


def derive(ledger: ConstantLedger, lam: float, gamma: float,
           epsilon: Optional[float] = None) -> DerivedConstants:
    """Assemble the full DerivedConstants bundle for (ledger, lambda, gamma)."""
    g_min = gamma_min(ledger, lam)
    cap_C, epsilon, c1, c2 = descent_coefficients(ledger, lam, gamma, epsilon)
    lwb, lwt, lw = lipschitz_W(ledger, lam)
    return DerivedConstants(lam=lam, gamma=gamma, gamma_min=g_min,
                            epsilon=epsilon, cap_C=cap_C, c1=c1, c2=c2,
                            L_W_beta=lwb, L_W_theta=lwt, L_W=lw)


def _probe_box(rng, count, low, high, dim, include_zero=True):
    probes = rng.uniform(low, high, size=(count, dim))
    extra = [np.full(dim, low), np.full(dim, high)]
    if include_zero and low <= 0.0 <= high:
        extra.append(np.zeros(dim))
    return np.vstack([probes] + [e[None, :] for e in extra])


def _row_norms(stack):
    """``np.linalg.norm`` of every row of ``stack``, in one call.

    Each row's squared norm is a stacked 1 x n by n x 1 product
    (``model._dot``), which gives the per-row dot product bit for bit.
    """
    rows = stack.reshape(len(stack), -1)
    return np.sqrt(_dot(rows, rows))


def _envelope_moments(probes, evaluate):
    """p=4 moment bounds of per-sample envelopes over a probe sequence.

    ``evaluate(probe)`` returns (value, gradient) for every sample at once.
    The envelopes are maxima over the probes of ||gradient||, of the
    gradient's Lipschitz ratio between consecutive probes, and of ||value||.
    Returns their moment bounds in that order.
    """
    gaps = _row_norms(np.diff(probes, axis=0))
    grad_env = lip_env = value_env = 0.0      # arrays once a probe is seen
    for a, probe in enumerate(probes):
        value, grad = evaluate(probe)
        grad_env = np.maximum(grad_env, _row_norms(grad))
        value_env = np.maximum(value_env, _row_norms(value))
        if a and gaps[a - 1] > 1e-12:
            lip_env = np.maximum(lip_env,
                                 _row_norms(grad - previous) / gaps[a - 1])
        previous = grad
    return tuple(float(np.mean(env ** 4) ** 0.25)
                 for env in (grad_env, lip_env, value_env))


def estimate_ledger(problem: ProblemSpec, sample_count: int, probe_count: int,
                    rng: np.random.Generator, *,
                    beta_box=(0.0, 1.0), theta_box=(0.0, 1.0),
                    u_box=(-100.0, 100.0), envelope_probes: int = 16) -> ConstantLedger:
    """Estimate every ledger entry numerically over configured probe boxes.

    A1 constants come from maximizing ||grad g|| and the Hessian operator
    norm over u probes; A2/A3 moment bounds from p=4 empirical moments of
    per-sample envelopes maximized over (beta, theta) probes; M from
    maximizing the exact ratio Q / ||grad_theta Q||^2 over probes, which
    requires a support enumeration.  All entries are marked estimated.

    Each evaluator call covers every u probe (A1), every sample at one beta
    or theta probe (A2/A3), or every context at every (beta, theta) probe
    (A4), so the batch contract of ``ctxopt.model`` applies to the
    evaluators, for stacked states too.

    If the ratio for M is unbounded over the probes (denominator collapsing
    while Q stays away from zero) the offending probes are recorded in
    ``a4_violations`` and M is set to infinity, without raising.
    """
    if sample_count < 1 or probe_count < 1:
        raise ConfigurationError("sample_count and probe_count must be positive")
    if not problem.has_support:
        raise CapabilityError(
            "estimate_ledger needs a support enumeration to estimate M; "
            "supply M analytically for problems without one"
        )

    # A1: suprema over u probes (0 and the box corners are always included).
    u = _probe_box(rng, probe_count, u_box[0], u_box[1], problem.dim_f)
    _, g_grad, g_hess = evaluate_outer(problem, u)
    L_g = float(np.max(_row_norms(g_grad)))
    L_hess_g = float(np.max(np.linalg.norm(g_hess, ord=2, axis=(1, 2))))

    n_env = max(2, envelope_probes)
    betas = _probe_box(rng, n_env - 2, beta_box[0], beta_box[1],
                       problem.dim_beta, include_zero=False)
    thetas = _probe_box(rng, n_env - 2, theta_box[0], theta_box[1],
                        problem.dim_theta, include_zero=False)
    xs, ys = sample_stack(problem, sample_count, rng)

    # A2: envelopes of f over beta probes; A3: of the model, over x only.
    Lbar_f, Lbar_grad_f, C_f = _envelope_moments(
        betas, lambda beta: evaluate_inner(problem, xs, ys, beta))
    Lbar_psi, Lbar_grad_psi, C_psi = _envelope_moments(
        thetas, lambda theta: evaluate_model(problem, xs, theta))

    # A4: ratio maximization with exact Q and grad_theta Q.  Row k of the
    # probe draw is the beta probe then the theta probe, in the order of
    # one draw per probe.
    def ratio(points):
        q, _, gq_theta = Q_and_grad_Q(problem, points[..., :problem.dim_beta],
                                      points[..., problem.dim_beta:])
        return q, _dot(gq_theta, gq_theta)

    lows, highs = (np.repeat([beta_box[i], theta_box[i]],
                             [problem.dim_beta, problem.dim_theta])
                   for i in (0, 1))
    points = rng.uniform(lows, highs, (probe_count, len(lows)))
    q, denom = ratio(points)
    flat = denom < 1e-14
    a4_violations = [(points[k].copy(), float(q[k]), float(denom[k]))
                     for k in np.flatnonzero(flat & (q > 1e-10))]
    ratios = np.divide(q, denom, out=np.zeros_like(q), where=~flat)
    best = int(np.argmax(ratios))           # the first probe of largest ratio
    M = float(ratios[best])
    if a4_violations:
        M = math.inf
    elif M <= 0.0:
        M = 1.0
    else:
        # Polish the best probe so the estimate reaches the actual
        # supremum instead of stopping just below it.
        from scipy.optimize import minimize

        def neg_ratio(point):
            q, denom = ratio(point)
            return -(q / float(denom)) if denom >= 1e-14 else 0.0

        result = minimize(neg_ratio, points[best], method="Nelder-Mead",
                          options={"maxiter": 500, "xatol": 1e-12,
                                   "fatol": 1e-14})
        M = max(M, -float(result.fun))

    tag = f"estimated(n={sample_count})"
    provenance = {key: tag for key in LEDGER_KEYS}
    if a4_violations:
        provenance["M"] = f"a4-violation({len(a4_violations)} probes)"
    return ConstantLedger(
        L_g=L_g, L_hess_g=L_hess_g,
        Lbar_f=Lbar_f, C_f=C_f, Lbar_grad_f=Lbar_grad_f,
        Lbar_psi=Lbar_psi, C_psi=C_psi, Lbar_grad_psi=Lbar_grad_psi,
        M=M, provenance=provenance, a4_violations=a4_violations,
    )
