"""Assumption constants and every quantity derived from them.

The ledger collects the bound constants of the standing assumptions:

    A1: ||grad g|| <= L_g, ||hess g|| <= L_hess_g  (g convex, C^2)
    A2: per-sample envelopes of ||grad_beta f|| and its Lipschitz modulus
        with p = 2, 4 moment bounds Lbar_f, Lbar_grad_f, and C_f on ||f||
    A3: the analogous bounds Lbar_psi, Lbar_grad_psi, C_psi for the model
    A4: Lojasiewicz constant M with Q <= M * ||grad_theta Q||^2

From a ledger and a Lyapunov weight lambda the module computes the descent
threshold gamma_min, the coefficient C, epsilon at the midpoint of the
Young's-inequality interval, the resulting positive weights (c1, c2) of the
non-optimality measure V = c1*Q + c2*||grad G||^2, the Lipschitz constant L_W
of the Lyapunov gradient, and the final rate bound

    E[V(z^S)] <= ((L_W/2)(C_d^2 + sigma^2) alpha^2 + W(z^0) - G_min)
                 / (alpha sqrt(N)).

Note on notation: the appendix formulas for L_W mix barred moment constants
with pointwise envelopes; the envelopes are random functions, not constants,
so every occurrence is read as the corresponding barred moment bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .diagnostics import Q_and_grad_Q
from .errors import CapabilityError, ConfigurationError, DomainError
from .model import (
    ProblemSpec,
    _dot,
    _require,
    evaluate_inner,
    evaluate_model,
    evaluate_outer,
    sample_stack,
)

LEDGER_KEYS = ("L_g", "L_hess_g", "Lbar_f", "C_f", "Lbar_grad_f",
               "Lbar_psi", "C_psi", "Lbar_grad_psi", "M")

# (ok, rule) of each entry: gradient-Lipschitz entries may legitimately vanish
# (linear g, affine f or psi), every other one is positive, and none is NaN.
ENTRY_RULES = {key: ((lambda v: v >= 0), "must be >= 0")
               if key in ("L_hess_g", "Lbar_grad_f", "Lbar_grad_psi")
               else ((lambda v: v > 0), "must be positive") for key in LEDGER_KEYS}


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
        _require("real", **self.as_dict())
        for key, (ok, rule) in ENTRY_RULES.items():
            if not ok(getattr(self, key)):
                raise ConfigurationError(f"ledger entry {key}={getattr(self, key)} {rule}")

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in LEDGER_KEYS}


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
        return {"lambda" if f.name == "lam" else f.name: getattr(self, f.name)
                for f in fields(self)}


def _strict_floor(ledger: ConstantLedger) -> float:
    """2*M*Lbar_psi^2*L_hess_g, which lambda must exceed; inf where an
    infinite factor meets a zero one (M = inf, L_hess_g = 0), as then
    lambda/M - 2*Lbar_psi^2*L_hess_g > 0 holds for no finite lambda."""
    floor = 2.0 * ledger.M * ledger.Lbar_psi ** 2 * ledger.L_hess_g
    return math.inf if math.isnan(floor) else floor


def lambda_floor(ledger: ConstantLedger) -> float:
    """Lower limit for the Lyapunov weight lambda.

    Callers must pick lambda strictly above 2*M*Lbar_psi^2*L_hess_g (and at
    least L_hess_g, which keeps the Bregman gap nonnegative).
    """
    return max(ledger.L_hess_g, _strict_floor(ledger))


def best_lambda(ledger: ConstantLedger) -> float:
    """The lambda in ``gamma_min``'s domain that minimises ``gamma_min``.

    With a = Lbar_f^2/2, b = 4 Lbar_f^2 L_hess_g, c = 1/M and
    d = 2 Lbar_psi^2 L_hess_g, gamma_min = (a lam^2 + b lam) / (c lam - d)
    falls from the floor d/c to one minimum, the positive root of
    a c lam^2 - 2 a d lam - b d, and rises after it; the domain also needs
    lam >= L_hess_g.  It is 0 when L_hess_g = 0; an infinite M leaves none.
    """
    if ledger.M == math.inf:
        raise DomainError(f"lambda: M = {ledger.M} leaves no finite default; set lambda")
    lf2, lhg = ledger.Lbar_f ** 2, ledger.L_hess_g
    a, b, c, d = lf2 / 2.0, 4.0 * lf2 * lhg, 1.0 / ledger.M, 2.0 * ledger.Lbar_psi ** 2 * lhg
    return max((a * d + math.sqrt(a * a * d * d + a * b * c * d)) / (a * c), lhg)


def gamma_min(ledger: ConstantLedger, lam: float) -> float:
    """Threshold on the method parameter gamma for the descent inequality.

    Any gamma strictly above the returned value makes
    2*(gamma*(lam/M - 2*Lbar_psi^2*L_hess_g) - 4*lam*Lbar_f^2*L_hess_g)
    exceed lam^2*Lbar_f^2.  Raises DomainError unless lam is finite, strictly
    above 2*M*Lbar_psi^2*L_hess_g and at least L_hess_g.
    """
    _require("real", lam=lam)
    if not math.isfinite(lam):
        raise DomainError(f"lambda={lam} must be finite")
    strict_floor = _strict_floor(ledger)
    if lam <= strict_floor or lam < ledger.L_hess_g:
        raise DomainError(
            f"lambda={lam} does not exceed the floor "
            f"(lambda > 2*M*Lbar_psi^2*L_hess_g = {strict_floor:.6g} "
            f"and lambda >= L_hess_g = {ledger.L_hess_g:.6g})")
    denom = lam / ledger.M - 2.0 * ledger.Lbar_psi ** 2 * ledger.L_hess_g
    lf2 = ledger.Lbar_f ** 2
    return (lam ** 2 * lf2 / 2.0 + 4.0 * lam * lf2 * ledger.L_hess_g) / denom


def lipschitz_W(ledger: ConstantLedger, lam: float):
    """Lipschitz constants of the Lyapunov gradient: (L_W_beta, L_W_theta, L_W).

    Only for lambda >= L_hess_g, where W = G + Delta^lambda bounds G above."""
    _require("real", lam=lam)
    if not lam >= ledger.L_hess_g:      # NaN fails too
        raise DomainError(f"lambda: {lam} is below L_hess_g = {ledger.L_hess_g:.6g}")
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
    _require("count", n_iters=n_iters)
    _require("positive", alpha=alpha)
    return ((L_W / 2.0) * (C_d ** 2 + sigma ** 2) * alpha ** 2 + W0 - G_min) \
        / (alpha * math.sqrt(n_iters))


def optimal_alpha(L_W: float, C_d: float, sigma: float, W0: float,
                  G_min: float) -> float:
    """Stepsize scale minimizing the rate bound over alpha; a DomainError
    unless it is positive and finite."""
    spread, moment = W0 - G_min, C_d ** 2 + sigma ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # float64 arithmetic gives inf or nan where Python floats raise
        alpha = float(np.sqrt(np.float64(2.0) * spread / (L_W * moment)))
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha: the bound's minimiser is {alpha} at L_W = {L_W:.6g}, "
                          f"C_d^2 + sigma^2 = {moment:.6g} and W0 - G_min = {spread:.6g}")
    return alpha


def derive(ledger: ConstantLedger, lam: float, gamma: float) -> DerivedConstants:
    """The DerivedConstants of (ledger, lambda, gamma), or the one compliance
    verdict: gamma_min's DomainError on lambda, else one on gamma.

    C is gamma*(lam/M - 2*Lbar_psi^2*L_hess_g) - 4*lam*Lbar_f^2*L_hess_g, and
    epsilon the midpoint of Young's open interval (lam^2*Lbar_f^2/C, 2),
    clear of both degenerate endpoints; then c1 = C - lam^2*Lbar_f^2/epsilon
    and c2 = 1 - epsilon/2.
    """
    g_min = gamma_min(ledger, lam)
    _require("real", gamma=gamma)
    if not math.isfinite(gamma):
        raise DomainError(f"gamma={gamma} must be finite")
    if gamma <= g_min:
        raise DomainError(
            f"gamma={gamma} violates the strict descent threshold 2*(gamma*(lambda/M"
            f" - 2*Lbar_psi^2*L_hess_g) - 4*lambda*Lbar_f^2*L_hess_g) > "
            f"lambda^2*Lbar_f^2 (requires gamma > {g_min:.6g})")
    denom = lam / ledger.M - 2.0 * ledger.Lbar_psi ** 2 * ledger.L_hess_g
    lf2 = ledger.Lbar_f ** 2
    cap_C = gamma * denom - 4.0 * lam * lf2 * ledger.L_hess_g
    lo = lam ** 2 * lf2 / cap_C
    epsilon = (lo + 2.0) / 2.0
    if not lo < epsilon < 2.0:          # gamma within rounding of gamma_min
        raise DomainError(f"epsilon={epsilon} outside the open interval ({lo}, 2)")
    lwb, lwt, lw = lipschitz_W(ledger, lam)
    return DerivedConstants(lam=lam, gamma=gamma, gamma_min=g_min,
                            epsilon=epsilon, cap_C=cap_C,
                            c1=cap_C - lam ** 2 * lf2 / epsilon,
                            c2=1.0 - epsilon / 2.0,
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


def _largest_operator_norm(stack):
    """``np.max(np.linalg.norm(stack, ord=2, axis=(1, 2)))`` bit for bit, from
    the SVDs of only the matrices that can hold it: the Frobenius norm bounds
    the operator norm, so those whose Frobenius norm reaches the operator norm
    of the one of largest Frobenius norm, less a relative 1e-9 for rounding."""
    fro = _row_norms(stack)
    reach = np.linalg.norm(stack[np.argmax(fro)], 2) * (1.0 - 1e-9)
    return float(np.max(np.linalg.norm(stack[fro >= reach], ord=2, axis=(1, 2))))


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


def _nelder_mead(func, x0, maxiter, xatol, fatol):
    """Least value of ``func`` found by a Nelder-Mead search from ``x0``.

    A step-for-step port of the unbounded, non-adaptive Nelder-Mead of
    SciPy's ``minimize`` (Nelder and Mead, Comput. J. 7(4), 1965), down to
    the order of every floating-point operation, so it returns SciPy's bits.
    """
    n = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([func(x) for x in sim], dtype=float)
    for _ in range(2):          # SciPy sorts twice after the first evaluation
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:                  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = func(xc)
                accept = fxc <= fxr
            else:                               # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = func(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:                               # shrink toward the best
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return np.min(fsim)


def estimate_ledger(problem: ProblemSpec, sample_count: int, probe_count: int,
                    rng: np.random.Generator, *,
                    beta_box=(0.0, 1.0), theta_box=(0.0, 1.0)) -> ConstantLedger:
    """Estimate every ledger entry numerically over configured probe boxes.

    A1 constants come from maximizing ||grad g|| and the Hessian operator
    norm over u probes in [-100, 100]^dim_f (an SVD only where a Hessian's
    Frobenius norm reaches the maximum); A2/A3 moment bounds from p=4
    empirical moments of per-sample envelopes maximized over 16 beta and 16
    theta probes; M from maximizing the exact ratio Q / ||grad_theta Q||^2
    over probes, which requires a support enumeration.  All entries are
    marked estimated.

    Each evaluator call covers every u probe (A1), every sample at one beta
    or theta probe (A2/A3), or every context at every (beta, theta) probe
    (A4), so the batch contract of ``ctxopt.model`` applies to the
    evaluators, for stacked states too.

    If the ratio for M is unbounded over the probes, or over the points
    that the Nelder-Mead polish of the best probe evaluates (denominator
    collapsing while Q stays away from zero), the offending points are
    recorded in ``a4_violations`` and M is set to infinity, without raising.
    """
    _require("count", sample_count=sample_count, probe_count=probe_count)
    _require("generator", rng=rng)
    if not problem.has_support:
        raise CapabilityError(
            "estimate_ledger needs a support enumeration to estimate M; "
            "supply M analytically for problems without one"
        )

    # A1: suprema over u probes (0 and the box corners are always included).
    u = _probe_box(rng, probe_count, -100.0, 100.0, problem.dim_f)
    _, g_grad, g_hess = evaluate_outer(problem, u)
    L_g = float(np.max(_row_norms(g_grad)))
    L_hess_g = _largest_operator_norm(g_hess)

    betas = _probe_box(rng, 14, beta_box[0], beta_box[1], problem.dim_beta,
                       include_zero=False)
    thetas = _probe_box(rng, 14, theta_box[0], theta_box[1], problem.dim_theta,
                        include_zero=False)
    xs, ys = sample_stack(problem, sample_count, rng)

    # A2: envelopes of f over beta probes; A3: of the model, over x only.
    Lbar_f, Lbar_grad_f, C_f = _envelope_moments(
        betas, lambda beta: evaluate_inner(problem, xs, ys, beta))
    Lbar_psi, Lbar_grad_psi, C_psi = _envelope_moments(
        thetas, lambda theta: evaluate_model(problem, xs, theta))

    # A4: ratio maximization with exact Q and grad_theta Q.  The one rule,
    # for a stack of (beta, theta) points or one point: the ratio is 0
    # where grad_theta Q is flat, and a flat point with Q away from zero is
    # recorded once (a collapsed simplex evaluates one point many times).
    a4_violations, recorded = [], set()

    def score(points):
        q, _, gq_theta = Q_and_grad_Q(problem, points[..., :problem.dim_beta],
                                      points[..., problem.dim_beta:])
        q, denom = np.reshape(q, -1), np.reshape(_dot(gq_theta, gq_theta), -1)
        flat = denom < 1e-14
        for k in np.flatnonzero(flat & (q > 1e-10)):
            point = points.reshape(-1, points.shape[-1])[k]
            if point.tobytes() not in recorded:
                recorded.add(point.tobytes())
                a4_violations.append((point.copy(), float(q[k]), float(denom[k])))
        return np.divide(q, denom, out=np.zeros_like(q), where=~flat)

    # Row k of the probe draw is the beta probe then the theta probe, in
    # the order of one draw per probe.
    lows, highs = (np.repeat([beta_box[i], theta_box[i]],
                             [problem.dim_beta, problem.dim_theta])
                   for i in (0, 1))
    points = rng.uniform(lows, highs, (probe_count, len(lows)))
    ratios = score(points)
    best = int(np.argmax(ratios))           # the first probe of largest ratio
    M = float(ratios[best])
    if M > 0.0 and not a4_violations:
        # Polish the best probe so the estimate reaches the actual
        # supremum instead of stopping just below it.
        M = max(M, -float(_nelder_mead(lambda p: -score(p)[0], points[best],
                                       500, xatol=1e-12, fatol=1e-14)))
    if a4_violations:
        M = math.inf
    elif M <= 0.0:
        M = 1.0

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
