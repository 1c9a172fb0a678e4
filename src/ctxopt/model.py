"""Problem abstraction: user-supplied evaluators, joint sampler, oracles.

A problem bundles analytic evaluators for the inner function f(x, y, beta),
the outer function g(u), and the parametric model psi(x, theta), together
with a sampler for the joint law of (X, Y).  Problems over a finite sample
space may additionally carry an explicit support enumeration, which powers
exact (enumeration-based) diagnostics; a conditional oracle for
F(x, beta) = E[f(x, Y, beta) | X = x] powers Monte Carlo diagnostics.

Evaluator contract: every argument may lead with batch axes.  The context
arguments (``x`` and ``y`` of the inner function, ``x`` of the model and of
the conditional oracle, ``u`` of the outer function) share one leading
shape; the state arguments (``beta``, ``theta``) may lead with batch axes of
their own.  Context and state leading axes broadcast by numpy rules, and
every output leads with the broadcast shape.  Called without batch axes, an
evaluator gives the per-sample result.  So the diagnostics evaluate all
their contexts, and a stack of states, in one call, and a user-defined
evaluator that handles one sample or one state at a time fails their output
shape checks with a ConfigurationError.  The sampler makes one draw per
call.

Gradient matrices follow the transpose-of-Jacobian convention throughout:
an evaluator differentiated with respect to a parameter vector of length p
returns a p x n_f matrix, so update directions are plain matrix-vector
products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapabilityError, ConfigurationError, EvaluationError

Array = np.ndarray


@dataclass
class ProblemSpec:
    """Evaluator bundle defining one conditional stochastic program.

    Attributes:
        dim_x, dim_y, dim_beta, dim_theta, dim_f: problem dimensions.
        inner: (x, y, beta) -> (f, grad_f_beta) with shapes (dim_f,) and
            (dim_beta, dim_f).
        outer: (u,) -> (g, grad_g, hess_g) with g scalar, grad (dim_f,),
            hess (dim_f, dim_f) symmetric.
        model: (x, theta) -> (psi, grad_psi_theta) with shapes (dim_f,) and
            (dim_theta, dim_f).
        sampler: (rng,) -> (x, y) i.i.d. draw from the joint distribution.
        conditional_oracle: optional (x, beta) -> (F, grad_F_beta).
        support: optional finite enumeration of (x, y, probability) triples.

    Shapes are per sample and per state; batched contexts and states
    prefix them with batch axes, and outputs with the broadcast of those.
    """

    dim_x: int
    dim_y: int
    dim_beta: int
    dim_theta: int
    dim_f: int
    inner: Callable[[Array, Array, Array], tuple]
    outer: Callable[[Array], tuple]
    model: Callable[[Array, Array], tuple]
    sampler: Callable[[np.random.Generator], tuple]
    conditional_oracle: Optional[Callable[[Array, Array], tuple]] = None
    support: Optional[Sequence[tuple]] = None

    _groups: Optional[list] = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        for name in ("dim_x", "dim_y", "dim_beta", "dim_theta", "dim_f"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be a positive integer")
        if self.support is not None:
            total = sum(p for _, _, p in self.support)
            if any(p < 0 for _, _, p in self.support):
                raise ConfigurationError("support probabilities must be nonnegative")
            if abs(total - 1.0) > 1e-12:
                raise ConfigurationError(
                    f"support probabilities sum to {total!r}, expected 1"
                )
            groups: dict = {}
            for x, y, p in self.support:
                x = np.asarray(x, dtype=float)
                key = x.tobytes()
                if key not in groups:
                    groups[key] = [x, 0.0, []]
                groups[key][1] += p
                groups[key][2].append((np.asarray(y, dtype=float), p))
            self._groups = [(x, p_x, [(y, p / p_x) for y, p in pairs])
                            for x, p_x, pairs in groups.values() if p_x > 0]

    @property
    def has_support(self) -> bool:
        return self.support is not None

    @property
    def has_oracle(self) -> bool:
        return self.conditional_oracle is not None


@dataclass
class IterateState:
    """Current point z^k = (beta^k, theta^k) with its iteration counter."""

    beta: Array
    theta: Array
    k: int = 0


def _all_finite(*values: Array) -> bool:
    # A sum of squares is non-finite whenever an entry is NaN or +-inf, so
    # one test covers every output of an evaluator call.
    total = 0.0
    for value in values:
        total += np.vdot(value, value)
    return math.isfinite(total)


def _check_finite(name: str, value: Array, inputs) -> None:
    # Run only when _all_finite fails (or when a sum of squares overflows).
    if not np.isfinite(value).all():
        raise EvaluationError(
            f"{name} produced a non-finite output {value!r} at input {inputs!r}",
            offending_input=inputs,
        )


def _check_shape(name: str, value: Array, shape: tuple) -> None:
    if value.shape != shape:
        raise ConfigurationError(
            f"{name} has shape {value.shape}, expected {shape}"
        )


def _state_lead(caller: str, lead: tuple, state: Array, dim: int) -> tuple:
    """The context ``lead`` broadcast with the batch axes of a stacked state.

    Called only when ``state`` is not a single vector of length ``dim``, so
    an unbatched call pays no broadcast.
    """
    if state.ndim < 2 or state.shape[-1] != dim:
        raise ConfigurationError(f"{caller}: input dimensions do not match problem")
    try:
        return np.broadcast_shapes(lead, state.shape[:-1])
    except ValueError:
        raise ConfigurationError(
            f"{caller}: batch axes {lead} and {state.shape[:-1]} do not broadcast"
        ) from None


def _dot(a: Array, b: Array) -> Array:
    """``a . b`` over the last axis with batch axes broadcast.

    A 1-D ``b`` keeps the plain ``a @ b``; otherwise each dot product is a
    stacked 1 x n by n x 1 product.
    """
    if b.ndim == 1:
        return a @ b
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def _matvec(matrix: Array, vector: Array) -> Array:
    """``matrix @ vector`` over matching leading batch axes."""
    if vector.ndim == 1:
        return matrix @ vector
    return (matrix @ vector[..., None])[..., 0]


def evaluate_inner(problem: ProblemSpec, x: Array, y: Array, beta: Array):
    """Evaluate f(x, y, beta) and its beta-gradient (dim_beta x dim_f)."""
    x, y, beta = np.asarray(x), np.asarray(y), np.asarray(beta)
    lead = x.shape[:-1]
    if x.shape != lead + (problem.dim_x,) or y.shape != lead + (problem.dim_y,):
        raise ConfigurationError("evaluate_inner: input dimensions do not match problem")
    if beta.shape != (problem.dim_beta,):
        lead = _state_lead("evaluate_inner", lead, beta, problem.dim_beta)
    f_value, f_grad = problem.inner(x, y, beta)
    f_value = np.asarray(f_value, dtype=float)
    f_grad = np.asarray(f_grad, dtype=float)
    _check_shape("f_value", f_value, lead + (problem.dim_f,))
    _check_shape("f_grad_beta", f_grad, lead + (problem.dim_beta, problem.dim_f))
    if not _all_finite(f_value, f_grad):
        _check_finite("inner", f_value, (x, y, beta))
        _check_finite("inner gradient", f_grad, (x, y, beta))
    return f_value, f_grad


def evaluate_outer(problem: ProblemSpec, u: Array):
    """Evaluate g(u), its gradient, and its Hessian."""
    u = np.asarray(u)
    lead = u.shape[:-1]
    if u.shape != lead + (problem.dim_f,):
        raise ConfigurationError("evaluate_outer: input dimensions do not match problem")
    g_value, g_grad, g_hess = problem.outer(u)
    g_value = np.asarray(g_value, dtype=float)
    g_grad = np.asarray(g_grad, dtype=float)
    g_hess = np.asarray(g_hess, dtype=float)
    _check_shape("g_value", g_value, lead)
    _check_shape("g_grad", g_grad, lead + (problem.dim_f,))
    _check_shape("g_hess", g_hess, lead + (problem.dim_f, problem.dim_f))
    if not _all_finite(g_value, g_grad, g_hess):
        if not np.isfinite(g_value).all():
            raise EvaluationError(f"outer value non-finite at u={u!r}", offending_input=u)
        _check_finite("outer gradient", g_grad, u)
        _check_finite("outer hessian", g_hess, u)
    return g_value[()], g_grad, g_hess


def evaluate_model(problem: ProblemSpec, x: Array, theta: Array):
    """Evaluate psi(x, theta) and its theta-gradient (dim_theta x dim_f)."""
    x, theta = np.asarray(x), np.asarray(theta)
    lead = x.shape[:-1]
    if x.shape != lead + (problem.dim_x,):
        raise ConfigurationError("evaluate_model: input dimensions do not match problem")
    if theta.shape != (problem.dim_theta,):
        lead = _state_lead("evaluate_model", lead, theta, problem.dim_theta)
    psi_value, psi_grad = problem.model(x, theta)
    psi_value = np.asarray(psi_value, dtype=float)
    psi_grad = np.asarray(psi_grad, dtype=float)
    _check_shape("psi_value", psi_value, lead + (problem.dim_f,))
    _check_shape("psi_grad_theta", psi_grad, lead + (problem.dim_theta, problem.dim_f))
    if not _all_finite(psi_value, psi_grad):
        _check_finite("model", psi_value, (x, theta))
        _check_finite("model gradient", psi_grad, (x, theta))
    return psi_value, psi_grad


def sample_joint(problem: ProblemSpec, rng: np.random.Generator):
    """Draw one (x, y) pair from the joint distribution."""
    x, y = problem.sampler(rng)
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


def sample_stack(problem: ProblemSpec, n: int, rng: np.random.Generator):
    """Draw n (x, y) pairs, one sampler call each, as (n, dim) arrays."""
    xs = np.empty((n, problem.dim_x))
    ys = np.empty((n, problem.dim_y))
    expected = ((problem.dim_x,), (problem.dim_y,))
    for i in range(n):
        x, y = problem.sampler(rng)
        # A row assignment would broadcast a short draw over the whole row.
        if (np.shape(x), np.shape(y)) != expected:
            raise ConfigurationError(
                f"sampler drew x of shape {np.shape(x)} and y of shape "
                f"{np.shape(y)}, expected {expected[0]} and {expected[1]}")
        xs[i], ys[i] = x, y
    return xs, ys


def conditional_oracle(problem: ProblemSpec, x: Array, beta: Array):
    """Evaluate F(x, beta) = E[f(x, Y, beta) | X=x] and its beta-gradient."""
    if problem.conditional_oracle is None:
        raise CapabilityError("problem has no conditional oracle")
    x, beta = np.asarray(x), np.asarray(beta)
    lead = x.shape[:-1]
    if x.shape != lead + (problem.dim_x,):
        raise ConfigurationError("conditional_oracle: input dimensions do not match problem")
    if beta.shape != (problem.dim_beta,):
        lead = _state_lead("conditional_oracle", lead, beta, problem.dim_beta)
    F_value, F_grad = problem.conditional_oracle(x, beta)
    F_value = np.asarray(F_value, dtype=float)
    F_grad = np.asarray(F_grad, dtype=float)
    _check_shape("F_value", F_value, lead + (problem.dim_f,))
    _check_shape("F_grad_beta", F_grad, lead + (problem.dim_beta, problem.dim_f))
    if not _all_finite(F_value, F_grad):
        _check_finite("conditional oracle", F_value, (x, beta))
        _check_finite("conditional oracle gradient", F_grad, (x, beta))
    return F_value, F_grad


def support_groups(problem: ProblemSpec):
    """Group the support enumeration by context value.

    Returns a list of (x, p_x, [(y, p_y_given_x), ...]) with p_x the marginal
    probability of x and the inner list the conditional law of Y given X=x.
    The grouping is built once, when the problem is constructed.
    """
    if problem.support is None:
        raise CapabilityError("problem has no support enumeration")
    return problem._groups


def finite_difference_check(problem: ProblemSpec, n_probes: int,
                            rng: np.random.Generator, h: float = 1e-5,
                            box=(-1.0, 2.0)) -> dict:
    """Compare supplied gradients against central finite differences.

    Probes f in beta, psi in theta, and g in u at random points; returns the
    worst relative error per evaluator, normalized by max(1, ||analytic||).
    """
    worst = {"inner": 0.0, "model": 0.0, "outer": 0.0}
    lo, hi = box
    for _ in range(n_probes):
        x, y = sample_joint(problem, rng)
        beta = rng.uniform(lo, hi, problem.dim_beta)
        theta = rng.uniform(lo, hi, problem.dim_theta)
        u = rng.uniform(lo, hi, problem.dim_f)
        # (value, gradient) of each evaluator as a function of one point
        for name, fn, point in (
                ("inner", lambda b: evaluate_inner(problem, x, y, b), beta),
                ("model", lambda t: evaluate_model(problem, x, t), theta),
                ("outer", lambda v: evaluate_outer(problem, v)[:2], u)):
            grad = fn(point)[1]
            fd = np.empty_like(grad)
            for i, e in enumerate(h * np.eye(len(point))):
                fd[i] = (fn(point + e)[0] - fn(point - e)[0]) / (2 * h)
            worst[name] = max(worst[name], np.linalg.norm(fd - grad)
                              / max(1.0, np.linalg.norm(grad)))
    return worst


def oracle_consistency_check(problem: ProblemSpec, betas) -> float:
    """Worst gap between the conditional oracle and support enumeration."""
    if problem.conditional_oracle is None or problem.support is None:
        raise CapabilityError("needs both a conditional oracle and a support")
    worst = 0.0
    for x, _, cond in support_groups(problem):
        for beta in betas:
            F_o, G_o = conditional_oracle(problem, x, beta)
            F_e, G_e = enumerate_conditional(problem, x, beta, cond)
            worst = max(worst, float(np.max(np.abs(F_o - F_e))),
                        float(np.max(np.abs(G_o - G_e))))
    return worst


def enumerate_conditional(problem: ProblemSpec, x: Array, beta: Array,
                          conditional: Sequence[tuple]):
    """F(x, beta) and its gradient by enumerating a conditional law of Y."""
    F = np.zeros(problem.dim_f)
    F_grad = np.zeros((problem.dim_beta, problem.dim_f))
    for y, p in conditional:
        f_value, f_grad = evaluate_inner(problem, x, y, beta)
        F = F + p * f_value
        F_grad = F_grad + p * f_grad
    return F, F_grad
