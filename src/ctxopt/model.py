"""Problem abstraction: user-supplied evaluators, joint sampler, oracles.

A problem bundles analytic evaluators for the inner function f(x, y, beta),
the outer function g(u), and the parametric model psi(x, theta), together
with a sampler for the joint law of (X, Y).  Problems over a finite sample
space may additionally carry an explicit support enumeration, which powers
exact (enumeration-based) diagnostics; a conditional oracle for
F(x, beta) = E[f(x, Y, beta) | X = x] powers Monte Carlo diagnostics.
The support is checked atom by atom and stacked once, when the problem is
built, into one table: the distinct contexts with their marginals p_x, and
every atom in context order with its p(y|x).  Without an oracle,
``_support_F`` forms F at those contexts from one ``evaluate_inner`` call
over all atoms.

Evaluator contract: every argument may lead with batch axes.  The context
arguments (``x`` and ``y`` of the inner function, ``x`` of the model and of
the conditional oracle, ``u`` of the outer function) share one leading
shape; the state arguments (``beta``, ``theta``) may lead with batch axes of
their own.  Context and state leading axes broadcast by numpy rules, and
every output leads with the broadcast shape.  Called without batch axes, an
evaluator gives the per-sample result.  So the diagnostics evaluate all
their contexts, and a stack of states, in one call, and a user-defined
evaluator that handles one sample or one state at a time fails their output
shape checks with a ConfigurationError.  ``sampler(rng, n)`` draws n pairs
as (n, dim) arrays, equal bit for bit to n one-draw ``sampler(rng)`` calls;
``sample_stack`` makes every bulk draw one such call, and ``_checked_draw``
is the one shape check of a draw, there and in ``engine.run``.
``_validated`` is the one check of evaluator outputs, for shape and for
finiteness: ``evaluate_*`` and ``conditional_oracle`` check their inputs and
pass their outputs to it, and each ``engine`` step passes it all of its own.
Its fast finiteness test is one sum over the entries of every output of at
most ``_SMALL`` entries and ``np.vdot`` of each larger one; a non-finite total
sends the call to its per-output pass, which makes every verdict.
A bare value, a wrong number of outputs or an output that is not numeric
fails it with a ConfigurationError naming the evaluator.  Beside it,
``_require`` is the one argument check: every count, positive or real
scalar, seed and random generator that a public function takes meets its
rule in ``_RULES``, or a ConfigurationError names the argument, once per
call and never per step.

Gradient matrices follow the transpose-of-Jacobian convention throughout:
an evaluator differentiated with respect to a parameter vector of length p
returns a p x n_f matrix, so update directions are plain matrix-vector
products.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapabilityError, ConfigurationError, EvaluationError

Array = np.ndarray


# Each argument rule: (holds, the error's text).  A bool is no count, scalar or seed.
_RULES = {
    "count": (lambda v: isinstance(v, (int, np.integer)) and v is not True and v >= 1,
              "must be a positive integer"),
    "positive": (lambda v: isinstance(v, (int, float, np.integer, np.floating))
                 and v is not True and 0 < v < math.inf, "must be positive and finite"),
    "real": (lambda v: isinstance(v, (int, float, np.integer, np.floating))
             and not isinstance(v, bool), "must be a real number"),
    "seed": (lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool),
             "must be an integer"),
    "generator": (lambda v: isinstance(v, np.random.Generator),
                  "must be a numpy.random.Generator"),
}


def _require(rule: str, **values) -> None:
    """Raise a ConfigurationError naming the first of ``values`` to break the rule."""
    holds, text = _RULES[rule]
    for name, value in values.items():
        if not holds(value):
            raise ConfigurationError(f"{name} {text}, got {value!r}")


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
        sampler: (rng,) -> (x, y), one i.i.d. draw from the joint law;
            (rng, n) -> n draws as (n, dim) arrays, equal bit for bit.
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
    sampler: Callable[..., tuple]
    conditional_oracle: Optional[Callable[[Array, Array], tuple]] = None
    support: Optional[Sequence[tuple]] = None

    # The support table: the distinct contexts xs and their p_x; then, used
    # only inside ``model``, every atom's x and y stacked in context order,
    # each atom's p(y|x), and each context's number of atoms.  All of its
    # arrays are read-only.  ``_shapes`` holds each evaluator's per-sample
    # output shapes, from the dims that ``_OUTPUTS`` names.
    _exact: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _shapes: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _require("count", dim_x=self.dim_x, dim_y=self.dim_y, dim_beta=self.dim_beta,
                 dim_theta=self.dim_theta, dim_f=self.dim_f)
        self._shapes = {evaluator: [tuple(getattr(self, "dim_" + dim) for dim in dims.split())
                                    for _, _, dims in outputs]
                        for evaluator, outputs in _OUTPUTS.items()}
        if self.support is not None:
            groups: dict = {}
            for i, (x, y, p) in enumerate(self.support):
                x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
                for name, value, dim in (("x", x, self.dim_x), ("y", y, self.dim_y)):
                    if value.shape != (dim,):
                        raise ConfigurationError(f"support atom {i}: {name} of shape "
                                                 f"{value.shape}, expected {(dim,)}")
                # written so that a NaN probability fails too
                if not 0 <= p < math.inf:
                    raise ConfigurationError(
                        f"support atom {i}: probability {p!r}, expected finite and >= 0")
                group = groups.setdefault(x.tobytes(), [x, 0.0, []])
                group[1] += p
                group[2].append((y, p))
            total = sum(p for _, _, p in self.support)
            if abs(total - 1.0) > 1e-12:
                raise ConfigurationError(
                    f"support probabilities sum to {total!r}, expected 1")
            groups = [group for group in groups.values() if group[1] > 0]
            xs = np.array([x for x, _, _ in groups])
            counts = tuple(len(atoms) for _, _, atoms in groups)
            x_atoms = np.repeat(xs, counts, axis=0)
            y_atoms = np.array([y for _, _, atoms in groups for y, _ in atoms])
            for array in (xs, x_atoms, y_atoms):
                array.flags.writeable = False
            self._exact = (xs, tuple(p_x for _, p_x, _ in groups), x_atoms, y_atoms,
                           tuple(p / p_x for _, p_x, atoms in groups for _, p in atoms),
                           counts)

    @property
    def has_support(self) -> bool:
        return self.support is not None

    @property
    def has_oracle(self) -> bool:
        return self.conditional_oracle is not None


# Each evaluator's outputs in order: (name in a shape error, in a non-finite
# one, the dims of its per-sample shape)
_OUTPUTS = {
    "inner": (("f_value", "inner", "f"), ("f_grad_beta", "inner gradient", "beta f")),
    "model": (("psi_value", "model", "f"), ("psi_grad_theta", "model gradient", "theta f")),
    "outer": (("g_value", "outer value", ""), ("g_grad", "outer gradient", "f"),
              ("g_hess", "outer hessian", "f f")),
    "conditional oracle": (("F_value", "conditional oracle", "f"),
                           ("F_grad_beta", "conditional oracle gradient", "beta f")),
}
# Up to this many entries, the sum of an output's entries as Python floats
# is a cheaper finiteness test than ``np.vdot`` (measured: 0.5 against 0.7 us
# at 16 entries, even at about 26).
_SMALL = 16


def _validated(problem: ProblemSpec, *calls) -> tuple:
    """The outputs of evaluator calls as float arrays: the one output check.

    Each call is ``(evaluator, lead, inputs, outputs)``: a key of
    ``_OUTPUTS``, the outputs' batch shape, the inputs an EvaluationError
    names, and what the evaluator returned.  One shape comparison and one
    finiteness test cover all outputs; only if either fails is each call
    checked, shapes before finiteness, to name the first bad output.  The
    finiteness test is one sum, non-finite whenever an entry is NaN or +-inf,
    over the entries as Python floats of every output of at most ``_SMALL``
    entries and the sum of squares by ``np.vdot`` of each larger one.  It only
    decides whether the per-output pass runs, and that pass makes every
    verdict, so finite outputs whose sum overflows pass.
    """
    values, actual, shapes, terms = [], [], [], []
    try:
        for evaluator, lead, _, outputs in calls:
            table = problem._shapes[evaluator]
            shapes += [lead + shape for shape in table] if lead else table
            for value in outputs:
                value = np.asarray(value, dtype=float)
                values.append(value)
                actual.append(value.shape)
                terms += (value.ravel().tolist() if value.size <= _SMALL
                          else [np.vdot(value, value)])
    except (TypeError, ValueError):     # a bare value, or an output not numeric
        shapes = None
    if actual == shapes and math.isfinite(sum(terms)):
        return tuple(values)
    for evaluator, lead, inputs, outputs in calls:
        count = len(_OUTPUTS[evaluator])
        if not isinstance(outputs, (tuple, list)):
            raise ConfigurationError(f"{evaluator} returned {type(outputs).__name__}, "
                                     f"expected a tuple of {count} outputs")
        if len(outputs) != count:
            raise ConfigurationError(f"{evaluator} returned {len(outputs)} outputs, "
                                     f"expected {count}")
        own = []
        for (name, label, _), value, shape in zip(_OUTPUTS[evaluator], outputs,
                                                  problem._shapes[evaluator]):
            shape = lead + shape
            try:
                value = np.asarray(value, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"{evaluator} output {name} is not a float array: {exc}") from None
            if value.shape != shape:
                raise ConfigurationError(f"{name} has shape {value.shape}, expected {shape}")
            own.append((label, value))
        for label, value in own:
            if not np.isfinite(value).all():
                raise EvaluationError(
                    f"outer value non-finite at u={inputs!r}"
                    if label == "outer value" else f"{label} produced a "
                    f"non-finite output {value!r} at input {inputs!r}",
                    offending_input=inputs)
    return tuple(values)


def _lead(caller, problem, x, y, state, dim) -> tuple:
    """The outputs' batch shape: the contexts' (``x``, and ``y`` if given),
    broadcast with the batch axes of a stacked ``state`` of width ``dim``."""
    lead = x.shape[:-1]
    if (x.shape != lead + (problem.dim_x,)
            or y is not None and y.shape != lead + (problem.dim_y,)
            or state.shape != (dim,) and (state.ndim < 2 or state.shape[-1] != dim)):
        raise ConfigurationError(f"{caller}: input dimensions do not match problem")
    if state.shape == (dim,):
        return lead
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
    lead = _lead("evaluate_inner", problem, x, y, beta, problem.dim_beta)
    return _validated(problem, ("inner", lead, (x, y, beta), problem.inner(x, y, beta)))


def evaluate_outer(problem: ProblemSpec, u: Array):
    """Evaluate g(u), its gradient, and its Hessian."""
    u = np.asarray(u)
    lead = u.shape[:-1]
    if u.shape != lead + (problem.dim_f,):
        raise ConfigurationError("evaluate_outer: input dimensions do not match problem")
    g_value, g_grad, g_hess = _validated(problem, ("outer", lead, u, problem.outer(u)))
    return g_value[()], g_grad, g_hess


def evaluate_model(problem: ProblemSpec, x: Array, theta: Array):
    """Evaluate psi(x, theta) and its theta-gradient (dim_theta x dim_f)."""
    x, theta = np.asarray(x), np.asarray(theta)
    lead = _lead("evaluate_model", problem, x, None, theta, problem.dim_theta)
    return _validated(problem, ("model", lead, (x, theta), problem.model(x, theta)))


def _checked_draw(problem: ProblemSpec, lead: tuple, draw) -> tuple:
    """A sampler's ``(x, y)``, whose shapes must be ``lead + (dim,)``."""
    x, y = draw
    expected = (lead + (problem.dim_x,), lead + (problem.dim_y,))
    try:
        shapes = (x.shape, y.shape)
    except AttributeError:      # a draw that is not an array, such as a list
        shapes = (np.shape(x), np.shape(y))
    if shapes != expected:
        raise ConfigurationError(f"sampler drew x of shape {shapes[0]} and y of shape "
                                 f"{shapes[1]}, expected {expected[0]} and {expected[1]}")
    return x, y


def sample_stack(problem: ProblemSpec, n: int, rng: np.random.Generator):
    """Draw n (x, y) pairs in one ``sampler(rng, n)`` call, as (n, dim) arrays."""
    _require("count", n=n)
    _require("generator", rng=rng)
    try:
        inspect.signature(problem.sampler).bind(rng, n)
    except TypeError:
        raise ConfigurationError("sampler takes no draw count: the contract is sampler(rng) "
                                 "for one draw and sampler(rng, n) for n draws") from None
    xs, ys = _checked_draw(problem, (n,), problem.sampler(rng, n))
    return np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)


def conditional_oracle(problem: ProblemSpec, x: Array, beta: Array):
    """Evaluate F(x, beta) = E[f(x, Y, beta) | X=x] and its beta-gradient."""
    if problem.conditional_oracle is None:
        raise CapabilityError("problem has no conditional oracle")
    x, beta = np.asarray(x), np.asarray(beta)
    lead = _lead("conditional_oracle", problem, x, None, beta, problem.dim_beta)
    return _validated(problem, ("conditional oracle", lead, (x, beta),
                                problem.conditional_oracle(x, beta)))


def finite_difference_check(problem: ProblemSpec, n_probes: int,
                            rng: np.random.Generator) -> dict:
    """Compare supplied gradients against central finite differences.

    Probes f in beta, psi in theta, and g in u at random points in [-1, 2],
    with step h = 1e-5; returns the worst relative error per evaluator,
    normalized by max(1, ||analytic||).
    """
    _require("count", n_probes=n_probes)
    worst = {"inner": 0.0, "model": 0.0, "outer": 0.0}
    h = 1e-5
    for _ in range(n_probes):
        (x,), (y,) = sample_stack(problem, 1, rng)
        beta = rng.uniform(-1.0, 2.0, problem.dim_beta)
        theta = rng.uniform(-1.0, 2.0, problem.dim_theta)
        u = rng.uniform(-1.0, 2.0, problem.dim_f)
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


def _support_F(problem: ProblemSpec, beta: Array):
    """F(x, beta) and its beta-gradient at the support's contexts ``xs``.

    One ``evaluate_inner`` call covers every atom, with a unit axis for each
    batch axis of a stacked ``beta``; each context's atoms are then summed,
    weighted by p(y|x), in support order from 0.
    """
    if problem.support is None:
        raise CapabilityError("problem has no support enumeration")
    _, _, x_atoms, y_atoms, p_y, counts = problem._exact
    beta = np.asarray(beta)
    lead = (len(p_y),) + (1,) * (beta.ndim - 1)
    outputs = evaluate_inner(problem, x_atoms.reshape(lead + (problem.dim_x,)),
                             y_atoms.reshape(lead + (problem.dim_y,)), beta)
    ends = list(accumulate(counts, initial=0))
    return tuple(np.array([sum(p_y[i] * values[i] for i in range(start, end))
                           for start, end in zip(ends, ends[1:])])
                 for values in outputs)


def oracle_consistency_check(problem: ProblemSpec, betas) -> float:
    """Worst gap between the conditional oracle and support enumeration."""
    if problem.conditional_oracle is None or problem.support is None:
        raise CapabilityError("needs both a conditional oracle and a support")
    betas = np.asarray(betas)
    if betas.ndim != 2 or len(betas) == 0:
        raise ConfigurationError(f"betas must be a nonempty (n, dim_beta) stack, "
                                 f"got shape {betas.shape}")
    oracle = conditional_oracle(problem, problem._exact[0][:, None], betas)
    return float(max(np.max(np.abs(o - e))
                     for o, e in zip(oracle, _support_F(problem, betas))))
