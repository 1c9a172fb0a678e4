"""The single-sample learning-and-optimization iteration.

Each step consumes exactly one fresh (x, y) pair and moves the decision
variable beta against the composite gradient estimate while simultaneously
pulling the model parameters theta toward the observed inner values:

    d_beta  = -grad_f_beta(x, y, beta) @ grad_g(psi(x, theta))
    d_theta = gamma * grad_psi_theta(x, theta) @ (f(x, y, beta) - psi(x, theta))
    beta   += tau_k * d_beta
    theta  += tau_k * d_theta

``run`` draws the N pairs from the trajectory substream before the first
step, one ``sampler(rng)`` call each, and step k uses pair k.
``_direction`` is the one place the direction is formed, from one call each
of inner, model and outer: ``model._validated`` checks the outputs of inner
and model before outer runs, then outer's.  It returns the descent gradient
-d_beta with d_theta: the loop subtracts tau_k times it from beta and adds
tau_k times d_theta to theta, on checked inputs; ``compute_direction`` checks
its inputs and returns the gradient negated.

The reported iterate is drawn at a random stopping index: uniform over
{0..N-1} for the fixed-horizon schedule tau_k = alpha/sqrt(N), proportional
to tau_k for the anytime schedule tau_k = alpha/sqrt(k+1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import seeding
from .errors import ConfigurationError, EvaluationError
from .model import ProblemSpec, _checked_draw, _lead, _matvec, _require, _validated

Array = np.ndarray


class Schedule(enum.Enum):
    """Stepsize schedule / stopping-law pairing; a schedule argument is a
    member or its name."""

    FIXED_HORIZON = "FixedHorizon"   # tau_k = alpha / sqrt(N), S uniform
    ANYTIME = "Anytime"              # tau_k = alpha / sqrt(k+1), P[S=k] ~ tau_k


@dataclass
class RunConfig:
    """Parameters of a single run of the method."""

    gamma: float
    alpha: float
    n_iters: int
    schedule: Schedule = Schedule.FIXED_HORIZON
    seed: int = 0
    init_beta: Optional[Array] = None
    init_theta: Optional[Array] = None

    def __post_init__(self):
        _require("positive", gamma=self.gamma, alpha=self.alpha)
        _require("count", n_iters=self.n_iters)
        _require("seed", seed=self.seed)
        self.schedule = _schedule(self.schedule)
        for name in ("init_beta", "init_theta"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(_vector(name, value)).all():
                raise ConfigurationError(f"{name} must be finite, got {value!r}")


@dataclass
class RunRecord:
    """Full trajectory of one run plus the random stopping index.

    ``betas``/``thetas`` have N+1 rows (z^0 through z^N); ``taus`` has N
    entries.  The stopping index is drawn after the loop from a dedicated
    substream so the trajectory is independent of it, and any S maps onto a
    recorded state: z^S is ``(betas[stop_index], thetas[stop_index])``.
    """

    betas: Array
    thetas: Array
    taus: Array
    stop_index: int


def _schedule(value) -> Schedule:
    """``Schedule(value)``: a member or its name, else a ConfigurationError."""
    try:
        return Schedule(value)
    except ValueError:
        raise ConfigurationError(f"schedule: {value!r} is not one of "
                                 f"{[member.value for member in Schedule]}") from None


def _vector(name: str, value) -> Array:
    """``value`` as a float array, or a ConfigurationError naming ``name``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a float vector: {exc}") from None


def initial_state(problem: ProblemSpec, init_beta=None, init_theta=None,
                  prefix: str = "") -> tuple:
    """z^0 = (beta, theta), zeros where absent; a vector that is not numeric
    or of the wrong shape raises a ConfigurationError naming
    ``prefix + "init_beta"`` (or theta)."""
    state = []
    for name, value, dim in (("init_beta", init_beta, problem.dim_beta),
                             ("init_theta", init_theta, problem.dim_theta)):
        vector = np.zeros(dim) if value is None else _vector(prefix + name, value)
        if vector.shape != (dim,):
            raise ConfigurationError(
                f"{prefix}{name}: shape {vector.shape}, not ({dim},)")
        state.append(vector)
    return tuple(state)


def compute_direction(problem: ProblemSpec, beta: Array, theta: Array,
                      sample: tuple, gamma: float) -> tuple:
    """Stochastic direction (d_beta, d_theta) at (beta, theta) from ``sample``,
    an (x, y) pair or a stack of pairs with leading batch axes."""
    _require("positive", gamma=gamma)
    x, y, beta, theta = map(np.asarray, (*sample, beta, theta))
    lead = _lead("compute_direction", problem, x, y, beta, problem.dim_beta)
    psi_lead = _lead("compute_direction", problem, x, None, theta, problem.dim_theta)
    descent, d_theta = _direction(problem, beta, theta, x, y, gamma, lead, psi_lead)
    return -descent, d_theta


def _direction(problem, beta, theta, x, y, gamma, lead, psi_lead):
    # -> (-d_beta, d_theta); inner's outputs lead with ``lead``, the rest ``psi_lead``
    f_value, f_grad, psi_value, psi_grad = _validated(
        problem, ("inner", lead, (x, y, beta), problem.inner(x, y, beta)),
        ("model", psi_lead, (x, theta), problem.model(x, theta)))
    _, g_grad, _ = _validated(
        problem, ("outer", psi_lead, psi_value, problem.outer(psi_value)))
    return (_matvec(f_grad, g_grad),
            gamma * _matvec(psi_grad, f_value - psi_value))


def stepsizes(schedule: Schedule, n_iters: int, alpha: float) -> Array:
    """tau_0 .. tau_{N-1}: alpha/sqrt(N) each, or alpha/sqrt(k+1)."""
    _require("count", n_iters=n_iters)
    _require("positive", alpha=alpha)
    if _schedule(schedule) is Schedule.FIXED_HORIZON:
        return np.full(n_iters, alpha / math.sqrt(n_iters))
    return alpha / np.sqrt(np.arange(1, n_iters + 1))


def draw_stop_index(schedule: Schedule, n_iters: int, alpha: float,
                    rng: np.random.Generator) -> int:
    """Draw the reporting index S according to the schedule's stopping law."""
    _require("count", n_iters=n_iters)
    if _schedule(schedule) is Schedule.FIXED_HORIZON:
        return int(rng.integers(n_iters))
    taus = stepsizes(schedule, n_iters, alpha)
    return int(rng.choice(n_iters, p=taus / taus.sum()))


def run(problem: ProblemSpec, config: RunConfig) -> RunRecord:
    """Execute N iterations and draw the stopping index.

    The N joint samples are drawn and checked on the trajectory substream
    before the first step, one sampler call each; step k uses sample k.
    """
    n = config.n_iters
    beta, theta = initial_state(problem, config.init_beta, config.init_theta)

    rng = seeding.substream(config.seed, seeding.STREAM_TRAJECTORY)
    xs, ys = np.empty((n, problem.dim_x)), np.empty((n, problem.dim_y))
    for k in range(n):      # checked first: a row would broadcast a short draw
        xs[k], ys[k] = _checked_draw(problem, (), problem.sampler(rng))
    betas = np.empty((n + 1, problem.dim_beta))
    thetas = np.empty((n + 1, problem.dim_theta))
    taus = stepsizes(config.schedule, n, config.alpha)
    betas[0], thetas[0] = beta, theta

    for k, (tau, x, y) in enumerate(zip(taus.tolist(), xs, ys)):
        try:
            descent, d_theta = _direction(problem, beta, theta, x, y, config.gamma, (), ())
        except EvaluationError as exc:
            raise EvaluationError(
                f"evaluation failed at iteration {k}: {exc}",
                offending_input=exc.offending_input, iteration=k,
            ) from exc
        beta = betas[k + 1] = beta - tau * descent
        theta = thetas[k + 1] = theta + tau * d_theta

    rng_stop = seeding.substream(config.seed, seeding.STREAM_STOPPING)
    stop = draw_stop_index(config.schedule, n, config.alpha, rng_stop)
    return RunRecord(betas=betas, thetas=thetas, taus=taus, stop_index=stop)
