"""The single-sample learning-and-optimization iteration.

Each step consumes exactly one fresh (x, y) pair and moves the decision
variable beta against the composite gradient estimate while simultaneously
pulling the model parameters theta toward the observed inner values:

    d_beta  = -grad_f_beta(x, y, beta) @ grad_g(psi(x, theta))
    d_theta = gamma * grad_psi_theta(x, theta) @ (f(x, y, beta) - psi(x, theta))
    beta   += tau_k * d_beta
    theta  += tau_k * d_theta

The reported iterate is drawn at a random stopping index: uniform over
{0..N-1} for the fixed-horizon schedule tau_k = alpha/sqrt(N), proportional
to tau_k for the anytime schedule tau_k = alpha/sqrt(k+1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import seeding
from .errors import ConfigurationError, EvaluationError
from .model import (
    IterateState,
    ProblemSpec,
    _matvec,
    evaluate_inner,
    evaluate_model,
    evaluate_outer,
    sample_joint,
)

Array = np.ndarray


class Schedule(enum.Enum):
    """Stepsize schedule / stopping-law pairing."""

    FIXED_HORIZON = "FixedHorizon"   # tau_k = alpha / sqrt(N), S uniform
    ANYTIME = "Anytime"              # tau_k = alpha / sqrt(k+1), P[S=k] ~ tau_k


@dataclass
class Direction:
    """One stochastic update direction (d_beta, d_theta)."""

    d_beta: Array
    d_theta: Array


@dataclass
class RunConfig:
    """Parameters of a single run of the method."""

    gamma: float
    alpha: float
    n_iters: int
    schedule: Schedule = Schedule.FIXED_HORIZON
    seed: int = 0
    diag_every: int = 0
    init_beta: Optional[Array] = None
    init_theta: Optional[Array] = None

    def __post_init__(self):
        if self.gamma <= 0:
            raise ConfigurationError("gamma must be positive")
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        if self.n_iters < 1:
            raise ConfigurationError("n_iters must be >= 1")
        if self.diag_every < 0:
            raise ConfigurationError("diag_every must be nonnegative")


@dataclass
class RunRecord:
    """Full trajectory of one run plus the random stopping index.

    ``betas``/``thetas`` have N+1 rows (z^0 through z^N); ``taus`` has N
    entries.  The stopping index is drawn after the loop from a dedicated
    substream so the trajectory is independent of it, and any S maps onto a
    recorded state.
    """

    betas: Array
    thetas: Array
    taus: Array
    stop_index: int
    seed: int
    diagnostics: list = field(default_factory=list)

    @property
    def stopped_state(self) -> IterateState:
        s = self.stop_index
        return IterateState(self.betas[s].copy(), self.thetas[s].copy(), s)

    @property
    def final_state(self) -> IterateState:
        n = len(self.taus)
        return IterateState(self.betas[n].copy(), self.thetas[n].copy(), n)


def compute_direction(problem: ProblemSpec, state: IterateState,
                      sample: tuple, gamma: float) -> Direction:
    """Stochastic direction at ``state`` from one joint sample.

    ``sample`` is (x, y), or a stack of samples with leading batch axes.
    Performs exactly one evaluation each of the inner function, the model,
    and the outer function.
    """
    if gamma <= 0:
        raise ConfigurationError("gamma must be positive")
    x, y = sample
    f_value, f_grad = evaluate_inner(problem, x, y, state.beta)
    psi_value, psi_grad = evaluate_model(problem, x, state.theta)
    _, g_grad, _ = evaluate_outer(problem, psi_value)
    d_beta = -_matvec(f_grad, g_grad)
    d_theta = gamma * _matvec(psi_grad, f_value - psi_value)
    return Direction(d_beta, d_theta)


def step(state: IterateState, direction: Direction, tau: float) -> IterateState:
    """Advance one iteration: z' = z + tau * d, k' = k + 1."""
    if tau <= 0:
        raise ConfigurationError("tau must be positive")
    return IterateState(
        beta=state.beta + tau * direction.d_beta,
        theta=state.theta + tau * direction.d_theta,
        k=state.k + 1,
    )


def stepsize(schedule: Schedule, k: int, n_iters: int, alpha: float) -> float:
    """tau_k for the given schedule."""
    if not 0 <= k < n_iters:
        raise ConfigurationError(f"iteration index {k} outside [0, {n_iters})")
    if schedule is Schedule.FIXED_HORIZON:
        return alpha / math.sqrt(n_iters)
    return alpha / math.sqrt(k + 1)


def stepsizes(schedule: Schedule, n_iters: int, alpha: float) -> Array:
    """All of tau_0 .. tau_{N-1} at once, bit for bit equal to ``stepsize``."""
    if schedule is Schedule.FIXED_HORIZON:
        return np.full(n_iters, alpha / math.sqrt(n_iters))
    return alpha / np.sqrt(np.arange(1, n_iters + 1))


def draw_stop_index(schedule: Schedule, n_iters: int, alpha: float,
                    rng: np.random.Generator) -> int:
    """Draw the reporting index S according to the schedule's stopping law."""
    if n_iters < 1:
        raise ConfigurationError("n_iters must be >= 1")
    if schedule is Schedule.FIXED_HORIZON:
        return int(rng.integers(n_iters))
    taus = stepsizes(schedule, n_iters, alpha)
    return int(rng.choice(n_iters, p=taus / taus.sum()))


def run(problem: ProblemSpec, config: RunConfig,
        diagnostics_fn: Optional[Callable] = None) -> RunRecord:
    """Execute N iterations and draw the stopping index.

    The trajectory consumes exactly N joint samples from its own substream.
    If ``config.diag_every > 0`` and ``diagnostics_fn`` is given, the callback
    ``diagnostics_fn(state, rng)`` is invoked at every multiple of
    ``diag_every`` with a separate random substream, and its return value is
    recorded as ``(k, report)``.
    """
    n = config.n_iters
    beta = (np.zeros(problem.dim_beta) if config.init_beta is None
            else np.asarray(config.init_beta, dtype=float))
    theta = (np.zeros(problem.dim_theta) if config.init_theta is None
             else np.asarray(config.init_theta, dtype=float))
    if len(beta) != problem.dim_beta or len(theta) != problem.dim_theta:
        raise ConfigurationError("init vectors do not match problem dimensions")

    rng_traj = seeding.substream(config.seed, seeding.STREAM_TRAJECTORY)
    rng_diag = seeding.substream(config.seed, seeding.STREAM_DIAGNOSTICS)

    betas = np.empty((n + 1, problem.dim_beta))
    thetas = np.empty((n + 1, problem.dim_theta))
    taus = stepsizes(config.schedule, n, config.alpha)
    betas[0], thetas[0] = beta, theta

    # The loop rebinds state's arrays, never writes into them; a callback
    # gets a snapshot of its own.
    state = IterateState(beta, theta, 0)
    diagnostics = []
    for k, tau in enumerate(taus.tolist()):
        if diagnostics_fn is not None and config.diag_every > 0 and k % config.diag_every == 0:
            snapshot = IterateState(state.beta, state.theta, k)
            diagnostics.append((k, diagnostics_fn(snapshot, rng_diag)))
        try:
            direction = compute_direction(
                problem, state, sample_joint(problem, rng_traj), config.gamma)
        except EvaluationError as exc:
            raise EvaluationError(
                f"evaluation failed at iteration {k}: {exc}",
                offending_input=exc.offending_input, iteration=k,
            ) from exc
        state.beta = betas[k + 1] = state.beta + tau * direction.d_beta
        state.theta = thetas[k + 1] = state.theta + tau * direction.d_theta

    rng_stop = seeding.substream(config.seed, seeding.STREAM_STOPPING)
    stop = draw_stop_index(config.schedule, n, config.alpha, rng_stop)
    return RunRecord(betas=betas, thetas=thetas, taus=taus,
                     stop_index=stop, seed=config.seed,
                     diagnostics=diagnostics)
