"""Solver library and experiment harness for contextual stochastic
optimization problems of the form min_beta E[g(E[f(X, Y, beta) | X])]."""

from .engine import RunConfig, RunRecord, Schedule, run
from .errors import (
    CapabilityError,
    ConfigurationError,
    CtxoptError,
    DomainError,
    EvaluationError,
)
from .model import ProblemSpec
from .constants import ConstantLedger, DerivedConstants
from .problems import make_bernoulli_testbed, make_linear_gaussian, make_linear_outer

__version__ = "0.1.0"

__all__ = [
    "CapabilityError", "ConfigurationError", "ConstantLedger", "CtxoptError",
    "DerivedConstants", "DomainError", "EvaluationError", "ProblemSpec",
    "RunConfig", "RunRecord", "Schedule", "make_bernoulli_testbed",
    "make_linear_gaussian", "make_linear_outer", "run",
]
