"""Exception hierarchy shared across the package."""


class CtxoptError(Exception):
    """Base class for all package errors."""


class ConfigurationError(CtxoptError):
    """Invalid dimensions, parameters, or config files."""


class EvaluationError(CtxoptError):
    """An evaluator produced a non-finite or mis-shaped output.

    Carries the offending input so rate experiments fail loudly instead of
    silently propagating NaNs, and the engine iteration when it has one.
    """

    def __init__(self, message, offending_input=None, iteration=None):
        super().__init__(message)
        self.offending_input = offending_input
        self.iteration = iteration


class CapabilityError(CtxoptError):
    """A diagnostic was requested that the problem cannot support
    (missing support enumeration or conditional oracle)."""


class DomainError(CtxoptError):
    """A derived-constant formula was evaluated outside its valid domain
    (lambda at or below its floor, gamma at or below gamma_min, ...)."""
