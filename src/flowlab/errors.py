"""Exception types shared across the package."""


class FlowlabError(Exception):
    """Base class for all flowlab errors."""


class SingularPointError(FlowlabError):
    """Evaluation requested inside a declared singular region."""


class RadiusTooSmallError(FlowlabError):
    """Truncation radius below the admissible minimum R1 + 1."""


class ParameterConstraintError(FlowlabError):
    """A builtin system parameter violates its admissibility inequality."""

    def __init__(self, message: str, constraint: str):
        super().__init__(message)
        self.constraint = constraint


class IntegrationError(FlowlabError):
    """Non-finite coefficient values encountered during time stepping."""

    def __init__(self, message: str, step: int, point):
        super().__init__(message)
        self.step = step
        self.point = point


class ZeroDerivativeStateError(FlowlabError):
    """Derivative state hit zero; the exponential representation needs |v| > 0."""


class ConfigError(FlowlabError):
    """Experiment configuration failed to parse or validate."""
