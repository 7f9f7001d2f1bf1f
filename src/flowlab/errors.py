"""Exception types shared across the package."""

import copyreg


class FlowlabError(Exception):
    """Base class for all flowlab errors."""

    def __reduce__(self):
        # rebuilt without __init__, from its args and attributes, so that a
        # subclass whose __init__ takes more than the message survives the
        # pickle round trip from a worker process
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


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
