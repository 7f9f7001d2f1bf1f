"""Exception types shared across the package, and the two argument rules
that the config schema and every library check share (a positive, finite
real; an integer of at least some value): a predicate each, one raiser."""

import copyreg
import math
import numbers


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


def is_number(value) -> bool:
    """A real scalar: numbers.Real, bool excluded."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_positive(value) -> bool:
    """A real scalar with 0 < value < inf (so nan fails)."""
    return is_number(value) and 0 < value < math.inf


def is_integer(value, least: int, bound: float = math.inf) -> bool:
    """numbers.Integral, bool excluded, with least <= value < bound."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and least <= value < bound)


def require(name: str, value, least: int | None = None) -> None:
    """ValueError naming the argument unless is_positive(value) or, when
    least is given, is_integer(value, least)."""
    if least is None and not is_positive(value):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if least is not None and not is_integer(value, least):
        raise ValueError(f"{name} must be an integer of at least {least}, "
                         f"got {value!r}")
