"""Config schema: command names, and each section key's default and domain.

Every key maps to (default, domain). A default of REQUIRED marks a key the
user must supply; every other default is materialized into the echoed
config, and a default of None means "auto", which the key also accepts when
given. parse_config checks each given value against its domain before
anything is written, that every point (a list in system.params, the
command's x and v) has system.params.d entries and ibp.i < d, and that the
horizon the command integrates to is a whole number of steps h
(`engine.grid_steps`); integrator.T is that horizon for simulate alone, and
check has none. Only what needs the built family is checked later:
converge's lambda0 and eps < eps0.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import is_integer, is_number, is_positive
from .estimators import PAYOFFS

SCHEMA_VERSION = "flowlab-config-v1"

COMMANDS = ("check", "simulate", "gradient", "converge", "ibp", "krylov",
            "moments")

REQUIRED = object()


@dataclass(frozen=True)
class Domain:
    """The values a key accepts, and how an error message names them."""

    description: str
    accepts: Callable[[object], bool]


def _positives(value, least: int) -> bool:
    return (isinstance(value, list) and len(value) >= least
            and all(map(is_positive, value)))


def choice(*options: str) -> Domain:
    return Domain(f"one of {', '.join(options)}",
                  lambda value: isinstance(value, str) and value in options)


NUMBER = Domain("a finite number",
                lambda value: is_number(value) and math.isfinite(value))
POSITIVE = Domain("a positive number", is_positive)
COUNT = Domain("an integer of at least 1", partial(is_integer, least=1))
GRID = Domain("an integer of at least 2", partial(is_integer, least=2))
INDEX = Domain("an integer of at least 0", partial(is_integer, least=0))
PHILOX_KEY = Domain("an integer in [0, 2**64)",
                    partial(is_integer, least=0, bound=2**64))
STRING = Domain("a string", lambda value: isinstance(value, str))
POSITIVES = Domain("a non-empty list of positive numbers",
                   lambda value: _positives(value, 1))
DESCENDING = Domain(
    "a descending list of at least two positive numbers",
    lambda value: _positives(value, 2) and value == sorted(value,
                                                          reverse=True))
POINT = Domain("a list of finite numbers",
               lambda value: isinstance(value, list)
               and all(map(NUMBER.accepts, value)))
# a system parameter whose default is null: the drift vector of constant,
# whose length parse_config checks against the system's d
VECTOR = Domain("null or a list of d finite numbers",
                lambda value: value is None or POINT.accepts(value))

SCHEMA = {
    "integrator": {
        "h": (1e-3, POSITIVE),
        "T": (1.0, POSITIVE),
        "guard_radius": (1e6, POSITIVE),
    },
    "mc": {
        "n_paths": (100000, COUNT),
        "master_seed": (0, PHILOX_KEY),
    },
    "output": {
        "directory": ("", STRING),
        "stride": (1, COUNT),
    },
    "gradient": {
        "x": (REQUIRED, POINT),
        "v": (REQUIRED, POINT),
        "payoff": ("identity", choice(*PAYOFFS)),
        "t": (1.0, POSITIVE),
        "method": ("bel", choice("bel", "fd")),
        "delta": (1e-3, POSITIVE),
    },
    "moments": {
        "x": (REQUIRED, POINT),
        "v": (REQUIRED, POINT),
        "p": (2.0, POSITIVE),
        "t": (0.1, POSITIVE),
    },
    "simulate": {
        "x": (REQUIRED, POINT),
        "v": (REQUIRED, POINT),
        "path_index": (0, PHILOX_KEY),
    },
    "converge": {
        "eps_list": (REQUIRED, DESCENDING),
        "x": (REQUIRED, POINT),
        "v": (REQUIRED, POINT),
        "T": (0.1, POSITIVE),
        "lambda0": (None, POSITIVE),
        "eps0": (None, POSITIVE),
    },
    "check": {
        "radius": (10.0, POSITIVE),
        "p_list": ([1.0], POSITIVES),
    },
    "ibp": {
        "t": (0.1, POSITIVE),
        "box": (1.0, POSITIVE),
        "n_grid": (101, GRID),
        "bump_radius": (0.8, POSITIVE),
        "i": (0, INDEX),
        "n_omega": (4, COUNT),
    },
    "krylov": {
        "x": (REQUIRED, POINT),
        "T": (0.25, POSITIVE),
        "R": (2.0, POSITIVE),
    },
}
