"""Config schema: command names, per-section known keys, and defaults.

A default of REQUIRED marks a key the user must supply; everything else is
materialized into the echoed config (None means "auto"). A key whose default
is a number, or None, takes a number, and a key whose default is a string
takes a string. REQUIRED carries no type, so list-valued keys are named in
NUMBER_LISTS; the points x and v are checked, once the system is built, to
be lists of numbers with one entry per dimension.
"""

SCHEMA_VERSION = "flowlab-config-v1"

COMMANDS = ("check", "simulate", "gradient", "converge", "ibp", "krylov",
            "moments")

REQUIRED = "__required__"

_DEFAULTS = {
    "integrator": {
        "h": 1e-3,
        "T": 1.0,
        "guard_radius": 1e6,
    },
    "mc": {
        "n_paths": 100000,
        "master_seed": 0,
    },
    "output": {
        "directory": "",
        "stride": 1,
    },
    "gradient": {
        "x": REQUIRED,
        "v": REQUIRED,
        "payoff": "identity",
        "t": 1.0,
        "method": "bel",
        "delta": 1e-3,
    },
    "moments": {
        "x": REQUIRED,
        "v": REQUIRED,
        "p": 2.0,
        "t": 0.1,
    },
    "simulate": {
        "x": REQUIRED,
        "v": REQUIRED,
        "path_index": 0,
    },
    "converge": {
        "eps_list": REQUIRED,
        "x": REQUIRED,
        "v": REQUIRED,
        "T": 0.1,
        "lambda0": None,
        "eps0": None,
    },
    "check": {
        "radius": 10.0,
        "p_list": [1.0],
    },
    "ibp": {
        "t": 0.1,
        "box": 1.0,
        "n_grid": 101,
        "bump_radius": 0.8,
        "i": 0,
        "n_omega": 4,
    },
    "krylov": {
        "x": REQUIRED,
        "T": 0.25,
        "R": 2.0,
    },
}

NUMBER_LISTS = {"eps_list", "p_list"}

SECTION_KEYS = {name: set(keys) for name, keys in _DEFAULTS.items()}


def defaults_for(section: str) -> dict:
    return dict(_DEFAULTS[section])
