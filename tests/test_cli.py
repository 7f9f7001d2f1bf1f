"""Tests for config parsing, artifact writing, exit codes and determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowlab.estimators as est_module
from flowlab import CheckSpec, builtin, check_assumptions
from flowlab.cli import main, parse_config, run
from flowlab.cli_defaults import SCHEMA
from flowlab.errors import ConfigError


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return path


def gradient_config(**overrides):
    config = {
        "command": "gradient",
        "system": {"name": "ornstein_uhlenbeck",
                   "params": {"theta": 1.0, "sigma": 1.0, "d": 1}},
        "integrator": {"h": 5e-3, "T": 1.0},
        "mc": {"n_paths": 2000, "master_seed": 9},
        "gradient": {"x": [0.0], "v": [1.0], "t": 1.0},
    }
    config.update(overrides)
    return config


# each command's smallest block on the 1-d Ornstein-Uhlenbeck system; every
# run of minimal_config takes a few milliseconds
MINIMAL_BLOCKS = {
    "gradient": {"x": [0.0], "v": [1.0]},
    "moments": {"x": [0.0], "v": [1.0]},
    "simulate": {"x": [0.0], "v": [1.0]},
    "converge": {"eps_list": [0.01, 0.005], "x": [0.0], "v": [1.0],
                 "T": 0.05},
    "check": {},
    "ibp": {"n_grid": 11, "n_omega": 1},
    "krylov": {"x": [0.0]},
}


def minimal_config(command):
    return {
        "command": command,
        "system": {"name": "ornstein_uhlenbeck", "params": {"d": 1}},
        "integrator": {"h": 1e-2, "T": 0.1},
        "mc": {"n_paths": 8},
        "output": {},
        command: dict(MINIMAL_BLOCKS[command]),
    }


# ---------------------------------------------------------------------------
# parsing

def test_parse_minimal_config_materializes_defaults(tmp_path):
    path = write(tmp_path, "g.json", {
        "command": "gradient",
        "system": {"name": "ornstein_uhlenbeck"},
        "gradient": {"x": [0.0], "v": [1.0]},
    })
    config = parse_config(path)
    assert config.resolved["integrator"]["h"] == 1e-3
    assert config.resolved["mc"]["n_paths"] == 100000
    assert config.resolved["gradient"]["payoff"] == "identity"
    assert config.resolved["gradient"]["method"] == "bel"


def test_parse_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"command": "gradient", "command": "moments",'
                    '"system": {"name": "constant"},'
                    '"gradient": {"x": [0.0], "v": [1.0]}}')
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(path)


def test_parse_rejects_unknown_keys(tmp_path):
    path = write(tmp_path, "bad.json", gradient_config(extra={"a": 1}))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path)
    cfg = gradient_config()
    cfg["mc"]["n_pathz"] = 3
    path2 = write(tmp_path, "bad2.json", cfg)
    with pytest.raises(ConfigError, match="n_pathz"):
        parse_config(path2)
    # the clamp radius belongs to the system, not the integrator
    cfg = gradient_config()
    cfg["integrator"]["r_min"] = 1e-6
    path3 = write(tmp_path, "bad3.json", cfg)
    with pytest.raises(ConfigError, match="r_min"):
        parse_config(path3)


def test_parse_reports_position_on_syntax_error(tmp_path):
    path = tmp_path / "syntax.json"
    path.write_text('{"command": "gradient",\n  oops\n}')
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


def test_parse_missing_required_key(tmp_path):
    cfg = gradient_config()
    del cfg["gradient"]["x"]
    path = write(tmp_path, "missing.json", cfg)
    with pytest.raises(ConfigError, match="gradient.'x'"):
        parse_config(path)


def test_hash_insensitive_to_key_order(tmp_path):
    cfg = gradient_config()
    reordered = {k: cfg[k] for k in reversed(list(cfg))}
    p1 = write(tmp_path, "a.json", cfg)
    p2 = write(tmp_path, "b.json", reordered)
    assert parse_config(p1).params_hash == parse_config(p2).params_hash


def test_hash_covers_the_parameters_the_system_is_built_from(tmp_path):
    # q1 = 0.8 is example21's default, so both configs build the same system
    hashes = []
    for name, params in (("a.json", {}), ("b.json", {"q1": 0.8})):
        cfg = gradient_config(system={"name": "example21", "params": params})
        cfg["gradient"] = {"x": [0.3, 0.0], "v": [1.0, 0.0]}
        hashes.append(parse_config(write(tmp_path, name, cfg)).params_hash)
    assert hashes[0] == hashes[1]


def test_hash_ignores_output_directory(tmp_path):
    c1 = gradient_config(output={"directory": "x"})
    c2 = gradient_config(output={"directory": "y"})
    h1 = parse_config(write(tmp_path, "a.json", c1)).params_hash
    h2 = parse_config(write(tmp_path, "b.json", c2)).params_hash
    assert h1 == h2


# ---------------------------------------------------------------------------
# run + artifacts

def test_run_gradient_writes_artifacts_and_estimates(tmp_path):
    path = write(tmp_path, "g.json", gradient_config())
    out = tmp_path / "out"
    code = run("gradient", path, out=str(out))
    assert code == 0
    assert (out / "config.echo.json").exists()
    assert (out / "run.log").exists()
    lines = (out / "result.csv").read_text().splitlines()
    assert lines[0] == ("estimator,system,params_hash,t,value,std_error,"
                       "n_paths,h,flags")
    fields = lines[1].split(",")
    assert fields[0] == "gradient_bel"
    assert fields[1] == "ornstein_uhlenbeck"
    assert "seed=9" in fields[8]
    # coarse statistical sanity at this desk scale
    assert abs(float(fields[4]) - math.exp(-1.0)) < 0.1
    echo = json.loads((out / "config.echo.json").read_text())
    assert echo["params_hash"] == fields[2]


@pytest.mark.parametrize("command", sorted(MINIMAL_BLOCKS))
def test_run_writes_the_row_context_on_every_row(tmp_path, command):
    # one writer adds the system, hash, step and seed to each command's rows
    path = write(tmp_path, "c.json", minimal_config(command))
    out = tmp_path / "out"
    assert run(command, path, out=str(out)) == 0
    echo = json.loads((out / "config.echo.json").read_text())
    rows = (out / "result.csv").read_text().splitlines()[1:]
    assert rows
    for row in rows:
        fields = row.split(",")
        assert fields[1] == "ornstein_uhlenbeck"
        assert fields[2] == echo["params_hash"]
        assert fields[7] == "0.01"
        assert fields[8].startswith("seed=")


def test_run_check_rejects_invalid_example21(tmp_path, capsys):
    path = write(tmp_path, "c.json", {
        "command": "check",
        "system": {"name": "example21", "params": {"d": 2, "q3": 0.7}},
    })
    code = run("check", path, out=str(tmp_path / "o"))
    assert code == 2
    assert "q3 < d/(d+1)" in capsys.readouterr().err


def test_run_check_prints_the_empirical_constants(tmp_path):
    # (c2) and (c4aa) report the largest empirical constant over p_list
    path = write(tmp_path, "c.json", {
        "command": "check",
        "system": {"name": "example21"},
        "check": {"p_list": [1, 2]},
    })
    out = tmp_path / "o"
    assert run("check", path, out=str(out)) == 0
    rows = {line.split(",")[0]: line.split(",") for line in
            (out / "result.csv").read_text().splitlines()[1:]}
    reports = check_assumptions(builtin("example21"),
                                CheckSpec(radius=10.0, p_list=(1, 2)))
    for name in ("c2", "c4aa"):
        value = float(rows[f"check_{name}"][4])
        assert math.isfinite(value)
        assert value == max(reports[name].detail["empirical_C"].values())
        assert "status=pass" in rows[f"check_{name}"][8]


def test_run_simulate_zero_coefficients_constant_rows(tmp_path):
    path = write(tmp_path, "s.json", {
        "command": "simulate",
        "system": {"name": "constant", "params": {"sigma": 0.0, "d": 2}},
        "integrator": {"h": 0.1, "T": 1.0},
        "simulate": {"x": [0.25, -0.5], "v": [1.0, 0.0]},
    })
    out = tmp_path / "o"
    assert run("simulate", path, out=str(out)) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x1,x2,v1,v2,exploded,clamped"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 11
    assert all(r[1] == "0.25" and r[2] == "-0.5" for r in rows)


def test_run_command_mismatch(tmp_path, capsys):
    path = write(tmp_path, "g.json", gradient_config())
    assert run("moments", path) == 2
    assert "declares command" in capsys.readouterr().err


def test_run_unreliable_exit_code(tmp_path):
    path = write(tmp_path, "m.json", {
        "command": "moments",
        "system": {"name": "additive_noise", "params": {"sigma": 1.0, "d": 1}},
        "integrator": {"h": 1e-2, "T": 1.0, "guard_radius": 0.5},
        "mc": {"n_paths": 400, "master_seed": 0},
        "moments": {"x": [0.0], "v": [1.0], "t": 0.5},
    })
    code = run("moments", path, out=str(tmp_path / "o"))
    assert code == 3


def test_run_converge_command(tmp_path):
    path = write(tmp_path, "c.json", {
        "command": "converge",
        "system": {"name": "example21"},
        "integrator": {"h": 1e-2, "T": 1.0},
        "mc": {"n_paths": 64, "master_seed": 3},
        "converge": {"eps_list": [0.2, 0.1], "x": [0.3, 0.0],
                     "v": [1.0, 0.0], "T": 0.03, "eps0": 0.25},
    })
    out = tmp_path / "o"
    assert run("converge", path, out=str(out)) == 0
    lines = (out / "result.csv").read_text().splitlines()
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["converge_flow", "converge_derivative"]
    assert "eps=0.2" in lines[1]


def test_run_command_value_error_exits_config_and_logs(tmp_path, capsys):
    # eps_list outside (0, eps0) is only detected inside the command
    path = write(tmp_path, "c.json", {
        "command": "converge",
        "system": {"name": "example21"},
        "integrator": {"h": 1e-2, "T": 1.0},
        "mc": {"n_paths": 64, "master_seed": 3},
        "converge": {"eps_list": [0.5, 0.1], "x": [0.3, 0.0],
                     "v": [1.0, 0.0], "T": 0.03, "eps0": 0.25},
    })
    out = tmp_path / "o"
    assert run("converge", path, out=str(out)) == 2
    assert "eps must lie in" in capsys.readouterr().err
    log = (out / "run.log").read_text()
    assert "status: failed: eps must lie in" in log
    assert not (out / "result.csv").exists()


@pytest.mark.parametrize("n_paths,workers,named", [
    (0, 1, "mc.n_paths"),
    (-4, 1, "mc.n_paths"),
    (2000, 0, "--workers"),
    (2000, -3, "--workers"),
])
def test_run_rejects_nonpositive_paths_and_workers(tmp_path, capsys, n_paths,
                                                   workers, named):
    cfg = gradient_config()
    cfg["mc"]["n_paths"] = n_paths
    path = write(tmp_path, "g.json", cfg)
    out = tmp_path / "o"
    code = main(["gradient", str(path), "--out", str(out),
                 "--workers", str(workers)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (out / "result.csv").exists()


# a command block on the 2-d example21 whose named key has another length
WRONG_DIMENSION = {
    "gradient.x": {"x": [0.3], "v": [1.0, 0.0]},
    "moments.v": {"x": [0.3, 0.0], "v": [1.0, 0.0, 0.0]},
    "simulate.x": {"x": [0.3, 0.0, 0.0], "v": [1.0, 0.0]},
    "krylov.x": {"x": [0.3]},
}


@pytest.mark.parametrize("key", sorted(WRONG_DIMENSION))
def test_run_rejects_points_of_the_wrong_dimension(tmp_path, capsys, key):
    command = key.split(".")[0]
    block = WRONG_DIMENSION[key]
    path = write(tmp_path, "c.json", {
        "command": command,
        "system": {"name": "example21"},
        "integrator": {"h": 1e-2, "T": 0.1},
        "mc": {"n_paths": 8},
        command: block,
    })
    out = tmp_path / "o"
    assert run(command, path, out=str(out)) == 2
    assert key in capsys.readouterr().err
    assert f"status: failed: {key}" in (out / "run.log").read_text()
    assert not (out / "result.csv").exists()


# a point with an entry that is not a finite number (JSON strings,
# booleans, NaN and Infinity), rejected before the echo is written
WRONG_ENTRY_TYPE = {
    "gradient.x": ("gradient", {"x": ["0.5"], "v": [1.0]}),
    "moments.v": ("moments", {"x": [0.0], "v": [True]}),
    "krylov.x": ("krylov", {"x": [math.nan]}),
    "simulate.v": ("simulate", {"x": [0.0], "v": [math.inf]}),
}


@pytest.mark.parametrize("key", sorted(WRONG_ENTRY_TYPE))
def test_run_rejects_points_with_entries_that_are_not_numbers(tmp_path,
                                                              capsys, key):
    command, block = WRONG_ENTRY_TYPE[key]
    path = write(tmp_path, "c.json", {
        "command": command,
        "system": {"name": "ornstein_uhlenbeck", "params": {"d": 1}},
        "integrator": {"h": 1e-2, "T": 0.1},
        "mc": {"n_paths": 8},
        command: block,
    })
    out = tmp_path / "o"
    assert run(command, path, out=str(out)) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


# keys of the Philox stream out of [0, 2^64), as config values or via --seed
PHILOX_KEYS = {
    "master_seed=-1": ("gradient", {"mc": {"n_paths": 8, "master_seed": -1}},
                       [], "mc.master_seed"),
    "master_seed=2**64": ("gradient",
                          {"mc": {"n_paths": 8, "master_seed": 2**64}}, [],
                          "mc.master_seed"),
    "--seed=-5": ("gradient", {"mc": {"n_paths": 8}}, ["--seed", "-5"],
                  "mc.master_seed"),
    "path_index=-1": ("simulate", {"simulate": {"x": [0.0], "v": [1.0],
                                                "path_index": -1}}, [],
                      "simulate.path_index"),
    "path_index=2**64": ("simulate", {"simulate": {"x": [0.0], "v": [1.0],
                                                   "path_index": 2**64}}, [],
                         "simulate.path_index"),
}


@pytest.mark.parametrize("case", sorted(PHILOX_KEYS))
def test_run_rejects_philox_keys_out_of_range(tmp_path, capsys, case):
    command, overrides, flags, named = PHILOX_KEYS[case]
    cfg = gradient_config(command=command, **overrides)
    if command != "gradient":
        del cfg["gradient"]
    path = write(tmp_path, "c.json", cfg)
    out = tmp_path / "o"
    assert main([command, str(path), "--out", str(out), *flags]) == 2
    assert named in capsys.readouterr().err
    # rejected before the echo is written, so nothing is left behind
    assert not out.exists()


def test_run_rejects_ibp_coordinate_out_of_range(tmp_path, capsys):
    path = write(tmp_path, "i.json", {
        "command": "ibp",
        "system": {"name": "additive_noise", "params": {"sigma": 1.0, "d": 1}},
        "integrator": {"h": 1e-2, "T": 1.0},
        "ibp": {"t": 0.05, "n_grid": 11, "i": 5, "n_omega": 1},
    })
    out = tmp_path / "o"
    assert run("ibp", path, out=str(out)) == 2
    assert "ibp.i" in capsys.readouterr().err
    assert "status: failed: ibp.i" in (out / "run.log").read_text()
    assert not (out / "result.csv").exists()


# keys that name no parameter of the builtin, values of the wrong type, and
# dimensions and strides that are not positive integers
BAD_KEYS = {
    "system.params.bogus": {"system": {"name": "ornstein_uhlenbeck",
                                       "params": {"bogus": 1}}},
    "system.params=list": {"system": {"name": "ornstein_uhlenbeck",
                                      "params": [1]}},
    "system.params.theta=str": {"system": {"name": "ornstein_uhlenbeck",
                                           "params": {"theta": "1"}}},
    "system.params.d=2.5": {"system": {"name": "ornstein_uhlenbeck",
                                       "params": {"d": 2.5}}},
    "system.params.d=-1": {"system": {"name": "ornstein_uhlenbeck",
                                      "params": {"d": -1}}},
    # example21's Jacobians are in closed form; it has no difference step
    "system.params.h_fd": {"system": {"name": "example21",
                                      "params": {"h_fd": 1e-5}}},
    "system.params.theta=NaN": {"system": {"name": "ornstein_uhlenbeck",
                                           "params": {"theta": math.nan}}},
    "system.params.sigma=Infinity": {"system": {"name": "constant",
                                                "params": {"sigma": math.inf}}},
    # constant's drift is null or one finite number per dimension, and its
    # diffusion fields are the d basis fields, so it takes no m
    "system.params.drift=2-vector": {"system": {"name": "constant",
                                                "params": {"drift": [1, 2]}}},
    "system.params.drift=3": {"system": {"name": "constant",
                                         "params": {"drift": 3}}},
    "system.params.drift=abc": {"system": {"name": "constant",
                                           "params": {"drift": "abc"}}},
    "system.params.drift=[NaN]": {"system": {"name": "constant",
                                             "params": {"drift": [math.nan]}}},
    "system.params.m": {"system": {"name": "constant", "params": {"m": 1}}},
    "integrator.h=str": {"integrator": {"h": "0.01", "T": 0.1}},
    "integrator.h=bool": {"integrator": {"h": True, "T": 0.1}},
    "mc.n_paths=bool": {"mc": {"n_paths": True}},
    "mc=number": {"mc": 8},
    "moments.t=str": {"moments": {"x": [0.0], "v": [1.0], "t": "0.1"}},
    "output.stride=0": {"output": {"stride": 0}},
    "output.stride=-1": {"output": {"stride": -1}},
    "output.stride=1.5": {"output": {"stride": 1.5}},
}


@pytest.mark.parametrize("case", sorted(BAD_KEYS))
def test_run_rejects_unknown_params_and_non_numbers(tmp_path, capsys, case):
    config = {
        "command": "moments",
        "system": {"name": "ornstein_uhlenbeck", "params": {"d": 1}},
        "integrator": {"h": 1e-2, "T": 0.1},
        "mc": {"n_paths": 8},
        "moments": {"x": [0.0], "v": [1.0]},
    }
    config.update(BAD_KEYS[case])
    path = write(tmp_path, "m.json", config)
    out = tmp_path / "o"
    assert main(["moments", str(path), "--out", str(out)]) == 2
    assert case.split("=")[0] in capsys.readouterr().err
    # rejected before the echo is written, so nothing is left behind
    assert not out.exists()


@pytest.mark.parametrize("name", ["nope", ["ornstein_uhlenbeck"]],
                         ids=["unknown", "list"])
def test_run_rejects_a_system_name_that_is_not_a_builtin(tmp_path, capsys,
                                                         name):
    config = minimal_config("moments")
    config["system"]["name"] = name
    path = write(tmp_path, "m.json", config)
    out = tmp_path / "o"
    assert run("moments", path, out=str(out)) == 2
    assert "unknown builtin" in capsys.readouterr().err
    assert not out.exists()


# string- and list-valued keys given a value of another type
BAD_TYPES = {
    "gradient.payoff=list": ("gradient", {"x": [0.0], "v": [1.0],
                                          "payoff": ["sin"]}),
    "check.p_list=str": ("check", {"p_list": ["2"]}),
    "check.p_list=number": ("check", {"p_list": 2.0}),
    "converge.eps_list=number": ("converge", {"eps_list": 0.01, "x": [0.0],
                                              "v": [1.0]}),
    "gradient.method=unknown": ("gradient", {"x": [0.0], "v": [1.0],
                                             "method": "bfd"}),
    "gradient.payoff=unknown": ("gradient", {"x": [0.0], "v": [1.0],
                                             "payoff": "cos"}),
    "simulate.x=number": ("simulate", {"x": 0.3, "v": [1.0]}),
}


@pytest.mark.parametrize("case", sorted(BAD_TYPES))
def test_run_rejects_badly_typed_string_and_list_keys(tmp_path, capsys, case):
    command, block = BAD_TYPES[case]
    path = write(tmp_path, "c.json", {
        "command": command,
        "system": {"name": "ornstein_uhlenbeck", "params": {"d": 1}},
        "integrator": {"h": 1e-2, "T": 0.1},
        "mc": {"n_paths": 8},
        command: block,
    })
    out = tmp_path / "o"
    assert main([command, str(path), "--out", str(out)]) == 2
    assert case.split("=")[0] in capsys.readouterr().err
    # rejected before the echo is written, so nothing is left behind
    assert not out.exists()


# values outside a key's domain in the schema; each is rejected before the
# echo is written, with an error that names the key
OUT_OF_DOMAIN = {
    "ibp.n_grid=0": ("ibp", 0),
    "ibp.n_grid=1": ("ibp", 1),
    "ibp.n_grid=2.5": ("ibp", 2.5),
    "ibp.n_omega=0": ("ibp", 0),
    "ibp.n_omega=2.5": ("ibp", 2.5),
    "moments.p=0": ("moments", 0),
    "krylov.R=-1": ("krylov", -1),
    "krylov.R=0": ("krylov", 0),
    "mc.n_paths=2.5": ("gradient", 2.5),
    "check.p_list=[]": ("check", []),
    "check.radius=0": ("check", 0),
    "converge.eps_list=[]": ("converge", []),
    "converge.eps_list=[0.2]": ("converge", [0.2]),
    "converge.eps_list=ascending": ("converge", [0.005, 0.01]),
    "ibp.box=0": ("ibp", 0),
    "ibp.box=-1": ("ibp", -1),
    "ibp.bump_radius=0": ("ibp", 0),
    "ibp.bump_radius=-0.5": ("ibp", -0.5),
    "integrator.T=inf": ("moments", math.inf),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_DOMAIN))
def test_run_rejects_values_outside_the_estimator_domain(tmp_path, capsys,
                                                         case):
    command, value = OUT_OF_DOMAIN[case]
    key = case.split("=")[0]
    section, name = key.split(".")
    config = minimal_config(command)
    config[section][name] = value
    path = write(tmp_path, "c.json", config)
    out = tmp_path / "o"
    assert run(command, path, out=str(out)) == 2
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not out.exists()


# values of every type and sign, one of which replaces one key of a
# command's minimal config
VALUE_POOL = (None, True, False, -1, 0, 2, 2.5, "0.1", [], [0.5], [0.2, 0.1])
SCHEMA_KEYS = sorted((command, section, key) for command in MINIMAL_BLOCKS
                     for section in ("integrator", "mc", "output", command)
                     for key in SCHEMA[section])


@settings(max_examples=len(SCHEMA_KEYS))
@given(st.sampled_from(SCHEMA_KEYS))
def test_run_ends_every_one_key_change_in_a_documented_exit_code(change):
    # the output directory may be drawn, so each run writes below its own
    # working directory
    command, section, key = change
    for value in VALUE_POOL:
        config = minimal_config(command)
        config[section][key] = value
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
                mock.patch.dict(os.environ), \
                warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(io.StringIO()):
            os.environ.pop("FLOWLAB_OUT", None)
            warnings.simplefilter("always")
            path = write(Path(tmp), "c.json", config)
            code = run(command, path)
            for echo in Path(tmp).rglob("config.echo.json"):
                assert (echo.parent / "run.log").exists(), (change, value)
        assert code in (0, 2, 3), (change, value, code)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], (change, value)


def test_run_unexpected_error_exits_one_and_logs(tmp_path, capsys,
                                                 monkeypatch):
    # an error no validation anticipates, raised inside the command
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(est_module, "derivative_moment", broken)
    path = write(tmp_path, "m.json", {
        "command": "moments",
        "system": {"name": "ornstein_uhlenbeck", "params": {"d": 1}},
        "integrator": {"h": 1e-2, "T": 0.1},
        "mc": {"n_paths": 8},
        "moments": {"x": [0.0], "v": [1.0], "t": 0.1},
    })
    out = tmp_path / "o"
    assert run("moments", path, out=str(out)) == 1
    assert "error: TypeError" in capsys.readouterr().err
    log = (out / "run.log").read_text()
    assert "status: failed: TypeError" in log
    assert "Traceback" in log
    assert not (out / "result.csv").exists()


def test_run_ibp_command(tmp_path):
    path = write(tmp_path, "i.json", {
        "command": "ibp",
        "system": {"name": "additive_noise", "params": {"sigma": 1.0, "d": 1}},
        "integrator": {"h": 1e-2, "T": 1.0},
        "ibp": {"t": 0.05, "box": 1.0, "n_grid": 201, "bump_radius": 0.8,
                "i": 0, "n_omega": 2},
    })
    out = tmp_path / "o"
    assert run("ibp", path, out=str(out)) == 0
    lines = (out / "result.csv").read_text().splitlines()
    rows = {line.split(",")[0]: float(line.split(",")[4])
            for line in lines[1:]}
    assert set(rows) == {"ibp_mean", "ibp_max"}
    assert rows["ibp_max"] < 1e-6


def test_run_krylov_command(tmp_path):
    path = write(tmp_path, "k.json", {
        "command": "krylov",
        "system": {"name": "additive_noise", "params": {"sigma": 1.0, "d": 1}},
        "integrator": {"h": 1e-2, "T": 1.0},
        "mc": {"n_paths": 200, "master_seed": 5},
        "krylov": {"x": [0.0], "T": 0.1, "R": 5.0},
    })
    out = tmp_path / "o"
    assert run("krylov", path, out=str(out)) == 0
    lines = (out / "result.csv").read_text().splitlines()
    rows = {line.split(",")[0]: float(line.split(",")[4])
            for line in lines[1:]}
    # tau_R never hit at R=5 over T=0.1, so lhs = sigma * T exactly
    assert rows["krylov_lhs"] == pytest.approx(0.1, rel=1e-9)
    assert 0.0 < rows["krylov_ratio"] < 1.0


def test_run_byte_identical_across_workers_and_reruns(tmp_path):
    path = write(tmp_path, "g.json", gradient_config())
    outputs = []
    for tag, workers in (("a", 1), ("b", 4), ("c", 8), ("d", 1)):
        out = tmp_path / tag
        assert run("gradient", path, workers=workers, out=str(out)) == 0
        outputs.append((out / "result.csv").read_bytes())
    assert all(o == outputs[0] for o in outputs)


def test_seed_override_changes_hash_and_results(tmp_path):
    path = write(tmp_path, "g.json", gradient_config())
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    run("gradient", path, seed=1, out=str(out1))
    run("gradient", path, seed=2, out=str(out2))
    r1 = (out1 / "result.csv").read_text().splitlines()[1].split(",")
    r2 = (out2 / "result.csv").read_text().splitlines()[1].split(",")
    assert r1[2] != r2[2]
    assert r1[4] != r2[4]
    assert "seed=1" in r1[8] and "seed=2" in r2[8]


def test_env_output_fallback(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FLOWLAB_OUT", str(tmp_path / "envout"))
    path = write(tmp_path, "g.json", gradient_config())
    assert run("gradient", path) == 0
    assert (tmp_path / "envout" / "result.csv").exists()


def test_main_entry_point(tmp_path):
    path = write(tmp_path, "g.json", gradient_config())
    code = main(["gradient", str(path), "--out", str(tmp_path / "m"),
                 "--workers", "2"])
    assert code == 0


# ---------------------------------------------------------------------------
# tracing

ROOT = Path(__file__).resolve().parent.parent


# 10 steps each: one example21 BEL flow, four mollified members of example21
# stepped side by side, and two members started where their mollifiers
# straddle the truncation sphere |x| = 4 (no finite difference there)
TRACED_CASES = {
    "gradient": ({
        "command": "gradient",
        "system": {"name": "example21", "params": {}},
        "integrator": {"h": 1e-2, "T": 0.1},
        "mc": {"n_paths": 16},
        "gradient": {"x": [0.3, 0.0], "v": [1.0, 0.0], "t": 0.1,
                     "method": "bel"},
    }, {"engine.step.calls": 10, "coefficients.fields.calls": 10,
        "coefficients.jacobians.calls": 10}),
    # two flows from v = 0: fields every step, Jacobians never
    "fd": ({
        "command": "gradient",
        "system": {"name": "example21", "params": {}},
        "integrator": {"h": 1e-2, "T": 0.1},
        "mc": {"n_paths": 16},
        "gradient": {"x": [0.3, 0.0], "v": [1.0, 0.0], "t": 0.1,
                     "method": "fd"},
    }, {"engine.step.calls": 2 * 10, "engine.step.vzero": 2 * 10,
        "coefficients.fields.calls": 2 * 10,
        "coefficients.jacobians.calls": None}),
    "converge": ({
        "command": "converge",
        "system": {"name": "example21", "params": {}},
        "integrator": {"h": 1e-2, "T": 0.1},
        "mc": {"n_paths": 4},
        "converge": {"eps_list": [0.2, 0.1, 0.05, 0.025], "eps0": 0.25,
                     "x": [0.3, 0.0], "v": [1.0, 0.0], "T": 0.1},
    }, {"engine.step.calls": 4 * 10,
        "approximation.member.fields.calls": 4 * 10,
        "approximation.member.jacobians.calls": 4 * 10,
        "coefficients.fields.calls": None}),
    "converge_kink": ({
        "command": "converge",
        "system": {"name": "example21", "params": {}},
        "integrator": {"h": 1e-2, "T": 0.1},
        "mc": {"n_paths": 4},
        "converge": {"eps_list": [0.05, 0.025], "eps0": 0.25,
                     "x": [3.97, 0.0], "v": [1.0, 0.0], "T": 0.1},
    }, {"engine.step.calls": 2 * 10,
        "approximation.member.jacobians.calls": 2 * 10,
        "approximation.member.edge_fd.points": None}),
    # the occupation integrand reads drv.fields() before each step, and the
    # step reuses that pass; from v = 0 no Jacobian is taken
    "krylov": ({
        "command": "krylov",
        "system": {"name": "example21", "params": {}},
        "integrator": {"h": 1e-2, "T": 0.1},
        "mc": {"n_paths": 16},
        "krylov": {"x": [0.3, 0.0], "T": 0.1, "R": 2.0},
    }, {"engine.step.calls": 10, "coefficients.fields.calls": 10,
        "coefficients.jacobians.calls": None}),
    # no steps: one Jacobian pass per (c3) quadrature level for every p,
    # and one outside R1 for (c4) and (c4aa); fields once for (c1), once
    # for (c2aa) and once per (c2) offset, 6 radii x 6 directions
    "check": ({
        "command": "check",
        "system": {"name": "example21", "params": {}},
        "check": {"p_list": [1, 2]},
    }, {"engine.step.calls": None, "coefficients.fields.calls": 38,
        "coefficients.jacobians.calls": 4,
        "coefficients.jacobians.points": 256 + 512 + 1024 + 384}),
}


@pytest.mark.parametrize("case", sorted(TRACED_CASES))
def test_traced_cli_counts_one_pass_per_step(tmp_path, case):
    # perfbench/traced_cli.py patches flowlab functions by name; a renamed
    # one would silently lose its span, so a short traced run must count
    # one step, one field pass and one Jacobian pass per step, charged to
    # the layer that owns the system (a member's convolution nodes are the
    # member's work, not the base system's)
    config, expected = TRACED_CASES[case]
    command = config["command"]
    path = write(tmp_path, f"{command}.json", config)
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
         str(spans), "--", command, str(path), "--out",
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(spans.read_text())["counts"]
    for name, count in expected.items():
        assert counts.get(name) == count, (name, counts.get(name))
