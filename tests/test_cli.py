"""Tests for config parsing, artifact writing, exit codes and determinism."""

import ast
import contextlib
import importlib
import io
import json
import math
import os
import pkgutil
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowlab
import flowlab.estimators as est_module
from flowlab import (CheckSpec, IntegratorConfig, builtin,
                     check_assumptions, cli)
from flowlab.cli import main, parse_config, run
from flowlab.cli_defaults import SCHEMA
from flowlab.errors import ConfigError, IntegrationError

from systems import nan_sigma_system

ROOT = Path(__file__).resolve().parent.parent


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


def read_rows(out):
    """result.csv as {name: its fields}."""
    return {line.split(",")[0]: line.split(",") for line in
            (out / "result.csv").read_text().splitlines()[1:]}


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
    rows = read_rows(out)
    reports = check_assumptions(builtin("example21"),
                                CheckSpec(radius=10.0, p_list=(1, 2)))
    for name in ("c2", "c4aa"):
        value = float(rows[f"check_{name}"][4])
        assert math.isfinite(value)
        assert value == max(reports[name].detail["empirical_C"].values())
        assert "status=pass" in rows[f"check_{name}"][8]


def test_run_check_fails_a_diffusion_matrix_that_is_not_finite(
        tmp_path, monkeypatch):
    # nan diffusion fields on the outer probes fail (c1) in its row; they
    # do not end the run in a validation error
    monkeypatch.setattr(cli, "builtin",
                        lambda name, **params: nan_sigma_system())
    path = write(tmp_path, "c.json", {
        "command": "check",
        "system": {"name": "ornstein_uhlenbeck", "params": {"d": 2}},
    })
    out = tmp_path / "o"
    assert run("check", path, out=str(out)) == 0
    rows = read_rows(out)
    assert len(rows) == 6
    assert "status=fail" in rows["check_c1"][8]
    assert rows["check_c1"][4] == "nan"


def test_run_log_counts_the_runtime_warnings_of_a_command(tmp_path, capsys):
    # example21 at q2 = 400, q4 = 800 overflows on the outer probes; the
    # suite turns RuntimeWarnings into errors, so the filters are reset here
    # as in a fresh interpreter
    path = write(tmp_path, "c.json", {
        "command": "check",
        "system": {"name": "example21",
                   "params": {"q2": 400.0, "q4": 800.0}},
    })
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.resetwarnings()
        assert run("check", path, out=str(out)) == 0
    err = capsys.readouterr().err.splitlines()
    lines = (out / "run.log").read_text().splitlines()
    assert all(": " in line for line in lines)
    (total,) = [int(line.split(": ", 1)[1]) for line in lines
                if line.startswith("runtime_warnings: ")]
    counts = [int(line.rsplit("(x", 1)[1].rstrip(")")) for line in lines
              if line.startswith("runtime_warning: ")]
    assert total > 0 and sum(counts) == total
    assert all("encountered in" in line for line in lines
               if line.startswith("runtime_warning: "))
    assert err == [f"warning: {total} RuntimeWarnings ({len(counts)} "
                   f"distinct), listed in run.log"]
    assert "status=fail" in read_rows(out)["check_c1"][8]
    # a run with no warning says so and prints nothing
    path = write(tmp_path, "m.json", minimal_config("moments"))
    with warnings.catch_warnings():
        warnings.resetwarnings()
        assert run("moments", path, out=str(tmp_path / "m")) == 0
    assert capsys.readouterr().err == ""
    log = (tmp_path / "m" / "run.log").read_text().splitlines()
    assert "runtime_warnings: 0" in log
    assert not any(line.startswith("runtime_warning: ") for line in log)


_WARNING_WORKERS = """
import sys
import flowlab.estimators as est
from flowlab.cli import main

est.CHUNK_PATHS = 8
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_runtime_warnings_of_forked_workers_are_shown_not_counted(tmp_path,
                                                                  workers):
    # far out on example21 at q2 = 400, q4 = 800 every step overflows; a
    # worker's count would be lost with it, so it prints the first of each
    # distinct warning, and run.log counts those of this process alone
    path = write(tmp_path, "g.json", {
        "command": "gradient",
        "system": {"name": "example21",
                   "params": {"q2": 400.0, "q4": 800.0}},
        "integrator": {"h": 0.01},
        "mc": {"n_paths": 40},
        "gradient": {"x": [3.5, 0.0], "v": [1.0, 0.0], "t": 0.1},
    })
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-c", _WARNING_WORKERS, "gradient", str(path),
         "--out", str(out), "--workers", str(workers)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    log = (out / "run.log").read_text().splitlines()
    shown = proc.stderr.count("RuntimeWarning: ")
    # _map_paths forks no more workers than there are usable CPUs
    if workers == 1 or len(os.sched_getaffinity(0)) == 1:
        assert shown == 0
        assert "runtime_warnings: 0" not in log
        assert "RuntimeWarnings" in proc.stderr
    else:
        assert shown > 0
        assert "runtime_warnings: 0" in log


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


@pytest.mark.parametrize("p, t, exceeded", [
    (2.0, 0.1, False),  # T0(2) = 1/6 on this system
    (2.0, 0.2, True),
    (4.0, 0.1, True),   # T0(4) = 1/12
])
def test_moments_row_flags_a_horizon_beyond_the_window(tmp_path, p, t,
                                                       exceeded):
    config = minimal_config("moments")
    config["moments"].update(p=p, t=t)
    path = write(tmp_path, "m.json", config)
    out = tmp_path / "out"
    assert run("moments", path, out=str(out)) == 0
    flags = (out / "result.csv").read_text().splitlines()[1].split(",")[8]
    assert ("window_exceeded" in flags.split(";")) == exceeded


# a drift that carries every path out of the guard ball within the horizon
STEEP_SYSTEM = {"name": "constant", "params": {"d": 1, "drift": [50]}}
STEEP_RUNS = {
    # every grid start explodes in both draws
    "ibp": ({"ibp": {"t": 0.1, "n_grid": 41, "n_omega": 2}},
            "exploded=41", "ibp_mean", 0.35745416284279474),
    # every path explodes after it has left the R-ball, so the occupation
    # integral keeps its value
    "krylov": ({"mc": {"n_paths": 64}, "krylov": {"x": [0.0], "R": 1}},
               "exploded=64", "krylov_lhs", 0.021187500000000015),
}


@pytest.mark.parametrize("command", sorted(STEEP_RUNS))
def test_run_flags_exploded_paths_it_keeps_and_exits_unreliable(tmp_path,
                                                                command):
    blocks, flag, estimator, value = STEEP_RUNS[command]
    path = write(tmp_path, "c.json", {
        "command": command, "system": STEEP_SYSTEM,
        "integrator": {"guard_radius": 1.5}, **blocks})
    out = tmp_path / "o"
    assert run(command, path, out=str(out)) == 3
    rows = [line.split(",") for line in
            (out / "result.csv").read_text().splitlines()[1:]]
    for row in rows:
        flags = row[8].split(";")
        assert flag in flags and "unreliable" in flags
        assert not any(f.startswith("excluded=") for f in flags)
    assert float(dict((r[0], r[4]) for r in rows)[estimator]) == value
    assert "status: unreliable" in (out / "run.log").read_text()


def test_run_converge_flags_the_paths_it_excludes(tmp_path):
    path = write(tmp_path, "c.json", {
        "command": "converge",
        "system": {"name": "ornstein_uhlenbeck", "params": {"d": 1}},
        "integrator": {"h": 1e-2, "T": 0.5, "guard_radius": 1.2},
        "mc": {"n_paths": 16},
        "converge": {"eps_list": [0.2, 0.1], "eps0": 0.3, "x": [0.0],
                     "v": [1.0], "T": 0.5},
    })
    out = tmp_path / "o"
    assert run("converge", path, out=str(out)) == 3
    for line in (out / "result.csv").read_text().splitlines()[1:]:
        assert line.split(",")[8].endswith(
            "excluded=2;exploded=2;unreliable")


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
    # rejected before the echo is written, so nothing is left behind
    assert not out.exists()


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
    # rejected before the echo is written, so nothing is left behind
    assert not out.exists()


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


# a config that parse_config rejects before anything is read from it: the
# command the CLI is given (None: parse_config(path) of the set-up probe),
# the document and a fragment of the message
MALFORMED = {
    "root_not_object": ("check", [1, 2], "config root must be a JSON object"),
    "unknown_schema": ("check", {"schema": "flowlab-config-v0",
                                 "command": "check"},
                       "unsupported schema 'flowlab-config-v0'"),
    "missing_command": (None, {"system": {"name": "constant"}},
                        "missing required key 'command'"),
    "unknown_command": ("check", {"command": "plot"},
                        "unknown command 'plot'"),
    "missing_system_name": ("check", {"command": "check", "system": {}},
                            "missing required key 'system.name'"),
    "unknown_system_key": ("check", {"command": "check",
                                     "system": {"name": "constant", "p": 1}},
                           "unknown key system.'p'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_run_rejects_a_malformed_config(tmp_path, capsys, case):
    command, document, fragment = MALFORMED[case]
    path = write(tmp_path, "c.json", document)
    out = tmp_path / "o"
    assert run(command, path, out=str(out)) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


# the key of the horizon each command integrates to
HORIZON_KEYS = {"gradient": "gradient.t", "moments": "moments.t",
                "ibp": "ibp.t", "converge": "converge.T",
                "krylov": "krylov.T", "simulate": "integrator.T"}


@pytest.mark.parametrize("command", sorted(HORIZON_KEYS))
def test_run_rejects_a_horizon_that_is_not_a_whole_number_of_steps(
        tmp_path, capsys, command):
    # round(t / h) steps: t = 1.0 on h = 0.3 would integrate 3 steps, to
    # 0.9, under a row that reports t = 1.0; 0.9 itself is 3 steps to
    # round-off
    section, name = HORIZON_KEYS[command].split(".")
    config = minimal_config(command)
    config["integrator"] = {"h": 0.3, "T": 0.9}
    config[section][name] = 0.9
    parse_config(write(tmp_path, "whole.json", config))
    config[section][name] = 1.0
    path = write(tmp_path, "c.json", config)
    out = tmp_path / "o"
    assert run(command, path, out=str(out)) == 2
    assert f"{HORIZON_KEYS[command]} = 1 must be a whole number of steps" \
        in capsys.readouterr().err
    assert not out.exists()


def test_run_accepts_a_horizon_within_the_grid_tolerance_of_one_step(
        tmp_path):
    # grid_steps takes t within 1e-9 relative of a whole step as that step,
    # and no second horizon rule rejects it after the echo
    config = minimal_config("gradient")
    config["integrator"] = {"h": 0.1}
    config["gradient"]["t"] = 0.09999999995
    out = tmp_path / "o"
    assert run("gradient", write(tmp_path, "g.json", config),
               out=str(out)) == 0
    assert "status: ok" in (out / "run.log").read_text()
    assert (out / "result.csv").exists()


@pytest.mark.parametrize("command", sorted(MINIMAL_BLOCKS))
def test_experiment_config_integrator_is_the_integrator_section(tmp_path,
                                                                command):
    config = minimal_config(command)
    config["integrator"]["guard_radius"] = 50.0
    parsed = parse_config(write(tmp_path, "c.json", config))
    assert parsed.integrator == IntegratorConfig(h=1e-2, T=0.1,
                                                 guard_radius=50.0)


def test_config_errors_are_raised_before_the_echo_alone():
    # every ConfigError of the CLI comes from parsing the config or from
    # run()'s --workers check, so a command handler, which runs after the
    # echo, never rejects a config value
    tree = ast.parse(Path(cli.__file__).read_text())
    raised = []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ConfigError"):
                raised.append((func.name, ast.unparse(node.exc.args[0])))
    assert {name for name, _ in raised} == {
        "_no_duplicates", "_validate_section", "parse_config", "run"}
    assert [message for name, message in raised if name == "run"] == [
        "f'--workers must be at least 1, got {workers}'"]


# integrator.T is the horizon of simulate alone: another command runs to its
# own horizon, and check integrates nothing
UNREAD_HORIZONS = {
    "gradient": ({"h": 0.5, "T": 0.25}, {"t": 1.0}),
    "check": ({"h": 2.0}, {}),
}


@pytest.mark.parametrize("command", sorted(UNREAD_HORIZONS))
def test_run_ignores_an_integrator_T_the_command_does_not_integrate(
        tmp_path, command):
    integrator, block = UNREAD_HORIZONS[command]
    config = minimal_config(command)
    config["integrator"] = integrator
    config[command].update(block)
    out = tmp_path / "o"
    assert run(command, write(tmp_path, "c.json", config), out=str(out)) == 0
    rows = read_rows(out)
    assert rows
    assert {row[7] for row in rows.values()} == {repr(integrator["h"])}


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


@pytest.mark.parametrize("command", sorted(MINIMAL_BLOCKS))
def test_every_command_byte_identical_across_workers(tmp_path, monkeypatch,
                                                     command):
    # ranges of three paths, so that four workers share the eight paths
    monkeypatch.setattr(est_module, "CHUNK_PATHS", 3)
    path = write(tmp_path, "c.json", minimal_config(command))
    outputs = []
    for tag, workers in (("a", 1), ("b", 4), ("c", 1)):
        out = tmp_path / tag
        assert run(command, path, workers=workers, out=str(out)) == 0
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


def test_seed_override_replaces_the_file_seed_before_it_is_checked(
        tmp_path):
    # --seed takes the place of the file's master_seed in the mc section's
    # one check, so a file value it replaces is never read
    path = write(tmp_path, "g.json", gradient_config(
        mc={"n_paths": 8, "master_seed": -4}))
    out = tmp_path / "o"
    assert run("gradient", path, seed=3, out=str(out)) == 0
    echo = json.loads((out / "config.echo.json").read_text())
    assert echo["mc"]["master_seed"] == 3
    assert echo["output"]["directory"] == str(out)


def test_env_output_fallback(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FLOWLAB_OUT", str(tmp_path / "envout"))
    path = write(tmp_path, "g.json", gradient_config())
    assert run("gradient", path) == 0
    assert (tmp_path / "envout" / "result.csv").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below_file"])
@pytest.mark.parametrize("given", ["--out", "output.directory",
                                   "FLOWLAB_OUT"])
def test_run_rejects_an_output_directory_it_cannot_make(tmp_path, capsys,
                                                        monkeypatch, below,
                                                        given):
    # an existing file, or a path below one: exit 2 naming the path, before
    # anything is written, and the file is left as it was
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    out = str(afile / below) if below else str(afile)
    config = minimal_config("moments")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FLOWLAB_OUT", raising=False)
    if given == "output.directory":
        config["output"]["directory"] = out
    elif given == "FLOWLAB_OUT":
        monkeypatch.setenv("FLOWLAB_OUT", out)
    args = ["--out", out] if given == "--out" else []
    path = write(tmp_path, "m.json", config)
    assert main(["moments", str(path), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(afile) in err
    assert afile.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "m.json"]


def test_main_entry_point(tmp_path):
    path = write(tmp_path, "g.json", gradient_config())
    code = main(["gradient", str(path), "--out", str(tmp_path / "m"),
                 "--workers", "2"])
    assert code == 0


def test_worker_error_exits_alike_at_one_and_two_workers(tmp_path, capsys,
                                                         monkeypatch):
    draw = est_module.increments_block

    def failing(master_seed, first_path, *args):
        if first_path >= 3:  # every range but the first
            raise IntegrationError(f"non-finite at path {first_path}",
                                   step=1, point=[0.0])
        return draw(master_seed, first_path, *args)

    monkeypatch.setattr(est_module, "increments_block", failing)
    monkeypatch.setattr(est_module, "CHUNK_PATHS", 3)
    path = write(tmp_path, "c.json", minimal_config("gradient"))
    seen = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        code = run("gradient", path, workers=workers, out=str(out))
        status = [line for line in (out / "run.log").read_text().splitlines()
                  if line.startswith("status:")]
        seen.append((code, capsys.readouterr().err, status))
    assert seen[0] == seen[1]
    assert seen[0][0] == 2
    assert seen[0][1] == "error: non-finite at path 3\n"


def test_unexpected_worker_error_exits_1_with_its_traceback(tmp_path,
                                                            monkeypatch):
    # the worker's traceback is the cause of the error the parent raises,
    # so run.log names the function that raised in the worker
    draw = est_module.increments_block

    def draw_that_breaks(master_seed, first_path, *args):
        if first_path >= 3:
            raise RuntimeError("broken draw")
        return draw(master_seed, first_path, *args)

    monkeypatch.setattr(est_module.os, "sched_getaffinity",
                        lambda pid: {0, 1})
    monkeypatch.setattr(est_module, "increments_block", draw_that_breaks)
    monkeypatch.setattr(est_module, "CHUNK_PATHS", 3)
    path = write(tmp_path, "c.json", minimal_config("gradient"))
    out = tmp_path / "out"
    assert run("gradient", path, workers=2, out=str(out)) == 1
    log = (out / "run.log").read_text()
    assert "status: failed: RuntimeError: broken draw" in log
    assert "draw_that_breaks" in log


_KILLED_WORKER = """
import os, signal, sys
import flowlab.estimators as est
from flowlab.cli import main

draw = est.increments_block

def dying(master_seed, first_path, *args):
    if first_path >= 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return draw(master_seed, first_path, *args)

est.increments_block = dying
est.CHUNK_PATHS = 3
sys.exit(main(sys.argv[1:]))
"""


def test_dead_worker_exits_1_with_run_log(tmp_path):
    path = write(tmp_path, "c.json", minimal_config("gradient"))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_WORKER, "gradient", str(path),
         "--workers", "2", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "BrokenProcessPool" in proc.stderr
    log = (out / "run.log").read_text()
    assert "status: failed: BrokenProcessPool" in log
    assert not (out / "result.csv").exists()


# ---------------------------------------------------------------------------
# memory

def cli_run_log(tmp_path, name, config, *args, launcher=()):
    """Run the CLI on config in a fresh process, started through the
    launcher command if one is given; run.log as a dict."""
    path = write(tmp_path, f"{name}.json", config)
    out = tmp_path / name
    proc = subprocess.run(
        [*launcher, sys.executable, "-m", "flowlab.cli", config["command"],
         str(path), "--out", str(out), *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = (out / "run.log").read_text().splitlines()
    return dict(line.split(": ", 1) for line in lines)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_log_records_memory(tmp_path, workers):
    # two ranges, so that two workers fork when two CPUs are usable
    config = minimal_config("gradient")
    config["mc"]["n_paths"] = 2 * est_module.CHUNK_PATHS
    log = cli_run_log(tmp_path, "g", config, "--workers", str(workers))
    assert float(log["peak_rss_mb"]) > 10.0
    assert int(log["minor_page_faults"]) > 0
    forked = workers > 1 and len(os.sched_getaffinity(0)) > 1
    assert (float(log["workers_peak_rss_mb"]) > 0.0) == forked
    assert 0.0 < float(log["import_seconds"]) < 5.0


def test_run_log_leaves_out_a_launchers_children(tmp_path):
    # a shell reaps /bin/true, then execs Python: rusage counters survive
    # exec, so that child is counted in RUSAGE_CHILDREN from the start
    launcher = ["sh", "-c", '/bin/true; exec "$0" "$@"']
    log = cli_run_log(tmp_path, "g", minimal_config("gradient"),
                      "--workers", "1", launcher=launcher)
    assert log["workers_peak_rss_mb"] == "0.00"


# h = 1e-2 throughout; each case's horizon is set to its step count
FAULT_CASES = {
    # the ex21_converge benchmark workload's members
    "converge": ({
        "command": "converge",
        "system": {"name": "example21", "params": {}},
        "integrator": {"h": 1e-2, "T": 0.1},
        "mc": {"n_paths": 32},
        "converge": {"eps_list": [0.2, 0.1, 0.05, 0.025], "eps0": 0.25,
                     "x": [0.3, 0.0], "v": [1.0, 0.0]},
    }, "T"),
    "ibp": ({
        "command": "ibp",
        "system": {"name": "example21", "params": {}},
        "integrator": {"h": 1e-2, "T": 0.1},
        "ibp": {"n_grid": 101},
    }, "t"),
}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are glibc's")
@pytest.mark.parametrize("command", sorted(FAULT_CASES))
def test_page_faults_do_not_grow_with_the_step_count(tmp_path, command):
    # freed work memory stays in the heap (cli._keep_freed_heap): without
    # it, converge faulted about 14.6k pages per step back in, and ibp 650
    config, horizon = FAULT_CASES[command]
    faults = {}
    for steps in (1, 10):
        block = {**config[command], horizon: steps * 1e-2}
        log = cli_run_log(tmp_path, f"{command}{steps}",
                          {**config, command: block})
        faults[steps] = int(log["minor_page_faults"])
    assert (faults[10] - faults[1]) / 9 < 1000, faults


# ---------------------------------------------------------------------------
# tracing


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
    # and one outside R1 for (c4) and (c4aa); fields once, for (c1), (c2aa)
    # and (c2), on the 24 x 16 probes shifted by every (c2) offset, 6 radii
    # x 6 directions, the first of which is y = 0
    "check": ({
        "command": "check",
        "system": {"name": "example21", "params": {}},
        "check": {"p_list": [1, 2]},
    }, {"engine.step.calls": None, "coefficients.fields.calls": 1,
        "coefficients.fields.points": 36 * 384,
        "coefficients.jacobians.calls": 4,
        "coefficients.jacobians.points": 256 + 512 + 1024 + 384}),
}


def test_every_exported_name_resolves():
    # the tracer wraps every name in estimators.__all__ by getattr, so a
    # stale export would end a --trace 1 run before its first step
    modules = [importlib.import_module(f"flowlab.{info.name}")
               for info in pkgutil.iter_modules(flowlab.__path__)]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert est_module in exporting
    for module in exporting:
        missing = [name for name in module.__all__
                   if not hasattr(module, name)]
        assert missing == [], module.__name__


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
