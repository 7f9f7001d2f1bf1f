"""Tests for config parsing, artifact writing, exit codes and determinism."""

import json
import math

import pytest

from flowlab.cli import main, parse_config, run
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


def test_run_check_rejects_invalid_example21(tmp_path, capsys):
    path = write(tmp_path, "c.json", {
        "command": "check",
        "system": {"name": "example21", "params": {"d": 2, "q3": 0.7}},
    })
    code = run("check", path, out=str(tmp_path / "o"))
    assert code == 2
    assert "q3 < d/(d+1)" in capsys.readouterr().err


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
