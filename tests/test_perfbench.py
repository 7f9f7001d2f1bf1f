"""The benchmark's entry points that call flowlab by name: the set-up probe
on every workload's config, the layer microbenchmarks and the traced CLI. A
flowlab name they use that changes would otherwise first show as a failed
benchmark run."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(PERFBENCH / name), *map(str, args)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_probe_setup_runs_on_every_workload(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(WORKLOADS[name].resolved(0)))
    proc = run_script("probe_setup.py", path)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) > 0


def test_microbench_reports_every_declared_metric():
    declared = {metric["name"] for metric in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
                if metric["name"].startswith("micro.")}
    proc = run_script("microbench.py", 0)
    assert proc.returncode == 0, proc.stderr
    assert declared
    assert declared <= set(json.loads(proc.stdout))


# a small run of each kind the trace covers: its config, and the span names
# the tracer must record, each of which it binds to a flowlab name
TRACED_SPANS = {
    "gradient_bel": ({
        "command": "gradient",
        "system": {"name": "example21"},
        "integrator": {"h": 1e-2},
        "mc": {"n_paths": 16},
        "gradient": {"x": [0.3, 0.0], "v": [1.0, 0.0], "t": 0.1},
    }, {"cli.run", "cli.parse_config", "coefficients.builtin",
        "estimators.bel_gradient", "engine.increments", "engine.step",
        "coefficients.fields", "coefficients.jacobians"}),
    "converge": ({
        "command": "converge",
        "system": {"name": "example21"},
        "integrator": {"h": 1e-2},
        "mc": {"n_paths": 4},
        "converge": {"eps_list": [0.2, 0.1], "eps0": 0.25, "x": [0.3, 0.0],
                     "v": [1.0, 0.0], "T": 0.05},
    }, {"approximation.member_build", "approximation.member.fields",
        "approximation.member.jacobians"}),
}


@pytest.mark.parametrize("case", sorted(TRACED_SPANS))
def test_traced_cli_records_the_spans_it_binds(tmp_path, case):
    config, expected = TRACED_SPANS[case]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans), "--",
         config["command"], str(path), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(PERFBENCH)])),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = {span[1] for span in json.loads(spans.read_text())["spans"]}
    assert expected <= names, sorted(expected - names)
