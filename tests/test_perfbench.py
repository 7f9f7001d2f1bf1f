"""The benchmark's entry points that call flowlab by name: the set-up probe
on every workload's config and the layer microbenchmarks. A flowlab name
they use that changes would otherwise first show as a failed benchmark run."""

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
