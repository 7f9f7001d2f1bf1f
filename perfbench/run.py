"""flowlab benchmark: run the CLI as a user does and report end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from `src/`.
Every CLI run is a fresh process writing into a temporary directory under
the checkout, which is removed at the end.

--trace 0 measures for S seconds, alternating a set-up probe with a CLI run,
and reports medians of the end-to-end metrics (see END_TO_END).

--trace 1 runs the layer microbenchmarks once, then alternates untraced and
traced CLI runs for S seconds. A traced run wraps the public functions of
each module (traced_cli.py) and attributes its wall time to spans; the
per-layer metrics are medians over the traced runs.

Every run's result.csv is checked (workloads.py); a failed check or a
nonzero exit counts as a failed run. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from tracer import attribute, selftest
from workloads import WORKLOADS, check_finite, excluded_paths, parse_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 60.0
MIN_RUNS = 3

END_TO_END = {
    "wall_s": "s",              # spawn of `flowlab <command>` until it exits
    "setup_s": "s",             # spawn until the first path step would start
    "path_steps_per_s": "1/s",  # path-steps / (wall_s - setup_s)
    "peak_rss_mb": "MB",        # ru_maxrss of that run's own child
    "kept_frac": "frac",        # 1 - excluded paths / n_paths
    "run_ok_frac": "frac",      # 1 - failed runs / attempted runs
}


@dataclass
class Child:
    code: int
    start_ns: int
    end_ns: int
    rusage: object
    output: str

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def spawn(cmd: list[str], env: dict, log: Path) -> Child:
    """Run cmd to completion; its rusage comes from wait4 on its own pid."""
    with open(log, "wb") as fh:
        start = time.monotonic_ns()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=fh,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
            end = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
    return Child(proc.returncode, start, end, rusage, log.read_text())


class Bench:
    """One benchmark invocation: a workload, a seed and a scratch directory."""

    def __init__(self, workload, seed: int, tmp: Path):
        self.wl = workload
        self.seed = seed
        self.tmp = tmp
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(HERE)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.config = tmp / "config.json"
        self.config.write_text(json.dumps(workload.resolved(seed), indent=1))
        self.n_spawned = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_csv: bytes | None = None

    def _spawn(self, *args: str) -> Child:
        self.n_spawned += 1
        return spawn([sys.executable, *args], self.env,
                     self.tmp / f"child{self.n_spawned}.log")

    def script(self, script: str, *args: str) -> Child:
        return self._spawn(str(HERE / script), *args)

    def setup_probe(self) -> float:
        child = self.script("probe_setup.py", str(self.config))
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.output}")
        return (int(child.output.split()[-1]) - child.start_ns) / 1e9

    def cli_run(self, workers: int | None = None, spans: Path | None = None):
        """One CLI run; returns (Child, excluded paths) or (Child, None)
        when it failed."""
        workers = self.wl.workers if workers is None else workers
        out = self.tmp / f"out{self.n_spawned + 1}"
        cli_args = [self.wl.command, str(self.config), "--workers",
                    str(workers), "--out", str(out)]
        self.attempted += 1
        if spans is None:
            child = self._spawn("-m", "flowlab.cli", *cli_args)
        else:
            child = self.script("traced_cli.py", str(spans), "--", *cli_args)
        problems, excluded = self._check(child, out)
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.append(f"run with workers={workers}"
                                 f"{' traced' if spans else ''}: "
                                 + "; ".join(problems))
            return child, None
        return child, excluded

    def _check(self, child: Child, out: Path) -> tuple[list[str], int]:
        if child.code != 0:
            return [f"exit code {child.code}: "
                    f"{child.output.strip()[-500:]}"], 0
        try:
            csv = (out / "result.csv").read_bytes()
            rows = parse_csv(csv.decode())
        except (OSError, ValueError) as exc:
            return [f"unreadable result.csv: {exc}"], 0
        if self.reference_csv is None:
            self.reference_csv = csv
        problems = check_finite(rows)
        for check in self.wl.checks:
            problems += check(rows)
        if csv != self.reference_csv:
            problems.append("result.csv differs from the first run's bytes")
        return problems, excluded_paths(rows)


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    wl = bench.wl
    bench.setup_probe()                 # warm-up: byte-compile, page cache
    setups, walls, rss, kept = [], [], [], []
    t_end = time.monotonic() + seconds
    while len(walls) < MIN_RUNS or time.monotonic() < t_end:
        if len(walls) % 2 == 0:         # set-up is not spread-checked
            setups.append(bench.setup_probe())
        child, excluded = bench.cli_run()
        walls.append(child.wall_s)
        rss.append(child.rusage.ru_maxrss * 1024 / 1e6)
        if excluded is not None:
            kept.append(1.0 - excluded / wl.n_paths)
    if wl.workers > 1:
        bench.cli_run(workers=1)        # must give the same result.csv bytes
    wall_s = statistics.median(walls)
    setup_s = statistics.median(setups)
    values = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "path_steps_per_s": wl.path_steps / max(wall_s - setup_s, 1e-9),
        "peak_rss_mb": statistics.median(rss),
        "kept_frac": statistics.median(kept) if kept else 0.0,
        "run_ok_frac": 1.0 - bench.failed / bench.attempted,
    }
    print(f"# {wl.name}: {len(walls)} runs, walls "
          + " ".join(f"{w:.3f}" for w in walls) + " s; set-ups "
          + " ".join(f"{s:.3f}" for s in setups) + " s")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


# --------------------------------------------------------------------------
# per-layer metrics from one traced run

def layer_metrics(trace: dict, start_ns: int, end_ns: int) -> tuple[dict, float]:
    """Per-layer values of one traced run, and how far self times plus the
    untraced remainder miss the traced wall (ns; 0 up to rounding)."""
    spans = trace["spans"]
    counts = trace["counts"]
    wall = end_ns - start_ns
    self_ns, untraced = attribute(spans, start_ns, end_ns)
    closure = sum(self_ns.values()) + untraced - wall
    by_name: dict[str, float] = {}
    dur_by_name: dict[str, float] = {}
    for span_id, name, _, start, end, _ in spans:
        by_name[name] = by_name.get(name, 0.0) + self_ns.get(span_id, 0.0)
        dur_by_name[name] = dur_by_name.get(name, 0.0) + (end - start)

    def self_of(prefix: str) -> float:
        return sum(v for k, v in by_name.items()
                   if k == prefix or k.startswith(prefix + "."))

    def frac(prefix: str) -> float:
        return self_of(prefix) / wall

    def per(prefix: str, key: str, scale: float) -> float:
        n = counts.get(key, 0.0)
        return self_of(prefix) * scale / n if n else 0.0

    def ratio(num: str, den: str) -> float:
        d = counts.get(den, 0.0)
        return counts.get(num, 0.0) / d if d else 0.0

    member = "approximation.member"
    m = {
        "cli.parse_config_ms": dur_by_name.get("cli.parse_config", 0.0) / 1e6,
        "engine.increments.self_frac": frac("engine.increments"),
        "engine.increments.us_per_path": per(
            "engine.increments", "engine.increments.paths", 1e-3),
        "engine.increments.block_mb": trace["peaks"].get(
            "engine.increments.block_bytes", 0.0) / 1e6,
        "engine.step.self_frac": frac("engine.step"),
        "engine.step.ns_per_path_step": per(
            "engine.step", "engine.step.path_steps", 1.0),
        "engine.step.vzero_frac": ratio("engine.step.vzero",
                                        "engine.step.calls"),
        "engine.clamped_steps": counts.get("engine.clamped_steps", 0.0),
        "engine.exploded_paths": counts.get("engine.exploded_paths", 0.0),
        "engine.failed_paths": counts.get("engine.failed_paths", 0.0),
        "coefficients.fields.self_frac": frac("coefficients.fields"),
        "coefficients.fields.ns_per_point": per(
            "coefficients.fields", "coefficients.fields.points", 1.0),
        "coefficients.fields.calls_per_step": ratio(
            "coefficients.fields.calls", "engine.step.calls"),
        "coefficients.jacobians.self_frac": frac("coefficients.jacobians"),
        "coefficients.jacobians.ns_per_point": per(
            "coefficients.jacobians", "coefficients.jacobians.points", 1.0),
        "coefficients.jacobians.annulus_frac": ratio(
            "coefficients.jacobians.annulus_points",
            "coefficients.jacobians.example21_points"),
        "coefficients.jacobians.fd.self_frac": frac("coefficients.jacobians.fd"),
        f"{member}.fields.self_frac": frac(f"{member}.fields"),
        f"{member}.fields.us_per_point": per(
            f"{member}.fields", f"{member}.fields.points", 1e-3),
        f"{member}.jacobians.self_frac": frac(f"{member}.jacobians"),
        f"{member}.jacobians.us_per_point": per(
            f"{member}.jacobians", f"{member}.jacobians.points", 1e-3),
        f"{member}.jacobians.base_fd.self_frac": frac(
            f"{member}.jacobians.base_fd"),
        f"{member}.edge_fd.self_frac": frac(f"{member}.edge_fd"),
        f"{member}.edge_fd_frac": ratio(f"{member}.edge_fd.points",
                                        f"{member}.jacobians.field_points"),
        "approximation.build_s": (dur_by_name.get("approximation.family", 0.0)
                                  + dur_by_name.get(
                                      "approximation.member_build", 0.0)) / 1e9,
        "estimators.accum.self_frac": frac("estimators"),
        "trace.untraced_frac": untraced / wall,
        "trace.count_frac": frac("trace"),
    }
    return m, closure


PER_LAYER_UNITS = {
    "cli.parse_config_ms": "ms",
    "engine.increments.us_per_path": "us",
    "engine.increments.block_mb": "MB",
    "engine.step.ns_per_path_step": "ns",
    "engine.clamped_steps": "count",
    "engine.exploded_paths": "count",
    "engine.failed_paths": "count",
    "coefficients.fields.ns_per_point": "ns",
    "coefficients.fields.calls_per_step": "1/step",
    "coefficients.jacobians.ns_per_point": "ns",
    "approximation.member.fields.us_per_point": "us",
    "approximation.member.jacobians.us_per_point": "us",
    "approximation.build_s": "s",
    "estimators.workers.cpu_util": "frac",
    "trace.overhead_frac": "frac",
    "micro.coefficients.jacobians.core_us_per_4k": "us",
    "micro.coefficients.jacobians.annulus_us_per_4k": "us",
    "micro.coefficients.jacobians.shell_us_per_4k": "us",
    "micro.engine.increments.us_per_path": "us",
    "micro.engine.step.ns_per_path_step_4k": "ns",
    "micro.engine.step.ns_per_path_step_64k": "ns",
    "micro.approximation.member.fields_ms_per_1k": "ms",
    "micro.approximation.member.jacobians_ms_per_1k": "ms",
}


def measure_layers(bench: Bench, seconds: float) -> dict:
    bench.problems += [f"tracer self-test: {f}" for f in selftest()]
    micro_child = bench.script("microbench.py", str(bench.seed))
    if micro_child.code != 0:
        raise RuntimeError(f"microbench failed:\n{micro_child.output}")
    micro = json.loads(micro_child.output.strip().splitlines()[-1])

    untraced_walls, traced_walls, cpu_util, samples = [], [], [], []
    t_end = time.monotonic() + seconds
    while not traced_walls or time.monotonic() < t_end:
        child, _ = bench.cli_run()
        untraced_walls.append(child.wall_s)
        ru = child.rusage
        cpu_util.append((ru.ru_utime + ru.ru_stime)
                        / (child.wall_s * bench.wl.workers))
        spans = bench.tmp / "spans.json"
        child, _ = bench.cli_run(spans=spans)
        traced_walls.append(child.wall_s)
        if child.code != 0:
            continue
        values, closure = layer_metrics(json.loads(spans.read_text()),
                                        child.start_ns, child.end_ns)
        if abs(closure) > 1e-6 * (child.end_ns - child.start_ns):
            bench.problems.append(f"self times miss the traced wall by "
                                  f"{closure:.0f} ns")
        samples.append(values)
    if not samples:
        raise RuntimeError("no traced run succeeded: "
                           + "; ".join(bench.problems))

    values = {name: statistics.median(s[name] for s in samples)
              for name in samples[0]}
    values["estimators.workers.cpu_util"] = statistics.median(cpu_util)
    values["trace.overhead_frac"] = (statistics.median(traced_walls)
                                     / statistics.median(untraced_walls) - 1.0)
    values.update(micro)
    print(f"# {bench.wl.name}: {len(traced_walls)} traced runs, walls "
          + " ".join(f"{w:.3f}" for w in traced_walls) + " s; untraced "
          + " ".join(f"{w:.3f}" for w in untraced_walls) + " s")
    return {name: {"value": value, "unit": PER_LAYER_UNITS.get(name, "frac")}
            for name, value in values.items()}


def machine_line() -> str:
    versions = []
    for pkg in ("numpy", "scipy"):
        try:
            versions.append(f"{pkg}={metadata.version(pkg)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{pkg}=missing")
    return (f"# machine: nproc={os.cpu_count()} {platform.machine()} "
            f"python={platform.python_version()} " + " ".join(versions))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flowlab" / "cli.py").is_file():
        print(f"error: no flowlab source tree at {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    print(machine_line())
    print(f"# workload={workload.name} seed={args.seed} "
          f"n_paths={workload.n_paths} n_steps={workload.n_steps} "
          f"flows_per_path={workload.flows_per_path} "
          f"workers={workload.workers}")
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(workload, args.seed, tmp)
        if args.trace:
            metrics = measure_layers(bench, args.seconds)
        else:
            metrics = measure_end_to_end(bench, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in bench.problems:
        print(f"# FAILED {problem}")
    print(json.dumps({"correct": not bench.problems,
                      "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
