"""Batch front-end: validate a JSON experiment config, dispatch to the
estimators, and write reproducible artifacts.

Every run writes three files into the output directory: config.echo.json
(the fully resolved config with its canonical hash), result.csv (fixed
column order, shortest round-trip decimals), and run.log (status and
elapsed seconds; the only file allowed to differ between reruns). Exit codes:
0 success, 1 unexpected error (run.log records it), 2 config/parameter
validation error, 3 run completed but flagged unreliable: a gradient or
moments run that excluded more than 0.1% of its paths. Only those two count
excluded paths; converge drops failed and exploded paths, and krylov failed
paths, without counting them, so neither exits 3.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import engine
from . import estimators as est
from .approximation import mollified_family
from .cli_defaults import (
    COMMANDS,
    COUNT,
    NUMBER,
    REQUIRED,
    SCHEMA,
    SCHEMA_VERSION,
    VECTOR,
    is_number,
)
from .coefficients import (
    CheckSpec,
    builtin,
    builtin_parameters,
    check_assumptions,
)
from .engine import BatchEuler, IntegratorConfig
from .errors import (
    ConfigError,
    FlowlabError,
    IntegrationError,
    ParameterConstraintError,
)

__all__ = ["ExperimentConfig", "parse_config", "run", "main"]

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_UNRELIABLE = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: resolved settings plus their canonical hash."""

    command: str
    resolved: dict
    params_hash: str

    @property
    def system_spec(self) -> dict:
        return self.resolved["system"]

    @property
    def integrator(self) -> IntegratorConfig:
        icfg = self.resolved["integrator"]
        return IntegratorConfig(h=icfg["h"], T=icfg["T"],
                                guard_radius=icfg["guard_radius"])

    @property
    def n_paths(self) -> int:
        return int(self.resolved["mc"]["n_paths"])

    @property
    def master_seed(self) -> int:
        return int(self.resolved["mc"]["master_seed"])

    @property
    def block(self) -> dict:
        return self.resolved[self.command]


def _no_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} in configuration")
        seen[key] = value
    return seen


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _hash_config(resolved: dict) -> str:
    # the output section is an execution detail: runs into different
    # directories must share a hash and byte-identical result.csv
    hashable = {k: v for k, v in resolved.items() if k != "output"}
    return hashlib.sha256(_canonical(hashable).encode()).hexdigest()[:16]


def _validate_section(name: str, given, schema: dict) -> dict:
    """The schema's defaults updated with the given keys, each checked
    against its domain in the schema."""
    if not isinstance(given, dict):
        raise ConfigError(f"{name} must be a JSON object, got {given!r}")
    for key, value in given.items():
        if key not in schema:
            raise ConfigError(f"unknown key {name}.{key}; "
                              f"choose from {tuple(schema)}")
        default, domain = schema[key]
        if not (value is None and default is None or domain.accepts(value)):
            raise ConfigError(f"{name}.{key} must be {domain.description}, "
                              f"got {value!r}")
    merged = {key: default for key, (default, _) in schema.items()}
    merged.update(given)
    missing = [key for key, value in merged.items() if value is REQUIRED]
    if missing:
        raise ConfigError(f"missing required key {name}.{missing[0]!r}")
    return merged


def _params_schema(name: str) -> dict:
    """The schema of system.params: the keyword parameters of the named
    builtin with their defaults, and an integer of at least 1 wherever the
    default is an integer, a finite number wherever it is another number,
    and null or a list of finite numbers wherever it is null."""
    return {key: (default, COUNT if type(default) is int
                  else NUMBER if is_number(default) else VECTOR)
            for key, default in builtin_parameters(name).items()}


def parse_config(path, command: str | None = None) -> ExperimentConfig:
    """Load, validate and canonicalize a JSON experiment config.

    Unknown keys and values outside their domain in SCHEMA are rejected,
    defaults (the system's parameters too) are materialized into the
    resolved document, and the hash is computed over the canonical (sorted,
    compact) form so key order in the file is irrelevant.
    """
    text = Path(path).read_text()
    try:
        raw = json.loads(text, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    schema = raw.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema {schema!r}; "
                          f"expected {SCHEMA_VERSION!r}")
    cmd = raw.get("command", command)
    if cmd is None:
        raise ConfigError("missing required key 'command'")
    if cmd not in COMMANDS:
        raise ConfigError(f"unknown command {cmd!r}; choose from {COMMANDS}")
    if command is not None and cmd != command:
        raise ConfigError(f"config declares command {cmd!r} but "
                          f"{command!r} was requested")

    allowed_top = {"schema", "command", "system", "integrator", "mc",
                   "output", cmd}
    for key in raw:
        if key not in allowed_top:
            raise ConfigError(f"unknown key {key!r} (command is {cmd!r})")

    system_raw = raw.get("system")
    if not isinstance(system_raw, dict) or "name" not in system_raw:
        raise ConfigError("missing required key 'system.name'")
    for key in system_raw:
        if key not in ("name", "params"):
            raise ConfigError(f"unknown key system.{key!r}")
    name = system_raw["name"]
    params = _validate_section("system.params", system_raw.get("params", {}),
                               _params_schema(name))
    for key, value in params.items():
        if isinstance(value, list) and len(value) != params["d"]:
            raise ConfigError(
                f"system.params.{key} must be null or a list of "
                f"{params['d']} finite numbers, one per dimension of "
                f"{name!r}, got {value!r}")

    resolved = {
        "schema": SCHEMA_VERSION,
        "command": cmd,
        # the parameters the system is built from, so that configs which
        # build the same system share a hash
        "system": {"name": name, "params": params},
        **{section: _validate_section(section, raw.get(section, {}),
                                      SCHEMA[section])
           for section in ("integrator", "mc", "output", cmd)},
    }
    return ExperimentConfig(command=cmd, resolved=resolved,
                            params_hash=_hash_config(resolved))


def _apply_overrides(config: ExperimentConfig, seed: int | None,
                     out: str | None) -> ExperimentConfig:
    resolved = json.loads(_canonical(config.resolved))
    if seed is not None:
        resolved["mc"] = _validate_section(
            "mc", {**resolved["mc"], "master_seed": seed}, SCHEMA["mc"])
    if out is not None:
        resolved["output"]["directory"] = out
    return ExperimentConfig(command=config.command, resolved=resolved,
                            params_hash=_hash_config(resolved))


# ---------------------------------------------------------------------------
# command implementations; each returns (rows, extra_files, unreliable)
# with rows as (estimator, t, value, std_error, n_paths, flags)

def _check_dimensions(config: ExperimentConfig, system) -> None:
    """A command's start point x and direction v have one entry per
    dimension of the system, and ibp's coordinate i is one of them."""
    for key in ("x", "v"):
        given = config.block.get(key)
        if given is not None and len(given) != system.d:
            raise ConfigError(
                f"{config.command}.{key} must be a list of {system.d} numbers, "
                f"one per dimension of {system.name}, got {given!r}")
    if config.command == "ibp":
        i = config.block["i"]
        if i >= system.d:
            raise ConfigError(
                f"ibp.i must be a coordinate index in 0..{system.d - 1} of "
                f"{system.name}, got {i!r}")


def _report_row(estimator: str, t: float, report, **flags) -> tuple:
    """The row of an EstimateReport, flagged where it exceeded its moment
    window, was unreliable or excluded paths."""
    for key in ("window_exceeded", "unreliable"):
        if report.notes.get(key):
            flags[key] = True
    if report.notes.get("n_excluded"):
        flags["excluded"] = report.notes["n_excluded"]
    return (estimator, t, report.value, report.std_error, report.n_paths,
            flags)


def _cmd_gradient(config, system, workers):
    blk = config.block
    kwargs = dict(system=system, x=blk["x"], v=blk["v"],
                  f=est.PAYOFFS[blk["payoff"]], t=blk["t"],
                  n_paths=config.n_paths, cfg=config.integrator,
                  master_seed=config.master_seed, workers=workers)
    if blk["method"] == "bel":
        report = est.bel_gradient(**kwargs)
    else:
        report = est.fd_gradient(delta=blk["delta"], **kwargs)
    row = _report_row(f"gradient_{blk['method']}", blk["t"], report,
                      payoff=blk["payoff"])
    return [row], {}, report.unreliable


def _cmd_moments(config, system, workers):
    blk = config.block
    report = est.derivative_moment(
        system, blk["x"], blk["v"], blk["p"], blk["t"], config.n_paths,
        config.integrator, master_seed=config.master_seed, workers=workers)
    row = _report_row("derivative_moment", blk["t"], report, p=blk["p"])
    return [row], {}, report.unreliable


def _cmd_simulate(config, system, workers):
    blk = config.block
    cfg = config.integrator
    dws = engine.increments_block(config.master_seed, blk["path_index"], 1,
                                  cfg.n_steps, cfg.h, system.m)
    drv = BatchEuler(system, blk["x"], blk["v"], dws, cfg)
    # the state after every step, up to the step where the path explodes
    xs, vs = [drv.x[0]], [drv.v[0]]
    while not drv.exploded[0] and drv.advance():
        if drv.failed[0]:
            raise IntegrationError(
                f"non-finite coefficients at step {drv.step_index}, "
                f"point {xs[-1]!r}", step=drv.step_index, point=xs[-1])
        xs.append(drv.x[0])
        vs.append(drv.v[0])
    exploded, clamped = bool(drv.exploded[0]), int(drv.clamped[0])
    stride = config.resolved["output"]["stride"]
    lines = ["t," + ",".join(f"x{i+1}" for i in range(system.d)) + ","
             + ",".join(f"v{i+1}" for i in range(system.d))
             + ",exploded,clamped"]
    for idx in range(0, len(xs), stride):
        vals = [idx * cfg.h, *xs[idx], *vs[idx]]
        lines.append(",".join(repr(float(v)) for v in vals)
                     + f",{int(exploded)},{clamped}")
    final_norm = float(np.linalg.norm(xs[-1]))
    row = ("simulate", cfg.T, final_norm, 0.0, 1,
           {"exploded": exploded, "clamped": clamped})
    return [row], {"trajectory.csv": "\n".join(lines) + "\n"}, False


def _cmd_converge(config, system, workers):
    blk = config.block
    fam = mollified_family(system, lambda0=blk.get("lambda0"),
                           eps0=blk.get("eps0"))
    rows = []
    for r in est.family_convergence(
            fam, blk["eps_list"], blk["x"], blk["v"], blk["T"],
            config.n_paths, config.integrator,
            master_seed=config.master_seed, workers=workers):
        pair = {"eps": r.eps, "eps_next": r.eps_next}
        rows.append(("converge_flow", blk["T"], r.gap_flow, r.se_flow,
                     config.n_paths, pair))
        rows.append(("converge_derivative", blk["T"], r.gap_derivative,
                     r.se_derivative, config.n_paths, pair))
    return rows, {}, False


def _cmd_check(config, system, workers):
    blk = config.block
    spec = CheckSpec(radius=blk["radius"], p_list=tuple(blk["p_list"]))
    reports = check_assumptions(system, spec)
    rows = []
    for name in ("c1", "c2aa", "c2", "c3", "c4", "c4aa"):
        rep = reports[name]
        rows.append((f"check_{name}", 0.0, rep.worst_margin, 0.0, 0,
                     {"status": rep.status,
                      "skipped_points": rep.skipped_points}))
    return rows, {}, False


def _cmd_ibp(config, system, workers):
    blk = config.block
    bump = est.SmoothBump(radius=blk["bump_radius"], d=system.d)
    report = est.ibp_residual(
        system, blk["t"], blk["box"], blk["n_grid"], bump, blk["i"],
        blk["n_omega"], config.integrator, master_seed=config.master_seed)
    flags = {"n_grid": blk["n_grid"]}
    rows = [("ibp_mean", blk["t"], report.mean_residual, 0.0, blk["n_omega"],
             flags),
            ("ibp_max", blk["t"], report.max_residual, 0.0, blk["n_omega"],
             flags)]
    return rows, {}, False


def _cmd_krylov(config, system, workers):
    blk = config.block
    report = est.krylov_check(
        system, blk["x"], blk["T"], blk["R"], config.n_paths,
        config.integrator, master_seed=config.master_seed, workers=workers)
    flags = {"R": blk["R"], "a_hat": report.a_hat, "b_hat": report.b_hat,
             "rhs_shape": report.rhs_shape}
    rows = [("krylov_lhs", blk["T"], report.lhs, report.lhs_std_error,
             config.n_paths, flags),
            ("krylov_ratio", blk["T"], report.ratio, 0.0, config.n_paths,
             flags)]
    return rows, {}, False


_COMMAND_IMPL = {
    "gradient": _cmd_gradient,
    "moments": _cmd_moments,
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "check": _cmd_check,
    "ibp": _cmd_ibp,
    "krylov": _cmd_krylov,
}


def run(command: str, config_path, seed: int | None = None,
        workers: int = 1, out: str | None = None) -> int:
    """Execute one experiment; returns the process exit code.

    Writes config.echo.json before result.csv so a partial CSV can never
    appear without its matching echo. result.csv is byte-identical across
    reruns and worker counts for the same effective config.
    """
    t_start = time.perf_counter()
    try:
        if workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {workers}")
        config = parse_config(config_path, command)
        config = _apply_overrides(config, seed, out)
        system = builtin(config.system_spec["name"],
                         **config.system_spec["params"])
    except (ConfigError, ParameterConstraintError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(config.resolved["output"]["directory"]
                   or os.environ.get("FLOWLAB_OUT", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    echo = dict(config.resolved)
    echo["params_hash"] = config.params_hash
    (out_dir / "config.echo.json").write_text(
        json.dumps(echo, indent=2, sort_keys=True) + "\n")

    try:
        _check_dimensions(config, system)
        rows, extra_files, unreliable = _COMMAND_IMPL[config.command](
            config, system, int(workers))
        # inside the try: config.integrator checks T >= h
        csv_text = "".join(
            est.csv_row(estimator, system.name, config.params_hash, t,
                        value, std_error, n_paths, config.integrator.h,
                        {"seed": config.master_seed, **flags}) + "\n"
            for estimator, t, value, std_error, n_paths, flags in rows)
    except (FlowlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_log(out_dir, config, t_start, status=f"failed: {exc}")
        return EXIT_CONFIG
    except Exception as exc:
        # last resort, so that every failure after the echo ends in run.log
        # (with the traceback) and a documented exit code
        message = f"{type(exc).__name__}: {exc}"
        print(f"error: {message}", file=sys.stderr)
        _write_log(out_dir, config, t_start, status=f"failed: {message}",
                   detail=traceback.format_exc())
        return EXIT_UNEXPECTED

    _atomic_write(out_dir / "result.csv", est.CSV_HEADER + "\n" + csv_text)
    for name, text in extra_files.items():
        _atomic_write(out_dir / name, text)
    status = "unreliable" if unreliable else "ok"
    _write_log(out_dir, config, t_start, status=status)
    return EXIT_UNRELIABLE if unreliable else EXIT_OK


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _write_log(out_dir: Path, config: ExperimentConfig, t_start: float,
               status: str, detail: str = "") -> None:
    elapsed = time.perf_counter() - t_start
    lines = [
        f"command: {config.command}",
        f"params_hash: {config.params_hash}",
        f"master_seed: {config.master_seed}",
        f"status: {status}",
        f"elapsed_seconds: {elapsed:.3f}",
        f"finished_at: {time.strftime('%Y-%m-%dT%H:%M:%S')}",
    ]
    (out_dir / "run.log").write_text("\n".join(lines) + "\n" + detail)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flowlab",
        description="Monte Carlo experiments on stochastic flows with "
                    "irregular coefficients")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override mc.master_seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads; results are independent of this")
    parser.add_argument("--out", default=None,
                        help="output directory (fallback: FLOWLAB_OUT)")
    args = parser.parse_args(argv)
    return run(args.command, args.config, seed=args.seed,
               workers=args.workers, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
