"""Batch front-end: validate a JSON experiment config, dispatch to the
estimators, and write reproducible artifacts.

Every run writes three files into the output directory: config.echo.json
(the fully resolved config with its canonical hash), result.csv (fixed
column order, shortest round-trip decimals), and run.log (timings and
failure counts; the only file allowed to differ between reruns). Exit codes:
0 success, 1 unexpected error (run.log records it), 2 config/parameter
validation error, 3 run completed but flagged unreliable.
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

from . import estimators as est
from .approximation import mollified_family
from .cli_defaults import (
    COMMANDS,
    NUMBER_LISTS,
    REQUIRED,
    SCHEMA_VERSION,
    SECTION_KEYS,
    defaults_for,
)
from .coefficients import (
    CheckSpec,
    builtin,
    builtin_parameters,
    check_assumptions,
)
from .engine import IntegratorConfig, integrate, sample_path
from .errors import ConfigError, FlowlabError, ParameterConstraintError

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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_section(name: str, given: dict, defaults: dict) -> dict:
    known = SECTION_KEYS.get(name, set(defaults))
    for key, value in given.items():
        if key not in known:
            raise ConfigError(f"unknown key {name}.{key!r}")
        default = defaults.get(key)
        if key in NUMBER_LISTS:
            kind = "a list of numbers"
            typed = isinstance(value, list) and all(map(_is_number, value))
        elif default is None or _is_number(default):
            kind = "a number"
            typed = _is_number(value) or value is None and default is None
        elif isinstance(default, str) and default != REQUIRED:
            kind = "a string"
            typed = isinstance(value, str)
        else:
            continue
        if not typed:
            raise ConfigError(f"{name}.{key} must be {kind}, got {value!r}")
    merged = dict(defaults)
    merged.update(given)
    missing = [k for k, v in merged.items() if isinstance(v, str) and v == REQUIRED]
    if missing:
        raise ConfigError(f"missing required key {name}.{missing[0]!r}")
    return merged


def parse_config(path, command: str | None = None) -> ExperimentConfig:
    """Load, validate and canonicalize a JSON experiment config.

    Unknown keys are rejected, defaults are materialized into the resolved
    document, and the hash is computed over the canonical (sorted, compact)
    form so key order in the file is irrelevant.
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
    if not isinstance(system_raw.get("params", {}), dict):
        raise ConfigError("system.params must be a JSON object")

    resolved = {
        "schema": SCHEMA_VERSION,
        "command": cmd,
        "system": {"name": system_raw["name"],
                   "params": dict(system_raw.get("params", {}))},
        "integrator": _validate_section("integrator",
                                        raw.get("integrator", {}),
                                        defaults_for("integrator")),
        "mc": _validate_section("mc", raw.get("mc", {}), defaults_for("mc")),
        "output": _validate_section("output", raw.get("output", {}),
                                    defaults_for("output")),
        cmd: _validate_section(cmd, raw.get(cmd, {}), defaults_for(cmd)),
    }
    n_paths = resolved["mc"]["n_paths"]
    if not n_paths >= 1:
        raise ConfigError(f"mc.n_paths must be at least 1, got {n_paths!r}")
    return ExperimentConfig(command=cmd, resolved=resolved,
                            params_hash=_hash_config(resolved))


def _apply_overrides(config: ExperimentConfig, seed: int | None,
                     out: str | None) -> ExperimentConfig:
    resolved = json.loads(_canonical(config.resolved))
    if seed is not None:
        resolved["mc"]["master_seed"] = int(seed)
    if out is not None:
        resolved["output"]["directory"] = out
    return ExperimentConfig(command=config.command, resolved=resolved,
                            params_hash=_hash_config(resolved))


def _check_philox_keys(config: ExperimentConfig) -> None:
    """mc.master_seed and simulate.path_index key the Philox stream, which
    takes integers in [0, 2^64)."""
    keys = [("mc", "master_seed")]
    if config.command == "simulate":
        keys.append(("simulate", "path_index"))
    for section, key in keys:
        value = config.resolved[section][key]
        if type(value) is not int or not 0 <= value < 2**64:
            raise ConfigError(f"{section}.{key} must be an integer in "
                              f"[0, 2**64), got {value!r}")


def _check_system_params(config: ExperimentConfig) -> None:
    """system.params holds only keyword parameters of the named builtin,
    and a number wherever the parameter's default is one."""
    name, params = config.system_spec["name"], config.system_spec["params"]
    accepted = builtin_parameters(name)
    for key, value in params.items():
        if key not in accepted:
            raise ConfigError(f"unknown key system.params.{key} of {name!r}; "
                              f"choose from {tuple(accepted)}")
        if _is_number(accepted[key]) and not _is_number(value):
            raise ConfigError(f"system.params.{key} must be a number, got "
                              f"{value!r}")


# ---------------------------------------------------------------------------
# command implementations; each returns (csv_rows, extra_files, unreliable)

def _check_dimensions(config: ExperimentConfig, system) -> None:
    """A command's start point x and direction v have one entry per
    dimension of the system, and ibp's coordinate i is one of them."""
    for key in ("x", "v"):
        given = config.block.get(key)
        if given is not None and not (
                isinstance(given, list) and len(given) == system.d
                and all(map(_is_number, given))):
            raise ConfigError(
                f"{config.command}.{key} must be a list of {system.d} numbers, "
                f"one per dimension of {system.name}, got {given!r}")
    if config.command == "ibp":
        i = config.block["i"]
        if type(i) is not int or not 0 <= i < system.d:
            raise ConfigError(
                f"ibp.i must be a coordinate index in 0..{system.d - 1} of "
                f"{system.name}, got {i!r}")


def _flags(config: ExperimentConfig, report=None, **extra) -> dict:
    flags = {"seed": config.master_seed}
    if report is not None:
        for key in ("window_exceeded", "unreliable"):
            if report.notes.get(key):
                flags[key] = True
        if report.notes.get("n_excluded"):
            flags["excluded"] = report.notes["n_excluded"]
    flags.update(extra)
    return flags


def _cmd_gradient(config, system, workers):
    blk = config.block
    payoff = est.PAYOFFS.get(blk["payoff"])
    if payoff is None:
        raise ConfigError(f"unknown payoff {blk['payoff']!r}; choose from "
                          f"{sorted(est.PAYOFFS)}")
    kwargs = dict(system=system, x=blk["x"], v=blk["v"], f=payoff, t=blk["t"],
                  n_paths=config.n_paths, cfg=config.integrator,
                  master_seed=config.master_seed, workers=workers)
    if blk["method"] == "bel":
        report = est.bel_gradient(**kwargs)
    elif blk["method"] == "fd":
        report = est.fd_gradient(delta=blk["delta"], **kwargs)
    else:
        raise ConfigError(f"unknown gradient method {blk['method']!r}")
    row = est.csv_row(f"gradient_{blk['method']}", system.name,
                      config.params_hash, blk["t"], report.value,
                      report.std_error, report.n_paths, report.h,
                      _flags(config, report, payoff=blk["payoff"]))
    return [row], {}, report.unreliable


def _cmd_moments(config, system, workers):
    blk = config.block
    report = est.derivative_moment(
        system, blk["x"], blk["v"], blk["p"], blk["t"], config.n_paths,
        config.integrator, master_seed=config.master_seed, workers=workers)
    row = est.csv_row("derivative_moment", system.name, config.params_hash,
                      blk["t"], report.value, report.std_error,
                      report.n_paths, report.h,
                      _flags(config, report, p=blk["p"]))
    return [row], {}, report.unreliable


def _cmd_simulate(config, system, workers):
    blk = config.block
    cfg = config.integrator
    path = sample_path(config.master_seed, blk["path_index"], cfg.n_steps,
                       cfg.h, system.m)
    traj = integrate(system, blk["x"], blk["v"], path, cfg)
    stride = max(1, int(config.resolved["output"]["stride"]))
    lines = ["t," + ",".join(f"x{i+1}" for i in range(system.d)) + ","
             + ",".join(f"v{i+1}" for i in range(system.d))
             + ",exploded,clamped"]
    for idx in range(0, len(traj.times), stride):
        vals = [traj.times[idx], *traj.xs[idx], *traj.vs[idx]]
        lines.append(",".join(repr(float(v)) for v in vals)
                     + f",{int(traj.exploded)},{traj.clamped}")
    final_norm = float(np.linalg.norm(traj.xs[-1]))
    row = est.csv_row("simulate", system.name, config.params_hash, cfg.T,
                      final_norm, 0.0, 1, cfg.h,
                      _flags(config, exploded=traj.exploded,
                             clamped=traj.clamped))
    return [row], {"trajectory.csv": "\n".join(lines) + "\n"}, False


def _cmd_converge(config, system, workers):
    blk = config.block
    fam = mollified_family(system, lambda0=blk.get("lambda0"),
                           eps0=blk.get("eps0"))
    rows_out = []
    rows = est.family_convergence(
        fam, blk["eps_list"], blk["x"], blk["v"], blk["T"], config.n_paths,
        config.integrator, master_seed=config.master_seed, workers=workers)
    for r in rows:
        pair = {"eps": r.eps, "eps_next": r.eps_next}
        rows_out.append(est.csv_row(
            "converge_flow", system.name, config.params_hash, blk["T"],
            r.gap_flow, r.se_flow, config.n_paths, config.integrator.h,
            _flags(config, **pair)))
        rows_out.append(est.csv_row(
            "converge_derivative", system.name, config.params_hash, blk["T"],
            r.gap_derivative, r.se_derivative, config.n_paths,
            config.integrator.h, _flags(config, **pair)))
    return rows_out, {}, False


def _cmd_check(config, system, workers):
    blk = config.block
    spec = CheckSpec(radius=blk["radius"], p_list=tuple(blk["p_list"]))
    reports = check_assumptions(system, spec)
    rows = []
    for name in ("c1", "c2aa", "c2", "c3", "c4", "c4aa"):
        rep = reports[name]
        rows.append(est.csv_row(
            f"check_{name}", system.name, config.params_hash, 0.0,
            rep.worst_margin, 0.0, 0, config.integrator.h,
            _flags(config, status=rep.status,
                   skipped_points=rep.skipped_points)))
    return rows, {}, False


def _cmd_ibp(config, system, workers):
    blk = config.block
    bump = est.SmoothBump(radius=blk["bump_radius"], d=system.d)
    report = est.ibp_residual(
        system, blk["t"], blk["box"], blk["n_grid"], bump, blk["i"],
        blk["n_omega"], config.integrator, master_seed=config.master_seed)
    rows = [est.csv_row("ibp_mean", system.name, config.params_hash,
                        blk["t"], report.mean_residual, 0.0, blk["n_omega"],
                        report.h, _flags(config, n_grid=blk["n_grid"])),
            est.csv_row("ibp_max", system.name, config.params_hash,
                        blk["t"], report.max_residual, 0.0, blk["n_omega"],
                        report.h, _flags(config, n_grid=blk["n_grid"]))]
    return rows, {}, False


def _cmd_krylov(config, system, workers):
    blk = config.block
    report = est.krylov_check(
        system, blk["x"], blk["T"], blk["R"], config.n_paths,
        config.integrator, master_seed=config.master_seed, workers=workers)
    flgs = _flags(config, R=blk["R"], a_hat=report.a_hat, b_hat=report.b_hat,
                  rhs_shape=report.rhs_shape)
    rows = [est.csv_row("krylov_lhs", system.name, config.params_hash,
                        blk["T"], report.lhs, report.lhs_std_error,
                        config.n_paths, config.integrator.h, flgs),
            est.csv_row("krylov_ratio", system.name, config.params_hash,
                        blk["T"], report.ratio, 0.0, config.n_paths,
                        config.integrator.h, flgs)]
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
        _check_philox_keys(config)
        _check_system_params(config)
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

    csv_text = est.CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    _atomic_write(out_dir / "result.csv", csv_text)
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
