"""Batch front-end: validate a JSON experiment config, dispatch to the
estimators, and write reproducible artifacts.

Every run writes three files into the output directory: config.echo.json
(the fully resolved config with its canonical hash), result.csv (fixed
column order, shortest round-trip decimals), and run.log (status,
elapsed and import seconds, peak memory and page faults, and the
RuntimeWarnings the command raised, counted per distinct warning; the only
file allowed to differ between reruns). A forked worker prints its
warnings instead of counting them. A config that parse_config rejects, a
system that cannot be built and an output directory that cannot be made
write nothing; after the echo only the library's checks on the built
mollified family (converge's lambda0 and eps < eps0) can reject a value.
Exit codes:
0 success, 1 unexpected error (run.log records it), 2 config/parameter
validation error, 3 run completed but flagged unreliable: over 0.1% of the
paths of a gradient, moments, converge, ibp or krylov run failed, exploded
or were gated. Rows flag nonzero excluded=, failed=, exploded=, gated=.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import hashlib
import json
import os
import resource
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _import_seconds
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
from .engine import BatchEuler, IntegratorConfig, grid_steps
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
        """The integrator section as it is. Its T is the horizon of simulate
        alone: a path estimator integrates to the horizon of its command."""
        return IntegratorConfig(**self.resolved["integrator"])

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


# the key of the horizon each command integrates to; check integrates nothing
_HORIZONS = {"gradient": ("gradient", "t"), "moments": ("moments", "t"),
             "ibp": ("ibp", "t"), "converge": ("converge", "T"),
             "krylov": ("krylov", "T"), "simulate": ("integrator", "T")}


def parse_config(path, command: str | None = None, seed: int | None = None,
                 out: str | None = None) -> ExperimentConfig:
    """Load, validate and canonicalize a JSON experiment config.

    Unknown keys, values outside their domain in SCHEMA, a point (a list in
    system.params, the command's x and v) without one entry per dimension d
    of the system, an ibp.i that is not below d and a horizon the command
    integrates to off the grid of integrator.h (`grid_steps`) are rejected,
    defaults (the system's parameters too) are materialized into the
    resolved document, and the hash is computed over the canonical (sorted,
    compact) form so key order in the file is irrelevant. A seed (--seed)
    replaces mc.master_seed and is checked with the mc section; an out
    (--out) replaces output.directory, which the hash leaves out.
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

    if seed is not None and isinstance(raw.get("mc", {}), dict):
        raw["mc"] = {**raw.get("mc", {}), "master_seed": seed}
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
    if out is not None:
        resolved["output"]["directory"] = out
    d = params["d"]
    points = [(f"system.params.{key}", value) for key, value in params.items()]
    points += [(f"{cmd}.{key}", resolved[cmd].get(key)) for key in ("x", "v")]
    for key, value in points:
        if isinstance(value, list) and len(value) != d:
            raise ConfigError(f"{key} must be a list of {d} numbers, one per "
                              f"dimension of {name!r}, got {value!r}")
    if cmd == "ibp" and resolved["ibp"]["i"] >= d:
        raise ConfigError(f"ibp.i must be a coordinate index in 0..{d - 1} "
                          f"of {name!r}, got {resolved['ibp']['i']!r}")
    if cmd in _HORIZONS:
        section, key = _HORIZONS[cmd]
        try:
            grid_steps(resolved[section][key], resolved["integrator"]["h"],
                       f"{section}.{key}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return ExperimentConfig(command=cmd, resolved=resolved,
                            params_hash=_hash_config(resolved))


# ---------------------------------------------------------------------------
# command implementations; each returns (rows, extra_files, PathCounts or
# None) with rows as (estimator, t, value, std_error, n_paths, flags)

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
    row = (f"gradient_{blk['method']}", blk["t"], report.value,
           report.std_error, config.n_paths, {"payoff": blk["payoff"]})
    return [row], {}, report.paths


def _cmd_moments(config, system, workers):
    blk = config.block
    report = est.derivative_moment(
        system, blk["x"], blk["v"], blk["p"], blk["t"], config.n_paths,
        config.integrator, master_seed=config.master_seed, workers=workers)
    t0 = est.moment_window(system, blk["p"])
    row = ("derivative_moment", blk["t"], report.value, report.std_error,
           config.n_paths,
           {"p": blk["p"], "window_exceeded": blk["t"] > t0 + 1e-12})
    return [row], {}, report.paths


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
    return [row], {"trajectory.csv": "\n".join(lines) + "\n"}, None


def _cmd_converge(config, system, workers):
    blk = config.block
    fam = mollified_family(system, lambda0=blk.get("lambda0"),
                           eps0=blk.get("eps0"))
    gap_rows, paths = est.family_convergence(
        fam, blk["eps_list"], blk["x"], blk["v"], blk["T"], config.n_paths,
        config.integrator, master_seed=config.master_seed, workers=workers)
    rows = []
    for r in gap_rows:
        pair = {"eps": r.eps, "eps_next": r.eps_next}
        rows.append(("converge_flow", blk["T"], r.gap_flow, r.se_flow,
                     config.n_paths, pair))
        rows.append(("converge_derivative", blk["T"], r.gap_derivative,
                     r.se_derivative, config.n_paths, pair))
    return rows, {}, paths


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
    return rows, {}, None


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
    return rows, {}, report.paths


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
    return rows, {}, report.paths


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
    reruns and worker counts for the same effective config. The path counts
    of a command become the flags of each of its rows, here alone.
    """
    t_start = time.perf_counter()
    # rusage of the children reaped so far, such as those of a launcher
    # that exec'd this interpreter: _write_log reports what the run adds
    children_start = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        if workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {workers}")
        config = parse_config(config_path, command, seed, out)
        system = builtin(config.system_spec["name"],
                         **config.system_spec["params"])
        out_dir = Path(config.resolved["output"]["directory"]
                       or os.environ.get("FLOWLAB_OUT", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, ParameterConstraintError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    echo = dict(config.resolved)
    echo["params_hash"] = config.params_hash
    (out_dir / "config.echo.json").write_text(
        json.dumps(echo, indent=2, sort_keys=True) + "\n")

    detail, tally = "", collections.Counter()
    with warnings.catch_warnings():
        # every RuntimeWarning is counted, unless a filter the interpreter
        # was given (-W, PYTHONWARNINGS) matches it first
        warnings.filterwarnings("always", category=RuntimeWarning,
                                append=True)
        warnings.showwarning = _counting(tally, warnings.showwarning)
        try:
            rows, extra_files, paths = _COMMAND_IMPL[config.command](
                config, system, int(workers))
            noted = {} if paths is None else {  # nonzero counts flag each row
                key: value for key, value in vars(paths).items()
                if value and key not in ("n_paths", "clamped")}
            h = config.resolved["integrator"]["h"]
            csv_text = "".join(est.csv_row(
                estimator, system.name, config.params_hash, t, value,
                std_error, n_paths, h,
                {"seed": config.master_seed, **flags, **noted}) + "\n"
                for estimator, t, value, std_error, n_paths, flags in rows)
        except (FlowlabError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status, code = f"failed: {exc}", EXIT_CONFIG
        except Exception as exc:
            # last resort, so that every failure after the echo ends in
            # run.log (with the traceback) and a documented exit code
            message = f"{type(exc).__name__}: {exc}"
            print(f"error: {message}", file=sys.stderr)
            status, code = f"failed: {message}", EXIT_UNEXPECTED
            detail = traceback.format_exc()
        else:
            _atomic_write(out_dir / "result.csv",
                          est.CSV_HEADER + "\n" + csv_text)
            for name, text in extra_files.items():
                _atomic_write(out_dir / name, text)
            status, code = (("unreliable", EXIT_UNRELIABLE)
                            if "unreliable" in noted else ("ok", EXIT_OK))
    if tally:
        print(f"warning: {tally.total()} RuntimeWarnings ({len(tally)} "
              f"distinct), listed in run.log", file=sys.stderr)
    _write_log(out_dir, config, t_start, children_start, status, tally,
               detail)
    return code


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _counting(tally: collections.Counter, show):
    """A warnings.showwarning that counts each RuntimeWarning in tally by
    "file:line: message" instead of printing it, so that a warning raised
    at every step takes no more memory than one, and shows others by show.
    A forked worker's count is lost with the worker, so it shows the first
    of each distinct warning instead."""
    pid = os.getpid()

    def showwarning(message, category, filename, lineno, file=None,
                    line=None):
        if issubclass(category, RuntimeWarning):
            text = " ".join(str(message).split())
            key = f"{filename}:{lineno}: {text}"
            tally[key] += 1
            if os.getpid() == pid or tally[key] > 1:
                return
        show(message, category, filename, lineno, file, line)
    return showwarning


def _write_log(out_dir: Path, config: ExperimentConfig, t_start: float,
               children_start: resource.struct_rusage, status: str,
               warned: collections.Counter, detail: str = "") -> None:
    elapsed = time.perf_counter() - t_start
    # this process, and its workers once reaped; ru_maxrss is in kilobytes.
    # Children reaped before run() began (children_start) are left out: their
    # faults are subtracted, and the workers' peak reads 0 when no child was
    # reaped since. A maximum cannot be split, so when workers ran, a larger
    # peak of such an earlier child would still be reported as theirs
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    reaped = children != children_start
    workers_kb = children.ru_maxrss if reaped else 0
    worker_faults = children.ru_minflt - children_start.ru_minflt
    lines = [
        f"command: {config.command}",
        f"params_hash: {config.params_hash}",
        f"master_seed: {config.master_seed}",
        f"status: {status}",
        f"elapsed_seconds: {elapsed:.3f}",
        f"import_seconds: {_import_seconds:.3f}",
        f"peak_rss_mb: {own.ru_maxrss * 1024 / 1e6:.2f}",
        f"workers_peak_rss_mb: {workers_kb * 1024 / 1e6:.2f}",
        f"minor_page_faults: {own.ru_minflt + worker_faults}",
        f"finished_at: {time.strftime('%Y-%m-%dT%H:%M:%S')}",
        f"runtime_warnings: {warned.total()}",
        *(f"runtime_warning: {where} (x{n})" for where, n in warned.items()),
    ]
    (out_dir / "run.log").write_text("\n".join(lines) + "\n" + detail)


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap() -> None:
    """Have glibc keep freed memory in the heap of this process.

    A mollified member's Jacobians free megabytes of temporaries per
    convolution block. Under glibc's dynamic thresholds those go back to
    the kernel and the next block faults them in again, about 14k minor
    faults per converge step of 4 members. With both thresholds fixed they
    are reused; either one alone turns the dynamic adjustment off and
    faults more. Forked workers inherit the setting. Only main() calls
    this, since the process is then the CLI's own; a no-op without glibc's
    mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = argparse.ArgumentParser(
        prog="flowlab",
        description="Monte Carlo experiments on stochastic flows with "
                    "irregular coefficients")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override mc.master_seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (at most one per usable CPU); "
                             "results are independent of this")
    parser.add_argument("--out", default=None,
                        help="output directory (fallback: FLOWLAB_OUT)")
    args = parser.parse_args(argv)
    return run(args.command, args.config, seed=args.seed,
               workers=args.workers, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
