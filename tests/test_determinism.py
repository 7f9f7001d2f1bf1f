"""Determinism harness over every path estimator.

Each caller of the driver `_map_paths` runs at every combination of worker
count, CHUNK_PATHS, MAX_BLOCK_BYTES and the mollifier's _CONV_BLOCK_POINTS
below, all cases first forwards and then backwards in one process, sharing
one MollifiedFamily; each must give the report of the plain single-worker
run, bit for bit. `ibp_residual`, which maps no paths, is compared at rerun
level. The guard radius is small enough that some paths explode, so the
per-path bookkeeping is joined across the ranges too, `bel_gradient` starts
inside example21's r_min ball, so the Jacobians' clamp runs on every axis,
and `family_convergence` starts on example21's truncation sphere, so a
convolution block may hold both truncated and untruncated points. The
callers are found by parsing estimators.py, so an estimator that maps paths
cannot miss this check.
"""

import ast
import dataclasses
import inspect
import itertools
import struct

import numpy as np
import pytest

import flowlab.approximation as approx_module
import flowlab.estimators as est_module
from flowlab import (
    IntegratorConfig,
    bel_gradient,
    builtin,
    derivative_moment,
    family_convergence,
    fd_gradient,
    flow_moment_bound_check,
    holder_modulus,
    ibp_residual,
    krylov_check,
    mollified_family,
)
from flowlab.estimators import PAYOFFS, SmoothBump, exp_representation_gaps

CFG = IntegratorConfig(h=0.05, T=0.25, guard_radius=1.0)
RUN = dict(n_paths=12, cfg=CFG, master_seed=11)
OU = builtin("ornstein_uhlenbeck", d=1)
GBM = builtin("geometric_bm", mu=0.1, sigma=0.4, d=1)
EX21 = builtin("example21")
# a start inside the clamp ball, so the Jacobians evaluate it on its sphere
EX21_BALL = builtin("example21", r_min=1e-3)
# leaves the R-ball of krylov_check within a step or two and explodes later
DRIFT = builtin("constant", d=1, drift=[6.0])
# a 32-node rule; truncated at R = 4 for every eps below
FAMILY = mollified_family(EX21, eps0=0.25, n_radial=4, n_angular=8)
# the guard of CFG would stop family paths started on the sphere
FAMILY_CFG = IntegratorConfig(h=0.05, T=0.25, guard_radius=10.0)
X, V, F = [0.3, 0.0], [1.0, 0.0], PAYOFFS["sin"]

CASES = {
    "derivative_moment": lambda w: derivative_moment(
        OU, [0.8], [1.0], p=2.0, t=0.25, workers=w, **RUN),
    "flow_moment_bound_check": lambda w: flow_moment_bound_check(
        EX21, X, lam=1.0, T=0.25, n_checkpoints=3, theta_box=2.0,
        theta_points=16, workers=w, **RUN),
    "bel_gradient": lambda w: bel_gradient(
        EX21_BALL, [5e-4, 0.0], V, F, t=0.25, workers=w, **RUN),
    "fd_gradient": lambda w: fd_gradient(
        EX21, X, V, F, t=0.25, delta=1e-2, workers=w, **RUN),
    "family_convergence": lambda w: family_convergence(
        FAMILY, [0.2, 0.1, 0.05], [3.97, 0.0], V, T=0.25, workers=w,
        **{**RUN, "cfg": FAMILY_CFG}),
    "krylov_check": lambda w: krylov_check(
        DRIFT, [0.0], T=0.25, R=0.3, workers=w, **RUN),
    "holder_modulus": lambda w: holder_modulus(
        EX21, [(X, [0.3, 0.05]), ([0.0, 0.4], [0.1, 0.4])], p=2.0, t=0.25,
        workers=w, **RUN),
    "exp_representation_gaps": lambda w: exp_representation_gaps(
        GBM, [0.9], [1.0], p=2.0, T=0.25, workers=w, **RUN),
    "ibp_residual": lambda w: ibp_residual(
        GBM, t=0.25, box=1.0, n_grid=11, phi=SmoothBump(0.8, d=1), i_coord=0,
        n_omega=2, cfg=CFG, master_seed=11),
}

# a block cap of a few paths: 40 bytes of increments per path and noise
# dimension at five steps
SMALL_BLOCK = 256
# two points of FAMILY's 32-node rule per convolution block
SMALL_CONV_BLOCK = 64
DRIVER_SETTINGS = list(itertools.product(
    (1, 2, 4), (1, 7, 4096), (est_module.MAX_BLOCK_BYTES, SMALL_BLOCK),
    (approx_module._CONV_BLOCK_POINTS, SMALL_CONV_BLOCK)))


def _bits(obj):
    """obj with every float and array replaced by its bytes, so that ==
    compares the bits (nan included)."""
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, tuple(
            _bits(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(map(_bits, obj))
    if isinstance(obj, dict):
        return tuple(sorted((k, _bits(v)) for k, v in obj.items()))
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, float):
        return struct.pack("<d", obj)
    return obj


def _cases():
    for name in CASES:
        settings = [(1, 4096, est_module.MAX_BLOCK_BYTES,
                     approx_module._CONV_BLOCK_POINTS)] \
            if name == "ibp_residual" else DRIVER_SETTINGS
        for setting in settings:
            yield name, setting


def _run(name, setting, monkeypatch):
    workers, chunk, block, conv_block = setting
    monkeypatch.setattr(est_module, "CHUNK_PATHS", chunk)
    monkeypatch.setattr(est_module, "MAX_BLOCK_BYTES", block)
    monkeypatch.setattr(approx_module, "_CONV_BLOCK_POINTS", conv_block)
    return _bits(CASES[name](workers))


@pytest.fixture(scope="module")
def runs():
    """Every case's report, forwards and then backwards, keyed by case."""
    cases = list(_cases())
    with pytest.MonkeyPatch.context() as monkeypatch:
        forwards = {case: _run(*case, monkeypatch) for case in cases}
        backwards = {case: _run(*case, monkeypatch)
                     for case in reversed(cases)}
    return forwards, backwards


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_do_not_depend_on_workers_chunks_blocks_or_order(runs, name):
    forwards, backwards = runs
    mine = [case for case in forwards if case[0] == name]
    reference = forwards[mine[0]]
    for case in mine:
        assert forwards[case] == reference, case
        assert backwards[case] == reference, case


def _map_paths_callers() -> set[str]:
    tree = ast.parse(inspect.getsource(est_module))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "_map_paths"
                    for call in ast.walk(node))}


def test_harness_covers_every_map_paths_caller():
    callers = _map_paths_callers()
    assert len(callers) >= 8
    assert callers == set(CASES) - {"ibp_residual"}


@pytest.mark.parametrize("n_paths", [0, -3])
@pytest.mark.parametrize("name", sorted(_map_paths_callers()))
def test_every_map_paths_caller_rejects_fewer_than_one_path(monkeypatch, name,
                                                            n_paths):
    monkeypatch.setitem(RUN, "n_paths", n_paths)
    with pytest.raises(ValueError, match="n_paths must be at least 1"):
        CASES[name](1)
