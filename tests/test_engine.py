"""Tests for the deterministic increment generator and the Euler integrator."""

import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from flowlab import IntegratorConfig, builtin, make_system
from flowlab import cli, engine
from flowlab.engine import BatchEuler, increments_block
from flowlab.estimators import exp_representation_gaps


def cfg(h=1e-3, T=1.0, **kw):
    return IntegratorConfig(h=h, T=T, **kw)


def one_path(system, x0, v0, master_seed, path_index, c):
    """A one-path BatchEuler on its own increments, run to the end; returns
    the driver, the (n_steps, m) increments and x, v after every step."""
    dws = increments_block(master_seed, path_index, 1, c.n_steps, c.h,
                           system.m)
    drv = BatchEuler(system, x0, v0, dws, c)
    xs, vs = [drv.x[0]], [drv.v[0]]
    while drv.advance():
        xs.append(drv.x[0])
        vs.append(drv.v[0])
    return drv, dws[0], np.array(xs), np.array(vs)


def simulate(tmp_path, system, block, integrator):
    """Run the simulate command; returns the exit code and the output
    directory."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"command": "simulate", "system": system,
                                "integrator": integrator,
                                "simulate": block}))
    out = tmp_path / "o"
    return cli.run("simulate", path, out=str(out)), out


# ---------------------------------------------------------------------------
# increments

SRC = Path(__file__).resolve().parents[1] / "src"

# what importing the scipy.special package adds for one ufunc (its array-API
# layer clones numpy, with f2py and testing): over half of `import flowlab`
NOT_IMPORTED = ("scipy.special", "scipy._lib.array_api_compat", "numpy.f2py",
                "numpy.testing")

_IMPORT_PROBE = """
import json, sys
if {scipy_first}:
    import scipy.special
import flowlab.cli
loaded = [name for name in {names!r} if name in sys.modules]
import scipy.special
import flowlab.engine
block = flowlab.engine.increments_block(3, 5, 2, 7, 0.01, 2)
print(json.dumps([loaded, flowlab.engine.ndtri is scipy.special.ndtri,
                  block.tobytes().hex()]))
"""


@pytest.mark.parametrize("scipy_first", [False, True])
def test_cli_imports_only_the_ndtri_ufunc(scipy_first):
    # a fresh interpreter: this one has imported scipy.special above
    proc = subprocess.run(
        [sys.executable, "-c",
         _IMPORT_PROBE.format(scipy_first=scipy_first, names=NOT_IMPORTED)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, same_ndtri, block = json.loads(proc.stdout)
    assert same_ndtri
    # the ndtri of a loaded scipy.special (_load_ndtri's first branch) gives
    # the bits of the one loaded without its package
    assert bytes.fromhex(block) == \
        increments_block(3, 5, 2, 7, 0.01, 2).tobytes()
    if not scipy_first:
        assert loaded == []


def test_increments_deterministic():
    a = increments_block(123, 7, 1, 50, 0.01, 2)[0]
    b = increments_block(123, 7, 1, 50, 0.01, 2)[0]
    assert np.array_equal(a, b)


def test_increments_distinct_paths_and_seeds():
    a = increments_block(123, 0, 1, 50, 0.01, 1)[0]
    b = increments_block(123, 1, 1, 50, 0.01, 1)[0]
    c = increments_block(124, 0, 1, 50, 0.01, 1)[0]
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def reference_increments(master_seed, path_index, n_steps, h, m):
    """The RNG contract as first written: a fresh generator per path."""
    key = np.array([master_seed, path_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    raw = gen.integers(0, 2**64, size=(n_steps, m), dtype=np.uint64,
                       endpoint=False)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u) * np.sqrt(h)


def test_increments_golden_values():
    assert increments_block(0, 0, 1, 2, 1.0, 2)[0].tolist() == [
        [-2.271884148324594, -0.701327920628698],
        [-1.218980191079758, 0.16217155791645022]]
    top = 2**64 - 1
    assert increments_block(top, top, 1, 3, 1.0, 1)[0].tolist() == [
        [-0.18437018740645797], [0.18022569476059613], [2.376553085644074]]
    # 21 draws: the last Philox block of four is only partly used
    a = increments_block(7, 3, 1, 7, 0.25, 3)[0]
    assert a.shape == (7, 3)
    assert a[0].tolist() == [-0.022405972608555362, 0.29758573808670247,
                             -0.8211977208887794]
    assert a[6].tolist() == [-0.5573100622954021, -0.3887161444458013,
                             0.37502391693344383]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_increments_block_matches_per_path_generator(m):
    # long paths, so that the block spans several groups of buffered rows
    n_steps = 5000
    rows = engine._RAW_BUFFER_BYTES // (8 * n_steps * m)
    n_paths = 2 * rows + 1
    first = 2**40 + 11
    block = increments_block(99, first, n_paths, n_steps, 0.01, m)
    assert block.shape == (n_paths, n_steps, m)
    for i in range(n_paths):
        assert np.array_equal(
            block[i], reference_increments(99, first + i, n_steps, 0.01, m))
    short = increments_block(2**64 - 2, 2**64 - 70, 65, 7, 0.3, m)
    for i in range(65):
        assert np.array_equal(short[i], reference_increments(
            2**64 - 2, 2**64 - 70 + i, 7, 0.3, m))


def test_increments_block_holds_no_block_sized_temporary():
    tracemalloc.start()
    try:
        out = increments_block(1, 0, 4096, 1000, 1e-3, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2**20


def test_increments_moments_at_scale():
    h = 0.01
    block = increments_block(2024, 0, 100000, 1, h, 1)[:, 0, 0]
    assert abs(block.mean()) < 4.0 * np.sqrt(h / block.size)
    assert 0.0098 <= block.var() <= 0.0102


def test_increments_finite():
    block = increments_block(5, 0, 1000, 50, 1e-3, 2)
    assert np.all(np.isfinite(block))


# ---------------------------------------------------------------------------
# integrator basics

def test_additive_noise_is_random_walk():
    s = builtin("additive_noise", sigma=2.0, d=1)
    c = cfg(h=0.01, T=0.5)
    drv, dws, xs, vs = one_path(s, [0.3], [1.0], 1, 0, c)
    walk = 0.3 + 2.0 * np.concatenate([[0.0], np.cumsum(dws[:, 0])])
    np.testing.assert_allclose(xs[:, 0], walk, atol=1e-12)
    np.testing.assert_allclose(vs[:, 0], 1.0, atol=0.0)
    assert drv.clamped[0] == 0
    assert not drv.exploded[0]


def test_gbm_state_and_derivative_share_the_factor():
    s = builtin("geometric_bm", mu=0.1, sigma=0.2, d=1)
    c = cfg(h=1e-3, T=1.0)
    _, _, xs, vs = one_path(s, [1.3], [1.3], 3, 2, c)
    # identical start: identical op sequence, bitwise equal
    assert np.array_equal(xs, vs)
    _, _, xs2, vs2 = one_path(s, [1.3], [3.51], 3, 2, c)
    ratio_x = xs2[:, 0] / 1.3
    ratio_v = vs2[:, 0] / 3.51
    np.testing.assert_allclose(ratio_v, ratio_x, rtol=1e-12)


def test_ou_derivative_matches_scalar_recursion():
    s = builtin("ornstein_uhlenbeck", theta=1.0, sigma=1.0, d=1)
    c = cfg(h=1e-3, T=1.0)
    drv, _, _, _ = one_path(s, [0.0], [1.0], 11, 0, c)
    assert drv.v[0, 0] == pytest.approx((1.0 - c.h) ** c.n_steps, rel=1e-12)
    assert abs(drv.v[0, 0] - np.exp(-1.0)) < 2e-4


def test_integrate_rejects_mismatched_noise_dimension():
    s = builtin("additive_noise", sigma=1.0, d=2)
    dws = increments_block(0, 0, 1, 10, 0.01, 1)
    with pytest.raises(ValueError):
        BatchEuler(s, np.zeros(2), np.zeros(2), dws, cfg(h=0.01, T=0.1))


def test_integrate_reports_nonfinite_coefficients(tmp_path, monkeypatch,
                                                  capsys):
    # simulate fails the run at the first step whose coefficients are not
    # finite, naming the step and the pre-step point
    def value(k, x):
        x = np.asarray(x, dtype=float)
        if k == 0:
            return np.where(np.abs(x) > 2.0, np.nan, -x)
        return np.ones_like(x)

    def jacobian(k, x):
        x = np.asarray(x, dtype=float)
        return (np.where(np.abs(x) > 2.0, np.nan, -1.0) if k == 0
                else np.zeros_like(x))[..., None]

    monkeypatch.setattr(cli, "builtin", lambda name, **params: make_system(
        "bad", 1, 1, value, jacobian))
    code, out = simulate(tmp_path, {"name": "ornstein_uhlenbeck"},
                         {"x": [3.0], "v": [0.0]}, {"h": 0.01, "T": 0.1})
    assert code == 2
    message = "non-finite coefficients at step 1, point array([3.])"
    assert message in capsys.readouterr().err
    assert f"status: failed: {message}" in (out / "run.log").read_text()
    assert not (out / "trajectory.csv").exists()


def test_guard_ball_exit_truncates_trajectory(tmp_path):
    code, out = simulate(
        tmp_path, {"name": "constant",
                   "params": {"sigma": 0.0001, "d": 1, "drift": [1.0]}},
        {"x": [0.0], "v": [0.0]}, {"h": 0.1, "T": 1.0, "guard_radius": 0.45})
    assert code == 0
    rows = [line.split(",") for line in
            (out / "trajectory.csv").read_text().splitlines()[1:]]
    # recorded up to the exit step, which ends outside the guard ball
    assert 1 < len(rows) < 11
    assert rows[-1][3] == "1"
    assert abs(float(rows[-1][1])) > 0.45
    assert all(abs(float(r[1])) <= 0.45 for r in rows[:-1])


@pytest.mark.parametrize("params,x0,v0", [
    ({}, [0.0, 0.0], [1.0, 0.0]),
    ({"r_min": 1e-3}, [5e-4, 0.0], [1.0, 0.0]),
    ({}, [0.0, 0.0], [0.0, 0.0]),
], ids=["origin", "declared_radius", "origin_derivative_free"])
def test_clamp_counter_example21_near_origin(params, x0, v0):
    # the clamp radius is the system's declared r_min: a start inside that
    # ball forces at least the first-step clamp, also on a derivative-free
    # run that evaluates no Jacobians
    s = builtin("example21", **params)
    c = IntegratorConfig(h=1e-3, T=0.01)
    drv, _, _, vs = one_path(s, x0, v0, 0, 0, c)
    assert drv.clamped[0] >= 1
    assert np.all(np.isfinite(vs))


def test_derivative_free_batch_ignores_nonfinite_jacobians():
    # v_0 = 0 keeps v = 0, so Jacobians that are not finite where the fields
    # are cannot fail a path; from v_0 = e_1 they make v non-finite
    s = make_system("inf_jacobian", 2, 2,
                    lambda k, x: np.full(np.shape(x), 0.5 * k),
                    lambda k, x: np.full(np.shape(x) + (2,), np.inf))
    c = cfg(h=1e-2, T=0.05)
    dws = increments_block(3, 0, 4, c.n_steps, c.h, 2)
    x0 = np.tile([0.3, -0.1], (4, 1))
    free = BatchEuler(s, x0, np.zeros((4, 2)), dws, c).run()
    assert not free.failed.any()
    assert np.array_equal(free.v, np.zeros((4, 2)))
    assert np.isfinite(free.x).all()
    tangent = BatchEuler(s, x0, np.tile([1.0, 0.0], (4, 1)), dws, c).run()
    assert tangent.failed.all()
    # every path fails at its first step and stays frozen at its start
    assert np.array_equal(tangent.x, x0)


def test_batch_euler_broadcasts_starts_directions_and_noise():
    s = builtin("ornstein_uhlenbeck", d=2)
    c = cfg(h=1e-2, T=0.1)
    dws = increments_block(3, 0, 5, c.n_steps, c.h, s.m)
    full = BatchEuler(s, np.tile([0.3, 0.1], (5, 1)),
                      np.tile([1.0, 0.0], (5, 1)), dws, c).run()
    shared = BatchEuler(s, [0.3, 0.1], [1.0, 0.0], dws, c).run()
    assert shared.n == 5
    np.testing.assert_array_equal(shared.x, full.x)
    np.testing.assert_array_equal(shared.v, full.v)
    # one noise path against several starts, and a scalar v0 = 0
    starts = np.array([[0.3, 0.1], [-0.2, 0.4]])
    common = BatchEuler(s, starts, 0.0, dws[0], c).run()
    assert common.n == 2 and not np.any(common.v)
    np.testing.assert_array_equal(common.x[0], full.x[0])


def test_batch_euler_rejects_sizes_that_do_not_broadcast():
    s = builtin("ornstein_uhlenbeck", d=2)
    c = cfg(h=1e-2, T=0.1)
    dws = increments_block(3, 0, 5, c.n_steps, c.h, s.m)
    with pytest.raises(ValueError):
        BatchEuler(s, np.zeros((3, 2)), [1.0, 0.0], dws, c)
    with pytest.raises(ValueError):
        BatchEuler(s, [0.3, 0.1], np.ones((2, 2)), dws, c)
    with pytest.raises(ValueError):
        BatchEuler(s, [0.3, 0.1, 0.0], [1.0, 0.0], dws, c)


def test_bitwise_reproducibility_and_batch_consistency():
    s = builtin("example21")
    c = cfg(h=1e-3, T=0.05)
    x0, v0 = np.array([0.4, -0.2]), np.array([1.0, 0.5])
    _, path, xs1, vs1 = one_path(s, x0, v0, 77, 5, c)
    _, _, xs2, vs2 = one_path(s, x0, v0, 77, 5, c)
    assert np.array_equal(xs1, xs2)
    assert np.array_equal(vs1, vs2)
    # a batch with three copies reproduces the one-path results bitwise
    dws = np.broadcast_to(path, (3,) + path.shape)
    drv = BatchEuler(s, np.tile(x0, (3, 1)), np.tile(v0, (3, 1)), dws, c).run()
    for i in range(3):
        assert np.array_equal(drv.x[i], xs1[-1])
        assert np.array_equal(drv.v[i], vs1[-1])


def test_euler_strong_error_scaling_gbm():
    mu, sigma, T = 0.1, 0.2, 1.0
    s = builtin("geometric_bm", mu=mu, sigma=sigma, d=1)
    n_paths = 256
    errs = []
    for h in (1e-2, 1e-3, 1e-4):
        c = cfg(h=h, T=T)
        dws = increments_block(31, 0, n_paths, c.n_steps, h, 1)
        drv = BatchEuler(s, np.ones((n_paths, 1)), np.ones((n_paths, 1)),
                         dws, c).run()
        w_T = dws[:, :, 0].sum(axis=1)
        exact = np.exp((mu - 0.5 * sigma**2) * T + sigma * w_T)
        errs.append(np.mean(np.abs(drv.x[:, 0] - exact)))
    slopes = [np.log10(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(slopes) >= 0.45, (errs, slopes)


# ---------------------------------------------------------------------------
# several starts on one noise path

def test_multi_start_additive_offsets_constant():
    s = builtin("additive_noise", sigma=1.0, d=2)
    c = cfg(h=1e-2, T=0.2)
    dws = increments_block(8, 0, 1, c.n_steps, c.h, 2)
    starts = np.array([[0.0, 0.0], [0.7, -0.3]])
    drv = BatchEuler(s, starts, 0.0, dws, c)
    for _, xs, _, _, _ in drv.steps():
        np.testing.assert_allclose(xs[1] - xs[0], starts[1] - starts[0],
                                   atol=1e-12)
    np.testing.assert_allclose(drv.x[1] - drv.x[0], starts[1] - starts[0],
                               atol=1e-12)


# ---------------------------------------------------------------------------
# exponential representation

def test_log_exponential_gbm_small_gap():
    s = builtin("geometric_bm", mu=0.1, sigma=0.2, d=1)
    c = cfg(h=1e-3, T=1.0)
    gaps = exp_representation_gaps(s, [1.0], [1.0], p=2.0, T=1.0, n_paths=5,
                                   cfg=c, master_seed=42)[0]
    assert gaps.size == 5
    assert np.all(gaps < 5.0 * c.h), gaps


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.0, T=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.1, T=1.0, guard_radius=0.0)
    # T is checked where it is read, by grid_steps
    with pytest.raises(ValueError, match="T = 0.05 must be a whole number "
                       "of steps h = 0.1"):
        IntegratorConfig(h=0.1, T=0.05).n_steps


# the last five are not at least one step
@pytest.mark.parametrize("t,h,whole", [
    (1.0, 1e-3, True), (0.1, 0.01, True), (0.9, 0.3, True), (0.25, 0.05, True),
    (1.0, 0.3, False), (0.1, 8e-3, False), (0.25, 0.1, False),
    (0.0, 1e-3, False), (-0.1, 1e-3, False), (5e-4, 1e-3, False),
    (math.nan, 1e-3, False), (math.inf, 1e-3, False)])
def test_grid_steps_accepts_grid_horizons_only(t, h, whole):
    if whole:
        assert engine.grid_steps(t, h) == round(t / h)
    else:
        with pytest.raises(ValueError, match=f"horizon = {t:g} must be a "
                           f"whole number of steps h = {h:g}, got "):
            engine.grid_steps(t, h, "horizon")


def _divisions_by_h(tree):
    """The enclosing function of every x / h, h a name or an attribute
    named h, in a module's syntax tree."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and (getattr(node.right, "id", None) == "h"
                     or getattr(node.right, "attr", None) == "h")):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_grid_steps_is_the_only_horizon_to_step_count():
    # a horizon becomes a step count, t / h, in engine.grid_steps alone, and
    # the rules it replaced are gone
    src = Path(engine.__file__).parent
    found, names = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [(path.stem, func) for func in _divisions_by_h(tree)]
        names |= {getattr(node, "name", getattr(node, "id", None))
                  for node in ast.walk(tree)}
        names |= {getattr(node, "attr", None) for node in ast.walk(tree)}
    assert set(found) == {("engine", "grid_steps")}
    assert not names & {"whole_steps", "with_horizon", "_on_grid"}
