"""Tests for the deterministic increment generator and the Euler integrator."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from flowlab import (
    IntegrationError,
    IntegratorConfig,
    builtin,
    integrate,
    make_system,
    sample_path,
)
from flowlab import engine
from flowlab.engine import BatchEuler, gaussian_increments, increments_block
from flowlab.estimators import exp_representation_gaps


def cfg(h=1e-3, T=1.0, **kw):
    return IntegratorConfig(h=h, T=T, **kw)


# ---------------------------------------------------------------------------
# increments

def test_increments_deterministic():
    a = gaussian_increments(123, 7, 50, 0.01, 2)
    b = gaussian_increments(123, 7, 50, 0.01, 2)
    assert np.array_equal(a, b)


def test_increments_distinct_paths_and_seeds():
    a = gaussian_increments(123, 0, 50, 0.01, 1)
    b = gaussian_increments(123, 1, 50, 0.01, 1)
    c = gaussian_increments(124, 0, 50, 0.01, 1)
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
    assert gaussian_increments(0, 0, 2, 1.0, 2).tolist() == [
        [-2.271884148324594, -0.701327920628698],
        [-1.218980191079758, 0.16217155791645022]]
    top = 2**64 - 1
    assert gaussian_increments(top, top, 3, 1.0, 1).tolist() == [
        [-0.18437018740645797], [0.18022569476059613], [2.376553085644074]]
    # 21 draws: the last Philox block of four is only partly used
    a = gaussian_increments(7, 3, 7, 0.25, 3)
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


def test_sample_path_carries_provenance():
    p = sample_path(9, 4, 10, 0.1, 3)
    assert (p.master_seed, p.path_index) == (9, 4)
    assert p.increments.shape == (10, 3)
    assert np.array_equal(p.times, 0.1 * np.arange(11))


# ---------------------------------------------------------------------------
# integrator basics

def test_additive_noise_is_random_walk():
    s = builtin("additive_noise", sigma=2.0, d=1)
    c = cfg(h=0.01, T=0.5)
    path = sample_path(1, 0, c.n_steps, c.h, 1)
    traj = integrate(s, np.array([0.3]), np.array([1.0]), path, c)
    walk = 0.3 + 2.0 * np.concatenate([[0.0], np.cumsum(path.increments[:, 0])])
    np.testing.assert_allclose(traj.xs[:, 0], walk, atol=1e-12)
    np.testing.assert_allclose(traj.vs[:, 0], 1.0, atol=0.0)
    assert traj.clamped == 0
    assert not traj.exploded


def test_gbm_state_and_derivative_share_the_factor():
    s = builtin("geometric_bm", mu=0.1, sigma=0.2, d=1)
    c = cfg(h=1e-3, T=1.0)
    path = sample_path(3, 2, c.n_steps, c.h, 1)
    x0, v0 = np.array([1.3]), np.array([1.3])
    traj = integrate(s, x0, v0, path, c)
    # identical start: identical op sequence, bitwise equal
    assert np.array_equal(traj.xs, traj.vs)
    traj2 = integrate(s, x0, np.array([3.51]), path, c)
    ratio_x = traj2.xs[:, 0] / x0[0]
    ratio_v = traj2.vs[:, 0] / 3.51
    np.testing.assert_allclose(ratio_v, ratio_x, rtol=1e-12)


def test_ou_derivative_matches_scalar_recursion():
    s = builtin("ornstein_uhlenbeck", theta=1.0, sigma=1.0, d=1)
    c = cfg(h=1e-3, T=1.0)
    path = sample_path(11, 0, c.n_steps, c.h, 1)
    traj = integrate(s, np.array([0.0]), np.array([1.0]), path, c)
    assert traj.vs[-1, 0] == pytest.approx((1.0 - c.h) ** c.n_steps, rel=1e-12)
    assert abs(traj.vs[-1, 0] - np.exp(-1.0)) < 2e-4


def test_integrate_rejects_mismatched_noise_dimension():
    s = builtin("additive_noise", sigma=1.0, d=2)
    path = sample_path(0, 0, 10, 0.01, 1)
    with pytest.raises(ValueError):
        integrate(s, np.zeros(2), np.zeros(2), path, cfg(h=0.01, T=0.1))


def test_integrate_reports_nonfinite_coefficients():
    def value(k, x):
        x = np.asarray(x, dtype=float)
        if k == 0:
            return np.where(np.abs(x) > 2.0, np.nan, -x)
        return np.ones_like(x)

    s = make_system("bad", 1, 1, value)
    c = cfg(h=0.01, T=0.1)
    path = sample_path(0, 0, c.n_steps, c.h, 1)
    with pytest.raises(IntegrationError) as err:
        integrate(s, np.array([3.0]), np.zeros(1), path, c)
    assert err.value.step == 1


def test_guard_ball_exit_truncates_trajectory():
    s = builtin("constant", sigma=0.0001, d=1, drift=(1.0,))
    c = IntegratorConfig(h=0.1, T=1.0, guard_radius=0.45)
    path = sample_path(0, 0, c.n_steps, c.h, 1)
    traj = integrate(s, np.array([0.0]), np.zeros(1), path, c)
    assert traj.exploded
    assert traj.exit_step == len(traj.xs) - 1
    assert len(traj.xs) < c.n_steps + 1
    assert np.linalg.norm(traj.xs[-1]) > 0.45


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
    path = sample_path(0, 0, c.n_steps, c.h, 2)
    traj = integrate(s, np.array(x0), np.array(v0), path, c)
    assert traj.clamped >= 1
    assert np.all(np.isfinite(traj.vs))


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
    assert np.array_equal(tangent.exit_step, np.ones(4, dtype=int))


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
    path = sample_path(77, 5, c.n_steps, c.h, 2)
    x0, v0 = np.array([0.4, -0.2]), np.array([1.0, 0.5])
    t1 = integrate(s, x0, v0, path, c)
    t2 = integrate(s, x0, v0, path, c)
    assert np.array_equal(t1.xs, t2.xs)
    assert np.array_equal(t1.vs, t2.vs)
    # a batch with three copies reproduces the single-path results bitwise
    dws = np.broadcast_to(path.increments, (3,) + path.increments.shape)
    drv = BatchEuler(s, np.tile(x0, (3, 1)), np.tile(v0, (3, 1)), dws, c).run()
    for i in range(3):
        assert np.array_equal(drv.x[i], t1.xs[-1])
        assert np.array_equal(drv.v[i], t1.vs[-1])


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
    path = sample_path(8, 0, c.n_steps, c.h, 2)
    starts = np.array([[0.0, 0.0], [0.7, -0.3]])
    drv = BatchEuler(s, starts, 0.0, path.increments, c)
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
                                   cfg=c, master_seed=42)
    assert gaps.size == 5
    assert np.all(gaps < 5.0 * c.h), gaps


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.0, T=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.1, T=0.05)
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.1, T=1.0, guard_radius=0.0)
