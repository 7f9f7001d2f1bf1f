"""Tests for the deterministic increment generator and the Euler integrator."""

import numpy as np
import pytest

from flowlab import (
    IntegrationError,
    IntegratorConfig,
    builtin,
    integrate,
    log_exponential_check,
    make_system,
    multi_start,
    sample_path,
)
from flowlab.engine import BatchEuler, gaussian_increments, increments_block


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
# multi_start

def test_multi_start_matches_integrate():
    s = builtin("example21")
    c = cfg(h=1e-3, T=0.02)
    path = sample_path(5, 1, c.n_steps, c.h, 2)
    starts = [np.array([0.1, 0.0]), np.array([0.5, -0.5])]
    trajs = multi_start(s, starts, np.array([1.0, 0.0]), path, c)
    for x0, traj in zip(starts, trajs):
        ref = integrate(s, x0, np.array([1.0, 0.0]), path, c)
        assert np.array_equal(traj.xs, ref.xs)
        assert np.array_equal(traj.vs, ref.vs)
    single = multi_start(s, starts[:1], np.array([1.0, 0.0]), path, c)
    assert len(single) == 1
    assert np.array_equal(single[0].xs, trajs[0].xs)


def test_multi_start_additive_offsets_constant():
    s = builtin("additive_noise", sigma=1.0, d=2)
    c = cfg(h=1e-2, T=0.2)
    path = sample_path(8, 0, c.n_steps, c.h, 2)
    x, y = np.array([0.0, 0.0]), np.array([0.7, -0.3])
    tx, ty = multi_start(s, [x, y], np.zeros(2), path, c)
    np.testing.assert_allclose(ty.xs - tx.xs,
                               np.broadcast_to(y - x, tx.xs.shape), atol=1e-12)


# ---------------------------------------------------------------------------
# exponential representation

def test_log_exponential_zero_jacobians_exact():
    s = builtin("additive_noise", sigma=1.5, d=2)
    c = cfg(h=1e-2, T=0.3)
    path = sample_path(21, 0, c.n_steps, c.h, 2)
    traj = integrate(s, np.zeros(2), np.array([0.6, 0.8]), path, c)
    direct, recon = log_exponential_check(s, traj, p=4.0)
    assert direct == pytest.approx(1.0, abs=1e-12)
    assert recon == pytest.approx(direct, abs=1e-12)


def test_log_exponential_gbm_small_gap():
    s = builtin("geometric_bm", mu=0.1, sigma=0.2, d=1)
    c = cfg(h=1e-3, T=1.0)
    for idx in range(5):
        path = sample_path(42, idx, c.n_steps, c.h, 1)
        traj = integrate(s, np.ones(1), np.ones(1), path, c)
        direct, recon = log_exponential_check(s, traj, p=2.0)
        assert abs(direct - recon) / direct < 5.0 * c.h


def test_log_exponential_ou_closed_forms():
    s = builtin("ornstein_uhlenbeck", theta=1.0, sigma=1.0, d=1)
    c = cfg(h=1e-3, T=1.0)
    path = sample_path(4, 0, c.n_steps, c.h, 1)
    traj = integrate(s, np.zeros(1), np.ones(1), path, c)
    direct, recon = log_exponential_check(s, traj, p=2.0)
    assert direct == pytest.approx((1.0 - c.h) ** (2 * c.n_steps), rel=1e-10)
    assert recon == pytest.approx(np.exp(-2.0), rel=1e-9)


def test_log_exponential_rejects_zero_derivative_state():
    from flowlab import ZeroDerivativeStateError
    s = builtin("ornstein_uhlenbeck", d=1)
    c = cfg(h=1e-2, T=0.1)
    path = sample_path(0, 0, c.n_steps, c.h, 1)
    traj = integrate(s, np.zeros(1), np.zeros(1), path, c)
    with pytest.raises(ZeroDerivativeStateError):
        log_exponential_check(s, traj, p=2.0)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.0, T=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.1, T=0.05)
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.1, T=1.0, guard_radius=0.0)
