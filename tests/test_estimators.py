"""Tests for the Monte Carlo estimators against closed-form oracles."""

import inspect
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from flowlab import (
    CoefficientSystem,
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
    make_system,
    mollified_family,
    moment_window,
)
import flowlab.errors as errors
import flowlab.estimators as est_module
from flowlab.estimators import (
    PAYOFFS,
    PathCounts,
    SmoothBump,
    csv_row,
    exp_representation_gaps,
)


def cfg(h=1e-3, T=1.0):
    return IntegratorConfig(h=h, T=T)


def zero_system(d=1):
    def value(k, x):
        return np.zeros_like(np.asarray(x, dtype=float))
    return make_system("zero", d, d, value,
                       lambda k, x: np.zeros(np.asarray(x).shape + (d,)))


# ---------------------------------------------------------------------------
# moment window

def test_moment_window_formula():
    s = builtin("ornstein_uhlenbeck", d=1)  # kappa(p) = 1/p, d = 1
    assert moment_window(s, 2.0) == pytest.approx((1.0 / 2.0) / 3.0)


# ---------------------------------------------------------------------------
# derivative moments

def test_derivative_moment_zero_jacobians_exact():
    s = builtin("additive_noise", sigma=1.0, d=2)
    rep = derivative_moment(s, [0.0, 0.0], [0.6, 0.8], p=3.0, t=0.05,
                            n_paths=500, cfg=cfg(h=1e-2))
    assert rep.value == pytest.approx(1.0, abs=1e-14)
    assert rep.std_error < 1e-14
    assert 0.05 <= moment_window(s, 3.0)  # inside the window


def test_derivative_moment_ou_deterministic_decay():
    s = builtin("ornstein_uhlenbeck", theta=1.0, sigma=1.0, d=1)
    rep = derivative_moment(s, [0.0], [1.0], p=2.0, t=1.0, n_paths=200,
                            cfg=cfg(h=1e-3))
    assert abs(rep.value - math.exp(-2.0)) < 3e-4
    assert 1.0 > moment_window(s, 2.0)  # T0(2) = 1/6


def test_derivative_moment_gbm_lognormal_oracle():
    s = builtin("geometric_bm", mu=0.0, sigma=0.2, d=1)
    rep = derivative_moment(s, [1.0], [1.0], p=2.0, t=1.0, n_paths=20000,
                            cfg=cfg(h=1e-3))
    assert abs(rep.value - math.exp(0.04)) / math.exp(0.04) < 0.01


def test_derivative_moment_deterministic_across_workers_and_reruns():
    s = builtin("geometric_bm", d=1)
    args = dict(x=[1.0], v=[1.0], p=2.0, t=0.1, n_paths=6000,
                cfg=cfg(h=1e-2), master_seed=5)
    r1 = derivative_moment(s, **args, workers=1)
    r2 = derivative_moment(s, **args, workers=4)
    r3 = derivative_moment(s, **args, workers=1)
    assert (r1.value, r1.std_error) == (r2.value, r2.std_error)
    assert (r1.value, r1.std_error) == (r3.value, r3.std_error)


def _deterministic_cases():
    gbm = builtin("geometric_bm", d=1)
    ex = builtin("example21")
    x, v, f = [0.3, 0.0], [1.0, 0.0], PAYOFFS["sin"]
    common = dict(n_paths=60, cfg=cfg(h=2e-2), master_seed=5)
    return {
        "derivative_moment": lambda w: derivative_moment(
            gbm, [1.0], [1.0], p=2.0, t=0.2, workers=w, **common),
        "bel_gradient": lambda w: bel_gradient(
            ex, x, v, f, t=0.2, workers=w, **common),
        "fd_gradient": lambda w: fd_gradient(
            ex, x, v, f, t=0.2, delta=1e-2, workers=w, **common),
        "krylov_check": lambda w: krylov_check(
            ex, x, T=0.2, R=1.0, workers=w, **common),
    }


@pytest.mark.parametrize("chunk", [7, est_module.CHUNK_PATHS])
@pytest.mark.parametrize("estimator", ["derivative_moment", "bel_gradient",
                                       "fd_gradient", "krylov_check"])
def test_estimators_deterministic_across_workers_chunks_and_reruns(
        estimator, chunk, monkeypatch):
    run = _deterministic_cases()[estimator]
    reference = run(1)
    monkeypatch.setattr(est_module, "CHUNK_PATHS", chunk)
    assert run(1) == reference
    assert run(4) == reference
    assert run(1) == reference


# ---------------------------------------------------------------------------
# flow moment bound

def test_flow_bound_zero_coefficients_trivial():
    s = zero_system(d=2)
    rep = flow_moment_bound_check(s, [0.5, 0.5], lam=1.0, T=0.5, n_paths=64,
                                  cfg=cfg(h=0.05), theta_points=41)
    assert rep.all_passed
    assert all(c.lhs == rep.checkpoints[0].lhs for c in rep.checkpoints)


def test_flow_bound_ou_holds_with_margin():
    s = builtin("ornstein_uhlenbeck", theta=1.0, sigma=1.0, d=1)
    rep = flow_moment_bound_check(s, [1.0], lam=1.0, T=0.5, n_paths=4000,
                                  cfg=cfg(h=2e-3))
    assert rep.all_passed
    # theta for the OU drift: expression (1 - 2x^2 ... ) peaks at 1
    assert rep.theta.value == pytest.approx(1.0, abs=1e-3)


def test_flow_bound_reports_of_a_planar_system_compare_equal():
    # the report holds the grid argmax of Theta, a point in the plane
    def run():
        return flow_moment_bound_check(
            builtin("example21"), [0.3, 0.0], lam=1.0, T=0.1, n_paths=4,
            cfg=cfg(h=0.05), n_checkpoints=2, theta_box=2.0, theta_points=8)
    assert run() == run()


# ---------------------------------------------------------------------------
# gradients

def test_bel_gradient_additive_noise_recovers_direction():
    s = builtin("additive_noise", sigma=1.5, d=1)
    rep = bel_gradient(s, [0.2], [0.8], PAYOFFS["identity"], t=0.5,
                       n_paths=20000, cfg=cfg(h=2e-3))
    assert abs(rep.value - 0.8) <= 3.0 * rep.std_error
    assert rep.paths.gated == 0


def test_bel_gradient_ou_exponential_decay():
    s = builtin("ornstein_uhlenbeck", theta=1.0, sigma=1.0, d=1)
    rep = bel_gradient(s, [0.0], [1.0], PAYOFFS["identity"], t=1.0,
                       n_paths=20000, cfg=cfg(h=2e-3), master_seed=2)
    target = math.exp(-1.0)
    assert abs(rep.value - target) <= max(3.0 * rep.std_error, 0.02 * target)


def test_bel_gradient_rejects_a_horizon_between_grid_points():
    # the weight is divided by t, so rounding t to 3 steps of 0.3 would
    # report the gradient at horizon 0.9 divided by 1.0
    s = builtin("ornstein_uhlenbeck", d=1)
    with pytest.raises(ValueError, match=r"t = 1 .* h = 0\.3"):
        bel_gradient(s, [0.0], [1.0], PAYOFFS["identity"], t=1.0,
                     n_paths=20, cfg=cfg(h=0.3, T=0.9))


def test_bel_gradient_constant_payoff_centers_on_zero():
    s = builtin("ornstein_uhlenbeck", d=1)
    rep = bel_gradient(s, [0.3], [1.0], PAYOFFS["constant"], t=0.5,
                       n_paths=20000, cfg=cfg(h=2e-3), master_seed=7)
    assert abs(rep.value) <= 3.0 * rep.std_error


def test_bel_gradient_gate_flags_unreliable():
    s = builtin("geometric_bm", mu=0.0, sigma=0.2, d=2)
    rep = bel_gradient(s, [1.0, 1.0], [1.0, 0.0], PAYOFFS["identity"], t=0.1,
                       n_paths=500, cfg=cfg(h=1e-2), cond_max=1.0 - 1e-9)
    assert rep.paths.gated == 500
    assert rep.paths.unreliable
    assert math.isnan(rep.value)


def test_fd_gradient_linear_payoff_exact_with_crn():
    s = builtin("additive_noise", sigma=1.0, d=1)
    rep = fd_gradient(s, [0.0], [0.7], PAYOFFS["identity"], t=0.5,
                      n_paths=300, delta=1e-3, cfg=cfg(h=1e-2))
    assert rep.value == pytest.approx(0.7, rel=1e-10)
    assert rep.std_error < 1e-10


def test_fd_gradient_ou_matches_bel():
    s = builtin("ornstein_uhlenbeck", d=1)
    t = 1.0
    fd = fd_gradient(s, [0.0], [1.0], PAYOFFS["identity"], t=t, n_paths=20000,
                     delta=1e-3, cfg=cfg(h=2e-3), master_seed=11)
    bel = bel_gradient(s, [0.0], [1.0], PAYOFFS["identity"], t=t,
                       n_paths=20000, cfg=cfg(h=2e-3), master_seed=12)
    combined = math.hypot(fd.std_error, bel.std_error)
    assert abs(fd.value - bel.value) <= 3.0 * combined
    assert abs(fd.value - math.exp(-1.0)) <= max(3 * fd.std_error, 0.01)


def test_fd_gradient_delta_refinement_consistent():
    s = builtin("ornstein_uhlenbeck", d=1)
    reps = [fd_gradient(s, [0.2], [1.0], PAYOFFS["sin"], t=0.5, n_paths=5000,
                        delta=d_, cfg=cfg(h=2e-3), master_seed=3)
            for d_ in (1e-2, 1e-3)]
    combined = math.hypot(reps[0].std_error, reps[1].std_error)
    assert abs(reps[0].value - reps[1].value) <= max(3.0 * combined, 1e-4)


# ---------------------------------------------------------------------------
# family convergence

def test_family_convergence_constant_base_zero_gaps():
    s = builtin("constant", sigma=1.0, d=2)
    fam = mollified_family(s, eps0=0.3)
    rows = family_convergence(fam, [0.2, 0.1, 0.05], [0.1, 0.1], [1.0, 0.0],
                              T=0.05, n_paths=128, cfg=cfg(h=1e-2))[0]
    for row in rows:
        assert row.gap_flow == pytest.approx(0.0, abs=1e-12)
        assert row.gap_derivative == pytest.approx(0.0, abs=1e-12)


def test_family_convergence_gbm_members_close_to_base():
    s = builtin("geometric_bm", mu=0.1, sigma=0.2, d=1)
    fam = mollified_family(s, eps0=0.3)
    rows = family_convergence(fam, [0.2, 0.1, 0.05], [1.0], [1.0], T=0.05,
                              n_paths=256, cfg=cfg(h=5e-3))[0]
    # affine fields mollify exactly inside the truncation ball, so the gaps
    # sit at quadrature round-off
    for row in rows:
        assert row.gap_flow < 1e-3
        assert row.gap_derivative < 1e-3


def test_family_convergence_example21_smoke_monotone():
    s = builtin("example21")
    fam = mollified_family(s, eps0=0.25, n_radial=8, n_angular=16)
    rows = family_convergence(fam, [0.2, 0.1, 0.05], [0.3, 0.0], [1.0, 0.0],
                              T=0.05, n_paths=400, cfg=cfg(h=5e-3),
                              master_seed=1)[0]
    gaps = [r.gap_flow for r in rows]
    ses = [r.se_flow for r in rows]
    for i in range(len(gaps) - 1):
        assert gaps[i + 1] <= gaps[i] + 2.0 * (ses[i] + ses[i + 1])


def test_family_convergence_requires_descending_eps():
    s = builtin("constant", sigma=1.0, d=1)
    fam = mollified_family(s, eps0=0.3)
    with pytest.raises(ValueError):
        family_convergence(fam, [0.05, 0.1], [0.0], [1.0], T=0.05,
                           n_paths=8, cfg=cfg(h=1e-2))


# ---------------------------------------------------------------------------
# integration by parts

def test_ibp_residual_affine_flow_quadrature_limited():
    s = builtin("additive_noise", sigma=1.0, d=1)
    bump = SmoothBump(radius=0.8, d=1)
    rep = ibp_residual(s, t=0.1, box=1.0, n_grid=201, phi=bump, i_coord=0,
                       n_omega=3, cfg=cfg(h=1e-2))
    assert rep.max_residual < 1e-6


def test_ibp_residual_gbm():
    s = builtin("geometric_bm", mu=0.1, sigma=0.2, d=1)
    bump = SmoothBump(radius=0.3, center=[1.0], d=1)
    # grid centered on x = 1 so paths stay away from the degenerate origin
    rep = ibp_residual_shifted(s, bump, t=0.1)
    assert rep.max_residual < 1e-4


def ibp_residual_shifted(system, bump, t):
    from flowlab.engine import BatchEuler, increments_block
    from flowlab.estimators import IbpReport, PathRecord
    c = cfg(h=1e-3, T=t)
    axis = np.linspace(0.5, 1.5, 201)
    starts = axis[:, None]
    weight = axis[1] - axis[0]
    phi_vals = bump.value(starts)
    dphi_vals = bump.partial(starts, 0)
    residuals, drivers = [], []
    for omega in range(3):
        dws = increments_block(0, omega, 1, c.n_steps, c.h, 1)
        drv = BatchEuler(system, starts, [1.0], dws, c).run()
        drivers.append(drv)
        r = abs(weight * float(np.sum(dphi_vals * drv.x[:, 0]))
                + weight * float(np.sum(phi_vals * drv.v[:, 0])))
        residuals.append(r)
    return IbpReport(float(np.mean(residuals)), float(np.max(residuals)),
                     tuple(residuals), PathRecord.of(*drivers).counts(
                         kept=np.ones(len(axis), dtype=bool)))


# ---------------------------------------------------------------------------
# krylov ratio

def test_krylov_zero_function():
    s = builtin("additive_noise", sigma=1.0, d=1)
    rep = krylov_check(s, [0.0], T=0.25, R=5.0, n_paths=200, cfg=cfg(h=1e-2),
                       f=lambda t, x: np.zeros(x.shape[:-1]), f_norm=0.0)
    assert rep.lhs == 0.0
    assert rep.lhs <= rep.rhs_shape
    assert math.isnan(rep.ratio)


def test_krylov_additive_unit_f_closed_form():
    # det A = sigma^2 and tau_R is essentially never hit at R = 10, so
    # lhs = sigma * T exactly path by path
    s = builtin("additive_noise", sigma=1.0, d=1)
    rep = krylov_check(s, [0.0], T=0.25, R=10.0, n_paths=500, cfg=cfg(h=1e-2))
    assert rep.lhs == pytest.approx(0.25, rel=1e-9)
    assert rep.lhs_std_error < 1e-12
    assert 0.0 < rep.ratio < 1.0


def test_krylov_ratio_stable_under_doubling():
    s = builtin("additive_noise", sigma=1.0, d=1)
    r1 = krylov_check(s, [0.0], T=0.25, R=2.0, n_paths=10000, cfg=cfg(h=2e-3))
    r2 = krylov_check(s, [0.0], T=0.25, R=2.0, n_paths=20000, cfg=cfg(h=2e-3))
    assert abs(r2.ratio - r1.ratio) / r1.ratio < 0.2


def test_krylov_ratio_stable_across_starts_example21():
    # the ratio varies only mildly over a compact set of starting points
    s = builtin("example21")
    ratios = [krylov_check(s, x, T=0.25, R=2.0, n_paths=4000, cfg=cfg(h=2e-3),
                           master_seed=17).ratio
              for x in ([0.3, 0.0], [0.0, 0.4], [0.25, 0.25], [-0.2, 0.1])]
    mean = sum(ratios) / len(ratios)
    assert all(abs(r - mean) / mean < 0.2 for r in ratios)


# ---------------------------------------------------------------------------
# estimator domains, for callers that do not come through a config

def _ibp(n_grid=11, n_omega=1, t=0.05, h=1e-2):
    return ibp_residual(builtin("additive_noise", d=1), t, 1.0, n_grid,
                        SmoothBump(0.8, d=1), 0, n_omega, cfg(h=h))


# a horizon of 0.1 is 3.33 steps of h = 3e-2
OFF_GRID = {"n_paths": 4, "cfg": cfg(h=3e-2)}
ADDITIVE = builtin("additive_noise", d=1)


OUTSIDE_THE_DOMAIN = {
    "derivative_moment(t=0.1, h=3e-2)": (lambda: derivative_moment(
        ADDITIVE, [0.0], [1.0], 2.0, t=0.1, **OFF_GRID),
        r"t = 0.1 .* h = 0.03"),
    "flow_moment_bound_check(T=0.1, h=3e-2)": (
        lambda: flow_moment_bound_check(ADDITIVE, [0.0], 1.0, T=0.1,
                                        **OFF_GRID), r"T = 0.1 .* h = 0.03"),
    "fd_gradient(t=0.1, h=3e-2)": (lambda: fd_gradient(
        ADDITIVE, [0.0], [1.0], PAYOFFS["identity"], t=0.1, delta=1e-2,
        **OFF_GRID), r"t = 0.1 .* h = 0.03"),
    "family_convergence(T=0.1, h=3e-2)": (lambda: family_convergence(
        mollified_family(ADDITIVE, eps0=0.3), [0.2, 0.1], [0.0], [1.0], T=0.1,
        **OFF_GRID), r"T = 0.1 .* h = 0.03"),
    "krylov_check(T=0.1, h=3e-2)": (lambda: krylov_check(
        ADDITIVE, [0.0], T=0.1, R=1.0, **OFF_GRID), r"T = 0.1 .* h = 0.03"),
    "holder_modulus(t=0.1, h=3e-2)": (lambda: holder_modulus(
        ADDITIVE, [([0.0], [0.5])], 2.0, t=0.1, **OFF_GRID),
        r"t = 0.1 .* h = 0.03"),
    "exp_representation_gaps(T=0.1, h=3e-2)": (
        lambda: exp_representation_gaps(ADDITIVE, [0.0], [1.0], 2.0, T=0.1,
                                        **OFF_GRID), r"T = 0.1 .* h = 0.03"),
    "ibp_residual(n_grid=1)": (lambda: _ibp(n_grid=1), "n_grid"),
    "ibp_residual(n_grid=2.5)": (lambda: _ibp(n_grid=2.5), "n_grid"),
    "ibp_residual(n_omega=0)": (lambda: _ibp(n_omega=0), "n_omega"),
    "ibp_residual(t=0.1, h=8e-3)": (lambda: _ibp(t=0.1, h=8e-3),
                                    r"t = 0.1 .* h = 0.008"),
    "derivative_moment(p=0)": (lambda: derivative_moment(
        builtin("additive_noise", d=1), [0.0], [1.0], 0, 0.05, 8,
        cfg(h=1e-2)), "moment order p"),
    "krylov_check(R=-1)": (lambda: krylov_check(
        builtin("additive_noise", d=1), [0.0], 0.05, -1, 8, cfg(h=1e-2)),
        "radius R"),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE_THE_DOMAIN))
def test_estimators_reject_arguments_outside_their_domain(case):
    call, named = OUTSIDE_THE_DOMAIN[case]
    with pytest.raises(ValueError, match=named):
        call()


# ---------------------------------------------------------------------------
# Holder modulus

def test_holder_additive_identity_ratio():
    s = builtin("additive_noise", sigma=1.0, d=2)
    rows = holder_modulus(s, [([0.0, 0.0], [0.5, 0.5])], p=2.0, t=0.1,
                          n_paths=200, cfg=cfg(h=1e-2))[0]
    assert rows[0].ratio == pytest.approx(1.0, rel=1e-12)
    assert rows[0].std_error < 1e-12


def test_holder_gbm_lognormal_moment():
    s = builtin("geometric_bm", mu=0.0, sigma=0.2, d=1)
    t = 0.15
    rows = holder_modulus(s, [([1.0], [1.1])], p=2.0, t=t, n_paths=10000,
                          cfg=cfg(h=1e-3))[0]
    target = math.exp(0.2**2 * t)
    assert abs(rows[0].ratio - target) / target < 0.01


def test_holder_example21_scale_free_ratios():
    s = builtin("example21")
    base = np.array([0.3, 0.2])
    pairs = [(base, base + [1e-2, 0.0]), (base, base + [1e-3, 0.0])]
    rows = holder_modulus(s, pairs, p=2.0, t=0.1, n_paths=2000,
                          cfg=cfg(h=2e-3))[0]
    combined = rows[0].std_error + rows[1].std_error
    assert abs(rows[0].ratio - rows[1].ratio) <= max(2.0 * combined, 0.02)


def test_holder_modulus_draws_increments_once_per_chunk(monkeypatch):
    # all pairs share one draw of each chunk's increments
    s = builtin("additive_noise", sigma=1.0, d=2)
    pairs = [([0.0, 0.0], [0.5, 0.5]), ([0.1, 0.0], [0.0, 0.2]),
             ([0.3, 0.3], [0.3, 0.4])]
    draws = []
    block = est_module.increments_block

    def counting(*args):
        draws.append(args)
        return block(*args)

    monkeypatch.setattr(est_module, "increments_block", counting)
    monkeypatch.setattr(est_module, "CHUNK_PATHS", 16)
    rows = holder_modulus(s, pairs, p=2.0, t=0.05, n_paths=40,
                          cfg=cfg(h=1e-2))[0]
    assert len(rows) == 3
    assert len(draws) == 3  # chunks of 16, 16 and 8 paths


@pytest.mark.parametrize("h, m, n_paths, sizes", [
    (1e-3, 2, 5000, [4096, 904]),           # CHUNK_PATHS caps the range
    (1e-4, 2, 4096, [419] * 9 + [325]),     # 160 kB of increments per path
    (1e-9, 1, 3, [1, 1, 1]),                # one path exceeds the bound
])
def test_map_paths_bounds_the_increment_block(h, m, n_paths, sizes,
                                              monkeypatch):
    blocks = []

    def recording(master_seed, first_path, n, n_steps, h_, m_):
        blocks.append((first_path, n, n_steps * m_ * 8 * n))
        return np.broadcast_to(0.0, (n, n_steps, m_))

    def run(dws):
        none = np.zeros(len(dws), dtype=bool)
        return (est_module.PathRecord(none, none, none, none.astype(int)),
                np.full(len(dws), 1))

    monkeypatch.setattr(est_module, "increments_block", recording)
    record, lengths = est_module._map_paths(run, n_paths, round(1 / h), h,
                                            m, master_seed=0)
    assert [n for _, n, _ in blocks] == sizes
    assert [a for a, _, _ in blocks] == list(np.cumsum([0] + sizes[:-1]))
    assert len(lengths) == len(record.kept) == n_paths
    if sizes[0] > 1:
        assert max(b for _, _, b in blocks) <= est_module.MAX_BLOCK_BYTES


# ---------------------------------------------------------------------------
# worker processes

def _range_record(dws):
    """A run that returns each path's first noise value; increments are
    stubbed by _stub_increments."""
    none = np.zeros(len(dws), dtype=bool)
    return (est_module.PathRecord(none, none, none, none.astype(int)),
            dws[:, 0, 0].copy())


def _stub_increments(master_seed, first_path, n, n_steps, h, m):
    """Increments whose value is the path index."""
    return np.broadcast_to(np.arange(first_path, first_path + n,
                                     dtype=float)[:, None, None],
                           (n, n_steps, m))


@pytest.mark.parametrize("workers, n_paths, procs", [
    (10_000, 40, 3),    # bounded by the usable CPUs
    (10_000, 16, 2),    # bounded by the two ranges
    (2, 40, 2),         # bounded by workers
    (1, 40, None),      # serial
    (10_000, 8, None),  # one range: serial
])
def test_map_paths_bounds_the_process_count(monkeypatch, workers, n_paths,
                                            procs):
    calls = []

    def recording(fn, items, n):
        calls.append(n)
        return [fn(item) for item in items]

    monkeypatch.setattr(est_module.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2})
    monkeypatch.setattr(est_module, "_fork_map", recording)
    monkeypatch.setattr(est_module, "increments_block", _stub_increments)
    monkeypatch.setattr(est_module, "CHUNK_PATHS", 8)
    record, first = est_module._map_paths(_range_record, n_paths, 2, 0.5, 1,
                                          master_seed=0, workers=workers)
    assert calls == ([] if procs is None else [procs])
    assert first.tolist() == list(range(n_paths))


def test_fork_map_joins_in_order_and_leaves_no_worker(monkeypatch):
    monkeypatch.setattr(est_module, "increments_block", _stub_increments)
    monkeypatch.setattr(est_module, "CHUNK_PATHS", 3)
    record, first = est_module._map_paths(_range_record, 20, 2, 0.5, 1,
                                          master_seed=0, workers=2)
    assert first.tolist() == list(range(20))
    assert len(record.kept) == 20
    assert multiprocessing.active_children() == []


def test_fork_map_raises_the_serial_error_with_its_type(monkeypatch):
    # ranges [0, 3), [3, 6), [6, 9), ... on two workers: the first worker
    # fails on [6, 9) at once, the second on [3, 6) a moment later, and the
    # serial map's error, from [3, 6), is the one raised
    def failing(dws):
        if dws[0, 0, 0] == 3.0:
            time.sleep(0.3)
            raise errors.IntegrationError(f"in {os.getpid()}", step=4,
                                          point=np.array([1.0, 2.0]))
        if dws[0, 0, 0] == 6.0:
            raise ValueError("a later range")
        return _range_record(dws)

    monkeypatch.setattr(est_module, "increments_block", _stub_increments)
    monkeypatch.setattr(est_module, "CHUNK_PATHS", 3)
    with pytest.raises(errors.IntegrationError) as info:
        est_module._map_paths(failing, 20, 2, 0.5, 1, master_seed=0,
                              workers=2)
    assert str(info.value) != f"in {os.getpid()}"  # raised in a worker
    assert info.value.step == 4
    assert info.value.point.tolist() == [1.0, 2.0]
    assert multiprocessing.active_children() == []


def test_fork_map_stops_at_the_first_error(monkeypatch, tmp_path):
    # 40 one-path ranges of 50 ms each on two workers; range 0 raises, and
    # the ranges not yet started are cancelled
    def slow(dws):
        first = int(dws[0, 0, 0])
        (tmp_path / str(first)).touch()
        time.sleep(0.05)
        if first == 0:
            raise ValueError("range 0")
        return _range_record(dws)

    monkeypatch.setattr(est_module.os, "sched_getaffinity",
                        lambda pid: {0, 1})
    monkeypatch.setattr(est_module, "increments_block", _stub_increments)
    monkeypatch.setattr(est_module, "CHUNK_PATHS", 1)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="range 0"):
        est_module._map_paths(slow, 40, 2, 0.5, 1, master_seed=0,
                              workers=2)
    assert len(list(tmp_path.iterdir())) < 10
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


_KILLED_WORKER = """
import multiprocessing, os, signal, time
import flowlab.estimators as est

def increments(master_seed, first_path, n, n_steps, h, m):
    if first_path == 0:
        time.sleep(60)  # the other worker: stopped, not waited for
    else:
        os.kill(os.getpid(), signal.SIGKILL)

def run(dws):
    raise AssertionError("unreachable")

est.increments_block = increments
est.CHUNK_PATHS = 4
start = time.perf_counter()
try:
    est._map_paths(run, 8, 2, 0.5, 1, 0, workers=2)
except Exception as exc:
    print(type(exc).__name__, time.perf_counter() - start,
          multiprocessing.active_children() == [])
"""


def test_fork_map_raises_when_a_worker_dies():
    # in a child interpreter, so that a hang fails the test at the timeout
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _KILLED_WORKER],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    name, seconds, reaped = proc.stdout.split()
    assert name == "BrokenProcessPool"
    assert float(seconds) < 20.0
    assert reaped == "True"


def test_every_flowlab_error_survives_pickle():
    examples = {
        errors.FlowlabError: errors.FlowlabError("base"),
        errors.SingularPointError: errors.SingularPointError("at 0"),
        errors.RadiusTooSmallError: errors.RadiusTooSmallError("R < 3"),
        errors.ParameterConstraintError: errors.ParameterConstraintError(
            "q3 too small", constraint="q3 > 2(1 - q1)"),
        errors.IntegrationError: errors.IntegrationError(
            "non-finite", step=7, point=[0.5, np.inf]),
        errors.ZeroDerivativeStateError: errors.ZeroDerivativeStateError(
            "v = 0"),
        errors.ConfigError: errors.ConfigError("bad key"),
    }
    assert set(examples) == {
        obj for obj in vars(errors).values()
        if inspect.isclass(obj) and issubclass(obj, errors.FlowlabError)}
    for cls, exc in examples.items():
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc) and back.args == exc.args
        assert vars(back) == vars(exc)


# ---------------------------------------------------------------------------
# one kept path

def _one_path_estimates(c):
    ou = builtin("ornstein_uhlenbeck", d=1)
    gbm = builtin("geometric_bm", mu=0.1, sigma=0.2, d=1)
    one = dict(n_paths=1, cfg=c)
    yield derivative_moment(ou, [0.0], [1.0], p=2.0, t=0.05, **one)
    yield bel_gradient(ou, [0.0], [1.0], PAYOFFS["sin"], t=0.05, **one)
    yield fd_gradient(ou, [0.0], [1.0], PAYOFFS["sin"], t=0.05, delta=1e-2,
                      **one)
    bound = flow_moment_bound_check(ou, [0.5], lam=1.0, T=0.05,
                                    n_checkpoints=2, theta_box=2.0,
                                    theta_points=16, **one)
    for row in bound.checkpoints:
        yield row.lhs, row.std_error
    fam = mollified_family(gbm, eps0=0.3)
    for row in family_convergence(fam, [0.2, 0.1], [1.0], [1.0], T=0.05,
                                  **one)[0]:
        yield row.gap_flow, row.se_flow
        yield row.gap_derivative, row.se_derivative
    rep = krylov_check(ou, [0.0], T=0.05, R=5.0, **one)
    yield rep.lhs, rep.lhs_std_error
    for row in holder_modulus(gbm, [([1.0], [1.1])], p=2.0, t=0.05,
                              **one)[0]:
        yield row.ratio, row.std_error


def test_one_kept_path_gives_a_value_and_a_nan_standard_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimates = [(e.value, e.std_error) if hasattr(e, "value") else e
                     for e in _one_path_estimates(cfg(h=1e-2))]
    assert len(estimates) == 9
    for value, se in estimates:
        assert math.isfinite(value)
        assert math.isnan(se)


# ---------------------------------------------------------------------------
# path counts

# a guard radius that about one path in six leaves within the horizon
LEAKY = IntegratorConfig(h=1e-2, T=0.1, guard_radius=0.5)
NOISE = builtin("additive_noise", sigma=1.0, d=1)
# every path leaves the guard ball, after leaving the unit ball
STEEP = IntegratorConfig(h=1e-3, T=0.25, guard_radius=1.5)
DRIFT = builtin("constant", d=1, drift=[50.0])


def _counts(n_paths, excluded, exploded):
    return PathCounts(n_paths=n_paths, excluded=excluded, failed=0,
                      exploded=exploded, gated=0, clamped=0, unreliable=True)


EXPLODING = {
    "derivative_moment": (lambda: derivative_moment(
        NOISE, [0.0], [1.0], p=2.0, t=0.1, n_paths=64, cfg=LEAKY),
        _counts(64, 11, 11)),
    "flow_moment_bound_check": (lambda: flow_moment_bound_check(
        NOISE, [0.0], lam=1.0, T=0.1, n_paths=64, cfg=LEAKY, theta_box=2.0,
        theta_points=16), _counts(64, 11, 11)),
    "bel_gradient": (lambda: bel_gradient(
        NOISE, [0.0], [1.0], PAYOFFS["identity"], t=0.1, n_paths=64,
        cfg=LEAKY), _counts(64, 11, 11)),
    # a path counts once when it explodes from either bumped start
    "fd_gradient": (lambda: fd_gradient(
        NOISE, [0.0], [1.0], PAYOFFS["identity"], t=0.1, n_paths=64,
        delta=1e-2, cfg=LEAKY), _counts(64, 12, 12)),
    "family_convergence": (lambda: family_convergence(
        mollified_family(NOISE, eps0=0.3), [0.2, 0.1], [0.0], [1.0], T=0.1,
        n_paths=64, cfg=LEAKY), _counts(64, 11, 11)),
    "holder_modulus": (lambda: holder_modulus(
        NOISE, [([0.0], [0.1])], p=2.0, t=0.1, n_paths=64, cfg=LEAKY),
        _counts(64, 15, 15)),
    "exp_representation_gaps": (lambda: exp_representation_gaps(
        NOISE, [0.0], [1.0], p=2.0, T=0.1, n_paths=64, cfg=LEAKY),
        _counts(64, 11, 11)),
    # counted, not excluded: the occupation integrals ended at the exit
    # from the unit ball
    "krylov_check": (lambda: krylov_check(
        DRIFT, [0.0], T=0.25, R=1.0, n_paths=64, cfg=STEEP),
        _counts(64, 0, 64)),
    # counted over the grid starts, not excluded from the quadrature
    "ibp_residual": (lambda: ibp_residual(
        DRIFT, t=0.1, box=1.0, n_grid=41, phi=SmoothBump(0.8, d=1),
        i_coord=0, n_omega=2, cfg=STEEP), _counts(41, 0, 41)),
}


@pytest.mark.parametrize("estimator", sorted(EXPLODING))
def test_reports_count_the_paths_of_an_exploding_system(estimator):
    call, counts = EXPLODING[estimator]
    report = call()
    # the table estimators return their rows and then the counts
    assert (report[1] if isinstance(report, tuple) else report.paths) \
        == counts


def test_estimates_reduce_over_the_kept_paths_only():
    # each kept path of the common-noise difference quotient is exactly 1;
    # an exploded path froze its two flows at different exits
    rep = EXPLODING["fd_gradient"][0]()
    assert rep.value == pytest.approx(1.0, rel=1e-12)
    gaps = EXPLODING["exp_representation_gaps"][0]()[0]
    assert gaps.size == 64 - 11


def _cliff():
    # finite fields on |x| < 0.4 only: paths that step past it fail
    def value(k, x):
        x = np.asarray(x, dtype=float)
        field = np.zeros_like(x) if k == 0 else np.ones_like(x)
        return np.where(np.abs(x) < 0.4, field, np.nan)
    return make_system("cliff", 1, 1, value,
                       lambda k, x: np.zeros(np.asarray(x).shape + (1,)))


def test_reports_count_and_exclude_failed_paths():
    c = cfg(h=1e-2, T=0.1)
    fd = fd_gradient(_cliff(), [0.0], [1.0], PAYOFFS["identity"], t=0.1,
                     n_paths=64, delta=1e-2, cfg=c)
    assert (fd.paths.failed, fd.paths.excluded) == (18, 18)
    assert fd.value == pytest.approx(1.0, rel=1e-12)
    kry = krylov_check(_cliff(), [0.0], T=0.1, R=1.0, n_paths=64, cfg=c)
    assert (kry.paths.failed, kry.paths.excluded) == (17, 17)


# ---------------------------------------------------------------------------
# derivative-free estimators

DERIVATIVE_FREE = {
    "fd_gradient": lambda s, c: fd_gradient(
        s, [0.3, 0.0], [1.0, 0.0], PAYOFFS["sin"], t=0.01, n_paths=8,
        delta=1e-3, cfg=c),
    "holder_modulus": lambda s, c: holder_modulus(
        s, [([0.3, 0.0], [0.3, 0.05])], p=2.0, t=0.01, n_paths=8, cfg=c),
    "flow_moment_bound_check": lambda s, c: flow_moment_bound_check(
        s, [0.3, 0.0], lam=1.0, T=0.01, n_paths=8, cfg=c, n_checkpoints=2,
        theta_box=2.0, theta_points=16),
    "krylov_check": lambda s, c: krylov_check(
        s, [0.3, 0.0], T=0.01, R=2.0, n_paths=8, cfg=c),
}


@pytest.mark.parametrize("estimator", sorted(DERIVATIVE_FREE))
def test_derivative_free_estimators_make_no_jacobian_calls(monkeypatch,
                                                           estimator):
    # these estimators step from v = 0, which v keeps; the Jacobians could
    # only multiply zeros
    counts = {"fields": 0, "jacobians_stacked": 0}
    for name in counts:
        method = getattr(CoefficientSystem, name)

        def counting(self, x, name=name, method=method):
            counts[name] += 1
            return method(self, x)

        monkeypatch.setattr(CoefficientSystem, name, counting)
    DERIVATIVE_FREE[estimator](builtin("example21"), cfg(h=1e-3))
    assert counts["fields"] >= 10
    assert counts["jacobians_stacked"] == 0


# ---------------------------------------------------------------------------
# exponential representation at scale

def test_exp_representation_gaps_gbm_smoke(monkeypatch):
    s = builtin("geometric_bm", mu=0.1, sigma=0.2, d=1)
    calls = []
    stacked = CoefficientSystem.jacobians_stacked

    def counting(self, x):
        calls.append(len(x))
        return stacked(self, x)

    monkeypatch.setattr(CoefficientSystem, "jacobians_stacked", counting)
    c = cfg(h=1e-3)
    gaps = exp_representation_gaps(s, [1.0], [1.0], p=2.0, T=1.0, n_paths=200,
                                   cfg=c)[0]
    assert gaps.size == 200
    assert np.quantile(gaps, 0.99) < 5.0 * 1e-3
    # the representation terms and the Euler step share one Jacobian pass
    assert len(calls) == c.n_steps


def test_exp_representation_gaps_zero_jacobians_exact():
    s = builtin("additive_noise", sigma=1.5, d=2)
    gaps = exp_representation_gaps(s, [0.0, 0.0], [0.6, 0.8], p=4.0, T=0.3,
                                   n_paths=8, cfg=cfg(h=1e-2),
                                   master_seed=21)[0]
    assert gaps.size == 8
    np.testing.assert_array_equal(gaps, 0.0)


def test_exp_representation_gaps_ou_closed_forms():
    # v_T = (1 - h)^n v_0 on every path, and the drift functional sums to
    # -p T, so the reconstruction is e^{-2}
    s = builtin("ornstein_uhlenbeck", theta=1.0, sigma=1.0, d=1)
    c = cfg(h=1e-3)
    gaps = exp_representation_gaps(s, [0.0], [1.0], p=2.0, T=1.0, n_paths=4,
                                   cfg=c, master_seed=4)[0]
    direct = (1.0 - c.h) ** (2 * c.n_steps)
    np.testing.assert_allclose(gaps, abs(direct - math.exp(-2.0)) / direct,
                               rtol=1e-5)


def test_exp_representation_gaps_rejects_zero_derivative_state():
    from flowlab import ZeroDerivativeStateError
    s = builtin("ornstein_uhlenbeck", d=1)
    with pytest.raises(ZeroDerivativeStateError):
        exp_representation_gaps(s, [0.0], [0.0], p=2.0, T=0.1, n_paths=2,
                                cfg=cfg(h=1e-2))


@pytest.mark.parametrize("p", [1.0, 1.999, 0.0])
def test_exp_representation_gaps_rejects_p_below_two(p):
    s = builtin("ornstein_uhlenbeck", d=1)
    with pytest.raises(ValueError, match="p >= 2"):
        exp_representation_gaps(s, [0.0], [1.0], p=p, T=0.1, n_paths=2,
                                cfg=cfg(h=1e-2))


# ---------------------------------------------------------------------------
# CSV rows

def test_csv_row_format_and_roundtrip_floats():
    row = csv_row("gradient_bel", "ornstein_uhlenbeck", "abc123", 1.0,
                  0.1 + 0.2, 0.001, 100000, 1e-3,
                  {"seed": 42, "unreliable": False, "excluded": 3})
    fields = row.split(",")
    assert fields[0] == "gradient_bel"
    assert fields[3] == "1.0"
    assert float(fields[4]) == 0.1 + 0.2  # shortest round-trip survives parse
    assert fields[8] == "seed=42;excluded=3"
