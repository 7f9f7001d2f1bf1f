"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. Criterion 11 is known-red for orders p >= 2: the
closed-form Jacobians make the diffusion Gram term dominate the drift
contraction on the probed radius range, so the sign claim only holds there
for p = 1 (see the failure message for the measured values).
"""

import json
import math
import time

import numpy as np

from flowlab import (
    IntegratorConfig,
    bel_gradient,
    builtin,
    family_convergence,
    fd_gradient,
    flow_moment_bound_check,
    ibp_residual,
    kp_max,
    krylov_check,
    lp_distance,
    mollified_family,
    mollifier,
    truncate,
)
from flowlab.approximation import radial_tangential_derivative_check
from flowlab.cli import run as cli_run
from flowlab.estimators import PAYOFFS, SmoothBump, exp_representation_gaps

from systems import linear_system


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{tail}")
    return ok


def cfg(h, T=1.0):
    return IntegratorConfig(h=h, T=T)


def test_c01_bel_gradient_vs_closed_form_oracle():
    t0 = time.perf_counter()
    s = builtin("ornstein_uhlenbeck", theta=1.0, sigma=1.0, d=1)
    rep = bel_gradient(s, [0.0], [1.0], PAYOFFS["identity"], t=1.0,
                       n_paths=100000, cfg=cfg(h=1e-3), master_seed=101,
                       workers=1)
    elapsed = time.perf_counter() - t0
    target = math.exp(-1.0)
    tol = max(3.0 * rep.std_error, 0.02 * target)
    ok = abs(rep.value - target) <= tol and elapsed < 60.0
    assert _report(1, "bel_vs_oracle", ok,
                   f"value={rep.value:.5f} target={target:.5f} "
                   f"tol={tol:.2e} runtime={elapsed:.1f}s")


def test_c02_bel_vs_finite_differences_grid():
    systems = {
        "additive": (builtin("additive_noise", sigma=1.0, d=1), [0.5]),
        "ou": (builtin("ornstein_uhlenbeck", theta=1.0, sigma=1.0, d=1), [0.5]),
        "gbm": (builtin("geometric_bm", mu=0.1, sigma=0.2, d=1), [1.0]),
    }
    n_paths, h, delta = 20000, 2e-3, 1e-3
    agree = 0
    cases = []
    for sname, (s, x0) in systems.items():
        for fname in ("identity", "sin", "gauss"):
            for t in (0.25, 1.0):
                bel = bel_gradient(s, x0, [1.0], PAYOFFS[fname], t=t,
                                   n_paths=n_paths, cfg=cfg(h),
                                   master_seed=210)
                fd = fd_gradient(s, x0, [1.0], PAYOFFS[fname], t=t,
                                 n_paths=n_paths, delta=delta, cfg=cfg(h),
                                 master_seed=211)
                combined = math.hypot(bel.std_error, fd.std_error)
                hit = abs(bel.value - fd.value) <= 3.0 * combined
                agree += hit
                cases.append((sname, fname, t, hit))
    ok = agree >= 17
    assert _report(2, "bel_vs_fd_18_cases", ok,
                   f"{agree}/18 within 3 combined SE; misses: "
                   f"{[c[:3] for c in cases if not c[3]] or 'none'}")


def test_c03_exponential_representation_per_path():
    s = builtin("geometric_bm", mu=0.1, sigma=0.2, d=1)
    h = 1e-3
    gaps = exp_representation_gaps(s, [1.0], [1.0], p=2.0, T=1.0,
                                   n_paths=10000, cfg=cfg(h),
                                   master_seed=77)[0]
    frac = float(np.mean(gaps < 5.0 * h))
    ok = frac >= 0.99
    assert _report(3, "exponential_representation", ok,
                   f"{100*frac:.2f}% of paths below 5h")


def test_c04_truncation_derivative_structure():
    rng = np.random.default_rng(404)
    worst_rad, worst_tan = 0.0, 0.0
    h = 1e-5
    for s, R in ((builtin("example21"), 5.0), (linear_system(d=2), 2.0)):
        for _ in range(50):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            radius = R + 10 * h + rng.uniform(0.5, 4.0)
            rad, tan = radial_tangential_derivative_check(s, R, radius * u)
            worst_rad = max(worst_rad, rad)
            worst_tan = max(worst_tan, tan)
    ok = worst_rad < 1e-6 and worst_tan < 1e-4
    assert _report(4, "truncation_derivatives", ok,
                   f"max radial {worst_rad:.2e}, max tangential {worst_tan:.2e}")


def test_c05_mollifier_and_family():
    mass_err = max(abs(mollifier(d, eps).mass() - 1.0)
                   for d in (1, 2, 3) for eps in (1.0, 0.1, 0.01))
    lin = truncate(linear_system(d=2, r1=1.0), 50.0)
    mol = mollifier(2, 0.2)
    x = np.array([1.1, -0.7])
    affine_err = float(np.max(np.abs(mol.convolve(
        lambda p: lin.value(1, p), x) - x)))

    s = builtin("example21")
    fam = mollified_family(s, eps0=0.25)
    eps_grid = (0.2, 0.1, 0.05, 0.025)
    c = s.constants
    dirs, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(2, 2)))
    radii = np.array([0.0, 0.4, 1.0, 1.6, 2.3, 3.0, 4.0, 5.0])
    probes = (radii[:, None, None] * dirs.T[None, :, :]).reshape(-1, 2)
    floor_ok = True
    for eps in eps_grid:
        member = fam.member(eps)
        sig = member.sigma(probes)
        lo = np.linalg.eigvalsh(np.einsum("nik,njk->nij", sig, sig))[:, 0]
        r = np.linalg.norm(probes, axis=-1)
        floor_ok &= bool(np.all(lo >= c.C1 / (2.0 * (1.0 + r**c.p1))))

    dists = [lp_distance(s, fam.member(eps), 1, R=2.0, p=c.p3,
                         mode="jacobians", n_radial=48, n_angular=64).value
             for eps in eps_grid]
    mono = all(dists[i + 1] <= dists[i] * 1.05 for i in range(len(dists) - 1))

    ok = mass_err < 1e-6 and affine_err < 1e-8 and floor_ok and mono
    assert _report(5, "mollifier_and_family", ok,
                   f"mass_err={mass_err:.1e} affine_err={affine_err:.1e} "
                   f"floor={floor_ok} lp={['%.3e' % v for v in dists]}")


def test_c06_family_flow_convergence():
    s = builtin("example21")
    fam = mollified_family(s, eps0=0.25, n_radial=12, n_angular=24)
    rows = family_convergence(fam, [0.2, 0.1, 0.05, 0.025], [0.3, 0.0],
                              [1.0, 0.0], T=0.1, n_paths=10000,
                              cfg=cfg(h=1e-2), master_seed=606)[0]
    ok = True
    for i in range(len(rows) - 1):
        slack_f = 2.0 * (rows[i].se_flow + rows[i + 1].se_flow)
        slack_v = 2.0 * (rows[i].se_derivative + rows[i + 1].se_derivative)
        ok &= rows[i + 1].gap_flow <= rows[i].gap_flow + slack_f
        ok &= rows[i + 1].gap_derivative <= rows[i].gap_derivative + slack_v
    gaps = [(f"{r.gap_flow:.3e}", f"{r.gap_derivative:.3e}") for r in rows]
    assert _report(6, "family_flow_convergence", ok, f"gaps(F,V)={gaps}")


def test_c07_integration_by_parts():
    affine = builtin("additive_noise", sigma=1.0, d=1)
    rep = ibp_residual(affine, t=0.1, box=1.0, n_grid=201,
                       phi=SmoothBump(radius=0.8), i_coord=0, n_omega=4,
                       cfg=cfg(h=1e-2), master_seed=700)
    affine_ok = rep.max_residual < 1e-6

    s = builtin("example21")
    bump = SmoothBump(radius=0.4)
    # t = 0.096 is a whole number of steps on every level: 12, 24 and 48
    levels = [(33, 8e-3), (65, 4e-3), (129, 2e-3)]
    residuals = []
    for n_grid, h in levels:
        r = ibp_residual(s, t=0.096, box=0.5, n_grid=n_grid, phi=bump,
                         i_coord=0, n_omega=3, cfg=cfg(h), master_seed=701)
        residuals.append(r.mean_residual)
    decreasing = residuals[0] > residuals[1] > residuals[2]
    ok = affine_ok and decreasing
    assert _report(7, "integration_by_parts", ok,
                   f"affine={rep.max_residual:.2e} "
                   f"levels={['%.3e' % v for v in residuals]}")


def test_c08_flow_moment_bound():
    ou = builtin("ornstein_uhlenbeck", theta=1.0, sigma=1.0, d=1)
    rep_ou = flow_moment_bound_check(ou, [1.0], lam=1.0, T=0.5,
                                     n_paths=10000, cfg=cfg(h=1e-3),
                                     master_seed=800)
    s = builtin("example21")
    rep_ex = flow_moment_bound_check(s, [0.5, 0.5], lam=1.0, T=0.5,
                                     n_paths=4000, cfg=cfg(h=2e-3),
                                     master_seed=801)
    ok = rep_ou.all_passed and rep_ex.all_passed
    assert _report(8, "flow_moment_bound", ok,
                   f"ou_theta={rep_ou.theta.value:.3f} "
                   f"ex21_theta={rep_ex.theta.value:.3f}")


def test_c09_krylov_ratio_stability():
    results = {}
    for name, (s, x) in {
        "additive": (builtin("additive_noise", sigma=1.0, d=1), [0.0]),
        "example21": (builtin("example21"), [0.3, 0.0]),
    }.items():
        r1 = krylov_check(s, x, T=0.25, R=2.0, n_paths=10000, cfg=cfg(h=2e-3),
                          master_seed=900)
        r2 = krylov_check(s, x, T=0.25, R=2.0, n_paths=20000, cfg=cfg(h=2e-3),
                          master_seed=900)
        results[name] = (r1.ratio, r2.ratio,
                         abs(r2.ratio - r1.ratio) / abs(r1.ratio))
    ok = all(v[2] <= 0.2 for v in results.values())
    assert _report(9, "krylov_ratio_stability", ok,
                   "; ".join(f"{k}: {v[0]:.4f}->{v[1]:.4f} drift {100*v[2]:.1f}%"
                             for k, v in results.items()))


def test_c10_determinism_across_workers(tmp_path):
    config = {
        "command": "gradient",
        "system": {"name": "ornstein_uhlenbeck",
                   "params": {"theta": 1.0, "sigma": 1.0, "d": 1}},
        "integrator": {"h": 5e-3, "T": 1.0},
        "mc": {"n_paths": 6000, "master_seed": 31},
        "gradient": {"x": [0.0], "v": [1.0], "t": 1.0},
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(config))
    blobs = []
    for tag, workers in (("w1", 1), ("w4", 4), ("w8", 8), ("again", 1)):
        out = tmp_path / tag
        code = cli_run("gradient", path, workers=workers, out=str(out))
        assert code == 0
        blobs.append((out / "result.csv").read_bytes())
    ok = all(b == blobs[0] for b in blobs)
    assert _report(10, "determinism_workers_1_4_8", ok,
                   f"{len(blobs)} runs byte-identical={ok}")


def test_c11_kp_sign_on_probe_range():
    s = builtin("example21", d=2, q1=0.8, q3=0.5)
    rng = np.random.default_rng(1111)
    worst = {}
    for p in (1.0, 2.0, 4.0):
        w = -math.inf
        for r in np.geomspace(1e-4, 1e-2, 20):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            w = max(w, kp_max(s, r * u, p).kp)
        worst[p] = w
    ok = all(w <= 0.0 for w in worst.values())
    _report(11, "kp_sign_small_radius", ok,
            "max K_p over probes: " +
            ", ".join(f"p={p:g}: {w:.4g}" for p, w in worst.items()))
    assert ok, (
        "K_p <= 0 fails on |x| in [1e-4, 1e-2] for p in {2, 4}: the "
        "(2p-1)p diffusion Gram term ~ |x|^{-2(1-q1)} dominates the drift "
        "contraction ~ -2p(1-q3)|x|^{-q3} until |x| ~ 1.5e-6 (p=2) / 3e-10 "
        f"(p=4). Measured maxima: {worst}")
