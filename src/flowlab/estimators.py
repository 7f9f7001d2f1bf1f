"""Monte Carlo functionals over the flow and its derivative: moment
estimates and bound checks, two gradient estimators (stochastic-integral
weight vs common-random-number finite differences), approximation-family
convergence gaps, integration-by-parts residuals, occupation-measure ratio
checks, and Holder-modulus tables.

Every path-batch estimator runs on one driver, `_map_paths`: it cuts the
paths into fixed ranges of at most CHUNK_PATHS (read at call time) paths
whose increments stay under MAX_BLOCK_BYTES, draws each
range's increments with one `increments_block` call, maps the estimator's
per-path `run(dws)` over the ranges, and concatenates what `run` returns in
path-index order. An estimator keeps only its per-path computation and its
reduction. Paths are dropped by one rule, `_kept`: a path counts unless it
failed or exploded in any of its drivers (the Krylov check drops only failed
paths; the BEL gradient also drops paths gated by the condition number).
Observers that need the coefficient fields or Jacobians at the pre-step
state read `BatchEuler.fields()` or `BatchEuler.jacobians()`, the per-step
caches the Euler step itself uses, so each is evaluated at most once per
step (the Jacobians at the system's `origin_policy.clamp(x)`). The step
evaluates Jacobians only when `v` can be non-zero: the estimators that start
from `v = 0` (`fd_gradient`, `holder_modulus`, `flow_moment_bound_check`,
`krylov_check`) make no Jacobian call, and clamps are counted on every step
either way.

`_mean_se(samples, ok)` is the one reduction: every mean and standard error
over paths is taken by it over the kept paths. With no kept path the value
is nan; with fewer than two the standard error is nan.

All estimators are deterministic functions of (inputs, master_seed): paths
are keyed by path index, chunk boundaries are fixed, and reductions run in
path-index order, so results are bit-identical across reruns, worker counts
and chunk sizes.

perfbench/traced_cli.py traces a run by patching names, so these stay: the
module globals `ThreadPoolExecutor` and `increments_block` (looked up at call
time), the public functions in `__all__`, `BatchEuler.advance` as the only
stepping entry, the `CoefficientSystem.fields` and `jacobians_stacked`
methods, and the `BatchEuler` attributes `n`, `v`, `step_index`, `n_steps`,
`clamped`, `exploded` and `failed`.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .approximation import MollifiedFamily, _bump_kernel
from .coefficients import (
    DEFAULT_COND_MAX,
    CoefficientSystem,
    det_spd,
    gated_right_inverse,
    theta_g,
    ThetaBound,
)
from .engine import (
    BatchEuler,
    IntegratorConfig,
    exp_representation_terms,
    increments_block,
)
from .quadrature import ball_volume

__all__ = [
    "EstimateReport",
    "MomentWindow",
    "PAYOFFS",
    "SmoothBump",
    "derivative_moment",
    "flow_moment_bound_check",
    "bel_gradient",
    "fd_gradient",
    "family_convergence",
    "ibp_residual",
    "krylov_check",
    "holder_modulus",
    "exp_representation_gaps",
    "CSV_HEADER",
    "csv_row",
]

CHUNK_PATHS = 4096
MAX_BLOCK_BYTES = 64 * 2**20
UNRELIABLE_FRACTION = 1e-3


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with Monte Carlo standard error and run bookkeeping."""

    value: float
    std_error: float
    n_paths: int
    h: float
    notes: dict

    @property
    def unreliable(self) -> bool:
        return bool(self.notes.get("unreliable", False))


@dataclass(frozen=True)
class MomentWindow:
    """Horizon kappa(p)/(d+2) on which the derivative moment bound is claimed."""

    p: float
    T0: float

    @classmethod
    def for_system(cls, system: CoefficientSystem, p: float) -> "MomentWindow":
        return cls(p=p, T0=system.constants.kappa(p) / (system.d + 2))


PAYOFFS = {
    "identity": lambda x: x[..., 0],
    "sin": lambda x: np.sin(x[..., 0]),
    "gauss": lambda x: np.exp(-np.sum(x * x, axis=-1)),
    "constant": lambda x: np.ones(x.shape[:-1]),
}


def _map_paths(run, n_paths: int, cfg: IntegratorConfig, m: int,
               master_seed: int, workers: int = 1) -> tuple:
    """Map run(dws) over fixed path ranges and concatenate its outputs.

    dws is the (n, n_steps, m) increment block of one range; run returns a
    tuple of per-path arrays with leading axis n. A range holds at most
    CHUNK_PATHS paths and, above one path, no more than fit in
    MAX_BLOCK_BYTES of increments. Ranges are mapped on a thread pool when
    workers > 1; outputs are joined in path-index order.
    """
    size = max(1, min(CHUNK_PATHS, MAX_BLOCK_BYTES // (cfg.n_steps * m * 8)))
    ranges = [(a, min(a + size, n_paths)) for a in range(0, n_paths, size)]

    def chunk(ab):
        a, b = ab
        return run(increments_block(master_seed, a, b - a, cfg.n_steps, cfg.h,
                                    m))

    if workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(chunk, ranges))
    else:
        parts = [chunk(ab) for ab in ranges]
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _kept(*drivers: BatchEuler) -> np.ndarray:
    """Paths that neither failed nor exploded in any of the drivers."""
    ok = np.ones(drivers[0].n, dtype=bool)
    for drv in drivers:
        ok &= ~drv.failed & ~drv.exploded
    return ok


def _mean_se(samples: np.ndarray, ok: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of the kept samples; the mean is nan with no
    kept path and the standard error is nan with fewer than two."""
    good = samples[ok]
    if good.size == 0:
        return math.nan, math.nan
    se = float(np.std(good, ddof=1) / math.sqrt(good.size)) if good.size > 1 \
        else math.nan
    return float(np.mean(good)), se


def _finish(samples: np.ndarray, ok: np.ndarray, n_paths: int, h: float,
            notes: dict) -> EstimateReport:
    n_bad = int(n_paths - np.sum(ok))
    notes = dict(notes)
    notes["n_excluded"] = n_bad
    notes["unreliable"] = n_bad > UNRELIABLE_FRACTION * n_paths
    return EstimateReport(*_mean_se(samples, ok), n_paths, h, notes)


# ---------------------------------------------------------------------------
# moments

def derivative_moment(system: CoefficientSystem, x, v, p: float, t: float,
                      n_paths: int, cfg: IntegratorConfig, master_seed: int = 0,
                      workers: int = 1) -> EstimateReport:
    """Mean of |v_t|^p across paths.

    The moment bound is only claimed for t inside the window T0(p); outside it
    the estimate is still returned with a window_exceeded note.
    """
    if p <= 0:
        raise ValueError(f"moment order p must be positive, got {p!r}")
    cfg_t = cfg.with_horizon(t)

    def run(dws):
        drv = BatchEuler(system, x, v, dws, cfg_t).run()
        vals = np.sum(drv.v**2, axis=-1) ** (p / 2.0)
        return vals, _kept(drv), drv.clamped, drv.exploded

    samples, ok, clamped, exploded = _map_paths(
        run, n_paths, cfg_t, system.m, master_seed, workers)
    window = MomentWindow.for_system(system, p)
    notes = {
        "clamped_steps": int(np.sum(clamped)),
        "n_exploded": int(np.sum(exploded)),
        "window_T0": window.T0,
        "window_exceeded": t > window.T0 + 1e-12,
    }
    return _finish(samples, ok, n_paths, cfg_t.h, notes)


@dataclass(frozen=True)
class BoundCheckpoint:
    t: float
    lhs: float
    std_error: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class FlowBoundReport:
    checkpoints: tuple[BoundCheckpoint, ...]
    theta: ThetaBound
    lam: float
    n_paths: int
    all_passed: bool


def flow_moment_bound_check(system: CoefficientSystem, x, lam: float, T: float,
                            n_paths: int, cfg: IntegratorConfig,
                            n_checkpoints: int = 10, master_seed: int = 0,
                            workers: int = 1, theta_box: float = 50.0,
                            theta_points: int | None = None) -> FlowBoundReport:
    """Empirical E(1+|F_t|^2)^lam against (1+|x|^2)^lam e^{lam Theta t}.

    Theta is the grid maximum of the log-energy drift functional; each
    checkpoint passes when the empirical mean does not exceed the bound by
    more than three standard errors.
    """
    cfg_t = cfg.with_horizon(T)
    n_steps = cfg_t.n_steps
    check_steps = [max(1, round((j + 1) * n_steps / n_checkpoints))
                   for j in range(n_checkpoints)]

    def run(dws):
        drv = BatchEuler(system, x, 0.0, dws, cfg_t)
        vals = np.empty((drv.n, n_checkpoints))
        for s in range(n_steps):
            drv.advance()
            # a step may serve several checkpoints when n_steps is small
            for j, cs in enumerate(check_steps):
                if s + 1 == cs:
                    vals[:, j] = (1.0 + np.sum(drv.x**2, axis=-1)) ** lam
        return vals, _kept(drv)

    vals, ok = _map_paths(run, n_paths, cfg_t, system.m, master_seed, workers)
    theta = theta_g(system, lam, box=theta_box, n_points=theta_points)
    base = (1.0 + float(np.sum(np.asarray(x, dtype=float) ** 2))) ** lam
    rows = []
    for j, cs in enumerate(check_steps):
        t_j = cs * cfg_t.h
        lhs, se = _mean_se(vals[:, j], ok)
        rhs = base * math.exp(lam * theta.value * t_j)
        rows.append(BoundCheckpoint(t=t_j, lhs=lhs, std_error=se, rhs=rhs,
                                    passed=lhs <= rhs + 3.0 * se))
    return FlowBoundReport(checkpoints=tuple(rows), theta=theta, lam=lam,
                           n_paths=n_paths, all_passed=all(r.passed for r in rows))


# ---------------------------------------------------------------------------
# gradients

def bel_gradient(system: CoefficientSystem, x, v, f, t: float, n_paths: int,
                 cfg: IntegratorConfig, master_seed: int = 0, workers: int = 1,
                 cond_max: float = DEFAULT_COND_MAX) -> EstimateReport:
    """Gradient of E f(F_t(x)) along v via the stochastic-integral weight.

    Per path accumulates S = sum_s <Y(x_s)(v_s), dW_s> with the left-point
    Ito discretization and Y = Sigma^T A^{-1}, and returns the mean of
    f(x_t) S / t. Paths whose diffusion matrix fails the condition-number
    gate at any step are excluded and counted; a run with more than 0.1%
    exclusions is flagged unreliable.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    cfg_t = cfg.with_horizon(t)

    def run(dws):
        drv = BatchEuler(system, x, v, dws, cfg_t)
        s_acc = np.zeros(drv.n)
        gated = np.zeros(drv.n, dtype=bool)
        for _, _, vs, dw, active in drv.steps():
            y, bad, _ = gated_right_inverse(drv.fields()[1], vs, cond_max)
            gated |= bad & active
            with np.errstate(invalid="ignore", over="ignore"):
                contrib = np.einsum("nk,nk->n", y, dw)
            s_acc += np.where(active & ~bad, contrib, 0.0)
        ok = _kept(drv) & ~gated
        with np.errstate(invalid="ignore"):
            samples = np.where(ok, f(drv.x) * s_acc / t, 0.0)
        return samples, ok, gated, drv.clamped

    samples, ok, gated, clamped = _map_paths(
        run, n_paths, cfg_t, system.m, master_seed, workers)
    notes = {"gate_failures": int(np.sum(gated)),
             "clamped_steps": int(np.sum(clamped))}
    return _finish(samples, ok, n_paths, cfg_t.h, notes)


def fd_gradient(system: CoefficientSystem, x, v, f, t: float, n_paths: int,
                delta: float, cfg: IntegratorConfig, master_seed: int = 0,
                workers: int = 1) -> EstimateReport:
    """Central-difference gradient (P_t f(x + delta v) - P_t f(x - delta v))
    / (2 delta) with common random numbers: both endpoints of each path index
    consume identical increments."""
    if delta <= 0:
        raise ValueError("bump size delta must be positive")
    cfg_t = cfg.with_horizon(t)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)

    def run(dws):
        up = BatchEuler(system, x + delta * v, 0.0, dws, cfg_t).run()
        dn = BatchEuler(system, x - delta * v, 0.0, dws, cfg_t).run()
        return (f(up.x) - f(dn.x)) / (2.0 * delta), _kept(up, dn)

    samples, ok = _map_paths(run, n_paths, cfg_t, system.m, master_seed,
                             workers)
    return _finish(samples, ok, n_paths, cfg_t.h, {"delta": delta})


# ---------------------------------------------------------------------------
# approximation-family convergence

@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    eps_next: float
    gap_flow: float
    se_flow: float
    gap_derivative: float
    se_derivative: float


def family_convergence(fam: MollifiedFamily, eps_list, x, v, T: float,
                       n_paths: int, cfg: IntegratorConfig,
                       master_seed: int = 0,
                       workers: int = 1) -> list[ConvergenceRow]:
    """Common-noise sup-norm gaps between consecutive family members.

    eps_list must be sorted descending and lie inside (0, eps0); the finest
    member acts as the limit proxy. For each consecutive pair the mean over
    paths of sup_t |F^eps - F^eps'| and sup_t |V^eps - V^eps'| on the step
    grid is reported.
    """
    eps_list = [float(e) for e in eps_list]
    if sorted(eps_list, reverse=True) != eps_list:
        raise ValueError("eps_list must be sorted descending")
    members = [fam.member(e) for e in eps_list]
    cfg_t = cfg.with_horizon(T)
    n_steps = cfg_t.n_steps
    n_pairs = len(members) - 1

    def run(dws):
        drivers = [BatchEuler(mem, x, v, dws, cfg_t) for mem in members]
        sup_f = np.zeros((len(dws), n_pairs))
        sup_v = np.zeros((len(dws), n_pairs))
        for _ in range(n_steps):
            for drv in drivers:
                drv.advance()
            for j in range(n_pairs):
                gap_f = np.linalg.norm(drivers[j].x - drivers[j + 1].x, axis=-1)
                gap_v = np.linalg.norm(drivers[j].v - drivers[j + 1].v, axis=-1)
                sup_f[:, j] = np.maximum(sup_f[:, j], gap_f)
                sup_v[:, j] = np.maximum(sup_v[:, j], gap_v)
        return sup_f, sup_v, _kept(*drivers)

    sup_f, sup_v, ok = _map_paths(run, n_paths, cfg_t, fam.base.m,
                                  master_seed, workers)
    rows = []
    for j in range(n_pairs):
        rows.append(ConvergenceRow(eps_list[j], eps_list[j + 1],
                                   *_mean_se(sup_f[:, j], ok),
                                   *_mean_se(sup_v[:, j], ok)))
    return rows


# ---------------------------------------------------------------------------
# integration by parts

class SmoothBump:
    """Compactly supported test function exp(1/((|x|/radius)^2 - 1)) with
    analytic partial derivatives; vanishes with all derivatives at |x|=radius."""

    def __init__(self, radius: float, center=None, d: int = 2):
        self.radius = float(radius)
        self.center = np.zeros(d) if center is None else np.asarray(center,
                                                                    dtype=float)
        self.d = d

    def value(self, x: np.ndarray) -> np.ndarray:
        return _bump_kernel(np.sum((x - self.center) ** 2, axis=-1)
                            / self.radius**2)

    def partial(self, x: np.ndarray, i: int) -> np.ndarray:
        z = x - self.center
        u2 = np.sum(z * z, axis=-1) / self.radius**2
        denom = np.where(u2 < 1.0, u2 - 1.0, -1.0)
        return _bump_kernel(u2) * (-1.0 / denom**2) \
            * (2.0 * z[..., i] / self.radius**2)


@dataclass(frozen=True)
class IbpReport:
    mean_residual: float
    max_residual: float
    per_omega: tuple[float, ...]
    n_grid: int
    h: float


def ibp_residual(system: CoefficientSystem, t: float, box: float, n_grid: int,
                 phi: SmoothBump, i_coord: int, n_omega: int,
                 cfg: IntegratorConfig, master_seed: int = 0) -> IbpReport:
    """Residual of the pathwise integration-by-parts identity.

    For each noise draw omega the whole grid of starts shares one increment
    sequence. The residual per output component j is
    | sum w dphi_i(x) F_t^j(x) + sum w phi(x) V_t^j(x, e_i) |
    over the uniform grid on [-box, box]^d; the report carries the mean and
    max over omega of the worst component.
    """
    for name, value, least in (("grid size n_grid", n_grid, 2),
                               ("draw count n_omega", n_omega, 1)):
        if not (isinstance(value, numbers.Integral) and value >= least):
            raise ValueError(f"{name} must be an integer of at least "
                             f"{least}, got {value!r}")
    cfg_t = cfg.with_horizon(t)
    n_steps = cfg_t.n_steps
    d = system.d
    axis = np.linspace(-box, box, n_grid)
    spacing = axis[1] - axis[0]
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    starts = np.stack([g.reshape(-1) for g in mesh], axis=-1)
    weight = spacing**d
    phi_vals = phi.value(starts)
    dphi_vals = phi.partial(starts, i_coord)
    e_i = np.zeros(d)
    e_i[i_coord] = 1.0
    residuals = []
    for omega in range(n_omega):
        dws = increments_block(master_seed, omega, 1, n_steps, cfg_t.h,
                               system.m)
        drv = BatchEuler(system, starts, e_i, dws, cfg_t).run()
        worst = 0.0
        for j in range(d):
            r = abs(weight * float(np.sum(dphi_vals * drv.x[:, j]))
                    + weight * float(np.sum(phi_vals * drv.v[:, j])))
            worst = max(worst, r)
        residuals.append(worst)
    return IbpReport(mean_residual=float(np.mean(residuals)),
                     max_residual=float(np.max(residuals)),
                     per_omega=tuple(residuals), n_grid=n_grid, h=cfg_t.h)


# ---------------------------------------------------------------------------
# occupation-measure (Krylov-type) ratio

@dataclass(frozen=True)
class KrylovReport:
    lhs: float
    lhs_std_error: float
    a_hat: float
    b_hat: float
    f_norm: float
    rhs_shape: float
    ratio: float
    n_paths: int


def krylov_check(system: CoefficientSystem, x, T: float, R: float,
                 n_paths: int, cfg: IntegratorConfig, f=None,
                 f_norm: float | None = None, master_seed: int = 0,
                 workers: int = 1) -> KrylovReport:
    """Occupation-measure estimate against its growth-shaped majorant.

    lhs estimates E int_0^{T ^ tau_R} f(t, F_t - x) det(A(F_t))^{1/(d+1)} dt
    where tau_R is the exit time of the recentered flow from the R-ball; the
    majorant shape is e^T (A_hat + B_hat^2)^{d/(2(d+1))} ||f||_{d+1} with
    A_hat, B_hat the mean occupation integrals of tr A and |X_0|. The
    dimensional constant is not constructive, so the report carries the ratio
    lhs / shape from which any constant can be read off.
    """
    if R <= 0:
        raise ValueError(f"ball radius R must be positive, got {R!r}")
    d = system.d
    if f is None:
        f = lambda ts, xs: np.ones(xs.shape[:-1])
        if f_norm is None:
            f_norm = (T * ball_volume(d, R)) ** (1.0 / (d + 1))
    if f_norm is None:
        raise ValueError("custom f requires its cylinder L^{d+1} norm f_norm")
    cfg_t = cfg.with_horizon(T)
    x_arr = np.asarray(x, dtype=float)
    power = 1.0 / (d + 1)

    def run(dws):
        drv = BatchEuler(system, x_arr, 0.0, dws, cfg_t)
        lhs_acc = np.zeros(drv.n)
        a_acc = np.zeros(drv.n)
        b_acc = np.zeros(drv.n)
        inside = np.ones(drv.n, dtype=bool)
        for s, xs, _, _, active in drv.steps():
            recentered = xs - x_arr
            inside &= np.linalg.norm(recentered, axis=-1) <= R
            live = inside & active
            if not np.any(live):
                break
            drift, sig = drv.fields()
            a_mat = np.einsum("nik,njk->nij", sig, sig)
            det = det_spd(a_mat)
            fv = f(s * cfg_t.h, recentered)
            lhs_acc += np.where(live, fv * det**power * cfg_t.h, 0.0)
            a_acc += np.where(live,
                              np.trace(a_mat, axis1=-2, axis2=-1) * cfg_t.h, 0.0)
            b_acc += np.where(live,
                              np.linalg.norm(drift, axis=-1)
                              * cfg_t.h, 0.0)
        return lhs_acc, a_acc, b_acc, ~drv.failed

    lhs_all, a_all, b_all, ok = _map_paths(run, n_paths, cfg_t, system.m,
                                           master_seed, workers)
    lhs, lhs_se = _mean_se(lhs_all, ok)
    a_hat = _mean_se(a_all, ok)[0]
    b_hat = _mean_se(b_all, ok)[0]
    shape = math.exp(T) * (a_hat + b_hat**2) ** (d / (2.0 * (d + 1))) * f_norm
    ratio = lhs / shape if shape > 0.0 else math.nan
    return KrylovReport(lhs=lhs, lhs_std_error=lhs_se, a_hat=a_hat,
                        b_hat=b_hat, f_norm=f_norm, rhs_shape=shape,
                        ratio=ratio, n_paths=n_paths)


# ---------------------------------------------------------------------------
# Holder modulus

@dataclass(frozen=True)
class HolderRow:
    x: tuple
    y: tuple
    separation: float
    ratio: float
    std_error: float


def holder_modulus(system: CoefficientSystem, pairs, p: float, t: float,
                   n_paths: int, cfg: IntegratorConfig, master_seed: int = 0,
                   workers: int = 1) -> list[HolderRow]:
    """E |F_t(x) - F_t(y)|^p / |x - y|^p per pair, common noise throughout.

    A locally uniform bound across pairs at fixed radius is the sampled form
    of the Lipschitz-in-mean estimate; the same increments are reused across
    pairs so that ratio comparisons are low-noise.
    """
    cfg_t = cfg.with_horizon(t)
    pairs = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
             for x, y in pairs]
    seps = [float(np.linalg.norm(x - y)) for x, y in pairs]
    if 0.0 in seps:
        raise ValueError("pair points must be distinct")

    def run(dws):
        gaps, kept = [], []
        for x, y in pairs:
            fx = BatchEuler(system, x, 0.0, dws, cfg_t).run()
            fy = BatchEuler(system, y, 0.0, dws, cfg_t).run()
            gaps.append(np.linalg.norm(fx.x - fy.x, axis=-1) ** p)
            kept.append(_kept(fx, fy))
        return np.stack(gaps, axis=-1), np.stack(kept, axis=-1)

    gaps, ok = _map_paths(run, n_paths, cfg_t, system.m, master_seed, workers)
    rows = []
    for j, ((x, y), sep) in enumerate(zip(pairs, seps)):
        rows.append(HolderRow(tuple(map(float, x)), tuple(map(float, y)), sep,
                              *_mean_se(gaps[:, j] / sep**p, ok[:, j])))
    return rows


# ---------------------------------------------------------------------------
# exponential representation at scale

def exp_representation_gaps(system: CoefficientSystem, x, v, p: float,
                            T: float, n_paths: int, cfg: IntegratorConfig,
                            master_seed: int = 0,
                            workers: int = 1) -> np.ndarray:
    """Per-path relative gap between |v_T|^p and its exponential
    reconstruction |v_0|^p exp(M - Q/2 + a), summed step by step from the
    Jacobians at the pre-step states (clamped like the Euler step)."""
    if p < 2:
        raise ValueError(f"representation check requires p >= 2, got {p!r}")
    cfg_t = cfg.with_horizon(T)
    v0_norm = float(np.linalg.norm(v))

    def run(dws):
        drv = BatchEuler(system, x, v, dws, cfg_t)
        m_acc = np.zeros(drv.n)
        q_acc = np.zeros(drv.n)
        a_acc = np.zeros(drv.n)
        for _, _, vs, dw, _ in drv.steps():
            dm, dq, da = exp_representation_terms(drv.jacobians(), vs, dw,
                                                  cfg_t.h, p)
            m_acc += dm
            q_acc += dq
            a_acc += da
        direct = np.sum(drv.v**2, axis=-1) ** (p / 2.0)
        recon = v0_norm**p * np.exp(m_acc - 0.5 * q_acc + a_acc)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(direct - recon) / np.abs(direct)
        return rel, _kept(drv)

    rel, ok = _map_paths(run, n_paths, cfg_t, system.m, master_seed, workers)
    return rel[ok]


# ---------------------------------------------------------------------------
# CSV serialization

CSV_HEADER = "estimator,system,params_hash,t,value,std_error,n_paths,h,flags"


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def csv_row(estimator: str, system: str, params_hash: str, t: float,
            value: float, std_error: float, n_paths: int, h: float,
            flags: dict) -> str:
    """One fixed-order CSV line; floats print as shortest round-trip decimals."""
    tokens = []
    if "seed" in flags:
        tokens.append(f"seed={_fmt(flags['seed'])}")
    for key in sorted(k for k in flags if k != "seed"):
        val = flags[key]
        if isinstance(val, bool):
            if val:
                tokens.append(key)
        else:
            tokens.append(f"{key}={_fmt(val)}")
    return ",".join([estimator, system, params_hash, _fmt(t), _fmt(value),
                     _fmt(std_error), str(n_paths), _fmt(h),
                     ";".join(tokens)])
