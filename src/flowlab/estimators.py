"""Monte Carlo functionals over the flow and its derivative: moment
estimates and bound checks, two gradient estimators (stochastic-integral
weight vs common-random-number finite differences), approximation-family
convergence gaps, integration-by-parts residuals, occupation-measure ratio
checks, and Holder-modulus tables.

Every path-batch estimator runs on one driver, `_map_paths`: it cuts the
paths into fixed ranges of at most CHUNK_PATHS (read at call time) paths
whose increments stay under MAX_BLOCK_BYTES, draws each range's increments
with one `increments_block` call, maps the estimator's `run(dws)` over the
ranges (on a pool of forked worker processes when workers > 1) and joins,
in path-index order, the `PathRecord` of the drivers `run` stepped and its
per-path columns. Every estimate reduces with `_mean_se` over
`PathRecord.kept`, the paths that did not fail, explode or get gated by the
BEL condition number (nan with no kept path, a nan standard error with
one), and every report carries the record's `PathCounts`; `ibp_residual`
and `krylov_check` count paths they keep.

Observers read the fields and Jacobians at the pre-step state from the
caches the Euler step uses, `BatchEuler.fields()` and `jacobians()`, so each
is evaluated at most once per step; the estimators that start from `v = 0`
(`fd_gradient`, `holder_modulus`, `flow_moment_bound_check`, `krylov_check`)
make no Jacobian call.

Every path estimator integrates to its horizon argument, not cfg.T, in
`engine.grid_steps` steps, which raises ValueError, naming the argument, on
a horizon that is not a whole number of steps h: the integrator would step
to the nearest grid point and the report would carry the horizon given.

Results are deterministic functions of (inputs, master_seed): paths are
keyed by path index, range boundaries are fixed, every driver steps to the
horizon and reductions run in path-index order, so estimates and counts are
bit-identical across reruns, worker counts and chunk sizes.

perfbench/traced_cli.py traces a run by patching names, so these stay: the
module global `increments_block` (looked up at call time), the public
functions in `__all__`, `BatchEuler.advance` as the only stepping entry, the
`CoefficientSystem.fields` and `jacobians_stacked` methods, and the
`BatchEuler` attributes `n`, `v`, `step_index`, `n_steps`, `clamped`,
`exploded` and `failed`. The module global `ThreadPoolExecutor` is unused
and kept only because the tracer subclasses it when it installs.
"""

from __future__ import annotations

import math
import numbers
import os
# unused: kept because perfbench/traced_cli.py subclasses it when it installs
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .approximation import MollifiedFamily, _bump_kernel
from .coefficients import (
    DEFAULT_COND_MAX,
    CoefficientSystem,
    det_spd,
    gated_right_inverse,
    gram,
    row_norm,
    theta_g,
    ThetaBound,
)
from .engine import (
    BatchEuler,
    IntegratorConfig,
    exp_representation_terms,
    grid_steps,
    increments_block,
)
from .quadrature import ball_volume, box_grid

__all__ = [
    "EstimateReport",
    "PAYOFFS",
    "SmoothBump",
    "derivative_moment",
    "moment_window",
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
class PathCounts:
    """Path counts of a run (one path may count under several causes);
    unreliable: over UNRELIABLE_FRACTION failed, exploded or were gated."""

    n_paths: int
    excluded: int
    failed: int
    exploded: int
    gated: int
    clamped: int
    unreliable: bool


class PathRecord(NamedTuple):
    """Per path: failed or exploded in any driver, gated, clamps summed."""

    failed: np.ndarray
    exploded: np.ndarray
    gated: np.ndarray
    clamped: np.ndarray

    @classmethod
    def of(cls, *drivers: BatchEuler, gated=False) -> "PathRecord":
        return cls(np.logical_or.reduce([drv.failed for drv in drivers]),
                   np.logical_or.reduce([drv.exploded for drv in drivers]),
                   np.zeros(drivers[0].n, dtype=bool) | gated,
                   sum(drv.clamped for drv in drivers))

    @property
    def kept(self) -> np.ndarray:
        return ~(self.failed | self.exploded | self.gated)

    def counts(self, kept: np.ndarray | None = None) -> PathCounts:
        """The counts, excluding the paths outside kept (self.kept if None)."""
        n = len(self.failed)
        kept = self.kept if kept is None else kept
        return PathCounts(n, n - int(np.sum(kept)),
                          *(int(np.sum(col)) for col in self),
                          int(np.sum(~self.kept)) > UNRELIABLE_FRACTION * n)


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with Monte Carlo standard error and its path counts."""

    value: float
    std_error: float
    paths: PathCounts


def moment_window(system: CoefficientSystem, p: float) -> float:
    """T0(p) = kappa(p)/(d+2), the horizon on which the derivative moment
    bound is claimed."""
    return system.constants.kappa(p) / (system.d + 2)


PAYOFFS = {
    "identity": lambda x: x[..., 0],
    "sin": lambda x: np.sin(x[..., 0]),
    "gauss": lambda x: np.exp(-np.sum(x * x, axis=-1)),
    "constant": lambda x: np.ones(x.shape[:-1]),
}


def _map_paths(run, n_paths: int, n_steps: int, h: float, m: int,
               master_seed: int, workers: int = 1) -> tuple:
    """Map run(dws) over fixed path ranges and join its outputs.

    dws is the (n, n_steps, m) N(0, h) increment block of one range; run
    returns the PathRecord of the drivers it stepped and then per-path
    arrays with leading axis n. A range holds at most CHUNK_PATHS paths and, above one
    path, no more than fit in MAX_BLOCK_BYTES of increments. When workers > 1
    and there is more than one range, the ranges are mapped on a pool of
    min(workers, ranges, usable CPUs) forked processes (`_fork_map`); the
    records and the arrays are joined in path-index order.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths!r}")
    size = max(1, min(CHUNK_PATHS, MAX_BLOCK_BYTES // (n_steps * m * 8)))
    ranges = [(a, min(a + size, n_paths)) for a in range(0, n_paths, size)]

    def chunk(ab):
        a, b = ab
        return run(increments_block(master_seed, a, b - a, n_steps, h, m))

    procs = min(workers, len(ranges), len(os.sched_getaffinity(0)))
    if procs > 1:
        parts = _fork_map(chunk, ranges, procs)
    else:
        parts = [chunk(ab) for ab in ranges]
    records, *cols = zip(*parts)
    return (PathRecord(*map(np.concatenate, zip(*records))),
            *map(np.concatenate, cols))


def _fork_map(fn, items: list, procs: int) -> list:
    """[fn(item) for item in items], on a pool of procs forked processes.

    fn reaches the workers through fork (`_adopt` is the pool's
    initializer), so only the items and the results are pickled. The first
    exception in item order is raised here with its type, as the serial map
    raises it, and the worker's traceback is its __cause__; the items not yet
    started are cancelled. A worker that dies raises BrokenProcessPool and
    stops the others. No worker outlives the call.
    """
    # imported here, so that a serial run does not pay for the import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(procs, multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(fn,)) as pool:
        return list(pool.map(_call_adopted, items))


_adopted = None  # in a `_fork_map` worker: the fn it maps


def _adopt(fn) -> None:
    global _adopted
    _adopted = fn


def _call_adopted(item):
    return _adopted(item)


def _mean_se(samples: np.ndarray, ok: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of the kept samples; the mean is nan with no
    kept path and the standard error is nan with fewer than two."""
    good = samples[ok]
    if good.size == 0:
        return math.nan, math.nan
    se = float(np.std(good, ddof=1) / math.sqrt(good.size)) if good.size > 1 \
        else math.nan
    return float(np.mean(good)), se


# ---------------------------------------------------------------------------
# moments

def derivative_moment(system: CoefficientSystem, x, v, p: float, t: float,
                      n_paths: int, cfg: IntegratorConfig, master_seed: int = 0,
                      workers: int = 1) -> EstimateReport:
    """Mean of |v_t|^p across paths.

    The moment bound is only claimed for t inside the window T0(p)
    (`moment_window`); outside it the estimate is still returned.
    """
    if p <= 0:
        raise ValueError(f"moment order p must be positive, got {p!r}")
    n_steps = grid_steps(t, cfg.h)

    def run(dws):
        drv = BatchEuler(system, x, v, dws, cfg).run()
        return PathRecord.of(drv), np.sum(drv.v**2, axis=-1) ** (p / 2.0)

    paths, samples = _map_paths(run, n_paths, n_steps, cfg.h, system.m,
                                master_seed, workers)
    return EstimateReport(*_mean_se(samples, paths.kept), paths.counts())


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
    all_passed: bool
    paths: PathCounts


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
    if n_checkpoints < 1:
        raise ValueError(f"n_checkpoints must be at least 1, got "
                         f"{n_checkpoints!r}")
    n_steps = grid_steps(T, cfg.h, "T")
    check_steps = [max(1, round((j + 1) * n_steps / n_checkpoints))
                   for j in range(n_checkpoints)]
    # before any path is stepped: it checks lam and theta_points
    theta = theta_g(system, lam, box=theta_box, n_points=theta_points)

    def run(dws):
        drv = BatchEuler(system, x, 0.0, dws, cfg)
        vals = np.empty((drv.n, n_checkpoints))
        for s in range(n_steps):
            drv.advance()
            # a step may serve several checkpoints when n_steps is small
            for j, cs in enumerate(check_steps):
                if s + 1 == cs:
                    vals[:, j] = (1.0 + np.sum(drv.x**2, axis=-1)) ** lam
        return PathRecord.of(drv), vals

    paths, vals = _map_paths(run, n_paths, n_steps, cfg.h, system.m,
                             master_seed, workers)
    base = (1.0 + float(np.sum(np.asarray(x, dtype=float) ** 2))) ** lam
    rows = []
    for j, cs in enumerate(check_steps):
        t_j = cs * cfg.h
        lhs, se = _mean_se(vals[:, j], paths.kept)
        rhs = base * math.exp(lam * theta.value * t_j)
        rows.append(BoundCheckpoint(t=t_j, lhs=lhs, std_error=se, rhs=rhs,
                                    passed=lhs <= rhs + 3.0 * se))
    return FlowBoundReport(checkpoints=tuple(rows), theta=theta,
                           all_passed=all(r.passed for r in rows),
                           paths=paths.counts())


# ---------------------------------------------------------------------------
# gradients

def bel_gradient(system: CoefficientSystem, x, v, f, t: float, n_paths: int,
                 cfg: IntegratorConfig, master_seed: int = 0, workers: int = 1,
                 cond_max: float = DEFAULT_COND_MAX) -> EstimateReport:
    """Gradient of E f(F_t(x)) along v via the stochastic-integral weight.

    Per path accumulates S = sum_s <Y(x_s)(v_s), dW_s> with the left-point
    Ito discretization and Y = Sigma^T A^{-1}, and returns the mean of
    f(x_t) S / t. Paths whose diffusion matrix fails the condition-number
    gate at any step are excluded and counted as gated. t must be a whole
    number of steps cfg.h, since the weight is divided by t.
    """
    n_steps = grid_steps(t, cfg.h)

    def run(dws):
        drv = BatchEuler(system, x, v, dws, cfg)
        s_acc = np.zeros(drv.n)
        gated = np.zeros(drv.n, dtype=bool)
        for _, _, vs, dw, active in drv.steps():
            y, bad, _ = gated_right_inverse(drv.fields()[1], vs, cond_max)
            gated |= bad & active
            with np.errstate(invalid="ignore", over="ignore"):
                contrib = np.einsum("nk,nk->n", y, dw)
            s_acc += np.where(active & ~bad, contrib, 0.0)
        with np.errstate(invalid="ignore"):
            samples = f(drv.x) * s_acc / t
        return PathRecord.of(drv, gated=gated), samples

    paths, samples = _map_paths(run, n_paths, n_steps, cfg.h, system.m,
                                master_seed, workers)
    return EstimateReport(*_mean_se(samples, paths.kept), paths.counts())


def fd_gradient(system: CoefficientSystem, x, v, f, t: float, n_paths: int,
                delta: float, cfg: IntegratorConfig, master_seed: int = 0,
                workers: int = 1) -> EstimateReport:
    """Central-difference gradient (P_t f(x + delta v) - P_t f(x - delta v))
    / (2 delta) with common random numbers: both endpoints of each path index
    consume identical increments. x and v end in the system's d
    coordinates: x +- delta v would broadcast a shorter one."""
    if delta <= 0:
        raise ValueError("bump size delta must be positive")
    n_steps = grid_steps(t, cfg.h)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape[-1:] != (system.d,) or v.shape[-1:] != (system.d,):
        raise ValueError(f"x and v must end in the d = {system.d} "
                         f"coordinates of {system.name}, got shapes "
                         f"{x.shape} and {v.shape}")

    def run(dws):
        up = BatchEuler(system, x + delta * v, 0.0, dws, cfg).run()
        dn = BatchEuler(system, x - delta * v, 0.0, dws, cfg).run()
        return PathRecord.of(up, dn), (f(up.x) - f(dn.x)) / (2.0 * delta)

    paths, samples = _map_paths(run, n_paths, n_steps, cfg.h, system.m,
                                master_seed, workers)
    return EstimateReport(*_mean_se(samples, paths.kept), paths.counts())


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
                       workers: int = 1) -> tuple[list, PathCounts]:
    """Common-noise sup-norm gaps between consecutive family members.

    eps_list must hold at least two radii, sorted descending, inside
    (0, eps0); the finest member acts as the limit proxy. For each
    consecutive pair the mean over the paths kept by every member of
    sup_t |F^eps - F^eps'| and sup_t |V^eps - V^eps'| on the step grid is
    reported, with the counts.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 2:
        raise ValueError(f"eps_list must hold at least two radii, got "
                         f"{eps_list!r}")
    if sorted(eps_list, reverse=True) != eps_list:
        raise ValueError("eps_list must be sorted descending")
    members = [fam.member(e) for e in eps_list]
    n_steps = grid_steps(T, cfg.h, "T")
    n_pairs = len(members) - 1

    def run(dws):
        drivers = [BatchEuler(mem, x, v, dws, cfg) for mem in members]
        sup_f = np.zeros((len(dws), n_pairs))
        sup_v = np.zeros((len(dws), n_pairs))
        for _ in range(n_steps):
            for drv in drivers:
                drv.advance()
            for j in range(n_pairs):
                gap_f = row_norm(drivers[j].x - drivers[j + 1].x)
                gap_v = row_norm(drivers[j].v - drivers[j + 1].v)
                sup_f[:, j] = np.maximum(sup_f[:, j], gap_f)
                sup_v[:, j] = np.maximum(sup_v[:, j], gap_v)
        return PathRecord.of(*drivers), sup_f, sup_v

    paths, sup_f, sup_v = _map_paths(run, n_paths, n_steps, cfg.h,
                                     fam.base.m, master_seed, workers)
    ok = paths.kept
    return [ConvergenceRow(eps_list[j], eps_list[j + 1],
                           *_mean_se(sup_f[:, j], ok),
                           *_mean_se(sup_v[:, j], ok))
            for j in range(n_pairs)], paths.counts()


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
    paths: PathCounts


def ibp_residual(system: CoefficientSystem, t: float, box: float, n_grid: int,
                 phi: SmoothBump, i_coord: int, n_omega: int,
                 cfg: IntegratorConfig, master_seed: int = 0) -> IbpReport:
    """Residual of the pathwise integration-by-parts identity.

    For each noise draw omega the whole grid of starts shares one increment
    sequence. The residual per output component j is
    | sum w dphi_i(x) F_t^j(x) + sum w phi(x) V_t^j(x, e_i) |
    over the uniform grid on [-box, box]^d; the report carries the mean and
    max over omega of the worst component. A start that fails or explodes in
    any draw is counted, not excluded: the grid quadrature keeps its exit.
    t must be a whole number of steps cfg.h.
    """
    for name, value, least in (("grid size n_grid", n_grid, 2),
                               ("draw count n_omega", n_omega, 1)):
        if not (isinstance(value, numbers.Integral) and value >= least):
            raise ValueError(f"{name} must be an integer of at least "
                             f"{least}, got {value!r}")
    d = system.d
    if not (isinstance(i_coord, numbers.Integral) and 0 <= i_coord < d):
        raise ValueError(f"coordinate i_coord must be an integer in "
                         f"0..{d - 1}, got {i_coord!r}")
    n_steps = grid_steps(t, cfg.h)
    starts, spacing = box_grid(d, box, n_grid)
    weight = spacing**d
    phi_vals = phi.value(starts)
    dphi_vals = phi.partial(starts, i_coord)
    e_i = np.zeros(d)
    e_i[i_coord] = 1.0
    residuals, drivers = [], []
    for omega in range(n_omega):
        dws = increments_block(master_seed, omega, 1, n_steps, cfg.h,
                               system.m)
        drv = BatchEuler(system, starts, e_i, dws, cfg).run()
        drivers.append(drv)
        worst = 0.0
        for j in range(d):
            r = abs(weight * float(np.sum(dphi_vals * drv.x[:, j]))
                    + weight * float(np.sum(phi_vals * drv.v[:, j])))
            worst = max(worst, r)
        residuals.append(worst)
    return IbpReport(mean_residual=float(np.mean(residuals)),
                     max_residual=float(np.max(residuals)),
                     per_omega=tuple(residuals),
                     paths=PathRecord.of(*drivers).counts(
                         kept=np.ones(len(starts), dtype=bool)))


# ---------------------------------------------------------------------------
# occupation-measure (Krylov-type) ratio

@dataclass(frozen=True)
class KrylovReport:
    lhs: float
    lhs_std_error: float
    a_hat: float
    b_hat: float
    rhs_shape: float
    ratio: float
    paths: PathCounts


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
    lhs / shape from which any constant can be read off. Failed paths are
    excluded; exploded paths are counted and kept, since their occupation
    integral ended at the R-ball exit when |x| + R <= guard_radius.
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
    n_steps = grid_steps(T, cfg.h, "T")
    x_arr = np.asarray(x, dtype=float)
    power = 1.0 / (d + 1)

    def run(dws):
        drv = BatchEuler(system, x_arr, 0.0, dws, cfg)
        lhs_acc = np.zeros(drv.n)
        a_acc = np.zeros(drv.n)
        b_acc = np.zeros(drv.n)
        inside = np.ones(drv.n, dtype=bool)
        for s, xs, _, _, active in drv.steps():
            recentered = xs - x_arr
            inside &= row_norm(recentered) <= R
            live = inside & active
            drift, sig = drv.fields()
            a_mat = gram(sig)
            det = det_spd(a_mat)
            fv = f(s * cfg.h, recentered)
            lhs_acc += np.where(live, fv * det**power * cfg.h, 0.0)
            a_acc += np.where(live,
                              np.trace(a_mat, axis1=-2, axis2=-1) * cfg.h, 0.0)
            b_acc += np.where(live, row_norm(drift) * cfg.h, 0.0)
        return PathRecord.of(drv), lhs_acc, a_acc, b_acc

    paths, lhs_all, a_all, b_all = _map_paths(run, n_paths, n_steps, cfg.h,
                                              system.m, master_seed, workers)
    ok = ~paths.failed
    lhs, lhs_se = _mean_se(lhs_all, ok)
    a_hat = _mean_se(a_all, ok)[0]
    b_hat = _mean_se(b_all, ok)[0]
    shape = math.exp(T) * (a_hat + b_hat**2) ** (d / (2.0 * (d + 1))) * f_norm
    ratio = lhs / shape if shape > 0.0 else math.nan
    return KrylovReport(lhs=lhs, lhs_std_error=lhs_se, a_hat=a_hat,
                        b_hat=b_hat, rhs_shape=shape,
                        ratio=ratio, paths=paths.counts(kept=ok))


# ---------------------------------------------------------------------------
# Holder modulus

@dataclass(frozen=True)
class HolderRow:
    x: tuple
    y: tuple
    ratio: float
    std_error: float


def holder_modulus(system: CoefficientSystem, pairs, p: float, t: float,
                   n_paths: int, cfg: IntegratorConfig, master_seed: int = 0,
                   workers: int = 1) -> tuple[list[HolderRow], PathCounts]:
    """E |F_t(x) - F_t(y)|^p / |x - y|^p per pair, common noise throughout.

    A locally uniform bound across pairs at fixed radius is the sampled form
    of the Lipschitz-in-mean estimate; the same increments are reused across
    pairs so that ratio comparisons are low-noise. Every pair reduces over
    the paths that none of the pairs' flows dropped; the counts come last.
    """
    if p <= 0:
        raise ValueError(f"moment order p must be positive, got {p!r}")
    n_steps = grid_steps(t, cfg.h)
    pairs = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
             for x, y in pairs]
    seps = [float(np.linalg.norm(x - y)) for x, y in pairs]
    if not pairs:
        raise ValueError("pairs must hold at least one pair of points")
    if 0.0 in seps:
        raise ValueError("pair points must be distinct")

    def run(dws):
        gaps, drivers = [], []
        for x, y in pairs:
            fx = BatchEuler(system, x, 0.0, dws, cfg).run()
            fy = BatchEuler(system, y, 0.0, dws, cfg).run()
            gaps.append(row_norm(fx.x - fy.x) ** p)
            drivers += [fx, fy]
        return PathRecord.of(*drivers), np.stack(gaps, axis=-1)

    paths, gaps = _map_paths(run, n_paths, n_steps, cfg.h, system.m,
                             master_seed, workers)
    rows = [HolderRow(tuple(map(float, x)), tuple(map(float, y)),
                      *_mean_se(gaps[:, j] / sep**p, paths.kept))
            for j, ((x, y), sep) in enumerate(zip(pairs, seps))]
    return rows, paths.counts()


# ---------------------------------------------------------------------------
# exponential representation at scale

def exp_representation_gaps(system: CoefficientSystem, x, v, p: float,
                            T: float, n_paths: int, cfg: IntegratorConfig,
                            master_seed: int = 0, workers: int = 1
                            ) -> tuple[np.ndarray, PathCounts]:
    """Per-path relative gap between |v_T|^p and its exponential
    reconstruction |v_0|^p exp(M - Q/2 + a), summed step by step from the
    Jacobians the Euler step used at the pre-step states, for the kept paths
    in path order, and the counts of all paths."""
    if p < 2:
        raise ValueError(f"representation check requires p >= 2, got {p!r}")
    n_steps = grid_steps(T, cfg.h, "T")
    v0_norm = float(np.linalg.norm(v))

    def run(dws):
        drv = BatchEuler(system, x, v, dws, cfg)
        m_acc = np.zeros(drv.n)
        q_acc = np.zeros(drv.n)
        a_acc = np.zeros(drv.n)
        for _, _, vs, dw, _ in drv.steps():
            dm, dq, da = exp_representation_terms(drv.jacobians(), vs, dw,
                                                  cfg.h, p)
            m_acc += dm
            q_acc += dq
            a_acc += da
        direct = np.sum(drv.v**2, axis=-1) ** (p / 2.0)
        recon = v0_norm**p * np.exp(m_acc - 0.5 * q_acc + a_acc)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(direct - recon) / np.abs(direct)
        return PathRecord.of(drv), rel

    paths, rel = _map_paths(run, n_paths, n_steps, cfg.h, system.m,
                            master_seed, workers)
    return rel[paths.kept], paths.counts()


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
