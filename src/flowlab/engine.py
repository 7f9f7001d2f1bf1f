"""Deterministic Brownian increments and Euler-Maruyama integration of the
coupled state/derivative system.

Increments come from a counter-based generator (Philox keyed by master seed
and path index) pushed through the inverse Gaussian CDF, so every path is
reproducible bit-for-bit from (master_seed, path_index) regardless of worker
scheduling. The integrator advances both components with coefficients frozen
at the pre-step state:

    x+ = x + sum_k X_k(x) dW^k + X_0(x) h
    v+ = v + sum_k DX_k(x)(v) dW^k + DX_0(x)(v) h
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .coefficients import CoefficientSystem
from .errors import IntegrationError, ZeroDerivativeStateError

__all__ = [
    "BrownianPath",
    "Trajectory",
    "IntegratorConfig",
    "sample_path",
    "gaussian_increments",
    "integrate",
    "multi_start",
    "log_exponential_check",
    "BatchEuler",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon and guards for the explicit Euler-Maruyama scheme."""

    h: float = 1e-3
    T: float = 1.0
    guard_radius: float = 1e6

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("step size h must be positive")
        if self.T < self.h:
            raise ValueError("horizon T must be at least one step")
        if self.guard_radius <= 0:
            raise ValueError("guard_radius must be positive")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.h))

    def with_horizon(self, t: float) -> "IntegratorConfig":
        return replace(self, T=t)


@dataclass(frozen=True)
class BrownianPath:
    """Time grid plus N(0, h) increments, reproducible from its provenance."""

    n_steps: int
    h: float
    m: int
    increments: np.ndarray          # (n_steps, m)
    master_seed: int
    path_index: int

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.h


def gaussian_increments(master_seed: int, path_index: int, n_steps: int,
                        h: float, m: int) -> np.ndarray:
    """N(0, h) increments keyed by (master_seed, path_index, step, component).

    Philox supplies the uniform stream; the Gaussian transform is the inverse
    CDF applied to (r >> 11 + 1/2) 2^-53, which never produces 0 or 1, so the
    output is finite and platform-stable.
    """
    key = np.array([master_seed, path_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    raw = gen.integers(0, 2**64, size=(n_steps, m), dtype=np.uint64,
                       endpoint=False)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u) * np.sqrt(h)


def increments_block(master_seed: int, first_path: int, n_paths: int,
                     n_steps: int, h: float, m: int) -> np.ndarray:
    """(n_paths, n_steps, m) increments for a contiguous path range."""
    out = np.empty((n_paths, n_steps, m))
    for i in range(n_paths):
        out[i] = gaussian_increments(master_seed, first_path + i, n_steps, h, m)
    return out


def sample_path(master_seed: int, path_index: int, n_steps: int, h: float,
                m: int) -> BrownianPath:
    """Materialize one Brownian path from its provenance tuple."""
    return BrownianPath(n_steps=n_steps, h=h, m=m,
                        increments=gaussian_increments(
                            master_seed, path_index, n_steps, h, m),
                        master_seed=master_seed, path_index=path_index)


@dataclass(frozen=True)
class Trajectory:
    """Discrete record of the coupled state (x_t, v_t) for one path."""

    times: np.ndarray               # (n_recorded,)
    xs: np.ndarray                  # (n_recorded, d)
    vs: np.ndarray                  # (n_recorded, d)
    exploded: bool
    exit_step: int | None
    clamped: int
    path: BrownianPath

    @property
    def states(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return list(zip(self.xs, self.vs))


class BatchEuler:
    """Steps a batch of paths (common step grid) through the coupled system.

    Exploded paths freeze at their exit state; paths hitting non-finite
    coefficients are marked failed and freeze likewise. The fields and the
    Jacobians at the pre-step state are each evaluated at most once per step
    and shared between the step and any observer through fields() and
    jacobians(). Jacobians are evaluated at the system's
    origin_policy.clamp(x); each active path inside the clamp ball counts
    one clamp per step, whether or not the Jacobians are evaluated.

    v_t is linear in v_0, so a batch started from v_0 = 0 keeps v = 0 for
    all time. Such a batch is derivative-free: the step evaluates no
    Jacobians and leaves v as it is. Only the fields can then fail a path;
    Jacobians that are not finite where the fields are do not, since a
    run from v_0 = 0 never reads them (with v_0 != 0 they make v
    non-finite and the path is marked failed).
    """

    def __init__(self, system: CoefficientSystem, x0: np.ndarray,
                 v0: np.ndarray, dws: np.ndarray, cfg: IntegratorConfig):
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
        v0 = np.atleast_2d(np.asarray(v0, dtype=float))
        n = x0.shape[0]
        if v0.shape[0] == 1 and n > 1:
            v0 = np.broadcast_to(v0, x0.shape).copy()
        if dws.ndim == 2:
            dws = dws[None]
        if dws.shape[0] == 1 and n > 1:
            dws = np.broadcast_to(dws, (n,) + dws.shape[1:])
        if dws.shape[2] != system.m:
            raise ValueError(f"path noise dimension {dws.shape[2]} does not "
                             f"match system m={system.m}")
        self.system = system
        self.cfg = cfg
        self.x = x0.copy()
        self.v = v0.copy()
        self.derivative_free = not np.any(self.v)
        self.dws = dws
        self.n = n
        self.n_steps = dws.shape[1]
        self.active = np.ones(n, dtype=bool)
        self.exploded = np.zeros(n, dtype=bool)
        self.failed = np.zeros(n, dtype=bool)
        self.exit_step = np.full(n, -1, dtype=int)
        self.clamped = np.zeros(n, dtype=int)
        self.step_index = 0
        self._fields_step = -1
        self._fields = None
        self._jacobians = None

    def fields(self) -> tuple[np.ndarray, np.ndarray]:
        """(drift, sigma) at the current state x, evaluated once per step."""
        if self._fields_step != self.step_index:
            self._fields = self.system.fields(self.x)
            self._fields_step = self.step_index
        return self._fields

    def jacobians(self) -> np.ndarray:
        """(n, m+1, d, d) Jacobians at clamp(x), evaluated once per step."""
        if self._jacobians is None:
            self._jacobians = self.system.jacobians_stacked(
                self.system.origin_policy.clamp(self.x))
        return self._jacobians

    def steps(self):
        """Yield (s, x_s, v_s, dw_s, active) before each step is applied."""
        for s in range(self.n_steps):
            yield s, self.x, self.v, self.dws[:, s, :], self.active
            self.advance()

    def advance(self) -> bool:
        """Apply the next pending step; False once the grid is exhausted."""
        s = self.step_index
        if s >= self.n_steps:
            return False
        self._advance(s, self.dws[:, s, :])
        return True

    def run(self):
        while self.advance():
            pass
        return self

    def _advance(self, s: int, dw: np.ndarray):
        sys_, cfg = self.system, self.cfg
        x, v = self.x, self.v
        policy = sys_.origin_policy
        if policy.singular:
            r = np.linalg.norm(x, axis=-1)
            self.clamped[self.active & (r < policy.r_min)] += 1
        drift, sig = self.fields()
        x_new = x + np.einsum("nim,nm->ni", sig, dw) + drift * cfg.h
        finite = np.isfinite(x_new).all(axis=-1)
        if self.derivative_free:
            v_new = v
        else:
            jall = self.jacobians()
            # same term order as the x update (diffusion sum, then drift) so
            # the two components of a scalar linear system share the exact
            # factor
            v_new = v.copy()
            for k in range(1, sys_.m + 1):
                v_new = v_new + np.einsum("nij,nj->ni", jall[:, k], v) \
                    * dw[:, k - 1:k]
            v_new = v_new + np.einsum("nij,nj->ni", jall[:, 0], v) * cfg.h
            finite &= np.isfinite(v_new).all(axis=-1)
        # valid for the pre-step x only (an observer may have cached them);
        # dropping them now frees them when the step ends
        self._jacobians = None
        newly_failed = self.active & ~finite
        out = np.linalg.norm(np.where(finite[:, None], x_new, 0.0), axis=-1) \
            > cfg.guard_radius
        newly_exploded = self.active & finite & out

        move = self.active & finite
        self.x = np.where(move[:, None], x_new, x)
        self.v = np.where(move[:, None], v_new, v)
        self.failed |= newly_failed
        self.exploded |= newly_exploded
        stop = newly_failed | newly_exploded
        self.exit_step[stop] = s + 1
        self.active &= ~stop
        self.step_index = s + 1


def integrate(system: CoefficientSystem, x0: np.ndarray, v0: np.ndarray,
              path: BrownianPath, cfg: IntegratorConfig) -> Trajectory:
    """Integrate one path, recording every step.

    Raises IntegrationError (naming the step and point) when the coefficients
    return non-finite values; marks the trajectory exploded when the state
    exits the guard ball, truncating the record at the exit state.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial point must be finite")
    if path.m != system.m:
        raise ValueError(f"path noise dimension {path.m} does not match "
                         f"system m={system.m}")
    driver = BatchEuler(system, x0[None], v0[None], path.increments[None], cfg)
    xs = np.empty((path.n_steps + 1, system.d))
    vs = np.empty((path.n_steps + 1, system.d))
    xs[0], vs[0] = x0, v0
    last = path.n_steps
    for s in range(path.n_steps):
        driver.advance()
        xs[s + 1] = driver.x[0]
        vs[s + 1] = driver.v[0]
        if driver.failed[0]:
            raise IntegrationError(
                f"non-finite coefficients at step {s + 1}, point {xs[s]!r}",
                step=s + 1, point=xs[s])
        if driver.exploded[0]:
            last = s + 1
            break
    n_rec = last + 1
    return Trajectory(times=np.arange(n_rec) * path.h, xs=xs[:n_rec],
                      vs=vs[:n_rec], exploded=bool(driver.exploded[0]),
                      exit_step=int(driver.exit_step[0])
                      if driver.exit_step[0] >= 0 else None,
                      clamped=int(driver.clamped[0]), path=path)


def multi_start(system: CoefficientSystem, x0_list, v0: np.ndarray,
                path: BrownianPath, cfg: IntegratorConfig) -> list[Trajectory]:
    """Integrate several starting points against the same increments.

    Output order matches input order and each entry is identical to calling
    integrate separately.
    """
    return [integrate(system, x0, v0, path, cfg) for x0 in x0_list]


def exp_representation_terms(jall: np.ndarray, v: np.ndarray, dw: np.ndarray,
                             h: float, p: float
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-step increments (dM, dQ, da) of the exponential representation.

    jall holds the (..., m+1, d, d) Jacobians at the pre-step state, drift
    first. dM = p sum_k <DX_k v, v>/|v|^2 dW^k, dQ its squared integrand
    times h, and da = (p/2) Hbar_p(x)(v,v)/|v|^2 h where Hbar_p collects
    twice the drift Jacobian form plus the diffusion Gram and alignment terms.
    """
    v2 = np.sum(v * v, axis=-1)
    if np.any(v2 <= 0.0):
        raise ZeroDerivativeStateError(
            "derivative state |v| = 0; exponential representation undefined")
    j0v = np.einsum("...ij,...j->...i", jall[..., 0, :, :], v)
    hbar = 2.0 * np.sum(j0v * v, axis=-1)
    dm = np.zeros(v2.shape)
    dq = np.zeros(v2.shape)
    for k in range(1, jall.shape[-3]):
        jkv = np.einsum("...ij,...j->...i", jall[..., k, :, :], v)
        g = np.sum(jkv * v, axis=-1) / v2
        dm = dm + p * g * dw[..., k - 1]
        dq = dq + p * p * g * g * h
        hbar = hbar + np.sum(jkv * jkv, axis=-1) + (p - 2.0) * g * g * v2
    da = 0.5 * p * hbar / v2 * h
    return dm, dq, da


def log_exponential_check(system: CoefficientSystem, traj: Trajectory,
                          p: float) -> tuple[float, float]:
    """Compare |v_T|^p against its stochastic-exponential reconstruction.

    Evaluates the Jacobians at every recorded pre-step state in one batch
    (clamped like the Euler step), sums the discrete martingale, its bracket
    and the drift functional along the trajectory and returns
    (direct, |v_0|^p exp(M - Q/2 + a)).
    """
    if p < 2:
        raise ValueError("representation check requires p >= 2")
    if traj.exploded:
        raise ValueError("trajectory exploded; representation not applicable")
    xs, vs = traj.xs[:-1], traj.vs[:-1]
    jall = system.jacobians_stacked(system.origin_policy.clamp(xs))
    dm, dq, da = exp_representation_terms(
        jall, vs, traj.path.increments[:len(xs)], traj.path.h, p)
    v0 = float(np.linalg.norm(traj.vs[0]))
    vt = float(np.linalg.norm(traj.vs[-1]))
    direct = vt**p
    reconstructed = v0**p * np.exp(np.sum(dm) - 0.5 * np.sum(dq) + np.sum(da))
    return direct, float(reconstructed)
