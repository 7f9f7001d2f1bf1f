"""Deterministic Brownian increments and Euler-Maruyama integration of the
coupled state/derivative system.

Increments come from a counter-based generator (Philox keyed by master seed
and path index) pushed through the inverse Gaussian CDF, so every path is
reproducible bit-for-bit from (master_seed, path_index) regardless of worker
scheduling. One Philox bit generator serves a whole block: for each path it
is re-keyed with (master_seed, path_index), its counter set to zero and its
buffer emptied, and the path's raw uint64 stream is read from counter 0 (the
stream a fresh `Generator(Philox(key)).integers(0, 2**64)` gives). The raw
words pass through a reusable buffer of a few rows and are transformed in
place into the output by the inverse CDF; one path is the block
increments_block(seed, path_index, 1, ...). BatchEuler advances a batch of
paths, one path included, with coefficients frozen at the pre-step state:

    x+ = x + sum_k X_k(x) dW^k + X_0(x) h
    v+ = v + sum_k DX_k(x)(v) dW^k + DX_0(x)(v) h

The inverse CDF is scipy's ndtri ufunc, loaded from scipy.special._ufuncs
alone (_load_ndtri), not from the scipy.special package: the package's
__init__ also loads its array-API layer, which pulls in numpy.f2py,
numpy.testing, unittest and more, and about doubled the time it takes to
import flowlab, for this one ufunc.
"""

from __future__ import annotations

import math
import os
import sys
import types
from dataclasses import dataclass

import numpy as np
# by name, so that numpy.random, which numpy 2 loads on first use, loads
# with flowlab and not in the first increments_block call
from numpy.random import Philox

from .coefficients import CoefficientSystem, row_norm
from .errors import ZeroDerivativeStateError, is_integer, require

__all__ = [
    "IntegratorConfig",
    "grid_steps",
    "increments_block",
    "BatchEuler",
]


def _load_ndtri():
    """scipy.special.ndtri, without running scipy.special's __init__.

    When scipy.special is loaded already, its ndtri is taken. Otherwise a
    bare placeholder stands in for the package while its _ufuncs extension
    is imported, and is removed again. A later `import scipy.special` then
    runs the real __init__, which reuses the loaded _ufuncs, so its ndtri
    is this object. The extensions _ufuncs itself imports (_gufuncs,
    _special_ufuncs, ...) stay in sys.modules but are not set as
    attributes of that later package; `from scipy.special import _gufuncs`
    still finds them.
    """
    special = sys.modules.get("scipy.special")
    if special is not None:
        return special.ndtri
    import scipy
    placeholder = types.ModuleType("scipy.special")
    placeholder.__path__ = [os.path.join(scipy.__path__[0], "special")]
    sys.modules["scipy.special"] = placeholder
    try:
        from scipy.special._ufuncs import ndtri
    finally:
        if sys.modules.get("scipy.special") is placeholder:
            del sys.modules["scipy.special"]
    return ndtri


ndtri = _load_ndtri()


def grid_steps(t: float, h: float, name: str = "t") -> int:
    """round(t / h), the steps that end at the horizon t. ValueError, naming
    it, unless t is at least one whole step h to 1e-9 relative: a run would
    end at the nearest grid point and report t."""
    steps = t / h
    if not (0.5 <= steps < math.inf
            and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ValueError(f"{name} = {t:g} must be a whole number of steps "
                         f"h = {h:g}, got {steps:.6g} steps")
    return int(round(steps))


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon and guards for the explicit Euler-Maruyama scheme.
    BatchEuler reads h and guard_radius; only n_steps reads T and checks it
    (`grid_steps`), and a path estimator integrates to its own horizon
    argument instead."""

    h: float = 1e-3
    T: float = 1.0
    guard_radius: float = 1e6

    def __post_init__(self):
        require("step size h", self.h)
        require("guard_radius", self.guard_radius)

    @property
    def n_steps(self) -> int:
        """grid_steps(T, h, "T"): ValueError when T is off the grid."""
        return grid_steps(self.T, self.h, "T")


# bytes of raw Philox words held at once while a block is transformed
_RAW_BUFFER_BYTES = 1 << 18


def increments_block(master_seed: int, first_path: int, n_paths: int,
                     n_steps: int, h: float, m: int) -> np.ndarray:
    """(n_paths, n_steps, m) N(0, h) increments for a contiguous path range.

    Path i's n_steps*m draws, in (step, component) order, are the raw uint64
    stream of Philox keyed by (master_seed, i) from counter 0; a raw word r
    becomes ndtri(((r >> 11) + 1/2) 2^-53) sqrt(h). The uniform never is 0
    or 1, so the output is finite and platform-stable. ValueError unless the
    integers 0 <= master_seed < 2**64 and 0 <= first_path <= 2**64 - n_paths
    key every path with words in the range of a Philox key word.
    """
    if not is_integer(master_seed, 0, 2**64):
        raise ValueError(f"master_seed must be an integer in [0, 2**64), got "
                         f"{master_seed!r}")
    if not is_integer(first_path, 0, 2**64 - n_paths + 1):
        raise ValueError(f"first_path must be an integer in [0, 2**64 - "
                         f"n_paths] for n_paths = {n_paths}, got "
                         f"{first_path!r}")
    n_draws = n_steps * m
    out = np.empty((n_paths, n_steps, m))
    flat = out.reshape(n_paths, n_draws)
    rows = max(1, min(n_paths, _RAW_BUFFER_BYTES // (8 * max(n_draws, 1))))
    raw = np.empty((rows, n_draws), dtype=np.uint64)
    bitgen = Philox(key=0)
    state = {"bit_generator": "Philox",
             "state": {"counter": (0, 0, 0, 0), "key": (master_seed, 0)},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    scale = np.sqrt(h)
    for a in range(0, n_paths, rows):
        b = min(a + rows, n_paths)
        for r in range(b - a):
            state["state"]["key"] = (master_seed, first_path + a + r)
            bitgen.state = state
            raw[r] = bitgen.random_raw(n_draws)
        words, u = raw[:b - a], flat[a:b]
        words >>= np.uint64(11)
        np.add(words, 0.5, out=u)
        u *= 2.0**-53
        ndtri(u, out=u)
        u *= scale
    return out


class BatchEuler:
    """Steps a batch of paths (common step grid) through the coupled system.

    The starts x0 (n, d), directions v0 (n, d) and increments dws
    (n, n_steps, m) broadcast along the path axis: one start, one direction
    (or v0 = 0.0) or one (n_steps, m) noise path serves the whole batch.
    Sizes that do not broadcast, and an x0 or a non-scalar v0 that does not
    end in the system's d coordinates, raise ValueError: a short point is
    never spread over the coordinates it lacks.

    Exploded paths freeze at their exit state; paths hitting non-finite
    coefficients are marked failed and freeze likewise. The fields and the
    Jacobians at the pre-step state are each evaluated at most once per step
    and shared between the step and any observer through fields() and
    jacobians(); both are dropped when the step ends. The system evaluates
    the Jacobians of a point inside its r_min ball on that ball's sphere;
    each active path inside the ball counts one clamp per step, whether or
    not the Jacobians are evaluated. advance() is the only stepping entry.

    v_t is linear in v_0, so a batch started from v_0 = 0 keeps v = 0 for
    all time. Such a batch is derivative-free: the step evaluates no
    Jacobians and leaves v as it is. Only the fields can then fail a path;
    Jacobians that are not finite where the fields are do not, since a
    run from v_0 = 0 never reads them (with v_0 != 0 they make v
    non-finite and the path is marked failed).
    """

    def __init__(self, system: CoefficientSystem, x0: np.ndarray,
                 v0: np.ndarray, dws: np.ndarray, cfg: IntegratorConfig):
        x0 = np.asarray(x0, dtype=float)
        v0 = np.asarray(v0, dtype=float)
        if x0.shape[-1:] != (system.d,) or v0.shape[-1:] not in (
                (system.d,), ()):
            raise ValueError(
                f"x0 and v0 must end in the d = {system.d} coordinates of "
                f"{system.name} (v0 may be a scalar), got shapes {x0.shape} "
                f"and {v0.shape}")
        (n,) = np.broadcast_shapes((1,), x0.shape[:-1], v0.shape[:-1],
                                   dws.shape[:-2])
        x0 = np.broadcast_to(x0, (n, system.d))
        v0 = np.broadcast_to(v0, (n, system.d))
        dws = np.broadcast_to(dws, (n,) + dws.shape[-2:])
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
        self.exploded = np.zeros(n, dtype=bool)
        self.failed = np.zeros(n, dtype=bool)
        self.clamped = np.zeros(n, dtype=int)
        self.step_index = 0
        self._fields = None
        self._jacobians = None

    def fields(self) -> tuple[np.ndarray, np.ndarray]:
        """(drift, sigma) at the current state x, evaluated once per step."""
        if self._fields is None:
            self._fields = self.system.fields(self.x)
        return self._fields

    def jacobians(self) -> np.ndarray:
        """(n, m+1, d, d) Jacobians at x, evaluated once per step."""
        if self._jacobians is None:
            self._jacobians = self.system.jacobians_stacked(self.x)
        return self._jacobians

    def steps(self):
        """Yield (x_s, v_s, dw_s, active) before each step is applied."""
        for s in range(self.n_steps):
            yield (self.x, self.v, self.dws[:, s, :],
                   ~(self.failed | self.exploded))
            self.advance()

    def run(self):
        while self.advance():
            pass
        return self

    def advance(self) -> bool:
        """Apply the next pending step; False once the grid is exhausted."""
        s = self.step_index
        if s >= self.n_steps:
            return False
        sys_, cfg = self.system, self.cfg
        x, v, dw = self.x, self.v, self.dws[:, s, :]
        active = ~(self.failed | self.exploded)
        if sys_.r_min > 0.0:
            r = row_norm(x)
            self.clamped[active & (r < sys_.r_min)] += 1
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
            v_new = v
            for k in range(1, sys_.m + 1):
                v_new = v_new + np.einsum("nij,nj->ni", jall[:, k], v) \
                    * dw[:, k - 1:k]
            v_new = v_new + np.einsum("nij,nj->ni", jall[:, 0], v) * cfg.h
            finite &= np.isfinite(v_new).all(axis=-1)
        # valid for the pre-step x only (an observer may have cached them);
        # dropping them now frees them when the step ends
        self._fields = self._jacobians = None
        # a non-finite row's norm is read only through move, which drops it
        out = row_norm(x_new) > cfg.guard_radius
        move = active & finite
        self.x = np.where(move[:, None], x_new, x)
        self.v = np.where(move[:, None], v_new, v)
        self.failed |= active & ~finite
        self.exploded |= move & out
        self.step_index = s + 1
        return True


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
