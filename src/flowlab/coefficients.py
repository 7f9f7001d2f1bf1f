"""Coefficient systems: vector fields, Jacobians, spectral and growth diagnostics.

A coefficient system holds the drift field (index 0) and the m diffusion
fields (indices 1..m) of an Ito equation, together with the growth/ellipticity
constants used by the sampled condition checker. All field evaluations are
NumPy-vectorized over leading batch axes.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .errors import ParameterConstraintError, SingularPointError
from .quadrature import box_grid, midpoint_ball_rule, spherical_product

__all__ = [
    "AssumptionConstants",
    "CoefficientSystem",
    "SpectralReport",
    "ThetaBound",
    "CheckSpec",
    "ConditionReport",
    "make_system",
    "builtin",
    "builtin_parameters",
    "gram",
    "kp_max",
    "theta_g",
    "check_assumptions",
    "fd_jacobian",
    "row_norm",
    "sym_eig_range",
    "BUILTIN_NAMES",
]

DEFAULT_COND_MAX = 1e12
DEFAULT_H_FD = 1e-5
DEFAULT_R_MIN = 1e-6


def _default_kappa(p: float) -> float:
    return 1.0 / p


@dataclass(frozen=True)
class AssumptionConstants:
    """Growth/ellipticity constants attached to a coefficient system.

    p1: ellipticity decay exponent, p2: field growth, p3/p4: Sobolev exponents
    for diffusion/drift, p5: Jacobian growth outside R1. kappa maps a moment
    order p to the exponential-integrability budget kappa(p) > 0.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    p5: float
    C1: float
    C2: float
    C3: float
    R1: float
    delta: float = 1.0
    kappa: Callable[[float], float] = _default_kappa

    def validate(self, d: int) -> None:
        for name in ("p1", "p2", "p3", "p4", "p5", "C1", "C2", "C3", "R1"):
            if getattr(self, name) <= 0:
                raise ValueError(f"constant {name} must be strictly positive")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.p3 <= 2 * (d + 1):
            raise ValueError(f"p3 must exceed 2(d+1) = {2 * (d + 1)}")
        if self.p4 <= d + 1:
            raise ValueError(f"p4 must exceed d+1 = {d + 1}")


@dataclass(frozen=True)
class CoefficientSystem:
    """Drift X_0 and diffusion fields X_1..X_m with their Jacobians.

    A system is two batched callables over x of shape (..., d):
    fields_fn(x) returns (drift, sigma) = (X_0(x), [X_1(x)..X_m(x)]) with
    sigma of shape (..., d, m), and jacobians_fn(x) returns all Jacobians
    DX_0..DX_m as (..., m+1, d, d). Both evaluate every field at once, as
    the flow and its derivative flow need them. value(k, x) and
    jacobian(k, x) are accessors that index that output; make_system adapts
    per-field callables to this form.

    r_min is the radius of the ball around the origin where the Jacobians
    are singular. jacobian(k, x) and the condition checks refuse points
    inside it, while jacobians_fn evaluates them on its sphere (the origin
    at r_min e_1), so the flow's derivative has Jacobians along every path.
    """

    name: str
    d: int
    m: int
    fields_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    jacobians_fn: Callable[[np.ndarray], np.ndarray]
    constants: AssumptionConstants
    r_min: float = 0.0
    params: Mapping[str, float] = field(default_factory=dict)

    def _check_k(self, k: int) -> None:
        if not 0 <= k <= self.m:
            raise IndexError(f"field index {k} outside 0..{self.m}")

    def value(self, k: int, x: np.ndarray) -> np.ndarray:
        """X_k(x), read off fields(x)."""
        self._check_k(k)
        drift, sigma = self.fields(x)
        return drift if k == 0 else sigma[..., k - 1]

    def _check_regular(self, x: np.ndarray) -> None:
        """Raise SingularPointError if any of x lies in the singular set."""
        if self.r_min > 0.0:
            r = row_norm(x)
            if np.any(r < self.r_min):
                raise SingularPointError(
                    f"{self.name}: Jacobian undefined for |x| < "
                    f"{self.r_min:g} (got |x|={np.min(r):.3e})")

    def jacobian(self, k: int, x: np.ndarray) -> np.ndarray:
        """DX_k(x), read off jacobians_stacked(x); raises SingularPointError
        inside the declared singular set."""
        self._check_k(k)
        x = np.asarray(x, dtype=float)
        self._check_regular(x)
        return self.jacobians_stacked(x)[..., k, :, :]

    def sigma(self, x: np.ndarray) -> np.ndarray:
        """The (..., d, m) matrix whose columns are X_1(x)..X_m(x)."""
        return self.fields(x)[1]

    def fields(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(drift, sigma) = (X_0(x), [X_1(x)..X_m(x)]) in one call."""
        return self.fields_fn(np.asarray(x, dtype=float))

    def jacobians_stacked(self, x: np.ndarray) -> np.ndarray:
        """All Jacobians as (..., m+1, d, d) with the drift at index 0; a
        point inside the r_min ball is evaluated on its sphere."""
        return self.jacobians_fn(np.asarray(x, dtype=float))


def fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                h: float = DEFAULT_H_FD) -> np.ndarray:
    """Central-difference Jacobian of fn, batched over x (..., d).

    fn may return (..., d) for one field or (..., m+1, d) for stacked
    fields; the derivative direction is the last axis of the result.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    cols = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        cols.append((fn(x + e) - fn(x - e)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def row_norm(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1), bit for bit, without its reduction.

    Below 8 columns numpy's reduction adds the squares in column order, so
    summing the squared columns in order and taking sqrt gives the same
    bits at a fraction of the cost; from 8 columns numpy sums pairwise, and
    its norm is returned.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    if d >= 8:
        return np.linalg.norm(x, axis=-1)
    s = x[..., 0] * x[..., 0]
    for j in range(1, d):
        s = s + x[..., j] * x[..., j]
    return np.sqrt(s)


def stack_fields(drift: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """(drift, sigma) as one (..., m+1, d) array with X_k in row k."""
    return np.concatenate([drift[..., None, :], np.swapaxes(sigma, -1, -2)],
                          axis=-2)


def make_system(name: str, d: int, m: int,
                value_fn: Callable[[int, np.ndarray], np.ndarray],
                jacobian_fn: Callable[[int, np.ndarray], np.ndarray],
                constants: AssumptionConstants | None = None,
                params: Mapping[str, float] | None = None) -> CoefficientSystem:
    """Assemble a system from per-field callables value_fn(k, x) and
    jacobian_fn(k, x)."""
    def fields(x):
        drift = value_fn(0, x)
        return drift, np.stack([value_fn(k, x) for k in range(1, m + 1)],
                               axis=-1)

    def jacobians(x):
        return np.stack([jacobian_fn(k, x) for k in range(m + 1)], axis=-3)

    if constants is None:
        constants = AssumptionConstants(p1=0.5, p2=1.0, p3=2 * (d + 1) + 2.0,
                                        p4=d + 2.0, p5=0.5, C1=1.0, C2=2.0,
                                        C3=2.0, R1=1.0)
    return CoefficientSystem(name=name, d=d, m=m, fields_fn=fields,
                             jacobians_fn=jacobians, constants=constants,
                             params=dict(params or {}))


# ---------------------------------------------------------------------------
# linear algebra helpers

def sym_eig_range(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(smallest, largest) eigenvalues of symmetric matrices, batched.

    Closed forms for d <= 2 keep the hot integrator path cheap and
    batch-size independent; larger d falls back to eigvalsh.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    if d == 1:
        v = a[..., 0, 0]
        return v, v
    if d == 2:
        tr = a[..., 0, 0] + a[..., 1, 1]
        det = det_spd(a)
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        return 0.5 * (tr - disc), 0.5 * (tr + disc)
    w = _eigvalsh(a)
    return w[..., 0], w[..., -1]


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """eigvalsh of symmetric matrices (..., d, d), bit for bit on the finite
    ones and nan for one with a non-finite entry, which LAPACK neither
    propagates nor reports (I_3 with nan at [0, 0] gives [0, -0, 1])."""
    finite = np.isfinite(a).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.eigvalsh(a)
    w = np.full(a.shape[:-1], np.nan)
    w[finite] = np.linalg.eigvalsh(a[finite])
    return w


def det_spd(a: np.ndarray) -> np.ndarray:
    """Determinant of square matrices, batched (..., d, d); closed form for
    d <= 2."""
    d = a.shape[-1]
    if d == 1:
        return a[..., 0, 0]
    if d == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return np.linalg.det(a)


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ z = b for symmetric positive definite a, batched (..., d, d)."""
    d = a.shape[-1]
    if d == 1:
        return b / a[..., 0, 0:1]
    if d == 2:
        det = det_spd(a)
        z0 = (a[..., 1, 1] * b[..., 0] - a[..., 0, 1] * b[..., 1]) / det
        z1 = (a[..., 0, 0] * b[..., 1] - a[..., 1, 0] * b[..., 0]) / det
        return np.stack([z0, z1], axis=-1)
    return np.linalg.solve(a, b)


# ---------------------------------------------------------------------------
# operations

def gram(sig: np.ndarray) -> np.ndarray:
    """The diffusion matrix A = Sigma Sigma^T, a_ij = sum_k X_ki X_kj, of
    sigma (..., d, m), batched; A at points x is gram(system.sigma(x)).
    Every A in flowlab is formed here."""
    return np.einsum("...ik,...jk->...ij", sig, sig)


def gated_right_inverse(sig: np.ndarray, xi: np.ndarray,
                        cond_max: float = DEFAULT_COND_MAX) -> tuple:
    """(Sigma^T A^{-1} xi, gated, smallest eigenvalue of A) for A = Sigma
    Sigma^T, batched; gated marks where A is not positive definite or
    cond(A) exceeds cond_max, and the right inverse there is meaningless."""
    a = gram(sig)
    lo, hi = sym_eig_range(a)
    gated = ~(lo > 0.0) | (hi > cond_max * lo)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = np.einsum("...ik,...i->...k", sig, solve_spd(a, xi))
    return y, gated, lo


@dataclass(frozen=True)
class SpectralReport:
    """K_p(x) as the top eigenvalue of the symmetrized quadratic-form matrix."""

    kp: float
    matrix: np.ndarray


def kp_max(system: CoefficientSystem, x: np.ndarray, p: float) -> SpectralReport:
    """Largest eigenvalue of p(J0 + J0^T) + (2p-1)p sum_k J_k^T J_k at x.

    This equals sup over unit xi of
    2p<DX_0 xi, xi> + (2p-1)p sum_k |DX_k xi|^2.
    """
    x = np.asarray(x, dtype=float)
    system._check_regular(x)
    kp, mat = _kp(system.jacobians_stacked(x), p)
    return SpectralReport(float(kp) if np.ndim(kp) == 0 else kp, mat)


def _kp(jall: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(K_p, its matrix) from the Jacobians jall (..., m+1, d, d) of one
    evaluation, so that every order p reads the same pass."""
    if p <= 0:
        raise ValueError("order p must be positive")
    j0 = jall[..., 0, :, :]
    mat = p * (j0 + np.swapaxes(j0, -1, -2))
    for k in range(1, jall.shape[-3]):
        jk = jall[..., k, :, :]
        mat = mat + (2.0 * p - 1.0) * p * np.einsum("...ji,...jk->...ik", jk, jk)
    return _eigvalsh(mat)[..., -1], mat


def _log_energy_expression(system: CoefficientSystem, lam: float,
                           x: np.ndarray) -> np.ndarray:
    """Dg(X_0) + (1/2) sum_k (lam |Dg(X_k)|^2 + D^2g(X_k, X_k)) for
    g(x) = log(1 + |x|^2), in closed form."""
    s = 1.0 + np.sum(x * x, axis=-1)
    x0, sigma = system.fields(x)
    out = 2.0 * np.sum(x * x0, axis=-1) / s
    for k in range(system.m):
        xk = sigma[..., k]
        dot = np.sum(x * xk, axis=-1)
        norm2 = np.sum(xk * xk, axis=-1)
        out = out + 2.0 * (lam - 1.0) * dot * dot / (s * s) + norm2 / s
    return out


@dataclass(frozen=True)
class ThetaBound:
    """Grid supremum of the log-energy drift functional: an empirical
    (finite-sample) maximum over the search box."""

    value: float
    argmax: tuple[float, ...]


def theta_g(system: CoefficientSystem, lam: float, box: float = 50.0,
            n_points: int | None = None) -> ThetaBound:
    """Maximize the Lyapunov drift expression for g = log(1+|x|^2) on a grid."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    d = system.d
    if n_points is None:
        n_points = 401 if d <= 2 else 101
    pts, _ = box_grid(d, box, n_points)
    vals = _log_energy_expression(system, lam, pts)
    i = int(np.argmax(vals))
    return ThetaBound(value=float(vals[i]), argmax=tuple(map(float, pts[i])))


# ---------------------------------------------------------------------------
# sampled condition checks

# the sampling plan: probe radii and directions, offsets |y| <= delta per
# direction in (c2), and the refinement levels of the (c3) quadrature on the
# unit ball, whose radial count doubles from the first
_N_RADIAL = 24
_N_ANGULAR = 16
_DELTA_SAMPLES = 6
_QUAD_LEVELS = 3
_QUAD_N0 = 16


@dataclass(frozen=True)
class CheckSpec:
    """Probe radius, moment orders and (c3) budget for the condition checker.

    (c2) and (c4aa) leave their constant non-constructive: the checker
    reports the largest empirical constant over p_list as the worst margin,
    and fails only a non-finite one.
    """

    radius: float = 10.0
    p_list: tuple[float, ...] = (2.0,)
    quad_budget: float = 1e9

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"probe radius must be positive, got "
                             f"{self.radius!r}")
        if len(self.p_list) == 0:
            raise ValueError("p_list must hold at least one moment order")


@dataclass(frozen=True)
class ConditionReport:
    name: str
    status: str                      # "pass" | "fail" | "skipped"
    worst_point: np.ndarray | None
    worst_margin: float              # >= 0 means pass at every sample;
                                     # (c2), (c4aa): the empirical constant
    detail: dict
    skipped_points: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _probe_points(spec: CheckSpec, d: int, r_lo: float = 0.0) -> np.ndarray:
    radii = np.geomspace(max(r_lo, 1e-3 * spec.radius), spec.radius,
                         _N_RADIAL)
    return spherical_product(radii, 1.0, d, _N_ANGULAR)[0]


def check_assumptions(system: CoefficientSystem,
                      spec: CheckSpec = CheckSpec()) -> dict[str, ConditionReport]:
    """Sampled pass/fail diagnostics for the growth and ellipticity conditions.

    These are grid-level checks, not proofs: pass means no violation was found
    at the sampled points, fail carries the worst violating point, and a nan
    sample fails its condition. (c1), (c2aa) and (c2) read one field pass
    over the probes shifted by every (c2) offset; (c1) and (c2aa) read its
    y = 0 slice, and (c1) forms A there with gram. (c3) is skipped when every
    quadrature node is singular, and (c4) and (c4aa) when any probe outside
    R1 is.
    """
    c = system.constants
    d = system.d
    reports: dict[str, ConditionReport] = {}

    pts = _probe_points(spec, d)
    r = row_norm(pts)

    # one field pass for (c1), (c2aa) and (c2); the first offsets are y = 0
    offsets = spherical_product(np.linspace(0.0, c.delta, _DELTA_SAMPLES),
                                1.0, d, _DELTA_SAMPLES)[0]
    drift, sigma = system.fields(pts + offsets[:, None])

    # (c1): smallest eigenvalue of A(x) >= C1 / (1 + |x|^p1), read off the
    # y = 0 slice; an inf entry of A makes inf - inf there, a nan margin
    with np.errstate(invalid="ignore", over="ignore"):
        lo, _ = sym_eig_range(gram(sigma[0]))
    reports["c1"] = _margin_report("c1", lo - c.C1 / (1.0 + r**c.p1), pts,
                                   {"C1": c.C1, "p1": c.p1})

    # (c2aa): |X_k(x)| <= C2 (1 + |x|^p2) for k = 0..m
    norms = row_norm(stack_fields(drift[0], sigma[0]))
    reports["c2aa"] = _margin_report("c2aa", c.C2 * (1.0 + r**c.p2) - norms.T,
                                     pts, {"C2": c.C2, "p2": c.p2})

    # (c2): sup_{|y| <= delta} p sum |X_k(x+y)|^2 + <x, X_0(x+y)> <= C(p)(1+|x|^2)
    s = np.zeros(drift.shape[:-1])
    for k in range(system.m):
        s += np.sum(sigma[..., k] ** 2, axis=-1)
    inner = np.sum(pts * drift, axis=-1)
    reports["c2"] = _constant_report(
        "c2", {p: float(np.max((p * s + inner) / (1.0 + r * r)))
               for p in spec.p_list},
        {"delta": c.delta})

    # (c3): refinement study of the exponential-integrability quadrature
    reports["c3"] = _check_c3(system, spec)

    # (c4): |DX_k(x)| <= C3 (1 + |x|^p5) outside R1, and
    # (c4aa): K_p(x) <= C(p) log(1 + |x|^2) outside R1
    reports["c4"], reports["c4aa"] = _check_outside_r1(system, spec)
    return reports


def _margin_report(name: str, margins: np.ndarray, pts: np.ndarray,
                   detail: dict) -> ConditionReport:
    """The worst of margins (fields, points) over pts, the first in
    field-major order on ties; a nan margin is the worst and fails."""
    flat = np.reshape(margins, -1)
    i = int(np.argmin(flat))
    worst = float(flat[i])
    return ConditionReport(name, "pass" if worst >= 0 else "fail",
                           pts[i % len(pts)], worst, detail)


def _constant_report(name: str, empirical: dict, detail: dict
                     ) -> ConditionReport:
    """(c2), (c4aa): the largest empirical constant over p_list as the worst
    margin, failing only when it is not finite."""
    # np.max, not max: a nan constant at any p makes the worst one nan
    worst = float(np.max(list(empirical.values())))
    return ConditionReport(
        name, "pass" if math.isfinite(worst) else "fail", None, worst,
        {"empirical_C": empirical, "budget": math.inf, **detail})


def _check_c3(system: CoefficientSystem, spec: CheckSpec) -> ConditionReport:
    c = system.constants
    estimates: dict[float, list[float]] = {p: [] for p in spec.p_list}
    skipped = 0
    for level in range(_QUAD_LEVELS):
        nodes, weights = midpoint_ball_rule(system.d, 1.0,
                                            _QUAD_N0 * 2**level, _N_ANGULAR)
        keep = row_norm(nodes) >= system.r_min
        skipped += int(np.sum(~keep))
        if not np.any(keep):
            return ConditionReport("c3", "skipped", None, 0.0,
                                   {"reason": "all nodes singular"},
                                   skipped_points=skipped)
        # one Jacobian pass per level serves every p
        jall = system.jacobians_stacked(nodes[keep])
        for p, levels in estimates.items():
            with np.errstate(over="ignore"):
                integrand = np.exp(np.minimum(c.kappa(p) * _kp(jall, p)[0],
                                              700.0))
            levels.append(float(np.sum(weights[keep] * integrand)))
    worst_final = max(v[-1] for v in estimates.values())
    growing = any(len(v) >= 2 and v[-1] > 1.5 * v[-2] and v[-1] > 10.0
                  for v in estimates.values())
    ok = worst_final <= spec.quad_budget and not growing
    return ConditionReport(
        "c3", "pass" if ok else "fail", None,
        spec.quad_budget - worst_final,
        {"levels": estimates, "budget": spec.quad_budget,
         "diverging": growing},
        # a node skipped at one level is skipped once for each order p
        skipped_points=skipped * len(spec.p_list))


def _check_outside_r1(system: CoefficientSystem, spec: CheckSpec
                      ) -> tuple[ConditionReport, ConditionReport]:
    """(c4) and (c4aa) on their shared probe set, from one Jacobian pass."""
    c = system.constants
    if spec.radius <= c.R1:
        return tuple(ConditionReport(name, "skipped", None, 0.0,
                                     {"reason": "probe radius inside R1"})
                     for name in ("c4", "c4aa"))
    pts = _probe_points(spec, system.d, r_lo=c.R1 * 1.01)
    try:
        system._check_regular(pts)
    except SingularPointError:
        return (ConditionReport("c4", "skipped", None, 0.0,
                                {"reason": "no evaluable Jacobians"},
                                skipped_points=(system.m + 1) * len(pts)),
                ConditionReport("c4aa", "skipped", None, 0.0,
                                {"reason": "Jacobian singular on probe set"},
                                skipped_points=len(pts)))
    r = row_norm(pts)
    jall = system.jacobians_stacked(pts)
    norms = np.linalg.norm(jall, axis=(-2, -1))
    c4 = _margin_report("c4", c.C3 * (1.0 + r**c.p5) - norms.T, pts,
                        {"C3": c.C3, "p5": c.p5, "R1": c.R1})
    c4aa = _constant_report(
        "c4aa", {p: float(np.max(_kp(jall, p)[0] / np.log1p(r * r)))
                 for p in spec.p_list}, {})
    return c4, c4aa


# ---------------------------------------------------------------------------
# built-in systems

def _smooth_step(t: np.ndarray, slope: bool = False):
    """C^inf step: 0 for t <= 0, 1 for t >= 1, strictly increasing between.

    S = a / (a + b) with a = e^{-1/t}, b = e^{-1/(1-t)}, evaluated only on the
    band 0 < t < 1; with slope=True also returns
    S' = a b (1/t^2 + 1/(1-t)^2) / (a + b)^2, which is 0 off the band
    (grouped so that no intermediate overflows near the band's ends).
    """
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    out = np.where(flat >= 1.0, 1.0, 0.0)
    band = np.flatnonzero((flat > 0.0) & (flat < 1.0))
    tb = flat[band]
    a = np.exp(-1.0 / tb)
    b = np.exp(-1.0 / (1.0 - tb))
    w = a + b
    out[band] = a / w
    if not slope:
        return out.reshape(t.shape)
    ds = np.zeros_like(out)
    ds[band] = (a / tb / tb * b + b / (1.0 - tb) / (1.0 - tb) * a) / (w * w)
    return out.reshape(t.shape), ds.reshape(t.shape)


def _batched(fn):
    """Normalize a field function of x to arbitrary leading shapes.

    fn takes x of shape (n, d) and returns an array or a tuple of arrays
    with leading axis n; the wrapper accepts x of shape (..., d).
    """
    def wrapped(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return fn(x)
        lead = x.shape[:-1]
        out = fn(x.reshape(-1, x.shape[-1]))
        if isinstance(out, tuple):
            return tuple(o.reshape(lead + o.shape[1:]) for o in out)
        return out.reshape(lead + out.shape[1:])
    return wrapped


def _constant_field(value: np.ndarray, x: np.ndarray) -> np.ndarray:
    """value repeated over the batch axes of x (..., d)."""
    return np.broadcast_to(value, x.shape[:-1] + value.shape).copy()


def _constant_jacobians(jac: np.ndarray):
    """jacobians_fn of a system whose (m+1, d, d) Jacobians are constant."""
    return lambda x: _constant_field(jac, x)


def _bumps(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g1 (=1 inside radius 2, 0 outside 3) and g2 (=0 inside 1, 1 outside 2)."""
    return 1.0 - _smooth_step(r - 2.0), _smooth_step(r - 1.0)


def _bump_slopes(r: np.ndarray) -> tuple[np.ndarray, ...]:
    """g1, g2 and their radial derivatives g1' = -S'(r-2), g2' = S'(r-1)."""
    s2, ds2 = _smooth_step(r - 2.0, slope=True)
    g2, dg2 = _smooth_step(r - 1.0, slope=True)
    return 1.0 - s2, g2, -ds2, dg2


def _example21(d: int = 2, q1: float = 0.8, q2: float = 0.5, q3: float = 0.5,
               q4: float = 1.0,
               r_min: float = DEFAULT_R_MIN) -> CoefficientSystem:
    lo_q1 = 1.0 - d / (2.0 * (d + 1.0))
    if not q1 > lo_q1:
        raise ParameterConstraintError(
            f"example21 requires q1 > 1 - d/(2(d+1)) = {lo_q1:g}, got q1={q1}",
            "q1 > 1 - d/(2(d+1))")
    if not q1 < 1.0:
        raise ParameterConstraintError(
            f"example21 requires q1 < 1, got q1={q1}", "q1 < 1")
    if not q3 > 2.0 * (1.0 - q1):
        raise ParameterConstraintError(
            f"example21 requires q3 > 2(1-q1) = {2 * (1 - q1):g}, got q3={q3}",
            "q3 > 2(1-q1)")
    hi_q3 = d / (d + 1.0)
    if not q3 < hi_q3:
        raise ParameterConstraintError(
            f"example21 requires q3 < d/(d+1) = {hi_q3:g}, got q3={q3}",
            "q3 < d/(d+1)")
    if not q4 + 2.0 > 2.0 * q2:
        raise ParameterConstraintError(
            f"example21 requires q4 + 2 > 2*q2, got q4={q4}, q2={q2}",
            "q4 + 2 > 2*q2")
    if q3 <= 0 or q4 <= 0:
        raise ParameterConstraintError("example21 requires q3 > 0 and q4 > 0",
                                       "q3 > 0, q4 > 0")

    eye = np.eye(d)

    # X_0 = -c0(r) x with c0 = g1 (1 + r^-q3) + g2 r^q4, and
    # X_k = s(r) e_k with s = (1 + r^q1) g1 + 1{r>1} r^q2 g2; the indicator
    # keeps r^q2 off the unit ball, where g2 = 0 and q2 < 0 would make it
    # infinite at the origin
    def far_power(r, q):
        return np.power(r, q, out=np.zeros_like(r), where=r > 1.0)

    def fields(x):
        # radial factors times the rows of x^T, so that every product runs
        # along the point axis; the same operations, in place
        r = row_norm(x)
        g1, g2 = _bumps(r)
        xt = x.T
        # -(1 + r^{-q3}) g1 x = -g1 (x + r^{1-q3} x/r); finite at 0
        drift = np.divide(xt, r, out=np.zeros(xt.shape), where=r > 0)
        drift *= r ** (1.0 - q3)
        drift += xt
        drift *= g1
        np.negative(drift, out=drift)
        drift -= (g2 * r**q4) * xt
        s = (1.0 + r**q1) * g1 + far_power(r, q2) * g2
        sigma = np.empty(x.shape + (d,))
        for i in range(d):
            for j in range(d):
                np.multiply(s, eye[i, j], out=sigma[:, i, j])
        return np.ascontiguousarray(drift.T), sigma

    def jacobians(x):
        # DX_0 = -c0 I - (c0'/r) x x^T and DX_k = (s'/r) e_k x^T, one closed
        # form on the core, the bump annulus 1 < r < 3 and the far shell
        r = row_norm(x)
        if np.any(r < r_min):
            # DX_0 blows up like r^{-q3}: points inside the r_min ball are
            # evaluated on its sphere, the origin at r_min e_1
            rk = r[:, None]
            at_zero = rk == 0.0
            on_sphere = np.where(at_zero, r_min * eye[0],
                                 x * (r_min / np.where(at_zero, 1.0, rk)))
            x = np.where(rk < r_min, on_sphere, x)
            r = row_norm(x)
        g1, g2, dg1, dg2 = _bump_slopes(r)
        inv_r = 1.0 / r
        inv_r2 = inv_r * inv_r
        r_q1, r_q2, r_q3, r_q4 = r**q1, far_power(r, q2), r**-q3, r**q4
        c0 = g1 * (1.0 + r_q3) + g2 * r_q4
        dc0_r = (dg1 * (1.0 + r_q3) + dg2 * r_q4) * inv_r \
            + (q4 * g2 * r_q4 - q3 * g1 * r_q3) * inv_r2       # c0'/r
        ds_r = ((1.0 + r_q1) * dg1 + r_q2 * dg2) * inv_r \
            + (q1 * g1 * r_q1 + q2 * g2 * r_q2) * inv_r2       # s'/r
        # built as (m+1, d, d, n), so that each entry is one contiguous row
        # over the points, and returned as its (n, m+1, d, d) view
        out = np.zeros((d + 1, d, d) + r.shape)
        xt = x.T
        for i in range(d):
            np.multiply(-dc0_r * xt[i], xt, out=out[0, i])
            out[0, i, i] -= c0
            np.multiply(ds_r, xt, out=out[1 + i, i])
        return np.moveaxis(out, -1, 0)

    constants = AssumptionConstants(
        p1=max(2.0 * abs(q2), 0.5),
        p2=max(q2, q4 + 1.0, 0.5),
        p3=0.5 * (2.0 * (d + 1.0) + d / (1.0 - q1)),
        p4=0.5 * (d + 1.0 + d / q3),
        p5=max(q4, q2 - 1.0, 0.5),
        C1=1.0,
        C2=4.0 + 3.0**q1,
        C3=2.0 + q4 + abs(q2),
        R1=3.0,
        delta=1.0)
    constants.validate(d)
    return CoefficientSystem(
        name="example21", d=d, m=d, fields_fn=_batched(fields),
        jacobians_fn=_batched(jacobians), constants=constants,
        # values use their continuous limits X_0(0) = 0, X_k(0) = e_k
        r_min=r_min,
        params={"d": d, "q1": q1, "q2": q2, "q3": q3, "q4": q4,
                "r_min": r_min})


def _ornstein_uhlenbeck(theta: float = 1.0, sigma: float = 1.0,
                        d: int = 1) -> CoefficientSystem:
    if sigma <= 0 or theta <= 0:
        raise ParameterConstraintError(
            "ornstein_uhlenbeck requires theta > 0 and sigma > 0",
            "theta > 0, sigma > 0")
    eye = np.eye(d)
    jac = np.zeros((d + 1, d, d))
    jac[0] = -theta * eye

    def fields(x):
        return -theta * x, _constant_field(sigma * eye, x)

    constants = AssumptionConstants(
        p1=0.5, p2=1.0, p3=2 * (d + 1) + 2.0, p4=d + 2.0, p5=0.5,
        C1=sigma**2, C2=max(sigma, theta) + 1.0, C3=theta + 1.0, R1=1.0)
    return CoefficientSystem(
        name="ornstein_uhlenbeck", d=d, m=d, fields_fn=fields,
        jacobians_fn=_constant_jacobians(jac), constants=constants,
        params={"theta": theta, "sigma": sigma, "d": d})


def _geometric_bm(mu: float = 0.1, sigma: float = 0.2,
                  d: int = 1) -> CoefficientSystem:
    if sigma <= 0:
        raise ParameterConstraintError("geometric_bm requires sigma > 0",
                                       "sigma > 0")
    eye = np.eye(d)
    # X_k(x) = sigma x_k e_k: sigma is diagonal, DX_k = sigma e_k e_k^T
    jac = np.concatenate([mu * eye[None],
                          sigma * np.einsum("ki,kj->kij", eye, eye)])

    def fields(x):
        return mu * x, (sigma * x)[..., None, :] * eye

    # not elliptic at the origin; the checker will report (c1) failures there
    constants = AssumptionConstants(
        p1=0.5, p2=1.0, p3=2 * (d + 1) + 2.0, p4=d + 2.0, p5=0.5,
        C1=sigma**2, C2=max(abs(mu), sigma) + 1.0, C3=abs(mu) + sigma + 1.0,
        R1=1.0)
    return CoefficientSystem(
        name="geometric_bm", d=d, m=d, fields_fn=fields,
        jacobians_fn=_constant_jacobians(jac), constants=constants, params={"mu": mu, "sigma": sigma, "d": d})


def _constant(sigma: float = 1.0, d: int = 1,
              drift: tuple[float, ...] | None = None) -> CoefficientSystem:
    # the diffusion fields are the basis fields sigma e_k, so m = d
    eye = np.eye(d)
    b = np.zeros(d) if drift is None else np.asarray(drift, dtype=float)
    if b.shape != (d,):
        raise ParameterConstraintError(
            f"constant requires drift to be null or {d} numbers, one per "
            f"dimension, got drift={drift!r}", "len(drift) == d")

    def fields(x):
        return _constant_field(b, x), _constant_field(sigma * eye, x)

    constants = AssumptionConstants(
        p1=0.5, p2=0.5, p3=2 * (d + 1) + 2.0, p4=d + 2.0, p5=0.5,
        C1=sigma**2, C2=abs(sigma) + float(np.linalg.norm(b)) + 1.0, C3=1.0,
        R1=1.0)
    return CoefficientSystem(
        name="constant", d=d, m=d, fields_fn=fields,
        jacobians_fn=_constant_jacobians(np.zeros((d + 1, d, d))),
        constants=constants,
        params={"sigma": sigma, "d": d, "drift": tuple(float(v) for v in b)})


def _additive_noise(sigma: float = 1.0, d: int = 1) -> CoefficientSystem:
    system = _constant(sigma=sigma, d=d)
    return replace(system, name="additive_noise",
                   params={"sigma": sigma, "d": d})


_BUILTIN_FACTORIES = {
    "example21": _example21,
    "ornstein_uhlenbeck": _ornstein_uhlenbeck,
    "geometric_bm": _geometric_bm,
    "constant": _constant,
    "additive_noise": _additive_noise,
}
BUILTIN_NAMES = tuple(_BUILTIN_FACTORIES)


def _builtin_factory(name: str):
    if name not in BUILTIN_NAMES:
        raise ValueError(
            f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")
    return _BUILTIN_FACTORIES[name]


def builtin(name: str, **params) -> CoefficientSystem:
    """Construct a built-in coefficient system by name.

    example21 validates its exponent inequalities and raises
    ParameterConstraintError naming the violated one; constant raises it
    when its drift has not d entries.
    """
    return _builtin_factory(name)(**params)


def builtin_parameters(name: str) -> dict:
    """The keyword parameters that builtin(name, ...) accepts, with their
    defaults."""
    return {key: param.default for key, param in
            inspect.signature(_builtin_factory(name)).parameters.items()}
