"""Smoothing pipeline: spherical truncation, mollification, and the
eps-indexed family of smooth coefficient systems, plus L^p distance
diagnostics between systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import (
    AssumptionConstants,
    CoefficientSystem,
    OriginPolicy,
    stack_fields,
)
from .errors import RadiusTooSmallError
from .quadrature import (
    BallRule,
    annulus_rule,
    ball_volume,
    tangent_basis,
    unit_ball_rule,
)

__all__ = [
    "TruncatedSystem",
    "Mollifier",
    "MollifiedFamily",
    "truncate",
    "radial_tangential_derivative_check",
    "mollifier",
    "mollify_value",
    "mollified_family",
    "select_lambda0",
    "lp_distance",
    "LpDistance",
]


# ---------------------------------------------------------------------------
# spherical truncation

def _project_to_sphere(x: np.ndarray, radius: float) -> np.ndarray:
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    safe = np.where(r == 0.0, 1.0, r)
    return x * (radius / safe)


@dataclass(frozen=True, kw_only=True)
class TruncatedSystem(CoefficientSystem):
    """A coefficient system frozen at its sphere values outside radius R:
    the field at x with |x| > R equals the base field at R x/|x|."""

    base: CoefficientSystem
    R: float


def truncate(base: CoefficientSystem, R: float) -> TruncatedSystem:
    """Freeze the fields of `base` along rays outside the sphere of radius R.

    Requires R >= R1 + 1 so that the sphere lies in the region where the base
    Jacobians have the declared polynomial growth.
    """
    r1 = base.constants.R1
    if R < r1 + 1.0:
        raise RadiusTooSmallError(
            f"truncation radius {R:g} below admissible minimum R1+1 = {r1 + 1:g}")

    def _pull_in(x):
        """x itself inside the sphere, the ray projection outside."""
        r = np.linalg.norm(x, axis=-1)
        inside = r <= R
        if np.all(inside):
            return x, None, r
        pts = np.where(inside[..., None], x, _project_to_sphere(x, R))
        return pts, inside, r

    def fields(x):
        x = np.asarray(x, dtype=float)
        pts, _, _ = _pull_in(x)
        return base.fields(pts)

    def _projection_grad(x, r):
        # D[R x/|x|] = (R/|x|)(I - unit unit^T)
        safe_r = np.where(r == 0.0, 1.0, r)
        unit = x / safe_r[..., None]
        eye = np.eye(x.shape[-1])
        return (R / safe_r)[..., None, None] * (
            eye - np.einsum("...i,...j->...ij", unit, unit))

    def jacobians(x):
        x = np.asarray(x, dtype=float)
        pts, inside, r = _pull_in(x)
        jall = base.jacobians_stacked(pts)
        if inside is None:
            return jall
        outer = np.einsum("...kij,...jl->...kil", jall,
                          _projection_grad(x, r))
        return np.where(inside[..., None, None, None], jall, outer)

    return TruncatedSystem(
        name=f"{base.name}_trunc{R:g}", d=base.d, m=base.m, fields_fn=fields,
        jacobians_fn=jacobians, constants=base.constants,
        origin_policy=base.origin_policy,
        params={**dict(base.params), "R": R}, base=base, R=R)


def radial_tangential_derivative_check(
        ts: TruncatedSystem, x: np.ndarray,
        h: float = 1e-5) -> tuple[float, float]:
    """Finite-difference check of the truncated-field derivative structure.

    Outside the truncation sphere the field is constant along rays and scales
    tangentially by R/|x|. Returns the largest finite-difference radial
    derivative norm and the largest deviation of the tangential derivative
    from (R/|x|) DX_k(pi_R x)(xi), over all fields k and tangent directions.

    Requires |x| > R + 10 h: stencils straddling the truncation sphere are
    meaningless.
    """
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r <= ts.R + 10.0 * h:
        raise ValueError(f"probe point must satisfy |x| > R + 10h = "
                         f"{ts.R + 10 * h:g}, got |x| = {r:g}")
    unit = x / r
    proj = ts.R * unit
    tangents = tangent_basis(unit)
    # central differences along the ray (row 0) and the tangents, all
    # fields from one evaluation at the 2d stencil points
    dirs = np.concatenate([unit[None, :], tangents])        # (d, d)
    vals = stack_fields(*ts.fields(x + h * np.concatenate([dirs, -dirs])))
    fd = (vals[:len(dirs)] - vals[len(dirs):]) / (2 * h)   # (d, m+1, d)
    ts.base._check_regular(proj)
    jac_proj = ts.base.jacobians_stacked(proj)              # (m+1, d, d)
    # DX_k(pi_R x) t for each tangent t as a batch of matrix-vector products
    expected = (ts.R / r) * (jac_proj @ tangents[:, None, :, None])[..., 0]
    radial_norm = float(np.max(np.linalg.norm(fd[0], axis=-1)))
    tangential_error = float(np.max(
        np.linalg.norm(fd[1:] - expected, axis=-1), initial=0.0))
    return radial_norm, tangential_error


# ---------------------------------------------------------------------------
# mollifier

def _bump_kernel(u2: np.ndarray) -> np.ndarray:
    """exp(1/(|u|^2 - 1)) on |u| < 1, without the normalizing constant."""
    inside = u2 < 1.0
    return np.where(inside, np.exp(1.0 / np.where(inside, u2 - 1.0, -1.0)), 0.0)


_CONV_BLOCK_POINTS = 100_000


@dataclass(frozen=True)
class Mollifier:
    """The compactly supported bump C exp(1/(|x|^2-1)) scaled to radius eps.

    norm_constant is computed with the same ball rule used for convolutions,
    so the rule integrates the kernel to exactly 1 and mollifying a constant
    field reproduces it to round-off.
    """

    d: int
    eps: float
    norm_constant: float
    quadrature: BallRule
    kernel_weights: np.ndarray = field(repr=False)  # weights*eta at unit nodes

    def kernel(self, y: np.ndarray) -> np.ndarray:
        """eta_eps(y) = eps^{-d} C exp(1/(|y/eps|^2 - 1)) on |y| < eps."""
        y = np.asarray(y, dtype=float)
        u2 = np.sum((y / self.eps) ** 2, axis=-1)
        return self.norm_constant * self.eps ** (-self.d) * _bump_kernel(u2)

    def mass(self) -> float:
        """Quadrature of eta_eps over its support; equals 1 by construction."""
        nodes, weights = self.quadrature.scaled(self.eps)
        return float(np.sum(weights * self.kernel(nodes)))

    def convolve(self, fn, x: np.ndarray):
        """(f * eta_eps)(x) = sum_q w_q f(x - eps y_q), batched over x (..., d).

        fn maps shifted points (n, q, d) to an array or a tuple of arrays,
        each with the node axis q right after the point axis n; every output
        is contracted over q and shaped x.shape[:-1] + its trailing axes.
        Points go through fn in blocks of at most _CONV_BLOCK_POINTS shifted
        points, which bounds the work arrays.
        """
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, x.shape[-1])
        offsets = self.eps * self.quadrature.nodes          # (q, d)
        w = self.kernel_weights

        def block(pts):
            vals = fn(pts[:, None, :] - offsets)
            if isinstance(vals, tuple):
                return tuple(np.einsum("q,nq...->n...", w, v) for v in vals)
            return np.einsum("q,nq...->n...", w, vals)

        size = max(1, _CONV_BLOCK_POINTS // len(w))
        parts = [block(flat[a:a + size])
                 for a in range(0, max(len(flat), 1), size)]

        def join(cols):
            out = np.concatenate(cols)
            return out.reshape(x.shape[:-1] + out.shape[1:])

        if isinstance(parts[0], tuple):
            return tuple(join(cols) for cols in zip(*parts))
        return join(parts)


def mollifier(d: int, eps: float, n_radial: int | None = None,
              n_angular: int | None = None) -> Mollifier:
    """Build a mollifier of radius eps with the dimension's default ball rule."""
    if eps <= 0:
        raise ValueError("mollifier radius eps must be positive")
    rule = unit_ball_rule(d, n_radial, n_angular)
    eta = _bump_kernel(np.sum(rule.nodes**2, axis=-1))
    norm = 1.0 / float(np.sum(rule.weights * eta))
    return Mollifier(d=d, eps=eps, norm_constant=norm, quadrature=rule,
                     kernel_weights=rule.weights * eta * norm)


def mollify_value(ts: CoefficientSystem, mol: Mollifier, k: int,
                  x: np.ndarray, with_error: bool = False):
    """Ball-quadrature approximation of (X_k * eta_eps)(x).

    With with_error=True also returns a self-estimate: the largest deviation
    from a rule with roughly half the nodes per factor.
    """
    val = mol.convolve(lambda p: ts.value(k, p), x)
    if not with_error:
        return val
    coarse = _coarser(mol)
    val_c = coarse.convolve(lambda p: ts.value(k, p), x)
    return val, float(np.max(np.abs(val - val_c)))


def _coarser(mol: Mollifier) -> Mollifier:
    half = {1: (32, None), 2: (16, 32), 3: (12, None)}[mol.d]
    return mollifier(mol.d, mol.eps, *half)


# ---------------------------------------------------------------------------
# the eps-family

def select_lambda0(constants: AssumptionConstants, d: int) -> tuple[float, float]:
    """Truncation-rate exponent and admissible mollification ceiling.

    lambda0 = 0.5 min(iota/(p1+p2), 1/(p1+p2+p5)) with iota = 1 - d/p3, which
    enforces lambda0 p1 < iota - lambda0 p2 and lambda0 p1 < 1 - lambda0(p2+p5)
    with strict slack. eps0 = min((R1+2)^{-1/lambda0}, delta/4).
    """
    c = constants
    iota = 1.0 - d / c.p3
    if iota <= 0:
        raise ValueError("p3 must exceed d for a positive Sobolev exponent")
    lam = 0.5 * min(iota / (c.p1 + c.p2), 1.0 / (c.p1 + c.p2 + c.p5))
    eps0 = min((c.R1 + 2.0) ** (-1.0 / lam), c.delta / 4.0)
    return lam, eps0


@dataclass
class MollifiedFamily:
    """eps-indexed family of smooth systems: truncate at radius eps^{-lambda0}
    (never below R1+1), then convolve with the radius-eps mollifier.

    A member's fields are Mollifier.convolve of the truncated fields, and its
    Jacobians are the same convolution of the truncated Jacobians (base
    Jacobians evaluated at origin_policy.clamp, chain rule through the ray
    projection outside the sphere): D(X * eta) = (DX) * eta for locally
    Lipschitz X. That is the exact derivative of the quadrature field
    wherever no shifted node lies on the sphere, so there is no finite
    difference, also where the mollifier straddles the truncation kink.

    Members are cached per eps; concurrent builders may race benignly since
    members are pure functions of the inputs.
    """

    base: CoefficientSystem
    lambda0: float
    eps0: float
    n_radial: int | None = None
    n_angular: int | None = None
    _cache: dict[float, CoefficientSystem] = field(default_factory=dict,
                                                   repr=False)

    def truncation_radius(self, eps: float) -> float:
        return max(eps ** (-self.lambda0), self.base.constants.R1 + 1.0)

    def member(self, eps: float) -> CoefficientSystem:
        if not 0.0 < eps < self.eps0:
            raise ValueError(
                f"eps must lie in (0, eps0) = (0, {self.eps0:g}), got {eps:g}")
        cached = self._cache.get(eps)
        if cached is None:
            cached = _build_member(self, eps)
            self._cache[eps] = cached
        return cached


def mollified_family(base: CoefficientSystem, lambda0: float | None = None,
                     eps0: float | None = None,
                     n_radial: int | None = None,
                     n_angular: int | None = None) -> MollifiedFamily:
    """Family with exponent/ceiling defaulting to select_lambda0 of the base.

    A caller-supplied lambda0 must still satisfy the admissibility
    inequalities lambda0 p1 < min(iota - lambda0 p2, 1 - lambda0 (p2 + p5)).
    """
    lam_default, eps_default = select_lambda0(base.constants, base.d)
    lam = lam_default if lambda0 is None else lambda0
    if lambda0 is not None:
        c = base.constants
        iota = 1.0 - base.d / c.p3
        if not (lam * c.p1 < iota - lam * c.p2
                and lam * c.p1 < 1.0 - lam * (c.p2 + c.p5)):
            raise ValueError(
                f"lambda0={lam:g} violates the admissibility inequalities for "
                f"these growth constants (formula default: {lam_default:g})")
    return MollifiedFamily(base=base, lambda0=lam,
                           eps0=eps_default if eps0 is None else eps0,
                           n_radial=n_radial, n_angular=n_angular)


def _build_member(fam: MollifiedFamily, eps: float) -> CoefficientSystem:
    base = fam.base
    radius = fam.truncation_radius(eps)
    ts = truncate(base, radius)
    mol = mollifier(base.d, eps, fam.n_radial, fam.n_angular)
    return CoefficientSystem(
        name=f"{base.name}_eps{eps:g}", d=base.d, m=base.m,
        fields_fn=lambda x: mol.convolve(ts.fields, x),
        jacobians_fn=lambda x: mol.convolve(
            lambda p: ts.jacobians_stacked(ts.origin_policy.clamp(p)), x),
        constants=base.constants, origin_policy=OriginPolicy(),
        params={**dict(base.params), "eps": eps, "lambda0": fam.lambda0,
                "truncation_radius": radius})


# ---------------------------------------------------------------------------
# L^p distances

@dataclass(frozen=True)
class LpDistance:
    """Quadrature of |a_k - b_k|^p over a centered ball, kink ball excised."""

    value: float
    p: float
    radius: float
    excised_radius: float
    excised_volume: float
    mode: str


def lp_distance(a: CoefficientSystem, b: CoefficientSystem, k: int,
                R: float, p: float, mode: str = "values",
                n_radial: int = 64, n_angular: int = 128) -> LpDistance:
    """Integral of the pointwise field (or Jacobian, Frobenius) gap to power p.

    In jacobians mode the ball around the origin where either system declares
    its Jacobian singular is excised; the excised volume is reported.
    """
    if mode not in ("values", "jacobians"):
        raise ValueError("mode must be 'values' or 'jacobians'")
    r_lo = 0.0
    if mode == "jacobians":
        r_lo = max(a.origin_policy.r_min, b.origin_policy.r_min)
    nodes, weights = annulus_rule(a.d, r_lo, R, n_radial, n_angular)
    if mode == "values":
        gap = a.value(k, nodes) - b.value(k, nodes)
        integrand = np.sum(gap * gap, axis=-1) ** (p / 2.0)
    else:
        gap = a.jacobian(k, nodes) - b.jacobian(k, nodes)
        integrand = np.sum(gap * gap, axis=(-2, -1)) ** (p / 2.0)
    return LpDistance(value=float(np.sum(weights * integrand)), p=p, radius=R,
                      excised_radius=r_lo,
                      excised_volume=ball_volume(a.d, r_lo), mode=mode)
