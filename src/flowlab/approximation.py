"""Smoothing pipeline: spherical truncation, mollification, and the
eps-indexed family of smooth coefficient systems, plus L^p distance
diagnostics between systems. A truncation and a member are plain
CoefficientSystems that carry their radius and eps in params.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import (
    AssumptionConstants,
    CoefficientSystem,
    row_norm,
    stack_fields,
)
from .errors import RadiusTooSmallError
from .quadrature import (
    annulus_rule,
    ball_volume,
    tangent_basis,
    unit_ball_rule,
)

__all__ = [
    "Mollifier",
    "MollifiedFamily",
    "truncate",
    "radial_tangential_derivative_check",
    "mollifier",
    "mollified_family",
    "select_lambda0",
    "lp_distance",
    "LpDistance",
]


# ---------------------------------------------------------------------------
# spherical truncation

def truncate(base: CoefficientSystem, R: float) -> CoefficientSystem:
    """Freeze the fields of `base` along rays outside the sphere of radius R:
    the field at |x| > R is the base field at R x/|x|, and params["R"] = R.

    Requires R >= R1 + 1 so that the sphere lies in the region where the base
    Jacobians have the declared polynomial growth.
    """
    r1 = base.constants.R1
    if R < r1 + 1.0:
        raise RadiusTooSmallError(
            f"truncation radius {R:g} below admissible minimum R1+1 = {r1 + 1:g}")

    def _pull_in(x):
        """x itself inside the sphere, the ray projection outside; the
        factor R / max(|x|, R) is exactly 1 inside."""
        r = row_norm(x)
        inside = r <= R
        if np.all(inside):
            return x, None, r
        return x * (R / np.maximum(r, R))[..., None], inside, r

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
        # in the memory layout of jall whether or not other points of the
        # call lie outside: numpy's sum over a member's nodes follows the
        # layout, so a point's bits would depend on its neighbours
        out = np.empty_like(jall)
        np.copyto(out, outer)
        np.copyto(out, jall, where=inside[..., None, None, None])
        return out

    return CoefficientSystem(
        name=f"{base.name}_trunc{R:g}", d=base.d, m=base.m, fields_fn=fields,
        jacobians_fn=jacobians, constants=base.constants,
        r_min=base.r_min, params={**dict(base.params), "R": R})


def radial_tangential_derivative_check(
        base: CoefficientSystem, R: float,
        x: np.ndarray) -> tuple[float, float]:
    """Finite-difference check of the derivatives of truncate(base, R).

    Outside the truncation sphere the field is constant along rays and scales
    tangentially by R/|x|. Returns the largest finite-difference radial
    derivative norm and the largest deviation of the tangential derivative
    from (R/|x|) DX_k(pi_R x)(xi), over all fields k and tangent directions.

    Requires |x| > R + 10 h for the stencil step h = 1e-5: stencils
    straddling the truncation sphere are meaningless. base's Jacobians are
    read at R x/|x|, where truncate's may round onto the chain-rule branch.
    """
    ts = truncate(base, R)
    h = 1e-5
    x = np.asarray(x, dtype=float)
    r = float(row_norm(x))
    if r <= R + 10.0 * h:
        raise ValueError(f"probe point must satisfy |x| > R + 10h = "
                         f"{R + 10 * h:g}, got |x| = {r:g}")
    unit = x / r
    proj = R * unit
    tangents = tangent_basis(unit)
    # central differences along the ray (row 0) and the tangents, all
    # fields from one evaluation at the 2d stencil points
    dirs = np.concatenate([unit[None, :], tangents])        # (d, d)
    vals = stack_fields(*ts.fields(x + h * np.concatenate([dirs, -dirs])))
    fd = (vals[:len(dirs)] - vals[len(dirs):]) / (2 * h)   # (d, m+1, d)
    base._check_regular(proj)
    jac_proj = base.jacobians_stacked(proj)                 # (m+1, d, d)
    # DX_k(pi_R x) t for each tangent t as a batch of matrix-vector products
    expected = (R / r) * (jac_proj @ tangents[:, None, :, None])[..., 0]
    radial_norm = float(np.max(row_norm(fd[0])))
    tangential_error = float(np.max(row_norm(fd[1:] - expected),
                                    initial=0.0))
    return radial_norm, tangential_error


# ---------------------------------------------------------------------------
# mollifier

def _bump_kernel(u2: np.ndarray) -> np.ndarray:
    """exp(1/(|u|^2 - 1)) on |u| < 1, without the normalizing constant."""
    inside = u2 < 1.0
    return np.where(inside, np.exp(1.0 / np.where(inside, u2 - 1.0, -1.0)), 0.0)


# shifted points per fn call in Mollifier.convolve (see its docstring)
_CONV_BLOCK_POINTS = 16_384


@dataclass(frozen=True)
class Mollifier:
    """The compactly supported bump C exp(1/(|x|^2-1)) scaled to radius eps.

    norm_constant is computed with the unit ball rule (nodes, weights) used
    for convolutions, so the rule integrates the kernel to exactly 1 and
    mollifying a constant field reproduces it to round-off.
    """

    d: int
    eps: float
    norm_constant: float
    nodes: np.ndarray = field(repr=False)           # (q, d), unit ball
    weights: np.ndarray = field(repr=False)         # (q,)
    kernel_weights: np.ndarray = field(repr=False)  # weights*eta at unit nodes

    def kernel(self, y: np.ndarray) -> np.ndarray:
        """eta_eps(y) = eps^{-d} C exp(1/(|y/eps|^2 - 1)) on |y| < eps."""
        y = np.asarray(y, dtype=float)
        u2 = np.sum((y / self.eps) ** 2, axis=-1)
        return self.norm_constant * self.eps ** (-self.d) * _bump_kernel(u2)

    def mass(self) -> float:
        """Quadrature of eta_eps over its support; equals 1 by construction."""
        return float(np.sum(self.weights * self.eps**self.d
                            * self.kernel(self.nodes * self.eps)))

    def convolve(self, fn, x: np.ndarray):
        """(f * eta_eps)(x) = sum_q w_q f(x - eps y_q), batched over x (..., d).

        fn maps shifted points (n, q, d) to an array or a tuple of arrays,
        each with the node axis q right after the point axis n; every output
        is contracted over q and shaped x.shape[:-1] + its trailing axes.
        Points go through fn in blocks of at most max(q, _CONV_BLOCK_POINTS)
        shifted points, which bounds the work arrays. Each point's q shifts
        stay in one block, so the block size does not change a bit. 16_384
        keeps a block's largest array, the (m+1) d^2 Jacobian output
        (1.5 MiB at d = 2), inside a 4 MiB L2 cache: on 2 vCPU the example21
        Jacobians of 65,536 shifted points took 13.8 ms in one block, 6.2 ms
        in blocks of 32_768 and 5.9 ms in blocks of 16_384, so the knee lies
        between 32k and 64k; a member's fields plus Jacobians of 32 points
        took 11.7 ms at 16_384, 12.7 ms at 32_768 and 22.4 ms at 100_000.
        Those timings come from a warm loop. In a process left at glibc's
        dynamic malloc thresholds, each block's freed temporaries go back
        to the kernel and the next block faults them in again: a 4-member
        example21 step on 32 points faulted about 14.5k pages and took
        70-74 ms. The CLI fixes the thresholds (`cli._keep_freed_heap`);
        then the step faults a few dozen pages, and 16_384 stays the
        fastest block: at best 33.7 ms over 120 steps, against 36.0 ms at
        8_192 and 38.9 ms at 4_096 (2 vCPU).
        """
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, x.shape[-1])
        offsets = self.eps * self.nodes                     # (q, d)
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
    nodes, weights = unit_ball_rule(d, n_radial, n_angular)
    eta = _bump_kernel(np.sum(nodes**2, axis=-1))
    norm = 1.0 / float(np.sum(weights * eta))
    return Mollifier(d=d, eps=eps, norm_constant=norm, nodes=nodes,
                     weights=weights, kernel_weights=weights * eta * norm)


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
    Jacobians are the same convolution of the truncated Jacobians (chain
    rule through the ray projection outside the sphere): D(X * eta) =
    (DX) * eta for locally Lipschitz X. That is the exact derivative of the
    quadrature field wherever no shifted node lies on the sphere or inside
    the base's r_min ball, whose Jacobians the base takes on that ball's
    sphere, so there is no finite difference, also where the mollifier
    straddles the truncation kink.
    """

    base: CoefficientSystem
    lambda0: float
    eps0: float
    n_radial: int | None = None
    n_angular: int | None = None

    def truncation_radius(self, eps: float) -> float:
        return max(eps ** (-self.lambda0), self.base.constants.R1 + 1.0)

    def member(self, eps: float) -> CoefficientSystem:
        """The member of radius eps, with eps, lambda0 and its truncation
        radius in params; built on every call, in about half a millisecond
        for example21, as a pure function of the family and eps."""
        if not 0.0 < eps < self.eps0:
            raise ValueError(
                f"eps must lie in (0, eps0) = (0, {self.eps0:g}), got {eps:g}")
        base = self.base
        radius = self.truncation_radius(eps)
        ts = truncate(base, radius)
        mol = mollifier(base.d, eps, self.n_radial, self.n_angular)
        return CoefficientSystem(
            name=f"{base.name}_eps{eps:g}", d=base.d, m=base.m,
            fields_fn=lambda x: mol.convolve(ts.fields, x),
            jacobians_fn=lambda x: mol.convolve(ts.jacobians_stacked, x),
            constants=base.constants,
            params={**dict(base.params), "eps": eps,
                    "lambda0": self.lambda0, "truncation_radius": radius})


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


# ---------------------------------------------------------------------------
# L^p distances

@dataclass(frozen=True)
class LpDistance:
    """Quadrature of |a_k - b_k|^p over a centered ball, kink ball excised."""

    value: float
    excised_volume: float


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
        r_lo = max(a.r_min, b.r_min)
    nodes, weights = annulus_rule(a.d, r_lo, R, n_radial, n_angular)
    if mode == "values":
        gap = a.value(k, nodes) - b.value(k, nodes)
        integrand = np.sum(gap * gap, axis=-1) ** (p / 2.0)
    else:
        gap = a.jacobian(k, nodes) - b.jacobian(k, nodes)
        integrand = np.sum(gap * gap, axis=(-2, -1)) ** (p / 2.0)
    return LpDistance(value=float(np.sum(weights * integrand)),
                      excised_volume=ball_volume(a.d, r_lo))
