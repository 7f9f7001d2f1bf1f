"""Quadrature rules on balls and spheres, plus small geometry helpers.

Every sampled point set is built here: spherical products of radii and an
angular set (equal-weight angles in 2d, a degree-11 50-point sphere set in
3d), and the uniform grid on a box. Rules return (nodes, weights).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import require

__all__ = [
    "spherical_product",
    "box_grid",
    "unit_ball_rule",
    "annulus_rule",
    "ball_volume",
    "sphere_points",
    "midpoint_ball_rule",
    "tangent_basis",
]


def _gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _lebedev50() -> tuple[np.ndarray, np.ndarray]:
    """Degree-11 sphere rule with 50 points; weights sum to 1."""
    pts, wts = [], []
    a1 = 4.0 / 315.0
    for i in range(3):
        for s in (1.0, -1.0):
            p = np.zeros(3)
            p[i] = s
            pts.append(p)
            wts.append(a1)
    a2 = 64.0 / 2835.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for si, sj in itertools.product((1.0, -1.0), repeat=2):
            p = np.zeros(3)
            p[i] = si / np.sqrt(2.0)
            p[j] = sj / np.sqrt(2.0)
            pts.append(p)
            wts.append(a2)
    a3 = 27.0 / 1280.0
    for signs in itertools.product((1.0, -1.0), repeat=3):
        pts.append(np.array(signs) / np.sqrt(3.0))
        wts.append(a3)
    a4 = 14641.0 / 725760.0
    low, high = 1.0 / np.sqrt(11.0), 3.0 / np.sqrt(11.0)
    for pos in range(3):
        rest = [i for i in range(3) if i != pos]
        for signs in itertools.product((1.0, -1.0), repeat=3):
            p = np.empty(3)
            p[pos] = signs[0] * high
            p[rest[0]] = signs[1] * low
            p[rest[1]] = signs[2] * low
            pts.append(p)
            wts.append(a4)
    return np.asarray(pts), np.asarray(wts)


def sphere_points(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-ish weight directions on S^{d-1}; weights sum to the sphere area.

    d=1 gives {+1,-1}; d=2 equally spaced angles; d=3 the 50-point set
    (n is ignored there).
    """
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 2:
        angles = 2.0 * np.pi * np.arange(n) / n
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return dirs, np.full(n, 2.0 * np.pi / n)
    if d == 3:
        pts, wts = _lebedev50()
        return pts, 4.0 * np.pi * wts
    raise ValueError(f"sphere rules implemented for d <= 3, got d={d}")


def spherical_product(r: np.ndarray, wr: np.ndarray | float, d: int,
                      n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes r_i u_j, radius-major, and weights wr_i r_i^(d-1) w_j for the
    directions u_j and weights w_j of sphere_points(d, n_angular)."""
    dirs, wd = sphere_points(d, n_angular)
    nodes = r[:, None, None] * dirs[None, :, :]
    weights = (wr * r ** (d - 1))[:, None] * wd[None, :]
    return nodes.reshape(-1, d), weights.reshape(-1)


def box_grid(d: int, box: float, n_points: int) -> tuple[np.ndarray, float]:
    """The n_points^d nodes of the uniform grid on [-box, box]^d, first
    coordinate slowest, and the grid spacing; n_points an integer >= 2."""
    require("box grid n_points", n_points, least=2)
    axis = np.linspace(-box, box, n_points)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.reshape(-1) for g in mesh], axis=-1), axis[1] - axis[0]


def unit_ball_rule(d: int, n_radial: int | None = None,
                   n_angular: int | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Product quadrature (nodes, weights) for the unit ball.

    Defaults: d=1 uses 64-point Gauss-Legendre on [-1, 1]; d=2 uses 32 radial
    x 64 angular nodes; d=3 uses 24 radial nodes times the 50-point sphere set.
    """
    if d == 1:
        n_radial = 64 if n_radial is None else n_radial
        x, w = _gauss_legendre(n_radial, -1.0, 1.0)
        return x[:, None], w
    if d in (2, 3):
        if n_radial is None:
            n_radial = 32 if d == 2 else 24
        n_angular = 64 if n_angular is None else n_angular
        return annulus_rule(d, 0.0, 1.0, n_radial, n_angular)
    raise ValueError(f"ball rules implemented for d <= 3, got d={d}")


def annulus_rule(d: int, r_inner: float, r_outer: float, n_radial: int,
                 n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Spherical-product rule over {r_inner <= |x| <= r_outer}."""
    if not 0.0 <= r_inner < r_outer:
        raise ValueError("need 0 <= r_inner < r_outer")
    return spherical_product(*_gauss_legendre(n_radial, r_inner, r_outer), d,
                             n_angular)


def ball_volume(d: int, radius: float) -> float:
    """Volume of the ball of the given radius in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * radius**d


def midpoint_ball_rule(d: int, radius: float, n_radial: int,
                       n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Radial-midpoint rule over the ball; refinement drives nodes toward 0.

    Used for integrability diagnostics where the integrand may blow up at the
    origin: doubling n_radial halves the distance of the innermost node.
    """
    step = radius / n_radial
    r = (np.arange(n_radial) + 0.5) * step
    return spherical_product(r, step, d, n_angular)


def tangent_basis(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to the unit vector u.

    Returns a (d-1, d) array; rows are tangent directions. Uses the
    Householder reflection mapping e_1 to u, whose remaining columns span
    the tangent space.
    """
    u = np.asarray(u, dtype=float)
    d = u.shape[0]
    e1 = np.zeros(d)
    e1[0] = 1.0
    w = e1 - u
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(d)[1:]
    w /= nw
    hh = np.eye(d) - 2.0 * np.outer(w, w)
    return hh[:, 1:].T
