"""example21 commutes with signed permutations, in d = 2 and d = 3.

example21 is radial: X_0(x) = -c0(r) x and X_k(x) = s(r) e_k. For a signed
permutation Q, written (perm, sign) with (Qx)_i = sign_i x_{perm_i}, that
gives X_0(Qx) = Q X_0(x), sigma(Qx) = Q sigma(x) Q^T, and for the
Jacobians DX_0(Qx) = Q DX_0(x) Q^T and, over (field k, row i, column j),
DX_k(Qx)_ij = sign_k sign_i sign_j DX_{perm_k}(x)_{perm_i perm_j}: the
diffusion fields are permuted with their signs. So the Euler map driven by
the noise Q dW satisfies x(Qx0) = Q x(x0) and v(Qx0, Qv0) = Q v(x0, v0).

Most of these hold exactly in floating point: a signed permutation only
moves entries and flips signs, and the one reordering it causes is the sum
of the squares in |x| (coefficients.row_norm adds them in column order).
Entries are compared with ==, so a 0.0 that comes out as -0.0 still
matches. What is exact depends on that order:
- in d = 2 every signed permutation is exact, since a + b = b + a;
- in d = 3 the sign flips are exact, and so is the swap of axes 0 and 1,
  since (a + b) + c = (b + a) + c; only K_p's value is not, because
  eigvalsh reduces the permuted matrix with other roundings (up to a few
  hundred ulp; its matrix is still compared with ==);
- a 3-cycle gives (b + c) + a, so |x| can move in its last bit, and that
  grows along the paths (measured: 6e-15 on x, 2e-14 on v, relative to the
  largest entry). It is compared within 1e-12, relative to each entry plus
  1e-12 of the largest one, a bound that still fails a wrong index.

Every start lies outside the r_min ball: inside it the Jacobians are taken
on its sphere, and at the origin at r_min e_1, a point that the swap and
the rotation move, so the origin is not equivariant. Paths that later
step into the ball are (the projection onto the sphere commutes with Q),
and the second parameter set has a ball large enough that some do.
"""

from functools import cache

import numpy as np
import pytest

from flowlab import (
    IntegratorConfig,
    builtin,
    kp_max,
    mollified_family,
    truncate,
)
from flowlab.coefficients import row_norm
from flowlab.engine import BatchEuler

# the tolerances of the entries and of K_p's value: 0 compares with ==
EXACT = (0.0, 0.0)
EXACT_BUT_EIGENVALUE = (0.0, 1e-12)
CLOSE = (1e-12, 1e-12)

# name: ((perm, sign) with (Qx)_i = sign_i x_{perm_i}, its tolerances)
SIGNED_PERMUTATIONS = {
    "d2-swap": (([1, 0], [1.0, 1.0]), EXACT),
    "d2-sign_flip": (([0, 1], [-1.0, 1.0]), EXACT),
    "d2-rotation_90": (([1, 0], [-1.0, 1.0]), EXACT),
    "d3-sign_flip": (([0, 1, 2], [-1.0, 1.0, 1.0]), EXACT),
    "d3-sign_flip_all": (([0, 1, 2], [-1.0, -1.0, -1.0]), EXACT),
    "d3-swap": (([1, 0, 2], [1.0, 1.0, 1.0]), EXACT_BUT_EIGENVALUE),
    "d3-cycle": (([1, 2, 0], [1.0, 1.0, 1.0]), CLOSE),
}

# the defaults, and a set with q2 < 0 and an r_min ball that paths enter
PARAMS = {
    "default": {},
    "wide_ball": {"q1": 0.9, "q2": -0.5, "q3": 0.3, "q4": 2.0,
                  "r_min": 0.05},
}

N_PATHS, N_STEPS, H = 512, 500, 2e-3

# truncate(s, R_TRUNCATE) and the member of radius EPS on N_SMOOTH starts in
# d = 2; R_TRUNCATE, also the member's truncation radius, lies in the shell,
# so about a fifth of the starts are projected onto its sphere. A member
# sums its convolution nodes in their own order, which Q does not keep, so
# it commutes within MEMBER_TOL (measured: 3.4e-16 of the largest entry on
# the fields, 2.2e-16 on the Jacobians)
PLANAR = sorted(name for name in SIGNED_PERMUTATIONS if name.startswith("d2"))
R_TRUNCATE, EPS, N_SMOOTH = 4.0, 0.1, 120
MEMBER_TOL = 1e-14


def signed_permutation(name):
    """(Q as (perm, sign), the entry tolerance, the K_p value tolerance)."""
    (perm, sign), (tol, kp_tol) = SIGNED_PERMUTATIONS[name]
    return (np.array(perm), np.array(sign)), tol, kp_tol


def assert_close(got, want, tol):
    """got == want entry for entry, or within tol of each entry plus tol of
    the largest one."""
    if tol == 0.0:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=tol,
                                   atol=tol * np.max(np.abs(want)))


def act(q, x):
    """Q x over the last axis."""
    perm, sign = q
    return x[..., perm] * sign


def act_matrix(q, a):
    """Q a Q^T over the last two axes."""
    perm, sign = q
    return a[..., perm, :][..., :, perm] * np.outer(sign, sign)


def act_jacobians(q, jall):
    """The (n, m+1, d, d) Jacobians at Qx, from those at x."""
    perm, sign = q
    diffusion = jall[:, 1:][:, perm][:, :, perm][:, :, :, perm] \
        * np.einsum("k,i,j->kij", sign, sign, sign)
    return np.concatenate([act_matrix(q, jall[:, :1]), diffusion], axis=1)


def starts(r_min, d, n=N_PATHS, seed=0):
    """n points, a third each in the core (r < 1, outside 2 r_min), the bump
    annulus 1 < r < 3 and the shell 3 < r < 5, in uniform directions."""
    rng = np.random.default_rng(seed)
    lo = np.array([2.0 * r_min, 1.0, 3.0])
    hi = np.array([1.0, 3.0, 5.0])
    region = np.arange(n) % 3
    r = rng.uniform(lo[region], hi[region])
    u = rng.standard_normal((n, d))
    return r[:, None] * u / row_norm(u)[:, None]


@cache
def system(params, d):
    return builtin("example21", d=d, **PARAMS[params])


def system_of(params, name):
    """The system in the dimension of the signed permutation name."""
    return system(params, len(SIGNED_PERMUTATIONS[name][0][0]))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("params", sorted(PARAMS))
def test_starts_cover_the_three_regions(params, d):
    r = row_norm(starts(system(params, d).r_min, d))
    assert np.all(r >= 2.0 * system(params, d).r_min)
    for lo, hi in ((0.0, 1.0), (1.0, 3.0), (3.0, np.inf)):
        assert np.sum((r > lo) & (r < hi)) > N_PATHS // 4


def assert_commutes(s, q, tol, x):
    """The fields and Jacobians of s at Q x are those at x, moved by Q."""
    drift, sigma = s.fields(x)
    drift_q, sigma_q = s.fields(act(q, x))
    assert_close(drift_q, act(q, drift), tol)
    assert_close(sigma_q, act_matrix(q, sigma), tol)
    assert_close(s.jacobians_stacked(act(q, x)),
                 act_jacobians(q, s.jacobians_stacked(x)), tol)


@pytest.mark.parametrize("name", sorted(SIGNED_PERMUTATIONS))
@pytest.mark.parametrize("params", sorted(PARAMS))
def test_fields_and_jacobians_commute(params, name):
    s = system_of(params, name)
    q, tol, _ = signed_permutation(name)
    assert_commutes(s, q, tol, starts(s.r_min, s.d))


@pytest.mark.parametrize("name", PLANAR)
@pytest.mark.parametrize("params", sorted(PARAMS))
def test_truncation_commutes(params, name):
    s = system(params, 2)
    q, tol, _ = signed_permutation(name)
    x = starts(s.r_min, 2, N_SMOOTH)
    assert np.sum(row_norm(x) > R_TRUNCATE) > N_SMOOTH // 10
    assert_commutes(truncate(s, R_TRUNCATE), q, tol, x)


@pytest.mark.parametrize("name", PLANAR)
@pytest.mark.parametrize("params", sorted(PARAMS))
def test_member_commutes(params, name):
    s = system(params, 2)
    q, _, _ = signed_permutation(name)
    fam = mollified_family(s, eps0=0.25, n_radial=6, n_angular=8)
    assert fam.truncation_radius(EPS) == R_TRUNCATE
    assert_commutes(fam.member(EPS), q, MEMBER_TOL,
                    starts(s.r_min, 2, N_SMOOTH))


@pytest.mark.parametrize("name", sorted(SIGNED_PERMUTATIONS))
@pytest.mark.parametrize("p", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("params", sorted(PARAMS))
def test_kp_is_invariant(params, name, p):
    s = system_of(params, name)
    q, tol, kp_tol = signed_permutation(name)
    x = starts(s.r_min, s.d)
    rep, rep_q = kp_max(s, x, p), kp_max(s, act(q, x), p)
    assert_close(rep_q.matrix, act_matrix(q, rep.matrix), tol)
    assert_close(rep_q.kp, rep.kp, kp_tol)


def run_euler(s, x0, v0, dws):
    cfg = IntegratorConfig(h=H, T=N_STEPS * H)
    return BatchEuler(s, x0, v0, dws, cfg).run()


@cache
def base_run(params, d):
    s = system(params, d)
    rng = np.random.default_rng(1)
    x0 = starts(s.r_min, d)
    v0 = rng.standard_normal((N_PATHS, d))
    dws = rng.standard_normal((N_PATHS, N_STEPS, d)) * np.sqrt(H)
    return x0, v0, dws, run_euler(s, x0, v0, dws)


@pytest.fixture(scope="module", autouse=True)
def drop_cached_runs():
    # the cached runs hold every path's noise; free them with the module
    yield
    base_run.cache_clear()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("params", sorted(PARAMS))
def test_wide_ball_paths_are_clamped(params, d):
    # the harness reaches the clamp where the ball is large enough
    clamped = base_run(params, d)[3].clamped
    assert (clamped.sum() > 0) == (system(params, d).r_min >= 0.05)


@pytest.mark.parametrize("name", sorted(SIGNED_PERMUTATIONS))
@pytest.mark.parametrize("params", sorted(PARAMS))
def test_euler_map_commutes(params, name):
    s = system_of(params, name)
    q, tol, _ = signed_permutation(name)
    x0, v0, dws, drv = base_run(params, s.d)
    drv_q = run_euler(s, act(q, x0), act(q, v0), act(q, dws))
    assert_close(drv_q.x, act(q, drv.x), tol)
    assert_close(drv_q.v, act(q, drv.v), tol)
    np.testing.assert_array_equal(drv_q.clamped, drv.clamped)
    np.testing.assert_array_equal(drv_q.exploded, drv.exploded)
    np.testing.assert_array_equal(drv_q.failed, drv.failed)
