"""example21 in d = 2 commutes with signed permutations, bit for bit.

example21 is radial: X_0(x) = -c0(r) x and X_k(x) = s(r) e_k. For a signed
permutation Q, written (perm, sign) with (Qx)_i = sign_i x_{perm_i}, that
gives X_0(Qx) = Q X_0(x), sigma(Qx) = Q sigma(x) Q^T, and for the
Jacobians DX_0(Qx) = Q DX_0(x) Q^T and, over (field k, row i, column j),
DX_k(Qx)_ij = sign_k sign_i sign_j DX_{perm_k}(x)_{perm_i perm_j}: the
diffusion fields are permuted with their signs. So the Euler map driven by
the noise Q dW satisfies x(Qx0) = Q x(x0) and v(Qx0, Qv0) = Q v(x0, v0).

In d = 2 these hold exactly in floating point: a signed permutation only
moves entries and flips signs, and the one reordering it causes, the sum of
the two squares in |x|, is commutative. Entries are compared with ==, so a
0.0 that comes out as -0.0 still matches.

Every start lies outside the r_min ball: inside it the Jacobians are taken
on its sphere, and at the origin at r_min e_1, a point that the swap and
the rotation move, so the origin is not equivariant. Paths that later
step into the ball are (the projection onto the sphere commutes with Q),
and the second parameter set has a ball large enough that some do.
"""

import numpy as np
import pytest

from flowlab import IntegratorConfig, builtin
from flowlab.coefficients import _kp, row_norm
from flowlab.engine import BatchEuler

# (perm, sign) with (Qx)_i = sign_i x_{perm_i}
SIGNED_PERMUTATIONS = {
    "swap": ([1, 0], [1.0, 1.0]),
    "sign_flip": ([0, 1], [-1.0, 1.0]),
    "rotation_90": ([1, 0], [-1.0, 1.0]),
}

# the defaults, and a set with q2 < 0 and an r_min ball that paths enter
PARAMS = {
    "default": {},
    "wide_ball": {"q1": 0.9, "q2": -0.5, "q3": 0.3, "q4": 2.0,
                  "r_min": 0.05},
}

N_PATHS, N_STEPS, H = 512, 500, 2e-3


def signed_permutation(name):
    perm, sign = SIGNED_PERMUTATIONS[name]
    return np.array(perm), np.array(sign)


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


def starts(r_min, n=N_PATHS, seed=0):
    """n points, a third each in the core (r < 1, outside 2 r_min), the bump
    annulus 1 < r < 3 and the shell 3 < r < 5."""
    rng = np.random.default_rng(seed)
    lo = np.array([2.0 * r_min, 1.0, 3.0])
    hi = np.array([1.0, 3.0, 5.0])
    region = np.arange(n) % 3
    r = rng.uniform(lo[region], hi[region])
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    return r[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)


@pytest.fixture(scope="module", params=sorted(PARAMS))
def system(request):
    return builtin("example21", d=2, **PARAMS[request.param])


def test_starts_cover_the_three_regions(system):
    r = row_norm(starts(system.r_min))
    assert np.all(r >= 2.0 * system.r_min)
    for lo, hi in ((0.0, 1.0), (1.0, 3.0), (3.0, np.inf)):
        assert np.sum((r > lo) & (r < hi)) > N_PATHS // 4


@pytest.mark.parametrize("name", sorted(SIGNED_PERMUTATIONS))
def test_fields_and_jacobians_commute(system, name):
    q = signed_permutation(name)
    x = starts(system.r_min)
    drift, sigma = system.fields(x)
    drift_q, sigma_q = system.fields(act(q, x))
    np.testing.assert_array_equal(drift_q, act(q, drift))
    np.testing.assert_array_equal(sigma_q, act_matrix(q, sigma))
    jall = system.jacobians_stacked(x)
    np.testing.assert_array_equal(system.jacobians_stacked(act(q, x)),
                                  act_jacobians(q, jall))


@pytest.mark.parametrize("name", sorted(SIGNED_PERMUTATIONS))
@pytest.mark.parametrize("p", [0.5, 1.0, 3.0])
def test_kp_is_invariant(system, name, p):
    q = signed_permutation(name)
    x = starts(system.r_min)
    kp, mat = _kp(system.jacobians_stacked(x), p)
    kp_q, mat_q = _kp(system.jacobians_stacked(act(q, x)), p)
    np.testing.assert_array_equal(mat_q, act_matrix(q, mat))
    np.testing.assert_array_equal(kp_q, kp)


def run_euler(system, x0, v0, dws):
    cfg = IntegratorConfig(h=H, T=N_STEPS * H)
    return BatchEuler(system, x0, v0, dws, cfg).run()


@pytest.fixture(scope="module")
def base_run(system):
    rng = np.random.default_rng(1)
    x0 = starts(system.r_min)
    v0 = rng.standard_normal((N_PATHS, 2))
    dws = rng.standard_normal((N_PATHS, N_STEPS, 2)) * np.sqrt(H)
    return x0, v0, dws, run_euler(system, x0, v0, dws)


def test_wide_ball_paths_are_clamped(system, base_run):
    # the harness reaches the clamp where the ball is large enough
    clamped = base_run[3].clamped
    assert (clamped.sum() > 0) == (system.r_min >= 0.05)


@pytest.mark.parametrize("name", sorted(SIGNED_PERMUTATIONS))
def test_euler_map_commutes(system, base_run, name):
    q = signed_permutation(name)
    x0, v0, dws, drv = base_run
    drv_q = run_euler(system, act(q, x0), act(q, v0), act(q, dws))
    np.testing.assert_array_equal(drv_q.x, act(q, drv.x))
    np.testing.assert_array_equal(drv_q.v, act(q, drv.v))
    np.testing.assert_array_equal(drv_q.clamped, drv.clamped)
    np.testing.assert_array_equal(drv_q.exploded, drv.exploded)
    np.testing.assert_array_equal(drv_q.failed, drv.failed)
