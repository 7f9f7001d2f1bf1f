"""Tests for truncation, mollification, lambda0 selection and L^p distances."""

import numpy as np
import pytest

from flowlab import (
    RadiusTooSmallError,
    builtin,
    lp_distance,
    make_system,
    mollified_family,
    mollifier,
    mollify_value,
    radial_tangential_derivative_check,
    select_lambda0,
    truncate,
)
from flowlab.coefficients import AssumptionConstants

from systems import linear_system

# adaptive-quadrature oracles, frozen (scipy.integrate.quad at 1e-14 tol):
# C_1d = 1 / int_{-1}^{1} exp(1/(x^2-1)) dx
ORACLE_NORM_1D = 2.2522836210435817
# mollified |x| at 0 with eps = 0.1: 0.1 * 2 C int_0^1 u exp(1/(u^2-1)) du
ORACLE_ABS_AT_ZERO = 0.03344539977099754


def abs_field_1d():
    def value(k, x):
        x = np.asarray(x, dtype=float)
        return np.abs(x) if k == 1 else np.zeros_like(x)
    constants = AssumptionConstants(p1=0.5, p2=1.0, p3=6.5, p4=3.5, p5=0.5,
                                    C1=0.5, C2=2.0, C3=2.0, R1=1.0)
    return make_system("abs_field", 1, 1, value, None, constants)


def square_field_1d():
    def value(k, x):
        x = np.asarray(x, dtype=float)
        return x * x if k == 1 else np.zeros_like(x)
    constants = AssumptionConstants(p1=0.5, p2=2.0, p3=6.5, p4=3.5, p5=1.0,
                                    C1=0.5, C2=2.0, C3=3.0, R1=1.0)
    return make_system("square_field", 1, 1, value, None, constants)


# ---------------------------------------------------------------------------
# truncation

def test_truncate_constant_field_is_identity():
    s = builtin("constant", sigma=1.5, d=2)
    ts = truncate(s, 5.0)
    for x in ([0.1, 0.0], [4.0, 3.0], [40.0, 9.0]):
        np.testing.assert_allclose(ts.value(1, np.array(x)),
                                   s.value(1, np.array(x)))


def test_truncate_projects_along_rays():
    s = square_field_1d()
    ts = truncate(s, 5.0)
    assert ts.value(1, np.array([7.0]))[0] == pytest.approx(25.0)
    assert ts.value(1, np.array([-7.0]))[0] == pytest.approx(25.0)
    assert ts.value(1, np.array([3.0]))[0] == pytest.approx(9.0)


def test_truncate_example21_far_point():
    s = builtin("example21")
    ts = truncate(s, 10.0)
    x = np.array([20.0, 0.0])
    np.testing.assert_allclose(ts.value(1, x),
                               s.value(1, np.array([10.0, 0.0])), rtol=1e-12)
    np.testing.assert_allclose(ts.value(0, x),
                               s.value(0, np.array([10.0, 0.0])), rtol=1e-12)


def test_truncate_radius_gate():
    s = builtin("example21")  # R1 = 3
    with pytest.raises(RadiusTooSmallError):
        truncate(s, 3.5)
    truncate(s, 4.0)


def test_truncate_idempotent():
    s = builtin("example21")
    t1 = truncate(s, 5.0)
    t2 = truncate(t1, 5.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=2) * 6.0
        for k in range(3):
            np.testing.assert_allclose(t2.value(k, x), t1.value(k, x),
                                       atol=1e-14)


def test_truncated_jacobian_matches_finite_differences_outside():
    # the chain-rule Jacobian DX(pi_R x) (R/|x|)(I - unit unit^T) against a
    # plain central difference of the truncated value
    s = builtin("example21")
    ts = truncate(s, 5.0)
    rng = np.random.default_rng(0)
    from flowlab.coefficients import fd_jacobian
    for _ in range(10):
        x = rng.normal(size=2)
        x *= (5.5 + 3.0 * rng.random()) / np.linalg.norm(x)
        for k in range(3):
            exact = ts.jacobian(k, x)
            fd = fd_jacobian(lambda p: ts.value(k, p), x, 1e-6)
            assert np.max(np.abs(exact - fd)) < 1e-7


def test_radial_derivative_vanishes_and_tangential_scales():
    s = linear_system(d=2)
    ts = truncate(s, 2.0)
    x = np.array([4.0, 0.0])
    radial, tangential = radial_tangential_derivative_check(ts, x, h=1e-5)
    assert radial < 1e-6
    assert tangential < 1e-4
    # tangent direction e_2 explicitly: (R/|x|) DX(pi_R x) e_2 = 0.5 e_2
    h = 1e-5
    e2 = np.array([0.0, 1.0])
    fd = (ts.value(1, x + h * e2) - ts.value(1, x - h * e2)) / (2 * h)
    np.testing.assert_allclose(fd, 0.5 * e2, atol=1e-9)


def test_radial_tangential_constant_base():
    s = builtin("constant", sigma=2.0, d=2)
    ts = truncate(s, 3.0)
    radial, tangential = radial_tangential_derivative_check(
        ts, np.array([5.0, 1.0]), h=1e-5)
    assert radial < 1e-10
    assert tangential < 1e-10


def test_radial_tangential_kink_exclusion():
    ts = truncate(linear_system(d=2), 2.0)
    with pytest.raises(ValueError):
        radial_tangential_derivative_check(ts, np.array([2.00001, 0.0]),
                                           h=1e-5)


# ---------------------------------------------------------------------------
# mollifier

def test_mollifier_norm_constant_matches_adaptive_oracle():
    mol = mollifier(1, 1.0)
    assert mol.norm_constant == pytest.approx(ORACLE_NORM_1D, abs=1e-8)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_mollifier_mass(d, eps):
    mol = mollifier(d, eps)
    assert abs(mol.mass() - 1.0) < 1e-6


@pytest.mark.parametrize("order", [((16, 32), (32, 16)),
                                   ((32, 16), (16, 32))])
def test_mollifier_mass_independent_of_build_order(order):
    # both rules have 512 nodes; each must be normalized by its own sum
    for n_radial, n_angular in order:
        mol = mollifier(2, 0.1, n_radial, n_angular)
        assert abs(mol.mass() - 1.0) < 1e-12


def test_mollify_constant_field_exact():
    s = builtin("constant", sigma=3.0, d=2)
    ts = truncate(s, 5.0)
    mol = mollifier(2, 0.3)
    val = mollify_value(ts, mol, 1, np.array([0.4, -0.2]))
    np.testing.assert_allclose(val, s.value(1, np.array([0.4, -0.2])),
                               atol=1e-8)


def test_mollify_affine_field_exact():
    # even kernel kills the first moment, so affine fields mollify exactly
    s = linear_system(d=2)
    ts = truncate(s, 50.0)
    mol = mollifier(2, 0.2)
    x = np.array([1.3, -0.4])
    val = mollify_value(ts, mol, 1, x)
    np.testing.assert_allclose(val, x, atol=1e-8)


def test_mollify_abs_at_zero_matches_quadrature_oracle():
    s = abs_field_1d()
    ts = truncate(s, 2.0)
    mol = mollifier(1, 0.1)
    val, err_est = mollify_value(ts, mol, 1, np.array([0.0]), with_error=True)
    # the integrand has a kink at 0, so the fixed rule converges algebraically;
    # 64 nodes land within ~2e-5 of the adaptive value
    assert val[0] == pytest.approx(ORACLE_ABS_AT_ZERO, abs=5e-5)
    assert 1e-7 < err_est < 1e-3


# ---------------------------------------------------------------------------
# lambda0 selection

def test_select_lambda0_reference_arithmetic():
    c = AssumptionConstants(p1=1.0, p2=1.0, p3=8.0, p4=4.0, p5=1.0,
                            C1=1.0, C2=1.0, C3=1.0, R1=1.0, delta=1.0)
    lam, eps0 = select_lambda0(c, d=2)
    assert lam == pytest.approx(1.0 / 6.0)
    assert eps0 == pytest.approx(min(3.0**-6.0, 0.25))


def test_select_lambda0_monotone_in_p5():
    base = dict(p1=1.0, p2=1.0, p3=8.0, p4=4.0, C1=1.0, C2=1.0, C3=1.0,
                R1=1.0)
    lams = [select_lambda0(AssumptionConstants(p5=p5, **base), 2)[0]
            for p5 in (1.0, 5.0, 50.0, 500.0)]
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_select_lambda0_inequalities_on_random_constants():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        c = AssumptionConstants(
            p1=rng.uniform(0.1, 5.0), p2=rng.uniform(0.1, 5.0),
            p3=2 * (d + 1) + rng.uniform(0.1, 10.0),
            p4=d + 1 + rng.uniform(0.1, 5.0), p5=rng.uniform(0.1, 5.0),
            C1=1.0, C2=1.0, C3=1.0, R1=rng.uniform(0.5, 10.0),
            delta=rng.uniform(0.1, 1.0))
        lam, eps0 = select_lambda0(c, d)
        iota = 1.0 - d / c.p3
        assert lam * c.p1 < iota - lam * c.p2
        assert lam * c.p1 < 1.0 - lam * (c.p2 + c.p5)
        assert 0.0 < eps0 <= c.delta / 4.0


# ---------------------------------------------------------------------------
# family members

def test_family_member_constant_base_equals_base():
    s = builtin("constant", sigma=2.0, d=2)
    fam = mollified_family(s, eps0=0.3)
    member = fam.member(0.1)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.normal(size=2)
        for k in range(3):
            np.testing.assert_allclose(member.value(k, x), s.value(k, x),
                                       atol=1e-10)


def test_family_member_range_gate_and_cache():
    s = builtin("constant", sigma=1.0, d=1)
    fam = mollified_family(s, eps0=0.2)
    with pytest.raises(ValueError):
        fam.member(0.25)
    with pytest.raises(ValueError):
        fam.member(-0.1)
    m1 = fam.member(0.1)
    assert fam.member(0.1) is m1


def test_family_rejects_inadmissible_lambda0():
    s = builtin("constant", sigma=1.0, d=1)
    with pytest.raises(ValueError, match="admissibility"):
        mollified_family(s, lambda0=5.0)


def test_family_member_abs_field_matches_oracle():
    fam = mollified_family(abs_field_1d(), eps0=0.2)
    member = fam.member(0.1)
    val = member.value(1, np.array([0.0]))
    assert val[0] == pytest.approx(ORACLE_ABS_AT_ZERO, abs=5e-5)


def test_family_member_example21_value_near_origin():
    s = builtin("example21")
    fam = mollified_family(s, eps0=0.25)
    gaps = []
    for eps in (0.2, 0.05):
        member = fam.member(eps)
        gap = np.linalg.norm(member.value(1, np.zeros(2)) - np.array([1.0, 0.0]))
        lam0, _ = select_lambda0(s.constants, 2)
        iota = 1.0 - 2.0 / s.constants.p3
        assert gap < eps**iota
        gaps.append(gap)
    assert gaps[1] < gaps[0]


def test_family_member_jacobian_smooth_vs_transition():
    # inside the smooth zone the Jacobian is the mollified base derivative;
    # compare against finite differences of the member value itself
    s = builtin("example21")
    fam = mollified_family(s, eps0=0.25, n_radial=16, n_angular=32)
    member = fam.member(0.1)
    x = np.array([0.6, 0.2])
    jac = member.jacobian(1, x)
    fd = np.empty((2, 2))
    h = 1e-5
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd[:, j] = (member.value(1, x + e) - member.value(1, x - e)) / (2 * h)
    np.testing.assert_allclose(jac, fd, atol=5e-6)


def test_family_ellipticity_floor_example21():
    s = builtin("example21")
    fam = mollified_family(s, eps0=0.25)
    c = s.constants
    dirs = np.array([[1.0, 0.0], [0.0, 1.0],
                     [np.sqrt(0.5), np.sqrt(0.5)], [-np.sqrt(0.5), 0.5]])
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.array([0.0, 0.3, 1.0, 1.7, 2.5, 3.5, 4.5])
    probes = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
    for eps in (0.2, 0.1, 0.05, 0.025):
        member = fam.member(eps)
        sig = member.sigma(probes)
        a = np.einsum("nik,njk->nij", sig, sig)
        lo = np.linalg.eigvalsh(a)[:, 0]
        r = np.linalg.norm(probes, axis=-1)
        floor = c.C1 / (2.0 * (1.0 + r**c.p1))
        assert np.all(lo >= floor), (eps, float(np.min(lo - floor)))


# ---------------------------------------------------------------------------
# L^p distance

def test_lp_distance_identical_systems():
    s = builtin("example21")
    dist = lp_distance(s, s, 1, R=2.0, p=2.0)
    assert dist.value == pytest.approx(0.0, abs=1e-14)


def test_lp_distance_constants_closed_form():
    a = builtin("constant", sigma=1.0, d=1)
    b = builtin("constant", sigma=3.5, d=1)
    dist = lp_distance(a, b, 1, R=1.0, p=2.0)
    assert dist.value == pytest.approx(2.0 * 2.5**2, rel=1e-12)
    assert dist.excised_volume == 0.0


def test_lp_distance_constants_closed_form_2d():
    a = builtin("constant", sigma=1.0, d=2)
    b = builtin("constant", sigma=2.5, d=2)
    dist = lp_distance(a, b, 1, R=1.5, p=3.0)
    assert dist.value == pytest.approx(np.pi * 1.5**2 * 1.5**3, rel=1e-12)


def test_lp_distance_example21_family_decreasing():
    s = builtin("example21")
    fam = mollified_family(s, eps0=0.25)
    vals = [lp_distance(s, fam.member(eps), 1, R=2.0, p=2.0,
                        n_radial=32, n_angular=48).value
            for eps in (0.2, 0.1, 0.05)]
    assert vals[0] > vals[1] > vals[2]
