"""Tests for truncation, mollification, lambda0 selection and L^p distances."""

import numpy as np
import pytest

from flowlab import approximation
from flowlab import (
    CoefficientSystem,
    RadiusTooSmallError,
    builtin,
    lp_distance,
    make_system,
    mollified_family,
    mollifier,
    radial_tangential_derivative_check,
    select_lambda0,
    truncate,
)
from flowlab.coefficients import AssumptionConstants, fd_jacobian, stack_fields

from systems import clamp_to_sphere, linear_system

# adaptive-quadrature oracles, frozen (scipy.integrate.quad at 1e-14 tol):
# C_1d = 1 / int_{-1}^{1} exp(1/(x^2-1)) dx
ORACLE_NORM_1D = 2.2522836210435817
# mollified |x| at 0 with eps = 0.1: 0.1 * 2 C int_0^1 u exp(1/(u^2-1)) du
ORACLE_ABS_AT_ZERO = 0.03344539977099754


def abs_field_1d():
    def value(k, x):
        x = np.asarray(x, dtype=float)
        return np.abs(x) if k == 1 else np.zeros_like(x)

    def jacobian(k, x):
        x = np.asarray(x, dtype=float)
        return (np.sign(x) if k == 1 else np.zeros_like(x))[..., None]
    constants = AssumptionConstants(p1=0.5, p2=1.0, p3=6.5, p4=3.5, p5=0.5,
                                    C1=0.5, C2=2.0, C3=2.0, R1=1.0)
    return make_system("abs_field", 1, 1, value, jacobian, constants)


def square_field_1d():
    def value(k, x):
        x = np.asarray(x, dtype=float)
        return x * x if k == 1 else np.zeros_like(x)

    def jacobian(k, x):
        x = np.asarray(x, dtype=float)
        return (2.0 * x if k == 1 else np.zeros_like(x))[..., None]
    constants = AssumptionConstants(p1=0.5, p2=2.0, p3=6.5, p4=3.5, p5=1.0,
                                    C1=0.5, C2=2.0, C3=3.0, R1=1.0)
    return make_system("square_field", 1, 1, value, jacobian, constants)


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
    radial, tangential = radial_tangential_derivative_check(s, 2.0, x)
    assert radial < 1e-6
    assert tangential < 1e-4
    # tangent direction e_2 explicitly: (R/|x|) DX(pi_R x) e_2 = 0.5 e_2
    h = 1e-5
    e2 = np.array([0.0, 1.0])
    fd = (ts.value(1, x + h * e2) - ts.value(1, x - h * e2)) / (2 * h)
    np.testing.assert_allclose(fd, 0.5 * e2, atol=1e-9)


def test_radial_tangential_constant_base():
    s = builtin("constant", sigma=2.0, d=2)
    radial, tangential = radial_tangential_derivative_check(
        s, 3.0, np.array([5.0, 1.0]))
    assert radial < 1e-10
    assert tangential < 1e-10


def _two_norm_truncation(base, R, x, clamp):
    """Fields and Jacobians of truncate(base, R) as the projection computed
    them with a second norm per call, kept to pin the one-norm form."""
    def project(x):
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        safe = np.where(r == 0.0, 1.0, r)
        return x * (R / safe)

    r = np.linalg.norm(x, axis=-1)
    inside = r <= R
    pts = x if np.all(inside) else np.where(inside[..., None], x, project(x))
    fields = stack_fields(*base.fields(pts))
    xc = clamp(x)
    rc = np.linalg.norm(xc, axis=-1)
    inside_c = rc <= R
    if np.all(inside_c):
        return fields, base.jacobians_stacked(xc)
    jall = base.jacobians_stacked(
        np.where(inside_c[..., None], xc, project(xc)))
    safe_r = np.where(rc == 0.0, 1.0, rc)
    unit = xc / safe_r[..., None]
    grad = (R / safe_r)[..., None, None] * (
        np.eye(x.shape[-1]) - np.einsum("...i,...j->...ij", unit, unit))
    outer = np.einsum("...kij,...jl->...kil", jall, grad)
    return fields, np.where(inside_c[..., None, None, None], jall, outer)


@pytest.mark.parametrize("case", ["n_d", "n_q_d", "point", "origin",
                                  "on_sphere", "just_above", "all_inside"])
@pytest.mark.parametrize("name,R", [("example21", 4.0), ("linear", 2.0)])
def test_truncation_matches_two_norm_projection_bitwise(name, R, case):
    base = builtin(name) if name == "example21" else linear_system(d=2)
    ts = truncate(base, R)
    # example21's Jacobians are singular at the origin: the reference takes
    # them at clamp(x), which the truncated system must do by itself
    def clamp(x):
        return clamp_to_sphere(x, base.r_min)

    rng = np.random.default_rng(11)
    above = np.nextafter(R, np.inf)
    x = {
        "n_d": rng.normal(size=(64, 2)) * R,
        "n_q_d": rng.normal(size=(8, 5, 2)) * R,
        "point": np.array([1.3, -0.7]) * R,
        "origin": np.array([[0.0, 0.0], [2.0 * R, 0.0]]),
        "on_sphere": np.array([[R, 0.0], [0.0, -R], [3.0 * R, 1.0]]),
        "just_above": np.array([[above, 0.0], [0.0, -above], [0.1, 0.2]]),
        "all_inside": rng.uniform(-0.5, 0.5, size=(16, 2)) * R,
    }[case]
    fields, jall = _two_norm_truncation(base, R, x, clamp)
    np.testing.assert_array_equal(stack_fields(*ts.fields(x)), fields)
    np.testing.assert_array_equal(ts.jacobians_stacked(x), jall)


def test_radial_tangential_kink_exclusion():
    with pytest.raises(ValueError):
        radial_tangential_derivative_check(linear_system(d=2), 2.0,
                                           np.array([2.00001, 0.0]))


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
    val = mol.convolve(lambda p: ts.value(1, p), np.array([0.4, -0.2]))
    np.testing.assert_allclose(val, s.value(1, np.array([0.4, -0.2])),
                               atol=1e-8)


def test_mollify_affine_field_exact():
    # even kernel kills the first moment, so affine fields mollify exactly
    s = linear_system(d=2)
    ts = truncate(s, 50.0)
    mol = mollifier(2, 0.2)
    x = np.array([1.3, -0.4])
    val = mol.convolve(lambda p: ts.value(1, p), x)
    np.testing.assert_allclose(val, x, atol=1e-8)


def test_mollify_abs_at_zero_matches_quadrature_oracle():
    s = abs_field_1d()
    ts = truncate(s, 2.0)
    mol = mollifier(1, 0.1)
    x = np.array([0.0])
    val = mol.convolve(lambda p: ts.value(1, p), x)
    # self-estimate: the gap to a rule with half the nodes
    coarse = mollifier(1, 0.1, 32)
    err_est = float(np.max(np.abs(
        val - coarse.convolve(lambda p: ts.value(1, p), x))))
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


def test_family_member_range_gate():
    s = builtin("constant", sigma=1.0, d=1)
    fam = mollified_family(s, eps0=0.2)
    with pytest.raises(ValueError):
        fam.member(0.25)
    with pytest.raises(ValueError):
        fam.member(-0.1)
    assert fam.member(0.1).params["eps"] == 0.1


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


# example21 member at eps = 0.1 truncated at R = 4: one point far inside the
# sphere, and points whose mollifier support straddles it on either side
MEMBER_EPS, MEMBER_R = 0.1, 4.0
MEMBER_PROBES = {"smooth": np.array([0.6, 0.2]), **{
    f"{label}@{angle}": radius * np.array([np.cos(angle), np.sin(angle)])
    for label, radius in (("R-eps/2", MEMBER_R - MEMBER_EPS / 2),
                          ("R-0.01", MEMBER_R - 0.01),
                          ("R+0.01", MEMBER_R + 0.01),
                          ("R+eps/2", MEMBER_R + MEMBER_EPS / 2))
    for angle in (0.3, 2.0, 4.4)}}


@pytest.mark.parametrize("probe", list(MEMBER_PROBES))
def test_family_member_jacobian_smooth_vs_transition(probe):
    # the member Jacobian is the convolution of the truncated Jacobians, the
    # exact derivative of the quadrature field also across the truncation
    # sphere; compare against central differences of the member fields
    s = builtin("example21")
    fam = mollified_family(s, eps0=0.25, n_radial=16, n_angular=32)
    assert fam.truncation_radius(MEMBER_EPS) == MEMBER_R
    member = fam.member(MEMBER_EPS)
    x = MEMBER_PROBES[probe]
    fd = fd_jacobian(lambda p: stack_fields(*member.fields(p)), x, 1e-7)
    np.testing.assert_allclose(member.jacobians_stacked(x), fd, atol=1e-6)


def _member_points():
    """37 example21 member probes, not a multiple of any block below: the
    origin, the core, the bump annulus, both sides of the truncation sphere
    R = 4 and the frozen region beyond it."""
    rng = np.random.default_rng(5)
    radii = np.concatenate([[0.0, 1e-7, 0.5, 1.5, 2.5, 3.95, 4.05, 6.0],
                            rng.uniform(0.0, 7.0, 29)])
    angles = rng.uniform(0.0, 2.0 * np.pi, radii.size)
    return radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], -1)


def test_member_convolution_blocks_do_not_change_a_bit(monkeypatch):
    # each point's q shifts stay in one block, so the block size moves no
    # bit; every block reaches the base in at most max(q, block) points
    member = mollified_family(builtin("example21"), eps0=0.25).member(0.1)
    q = len(approximation.mollifier(2, 0.1).weights)
    pts = _member_points()
    sizes = []

    def spy(name):
        original = getattr(CoefficientSystem, name)

        def counting(self, x):
            x = np.asarray(x, dtype=float)
            if x.ndim == 3:  # shifted points (n, q, d) from convolve
                sizes.append(x.shape[0] * x.shape[1])
            return original(self, x)
        monkeypatch.setattr(CoefficientSystem, name, counting)

    spy("fields")
    spy("jacobians_stacked")
    outputs = {}
    for block in (1, q - 1, q, 16_384, 100_000):
        monkeypatch.setattr(approximation, "_CONV_BLOCK_POINTS", block)
        sizes.clear()
        results = [*member.fields(pts), member.jacobians_stacked(pts),
                   *member.fields(pts[5]), member.jacobians_stacked(pts[5])]
        assert sizes and max(sizes) <= max(q, block), block
        # a one-point call gives the bits of its row in the batch
        for batch, one in zip(results[:3], results[3:]):
            assert batch[5].tobytes() == one.tobytes(), block
        outputs[block] = [(r.shape, r.tobytes()) for r in results]
    assert all(out == outputs[1] for out in outputs.values())


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
