"""Tests for coefficient systems, spectral diagnostics and condition checks."""

import numpy as np
import pytest

from flowlab import (
    CheckSpec,
    CoefficientSystem,
    ParameterConstraintError,
    SingularPointError,
    builtin,
    check_assumptions,
    diffusion_matrix,
    kp_max,
    make_system,
    theta_g,
)
from flowlab import coefficients
from flowlab.coefficients import (
    _smooth_step,
    fd_jacobian,
    gated_right_inverse,
    stack_fields,
)

from systems import nan_ring_system, scalar_drift_system, sqrt_field_system


# ---------------------------------------------------------------------------
# diffusion matrix

def test_diffusion_matrix_constant_scalar():
    s = builtin("constant", sigma=2.0, d=1)
    a = diffusion_matrix(s, np.array([0.3]))
    assert a.shape == (1, 1)
    assert a[0, 0] == pytest.approx(4.0, abs=0.0)


def test_diffusion_matrix_example21_identity_at_origin():
    s = builtin("example21")
    a = diffusion_matrix(s, np.zeros(2))
    np.testing.assert_allclose(a, np.eye(2), atol=1e-14)


def test_diffusion_matrix_example21_far_field():
    # q2 = 0.5, |x| = 9 is outside both bumps: X_k = |x|^{1/2} e_k, A = 9 I
    s = builtin("example21", q2=0.5)
    a = diffusion_matrix(s, np.array([9.0, 0.0]))
    np.testing.assert_allclose(a, 9.0 * np.eye(2), rtol=1e-12)
    a2 = diffusion_matrix(s, 9.0 / np.sqrt(2.0) * np.ones(2))
    np.testing.assert_allclose(a2, 9.0 * np.eye(2), rtol=1e-12)


@pytest.mark.parametrize("name,params", [
    ("example21", {}),
    ("ornstein_uhlenbeck", {"d": 2}),
    ("geometric_bm", {"d": 2}),
])
def test_diffusion_matrix_symmetric_psd(name, params):
    s = builtin(name, **params)
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.normal(size=s.d) * 3.0
        a = diffusion_matrix(s, x)
        assert np.max(np.abs(a - a.T)) < 1e-14
        assert np.linalg.eigvalsh(a)[0] >= -1e-12


# ---------------------------------------------------------------------------
# right inverse

def right_inverse(s, x, xi):
    """(Y(x)(xi), gated, smallest eigenvalue of A(x)) for the system s."""
    return gated_right_inverse(s.sigma(np.asarray(x, dtype=float)),
                               np.asarray(xi, dtype=float))


def test_right_inverse_scalar():
    s = builtin("constant", sigma=2.0, d=1)
    y, gated, _ = right_inverse(s, [0.0], [3.0])
    assert not gated
    assert y[0] == pytest.approx(1.5)
    # X(x) applied to y recovers xi
    assert 2.0 * y[0] == pytest.approx(3.0)


def test_right_inverse_identity_diffusion():
    s = builtin("constant", sigma=1.0, d=3)
    xi = np.array([0.2, -0.7, 1.1])
    y, gated, _ = right_inverse(s, np.zeros(3), xi)
    assert not gated
    np.testing.assert_allclose(y, xi, atol=1e-14)


def test_right_inverse_example21_scaled_identity():
    s = builtin("example21", q2=0.5)
    x = np.array([9.0, 0.0])  # A = 9 I, Sigma = 3 I
    xi = np.array([1.0, 2.0])
    y, gated, lo = right_inverse(s, x, xi)
    assert not gated
    assert lo == pytest.approx(9.0, rel=1e-12)
    np.testing.assert_allclose(y, xi / 3.0, rtol=1e-12)


def test_right_inverse_roundtrip_random_systems():
    rng = np.random.default_rng(3)
    for name, params in [("example21", {}), ("ornstein_uhlenbeck", {"d": 2}),
                         ("geometric_bm", {"d": 1})]:
        s = builtin(name, **params)
        x = rng.normal(size=(20, s.d)) * 2.0 + 0.5
        xi = rng.normal(size=(20, s.d))
        y, gated, _ = right_inverse(s, x, xi)
        assert not gated.any()
        sig = s.sigma(x)
        np.testing.assert_allclose(np.einsum("nik,nk->ni", sig, y), xi,
                                   rtol=1e-10, atol=1e-12)


def test_right_inverse_matches_pseudoinverse_nondiagonal():
    from flowlab import make_system
    rng = np.random.default_rng(9)
    cols = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)

    def value(k, x):
        x = np.asarray(x, dtype=float)
        if k == 0:
            return np.zeros_like(x)
        return np.broadcast_to(cols[:, k - 1], x.shape).copy()

    s = make_system("skew_columns", 2, 2, value)
    for _ in range(10):
        xi = rng.normal(size=2)
        y, gated, _ = right_inverse(s, np.zeros(2), xi)
        assert not gated
        np.testing.assert_allclose(y, np.linalg.pinv(cols) @ xi, atol=1e-12)


def test_right_inverse_reports_ellipticity_failure():
    # geometric BM is degenerate at the origin: A(0) = 0, so the point is
    # gated and the smallest eigenvalue reported there is 0
    s = builtin("geometric_bm", d=2)
    _, gated, lo = right_inverse(s, np.zeros(2), np.ones(2))
    assert gated
    assert lo == pytest.approx(0.0, abs=1e-300)


# ---------------------------------------------------------------------------
# K_p

def test_kp_zero_jacobians():
    s = builtin("additive_noise", sigma=1.5, d=2)
    for p in (1.0, 2.0, 5.0):
        assert kp_max(s, np.array([0.4, -1.0]), p).kp == pytest.approx(0.0)


def test_kp_pure_contraction():
    s = builtin("ornstein_uhlenbeck", theta=1.0, sigma=1.0, d=2)
    rep = kp_max(s, np.zeros(2), 1.0)
    assert rep.kp == pytest.approx(-2.0)


def test_kp_example21_negative_at_small_radius_order_one():
    s = builtin("example21", q1=0.8, q3=0.5)
    rng = np.random.default_rng(11)
    for r in np.geomspace(1e-4, 1e-2, 12):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        assert kp_max(s, r * u, 1.0).kp <= 0.0
    # frozen value at |x| = 1e-2 along e_1, from the closed-form Jacobians
    assert kp_max(s, np.array([1e-2, 0.0]), 1.0).kp == pytest.approx(
        -3.9237459906535292, rel=1e-12)


def test_kp_dominates_quadratic_form():
    s = builtin("example21")
    rng = np.random.default_rng(5)
    for x in ([0.5, 0.1], [2.5, 0.3], [4.0, -1.0]):
        rep = kp_max(s, np.array(x), 2.0)
        for _ in range(100):
            xi = rng.normal(size=2)
            xi /= np.linalg.norm(xi)
            assert xi @ rep.matrix @ xi <= rep.kp + 1e-10


def test_kp_matrix_symmetric():
    s = builtin("example21")
    rep = kp_max(s, np.array([0.7, 0.2]), 3.0)
    assert np.max(np.abs(rep.matrix - rep.matrix.T)) < 1e-12


def test_kp_singular_point_raises():
    s = builtin("example21")
    with pytest.raises(SingularPointError):
        kp_max(s, np.array([1e-9, 0.0]), 2.0)


def test_kp_max_evaluates_all_jacobians_in_one_pass(monkeypatch):
    # K_p combines DX_0..DX_m at the same points, so it reads them from one
    # batched evaluation rather than one evaluation per field
    calls = []
    stacked = CoefficientSystem.jacobians_stacked

    def counting(self, x):
        calls.append(np.shape(x))
        return stacked(self, x)

    monkeypatch.setattr(CoefficientSystem, "jacobians_stacked", counting)
    pts = np.array([[0.3, 0.0], [1.5, -0.5], [2.0, 2.0], [4.0, 1.0]])
    rep = kp_max(builtin("example21"), pts, 2.0)
    assert calls == [(4, 2)]
    assert rep.kp.shape == (4,)


# ---------------------------------------------------------------------------
# theta_g

def test_theta_g_unit_diffusion_analytic_max():
    # lam (2x/(1+x^2))^2/2 + (2/(1+x^2) - 4x^2/(1+x^2)^2)/2 peaks at 0 with
    # value 1 when lam = 1 (the whole expression collapses to 1/(1+x^2))
    s = builtin("additive_noise", sigma=1.0, d=1)
    bound = theta_g(s, 1.0, box=50.0)
    assert bound.value == pytest.approx(1.0, abs=1e-4)
    assert abs(bound.argmax[0]) < 0.2


def test_theta_g_contraction_zero_max():
    s = scalar_drift_system(d=1)
    bound = theta_g(s, 1.0)
    assert bound.value == pytest.approx(0.0, abs=1e-12)


def test_theta_g_example21_finite_empirical():
    s = builtin("example21")
    bound = theta_g(s, 1.0)
    assert np.isfinite(bound.value)
    # radial oracle: the expression peaks at |x| ~ 0.378 with value 3.0693;
    # the default 2-d grid resolves the ridge to a few percent
    assert 2.9 < bound.value <= 3.0693476971574993 + 1e-9


# ---------------------------------------------------------------------------
# condition checks

def test_check_identity_diffusion_all_pass():
    s = builtin("constant", sigma=1.0, d=2)
    reports = check_assumptions(s, CheckSpec(p_list=(1.0, 2.0)))
    for name, rep in reports.items():
        assert rep.passed, f"{name} failed: {rep.detail}"


def test_check_example21_negative_q2_ellipticity_floor():
    s = builtin("example21", q2=-0.3)
    reports = check_assumptions(s, CheckSpec(p_list=(1.0,)))
    assert reports["c1"].passed


def test_check_sqrt_field_exponential_integrability_fails():
    # K_p ~ (2p-1)p/(4|x|) near 0 makes exp(kappa K_p) non-integrable; the
    # refinement study must see the quadrature diverge
    s = sqrt_field_system()
    reports = check_assumptions(s, CheckSpec(p_list=(2.0,), quad_budget=1e6))
    assert reports["c3"].status == "fail"
    assert reports["c3"].detail["diverging"] or \
        min(reports["c3"].detail["levels"][2.0]) > 1e6


def test_check_example21_passes_at_order_one():
    s = builtin("example21")
    reports = check_assumptions(s, CheckSpec(p_list=(1.0,), quad_budget=1e3))
    for name in ("c1", "c2aa", "c2", "c3", "c4"):
        assert reports[name].passed, f"{name}: {reports[name].detail}"


def test_check_a_nan_sample_does_not_hide_a_violation():
    # the drift 1e6 x breaks (c2aa) and (c4) at every probe; a ring of nan
    # samples on the outermost probes must fail them too, not drop the
    # drift field from the worst-over-fields reduction
    spec = CheckSpec(radius=10.0, p_list=(2.0,))
    clean = check_assumptions(nan_ring_system(radius=np.inf), spec)
    reports = check_assumptions(nan_ring_system(radius=10.0), spec)
    for name in ("c2aa", "c4"):
        assert clean[name].status == "fail"
        assert clean[name].worst_margin < 0.0
        assert reports[name].status == "fail"
        assert np.isnan(reports[name].worst_margin)
        assert np.linalg.norm(reports[name].worst_point) == pytest.approx(10.0)


def test_check_all_singular_quadrature_counts_its_nodes_once():
    # with r_min = 5 every node of the unit-ball rule is singular: (c3) is
    # skipped at its first level, 16 radii x 16 directions, whatever p_list
    # holds; (c4) and (c4aa) are skipped over 24 x 16 probes outside R1
    s = builtin("example21", r_min=5.0)
    for p_list in [(2.0,), (1.0, 2.0)]:
        reports = check_assumptions(s, CheckSpec(p_list=p_list))
        assert reports["c3"].status == "skipped"
        assert reports["c3"].skipped_points == 256
        assert reports["c4"].skipped_points == (s.m + 1) * 384
        assert reports["c4aa"].skipped_points == 384


def test_check_counts_skipped_quadrature_nodes_once_per_order():
    s = builtin("example21", r_min=0.5)
    one = check_assumptions(s, CheckSpec(p_list=(2.0,)))["c3"]
    two = check_assumptions(s, CheckSpec(p_list=(1.0, 2.0)))["c3"]
    assert one.status == two.status == "pass"
    assert one.skipped_points > 0
    assert two.skipped_points == 2 * one.skipped_points


# ---------------------------------------------------------------------------
# builtins

def test_example21_accepts_reference_parameters():
    s = builtin("example21", d=2, q1=0.8, q2=0.5, q3=0.5, q4=1.0)
    assert s.d == s.m == 2


def test_example21_rejects_q3_above_dimension_bound():
    with pytest.raises(ParameterConstraintError) as err:
        builtin("example21", d=2, q3=0.7)
    assert err.value.constraint == "q3 < d/(d+1)"


def test_example21_rejects_other_violations():
    with pytest.raises(ParameterConstraintError) as err:
        builtin("example21", q1=0.6)
    assert "q1" in err.value.constraint
    with pytest.raises(ParameterConstraintError) as err:
        builtin("example21", q2=2.0, q4=1.0)
    assert err.value.constraint == "q4 + 2 > 2*q2"


@pytest.mark.parametrize("drift", [(1.0, 2.0), (), 3.0])
def test_constant_rejects_a_drift_that_is_not_one_number_per_dimension(
        drift):
    # a drift of another length would give a 1-d system a (n, 2) drift
    with pytest.raises(ParameterConstraintError, match="drift") as err:
        builtin("constant", d=1, drift=drift)
    assert err.value.constraint == "len(drift) == d"
    s = builtin("constant", d=2, drift=(1.0, 2.0))
    assert s.fields(np.zeros((3, 2)))[0].shape == (3, 2)


@pytest.mark.parametrize("name,params", [
    ("example21", {}),
    ("ornstein_uhlenbeck", {"d": 2}),
    ("geometric_bm", {"d": 2}),
    ("constant", {"d": 2, "drift": (0.5, -1.0)}),
])
def test_per_field_access_reads_the_batched_output(name, params):
    s = builtin(name, **params)
    x = np.random.default_rng(2).uniform(-4.0, 4.0, size=(64, s.d))
    drift, sigma = s.fields(x)
    jall = s.jacobians_stacked(x)
    assert drift.shape == (64, s.d) and sigma.shape == (64, s.d, s.m)
    assert jall.shape == (64, s.m + 1, s.d, s.d)
    np.testing.assert_array_equal(s.value(0, x), drift)
    for k in range(s.m + 1):
        if k:
            np.testing.assert_array_equal(s.value(k, x), sigma[..., k - 1])
        np.testing.assert_array_equal(s.jacobian(k, x), jall[:, k])
        # a single point has no batch axis
        np.testing.assert_array_equal(s.jacobian(k, x[5]), jall[5, k])
        np.testing.assert_array_equal(s.value(k, x[5]), s.value(k, x)[5])


def _ring(rng, n, r_lo, r_hi, d=2):
    u = rng.normal(size=(n, d))
    return u / np.linalg.norm(u, axis=-1, keepdims=True) \
        * rng.uniform(r_lo, r_hi, size=(n, 1))


def test_example21_closed_form_jacobians_match_central_differences(
        monkeypatch):
    # one closed form on every region: against a central difference of the
    # stacked fields the gap falls like h^2, also within 1e-3 of the bump
    # edges r = 1, 2, 3 and at r_min (there with steps relative to |x|)
    rng = np.random.default_rng(4)
    groups = {
        "core": ({}, _ring(rng, 40, 0.05, 0.95), 1.0),
        "annulus": ({}, _ring(rng, 40, 1.05, 2.95), 1.0),
        "shell": ({}, _ring(rng, 40, 3.05, 6.0), 1.0),
        "r=1": ({}, _ring(rng, 40, 1.0 - 1e-3, 1.0 + 1e-3), 1.0),
        "r=2": ({}, _ring(rng, 40, 2.0 - 1e-3, 2.0 + 1e-3), 1.0),
        "r=3": ({}, _ring(rng, 40, 3.0 - 1e-3, 3.0 + 1e-3), 1.0),
        "r_min": ({}, _ring(rng, 40, 1e-6, 1e-6), 1e-6),
        "d=3": ({"d": 3}, _ring(rng, 60, 0.05, 6.0, d=3), 1.0),
        "q2<0": ({"q2": -0.5}, _ring(rng, 60, 0.05, 6.0), 1.0),
    }
    calls = []
    real_fd = coefficients.fd_jacobian
    for name, (params, x, scale) in groups.items():
        s = builtin("example21", **params)
        monkeypatch.setattr(coefficients, "fd_jacobian",
                            lambda *a, **k: calls.append(1) or real_fd(*a, **k))
        exact = s.jacobians_stacked(x)
        monkeypatch.undo()
        assert exact.shape == (len(x), s.m + 1, s.d, s.d)
        gaps = [np.max(np.abs(fd_jacobian(
            lambda p: stack_fields(*s.fields(p)), x, h * scale) - exact))
            for h in (1e-3, 1e-4)]
        assert gaps[1] * 50.0 <= gaps[0], (name, gaps)
        assert gaps[1] < 1e-5 * np.max(np.abs(exact)), (name, gaps)
    assert calls == []


# example21 fields as they were computed before the closed-form Jacobians:
# the kernel now evaluates the smooth step only on its band and divides
# without masks, and must give these values bit for bit
def _reference_smooth_step(t):
    t = np.asarray(t, dtype=float)

    def phi(u):
        pos = u > 0
        return np.where(pos, np.exp(-1.0 / np.where(pos, u, 1.0)), 0.0)
    a = phi(t)
    b = phi(1.0 - t)
    return a / (a + b)


def _reference_example21_fields(x, d=2, q1=0.8, q2=0.5, q3=0.5, q4=1.0):
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    x = x.reshape(-1, d)
    r = np.linalg.norm(x, axis=-1)
    g1 = 1.0 - _reference_smooth_step(r - 2.0)
    g2 = _reference_smooth_step(r - 1.0)
    unit = np.zeros_like(x)
    pos = r > 0
    unit[pos] = x[pos] / r[pos][..., None]
    inner = g1[..., None] * (x + (r ** (1.0 - q3))[..., None] * unit)
    drift = -inner - (g2 * r**q4)[..., None] * x
    term2 = np.zeros_like(r)
    outer = r > 1.0
    term2[outer] = r[outer] ** q2 * g2[outer]
    coef = (1.0 + r**q1) * g1 + term2
    sigma = coef[..., None, None] * np.broadcast_to(np.eye(d), x.shape + (d,))
    return drift.reshape(lead + (d,)), sigma.reshape(lead + (d, d))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("params", [{}, {"q2": -0.5}, {"d": 3, "q4": 0.7}])
def test_example21_fields_bit_identical_to_reference(params):
    d = params.get("d", 2)
    rng = np.random.default_rng(11)
    special = np.concatenate([np.zeros((1, d)), np.eye(d)[:1] * 1e-7,
                              np.eye(d) * 1.0, -np.eye(d) * 2.0,
                              np.eye(d)[-1:] * 3.0])
    x = np.concatenate([special, _ring(rng, 200, 0.0, 1.0, d),
                        _ring(rng, 200, 1.0, 3.0, d),
                        _ring(rng, 200, 3.0, 8.0, d)])
    s = builtin("example21", **params)
    shaped = {"(n, d)": x, "(n, q, d)": x[:600].reshape(40, 15, d),
              "point": x[len(special) + 250]}
    for label, pts in shaped.items():
        for got, want in zip(s.fields(pts),
                             _reference_example21_fields(pts, **params)):
            assert _same_bits(got, want), label


def test_smooth_step_bit_identical_to_reference():
    rng = np.random.default_rng(12)
    t = np.concatenate([[-1.0, 0.0, 1e-300, 1e-200, 1e-7, 0.5, 1.0 - 1e-16,
                         1.0, 2.0, 1e300], rng.uniform(-1.0, 2.0, 990)])
    assert _same_bits(_smooth_step(t), _reference_smooth_step(t))
    assert _same_bits(_smooth_step(t.reshape(10, -1, 2)),
                      _reference_smooth_step(t.reshape(10, -1, 2)))
    value, slope = _smooth_step(t, slope=True)
    assert _same_bits(value, _reference_smooth_step(t))
    assert np.all(slope[(t <= 0.0) | (t >= 1.0)] == 0.0)
    band = (t > 1e-3) & (t < 1.0 - 1e-3)
    h = 1e-6
    fd = (_smooth_step(t[band] + h) - _smooth_step(t[band] - h)) / (2 * h)
    np.testing.assert_allclose(slope[band], fd, rtol=1e-6, atol=1e-9)


def test_make_system_adapts_per_field_callables():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 2, 2))

    def value(k, x):
        return np.sin(x @ a[k].T)

    def jacobian(k, x):
        return np.cos(x @ a[k].T)[..., None] * a[k]

    analytic = make_system("sines", 2, 2, value, jacobian)
    fd = make_system("sines_fd", 2, 2, value)
    x = rng.normal(size=(10, 2))
    drift, sigma = fd.fields(x)
    np.testing.assert_array_equal(drift, value(0, x))
    for k in range(3):
        if k:
            np.testing.assert_array_equal(sigma[..., k - 1], value(k, x))
        np.testing.assert_array_equal(analytic.jacobian(k, x), jacobian(k, x))
        np.testing.assert_array_equal(
            fd.jacobian(k, x), fd_jacobian(lambda p: value(k, p), x))
        np.testing.assert_allclose(fd.jacobian(k, x), jacobian(k, x),
                                   atol=1e-9)


def test_ornstein_uhlenbeck_fields():
    s = builtin("ornstein_uhlenbeck", theta=1.0, sigma=1.0, d=1)
    x = np.array([0.7])
    assert s.value(0, x)[0] == pytest.approx(-0.7)
    assert s.value(1, x)[0] == pytest.approx(1.0)


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin("nope")


# ---------------------------------------------------------------------------
# finite differences vs analytic Jacobians

@pytest.mark.parametrize("name,params,probes", [
    ("example21", {}, [[0.5, 0.1], [0.2, -0.6], [4.0, 1.0], [-5.0, 2.0]]),
    ("geometric_bm", {"d": 2}, [[1.0, 0.5], [-0.3, 2.0]]),
    ("ornstein_uhlenbeck", {"d": 2}, [[1.0, -1.0]]),
])
def test_fd_convergence_to_analytic_jacobian(name, params, probes):
    s = builtin(name, **params)
    for x in probes:
        x = np.array(x)
        for k in range(s.m + 1):
            exact = s.jacobian(k, x)
            scale = max(1.0, float(np.max(np.abs(s.value(k, x)))))
            errs = []
            for h in (1e-4, 1e-5):
                fd = fd_jacobian(lambda p: s.value(k, p), x, h)
                errs.append(np.max(np.abs(fd - exact)))
            if errs[1] / scale < 1e-10:
                continue  # at or below the round-off floor; converged
            slope = np.log10(errs[0] / errs[1])
            assert slope >= 1.8, (name, k, x, errs)
