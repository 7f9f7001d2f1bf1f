"""Tests for coefficient systems, spectral diagnostics and condition checks."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from flowlab import (
    CheckSpec,
    CoefficientSystem,
    ParameterConstraintError,
    SingularPointError,
    builtin,
    check_assumptions,
    gram,
    kp_max,
    make_system,
    mollified_family,
    theta_g,
    truncate,
)
from flowlab import coefficients
from flowlab.coefficients import (
    _constant_report,
    _kp,
    _margin_report,
    _smooth_step,
    fd_jacobian,
    gated_right_inverse,
    row_norm,
    stack_fields,
    sym_eig_range,
)
from flowlab.engine import BatchEuler, IntegratorConfig
from flowlab.quadrature import sphere_points

from systems import (
    clamp_to_sphere,
    linear_system,
    nan_ring_system,
    nan_sigma_system,
    scalar_drift_system,
    sqrt_field_system,
)


# ---------------------------------------------------------------------------
# row norm

def _norm_inputs(d):
    """Rows of width d: random, zero, subnormal, 1e200 (whose square
    overflows), inf and nan entries, with either sign."""
    rng = np.random.default_rng(d)
    x = rng.standard_normal((60, d)) * 10.0 ** rng.integers(-3, 4, (60, d))
    specials = [0.0, -0.0, 5e-324, -2.5e-320, 1e200, -1e200, np.inf,
                -np.inf, np.nan]
    for i, value in enumerate(specials):
        x[i] = value                              # whole row
        x[len(specials) + i, i % d] = value       # one entry
    x[2 * len(specials)] = specials[:d] + [0.0] * max(0, d - len(specials))
    return x


@pytest.mark.parametrize("d", range(1, 11))
def test_row_norm_is_bitwise_linalg_norm(d):
    x = _norm_inputs(d)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for arr in (*x[:, None, :], x, x.reshape(12, 5, d),
                    x.reshape(5, 12, d).transpose(1, 0, 2)):
            mine, ref = row_norm(arr), np.linalg.norm(arr, axis=-1)
            assert type(mine) is type(ref)
            assert np.shape(mine) == np.shape(ref)
            assert np.asarray(mine).tobytes() == np.asarray(ref).tobytes()
        for row in x:  # shape (d,): a scalar, as from np.linalg.norm
            mine, ref = row_norm(row), np.linalg.norm(row, axis=-1)
            assert type(mine) is type(ref)
            assert np.asarray(mine).tobytes() == np.asarray(ref).tobytes()


def test_euler_steps_and_member_calls_take_no_linalg_norm(monkeypatch):
    # every radius and guard norm of a step and of a member call goes
    # through row_norm; a start in the r_min ball runs the Jacobians' clamp
    s = builtin("example21")
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-1.5, 1.5, (16, 2))
    x0[0] = [5e-7, 0.0]
    dws = rng.normal(0.0, 0.1, (16, 10, 2))
    member = mollified_family(s, eps0=0.25, n_radial=4,
                              n_angular=8).member(0.1)
    # a core point and one beyond the truncation sphere R = 4
    pts = np.array([[0.3, 0.1], [5.0, -1.0]])
    calls = []
    norm = np.linalg.norm

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return norm(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "norm", counting)
    drv = BatchEuler(s, x0, [1.0, 0.0], dws,
                     IntegratorConfig(h=1e-2, T=0.1)).run()
    assert drv.step_index == 10 and drv.clamped[0] >= 1
    assert calls == []
    member.fields(pts)
    member.jacobians_stacked(pts)
    assert calls == []


# ---------------------------------------------------------------------------
# diffusion matrix

def diffusion_matrix(s, x):
    """A(x) = Sigma(x) Sigma(x)^T for the system s."""
    return gram(s.sigma(np.asarray(x, dtype=float)))


def test_gram_constant_scalar():
    s = builtin("constant", sigma=2.0, d=1)
    a = diffusion_matrix(s, [0.3])
    assert a.shape == (1, 1)
    assert a[0, 0] == pytest.approx(4.0, abs=0.0)


def test_gram_example21_identity_at_origin():
    s = builtin("example21")
    a = diffusion_matrix(s, np.zeros(2))
    np.testing.assert_allclose(a, np.eye(2), atol=1e-14)


def test_gram_example21_far_field():
    # q2 = 0.5, |x| = 9 is outside both bumps: X_k = |x|^{1/2} e_k, A = 9 I
    s = builtin("example21", q2=0.5)
    a = diffusion_matrix(s, [9.0, 0.0])
    np.testing.assert_allclose(a, 9.0 * np.eye(2), rtol=1e-12)
    a2 = diffusion_matrix(s, 9.0 / np.sqrt(2.0) * np.ones(2))
    np.testing.assert_allclose(a2, 9.0 * np.eye(2), rtol=1e-12)


@pytest.mark.parametrize("name,params", [
    ("example21", {}),
    ("ornstein_uhlenbeck", {"d": 2}),
    ("geometric_bm", {"d": 2}),
])
def test_gram_symmetric_psd(name, params):
    s = builtin(name, **params)
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.normal(size=s.d) * 3.0
        a = diffusion_matrix(s, x)
        assert np.max(np.abs(a - a.T)) < 1e-14
        assert np.linalg.eigvalsh(a)[0] >= -1e-12


# the entries a faster gram must keep: signed zeros, subnormals, the edge of
# overflow, infinities and nan
GRAM_SPECIALS = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e200, -1e200,
                          np.inf, -np.inf, np.nan])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("lead", [(), (7,), (5, 3)],
                         ids=["(d,m)", "(n,d,m)", "(n,q,d,m)"])
def test_gram_bit_identical_to_einsum(m, lead):
    # the contract of gram: np.einsum("...ik,...jk->...ij") bit for bit,
    # also where a product overflows or meets inf * 0; a nan entry must
    # stay nan, but its payload is not part of the contract
    rng = np.random.default_rng(m)
    for d in (1, 2, 3):
        sig = rng.normal(size=lead + (d, m)) * 10.0 ** rng.integers(
            -3, 3, size=lead + (d, m))
        flat = sig.reshape(-1)
        at = rng.choice(flat.size, size=min(flat.size, 2 * len(GRAM_SPECIALS)),
                        replace=False)
        flat[at] = np.resize(GRAM_SPECIALS, len(at))
        want = np.einsum("...ik,...jk->...ij", sig, sig)
        got = gram(sig)
        assert got.shape == want.shape == lead + (d, d)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64),
                              want[~nan].view(np.int64)), (d, m, lead)


def _sigma_sigma_t_einsums(path):
    """(line, subscripts) of every np.einsum(spec, a, a) in the module at
    path whose two operands are the same expression and that sums over the
    last index of both: a product a a^T."""
    sites = []
    for call in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "einsum" and len(call.args) == 3
                and isinstance(call.args[0], ast.Constant)):
            continue
        inputs, _, out = call.args[0].value.replace("...", "").partition("->")
        left, right = inputs.split(",")
        if (ast.dump(call.args[1]) == ast.dump(call.args[2])
                and left[-1] == right[-1] and left[-1] not in out):
            sites.append((call.lineno, call.args[0].value))
    return sites


def test_gram_is_the_only_sigma_sigma_transpose():
    # every A = Sigma Sigma^T is formed by coefficients.gram, so that a
    # faster kernel there serves the checker, the BEL weight and krylov
    src = Path(coefficients.__file__).parent
    found = [(path.name, *site) for path in sorted(src.glob("*.py"))
             for site in _sigma_sigma_t_einsums(path)]
    lines, first = inspect.getsourcelines(gram)
    assert [(name, spec) for name, _, spec in found] == [
        ("coefficients.py", "...ik,...jk->...ij")]
    assert first <= found[0][1] < first + len(lines)


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

    def jacobian(k, x):
        return np.zeros(np.shape(x) + (2,))

    s = make_system("skew_columns", 2, 2, value, jacobian)
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


@pytest.mark.parametrize("d", [2, 3])
def test_check_fails_a_diffusion_matrix_that_is_not_finite(d):
    # the diffusion fields are nan on the probes with |x| >= 5: (c1) reads A
    # off the checker's one field pass and fails there with a nan margin,
    # as (c2aa) and (c2) do, and every other report is still made; in d = 3
    # the eigenvalues of A come from eigvalsh, which is given no nan matrix
    reports = check_assumptions(nan_sigma_system(radius=5.0, d=d))
    assert sorted(reports) == ["c1", "c2", "c2aa", "c3", "c4", "c4aa"]
    for name in ("c1", "c2aa", "c2"):
        assert reports[name].status == "fail", name
        assert np.isnan(reports[name].worst_margin), name
    # the worst point is the first nan sample: the innermost probe ring
    # outside |x| = 5
    radii = np.geomspace(1e-2, 10.0, 24)
    assert np.linalg.norm(reports["c1"].worst_point) == pytest.approx(
        radii[radii >= 5.0][0], rel=1e-12)


def test_sym_eig_range_of_a_matrix_with_nan_is_nan():
    # eigvalsh gives [0, -0, 1] for this matrix, so a nan sample could pass
    a = np.stack([np.eye(3), np.eye(3)])
    a[1, 0, 0] = np.nan
    lo, hi = sym_eig_range(a)
    assert lo[0] == hi[0] == 1.0
    assert np.isnan(lo[1]) and np.isnan(hi[1])
    assert np.isnan(sym_eig_range(a[1])).all()  # one matrix, no batch axis


def test_kp_is_nan_at_a_jacobian_with_nan_only():
    rng = np.random.default_rng(5)
    jall = rng.normal(size=(6, 3, 3, 3))
    clean = _kp(jall, 2.0)[0]
    jall[2, 1, 0, 0] = np.nan
    kp, mat = _kp(jall, 2.0)
    assert np.isnan(kp[2])
    others = np.arange(6) != 2
    assert kp[others].tobytes() == clean[others].tobytes()
    assert kp[others].tobytes() == \
        np.linalg.eigvalsh(mat[others])[..., -1].tobytes()


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


def _reference_c1_c2(system, spec):
    """(c1), (c2aa) and (c2) as the checker computed them with one field
    call per probe set and per (c2) offset: the bit-level reference of its
    single field pass over every offset."""
    c, d = system.constants, system.d
    radii = np.geomspace(1e-3 * spec.radius, spec.radius, 24)
    dirs, _ = sphere_points(d, 16)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, d)
    r = np.linalg.norm(pts, axis=-1)
    sig = system.sigma(pts)
    lo, _ = sym_eig_range(np.einsum("...ik,...jk->...ij", sig, sig))
    c1 = _margin_report("c1", lo - c.C1 / (1.0 + r**c.p1), pts,
                        {"C1": c.C1, "p1": c.p1})
    norms = np.linalg.norm(stack_fields(*system.fields(pts)), axis=-1)
    c2aa = _margin_report("c2aa", c.C2 * (1.0 + r**c.p2) - norms.T, pts,
                          {"C2": c.C2, "p2": c.p2})
    y_dirs, _ = sphere_points(d, 6)
    y_radii = np.linspace(0.0, c.delta, 6)
    offsets = (y_radii[:, None, None] * y_dirs[None, :, :]).reshape(-1, d)
    best = {p: -np.inf for p in spec.p_list}
    for y in offsets:
        drift, sigma = system.fields(pts + y)
        s = np.zeros(len(pts))
        for k in range(system.m):
            s += np.sum(sigma[..., k] ** 2, axis=-1)
        inner = np.sum(pts * drift, axis=-1)
        for p in spec.p_list:
            best[p] = np.maximum(best[p], (p * s + inner) / (1.0 + r * r))
    c2 = _constant_report("c2", {p: float(np.max(b)) for p, b in best.items()},
                          {"delta": c.delta})
    return {"c1": c1, "c2aa": c2aa, "c2": c2}


CHECKED_SYSTEMS = {
    "example21": lambda: builtin("example21"),
    "example21_d3": lambda: builtin("example21", d=3, q4=0.7),
    "example21_q2neg": lambda: builtin("example21", q2=-0.5),
    "ou_d2": lambda: builtin("ornstein_uhlenbeck", d=2),
    "gbm": lambda: builtin("geometric_bm"),
    "constant_d2": lambda: builtin("constant", d=2, drift=(0.5, -1.0)),
    "additive_noise": lambda: builtin("additive_noise", sigma=0.5),
    "linear": linear_system,
    "sqrt_field": sqrt_field_system,
    "pure_drift": scalar_drift_system,
    "nan_ring": lambda: nan_ring_system(radius=5.0),
    "nan_sigma": nan_sigma_system,
}


@pytest.mark.parametrize("spec", [CheckSpec(),
                                  CheckSpec(radius=3.0, p_list=(1.0, 2.0, 4.0))],
                         ids=["default", "r3_p124"])
@pytest.mark.parametrize("name", sorted(CHECKED_SYSTEMS))
def test_check_c1_c2_one_field_pass_bit_identical_to_per_offset_calls(
        name, spec):
    # (c2aa) and (c2) read one field pass over every offset, and nan samples
    # (nan_ring) and the 50-point sphere set (d = 3) keep their bits too
    system = CHECKED_SYSTEMS[name]()
    reports = check_assumptions(system, spec)
    for key, ref in _reference_c1_c2(system, spec).items():
        got = reports[key]
        assert got.status == ref.status, key
        assert np.float64(got.worst_margin).tobytes() == \
            np.float64(ref.worst_margin).tobytes(), key
        assert np.array_equal(got.worst_point, ref.worst_point), key
        assert repr(got.detail) == repr(ref.detail), key


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


def _ball_points(r_min):
    """The origin, points inside the r_min ball and just below its radius,
    its sphere, the core, the bump annulus and beyond R = 4."""
    u = np.array([0.6, -0.8])
    return np.array([
        [0.0, 0.0], [0.5 * r_min, 0.0], [0.0, -0.25 * r_min],
        0.5 * r_min * u, 1e-3 * r_min * u, [np.nextafter(r_min, 0.0), 0.0],
        [r_min, 0.0], [0.0, -r_min], [0.3, 0.0], [1.5, 0.4], [-2.2, 1.1],
        [5.0, 1.0], [0.0, -9.0]])


@pytest.mark.parametrize("shape", ["n_d", "n_q_d", "point"])
@pytest.mark.parametrize("system", ["example21", "example21_r1e-3",
                                    "truncated"])
def test_example21_jacobians_evaluate_the_ball_on_its_sphere(system, shape):
    # the Jacobians of a point inside the r_min ball are those of its clamp
    # image, bit for bit, and finite at the origin
    s = {"example21": lambda: builtin("example21"),
         "example21_r1e-3": lambda: builtin("example21", r_min=1e-3),
         "truncated": lambda: truncate(builtin("example21"), 4.0)}[system]()
    pts = _ball_points(s.r_min)
    clamped = clamp_to_sphere(pts, s.r_min)
    # no clamp image is itself inside the ball, so the Jacobians at it are
    # taken where the clamp put it
    assert np.all(np.linalg.norm(clamped, axis=-1) >= s.r_min)
    assert np.any(np.linalg.norm(pts, axis=-1) < s.r_min)
    xs = {"n_d": [pts],
          "n_q_d": [np.stack([pts, pts[::-1]], axis=1)],
          "point": list(pts)}[shape]
    for x in xs:
        jall = s.jacobians_stacked(x)
        assert jall.shape == np.shape(x)[:-1] + (s.m + 1, s.d, s.d)
        assert np.all(np.isfinite(jall))
        np.testing.assert_array_equal(
            jall, s.jacobians_stacked(clamp_to_sphere(x, s.r_min)))


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

    s = make_system("sines", 2, 2, value, jacobian)
    x = rng.normal(size=(10, 2))
    drift, sigma = s.fields(x)
    np.testing.assert_array_equal(drift, value(0, x))
    for k in range(3):
        if k:
            np.testing.assert_array_equal(sigma[..., k - 1], value(k, x))
        np.testing.assert_array_equal(s.jacobian(k, x), jacobian(k, x))


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
