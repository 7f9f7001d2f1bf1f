"""Table of the library's argument checks: each call must raise its
exception type with a message that names the problem."""

import math

import numpy as np
import pytest

from flowlab import (
    AssumptionConstants,
    CheckSpec,
    IntegratorConfig,
    SmoothBump,
    bel_gradient,
    builtin,
    check_assumptions,
    derivative_moment,
    family_convergence,
    fd_gradient,
    flow_moment_bound_check,
    holder_modulus,
    ibp_residual,
    increments_block,
    kp_max,
    krylov_check,
    lp_distance,
    mollified_family,
    mollifier,
    select_lambda0,
    theta_g,
)
from flowlab.errors import ParameterConstraintError
from flowlab.estimators import PAYOFFS, exp_representation_gaps
from flowlab.quadrature import annulus_rule, sphere_points, unit_ball_rule

CFG = IntegratorConfig(h=0.05, T=0.25)
GOOD = dict(p1=0.5, p2=1.0, p3=8.0, p4=4.0, p5=0.5, C1=1.0, C2=2.0, C3=2.0,
            R1=1.0)


def constants(**changed):
    return AssumptionConstants(**{**GOOD, **changed})


def ou(**params):
    return builtin("ornstein_uhlenbeck", **params)


# a point of the 2-d example21 with one coordinate: the drivers would spread
# it over both
EX21 = builtin("example21")
SHORT = [0.3]
X, V = [0.3, 0.0], [1.0, 0.0]
SHORT_POINT = "x0 and v0 must end in the d = 2 coordinates of example21"
IDENTITY = PAYOFFS["identity"]
FAMILY = mollified_family(EX21, eps0=0.25)
SEED_RANGE = "master_seed must be an integer in [0, 2**64)"


def ibp(i_coord):
    """ibp_residual on the 2-d OU, with coordinate i_coord."""
    return ibp_residual(ou(d=2), 0.25, 1.0, 5, SmoothBump(0.8, d=2), i_coord,
                        1, CFG)


CHECKS = {
    "constants_p1": (lambda: constants(p1=0.0).validate(2), ValueError,
                     "constant p1 must be strictly positive"),
    "constants_delta": (lambda: constants(delta=1.5).validate(2), ValueError,
                        "delta must lie in (0, 1]"),
    "constants_p3": (lambda: constants(p3=6.0).validate(2), ValueError,
                     "p3 must exceed 2(d+1) = 6"),
    "constants_p4": (lambda: constants(p4=3.0).validate(2), ValueError,
                     "p4 must exceed d+1 = 3"),
    "example21_q1": (lambda: builtin("example21", q1=1.0),
                     ParameterConstraintError, "q1 < 1"),
    "example21_q3_lower": (lambda: builtin("example21", q1=0.8, q3=0.3),
                           ParameterConstraintError, "q3 > 2(1-q1) = 0.4"),
    "example21_q4": (lambda: builtin("example21", q4=-0.5),
                     ParameterConstraintError, "q3 > 0 and q4 > 0"),
    "ou_theta": (lambda: ou(theta=0.0), ParameterConstraintError,
                 "theta > 0 and sigma > 0"),
    "ou_sigma": (lambda: ou(sigma=-1.0), ParameterConstraintError,
                 "theta > 0 and sigma > 0"),
    "gbm_sigma": (lambda: builtin("geometric_bm", sigma=0.0),
                  ParameterConstraintError, "geometric_bm requires sigma > 0"),
    "value_k": (lambda: ou().value(2, np.zeros(1)), IndexError,
                "field index 2 outside 0..1"),
    "jacobian_k": (lambda: ou().jacobian(-1, np.zeros(1)), IndexError,
                   "field index -1 outside 0..1"),
    "kp_max_p": (lambda: kp_max(ou(), np.zeros(1), 0.0), ValueError,
                 "order p must be positive"),
    "theta_g_lambda": (lambda: theta_g(ou(), -1.0), ValueError,
                       "lambda must be positive"),
    "fd_gradient_delta": (
        lambda: fd_gradient(ou(), [0.0], [1.0], PAYOFFS["identity"], 0.25, 4,
                            0.0, CFG),
        ValueError, "bump size delta must be positive"),
    "krylov_f_norm": (
        lambda: krylov_check(ou(), [0.0], 0.25, 1.0, 4, CFG,
                             f=lambda ts, xs: np.ones(xs.shape[:-1])),
        ValueError, "custom f requires its cylinder L^{d+1} norm f_norm"),
    "holder_equal_points": (
        lambda: holder_modulus(ou(), [([0.5], [0.5])], 2.0, 0.25, 4, CFG),
        ValueError, "pair points must be distinct"),
    "derivative_moment_short_x": (
        lambda: derivative_moment(EX21, SHORT, V, 2.0, 0.25, 4, CFG),
        ValueError, SHORT_POINT),
    "bel_gradient_short_v": (
        lambda: bel_gradient(EX21, X, SHORT, IDENTITY, 0.25, 4, CFG),
        ValueError, SHORT_POINT),
    "fd_gradient_short_x": (
        lambda: fd_gradient(EX21, SHORT, V, IDENTITY, 0.25, 4, 1e-3, CFG),
        ValueError, "x and v must end in the d = 2 coordinates of example21"),
    "fd_gradient_short_v": (
        lambda: fd_gradient(EX21, X, SHORT, IDENTITY, 0.25, 4, 1e-3, CFG),
        ValueError, "x and v must end in the d = 2 coordinates of example21"),
    "krylov_short_x": (lambda: krylov_check(EX21, SHORT, 0.25, 1.0, 4, CFG),
                       ValueError, SHORT_POINT),
    "holder_short_point": (
        lambda: holder_modulus(EX21, [(SHORT, X)], 2.0, 0.25, 4, CFG),
        ValueError, SHORT_POINT),
    "holder_no_pairs": (lambda: holder_modulus(EX21, [], 2.0, 0.25, 4, CFG),
                        ValueError, "pairs must hold at least one pair"),
    "flow_bound_short_x": (
        lambda: flow_moment_bound_check(EX21, SHORT, 1.0, 0.25, 4, CFG,
                                        theta_points=8),
        ValueError, SHORT_POINT),
    "flow_bound_no_checkpoint": (
        lambda: flow_moment_bound_check(EX21, X, 1.0, 0.25, 4, CFG,
                                        n_checkpoints=0, theta_points=8),
        ValueError, "n_checkpoints must be at least 1, got 0"),
    "family_short_v": (
        lambda: family_convergence(FAMILY, [0.2, 0.1], X, SHORT, 0.25, 4,
                                   CFG),
        ValueError, SHORT_POINT),
    "family_one_eps": (
        lambda: family_convergence(FAMILY, [0.2], X, V, 0.25, 4, CFG),
        ValueError, "eps_list must hold at least two radii, got [0.2]"),
    "ibp_negative_coordinate": (lambda: ibp(-1), ValueError,
                                "i_coord must be an integer in 0..1, got -1"),
    "ibp_coordinate_d": (lambda: ibp(2), ValueError,
                         "i_coord must be an integer in 0..1, got 2"),
    "holder_p_zero": (
        lambda: holder_modulus(ou(), [([0.0], [0.5])], 0.0, 0.25, 4, CFG),
        ValueError, "moment order p must be positive, got 0.0"),
    "holder_p_negative": (
        lambda: holder_modulus(ou(), [([0.0], [0.5])], -1.0, 0.25, 4, CFG),
        ValueError, "moment order p must be positive, got -1.0"),
    # the start is short too: lam is checked before any path is stepped
    "flow_bound_lam_zero": (
        lambda: flow_moment_bound_check(EX21, SHORT, 0.0, 0.25, 4, CFG,
                                        theta_points=8),
        ValueError, "lambda must be positive"),
    "flow_bound_theta_points": (
        lambda: flow_moment_bound_check(EX21, X, 1.0, 0.25, 4, CFG,
                                        theta_points=1),
        ValueError, "a box grid needs at least 2 points per axis, got 1"),
    "check_no_orders": (
        lambda: check_assumptions(ou(), CheckSpec(p_list=())), ValueError,
        "p_list must hold at least one moment order"),
    "check_negative_radius": (
        lambda: check_assumptions(ou(), CheckSpec(radius=-10.0)), ValueError,
        "probe radius must be positive, got -10.0"),
    "increments_negative_seed": (
        lambda: increments_block(-1, 0, 1, 4, 0.05, 1), ValueError,
        f"{SEED_RANGE}, got -1"),
    "increments_seed_2_64": (
        lambda: increments_block(2**64, 0, 1, 4, 0.05, 1), ValueError,
        f"{SEED_RANGE}, got {2**64}"),
    "exp_representation_short_x": (
        lambda: exp_representation_gaps(EX21, SHORT, V, 2.0, 0.25, 4, CFG),
        ValueError, SHORT_POINT),
    "mollifier_eps": (lambda: mollifier(2, 0.0), ValueError,
                      "mollifier radius eps must be positive"),
    "select_lambda0_p3": (lambda: select_lambda0(constants(p3=2.0), 2),
                          ValueError, "p3 must exceed d"),
    "lp_distance_mode": (lambda: lp_distance(ou(), ou(), 0, 1.0, 2.0,
                                             mode="gradients"),
                         ValueError, "mode must be 'values' or 'jacobians'"),
    "sphere_d4": (lambda: sphere_points(4, 8), ValueError,
                  "sphere rules implemented for d <= 3, got d=4"),
    "ball_d4": (lambda: unit_ball_rule(4), ValueError,
                "ball rules implemented for d <= 3, got d=4"),
    "annulus_empty": (lambda: annulus_rule(2, 1.0, 1.0, 4, 8), ValueError,
                      "need 0 <= r_inner < r_outer"),
    "annulus_negative": (lambda: annulus_rule(2, -0.5, 1.0, 4, 8), ValueError,
                         "need 0 <= r_inner < r_outer"),
}


@pytest.mark.parametrize("case", sorted(CHECKS))
def test_argument_check_raises_its_type_and_names_the_problem(case):
    call, kind, fragment = CHECKS[case]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert fragment in str(info.value)


def test_krylov_check_d3_reads_det_from_the_general_branch():
    # A = sigma^2 I_3, so det(A)^{1/4} = sigma^{3/2} at every step; f = 1
    # and R = 100 keep every step of every path, and lhs = T sigma^{3/2}
    T, sigma = 0.25, 2.0
    rep = krylov_check(builtin("constant", sigma=sigma, d=3), np.zeros(3), T,
                       100.0, 4, CFG)
    assert rep.lhs == pytest.approx(T * sigma**1.5, rel=1e-12)
    assert rep.lhs_std_error == pytest.approx(0.0, abs=1e-12)
    assert math.isfinite(rep.ratio)
