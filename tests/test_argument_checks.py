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
    truncate,
)
from flowlab.errors import ParameterConstraintError, RadiusTooSmallError
from flowlab.estimators import PAYOFFS, exp_representation_gaps
from flowlab.quadrature import (
    annulus_rule,
    box_grid,
    sphere_points,
    unit_ball_rule,
)

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
FIRST_PATH_RANGE = "first_path must be an integer in [0, 2**64 - n_paths]"
BOX_DOMAIN = "grid half-width box must be positive and finite"
RADIUS_DOMAIN = "bump radius must be positive and finite"
ORDER_DOMAIN = "moment order p must be positive and finite"
DELTA_DOMAIN = "bump size delta must be positive and finite"
PATHS_DOMAIN = "n_paths must be an integer of at least 1"


def moment(p=2.0, n_paths=4):
    """derivative_moment on the 1-d OU with order p and n_paths paths."""
    return derivative_moment(ou(), [0.0], [1.0], p, 0.25, n_paths, CFG)


def fd(delta):
    """fd_gradient on the 1-d OU with bump size delta."""
    return fd_gradient(ou(), [0.0], [1.0], IDENTITY, 0.25, 4, delta, CFG)


def ibp(i_coord=0, box=1.0):
    """ibp_residual on the 2-d OU, with coordinate i_coord and grid
    half-width box."""
    return ibp_residual(ou(d=2), 0.25, box, 5, SmoothBump(0.8), i_coord, 1,
                        CFG)


CHECKS = {
    "constants_p1": (lambda: constants(p1=0.0).validate(2), ValueError,
                     "constant p1 must be positive and finite, got 0.0"),
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
    # the majorant was inf and the ratio 0.0
    "krylov_R_inf": (
        lambda: krylov_check(ou(), [0.0], 0.25, math.inf, 4, CFG), ValueError,
        "ball radius R must be positive and finite, got inf"),
    "krylov_R_nan": (
        lambda: krylov_check(ou(), [0.0], 0.25, math.nan, 4, CFG), ValueError,
        "ball radius R must be positive and finite, got nan"),
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
        ValueError, "n_checkpoints must be an integer of at least 1, got 0"),
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
        ValueError, f"{ORDER_DOMAIN}, got 0.0"),
    "holder_p_negative": (
        lambda: holder_modulus(ou(), [([0.0], [0.5])], -1.0, 0.25, 4, CFG),
        ValueError, f"{ORDER_DOMAIN}, got -1.0"),
    # the start is short too: lam is checked before any path is stepped
    "flow_bound_lam_zero": (
        lambda: flow_moment_bound_check(EX21, SHORT, 0.0, 0.25, 4, CFG,
                                        theta_points=8),
        ValueError, "lambda must be positive"),
    "flow_bound_theta_points": (
        lambda: flow_moment_bound_check(EX21, X, 1.0, 0.25, 4, CFG,
                                        theta_points=1),
        ValueError,
        "box grid n_points must be an integer of at least 2, got 1"),
    "check_no_orders": (
        lambda: check_assumptions(ou(), CheckSpec(p_list=())), ValueError,
        "p_list must hold at least one moment order"),
    "check_negative_radius": (
        lambda: check_assumptions(ou(), CheckSpec(radius=-10.0)), ValueError,
        "probe radius must be positive and finite, got -10.0"),
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
    "mollifier_eps_nan": (lambda: mollifier(2, math.nan), ValueError,
                          "mollifier radius eps must be positive and finite, got nan"),
    "family_lambda0_negative": (
        lambda: mollified_family(ou(d=2), lambda0=-1.0), ValueError,
        "lambda0 must be positive and finite, got -1.0"),
    "family_lambda0_zero": (
        lambda: mollified_family(ou(d=2), lambda0=0.0), ValueError,
        "lambda0 must be positive and finite, got 0.0"),
    "family_eps0_negative": (
        lambda: mollified_family(ou(d=2), eps0=-1.0), ValueError,
        "eps0 must be positive and finite, got -1.0"),
    "increments_negative_first_path": (
        lambda: increments_block(0, -1, 1, 4, 0.05, 1), ValueError,
        f"{FIRST_PATH_RANGE} for n_paths = 1, got -1"),
    "increments_last_path_2_64": (
        lambda: increments_block(0, 2**64 - 1, 2, 4, 0.05, 1), ValueError,
        f"{FIRST_PATH_RANGE} for n_paths = 2, got {2**64 - 1}"),
    "mollifier_eps_inf": (lambda: mollifier(2, math.inf), ValueError,
                          "mollifier radius eps must be positive and finite, "
                          "got inf"),
    "ibp_box_zero": (lambda: ibp(box=0.0), ValueError,
                     f"{BOX_DOMAIN}, got 0.0"),
    "ibp_box_negative": (lambda: ibp(box=-1.0), ValueError,
                         f"{BOX_DOMAIN}, got -1.0"),
    # every start fails, and the residual read 0.0
    "ibp_box_inf": (lambda: ibp(box=math.inf), ValueError,
                    f"{BOX_DOMAIN}, got inf"),
    "bump_radius_zero": (lambda: SmoothBump(0.0), ValueError,
                         f"{RADIUS_DOMAIN}, got 0.0"),
    "bump_radius_negative": (lambda: SmoothBump(-1.0), ValueError,
                             f"{RADIUS_DOMAIN}, got -1.0"),
    "bump_radius_inf": (lambda: SmoothBump(math.inf), ValueError,
                        f"{RADIUS_DOMAIN}, got inf"),
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
    # values the checks once let through (nan past `x <= 0`, inf past
    # `not x > 0`, a fraction past `x < 1`); a comment says what a call did
    # the explosion guard was off: no path ever exploded
    "guard_radius_nan": (lambda: IntegratorConfig(guard_radius=math.nan),
                         ValueError,
                         "guard_radius must be positive and finite, got nan"),
    "h_nan": (lambda: IntegratorConfig(h=math.nan), ValueError,
              "step size h must be positive and finite, got nan"),
    # every path was reported failed
    "fd_gradient_delta_nan": (lambda: fd(math.nan), ValueError,
                              f"{DELTA_DOMAIN}, got nan"),
    "fd_gradient_delta_inf": (lambda: fd(math.inf), ValueError,
                              f"{DELTA_DOMAIN}, got inf"),
    # p = inf returned 0.0 +- 0.0
    "derivative_moment_p_nan": (lambda: moment(p=math.nan), ValueError,
                                f"{ORDER_DOMAIN}, got nan"),
    "derivative_moment_p_inf": (lambda: moment(p=math.inf), ValueError,
                                f"{ORDER_DOMAIN}, got inf"),
    # these returned nan
    "holder_p_nan": (
        lambda: holder_modulus(ou(), [([0.0], [0.5])], math.nan, 0.25, 4,
                               CFG),
        ValueError, f"{ORDER_DOMAIN}, got nan"),
    "theta_g_lambda_nan": (lambda: theta_g(ou(), math.nan), ValueError,
                           "lambda must be positive and finite, got nan"),
    "kp_max_p_nan": (lambda: kp_max(ou(), np.zeros(1), math.nan), ValueError,
                     "order p must be positive and finite, got nan"),
    "truncate_R_nan": (lambda: truncate(ou(), math.nan), RadiusTooSmallError,
                       "truncation radius nan below admissible minimum"),
    "check_radius_inf": (lambda: CheckSpec(radius=math.inf), ValueError,
                         "probe radius must be positive and finite, got inf"),
    # (nan,) ran and failed (c2); (-1.0,) failed late, inside the checks
    "check_p_list_nan": (lambda: CheckSpec(p_list=(math.nan,)), ValueError,
                         "moment order p in p_list must be positive and "
                         "finite, got nan"),
    "check_p_list_negative": (lambda: CheckSpec(p_list=(-1.0,)), ValueError,
                              "moment order p in p_list must be positive "
                              "and finite, got -1.0"),
    "constants_p1_nan": (lambda: constants(p1=math.nan).validate(2),
                         ValueError,
                         "constant p1 must be positive and finite, got nan"),
    # a fraction raised a TypeError out of range() or linspace(), and True
    # ran one path
    "n_paths_fraction": (lambda: moment(n_paths=2.5), ValueError,
                         f"{PATHS_DOMAIN}, got 2.5"),
    "n_paths_bool": (lambda: moment(n_paths=True), ValueError,
                     f"{PATHS_DOMAIN}, got True"),
    "box_grid_fraction": (lambda: box_grid(2, 1.0, 2.5), ValueError,
                          "box grid n_points must be an integer of at least "
                          "2, got 2.5"),
    # these built systems whose fields were nan
    "ou_theta_nan": (lambda: ou(theta=math.nan), ParameterConstraintError,
                     "theta > 0 and sigma > 0"),
    "gbm_sigma_nan": (lambda: builtin("geometric_bm", sigma=math.nan),
                      ParameterConstraintError,
                      "geometric_bm requires sigma > 0"),
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
