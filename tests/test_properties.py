"""Property tests: the derivative flow v_t = DF_t(x) v_0 is linear in v_0,
and on linear systems the BEL weight and finite differences agree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlab import (PAYOFFS, IntegratorConfig, bel_gradient, builtin,
                     derivative_moment, fd_gradient, make_system)
from flowlab.engine import BatchEuler, increments_block

SYSTEMS = {
    "ornstein_uhlenbeck": lambda: builtin("ornstein_uhlenbeck", theta=1.0,
                                          sigma=0.5),
    "geometric_bm": lambda: builtin("geometric_bm", mu=0.1, sigma=0.2),
    "example21": lambda: builtin("example21"),
}

CFG = IntegratorConfig(h=1e-2, T=0.1)
# the conftest profile: derandomized, no deadline, no example database
PROPERTY = settings(max_examples=30)

coordinate = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
unit_scale = st.floats(0.25, 4.0)


def vectors(d, elements):
    return st.lists(elements, min_size=d, max_size=d).map(np.array)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@PROPERTY
@given(k=st.integers(-8, 8), sign=st.sampled_from([1.0, -1.0]),
       p=st.sampled_from([1.0, 2.0, 4.0]), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_derivative_moment_scales_exactly_with_v0(name, k, sign, p, seed,
                                                  data):
    # multiplying by a power of two is exact in floating point, so the
    # linear v update, |v|^p and the mean over paths all scale exactly
    system = SYSTEMS[name]()
    x = data.draw(vectors(system.d, coordinate))
    v = data.draw(vectors(system.d, unit_scale))
    c = sign * 2.0**k
    base = derivative_moment(system, x, v, p, t=0.1, n_paths=16, cfg=CFG,
                             master_seed=seed)
    scaled = derivative_moment(system, x, c * v, p, t=0.1, n_paths=16,
                               cfg=CFG, master_seed=seed)
    assert scaled.value == abs(c) ** p * base.value
    assert scaled.std_error == abs(c) ** p * base.std_error


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), near_origin=st.booleans(),
       data=st.data())
def test_state_does_not_depend_on_v0(name, seed, near_origin, data):
    # a derivative-free batch (v_0 = 0) steps x exactly as a batch that
    # carries a tangent vector does, and keeps v exactly 0
    system = SYSTEMS[name]()
    n, d = 8, system.d
    x0 = data.draw(vectors(d, coordinate))
    if near_origin:
        x0 = x0 * 1e-7
    v0 = np.random.default_rng(seed).standard_normal((n, d))
    dws = increments_block(seed, 0, n, CFG.n_steps, CFG.h, system.m)
    starts = np.tile(x0, (n, 1))
    free = BatchEuler(system, starts, np.zeros((n, d)), dws, CFG).run()
    carried = BatchEuler(system, starts, v0, dws, CFG).run()
    assert np.array_equal(free.x, carried.x)
    assert np.array_equal(free.clamped, carried.clamped)
    assert np.array_equal(free.v, np.zeros((n, d)))


@settings(max_examples=8)
@given(b=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       angle=st.floats(0.0, np.pi), scales=st.lists(st.floats(0.5, 1.5),
                                                    min_size=2, max_size=2),
       x=vectors(2, coordinate), v=vectors(2, unit_scale),
       seed=st.integers(0, 2**32 - 1))
def test_bel_agrees_with_fd_on_linear_systems(b, angle, scales, x, v, seed):
    # dx = A x dt + Sigma dW (Elworthy-Li): with common noise the difference
    # quotient of the Euler flow is exactly ((I+hA)^n v)_0, and the BEL
    # weight averages to ((I+hA)^{n-1} v)_0, one Euler factor short
    b = np.array(b).reshape(2, 2)
    a = b - (0.5 * np.linalg.eigvalsh(b + b.T)[-1] + 0.5) * np.eye(2)
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    sig = rot * np.array(scales)            # columns X_1, X_2, cond <= 3

    def value(k, p):
        if k == 0:
            return p @ a.T
        return np.broadcast_to(sig[:, k - 1], p.shape).copy()

    def jacobian(k, p):
        return np.broadcast_to(a if k == 0 else np.zeros((2, 2)),
                               p.shape[:-1] + (2, 2)).copy()

    system = make_system("linear", 2, 2, value, jacobian)
    cfg = IntegratorConfig(h=2e-2, T=0.5)
    n = cfg.n_steps
    step = np.eye(2) + cfg.h * a
    exact = (np.linalg.matrix_power(step, n) @ v)[0]
    lagged = (np.linalg.matrix_power(step, n - 1) @ v)[0]
    f = PAYOFFS["identity"]
    fd = fd_gradient(system, x, v, f, t=cfg.T, n_paths=256, delta=0.1,
                     cfg=cfg, master_seed=seed)
    assert abs(fd.value - exact) <= 1e-12
    bel = bel_gradient(system, x, v, f, t=cfg.T, n_paths=2048, cfg=cfg,
                       master_seed=seed)
    assert bel.paths.excluded == 0
    assert abs(bel.value - exact) <= 5.0 * bel.std_error + abs(exact - lagged)
