"""Hand-rolled coefficient systems used as test fixtures."""

import numpy as np

from flowlab import AssumptionConstants, make_system


def linear_system(d=2, r1=1.0):
    """X_1(x) = x (plus zero extra fields so m = d), zero drift."""
    eye = np.eye(d)

    def value(k, x):
        if k == 1:
            return np.asarray(x, dtype=float).copy()
        return np.zeros_like(np.asarray(x, dtype=float))

    def jacobian(k, x):
        x = np.asarray(x, dtype=float)
        shape = x.shape + (d,)
        if k == 1:
            return np.broadcast_to(eye, shape).copy()
        return np.zeros(shape)

    constants = AssumptionConstants(p1=0.5, p2=1.0, p3=2 * (d + 1) + 2.0,
                                    p4=d + 2.0, p5=0.5, C1=1.0, C2=2.0,
                                    C3=2.0, R1=r1)
    return make_system("linear", d, d, value, jacobian, constants)


def sqrt_field_system():
    """d = 1, X_1(x) = sqrt(|x|), zero drift: the diffusion Jacobian blows up
    like |x|^{-1/2} at the origin and K_p like 1/|x|."""

    def value(k, x):
        x = np.asarray(x, dtype=float)
        if k == 1:
            return np.sqrt(np.abs(x))
        return np.zeros_like(x)

    def jacobian(k, x):
        x = np.asarray(x, dtype=float)
        if k == 1:
            with np.errstate(divide="ignore"):
                return (np.sign(x) / (2.0 * np.sqrt(np.abs(x))))[..., None]
        return np.zeros(x.shape + (1,))

    constants = AssumptionConstants(p1=1.0, p2=1.0, p3=6.1, p4=3.1, p5=0.5,
                                    C1=0.5, C2=2.0, C3=2.0, R1=1.0,
                                    kappa=lambda p: 1.0)
    return make_system("sqrt_field", 1, 1, value, jacobian, constants)


def scalar_drift_system(d=1):
    """X_0(x) = -x with one identically-zero diffusion field."""

    def value(k, x):
        x = np.asarray(x, dtype=float)
        if k == 0:
            return -x
        return np.zeros_like(x)

    def jacobian(k, x):
        x = np.asarray(x, dtype=float)
        shape = x.shape + (d,)
        if k == 0:
            return np.broadcast_to(-np.eye(d), shape).copy()
        return np.zeros(shape)

    return make_system("pure_drift", d, d, value, jacobian)


def nan_ring_system(radius):
    """d = m = 2, X_0(x) = 1e6 x and X_k(x) = (1, 1), with the drift and
    every Jacobian nan where |x| >= radius: a violation of the growth bounds
    on every probe, and one ring of nan samples."""

    def ring(x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return np.where(r >= radius * (1.0 - 1e-9), np.nan, x)

    def value(k, x):
        x = ring(x)
        return 1e6 * x if k == 0 else np.ones_like(x)

    def jacobian(k, x):
        x = ring(x)
        return (1e6 if k == 0 else 0.0) * (0.0 * x[..., :, None] + np.eye(2))

    return make_system("nan_ring", 2, 2, value, jacobian)


def nan_sigma_system(radius=5.0, d=2):
    """d = m, X_0(x) = -x and the basis fields X_k(x) = e_k, with the
    diffusion fields and their Jacobians nan where |x| >= radius: a
    diffusion matrix that is not finite on the outer probes."""
    eye = np.eye(d)

    def outside(x):
        return np.linalg.norm(x, axis=-1)[..., None] >= radius

    def value(k, x):
        x = np.asarray(x, dtype=float)
        if k == 0:
            return -x
        return np.where(outside(x), np.nan, eye[k - 1])

    def jacobian(k, x):
        x = np.asarray(x, dtype=float)
        if k == 0:
            return np.broadcast_to(-eye, x.shape + (d,)).copy()
        return np.where(outside(x)[..., None], np.nan,
                        np.zeros(x.shape + (d,)))

    return make_system("nan_sigma", d, d, value, jacobian)


def clamp_to_sphere(x, r_min):
    """x with points inside the r_min ball pushed onto its sphere and the
    origin onto r_min e_1: the bit-level reference for the points at which
    example21's Jacobians evaluate that ball."""
    if not r_min > 0.0:
        return x
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    inside = r < r_min
    if not np.any(inside):
        return x
    at_zero = r == 0.0
    safe_r = np.where(at_zero, 1.0, r)
    scaled = x * (r_min / safe_r)
    e1 = np.zeros(x.shape[-1])
    e1[0] = r_min
    scaled = np.where(at_zero, e1, scaled)
    return np.where(inside, scaled, x)
