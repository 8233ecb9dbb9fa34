"""Frenet-Serret frame extraction and closed-form propagation on the rotation group.

A moving frame R = [T N B] attached to a 3D trajectory evolves as
Rdot = R * hat(omega) with omega = [tau, 0, kappa] expressed in the frame,
where kappa = u * curvature and tau = u * torsion. Holding omega and the
speed u over one sample gives a closed-form rotation/position update, which
iterated l times yields an l-step trajectory prediction.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateGeometry",
    "FrenetModel",
    "hat",
    "scalar_params",
    "frenet_model",
    "gamma0",
    "gamma1",
    "fs_predict",
]

# Below this angle the closed forms lose digits to cancellation; switch to series.
_SMALL_ANGLE = 1e-4
# Velocity below this is treated as "not moving" (absolute, m/s).
TOL_SPEED = 1e-9
# Relative floor for the cross product norm deciding curvature degeneracy.
TOL_CROSS = 1e-12
# Repeated rotation products are re-orthonormalized this often.
_RENORM_EVERY = 64


class DegenerateGeometry(ValueError):
    """Raised when velocity or curvature is too small to define a frame."""


@dataclass(frozen=True)
class FrenetModel:
    """Frame and scalar parameters of a trajectory at one step.

    R stacks the unit tangent, normal, and binormal as columns and is a proper
    rotation. omega = [u*torsion, 0, u*curvature] is the frame's angular
    velocity resolved in the frame itself (middle component identically zero).
    """

    R: np.ndarray
    u: float
    kappa_t: float
    tau_t: float
    omega: np.ndarray


def hat(w):
    """3x3 skew-symmetric matrix of w, satisfying hat(w) @ v == cross(w, v)."""
    x, y, z = np.asarray(w, dtype=float).tolist()
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


def _cross(a, b):
    """np.cross of two 3-vectors: the same products and differences, without its overhead."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _norm(x):
    """np.linalg.norm of a 1-D array: the root of its dot with itself."""
    return np.sqrt(x.dot(x))


def _check_nondegenerate(v, a):
    speed = _norm(v)
    cross = _cross(v, a)
    cross_norm = _norm(cross)
    if speed <= TOL_SPEED:
        raise DegenerateGeometry(f"speed {speed:.3e} below tolerance")
    if cross_norm <= TOL_CROSS * max(1.0, speed * _norm(a)):
        raise DegenerateGeometry("velocity and acceleration are (near-)parallel")
    return speed, cross, cross_norm


def _scalars(v, a, j, speed, cross, cross_norm):
    return speed, cross_norm / speed**3, float(v @ _cross(a, j)) / cross_norm**2


def scalar_params(v, a, j):
    """Speed, curvature, and torsion from the first three derivatives."""
    v, a, j = (np.asarray(x, dtype=float) for x in (v, a, j))
    return _scalars(v, a, j, *_check_nondegenerate(v, a))


def frenet_model(v, a, j):
    """Assemble the full FrenetModel from derivative estimates at one step."""
    v, a, j = (np.asarray(x, dtype=float) for x in (v, a, j))
    checked = speed, cross, cross_norm = _check_nondegenerate(v, a)
    _, curvature, torsion = _scalars(v, a, j, *checked)
    R = np.array([v / speed, _cross(v, _cross(a, v)) / (speed * cross_norm), cross / cross_norm]).T
    omega = np.array([speed * torsion, 0.0, speed * curvature])
    return FrenetModel(R=R, u=speed, kappa_t=curvature, tau_t=torsion, omega=omega)


def gamma0(phi):
    """Rotation by the vector phi (matrix exponential of hat(phi), closed form)."""
    return _gammas(phi)[0]


def gamma1(phi):
    """Normalized integral of the rotation flow: (1/t)*int_0^t exp(hat(phi)*s/t) ds."""
    return _gammas(phi)[1]


def _gammas(phi):
    """(gamma0(phi), gamma1(phi)), which share the angle, hat(phi) and its square."""
    phi = np.asarray(phi, dtype=float)
    angle = _norm(phi)
    S = hat(phi)
    S2 = S @ S
    if angle < _SMALL_ANGLE:
        return np.eye(3) + S + 0.5 * S2 + (S2 @ S) / 6.0, np.eye(3) + 0.5 * S + S2 / 6.0
    sin, cos_term = np.sin(angle), (1.0 - np.cos(angle)) / angle**2
    return (np.eye(3) + (sin / angle) * S + cos_term * S2,
            np.eye(3) + cos_term * S + ((angle - sin) / angle**3) * S2)


def _project_rotation(M):
    """Nearest rotation matrix in the Frobenius sense (polar projection)."""
    U, _, Vt = np.linalg.svd(M)
    R = U @ Vt
    if R[:, 0].dot(_cross(R[:, 1], R[:, 2])) < 0:  # det R, the columns' triple product, is +-1
        R = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
    return R


def fs_predict(p_k, model, horizon, t_s):
    """Predict the next `horizon` positions holding speed and turning rates fixed.

    The rotation advances by gamma0(omega*t_s) each step; positions accumulate
    the per-step displacement t_s * R * gamma1(omega*t_s) * [u, 0, 0]. Runs in
    O(horizon) 3x3 products, re-orthonormalizing the running rotation
    periodically to bound drift over long horizons.

    Returns an array of shape (horizon, 3), rows l = 1..horizon.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    p_k = np.asarray(p_k, dtype=float)
    phi = model.omega * t_s
    step_rot, step_integral = _gammas(phi)
    # Displacement of one step, expressed in the local frame.
    local_step = t_s * step_integral @ np.array([model.u, 0.0, 0.0])

    frames = np.empty((horizon, 3, 3))
    frames[0] = model.R
    prev = frames[0]
    # dot into each slot: the same BLAS product as `@`, without a new array.
    for i, cur in enumerate(frames[1:], start=1):
        prev.dot(step_rot, out=cur)
        if i % _RENORM_EVERY == 0:
            cur[...] = _project_rotation(cur)
        prev = cur
    summed = frames.cumsum(axis=0)
    return p_k + summed @ local_step
