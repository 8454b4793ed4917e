"""Quaternion and rotation-matrix helpers.

Quaternions are numpy arrays in (w, x, y, z) order throughout the package.
"""

import numpy as np


def quat_normalize(q):
    """Return q scaled to unit norm."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("cannot normalize zero or non-finite quaternion")
    return q / n


def quat_mul(q1, q2):
    """Hamilton product q1 * q2 (apply q2 first when rotating vectors)."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def quat_from_axis_angle(axis, angle):
    """Unit quaternion rotating by `angle` radians about `axis`."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * angle
    s = np.sin(half) / n
    return np.array([np.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


def quat_from_rotvec(w):
    """Unit quaternion from a rotation vector (axis * angle)."""
    w = np.asarray(w, dtype=float)
    angle = np.linalg.norm(w)
    if angle < 1e-300:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return quat_from_axis_angle(w, angle)


def quat_from_euler_xyz(rx, ry, rz):
    """Unit quaternion from intrinsic XYZ Euler angles in radians."""
    qx = quat_from_axis_angle((1.0, 0.0, 0.0), rx)
    qy = quat_from_axis_angle((0.0, 1.0, 0.0), ry)
    qz = quat_from_axis_angle((0.0, 0.0, 1.0), rz)
    return quat_mul(quat_mul(qx, qy), qz)


def quat_to_matrix(q):
    """3x3 rotation matrix for unit quaternion q."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def matrix_to_quat(R):
    """Unit quaternion (w, x, y, z) for a proper rotation matrix.

    Uses the largest-pivot variant so the result is stable for all rotations.
    """
    R = np.asarray(R, dtype=float)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array([(R[2, 1] - R[1, 2]) / s,
                      0.25 * s,
                      (R[0, 1] + R[1, 0]) / s,
                      (R[0, 2] + R[2, 0]) / s])
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array([(R[0, 2] - R[2, 0]) / s,
                      (R[0, 1] + R[1, 0]) / s,
                      0.25 * s,
                      (R[1, 2] + R[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array([(R[1, 0] - R[0, 1]) / s,
                      (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s,
                      0.25 * s])
    return quat_canonical(quat_normalize(q))


def quat_canonical(q):
    """Fix the sign ambiguity: first nonzero component made positive."""
    q = np.asarray(q, dtype=float)
    for c in q:
        if c != 0.0:
            return -q if c < 0.0 else q.copy()
    return q.copy()


def rotation_about_z(angle):
    """3x3 rotation matrix about the z axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_quaternion(rng):
    """Uniform random unit quaternion drawn from `rng`."""
    q = rng.normal(size=4)
    return quat_canonical(quat_normalize(q))


_EYE = np.eye(3)
# np.allclose's default rtol times |I|: 1e-5 on the diagonal, 0 off it.
_GRAM_RTOL = 1e-5 * _EYE


def is_rotation_matrix(R, tol=1e-6):
    """True if R, or every matrix of a stack of them, is proper orthonormal within tol.

    Entry by entry |R^T R - I| <= tol + 1e-5 I, which is what
    np.allclose(R^T R, I, atol=tol) tests, without its overhead; then
    |det R - 1| <= tol.
    """
    R = np.asarray(R, dtype=float)
    if R.shape[-2:] != (3, 3) or not np.isfinite(R).all():
        return False
    gram = np.swapaxes(R, -1, -2) @ R
    gram -= _EYE
    if not (np.abs(gram) <= tol + _GRAM_RTOL).all():
        return False
    return bool((np.abs(np.linalg.det(R) - 1.0) <= tol).all())
