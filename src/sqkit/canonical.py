"""Canonicalization of ambiguous superquadric parameterizations.

A superquadric whose cross-section exponent exceeds 1 has a near-equivalent
twin with exponent 2 - eps2: the twin's radial scales shrink by a factor
s(eps2) and its rotation gains a 45-degree turn about the local z axis. The
scale factor is a linear interpolation between s(1) = 1 and s(2) = sqrt(2)/2.

The twin is exact at eps2 = 1, and at eps2 = 2 only up to the EPS_MIN floor
on its exponent (a ~0.35% corner gap). It is never exact in between: with
equal radial scales the cross-section is an l_p ball with p = 2/eps2 in
(1, 2), the twin's is an l_q ball with q >= 2, and two planar l_p/l_q balls
are linear images of one another only when p == q or {p, q} == {1, inf}.
Keeping height and azimuth in the input's frame, the fold moves a surface
point by at most g(eps2) * radial, where
g(eps2) = max_theta |s rho_q(theta - pi/4) - rho_p(theta)| and
rho_p(theta) = (|cos theta|^p + |sin theta|^p)^(-1/p); g peaks at about
0.0443 near eps2 = 1.615.

Canonicalization folds any eps2 > 1 fit onto its twin so eps2 always lands in
[EPS_MIN, 1]. Instead of averaging the radial scales, the fold is expressed
as a symmetric scale/shear matrix plus a new rotation, which keeps per-axis
scale information when ax != ay at the cost of an off-diagonal (shear) term.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import polar

from .core import EPS_MIN, Superquadric
from .rotations import (
    is_rotation_matrix,
    quat_from_axis_angle,
    quat_mul,
    quat_to_matrix,
    rotation_about_z,
)

_SQRT2_HALF = np.sqrt(2.0) / 2.0

# 45-degree turn about z relating a shape to its exponent twin. The turn
# direction is a gauge choice (the twin is quarter-turn symmetric); this sign
# makes the in-plane warp block come out as [[(a+b)/2, (a-b)/2], ...].
TWIN_TURN_QUAT = quat_from_axis_angle((0.0, 0.0, 1.0), -np.pi / 4.0)
TWIN_TURN_MATRIX = rotation_about_z(-np.pi / 4.0)


def duality_scale(eps2):
    """Radial rescale factor applied when folding eps2 onto 2 - eps2.

    Equals 1 at eps2 = 1 and sqrt(2)/2 at eps2 = 2, linear in between.
    """
    return (_SQRT2_HALF - 1.0) * eps2 + 2.0 - _SQRT2_HALF


@dataclass(frozen=True, eq=False)
class CanonicalizationResult:
    """Outcome of folding a fit into the canonical eps2 range.

    Attributes:
        canonical: parameter record with eps2 in [EPS_MIN, 1].
        warped: whether the exponent fold was applied.
        scale_matrix: symmetric positive-definite 3x3 scale/shear factor.
        rotation: 3x3 world rotation to apply after scale_matrix.
        translation: unchanged world-frame center.
        radial_mismatch: |ax - ay| / max(ax, ay) of the input; the fold is
            only exact-to-approximation when this is small.
    """

    canonical: Superquadric
    warped: bool
    scale_matrix: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    radial_mismatch: float

    def compose(self):
        """Single affine factor (M, t) with M = rotation @ scale_matrix."""
        return self.rotation @ self.scale_matrix, np.array(self.translation)


def canonicalize(sq):
    """Fold eps2 > 1 onto the canonical range [EPS_MIN, 1].

    Already-canonical inputs are returned unchanged (same parameter object,
    identity scale/rotation factors). Otherwise the canonical record is the
    exponent twin of the module docstring, its eps2 floored at EPS_MIN (an exact
    square cross-section would need exponent 0); the scale/shear matrix keeps
    the per-axis information the twin's equal radial scales drop, and a large
    `radial_mismatch` signals that the twin only approximates the input.
    """
    if not 0.0 < sq.eps2 <= 2.0:
        raise ValueError(f"eps2 must lie in (0, 2], got {sq.eps2}")
    ax, ay, az = sq.scale
    mismatch = abs(ax - ay) / max(ax, ay)
    if sq.eps2 <= 1.0:
        return CanonicalizationResult(
            canonical=sq,
            warped=False,
            scale_matrix=np.diag(sq.scale),
            rotation=quat_to_matrix(sq.rotation),
            translation=np.array(sq.translation),
            radial_mismatch=mismatch,
        )
    s = duality_scale(sq.eps2)
    scaled = np.diag([ax * s, ay * s, az])
    warp = TWIN_TURN_MATRIX.T @ scaled @ TWIN_TURN_MATRIX
    warp = 0.5 * (warp + warp.T)
    rotation = quat_to_matrix(sq.rotation) @ TWIN_TURN_MATRIX
    radial = s * 0.5 * (ax + ay)
    canonical = Superquadric(
        eps1=sq.eps1,
        eps2=float(np.clip(2.0 - sq.eps2, EPS_MIN, 1.0)),
        scale=np.array([radial, radial, az]),
        rotation=quat_mul(sq.rotation, TWIN_TURN_QUAT),
        translation=sq.translation,
    )
    return CanonicalizationResult(
        canonical=canonical,
        warped=True,
        scale_matrix=warp,
        rotation=rotation,
        translation=np.array(sq.translation),
        radial_mismatch=mismatch,
    )


def decompose_scale_shear(M):
    """Split M = R @ P into a rotation and a symmetric positive factor.

    Returns (R, scale, shear) where scale is the diagonal of P and shear the
    off-diagonal entries (p_xy, p_xz, p_yz). Requires det(M) > 0.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3) or not np.all(np.isfinite(M)):
        raise ValueError("M must be a finite 3x3 matrix")
    if np.linalg.det(M) <= 0.0:
        raise ValueError("M must have positive determinant")
    R, P = polar(M, side="right")
    scale = np.array([P[0, 0], P[1, 1], P[2, 2]])
    shear = np.array([P[0, 1], P[0, 2], P[1, 2]])
    return R, scale, shear


def compose_affine(rotation, scale, shear, translation):
    """Rebuild (M, t) from rotation, scale diagonal, and shear off-diagonals.

    Inverse of decompose_scale_shear on its range: M = R @ P with P the
    symmetric matrix carrying `scale` on the diagonal and `shear` off it.
    """
    R = np.asarray(rotation, dtype=float)
    if R.shape != (3, 3) or not is_rotation_matrix(R):
        raise ValueError("rotation must be a proper orthonormal 3x3 matrix")
    scale = np.asarray(scale, dtype=float)
    shear = np.asarray(shear, dtype=float)
    t = np.asarray(translation, dtype=float)
    if scale.shape != (3,) or np.any(scale <= 0) or not np.all(np.isfinite(scale)):
        raise ValueError("scale must be three positive finite values")
    if shear.shape != (3,) or not np.all(np.isfinite(shear)):
        raise ValueError("shear must be a finite 3-vector (p_xy, p_xz, p_yz)")
    if t.shape != (3,) or not np.all(np.isfinite(t)):
        raise ValueError("translation must be a finite 3-vector")
    P = np.array([
        [scale[0], shear[0], shear[1]],
        [shear[0], scale[1], shear[2]],
        [shear[1], shear[2], scale[2]],
    ])
    return R @ P, t
