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
[EPS_MIN, 1]. The fold is described once, by the canonical record and a
shear: the twin's turn of diag(s ax, s ay, az) has the in-plane block
[[r, d], [d, r]] with r = s (ax + ay) / 2, the record's radial scale, and
d = s (ax - ay) / 2, the shear p_xy, which keeps the per-axis information
the twin's equal radial scales drop. Record and shear compose into one
affine pose by `compose_affine`, the map `ParamsRecord.pose` uses.
"""

from dataclasses import dataclass

import numpy as np

from .core import EPS_MIN, Superquadric, _frozen
from .rotations import is_rotation_matrix, quat_from_axis_angle, quat_mul

_SQRT2_HALF = np.sqrt(2.0) / 2.0

# 45-degree turn about z relating a shape to its exponent twin. The turn
# direction is a gauge choice (the twin is quarter-turn symmetric); this sign
# makes the in-plane block come out as [[r, d], [d, r]] with d = s (ax - ay) / 2.
TWIN_TURN_QUAT = quat_from_axis_angle((0.0, 0.0, 1.0), -np.pi / 4.0)


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
        shear: read-only (p_xy, p_xz, p_yz) of the fold, the record's `shear`
            field; (d, 0, 0) when warped, zero otherwise.
        radial_mismatch: |ax - ay| / max(ax, ay) of the input; the fold is
            only exact-to-approximation when this is small.
    """

    canonical: Superquadric
    warped: bool
    shear: np.ndarray
    radial_mismatch: float

    def __post_init__(self):
        object.__setattr__(self, "shear",
                           _frozen(self.shear, (3,), "shear must be a finite 3-vector"))

    def compose(self):
        """Single affine factor (M, t): the pose of the canonical record with `shear`."""
        c = self.canonical
        return compose_affine(c.rotation_matrix, c.scale, self.shear, c.translation)


def canonicalize(sq):
    """Fold eps2 > 1 onto the canonical range [EPS_MIN, 1].

    Already-canonical inputs are returned unchanged (same parameter object,
    zero shear). Otherwise the canonical record is the exponent twin of the
    module docstring, its eps2 floored at EPS_MIN (an exact square
    cross-section would need exponent 0); the shear keeps the per-axis
    information the twin's equal radial scales drop, and a large
    `radial_mismatch` signals that the twin only approximates the input.
    """
    ax, ay, az = sq.scale.tolist()  # Python floats overflow to inf without a warning
    mismatch = abs(ax - ay) / max(ax, ay)
    if sq.eps2 <= 1.0:
        return CanonicalizationResult(canonical=sq, warped=False, shear=np.zeros(3),
                                      radial_mismatch=mismatch)
    s = duality_scale(sq.eps2)
    total = ax + ay
    # The sum overflows only near the float limit, where halving each scale is exact.
    radial = s * 0.5 * total if total < np.inf else s * (0.5 * ax + 0.5 * ay)
    canonical = Superquadric(
        eps1=sq.eps1,
        eps2=max(2.0 - sq.eps2, EPS_MIN),
        scale=np.array([radial, radial, az]),
        rotation=quat_mul(sq.rotation, TWIN_TURN_QUAT),
        translation=sq.translation,
    )
    return CanonicalizationResult(canonical=canonical, warped=True,
                                  shear=np.array([s * 0.5 * (ax - ay), 0.0, 0.0]),
                                  radial_mismatch=mismatch)


def decompose_scale_shear(M):
    """Split M = R @ P into a rotation and a symmetric positive factor.

    The polar factors come from the SVD M = W diag(s) V^T: R = W V^T and
    P = V diag(s) V^T (Higham 1986). Returns (R, scale, shear) where scale
    is the diagonal of P and shear the off-diagonal entries
    (p_xy, p_xz, p_yz). Requires det(M) to have sign +1, at any magnitude.
    """
    M = _frozen(M, (3, 3), "M must be a finite 3x3 matrix")
    if not np.linalg.slogdet(M)[0] > 0:
        raise ValueError("M must have positive determinant")
    w, s, vh = np.linalg.svd(M)
    R = w @ vh
    P = (vh.T * s) @ vh
    scale = np.array([P[0, 0], P[1, 1], P[2, 2]])
    shear = np.array([P[0, 1], P[0, 2], P[1, 2]])
    return R, scale, shear


def compose_affine(rotation, scale, shear, translation):
    """Rebuild (M, t) from rotation, scale diagonal, and shear off-diagonals.

    Inverse of decompose_scale_shear on its range: M = R @ P with P the
    symmetric matrix carrying `scale` on the diagonal and `shear` off it.
    """
    message = "rotation must be a proper orthonormal 3x3 matrix"
    R = _frozen(rotation, (3, 3), message)
    if not is_rotation_matrix(R):
        raise ValueError(message)
    scale = _frozen(scale, (3,), "scale must be three positive finite values",
                    lambda v: 0.0 < v < np.inf)
    shear = _frozen(shear, (3,), "shear must be a finite 3-vector (p_xy, p_xz, p_yz)")
    t = _frozen(translation, (3,), "translation must be a finite 3-vector")
    P = np.array([
        [scale[0], shear[0], shear[1]],
        [shear[0], scale[1], shear[2]],
        [shear[1], shear[2], scale[2]],
    ])
    return R @ P, np.array(t)
