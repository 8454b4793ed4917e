"""Symmetry-aware pose error metrics over combined rotation/scale/shear poses.

A pose hypothesis carries one 3x3 matrix (rotation times symmetric
scale/shear) plus a translation; it maps unscaled template points into the
world. MSSD takes the smallest, over the shape's symmetry group, of the
largest 3D correspondence distance; MSPD does the same in pixels after
pinhole projection.
"""

from dataclasses import dataclass

import numpy as np

from .core import _apply_linear, as_points
from .shapespace import expand_symmetries

_BLOCK_POINTS = 4096


@dataclass(frozen=True, eq=False)
class PoseHypothesis:
    """Affine pose: p -> matrix @ p + translation, det(matrix) > 0."""

    matrix: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        M = np.array(self.matrix, dtype=float)
        t = np.array(self.translation, dtype=float)
        if M.shape != (3, 3) or not np.all(np.isfinite(M)):
            raise ValueError("pose matrix must be a finite 3x3 matrix")
        if np.linalg.det(M) <= 0.0:
            raise ValueError("pose matrix must have positive determinant")
        if t.shape != (3,) or not np.all(np.isfinite(t)):
            raise ValueError("pose translation must be a finite 3-vector")
        M.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "translation", t)

    def apply(self, points):
        return _apply_linear(self.matrix, as_points(points)) + self.translation


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters: focal lengths and principal point, in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    @property
    def matrix(self):
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])


def project(intrinsics, points):
    """Pinhole projection of camera-frame points to pixel coordinates.

    Accepts a single 3-vector or an (n, 3) array. Every point must have
    z > 0; anything at or behind the camera plane raises.
    """
    single = np.asarray(points).ndim == 1
    pts = as_points(points)
    z = pts[:, 2]
    if np.any(z <= 0.0):
        raise ValueError("point behind camera (z <= 0)")
    u = intrinsics.fx * pts[:, 0] / z + intrinsics.cx
    v = intrinsics.fy * pts[:, 1] / z + intrinsics.cy
    uv = np.stack([u, v], axis=1)
    return uv[0] if single else uv


def _symmetric_gt(gt, template, group):
    """Yield (k, n, 3) blocks of world points gt(S x), k symmetries S at a time.

    One broadcast per block of at most _BLOCK_POINTS points keeps the
    temporaries near 100 KB each, however large the group.
    """
    rotations = expand_symmetries(group)
    k = max(1, _BLOCK_POINTS // len(template))
    for i in range(0, len(rotations), k):
        pts = _apply_linear(gt.matrix, _apply_linear(rotations[i:i + k], template))
        pts += gt.translation
        yield pts


def mssd(est, gt, template, group):
    """Maximum symmetry-aware surface distance between two poses, in meters.

    min over symmetries S of max over template points x of
    ||est(x) - gt(S x)||.
    """
    template = as_points(template)
    pts_est = est.apply(template)
    best = np.inf
    for d in _symmetric_gt(gt, template, group):
        np.subtract(pts_est, d, out=d)
        d2 = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2]
        best = min(best, d2.max(axis=1).min())
    # sqrt is monotonic, so taking it after the max and min changes no bit.
    return float(np.sqrt(best))


def mspd(est, gt, template, group, intrinsics):
    """Maximum symmetry-aware projection distance between two poses, in pixels.

    Same min-max as mssd but measured between pinhole projections; every
    transformed template point must land in front of the camera.
    """
    template = as_points(template)
    uv_est = project(intrinsics, est.apply(template))
    best = np.inf
    for pts in _symmetric_gt(gt, template, group):
        d = uv_est - project(intrinsics, pts.reshape(-1, 3)).reshape(pts.shape[:2] + (2,))
        d2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
        best = min(best, d2.max(axis=1).min())
    return float(np.sqrt(best))


def accuracy_curve(errors, thresholds):
    """Fraction of errors at or below each threshold.

    `thresholds` must be ascending; the result is non-decreasing in [0, 1].
    """
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 1 or errors.size == 0:
        raise ValueError("errors must be a nonempty 1-D sequence")
    thr = np.asarray(thresholds, dtype=float)
    if thr.ndim != 1 or thr.size == 0:
        raise ValueError("thresholds must be a nonempty 1-D sequence")
    if np.any(np.diff(thr) < 0):
        raise ValueError("thresholds must be ascending")
    sorted_errors = np.sort(errors)
    counts = np.searchsorted(sorted_errors, thr, side="right")
    return counts / errors.size
