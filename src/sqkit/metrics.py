"""Symmetry-aware pose error metrics over combined rotation/scale/shear poses.

A pose hypothesis carries one 3x3 matrix (rotation times symmetric
scale/shear) plus a translation; it maps unscaled template points into the
world. MSSD takes the smallest, over the shape's symmetry group, of the
largest 3D correspondence distance; MSPD does the same in pixels after
pinhole projection.
"""

from dataclasses import dataclass

import numpy as np

from .core import _linear_rows, as_points
from .shapespace import expand_symmetries

# Template points times symmetries per broadcast block: each coordinate row of
# a (k, n) block then holds at most 4096 doubles, 32 KB.
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
        return np.stack(_posed_rows(self, *as_points(points).T), axis=1)


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


def _project_rows(intrinsics, x, y, z):
    """Pixel rows u, v of camera-frame coordinate rows, as (fx*x)/z + cx and (fy*y)/z + cy.

    Every z must be > 0; anything at or behind the camera plane raises.
    """
    if np.any(z <= 0.0):
        raise ValueError("point behind camera (z <= 0)")
    rows = []
    for f, c, coord in ((intrinsics.fx, intrinsics.cx, x), (intrinsics.fy, intrinsics.cy, y)):
        row = np.multiply(f, coord)
        row /= z
        row += c
        rows.append(row)
    return rows


def project(intrinsics, points):
    """Pinhole projection of camera-frame points to pixel coordinates.

    Accepts a single 3-vector or an (n, 3) array. Every point must have
    z > 0; anything at or behind the camera plane raises.
    """
    single = np.asarray(points).ndim == 1
    pts = as_points(points)
    uv = np.stack(_project_rows(intrinsics, pts[:, 0], pts[:, 1], pts[:, 2]), axis=1)
    return uv[0] if single else uv


def _posed_rows(pose, x, y, z):
    """Coordinate rows of matrix @ p + translation, the matrix applied in `_linear_rows`' order."""
    rows = _linear_rows(pose.matrix, x, y, z)
    for row, t in zip(rows, pose.translation):
        row += t
    return rows


def _symmetric_gt(gt, rows, group):
    """Yield the x, y, z rows, each (k, n), of world points gt(S x), k symmetries S at a time.

    `rows` is the template as (3, n) coordinate rows. One broadcast per
    block of at most _BLOCK_POINTS points keeps each row near 32 KB,
    however large the group.
    """
    rotations = expand_symmetries(group)
    k = max(1, _BLOCK_POINTS // rows.shape[1])
    for i in range(0, len(rotations), k):
        yield _posed_rows(gt, *_linear_rows(rotations[i:i + k], *rows))


def mssd(est, gt, template, group):
    """Maximum symmetry-aware surface distance between two poses, in meters.

    min over symmetries S of max over template points x of
    ||est(x) - gt(S x)||.
    """
    rows = np.ascontiguousarray(as_points(template).T)
    ex, ey, ez = _posed_rows(est, *rows)
    best = np.inf
    for dx, dy, dz in _symmetric_gt(gt, rows, group):
        np.subtract(ex, dx, out=dx)
        np.subtract(ey, dy, out=dy)
        np.subtract(ez, dz, out=dz)
        dx *= dx
        dy *= dy
        dz *= dz
        dx += dy
        dx += dz
        best = min(best, dx.max(axis=1).min())
    # sqrt is monotonic, so taking it after the max and min changes no bit.
    return float(np.sqrt(best))


def mspd(est, gt, template, group, intrinsics):
    """Maximum symmetry-aware projection distance between two poses, in pixels.

    Same min-max as mssd but measured between pinhole projections; every
    transformed template point must land in front of the camera.
    """
    rows = np.ascontiguousarray(as_points(template).T)
    eu, ev = _project_rows(intrinsics, *_posed_rows(est, *rows))
    best = np.inf
    for pts in _symmetric_gt(gt, rows, group):
        du, dv = _project_rows(intrinsics, *pts)
        np.subtract(eu, du, out=du)
        np.subtract(ev, dv, out=dv)
        du *= du
        dv *= dv
        du += dv
        best = min(best, du.max(axis=1).min())
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
    # NaN compares false both ways, so it would pass the ascending test.
    if np.isnan(thr).any():
        raise ValueError("thresholds must not be NaN")
    if np.any(np.diff(thr) < 0):
        raise ValueError("thresholds must be ascending")
    sorted_errors = np.sort(errors)
    counts = np.searchsorted(sorted_errors, thr, side="right")
    return counts / errors.size
