"""Symmetry-aware pose error metrics over combined rotation/scale/shear poses.

A pose hypothesis carries one 3x3 matrix (rotation times symmetric
scale/shear) plus a translation; it maps unscaled template points into the
world. MSSD takes the smallest, over the unit-scale shape's symmetry group
(S acts on template points, so poses M and M @ S place one surface), of the
largest 3D correspondence distance; MSPD does the same in pixels.

Both run one min-max, in the order of a plain double loop, for every group:
S x first, a gather with negation where S is a signed permutation and a 3x3
apply otherwise, then gt's pose of it. A group that fits one block is posed into
one stack, shared by `mssd` and `mspd` on the same input; a larger one is
streamed block by block.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import _frozen, _linear_rows, _posed_rows, _real, as_points
from .shapespace import expand_symmetries

# Template points times symmetries per broadcast block: each coordinate row of
# a (k, n) block then holds at most 4096 doubles, 32 KB.
_BLOCK_POINTS = 4096


@dataclass(frozen=True, eq=False)
class PoseHypothesis:
    """Affine pose: p -> matrix @ p + translation, where det(matrix) has sign +1."""

    matrix: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        M = _frozen(self.matrix, (3, 3), "pose matrix must be a finite 3x3 matrix")
        if not np.linalg.slogdet(M)[0] > 0:
            raise ValueError("pose matrix must have positive determinant")
        t = _frozen(self.translation, (3,), "pose translation must be a finite 3-vector")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "translation", t)

    def apply(self, points):
        return np.stack(_posed_rows(self.matrix, self.translation, *as_points(points).T), axis=1)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters: focal lengths and principal point, in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        for name, low in (("fx", 0), ("fy", 0), ("cx", -math.inf), ("cy", -math.inf)):
            object.__setattr__(self, name, _real(getattr(self, name), name, low, open_low=True))

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


# The last shared stack, (key, stack), kept for one reuse; see `_min_max`.
_slot = None


def _symmetric_rows(rows, rotations, gather, start, stop):
    """x, y, z rows of S x for symmetries start..stop-1 of the stack, (m, n) each.

    With a gather index (`SymmetryGroup._gather`), each row of S x is a row
    of [x, y, z, -x, -y, -z]: no arithmetic, and the oracle's
    (x*S[j,0] + y*S[j,1]) + z*S[j,2] to the bit, up to the sign of a zero.
    Otherwise `_linear_rows` sums it in that order.
    """
    if gather is None:
        return _linear_rows(rotations[start:stop], *rows)
    return np.concatenate([rows, -rows])[gather[:, start:stop]]


def _shared_stack(est, gt, rows, rotations, gather):
    """Read-only (3, m+1, n) stack of x, y, z rows: est's pose of `rows`, then gt's of each S x.

    A call whose key equals the slot's takes its stack and empties it; any
    other call poses the stack and leaves it in the slot.
    """
    global _slot
    key = (est.matrix.tobytes(), est.translation.tobytes(), gt.matrix.tobytes(),
           gt.translation.tobytes(), rotations.tobytes(), rows.shape, rows.tobytes())
    slot = _slot
    if slot is not None and slot[0] == key:
        _slot = None
        return slot[1]
    m = len(rotations)
    stack = np.empty((3, m + 1, rows.shape[1]))
    _posed_rows(est.matrix, est.translation, *rows, out=stack[:, 0])
    _posed_rows(gt.matrix, gt.translation, *_symmetric_rows(rows, rotations, gather, 0, m),
                out=stack[:, 1:])
    stack.setflags(write=False)
    _slot = key, stack
    return stack


def _min_max(est, gt, template, group, observe):
    """min over symmetries S of max over points x of |observe(est(x)) - observe(gt(S x))|.

    `observe` maps x, y, z coordinate rows to the rows compared. Every
    group is scored in one order, the oracle's: the template is transposed
    once into contiguous (3, n) rows x; S x is formed first, a gather with
    negation where S is a signed permutation (`SymmetryGroup._gather`) and
    `_linear_rows` otherwise (`_symmetric_rows`); then `_posed_rows` poses
    it with gt's scalar coefficients, as it poses x with est's. Squared
    differences are summed in row order, (d0*d0 + d1*d1) + d2*d2, and the
    square root is taken last: it is monotonic, so that changes no bit.
    The gather can differ from the oracle only in the sign of a zero, and
    a zero is squared or fails z > 0 either way.

    A group that fits one block, m symmetries times n template points at
    most _BLOCK_POINTS (the condition is size alone: order 8 up to 512
    points, 72 elements up to 56), is posed into one (3, m+1, n) stack,
    est's rows first (`_shared_stack`). That stack, one block and est's
    rows (at most 196,608 B; 110,592 B for order 8 at 512 points), is
    kept in the module's slot with its input, so `mssd` and `mspd` on one
    input pose it once, whichever runs first. The key is content: the
    bytes of both poses' matrix and translation, of the group's stack, and
    the shape and bytes of the template's (3, n) rows, so neither an array
    changed in place nor an object at a reused address can hit. A hit
    empties the slot, so a stack serves one reuse. The stack is read-only,
    so its difference is taken out of place, and `observe`, with `mspd`'s
    z > 0 check, runs on every call. Threads can only lose a reuse: a
    stack is never written and is served only for its own key.

    A larger group is streamed, k symmetries per block of at most
    _BLOCK_POINTS points (one symmetry when n alone exceeds it), so each
    row stays near 32 KB however large the group, and keeps nothing.
    """
    rows = np.ascontiguousarray(as_points(template).T)
    rotations = expand_symmetries(group)
    m, n = len(rotations), rows.shape[1]
    if m * n <= _BLOCK_POINTS:
        posed = observe(*_shared_stack(est, gt, rows, rotations, group._gather))
        seen, blocks = [row[0] for row in posed], [[row[1:] for row in posed]]
    else:
        k = max(1, _BLOCK_POINTS // n)
        seen = observe(*_posed_rows(est.matrix, est.translation, *rows))
        blocks = (observe(*_posed_rows(gt.matrix, gt.translation, *_symmetric_rows(
                      rows, rotations, group._gather, i, i + k)))
                  for i in range(0, m, k))
    best = np.inf
    for block in blocks:
        # The stack's rows are read-only; their difference is a new array.
        diffs = [np.subtract(e, d, out=d if d.flags.writeable else None)
                 for e, d in zip(seen, block)]
        for d in diffs:
            d *= d
        total = diffs[0]
        for d in diffs[1:]:
            total += d
        # The reduction propagates NaN, from `best` as from the block.
        best = total.max(axis=1).min(initial=best)
    if not math.isfinite(best):
        raise ValueError("the pose error overflows float64")
    return float(np.sqrt(best))


def mssd(est, gt, template, group):
    """Maximum symmetry-aware surface distance between two poses, in meters.

    min over symmetries S of max over template points x of ||est(x) - gt(S x)||,
    with S x gathered for a signed permutation and applied otherwise, then
    posed by gt; a result that overflows float64 raises ValueError. With `mspd`
    on the same input, the template is posed once when the group fits one
    block of `_min_max` (order 8 up to 512 points, 72 elements up to 56).
    """
    return _min_max(est, gt, template, group, lambda x, y, z: (x, y, z))


def mspd(est, gt, template, group, intrinsics):
    """Maximum symmetry-aware projection distance between two poses, in pixels.

    Same min-max as mssd, in the same order, but measured between pinhole
    projections; every transformed template point must land in front of the
    camera, and a result that overflows float64 raises ValueError. With `mssd`
    on the same input, the template is posed once when the group fits one
    block of `_min_max` (order 8 up to 512 points, 72 elements up to 56).
    """
    return _min_max(est, gt, template, group, partial(_project_rows, intrinsics))


def accuracy_curve(errors, thresholds):
    """Fraction of errors at or below each threshold.

    `thresholds` must be ascending, and neither errors nor thresholds may
    be NaN; the result is non-decreasing in [0, 1].
    """
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 1 or errors.size == 0:
        raise ValueError("errors must be a nonempty 1-D sequence")
    thr = np.asarray(thresholds, dtype=float)
    if thr.ndim != 1 or thr.size == 0:
        raise ValueError("thresholds must be a nonempty 1-D sequence")
    # NaN compares false both ways: as an error it would count as a miss, as
    # a threshold it would pass the ascending test. +inf compares correctly.
    if np.isnan(errors).any():
        raise ValueError("errors must not be NaN")
    if np.isnan(thr).any():
        raise ValueError("thresholds must not be NaN")
    if np.any(np.diff(thr) < 0):
        raise ValueError("thresholds must be ascending")
    sorted_errors = np.sort(errors)
    counts = np.searchsorted(sorted_errors, thr, side="right")
    return counts / errors.size
