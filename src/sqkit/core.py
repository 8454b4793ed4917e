"""Superquadric representation and core point-cloud geometry.

A superquadric is the implicit surface

    F(x, y, z) = ((|x|/ax)^(2/e2) + (|y|/ay)^(2/e2))^(e2/e1) + (|z|/az)^(2/e1) = 1

in its local frame, posed in the world by a rotation and a translation.
Point clouds are plain (n, 3) float arrays in meters.
"""

import bisect
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .rotations import quat_to_matrix

# Numerical floor for the shape exponents; F is undefined at 0, so box-like
# shapes are evaluated at 0.01.
EPS_MIN = 0.01
EPS_MAX = 2.0

_QUAT_NORM_TOL = 1e-9

_FLOAT_MIN = np.finfo(float).min
_FLOAT_MAX = float(np.finfo(float).max)

# Points per block in farthest_point_sample's sorted layout.
_FPS_BLOCK = 128


def _integer(value, name, low, high=math.inf):
    """`value`, an integer (Python or numpy, not bool) in [low, high], as a Python int.

    Anything else, 3.0 included, raises a ValueError naming the argument `name`.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    k = operator.index(value)
    if not low <= k <= high:
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}, got {k}")
    return k


def _real(value, name, low=-_FLOAT_MAX, high=_FLOAT_MAX, open_low=False):
    """`value`, a real (Python or numpy, not bool) in [low, high], as a Python float.

    With `open_low` the range is (low, high]; `high` is finite, as is `low` unless `open_low`.
    Anything else, "0.5", True, NaN and inf included, raises a ValueError naming `name`.
    """
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf if value > 0 else -math.inf
    if low < value <= high if open_low else low <= value <= high:
        return value
    bound = (f"lie in {'(' if open_low else '['}{low}, {high}]" if high < _FLOAT_MAX
             else f"be finite and {'>' if open_low else '>='} {low}" if low > -_FLOAT_MAX
             else "be finite")
    raise ValueError(f"{name} must {bound}, got {value}")


def _frozen(value, shape, message, ok=math.isfinite):
    """A read-only float copy of `value`, of the given shape, with `ok` true at every entry.

    Entries must be integers or floats, not bools, else ValueError(message); `ok` runs on
    Python floats, faster than numpy on a few entries, and a NaN fails every comparison.
    numpy casts a bool that sits beside numbers in a sequence, so a value that is not
    an array has its entries looked at as given.
    """
    arr = np.array(value)
    if arr.dtype.kind in "iuf":
        arr = arr.astype(float, copy=False)
    if (arr.dtype != float or arr.shape != shape or not all(map(ok, arr.ravel().tolist()))
            or not isinstance(value, np.ndarray)
            and any(isinstance(v, bool) or getattr(v, "dtype", None) == bool
                    for v in np.array(value, dtype=object).ravel().tolist())):
        raise ValueError(message)
    arr.setflags(write=False)
    return arr


def as_points(points):
    """Validate and return a point cloud as an (n, 3) float array.

    Accepts any array-like of 3-vectors of integers or floats. Rejects other
    dtypes (strings, bools, objects, complex), non-finite coordinates and
    empty clouds. numpy still promotes a bool that sits beside floats in a
    sequence, so [[True, 0.5, 1.0]] is read as [[1.0, 0.5, 1.0]].
    """
    pts = np.asarray(points)
    if pts.dtype.kind not in "iuf":
        raise ValueError(f"point coordinates must be integers or floats, got dtype {pts.dtype}")
    pts = pts.astype(float, copy=False)
    if pts.ndim == 1 and pts.size == 3:
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) point array, got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise ValueError("point cloud is empty")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point cloud contains non-finite coordinates")
    return pts


@dataclass(frozen=True, eq=False)
class Superquadric:
    """Superquadric parameters: shape exponents, axis scales, and pose.

    Attributes:
        eps1: shape exponent along the z axis, in [EPS_MIN, 2].
        eps2: cross-section shape exponent, in [EPS_MIN, 2]. Values in (1, 2]
            are legal raw fits; canonicalization folds them back into [EPS_MIN, 1].
        scale: (ax, ay, az) semi-axis lengths in meters, all > 0.
        rotation: unit quaternion (w, x, y, z) mapping local to world frame.
        translation: world-frame center in meters.
    """

    eps1: float
    eps2: float
    scale: np.ndarray
    rotation: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("eps1", "eps2"):
            object.__setattr__(self, name, _real(getattr(self, name), name, EPS_MIN, EPS_MAX))
        scale = _frozen(self.scale, (3,), "scale must be three finite positive lengths",
                        lambda v: 0.0 < v < math.inf)
        rot = _frozen(self.rotation, (4,), "rotation must be a finite quaternion (w, x, y, z)")
        # The norm as np.linalg.norm takes it for a 1-D array, so the
        # tolerance's boundary keeps its bits.
        if abs(math.sqrt(rot.dot(rot)) - 1.0) > _QUAT_NORM_TOL:
            raise ValueError("rotation quaternion must have unit norm")
        trans = _frozen(self.translation, (3,), "translation must be a finite 3-vector")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    @property
    def rotation_matrix(self):
        return quat_to_matrix(self.rotation)

    def world_to_local(self, points):
        """Map world points into the superquadric's local frame."""
        return np.stack(_local_rows(self.rotation_matrix, self.translation, as_points(points)),
                        axis=1)

    def local_to_world(self, points):
        """Map local-frame points into the world frame."""
        return np.stack(_posed_rows(self.rotation_matrix, self.translation,
                                    *as_points(points).T), axis=1)


def _linear_rows(M, x, y, z, out=None):
    """The rows of M @ p as separate arrays: (x*M[j,0] + y*M[j,1]) + z*M[j,2] in row j.

    Explicit ufuncs (not matmul) keep the arithmetic order of a scalar
    reference implementation. x, y and z have one shape; M may carry leading
    stack axes, so an (m, 3, 3) stack applied to (n,) rows gives (m, n)
    rows. With `out`, an array of 3 such rows, the rows are written into it.
    The y and z products share one scratch array.
    """
    rows = []
    tmp = None
    for j in range(3):
        row = np.multiply(x, M[..., j, 0, None], out=None if out is None else out[j])
        tmp = np.multiply(y, M[..., j, 1, None], out=tmp)
        row += tmp
        row += np.multiply(z, M[..., j, 2, None], out=tmp)
        rows.append(row)
    return rows


def _posed_rows(M, t, x, y, z, out=None):
    """Coordinate rows of M @ p + t: `_linear_rows` (into `out`), then t[j] added to row j."""
    rows = _linear_rows(M, x, y, z, out)
    for row, tj in zip(rows, t):
        row += tj
    return rows


def _local_rows(R, t, pts):
    """Coordinate rows of R^T (p - t) for each point p of an (n, 3) array."""
    return _linear_rows(R.T, *(pts[:, j] - t[j] for j in range(3)))


def _signed_pow(base, exponent):
    return np.sign(base) * np.abs(base) ** exponent


def _logaddexp_pair(a, b):
    """log(e^a + e^b), the weights e^a and e^b over that sum, and their entropy.

    One exp and one log1p per element: with hi = max(a, b) and
    d = min(a, b) - hi <= 0, t = e^d, the sum is hi + log1p(t), the larger
    term's weight 1/(1 + t), the smaller's t/(1 + t), and the entropy
    -(wa log wa + wb log wb) = log1p(t) - w_small d. A term at -inf has
    weight 0, adds 0 to the entropy and leaves the sum at the other term
    exactly; where both are -inf, d is taken as 0 (fmin drops the NaN of
    -inf - -inf), so the sum is -inf and the weights are 1/2 each. A
    difference that overflows is -inf. Returns (sum, wa, wb, entropy).
    """
    hi = np.maximum(a, b)
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.fmin(np.minimum(a, b) - hi, 0.0)
    # e^d is 0 below about -745 either way; the floor keeps w_small d at 0,
    # not 0 * -inf, for a term at -inf.
    np.maximum(d, _FLOAT_MIN, out=d)
    t = np.exp(d)
    lsum = np.log1p(t)
    w_hi = 1.0 / (1.0 + t)
    w_lo = t * w_hi
    a_hi = a >= b
    entropy = lsum - w_lo * d
    lsum += hi
    return lsum, np.where(a_hi, w_hi, w_lo), np.where(a_hi, w_lo, w_hi), entropy


def _log_inside_outside(eps1, eps2, scale, local):
    """log F at local-frame points, with the weights of the sums it is built from.

    `local` holds the coordinate rows x, y, z (a (3, n) array or the
    transpose of an (n, 3) one). With lx = (2/eps2) log(|x|/ax), ly and lz
    likewise (lz with 2/eps1), lxy = logaddexp(lx, ly) and
    log F = logaddexp((eps2/eps1) lxy, lz), returns (log F, wx, wy, h_xy,
    u, v, h_f): the weights and entropy of the inner sum, then those of the
    outer one (`_logaddexp_pair`). log F stays finite far from the surface
    and is -inf only at the center.
    """
    ax, ay, az = scale
    x, y, z = local
    with np.errstate(divide="ignore"):
        lx = (2.0 / eps2) * np.log(np.abs(x) / ax)
        ly = (2.0 / eps2) * np.log(np.abs(y) / ay)
        lz = (2.0 / eps1) * np.log(np.abs(z) / az)
    lxy, wx, wy, h_xy = _logaddexp_pair(lx, ly)
    logf, u, v, h_f = _logaddexp_pair((eps2 / eps1) * lxy, lz)
    return logf, wx, wy, h_xy, u, v, h_f


def inside_outside(sq, points):
    """Evaluate the implicit function F at local-frame points.

    F is 1 on the surface, < 1 inside, > 1 outside, and is even in each
    coordinate. It is exp of the log form the radial residual uses, so it is
    inf where F overflows. Accepts a single 3-vector or an (n, 3) array;
    returns a float or an (n,) array to match.
    """
    single = np.asarray(points).ndim == 1
    pts = as_points(points)
    with np.errstate(over="ignore"):
        f = np.exp(_log_inside_outside(sq.eps1, sq.eps2, sq.scale, pts.T)[0])
    return float(f[0]) if single else f


def _radial_residual(eps1, eps2, scale, local, d_shape=None):
    """Radial residual r * |1 - F^(-eps1/2)| at local-frame coordinate rows.

    `local` holds the rows x, y, z, as `_log_inside_outside` takes them; F
    is evaluated in that log form, and the center, where log F is -inf, has
    its residual reported as min(scale).

    With `d_shape`, a (5, n) array, also gives the closed-form derivatives
    of each residual as rows: those with respect to (eps1, eps2, ax, ay, az)
    are written into `d_shape`, and those with respect to the local
    coordinates are returned as a (3, n) array after the residuals. They
    follow the chain rule through both log-sum-exps, whose partial
    derivatives are their weights. A coordinate at 0 has weight 0 and its
    term drops out (the derivative for eps < 2, a subgradient at eps = 2).
    Columns at the center and on the surface itself (the kink of
    |1 - F^(-eps1/2)|) are 0.
    """
    ax, ay, az = scale
    x, y, z = local
    logf, wx, wy, h_xy, u, v, h_f = _log_inside_outside(eps1, eps2, scale, local)
    r = np.sqrt((x * x + y * y) + z * z)
    center = r == 0.0
    has_center = bool(center.any())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(-0.5 * eps1 * logf)
        gap = 1.0 - e
        res = r * np.abs(gap)
        if has_center:
            res[center] = min(ax, ay, az)
        if d_shape is None:
            return res

        d_local = np.empty((3, res.shape[0]))
        # d res = |gap| dr + 0.5 c d(eps1 log F) with c = r sign(gap) E, and
        # eps1 log F moves with eps1 by the entropy h_f of (u, v), with eps2
        # by u h_xy, with log|x| by 2 u wx (likewise y) and log|z| by 2 v.
        c = r * np.sign(gap) * e
        cu = c * u
        cux = cu * wx
        cuy = cu * wy
        cv = c * v
        half_c = 0.5 * c
        np.multiply(half_c, h_f, out=d_shape[0])
        np.multiply(half_c * u, h_xy, out=d_shape[1])
        np.divide(cux, -ax, out=d_shape[2])
        np.divide(cuy, -ay, out=d_shape[3])
        np.divide(cv, -az, out=d_shape[4])
        abs_gap = np.abs(gap)
        for row, cw, coord in zip(d_local, (cux, cuy, cv), (x, y, z)):
            np.multiply(abs_gap, coord, out=row)
            row /= r
            np.add(row, cw / coord, out=row, where=coord != 0.0)
    if has_center:
        d_shape[:, center] = 0.0
        d_local[:, center] = 0.0
    return res, d_local


def radial_distance(sq, points):
    """Radial Euclidean distance from world points to the surface, in meters.

    Scales each point onto the surface along the ray from the center and
    returns |p| * |1 - F(p)^(-eps1/2)|. Exact for spheres; an upper bound on
    the true Euclidean distance in general. A point exactly at the center is
    reported at min(scale).
    """
    local = _local_rows(sq.rotation_matrix, sq.translation, as_points(points))
    return _radial_residual(sq.eps1, sq.eps2, sq.scale, local)


def sample_surface(sq, n, seed=0):
    """Sample n world-frame surface points, deterministic per (sq, n, seed).

    Uses a stratified grid over the two surface angles with per-cell jitter
    drawn from `seed`; jitter stays strictly inside each cell so the poles
    are never hit exactly and no duplicate points arise.
    """
    n = _integer(n, "n", 1)
    return _surface_points(sq, n, _integer(seed, "seed", 0), np.arange(n))


def _surface_points(sq, n, seed, picks):
    """Rows `picks` of `sample_surface(sq, n, seed)`, computing only those points.

    The angle grid has n_om = ceil(sqrt(2n)) columns and n_eta = ceil(n / n_om)
    rows, total >= n cells. Sample k keeps flat row-major cell
    k * total // n: every cell when total == n, else n evenly spaced ones.
    `picks` holds sample indices in [0, n), in any order and with repeats.
    The whole jitter stream is drawn, and cos, sin and the powers run only
    at the picked cells, so each point has the full sample's bits. Returns a
    (len(picks), 3) array of world points.
    """
    n_om = int(np.ceil(np.sqrt(2.0 * n)))
    n_eta = int(np.ceil(n / n_om))
    total = n_eta * n_om
    cells = np.asarray(picks, dtype=np.intp) * total // n
    i = cells // n_om
    j = cells - i * n_om
    jitter_eta, jitter_om = np.random.default_rng(seed).uniform(0.05, 0.95, size=(2, total))
    eta = -0.5 * np.pi + (i + jitter_eta[cells]) * (np.pi / n_eta)
    omega = -np.pi + (j + jitter_om[cells]) * (2.0 * np.pi / n_om)

    ce = _signed_pow(np.cos(eta), sq.eps1)
    se = _signed_pow(np.sin(eta), sq.eps1)
    co = _signed_pow(np.cos(omega), sq.eps2)
    so = _signed_pow(np.sin(omega), sq.eps2)
    ax, ay, az = sq.scale
    # Coordinate rows until the end: the pose then runs on contiguous arrays.
    local = (ax * ce * co, ay * ce * so, az * se)
    return np.stack(_posed_rows(sq.rotation_matrix, sq.translation, *local), axis=1)


def farthest_point_sample(points, k, start=0):
    """Greedy farthest point sampling; returns k distinct indices.

    The first index is `start`; each subsequent index maximizes the minimum
    squared distance to the already-selected set, ties broken by lowest index.
    A chosen index is never chosen again, so a cloud with fewer than k
    distinct points still yields k distinct indices (the duplicates of
    chosen points, lowest index first).

    Exact: the indices equal those of a pass that updates every distance.
    Each squared distance is (dx*dx + dy*dy) + dz*dz in float64, the order
    of a scalar loop. A pick of value v (the largest minimum distance)
    updates only the points whose coordinate along the axis of largest
    extent lies within sqrt(v), plus a rounding margin, of the new
    center's. For any other point, rounding is monotone, so its computed
    distance is at least its own squared axis difference, which is at
    least v, which is at least its current minimum: that minimum cannot
    change. Distances that overflow are inf, without a warning.
    """
    pts = as_points(points)
    n = pts.shape[0]
    k = _integer(k, "k", 1, n)
    start = _integer(start, "start", 0, n - 1)
    B = _FPS_BLOCK
    nb = -(-n // B)
    rows = np.ascontiguousarray(pts.T)
    with np.errstate(over="ignore"):
        # Points sorted along the axis of largest extent, laid out in nb
        # blocks of B; the last block is padded with the last point at a
        # distance of -inf, which no pick reaches and no update changes.
        # Any order of equal keys gives the same picks: the bounds of the
        # blocks come from the sorted keys, which are the same sequence
        # for every such order; each point's distance is exact wherever it
        # sits; and a tied pick goes to the lowest original index.
        axis = int(np.argmax(rows.max(axis=1) - rows.min(axis=1)))
        order = np.argsort(rows[axis])
        order = np.pad(order, (0, nb * B - n), mode="edge")
        xyz = np.take(rows, order, axis=1)
        lo, hi = xyz[axis, ::B].tolist(), xyz[axis, B - 1::B].tolist()
        d2 = np.full(nb * B, np.inf)
        d2[n:] = -np.inf
        blocks = d2.reshape(nb, B)
        bmax = np.empty(nb)
        buf = np.empty_like(xyz)
        chosen = np.empty(k, dtype=np.intp)
        chosen[0] = start
        p = int(np.argmax(order == start))
        v = math.inf
        for m in range(1, k):
            # Only blocks whose axis range meets [c - r, c + r] can change;
            # the margins cover the rounding of r, c - r and c + r.
            c = float(xyz[axis, p])
            r = math.sqrt(v) * (1.0 + 1e-9) + 1e-15 * abs(c)
            b0, b1 = bisect.bisect_left(hi, c - r), bisect.bisect_right(lo, c + r)
            i0, i1 = b0 * B, b1 * B
            delta = buf[:, i0:i1]
            np.subtract(xyz[:, i0:i1], xyz[:, p:p + 1], out=delta)
            np.multiply(delta, delta, out=delta)
            dist = delta[0]
            np.add(dist, delta[1], out=dist)
            np.add(dist, delta[2], out=dist)
            seg = d2[i0:i1]
            np.minimum(seg, dist, out=seg)
            d2[p] = -np.inf
            np.maximum.reduce(blocks[b0:b1], axis=1, out=bmax[b0:b1])
            b = int(bmax.argmax())
            v = float(bmax[b])
            row = blocks[b]
            p = b * B + int(row.argmax())
            # The first maximum in sorted order; on a tie, the lowest index.
            if np.count_nonzero(bmax == v) > 1 or np.count_nonzero(row == v) > 1:
                ties = np.flatnonzero(d2 == v)
                p = int(ties[order[ties].argmin()])
            chosen[m] = order[p]
    return chosen


def surface_hausdorff(sq_a, sq_b, n=2048, seed=0):
    """Symmetric surface deviation between two superquadrics, in meters.

    Samples n points on each surface and takes the largest radial distance
    from either sample to the other surface. Zero (to float precision) iff
    the two parameter sets describe the same world-frame surface.
    """
    pa = sample_surface(sq_a, n, seed)
    pb = sample_surface(sq_b, n, seed)
    return max(float(np.max(radial_distance(sq_b, pa))),
               float(np.max(radial_distance(sq_a, pb))))
