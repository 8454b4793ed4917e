"""Superquadric representation and core point-cloud geometry.

A superquadric is the implicit surface

    F(x, y, z) = ((|x|/ax)^(2/e2) + (|y|/ay)^(2/e2))^(e2/e1) + (|z|/az)^(2/e1) = 1

in its local frame, posed in the world by a rotation and a translation.
Point clouds are plain (n, 3) float arrays in meters.
"""

from dataclasses import dataclass, field

import numpy as np

from .rotations import quat_to_matrix

# Numerical floor for the shape exponents; F is undefined at 0, so box-like
# shapes are evaluated at 0.01.
EPS_MIN = 0.01
EPS_MAX = 2.0

_QUAT_NORM_TOL = 1e-9


def as_points(points, allow_empty=False):
    """Validate and return a point cloud as an (n, 3) float array.

    Accepts any array-like of 3-vectors. Rejects non-finite coordinates and,
    unless `allow_empty`, empty clouds.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and pts.size == 3:
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) point array, got shape {pts.shape}")
    if pts.shape[0] == 0 and not allow_empty:
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
        object.__setattr__(self, "eps1", float(self.eps1))
        object.__setattr__(self, "eps2", float(self.eps2))
        scale = np.array(self.scale, dtype=float)
        rot = np.array(self.rotation, dtype=float)
        trans = np.array(self.translation, dtype=float)
        if scale.shape != (3,) or not np.all(np.isfinite(scale)) or np.any(scale <= 0):
            raise ValueError("scale must be three finite positive lengths")
        if rot.shape != (4,) or not np.all(np.isfinite(rot)):
            raise ValueError("rotation must be a finite quaternion (w, x, y, z)")
        if abs(np.linalg.norm(rot) - 1.0) > _QUAT_NORM_TOL:
            raise ValueError("rotation quaternion must have unit norm")
        if trans.shape != (3,) or not np.all(np.isfinite(trans)):
            raise ValueError("translation must be a finite 3-vector")
        for name, e in (("eps1", self.eps1), ("eps2", self.eps2)):
            if not np.isfinite(e) or not (EPS_MIN <= e <= EPS_MAX):
                raise ValueError(f"{name} must lie in [{EPS_MIN}, {EPS_MAX}], got {e}")
        for arr in (scale, rot, trans):
            arr.setflags(write=False)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    @property
    def rotation_matrix(self):
        return quat_to_matrix(self.rotation)

    def world_to_local(self, points):
        """Map world points into the superquadric's local frame."""
        pts = as_points(points)
        return _apply_linear(self.rotation_matrix.T, pts - self.translation)

    def local_to_world(self, points):
        """Map local-frame points into the world frame."""
        pts = as_points(points)
        return _apply_linear(self.rotation_matrix, pts) + self.translation


def _apply_linear(M, pts):
    """M @ p for every point p of pts, as (x*c0 + y*c1) + z*c2 over M's columns.

    Explicit ufunc formulation (not matmul) keeps the arithmetic order
    identical to a scalar reference implementation. Either argument may carry
    leading stack axes: an (m, 3, 3) stack of matrices applied to (n, 3)
    points gives (m, n, 3), and so does one 3x3 matrix applied to (m, n, 3)
    points.
    """
    out = pts[..., 0:1] * M[..., None, :, 0]
    out += pts[..., 1:2] * M[..., None, :, 1]
    out += pts[..., 2:3] * M[..., None, :, 2]
    return out


def _signed_pow(base, exponent):
    return np.sign(base) * np.abs(base) ** exponent


def _log_inside_outside(eps1, eps2, scale, local):
    """log F at (n, 3) local-frame points, with the terms it is built from.

    Returns (log F, lx, ly, lz, lxy, lplane): lx = (2/eps2) log(|x|/ax), ly
    and lz likewise (lz with 2/eps1), lxy = logaddexp(lx, ly), lplane =
    (eps2/eps1) lxy and log F = logaddexp(lplane, lz). It stays finite far
    from the surface and is -inf only at the center.
    """
    ax, ay, az = scale
    with np.errstate(divide="ignore"):
        lx = (2.0 / eps2) * np.log(np.abs(local[:, 0]) / ax)
        ly = (2.0 / eps2) * np.log(np.abs(local[:, 1]) / ay)
        lz = (2.0 / eps1) * np.log(np.abs(local[:, 2]) / az)
    lxy = np.logaddexp(lx, ly)
    lplane = (eps2 / eps1) * lxy
    return np.logaddexp(lplane, lz), lx, ly, lz, lxy, lplane


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
        f = np.exp(_log_inside_outside(sq.eps1, sq.eps2, sq.scale, pts)[0])
    return float(f[0]) if single else f


def _softmax_pair(la, lb, lsum):
    """Weights exp(la - lsum), exp(lb - lsum) of a logaddexp, and their entropy.

    A term at -inf gets weight 0 and adds 0 to the entropy (0 log 0 = 0);
    both weights are 0 where lsum itself is -inf.
    """
    with np.errstate(invalid="ignore"):
        ta = la - lsum
        tb = lb - lsum
        wa = np.exp(ta)
        wb = np.exp(tb)
        entropy = -(np.where(wa > 0.0, wa * ta, 0.0) + np.where(wb > 0.0, wb * tb, 0.0))
    return np.where(wa > 0.0, wa, 0.0), np.where(wb > 0.0, wb, 0.0), entropy


def _radial_residual(eps1, eps2, scale, local, jacobian=False):
    """Radial residual r * |1 - F^(-eps1/2)| of (n, 3) local-frame points.

    F is evaluated in log form (`_log_inside_outside`); the center, where
    log F is -inf, has its residual reported as min(scale).

    With `jacobian`, also returns the closed-form derivatives of each
    residual: an (n, 5) array with respect to (eps1, eps2, ax, ay, az) and an
    (n, 3) array with respect to the local coordinates. They follow the chain
    rule through both logaddexps, whose partial derivatives are softmax
    weights. A coordinate at 0 has weight 0 and its term drops out (the
    derivative for eps < 2, a subgradient at eps = 2). Rows at the center and
    on the surface itself (the kink of |1 - F^(-eps1/2)|) are 0.
    """
    ax, ay, az = scale
    x, y, z = local[:, 0], local[:, 1], local[:, 2]
    logf, lx, ly, lz, lxy, lplane = _log_inside_outside(eps1, eps2, scale, local)
    r = np.sqrt((x * x + y * y) + z * z)
    center = r == 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        e = np.exp(-0.5 * eps1 * logf)
        gap = 1.0 - e
        res = r * np.abs(gap)
    res = np.where(center, min(ax, ay, az), res)
    if not jacobian:
        return res

    wx, wy, h_xy = _softmax_pair(lx, ly, lxy)
    u, v, h_f = _softmax_pair(lplane, lz, logf)
    with np.errstate(invalid="ignore", over="ignore"):
        # d res = |gap| dr + 0.5 c d(eps1 log F) with c = r sign(gap) E, and
        # eps1 log F moves with eps1 by the entropy h_f of (u, v), with eps2
        # by u h_xy, with log|x| by 2 u wx (likewise y) and log|z| by 2 v.
        c = r * np.sign(gap) * e
        cux = c * u * wx
        cuy = c * u * wy
        cv = c * v
        d_shape = np.stack([
            0.5 * c * h_f,
            0.5 * c * u * h_xy,
            -cux / ax,
            -cuy / ay,
            -cv / az,
        ], axis=1)
        d_local = np.abs(gap)[:, None] * local / r[:, None]
        for j, (cw, coord) in enumerate(((cux, x), (cuy, y), (cv, z))):
            d_local[:, j] += np.divide(cw, coord, out=np.zeros_like(cw), where=coord != 0.0)
    d_shape[center] = 0.0
    d_local[center] = 0.0
    return res, d_shape, d_local


def radial_distance(sq, points):
    """Radial Euclidean distance from world points to the surface, in meters.

    Scales each point onto the surface along the ray from the center and
    returns |p| * |1 - F(p)^(-eps1/2)|. Exact for spheres; an upper bound on
    the true Euclidean distance in general. A point exactly at the center is
    reported at min(scale).
    """
    pts = sq.world_to_local(as_points(points))
    return _radial_residual(sq.eps1, sq.eps2, sq.scale, pts)


def sample_surface(sq, n, seed=0):
    """Sample n world-frame surface points, deterministic per (sq, n, seed).

    Uses a stratified grid over the two surface angles with per-cell jitter
    drawn from `seed`; jitter stays strictly inside each cell so the poles
    are never hit exactly and no duplicate points arise.
    """
    n = int(n)
    if n < 1:
        raise ValueError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    n_om = int(np.ceil(np.sqrt(2.0 * n)))
    n_eta = int(np.ceil(n / n_om))
    total = n_eta * n_om

    jitter = rng.uniform(0.05, 0.95, size=(2, n_eta, n_om))
    i = np.arange(n_eta)[:, None]
    j = np.arange(n_om)[None, :]
    eta = -0.5 * np.pi + (i + jitter[0]) * (np.pi / n_eta)
    omega = -np.pi + (j + jitter[1]) * (2.0 * np.pi / n_om)

    ce = _signed_pow(np.cos(eta), sq.eps1)
    se = _signed_pow(np.sin(eta), sq.eps1)
    co = _signed_pow(np.cos(omega), sq.eps2)
    so = _signed_pow(np.sin(omega), sq.eps2)
    ax, ay, az = sq.scale
    local = np.stack([
        (ax * ce * co).ravel(),
        (ay * ce * so).ravel(),
        (az * se * np.ones_like(omega)).ravel(),
    ], axis=1)

    if total > n:
        keep = (np.arange(n) * total) // n
        local = local[keep]
    return sq.local_to_world(local)


def farthest_point_sample(points, k, start=0):
    """Greedy farthest point sampling; returns k distinct indices.

    The first index is `start`; each subsequent index maximizes the minimum
    squared distance to the already-selected set, ties broken by lowest index.
    """
    pts = as_points(points)
    n = pts.shape[0]
    k = int(k)
    start = int(start)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if not 0 <= start < n:
        raise ValueError(f"start index {start} out of range for {n} points")
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = start
    # Contiguous columns and preallocated buffers; each distance is summed as
    # (dx*dx + dy*dy) + dz*dz, the order of a scalar loop, so ties resolve
    # identically.
    x, y, z = (np.ascontiguousarray(pts[:, j]) for j in range(3))
    tmp = np.empty(n)

    def sq_dist(i, out):
        np.subtract(x, x[i], out=out)
        np.multiply(out, out, out=out)
        for col in (y, z):
            np.subtract(col, col[i], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(out, tmp, out=out)
        return out

    d2 = sq_dist(start, np.empty(n))
    cand = np.empty(n)
    for m in range(1, k):
        nxt = int(np.argmax(d2))
        chosen[m] = nxt
        np.minimum(d2, sq_dist(nxt, cand), out=d2)
    return chosen


def transform_points(M, t, points):
    """Apply p -> M p + t to every point, preserving order."""
    M = np.asarray(M, dtype=float)
    t = np.asarray(t, dtype=float)
    if M.shape != (3, 3) or not np.all(np.isfinite(M)):
        raise ValueError("M must be a finite 3x3 matrix")
    if t.shape != (3,) or not np.all(np.isfinite(t)):
        raise ValueError("t must be a finite 3-vector")
    if np.linalg.det(M) == 0.0:
        raise ValueError("transform matrix is singular")
    pts = as_points(points, allow_empty=True)
    return _apply_linear(M, pts) + t


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
