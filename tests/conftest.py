"""Shared helpers: random shape factories and independent oracles.

The oracles here are deliberately written as plain loops, or from closed
forms, so the library's vectorized implementations are checked against
structurally different code.
"""

import math
import os
from pathlib import Path

import numpy as np

from sqkit import EPS_MIN, Superquadric
from sqkit.core import EPS_MAX, _apply_linear
from sqkit.fitting import (_RMS_FLOOR_REL, _SCALE_BOUNDS, _huber_weights, _objective, _pack,
                           _residuals)
from sqkit.rotations import (quat_from_axis_angle, quat_from_rotvec, quat_mul, quat_normalize,
                             quat_to_matrix, random_quaternion)

# Subprocesses the tests start (the CLI as a module, the demos) import sqkit
# from this tree as well, whether or not the package is installed.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

QUARTER_TURN_Z = quat_from_axis_angle((0.0, 0.0, 1.0), np.pi / 2.0)


def random_superquadric(rng, eps1=(0.1, 1.0), eps2=(0.1, 1.0), scale=(0.02, 0.2),
                        posed=True):
    """Seeded random shape; pose defaults to a random rotation/translation."""
    e1 = rng.uniform(*eps1)
    e2 = rng.uniform(*eps2)
    s = rng.uniform(*scale, size=3)
    if posed:
        q = random_quaternion(rng)
        t = rng.uniform(-0.3, 0.3, size=3)
    else:
        q = np.array([1.0, 0.0, 0.0, 0.0])
        t = np.zeros(3)
    return Superquadric(eps1=e1, eps2=e2, scale=s, rotation=q, translation=t)


def relabel_candidates(sq):
    """Equivalent records under the x/y relabel gauge.

    (eps, (ax, ay, az), R) and (eps, (ay, ax, az), R * Rz(90deg)) describe the
    same surface exactly, so recovered parameters are compared modulo both.
    """
    swapped = Superquadric(
        eps1=sq.eps1, eps2=sq.eps2,
        scale=np.array([sq.scale[1], sq.scale[0], sq.scale[2]]),
        rotation=quat_mul(sq.rotation, QUARTER_TURN_Z),
        translation=sq.translation,
    )
    return [sq, swapped]


def fps_oracle(points, k, start):
    """Greedy farthest point sampling as plain Python loops.

    On Python floats (IEEE doubles, as float64), so an overflow is inf
    without a warning. A chosen index gets a distance of -inf, so it is
    never chosen again.
    """
    pts = np.asarray(points, dtype=float).tolist()
    n = len(pts)
    chosen = [start]
    mindist = [0.0] * n
    for i in range(n):
        dx = pts[i][0] - pts[start][0]
        dy = pts[i][1] - pts[start][1]
        dz = pts[i][2] - pts[start][2]
        mindist[i] = (dx * dx + dy * dy) + dz * dz
    mindist[start] = -math.inf
    for _ in range(1, k):
        best_i = 0
        best_d = mindist[0]
        for i in range(1, n):
            if mindist[i] > best_d:
                best_d = mindist[i]
                best_i = i
        chosen.append(best_i)
        for i in range(n):
            dx = pts[i][0] - pts[best_i][0]
            dy = pts[i][1] - pts[best_i][1]
            dz = pts[i][2] - pts[best_i][2]
            d = (dx * dx + dy * dy) + dz * dz
            if d < mindist[i]:
                mindist[i] = d
        mindist[best_i] = -math.inf
    return chosen


def fps_full_pass(points, k, start):
    """Greedy farthest point sampling that updates every distance per pick.

    Vectorized over the points, in the oracle's (dx*dx + dy*dy) + dz*dz
    order and with its never-re-pick rule; fast enough for large clouds.
    """
    pts = np.asarray(points, dtype=float)
    chosen = [start]
    with np.errstate(over="ignore"):
        d2 = np.full(len(pts), np.inf)
        for _ in range(1, k):
            d = pts - pts[chosen[-1]]
            d *= d
            np.minimum(d2, (d[:, 0] + d[:, 1]) + d[:, 2], out=d2)
            d2[chosen[-1]] = -np.inf
            chosen.append(int(np.argmax(d2)))
    return chosen


def sample_surface_oracle(sq, n, seed=0):
    """`sample_surface` in its (n, 3) formulation.

    The local points are stacked into an (total, 3) array, gathered by
    `local[keep]` and posed by `local_to_world`.
    """
    n = int(n)
    rng = np.random.default_rng(seed)
    n_om = int(np.ceil(np.sqrt(2.0 * n)))
    n_eta = int(np.ceil(n / n_om))
    total = n_eta * n_om

    jitter = rng.uniform(0.05, 0.95, size=(2, n_eta, n_om))
    i = np.arange(n_eta)[:, None]
    j = np.arange(n_om)[None, :]
    eta = -0.5 * np.pi + (i + jitter[0]) * (np.pi / n_eta)
    omega = -np.pi + (j + jitter[1]) * (2.0 * np.pi / n_om)

    def signed_pow(base, exponent):
        return np.sign(base) * np.abs(base) ** exponent

    ce = signed_pow(np.cos(eta), sq.eps1)
    se = signed_pow(np.sin(eta), sq.eps1)
    co = signed_pow(np.cos(omega), sq.eps2)
    so = signed_pow(np.sin(omega), sq.eps2)
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


def _project(x):
    out = x.copy()
    out[0:2] = np.clip(out[0:2], EPS_MIN, EPS_MAX)
    out[2:5] = np.clip(out[2:5], *_SCALE_BOUNDS)
    return out


def _unpack(x, q):
    return Superquadric(
        eps1=x[0], eps2=x[1], scale=x[2:5].copy(), rotation=q, translation=x[8:11].copy(),
    )


def optimize_start_reference(pts, start, config):
    """One LM start in the earlier numpy-array formulation of `fitting._optimize_start`.

    The loop as it was before its bookkeeping moved to Python floats: the
    parameters as an 11-array projected by np.clip, the damped matrix as
    hess + lam * np.diag(damp), and the rotation fold through
    `quat_from_rotvec`, `quat_mul` and `quat_normalize`. It shares the
    kernel (`fitting._residuals`) and the objective with the library.
    """
    q = np.array(start.rotation)
    x = _project(_pack(start))
    res, jac = _residuals(x, q, pts)
    evaluations = 1
    obj = _objective(res, config.noise_scale)
    history = [obj]
    lam = 1e-3
    stop_reason = "budget"
    iterations = 0
    for _ in range(int(config.max_iterations)):
        jac_w = jac
        if config.noise_scale > 0:
            jac_w = jac * _huber_weights(res, config.noise_scale)[:, None]
        grad = jac_w.T @ res
        hess = jac_w.T @ jac
        damp = np.maximum(np.diag(hess), 1e-12)
        accepted = False
        for _ in range(40):
            try:
                step = np.linalg.solve(hess + lam * np.diag(damp), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            # The trial's rotation increment is folded into its quaternion
            # before the one evaluation, so an accepted trial carries over.
            x_new = _project(x + step)
            q_new = quat_normalize(quat_mul(q, quat_from_rotvec(x_new[5:8])))
            x_new[5:8] = 0.0
            res_new, jac_new = _residuals(x_new, q_new, pts)
            evaluations += 1
            obj_new = _objective(res_new, config.noise_scale)
            if np.isfinite(obj_new) and obj_new < obj:
                accepted = True
                break
            lam *= 4.0
            if lam > 1e14:
                break
        if not accepted:
            # No descent direction at any damping: numerically stationary.
            stop_reason = "no_descent"
            break
        iterations += 1
        rel_drop = (obj - obj_new) / max(obj, 1e-300)
        x, q, res, jac, obj = x_new, q_new, res_new, jac_new, obj_new
        history.append(obj)
        lam = max(lam / 3.0, 1e-12)
        if rel_drop <= config.convergence_tol:
            stop_reason = "rel_drop"
            break
        if np.sqrt(np.mean(res * res)) <= _RMS_FLOOR_REL * np.max(x[2:5]):
            stop_reason = "rms_floor"
            break
    params = _unpack(x, q)
    rms = float(np.sqrt(np.mean(res * res)))
    return params, rms, iterations, evaluations, stop_reason, tuple(history)


def inside_outside_oracle(sq, local):
    """F in power form at (n, 3) local points, term by term.

    ((|x|/ax)^(2/e2) + (|y|/ay)^(2/e2))^(e2/e1) + (|z|/az)^(2/e1); a term that
    overflows makes F inf even where F itself would be finite.
    """
    ax, ay, az = sq.scale
    local = np.asarray(local, dtype=float)
    with np.errstate(over="ignore"):
        fx = (np.abs(local[:, 0]) / ax) ** (2.0 / sq.eps2)
        fy = (np.abs(local[:, 1]) / ay) ** (2.0 / sq.eps2)
        fz = (np.abs(local[:, 2]) / az) ** (2.0 / sq.eps1)
        return (fx + fy) ** (sq.eps2 / sq.eps1) + fz


def polar_oracle(M):
    """Polar factors via eigendecomposition of M^T M."""
    M = np.asarray(M, dtype=float)
    w, V = np.linalg.eigh(M.T @ M)
    P = V @ np.diag(np.sqrt(w)) @ V.T
    R = M @ np.linalg.inv(P)
    return R, P


def mssd_oracle(est, gt, template, rotations):
    """Exhaustive double-loop MSSD over explicit symmetry rotations."""
    template = np.asarray(template, dtype=float)
    best = math.inf
    for S in rotations:
        worst = -math.inf
        for p in template:
            x, y, z = p
            sx = (x * S[0][0] + y * S[0][1]) + z * S[0][2]
            sy = (x * S[1][0] + y * S[1][1]) + z * S[1][2]
            sz = (x * S[2][0] + y * S[2][1]) + z * S[2][2]
            ex = _affine_coord(est, x, y, z)
            gx = _affine_coord(gt, sx, sy, sz)
            dx = ex[0] - gx[0]
            dy = ex[1] - gx[1]
            dz = ex[2] - gx[2]
            d = math.sqrt((dx * dx + dy * dy) + dz * dz)
            if d > worst:
                worst = d
        if worst < best:
            best = worst
    return best


def mspd_oracle(est, gt, template, rotations, intrinsics):
    """Exhaustive double-loop MSPD over explicit symmetry rotations.

    On Python floats; each point projects as (fx*x)/z + cx, (fy*y)/z + cy.
    """
    fx, fy, cx, cy = intrinsics.fx, intrinsics.fy, intrinsics.cx, intrinsics.cy
    best = math.inf
    for S in np.asarray(rotations, dtype=float).tolist():
        worst = -math.inf
        for x, y, z in np.asarray(template, dtype=float).tolist():
            sx = (x * S[0][0] + y * S[0][1]) + z * S[0][2]
            sy = (x * S[1][0] + y * S[1][1]) + z * S[1][2]
            sz = (x * S[2][0] + y * S[2][1]) + z * S[2][2]
            ex, ey, ez = _affine_coord(est, x, y, z)
            gx, gy, gz = _affine_coord(gt, sx, sy, sz)
            du = ((fx * ex) / ez + cx) - ((fx * gx) / gz + cx)
            dv = ((fy * ey) / ez + cy) - ((fy * gy) / gz + cy)
            d = math.sqrt(du * du + dv * dv)
            if d > worst:
                worst = d
        if worst < best:
            best = worst
    return best


def ply_body_oracle(points):
    """PLY vertex rows of an (n, 3) cloud, formatted one value at a time.

    Each coordinate is written as numpy's Dragon4 shortest float32 decimal
    in positional form; rows end in a newline.
    """
    rows = []
    for p in np.asarray(points, dtype=float).reshape(-1, 3):
        rows.append(" ".join(np.format_float_positional(np.float32(v), unique=True, trim="-")
                             for v in p))
    return "".join(row + "\n" for row in rows).encode("ascii")


def _affine_coord(pose, x, y, z):
    M = pose.matrix
    t = pose.translation
    return tuple((x * M[j][0] + y * M[j][1]) + z * M[j][2] + t[j] for j in range(3))


def lp_radius(theta, p):
    """Radius of the unit l_p ball along azimuth theta.

    A superquadric with exponent eps2 and equal radial scales a has, at each
    height, an l_p ball with p = 2/eps2 as its cross-section, scaled by a.
    """
    return (np.abs(np.cos(theta)) ** p + np.abs(np.sin(theta)) ** p) ** (-1.0 / p)


def _fold_radii(eps2, theta):
    """Cross-section radii of a unit-radius input and of its twin at azimuth
    theta of the input's frame: rho_p(theta) and s * rho_q(theta - pi/4).

    The twin has exponent 2 - eps2 (floored at EPS_MIN), so q = 2/(2 - eps2);
    s is the linear rescale through s(1) = 1 and s(2) = sqrt(2)/2. The twin is
    turned 45 degrees about local z; l_q radii are even and pi/2-periodic, so
    the turn's direction does not matter.
    """
    q = 2.0 / max(2.0 - eps2, EPS_MIN)
    s = 1.0 + (eps2 - 1.0) * (math.sqrt(0.5) - 1.0)
    return lp_radius(theta, 2.0 / eps2), s * lp_radius(theta - np.pi / 4.0, q)


def fold_partners(sq, points, inverse=False):
    """Same-height partners of world points under the documented exponent fold.

    Each point keeps its height and its azimuth theta in `sq`'s local frame;
    its horizontal radius is scaled by s * rho_q(theta - pi/4) / rho_p(theta).
    This maps the surface of `sq` (ax == ay, eps2 in (1, 2]) onto its twin;
    `inverse=True` divides instead, mapping the twin back onto `sq`.
    """
    local = sq.world_to_local(points)
    rho, twin = _fold_radii(sq.eps2, np.arctan2(local[:, 1], local[:, 0]))
    ratio = rho / twin if inverse else twin / rho
    moved = np.column_stack([local[:, 0] * ratio, local[:, 1] * ratio, local[:, 2]])
    return sq.local_to_world(moved)


def fold_gap(eps2):
    """g(eps2) = max over theta of |s rho_q(theta - pi/4) - rho_p(theta)|.

    The largest cross-section gap between a unit-radius input and its twin,
    which bounds how far the fold moves any surface point at fixed height
    (radial scale times g). Both radii are even and mirror-symmetric about
    pi/4 with period pi/2, so a dense grid on [0, pi/4] covers every azimuth.
    """
    rho, twin = _fold_radii(eps2, np.linspace(0.0, np.pi / 4.0, 100001))
    return float(np.max(np.abs(twin - rho)))


# Characteristic magnitudes of the fit parameters (exponents, scales in
# meters, rotation increments in radians, translations in meters) that floor
# the central-difference steps.
_FD_STEP_FLOOR = np.array([0.1, 0.1, 0.01, 0.01, 0.01, 1.0, 1.0, 1.0, 0.01, 0.01, 0.01])
_FD_REL_STEP = 1e-6


def _batch_radial_residuals(thetas, q_ref, pts):
    """Radial residuals for a batch of 11-parameter vectors; returns (b, n).

    Each row is (eps1, eps2, ax, ay, az, rotation increment, translation),
    posed as q_ref composed with the increment, evaluated by einsum rather
    than the library's kernel.
    """
    thetas = np.atleast_2d(thetas)
    rot = np.stack([quat_to_matrix(quat_mul(q_ref, quat_from_rotvec(th[5:8])))
                    for th in thetas])
    diff = pts[None, :, :] - thetas[:, None, 8:11]
    local = np.einsum("bji,bnj->bni", rot, diff)
    eps1 = thetas[:, 0:1]
    eps2 = thetas[:, 1:2]
    ax, ay, az = thetas[:, 2:3], thetas[:, 3:4], thetas[:, 4:5]
    with np.errstate(divide="ignore"):
        lx = (2.0 / eps2) * np.log(np.abs(local[:, :, 0]) / ax)
        ly = (2.0 / eps2) * np.log(np.abs(local[:, :, 1]) / ay)
        lz = (2.0 / eps1) * np.log(np.abs(local[:, :, 2]) / az)
    logf = np.logaddexp((eps2 / eps1) * np.logaddexp(lx, ly), lz)
    r = np.sqrt(local[:, :, 0] ** 2 + local[:, :, 1] ** 2 + local[:, :, 2] ** 2)
    with np.errstate(invalid="ignore", over="ignore"):
        res = r * np.abs(1.0 - np.exp(-0.5 * eps1 * logf))
    return np.where(r == 0.0, np.minimum(np.minimum(ax, ay), az), res)


def fd_jacobian_oracle(x, q_ref, pts):
    """(n, 11) Jacobian of the fit's radial residuals by central differences.

    22 probes, each parameter stepped by 1e-6 of max(|value|, its floor).
    """
    steps = _FD_REL_STEP * np.maximum(np.abs(x), _FD_STEP_FLOOR)
    probes = np.repeat(x[None, :], 2 * x.size, axis=0)
    for i in range(x.size):
        probes[2 * i, i] += steps[i]
        probes[2 * i + 1, i] -= steps[i]
    res = _batch_radial_residuals(probes, q_ref, pts)
    return (res[0::2] - res[1::2]).T / (2.0 * steps)


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


def radial_residual_reference(x, q, pts):
    """Radial residuals and their (n, 11) Jacobian, as `fitting._residuals` returns them.

    The earlier formulation of the kernel, on (n, 3) points: two
    np.logaddexp calls, then the weights and entropies recomputed from
    their results by `_softmax_pair`, np.cross for the rotation columns and
    `_apply_linear` for the local points and the translation columns.
    """
    rot = quat_to_matrix(q)
    local = _apply_linear(rot.T, pts - x[8:11])
    eps1, eps2 = x[0], x[1]
    ax, ay, az = x[2:5]
    xs, ys, zs = local[:, 0], local[:, 1], local[:, 2]
    with np.errstate(divide="ignore"):
        lx = (2.0 / eps2) * np.log(np.abs(xs) / ax)
        ly = (2.0 / eps2) * np.log(np.abs(ys) / ay)
        lz = (2.0 / eps1) * np.log(np.abs(zs) / az)
    lxy = np.logaddexp(lx, ly)
    lplane = (eps2 / eps1) * lxy
    logf = np.logaddexp(lplane, lz)
    r = np.sqrt((xs * xs + ys * ys) + zs * zs)
    center = r == 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        e = np.exp(-0.5 * eps1 * logf)
        gap = 1.0 - e
        res = r * np.abs(gap)
    res = np.where(center, min(ax, ay, az), res)
    wx, wy, h_xy = _softmax_pair(lx, ly, lxy)
    u, v, h_f = _softmax_pair(lplane, lz, logf)
    with np.errstate(invalid="ignore", over="ignore"):
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
        for j, (cw, coord) in enumerate(((cux, xs), (cuy, ys), (cv, zs))):
            d_local[:, j] += np.divide(cw, coord, out=np.zeros_like(cw), where=coord != 0.0)
    d_shape[center] = 0.0
    d_local[center] = 0.0
    jac = np.empty((res.shape[0], 11))
    jac[:, 0:5] = d_shape
    jac[:, 5:8] = np.cross(d_local, local)
    jac[:, 8:11] = -_apply_linear(rot, d_local)
    return res, jac
