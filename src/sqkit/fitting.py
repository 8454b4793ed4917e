"""Superquadric recovery from point clouds by damped nonlinear least squares.

The fitter minimizes the sum of squared radial surface distances over the 11
parameters (two exponents, three scales, rotation, translation). Rotation is
optimized through a local 3-vector increment that every trial step folds
into the pose quaternion, so the quaternion stays normalized and the chart
stays centered. The Jacobian is analytic: the closed-form derivatives of
`core`'s radial-residual kernel, mapped onto the rotation increment and the
translation. Damped (Levenberg-Marquardt) steps are accepted only when they
reduce the objective; each trial is evaluated once, residuals and Jacobian
together, and an accepted trial's evaluation carries into the next step.
Exponents and scales are projected onto their bounds at step time, and
several deterministic starts guard against local minima; the lowest-residual
start wins, ties broken by start index. Each start records why it stopped.

Two rules stop a start that cannot win. Start j >= 3 runs from the same axis
order as start j - 3; once an accepted step brings it within a small
distance of that start's end (exponents, scales, translation and rotation),
it has entered a basin already searched and stops as "duplicate". A start
that has taken at least ten accepted steps and whose objective is still
above twice the lowest final objective of the starts before it stops as
"dominated": its basin is far worse than one already found.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import (EPS_MIN, EPS_MAX, Superquadric, _linear_rows, _local_rows, _radial_residual,
                   as_points)
from .rotations import matrix_to_quat, quat_mul, quat_normalize, quat_to_matrix


class DegenerateCloudError(ValueError):
    """The cloud does not span three dimensions."""


class UnderDeterminedError(ValueError):
    """Fewer points than free parameters."""


_N_PARAMS = 11
# Moment eigenvalues closer than this (relative to the largest) leave their
# eigenbasis arbitrary within the shared subspace.
_DEGENERATE_TOL = 0.01
# Residuals this small relative to the largest axis are at the resolution of
# the float32 coordinates a PLY cloud stores (about 6e-8 relative); grinding
# further buys nothing.
_RMS_FLOOR_REL = 1e-7
# Projection bounds for the axis scales, in meters.
_SCALE_BOUNDS = (1e-4, 10.0)
# The early stops (see StartDiagnostic). A duplicate is within _DUPLICATE_EPS
# in each exponent, _DUPLICATE_REL of the twin's largest scale in each scale
# and translation coordinate and _DUPLICATE_DEG degrees of rotation.
_DUPLICATE_EPS = 0.05
_DUPLICATE_REL = 0.02
_DUPLICATE_DEG = 2.0
# |q . q'| above this is a rotation angle below _DUPLICATE_DEG.
_DUPLICATE_COS = math.cos(math.radians(_DUPLICATE_DEG) / 2.0)
_DOMINATED_STEPS = 10
_DOMINATED_FACTOR = 2.0


@dataclass(frozen=True)
class FitConfig:
    """Fitting options.

    Attributes:
        max_iterations: accepted-step budget per start.
        multistart: number of initial guesses to optimize.
        convergence_tol: relative objective decrease that counts as converged.
        noise_scale: Huber loss scale in meters; 0 means plain least squares.
        seed: seeds the perturbations of starts cycled beyond the nine
            deterministic initial guesses.
    """

    max_iterations: int = 200
    multistart: int = 6
    convergence_tol: float = 1e-8
    noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # Integers only (Python or numpy, not bool), kept as Python ints.
        for name in ("max_iterations", "multistart", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.max_iterations < 1 or self.multistart < 1:
            raise ValueError("iteration and start counts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")
        if not 0 <= self.noise_scale < np.inf:
            raise ValueError("noise_scale must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class StartDiagnostic:
    """Per-start record: where it began, where it ended, and why it stopped.

    params is the start's final superquadric. evaluations counts the start's
    kernel calls (residuals and Jacobian together): one at the start, then
    one per trial step, accepted or not.

    stop_reason is one of:
        "rel_drop": an accepted step cut the objective by at most
            convergence_tol, relative;
        "rms_floor": the RMS residual reached _RMS_FLOOR_REL * max(scale);
        "duplicate": (starts 3 and later) an accepted step brought the
            parameters within the _DUPLICATE_* distances of the final
            parameters of the start three before, which has the same axis
            order (its "twin"): the basin was already searched;
        "dominated": after at least _DOMINATED_STEPS accepted steps, the
            objective was above _DOMINATED_FACTOR times the lowest final
            objective of the starts before;
        "no_descent": no damping gave a step that lowers the objective;
        "budget": max_iterations accepted steps were taken without any of
            the above.
    """

    initial: Superquadric
    params: Superquadric
    rms_residual: float
    iterations: int
    evaluations: int
    stop_reason: str
    objective_history: tuple

    @property
    def converged(self):
        """False only for "budget"; a "duplicate" or "dominated" start counts as converged."""
        return self.stop_reason != "budget"


@dataclass(frozen=True, eq=False)
class FitResult:
    """Best fit across starts.

    rms_residual is the minimum over all starts; converged reports whether
    the winning start met the tolerance.
    """

    params: Superquadric
    rms_residual: float
    iterations: int
    converged: bool
    start_diagnostics: tuple = field(repr=False, default=())


def _residuals(x, q, pts):
    """Radial residuals of pts at parameter vector x and their (n, 11) Jacobian.

    x is (eps1, eps2, ax, ay, az, rotation increment, translation); the pose
    is the unit quaternion q, and x's rotation increment is always 0 here.
    The Jacobian comes from the kernel's closed-form derivatives. The
    rotation columns hold the derivative at that zero increment, where
    d local / d theta_k = local x e_k, so they are g x local for the kernel's
    local-coordinate gradient g; the translation columns are -R g. The
    coordinates are worked on as contiguous rows (`fit` passes the cloud in
    Fortran order, so its columns are contiguous too), and the Jacobian is
    the transpose of an (11, n) array filled row by row.
    """
    rot = quat_to_matrix(q)
    local = _local_rows(rot, x[8:11], pts)
    jac = np.empty((_N_PARAMS, pts.shape[0]))
    res, (gx, gy, gz) = _radial_residual(x[0], x[1], x[2:5], local, d_shape=jac[0:5])
    lx, ly, lz = local
    # g x local in np.cross's arithmetic, then -R g
    np.multiply(gy, lz, out=jac[5])
    jac[5] -= gz * ly
    np.multiply(gz, lx, out=jac[6])
    jac[6] -= gx * lz
    np.multiply(gx, ly, out=jac[7])
    jac[7] -= gy * lx
    _linear_rows(-rot, gx, gy, gz, out=jac[8:11])
    return res, jac.T


def _objective(res, huber_scale):
    if huber_scale <= 0:
        return 0.5 * float(np.dot(res, res))
    a = np.abs(res)
    quad = np.minimum(a, huber_scale)
    return float(np.sum(0.5 * quad * quad + huber_scale * (a - quad)))


def _huber_weights(res, huber_scale):
    a = np.abs(res)
    w = np.ones_like(res)
    mask = a > huber_scale
    w[mask] = huber_scale / a[mask]
    return w


def _project(x):
    """x, a list of floats, with exponents and scales clipped to their bounds as np.clip does."""
    lo, hi = _SCALE_BOUNDS
    return ([min(max(e, EPS_MIN), EPS_MAX) for e in x[0:2]]
            + [min(max(s, lo), hi) for s in x[2:5]] + x[5:])


def _fold(q, w):
    """quat_normalize(quat_mul(q, quat_from_rotvec(w))), as a tuple of floats.

    The increment's quaternion and the product are built on Python floats,
    with the same operations in the same order. The angle is the square
    root of numpy's dot, as np.linalg.norm takes it (BLAS may fuse its
    multiply-adds), and sin and cos are numpy's, whose SIMD loops may round
    differently from libm.
    """
    v = np.array(w)
    angle = math.sqrt(v.dot(v))
    if angle < 1e-300:
        dq = (1.0, 0.0, 0.0, 0.0)
    else:
        half = 0.5 * angle
        s = float(np.sin(half)) / angle
        dq = (float(np.cos(half)), w[0] * s, w[1] * s, w[2] * s)
    return tuple(quat_normalize(quat_mul(q, dq)).tolist())


def _pack(sq):
    return np.concatenate(([sq.eps1, sq.eps2], sq.scale, np.zeros(3), sq.translation))


def _same_basin(x, q, twin_x, twin_q):
    """Whether x with pose q is within the _DUPLICATE_* distances of the twin's
    (q and -q are the same rotation, hence |q . q'|)."""
    tol = _DUPLICATE_REL * max(twin_x[2:5])
    return (abs(x[0] - twin_x[0]) < _DUPLICATE_EPS and abs(x[1] - twin_x[1]) < _DUPLICATE_EPS
            and all(abs(a - b) < tol for a, b in zip(x[2:5] + x[8:11], twin_x[2:5] + twin_x[8:11]))
            and abs(sum(a * b for a, b in zip(q, twin_q))) > _DUPLICATE_COS)


def _optimize_start(pts, start, config, twin=None, bound=math.inf):
    """One LM start from `start`; stops as "duplicate" near the superquadric
    `twin` and as "dominated" on an objective above `bound` (see
    StartDiagnostic). Returns the final parameters, RMS, accepted steps,
    kernel calls, stop reason and objective history."""
    # The parameters and the quaternion are Python floats between the
    # kernel calls; the per-trial bookkeeping is on 11 and 4 numbers.
    if twin is not None:
        twin_x, twin_q = _pack(twin).tolist(), tuple(twin.rotation.tolist())
    q = tuple(start.rotation.tolist())
    x = _project(_pack(start).tolist())
    res, jac = _residuals(x, q, pts)
    evaluations = 1
    obj = _objective(res, config.noise_scale)
    history = [obj]
    lam = 1e-3
    stop_reason = "budget"
    iterations = 0
    for _ in range(config.max_iterations):
        jac_w = jac
        if config.noise_scale > 0:
            jac_w = jac * _huber_weights(res, config.noise_scale)[:, None]
        neg_grad = -(jac_w.T @ res)
        hess = jac_w.T @ jac
        # hess + lam diag(damp), with only its diagonal rewritten per trial
        damped = hess.copy()
        diag = hess.reshape(-1)[::_N_PARAMS + 1]
        damped_diag = damped.reshape(-1)[::_N_PARAMS + 1]
        damp = np.maximum(diag, 1e-12)
        accepted = False
        for _ in range(40):
            np.add(diag, lam * damp, out=damped_diag)
            try:
                step = np.linalg.solve(damped, neg_grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            # The trial's rotation increment is folded into its quaternion
            # before the one evaluation, so an accepted trial carries over.
            x_new = _project([a + b for a, b in zip(x, step.tolist())])
            q_new = _fold(q, x_new[5:8])
            x_new[5:8] = (0.0, 0.0, 0.0)
            res_new, jac_new = _residuals(x_new, q_new, pts)
            evaluations += 1
            obj_new = _objective(res_new, config.noise_scale)
            if math.isfinite(obj_new) and obj_new < obj:
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
        if np.sqrt(np.mean(res * res)) <= _RMS_FLOOR_REL * max(x[2:5]):
            stop_reason = "rms_floor"
            break
        if twin is not None and _same_basin(x, q, twin_x, twin_q):
            stop_reason = "duplicate"
            break
        if iterations >= _DOMINATED_STEPS and obj > bound:
            stop_reason = "dominated"
            break
    params = Superquadric(eps1=x[0], eps2=x[1], scale=x[2:5], rotation=q, translation=x[8:11])
    rms = float(np.sqrt(np.mean(res * res)))
    return params, rms, iterations, evaluations, stop_reason, tuple(history)


def initial_guesses(points, k, seed=0):
    """Deterministic starting parameter sets derived from cloud moments.

    The first guess places the centroid, the principal moment axes (made
    right-handed; identity frame if the moments are nearly isotropic), the
    per-axis half-extents, and exponents (1, 1). Further guesses cycle the
    two other even axis relabelings and the exponent variants (0.1, 0.1) and
    (1.9, 1.9); past those nine, guesses repeat with small perturbations
    drawn from `seed`.
    """
    pts = as_points(points)
    n = pts.shape[0]
    k = int(k)
    if k < 1:
        raise ValueError("guess count must be >= 1")
    if n < _N_PARAMS:
        raise UnderDeterminedError(f"need at least {_N_PARAMS} points, got {n}")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered / n
    evals, evecs = np.linalg.eigh(cov)
    if evals[0] < 1e-12 * evals[2]:
        raise DegenerateCloudError("cloud does not span 3 dimensions")
    axes = _orient_axes(_canonical_eigenbasis(evals, evecs))
    proj = centered @ axes
    half = 0.5 * (proj.max(axis=0) - proj.min(axis=0))
    half = np.maximum(half, 1e-6)

    perms = [np.array([0, 1, 2]), np.array([1, 2, 0]), np.array([2, 0, 1])]
    eps_variants = [(1.0, 1.0), (0.1, 0.1), (1.9, 1.9)]
    base = [(e, p) for e in eps_variants for p in perms]
    rng = np.random.default_rng(seed)
    guesses = []
    for i in range(k):
        (e1, e2), perm = base[i % len(base)]
        rot = axes[:, perm]
        scale = half[perm].copy()
        if i >= len(base):
            e1 = float(np.clip(e1 + rng.uniform(-0.2, 0.2), EPS_MIN, EPS_MAX))
            e2 = float(np.clip(e2 + rng.uniform(-0.2, 0.2), EPS_MIN, EPS_MAX))
            scale = scale * rng.uniform(0.7, 1.4, size=3)
        guesses.append(Superquadric(
            eps1=e1, eps2=e2, scale=scale,
            rotation=matrix_to_quat(rot), translation=centroid.copy(),
        ))
    return guesses


def _canonical_eigenbasis(evals, evecs):
    """Replace each near-degenerate eigen-subspace with a deterministic basis.

    Within a cluster of nearly equal eigenvalues the eigenvectors are an
    arbitrary rotation of the subspace; substitute the orthonormal subspace
    basis closest to the world axes so guesses are stable and reproducible.
    """
    tol = _DEGENERATE_TOL * evals[-1]
    axes = evecs.copy()
    lo = 0
    for hi in range(1, 4):
        if hi < 3 and evals[hi] - evals[hi - 1] <= tol:
            continue
        if hi - lo > 1:
            span = evecs[:, lo:hi]
            proj = span @ (span.T @ np.eye(3))
            order = np.sort(np.argsort(-np.linalg.norm(proj, axis=0), kind="stable")[: hi - lo])
            basis = []
            for j in order:
                v = proj[:, j] - sum((proj[:, j] @ b) * b for b in basis)
                norm = np.linalg.norm(v)
                if norm < 1e-9:
                    v = span[:, len(basis)] - sum((span[:, len(basis)] @ b) * b for b in basis)
                    norm = np.linalg.norm(v)
                basis.append(v / norm)
            axes[:, lo:hi] = np.stack(basis, axis=1)
        lo = hi
    return axes


def _orient_axes(evecs):
    axes = evecs.copy()
    for i in range(3):
        col = axes[:, i]
        if col[np.argmax(np.abs(col))] < 0:
            axes[:, i] = -col
    if np.linalg.det(axes) < 0:
        axes[:, 2] = -axes[:, 2]
    return axes


def fit(points, config=None):
    """Fit a superquadric to a world-frame cloud.

    Runs `config.multistart` deterministic starts and returns the one with
    the lowest RMS radial residual (ties broken by start index); starts that
    cannot win stop early ("duplicate", "dominated"). `converged` reflects
    the winning start; per-start details land in start_diagnostics.
    """
    if config is None:
        config = FitConfig()
    pts = as_points(points)
    starts = initial_guesses(pts, config.multistart, seed=config.seed)
    # One copy in Fortran order makes each coordinate column the kernel
    # reads contiguous; the guesses' moments above keep the input's sums.
    cols = np.asfortranarray(pts)
    diagnostics = []
    best = None
    best_obj = math.inf
    for idx, start in enumerate(starts):
        twin = diagnostics[idx - 3].params if idx >= 3 else None
        params, rms, iters, evals, stop_reason, history = _optimize_start(
            cols, start, config, twin, _DOMINATED_FACTOR * best_obj)
        best_obj = min(best_obj, history[-1])
        diag = StartDiagnostic(
            initial=start, params=params, rms_residual=rms, iterations=iters,
            evaluations=evals, stop_reason=stop_reason, objective_history=history,
        )
        diagnostics.append(diag)
        if best is None or rms < best[0]:
            best = (rms, idx, params, iters, diag.converged)
        if diag.converged and rms <= _RMS_FLOOR_REL * np.max(params.scale):
            # Essentially exact fit: later starts can only differ by float
            # dust, so the lowest-index perfect start wins deterministically.
            break
    rms, _, params, iters, conv = best
    return FitResult(
        params=params, rms_residual=rms, iterations=iters,
        converged=conv, start_diagnostics=tuple(diagnostics),
    )
