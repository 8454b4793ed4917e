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
"""

from dataclasses import dataclass, field

import numpy as np

from .core import EPS_MIN, EPS_MAX, Superquadric, _linear_rows, _radial_residual, as_points
from .rotations import matrix_to_quat, quat_from_rotvec, quat_mul, quat_normalize, quat_to_matrix


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
        if int(self.max_iterations) < 1 or int(self.multistart) < 1:
            raise ValueError("iteration and start counts must be >= 1")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")
        if not 0 <= self.noise_scale < np.inf:
            raise ValueError("noise_scale must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class StartDiagnostic:
    """Per-start record: where it began, where it ended, and why it stopped.

    evaluations counts the start's kernel calls (residuals and Jacobian
    together): one at the start, then one per trial step, accepted or not.

    stop_reason is one of:
        "rel_drop": an accepted step cut the objective by at most
            convergence_tol, relative;
        "rms_floor": the RMS residual reached _RMS_FLOOR_REL * max(scale);
        "no_descent": no damping gave a step that lowers the objective;
        "budget": max_iterations accepted steps were taken without any of
            the above.
    """

    initial: Superquadric
    rms_residual: float
    iterations: int
    evaluations: int
    stop_reason: str
    objective_history: tuple

    @property
    def converged(self):
        """False only for "budget"."""
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
    coordinates are worked on as contiguous rows, and the Jacobian is the
    transpose of an (11, n) array filled row by row.
    """
    rot = quat_to_matrix(q)
    local = _linear_rows(rot.T, *(pts[:, j] - x[8 + j] for j in range(3)))
    res, d_shape, (gx, gy, gz) = _radial_residual(x[0], x[1], x[2:5], local, jacobian=True)
    lx, ly, lz = local
    jac = np.empty((_N_PARAMS, res.shape[0]))
    jac[0:5] = d_shape
    # g x local in np.cross's arithmetic, then -R g
    np.multiply(gy, lz, out=jac[5])
    jac[5] -= gz * ly
    np.multiply(gz, lx, out=jac[6])
    jac[6] -= gx * lz
    np.multiply(gx, ly, out=jac[7])
    jac[7] -= gy * lx
    jac[8:11] = _linear_rows(-rot, gx, gy, gz)
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
    out = x.copy()
    out[0:2] = np.clip(out[0:2], EPS_MIN, EPS_MAX)
    out[2:5] = np.clip(out[2:5], *_SCALE_BOUNDS)
    return out


def _pack(sq):
    return np.concatenate(([sq.eps1, sq.eps2], sq.scale, np.zeros(3), sq.translation))


def _unpack(x, q):
    return Superquadric(
        eps1=x[0], eps2=x[1], scale=x[2:5].copy(), rotation=q, translation=x[8:11].copy(),
    )


def _optimize_start(pts, start, config):
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
    the lowest RMS radial residual (ties broken by start index). `converged`
    reflects the winning start; per-start details land in start_diagnostics.
    """
    if config is None:
        config = FitConfig()
    pts = as_points(points)
    starts = initial_guesses(pts, int(config.multistart), seed=config.seed)
    diagnostics = []
    best = None
    for idx, start in enumerate(starts):
        params, rms, iters, evals, stop_reason, history = _optimize_start(pts, start, config)
        diag = StartDiagnostic(
            initial=start, rms_residual=rms, iterations=iters, evaluations=evals,
            stop_reason=stop_reason, objective_history=history,
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
