"""Fitting: residuals and their Jacobian, moment-based initialization, stop
reasons, and recovery round trips."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sqkit as sk
from sqkit.rotations import quat_to_matrix, random_quaternion
from sqkit import fitting
from conftest import (fd_jacobian_oracle, optimize_start_reference, radial_residual_reference,
                      random_superquadric, relabel_candidates)


# A cloud of this shape (2,000 points, 1 mm noise, seed 0) fitted with a
# budget of two steps: start 3 once stopped as a "duplicate" of start 0,
# which had stopped at "budget", and so counted as converged.
BUDGET_TWIN_SHAPE = sk.Superquadric(0.4, 0.7, np.array([0.04, 0.06, 0.1]))


def _unit_sphere():
    return sk.Superquadric(1.0, 1.0, np.ones(3))


class TestResidual:
    """Radial residuals through `radial_distance`, the fit's residual kernel."""

    def test_zero_on_sampled_surface(self):
        rng = np.random.default_rng(2)
        sq = random_superquadric(rng)
        assert np.all(sk.radial_distance(sq, sk.sample_surface(sq, 50, seed=1)) <= 1e-9)

    def test_sphere_outside_point(self):
        # F = 4, F^(-1/2) = 0.5, distance = 2 * 0.5
        assert sk.radial_distance(_unit_sphere(), [2.0, 0.0, 0.0])[0] == 1.0

    def test_sphere_inside_point(self):
        assert sk.radial_distance(_unit_sphere(), [0.5, 0.0, 0.0])[0] == 0.5

    def test_center_falls_back_to_min_scale(self):
        sq = sk.Superquadric(0.5, 0.5, np.array([0.3, 0.2, 0.4]))
        npt.assert_allclose(sk.radial_distance(sq, sq.translation)[0], 0.2)


class TestAnalyticJacobian:
    """The fit's closed-form Jacobian against the central-difference oracle."""

    # Worst column-relative deviation allowed: per column, the largest
    # |analytic - oracle| over the compared rows divided by the largest
    # |oracle| entry. Over the 140 pairs below the worst deviation measured
    # 1.0e-7 and the median 3.2e-9, the oracle's own truncation and rounding.
    BOUND = 1e-3

    @staticmethod
    def _both(sq, pts):
        x = fitting._pack(sq)
        q_ref = np.array(sq.rotation)
        res, jac = fitting._residuals(x, q_ref, pts)
        return res, jac, fd_jacobian_oracle(x, q_ref, pts)

    def test_matches_central_difference_oracle(self):
        worst = 0.0
        for i in range(20):
            true = random_superquadric(np.random.default_rng(400 + i))
            cloud = sk.gen_synthetic(true, sk.GenConfig(n_points=2000, noise_sigma=1e-3,
                                                        seed=i))
            for sq in [true] + sk.initial_guesses(cloud, sk.FitConfig().multistart):
                res, jac, oracle = self._both(sq, cloud)
                # Where |1 - F^(-eps1/2)| is near 0 the central difference
                # straddles the kink of |.| and the oracle, not the analytic
                # derivative, is wrong; compare only rows clear of it.
                keep = res > 1e-5 * np.max(sq.scale)
                dev = (np.max(np.abs(jac[keep] - oracle[keep]), axis=0)
                       / np.max(np.abs(oracle[keep]), axis=0))
                worst = max(worst, float(np.max(dev)))
        assert worst <= self.BOUND, f"worst column-relative deviation {worst:.3g}"

    @pytest.mark.parametrize("eps", [(0.1, 0.1), (0.4, 0.7), (1.0, 1.0), (1.9, 1.9)])
    def test_finite_on_local_axes_and_center(self, eps):
        sq = sk.Superquadric(*eps, np.array([0.03, 0.05, 0.08]))
        pts = np.array([
            [0.0, 0.02, 0.03],   # x = 0
            [0.02, 0.04, 0.0],   # z = 0
            [0.0, 0.0, 0.05],    # on the z axis
            [0.06, 0.0, 0.0],    # on the x axis
            [0.0, 0.0, 0.0],     # the center
        ])
        res, jac, oracle = self._both(sq, pts)
        assert np.all(np.isfinite(jac))
        # the center's residual is the constant min(scale), so its row is 0
        assert res[4] == 0.03
        assert np.all(jac[4] == 0.0)
        npt.assert_allclose(jac[:4], oracle[:4], rtol=0.0,
                            atol=self.BOUND * np.max(np.abs(oracle[:4])))


# Points on the local axes, on the coordinate planes and at the center of
# an unposed superquadric with scales `_AXES_SQ_SCALE`.
_AXES_SQ_SCALE = np.array([0.03, 0.05, 0.08])
_AXES_PTS = np.array([
    [0.0, 0.02, 0.03],   # x = 0
    [0.03, 0.0, 0.04],   # y = 0
    [0.02, 0.04, 0.0],   # z = 0
    [0.06, 0.0, 0.0],    # on the x axis
    [0.0, -0.07, 0.0],   # on the y axis
    [0.0, 0.0, 0.05],    # on the z axis
    [0.0, 0.0, 0.0],     # the center
])


def _fit_pairs():
    """The 140 (cloud, parameters) pairs of the Jacobian tests: 20 noisy clouds,
    each with its true shape and its six initial guesses."""
    for i in range(20):
        true = random_superquadric(np.random.default_rng(400 + i))
        cloud = sk.gen_synthetic(true, sk.GenConfig(n_points=2000, noise_sigma=1e-3, seed=i))
        for sq in [true] + sk.initial_guesses(cloud, sk.FitConfig().multistart):
            yield cloud, sq


class TestKernelReference:
    """`_residuals` against the two-logaddexp formulation it replaced,
    `radial_residual_reference`."""

    # Worst column-relative deviation allowed, over the residuals and the 11
    # Jacobian columns: per column, the largest |kernel - reference| divided
    # by the largest |reference| entry. Over the 140 pairs below it measured
    # 9.9e-14, in the rotation columns at sphere-like starts, where the
    # gradient is nearly radial and g x local cancels; elsewhere a few ulps.
    BOUND = 1e-12

    @staticmethod
    def _deviation(sq, pts):
        x = fitting._pack(sq)
        q = np.array(sq.rotation)
        got = np.column_stack(fitting._residuals(x, q, pts))
        want = np.column_stack(radial_residual_reference(x, q, pts))
        assert np.all(np.isfinite(want))
        err = np.max(np.abs(got - want), axis=0)
        scale = np.max(np.abs(want), axis=0)
        # a column the reference has at 0 throughout must be 0 here too
        return float(np.max(np.divide(err, scale, out=err.copy(), where=scale > 0.0)))

    def test_matches_reference_on_fit_pairs(self):
        worst = max(self._deviation(sq, cloud) for cloud, sq in _fit_pairs())
        assert worst <= self.BOUND, f"worst column-relative deviation {worst:.3g}"

    # The exponents of the Jacobian tests. At eps 0.01 against 2 the
    # reference itself is off: its entropy is w log w of a difference
    # from log F, and a weight below an ulp of log F loses its digits
    # (2.7e-2 relative in a column of size 1e-16 on the plane z = 0, where
    # a 50-digit evaluation agrees with the kernel to 1.5e-15).
    @pytest.mark.parametrize("eps", [(0.1, 0.1), (0.4, 0.7), (1.0, 1.0), (1.9, 1.9)])
    def test_matches_reference_on_axes_planes_center(self, eps):
        sq = sk.Superquadric(*eps, _AXES_SQ_SCALE)
        assert self._deviation(sq, _AXES_PTS) <= self.BOUND


class TestKernelWarnings:
    """The kernel behind `_residuals`, `radial_distance` and `inside_outside`
    raises no floating-point warning on axes, planes, the center or far out."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", list(itertools.product((sk.EPS_MIN, 0.1, 1.0, 2.0),
                                                           repeat=2)))
    def test_no_warnings(self, eps):
        sq = sk.Superquadric(*eps, _AXES_SQ_SCALE)
        far = 1e3 * np.array([[1.0, 1.0, 1.0], [-1.0, 0.5, 0.0], [0.0, 0.0, -1.0]])
        pts = np.vstack([_AXES_PTS, far * _AXES_SQ_SCALE])
        res, jac = fitting._residuals(fitting._pack(sq), np.array(sq.rotation), pts)
        assert np.all(np.isfinite(res)) and np.all(np.isfinite(jac))
        assert np.all(jac[6] == 0.0)
        npt.assert_array_equal(sk.radial_distance(sq, pts), res)
        f = sk.inside_outside(sq, pts)
        assert f[6] == 0.0 and np.all(f[:6] > 0.0)


class TestEvaluations:
    """`StartDiagnostic.evaluations` counts every `_residuals` call."""

    @pytest.mark.parametrize("config", [{}, {"convergence_tol": 1e-300},
                                        {"noise_scale": 2e-3}, {"max_iterations": 2}])
    def test_sum_equals_kernel_calls(self, monkeypatch, config):
        calls = []
        kernel = fitting._residuals

        def counted(*args):
            calls.append(None)
            return kernel(*args)

        monkeypatch.setattr(fitting, "_residuals", counted)
        true = random_superquadric(np.random.default_rng(11))
        cloud = sk.gen_synthetic(true, sk.GenConfig(n_points=800, noise_sigma=1e-3, seed=5))
        out = sk.fit(cloud, sk.FitConfig(multistart=3, **config))
        assert sum(d.evaluations for d in out.start_diagnostics) == len(calls)
        for d in out.start_diagnostics:
            # the start's own call, then at least one trial per accepted step
            assert d.evaluations >= 1 + d.iterations

    def test_sum_equals_kernel_calls_with_early_stops(self, monkeypatch):
        calls = []
        kernel = fitting._residuals

        def counted(*args):
            calls.append(None)
            return kernel(*args)

        monkeypatch.setattr(fitting, "_residuals", counted)
        out = sk.fit(_class_cloud(1, 1))
        assert {d.stop_reason for d in out.start_diagnostics} >= {"duplicate", "dominated"}
        assert sum(d.evaluations for d in out.start_diagnostics) == len(calls)


class TestStopReason:
    def _noisy_cloud(self):
        true = random_superquadric(np.random.default_rng(11))
        return sk.gen_synthetic(true, sk.GenConfig(n_points=800, noise_sigma=1e-3, seed=5))

    def _reasons(self, cloud, **config):
        out = sk.fit(cloud, sk.FitConfig(multistart=3, **config))
        for d in out.start_diagnostics:
            assert d.converged == (d.stop_reason != "budget")
        return {d.stop_reason for d in out.start_diagnostics}

    def test_relative_drop(self):
        assert self._reasons(self._noisy_cloud()) == {"rel_drop"}

    def test_rms_floor_on_exact_sphere(self):
        cloud = sk.sample_surface(_unit_sphere(), 2000, seed=0)
        assert self._reasons(cloud) == {"rms_floor"}

    def test_no_descent_when_tolerance_unreachable(self):
        assert self._reasons(self._noisy_cloud(), convergence_tol=1e-300) == {"no_descent"}

    def test_budget(self):
        assert self._reasons(self._noisy_cloud(), max_iterations=2) == {"budget"}


def _class_shape(kind, i):
    """A general shape (kind 0), a square cross-section (ax == ay, kind 1)
    or a body of revolution (also eps2 == 1, kind 2)."""
    sq = random_superquadric(np.random.default_rng([61, kind, i]))
    if kind != 0:
        radial = sq.scale[0]
        sq = sk.Superquadric(sq.eps1, 1.0 if kind == 2 else sq.eps2,
                             [radial, radial, sq.scale[2]], sq.rotation, sq.translation)
    return sq


def _class_cloud(kind, i):
    """A 2,000-point, 1 mm noise cloud of `_class_shape(kind, i)`."""
    return sk.gen_synthetic(_class_shape(kind, i),
                            sk.GenConfig(n_points=2000, noise_sigma=1e-3, seed=i))


def _param_vector(sq):
    return np.concatenate([[sq.eps1, sq.eps2], sq.scale, sq.rotation, sq.translation])


class TestLoopReference:
    """`_optimize_start` against `optimize_start_reference`, the earlier
    numpy-array formulation of its loop, start by start."""

    # Largest |parameter - reference| allowed, in the parameters' own units
    # (exponents, meters, quaternion components). Measured: 0, bit-identical
    # on every start of these clouds.
    BOUND = 1e-12

    # Two clouds per class in plain least squares, one per class with Huber weights.
    @pytest.mark.parametrize("kind, i, config", [
        *((kind, i, {}) for kind, i in itertools.product(range(3), range(2))),
        *((kind, 0, {"noise_scale": 2e-3}) for kind in range(3)),
    ])
    def test_same_steps_and_parameters(self, kind, i, config):
        cloud = _class_cloud(kind, i)
        config = sk.FitConfig(**config)
        cols = np.asfortranarray(cloud)
        for start in sk.initial_guesses(cloud, config.multistart, seed=config.seed):
            d = fitting._optimize_start(cols, start, config)
            ref = optimize_start_reference(cloud, start, config)
            assert d.initial is start
            assert ((d.iterations, d.evaluations, d.stop_reason, len(d.objective_history))
                    == (ref[2], ref[3], ref[4], len(ref[5])))
            assert np.max(np.abs(_param_vector(d.params) - _param_vector(ref[0]))) <= self.BOUND
            assert abs(d.rms_residual - ref[1]) <= self.BOUND


class TestWinnerStudy:
    """`fit`, whose starts stop as "duplicate" and "dominated", against the
    full multistart: every start run by `_optimize_start` with no twin and
    no objective bound, the lowest RMS winning (ties by start index)."""

    # Three clouds per class: general shapes, square cross-sections and
    # bodies of revolution, 2,000 points, 1 mm noise.
    CLOUDS = tuple(itertools.product(range(3), range(3)))

    @staticmethod
    def _recovered(params, truth):
        est = sk.canonicalize(params).canonical
        return any(np.all(np.abs(c.scale / truth.scale - 1.0) <= 0.05)
                   for c in relabel_candidates(est))

    def test_winner_matches_full_multistart(self):
        config = sk.FitConfig()
        reasons = set()
        for kind, i in self.CLOUDS:
            cloud, truth = _class_cloud(kind, i), _class_shape(kind, i)
            cols = np.asfortranarray(cloud)
            full = [fitting._optimize_start(cols, start, config)
                    for start in sk.initial_guesses(cloud, config.multistart, seed=config.seed)]
            best = min(full, key=lambda d: d.rms_residual)
            out = sk.fit(cloud, config)
            assert out.rms_residual <= (1 + 1e-5) * best.rms_residual, (kind, i)
            assert (self._recovered(out.params, truth)
                    == self._recovered(best.params, truth)), (kind, i)
            reasons.update(d.stop_reason for d in out.start_diagnostics)
        assert {"duplicate", "dominated"} <= reasons

    def test_diagnostic_params_are_the_start_end(self):
        cloud = _class_cloud(1, 1)
        out = sk.fit(cloud)
        assert {d.stop_reason for d in out.start_diagnostics} >= {"duplicate", "dominated"}
        for d in out.start_diagnostics:
            assert d.converged
            rd = sk.radial_distance(d.params, cloud)
            assert d.rms_residual == np.sqrt(np.mean(rd ** 2))
        assert any(d.params is out.params for d in out.start_diagnostics)


class TestEarlyStops:
    """The two rules that stop a start which cannot win, one at a time."""

    def _start(self, kind=2, i=2):
        cloud = _class_cloud(kind, i)
        return np.asfortranarray(cloud), sk.initial_guesses(cloud, 1)[0], sk.FitConfig()

    def test_duplicate_stops_before_the_twin_end(self):
        cols, start, config = self._start()
        full = fitting._optimize_start(cols, start, config)
        end = full.params
        # the same end with the sign of its quaternion flipped: the same rotation
        twin = sk.Superquadric(end.eps1, end.eps2, end.scale, -end.rotation, end.translation)
        out = fitting._optimize_start(cols, start, config, twin)
        assert out.stop_reason == "duplicate" and 1 <= out.iterations < full.iterations

    def test_same_basin_thresholds(self):
        x = [0.5, 0.5, 0.05, 0.04, 0.1, 0.0, 0.0, 0.0, 0.1, -0.2, 0.8]
        q = (1.0, 0.0, 0.0, 0.0)

        def turned(deg):
            half = np.radians(deg) / 2
            return (np.cos(half), 0.0, 0.0, np.sin(half))

        def moved(k, d):
            y = list(x)
            y[k] += d
            return y

        tol = fitting._DUPLICATE_REL * 0.1
        assert fitting._same_basin(x, q, x, tuple(-v for v in q))
        assert fitting._same_basin(x, turned(1.9), x, q)
        assert not fitting._same_basin(x, turned(2.1), x, q)
        for k, d in ((0, 0.049), (1, -0.049), (2, 0.99 * tol), (10, -0.99 * tol)):
            assert fitting._same_basin(moved(k, d), q, x, q), (k, d)
        for k, d in ((0, 0.051), (1, -0.051), (4, 1.01 * tol), (9, -1.01 * tol)):
            assert not fitting._same_basin(moved(k, d), q, x, q), (k, d)

    def test_duplicate_needs_a_converged_twin(self):
        """At a budget of two steps every start of this cloud stops at
        "budget"; start 3 ends lower than start 0, its twin, which had not
        searched its basin. So start 3 is no duplicate, and the fit has not
        converged."""
        cloud = sk.gen_synthetic(BUDGET_TWIN_SHAPE,
                                 sk.GenConfig(n_points=2000, noise_sigma=1e-3, seed=0))
        out = sk.fit(cloud, sk.FitConfig(max_iterations=2))
        assert out.converged is False
        assert [d.stop_reason for d in out.start_diagnostics] == ["budget"] * 6

    def test_dominated_waits_for_the_minimum_steps(self):
        cols, start, config = self._start()
        assert fitting._optimize_start(cols, start, config).iterations > fitting._DOMINATED_STEPS
        out = fitting._optimize_start(cols, start, config, bound=0.0)
        assert out.stop_reason == "dominated" and out.iterations == fitting._DOMINATED_STEPS


class TestNonFiniteStep:
    """A step that comes back NaN gives the fold a NaN quaternion norm, and
    the fit raises ValueError, as quat_normalize does, instead of quietly
    rejecting the trial."""

    def test_fit_raises(self, monkeypatch):
        monkeypatch.setattr(fitting.np.linalg, "solve", lambda a, b: np.full(np.shape(b), np.nan))
        with pytest.raises(ValueError, match="non-finite quaternion"):
            sk.fit(_class_cloud(0, 0), sk.FitConfig(multistart=1))


class TestFitConfig:
    def test_defaults_valid(self):
        cfg = sk.FitConfig()
        assert cfg.max_iterations == 200 and cfg.multistart == 6

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            sk.FitConfig(max_iterations=0)
        with pytest.raises(ValueError):
            sk.FitConfig(convergence_tol=0.0)
        with pytest.raises(ValueError):
            sk.FitConfig(noise_scale=-1.0)
        for scale in (np.nan, np.inf):
            with pytest.raises(ValueError):
                sk.FitConfig(noise_scale=scale)

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 2.5), ("max_iterations", 3.0), ("max_iterations", True),
        ("multistart", True), ("multistart", 1.5), ("multistart", "6"),
        ("seed", -1), ("seed", 1.5), ("seed", False), ("seed", None),
    ])
    def test_rejects_non_integer_counts_and_negative_seed(self, field, value):
        with pytest.raises(ValueError, match=field):
            sk.FitConfig(**{field: value})

    def test_numpy_integers_become_python_ints(self):
        cfg = sk.FitConfig(max_iterations=np.int64(7), multistart=np.uint8(2), seed=np.int32(3))
        assert (cfg.max_iterations, cfg.multistart, cfg.seed) == (7, 2, 3)
        assert all(type(v) is int for v in (cfg.max_iterations, cfg.multistart, cfg.seed))


class TestInitialGuesses:
    def test_box_extents_recovered(self):
        rng = np.random.default_rng(5)
        half = np.array([0.01, 0.02, 0.03])
        pts = rng.uniform(-1.0, 1.0, size=(3000, 3)) * half
        guess = sk.initial_guesses(pts, 1)[0]
        npt.assert_allclose(guess.scale, half, rtol=0.2)
        assert guess.eps1 == 1.0 and guess.eps2 == 1.0

    def test_under_determined_cloud(self):
        with pytest.raises(sk.UnderDeterminedError):
            sk.initial_guesses(np.random.default_rng(0).normal(size=(5, 3)), 3)

    def test_planar_cloud_rejected(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(200, 3))
        pts[:, 2] = 0.0
        with pytest.raises(sk.DegenerateCloudError):
            sk.initial_guesses(pts, 1)

    def test_rotated_cloud_aligns_axes(self):
        rng = np.random.default_rng(6)
        base = rng.uniform(-1.0, 1.0, size=(3000, 3)) * np.array([0.01, 0.03, 0.07])
        R = quat_to_matrix(random_quaternion(rng))
        guess = sk.initial_guesses(base @ R.T, 1)[0]
        # columns agree with R up to sign/permutation
        alignment = np.abs(R.T @ guess.rotation_matrix)
        npt.assert_allclose(np.sort(alignment.max(axis=0)), 1.0, atol=1e-2)

    def test_centroid_used_as_translation(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(500, 3)) * 0.02 + np.array([0.5, -0.2, 0.1])
        guess = sk.initial_guesses(pts, 1)[0]
        npt.assert_allclose(guess.translation, pts.mean(axis=0))

    def test_guess_list_cycles_with_variants(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1.0, 1.0, size=(500, 3)) * np.array([0.01, 0.03, 0.07])
        guesses = sk.initial_guesses(pts, 12)
        assert len(guesses) == 12
        eps_pairs = {(g.eps1, g.eps2) for g in guesses[:9]}
        assert (1.0, 1.0) in eps_pairs and (0.1, 0.1) in eps_pairs and (1.9, 1.9) in eps_pairs
        # cycled guesses are perturbed, not exact repeats
        assert not np.array_equal(guesses[9].scale, guesses[0].scale)


def _noisy_cloud_and_motion(seed):
    """A 2,000-point, 1 mm noise cloud of a random shape (eps in [0.1, 1],
    scales 3-10 cm) and a random rigid motion moving it up to 1 m per axis."""
    rng = np.random.default_rng(seed)
    truth = random_superquadric(rng, scale=(0.03, 0.1))
    cloud = sk.gen_synthetic(truth, sk.GenConfig(n_points=2000, noise_sigma=1e-3,
                                                 seed=int(rng.integers(2**31))))
    return cloud, sk.PoseHypothesis(quat_to_matrix(random_quaternion(rng)), rng.uniform(-1, 1, 3))


def _moment_gap(cloud):
    """The smallest gap between the cloud's moment eigenvalues, over the largest
    one: `initial_guesses` takes world-aligned axes in a subspace whose gap is
    at most `_DEGENERATE_TOL`."""
    centered = cloud - cloud.mean(axis=0)
    evals = np.linalg.eigvalsh(centered.T @ centered / len(cloud))
    return min(np.diff(evals)) / evals[2]


class TestFitProperties:
    """The fit of a moved or reordered cloud is the fit of the cloud, moved.

    Two fits that end in one basin each stop within the stop rule's reach of
    its minimum: the last accepted step cut the objective f by at most
    convergence_tol relative, and with the steps shrinking at least twofold
    near a minimum each stop lies within convergence_tol f of it. RMS is
    sqrt(2 f / n), so the two RMS values agree within convergence_tol / 2
    relative; RMS_BOUND allows twice that. The residual change between the
    two fits, |J d| for their parameter difference d, then has an RMS over
    the cloud of at most 2 sqrt(convergence_tol) RMS, since f - f* is about
    |J d|^2 / 2 near a minimum; SURFACE_BOUND allows 10 times that for the
    largest radial distance over 500 surface points, about 2e-6 m here.
    Rounding adds about 1e-16 m per coordinate, far below both. A fit that
    ends in another basin differs far more. Over the clouds of seeds 0-399,
    8 rigid motions did, all 8 among the 20 clouds whose moments are
    near-degenerate (see `test_rigid_motion_with_degenerate_moments`): the
    RMS moved by 0.57-9.1% and the surface by 0.36-2.9 mm. In the 392
    others the RMS ratio differed from 1 by at most 1.1e-12 and the
    surfaces by at most 5.3e-9 m, though 14 took another iteration path.
    The 400 permutations kept every path, the RMS within 8.9e-16 and the
    surfaces within 2.4e-16 m.
    """

    RMS_BOUND = sk.FitConfig().convergence_tol
    SURFACE_BOUND = 20 * np.sqrt(sk.FitConfig().convergence_tol)

    def _assert_same_fit(self, a, b, pose):
        assert abs(b.rms_residual / a.rms_residual - 1.0) <= self.RMS_BOUND
        surface = pose.apply(sk.sample_surface(a.params, 500, seed=0))
        gap = np.abs(sk.radial_distance(b.params, surface)).max()
        assert gap <= self.SURFACE_BOUND * a.rms_residual

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_rigid_motion(self, seed):
        """Where the cloud's moments pick all three start axes."""
        cloud, motion = _noisy_cloud_and_motion(seed)
        assume(_moment_gap(cloud) > fitting._DEGENERATE_TOL)
        self._assert_same_fit(sk.fit(cloud), sk.fit(motion.apply(cloud)), motion)

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_permutation(self, seed):
        cloud, _ = _noisy_cloud_and_motion(seed)
        order = np.random.default_rng(seed).permutation(len(cloud))
        self._assert_same_fit(sk.fit(cloud), sk.fit(cloud[order]),
                              sk.PoseHypothesis(np.eye(3), np.zeros(3)))

    @pytest.mark.xfail(strict=True, reason="starts in a near-degenerate moment subspace take "
                       "world-aligned axes, so a rigid motion can change the basin")
    def test_rigid_motion_with_degenerate_moments(self):
        """A near-square cross-section (scales 5.58 and 5.62 cm, moment gap
        0.0038): moved, the cloud is fitted in the basin of the dual exponent
        (eps2 1.55 instead of 0.42) with a 9.1% higher RMS."""
        cloud, motion = _noisy_cloud_and_motion(6)
        self._assert_same_fit(sk.fit(cloud), sk.fit(motion.apply(cloud)), motion)


class TestFit:
    def test_sphere_round_trip(self):
        true = sk.Superquadric(1.0, 1.0, np.full(3, 0.5))
        cloud = sk.sample_surface(true, 2000, seed=0)
        out = sk.fit(cloud)
        npt.assert_allclose(out.params.scale, 0.5, rtol=0.01)
        assert abs(out.params.eps1 - 1.0) <= 0.05
        assert abs(out.params.eps2 - 1.0) <= 0.05
        assert out.converged

    def test_box_round_trip_modulo_relabel(self):
        rng = np.random.default_rng(9)
        true = sk.Superquadric(0.1, 0.1, np.array([0.01, 0.02, 0.03]),
                               random_quaternion(rng), rng.uniform(-0.1, 0.1, 3))
        cloud = sk.sample_surface(true, 2000, seed=3)
        out = sk.fit(cloud)
        est = sk.canonicalize(out.params).canonical
        ok = any(np.all(np.abs(c.scale / true.scale - 1) <= 0.02)
                 for c in relabel_candidates(est))
        assert ok, f"scales {est.scale} vs {true.scale}"

    def test_under_determined_cloud(self):
        with pytest.raises(sk.UnderDeterminedError):
            sk.fit(np.random.default_rng(0).normal(size=(5, 3)))

    def test_deterministic(self):
        true = random_superquadric(np.random.default_rng(10))
        cloud = sk.sample_surface(true, 600, seed=4)
        a = sk.fit(cloud, sk.FitConfig(multistart=2, max_iterations=40))
        b = sk.fit(cloud, sk.FitConfig(multistart=2, max_iterations=40))
        assert a.rms_residual == b.rms_residual
        assert np.array_equal(a.params.scale, b.params.scale)
        assert np.array_equal(a.params.rotation, b.params.rotation)

    def test_objective_history_non_increasing(self):
        true = random_superquadric(np.random.default_rng(11))
        cloud = sk.sample_surface(true, 800, seed=5)
        out = sk.fit(cloud, sk.FitConfig(multistart=3, max_iterations=60))
        for diag in out.start_diagnostics:
            hist = np.asarray(diag.objective_history)
            assert np.all(np.diff(hist) <= 0.0)

    def test_rms_is_minimum_over_starts(self):
        true = random_superquadric(np.random.default_rng(12))
        cloud = sk.sample_surface(true, 800, seed=6)
        out = sk.fit(cloud, sk.FitConfig(multistart=4, max_iterations=60))
        assert out.rms_residual == min(d.rms_residual for d in out.start_diagnostics)

    @pytest.mark.parametrize("kind", ["general", "square", "revolution"])
    def test_rms_residual_is_rms_of_radial_distance(self, kind):
        # Four seeded noisy clouds per object class: general shapes, square
        # cross-sections (ax == ay) and bodies of revolution (also eps2 == 1).
        # The reported RMS must be that of the returned parameters, exactly.
        for i in range(4):
            rng = np.random.default_rng([15, i])
            sq = random_superquadric(rng)
            if kind != "general":
                radial = sq.scale[0]
                sq = sk.Superquadric(sq.eps1, 1.0 if kind == "revolution" else sq.eps2,
                                     [radial, radial, sq.scale[2]], sq.rotation, sq.translation)
            cloud = sk.gen_synthetic(sq, sk.GenConfig(n_points=2000, noise_sigma=1e-3, seed=i))
            out = sk.fit(cloud)
            rd = sk.radial_distance(out.params, cloud)
            assert out.rms_residual == np.sqrt(np.mean(rd ** 2)), f"cloud {i}"

    def test_rigid_invariance(self):
        rng = np.random.default_rng(13)
        true = sk.Superquadric(0.4, 0.7, np.array([0.03, 0.06, 0.1]),
                               random_quaternion(rng), np.zeros(3))
        cloud = sk.sample_surface(true, 1500, seed=7)
        R = quat_to_matrix(random_quaternion(rng))
        t = rng.uniform(-0.2, 0.2, 3)
        moved = sk.PoseHypothesis(R, t).apply(cloud)
        fit_a = sk.fit(cloud).params
        fit_b = sk.fit(moved).params
        # surfaces must match after applying the same rigid motion
        surf_a = sk.PoseHypothesis(R, t).apply(sk.sample_surface(fit_a, 400, seed=8))
        dist = sk.radial_distance(fit_b, surf_a)
        assert dist.max() <= 1e-3 * fit_b.scale.max()

    def test_huber_loss_tolerates_outliers(self):
        rng = np.random.default_rng(14)
        true = sk.Superquadric(1.0, 1.0, np.full(3, 0.05), translation=np.zeros(3))
        cloud = sk.sample_surface(true, 1500, seed=9)
        outliers = rng.uniform(-0.3, 0.3, size=(60, 3))
        dirty = np.vstack([cloud, outliers])
        robust = sk.fit(dirty, sk.FitConfig(noise_scale=0.002))
        npt.assert_allclose(robust.params.scale, 0.05, rtol=0.03)
