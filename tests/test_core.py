"""Core geometry: implicit function, sampling, FPS, and point transforms."""

import numpy as np
import numpy.testing as npt
import pytest

import sqkit as sk
from conftest import fps_oracle, inside_outside_oracle, random_superquadric


def _sphere(radius=1.0):
    return sk.Superquadric(1.0, 1.0, np.full(3, radius))


# ---------------------------------------------------------------------------
# Superquadric record
# ---------------------------------------------------------------------------

class TestSuperquadric:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            sk.Superquadric(1.0, 1.0, np.array([1.0, 0.0, 1.0]))

    def test_rejects_out_of_range_exponents(self):
        with pytest.raises(ValueError):
            sk.Superquadric(0.001, 1.0, np.ones(3))
        with pytest.raises(ValueError):
            sk.Superquadric(1.0, 2.5, np.ones(3))

    def test_rejects_unnormalized_quaternion(self):
        with pytest.raises(ValueError):
            sk.Superquadric(1.0, 1.0, np.ones(3), rotation=np.array([1.0, 0.0, 0.1, 0.0]))

    def test_rejects_nonfinite_translation(self):
        with pytest.raises(ValueError):
            sk.Superquadric(1.0, 1.0, np.ones(3), translation=np.array([0.0, np.nan, 0.0]))

    def test_fields_are_readonly(self):
        sq = _sphere()
        with pytest.raises(ValueError):
            sq.scale[0] = 2.0

    def test_frame_round_trip(self):
        rng = np.random.default_rng(3)
        sq = random_superquadric(rng)
        pts = rng.uniform(-1, 1, size=(40, 3))
        npt.assert_allclose(sq.local_to_world(sq.world_to_local(pts)), pts, atol=1e-12)


# ---------------------------------------------------------------------------
# inside_outside
# ---------------------------------------------------------------------------

class TestInsideOutside:
    def test_sphere_axis_vertex_on_surface(self):
        assert sk.inside_outside(_sphere(), [1.0, 0.0, 0.0]) == 1.0

    def test_sphere_interior_value(self):
        # F = (0.5)^2 for a unit sphere
        npt.assert_allclose(sk.inside_outside(_sphere(), [0.5, 0.0, 0.0]), 0.25, rtol=1e-14)

    def test_axis_vertex_any_exponents(self):
        sq = sk.Superquadric(0.1, 0.1, np.array([1.0, 2.0, 3.0]))
        assert sk.inside_outside(sq, [0.0, 2.0, 0.0]) == 1.0

    def test_inside_below_one_outside_above_one(self):
        sq = sk.Superquadric(0.3, 0.8, np.array([0.5, 0.7, 0.4]))
        assert sk.inside_outside(sq, [0.1, 0.1, 0.1]) < 1.0
        assert sk.inside_outside(sq, [1.0, 1.0, 1.0]) > 1.0

    def test_sign_flip_invariance_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sq = random_superquadric(rng, posed=False)
            p = rng.uniform(-0.3, 0.3, size=3)
            f0 = sk.inside_outside(sq, p)
            for flip in ([-1, 1, 1], [1, -1, 1], [1, 1, -1], [-1, -1, -1]):
                assert sk.inside_outside(sq, p * np.array(flip)) == f0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(12)
        sq = random_superquadric(rng, posed=False)
        pts = rng.uniform(-0.3, 0.3, size=(25, 3))
        vec = sk.inside_outside(sq, pts)
        for p, f in zip(pts, vec):
            assert sk.inside_outside(sq, p) == f


class TestInsideOutsideOracle:
    """The log-form F against the power form, `inside_outside_oracle`."""

    def test_matches_power_form(self):
        # stated bound rtol 1e-12 over the full exponent range, points out to
        # 3x scale, a third of them on a coordinate plane and some on an axis
        rng = np.random.default_rng(61)
        worst = 0.0
        for _ in range(400):
            sq = random_superquadric(rng, eps1=(sk.EPS_MIN, 2.0), eps2=(sk.EPS_MIN, 2.0),
                                     posed=False)
            pts = rng.uniform(-3.0, 3.0, size=(500, 3)) * sq.scale
            for j in range(3):
                pts[j:150:3, j] = 0.0
            pts[150:200, :2] = 0.0
            pts[200:250, 1:] = 0.0
            f = sk.inside_outside(sq, pts)
            g = inside_outside_oracle(sq, pts)
            assert np.all(np.isfinite(g))
            worst = max(worst, float(np.max(np.abs(f - g) / g)))
        assert worst <= 1e-12

    def test_same_overflow_as_power_form(self):
        # with eps1 == eps2 the power form's outer exponent is 1, so it
        # overflows exactly where F does, not in an intermediate term
        rng = np.random.default_rng(62)
        overflowed = 0
        for _ in range(100):
            e = rng.uniform(sk.EPS_MIN, 0.05)
            sq = sk.Superquadric(e, e, rng.uniform(0.02, 0.2, 3))
            pts = rng.uniform(-300.0, 300.0, size=(500, 3)) * sq.scale
            f = sk.inside_outside(sq, pts)
            g = inside_outside_oracle(sq, pts)
            npt.assert_array_equal(np.isinf(f), np.isinf(g))
            finite = np.isfinite(g)
            npt.assert_allclose(f[finite], g[finite], rtol=1e-12)
            overflowed += int(np.sum(~finite))
        assert overflowed > 0

    def test_finite_where_power_terms_overflow(self):
        # on the x axis F = (|x|/ax)^(2/eps1) = 100, though (|x|/ax)^(2/eps2)
        # is 1e400, beyond float range
        sq = sk.Superquadric(2.0, sk.EPS_MIN, np.ones(3))
        assert np.isinf(inside_outside_oracle(sq, [[100.0, 0.0, 0.0]])[0])
        npt.assert_allclose(sk.inside_outside(sq, [100.0, 0.0, 0.0]), 100.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# sample_surface
# ---------------------------------------------------------------------------

class TestSampleSurface:
    def test_unit_sphere_point_norms(self):
        pts = sk.sample_surface(_sphere(), 256, seed=0)
        assert pts.shape == (256, 3)
        npt.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)

    def test_samples_satisfy_implicit_equation(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            sq = random_superquadric(rng, eps1=(sk.EPS_MIN, 2.0), eps2=(sk.EPS_MIN, 2.0))
            local = sq.world_to_local(sk.sample_surface(sq, 256, seed=5))
            npt.assert_array_less(np.abs(sk.inside_outside(sq, local) - 1.0), 1e-6)

    def test_deterministic_per_seed(self):
        sq = random_superquadric(np.random.default_rng(4))
        a = sk.sample_surface(sq, 300, seed=9)
        b = sk.sample_surface(sq, 300, seed=9)
        assert np.array_equal(a, b)
        c = sk.sample_surface(sq, 300, seed=10)
        assert not np.array_equal(a, c)

    def test_small_counts(self):
        for n in (1, 2, 3, 7):
            assert sk.sample_surface(_sphere(), n, seed=0).shape == (n, 3)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            sk.sample_surface(_sphere(), 0)

    def test_no_duplicate_points(self):
        pts = sk.sample_surface(sk.Superquadric(2.0, 2.0, np.ones(3)), 500, seed=1)
        assert len(np.unique(pts, axis=0)) == 500


# ---------------------------------------------------------------------------
# farthest_point_sample
# ---------------------------------------------------------------------------

class TestFarthestPointSample:
    def test_three_point_trace(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.4, 0, 0]])
        npt.assert_array_equal(sk.farthest_point_sample(pts, 2, start=0), [0, 1])

    def test_full_sample_is_permutation(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(40, 3))
        idx = sk.farthest_point_sample(pts, 40, start=5)
        assert sorted(idx) == list(range(40))

    def test_single_point_returns_start(self):
        pts = np.random.default_rng(1).normal(size=(10, 3))
        npt.assert_array_equal(sk.farthest_point_sample(pts, 1, start=7), [7])

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            n = int(rng.integers(2, 120))
            pts = rng.normal(size=(n, 3))
            k = int(rng.integers(1, n + 1))
            start = int(rng.integers(n))
            npt.assert_array_equal(
                sk.farthest_point_sample(pts, k, start), fps_oracle(pts, k, start))

    def test_tie_breaks_to_lowest_index(self):
        # two candidates at identical distance from the start
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]])
        npt.assert_array_equal(sk.farthest_point_sample(pts, 2, start=0), [0, 1])

    def test_invalid_arguments(self):
        pts = np.zeros((4, 3))
        with pytest.raises(ValueError):
            sk.farthest_point_sample(pts, 5, start=0)
        with pytest.raises(ValueError):
            sk.farthest_point_sample(pts, 2, start=4)
        with pytest.raises(ValueError):
            sk.farthest_point_sample(np.zeros((0, 3)), 1, start=0)


# ---------------------------------------------------------------------------
# affine point transform p -> M p + t (PoseHypothesis.apply)
# ---------------------------------------------------------------------------

def _transform(M, t, points):
    return sk.PoseHypothesis(M, t).apply(points)


class TestTransformPoints:
    def test_identity(self):
        pts = np.random.default_rng(0).normal(size=(10, 3))
        npt.assert_array_equal(_transform(np.eye(3), np.zeros(3), pts), pts)

    def test_pure_translation(self):
        out = _transform(np.eye(3), np.array([1.0, 2.0, 3.0]), np.zeros((1, 3)))
        npt.assert_array_equal(out[0], [1.0, 2.0, 3.0])

    def test_pure_scale(self):
        out = _transform(np.diag([2.0, 2.0, 2.0]), np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
        npt.assert_array_equal(out[0], [2.0, 0.0, 0.0])

    def test_composition(self):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(30, 3))
        for _ in range(10):
            m1, m2 = rng.normal(size=(2, 3, 3)) + 2 * np.eye(3)
            t1, t2 = rng.normal(size=(2, 3))
            # a pose needs det > 0; negating a 3x3 matrix flips its sign
            m1, m2 = (m * np.sign(np.linalg.det(m)) for m in (m1, m2))
            step = _transform(m2, t2, _transform(m1, t1, pts))
            fused = _transform(m2 @ m1, m2 @ t1 + t2, pts)
            npt.assert_allclose(step, fused, atol=1e-12)

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            _transform(np.zeros((3, 3)), np.zeros(3), np.ones((2, 3)))


# ---------------------------------------------------------------------------
# radial distance helper
# ---------------------------------------------------------------------------

class TestRadialDistance:
    def test_zero_on_surface(self):
        rng = np.random.default_rng(31)
        sq = random_superquadric(rng)
        pts = sk.sample_surface(sq, 200, seed=2)
        npt.assert_array_less(sk.radial_distance(sq, pts), 1e-9)

    def test_exact_for_sphere(self):
        sq = _sphere(0.5)
        npt.assert_allclose(sk.radial_distance(sq, np.array([[2.0, 0, 0]]))[0], 1.5)

    def test_center_reports_min_scale(self):
        sq = sk.Superquadric(0.7, 0.7, np.array([0.2, 0.5, 0.1]))
        assert sk.radial_distance(sq, np.zeros((1, 3)))[0] == 0.1
