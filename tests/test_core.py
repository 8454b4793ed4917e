"""Core geometry: implicit function, sampling, FPS, and point transforms."""

import math
import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sqkit as sk
from conftest import (fps_full_pass, fps_oracle, inside_outside_oracle, random_superquadric,
                      sample_surface_oracle)
from sqkit import core
from sqkit.rotations import random_quaternion


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

    @pytest.mark.parametrize("field, value, message", [
        ("scale", [1.0, np.nan, 1.0], "scale must be three finite positive lengths"),
        ("scale", [np.inf, 1.0, 1.0], "scale must be three finite positive lengths"),
        ("scale", [1.0, 1.0, -np.inf], "scale must be three finite positive lengths"),
        ("scale", [1.0, -0.0, 1.0], "scale must be three finite positive lengths"),
        ("scale", [1.0, 1.0], "scale must be three finite positive lengths"),
        ("rotation", [np.nan, 0.0, 0.0, 0.0], "rotation must be a finite quaternion"),
        ("rotation", [1.0, 0.0, np.inf, 0.0], "rotation must be a finite quaternion"),
        ("rotation", [1.0, 0.0, 0.0], "rotation must be a finite quaternion"),
        ("rotation", [0.0, 0.0, 0.0, 0.0], "rotation quaternion must have unit norm"),
        ("translation", [np.inf, 0.0, 0.0], "translation must be a finite 3-vector"),
        ("translation", [0.0, 0.0, -np.inf], "translation must be a finite 3-vector"),
        ("eps1", np.nan, r"eps1 must lie in \[0.01, 2.0\], got nan"),
        ("eps2", np.inf, r"eps2 must lie in \[0.01, 2.0\], got inf"),
        ("eps1", -np.inf, r"eps1 must lie in \[0.01, 2.0\], got -inf"),
    ])
    def test_rejects_nonfinite_and_malformed_fields(self, field, value, message):
        fields = dict(eps1=1.0, eps2=1.0, scale=np.ones(3))
        fields[field] = value
        with pytest.raises(ValueError, match=message):
            sk.Superquadric(**fields)

    @pytest.mark.parametrize("field, value", [
        ("scale", ["1", "2", "3"]),
        ("scale", np.array([True, True, True])),
        ("rotation", np.array([1.0, 0.0, 0.0, 0.0], dtype=object)),
        ("rotation", [1.0 + 0j, 0.0, 0.0, 0.0]),
        ("translation", [10 ** 400, 0, 0]),
    ])
    def test_rejects_arrays_of_anything_but_numbers(self, field, value):
        # np.array(value, dtype=float) cast these, or raised OverflowError or TypeError
        fields = dict(eps1=1.0, eps2=1.0, scale=np.ones(3))
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be "):
            sk.Superquadric(**fields)

    def test_integer_arrays_become_float_copies(self):
        scale = np.array([1, 2, 3], dtype=np.uint8)
        sq = sk.Superquadric(1, 1, scale, translation=[0, -1, 2])
        assert sq.scale.dtype == float and sq.scale.tolist() == [1.0, 2.0, 3.0]
        assert sq.translation.tolist() == [0.0, -1.0, 2.0]
        assert not np.shares_memory(sq.scale, scale) and scale.flags.writeable

    def test_quaternion_norm_boundary_follows_linalg_norm(self):
        # The unit-norm test keeps np.linalg.norm's bits at its 1e-9 boundary.
        rng = np.random.default_rng(12)
        directions = [np.array([1.0, 0.0, 0.0, 0.0]), np.full(4, 0.5)]
        directions += [random_quaternion(rng) for _ in range(8)]
        outcomes = set()
        for q in directions:
            for f in (1.0 - 1e-9, 1.0 + 1e-9):
                for g in (np.nextafter(f, 0.0), f, np.nextafter(f, 2.0)):
                    rot = q * g
                    ok = abs(np.linalg.norm(rot) - 1.0) <= 1e-9
                    outcomes.add(ok)
                    if ok:
                        sk.Superquadric(1.0, 1.0, np.ones(3), rotation=rot)
                    else:
                        with pytest.raises(ValueError, match="unit norm"):
                            sk.Superquadric(1.0, 1.0, np.ones(3), rotation=rot)
        assert outcomes == {True, False}
        sk.Superquadric(1.0, 1.0, np.ones(3), rotation=[1.0 - 1e-9, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="unit norm"):
            sk.Superquadric(1.0, 1.0, np.ones(3), rotation=[1.0 + 1e-9, 0.0, 0.0, 0.0])

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


_LSE_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([1e300, -1e300, -np.inf]))


@st.composite
def lse_pairs(draw):
    """Two equal-length arrays of finite values, +-1e300 and -inf."""
    n = draw(st.integers(1, 40))
    a = draw(hnp.arrays(float, n, elements=_LSE_VALUES))
    # every third pair close together, where the weights are near 1/2
    b = draw(hnp.arrays(float, n, elements=_LSE_VALUES))
    near = draw(hnp.arrays(float, n, elements=st.floats(-1e-3, 1e-3)))
    b[::3] = np.where(np.isfinite(a[::3]), a[::3] + near[::3], b[::3])
    return a, b


class TestLogaddexpPair:
    """`core._logaddexp_pair`: the value, weights and entropy from one exp."""

    @settings(max_examples=400)
    @given(lse_pairs())
    def test_properties(self, pair):
        a, b = pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lsum, wa, wb, h = core._logaddexp_pair(a, b)
            swapped = core._logaddexp_pair(b, a)
        # the value: np.logaddexp's formula, with exp and log1p that may
        # round differently by an ulp; within 1 ulp of max(|value|, 1),
        # since the sum can cancel to near 0 only from terms below 1
        with np.errstate(over="ignore"):
            ref = np.logaddexp(a, b)
            ulp = np.spacing(np.maximum(np.abs(ref), 1.0))
        npt.assert_array_equal(np.isneginf(lsum), np.isneginf(ref))
        fin = np.isfinite(ref)
        assert np.all(np.abs(lsum[fin] - ref[fin]) <= ulp[fin])
        assert np.all((wa >= 0.0) & (wa <= 1.0) & (wb >= 0.0) & (wb <= 1.0))
        assert np.all(np.abs(wa + wb - 1.0) <= np.spacing(1.0))
        # the entropy peaks at ln 2 where t = 1; near there, rounding can
        # put it one ulp above
        assert np.all((h >= 0.0) & (h <= np.log(2.0) + np.spacing(np.log(2.0))))
        npt.assert_array_equal(swapped[0], lsum)
        npt.assert_array_equal(swapped[1], wb)
        npt.assert_array_equal(swapped[2], wa)
        npt.assert_array_equal(swapped[3], h)
        for lo, other, w_lo, w_other in ((a, b, wa, wb), (b, a, wb, wa)):
            one = np.isneginf(lo) & ~np.isneginf(other)
            npt.assert_array_equal(lsum[one], other[one])
            assert np.all(w_lo[one] == 0.0) and np.all(w_other[one] == 1.0)
            assert np.all(h[one] == 0.0)
        assert np.all(np.isneginf(lsum[np.isneginf(a) & np.isneginf(b)]))


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

    # 2,924 of the counts 1-3,000 have a grid larger than n and take the
    # evenly spaced `keep` gather; the rest fill the grid exactly.
    @settings(max_examples=200)
    @given(st.floats(sk.EPS_MIN, 2.0), st.floats(sk.EPS_MIN, 2.0), st.integers(1, 3000),
           st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_matches_stacked_formulation(self, eps1, eps2, n, seed, pose_seed):
        """Bit for bit the (n, 3) formulation: stack, gather, pose column by column."""
        rng = np.random.default_rng(pose_seed)
        sq = sk.Superquadric(eps1, eps2, rng.uniform(0.01, 0.3, 3), random_quaternion(rng),
                             rng.uniform(-1.0, 1.0, 3))
        npt.assert_array_equal(sk.sample_surface(sq, n, seed), sample_surface_oracle(sq, n, seed))


@st.composite
def surface_points_cases(draw):
    """A posed shape, a sample size, a seed and sample indices.

    8 and 20,000 fill their grids (2 x 4 and 100 x 200 cells); 2,924 of the
    counts 1-3,000 have more cells than they keep.
    """
    n = draw(st.one_of(st.sampled_from([8, 20000]), st.integers(1, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sq = sk.Superquadric(draw(st.floats(sk.EPS_MIN, 2.0)), draw(st.floats(sk.EPS_MIN, 2.0)),
                         rng.uniform(0.01, 0.3, 3), random_quaternion(rng),
                         rng.uniform(-1.0, 1.0, 3))
    # unsorted, with repeats drawn on purpose
    picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=64))
    picks += draw(st.lists(st.sampled_from(picks), max_size=8))
    return sq, n, draw(st.integers(0, 2**32 - 1)), picks


class TestSurfacePoints:
    """`core._surface_points`: chosen rows of `sample_surface`, computed alone."""

    @settings(max_examples=200)
    @given(surface_points_cases())
    def test_equals_sample_surface_gathered(self, case):
        sq, n, seed, picks = case
        got = core._surface_points(sq, n, seed, picks)
        assert got.shape == (len(picks), 3)
        npt.assert_array_equal(got, sk.sample_surface(sq, n, seed)[picks])


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

    def test_duplicate_points_give_distinct_indices(self):
        # a chosen index is never chosen again, even at distance 0
        pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
        npt.assert_array_equal(sk.farthest_point_sample(pts, 3, start=0), [0, 2, 1])
        npt.assert_array_equal(sk.farthest_point_sample(np.zeros((4, 3)), 4, start=2),
                               [2, 0, 1, 3])
        assert fps_oracle(pts, 3, 0) == [0, 2, 1]
        assert fps_oracle(np.zeros((4, 3)), 4, 2) == [2, 0, 1, 3]

    @pytest.mark.parametrize("lattice", [False, True])
    def test_equal_sort_keys_in_shuffled_order(self, lattice):
        # x, the axis of largest extent, takes 12 values over 3,000 points
        # given in shuffled order, so the sort meets long runs of equal keys
        # whose order a stable and an unstable sort may set differently; on
        # the lattice, many distances tie as well.
        rng = np.random.default_rng(34)
        n = 3000
        yz = rng.integers(-2, 3, (n, 2)).astype(float) if lattice else rng.uniform(-1, 1, (n, 2))
        pts = np.column_stack([rng.integers(0, 12, n).astype(float), yz])[rng.permutation(n)]
        expected = fps_full_pass(pts, 300, 5)
        for block in (16, core._FPS_BLOCK):
            with mock.patch.object(core, "_FPS_BLOCK", block):
                npt.assert_array_equal(sk.farthest_point_sample(pts, 300, start=5), expected)

    def test_overflowing_distances_same_indices_no_warning(self):
        # finite coordinates whose squared distances overflow to inf
        pts = np.array([[1e200, 0, 0], [-1e200, 0, 0], [0, 1e200, 0], [0.0, 0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sk.farthest_point_sample(pts, 4, start=3)
        npt.assert_array_equal(got, [3, 0, 1, 2])
        assert fps_oracle(pts, 4, 3) == [3, 0, 1, 2]


class TestFpsReference:
    """`farthest_point_sample` against a pass that updates every distance."""

    def test_full_pass_matches_oracle(self):
        rng = np.random.default_rng(31)
        for i in range(30):
            n = int(rng.integers(1, 80))
            if i % 2:
                pts = rng.integers(-2, 3, size=(n, 3)).astype(float)
            else:
                pts = rng.normal(size=(n, 3))
            k = int(rng.integers(1, n + 1))
            start = int(rng.integers(n))
            assert fps_full_pass(pts, k, start) == fps_oracle(pts, k, start)

    def test_elongated_surface_clouds(self):
        rng = np.random.default_rng(32)
        for i in range(6):
            scale = np.array([rng.uniform(0.02, 0.04), rng.uniform(0.03, 0.06),
                              rng.uniform(0.1, 0.2)])
            sq = sk.Superquadric(rng.uniform(0.1, 1.0), rng.uniform(0.1, 0.9), scale,
                                 random_quaternion(rng), rng.uniform(-0.1, 0.1, 3) + [0, 0, 0.8])
            pts = sk.sample_surface(sq, 20000, seed=i)
            npt.assert_array_equal(sk.farthest_point_sample(pts, 512, start=0),
                                   fps_full_pass(pts, 512, 0))

    def test_default_grid_templates(self):
        # The shipped FPS table must not hinge on the last bits of the dense
        # samples, which differ between numpy's CPU dispatch routes. The
        # unit-scale points lie in [-1, 1]^3. A computed squared distance
        # (dx*dx + dy*dy) + dz*dz takes four roundings on each nonnegative
        # term, so it is within gamma4 = 4u/(1 - 4u) of exact (u = 2^-53).
        # If every coordinate moves by at most eta = 2u (one ulp of 1), a
        # distance moves by at most 2 sqrt(3) eta and an exact squared
        # distance d by at most 4 sqrt(3) eta sqrt(d) + 12 eta^2; so does a
        # minimum over centers. Between two such point sets, a computed value
        # d moves by at most r(d) d, r(d) = 2 gamma4 + 4 sqrt(3) eta / sqrt(d)
        # + 12 eta^2 / d (products of these terms, below 1e-27, dropped).
        # A pick of best b over runner-up s cannot flip while b - s exceeds
        # r(b) b + r(s) s; r(d) d grows with d, so (b - s) / b > 2 r(b)
        # suffices.
        u = 2.0 ** -53
        gamma4 = 4.0 * u / (1.0 - 4.0 * u)
        eta = 2.0 * u
        for category in sk.default_grid().categories():
            unit = sk.Superquadric(max(category.eps1, sk.EPS_MIN),
                                   max(category.eps2, sk.EPS_MIN), np.ones(3))
            dense = sk.sample_surface(unit, 8192, seed=0)
            assert np.abs(dense).max() <= 1.0
            margins = []
            ref = fps_full_pass(dense, 512, 0, margins)
            npt.assert_array_equal(sk.farthest_point_sample(dense, 512, start=0), ref)
            npt.assert_array_equal(sk.template_points(category), dense[ref])
            best, runner_up = np.array(margins).T
            r = 2.0 * gamma4 + 4.0 * math.sqrt(3.0) * eta / np.sqrt(best) + 12.0 * eta**2 / best
            assert np.all((best - runner_up) / best > 2.0 * r), category.id

    def test_every_point_of_a_cloud(self):
        pts = np.random.default_rng(33).normal(size=(2000, 3))
        npt.assert_array_equal(sk.farthest_point_sample(pts, 2000, start=17),
                               fps_full_pass(pts, 2000, 17))


@st.composite
def fps_cases(draw):
    """A cloud of 1-300 points, k and start."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(("lattice", "repeated", "far", "mixed")))
    if kind == "lattice":
        pts = draw(hnp.arrays(np.int64, (n, 3), elements=st.integers(-3, 3))).astype(float)
    elif kind == "repeated":
        base = draw(hnp.arrays(float, (draw(st.integers(1, 8)), 3),
                               elements=st.floats(-1.0, 1.0)))
        pts = base[draw(hnp.arrays(np.intp, n, elements=st.integers(0, len(base) - 1)))]
    elif kind == "far":
        pts = 1e4 + draw(hnp.arrays(float, (n, 3), elements=st.floats(-1e-3, 1e-3)))
    else:
        mantissa = draw(hnp.arrays(float, (n, 3), elements=st.floats(-1.0, 1.0)))
        exponent = draw(hnp.arrays(np.int64, (n, 1), elements=st.integers(-8, 8)))
        pts = mantissa * 10.0 ** exponent
    # Drawn from k = n down: the picks for k are the first k of those for n.
    k = n - draw(st.integers(0, n - 1))
    start = draw(st.integers(0, n - 1))
    return pts, k, start


class TestFpsProperties:
    """FPS equals the scalar oracle on tie-heavy and ill-scaled clouds, and is progressive."""

    @settings(max_examples=300)
    @given(fps_cases())
    def test_matches_oracle_with_distinct_indices(self, case):
        pts, k, start = case
        expected = fps_oracle(pts, k, start)
        assert len(set(expected)) == k
        # small blocks give small clouds many blocks, as large clouds have
        for block in (1, 3, 16, core._FPS_BLOCK):
            with mock.patch.object(core, "_FPS_BLOCK", block):
                assert list(sk.farthest_point_sample(pts, k, start)) == expected

    @settings(max_examples=300)
    @given(fps_cases(), st.data())
    def test_prefix_of_a_longer_run(self, case, data):
        """The first n picks of a k-pick run are the n-pick run."""
        pts, k, start = case
        n = data.draw(st.integers(1, k))
        npt.assert_array_equal(sk.farthest_point_sample(pts, n, start),
                               sk.farthest_point_sample(pts, k, start)[:n])


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
