"""Exponent-fold canonicalization and rotation/scale/shear decomposition."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqkit as sk
from sqkit.rotations import quat_to_matrix, rotation_about_z
from conftest import fold_gap, fold_partners, polar_oracle, random_superquadric

SQRT2_HALF = np.sqrt(2.0) / 2.0


class TestDualityScale:
    def test_endpoints(self):
        assert abs(sk.duality_scale(1.0) - 1.0) <= 1e-12
        assert abs(sk.duality_scale(2.0) - SQRT2_HALF) <= 1e-12

    def test_linear_midpoint(self):
        npt.assert_allclose(sk.duality_scale(1.5), (1.0 + SQRT2_HALF) / 2.0, rtol=1e-14)


class TestDual:
    """The exponent twin, as the canonical record of `canonicalize`."""

    def test_folds_exponent_and_rescales(self):
        sq = sk.Superquadric(1.0, 1.5, np.array([0.04, 0.04, 0.1]))
        twin = sk.canonicalize(sq).canonical
        npt.assert_allclose(twin.eps2, 0.5, atol=1e-12)
        npt.assert_allclose(sk.duality_scale(1.5), 0.8535534, atol=1e-7)
        npt.assert_allclose(twin.scale[:2], 0.03414, atol=5e-6)
        npt.assert_allclose(twin.scale[2], 0.1)

    def test_square_diamond_equivalence(self):
        # a diamond cross-section (eps2 = 2) folds onto the 45-degree-rotated
        # square with half-extent sqrt(2)/2 whose corners land on the
        # diamond's vertices (up to the exponent floor, ~0.35%)
        sq = sk.Superquadric(0.05, 2.0, np.array([1.0, 1.0, 1.0]))
        twin = sk.canonicalize(sq).canonical
        assert twin.eps2 == sk.EPS_MIN  # exponent 0 floored
        npt.assert_allclose(twin.scale[0], SQRT2_HALF, rtol=1e-12)
        a = twin.scale[0]
        half = SQRT2_HALF ** twin.eps2  # |cos(pi/4)|^eps2
        corners_local = np.array([[sx * a * half, sy * a * half, 0.0]
                                  for sx in (1, -1) for sy in (1, -1)])
        corners_world = twin.local_to_world(corners_local)
        vertices = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]])
        for c in corners_world:
            assert min(np.linalg.norm(c - v) for v in vertices) <= 5e-3
        assert sk.surface_hausdorff(sq, twin, n=2048) <= 5e-3


_exponents = st.floats(sk.EPS_MIN, 2.0)
_scales = st.lists(st.floats(1e-3, 10.0), min_size=3, max_size=3)
_quaternions = (st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
                .filter(lambda q: np.linalg.norm(q) > 0.1)
                .map(lambda q: np.array(q) / np.linalg.norm(q)))
_translations = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)
superquadrics = st.builds(sk.Superquadric, _exponents, _exponents, _scales, _quaternions,
                          _translations)
# Deterministic: the same examples on every run, and no example database.
fold_settings = settings(max_examples=300)


class TestFoldProperties:
    """Invariants of `canonicalize` over every valid parameter record."""

    @fold_settings
    @given(superquadrics)
    def test_lands_in_canonical_range(self, sq):
        result = sk.canonicalize(sq)
        assert sk.EPS_MIN <= result.canonical.eps2 <= 1.0
        assert result.warped is (sq.eps2 > 1.0)

    @fold_settings
    @given(superquadrics)
    def test_idempotent(self, sq):
        first = sk.canonicalize(sq).canonical
        second = sk.canonicalize(first)
        assert second.warped is False
        assert second.canonical is first

    @fold_settings
    @given(superquadrics)
    def test_decomposition_rebuilds_composed_factor(self, sq):
        # stated bound: every entry within 1e-12 of the factor's largest entry
        M, t = sk.canonicalize(sq).compose()
        M2, t2 = sk.compose_affine(*sk.decompose_scale_shear(M), t)
        assert np.max(np.abs(M2 - M)) <= 1e-12 * np.max(np.abs(M))
        npt.assert_array_equal(t2, t)

    @fold_settings
    @given(superquadrics)
    def test_compose_is_the_pose_of_the_written_record(self, sq):
        # One description of the fold: the composed factor is, bit for bit,
        # the pose of the record that `sqkit canon` writes.
        result = sk.canonicalize(sq)
        M, t = result.compose()
        pose = sk.record_from_superquadric(result.canonical, shear=result.shear).pose()
        assert M.tobytes() == pose.matrix.tobytes()
        assert t.tobytes() == pose.translation.tobytes()


class TestCanonicalize:
    def test_identity_below_one(self):
        sq = sk.Superquadric(0.5, 0.7, np.array([0.03, 0.05, 0.08]))
        result = sk.canonicalize(sq)
        assert result.warped is False
        assert result.canonical is sq
        npt.assert_array_equal(result.shear, np.zeros(3))
        M, t = result.compose()
        npt.assert_array_equal(M, quat_to_matrix(sq.rotation) @ np.diag(sq.scale))
        npt.assert_array_equal(t, sq.translation)

    def test_equal_radial_scales_give_no_shear(self):
        sq = sk.Superquadric(1.0, 1.5, np.array([0.04, 0.04, 0.1]))
        result = sk.canonicalize(sq)
        assert result.warped is True
        npt.assert_allclose(result.canonical.scale, [0.034142, 0.034142, 0.1], atol=1e-6)
        npt.assert_array_equal(result.shear, np.zeros(3))

    def test_unequal_radial_scales_give_shear(self):
        sq = sk.Superquadric(1.0, 1.5, np.array([0.05, 0.03, 0.1]))
        result = sk.canonicalize(sq)
        npt.assert_allclose(result.canonical.scale[:2], 0.034142, atol=1e-6)
        npt.assert_allclose(result.shear[0], 0.0085355, atol=1e-6)
        npt.assert_array_equal(result.shear[1:], 0.0)

    def test_fold_factor_is_the_turned_scale_and_positive_definite(self):
        # P(scale, shear) is the 45-degree turn of diag(s ax, s ay, az), up to rounding
        rng = np.random.default_rng(44)
        turn = rotation_about_z(-np.pi / 4.0)
        for _ in range(25):
            sq = random_superquadric(rng, eps2=(1.0 + 1e-6, 2.0))
            result = sk.canonicalize(sq)
            P, _ = sk.compose_affine(np.eye(3), result.canonical.scale, result.shear,
                                     np.zeros(3))
            s = sk.duality_scale(sq.eps2)
            turned = turn.T @ np.diag(sq.scale * [s, s, 1.0]) @ turn
            npt.assert_allclose(P, turned, rtol=0, atol=1e-15 * np.max(sq.scale))
            assert np.all(np.linalg.eigvalsh(P) > 0)

    def test_canonical_range_and_idempotence(self):
        rng = np.random.default_rng(45)
        for _ in range(25):
            sq = random_superquadric(rng, eps2=(sk.EPS_MIN, 2.0))
            first = sk.canonicalize(sq)
            assert sk.EPS_MIN <= first.canonical.eps2 <= 1.0
            second = sk.canonicalize(first.canonical)
            assert second.warped is False
            assert second.canonical is first.canonical

    def test_rotation_update_matches_turn(self):
        sq = sk.Superquadric(0.9, 1.4, np.array([0.04, 0.04, 0.06]))
        result = sk.canonicalize(sq)
        npt.assert_allclose(result.canonical.rotation_matrix,
                            quat_to_matrix(sq.rotation) @ rotation_about_z(-np.pi / 4.0),
                            atol=1e-14)

    def test_posed_warp_equals_canonical_record_when_round(self):
        # with ax = ay the shear is 0 and the composed factor poses the unit
        # twin exactly like the canonical record itself
        rng = np.random.default_rng(46)
        for _ in range(10):
            radial = rng.uniform(0.02, 0.1)
            sq = sk.Superquadric(
                rng.uniform(0.1, 1.0), rng.uniform(1.0 + 1e-9, 2.0),
                np.array([radial, radial, rng.uniform(0.02, 0.2)]),
                rotation=random_superquadric(rng).rotation,
                translation=rng.uniform(-0.2, 0.2, 3))
            result = sk.canonicalize(sq)
            c = result.canonical
            unit = sk.Superquadric(c.eps1, c.eps2, np.ones(3))
            u = sk.sample_surface(unit, 256, seed=1)
            posed = sk.PoseHypothesis(*result.compose()).apply(u)
            direct = sk.PoseHypothesis(c.rotation_matrix @ np.diag(c.scale),
                                       c.translation).apply(u)
            npt.assert_array_equal(posed, direct)

    def test_fold_surface_deviation_is_bounded(self):
        # The exponent fold is an approximation: it moves each surface point,
        # at fixed height, by at most the cross-section gap g(eps2) * radial
        # (derived from closed forms in conftest), and by more than nothing.
        rng = np.random.default_rng(47)
        worst = 0.0
        for _ in range(20):
            radial = rng.uniform(0.02, 0.1)
            sq = sk.Superquadric(
                rng.uniform(0.1, 1.0), rng.uniform(1.0 + 1e-6, 2.0),
                np.array([radial, radial, rng.uniform(0.02, 0.2)]))
            tol = 1e-5 * np.max(sq.scale)
            points = sk.sample_surface(sq, 1024)
            partners = fold_partners(sq, points)
            twin = sk.canonicalize(sq).canonical
            assert np.max(sk.radial_distance(twin, partners)) <= tol
            move = np.max(np.linalg.norm(points - partners, axis=1))
            assert move <= fold_gap(sq.eps2) * radial + tol
            worst = max(worst, move / radial)
        assert 0.0 < worst

    def test_fold_is_near_exact_close_to_one(self):
        sq = sk.Superquadric(0.5, 1.0 + 1e-9, np.array([0.05, 0.05, 0.1]))
        dev = sk.surface_hausdorff(sq, sk.canonicalize(sq).canonical, n=1024)
        assert dev <= 1e-9

    def test_radial_mismatch_reported(self):
        sq = sk.Superquadric(1.0, 1.5, np.array([0.05, 0.03, 0.1]))
        npt.assert_allclose(sk.canonicalize(sq).radial_mismatch, 0.02 / 0.05)

    def test_compose_returns_consistent_factor(self):
        sq = sk.Superquadric(1.0, 1.5, np.array([0.05, 0.03, 0.1]))
        result = sk.canonicalize(sq)
        M, t = result.compose()
        c = result.canonical
        M2, _ = sk.compose_affine(c.rotation_matrix, c.scale, result.shear, c.translation)
        npt.assert_array_equal(M, M2)
        npt.assert_array_equal(t, sq.translation)

    @pytest.mark.parametrize("eps2", [0.7, 1.5])
    def test_shear_is_read_only(self, eps2):
        # a writable shear would change what compose() returns
        result = sk.canonicalize(sk.Superquadric(1.0, eps2, np.array([0.05, 0.03, 0.1])))
        with pytest.raises(ValueError):
            result.shear[0] = 0.02
        assert not result.shear.flags.writeable

    def test_fold_of_the_largest_scales_is_finite(self):
        # ax + ay overflows here; the canonical radial scale s (ax + ay) / 2 does not
        big = np.finfo(float).max
        result = sk.canonicalize(sk.Superquadric(0.5, 1.5, np.array([big, big / 2, 1.0])))
        s = sk.duality_scale(1.5)
        assert result.canonical.scale[0] == s * (0.5 * big + 0.25 * big)
        assert np.isfinite(result.shear).all()


class TestDecomposeScaleShear:
    def test_diagonal_input(self):
        R, scale, shear = sk.decompose_scale_shear(np.diag([2.0, 3.0, 4.0]))
        npt.assert_allclose(R, np.eye(3), atol=1e-12)
        npt.assert_allclose(scale, [2.0, 3.0, 4.0])
        npt.assert_allclose(shear, 0.0, atol=1e-12)

    def test_rotation_times_diagonal(self):
        Rz = rotation_about_z(np.pi / 6.0)
        R, scale, shear = sk.decompose_scale_shear(Rz @ np.diag([1.0, 2.0, 3.0]))
        npt.assert_allclose(R, Rz, atol=1e-12)
        npt.assert_allclose(scale, [1.0, 2.0, 3.0], atol=1e-12)
        npt.assert_allclose(shear, 0.0, atol=1e-12)

    def test_symmetric_input_is_its_own_factor(self):
        sq = sk.Superquadric(1.0, 1.5, np.array([0.05, 0.03, 0.1]))
        result = sk.canonicalize(sq)
        P, _ = sk.compose_affine(np.eye(3), result.canonical.scale, result.shear, np.zeros(3))
        R, scale, shear = sk.decompose_scale_shear(P)
        npt.assert_allclose(R, np.eye(3), atol=1e-10)
        npt.assert_allclose(scale, [0.034142, 0.034142, 0.1], atol=1e-6)
        npt.assert_allclose(shear, [0.0085355, 0.0, 0.0], atol=1e-6)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            M = rng.normal(size=(3, 3)) + 2.5 * np.eye(3)
            if np.linalg.det(M) <= 0.1:
                continue
            R, scale, shear = sk.decompose_scale_shear(M)
            R_ref, P_ref = polar_oracle(M)
            npt.assert_allclose(R, R_ref, atol=1e-9)
            npt.assert_allclose(scale, np.diag(P_ref), atol=1e-9)
            npt.assert_allclose(shear, [P_ref[0, 1], P_ref[0, 2], P_ref[1, 2]], atol=1e-9)

    def test_reconstruction(self):
        rng = np.random.default_rng(56)
        M = rng.normal(size=(3, 3)) + 2.5 * np.eye(3)
        while np.linalg.det(M) <= 0.1:
            M = rng.normal(size=(3, 3)) + 2.5 * np.eye(3)
        R, scale, shear = sk.decompose_scale_shear(M)
        rebuilt, _ = sk.compose_affine(R, scale, shear, np.zeros(3))
        npt.assert_allclose(rebuilt, M, atol=1e-9)

    def test_nonpositive_determinant_rejected(self):
        with pytest.raises(ValueError):
            sk.decompose_scale_shear(-np.eye(3))
        with pytest.raises(ValueError):
            sk.decompose_scale_shear(np.diag([1.0, 1.0, 0.0]))


class TestComposeAffine:
    def test_identity(self):
        M, t = sk.compose_affine(np.eye(3), np.ones(3), np.zeros(3), np.zeros(3))
        npt.assert_array_equal(M, np.eye(3))
        npt.assert_array_equal(t, np.zeros(3))
        # The validated inputs are frozen; the returned pose is the caller's to change.
        assert M.flags.writeable and t.flags.writeable

    def test_pure_scale(self):
        M, _ = sk.compose_affine(np.eye(3), np.array([2.0, 3.0, 4.0]),
                                 np.zeros(3), np.zeros(3))
        npt.assert_array_equal(M, np.diag([2.0, 3.0, 4.0]))

    def test_round_trip_through_decompose(self):
        rng = np.random.default_rng(57)
        for _ in range(100):
            A = rng.normal(size=(3, 3))
            P = A @ A.T + 0.5 * np.eye(3)
            R = quat_to_matrix(random_superquadric(rng).rotation)
            scale = np.diag(P).copy()
            shear = np.array([P[0, 1], P[0, 2], P[1, 2]])
            t = rng.normal(size=3)
            M, t_out = sk.compose_affine(R, scale, shear, t)
            R2, scale2, shear2 = sk.decompose_scale_shear(M)
            npt.assert_allclose(R2, R, atol=1e-9)
            npt.assert_allclose(scale2, scale, atol=1e-9)
            npt.assert_allclose(shear2, shear, atol=1e-9)
            npt.assert_array_equal(t_out, t)

    def test_rejects_improper_rotation(self):
        with pytest.raises(ValueError):
            sk.compose_affine(np.diag([1.0, 1.0, -1.0]), np.ones(3), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            sk.compose_affine(2 * np.eye(3), np.ones(3), np.zeros(3), np.zeros(3))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            sk.compose_affine(np.eye(3), np.array([1.0, -1.0, 1.0]), np.zeros(3), np.zeros(3))
