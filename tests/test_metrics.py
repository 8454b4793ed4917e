"""Pose metrics: pinhole projection, MSSD/MSPD, accuracy curves."""

from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqkit as sk
from sqkit.rotations import quat_to_matrix, random_quaternion
from conftest import mspd_oracle, mssd_oracle

K = sk.CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)
IDENTITY = sk.SymmetryGroup(np.eye(3)[None])


def _pose(M=None, t=(0.0, 0.0, 0.0)):
    return sk.PoseHypothesis(np.eye(3) if M is None else M, np.asarray(t, dtype=float))


def _template(n=64, seed=0):
    sq = sk.Superquadric(0.5, 0.5, np.ones(3))
    return sk.sample_surface(sq, n, seed=seed)


class TestProject:
    def test_principal_ray(self):
        npt.assert_array_equal(sk.project(K, [0.0, 0.0, 1.0]), [320.0, 240.0])

    def test_offset_ray(self):
        npt.assert_allclose(sk.project(K, [0.01, 0.0, 1.0]), [325.0, 240.0])

    def test_behind_camera(self):
        with pytest.raises(ValueError):
            sk.project(K, [0.0, 0.0, -1.0])
        with pytest.raises(ValueError):
            sk.project(K, [0.0, 0.0, 0.0])

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            sk.CameraIntrinsics(fx=-1.0, fy=500.0, cx=0.0, cy=0.0)
        npt.assert_array_equal(K.matrix[0], [500.0, 0.0, 320.0])


class TestPoseHypothesis:
    def test_rejects_nonpositive_determinant(self):
        with pytest.raises(ValueError):
            _pose(M=np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(ValueError):
            _pose(M=np.zeros((3, 3)))

    def test_apply_matches_manual(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        if np.linalg.det(M) <= 0:
            M = M + 2 * np.eye(3)
        t = rng.normal(size=3)
        pose = _pose(M, t)
        pts = rng.normal(size=(20, 3))
        npt.assert_allclose(pose.apply(pts), pts @ M.T + t, atol=1e-12)


class TestMssd:
    def test_zero_for_identical_poses(self):
        tpl = _template()
        assert sk.mssd(_pose(), _pose(), tpl, IDENTITY) == 0.0

    def test_symmetry_absorbed(self):
        sq = sk.Superquadric(0.5, 0.5, np.array([0.04, 0.04, 0.09]))
        group = sk.symmetry_group(sq)
        tpl = sk.template_points(sk.ShapeCategory(0, 0.5, 0.5), n=128, dense_n=1024)
        gt = _pose(sq.rotation_matrix @ np.diag(sq.scale), [0.1, 0.0, 0.4])
        for S in sk.expand_symmetries(group):
            est = sk.PoseHypothesis(gt.matrix @ S, gt.translation)
            assert sk.mssd(est, gt, tpl, group) <= 1e-9

    def test_translation_offset_is_exact(self):
        # dyadic template coordinates and offset make the arithmetic exact
        tpl = np.array([[0.5, 0.25, -0.75], [-0.5, 0.0, 0.25], [0.25, -0.25, 0.5]])
        est = _pose(t=(0.25, 0.0, 0.0))
        assert sk.mssd(est, _pose(), tpl, IDENTITY) == 0.25

    def test_translation_offset_general(self):
        tpl = _template()
        est = _pose(t=(0.01, 0.0, 0.0))
        npt.assert_allclose(sk.mssd(est, _pose(), tpl, IDENTITY), 0.01,
                            rtol=1e-12)

    def test_adding_points_never_decreases(self):
        rng = np.random.default_rng(5)
        tpl = _template(48)
        est = _pose(np.diag([1.1, 0.9, 1.0]), (0.01, -0.02, 0.005))
        group = IDENTITY
        base = sk.mssd(est, _pose(), tpl, group)
        for _ in range(5):
            extra = np.vstack([tpl, rng.normal(size=(4, 3))])
            assert sk.mssd(est, _pose(), extra, group) >= base

    def test_matches_bruteforce_oracle_exactly(self):
        rng = np.random.default_rng(6)
        sq = sk.Superquadric(0.3, 0.6, np.array([0.05, 0.05, 0.12]))
        group = sk.symmetry_group(sq)
        rotations = sk.expand_symmetries(group)
        tpl = _template(64, seed=2)
        for _ in range(10):
            M_gt = quat_to_matrix(random_quaternion(rng)) @ np.diag(rng.uniform(0.5, 2.0, 3))
            M_est = quat_to_matrix(random_quaternion(rng)) @ np.diag(rng.uniform(0.5, 2.0, 3))
            gt = _pose(M_gt, rng.normal(size=3))
            est = _pose(M_est, rng.normal(size=3))
            assert sk.mssd(est, gt, tpl, group) == mssd_oracle(est, gt, tpl, rotations)

    def test_matches_oracle_across_symmetry_blocks(self):
        # 72 symmetries x 100 points is scored in several broadcast blocks
        rng = np.random.default_rng(8)
        group = sk.symmetry_group(sk.Superquadric(0.3, 1.0, np.array([0.05, 0.05, 0.12])))
        tpl = _template(100, seed=4)
        assert len(group.rotations) * len(tpl) > sk.metrics._BLOCK_POINTS
        for _ in range(3):
            M_gt = quat_to_matrix(random_quaternion(rng)) @ np.diag(rng.uniform(0.5, 2.0, 3))
            M_est = quat_to_matrix(random_quaternion(rng)) @ np.diag(rng.uniform(0.5, 2.0, 3))
            gt = _pose(M_gt, rng.normal(size=3))
            est = _pose(M_est, rng.normal(size=3))
            assert sk.mssd(est, gt, tpl, group) == mssd_oracle(est, gt, tpl, group.rotations)

    def test_empty_template_rejected(self):
        with pytest.raises(ValueError):
            sk.mssd(_pose(), _pose(), np.zeros((0, 3)), IDENTITY)


class TestMspd:
    def test_zero_for_identical_poses(self):
        tpl = _template()
        gt = _pose(t=(0.0, 0.0, 1.0))
        assert sk.mspd(gt, gt, tpl, IDENTITY, K) == 0.0

    def test_planar_template_offset(self):
        # all points at z = 1: pixel shift is exactly fx * dx / z
        grid = np.stack(np.meshgrid(np.linspace(-0.1, 0.1, 5),
                                    np.linspace(-0.1, 0.1, 5)), axis=-1).reshape(-1, 2)
        tpl = np.concatenate([grid, np.zeros((len(grid), 1))], axis=1)
        gt = _pose(t=(0.0, 0.0, 1.0))
        est = _pose(t=(0.01, 0.0, 1.0))
        npt.assert_allclose(sk.mspd(est, gt, tpl, IDENTITY, K), 5.0,
                            atol=1e-9)

    def test_symmetry_absorbed(self):
        sq = sk.Superquadric(0.5, 0.5, np.array([0.04, 0.04, 0.09]))
        group = sk.symmetry_group(sq)
        tpl = sk.template_points(sk.ShapeCategory(0, 0.5, 0.5), n=128, dense_n=1024)
        gt = _pose(sq.rotation_matrix @ np.diag(sq.scale), [0.0, 0.0, 0.8])
        for S in sk.expand_symmetries(group)[:8]:
            est = sk.PoseHypothesis(gt.matrix @ S, gt.translation)
            assert sk.mspd(est, gt, tpl, group, K) <= 1e-9

    def test_behind_camera_rejected(self):
        tpl = _template()
        with pytest.raises(ValueError):
            sk.mspd(_pose(), _pose(), tpl, IDENTITY, K)

    def test_symmetric_gt_behind_camera_rejected(self):
        # est and the identity's gt point lie in front of the camera; the
        # flipped gt point, alone in the second symmetry block, does not.
        tpl = np.array([[0.0, 0.0, 0.5]])
        flips = sk.SymmetryGroup(np.array([np.eye(3), np.diag([1.0, -1.0, -1.0])]))
        with mock.patch.object(sk.metrics, "_BLOCK_POINTS", 1):
            with pytest.raises(ValueError, match="behind camera"):
                sk.mspd(_pose(t=(0.0, 0.0, 1.0)), _pose(t=(0.0, 0.0, 0.25)), tpl, flips, K)


_radii = st.floats(0.03, 0.08)
_heights = st.floats(0.05, 0.15)
_eps1 = st.floats(0.1, 1.0)
_eps2 = st.floats(0.1, 0.9)


def _shape(eps1, eps2, ax, ay, az):
    return sk.Superquadric(eps1, eps2, np.array([ax, ay, az]))


# Canonical shapes of each symmetry class: general (order-4 group), square
# cross-section (order 8) and revolution (72 elements).
_canonical_shapes = st.one_of(
    st.builds(_shape, _eps1, _eps2, _radii, _radii, _heights),
    st.builds(lambda e1, e2, r, h: _shape(e1, e2, r, r, h), _eps1, _eps2, _radii, _heights),
    st.builds(lambda e1, r, h: _shape(e1, 1.0, r, r, h), _eps1, _radii, _heights),
)
_quaternions = st.integers(0, 2**32 - 1).map(
    lambda seed: random_quaternion(np.random.default_rng(seed)))
# 0.6-1.0 m in front of the camera.
_translations = st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1), st.floats(0.6, 1.0))


class TestSymmetryProperties:
    """MSSD and MSPD absorb every element of a shape's symmetry group."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(_canonical_shapes, _quaternions, _translations)
    def test_every_group_element_is_absorbed(self, sq, q, t):
        group = sk.symmetry_group(sq)
        grid = sk.default_grid()
        category = grid.category(sk.categorize(sq.eps1, sq.eps2, grid))
        tpl = sk.template_points(category, n=64, dense_n=1024)
        gt = _pose(quat_to_matrix(q) @ np.diag(sq.scale), t)
        for S in group.rotations:  # 1e-9 is criterion 07's bound
            est = sk.PoseHypothesis(gt.matrix @ S, gt.translation)
            assert sk.mssd(est, gt, tpl, group) <= 1e-9
            assert sk.mspd(est, gt, tpl, group, K) <= 1e-9


# The three built-in groups and one user-built stack (any proper rotations
# are accepted, group or not).
_METRIC_GROUPS = (
    sk.symmetry_group(_shape(0.5, 0.5, 0.03, 0.05, 0.1)),
    sk.symmetry_group(_shape(0.5, 0.5, 0.04, 0.04, 0.1)),
    sk.symmetry_group(_shape(0.5, 1.0, 0.04, 0.04, 0.1)),
    sk.SymmetryGroup(np.array([quat_to_matrix(random_quaternion(np.random.default_rng(s)))
                               for s in range(2)])),
)
# Template points times symmetries the scalar oracles run per example.
_ORACLE_BUDGET = 12_288
# Intrinsics with fx != fy and cx != cy, as in the benchmark.
_K_BENCH = sk.CameraIntrinsics(fx=500.0, fy=480.0, cx=320.0, cy=240.0)


def _sheared_pose(rng):
    """Random rotation times scale plus shear, 0.6-1.0 m in front of the camera."""
    M, t = sk.compose_affine(quat_to_matrix(random_quaternion(rng)), rng.uniform(0.02, 0.15, 3),
                             rng.uniform(-0.02, 0.02, 3),
                             (rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                              rng.uniform(0.6, 1.0)))
    return sk.PoseHypothesis(M, t)


@st.composite
def _metric_cases(draw):
    """(group, template, est, gt): templates from 1 point to past _BLOCK_POINTS,
    with the sizes at each group's block edges drawn on purpose."""
    group = draw(st.sampled_from(_METRIC_GROUPS))
    m = len(group.rotations)
    cap = _ORACLE_BUDGET // m
    block = sk.metrics._BLOCK_POINTS
    edges = [v for v in (1, block // m, block // m + 1, block, block + 1) if v <= cap]
    n = draw(st.one_of(st.sampled_from(edges), st.integers(1, cap)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return group, rng.uniform(-1.0, 1.0, (n, 3)), _sheared_pose(rng), _sheared_pose(rng)


def _past_one_block():
    """A fixed case whose template alone is larger than one block."""
    rng = np.random.default_rng(9)
    tpl = rng.uniform(-1.0, 1.0, (sk.metrics._BLOCK_POINTS + 1, 3))
    return _METRIC_GROUPS[3], tpl, _sheared_pose(rng), _sheared_pose(rng)


class TestOracleProperties:
    """MSSD and MSPD equal the scalar double-loop oracles, bit for bit."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(_metric_cases())
    @example(_past_one_block())
    def test_metrics_equal_oracles(self, case):
        group, tpl, est, gt = case
        assert sk.mssd(est, gt, tpl, group) == mssd_oracle(est, gt, tpl, group.rotations)
        assert (sk.mspd(est, gt, tpl, group, _K_BENCH)
                == mspd_oracle(est, gt, tpl, group.rotations, _K_BENCH))


class TestAccuracyCurve:
    def test_all_zero_errors(self):
        npt.assert_array_equal(sk.accuracy_curve([0.0, 0.0], [0.1, 0.2]), [1.0, 1.0])

    def test_half_below(self):
        npt.assert_array_equal(sk.accuracy_curve([1.0, 3.0], [2.0]), [0.5])

    def test_all_above(self):
        npt.assert_array_equal(sk.accuracy_curve([5.0], [1.0, 2.0]), [0.0, 0.0])

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(7)
        errors = rng.uniform(0, 1, 100)
        thr = np.sort(rng.uniform(0, 1, 20))
        curve = sk.accuracy_curve(errors, thr)
        assert np.all(np.diff(curve) >= 0)
        assert np.all((curve >= 0) & (curve <= 1))

    def test_threshold_inclusive(self):
        npt.assert_array_equal(sk.accuracy_curve([1.0], [1.0]), [1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            sk.accuracy_curve([], [1.0])
        with pytest.raises(ValueError):
            sk.accuracy_curve([1.0], [2.0, 1.0])

    def test_nan_threshold_rejected(self):
        # NaN fails every comparison, so it passes a test for a descending pair.
        for thresholds in ([1.0, np.nan, 0.1], [np.nan], [np.nan, 1.0], [0.1, np.nan]):
            with pytest.raises(ValueError):
                sk.accuracy_curve([0.5, 2.0], thresholds)
