"""Pose metrics: pinhole projection, MSSD/MSPD, accuracy curves."""

import functools
import sys
import threading
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqkit as sk
from sqkit.rotations import quat_to_matrix, random_quaternion
from conftest import mspd_oracle, mssd_oracle, template_from_dense

K = sk.CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)
IDENTITY = sk.SymmetryGroup(np.eye(3)[None])
_quaternions = st.integers(0, 2**32 - 1).map(
    lambda seed: random_quaternion(np.random.default_rng(seed)))


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
        for field in ("fx", "fy", "cx", "cy"):
            for bad in (np.nan, np.inf, -np.inf):
                values = {"fx": 500.0, "fy": 500.0, "cx": 0.0, "cy": 0.0, field: bad}
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    sk.CameraIntrinsics(**values)
        npt.assert_array_equal(K.matrix[0], [500.0, 0.0, 320.0])


class TestPoseHypothesis:
    def test_rejects_nonpositive_determinant(self):
        with pytest.raises(ValueError):
            _pose(M=np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(ValueError):
            _pose(M=np.zeros((3, 3)))

    # Scales from 1e-150 to 1e150 put det(M) between 1e-450 and 1e450, beyond
    # float64 either way, so only its sign can decide.
    @settings(max_examples=200)
    @given(_quaternions, st.lists(st.floats(-150.0, 150.0), min_size=3, max_size=3),
           st.integers(0, 2))
    @example(np.array([1.0, 0.0, 0.0, 0.0]), [-120.0] * 3, 0)
    def test_orientation_is_the_determinant_sign(self, q, exponents, column):
        M = quat_to_matrix(q) * 10.0 ** np.array(exponents)
        npt.assert_array_equal(_pose(M).matrix, M)
        sk.decompose_scale_shear(M)
        for factor in (-1.0, 0.0):
            bad = M.copy()
            bad[:, column] *= factor
            with pytest.raises(ValueError, match="pose matrix must have positive determinant"):
                _pose(bad)
            with pytest.raises(ValueError, match="M must have positive determinant"):
                sk.decompose_scale_shear(bad)

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
        tpl = template_from_dense(sk.ShapeCategory(0, 0.5, 0.5), n=128, dense_n=1024)
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

    @pytest.mark.parametrize("metric", [sk.mssd, functools.partial(sk.mspd, intrinsics=K)],
                             ids=["mssd", "mspd"])
    def test_overflowing_error_raises(self, metric):
        # Two identical poses whose posed x overflows: inf - inf is NaN.
        pose = sk.PoseHypothesis(np.eye(3) * 1e200, [0.0, 0.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="overflows float64"):
                metric(pose, pose, [[1e200, 0.0, 0.0], [0.0, 0.0, 1.0]], IDENTITY)


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
        tpl = template_from_dense(sk.ShapeCategory(0, 0.5, 0.5), n=128, dense_n=1024)
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
# 0.6-1.0 m in front of the camera.
_translations = st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1), st.floats(0.6, 1.0))


class TestSymmetryProperties:
    """MSSD and MSPD absorb every element of a shape's symmetry group."""

    @settings(max_examples=60)
    @given(_canonical_shapes, _quaternions, _translations)
    def test_every_group_element_is_absorbed(self, sq, q, t):
        group = sk.symmetry_group(sq)
        grid = sk.default_grid()
        category = grid.category(sk.categorize(sq.eps1, sq.eps2, grid))
        tpl = template_from_dense(category, n=64, dense_n=1024)
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


def _axis_aligned(group, n, seed):
    """A dyadic template with exact zeros, points on the axes among them, scored
    between a diagonal pose and a quarter turn about z with axis scales."""
    rng = np.random.default_rng(seed)
    tpl = rng.choice([-0.5, -0.25, -0.0, 0.0, 0.25, 0.5], size=(n, 3))
    tpl[:4] = [[0.5, 0.0, 0.0], [0.0, -0.25, 0.0], [0.0, 0.0, 0.5], [0.0, -0.0, 0.0]]
    diagonal = _pose(np.diag([0.125, 0.25, 0.0625]), (0.0, 0.0, 0.75))
    turned = _pose(np.array([[0.0, -0.25, 0.0], [0.125, 0.0, 0.0], [0.0, 0.0, 0.5]]),
                   (0.0, -0.0, 0.5))
    return (group, tpl, diagonal, turned) if seed % 2 else (group, tpl, turned, diagonal)


# x -> y -> z -> x: a signed axis permutation that moves z.
_AXIS_CYCLE = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
_CYCLE_GROUP = sk.SymmetryGroup(np.array([np.eye(3), _AXIS_CYCLE, _AXIS_CYCLE @ _AXIS_CYCLE]))


class TestOracleProperties:
    """MSSD and MSPD equal the scalar double-loop oracles, bit for bit."""

    # The order-4 and order-8 groups take the one-pass path (`_min_max`)
    # when they fit one block. Sums of zero products can take either sign of
    # zero there, so the examples put exact zeros in the template and the
    # poses, within one block and one point past it, where the two-pass path
    # takes over.
    @settings(max_examples=40)
    @given(_metric_cases())
    @example(_past_one_block())
    @example(_axis_aligned(_METRIC_GROUPS[0], 64, 1))
    @example(_axis_aligned(_METRIC_GROUPS[1], 64, 2))
    @example(_axis_aligned(_METRIC_GROUPS[0], sk.metrics._BLOCK_POINTS // 4 + 1, 3))
    @example(_axis_aligned(_METRIC_GROUPS[1], sk.metrics._BLOCK_POINTS // 8 + 1, 4))
    def test_metrics_equal_oracles(self, case):
        group, tpl, est, gt = case
        assert sk.mssd(est, gt, tpl, group) == mssd_oracle(est, gt, tpl, group.rotations)
        assert (sk.mspd(est, gt, tpl, group, _K_BENCH)
                == mspd_oracle(est, gt, tpl, group.rotations, _K_BENCH))

    # Composing a permutation that moves z into gt's matrix regroups each
    # row's sum: at seed 30 that changes the bits of both metrics.
    @settings(max_examples=20)
    @given(st.integers(0, 2**32 - 1))
    @example(30)
    def test_axis_cycle_group_equals_oracles(self, seed):
        rng = np.random.default_rng(seed)
        tpl = rng.uniform(-1.0, 1.0, (16, 3))
        est, gt = _sheared_pose(rng), _sheared_pose(rng)
        rotations = _CYCLE_GROUP.rotations
        assert sk.mssd(est, gt, tpl, _CYCLE_GROUP) == mssd_oracle(est, gt, tpl, rotations)
        assert (sk.mspd(est, gt, tpl, _CYCLE_GROUP, _K_BENCH)
                == mspd_oracle(est, gt, tpl, rotations, _K_BENCH))


# Inputs of the slot tests (`_min_max` keeps the one-pass stack for one
# reuse). Poses 2 and 3 swap the translations of poses 0 and 1, and pose 4
# is an equal-valued copy of pose 0.
_reuse_rng = np.random.default_rng(25)
_REUSE_POSES = (_sheared_pose(_reuse_rng), _sheared_pose(_reuse_rng))
_REUSE_POSES += (sk.PoseHypothesis(_REUSE_POSES[0].matrix, _REUSE_POSES[1].translation),
                 sk.PoseHypothesis(_REUSE_POSES[1].matrix, _REUSE_POSES[0].translation),
                 sk.PoseHypothesis(_REUSE_POSES[0].matrix.copy(),
                                   _REUSE_POSES[0].translation.copy()))
# Template 0 has one point, template 2 is an equal-valued copy of template 1,
# and each example adds template 3, a copy of template 1 that it negates in
# place. Template 4 is one point past one block of the current group.
_REUSE_TEMPLATES = (_reuse_rng.uniform(-1.0, 1.0, (1, 3)), _reuse_rng.uniform(-1.0, 1.0, (64, 3)))
_REUSE_TEMPLATES += (_REUSE_TEMPLATES[1].copy(),)
# `_METRIC_GROUPS` and the quarter turns about z: a group of signed x/y
# permutations of the flips' order, so its stack has the flips' shape.
_REUSE_GROUPS = _METRIC_GROUPS + (sk.SymmetryGroup(np.array(
    [np.linalg.matrix_power(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), i)
     for i in range(4)])),)
_PAST_BLOCK = {len(g.rotations): _reuse_rng.uniform(
    -1.0, 1.0, (sk.metrics._BLOCK_POINTS // len(g.rotations) + 1, 3)) for g in _REUSE_GROUPS}
# Each step calls one metric after changing at most one part of the input:
# None keeps it, so the call can take the slot's stack; a change of one part
# is the near miss that the slot's key must see.
_reuse_steps = st.lists(st.tuples(
    st.sampled_from(("mssd", "mspd")),
    st.one_of(st.none(), st.just(("negate", None)),
              st.tuples(st.sampled_from(("est", "gt")), st.integers(0, len(_REUSE_POSES) - 1)),
              st.tuples(st.just("group"), st.integers(0, len(_REUSE_GROUPS) - 1)),
              st.tuples(st.just("template"), st.integers(0, 4)))),
    min_size=2, max_size=12)


@functools.cache
def _reuse_oracle(metric, est, gt, group, points):
    """The oracle for pose indices, a group index and a template's bytes."""
    args = (_REUSE_POSES[est], _REUSE_POSES[gt], np.frombuffer(points).reshape(-1, 3),
            _REUSE_GROUPS[group].rotations)
    return mssd_oracle(*args) if metric == "mssd" else mspd_oracle(*args, _K_BENCH)


class TestPosedStackReuse:
    """`mssd` and `mspd` on one input share one posed stack, never a stale one."""

    # Starts at est 0, gt 1, the order-4 group and template 3. The examples:
    # a plain reuse; the template negated in place between the two metrics;
    # each pose swapped for an equal-valued copy, then in turn for one that
    # differs only in its translation and one that differs only in its
    # matrix; each group after another of one stack shape; a group past one
    # block.
    @settings(max_examples=60)
    @given(_reuse_steps)
    @example([("mssd", None), ("mspd", None)])
    @example([("mssd", None), ("mspd", ("negate", None)), ("mssd", ("negate", None))])
    @example([("mspd", None), ("mssd", ("est", 4)), ("mspd", ("gt", 0)), ("mssd", ("est", 1))])
    @example([("mssd", None), ("mspd", ("est", 2)), ("mssd", ("est", 1)), ("mspd", ("gt", 3)),
              ("mssd", ("gt", 0))])
    @example([("mssd", None), ("mspd", ("group", 4)), ("mssd", ("group", 0)),
              ("mspd", ("group", 1)), ("mssd", ("group", 4))])
    @example([("mssd", ("template", 4)), ("mspd", ("group", 1)), ("mssd", ("group", 2)),
              ("mspd", ("group", 3)), ("mssd", ("template", 0))])
    def test_interleaved_calls_equal_oracles(self, steps):
        templates = [*_REUSE_TEMPLATES, _REUSE_TEMPLATES[1].copy()]
        state = {"est": 0, "gt": 1, "group": 0, "template": 3}
        for metric, change in steps:
            if change == ("negate", None):
                np.negative(templates[3], out=templates[3])
            elif change is not None:
                state[change[0]] = change[1]
            group = _REUSE_GROUPS[state["group"]]
            tpl = (_PAST_BLOCK[len(group.rotations)] if state["template"] == 4
                   else templates[state["template"]])
            est, gt = _REUSE_POSES[state["est"]], _REUSE_POSES[state["gt"]]
            got = (sk.mssd(est, gt, tpl, group) if metric == "mssd"
                   else sk.mspd(est, gt, tpl, group, _K_BENCH))
            assert got == _reuse_oracle(metric, state["est"], state["gt"], state["group"],
                                        tpl.tobytes())

    def test_both_metrics_pose_once(self):
        est, gt = _REUSE_POSES[:2]
        tpl = _REUSE_TEMPLATES[1]
        for group in _METRIC_GROUPS[:2]:
            with (mock.patch.object(sk.metrics, "_slot", None),
                  mock.patch.object(sk.metrics, "_posed_rows",
                                    wraps=sk.metrics._posed_rows) as posed):
                sk.mssd(est, gt, tpl, group)
                sk.mspd(est, gt, tpl, group, _K_BENCH)
                sk.mspd(est, gt, tpl, group, _K_BENCH)
                sk.mssd(est, gt, tpl, group)
            assert posed.call_count == 2

    def test_each_call_expands_the_group_once(self):
        # perfbench counts a metric call's point evaluations from the
        # `sqkit.metrics.expand_symmetries` span inside it.
        est, gt = _REUSE_POSES[:2]
        tpl = _REUSE_TEMPLATES[1]
        with mock.patch.object(sk.metrics, "expand_symmetries",
                               wraps=sk.metrics.expand_symmetries) as expand:
            for i, group in enumerate(_METRIC_GROUPS * 2):
                sk.mssd(est, gt, tpl, group)
                assert expand.call_count == 2 * i + 1
                sk.mspd(est, gt, tpl, group, _K_BENCH)
                assert expand.call_count == 2 * i + 2

    def test_threads_get_their_own_stacks(self):
        # Four threads score four inputs of one group and template size, with
        # a 1 µs switch interval, so the slot changes hands between calls. A
        # served stack must always be the caller's own.
        tpl, group = _REUSE_TEMPLATES[1], _METRIC_GROUPS[0]
        inputs = [_REUSE_POSES[i:i + 2] for i in range(4)]
        expected = [(mssd_oracle(est, gt, tpl, group.rotations),
                     mspd_oracle(est, gt, tpl, group.rotations, _K_BENCH)) for est, gt in inputs]
        wrong = []

        def score(est, gt, want):
            for _ in range(200):
                got = (sk.mssd(est, gt, tpl, group), sk.mspd(est, gt, tpl, group, _K_BENCH))
                if got != want:
                    wrong.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=score, args=(*pair, want))
                       for pair, want in zip(inputs, expected)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_reused_stack_still_checked_behind_camera(self):
        # The order-4 group's flip about x takes gt's point to z = -0.25: mssd
        # scores it, and mspd, served from mssd's stack, still rejects it.
        tpl = np.array([[0.0, 0.0, 0.5]])
        group = _METRIC_GROUPS[0]
        est, gt = _pose(t=(0.0, 0.0, 1.0)), _pose(t=(0.0, 0.0, 0.25))
        with (mock.patch.object(sk.metrics, "_slot", None),
              mock.patch.object(sk.metrics, "_posed_rows", wraps=sk.metrics._posed_rows) as posed):
            assert sk.mssd(est, gt, tpl, group) == mssd_oracle(est, gt, tpl, group.rotations)
            with pytest.raises(ValueError, match="behind camera"):
                sk.mspd(est, gt, tpl, group, K)
        assert posed.call_count == 1


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

    def test_nan_error_rejected(self):
        # A NaN error would count as a miss: [nan, 0.1] at 0.5 read [0.5].
        with pytest.raises(ValueError, match="errors must not be NaN"):
            sk.accuracy_curve([np.nan, 0.1], [0.5])

    def test_infinite_error_compares(self):
        npt.assert_array_equal(sk.accuracy_curve([np.inf, 0.1], [0.5, np.inf]), [0.5, 1.0])
