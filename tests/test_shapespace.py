"""Shape grid, categorization, templates, and symmetry groups."""

import io
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqkit as sk
from conftest import fps_full_pass
from sqkit import shapespace
from sqkit.rotations import rotation_about_z

# The cycle x -> y -> z -> x.
_CYCLE = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# numpy's AVX-512 targets that it dispatches here; with them off, it runs its
# AVX2 kernels.
_AVX512_ON = [t for t in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
              if t in __cpu_dispatch__ and __cpu_features__.get(t)]

# Rebuilds the FPS order table into argv[1]; prints which of them are still on.
_REBUILD_TABLE = f"""
import json, sys
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from sqkit import shapespace
np.save(sys.argv[1], shapespace._fps_order_table())
print(json.dumps([t for t in {_AVX512_ON!r} if __cpu_features__.get(t)]))
"""


class TestShapeGrid:
    def test_default_grid(self):
        grid = sk.default_grid()
        assert grid.n_categories == 25
        assert grid.eps1_values == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_default_grid_is_one_frozen_instance(self):
        grid = sk.default_grid()
        assert sk.default_grid() is grid
        assert grid.eps2_values == grid.eps1_values
        with pytest.raises(AttributeError):
            grid.eps1_values = (0.0, 1.0)

    def test_row_major_ids(self):
        grid = sk.default_grid()
        cat = grid.category(12)
        assert (cat.eps1, cat.eps2) == (0.5, 0.5)
        assert [c.id for c in grid.categories()] == list(range(25))

    def test_validation(self):
        with pytest.raises(ValueError):
            sk.ShapeGrid((0.0,), (0.0, 1.0))
        with pytest.raises(ValueError):
            sk.ShapeGrid((0.0, 1.5), (0.0, 1.0))
        with pytest.raises(ValueError):
            sk.ShapeGrid((0.5, 0.5), (0.0, 1.0))
        with pytest.raises(ValueError):
            sk.default_grid().category(25)

    @pytest.mark.parametrize("category_id", [2.5, np.float64(3.9), 2.0, "3", None])
    def test_rejects_non_integral_ids(self, category_id):
        with pytest.raises(ValueError, match="must be an integer"):
            sk.default_grid().category(category_id)

    def test_numpy_integer_ids(self):
        cat = sk.default_grid().category(np.int64(12))
        assert cat == sk.default_grid().category(12)
        assert type(cat.id) is int


class TestCategorize:
    def test_corner_nodes(self):
        grid = sk.default_grid()
        assert sk.categorize(0.0, 0.0, grid) == 0
        assert sk.categorize(1.0, 1.0, grid) == 24

    def test_nearest_node(self):
        assert sk.categorize(0.6, 0.4, sk.default_grid()) == 12

    def test_idempotent_on_nodes(self):
        grid = sk.default_grid()
        for cat in grid.categories():
            assert sk.categorize(cat.eps1, cat.eps2, grid) == cat.id

    def test_ties_to_lower_id(self):
        # equidistant between (0, 0) and (0, 0.25)
        assert sk.categorize(0.0, 0.125, sk.default_grid()) == 0

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            sk.categorize(0.5, 1.2, sk.default_grid())

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sk.categorize(-0.1, 0.5, sk.default_grid())
        with pytest.raises(ValueError):
            sk.categorize(2.1, 0.5, sk.default_grid())

    @settings(max_examples=500)
    @given(st.data())
    def test_matches_numpy_formulation(self, data):
        """The nearest node as an argmin over the broadcast (e1 - eps1)**2 + (e2 - eps2)**2."""
        values = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=7, unique=True).map(sorted)
        grid = data.draw(st.just(sk.default_grid())
                         | st.builds(sk.ShapeGrid, values, values), label="grid")
        e1, e2 = np.array(grid.eps1_values), np.array(grid.eps2_values)
        # nodes, and exact midpoints between neighbouring nodes, tie on purpose
        mids1 = (e1[:-1] + e1[1:]) / 2.0
        mids2 = (e2[:-1] + e2[1:]) / 2.0
        eps1 = data.draw(st.floats(0.0, 2.0) | st.sampled_from(np.r_[e1, mids1].tolist()))
        eps2 = data.draw(st.floats(0.0, 1.0) | st.sampled_from(np.r_[e2, mids2].tolist()))
        d2 = (e1[:, None] - eps1) ** 2 + (e2[None, :] - eps2) ** 2
        assert sk.categorize(eps1, eps2, grid) == int(np.argmin(d2.ravel()))


class TestTemplatePoints:
    def test_sphere_template_norms(self):
        cat = sk.ShapeCategory(0, 1.0, 1.0)
        pts = sk.template_points(cat, n=256)
        npt.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-6)

    def test_full_template_equals_dense_sample(self):
        cat = sk.ShapeCategory(0, 0.5, 0.5)
        dense = sk.template_points(cat, n=shapespace.DENSE_SAMPLE_SIZE)
        assert dense.shape == (shapespace.DENSE_SAMPLE_SIZE, 3)
        assert len(np.unique(dense, axis=0)) == shapespace.DENSE_SAMPLE_SIZE

    def test_template_is_subset_of_dense_sample(self):
        cat = sk.ShapeCategory(0, 0.25, 0.75)
        unit = sk.Superquadric(0.25, 0.75, np.ones(3))
        dense = sk.sample_surface(unit, shapespace.DENSE_SAMPLE_SIZE, seed=0)
        tpl = sk.template_points(cat, n=64)
        rows = {tuple(r) for r in dense}
        assert all(tuple(p) in rows for p in tpl)

    def test_exponents_floored(self):
        cat = sk.ShapeCategory(0, 0.0, 0.0)
        pts = sk.template_points(cat, n=64)
        assert np.all(np.isfinite(pts))

    def test_deterministic(self):
        cat = sk.ShapeCategory(3, 0.5, 0.25)
        # above the stored picks, so both run greedy FPS
        a = sk.template_points(cat, n=513)
        b = sk.template_points(cat, n=513)
        assert np.array_equal(a, b)

    def test_n_larger_than_dense_rejected(self):
        with pytest.raises(ValueError):
            sk.template_points(sk.ShapeCategory(0, 0.5, 0.5), n=shapespace.DENSE_SAMPLE_SIZE + 1)


NODE = sk.default_grid().category(13)  # (0.5, 0.75)


class TestStoredFpsOrder:
    """The shipped FPS orders of the default-grid templates, and when they are used."""

    def test_table_is_the_generator_output(self):
        buf = io.BytesIO()
        np.save(buf, shapespace._fps_order_table())
        assert buf.getvalue() == shapespace._FPS_ORDER_PATH.read_bytes()

    @pytest.mark.skipif(not _AVX512_ON, reason="numpy dispatches no AVX-512 target here")
    def test_table_is_the_generator_output_on_the_avx2_route(self, tmp_path):
        """The dense samples' powers differ in the last bits between numpy's
        AVX-512 and AVX2 kernels; the rebuilt table must not."""
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_AVX512_ON))
        path = tmp_path / "table.npy"
        proc = subprocess.run([sys.executable, "-c", _REBUILD_TABLE, str(path)],
                              env=env, capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == []
        assert path.read_bytes() == shapespace._FPS_ORDER_PATH.read_bytes()

    @pytest.mark.parametrize("category, n, stored", [
        (NODE, 513, False),
        (sk.ShapeCategory(13, 0.3, 0.6), 512, False),
        (sk.ShapeGrid((0.0, 0.5, 1.0), (0.0, 0.75)).category(3), 512, True),
        (sk.ShapeGrid((0.0, 0.5, 1.0), (0.0, 0.75)).category(1), 100, True),
    ], ids=["n_513", "off_node", "custom_grid_node", "custom_grid_floored_node"])
    def test_matches_full_pass(self, category, n, stored):
        unit = sk.Superquadric(max(category.eps1, sk.EPS_MIN), max(category.eps2, sk.EPS_MIN),
                               np.ones(3))
        dense = sk.sample_surface(unit, shapespace.DENSE_SAMPLE_SIZE, 0)
        with mock.patch.object(shapespace, "farthest_point_sample",
                               wraps=sk.farthest_point_sample) as fps:
            got = sk.template_points(category, n=n)
        assert fps.called != stored
        npt.assert_array_equal(got, dense[fps_full_pass(dense, n, 0)])


class TestStoredTemplates:
    """Stored-order templates sample only the points they keep, to the dense sample's bits."""

    @pytest.mark.parametrize("n", [1, 100, 512])
    def test_every_default_node_without_fps_or_dense_sample(self, n):
        orders = np.load(shapespace._FPS_ORDER_PATH)
        expected = []
        for cat in sk.default_grid().categories():
            unit = sk.Superquadric(max(cat.eps1, sk.EPS_MIN), max(cat.eps2, sk.EPS_MIN),
                                   np.ones(3))
            expected.append(sk.sample_surface(unit, shapespace.DENSE_SAMPLE_SIZE, 0)
                            [orders[cat.id, :n]])
        with mock.patch.object(shapespace, "farthest_point_sample",
                               wraps=sk.farthest_point_sample) as fps, \
                mock.patch.object(shapespace, "sample_surface", wraps=sk.sample_surface) as dense:
            got = [sk.template_points(cat, n=n) for cat in sk.default_grid().categories()]
        assert not fps.called and not dense.called
        for g, e in zip(got, expected):
            assert g.shape == (n, 3)
            assert g.tobytes() == e.tobytes()

    def test_stored_indices_follow_the_keep_rule_on_a_partial_grid(self):
        """Stored indices index the dense sample, not the grid, when the grid has
        more cells than the sample keeps (1,000 points on 23 x 45 cells)."""
        cat = sk.default_grid().category(7)
        unit = sk.Superquadric(cat.eps1, cat.eps2, np.ones(3))
        order = np.random.default_rng(3).permutation(1000)[:64].astype(np.int16)
        with mock.patch.object(shapespace, "DENSE_SAMPLE_SIZE", 1000), \
                mock.patch.object(shapespace, "_stored_fps_orders",
                                  lambda: {(cat.eps1, cat.eps2): order}):
            got = sk.template_points(cat, n=64)
        assert got.tobytes() == sk.sample_surface(unit, 1000, 0)[order].tobytes()


def _pairwise_gaps(a, b):
    """Largest entry difference between every matrix of stack a and of stack b."""
    return np.abs(a[:, None] - b[None, :]).max(axis=(2, 3))


class TestSymmetryGroup:
    def test_unequal_radial_scales_get_order8_group(self):
        # The group is the unit-scale shape's: the scales do not enter.
        sq = sk.Superquadric(0.3, 0.7, np.array([1.0, 2.0, 3.0]))
        group = sk.symmetry_group(sq)
        assert group.rotations.shape == (8, 3, 3)
        assert group is sk.symmetry_group(sk.Superquadric(0.3, 0.7, np.ones(3)))

    def test_equal_radial_scales_add_quarter_turn(self):
        sq = sk.Superquadric(0.5, 0.2, np.array([1.0, 1.0, 3.0]))
        group = sk.symmetry_group(sq)
        assert group.rotations.shape == (8, 3, 3)
        assert _pairwise_gaps(group.rotations, rotation_about_z(np.pi / 2)[None]).min() <= 1e-12

    def test_circular_cross_section_gets_continuous_axis(self):
        sq = sk.Superquadric(0.5, 1.0, np.array([1.0, 1.0, 3.0]))
        group = sk.symmetry_group(sq)
        assert group.rotations.shape == (72, 3, 3)
        # every 10-degree spin about z is present
        spins = np.array([rotation_about_z(2.0 * np.pi * k / 36) for k in range(36)])
        assert _pairwise_gaps(spins, group.rotations).min(axis=1).max() <= 1e-12

    def test_identity_always_present(self):
        for scale, eps2 in (([1.0, 2.0, 3.0], 0.7), ([1.0, 1.0, 3.0], 0.7),
                            ([1.0, 1.0, 3.0], 1.0)):
            group = sk.symmetry_group(sk.Superquadric(0.3, eps2, np.array(scale)))
            npt.assert_array_equal(group.rotations[0], np.eye(3))

    def test_closed_under_composition(self):
        for scale, eps2 in (([1.0, 2.0, 3.0], 0.6), ([1.0, 1.0, 3.0], 0.6),
                            ([1.0, 1.0, 3.0], 1.0)):
            R = sk.symmetry_group(sk.Superquadric(0.4, eps2, np.array(scale))).rotations
            products = (R[:, None] @ R[None, :]).reshape(-1, 3, 3)
            assert _pairwise_gaps(products, R).min(axis=1).max() <= 1e-9

    def test_no_duplicates(self):
        for eps2 in (0.6, 1.0):
            R = sk.symmetry_group(sk.Superquadric(0.4, eps2, np.array([1.0, 1.0, 2.0]))).rotations
            gaps = _pairwise_gaps(R, R) + np.eye(len(R))
            assert gaps.min() > 1e-9

    @pytest.mark.parametrize("e", [0.1, 0.4, 0.7])
    def test_equal_exponents_get_the_cube_group(self, e):
        # |x|^(2/e) + |y|^(2/e) + |z|^(2/e) = 1 is unchanged by every signed
        # axis permutation: 24 of them have det +1, order 8 first, then the
        # order-8 group times the cycle x -> y -> z -> x and times its inverse.
        flips = np.array([np.diag(d) for d in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))],
                         dtype=float)
        quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        order8 = np.concatenate([flips, flips @ quarter])
        cube = np.concatenate([order8, order8 @ _CYCLE, order8 @ _CYCLE.T])
        group = sk.symmetry_group(sk.Superquadric(e, e, np.array([0.05, 0.08, 0.12])))
        assert group.rotations.tobytes() == cube.tobytes()
        assert group is sk.symmetry_group(sk.Superquadric(e, e, np.ones(3)))
        assert group._gather is not None
        R = group.rotations
        products = (R[:, None] @ R[None, :]).reshape(-1, 3, 3)
        assert _pairwise_gaps(products, R).min(axis=1).max() == 0.0
        assert (_pairwise_gaps(R, R) + np.eye(24)).min() > 0.5
        unit = sk.Superquadric(e, e, np.ones(3))
        template = sk.sample_surface(unit, 512, seed=0)
        for S in R:
            npt.assert_array_less(np.abs(sk.inside_outside(unit, template @ S.T) - 1.0), 1e-13)

    @pytest.mark.parametrize("cycle", ["forward", "backward"])
    def test_exact_cyclic_relabel_scores_zero(self, cycle):
        # (a, b, c, R) -> (c, a, b, R @ C.T) and (b, c, a, R @ C) place one surface.
        q = np.array([0.9, 0.3, -0.2, 0.1]) / np.linalg.norm([0.9, 0.3, -0.2, 0.1])
        gt = sk.Superquadric(0.5, 0.5, np.array([0.05, 0.08, 0.12]), q, np.array([0.02, 0.0, 0.8]))
        P = _CYCLE.T if cycle == "forward" else _CYCLE
        est = sk.PoseHypothesis(gt.rotation_matrix @ P @ np.diag(P.T @ gt.scale), gt.translation)
        pose = sk.record_from_superquadric(gt).pose()
        grid = sk.default_grid()
        template = sk.template_points(grid.category(sk.categorize(0.5, 0.5, grid)))
        assert sk.mssd(est, pose, template, sk.symmetry_group(gt)) <= 1e-9
        order8 = sk.symmetry_group(sk.Superquadric(0.5, 0.6, np.ones(3)))
        assert sk.mssd(est, pose, template, order8) > 0.01

    def test_group_choice_follows_the_exponents(self):
        def size(eps1, eps2, rel_tol=1e-3):
            sq = sk.Superquadric(eps1, eps2, np.array([0.05, 0.08, 0.12]))
            return len(sk.symmetry_group(sq, rel_tol).rotations)
        # revolution whatever eps1, the sphere included; then the cube within rel_tol
        assert size(0.4, 1.0) == size(1.0, 1.0) == size(0.9995, 0.9995) == 72
        assert size(0.5, 0.5) == size(0.5, 0.5005) == size(0.5005, 0.5) == 24
        assert size(0.5, 0.5006) == size(0.5006, 0.5) == 8
        assert size(0.5, 0.5, 0.0) == 24 and size(0.5, 0.5 + 1e-12, 0.0) == 8

    def test_rotations_are_read_only(self):
        group = sk.symmetry_group(sk.Superquadric(0.4, 0.6, np.array([1.0, 2.0, 3.0])))
        with pytest.raises(ValueError):
            group.rotations[0, 0, 0] = 2.0

    def test_signed_permutations_get_a_gather_index(self):
        # The metrics gather S x by this index: row j of S_i x is row
        # _gather[j, i] of [x, y, z, -x, -y, -z].
        cycle = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        near_flip = rotation_about_z(1e-12) @ np.diag([1.0, -1.0, -1.0])
        flips = np.array([np.diag(d) for d in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))],
                         dtype=float)
        order8 = sk.symmetry_group(sk.Superquadric(0.4, 0.7, np.array([1.0, 2.0, 3.0])))
        revolution = sk.symmetry_group(sk.Superquadric(0.4, 1.0, np.array([1.0, 1.0, 3.0])))
        x = np.random.default_rng(0).uniform(-1.0, 1.0, (3, 16))
        for group in (sk.SymmetryGroup(flips), order8,
                      sk.SymmetryGroup(np.array([np.eye(3), cycle, cycle @ cycle]))):
            gather = group._gather
            assert gather.shape == (3, len(group.rotations))
            assert not gather.flags.writeable
            npt.assert_array_equal(np.concatenate([x, -x])[gather],
                                   (group.rotations @ x).transpose(1, 0, 2))
        for group in (sk.SymmetryGroup(np.array([np.eye(3), near_flip])), revolution):
            assert group._gather is None

    def test_repeated_calls_give_the_closed_forms(self):
        flips = np.array([np.diag(d) for d in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))],
                         dtype=float)
        quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        order8 = np.concatenate([flips, flips @ quarter])
        revolution = np.concatenate([rotation_about_z(2.0 * np.pi * k / 36) @ order8
                                     for k in range(9)])
        for scale, eps2, closed in (([1.0, 2.0, 3.0], 0.7, order8),
                                    ([1.0, 1.0, 3.0], 0.7, order8),
                                    ([1.0, 1.0, 3.0], 1.0, revolution)):
            sq = sk.Superquadric(0.4, eps2, np.array(scale))
            for _ in range(3):
                R = sk.symmetry_group(sq).rotations
                assert not R.flags.writeable
                assert R.shape == closed.shape
                assert R.tobytes() == closed.tobytes()

    def test_rejects_malformed_stack(self):
        flip = np.diag([1.0, -1.0, -1.0])
        for bad in (np.zeros((0, 3, 3)), np.eye(3), np.zeros((2, 3, 2)),
                    np.array([np.eye(3), np.full((3, 3), np.nan)]),
                    np.array([np.eye(3), -np.eye(3)]),  # improper
                    np.array([np.eye(3), 2.0 * flip])):  # not orthonormal
            with pytest.raises(ValueError):
                sk.SymmetryGroup(bad)
        assert sk.SymmetryGroup(np.array([np.eye(3), flip])).rotations.shape == (2, 3, 3)

    def test_symmetries_preserve_surface(self):
        # What the metrics rely on: S acts on the unit template before the
        # scale, so the poses M and M @ S place one surface, ax != ay included.
        rng = np.random.default_rng(3)
        for scale in ([0.03, 0.07, 0.11], [0.04, 0.04, 0.09], [0.08, 0.05, 0.12]):
            e1, e2 = rng.uniform(0.1, 1.0, 2)
            for eps2 in (e2, 1.0):
                sq = sk.Superquadric(e1, eps2, np.array(scale))
                template = sk.sample_surface(sk.Superquadric(e1, eps2, np.ones(3)), 256, seed=0)
                for S in sk.expand_symmetries(sk.symmetry_group(sq)):
                    f = sk.inside_outside(sq, (template @ S.T) * sq.scale)
                    npt.assert_array_less(np.abs(f - 1.0), 1e-6)

    def test_rejects_non_canonical(self):
        sq = sk.Superquadric(0.5, 1.5, np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            sk.symmetry_group(sq)

    @pytest.mark.parametrize("rel_tol", [np.nan, np.inf, -np.inf, -1e-3])
    def test_rejects_bad_tolerance(self, rel_tol):
        # a NaN tolerance failed both comparisons and gave the 72-element group
        sq = sk.Superquadric(0.4, 0.5, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="rel_tol"):
            sk.symmetry_group(sq, rel_tol=rel_tol)

    def test_zero_tolerance_needs_exact_equality(self):
        assert len(sk.symmetry_group(sk.Superquadric(0.4, 1.0, np.ones(3)), 0.0).rotations) == 72
        sq = sk.Superquadric(0.4, 1.0 - 1e-12, np.ones(3))
        assert len(sk.symmetry_group(sq, rel_tol=0.0).rotations) == 8


class TestExpandSymmetries:
    def test_identity_group(self):
        mats = sk.expand_symmetries(sk.SymmetryGroup(np.eye(3)[None]))
        assert len(mats) == 1
        npt.assert_allclose(mats[0], np.eye(3))

    def test_continuous_expansion_count(self):
        sq = sk.Superquadric(0.5, 1.0, np.array([1.0, 1.0, 3.0]))
        mats = sk.expand_symmetries(sk.symmetry_group(sq))
        # 36 spins about z, each with and without an x-flip
        assert len(mats) == 72

    def test_matrices_are_rotations(self):
        sq = sk.Superquadric(0.5, 0.3, np.array([1.0, 1.0, 3.0]))
        for S in sk.expand_symmetries(sk.symmetry_group(sq)):
            npt.assert_allclose(S.T @ S, np.eye(3), atol=1e-12)
            npt.assert_allclose(np.linalg.det(S), 1.0, atol=1e-12)
