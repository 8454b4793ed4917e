"""Shape grid, categorization, templates, and symmetry groups."""

import io
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest

import sqkit as sk
from conftest import fps_full_pass
from sqkit import shapespace
from sqkit.rotations import rotation_about_z


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


class TestTemplatePoints:
    def test_sphere_template_norms(self):
        cat = sk.ShapeCategory(0, 1.0, 1.0)
        pts = sk.template_points(cat, n=256, dense_n=2048)
        npt.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-6)

    def test_full_template_equals_dense_sample(self):
        cat = sk.ShapeCategory(0, 0.5, 0.5)
        dense = sk.template_points(cat, n=512, dense_n=512)
        assert dense.shape == (512, 3)
        assert len(np.unique(dense, axis=0)) == 512

    def test_template_is_subset_of_dense_sample(self):
        cat = sk.ShapeCategory(0, 0.25, 0.75)
        unit = sk.Superquadric(0.25, 0.75, np.ones(3))
        dense = sk.sample_surface(unit, 1024, seed=0)
        tpl = sk.template_points(cat, n=64, dense_n=1024)
        rows = {tuple(r) for r in dense}
        assert all(tuple(p) in rows for p in tpl)

    def test_exponents_floored(self):
        cat = sk.ShapeCategory(0, 0.0, 0.0)
        pts = sk.template_points(cat, n=64, dense_n=256)
        assert np.all(np.isfinite(pts))

    def test_deterministic(self):
        cat = sk.ShapeCategory(3, 0.5, 0.25)
        a = sk.template_points(cat, n=128, dense_n=512, seed=4)
        b = sk.template_points(cat, n=128, dense_n=512, seed=4)
        assert np.array_equal(a, b)

    def test_n_larger_than_dense_rejected(self):
        with pytest.raises(ValueError):
            sk.template_points(sk.ShapeCategory(0, 0.5, 0.5), n=100, dense_n=50)


NODE = sk.default_grid().category(13)  # (0.5, 0.75)


class TestStoredFpsOrder:
    """The shipped FPS orders of the default-grid templates, and when they are used."""

    def test_table_is_the_generator_output(self):
        buf = io.BytesIO()
        np.save(buf, shapespace._fps_order_table())
        assert buf.getvalue() == shapespace._FPS_ORDER_PATH.read_bytes()

    @pytest.mark.parametrize("category, n, dense_n, seed, stored", [
        (NODE, 513, 8192, 0, False),
        (NODE, 512, 8192, 1, False),
        (NODE, 512, 4096, 0, False),
        (sk.ShapeCategory(13, 0.3, 0.6), 512, 8192, 0, False),
        (sk.ShapeGrid((0.0, 0.5, 1.0), (0.0, 0.75)).category(3), 512, 8192, 0, True),
        (sk.ShapeGrid((0.0, 0.5, 1.0), (0.0, 0.75)).category(1), 100, 8192, 0, True),
    ], ids=["n_513", "seed_1", "dense_4096", "off_node", "custom_grid_node",
            "custom_grid_floored_node"])
    def test_matches_full_pass(self, category, n, dense_n, seed, stored):
        unit = sk.Superquadric(max(category.eps1, sk.EPS_MIN), max(category.eps2, sk.EPS_MIN),
                               np.ones(3))
        dense = sk.sample_surface(unit, dense_n, seed)
        with mock.patch.object(shapespace, "farthest_point_sample",
                               wraps=sk.farthest_point_sample) as fps:
            got = sk.template_points(category, n=n, dense_n=dense_n, seed=seed)
        assert fps.called != stored
        npt.assert_array_equal(got, dense[fps_full_pass(dense, n, 0)])


def _pairwise_gaps(a, b):
    """Largest entry difference between every matrix of stack a and of stack b."""
    return np.abs(a[:, None] - b[None, :]).max(axis=(2, 3))


class TestSymmetryGroup:
    def test_generic_shape_gets_flip_group(self):
        sq = sk.Superquadric(0.3, 0.7, np.array([1.0, 2.0, 3.0]))
        group = sk.symmetry_group(sq)
        assert group.rotations.shape == (4, 3, 3)

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

    def test_rotations_are_read_only(self):
        group = sk.symmetry_group(sk.Superquadric(0.4, 0.6, np.array([1.0, 2.0, 3.0])))
        with pytest.raises(ValueError):
            group.rotations[0, 0, 0] = 2.0

    def test_repeated_calls_give_the_closed_forms(self):
        flips = np.array([np.diag(d) for d in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))],
                         dtype=float)
        quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        order8 = np.concatenate([flips, flips @ quarter])
        revolution = np.concatenate([rotation_about_z(2.0 * np.pi * k / 36) @ order8
                                     for k in range(9)])
        for scale, eps2, closed in (([1.0, 2.0, 3.0], 0.7, flips),
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
        rng = np.random.default_rng(3)
        for scale in ([0.03, 0.07, 0.11], [0.04, 0.04, 0.09]):
            e1, e2 = rng.uniform(0.1, 1.0, 2)
            sq = sk.Superquadric(e1, e2, np.array(scale))
            unit = sk.Superquadric(e1, e2, np.ones(3))
            template = sk.sample_surface(unit, 256, seed=0)
            scaled = template * sq.scale
            for S in sk.expand_symmetries(sk.symmetry_group(sq)):
                rotated = scaled @ S.T
                f = sk.inside_outside(sq, rotated)
                npt.assert_array_less(np.abs(f - 1.0), 1e-6)

    def test_rejects_non_canonical(self):
        sq = sk.Superquadric(0.5, 1.5, np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            sk.symmetry_group(sq)


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
