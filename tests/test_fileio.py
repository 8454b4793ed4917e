"""File formats: ASCII PLY, JSON parameter records, synthetic clouds."""

import json

import numpy as np
import numpy.testing as npt
import pytest

import sqkit as sk
from conftest import random_superquadric


class TestWritePly:
    def test_single_point(self):
        data = sk.write_ply(np.array([[0.0, 0.0, 0.0]]))
        lines = data.decode().splitlines()
        assert lines[0] == "ply"
        assert "element vertex 1" in lines
        assert lines[-1] == "0 0 0"

    def test_deterministic(self):
        pts = np.random.default_rng(0).normal(size=(20, 3))
        assert sk.write_ply(pts) == sk.write_ply(pts)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            sk.write_ply(np.zeros((0, 3)))

    @pytest.mark.parametrize("value", [1e39, -1e39, 1e308])
    def test_coordinate_beyond_float32_rejected(self, value):
        # the file declares `property float`; such a row would read back as inf
        with pytest.raises(ValueError, match="float32"):
            sk.write_ply(np.array([[0.0, 0.0, 0.0], [0.0, value, 0.0]]))

    def test_float32_max_round_trips(self):
        top = float(np.finfo(np.float32).max)
        pts = np.array([[top, -top, 0.0]])
        assert np.array_equal(sk.parse_ply(sk.write_ply(pts)), pts)


class TestParsePly:
    def test_round_trip(self):
        # float32-representable values survive write/parse exactly
        pts = np.random.default_rng(1).normal(size=(64, 3)).astype(np.float32).astype(float)
        out = sk.parse_ply(sk.write_ply(pts))
        npt.assert_array_equal(out, pts)

    def test_write_is_stable_after_parse(self):
        pts = np.random.default_rng(2).normal(size=(32, 3))
        first = sk.write_ply(pts)
        assert sk.write_ply(sk.parse_ply(first)) == first

    def test_minimal_file(self):
        text = ("ply\nformat ascii 1.0\nelement vertex 2\n"
                "property float x\nproperty float y\nproperty float z\n"
                "end_header\n0 0 0\n1 2 3\n")
        out = sk.parse_ply(text)
        npt.assert_array_equal(out, [[0, 0, 0], [1, 2, 3]])

    def test_extra_properties_ignored(self):
        text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                "property float nx\nproperty float x\nproperty float y\n"
                "property float z\nproperty uchar red\n"
                "end_header\n9 1 2 3 255\n")
        npt.assert_array_equal(sk.parse_ply(text), [[1, 2, 3]])

    def test_missing_magic(self):
        with pytest.raises(sk.ParseError):
            sk.parse_ply("not a ply\n")

    def test_count_mismatch_reports_line(self):
        text = ("ply\nformat ascii 1.0\nelement vertex 3\n"
                "property float x\nproperty float y\nproperty float z\n"
                "end_header\n0 0 0\n1 1 1\n")
        with pytest.raises(sk.ParseError) as err:
            sk.parse_ply(text)
        assert err.value.line is not None

    def test_non_numeric_coordinate(self):
        text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                "property float x\nproperty float y\nproperty float z\n"
                "end_header\n0 zero 0\n")
        with pytest.raises(sk.ParseError) as err:
            sk.parse_ply(text)
        assert "line 8" in str(err.value)

    def test_binary_format_rejected(self):
        text = ("ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
                "property float x\nproperty float y\nproperty float z\n"
                "end_header\n")
        with pytest.raises(sk.ParseError):
            sk.parse_ply(text)

    def test_missing_xyz_properties(self):
        text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                "property float x\nproperty float y\nend_header\n0 0\n")
        with pytest.raises(sk.ParseError):
            sk.parse_ply(text)

    def test_trailing_content_rejected(self):
        text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                "property float x\nproperty float y\nproperty float z\n"
                "end_header\n0 0 0\nleftover\n")
        with pytest.raises(sk.ParseError):
            sk.parse_ply(text)


class TestParamsRecord:
    def _record(self):
        sq = random_superquadric(np.random.default_rng(3))
        return sk.record_from_superquadric(sq, shear=(0.001, 0.0, 0.002), category_id=7)

    def test_round_trip(self):
        rec = self._record()
        back = sk.parse_params(sk.write_params(rec))
        assert back.eps == rec.eps
        assert back.scale == rec.scale
        assert back.rotation == rec.rotation
        assert back.translation == rec.translation
        assert back.shear == rec.shear
        assert back.category_id == 7

    def test_optional_fields_omitted(self):
        sq = random_superquadric(np.random.default_rng(4))
        rec = sk.parse_params(sk.write_params(sk.record_from_superquadric(sq)))
        assert rec.shear is None and rec.category_id is None

    def test_euler_rotation_accepted(self):
        payload = {"schema_version": 1, "eps": [0.5, 0.5], "scale": [1, 1, 1],
                   "euler_xyz": [0.1, -0.2, 0.3], "translation": [0, 0, 0]}
        rec = sk.parse_params(json.dumps(payload))
        npt.assert_allclose(np.linalg.norm(rec.rotation), 1.0, atol=1e-12)
        sq = rec.to_superquadric()
        from sqkit.rotations import quat_from_euler_xyz, quat_to_matrix
        npt.assert_allclose(sq.rotation_matrix,
                            quat_to_matrix(quat_from_euler_xyz(0.1, -0.2, 0.3)),
                            atol=1e-12)

    def test_both_rotations_rejected(self):
        payload = {"schema_version": 1, "eps": [0.5, 0.5], "scale": [1, 1, 1],
                   "rotation": [1, 0, 0, 0], "euler_xyz": [0, 0, 0],
                   "translation": [0, 0, 0]}
        with pytest.raises(sk.ParseError):
            sk.parse_params(json.dumps(payload))

    def test_unnormalized_quaternion_normalized(self):
        payload = {"schema_version": 1, "eps": [0.5, 0.5], "scale": [1, 1, 1],
                   "rotation": [2, 0, 0, 0], "translation": [0, 0, 0]}
        rec = sk.parse_params(json.dumps(payload))
        assert rec.rotation == (1.0, 0.0, 0.0, 0.0)

    def test_unknown_field_ignored(self):
        payload = {"schema_version": 1, "eps": [0.5, 0.5], "scale": [1, 1, 1],
                   "rotation": [1, 0, 0, 0], "translation": [0, 0, 0],
                   "color": "red"}
        assert sk.parse_params(json.dumps(payload)).eps == (0.5, 0.5)

    def test_bad_schema_version(self):
        with pytest.raises(sk.ParseError):
            sk.parse_params(json.dumps({"schema_version": 99}))

    def test_invalid_parameters_rejected(self):
        payload = {"schema_version": 1, "eps": [0.5, 0.5], "scale": [1, -1, 1],
                   "rotation": [1, 0, 0, 0], "translation": [0, 0, 0]}
        with pytest.raises(sk.ParseError):
            sk.parse_params(json.dumps(payload))

    def test_invalid_json_reports_position(self):
        with pytest.raises(sk.ParseError):
            sk.parse_params("{not json")

    @pytest.mark.parametrize("field, value", [("eps", [True, 0.5]), ("scale", [1, True, 1]),
                                              ("category_id", True)])
    def test_booleans_are_not_numbers(self, field, value):
        payload = {"schema_version": 1, "eps": [0.5, 0.5], "scale": [1, 1, 1],
                   "rotation": [1, 0, 0, 0], "translation": [0, 0, 0], field: value}
        with pytest.raises(sk.ParseError):
            sk.parse_params(json.dumps(payload))

    def test_integer_beyond_float_range_rejected(self):
        text = ('{"schema_version": 1, "eps": [0.5, 0.5], "scale": [1, 1, 1%s],'
                ' "rotation": [1, 0, 0, 0], "translation": [0, 0, 0]}' % ("0" * 400))
        with pytest.raises(sk.ParseError):
            sk.parse_params(text)


class TestGenSynthetic:
    def test_noiseless_full_view_on_surface(self):
        sq = random_superquadric(np.random.default_rng(5))
        pts = sk.gen_synthetic(sq, sk.GenConfig(n_points=500, seed=1))
        local = sq.world_to_local(pts)
        npt.assert_array_less(np.abs(sk.inside_outside(sq, local) - 1.0), 1e-6)

    def test_visible_fraction_count(self):
        sq = random_superquadric(np.random.default_rng(6))
        pts = sk.gen_synthetic(sq, sk.GenConfig(n_points=1000, visible_fraction=0.5, seed=2))
        assert pts.shape == (500, 3)

    def test_deterministic(self):
        sq = random_superquadric(np.random.default_rng(7))
        cfg = sk.GenConfig(n_points=400, noise_sigma=0.002, visible_fraction=0.7, seed=3)
        assert np.array_equal(sk.gen_synthetic(sq, cfg), sk.gen_synthetic(sq, cfg))

    def test_noise_magnitude(self):
        sq = sk.Superquadric(1.0, 1.0, np.full(3, 0.05))
        clean = sk.gen_synthetic(sq, sk.GenConfig(n_points=2000, seed=4))
        noisy = sk.gen_synthetic(sq, sk.GenConfig(n_points=2000, noise_sigma=0.001, seed=4))
        spread = np.std(noisy - clean)
        assert 0.0005 < spread < 0.002

    def test_occlusion_removes_one_side(self):
        sq = sk.Superquadric(1.0, 1.0, np.full(3, 0.05))
        pts = sk.gen_synthetic(sq, sk.GenConfig(n_points=2000, visible_fraction=0.4, seed=5))
        # a half-space cut leaves a cloud clearly off-center
        assert np.linalg.norm(pts.mean(axis=0) - sq.translation) > 0.01

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sk.GenConfig(n_points=0)
        with pytest.raises(ValueError):
            sk.GenConfig(noise_sigma=-0.1)
        for sigma in (np.nan, np.inf):
            with pytest.raises(ValueError):
                sk.GenConfig(noise_sigma=sigma)
        with pytest.raises(ValueError):
            sk.GenConfig(visible_fraction=0.0)
        with pytest.raises(ValueError):
            sk.GenConfig(visible_fraction=1.5)
