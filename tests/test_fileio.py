"""File formats: ASCII PLY, JSON parameter records, synthetic clouds."""

import json
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqkit as sk
from sqkit import fileio
from conftest import ply_body_oracle, random_superquadric


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


HEADER = ("ply\nformat ascii 1.0\nelement vertex {n}\n"
          "property float x\nproperty float y\nproperty float z\nend_header\n")


def _body(data):
    return data.split(b"end_header\n", 1)[1]


def _as_points(values):
    """float32 values, zero-padded to whole points, as an (n, 3) float64 cloud."""
    values = np.asarray(values, dtype=np.float32)
    values = np.concatenate([values, np.zeros(-len(values) % 3, np.float32)])
    return values.astype(float).reshape(-1, 3)


def _powers_of_two():
    powers = np.ldexp(np.float32(1.0), np.arange(-149, 128))
    return np.concatenate([powers, np.nextafter(powers, np.float32(0.0)),
                           np.nextafter(powers, np.float32(np.inf))])


def _powers_of_ten():
    with np.errstate(over="ignore"):
        nearest = np.array([10.0 ** e for e in range(-45, 39)]).astype(np.float32)
    values = np.concatenate([nearest, np.nextafter(nearest, np.float32(0.0)),
                             np.nextafter(nearest, np.float32(np.inf))])
    return np.concatenate([values, -values])


def _decimal_ties():
    # odd multiples of 2**-6: from 128 up, many lie halfway between two shortest decimals
    halves = (np.arange(1, 2 ** 17, 2) / 64.0).astype(np.float32)
    return np.concatenate([halves, -halves, [-503.765625]])


_F32 = np.finfo(np.float32)
VALUE_SETS = {
    "random_bits": lambda: (np.random.default_rng(20261018)
                            .integers(0, 2 ** 32, size=10 ** 6, dtype=np.uint64)
                            .astype(np.uint32).view(np.float32)),
    "powers_of_two": _powers_of_two,
    "specials": lambda: np.array([0.0, -0.0, _F32.max, -_F32.max, _F32.tiny, -_F32.tiny,
                                  _F32.smallest_subnormal, -_F32.smallest_subnormal],
                                 np.float32),
    "powers_of_ten": _powers_of_ten,
    "decimal_ties": _decimal_ties,
}


class TestWritePlyOracle:
    """`write_ply` bodies equal the per-value Dragon4 oracle byte for byte."""

    @pytest.mark.parametrize("name", sorted(VALUE_SETS))
    def test_matches_oracle(self, name):
        values = VALUE_SETS[name]()
        pts = _as_points(values[np.isfinite(values)])
        assert _body(sk.write_ply(pts)) == ply_body_oracle(pts)

    @staticmethod
    def _count_fallbacks(monkeypatch, pts):
        calls = []
        per_value = fileio._fmt_float32
        monkeypatch.setattr(fileio, "_fmt_float32", lambda v: calls.append(v) or per_value(v))
        assert _body(sk.write_ply(pts)) == ply_body_oracle(pts)
        return len(calls)

    def test_ties_take_the_per_value_fallback(self, monkeypatch):
        pts = _as_points(_decimal_ties())
        assert 0 < self._count_fallbacks(monkeypatch, pts) < pts.size

    def test_sampled_cloud_needs_no_fallback(self, monkeypatch):
        sq = random_superquadric(np.random.default_rng(8))
        pts = sk.gen_synthetic(sq, sk.GenConfig(n_points=2000, noise_sigma=0.001, seed=8))
        assert self._count_fallbacks(monkeypatch, pts) == 0


_float32s = st.floats(width=32, allow_nan=False, allow_infinity=False)
_clouds = st.lists(st.tuples(_float32s, _float32s, _float32s), min_size=1, max_size=40)
# Deterministic: the same examples on every run, and no example database.
ply_settings = settings(derandomize=True, database=None, deadline=None, max_examples=300)


class TestPlyProperties:
    @ply_settings
    @given(_clouds)
    def test_write_parse_write_is_byte_stable(self, rows):
        pts = np.array(rows, dtype=float)
        first = sk.write_ply(pts)
        assert _body(first) == ply_body_oracle(pts)
        back = sk.parse_ply(first)
        assert back.tobytes() == pts.tobytes()
        assert sk.write_ply(back) == first


def _loop_only(monkeypatch):
    monkeypatch.setattr(fileio, "_vertex_rows_fast", lambda *args: None)


class TestPlyErrors:
    def test_bare_property_line(self):
        text = ("ply\nformat ascii 1.0\nelement vertex 1\nproperty\n"
                "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n")
        with pytest.raises(sk.ParseError) as err:
            sk.parse_ply(text)
        assert err.value.line == 4

    def test_list_property_in_vertex_element(self):
        # a list spans a count plus that many tokens, so x, y, z have no column
        text = ("ply\nformat ascii 1.0\nelement vertex 2\nproperty list uchar float n\n"
                "property float x\nproperty float y\nproperty float z\nend_header\n"
                "2 7 8 1 2 3\n2 7 8 4 5 6\n")
        with pytest.raises(sk.ParseError, match="list") as err:
            sk.parse_ply(text)
        assert err.value.line == 4

    def test_list_property_in_face_element_is_skipped(self):
        text = (HEADER.format(n=3).replace("end_header\n", "element face 1\n"
                "property list uchar int vertex_indices\nend_header\n")
                + "1 2 3\n0 0 0\n0 1 0\n3 0 1 2\n")
        npt.assert_array_equal(sk.parse_ply(text), [[1, 2, 3], [0, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize("row_loop", [False, True], ids=["fast", "row_loop"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_reported_on_its_row_without_warning(self, monkeypatch, token, row_loop):
        if row_loop:
            _loop_only(monkeypatch)
        text = HEADER.format(n=4) + f"0 0 0\n1 1 1\n2 {token} 2\n3 3 3\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sk.ParseError, match="non-finite") as err:
                sk.parse_ply(text)
        assert err.value.line == 10


_MUTATION_CHARS = list("0123456789.-+eE \t\n\rnaif_x#,") + ["\x0b", "\x0c", "\x1c", "\x1f", "\x00"]
_MUTATION_TOKENS = ["nan", "-inf", "1e39", "1_0", "+.5", "5.", "0x10", "1e",
                    "1.0000001788139343261718749", "1.5e-50", "١", " "]


def _mutate(text, rng):
    body_start = text.index("end_header\n") + len("end_header\n")
    pos = int(rng.integers(body_start, len(text) + 1))
    kind = rng.integers(5)
    if kind == 0:
        return text[:pos] + str(rng.choice(_MUTATION_CHARS)) + text[pos + 1:]
    if kind == 1:
        return text[:pos] + str(rng.choice(_MUTATION_CHARS)) + text[pos:]
    if kind == 2:
        return text[:pos] + text[pos + 1:]
    if kind == 3:
        return text[:pos] + str(rng.choice(_MUTATION_TOKENS)) + text[pos:]
    lines = text.splitlines(keepends=True)
    i = int(rng.integers(len(lines)))
    return "".join(lines[:i] + [lines[i]] + lines[i:])


def _outcome(text):
    try:
        pts = sk.parse_ply(text)
    except sk.ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("points", pts.shape, pts.tobytes())


class TestFastParse:
    """The one-call vertex parse agrees with the row loop it falls back to."""

    def _files(self, rng):
        for n in (1, 2, 5, 17):
            pts = rng.normal(scale=10.0 ** rng.integers(-3, 3), size=(n, 3))
            yield sk.write_ply(pts).decode("ascii")
            # extra properties around x, y, z
            rows = "".join(f"{a:.6g} {x!r} {y!r} {z!r} 255\n"
                           for a, (x, y, z) in zip(rng.normal(size=n), pts))
            yield ("ply\nformat ascii 1.0\nelement vertex %d\nproperty float nx\n"
                   "property float x\nproperty float y\nproperty float z\n"
                   "property uchar red\nend_header\n%s" % (n, rows))

    def test_matches_row_loop_on_mutated_files(self, monkeypatch):
        rng = np.random.default_rng(9)
        used_fast = []
        fast = fileio._vertex_rows_fast

        def recording(*args):
            pts = fast(*args)
            used_fast.append(pts is not None)
            return pts

        monkeypatch.setattr(fileio, "_vertex_rows_fast", recording)
        cases = [_mutate(text, rng) for text in self._files(rng) for _ in range(150)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [_outcome(text) for text in cases]
        _loop_only(monkeypatch)
        for text, result in zip(cases, results):
            assert result == _outcome(text), repr(text)
        # both paths were taken
        assert any(used_fast) and not all(used_fast)


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
        with pytest.raises(ValueError, match="keeps no point"):
            sk.GenConfig(n_points=4, visible_fraction=0.1)
