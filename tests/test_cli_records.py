"""Parameter records through the CLI: the surface a record stands for, the
files an error names, and a fuzz of records and flags.

A record places the unit-scale shape of its eps in the world by its pose,
rotation @ P(scale, shear) + translation (`ParamsRecord.pose`). `sample`
draws that surface and `eval` scores it; `gen` and `canon` read the record
as a `Superquadric`, which has no shear, and refuse a nonzero one.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqkit as sk
from sqkit.cli import main
from test_cli import SPHERE

# canon folds this record (eps2 > 1, ax != ay) into one with shear (-0.0128, 0, 0).
FOLDED_INPUT = {"schema_version": 1, "eps": [0.5, 1.5], "scale": [0.03, 0.06, 0.1],
                "rotation": [1.0, 0.0, 0.0, 0.0], "translation": [0.0, 0.0, 0.0]}
INTRINSICS = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0}


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _canon(tmp_path, record, name="canon.json"):
    out = tmp_path / name
    assert main(["canon", "--params", _write_json(tmp_path / f"raw_{name}", record),
                 "--output", str(out)]) == 0
    return str(out)


class TestSampleDrawsTheRecordsSurface:
    def test_folded_record_keeps_its_extents(self, tmp_path, capsys):
        canon = _canon(tmp_path, FOLDED_INPUT)
        assert sk.parse_params(Path(canon).read_bytes()).shear[0] < -0.01
        out = tmp_path / "s.ply"
        assert main(["sample", "--params", canon, "--n", "2000", "--output", str(out)]) == 0
        pts = sk.parse_ply(out.read_bytes())
        extent = pts.max(axis=0) - pts.min(axis=0)
        # the input's x and y extents are 2 ax and 2 ay; the unwarped twin has 0.091 m for both
        np.testing.assert_allclose(extent[:2], [0.06, 0.12], rtol=0.02)

    @pytest.mark.parametrize("command", ["gen", "canon"])
    @pytest.mark.parametrize("sheared", ["folded", "given"])
    def test_sheared_record_is_refused_without_file(self, tmp_path, capsys, command, sheared):
        if sheared == "folded":
            params = _canon(tmp_path, FOLDED_INPUT)
        else:
            params = _write_json(tmp_path / "s.json", dict(SPHERE, shear=[0.0, 0.0, 1e-9]))
        capsys.readouterr()
        out = tmp_path / "out"
        argv = [command, "--params", params, "--output", str(out)]
        assert main(argv + (["--n", "50"] if command == "gen" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sqkit: --params {params}: ") and "without shear" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "canon"])
    def test_zero_shear_is_accepted(self, tmp_path, capsys, command):
        params = _write_json(tmp_path / "z.json", dict(SPHERE, shear=[0.0, -0.0, 0.0]))
        argv = [command, "--params", params, "--output", str(tmp_path / "out")]
        assert main(argv + (["--n", "50"] if command == "gen" else [])) == 0


# 2**-24 is the largest relative rounding error of a float32 in the normal
# range (round to nearest); 2**-150 bounds the error below it.
_F32_REL, _F32_ABS = 2.0 ** -24, 2.0 ** -150
# A generous bound on the relative float64 error of the few products and sums
# behind one posed coordinate, one inverse-mapped coordinate and one radial distance.
_F64_REL = 2.0 ** -44


def _unit_shape_tolerance(pose, written):
    """Bound on the radial distance to the unit shape of each written point mapped back.

    Writing rounds each world coordinate p_i to float32, an error of at most
    2**-24 |p_i| + 2**-150, so at most 2**-24 |p| + sqrt(3) 2**-150 in norm;
    float64 posing adds at most _F64_REL (|t| + sqrt(3) |M|), since the
    unit shape lies in the cube [-1, 1]^3, |u| <= sqrt(3). M^-1 turns a world
    error e into at most e / sigma_min(M) in the unit frame, and mapping back
    in float64 adds at most _F64_REL sqrt(3) cond(M).
    The unit shape of exponents <= 2 is convex, holds the octahedron
    |x| + |y| + |z| <= 1 and so the ball of radius 1/sqrt(3), and lies in the
    cube. Its gauge g (g = 1 on the surface, degree-1 homogeneous) is then
    sqrt(3)-Lipschitz, and a point q = u + d with u on the surface has radial
    distance |q| |g(q) - 1| / g(q) <= (sqrt(3) + |d|) sqrt(3) |d| / (1 - sqrt(3) |d|).
    The factor 1.25 leaves room for the float64 error of the radial distance itself.
    """
    sigma = np.linalg.svd(pose.matrix, compute_uv=False)
    world = (_F32_REL * np.linalg.norm(written, axis=1) + math.sqrt(3) * _F32_ABS
             + _F64_REL * (np.linalg.norm(pose.translation) + math.sqrt(3) * sigma[0]))
    d = world / sigma[-1] + _F64_REL * math.sqrt(3) * sigma[0] / sigma[-1]
    assert d.max() < 0.1
    return 1.25 * (math.sqrt(3) + d) * math.sqrt(3) * d / (1.0 - math.sqrt(3) * d)


_exponent = st.floats(sk.EPS_MIN, 2.0)
_scale = st.lists(st.floats(1e-3, 10.0), min_size=3, max_size=3)
_quaternion = (st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
               .filter(lambda q: np.linalg.norm(q) > 0.1)
               .map(lambda q: list(np.array(q) / np.linalg.norm(q))))
_translation = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)


@st.composite
def _sample_inputs(draw):
    """(folded, record): an unsheared record (shear absent or 0), or a raw one that
    canon folds, with eps2 in (1, 2] and ax != ay."""
    folded = draw(st.booleans())
    eps2 = draw(st.floats(1.0, 2.0, exclude_min=True) if folded else _exponent)
    scale = draw(_scale.filter(lambda s: s[0] != s[1]) if folded else _scale)
    record = {"schema_version": 1, "eps": [draw(_exponent), eps2], "scale": scale,
              "rotation": draw(_quaternion), "translation": draw(_translation)}
    if not folded and draw(st.booleans()):
        record["shear"] = [0.0, 0.0, 0.0]
    return folded, record


class TestSampleProperties:
    @settings(max_examples=150)
    @given(_sample_inputs(), st.integers(1, 300))
    def test_points_map_back_onto_the_unit_shape(self, inputs, n):
        folded, raw = inputs
        with tempfile.TemporaryDirectory() as folder:
            params = os.path.join(folder, "params.json")
            Path(params).write_text(json.dumps(raw))
            with contextlib.redirect_stdout(io.StringIO()):
                if folded:
                    assert main(["canon", "--params", params, "--output", params]) == 0
                out = os.path.join(folder, "s.ply")
                assert main(["sample", "--params", params, "--n", str(n), "--output", out]) == 0
            record = sk.parse_params(Path(params).read_bytes())
            written = sk.parse_ply(Path(out).read_bytes())
        assert written.shape == (n, 3)
        if folded:
            assert any(record.shear)
        pose = record.pose()
        unit = sk.Superquadric(*record.eps, scale=np.ones(3))
        back = np.linalg.solve(pose.matrix, (written - pose.translation).T).T
        tolerance = _unit_shape_tolerance(pose, written)
        distance = sk.radial_distance(unit, back)
        assert np.all(distance <= tolerance), (distance / tolerance).max()


def _malformed(flag):
    return {
        "--input": "ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                   "property float y\nproperty float z\nend_header\n0 0 0\n",
        "--intrinsics": json.dumps({"fx": 500.0}),
    }.get(flag, json.dumps(dict(SPHERE, eps=[1.0])))


class TestErrorsNameTheirFile:
    @pytest.mark.parametrize("problem", ["malformed", "missing"])
    @pytest.mark.parametrize("command, flag", [
        ("fit", "--input"), ("sample", "--params"), ("canon", "--params"), ("gen", "--params"),
        ("eval", "--gt"), ("eval", "--est"), ("eval", "--intrinsics"),
    ])
    def test_message_starts_with_flag_and_path(self, tmp_path, capsys, command, flag, problem):
        sphere = _write_json(tmp_path / "sphere.json", SPHERE)
        files = {"--gt": sphere, "--est": sphere,
                 "--intrinsics": _write_json(tmp_path / "intr.json", INTRINSICS)}
        bad = tmp_path / f"bad{flag}"
        if problem == "malformed":
            bad.write_text(_malformed(flag))
        files[flag] = str(bad)
        argv = {
            "fit": ["fit", "--input", files.get("--input")],
            "sample": ["sample", "--params", files.get("--params"), "--n", "20"],
            "canon": ["canon", "--params", files.get("--params")],
            "gen": ["gen", "--params", files.get("--params"), "--n", "20"],
            "eval": ["eval", "--gt", files["--gt"], "--est", files["--est"],
                     "--intrinsics", files["--intrinsics"]],
        }[command]
        out = tmp_path / "out"
        assert main(argv + ["--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"sqkit: {flag} {bad}: "), err
        assert ("cannot read" in err[0]) is (problem == "missing")
        assert not out.exists()


# --- fuzz: documented flags and mutated records --------------------------------

_FOLDED = sk.canonicalize(sk.Superquadric(0.5, 1.5, np.array([0.03, 0.06, 0.1])))
_BASE_RECORDS = (
    SPHERE,
    {"schema_version": 1, "eps": [0.5, 0.75], "scale": [0.03, 0.05, 0.08],
     "rotation": list(np.array([0.9, 0.3, -0.2, 0.1]) / np.linalg.norm([0.9, 0.3, -0.2, 0.1])),
     "translation": [0.02, -0.03, 0.8], "category_id": 13},
    FOLDED_INPUT,
    json.loads(sk.write_params(sk.record_from_superquadric(
        _FOLDED.canonical, shear=_FOLDED.scale_matrix[[0, 0, 1], [1, 2, 2]]))),
)
_FIELDS = ("schema_version", "eps", "scale", "rotation", "translation", "shear", "category_id")
_VALUES = (1e308, -1e308, 0.0, -0.05, True)


@st.composite
def _records(draw):
    record = dict(draw(st.sampled_from(_BASE_RECORDS)))
    shear = draw(st.sampled_from(["keep", "absent", "small", "degenerate", "huge"]))
    if shear == "absent":
        record.pop("shear", None)
    elif shear != "keep":
        # degenerate: with every base record's scales, no pose matrix has det > 0
        record["shear"] = {"small": [0.002, -0.001, 0.0], "degenerate": [0.5, 0.0, 0.0],
                           "huge": [1e308] * 3}[shear]
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from(_FIELDS))
        mutation = draw(st.sampled_from(["drop", "all", "one", "length", "bool"]))
        old = record.get(field)
        if mutation == "drop":
            record.pop(field, None)
        elif mutation == "bool":
            record[field] = True
        elif not isinstance(old, list):
            record[field] = draw(st.sampled_from(_VALUES))
        elif mutation == "all":
            record[field] = [draw(st.sampled_from(_VALUES))] * len(old)
        elif mutation == "one":
            record[field] = list(old)
            record[field][draw(st.integers(0, len(old) - 1))] = draw(st.sampled_from(_VALUES))
        else:
            record[field] = old[:-1] if draw(st.booleans()) else old + [0.5]
    return record


_count = st.integers(1, 300).map(str)


@st.composite
def _invocations(draw):
    """(argv with "{in}" and "{out}" placeholders, {file name: record})."""
    command = draw(st.sampled_from(["gen", "sample", "canon", "eval"]))
    records = {"a.json": draw(_records())}
    out = ["--output", "{out}/result." + ("ply" if command in ("gen", "sample") else "json")]
    if command == "gen":
        argv = ["gen", "--params", "{in}/a.json", "--n", draw(_count)]
        for flag, values in (("--noise", ["0", "0.001"]), ("--visible", ["1.0", "0.5", "0.01"]),
                             ("--seed", ["0", "7"])):
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(values))]
        return argv + out, records
    if command == "sample":
        argv = ["sample", "--params", "{in}/a.json", "--n", draw(_count)]
        if draw(st.booleans()):
            argv += ["--fps", draw(_count)]
        return argv + out, records
    if command == "canon":
        return ["canon", "--params", "{in}/a.json"] + out, records
    records["b.json"] = draw(_records())
    argv = ["eval", "--gt", "{in}/a.json", "--est", "{in}/b.json"]
    if draw(st.booleans()):
        argv += ["--points", draw(st.sampled_from(["1", "16", "512"]))]
    if draw(st.booleans()):
        argv += ["--intrinsics", "{in}/intr.json"]
    if draw(st.booleans()):
        argv += ["--thresholds", "0.001,0.005"]
    return argv + (out if draw(st.booleans()) else []), records


def _strict_json(data):
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")
    return json.loads(data, parse_constant=reject)


class TestRecordFuzz:
    """Any record and documented flags: main returns 0-3, writes only files sqkit
    parses, and writes nothing when it fails."""

    # Found by the fuzz: a huge quaternion's norm and a huge record's
    # determinant overflowed with a numpy warning, an exception here.
    def test_quaternion_with_overflowing_norm_exits_2(self, tmp_path, capsys):
        params = _write_json(tmp_path / "q.json", dict(SPHERE, rotation=[1e308] * 4))
        out = tmp_path / "s.ply"
        assert main(["sample", "--params", params, "--n", "10", "--output", str(out)]) == 2
        assert "rotation quaternion" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale, code", [(1e300, 0), (1e308, 3), (1e-120, 0)])
    def test_canon_of_huge_record(self, tmp_path, capsys, scale, code):
        record = dict(_BASE_RECORDS[1], eps=[0.5, 1.5], scale=[scale, scale / 2, scale])
        out = tmp_path / "canon.json"
        assert main(["canon", "--params", _write_json(tmp_path / "huge.json", record),
                     "--output", str(out)]) == code
        assert out.exists() is (code == 0)
        if code == 0:
            assert sk.parse_params(out.read_bytes()).eps == (0.5, 0.5)

    @settings(max_examples=400)
    @given(_invocations())
    def test_exit_codes_and_outputs(self, invocation):
        argv, records = invocation
        with tempfile.TemporaryDirectory() as folder:
            inputs, outputs = Path(folder, "in"), Path(folder, "out")
            inputs.mkdir()
            outputs.mkdir()
            for name, record in records.items():
                (inputs / name).write_text(json.dumps(record))
            (inputs / "intr.json").write_text(json.dumps(INTRINSICS))
            argv = [tok.format(**{"in": inputs, "out": outputs}) for tok in argv]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
            written = sorted(outputs.iterdir())
            assert code in (0, 1, 2, 3), sink.getvalue()
            if code != 0:
                assert written == [], sink.getvalue()
            for path in written:
                data = path.read_bytes()
                if path.suffix == ".ply":
                    sk.parse_ply(data)
                elif argv[0] == "canon":
                    sk.parse_params(data)
                else:
                    _strict_json(data)
