"""Command-line interface: subcommands, file flows, exit codes."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqkit as sk
from conftest import fps_full_pass
from test_fileio import PLY_REPROS
from sqkit import fitting
from sqkit.cli import main

SPHERE = {
    "schema_version": 1,
    "eps": [1.0, 1.0],
    "scale": [0.05, 0.05, 0.05],
    "rotation": [1.0, 0.0, 0.0, 0.0],
    "translation": [0.02, -0.03, 0.04],
}
# A general shape in front of the camera: ax != ay and eps2 < 1.
GENERAL = dict(SPHERE, eps=[0.4, 0.7], scale=[0.08, 0.05, 0.12], translation=[0.02, -0.03, 0.8])


@pytest.fixture
def sphere_params(tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(SPHERE))
    return str(path)


def _write_ply(tmp_path, name, points):
    path = tmp_path / name
    path.write_bytes(sk.write_ply(np.asarray(points, dtype=float)))
    return str(path)


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        assert main(["bogus"]) == 1

    def test_missing_required_flag(self):
        assert main(["fit", "--input", "x.ply"]) == 1
        assert main(["grid"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        for cmd in ("fit", "sample", "canon", "eval", "gen", "grid"):
            assert main([cmd, "--help"]) == 0

    def test_bad_threshold_list(self, sphere_params):
        assert main(["eval", "--gt", sphere_params, "--est", sphere_params,
                     "--thresholds", "3,2,1"]) == 1

    @pytest.mark.parametrize("value", ["text", "out_of_range"])
    @pytest.mark.parametrize("command, flag, out_of_range", [
        ("fit", "--seed", "-1"),
        ("fit", "--multistart", "0"),
        ("fit", "--max-iters", "0"),
        ("fit", "--noise-scale", "-1"),
        ("sample", "--n", "0"),
        ("sample", "--fps", "0"),
        ("gen", "--seed", "-1"),
        ("gen", "--n", "0"),
        ("gen", "--noise", "-0.5"),
        ("gen", "--visible", "1.5"),
        ("eval", "--points", "0"),
        ("eval", "--thresholds", "3,2,1"),
    ])
    def test_flag_rule(self, tmp_path, sphere_params, capsys, command, flag, out_of_range,
                       value):
        """Each row of the flag rule table rejects text and range alike as a usage error."""
        cloud = _write_ply(tmp_path, "c.ply", sk.sample_surface(
            sk.Superquadric(1.0, 1.0, np.full(3, 0.05)), 200, seed=0))
        out = tmp_path / "out"
        flags = {
            "fit": {"--input": cloud},
            "sample": {"--params": sphere_params, "--n": "50"},
            "gen": {"--params": sphere_params, "--n": "50"},
            "eval": {"--gt": sphere_params, "--est": sphere_params},
        }[command]
        flags.update({flag: "x" if value == "text" else out_of_range, "--output": str(out)})
        assert main([command, *(tok for item in flags.items() for tok in item)]) == 1
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()


class TestNonFinite:
    """nan and inf are usage errors wherever a number flag is read, and parse
    errors wherever a record holds them."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_fit_noise_scale(self, tmp_path, sphere_params, value):
        cloud = tmp_path / "c.ply"
        assert main(["gen", "--params", sphere_params, "--n", "200", "--output", str(cloud)]) == 0
        out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(cloud), "--output", str(out),
                     "--noise-scale", value]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_gen_noise(self, tmp_path, sphere_params, value):
        out = tmp_path / "c.ply"
        assert main(["gen", "--params", sphere_params, "--n", "200", "--noise", value,
                     "--output", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("thresholds", ["inf", "0.001,nan", "0.001,inf"])
    def test_eval_thresholds(self, tmp_path, sphere_params, thresholds):
        out = tmp_path / "report.json"
        assert main(["eval", "--gt", sphere_params, "--est", sphere_params,
                     "--thresholds", thresholds, "--output", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "sample", "canon", "eval"])
    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_record_shear(self, tmp_path, command, token):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(dict(SPHERE, shear=[float(token), 0.0, 0.0])))
        out = tmp_path / ("o.ply" if command in ("gen", "sample") else "o.json")
        argv = {"gen": ["gen", "--params", str(params), "--n", "10"],
                "sample": ["sample", "--params", str(params), "--n", "10"],
                "canon": ["canon", "--params", str(params)],
                "eval": ["eval", "--gt", str(params), "--est", str(params)]}[command]
        assert main(argv + ["--output", str(out)]) == 2
        assert not out.exists()


class TestUnwritableOutput:
    """An output path that cannot be opened is a parse/format error (exit 2)."""

    @pytest.fixture
    def cloud(self, tmp_path, sphere_params):
        path = tmp_path / "c.ply"
        assert main(["gen", "--params", sphere_params, "--n", "200", "--output", str(path)]) == 0
        return str(path)

    @pytest.mark.parametrize("command", ["gen", "sample", "fit", "canon", "eval"])
    def test_exits_2_without_traceback(self, tmp_path, sphere_params, cloud, capsys, command):
        bad = str(tmp_path / "missing" / "out")
        argv = {
            "gen": ["gen", "--params", sphere_params, "--n", "50"],
            "sample": ["sample", "--params", sphere_params, "--n", "50"],
            "fit": ["fit", "--input", cloud],
            "canon": ["canon", "--params", sphere_params],
            "eval": ["eval", "--gt", sphere_params, "--est", sphere_params],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--output", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sqkit: cannot write {bad}: ")
        assert "Traceback" not in err


class TestGrid:
    def test_list_prints_all_categories(self, capsys):
        assert main(["grid", "--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 25
        assert lines[0].split("\t") == ["0", "0.0", "0.0"]
        assert lines[-1].split("\t") == ["24", "1.0", "1.0"]


class TestGenSample:
    def test_gen_writes_parseable_cloud(self, tmp_path, sphere_params):
        out = tmp_path / "cloud.ply"
        assert main(["gen", "--params", sphere_params, "--n", "200", "--noise", "0",
                     "--visible", "1.0", "--seed", "1", "--output", str(out)]) == 0
        assert sk.parse_ply(out.read_bytes()).shape == (200, 3)

    def test_gen_deterministic(self, tmp_path, sphere_params):
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        args = ["gen", "--params", sphere_params, "--n", "100", "--noise", "0.001",
                "--visible", "0.8", "--seed", "7"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sample_with_fps(self, tmp_path, sphere_params):
        out = tmp_path / "s.ply"
        assert main(["sample", "--params", sphere_params, "--n", "300",
                     "--fps", "50", "--output", str(out)]) == 0
        assert sk.parse_ply(out.read_bytes()).shape == (50, 3)

    def test_fps_above_n_is_usage_error(self, tmp_path, sphere_params, capsys):
        out = tmp_path / "s.ply"
        assert main(["sample", "--params", sphere_params, "--n", "10",
                     "--fps", "20", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--fps" in err and "--n" in err
        assert not out.exists()

    def test_gen_keeping_no_point_is_usage_error(self, tmp_path, sphere_params, capsys):
        out = tmp_path / "c.ply"
        assert main(["gen", "--params", sphere_params, "--n", "4",
                     "--visible", "0.1", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sqkit gen: error: ")
        assert "--visible" in err and "--n" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "gen"])
    @pytest.mark.parametrize("scale", [1e308, 1e39])
    def test_cloud_beyond_float32_exits_3_without_file(self, tmp_path, command, scale):
        params = tmp_path / "huge.json"
        params.write_text(json.dumps(dict(SPHERE, scale=[scale] * 3)))
        out = tmp_path / "cloud.ply"
        assert main([command, "--params", str(params), "--n", "50",
                     "--output", str(out)]) == 3
        assert not out.exists()

    def test_missing_params_file(self, tmp_path):
        assert main(["sample", "--params", str(tmp_path / "nope.json"),
                     "--n", "10", "--output", str(tmp_path / "o.ply")]) == 2


class TestFit:
    def test_malformed_ply_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ply"
        bad.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                       "property float x\nproperty float y\nproperty float z\n"
                       "end_header\n0 0 0\n1 1 1\n")
        assert main(["fit", "--input", str(bad), "--output", str(tmp_path / "o.json")]) == 2

    def test_bare_property_line_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ply"
        bad.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty\n"
                       "property float x\nproperty float y\nproperty float z\n"
                       "end_header\n0 0 0\n")
        assert main(["fit", "--input", str(bad), "--output", str(tmp_path / "o.json")]) == 2
        assert "line 4" in capsys.readouterr().err

    def test_vertex_list_property_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ply"
        bad.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                       "property list uchar float n\nproperty float x\n"
                       "property float y\nproperty float z\nend_header\n2 7 8 1 2 3\n")
        assert main(["fit", "--input", str(bad), "--output", str(tmp_path / "o.json")]) == 2
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(PLY_REPROS))
    def test_malformed_row_or_count_exits_2_on_its_line(self, tmp_path, capsys, name):
        text, line, message = PLY_REPROS[name]
        bad = tmp_path / "bad.ply"
        bad.write_bytes(text.encode("ascii"))
        out = tmp_path / "o.json"
        assert main(["fit", "--input", str(bad), "--output", str(out)]) == 2
        assert f"--input {bad}: line {line}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_under_determined_cloud_exits_3(self, tmp_path):
        small = _write_ply(tmp_path, "small.ply",
                           [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        assert main(["fit", "--input", small, "--output", str(tmp_path / "o.json")]) == 3

    def test_non_finite_step_exits_3_without_file(self, tmp_path, sphere_params, monkeypatch):
        cloud = tmp_path / "c.ply"
        assert main(["gen", "--params", sphere_params, "--n", "500", "--noise", "0.001",
                     "--output", str(cloud)]) == 0
        monkeypatch.setattr(fitting.np.linalg, "solve", lambda a, b: np.full(np.shape(b), np.nan))
        out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(cloud), "--output", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["1", "2"])
    def test_non_convergence_exits_3_without_file(self, tmp_path, capsys, budget):
        params = tmp_path / "gt.json"
        params.write_text(json.dumps(dict(SPHERE, eps=[0.4, 0.7], scale=[0.04, 0.06, 0.1],
                                          translation=[0.0, 0.0, 0.0])))
        cloud = tmp_path / "c.ply"
        assert main(["gen", "--params", str(params), "--n", "2000", "--noise", "0.001",
                     "--output", str(cloud)]) == 0
        out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(cloud), "--output", str(out),
                     "--max-iters", budget]) == 3
        assert not out.exists()
        assert "rms_residual_m=" in capsys.readouterr().out

    def test_fit_writes_reparseable_params(self, tmp_path, sphere_params, capsys):
        cloud = tmp_path / "c.ply"
        assert main(["gen", "--params", sphere_params, "--n", "1500", "--noise", "0",
                     "--visible", "1.0", "--seed", "2", "--output", str(cloud)]) == 0
        out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(cloud), "--output", str(out)]) == 0
        assert "rms_residual_m=" in capsys.readouterr().out
        rec = sk.parse_params(out.read_bytes())
        assert rec.category_id is not None
        np.testing.assert_allclose(rec.scale, 0.05, rtol=0.01)

    def test_fit_keeps_the_fold_shear(self, tmp_path):
        """A raw fit with eps2 1.502 and scale (0.0301, 0.0601, 0.1000) is
        folded to scale (0.0384, 0.0384, 0.1000): without its shear the
        record would span 0.0914 m in x and y, against the cloud's 0.0614
        and 0.1205 m. fit writes the shear canon gives the raw fit."""
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps(dict(SPHERE, eps=[0.5, 1.5], scale=[0.03, 0.06, 0.1],
                                      translation=[0.0, 0.0, 0.0])))
        cloud = tmp_path / "c.ply"
        assert main(["gen", "--params", str(gt), "--n", "2000", "--noise", "0.0005",
                     "--seed", "1", "--output", str(cloud)]) == 0
        fitted = tmp_path / "fit.json"
        assert main(["fit", "--input", str(cloud), "--output", str(fitted)]) == 0
        raw = tmp_path / "raw.json"
        raw.write_bytes(sk.write_params(sk.record_from_superquadric(
            sk.fit(sk.parse_ply(cloud.read_bytes())).params)))
        canon = tmp_path / "canon.json"
        assert main(["canon", "--params", str(raw), "--output", str(canon)]) == 0
        assert (sk.parse_params(fitted.read_bytes()).shear
                == sk.parse_params(canon.read_bytes()).shear)
        # fit's record is canonical, so canon passes it through with its shear
        again = tmp_path / "again.json"
        assert main(["canon", "--params", str(fitted), "--output", str(again)]) == 0
        assert (sk.parse_params(again.read_bytes()).shear
                == sk.parse_params(canon.read_bytes()).shear)


def _ply_base(shape, n):
    """A valid PLY file of n noisy surface points, as header lines and rows of tokens."""
    cloud = sk.gen_synthetic(shape, sk.GenConfig(n_points=n, noise_sigma=0.001, seed=n))
    lines = sk.write_ply(cloud).decode("ascii").splitlines()
    end = lines.index("end_header")
    return lines[:end], [row.split() for row in lines[end + 1:]]


# Clouds of a few dozen points, so that each fit stays short.
_PLY_BASES = (_ply_base(sk.Superquadric(1.0, 1.0, np.full(3, 0.05)), 24),
              _ply_base(sk.Superquadric(0.4, 0.7, np.array([0.03, 0.05, 0.08])), 40))
_KEYWORDS = ["elemnt", "Element", "PROPERTY", "obj_info", "ply", "end_header", "format"]
_COUNTS = ["0", "1", "-1", "1_0", "0x10", "+24", "4e1", "99999999999999999999", "٤٠", "{n-1}",
           "{n+1}"]
_BAD_TOKENS = ["x", "1_0", "0x10", "nan(1)", "1e", "--1", "1,5", "#", "١", "ｘ"]
_LARGE_TOKENS = ["1e39", "-3.5e38", "3.4028235e38", "3.4028236e38", "inf", "-Infinity", "NaN",
                 "1e-50", "1e308"]


@st.composite
def _ply_files(draw):
    """A valid PLY file with some of the edits a hand-made or foreign file has,
    each made in about one file of four."""
    def sometimes():
        return draw(st.integers(0, 3)) == 3  # shrinks to no edit

    header, rows = draw(st.sampled_from(_PLY_BASES))
    header, rows = list(header), [list(row) for row in rows]
    n = len(rows)
    if sometimes():  # an extra vertex property, scalar or list, with or without values
        k = draw(st.integers(0, 3))
        scalar = draw(st.booleans())
        header.insert(4 + k, "property uchar red" if scalar else "property list uchar int idx")
        if draw(st.booleans()):
            for row in rows:
                row[k:k] = ["255"] if scalar else ["2", "5", "6"]
    if sometimes():  # a face element after the vertices
        header += ["element face 1", "property list uchar int vertex_indices"]
        rows.append(["3", "0", "1", "2"])
    while sometimes():  # ragged, non-numeric and out-of-range values
        row = rows[draw(st.integers(0, n - 1))]
        edit = draw(st.sampled_from(["drop", "append", "bad", "large"]))
        if edit == "drop":
            del row[-1:]
        elif edit == "append" or not row:
            row.append("0")
        else:
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from(_BAD_TOKENS if edit == "bad" else _LARGE_TOKENS))
    if sometimes():
        count = draw(st.sampled_from(_COUNTS)).format(**{"n-1": n - 1, "n+1": n + 1})
        header[3] = f"element vertex {count}"
    header.append("end_header")
    if sometimes():  # a header keyword misspelled, dropped or repeated
        i = draw(st.integers(1, len(header) - 1))
        edit = draw(st.sampled_from(["rename", "drop", "repeat"]))
        if edit == "rename":
            header[i] = " ".join([draw(st.sampled_from(_KEYWORDS))] + header[i].split()[1:])
        elif edit == "drop":
            del header[i]
        else:
            header.insert(i, header[i])
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = "".join(line + newline for line in header + [" ".join(row) for row in rows])
    data = data.encode("utf-8")
    if sometimes():  # a non-ASCII byte anywhere
        pos = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from([b"\xff", b"\xc3\xa9", b"\x80", b"\xa0"]))
        data = data[:pos] + byte + data[pos:]
    return data


class TestPlyInputFuzz:
    """`fit --input` on edited PLY files: main returns 0-3, exits 2 exactly when
    `parse_ply` refuses the file, writes only a record `parse_params` accepts,
    and writes nothing when it fails."""

    @settings(max_examples=120)
    @given(_ply_files())
    def test_exit_codes_and_outputs(self, data):
        try:
            sk.parse_ply(data)
            parses = True
        except sk.ParseError:
            parses = False
        with tempfile.TemporaryDirectory() as folder:
            cloud, out = Path(folder, "c.ply"), Path(folder, "fit.json")
            cloud.write_bytes(data)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(["fit", "--input", str(cloud), "--output", str(out)])
            assert code in (0, 2, 3), sink.getvalue()
            assert (code == 2) is not parses, sink.getvalue()
            if code == 0:
                sk.parse_params(out.read_bytes())
            else:
                assert not out.exists()


class TestCanon:
    def test_canon_reports_decomposition(self, tmp_path, capsys):
        raw = {"schema_version": 1, "eps": [1.0, 1.5], "scale": [0.05, 0.03, 0.1],
               "rotation": [1.0, 0.0, 0.0, 0.0], "translation": [0.0, 0.0, 0.0]}
        src = tmp_path / "raw.json"
        src.write_text(json.dumps(raw))
        out = tmp_path / "canon.json"
        assert main(["canon", "--params", str(src), "--output", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["warped"] is True
        np.testing.assert_allclose(report["scale"][:2], 0.034142, atol=1e-5)
        np.testing.assert_allclose(report["shear"][0], 0.0085355, atol=1e-6)
        rec = sk.parse_params(out.read_bytes())
        assert rec.eps[1] == 0.5

    def test_canon_report_is_the_pose_of_its_record(self, tmp_path, capsys):
        # On a warped record the printed matrix and translation are, bit for
        # bit, the pose of the record canon writes.
        q = np.array([0.9, 0.3, -0.2, 0.1])
        raw = dict(GENERAL, eps=[1.0, 1.5], scale=[0.05, 0.03, 0.1],
                   rotation=list(q / np.linalg.norm(q)))
        src = tmp_path / "raw.json"
        src.write_text(json.dumps(raw))
        out = tmp_path / "canon.json"
        assert main(["canon", "--params", str(src), "--output", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["warped"] is True
        pose = sk.parse_params(out.read_bytes()).pose()
        assert report["matrix"] == pose.matrix.tolist()
        assert report["translation"] == pose.translation.tolist()

    def test_canon_is_identity_below_one(self, tmp_path, sphere_params, capsys):
        out = tmp_path / "canon.json"
        assert main(["canon", "--params", sphere_params, "--output", str(out)]) == 0
        rec = sk.parse_params(out.read_bytes())
        assert rec.eps == (1.0, 1.0)
        assert rec.shear == (0.0, 0.0, 0.0)

    def test_canon_twice_on_rotated_record_is_a_fixed_point(self, tmp_path):
        # An unwarped record keeps its diagonal scale factor, so its shear
        # is exactly 0, not the SVD rounding of the polar split of
        # R @ diag(scale), which the second canon would refuse.
        raw = {"schema_version": 1, "eps": [0.7, 0.6], "scale": [0.05, 0.03, 0.1],
               "rotation": [0.9, 0.3, -0.2, 0.1], "translation": [0.02, -0.03, 0.8]}
        raw["rotation"] = list(np.array(raw["rotation"]) / np.linalg.norm(raw["rotation"]))
        src = tmp_path / "raw.json"
        src.write_text(json.dumps(raw))
        once, twice = tmp_path / "once.json", tmp_path / "twice.json"
        assert main(["canon", "--params", str(src), "--output", str(once)]) == 0
        assert main(["canon", "--params", str(once), "--output", str(twice)]) == 0
        assert sk.parse_params(once.read_bytes()).shear == (0.0, 0.0, 0.0)
        assert twice.read_bytes() == once.read_bytes()

    def test_nested_json_params_exits_2(self, tmp_path):
        src = tmp_path / "deep.json"
        src.write_text("[" * 100000 + "]" * 100000)
        assert main(["canon", "--params", str(src), "--output", str(tmp_path / "o.json")]) == 2
        assert not (tmp_path / "o.json").exists()

    def test_canon_rejects_sheared_record(self, tmp_path, capsys):
        # Only a record canon would fold (eps2 > 1) must be unsheared.
        rec = dict(SPHERE, eps=[1.0, 1.5], shear=[0.01, 0.0, 0.0])
        src = tmp_path / "s.json"
        src.write_text(json.dumps(rec))
        assert main(["canon", "--params", str(src), "--output", str(tmp_path / "o.json")]) == 2
        assert "without shear" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_canon_passes_a_canonical_sheared_record_through(self, tmp_path, capsys):
        rec = dict(GENERAL, shear=[0.01, 0.0, -0.002], category_id=7)
        src = tmp_path / "s.json"
        src.write_text(json.dumps(rec))
        out = tmp_path / "o.json"
        assert main(["canon", "--params", str(src), "--output", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        written = sk.parse_params(out.read_bytes())
        given = sk.parse_params(src.read_bytes())
        assert report["warped"] is False
        assert written.shear == given.shear and written.category_id is None
        assert report["matrix"] == given.pose().matrix.tolist()

    def test_canon_twice_on_folded_record_is_a_fixed_point(self, tmp_path):
        # The folded output is canonical, so canon writes it back byte for byte.
        raw = dict(GENERAL, eps=[0.5, 1.5], scale=[0.03, 0.06, 0.1])
        src = tmp_path / "raw.json"
        src.write_text(json.dumps(raw))
        once, twice = tmp_path / "once.json", tmp_path / "twice.json"
        assert main(["canon", "--params", str(src), "--output", str(once)]) == 0
        assert main(["canon", "--params", str(once), "--output", str(twice)]) == 0
        assert sk.parse_params(once.read_bytes()).shear[0] < -0.01
        assert twice.read_bytes() == once.read_bytes()

    def test_sheared_record_without_pose_exits_2(self, tmp_path, capsys):
        rec = dict(SPHERE, shear=[0.5, 0.0, 0.0])  # det(P) < 0 at scale 0.05
        src = tmp_path / "s.json"
        src.write_text(json.dumps(rec))
        out = tmp_path / "o.json"
        assert main(["canon", "--params", str(src), "--output", str(out)]) == 2
        assert "positive determinant" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_identical_poses(self, tmp_path, sphere_params, capsys):
        assert main(["eval", "--gt", sphere_params, "--est", sphere_params]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mssd_m"] == 0.0
        assert "mspd_px" not in report

    def test_with_intrinsics_and_thresholds(self, tmp_path, capsys):
        gt = dict(SPHERE)
        gt["translation"] = [0.0, 0.0, 0.8]
        est = dict(gt)
        est["translation"] = [0.002, 0.0, 0.8]
        gt_p, est_p = tmp_path / "gt.json", tmp_path / "est.json"
        gt_p.write_text(json.dumps(gt))
        est_p.write_text(json.dumps(est))
        intr = tmp_path / "intr.json"
        intr.write_text(json.dumps({"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0}))
        out = tmp_path / "report.json"
        assert main(["eval", "--gt", str(gt_p), "--est", str(est_p),
                     "--intrinsics", str(intr), "--thresholds", "0.001,0.005",
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        np.testing.assert_allclose(report["mssd_m"], 0.002, rtol=1e-9)
        assert report["mspd_px"] > 0
        assert report["mssd_accuracy"] == [0.0, 1.0]

    @pytest.mark.parametrize("points", [512, 600], ids=["stored_order", "fps"])
    def test_mssd_equals_library_on_full_pass_template(self, tmp_path, capsys, points):
        gt = {"schema_version": 1, "eps": [0.5, 0.75], "scale": [0.03, 0.05, 0.08],
              "rotation": [1.0, 0.0, 0.0, 0.0], "translation": [0.0, 0.0, 0.8]}
        est = dict(gt, rotation=[np.cos(0.05), np.sin(0.05), 0.0, 0.0],
                   translation=[0.001, 0.0, 0.8])
        paths = []
        for name, record in (("gt", gt), ("est", est)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(record))
        assert main(["eval", "--gt", str(paths[0]), "--est", str(paths[1]),
                     "--points", str(points)]) == 0
        report = json.loads(capsys.readouterr().out)
        dense = sk.sample_surface(sk.Superquadric(0.5, 0.75, np.ones(3)), 8192, seed=0)
        template = dense[fps_full_pass(dense, points, 0)]
        gt_sq, est_sq = (sk.parse_params(p.read_bytes()).to_superquadric() for p in paths)
        pose_gt, pose_est = (
            sk.PoseHypothesis(*sk.compose_affine(sq.rotation_matrix, sq.scale, (0.0, 0.0, 0.0),
                                                 sq.translation))
            for sq in (gt_sq, est_sq))
        assert report["category_id"] == 13
        assert report["mssd_m"] == sk.mssd(pose_est, pose_gt, template, sk.symmetry_group(gt_sq))
        assert report["mssd_m"] > 0

    def test_non_canonical_gt_exits_2_without_report(self, tmp_path, sphere_params, capsys):
        raw = {"schema_version": 1, "eps": [0.5, 1.5], "scale": [0.05, 0.05, 0.1],
               "rotation": [1.0, 0.0, 0.0, 0.0], "translation": [0.0, 0.0, 0.0]}
        p = tmp_path / "raw.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "report.json"
        assert main(["eval", "--gt", str(p), "--est", sphere_params,
                     "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--gt" in err and "sqkit canon" in err
        assert not out.exists()

    def test_point_behind_camera_exits_3_without_report(self, tmp_path, sphere_params, capsys):
        # SPHERE sits at z = 0.04 m with a 0.05 m radius, so part of it is behind the camera.
        intr = tmp_path / "intr.json"
        intr.write_text(json.dumps({"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0}))
        out = tmp_path / "report.json"
        assert main(["eval", "--gt", sphere_params, "--est", sphere_params,
                     "--intrinsics", str(intr), "--output", str(out)]) == 3
        assert "behind camera" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("output", [False, True], ids=["stdout", "file"])
    def test_overflowing_error_exits_3_without_report_or_warning(self, tmp_path, sphere_params,
                                                                  capsys, output):
        # A valid record, but det(M) and the squared distances overflow float64.
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(dict(SPHERE, scale=[1e300, 1e300, 1e300])))
        out = tmp_path / "report.json"
        argv = ["eval", "--gt", str(p), "--est", sphere_params]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + (["--output", str(out)] if output else [])) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("sqkit: ")
        assert not out.exists()

    def test_tiny_scale_record_samples_and_scores(self, tmp_path):
        # det(M) = 1e-360 underflows to 0.0; the matrix still preserves orientation.
        params = tmp_path / "tiny.json"
        params.write_text(json.dumps(dict(SPHERE, scale=[1e-120] * 3)))
        cloud = tmp_path / "s.ply"
        assert main(["sample", "--params", str(params), "--n", "50", "--output", str(cloud)]) == 0
        assert sk.parse_ply(cloud.read_bytes()).shape == (50, 3)
        intr = tmp_path / "intr.json"
        intr.write_text(json.dumps({"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0}))
        out = tmp_path / "report.json"
        assert main(["eval", "--gt", str(params), "--est", str(params),
                     "--intrinsics", str(intr), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["mssd_m"] == 0.0 and report["mspd_px"] == 0.0

    def test_record_without_valid_pose_exits_2(self, tmp_path, sphere_params, capsys):
        # parse_params accepts it; its scale and shear give a matrix with det < 0.
        p = tmp_path / "sheared.json"
        p.write_text(json.dumps(dict(SPHERE, scale=[0.05, 0.06, 0.07], shear=[0.5, 0.0, 0.0])))
        sk.parse_params(p.read_bytes())
        out = tmp_path / "report.json"
        assert main(["eval", "--gt", sphere_params, "--est", str(p),
                     "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--est {p}" in err and "positive determinant" in err
        assert not out.exists()

    def test_bad_intrinsics_file(self, tmp_path, sphere_params):
        intr = tmp_path / "intr.json"
        intr.write_text(json.dumps({"fx": 500.0}))
        assert main(["eval", "--gt", sphere_params, "--est", sphere_params,
                     "--intrinsics", str(intr)]) == 2

    @pytest.mark.parametrize("fx", ["a", True, None, 0.0, -500.0, 10 ** 400],
                             ids=["string", "bool", "null", "zero", "negative", "huge_int"])
    def test_intrinsics_need_positive_numeric_focal_length(self, tmp_path, sphere_params, fx):
        intr = tmp_path / "intr.json"
        intr.write_text(json.dumps({"fx": fx, "fy": 500.0, "cx": 320.0, "cy": 240.0}))
        assert main(["eval", "--gt", sphere_params, "--est", sphere_params,
                     "--intrinsics", str(intr)]) == 2

    def test_undecodable_intrinsics_exits_2(self, tmp_path, sphere_params):
        intr = tmp_path / "intr.json"
        intr.write_bytes(b"\xff\xfe{")
        assert main(["eval", "--gt", sphere_params, "--est", sphere_params,
                     "--intrinsics", str(intr)]) == 2

    def test_intrinsics_not_json_exits_2(self, tmp_path, sphere_params):
        intr = tmp_path / "intr.json"
        intr.write_text("fx = 500")
        assert main(["eval", "--gt", sphere_params, "--est", sphere_params,
                     "--intrinsics", str(intr)]) == 2

    def test_nested_json_intrinsics_exits_2(self, tmp_path, sphere_params):
        intr = tmp_path / "intr.json"
        intr.write_text("[" * 100000 + "]" * 100000)
        assert main(["eval", "--gt", sphere_params, "--est", sphere_params,
                     "--intrinsics", str(intr)]) == 2

    def test_points_above_dense_sample_is_usage_error(self, sphere_params, capsys):
        too_many = str(sk.shapespace.DENSE_SAMPLE_SIZE + 1)
        assert main(["eval", "--gt", sphere_params, "--est", sphere_params,
                     "--points", too_many]) == 1
        assert "--points" in capsys.readouterr().err

    def test_exact_xy_relabel_scores_zero(self, tmp_path):
        """(ax, ay, R) and (ay, ax, R @ Rz(90)) place one surface, so both metrics read 0."""
        est = dict(GENERAL, scale=[0.05, 0.08, 0.12],
                   rotation=[np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5)])
        paths = {}
        for name, record in (("gt", GENERAL), ("est", est),
                             ("intr", {"fx": 500.0, "fy": 480.0, "cx": 320.0, "cy": 240.0})):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(record))
        out = tmp_path / "report.json"
        assert main(["eval", "--gt", str(paths["gt"]), "--est", str(paths["est"]),
                     "--intrinsics", str(paths["intr"]), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        # Criterion 07's bound for an exact symmetry.
        assert report["mssd_m"] <= 1e-9
        assert report["mspd_px"] <= 1e-9

    @staticmethod
    def _chain_mssd(tmp_path, gt_record):
        """`mssd_m` of the README chain gen (seed 0) -> fit -> canon -> eval against its truth."""
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps(gt_record))
        cloud, fitted, canon = tmp_path / "c.ply", tmp_path / "fit.json", tmp_path / "canon.json"
        assert main(["gen", "--params", str(gt), "--n", "2000", "--noise", "0.001",
                     "--seed", "0", "--output", str(cloud)]) == 0
        assert main(["fit", "--input", str(cloud), "--output", str(fitted)]) == 0
        assert main(["canon", "--params", str(fitted), "--output", str(canon)]) == 0
        out = tmp_path / "report.json"
        assert main(["eval", "--gt", str(gt), "--est", str(canon), "--output", str(out)]) == 0
        return json.loads(out.read_text())["mssd_m"]

    def test_chain_scores_xy_relabel_at_noise_level(self, tmp_path):
        """The fit of this record at seed 0 returns scale (0.05, 0.08, 0.12), the truth's
        x/y relabel."""
        # The bound is the noise sigma.
        assert self._chain_mssd(tmp_path, GENERAL) <= 0.001

    def test_chain_scores_cyclic_relabel_at_noise_level(self, tmp_path):
        """The fit of this record at seed 0 is canonicalized to scale
        (0.08, 0.12, 0.0499): the truth's axes relabelled cyclically. At
        eps1 = eps2 every signed axis permutation maps the unit shape to
        itself, so the cube group scores the relabel at noise level; with
        order 8 alone eval read 0.2255 m."""
        record = dict(SPHERE, eps=[0.5, 0.5], scale=[0.05, 0.08, 0.12],
                      translation=[0.02, -0.03, 0.8])
        # The bound is the noise sigma.
        assert self._chain_mssd(tmp_path, record) <= 0.001


class TestModuleEntry:
    def test_runs_as_module(self):
        proc = subprocess.run([sys.executable, "-m", "sqkit.cli", "grid", "--list"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 25

    def test_module_usage_error(self):
        proc = subprocess.run([sys.executable, "-m", "sqkit.cli", "nope"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr
