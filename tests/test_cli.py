"""Command-line interface: subcommands, file flows, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

import sqkit as sk
from sqkit.cli import main

SPHERE = {
    "schema_version": 1,
    "eps": [1.0, 1.0],
    "scale": [0.05, 0.05, 0.05],
    "rotation": [1.0, 0.0, 0.0, 0.0],
    "translation": [0.02, -0.03, 0.04],
}


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
    """nan and inf are usage errors wherever a number flag is read."""

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

    def test_under_determined_cloud_exits_3(self, tmp_path):
        small = _write_ply(tmp_path, "small.ply",
                           [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        assert main(["fit", "--input", small, "--output", str(tmp_path / "o.json")]) == 3

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

    def test_canon_is_identity_below_one(self, tmp_path, sphere_params, capsys):
        out = tmp_path / "canon.json"
        assert main(["canon", "--params", sphere_params, "--output", str(out)]) == 0
        rec = sk.parse_params(out.read_bytes())
        assert rec.eps == (1.0, 1.0)
        assert rec.shear == (0.0, 0.0, 0.0)

    def test_nested_json_params_exits_2(self, tmp_path):
        src = tmp_path / "deep.json"
        src.write_text("[" * 100000 + "]" * 100000)
        assert main(["canon", "--params", str(src), "--output", str(tmp_path / "o.json")]) == 2
        assert not (tmp_path / "o.json").exists()

    def test_canon_rejects_sheared_record(self, tmp_path):
        rec = dict(SPHERE)
        rec["shear"] = [0.01, 0.0, 0.0]
        src = tmp_path / "s.json"
        src.write_text(json.dumps(rec))
        assert main(["canon", "--params", str(src), "--output", str(tmp_path / "o.json")]) == 2


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

    def test_non_canonical_gt_exits_3(self, tmp_path):
        raw = {"schema_version": 1, "eps": [1.0, 1.5], "scale": [0.05, 0.05, 0.1],
               "rotation": [1.0, 0.0, 0.0, 0.0], "translation": [0.0, 0.0, 0.0]}
        p = tmp_path / "raw.json"
        p.write_text(json.dumps(raw))
        assert main(["eval", "--gt", str(p), "--est", str(p)]) == 3

    def test_point_behind_camera_exits_3_without_report(self, tmp_path, sphere_params, capsys):
        # SPHERE sits at z = 0.04 m with a 0.05 m radius, so part of it is behind the camera.
        intr = tmp_path / "intr.json"
        intr.write_text(json.dumps({"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0}))
        out = tmp_path / "report.json"
        assert main(["eval", "--gt", sphere_params, "--est", sphere_params,
                     "--intrinsics", str(intr), "--output", str(out)]) == 3
        assert "behind camera" in capsys.readouterr().err
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
