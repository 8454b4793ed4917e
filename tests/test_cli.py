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

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        for cmd in ("fit", "sample", "canon", "eval", "gen", "grid"):
            assert main([cmd, "--help"]) == 0

    def test_bad_threshold_list(self, sphere_params):
        assert main(["eval", "--gt", sphere_params, "--est", sphere_params,
                     "--thresholds", "3,2,1"]) == 1


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
