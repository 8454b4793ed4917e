"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Quantitative thresholds are pinned here and are not
meant to be adjusted.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import sqkit as sk
from sqkit.rotations import quat_to_matrix, random_quaternion
from conftest import (fold_gap, fold_partners, fps_oracle, mssd_oracle,
                      relabel_candidates, template_from_dense)

SQRT2_HALF = np.sqrt(2.0) / 2.0


def _report(num, ok, description, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_true_shape(rng):
    e1, e2 = rng.uniform(0.1, 1.0, 2)
    scale = rng.uniform(0.02, 0.2, 3)
    return sk.Superquadric(e1, e2, scale, random_quaternion(rng),
                           rng.uniform(-0.3, 0.3, 3))


def _pose_of(sq):
    return sk.PoseHypothesis(sq.rotation_matrix @ np.diag(sq.scale), sq.translation)


def test_criterion_01_duality_scale_endpoints():
    err = max(abs(sk.duality_scale(1.0) - 1.0),
              abs(sk.duality_scale(2.0) - SQRT2_HALF))
    _report(1, err <= 1e-12, "duality scale endpoints s(1)=1, s(2)=sqrt(2)/2",
            f"max deviation {err:.3e}")


def test_criterion_02_duality_surface_equivalence():
    # The fold cannot preserve the surface itself: the input's cross-section
    # is an l_p ball with p = 2/eps2 in (1, 2), every canonical record's is an
    # l_q ball with q >= 2, and two planar l_p/l_q balls are linear images of
    # one another only when p == q or {p, q} == {1, inf}. What the fold does
    # promise is its documented twin: each point keeps its height and its
    # azimuth theta in the input's frame, and its horizontal radius scales by
    # s(eps2) * rho_q(theta - pi/4) / rho_p(theta). The canonical record must
    # be that twin (both directions), and the twin may move the surface by at
    # most the cross-section gap g(eps2) * radial, derived from closed forms.
    # The radial deviation between input and twin is reported, not bounded:
    # near the caps of tall shapes it overstates the true distance.
    rng = np.random.default_rng(202)
    ok = True
    worst_off = worst_move = worst_radial = 0.0
    for i in range(100):
        radial = rng.uniform(0.02, 0.1)
        sq = sk.Superquadric(
            rng.uniform(0.1, 1.0), rng.uniform(1.0 + 1e-12, 2.0),
            np.array([radial, radial, rng.uniform(0.02, 0.2)]),
            random_quaternion(rng), rng.uniform(-0.2, 0.2, 3))
        twin = sk.canonicalize(sq).canonical
        tol = 1e-5 * np.max(sq.scale)
        points = sk.sample_surface(sq, 2048, seed=i)
        partners = fold_partners(sq, points)
        back = fold_partners(sq, sk.sample_surface(twin, 2048, seed=i), inverse=True)
        off = max(np.max(sk.radial_distance(twin, partners)),
                  np.max(sk.radial_distance(sq, back)))
        move = np.max(np.linalg.norm(points - partners, axis=1))
        bound = fold_gap(sq.eps2) * radial
        ok &= off <= tol and move <= bound + tol
        worst_off = max(worst_off, off / np.max(sq.scale))
        worst_move = max(worst_move, move / bound)
        dev = sk.surface_hausdorff(sq, twin, n=2048, seed=i)
        worst_radial = max(worst_radial, dev / np.max(sq.scale))
    _report(2, ok,
            "fold of eps2 in (1, 2] lands on its documented twin within "
            "1e-5 * max scale and moves the surface at most g(eps2) * radial",
            f"twin offset {worst_off:.3e} * max scale; move {worst_move:.5f} "
            f"of g * radial; radial deviation {worst_radial:.3e} * max scale")


def test_criterion_03_canonical_range_and_idempotence():
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(100):
        sq = sk.Superquadric(
            rng.uniform(sk.EPS_MIN, 2.0), rng.uniform(sk.EPS_MIN, 2.0),
            rng.uniform(0.02, 0.2, 3), random_quaternion(rng),
            rng.uniform(-0.3, 0.3, 3))
        first = sk.canonicalize(sq)
        c = first.canonical
        ok &= sk.EPS_MIN <= c.eps2 <= 1.0
        second = sk.canonicalize(c)
        ok &= not second.warped
        ok &= second.canonical.eps1 == c.eps1 and second.canonical.eps2 == c.eps2
        ok &= np.array_equal(second.canonical.scale, c.scale)
        ok &= np.array_equal(second.canonical.rotation, c.rotation)
        ok &= np.array_equal(second.canonical.translation, c.translation)
    _report(3, ok, "canonical eps2 always in [0.01, 1]; idempotent bit-identical")


def test_criterion_04_fit_round_trip():
    rng = np.random.default_rng(20240809)
    grid = sk.default_grid()
    passes = 0
    for i in range(50):
        true = _random_true_shape(rng)
        cloud = sk.sample_surface(true, 2000, seed=1000 + i)
        est0 = sk.canonicalize(sk.fit(cloud).params).canonical
        # the true symmetry group, with scales within recovery tolerance
        # treated as equal; recovered records are compared modulo the exact
        # x/y relabel gauge of the parameterization
        group = sk.symmetry_group(true, rel_tol=0.02)
        template = sk.template_points(grid.category(
            sk.categorize(true.eps1, true.eps2, grid)), n=512)
        pose_gt = _pose_of(true)
        for cand in relabel_candidates(est0):
            if not np.all(np.abs(cand.scale / true.scale - 1.0) <= 0.02):
                continue
            if abs(cand.eps1 - true.eps1) > 0.05 or abs(cand.eps2 - true.eps2) > 0.05:
                continue
            if sk.mssd(_pose_of(cand), pose_gt, template, group) < 1e-3:
                passes += 1
                break
    _report(4, passes >= 45,
            "scale within 2%, exponents within 0.05, MSSD < 1e-3 m for >= 90%",
            f"{passes}/50 shapes recovered")


def test_criterion_05_noise_robustness():
    rng = np.random.default_rng(20240809)
    passes = 0
    for i in range(50):
        true = _random_true_shape(rng)
        cloud = sk.sample_surface(true, 2000, seed=1000 + i)
        cloud = cloud + np.random.default_rng(5000 + i).normal(scale=0.001,
                                                               size=cloud.shape)
        est0 = sk.canonicalize(sk.fit(cloud).params).canonical
        if any(np.all(np.abs(c.scale / true.scale - 1.0) <= 0.05)
               for c in relabel_candidates(est0)):
            passes += 1
    _report(5, passes >= 40,
            "with sigma = 1 mm noise, scale within 5% for >= 80%",
            f"{passes}/50 shapes recovered")


def test_criterion_06_fps_oracle_equivalence():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 257))
        pts = rng.uniform(-1.0, 1.0, size=(n, 3))
        k = int(rng.integers(1, n + 1))
        start = int(rng.integers(n))
        got = sk.farthest_point_sample(pts, k, start)
        ok &= list(got) == fps_oracle(pts, k, start)
    _report(6, ok, "greedy FPS matches brute-force oracle index-for-index, 100 clouds")


def test_criterion_07_metric_invariants():
    rng = np.random.default_rng(707)
    ok = True
    worst = 0.0
    intr = sk.CameraIntrinsics(fx=500.0, fy=480.0, cx=320.0, cy=240.0)
    for case in range(50):
        kind = case % 3
        radial = rng.uniform(0.03, 0.08)
        if kind == 0:
            scale = rng.uniform(0.03, 0.1, 3)
            eps2 = rng.uniform(0.1, 0.9)
        elif kind == 1:
            scale = np.array([radial, radial, rng.uniform(0.05, 0.15)])
            eps2 = rng.uniform(0.1, 0.9)
        else:
            scale = np.array([radial, radial, rng.uniform(0.05, 0.15)])
            eps2 = 1.0
        sq = sk.Superquadric(rng.uniform(0.1, 1.0), eps2, scale)
        group = sk.symmetry_group(sq)
        grid = sk.default_grid()
        template = template_from_dense(grid.category(
            sk.categorize(sq.eps1, sq.eps2, grid)), n=64, dense_n=1024)
        shear = rng.uniform(-0.002, 0.002, 3) if kind == 0 else np.zeros(3)
        M, t = sk.compose_affine(quat_to_matrix(random_quaternion(rng)),
                                 scale, shear, np.array([0.0, 0.0, 0.8]))
        gt = sk.PoseHypothesis(M, t)
        for S in sk.expand_symmetries(group):
            est = sk.PoseHypothesis(M @ S, t)
            m = sk.mssd(est, gt, template, group)
            p = sk.mspd(est, gt, template, group, intr)
            worst = max(worst, m, p)
            ok &= m <= 1e-9 and p <= 1e-9
    # pure translation offset with identity-only symmetry: exact MSSD
    dyadic = np.array([[0.5, 0.25, -0.75], [-0.5, 0.0, 0.25],
                       [0.125, -0.375, 0.625], [0.0, 0.5, -0.25]])
    est = sk.PoseHypothesis(np.eye(3), np.array([0.25, 0.0, 0.0]))
    gt = sk.PoseHypothesis(np.eye(3), np.zeros(3))
    exact = sk.mssd(est, gt, dyadic, sk.SymmetryGroup(np.eye(3)[None]))
    ok &= exact == 0.25
    est2 = sk.PoseHypothesis(np.eye(3), np.array([0.01, 0.0, 0.0]))
    general = sk.mssd(est2, gt, dyadic, sk.SymmetryGroup(np.eye(3)[None]))
    ok &= abs(general - 0.01) <= 1e-12
    # planar template: MSPD offset is fx * dx / z
    plane = np.stack([np.linspace(-0.1, 0.1, 16), np.zeros(16), np.zeros(16)], axis=1)
    gtp = sk.PoseHypothesis(np.eye(3), np.array([0.0, 0.0, 1.0]))
    estp = sk.PoseHypothesis(np.eye(3), np.array([0.01, 0.0, 1.0]))
    px = sk.mspd(estp, gtp, plane, sk.SymmetryGroup(np.eye(3)[None]), intr)
    ok &= abs(px - 5.0) <= 1e-9
    _report(7, ok, "group elements absorbed (<= 1e-9); translation and planar "
                   "projection offsets exact", f"worst absorbed error {worst:.2e}")


def test_criterion_08_mssd_bruteforce_equivalence():
    rng = np.random.default_rng(808)
    ok = True
    for case in range(20):
        radial = rng.uniform(0.5, 1.5)
        scale = (np.array([radial, radial, rng.uniform(0.5, 2.0)])
                 if case % 2 else rng.uniform(0.5, 2.0, 3))
        sq = sk.Superquadric(rng.uniform(0.1, 1.0), rng.uniform(0.1, 0.9), scale)
        group = sk.symmetry_group(sq)  # order 4 or 8
        rotations = sk.expand_symmetries(group)
        n = int(rng.integers(4, 65))
        template = sk.sample_surface(
            sk.Superquadric(sq.eps1, sq.eps2, np.ones(3)), n, seed=case)
        for _ in range(3):
            gt = sk.PoseHypothesis(
                quat_to_matrix(random_quaternion(rng)) @ np.diag(rng.uniform(0.5, 2.0, 3)),
                rng.normal(size=3))
            est = sk.PoseHypothesis(
                quat_to_matrix(random_quaternion(rng)) @ np.diag(rng.uniform(0.5, 2.0, 3)),
                rng.normal(size=3))
            ok &= sk.mssd(est, gt, template, group) == mssd_oracle(est, gt, template, rotations)
    _report(8, ok, "MSSD equals exhaustive double-loop oracle exactly")


def test_criterion_09_compose_decompose_round_trip():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        A = rng.normal(size=(3, 3))
        P = A @ A.T + 0.5 * np.eye(3)
        R = quat_to_matrix(random_quaternion(rng))
        scale = np.diag(P).copy()
        shear = np.array([P[0, 1], P[0, 2], P[1, 2]])
        M, _ = sk.compose_affine(R, scale, shear, np.zeros(3))
        R2, scale2, shear2 = sk.decompose_scale_shear(M)
        worst = max(worst,
                    float(np.max(np.abs(R2 - R))),
                    float(np.max(np.abs(scale2 - scale))),
                    float(np.max(np.abs(shear2 - shear))))
    _report(9, worst <= 1e-9, "compose -> decompose returns factors within 1e-9",
            f"worst entry error {worst:.2e}")


def test_criterion_10_cli_end_to_end(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, "-m", "sqkit.cli", *args],
                              capture_output=True, text=True)

    gt = {"schema_version": 1, "eps": [1.0, 1.0], "scale": [0.05, 0.05, 0.05],
          "rotation": [1.0, 0.0, 0.0, 0.0], "translation": [0.02, -0.03, 0.04]}
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(json.dumps(gt))
    cloud = tmp_path / "cloud.ply"
    fit_out = tmp_path / "fit.json"
    canon_out = tmp_path / "canon.json"
    report_out = tmp_path / "report.json"

    codes = [
        run("gen", "--params", str(gt_path), "--n", "2000", "--noise", "0",
            "--visible", "1.0", "--seed", "3", "--output", str(cloud)).returncode,
        run("fit", "--input", str(cloud), "--output", str(fit_out)).returncode,
        run("canon", "--params", str(fit_out), "--output", str(canon_out)).returncode,
        run("eval", "--gt", str(gt_path), "--est", str(canon_out),
            "--thresholds", "0.001,0.005", "--output", str(report_out)).returncode,
    ]
    mssd_m = json.loads(report_out.read_text())["mssd_m"] if report_out.exists() else np.inf

    bad = tmp_path / "bad.ply"
    bad.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                   "property float x\nproperty float y\nproperty float z\n"
                   "end_header\n0 0 0\n1 1 1\n")
    bad_code = run("fit", "--input", str(bad), "--output", str(tmp_path / "x.json")).returncode

    small = tmp_path / "small.ply"
    small.write_bytes(sk.write_ply(np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)))
    small_code = run("fit", "--input", str(small), "--output", str(tmp_path / "y.json")).returncode

    ok = codes == [0, 0, 0, 0] and mssd_m < 1e-3 and bad_code == 2 and small_code == 3
    _report(10, ok, "gen -> fit -> canon -> eval pipeline; exit codes 0/2/3",
            f"pipeline codes {codes}, MSSD {mssd_m:.2e} m, "
            f"malformed {bad_code}, under-determined {small_code}")
