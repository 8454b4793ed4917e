"""Workload inputs, items and output checks.

Every workload turns a seed into a fixed pool of items before any timing
starts. Each pool item comes in `REALIZATIONS` realizations: the same
catalog object at the same pose, with a fresh noise seed, cloud or pose
perturbation. The runner cycles the pool in order and moves to the next
realization on every pass, so no input is fed twice within
`REALIZATIONS` passes, and a cache keyed on a whole input never hits. An
Item's `run(cache, tracer)` makes the public sqkit calls being measured;
`check(output)` validates what it returned and gives a problem string, or
None when the output is correct. Pools are small enough that a 45 s run
passes over every item several times: at this commit about 12 passes over
`score` (12 objects, 144 items) and 8 over `cli` (6 objects). `recover`
items are too slow to repeat.

Objects are BOP-style: a fixed catalog of object models, placed 0.6-1.0 m
in front of the camera at poses drawn from the seed, in three classes
cycled 1:1:1 where a workload mixes them: general shapes (symmetry
group of order 4), square cross-sections (order 8) and bodies of revolution
(eps2 = 1, 72 expanded elements).
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import sqkit as sk
import sqkit.cli
from sqkit.rotations import (quat_from_axis_angle, quat_mul, quat_normalize, quat_to_matrix,
                             random_quaternion)

INTRINSICS = {"fx": 500.0, "fy": 480.0, "cx": 320.0, "cy": 240.0}
TEMPLATE_POINTS = 512
SCALE_TOL = 0.05  # recovered when every axis is within 5% (criterion 05)
ABSORBED_TOL = 1e-9  # exact symmetric poses must score at most this (criterion 07)
GENERAL, SQUARE, REVOLUTION = 0, 1, 2  # object classes, in their 1:1:1 cycle order
MODEL_SEED = 2023
REALIZATIONS = 64  # inputs per pool item; more than a 45 s run makes passes
RECOVER_OBJECTS, SCORE_OBJECTS, CLI_OBJECTS = 45, 12, 6
RECOVER_REALIZATIONS = 4  # a recover pass takes minutes


@dataclass(frozen=True)
class Item:
    run: Callable  # (cache, tracer) -> output
    check: Callable  # output -> problem string or None
    recovered: Callable = None  # output -> bool, where scale recovery is scored


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple  # pool items, each a tuple of realizations (Items)
    setup: Callable  # () -> cache handed to every item
    objects: int


# --- shared input generation -------------------------------------------------

def object_model(kind, index):
    """Shape (eps1, eps2, scale) of model `index` of a class, from a fixed catalog.

    As in a BOP dataset, the object models are fixed and only the scenes vary
    with the seed. Fit cost is set by the shape: 8 poses of one shape varied
    by at most 3% in fit iterations, while shapes ranged from 27 to 48.
    """
    rng = np.random.default_rng([MODEL_SEED, kind, index])
    eps1 = rng.uniform(0.1, 1.0)
    if kind == GENERAL:
        return eps1, rng.uniform(0.1, 0.9), rng.uniform(0.03, 0.1, 3)
    radial = rng.uniform(0.03, 0.08)
    scale = np.array([radial, radial, rng.uniform(0.05, 0.15)])
    return eps1, (rng.uniform(0.1, 0.9) if kind == SQUARE else 1.0), scale


def placed_object(rng, kind, index):
    """Catalog model posed at random, 0.6-1.0 m in front of the camera."""
    eps1, eps2, scale = object_model(kind, index)
    translation = np.array([rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                            rng.uniform(0.6, 1.0)])
    return sk.Superquadric(eps1, eps2, scale, random_quaternion(rng), translation)


def build_templates():
    """FPS templates of all 25 default-grid categories, keyed by id."""
    grid = sk.default_grid()
    return {c.id: sk.template_points(c, n=TEMPLATE_POINTS) for c in grid.categories()}


def scales_recovered(scale, truth_scale):
    """Criterion 05's rule: all axes within 5%, allowing the x/y relabel."""
    scale = np.asarray(scale, dtype=float)
    swapped = scale[[1, 0, 2]]
    return any(bool(np.all(np.abs(c / truth_scale - 1.0) <= SCALE_TOL)) for c in (scale, swapped))


def _finite_nonnegative(value):
    return isinstance(value, float) and math.isfinite(value) and value >= 0.0


# --- recover: cloud -> fit -> canonicalize -> categorize -> MSSD --------------

def _recover_run(truth, cloud, cache, tracer):
    result = sk.fit(cloud)
    canon = sk.canonicalize(result.params)
    grid = sk.default_grid()
    category = sk.categorize(canon.canonical.eps1, canon.canonical.eps2, grid)
    truth_category = sk.categorize(truth.eps1, truth.eps2, grid)
    group = sk.symmetry_group(truth)
    est = sk.PoseHypothesis(*canon.compose())
    gt = sk.PoseHypothesis(truth.rotation_matrix @ np.diag(truth.scale), truth.translation)
    error = sk.mssd(est, gt, cache[truth_category], group)
    return canon.canonical, category, error


def _recover_recovered(truth, output):
    return scales_recovered(output[0].scale, truth.scale)


def _recover_check(output):
    sq, category, error = output
    values = np.concatenate(([sq.eps1, sq.eps2], sq.scale, sq.rotation, sq.translation))
    if not np.all(np.isfinite(values)):
        return "non-finite fitted parameters"
    if not sk.EPS_MIN <= sq.eps2 <= 1.0:
        return f"canonical eps2 {sq.eps2} outside [{sk.EPS_MIN}, 1]"
    if not 0 <= category < sk.default_grid().n_categories:
        return f"category {category} out of range"
    if not _finite_nonnegative(error):
        return f"MSSD {error!r} is not a finite value >= 0"
    return None


def recover(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    items = []
    for k in range(RECOVER_OBJECTS):
        truth = placed_object(rng, k % 3, k // 3)
        realizations = []
        for _ in range(RECOVER_REALIZATIONS):
            cfg = sk.GenConfig(n_points=2000, noise_sigma=0.001, visible_fraction=0.8,
                               seed=int(rng.integers(2**31)))
            cloud = sk.gen_synthetic(truth, cfg)
            realizations.append(Item(run=partial(_recover_run, truth, cloud),
                                     check=_recover_check,
                                     recovered=partial(_recover_recovered, truth)))
        items.append(tuple(realizations))
    return Workload("recover", tuple(items), build_templates, RECOVER_OBJECTS)


# --- score: BOP-style MSSD + MSPD of pose hypotheses --------------------------

def _perturbed(rng, rotation, scale, translation):
    axis = rng.normal(size=3)
    angle = np.deg2rad(rng.uniform(2.0, 4.0))
    turn = quat_to_matrix(quat_from_axis_angle(axis / np.linalg.norm(axis), angle))
    offset = rng.normal(size=3)
    offset *= 0.005 / np.linalg.norm(offset)
    M, t = sk.compose_affine(rotation @ turn, scale * rng.uniform(0.95, 1.05, 3),
                             rng.uniform(-0.002, 0.002, 3), translation + offset)
    return sk.PoseHypothesis(M, t)


def _score_run(truth, gt, est, cache, tracer):
    category = sk.categorize(truth.eps1, truth.eps2, sk.default_grid())
    group = sk.symmetry_group(truth)
    template = cache[category]
    intrinsics = sk.CameraIntrinsics(**INTRINSICS)
    return sk.mssd(est, gt, template, group), sk.mspd(est, gt, template, group, intrinsics)


def _score_check(output, exact):
    for label, value in zip(("MSSD", "MSPD"), output):
        if not _finite_nonnegative(value):
            return f"{label} {value!r} is not a finite value >= 0"
        if exact and value > ABSORBED_TOL:
            return f"symmetric pose scored {label} {value:.3e} > {ABSORBED_TOL}"
    return None


def _jittered(rng, truth):
    """The object turned by at most 0.5 degrees and moved by at most 1 mm."""
    axis = rng.normal(size=3)
    turn = quat_from_axis_angle(axis / np.linalg.norm(axis), np.deg2rad(rng.uniform(0, 0.5)))
    return sk.Superquadric(truth.eps1, truth.eps2, truth.scale,
                           quat_normalize(quat_mul(turn, truth.rotation)),
                           truth.translation + rng.uniform(-0.001, 0.001, 3))


def _hypotheses(rng, truth, shear, elements):
    """Ground truth and 12 hypotheses: 3 exact symmetric poses, 9 perturbed."""
    M, t = sk.compose_affine(truth.rotation_matrix, truth.scale, shear, truth.translation)
    picks = rng.choice(len(elements), size=3, replace=False)
    hypotheses = [(sk.PoseHypothesis(M @ elements[i], t), True) for i in picks]
    hypotheses += [(_perturbed(rng, truth.rotation_matrix, truth.scale, truth.translation),
                    False) for _ in range(9)]
    return sk.PoseHypothesis(M, t), hypotheses


def score(seed, workdir):
    rng = np.random.default_rng([seed, 2])
    items = []
    for k in range(SCORE_OBJECTS):
        kind = k % 3
        truth = placed_object(rng, kind, k // 3)
        shear = rng.uniform(-0.002, 0.002, 3) if kind == GENERAL else np.zeros(3)
        elements = sk.expand_symmetries(sk.symmetry_group(truth))
        # Every realization jitters the pose, so the exact symmetric
        # hypotheses, drawn from a finite group, differ between passes too.
        realizations = [_hypotheses(rng, _jittered(rng, truth), shear, elements)
                        for _ in range(REALIZATIONS)]
        for j in range(12):
            items.append(tuple(Item(run=partial(_score_run, truth, gt, hyps[j][0]),
                                    check=partial(_score_check, exact=hyps[j][1]))
                               for gt, hyps in realizations))
    return Workload("score", tuple(items), build_templates, SCORE_OBJECTS)


# --- cli: gen -> fit -> canon -> eval -> sample through files -----------------

CLI_STEPS = (
    ("gen", ["--params", "gt.json", "--n", "2000", "--noise", "0.001", "--visible", "1.0",
             "--seed", None, "--output", "cloud.ply"]),
    ("fit", ["--input", "cloud.ply", "--output", "fit.json"]),
    ("canon", ["--params", "fit.json", "--output", "canon.json"]),
    ("eval", ["--gt", "gt.json", "--est", "canon.json", "--intrinsics", "intr.json",
              "--thresholds", "0.001,0.005", "--output", "report.json"]),
    ("sample", ["--params", "canon.json", "--n", "20000", "--fps", "512",
                "--output", "surface.ply"]),
)
FILE_ARGS = ("--params", "--output", "--input", "--gt", "--est", "--intrinsics")


def cli_argv(step, args, folder, gen_seed):
    """Argument vector of one CLI step, with file names placed in `folder`."""
    argv = [step]
    for i, tok in enumerate(args):
        if tok is None:
            tok = str(gen_seed)
        elif i > 0 and args[i - 1] in FILE_ARGS:
            tok = os.path.join(folder, tok)
        argv.append(tok)
    return argv


def _cli_run(chain, cache, tracer):
    codes = []
    sink = io.StringIO()
    # The CLI reports on stdout/stderr; keep that out of the benchmark's output.
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for step, argv in chain:
            with tracer.span(f"cli.{step}") as sp:
                code = sqkit.cli.main(argv)
                sp.counts["exit"] = code
            codes.append(code)
            if code != 0:
                break
    return codes


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _cli_check(codes, folder):
    if codes != [0] * len(CLI_STEPS):
        return f"exit codes {codes}"
    try:
        for name in ("fit.json", "canon.json"):
            sk.parse_params(_read(os.path.join(folder, name)))
        surface = sk.parse_ply(_read(os.path.join(folder, "surface.ply")))
        report = json.loads(_read(os.path.join(folder, "report.json")))
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    if surface.shape != (512, 3):
        return f"sampled PLY has {surface.shape[0]} points, expected 512"
    for key in ("mssd_m", "mspd_px"):
        if not _finite_nonnegative(report.get(key)):
            return f"report {key} {report.get(key)!r} is not a finite value >= 0"
    return None


def _cli_recovered(folder, truth, codes):
    record = sk.parse_params(_read(os.path.join(folder, "canon.json")))
    return scales_recovered(record.scale, truth.scale)


def cli(seed, workdir):
    rng = np.random.default_rng([seed, 3])
    items = []
    for k in range(CLI_OBJECTS):
        truth = placed_object(rng, GENERAL, k)
        folder = os.path.join(workdir, f"obj{k:03d}")
        os.makedirs(folder, exist_ok=True)
        with open(os.path.join(folder, "gt.json"), "wb") as f:
            f.write(sk.write_params(sk.record_from_superquadric(truth)))
        with open(os.path.join(folder, "intr.json"), "w", encoding="ascii") as f:
            json.dump(INTRINSICS, f)
        realizations = []
        for _ in range(REALIZATIONS):
            gen_seed = int(rng.integers(2**31))
            chain = tuple((step, cli_argv(step, args, folder, gen_seed))
                          for step, args in CLI_STEPS)
            realizations.append(Item(run=partial(_cli_run, chain),
                                     check=partial(_cli_check, folder=folder),
                                     recovered=partial(_cli_recovered, folder, truth)))
        items.append(tuple(realizations))
    return Workload("cli", tuple(items), dict, CLI_OBJECTS)


WORKLOADS = {"recover": recover, "score": score, "cli": cli}
