"""Command-line interface: fit, sample, canon, eval, gen, grid.

A parameter record places the unit-scale shape of its eps in the world by
its pose, rotation @ P(scale, shear) + translation (`ParamsRecord.pose`).
`sample` draws that posed surface, shear included, which is the surface
`eval` scores. `fit` writes a folded fit with the fold's shear. `canon`
writes a canonical record (eps2 <= 1) back with its shear; it folds only an
unsheared record, since a sheared pose has no closed-form fold. `gen` reads
a record as a `Superquadric`, which has no shear, so it refuses a nonzero one.

Exit codes: 0 success; 1 usage error (a bad flag value, such as text, nan, inf
or a negative --seed; grid without --list; sample --fps above --n; a gen
whose --visible keeps no point of --n); 2 parse/format error (including an
input that cannot be read, an output that cannot be written, an eval --gt
record whose eps2 > 1 is not canonical, a record whose scale and shear give
no valid pose, a gen record with a nonzero shear, and a canon record with a
nonzero shear and eps2 > 1); 3 numerical failure (non-convergence,
degenerate input, a cloud beyond the float32 range of PLY coordinates, a
canon fold whose pose matrix is singular in float64, eval --intrinsics with
a template point at or behind the camera, an eval whose pose error
overflows to a non-finite value). No nonzero
exit writes a file; a fit that does not converge still prints its
rms_residual_m line. Diagnostics go to stderr; one about an input file
starts with its flag and path.
"""

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from .canonical import canonicalize, decompose_scale_shear
from .core import Superquadric, farthest_point_sample, sample_surface
from .fileio import (
    GenConfig,
    ParseError,
    gen_synthetic,
    parse_intrinsics,
    parse_params,
    parse_ply,
    record_from_superquadric,
    write_params,
    write_ply,
)
from .fitting import FitConfig, fit
from .metrics import accuracy_curve, mspd, mssd
from .shapespace import (
    DENSE_SAMPLE_SIZE,
    categorize,
    default_grid,
    symmetry_group,
    template_points,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _input(flag, path):
    """The bytes of the file `path` given to `flag`, for a block that checks them.

    A ValueError raised while reading the file or inside the block becomes a
    ParseError (exit 2) whose message starts with the flag and the path.
    """
    try:
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as exc:
            raise ParseError(f"cannot read: {exc.strerror}") from None
        yield data
    except ValueError as exc:
        raise ParseError(f"{flag} {path}: {exc}") from None


def _write(path, data):
    try:
        with open(path, "wb") as f:
            f.write(data)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from None


def _unsheared(record, command):
    """The record as a `Superquadric`, which has no shear; a nonzero shear is a ParseError."""
    if record.shear is not None and any(v != 0.0 for v in record.shear):
        raise ParseError(f"{command} expects a pure parameter record without shear")
    return record.to_superquadric()


def _flag(convert, rule, ok):
    """Flag type: `convert` the text, then require `ok(value)`, else a usage error."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            noun = "an integer" if convert is int else "a number"
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(rule)
        return value
    return parse


_positive_int = _flag(int, "must be >= 1", lambda v: v >= 1)
_nonnegative_int = _flag(int, "must be >= 0", lambda v: v >= 0)
_fraction = _flag(float, "must lie in (0, 1]", lambda v: 0.0 < v <= 1.0)
_nonnegative_float = _flag(float, "must be finite and >= 0", lambda v: 0.0 <= v < math.inf)
_template_size = _flag(int, f"must lie in [1, {DENSE_SAMPLE_SIZE}], the dense sample size",
                       lambda v: 1 <= v <= DENSE_SAMPLE_SIZE)
_thresholds = _flag(lambda text: [float(tok) for tok in text.split(",") if tok.strip()],
                    "must be a non-empty ascending list of finite numbers",
                    lambda v: v and all(map(math.isfinite, v)) and v == sorted(v))


def _cmd_fit(args):
    with _input("--input", args.input) as data:
        cloud = parse_ply(data)
    config = FitConfig(
        max_iterations=args.max_iters,
        multistart=args.multistart,
        noise_scale=args.noise_scale,
        seed=args.seed,
    )
    result = fit(cloud, config)
    if result.converged:
        folded = canonicalize(result.params)
        sq = folded.canonical
        category = categorize(sq.eps1, sq.eps2, default_grid())
        _write(args.output, write_params(record_from_superquadric(
            sq, shear=folded.shear if folded.warped else None, category_id=category)))
    print(f"rms_residual_m={result.rms_residual:.9g}")
    if not result.converged:
        print("fit did not converge within the iteration budget; no file is written",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_sample(args):
    if args.fps is not None and args.fps > args.n:
        print(f"sqkit sample: error: --fps {args.fps} exceeds --n {args.n}, "
              "the number of points it picks from", file=sys.stderr)
        return EXIT_USAGE
    with _input("--params", args.params) as data:
        record = parse_params(data)
        pose = record.pose()
    unit = Superquadric(*record.eps, scale=np.ones(3))
    cloud = pose.apply(sample_surface(unit, args.n, seed=0))
    if args.fps is not None:
        idx = farthest_point_sample(cloud, args.fps, start=0)
        cloud = cloud[idx]
    _write(args.output, write_ply(cloud))
    return EXIT_OK


def _cmd_canon(args):
    with _input("--params", args.params) as data:
        record = parse_params(data)
        record.pose()  # a shear that leaves no valid pose is a parse error, as in eval
        # eps2 <= 1 is canonical, shear and all; a sheared pose has no closed-form fold.
        sq = _unsheared(record, "canon") if record.eps[1] > 1.0 else record.to_superquadric()
    result = canonicalize(sq)
    kept = result.shear if result.warped or record.shear is None else record.shear
    out = record_from_superquadric(result.canonical, shear=kept)
    pose = out.pose()
    rotation, scale, shear = decompose_scale_shear(pose.matrix)
    _write(args.output, write_params(out))
    report = {
        "warped": result.warped,
        "matrix": pose.matrix.tolist(),
        "translation": pose.translation.tolist(),
        "rotation": rotation.tolist(),
        "scale": scale.tolist(),
        "shear": shear.tolist(),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_eval(args):
    with _input("--gt", args.gt) as data:
        gt = parse_params(data)
        if gt.eps[1] > 1.0:
            raise ParseError(f"eps2 {gt.eps[1]:g} > 1 is not canonical; "
                             "run `sqkit canon` on it first")
        pose_gt = gt.pose()
    with _input("--est", args.est) as data:
        pose_est = parse_params(data).pose()
    gt_sq = gt.to_superquadric()
    grid = default_grid()
    category = grid.category(categorize(gt_sq.eps1, gt_sq.eps2, grid))
    template = template_points(category, n=args.points)
    group = symmetry_group(gt_sq)
    report = {
        "schema_version": 1,
        "category_id": category.id,
        "template_points": args.points,
        "mssd_m": mssd(pose_est, pose_gt, template, group),
    }
    if args.intrinsics is not None:
        with _input("--intrinsics", args.intrinsics) as data:
            intrinsics = parse_intrinsics(data)
        report["mspd_px"] = mspd(pose_est, pose_gt, template, group, intrinsics)
    if args.thresholds is not None:
        report["thresholds"] = args.thresholds
        report["mssd_accuracy"] = accuracy_curve([report["mssd_m"]], args.thresholds).tolist()
        if "mspd_px" in report:
            report["mspd_accuracy"] = accuracy_curve([report["mspd_px"]], args.thresholds).tolist()
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.output is not None:
        _write(args.output, text.encode("ascii"))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_gen(args):
    try:
        cfg = GenConfig(n_points=args.n, noise_sigma=args.noise,
                        visible_fraction=args.visible, seed=args.seed)
    except ValueError as exc:
        print(f"sqkit gen: error: --n {args.n} --visible {args.visible} {exc}", file=sys.stderr)
        return EXIT_USAGE
    with _input("--params", args.params) as data:
        sq = _unsheared(parse_params(data), "gen")
    _write(args.output, write_ply(gen_synthetic(sq, cfg)))
    return EXIT_OK


def _cmd_grid(args):
    for cat in default_grid().categories():
        print(f"{cat.id}\t{cat.eps1}\t{cat.eps2}")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="sqkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fit", help="fit a superquadric to a PLY cloud")
    p.add_argument("--input", required=True, help="input ASCII PLY cloud")
    p.add_argument("--output", required=True, help="output parameter JSON")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--multistart", type=_positive_int, default=6)
    p.add_argument("--max-iters", type=_positive_int, default=200)
    p.add_argument("--noise-scale", type=_nonnegative_float, default=0.0,
                   help="Huber scale in meters; 0 disables the robust loss")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("sample", help="sample surface points from parameters")
    p.add_argument("--params", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--fps", type=_positive_int, default=None,
                   help="downsample to this many farthest points")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("canon", help="fold parameters into the canonical range")
    p.add_argument("--params", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("eval", help="symmetry-aware pose errors between records")
    p.add_argument("--gt", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--points", type=_template_size, default=512)
    p.add_argument("--intrinsics", default=None, help="JSON file with fx, fy, cx, cy")
    p.add_argument("--thresholds", type=_thresholds, default=None,
                   help="comma-separated ascending error thresholds")
    p.add_argument("--output", default=None, help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gen", help="generate a synthetic cloud from parameters")
    p.add_argument("--params", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--noise", type=_nonnegative_float, default=0.0,
                   help="Gaussian sigma in meters")
    p.add_argument("--visible", type=_fraction, default=1.0,
                   help="visible fraction in (0, 1]")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("grid", help="show the shape category table")
    p.add_argument("--list", action="store_true", required=True)
    p.set_defaults(func=_cmd_grid)
    return parser


# Built once: argparse parsers are not changed by parsing, so every call reuses it.
_PARSER = build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # An overflow shows up as a non-finite value, which write_ply
        # (beyond float32), mssd and mspd refuse, not as a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ParseError as exc:
        print(f"sqkit: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"sqkit: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
