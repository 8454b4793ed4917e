"""File formats and synthetic data: ASCII PLY clouds, JSON parameter and
camera-intrinsics records, and seeded surface-sample generation with noise
and half-space occlusion.

All lengths are meters. Coordinates are written as shortest float32
round-trip decimals (at most 9 significant digits), matching the PLY
`property float` type, so write -> parse -> write is byte-stable.
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Superquadric, as_points, sample_surface
from .metrics import CameraIntrinsics
from .rotations import quat_canonical, quat_from_euler_xyz, quat_normalize

PARAMS_SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# ---------------------------------------------------------------------------
# ASCII PLY point clouds
# ---------------------------------------------------------------------------

def _fmt_float32(value):
    return np.format_float_positional(
        np.float32(value), unique=True, trim="-")


def write_ply(points):
    """Serialize a nonempty cloud as deterministic ASCII PLY bytes.

    Raises ValueError for a coordinate that overflows float32, the declared
    property type, since it would be written as inf.
    """
    pts = as_points(points)
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(pts.astype(np.float32))):
            raise ValueError("coordinate beyond float32 range, the PLY property type")
    lines = [
        "ply",
        "format ascii 1.0",
        "comment units: meters",
        f"element vertex {pts.shape[0]}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    for p in pts:
        lines.append(f"{_fmt_float32(p[0])} {_fmt_float32(p[1])} {_fmt_float32(p[2])}")
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_ply(data):
    """Parse an ASCII PLY cloud from bytes or text.

    The vertex element must carry float x, y, z properties; extra properties
    and other elements are tolerated and ignored. Raises ParseError with a
    line number on malformed headers, bad coordinates, or count mismatches.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not an ASCII file: {exc}") from None
    else:
        text = data
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError("missing 'ply' magic", line=1)

    elements = []  # (name, count), in declaration order
    properties = {}  # element name -> list of property names
    fmt_seen = False
    body_start = None
    for ln, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if tokens[1:3] != ["ascii", "1.0"]:
                raise ParseError(f"unsupported format {' '.join(tokens[1:])}", line=ln)
            fmt_seen = True
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise ParseError("malformed element declaration", line=ln)
            try:
                count = int(tokens[2])
            except ValueError:
                raise ParseError(f"bad element count {tokens[2]!r}", line=ln) from None
            if count < 0:
                raise ParseError("negative element count", line=ln)
            elements.append((tokens[1], count))
            properties[tokens[1]] = []
        elif tokens[0] == "property":
            if not elements:
                raise ParseError("property before any element", line=ln)
            if tokens[1] == "list":
                properties[elements[-1][0]].append(None)
            else:
                properties[elements[-1][0]].append(tokens[-1])
        elif tokens[0] == "end_header":
            if not fmt_seen:
                raise ParseError("missing format declaration", line=ln)
            body_start = ln
            break
        else:
            raise ParseError(f"unexpected header keyword {tokens[0]!r}", line=ln)
    if body_start is None:
        raise ParseError("missing end_header", line=len(lines))

    vertex_counts = [c for name, c in elements if name == "vertex"]
    if len(vertex_counts) != 1:
        raise ParseError("file must declare exactly one vertex element", line=body_start)
    vprops = properties["vertex"]
    try:
        cols = [vprops.index(axis) for axis in ("x", "y", "z")]
    except ValueError:
        raise ParseError("vertex element lacks x, y, z properties", line=body_start) from None

    pts = None
    cursor = body_start  # 1-based index of the last consumed line
    for name, count in elements:
        first = cursor
        cursor += count
        if cursor > len(lines):
            raise ParseError(
                f"element {name!r} declares {count} rows but file ends early",
                line=len(lines))
        if name != "vertex":
            continue
        pts = np.empty((count, 3))
        for i in range(count):
            ln = first + 1 + i
            tokens = lines[ln - 1].split()
            if len(tokens) < len(vprops):
                raise ParseError("vertex row has too few columns", line=ln)
            try:
                for j, c in enumerate(cols):
                    # parse at float32 to match the declared property type
                    pts[i, j] = np.float32(tokens[c])
            except ValueError:
                raise ParseError("non-numeric vertex coordinate", line=ln) from None
        if not np.all(np.isfinite(pts)):
            raise ParseError("non-finite vertex coordinate", line=first + 1)
    for ln in range(cursor + 1, len(lines) + 1):
        if lines[ln - 1].strip():
            raise ParseError("unexpected content after declared elements", line=ln)
    return pts


# ---------------------------------------------------------------------------
# JSON records
# ---------------------------------------------------------------------------

def _load_json(data):
    """Decode JSON bytes or text; malformed or too deeply nested input is a ParseError."""
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def _is_number(value):
    # bool is an int subclass, but JSON true/false are not numbers
    return type(value) in (int, float)


@dataclass(frozen=True, eq=False)
class ParamsRecord:
    """Serializable superquadric parameters plus optional shear and category."""

    eps: tuple
    scale: tuple
    rotation: tuple
    translation: tuple
    shear: Optional[tuple] = None
    category_id: Optional[int] = None

    def to_superquadric(self):
        return Superquadric(
            eps1=self.eps[0], eps2=self.eps[1], scale=np.array(self.scale),
            rotation=np.array(self.rotation), translation=np.array(self.translation),
        )


def record_from_superquadric(sq, shear=None, category_id=None):
    return ParamsRecord(
        eps=(sq.eps1, sq.eps2),
        scale=tuple(float(v) for v in sq.scale),
        rotation=tuple(float(v) for v in quat_canonical(sq.rotation)),
        translation=tuple(float(v) for v in sq.translation),
        shear=None if shear is None else tuple(float(v) for v in shear),
        category_id=None if category_id is None else int(category_id),
    )


def write_params(record):
    """Serialize a ParamsRecord as deterministic JSON bytes."""
    payload = {
        "schema_version": PARAMS_SCHEMA_VERSION,
        "eps": list(record.eps),
        "scale": list(record.scale),
        "rotation": list(record.rotation),
        "translation": list(record.translation),
    }
    if record.shear is not None:
        payload["shear"] = list(record.shear)
    if record.category_id is not None:
        payload["category_id"] = record.category_id
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii")


def parse_params(data):
    """Parse a JSON parameter record.

    Rotation may be given as a unit quaternion (w, x, y, z) or, alternatively,
    as intrinsic XYZ Euler angles in radians under "euler_xyz"; it is always
    normalized to a quaternion. Unknown fields are ignored.
    """
    payload = _load_json(data)
    if not isinstance(payload, dict):
        raise ParseError("parameter record must be a JSON object")
    version = payload.get("schema_version")
    if version != PARAMS_SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r}")

    def vector(name, size, required=True):
        if name not in payload:
            if required:
                raise ParseError(f"missing field {name!r}")
            return None
        val = payload[name]
        if (not isinstance(val, (list, tuple)) or len(val) != size
                or not all(_is_number(v) for v in val)):
            raise ParseError(f"field {name!r} must be a {size}-vector of numbers")
        try:
            return tuple(float(v) for v in val)
        except OverflowError:
            raise ParseError(f"field {name!r} holds a number beyond float range") from None

    eps = vector("eps", 2)
    scale = vector("scale", 3)
    translation = vector("translation", 3)
    has_quat = "rotation" in payload
    has_euler = "euler_xyz" in payload
    if has_quat and has_euler:
        raise ParseError("give either 'rotation' or 'euler_xyz', not both")
    if has_quat:
        rotation = np.array(vector("rotation", 4))
    elif has_euler:
        rotation = quat_from_euler_xyz(*vector("euler_xyz", 3))
    else:
        raise ParseError("missing rotation ('rotation' quaternion or 'euler_xyz')")
    norm = float(np.linalg.norm(rotation))
    if norm == 0.0 or not np.isfinite(norm):
        raise ParseError("rotation quaternion must be nonzero and finite")
    if abs(norm - 1.0) > 1e-12:
        rotation = quat_normalize(rotation)
    shear = vector("shear", 3, required=False)
    category_id = payload.get("category_id")
    if category_id is not None and type(category_id) is not int:
        raise ParseError("category_id must be an integer")
    record = ParamsRecord(
        eps=eps, scale=scale, rotation=tuple(float(v) for v in rotation),
        translation=translation, shear=shear, category_id=category_id,
    )
    try:
        record.to_superquadric()
    except ValueError as exc:
        raise ParseError(f"invalid parameters: {exc}") from None
    return record


def parse_intrinsics(data):
    """Parse a JSON camera-intrinsics record with numeric fx, fy, cx, cy."""
    payload = _load_json(data)
    try:
        values = [payload[name] for name in ("fx", "fy", "cx", "cy")]
    except (KeyError, TypeError):
        raise ParseError("expected fx, fy, cx, cy") from None
    if not all(_is_number(v) for v in values):
        raise ParseError("fx, fy, cx, cy must be numbers")
    try:
        return CameraIntrinsics(*values)
    except (ValueError, OverflowError) as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# Synthetic clouds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenConfig:
    """Synthetic cloud options: noise level, visible fraction, size, seed."""

    n_points: int = 1000
    noise_sigma: float = 0.0
    visible_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if int(self.n_points) < 1:
            raise ValueError("n_points must be >= 1")
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be >= 0")
        if not 0.0 < self.visible_fraction <= 1.0:
            raise ValueError("visible_fraction must lie in (0, 1]")


def gen_synthetic(sq, cfg):
    """Deterministic synthetic cloud: surface sample + noise + occlusion.

    Samples cfg.n_points surface points, adds isotropic Gaussian noise, then
    for visible_fraction < 1 keeps exactly round(visible_fraction * n_points)
    points: those deepest into the kept side of a plane through a seed-chosen
    surface point with a seed-chosen normal, preserving input order.
    """
    if not isinstance(cfg, GenConfig):
        raise ValueError("cfg must be a GenConfig")
    n = int(cfg.n_points)
    pts = sample_surface(sq, n, cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0xC10D]))
    if cfg.noise_sigma > 0:
        pts = pts + rng.normal(scale=cfg.noise_sigma, size=pts.shape)
    if cfg.visible_fraction < 1.0:
        keep = int(round(cfg.visible_fraction * n))
        anchor = pts[rng.integers(n)]
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        depth = (pts - anchor) @ normal
        order = np.argsort(-depth, kind="stable")[:keep]
        pts = pts[np.sort(order)]
    return pts
