"""File formats and synthetic data: ASCII PLY clouds, JSON parameter and
camera-intrinsics records, and seeded surface-sample generation with noise
and half-space occlusion.

All lengths are meters. Coordinates are written as shortest float32
round-trip decimals (at most 9 significant digits), matching the PLY
`property float` type, so write -> parse -> write is byte-stable.
"""

import json
from dataclasses import dataclass
from itertools import islice
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


# Coordinates are formatted this many points at a time, so the temporaries
# stay near a megabyte however large the cloud.
_BLOCK_POINTS = 4096
# A digit decision closer than this, relative to the value, to an interval
# bound or to a tie is left to `_fmt_float32`. Float64 rounding errors here
# are about 1e-16; a float32 rounding interval is at least 6e-8 of its value wide.
_MARGIN = 1e-12
_POW10_MIN = -55
# Correctly rounded powers of ten, 1e-55 .. 1e39. No float32 lies within
# 1.8e-10 (relative) of a power of ten it does not equal, so comparing a
# float32 with these entries finds its decimal exponent exactly.
_POW10 = np.array([float(f"1e{e}") for e in range(_POW10_MIN, 40)])
_INT_POW10 = 10 ** np.arange(10, dtype=np.int32)


def _shortest_digits(a):
    """Shortest decimals c * 10**k that round to the float32 magnitudes a.

    a is a float64 array of nonzero finite float32 magnitudes. The interval
    that rounds to a has as bounds the midpoints to its float32 neighbours,
    exact in float64. The fewest significant digits p (1..9) whose grid of
    multiples of 10**k, k = e - p + 1, has a point inside the interval is
    found by bisection, since a grid point for p is one for p + 1. Of the
    grid points just below and above a, the one inside wins, or the closer
    one if both are. This is the digit string Dragon4 (`_fmt_float32`) gives.
    Returns (c, k, unsure): unsure marks a value for which any of these
    tests falls within _MARGIN of a bound or of a tie; its digits must come
    from `_fmt_float32`.
    """
    f32 = a.astype(np.float32)
    lo = 0.5 * (a + np.nextafter(f32, np.float32(0)))
    with np.errstate(over="ignore"):
        up = np.nextafter(f32, np.float32(np.inf))
    # Above float32 max Dragon4 takes max plus half its spacing, not inf.
    hi = np.where(np.isinf(up), 2.0 * a - lo, 0.5 * (a + up))
    tol = _MARGIN * a
    e = np.floor(np.log10(a)).astype(np.int32)
    e -= a < _POW10[e - _POW10_MIN]
    e += a >= _POW10[e + 1 - _POW10_MIN]

    # Bisect on p: no grid point inside at p_lo, one at p_hi (9 always has).
    unsure = np.zeros(a.shape, bool)
    p_lo = np.zeros(a.shape, np.int32)
    p_hi = np.full(a.shape, 9, np.int32)
    while (active := p_hi - p_lo > 1).any():
        p = (p_lo + p_hi) // 2
        unit = _POW10[e - p + 1 - _POW10_MIN]
        top = np.floor(hi / unit) * unit  # the highest grid point below hi
        unsure |= active & ((np.abs(top - lo) <= tol) | (hi - top <= tol)
                            | (top + unit - hi <= tol))
        inside = top > lo
        p_hi = np.where(active & inside, p, p_hi)
        p_lo = np.where(active & ~inside, p, p_lo)

    k = e - p_hi + 1
    unit = _POW10[k - _POW10_MIN]
    low = np.floor(a / unit)
    below = low * unit
    above = below + unit
    in_below = (below > lo) & (below < hi)
    in_above = (above > lo) & (above < hi)
    closeness = np.minimum(np.minimum(np.abs(below - lo), np.abs(below - hi)),
                           np.minimum(np.abs(above - lo), np.abs(above - hi)))
    skew = (a - below) - (above - a)  # > 0 when `above` is closer
    both = in_below & in_above
    unsure |= (closeness <= tol) | (both & (np.abs(skew) <= tol)) | ~(in_below | in_above)
    c = (low + (in_above & ~(both & (skew < 0)))).astype(np.int32)
    # A carry (9.x rounded up to 10) leaves trailing zeros.
    while True:
        zero = (c % 10 == 0) & (c > 0)
        if not zero.any():
            return c, k, unsure
        c[zero] //= 10
        k[zero] += 1


def _format_block(values):
    """PLY vertex rows of float32 values in shortest positional form.

    values is a float64 array of float32 values, three per point; each is
    followed by a space, or by a newline when it is a point's last
    coordinate. The output equals `_fmt_float32` applied value by value.
    """
    neg = np.signbit(values)
    a = np.abs(values)
    c = np.zeros(a.shape, np.int32)
    k = np.zeros(a.shape, np.int32)
    slow = np.zeros(a.shape, bool)
    nonzero = np.flatnonzero(a)
    c[nonzero], k[nonzero], slow[nonzero] = _shortest_digits(a[nonzero])

    # Layout: [-] integer digits (at least one) [. fraction digits]. Column
    # j shows the digit of place top - j before the dot (column `dot`) and
    # top - j + 1 after it; c has at most 9 digits.
    ndigits = np.maximum(np.searchsorted(_INT_POW10, c, side="right"), 1).astype(np.int8)
    dot = neg + np.maximum(ndigits + k, 1).astype(np.int8)
    length = dot + np.where(k < 0, 1 - k, 0).astype(np.int8)
    top = dot - 1 - k.astype(np.int8)
    fallback = [(i, _fmt_float32(values[i]).encode("ascii")) for i in np.flatnonzero(slow)]
    for i, text in fallback:
        length[i] = len(text)

    col = np.arange(length.max() + 1, dtype=np.int8)
    after_dot = col > dot[:, None]
    place = top[:, None] - col + after_dot
    digit = c[:, None] // _INT_POW10[np.clip(place, 0, 9)] % 10
    buf = np.where(place < 0, 48, digit + 48).astype(np.uint8)
    buf[col == dot[:, None]] = ord(".")
    buf[neg, 0] = ord("-")
    for i, text in fallback:
        buf[i, :len(text)] = np.frombuffer(text, np.uint8)
    index = np.arange(len(values))
    buf[index, length] = np.where(index % 3 == 2, ord("\n"), ord(" "))
    return buf[col <= length[:, None]].tobytes()


def write_ply(points):
    """Serialize a nonempty cloud as deterministic ASCII PLY bytes.

    Raises ValueError for a coordinate that overflows float32, the declared
    property type, since it would be written as inf.
    """
    pts = as_points(points)
    with np.errstate(over="ignore"):
        f32 = pts.astype(np.float32)
    if not np.all(np.isfinite(f32)):
        raise ValueError("coordinate beyond float32 range, the PLY property type")
    header = "\n".join([
        "ply",
        "format ascii 1.0",
        "comment units: meters",
        f"element vertex {pts.shape[0]}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]) + "\n"
    chunks = [header.encode("ascii")]
    for i in range(0, len(f32), _BLOCK_POINTS):
        chunks.append(_format_block(f32[i:i + _BLOCK_POINTS].ravel().astype(np.float64)))
    return b"".join(chunks)


def _vertex_rows(lines, first, count, ncols, cols):
    """Vertex coordinates of lines[first:first + count], row by row.

    Each row needs at least ncols tokens; cols picks x, y, z. Values are
    parsed at float32, the declared property type.
    """
    pts = np.empty((count, 3))
    with np.errstate(over="ignore"):
        for i in range(count):
            ln = first + 1 + i
            tokens = lines[ln - 1].split()
            if len(tokens) < ncols:
                raise ParseError("vertex row has too few columns", line=ln)
            try:
                for j, c in enumerate(cols):
                    pts[i, j] = np.float32(tokens[c])
            except ValueError:
                raise ParseError("non-numeric vertex coordinate", line=ln) from None
    return pts


def _vertex_rows_fast(lines, first, count, ncols, cols):
    """`_vertex_rows` in one np.loadtxt call, or None where it may differ.

    Rows go through float64 to float32, as np.float32(token) does. Anything
    loadtxt rejects or skips (ragged or blank rows) is left to the row loop,
    which raises the ParseError with its line.
    """
    if count == 0 or not lines[first].split():
        return None  # loadtxt would skip the blank row, and warn if all are
    try:
        table = np.loadtxt(islice(lines, first, first + count), comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[0] != count or table.shape[1] < ncols:
        return None
    with np.errstate(over="ignore"):
        table[:] = table.astype(np.float32)
    return table[:, cols]


def parse_ply(data):
    """Parse an ASCII PLY cloud from bytes or text.

    The vertex element must carry float x, y, z properties and no list
    property; extra scalar properties and other elements are tolerated and
    ignored. Raises ParseError with a line number on malformed headers, bad
    coordinates, or count mismatches.
    """
    # No name holds the whole text: it is freed once split into lines.
    if isinstance(data, bytes):
        try:
            lines = data.decode("ascii").splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not an ASCII file: {exc}") from None
    else:
        lines = data.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError("missing 'ply' magic", line=1)

    elements = []  # (name, count), in declaration order
    properties = {}  # element name -> list of property names
    fmt_seen = False
    body_start = None
    for ln, raw in enumerate(islice(lines, 1, None), start=2):
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
            if len(tokens) < 3:
                raise ParseError("malformed property declaration", line=ln)
            # A list spans a count plus that many tokens in each row, leaving
            # x, y, z no fixed column; other elements' rows are only counted.
            if tokens[1] == "list" and elements[-1][0] == "vertex":
                raise ParseError("vertex element has a list property", line=ln)
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
        pts = _vertex_rows_fast(lines, first, count, len(vprops), cols)
        if pts is None:
            pts = _vertex_rows(lines, first, count, len(vprops), cols)
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            bad = first + 1 + int(np.argmin(finite))
            raise ParseError("non-finite vertex coordinate", line=bad)
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
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        if not 0.0 < self.visible_fraction <= 1.0:
            raise ValueError("visible_fraction must lie in (0, 1]")
        if self._kept() < 1:
            raise ValueError("keeps no point: round(visible_fraction * n_points) is 0")

    def _kept(self):
        return int(round(self.visible_fraction * int(self.n_points)))


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
        keep = cfg._kept()
        anchor = pts[rng.integers(n)]
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        depth = (pts - anchor) @ normal
        order = np.argsort(-depth, kind="stable")[:keep]
        pts = pts[np.sort(order)]
    return pts
