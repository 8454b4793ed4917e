"""File formats and synthetic data: ASCII PLY clouds, JSON parameter and
camera-intrinsics records, and seeded surface-sample generation with noise
and half-space occlusion.

All lengths are meters. Coordinates are written as shortest float32
round-trip decimals (at most 9 significant digits), matching the PLY
`property float` type, so write -> parse -> write is byte-stable. A
`ParamsRecord` checks its fields where it is built, so `write_params` only
serializes and `parse_params` only decodes and builds.
"""

import contextlib
import json
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .canonical import compose_affine
from .core import Superquadric, _integer, _real, as_points, sample_surface
from .metrics import CameraIntrinsics, PoseHypothesis
from .rotations import quat_canonical, quat_from_euler_xyz, quat_normalize, quat_to_matrix

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


def _lines(text):
    """PLY lines, which end at \\n, \\r\\n and \\r only (str.splitlines also breaks
    at \\v, \\f, \\x1c-\\x1e, \\x85, \\u2028 and \\u2029)."""
    if "\r" in text:  # one character is cheap to find; "\r\n" is not
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the break that ends the last line starts none
    return lines


def _vertex_rows(lines, first, count, ncols, cols):
    """x, y, z of the vertex rows lines[first:first + count], from one np.loadtxt call.

    Each row holds exactly ncols values in C number syntax; cols picks x, y,
    z. Values go through float64 to float32, the declared property type. If
    the call fails, the rows are only searched for the first bad one.
    """
    table = np.empty((0, ncols))
    if count and lines[first].split():  # loadtxt skips blank rows, and warns when all are
        try:
            table = np.loadtxt(islice(lines, first, first + count), comments=None, ndmin=2)
        except ValueError:
            pass
    if table.shape == (count, ncols):
        with np.errstate(over="ignore"):
            table[:] = table.astype(np.float32)
        return table[:, cols]
    for ln in range(first + 1, first + count + 1):
        values = len(lines[ln - 1].split())
        if values != ncols:
            raise ParseError(f"vertex row has {values} values; the header declares {ncols}",
                             line=ln)
        try:
            np.loadtxt([lines[ln - 1]], comments=None)
        except ValueError:
            raise ParseError("non-numeric vertex coordinate", line=ln) from None
    raise AssertionError("np.loadtxt rejected vertex rows that it reads one by one")


def parse_ply(data):
    """Parse an ASCII PLY cloud from bytes or text.

    Bytes must be ASCII; text is read as given. The vertex element must carry
    float x, y, z properties and no list property; extra scalar properties
    and other elements are tolerated and ignored. Lines end at \\n, \\r\\n
    and \\r only, element counts are ASCII digits, and each vertex row holds
    exactly the declared number of values in C number syntax. Raises
    ParseError with a line number on malformed headers, non-ASCII bytes, bad
    coordinates, or count mismatches.
    """
    # No name holds the whole text: it is freed once split into lines.
    if isinstance(data, bytes):
        try:
            lines = _lines(data.decode("ascii"))
        except UnicodeDecodeError as exc:
            # the bad byte's line: the text before it, with one character in its place
            line = len(_lines(data[:exc.start].decode("ascii") + "?"))
            raise ParseError(f"non-ASCII byte 0x{data[exc.start]:02x}", line=line) from None
    else:
        lines = _lines(data)
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
            # ASCII digits: int() alone also reads "1_0", "+1" and other scripts' digits
            try:
                if not (tokens[2].isascii() and tokens[2].isdigit()):
                    raise ValueError
                count = int(tokens[2])  # a ValueError past int()'s digit limit too
            except ValueError:
                raise ParseError(f"bad element count {tokens[2]!r}", line=ln) from None
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


def _vector(value, name, size):
    """`value`, a list, tuple or 1-D array of `size` finite reals (not bools), as a
    tuple of Python floats; anything else raises a ValueError naming the field."""
    with contextlib.suppress(TypeError, ValueError):
        if isinstance(value, (list, tuple, np.ndarray)) and len(value) == size:
            return tuple(_real(v, name) for v in value)
    raise ValueError(f"field {name!r} must be a {size}-vector of finite numbers")


@dataclass(frozen=True, eq=False)
class ParamsRecord:
    """Serializable superquadric parameters plus optional shear and category.

    Checked where it is built: each vector is stored as a tuple of Python
    floats (see `_vector`); eps, scale, rotation and translation must make a
    valid `Superquadric`; category_id is an integer >= 0. Anything else raises
    a ValueError, so every record can be written and parsed back.
    """

    eps: tuple
    scale: tuple
    rotation: tuple
    translation: tuple
    shear: Optional[tuple] = None
    category_id: Optional[int] = None

    def __post_init__(self):
        for name, size in (("eps", 2), ("scale", 3), ("rotation", 4), ("translation", 3)):
            object.__setattr__(self, name, _vector(getattr(self, name), name, size))
        if self.shear is not None:
            object.__setattr__(self, "shear", _vector(self.shear, "shear", 3))
        if self.category_id is not None:
            object.__setattr__(self, "category_id", _integer(self.category_id, "category_id", 0))
        self.to_superquadric()

    def to_superquadric(self):
        """The shape without its shear: exact only for a record whose shear is absent or 0."""
        return Superquadric(
            eps1=self.eps[0], eps2=self.eps[1], scale=np.array(self.scale),
            rotation=np.array(self.rotation), translation=np.array(self.translation),
        )

    def pose(self):
        """The affine pose rotation @ P(scale, shear) + translation that places the
        unit-scale shape `Superquadric(*eps, np.ones(3))` in the world.

        Raises ValueError where the scale and shear give no matrix whose
        determinant has sign +1; its magnitude may overflow or underflow.
        """
        return PoseHypothesis(*compose_affine(quat_to_matrix(self.rotation), self.scale,
                                              self.shear or (0.0, 0.0, 0.0), self.translation))


def record_from_superquadric(sq, shear=None, category_id=None):
    return ParamsRecord(eps=(sq.eps1, sq.eps2), scale=sq.scale,
                        rotation=quat_canonical(sq.rotation), translation=sq.translation,
                        shear=shear, category_id=category_id)


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
    normalized to a quaternion. Unknown fields are ignored; the record's
    constructor checks the rest.
    """
    payload = _load_json(data)
    if not isinstance(payload, dict):
        raise ParseError("parameter record must be a JSON object")
    version = payload.get("schema_version")
    if type(version) is not int or version != PARAMS_SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r}")
    for name in ("eps", "scale", "translation"):
        if name not in payload:
            raise ParseError(f"missing field {name!r}")
    has_quat = "rotation" in payload
    has_euler = "euler_xyz" in payload
    if has_quat and has_euler:
        raise ParseError("give either 'rotation' or 'euler_xyz', not both")
    if not (has_quat or has_euler):
        raise ParseError("missing rotation ('rotation' quaternion or 'euler_xyz')")
    try:
        if has_quat:
            rotation = np.array(_vector(payload["rotation"], "rotation", 4))
        else:
            rotation = quat_from_euler_xyz(*_vector(payload["euler_xyz"], "euler_xyz", 3))
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(rotation))
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("rotation quaternion must be nonzero, with a finite norm")
        if abs(norm - 1.0) > 1e-12:
            rotation = quat_normalize(rotation)
        return ParamsRecord(eps=payload["eps"], scale=payload["scale"], rotation=rotation,
                            translation=payload["translation"], shear=payload.get("shear"),
                            category_id=payload.get("category_id"))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_intrinsics(data):
    """Parse a JSON camera-intrinsics record with numeric fx, fy, cx, cy."""
    payload = _load_json(data)
    try:
        return CameraIntrinsics(*(payload[name] for name in ("fx", "fy", "cx", "cy")))
    except (KeyError, TypeError):
        raise ParseError("expected fx, fy, cx, cy") from None
    except ValueError as exc:
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
        for name, low in (("n_points", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        object.__setattr__(self, "noise_sigma", _real(self.noise_sigma, "noise_sigma", 0))
        object.__setattr__(self, "visible_fraction",
                           _real(self.visible_fraction, "visible_fraction", 0, 1, open_low=True))
        if self._kept() < 1:
            raise ValueError("keeps no point: round(visible_fraction * n_points) is 0")

    def _kept(self):
        return int(round(self.visible_fraction * self.n_points))


def gen_synthetic(sq, cfg):
    """Deterministic synthetic cloud: surface sample + noise + occlusion.

    Samples cfg.n_points surface points, adds isotropic Gaussian noise, then
    for visible_fraction < 1 keeps exactly round(visible_fraction * n_points)
    points: those deepest into the kept side of a plane through a seed-chosen
    surface point with a seed-chosen normal, preserving input order.
    """
    if not isinstance(cfg, GenConfig):
        raise ValueError("cfg must be a GenConfig")
    n = cfg.n_points
    pts = sample_surface(sq, n, cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xC10D]))
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
