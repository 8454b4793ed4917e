"""Discretized shape space, per-instance symmetry groups, and FPS templates.

The (eps1, eps2) plane is cut into a grid of nodes treated as object
categories. Each category owns an unscaled template cloud obtained by
farthest-point-sampling a dense surface sample of the unit-scale shape; the
default grid's FPS orders ship beside this module as data.
Symmetries are derived per instance: every superquadric is even in each
coordinate, square cross-sections add a quarter turn about z, and circular
cross-sections make z a revolution axis. Each group is stored as data: one
(m, 3, 3) rotation stack built from the closed forms below.
"""

import functools
import pathlib
from dataclasses import dataclass

import numpy as np

from .core import EPS_MIN, Superquadric, farthest_point_sample, sample_surface
from .rotations import is_rotation_matrix, rotation_about_z

# Size of the dense surface sample a template is farthest-point-sampled from;
# also the largest template size.
DENSE_SAMPLE_SIZE = 8192

# The first _STORED_PICKS FPS indices of each default-grid node's dense sample
# (seed 0), one int16 row per category id, written by _fps_order_table.
_FPS_ORDER_PATH = pathlib.Path(__file__).with_name("template_fps_order.npy")
_STORED_PICKS = 512

# The 180-degree flips about each local axis, identity first.
_FLIPS = np.array([np.diag(d) for d in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))],
                  dtype=float)
_QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
_ORDER8 = np.concatenate([_FLIPS, _FLIPS @ _QUARTER_TURN])
# A revolution axis is discretized at this many spins; the order-8 group
# already holds the quarter turns, so only the spins below 90 degrees compose.
_REVOLUTION_STEPS = 36
_REVOLUTION = np.concatenate([
    rotation_about_z(2.0 * np.pi * k / _REVOLUTION_STEPS) @ _ORDER8
    for k in range(_REVOLUTION_STEPS // 4)
])


@dataclass(frozen=True)
class ShapeCategory:
    """One node of the shape grid."""

    id: int
    eps1: float
    eps2: float


@dataclass(frozen=True, eq=False)
class ShapeGrid:
    """Strictly ascending (eps1, eps2) node values in [0, 1].

    Category ids run row-major with eps1 as the major axis:
    id = i1 * len(eps2_values) + i2.
    """

    eps1_values: tuple
    eps2_values: tuple

    def __post_init__(self):
        for name in ("eps1_values", "eps2_values"):
            vals = tuple(float(v) for v in getattr(self, name))
            if len(vals) < 2:
                raise ValueError(f"{name} needs at least 2 values")
            if any(not 0.0 <= v <= 1.0 for v in vals):
                raise ValueError(f"{name} must lie within [0, 1]")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly ascending")
            object.__setattr__(self, name, vals)

    @property
    def n_categories(self):
        return len(self.eps1_values) * len(self.eps2_values)

    def category(self, category_id):
        n2 = len(self.eps2_values)
        if not 0 <= category_id < self.n_categories:
            raise ValueError(f"category id {category_id} out of range")
        i1, i2 = divmod(int(category_id), n2)
        return ShapeCategory(int(category_id), self.eps1_values[i1], self.eps2_values[i2])

    def categories(self):
        return [self.category(i) for i in range(self.n_categories)]


_DEFAULT_GRID = ShapeGrid((0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 0.25, 0.5, 0.75, 1.0))


def default_grid():
    """The standard 5x5 grid over [0, 1]^2 (25 categories).

    Every call returns the same frozen instance, validated once at import.
    """
    return _DEFAULT_GRID


def categorize(eps1, eps2, grid):
    """Id of the grid node nearest to (eps1, eps2); ties go to the lower id.

    eps2 must already be canonical (<= 1); raw duals are rejected.
    """
    eps1, eps2 = float(eps1), float(eps2)
    if not (0.0 <= eps1 <= 2.0 and 0.0 <= eps2 <= 2.0):
        raise ValueError("exponents must lie in [0, 2]")
    if eps2 > 1.0:
        raise ValueError("eps2 > 1 is not canonical; canonicalize before categorizing")
    e1 = np.asarray(grid.eps1_values)
    e2 = np.asarray(grid.eps2_values)
    d2 = (e1[:, None] - eps1) ** 2 + (e2[None, :] - eps2) ** 2
    return int(np.argmin(d2.ravel()))


def _dense_sample(exponents, dense_n, seed):
    unit = Superquadric(*exponents, scale=np.ones(3))
    return sample_surface(unit, dense_n, seed)


def _floored(category):
    return max(category.eps1, EPS_MIN), max(category.eps2, EPS_MIN)


def _fps_order_table():
    """The stored FPS orders, recomputed: (25, _STORED_PICKS) int16, row = id."""
    return np.array([
        farthest_point_sample(_dense_sample(_floored(c), DENSE_SAMPLE_SIZE, 0),
                              _STORED_PICKS, start=0)
        for c in default_grid().categories()
    ], dtype=np.int16)


@functools.cache
def _stored_fps_orders():
    """Floored (eps1, eps2) of each default-grid node -> its stored FPS order."""
    table = np.load(_FPS_ORDER_PATH)
    table.setflags(write=False)
    return {_floored(c): table[c.id] for c in default_grid().categories()}


def template_points(category, n=512, dense_n=DENSE_SAMPLE_SIZE, seed=0):
    """Unscaled template cloud for a category: dense sample + FPS downsample.

    Samples the unit-scale superquadric with the category's exponents (floored
    at EPS_MIN), then keeps the n farthest-point indices starting at index 0.
    Deterministic per (category, n, dense_n, seed).

    When the floored exponents are a default-grid node (whatever grid the
    category came from), seed is 0, dense_n is DENSE_SAMPLE_SIZE and n <= 512,
    the indices are the first n of the order shipped beside this module, and
    greedy FPS is skipped. That is exact, not an approximation: each greedy
    pick depends only on the picks before it, so the first n picks of a longer
    run are the n-pick run. Every other request runs FPS.
    """
    n = int(n)
    dense_n = int(dense_n)
    if n < 1:
        raise ValueError("template size must be >= 1")
    if n > dense_n:
        raise ValueError(f"template size {n} exceeds dense sample size {dense_n}")
    exponents = _floored(category)
    dense = _dense_sample(exponents, dense_n, seed)
    order = None
    if seed == 0 and dense_n == DENSE_SAMPLE_SIZE and n <= _STORED_PICKS:
        order = _stored_fps_orders().get(exponents)
    if order is None:
        return dense[farthest_point_sample(dense, n, start=0)]
    return dense[order[:n]]


@dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """Rotations mapping a shape onto itself.

    Attributes:
        rotations: read-only (m, 3, 3) stack of proper rotation matrices;
            the groups built here list the identity first.
    """

    rotations: np.ndarray

    def __post_init__(self):
        R = np.array(self.rotations, dtype=float)
        if R.ndim != 3 or R.shape[0] == 0 or not is_rotation_matrix(R):
            raise ValueError("rotations must be a nonempty (m, 3, 3) stack of finite "
                             "proper rotation matrices")
        R.setflags(write=False)
        object.__setattr__(self, "rotations", R)


# The three groups symmetry_group returns, built and validated once.
_FLIP_GROUP = SymmetryGroup(_FLIPS)
_ORDER8_GROUP = SymmetryGroup(_ORDER8)
_REVOLUTION_GROUP = SymmetryGroup(_REVOLUTION)


def symmetry_group(sq, rel_tol=1e-3):
    """Derive the symmetry group of a canonical superquadric instance.

    Every superquadric is symmetric under 180-degree flips about each local
    axis (order 4). Equal radial scales add a quarter turn about z (order 8),
    and a circular cross-section (eps2 near 1) makes z a revolution axis,
    discretized at 10-degree spins for metric evaluation (72 elements).
    The groups are built once, so every call returns one of three shared,
    read-only instances.
    """
    if sq.eps2 > 1.0:
        raise ValueError("symmetry requires a canonical shape (eps2 <= 1)")
    ax, ay, _ = sq.scale
    if abs(ax - ay) / max(ax, ay) > rel_tol:
        return _FLIP_GROUP
    if abs(sq.eps2 - 1.0) > rel_tol:
        return _ORDER8_GROUP
    return _REVOLUTION_GROUP


def expand_symmetries(group):
    """The group's (m, 3, 3) rotation stack, identity first."""
    return group.rotations
