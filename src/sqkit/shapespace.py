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

from .core import (EPS_MIN, Superquadric, _integer, _real, _surface_points,
                   farthest_point_sample, sample_surface)
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
            vals = tuple(_real(v, name, 0, 1) for v in getattr(self, name))
            if len(vals) < 2:
                raise ValueError(f"{name} needs at least 2 values")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly ascending")
            object.__setattr__(self, name, vals)

    @property
    def n_categories(self):
        return len(self.eps1_values) * len(self.eps2_values)

    def category(self, category_id):
        """The node with this id."""
        k = _integer(category_id, "category_id", 0, self.n_categories - 1)
        i1, i2 = divmod(k, len(self.eps2_values))
        return ShapeCategory(k, self.eps1_values[i1], self.eps2_values[i2])

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
    eps1, eps2 = _real(eps1, "eps1", 0, 2), _real(eps2, "eps2", 0, 2)
    if eps2 > 1.0:
        raise ValueError("eps2 > 1 is not canonical; canonicalize before categorizing")
    # Squared distances on Python floats, summed in row-major id order; the
    # first minimum wins.
    d1 = [(v - eps1) * (v - eps1) for v in grid.eps1_values]
    d2 = [(v - eps2) * (v - eps2) for v in grid.eps2_values]
    sums = [a + b for a in d1 for b in d2]
    return sums.index(min(sums))


def _floored(category):
    return max(category.eps1, EPS_MIN), max(category.eps2, EPS_MIN)


def _fps_order_table():
    """The stored FPS orders, recomputed: (25, _STORED_PICKS) int16, row = id."""
    units = (Superquadric(*_floored(c), scale=np.ones(3)) for c in default_grid().categories())
    return np.array([farthest_point_sample(sample_surface(u, DENSE_SAMPLE_SIZE, 0), _STORED_PICKS)
                     for u in units], dtype=np.int16)


@functools.cache
def _stored_fps_orders():
    """Floored (eps1, eps2) of each default-grid node -> its stored FPS order."""
    table = np.load(_FPS_ORDER_PATH)
    table.setflags(write=False)
    return {_floored(c): table[c.id] for c in default_grid().categories()}


def template_points(category, n=512):
    """Unscaled template cloud for a category: dense sample + FPS downsample.

    Samples DENSE_SAMPLE_SIZE points (seed 0) of the unit-scale superquadric
    with the category's exponents (floored at EPS_MIN), then keeps the n
    farthest-point indices starting at index 0. Deterministic per
    (category, n); n is at most DENSE_SAMPLE_SIZE.

    When the floored exponents are a default-grid node (whatever grid the
    category came from) and n <= 512, the indices are the first n of the
    order shipped beside this module, and greedy FPS is skipped. That is
    exact, not an approximation: each greedy pick depends only on the picks
    before it, so the first n picks of a longer run are the n-pick run. Only
    those n points of the dense sample are then computed, to the same bits.
    Every other request runs FPS.
    """
    n = _integer(n, "n", 1, DENSE_SAMPLE_SIZE)
    exponents = _floored(category)
    unit = Superquadric(*exponents, scale=np.ones(3))
    order = _stored_fps_orders().get(exponents) if n <= _STORED_PICKS else None
    if order is not None:
        return _surface_points(unit, DENSE_SAMPLE_SIZE, 0, order[:n])
    dense = sample_surface(unit, DENSE_SAMPLE_SIZE, 0)
    return dense[farthest_point_sample(dense, n, start=0)]


@dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """Rotations mapping a shape onto itself.

    Attributes:
        rotations: read-only (m, 3, 3) stack of proper rotation matrices;
            the groups built here list the identity first.

    `_xy_permutations` is derived once from the stack: every entry is
    exactly 0 or +-1 and |S[2, 2]| = 1 (see `metrics._min_max` for its use).
    """

    rotations: np.ndarray

    def __post_init__(self):
        R = np.array(self.rotations, dtype=float)
        if R.ndim != 3 or R.shape[0] == 0 or not is_rotation_matrix(R):
            raise ValueError("rotations must be a nonempty (m, 3, 3) stack of finite "
                             "proper rotation matrices")
        R.setflags(write=False)
        object.__setattr__(self, "rotations", R)
        object.__setattr__(self, "_xy_permutations", bool(
            np.all((R == 0.0) | (np.abs(R) == 1.0)) and np.all(np.abs(R[:, 2, 2]) == 1.0)))


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
    "Equal" and "near" are up to the relative tolerance rel_tol, which must
    be finite and >= 0. The groups are built once, so every call returns one
    of three shared, read-only instances.
    """
    rel_tol = _real(rel_tol, "rel_tol", 0)
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
