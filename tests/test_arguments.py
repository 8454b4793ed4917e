"""Counts, sizes, indices and seeds follow one integer rule at every entry point,
and real-valued arguments one real rule.

A count must be a Python or numpy integer, not a bool, within its range.
Anything else, an integral float such as 3.0 included, raises a ValueError that
names the argument instead of being truncated by int(). A numpy integer gives
the same result, bit for bit, as the Python int of the same value.

A real must be a Python or numpy real, not a bool, finite and within its range.
Anything else, the string "0.5", None and an integer beyond float range
included, raises a ValueError that names the argument instead of being cast by
float(). A numpy float or an int gives the same result, bit for bit, as the
Python float of the same value.

A fixed-shape array (a scale, a quaternion, a pose) holds no Python or numpy
bool at any position, also where numpy would cast one that sits beside numbers.
"""

import math
import re

import numpy as np
import pytest

import sqkit as sk

SHAPE = sk.Superquadric(0.5, 0.7, np.array([1.0, 2.0, 3.0]))
CLOUD = sk.sample_surface(SHAPE, 40, seed=1)
CATEGORY = sk.default_grid().category(7)


def _gen(n_points=30, seed=3, noise_sigma=0.01, visible_fraction=0.5):
    cfg = sk.GenConfig(n_points=n_points, noise_sigma=noise_sigma,
                       visible_fraction=visible_fraction, seed=seed)
    return [repr(cfg), sk.gen_synthetic(SHAPE, cfg)]


# (argument, call with the argument set to v, a valid value, an out-of-range int)
ENTRY_POINTS = {
    "sample_surface.n": ("n", lambda v: sk.sample_surface(SHAPE, v, seed=3), 10, 0),
    "sample_surface.seed": ("seed", lambda v: sk.sample_surface(SHAPE, 10, seed=v), 5, -1),
    "farthest_point_sample.k": ("k", lambda v: sk.farthest_point_sample(CLOUD, v, start=2),
                                6, 41),
    "farthest_point_sample.start": ("start", lambda v: sk.farthest_point_sample(CLOUD, 6, start=v),
                                    7, 40),
    "template_points.n": ("n", lambda v: sk.template_points(CATEGORY, n=v), 6,
                          sk.shapespace.DENSE_SAMPLE_SIZE + 1),
    "initial_guesses.k": ("k", lambda v: sk.initial_guesses(CLOUD, v, seed=2), 11, 0),
    "initial_guesses.seed": ("seed", lambda v: sk.initial_guesses(CLOUD, 11, seed=v), 4, -1),
    "FitConfig.max_iterations": ("max_iterations", lambda v: sk.FitConfig(max_iterations=v),
                                 7, 0),
    "FitConfig.multistart": ("multistart", lambda v: sk.FitConfig(multistart=v), 2, 0),
    "FitConfig.seed": ("seed", lambda v: sk.FitConfig(seed=v), 3, -1),
    "GenConfig.n_points": ("n_points", lambda v: _gen(n_points=v), 30, 0),
    "GenConfig.seed": ("seed", lambda v: _gen(seed=v), 9, -1),
    "ShapeGrid.category": ("category_id", lambda v: sk.default_grid().category(v), 12, 25),
}


def _bits(result):
    """Everything a result holds, as bytes and reprs: equal only for the same bits and types."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, list):
        return [_bits(item) for item in result]
    if isinstance(result, sk.Superquadric):
        return _bits([(result.eps1, result.eps2), result.scale, result.rotation,
                      result.translation])
    return repr(result)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value", [True, 2.5, 3.0, "6", None, "out_of_range"])
def test_rejects_everything_but_an_integer_in_range(entry, value):
    name, call, _, out_of_range = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be "):
        call(out_of_range if value == "out_of_range" else value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("numpy_type", [np.int64, np.int32, np.uint8])
def test_numpy_integers_give_the_same_bits(entry, numpy_type):
    _, call, valid, _ = ENTRY_POINTS[entry]
    assert _bits(call(numpy_type(valid))) == _bits(call(valid))


# (argument, call with the argument set to v, a valid integral value, an out-of-range value)
REAL_ARGUMENTS = {
    "Superquadric.eps1": ("eps1", lambda v: sk.Superquadric(v, 0.7, SHAPE.scale), 1, 2.5),
    "Superquadric.eps2": ("eps2", lambda v: sk.Superquadric(0.5, v, SHAPE.scale), 2, 0.0),
    "FitConfig.convergence_tol": ("convergence_tol",
                                  lambda v: sk.FitConfig(convergence_tol=v), 1, 0.0),
    "FitConfig.noise_scale": ("noise_scale", lambda v: sk.FitConfig(noise_scale=v), 1, -1e-3),
    "GenConfig.noise_sigma": ("noise_sigma", lambda v: _gen(noise_sigma=v), 1, -1e-3),
    "GenConfig.visible_fraction": ("visible_fraction",
                                   lambda v: _gen(visible_fraction=v), 1, 0.0),
    "CameraIntrinsics.fx": ("fx", lambda v: sk.CameraIntrinsics(v, 480, 320, 240), 500, 0.0),
    "CameraIntrinsics.fy": ("fy", lambda v: sk.CameraIntrinsics(500, v, 320, 240), 480, -1.0),
    # no finite principal point is out of range
    "CameraIntrinsics.cx": ("cx", lambda v: sk.CameraIntrinsics(500, 480, v, 240), 320,
                            -math.inf),
    "CameraIntrinsics.cy": ("cy", lambda v: sk.CameraIntrinsics(500, 480, 320, v), -240,
                            -math.inf),
    "ShapeGrid.eps1_values": ("eps1_values", lambda v: sk.ShapeGrid((0.0, v), (0.0, 1.0)),
                              1, 1.5),
    "ShapeGrid.eps2_values": ("eps2_values", lambda v: sk.ShapeGrid((0.0, 1.0), (v, 1.0)),
                              0, -0.5),
    "categorize.eps1": ("eps1", lambda v: sk.categorize(v, 0.3, sk.default_grid()), 1, -0.1),
    "categorize.eps2": ("eps2", lambda v: sk.categorize(0.6, v, sk.default_grid()), 1, 2.5),
    "symmetry_group.rel_tol": ("rel_tol", lambda v: sk.symmetry_group(SHAPE, v), 1, -1e-3),
}


@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
@pytest.mark.parametrize("value", [True, "0.5", None, math.nan, math.inf, 10**400,
                                   "out_of_range"])
def test_rejects_everything_but_a_finite_real_in_range(entry, value):
    name, call, _, out_of_range = REAL_ARGUMENTS[entry]
    # "lie in" for a range bounded on both sides, as in "eps1 must lie in [0.01, 2.0]"
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must (be|lie in) "):
        call(out_of_range if value == "out_of_range" else value)


@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
@pytest.mark.parametrize("other_type", [np.float64, np.float32, int, np.int64])
def test_numpy_floats_and_ints_give_the_same_bits(entry, other_type):
    _, call, valid, _ = REAL_ARGUMENTS[entry]
    assert _bits(call(other_type(valid))) == _bits(call(float(valid)))


# numpy promotes each of these sequences to float64, the bool to 1.0 or 0.0.
BOOLS_BESIDE_NUMBERS = {
    "Superquadric.scale": ("scale", lambda: sk.Superquadric(1, 1, [1.0, True, 1.0])),
    "Superquadric.scale numpy": ("scale", lambda: sk.Superquadric(1, 1, [1.0, np.True_, 1.0])),
    "PoseHypothesis.translation": ("pose translation",
                                   lambda: sk.PoseHypothesis(np.eye(3), [0, False, 1.0])),
    "Superquadric.rotation": ("rotation", lambda: sk.Superquadric(1, 1, np.ones(3),
                                                                  rotation=(1.0, False, 0, 0))),
}


@pytest.mark.parametrize("entry", BOOLS_BESIDE_NUMBERS)
def test_rejects_a_bool_beside_numbers(entry):
    name, call = BOOLS_BESIDE_NUMBERS[entry]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be "):
        call()


# Every point array goes through `as_points`, which takes integer and float dtypes only.
POINT_ARGUMENTS = {
    "as_points": sk.as_points,
    "farthest_point_sample": lambda p: sk.farthest_point_sample(p, 2, start=0),
    "radial_distance": lambda p: sk.radial_distance(SHAPE, p),
    "PoseHypothesis.apply": lambda p: sk.PoseHypothesis(np.eye(3), np.zeros(3)).apply(p),
    "write_ply": sk.write_ply,
}
NOT_NUMBERS = {
    "strings": [["0", "0", "0"], ["1", "1", "1"]],
    "bools": [[True, False, True], [False, True, False]],
    "objects": np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]], dtype=object),
    "complex": [[1j, 0.0, 0.0], [0.0, 0.0, 1.0]],
}


@pytest.mark.parametrize("entry", POINT_ARGUMENTS)
@pytest.mark.parametrize("points", NOT_NUMBERS)
def test_point_arrays_take_only_integers_and_floats(entry, points):
    with pytest.raises(ValueError, match="^point coordinates must be integers or floats, got "):
        POINT_ARGUMENTS[entry](NOT_NUMBERS[points])


def test_integer_points_give_the_same_bits():
    ints = [[0, 1, 2], [3, 4, 5]]
    for call in POINT_ARGUMENTS.values():
        assert _bits(call(np.array(ints))) == _bits(call(np.array(ints, dtype=float)))
