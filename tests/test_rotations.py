"""Rotation helpers: the proper-rotation check accepts what np.allclose did."""

import numpy as np
import pytest

from sqkit.rotations import is_rotation_matrix, quat_to_matrix, random_quaternion


def _allclose_check(R, tol=1e-6):
    """The proper-rotation check as written with np.allclose."""
    R = np.asarray(R, dtype=float)
    if R.shape[-2:] != (3, 3) or not np.all(np.isfinite(R)):
        return False
    if not np.allclose(np.swapaxes(R, -1, -2) @ R, np.eye(3), atol=tol):
        return False
    return bool(np.all(np.abs(np.linalg.det(R) - 1.0) <= tol))


def _near_boundary(rng, tol, count):
    """Rotations perturbed so that R^T R - I sits near the check's bounds.

    A random perturbation E moves R^T R by about R^T E + E^T R, which probes
    the off-diagonal bound tol. diag(1 + d, 1 - d, 1) moves the diagonal by
    about +-2d with det within d**2 of 1, which probes the diagonal bound
    tol + 1e-5 that np.allclose's default rtol adds.
    """
    out = []
    for _ in range(count):
        R = quat_to_matrix(random_quaternion(rng))
        size = tol * 10.0 ** rng.uniform(-0.3, 0.3)
        if rng.random() < 0.5:
            E = rng.normal(size=(3, 3))
            out.append(R + size * E / np.abs(R.T @ E + E.T @ R).max())
        else:
            d = 0.5 * (tol + 1e-5) * 10.0 ** rng.uniform(-0.05, 0.05)
            out.append(R @ np.diag(rng.permutation([1.0 + d, 1.0 - d, 1.0])))
    return np.array(out)


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
def test_same_verdict_as_allclose_near_the_bounds(tol):
    rng = np.random.default_rng([20261019, int(-np.log10(tol))])
    mats = _near_boundary(rng, tol, 4000)
    new = [is_rotation_matrix(R, tol) for R in mats]
    old = [_allclose_check(R, tol) for R in mats]
    assert new == old
    # both verdicts are common, so the bounds themselves are exercised
    assert 0.2 < np.mean(new) < 0.8
    # stacks: a stack passes only if every member does
    stacks = mats.reshape(-1, 2, 3, 3)
    assert ([is_rotation_matrix(S, tol) for S in stacks]
            == [_allclose_check(S, tol) for S in stacks])
    assert any(is_rotation_matrix(S, tol) for S in stacks)


def test_rejects_what_allclose_rejected():
    R = quat_to_matrix(np.array([0.9, 0.3, -0.2, 0.1]) / np.linalg.norm([0.9, 0.3, -0.2, 0.1]))
    for bad in (np.diag([1.0, 1.0, -1.0]), 2.0 * R, np.full((3, 3), np.nan), np.eye(2),
                np.full((3, 3), 1e100), np.stack([R, -R])):
        assert is_rotation_matrix(bad) is _allclose_check(bad) is False
    assert is_rotation_matrix(np.stack([R, R.T, np.eye(3)])) is True
