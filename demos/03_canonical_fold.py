"""Folding ambiguous exponents into the canonical range.

A cross-section exponent above 1 describes (approximately) the same surface
as its twin at 2 - eps2, rescaled and turned 45 degrees about z. The fold
keeps eps2 in [0.01, 1]: the canonical record carries the turn in its
rotation and a shear keeps the per-axis scales its equal radial scales drop,
so records stay comparable after fitting.
"""

import numpy as np

import sqkit as sk

# A raw fit may legally land anywhere in eps2 in (1, 2].
raw = sk.Superquadric(1.0, 1.5, np.array([0.05, 0.03, 0.1]))
result = sk.canonicalize(raw)

print("input eps2 =", raw.eps2, "-> canonical eps2 =", result.canonical.eps2)
print("warped:", result.warped, " radial mismatch |ax-ay|/max:", round(result.radial_mismatch, 3))
print("\ncanonical scale:", np.round(result.canonical.scale, 6).tolist())
print("shear (p_xy, p_xz, p_yz):", np.round(result.shear, 6).tolist())

# The canonical record and its shear compose into one affine factor, the pose
# of the record `sqkit canon` writes, which splits back into rotation, pure
# scale, and shear.
M, t = result.compose()
rotation, scale, shear = sk.decompose_scale_shear(M)
print("\ncomposed M decomposes into:")
print("  scale =", np.round(scale, 6).tolist())
print("  shear =", np.round(shear, 6).tolist())

# With equal radial scales the fold is shear-free and the twin reproduces
# the original surface up to the linear-rescale approximation.
for eps2 in (1.05, 1.25, 1.5, 1.75, 2.0):
    sq = sk.Superquadric(0.8, eps2, np.array([0.04, 0.04, 0.08]))
    twin = sk.canonicalize(sq).canonical
    dev = sk.surface_hausdorff(sq, twin, n=2048)
    print(f"eps2={eps2:4.2f}: twin eps2={twin.eps2:4.2f}, radial scale "
          f"{twin.scale[0]:.5f}, surface deviation {dev / 0.04 * 100:5.2f}% of radial")

# Already-canonical parameters pass through untouched.
canonical = sk.Superquadric(0.5, 0.7, np.array([0.02, 0.05, 0.04]))
assert sk.canonicalize(canonical).canonical is canonical
print("\ncanonical input returned unchanged (identity fold)")
