"""Shape categories and the symmetry groups of unit-scale shapes.

The exponent plane is discretized into a grid of categories, each with an
unscaled farthest-point-sampled template. A symmetry S acts on those unscaled
points before a pose's scale, so the poses M and M @ S place the same
surface. The group is therefore the unit-scale shape's and depends on the
exponents alone: every superquadric survives the 180-degree flips and, being
unchanged by x <-> y, the quarter turn about z, whatever its scales; equal
exponents add every signed axis permutation (the 24-element cube group); a
circular cross-section makes z a revolution axis, discretized at 10-degree
spins. Each group is one (m, 3, 3) rotation stack.
"""

import numpy as np

import sqkit as sk

grid = sk.default_grid()
print(f"default grid: {len(grid.eps1_values)} x {len(grid.eps2_values)} = "
      f"{grid.n_categories} categories")

# Fitted exponents map to the nearest node.
for eps in [(0.0, 0.0), (0.6, 0.4), (1.0, 1.0)]:
    cid = sk.categorize(*eps, grid)
    cat = grid.category(cid)
    print(f"  eps={eps} -> category {cid} at ({cat.eps1}, {cat.eps2})")

# Each category owns a deterministic unscaled template.
cat = grid.category(12)
template = sk.template_points(cat, n=512)
print(f"\ncategory {cat.id} template: {template.shape[0]} points, "
      f"max |coordinate| = {np.abs(template).max():.3f}")

# Symmetry groups follow the exponents; the scales do not enter.
instances = [
    ("generic brick", sk.Superquadric(0.3, 0.4, np.array([0.02, 0.05, 0.08]))),
    ("square post", sk.Superquadric(0.3, 0.2, np.array([0.03, 0.03, 0.1]))),
    ("equal exponents", sk.Superquadric(0.5, 0.5, np.array([0.03, 0.05, 0.1]))),
    ("round can", sk.Superquadric(0.3, 1.0, np.array([0.03, 0.03, 0.1]))),
]
for label, sq in instances:
    rotations = sk.symmetry_group(sq).rotations
    spins = int(np.isclose(rotations[:, 2, 2], 1.0).sum())  # turns about z, not flips
    print(f"\n{label}: {len(rotations)} rotations, {spins} of them turns about z "
          f"(every {360 // spins} deg)")

# Every emitted symmetry maps the unit-scale surface onto itself, so applied
# before the scale it keeps even the brick's unequal radii on its surface.
sq = instances[0][1]
unit = sk.Superquadric(sq.eps1, sq.eps2, np.ones(3))
pts = sk.sample_surface(unit, 400, seed=0)
worst = max(np.abs(sk.inside_outside(sq, (pts @ S.T) * sq.scale) - 1.0).max()
            for S in sk.expand_symmetries(sk.symmetry_group(sq)))
print(f"\nworst |F - 1| after applying a symmetry: {worst:.2e}")
