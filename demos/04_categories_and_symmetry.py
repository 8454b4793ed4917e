"""Shape categories and per-instance symmetry groups.

The exponent plane is discretized into a grid of categories, each with an
unscaled farthest-point-sampled template. Symmetries depend on the instance:
every superquadric survives 180-degree flips, equal radial scales add a
quarter turn, and a circular cross-section makes z a revolution axis,
discretized at 10-degree spins. Each group is one (m, 3, 3) rotation stack.
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

# Symmetry groups are derived per instance, not per category.
instances = [
    ("generic brick", sk.Superquadric(0.3, 0.4, np.array([0.02, 0.05, 0.08]))),
    ("square post", sk.Superquadric(0.3, 0.2, np.array([0.03, 0.03, 0.1]))),
    ("round can", sk.Superquadric(0.3, 1.0, np.array([0.03, 0.03, 0.1]))),
]
for label, sq in instances:
    rotations = sk.symmetry_group(sq).rotations
    spins = int(np.isclose(rotations[:, 2, 2], 1.0).sum())  # turns about z, not flips
    print(f"\n{label}: {len(rotations)} rotations, {spins} of them turns about z "
          f"(every {360 // spins} deg)")

# Every emitted symmetry genuinely maps the scaled surface onto itself.
sq = instances[1][1]
unit = sk.Superquadric(sq.eps1, sq.eps2, np.ones(3))
pts = sk.sample_surface(unit, 400, seed=0) * sq.scale
worst = max(np.abs(sk.inside_outside(sq, pts @ S.T) - 1.0).max()
            for S in sk.expand_symmetries(sk.symmetry_group(sq)))
print(f"\nworst |F - 1| after applying a symmetry: {worst:.2e}")
