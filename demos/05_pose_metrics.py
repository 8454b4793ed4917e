"""Symmetry-aware pose error metrics: MSSD, MSPD, accuracy curves.

Pose hypotheses combine rotation, scale, and shear into one matrix. MSSD is
the min-over-symmetries of the max 3D correspondence distance on the
category template; MSPD is its pixel-space analog after pinhole projection.
"""

import numpy as np

import sqkit as sk
from sqkit.rotations import quat_from_euler_xyz, quat_to_matrix

shape = sk.Superquadric(0.3, 1.0, np.array([0.04, 0.04, 0.09]))
grid = sk.default_grid()
category = grid.category(sk.categorize(shape.eps1, shape.eps2, grid))
template = sk.template_points(category, n=512)
group = sk.symmetry_group(shape)

R = quat_to_matrix(quat_from_euler_xyz(0.3, -0.1, 0.7))
gt = sk.PoseHypothesis(R @ np.diag(shape.scale), np.array([0.0, 0.0, 0.8]))

# A set of increasingly wrong estimates.
spin = quat_to_matrix(quat_from_euler_xyz(0.0, 0.0, 1.1))  # absorbed: z spin
tilt = quat_to_matrix(quat_from_euler_xyz(0.05, 0.0, 0.0))  # real error: tilt
candidates = {
    "exact": gt,
    "spun about z": sk.PoseHypothesis(gt.matrix @ spin, gt.translation),
    "2 mm offset": sk.PoseHypothesis(gt.matrix, gt.translation + [0.002, 0, 0]),
    "3 deg tilt": sk.PoseHypothesis(gt.matrix @ tilt, gt.translation),
    "5% too large": sk.PoseHypothesis(gt.matrix * 1.05, gt.translation),
}

intr = sk.CameraIntrinsics(fx=540.0, fy=540.0, cx=320.0, cy=240.0)
print(f"shape symmetries: {len(group.rotations)} rotations "
      f"(revolution about z discretized at 10 deg)\n")
print(f"{'estimate':14s} {'MSSD [mm]':>10s} {'MSPD [px]':>10s}")
errors = []
for label, est in candidates.items():
    m = sk.mssd(est, gt, template, group)
    p = sk.mspd(est, gt, template, group, intr)
    errors.append(m)
    print(f"{label:14s} {m * 1e3:10.3f} {p:10.3f}")

# Accuracy over thresholds summarizes a batch of errors into a curve.
thresholds = [0.0005, 0.001, 0.002, 0.005, 0.01]
curve = sk.accuracy_curve(errors, thresholds)
print("\naccuracy over MSSD thresholds [m]:")
for thr, frac in zip(thresholds, curve):
    print(f"  <= {thr:<6g}: {frac * 100:5.1f}%")
