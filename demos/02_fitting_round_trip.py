"""Recovering superquadric parameters from point clouds.

Generates synthetic clouds (clean, noisy, and partially occluded) from a
known shape and fits them back, reporting how well the parameters and the
surface are recovered.
"""

import numpy as np

import sqkit as sk
from sqkit.rotations import quat_from_euler_xyz

true = sk.Superquadric(
    eps1=0.3, eps2=0.7,
    scale=np.array([0.03, 0.06, 0.11]),
    rotation=quat_from_euler_xyz(0.4, -0.2, 0.9),
    translation=np.array([0.05, -0.02, 0.12]),
)
print("true shape: eps =", (true.eps1, true.eps2), " scale =", true.scale.tolist())

configs = [
    ("clean", sk.GenConfig(n_points=2000, seed=1)),
    ("noisy 1 mm", sk.GenConfig(n_points=2000, noise_sigma=0.001, seed=1)),
    ("60% visible", sk.GenConfig(n_points=2000, visible_fraction=0.6, seed=1)),
]

for label, cfg in configs:
    cloud = sk.gen_synthetic(true, cfg)
    result = sk.fit(cloud)
    est = sk.canonicalize(result.params).canonical
    scale_err = np.abs(np.sort(est.scale) / np.sort(true.scale) - 1.0).max()
    print(f"\n[{label}] {len(cloud)} points")
    print(f"  rms residual      = {result.rms_residual * 1e3:.4f} mm "
          f"(converged={result.converged}, iterations={result.iterations})")
    print(f"  recovered eps     = ({est.eps1:.3f}, {est.eps2:.3f})")
    print(f"  recovered scale   = {np.round(est.scale, 4).tolist()}")
    print(f"  worst scale error = {scale_err * 100:.2f}%")

# The optimizer runs several deterministic starts; the diagnostics show what
# each start achieved, and why it stopped, before the best one was selected.
cloud = sk.gen_synthetic(true, configs[0][1])
result = sk.fit(cloud)
print("\nper-start diagnostics (rms, iterations, stop reason):")
for d in result.start_diagnostics:
    print(f"  start eps=({d.initial.eps1:.1f},{d.initial.eps2:.1f}) -> "
          f"rms={d.rms_residual:.2e}, iters={d.iterations}, stop={d.stop_reason}")
