"""Superquadric geometry toolkit.

Fits superquadric primitives to 3D point clouds, folds ambiguous exponent
parameterizations into a canonical record plus a shear, discretizes the shape
space into categories with the symmetry groups of unit-scale shapes, and
scores pose hypotheses with symmetry-aware surface and projection metrics.
"""

from .canonical import (
    CanonicalizationResult,
    canonicalize,
    compose_affine,
    decompose_scale_shear,
    duality_scale,
)
from .core import (
    EPS_MIN,
    Superquadric,
    as_points,
    farthest_point_sample,
    inside_outside,
    radial_distance,
    sample_surface,
    surface_hausdorff,
)
from .fileio import (
    GenConfig,
    ParamsRecord,
    ParseError,
    gen_synthetic,
    parse_params,
    parse_ply,
    record_from_superquadric,
    write_params,
    write_ply,
)
from .fitting import (
    DegenerateCloudError,
    FitConfig,
    FitResult,
    UnderDeterminedError,
    fit,
    initial_guesses,
)
from .metrics import (
    CameraIntrinsics,
    PoseHypothesis,
    accuracy_curve,
    mspd,
    mssd,
    project,
)
from .shapespace import (
    ShapeCategory,
    ShapeGrid,
    SymmetryGroup,
    categorize,
    default_grid,
    expand_symmetries,
    symmetry_group,
    template_points,
)

__version__ = "0.1.0"

__all__ = [
    "EPS_MIN",
    "CameraIntrinsics",
    "CanonicalizationResult",
    "DegenerateCloudError",
    "FitConfig",
    "FitResult",
    "GenConfig",
    "ParamsRecord",
    "ParseError",
    "PoseHypothesis",
    "ShapeCategory",
    "ShapeGrid",
    "Superquadric",
    "SymmetryGroup",
    "UnderDeterminedError",
    "accuracy_curve",
    "as_points",
    "canonicalize",
    "categorize",
    "compose_affine",
    "decompose_scale_shear",
    "default_grid",
    "duality_scale",
    "expand_symmetries",
    "farthest_point_sample",
    "fit",
    "gen_synthetic",
    "initial_guesses",
    "inside_outside",
    "mspd",
    "mssd",
    "parse_params",
    "parse_ply",
    "project",
    "radial_distance",
    "record_from_superquadric",
    "sample_surface",
    "surface_hausdorff",
    "symmetry_group",
    "template_points",
    "write_params",
    "write_ply",
]
