"""Selection matrices from restricted root systems, two-per-row column
matching with an exact oracle, and frame doubling on the SL(n,R)/SO(n)
matrix model."""

from .chamber import (
    BoundReport,
    FaceClass,
    enumerate_faces,
    fundamental_coweights,
    simple_system,
    stabilizer_codim,
    verify_codim_bounds,
)
from .framematrix import (
    FrameSpec,
    PropertyReport,
    SelectionMatrix,
    build_matrix,
    load_frame,
    make_frame,
    random_frames,
    verify_properties,
)
from .matcher import (
    AlgoTrace,
    MatchResult,
    greedy_match,
    oracle_match,
)
from .modelgeom import (
    DoubledFrame,
    ModelSpace,
    RatioEstimate,
    min_bracket_gain,
    pipeline_flat,
    pipeline_perturbed,
    q_subspace,
    sample_ratio,
    sample_ratios,
    snap_to_singular,
    stabilizer_generators,
)
from .rootdata import (
    Root,
    RootSystem,
    SpaceDescriptor,
    build_root_system,
    catalogue,
    space,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "FaceClass",
    "enumerate_faces",
    "fundamental_coweights",
    "simple_system",
    "stabilizer_codim",
    "verify_codim_bounds",
    "FrameSpec",
    "PropertyReport",
    "SelectionMatrix",
    "build_matrix",
    "load_frame",
    "make_frame",
    "random_frames",
    "verify_properties",
    "AlgoTrace",
    "MatchResult",
    "greedy_match",
    "oracle_match",
    "DoubledFrame",
    "ModelSpace",
    "RatioEstimate",
    "min_bracket_gain",
    "pipeline_flat",
    "pipeline_perturbed",
    "q_subspace",
    "sample_ratio",
    "sample_ratios",
    "snap_to_singular",
    "stabilizer_generators",
    "Root",
    "RootSystem",
    "SpaceDescriptor",
    "build_root_system",
    "catalogue",
    "space",
    "__version__",
]
