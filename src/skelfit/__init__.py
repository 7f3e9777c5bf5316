"""Joint, limb, and hierarchy recovery from world-transform streams."""

from .capture import (
    BodyTrack,
    CaptureSession,
    load_labels,
    load_session,
    with_labels,
    write_labels,
    write_session,
)
from .errors import (
    AllZeroError,
    DegenerateInputError,
    DuplicateCellError,
    IncompleteMatrixError,
    InvalidSpecError,
    MissingCellError,
    MissingRotationError,
    NotAdjacentError,
    ParseError,
    SingularRotationError,
    SkelfitError,
)
from .hierarchy import (
    DEFAULT_LOOP_FACTOR,
    FitMatrix,
    HierarchyResult,
    build_fit_matrix,
    infer_hierarchy,
    load_parent_map,
    write_fit_matrix_csv,
    write_parent_map,
)
from .rigid import orthonormality_error, rotation_about_axis
from .skeleton import (
    SkeletonModel,
    adjacent_joint_pairs,
    fit_skeleton,
    forward_kinematics,
    joint_gaps,
    limb_length,
    load_skeleton,
    reconstruct,
    save_skeleton,
)
from .solver import (
    DEFAULT_RANK_TOL,
    NOISELESS_RANK_TOL,
    Classification,
    JointFit,
    PairCalibration,
    ResidualHistogram,
    assemble_system,
    calibrate_pair,
    classify_rank,
    residual_histogram,
    solve_joint,
)


def __getattr__(name):
    # the names of __all__ not imported above are synth's; they resolve on first
    # use, so that a process that only fits or replays, such as every CLI step
    # but `synth`, never imports it
    if name in __all__:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AllZeroError",
    "BodyTrack",
    "CaptureSession",
    "Classification",
    "DEFAULT_LOOP_FACTOR",
    "DEFAULT_RANK_TOL",
    "DegenerateInputError",
    "DuplicateCellError",
    "Excitation",
    "FitMatrix",
    "HierarchyResult",
    "IncompleteMatrixError",
    "InvalidSpecError",
    "JointFit",
    "MissingCellError",
    "MissingRotationError",
    "NOISELESS_RANK_TOL",
    "NoiseSpec",
    "NotAdjacentError",
    "PRESETS",
    "PairCalibration",
    "ParseError",
    "ResidualHistogram",
    "RootMotion",
    "SingularRotationError",
    "SkeletonModel",
    "SkelfitError",
    "SynthBody",
    "SynthSpec",
    "adjacent_joint_pairs",
    "assemble_system",
    "build_fit_matrix",
    "calibrate_pair",
    "classify_rank",
    "figure16_spec",
    "fit_skeleton",
    "forward_kinematics",
    "generate",
    "infer_hierarchy",
    "joint_gaps",
    "limb_length",
    "linkage_spec",
    "load_labels",
    "load_parent_map",
    "load_session",
    "load_skeleton",
    "load_spec",
    "orthonormality_error",
    "reconstruct",
    "residual_histogram",
    "rigid_pair_spec",
    "rotation_about_axis",
    "rotational_dof",
    "save_skeleton",
    "save_spec",
    "solve_joint",
    "truth_model",
    "with_labels",
    "write_fit_matrix_csv",
    "write_labels",
    "write_parent_map",
    "write_session",
]
