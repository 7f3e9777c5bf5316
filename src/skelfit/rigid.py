"""Rotation rules on 3x3 matrices, one matrix or a stack of frames.

A placement is ``x_out = R @ x_in + t``.  R may be any finite, invertible
3x3 matrix; orthonormality is not required, so noisy sensor rotations
pass through untouched.  All lengths are meters.  The pipeline keeps
placements as stacked (n, 3, 3) and (n, 3) arrays.

The validity rules for rotational components live here once, for one
matrix or a stack of frames: `is_non_finite`, `is_singular` and
`orthonormality_error`.  `rotation_about_axis` builds the turns synth
plays back.
"""
from __future__ import annotations

import numpy as np

# |det R| must exceed this times ||R||_F^3 (scale-free singularity test).
DET_RTOL = 1e-12


def is_non_finite(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """True per frame where R (..., 3, 3) or t (..., 3) holds a NaN or inf."""
    return ~(np.isfinite(R).all(axis=(-2, -1)) & np.isfinite(t).all(axis=-1))


def is_singular(R: np.ndarray) -> np.ndarray:
    """True per frame where |det R| <= DET_RTOL * ||R||_F^3; R is (..., 3, 3).

    R must be finite (check with `is_non_finite` first).  Each frame is
    first scaled by a power of two that brings its largest entry into
    [0.5, 1), so the det and the norm neither overflow nor underflow.
    The scaling is exact and the rule is scale-free, so a frame whose
    unscaled det and norm did not over- or underflow keeps its decision.
    """
    _, exp = np.frexp(np.abs(R).max(axis=(-2, -1)))
    R = np.ldexp(R, -exp[..., None, None])
    dets = np.linalg.det(R)
    norms = np.sqrt((R**2).sum(axis=(-2, -1)))
    return np.abs(dets) <= DET_RTOL * norms**3


def orthonormality_error(R: np.ndarray) -> np.ndarray:
    """Max-norm deviation of R^T R from the identity, per frame of (..., 3, 3)."""
    gram = np.einsum("...ja,...jb->...ab", R, R)
    return np.abs(gram - np.eye(3)).max(axis=(-2, -1))


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a right-handed turn of `angle` radians about `axis`."""
    a = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(a)
    if n == 0:
        raise ValueError("rotation axis must be nonzero")
    x, y, z = a / n
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)
