"""Rotation rules on 3x3 matrices, one matrix or a stack of frames.

A placement is ``x_out = R @ x_in + t``.  R may be any finite, invertible
3x3 matrix; orthonormality is not required, so noisy sensor rotations
pass through untouched.  All lengths are meters.  The pipeline keeps
placements as stacked (n, 3, 3) and (n, 3) arrays.

The validity rules for rotational components live here once, for one
matrix or a stack of frames: `is_non_finite`, `is_singular` and
`orthonormality_error`.  `quaternion_matrix` builds every rotation synth
draws; `rotation_about_axis` feeds it (sin(angle/2) * axis, cos(angle/2)).
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


def quaternion_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) from unit quaternions (..., 4) read as (x, y, z, w)."""
    x, y, z, w = np.moveaxis(q, -1, 0)
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = x2 - y2 - z2 + w2
    R[..., 0, 1] = 2.0 * (xy - zw)
    R[..., 0, 2] = 2.0 * (xz + yw)
    R[..., 1, 0] = 2.0 * (xy + zw)
    R[..., 1, 1] = -x2 + y2 - z2 + w2
    R[..., 1, 2] = 2.0 * (yz - xw)
    R[..., 2, 0] = 2.0 * (xz - yw)
    R[..., 2, 1] = 2.0 * (yz + xw)
    R[..., 2, 2] = -x2 - y2 + z2 + w2
    return R


def rotation_about_axis(axis, angle) -> np.ndarray:
    """Rotation matrices for right-handed turns of `angle` (...) radians about `axis` (..., 3)."""
    a = np.asarray(axis, dtype=np.float64)
    norm = np.sqrt(np.einsum("...i,...i->...", a, a))[..., None]
    if np.any(norm == 0):
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * np.asarray(angle, dtype=np.float64)
    xyz = np.sin(half)[..., None] * (a / norm)
    q = np.empty(xyz.shape[:-1] + (4,))
    q[..., :3] = xyz
    q[..., 3] = np.cos(half)
    return quaternion_matrix(q)
