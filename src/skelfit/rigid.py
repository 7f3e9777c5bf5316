"""Rotation rules on 3x3 matrices, one matrix or a stack of frames.

A placement is ``x_out = R @ x_in + t``.  R may be any finite, invertible
3x3 matrix; orthonormality is not required, so noisy sensor rotations
pass through untouched.  All lengths are meters.  The pipeline keeps
placements as stacked (n, 3, 3) and (n, 3) arrays.

The validity rules for rotational components live here once, for one
matrix or a stack of frames: `is_non_finite`, `is_singular` and
`orthonormality_error`.  The first two are the checks every track
passes; they run over blocks of `FRAME_CHUNK` frames, so their
temporaries stay small however long the track.  `cofactors` is the one
3x3 determinant and inverse rule: `is_singular`, the relative rotations
of playback and its Newton polar step take their det and X^-T from it,
in closed form, with no per-frame LAPACK call, on frames scaled by
`scale_frames`.
`quaternion_matrix` builds every rotation synth draws;
`rotation_about_axis` feeds it (sin(angle/2) * axis, cos(angle/2)).
"""
from __future__ import annotations

import numpy as np

# |det R| must exceed this times ||R||_F^3 (scale-free singularity test).
DET_RTOL = 1e-12
FRAME_CHUNK = 1024  # frames a per-frame pass takes at once, so its memory does not grow with n


def _in_frame_blocks(rule, R: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """rule(R, *more) per frame, on FRAME_CHUNK frames at a time.

    R is (..., 3, 3) and each of `more` has R's leading axes; the answer
    has them too (a 0-d array for one matrix).  Each frame's answer
    depends on that frame alone, so the blocks change no decision, only
    the size of the temporaries.
    """
    R = np.asarray(R)
    lead = R.shape[:-2]
    R = R.reshape(-1, 3, 3)
    more = [np.asarray(x).reshape(len(R), *np.shape(x)[len(lead) :]) for x in more]
    out = np.empty(len(R), bool)
    for start in range(0, len(R), FRAME_CHUNK):
        block = slice(start, start + FRAME_CHUNK)
        out[block] = rule(R[block], *(x[block] for x in more))
    return out.reshape(lead)


def is_non_finite(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """True per frame where R (..., 3, 3) or t (..., 3) holds a NaN or inf."""
    return _in_frame_blocks(_non_finite, R, t)


def _non_finite(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    return ~(np.isfinite(R).all(axis=(-2, -1)) & np.isfinite(t).all(axis=-1))


def is_singular(R: np.ndarray) -> np.ndarray:
    """True per frame where |det R| <= DET_RTOL * ||R||_F^3; R is (..., 3, 3).

    R must be finite (check with `is_non_finite` first).  Each frame is
    first scaled by `scale_frames`, so the det and the norm neither
    overflow nor underflow.  The scaling is exact and the rule is
    scale-free, so a frame whose unscaled det and norm did not over- or
    underflow keeps its decision.
    """
    return _in_frame_blocks(_singular, R)


def _singular(R: np.ndarray) -> np.ndarray:
    R, _ = scale_frames(R)
    _, dets = cofactors(R)
    norms = np.sqrt((R**2).sum(axis=(-2, -1)))
    return np.abs(dets) <= DET_RTOL * norms**3


def scale_frames(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R * 2**-exp, exp) per frame of R (..., 3, 3), exact: exp is the np.frexp
    exponent of the frame's largest |entry|, which the scaling brings into
    [0.5, 1); a zero frame, or one holding an inf or a NaN, gets exp 0."""
    _, exp = np.frexp(_abs_max(R))
    return np.ldexp(R, -exp[..., None, None]), exp


def _abs_max(R: np.ndarray) -> np.ndarray:
    """Largest |entry| per frame of R (..., 3, 3), NaN if it holds one: an
    np.maximum chain over the nine entries, several times faster than a max
    reduction over the two small axes."""
    a = np.abs(R).reshape(R.shape[:-2] + (9,))
    top = a[..., 0]
    for k in range(1, 9):
        top = np.maximum(top, a[..., k])
    return top


def orthonormality_error(R: np.ndarray) -> np.ndarray:
    """Max-norm deviation of R^T R from the identity, per frame of (..., 3, 3)."""
    a, b, c = R[..., 0], R[..., 1], R[..., 2]
    # the six distinct entries of the symmetric R^T R: columns dotted pairwise
    diagonal = (_dot(a, a) - 1.0, _dot(b, b) - 1.0, _dot(c, c) - 1.0)
    off_diagonal = (_dot(a, b), _dot(a, c), _dot(b, c))
    return np.maximum.reduce([np.abs(g) for g in diagonal + off_diagonal])


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def cofactors(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cof, det) per frame of X (..., 3, 3), so that X^-T = cof / det.

    With columns a, b, c of X, cof has columns b x c, c x a and a x b,
    and det = a . (b x c).  Entries are written elementwise, one
    expression each, so a stack of n frames costs a few dozen array
    operations of length n.  X is not rescaled here: a caller whose
    entries may be far from 1 scales each frame by a power of two first
    (`scale_frames`), which the products keep exact.
    """
    x00, x01, x02 = X[..., 0, 0], X[..., 0, 1], X[..., 0, 2]
    x10, x11, x12 = X[..., 1, 0], X[..., 1, 1], X[..., 1, 2]
    x20, x21, x22 = X[..., 2, 0], X[..., 2, 1], X[..., 2, 2]
    cof = np.empty(X.shape)
    cof[..., 0, 0] = x11 * x22 - x21 * x12
    cof[..., 1, 0] = x21 * x02 - x01 * x22
    cof[..., 2, 0] = x01 * x12 - x11 * x02
    cof[..., 0, 1] = x12 * x20 - x22 * x10
    cof[..., 1, 1] = x22 * x00 - x02 * x20
    cof[..., 2, 1] = x02 * x10 - x12 * x00
    cof[..., 0, 2] = x10 * x21 - x20 * x11
    cof[..., 1, 2] = x20 * x01 - x00 * x21
    cof[..., 2, 2] = x00 * x11 - x10 * x01
    det = x00 * cof[..., 0, 0] + x10 * cof[..., 1, 0] + x20 * cof[..., 2, 0]
    return cof, det


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
