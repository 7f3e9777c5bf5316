"""Rigid/affine transform algebra on 3x3 matrices plus translations.

A placement is ``x_out = R @ x_in + t``.  R may be any finite, invertible
3x3 matrix; orthonormality is not required, so noisy sensor rotations
pass through untouched.  All lengths are meters.

The validity rules for rotational components live here once, for one
matrix or a stack of frames: `is_non_finite`, `is_singular` and
`orthonormality_error`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularRotationError

# |det R| must exceed this times ||R||_F^3 (scale-free singularity test).
DET_RTOL = 1e-12


def is_non_finite(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """True per frame where R (..., 3, 3) or t (..., 3) holds a NaN or inf."""
    return ~(np.isfinite(R).all(axis=(-2, -1)) & np.isfinite(t).all(axis=-1))


def is_singular(R: np.ndarray) -> np.ndarray:
    """True per frame where |det R| <= DET_RTOL * ||R||_F^3; R is (..., 3, 3).

    R must be finite (check with `is_non_finite` first).
    """
    dets = np.linalg.det(R)
    norms = np.sqrt((R**2).sum(axis=(-2, -1)))
    return np.abs(dets) <= DET_RTOL * norms**3


def orthonormality_error(R: np.ndarray) -> np.ndarray:
    """Max-norm deviation of R^T R from the identity, per frame of (..., 3, 3)."""
    gram = np.einsum("...ja,...jb->...ab", R, R)
    return np.abs(gram - np.eye(3)).max(axis=(-2, -1))


def _as_matrix(R) -> np.ndarray:
    R = np.array(R, dtype=np.float64)
    if R.shape != (3, 3):
        raise ValueError(f"rotational component must be 3x3, got {R.shape}")
    return R


def _as_vector(t) -> np.ndarray:
    t = np.array(t, dtype=np.float64)
    if t.shape != (3,):
        raise ValueError(f"translation must be length 3, got {t.shape}")
    return t


@dataclass(frozen=True)
class Transform:
    """One rigid placement: rotational component R and translation t.

    Parameters
    ----------
    R : (3, 3) array_like
        Invertible matrix. Raises SingularRotationError if
        |det R| <= 1e-12 * ||R||_F^3.
    t : (3,) array_like
        Translation in meters.

    Raises ValueError if R or t holds a NaN or infinite value.
    """

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        R = _as_matrix(self.R)
        t = _as_vector(self.t)
        if is_non_finite(R, t):
            raise ValueError("transform holds a non-finite value")
        if is_singular(R):
            raise SingularRotationError(
                f"rotational component is singular (det={np.linalg.det(R):g})"
            )
        R.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)

    @classmethod
    def identity(cls) -> "Transform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, x) -> np.ndarray:
        """Map a point through this placement: R @ x + t."""
        return self.R @ np.asarray(x, dtype=np.float64) + self.t

    def invert(self) -> "Transform":
        """Inverse placement: (R^-1, R^-1 @ (-t))."""
        Rinv = np.linalg.inv(self.R)
        return Transform(Rinv, Rinv @ (-self.t))

    def compose(self, other: "Transform") -> "Transform":
        """Placement equal to applying `other` first, then self."""
        return Transform(self.R @ other.R, self.R @ other.t + self.t)

    def __matmul__(self, other: "Transform") -> "Transform":
        return self.compose(other)


def relative(world_i: Transform, world_j: Transform) -> Transform:
    """Placement of frame i seen from frame j, given both world placements.

    Equals world_j.invert() composed with world_i, so that
    world_j.compose(relative(world_i, world_j)) == world_i.
    """
    return world_j.invert().compose(world_i)


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a right-handed turn of `angle` radians about `axis`."""
    a = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(a)
    if n == 0:
        raise ValueError("rotation axis must be nonzero")
    x, y, z = a / n
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)
