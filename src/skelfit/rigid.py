"""Rigid/affine transform algebra on 3x3 matrices plus translations.

A placement is ``x_out = R @ x_in + t``.  R may be any invertible 3x3
matrix; orthonormality is an optional, validated claim rather than a
requirement, so noisy sensor rotations pass through untouched.  All
lengths are meters.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularRotationError

# |det R| must exceed this times ||R||_F^3 (scale-free singularity test).
DET_RTOL = 1e-12

# Orthonormality: hard bound for the `orthonormal` flag, loose bound for
# advisory warnings on sensor data.
ORTHO_ATOL = 1e-6
ORTHO_WARN_ATOL = 1e-3


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


def orthonormality_error(R: np.ndarray) -> float:
    """Max-norm deviation of R^T R from the identity."""
    return float(np.abs(R.T @ R - np.eye(3)).max())


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
    orthonormal : bool
        Claim that R is a proper rotation; validated to 1e-6 max-norm
        and det R > 0 when set.
    """

    R: np.ndarray
    t: np.ndarray
    orthonormal: bool = field(default=False, compare=False)

    def __post_init__(self):
        R = _as_matrix(self.R)
        t = _as_vector(self.t)
        det = np.linalg.det(R)
        if abs(det) <= DET_RTOL * np.linalg.norm(R) ** 3:
            raise SingularRotationError(f"rotational component is singular (det={det:g})")
        if self.orthonormal:
            err = orthonormality_error(R)
            if err > ORTHO_ATOL or det <= 0:
                raise ValueError(
                    f"claimed orthonormal but ||R^T R - I||_max = {err:g}, det = {det:g}"
                )
        R.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)

    @classmethod
    def identity(cls) -> "Transform":
        return cls(np.eye(3), np.zeros(3), orthonormal=True)

    def apply(self, x) -> np.ndarray:
        """Map a point through this placement: R @ x + t."""
        return self.R @ np.asarray(x, dtype=np.float64) + self.t

    def invert(self) -> "Transform":
        """Inverse placement: (R^-1, R^-1 @ (-t))."""
        Rinv = np.linalg.inv(self.R)
        return Transform(Rinv, Rinv @ (-self.t), orthonormal=self.orthonormal)

    def compose(self, other: "Transform") -> "Transform":
        """Placement equal to applying `other` first, then self."""
        return Transform(
            self.R @ other.R,
            self.R @ other.t + self.t,
            orthonormal=self.orthonormal and other.orthonormal,
        )

    def __matmul__(self, other: "Transform") -> "Transform":
        return self.compose(other)

    def warn_if_not_orthonormal(self, label: str = "") -> bool:
        """Advisory check for inputs that claim to be rotations."""
        err = orthonormality_error(self.R)
        if err > ORTHO_WARN_ATOL:
            warnings.warn(f"rotation {label} deviates from orthonormal by {err:g}")
            return True
        return False


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
