"""Per-pair joint estimation.

Two bodies connected by a rotary joint share one point that both frames
map to the same world location every frame.  Writing that point as c in
the child frame and l in the parent frame gives, for frame k,

    R_child_k @ c + t_child_k = R_parent_k @ l + t_parent_k

which stacks over all n frames into a 3n x 6 linear system in
u = [c; l].  The system is solved by singular value decomposition; when
the pair's relative motion does not pin the point down (a single-axis
joint, or no relative motion at all) the small singular directions are
dropped and the minimum-norm solution is returned, so the reported
point stays closest to both body origins.
"""
from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .capture import CaptureSession
from .errors import AllZeroError, DegenerateInputError

DEFAULT_RANK_TOL = 1e-5
NOISELESS_RANK_TOL = 1e-8  # recommended for synthetic, noise-free data


class Classification(str, enum.Enum):
    """How much the relative motion constrains the joint location."""

    SPHERICAL = "spherical"  # fully determined point
    HINGE = "hinge"          # one free direction: rotation about a single axis
    RIGID = "rigid"          # no relative rotation; any point fits

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class JointFit:
    """Solved joint between a child (outboard) and parent (inboard) body.

    c and l locate the joint in the child and parent frames.  epsilon is
    the RMS of the per-frame residual norms, i.e. how far apart the two
    bodies' candidate joint points drift over the session.
    """

    child: int
    parent: int
    c: np.ndarray
    l: np.ndarray
    singular_values: np.ndarray
    residual_per_frame: np.ndarray
    epsilon: float
    classification: Classification
    hinge_axis_child: Optional[np.ndarray] = None
    hinge_axis_parent: Optional[np.ndarray] = None

    @property
    def u(self) -> np.ndarray:
        """Stacked solution vector [c; l]."""
        return np.concatenate([self.c, self.l])


def _tracks(session: CaptureSession, child: int, parent: int):
    if child == parent:
        raise ValueError("child and parent must differ")
    return session.track(child), session.track(parent)


def assemble_system(session: CaptureSession, child: int, parent: int):
    """Stack the per-frame joint constraints into (A, b).

    Row block k of A is [R_child_k | -R_parent_k]; the matching block of
    b is t_parent_k - t_child_k.  A is (3n, 6), b is (3n,).
    """
    tc, tp = _tracks(session, child, parent)
    n = session.frame_count
    A = np.empty((3 * n, 6))
    A[:, :3] = tc.rotations.reshape(3 * n, 3)
    A[:, 3:] = -tp.rotations.reshape(3 * n, 3)
    b = (tp.translations - tc.translations).reshape(3 * n)
    return A, b


def classify_rank(singular_values, rank_tol: float):
    """Count near-zero singular directions and name the joint type.

    Values below rank_tol times the largest value are deficient:
    0 deficient -> spherical, 1 -> hinge, 2 or more -> rigid.
    """
    s = np.asarray(singular_values, dtype=np.float64)
    if s.ndim != 1 or np.any(s < 0) or np.any(np.diff(s) > 0):
        raise ValueError("singular values must be non-negative and non-increasing")
    if s[0] == 0:
        raise AllZeroError("all singular values are zero")
    deficient = int(np.count_nonzero(s < rank_tol * s[0]))
    if deficient == 0:
        return Classification.SPHERICAL, deficient
    if deficient == 1:
        return Classification.HINGE, deficient
    return Classification.RIGID, deficient


def solve_joint(
    session: CaptureSession,
    child: int,
    parent: int,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> JointFit:
    """Fit the joint between two bodies by SVD least squares.

    Singular directions below rank_tol (relative to the largest singular
    value) are nulled, which makes under-constrained cases return the
    solution of minimum Euclidean norm.  For a hinge, the one deficient
    direction of V yields the rotation axis: its first three components
    live in the child frame, the last three in the parent frame.
    """
    if not 0.0 < rank_tol < 1.0:
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol}")
    if session.frame_count < 2:
        raise DegenerateInputError(
            f"need at least 2 frames, got {session.frame_count}"
        )
    A, b = assemble_system(session, child, parent)
    n = session.frame_count

    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    classification, _ = classify_rank(s, rank_tol)

    keep = s >= rank_tol * s[0]
    coeffs = U.T @ b
    scaled = np.where(keep, coeffs / np.where(keep, s, 1.0), 0.0)
    u = Vt.T @ scaled

    residual = (A @ u - b).reshape(n, 3)
    per_frame = np.linalg.norm(residual, axis=1)
    epsilon = float(np.sqrt(np.mean(per_frame**2)))

    axis_child = axis_parent = None
    if classification is Classification.HINGE:
        v = Vt[5].copy()
        head = v[:3]
        if head[np.argmax(np.abs(head))] < 0:
            v = -v
        axis_child = v[:3] / np.linalg.norm(v[:3])
        axis_parent = v[3:] / np.linalg.norm(v[3:])

    return JointFit(
        child=child,
        parent=parent,
        c=u[:3],
        l=u[3:],
        singular_values=s,
        residual_per_frame=per_frame,
        epsilon=epsilon,
        classification=classification,
        hinge_axis_child=axis_child,
        hinge_axis_parent=axis_parent,
    )


@dataclass(frozen=True)
class ResidualSummary:
    min: float
    max: float
    mean: float
    rms: float


def residual_summary(fit: JointFit) -> ResidualSummary:
    r = fit.residual_per_frame
    return ResidualSummary(
        min=float(r.min()),
        max=float(r.max()),
        mean=float(r.mean()),
        rms=float(np.sqrt(np.mean(r**2))),
    )


@dataclass(frozen=True)
class ResidualHistogram:
    """Counts of residual magnitudes falling in [edges[i], edges[i+1])."""

    edges: np.ndarray
    counts: np.ndarray

    def rows(self) -> list[tuple[float, float, int]]:
        return [
            (float(self.edges[i]), float(self.edges[i + 1]), int(self.counts[i]))
            for i in range(len(self.counts))
        ]


def residual_histogram(
    fit: JointFit, bin_width: Optional[float] = None, bins: int = 30
) -> ResidualHistogram:
    """Histogram of residual magnitudes; bins start at zero.

    Magnitudes are absolute values, so the distribution is one-sided by
    construction.  bin_width overrides the bin count when given.
    """
    r = fit.residual_per_frame
    top = float(r.max())
    if bin_width is not None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        count = max(1, math.ceil(top / bin_width)) if top > 0 else 1
        edges = np.arange(count + 1) * bin_width
    else:
        edges = np.linspace(0.0, top if top > 0 else 1.0, bins + 1)
    counts, edges = np.histogram(r, bins=edges)
    return ResidualHistogram(edges=edges, counts=counts)


def write_residual_csv(path, fit: JointFit):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "residual_m"])
        for k, r in enumerate(fit.residual_per_frame):
            writer.writerow([k, repr(float(r))])


def write_histogram_csv(path, hist: ResidualHistogram):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count"])
        for lo, hi, count in hist.rows():
            writer.writerow([repr(lo), repr(hi), count])
