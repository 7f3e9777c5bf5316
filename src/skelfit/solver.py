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

calibrate_pair measures a rigidly linked sensor pair: its origin-to-origin
distances, and the scale from the tracks' units to meters.
"""
from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .capture import CaptureSession, write_csv
from .errors import AllZeroError, DegenerateInputError

DEFAULT_RANK_TOL = 1e-5
NOISELESS_RANK_TOL = 1e-8  # recommended for synthetic, noise-free data
MAX_HISTOGRAM_BINS = 1_000_000


class Classification(str, enum.Enum):
    """How much the relative motion constrains the joint location."""

    SPHERICAL = "spherical"  # fully determined point
    HINGE = "hinge"          # one free direction: rotation about a single axis
    RIGID = "rigid"          # no relative rotation; any point fits

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class JointFit:
    """One joint between a child (outboard) and parent (inboard) body.

    c and l locate the joint in the child and parent frames.  epsilon is
    the RMS of the per-frame residual norms, i.e. how far apart the two
    bodies' candidate joint points drift over the session.  A hinge
    carries its unit axis in both frames.  singular_values (the joint's
    diagnostic spectrum) and residual_per_frame are set by solve_joint;
    a joint read from skeleton JSON or taken from synth truth has None.
    """

    child: int
    parent: int
    c: np.ndarray
    l: np.ndarray
    epsilon: float
    classification: Classification
    axis_child: Optional[np.ndarray] = None
    axis_parent: Optional[np.ndarray] = None
    singular_values: Optional[np.ndarray] = None
    residual_per_frame: Optional[np.ndarray] = None


def _tracks(session: CaptureSession, body_a: int, body_b: int):
    if body_a == body_b:
        raise ValueError(f"body {body_a} given twice: the two bodies must differ")
    return session.track(body_a), session.track(body_b)


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


def kept_directions(singular_values: np.ndarray, rank_tol: float) -> np.ndarray:
    """The truncation rule: direction k is kept when s_k >= rank_tol * s_1.

    s_1 is the first entry along the last axis, so this takes one
    spectrum or a stack of them and returns a mask of the same shape.
    """
    return singular_values >= rank_tol * singular_values[..., :1]


def classify_rank(singular_values, rank_tol: float):
    """Count near-zero singular directions and name the joint type.

    Directions the truncation rule drops (kept_directions) are deficient:
    0 deficient -> spherical, 1 -> hinge, 2 or more -> rigid.
    """
    s = np.asarray(singular_values, dtype=np.float64)
    if s.ndim != 1 or np.any(s < 0) or np.any(np.diff(s) > 0):
        raise ValueError("singular values must be non-negative and non-increasing")
    if s[0] == 0:
        raise AllZeroError("all singular values are zero")
    deficient = int(np.count_nonzero(~kept_directions(s, rank_tol)))
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

    keep = kept_directions(s, rank_tol)
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
        epsilon=epsilon,
        classification=classification,
        axis_child=axis_child,
        axis_parent=axis_parent,
        singular_values=s,
        residual_per_frame=per_frame,
    )


@dataclass(frozen=True)
class PairCalibration:
    """Per-frame origin-to-origin distances of a rigidly linked pair."""

    mean_m: float
    std_m: float
    scale: float
    distances: np.ndarray


def calibrate_pair(
    session: CaptureSession, body_a: int, body_b: int, known_distance: Optional[float] = None
) -> PairCalibration:
    """Distance statistics between two sensor origins.

    scale = known_distance / mean converts emitted units to meters;
    without a known distance the scale reports 1.  A known distance must
    be finite and positive, and the two bodies must differ.
    """
    track_a, track_b = _tracks(session, body_a, body_b)
    if known_distance is not None and not 0.0 < known_distance < math.inf:
        raise ValueError(f"known_distance must be finite and positive, got {known_distance!r}")
    d = np.linalg.norm(track_a.translations - track_b.translations, axis=1)
    mean = float(d.mean())
    std = float(d.std(ddof=1)) if d.size > 1 else 0.0
    if known_distance is not None and mean <= 0.0:
        raise DegenerateInputError("mean sensor distance is zero")
    scale = 1.0 if known_distance is None else float(known_distance / mean)
    return PairCalibration(mean_m=mean, std_m=std, scale=scale, distances=d)


def _residuals(fit: JointFit) -> np.ndarray:
    if fit.residual_per_frame is None:
        raise ValueError(
            f"joint {fit.child} -> {fit.parent} has no per-frame residuals "
            "(only solve_joint makes them)"
        )
    return fit.residual_per_frame


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
    construction.  bin_width overrides the bin count when given.  More
    than MAX_HISTOGRAM_BINS bins, asked for directly or implied by
    bin_width, raise ValueError before anything is allocated, as does a
    fit that carries no residuals.
    """
    if not isinstance(bins, numbers.Integral) or not 1 <= bins <= MAX_HISTOGRAM_BINS:
        raise ValueError(
            f"bins must be a positive integer at most {MAX_HISTOGRAM_BINS}, got {bins!r}"
        )
    r = _residuals(fit)
    top = float(r.max())
    if bin_width is not None:
        if not 0.0 < bin_width < math.inf:
            raise ValueError(f"bin_width must be finite and positive, got {bin_width!r}")
        ratio = top / bin_width
        count = max(1, math.ceil(ratio)) if ratio < math.inf else ratio
        if count > MAX_HISTOGRAM_BINS:
            raise ValueError(
                f"bin_width {bin_width!r} gives {count} bins, "
                f"above the cap of {MAX_HISTOGRAM_BINS}"
            )
        edges = np.arange(count + 1) * bin_width
    else:
        edges = np.linspace(0.0, top if top > 0 else 1.0, bins + 1)
    counts, edges = np.histogram(r, bins=edges)
    return ResidualHistogram(edges=edges, counts=counts)


def write_residual_csv(path, fit: JointFit):
    residuals = _residuals(fit)  # before the file is opened, so a refusal writes nothing
    rows = ([k, repr(float(r))] for k, r in enumerate(residuals))
    write_csv(path, "frame,residual_m", rows)


def write_histogram_csv(path, hist: ResidualHistogram):
    rows = ([repr(lo), repr(hi), count] for lo, hi, count in hist.rows())
    write_csv(path, "bin_lo,bin_hi,count", rows)
