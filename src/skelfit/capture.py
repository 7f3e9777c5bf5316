"""Capture-session data model and transform-stream CSV ingestion.

A session is m body tracks, each holding n world placements sampled at
the same n frames.  The on-disk format is one CSV row per (frame, body)
cell with the rotational component in row-major order:

    frame,body,r00,r01,r02,r10,r11,r12,r20,r21,r22,tx,ty,tz

Rows may appear in any order but every (frame, body) cell must appear
exactly once.  An optional sidecar maps body indices to labels:

    body,label
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DuplicateCellError,
    MissingCellError,
    ParseError,
    SingularRotationError,
)
from .rigid import is_non_finite, is_singular, orthonormality_error

CSV_HEADER = "frame,body,r00,r01,r02,r10,r11,r12,r20,r21,r22,tx,ty,tz"

SHORT_SESSION_FRAMES = 30  # advisory floor for a reliable fit
ORTHO_WARN_ATOL = 1e-3  # advisory bound on sensor rotations' orthonormality


@dataclass(frozen=True)
class BodyTrack:
    """World placements of one body across all frames.

    Rotations are stored stacked as (n, 3, 3) and translations as (n, 3)
    so per-pair systems can be assembled without touching Python-level
    Transform objects.
    """

    body_id: int
    rotations: np.ndarray
    translations: np.ndarray
    label: Optional[str] = None

    def __post_init__(self):
        rot = np.array(self.rotations, dtype=np.float64)
        tr = np.array(self.translations, dtype=np.float64)
        if rot.ndim != 3 or rot.shape[1:] != (3, 3):
            raise ValueError(f"rotations must be (n, 3, 3), got {rot.shape}")
        if tr.shape != (rot.shape[0], 3):
            raise ValueError(f"translations must be ({rot.shape[0]}, 3), got {tr.shape}")
        bad = np.flatnonzero(is_non_finite(rot, tr))
        if bad.size:
            raise ValueError(f"body {self.body_id}: non-finite value at frame {bad[0]}")
        bad = np.flatnonzero(is_singular(rot))
        if bad.size:
            raise SingularRotationError(
                f"body {self.body_id}: singular rotation at frame {bad[0]}"
            )
        rot.setflags(write=False)
        tr.setflags(write=False)
        object.__setattr__(self, "rotations", rot)
        object.__setattr__(self, "translations", tr)

    def __len__(self) -> int:
        return self.rotations.shape[0]


@dataclass(frozen=True)
class CaptureSession:
    """Immutable m-body, n-frame collection of world transforms."""

    bodies: tuple[BodyTrack, ...]
    frame_count: int
    sample_interval: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "bodies", tuple(self.bodies))
        ids = [b.body_id for b in self.bodies]
        if ids != list(range(len(ids))):
            raise ValueError(f"body ids must be 0..m-1 in order, got {ids}")
        if self.frame_count < 1:
            raise ValueError("frame_count must be at least 1")
        for b in self.bodies:
            if len(b) != self.frame_count:
                raise ValueError(
                    f"body {b.body_id}: {len(b)} frames, session has {self.frame_count}"
                )

    @property
    def body_count(self) -> int:
        return len(self.bodies)

    def track(self, body: int) -> BodyTrack:
        if not 0 <= body < len(self.bodies):
            raise IndexError(f"body index {body} out of range 0..{len(self.bodies) - 1}")
        return self.bodies[body]

    def label_of(self, body: int) -> str:
        t = self.track(body)
        return t.label if t.label is not None else str(body)

    def resolve_body(self, name: str) -> int:
        """Body index from a decimal index or a sidecar label."""
        try:
            idx = int(name)
        except ValueError:
            for b in self.bodies:
                if b.label == name:
                    return b.body_id
            raise KeyError(f"no body labeled {name!r}")
        self.track(idx)
        return idx


def load_session(path, unit_scale: float = 1.0) -> CaptureSession:
    """Read a transform-stream CSV into a session.

    Translations are multiplied by `unit_scale` on the way in, so a file
    recorded in centimeters loads to meters with unit_scale=0.01.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if [h.strip() for h in header] != CSV_HEADER.split(","):
            raise ParseError(f"{path}: bad header {','.join(header)!r}")

        cells: dict[tuple[int, int], np.ndarray] = {}
        rows: dict[tuple[int, int], int] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 14:
                raise ParseError(f"{path} row {lineno}: expected 14 fields, got {len(row)}")
            try:
                frame = int(row[0])
                body = int(row[1])
                values = np.array([float(v) for v in row[2:]], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"{path} row {lineno}: {exc}") from None
            if frame < 0 or body < 0:
                raise ParseError(f"{path} row {lineno}: negative frame or body index")
            key = (frame, body)
            if key in cells:
                raise DuplicateCellError(frame, body, lineno)
            cells[key] = values
            rows[key] = lineno

    if not cells:
        raise ParseError(f"{path}: no data rows")

    n = max(f for f, _ in cells) + 1
    m = max(b for _, b in cells) + 1
    for body in range(m):
        for frame in range(n):
            if (frame, body) not in cells:
                raise MissingCellError(frame, body)

    tracks = []
    for body in range(m):
        data = np.stack([cells[(frame, body)] for frame in range(n)])
        rot = data[:, :9].reshape(n, 3, 3)
        bad = np.flatnonzero(is_non_finite(rot, data[:, 9:]))
        if bad.size:
            lineno = rows[(int(bad[0]), body)]
            raise ParseError(
                f"{path} row {lineno}: non-finite value (frame {bad[0]}, body {body})"
            )
        tr = data[:, 9:] * unit_scale
        bad = np.flatnonzero(is_singular(rot))
        if bad.size:
            lineno = rows[(int(bad[0]), body)]
            raise SingularRotationError(
                f"{path} row {lineno}: singular rotation (frame {bad[0]}, body {body})"
            )
        tracks.append(BodyTrack(body, rot, tr))

    return CaptureSession(tuple(tracks), n)


def write_session(path, session: CaptureSession):
    """Write the transform-stream CSV; floats round-trip bit-exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for frame in range(session.frame_count):
            for body in session.bodies:
                cells = [str(frame), str(body.body_id)]
                cells += [repr(float(v)) for v in body.rotations[frame].ravel()]
                cells += [repr(float(v)) for v in body.translations[frame]]
                fh.write(",".join(cells) + "\n")


def load_labels(path) -> dict[int, str]:
    """Read the `body,label` sidecar CSV."""
    labels: dict[int, str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["body", "label"]:
            raise ParseError(f"{path}: bad labels header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"{path} row {lineno}: expected 2 fields")
            try:
                body = int(row[0])
            except ValueError as exc:
                raise ParseError(f"{path} row {lineno}: {exc}") from None
            if body in labels:
                raise ParseError(f"{path} row {lineno}: body {body} listed twice")
            if row[1] in labels.values():
                raise ParseError(f"{path} row {lineno}: label {row[1]!r} names two bodies")
            labels[body] = row[1]
    return labels


def write_labels(path, labels: dict[int, str]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["body", "label"])
        for body in sorted(labels):
            writer.writerow([body, labels[body]])


def with_labels(session: CaptureSession, labels: dict[int, str]) -> CaptureSession:
    bodies = tuple(
        BodyTrack(b.body_id, b.rotations, b.translations, labels.get(b.body_id, b.label))
        for b in session.bodies
    )
    return CaptureSession(bodies, session.frame_count, session.sample_interval)


def validate(session: CaptureSession) -> list[str]:
    """Advisory checks; returns human-readable warnings, never raises."""
    notes = []
    for body in session.bodies:
        errs = orthonormality_error(body.rotations)
        for k in np.nonzero(errs > ORTHO_WARN_ATOL)[0]:
            notes.append(
                f"body {body.body_id} frame {k}: rotation deviates from orthonormal "
                f"by {errs[k]:g}"
            )
    if session.frame_count < SHORT_SESSION_FRAMES:
        notes.append(
            f"only {session.frame_count} frames; fewer than {SHORT_SESSION_FRAMES} "
            "may give an unreliable fit"
        )
    return notes
