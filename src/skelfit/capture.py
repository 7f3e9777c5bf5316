"""Capture-session data model, and the one home of skelfit's file formats.

A session is m body tracks, each holding n world placements sampled at
the same n frames.  The on-disk format is one CSV row per (frame, body)
cell with the rotational component in row-major order:

    frame,body,r00,r01,r02,r10,r11,r12,r20,r21,r22,tx,ty,tz

Rows may appear in any order but every (frame, body) cell must appear
exactly once.  An optional sidecar maps body indices to labels:

    body,label

`load_session` reads a file in two ways.  First it reads the whole table
of an ASCII file with one `np.loadtxt` pass and checks the (frame, body)
cells with `np.bincount`; that path reads every good file that
`write_session` writes.  When it refuses a file, the row parser reads
the file again.  The row parser stays because it names the row of a bad
cell, and because it accepts the few tokens loadtxt refuses but `int()`,
`float()` and the csv module take: digit separators (`1_0`), non-ASCII
digits and spaces, and quoted cells.  When loadtxt accepts a cell, its
value equals Python's, bit for bit.

Every other CSV or JSON file goes through `csv_records`, `write_csv`,
`read_json` and `write_json`, as UTF-8; bad text raises ParseError naming
the file.  `json_integer` refuses a bool, float or string as an integer.
"""
from __future__ import annotations

import csv
import json
import math
from contextlib import closing
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

_ROW_DTYPE = np.dtype(
    [("frame", np.int64), ("body", np.int64), ("values", np.float64, (12,))]
)

_WRITE_BLOCK_ROWS = 1024  # rows write_session gathers at once; bounds its extra memory

SHORT_SESSION_FRAMES = 30  # advisory floor for a reliable fit
ORTHO_WARN_ATOL = 1e-3  # advisory bound on sensor rotations' orthonormality


@dataclass(frozen=True)
class BodyTrack:
    """World placements of one body across all frames.

    Rotations are stored stacked as (n, 3, 3) and translations as (n, 3),
    so per-pair systems are assembled with whole-array operations.
    Construction raises ValueError at the first frame holding a NaN or
    inf, and SingularRotationError at the first singular rotation.
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
    recorded in centimeters loads to meters with unit_scale=0.01; it must
    be finite and positive.
    """
    if not 0.0 < unit_scale < math.inf:
        raise ValueError(f"unit_scale must be finite and positive, got {unit_scale!r}")
    session = _load_table(path, unit_scale)
    return session if session is not None else _load_rows(path, unit_scale)


def _load_table(path, unit_scale: float) -> Optional[CaptureSession]:
    """The whole-file read: one `np.loadtxt` pass and vectorised checks.

    Returns None when the file is not a good session or holds a token
    loadtxt refuses; the row parser then reads it again, to load it or
    to name what is wrong.  Only opening the file can raise.

    The file is decoded as ASCII, so a file holding any other character
    goes to the row parser: numpy 2.4's loadtxt can crash the process
    on a high code point such as U+F5075 in an integer column.
    """
    with open(path, newline="", encoding="ascii") as fh:
        try:
            line = fh.readline()
            # a quote may span lines, which only the row parser's reader follows
            if '"' in line or not _is_header(next(csv.reader([line])), CSV_HEADER):
                return None
            # loadtxt warns on a file with no data rows; leave those to the row parser
            start = fh.tell()
            while (chunk := fh.read(1 << 16)) and not chunk.strip("\r\n"):
                pass
            if not chunk:
                return None
            fh.seek(start)
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1, dtype=_ROW_DTYPE)
        except (ValueError, csv.Error):  # a field count, token, int64 range or non-ASCII
            return None

    frame, body = table["frame"], table["body"]
    if frame.min() < 0 or body.min() < 0:
        return None
    n, m = int(frame.max()) + 1, int(body.max()) + 1
    # n * m is a Python int, so a huge index is refused before any n-by-m array
    if n * m != len(table) or not (np.bincount(frame * m + body) == 1).all():
        return None
    data = np.empty((m, n, 12))
    data[body, frame] = table["values"]
    del table, frame, body

    tracks = []
    for b in range(m):
        with np.errstate(over="ignore"):  # BodyTrack reports an overflow as non-finite
            tr = data[b, :, 9:] * unit_scale
        try:
            tracks.append(BodyTrack(b, data[b, :, :9].reshape(n, 3, 3), tr))
        except (ValueError, SingularRotationError):
            return None
    return CaptureSession(tuple(tracks), n)


def _load_rows(path, unit_scale: float) -> CaptureSession:
    """The row parser: reads any good file, and names the row of a bad one."""
    cells: dict[tuple[int, int], np.ndarray] = {}
    rows: dict[tuple[int, int], int] = {}
    with closing(csv_records(path, CSV_HEADER)) as records:
        for lineno, row in records:
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
        with np.errstate(over="ignore"):  # BodyTrack reports an overflow as non-finite
            tr = data[:, 9:] * unit_scale
        # BodyTrack checks each frame once; only on failure is its first bad
        # frame found again, to name the CSV row
        try:
            tracks.append(BodyTrack(body, rot, tr))
        except ValueError:
            frame = int(np.flatnonzero(is_non_finite(rot, tr))[0])
            raise ParseError(
                f"{path} row {rows[(frame, body)]}: non-finite value (frame {frame}, body {body})"
            ) from None
        except SingularRotationError:
            frame = int(np.flatnonzero(is_singular(rot))[0])
            raise SingularRotationError(
                f"{path} row {rows[(frame, body)]}: singular rotation (frame {frame}, body {body})"
            ) from None

    return CaptureSession(tuple(tracks), n)


def write_session(path, session: CaptureSession):
    """Write the transform-stream CSV; floats round-trip bit-exactly."""
    n, m = session.frame_count, session.body_count
    step = max(1, _WRITE_BLOCK_ROWS // max(m, 1))  # frames gathered at a time
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, n, step):
            block = np.empty((min(step, n - start), m, 12))  # body ids are 0..m-1
            for b in session.bodies:
                block[:, b.body_id, :9] = b.rotations[start : start + step].reshape(-1, 9)
                block[:, b.body_id, 9:] = b.translations[start : start + step]
            for frame, rows in enumerate(block.tolist(), start):
                fh.write(
                    "".join(
                        f"{frame},{body},{','.join(map(repr, row))}\n"
                        for body, row in enumerate(rows)
                    )
                )


def load_labels(path) -> dict[int, str]:
    """Read the `body,label` sidecar CSV."""
    labels: dict[int, str] = {}
    with closing(csv_records(path, "body,label")) as records:
        for lineno, row in records:
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


def csv_records(path, header: str):
    """(row number, fields) for each non-blank CSV row of a UTF-8 file after its header.

    Row 1 must match `header` once its fields are stripped.  A field over
    the csv module's size limit, or bytes that are not UTF-8, raise
    ParseError naming the file and where in it.
    """
    number = 0  # rows read so far, so a csv.Error names the next one
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for number, row in enumerate(csv.reader(fh), start=1):
                if number == 1 and not _is_header(row, header):
                    raise ParseError(f"{path}: bad header {','.join(row)!r}")
                if number > 1 and row:
                    yield number, row
        except csv.Error as exc:
            raise ParseError(f"{path} row {number + 1}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
    if number == 0:
        raise ParseError(f"{path}: empty file")


def _is_header(fields: list[str], header: str) -> bool:
    return [f.strip() for f in fields] == header.split(",")


def _not_utf8(path, exc: UnicodeDecodeError) -> ParseError:
    byte = exc.object[exc.start]
    return ParseError(f"{path}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})")


def write_csv(path, header: str, rows):
    """Write `header` then each row of fields, as UTF-8 through csv.writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header.split(","))
        writer.writerows(rows)


def read_json(path):
    """The JSON value in a UTF-8 file; malformed text raises ParseError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ParseError(f"{path}: {exc}") from None


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def json_integer(value) -> int:
    """A JSON integer as an int; ValueError for a bool, a float, a string or null."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not a JSON integer")
    return value


def write_labels(path, labels: dict[int, str]):
    write_csv(path, "body,label", ([body, labels[body]] for body in sorted(labels)))


def with_labels(session: CaptureSession, labels: dict[int, str]) -> CaptureSession:
    bodies = tuple(
        BodyTrack(b.body_id, b.rotations, b.translations, labels.get(b.body_id, b.label))
        for b in session.bodies
    )
    return CaptureSession(bodies, session.frame_count)


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
