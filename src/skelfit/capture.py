"""Capture-session data model, and the one home of skelfit's file formats.

A session is m body tracks, each holding n world placements sampled at
the same n frames.  The on-disk format is one CSV row per (frame, body)
cell with the rotational component in row-major order:

    frame,body,r00,r01,r02,r10,r11,r12,r20,r21,r22,tx,ty,tz

Rows may appear in any order but every (frame, body) cell must appear
exactly once.  An optional sidecar maps body indices to labels:

    body,label

`load_session` reads a file in two ways.  First it reads the whole table
of an ASCII file with `np.loadtxt` and checks the (frame, body) cells
with `np.bincount`; that path reads every good file that `write_session`
writes.  When it refuses a file, the row parser reads the file again.
The row parser stays because it names the row of a bad cell, and because
it accepts the few tokens loadtxt refuses but `int()`, `float()` and the
csv module take: digit separators (`1_0`), non-ASCII digits and spaces,
and quoted cells.  When loadtxt accepts a cell, its value equals
Python's, bit for bit.  A pipe, or any other file that is not a regular
file, can be read only once: the row parser alone reads it, from its
bytes in memory.

Both directions use a second CPU for a large session.  `write_session`
forks one helper process that formats every second block of rows and
sends it back through a pipe, and the parent writes all blocks in frame
order, so the bytes do not change.  `load_session` splits a file of
`_HELPER_MIN_ROWS` rows or more (the measured break-even) at the first
"\n" after the middle of its data; the helper runs the same loadtxt on
the rows after the split and sends the table back, and a refusal on
either side sends the file to the row parser.  One process does all the
work when `os.fork` is missing or fails or fewer than two CPUs are
usable, and then parses both sides of a split in one pass.  A helper
that fails makes `write_session` raise OSError.  On Linux the pipe
holds 1 MiB, so the helper formats a few blocks ahead of the writes.

`write_session` does not call repr on each float.  `_float_text` finds
the shortest digits that read back to each value of a whole block at
once, exactly, in IEEE double arithmetic: Dekker's two-product gives
|x| * 10**t exactly, and the shortest rounding of it that lies inside
x's rounding interval is repr's (Ryu, Adams, PLDI 2018).  Each value is
laid out in fixed columns and one mask compresses the block into text.
A value it cannot certify goes to repr, one value at a time: one outside
repr's positional band 1e-4 <= |x| < 1e16 (zeros, NaN and inf too), one
whose mantissa is a power of two, an exact tie, a round-trip test within
a relative 2**-40 of its bound, or a rounding that carries to 10**p.  So
the bytes are repr's by construction.

A good session file's table is kept in a cache, so the next command to
read the same bytes loads it in milliseconds instead of parsing it
again.  `_load_table` stores the unscaled (m, n, 12) float64 table of a
regular file as `<size>-<key>.npy` in `_cache_dir()`, and looks the key
up before it parses.  The key is a SHA-256 digest of `_CACHE_TAG`, the
header line, and the digest of each of the file's parse ranges, which
covers the range's offset and bytes; the ranges do not depend on which
process parses them.  The parse digests each range as it reads it
(`_ByteRange`, in this process and in the helper), so the stored key
names exactly the bytes that were parsed, even if the file changes
during the load.  The lookup digests the same ranges before the parse,
but only when an entry for a file of the same size exists.  A hit goes
through the same track checks as a parse (`_session_of`), and a track
that fails them sends the file to the row parser.  The cache keeps the
`_CACHE_ENTRIES` most recently used tables; any OSError in it, or an
entry that is not such a table, is a miss.

Every other CSV or JSON file goes through `csv_records`, `write_csv`,
`read_json` and `write_json`, as UTF-8; bad text raises ParseError naming
the file.  `json_integer` refuses a bool, float or string as an integer, and
`json_number` (`json_numbers` in arrays) a bool, string, null, NaN or inf.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os
import signal
import stat
import tempfile
import time
import warnings
from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

try:
    import fcntl
except ImportError:  # not on Windows, which has no os.fork either
    fcntl = None

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
# rows from which a forked helper pays for itself: the measured break-even in a
# 60 MB process is between 4096 and 8192 rows for write_session, and 8192 for
# load_session
_HELPER_MIN_ROWS = 8192
_PIPE_BYTES = 1 << 20  # the helper's pipe, so it can format ahead of the writes (Linux's limit)

# part of every cache key: bump it when the set of files the parse accepts,
# or the layout of the stored table, changes
_CACHE_TAG = b"skelfit session table 1\n"
_CACHE_ENTRIES = 8  # tables the cache keeps, the most recently used
_STALE_TEMP_S = 3600.0  # a temp file this old in the cache was left by a killed writer

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
    """Immutable m-body, n-frame collection of world transforms, and the bodies' labels."""

    bodies: tuple[BodyTrack, ...]
    frame_count: int
    labels: Optional[Mapping[int, str]] = None

    def __post_init__(self):
        object.__setattr__(self, "bodies", tuple(self.bodies))
        ids = [b.body_id for b in self.bodies]
        if not ids:
            raise ValueError("a session needs at least one body")
        if ids != list(range(len(ids))):
            raise ValueError(f"body ids must be 0..m-1 in order, got {ids}")
        if self.frame_count < 1:
            raise ValueError("frame_count must be at least 1")
        for b in self.bodies:
            if len(b) != self.frame_count:
                raise ValueError(
                    f"body {b.body_id}: {len(b)} frames, session has {self.frame_count}"
                )
        object.__setattr__(self, "labels", _check_labels(self.labels, range(len(ids))))

    @property
    def body_count(self) -> int:
        return len(self.bodies)

    def track(self, body: int) -> BodyTrack:
        if not 0 <= body < len(self.bodies):
            raise IndexError(f"body index {body} out of range 0..{len(self.bodies) - 1}")
        return self.bodies[body]

    def label_of(self, body: int) -> str:
        self.track(body)
        return (self.labels or {}).get(body, str(body))

    def resolve_body(self, name: str) -> int:
        """Body index from a decimal index or a label."""
        try:
            idx = int(name)
        except ValueError:
            by_label = {label: body for body, label in (self.labels or {}).items()}
            if name not in by_label:
                raise KeyError(f"no body labeled {name!r}") from None
            return by_label[name]
        self.track(idx)
        return idx


def _check_labels(labels: Optional[Mapping], bodies: Sequence[int], owner: str = "session"):
    """A {body: label} map as a read-only copy without its None labels; None if that is empty.

    ValueError unless each label is a string naming one of `bodies` and no
    other body, and a label int() reads is its own body's index, so that
    `CaptureSession.resolve_body` finds every body by its label; no edit can undo the check.
    """
    named: dict[str, int] = {}
    for body, label in sorted((b, x) for b, x in (labels or {}).items() if x is not None):
        if not isinstance(label, str):
            raise ValueError(f"body {body}: label must be a string or null, got {label!r}")
        if body not in bodies:
            span = f"0..{len(bodies) - 1}" if bodies == range(len(bodies)) else bodies
            raise ValueError(
                f"label {label!r} names body {body}, not in the {owner} (bodies {span})"
            )
        if label in named:
            raise ValueError(f"label {label!r} names bodies {named[label]} and {body}")
        named[label] = body
        index = body
        with suppress(ValueError):
            index = int(label)
        if index != body:
            raise ValueError(f"label {label!r} names body {body} but reads as body {index}")
    return MappingProxyType({body: label for label, body in named.items()}) if named else None


def load_session(path, unit_scale: float = 1.0) -> CaptureSession:
    """Read a transform-stream CSV into a session.

    Translations are multiplied by `unit_scale` on the way in, so a file
    recorded in centimeters loads to meters with unit_scale=0.01; it must
    be finite and positive.  An OSError names the file, as a failed open does.
    """
    if not 0.0 < unit_scale < math.inf:
        raise ValueError(f"unit_scale must be finite and positive, got {unit_scale!r}")
    try:
        return _load_table(path, unit_scale) or _load_rows(path, unit_scale)
    except OSError as exc:
        if exc.errno is not None and exc.filename is None:  # a read error, not an open's
            exc.filename = os.fspath(path)
        raise


def _load_table(path, unit_scale: float) -> Optional[CaptureSession]:
    """The whole-file read: one `np.loadtxt` pass and vectorised checks.

    Returns None when the file is not a good session or holds a token
    loadtxt refuses; the row parser then reads it again, to load it or
    to name what is wrong.  Raises OSError if reading fails, or the row
    parser's errors on a file that is not a regular file.

    The file is decoded as ASCII, so a file holding any other character
    goes to the row parser: numpy 2.4's loadtxt can crash the process
    on a high code point such as U+F5075 in an integer column.

    A large file has two parse ranges (`_parse_ranges`): a forked helper
    parses the second while this process parses the first, or this process
    parses both in one pass; a refusal on either side returns None.

    A regular file's table is first looked up in the cache; a table the
    parse made is stored there once every track has been built from it.

    Any other file, such as a pipe, can be read only once: the row parser
    reads its bytes, read whole here, with no cache and no second open.
    """
    with open(path, newline="", encoding="ascii") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            return _load_rows(path, unit_scale, fh.buffer.read())
        try:
            line = fh.readline()
            # a quote may span lines, which only the row parser's reader follows
            if '"' in line or not _is_header(next(csv.reader([line])), CSV_HEADER):
                return None
            # loadtxt warns on a file with no data rows; leave those to the row parser
            while (chunk := fh.read(1 << 16)) and not chunk.strip("\r\n"):
                pass
            if not chunk:
                return None
            fd, begin = fh.fileno(), len(line)  # the header is ASCII: a byte a character
            # the rows are counted as if all were as long as the first
            row, newline, _ = chunk.lstrip("\r\n").partition("\n")
            ranges = _parse_ranges(fd, begin, len(row) + 1 if newline else None)
            cache = _cache_dir()
            if cache is not None:
                data = _cached_table(cache, fd, line, ranges)
                if data is not None:
                    return _session_of(data, unit_scale)
            pays = len(ranges) > 1 and hasattr(os, "preadv") and _helper_pays(_HELPER_MIN_ROWS)
            work = (lambda out: _send_range(out, fd, ranges[1:])) if pays else None
            with _helper(work) as helper:
                table, digests = _load_range(fd, ranges if helper is None else ranges[:1])
                if helper is not None:
                    def table_of_both(size):  # the helper's rows are read in after these
                        both = np.empty(len(table) + size // _ROW_DTYPE.itemsize, _ROW_DTYPE)
                        both[: len(table)] = table
                        return both

                    table = _receive(helper, table_of_both)
                    digests += _receive(helper)
        # a field count, token, int64 range or non-ASCII, on either side of a split
        except (ValueError, csv.Error, ChildProcessError):
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
    session = _session_of(data, unit_scale)
    if session is not None and cache is not None:
        _store_table(cache, _entry_name(ranges[-1][1], line, digests), data)
    return session


def _session_of(data: np.ndarray, unit_scale: float) -> Optional[CaptureSession]:
    """The session of an unscaled (m, n, 12) table; None if a track fails BodyTrack's checks."""
    m, n = data.shape[:2]
    tracks = []
    for b in range(m):
        with np.errstate(over="ignore"):  # BodyTrack reports an overflow as non-finite
            tr = data[b, :, 9:] * unit_scale
        try:
            tracks.append(BodyTrack(b, data[b, :, :9].reshape(n, 3, 3), tr))
        except (ValueError, SingularRotationError):
            return None
    return CaptureSession(tuple(tracks), n)


def _load_rows(path, unit_scale: float, data: Optional[bytes] = None) -> CaptureSession:
    """The row parser: reads any good file, and names the row of a bad one.

    `data`, if given, is the file's bytes, already read (a pipe's).
    """
    cells: dict[tuple[int, int], np.ndarray] = {}
    rows: dict[tuple[int, int], int] = {}
    with closing(csv_records(path, CSV_HEADER, data)) as records:
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
    """Write the transform-stream CSV; floats round-trip bit-exactly.

    Each float is written as its repr, though repr is called only on the
    few values `_float_text` cannot certify.  Rows are formatted in blocks
    of frames.  For a large session a forked helper formats every second
    block and sends it back through a pipe; OSError (ChildProcessError) if
    the helper fails, as for a failed write.
    """
    n, m = session.frame_count, session.body_count
    step = max(1, _WRITE_BLOCK_ROWS // m)  # frames gathered at a time
    starts = range(0, n, step)

    def send_odd_blocks(out):
        for start in starts[1::2]:
            _send(out, _format_block(session, start, step))

    work = send_odd_blocks if _helper_pays(n * m) else None
    try:
        with _helper(work) as helper, open(path, "wb") as fh:
            fh.write(CSV_HEADER.encode() + b"\n")
            for k, start in enumerate(starts):
                if helper is not None and k % 2:
                    fh.write(_receive(helper))
                else:
                    fh.write(_format_block(session, start, step))
    except ChildProcessError as exc:
        raise ChildProcessError(f"{path}: not fully written: {exc}") from None


def _format_block(session: CaptureSession, start: int, step: int) -> bytes:
    """The CSV rows of frames start..start+step-1, frame-major.

    Each row is laid out in fixed columns, with a mask of the bytes it
    shows; one compress of the block by its mask makes the text.
    """
    frames, m = min(step, session.frame_count - start), session.body_count
    rows = frames * m
    block = np.empty((frames, m, 12))
    for b in session.bodies:  # body ids are 0..m-1
        block[:, b.body_id, :9] = b.rotations[start : start + step].reshape(-1, 9)
        block[:, b.body_id, 9:] = b.translations[start : start + step]
    # "frame,body" in NUL-padded columns; each value brings its own ","
    frame_text = np.array([f"{f}," for f in range(start, start + frames)], "S")
    body_text = np.array([str(b) for b in range(m)], "S")
    prefix = np.empty((frames, m, frame_text.itemsize + body_text.itemsize), np.uint8)
    prefix[:, :, : frame_text.itemsize] = frame_text.view(np.uint8).reshape(frames, 1, -1)
    prefix[:, :, frame_text.itemsize :] = body_text.view(np.uint8).reshape(1, m, -1)
    prefix = prefix.reshape(rows, -1)
    chars, shown = _float_text(block.reshape(-1))
    newline = np.full((rows, 1), ord("\n"), np.uint8)
    chars = np.concatenate([prefix, chars.reshape(rows, -1), newline], axis=1)
    shown = np.concatenate([prefix != 0, shown.reshape(rows, -1), newline != 0], axis=1)
    return np.compress(shown.ravel(), chars.ravel()).tobytes()


_DOUBT = 2.0**-40  # relative margin around a round-trip bound that sends a value to repr

# `_float_text` lays a value out in 44 columns, as 11 four-byte words:
# ",-0." | "000" and the lead digit | the other 16 digits | "." and 3 pads |
# those 16 digits again.  The first copy shows the digits before a ".",
# the second those after it.
_SIGN, _LEAD, _DOT, _AFTER = 1, 7, 24, 27  # _AFTER + j: digit j >= 1 of the second copy


@functools.cache
def _text_tables():
    """`_float_text`'s tables, built on first use (a fit never writes a session).

    digits4[k] is the 4 ASCII digits of k in 0..9999 as one word, lead4[k]
    "000" and digit k (k = 10, ":", only in lanes repr overwrites), and
    head4 and dot4 the words ",-0." and "."; pow10 is 10**t for t in
    0..22, every one exact, and pow10_hi + pow10_lo its split into 26-bit
    halves (Veltkamp); shown[(d + 3) * 18 + k] marks the columns of repr's
    positional text with decimal point position d (-3..16: "0.000ddd" to
    "dddd.d") and k digits.
    """
    quad = np.arange(10000, dtype=np.uint16)
    digits = np.stack([quad // 1000, quad // 100 % 10, quad // 10 % 10, quad % 10], axis=1)
    digits4 = (48 + digits).astype(np.uint8).view(np.uint32).ravel()
    lead4 = np.frombuffer(b"".join(b"000" + bytes([48 + k]) for k in range(11)), np.uint32)
    head4, dot4 = np.frombuffer(b",-0..\0\0\0", np.uint32)
    pow10 = np.array([float(10**t) for t in range(23)])
    pow10_hi = pow10 * 134217729.0 - (pow10 * 134217729.0 - pow10)
    shown = np.zeros((20, 18, 44), bool)
    shown[..., 0] = True
    for d in range(-3, 17):
        for k in range(1, 18):
            row = shown[d + 3, k]
            if d <= 0:  # "0.", -d zeros, then the digits
                row[_SIGN + 1 : _SIGN + 3 - d] = True
                row[_LEAD : _LEAD + k] = True
            else:  # d digits, ".", then the rest
                row[_LEAD : _LEAD + d] = True
                row[_DOT] = True
                row[_AFTER + d : _AFTER + k] = True
    pow10_lo = pow10 - pow10_hi
    shown = shown.reshape(20 * 18, -1)
    for table in digits4, pow10, pow10_hi, pow10_lo, shown:  # shared by every call
        table.setflags(write=False)
    return digits4, lead4, head4, dot4, pow10, pow10_hi, pow10_lo, shown


def _float_text(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """"," then the repr of each float of x: (len(x), 44) bytes and a mask of those shown.

    Each value's digits are computed exactly in IEEE double arithmetic,
    so the text is repr's by construction: a value the kernel cannot
    certify, and any value outside it, is formatted by repr.

    The kernel takes finite |x| in 1e-4 <= |x| < 1e16, repr's positional
    band, whose mantissa is not a power of two (the rounding interval of
    those is lopsided).  With t = 16 - floor(log10|x|), the product
    V = |x| * 10**t is exact as hi + lo (Dekker's two-product), and its
    nearest integer d17 must have 17 digits (else the log10 estimate was
    off).  Half an ulp of x, scaled likewise, is h = 10**t * 2**(E - 54),
    also exact; p digits round-trip iff the p-digit value nearest V is
    less than h from it.  That holds for p = 17 and, if for p, for every
    larger p, so the smallest such p is repr's length, and on a symmetric
    interval repr's digits are the nearest p-digit value (Ryu, Adams,
    PLDI 2018).  To repr go the values with an exact tie between two
    p-digit values, a test within a relative 2**-40 of h, or a rounding
    that carries to 10**p.
    """
    digits4, lead4, head4, dot4, pow10, pow10_hi, pow10_lo, shown_table = _text_tables()
    n = len(x)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)  # NaN fails both
    a = np.where(fast, a, 1.5)  # the other lanes compute on a harmless value
    mantissa, exponent = np.frexp(a)
    fast &= mantissa != 0.5
    e10 = np.floor(np.log10(a)).astype(np.int64)
    t = 16 - e10
    split = a * 134217729.0
    a_hi = split - (split - a)
    a_lo = a - a_hi
    p10, p_hi, p_lo = pow10[t], pow10_hi[t], pow10_lo[t]
    hi = a * p10
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    whole = np.rint(lo)
    rho = lo - whole  # V - d17, exactly
    d17 = hi.astype(np.int64) + whole.astype(np.int64)  # hi >= 2**53 is an integer
    fast &= (d17 >= 10**16) & (d17 < 10**17)
    h = np.ldexp(p10, exponent - 54)

    count = np.full(n, 17)  # digits of the shortest round trip
    cut = np.zeros(n, np.int64)  # d17 minus that many digits' rounding of V
    unsure = np.abs(rho) == 0.5  # a tie at 17 digits
    at = None  # D, R and H hold every lane until few pass, then the lanes `at`
    D, R, H = d17, rho, h
    for p in range(16, 0, -1):
        q = 10 ** (17 - p)
        rem = D - D // q * q
        half = rem == q // 2
        step = rem - q * ((rem > q // 2) | (half & (R > 0)))
        delta = np.abs(step + R)  # from V to the nearest multiple of q
        ok = delta < H * (1 - _DOUBT)
        near = ~ok & (delta <= H * (1 + _DOUBT))
        tie = half & (R == 0)
        passes = np.count_nonzero(ok)
        if at is None:  # a lane that failed at p + 1 fails again at p
            count -= ok
            cut = np.where(ok, step, cut)
            unsure = np.where(ok, tie, unsure | near)
            if 4 * passes < n:
                at = np.flatnonzero(ok)
                D, R, H = D[at], R[at], H[at]
        else:
            unsure[at[near]] = True
            at = at[ok]
            count[at] = p
            cut[at] = step[ok]
            unsure[at] = tie[ok]
            D, R, H = D[ok], R[ok], H[ok]
        if not passes:
            break
    digits = d17 - cut  # the chosen digits, then zeros, 17 in all
    fast &= ~unsure & (digits < 10**17)

    d = np.clip(e10 + 1, -3, 16)  # the decimal point position; clipped for repr's lanes
    shown = np.where(d <= 0, count, np.maximum(count, d + 1))  # 120.0: digits to the point
    shown = shown_table.take((d + 3) * 18 + shown, axis=0)
    shown[:, _SIGN] = np.signbit(x)
    top = digits // 10**8
    bottom = digits - top * 10**8
    top4 = top // 10**4
    lead = top4 // 10**4
    quads = np.empty((n, 4), np.int64)
    quads[:, 0] = top4 - lead * 10**4
    quads[:, 1] = top - top4 * 10**4
    quads[:, 2] = bottom // 10**4
    quads[:, 3] = bottom - quads[:, 2] * 10**4
    words = np.empty((n, 11), np.uint32)
    words[:, 0] = head4
    words[:, 1] = lead4[lead]
    words[:, 2:6] = words[:, 7:] = digits4[quads]
    words[:, 6] = dot4
    chars = words.view(np.uint8)

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([repr(v) for v in x[slow].tolist()], "S24").view(np.uint8)
        text = text.reshape(-1, 24)
        chars[slow, _SIGN : _SIGN + 24] = text
        shown[slow, _SIGN:] = False
        shown[slow, _SIGN : _SIGN + 24] = text != 0
    return chars, shown


def _helper_pays(rows: int) -> bool:
    """Whether to share the work on `rows` CSV rows with a forked helper."""
    return (
        rows >= _HELPER_MIN_ROWS
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
    )


@contextmanager
def _helper(work):
    """Run work(out) in a forked helper process; yield a reader of what it writes to `out`.

    Yields None, having started nothing, when `work` is None or no pipe or
    process can be made; the caller then does all the work itself.  The
    helper leaves through os._exit, with status 0 only if `work` returned.
    Leaving the block closes the reader and reaps the helper, killing it
    first if the block raised; ChildProcessError if it did not exit 0.
    """
    pid = None
    if work is not None:
        try:
            r, w = os.pipe()
        except OSError:
            pass
        else:
            if hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux: room for a few blocks ahead
                with suppress(OSError):
                    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on a fork in a process with threads (OpenBLAS
                    # starts some); the helper calls no BLAS routine and takes no lock
                    warnings.filterwarnings(
                        "ignore", r"This process .* is multi-threaded", DeprecationWarning
                    )
                    pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
    if pid is None:
        yield None
        return
    if pid == 0:  # the helper
        status = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                work(out)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        with open(r, "rb") as reader:
            yield reader
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if status:
        raise ChildProcessError(f"helper process {pid} ended with wait status {status}")


def _send(out, payload):
    """One message from the helper: its length in 8 bytes, then its bytes."""
    out.write(memoryview(payload).nbytes.to_bytes(8, "little"))
    out.write(payload)


def _receive(reader, buffer_for=bytearray):
    """The next message from the helper, read into the last bytes of buffer_for(its length).

    Returns that buffer; ChildProcessError if the helper stopped before the end of the message.
    """
    head = reader.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "little")
        buffer = buffer_for(size)
        view = memoryview(buffer).cast("B")
        if reader.readinto(view[len(view) - size :]) == size:
            return buffer
    raise ChildProcessError("helper process stopped before the end of a message")


def _parse_ranges(fd: int, begin: int, row_bytes: Optional[int]) -> list[tuple[int, int]]:
    """The parse ranges of the rows at bytes begin.. of file fd, which the file alone fixes.

    Two, split just after the first "\\n" from the middle of the rows on,
    when they hold at least _HELPER_MIN_ROWS rows of `row_bytes` (None: no
    row end seen) and a "\\n" there; otherwise one.
    """
    end = os.fstat(fd).st_size
    if row_bytes is not None and (end - begin) // row_bytes >= _HELPER_MIN_ROWS:
        raw, buffer = _ByteRange(fd, (begin + end) // 2, end), bytearray(1 << 16)
        while size := raw.readinto(buffer):
            if (k := buffer.find(b"\n", 0, size)) >= 0:
                split = raw.at - size + k + 1
                return [(begin, split), (split, end)]
    return [(begin, end)]


class _ByteRange(io.RawIOBase):
    """Bytes begin..end-1 of file fd, read with os.preadv straight into the
    caller's buffer, at an offset, so the file offset it shares with a forked
    process never moves.  `starts` are those of the parse ranges it holds, in
    order; each read updates each range's SHA-256 with that range's bytes."""

    def __init__(self, fd: int, begin: int, end: int, starts=()):
        super().__init__()
        self.fd, self.at, self.end = fd, begin, end
        self.shas = [(start, hashlib.sha256(start.to_bytes(8, "little"))) for start in starts]

    def digests(self) -> bytes:
        """The ranges' digests, joined; each covers its range's offset and bytes."""
        return b"".join(sha.digest() for _, sha in self.shas)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        view = memoryview(buffer)[: max(0, self.end - self.at)]
        if hasattr(os, "preadv"):
            size = os.preadv(self.fd, [view], self.at)
        else:  # no os.preadv, so no helper was forked (_load_table) to share the file offset
            os.lseek(self.fd, self.at, os.SEEK_SET)
            data = os.read(self.fd, len(view))
            size = len(data)
            view[:size] = data
        stop = size  # from the last range back, each sha takes its own bytes of the read
        for start, sha in reversed(self.shas):
            cut = min(stop, max(0, start - self.at))
            sha.update(view[cut:stop])
            stop = cut
        self.at += size
        return size


def _load_range(fd: int, ranges) -> tuple[np.ndarray, bytes]:
    """The loadtxt table of adjoining parse ranges of a session file, read in one
    pass and decoded as ASCII, and the digests of the ranges, joined."""
    byte_range = _ByteRange(fd, ranges[0][0], ranges[-1][1], [begin for begin, _ in ranges])
    raw = io.BufferedReader(byte_range, 1 << 16)
    with io.TextIOWrapper(raw, encoding="ascii", newline="") as text, warnings.catch_warnings():
        # each chunk the wrapper reads is one call of _ByteRange.readinto (8 KiB by default)
        text._CHUNK_SIZE = 1 << 16
        # one side of a split may hold only blank lines; the no-data peek saw rows
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(text, delimiter=",", comments=None, ndmin=1, dtype=_ROW_DTYPE)
    return table, byte_range.digests()


def _send_range(out, fd: int, ranges):
    """The helper's share of a load: the table of its parse range, then the range's digest."""
    for part in _load_range(fd, ranges):
        _send(out, part)


def _entry_name(size: int, header: str, digests: bytes) -> str:
    """The cache entry of a session file of `size` bytes: that size, then the key, a SHA-256
    of _CACHE_TAG, the file's header line and the joined digests of its parse ranges."""
    key = hashlib.sha256(_CACHE_TAG + header.encode("ascii") + digests).hexdigest()
    return f"{size}-{key}.npy"


def _cache_dir() -> Optional[str]:
    """The session cache: $XDG_CACHE_HOME/skelfit, or ~/.cache/skelfit.

    The directory is made with mode 0700 if it is missing.  None, for no
    cache, when it cannot be made or is not a directory that the current
    user owns and that no group or other user can write.
    """
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # unset, or relative, which the XDG spec says to ignore
        root = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(root, "skelfit")
    if not os.path.isabs(path) or not hasattr(os, "getuid"):  # no home; Windows
        return None
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.stat(path)
    except OSError:
        return None
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid() or info.st_mode & 0o022:
        return None
    return path


def _cached_table(cache: str, fd: int, header: str, ranges) -> Optional[np.ndarray]:
    """The cached table of file fd, whose parse ranges are `ranges`; None on a miss.

    Only an entry for a file of the same size can match, so when there is
    none the file is not read.  Otherwise the ranges are digested in one
    pass of 1 MiB reads through `_ByteRange`, as the parse would read
    them.  A hit must be a C-order float64 (m, n, 12) array with no empty
    axis, and its entry becomes the most recently used.
    """
    size, buffer = ranges[-1][1], bytearray(1 << 20)
    try:
        if not any(name.startswith(f"{size}-") for name in os.listdir(cache)):
            return None
        raw = _ByteRange(fd, ranges[0][0], size, [begin for begin, _ in ranges])
        while raw.readinto(buffer):
            pass
        path = os.path.join(cache, _entry_name(size, header, raw.digests()))
        with open(path, "rb") as fh:  # np.load's .npy reader, with no zip or pickle
            data = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError, MemoryError):  # MemoryError: a huge shape
        return None
    if not (
        data.dtype == np.float64
        and data.ndim == 3
        and data.shape[2] == 12
        and data.size
        and data.flags.c_contiguous
    ):
        return None
    with suppress(OSError):
        os.utime(path)
    return data


def _store_table(cache: str, name: str, data: np.ndarray):
    """Store `data` as the entry `name`, then drop all but the _CACHE_ENTRIES most
    recently used entries, and stale temp files; an OSError skips the rest."""
    with suppress(OSError):
        fd, temp = tempfile.mkstemp(suffix=".tmp", dir=cache)
        try:
            with open(fd, "wb") as fh:
                np.save(fh, data, allow_pickle=False)
            os.replace(temp, os.path.join(cache, name))
        except BaseException:
            with suppress(OSError):
                os.unlink(temp)
            raise
        entries, now = [], time.time()
        with os.scandir(cache) as listing:
            for entry in listing:
                if entry.name.endswith(".npy"):
                    entries.append((entry.stat().st_mtime_ns, entry.path))
                elif entry.name.endswith(".tmp") and now - entry.stat().st_mtime > _STALE_TEMP_S:
                    os.unlink(entry.path)
        for _, path in sorted(entries)[:-_CACHE_ENTRIES]:
            os.unlink(path)


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


def csv_records(path, header: str, data: Optional[bytes] = None):
    """(row number, fields) for each non-blank CSV row of a UTF-8 file after its header.

    Row 1 must match `header` once its fields are stripped.  A field over
    the csv module's size limit, or bytes that are not UTF-8, raise
    ParseError naming the file and where in it.  `data`, if given, is the
    file's bytes, already read, and the file is not opened.
    """
    number = 0  # rows read so far, so a csv.Error names the next one
    if data is None:
        fh = open(path, newline="", encoding="utf-8")
    else:
        fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    with fh:
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


def json_number(value) -> float:
    """A finite JSON number as a float; ValueError for a bool, a string, null, NaN or inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a finite JSON number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite JSON number")
    return number


def json_numbers(value):
    """value with every number in it, at any depth of arrays, through json_number."""
    if isinstance(value, list):
        return [json_numbers(v) for v in value]
    return json_number(value)


def json_array(value) -> list:
    """A JSON array as a list; ValueError for any other value."""
    if not isinstance(value, list):
        raise ValueError(f"{value!r} is not a JSON array")
    return value


def write_labels(path, labels: Mapping[int, str]):
    """Write a `body,label` CSV in body order; OSError if it cannot be written."""
    write_csv(path, "body,label", ([body, labels[body]] for body in sorted(labels)))


def with_labels(session: CaptureSession, labels: dict[int, str]) -> CaptureSession:
    """The session with these labels added to its own, sharing its tracks;
    ValueError unless the merged map passes `_check_labels`."""
    return replace(session, labels={**(session.labels or {}), **labels})


def validate(session: CaptureSession) -> list[str]:
    """Advisory checks; returns human-readable warnings, never raises.

    A body whose rotations stray from orthonormal gets one note: how many
    frames, the worst deviation and the first frame.
    """
    notes = []
    for body in session.bodies:
        errs = orthonormality_error(body.rotations)
        bad = np.flatnonzero(errs > ORTHO_WARN_ATOL)
        if bad.size:
            notes.append(
                f"body {body.body_id}: rotation deviates from orthonormal in {bad.size} "
                f"frame(s), by up to {errs[bad].max():g}; first at frame {bad[0]}"
            )
    if session.frame_count < SHORT_SESSION_FRAMES:
        notes.append(
            f"only {session.frame_count} frames; fewer than {SHORT_SESSION_FRAMES} "
            "may give an unreliable fit"
        )
    return notes
