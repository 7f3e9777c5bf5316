"""Session model and transform-stream CSV ingestion."""
import csv
import io
import math
import os
import re
import signal
import tempfile
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelfit import capture
from skelfit.capture import (
    CSV_HEADER,
    BodyTrack,
    CaptureSession,
    load_labels,
    load_session,
    validate,
    with_labels,
    write_labels,
    write_session,
)
from skelfit.errors import (
    DuplicateCellError,
    MissingCellError,
    ParseError,
    SingularRotationError,
)
from skelfit.hierarchy import load_parent_map
from skelfit.rigid import orthonormality_error
from conftest import haar_rotations


def small_session(n=3, m=2, seed=0, values=None) -> CaptureSession:
    rng = np.random.default_rng(seed)
    bodies = []
    for i in range(m):
        R = haar_rotations(rng, n)
        t = rng.normal(size=(n, 3)) if values is None else np.full((n, 3), values)
        bodies.append(BodyTrack(i, R, t))
    return CaptureSession(tuple(bodies), n)


def rows_of(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def golden_session() -> CaptureSession:
    awkward = [5e-324, 1.7976931348623157e308, 0.1 + 0.2]
    R = np.tile(np.eye(3), (2, 1, 1))
    R[:, 0, 1] = -0.0
    bodies = (
        BodyTrack(0, R, [awkward, [-0.0, 0.0, 1.0]]),
        BodyTrack(1, np.tile(np.eye(3), (2, 1, 1)), [[-0.0] * 3, awkward]),
    )
    return CaptureSession(bodies, 2)


GOLDEN_BYTES = (
    CSV_HEADER.encode() + b"\n"
    b"0,0,1.0,-0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0,"
    b"5e-324,1.7976931348623157e+308,0.30000000000000004\n"
    b"0,1,1.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0,-0.0,-0.0,-0.0\n"
    b"1,0,1.0,-0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0,-0.0,0.0,1.0\n"
    b"1,1,1.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0,"
    b"5e-324,1.7976931348623157e+308,0.30000000000000004\n"
)


def force_helper(monkeypatch) -> list:
    """From here on every write_session and load_session shares its work with a
    forked helper; returns a one-item list that counts the forks."""
    if not capture._helper_pays(capture._HELPER_MIN_ROWS):
        pytest.skip("needs os.fork and two usable CPUs")
    monkeypatch.setattr(capture, "_HELPER_MIN_ROWS", 0)
    forks = [0]
    real_fork = os.fork

    def counted_fork():
        forks[0] += 1
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@contextmanager
def split_if(split: bool):
    """With split, every file that holds a "\\n" after the middle of its rows is
    split between this process and a forked helper."""
    with pytest.MonkeyPatch.context() as patch:
        if split:
            if not capture._helper_pays(capture._HELPER_MIN_ROWS):
                pytest.skip("needs os.fork and two usable CPUs")
            patch.setattr(capture, "_HELPER_MIN_ROWS", 0)
        yield


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="class")
def no_session_cache():
    """For a class of tests about the parse: no table is looked up in, or
    stored to, the session cache.  Class-scoped, since Hypothesis refuses
    function-scoped fixtures."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(capture, "_cache_dir", lambda: None)
        yield


class TestRoundTrip:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "s.csv"
        write_session(path, golden_session())
        assert path.read_bytes() == GOLDEN_BYTES

    @pytest.mark.parametrize("block_rows", [1, 4, 7])
    def test_write_block_size_does_not_change_bytes(self, tmp_path, monkeypatch, block_rows):
        # 3 bodies and 5 frames: blocks of 1 frame, or of 2 frames with a short last one
        session = small_session(n=5, m=3, seed=6)
        whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
        write_session(whole, session)
        monkeypatch.setattr(capture, "_WRITE_BLOCK_ROWS", block_rows)
        write_session(blocked, session)
        assert blocked.read_bytes() == whole.read_bytes()
        assert load_session(blocked).track(2).translations.tobytes() == (
            session.track(2).translations.tobytes()
        )

    def test_golden_bytes_with_helper(self, tmp_path, monkeypatch):
        # one frame a block: the helper formats frame 1
        monkeypatch.setattr(capture, "_WRITE_BLOCK_ROWS", 1)
        forks = force_helper(monkeypatch)
        path = tmp_path / "s.csv"
        write_session(path, golden_session())
        assert forks == [1]
        assert path.read_bytes() == GOLDEN_BYTES
        assert_no_child_left()

    @pytest.mark.parametrize(
        "n, m, block_rows",
        [
            (5, 3, 1),  # 5 blocks of one frame: the helper formats 2
            (6, 3, 3),  # 6 blocks: the helper formats the last
            (5, 3, 7),  # 3 blocks of 2 frames, the last one short
            (4, 3, 7),  # 2 blocks, the helper formats 1
            (1, 3, 7),  # 1 block: the helper formats nothing
            (7, 1, 2),  # one body: 4 blocks of 2 frames, the last one short
            (6, 1, 3),  # one body: 2 blocks of 3 frames
        ],
    )
    def test_helper_does_not_change_bytes(self, tmp_path, monkeypatch, n, m, block_rows):
        session = small_session(n=n, m=m, seed=n + m)
        whole, split = tmp_path / "whole.csv", tmp_path / "split.csv"
        write_session(whole, session)
        monkeypatch.setattr(capture, "_WRITE_BLOCK_ROWS", block_rows)
        forks = force_helper(monkeypatch)
        write_session(split, session)
        assert forks == [1]
        assert split.read_bytes() == whole.read_bytes()
        assert_no_child_left()

    def test_well_formed_file_loads(self, tmp_path):
        path = tmp_path / "s.csv"
        write_session(path, small_session(n=3, m=2))
        session = load_session(path)
        assert session.body_count == 2
        assert session.frame_count == 3

    def test_bit_exact_round_trip(self, tmp_path):
        # awkward values that expose any formatting loss
        session = small_session(n=4, m=3, seed=9)
        track = session.bodies[1]
        t = track.translations.copy()
        t[0] = [0.1 + 0.2, math.pi, 1e-300]
        t[1] = [-0.0, 5e-324, 1.7976931348623157e308]
        patched = CaptureSession(
            (
                session.bodies[0],
                BodyTrack(1, track.rotations, t),
                session.bodies[2],
            ),
            session.frame_count,
        )
        path = tmp_path / "s.csv"
        write_session(path, patched)
        back = load_session(path)
        for i in range(3):
            assert back.track(i).rotations.tobytes() == patched.track(i).rotations.tobytes()
            assert back.track(i).translations.tobytes() == patched.track(i).translations.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        txyz=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=3,
            max_size=3,
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_round_trip_arbitrary_translations(self, txyz, seed):
        session = small_session(n=2, m=2, seed=seed)
        t = session.bodies[0].translations.copy()
        t[0] = txyz
        patched = CaptureSession(
            (BodyTrack(0, session.bodies[0].rotations, t), session.bodies[1]), 2
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            write_session(path, patched)
            back = load_session(path)
        assert back.track(0).translations.tobytes() == t.astype(np.float64).tobytes()

    def test_unit_scale_on_load(self, tmp_path):
        # a 56.5 cm offset in a centimeter file reads back as 0.565 m
        R = np.tile(np.eye(3), (2, 1, 1))
        bodies = (
            BodyTrack(0, R, np.zeros((2, 3))),
            BodyTrack(1, R, np.full((2, 3), [56.5, 0.0, 0.0])),
        )
        path = tmp_path / "cm.csv"
        write_session(path, CaptureSession(bodies, 2))
        session = load_session(path, unit_scale=0.01)
        assert np.allclose(session.track(1).translations[:, 0], 0.565)

    def test_unit_scale_one_is_numerically_identity(self, tmp_path):
        session = small_session(n=3, m=2, seed=4)
        path = tmp_path / "s.csv"
        write_session(path, session)
        back = load_session(path, unit_scale=1.0)
        assert back.track(1).translations.tobytes() == session.track(1).translations.tobytes()

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_unit_scale_must_be_finite_positive(self, tmp_path, scale):
        path = tmp_path / "s.csv"
        write_session(path, small_session(n=3, m=2, seed=5))
        with pytest.raises(ValueError, match="unit_scale"):
            load_session(path, unit_scale=scale)


def reference_block(session: CaptureSession, start: int, step: int) -> bytes:
    """The rows of frames start..start+step-1 as the per-float repr formatter wrote them."""
    block = np.empty((min(step, session.frame_count - start), session.body_count, 12))
    for b in session.bodies:
        block[:, b.body_id, :9] = b.rotations[start : start + step].reshape(-1, 9)
        block[:, b.body_id, 9:] = b.translations[start : start + step]
    return "".join(
        f"{frame},{body},{','.join(map(repr, row))}\n"
        for frame, rows in enumerate(block.tolist(), start)
        for body, row in enumerate(rows)
    ).encode()


def float_text(values) -> bytes:
    chars, shown = capture._float_text(np.asarray(values, dtype=np.float64))
    return np.compress(shown.ravel(), chars.ravel()).tobytes()


def repr_text(values) -> bytes:
    return "".join(f",{v!r}" for v in np.asarray(values, dtype=np.float64).tolist()).encode()


def count_repr_calls(monkeypatch) -> list:
    """From here on capture's per-value repr fallback is counted; returns a one-item list."""
    calls = [0]

    def counted(value):
        calls[0] += 1
        return repr(value)

    monkeypatch.setattr(capture, "repr", counted, raising=False)
    return calls


def float_family(name: str, rng: np.random.Generator) -> np.ndarray:
    n = 20000
    if name == "normal":
        return rng.normal(size=n)
    if name == "log-uniform":
        return np.exp(rng.uniform(math.log(1e-6), math.log(1e18), n)) * rng.choice([-1, 1], n)
    if name == "bit patterns":  # every sign, subnormals, huge values, NaN and inf
        return rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    if name == "short decimals":
        x = rng.normal(size=n) * 10.0 ** rng.integers(-4, 8, n)
        return np.array([round(v, d) for v, d in zip(x.tolist(), rng.integers(0, 12, n).tolist())])
    powers = 10.0 ** np.arange(-6, 19)
    if name == "powers of ten":
        near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        return np.concatenate([near, -near])
    if name == "powers of two":
        two = 2.0 ** np.arange(-30, 64)
        near = np.concatenate([two, 1.5 * two, 1.25 * two, 0.75 * two, np.nextafter(two, 0)])
        return np.concatenate([near, np.nextafter(two, np.inf), -near])
    assert name == "edges"
    return np.array(
        [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
         1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), -1e-4,
         1e16, 9.999999999999999e15, -9.999999999999999e15, np.nextafter(1e16, 1e17),
         123.0, -123.0, 1e15, 9999999999999998.0, 0.1 + 0.2, 2.5, 0.125, 1 / 3,
         np.inf, -np.inf, np.nan]
    )


FLOAT_FAMILIES = [
    "normal", "log-uniform", "bit patterns", "short decimals", "powers of ten",
    "powers of two", "edges",
]


class TestFloatText:
    """The exact formatter against repr, byte for byte."""

    @pytest.mark.parametrize("family", FLOAT_FAMILIES)
    def test_matches_repr(self, family):
        values = float_family(family, np.random.default_rng(FLOAT_FAMILIES.index(family)))
        assert float_text(values) == repr_text(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
    def test_matches_repr_on_any_finite_floats(self, values):
        assert float_text(values) == repr_text(values)

    def test_normal_values_skip_repr(self, monkeypatch):
        # a silent fall to repr for every value would keep the bytes but lose the speed
        values = np.random.default_rng(7).normal(size=20000)
        calls = count_repr_calls(monkeypatch)
        assert float_text(values) == repr_text(values)
        assert calls[0] <= 0.01 * len(values)

    def test_uncertified_values_go_to_repr(self, monkeypatch):
        # outside the positional band, a power-of-two mantissa, an exact tie at 17 digits
        values = [1e-5, 1e16, 0.0, 0.5, 1234567890123456.25, 1.5]
        calls = count_repr_calls(monkeypatch)
        assert float_text(values) == repr_text(values)
        assert calls[0] == 5

    def test_block_matches_reference(self, tmp_path):
        # frame and body numbers grow a digit inside the block; values of every family
        rng = np.random.default_rng(3)
        n, m = 12, 11
        bodies = []
        for b in range(m):
            t = float_family(FLOAT_FAMILIES[b % len(FLOAT_FAMILIES)], rng)[: n * 3]
            t = np.where(np.isfinite(t), t, 1.0)
            t = np.resize(t, n * 3).reshape(n, 3)
            bodies.append(BodyTrack(b, haar_rotations(rng, n), t))
        session = CaptureSession(tuple(bodies), n)
        path = tmp_path / "s.csv"
        write_session(path, session)
        assert path.read_bytes() == CSV_HEADER.encode() + b"\n" + reference_block(session, 0, n)


class TestParseErrors:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("frame,body,stuff\n0,0,1\n")
        with pytest.raises(ParseError):
            load_session(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(CSV_HEADER + "\n0,0,1,0,0,0,1,0,0,0\n")
        with pytest.raises(ParseError, match="row 2"):
            load_session(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "s.csv"
        row = "0,0,1,0,0,0,1,0,0,0,oops,0,0,0"
        path.write_text(CSV_HEADER + "\n" + row + "\n")
        with pytest.raises(ParseError, match="row 2"):
            load_session(path)

    def test_missing_cell(self, tmp_path):
        path = tmp_path / "s.csv"
        write_session(path, small_session(n=2, m=2))
        rows = rows_of(path)
        keep = [r for r in rows if r[:2] != ["1", "0"]]
        path.write_text("\n".join(",".join(r) for r in keep) + "\n")
        with pytest.raises(MissingCellError) as err:
            load_session(path)
        assert err.value.frame == 1
        assert err.value.body == 0

    def test_duplicate_cell(self, tmp_path):
        path = tmp_path / "s.csv"
        write_session(path, small_session(n=2, m=2))
        rows = rows_of(path)
        rows.append(rows[3])
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        with pytest.raises(DuplicateCellError, match="row 6: frame=1, body=0") as err:
            load_session(path)
        assert (err.value.row, err.value.frame, err.value.body) == (6, 1, 0)

    def test_first_missing_cell_in_body_major_order(self, tmp_path):
        path = tmp_path / "s.csv"
        write_session(path, small_session(n=3, m=2))
        rows = rows_of(path)
        gone = (["0", "1"], ["2", "0"])  # frame-major order would report frame 0 first
        path.write_text("\n".join(",".join(r) for r in rows if r[:2] not in gone) + "\n")
        with pytest.raises(MissingCellError, match="frame=2, body=0"):
            load_session(path)

    def test_singular_rotation_names_row(self, tmp_path):
        path = tmp_path / "s.csv"
        write_session(path, small_session(n=2, m=1))
        rows = rows_of(path)
        rows[2] = rows[2][:2] + ["0"] * 9 + rows[2][11:]
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        with pytest.raises(SingularRotationError, match="row 3"):
            load_session(path)

    def test_overflow_under_unit_scale_names_row(self, tmp_path):
        path = tmp_path / "s.csv"
        write_session(path, small_session(n=3, m=2))
        rows = rows_of(path)
        rows[4][11] = "1e308"  # frame 1, body 1: finite in the file, inf once scaled
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=r"row 5: non-finite value \(frame 1, body 1\)"):
                load_session(path, unit_scale=10.0)

    def test_each_rule_runs_once_per_body(self, tmp_path, monkeypatch):
        m = 3
        path = tmp_path / "s.csv"
        write_session(path, small_session(n=4, m=m))
        calls = {"is_non_finite": 0, "is_singular": 0}
        for name in calls:

            def counting(*args, _rule=getattr(capture, name), _name=name):
                calls[_name] += 1
                return _rule(*args)

            monkeypatch.setattr(capture, name, counting)
        load_session(path)
        assert calls == {"is_non_finite": m, "is_singular": m}

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "s.csv"
        session = small_session(n=3, m=2, seed=2)
        write_session(path, session)
        rows = rows_of(path)
        shuffled = [rows[0]] + rows[1:][::-1]
        path.write_text("\n".join(",".join(r) for r in shuffled) + "\n")
        back = load_session(path)
        assert back.track(0).translations.tobytes() == session.track(0).translations.tobytes()


def session_bits(session: CaptureSession) -> list:
    """Everything a loaded session holds, with floats as their bit patterns."""
    return [session.frame_count, session.labels] + [
        (b.body_id, b.rotations.view(np.uint64), b.translations.view(np.uint64))
        for b in session.bodies
    ]


def outcome(load, path, unit_scale):
    try:
        return session_bits(load(path, unit_scale))
    except Exception as exc:  # the oracle compares whatever is raised
        return type(exc), str(exc)


def assert_loads_like_row_parser(path, unit_scale=1.0):
    """load_session gives what the row parser gives: the same arrays, bit for
    bit, or the same exception type and message; and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = outcome(capture._load_rows, path, unit_scale)
        got = outcome(load_session, path, unit_scale)
    assert_same_outcome(got, expected)


def assert_same_outcome(got, expected):
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert not isinstance(got, tuple), got
        assert got[:2] == expected[:2]
        for a, b in zip(got[2:], expected[2:], strict=True):
            assert a[0] == b[0]
            assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


GOOD_ROWS = [
    ",".join(r)
    for r in [
        ["0", "0", "1", "0", "0", "0", "1", "0", "0", "0", "1", "0.5", "-0.0", "1e-300"],
        ["0", "1", "0", "-1", "0", "1", "0", "0", "0", "0", "1", "0.25", "2", "3"],
        ["1", "0", "1", "0", "0", "0", "0", "-1", "0", "1", "0", "1e-400", "7", "8"],
        ["1", "1", "0.6", "0.8", "0", "-0.8", "0.6", "0", "0", "0", "1", "4", "5", "6"],
    ]
]


def with_cell(row: int, column: int, token: str) -> str:
    rows = [r.split(",") for r in GOOD_ROWS]
    rows[row][column] = token
    return CSV_HEADER + "\n" + "".join(",".join(r) + "\n" for r in rows)


ORACLE_FILES = {
    "good": CSV_HEADER + "\n" + "\n".join(GOOD_ROWS) + "\n",
    "shuffled": CSV_HEADER + "\n" + "\n".join(GOOD_ROWS[i] for i in (3, 0, 2, 1)),
    "crlf": CSV_HEADER + "\r\n" + "\r\n".join(GOOD_ROWS) + "\r\n",
    "cr-only": CSV_HEADER + "\r" + "\r".join(GOOD_ROWS) + "\r",
    "blank-lines": CSV_HEADER + "\n\n" + "\n\n\r\n".join(GOOD_ROWS) + "\n\n",
    "whitespace-line": CSV_HEADER + "\n" + "\n".join(GOOD_ROWS[:2] + ["  "] + GOOD_ROWS[2:]),
    "trailing-whitespace": CSV_HEADER + "\n" + " \t\n".join(GOOD_ROWS) + "\t \n",
    "space-padded-ids": with_cell(2, 0, " 1 "),
    "underscore-digits": with_cell(2, 0, "0_1"),
    "quoted-cell": with_cell(1, 4, '"-1"'),
    "quoted-header": '"frame",' + CSV_HEADER[6:] + "\n" + "\n".join(GOOD_ROWS) + "\n",
    "header-quote-spans-lines": CSV_HEADER[:-2] + '"tz\n"' + "\n" + "\n".join(GOOD_ROWS),
    "plus-sign": with_cell(3, 1, "+1"),
    "float-frame": with_cell(3, 0, "1.0"),
    "nan": with_cell(1, 7, "nan"),
    "inf": with_cell(2, 13, "-inf"),
    "overflowing-float": with_cell(3, 11, "1e400"),
    "hex-float": with_cell(3, 11, "0x1p3"),
    "non-ascii-digit": with_cell(3, 1, "١"),
    "no-break-space": with_cell(3, 12, "2\xa0"),
    "high-code-point-id": with_cell(1, 1, "\U000f5075"),
    "extra-field": with_cell(0, 13, "3,4"),
    "missing-field": CSV_HEADER + "\n" + "\n".join(GOOD_ROWS[:3] + [GOOD_ROWS[3][:-2]]),
    "trailing-comma": CSV_HEADER + "\n" + ",\n".join(GOOD_ROWS) + ",\n",
    "negative-id": with_cell(1, 1, "-1"),
    "duplicate": CSV_HEADER + "\n" + "\n".join(GOOD_ROWS + [GOOD_ROWS[2]]),
    "missing-cell": CSV_HEADER + "\n" + "\n".join(GOOD_ROWS[:3]),
    "duplicate-in-place-of-missing": CSV_HEADER + "\n" + "\n".join(GOOD_ROWS[:3] + GOOD_ROWS[:1]),
    "frame-1e15": with_cell(3, 0, str(10**15)),
    "frame-over-int64": with_cell(3, 0, str(2**63)),
    "singular": CSV_HEADER + "\n" + "\n".join(GOOD_ROWS[:3] + ["1,1" + ",0" * 9 + ",4,5,6"]),
    "header-only": CSV_HEADER + "\n",
    "header-and-blank-lines": CSV_HEADER + "\n\n\r\n\n",
    "empty": "",
    "bad-utf8": None,
}


# the files loadtxt reads; the others go to the row parser, to load or to fail
FAST_PATH_READS = {
    "good",
    "shuffled",
    "crlf",
    "cr-only",
    "blank-lines",
    "trailing-whitespace",
    "space-padded-ids",
    "plus-sign",
}


EDITED_FILES = dict(
    n=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["cell", "drop", "repeat", "insert"]),
            st.integers(min_value=0, max_value=99),
            st.integers(min_value=0, max_value=13),
            st.one_of(
                st.sampled_from(
                    [
                        "1_0", '"1"', "+3", " 2 ", "\t1", "1.0", "1e3", "-0", "-1",
                        "nan", "inf", "-inf", "1e400", "1e-400", "1e308", "0x10",
                        "٣", "", " ", "1,2", ".5", "5.", "Infinity", "-NaN",
                        "1\xa0", "9223372036854775808", str(10**15), "0" * 400 + "1",
                    ]
                ),
                st.text(st.characters(exclude_categories=("Cs",)), max_size=5),
            ),
        ),
        max_size=3,
    ),
    shuffle=st.randoms(use_true_random=False),
    newline=st.sampled_from(["\n", "\r\n"]),
    unit_scale=st.sampled_from([1.0, 0.01, 1e300]),
)


def assert_edited_file_loads_like_row_parser(
    n, m, seed, edits, shuffle, newline, unit_scale, check=assert_loads_like_row_parser
):
    """A written session, shuffled and edited, loads as the row parser reads it
    (or passes another check(path, unit_scale))."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        write_session(path, small_session(n=n, m=m, seed=seed))
        header, *rows = rows_of(path)
        shuffle.shuffle(rows)
        lines = [",".join(r) for r in rows]
        for kind, at, column, token in edits:
            k = at % len(lines) if lines else 0
            if kind == "cell" and lines:
                cells = lines[k].split(",")
                cells[column % len(cells)] = token
                lines[k] = ",".join(cells)
            elif kind == "drop" and lines:
                del lines[k]
            elif kind == "repeat" and lines:
                lines.insert(at % (len(lines) + 1), lines[k])
            elif kind == "insert":
                lines.insert(k, token)
        path.write_bytes(newline.join([",".join(header)] + lines).encode() + b"\n")
        check(path, unit_scale)


@pytest.mark.usefixtures("no_session_cache")
class TestFastPath:
    """load_session's loadtxt pass against the row parser as the oracle."""

    @pytest.mark.parametrize("name", ORACLE_FILES)
    def test_matches_row_parser(self, tmp_path, name):
        path = tmp_path / "s.csv"
        text = ORACLE_FILES[name]
        if text is None:
            path.write_bytes(CSV_HEADER.encode() + b"\n" + GOOD_ROWS[0].encode() + b"\xff\n")
        else:
            path.write_bytes(text.encode())
        assert_loads_like_row_parser(path)
        assert (capture._load_table(path, 1.0) is not None) == (name in FAST_PATH_READS)

    @pytest.mark.parametrize(
        "name",
        [
            "negative-id",
            "duplicate",
            "missing-cell",
            "duplicate-in-place-of-missing",
            "frame-1e15",
            "frame-over-int64",
        ],
    )
    def test_bad_table_refused_before_any_track(self, tmp_path, monkeypatch, name):
        # the index checks alone refuse these; no track is built from the table
        path = tmp_path / "s.csv"
        path.write_text(ORACLE_FILES[name])

        def no_track(*args):
            raise AssertionError("track built from a bad table")

        monkeypatch.setattr(capture, "BodyTrack", no_track)
        assert capture._load_table(path, 1.0) is None

    def test_loadtxt_never_sees_a_non_ascii_character(self, tmp_path, monkeypatch):
        # numpy 2.4's loadtxt can crash the process on U+F5075 in an int column;
        # here the bad row comes after the first 64 KiB, past the no-data peek
        path = tmp_path / "s.csv"
        write_session(path, small_session(n=300, m=2, seed=7))
        text = path.read_text()
        assert len(text) > 1 << 16
        path.write_text(text.replace("\n299,1,", "\n299,\U000f5075,"), encoding="utf-8")
        real = np.loadtxt

        def checked(fh, **kwargs):
            rest = fh.read()
            assert rest.isascii()
            return real(io.StringIO(rest), **kwargs)

        monkeypatch.setattr(np, "loadtxt", checked)
        assert capture._load_table(path, 1.0) is None
        with pytest.raises(ParseError, match="row 601: invalid literal for int"):
            load_session(path)

    def test_header_only_file_raises_without_warning(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(CSV_HEADER + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="no data rows"):
                load_session(path)

    def test_good_file_never_reaches_row_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        session = small_session(n=5, m=3, seed=8)
        write_session(path, session)
        rows = rows_of(path)
        path.write_text("\r\n".join(",".join(r) for r in [rows[0]] + rows[1:][::-1]))

        def refuse(*args):
            raise AssertionError("row parser called on a good file")

        monkeypatch.setattr(capture, "_load_rows", refuse)
        back = load_session(path, unit_scale=0.5)
        for a, b in zip(back.bodies, session.bodies, strict=True):
            assert a.rotations.tobytes() == b.rotations.tobytes()
            assert a.translations.tobytes() == (b.translations * 0.5).tobytes()

    def test_token_only_row_parser_reads_still_loads(self, tmp_path):
        # loadtxt refuses 1_0 and a quoted cell; int()/float() and csv accept them
        path = tmp_path / "s.csv"
        path.write_text(with_cell(3, 11, '"1_0"'))
        assert capture._load_table(path, 1.0) is None
        session = load_session(path)
        assert session.track(1).translations[1, 0] == 10.0

    @settings(max_examples=120, deadline=None)
    @given(**EDITED_FILES)
    def test_matches_row_parser_on_edited_files(self, **example):
        assert_edited_file_loads_like_row_parser(**example)


class TestFastPathSplit(TestFastPath):
    """Every TestFastPath case again, with each file that holds a "\\n" after
    the middle of its rows split between this process and a forked helper."""

    @pytest.fixture(scope="class", autouse=True)
    def split_every_file(self):
        with split_if(True):
            yield

    # Hypothesis runs a test from one class only, so the subclass repeats it
    @settings(max_examples=120, deadline=None)
    @given(**EDITED_FILES)
    def test_matches_row_parser_on_edited_files(self, **example):
        assert_edited_file_loads_like_row_parser(**example)

    @pytest.mark.parametrize(
        "text, helper_part",
        [
            (ORACLE_FILES["crlf"], GOOD_ROWS[3] + "\r\n"),
            (ORACLE_FILES["cr-only"], None),  # no "\n": one process reads it all
            (
                CSV_HEADER + "\n" + "\n".join(GOOD_ROWS[:2]) + "\n" * 60
                + "\n".join(GOOD_ROWS[2:]),
                "\n" * 29 + "\n".join(GOOD_ROWS[2:]),
            ),
            (
                CSV_HEADER + "\n" + "\n".join(GOOD_ROWS[:3]) + " " * 120 + "\n" + GOOD_ROWS[3],
                GOOD_ROWS[3],
            ),
            (CSV_HEADER + "\n" + "\n".join(GOOD_ROWS) + " " * 150 + "\n", ""),
        ],
        ids=["crlf", "cr-only", "blank-lines-at-split", "last-row-alone", "split-after-last-row"],
    )
    def test_split_point(self, tmp_path, text, helper_part):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        with open(path, "rb") as fh:
            row = len(GOOD_ROWS[0]) + 1
            split = capture._split_point(fh.fileno(), len(CSV_HEADER) + 1, row)
        if helper_part is None:
            assert split is None
        else:
            assert text[split[0] :] == helper_part
        assert_loads_like_row_parser(path)
        assert capture._load_table(path, 1.0) is not None

    def test_bad_row_in_the_helpers_part_is_named(self, tmp_path):
        path = tmp_path / "s.csv"
        write_session(path, small_session(n=20, m=2, seed=11))
        text = path.read_text().replace("\n18,1,", "\n18,1.5,")
        path.write_text(text)
        with open(path, "rb") as fh:
            begin = len(CSV_HEADER) + 1
            split, end = capture._split_point(fh.fileno(), begin, 100)
            assert "18,1.5," in text[split:]
            assert 0 < len(capture._load_range(fh.fileno(), begin, split)) < 37
        assert capture._load_table(path, 1.0) is None
        with pytest.raises(ParseError, match="row 39: invalid literal for int"):
            load_session(path)
        assert_loads_like_row_parser(path)
        assert_no_child_left()


@pytest.mark.usefixtures("no_session_cache")
class TestHelper:
    """How write_session and load_session behave when the helper cannot run or fails."""

    def test_fork_failure_runs_serially(self, tmp_path, monkeypatch):
        session = small_session(n=40, m=3, seed=12)
        expected = tmp_path / "expected.csv"
        write_session(expected, session)
        forks = force_helper(monkeypatch)

        def no_fork():
            forks[0] += 1
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        path = tmp_path / "s.csv"
        write_session(path, session)
        assert path.read_bytes() == expected.read_bytes()
        assert_same_outcome(outcome(load_session, path, 1.0), outcome(load_session, expected, 1.0))
        assert forks == [3]
        assert_no_child_left()

    def test_one_cpu_runs_serially(self, tmp_path, monkeypatch):
        session = small_session(n=40, m=3, seed=13)
        expected = tmp_path / "expected.csv"
        write_session(expected, session)
        forks = force_helper(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        path = tmp_path / "s.csv"
        write_session(path, session)
        assert path.read_bytes() == expected.read_bytes()
        load_session(path)
        assert forks == [0]
        assert_no_child_left()

    def test_without_pread_reads_in_one_process(self, tmp_path, monkeypatch):
        # as on Windows, which has neither os.pread nor os.fork
        path = tmp_path / "s.csv"
        write_session(path, small_session(n=40, m=3, seed=16))
        expected = outcome(load_session, path, 1.0)
        monkeypatch.delattr(os, "fork", raising=False)
        monkeypatch.delattr(os, "pread")
        assert capture._load_table(path, 1.0) is not None
        assert_same_outcome(outcome(load_session, path, 1.0), expected)

    @pytest.mark.parametrize("death", ["exit", "mid-message"])
    def test_helper_failure_fails_the_write(self, tmp_path, monkeypatch, death):
        forks = force_helper(monkeypatch)
        monkeypatch.setattr(capture, "_WRITE_BLOCK_ROWS", 3)
        monkeypatch.setattr(capture, "_send", HELPER_DEATHS[death])
        with pytest.raises(OSError, match="s.csv: not fully written"):
            write_session(tmp_path / "s.csv", small_session(n=10, m=3, seed=14))
        assert forks == [1]
        assert_no_child_left()

    @pytest.mark.parametrize("death", ["exit", "mid-message"])
    def test_helper_failure_on_load_falls_back(self, tmp_path, monkeypatch, death):
        path = tmp_path / "s.csv"
        session = small_session(n=10, m=3, seed=15)
        write_session(path, session)
        bad = tmp_path / "bad.csv"
        bad.write_text(path.read_text().replace("\n9,2,", "\n9,0,"))
        expected = [outcome(load_session, p, 1.0) for p in (path, bad)]
        forks = force_helper(monkeypatch)
        monkeypatch.setattr(capture, "_send", HELPER_DEATHS[death])
        assert capture._load_table(path, 1.0) is None
        for p, before in zip((path, bad), expected):
            assert_same_outcome(outcome(load_session, p, 1.0), before)
        assert forks == [3]
        assert_no_child_left()


def _exit_unsent(out, payload):
    os._exit(3)


def _die_mid_message(out, payload):
    out.write(len(bytes(payload)).to_bytes(8, "little") + bytes(payload)[:10])
    out.flush()
    os.kill(os.getpid(), signal.SIGKILL)


HELPER_DEATHS = {"exit": _exit_unsent, "mid-message": _die_mid_message}


@contextmanager
def fresh_cache():
    """A new, empty session cache for the block; yields its directory."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", tmp)
        yield Path(tmp) / "skelfit"


def entries(cache: Path) -> list[str]:
    return sorted(p.name for p in cache.glob("*.npy"))


def refuse_parse(*args):
    raise AssertionError("a table in the cache was parsed again")


def assert_hit_matches_miss(path, unit_scale=1.0):
    """From an empty cache, the first load reads as the row parser does, and so
    does a second; a table the first load stored is not parsed again."""
    with fresh_cache() as cache:
        assert_loads_like_row_parser(path, unit_scale)
        stored = entries(cache)
        assert len(stored) <= 1
        with pytest.MonkeyPatch.context() as patch:
            if stored:
                patch.setattr(capture, "_load_range", refuse_parse)
            assert_loads_like_row_parser(path, unit_scale)
        assert entries(cache) == stored
    return stored


BAD_ENTRIES = {
    "truncated": lambda path, table: path.write_bytes(path.read_bytes()[:-8]),
    "empty-file": lambda path, table: path.write_bytes(b""),
    "not-npy": lambda path, table: path.write_bytes(b"frame,body\n" * 20),
    "float32": lambda path, table: np.save(path, table.astype(np.float32)),
    "big-endian": lambda path, table: np.save(path, table.astype(">f8")),
    "fortran-order": lambda path, table: np.save(path, np.asfortranarray(table)),
    "pickled-object": lambda path, table: np.save(
        path, np.array(table.tolist(), dtype=object), allow_pickle=True
    ),
    "two-axes": lambda path, table: np.save(path, table.reshape(len(table), -1)),
    "eleven-values": lambda path, table: np.save(path, table[:, :, :11].copy()),
    "no-frames": lambda path, table: np.save(path, table[:, :0].copy()),
}


def save_huge_header(path, table):
    # a shape numpy cannot allocate; reading it must fail, not take the memory
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (2**28, 2**28, 12)}
        )
        fh.write(table.tobytes())


BAD_ENTRIES["huge-shape"] = save_huge_header


class TestSessionCache:
    """load_session keeps each good file's table in the session cache: a hit
    gives what a parse gives, bit for bit, and never what other bytes parse to."""

    @pytest.mark.parametrize("split", [False, True], ids=["one-process", "split"])
    @pytest.mark.parametrize("unit_scale", [1.0, 0.01])
    @pytest.mark.parametrize("name", ORACLE_FILES)
    def test_hit_matches_miss(self, tmp_path, name, unit_scale, split):
        path = tmp_path / "s.csv"
        text = ORACLE_FILES[name]
        if text is None:
            path.write_bytes(CSV_HEADER.encode() + b"\n" + GOOD_ROWS[0].encode() + b"\xff\n")
        else:
            path.write_bytes(text.encode())
        with split_if(split):
            stored = assert_hit_matches_miss(path, unit_scale)
        assert bool(stored) == (name in FAST_PATH_READS)

    @settings(max_examples=120, deadline=None)
    @given(**EDITED_FILES, split=st.booleans())
    def test_hit_matches_miss_on_edited_files(self, split, **example):
        with split_if(split):
            assert_edited_file_loads_like_row_parser(**example, check=assert_hit_matches_miss)

    def test_hit_is_checked_under_its_own_unit_scale(self, tmp_path):
        # a table stored at unit_scale 1 overflows at 1e300: the row parser names the row
        path = tmp_path / "s.csv"
        path.write_text(with_cell(3, 11, "1e10"))
        with fresh_cache() as cache:
            assert_loads_like_row_parser(path, 1.0)
            assert len(entries(cache)) == 1
            calls = []
            real = capture._load_rows

            def row_parser(*args):
                calls.append(args)
                return real(*args)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(capture, "_load_range", refuse_parse)
                patch.setattr(capture, "_load_rows", row_parser)
                for scale in (0.01, 1e300):
                    got = outcome(load_session, path, scale)
                    assert_same_outcome(got, outcome(real, path, scale))
            assert [args[1] for args in calls] == [1e300]
            assert got == (ParseError, f"{path} row 5: non-finite value (frame 1, body 1)")

    @pytest.mark.parametrize("split", [False, True], ids=["one-process", "split"])
    def test_file_rewritten_after_the_lookup(self, tmp_path, split):
        # the key names the bytes parsed, not those the lookup digested
        path = tmp_path / "s.csv"
        sessions = [small_session(n=40, m=3, seed=21, values=v) for v in (0.25, 0.75)]
        versions = []
        for session in sessions:
            write_session(path, session)
            versions.append(path.read_bytes())
        old, new = versions
        assert len(old) == len(new) and old != new
        names = []
        for version in versions:
            path.write_bytes(version)
            with split_if(split), fresh_cache() as cache:
                load_session(path)
                names += entries(cache)
        lookup = capture._cached_table

        def rewrite_after_lookup(*args):
            table = lookup(*args)
            path.write_bytes(new)  # in place, so the open file now holds the new bytes
            return table

        path.write_bytes(old)
        with split_if(split), fresh_cache() as cache, pytest.MonkeyPatch.context() as patch:
            cache.mkdir()
            # an entry for a file of the same size, so the lookup digests the old bytes
            (cache / f"{len(old)}-{'0' * 64}.npy").touch()
            patch.setattr(capture, "_cached_table", rewrite_after_lookup)
            got = load_session(path)
            assert names[0] not in entries(cache)
            assert names[1] in entries(cache)
        assert_same_outcome(session_bits(got), session_bits(sessions[1]))

    @pytest.mark.parametrize("bad", BAD_ENTRIES)
    def test_bad_entry_is_a_miss(self, tmp_path, bad):
        path = tmp_path / "s.csv"
        write_session(path, small_session(n=5, m=3, seed=23))
        with fresh_cache() as cache:
            expected = outcome(load_session, path, 1.0)
            [name] = entries(cache)
            table = np.load(cache / name)
            BAD_ENTRIES[bad](cache / name, table)
            assert_same_outcome(outcome(load_session, path, 1.0), expected)
            assert entries(cache) == [name]
            rewritten = np.load(cache / name, allow_pickle=False)
            assert rewritten.dtype == np.float64 and rewritten.flags.c_contiguous
            assert rewritten.tobytes() == table.tobytes()

    @pytest.mark.parametrize(
        "trouble",
        ["not-a-directory", "cannot-write", "owned-by-another-user", "group-writable",
         "other-writable", "relative-xdg-and-no-home"],
    )
    def test_unusable_directory_means_no_cache(self, tmp_path, monkeypatch, trouble):
        path = tmp_path / "s.csv"
        write_session(path, small_session(n=5, m=3, seed=24))
        expected = outcome(capture._load_rows, path, 1.0)
        xdg = tmp_path / "xdg"
        cache = xdg / "skelfit"
        monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
        if trouble == "not-a-directory":
            xdg.mkdir()
            cache.write_bytes(b"")
        elif trouble == "cannot-write":
            # as root, mode 0500 would not stop the write; the refusal is made here
            def refused(*args, **kwargs):
                raise PermissionError(13, "Permission denied")

            monkeypatch.setattr(capture.tempfile, "mkstemp", refused)
        elif trouble == "owned-by-another-user":
            uid = os.getuid()
            monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        elif trouble == "relative-xdg-and-no-home":
            monkeypatch.setenv("XDG_CACHE_HOME", "relative")
            monkeypatch.setattr(capture.os.path, "expanduser", lambda p: p)
            monkeypatch.chdir(tmp_path)
        else:
            cache.mkdir(parents=True)
            cache.chmod(0o770 if trouble == "group-writable" else 0o707)
        for _ in range(2):
            assert_same_outcome(outcome(load_session, path, 1.0), expected)
        assert list(tmp_path.rglob("*.npy")) == []
        assert not (tmp_path / "~").exists()

    def test_made_with_mode_0700(self, tmp_path, monkeypatch):
        xdg = tmp_path / "xdg"
        monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
        assert capture._cache_dir() == str(xdg / "skelfit")
        assert (xdg / "skelfit").stat().st_mode & 0o777 == 0o700
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert capture._cache_dir() == str(tmp_path / "home" / ".cache" / "skelfit")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_gets_no_cache(self, tmp_path):
        fifo = tmp_path / "s.csv"
        os.mkfifo(fifo)
        text = ORACLE_FILES["good"].encode()

        def load_while_writing():
            def write():
                for _ in range(2):  # the row parser, if it ran, would open the pipe again
                    with suppress_broken_pipe(), open(fifo, "wb") as out:
                        out.write(text)

            writer = threading.Thread(target=write, daemon=True)
            writer.start()
            try:
                return outcome(load_session, fifo, 1.0)
            finally:
                # a writer still waiting for a reader is let through
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
                writer.join(timeout=30)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(capture, "_cache_dir", lambda: None)
            expected = load_while_writing()
        with fresh_cache() as cache:
            assert load_while_writing() == expected
            assert not cache.exists()  # _cache_dir, which makes it, was never asked

    def test_keeps_the_most_recently_used_entries(self, tmp_path):
        paths = [tmp_path / f"s{k}.csv" for k in range(10)]
        for k, path in enumerate(paths):
            write_session(path, small_session(n=4, m=2, seed=30 + k))
        with fresh_cache() as cache:
            names = []
            for path in paths[:8]:
                load_session(path)
                names.append(next(n for n in entries(cache) if n not in names))
            # coarse file times could tie; give the entries distinct, old ones
            for k, name in enumerate(names):
                os.utime(cache / name, (1e9 + k, 1e9 + k))
            stale, fresh = cache / "tmpkilled.tmp", cache / "tmpwriting.tmp"
            stale.touch()
            os.utime(stale, (1e9, 1e9))
            fresh.touch()
            load_session(paths[0])  # a hit: entry 0 becomes the most recently used
            assert entries(cache) == sorted(names)
            for path in paths[8:]:
                load_session(path)
                names.append(next(n for n in entries(cache) if n not in names))
            assert entries(cache) == sorted([names[0], *names[3:]])
            assert not stale.exists() and fresh.exists()

    def test_without_pread(self, tmp_path, monkeypatch):
        # as on Windows, which has neither os.pread nor os.fork
        path = tmp_path / "s.csv"
        write_session(path, small_session(n=40, m=3, seed=25))
        expected = outcome(capture._load_rows, path, 1.0)
        monkeypatch.delattr(os, "fork", raising=False)
        monkeypatch.delattr(os, "pread")
        with fresh_cache() as cache:
            assert_same_outcome(outcome(load_session, path, 1.0), expected)
            assert len(entries(cache)) == 1
            monkeypatch.setattr(capture, "_load_range", refuse_parse)
            assert_same_outcome(outcome(load_session, path, 1.0), expected)


@contextmanager
def suppress_broken_pipe():
    try:
        yield
    except BrokenPipeError:
        pass


class TestModelInvariants:
    def test_body_ids_must_be_dense(self):
        R = np.tile(np.eye(3), (2, 1, 1))
        with pytest.raises(ValueError):
            CaptureSession(
                (BodyTrack(0, R, np.zeros((2, 3))), BodyTrack(2, R, np.zeros((2, 3)))), 2
            )

    def test_track_length_checked(self):
        with pytest.raises(ValueError):
            BodyTrack(0, np.tile(np.eye(3), (2, 1, 1)), np.zeros((3, 3)))

    def test_session_needs_a_body(self):
        # a header-only file would not load back
        with pytest.raises(ValueError, match="at least one body"):
            CaptureSession((), 3)

    def test_session_rejects_short_track(self):
        R = np.tile(np.eye(3), (3, 1, 1))
        short = BodyTrack(1, R[:2], np.zeros((2, 3)))
        with pytest.raises(ValueError, match="body 1: 2 frames"):
            CaptureSession((BodyTrack(0, R, np.zeros((3, 3))), short), 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_names_body_and_frame(self, value):
        R = np.tile(np.eye(3), (3, 1, 1))
        R[1, 0, 2] = value
        with pytest.raises(ValueError, match="body 4: non-finite value at frame 1"):
            BodyTrack(4, R, np.zeros((3, 3)))
        t = np.zeros((3, 3))
        t[2, 1] = value
        with pytest.raises(ValueError, match="body 4: non-finite value at frame 2"):
            BodyTrack(4, np.tile(np.eye(3), (3, 1, 1)), t)

    def test_arrays_are_write_protected(self):
        session = small_session()
        with pytest.raises(ValueError):
            session.track(0).rotations[0, 0, 0] = 2.0

    def test_resolve_body(self):
        session = with_labels(small_session(), {0: "base", 1: "tip"})
        assert session.resolve_body("tip") == 1
        assert session.resolve_body("0") == 0
        with pytest.raises(KeyError):
            session.resolve_body("leg")
        with pytest.raises(IndexError):
            session.resolve_body("7")


class TestLabels:
    def test_sidecar_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels(path, {0: "pelvis", 1: "chest"})
        assert load_labels(path) == {0: "pelvis", 1: "chest"}

    def test_bad_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,name\n0,pelvis\n")
        with pytest.raises(ParseError):
            load_labels(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1,b\n1,c\n", "row 3: body 1 listed twice"),
            ("1,b\n2,b\n", "row 3: label 'b' names two bodies"),
        ],
        ids=["repeated-body", "repeated-label"],
    )
    def test_duplicate_rows_rejected(self, tmp_path, rows, message):
        path = tmp_path / "labels.csv"
        path.write_text("body,label\n" + rows)
        with pytest.raises(ParseError, match=f"labels.csv {message}"):
            load_labels(path)

    def test_with_labels(self):
        session = with_labels(small_session(), {1: "tip"})
        assert session.label_of(1) == "tip"
        assert session.label_of(0) == "0"

    @pytest.mark.parametrize("body", [99, 2, -1])
    def test_label_for_an_absent_body_refused(self, body):
        message = f"label 'wrist' names body {body}, not in the session (bodies 0..1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            with_labels(small_session(m=2), {0: "base", body: "wrist"})

    def test_with_labels_builds_no_track(self, monkeypatch):
        session = small_session(m=3)
        calls = []
        monkeypatch.setattr(capture, "is_singular", lambda *args: calls.append(args))
        labelled = with_labels(session, {2: "tip"})
        assert calls == []
        assert all(a is b for a, b in zip(labelled.bodies, session.bodies, strict=True))
        assert with_labels(labelled, {0: "base"}).labels == {0: "base", 2: "tip"}

    def test_session_labels_checked_and_copied(self):
        tracks = small_session(m=3).bodies
        labels = {0: "base", 1: None, 2: "2"}
        session = CaptureSession(tracks, 3, labels)
        labels[0] = "tip"
        assert session.labels == {0: "base", 2: "2"}
        assert CaptureSession(tracks, 3, {}).labels is None
        assert CaptureSession(tracks, 3, {1: None}).labels is None

    def test_session_labels_are_read_only(self):
        # an edit after the check could make label "0" name body 1
        session = with_labels(small_session(m=2), {1: "tip"})
        with pytest.raises(TypeError):
            session.labels[1] = "0"
        with pytest.raises(TypeError):
            del session.labels[1]
        assert session.labels == {1: "tip"}
        assert session.resolve_body(session.label_of(1)) == 1

    @pytest.mark.parametrize(
        "labels, message",
        [
            ({0: "a", 2: "a"}, "label 'a' names bodies 0 and 2"),
            ({1: "0"}, "label '0' names body 1 but reads as body 0"),
            ({0: " 2 "}, "label ' 2 ' names body 0 but reads as body 2"),
            ({2: "1_0"}, "label '1_0' names body 2 but reads as body 10"),
            ({1: "-1"}, "label '-1' names body 1 but reads as body -1"),
            ({1: 7}, "body 1: label must be a string or null, got 7"),
        ],
        ids=["two-bodies", "index", "spaced-index", "underscored", "negative", "not-a-string"],
    )
    def test_a_label_names_one_body(self, labels, message):
        tracks = small_session(m=3).bodies
        with pytest.raises(ValueError, match=re.escape(message)):
            CaptureSession(tracks, 3, labels)
        with pytest.raises(ValueError, match=re.escape(message)):
            with_labels(small_session(m=3), labels)

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 3),
            st.one_of(
                st.sampled_from(["0", "1", "2", "3", "4", " 1", "01", "+2", "1_0", "-0", "٣"]),
                st.text(st.sampled_from("01 ab"), max_size=3),
            ),
        )
    )
    def test_every_body_resolves_by_its_label(self, labels):
        """A label map either fails naming the bodies, or each body's label
        resolves back to that body and the session keeps the map as given."""
        session = small_session(m=4)
        try:
            labelled = with_labels(session, labels)
        except ValueError as exc:
            assert re.fullmatch(
                r"label '.*' names (bodies \d+ and \d+|body \d+ but reads as body -?\d+)",
                str(exc),
            ), exc
            return
        assert (labelled.labels or {}) == labels
        for body in range(session.body_count):
            assert labelled.resolve_body(labelled.label_of(body)) == body


# row 2 holds a field over the csv module's 131 072-character limit, or a 0xFF byte
RECORD_FAULTS = {
    "long-field": (b"x" * 200_000, "{path} row 2: field larger than field limit (131072)"),
    "not-utf8": (b"\xff", "{path}: not UTF-8 text (byte 0xff: invalid start byte)"),
}


class TestRecordFaults:
    @pytest.mark.parametrize("fault", sorted(RECORD_FAULTS))
    @pytest.mark.parametrize(
        "read, header",
        [
            (load_session, CSV_HEADER),
            (load_labels, "body,label"),
            (load_parent_map, "body,parent"),
        ],
        ids=["session", "labels", "parent-map"],
    )
    def test_fault_is_a_parse_error_naming_the_file(self, tmp_path, read, header, fault):
        cell, message = RECORD_FAULTS[fault]
        path = tmp_path / "in.csv"
        path.write_bytes(header.encode() + b"\n0," + cell + b"\n")
        with pytest.raises(ParseError, match=re.escape(message.format(path=path))):
            read(path)


class TestValidate:
    def test_clean_session_has_no_warnings(self):
        assert validate(small_session(n=40, seed=3)) == []

    def test_scaled_rotation_warns_with_body_and_frame(self):
        session = small_session(n=40, seed=3)
        R = session.track(1).rotations.copy()
        R[7] = 1.1 * R[7]
        patched = CaptureSession(
            (session.bodies[0], BodyTrack(1, R, session.track(1).translations)), 40
        )
        messages = validate(patched)
        assert len(messages) == 1
        assert "body 1" in messages[0]
        assert "frame 7" in messages[0]

    def test_one_note_per_body(self):
        session = small_session(n=40, m=3, seed=3)
        R = session.track(0).rotations * 1.01
        R[5] *= 1.1
        patched = CaptureSession(
            (BodyTrack(0, R, session.track(0).translations), *session.bodies[1:]), 40
        )
        (message,) = validate(patched)
        assert message.startswith("body 0:")
        assert "in 40 frame(s)" in message
        assert f"by up to {orthonormality_error(R).max():g};" in message
        assert "first at frame 0" in message

    def test_short_session_advisory(self):
        messages = validate(small_session(n=5, seed=3))
        assert any("5 frames" in msg for msg in messages)

    def test_mild_noise_passes_quietly(self):
        session = small_session(n=40, seed=3)
        R = session.track(0).rotations.copy()
        R += 1e-5
        patched = CaptureSession(
            (BodyTrack(0, R, session.track(0).translations), session.bodies[1]), 40
        )
        assert validate(patched) == []
