"""Session model and transform-stream CSV ingestion."""
import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestRoundTrip:
    def test_golden_bytes(self, tmp_path):
        awkward = [5e-324, 1.7976931348623157e308, 0.1 + 0.2]
        R = np.tile(np.eye(3), (2, 1, 1))
        R[:, 0, 1] = -0.0
        bodies = (
            BodyTrack(0, R, [awkward, [-0.0, 0.0, 1.0]]),
            BodyTrack(1, np.tile(np.eye(3), (2, 1, 1)), [[-0.0] * 3, awkward]),
        )
        path = tmp_path / "s.csv"
        write_session(path, CaptureSession(bodies, 2))
        assert path.read_bytes() == (
            CSV_HEADER.encode() + b"\n"
            b"0,0,1.0,-0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0,"
            b"5e-324,1.7976931348623157e+308,0.30000000000000004\n"
            b"0,1,1.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0,-0.0,-0.0,-0.0\n"
            b"1,0,1.0,-0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0,-0.0,0.0,1.0\n"
            b"1,1,1.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0,"
            b"5e-324,1.7976931348623157e+308,0.30000000000000004\n"
        )

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

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "s.csv"
        session = small_session(n=3, m=2, seed=2)
        write_session(path, session)
        rows = rows_of(path)
        shuffled = [rows[0]] + rows[1:][::-1]
        path.write_text("\n".join(",".join(r) for r in shuffled) + "\n")
        back = load_session(path)
        assert back.track(0).translations.tobytes() == session.track(0).translations.tobytes()


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
