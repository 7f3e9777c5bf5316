"""Command-line interface: subcommands, outputs, exit codes."""
import json
import time

import numpy as np
import pytest

from skelfit.capture import load_session, write_labels, write_session
from skelfit.cli import main
from skelfit.hierarchy import write_parent_map
from skelfit.skeleton import (
    fit_skeleton,
    joint_gaps,
    load_skeleton,
    save_skeleton,
    skeleton_to_dict,
)
from skelfit.solver import solve_joint
from skelfit.synth import generate, linkage_spec, rigid_pair_spec

from conftest import manual_pair_session


def fmt(x):
    return f"{float(x):.9g}"


def stdout_field(captured, key):
    for line in captured.splitlines():
        if line.startswith(f"{key}: "):
            return line[len(key) + 2 :]
    raise AssertionError(f"no {key!r} line in output:\n{captured}")


@pytest.fixture()
def pair_csv(tmp_path):
    session = manual_pair_session((0.08, -0.01, 0.03), (0.27, 0.05, -0.02), n=60, seed=90)
    path = tmp_path / "pair.csv"
    write_session(path, session)
    return path, session


@pytest.fixture(scope="module")
def linkage_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("linkage")
    spec = linkage_spec(frames=300, seed=91)
    session, truth = generate(spec)
    write_session(base / "session.csv", session)
    return base, session, truth


class TestSolveJoint:
    def test_reports_match_library(self, pair_csv, capsys):
        path, session = pair_csv
        assert main(["solve-joint", str(path), "1", "0"]) == 0
        out = capsys.readouterr().out
        fit = solve_joint(session, 1, 0)
        assert stdout_field(out, "pair") == "1 -> 0"
        assert stdout_field(out, "classification") == "spherical"
        assert stdout_field(out, "epsilon_m") == fmt(fit.epsilon)
        assert stdout_field(out, "c") == "[" + ", ".join(fmt(v) for v in fit.c) + "]"

    def test_json_report(self, pair_csv, tmp_path, capsys):
        path, session = pair_csv
        report_path = tmp_path / "fit.json"
        assert main(["solve-joint", str(path), "1", "0", "--output", str(report_path)]) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        fit = solve_joint(session, 1, 0)
        assert report["child"] == 1 and report["parent"] == 0
        assert report["classification"] == "spherical"
        assert report["epsilon_m"] == fit.epsilon
        assert report["c"] == [float(v) for v in fit.c]
        assert report["l"] == [float(v) for v in fit.l]
        assert report["axis_child"] is None

    def test_residual_and_histogram_files(self, pair_csv, tmp_path, capsys):
        path, _ = pair_csv
        resid = tmp_path / "resid.csv"
        hist = tmp_path / "hist.csv"
        code = main(
            [
                "solve-joint",
                str(path),
                "1",
                "0",
                "--residuals",
                str(resid),
                "--histogram",
                str(hist),
                "--bin-width",
                "1e-8",
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert resid.read_text().splitlines()[0] == "frame,residual_m"
        assert len(resid.read_text().splitlines()) == 61
        assert hist.read_text().splitlines()[0] == "bin_lo,bin_hi,count"

    def test_label_arguments(self, pair_csv, tmp_path, capsys):
        path, _ = pair_csv
        labels_path = tmp_path / "labels.csv"
        write_labels(labels_path, {0: "base", 1: "tip"})
        code = main(
            ["solve-joint", str(path), "tip", "base", "--labels", str(labels_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert stdout_field(out, "pair") == "tip -> base"

    def test_unit_scale_rescales_fit(self, pair_csv, tmp_path, capsys):
        _, session = pair_csv
        from skelfit.capture import BodyTrack, CaptureSession

        cm = CaptureSession(
            tuple(
                BodyTrack(b.body_id, b.rotations, b.translations * 100.0)
                for b in session.bodies
            ),
            session.frame_count,
        )
        cm_path = tmp_path / "cm.csv"
        write_session(cm_path, cm)
        assert main(["solve-joint", str(cm_path), "1", "0", "--unit-scale", "0.01"]) == 0
        out = capsys.readouterr().out
        fit = solve_joint(session, 1, 0)
        # scaling by 100 and back perturbs only the rounding floor
        assert float(stdout_field(out, "epsilon_m")) < 1e-12
        printed_l = [float(v) for v in stdout_field(out, "l").strip("[]").split(", ")]
        assert np.allclose(printed_l, fit.l, atol=1e-12)


class TestTiming:
    def test_single_pair_on_16_bodies_under_a_second(self, tmp_path, capsys):
        from skelfit.synth import figure16_spec

        session, _ = generate(figure16_spec(frames=500, seed=99))
        path = tmp_path / "figure.csv"
        write_session(path, session)
        start = time.perf_counter()
        # upper arm against chest
        assert main(["solve-joint", str(path), "4", "1"]) == 0
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert float(stdout_field(out, "epsilon_m")) < 1e-9
        assert elapsed < 1.0


class TestBuildSkeleton:
    def test_writes_skeleton_and_fit_matrix(self, linkage_dir, tmp_path, capsys):
        base, session, truth = linkage_dir
        skel_path = tmp_path / "skeleton.json"
        matrix_path = tmp_path / "fits.csv"
        code = main(
            [
                "build-skeleton",
                str(base / "session.csv"),
                "--output",
                str(skel_path),
                "--fit-matrix",
                str(matrix_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"wrote {skel_path}" in out
        assert "joints:" in out
        assert "limb lengths (m):" in out
        model = load_skeleton(skel_path)
        assert {b: j.parent for b, j in model.joints.items()} == {
            b: j.parent for b, j in truth.joints.items()
        }
        lines = matrix_path.read_text().strip().splitlines()
        assert lines[0] == "body_i,body_j,epsilon_m"
        assert len(lines) == 16

    def test_stdout_json_when_no_output(self, linkage_dir, capsys):
        base, _, _ = linkage_dir
        assert main(["build-skeleton", str(base / "session.csv")]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{") :]
        data = json.loads(payload)
        assert data["root"] == 0
        assert len(data["bodies"]) == 6

    def test_hierarchy_file_skips_inference(self, linkage_dir, tmp_path, capsys):
        base, session, truth = linkage_dir
        parents = {truth.root: None}
        parents.update({b: j.parent for b, j in truth.joints.items()})
        map_path = tmp_path / "parents.csv"
        write_parent_map(map_path, parents)
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        assert (
            main(
                [
                    "build-skeleton",
                    str(base / "session.csv"),
                    "--hierarchy",
                    str(map_path),
                    "--output",
                    str(a_path),
                ]
            )
            == 0
        )
        assert (
            main(["build-skeleton", str(base / "session.csv"), "--output", str(b_path)])
            == 0
        )
        capsys.readouterr()
        assert json.loads(a_path.read_text()) == json.loads(b_path.read_text())

    def test_repeat_runs_byte_identical(self, linkage_dir, tmp_path, capsys):
        base, _, _ = linkage_dir
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a_path, b_path):
            assert (
                main(
                    ["build-skeleton", str(base / "session.csv"), "--output", str(path)]
                )
                == 0
            )
        capsys.readouterr()
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_explicit_root(self, linkage_dir, tmp_path, capsys):
        base, _, _ = linkage_dir
        skel_path = tmp_path / "rerooted.json"
        code = main(
            [
                "build-skeleton",
                str(base / "session.csv"),
                "--root",
                "3",
                "--output",
                str(skel_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert load_skeleton(skel_path).root == 3

    def test_hierarchy_and_root_conflict(self, linkage_dir, tmp_path, capsys):
        base, _, _ = linkage_dir
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "build-skeleton",
                    str(base / "session.csv"),
                    "--hierarchy",
                    "x.csv",
                    "--root",
                    "1",
                ]
            )
        capsys.readouterr()
        assert exc.value.code == 2


class TestReconstruct:
    def test_removes_residuals(self, tmp_path, capsys):
        spec = linkage_spec(frames=200, seed=92)
        session, _ = generate(spec)
        session_path = tmp_path / "noisy.csv"
        write_session(session_path, session)
        model = fit_skeleton(session)
        skel_path = tmp_path / "skeleton.json"
        save_skeleton(skel_path, model)
        out_path = tmp_path / "rebuilt.csv"
        code = main(["reconstruct", str(session_path), str(skel_path), str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        before = float(stdout_field(out, "max joint gap before").split()[0])
        after = float(stdout_field(out, "max joint gap after").split()[0])
        assert before > 1e-3
        assert after < 1e-12
        assert f"wrote {out_path}" in out
        rebuilt = load_session(out_path)
        worst = max(g.max() for g in joint_gaps(model, rebuilt).values())
        assert worst < 1e-11  # CSV round-trip keeps the gaps closed

    def test_idempotent_via_files(self, tmp_path, capsys):
        spec = linkage_spec(frames=120, seed=93)
        session, _ = generate(spec)
        session_path = tmp_path / "noisy.csv"
        write_session(session_path, session)
        model = fit_skeleton(session)
        skel_path = tmp_path / "skeleton.json"
        save_skeleton(skel_path, model)
        first = tmp_path / "once.csv"
        second = tmp_path / "twice.csv"
        assert main(["reconstruct", str(session_path), str(skel_path), str(first)]) == 0
        assert main(["reconstruct", str(first), str(skel_path), str(second)]) == 0
        out = capsys.readouterr().out
        last_before = [
            line for line in out.splitlines() if line.startswith("max joint gap before")
        ][-1]
        assert float(last_before.split(": ")[1].split()[0]) < 1e-11


class TestSynth:
    def test_preset_writes_bundle(self, tmp_path, capsys):
        out_dir = tmp_path / "bundle"
        code = main(
            [
                "synth",
                "--preset",
                "rigid-pair",
                "--frames",
                "50",
                "--seed",
                "9",
                "--out-dir",
                str(out_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        for name in ("session.csv", "truth.json", "spec.json", "labels.csv"):
            assert (out_dir / name).exists()
            assert f"wrote {out_dir / name}" in out
        session = load_session(out_dir / "session.csv")
        assert session.frame_count == 50
        assert session.body_count == 2

    def test_deterministic_across_runs(self, tmp_path, capsys):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            assert (
                main(
                    [
                        "synth",
                        "--preset",
                        "linkage",
                        "--frames",
                        "40",
                        "--seed",
                        "5",
                        "--out-dir",
                        str(d),
                    ]
                )
                == 0
            )
        capsys.readouterr()
        assert (a_dir / "session.csv").read_bytes() == (b_dir / "session.csv").read_bytes()

    def test_spec_file_reproduces_preset(self, tmp_path, capsys):
        preset_dir = tmp_path / "preset"
        assert (
            main(
                [
                    "synth",
                    "--preset",
                    "figure16",
                    "--frames",
                    "20",
                    "--seed",
                    "8",
                    "--out-dir",
                    str(preset_dir),
                ]
            )
            == 0
        )
        spec_dir = tmp_path / "fromspec"
        assert (
            main(
                [
                    "synth",
                    "--spec",
                    str(preset_dir / "spec.json"),
                    "--out-dir",
                    str(spec_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (preset_dir / "session.csv").read_bytes() == (
            spec_dir / "session.csv"
        ).read_bytes()

    def test_preset_and_spec_conflict(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "synth",
                    "--preset",
                    "linkage",
                    "--spec",
                    "x.json",
                    "--out-dir",
                    str(tmp_path),
                ]
            )
        capsys.readouterr()
        assert exc.value.code == 2

    def test_source_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert exc.value.code == 2


class TestCalibratePair:
    def test_known_distance_scale(self, tmp_path, capsys):
        session, _ = generate(
            rigid_pair_spec(frames=100, seed=94, unit_distortion=0.94)
        )
        path = tmp_path / "pair.csv"
        write_session(path, session)
        report_path = tmp_path / "cal.json"
        code = main(
            [
                "calibrate-pair",
                str(path),
                "0",
                "1",
                "--known-distance",
                "0.565",
                "--output",
                str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert stdout_field(out, "frames") == "100"
        assert float(stdout_field(out, "scale")) == pytest.approx(0.94, rel=1e-9)
        report = json.loads(report_path.read_text())
        assert report["known_distance"] == 0.565
        assert report["scale"] == pytest.approx(0.94, rel=1e-12)

    def test_plain_distance_stats(self, tmp_path, capsys):
        session, _ = generate(rigid_pair_spec(frames=80, seed=95))
        path = tmp_path / "pair.csv"
        write_session(path, session)
        assert main(["calibrate-pair", str(path), "0", "1"]) == 0
        out = capsys.readouterr().out
        assert float(stdout_field(out, "mean_m")) == pytest.approx(0.565, abs=1e-9)
        assert stdout_field(out, "scale") == "1"


class TestResiduals:
    def test_summary_matches_library(self, linkage_dir, tmp_path, capsys):
        base, session, _ = linkage_dir
        resid_path = tmp_path / "r.csv"
        hist_path = tmp_path / "h.csv"
        code = main(
            [
                "residuals",
                str(base / "session.csv"),
                "1",
                "0",
                "--output",
                str(resid_path),
                "--histogram",
                str(hist_path),
                "--bins",
                "12",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        loaded = load_session(base / "session.csv")
        fit = solve_joint(loaded, 1, 0)
        assert stdout_field(out, "rms_m") == fmt(fit.epsilon)
        assert stdout_field(out, "min_m") == fmt(fit.residual_per_frame.min())
        assert stdout_field(out, "max_m") == fmt(fit.residual_per_frame.max())
        assert len(resid_path.read_text().splitlines()) == 301
        assert len(hist_path.read_text().strip().splitlines()) == 13
        # the CSV carries the in-process residuals bit for bit
        back = np.loadtxt(resid_path, delimiter=",", skiprows=1, usecols=1, ndmin=1)
        assert back.tobytes() == fit.residual_per_frame.tobytes()


class TestExitCodes:
    def test_unparseable_session(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("frame,body\n0,0\n")
        assert main(["solve-joint", str(bad), "1", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value, column", [("nan", 5), ("inf", 12)])
    @pytest.mark.parametrize("command", ["solve-joint", "build-skeleton"])
    def test_non_finite_cell(self, pair_csv, capsys, command, value, column):
        path, _ = pair_csv
        lines = path.read_text().splitlines()
        cells = lines[6].split(",")
        cells[column] = value
        lines[6] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        args = [command, str(path)] + (["1", "0"] if command == "solve-joint" else [])
        assert main(args) == 2
        assert "row 7: non-finite value" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve-joint", str(tmp_path / "nope.csv"), "1", "0"]) == 4
        capsys.readouterr()

    def test_same_body_pair(self, pair_csv, capsys):
        path, _ = pair_csv
        assert main(["solve-joint", str(path), "1", "1"]) == 3
        capsys.readouterr()

    def test_body_out_of_range(self, pair_csv, capsys):
        path, _ = pair_csv
        assert main(["solve-joint", str(path), "7", "0"]) == 3
        capsys.readouterr()

    def test_unknown_label(self, pair_csv, capsys):
        path, _ = pair_csv
        assert main(["solve-joint", str(path), "wrist", "0"]) == 3
        capsys.readouterr()

    def test_single_frame_session(self, tmp_path, capsys):
        session = manual_pair_session((0.1, 0, 0), (0.2, 0, 0), n=1, seed=96)
        path = tmp_path / "one.csv"
        write_session(path, session)
        assert main(["solve-joint", str(path), "1", "0"]) == 3
        capsys.readouterr()

    def test_skeleton_body_missing(self, pair_csv, tmp_path, capsys):
        path, session = pair_csv
        spec = linkage_spec(frames=50, seed=97)
        big_session, _ = generate(spec)
        model = fit_skeleton(big_session)
        skel_path = tmp_path / "skeleton.json"
        save_skeleton(skel_path, model)
        out_path = tmp_path / "out.csv"
        assert main(["reconstruct", str(path), str(skel_path), str(out_path)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda data: data.pop("root"), "skeleton: missing key 'root'"),
            (lambda data: data["bodies"][1].update(c=[0.1, 0.2]), "body 1: bad c: "),
            (
                lambda data: data["bodies"][1].update(c=[0.1, float("nan"), 0.0]),
                "body 1: bad c: ",
            ),
            (lambda data: data["bodies"].append(7), "body entry: missing key 'id'"),
        ],
        ids=["no-root", "short-c", "nan-c", "not-an-object"],
    )
    def test_malformed_skeleton_json(self, pair_csv, tmp_path, capsys, damage, message):
        path, session = pair_csv
        data = skeleton_to_dict(fit_skeleton(session, hierarchy={0: None, 1: 0}))
        damage(data)
        skel_path = tmp_path / "skeleton.json"
        skel_path.write_text(json.dumps(data))
        code = main(["reconstruct", str(path), str(skel_path), str(tmp_path / "out.csv")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_unit_scale_must_be_finite_and_positive(self, pair_csv, capsys, value):
        path, _ = pair_csv
        with pytest.raises(SystemExit) as exc:
            main(["solve-joint", str(path), "1", "0", f"--unit-scale={value}"])
        assert exc.value.code == 2
        assert "argument --unit-scale" in capsys.readouterr().err

    def test_duplicate_hierarchy_row(self, pair_csv, tmp_path, capsys):
        path, _ = pair_csv
        parents = tmp_path / "parents.csv"
        parents.write_text("body,parent\n0,world\n1,0\n1,0\n")
        assert main(["build-skeleton", str(path), "--hierarchy", str(parents)]) == 2
        assert f"{parents}, row 4: body 1 listed twice" in capsys.readouterr().err

    def test_bad_spec_json(self, tmp_path, capsys):
        spec_path = tmp_path / "broken.json"
        spec_path.write_text("{not json")
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_invalid_spec_contents(self, tmp_path, capsys):
        spec_path = tmp_path / "invalid.json"
        spec_path.write_text(json.dumps({"frame_count": 5, "bodies": []}))
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path)]) == 3
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_calibrate_length_guard_is_not_triggered_by_cli(
        self, tmp_path, capsys
    ):
        # both tracks come from one session, so lengths always agree;
        # a degenerate empty known distance still parses as exit 2
        session, _ = generate(rigid_pair_spec(frames=10, seed=98))
        path = tmp_path / "pair.csv"
        write_session(path, session)
        with pytest.raises(SystemExit) as exc:
            main(["calibrate-pair", str(path), "0", "1", "--known-distance", "x"])
        capsys.readouterr()
        assert exc.value.code == 2
