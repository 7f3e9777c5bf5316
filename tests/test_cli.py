"""Command-line interface: subcommands, outputs, exit codes."""
import argparse
import json
import os
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from skelfit import cli
from skelfit.capture import (
    CSV_HEADER,
    BodyTrack,
    CaptureSession,
    load_session,
    write_labels,
    write_session,
)
from skelfit.cli import build_parser, main
from skelfit.hierarchy import FitMatrix, write_fit_matrix_csv, write_parent_map
from skelfit.skeleton import (
    SkeletonModel,
    fit_skeleton,
    joint_gaps,
    load_skeleton,
    save_skeleton,
    skeleton_to_dict,
)
from skelfit.solver import (
    MAX_HISTOGRAM_BINS,
    Classification,
    JointFit,
    ResidualHistogram,
    solve_joint,
    write_histogram_csv,
    write_residual_csv,
)
from skelfit.synth import (
    SynthBody,
    SynthSpec,
    generate,
    linkage_spec,
    rigid_pair_spec,
    save_spec,
    spec_to_dict,
)

from conftest import manual_pair_session

DATA = Path(__file__).parent / "data"
README = Path(__file__).resolve().parent.parent / "README.md"


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

    def test_label_read_as_another_index_exits_3(self, pair_csv, tmp_path, capsys):
        # "0" as body 1's label would resolve to body 0: `1 0` printed "pair: 0 -> 0"
        path, _ = pair_csv
        labels_path = tmp_path / "labels.csv"
        labels_path.write_text("body,label\n1,0\n")
        code = main(["solve-joint", str(path), "1", "0", "--labels", str(labels_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "error: label '0' names body 1 but reads as body 0" in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("root", ["99", "-1"])
    def test_root_out_of_range_fails_before_the_fit(self, pair_csv, capsys, monkeypatch, root):
        path, _ = pair_csv

        def no_fit(*args, **kwargs):
            raise AssertionError("fit matrix built")

        monkeypatch.setattr(cli, "build_fit_matrix", no_fit)
        assert main(["build-skeleton", str(path), "--root", root]) == 2
        message = f"error: argument --root: {root} is not a body index 0..1"
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,world\n1,2\n2,1\n", "error: body 1 does not chain to the root"),
            ("0,world\n1,world\n", "error: parent map must have exactly one root, found [0, 1]"),
            ("0,world\n1,9\n", "error: body 1: parent 9 out of range"),
        ],
        ids=["cycle", "two-roots", "unknown-parent"],
    )
    def test_hierarchy_not_one_tree(self, linkage_dir, tmp_path, capsys, rows, message):
        base, _, _ = linkage_dir
        map_path = tmp_path / "parents.csv"
        map_path.write_text("body,parent\n" + rows)
        code = main(["build-skeleton", str(base / "session.csv"), "--hierarchy", str(map_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert message in captured.err
        assert "joints:" not in captured.out


    def test_fit_matrix_with_hierarchy_refused_before_the_session_is_read(
        self, tmp_path, capsys
    ):
        map_path = tmp_path / "parents.csv"
        map_path.write_text("body,parent\n0,world\n1,0\n")
        matrix_path = tmp_path / "fm.csv"
        missing = tmp_path / "no_such_session.csv"
        argv = ["build-skeleton", str(missing), "--hierarchy", str(map_path)]
        code = main([*argv, "--fit-matrix", str(matrix_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "--fit-matrix" in err and "--hierarchy" in err
        assert not matrix_path.exists()

    def test_cyclic_map_fails_before_the_session_is_read(self, tmp_path, capsys):
        map_path = tmp_path / "parents.csv"
        map_path.write_text("body,parent\n0,world\n1,2\n2,1\n")
        missing = tmp_path / "no_such_session.csv"
        code = main(["build-skeleton", str(missing), "--hierarchy", str(map_path)])
        assert code == 3
        assert "error: body 1 does not chain to the root" in capsys.readouterr().err


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

    def test_a_skeleton_label_given_to_two_bodies_exits_3(self, tmp_path, capsys):
        session, _ = generate(linkage_spec(frames=40, seed=95))
        session_path = tmp_path / "s.csv"
        write_session(session_path, session)
        data = skeleton_to_dict(fit_skeleton(session))
        data["bodies"][4]["label"] = data["bodies"][2]["label"]
        skel_path = tmp_path / "skeleton.json"
        skel_path.write_text(json.dumps(data))
        out_path = tmp_path / "out.csv"
        assert main(["reconstruct", str(session_path), str(skel_path), str(out_path)]) == 3
        assert "error: label 'upper_arm_l' names bodies 2 and 4" in capsys.readouterr().err
        assert not out_path.exists()

    def test_older_skeleton_format_replays_identically(self, tmp_path, capsys):
        # older files gave the root a joint; it must not change playback
        session, _ = generate(linkage_spec(frames=60, seed=94))
        session_path = tmp_path / "noisy.csv"
        write_session(session_path, session)
        old_path = DATA / "skeleton_with_root_joint.json"
        new_path = tmp_path / "skeleton.json"
        save_skeleton(new_path, load_skeleton(old_path))
        assert new_path.read_bytes() != old_path.read_bytes()
        outs = []
        for skel_path in (old_path, new_path):
            outs.append(tmp_path / f"from_{skel_path.stem}.csv")
            assert main(["reconstruct", str(session_path), str(skel_path), str(outs[-1])]) == 0
        capsys.readouterr()
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert load_session(outs[0]).track(3).translations.tobytes() != (
            session.track(3).translations.tobytes()
        )


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

    @pytest.mark.parametrize("relabel", [None, "pelvis"])
    def test_labels_round_trip_through_build_skeleton(self, tmp_path, capsys, relabel):
        from skelfit.synth import figure16_spec

        spec = figure16_spec(frames=40, seed=3)
        data = spec_to_dict(spec)
        if relabel is not None:
            data["bodies"][1]["label"] = relabel  # body 0 is the pelvis
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        out_dir = tmp_path / "bundle"
        code = main(["synth", "--spec", str(spec_path), "--out-dir", str(out_dir)])
        if relabel is not None:
            assert code == 3
            assert "label 'pelvis' names bodies 0 and 1" in capsys.readouterr().err
            assert not out_dir.exists()
            return
        assert code == 0
        skel = tmp_path / "skel.json"
        args = ["build-skeleton", str(out_dir / "session.csv"), "--output", str(skel)]
        assert main([*args, "--labels", str(out_dir / "labels.csv")]) == 0
        capsys.readouterr()
        labels = {b.body_id: b.label for b in spec.bodies}
        assert load_skeleton(skel).labels == labels

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
                "solve-joint",
                str(base / "session.csv"),
                "1",
                "0",
                "--residuals",
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
        assert stdout_field(out, "epsilon_m") == fmt(fit.epsilon)
        assert stdout_field(out, "min_m") == fmt(fit.residual_per_frame.min())
        assert stdout_field(out, "max_m") == fmt(fit.residual_per_frame.max())
        assert stdout_field(out, "mean_m") == fmt(fit.residual_per_frame.mean())
        assert len(resid_path.read_text().splitlines()) == 301
        assert len(hist_path.read_text().strip().splitlines()) == 13
        # the CSV carries the in-process residuals bit for bit
        back = np.loadtxt(resid_path, delimiter=",", skiprows=1, usecols=1, ndmin=1)
        assert back.tobytes() == fit.residual_per_frame.tobytes()

    def test_epsilon_is_the_residual_rms(self, pair_csv, capsys):
        # epsilon_m is the one rms of the per-frame residuals
        path, session = pair_csv
        assert main(["solve-joint", str(path), "1", "0"]) == 0
        out = capsys.readouterr().out
        fit = solve_joint(session, 1, 0)
        assert fit.epsilon == np.sqrt(np.mean(fit.residual_per_frame**2))
        assert stdout_field(out, "epsilon_m") == fmt(fit.epsilon)

    def test_default_bin_count(self, pair_csv, tmp_path, capsys):
        path, _ = pair_csv
        hist_path = tmp_path / "h.csv"
        assert main(["solve-joint", str(path), "1", "0", "--histogram", str(hist_path)]) == 0
        capsys.readouterr()
        assert len(hist_path.read_text().strip().splitlines()) == 1 + 30

    @pytest.mark.parametrize("flag, value", [("--bins", "12"), ("--bin-width", "0.001")])
    def test_binning_without_histogram_refused(self, pair_csv, tmp_path, capsys, flag, value):
        path, _ = pair_csv
        resid_path = tmp_path / "r.csv"
        argv = ["solve-joint", str(path), "1", "0", "--residuals", str(resid_path), flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: argument {flag}: not allowed without argument --histogram" in captured.err
        assert captured.out == "" and not resid_path.exists()


# solve-joint writing the residual CSV: the form that replaced `skelfit residuals`,
# whose test ids it keeps
PAIR_WITH_RESIDUALS = ["solve-joint", "1", "0", "--residuals", "r.csv"]


def _command_id(argv) -> str:
    return "residuals" if "--residuals" in argv else argv[0]


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

    def test_translation_overflow_under_unit_scale(self, pair_csv, capsys):
        path, _ = pair_csv
        lines = path.read_text().splitlines()
        cells = lines[6].split(",")
        cells[11] = "1e308"
        lines[6] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert main(["solve-joint", str(path), "1", "0", "--unit-scale", "10"]) == 2
        assert "row 7: non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra",
        [("solve-joint", ["1", "0"]), ("build-skeleton", []), ("reconstruct", ["s.json", "o.csv"])],
    )
    def test_bad_labels_fail_before_the_session_is_read(self, tmp_path, capsys, command, extra):
        labels = tmp_path / "labels.csv"
        labels.write_text("id,name\n0,base\n")
        missing = tmp_path / "nope.csv"
        args = [command, str(missing), *extra, "--labels", str(labels)]
        assert main(args) == 2
        assert f"error: {labels}: bad header 'id,name'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cell, message",
        [
            (b"x" * 200_000, " row 2: field larger than field limit"),
            (b"\xff", ": not UTF-8 text (byte 0xff"),
        ],
        ids=["long-field", "not-utf8"],
    )
    @pytest.mark.parametrize("flag", [None, "--labels", "--hierarchy"])
    def test_unreadable_csv_record(self, pair_csv, tmp_path, capsys, flag, cell, message):
        path, _ = pair_csv
        header = {None: CSV_HEADER, "--labels": "body,label", "--hierarchy": "body,parent"}
        bad = tmp_path / "bad.csv"
        bad.write_bytes(header[flag].encode() + b"\n0," + cell + b"\n")
        args = [str(bad)] if flag is None else [str(path), flag, str(bad)]
        assert main(["build-skeleton", *args]) == 2
        assert f"error: {bad}{message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (b'{"root": 0, "bodies": ["\xff"]}', ": not UTF-8 text (byte 0xff"),
            (b"[" * 100_000, ": maximum recursion depth exceeded"),
        ],
        ids=["not-utf8", "nested-too-deep"],
    )
    @pytest.mark.parametrize("command", ["reconstruct", "synth"])
    def test_unreadable_json(self, pair_csv, tmp_path, capsys, command, text, message):
        path, _ = pair_csv
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        if command == "reconstruct":
            args = ["reconstruct", str(path), str(bad), str(tmp_path / "out.csv")]
        else:
            args = ["synth", "--spec", str(bad), "--out-dir", str(tmp_path / "out")]
        assert main(args) == 2
        assert f"error: {bad}{message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reconstruct", "synth"])
    def test_failed_write_helper_exits_4(self, tmp_path, capsys, monkeypatch, command):
        # a helper process that formats half the rows dies before sending them
        from skelfit import capture

        if not capture._helper_pays(capture._HELPER_MIN_ROWS):
            pytest.skip("needs os.fork and two usable CPUs")
        session, _ = generate(linkage_spec(frames=200, seed=95))
        session_path = tmp_path / "noisy.csv"
        write_session(session_path, session)
        skel_path = tmp_path / "skeleton.json"
        save_skeleton(skel_path, fit_skeleton(session))
        monkeypatch.setattr(capture, "_HELPER_MIN_ROWS", 0)
        monkeypatch.setattr(capture, "_send", lambda out, payload: os._exit(3))
        if command == "reconstruct":
            out_path = tmp_path / "rebuilt.csv"
            assert main(["reconstruct", str(session_path), str(skel_path), str(out_path)]) == 4
        else:
            out_path = tmp_path / "bundle" / "session.csv"
            args = ["synth", "--preset", "linkage", "--frames", "200", "--seed", "95"]
            assert main([*args, "--out-dir", str(out_path.parent)]) == 4
        captured = capsys.readouterr()
        assert f"error: {out_path}: not fully written: helper process" in captured.err
        assert f"wrote {out_path}" not in captured.out
        with pytest.raises(ChildProcessError):  # the helper was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("text, code", [(None, 4), ("{", 2)], ids=["missing", "malformed"])
    def test_bad_skeleton_fails_before_the_session_is_read(
        self, tmp_path, capsys, monkeypatch, text, code
    ):
        def no_parse(*args, **kwargs):
            raise AssertionError("session parsed before the skeleton was read")

        monkeypatch.setattr(cli, "load_session", no_parse)
        skel_path = tmp_path / "skeleton.json"
        if text is not None:
            skel_path.write_text(text)
        # the session is missing too: the skeleton's error is the one reported
        missing = tmp_path / "nope.csv"
        args = ["reconstruct", str(missing), str(skel_path), str(tmp_path / "out.csv")]
        assert main(args) == code
        err = capsys.readouterr().err
        assert str(skel_path) in err and str(missing) not in err

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

    def test_skeleton_with_a_second_root(self, linkage_dir, tmp_path, capsys):
        # body 2 was once dropped from the model and passed through unfitted
        base, _, truth = linkage_dir
        data = skeleton_to_dict(truth)
        data["bodies"][2] = {"id": 2, "label": None, "parent": None}
        skel_path = tmp_path / "skeleton.json"
        skel_path.write_text(json.dumps(data))
        out_path = tmp_path / "out.csv"
        argv = ["reconstruct", str(base / "session.csv"), str(skel_path), str(out_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error: parent map must have exactly one root, found [0, 2]" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda data: data.pop("root"), "skeleton: missing key 'root'"),
            (lambda data: data["bodies"][1].update(c=[0.1, 0.2]), "body 1: bad c: "),
            (
                lambda data: data["bodies"][1].update(c=[0.1, float("nan"), 0.0]),
                "body 1: bad c: ",
            ),
            (lambda data: data["bodies"].append(7), "body entry: 7 is not a JSON object"),
            (lambda data: data["bodies"].append(dict(data["bodies"][1])), "body 1: listed twice"),
            # a float or a bool once truncated to a body id
            (
                lambda data: data["bodies"][1].update(parent=0.7),
                "body 1: bad parent: 0.7 is not a JSON integer",
            ),
            (
                lambda data: data["bodies"][1].update(parent=False),
                "body 1: bad parent: False is not a JSON integer",
            ),
            (lambda data: data.update(root=0.0), "skeleton: bad root: 0.0 is not a JSON integer"),
            (
                lambda data: data["bodies"][1].update(id=1.9),
                "body entry: bad id: 1.9 is not a JSON integer",
            ),
            # float() once took a string, and json reads the NaN literal
            (
                lambda data: data["bodies"][1].update(epsilon_m="0.5"),
                "body 1: bad epsilon_m: '0.5' is not a finite JSON number",
            ),
            (
                lambda data: data["bodies"][1].update(epsilon_m=float("nan")),
                "body 1: bad epsilon_m: nan is not a finite JSON number",
            ),
            (
                lambda data: data["bodies"][1].update(epsilon_m=float("inf")),
                "body 1: bad epsilon_m: inf is not a finite JSON number",
            ),
            (
                lambda data: data["bodies"][1].update(epsilon_m=True),
                "body 1: bad epsilon_m: True is not a finite JSON number",
            ),
            (
                lambda data: data["bodies"][1].update(epsilon_m=None),
                "body 1: bad epsilon_m: None is not a finite JSON number",
            ),
            (
                lambda data: data["bodies"][1].update(epsilon_m=10**400),
                "body 1: bad epsilon_m: 1000",
            ),
            (
                lambda data: data["bodies"][1].update(label=[1, 2]),
                "body 1: bad label: [1, 2] is not a JSON string",
            ),
            (
                lambda data: data["bodies"][0].update(label=7),
                "body 0: bad label: 7 is not a JSON string",
            ),
            # list() once split "ab" into two entries, and np.array took strings and booleans
            (
                lambda data: data.update(bodies="ab"),
                "skeleton: bad bodies: 'ab' is not a JSON array",
            ),
            (
                lambda data: data.update(bodies={"id": 0}),
                "skeleton: bad bodies: {'id': 0} is not a JSON array",
            ),
            (
                lambda data: data["bodies"][1].update(c=[True, "0.5", 0]),
                "body 1: bad c: True is not a finite JSON number",
            ),
            (
                lambda data: data["bodies"][1].update(l=[0.1, 0.2, "0.3"]),
                "body 1: bad l: '0.3' is not a finite JSON number",
            ),
            (
                lambda data: data["bodies"][1].update(axis_child=["1", 0, 0]),
                "body 1: bad axis_child: '1' is not a finite JSON number",
            ),
            (
                lambda data: data["bodies"][1].update(axis_parent=[0, False, 1]),
                "body 1: bad axis_parent: False is not a finite JSON number",
            ),
            # a misspelled key was once read as absent: axis_chlid as a joint with no axis
            (lambda data: data.update(rooot=3), "skeleton: unknown key(s): rooot"),
            (
                lambda data: data["bodies"][1].update(axis_chlid=[0, 0, 1], clasification="hinge"),
                "body 1: unknown key(s): axis_chlid, clasification",
            ),
            (
                lambda data: data["bodies"][0].update(epsilon=5),
                "body 0: unknown key(s): epsilon",
            ),
        ],
        ids=[
            "no-root",
            "short-c",
            "nan-c",
            "not-an-object",
            "duplicate-body",
            "float-parent",
            "bool-parent",
            "float-root",
            "float-id",
            "string-epsilon",
            "nan-epsilon",
            "inf-epsilon",
            "bool-epsilon",
            "null-epsilon",
            "huge-int-epsilon",
            "list-label",
            "int-root-label",
            "string-bodies",
            "object-bodies",
            "string-in-c",
            "string-in-l",
            "string-in-axis-child",
            "bool-in-axis-parent",
            "unknown-top-level-key",
            "unknown-body-keys",
            "unknown-root-key",
        ],
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

    def test_hierarchy_row_with_extra_field(self, pair_csv, tmp_path, capsys):
        path, _ = pair_csv
        parents = tmp_path / "parents.csv"
        parents.write_text("body,parent\n0,world\n1,0,junk\n")
        assert main(["build-skeleton", str(path), "--hierarchy", str(parents)]) == 2
        assert f"{parents}, row 3: expected 2 fields, got 3" in capsys.readouterr().err

    def test_bins_above_cap(self, pair_csv, capsys):
        path, _ = pair_csv
        too_many = str(MAX_HISTOGRAM_BINS + 1)
        with pytest.raises(SystemExit) as exc:
            main(["solve-joint", str(path), "1", "0", "--histogram", "h.csv", "--bins", too_many])
        assert exc.value.code == 2
        assert f"argument --bins: '{too_many}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [[*PAIR_WITH_RESIDUALS, "--bins", "12"], ["solve-joint", "1", "0"]],
        ids=_command_id,
    )
    def test_bin_width_implying_too_many_bins(self, pair_csv, tmp_path, capsys, command):
        path, _ = pair_csv
        top = float(solve_joint(load_session(path), 1, 0).residual_per_frame.max())
        width = repr(top / (MAX_HISTOGRAM_BINS + 1))
        hist_path = tmp_path / "h.csv"
        name, *rest = [str(tmp_path / a) if a == "r.csv" else a for a in command]
        argv = [name, str(path), *rest, "--histogram", str(hist_path), "--bin-width", width]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "error: argument --bin-width: " in err
        assert f"above the cap of {MAX_HISTOGRAM_BINS}" in err
        assert not hist_path.exists()

    def test_refused_bin_width_writes_no_file(self, pair_csv, tmp_path, capsys):
        path, _ = pair_csv
        outputs = [("--output", "f.json"), ("--residuals", "r.csv"), ("--histogram", "h.csv")]
        argv = ["solve-joint", str(path), "1", "0", "--bin-width", "1e-300"]
        for flag, name in outputs:
            argv += [flag, str(tmp_path / name)]
        assert main(argv) == 2
        assert "error: argument --bin-width: " in capsys.readouterr().err
        assert [name for _, name in outputs if (tmp_path / name).exists()] == []

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                ["calibrate-pair", "1", "0", "--known-distance", v]
                for v in ("nan", "-0.5", "0", "inf", "x")
            ),
            *(
                [*PAIR_WITH_RESIDUALS, "--histogram", "h.csv", "--bins", v]
                for v in ("0", "-3", "2.5", "x")
            ),
            *(
                [*command, "--rank-tol", v]
                for command in (
                    ["build-skeleton"],
                    ["solve-joint", "1", "0"],
                    PAIR_WITH_RESIDUALS,
                )
                for v in ("nan", "0", "1", "1.5", "-1", "x")
            ),
            *(
                [*command, "--histogram", "h.csv", "--bin-width", v]
                for command in (PAIR_WITH_RESIDUALS, ["solve-joint", "1", "0"])
                for v in ("nan", "inf", "0", "-0.001")
            ),
        ],
        ids=lambda argv: f"{_command_id(argv)}{argv[-2]}={argv[-1]}",
    )
    def test_numeric_flag_out_of_range(self, pair_csv, tmp_path, capsys, argv):
        path, _ = pair_csv
        command, *rest = argv
        rest = [str(tmp_path / a) if a in ("h.csv", "r.csv") else a for a in rest]
        with pytest.raises(SystemExit) as exc:
            main([command, str(path), *rest])
        assert exc.value.code == 2
        assert f"argument {argv[-2]}" in capsys.readouterr().err
        assert not (tmp_path / "h.csv").exists()
        assert not (tmp_path / "r.csv").exists()

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

    @pytest.mark.parametrize(
        "damage, message",
        [
            (
                lambda d: d["bodies"][1].update(c=["0.01", True, 0]),
                "bad bodies: body 1: bad c: '0.01' is not a finite JSON number",
            ),
            (
                lambda d: d["bodies"][1].update(l=[True, 0, 0]),
                "bad bodies: body 1: bad l: True is not a finite JSON number",
            ),
            (
                lambda d: d["bodies"][1]["excitation"].update(kind="hinge", axis=["1", 0, 0]),
                "bad bodies: body 1: bad excitation: bad axis: '1' is not a finite JSON number",
            ),
            (
                lambda d: d["bodies"][1]["excitation"].update(
                    mount=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
                ),
                "bad bodies: body 1: bad excitation: bad mount: '1' is not a finite JSON number",
            ),
            (
                lambda d: d["bodies"][1]["excitation"].update(
                    kind="scripted", rotations=[[[1, 0, 0], [0, 1, 0], [0, 0, "1"]]] * 5
                ),
                "bad bodies: body 1: bad excitation: bad rotations: "
                "'1' is not a finite JSON number",
            ),
            (lambda d: d.update(bodies="nope"), "bad bodies: 'nope' is not a JSON array"),
            (lambda d: d["bodies"].append(7), "bad bodies: body 6: 7 is not a JSON object"),
            (
                lambda d: d["bodies"][1].update(excitation="hinge"),
                "bad bodies: body 1: bad excitation: 'hinge' is not a JSON object",
            ),
            (lambda d: d.update(noise=[1]), "bad noise: [1] is not a JSON object"),
            (lambda d: d["bodies"][1].pop("parent"), "bad bodies: body 1: missing key 'parent'"),
            (lambda d: d.pop("frame_count"), "missing key 'frame_count'"),
            (lambda d: d.pop("bodies"), "missing key 'bodies'"),
            (lambda d: d["bodies"][0].pop("id"), "bad bodies: body 0: missing key 'id'"),
            (lambda d: d.update(bodies={"0": {}}), "bad bodies: {'0': {}} is not a JSON array"),
            # `or {}` once read these as all defaults
            (lambda d: d.update(noise=[]), "bad noise: [] is not a JSON object"),
            (lambda d: d.update(root_motion=0), "bad root_motion: 0 is not a JSON object"),
            (
                lambda d: d["bodies"][1].update(excitation=""),
                "bad bodies: body 1: bad excitation: '' is not a JSON object",
            ),
        ],
        ids=[
            "c",
            "l",
            "axis",
            "mount",
            "rotations",
            "string-bodies",
            "number-body",
            "string-excitation",
            "list-noise",
            "no-parent",
            "no-frame-count",
            "no-bodies",
            "no-id",
            "object-bodies",
            "empty-list-noise",
            "zero-root-motion",
            "empty-string-excitation",
        ],
    )
    def test_malformed_spec_exits_3(self, tmp_path, capsys, damage, message):
        data = spec_to_dict(linkage_spec(frames=5, seed=1))
        damage(data)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "o")]) == 3
        assert f"error: malformed synth spec: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed(self, tmp_path, capsys):
        args = ["synth", "--preset", "rigid-pair", "--out-dir", str(tmp_path / "o"), "--seed", "-1"]
        assert main(args) == 3
        assert "seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--known-distance", "0.565"]])
    def test_calibrate_one_body_twice(self, tmp_path, capsys, extra):
        session, _ = generate(rigid_pair_spec(frames=10, seed=98))
        path = tmp_path / "pair.csv"
        write_session(path, session)
        assert main(["calibrate-pair", str(path), "0", "0", *extra]) == 3
        assert "must differ" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_residuals_is_not_a_command(self, pair_csv, tmp_path, capsys):
        path, _ = pair_csv
        with pytest.raises(SystemExit) as exc:
            main(["residuals", str(path), "1", "0", "--output", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
        assert "invalid choice: 'residuals'" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_label_for_an_absent_body(self, pair_csv, tmp_path, capsys):
        path, _ = pair_csv
        labels = tmp_path / "labels.csv"
        write_labels(labels, {0: "base", 99: "wrist"})
        assert main(["solve-joint", str(path), "1", "0", "--labels", str(labels)]) == 3
        assert "names body 99, not in the session (bodies 0..1)" in capsys.readouterr().err


def test_readme_table_lists_every_subcommand():
    text = README.read_text(encoding="utf-8")
    table = text.split("| command | purpose |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    listed = [row.split("`")[1] for row in table.splitlines()]
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(commands.choices)


def _json_text(text: str) -> bytes:
    return textwrap.dedent(text).lstrip("\n").encode()


# the exact bytes each writer gives for the fixed inputs of test_written_bytes
WRITTEN = {
    "labels.csv": b'body,label\r\n0,base\r\n1,"tip, end"\r\n',
    "parents.csv": b"body,parent\r\n0,world\r\n1,0\r\n2,0\r\n",
    "fits.csv": b"body_i,body_j,epsilon_m\r\n0,1,0.5\r\n0,2,0.1\r\n1,2,2.0\r\n",
    "residuals.csv": b"frame,residual_m\r\n0,0.0\r\n1,0.1\r\n2,1e-17\r\n",
    "histogram.csv": b"bin_lo,bin_hi,count\r\n0.0,0.05,2\r\n0.05,0.1,1\r\n",
    "skeleton.json": _json_text(
        """
        {
          "root": 0,
          "bodies": [
            {
              "id": 0,
              "label": "base",
              "parent": null
            },
            {
              "id": 1,
              "label": null,
              "parent": 0,
              "c": [
                0.0,
                0.5,
                -1.0
              ],
              "l": [
                0.25,
                0.0,
                0.0
              ],
              "epsilon_m": 0.125,
              "classification": "rigid",
              "axis_child": null,
              "axis_parent": null
            }
          ]
        }
        """
    ),
    "spec.json": _json_text(
        """
        {
          "frame_count": 2,
          "seed": 3,
          "unit_distortion": 1.0,
          "root_motion": {
            "kind": "random",
            "translation_scale": 1.0,
            "rotate": true
          },
          "noise": {
            "sigma_t": 0.0,
            "sigma_r": 0.0
          },
          "bodies": [
            {
              "id": 0,
              "parent": null,
              "label": "base",
              "c": [
                0.0,
                0.0,
                0.0
              ],
              "l": [
                0.0,
                0.0,
                0.0
              ],
              "excitation": {
                "kind": "spherical",
                "max_angle": null,
                "axis": null,
                "mount": null,
                "rotations": null
              }
            }
          ]
        }
        """
    ),
    "fit.json": _json_text(
        """
        {
          "child": 1,
          "child_label": "1",
          "parent": 0,
          "parent_label": "0",
          "frames": 2,
          "classification": "rigid",
          "epsilon_m": 0.125,
          "c": [
            0.0,
            0.5,
            -1.0
          ],
          "l": [
            0.25,
            0.0,
            0.0
          ],
          "singular_values": [
            2.0,
            1.5,
            1.0,
            0.0,
            0.0,
            0.0
          ],
          "axis_child": null,
          "axis_parent": null
        }
        """
    ),
    "calibration.json": _json_text(
        """
        {
          "body_a": 0,
          "body_b": 1,
          "frames": 2,
          "mean_m": 0.5,
          "std_m": 0.0,
          "scale": 0.5,
          "known_distance": 0.25
        }
        """
    ),
}


def test_written_bytes(tmp_path, monkeypatch, capsys):
    joint = JointFit(
        child=1,
        parent=0,
        c=np.array([0.0, 0.5, -1.0]),
        l=np.array([0.25, 0.0, 0.0]),
        epsilon=0.125,
        classification=Classification.RIGID,
        singular_values=np.array([2.0, 1.5, 1.0, 0.0, 0.0, 0.0]),
        residual_per_frame=np.array([0.0, 0.1, 1e-17]),
    )
    write_labels(tmp_path / "labels.csv", {1: "tip, end", 0: "base"})
    write_parent_map(tmp_path / "parents.csv", {2: 0, 0: None, 1: 0})
    epsilon = np.array([[np.nan, 0.5, 0.1], [0.5, np.nan, 2.0], [0.1, 2.0, np.nan]])
    write_fit_matrix_csv(tmp_path / "fits.csv", FitMatrix(epsilon))
    write_residual_csv(tmp_path / "residuals.csv", joint)
    hist = ResidualHistogram(edges=np.array([0.0, 0.05, 0.1]), counts=np.array([2, 1]))
    write_histogram_csv(tmp_path / "histogram.csv", hist)
    save_skeleton(tmp_path / "skeleton.json", SkeletonModel(0, {1: joint}, labels={0: "base"}))
    save_spec(
        tmp_path / "spec.json",
        SynthSpec(bodies=(SynthBody(0, None, label="base"),), frame_count=2, seed=3),
    )
    # body 1 sits 0.5 m from body 0 in both frames, so the calibration is exact
    eye = np.tile(np.eye(3), (2, 1, 1))
    offset = np.array([[0.5, 0.0, 0.0], [0.0, -0.5, 0.0]])
    session = CaptureSession(
        (BodyTrack(0, eye, np.zeros((2, 3))), BodyTrack(1, eye, offset)), 2
    )
    session_path = tmp_path / "session.csv"
    write_session(session_path, session)
    monkeypatch.setattr(cli, "solve_joint", lambda *args, **kwargs: joint)
    fit_args = ["solve-joint", str(session_path), "1", "0", "--output"]
    assert main([*fit_args, str(tmp_path / "fit.json")]) == 0
    cal_args = ["calibrate-pair", str(session_path), "0", "1", "--known-distance", "0.25"]
    assert main([*cal_args, "--output", str(tmp_path / "calibration.json")]) == 0
    capsys.readouterr()
    for name, expected in WRITTEN.items():
        assert (tmp_path / name).read_bytes() == expected, name


SCIPY_HIDDEN_PROBE = """
import sys

sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np

from skelfit.capture import write_session
from skelfit.cli import main
from skelfit.rigid import rotation_about_axis
from skelfit.synth import PRESETS, Excitation, NoiseSpec, RootMotion, SynthBody, SynthSpec, generate

out = sys.argv[1]
for preset in PRESETS:
    assert main(["synth", "--preset", preset, "--frames", "100", "--out-dir", f"{out}/{preset}"]) == 0
mount = rotation_about_axis(np.array([1.0, 1.0, 0.0]), 0.6)
spec = SynthSpec(
    bodies=(
        SynthBody(0, None),
        SynthBody(1, 0, l=(0.3, 0, 0), excitation=Excitation(kind="hinge", axis=(0, 0, 1))),
        SynthBody(2, 1, c=(0.1, 0, 0), excitation=Excitation(kind="spherical", max_angle=0.8)),
        SynthBody(3, 0, l=(0, 0, 0.25), excitation=Excitation(kind="rigid", mount=mount)),
    ),
    frame_count=300,
    seed=5,
    root_motion=RootMotion(kind="random", rotate=True),
    noise=NoiseSpec(sigma_t=0.001, sigma_r=0.003),
)
session, _ = generate(spec)
write_session(f"{out}/spec.csv", session)
assert main(["build-skeleton", f"{out}/spec.csv", "--output", f"{out}/skel.json"]) == 0
"""


def test_runtime_needs_no_scipy(tmp_path):
    """With scipy unimportable: synth on every preset, generate on a spec with a
    hinge, a bounded cone, a rigid mount, a tumbling root and both noise sigmas,
    and build-skeleton on its session."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_HIDDEN_PROBE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_steps_with_helper_processes_warn_nothing(tmp_path):
    """synth, build-skeleton and reconstruct on a session large enough for the
    forked helpers, under -W error and with BLAS free to start its threads."""
    from skelfit.capture import _HELPER_MIN_ROWS

    src = Path(__file__).resolve().parent.parent / "src"
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    env["PYTHONPATH"] = str(src)
    bundle, skel = tmp_path / "bundle", tmp_path / "skel.json"
    frames = 2 * _HELPER_MIN_ROWS // 16  # twice the rows a helper needs: figure16 has 16 bodies
    steps = [
        ["synth", "--preset", "figure16", "--frames", str(frames), "--out-dir", str(bundle)],
        ["build-skeleton", str(bundle / "session.csv"), "--output", str(skel)],
        ["reconstruct", str(bundle / "session.csv"), str(skel), str(tmp_path / "out.csv")],
    ]
    for step in steps:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "skelfit.cli", *step],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), step
    assert load_session(tmp_path / "out.csv").frame_count == frames


def test_cold_and_warm_session_cache_give_the_same_bytes(tmp_path, monkeypatch, capsys):
    """build-skeleton, reconstruct --orthonormalize and solve-joint print and
    write the same bytes with an empty session cache and with a warm one, on
    a session large enough for the forked helper; the warm run adds no entry."""
    from skelfit.capture import _HELPER_MIN_ROWS

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    cache, bundle, out = tmp_path / "xdg" / "skelfit", tmp_path / "bundle", tmp_path / "out"
    frames = 2 * _HELPER_MIN_ROWS // 16  # twice the rows a helper needs: figure16 has 16 bodies
    synth = ["synth", "--preset", "figure16", "--frames", str(frames), "--out-dir", str(bundle)]
    assert main(synth) == 0
    session, skel = str(bundle / "session.csv"), str(tmp_path / "skel.json")
    assert main(["build-skeleton", session, "--output", skel]) == 0
    capsys.readouterr()
    commands = [
        ["build-skeleton", session, "--output", str(out / "skel.json"),
         "--fit-matrix", str(out / "fits.csv")],
        ["reconstruct", session, skel, str(out / "replay.csv"), "--orthonormalize"],
        ["solve-joint", session, "4", "1", "--output", str(out / "fit.json"),
         "--residuals", str(out / "residuals.csv"), "--histogram", str(out / "histogram.csv")],
    ]
    for argv in commands:
        shutil.rmtree(cache)
        runs = []
        for _ in ("cold", "warm"):
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            code = main(argv)
            printed = capsys.readouterr()
            written = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            stored = sorted(path.name for path in cache.iterdir())
            runs.append((code, printed.out, printed.err, written, stored))
        assert runs[0] == runs[1], argv[0]
        assert runs[0][0] == 0
        assert set(runs[0][3]) == {Path(a).name for a in argv if a.startswith(str(out))}
        assert len(runs[0][4]) == 1, argv[0]
