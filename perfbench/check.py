"""Correctness checks of one calibration job against the synthetic truth.

The fitted skeleton is scored joint by joint against the truth model:

* joint error: a spherical joint's error is the larger of |c - c_true|
  and |l - l_true|.  A hinge's point is only defined up to its axis, so
  its error is the larger of the distances of c and l from the true
  axis line in the child and parent frame.  Rigid truth joints have no
  defined point and are left out.
* class errors: joints whose classification differs from the truth.
* hierarchy errors: bodies whose fitted parent differs from the truth.
  Joints on a wrong parent are counted here and left out of the joint
  error, which compares like with like.

The replayed CSV is reloaded with numpy's own parser, independent of
the program's loader, and checked for closure (every joint gap at most
GAP_LIMIT_M) and for keeping the captured rotations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from skelfit.capture import CSV_HEADER, BodyTrack, CaptureSession
from skelfit.skeleton import SkeletonModel, joint_gaps
from skelfit.solver import Classification

GAP_LIMIT_M = 1e-9  # replayed joints must close; the seed leaves ~1e-15 m
ROTATION_LIMIT = 1e-9  # replay keeps the captured rotations
NOISELESS_ERR_LIMIT_M = 1e-6  # acceptance 1's recovery bound


@dataclass(frozen=True)
class Accuracy:
    joint_err_max_m: float
    class_errors: int
    hierarchy_errors: int


def _off_line(p: np.ndarray, point: np.ndarray, axis: np.ndarray) -> float:
    """Distance of p from the line through point along unit axis."""
    d = p - point
    return float(np.linalg.norm(d - np.dot(d, axis) * axis))


def accuracy(model: SkeletonModel, truth: SkeletonModel) -> Accuracy:
    err = 0.0
    class_errors = hierarchy_errors = 0
    for body, want in truth.joints.items():
        got = model.joints.get(body)
        if got is None or got.parent != want.parent:
            hierarchy_errors += 1
        if got is None:
            continue
        if got.classification != want.classification:
            class_errors += 1
        if got.parent != want.parent or want.classification is Classification.RIGID:
            continue
        if want.classification is Classification.HINGE:
            e = max(
                _off_line(got.c, want.c, want.axis_child),
                _off_line(got.l, want.l, want.axis_parent),
            )
        else:
            e = max(
                float(np.linalg.norm(got.c - want.c)),
                float(np.linalg.norm(got.l - want.l)),
            )
        err = max(err, e)
    if model.root != truth.root:
        hierarchy_errors += 1
    return Accuracy(err, class_errors, hierarchy_errors)


def reload_csv(path, bodies: int, frames: int) -> CaptureSession:
    """Parse a transform-stream CSV with numpy; raise ValueError unless
    every (frame, body) cell appears exactly once."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header != CSV_HEADER:
        raise ValueError(f"bad header {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (bodies * frames, 14):
        raise ValueError(f"expected {bodies * frames} rows of 14, got {data.shape}")
    frame = data[:, 0].astype(np.int64)
    body = data[:, 1].astype(np.int64)
    if frame.min() < 0 or body.min() < 0 or frame.max() >= frames or body.max() >= bodies:
        raise ValueError("frame or body index out of range")
    cell = body * frames + frame
    if np.any(np.bincount(cell, minlength=bodies * frames) != 1):
        raise ValueError("missing or duplicate (frame, body) cells")
    ordered = np.empty_like(data)
    ordered[cell] = data
    ordered = ordered.reshape(bodies, frames, 14)
    tracks = tuple(
        BodyTrack(b, ordered[b, :, 2:11].reshape(frames, 3, 3), ordered[b, :, 11:])
        for b in range(bodies)
    )
    return CaptureSession(tracks, frames)


def replay_problems(model: SkeletonModel, source: CaptureSession, out_csv) -> list[str]:
    """Why the replayed CSV is wrong; empty when it is right."""
    try:
        replayed = reload_csv(out_csv, source.body_count, source.frame_count)
    except (OSError, ValueError) as exc:
        return [f"replayed CSV unreadable: {exc}"]
    problems = []
    gap = max((float(g.max()) for g in joint_gaps(model, replayed).values()), default=0.0)
    if not gap <= GAP_LIMIT_M:
        problems.append(f"joint gap {gap:.3g} m above {GAP_LIMIT_M:g} m")
    turn = max(
        float(np.abs(a.rotations - b.rotations).max())
        for a, b in zip(replayed.bodies, source.bodies)
    )
    if not turn <= ROTATION_LIMIT:
        problems.append(f"rotations moved by {turn:.3g}, above {ROTATION_LIMIT:g}")
    return problems


def accuracy_problems(acc: Accuracy) -> list[str]:
    """Gates for a noiseless workload, where accuracy sits at rounding level."""
    problems = []
    if not acc.joint_err_max_m <= NOISELESS_ERR_LIMIT_M:
        problems.append(
            f"joint error {acc.joint_err_max_m:.3g} m above {NOISELESS_ERR_LIMIT_M:g} m"
        )
    if acc.class_errors:
        problems.append(f"{acc.class_errors} joints misclassified")
    if acc.hierarchy_errors:
        problems.append(f"{acc.hierarchy_errors} bodies on the wrong parent")
    return problems


def self_test(workdir) -> int:
    """Show that the checks pass the truth and catch broken outputs.

    Each broken case names the check that must catch it.  A replay case
    keeps the true skeleton, so the accuracy check passes and only
    replay_problems can catch it.
    """
    from dataclasses import replace

    from skelfit.capture import write_session
    from skelfit.synth import generate
    from workloads import random_tree

    session, truth = generate(random_tree(6, 100, seed=5))
    hinge = next(b for b, j in truth.joints.items() if j.classification is Classification.HINGE)
    child = next(b for b, j in truth.joints.items() if j.parent != truth.root)

    def joint(body, **change):
        return replace(truth, joints={**truth.joints, body: replace(truth.joints[body], **change)})

    def replayed(name, body=None, rotation=None, translation=None):
        """The true replay written to name, with one cell of body changed."""
        tracks = []
        for track in session.bodies:
            rot, trans = track.rotations.copy(), track.translations.copy()
            if track.body_id == body:
                rot[7] = rotation @ rot[7] if rotation is not None else rot[7]
                trans[7] += translation if translation is not None else 0.0
            tracks.append(replace(track, rotations=rot, translations=trans))
        path = workdir / name
        write_session(path, CaptureSession(tuple(tracks), session.frame_count))
        return path

    turn = 0.01  # rad about z
    about_z = np.array(
        [[np.cos(turn), -np.sin(turn), 0.0], [np.sin(turn), np.cos(turn), 0.0], [0.0, 0.0, 1.0]]
    )
    true_csv = replayed("true.csv")
    h = truth.joints[hinge]
    cases = [
        ("truth", truth, true_csv, None),
        (
            f"hinge {hinge} slid 5 cm along its axis",
            joint(hinge, c=h.c + 0.05 * h.axis_child, l=h.l + 0.05 * h.axis_parent),
            true_csv,
            None,
        ),
        (
            f"joint {child} c shifted 1 mm",
            joint(child, c=truth.joints[child].c + [1e-3, 0, 0]),
            true_csv,
            "accuracy",
        ),
        (f"body {child} on the wrong parent", joint(child, parent=truth.root), true_csv, "accuracy"),
        (
            f"replayed body {child} moved 1 mm in one frame",
            truth,
            replayed("moved.csv", child, translation=np.array([1e-3, 0.0, 0.0])),
            "replay",
        ),
        (
            f"replayed body {child} turned {turn} rad in one frame",
            truth,
            replayed("turned.csv", child, rotation=about_z),
            "replay",
        ),
    ]
    with open(true_csv, encoding="utf-8") as fh:
        lines = fh.readlines()
    short_csv = workdir / "short.csv"
    with open(short_csv, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    cases.append(("replayed CSV missing a row", truth, short_csv, "replay"))

    failures = 0
    for label, model, csv, caught_by in cases:
        found = {
            "accuracy": accuracy_problems(accuracy(model, truth)),
            "replay": replay_problems(model, session, csv),
        }
        if caught_by is None:
            good = not any(found.values())
        elif caught_by == "replay":
            good = bool(found["replay"]) and not found["accuracy"]
        else:
            good = bool(found[caught_by])
        problems = found["accuracy"] + found["replay"]
        verdict = "passes" if not problems else "caught: " + "; ".join(problems)
        failures += not good
        print(f"{'ok  ' if good else 'FAIL'} {label}: {verdict}")
    print("self-test " + ("passed" if not failures else f"FAILED ({failures})"))
    return 1 if failures else 0
