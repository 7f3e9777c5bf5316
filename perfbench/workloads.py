"""The benchmark's three calibration workloads and their set-up.

Each workload is a synth spec built from the run's seed, plus the flags
the two CLI steps get.  Set-up generates the session, writes its CSV
and the true parent map, and returns the truth the checker compares
against.  The program only ever sees the written files.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from skelfit.capture import write_session
from skelfit.hierarchy import write_parent_map
from skelfit.synth import (
    Excitation,
    NoiseSpec,
    RootMotion,
    SynthBody,
    SynthSpec,
    figure16_spec,
    generate,
)

HINGE_BODIES = (5, 8, 11, 14)  # forearms and shins of figure16
TRACKER_NOISE = NoiseSpec(sigma_t=0.001, sigma_r=0.003)
CONE = 1.2  # rad, the figure16 sway cone


def hinged_figure16(frames: int, seed: int) -> SynthSpec:
    """figure16 with elbows and knees turned into hinges, tracker noise."""
    spec = figure16_spec(frames=frames, seed=seed, max_angle=CONE)
    elbow_knee = Excitation(kind="hinge", axis=(1.0, 0.0, 0.0), max_angle=CONE)
    bodies = tuple(
        replace(b, excitation=elbow_knee) if b.body_id in HINGE_BODIES else b
        for b in spec.bodies
    )
    return replace(spec, bodies=bodies, noise=TRACKER_NOISE)


def random_tree(bodies: int, frames: int, seed: int) -> SynthSpec:
    """Seeded random tree: every 4th joint a hinge, the rest cones."""
    rng = np.random.default_rng(seed)
    out = [SynthBody(0, None)]
    for i in range(1, bodies):
        parent = int(rng.integers(0, i))
        c = rng.uniform(-0.2, 0.2, size=3)
        l = rng.uniform(-0.2, 0.2, size=3)
        if i % 4 == 0:
            axis = rng.normal(size=3)
            exc = Excitation(kind="hinge", axis=axis / np.linalg.norm(axis), max_angle=CONE)
        else:
            exc = Excitation(kind="spherical", max_angle=CONE)
        out.append(SynthBody(i, parent, c=c, l=l, excitation=exc))
    return SynthSpec(
        bodies=tuple(out),
        frame_count=frames,
        seed=seed,
        root_motion=RootMotion(kind="random", translation_scale=1.0),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Callable[[int], SynthSpec]  # seed -> the session to generate
    known_tree: bool  # fit step gets --hierarchy, so no fit matrix is built
    orthonormalize: bool  # replay step gets --orthonormalize
    gate_accuracy: bool  # noiseless: accuracy values are gates, not metrics


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tall16",
            lambda seed: hinged_figure16(5400, seed),
            known_tree=False,
            orthonormalize=False,
            gate_accuracy=False,
        ),
        Workload(
            "wide128",
            lambda seed: random_tree(128, 500, seed),
            known_tree=False,
            orthonormalize=False,
            gate_accuracy=True,
        ),
        Workload(
            "long16",
            lambda seed: hinged_figure16(10000, seed),
            known_tree=True,
            orthonormalize=True,
            gate_accuracy=False,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    session_csv: Path
    parent_csv: Path
    session: object  # the generated CaptureSession
    truth: object  # its SkeletonModel
    bodies: int
    frames: int
    csv_bytes: int


def set_up(workload: Workload, seed: int, workdir: Path, spans: dict) -> Inputs:
    """Generate the session and write its CSV and true parent map.

    spans collects the seconds spent in generate and write_session.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    session_csv = workdir / "session.csv"
    parent_csv = workdir / "parents.csv"
    t0 = time.perf_counter()
    session, truth = generate(workload.spec(seed))
    t1 = time.perf_counter()
    write_session(session_csv, session)
    t2 = time.perf_counter()
    parents = {b: j.parent for b, j in truth.joints.items()}
    parents[truth.root] = None
    write_parent_map(parent_csv, parents)
    spans["synth.generate.s"] = t1 - t0
    spans["capture.write_session.s"] = t2 - t1
    return Inputs(
        session_csv=session_csv,
        parent_csv=parent_csv,
        session=session,
        truth=truth,
        bodies=session.body_count,
        frames=session.frame_count,
        csv_bytes=session_csv.stat().st_size,
    )
