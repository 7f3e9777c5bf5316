"""End-to-end acceptance gate.

Each test prints one ACCEPTANCE line (PASS or FAIL with the measured
figure) and then asserts, so a full run always shows the scorecard.
"""
import math
import time

import numpy as np

from skelfit.hierarchy import FitMatrix, infer_hierarchy
from skelfit.skeleton import fit_skeleton, joint_gaps, limb_length, reconstruct
from skelfit.solver import Classification, calibrate_pair, residual_histogram, solve_joint
from skelfit.synth import (
    Excitation,
    SynthBody,
    SynthSpec,
    figure16_spec,
    generate,
    linkage_spec,
    rigid_pair_spec,
    rotational_dof,
)

from conftest import all_labeled_trees, line_angle


def report(capsys, n, slug, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {n} {slug}: {detail}"


def parent_map_of(model):
    out = {model.root: None}
    out.update({b: j.parent for b, j in model.joints.items()})
    return out


def test_1_noiseless_recovery(capsys):
    spec = figure16_spec()
    assert rotational_dof(spec) >= 48
    session, truth = generate(spec)
    assert session.frame_count == 500 and session.body_count == 16

    start = time.perf_counter()
    model = fit_skeleton(session)
    elapsed = time.perf_counter() - start

    hierarchy_ok = parent_map_of(model) == parent_map_of(truth)
    worst = max(
        max(
            float(np.linalg.norm(model.joints[b].c - j.c)),
            float(np.linalg.norm(model.joints[b].l - j.l)),
        )
        for b, j in truth.joints.items()
    )
    ok = hierarchy_ok and worst < 1e-6 and elapsed < 10.0
    report(
        capsys,
        1,
        "noiseless-recovery",
        ok,
        f"16 bodies, 48 DOF, 500 frames: worst joint error {worst:.3g} m, "
        f"hierarchy {'exact' if hierarchy_ok else 'WRONG'}, fit {elapsed:.2f} s",
    )


def test_2_linkage_with_noise(capsys):
    expected = {(1, 2): 0.390, (1, 3): 0.397, (2, 3): 0.343, (2, 4): 0.314, (3, 5): 0.286}
    worst = 0.0
    bad_trees = 0
    for seed in range(1, 7):
        session, truth = generate(linkage_spec(frames=2000, seed=seed))
        model = fit_skeleton(session)
        if parent_map_of(model) != parent_map_of(truth):
            bad_trees += 1
            continue
        for (a, b), length in expected.items():
            worst = max(worst, abs(limb_length(model, a, b) - length))
    ok = bad_trees == 0 and worst < 0.015
    report(
        capsys,
        2,
        "linkage-with-noise",
        ok,
        f"6 trials, sigma_t 0.007 m, sigma_r 0.01 rad: worst length error "
        f"{worst * 100:.2f} cm, {6 - bad_trees}/6 hierarchies correct",
    )


def test_3_hinge_detection(capsys):
    axis = np.array([0.36, -0.48, 0.80])
    axis /= np.linalg.norm(axis)
    from skelfit.rigid import rotation_about_axis

    mount = rotation_about_axis(np.array([0.0, 1.0, 0.0]), 0.9)
    bodies = (
        SynthBody(0, None),
        SynthBody(
            1,
            0,
            c=(0.08, -0.02, 0.04),
            l=(0.27, 0.06, -0.01),
            excitation=Excitation(kind="hinge", axis=axis, mount=mount),
        ),
    )
    session, truth = generate(SynthSpec(bodies=bodies, frame_count=600, seed=101))
    fit = solve_joint(session, 1, 0)
    joint = truth.joints[1]

    angle_c = line_angle(fit.axis_child, joint.axis_child)
    angle_p = line_angle(fit.axis_parent, joint.axis_parent)
    d_c = fit.c - joint.c
    off_c = float(np.linalg.norm(d_c - np.dot(d_c, joint.axis_child) * joint.axis_child))
    d_p = fit.l - joint.l
    off_p = float(
        np.linalg.norm(d_p - np.dot(d_p, joint.axis_parent) * joint.axis_parent)
    )

    ok = (
        fit.classification is Classification.HINGE
        and max(angle_c, angle_p) < 1e-6
        and max(off_c, off_p) < 1e-9
    )
    report(
        capsys,
        3,
        "hinge-detection",
        ok,
        f"classification {fit.classification}, axis error "
        f"{max(angle_c, angle_p):.3g} rad, point-to-axis {max(off_c, off_p):.3g} m",
    )


def test_4_minimum_norm(capsys):
    session, _ = generate(rigid_pair_spec(frames=2000))
    fit = solve_joint(session, 1, 0)

    # every exact solution is (c + delta, l + M delta) with M the fixed
    # relative rotation, read straight from the data
    Rp0 = session.track(0).rotations[0]
    Rc0 = session.track(1).rotations[0]
    M = Rp0.T @ Rc0

    def norm_sq(delta):
        return float(
            np.dot(fit.c + delta, fit.c + delta)
            + np.dot(fit.l + M @ delta, fit.l + M @ delta)
        )

    # brute force over the null space: coordinate descent with an exact
    # parabola step, then random sampling around the result
    delta = np.zeros(3)
    for _ in range(8):
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            h = 0.25
            f0, fp, fm = norm_sq(delta), norm_sq(delta + h * e), norm_sq(delta - h * e)
            curvature = fp + fm - 2.0 * f0
            if curvature > 0.0:
                delta = delta + (0.5 * h * (fm - fp) / curvature) * e
    best = norm_sq(delta)
    rng = np.random.default_rng(103)
    for scale in (1e-3, 1e-2, 0.1, 1.0):
        best = min(best, min(norm_sq(delta + d) for d in rng.normal(scale=scale, size=(400, 3))))

    u = np.concatenate([fit.c, fit.l])
    gap = abs(math.sqrt(float(np.dot(u, u))) - math.sqrt(best))
    ok = fit.classification is Classification.RIGID and gap < 1e-9
    report(
        capsys,
        4,
        "minimum-norm",
        ok,
        f"classification {fit.classification}, |u| {np.linalg.norm(u):.6f} m, "
        f"oracle gap {gap:.3g} m",
    )


def test_5_mst_oracle(capsys):
    trees = all_labeled_trees(5)
    assert len(trees) == 125
    worst = 0.0
    agree = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        W = rng.uniform(0.1, 10.0, size=(5, 5))
        W = (W + W.T) / 2.0
        np.fill_diagonal(W, np.nan)
        exhaustive = min(
            math.fsum(sorted(W[i, j] for i, j in t)) for t in trees
        )
        result = infer_hierarchy(FitMatrix(epsilon=W))
        gap = abs(result.total_epsilon - exhaustive)
        worst = max(worst, gap)
        agree += gap == 0.0
    ok = agree == 100
    report(
        capsys,
        5,
        "mst-oracle",
        ok,
        f"{agree}/100 seeds match the 125-tree enumeration exactly "
        f"(worst gap {worst:.3g})",
    )


def test_6_reconstruction_contract(capsys):
    session, _ = generate(linkage_spec(frames=2000, seed=102))
    model = fit_skeleton(session)

    once = reconstruct(model, session)
    worst_gap = max(float(g.max()) for g in joint_gaps(model, once).values())

    twice = reconstruct(model, once)
    worst_drift = 0.0
    for b in range(session.body_count):
        worst_drift = max(
            worst_drift,
            float(np.abs(twice.track(b).rotations - once.track(b).rotations).max()),
            float(np.abs(twice.track(b).translations - once.track(b).translations).max()),
        )

    ok = worst_gap < 1e-12 and worst_drift < 1e-12
    report(
        capsys,
        6,
        "reconstruction-contract",
        ok,
        f"worst post-reconstruction gap {worst_gap:.3g} m over 2000 frames, "
        f"idempotence drift {worst_drift:.3g}",
    )


def test_7_residual_shape(capsys):
    session, truth = generate(linkage_spec(frames=2000, seed=102))
    fit = solve_joint(session, 1, truth.joints[1].parent)
    hist = residual_histogram(fit, bins=40)

    nonnegative = bool((fit.residual_per_frame >= 0.0).all()) and hist.edges[0] == 0.0
    counted = int(hist.counts.sum()) == session.frame_count
    mean = float(fit.residual_per_frame.mean())
    median = float(np.median(fit.residual_per_frame))
    skewed = mean > median

    ok = nonnegative and counted and skewed
    report(
        capsys,
        7,
        "residual-shape",
        ok,
        f"support starts at 0, mean {mean * 1000:.2f} mm > median {median * 1000:.2f} mm",
    )


def test_8_throughput(capsys):
    spec = figure16_spec(frames=5400, seed=104)
    session, truth = generate(spec)

    start = time.perf_counter()
    fit_skeleton(session, hierarchy=parent_map_of(truth))
    known_s = time.perf_counter() - start

    start = time.perf_counter()
    model = fit_skeleton(session)
    inferred_s = time.perf_counter() - start

    ok = (
        known_s < 1.0
        and inferred_s < 10.0
        and parent_map_of(model) == parent_map_of(truth)
    )
    report(
        capsys,
        8,
        "throughput",
        ok,
        f"16 bodies x 5400 frames: known hierarchy {known_s:.2f} s, "
        f"all-pairs inference {inferred_s:.2f} s",
    )


def test_9_calibration_op(capsys):
    session, _ = generate(
        rigid_pair_spec(frames=2000, seed=105, sigma_t=0.007, unit_distortion=0.94)
    )
    cal = calibrate_pair(session, 0, 1, known_distance=0.565)

    # Monte-Carlo oracle for the injected model: a constant separation of
    # 0.565/0.94 emitted units plus independent N(0, 0.007^2) noise on
    # each sensor's position
    rng = np.random.default_rng(106)
    emitted = 0.565 / 0.94
    samples = np.linalg.norm(
        np.array([emitted, 0.0, 0.0])
        + rng.normal(0.0, 0.007, size=(300_000, 3)) * math.sqrt(2.0),
        axis=1,
    )
    std_mc = float(samples.std(ddof=1))

    scale_ok = abs(cal.scale - 0.94) < 0.01 * 0.94
    std_ok = abs(cal.std_m - std_mc) < 0.15 * std_mc
    ok = scale_ok and std_ok
    report(
        capsys,
        9,
        "calibration-op",
        ok,
        f"scale {cal.scale:.4f} (target 0.94), std {cal.std_m * 1000:.2f} mm vs "
        f"Monte-Carlo {std_mc * 1000:.2f} mm",
    )
