"""Per-pair joint solve: exact recovery, rank handling, residual stats; pair calibration."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelfit.capture import BodyTrack, CaptureSession
from skelfit.errors import AllZeroError, DegenerateInputError
from skelfit.rigid import rotation_about_axis
from skelfit.skeleton import load_skeleton, save_skeleton
from skelfit.solver import (
    MAX_HISTOGRAM_BINS,
    NOISELESS_RANK_TOL,
    Classification,
    JointFit,
    assemble_system,
    calibrate_pair,
    classify_rank,
    residual_histogram,
    solve_joint,
    write_histogram_csv,
    write_residual_csv,
)
from skelfit.synth import generate, rigid_pair_spec, truth_model

from conftest import haar_rotations, hinge_relative_rotations, line_angle, manual_pair_session


def identity_session(n=1, m=2):
    R = np.tile(np.eye(3), (n, 1, 1))
    return CaptureSession(
        tuple(BodyTrack(i, R.copy(), np.zeros((n, 3))) for i in range(m)), n
    )


class TestAssembleSystem:
    def test_identity_bodies(self):
        A, b = assemble_system(identity_session(), 0, 1)
        assert A.shape == (3, 6)
        assert np.array_equal(A, np.hstack([np.eye(3), -np.eye(3)]))
        assert np.array_equal(b, np.zeros(3))

    def test_translation_sign_convention(self):
        R = np.tile(np.eye(3), (1, 1, 1))
        session = CaptureSession(
            (
                BodyTrack(0, R.copy(), np.zeros((1, 3))),
                BodyTrack(1, R.copy(), np.array([[1.0, 0.0, 0.0]])),
            ),
            1,
        )
        _, b = assemble_system(session, 1, 0)
        assert np.array_equal(b, [-1.0, 0.0, 0.0])

    def test_block_layout_follows_frames(self):
        session = manual_pair_session(c=(0.1, 0.0, 0.0), l=(0.2, 0.0, 0.0), n=4, seed=1)
        A, b = assemble_system(session, 1, 0)
        assert A.shape == (12, 6)
        child = session.track(1)
        parent = session.track(0)
        for k in range(4):
            assert np.array_equal(A[3 * k : 3 * k + 3, :3], child.rotations[k])
            assert np.array_equal(A[3 * k : 3 * k + 3, 3:], -parent.rotations[k])
            assert np.array_equal(
                b[3 * k : 3 * k + 3], -(child.translations[k] - parent.translations[k])
            )

    def test_true_parameters_null_the_system(self):
        c, l = np.array([0.07, -0.03, 0.11]), np.array([0.25, 0.05, -0.02])
        session = manual_pair_session(c, l, n=50, seed=2)
        A, b = assemble_system(session, 1, 0)
        assert np.linalg.norm(A @ np.concatenate([c, l]) - b) < 1e-12 * max(
            1.0, np.linalg.norm(b)
        )

    def test_same_body_rejected(self):
        with pytest.raises(ValueError, match="body 1 given twice: the two bodies must differ"):
            assemble_system(identity_session(), 1, 1)


class TestRecovery:
    def test_spherical_pair_recovers_exactly(self):
        c, l = np.array([0.10, 0.02, -0.05]), np.array([0.30, 0.0, 0.0])
        session = manual_pair_session(c, l, n=100, seed=3)
        fit = solve_joint(session, 1, 0, rank_tol=NOISELESS_RANK_TOL)
        assert fit.classification is Classification.SPHERICAL
        assert np.linalg.norm(fit.c - c) < 1e-9
        assert np.linalg.norm(fit.l - l) < 1e-9
        assert fit.epsilon < 1e-9

    def test_two_axis_excitation_suffices(self):
        rng = np.random.default_rng(4)
        angles = rng.uniform(-1.0, 1.0, size=(60, 2))
        rels = np.stack(
            [
                rotation_about_axis(np.array([1.0, 0.0, 0.0]), a)
                @ rotation_about_axis(np.array([0.0, 1.0, 0.0]), b)
                for a, b in angles
            ]
        )
        c, l = np.array([0.05, 0.01, 0.02]), np.array([0.2, -0.1, 0.0])
        session = manual_pair_session(c, l, n=60, seed=5, relative_rotations=rels)
        fit = solve_joint(session, 1, 0, rank_tol=NOISELESS_RANK_TOL)
        assert fit.classification is Classification.SPHERICAL
        assert np.linalg.norm(fit.c - c) < 1e-9

    def test_identical_tracks_give_rigid_origin(self):
        rng = np.random.default_rng(6)
        R = haar_rotations(rng, 40)
        t = rng.normal(size=(40, 3))
        session = CaptureSession((BodyTrack(0, R, t), BodyTrack(1, R.copy(), t.copy())), 40)
        fit = solve_joint(session, 1, 0)
        assert fit.classification is Classification.RIGID
        assert np.linalg.norm(np.concatenate([fit.c, fit.l])) < 1e-12

    def test_epsilon_is_rms_of_per_frame_norms(self):
        session = manual_pair_session((0.1, 0.0, 0.0), (0.2, 0.0, 0.0), n=30, seed=7)
        noisy = CaptureSession(
            (
                session.bodies[0],
                BodyTrack(
                    1,
                    session.track(1).rotations,
                    session.track(1).translations
                    + np.random.default_rng(8).normal(0, 0.01, (30, 3)),
                ),
            ),
            30,
        )
        fit = solve_joint(noisy, 1, 0)
        expected = math.sqrt(float(np.mean(fit.residual_per_frame**2)))
        assert fit.epsilon == pytest.approx(expected, rel=1e-12)

    def test_degenerate_frame_count(self):
        with pytest.raises(DegenerateInputError):
            solve_joint(identity_session(n=1), 0, 1)

    def test_rank_tol_domain(self):
        session = manual_pair_session((0.1, 0, 0), (0.2, 0, 0), n=10, seed=9)
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                solve_joint(session, 1, 0, rank_tol=bad)


class TestClassifyRank:
    def test_full_rank(self):
        cls, deficient = classify_rank(np.array([10.0, 9, 8, 7, 6, 5]), 1e-5)
        assert cls is Classification.SPHERICAL and deficient == 0

    def test_one_deficient(self):
        cls, deficient = classify_rank(np.array([10.0, 9, 8, 7, 6, 1e-9]), 1e-5)
        assert cls is Classification.HINGE and deficient == 1

    def test_many_deficient(self):
        cls, deficient = classify_rank(np.array([10.0, 9, 8, 1e-9, 1e-10, 0.0]), 1e-5)
        assert cls is Classification.RIGID and deficient == 3

    def test_all_zero(self):
        with pytest.raises(AllZeroError):
            classify_rank(np.zeros(6), 1e-5)

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            classify_rank(np.array([1.0, 2, 3, 4, 5, 6]), 1e-5)
        with pytest.raises(ValueError):
            classify_rank(np.array([6.0, 5, 4, 3, 2, -1]), 1e-5)


class TestHinge:
    axis = np.array([0.0, 1.0, 0.0])
    mount = rotation_about_axis(np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0), 0.6)
    c_true = np.array([0.08, -0.02, 0.04])
    l_true = np.array([0.27, 0.06, -0.01])

    def fit(self, axis=None, mount=None, seed=10):
        axis = self.axis if axis is None else axis
        mount = self.mount if mount is None else mount
        rng = np.random.default_rng(seed)
        rels = hinge_relative_rotations(axis, mount, rng.uniform(-1.4, 1.4, 80))
        session = manual_pair_session(self.c_true, self.l_true, n=80, seed=seed, relative_rotations=rels)
        return solve_joint(session, 1, 0, rank_tol=NOISELESS_RANK_TOL)

    def test_classified_as_hinge(self):
        assert self.fit().classification is Classification.HINGE

    def test_child_axis_matches_truth(self):
        fit = self.fit()
        assert line_angle(fit.axis_child, self.axis) < 1e-6

    def test_parent_axis_matches_truth(self):
        fit = self.fit()
        assert line_angle(fit.axis_parent, self.mount @ self.axis) < 1e-6

    def test_skew_axis(self):
        axis = np.array([0.3, -0.5, 0.81])
        axis /= np.linalg.norm(axis)
        fit = self.fit(axis=axis, seed=11)
        assert fit.classification is Classification.HINGE
        assert line_angle(fit.axis_child, axis) < 1e-6

    def test_joint_point_lies_on_true_axis(self):
        fit = self.fit()
        d_child = fit.c - self.c_true
        off_child = d_child - np.dot(d_child, self.axis) * self.axis
        assert np.linalg.norm(off_child) < 1e-9
        parent_axis = self.mount @ self.axis
        d_parent = fit.l - self.l_true
        off_parent = d_parent - np.dot(d_parent, parent_axis) * parent_axis
        assert np.linalg.norm(off_parent) < 1e-9

    def test_axes_are_unit_length(self):
        fit = self.fit()
        assert abs(np.linalg.norm(fit.axis_child) - 1.0) < 1e-9
        assert abs(np.linalg.norm(fit.axis_parent) - 1.0) < 1e-9

    def test_spherical_fit_has_no_axes(self):
        session = manual_pair_session((0.1, 0, 0), (0.2, 0, 0), n=40, seed=12)
        fit = solve_joint(session, 1, 0)
        assert fit.axis_child is None and fit.axis_parent is None


def quadratic_descent(f, dim, sweeps=8, h=0.25):
    """Coordinate descent with an exact 3-point parabola fit per step."""
    x = np.zeros(dim)
    for _ in range(sweeps):
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = 1.0
            f0, fp, fm = f(x), f(x + h * e), f(x - h * e)
            curvature = fp + fm - 2.0 * f0
            if curvature <= 0.0:
                continue
            x = x + (0.5 * h * (fm - fp) / curvature) * e
    return x


class TestMinimumNorm:
    def rigid_session(self, seed=13, n=60):
        mount = rotation_about_axis(np.array([0.2, 0.9, -0.4]) / np.linalg.norm([0.2, 0.9, -0.4]), 1.1)
        rels = np.tile(mount, (n, 1, 1))
        session = manual_pair_session((0.05, 0.12, -0.07), (0.33, -0.04, 0.09), n=n, seed=seed, relative_rotations=rels)
        return session, mount

    def test_rigid_classification_and_null_space(self):
        session, mount = self.rigid_session()
        fit = solve_joint(session, 1, 0, rank_tol=NOISELESS_RANK_TOL)
        assert fit.classification is Classification.RIGID
        A, _ = assemble_system(session, 1, 0)
        # solutions shift by (delta, mount @ delta); confirm the parameterization
        rng = np.random.default_rng(14)
        for delta in rng.normal(size=(5, 3)):
            shift = np.concatenate([delta, mount @ delta])
            assert np.linalg.norm(A @ shift) < 1e-10 * np.linalg.norm(shift) * np.linalg.norm(A)

    def test_solution_is_exact(self):
        session, _ = self.rigid_session()
        fit = solve_joint(session, 1, 0, rank_tol=NOISELESS_RANK_TOL)
        assert fit.epsilon < 1e-9

    def test_descent_oracle_cannot_shrink_norm(self):
        session, mount = self.rigid_session()
        fit = solve_joint(session, 1, 0, rank_tol=NOISELESS_RANK_TOL)

        def norm_sq(delta):
            return float(
                np.dot(fit.c + delta, fit.c + delta)
                + np.dot(fit.l + mount @ delta, fit.l + mount @ delta)
            )

        best = quadratic_descent(norm_sq, 3)
        assert np.linalg.norm(best) < 1e-9
        u = np.concatenate([fit.c, fit.l])
        assert norm_sq(best) >= np.dot(u, u) - 1e-12

    def test_sampled_shifts_cannot_shrink_norm(self):
        session, mount = self.rigid_session()
        fit = solve_joint(session, 1, 0, rank_tol=NOISELESS_RANK_TOL)
        u = np.concatenate([fit.c, fit.l])
        base = float(np.dot(u, u))
        rng = np.random.default_rng(15)
        for scale in (1e-3, 1e-2, 0.1, 1.0):
            deltas = rng.normal(scale=scale, size=(500, 3))
            shifted = np.concatenate([fit.c + deltas, fit.l + deltas @ mount.T], axis=1)
            norms = (shifted**2).sum(axis=1)
            assert (norms >= base - 1e-12).all()


class TestSymmetry:
    def test_swapped_fit_mirrors(self):
        session = manual_pair_session((0.06, -0.01, 0.03), (0.21, 0.08, -0.05), n=70, seed=16)
        forward = solve_joint(session, 1, 0)
        reverse = solve_joint(session, 0, 1)
        assert np.allclose(forward.c, reverse.l, atol=1e-12)
        assert np.allclose(forward.l, reverse.c, atol=1e-12)
        assert forward.epsilon == pytest.approx(reverse.epsilon, rel=1e-12, abs=1e-15)
        assert np.allclose(forward.singular_values, reverse.singular_values, rtol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        c=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
        l=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_swap_symmetry_property(self, c, l, seed):
        # swapping child and parent relabels the unknowns, nothing else
        session = manual_pair_session(c, l, n=24, seed=seed)
        forward = solve_joint(session, 1, 0)
        reverse = solve_joint(session, 0, 1)
        assert np.allclose(forward.c, reverse.l, atol=1e-9)
        assert np.allclose(forward.l, reverse.c, atol=1e-9)
        assert forward.epsilon == pytest.approx(reverse.epsilon, rel=1e-9, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_rigid_world_motion_property(self, seed):
        # moving the whole capture by one rigid transform changes nothing
        session = manual_pair_session((0.1, 0.05, 0.0), (0.3, 0.0, -0.1), n=30, seed=seed)
        rng = np.random.default_rng(seed)
        G_R = haar_rotations(rng, 1)[0]
        G_t = rng.normal(size=3)
        moved = CaptureSession(
            tuple(
                BodyTrack(b.body_id, G_R @ b.rotations, b.translations @ G_R.T + G_t)
                for b in session.bodies
            ),
            30,
        )
        base = solve_joint(session, 1, 0)
        shifted = solve_joint(moved, 1, 0)
        assert np.allclose(shifted.c, base.c, atol=1e-9)
        assert np.allclose(shifted.l, base.l, atol=1e-9)
        assert shifted.epsilon == pytest.approx(base.epsilon, abs=1e-12)

    def test_world_frame_equivariance(self):
        session = manual_pair_session((0.1, 0.05, 0.0), (0.3, 0.0, -0.1), n=50, seed=17)
        noisy = CaptureSession(
            (
                session.bodies[0],
                BodyTrack(
                    1,
                    session.track(1).rotations,
                    session.track(1).translations
                    + np.random.default_rng(18).normal(0, 0.005, (50, 3)),
                ),
            ),
            50,
        )
        rng = np.random.default_rng(19)
        G_R = haar_rotations(rng, 1)[0]
        G_t = rng.normal(size=3)
        moved = CaptureSession(
            tuple(
                BodyTrack(
                    b.body_id,
                    G_R @ b.rotations,
                    b.translations @ G_R.T + G_t,
                )
                for b in noisy.bodies
            ),
            50,
        )
        base = solve_joint(noisy, 1, 0)
        shifted = solve_joint(moved, 1, 0)
        assert shifted.epsilon == pytest.approx(base.epsilon, rel=1e-12)
        assert np.allclose(shifted.residual_per_frame, base.residual_per_frame, atol=1e-12)

    def test_normal_equations_optimality(self):
        session = manual_pair_session((0.04, 0.09, -0.02), (0.18, -0.06, 0.12), n=40, seed=21)
        noisy = CaptureSession(
            (
                session.bodies[0],
                BodyTrack(
                    1,
                    session.track(1).rotations,
                    session.track(1).translations
                    + np.random.default_rng(22).normal(0, 0.01, (40, 3)),
                ),
            ),
            40,
        )
        fit = solve_joint(noisy, 1, 0)
        A, b = assemble_system(noisy, 1, 0)
        gradient = A.T @ (A @ np.concatenate([fit.c, fit.l]) - b)
        bound = 1e-8 * np.linalg.norm(A) * max(np.linalg.norm(b), 1.0)
        assert np.linalg.norm(gradient) < bound


class TestResidualNoise:
    def test_rigid_pair_component_rms_tracks_sigma(self):
        # two sensors, each with sigma per axis: difference noise has
        # variance 2 sigma^2 per component, so the per-component RMS of
        # the residual sits near sigma*sqrt(2) and the per-frame norm
        # RMS (epsilon) near sigma*sqrt(6)
        sigma = 0.007
        n = 2000
        rng = np.random.default_rng(23)
        mount = rotation_about_axis(np.array([0.0, 0.0, 1.0]), 0.4)
        rels = np.tile(mount, (n, 1, 1))
        session = manual_pair_session((0.0, 0.0, 0.0), (0.565, 0.0, 0.0), n=n, seed=24, relative_rotations=rels)
        noisy = CaptureSession(
            tuple(
                BodyTrack(
                    b.body_id,
                    b.rotations,
                    b.translations + rng.normal(0, sigma, (n, 3)),
                )
                for b in session.bodies
            ),
            n,
        )
        fit = solve_joint(noisy, 1, 0)
        assert fit.classification is Classification.RIGID
        component_rms = fit.epsilon / math.sqrt(3.0)
        assert abs(component_rms - sigma * math.sqrt(2.0)) < 0.25 * sigma * math.sqrt(2.0)
        assert abs(fit.epsilon - sigma * math.sqrt(6.0)) < 0.25 * sigma * math.sqrt(6.0)

    def test_noiseless_residuals_vanish(self):
        session = manual_pair_session((0.1, 0.02, 0.0), (0.25, 0.0, 0.05), n=100, seed=25)
        fit = solve_joint(session, 1, 0, rank_tol=NOISELESS_RANK_TOL)
        assert (fit.residual_per_frame < 1e-9).all()


class TestResidualReports:
    def noisy_fit(self, n=200, seed=26):
        session = manual_pair_session((0.1, 0.0, 0.0), (0.2, 0.0, 0.0), n=n, seed=seed)
        noisy = CaptureSession(
            (
                session.bodies[0],
                BodyTrack(
                    1,
                    session.track(1).rotations,
                    session.track(1).translations
                    + np.random.default_rng(seed + 1).normal(0, 0.01, (n, 3)),
                ),
            ),
            n,
        )
        return solve_joint(noisy, 1, 0)

    def test_summary_stats(self):
        fit = self.noisy_fit()
        assert fit.epsilon == np.sqrt(np.mean(fit.residual_per_frame**2))

    def test_histogram_counts_and_support(self):
        fit = self.noisy_fit()
        hist = residual_histogram(fit, bins=24)
        assert hist.edges[0] == 0.0
        assert hist.counts.sum() == 200
        assert len(hist.counts) == 24

    def test_histogram_bin_width_override(self):
        fit = self.noisy_fit()
        hist = residual_histogram(fit, bin_width=0.004)
        widths = np.diff(hist.edges)
        assert np.allclose(widths, 0.004)
        assert hist.counts.sum() == 200
        with pytest.raises(ValueError):
            residual_histogram(fit, bin_width=-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bins": 0},
            {"bins": -2},
            {"bins": 2.5},
            {"bin_width": math.nan},
            {"bin_width": math.inf},
            {"bin_width": 0.0},
        ],
        ids=["bins=0", "bins=-2", "bins=2.5", "width=nan", "width=inf", "width=0"],
    )
    def test_histogram_rejects_bad_binning(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            residual_histogram(self.noisy_fit(n=20), **kwargs)

    def test_bin_count_above_cap_rejected(self):
        with pytest.raises(ValueError, match=f"at most {MAX_HISTOGRAM_BINS}"):
            residual_histogram(self.noisy_fit(n=20), bins=MAX_HISTOGRAM_BINS + 1)

    def test_bin_width_implying_too_many_bins_rejected(self):
        fit = self.noisy_fit(n=20)
        width = float(fit.residual_per_frame.max()) / (MAX_HISTOGRAM_BINS + 1)
        message = f"gives {MAX_HISTOGRAM_BINS + 1} bins, above the cap of {MAX_HISTOGRAM_BINS}"
        with pytest.raises(ValueError, match=message):
            residual_histogram(fit, bin_width=width)

    def test_bin_width_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="gives inf bins"):
            residual_histogram(self.noisy_fit(n=20), bin_width=5e-324)

    def test_histogram_is_one_sided_and_asymmetric(self):
        fit = self.noisy_fit()
        assert (fit.residual_per_frame >= 0.0).all()
        assert fit.residual_per_frame.mean() > np.median(fit.residual_per_frame)

    def test_residual_csv_round_trip(self, tmp_path):
        fit = self.noisy_fit()
        path = tmp_path / "resid.csv"
        write_residual_csv(path, fit)
        back = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1)
        assert back.tobytes() == fit.residual_per_frame.tobytes()
        frames = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
        assert frames == [str(k) for k in range(200)]

    @pytest.mark.parametrize("source", ["hand-built", "skeleton JSON", "synth truth"])
    def test_fit_without_residuals_refused(self, tmp_path, source):
        truth = truth_model(rigid_pair_spec())
        if source == "hand-built":
            fit = JointFit(1, 0, np.zeros(3), np.zeros(3), 0.0, Classification.SPHERICAL)
        elif source == "skeleton JSON":
            save_skeleton(tmp_path / "skeleton.json", truth)
            fit = load_skeleton(tmp_path / "skeleton.json").joints[1]
        else:
            fit = truth.joints[1]
        message = r"joint 1 -> 0 has no per-frame residuals \(only solve_joint makes them\)"
        with pytest.raises(ValueError, match=message):
            residual_histogram(fit)
        path = tmp_path / "resid.csv"
        with pytest.raises(ValueError, match=message):
            write_residual_csv(path, fit)
        assert not path.exists()

    def test_histogram_csv(self, tmp_path):
        fit = self.noisy_fit()
        hist = residual_histogram(fit, bins=10)
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, hist)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 11
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 200


class TestCalibratePair:
    def test_noiseless_distance_is_exact(self):
        session, _ = generate(rigid_pair_spec(frames=300, seed=76))
        cal = calibrate_pair(session, 0, 1)
        assert cal.mean_m == pytest.approx(0.565, abs=1e-12)
        assert cal.std_m < 1e-12
        assert cal.scale == 1.0
        assert cal.distances.shape == (300,)

    def test_known_distance_sets_scale(self):
        session, _ = generate(
            rigid_pair_spec(frames=300, seed=77, unit_distortion=0.94)
        )
        cal = calibrate_pair(session, 0, 1, known_distance=0.565)
        assert cal.mean_m == pytest.approx(0.565 / 0.94, rel=1e-12)
        assert cal.scale == pytest.approx(0.94, rel=1e-12)

    def test_noise_widens_spread(self):
        session, _ = generate(rigid_pair_spec(frames=2000, seed=78, sigma_t=0.007))
        cal = calibrate_pair(session, 0, 1)
        assert cal.std_m > 0.005
        assert cal.mean_m == pytest.approx(0.565, abs=0.01)

    @pytest.mark.parametrize("known", [math.nan, math.inf, 0.0, -0.5])
    def test_known_distance_must_be_finite_positive(self, known):
        session, _ = generate(rigid_pair_spec(frames=10, seed=79))
        with pytest.raises(ValueError, match="known_distance"):
            calibrate_pair(session, 0, 1, known_distance=known)

    @pytest.mark.parametrize("known", [None, 0.565])
    def test_one_body_twice_refused(self, known):
        session, _ = generate(rigid_pair_spec(frames=10, seed=79))
        with pytest.raises(ValueError, match="must differ"):
            calibrate_pair(session, 0, 0, known_distance=known)
