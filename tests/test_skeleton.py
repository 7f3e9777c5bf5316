"""Skeleton assembly, limb lengths, forward kinematics, reconstruction."""
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from skelfit import skeleton
from skelfit.capture import BodyTrack, CaptureSession, load_session, write_session
from skelfit.errors import MissingRotationError, NotAdjacentError
from skelfit.rigid import DET_RTOL, orthonormality_error, rotation_about_axis
from skelfit.skeleton import (
    SkeletonModel,
    adjacent_joint_pairs,
    dict_to_skeleton,
    fit_skeleton,
    forward_kinematics,
    joint_gaps,
    limb_length,
    load_skeleton,
    reconstruct,
    save_skeleton,
    skeleton_to_dict,
)
from skelfit.solver import NOISELESS_RANK_TOL, Classification, JointFit, solve_joint
from skelfit.synth import figure16_spec, generate, linkage_spec

from conftest import cofactor_families, haar_rotations, manual_pair_session

DATA = Path(__file__).parent / "data"
EPS = np.finfo(np.float64).eps


def make_joint(body, parent, c, l, cls=Classification.SPHERICAL):
    return JointFit(
        child=body,
        parent=parent,
        c=np.asarray(c, dtype=np.float64),
        l=np.asarray(l, dtype=np.float64),
        epsilon=0.0,
        classification=cls,
    )


@pytest.fixture(scope="module")
def linkage_clean():
    spec = linkage_spec(frames=400, seed=41, sigma_t=0.0, sigma_r=0.0)
    session, truth = generate(spec)
    model = fit_skeleton(session, rank_tol=NOISELESS_RANK_TOL)
    return spec, session, truth, model


class TestFitSkeleton:
    def test_two_body_recovery(self):
        c, l = np.array([0.11, -0.04, 0.06]), np.array([0.31, 0.02, -0.08])
        session = manual_pair_session(c, l, n=90, seed=40)
        model = fit_skeleton(session, rank_tol=NOISELESS_RANK_TOL)
        assert model.root == 0
        assert set(model.joints) == {1}
        joint = model.joints[1]
        assert np.linalg.norm(joint.c - c) < 1e-9
        assert np.linalg.norm(joint.l - l) < 1e-9
        assert joint.classification is Classification.SPHERICAL

    def test_supplied_map_matches_inferred(self, linkage_clean):
        _, session, truth, inferred = linkage_clean
        explicit = {0: None}
        explicit.update({b: j.parent for b, j in truth.joints.items()})
        supplied = fit_skeleton(session, hierarchy=explicit, rank_tol=NOISELESS_RANK_TOL)
        assert supplied.root == inferred.root
        assert set(supplied.joints) == set(inferred.joints)
        for body in supplied.joints:
            a, b = supplied.joints[body], inferred.joints[body]
            assert a.parent == b.parent
            assert np.allclose(a.c, b.c, atol=1e-12)
            assert np.allclose(a.l, b.l, atol=1e-12)

    def test_recovers_generator_geometry(self, linkage_clean):
        _, _, truth, model = linkage_clean
        for body, true_joint in truth.joints.items():
            fitted = model.joints[body]
            assert fitted.parent == true_joint.parent
            assert np.linalg.norm(fitted.c - true_joint.c) < 1e-9
            assert np.linalg.norm(fitted.l - true_joint.l) < 1e-9

    def test_labels_carried_from_session(self, linkage_clean):
        _, _, _, model = linkage_clean
        assert model.labels[0] == "torso"
        assert model.labels[5] == "forearm_r"

    def test_model_labels_are_read_only(self):
        model = SkeletonModel(
            root=0, joints={1: make_joint(1, 0, (0, 0, 0), (0.1, 0, 0))}, labels={1: "tip"}
        )
        with pytest.raises(TypeError):
            model.labels[1] = "0"
        with pytest.raises(TypeError):
            del model.labels[1]
        assert model.labels == {1: "tip"}

    def test_labels_kept_only_for_the_model_bodies(self, linkage_clean):
        _, session, _, _ = linkage_clean
        model = fit_skeleton(session, hierarchy={0: None, 1: 0, 2: 0})
        assert model.labels == {0: "torso", 1: "head", 2: "upper_arm_l"}

    def test_joints_are_the_solver_results(self, monkeypatch, linkage_clean):
        _, session, _, _ = linkage_clean
        returned = {}

        def recording_solve(*args, **kwargs):
            fit = solve_joint(*args, **kwargs)
            returned[fit.child] = fit
            return fit

        monkeypatch.setattr(skeleton, "solve_joint", recording_solve)
        model = fit_skeleton(session, rank_tol=NOISELESS_RANK_TOL)
        assert set(model.joints) == set(returned)
        for body, joint in model.joints.items():
            assert joint is returned[body]

    def test_joints_carry_spectrum_and_residuals(self, linkage_clean):
        _, session, _, model = linkage_clean
        for body, joint in model.joints.items():
            alone = solve_joint(session, body, joint.parent, NOISELESS_RANK_TOL)
            assert joint.singular_values.tobytes() == alone.singular_values.tobytes()
            assert joint.residual_per_frame.tobytes() == alone.residual_per_frame.tobytes()
            assert len(joint.residual_per_frame) == session.frame_count


class TestParentMapCheckedFirst:
    @pytest.mark.parametrize(
        "parent, message",
        [
            ({0: None, 1: 2, 2: 1}, "chain"),
            ({0: None, 1: None, 2: 0}, "one root"),
            ({0: None, 1: 0, 2: 7}, "out of range"),
            ({0: None, 1: 0, 2: 0, 50: 0}, r"body 50 is not in the session \(bodies 0\.\.5\)"),
        ],
        ids=["cycle", "two-roots", "unknown-parent", "body-not-in-session"],
    )
    def test_bad_map_fails_before_any_solve(self, monkeypatch, parent, message):
        session, _ = generate(linkage_spec(frames=40, seed=47))
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(args[1:3])
            return solve_joint(*args, **kwargs)

        monkeypatch.setattr(skeleton, "solve_joint", counting_solve)
        with pytest.raises(ValueError, match=message):
            fit_skeleton(session, hierarchy=parent)
        assert calls == []


class TestModelValidation:
    def test_root_with_joint_rejected(self):
        with pytest.raises(ValueError):
            SkeletonModel(root=0, joints={0: make_joint(0, 1, (0, 0, 0), (0, 0, 0))})

    def test_mismatched_key_rejected(self):
        with pytest.raises(ValueError):
            SkeletonModel(root=0, joints={2: make_joint(1, 0, (0, 0, 0), (0, 0, 0))})

    def test_cycle_rejected(self):
        joints = {
            1: make_joint(1, 2, (0, 0, 0), (0, 0, 0)),
            2: make_joint(2, 1, (0, 0, 0), (0, 0, 0)),
        }
        with pytest.raises(ValueError, match="chain"):
            SkeletonModel(root=0, joints=joints)

    def test_orphan_parent_rejected(self):
        with pytest.raises(ValueError):
            SkeletonModel(root=0, joints={1: make_joint(1, 5, (0, 0, 0), (0, 0, 0))})

    @pytest.mark.parametrize(
        "labels, message",
        [
            ({0: "arm", 2: "arm"}, "label 'arm' names bodies 0 and 2"),
            ({2: "0"}, "label '0' names body 2 but reads as body 0"),
            ({1: "leg"}, "label 'leg' names body 1, not in the model (bodies [0, 2, 3])"),
            ({0: 5}, "body 0: label must be a string or null, got 5"),
        ],
        ids=["two-bodies", "index", "absent-body", "not-a-string"],
    )
    def test_labels_checked(self, labels, message):
        joints = {b: make_joint(b, 0, (0, 0, 0), (0, 0, 0)) for b in (2, 3)}
        with pytest.raises(ValueError, match=re.escape(message)):
            SkeletonModel(root=0, joints=joints, labels=labels)
        model = SkeletonModel(root=0, joints=joints, labels={0: "0", 2: "arm", 3: None})
        assert model.labels == {0: "0", 2: "arm"}

    def test_topological_order_parents_first(self, linkage_clean):
        _, _, _, model = linkage_clean
        order = model.topological_order()
        assert order[0] == model.root
        seen = {model.root}
        for body in order[1:]:
            assert model.joints[body].parent in seen
            seen.add(body)


class TestLimbLength:
    # generator geometry: shoulder spacing 0.343, neck-to-shoulder
    # 0.390 / 0.397, upper arms 0.314 / 0.286
    cases = [
        (1, 2, 0.390),
        (1, 3, 0.397),
        (2, 3, 0.343),
        (2, 4, 0.314),
        (3, 5, 0.286),
    ]

    def test_known_distances(self, linkage_clean):
        _, _, _, model = linkage_clean
        for a, b, expected in self.cases:
            assert limb_length(model, a, b) == pytest.approx(expected, abs=1e-9)

    def test_symmetric_in_arguments(self, linkage_clean):
        _, _, _, model = linkage_clean
        assert limb_length(model, 4, 2) == limb_length(model, 2, 4)

    def test_same_joint_rejected(self, linkage_clean):
        _, _, _, model = linkage_clean
        with pytest.raises(ValueError):
            limb_length(model, 2, 2)

    def test_root_is_not_a_joint(self, linkage_clean):
        _, _, _, model = linkage_clean
        with pytest.raises(NotAdjacentError):
            limb_length(model, 0, 1)

    def test_distant_joints_rejected(self, linkage_clean):
        _, _, _, model = linkage_clean
        with pytest.raises(NotAdjacentError):
            limb_length(model, 4, 5)
        with pytest.raises(NotAdjacentError):
            limb_length(model, 1, 4)

    def test_adjacent_pairs_enumeration(self, linkage_clean):
        _, _, _, model = linkage_clean
        assert adjacent_joint_pairs(model) == [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5)]

    def test_rerooted_fit_preserves_lengths(self, linkage_clean):
        _, session, _, _ = linkage_clean
        rerooted = {3: None, 0: 3, 1: 0, 2: 0, 4: 2, 5: 3}
        model = fit_skeleton(session, hierarchy=rerooted, rank_tol=NOISELESS_RANK_TOL)
        # the neck/left-shoulder pair still shares body 0
        assert limb_length(model, 1, 2) == pytest.approx(0.390, abs=1e-9)
        # joints 0 and 5 are now siblings under body 3, exposing the
        # right upper arm length through a different pair
        assert limb_length(model, 0, 5) == pytest.approx(0.286, abs=1e-9)


class TestForwardKinematics:
    def single_joint_model(self, c, l):
        return SkeletonModel(root=0, joints={1: make_joint(1, 0, c, l)})

    def test_half_turn_hand_case(self):
        model = self.single_joint_model((0.1, 0.0, 0.0), (0.4, 0.0, 0.0))
        rel = np.diag([-1.0, -1.0, 1.0])[None]
        session = forward_kinematics(
            model, (np.eye(3)[None], np.zeros((1, 3))), {1: rel}
        )
        child = session.track(1)
        assert np.array_equal(child.rotations[0], np.diag([-1.0, -1.0, 1.0]))
        assert np.allclose(child.translations[0], [0.5, 0.0, 0.0], atol=1e-15)

    def test_identity_rotations_give_offset_chain(self):
        joints = {
            1: make_joint(1, 0, (0.0, 0.0, 0.0), (0.3, 0.0, 0.0)),
            2: make_joint(2, 1, (-0.1, 0.0, 0.0), (0.2, 0.0, 0.0)),
        }
        model = SkeletonModel(root=0, joints=joints)
        n = 3
        eye = np.tile(np.eye(3), (n, 1, 1))
        session = forward_kinematics(
            model, (eye, np.zeros((n, 3))), {1: eye, 2: eye}
        )
        assert np.allclose(session.track(1).translations, [0.3, 0.0, 0.0])
        assert np.allclose(session.track(2).translations, [0.6, 0.0, 0.0])

    def test_round_trip_through_solver(self):
        rng = np.random.default_rng(42)
        joints = {
            1: make_joint(1, 0, (0.07, -0.02, 0.05), (0.28, 0.04, -0.03)),
            2: make_joint(2, 1, (-0.03, 0.08, 0.01), (0.22, -0.05, 0.06)),
        }
        model = SkeletonModel(root=0, joints=joints)
        n = 80
        session = forward_kinematics(
            model,
            (haar_rotations(rng, n), rng.normal(size=(n, 3))),
            {1: haar_rotations(rng, n), 2: haar_rotations(rng, n)},
        )
        for body in (1, 2):
            fit = solve_joint(session, body, joints[body].parent, NOISELESS_RANK_TOL)
            assert np.linalg.norm(fit.c - joints[body].c) < 1e-9
            assert np.linalg.norm(fit.l - joints[body].l) < 1e-9

    def test_output_joints_coincide(self):
        rng = np.random.default_rng(43)
        model = self.single_joint_model((0.12, 0.03, -0.04), (0.26, -0.07, 0.09))
        n = 25
        session = forward_kinematics(
            model,
            (haar_rotations(rng, n), rng.normal(size=(n, 3))),
            {1: haar_rotations(rng, n)},
        )
        for gaps in joint_gaps(model, session).values():
            assert (gaps < 1e-12).all()

    def test_missing_rotations_detected(self):
        model = self.single_joint_model((0.1, 0.0, 0.0), (0.3, 0.0, 0.0))
        eye = np.tile(np.eye(3), (2, 1, 1))
        with pytest.raises(MissingRotationError):
            forward_kinematics(model, (eye, np.zeros((2, 3))), {})
        with pytest.raises(MissingRotationError):
            forward_kinematics(
                model, (eye, np.zeros((2, 3))), {1: np.eye(3)[None]}
            )

    def test_gapped_body_ids_rejected(self):
        model = SkeletonModel(root=0, joints={2: make_joint(2, 0, (0, 0, 0), (0.1, 0, 0))})
        eye = np.tile(np.eye(3), (2, 1, 1))
        with pytest.raises(ValueError, match="contiguous"):
            forward_kinematics(model, (eye, np.zeros((2, 3))), {2: eye})

    def test_caller_rotations_kept(self):
        model = self.single_joint_model((0.1, 0.0, 0.0), (0.3, 0.0, 0.0))
        eye = np.tile(np.eye(3), (2, 1, 1))
        rotations = {1: eye}
        forward_kinematics(model, (eye, np.zeros((2, 3))), rotations)
        assert rotations == {1: eye}

    def test_label_override(self):
        model = self.single_joint_model((0.1, 0.0, 0.0), (0.3, 0.0, 0.0))
        eye = np.tile(np.eye(3), (1, 1, 1))
        session = forward_kinematics(
            model, (eye, np.zeros((1, 3))), {1: eye}, labels={0: "base", 1: "tip"}
        )
        assert session.label_of(0) == "base"
        assert session.label_of(1) == "tip"


@pytest.mark.filterwarnings("error")
class TestOrthonormalize:
    """The Newton polar route against the SVD route it falls back on."""

    @staticmethod
    def groups() -> dict[str, np.ndarray]:
        rng = np.random.default_rng(48)
        Q = haar_rotations(rng, 300)
        groups = {"rotations": Q, "doubled": 2.0 * Q}
        # capture.ORTHO_WARN_ATOL is 1e-3: perturb to below, at and past it
        for size in (1e-12, 1e-6, 1e-3, 1e-2, 0.1, 0.3):
            groups[f"perturbed {size:g}"] = Q + rng.uniform(-size, size, Q.shape)
        near = Q + rng.uniform(-1e-3, 1e-3, Q.shape)
        groups["scaled 2^60"] = np.ldexp(near, 60)
        groups["scaled 2^-60"] = np.ldexp(near, -60)
        mirror = np.array([1.0, 1.0, -1.0])
        groups["reflections"] = Q * mirror
        groups["near reflections"] = near * mirror
        groups["near singular"] = Q @ np.diag([1.0, 1.0, 1e-9]) @ Q[::-1]
        return groups

    # frames the SVD must take: det <= 0, or no Newton convergence
    FALLBACK = ("reflections", "near reflections", "near singular")

    def run(self, R, monkeypatch):
        """_orthonormalize(R) and the number of frames it sent to the SVD."""
        sent = []
        svd = skeleton._orthonormalize_svd
        monkeypatch.setattr(
            skeleton, "_orthonormalize_svd", lambda R: sent.append(len(R)) or svd(R)
        )
        return skeleton._orthonormalize(R), sum(sent)

    @pytest.mark.parametrize("group", list(groups()))
    def test_matches_the_svd_route(self, group, monkeypatch):
        R = self.groups()[group]
        out, sent = self.run(R, monkeypatch)
        ref = skeleton._orthonormalize_svd(R)
        assert np.abs(out - ref).max() <= 32 * EPS
        assert np.abs(np.linalg.det(out) - 1.0).max() <= 32 * EPS
        assert (orthonormality_error(out) <= orthonormality_error(ref) + 2 * EPS).all()
        if group in self.FALLBACK:
            assert sent == len(R)
            assert np.array_equal(out, ref)
        else:
            assert sent == 0

    def test_each_frame_takes_one_route_in_a_mixed_batch(self, monkeypatch):
        groups = self.groups()
        out, sent = self.run(np.concatenate(list(groups.values())), monkeypatch)
        assert sent == sum(len(groups[g]) for g in self.FALLBACK)
        for group, part in zip(groups, np.split(out, len(groups))):
            assert np.array_equal(part, skeleton._orthonormalize(groups[group]))


@pytest.mark.filterwarnings("error")
class TestRelativeRotationsOracle:
    """_relative_rotations (cofactors of the parent) against np.linalg.solve.

    Parents are the families of conftest.cofactor_families, with spectra
    down to 8 DET_RTOL so that no frame is singular; children are Haar
    rotations perturbed by 1e-3 and scaled by 2^-60 to 2^60 per frame.
    """

    rng = np.random.default_rng(53)
    N = 20_000
    PARENTS = cofactor_families(rng, N, smallest=8 * DET_RTOL)
    CHILD = np.ldexp(
        haar_rotations(rng, N) + rng.uniform(-1e-3, 1e-3, (N, 3, 3)),
        rng.integers(-60, 61, size=N)[:, None, None],
    )

    @pytest.mark.parametrize("family", list(PARENTS))
    def test_matches_lapack_solve(self, family):
        # measured at most 2.9 cond eps max|ref| per frame
        Rp, Rc = self.PARENTS[family], self.CHILD
        zeros = np.zeros((self.N, 3))
        session = CaptureSession((BodyTrack(0, Rp, zeros), BodyTrack(1, Rc, zeros)), self.N)
        rel = skeleton._relative_rotations(session, 1, 0)
        ref = np.linalg.solve(Rp, Rc)
        bound = 8 * np.linalg.cond(Rp) * EPS * np.abs(ref).max(axis=(-2, -1))
        assert (np.abs(rel - ref).max(axis=(-2, -1)) <= bound).all()


    def test_far_scaled_frames_do_not_overflow(self):
        # Rp^-1 Rc is finite, but cof(Rp)^T Rc / det(Rp) with Rp alone
        # rescaled would overflow: Rc is 1e300 and Rp is nearly singular
        Rp = np.diag([1e10, 1e10, 1e-1])[None]
        Rc = np.diag([1e300, 1e300, 1e300])[None]
        zeros = np.zeros((1, 3))
        session = CaptureSession((BodyTrack(0, Rp, zeros), BodyTrack(1, Rc, zeros)), 1)
        rel = skeleton._relative_rotations(session, 1, 0)
        assert np.allclose(rel, np.linalg.solve(Rp, Rc), rtol=4 * EPS, atol=0.0)


def test_load_and_replay_make_no_lapack_det_or_solve_call(tmp_path, monkeypatch):
    # the per-frame 3x3 kernels of the load and replay path are closed-form
    # (rigid.cofactors); only the SVD fallback for det <= 0 may call LAPACK
    session, _ = noisy_linkage()
    model = fit_skeleton(session)
    path = tmp_path / "session.csv"
    write_session(path, session)

    def refuse(*args, **kwargs):
        raise AssertionError("per-frame LAPACK call on the load or replay path")

    monkeypatch.setattr(np.linalg, "det", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    rebuilt = reconstruct(model, load_session(path), orthonormalize=True)
    for gaps in joint_gaps(model, rebuilt).values():
        assert (gaps < 1e-12).all()


def noisy_linkage(frames=250, seed=45):
    spec = linkage_spec(frames=frames, seed=seed)
    return generate(spec)


class TestReconstruct:
    def test_peak_memory_under_two_sessions(self):
        # relative rotations are freed once chained, world arrays once copied (was 2.8)
        session, truth = generate(figure16_spec(frames=2000, seed=3))
        tracemalloc.start()
        try:
            reconstruct(truth, session, orthonormalize=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = sum(t.rotations.nbytes + t.translations.nbytes for t in session.bodies)
        assert peak < 2 * nbytes

    def test_noiseless_session_unchanged(self, linkage_clean):
        _, session, _, model = linkage_clean
        rebuilt = reconstruct(model, session)
        for b in range(session.body_count):
            assert np.allclose(
                rebuilt.track(b).rotations, session.track(b).rotations, atol=1e-9
            )
            assert np.allclose(
                rebuilt.track(b).translations, session.track(b).translations, atol=1e-9
            )

    def test_gaps_before_match_solver_residuals(self):
        session, _ = noisy_linkage()
        model = fit_skeleton(session)
        gaps = joint_gaps(model, session)
        for body, joint in model.joints.items():
            fit = solve_joint(session, body, joint.parent)
            assert np.allclose(gaps[body], fit.residual_per_frame, rtol=1e-10, atol=1e-15)

    def test_gaps_after_vanish(self):
        session, _ = noisy_linkage()
        model = fit_skeleton(session)
        rebuilt = reconstruct(model, session)
        for gaps in joint_gaps(model, rebuilt).values():
            assert (gaps < 1e-12).all()

    def test_idempotent(self):
        session, _ = noisy_linkage()
        model = fit_skeleton(session)
        once = reconstruct(model, session)
        twice = reconstruct(model, once)
        for b in range(session.body_count):
            dr = np.abs(twice.track(b).rotations - once.track(b).rotations).max()
            dt = np.abs(twice.track(b).translations - once.track(b).translations).max()
            assert dr < 1e-12 and dt < 1e-12

    def test_root_track_passes_through_untouched(self):
        session, _ = noisy_linkage()
        model = fit_skeleton(session)
        rebuilt = reconstruct(model, session)
        root = model.root
        assert np.array_equal(
            rebuilt.track(root).rotations, session.track(root).rotations
        )
        assert np.array_equal(
            rebuilt.track(root).translations, session.track(root).translations
        )

    def test_uncovered_bodies_pass_through(self):
        session, _ = noisy_linkage()
        pair_model = fit_skeleton(session, hierarchy={0: None, 1: 0})
        rebuilt = reconstruct(pair_model, session)
        for b in (2, 3, 4, 5):
            assert rebuilt.bodies[b] is session.bodies[b]
        assert not np.array_equal(
            rebuilt.track(1).translations, session.track(1).translations
        )

    def test_metadata_preserved(self):
        session, _ = noisy_linkage()
        model = fit_skeleton(session)
        rebuilt = reconstruct(model, session)
        assert rebuilt.frame_count == session.frame_count

    def test_orthonormalize_flag_cleans_rotations(self):
        session, _ = noisy_linkage()
        rng = np.random.default_rng(46)
        smeared = CaptureSession(
            tuple(
                BodyTrack(
                    b.body_id,
                    b.rotations + rng.normal(0, 1e-4, b.rotations.shape),
                    b.translations,
                )
                for b in session.bodies
            ),
            session.frame_count,
            session.labels,
        )
        model = fit_skeleton(smeared)
        raw = reconstruct(model, smeared)
        clean = reconstruct(model, smeared, orthonormalize=True)
        worst_raw = max(orthonormality_error(raw.track(b).rotations).max() for b in model.joints)
        worst_clean = max(
            orthonormality_error(clean.track(b).rotations).max() for b in model.joints
        )
        # the root is kept raw either way; children inherit its error, so
        # cleaning the relative rotations only tightens the result
        assert worst_clean <= worst_raw
        for b in model.joints:
            assert (np.linalg.det(clean.track(b).rotations) > 0).all()
        for gaps in joint_gaps(model, clean).values():
            assert (gaps < 1e-12).all()

    def test_orthonormalize_turns_a_reflection_proper(self):
        session, _ = noisy_linkage()
        model = fit_skeleton(session)
        body = min(b for b, j in model.joints.items() if j.parent == model.root)
        frames = np.arange(0, session.frame_count, 7)
        tracks = list(session.bodies)
        mirrored = tracks[body].rotations.copy()
        mirrored[frames] = mirrored[frames] * np.array([1.0, 1.0, -1.0])
        tracks[body] = BodyTrack(body, mirrored, tracks[body].translations)
        session = CaptureSession(tuple(tracks), session.frame_count)

        root_R = session.track(model.root).rotations
        # the reference takes reconstruct's own relative rotations: an exact
        # reflection has no unique nearest rotation, so the SVD's pick moves
        # with the last bit of its input
        rel = skeleton._relative_rotations(session, body, model.root)
        assert (np.linalg.det(rel[frames]) < 0).all()
        clean = reconstruct(model, session, orthonormalize=True).track(body).rotations
        assert (np.linalg.det(clean) > 0).all()
        expected = root_R @ skeleton._orthonormalize_svd(rel)
        assert np.array_equal(clean[frames], expected[frames])
        assert np.abs(clean - expected).max() <= 32 * EPS

    def test_model_body_missing_from_session(self):
        session = manual_pair_session((0.1, 0, 0), (0.2, 0, 0), n=10, seed=47)
        joints = {
            1: make_joint(1, 0, (0.1, 0, 0), (0.2, 0, 0)),
            2: make_joint(2, 1, (0, 0, 0), (0.1, 0, 0)),
        }
        model = SkeletonModel(root=0, joints=joints)
        with pytest.raises(ValueError):
            reconstruct(model, session)


class TestSerialization:
    def test_round_trip_preserves_fields(self, tmp_path):
        session, _ = noisy_linkage(frames=150, seed=48)
        model = fit_skeleton(session)
        path = tmp_path / "skeleton.json"
        save_skeleton(path, model)
        back = load_skeleton(path)
        assert back.root == model.root
        assert back.labels == model.labels
        assert set(back.joints) == set(model.joints)
        for body in model.joints:
            a, b = model.joints[body], back.joints[body]
            assert a.parent == b.parent
            assert np.array_equal(a.c, b.c)
            assert np.array_equal(a.l, b.l)
            assert a.epsilon == b.epsilon
            assert a.classification is b.classification

    def test_loaded_joints_have_no_spectrum(self, tmp_path):
        session, _ = noisy_linkage(frames=100, seed=48)
        model = fit_skeleton(session)
        path = tmp_path / "skeleton.json"
        save_skeleton(path, model)
        back = load_skeleton(path)
        assert back.joints
        for joint in back.joints.values():
            assert isinstance(joint, JointFit)
            assert joint.singular_values is None
            assert joint.residual_per_frame is None

    def test_root_row_shape(self):
        model = SkeletonModel(
            root=0,
            joints={1: make_joint(1, 0, (0.1, 0, 0), (0.2, 0, 0))},
            labels={0: "base"},
        )
        data = skeleton_to_dict(model)
        assert data["root"] == 0
        assert data["bodies"][0] == {"id": 0, "label": "base", "parent": None}

    def test_json_is_plain_types(self, tmp_path):
        session, _ = noisy_linkage(frames=100, seed=49)
        model = fit_skeleton(session)
        path = tmp_path / "skeleton.json"
        save_skeleton(path, model)
        data = json.loads(path.read_text())
        joints = [row for row in data["bodies"] if row["parent"] is not None]
        assert len(joints) == len(data["bodies"]) - 1
        assert {row["classification"] for row in joints} <= {
            "spherical",
            "hinge",
            "rigid",
        }

    def test_hinge_axes_survive_round_trip(self, tmp_path):
        from conftest import hinge_relative_rotations

        axis = np.array([0.0, 1.0, 0.0])
        mount = rotation_about_axis(np.array([1.0, 0.0, 0.0]), 0.5)
        rng = np.random.default_rng(50)
        rels = hinge_relative_rotations(axis, mount, rng.uniform(-1.2, 1.2, 60))
        session = manual_pair_session(
            (0.05, 0.0, 0.02), (0.3, 0.01, 0.0), n=60, seed=50, relative_rotations=rels
        )
        model = fit_skeleton(
            session, hierarchy={0: None, 1: 0}, rank_tol=NOISELESS_RANK_TOL
        )
        assert model.joints[1].classification is Classification.HINGE
        path = tmp_path / "hinge.json"
        save_skeleton(path, model)
        back = load_skeleton(path)
        assert np.array_equal(back.joints[1].axis_child, model.joints[1].axis_child)
        assert np.array_equal(back.joints[1].axis_parent, model.joints[1].axis_parent)

    def test_root_joint_fields_of_older_files_ignored(self):
        # older files gave the root a spherical joint at the origin
        old = json.loads((DATA / "skeleton_with_root_joint.json").read_text())
        root_row = next(row for row in old["bodies"] if row["id"] == old["root"])
        assert "classification" in root_row
        new = json.loads(json.dumps(old))
        for row in new["bodies"]:
            if row["id"] == new["root"]:
                for key in set(row) - {"id", "label", "parent"}:
                    del row[key]
        from_old, from_new = dict_to_skeleton(old), dict_to_skeleton(new)
        assert skeleton_to_dict(from_old) == skeleton_to_dict(from_new) == new
        assert from_old.root == from_new.root == 1
        assert from_old.labels == from_new.labels

    @pytest.mark.parametrize("label", [None, "tip"])
    def test_a_second_root_refused_not_dropped(self, label):
        # the tree rule sees body 2 before the label rule could
        model = SkeletonModel(
            root=0,
            joints={
                1: make_joint(1, 0, (0, 0, 0), (0.1, 0, 0)),
                2: make_joint(2, 1, (0, 0, 0), (0.2, 0, 0)),
            },
        )
        data = skeleton_to_dict(model)
        data["bodies"][2] = {"id": 2, "label": label, "parent": None}
        with pytest.raises(ValueError, match=re.escape("exactly one root, found [0, 2]")):
            dict_to_skeleton(data)

    def test_root_with_an_inboard_joint_refused(self):
        data = skeleton_to_dict(
            SkeletonModel(root=1, joints={0: make_joint(0, 1, (0, 0, 0), (0.1, 0, 0))})
        )
        data["root"] = 0
        with pytest.raises(ValueError, match="root body cannot have an inboard joint"):
            dict_to_skeleton(data)

    def test_unlisted_root_refused(self):
        data = skeleton_to_dict(SkeletonModel(root=0, joints={}))
        data["root"] = 5
        with pytest.raises(ValueError, match="root 5 is not among the listed bodies"):
            dict_to_skeleton(data)

    def test_a_label_given_to_two_bodies_refused(self):
        model = SkeletonModel(
            root=0, joints={1: make_joint(1, 0, (0, 0, 0), (0.1, 0, 0))}, labels={0: "base"}
        )
        data = skeleton_to_dict(model)
        data["bodies"][1]["label"] = "base"
        with pytest.raises(ValueError, match="label 'base' names bodies 0 and 1"):
            dict_to_skeleton(data)

    def test_dict_round_trip_without_files(self):
        model = SkeletonModel(
            root=2,
            joints={
                0: make_joint(0, 2, (0.01, 0.02, 0.03), (0.1, 0.2, 0.3)),
                1: make_joint(1, 0, (0.04, 0.05, 0.06), (0.4, 0.5, 0.6)),
            },
        )
        back = dict_to_skeleton(skeleton_to_dict(model))
        assert back.root == 2
        assert set(back.joints) == {0, 1}
        assert back.joints[1].parent == 0
