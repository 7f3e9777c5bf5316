"""Synthetic capture generation and sensor-pair calibration."""
import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from skelfit.errors import InvalidSpecError, LengthMismatchError
from skelfit.rigid import orthonormality_error, rotation_about_axis
from skelfit.solver import NOISELESS_RANK_TOL, Classification, solve_joint
from skelfit.synth import (
    NO_NOISE,
    PRESETS,
    Excitation,
    NoiseSpec,
    RootMotion,
    SynthBody,
    SynthSpec,
    calibrate_pair,
    dict_to_spec,
    figure16_spec,
    generate,
    linkage_spec,
    load_spec,
    rigid_pair_spec,
    rotational_dof,
    save_spec,
    spec_to_dict,
    truth_model,
)

from conftest import line_angle


def sessions_equal(a, b):
    if a.frame_count != b.frame_count or a.body_count != b.body_count:
        return False
    for i in range(a.body_count):
        if a.track(i).rotations.tobytes() != b.track(i).rotations.tobytes():
            return False
        if a.track(i).translations.tobytes() != b.track(i).translations.tobytes():
            return False
    return True


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        spec = linkage_spec(frames=120, seed=60)
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert sessions_equal(a, b)

    def test_different_seed_differs(self):
        a, _ = generate(linkage_spec(frames=120, seed=60))
        b, _ = generate(linkage_spec(frames=120, seed=61))
        assert not sessions_equal(a, b)

    def test_noise_streams_do_not_shift_geometry_draws(self):
        # turning noise on must not change the underlying true motion:
        # the noisy session stays within a few sigma of the clean one
        clean, _ = generate(linkage_spec(frames=80, seed=62, sigma_t=0.0, sigma_r=0.0))
        noisy, _ = generate(linkage_spec(frames=80, seed=62, sigma_t=0.004, sigma_r=0.0))
        for i in range(clean.body_count):
            dt = np.abs(
                noisy.track(i).translations - clean.track(i).translations
            ).max()
            assert 0.0 < dt < 0.004 * 6
            assert np.array_equal(noisy.track(i).rotations, clean.track(i).rotations)


class TestValidate:
    def body(self, i, parent):
        return SynthBody(i, parent, l=(0.2, 0.0, 0.0))

    def test_empty_rejected(self):
        with pytest.raises(InvalidSpecError, match="no bodies"):
            SynthSpec(bodies=(), frame_count=10)

    def test_ids_must_be_dense(self):
        with pytest.raises(InvalidSpecError, match="0..m-1"):
            SynthSpec(bodies=(self.body(0, None), self.body(2, 0)), frame_count=10)

    def test_exactly_one_root(self):
        with pytest.raises(InvalidSpecError, match="one root"):
            SynthSpec(bodies=(self.body(0, None), self.body(1, None)), frame_count=10)

    def test_parent_out_of_range(self):
        with pytest.raises(InvalidSpecError, match="out of range"):
            SynthSpec(bodies=(self.body(0, None), self.body(1, 7)), frame_count=10)

    def test_cycle_detected(self):
        with pytest.raises(InvalidSpecError, match="cycle"):
            SynthSpec(
                bodies=(self.body(0, None), self.body(1, 2), self.body(2, 1)),
                frame_count=10,
            )

    def test_frame_count_positive(self):
        with pytest.raises(InvalidSpecError, match="frame_count"):
            SynthSpec(bodies=(self.body(0, None),), frame_count=0)

    def test_unit_distortion_positive(self):
        with pytest.raises(InvalidSpecError, match="unit_distortion"):
            SynthSpec(
                bodies=(self.body(0, None),), frame_count=5, unit_distortion=0.0
            )

    def test_scripted_length_checked(self):
        exc = Excitation(kind="scripted", rotations=np.tile(np.eye(3), (4, 1, 1)))
        with pytest.raises(InvalidSpecError, match="scripted"):
            SynthSpec(
                bodies=(
                    self.body(0, None),
                    SynthBody(1, 0, l=(0.2, 0.0, 0.0), excitation=exc),
                ),
                frame_count=10,
            )

    def test_replace_checks_again(self):
        # the CLI's --frames override goes through dataclasses.replace
        exc = Excitation(kind="scripted", rotations=np.tile(np.eye(3), (4, 1, 1)))
        spec = SynthSpec(
            bodies=(self.body(0, None), SynthBody(1, 0, excitation=exc)), frame_count=4
        )
        with pytest.raises(InvalidSpecError, match="scripted"):
            replace(spec, frame_count=10)


class TestSpecNumbersFinite:
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: NoiseSpec(sigma_t=math.nan), "sigma_t"),
            (lambda: NoiseSpec(sigma_r=math.inf), "sigma_r"),
            (lambda: RootMotion(translation_scale=math.nan), "translation_scale"),
            (lambda: Excitation(max_angle=math.inf), "max_angle"),
            (lambda: SynthBody(1, 0, c=(math.nan, 0.0, 0.0)), "c"),
            (lambda: SynthBody(1, 0, l=(0.0, -math.inf, 0.0)), "l"),
            (
                lambda: Excitation(kind="scripted", rotations=np.full((2, 3, 3), np.nan)),
                "rotations",
            ),
            (
                lambda: SynthSpec(
                    bodies=(SynthBody(0, None),), frame_count=5, unit_distortion=math.inf
                ),
                "unit_distortion",
            ),
        ],
        ids=[
            "sigma_t",
            "sigma_r",
            "translation_scale",
            "max_angle",
            "c",
            "l",
            "rotations",
            "unit_distortion",
        ],
    )
    def test_non_finite_field_named(self, build, field):
        with pytest.raises(InvalidSpecError, match=f"^{field} must be finite"):
            build()


class TestExcitation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpecError):
            Excitation(kind="wobble")

    def test_hinge_needs_axis(self):
        with pytest.raises(InvalidSpecError):
            Excitation(kind="hinge")

    def test_zero_axis_rejected(self):
        with pytest.raises(InvalidSpecError):
            Excitation(kind="hinge", axis=(0.0, 0.0, 0.0))

    def test_nan_axis_rejected(self):
        with pytest.raises(InvalidSpecError, match="finite"):
            Excitation(kind="hinge", axis=(math.nan, 0.0, 0.0))

    def test_nan_mount_rejected(self):
        with pytest.raises(InvalidSpecError, match="finite"):
            Excitation(mount=np.full((3, 3), np.nan))

    def test_negative_max_angle_rejected(self):
        with pytest.raises(InvalidSpecError):
            Excitation(max_angle=-0.5)

    def test_sheared_mount_rejected(self):
        bad = np.eye(3)
        bad[0, 1] = 0.1
        with pytest.raises(InvalidSpecError):
            Excitation(mount=bad)

    def test_reflection_mount_rejected(self):
        with pytest.raises(InvalidSpecError):
            Excitation(mount=np.diag([1.0, 1.0, -1.0]))

    def test_scripted_needs_rotations(self):
        with pytest.raises(InvalidSpecError):
            Excitation(kind="scripted")

    def test_samples_are_proper_rotations(self):
        rng = np.random.default_rng(63)
        for exc in (
            Excitation(),
            Excitation(max_angle=0.8),
            Excitation(kind="hinge", axis=(0.0, 1.0, 0.0)),
            Excitation(kind="rigid", mount=rotation_about_axis(np.array([1.0, 0, 0]), 0.3)),
        ):
            R = exc.sample(rng, 50)
            assert R.shape == (50, 3, 3)
            for k in range(0, 50, 10):
                assert orthonormality_error(R[k]) < 1e-9
                assert np.linalg.det(R[k]) > 0

    def test_hinge_holds_its_axis(self):
        rng = np.random.default_rng(64)
        axis = np.array([0.0, 1.0, 0.0])
        mount = rotation_about_axis(np.array([1.0, 0.0, 0.0]), 0.4)
        R = Excitation(kind="hinge", axis=axis, mount=mount).sample(rng, 30)
        # rel = mount @ spin(axis): the child-frame axis maps to a fixed
        # world direction, mount @ axis
        target = mount @ axis
        for k in range(30):
            assert np.allclose(R[k] @ axis, target, atol=1e-12)

    def test_bounded_cone_respected(self):
        rng = np.random.default_rng(65)
        R = Excitation(max_angle=0.3).sample(rng, 200)
        angles = np.arccos(np.clip((np.trace(R, axis1=1, axis2=2) - 1.0) / 2.0, -1, 1))
        assert angles.max() <= 0.3 + 1e-9

    def test_rigid_is_constant(self):
        mount = rotation_about_axis(np.array([0.0, 0.0, 1.0]), 1.2)
        R = Excitation(kind="rigid", mount=mount).sample(np.random.default_rng(66), 8)
        assert (R == mount).all()

    def test_scripted_plays_verbatim(self):
        script = np.stack(
            [rotation_about_axis(np.array([0.0, 0.0, 1.0]), a) for a in (0.1, 0.2, 0.3)]
        )
        R = Excitation(kind="scripted", rotations=script).sample(
            np.random.default_rng(67), 3
        )
        assert np.allclose(R, script, atol=1e-15)


class TestRootMotion:
    def test_static_root(self):
        R, t = RootMotion(kind="static").sample(np.random.default_rng(68), 5)
        assert np.array_equal(R, np.tile(np.eye(3), (5, 1, 1)))
        assert np.array_equal(t, np.zeros((5, 3)))

    def test_translation_scale(self):
        small_R, small_t = RootMotion(translation_scale=0.1).sample(
            np.random.default_rng(69), 400
        )
        big_R, big_t = RootMotion(translation_scale=1.0).sample(
            np.random.default_rng(69), 400
        )
        assert np.abs(small_t).max() < np.abs(big_t).max()
        assert np.allclose(small_t * 10.0, big_t)

    def test_no_rotation_option(self):
        R, t = RootMotion(rotate=False).sample(np.random.default_rng(70), 5)
        assert np.array_equal(R, np.tile(np.eye(3), (5, 1, 1)))
        assert np.abs(t).max() > 0


class TestPresets:
    def test_preset_names(self):
        assert PRESETS.keys() == {"linkage", "figure16", "rigid-pair"}

    def test_rotational_dof(self):
        assert rotational_dof(figure16_spec()) == 48
        assert rotational_dof(linkage_spec()) == 18
        assert rotational_dof(rigid_pair_spec()) == 3

    def test_figure16_shape(self):
        spec = figure16_spec(frames=10)
        assert len(spec.bodies) == 16
        assert spec.root == 0
        truth = truth_model(spec)
        assert len(truth.joints) == 15
        assert all(
            j.classification is Classification.SPHERICAL for j in truth.joints.values()
        )

    def test_linkage_truth_geometry(self):
        truth = truth_model(linkage_spec())
        lengths = {
            (1, 2): 0.390,
            (1, 3): 0.397,
            (2, 3): 0.343,
        }
        for (a, b), expected in lengths.items():
            ja, jb = truth.joints[a], truth.joints[b]
            assert np.linalg.norm(ja.l - jb.l) == pytest.approx(expected, abs=1e-12)

    def test_truth_model_carries_hinge_axes(self):
        axis = np.array([0.0, 0.0, 1.0])
        mount = rotation_about_axis(np.array([0.0, 1.0, 0.0]), 0.8)
        bodies = (
            SynthBody(0, None),
            SynthBody(
                1,
                0,
                c=(0.05, 0.0, 0.0),
                l=(0.3, 0.0, 0.0),
                excitation=Excitation(kind="hinge", axis=axis, mount=mount),
            ),
        )
        truth = truth_model(SynthSpec(bodies=bodies, frame_count=10))
        joint = truth.joints[1]
        assert joint.classification is Classification.HINGE
        assert line_angle(joint.axis_child, axis) < 1e-12
        assert line_angle(joint.axis_parent, mount @ axis) < 1e-12

    def test_rigid_pair_truth(self):
        truth = truth_model(rigid_pair_spec())
        assert truth.joints[1].classification is Classification.RIGID


class TestGenerate:
    def test_noiseless_linkage_fits_exactly(self):
        session, truth = generate(linkage_spec(frames=200, seed=71, sigma_t=0.0, sigma_r=0.0))
        for body, joint in truth.joints.items():
            fit = solve_joint(session, body, joint.parent, NOISELESS_RANK_TOL)
            assert fit.epsilon < 1e-9
            assert np.linalg.norm(fit.c - joint.c) < 1e-9
            assert np.linalg.norm(fit.l - joint.l) < 1e-9

    def test_translation_noise_band(self):
        sigma = 0.005
        session, truth = generate(
            linkage_spec(frames=800, seed=72, sigma_t=sigma, sigma_r=0.0)
        )
        for body, joint in truth.joints.items():
            fit = solve_joint(session, body, joint.parent)
            component_rms = fit.epsilon / math.sqrt(3.0)
            assert 0.3 * sigma * math.sqrt(2.0) < component_rms < 3.0 * sigma * math.sqrt(2.0)

    def test_rotation_noise_raises_epsilon(self):
        quiet, truth = generate(linkage_spec(frames=300, seed=73, sigma_t=0.0, sigma_r=0.0))
        loud, _ = generate(linkage_spec(frames=300, seed=73, sigma_t=0.0, sigma_r=0.02))
        body = 1
        parent = truth.joints[body].parent
        assert (
            solve_joint(loud, body, parent).epsilon
            > solve_joint(quiet, body, parent).epsilon * 100
        )

    def test_labels_and_interval_propagate(self):
        spec = linkage_spec(frames=20, seed=74)
        spec = SynthSpec(
            bodies=spec.bodies,
            frame_count=spec.frame_count,
            seed=spec.seed,
            root_motion=spec.root_motion,
            noise=spec.noise,
            unit_distortion=spec.unit_distortion,
            sample_interval=1.0 / 120.0,
        )
        session, _ = generate(spec)
        assert session.label_of(0) == "torso"

    def test_invalid_spec_refused(self):
        # refused on construction, so generate never sees it
        with pytest.raises(InvalidSpecError):
            SynthSpec(bodies=(SynthBody(0, None), SynthBody(1, 5)), frame_count=10)

    def test_a_label_names_one_body(self):
        # the synth CLI writes the labels as a sidecar that maps them one to one
        bodies = figure16_spec(frames=10, seed=1).bodies
        bodies = (bodies[0], replace(bodies[1], label=bodies[0].label)) + bodies[2:]
        with pytest.raises(InvalidSpecError, match="label 'pelvis' names bodies 0 and 1"):
            SynthSpec(bodies=bodies, frame_count=10)

    def test_rotations_stay_orthonormal_with_rotation_noise(self):
        session, _ = generate(
            linkage_spec(frames=50, seed=75, sigma_t=0.0, sigma_r=0.05)
        )
        for i in range(session.body_count):
            for k in range(0, 50, 17):
                assert orthonormality_error(session.track(i).rotations[k]) < 1e-9


class TestCalibratePair:
    def test_noiseless_distance_is_exact(self):
        session, _ = generate(rigid_pair_spec(frames=300, seed=76))
        cal = calibrate_pair(session.track(0), session.track(1))
        assert cal.mean_m == pytest.approx(0.565, abs=1e-12)
        assert cal.std_m < 1e-12
        assert cal.scale == 1.0
        assert cal.distances.shape == (300,)

    def test_known_distance_sets_scale(self):
        session, _ = generate(
            rigid_pair_spec(frames=300, seed=77, unit_distortion=0.94)
        )
        cal = calibrate_pair(session.track(0), session.track(1), known_distance=0.565)
        assert cal.mean_m == pytest.approx(0.565 / 0.94, rel=1e-12)
        assert cal.scale == pytest.approx(0.94, rel=1e-12)

    def test_noise_widens_spread(self):
        session, _ = generate(rigid_pair_spec(frames=2000, seed=78, sigma_t=0.007))
        cal = calibrate_pair(session.track(0), session.track(1))
        assert cal.std_m > 0.005
        assert cal.mean_m == pytest.approx(0.565, abs=0.01)

    @pytest.mark.parametrize("known", [math.nan, math.inf, 0.0, -0.5])
    def test_known_distance_must_be_finite_positive(self, known):
        session, _ = generate(rigid_pair_spec(frames=10, seed=79))
        with pytest.raises(ValueError, match="known_distance"):
            calibrate_pair(session.track(0), session.track(1), known_distance=known)

    def test_length_mismatch(self):
        session, _ = generate(rigid_pair_spec(frames=10, seed=79))
        short, _ = generate(rigid_pair_spec(frames=5, seed=79))
        with pytest.raises(LengthMismatchError):
            calibrate_pair(session.track(0), short.track(1))


class TestSpecSerialization:
    def test_round_trip_all_presets(self, tmp_path):
        for name, factory in (
            ("linkage", lambda: linkage_spec(frames=40, seed=80)),
            ("figure16", lambda: figure16_spec(frames=30, seed=81)),
            ("rigid-pair", lambda: rigid_pair_spec(frames=20, seed=82, unit_distortion=0.9)),
        ):
            spec = factory()
            path = tmp_path / f"{name}.json"
            save_spec(path, spec)
            back = load_spec(path)
            assert spec_to_dict(back) == spec_to_dict(spec)
            a, _ = generate(spec)
            b, _ = generate(back)
            assert sessions_equal(a, b)

    def test_scripted_and_hinge_round_trip(self):
        script = np.stack(
            [rotation_about_axis(np.array([1.0, 0.0, 0.0]), a) for a in (0.2, 0.4)]
        )
        bodies = (
            SynthBody(0, None, label="base"),
            SynthBody(
                1,
                0,
                l=(0.25, 0.0, 0.0),
                excitation=Excitation(kind="hinge", axis=(0, 0, 1), max_angle=0.9),
            ),
            SynthBody(
                2,
                1,
                c=(0.02, 0.0, 0.0),
                l=(0.2, 0.0, 0.0),
                excitation=Excitation(kind="scripted", rotations=script),
            ),
        )
        spec = SynthSpec(bodies=bodies, frame_count=2, seed=83)
        back = dict_to_spec(spec_to_dict(spec))
        assert spec_to_dict(back) == spec_to_dict(spec)
        a, _ = generate(spec)
        b, _ = generate(back)
        assert sessions_equal(a, b)

    def test_bad_dict_raises_invalid_spec(self):
        with pytest.raises(InvalidSpecError):
            dict_to_spec({"bodies": "nope"})
        with pytest.raises(InvalidSpecError):
            dict_to_spec({})

    def test_unknown_keys_rejected(self):
        # a typo like "sigma_translation" must not silently produce
        # noiseless data
        base = spec_to_dict(linkage_spec(frames=5, seed=1))
        for mutate, pattern in (
            (lambda d: d.update(frames=5), "unknown spec key"),
            (lambda d: d["noise"].update(sigma_translation=0.01), "unknown noise key"),
            (lambda d: d["root_motion"].update(speed=2.0), "unknown root_motion key"),
            (lambda d: d["bodies"][0].update(name="hip"), "unknown body key"),
            (lambda d: d["bodies"][1]["excitation"].update(angle=0.5), "unknown excitation key"),
        ):
            data = copy.deepcopy(base)
            mutate(data)
            with pytest.raises(InvalidSpecError, match=pattern):
                dict_to_spec(data)

    @pytest.mark.parametrize(
        "mutate, pattern",
        [
            (lambda d: d["bodies"][0].update(id=True), "True is not a JSON integer"),
            (lambda d: d["bodies"][1].update(parent=1.7), "1.7 is not a JSON integer"),
            (lambda d: d.update(frame_count=150.9), "150.9 is not a JSON integer"),
            (lambda d: d.update(seed=True), "True is not a JSON integer"),
            (
                lambda d: d["root_motion"].update(rotate="false"),
                "rotate must be a bool, got 'false'",
            ),
            # float() once took these strings, and max_angle went unchecked
            (
                lambda d: d["noise"].update(sigma_t="0.001"),
                "'0.001' is not a finite JSON number",
            ),
            (lambda d: d["noise"].update(sigma_r=True), "True is not a finite JSON number"),
            (
                lambda d: d["root_motion"].update(translation_scale="1"),
                "'1' is not a finite JSON number",
            ),
            (
                lambda d: d.update(unit_distortion=float("nan")),
                "nan is not a finite JSON number",
            ),
            (
                lambda d: d["bodies"][1]["excitation"].update(max_angle=True),
                "True is not a finite JSON number",
            ),
            (
                lambda d: d["bodies"][1]["excitation"].update(max_angle="0.5"),
                "'0.5' is not a finite JSON number",
            ),
            # label and sample_interval were passed through unchecked
            (
                lambda d: d["bodies"][1].update(label=[1, 2]),
                r"body 1: label must be a string or null, got \[1, 2\]",
            ),
            (lambda d: d["bodies"][2].update(label=7), "body 2: label must be a string or null"),
            (
                lambda d: d.update(sample_interval="abc"),
                "sample_interval: 'abc' is not a finite JSON number",
            ),
            (
                lambda d: d.update(sample_interval=True),
                "sample_interval: True is not a finite JSON number",
            ),
            (
                lambda d: d.update(sample_interval=float("inf")),
                "sample_interval: inf is not a finite JSON number",
            ),
            (
                lambda d: d.update(sample_interval=-0.01),
                "sample_interval must be finite and positive",
            ),
            (lambda d: d.update(sample_interval=0), "sample_interval must be finite and positive"),
        ],
        ids=[
            "bool-id",
            "float-parent",
            "float-frame-count",
            "bool-seed",
            "string-rotate",
            "string-sigma-t",
            "bool-sigma-r",
            "string-translation-scale",
            "nan-unit-distortion",
            "bool-max-angle",
            "string-max-angle",
            "list-label",
            "integer-label",
            "string-sample-interval",
            "bool-sample-interval",
            "inf-sample-interval",
            "negative-sample-interval",
            "zero-sample-interval",
        ],
    )
    def test_json_types_are_not_coerced(self, mutate, pattern):
        # int() and bool() once truncated these; "false" even turned rotation on
        data = spec_to_dict(linkage_spec(frames=5, seed=1))
        mutate(data)
        with pytest.raises(InvalidSpecError, match=pattern):
            dict_to_spec(data)

    def test_no_noise_round_trips_to_default(self):
        spec = SynthSpec(
            bodies=(SynthBody(0, None),), frame_count=3, noise=NO_NOISE
        )
        back = dict_to_spec(spec_to_dict(spec))
        assert back.noise == NoiseSpec(0.0, 0.0)
