"""Synthetic capture sessions with known ground truth.

A SynthSpec describes an articulated figure (topology, joint placements,
per-joint excitation program), a root trajectory, and a noise model.
generate() plays the figure through forward kinematics and emits a
CaptureSession together with the SkeletonModel the fitting pipeline is
expected to recover.

Randomness is a single numpy Generator seeded from the spec.  Draws
happen in a fixed order: root rotations, root translations, excitation
per non-root body in id order, then noise per body in id order (axes,
angles, translations).  Identical specs therefore produce identical
sessions byte for byte.

Rotations come from `rigid.quaternion_matrix` (Haar draws) and
`rigid.rotation_about_axis` (hinges, cones and noise wobble, one stacked call each).
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import partial
from typing import Optional

import numpy as np

from .capture import BodyTrack, CaptureSession, read_json, write_json
from .capture import _check_labels, json_array, json_integer, json_number, json_numbers
from .errors import InvalidSpecError
from .hierarchy import tree_order
from .rigid import cofactors, orthonormality_error, quaternion_matrix, rotation_about_axis
from .skeleton import SkeletonModel, _chain_world
from .solver import Classification, JointFit

EXCITATION_KINDS = ("spherical", "hinge", "rigid", "scripted")
ROOT_MOTION_KINDS = ("random", "static")

# rotational degrees of freedom contributed by one joint of each kind
_DOF = {"spherical": 3, "scripted": 3, "hinge": 1, "rigid": 0}


def _as_vector(x, name: str) -> np.ndarray:
    v = np.array(x, dtype=np.float64)
    if v.shape != (3,):
        raise InvalidSpecError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidSpecError(f"{name} must be finite, got {v.tolist()}")
    v.setflags(write=False)
    return v


def _uniform_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-uniform rotation matrices from normalized 4D normal deviates."""
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return quaternion_matrix(q)


@dataclass(frozen=True)
class Excitation:
    """Per-joint rotation program.

    kind "spherical" samples random rotations, bounded by a cone of
    max_angle radians when given; "hinge" spins about a fixed axis
    (child frame) by angles uniform in [-max_angle, max_angle];
    "rigid" holds the mount rotation constant; "scripted" plays the
    supplied (n, 3, 3) stack verbatim.  mount is a fixed rotation
    composed on the left of the program.
    """

    kind: str = "spherical"
    max_angle: Optional[float] = None
    axis: Optional[np.ndarray] = None
    mount: Optional[np.ndarray] = None
    rotations: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in EXCITATION_KINDS:
            raise InvalidSpecError(f"unknown excitation kind {self.kind!r}")
        if self.max_angle is not None and not 0.0 < self.max_angle < math.inf:
            raise InvalidSpecError("max_angle must be finite and positive when given")
        if self.axis is not None:
            axis = _as_vector(self.axis, "axis")
            if np.linalg.norm(axis) < 1e-12:
                raise InvalidSpecError("hinge axis must be nonzero")
            object.__setattr__(self, "axis", axis)
        if self.mount is not None:
            mount = np.array(self.mount, dtype=np.float64)
            if mount.shape != (3, 3):
                raise InvalidSpecError("mount must be a 3x3 rotation")
            if not np.isfinite(mount).all():
                raise InvalidSpecError("mount must be finite")
            if orthonormality_error(mount) > 1e-6 or cofactors(mount)[1] < 0:
                raise InvalidSpecError("mount must be a proper rotation")
            mount.setflags(write=False)
            object.__setattr__(self, "mount", mount)
        if self.rotations is not None:
            rot = np.array(self.rotations, dtype=np.float64)
            if rot.ndim != 3 or rot.shape[1:] != (3, 3):
                raise InvalidSpecError("scripted rotations must be (n, 3, 3)")
            if not np.isfinite(rot).all():
                raise InvalidSpecError("rotations must be finite")
            rot.setflags(write=False)
            object.__setattr__(self, "rotations", rot)
        if self.kind == "hinge" and self.axis is None:
            raise InvalidSpecError("hinge excitation requires an axis")
        if self.kind == "scripted" and self.rotations is None:
            raise InvalidSpecError("scripted excitation requires rotations")

    @property
    def mount_matrix(self) -> np.ndarray:
        return self.mount if self.mount is not None else np.eye(3)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Per-frame child-to-parent rotations, (n, 3, 3)."""
        mount = self.mount_matrix
        if self.kind == "rigid":
            return np.tile(mount, (n, 1, 1))
        if self.kind == "scripted":
            return mount @ self.rotations
        if self.kind == "hinge":
            span = self.max_angle if self.max_angle is not None else math.pi
            angles = rng.uniform(-span, span, size=n)
            return mount @ rotation_about_axis(self.axis, angles)
        if self.max_angle is None:
            return mount @ _uniform_rotations(rng, n)
        axes = rng.normal(size=(n, 3))
        angles = rng.uniform(0.0, self.max_angle, size=n)
        return mount @ rotation_about_axis(axes, angles)


@dataclass(frozen=True)
class RootMotion:
    """Trajectory of the root body: tumbling by default, or pinned."""

    kind: str = "random"
    translation_scale: float = 1.0
    rotate: bool = True

    def __post_init__(self):
        if self.kind not in ROOT_MOTION_KINDS:
            raise InvalidSpecError(f"unknown root motion kind {self.kind!r}")
        if not 0.0 <= self.translation_scale < math.inf:
            raise InvalidSpecError("translation_scale must be finite and nonnegative")
        if not isinstance(self.rotate, bool):
            raise InvalidSpecError(f"rotate must be a bool, got {self.rotate!r}")

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "static":
            return np.tile(np.eye(3), (n, 1, 1)), np.zeros((n, 3))
        if self.rotate:
            R = _uniform_rotations(rng, n)
        else:
            R = np.tile(np.eye(3), (n, 1, 1))
        t = rng.normal(size=(n, 3)) * self.translation_scale
        return R, t


@dataclass(frozen=True)
class NoiseSpec:
    """Per-sensor corruption: i.i.d. Gaussian translation offsets of
    sigma_t meters per axis, plus a left-composed rotation about a
    uniformly random axis by |N(0, sigma_r)| radians."""

    sigma_t: float = 0.0
    sigma_r: float = 0.0

    def __post_init__(self):
        for name in ("sigma_t", "sigma_r"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise InvalidSpecError(f"{name} must be finite and nonnegative")


NO_NOISE = NoiseSpec()


@dataclass(frozen=True)
class SynthBody:
    """One body of the figure; parent None marks the root.

    c is the inboard joint in this body's frame, l the same joint in
    the parent's frame.  Both are ignored on the root, as is the
    excitation program.
    """

    body_id: int
    parent: Optional[int]
    c: np.ndarray = (0.0, 0.0, 0.0)
    l: np.ndarray = (0.0, 0.0, 0.0)
    excitation: Excitation = Excitation()
    label: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "c", _as_vector(self.c, "c"))
        object.__setattr__(self, "l", _as_vector(self.l, "l"))


@dataclass(frozen=True)
class SynthSpec:
    """A whole figure; construction raises InvalidSpecError unless
    generate() can play it."""

    bodies: tuple[SynthBody, ...]
    frame_count: int
    seed: int = 0
    root_motion: RootMotion = RootMotion()
    noise: NoiseSpec = NO_NOISE
    unit_distortion: float = 1.0

    def __post_init__(self):
        bodies = tuple(self.bodies)
        object.__setattr__(self, "bodies", bodies)
        if not bodies:
            raise InvalidSpecError("spec has no bodies")
        ids = [b.body_id for b in bodies]
        if ids != list(range(len(ids))):
            raise InvalidSpecError(f"body ids must be 0..m-1 in order, got {ids}")
        try:
            tree_order({b.body_id: b.parent for b in bodies})
        except ValueError as exc:
            raise InvalidSpecError(f"spec: {exc}") from exc
        if self.frame_count < 1:
            raise InvalidSpecError("frame_count must be at least 1")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.unit_distortion < math.inf:
            raise InvalidSpecError("unit_distortion must be finite and positive")
        try:  # the session and the truth model carry these labels
            _check_labels({b.body_id: b.label for b in bodies}, ids)
        except ValueError as exc:
            raise InvalidSpecError(str(exc)) from exc
        for body in (b for b in bodies if b.parent is not None):
            exc = body.excitation
            if exc.kind == "scripted" and exc.rotations.shape[0] != self.frame_count:
                raise InvalidSpecError(
                    f"body {body.body_id}: scripted rotations cover "
                    f"{exc.rotations.shape[0]} frames, need {self.frame_count}"
                )

    @property
    def root(self) -> int:
        return next(b.body_id for b in self.bodies if b.parent is None)


def rotational_dof(spec: SynthSpec) -> int:
    """Rotational degrees of freedom: 3 for the root plus each joint's."""
    total = 3
    root = spec.root
    for body in spec.bodies:
        if body.body_id != root:
            total += _DOF[body.excitation.kind]
    return total


def truth_model(spec: SynthSpec) -> SkeletonModel:
    """The SkeletonModel a perfect fit of the generated data recovers."""
    root = spec.root
    joints = {}
    for body in spec.bodies:
        if body.body_id == root:
            continue
        exc = body.excitation
        if exc.kind == "hinge":
            classification = Classification.HINGE
            axis_child = exc.axis / np.linalg.norm(exc.axis)
            axis_parent = exc.mount_matrix @ axis_child
        elif exc.kind == "rigid":
            classification = Classification.RIGID
            axis_child = axis_parent = None
        else:
            classification = Classification.SPHERICAL
            axis_child = axis_parent = None
        joints[body.body_id] = JointFit(
            child=body.body_id,
            parent=body.parent,
            c=body.c,
            l=body.l,
            epsilon=0.0,
            classification=classification,
            axis_child=axis_child,
            axis_parent=axis_parent,
        )
    labels = {b.body_id: b.label for b in spec.bodies}
    return SkeletonModel(root=root, joints=joints, labels=labels)


def generate(spec: SynthSpec) -> tuple[CaptureSession, SkeletonModel]:
    """Play the spec through forward kinematics and inject noise.

    Returns (session, truth).  Truth joint placements stay in meters;
    emitted translations are divided by unit_distortion first, then
    noise (in emitted units) is added.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.frame_count
    truth = truth_model(spec)

    root_R, root_t = spec.root_motion.sample(rng, n)
    rels = {}
    for body in spec.bodies:
        if body.body_id != truth.root:
            rels[body.body_id] = body.excitation.sample(rng, n)
    world_R, world_t = _chain_world(truth, root_R, root_t, rels)  # frees rels

    if spec.unit_distortion != 1.0:
        world_t = {b: t / spec.unit_distortion for b, t in world_t.items()}

    sigma_t, sigma_r = spec.noise.sigma_t, spec.noise.sigma_r
    for b in sorted(world_R):
        if sigma_r > 0.0:
            axes = rng.normal(size=(n, 3))
            angles = np.abs(rng.normal(0.0, sigma_r, size=n))
            world_R[b] = rotation_about_axis(axes, angles) @ world_R[b]
        if sigma_t > 0.0:
            world_t[b] = world_t[b] + rng.normal(0.0, sigma_t, size=(n, 3))

    tracks = tuple(BodyTrack(b, world_R[b], world_t[b]) for b in range(len(spec.bodies)))
    return CaptureSession(tracks, n, labels=truth.labels), truth


def rigid_pair_spec(
    distance: float = 0.565,
    frames: int = 2000,
    seed: int = 7,
    sigma_t: float = 0.0,
    sigma_r: float = 0.0,
    unit_distortion: float = 1.0,
) -> SynthSpec:
    """Two sensors bolted to one board, a known distance apart."""
    mount = rotation_about_axis(np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0), 0.7)
    bodies = (
        SynthBody(0, None, label="sensor_a"),
        SynthBody(
            1,
            0,
            c=(0.0, 0.0, 0.0),
            l=(distance, 0.0, 0.0),
            excitation=Excitation(kind="rigid", mount=mount),
            label="sensor_b",
        ),
    )
    return SynthSpec(
        bodies=bodies,
        frame_count=frames,
        seed=seed,
        root_motion=RootMotion(kind="random", translation_scale=0.8),
        noise=NoiseSpec(sigma_t=sigma_t, sigma_r=sigma_r),
        unit_distortion=unit_distortion,
    )


def linkage_spec(
    frames: int = 2000,
    seed: int = 1,
    sigma_t: float = 0.007,
    sigma_r: float = 0.01,
) -> SynthSpec:
    """Five ball-and-socket joints on a torso-and-arms fixture.

    Joint placements are derived from the published link lengths
    (0.390, 0.397, 0.343, 0.286, 0.314 m) so the truth distances are
    exact by construction.
    """
    half = 0.343 / 2.0
    a = (0.390**2 - 0.397**2) / (4.0 * half)
    b = math.sqrt(0.390**2 - (a + half) ** 2)
    c_shoulder_l = np.array([0.02, 0.13, -0.01])
    c_shoulder_r = np.array([-0.02, 0.12, 0.015])
    down = np.array([0.0, -1.0, 0.0])
    bodies = (
        SynthBody(0, None, label="torso"),
        SynthBody(1, 0, c=(0.01, -0.11, 0.02), l=(a, b, 0.0), label="head"),
        SynthBody(2, 0, c=c_shoulder_l, l=(-half, 0.0, 0.0), label="upper_arm_l"),
        SynthBody(3, 0, c=c_shoulder_r, l=(half, 0.0, 0.0), label="upper_arm_r"),
        SynthBody(4, 2, c=(0.0, 0.10, 0.01), l=c_shoulder_l + 0.314 * down, label="forearm_l"),
        SynthBody(5, 3, c=(-0.01, 0.11, 0.0), l=c_shoulder_r + 0.286 * down, label="forearm_r"),
    )
    return SynthSpec(
        bodies=bodies,
        frame_count=frames,
        seed=seed,
        root_motion=RootMotion(kind="random", translation_scale=0.5),
        noise=NoiseSpec(sigma_t=sigma_t, sigma_r=sigma_r),
    )


def figure16_spec(
    frames: int = 500,
    seed: int = 3,
    sigma_t: float = 0.0,
    sigma_r: float = 0.0,
    max_angle: float = 1.2,
) -> SynthSpec:
    """Sixteen-body human figure: 15 spherical joints plus the root."""
    sway = Excitation(kind="spherical", max_angle=max_angle)

    def body(i, parent, label, c, l):
        return SynthBody(i, parent, c=c, l=l, excitation=sway, label=label)

    bodies = (
        SynthBody(0, None, label="pelvis"),
        body(1, 0, "chest", (0.005, -0.16, 0.0), (0.0, 0.12, 0.01)),
        body(2, 1, "neck", (0.0, -0.05, 0.005), (0.0, 0.19, -0.01)),
        body(3, 2, "head", (0.01, -0.09, 0.02), (0.0, 0.06, 0.0)),
        body(4, 1, "upper_arm_l", (0.0, 0.14, -0.01), (-0.19, 0.15, 0.0)),
        body(5, 4, "forearm_l", (0.0, 0.13, 0.0), (0.005, -0.15, 0.01)),
        body(6, 5, "hand_l", (0.0, 0.07, -0.01), (0.0, -0.14, 0.005)),
        body(7, 1, "upper_arm_r", (0.0, 0.14, 0.01), (0.19, 0.15, 0.0)),
        body(8, 7, "forearm_r", (0.0, 0.13, 0.0), (-0.005, -0.15, 0.01)),
        body(9, 8, "hand_r", (0.0, 0.07, 0.01), (0.0, -0.14, -0.005)),
        body(10, 0, "thigh_l", (0.0, 0.21, 0.01), (-0.09, -0.05, 0.0)),
        body(11, 10, "shin_l", (0.005, 0.20, 0.0), (0.0, -0.22, 0.0)),
        body(12, 11, "foot_l", (-0.01, 0.03, -0.10), (0.0, -0.21, -0.01)),
        body(13, 0, "thigh_r", (0.0, 0.21, -0.01), (0.09, -0.05, 0.0)),
        body(14, 13, "shin_r", (-0.005, 0.20, 0.0), (0.0, -0.22, 0.0)),
        body(15, 14, "foot_r", (0.01, 0.03, -0.10), (0.0, -0.21, 0.01)),
    )
    return SynthSpec(
        bodies=bodies,
        frame_count=frames,
        seed=seed,
        root_motion=RootMotion(kind="random", translation_scale=1.0),
        noise=NoiseSpec(sigma_t=sigma_t, sigma_r=sigma_r),
    )


PRESETS = {
    "linkage": linkage_spec,
    "figure16": figure16_spec,
    "rigid-pair": rigid_pair_spec,
}


def spec_to_dict(spec: SynthSpec) -> dict:
    def excitation_entry(exc: Excitation) -> dict:
        return {
            "kind": exc.kind,
            "max_angle": exc.max_angle,
            "axis": None if exc.axis is None else [float(v) for v in exc.axis],
            "mount": None if exc.mount is None else exc.mount.tolist(),
            "rotations": None if exc.rotations is None else exc.rotations.tolist(),
        }

    return {
        "frame_count": spec.frame_count,
        "seed": spec.seed,
        "unit_distortion": spec.unit_distortion,
        "root_motion": {
            "kind": spec.root_motion.kind,
            "translation_scale": spec.root_motion.translation_scale,
            "rotate": spec.root_motion.rotate,
        },
        "noise": {"sigma_t": spec.noise.sigma_t, "sigma_r": spec.noise.sigma_r},
        "bodies": [
            {
                "id": b.body_id,
                "parent": b.parent,
                "label": b.label,
                "c": [float(v) for v in b.c],
                "l": [float(v) for v in b.l],
                "excitation": excitation_entry(b.excitation),
            }
            for b in spec.bodies
        ],
    }


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _read(cls, kind: str, data):
    """cls from a JSON object (null reads as {}), passing only the keys it holds,
    so each absent key takes cls's own default; ValueError names the key at fault."""
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ValueError(f"{data!r} is not a JSON object")
    names = {"id" if f.name == "body_id" else f.name: f for f in fields(cls)}
    # a misspelled key would otherwise fall back to its default silently
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ValueError(f"unknown {kind} key(s): {', '.join(unknown)}")
    kwargs = {}
    for key, f in names.items():
        if key in data:
            convert = _CONVERT.get(key)
            try:
                kwargs[f.name] = data[key] if convert is None else convert(data[key])
            except (ValueError, RecursionError) as exc:  # RecursionError: arrays nested too deep
                raise ValueError(f"bad {key}: {exc}") from None
        elif f.default is MISSING:
            raise ValueError(f"missing key {key!r}")
    return cls(**kwargs)


def _bodies(value) -> list[SynthBody]:
    bodies = []
    for i, entry in enumerate(json_array(value)):
        try:
            bodies.append(_read(SynthBody, "body", entry))
        except ValueError as exc:
            raise ValueError(f"body {i}: {exc}") from None
    return bodies


# the converter of each numeric or nested key; its dataclass checks any other value
_CONVERT = {
    **dict.fromkeys(("frame_count", "seed", "id"), json_integer),
    **dict.fromkeys(("unit_distortion", "translation_scale", "sigma_t", "sigma_r"), json_number),
    **dict.fromkeys(("c", "l"), json_numbers),
    **dict.fromkeys(("axis", "mount", "rotations"), _optional(json_numbers)),
    "parent": _optional(json_integer),
    "max_angle": _optional(json_number),
    "bodies": _bodies,
    "excitation": partial(_read, Excitation, "excitation"),
    "root_motion": partial(_read, RootMotion, "root_motion"),
    "noise": partial(_read, NoiseSpec, "noise"),
}


def dict_to_spec(data: dict) -> SynthSpec:
    if isinstance(data, dict) and "sample_interval" in data and data["sample_interval"] is None:
        # spec.json files once held this null; any other value is an unknown key
        data = {k: v for k, v in data.items() if k != "sample_interval"}
    try:
        return _read(SynthSpec, "spec", data)
    except ValueError as exc:
        raise InvalidSpecError(f"malformed synth spec: {exc}") from exc


def save_spec(path, spec: SynthSpec):
    """Write the spec as spec.json; OSError if the file cannot be written."""
    write_json(path, spec_to_dict(spec))


def load_spec(path) -> SynthSpec:
    """Read spec.json; ParseError for malformed JSON, InvalidSpecError for a bad spec."""
    return dict_to_spec(read_json(path))
