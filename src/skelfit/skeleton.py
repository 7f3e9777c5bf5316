"""Fitted articulated model: limb lengths and constrained playback.

A model stores, for every non-root body, its parent and the shared
joint location expressed in both frames (c in the body's own frame, l
in the parent's).  Playback chains per-frame joint rotations from the
root through those locations, so the rebuilt motion keeps every joint
together exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

import numpy as np

from .capture import BodyTrack, CaptureSession, read_json, write_json
from .capture import _check_labels, json_array, json_integer, json_number, json_numbers
from .errors import MissingRotationError, NotAdjacentError, ParseError
from .hierarchy import build_fit_matrix, infer_hierarchy, tree_order
from .rigid import _abs_max, cofactors, scale_frames
from .solver import DEFAULT_RANK_TOL, Classification, JointFit, solve_joint


@dataclass(frozen=True)
class SkeletonModel:
    """A fitted tree: the root body plus one JointFit per other body.

    Construction raises ValueError unless the joints' parents form one
    tree under the root (see hierarchy.tree_order), or labels break
    capture._check_labels for the model's bodies.
    """

    root: int
    joints: dict[int, JointFit] = field(repr=False)
    labels: Optional[Mapping[int, str]] = None

    def __post_init__(self):
        if self.root in self.joints:
            raise ValueError("root body cannot have an inboard joint")
        for body, joint in self.joints.items():
            if joint.child != body:
                raise ValueError("joint keyed by the wrong body")
        self.topological_order()  # raises unless the joints form one tree
        object.__setattr__(self, "labels", _check_labels(self.labels, self.bodies, "model"))

    @property
    def bodies(self) -> list[int]:
        return sorted([self.root, *self.joints])

    def topological_order(self) -> list[int]:
        parent = {b: j.parent for b, j in self.joints.items()}
        return tree_order({self.root: None, **parent})


def fit_skeleton(
    session: CaptureSession,
    hierarchy: Optional[Mapping[int, Optional[int]]] = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> SkeletonModel:
    """Fit one joint per non-root body against its parent.

    Each joint is the JointFit that solve_joint returns, so the model
    keeps every joint's singular values and per-frame residuals.

    hierarchy maps every body to its parent, with None for the one root.
    With hierarchy=None the map is inferred first: the minimum spanning
    tree of the pairwise fit errors, rooted at body 0.  A map that is not
    one tree (see hierarchy.tree_order), or that names a body the session
    lacks, raises ValueError before any joint is solved.  Bodies the map
    leaves out get no joint, and reconstruct passes them through.
    """
    if hierarchy is None:
        hierarchy = infer_hierarchy(build_fit_matrix(session, rank_tol)).parent
    root, *others = tree_order(hierarchy)
    m = session.body_count
    extra = sorted(set(hierarchy) - set(range(m)))
    if extra:
        raise ValueError(f"parent map body {extra[0]} is not in the session (bodies 0..{m - 1})")

    joints = {b: solve_joint(session, b, hierarchy[b], rank_tol) for b in sorted(others)}
    labels = {b: label for b, label in (session.labels or {}).items() if b in hierarchy}
    return SkeletonModel(root=root, joints=joints, labels=labels)


def limb_length(model: SkeletonModel, joint_a: int, joint_b: int) -> float:
    """Distance between two joints that share a body frame.

    Joints are named by their outboard body.  Sibling joints measure in
    the common parent frame; a parent-child pair measures in the body
    that carries both (its own inboard joint and the child's joint).
    """
    if joint_a == joint_b:
        raise ValueError("joint indices must differ")
    for idx in (joint_a, joint_b):
        if idx not in model.joints:
            raise NotAdjacentError(f"body {idx} has no inboard joint")
    points = _shared_frame_points(model.joints[joint_a], model.joints[joint_b])
    if points is None:
        raise NotAdjacentError(
            f"joints {joint_a} and {joint_b} do not share a body frame"
        )
    return float(np.linalg.norm(points[0] - points[1]))


def adjacent_joint_pairs(model: SkeletonModel) -> list[tuple[int, int]]:
    """Joint pairs with a defined limb length, in index order."""
    ids = sorted(model.joints)
    return [
        (a, b)
        for k, a in enumerate(ids)
        for b in ids[k + 1 :]
        if _shared_frame_points(model.joints[a], model.joints[b]) is not None
    ]


def _shared_frame_points(
    a: JointFit, b: JointFit
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Both joints' locations in a body frame they share, or None.

    Siblings share their parent's frame; when one joint's parent is the
    other's child, they share that body's frame.
    """
    if a.parent == b.parent:
        return a.l, b.l
    if a.parent == b.child:
        return a.l, b.c
    if b.parent == a.child:
        return b.l, a.c
    return None


def _chain_world(
    model: SkeletonModel,
    root_R: np.ndarray,
    root_t: np.ndarray,
    joint_rotations: dict[int, np.ndarray],
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """World transforms root-outward as (R, t) dicts, popping joint_rotations as it goes."""
    n = root_R.shape[0]
    world_R: dict[int, np.ndarray] = {model.root: root_R}
    world_t: dict[int, np.ndarray] = {model.root: root_t}
    for body in model.topological_order():
        if body == model.root:
            continue
        if body not in joint_rotations:
            raise MissingRotationError(f"no rotations supplied for body {body}")
        rel = np.asarray(joint_rotations.pop(body), dtype=np.float64)
        if rel.shape != (n, 3, 3):
            raise MissingRotationError(
                f"body {body}: rotations must be ({n}, 3, 3), got {rel.shape}"
            )
        joint = model.joints[body]
        Rp, tp = world_R[joint.parent], world_t[joint.parent]
        R = Rp @ rel
        t = np.einsum("nij,j->ni", Rp, joint.l) + tp - np.einsum("nij,j->ni", R, joint.c)
        world_R[body], world_t[body] = R, t
    return world_R, world_t


def forward_kinematics(
    model: SkeletonModel,
    root_world: tuple[np.ndarray, np.ndarray],
    joint_rotations: Mapping[int, np.ndarray],
    labels: Optional[Mapping[int, str]] = None,
) -> CaptureSession:
    """Chain joint rotations from the root into world transforms.

    root_world supplies the root body's placement per frame as an
    (R, t) pair of (n, 3, 3) and (n, 3) arrays.
    joint_rotations maps each non-root body to its (n, 3, 3) per-frame
    rotation relative to the parent.  In the output, child and parent
    map their copies of every joint to identical world points.  labels
    names the output's bodies; None takes the model's labels.

    The model must cover bodies 0..m-1 so the result forms a session.
    """
    root_R, root_t = (np.asarray(a, dtype=np.float64) for a in root_world)
    world_R, world_t = _chain_world(model, root_R, root_t, dict(joint_rotations))
    if sorted(world_R) != list(range(len(world_R))):
        raise ValueError(
            f"model bodies {sorted(world_R)} are not contiguous from 0"
        )
    tracks = tuple(BodyTrack(b, world_R.pop(b), world_t.pop(b)) for b in sorted(world_R))
    return CaptureSession(tracks, root_R.shape[0], model.labels if labels is None else labels)


def _relative_rotations(session: CaptureSession, child: int, parent: int) -> np.ndarray:
    """Rp^-1 Rc per frame, as cof(Rp)^T Rc / det(Rp) (rigid.cofactors).

    Each frame of Rp and of Rc is first scaled by rigid.scale_frames, and
    the product is scaled back.  A track holds no singular frame, so the
    det divides safely, and a far-scaled frame neither overflows nor
    warns unless its result does.
    """
    Rp = session.track(parent).rotations
    Rc = session.track(child).rotations
    Xp, e_p = scale_frames(Rp)
    Xc, e_c = scale_frames(Rc)
    cof, det = cofactors(Xp)
    rel = np.swapaxes(cof, -1, -2) @ Xc / det[:, None, None]
    return np.ldexp(rel, (e_c - e_p)[:, None, None])


# A frame leaves the Newton iteration once a step moves no entry by more
# than _POLAR_TOL (entries are about 1 by then); one that has not after
# _POLAR_STEPS steps falls back on the SVD.
_POLAR_STEPS = 6
_POLAR_TOL = 8 * np.finfo(np.float64).eps


def _orthonormalize(R: np.ndarray) -> np.ndarray:
    """Nearest proper rotation per frame of R (n, 3, 3): its polar factor.

    Runs Higham's Newton iteration for the polar factor (N. J. Higham,
    "Computing the polar decomposition - with applications", SIAM J. Sci.
    Stat. Comput. 7, 1986), X <- (g X + X^-T / g) / 2, batched, with
    X^-T in closed form (`rigid.cofactors`).  The first step uses the
    determinant scaling g = det(X)^(-1/3); later steps use g = 1.  Each
    frame is first scaled by rigid.scale_frames, so a far-scaled or
    near-singular frame neither overflows nor warns.

    Each frame takes one of two routes.  A frame falls back on the SVD
    (`_orthonormalize_svd`) when its det is <= 0, since the nearest
    rotation to a reflection needs the SVD's sign flip, or when its
    Newton step has not fallen to _POLAR_TOL within _POLAR_STEPS steps.
    Every other frame takes its Newton result, which agrees with the SVD
    to a few ulps.
    """
    X, _ = scale_frames(R)
    cof, det = cofactors(X)
    out = np.empty_like(X)
    by_newton = np.zeros(len(X), dtype=bool)
    todo = np.flatnonzero(det > 0)
    X, cof, det = X[todo], cof[todo], det[todo]
    gamma = 1.0 / np.cbrt(det)[:, None, None]
    for steps_left in range(_POLAR_STEPS - 1, -1, -1):
        gX = gamma * X
        X_next = 0.5 * (gX + cof / (gamma * det[:, None, None]))
        done = _abs_max(X_next - gX) <= _POLAR_TOL
        out[todo[done]] = X_next[done]
        by_newton[todo[done]] = True
        # A step can at most halve the largest singular value, so a frame
        # with an entry above 2**steps_left cannot converge in the steps left;
        # dropping it now also keeps the cross products from overflowing.
        keep = ~done & (_abs_max(X_next) <= 2.0**steps_left)
        todo, X = todo[keep], X_next[keep]
        if not todo.size:
            break
        cof, det = cofactors(X)
        gamma = 1.0
    if not by_newton.all():
        out[~by_newton] = _orthonormalize_svd(R[~by_newton])
    return out


def _orthonormalize_svd(R: np.ndarray) -> np.ndarray:
    """Nearest rotation matrices via polar decomposition, batched."""
    U, _, Vt = np.linalg.svd(R)
    out = U @ Vt
    flip = np.linalg.det(out) < 0
    if np.any(flip):
        U = U.copy()
        U[flip, :, -1] *= -1
        out = U @ Vt
    return out


def reconstruct(
    model: SkeletonModel,
    session: CaptureSession,
    orthonormalize: bool = False,
) -> CaptureSession:
    """Replay the session through the fitted model, discarding residuals.

    Per frame, the relative rotation of each body with respect to its
    parent is taken from the raw data, the root keeps its raw world
    transform, and all other world transforms are rebuilt by forward
    kinematics.  Joints in the output coincide exactly; bodies the
    model does not cover pass through untouched.  With orthonormalize,
    each relative rotation is first snapped to its nearest proper
    rotation.
    """
    for body in model.bodies:
        if body >= session.body_count:
            raise ValueError(f"model body {body} not present in the session")

    rotations: dict[int, np.ndarray] = {}
    for body, joint in model.joints.items():
        rel = _relative_rotations(session, body, joint.parent)
        if orthonormalize:
            rel = _orthonormalize(rel)
        rotations[body] = rel

    root_track = session.track(model.root)
    world_R, world_t = _chain_world(
        model, root_track.rotations, root_track.translations, rotations
    )

    tracks = tuple(
        BodyTrack(body, world_R.pop(body), world_t.pop(body)) if body in world_R else track
        for body, track in enumerate(session.bodies)
    )
    return replace(session, bodies=tracks)


def joint_gaps(model: SkeletonModel, session: CaptureSession) -> dict[int, np.ndarray]:
    """Per-frame world distance between each joint's two copies.

    On raw data this equals the per-frame solver residual; after
    reconstruction it collapses to rounding error.
    """
    gaps = {}
    for body, joint in model.joints.items():
        tc, tp = session.track(body), session.track(joint.parent)
        pc = np.einsum("nij,j->ni", tc.rotations, joint.c) + tc.translations
        pp = np.einsum("nij,j->ni", tp.rotations, joint.l) + tp.translations
        gaps[body] = np.linalg.norm(pc - pp, axis=1)
    return gaps


def skeleton_to_dict(model: SkeletonModel) -> dict:
    bodies = []
    for body in model.bodies:
        label = model.labels.get(body) if model.labels else None
        if body == model.root:
            bodies.append({"id": body, "label": label, "parent": None})
            continue
        joint = model.joints[body]
        bodies.append(
            {
                "id": body,
                "label": label,
                "parent": joint.parent,
                "c": [float(v) for v in joint.c],
                "l": [float(v) for v in joint.l],
                "epsilon_m": float(joint.epsilon),
                "classification": str(joint.classification),
                "axis_child": None
                if joint.axis_child is None
                else [float(v) for v in joint.axis_child],
                "axis_parent": None
                if joint.axis_parent is None
                else [float(v) for v in joint.axis_parent],
            }
        )
    return {"root": model.root, "bodies": bodies}


def _vector3(value) -> np.ndarray:
    v = np.array(json_numbers(value), dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"{value!r} is not a 3-vector")
    return v


def _json_string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a JSON string")
    return value


# the keys skeleton_to_dict writes; a root entry may hold them all, as older files did
_TOP_KEYS = frozenset({"root", "bodies"})
_BODY_KEYS = frozenset(
    {"id", "label", "parent", "c", "l", "epsilon_m", "classification", "axis_child", "axis_parent"}
)


def _object(value, where: str) -> dict:
    """value, a JSON object; ParseError for any other value."""
    if not isinstance(value, dict):
        raise ParseError(f"{where}: {value!r} is not a JSON object")
    return value


def _known_keys(entry: dict, where: str, keys: frozenset):
    """ParseError naming the keys of entry that are not in `keys`, so a misspelled
    field is refused, not read as absent."""
    unknown = sorted(set(entry) - keys)
    if unknown:
        raise ParseError(f"{where}: unknown key(s): {', '.join(unknown)}")


def _field(entry: dict, key: str, where: str, convert):
    """convert(entry[key]); a missing key or bad value raises ParseError."""
    if key not in entry:
        raise ParseError(f"{where}: missing key {key!r}")
    try:
        return convert(entry[key])
    except (TypeError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ParseError(f"{where}: bad {key}: {exc}") from None


def dict_to_skeleton(data: dict) -> SkeletonModel:
    """Inverse of skeleton_to_dict; ParseError names the body and field at fault.
    ValueError unless the entries form one tree (hierarchy.tree_order) under the root.
    An unknown key, at the top or in a body entry, raises ParseError naming it."""
    _known_keys(_object(data, "skeleton"), "skeleton", _TOP_KEYS)
    root = _field(data, "root", "skeleton", json_integer)
    joints: dict[int, JointFit] = {}
    labels: dict[int, str] = {}
    parents: dict[int, Optional[int]] = {}
    for entry in _field(data, "bodies", "skeleton", json_array):
        body = _field(_object(entry, "body entry"), "id", "body entry", json_integer)
        where = f"body {body}"
        _known_keys(entry, where, _BODY_KEYS)
        if body in parents:
            raise ParseError(f"{where}: listed twice")
        if entry.get("label") is not None:
            labels[body] = _field(entry, "label", where, _json_string)
        parents[body] = None
        if entry.get("parent") is None:
            # older files also gave the root c, l, epsilon_m and so on
            continue
        parents[body] = _field(entry, "parent", where, json_integer)
        joints[body] = JointFit(
            child=body,
            parent=parents[body],
            c=_field(entry, "c", where, _vector3),
            l=_field(entry, "l", where, _vector3),
            epsilon=_field(entry, "epsilon_m", where, json_number),
            classification=_field(entry, "classification", where, Classification),
            axis_child=None
            if entry.get("axis_child") is None
            else _field(entry, "axis_child", where, _vector3),
            axis_parent=None
            if entry.get("axis_parent") is None
            else _field(entry, "axis_parent", where, _vector3),
        )
    # the tree rule sees every entry, so a second root is refused, not dropped;
    # SkeletonModel refuses a root entry that has a parent
    tree_order(parents)
    if root not in parents:
        raise ValueError(f"root {root} is not among the listed bodies")
    return SkeletonModel(root=root, joints=joints, labels=labels)


def save_skeleton(path, model: SkeletonModel):
    """Write the model as skeleton JSON; OSError if the file cannot be written."""
    write_json(path, skeleton_to_dict(model))


def load_skeleton(path) -> SkeletonModel:
    """Read skeleton JSON; ParseError for malformed JSON or fields, ValueError for a bad tree."""
    return dict_to_skeleton(read_json(path))
