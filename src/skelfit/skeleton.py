"""Fitted articulated model: limb lengths and constrained playback.

A model stores, for every non-root body, its parent and the shared
joint location expressed in both frames (c in the body's own frame, l
in the parent's).  Playback chains per-frame joint rotations from the
root through those locations, so the rebuilt motion keeps every joint
together exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

import numpy as np

from .capture import BodyTrack, CaptureSession
from .errors import MissingRotationError, NotAdjacentError, ParseError
from .hierarchy import HierarchyResult, build_fit_matrix, infer_hierarchy
from .solver import DEFAULT_RANK_TOL, Classification, solve_joint

ParentMap = Mapping[int, Optional[int]]
HierarchySource = Union[None, HierarchyResult, ParentMap]


@dataclass(frozen=True)
class Joint:
    """One fitted joint, keyed by its outboard (child) body."""

    body: int
    parent: int
    c: np.ndarray
    l: np.ndarray
    epsilon: float
    classification: Classification
    axis_child: Optional[np.ndarray] = None
    axis_parent: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SkeletonModel:
    root: int
    joints: dict[int, Joint] = field(repr=False)
    labels: Optional[dict[int, str]] = None

    def __post_init__(self):
        if self.root in self.joints:
            raise ValueError("root body cannot have an inboard joint")
        for body, joint in self.joints.items():
            if joint.body != body:
                raise ValueError("joint keyed by the wrong body")
        # Every body must reach the root without cycles.
        for body in self.joints:
            seen = set()
            node = body
            while node != self.root:
                if node in seen or node not in self.joints:
                    raise ValueError(f"body {body} does not chain to the root")
                seen.add(node)
                node = self.joints[node].parent

    @property
    def bodies(self) -> list[int]:
        return sorted([self.root, *self.joints])

    def children_of(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {b: [] for b in self.bodies}
        for joint in self.joints.values():
            out[joint.parent].append(joint.body)
        return {b: sorted(c) for b, c in out.items()}

    def topological_order(self) -> list[int]:
        children = self.children_of()
        order = [self.root]
        queue = [self.root]
        while queue:
            node = queue.pop(0)
            for child in children[node]:
                order.append(child)
                queue.append(child)
        return order

    def label_of(self, body: int) -> str:
        if self.labels and body in self.labels:
            return self.labels[body]
        return str(body)


def _normalize_parent_map(hierarchy: HierarchySource) -> tuple[int, dict[int, int]]:
    """Return (root, child->parent) from any accepted hierarchy source."""
    if isinstance(hierarchy, HierarchyResult):
        mapping = hierarchy.parent
    else:
        mapping = dict(hierarchy)
    roots = [b for b, p in mapping.items() if p is None]
    if len(roots) != 1:
        raise ValueError(f"parent map must have exactly one root, found {roots}")
    return roots[0], {b: p for b, p in mapping.items() if p is not None}


def fit_skeleton(
    session: CaptureSession,
    hierarchy: HierarchySource = None,
    rank_tol: float = DEFAULT_RANK_TOL,
    root: Optional[int] = None,
) -> SkeletonModel:
    """Fit one joint per non-root body against its parent.

    With hierarchy=None the parent map is inferred from the data first;
    a HierarchyResult or an explicit {body: parent-or-None} map skips
    inference.
    """
    if hierarchy is None:
        fits = build_fit_matrix(session, rank_tol)
        hierarchy = infer_hierarchy(fits, root=root)
    tree_root, parents = _normalize_parent_map(hierarchy)

    joints: dict[int, Joint] = {}
    for body in sorted(parents):
        fit = solve_joint(session, body, parents[body], rank_tol)
        joints[body] = Joint(
            body=body,
            parent=parents[body],
            c=fit.c,
            l=fit.l,
            epsilon=fit.epsilon,
            classification=fit.classification,
            axis_child=fit.hinge_axis_child,
            axis_parent=fit.hinge_axis_parent,
        )
    labels = {b.body_id: b.label for b in session.bodies if b.label is not None}
    return SkeletonModel(root=tree_root, joints=joints, labels=labels or None)


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
    a, b = model.joints[joint_a], model.joints[joint_b]
    if a.parent == b.parent:
        return float(np.linalg.norm(a.l - b.l))
    if a.parent == b.body:
        return float(np.linalg.norm(a.l - b.c))
    if b.parent == a.body:
        return float(np.linalg.norm(b.l - a.c))
    raise NotAdjacentError(
        f"joints {joint_a} and {joint_b} do not share a body frame"
    )


def adjacent_joint_pairs(model: SkeletonModel) -> list[tuple[int, int]]:
    """Joint pairs with a defined limb length, in index order."""
    ids = sorted(model.joints)
    pairs = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            ja, jb = model.joints[a], model.joints[b]
            if ja.parent == jb.parent or ja.parent == b or jb.parent == a:
                pairs.append((a, b))
    return pairs


def _chain_world(
    model: SkeletonModel,
    root_R: np.ndarray,
    root_t: np.ndarray,
    joint_rotations: Mapping[int, np.ndarray],
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Accumulate world transforms root-outward; returns (R, t) dicts."""
    n = root_R.shape[0]
    world_R: dict[int, np.ndarray] = {model.root: root_R}
    world_t: dict[int, np.ndarray] = {model.root: root_t}
    for body in model.topological_order():
        if body == model.root:
            continue
        if body not in joint_rotations:
            raise MissingRotationError(f"no rotations supplied for body {body}")
        rel = np.asarray(joint_rotations[body], dtype=np.float64)
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
    labels: Optional[dict[int, str]] = None,
) -> CaptureSession:
    """Chain joint rotations from the root into world transforms.

    root_world supplies the root body's placement per frame as an
    (R, t) pair of (n, 3, 3) and (n, 3) arrays.
    joint_rotations maps each non-root body to its (n, 3, 3) per-frame
    rotation relative to the parent.  In the output, child and parent
    map their copies of every joint to identical world points.

    The model must cover bodies 0..m-1 so the result forms a session.
    """
    root_R, root_t = (np.asarray(a, dtype=np.float64) for a in root_world)
    world_R, world_t = _chain_world(model, root_R, root_t, joint_rotations)
    if sorted(world_R) != list(range(len(world_R))):
        raise ValueError(
            f"model bodies {sorted(world_R)} are not contiguous from 0"
        )
    label_map = labels if labels is not None else (model.labels or {})
    tracks = tuple(
        BodyTrack(b, world_R[b], world_t[b], label=label_map.get(b))
        for b in sorted(world_R)
    )
    return CaptureSession(tracks, root_R.shape[0])


def _relative_rotations(session: CaptureSession, child: int, parent: int) -> np.ndarray:
    Rc = session.track(child).rotations
    Rp = session.track(parent).rotations
    return np.linalg.solve(Rp, Rc)


def _orthonormalize(R: np.ndarray) -> np.ndarray:
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
    model does not cover pass through untouched.
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

    tracks = []
    for body in range(session.body_count):
        if body in world_R:
            old = session.bodies[body]
            tracks.append(BodyTrack(body, world_R[body], world_t[body], label=old.label))
        else:
            tracks.append(session.bodies[body])
    return CaptureSession(tuple(tracks), session.frame_count, session.sample_interval)


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
            bodies.append(
                {
                    "id": body,
                    "label": label,
                    "parent": None,
                    "c": [0.0, 0.0, 0.0],
                    "l": [0.0, 0.0, 0.0],
                    "epsilon_m": 0.0,
                    "classification": str(Classification.SPHERICAL),
                    "axis_child": None,
                    "axis_parent": None,
                }
            )
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
    v = np.array(value, dtype=np.float64)
    if v.shape != (3,) or not np.isfinite(v).all():
        raise ValueError(f"{value!r} is not a finite 3-vector")
    return v


def _field(entry: dict, key: str, where: str, convert):
    """convert(entry[key]); a missing key or bad value raises ParseError."""
    if not isinstance(entry, dict) or key not in entry:
        raise ParseError(f"{where}: missing key {key!r}")
    try:
        return convert(entry[key])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: bad {key}: {exc}") from None


def dict_to_skeleton(data: dict) -> SkeletonModel:
    """Inverse of skeleton_to_dict; ParseError names the body and field at fault."""
    root = _field(data, "root", "skeleton", int)
    joints: dict[int, Joint] = {}
    labels: dict[int, str] = {}
    for entry in _field(data, "bodies", "skeleton", list):
        body = _field(entry, "id", "body entry", int)
        where = f"body {body}"
        if entry.get("label") is not None:
            labels[body] = entry["label"]
        if entry.get("parent") is None:
            continue
        joints[body] = Joint(
            body=body,
            parent=_field(entry, "parent", where, int),
            c=_field(entry, "c", where, _vector3),
            l=_field(entry, "l", where, _vector3),
            epsilon=_field(entry, "epsilon_m", where, float),
            classification=_field(entry, "classification", where, Classification),
            axis_child=None
            if entry.get("axis_child") is None
            else _field(entry, "axis_child", where, _vector3),
            axis_parent=None
            if entry.get("axis_parent") is None
            else _field(entry, "axis_parent", where, _vector3),
        )
    return SkeletonModel(root=root, joints=joints, labels=labels or None)


def save_skeleton(path, model: SkeletonModel):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(skeleton_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_skeleton(path) -> SkeletonModel:
    with open(path, encoding="utf-8") as fh:
        return dict_to_skeleton(json.load(fh))
