"""Shared builders for the test suite.

manual_pair_session builds a two-body session with a per-frame Python
loop and no package forward-kinematics code, so tests that use it as an
oracle do not lean on the machinery under test.
"""
from __future__ import annotations

import numpy as np
import pytest

from skelfit.capture import BodyTrack, CaptureSession
from skelfit.rigid import DET_RTOL, rotation_about_axis


def haar_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random rotation matrices via normalized quaternions."""
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack(
        [
            np.stack([1 - 2 * (y**2 + z**2), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x**2 + z**2), 2 * (y * z - w * x)], axis=-1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x**2 + y**2)], axis=-1),
        ],
        axis=1,
    )


def cofactor_families(
    rng: np.random.Generator, n: int, smallest: float = DET_RTOL
) -> dict[str, np.ndarray]:
    """Stacks of n invertible 3x3 frames for the closed-form det/inverse oracles.

    Haar rotations; rotations perturbed by 1e-12 to 0.3; near rotations
    scaled by 2^60 and 2^-60; spectra (1, [0.5, 1], s) between Haar
    rotations with s log-uniform in [smallest, 1]; and reflections.
    """
    Q = haar_rotations(rng, n)
    families = {"rotations": Q}
    for size in (1e-12, 1e-6, 1e-3, 0.3):
        families[f"perturbed {size:g}"] = Q + rng.uniform(-size, size, Q.shape)
    near = Q + rng.uniform(-1e-3, 1e-3, Q.shape)
    families["scaled 2^60"] = np.ldexp(near, 60)
    families["scaled 2^-60"] = np.ldexp(near, -60)
    spectrum = np.stack(
        [np.ones(n), rng.uniform(0.5, 1.0, n), smallest ** rng.uniform(0.0, 1.0, n)], axis=1
    )
    families["near singular"] = (haar_rotations(rng, n) * spectrum[:, None, :]) @ Q
    families["reflections"] = Q * np.array([1.0, 1.0, -1.0])
    return families


def unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def line_angle(a, b) -> float:
    """Acute angle between two axis directions, sign-insensitive."""
    cos = abs(float(np.dot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return float(np.arccos(min(1.0, cos)))


def manual_pair_session(
    c,
    l,
    n: int = 120,
    seed: int = 0,
    relative_rotations=None,
    labels=("parent", "child"),
) -> CaptureSession:
    """Two bodies sharing one joint, assembled frame by frame.

    Body 0 is the parent on a random world trajectory; body 1 is placed
    so that body-1 point c and body-0 point l coincide in the world.
    """
    rng = np.random.default_rng(seed)
    c = np.asarray(c, dtype=np.float64)
    l = np.asarray(l, dtype=np.float64)
    Rp = haar_rotations(rng, n)
    tp = rng.normal(size=(n, 3))
    if relative_rotations is None:
        relative_rotations = haar_rotations(rng, n)
    Rc = np.empty((n, 3, 3))
    tc = np.empty((n, 3))
    for k in range(n):
        Rc[k] = Rp[k] @ relative_rotations[k]
        tc[k] = Rp[k] @ l + tp[k] - Rc[k] @ c
    tracks = (BodyTrack(0, Rp, tp), BodyTrack(1, Rc, tc))
    return CaptureSession(tracks, n, labels=dict(enumerate(labels)))


def hinge_relative_rotations(axis, mount, angles) -> np.ndarray:
    """Child-to-parent rotations spinning about a fixed child-frame axis."""
    return mount @ rotation_about_axis(axis, np.asarray(angles, dtype=np.float64))


@pytest.fixture(scope="session")
def linkage_noisy():
    """One noisy linkage session shared by read-only tests."""
    from skelfit.synth import generate, linkage_spec

    spec = linkage_spec(frames=800, seed=20)
    session, truth = generate(spec)
    return spec, session, truth


def prufer_edges(seq, m) -> list[tuple[int, int]]:
    """Decode a Prufer sequence into the edge set of a labeled tree."""
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(i for i in range(m) if degree[i] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (i for i in range(m) if degree[i] == 1)
    edges.append((u, w))
    return edges


def all_labeled_trees(m) -> list[list[tuple[int, int]]]:
    """Every spanning tree on m labeled vertices, m^(m-2) of them."""
    import itertools

    return [prufer_edges(seq, m) for seq in itertools.product(range(m), repeat=m - 2)]
