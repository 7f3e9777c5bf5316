"""Parent-map inference from pairwise joint-fit errors.

Every unordered body pair gets a joint fit; the fit error is the weight
of an edge between the two bodies.  The articulated hierarchy is the
spanning tree of minimum total weight, oriented away from a chosen
root.  Non-tree edges whose error is still low are reported, since they
may indicate a loop the tree cannot represent.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .capture import CaptureSession
from .errors import IncompleteMatrixError, ParseError, SkelfitError
from .solver import DEFAULT_RANK_TOL, solve_joint

DEFAULT_LOOP_FACTOR = 2.0


@dataclass(frozen=True)
class FitMatrix:
    """Symmetric table of pairwise fit errors.

    epsilon[i, j] is the fit error between bodies i and j in meters; the
    diagonal is undefined (NaN).  Only the errors are kept: the spanning
    tree needs nothing else, and fit_skeleton solves its edges again.
    """

    epsilon: np.ndarray

    @property
    def size(self) -> int:
        return self.epsilon.shape[0]

    def is_complete(self) -> bool:
        """True when every off-diagonal error is finite."""
        off_diag = ~np.eye(self.size, dtype=bool)
        return bool(np.isfinite(self.epsilon[off_diag]).all())


def build_fit_matrix(
    session: CaptureSession, rank_tol: float = DEFAULT_RANK_TOL
) -> FitMatrix:
    """Solve all m(m-1)/2 unordered body pairs."""
    m = session.body_count
    if m < 2:
        raise ValueError("need at least two bodies")
    eps = np.full((m, m), np.nan)
    for i in range(m):
        for j in range(i + 1, m):
            try:
                fit = solve_joint(session, i, j, rank_tol)
            except SkelfitError as exc:
                raise type(exc)(f"pair ({i}, {j}): {exc}") from exc
            eps[i, j] = eps[j, i] = fit.epsilon
    return FitMatrix(epsilon=eps)


@dataclass(frozen=True)
class HierarchyResult:
    """Oriented spanning tree over the bodies.

    parent maps each body to its parent index, with None standing for
    the world frame (only the root maps to None).
    """

    parent: dict[int, Optional[int]]
    root: int
    tree_edges: list[tuple[int, int]]
    total_epsilon: float
    unused_low_error_edges: list[tuple[int, int, float]]


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))
        self.rank = [0] * size

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def infer_hierarchy(
    fits: FitMatrix,
    root: Optional[int] = None,
    loop_factor: float = DEFAULT_LOOP_FACTOR,
) -> HierarchyResult:
    """Minimum spanning tree over the fit errors, oriented from a root.

    Kruskal's algorithm with ties broken by the lexicographically
    smallest (i, j) pair, so the result is identical across platforms.
    Non-tree edges with error at most loop_factor times the largest
    tree-edge error are returned as possible unmodeled loops.
    """
    m = fits.size
    if not fits.is_complete():
        raise IncompleteMatrixError("fit matrix has missing entries")
    if root is None:
        root = 0
    if not 0 <= root < m:
        raise ValueError(f"root index {root} out of range 0..{m - 1}")

    edges = sorted(
        ((float(fits.epsilon[i, j]), i, j) for i in range(m) for j in range(i + 1, m))
    )
    uf = _UnionFind(m)
    tree: list[tuple[int, int]] = []
    rest: list[tuple[float, int, int]] = []
    for w, i, j in edges:
        if uf.union(i, j):
            tree.append((i, j))
        else:
            rest.append((w, i, j))

    adjacency: dict[int, list[int]] = {i: [] for i in range(m)}
    for i, j in tree:
        adjacency[i].append(j)
        adjacency[j].append(i)

    parent: dict[int, Optional[int]] = {root: None}
    queue = [root]
    while queue:
        node = queue.pop(0)
        for nbr in sorted(adjacency[node]):
            if nbr not in parent:
                parent[nbr] = node
                queue.append(nbr)

    weights = sorted(float(fits.epsilon[i, j]) for i, j in tree)
    total = math.fsum(weights)
    threshold = loop_factor * weights[-1] if weights else 0.0
    unused = [(i, j, w) for w, i, j in rest if w <= threshold]
    unused.sort(key=lambda e: (e[2], e[0], e[1]))

    return HierarchyResult(
        parent=parent,
        root=root,
        tree_edges=sorted(tree),
        total_epsilon=total,
        unused_low_error_edges=unused,
    )


def write_fit_matrix_csv(path, fits: FitMatrix):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["body_i", "body_j", "epsilon_m"])
        m = fits.size
        for i in range(m):
            for j in range(i + 1, m):
                writer.writerow([i, j, repr(float(fits.epsilon[i, j]))])


def load_parent_map(path) -> dict[int, Optional[int]]:
    """Read a `body,parent` CSV; the root row leaves parent empty or 'world'."""
    parent: dict[int, Optional[int]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["body", "parent"]:
            raise ParseError(f"{path}: bad hierarchy header")
        for number, row in enumerate(reader, start=2):
            if not row:
                continue
            cell = row[1].strip() if len(row) > 1 else ""
            try:
                body = int(row[0])
                value = None if cell in ("", "world") else int(cell)
            except ValueError as exc:
                raise ParseError(f"{path}, row {number}: {exc}") from exc
            if body in parent:
                raise ParseError(f"{path}, row {number}: body {body} listed twice")
            parent[body] = value
    return parent


def write_parent_map(path, parent: dict[int, Optional[int]]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["body", "parent"])
        for body in sorted(parent):
            p = parent[body]
            writer.writerow([body, "world" if p is None else p])
