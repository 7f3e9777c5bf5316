"""Parent-map inference from pairwise joint-fit errors.

Every unordered body pair gets a joint fit; the fit error is the weight
of an edge between the two bodies.  The articulated hierarchy is the
spanning tree of minimum total weight, grown by Prim's algorithm from a
chosen root under the strict edge order (epsilon, i, j), i < j, so it is
unique.  Non-tree edges whose error is still low are reported, since
they may indicate a loop the tree cannot represent.  The errors of all
pairs come from one Gram matrix of the body transforms (gram_epsilon);
every pair that could decide the tree or a loop warning is solved
exactly.  tree_order checks any parent map, inferred or supplied, and
orders its bodies root first.
"""
from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .capture import CaptureSession, csv_records, write_csv
from .errors import IncompleteMatrixError, ParseError, SkelfitError
from .rigid import FRAME_CHUNK  # also frames per Gram-matrix update
from .solver import DEFAULT_RANK_TOL, kept_directions, solve_joint

DEFAULT_LOOP_FACTOR = 2.0
EIG_ERR = 64  # eigh's backward error and loss of orthogonality, in units of u * trace
SAFETY = 2.0  # covers the (1 + O(u)) factors the bound leaves out
WIDE_BOUND = 2.0  # a bound that cannot place epsilon within this factor is solved exactly


@dataclass(frozen=True)
class FitMatrix:
    """Symmetric table of pairwise fit errors.

    epsilon[i, j] is the fit error between bodies i and j in meters; the
    diagonal is undefined (NaN).  Only the errors are kept: the spanning
    tree needs nothing else, and fit_skeleton solves its edges again.
    """

    epsilon: np.ndarray

    def is_complete(self) -> bool:
        """True when every off-diagonal error is finite."""
        off_diag = ~np.eye(len(self.epsilon), dtype=bool)
        return bool(np.isfinite(self.epsilon[off_diag]).all())


def build_fit_matrix(
    session: CaptureSession, rank_tol: float = DEFAULT_RANK_TOL
) -> FitMatrix:
    """The fit error of all m(m-1)/2 unordered body pairs.

    Every pair starts from its Gram-matrix estimate (gram_epsilon), whose
    bound places the per-pair SVD's value in [lo, hi].  solve_joint then
    replaces the estimate, bit for bit, on every pair that could matter
    to infer_hierarchy: each pair whose bound is unusable or cannot place
    epsilon within a factor of WIDE_BOUND, and each pair with lo at most
    DEFAULT_LOOP_FACTOR times tau, the largest hi on a minimum spanning
    tree of hi.  The exact tree weighs no edge above tau, so by the cycle
    property a pair left estimated can be neither a tree edge nor a loop
    warning; the tree, the warnings and their epsilons are the per-pair
    SVD's.
    """
    m = session.body_count
    if m < 2:
        raise ValueError("need at least two bodies")
    if session.frame_count < 2 or not 0.0 < rank_tol < 1.0:
        _exact_epsilon(session, 0, 1, rank_tol)  # raises solve_joint's error
    eps, bound = gram_epsilon(session, rank_tol)
    lo = np.sqrt(np.maximum(eps**2 - bound, 0.0))
    hi = np.sqrt(eps**2 + bound)
    loose = ~(hi <= WIDE_BOUND * lo)

    def solve(mask):
        for i, j in zip(*np.nonzero(np.triu(mask, 1))):
            e = _exact_epsilon(session, int(i), int(j), rank_tol)
            eps[i, j] = eps[j, i] = lo[i, j] = lo[j, i] = hi[i, j] = hi[j, i] = e

    solve(loose)
    # every minimum spanning tree has the same largest edge, so any root will do
    tau = max(hi[b, p] for b, p in _spanning_tree(hi, 0).items() if p is not None)
    solve(~loose & (lo <= DEFAULT_LOOP_FACTOR * tau))
    return FitMatrix(epsilon=eps)


def _exact_epsilon(session: CaptureSession, i: int, j: int, rank_tol: float) -> float:
    try:
        return solve_joint(session, i, j, rank_tol).epsilon
    except SkelfitError as exc:
        raise type(exc)(f"pair ({i}, {j}): {exc}") from exc


def _gram(session: CaptureSession) -> np.ndarray:
    """G = Y^T Y, shape (4m, 4m), summed over chunks of FRAME_CHUNK frames.

    Row (k, a) of Y holds [R_i[k][a, :], t_i[k][a]] for every body i.
    Translations are taken from each frame's mean body position: that
    leaves every pair's b = t_j - t_i as it is and keeps the sums small.
    """
    m, n = session.body_count, session.frame_count
    G = np.zeros((4 * m, 4 * m))
    for start in range(0, n, FRAME_CHUNK):
        stop = min(n, start + FRAME_CHUNK)
        Y = np.empty((stop - start, 3, m, 4))
        for track in session.bodies:
            Y[:, :, track.body_id, :3] = track.rotations[start:stop]
            Y[:, :, track.body_id, 3] = track.translations[start:stop]
        Y[..., 3] -= Y[..., 3].mean(axis=2, keepdims=True)
        Y = Y.reshape(3 * (stop - start), 4 * m)
        G += Y.T @ Y
    return G


def gram_epsilon(
    session: CaptureSession, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Every pair's epsilon from one Gram matrix, with a bound on its error.

    For the pair (i, j), i < j, set up as solve_joint(session, i, j) sets
    it up, A^T A, A^T b and b^T b are sums of 4x4 blocks of G (_gram).
    One batched eigh and solve_joint's truncation rule give
    epsilon^2 = (b^T b - sum over kept k of (v_k^T A^T b)^2 / lambda_k) / n.

    Returns (epsilon, bound), both (m, m) with a NaN diagonal: the
    per-pair SVD's epsilon^2 lies within bound of epsilon^2.  The bound
    sums worst-case rounding: of G, of the eigensolver (amplified by
    1/lambda of the kept eigenvalues, and by the turn of the kept
    subspace when directions are dropped), of the centring, and of the
    per-pair SVD itself.  It is inf where the keep/drop decision lies
    within those errors of the cutoff, or where they could swamp the
    smallest kept eigenvalue.
    """
    m, n = session.body_count, session.frame_count
    u = np.finfo(np.float64).eps / 2
    terms = 3 * min(n, FRAME_CHUNK) + -(-n // FRAME_CHUNK)  # longest sum in G
    gamma = terms * u / (1 - terms * u)
    # relative backward error of the per-pair SVD: Householder QR of the
    # 3n x 6 system (gamma of 2 * 3n * 6 terms) plus the 6x6 SVD after it
    svd_err = (36 * n + 64) * u

    i, j = np.triu_indices(m, 1)
    blocks = _gram(session).reshape(m, 4, m, 4).transpose(0, 2, 1, 3)
    Bii, Bjj, Bij, Bji = blocks[i, i], blocks[j, j], blocks[i, j], blocks[j, i]
    AtA = np.empty((len(i), 6, 6))
    AtA[:, :3, :3] = Bii[:, :3, :3]
    AtA[:, :3, 3:] = -Bij[:, :3, :3]
    AtA[:, 3:, :3] = -Bji[:, :3, :3]
    AtA[:, 3:, 3:] = Bjj[:, :3, :3]
    Atb = np.concatenate([Bij[:, :3, 3] - Bii[:, :3, 3], Bji[:, :3, 3] - Bjj[:, :3, 3]], 1)
    btb = Bii[:, 3, 3] + Bjj[:, 3, 3] - 2.0 * Bij[:, 3, 3]

    lam, V = np.linalg.eigh(AtA)
    lam, V = lam[:, ::-1], V[:, :, ::-1]  # non-increasing, as the SVD orders them
    proj = np.einsum("pkc,pk->pc", V, Atb)

    # Error scales: ||A||_F^2 is the trace, t_sum the centred ||t_i|| + ||t_j||.
    trace = np.trace(AtA, axis1=1, axis2=2)
    t_sum = np.sqrt(Bii[:, 3, 3]) + np.sqrt(Bjj[:, 3, 3])
    Atb_norm = np.linalg.norm(Atb, axis=1)
    err_Atb = gamma * np.sqrt(trace) * t_sum + u * Atb_norm
    err_btb = (gamma + 3 * u) * t_sum**2
    eta = (gamma + EIG_ERR * u) * trace  # 2-norm error of A^T A as eigh sees it

    with np.errstate(divide="ignore", invalid="ignore"):
        # The per-pair SVD finds each s_k within rho.  Keep k if it is kept
        # at the worst of every error, drop it if it is dropped at the best.
        rho = svd_err * np.sqrt(trace)[:, None]
        s_lo = np.sqrt(np.maximum(lam - eta[:, None], 0.0)) - rho
        s_hi = np.sqrt(np.maximum(lam + eta[:, None], 0.0)) + rho
        first = np.arange(6) == 0
        keep = kept_directions(np.where(first, s_hi, s_lo), rank_tol)
        certain = (keep == kept_directions(np.where(first, s_lo, s_hi), rank_tol)).all(1)

        dropped = ~keep.all(1)
        lam_kept = np.where(keep, lam, np.inf).min(1)
        lam_drop = np.where(dropped, np.where(keep, -np.inf, lam).max(1), 0.0)
        turn = np.where(dropped, eta / (lam_kept - eta - lam_drop), 0.0)  # Davis-Kahan
        safe = np.where(keep, lam, 1.0)
        fitted = np.where(keep, proj**2 / safe, 0.0).sum(1)
        x_norm = np.sqrt(np.where(keep, (proj / safe) ** 2, 0.0).sum(1))
        outside = np.sqrt(np.where(keep, 0.0, proj**2).sum(1)) + turn * Atb_norm + err_Atb

        # X bounds the solution norm of the exact and of the computed system;
        # err_fit follows from both being maximizers of 2 g.x - x.Mx.
        shrink = 1.0 - eta / lam_kept - turn
        X = (x_norm + (outside + err_Atb) / lam_kept) / shrink
        err_fit = (
            2 * err_Atb * X
            + eta * X**2
            + 2 * turn * X * (outside + err_Atb + eta * X)
            + (np.maximum(lam_drop, 0.0) + eta) * (turn * X) ** 2
            + 5 * (EIG_ERR + 6) * u * Atb_norm * X
            + 8 * u * (btb + fitted)
        )
        eps2 = np.maximum(btb - fitted, 0.0) / n
        bound = SAFETY * (err_btb + err_fit) / n

        # The SVD route's own error in epsilon (its residual moves with
        # cond times its backward error), plus the rounding of the centring.
        gap = np.sqrt(np.maximum(lam_kept - eta, 0.0)) - np.where(
            dropped, np.sqrt(np.maximum(lam_drop, 0.0) + eta), 0.0
        )
        cond = np.sqrt(lam[:, 0] + eta) / gap
        b_norm = np.sqrt(np.maximum(btb, 0.0) + err_btb)
        shift = SAFETY * (
            u * t_sum + svd_err * ((2 + cond) * b_norm + np.sqrt(trace) * X)
        ) / np.sqrt(n)
        bound += 2 * shift * np.sqrt(eps2 + bound) + shift**2
        usable = certain & (shrink >= 0.5) & (gap > 0) & np.isfinite(bound)

    eps = np.full((m, m), np.nan)
    eps[i, j] = eps[j, i] = np.sqrt(eps2)
    out = np.full((m, m), np.nan)
    out[i, j] = out[j, i] = np.where(usable, bound, np.inf)
    return eps, out


@dataclass(frozen=True)
class HierarchyResult:
    """Oriented spanning tree over the bodies.

    parent maps each body to its parent index, with None standing for
    the world frame (only the root maps to None); the root is its first key.
    """

    parent: dict[int, Optional[int]]
    tree_edges: list[tuple[int, int]]
    total_epsilon: float
    unused_low_error_edges: list[tuple[int, int, float]]


def infer_hierarchy(fits: FitMatrix, root: Optional[int] = None) -> HierarchyResult:
    """Minimum spanning tree over the fit errors, oriented from a root.

    root defaults to body 0.  Prim's algorithm under the strict edge
    order (epsilon, i, j), i < j, so the tree is unique and identical
    across platforms and roots.  Non-tree edges with error at most
    DEFAULT_LOOP_FACTOR times the largest tree-edge error are returned
    as possible unmodeled loops.
    """
    m = len(fits.epsilon)
    if not fits.is_complete():
        raise IncompleteMatrixError("fit matrix has missing entries")
    if root is None:
        root = 0
    if not 0 <= root < m:
        raise ValueError(f"root index {root} out of range 0..{m - 1}")

    tree = _spanning_tree(fits.epsilon, root)
    edges = sorted((min(b, p), max(b, p)) for b, p in tree.items() if p is not None)
    weights = sorted(float(fits.epsilon[e]) for e in edges)
    total = math.fsum(weights)
    threshold = DEFAULT_LOOP_FACTOR * weights[-1] if weights else 0.0
    i, j = np.triu_indices(m, 1)
    low = np.flatnonzero(fits.epsilon[i, j] <= threshold)
    low_edges = sorted((float(fits.epsilon[i[k], j[k]]), int(i[k]), int(j[k])) for k in low)
    in_tree = set(edges)

    return HierarchyResult(
        parent={b: tree[b] for b in tree_order(tree)},
        tree_edges=edges,
        total_epsilon=total,
        unused_low_error_edges=[(a, b, w) for w, a, b in low_edges if (a, b) not in in_tree],
    )


def _spanning_tree(weights: np.ndarray, root: int) -> dict[int, Optional[int]]:
    """{body: parent} of the minimum spanning tree of the complete graph.

    Prim's algorithm from root on the ranks of the edges (i, j), i < j,
    under the strict order (weights[i, j], i, j).  The ranks are
    distinct, so the tree is unique: the one Kruskal's algorithm builds
    under that order, whatever the root.  The diagonal is not read.
    """
    m = weights.shape[0]
    i, j = np.triu_indices(m, 1)
    order = np.lexsort((j, i, weights[i, j]))
    rank = np.full((m, m), len(order))
    rank[i[order], j[order]] = rank[j[order], i[order]] = np.arange(len(order))

    parent: dict[int, Optional[int]] = {root: None}
    reached = np.zeros(m, dtype=bool)
    reached[root] = True
    nearest = rank[root].copy()  # the best rank joining each body to the tree
    link = np.full(m, root)  # the tree body at the other end of that edge
    for _ in range(m - 1):
        k = int(np.argmin(np.where(reached, len(order), nearest)))
        parent[k] = int(link[k])
        reached[k] = True
        closer = rank[k] < nearest
        nearest[closer] = rank[k, closer]
        link[closer] = k
    return parent


def tree_order(parent: Mapping[int, Optional[int]]) -> list[int]:
    """The bodies of a parent map, root first, breadth-first, children in index order.

    Raises ValueError naming the body at fault unless exactly one body
    maps to None and every other body reaches that root through parents
    that are themselves bodies of the map.
    """
    roots = [b for b, p in parent.items() if p is None]
    if len(roots) != 1:
        raise ValueError(f"parent map must have exactly one root, found {roots}")
    children: dict[int, list[int]] = {b: [] for b in parent}
    for body, p in parent.items():
        if p is None:
            continue
        if p not in children:
            raise ValueError(f"body {body}: parent {p} out of range (not in the map)")
        children[p].append(body)
    order = [roots[0]]
    for body in order:  # each body is one parent's child, so none is reached twice
        order.extend(sorted(children[body]))
    if len(order) < len(parent):
        body = min(set(parent) - set(order))
        raise ValueError(f"body {body} does not chain to the root (parent cycle)")
    return order


def write_fit_matrix_csv(path, fits: FitMatrix):
    """Write one `body_i,body_j,epsilon_m` row per pair; OSError if it cannot be written."""
    m = len(fits.epsilon)
    rows = ([i, j, repr(float(fits.epsilon[i, j]))] for i in range(m) for j in range(i + 1, m))
    write_csv(path, "body_i,body_j,epsilon_m", rows)


def load_parent_map(path) -> dict[int, Optional[int]]:
    """Read a `body,parent` CSV; the root row leaves parent empty or 'world'.

    Whether the rows form one tree is left to tree_order.
    """
    parent: dict[int, Optional[int]] = {}
    with closing(csv_records(path, "body,parent")) as records:
        for number, row in records:
            if len(row) > 2:
                raise ParseError(f"{path}, row {number}: expected 2 fields, got {len(row)}")
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
    """Write a `body,parent` CSV, the root's parent as 'world'; OSError if it cannot be written."""
    rows = ([body, "world" if parent[body] is None else parent[body]] for body in sorted(parent))
    write_csv(path, "body,parent", rows)
