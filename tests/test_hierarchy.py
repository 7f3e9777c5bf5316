"""All-pairs fit matrix and spanning-tree hierarchy inference."""
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from skelfit import hierarchy
from skelfit.capture import BodyTrack, CaptureSession
from skelfit.errors import DegenerateInputError, IncompleteMatrixError, ParseError
from skelfit.hierarchy import (
    DEFAULT_LOOP_FACTOR,
    FitMatrix,
    build_fit_matrix,
    gram_epsilon,
    infer_hierarchy,
    load_parent_map,
    tree_order,
    write_fit_matrix_csv,
    write_parent_map,
)
from skelfit.solver import DEFAULT_RANK_TOL, NOISELESS_RANK_TOL, Classification, solve_joint
from skelfit.synth import (
    Excitation,
    NoiseSpec,
    RootMotion,
    SynthBody,
    SynthSpec,
    figure16_spec,
    generate,
    linkage_spec,
)


from conftest import all_labeled_trees as all_trees


def random_weight_matrix(rng, m):
    W = rng.uniform(0.1, 10.0, size=(m, m))
    W = (W + W.T) / 2.0
    np.fill_diagonal(W, np.nan)
    return W


def weight_only_matrix(W):
    return FitMatrix(epsilon=W)


class TestEnumerationOracle:
    def test_prufer_decode_is_a_bijection(self):
        trees = all_trees(5)
        assert len(trees) == 125
        assert len({frozenset(f"{i}-{j}" for i, j in t) for t in trees}) == 125
        for t in trees:
            assert len(t) == 4

    def test_mst_matches_exhaustive_minimum(self):
        trees = all_trees(5)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            W = random_weight_matrix(rng, 5)
            best = min(math.fsum(sorted(W[i, j] for i, j in t)) for t in trees)
            result = infer_hierarchy(weight_only_matrix(W))
            assert result.total_epsilon == pytest.approx(best, rel=1e-12)

    def test_mst_edges_match_unique_minimizer(self):
        trees = all_trees(5)
        rng = np.random.default_rng(424)
        W = random_weight_matrix(rng, 5)
        totals = [(math.fsum(sorted(W[i, j] for i, j in t)), t) for t in trees]
        totals.sort(key=lambda x: x[0])
        assert totals[1][0] - totals[0][0] > 1e-9
        result = infer_hierarchy(weight_only_matrix(W))
        assert sorted(result.tree_edges) == sorted(totals[0][1])


class TestDeterminism:
    def test_equal_weights_pick_lexicographic_star(self):
        W = np.ones((4, 4))
        np.fill_diagonal(W, np.nan)
        result = infer_hierarchy(weight_only_matrix(W))
        assert result.tree_edges == [(0, 1), (0, 2), (0, 3)]
        assert result.parent == {0: None, 1: 0, 2: 0, 3: 0}

    @pytest.mark.parametrize("m", [5, 6])
    def test_ties_pick_the_lexicographically_least_tree(self, m):
        # with every edge ranked by (w, i, j), the minimum spanning tree is
        # the one whose sorted edge ranks are lexicographically least
        trees = all_trees(m)
        i, j = np.triu_indices(m, 1)
        rng = np.random.default_rng(m)
        for _ in range(10):
            W = np.full((m, m), np.nan)
            W[i, j] = W[j, i] = rng.choice([0.0, -0.0, 1.0, 2.0], size=len(i))
            best = min(trees, key=lambda t: sorted((float(W[a, b]), a, b) for a, b in t))
            for root in range(m):
                result = infer_hierarchy(weight_only_matrix(W), root=root)
                assert result.tree_edges == sorted(best)

    def test_repeat_runs_identical(self):
        rng = np.random.default_rng(77)
        W = random_weight_matrix(rng, 6)
        a = infer_hierarchy(weight_only_matrix(W))
        b = infer_hierarchy(weight_only_matrix(W.copy()))
        assert a.tree_edges == b.tree_edges
        assert a.parent == b.parent
        assert a.total_epsilon == b.total_epsilon


class TestInvariances:
    def test_relabeling_preserves_total(self):
        rng = np.random.default_rng(88)
        W = random_weight_matrix(rng, 6)
        base = infer_hierarchy(weight_only_matrix(W))
        perm = rng.permutation(6)
        P = np.eye(6)[perm]
        Wp = P @ np.nan_to_num(W, nan=0.0) @ P.T
        np.fill_diagonal(Wp, np.nan)
        permuted = infer_hierarchy(weight_only_matrix(Wp))
        assert permuted.total_epsilon == pytest.approx(base.total_epsilon, rel=1e-12)

    def test_scaling_preserves_edges(self):
        rng = np.random.default_rng(89)
        W = random_weight_matrix(rng, 5)
        base = infer_hierarchy(weight_only_matrix(W))
        scaled = infer_hierarchy(weight_only_matrix(W * 5.0))
        assert scaled.tree_edges == base.tree_edges
        assert scaled.total_epsilon == pytest.approx(5.0 * base.total_epsilon, rel=1e-12)

    def test_rerooting_keeps_edges_and_total(self):
        rng = np.random.default_rng(90)
        W = random_weight_matrix(rng, 6)
        at0 = infer_hierarchy(weight_only_matrix(W), root=0)
        at3 = infer_hierarchy(weight_only_matrix(W), root=3)
        assert at3.tree_edges == at0.tree_edges
        assert at3.total_epsilon == at0.total_epsilon
        assert at3.parent[3] is None
        # orientation stays a valid tree: every body reaches the root
        for i in range(6):
            seen = set()
            node = i
            while at3.parent[node] is not None:
                assert node not in seen
                seen.add(node)
                node = at3.parent[node]
            assert node == 3


class TestLoopEdges:
    def W(self, w12):
        W = np.array(
            [
                [np.nan, 1.0, 2.0],
                [1.0, np.nan, w12],
                [2.0, w12, np.nan],
            ]
        )
        return weight_only_matrix(W)

    def test_near_tree_edge_reported(self):
        result = infer_hierarchy(self.W(3.5))
        assert result.tree_edges == [(0, 1), (0, 2)]
        assert result.unused_low_error_edges == [(1, 2, 3.5)]

    def test_edge_beyond_factor_dropped(self):
        # the largest tree edge is 2.0, so the cutoff is 2.0 * 2.0
        assert DEFAULT_LOOP_FACTOR == 2.0
        assert infer_hierarchy(self.W(4.0)).unused_low_error_edges == [(1, 2, 4.0)]
        assert infer_hierarchy(self.W(4.5)).unused_low_error_edges == []

    def test_report_sorted_by_weight(self):
        W = np.full((4, 4), 10.0)
        W[0, 1] = W[1, 0] = 1.0
        W[0, 2] = W[2, 0] = 1.1
        W[0, 3] = W[3, 0] = 1.2
        W[1, 2] = W[2, 1] = 1.4
        W[1, 3] = W[3, 1] = 1.3
        np.fill_diagonal(W, np.nan)
        result = infer_hierarchy(weight_only_matrix(W))
        assert result.unused_low_error_edges == [(1, 3, 1.3), (1, 2, 1.4)]


class TestValidation:
    def test_missing_entry_rejected(self):
        W = random_weight_matrix(np.random.default_rng(91), 4)
        W[1, 3] = W[3, 1] = np.nan
        assert not weight_only_matrix(W).is_complete()
        with pytest.raises(IncompleteMatrixError):
            infer_hierarchy(weight_only_matrix(W))

    def test_root_out_of_range(self):
        W = random_weight_matrix(np.random.default_rng(92), 3)
        with pytest.raises(ValueError):
            infer_hierarchy(weight_only_matrix(W), root=3)

    def test_two_bodies(self):
        W = np.array([[np.nan, 0.25], [0.25, np.nan]])
        result = infer_hierarchy(weight_only_matrix(W))
        assert result.tree_edges == [(0, 1)]
        assert result.parent == {0: None, 1: 0}
        assert result.total_epsilon == pytest.approx(0.25)


@pytest.fixture(scope="module")
def noiseless():
    spec = linkage_spec(frames=300, seed=33, sigma_t=0.0, sigma_r=0.0)
    session, truth = generate(spec)
    fits = build_fit_matrix(session, rank_tol=NOISELESS_RANK_TOL)
    return spec, session, truth, fits


def parent_map_of(model):
    out = {model.root: None}
    out.update({body: joint.parent for body, joint in model.joints.items()})
    return out


class TestFitMatrixFromSession:
    def test_matrix_is_symmetric_and_complete(self, noiseless):
        _, _, _, fits = noiseless
        W = fits.epsilon
        assert len(fits.epsilon) == 6
        assert np.isnan(np.diag(W)).all()
        off = ~np.eye(6, dtype=bool)
        assert np.array_equal(W[off], W.T[off])
        assert fits.is_complete()

    def test_true_edges_separate_from_rest(self, noiseless):
        _, _, truth, fits = noiseless
        true_edges = {
            (min(b, p), max(b, p))
            for b, p in parent_map_of(truth).items()
            if p is not None
        }
        W = fits.epsilon
        edge_eps = [W[i, j] for i, j in true_edges]
        other_eps = [
            W[i, j]
            for i in range(6)
            for j in range(i + 1, 6)
            if (i, j) not in true_edges
        ]
        assert max(edge_eps) < 1e-9
        assert min(other_eps) > 1e-4

    def test_inferred_hierarchy_matches_truth(self, noiseless):
        _, _, truth, fits = noiseless
        result = infer_hierarchy(fits)
        assert result.parent == parent_map_of(truth)

    def test_degenerate_pair_names_the_pair(self):
        spec = linkage_spec(frames=1, seed=34, sigma_t=0.0, sigma_r=0.0)
        session, _ = generate(spec)
        with pytest.raises(DegenerateInputError, match=r"pair \(0, 1\)"):
            build_fit_matrix(session)


def hinged_figure16(frames, seed):
    """figure16 with elbows and knees as hinges and tracker noise."""
    spec = figure16_spec(frames=frames, seed=seed)
    hinge = Excitation(kind="hinge", axis=(1.0, 0.0, 0.0), max_angle=1.2)
    bodies = tuple(
        replace(b, excitation=hinge) if b.body_id in (5, 8, 11, 14) else b for b in spec.bodies
    )
    return replace(spec, bodies=bodies, noise=NoiseSpec(sigma_t=0.001, sigma_r=0.003))


def random_tree_spec(bodies, frames, seed):
    """Seeded noiseless random tree: every 4th joint a hinge, the rest cones."""
    rng = np.random.default_rng(seed)
    out = [SynthBody(0, None)]
    for i in range(1, bodies):
        parent = int(rng.integers(0, i))
        c, l = rng.uniform(-0.2, 0.2, size=(2, 3))
        if i % 4 == 0:
            exc = Excitation(kind="hinge", axis=rng.normal(size=3), max_angle=1.2)
        else:
            exc = Excitation(kind="spherical", max_angle=1.2)
        out.append(SynthBody(i, parent, c=c, l=l, excitation=exc))
    return SynthSpec(
        bodies=tuple(out),
        frame_count=frames,
        seed=seed,
        root_motion=RootMotion(kind="random", translation_scale=1.0),
    )


def scaled_rotations(session, factor):
    """The session with every rotation scaled, so R^T R is not the identity."""
    tracks = tuple(
        BodyTrack(b.body_id, b.rotations * factor, b.translations) for b in session.bodies
    )
    return CaptureSession(tracks, session.frame_count)


def per_pair_table(session, rank_tol):
    """The epsilon table from one solve_joint per pair, as it was first built."""
    m = session.body_count
    W = np.full((m, m), np.nan)
    for i in range(m):
        for j in range(i + 1, m):
            W[i, j] = W[j, i] = solve_joint(session, i, j, rank_tol).epsilon
    return W


@pytest.fixture(scope="module")
def oracle_sessions():
    tree = generate(random_tree_spec(24, 300, 5))[0]
    return {
        "linkage-noiseless": generate(
            linkage_spec(frames=300, seed=33, sigma_t=0.0, sigma_r=0.0)
        )[0],
        "figure16-hinged-noisy": generate(hinged_figure16(400, 3))[0],
        "tree24": tree,
        "tree24-scaled": scaled_rotations(tree, 1.002),
    }


SESSION_NAMES = ["linkage-noiseless", "figure16-hinged-noisy", "tree24", "tree24-scaled"]
RANK_TOLS = [DEFAULT_RANK_TOL, NOISELESS_RANK_TOL]


class TestGramEpsilonOracle:
    """The Gram-matrix estimate against solve_joint, before any exact re-solve."""

    @pytest.mark.parametrize("rank_tol", RANK_TOLS)
    @pytest.mark.parametrize("name", SESSION_NAMES)
    def test_bound_covers_per_pair_svd(self, oracle_sessions, name, rank_tol):
        session = oracle_sessions[name]
        eps, bound = gram_epsilon(session, rank_tol)
        exact = per_pair_table(session, rank_tol)
        off = ~np.eye(session.body_count, dtype=bool)
        usable = off & np.isfinite(bound)
        assert np.array_equal(eps[off], eps.T[off])
        assert np.array_equal(bound, bound.T, equal_nan=True)
        assert (bound[off] > 0).all()
        assert np.all(np.abs(exact**2 - eps**2)[usable] <= bound[usable])
        # most pairs get a usable bound; the rest are left to solve_joint
        assert usable.sum() >= 0.9 * off.sum()

    @pytest.mark.parametrize("name", SESSION_NAMES)
    def test_noiseless_tol_sends_every_dropped_direction_to_the_svd(self, oracle_sessions, name):
        session = oracle_sessions[name]
        _, bound = gram_epsilon(session, NOISELESS_RANK_TOL)
        m = session.body_count
        for i in range(m):
            for j in range(i + 1, m):
                fit = solve_joint(session, i, j, NOISELESS_RANK_TOL)
                if fit.classification is not Classification.SPHERICAL:
                    assert bound[i, j] == np.inf, (i, j)

    def test_cutoff_at_a_pairs_own_ratio_is_uncertain(self, oracle_sessions):
        session = oracle_sessions["figure16-hinged-noisy"]
        s = solve_joint(session, 5, 4).singular_values
        _, bound = gram_epsilon(session, rank_tol=float(s[-1] / s[0]))
        assert bound[4, 5] == bound[5, 4] == np.inf

    def test_noiseless_error_is_rounding_level(self, oracle_sessions):
        eps, _ = gram_epsilon(oracle_sessions["linkage-noiseless"], NOISELESS_RANK_TOL)
        exact = per_pair_table(oracle_sessions["linkage-noiseless"], NOISELESS_RANK_TOL)
        off = ~np.eye(6, dtype=bool)
        assert np.max(np.abs(eps - exact)[off]) < 1e-7


class TestBuildFitMatrixCertified:
    """The built table gives the per-pair SVD's tree, warnings and tree epsilons."""

    def counted(self, monkeypatch):
        calls = []

        def counting_solve(session, child, parent, *args, **kwargs):
            calls.append((child, parent))
            return solve_joint(session, child, parent, *args, **kwargs)

        monkeypatch.setattr(hierarchy, "solve_joint", counting_solve)
        return calls

    def assert_same_inference(self, fits, table):
        for root in (None, 1):
            got, want = infer_hierarchy(fits, root), infer_hierarchy(FitMatrix(table), root)
            assert got.parent == want.parent
            assert got.tree_edges == want.tree_edges
            assert got.total_epsilon == want.total_epsilon
            assert got.unused_low_error_edges == want.unused_low_error_edges

    @pytest.mark.parametrize("rank_tol", RANK_TOLS)
    @pytest.mark.parametrize("name", SESSION_NAMES)
    def test_matches_per_pair_svd(self, oracle_sessions, monkeypatch, name, rank_tol):
        session = oracle_sessions[name]
        calls = self.counted(monkeypatch)
        fits = build_fit_matrix(session, rank_tol)
        table = per_pair_table(session, rank_tol)
        self.assert_same_inference(fits, table)
        # solved entries, the tree edges among them, equal solve_joint bit for bit
        tree = infer_hierarchy(fits).tree_edges
        assert set(tree) <= set(calls)
        for i, j in calls:
            assert i < j and fits.epsilon[i, j] == fits.epsilon[j, i] == table[i, j]
        # every other entry is the estimate, within its bound
        eps, bound = gram_epsilon(session, rank_tol)
        for i, j in zip(*np.triu_indices(session.body_count, 1)):
            if (i, j) not in calls:
                assert fits.epsilon[i, j] == eps[i, j]
                assert abs(table[i, j] ** 2 - eps[i, j] ** 2) <= bound[i, j]

    def test_only_tree_edges_solved_on_a_clear_tree(self, oracle_sessions, monkeypatch):
        session = oracle_sessions["tree24"]
        calls = self.counted(monkeypatch)
        fits = build_fit_matrix(session)
        assert sorted(calls) == infer_hierarchy(fits).tree_edges

    def test_wide_bounds_solved_before_tau(self, monkeypatch):
        # at a tiny noise level and the noiseless cutoff, the hinges keep a
        # tiny eigenvalue: their bounds are finite but wide, and left in the
        # spanning tree of hi they would raise tau over most pairs
        spec = replace(hinged_figure16(400, 3), noise=NoiseSpec(sigma_t=1e-6, sigma_r=1e-6))
        session, _ = generate(spec)
        calls = self.counted(monkeypatch)
        fits = build_fit_matrix(session, NOISELESS_RANK_TOL)
        assert sorted(calls) == infer_hierarchy(fits).tree_edges
        self.assert_same_inference(fits, per_pair_table(session, NOISELESS_RANK_TOL))

    def head_held_rigid(self, **noise):
        # the head is held rigid to the torso, which has jointed arms, so the
        # head-arm pairs fit as well as the torso-arm joints
        spec = linkage_spec(frames=300, seed=35, **noise)
        held = replace(spec.bodies[1], excitation=Excitation(kind="rigid"))
        session, _ = generate(replace(spec, bodies=(spec.bodies[0], held, *spec.bodies[2:])))
        return session, per_pair_table(session, DEFAULT_RANK_TOL)

    def test_rounding_level_tie_solved_exactly(self, monkeypatch):
        session, table = self.head_held_rigid(sigma_t=0.0, sigma_r=0.0)
        assert max(table[0, 1], table[0, 2], table[1, 2]) < 1e-12
        calls = self.counted(monkeypatch)
        fits = build_fit_matrix(session)
        assert {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)} <= set(calls)
        self.assert_same_inference(fits, table)

    def test_loop_warnings_solved_exactly(self, monkeypatch):
        session, table = self.head_held_rigid()
        want = infer_hierarchy(FitMatrix(table)).unused_low_error_edges
        assert [(i, j) for i, j, _ in want] == [(1, 3), (1, 2)]
        calls = self.counted(monkeypatch)
        fits = build_fit_matrix(session)
        assert {(1, 2), (1, 3)} <= set(calls)
        self.assert_same_inference(fits, table)

    def test_bad_rank_tol_rejected(self, oracle_sessions):
        with pytest.raises(ValueError, match="rank_tol"):
            build_fit_matrix(oracle_sessions["tree24"], rank_tol=1.5)


def reaches_root_in_m_steps(parent) -> bool:
    """Independent tree check: one None, and from every body the parents
    lead to it within m steps."""
    roots = [b for b, p in parent.items() if p is None]
    if len(roots) != 1:
        return False
    for body in parent:
        node = body
        for _ in range(len(parent)):
            if node == roots[0] or node not in parent:
                break
            node = parent[node]
        if node != roots[0]:
            return False
    return True


def path_from_root(parent, body) -> list:
    path = [body]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def orient(edges, root) -> dict:
    """Parent map of an undirected tree, grown edge by edge from root."""
    parent = {root: None}
    while len(parent) <= len(edges):
        for i, j in edges:
            if i in parent and j not in parent:
                parent[j] = i
            elif j in parent and i not in parent:
                parent[i] = j
    return parent


class TestTreeOrder:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_exhaustive_oracle(self, m):
        # each body maps to None, to any body (itself included), or to m,
        # which is not a body of the map
        accepted = 0
        for parents in itertools.product([None, *range(m + 1)], repeat=m):
            parent = dict(enumerate(parents))
            if not reaches_root_in_m_steps(parent):
                with pytest.raises(ValueError):
                    tree_order(parent)
                continue
            accepted += 1
            order = tree_order(parent)
            assert sorted(order) == list(range(m))
            assert parent[order[0]] is None
            position = {b: k for k, b in enumerate(order)}
            assert all(position[parent[b]] < position[b] for b in order[1:])
            # breadth-first with children in index order: by depth, then
            # by the root-to-body path
            paths = {b: path_from_root(parent, b) for b in order}
            assert order == sorted(order, key=lambda b: (len(paths[b]), paths[b]))
        # Cayley: m^(m-1) rooted labeled trees
        assert accepted == m ** (m - 1)

    def test_every_labeled_tree_at_every_root(self):
        for edges in all_trees(5):
            for root in range(5):
                parent = orient(edges, root)
                order = tree_order(parent)
                assert order[0] == root
                assert sorted(order) == list(range(5))
                position = {b: k for k, b in enumerate(order)}
                assert all(position[parent[b]] < position[b] for b in order[1:])

    def test_inferred_map_is_already_in_tree_order(self):
        W = random_weight_matrix(np.random.default_rng(95), 7)
        for root in range(7):
            parent = infer_hierarchy(weight_only_matrix(W), root=root).parent
            assert list(parent) == tree_order(parent)

    @pytest.mark.parametrize(
        "parent, message",
        [
            ({0: None, 1: None}, r"exactly one root, found \[0, 1\]"),
            ({0: 1, 1: 0}, r"exactly one root, found \[\]"),
            ({0: None, 1: 0, 2: 9}, "body 2: parent 9 out of range"),
            ({0: None, 1: 2, 2: 1, 3: 1}, "body 1 does not chain to the root .*cycle"),
            ({0: None, 1: 1}, "body 1 does not chain"),
        ],
        ids=["two-roots", "no-root", "unknown-parent", "cycle", "self-parent"],
    )
    def test_message_names_the_fault(self, parent, message):
        with pytest.raises(ValueError, match=message):
            tree_order(parent)


class TestSerialization:
    def test_fit_matrix_csv(self, tmp_path):
        W = random_weight_matrix(np.random.default_rng(94), 3)
        path = tmp_path / "fits.csv"
        write_fit_matrix_csv(path, weight_only_matrix(W))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "body_i,body_j,epsilon_m"
        assert len(lines) == 4
        for line in lines[1:]:
            i, j, eps = line.split(",")
            assert float(eps) == pytest.approx(W[int(i), int(j)], rel=1e-12)

    def test_parent_map_round_trip(self, tmp_path):
        parent = {0: None, 1: 0, 2: 0, 3: 2}
        path = tmp_path / "parents.csv"
        write_parent_map(path, parent)
        assert load_parent_map(path) == parent
        text = path.read_text()
        assert "world" in text

    def test_parent_map_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("body,parent\n0,world\nx,0\n")
        with pytest.raises(ParseError, match="row 3"):
            load_parent_map(path)

    def test_parent_map_row_with_extra_field(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text("body,parent\n0,world\n1,0\n4,2,junk\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}, row 4: expected 2 fields")):
            load_parent_map(path)

    def test_parent_map_one_field_row_is_the_root(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("body,parent\n0\n1,0\n")
        assert load_parent_map(path) == {0: None, 1: 0}
