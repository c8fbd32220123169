"""Graph model, shortest paths, enumeration, sampling, and file formats."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphbo
from graphbo import (
    DomainSpec,
    LinearRow,
    build_graph,
    domain_feasible,
    enumerate_domain,
    floyd_warshall,
    is_connected,
    sample_feasible,
)
from graphbo.errors import (
    AsymmetricUndirectedError,
    BadOneHotError,
    DisconnectedError,
    DomainTooLargeError,
    InvalidSizeBoundsError,
    NonSquareError,
    SamplingExhaustedError,
    SelfLoopError,
)

from conftest import bfs_distances, complete_graph, path_graph, random_connected_adjacency, random_graph


class TestBuildGraph:
    def test_single_node(self):
        g = build_graph([[0]], [[1]], directed=False, num_labels=1)
        assert g.n == 1 and g.num_features == 1

    def test_two_node_edge(self):
        g = build_graph([[0, 1], [1, 0]], [[1, 0], [0, 1]], False, 2)
        assert g.edges() == [(0, 1)]

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            build_graph([[0, 0], [0, 0]], [[1], [1]], False, 1)

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            build_graph([[0, 1, 0], [1, 0, 0]], [[1], [1]], False, 1)

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph([[1, 1], [1, 0]], [[1], [1]], False, 1)

    def test_asymmetric_undirected(self):
        with pytest.raises(AsymmetricUndirectedError):
            build_graph([[0, 1], [0, 0]], [[1], [1]], False, 1)

    def test_bad_one_hot(self):
        with pytest.raises(BadOneHotError):
            build_graph([[0, 1], [1, 0]], [[1, 1], [0, 1]], False, 2)
        with pytest.raises(BadOneHotError):
            build_graph([[0, 1], [1, 0]], [[0, 0], [0, 1]], False, 2)

    def test_directed_2cycle(self):
        g = build_graph([[0, 1], [1, 0]], [[1], [1]], True, 1)
        assert g.directed

    def test_directed_single_arc_rejected(self):
        with pytest.raises(DisconnectedError):
            build_graph([[0, 1], [0, 0]], [[1], [1]], True, 1)


class TestFloydWarshall:
    def test_path_midpoint(self):
        g = path_graph(3)
        dist, on_path = floyd_warshall(g)
        assert dist[0, 2] == 2
        assert on_path[0, 2, 1] == 1

    def test_triangle_no_interior(self):
        g = complete_graph(3)
        dist, on_path = floyd_warshall(g)
        assert all(dist[u, v] == 1 for u in range(3) for v in range(3) if u != v)
        assert on_path[0, 1, 2] == 0

    def test_diagonal_convention(self):
        g = path_graph(4)
        _, on_path = floyd_warshall(g)
        for v in range(4):
            for w in range(4):
                assert on_path[v, v, w] == (1 if w == v else 0)

    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_bfs_oracle(self, rng, directed):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            adjacency = random_connected_adjacency(rng, n, directed)
            features = np.ones((n, 1), dtype=int)
            g = build_graph(adjacency, features, directed, 1)
            dist, _ = floyd_warshall(g)
            assert np.array_equal(dist, bfs_distances(adjacency, directed))


class TestSummaries:
    def test_k2(self):
        s = complete_graph(2).summary
        assert s.length_counts.tolist() == [2, 2]

    def test_p4_profile(self):
        s = path_graph(4).summary
        assert s.length_counts.tolist() == [4, 6, 4, 2]

    def test_k2_labeled_counts(self):
        g = complete_graph(2, num_labels=2, labels=[0, 1])
        p = g.summary.labeled_counts
        assert p[1, 0, 1] == 1 and p[1, 1, 0] == 1
        assert p[0, 0, 0] == 1 and p[0, 1, 1] == 1
        assert p.sum() == 4

    def test_feature_sums(self):
        g = complete_graph(2, num_labels=2, labels=[0, 1])
        assert g.summary.feature_sums.tolist() == [1, 1]

    @given(st.integers(0, 2 ** 15 - 1), st.integers(3, 6))
    @settings(max_examples=60, deadline=None)
    def test_count_identities(self, bits, n):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        adjacency = np.zeros((n, n), dtype=int)
        for i, (u, v) in enumerate(pairs):
            adjacency[u, v] = adjacency[v, u] = (bits >> i) & 1
        if not is_connected(adjacency, False):
            return
        g = build_graph(adjacency, np.ones((n, 1), dtype=int), False, 1)
        counts = g.summary.length_counts
        assert counts.sum() == n * n
        assert counts[0] == n
        # undirected: every count at length >= 1 is even
        assert all(c % 2 == 0 for c in counts[1:])

    def test_labeled_count_symmetry_undirected(self, rng):
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(2, 7)), num_labels=3)
            p = g.summary.labeled_counts
            assert np.array_equal(p, p.transpose(0, 2, 1))

    def test_labeled_counts_sum_to_length_counts(self, rng):
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 7)), num_labels=2)
            s = g.summary
            assert np.array_equal(s.labeled_counts.sum(axis=(1, 2)), s.length_counts)

    def test_unit_distance_iff_edge(self, rng):
        for directed in (False, True):
            for _ in range(20):
                g = random_graph(rng, int(rng.integers(2, 7)), directed=directed)
                dist = g.summary.dist
                off = ~np.eye(g.n, dtype=bool)
                assert np.array_equal((dist == 1) & off, (g.adjacency == 1) & off)
                assert np.array_equal(np.diag(dist), np.zeros(g.n, dtype=int))


class TestIsConnected:
    def test_directed_cycle(self):
        assert is_connected(np.array([[0, 1], [1, 0]]), True)

    def test_directed_single_arc(self):
        assert not is_connected(np.array([[0, 1], [0, 0]]), True)

    def test_all_three_node_digraphs(self):
        pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
        expected = 0
        got = 0
        for bits in itertools.product((0, 1), repeat=6):
            adjacency = np.zeros((3, 3), dtype=int)
            for (u, v), b in zip(pairs, bits):
                adjacency[u, v] = b
            # oracle: reachability closure in both directions
            reach = np.eye(3, dtype=bool) | (adjacency > 0)
            for _ in range(3):
                reach = reach | (reach @ reach)
            strongly = bool(reach.all() and reach.T.all())
            expected += strongly
            got += is_connected(adjacency, True)
        assert got == expected == 18


class TestDomainSpec:
    def test_bounds_validation(self):
        with pytest.raises(InvalidSizeBoundsError):
            DomainSpec(n=2, n_min=3)
        with pytest.raises(InvalidSizeBoundsError):
            DomainSpec(n=2, num_labels=3, num_features=2)

    def test_round_trip(self):
        dom = DomainSpec(n=4, n_min=2, directed=True, num_labels=2,
                         num_features=3, degree_caps=(2, 3),
                         label_count_bounds=((0, 4), (1, 2)),
                         extra_rows=(LinearRow(adjacency=((0, 1, 1.0),),
                                               sense="<=", rhs=1.0),))
        assert DomainSpec.from_dict(dom.to_dict()) == dom

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            DomainSpec.from_dict({"n": 3, "color": "blue"})

    @pytest.mark.parametrize("row", [
        LinearRow(adjacency=((-1, 0, 1.0),)),
        LinearRow(adjacency=((0, 5, 1.0),)),
        LinearRow(adjacency=((1, 1, 1.0),)),
        LinearRow(features=((-1, 0, 1.0),)),
        LinearRow(features=((3, 0, 1.0),)),
        LinearRow(features=((0, 2, 1.0),)),
    ], ids=["negative_node", "node_past_n", "diagonal", "feature_negative_node",
            "feature_node_past_n", "feature_past_m"])
    def test_rows_outside_the_grid_rejected(self, row):
        # the enumerator would wrap -1 to node 2 or read node 5 as zero,
        # and the encoder has no variable for these entries
        with pytest.raises(InvalidSizeBoundsError):
            DomainSpec(n=3, num_labels=2, extra_rows=(row,))

    def test_rows_inside_the_grid_accepted(self):
        row = LinearRow(adjacency=((2, 0, 1.0),), features=((2, 1, 1.0),))
        assert DomainSpec(n=3, n_min=2, num_labels=2, extra_rows=(row,)).extra_rows == (row,)

    @pytest.mark.parametrize("entry", [
        {"adjacency": [[0.7, 1.9, 1]]},
        {"adjacency": [[0, 1.5, 1]]},
        {"features": [[1, 0.5, 1]]},
    ], ids=["both_fractional", "second_fractional", "feature_column"])
    def test_fractional_row_indices_rejected(self, entry):
        # int() would truncate [0.7, 1.9] onto pair (0, 1)
        with pytest.raises(ValueError, match="not an integer"):
            DomainSpec.from_dict({"n": 3, "num_labels": 2, "extra_rows": [entry]})

    def test_integral_float_row_indices_accepted(self):
        dom = DomainSpec.from_dict({"n": 3, "extra_rows": [{"adjacency": [[0.0, 1.0, 1]]}]})
        assert dom.extra_rows[0].adjacency == ((0, 1, 1.0),)


class TestEnumeration:
    @pytest.mark.parametrize("n,directed,expected", [
        (2, False, 1), (3, False, 4), (4, False, 38),
        (2, True, 1), (3, True, 18),
    ])
    def test_connected_counts(self, n, directed, expected):
        dom = DomainSpec(n=n, directed=directed, num_labels=1)
        assert sum(1 for _ in enumerate_domain(dom)) == expected

    def test_bounded_counts_sum_over_sizes(self):
        dom = DomainSpec(n=3, n_min=1, directed=True, num_labels=1)
        assert sum(1 for _ in enumerate_domain(dom)) == 1 + 1 + 18

    def test_label_multiplicity(self):
        dom = DomainSpec(n=3, num_labels=2)
        assert sum(1 for _ in enumerate_domain(dom)) == 4 * 2 ** 3

    def test_no_duplicates_and_valid(self):
        dom = DomainSpec(n=4, num_labels=2)
        seen = set()
        for g in enumerate_domain(dom):
            key = g.key()
            assert key not in seen
            seen.add(key)
            rebuilt = build_graph(g.adjacency, g.features, g.directed, g.num_labels)
            assert rebuilt == g

    def test_bit_guard(self):
        dom = DomainSpec(n=10, num_labels=1)
        with pytest.raises(DomainTooLargeError):
            next(enumerate_domain(dom))

    def test_extra_row_filtering(self):
        # forbid the 0-1 edge entirely
        dom = DomainSpec(n=3, num_labels=1,
                         extra_rows=(LinearRow(adjacency=((0, 1, 1.0),),
                                               sense="<=", rhs=0.0),))
        graphs = list(enumerate_domain(dom))
        assert all(g.adjacency[0, 1] == 0 for g in graphs)
        assert len(graphs) == 1  # only the path 0-2-1


class TestSampling:
    def test_single_node_domain(self):
        dom = DomainSpec(n=1, num_labels=1)
        g = sample_feasible(dom, seed=0)
        assert g.n == 1

    def test_deterministic(self):
        dom = DomainSpec(n=5, num_labels=2, num_features=3)
        assert sample_feasible(dom, seed=7) == sample_feasible(dom, seed=7)

    def test_validity_mass(self):
        dom = DomainSpec(n=4, num_labels=1)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            g = sample_feasible(dom, rng)
            assert is_connected(g.adjacency, g.directed)
            assert domain_feasible(dom, g)

    def test_directed_sampling(self):
        dom = DomainSpec(n=4, directed=True, num_labels=2)
        g = sample_feasible(dom, seed=5)
        assert g.directed and is_connected(g.adjacency, True)

    def test_bounded_sizes_covered(self):
        dom = DomainSpec(n=3, n_min=1, num_labels=1)
        rng = np.random.default_rng(0)
        sizes = {sample_feasible(dom, rng).n for _ in range(60)}
        assert sizes == {1, 2, 3}

    def test_exhaustion(self):
        # contradictory user row: edge 0-1 must be both on and off
        dom = DomainSpec(n=2, num_labels=1,
                         extra_rows=(LinearRow(adjacency=((0, 1, 1.0),),
                                               sense="<=", rhs=0.0),))
        with pytest.raises(SamplingExhaustedError):
            sample_feasible(dom, seed=0, attempts=50)

    def test_degree_caps_respected(self):
        dom = DomainSpec(n=4, num_labels=2, degree_caps=(2, 3))
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = sample_feasible(dom, rng)
            degrees = g.adjacency.sum(axis=0)
            caps = np.array([2, 3])[g.labels]
            assert (degrees <= caps).all()


class TestFiles:
    def test_graph_file_round_trip(self, tmp_path, rng):
        graphs = [random_graph(rng, int(rng.integers(1, 6)), num_labels=2,
                               num_features=3) for _ in range(5)]
        path = tmp_path / "graphs.jsonl"
        graphbo.write_graphs(path, graphs)
        loaded = graphbo.read_graphs(path)
        assert loaded == graphs

    def test_dataset_round_trip(self, tmp_path, rng):
        data = [(random_graph(rng, 3, num_labels=2), float(i)) for i in range(4)]
        path = tmp_path / "data.json"
        graphbo.write_dataset(path, data)
        graphs, y = graphbo.read_dataset(path)
        assert graphs == [g for g, _ in data]
        assert y.tolist() == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("edge", [[-1, 0], [1, 5], [0, 1.0], [0], [0, 1, 2], [True, 0]])
    def test_bad_edge_rejected(self, edge):
        # numpy would read [-1, 0] as edge (0, 2) and raise IndexError on [1, 5]
        obj = {"directed": False, "n": 3, "edges": [[0, 1], [1, 2], edge],
               "features": [[1], [1], [1]], "num_labels": 1}
        with pytest.raises(ValueError, match=re.escape(repr(edge))):
            graphbo.graphs.AttributedGraph.from_dict(obj)

    def test_directed_round_trip(self, tmp_path):
        g = build_graph([[0, 1], [1, 0]], [[1, 0], [0, 1]], True, 2)
        path = tmp_path / "g.jsonl"
        graphbo.write_graphs(path, [g])
        assert graphbo.read_graphs(path)[0] == g
