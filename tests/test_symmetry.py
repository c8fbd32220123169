"""The first-row rule of branch-and-propagate's walks, the one structure
per class it bounds on undirected domains, and the canonical search that
finds a graph's smallest numbering, against brute force and networkx's
graph atlas."""

import importlib
import itertools

import numpy as np
import pytest

from graphbo import DomainSpec, KernelHyperparams, KernelVariant
from graphbo.gp import GpModel
from graphbo.graphs import (
    _connected_structures,
    _smallest_numberings,
    build_graph,
    sample_feasible,
    structure_profiles,
)
from graphbo.solve import graph_sort_key, solve

from conftest import random_graph

solve_module = importlib.import_module("graphbo.solve")


def structures(n, directed):
    """Every connected n-node structure, with the diagonal set to 1: the
    rule must read only the edges between distinct nodes."""
    states = np.concatenate([adjacency for adjacency, _ in _connected_structures(n, directed)])
    states[:, np.arange(n), np.arange(n)] = 1
    return states


def kept(states):
    """The structures that the rule keeps."""
    return states[solve_module._first_row_can_be_smallest(states)]


def renumberings(adjacency):
    """Every renumbering of one structure, stacked."""
    n = len(adjacency)
    orders = np.array(list(itertools.permutations(range(n))))
    return adjacency[orders[:, :, None], orders[:, None, :]]


def brute_keeps(adjacency):
    """The rule read off one full structure, loop by loop: node 0 has the
    least out-degree d, and its out-neighbours are the last d nodes."""
    n = len(adjacency)
    degrees = [sum(int(adjacency[v, u]) for u in range(n) if u != v) for v in range(n)]
    d = degrees[0]
    return d == min(degrees) and all(
        bool(adjacency[0, u]) == (u >= n - d) for u in range(1, n))


@pytest.mark.parametrize("n,directed,classes,expected", [
    (3, True, 5, 6), (4, True, 83, 246), (4, False, 6, 7), (5, False, 21, 61),
], ids=["directed_n3", "directed_n4", "n4", "n5"])
def test_rule_keeps_every_smallest_numbering(n, directed, classes, expected):
    # the smallest numbering of each class by brute force: the least
    # renumbered byte string, which orders 0/1 matrices as graph_sort_key
    states = structures(n, directed)
    keep = solve_module._first_row_can_be_smallest(states)
    assert keep.tolist() == [brute_keeps(state) for state in states]
    assert keep.sum() == expected
    smallest = {min(form.tobytes() for form in renumberings(state)) for state in states}
    assert len(smallest) == classes
    assert smallest <= {state.tobytes() for state in kept(states)}


@pytest.mark.parametrize("n,classes", [(4, 6), (5, 21), (6, 112)])
def test_every_atlas_class_keeps_a_numbering(n, classes):
    nx = pytest.importorskip("networkx")
    atlas = [g for g in nx.graph_atlas_g()
             if g.number_of_nodes() == n and nx.is_connected(g)]
    assert len(atlas) == classes
    for g in atlas:
        adjacency = nx.to_numpy_array(g, nodelist=range(n), dtype=np.int8)
        np.fill_diagonal(adjacency, 1)
        assert len(kept(renumberings(adjacency))), sorted(g.edges())


def test_search_bounds_one_structure_per_class(monkeypatch):
    # zero targets and beta 0: every labeling and every bound is exactly
    # 0, so the first structure's labeling is kept and every later
    # structure, whose bound ties it, is bounded and pruned: one per class
    nx = pytest.importorskip("networkx")
    dom = DomainSpec(n=5, num_labels=1)
    points = [sample_feasible(dom, s) for s in range(3)]
    model = GpModel.build(points, np.zeros(3), KernelVariant.SSP,
                          KernelHyperparams(alpha=1.0, beta=1.0))
    structure_chunks = solve_module._structure_chunks
    bounded, scored = [], []

    def recorded_chunks(domain, size):
        for chunk in structure_chunks(domain, size):
            bounded.extend(chunk[0])
            yield chunk

    def recording(domain, adjacency, dist):
        scored.append(adjacency.copy())
        return structure_profiles(domain, adjacency, dist)

    monkeypatch.setattr(solve_module, "_structure_chunks", recorded_chunks)
    monkeypatch.setattr(solve_module, "structure_profiles", recording)
    result = solve(model, dom, 0.0, strategy="branch_and_propagate")
    assert result.status == "Optimal"
    assert len(bounded) == result.nodes_explored == 21
    assert len(scored) == result.stats["structures_scored"] == 1
    graphs = [nx.from_numpy_array(adjacency) for adjacency in bounded]
    assert all(nx.is_connected(g) for g in graphs)
    assert not any(nx.is_isomorphic(g, h) for g, h in itertools.combinations(graphs, 2))


def smallest_numbering(graphs):
    """Each graph of a list of one size renumbered to its smallest
    ``graph_sort_key`` by ``_smallest_numberings``: of the numberings it
    returns, the one with the smallest features."""
    index, orders = _smallest_numberings(np.stack([g.adjacency for g in graphs]),
                                         np.stack([g.features for g in graphs]))
    best = {}
    for g, order in zip(index.tolist(), orders):
        graph = graphs[g]
        candidate = build_graph(graph.adjacency[np.ix_(order, order)],
                                graph.features[order], graph.directed, graph.num_labels)
        if g not in best or graph_sort_key(candidate) < graph_sort_key(best[g]):
            best[g] = candidate
    return [best[g] for g in range(len(graphs))]


def brute_smallest(graph):
    best = None
    for order in itertools.permutations(range(graph.n)):
        order = list(order)
        candidate = build_graph(graph.adjacency[np.ix_(order, order)],
                                graph.features[order], graph.directed, graph.num_labels)
        if best is None or graph_sort_key(candidate) < graph_sort_key(best):
            best = candidate
    return best


@pytest.mark.parametrize("sizes,num_labels,num_features,directed", [
    ((2, 3, 4), 2, 2, False),
    ((4,), 2, 4, False),
    ((3,), 2, 3, True),
    ((5, 5), 3, 3, False),
    ((5,), 2, 3, True),
], ids=["bounded", "extra_features", "directed", "two_of_one_size",
        "directed_extra_feature"])
def test_smallest_numbering_matches_brute_force(rng, sizes, num_labels,
                                                num_features, directed):
    # graphs of one size are searched in one stack
    for _ in range(5):
        graphs = [random_graph(rng, n, num_labels, num_features, directed)
                  for n in sizes]
        for n in set(sizes):
            group = [g for g in graphs if g.n == n]
            assert smallest_numbering(group) == [brute_smallest(g) for g in group]


def families(n, directed):
    """Complete, star, cycle (one way round when directed) and complete
    bipartite adjacency on n nodes: the graphs with the most symmetry."""
    complete = 1 - np.eye(n, dtype=np.int8)
    star = np.zeros((n, n), dtype=np.int8)
    star[0, 1:] = star[1:, 0] = 1
    cycle = np.roll(np.eye(n, dtype=np.int8), 1, axis=1)
    if not directed:
        cycle |= cycle.T
    bipartite = np.zeros((n, n), dtype=np.int8)
    bipartite[: n // 2, n // 2:] = bipartite[n // 2:, : n // 2] = 1
    return [complete, star, cycle, bipartite]


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("n", [4, 6])
def test_smallest_numbering_matches_brute_force_on_symmetric_families(rng, n, directed):
    # many automorphisms: many numberings tie on adjacency and the labels
    # decide among them
    for adjacency in families(n, directed):
        order = rng.permutation(n)
        features = np.eye(3, dtype=np.int8)[rng.integers(0, 3, size=n)]
        graph = build_graph(adjacency[np.ix_(order, order)], features, directed, 3)
        assert smallest_numbering([graph]) == [brute_smallest(graph)]


@pytest.mark.parametrize("directed", [False, True])
def test_smallest_numbering_ignores_the_numbering_at_nine_nodes(rng, directed):
    for _ in range(3):
        graph = random_graph(rng, 9, 2, 3, directed)
        order = rng.permutation(9)
        renumbered = build_graph(graph.adjacency[np.ix_(order, order)],
                                 graph.features[order], directed, 2)
        first, second = smallest_numbering([graph, renumbered])
        assert first == second


@pytest.mark.parametrize("n", [9, 10])
def test_complete_graph_relabels_to_sorted_features(rng, n):
    # every numbering of K_n has the same adjacency, so the smallest sorts
    # the nodes by feature row; twin pruning keeps the search at one state
    features = np.eye(3, dtype=np.int8)[rng.integers(0, 3, size=n)]
    graph = build_graph(1 - np.eye(n, dtype=np.int8), features, False, 3)
    _, orders = _smallest_numberings(graph.adjacency[None], graph.features[None])
    assert len(orders) == 1
    smallest, = smallest_numbering([graph])
    assert np.array_equal(smallest.adjacency, graph.adjacency)
    assert np.array_equal(smallest.features, np.array(sorted(features.tolist())))
