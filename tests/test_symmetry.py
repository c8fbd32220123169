"""The breadth-first numbering rule of branch-and-propagate's directed walk,
the one structure per class it bounds on undirected domains, and the
renumbering that recovers the smallest sort key, against brute force and
networkx's graph atlas."""

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
    smallest_relabeling,
    structure_profiles,
)
from graphbo.solve import graph_sort_key, solve

from conftest import random_graph

solve_module = importlib.import_module("graphbo.solve")


def structures(n, directed):
    """Every connected n-node structure, with the diagonal set to 1 as in a
    ``PartialAssignment`` whose nodes all exist."""
    states = np.concatenate([adjacency for adjacency, _ in _connected_structures(n, directed)])
    states[:, np.arange(n), np.arange(n)] = 1
    return states


def kept(states):
    """The structures that the rule keeps."""
    return states[~solve_module._bfs_order_violated(states)]


def renumberings(adjacency):
    """Every renumbering of one structure, stacked."""
    n = len(adjacency)
    orders = np.array(list(itertools.permutations(range(n))))
    return adjacency[orders[:, :, None], orders[:, None, :]]


def brute_keeps(adjacency):
    """The rule read off one full structure, loop by loop."""
    n = len(adjacency)
    previous = 0
    for v in range(1, n):
        parents = [u for u in range(v) if adjacency[u, v] or adjacency[v, u]]
        if not parents or parents[0] < previous:
            return False
        previous = parents[0]
    return True


@pytest.mark.parametrize("n,expected", [(4, 17), (5, 171), (6, 3113)])
def test_rule_keeps_the_breadth_first_structures(n, expected):
    states = structures(n, directed=False)
    assert len(kept(states)) == expected
    assert sum(brute_keeps(state) for state in states) == expected


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


def test_every_directed_class_keeps_a_numbering():
    # canonical form by brute force: the smallest renumbered bit string
    states = structures(3, directed=True)
    survivors = {state.tobytes() for state in kept(states)}
    classes = {}
    for state in states:
        forms = renumberings(state)
        canonical = min(form.tobytes() for form in forms)
        classes.setdefault(canonical, set()).update(form.tobytes() for form in forms)
    assert len(states) == 18 and len(classes) == 5
    assert all(members & survivors for members in classes.values())


def test_search_scores_one_structure_per_class(monkeypatch):
    # zero targets and beta 0: every bound ties the incumbent, so nothing is
    # pruned and the search scores every structure it reads: one per class
    nx = pytest.importorskip("networkx")
    dom = DomainSpec(n=5, num_labels=1)
    points = [sample_feasible(dom, s) for s in range(3)]
    model = GpModel.build(points, np.zeros(3), KernelVariant.SSP,
                          KernelHyperparams(alpha=1.0, beta=1.0))
    scored = []

    def recording(domain, adjacency, dist):
        scored.append(adjacency.copy())
        return structure_profiles(domain, adjacency, dist)

    monkeypatch.setattr(solve_module, "structure_profiles", recording)
    result = solve(model, dom, 0.0, strategy="branch_and_propagate")
    assert result.status == "Optimal"
    assert len(scored) == 21
    graphs = [nx.from_numpy_array(adjacency) for adjacency in scored]
    assert all(nx.is_connected(g) for g in graphs)
    assert not any(nx.is_isomorphic(g, h) for g, h in itertools.combinations(graphs, 2))


def brute_smallest(graphs):
    best = None
    for g in graphs:
        for order in itertools.permutations(range(g.n)):
            order = list(order)
            candidate = build_graph(g.adjacency[np.ix_(order, order)],
                                    g.features[order], g.directed, g.num_labels)
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
def test_smallest_relabeling_matches_brute_force(rng, sizes, num_labels,
                                                 num_features, directed):
    for _ in range(5):
        graphs = [random_graph(rng, n, num_labels, num_features, directed)
                  for n in sizes]
        assert smallest_relabeling(graphs) == brute_smallest(graphs)


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
def test_smallest_relabeling_matches_brute_force_on_symmetric_families(rng, n, directed):
    # many automorphisms: many numberings tie on adjacency and the labels
    # decide among them
    for adjacency in families(n, directed):
        order = rng.permutation(n)
        features = np.eye(3, dtype=np.int8)[rng.integers(0, 3, size=n)]
        graph = build_graph(adjacency[np.ix_(order, order)], features, directed, 3)
        assert smallest_relabeling([graph]) == brute_smallest([graph])


@pytest.mark.parametrize("directed", [False, True])
def test_smallest_relabeling_ignores_the_numbering_at_nine_nodes(rng, directed):
    for _ in range(3):
        graph = random_graph(rng, 9, 2, 3, directed)
        order = rng.permutation(9)
        renumbered = build_graph(graph.adjacency[np.ix_(order, order)],
                                 graph.features[order], directed, 2)
        assert smallest_relabeling([graph]) == smallest_relabeling([renumbered])


@pytest.mark.parametrize("n", [9, 10])
def test_complete_graph_relabels_to_sorted_features(rng, n):
    # every numbering of K_n has the same adjacency, so the smallest sorts
    # the nodes by feature row; twin pruning keeps the search at one state
    features = np.eye(3, dtype=np.int8)[rng.integers(0, 3, size=n)]
    graph = build_graph(1 - np.eye(n, dtype=np.int8), features, False, 3)
    _, orders = _smallest_numberings(graph.adjacency[None], graph.features[None])
    assert len(orders) == 1
    smallest = smallest_relabeling([graph])
    assert np.array_equal(smallest.adjacency, graph.adjacency)
    assert np.array_equal(smallest.features, np.array(sorted(features.tolist())))
