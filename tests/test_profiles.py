"""Per-domain kernel-profile tables against oracles that share no code with
the table builder: brute-force enumeration with per-graph summaries, and
networkx's graph atlas."""

import importlib
import itertools

import numpy as np
import pytest

from graphbo import DomainSpec, KernelHyperparams, KernelVariant, LinearRow
from graphbo.gp import GpModel, fit, lcb
from graphbo.graphs import enumerate_domain, profile_table, sample_feasible
from graphbo.solve import solve

solve_module = importlib.import_module("graphbo.solve")
graphs_module = importlib.import_module("graphbo.graphs")

TWO_LABELS = DomainSpec(n=4, num_labels=2)

# name -> (domain, unconstrained domain, independent feasibility predicate)
CASES = {
    "undirected_n4": (TWO_LABELS, TWO_LABELS, lambda g: True),
    "directed_n3": (DomainSpec(n=3, num_labels=2, directed=True),
                    DomainSpec(n=3, num_labels=2, directed=True), lambda g: True),
    "bounded_size": (DomainSpec(n=4, n_min=2, num_labels=2),
                     DomainSpec(n=4, n_min=2, num_labels=2), lambda g: True),
    "extra_features": (DomainSpec(n=3, num_labels=2, num_features=4),
                       DomainSpec(n=3, num_labels=2, num_features=4), lambda g: True),
    # directed, so that in-degree and out-degree differ
    "degree_caps": (
        DomainSpec(n=3, num_labels=2, directed=True, degree_caps=(1, 2)),
        DomainSpec(n=3, num_labels=2, directed=True),
        lambda g: all(g.adjacency[:, v].sum() <= (1, 2)[int(g.features[v, 1])]
                      for v in range(g.n))),
    "label_count_bounds": (
        DomainSpec(n=4, num_labels=2, label_count_bounds=((1, 2), (0, 4))),
        TWO_LABELS, lambda g: 1 <= g.features[:, 0].sum() <= 2),
    "extra_row": (
        DomainSpec(n=4, num_labels=2, extra_rows=(LinearRow(
            adjacency=((0, 1, 1.0), (2, 3, 1.0)), features=((0, 1, 1.0),),
            sense="<=", rhs=1.0),)),
        TWO_LABELS,
        lambda g: g.adjacency[0, 1] + g.adjacency[2, 3] + g.features[0, 1] <= 1),
}


def brute_force(case):
    """All feasible graphs in enumeration order, and the first graph per
    (size, labeled counts, feature sums) profile."""
    domain, unconstrained, feasible = CASES[case]
    graphs = [g for g in enumerate_domain(unconstrained) if feasible(g)]
    first = {}
    for g in graphs:
        s = g.summary
        key = (g.n, s.labeled_counts.tobytes(), s.feature_sums.tobytes())
        first.setdefault(key, g)
    return domain, graphs, list(first.values())


@pytest.mark.parametrize("case", sorted(CASES))
def test_table_matches_brute_force(case):
    domain, graphs, representatives = brute_force(case)
    assert graphs == list(enumerate_domain(domain))
    table = profile_table(domain)
    assert table.complete
    assert [table.graph(i) for i in range(len(table))] == representatives
    for i, g in enumerate(representatives):
        s = g.summary
        n = g.n
        assert table.profiles.sizes[i] == n
        assert np.array_equal(table.profiles.length_counts[i, :n], s.length_counts)
        assert not table.profiles.length_counts[i, n:].any()
        assert np.array_equal(table.profiles.feature_sums[i], s.feature_sums)
        labeled = table.profiles.labeled_counts[i].reshape(domain.n, domain.num_labels,
                                                           domain.num_labels)
        assert np.array_equal(labeled[:n], s.labeled_counts)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("variant", list(KernelVariant))
def test_enumerate_solve_matches_brute_force(case, variant):
    domain, graphs, representatives = brute_force(case)
    rng = np.random.default_rng(sorted(CASES).index(case))
    points = [sample_feasible(domain, rng) for _ in range(5)]
    model = fit(points, rng.normal(size=5), variant, seed=0, restarts=2)
    values = [lcb(model, g, 1.0) for g in graphs]
    best = min(values)
    result = solve(model, domain, 1.0, strategy="enumerate")
    assert result.status == "Optimal"
    assert abs(result.objective - best) <= 1e-9
    assert result.incumbent == graphs[values.index(best)]
    assert result.nodes_explored == len(representatives)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("variant", list(KernelVariant))
def test_branch_and_propagate_matches_enumerate(case, variant):
    # absent nodes (bounded sizes) and non-label feature columns meet the
    # labeling scorer here; the constraints meet the structure filters
    domain = CASES[case][0]
    rng = np.random.default_rng(100 + sorted(CASES).index(case))
    points = [sample_feasible(domain, rng) for _ in range(5)]
    model = fit(points, rng.normal(size=5), variant, seed=0, restarts=2)
    exact = solve(model, domain, 1.0, strategy="enumerate")
    branch = solve(model, domain, 1.0, strategy="branch_and_propagate")
    assert exact.status == branch.status == "Optimal"
    assert repr(branch.objective) == repr(exact.objective)
    assert branch.incumbent == exact.incumbent


def _solve_both(domain, variant, points=10):
    """Enumerate and B&P on ``points`` samples and targets from
    ``default_rng(0)``."""
    rng = np.random.default_rng(0)
    graphs = [sample_feasible(domain, rng) for _ in range(points)]
    model = fit(graphs, rng.normal(size=points), variant, seed=0)
    return (solve(model, domain, 1.0, strategy="enumerate"),
            solve(model, domain, 1.0, strategy="branch_and_propagate"))


def test_branch_and_propagate_breaks_ties_like_enumerate():
    # two stars (centred on node 0 and on node 4) share the optimal profile;
    # the search reads the class's smallest numbering, the star centred on
    # node 4, as enumerate does
    exact, branch = _solve_both(DomainSpec(n=5, n_min=2, num_labels=2),
                                KernelVariant.ESP)
    assert exact.status == branch.status == "Optimal"
    assert branch.objective == exact.objective
    assert branch.incumbent == exact.incumbent
    assert branch.incumbent.edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_labeled_domain_bounds_one_structure_per_class():
    # n=5 with 2 labels: 728 connected structures with 32 labelings each,
    # in 21 isomorphism classes; the search bounds one structure per class
    exact, branch = _solve_both(DomainSpec(n=5, num_labels=2), KernelVariant.SSP)
    assert exact.status == branch.status == "Optimal"
    assert branch.nodes_explored == 21
    assert branch.objective == exact.objective
    assert branch.incumbent == exact.incumbent


def test_branch_and_propagate_matches_enumerate_at_seven_nodes():
    # n=7 with 1 label: enumerate scores 79 class-built rows; B&P bounds
    # the classes of in-degree at most 4
    domain = DomainSpec(n=7, num_labels=1, degree_caps=(4,))
    exact, branch = _solve_both(domain, KernelVariant.SSP)
    assert exact.status == branch.status == "Optimal"
    assert exact.nodes_explored == 79
    classes = graphs_module._connected_classes(7)
    assert branch.nodes_explored == (classes.sum(axis=1) <= 4).all(axis=1).sum()
    assert repr(branch.objective) == repr(exact.objective)
    assert branch.incumbent == exact.incumbent


def test_branch_and_propagate_matches_enumerate_at_seven_nodes_two_labels(monkeypatch):
    # 28 structural bits, over the enumeration cap; both engines read the
    # 853 classes of 7 nodes, so the cap is lifted for this test only
    monkeypatch.setattr(graphs_module, "ENUMERATION_BIT_CAP", 200)
    domain = DomainSpec(n=7, num_labels=2, degree_caps=(4, 4))
    exact, branch = _solve_both(domain, KernelVariant.ESSP)
    assert exact.status == branch.status == "Optimal"
    assert repr(branch.objective) == repr(exact.objective)
    assert branch.incumbent == exact.incumbent


def test_tied_numberings_of_one_class_return_the_smallest_sort_key():
    # n=6 with 1 label: two numberings of the 6-node path tie for the
    # optimum; the search meets one of them and renumbers it to enumerate's
    # incumbent
    exact, branch = _solve_both(DomainSpec(n=6, num_labels=1), KernelVariant.SSP)
    assert exact.status == branch.status == "Optimal"
    assert abs(branch.objective - exact.objective) <= 1e-6
    assert branch.incumbent == exact.incumbent


@pytest.mark.parametrize("n,num_labels,num_features", [
    (1, 1, 1), (4, 2, 2), (3, 2, 6), (4, 3, 5), (2, 1, 4)])
def test_labelings_follow_the_feature_row_product(n, num_labels, num_features):
    # the reference numbers every labeling through the sorted feature-row
    # table; (3, 2, 6) spans 8 blocks and (4, 3, 5) splits its blocks inside
    # a node's digits
    domain = DomainSpec(n=n, num_labels=num_labels, num_features=num_features)
    rows = graphs_module._feature_rows(domain)
    expected = np.array(list(itertools.product(rows, repeat=n)), dtype=np.int8)
    blocks = list(graphs_module._labelings(n, num_labels, num_features))
    assert all(len(labels) <= graphs_module.BLOCK for labels, _ in blocks)
    features = np.concatenate([f for _, f in blocks])
    labels = np.concatenate([lab for lab, _ in blocks])
    assert np.array_equal(features, expected)
    assert np.array_equal(labels, expected[:, :, :num_labels].argmax(axis=2))


def test_wide_labelings_come_block_by_block():
    # 2**87 labelings: the first block is the start of the product order,
    # drawn without numbering the labelings or listing the feature rows;
    # in that order only the last 12 feature bits of node 2 vary within it
    blocks = graphs_module._labelings(3, 1, 30)
    labels, features = next(blocks)
    assert features.shape == (graphs_module.BLOCK, 3, 30)
    assert not labels.any()
    first = np.zeros((graphs_module.BLOCK, 3, 30), dtype=np.int8)
    first[:, :, 0] = 1
    first[:, 2, -12:] = list(itertools.product((0, 1), repeat=12))
    assert np.array_equal(features, first)
    assert next(blocks)[1][0, 2, -13] == 1  # the next block carries one digit


def _cut_after(polls_allowed):
    """An ``out_of_time`` that reports the budget spent after a number of
    polls, so a table build stops part way."""
    polls = 0

    def out_of_time():
        nonlocal polls
        polls += 1
        return polls > polls_allowed

    return out_of_time


def _interrupt_builds(monkeypatch, polls_allowed):
    monkeypatch.setattr(solve_module, "profile_table",
                        lambda domain, out_of_time: profile_table(
                            domain, out_of_time=_cut_after(polls_allowed)))


def test_partial_build_is_a_prefix_of_the_full_table():
    full = profile_table(TWO_LABELS)
    polls = 0

    def stop_after_three():
        nonlocal polls
        polls += 1
        return polls > 3

    partial = profile_table(TWO_LABELS, out_of_time=stop_after_three)
    assert not partial.complete
    assert 0 < len(partial) < len(full)
    assert [partial.graph(i) for i in range(len(partial))] == \
        [full.graph(i) for i in range(len(partial))]


def test_interrupted_build_reports_time_limit_and_is_not_cached(monkeypatch):
    rng = np.random.default_rng(7)
    points = [sample_feasible(TWO_LABELS, rng) for _ in range(5)]
    model = fit(points, rng.normal(size=5), KernelVariant.SP, seed=0, restarts=2)
    exact = solve(model, TWO_LABELS, 1.0, strategy="enumerate")
    solve_module._profile_tables.clear()
    build = solve_module.profile_table
    polls = 0

    def stop_after_two():
        nonlocal polls
        polls += 1
        return polls > 2

    monkeypatch.setattr(solve_module, "profile_table",
                        lambda domain, out_of_time: build(
                            domain, out_of_time=stop_after_two))
    cut = solve(model, TWO_LABELS, 1.0, strategy="enumerate")
    assert cut.status == "FeasibleTimeLimit"
    assert cut.bound == -np.inf
    assert cut.objective >= exact.objective - 1e-12
    assert cut.objective == lcb(model, cut.incumbent, 1.0)
    assert not solve_module._profile_tables


def test_interrupted_build_takes_a_better_warm_start(monkeypatch):
    rng = np.random.default_rng(8)
    points = [sample_feasible(TWO_LABELS, rng) for _ in range(5)]
    model = fit(points, rng.normal(size=5), KernelVariant.SSP, seed=0, restarts=2)
    exact = solve(model, TWO_LABELS, 1.0, strategy="enumerate")
    solve_module._profile_tables.clear()
    _interrupt_builds(monkeypatch, 1)
    cut = solve(model, TWO_LABELS, 1.0, strategy="enumerate")
    assert cut.status == "FeasibleTimeLimit"
    assert cut.objective > exact.objective  # the optimum lies past the cut
    # an infeasible warm start is skipped, the optimum is taken
    wrong_size = sample_feasible(DomainSpec(n=3, num_labels=2), 0)
    warm = solve(model, TWO_LABELS, 1.0, strategy="enumerate",
                 warm_start=[wrong_size, exact.incumbent])
    assert (warm.status, warm.bound) == ("FeasibleTimeLimit", -np.inf)
    assert warm.incumbent == exact.incumbent
    assert warm.objective == exact.objective
    # a worse warm start leaves the best row in place
    worse = solve(model, TWO_LABELS, 1.0, strategy="enumerate",
                  warm_start=[g for g in points if lcb(model, g, 1.0) > cut.objective])
    assert worse.incumbent == cut.incumbent
    # nothing built yet: the warm start alone is the incumbent
    _interrupt_builds(monkeypatch, 0)
    none_built = solve(model, TWO_LABELS, 1.0, strategy="enumerate")
    assert none_built.status == "BudgetExhausted" and none_built.incumbent is None
    only_warm = solve(model, TWO_LABELS, 1.0, strategy="enumerate",
                      warm_start=[exact.incumbent])
    assert only_warm.status == "FeasibleTimeLimit"
    assert only_warm.incumbent == exact.incumbent
    assert not solve_module._profile_tables


def test_interrupted_build_breaks_warm_start_ties_by_sort_key(monkeypatch):
    # beta 0 and zero targets: every graph scores 0, so the smaller sort key
    # wins; the table's first row is the smallest graph of the domain
    points = [sample_feasible(TWO_LABELS, s) for s in range(3)]
    model = GpModel.build(points, np.zeros(3), KernelVariant.SSP,
                          KernelHyperparams(alpha=1.0, beta=1.0))
    first = next(enumerate_domain(TWO_LABELS))
    solve_module._profile_tables.clear()
    # a class table in the making is polled at each step; with it built,
    # the one poll allowed falls before the first structure
    graphs_module._connected_classes(TWO_LABELS.n)
    _interrupt_builds(monkeypatch, 1)
    later = [g for g in points if g != first]
    cut = solve(model, TWO_LABELS, 0.0, strategy="enumerate", warm_start=later)
    assert cut.incumbent == first
    _interrupt_builds(monkeypatch, 0)
    warm_only = solve(model, TWO_LABELS, 0.0, strategy="enumerate",
                      warm_start=later + [first])
    assert warm_only.incumbent == first


def test_complete_table_ignores_warm_starts(monkeypatch):
    rng = np.random.default_rng(9)
    points = [sample_feasible(TWO_LABELS, rng) for _ in range(5)]
    model = fit(points, rng.normal(size=5), KernelVariant.SP, seed=0, restarts=2)
    solve(model, TWO_LABELS, 1.0, strategy="enumerate")  # cache the table
    scored = []
    monkeypatch.setattr(solve_module, "gp_lcb", lambda m, g, b: scored.append(g) or lcb(m, g, b))
    result = solve(model, TWO_LABELS, 1.0, strategy="enumerate", warm_start=points)
    assert result.status == "Optimal"
    # the argmin row's batched value is quoted as it stands: nothing is scored
    # per graph
    assert scored == []
    assert result.objective == lcb(model, result.incumbent, 1.0)


def _walk_every_structure(domain, size):
    return graphs_module._connected_structures(size, domain.directed)


@pytest.mark.parametrize("domain", [
    pytest.param(DomainSpec(n=5, num_labels=1), id="n5-1label"),
    pytest.param(DomainSpec(n=5, num_labels=2), id="n5-2labels"),
    pytest.param(DomainSpec(n=6, num_labels=1), id="n6-1label"),
    pytest.param(DomainSpec(n=6, num_labels=2), id="n6-2labels"),
    pytest.param(DomainSpec(n=5, num_labels=3, degree_caps=(3, 2, 1)), id="n5-3labels-caps"),
    pytest.param(DomainSpec(n=5, n_min=2, num_labels=2), id="n2to5-2labels"),
    pytest.param(DomainSpec(n=5, num_labels=1, num_features=3), id="n5-3features"),
    pytest.param(DomainSpec(n=5, num_labels=2, label_count_bounds=((1, 3), (2, 4))),
                 id="n5-2labels-bounds"),
])
def test_class_table_equals_the_walk_over_every_structure(domain, monkeypatch):
    by_class = profile_table(domain)
    monkeypatch.setattr(graphs_module, "_structures", _walk_every_structure)
    walked = profile_table(domain)
    assert by_class.complete and walked.complete
    for got, want in [(by_class.profiles.sizes, walked.profiles.sizes),
                      (by_class.profiles.labeled_counts, walked.profiles.labeled_counts),
                      (by_class.profiles.feature_sums, walked.profiles.feature_sums),
                      (by_class.adjacency, walked.adjacency),
                      (by_class.features, walked.features)]:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_class_counts_follow_oeis_a001349():
    counts = [len(graphs_module._connected_classes(n)) for n in range(1, 9)]
    assert counts == [1, 1, 2, 6, 21, 112, 853, 11117]


@pytest.mark.parametrize("n", range(2, 7))
def test_each_class_is_its_smallest_numbering(n):
    # brute force over all n! orders
    pairs = graphs_module.adjacency_pairs(n, False)
    us, vs = np.array(pairs).T
    weights = 1 << np.arange(len(pairs) - 1, -1, -1)
    orders = np.array(list(itertools.permutations(range(n))))
    codes = []
    for adjacency in graphs_module._connected_classes(n):
        renumbered = adjacency[orders[:, :, None], orders[:, None, :]]
        codes.append(int(adjacency[us, vs] @ weights))
        assert codes[-1] == (renumbered[:, us, vs] @ weights).min()
    assert codes == sorted(set(codes))


def test_length_profiles_match_graph_atlas():
    nx = pytest.importorskip("networkx")
    sizes = range(1, 8)
    expected = {n: set() for n in sizes}
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n in expected and nx.is_connected(g):
            counts = [0] * n
            for _, lengths in nx.all_pairs_shortest_path_length(g):
                for d in lengths.values():
                    counts[d] += 1
            expected[n].add(tuple(counts))
    for n in sizes:
        table = profile_table(DomainSpec(n=n, num_labels=1))
        got = [tuple(int(c) for c in row) for row in table.profiles.length_counts]
        assert len(got) == len(set(got))
        assert set(got) == expected[n]
