"""Per-domain kernel-profile tables against oracles that share no code with
the table builder: brute-force enumeration with per-graph summaries, and
networkx's graph atlas."""

import importlib

import numpy as np
import pytest

from graphbo import DomainSpec, KernelHyperparams, KernelVariant, LinearRow
from graphbo.gp import GpModel, fit, lcb
from graphbo.graphs import enumerate_domain, profile_table, sample_feasible
from graphbo.solve import solve

solve_module = importlib.import_module("graphbo.solve")

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


@pytest.mark.parametrize("case", sorted(set(CASES) - {"undirected_n4"}))
@pytest.mark.parametrize("variant", list(KernelVariant))
def test_branch_and_propagate_matches_enumerate(case, variant):
    # absent nodes (bounded sizes) and non-label feature columns meet label
    # propagation here; the constraints meet the pruning checks
    domain = CASES[case][0]
    rng = np.random.default_rng(100 + sorted(CASES).index(case))
    points = [sample_feasible(domain, rng) for _ in range(5)]
    model = fit(points, rng.normal(size=5), variant, seed=0, restarts=2)
    exact = solve(model, domain, 1.0, strategy="enumerate")
    branch = solve(model, domain, 1.0, strategy="branch_and_propagate")
    assert exact.status == branch.status == "Optimal"
    assert abs(branch.objective - exact.objective) <= 1e-6


def _row_major_bits(domain):
    """The earlier branch order: each existence (diagonal) bit row-major
    among the edge bits, so the size is fixed only at the last of them."""
    n = domain.n
    bits = [("adj", u, v) for u in range(n) for v in range(n)
            if (u == v and not domain.fixed_size)
            or (u != v and (domain.directed or u < v))]
    return bits + [("feat", v, m) for v in range(n) for m in range(domain.num_features)]


def test_existence_bits_first_bounds_fewer_nodes(monkeypatch):
    # with the size fixed first, edge-phase nodes get the count-space bound
    # instead of the crude box bound
    domain = DomainSpec(n=5, n_min=2, num_labels=1)
    rng = np.random.default_rng(0)
    points = [sample_feasible(domain, rng) for _ in range(8)]
    model = fit(points, rng.normal(size=8), KernelVariant.SSP, seed=0, restarts=2)
    assert solve_module.branch_bits(domain)[:5] == [("adj", v, v) for v in range(5)]
    exact = solve(model, domain, 1.0, strategy="enumerate")
    branch = solve(model, domain, 1.0, strategy="branch_and_propagate")
    monkeypatch.setattr(solve_module, "branch_bits", _row_major_bits)
    row_major = solve(model, domain, 1.0, strategy="branch_and_propagate")
    assert exact.status == branch.status == row_major.status == "Optimal"
    assert abs(branch.objective - exact.objective) <= 1e-6
    assert branch.incumbent == row_major.incumbent
    assert branch.nodes_explored < row_major.nodes_explored


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
    assert scored == [result.incumbent]


def test_length_profiles_match_graph_atlas():
    nx = pytest.importorskip("networkx")
    sizes = range(1, 7)
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
