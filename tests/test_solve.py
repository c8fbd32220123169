"""Exact solver: feasibility checking, bijection counting, bounds, and the
agreement of both strategies."""

import importlib
import itertools
import logging
import math
import time

import numpy as np
import pytest

import graphbo
from graphbo import DomainSpec, KernelHyperparams, KernelVariant, LinearRow
from graphbo.encode import canonical_structural_assignment, encode_shortest_paths
from graphbo.errors import (
    DimensionMismatchError,
    DisconnectedError,
    IncompatibleDomainError,
    MissingVariableError,
    SpaceTooLargeError,
    UnfittedModelError,
)
from graphbo.gp import GpModel, fit, lcb, predict
from graphbo.graphs import (
    _structures,
    adjacency_pairs,
    build_graph,
    domain_feasible,
    enumerate_domain,
    is_connected,
    sample_feasible,
    smallest_relabeling,
    structure_profiles,
)
from graphbo.kernels import StackedSummaries, cross_gram, k_combined, self_kernel_parts
from graphbo.solve import (
    PartialAssignment,
    SolveStrategy,
    check_feasible,
    count_feasible,
    dual_bound,
    graph_sort_key,
    solve,
)

from conftest import bfs_distances, complete_graph

solve_module = importlib.import_module("graphbo.solve")
graphs_module = importlib.import_module("graphbo.graphs")


def fitted_model(rng, dom, t=5, variant=KernelVariant.SSP):
    points = [sample_feasible(dom, rng) for _ in range(t)]
    return fit(points, rng.normal(size=t), variant, seed=int(rng.integers(1000)))


def reference_bound(pa, model, beta_sqrt):
    """The per-pair interval bound written out loop by loop: each node pair
    takes the min/max of every training point's counts over its distance
    range and every label pair, with per-source BFS distances. A node's
    label is known only when the domain has one label."""
    dom = pa.domain
    n, L, M = dom.n, dom.num_labels, dom.num_features
    hyper, variant = model.hyper, model.variant
    var = hyper.require_variance(variant)
    t = model.size
    profile = model.profile.resized(n)
    sizes = profile.sizes
    w_pos = np.clip(model.weights, 0.0, None)
    w_neg = np.clip(model.weights, None, 0.0)
    factor = model.inverse_factor
    ct_pos, ct_neg = np.clip(factor, 0.0, None), np.clip(factor, None, 0.0)
    npx = pa.size
    sub = pa.adj[:npx, :npx]
    lo = bfs_distances(sub != 0, dom.directed)
    if (lo < 0).any():
        return math.inf
    hi = bfs_distances(sub == 1, dom.directed)
    hi = np.where(hi < 0, npx - 1, hi)
    g_lo, g_hi = np.zeros(t), np.zeros(t)
    hi_counts = np.zeros((n, L, L)) if variant.labeled else np.zeros(n)
    for a in range(npx):
        for b in range(npx):
            s_lo = 0 if a == b else int(lo[a, b])
            s_hi = min(0 if a == b else int(hi[a, b]), n - 1)
            s_lo = min(s_lo, s_hi)
            if variant.labeled:
                block = profile.labeled_counts[:, s_lo:s_hi + 1]
                g_lo += block.min(axis=(1, 2, 3))
                g_hi += block.max(axis=(1, 2, 3))
            else:
                block = profile.length_counts[:, s_lo:s_hi + 1]
                g_lo += block.min(axis=1)
                g_hi += block.max(axis=1)
            hi_counts[s_lo:s_hi + 1] += 1
    norm = (npx * npx) * (sizes.astype(float) ** 2)
    g_lo, g_hi = g_lo / norm, g_hi / norm
    # every feature bit of every node may be 1; a 1-label domain's label bit is
    n_lo, n_hi = np.zeros(M), np.full(M, float(npx))
    if L == 1:
        n_lo[0] = npx
    f_lo = (profile.feature_sums @ n_lo) / (npx * sizes * M)
    f_hi = (profile.feature_sums @ n_hi) / (npx * sizes * M)
    if variant.exponential:
        k_lo = hyper.alpha * (np.exp(g_lo) / var) + hyper.beta * f_lo
        k_hi = hyper.alpha * (np.exp(g_hi) / var) + hyper.beta * f_hi
    else:
        k_lo = hyper.alpha * g_lo + hyper.beta * f_lo
        k_hi = hyper.alpha * g_hi + hyper.beta * f_hi
    self_lin_hi = min(1.0, float(np.sum(hi_counts ** 2)) / npx ** 4)
    self_graph_hi = np.exp(self_lin_hi) / var if variant.exponential else self_lin_hi
    self_feat_hi = min(1.0, float(np.dot(n_hi, n_hi)) / (npx * npx * M))
    kxx_hi = hyper.alpha * self_graph_hi + hyper.beta * self_feat_hi
    # the rounding slack of both dot products, 2 gamma_t |w|'max|k|
    unit = np.finfo(float).eps / 2
    gamma = t * unit / (1 - t * unit)
    mu_lo = float(w_pos @ k_lo + w_neg @ k_hi)
    mu_lo -= 2 * gamma * float(np.abs(model.weights) @ np.maximum(np.abs(k_lo), np.abs(k_hi)))
    z_lo = ct_pos @ k_lo + ct_neg @ k_hi
    z_hi = ct_pos @ k_hi + ct_neg @ k_lo
    inner = np.where((z_lo <= 0.0) & (z_hi >= 0.0), 0.0,
                     np.minimum(np.abs(z_lo), np.abs(z_hi)))
    sigma_hi = math.sqrt(max(kxx_hi - float(np.dot(inner, inner)), 0.0))
    return mu_lo - beta_sqrt * sigma_hi


def scalar_row_bound(ctx, boxes, row):
    """The bound of state ``row`` of a ``boxes`` stack in 1-D expressions,
    one state at a time. Returns the bound and whether some z interval
    straddles 0."""
    k_lo, k_hi, kxx_hi = (part[row] for part in boxes)
    mu_lo = float(ctx.w_pos @ k_lo + ctx.w_neg @ k_hi)
    mu_lo -= 2 * ctx.gamma * float(ctx.w_abs @ np.maximum(np.abs(k_lo), np.abs(k_hi)))
    z_lo = ctx.ct_pos @ k_lo + ctx.ct_neg @ k_hi
    z_hi = ctx.ct_pos @ k_hi + ctx.ct_neg @ k_lo
    straddle = (z_lo <= 0.0) & (z_hi >= 0.0)
    inner = np.where(straddle, 0.0, np.minimum(np.abs(z_lo), np.abs(z_hi)))
    q_lo = float(np.dot(inner, inner))
    sigma_hi = math.sqrt(max(kxx_hi - q_lo, 0.0))
    return mu_lo - ctx.beta_sqrt * sigma_hi, bool(((z_lo < 0.0) & (z_hi > 0.0)).any())


def reference_quick_infeasible(pa):
    """The search's cheap pruning checks written out check by check."""
    dom = pa.domain
    size = pa.size
    # connectivity with every open edge present
    reach = bfs_distances(pa.adj[:size, :size] != 0, dom.directed)
    if (reach < 0).any():
        return True
    if dom.degree_caps is not None:
        # no label is fixed, so a node may take the label with the largest cap
        for v in range(size):
            committed = sum(pa.adj[u, v] == 1 for u in range(size) if u != v)
            if committed > max(dom.degree_caps):
                return True
    if not dom.extra_rows:
        # a breadth-first numbering of the present nodes, on the underlying
        # undirected graph: every node v >= 1 has a parent u < v, and the
        # first parent never decreases in v
        def edge(u, v):
            pair = (pa.adj[u, v], pa.adj[v, u])
            return 1 if 1 in pair else (-1 if -1 in pair else 0)

        parent_ranges = []
        for v in range(1, size):
            possible = [u for u in range(v) if edge(u, v) != 0]
            if not possible:
                return True
            sure = [u for u in possible if edge(u, v) == 1]
            parent_ranges.append((possible[0], sure[0] if sure else possible[-1]))
        for i, (first_possible, _) in enumerate(parent_ranges):
            for _, latest in parent_ranges[i + 1:]:
                if first_possible > latest:
                    return True
    return False


def brute_smallest_renumbering(graph):
    """The renumbering of ``graph`` with the smallest ``graph_sort_key``,
    over every ``itertools.permutations`` order of its nodes."""
    best = None
    for order in itertools.permutations(range(graph.n)):
        order = list(order)
        adjacency = graph.adjacency[np.ix_(order, order)]
        features = graph.features[order]
        key = (graph.n, tuple(adjacency.ravel().tolist()),
               tuple(features.ravel().tolist()))
        if best is None or key < best[0]:
            best = (key, adjacency, features)
    return build_graph(best[1], best[2], graph.directed, graph.num_labels)


def reference_search(model, dom, beta_sqrt):
    """A branch-and-bound over edge bits written out node by node: one
    search per graph size, largest first, each skipped unless some vector
    of label counts within the bounds sums to the size; then the quick
    checks and a fresh ``dual_bound`` per node. Each structure's labelings
    are scored as the solver scores them, and each tie is renumbered by
    brute force as soon as it is met. Returns the status, objective, bound
    and incumbent of a search that runs to completion."""
    best = {"graph": None, "value": math.inf, "key": None}

    def score(pa, size):
        adjacency = pa.adj[:size, :size].copy()
        np.fill_diagonal(adjacency, 0)
        dist = bfs_distances(adjacency, dom.directed).astype(np.int64)
        values, labelings = [], []
        for profiles, features in structure_profiles(dom, adjacency, dist):
            if not len(features):
                continue
            mu, var = predict(model, profiles)
            values += (mu - beta_sqrt * np.sqrt(var)).tolist()
            labelings += list(features)
        # every labeling that ties the structure's minimum, each offered as
        # its smallest renumbering unless user rows pin the numbering
        for value, features in zip(values, labelings):
            if value != min(values):
                continue
            graph = build_graph(adjacency, features, dom.directed, dom.num_labels)
            if not domain_feasible(dom, graph):
                continue
            value = lcb(model, graph, beta_sqrt)
            if not dom.extra_rows:
                graph = brute_smallest_renumbering(graph)
            key = graph_sort_key(graph)
            if value < best["value"] or (value == best["value"]
                                         and (best["key"] is None or key < best["key"])):
                best.update(graph=graph, value=value, key=key)

    def visit(pa, size, bits, depth):
        if reference_quick_infeasible(pa):
            return
        bound = dual_bound(pa, model, beta_sqrt)
        if bound > best["value"] or bound == math.inf:
            return
        if depth == len(bits):
            score(pa, size)
            return
        a, b = bits[depth]
        for value in (1, 0):
            pa.set_adj(a, b, value)
            visit(pa, size, bits, depth + 1)
            pa.set_adj(a, b, -1)

    for size in reversed(dom.sizes):
        bounds = dom.label_count_bounds
        if bounds is not None and not any(
                sum(counts) == size
                and all(lo <= c <= hi for c, (lo, hi) in zip(counts, bounds))
                for counts in itertools.product(range(size + 1),
                                                repeat=dom.num_labels)):
            continue
        adj = np.full((dom.n, dom.n), -1, dtype=np.int8)
        for u in range(dom.n):
            for v in range(dom.n):
                if u >= size or v >= size:
                    adj[u, v] = 0
                elif u == v:
                    adj[u, v] = 1
        visit(PartialAssignment(dom, size, adj), size,
              adjacency_pairs(size, dom.directed), 0)
    if best["graph"] is None:
        return "Infeasible", None, math.inf, None
    return "Optimal", best["value"], best["value"], best["graph"]


def random_partial(rng, dom, fixed_share):
    """A random size of the domain, then each edge bit among its nodes
    fixed to a random value with probability ``fixed_share``."""
    pa = PartialAssignment.root(dom, int(rng.choice(dom.sizes)))
    for a, b in adjacency_pairs(pa.size, dom.directed):
        if rng.random() < fixed_share:
            pa.set_adj(a, b, int(rng.integers(0, 2)))
    return pa


class TestCheckFeasible:
    def test_canonical_triples_pass(self, rng):
        for directed, n in ((True, 3), (False, 4)):
            block = encode_shortest_paths(n, directed)
            dom = DomainSpec(n=n, directed=directed, num_labels=1)
            for g in enumerate_domain(dom):
                assert check_feasible(block, canonical_structural_assignment(g, n))

    def test_flipped_on_path_bit_fails(self, rng):
        block = encode_shortest_paths(4, False)
        dom = DomainSpec(n=4, num_labels=1)
        for g in list(enumerate_domain(dom))[:10]:
            asg = canonical_structural_assignment(g, 4)
            flips = [k for k in asg if k.startswith("delta_0_2")]
            bad = dict(asg)
            bad[flips[1]] = 1 - bad[flips[1]]
            assert not check_feasible(block, bad)

    def test_incremented_distance_fails(self):
        block = encode_shortest_paths(3, False)
        g = complete_graph(3)
        asg = canonical_structural_assignment(g, 3)
        asg["d_0_1"] = asg["d_0_1"] + 1
        assert not check_feasible(block, asg)

    def test_missing_variable(self):
        block = encode_shortest_paths(2, False)
        with pytest.raises(MissingVariableError):
            check_feasible(block, {"A_0_0": 1})

    def test_bound_and_integrality(self):
        block = encode_shortest_paths(3, False)
        g = complete_graph(3)
        asg = canonical_structural_assignment(g, 3)
        asg["d_0_1"] = 0.5
        assert not check_feasible(block, asg)


class TestCountFeasible:
    @pytest.mark.parametrize("size,directed,expected", [
        (2, True, 1),
        (3, True, 18),
        (2, False, 1),
        (3, False, 4),
        (4, False, 38),
    ])
    def test_fixed_size_bijection(self, size, directed, expected):
        system = encode_shortest_paths(size, directed)
        assert count_feasible(system, size, directed) == expected
        dom = DomainSpec(n=size, directed=directed, num_labels=1)
        assert sum(1 for _ in enumerate_domain(dom)) == expected

    def test_bounded_size_bijection(self):
        system = encode_shortest_paths((1, 3), True)
        assert count_feasible(system, (1, 3), True) == 1 + 1 + 18

    def test_cap(self):
        system = encode_shortest_paths(5, True)
        with pytest.raises(SpaceTooLargeError):
            count_feasible(system, 5, True, cap=1000)

    @pytest.mark.parametrize("size,directed,expected", [
        (2, True, 1), (2, False, 1), ((1, 2), True, 2), ((1, 2), False, 2),
    ])
    def test_literal_full_product_scan_agrees(self, size, directed, expected):
        # independent of the pruned enumeration: scan the complete product
        # space of every declared variable domain at the smallest sizes
        system = encode_shortest_paths(size, directed)
        domains = []
        for var in system.variables:
            domains.append([(var.name, v) for v in range(int(var.lb), int(var.ub) + 1)])
        brute = 0
        for combo in itertools.product(*domains):
            if check_feasible(system, dict(combo)):
                brute += 1
        assert brute == expected
        assert count_feasible(system, size, directed) == expected


class TestPropagateLeaf:
    """Structure leaves: the search quotes a leaf at ``gp.lcb``'s value and
    never offers a graph that ``domain_feasible`` rejects."""

    def test_matches_gp_lcb(self):
        # the batched value each strategy quotes is gp.lcb's for its
        # incumbent, with no re-score, on the domains of
        # test_profiles._solve_both (10 samples and targets from
        # default_rng(0), fit seed 0) and all four variants
        for dom in (DomainSpec(n=3, num_labels=2),
                    DomainSpec(n=5, n_min=2, num_labels=2),
                    DomainSpec(n=5, num_labels=2), DomainSpec(n=6, num_labels=1)):
            for variant in KernelVariant:
                rng = np.random.default_rng(0)
                points = [sample_feasible(dom, rng) for _ in range(10)]
                model = fit(points, rng.normal(size=10), variant, seed=0)
                exact, branch = (solve(model, dom, 1.0, strategy=s)
                                 for s in ("enumerate", "branch_and_propagate"))
                assert exact.status == branch.status == "Optimal"
                assert branch.incumbent == exact.incumbent
                assert branch.objective == exact.objective == lcb(
                    model, exact.incumbent, 1.0)

    def test_single_training_point_example(self):
        # one training point: mu = k y / (k + s2), var = k s2 / (k + s2)
        k2 = complete_graph(2)
        hyper = KernelHyperparams(alpha=1.0, beta=0.0)
        model = GpModel.build([k2], [2.0], KernelVariant.SSP, hyper)
        k = k_combined(k2, k2, KernelVariant.SSP, hyper)
        s2 = model.noise_var
        closed = 2.0 * k / (k + s2) - math.sqrt(k * s2 / (k + s2))
        assert abs(lcb(model, k2, 1.0) - closed) < 1e-10
        dom = DomainSpec(n=2, num_labels=1)
        result = solve(model, dom, 1.0, strategy="branch_and_propagate")
        assert result.incumbent == k2
        assert result.objective == lcb(model, k2, 1.0)

    def test_disconnected_pruned(self, rng, monkeypatch):
        # no disconnected structure reaches the labeling scorer
        dom = DomainSpec(n=3, num_labels=1)
        model = fitted_model(rng, dom)
        scored = []

        def recording(domain, adjacency, dist):
            scored.append(adjacency.copy())
            return structure_profiles(domain, adjacency, dist)

        monkeypatch.setattr(solve_module, "structure_profiles", recording)
        with pytest.raises(DisconnectedError):
            build_graph(np.zeros((3, 3), dtype=int), np.ones((3, 1), dtype=int),
                        False, 1)
        solve(model, dom, 0.0, strategy="branch_and_propagate")
        assert scored
        assert all(is_connected(adjacency, False) for adjacency in scored)

    def test_user_row_violation_pruned(self, rng):
        base = DomainSpec(n=3, num_labels=1)
        model = fitted_model(rng, base)
        constrained = DomainSpec(n=3, num_labels=1,
                                 extra_rows=(LinearRow(adjacency=((0, 1, 1.0),),
                                                       sense="<=", rhs=0.0),))
        assert domain_feasible(base, complete_graph(3))
        assert not domain_feasible(constrained, complete_graph(3))
        result = solve(model, constrained, 1.0, strategy="branch_and_propagate")
        assert domain_feasible(constrained, result.incumbent)
        assert result.incumbent.adjacency[0, 1] == 0


class TestDualBound:
    def _full_assignment(self, g, dom):
        pa = PartialAssignment.root(dom, g.n)
        for u, v in adjacency_pairs(g.n, dom.directed):
            pa.set_adj(u, v, g.adjacency[u, v])
        return pa

    def test_degenerate_interval_equals_leaf(self, rng):
        # at a fixed structure the bound is the LCB itself, less the
        # mean's rounding slack, when the domain has one label, and below
        # every labeling's LCB with two
        for dom in (DomainSpec(n=4, num_labels=1), DomainSpec(n=3, num_labels=2)):
            model = fitted_model(rng, dom)
            ctx = solve_module._BoundContext(model, 1.0, dom)
            train_profiles = {(tuple(p.summary.length_counts),
                               tuple(p.summary.feature_sums)) for p in model.points}
            structures = {}
            for g in enumerate_domain(dom):
                structures.setdefault(g.adjacency.tobytes(), []).append(g)
            checked = 0
            for labelings in structures.values():
                bound = dual_bound(self._full_assignment(labelings[0], dom), model, 1.0)
                best = min(lcb(model, g, 1.0) for g in labelings)
                if dom.num_labels == 1:
                    g, = labelings
                    if (tuple(g.summary.length_counts),
                            tuple(g.summary.feature_sums)) in train_profiles:
                        continue  # sigma ~ 0 there; sqrt amplifies float noise
                    k = cross_gram(StackedSummaries.build([g]), model.profile,
                                   model.variant, model.hyper)[0]
                    slack = 2 * ctx.gamma * float(ctx.w_abs @ np.abs(k))
                    assert bound == pytest.approx(best - slack, abs=1e-9)
                assert bound <= best
                checked += 1
            assert checked >= 4

    @pytest.mark.parametrize("variant", list(KernelVariant))
    @pytest.mark.parametrize("n", [4, 5])
    def test_box_at_complete_structure_is_the_gp_kernel(self, rng, n, variant):
        # at one label a structure is one graph: its kernel box is the point
        # the GP predicts with and its self-kernel bound the GP's self kernel
        dom = DomainSpec(n=n, num_labels=1)
        model = fitted_model(rng, dom, variant=variant)
        graphs = list(enumerate_domain(dom))
        profiles = StackedSummaries.build(graphs)
        kx = cross_gram(profiles, model.profile, variant, model.hyper)
        kxx = self_kernel_parts(profiles, variant, model.hyper)
        states = np.stack([g.adjacency + np.eye(n, dtype=np.int8) for g in graphs])
        lo, hi = solve_module._distance_intervals(states, n)
        ctx = solve_module._BoundContext(model, 1.0, dom)
        # every structure in one stack, as a batched subtree reads them, and
        # each in a stack of its own, as dual_bound reads it
        for rows in [slice(None)] + [slice(i, i + 1) for i in range(len(graphs))]:
            k_lo, k_hi, kxx_hi = ctx.boxes(n, lo[rows], hi[rows])
            assert (k_lo == kx[rows]).all() and (k_hi == kx[rows]).all()
            assert (kxx_hi == kxx[rows]).all()

    @pytest.mark.parametrize("variant", list(KernelVariant))
    def test_root_bound_below_enumeration_minimum(self, rng, variant):
        dom = DomainSpec(n=4, num_labels=2)
        model = fitted_model(rng, dom, variant=variant)
        root = dual_bound(PartialAssignment.root(dom, dom.n), model, 1.0)
        best = min(lcb(model, g, 1.0) for g in enumerate_domain(dom))
        assert root <= best + 1e-9

    @pytest.mark.parametrize("variant", list(KernelVariant))
    @pytest.mark.parametrize("dom", [DomainSpec(n=4, num_labels=2),
                                     DomainSpec(n=4, n_min=2, num_labels=2)],
                             ids=["n4_2labels", "bounded_2_4"])
    def test_sound_on_random_partial_assignments(self, rng, dom, variant):
        # the bound never exceeds the best completion of the fixed bits
        model = fitted_model(rng, dom, variant=variant)
        candidates = list(enumerate_domain(dom))
        checked = 0
        for _ in range(15):
            pa = PartialAssignment.root(dom, int(rng.choice(dom.sizes)))
            bits = adjacency_pairs(pa.size, dom.directed)
            for idx in rng.permutation(len(bits))[: int(rng.integers(1, 8))]:
                a, b = bits[idx]
                pa.set_adj(a, b, int(rng.integers(0, 2)))
            sub = pa.adj[: pa.size, : pa.size]
            completions = [
                g for g in candidates
                if g.n == pa.size
                and all((sub[u, v] == -1 or sub[u, v] == g.adjacency[u, v])
                        for u, v in adjacency_pairs(pa.size, True))
            ]
            bound = dual_bound(pa, model, 1.0)
            if not completions:
                continue
            best = min(lcb(model, g, 1.0) for g in completions)
            assert bound <= best
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("variant", list(KernelVariant))
    @pytest.mark.parametrize("dom", [
        DomainSpec(n=5, num_labels=2),
        DomainSpec(n=5, n_min=2, num_labels=1),
        DomainSpec(n=4, num_labels=2, num_features=3),
        DomainSpec(n=4, num_labels=3, degree_caps=(3, 2, 1)),
        DomainSpec(n=3, num_labels=2, directed=True),
    ], ids=["n5_2labels", "bounded_2_5", "n4_extra_feature", "n4_3labels_caps",
            "directed_n3"])
    def test_structure_bound_below_every_labeling(self, dom, variant):
        # no tolerance: a structure's bound is at or below predict's LCB at
        # each of its feasible labelings, roundoff included. Without the
        # rounding slack it exceeded them by up to 9.5e-6 on such models
        # (10 points, |w| up to 2e6)
        checked = 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            points = [sample_feasible(dom, rng) for _ in range(10)]
            model = fit(points, rng.normal(size=10), variant, seed=seed)
            ctx = solve_module._BoundContext(model, 1.0, dom)
            for size in dom.sizes:
                for block in _structures(dom, size):
                    for adjacency, dist in zip(*block):
                        bound, = ctx.row_bounds(ctx.boxes(size, dist[None], dist[None]))
                        for profiles, features in structure_profiles(dom, adjacency, dist):
                            if len(features):
                                mu, var = predict(model, profiles)
                                assert bound <= (mu - np.sqrt(var)).min()
                                checked += 1
        assert checked >= 18

    @pytest.mark.parametrize("variant", list(KernelVariant))
    @pytest.mark.parametrize("dom", [
        DomainSpec(n=4, num_labels=2),
        DomainSpec(n=5, num_labels=1),
        DomainSpec(n=4, num_labels=2, num_features=3),
        DomainSpec(n=4, n_min=2, num_labels=2),
        DomainSpec(n=3, num_labels=2, directed=True),
    ], ids=["n4_2labels", "n5_1label", "n4_extra_feature", "bounded_2_4",
            "directed_n3"])
    def test_matches_reference_bound(self, rng, dom, variant):
        model = fitted_model(rng, dom, t=6, variant=variant)
        finite = 0
        for trial in range(120):
            pa = random_partial(rng, dom, fixed_share=(trial % 6 + 1) / 6)
            bound = dual_bound(pa, model, 1.0)
            assert bound == reference_bound(pa, model, 1.0)
            finite += math.isfinite(bound)
        assert finite >= 20

    def test_monotone_along_random_paths(self, rng):
        dom = DomainSpec(n=4, n_min=2, num_labels=2)
        model = fitted_model(rng, dom)
        for _ in range(10):
            pa = PartialAssignment.root(dom, int(rng.choice(dom.sizes)))
            previous = dual_bound(pa, model, 1.0)
            bits = adjacency_pairs(pa.size, dom.directed)
            for idx in rng.permutation(len(bits)):
                a, b = bits[idx]
                pa.set_adj(a, b, int(rng.integers(0, 2)))
                current = dual_bound(pa, model, 1.0)
                assert current >= previous - 1e-9
                previous = current
                if current == math.inf:
                    break


class TestBatchedBounds:
    """``_BoundContext.row_bounds`` bounds every state of a stack in one
    pass; each state's bound must not depend on the stack it sits in."""

    @pytest.mark.parametrize("t", [1, 8, 25])
    @pytest.mark.parametrize("variant", list(KernelVariant))
    @pytest.mark.parametrize("dom", [DomainSpec(n=5, num_labels=1),
                                     DomainSpec(n=5, num_labels=2)],
                             ids=["n5_1label", "n5_2labels"])
    def test_rows_equal_stacks_of_one_and_the_scalar_formula(self, rng, dom, variant, t):
        # states from the root, where most z intervals straddle 0, down to
        # complete structures, whose boxes are points with one label
        if t == 1:  # below what a fit takes: fixed hyperparameters
            model = GpModel.build([sample_feasible(dom, rng)], [rng.normal()], variant,
                                  KernelHyperparams(alpha=2.0, beta=0.5, sigma_k_sq=0.7))
        else:
            model = fitted_model(rng, dom, t=t, variant=variant)
        ctx = solve_module._BoundContext(model, 1.0, dom)
        straddles = checked = 0
        for share in (0.0, 0.4, 1.0):
            states = []
            while len(states) < 127:
                pa = PartialAssignment.root(dom, dom.n)
                for a, b in adjacency_pairs(dom.n, dom.directed):
                    if rng.random() < share:
                        pa.set_adj(a, b, int(rng.integers(0, 2)))
                if math.isfinite(dual_bound(pa, model, 1.0)):
                    states.append(pa.adj)
            lo, hi = solve_module._distance_intervals(np.stack(states), dom.n)
            boxes = ctx.boxes(dom.n, lo, hi)
            # the whole stack, and every third row of it: a stack whose
            # rows are not contiguous in memory
            for rows in (slice(None), slice(1, None, 3)):
                stack = tuple(part[rows] for part in boxes)
                bounds = ctx.row_bounds(stack)
                assert len(bounds) == len(stack[0])
                for row, value in enumerate(bounds):
                    one = tuple(part[row : row + 1] for part in stack)
                    reference, straddle = scalar_row_bound(ctx, stack, row)
                    assert value == ctx.row_bounds(one)[0]
                    assert value == reference
                    straddles += straddle
                    checked += 1
        assert checked > 300
        if t > 1:
            assert straddles


class TestFinalTies:
    """Branch-and-propagate keeps the labelings that improve or tie its
    incumbent as (adjacency, features) pairs and builds graphs only for
    the final ties."""

    @pytest.mark.parametrize("variant", list(KernelVariant))
    @pytest.mark.parametrize("dom", [DomainSpec(n=5, num_labels=1),
                                     DomainSpec(n=4, num_labels=2)],
                             ids=["n5_1label", "n4_2labels"])
    def test_builds_only_the_graphs_handed_to_the_tie_break(self, rng, monkeypatch,
                                                           dom, variant):
        model = fitted_model(rng, dom, t=8, variant=variant)
        warm = [sample_feasible(dom, rng) for _ in range(3)]
        *_, incumbent = reference_search(model, dom, 1.0)
        built, handed = [], []

        def counting_build(*args):
            built.append(args)
            return build_graph(*args)

        def recording_relabeling(graphs):
            handed.append(list(graphs))
            return smallest_relabeling(graphs)

        monkeypatch.setattr(solve_module, "build_graph", counting_build)
        monkeypatch.setattr(solve_module, "smallest_relabeling", recording_relabeling)
        result = solve(model, dom, 1.0, strategy="branch_and_propagate",
                       warm_start=warm)
        assert result.status == "Optimal"
        assert result.incumbent == incumbent
        tie_break, = handed
        searched = [g for g in tie_break if not any(g is w for w in warm)]
        assert len(built) == len(searched) == result.stats["graphs_built"]


class TestSolveStats:
    def test_branch_and_propagate_counts_its_work(self, rng):
        dom = DomainSpec(n=4, num_labels=2)
        model = fitted_model(rng, dom)
        result = solve(model, dom, 1.0, strategy="branch_and_propagate")
        stats = result.stats
        assert set(stats) == {"nodes", "structures_scored", "graphs_built"}
        assert stats["nodes"] == result.nodes_explored == 6  # connected classes
        assert 1 <= stats["structures_scored"] <= stats["nodes"]
        assert stats["graphs_built"] >= 1

    def test_enumerate_reports_rows_build_time_and_cache_hits(self, rng):
        dom = DomainSpec(n=4, num_labels=2)
        model = fitted_model(rng, dom)
        solve_module._profile_tables.clear()
        cold, warm = (solve(model, dom, 1.0, strategy="enumerate") for _ in range(2))
        for result, hit in ((cold, False), (warm, True)):
            assert set(result.stats) == {"rows", "table_s", "cache_hit"}
            assert result.stats["rows"] == result.nodes_explored
            assert result.stats["cache_hit"] is hit
            assert 0.0 <= result.stats["table_s"] <= result.wall_time

    def test_positional_constructor_defaults_to_empty_stats(self):
        result = solve_module.SolveResult(None, None, math.inf, "Infeasible", 0, 0.0)
        assert result.stats == {}


class TestSolve:
    def test_unique_feasible_graph(self, rng):
        dom = DomainSpec(n=1, num_labels=1)
        big = DomainSpec(n=3, num_labels=1)
        model = fitted_model(rng, big, t=4)
        for strategy in SolveStrategy:
            result = solve(model, dom, 1.0, strategy=strategy)
            assert result.status == "Optimal"
            assert result.incumbent.n == 1

    @pytest.mark.parametrize("variant", list(KernelVariant))
    def test_strategies_agree(self, rng, variant):
        dom = DomainSpec(n=4, num_labels=2)
        for _ in range(3):
            model = fitted_model(rng, dom, variant=variant)
            r1 = solve(model, dom, 1.0, strategy="enumerate")
            r2 = solve(model, dom, 1.0, strategy="branch_and_propagate")
            assert r1.status == r2.status == "Optimal"
            assert abs(r1.objective - r2.objective) <= 1e-6
            assert r2.bound <= r2.objective

    def test_infeasible_domain(self, rng):
        base = DomainSpec(n=3, num_labels=1)
        model = fitted_model(rng, base)
        impossible = DomainSpec(n=3, num_labels=1, degree_caps=(1,))
        for strategy in SolveStrategy:
            result = solve(model, impossible, 1.0, strategy=strategy)
            assert result.status == "Infeasible"
            assert result.incumbent is None

    def test_deterministic(self, rng):
        dom = DomainSpec(n=4, num_labels=2)
        model = fitted_model(rng, dom)
        r1 = solve(model, dom, 1.0, strategy="branch_and_propagate")
        r2 = solve(model, dom, 1.0, strategy="branch_and_propagate")
        assert r1.incumbent == r2.incumbent
        assert r1.objective == r2.objective
        assert r1.nodes_explored == r2.nodes_explored

    def test_warm_start_does_not_change_optimum(self, rng):
        dom = DomainSpec(n=4, num_labels=2)
        model = fitted_model(rng, dom)
        cold = solve(model, dom, 1.0, strategy="branch_and_propagate")
        warm_graphs = [sample_feasible(dom, s) for s in range(5)]
        warm = solve(model, dom, 1.0, strategy="branch_and_propagate",
                     warm_start=warm_graphs)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.nodes_explored <= cold.nodes_explored

    def test_enumerate_lexicographic_tie_break(self, rng):
        dom = DomainSpec(n=3, num_labels=1)
        # constant-mean model: every graph with the same profile ties
        points = [sample_feasible(dom, rng) for _ in range(3)]
        model = GpModel.build(points, np.zeros(3), KernelVariant.SSP,
                              KernelHyperparams(alpha=1.0, beta=1.0))
        result = solve(model, dom, 0.0, strategy="enumerate")
        candidates = list(enumerate_domain(dom))
        values = [lcb(model, g, 0.0) for g in candidates]
        best = min(values)
        first = next(g for g, v in zip(candidates, values) if v == best)
        assert result.incumbent == first

    @pytest.mark.parametrize("dom", [DomainSpec(n=3, num_labels=1),
                                     DomainSpec(n=4, n_min=2, num_labels=2)],
                             ids=["n3", "bounded_2_4_labels"])
    def test_branch_and_propagate_lexicographic_tie_break(self, dom):
        # zero targets and beta 0: every graph and every node bound is
        # exactly 0, so the first incumbent found (the complete graph) ties
        # every node, and the smallest graph lies in a later structure and
        # labeling
        points = [sample_feasible(dom, s) for s in range(3)]
        model = GpModel.build(points, np.zeros(3), KernelVariant.SSP,
                              KernelHyperparams(alpha=1.0, beta=1.0))
        result = solve(model, dom, 0.0, strategy="branch_and_propagate")
        assert result.status == "Optimal"
        assert result.incumbent == next(enumerate_domain(dom))

    def test_budget_exhaustion_reports_honest_status(self, rng):
        dom = DomainSpec(n=4, num_labels=2)
        model = fitted_model(rng, dom)
        result = solve(model, dom, 1.0, strategy="branch_and_propagate",
                       budget=0.0)
        assert result.status in ("FeasibleTimeLimit", "BudgetExhausted")
        exact = solve(model, dom, 1.0, strategy="enumerate")
        assert result.bound <= exact.objective + 1e-9
        if result.objective is not None:
            assert result.objective >= exact.objective - 1e-9

    def test_wide_feature_domain_honours_the_budget(self, rng):
        # 2**87 labelings per structure: the search polls its budget between
        # blocks of labelings instead of scoring them all
        wide = DomainSpec(n=3, num_labels=1, num_features=30)
        model = fitted_model(rng, wide)
        start = time.monotonic()
        result = solve(model, wide, 1.0, strategy="branch_and_propagate",
                       budget=0.5)
        assert time.monotonic() - start < 5.0
        assert result.status in ("FeasibleTimeLimit", "BudgetExhausted")
        assert result.bound <= (math.inf if result.objective is None
                                else result.objective)
        if result.incumbent is not None:
            assert result.objective == lcb(model, result.incumbent, 1.0)

    def test_enumerate_budget_covers_cold_build(self, rng):
        dom = DomainSpec(n=4, num_labels=2)
        model = fitted_model(rng, dom)
        solve_module._profile_tables.clear()
        cut = solve(model, dom, 1.0, strategy="enumerate", budget=0.0)
        assert cut.status in ("FeasibleTimeLimit", "BudgetExhausted")
        assert cut.bound == -math.inf
        assert not solve_module._profile_tables
        full = solve(model, dom, 1.0, strategy="enumerate")
        assert full.status == "Optimal"
        assert full.bound == full.objective

    @pytest.mark.parametrize("strategy", list(SolveStrategy))
    @pytest.mark.parametrize("variant", list(KernelVariant))
    def test_label_scheme_mismatch_raises(self, rng, strategy, variant):
        # an L=1 model on an L=2 domain of the same feature width
        model = fitted_model(rng, DomainSpec(n=3, num_labels=1, num_features=2),
                             variant=variant)
        with pytest.raises(DimensionMismatchError):
            solve(model, DomainSpec(n=3, num_labels=2, num_features=2), 1.0,
                  strategy=strategy)

    def test_enumerate_scheme_mismatch_fails_before_table_build(self, rng):
        model = fitted_model(rng, DomainSpec(n=4, num_labels=1, num_features=2))
        solve_module._profile_tables.clear()
        with pytest.raises(DimensionMismatchError):
            solve(model, DomainSpec(n=4, num_labels=2), 1.0, strategy="enumerate")
        assert not solve_module._profile_tables

    @pytest.mark.parametrize("strategy", list(SolveStrategy))
    def test_directedness_mismatch_raises(self, rng, strategy):
        model = fitted_model(rng, DomainSpec(n=3, num_labels=1))
        directed = DomainSpec(n=3, directed=True, num_labels=1)
        with pytest.raises(IncompatibleDomainError):
            solve(model, directed, 1.0, strategy=strategy)
        with pytest.raises(IncompatibleDomainError):
            dual_bound(PartialAssignment.root(directed, 3), model, 1.0)

    @pytest.mark.parametrize("strategy", list(SolveStrategy))
    def test_negative_beta_sqrt_raises_before_table_build(self, rng, strategy):
        dom = DomainSpec(n=3, num_labels=2)
        model = fitted_model(rng, dom)
        solve_module._profile_tables.clear()
        with pytest.raises(ValueError):
            solve(model, dom, -1.0, strategy=strategy)
        assert not solve_module._profile_tables

    @pytest.mark.parametrize("variant", list(KernelVariant))
    @pytest.mark.parametrize("dom", [
        DomainSpec(n=4, num_labels=2),
        DomainSpec(n=5, num_labels=1),
        DomainSpec(n=4, n_min=2, num_labels=2),
        DomainSpec(n=3, num_labels=2, directed=True),
        DomainSpec(n=4, num_labels=2, degree_caps=(1, 3)),
        DomainSpec(n=4, num_labels=2, label_count_bounds=((1, 2), (0, 4))),
        DomainSpec(n=4, num_labels=1,
                   extra_rows=(LinearRow(adjacency=((0, 1, 1.0),), sense="<=",
                                         rhs=0.0),)),
        DomainSpec(n=3, n_min=1, num_labels=2),
        DomainSpec(n=4, n_min=2, num_labels=2, label_count_bounds=((2, 3), (1, 3))),
        DomainSpec(n=3, n_min=2, num_labels=1, directed=True),
    ], ids=["n4_2labels", "n5_1label", "bounded_2_4", "directed_n3",
            "degree_caps", "label_counts", "extra_row", "bounded_1_3",
            "bounded_label_counts", "bounded_directed"])
    def test_search_matches_reference_search(self, rng, dom, variant):
        # bounded_label_counts skips size 2: no counts within the bounds
        # sum to 2
        model = fitted_model(rng, dom, t=6, variant=variant)
        result = solve(model, dom, 1.0, strategy="branch_and_propagate")
        status, objective, bound, incumbent = reference_search(model, dom, 1.0)
        assert result.status == status
        assert repr(result.objective) == repr(objective)
        assert repr(result.bound) == repr(bound)
        assert result.incumbent == incumbent

    def test_user_row_ties_break_like_enumerate(self):
        # |w| near 2e6, so the mean rounds by up to about 1e-5, and user
        # rows leave every numbering in the search: each numbering that
        # ties the optimum must be scored for the smallest sort key to win
        dom = DomainSpec(n=6, num_labels=1,
                         extra_rows=(LinearRow(adjacency=((0, 1, 1.0),), sense="<=",
                                               rhs=0.0),))
        rng = np.random.default_rng(0)
        points = [sample_feasible(dom, rng) for _ in range(10)]
        model = fit(points, rng.normal(size=10), KernelVariant.SSP, seed=0)
        exact, branch = (solve(model, dom, 1.0, strategy=s)
                         for s in ("enumerate", "branch_and_propagate"))
        assert exact.status == branch.status == "Optimal"
        assert repr(branch.objective) == repr(exact.objective)
        assert branch.incumbent == exact.incumbent

    @staticmethod
    def _frozen_clock(monkeypatch):
        """A clock at 0 until the test moves it."""
        class Clock:
            now = 0.0

            def monotonic(self):
                return self.now

        clock = Clock()
        monkeypatch.setattr(solve_module, "time", clock)
        return clock

    @staticmethod
    def _expire_at_structure(monkeypatch, count):
        """A frozen clock that runs out when the search hands its
        ``count``-th structure to the labeling scorer; returns the list of
        structures handed over."""
        clock = TestSolve._frozen_clock(monkeypatch)
        scored = []

        def expiring(domain, adjacency, dist):
            assert clock.now == 0.0, "a structure was scored after the budget ran out"
            scored.append(adjacency)
            if len(scored) == count:
                clock.now = 1e9
            return structure_profiles(domain, adjacency, dist)

        monkeypatch.setattr(solve_module, "structure_profiles", expiring)
        return scored

    def test_budget_expires_inside_a_size(self, rng, monkeypatch):
        # the third structure's labeling poll ends the search: its labelings
        # go unscored, and the size's root bound keeps the bound valid
        dom = DomainSpec(n=5, num_labels=1)
        model = fitted_model(rng, dom)
        warm = [sample_feasible(dom, s) for s in range(3)]
        exact = solve(model, dom, 1.0, strategy="enumerate")
        scored = self._expire_at_structure(monkeypatch, 3)
        result = solve(model, dom, 1.0, budget=10.0, strategy="branch_and_propagate",
                       warm_start=warm)
        assert len(scored) == 3
        assert result.status == "FeasibleTimeLimit"
        assert result.bound <= result.objective
        assert result.bound <= exact.objective
        assert result.bound == min(result.objective, dual_bound(
            PartialAssignment.root(dom, 5), model, 1.0))

    def test_budget_expires_inside_the_largest_size(self, monkeypatch):
        # targets grow with the graph size, so the optimum has 2 nodes; the
        # budget runs out at the first structure of 4 nodes, the sizes below
        # are never searched, and their root bounds keep the bound valid
        dom = DomainSpec(n=4, n_min=2, num_labels=1)
        rng = np.random.default_rng(0)
        points = [sample_feasible(dom, rng) for _ in range(6)]
        model = fit(points, [float(g.n) for g in points], KernelVariant.SSP, seed=0)
        exact = solve(model, dom, 1.0, strategy="enumerate")
        assert exact.incumbent.n < dom.n
        scored = self._expire_at_structure(monkeypatch, 1)
        result = solve(model, dom, 1.0, budget=10.0, strategy="branch_and_propagate")
        assert [len(adjacency) for adjacency in scored] == [4]
        assert (result.status, result.incumbent) == ("BudgetExhausted", None)
        assert result.bound == min(dual_bound(PartialAssignment.root(dom, size), model, 1.0)
                                   for size in dom.sizes)
        assert result.bound <= exact.objective

    def test_class_table_build_honours_the_budget(self, monkeypatch):
        # undirected n=9 without user rows reads the 261,080 classes of 9
        # nodes, built from 2.8M candidates; the clock runs out at the third
        # block of the build, no block runs after it, the unfinished table
        # is not kept, and the warm start is returned with the root bound
        dom = DomainSpec(n=9, num_labels=1)
        rng = np.random.default_rng(0)
        points = [sample_feasible(dom, rng) for _ in range(4)]
        model = GpModel.build(points, rng.normal(size=4), KernelVariant.SSP,
                              KernelHyperparams())
        clock = self._frozen_clock(monkeypatch)
        smallest = graphs_module._smallest_numberings
        blocks = []

        def counted(adjacency, features):
            assert clock.now == 0.0, "a build block ran after the budget ran out"
            blocks.append(len(adjacency))
            if len(blocks) == 3:
                clock.now = 1e9
            return smallest(adjacency, features)

        monkeypatch.setattr(graphs_module, "_smallest_numberings", counted)
        result = solve(model, dom, 1.0, budget=10.0, strategy="branch_and_propagate",
                       warm_start=points[:1])
        assert len(blocks) == 3 and max(blocks) <= graphs_module.BLOCK
        assert 9 not in graphs_module._class_tables
        assert (result.status, result.incumbent) == ("FeasibleTimeLimit", points[0])
        assert result.nodes_explored == 0
        assert result.bound == min(result.objective, dual_bound(
            PartialAssignment.root(dom, 9), model, 1.0))

    @pytest.mark.parametrize("dom", [
        DomainSpec(n=6, num_labels=1, directed=True),
        DomainSpec(n=10, num_labels=1),
    ], ids=["directed_n6", "undirected_n10"])
    def test_budget_runs_out_in_a_stretch_of_empty_blocks(self, dom, monkeypatch):
        # both sizes walk every adjacency code, and their first 2**25 and
        # 2**36 codes give node 0 no out-edge, so no block there holds a
        # connected structure; each such block is still polled, and the
        # budget ends the walk after the block it runs out in
        assert graphs_module._walks(dom, dom.n)
        rng = np.random.default_rng(0)
        points = [sample_feasible(dom, rng) for _ in range(3)]
        model = GpModel.build(points, rng.normal(size=3), KernelVariant.SSP,
                              KernelHyperparams())
        clock = self._frozen_clock(monkeypatch)
        code_adjacency = graphs_module._code_adjacency
        blocks = []

        def counted(codes, n, directed):
            assert clock.now == 0.0, "a block was walked after the budget ran out"
            blocks.append(codes)
            if len(blocks) == 20:
                clock.now = 1e9
            return code_adjacency(codes, n, directed)

        monkeypatch.setattr(graphs_module, "_code_adjacency", counted)
        monkeypatch.setattr(graphs_module, "_class_steps", None)  # never built
        result = solve(model, dom, 1.0, budget=10.0, strategy="branch_and_propagate")
        assert len(blocks) == 20 and blocks[-1][-1] < 1 << 25
        assert (result.status, result.incumbent, result.nodes_explored) == \
            ("BudgetExhausted", None, 0)

    def test_structures_bound_as_full_assignments(self, rng, monkeypatch):
        # every bounded structure's bound equals a fresh dual_bound of the
        # partial assignment that fixes all of its edge bits
        chunks, bounds = [], []
        structure_chunks = solve_module._structure_chunks
        row_bounds = solve_module._BoundContext.row_bounds

        def recorded_chunks(domain, size):
            for chunk in structure_chunks(domain, size):
                chunks.append(chunk)
                yield chunk

        def recorded_bounds(self, boxes):
            bounds.append(row_bounds(self, boxes))
            return bounds[-1]

        monkeypatch.setattr(solve_module, "_structure_chunks", recorded_chunks)
        monkeypatch.setattr(solve_module._BoundContext, "row_bounds", recorded_bounds)
        checked = 0
        for dom in (DomainSpec(n=4, num_labels=2), DomainSpec(n=5, n_min=2, num_labels=2),
                    DomainSpec(n=4, num_labels=1, directed=True),
                    DomainSpec(n=4, num_labels=1,
                               extra_rows=(LinearRow(adjacency=((0, 1, 1.0),)),))):
            chunks.clear()
            bounds.clear()
            model = fitted_model(rng, dom)
            solve(model, dom, 1.0, strategy="branch_and_propagate")
            assert len(chunks) == len(bounds)
            for (adjacency, _), chunk_bounds in zip(chunks, bounds):
                for structure, bound in zip(adjacency, chunk_bounds):
                    pa = PartialAssignment.root(dom, len(structure))
                    for u, v in adjacency_pairs(pa.size, dom.directed):
                        pa.set_adj(u, v, structure[u, v])
                    assert bound == dual_bound(pa, model, 1.0)
                    checked += 1
        assert checked > 100

    def test_requires_fitted_model(self):
        empty = GpModel.build([], [], KernelVariant.SSP, KernelHyperparams())
        with pytest.raises(UnfittedModelError):
            solve(empty, DomainSpec(n=2, num_labels=1), 1.0)

    def test_enumerate_guard(self, rng):
        from graphbo.errors import DomainTooLargeError

        huge = DomainSpec(n=3, num_labels=1, num_features=30)
        model = fitted_model(rng, huge)
        with pytest.raises(DomainTooLargeError):
            solve(model, huge, 1.0, strategy="enumerate")

    def test_final_log_line(self, rng, caplog):
        dom = DomainSpec(n=3, num_labels=1)
        model = fitted_model(rng, dom)
        with caplog.at_level(logging.INFO, logger="graphbo.solve"):
            solve(model, dom, 1.0, strategy="branch_and_propagate")
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 1 and lines[0].startswith("status=Optimal")
        assert "gap=" in lines[0] and "time=" in lines[0] and "nodes=2" in lines[0]

    def test_bounded_domain_solve(self, rng):
        dom = DomainSpec(n=3, n_min=1, num_labels=2)
        model = fitted_model(rng, dom, t=5)
        r1 = solve(model, dom, 1.0, strategy="enumerate")
        r2 = solve(model, dom, 1.0, strategy="branch_and_propagate")
        assert r1.status == r2.status == "Optimal"
        assert abs(r1.objective - r2.objective) <= 1e-6

    def test_sort_key_matches_enumeration_order(self):
        dom = DomainSpec(n=3, num_labels=2)
        graphs = list(enumerate_domain(dom))
        keys = [graph_sort_key(g) for g in graphs]
        assert keys == sorted(keys)
