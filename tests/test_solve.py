"""Exact solver: feasibility checking, bijection counting, bounds, and the
agreement of both strategies."""

import importlib
import logging
import math

import numpy as np
import pytest

import graphbo
from graphbo import DomainSpec, KernelHyperparams, KernelVariant, LinearRow
from graphbo.encode import canonical_structural_assignment, encode_shortest_paths
from graphbo.errors import (
    DimensionMismatchError,
    IncompatibleDomainError,
    MissingVariableError,
    SpaceTooLargeError,
    UnfittedModelError,
)
from graphbo.gp import GpModel, fit, lcb
from graphbo.graphs import enumerate_domain, sample_feasible
from graphbo.solve import (
    PRUNED,
    PartialAssignment,
    SolveStrategy,
    branch_bits,
    check_feasible,
    count_feasible,
    dual_bound,
    graph_sort_key,
    propagate_leaf,
    solve,
)

from conftest import bfs_distances, complete_graph

solve_module = importlib.import_module("graphbo.solve")


def fitted_model(rng, dom, t=5, variant=KernelVariant.SSP):
    points = [sample_feasible(dom, rng) for _ in range(t)]
    return fit(points, rng.normal(size=t), variant, seed=int(rng.integers(1000)))


def reference_bound(pa, model, beta_sqrt):
    """The per-pair interval bound written out loop by loop: each node pair
    takes the min/max of every training point's counts over its distance
    range and allowed label pairs, with per-source BFS distances."""
    dom = pa.domain
    n, L, M = dom.n, dom.num_labels, dom.num_features
    hyper, variant = model.hyper, model.variant
    var = hyper.require_variance(variant)
    t = model.size
    profile = model.profile.resized(n)
    sizes = profile.sizes
    w_pos = np.clip(model.weights, 0.0, None)
    w_neg = np.clip(model.weights, None, 0.0)
    factor = model.inverse_factor()
    ct_pos, ct_neg = np.clip(factor, 0.0, None), np.clip(factor, None, 0.0)
    diag = np.diag(pa.adj)
    if (diag == -1).any():
        if variant.exponential:
            k_lo = np.full(t, hyper.alpha / var)
            k_hi = np.full(t, hyper.alpha * math.e / var + hyper.beta)
            kxx_hi = hyper.alpha * math.e / var + hyper.beta
        else:
            k_lo = np.full(t, 0.0)
            k_hi = np.full(t, hyper.alpha + hyper.beta)
            kxx_hi = hyper.alpha + hyper.beta
    else:
        nodes = [v for v in range(n) if diag[v] == 1]
        if not nodes:
            return math.inf
        npx = len(nodes)
        sub = pa.adj[np.ix_(nodes, nodes)]
        lo = bfs_distances(sub != 0, dom.directed)
        if (lo < 0).any():
            return math.inf
        hi = bfs_distances(sub == 1, dom.directed)
        hi = np.where(hi < 0, npx - 1, hi)
        label_sets = []
        for v in nodes:
            block = pa.feat[v, :L]
            fixed = [l for l in range(L) if block[l] == 1]
            options = fixed if fixed else [l for l in range(L) if block[l] != 0]
            if len(fixed) > 1 or not options:
                label_sets = None
                break
            label_sets.append(options)
        if variant.labeled and label_sets is None:
            return math.inf
        g_lo, g_hi = np.zeros(t), np.zeros(t)
        hi_counts = np.zeros((n, L, L)) if variant.labeled else np.zeros(n)
        for a in range(npx):
            for b in range(npx):
                s_lo = 0 if a == b else int(lo[a, b])
                s_hi = min(0 if a == b else int(hi[a, b]), n - 1)
                s_lo = min(s_lo, s_hi)
                if variant.labeled:
                    lu, lv = label_sets[a], label_sets[b]
                    block = profile.labeled_counts[:, s_lo:s_hi + 1][:, :, lu][:, :, :, lv]
                    g_lo += block.min(axis=(1, 2, 3))
                    g_hi += block.max(axis=(1, 2, 3))
                    for l1 in lu:
                        for l2 in lv:
                            hi_counts[s_lo:s_hi + 1, l1, l2] += 1
                else:
                    block = profile.length_counts[:, s_lo:s_hi + 1]
                    g_lo += block.min(axis=1)
                    g_hi += block.max(axis=1)
                    hi_counts[s_lo:s_hi + 1] += 1
        norm = (npx * npx) * (sizes.astype(float) ** 2)
        g_lo, g_hi = g_lo / norm, g_hi / norm
        n_lo, n_hi = np.zeros(M), np.zeros(M)
        for idx, v in enumerate(nodes):
            for m in range(M):
                state = pa.feat[v, m]
                if state == 1:
                    n_lo[m] += 1
                if m < L:
                    if label_sets is not None and m in label_sets[idx]:
                        n_hi[m] += 1
                elif state != 0:
                    n_hi[m] += 1
        f_lo = (profile.feature_sums @ n_lo) / (npx * sizes * M)
        f_hi = (profile.feature_sums @ n_hi) / (npx * sizes * M)
        if variant.exponential:
            k_lo = hyper.alpha * np.exp(g_lo) / var + hyper.beta * f_lo
            k_hi = hyper.alpha * np.exp(g_hi) / var + hyper.beta * f_hi
        else:
            k_lo = hyper.alpha * g_lo + hyper.beta * f_lo
            k_hi = hyper.alpha * g_hi + hyper.beta * f_hi
        self_lin_hi = min(1.0, float(np.sum(hi_counts ** 2)) / npx ** 4)
        self_graph_hi = math.exp(self_lin_hi) / var if variant.exponential else self_lin_hi
        self_feat_hi = min(1.0, float(np.dot(n_hi, n_hi)) / (npx * npx * M))
        kxx_hi = hyper.alpha * self_graph_hi + hyper.beta * self_feat_hi
    mu_lo = float(w_pos @ k_lo + w_neg @ k_hi)
    z_lo = ct_pos @ k_lo + ct_neg @ k_hi
    z_hi = ct_pos @ k_hi + ct_neg @ k_lo
    inner = np.where((z_lo <= 0.0) & (z_hi >= 0.0), 0.0,
                     np.minimum(np.abs(z_lo), np.abs(z_hi)))
    sigma_hi = math.sqrt(max(kxx_hi - float(np.dot(inner, inner)), 0.0))
    return mu_lo - beta_sqrt * sigma_hi


def random_partial(rng, dom, fixed_share):
    """Each structural bit (and, in bounded mode, each existence bit) fixed
    to a random value with probability ``fixed_share``."""
    pa = PartialAssignment.empty(dom)
    for kind, a, b in branch_bits(dom):
        if rng.random() < fixed_share:
            value = int(rng.integers(0, 2))
            if kind == "adj":
                pa.set_adj(a, b, value)
            else:
                pa.set_feat(a, b, value)
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
        import itertools

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
    def test_matches_gp_lcb(self, rng):
        dom = DomainSpec(n=3, num_labels=2)
        model = fitted_model(rng, dom)
        g = sample_feasible(dom, 5)
        value = propagate_leaf(g.adjacency + np.eye(3, dtype=int), g.features,
                               model, 1.0, dom)
        assert value == lcb(model, g, 1.0)

    def test_single_training_point_example(self):
        k2 = complete_graph(2)
        model = GpModel.build([k2], [2.0], KernelVariant.SSP,
                              KernelHyperparams(alpha=1.0, beta=0.0))
        dom = DomainSpec(n=2, num_labels=1)
        value = propagate_leaf(np.array([[1, 1], [1, 1]]), k2.features, model,
                               1.0, dom)
        assert abs(value - lcb(model, k2, 1.0)) < 1e-10

    def test_disconnected_pruned(self, rng):
        dom = DomainSpec(n=3, num_labels=1)
        model = fitted_model(rng, dom)
        adjacency = np.eye(3, dtype=int)
        features = np.ones((3, 1), dtype=int)
        assert propagate_leaf(adjacency, features, model, 1.0, dom) is PRUNED

    def test_user_row_violation_pruned(self, rng):
        base = DomainSpec(n=3, num_labels=1)
        model = fitted_model(rng, base)
        constrained = DomainSpec(n=3, num_labels=1,
                                 extra_rows=(LinearRow(adjacency=((0, 1, 1.0),),
                                                       sense="<=", rhs=0.0),))
        g = complete_graph(3)
        adjacency = g.adjacency + np.eye(3, dtype=int)
        assert propagate_leaf(adjacency, g.features, model, 1.0,
                              constrained) is PRUNED


class TestDualBound:
    def _full_assignment(self, g, dom):
        pa = PartialAssignment.empty(dom)
        n = dom.n
        for u in range(n):
            for v in range(n):
                if u != v:
                    pa.adj[u, v] = g.adjacency[u, v]
        pa.feat[:, :] = g.features
        return pa

    def test_degenerate_interval_equals_leaf(self, rng):
        dom = DomainSpec(n=3, num_labels=2)
        model = fitted_model(rng, dom)
        train_profiles = {(tuple(p.summary.length_counts),
                           tuple(p.summary.feature_sums)) for p in model.points}
        checked = 0
        for seed in range(20):
            g = sample_feasible(dom, seed)
            profile = (tuple(g.summary.length_counts), tuple(g.summary.feature_sums))
            if profile in train_profiles:
                continue  # sigma ~ 0 there; sqrt amplifies float noise
            pa = self._full_assignment(g, dom)
            bound = dual_bound(pa, model, 1.0)
            leaf = propagate_leaf(g.adjacency + np.eye(3, dtype=int), g.features,
                                  model, 1.0, dom)
            assert bound == pytest.approx(leaf, abs=1e-9)
            assert bound <= leaf + 1e-9
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("variant", list(KernelVariant))
    def test_root_bound_below_enumeration_minimum(self, rng, variant):
        dom = DomainSpec(n=4, num_labels=2)
        model = fitted_model(rng, dom, variant=variant)
        root = dual_bound(PartialAssignment.empty(dom), model, 1.0)
        best = min(lcb(model, g, 1.0) for g in enumerate_domain(dom))
        assert root <= best + 1e-9

    def test_sound_on_random_partial_assignments(self, rng):
        # the bound never exceeds the best completion of the fixed bits
        dom = DomainSpec(n=4, num_labels=2)
        model = fitted_model(rng, dom)
        candidates = list(enumerate_domain(dom))
        bits = branch_bits(dom)
        for _ in range(15):
            pa = PartialAssignment.empty(dom)
            chosen = rng.permutation(len(bits))[: int(rng.integers(1, 8))]
            for idx in chosen:
                kind, a, b = bits[idx]
                value = int(rng.integers(0, 2))
                if kind == "adj":
                    pa.set_adj(a, b, value)
                else:
                    pa.set_feat(a, b, value)
            completions = [
                g for g in candidates
                if all((pa.adj[u, v] == -1 or pa.adj[u, v] == g.adjacency[u, v])
                       for u in range(4) for v in range(4) if u != v)
                and all((pa.feat[v, m] == -1 or pa.feat[v, m] == g.features[v, m])
                        for v in range(4) for m in range(2))
            ]
            bound = dual_bound(pa, model, 1.0)
            if not completions:
                continue
            best = min(lcb(model, g, 1.0) for g in completions)
            assert bound <= best + 1e-9

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
            if not dom.fixed_size and trial % 2:
                # settle existence so the count-space bound is exercised
                size = int(rng.integers(dom.n_min, dom.n + 1))
                for v in range(dom.n):
                    pa.set_adj(v, v, int(v < size))
            bound = dual_bound(pa, model, 1.0)
            assert bound == reference_bound(pa, model, 1.0)
            finite += math.isfinite(bound)
        assert finite >= 20

    def test_monotone_along_random_paths(self, rng):
        dom = DomainSpec(n=4, num_labels=2)
        model = fitted_model(rng, dom)
        bits = branch_bits(dom)
        for _ in range(10):
            pa = PartialAssignment.empty(dom)
            previous = dual_bound(pa, model, 1.0)
            order = rng.permutation(len(bits))
            for idx in order[:8]:
                kind, a, b = bits[idx]
                value = int(rng.integers(0, 2))
                if kind == "adj":
                    pa.set_adj(a, b, value)
                else:
                    pa.set_feat(a, b, value)
                current = dual_bound(pa, model, 1.0)
                assert current >= previous - 1e-9
                previous = current
                if current == math.inf:
                    break


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
            dual_bound(PartialAssignment.empty(directed), model, 1.0)

    @pytest.mark.parametrize("strategy", list(SolveStrategy))
    def test_negative_beta_sqrt_raises_before_table_build(self, rng, strategy):
        dom = DomainSpec(n=3, num_labels=2)
        model = fitted_model(rng, dom)
        solve_module._profile_tables.clear()
        with pytest.raises(ValueError):
            solve(model, dom, -1.0, strategy=strategy)
        assert not solve_module._profile_tables

    def test_propagation_sets_forced_label_bits(self):
        dom = DomainSpec(n=5, n_min=2, num_labels=2, num_features=3)
        pa = PartialAssignment.empty(dom)
        for v, exists in enumerate((1, 1, 1, 0)):  # node 4's existence open
            pa.set_adj(v, v, exists)
        pa.set_feat(0, 0, 1)  # the block holds a 1
        pa.set_feat(1, 0, 0)  # one open label left on a present node
        pa.set_feat(4, 0, 0)  # one open label left on a node that may be absent
        forced = solve_module._propagate_labels(pa)
        assert pa.feat.tolist() == [[1, 0, -1], [0, 1, -1], [-1, -1, -1],
                                    [0, 0, 0], [0, -1, -1]]
        assert forced.sum() == 5
        assert not solve_module._propagate_labels(pa).any()

    def test_nodes_bound_with_fresh_intervals(self, rng, monkeypatch):
        # the distance intervals handed down the search are those of each
        # node's own adjacency state, so every node bound equals a fresh one
        context = solve_module._BoundContext
        bound = context.bound
        checked = 0
        model = None

        def fresh_bound(self, pa, intervals=None):
            nonlocal checked
            value = bound(self, pa, intervals)
            if intervals is not None:
                assert value == dual_bound(pa, model, 1.0)
                checked += 1
            return value

        monkeypatch.setattr(context, "bound", fresh_bound)
        for dom in (DomainSpec(n=4, num_labels=2), DomainSpec(n=4, n_min=2, num_labels=2)):
            model = fitted_model(rng, dom)
            solve(model, dom, 1.0, strategy="branch_and_propagate")
        assert checked > 500

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

    def test_log_line_format(self, rng, caplog):
        dom = DomainSpec(n=3, num_labels=1)
        model = fitted_model(rng, dom)
        with caplog.at_level(logging.INFO, logger="graphbo.solve"):
            solve(model, dom, 1.0, strategy="branch_and_propagate",
                  log_interval=1)
        node_lines = [r.getMessage() for r in caplog.records
                      if r.getMessage().startswith("node=")]
        assert node_lines
        assert all("depth=" in line and "bound=" in line and "incumbent=" in line
                   for line in node_lines)
        final = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("status=")]
        assert len(final) == 1 and "gap=" in final[0] and "time=" in final[0]

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
