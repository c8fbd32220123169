"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import contextlib
import math
import statistics

import numpy as np

import graphbo
from graphbo import (
    BoConfig,
    DomainSpec,
    KernelHyperparams,
    KernelVariant,
    build_graph,
    enumerate_domain,
    gram,
    sample_feasible,
)
from graphbo.bo import path_profile_target, random_baseline, run, synthetic_oracle
from graphbo.encode import canonical_assignment, encode_acquisition, encode_shortest_paths
from graphbo.gp import GpModel, fit, posterior
from graphbo.graphs import floyd_warshall
from graphbo.kernels import k_combined, k_feature, k_graph
from graphbo.modelio import export_model, piecewise_exp_error, read_lp, read_mps
from graphbo.solve import check_feasible, count_feasible, solve

from conftest import (
    bfs_distances,
    complete_graph,
    path_graph,
    random_connected_adjacency,
    random_graph,
)


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def kernel_profile(graph, variant):
    """Everything the variant's combined kernel can see of a graph."""
    s = graph.summary
    if variant.labeled:
        graph_part = tuple(s.labeled_counts.ravel())
    else:
        graph_part = tuple(s.length_counts)
    return (graph.n, graph_part, tuple(s.feature_sums))


def distinct_profile_training(rng, dom, count, variant):
    """Feasible samples pairwise-distinct in the variant's kernel geometry."""
    points, seen = [], set()
    while len(points) < count:
        g = sample_feasible(dom, rng)
        key = kernel_profile(g, variant)
        if key not in seen:
            seen.add(key)
            points.append(g)
    return points


def fitted_on_prior_draw(rng, dom, count, variant, restarts=4):
    """Fit to targets drawn from a unit-hyperparameter prior; keeps the
    fitted weights (and hence the conditioning) in a sane range."""
    points = distinct_profile_training(rng, dom, count, variant)
    hyper = KernelHyperparams(alpha=1.0, beta=1.0, sigma_k_sq=1.0)
    k = gram(points, variant, hyper) + 1e-6 * np.eye(count)
    y = np.linalg.cholesky(k + 1e-10 * np.eye(count)) @ rng.normal(size=count)
    return fit(points, y, variant, seed=int(rng.integers(1000)),
               restarts=restarts)


def test_01_bijection():
    with criterion(1, "shortest-path encoding is bijective with connected graphs"):
        cases = [(2, True), (3, True), (2, False), (3, False), (4, False)]
        for n, directed in cases:
            system = encode_shortest_paths(n, directed)
            feasible = count_feasible(system, n, directed)
            dom = DomainSpec(n=n, directed=directed, num_labels=1)
            connected = sum(1 for _ in enumerate_domain(dom))
            assert feasible == connected, (n, directed, feasible, connected)
        system = encode_shortest_paths((1, 3), True)
        feasible = count_feasible(system, (1, 3), True)
        per_size = [
            sum(1 for _ in enumerate_domain(
                DomainSpec(n=k, directed=True, num_labels=1)))
            for k in (1, 2, 3)
        ]
        assert feasible == sum(per_size) == 20


def test_02_kernel_values():
    with criterion(2, "frozen kernel values with brute-force cross-check"):
        unit = KernelHyperparams(alpha=1.0, beta=1.0, sigma_k_sq=1.0)

        def brute_graph(g1, g2, labeled):
            d1, d2 = g1.summary.dist, g2.summary.dist
            l1, l2 = g1.labels, g2.labels
            total = 0
            for u1 in range(g1.n):
                for v1 in range(g1.n):
                    for u2 in range(g2.n):
                        for v2 in range(g2.n):
                            if d1[u1, v1] != d2[u2, v2]:
                                continue
                            if labeled and (l1[u1] != l2[u2] or l1[v1] != l2[v2]):
                                continue
                            total += 1
            return total / (g1.n ** 2 * g2.n ** 2)

        def brute_feature(f1, f2):
            total = sum(int(np.dot(f1[v1], f2[v2]))
                        for v1 in range(f1.shape[0]) for v2 in range(f2.shape[0]))
            return total / (f1.shape[0] * f2.shape[0] * f1.shape[1])

        k2 = complete_graph(2)
        p3, k3 = path_graph(3), complete_graph(3)
        k2_aa = complete_graph(2, num_labels=2, labels=[0, 0])
        k2_ab = complete_graph(2, num_labels=2, labels=[0, 1])
        f1, f2 = np.array([[1, 0], [0, 1]]), np.array([[1, 0]])

        cases = [
            (k_graph(k2.summary, k2.summary, KernelVariant.SSP, unit), 0.5,
             brute_graph(k2, k2, False)),
            (k_graph(p3.summary, k3.summary, KernelVariant.SSP, unit), 33 / 81,
             brute_graph(p3, k3, False)),
            (k_graph(k2_aa.summary, k2_ab.summary, KernelVariant.SP, unit), 0.125,
             brute_graph(k2_aa, k2_ab, True)),
            (k_feature(f1, f2), 0.25, brute_feature(f1, f2)),
        ]
        for got, frozen, brute in cases:
            assert abs(got - frozen) <= 1e-12
            assert abs(got - brute) <= 1e-12


def test_03_gram_psd():
    with criterion(3, "Gram matrices positive semidefinite for all variants"):
        rng = np.random.default_rng(30)
        hyper = KernelHyperparams(alpha=1.3, beta=0.6, sigma_k_sq=2.5)
        for variant in KernelVariant:
            for _ in range(30):
                count = int(rng.integers(2, 21))
                points = [random_graph(rng, int(rng.integers(1, 7)), num_labels=2)
                          for _ in range(count)]
                matrix = gram(points, variant, hyper)
                assert np.linalg.eigvalsh(matrix)[0] >= -1e-8


def test_04_gp_against_dense_oracle():
    with criterion(4, "GP posterior matches the dense-inverse oracle"):
        rng = np.random.default_rng(40)
        variants = list(KernelVariant)
        checked = 0
        while checked < 50:
            variant = variants[checked % 4]
            points, seen = [], set()
            while len(points) < 6:
                g = random_graph(rng, int(rng.integers(2, 7)), num_labels=2)
                key = (g.n, tuple(g.summary.length_counts),
                       tuple(g.summary.labeled_counts.ravel()),
                       tuple(g.summary.feature_sums))
                if key not in seen:
                    seen.add(key)
                    points.append(g)
            hyper = KernelHyperparams(alpha=float(rng.uniform(0.1, 3.0)),
                                      beta=float(rng.uniform(0.1, 3.0)),
                                      sigma_k_sq=float(rng.uniform(0.5, 5.0)))
            k = gram(points, variant, hyper) + 1e-6 * np.eye(6)
            y = np.linalg.cholesky(k + 1e-10 * np.eye(6)) @ rng.normal(size=6)
            model = GpModel.build(points, y, variant, hyper)
            inv = np.linalg.inv(k)
            x = random_graph(rng, int(rng.integers(2, 7)), num_labels=2)
            kx = np.array([k_combined(x, p, variant, hyper) for p in points])
            mu_o = float(kx @ inv @ y)
            var_o = max(float(k_combined(x, x, variant, hyper) - kx @ inv @ kx), 0.0)
            mu, var = posterior(model, x)
            assert abs(mu - mu_o) <= 1e-8
            assert abs(var - var_o) <= 1e-8
            # near-interpolation at every training point (targets in the
            # kernel's span, noise 1e-6)
            y_span = (k - 1e-6 * np.eye(6)) @ rng.normal(size=6)
            interp = GpModel.build(points, y_span, variant, hyper)
            for i, p in enumerate(points):
                mu_i, var_i = posterior(interp, p)
                assert abs(mu_i - y_span[i]) <= 1e-4 * max(1.0, abs(y_span[i]))
                assert var_i <= 1e-4
            checked += 1


def test_05_encoding_posterior_consistency():
    with criterion(5, "acquisition model mean/deviation match the GP"):
        rng = np.random.default_rng(50)
        domains = [
            DomainSpec(n=3, num_labels=2),
            DomainSpec(n=4, num_labels=2),
            DomainSpec(n=4, directed=True, num_labels=2),
            DomainSpec(n=5, num_labels=2),
        ]
        checked = 0
        for variant in KernelVariant:
            for dom in domains:
                if dom.n == 5 and variant.labeled:
                    continue  # keep the run well under budget
                model = fitted_on_prior_draw(rng, dom, 5, variant)
                mip = encode_acquisition(model, dom, 1.0)
                profiles = {kernel_profile(p, variant) for p in model.points}
                done = 0
                while done < 9:
                    g = sample_feasible(dom, rng)
                    if kernel_profile(g, variant) in profiles:
                        continue  # sigma ~ 0 would amplify sqrt roundoff
                    mu, sigma = mip.mu_sigma_for(g)
                    mu_ref, var_ref = posterior(model, g)
                    assert abs(mu - mu_ref) <= 1e-8
                    assert abs(sigma - math.sqrt(var_ref)) <= 1e-8
                    asg = canonical_assignment(mip, g)
                    assert check_feasible(mip.block, asg, tol=1e-9)
                    done += 1
                    checked += 1
        assert checked >= 100


def test_06_solver_exactness():
    with criterion(6, "branch-and-propagate equals enumeration"):
        rng = np.random.default_rng(60)
        dom = DomainSpec(n=4, num_labels=2)
        variants = list(KernelVariant)
        for trial in range(20):
            model = fitted_on_prior_draw(rng, dom, 6, variants[trial % 4])
            exact = solve(model, dom, 1.0, strategy="enumerate")
            branch = solve(model, dom, 1.0, strategy="branch_and_propagate")
            assert branch.status == "Optimal"
            assert abs(branch.objective - exact.objective) <= 1e-6
            assert branch.incumbent == exact.incumbent


def test_07_export_fidelity(tmp_path):
    with criterion(7, "MPS/LP round-trip and piecewise-exp accuracy"):
        rng = np.random.default_rng(70)
        dom = DomainSpec(n=3, num_labels=2)
        points = [sample_feasible(dom, rng) for _ in range(4)]
        for variant in (KernelVariant.SSP, KernelVariant.ESP):
            model = fit(points, rng.normal(size=4), variant, seed=0, restarts=4)
            mip = encode_acquisition(model, dom, 1.0)
            for fmt, reader in (("mps", read_mps), ("lp", read_lp)):
                path = tmp_path / f"model_{variant.value}.{fmt}"
                flat = export_model(mip, path, fmt=fmt, breakpoints=64)
                parsed = reader(path)
                assert parsed.num_variables == len(flat.variables)
                assert parsed.num_constraints == len(flat.constraints)
                expected = {flat.names[vid]: coef
                            for vid, coef in flat.objective.items()}
                assert parsed.objective == expected
        assert piecewise_exp_error(64, grid_size=10_000) <= 1e-3


def test_08_optimization_beats_random():
    with criterion(8, "optimization reaches the target and beats random"):
        dom = DomainSpec(n=5, num_labels=2)
        oracle = synthetic_oracle("path_profile",
                                  {"target": path_profile_target(5)})
        bo_best, random_best = [], []
        for seed in range(10):
            config = BoConfig(variant=KernelVariant.SSP, beta_sqrt=1.0,
                              initial_samples=10, iterations=15,
                              warm_start_count=20, seed=seed,
                              strategy="enumerate", solver_budget=600.0)
            bo_best.append(run(oracle, dom, config).best_y)
            random_best.append(random_baseline(oracle, dom, config).best_y)
        assert statistics.median(bo_best) < statistics.median(random_best)
        assert sum(1 for v in bo_best if v == 0.0) >= 7


def test_09_shortest_path_oracle():
    with criterion(9, "distances equal per-source breadth-first search"):
        rng = np.random.default_rng(90)
        for case in range(500):
            directed = bool(case % 2)
            n = int(rng.integers(2, 9))
            adjacency = random_connected_adjacency(rng, n, directed)
            g = build_graph(adjacency, np.ones((n, 1), dtype=int), directed, 1)
            dist, _ = floyd_warshall(g)
            assert np.array_equal(dist, bfs_distances(adjacency, directed))


def test_10_undirected_structure():
    with criterion(10, "undirected parity and label-pair symmetry"):
        rng = np.random.default_rng(100)
        dom = DomainSpec(n=4, num_labels=2)
        block = graphbo.encode.structural_system(dom, include_labels=True)
        odd_rows = [c for c in block.constraints if c.name.startswith("Dc_odd_")]
        assert odd_rows and all(c.rhs == 0.0 for c in odd_rows)
        assert not any(c.name.startswith("Dc_odd_0_") for c in odd_rows)
        for case in range(200):
            n = int(rng.integers(2, 7))
            g = random_graph(rng, n, num_labels=2)
            counts = g.summary.length_counts
            assert all(c % 2 == 0 for c in counts[1:])
            p = g.summary.labeled_counts
            assert np.array_equal(p, p.transpose(0, 2, 1))
            if n == 4 and case % 10 == 0:
                asg = canonical_assignment(block, g, dom)
                assert check_feasible(block, asg)
