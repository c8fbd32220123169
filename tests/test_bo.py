"""Optimization loop, warm start, baseline, and synthetic objectives."""

import numpy as np
import pytest

import graphbo
import graphbo.bo as bo_module
from graphbo import BoConfig, DomainSpec, KernelVariant
from graphbo.bo import (
    BoRunAborted,
    ObjectiveOracle,
    path_profile_target,
    random_baseline,
    read_history_csv,
    run,
    synthetic_oracle,
    warm_start,
)
from graphbo.errors import IncompatibleDomainError, UnknownOracleError
from graphbo.gp import fit
from graphbo.graphs import domain_feasible, sample_feasible

from conftest import complete_graph, path_graph


def quick_config(**kw):
    base = dict(variant=KernelVariant.SSP, beta_sqrt=1.0, initial_samples=4,
                iterations=3, solver_budget=60.0, warm_start_count=3, seed=0,
                strategy="enumerate", fit_restarts=4)
    base.update(kw)
    return BoConfig(**base)


class TestOracles:
    def test_path_profile_zero_at_target(self):
        oracle = synthetic_oracle("path_profile",
                                  {"target": path_profile_target(4)})
        assert oracle(path_graph(4)) == 0.0
        assert oracle(complete_graph(4)) > 0.0

    def test_path_profile_value(self):
        oracle = synthetic_oracle("path_profile", {"target": [3, 4, 2]})
        # triangle profile [3, 6, 0]: (6-4)^2 + (0-2)^2 = 8, over n^4
        assert oracle(complete_graph(3)) == pytest.approx(8 / 81)

    def test_feature_count(self):
        oracle = synthetic_oracle("feature_count", {"coeffs": [1.0, 0.0]})
        g = complete_graph(3, num_labels=2, labels=[1, 1, 1])
        assert oracle(g) == 0.0
        h = complete_graph(3, num_labels=2, labels=[0, 1, 1])
        assert oracle(h) == pytest.approx(1 / 6)

    def test_kernel_distance(self):
        oracle = synthetic_oracle("kernel_distance",
                                  {"target_graph": complete_graph(2).to_dict()})
        assert oracle(complete_graph(2)) == -0.5

    def test_unknown_oracle(self):
        with pytest.raises(UnknownOracleError):
            synthetic_oracle("mystery", {})

    def test_determinism(self):
        oracle = synthetic_oracle("path_profile", {"target": [2, 2]})
        g = complete_graph(2)
        assert oracle(g) == oracle(g)


class TestWarmStart:
    def test_empty(self):
        dom = DomainSpec(n=3, num_labels=1)
        assert warm_start(dom, 0, seed=0) == []

    def test_candidates_feasible_and_prior_points_last(self, rng):
        dom = DomainSpec(n=4, num_labels=2, degree_caps=(2, 3))
        points = [sample_feasible(dom, rng) for _ in range(3)]
        out = warm_start(dom, 5, seed=1, prior_points=points)
        assert len(out) == 5 + 3
        assert out[5:] == points
        for graph in out:
            assert domain_feasible(dom, graph)

    def test_same_seed_same_graphs(self):
        dom = DomainSpec(n=4, num_labels=2)
        assert warm_start(dom, 6, seed=7) == warm_start(dom, 6, seed=7)

    def test_run_never_scores_warm_starts_in_the_loop(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the loop scored a warm start")

        monkeypatch.setattr(bo_module, "gp_lcb", refuse)
        dom = DomainSpec(n=4, num_labels=1)
        oracle = synthetic_oracle("path_profile", {"target": path_profile_target(4)})
        hist = run(oracle, dom, quick_config(iterations=2))
        assert len(hist.records) == 4 + 2


    @pytest.mark.parametrize("strategy,draws", [("enumerate", 0),
                                                 ("branch_and_propagate", 2)])
    def test_run_draws_warm_starts_only_for_a_solver_that_reads_them(
            self, monkeypatch, strategy, draws):
        # a complete enumerate table never reads warm starts, so none are
        # sampled; branch-and-propagate reads them every iteration
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return warm_start(*args, **kwargs)

        monkeypatch.setattr(bo_module, "warm_start", counted)
        dom = DomainSpec(n=4, num_labels=1)
        oracle = synthetic_oracle("path_profile", {"target": path_profile_target(4)})
        hist = run(oracle, dom, quick_config(iterations=2, strategy=strategy))
        assert len(calls) == draws
        assert len(hist.records) == 4 + 2


class TestRun:
    def test_zero_iterations_keeps_initial_only(self):
        dom = DomainSpec(n=3, num_labels=1)
        oracle = synthetic_oracle("path_profile", {"target": path_profile_target(3)})
        hist = run(oracle, dom, quick_config(iterations=0))
        assert len(hist.records) == 4
        assert all(r.iteration == 0 for r in hist.records)

    def test_deterministic(self):
        dom = DomainSpec(n=3, num_labels=2)
        oracle = synthetic_oracle("path_profile", {"target": path_profile_target(3)})
        h1 = run(oracle, dom, quick_config(seed=5))
        h2 = run(oracle, dom, quick_config(seed=5))
        assert [r.graph for r in h1.records] == [r.graph for r in h2.records]
        assert [r.y for r in h1.records] == [r.y for r in h2.records]

    def test_best_y_monotone_and_feasible(self):
        dom = DomainSpec(n=4, num_labels=1)
        oracle = synthetic_oracle("path_profile", {"target": path_profile_target(4)})
        hist = run(oracle, dom, quick_config(iterations=5))
        values = [r.best_y for r in hist.records]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(domain_feasible(dom, r.graph) for r in hist.records)

    def test_path_profile_task_reaches_zero(self):
        # 38-graph structural domain; the 4-path is the unique profile optimum
        dom = DomainSpec(n=4, num_labels=1)
        oracle = synthetic_oracle("path_profile", {"target": path_profile_target(4)})
        hist = run(oracle, dom, quick_config(initial_samples=10, iterations=15,
                                             warm_start_count=10, seed=3))
        assert hist.best_y == 0.0

    def test_proposals_are_exact_lcb_minimizers(self):
        dom = DomainSpec(n=3, num_labels=1)
        oracle = synthetic_oracle("path_profile", {"target": path_profile_target(3)})
        config = quick_config(iterations=2)
        hist = run(oracle, dom, config)
        # re-fit on the prefix data and re-enumerate to verify each proposal
        from graphbo.solve import solve
        master = np.random.default_rng(config.seed)
        for _ in range(config.initial_samples):
            sample_feasible(dom, master)
        points = [r.graph for r in hist.records[:config.initial_samples]]
        targets = [r.y for r in hist.records[:config.initial_samples]]
        for t in range(1, config.iterations + 1):
            fit_seed = int(master.integers(2 ** 31))
            master.integers(2 ** 31)  # warm-start seed consumed by run()
            record = hist.records[config.initial_samples + t - 1]
            model = fit(points, targets, config.variant, seed=fit_seed,
                        restarts=config.fit_restarts)
            result = solve(model, dom, config.beta_sqrt, strategy="enumerate")
            assert record.graph == result.incumbent
            points.append(record.graph)
            targets.append(record.y)

    def test_aborts_preserve_history(self):
        dom = DomainSpec(n=3, num_labels=1)
        oracle = ObjectiveOracle("const", {}, lambda graph: 0.0)
        # a single initial sample cannot seed a fit; the loop must abort and
        # hand back the evaluated prefix
        config = quick_config(iterations=2, initial_samples=1)
        with pytest.raises(BoRunAborted) as info:
            run(oracle, dom, config)
        assert len(info.value.history.records) == 1
        assert info.value.history.records[0].solver_status == "init"

    def test_incompatible_label_scheme_aborts_at_first_iteration(self, monkeypatch):
        dom = DomainSpec(n=3, num_labels=2)
        one_label = DomainSpec(n=3, num_labels=1)
        # training points from another label scheme than the search domain
        monkeypatch.setattr(bo_module, "sample_feasible",
                            lambda domain, seed: sample_feasible(one_label, seed))
        oracle = synthetic_oracle("path_profile", {"target": path_profile_target(3)})
        config = quick_config(iterations=2)
        with pytest.raises(BoRunAborted, match="iteration 1 failed") as info:
            run(oracle, dom, config)
        assert isinstance(info.value.__cause__, IncompatibleDomainError)
        assert len(info.value.history.records) == config.initial_samples

    def test_branch_strategy_run(self):
        dom = DomainSpec(n=3, num_labels=1)
        oracle = synthetic_oracle("path_profile", {"target": path_profile_target(3)})
        hist = run(oracle, dom, quick_config(strategy="branch_and_propagate",
                                             iterations=2))
        assert len(hist.records) == 6


class TestBaseline:
    def test_deterministic_and_monotone(self):
        dom = DomainSpec(n=4, num_labels=2)
        oracle = synthetic_oracle("path_profile", {"target": path_profile_target(4)})
        config = quick_config(iterations=6)
        h1 = random_baseline(oracle, dom, config)
        h2 = random_baseline(oracle, dom, config)
        assert [r.graph for r in h1.records] == [r.graph for r in h2.records]
        values = [r.best_y for r in h1.records]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert len(h1.records) == config.initial_samples + config.iterations

    def test_same_seed_shares_initial_samples_with_run(self):
        dom = DomainSpec(n=4, num_labels=1)
        oracle = synthetic_oracle("path_profile", {"target": path_profile_target(4)})
        config = quick_config(iterations=2)
        bo_hist = run(oracle, dom, config)
        base_hist = random_baseline(oracle, dom, config)
        k = config.initial_samples
        assert [r.graph for r in bo_hist.records[:k]] == \
            [r.graph for r in base_hist.records[:k]]


class TestHistoryFiles:
    def test_csv_round_trip(self, tmp_path):
        dom = DomainSpec(n=3, num_labels=1)
        oracle = synthetic_oracle("path_profile", {"target": path_profile_target(3)})
        hist = run(oracle, dom, quick_config(iterations=3))
        path = tmp_path / "history.csv"
        hist.to_csv(path)
        rows = read_history_csv(path)
        assert len(rows) == len(hist.records)
        header_best = [row["best_y"] for row in rows]
        assert all(a >= b for a, b in zip(header_best, header_best[1:]))
        for row, rec in zip(rows, hist.records):
            assert row["iter"] == rec.iteration
            assert row["y"] == rec.y
        fitted = [row for row in rows if row["iter"] > 0]
        assert all(row["alpha"] is not None and row["beta"] is not None
                   for row in fitted)
        assert all(row["solver_status"] == "Optimal" for row in fitted)

    def test_proposals_file(self, tmp_path):
        dom = DomainSpec(n=3, num_labels=1)
        oracle = synthetic_oracle("path_profile", {"target": path_profile_target(3)})
        hist = run(oracle, dom, quick_config(iterations=2))
        path = tmp_path / "proposals.jsonl"
        hist.write_proposals(path)
        loaded = graphbo.read_graphs(path)
        assert loaded == [r.graph for r in hist.records]


class TestBoConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoConfig(initial_samples=0)
        with pytest.raises(ValueError):
            BoConfig(iterations=-1)
        with pytest.raises(ValueError):
            BoConfig(beta_sqrt=-0.5)

    def test_defaults_mirror_reference_protocol(self):
        config = BoConfig()
        assert config.beta_sqrt == 1.0
        assert config.initial_samples == 10
        assert config.iterations == 50
        assert config.solver_budget == 600.0
        assert config.warm_start_count == 20
