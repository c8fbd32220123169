"""Structural constraint families, indicator layers, and the assembled
acquisition model."""

import types
from collections.abc import Mapping

import numpy as np
import pytest

import graphbo
from graphbo import DomainSpec, KernelHyperparams, KernelVariant, LinearRow
from graphbo.encode import (
    ConstraintBlock,
    LinearConstraint,
    _count_coefficients,
    apply_domain_constraints,
    canonical_assignment,
    canonical_structural_assignment,
    encode_acquisition,
    encode_feature_block,
    encode_path_indicators,
    encode_shortest_paths,
    structural_system,
)
from graphbo.errors import (
    IncompatibleDomainError,
    InfeasibleDomainError,
    InvalidSizeBoundsError,
    UnfittedModelError,
)
from graphbo.gp import GpModel, fit
from graphbo.solve import check_feasible
from graphbo.graphs import enumerate_domain, sample_feasible

from conftest import complete_graph


def family_counts(block):
    counts = {}
    for con in block.constraints:
        family = con.name.rsplit("_", 1)[0]
        while family and family[-1].isdigit():
            family = family.rsplit("_", 1)[0]
        counts[family] = counts.get(family, 0) + 1
    return counts


class TestConstraintBlock:
    def test_add_con_accepts_mappings_and_pairs_alike(self):
        coeffs = {3: 1.5, 0: -2.0, 7: 0.25}
        forms = [coeffs, types.MappingProxyType(coeffs),
                 [(7, 0.25), (0, -1.0), (3, 1.5), (0, -1.0)]]
        rows = []
        for form in forms:
            block = ConstraintBlock()
            block.add_con("r", form, "<=", 4)
            rows.append(block.constraints[0])
        expected = LinearConstraint("r", ((0, -2.0), (3, 1.5), (7, 0.25)), "<=", 4.0)
        assert rows == [expected] * 3

    @pytest.mark.parametrize("variant, n_min", [(v, 3) for v in KernelVariant]
                             + [(KernelVariant.SSP, 1)])
    def test_constraints_view_matches_tuple_rows(self, monkeypatch, variant, n_min):
        # each row as a tuple-per-row add_con stored it: repeated ids summed,
        # then sorted
        tuple_rows = []
        add_con = ConstraintBlock.add_con

        def recording(self, name, coeffs, sense, rhs):
            items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
            merged = {}
            for vid, coef in items:
                merged[vid] = merged.get(vid, 0.0) + float(coef)
            tuple_rows.append(
                LinearConstraint(name, tuple(sorted(merged.items())), sense, float(rhs)))
            add_con(self, name, coeffs, sense, rhs)

        dom = DomainSpec(n=3, n_min=n_min, num_labels=2)
        rng = np.random.default_rng(5)
        points = [sample_feasible(dom, rng) for _ in range(4)]
        model = fit(points, rng.normal(size=4), variant, seed=0, restarts=2)
        add_rows = ConstraintBlock.add_rows

        def recording_rows(self, names, senses, rhs, rows, cols, coefs):
            merged = [{} for _ in names]
            for row, vid, coef in zip(np.asarray(rows).tolist(), np.asarray(cols).tolist(),
                                      np.broadcast_to(coefs, len(rows)).tolist()):
                merged[row][vid] = merged[row].get(vid, 0.0) + float(coef)
            for name, sense, value, row in zip(names, senses,
                                               np.asarray(rhs, dtype=float).tolist(), merged):
                tuple_rows.append(
                    LinearConstraint(name, tuple(sorted(row.items())), sense, float(value)))
            add_rows(self, names, senses, rhs, rows, cols, coefs)

        monkeypatch.setattr(ConstraintBlock, "add_con", recording)
        monkeypatch.setattr(ConstraintBlock, "add_rows", recording_rows)
        mip = encode_acquisition(model, dom, 1.0)
        view = mip.constraints
        assert len(view) == len(tuple_rows) > 0
        for row, expected in zip(view, tuple_rows):
            assert row == expected
            assert all(type(vid) is int and type(coef) is float for vid, coef in row.coeffs)
            assert type(row.rhs) is float
        assert view[-1] == tuple_rows[-1]

    def test_add_rows_sums_repeats_and_sorts_like_add_con(self):
        rows = [([(7, 0.25), (0, -1.0), (3, 1.5), (0, -1.0)], "<=", 4.0),
                ([], "==", 0.0),
                ([(2, 1e-3), (2, -1e-3), (1, -0.0)], ">=", -1.0)]
        one_by_one, at_once = ConstraintBlock(), ConstraintBlock()
        for k, (coeffs, sense, rhs) in enumerate(rows):
            one_by_one.add_con(f"r{k}", coeffs, sense, rhs)
        at_once.add_con("before", {5: 1.0}, "==", 1.0)
        entries = [(k, vid, coef) for k, (coeffs, _, _) in enumerate(rows)
                   for vid, coef in coeffs]
        at_once.add_rows([f"r{k}" for k in range(3)], [sense for _, sense, _ in rows],
                         [rhs for _, _, rhs in rows], *map(np.array, zip(*entries)))
        assert list(at_once.constraints)[1:] == list(one_by_one.constraints)
        # -0.0 and the cancelling pair are stored as add_con stores them
        assert [str(coef) for _, coef in at_once.constraints[3].coeffs] == ["0.0", "0.0"]
        assert at_once.row_ends.tolist() == [1, 4, 4, 6]


def reference_kernel_rows(mip) -> ConstraintBlock:
    """The g_def/k_def rows written row by row: per kernel entry, one dict
    that puts each count cell's coefficient on every node pair's indicator
    of that cell, then ``add_con``."""
    model, domain, block = mip.gp, mip.domain, mip.block
    variant, hyper = model.variant, model.hyper
    n, L = domain.n, domain.num_labels
    graph_coef, feature_coef = _count_coefficients(
        model.profile, n, variant.labeled, 1.0 if variant.exponential else hyper.alpha,
        hyper.beta)
    pairs = [(l1, l2) for l1 in range(L) for l2 in range(L)] if variant.labeled else [(0, 0)]
    ref = ConstraintBlock()
    for i in range(model.size):
        coeffs = {}
        for s in range(n):
            for l1, l2 in pairs:
                value = float(graph_coef[s, l1, l2, i])
                if value == 0.0:
                    continue
                for u in range(n):
                    for v in range(n):
                        name = (f"p_{u}_{v}_{s}_{l1}_{l2}" if variant.labeled
                                else f"ds_{u}_{v}_{s}")
                        coeffs[block.var_id(name)] = value
        krow = {block.var_id(f"N_{m}"): float(value)
                for m, value in enumerate(feature_coef[:, i]) if value != 0.0}
        if variant.exponential:
            coeffs[block.var_id(f"g_{i}")] = -1.0
            ref.add_con(f"g_def_{i}", coeffs, "==", 0.0)
            krow[block.var_id(f"e_{i}")] = hyper.alpha / hyper.require_variance(variant)
        else:
            krow.update(coeffs)
        krow[block.var_id(f"k_{i}")] = -1.0
        ref.add_con(f"k_def_{i}", krow, "==", 0.0)
    return ref


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("variant", list(KernelVariant))
def test_kernel_rows_match_the_per_row_builder(variant, n):
    dom = DomainSpec(n=n, num_labels=2)
    rng = np.random.default_rng(n)
    points = [sample_feasible(dom, rng) for _ in range(5)]
    model = fit(points, rng.normal(size=5), variant, seed=0, restarts=2)
    mip = encode_acquisition(model, dom, 1.0)
    ref = reference_kernel_rows(mip)
    # the kernel rows follow the structural rows
    first = len(structural_system(dom, include_labels=variant.labeled).row_names)
    rows = mip.constraints[first:first + len(ref.row_names)]
    assert [row.name for row in rows] == ref.row_names
    assert [row.sense for row in rows] == ref.senses
    assert [row.rhs for row in rows] == ref.rhs.tolist()
    for row, expected in zip(rows, ref.constraints):
        assert [vid for vid, _ in row.coeffs] == [vid for vid, _ in expected.coeffs]
        assert [coef for _, coef in row.coeffs] == [coef for _, coef in expected.coeffs]
    assert mip.constraints[first + len(ref.row_names)].name == (
        "g_self_def" if variant.exponential else "kxx_def")


class TestShortestPathBlock:
    def test_fixed_n3_directed_family_tally(self):
        block = encode_shortest_paths(3, True)
        counts = family_counts(block)
        assert counts["fix_Adiag"] == 3
        assert counts["fix_ddiag"] == 3
        assert counts["dist_edge_ub"] == 6
        assert counts["dist_edge_lb"] == 6
        assert counts["tri_ub"] == 27
        assert counts["tri_lb"] == 27
        assert counts["fix_delta_diag"] == 9
        assert counts["fix_delta_src"] == 6
        assert counts["fix_delta_dst"] == 6
        assert counts["pathsum_ub"] == 6
        assert counts["pathsum_lb"] == 6
        assert len(block.constraints) == 105
        assert len(block.variables) == 9 + 9 + 27

    def test_variable_domains(self):
        block = encode_shortest_paths(3, True)
        d = block.variables[block.var_id("d_0_1")]
        assert d.kind == "integer" and (d.lb, d.ub) == (0, 2)
        bounded = encode_shortest_paths((1, 3), True)
        d = bounded.variables[bounded.var_id("d_0_1")]
        assert (d.lb, d.ub) == (0, 3)

    def test_invalid_bounds(self):
        with pytest.raises(InvalidSizeBoundsError):
            encode_shortest_paths((0, 3), True)
        with pytest.raises(InvalidSizeBoundsError):
            encode_shortest_paths((4, 3), True)

    @pytest.mark.parametrize("directed,n", [(True, 3), (False, 4)])
    def test_canonical_triples_feasible(self, directed, n):
        # the structural half of the graph <-> assignment correspondence
        block = encode_shortest_paths(n, directed)
        dom = DomainSpec(n=n, directed=directed, num_labels=1)
        for g in enumerate_domain(dom):
            asg = canonical_structural_assignment(g, n)
            assert check_feasible(block, asg)

    def test_bounded_missing_node_forces_no_path(self):
        # with node 2 absent, both distance rows force d = n ("infinity")
        block = encode_shortest_paths((1, 3), True)
        dom = DomainSpec(n=3, n_min=1, directed=True, num_labels=1)
        two_cycle = graphbo.build_graph([[0, 1], [1, 0]], [[1], [1]], True, 1)
        asg = canonical_structural_assignment(two_cycle, 3)
        assert asg["d_0_2"] == 3 and asg["d_2_0"] == 3 and asg["d_2_2"] == 0
        assert check_feasible(block, asg)
        asg["d_0_2"] = 2
        assert not check_feasible(block, asg)

    def test_undirected_symmetry_rows(self):
        block = encode_shortest_paths(3, False)
        names = {c.name for c in block.constraints}
        assert "sym_A_0_1" in names and "sym_d_1_2" in names
        assert "sym_delta_0_2_1" in names


class TestIndicatorBlock:
    def test_distance_indicator_count(self):
        block = encode_shortest_paths(3, True)
        encode_path_indicators(3, 1, block, directed=True, include_labels=False)
        ds = [v for v in block.variables if v.tag == "ds"]
        assert len(ds) == 9 * 4  # n^2 (n+1)

    def test_onehot_rows_hold_on_canonical(self):
        dom = DomainSpec(n=3, directed=True, num_labels=2)
        block = structural_system(dom)
        for g in list(enumerate_domain(dom))[:40]:
            asg = canonical_assignment(block, g, dom)
            assert check_feasible(block, asg)

    def test_k3_forces_count_indicator(self):
        dom = DomainSpec(n=3, num_labels=1)
        block = structural_system(dom, include_labels=False)
        asg = canonical_assignment(block, complete_graph(3), dom)
        assert asg["D_1"] == 6
        assert asg["Dc_1_6"] == 1
        assert sum(asg[f"Dc_1_{c}"] for c in range(10)) == 1
        assert check_feasible(block, asg)

    def test_undirected_odd_count_fixings(self):
        dom = DomainSpec(n=3, num_labels=1)
        block = structural_system(dom, include_labels=False)
        odd_rows = [c for c in block.constraints if c.name.startswith("Dc_odd_")]
        # lengths 1 and 2, odd values in 1..9
        assert len(odd_rows) == 2 * 5
        assert all(c.rhs == 0.0 and c.sense == "==" for c in odd_rows)
        # no fixings for length 0: a 3-node graph has odd D_0 = 3
        assert not any(c.name.startswith("Dc_odd_0_") for c in odd_rows)

    def test_label_pair_symmetry_rows(self):
        dom = DomainSpec(n=2, num_labels=2)
        block = structural_system(dom, include_labels=True)
        names = {c.name for c in block.constraints}
        assert "P_sym_0_0_1" in names and "P_sym_1_0_1" in names


class TestFeatureBlock:
    def test_fixed_mode_rows(self):
        dom = DomainSpec(n=2, num_labels=2, num_features=2)
        block = encode_feature_block(dom)
        counts = family_counts(block)
        assert counts["N_def"] == 2
        assert counts["Nc_onehot"] == 2
        assert counts["Nc_link"] == 2
        assert counts["label_onehot"] == 2
        n_var = block.variables[block.var_id("N_0")]
        assert (n_var.lb, n_var.ub) == (0, 2)
        assert len([v for v in block.variables if v.tag == "Nc"]) == 2 * 3

    def test_single_label_forces_bit(self):
        dom = DomainSpec(n=2, num_labels=1)
        block = encode_feature_block(dom)
        row = next(c for c in block.constraints if c.name == "label_onehot_0")
        assert row.sense == "==" and row.rhs == 1.0 and len(row.coeffs) == 1

    def test_bounded_mode_ties_to_existence(self):
        dom = DomainSpec(n=2, n_min=1, num_labels=1, num_features=2)
        block = encode_shortest_paths((1, 2), False)
        encode_feature_block(dom, block)
        # a non-existent node must have all-zero features
        asg = {v.name: 0 for v in block.variables}
        asg.update({"A_0_0": 1, "A_1_1": 0, "d_0_1": 2, "d_1_0": 2,
                    "delta_0_0_0": 1, "delta_1_1_1": 1,
                    "delta_0_1_0": 1, "delta_0_1_1": 1,
                    "delta_1_0_0": 1, "delta_1_0_1": 1,
                    "F_0_0": 1, "N_0": 1, "Nc_0_1": 1, "Nc_1_0": 1})
        assert check_feasible(block, asg)
        bad = dict(asg)
        bad.update({"F_1_1": 1, "N_1": 1, "Nc_1_0": 0, "Nc_1_1": 1})
        assert not check_feasible(block, bad)


class TestDomainConstraints:
    def test_degree_cap_one_kills_three_node_domain(self):
        dom = DomainSpec(n=3, num_labels=1, degree_caps=(1,))
        assert sum(1 for _ in enumerate_domain(dom)) == 0
        block = structural_system(dom)
        for g in enumerate_domain(DomainSpec(n=3, num_labels=1)):
            asg = canonical_assignment(block, g, dom)
            assert not check_feasible(block, asg)

    def test_no_caps_no_rows(self):
        dom = DomainSpec(n=3, num_labels=1)
        block = structural_system(dom)
        assert not any(c.name.startswith("degree_cap") for c in block.constraints)

    def test_exactly_one_label_b(self):
        dom = DomainSpec(n=2, num_labels=2,
                         label_count_bounds=((0, 2), (1, 1)))
        graphs = list(enumerate_domain(dom))
        assert len(graphs) == 2
        labelings = {tuple(g.labels.tolist()) for g in graphs}
        assert labelings == {(0, 1), (1, 0)}

    def test_trivially_contradictory_bounds(self):
        dom = DomainSpec(n=2, num_labels=2, label_count_bounds=((2, 2), (2, 2)))
        block = encode_shortest_paths(2, False)
        encode_feature_block(dom, block)
        with pytest.raises(InfeasibleDomainError):
            apply_domain_constraints(block, dom)

    def test_user_rows_emitted(self):
        dom = DomainSpec(n=2, num_labels=1,
                         extra_rows=(LinearRow(adjacency=((0, 1, 1.0),),
                                               sense="<=", rhs=0.0),))
        block = structural_system(dom)
        user = next(c for c in block.constraints if c.name == "user_row_0")
        assert user.sense == "<=" and user.rhs == 0.0


class TestAcquisitionModel:
    def _small_model(self, rng, variant=KernelVariant.SSP, dom=None, t=4):
        dom = dom or DomainSpec(n=3, num_labels=2)
        points = [sample_feasible(dom, rng) for _ in range(t)]
        y = rng.normal(size=t)
        return fit(points, y, variant, seed=0), dom

    def test_requires_fitted_model(self, rng):
        dom = DomainSpec(n=3, num_labels=2)
        empty = GpModel.build([], [], KernelVariant.SSP, KernelHyperparams())
        with pytest.raises(UnfittedModelError):
            encode_acquisition(empty, dom, 1.0)

    def test_scheme_mismatch(self, rng):
        model, _ = self._small_model(rng)
        with pytest.raises(IncompatibleDomainError):
            encode_acquisition(model, DomainSpec(n=3, num_labels=1), 1.0)

    def test_single_point_mean_value(self):
        # one K2 training point, graph-only kernel: at the training graph the
        # mean reduces to y * k / (k + noise) with k = 0.5
        k2 = complete_graph(2)
        hyper = KernelHyperparams(alpha=1.0, beta=0.0)
        y1 = 1.7
        model = GpModel.build([k2], [y1], KernelVariant.SSP, hyper)
        dom = DomainSpec(n=2, num_labels=1)
        mip = encode_acquisition(model, dom, 1.0)
        mu, _ = mip.mu_sigma_for(k2)
        assert mu == pytest.approx(y1 * 0.5 / (0.5 + 1e-6), rel=1e-12)

    def test_zero_beta_sqrt_objective_has_no_sigma(self, rng):
        model, dom = self._small_model(rng)
        mip = encode_acquisition(model, dom, 0.0)
        sigma_id = mip.block.var_id("sigma")
        assert sigma_id not in mip.objective
        mip2 = encode_acquisition(model, dom, 1.0)
        assert mip2.objective[mip2.block.var_id("sigma")] == -1.0

    @pytest.mark.parametrize("variant", list(KernelVariant))
    def test_canonical_assignment_satisfies_all_rows(self, rng, variant):
        model, dom = self._small_model(rng, variant)
        mip = encode_acquisition(model, dom, 1.0)
        for _ in range(5):
            g = sample_feasible(dom, rng)
            asg = canonical_assignment(mip, g)
            assert check_feasible(mip.block, asg, tol=1e-9)
            # quadratic variance row within roundoff
            k = np.array([asg[f"k_{i}"] for i in range(mip.gp.size)])
            quad = asg["sigma"] ** 2 + k @ mip.quad.q @ k - asg["kxx"]
            assert quad <= 1e-9

    @pytest.mark.parametrize("variant", list(KernelVariant))
    def test_mu_sigma_matches_posterior(self, rng, variant):
        for dom in (DomainSpec(n=3, num_labels=2),
                    DomainSpec(n=4, directed=True, num_labels=2)):
            points = [sample_feasible(dom, rng) for _ in range(5)]
            model = fit(points, rng.normal(size=5), variant, seed=0)
            mip = encode_acquisition(model, dom, 1.0)
            for _ in range(5):
                g = sample_feasible(dom, rng)
                mu, sigma = mip.mu_sigma_for(g)
                mu_ref, var_ref = graphbo.posterior(model, g)
                assert mu == pytest.approx(mu_ref, abs=1e-8)
                assert sigma ** 2 == pytest.approx(var_ref, abs=1e-8)

    def test_exp_links_present_for_exponential_variants(self, rng):
        model, dom = self._small_model(rng, KernelVariant.ESSP)
        mip = encode_acquisition(model, dom, 1.0)
        assert len(mip.exp_links) == model.size + 1  # one per point plus self
        linear, _ = self._small_model(rng, KernelVariant.SSP)
        mip2 = encode_acquisition(linear, dom, 1.0)
        assert mip2.exp_links == []

    def test_bounded_mode_is_exact_only(self, rng):
        dom = DomainSpec(n=3, n_min=1, num_labels=2)
        points = [sample_feasible(dom, rng) for _ in range(4)]
        model = fit(points, rng.normal(size=4), KernelVariant.SSP, seed=0)
        mip = encode_acquisition(model, dom, 1.0)
        assert not mip.domain.fixed_size
        assert not any(c.name.startswith("k_def") for c in mip.constraints)
        for _ in range(5):
            g = sample_feasible(dom, rng)
            mu, sigma = mip.mu_sigma_for(g)
            mu_ref, var_ref = graphbo.posterior(model, g)
            assert mu == pytest.approx(mu_ref, abs=1e-8)
            assert sigma ** 2 == pytest.approx(var_ref, abs=1e-8)

    def test_q_matrix_psd_and_consistent(self, rng):
        model, dom = self._small_model(rng)
        mip = encode_acquisition(model, dom, 1.0)
        eigs = np.linalg.eigvalsh(mip.quad.q)
        assert eigs[0] >= -1e-10
        assert np.allclose(mip.quad.q, mip.quad.q.T)
