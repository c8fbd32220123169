"""Kernel values against a brute-force pair-enumeration oracle, plus the
symmetry/PSD/permutation properties the Gram construction relies on."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbo import (
    KernelHyperparams,
    KernelVariant,
    build_graph,
    gram,
    k_combined,
    k_feature,
    k_graph,
)
from graphbo import is_connected
from graphbo.errors import DimensionMismatchError, MissingVarianceError
from graphbo.gp import GpModel, posterior
from graphbo.kernels import StackedSummaries, cross_gram, self_kernel_parts

from conftest import complete_graph, path_graph, random_graph

UNIT = KernelHyperparams(alpha=1.0, beta=1.0, sigma_k_sq=1.0)
ALL_VARIANTS = list(KernelVariant)


def brute_force_pair_kernel(g1, g2, labeled):
    """Quadruple loop over ordered node pairs, straight from the definitions."""
    d1, _ = g1.summary.dist, None
    d2 = g2.summary.dist
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


def brute_force_feature_kernel(g1, g2):
    total = 0
    for v1 in range(g1.n):
        for v2 in range(g2.n):
            total += int(np.dot(g1.features[v1], g2.features[v2]))
    return total / (g1.n * g2.n * g1.num_features)


def brute_force_combined_kernel(g1, g2, variant, hyper):
    graph = brute_force_pair_kernel(g1, g2, variant.labeled)
    if variant.exponential:
        graph = math.exp(graph) / hyper.sigma_k_sq
    return hyper.alpha * graph + hyper.beta * brute_force_feature_kernel(g1, g2)


class TestFrozenValues:
    def test_ssp_single_node_self(self):
        g = build_graph([[0]], [[1]], False, 1)
        assert k_graph(g.summary, g.summary, KernelVariant.SSP, UNIT) == 1.0

    def test_ssp_k2_k2(self):
        s = complete_graph(2).summary
        assert k_graph(s, s, KernelVariant.SSP, UNIT) == 0.5

    def test_ssp_p3_k3(self):
        v = k_graph(path_graph(3).summary, complete_graph(3).summary,
                    KernelVariant.SSP, UNIT)
        assert abs(v - 33 / 81) < 1e-15

    def test_sp_label_mismatch_case(self):
        g_aa = complete_graph(2, num_labels=2, labels=[0, 0])
        g_ab = complete_graph(2, num_labels=2, labels=[0, 1])
        assert k_graph(g_aa.summary, g_ab.summary, KernelVariant.SP, UNIT) == 0.125

    def test_essp_k2_k2(self):
        s = complete_graph(2).summary
        v = k_graph(s, s, KernelVariant.ESSP,
                    KernelHyperparams(sigma_k_sq=1.0))
        assert abs(v - math.exp(0.5)) < 1e-12

    def test_feature_zero(self):
        f1 = np.zeros((2, 2), dtype=int)
        f2 = np.array([[1, 0], [0, 1]])
        assert k_feature(f1, f2) == 0.0

    def test_feature_quarter(self):
        assert k_feature(np.array([[1, 0], [0, 1]]), np.array([[1, 0]])) == 0.25

    def test_feature_self_half(self):
        f = np.array([[1, 0]])
        assert k_feature(f, f) == 0.5

    def test_combined_weights(self):
        g = complete_graph(2, num_labels=2, labels=[0, 1])
        hyper = KernelHyperparams(alpha=2.0, beta=3.0)
        assert abs(k_combined(g, g, KernelVariant.SSP, hyper)
                   - (2 * 0.5 + 3 * 0.25)) < 1e-15

    def test_alpha_only_equals_graph_kernel(self, rng):
        g1 = random_graph(rng, 4, num_labels=2)
        g2 = random_graph(rng, 3, num_labels=2)
        hyper = KernelHyperparams(alpha=1.0, beta=0.0)
        assert k_combined(g1, g2, KernelVariant.SSP, hyper) == \
            k_graph(g1.summary, g2.summary, KernelVariant.SSP, hyper)

    def test_box_lower_bound_scaling(self, rng):
        g1 = random_graph(rng, 3, num_labels=2)
        g2 = random_graph(rng, 4, num_labels=2)
        small = KernelHyperparams(alpha=0.01, beta=0.01)
        kg = k_graph(g1.summary, g2.summary, KernelVariant.SSP, small)
        kf = k_feature(g1.features, g2.features)
        assert abs(k_combined(g1, g2, KernelVariant.SSP, small)
                   - 0.01 * (kg + kf)) < 1e-15


class TestBruteForceOracle:
    @pytest.mark.parametrize("labeled", [False, True])
    def test_linear_kernels_match_pair_enumeration(self, rng, labeled):
        variant = KernelVariant.SP if labeled else KernelVariant.SSP
        for _ in range(25):
            g1 = random_graph(rng, int(rng.integers(1, 6)), num_labels=2)
            g2 = random_graph(rng, int(rng.integers(1, 6)), num_labels=2)
            expected = brute_force_pair_kernel(g1, g2, labeled)
            assert abs(k_graph(g1.summary, g2.summary, variant, UNIT)
                       - expected) < 1e-12

    def test_feature_kernel_matches_pair_enumeration(self, rng):
        for _ in range(25):
            g1 = random_graph(rng, int(rng.integers(1, 6)), num_labels=2,
                              num_features=4)
            g2 = random_graph(rng, int(rng.integers(1, 6)), num_labels=2,
                              num_features=4)
            assert abs(k_feature(g1.features, g2.features)
                       - brute_force_feature_kernel(g1, g2)) < 1e-12


class TestErrors:
    @pytest.mark.parametrize("field", ["alpha", "beta", "sigma_k_sq"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
    def test_hyperparams_reject_negative_and_non_finite_values(self, field, value):
        with pytest.raises(ValueError):
            KernelHyperparams(**{field: value})

    def test_missing_variance(self):
        s = complete_graph(2).summary
        with pytest.raises(MissingVarianceError):
            k_graph(s, s, KernelVariant.ESSP, KernelHyperparams())

    def test_feature_width_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            k_feature(np.ones((2, 2), dtype=int), np.ones((2, 3), dtype=int))

    def test_label_scheme_mismatch(self):
        g1 = complete_graph(2, num_labels=2, labels=[0, 1])
        g2 = complete_graph(2, num_labels=1)
        with pytest.raises(DimensionMismatchError):
            k_graph(g1.summary, g2.summary, KernelVariant.SP, UNIT)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_cross_gram_rejects_mismatched_stacks(self, variant):
        path = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        # equal feature width, different label schemes: P3 with 1 and 2 labels
        one_label = build_graph(path, [[1, 0], [1, 1], [1, 0]], False, 1)
        two_labels = build_graph(path, [[1, 0], [0, 1], [1, 0]], False, 2)
        narrow = build_graph(path, [[1], [1], [1]], False, 1)
        for a, b in ((one_label, two_labels), (one_label, narrow)):
            with pytest.raises(DimensionMismatchError):
                cross_gram(StackedSummaries.build([a]), StackedSummaries.build([b]),
                           variant, UNIT)
            with pytest.raises(DimensionMismatchError):
                StackedSummaries.build([a, b])
        model = GpModel.build([one_label], [0.5], variant, UNIT)
        with pytest.raises(DimensionMismatchError):
            posterior(model, two_labels)


class TestProperties:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_exact_symmetry(self, rng, variant):
        for _ in range(10):
            g1 = random_graph(rng, int(rng.integers(1, 7)), num_labels=2)
            g2 = random_graph(rng, int(rng.integers(1, 7)), num_labels=2)
            assert k_combined(g1, g2, variant, UNIT) == \
                k_combined(g2, g1, variant, UNIT)

    def test_linear_range(self, rng):
        for _ in range(20):
            g1 = random_graph(rng, int(rng.integers(1, 7)), num_labels=2)
            g2 = random_graph(rng, int(rng.integers(1, 7)), num_labels=2)
            for variant in (KernelVariant.SSP, KernelVariant.SP):
                v = k_graph(g1.summary, g2.summary, variant, UNIT)
                assert 0.0 <= v <= 1.0
            for variant in (KernelVariant.ESSP, KernelVariant.ESP):
                v = k_graph(g1.summary, g2.summary, variant,
                            KernelHyperparams(sigma_k_sq=2.0))
                assert 1 / 2.0 <= v <= math.e / 2.0
            kf = k_feature(g1.features, g2.features)
            assert 0.0 <= kf <= 1.0

    def test_cauchy_schwarz(self, rng):
        # cross similarity is dominated by the geometric mean of the
        # self-similarities (the one-sided form fails: P3 vs K3 below)
        for _ in range(30):
            g1 = random_graph(rng, int(rng.integers(1, 7)))
            g2 = random_graph(rng, g1.n)
            cross = k_graph(g1.summary, g2.summary, KernelVariant.SSP, UNIT)
            s1 = k_graph(g1.summary, g1.summary, KernelVariant.SSP, UNIT)
            s2 = k_graph(g2.summary, g2.summary, KernelVariant.SSP, UNIT)
            assert cross ** 2 <= s1 * s2 + 1e-12

    def test_one_sided_self_similarity_fails(self):
        # counterexample: the 3-path is closer to the triangle than to itself
        p3, k3 = path_graph(3), complete_graph(3)
        cross = k_graph(p3.summary, k3.summary, KernelVariant.SSP, UNIT)
        self_p3 = k_graph(p3.summary, p3.summary, KernelVariant.SSP, UNIT)
        assert cross > self_p3

    @given(st.integers(0, 2 ** 6 - 1), st.integers(0, 2 ** 6 - 1),
           st.integers(0, 2 ** 4 - 1), st.integers(0, 2 ** 4 - 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_range_on_generated_graphs(self, bits1, bits2,
                                                    labels1, labels2):
        def decode(bits, labels):
            n = 4
            adjacency = np.zeros((n, n), dtype=int)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for i, (u, v) in enumerate(pairs):
                adjacency[u, v] = adjacency[v, u] = (bits >> i) & 1
            if not is_connected(adjacency, False):
                return None
            features = np.zeros((n, 2), dtype=int)
            features[np.arange(n), [(labels >> v) & 1 for v in range(n)]] = 1
            return build_graph(adjacency, features, False, 2)

        g1, g2 = decode(bits1, labels1), decode(bits2, labels2)
        if g1 is None or g2 is None:
            return
        for variant in ALL_VARIANTS:
            hyper = KernelHyperparams(alpha=1.0, beta=1.0, sigma_k_sq=1.0)
            forward = k_combined(g1, g2, variant, hyper)
            assert forward == k_combined(g2, g1, variant, hyper)
            upper = 2.0 * math.e if variant.exponential else 2.0
            assert 0.0 <= forward <= upper

    def test_permutation_invariance(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            g = random_graph(rng, n, num_labels=2, num_features=3)
            perm = rng.permutation(n)
            adjacency = g.adjacency[np.ix_(perm, perm)]
            features = g.features[perm]
            h = build_graph(adjacency, features, g.directed, g.num_labels)
            other = random_graph(rng, int(rng.integers(2, 7)), num_labels=2,
                                 num_features=3)
            for variant in ALL_VARIANTS:
                hyper = KernelHyperparams(alpha=1.3, beta=0.7, sigma_k_sq=2.0)
                assert k_combined(g, other, variant, hyper) == \
                    pytest.approx(k_combined(h, other, variant, hyper), abs=1e-15)


class TestGram:
    def test_single_point(self, rng):
        g = random_graph(rng, 3)
        m = gram([g], KernelVariant.SSP, UNIT)
        assert m.shape == (1, 1)
        assert m[0, 0] == k_combined(g, g, KernelVariant.SSP, UNIT)

    def test_duplicate_point_rank_deficient(self, rng):
        g = random_graph(rng, 4)
        m = gram([g, g], KernelVariant.SSP, UNIT)
        assert m[0, 0] == m[0, 1] == m[1, 0] == m[1, 1]
        assert abs(np.linalg.eigvalsh(m)[0]) < 1e-12

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_psd(self, rng, variant):
        hyper = KernelHyperparams(alpha=1.5, beta=0.5, sigma_k_sq=3.0)
        for _ in range(5):
            points = [random_graph(rng, int(rng.integers(1, 7)), num_labels=2)
                      for _ in range(int(rng.integers(2, 21)))]
            m = gram(points, variant, hyper)
            assert np.array_equal(m, m.T)
            assert np.linalg.eigvalsh(m)[0] >= -1e-8

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_cross_gram_matches_pairwise(self, rng, variant):
        # against the pair-enumeration oracle, which shares no code with the
        # count-space kernel; rows hold every size 1..6, the columns only
        # sizes up to 3, so their counts are padded to the rows' width
        hyper = KernelHyperparams(alpha=0.8, beta=1.2, sigma_k_sq=0.5)
        rows = [random_graph(rng, n, num_labels=2, num_features=3)
                for n in rng.permutation(np.arange(1, 7))]
        cols = [random_graph(rng, n, num_labels=2, num_features=3)
                for n in (1, 2, 3, 3, 2)]
        mat = cross_gram(StackedSummaries.build(rows), StackedSummaries.build(cols),
                         variant, hyper)
        assert mat.shape == (len(rows), len(cols))
        for i, g1 in enumerate(rows):
            for j, g2 in enumerate(cols):
                assert abs(mat[i, j]
                           - brute_force_combined_kernel(g1, g2, variant, hyper)) <= 1e-12

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_self_parts_match(self, rng, variant):
        hyper = KernelHyperparams(alpha=0.8, beta=1.2, sigma_k_sq=0.5)
        points = [random_graph(rng, int(rng.integers(1, 6)), num_labels=2)
                  for _ in range(5)]
        parts = self_kernel_parts(StackedSummaries.build(points), variant, hyper)
        for i, g in enumerate(points):
            assert parts[i] == pytest.approx(k_combined(g, g, variant, hyper),
                                             abs=1e-14)
