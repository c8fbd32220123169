"""GP regression against a dense explicit-inverse oracle."""

import dataclasses
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import linalg, optimize

import graphbo
import graphbo.gp as gp_module
from graphbo import (
    DomainSpec,
    GpModel,
    KernelHyperparams,
    KernelVariant,
    build_graph,
    gram,
    sample_feasible,
)
from graphbo.errors import FactorizationError
from graphbo.gp import (
    GramBuilder,
    factorize,
    fit,
    lcb,
    log_marginal_likelihood,
    posterior,
    predict,
)
from graphbo.kernels import (
    HYPER_BOX,
    StackedSummaries,
    _count_products,
    _graph_part,
    cross_gram,
    k_combined,
    self_kernel_parts,
)

from graphbo.graphs import structure_profiles

from conftest import bfs_distances, random_graph

NOISE = 1e-6


def dense_oracle(points, y, variant, hyper, x, noise=NOISE):
    """Posterior mean/variance through an explicit matrix inverse."""
    k = gram(points, variant, hyper) + noise * np.eye(len(points))
    inv = np.linalg.inv(k)
    kx = np.array([k_combined(x, p, variant, hyper) for p in points])
    mu = float(kx @ inv @ np.asarray(y, dtype=float))
    var = float(k_combined(x, x, variant, hyper) - kx @ inv @ kx)
    return mu, var


def dense_lml(points, y, variant, hyper, noise=NOISE):
    k = gram(points, variant, hyper) + noise * np.eye(len(points))
    y = np.asarray(y, dtype=float)
    sign, logdet = np.linalg.slogdet(k)
    assert sign > 0
    return float(-0.5 * y @ np.linalg.inv(k) @ y - 0.5 * logdet
                 - 0.5 * len(y) * math.log(2 * math.pi))


def distinct_profile_graphs(rng, count, n_range=(2, 7), num_labels=2):
    """Random graphs with pairwise-distinct kernel feature profiles."""
    out, seen = [], set()
    while len(out) < count:
        g = random_graph(rng, int(rng.integers(*n_range)), num_labels=num_labels)
        key = (g.n, tuple(g.summary.length_counts),
               tuple(map(tuple, g.summary.labeled_counts.reshape(g.n, -1))),
               tuple(g.summary.feature_sums))
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def prior_draw(rng, points, variant, hyper, noise=NOISE):
    """Targets sampled from the GP prior at the given hyperparameters."""
    k = gram(points, variant, hyper) + (noise + 1e-10) * np.eye(len(points))
    return np.linalg.cholesky(k) @ rng.normal(size=len(points))


class TestLogMarginalLikelihood:
    def test_single_point_closed_form(self):
        g = graphbo.build_graph([[0]], [[1]], False, 1)
        hyper = KernelHyperparams(alpha=1.0, beta=0.0)
        # k(x, x) = 1 for the single-node graph under the length-count kernel
        value = log_marginal_likelihood([g], [0.0], KernelVariant.SSP, hyper)
        expected = -0.5 * math.log(1 + NOISE) - 0.5 * math.log(2 * math.pi)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_duplicated_inputs_finite(self, rng):
        g = random_graph(rng, 4)
        value = log_marginal_likelihood([g, g], [1.0, 1.0], KernelVariant.SSP,
                                        KernelHyperparams())
        assert math.isfinite(value)

    def test_matches_dense_oracle(self, rng):
        for variant in KernelVariant:
            points = distinct_profile_graphs(rng, 5)
            hyper = KernelHyperparams(alpha=1.7, beta=0.4, sigma_k_sq=2.0)
            y = prior_draw(rng, points, variant, hyper)
            assert log_marginal_likelihood(points, y, variant, hyper) == \
                pytest.approx(dense_lml(points, y, variant, hyper), abs=1e-8)


class TestPosterior:
    def test_empty_model_prior(self, rng):
        x = random_graph(rng, 3)
        hyper = KernelHyperparams()
        model = GpModel.build([], [], KernelVariant.SSP, hyper)
        mu, var = posterior(model, x)
        assert mu == 0.0
        assert var == k_combined(x, x, KernelVariant.SSP, hyper)

    @pytest.mark.parametrize("variant", list(KernelVariant))
    def test_matches_dense_oracle(self, rng, variant):
        points = distinct_profile_graphs(rng, 6)
        hyper = KernelHyperparams(alpha=0.9, beta=1.4, sigma_k_sq=1.5)
        y = prior_draw(rng, points, variant, hyper)
        model = GpModel.build(points, y, variant, hyper)
        for _ in range(12):
            x = random_graph(rng, int(rng.integers(2, 7)), num_labels=2)
            mu, var = posterior(model, x)
            mu_o, var_o = dense_oracle(points, y, variant, hyper, x)
            assert mu == pytest.approx(mu_o, abs=1e-8)
            assert var == pytest.approx(max(var_o, 0.0), abs=1e-8)

    def test_near_interpolation_with_in_span_targets(self, rng):
        points = distinct_profile_graphs(rng, 6)
        hyper = KernelHyperparams(alpha=1.0, beta=1.0)
        k = gram(points, KernelVariant.SSP, hyper)
        y = k @ rng.normal(size=6)
        model = GpModel.build(points, y, KernelVariant.SSP, hyper)
        for i, x in enumerate(points):
            mu, var = posterior(model, x)
            assert abs(mu - y[i]) <= 1e-4 * max(1.0, abs(y[i]))
            assert var <= 1e-4

    def test_variance_bounded_by_prior(self, rng):
        points = distinct_profile_graphs(rng, 5)
        hyper = KernelHyperparams(alpha=1.0, beta=1.0, sigma_k_sq=1.0)
        model = GpModel.build(points, rng.normal(size=5), KernelVariant.ESSP, hyper)
        for _ in range(20):
            x = random_graph(rng, int(rng.integers(2, 7)), num_labels=2)
            _, var = posterior(model, x)
            assert 0.0 <= var <= k_combined(x, x, KernelVariant.ESSP, hyper) + 1e-12

    def test_adding_a_point_never_raises_variance(self, rng):
        points = distinct_profile_graphs(rng, 7)
        y = rng.normal(size=7)
        hyper = KernelHyperparams(alpha=1.0, beta=0.5, sigma_k_sq=1.0)
        small = GpModel.build(points[:5], y[:5], KernelVariant.ESSP, hyper)
        big = GpModel.build(points[:6], y[:6], KernelVariant.ESSP, hyper)
        for _ in range(15):
            x = random_graph(rng, int(rng.integers(2, 7)), num_labels=2)
            _, var_small = posterior(small, x)
            _, var_big = posterior(big, x)
            assert var_big <= var_small + 1e-8


class TestPredict:
    @pytest.mark.parametrize("variant", list(KernelVariant))
    def test_matches_posterior_at_each_point(self, rng, variant):
        points = distinct_profile_graphs(rng, 6)
        hyper = KernelHyperparams(alpha=0.9, beta=1.4, sigma_k_sq=1.5)
        y = prior_draw(rng, points, variant, hyper)
        model = GpModel.build(points, y, variant, hyper)
        probes = [random_graph(rng, int(rng.integers(2, 7)), num_labels=2)
                  for _ in range(10)] + points[:2]
        stacked = StackedSummaries.build(probes)
        mu, var = predict(model, stacked)
        assert mu.shape == var.shape == (len(probes),)
        # one row and a batch may sum the same products in another order, so
        # the tolerance scales with the sums of absolute terms
        kx = cross_gram(stacked, model.profile, variant, hyper)
        mu_scale = np.abs(kx) @ np.abs(model.weights)
        v = linalg.solve_triangular(model.chol, kx.T, lower=True)
        var_scale = self_kernel_parts(stacked, variant, hyper) + np.sum(v * v, axis=0)
        for j, x in enumerate(probes):
            mu_ref, var_ref = posterior(model, x)
            assert abs(mu[j] - mu_ref) <= 1e-14 * mu_scale[j]
            assert abs(var[j] - var_ref) <= 1e-14 * var_scale[j]

    def test_variance_clipped_to_prior_range(self, rng):
        points = distinct_profile_graphs(rng, 5)
        hyper = KernelHyperparams()
        model = GpModel.build(points, rng.normal(size=5), KernelVariant.SSP, hyper)
        probes = StackedSummaries.build(
            points + [random_graph(rng, int(rng.integers(2, 7)), num_labels=2)
                      for _ in range(5)])
        kxx = self_kernel_parts(probes, KernelVariant.SSP, hyper)
        # a shrunken factor overstates k' K^-1 k, past the prior at the
        # training points
        shrunk = dataclasses.replace(model, chol=model.chol / 10.0)
        _, var = predict(shrunk, probes)
        assert np.all((0.0 <= var) & (var <= kxx))
        assert np.all(var[:5] == 0.0)
        empty = GpModel.build([], [], KernelVariant.SSP, hyper)
        mu, var = predict(empty, probes)
        assert np.all(mu == 0.0)
        assert np.array_equal(var, kxx)


def _rows(stack, index):
    """The profiles of ``stack`` at ``index``, as a stack of their own."""
    return StackedSummaries(stack.sizes[index], stack.labeled_counts[index],
                            stack.feature_sums[index])


class TestBatchInvariance:
    """``predict`` reduces each row on its own, so a profile has one mean,
    one variance and one LCB in any batch: the solvers compare batched
    values with ``lcb``'s and with each other without a re-score."""

    @pytest.mark.parametrize("variant", list(KernelVariant))
    def test_every_labeling_scores_alike_in_any_batch(self, variant):
        domain = DomainSpec(n=5, num_labels=3)
        rng = np.random.default_rng(0)
        points = [sample_feasible(domain, rng) for _ in range(12)]
        model = fit(points, rng.normal(size=12), variant, seed=0)
        # every labeling of a 5-cycle with one chord
        adjacency = np.zeros((5, 5), dtype=np.int64)
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]:
            adjacency[a, b] = adjacency[b, a] = 1
        dist = bfs_distances(adjacency, False).astype(np.int64)
        blocks = [(p, f) for p, f in structure_profiles(domain, adjacency, dist)
                  if len(f)]
        stack = StackedSummaries(*(np.concatenate([getattr(p, name) for p, _ in blocks])
                                   for name in ("sizes", "labeled_counts",
                                                "feature_sums")))
        features = np.concatenate([f for _, f in blocks])
        rows = len(features)
        assert rows == 3 ** 5

        mu, var = predict(model, stack)
        backwards = predict(model, _rows(stack, np.arange(rows)[::-1]))
        cuts = [1, 3, 8, 25, 60, 131, 200]
        pieces = [predict(model, _rows(stack, part))
                  for part in np.split(np.arange(rows), cuts)]
        singles = [predict(model, _rows(stack, [i])) for i in range(rows)]
        for other_mu, other_var in [
                (backwards[0][::-1], backwards[1][::-1]),
                (np.concatenate([m for m, _ in pieces]),
                 np.concatenate([v for _, v in pieces])),
                (np.concatenate([m for m, _ in singles]),
                 np.concatenate([v for _, v in singles]))]:
            assert np.array_equal(other_mu, mu)
            assert np.array_equal(other_var, var)

        values = mu - np.sqrt(var)
        for i, row in enumerate(features):
            graph = build_graph(adjacency, row, False, domain.num_labels)
            assert posterior(model, graph) == (mu[i], var[i])
            assert lcb(model, graph, 1.0) == values[i]

        # labelings with one kernel row share one value: 21 label histograms
        # for ssp/essp, fewer merges for the labeled variants
        kx = cross_gram(stack, model.profile, variant, model.hyper)
        _, group = np.unique(kx, axis=0, return_inverse=True)
        group = group.ravel()
        assert len(set(group.tolist())) < rows
        for g in set(group.tolist()):
            assert len(set(mu[group == g].tolist())) == 1
            assert len(set(var[group == g].tolist())) == 1


class TestLcb:
    def test_arithmetic(self, rng):
        x = random_graph(rng, 3)
        model = GpModel.build([], [], KernelVariant.SSP,
                              KernelHyperparams(alpha=1.0, beta=0.0))
        # prior: mu 0, var = self kernel
        var = k_combined(x, x, KernelVariant.SSP, model.hyper)
        assert lcb(model, x, 1.0) == -math.sqrt(var)
        assert lcb(model, x, 0.0) == 0.0

    def test_at_training_point(self, rng):
        points = distinct_profile_graphs(rng, 4)
        hyper = KernelHyperparams(alpha=1.0, beta=1.0)
        k = gram(points, KernelVariant.SSP, hyper)
        a = rng.normal(size=4)
        y = k @ a
        scale = abs(y[0]) or 1.0
        y = y / scale  # keep |y[0]| modest
        model = GpModel.build(points, y, KernelVariant.SSP, hyper)
        value = lcb(model, points[0], 1.0)
        assert value == pytest.approx(y[0], abs=2e-3)


class TestFit:
    def test_requires_two_points(self, rng):
        with pytest.raises(ValueError):
            fit([random_graph(rng, 3)], [1.0], KernelVariant.SSP)

    def test_zero_targets(self, rng):
        points = distinct_profile_graphs(rng, 4)
        model = fit(points, np.zeros(4), KernelVariant.SSP, seed=0)
        h = model.hyper
        assert 0.01 <= h.alpha <= 100 and 0.01 <= h.beta <= 100
        value = log_marginal_likelihood(points, np.zeros(4), model.variant, h)
        assert value == pytest.approx(dense_lml(points, np.zeros(4),
                                                model.variant, h), abs=1e-8)

    def test_deterministic(self, rng):
        points = distinct_profile_graphs(rng, 5)
        y = rng.normal(size=5)
        m1 = fit(points, y, KernelVariant.ESSP, seed=42)
        m2 = fit(points, y, KernelVariant.ESSP, seed=42)
        assert m1.hyper == m2.hyper

    def test_dominates_generating_hyperparameters(self, rng):
        points = distinct_profile_graphs(rng, 10)
        generating = KernelHyperparams(alpha=2.0, beta=0.5)
        k = gram(points, KernelVariant.SSP, generating) + NOISE * np.eye(10)
        y = np.linalg.cholesky(k) @ rng.normal(size=10)
        model = fit(points, y, KernelVariant.SSP, seed=1)
        fitted = log_marginal_likelihood(points, y, KernelVariant.SSP, model.hyper)
        reference = log_marginal_likelihood(points, y, KernelVariant.SSP, generating)
        assert fitted >= reference - 1e-6

    def test_variant_string_matches_enum(self, rng):
        points = distinct_profile_graphs(rng, 5)
        y = rng.normal(size=5)
        for variant in KernelVariant:
            by_name = fit(points, y, variant.value, seed=3, restarts=2)
            by_enum = fit(points, y, variant, seed=3, restarts=2)
            assert by_name.variant is variant
            assert by_name.hyper == by_enum.hyper
            assert log_marginal_likelihood(points, y, variant.value, by_enum.hyper) == \
                log_marginal_likelihood(points, y, variant, by_enum.hyper)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_refuses_fewer_than_one_restart(self, rng, restarts):
        points = distinct_profile_graphs(rng, 4)
        with pytest.raises(ValueError, match="restarts"):
            fit(points, rng.normal(size=4), KernelVariant.SSP, seed=0, restarts=restarts)

    def test_exponential_variant_gets_variance(self, rng):
        points = distinct_profile_graphs(rng, 4)
        model = fit(points, rng.normal(size=4), KernelVariant.ESP, seed=0)
        assert model.hyper.sigma_k_sq is not None
        assert 0.01 <= model.hyper.sigma_k_sq <= 100


LOG_LO, LOG_HI = math.log(HYPER_BOX[0]), math.log(HYPER_BOX[1])


def hyper_at(theta):
    values = np.exp(theta)
    return KernelHyperparams(alpha=values[0], beta=values[1],
                             sigma_k_sq=values[2] if len(theta) == 3 else None)


@dataclasses.dataclass(frozen=True)
class GramParts:
    """A fit's Gram components as the Cholesky reference weights them: the
    graph part G, the feature kernel F and the feature map Phi with
    F = Phi Phi^T / M."""

    variant: KernelVariant
    graph: np.ndarray
    feature: np.ndarray
    phi: np.ndarray

    @staticmethod
    def of(points, variant):
        profile = StackedSummaries.build(points)
        linear, feature = _count_products(profile, profile, variant.labeled)
        return GramParts(variant, _graph_part(linear, variant), feature,
                         profile.feature_sums / profile.sizes[:, None])

    @staticmethod
    def with_graph(parts, graph, phi=None):
        """Parts with another graph part (and feature map)."""
        phi = parts.phi if phi is None else phi
        return GramParts(parts.variant, graph, phi @ phi.T / phi.shape[1], phi)

    def builder(self):
        return GramBuilder.from_parts(self.variant, self.graph, self.phi)


def scalar_neg_lml(parts, theta, y, noise_var=NOISE):
    """-LML and its gradient at one theta from one Cholesky factorization of
    the weighted t x t Gram matrix and its explicit inverse: the reference
    the eigenbasis evaluation is held to."""
    weights = np.exp(theta).tolist()
    graph = parts.graph / weights[2] if parts.variant.exponential else parts.graph
    graph, feature = weights[0] * graph, weights[1] * parts.feature
    try:
        chol = factorize(graph + feature, noise_var)
    except FactorizationError:
        return 1e25, np.zeros(len(theta))
    inv_t = np.linalg.inv(chol.T)
    k_inv = inv_t.dot(inv_t.T)
    z = y.dot(inv_t)
    a = inv_t.dot(z)
    grad_graph = -0.5 * (a.dot(graph).dot(a) - np.vdot(k_inv, graph))
    grad = [grad_graph, -0.5 * (a.dot(feature).dot(a) - np.vdot(k_inv, feature))]
    if parts.variant.exponential:
        grad.append(-grad_graph)
    lml = float(-0.5 * z.dot(z) - np.log(chol.diagonal()).sum()
                - 0.5 * len(chol) * math.log(2.0 * math.pi))
    return -lml, np.array(grad)


def _exact_inverse(matrix):
    """Inverse and determinant of a nonsingular matrix of Fractions, by
    Gauss-Jordan elimination."""
    n = len(matrix)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(matrix)]
    det = Fraction(1)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        scale = 1 / rows[col][col]
        rows[col] = [v * scale for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows], det


def exact_neg_lml(points, variant, theta, y, noise_var=NOISE):
    """-LML and its gradient in exact rational arithmetic, rounded once at
    the end. The float graph part, the float weights exp(theta), the
    targets and the noise are taken as exact, the feature kernel comes
    exactly from the integer feature sums, and the log is taken of the exact
    determinant."""
    profile = StackedSummaries.build(points)
    graph = GramParts.of(points, variant).graph
    t, m = profile.feature_sums.shape
    weights = [Fraction(float(w)) for w in np.exp(theta)]
    a = weights[0] / weights[2] if variant.exponential else weights[0]
    b = weights[1] / m
    sums = profile.feature_sums.astype(int).tolist()
    sizes = profile.sizes.astype(int).tolist()
    graph_w = [[a * Fraction(float(graph[i, j])) for j in range(t)] for i in range(t)]
    feature_w = [[b * Fraction(sum(p * q for p, q in zip(sums[i], sums[j])), sizes[i] * sizes[j])
                  for j in range(t)] for i in range(t)]
    noise = Fraction(float(noise_var))
    k_inv, det = _exact_inverse([[graph_w[i][j] + feature_w[i][j] + (noise if i == j else 0)
                                  for j in range(t)] for i in range(t)])
    targets = [Fraction(float(v)) for v in y]
    alpha = [sum(k_inv[i][j] * targets[j] for j in range(t)) for i in range(t)]

    def grad(part):  # -1/2 (alpha^T dK alpha - tr(K^-1 dK))
        quad = sum(alpha[i] * part[i][j] * alpha[j] for i in range(t) for j in range(t))
        trace = sum(k_inv[i][j] * part[j][i] for i in range(t) for j in range(t))
        return float(-(quad - trace) / 2)

    value = (float(sum(a_i * y_i for a_i, y_i in zip(alpha, targets)) / 2)
             + 0.5 * (math.log(det.numerator) - math.log(det.denominator))
             + 0.5 * t * math.log(2.0 * math.pi))
    grads = [grad(graph_w), grad(feature_w)]
    if variant.exponential:
        grads.append(-grads[0])
    return value, np.array(grads)


# The eigenbasis evaluation and the Cholesky reference round differently,
# and the Cholesky path's own error grows with the conditioning of K. Against
# the exact reference it reaches 4.1e-7 of max(1, |value|) on the fixture
# rows below, 1.1e-6 on the jitter rows (K singular but for noise + JITTER =
# 9e-9) and 2.1e-6 at an essp fit on the box corner (a = 1e4), in the value
# and the gradient alike, since both carry the error of y^T K^-1 y. The
# exact-reference tests bound the eigenbasis path's own error.
RTOL = 1e-5


def assert_close_to_scalar(parts, theta, y, value, grad, noise_var=NOISE):
    ref_value, ref_grad = scalar_neg_lml(parts, theta, y, noise_var)
    scale = RTOL * max(1.0, abs(ref_value))
    assert abs(value - ref_value) <= scale
    assert np.max(np.abs(grad - ref_grad)) <= scale


def stack_case(variant, t, rows=6):
    """Points, targets and a stack of log-hyperparameters: the all-ones
    point, a corner of the box, then log-uniform draws."""
    rng = np.random.default_rng(2100 + t)
    points = distinct_profile_graphs(rng, t)
    y = rng.normal(size=t)
    dim = 3 if variant.exponential else 2
    thetas = rng.uniform(LOG_LO, LOG_HI, size=(rows, dim))
    thetas[0], thetas[1] = 0.0, [LOG_HI, LOG_LO, LOG_HI][:dim]
    return points, y, thetas


class TestStackedLikelihood:
    """``GramBuilder.neg_lml`` on stacks: each row is its stack of one,
    whatever else the stack holds, and agrees with the Cholesky reference
    and with exact arithmetic."""

    @pytest.fixture(params=[(v, t) for v in KernelVariant for t in (2, 10, 30)],
                    ids=lambda p: f"{p[0].value}-t{p[1]}")
    def stack(self, request):
        variant, t = request.param
        points, y, thetas = stack_case(variant, t)
        return GramParts.of(points, variant), y, thetas

    def test_rows_match_stacks_of_one_in_any_order(self, stack):
        parts, y, thetas = stack
        builder = parts.builder()
        singles = [builder.neg_lml(theta[None], y) for theta in thetas]
        for theta, (value, grad) in zip(thetas, singles):
            assert_close_to_scalar(parts, theta, y, value[0], grad[0])
        shuffled = np.random.default_rng(0).permutation(len(thetas))
        for order in (range(6), range(5, -1, -1), shuffled, [2, 2, 0], [5, 1]):
            values, grads = builder.neg_lml(thetas[list(order)], y)
            for row, i in enumerate(order):
                assert values[row] == singles[i][0][0]
                assert np.array_equal(grads[row], singles[i][1][0])

    @pytest.mark.parametrize("variant", list(KernelVariant), ids=lambda v: v.value)
    def test_a_64_row_stack_matches_its_rows_one_by_one(self, variant):
        points, y, thetas = stack_case(variant, 30, rows=64)
        builder = GramParts.of(points, variant).builder()
        values, grads = builder.neg_lml(thetas, y)
        for theta, value, grad in zip(thetas, values, grads):
            (alone,), (alone_grad,) = builder.neg_lml(theta[None], y)
            assert value == alone and np.array_equal(grad, alone_grad)

    @pytest.mark.parametrize("variant", list(KernelVariant), ids=lambda v: v.value)
    @pytest.mark.parametrize("t", [2, 10])
    def test_no_further_from_exact_than_the_cholesky_path(self, variant, t):
        points, y, thetas = stack_case(variant, t)
        parts = GramParts.of(points, variant)
        values, grads = parts.builder().neg_lml(thetas, y)
        for theta, value, grad in zip(thetas, values, grads):
            exact_value, exact_grad = exact_neg_lml(points, variant, theta, y)
            ref_value, ref_grad = scalar_neg_lml(parts, theta, y)
            assert abs(value - exact_value) <= 10 * abs(ref_value - exact_value) + 1e-12
            assert (np.max(np.abs(grad - exact_grad))
                    <= 10 * np.max(np.abs(ref_grad - exact_grad)) + 1e-12)

    def test_failed_row_scores_high_and_leaves_the_others(self, stack):
        # a graph part shifted by -3 I at noise 1: D = a (lambda - 3) + 1 has
        # a negative entry wherever a > 1/3, beyond what jitter can mend
        parts, y, _ = stack
        shifted = GramParts.with_graph(parts, parts.graph - 3.0 * np.eye(len(y)))
        builder = shifted.builder()
        dim = 3 if parts.variant.exponential else 2
        thetas = np.array([[-4.0, 4.0, 0.0], [4.0, -4.0, 0.0], [-3.0, 3.0, 0.5]])[:, :dim]
        values, grads = builder.neg_lml(thetas, y, 1.0)
        assert values[1] == 1e25 and not grads[1].any()
        assert scalar_neg_lml(shifted, thetas[1], y, 1.0)[0] == 1e25
        for row in (0, 2):
            (value,), (grad,) = builder.neg_lml(thetas[row][None], y, 1.0)
            assert value < 1e25
            assert values[row] == value and np.array_equal(grads[row], grad)
            assert_close_to_scalar(shifted, thetas[row], y, value, grad, 1.0)

    def test_rows_that_need_jitter_get_the_scalar_value(self, stack):
        # every profile twice: G is singular, and a noise just below zero
        # leaves D = -1e-9 on its null space, so each row takes the JITTER
        # retry, as the Cholesky reference does
        parts, y, thetas = stack
        twice = GramParts.with_graph(parts, np.kron(np.ones((2, 2)), parts.graph),
                                     np.vstack([parts.phi, parts.phi]))
        y2, noise = np.concatenate([y, -y]), -1e-9
        values, grads = twice.builder().neg_lml(thetas, y2, noise)
        for theta, value, grad in zip(thetas, values, grads):
            hyper = hyper_at(theta)
            graph = twice.graph / (hyper.sigma_k_sq or 1.0)
            k = hyper.alpha * graph + hyper.beta * twice.feature + noise * np.eye(2 * len(y))
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(k)
            assert value < 1e25
            assert_close_to_scalar(twice, theta, y2, value, grad, noise)


class TestFitObjective:
    """The fit objective: -LML and its closed-form gradient in log-space."""

    @pytest.fixture(params=list(KernelVariant), ids=lambda v: v.value)
    def problem(self, request, rng):
        variant = request.param
        points = distinct_profile_graphs(rng, 5, n_range=(3, 7))
        y = prior_draw(rng, points, variant,
                       KernelHyperparams(alpha=1.3, beta=0.7, sigma_k_sq=1.5))
        builder = GramBuilder.build(StackedSummaries.build(points), variant)
        return variant, points, y, builder

    @pytest.mark.parametrize("where", ["interior", "box_edge"])
    def test_gradient_matches_central_differences(self, problem, where):
        variant, points, y, builder = problem
        dim = 3 if variant.exponential else 2
        theta = (np.array([0.3, -0.4, 0.2]) if where == "interior"
                 else np.array([LOG_HI, LOG_LO, LOG_HI]))[:dim]
        k = gram(points, variant, hyper_at(theta)) + NOISE * np.eye(len(points))
        assert np.linalg.cond(k) < 1e5  # central differences are trustworthy here
        step = 1e-5
        # one stack: theta, then theta +- step along each coordinate
        thetas = np.vstack([theta, theta + step * np.eye(dim), theta - step * np.eye(dim)])
        values, grads = builder.neg_lml(thetas, y)
        assert values[0] == pytest.approx(
            -log_marginal_likelihood(points, y, variant, hyper_at(theta)), abs=1e-12)
        numeric = (values[1:dim + 1] - values[dim + 1:]) / (2 * step)
        assert values.shape == (2 * dim + 1,) and grads.shape == (2 * dim + 1, dim)
        assert np.allclose(grads[0], numeric, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("where", ["interior", "box_edge"])
    def test_matches_a_cho_factor_reference(self, problem, where):
        variant, points, y, builder = problem
        dim = 3 if variant.exponential else 2
        theta = (np.array([0.3, -0.4, 0.2]) if where == "interior"
                 else np.array([LOG_HI, LOG_LO, LOG_HI]))[:dim]
        hyper = hyper_at(theta)
        graph = gram(points, variant, dataclasses.replace(hyper, beta=0.0))
        feature = gram(points, variant, dataclasses.replace(hyper, alpha=0.0))
        k = graph + feature + NOISE * np.eye(len(points))
        assert np.linalg.cond(k) < 1e5
        factor = linalg.cho_factor(k, lower=True)
        a = linalg.cho_solve(factor, y)
        w = np.outer(a, a) - linalg.cho_solve(factor, np.eye(len(y)))
        ref_value = (0.5 * y @ a + np.sum(np.log(np.diag(factor[0])))
                     + 0.5 * len(y) * math.log(2 * math.pi))
        ref_grad = [-0.5 * np.sum(w * graph), -0.5 * np.sum(w * feature)]
        if variant.exponential:
            ref_grad.append(-ref_grad[0])
        (value,), (grad,) = builder.neg_lml(theta[None], y)
        assert abs(value - ref_value) <= 1e-9 * abs(ref_value)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-9 * np.max(np.abs(ref_grad))

    def test_failed_factorization_scores_high_with_zero_gradient(self, problem):
        # a graph part of -I: D = noise - a < 0 on every row, even with jitter
        variant, points, y, _ = problem
        parts = GramParts.of(points, variant)
        builder = GramParts.with_graph(parts, -np.eye(len(y))).builder()
        values, grads = builder.neg_lml(np.zeros((2, 3 if variant.exponential else 2)), y)
        assert np.all(values == 1e25)
        assert not grads.any()

    @pytest.mark.parametrize("domain", [
        DomainSpec(n=5, n_min=3, num_labels=2, num_features=3),
        DomainSpec(n=4, directed=True, num_labels=2)], ids=["sizes_3_to_5", "directed"])
    @pytest.mark.parametrize("variant", list(KernelVariant), ids=lambda v: v.value)
    def test_objective_at_the_fit_is_the_public_likelihood(self, domain, variant):
        # sizes vary row to row, so the feature map divides each point's
        # sums by its own size
        rng = np.random.default_rng(2300)
        points = [sample_feasible(domain, rng) for _ in range(14)]
        assert domain.directed or len({g.n for g in points}) > 1
        y = rng.normal(size=len(points))
        hyper = fit(points, y, variant, seed=3).hyper
        theta = np.log([hyper.alpha, hyper.beta, hyper.sigma_k_sq or 1.0])
        builder = GramBuilder.build(StackedSummaries.build(points), variant)
        theta = theta[:3 if variant.exponential else 2]
        (value,), _ = builder.neg_lml(theta[None], y)
        reference = -log_marginal_likelihood(points, y, variant, hyper)
        assert abs(value - reference) <= RTOL * max(1.0, abs(reference))
        exact_value, _ = exact_neg_lml(points, variant, theta, y)
        assert abs(value - exact_value) <= 10 * abs(reference - exact_value) + 1e-12

    def test_fit_improves_on_the_all_ones_start(self, problem):
        variant, points, y, _ = problem
        model = fit(points, y, variant, seed=0, restarts=3)
        start = KernelHyperparams(alpha=1.0, beta=1.0,
                                  sigma_k_sq=1.0 if variant.exponential else None)
        assert log_marginal_likelihood(points, y, variant, model.hyper) >= \
            log_marginal_likelihood(points, y, variant, start)


def fit_starts(variant, seed, restarts=gp_module.FIT_RESTARTS):
    """``fit``'s starts: the all-ones point, then log-uniform draws of
    ``seed``."""
    dim = 3 if variant.exponential else 2
    draws = np.random.default_rng(seed)
    return np.array([np.zeros(dim)] + [draws.uniform(LOG_LO, LOG_HI, size=dim)
                                       for _ in range(restarts - 1)])


def search_problem(case):
    """One of 40 fit problems: every variant, t = 4..30, targets drawn from
    the GP prior or scored by the BO loop's path-profile objective."""
    rng = np.random.default_rng(1800 + case)
    variant = list(KernelVariant)[case % 4]
    t = 4 + 26 * case // 39
    points = distinct_profile_graphs(rng, t)
    if case % 8 < 4:
        hyper = hyper_at(rng.uniform(LOG_LO, LOG_HI, size=3))
        y = prior_draw(rng, points, variant, hyper)
    else:
        oracle = graphbo.synthetic_oracle("path_profile",
                                          {"target": graphbo.path_profile_target(5)})
        y = np.array([oracle(g) for g in points])
    return variant, points, y


def lbfgsb_lml(points, y, variant, seed, restarts=gp_module.FIT_RESTARTS):
    """LML at the best point of a scipy L-BFGS-B multi-start from ``fit``'s
    starts (the all-ones point, then log-uniform draws of ``seed``): the
    reference search for ``fit``'s own optimizer."""
    builder = GramBuilder.build(StackedSummaries.build(points), variant)
    dim = 3 if variant.exponential else 2
    starts = fit_starts(variant, seed, restarts)

    def fun(theta):
        (value,), (grad,) = builder.neg_lml(np.clip(theta, LOG_LO, LOG_HI)[None], y)
        return value, grad

    results = [optimize.minimize(
        fun, start,
        jac=True, method="L-BFGS-B", bounds=[(LOG_LO, LOG_HI)] * dim) for start in starts]
    best = min(results, key=lambda result: result.fun)
    return log_marginal_likelihood(points, y, variant,
                                   hyper_at(np.clip(best.x, LOG_LO, LOG_HI)))


class TestMinimizeBox:
    """``fit``'s in-house projected BFGS over the log-hyperparameter box."""

    @pytest.mark.parametrize("case", range(40))
    def test_fit_matches_an_lbfgsb_multi_start(self, case):
        # targets of plain noise are left out of the problems: on inputs an
        # exponential kernel can barely tell apart they push the optimum
        # into a corner where the likelihood is roundoff (moving one
        # coordinate by 1e-7 changes it by 1e-6 relative), so no two
        # searches can be compared at this tolerance
        variant, points, y = search_problem(case)
        model = fit(points, y, variant, seed=case)
        fitted = log_marginal_likelihood(points, y, variant, model.hyper)
        reference = lbfgsb_lml(points, y, variant, seed=case)
        assert fitted >= reference - 1e-6 * max(1.0, abs(reference))

    def test_quadratic_minimum_with_a_coordinate_on_a_bound(self):
        # f = (x - c)^T A (x - c) / 2 on [-1, 1]^3: at the constrained
        # minimum x0 sits on its upper bound with its gradient pointing out.
        # The free block's curvature is at least 9.8, so the 1e-5 projected
        # gradient stop leaves x within about 1e-6
        a = 10.0 * np.array([[2.0, 0.5, 0.2], [0.5, 1.0, 0.1], [0.2, 0.1, 1.5]])
        c = np.array([2.0, -0.5, 0.3])

        def fun(xs):
            return (np.array([0.5 * (x - c) @ a @ (x - c) for x in xs]),
                    np.array([a @ (x - c) for x in xs]))

        free = c[1:] - np.linalg.solve(a[1:, 1:], a[1:, 0] * (1.0 - c[0]))
        expected = np.concatenate(([1.0], free))
        assert np.all(np.abs(free) < 1.0) and fun([expected])[1][0, 0] < 0.0
        thetas, values = gp_module._minimize_box(fun, np.zeros((1, 3)), -1.0, 1.0)
        assert np.allclose(thetas[0], expected, rtol=0.0, atol=1e-6)
        assert values[0] == fun(thetas)[0][0]

    def test_failed_start_is_returned_after_one_evaluation(self):
        calls = []

        def fun(thetas):
            calls.append(thetas.copy())
            return np.full(len(thetas), 1e25), np.zeros(thetas.shape)

        start = np.array([[0.3, -0.2]])
        thetas, values = gp_module._minimize_box(fun, start, LOG_LO, LOG_HI)
        assert len(calls) == 1
        assert values[0] == 1e25
        assert np.array_equal(thetas, start)


    @pytest.mark.parametrize("case", range(40))
    def test_lockstep_restarts_match_single_starts(self, case):
        # the restarts share each likelihood call and nothing else: every
        # one ends where a search from its start alone ends, to the bit
        variant, points, y = search_problem(case)
        builder = GramBuilder.build(StackedSummaries.build(points), variant)

        def fun(thetas):
            return builder.neg_lml(thetas, y)

        starts = fit_starts(variant, case)
        thetas, values = gp_module._minimize_box(fun, starts, LOG_LO, LOG_HI)
        assert thetas.shape == starts.shape and values.shape == (len(starts),)
        for start, theta, value in zip(starts, thetas, values):
            (alone,), (alone_value,) = gp_module._minimize_box(fun, start[None], LOG_LO,
                                                               LOG_HI)
            assert np.array_equal(theta, alone) and value == alone_value

    def test_max_evals_stops_each_row_on_its_own_count(self, monkeypatch):
        monkeypatch.setattr(gp_module, "_MAX_EVALS", 4)
        variant, points, y = search_problem(5)
        builder = GramBuilder.build(StackedSummaries.build(points), variant)
        seen = []

        def fun(thetas):
            seen.append(len(thetas))
            return builder.neg_lml(thetas, y)

        starts = fit_starts(variant, 5)
        thetas, values = gp_module._minimize_box(fun, starts, LOG_LO, LOG_HI)
        lockstep_rows, counts = sum(seen), []
        for start, theta, value in zip(starts, thetas, values):
            seen.clear()
            (alone,), (alone_value,) = gp_module._minimize_box(fun, start[None], LOG_LO,
                                                               LOG_HI)
            counts.append(len(seen))
            assert np.array_equal(theta, alone) and value == alone_value
        assert max(counts) == 4  # the cap ends some searches ...
        assert lockstep_rows == sum(counts)  # ... and each row made its own evaluations

    def test_failed_start_stops_while_the_others_go_on(self):
        bad = np.array([0.25, -0.5])
        center = np.array([0.3, -0.2])
        calls = []

        def fun(thetas):
            calls.append(thetas.copy())
            failed = (thetas == bad).all(axis=1)
            values = np.where(failed, 1e25, ((thetas - center) ** 2).sum(axis=1))
            return values, np.where(failed[:, None], 0.0, 2.0 * (thetas - center))

        starts = np.array([[1.0, 1.0], bad, [-2.0, 0.5]])
        thetas, values = gp_module._minimize_box(fun, starts, LOG_LO, LOG_HI)
        assert values[1] == 1e25 and np.array_equal(thetas[1], bad)
        assert [len(c) for c in calls[:2]] == [3, 2]
        assert not any((c == bad).all(axis=1).any() for c in calls[1:])
        assert np.allclose(thetas[[0, 2]], center, atol=1e-5)
        for row in (0, 2):
            (alone,), (alone_value,) = gp_module._minimize_box(fun, starts[row][None],
                                                               LOG_LO, LOG_HI)
            assert np.array_equal(thetas[row], alone) and values[row] == alone_value


def test_no_graphbo_process_imports_scipy(tmp_path):
    # the runtime needs numpy only: a fresh process that fits, solves with
    # both strategies, encodes, exports and reads back never loads scipy,
    # whose linalg and sparse subpackages alone cost about 30 MiB and 0.3 s
    code = f"""
import sys
import graphbo, graphbo.cli
dom = graphbo.DomainSpec(n=3, num_labels=2)
points = [graphbo.sample_feasible(dom, seed) for seed in range(4)]
model = graphbo.fit(points, [0.5, -1.0, 0.25, 2.0], "essp", seed=0, restarts=2)
for strategy in ("enumerate", "branch_and_propagate"):
    graphbo.solve(model, dom, 1.0, strategy=strategy)
mip = graphbo.encode_acquisition(model, dom, 1.0)
graphbo.export_model(mip, {str(tmp_path / "m.mps")!r}, fmt="mps", breakpoints=8)
graphbo.export_model(mip, {str(tmp_path / "m.lp")!r}, fmt="lp", breakpoints=8)
graphbo.read_mps({str(tmp_path / "m.mps")!r})
graphbo.read_lp({str(tmp_path / "m.lp")!r})
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(graphbo.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


class TestFactorization:
    def test_jitter_rescues_rank_deficiency(self, rng):
        g = random_graph(rng, 4)
        k = gram([g, g], KernelVariant.SSP, KernelHyperparams())
        chol = factorize(k, 0.0)  # singular without jitter
        assert np.allclose(chol @ chol.T, k + 1e-8 * np.eye(2), atol=1e-10)

    def test_model_invariants(self, rng):
        points = distinct_profile_graphs(rng, 5)
        y = rng.normal(size=5)
        hyper = KernelHyperparams(alpha=1.0, beta=1.0)
        model = GpModel.build(points, y, KernelVariant.SSP, hyper)
        k = gram(points, KernelVariant.SSP, hyper) + NOISE * np.eye(5)
        assert np.allclose(model.chol @ model.chol.T, k, rtol=1e-10, atol=1e-12)
        assert np.allclose(k @ model.weights, y, atol=1e-8)


    @pytest.fixture(scope="class")
    def models(self):
        """Models at unit weights on t = 5, 25 and 100 distinct profiles and
        on t = 25 points with five profiles repeated, for every variant."""
        rng = np.random.default_rng(7)
        points = distinct_profile_graphs(rng, 100)
        sets = {"5": points[:5], "25": points[:25], "100": points,
                "duplicates": points[:20] + points[:5]}
        out = []
        for name, pts in sets.items():
            for variant in KernelVariant:
                hyper = KernelHyperparams(alpha=1.0, beta=1.0,
                                          sigma_k_sq=1.0 if variant.exponential else None)
                y = rng.normal(size=len(pts))
                out.append((name, variant, GpModel.build(pts, y, variant, hyper), y))
        return out

    def test_inverse_factor_matches_solve_triangular(self, models):
        for name, variant, model, _ in models:
            inv = model.inverse_factor
            assert not np.triu(inv, 1).any(), (name, variant)
            ref = linalg.solve_triangular(model.chol, np.eye(model.size), lower=True)
            assert np.max(np.abs(inv - ref)) <= 1e-13 * np.max(np.abs(ref)), (name, variant)

    def test_weights_match_cho_solve(self, models):
        for name, variant, model, y in models:
            ref = linalg.cho_solve((model.chol, True), y)
            assert np.allclose(model.weights, ref, rtol=1e-10, atol=1e-12), (name, variant)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_raises(self, rng, bad):
        # the factorization checks finiteness once; the solves against the
        # factor skip scipy's checks, so targets are checked on entry
        points = distinct_profile_graphs(rng, 3)
        hyper = KernelHyperparams(alpha=1.0, beta=1.0)
        k = gram(points, KernelVariant.SSP, hyper)
        k[0, 1] = k[1, 0] = bad
        with pytest.raises(ValueError):
            factorize(k, NOISE)
        y = [0.5, bad, -0.5]
        with pytest.raises(ValueError):
            GpModel.build(points, y, KernelVariant.SSP, hyper)
        with pytest.raises(ValueError):
            log_marginal_likelihood(points, y, KernelVariant.SSP, hyper)
        with pytest.raises(ValueError):
            fit(points, y, KernelVariant.SSP, seed=0, restarts=1)


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        points = distinct_profile_graphs(rng, 4)
        y = rng.normal(size=4)
        model = fit(points, y, KernelVariant.ESSP, seed=0)
        path = tmp_path / "model.json"
        graphbo.dump_model(model, path)
        loaded = graphbo.load_model(path)
        assert loaded.hyper == model.hyper
        assert loaded.variant == model.variant
        assert np.allclose(loaded.weights, model.weights)
        assert loaded.points == model.points

    def test_corrupted_weights_rejected(self, tmp_path, rng):
        import json

        points = distinct_profile_graphs(rng, 3)
        model = GpModel.build(points, rng.normal(size=3), KernelVariant.SSP,
                              KernelHyperparams())
        payload = model.to_dict()
        payload["weights"] = [w + 1.0 for w in payload["weights"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            graphbo.load_model(path)
