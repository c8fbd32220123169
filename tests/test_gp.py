"""GP regression against a dense explicit-inverse oracle."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import linalg

import graphbo
import graphbo.gp as gp_module
from graphbo import GpModel, KernelHyperparams, KernelVariant, gram
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
    cross_gram,
    k_combined,
    self_kernel_parts,
)

from conftest import random_graph

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
        value, grad = builder.neg_lml(theta, y)
        assert value == pytest.approx(
            -log_marginal_likelihood(points, y, variant, hyper_at(theta)), abs=1e-12)
        step = 1e-5
        numeric = np.array([
            (builder.neg_lml(theta + step * e, y)[0]
             - builder.neg_lml(theta - step * e, y)[0]) / (2 * step)
            for e in np.eye(dim)])
        assert grad.shape == (dim,)
        assert np.allclose(grad, numeric, rtol=1e-6, atol=1e-6)

    def test_failed_factorization_scores_high_with_zero_gradient(self, problem,
                                                                 monkeypatch):
        variant, _, y, builder = problem

        def refuse(matrix, noise_var):
            raise FactorizationError("refused")

        monkeypatch.setattr(gp_module, "factorize", refuse)
        value, grad = builder.neg_lml(np.zeros(3 if variant.exponential else 2), y)
        assert value == 1e25
        assert not grad.any()

    def test_fit_improves_on_the_all_ones_start(self, problem):
        variant, points, y, _ = problem
        model = fit(points, y, variant, seed=0, restarts=3)
        start = KernelHyperparams(alpha=1.0, beta=1.0,
                                  sigma_k_sq=1.0 if variant.exponential else None)
        assert log_marginal_likelihood(points, y, variant, model.hyper) >= \
            log_marginal_likelihood(points, y, variant, start)


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
