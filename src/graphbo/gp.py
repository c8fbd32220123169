"""Gaussian-process regression over attributed graphs.

Hyperparameters (graph weight, feature weight, and the exponential-variant
variance) are fitted by maximizing the log marginal likelihood with a
multi-start bounded quasi-Newton search over log-parameters. Each step of
the search factorizes the noisy Gram matrix once and takes both the
likelihood and its closed-form gradient (Rasmussen & Williams 2006, eq. 5.9)
from that factor. Every prediction (``posterior``, ``lcb``, the enumerate
solve, the MIP model's exact evaluation) goes through ``predict``: one
batched triangular solve against the Cholesky factor of the noisy Gram
matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import linalg as sla
from scipy import optimize as sopt

from .errors import FactorizationError, UnfittedModelError
from .graphs import AttributedGraph
from .kernels import (
    HYPER_BOX,
    KernelHyperparams,
    KernelVariant,
    StackedSummaries,
    _count_products,
    cross_gram,
    gram,
    self_kernel_parts,
)

NOISE_VAR = 1e-6
JITTER = 1e-8
FIT_RESTARTS = 8


def factorize(matrix: np.ndarray, noise_var: float) -> np.ndarray:
    """Lower Cholesky factor of (matrix + noise_var I), retrying once with
    added jitter before giving up."""
    k = matrix + noise_var * np.eye(matrix.shape[0])
    try:
        return sla.cholesky(k, lower=True)
    except sla.LinAlgError:
        pass
    try:
        return sla.cholesky(k + JITTER * np.eye(matrix.shape[0]), lower=True)
    except sla.LinAlgError as exc:
        raise FactorizationError("Gram factorization failed with jitter") from exc


@dataclass(frozen=True)
class GramBuilder:
    """Hyperparameter-independent Gram components of a training set: the
    graph part G (the linear graph kernel, or its exponential for
    ``essp``/``esp``) and the feature kernel F, computed once so that
    likelihood evaluations during fitting only recombine them as
    K = alpha * G + beta * F, with G divided by sigma_k_sq for the
    exponential variants."""

    variant: KernelVariant
    graph: np.ndarray
    feature: np.ndarray

    @staticmethod
    def build(profile: StackedSummaries, variant: KernelVariant) -> "GramBuilder":
        base, feature = _count_products(profile, profile, variant.labeled)
        return GramBuilder(variant, np.exp(base) if variant.exponential else base,
                           feature)

    def neg_lml(self, theta: np.ndarray, y: np.ndarray,
                noise_var: float = NOISE_VAR) -> tuple[float, np.ndarray]:
        """Negative log marginal likelihood at log-hyperparameters theta
        (log alpha, log beta[, log sigma_k_sq]) and its gradient in theta,
        both from one factorization.

        With W = a a^T - K^-1 and a = K^-1 y, d(-LML)/d theta_j is
        -1/2 sum(W * dK/d theta_j); dK/d log alpha is the weighted graph
        part, dK/d log beta the weighted feature part, and dK/d log sigma_k_sq
        minus the weighted graph part. A failed factorization scores 1e25
        with a zero gradient.
        """
        values = np.exp(theta)
        graph = self.graph / values[2] if self.variant.exponential else self.graph
        graph = values[0] * graph
        feature = values[1] * self.feature
        try:
            chol = factorize(graph + feature, noise_var)
        except FactorizationError:
            return 1e25, np.zeros(len(theta))
        value, a = _lml_terms(chol, y)
        w = np.outer(a, a) - sla.cho_solve((chol, True), np.eye(len(y)))
        grad_graph = -0.5 * np.vdot(w, graph)
        grad = [grad_graph, -0.5 * np.vdot(w, feature)]
        if self.variant.exponential:
            grad.append(-grad_graph)
        return -value, np.array(grad)


def _lml_terms(chol: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Log marginal likelihood from the Cholesky factor of K + noise I, and
    the weights a = (K + noise I)^-1 y it solves for."""
    a = sla.cho_solve((chol, True), y)
    t = len(y)
    value = float(
        -0.5 * np.dot(y, a)
        - np.sum(np.log(np.diag(chol)))
        - 0.5 * t * math.log(2.0 * math.pi)
    )
    return value, a


def log_marginal_likelihood(points: Sequence[AttributedGraph], y,
                            variant: KernelVariant | str, hyper: KernelHyperparams,
                            noise_var: float = NOISE_VAR) -> float:
    """Gaussian log evidence of y under the combined kernel."""
    variant = KernelVariant(variant)
    y = np.asarray(y, dtype=float)
    if len(points) != len(y) or len(y) < 1:
        raise ValueError("need one target per point and at least one point")
    chol = factorize(gram(points, variant, hyper), noise_var)
    return _lml_terms(chol, y)[0]


@dataclass(frozen=True)
class GpModel:
    """Fitted GP: training set, kernel configuration, and factored covariance.

    ``profile`` stacks the training set's count-space profiles once (None
    for an empty model); every kernel value against the training set reads
    it.
    """

    points: tuple[AttributedGraph, ...]
    y: np.ndarray
    variant: KernelVariant
    hyper: KernelHyperparams
    noise_var: float
    chol: np.ndarray | None
    weights: np.ndarray
    profile: StackedSummaries | None

    @property
    def size(self) -> int:
        return len(self.points)

    @staticmethod
    def build(points: Sequence[AttributedGraph], y, variant: KernelVariant,
              hyper: KernelHyperparams, noise_var: float = NOISE_VAR) -> "GpModel":
        """Assemble a model at given hyperparameters (no fitting)."""
        y = np.asarray(y, dtype=float)
        points = tuple(points)
        if len(points) != len(y):
            raise ValueError("need one target per point")
        if len(points) == 0:
            return GpModel(points, y, variant, hyper, noise_var, None, np.zeros(0), None)
        profile = StackedSummaries.build(points)
        chol = factorize(cross_gram(profile, profile, variant, hyper), noise_var)
        weights = sla.cho_solve((chol, True), y)
        return GpModel(points, y, variant, hyper, noise_var, chol, weights, profile)

    def inverse_factor(self) -> np.ndarray:
        """L^-1 for the lower Cholesky factor of (K + noise I)."""
        if self.chol is None:
            raise UnfittedModelError("empty model has no covariance factor")
        return sla.solve_triangular(self.chol, np.eye(self.size), lower=True)

    def precision(self) -> np.ndarray:
        """(K + noise I)^-1 reconstructed from the Cholesky factor."""
        inv_l = self.inverse_factor()
        q = inv_l.T @ inv_l
        return (q + q.T) / 2.0

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "alpha": self.hyper.alpha,
            "beta": self.hyper.beta,
            "sigma_k_sq": self.hyper.sigma_k_sq,
            "noise_var": self.noise_var,
            "weights": self.weights.tolist(),
            "training_set": [
                {"graph": g.to_dict(), "y": float(v)}
                for g, v in zip(self.points, self.y)
            ],
        }

    @staticmethod
    def from_dict(obj: dict) -> "GpModel":
        hyper = KernelHyperparams(
            alpha=float(obj["alpha"]),
            beta=float(obj["beta"]),
            sigma_k_sq=None if obj.get("sigma_k_sq") is None else float(obj["sigma_k_sq"]),
        )
        points = [AttributedGraph.from_dict(rec["graph"]) for rec in obj["training_set"]]
        y = [rec["y"] for rec in obj["training_set"]]
        model = GpModel.build(points, y, KernelVariant(obj["variant"]), hyper,
                              noise_var=float(obj["noise_var"]))
        stored = np.asarray(obj["weights"], dtype=float)
        if stored.shape == model.weights.shape and not np.allclose(
                stored, model.weights, atol=1e-8):
            raise ValueError("stored weights disagree with the rebuilt factorization")
        return model


def dump_model(model: GpModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh)


def load_model(path) -> GpModel:
    with open(path, "r", encoding="utf-8") as fh:
        return GpModel.from_dict(json.load(fh))


def predict(model: GpModel, points: StackedSummaries) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances at every stacked point; variances are
    clipped to [0, prior variance]."""
    kxx = self_kernel_parts(points, model.variant, model.hyper)
    if model.size == 0:
        return np.zeros(len(kxx)), kxx
    kx = cross_gram(points, model.profile, model.variant, model.hyper)
    v = sla.solve_triangular(model.chol, kx.T, lower=True)
    return kx @ model.weights, np.clip(kxx - np.sum(v * v, axis=0), 0.0, kxx)


def posterior(model: GpModel, x: AttributedGraph) -> tuple[float, float]:
    """Posterior mean and variance at x (``predict`` at one point)."""
    mu, var = predict(model, StackedSummaries.build([x]))
    return float(mu[0]), float(var[0])


def lcb(model: GpModel, x: AttributedGraph, beta_sqrt: float) -> float:
    """Lower confidence bound mu - beta_sqrt * sigma."""
    if beta_sqrt < 0:
        raise ValueError("beta_sqrt must be nonnegative")
    mu, var = posterior(model, x)
    return mu - beta_sqrt * math.sqrt(var)


# ---------------------------------------------------------------------------
# hyperparameter fitting


def _hyper_from_theta(theta: np.ndarray, exponential: bool) -> KernelHyperparams:
    values = np.exp(theta)
    sigma = float(values[2]) if exponential else None
    return KernelHyperparams(alpha=float(values[0]), beta=float(values[1]),
                             sigma_k_sq=sigma)


def fit(points: Sequence[AttributedGraph], y, variant: KernelVariant | str,
        seed: int = 0, restarts: int = FIT_RESTARTS,
        noise_var: float = NOISE_VAR) -> GpModel:
    """Fit hyperparameters by maximizing the log marginal likelihood.

    Multi-start bounded search: the first start is the all-ones point, the
    rest are log-uniform in the [0.01, 100] box. Deterministic for a given
    seed; ties between restarts resolve to the lowest restart index.
    ``variant`` may be a KernelVariant or its string value.
    """
    variant = KernelVariant(variant)
    y = np.asarray(y, dtype=float)
    points = tuple(points)
    if len(points) < 2:
        raise ValueError("fitting needs at least two points")
    if len(points) != len(y):
        raise ValueError("need one target per point")

    builder = GramBuilder.build(StackedSummaries.build(points), variant)
    dim = 3 if variant.exponential else 2
    lo, hi = math.log(HYPER_BOX[0]), math.log(HYPER_BOX[1])

    rng = np.random.default_rng(seed)
    starts = [np.zeros(dim)]
    for _ in range(max(restarts - 1, 0)):
        starts.append(rng.uniform(lo, hi, size=dim))

    best_value = math.inf
    best_theta = starts[0]
    for theta0 in starts:
        result = sopt.minimize(
            lambda theta: builder.neg_lml(np.clip(theta, lo, hi), y, noise_var),
            theta0,
            jac=True,
            method="L-BFGS-B",
            bounds=[(lo, hi)] * dim,
        )
        if result.fun < best_value:
            best_value = result.fun
            best_theta = np.clip(result.x, lo, hi)

    hyper = _hyper_from_theta(best_theta, variant.exponential)
    return GpModel.build(points, y, variant, hyper, noise_var=noise_var)
