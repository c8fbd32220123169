"""Gaussian-process regression over attributed graphs.

Hyperparameters (graph weight, feature weight, and the exponential-variant
variance) are fitted by maximizing the log marginal likelihood with a
multi-start bounded quasi-Newton search over log-parameters. Predictions go
through a Cholesky factorization of the noisy Gram matrix.
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
    _combine,
    _count_products,
    cross_gram,
    gram,
    self_kernel_parts,
)

NOISE_VAR = 1e-6
JITTER = 1e-8
FIT_RESTARTS = 8
GRAD_STEP = 1e-4


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
    linear graph kernel and the feature kernel, computed once so that
    likelihood evaluations during fitting only recombine them."""

    variant: KernelVariant
    base: np.ndarray
    feature: np.ndarray

    @staticmethod
    def build(profile: StackedSummaries, variant: KernelVariant) -> "GramBuilder":
        return GramBuilder(variant, *_count_products(profile, profile, variant.labeled))

    def gram(self, hyper: KernelHyperparams) -> np.ndarray:
        return _combine(self.base, self.feature, self.variant, hyper)


def _lml_from_factor(chol: np.ndarray, y: np.ndarray) -> float:
    alpha = sla.cho_solve((chol, True), y)
    t = len(y)
    return float(
        -0.5 * np.dot(y, alpha)
        - np.sum(np.log(np.diag(chol)))
        - 0.5 * t * math.log(2.0 * math.pi)
    )


def log_marginal_likelihood(points: Sequence[AttributedGraph], y,
                            variant: KernelVariant | str, hyper: KernelHyperparams,
                            noise_var: float = NOISE_VAR) -> float:
    """Gaussian log evidence of y under the combined kernel."""
    variant = KernelVariant(variant)
    y = np.asarray(y, dtype=float)
    if len(points) != len(y) or len(y) < 1:
        raise ValueError("need one target per point and at least one point")
    chol = factorize(gram(points, variant, hyper), noise_var)
    return _lml_from_factor(chol, y)


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

    def kernel_vector(self, x: AttributedGraph) -> np.ndarray:
        return cross_gram(StackedSummaries.build([x]), self.profile,
                          self.variant, self.hyper)[0]

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


def posterior(model: GpModel, x: AttributedGraph) -> tuple[float, float]:
    """Posterior mean and variance at x; variance is clipped to
    [0, prior variance]."""
    point = StackedSummaries.build([x])
    kxx = float(self_kernel_parts(point, model.variant, model.hyper)[0])
    if model.size == 0:
        return 0.0, kxx
    kx = cross_gram(point, model.profile, model.variant, model.hyper)[0]
    mu = float(np.dot(kx, model.weights))
    v = sla.solve_triangular(model.chol, kx, lower=True)
    var = kxx - float(np.dot(v, v))
    return mu, float(min(max(var, 0.0), kxx))


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


def _numeric_gradient(fun, theta: np.ndarray, lo: float, hi: float,
                      step: float = GRAD_STEP) -> np.ndarray:
    """Central differences with evaluation points projected into the box."""
    grad = np.zeros_like(theta)
    for j in range(len(theta)):
        up = theta.copy()
        dn = theta.copy()
        up[j] = min(theta[j] + step, hi)
        dn[j] = max(theta[j] - step, lo)
        denom = up[j] - dn[j]
        grad[j] = (fun(up) - fun(dn)) / denom if denom > 0 else 0.0
    return grad


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

    def neg_lml(theta: np.ndarray) -> float:
        hyper = _hyper_from_theta(np.clip(theta, lo, hi), variant.exponential)
        try:
            chol = factorize(builder.gram(hyper), noise_var)
        except FactorizationError:
            return 1e25
        return -_lml_from_factor(chol, y)

    rng = np.random.default_rng(seed)
    starts = [np.zeros(dim)]
    for _ in range(max(restarts - 1, 0)):
        starts.append(rng.uniform(lo, hi, size=dim))

    best_value = math.inf
    best_theta = starts[0]
    for theta0 in starts:
        result = sopt.minimize(
            neg_lml,
            theta0,
            jac=lambda t: _numeric_gradient(neg_lml, t, lo, hi),
            method="L-BFGS-B",
            bounds=[(lo, hi)] * dim,
        )
        if result.fun < best_value:
            best_value = result.fun
            best_theta = np.clip(result.x, lo, hi)

    hyper = _hyper_from_theta(best_theta, variant.exponential)
    return GpModel.build(points, y, variant, hyper, noise_var=noise_var)
