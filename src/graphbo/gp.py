"""Gaussian-process regression over attributed graphs.

Hyperparameters (graph weight, feature weight, and the exponential-variant
variance) are fitted by maximizing the log marginal likelihood with a
multi-start bounded quasi-Newton search over log-parameters: an in-house
projected BFGS (``_minimize_box``) over the 2- or 3-dimensional box, not
SciPy's optimizer package, whose import alone would add about 0.2 s and
19 MiB to every graphbo process for this one call. Each evaluation
factorizes the noisy Gram matrix once and takes both the likelihood and its
closed-form gradient (Rasmussen & Williams 2006, eq. 5.9) from that factor.
Every prediction (``posterior``, ``lcb``, both solvers, the MIP model's
exact evaluation) goes through ``predict``, which reduces each row along
its own axis in a fixed order (Higham 2002, section 3.1: a sum rounds the
same way only when it is taken in the same order). A point therefore gets
one mean, one variance and one LCB in any batch, at any position, so the
solvers can compare batched values with ``lcb``'s directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import linalg as sla
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import FactorizationError, UnfittedModelError
from .graphs import AttributedGraph
from .kernels import (
    HYPER_BOX,
    KernelHyperparams,
    KernelVariant,
    StackedSummaries,
    _count_products,
    _graph_part,
    _weigh,
    cross_gram,
    gram,
    self_kernel_parts,
)

NOISE_VAR = 1e-6
JITTER = 1e-8
FIT_RESTARTS = 8


def factorize(matrix: np.ndarray, noise_var: float) -> np.ndarray:
    """Lower Cholesky factor of (matrix + noise_var I), retrying once with
    added jitter before giving up.

    Non-finite entries raise ValueError. This is the one finiteness check
    on the factor: the solves against it skip scipy's own. The factor and
    the solves against it call LAPACK's ``dpotrf``/``dpotrs`` directly,
    the routines under ``scipy.linalg.cholesky``/``cho_solve``, without
    those wrappers' per-call overhead.
    """
    k = matrix + noise_var * np.eye(matrix.shape[0])
    if not np.isfinite(k).all():
        raise ValueError("matrix to factorize must not contain infs or NaNs")
    chol, info = dpotrf(k, lower=True)
    if info > 0:  # a leading minor is not positive definite
        chol, info = dpotrf(k + JITTER * np.eye(matrix.shape[0]), lower=True)
    if info > 0:
        raise FactorizationError("Gram factorization failed with jitter")
    return chol


def _targets(y) -> np.ndarray:
    """Targets as floats; non-finite ones raise ValueError."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("targets must not contain infs or NaNs")
    return y


@dataclass(frozen=True)
class GramBuilder:
    """Hyperparameter-independent Gram components of a training set,
    computed once: the graph part G (``kernels._graph_part``: the linear
    graph kernel, or its exponential for ``essp``/``esp``) and the feature
    kernel F. Each likelihood evaluation during fitting weights them with
    ``kernels._weigh`` and sums them, K = alpha * (G / sigma_k_sq) + beta * F,
    which is ``cross_gram``'s arithmetic in its order."""

    variant: KernelVariant
    graph: np.ndarray
    feature: np.ndarray

    @staticmethod
    def build(profile: StackedSummaries, variant: KernelVariant) -> "GramBuilder":
        linear, feature = _count_products(profile, profile, variant.labeled)
        return GramBuilder(variant, _graph_part(linear, variant), feature)

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
        graph, feature = _weigh(self.graph, self.feature, self.variant,
                                _hyper_from_theta(theta, self.variant.exponential))
        try:
            chol = factorize(graph + feature, noise_var)
        except FactorizationError:
            return 1e25, np.zeros(len(theta))
        value, a = _lml_terms(chol, y)
        w = np.outer(a, a) - dpotrs(chol, np.eye(len(y)), lower=True)[0]
        grad_graph = -0.5 * np.vdot(w, graph)
        grad = [grad_graph, -0.5 * np.vdot(w, feature)]
        if self.variant.exponential:
            grad.append(-grad_graph)
        return -value, np.array(grad)


def _lml_terms(chol: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Log marginal likelihood from the Cholesky factor of K + noise I, and
    the weights a = (K + noise I)^-1 y it solves for."""
    a = dpotrs(chol, y, lower=True)[0]
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
    y = _targets(y)
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
        y = _targets(y)
        points = tuple(points)
        if len(points) != len(y):
            raise ValueError("need one target per point")
        if len(points) == 0:
            return GpModel(points, y, variant, hyper, noise_var, None, np.zeros(0), None)
        profile = StackedSummaries.build(points)
        chol = factorize(cross_gram(profile, profile, variant, hyper), noise_var)
        weights = dpotrs(chol, y, lower=True)[0]
        return GpModel(points, y, variant, hyper, noise_var, chol, weights, profile)

    @cached_property
    def inverse_factor(self) -> np.ndarray:
        """L^-1 for the lower Cholesky factor of (K + noise I), computed
        once per model."""
        if self.chol is None:
            raise UnfittedModelError("empty model has no covariance factor")
        return sla.solve_triangular(self.chol, np.eye(self.size), lower=True,
                                    check_finite=False)

    def precision(self) -> np.ndarray:
        """(K + noise I)^-1 reconstructed from the Cholesky factor."""
        inv_l = self.inverse_factor
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
    clipped to [0, prior variance].

    mu = k_x^T w and var = k(x, x) - |z|^2 with z = L^-1 k_x. Each sum is a
    row-wise ``einsum`` reduction in a fixed order, where BLAS would round a
    row by the batch size and the row's position, so every point's values
    equal those of a stack of one.
    """
    kxx = self_kernel_parts(points, model.variant, model.hyper)
    if model.size == 0:
        return np.zeros(len(kxx)), kxx
    kx = cross_gram(points, model.profile, model.variant, model.hyper)
    mu = np.einsum("ij,j->i", kx, model.weights, optimize=False)
    z = np.einsum("ij,kj->ik", kx, model.inverse_factor, optimize=False)
    q = np.einsum("ij,ij->i", z, z, optimize=False)
    return mu, np.clip(kxx - q, 0.0, kxx)


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


# stopping rules and line search of _minimize_box: L-BFGS-B's defaults
# (pgtol, factr * machine epsilon, maxfun) and the Armijo constant
_PGTOL = 1e-5
_FTOL = 1e7 * np.finfo(float).eps
_MAX_EVALS = 15_000
_ARMIJO = 1e-4


def _minimize_box(fun, theta0: np.ndarray, lo: float, hi: float
                  ) -> tuple[np.ndarray, float]:
    """Minimize ``fun(theta) -> (value, gradient)`` over the box [lo, hi]^d
    from theta0 by projected BFGS (Nocedal & Wright 2006, sections 6.1 and
    16.7); returns the last point and its value.

    A dense inverse-Hessian estimate (d is 2 or 3) gives the step on the
    free coordinates; a coordinate on a bound whose gradient points out of
    the box stays fixed. Each step backtracks by halving along the path
    projected onto the box until the Armijo condition holds, the estimate is
    updated only when s^T y > 0, and a step that does not descend is
    replaced by steepest descent. The search stops when the projected
    gradient's max-norm is at most ``_PGTOL``, when an iteration lowers the
    value by at most ``_FTOL`` relative (or a backtracked step's first-order
    decrease falls to that size, so no shorter step could do better), or
    after ``_MAX_EVALS`` evaluations. A start that ``fun`` scores with a
    zero gradient (a failed factorization) is returned after one evaluation.
    """
    theta = np.clip(theta0, lo, hi)
    value, grad = fun(theta)
    evals = 1
    inv_hess = None
    while evals < _MAX_EVALS:
        if np.max(np.abs(theta - np.clip(theta - grad, lo, hi))) <= _PGTOL:
            break
        free = ~(((theta <= lo) & (grad > 0)) | ((theta >= hi) & (grad < 0)))
        step = -np.where(free, grad, 0.0)
        if inv_hess is None:  # no curvature pair yet: a descent step of length <= 1
            step /= max(np.linalg.norm(step), 1.0)
        else:
            step = np.where(free, inv_hess @ step, 0.0)
            # the projected path starts without the components that leave the box
            step[((theta <= lo) & (step < 0)) | ((theta >= hi) & (step > 0))] = 0.0
            if grad @ step >= 0:
                step = np.where(free, -grad, 0.0)
        descent = -(grad @ step)
        scale = 1.0
        while True:
            trial = np.clip(theta + scale * step, lo, hi)
            trial_value, trial_grad = fun(trial)
            evals += 1
            if trial_value <= value + _ARMIJO * (grad @ (trial - theta)):
                break
            scale *= 0.5
            # a shorter step cannot pass the relative-decrease test either
            if scale * descent <= _FTOL * max(abs(value), 1.0) or evals >= _MAX_EVALS:
                return theta, value
        s, y = trial - theta, trial_grad - grad
        decrease = value - trial_value
        theta, value, grad = trial, trial_value, trial_grad
        if decrease <= _FTOL * max(abs(value), abs(value + decrease), 1.0):
            break
        sy = s @ y
        if sy > 0:
            if inv_hess is None:  # scaled identity first (N&W eq. 6.20)
                inv_hess = sy / (y @ y) * np.eye(len(theta))
            rho = 1.0 / sy
            v = np.eye(len(theta)) - rho * np.outer(s, y)
            inv_hess = v @ inv_hess @ v.T + rho * np.outer(s, s)
    return theta, value


def fit(points: Sequence[AttributedGraph], y, variant: KernelVariant | str,
        seed: int = 0, restarts: int = FIT_RESTARTS,
        noise_var: float = NOISE_VAR) -> GpModel:
    """Fit hyperparameters by maximizing the log marginal likelihood.

    Multi-start bounded search: the first start is the all-ones point, the
    rest are log-uniform in the [0.01, 100] box, and each runs
    ``_minimize_box`` (projected BFGS with L-BFGS-B's stopping rules, kept
    in-house so that no graphbo process imports SciPy's optimizer package).
    Deterministic for a given seed; ties between restarts resolve to the
    lowest restart index. ``variant`` may be a KernelVariant or its string
    value.
    """
    variant = KernelVariant(variant)
    y = _targets(y)
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
        theta, value = _minimize_box(lambda theta: builder.neg_lml(theta, y, noise_var),
                                     theta0, lo, hi)
        if value < best_value:
            best_value = value
            best_theta = theta

    hyper = _hyper_from_theta(best_theta, variant.exponential)
    return GpModel.build(points, y, variant, hyper, noise_var=noise_var)
