"""Gaussian-process regression over attributed graphs.

Hyperparameters (graph weight, feature weight, and the exponential-variant
variance) are fitted by maximizing the log marginal likelihood with a
multi-start bounded quasi-Newton search over log-parameters: an in-house
projected BFGS (``_minimize_box``) over the 2- or 3-dimensional box. Each
evaluation factorizes the noisy Gram matrix once (Rasmussen & Williams 2006,
Algorithm 2.1) and takes both the likelihood and its closed-form gradient
(eq. 5.9) from that factor. The factor is ``np.linalg.cholesky``'s, and
every solve against it runs through ``numpy.linalg`` on an upper triangular
matrix (L^T, or L with rows and columns reversed): LU's partial pivoting
swaps no row of such a matrix, so ``solve`` and ``inv`` do a plain back
substitution. graphbo therefore needs numpy only; SciPy's optimizer,
``linalg`` and ``sparse`` packages would add about 50 MiB and 0.5 s to the
start of every process. Every prediction (``posterior``, ``lcb``, both
solvers, the MIP model's exact evaluation) goes through ``predict``, which
reduces each row along its own axis in a fixed order (Higham 2002, section
3.1: a sum rounds the same way only when it is taken in the same order). A
point therefore gets one mean, one variance and one LCB in any batch, at
any position, so the solvers can compare batched values with ``lcb``'s
directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

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
    """Lower Cholesky factor L of (matrix + noise_var I), from
    ``np.linalg.cholesky``, retrying once with ``JITTER`` added to the
    diagonal before raising FactorizationError.

    Non-finite entries raise ValueError. Cholesky reads the lower triangle,
    and a non-finite entry there either stops the factorization or leaves a
    non-finite diagonal, so the matrix itself is checked only then: a
    likelihood evaluation of a finite Gram pays no extra pass over it.
    """
    k = np.array(matrix, dtype=float, order="C")
    diagonal = k.reshape(-1)[::len(k) + 1]
    diagonal += noise_var
    try:
        chol = np.linalg.cholesky(k)
        if math.isfinite(chol.trace()):  # a sum of positive finite square roots
            return chol
    except np.linalg.LinAlgError:  # a leading minor is not positive definite
        pass
    if not np.isfinite(k).all():
        raise ValueError("matrix to factorize must not contain infs or NaNs")
    diagonal += JITTER
    try:
        return np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        raise FactorizationError("Gram factorization failed with jitter") from None


def _upper_inverse(chol: np.ndarray) -> np.ndarray:
    """L^-T, the inverse of the upper triangular L^T. ``np.linalg.inv``
    factors its argument with partial pivoting, which swaps no rows of an
    upper triangular matrix, so this is a plain back substitution, and the
    result is exactly upper triangular."""
    return np.linalg.inv(chol.T)


def _forward_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^-1 b. It runs on the reversed factor, which is upper triangular, so
    ``np.linalg.solve`` swaps no row (see ``_upper_inverse``)."""
    return np.linalg.solve(chol[::-1, ::-1], b[::-1])[::-1]


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
        both from one factorization K = L L^T and the inverse L^-T of its
        upper factor, K^-1 = L^-T L^-1.

        With W = a a^T - K^-1 and a = K^-1 y, d(-LML)/d theta_j is
        -1/2 sum(W * dK/d theta_j), taken as -1/2 (a^T dK a - <K^-1, dK>);
        dK/d log alpha is the weighted graph part, dK/d log beta the weighted
        feature part, and dK/d log sigma_k_sq minus the weighted graph part.
        A failed factorization scores 1e25 with a zero gradient.
        """
        graph, feature = _weigh(self.graph, self.feature, self.variant,
                                _hyper_from_theta(theta, self.variant.exponential))
        try:
            chol = factorize(graph + feature, noise_var)
        except FactorizationError:
            return 1e25, np.zeros(len(theta))
        inv_t = _upper_inverse(chol)
        k_inv = inv_t.dot(inv_t.T)
        z = y.dot(inv_t)  # L^-1 y
        a = inv_t.dot(z)
        # a^T G a - <K^-1, G> is sum(W * G) without forming W
        grad_graph = -0.5 * (a.dot(graph).dot(a) - np.vdot(k_inv, graph))
        grad = [grad_graph, -0.5 * (a.dot(feature).dot(a) - np.vdot(k_inv, feature))]
        if self.variant.exponential:
            grad.append(-grad_graph)
        return -_lml_value(chol, z.dot(z)), np.array(grad)


def _lml_value(chol: np.ndarray, quad: float) -> float:
    """Log marginal likelihood from the Cholesky factor L of K + noise I and
    quad = y^T (K + noise I)^-1 y."""
    return float(-0.5 * quad - np.log(chol.diagonal()).sum()
                 - 0.5 * len(chol) * math.log(2.0 * math.pi))


def log_marginal_likelihood(points: Sequence[AttributedGraph], y,
                            variant: KernelVariant | str, hyper: KernelHyperparams,
                            noise_var: float = NOISE_VAR) -> float:
    """Gaussian log evidence of y under the combined kernel."""
    variant = KernelVariant(variant)
    y = _targets(y)
    if len(points) != len(y) or len(y) < 1:
        raise ValueError("need one target per point and at least one point")
    chol = factorize(gram(points, variant, hyper), noise_var)
    z = _forward_solve(chol, y)
    return _lml_value(chol, z @ z)


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
        weights = np.linalg.solve(chol.T, _forward_solve(chol, y))  # L^T is upper triangular
        return GpModel(points, y, variant, hyper, noise_var, chol, weights, profile)

    @cached_property
    def inverse_factor(self) -> np.ndarray:
        """L^-1 for the lower Cholesky factor of (K + noise I), computed
        once per model."""
        if self.chol is None:
            raise UnfittedModelError("empty model has no covariance factor")
        return _upper_inverse(self.chol).T

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
    values = np.exp(theta).tolist()
    return KernelHyperparams(alpha=values[0], beta=values[1],
                             sigma_k_sq=values[2] if exponential else None)


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
    def project(v):  # np.clip's arithmetic without its per-call overhead
        return np.minimum(np.maximum(v, lo), hi)

    identity = np.eye(len(theta0))
    theta = project(theta0)
    value, grad = fun(theta)
    evals = 1
    inv_hess = None
    while evals < _MAX_EVALS:
        if np.abs(theta - project(theta - grad)).max() <= _PGTOL:
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
            trial = project(theta + scale * step)
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
                inv_hess = sy / (y @ y) * identity
            rho = 1.0 / sy
            v = identity - rho * np.outer(s, y)
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
