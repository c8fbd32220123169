"""Gaussian-process regression over attributed graphs.

Hyperparameters (graph weight, feature weight, and the exponential-variant
variance) are fitted by maximizing the log marginal likelihood with a
multi-start bounded quasi-Newton search over log-parameters: an in-house
projected BFGS (``_minimize_box``) over the 2- or 3-dimensional box. For
every variant the noisy Gram matrix is K = a G + b Phi Phi^T + noise I: the
graph part G is fixed for a fit, a is alpha (alpha / sigma_k_sq for
essp/esp), Phi holds each point's feature sums over its size (t x M) and b
is beta / M. So ``GramBuilder`` decomposes G = Q diag(lambda) Q^T once per
fit (``_grouped_eigh``: repeated profiles get exact zero eigenvalues), and
in that basis a likelihood evaluation is diagonal plus a rank-M correction
(the determinant lemma and the Woodbury identity, Rasmussen & Williams
2006, A.3). The likelihood and its closed-form gradient (eq. 5.9) then cost
O(t M) per restart after one product Q^T y per call, with no t x t factor
or inverse. The restarts search in lockstep, so each step scores every
running restart as one stack; every sum is a row-wise ``einsum`` reduction
and the M x M inverse and determinant are one LAPACK call per slice, so
every restart follows its own trajectory to the bit.

A model at given hyperparameters (``GpModel.build``) is factored with
``np.linalg.cholesky``, and every solve against the factor runs through
``numpy.linalg`` on an upper triangular matrix (L^T, or L with rows and
columns reversed): LU's partial pivoting swaps no row of such a matrix, so
``solve`` and ``inv`` do a plain back substitution. graphbo therefore needs
numpy only; SciPy's optimizer, ``linalg`` and ``sparse`` packages would add
about 50 MiB and 0.5 s to the start of every process. Every prediction
(``posterior``, ``lcb``, both solvers, the MIP model's exact evaluation) goes
through ``predict``, which reduces each row along its own axis in a fixed
order (Higham 2002, section 3.1: a sum rounds the same way only when it is
taken in the same order). A point therefore gets one mean, one variance and
one LCB in any batch, at any position, so the solvers can compare batched
values with ``lcb``'s directly.
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
    non-finite diagonal, so the matrix itself is checked only then.
    """
    k = np.array(matrix, dtype=float, order="C")
    k.reshape(-1)[::len(k) + 1] += noise_var
    try:
        chol = np.linalg.cholesky(k)
        if math.isfinite(chol.trace()):  # a sum of positive finite square roots
            return chol
    except np.linalg.LinAlgError:  # a leading minor is not positive definite
        pass
    if not np.isfinite(k).all():
        raise ValueError("matrix to factorize must not contain infs or NaNs")
    k.reshape(-1)[::len(k) + 1] += JITTER
    try:
        return np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        raise FactorizationError("Gram factorization failed with jitter") from None


def _upper_inverse(upper: np.ndarray) -> np.ndarray:
    """The inverse of an upper triangular matrix (L^T). ``np.linalg.inv``
    factors its argument with partial pivoting, which swaps no rows of an
    upper triangular matrix, so this is a plain back substitution, and the
    result is exactly upper triangular."""
    return np.linalg.inv(upper)


def _forward_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^-1 b. It runs on the reversed factor, which is upper triangular, so
    ``np.linalg.solve`` swaps no row (see ``_upper_inverse``)."""
    return np.linalg.solve(chol[::-1, ::-1], b[::-1])[::-1]


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_i . v_i for each row i of two (B, n) stacks, as a (1 x n) @ (n x 1)
    ``matmul`` per row, which numpy runs as one BLAS ``ddot``, the call a
    1-D ``dot`` makes: each row's sum rounds as it would alone."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _targets(y) -> np.ndarray:
    """Targets as floats; non-finite ones raise ValueError."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("targets must not contain infs or NaNs")
    return y


def _grouped_eigh(graph: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors (columns) of a symmetric
    matrix, with an exact zero eigenvalue for every repeated row.

    Training points that share a kernel profile give equal rows, and a group
    of m equal rows spans m - 1 directions of the null space. ``eigh`` on the
    whole matrix returns those eigenvalues as roundoff of about eps * ||G||
    (up to 1.1e-15 on a 10-point essp Gram), which the graph weight a (up to
    1e4) sets against the 1e-6 noise on exactly the directions that dominate
    y^T K^-1 y: there the likelihood came out up to 16 times, and its
    gradient up to 41 times, further from an exact reference than the
    Cholesky path's. So the null directions are built exactly, as Helmert
    contrasts within each group, and ``eigh`` runs on the matrix of distinct
    rows scaled by sqrt(m_g m_h), whose eigenvectors, spread evenly over each
    group, span the rest.
    """
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(graph):
        groups.setdefault(row.tobytes(), []).append(i)
    members = list(groups.values())
    first = [idx[0] for idx in members]
    scale = np.sqrt([float(len(idx)) for idx in members])
    values, vectors = np.linalg.eigh(graph[np.ix_(first, first)] * np.outer(scale, scale))
    t, distinct = len(graph), len(members)
    spread = np.zeros((t, distinct))
    basis = np.zeros((t, t))
    column = distinct
    for g, idx in enumerate(members):
        spread[idx, g] = 1.0 / scale[g]
        for k in range(1, len(idx)):
            norm = math.sqrt(k * (k + 1))
            basis[idx[:k], column] = 1.0 / norm
            basis[idx[k], column] = -k / norm
            column += 1
    basis[:, :distinct] = spread @ vectors
    return np.concatenate([values, np.zeros(t - distinct)]), basis


@dataclass(frozen=True)
class GramBuilder:
    """A training set's hyperparameter-independent Gram components,
    decomposed once per fit: K = a G + b Phi Phi^T + noise I with
    G = Q diag(``eigenvalues``) Q^T (``basis`` is Q) and ``features`` the
    rotated feature map (Q^T Phi)^T, (M, t). G is ``kernels._graph_part``
    (the linear graph kernel, or its exponential for ``essp``/``esp``), and
    Phi holds each point's feature sums over its size, so b Phi Phi^T with
    b = beta / M is the weighted feature kernel."""

    variant: KernelVariant
    eigenvalues: np.ndarray
    basis: np.ndarray
    features: np.ndarray

    @staticmethod
    def build(profile: StackedSummaries, variant: KernelVariant) -> "GramBuilder":
        linear, _ = _count_products(profile, profile, variant.labeled)
        return GramBuilder.from_parts(variant, _graph_part(linear, variant),
                                      profile.feature_sums / profile.sizes[:, None])

    @staticmethod
    def from_parts(variant: KernelVariant, graph: np.ndarray,
                   features: np.ndarray) -> "GramBuilder":
        """The builder of a graph part G (t, t) and a feature map Phi (t, M)."""
        eigenvalues, basis = _grouped_eigh(graph)
        return GramBuilder(variant, eigenvalues, basis, features.T @ basis)

    def neg_lml(self, thetas: np.ndarray, y: np.ndarray,
                noise_var: float = NOISE_VAR) -> tuple[np.ndarray, np.ndarray]:
        """Negative log marginal likelihood at each row of a stack (B, d) of
        log-hyperparameters (log alpha, log beta[, log sigma_k_sq]) and its
        gradient in theta: values (B,) and gradients (B, d).

        In the eigenbasis K = D + b P P^T with D = a lambda + noise and
        P = Q^T Phi, so with C = I + b P^T D^-1 P (M x M):
        log|K| = sum(log D) + log|C|, and K^-1 = D^-1 - b D^-1 P C^-1 P^T D^-1
        gives r = Q^T K^-1 y from u = Q^T y. With W = K^-1 y y^T K^-1 - K^-1,
        d(-LML)/d theta_j is -1/2 sum(W * dK/d theta_j): dK/d log alpha is
        a G, dK/d log beta is b Phi Phi^T and dK/d log sigma_k_sq is -a G, so
        the gradient needs r^T a diag(lambda) r, b |P^T r|^2 and the traces
        tr(K^-1 a G) = sum(a lambda / D) - b tr(C^-1 P^T D^-1 a diag(lambda) D^-1 P)
        and tr(K^-1 b Phi Phi^T) = M - tr(C^-1).

        A row whose D has an entry <= 0 takes ``JITTER`` once, as
        ``factorize`` does; if one is still <= 0 the row scores 1e25 with a
        zero gradient. Every sum is a row-wise ``np.einsum`` reduction and
        C's inverse and determinant are one LAPACK call per slice, so each
        row is ``==`` to its stack of one, in any stack.
        """
        weights = np.exp(thetas)
        graph_w = weights[:, 0] / weights[:, 2] if self.variant.exponential else weights[:, 0]
        num_features, t = self.features.shape
        feature_w = weights[:, 1] / num_features
        graph = graph_w[:, None] * self.eigenvalues  # a lambda
        diag = graph + noise_var
        failed = None
        if not (diag > 0).all():  # factorize's retry, then a stand-in to overwrite
            failed = diag.min(axis=1) <= 0
            diag[failed] += JITTER
            failed = diag.min(axis=1) <= 0
            diag[failed] = 1.0
        inv_d = 1.0 / diag
        u = y @ self.basis
        # Z D^-1 Z^T for Z = [P^T; u^T]: P^T D^-1 P, P^T D^-1 u and u^T D^-1 u
        z = np.vstack([self.features, u])
        moments = np.einsum("bt,kt,lt->bkl", inv_d, z, z, optimize=False)
        correction = feature_w[:, None, None] * moments[:, :-1, :-1] + np.eye(num_features)
        c_inv = np.linalg.inv(correction)
        v = moments[:, :-1, -1]
        c_v = np.einsum("bkl,bl->bk", c_inv, v, optimize=False)  # also P^T r
        quad = moments[:, -1, -1] - feature_w * np.einsum("bk,bk->b", v, c_v, optimize=False)
        r = inv_d * (u - feature_w[:, None] * np.einsum("bk,kt->bt", c_v, self.features,
                                                         optimize=False))
        graph_moments = np.einsum("bt,kt,lt->bkl", graph * inv_d * inv_d, self.features,
                                  self.features, optimize=False)
        trace_graph = (np.einsum("bt,bt->b", graph, inv_d, optimize=False)
                       - feature_w * np.einsum("bkl,blk->b", c_inv, graph_moments,
                                               optimize=False))
        grads = np.empty(thetas.shape)
        grads[:, 0] = 0.5 * (trace_graph - np.einsum("bt,bt->b", graph * r, r, optimize=False))
        grads[:, 1] = 0.5 * (num_features - np.einsum("bkk->b", c_inv, optimize=False)
                             - feature_w * np.einsum("bk,bk->b", c_v, c_v, optimize=False))
        if self.variant.exponential:
            grads[:, 2] = -grads[:, 0]
        log_det = (np.einsum("bt->b", np.log(diag), optimize=False)
                   + np.linalg.slogdet(correction)[1])
        values = 0.5 * (quad + log_det + t * math.log(2.0 * math.pi))
        if failed is not None:
            values[failed], grads[failed] = 1e25, 0.0
        return values, grads


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
    return float(-0.5 * (z @ z) - np.log(chol.diagonal()).sum()
                 - 0.5 * len(y) * math.log(2.0 * math.pi))


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
        return _upper_inverse(self.chol.T).T

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


def _minimize_box(fun, starts: np.ndarray, lo: float, hi: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ``fun(thetas) -> (values, gradients)``, which scores a stack
    of points (B, d), over the box [lo, hi]^d from each row of ``starts``
    (R, d) by projected BFGS (Nocedal & Wright 2006, sections 6.1 and
    16.7); returns each start's last point (R, d) and its value (R,).

    A dense inverse-Hessian estimate (d is 2 or 3) gives the step on the
    free coordinates; a coordinate on a bound whose gradient points out of
    the box stays fixed. Each step backtracks by halving along the path
    projected onto the box until the Armijo condition holds, the estimate is
    updated only when s^T y > 0, and a step that does not descend is
    replaced by steepest descent. A search stops when the projected
    gradient's max-norm is at most ``_PGTOL``, when an iteration lowers the
    value by at most ``_FTOL`` relative (or a backtracked step's first-order
    decrease falls to that size, so no shorter step could do better), or
    after ``_MAX_EVALS`` evaluations. A start that ``fun`` scores with a
    zero gradient (a failed factorization) stops after one evaluation.

    The searches run in lockstep: each round scores the next trial point of
    every search still running in one call of ``fun``, and each search's
    state (point, value, gradient, estimate, step, step length) is a row of
    an array. Every row's arithmetic is a row-wise ufunc or a stacked
    ``matmul`` (``_rowdot`` for dot products), which makes a single
    vector's BLAS call on each row, so each start takes the same trial
    points to the same end as a search from it alone. Running searches
    have all made the same number of evaluations, so one count serves
    ``_MAX_EVALS``.
    """
    def project(v):  # np.clip's arithmetic without its per-call overhead
        return np.minimum(np.maximum(v, lo), hi)

    def direction(theta, grad, inv_hess, curved, every):
        """For every row: whether the projected gradient is small, the step
        at step length 1 and its first-order decrease. ``every`` says
        whether every row's estimate is set."""
        at_lo, at_hi = theta <= lo, theta >= hi
        converged = np.abs(theta - project(theta - grad)).max(axis=1) <= _PGTOL
        pinned = (at_lo & (grad > 0)) | (at_hi & (grad < 0))
        downhill = -grad
        step = np.where(pinned, -0.0, downhill)  # minus the free gradient
        if not every:  # no curvature pair yet: a descent step of length <= 1
            plain = step / np.maximum(np.sqrt(_rowdot(step, step)), 1.0)[:, None]
        if every or curved.any():
            newton = (inv_hess @ step[:, :, None])[:, :, 0]
            # on the free coordinates; the projected path starts without the
            # components that leave the box
            newton = np.where(pinned | (at_lo & (newton < 0)) | (at_hi & (newton > 0)),
                              0.0, newton)
            uphill = _rowdot(grad, newton) >= 0
            newton = np.where(uphill[:, None], np.where(pinned, 0.0, downhill), newton)
            step = newton if every else np.where(curved[:, None], newton, plain)
        else:
            step = plain
        return converged, step, -_rowdot(grad, step)

    theta = project(np.asarray(starts, dtype=float))
    count, dim = theta.shape
    identity = np.eye(dim)
    end_theta, end_value = theta.copy(), np.empty(count)
    rows = np.arange(count)  # the start of each running search
    value, grad = fun(theta)
    evals = 1
    inv_hess = np.zeros((count, dim, dim))
    curved = np.zeros(count, dtype=bool)  # whether a row's estimate is set
    stop, step, descent = direction(theta, grad, inv_hess, curved, False)
    stop |= evals >= _MAX_EVALS
    scale = np.ones(count)
    while True:
        if stop.any():
            end_theta[rows[stop]], end_value[rows[stop]] = theta[stop], value[stop]
            keep = ~stop
            if not keep.any():
                return end_theta, end_value
            rows, theta, value, grad, inv_hess, curved, step, descent, scale = (
                state[keep] for state in
                (rows, theta, value, grad, inv_hess, curved, step, descent, scale))
        trial = project(theta + scale[:, None] * step)
        trial_value, trial_grad = fun(trial)
        evals += 1
        s = trial - theta
        accepted = trial_value <= value + _ARMIJO * _rowdot(grad, s)
        stop = ~accepted
        if stop.any():  # a rejected trial halves the step ...
            scale = np.where(accepted, scale, 0.5 * scale)
            # ... and ends the search once a shorter step cannot pass the
            # relative-decrease test either
            stop &= ((scale * descent <= _FTOL * np.maximum(np.abs(value), 1.0))
                     | (evals >= _MAX_EVALS))
            if not accepted.any():
                continue
            # a rejected row keeps its point: s, y and its decrease are unused
            trial = np.where(accepted[:, None], trial, theta)
            trial_grad = np.where(accepted[:, None], trial_grad, grad)
            trial_value = np.where(accepted, trial_value, value)
        y = trial_grad - grad
        decrease = value - trial_value
        theta, value, grad = trial, trial_value, trial_grad
        flat = decrease <= _FTOL * np.maximum(
            np.maximum(np.abs(value), np.abs(value + decrease)), 1.0)
        fresh = accepted & ~flat if evals < _MAX_EVALS else np.zeros_like(accepted)
        sy = _rowdot(s, y)
        update = fresh & (sy > 0)
        if update.all():  # so every row is fresh, and curved from here on
            inv_hess = _bfgs_update(inv_hess, curved, s, y, sy, identity)
            curved, every, all_fresh = update, True, True
        else:
            if update.any():
                inv_hess[update] = _bfgs_update(inv_hess[update], curved[update],
                                                s[update], y[update], sy[update], identity)
                curved = curved | update
            every, all_fresh = curved.all(), fresh.all()
        converged, new_step, new_descent = direction(theta, grad, inv_hess, curved, every)
        stop |= accepted & (converged | ~fresh)
        if all_fresh:
            step, descent, scale = new_step, new_descent, np.ones(len(fresh))
        else:
            step = np.where(fresh[:, None], new_step, step)
            descent = np.where(fresh, new_descent, descent)
            scale = np.where(fresh, 1.0, scale)


def _bfgs_update(inv_hess, curved, s, y, sy, identity):
    """The BFGS inverse-Hessian update (N&W eq. 6.17) of each row, from the
    scaled identity (N&W eq. 6.20) where a row has no estimate yet."""
    if not curved.all():
        scaled = (sy / _rowdot(y, y))[:, None, None] * identity
        inv_hess = np.where(curved[:, None, None], inv_hess, scaled)
    rho = (1.0 / sy)[:, None, None]
    v = identity - rho * (s[:, :, None] * y[:, None, :])
    return v @ inv_hess @ v.transpose(0, 2, 1) + rho * (s[:, :, None] * s[:, None, :])


def fit(points: Sequence[AttributedGraph], y, variant: KernelVariant | str,
        seed: int = 0, restarts: int = FIT_RESTARTS,
        noise_var: float = NOISE_VAR) -> GpModel:
    """Fit hyperparameters by maximizing the log marginal likelihood.

    Multi-start bounded search: the first start is the all-ones point, the
    rest are log-uniform in the [0.01, 100] box, and one ``_minimize_box``
    call runs them all in lockstep (projected BFGS with L-BFGS-B's stopping
    rules, kept in-house so that no graphbo process imports SciPy's
    optimizer package), each likelihood evaluation scoring the running
    restarts as one stack. Deterministic for a given seed; ties between
    restarts resolve to the lowest restart index. ``variant`` may be a
    KernelVariant or its string value; ``restarts`` must be at least 1.
    """
    variant = KernelVariant(variant)
    y = _targets(y)
    points = tuple(points)
    if len(points) < 2:
        raise ValueError("fitting needs at least two points")
    if len(points) != len(y):
        raise ValueError("need one target per point")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")

    builder = GramBuilder.build(StackedSummaries.build(points), variant)
    dim = 3 if variant.exponential else 2
    lo, hi = math.log(HYPER_BOX[0]), math.log(HYPER_BOX[1])

    rng = np.random.default_rng(seed)
    starts = np.vstack([np.zeros(dim), rng.uniform(lo, hi, size=(restarts - 1, dim))])
    thetas, values = _minimize_box(lambda thetas: builder.neg_lml(thetas, y, noise_var),
                                   starts, lo, hi)
    hyper = _hyper_from_theta(thetas[np.argmin(values)], variant.exponential)
    return GpModel.build(points, y, variant, hyper, noise_var=noise_var)
