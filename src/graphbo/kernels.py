"""Shortest-path graph kernels, the binary-feature kernel, and Gram matrices.

Every kernel value reads a graph only through its count-space profile: its
size n, its labeled shortest-path counts P[s, l1, l2] (ordered node pairs at
distance s with endpoint labels l1, l2; summed over the label pair they give
the length counts D[s]) and its feature column sums N[m]. The linear graph
kernel is the inner product of two graphs' counts over n1^2 n2^2 (labeled
counts for ``sp``/``esp``, length counts for ``ssp``/``essp``); the feature
kernel is N . N' over n1 n2 M. The exponential variants replace the graph
kernel g by exp(g) / sigma_k_sq, and the combined kernel is
alpha * graph + beta * feature.

``StackedSummaries`` holds the profiles of a point set. ``cross_gram`` and
``self_kernel_parts`` are the only kernel code: pairwise values, Gram
matrices, the GP, the MIP coefficient rows and the enumerate solve all go
through them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DimensionMismatchError, MissingVarianceError

if TYPE_CHECKING:  # graphs builds StackedSummaries, so it imports this module
    from .graphs import AttributedGraph, ShortestPathSummary

HYPER_BOX = (0.01, 100.0)


class KernelVariant(str, enum.Enum):
    """Graph-kernel family."""

    SSP = "ssp"    # length-count inner product
    SP = "sp"      # label-aware path-count inner product
    ESSP = "essp"  # exp(SSP) / variance
    ESP = "esp"    # exp(SP) / variance

    @property
    def exponential(self) -> bool:
        return self in (KernelVariant.ESSP, KernelVariant.ESP)

    @property
    def labeled(self) -> bool:
        return self in (KernelVariant.SP, KernelVariant.ESP)


@dataclass(frozen=True)
class KernelHyperparams:
    """Combined-kernel weights and the exponential-variant variance.

    ``alpha`` weights graph similarity, ``beta`` weights feature similarity.
    GP training constrains all of them to the box [0.01, 100]; direct kernel
    evaluation only requires nonnegative weights.
    """

    alpha: float = 1.0
    beta: float = 1.0
    sigma_k_sq: float | None = None

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.sigma_k_sq is not None and self.sigma_k_sq <= 0:
            raise ValueError("sigma_k_sq must be positive")

    def require_variance(self, variant: KernelVariant) -> float:
        if not variant.exponential:
            return 1.0
        if self.sigma_k_sq is None:
            raise MissingVarianceError(f"{variant.value} kernel needs sigma_k_sq")
        return self.sigma_k_sq


# ---------------------------------------------------------------------------
# count-space profiles


@dataclass(frozen=True)
class StackedSummaries:
    """Count-space profiles of a point set, the only input of every kernel.

    ``sizes`` is (t,), ``labeled_counts`` (t, pad, L, L) and ``feature_sums``
    (t, M). Counts are zero-padded beyond each graph's size, which
    reproduces the min(n1, n2) truncation of the kernel exactly because
    counts vanish at lengths a graph cannot realize.
    """

    sizes: np.ndarray
    labeled_counts: np.ndarray
    feature_sums: np.ndarray

    @staticmethod
    def build(points: Sequence[AttributedGraph]) -> "StackedSummaries":
        return _stack([g.summary for g in points])

    @cached_property
    def length_counts(self) -> np.ndarray:
        """(t, pad) pair counts per length: the labeled counts summed over
        label pairs."""
        return self.labeled_counts.sum(axis=(2, 3))

    @property
    def num_labels(self) -> int:
        return self.labeled_counts.shape[2]

    @property
    def num_features(self) -> int:
        return self.feature_sums.shape[1]

    def resized(self, width: int) -> "StackedSummaries":
        """The same profiles with counts zero-padded or cut to ``width`` path
        lengths; cutting drops only lengths no graph of size <= width has."""
        pad = self.labeled_counts.shape[1]
        if width == pad:
            return self
        counts = np.zeros((len(self.sizes), width) + self.labeled_counts.shape[2:])
        counts[:, : min(width, pad)] = self.labeled_counts[:, :width]
        return StackedSummaries(self.sizes, counts, self.feature_sums)


def _stack(summaries: Sequence[ShortestPathSummary]) -> StackedSummaries:
    if not summaries:
        raise ValueError("kernels need at least one point")
    schemes = {(s.num_labels, len(s.feature_sums)) for s in summaries}
    if len(schemes) > 1:
        raise DimensionMismatchError(f"points use different feature schemes: {schemes}")
    sizes = np.array([s.n for s in summaries], dtype=np.int64)
    L = summaries[0].num_labels
    counts = np.zeros((len(summaries), int(sizes.max()), L, L))
    for i, s in enumerate(summaries):
        counts[i, : s.n] = s.labeled_counts
    sums = np.array([s.feature_sums for s in summaries], dtype=float)
    return StackedSummaries(sizes, counts, sums)


def _count_products(rows: StackedSummaries, cols: StackedSummaries | None,
                    labeled: bool) -> tuple[np.ndarray, np.ndarray]:
    """The linear graph kernel and the feature kernel between profiles.

    Returns (graph, feature) matrices of shape (rows, cols); with ``cols``
    None, vectors of each row against itself. Every product of counts is an
    exact integer dot product. Raises DimensionMismatchError when the label
    schemes or the feature widths differ.
    """
    diagonal = cols is None
    cols = rows if diagonal else cols
    if rows.num_labels != cols.num_labels:
        raise DimensionMismatchError(
            f"label schemes differ: {rows.num_labels} != {cols.num_labels}")
    if rows.num_features != cols.num_features:
        raise DimensionMismatchError(
            f"feature widths differ: {rows.num_features} != {cols.num_features}")
    width = max(rows.labeled_counts.shape[1], cols.labeled_counts.shape[1])
    rows, cols = rows.resized(width), cols.resized(width)
    if labeled:
        a = rows.labeled_counts.reshape(len(rows.sizes), -1)
        b = cols.labeled_counts.reshape(len(cols.sizes), -1)
    else:
        a, b = rows.length_counts, cols.length_counts
    if diagonal:
        def inner(x, y):
            return np.einsum("ij,ij->i", x, y)
        pair = np.multiply
    else:
        def inner(x, y):
            return x @ y.T
        pair = np.outer
    return _normalize(inner(a, b), inner(rows.feature_sums, cols.feature_sums),
                      rows.sizes.astype(float), cols.sizes.astype(float),
                      rows.num_features, pair)


def _normalize(graph, feature, n1, n2, num_features: int, pair=np.multiply):
    """Count inner products to kernel values: the linear graph kernel is
    ``graph / (n1^2 n2^2)`` and the feature kernel ``feature / (n1 n2 M)``.

    ``pair`` combines the row and column sizes: ``np.outer`` for matrices,
    ``np.multiply`` for matched or broadcast vectors. Sizes are floats
    holding integers, so every normalizer is exact.
    """
    return graph / pair(n1 ** 2, n2 ** 2), feature / (pair(n1, n2) * num_features)


def _combine(graph, feature, variant: KernelVariant, hyper: KernelHyperparams):
    """alpha * graph part + beta * feature, where the graph part of an
    exponential variant is exp(graph) / sigma_k_sq."""
    if variant.exponential:
        graph = np.exp(graph) / hyper.require_variance(variant)
    return hyper.alpha * graph + hyper.beta * feature


def cross_gram(rows: StackedSummaries, cols: StackedSummaries,
               variant: KernelVariant, hyper: KernelHyperparams) -> np.ndarray:
    """Combined-kernel matrix between two stacked point sets."""
    return _combine(*_count_products(rows, cols, variant.labeled), variant, hyper)


def self_kernel_parts(stacked: StackedSummaries, variant: KernelVariant,
                      hyper: KernelHyperparams) -> np.ndarray:
    """k(x, x) for every stacked point."""
    return _combine(*_count_products(stacked, None, variant.labeled), variant, hyper)


def kernel_range(variant: KernelVariant, hyper: KernelHyperparams) -> tuple[float, float]:
    """(lo, hi) bounds on every combined-kernel value, self values included:
    the linear graph kernel and the feature kernel both lie in [0, 1]."""
    if variant.exponential:
        var = hyper.require_variance(variant)
        return hyper.alpha / var, hyper.alpha * math.e / var + hyper.beta
    return 0.0, hyper.alpha + hyper.beta


# ---------------------------------------------------------------------------
# per-pair wrappers


def k_graph(s1: ShortestPathSummary, s2: ShortestPathSummary,
            variant: KernelVariant, hyper: KernelHyperparams) -> float:
    """Graph-kernel value between two shortest-path summaries (unweighted)."""
    return float(cross_gram(_stack([s1]), _stack([s2]), variant,
                            replace(hyper, alpha=1.0, beta=0.0))[0, 0])


def k_feature(f1: np.ndarray, f2: np.ndarray) -> float:
    """Permutation-invariant feature kernel: inner product of the feature
    column sums, normalized by n1 n2 M."""
    def stack(f):
        return StackedSummaries(np.array([len(f)]), np.zeros((1, 0, 1, 1)),
                                np.asarray(f, dtype=float).sum(axis=0, keepdims=True))
    return float(_count_products(stack(f1), stack(f2), False)[1][0, 0])


def k_combined(x1: AttributedGraph, x2: AttributedGraph,
               variant: KernelVariant, hyper: KernelHyperparams) -> float:
    """alpha * graph kernel + beta * feature kernel."""
    return float(cross_gram(StackedSummaries.build([x1]), StackedSummaries.build([x2]),
                            variant, hyper)[0, 0])


def gram(points: Sequence[AttributedGraph], variant: KernelVariant,
         hyper: KernelHyperparams) -> np.ndarray:
    """Symmetric matrix of pairwise combined-kernel values."""
    stacked = StackedSummaries.build(points)
    return cross_gram(stacked, stacked, variant, hyper)
