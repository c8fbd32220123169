"""Shortest-path graph kernels, the binary-feature kernel, and Gram matrices.

Four graph-kernel variants are supported: two linear ones built from
shortest-path statistics (with and without endpoint-label matching) and their
exponential counterparts scaled by a variance parameter. The combined kernel
is a weighted sum of the graph kernel and a permutation-invariant feature
kernel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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


def linear_graph_kernel(s1: ShortestPathSummary, s2: ShortestPathSummary,
                        labeled: bool) -> float:
    """The linear (pre-exponential) graph-kernel value.

    Sums products of per-length path counts (split by endpoint labels when
    ``labeled``) over lengths below min(n1, n2), normalized by n1^2 n2^2.
    """
    n1, n2 = s1.n, s2.n
    m = min(n1, n2)
    if labeled:
        if s1.num_labels != s2.num_labels:
            raise DimensionMismatchError(
                f"label schemes differ: {s1.num_labels} != {s2.num_labels}")
        total = float(np.sum(s1.labeled_counts[:m] * s2.labeled_counts[:m]))
    else:
        total = float(np.dot(s1.length_counts[:m], s2.length_counts[:m]))
    return total / (n1 * n1 * n2 * n2)


def k_graph(s1: ShortestPathSummary, s2: ShortestPathSummary,
            variant: KernelVariant, hyper: KernelHyperparams) -> float:
    """Graph-kernel value between two shortest-path summaries."""
    base = linear_graph_kernel(s1, s2, variant.labeled)
    if variant.exponential:
        return float(np.exp(base)) / hyper.require_variance(variant)
    return base


def k_feature(f1: np.ndarray, f2: np.ndarray) -> float:
    """Permutation-invariant feature kernel: inner product of the feature
    column sums, normalized by n1 n2 M."""
    f1 = np.asarray(f1)
    f2 = np.asarray(f2)
    if f1.shape[1] != f2.shape[1]:
        raise DimensionMismatchError(
            f"feature widths differ: {f1.shape[1]} != {f2.shape[1]}")
    n1, n2 = f1.shape[0], f2.shape[0]
    m = f1.shape[1]
    return float(np.dot(f1.sum(axis=0), f2.sum(axis=0))) / (n1 * n2 * m)


def k_feature_sums(sums1: np.ndarray, n1: int, sums2: np.ndarray, n2: int) -> float:
    """Feature kernel from precomputed column sums."""
    if sums1.shape != sums2.shape:
        raise DimensionMismatchError(
            f"feature widths differ: {sums1.shape} != {sums2.shape}")
    m = sums1.shape[0]
    return float(np.dot(sums1, sums2)) / (n1 * n2 * m)


def k_combined(x1: AttributedGraph, x2: AttributedGraph,
               variant: KernelVariant, hyper: KernelHyperparams) -> float:
    """alpha * graph kernel + beta * feature kernel."""
    if x1.num_features != x2.num_features or x1.num_labels != x2.num_labels:
        raise DimensionMismatchError("graphs use different feature schemes")
    graph_part = k_graph(x1.summary, x2.summary, variant, hyper)
    feature_part = k_feature_sums(x1.summary.feature_sums, x1.n,
                                  x2.summary.feature_sums, x2.n)
    return hyper.alpha * graph_part + hyper.beta * feature_part


def gram(points: Sequence[AttributedGraph], variant: KernelVariant,
         hyper: KernelHyperparams) -> np.ndarray:
    """Symmetric matrix of pairwise combined-kernel values."""
    if len(points) == 0:
        raise ValueError("gram needs at least one point")
    t = len(points)
    out = np.empty((t, t))
    for i in range(t):
        for j in range(i, t):
            value = k_combined(points[i], points[j], variant, hyper)
            out[i, j] = value
            out[j, i] = value
    return out


# ---------------------------------------------------------------------------
# stacked summaries: vectorized kernels against a fixed point set


@dataclass(frozen=True)
class StackedSummaries:
    """Padded per-point arrays for batch kernel evaluation.

    ``length_counts`` is (t, pad) with rows zero-padded beyond each graph's
    size, which reproduces the min(n1, n2) truncation exactly because counts
    vanish at lengths the graph cannot realize. ``labeled_counts`` is
    (t, pad * L * L) and ``feature_sums`` (t, M).
    """

    sizes: np.ndarray
    length_counts: np.ndarray
    labeled_counts: np.ndarray | None
    feature_sums: np.ndarray

    @staticmethod
    def build(points: Sequence[AttributedGraph], pad: int | None = None,
              labeled: bool = True) -> "StackedSummaries":
        sizes = np.array([g.n for g in points], dtype=np.int64)
        pad = int(sizes.max()) if pad is None else pad
        t = len(points)
        dc = np.zeros((t, pad))
        for i, g in enumerate(points):
            counts = g.summary.length_counts
            dc[i, : len(counts)] = counts
        pc = None
        if labeled:
            L = points[0].num_labels
            pc = np.zeros((t, pad, L, L))
            for i, g in enumerate(points):
                counts = g.summary.labeled_counts
                pc[i, : counts.shape[0]] = counts
            pc = pc.reshape(t, pad * L * L)
        fs = np.array([g.summary.feature_sums for g in points], dtype=float)
        return StackedSummaries(sizes, dc, pc, fs)


def cross_gram(rows: StackedSummaries, cols: StackedSummaries,
               variant: KernelVariant, hyper: KernelHyperparams) -> np.ndarray:
    """Combined-kernel matrix between two stacked point sets."""
    pad = max(rows.length_counts.shape[1], cols.length_counts.shape[1])

    def padded(a: np.ndarray) -> np.ndarray:
        if a.shape[1] == pad:
            return a
        out = np.zeros((a.shape[0], pad))
        out[:, : a.shape[1]] = a
        return out

    if variant.labeled:
        if rows.labeled_counts is None or cols.labeled_counts is None:
            raise DimensionMismatchError("labeled variant needs labeled counts")
        lr, lc = rows.labeled_counts, cols.labeled_counts
        width = max(lr.shape[1], lc.shape[1])

        def padded_l(a: np.ndarray) -> np.ndarray:
            if a.shape[1] == width:
                return a
            out = np.zeros((a.shape[0], width))
            out[:, : a.shape[1]] = a
            return out

        base = padded_l(lr) @ padded_l(lc).T
    else:
        base = padded(rows.length_counts) @ padded(cols.length_counts).T
    norm = np.outer(rows.sizes.astype(float) ** 2, cols.sizes.astype(float) ** 2)
    base = base / norm
    if variant.exponential:
        graph_part = np.exp(base) / hyper.require_variance(variant)
    else:
        graph_part = base
    m = rows.feature_sums.shape[1]
    feat = (rows.feature_sums @ cols.feature_sums.T) / (
        np.outer(rows.sizes, cols.sizes) * m)
    return hyper.alpha * graph_part + hyper.beta * feat


def self_kernel_parts(stacked: StackedSummaries, variant: KernelVariant,
                      hyper: KernelHyperparams) -> np.ndarray:
    """k(x, x) for every stacked point."""
    sizes = stacked.sizes.astype(float)
    if variant.labeled:
        base = np.sum(stacked.labeled_counts ** 2, axis=1) / sizes ** 4
    else:
        base = np.sum(stacked.length_counts ** 2, axis=1) / sizes ** 4
    if variant.exponential:
        graph_part = np.exp(base) / hyper.require_variance(variant)
    else:
        graph_part = base
    m = stacked.feature_sums.shape[1]
    feat = np.sum(stacked.feature_sums ** 2, axis=1) / (sizes ** 2 * m)
    return hyper.alpha * graph_part + hyper.beta * feat
