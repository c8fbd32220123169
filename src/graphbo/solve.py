"""Exact minimization of the acquisition problem.

Two strategies: exhaustive enumeration of the (guarded) domain, and
branch-and-propagate over structural bits only. Enumeration scores one row
per distinct feasible kernel profile (``graphs.profile_table``), since the
LCB reads a graph only through its profile. Distance/on-path variables
are never branched: once the structural bits are fixed they are uniquely
determined, so leaves are evaluated exactly through the graph machinery.
Partial assignments are pruned with interval-arithmetic lower bounds on the
acquisition value, read from per-training-point range-min/max tables of the
count profile. Label bits that one-hot labels force are set by propagation,
not branched, and distances are recomputed only when an adjacency bit
changes.

Also hosts the exact feasibility checker and the exhaustive feasible-point
counter used to verify that the structural constraint system is in bijection
with the set of connected graphs.
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .encode import ConstraintBlock, SizeSpec, _size_bounds, check_acquisition_inputs
from .errors import GraphBoError, MissingVariableError, SpaceTooLargeError
from .gp import GpModel, lcb as gp_lcb, predict
from .graphs import (  # noqa: F401  enumerate_domain is re-exported
    AttributedGraph,
    DomainSpec,
    ProfileTable,
    _all_pairs_distances,
    _reachable_from,
    build_graph,
    domain_feasible,
    enumerate_domain,
    profile_table,
)
from .kernels import _normalize, kernel_range
from .kernels import cross_gram  # noqa: F401  kept for perfbench's span hooks

logger = logging.getLogger("graphbo.solve")

DEFAULT_BUDGET = 600.0
COUNT_CAP = 1 << 24


class SolveStrategy(str, enum.Enum):
    ENUMERATE = "enumerate"
    BRANCH_AND_PROPAGATE = "branch_and_propagate"


class _PrunedType:
    """Sentinel for leaves cut off by feasibility checks."""

    def __repr__(self) -> str:  # pragma: no cover
        return "Pruned"


PRUNED = _PrunedType()


@dataclass(frozen=True)
class SolveResult:
    incumbent: AttributedGraph | None
    objective: float | None
    bound: float
    status: str  # Optimal | FeasibleTimeLimit | Infeasible | BudgetExhausted
    nodes_explored: int
    wall_time: float

    @property
    def gap(self) -> float:
        if self.objective is None:
            return math.inf
        return self.objective - self.bound


def graph_sort_key(graph: AttributedGraph) -> tuple:
    """Size-major, then flattened adjacency bits, then feature bits."""
    return (graph.n, tuple(graph.adjacency.ravel().tolist()),
            tuple(graph.features.ravel().tolist()))


# ---------------------------------------------------------------------------
# exact feasibility checking


def _is_integral(x: float) -> bool:
    return float(x).is_integer()


def check_feasible(system: ConstraintBlock, assignment: Mapping[str, float],
                   tol: float = 0.0) -> bool:
    """True iff the assignment satisfies every bound, integrality restriction,
    and linear row of the system.

    Integer rows over integer values are evaluated in exact arithmetic; a
    nonzero ``tol`` only relaxes rows with fractional data.
    """
    values: list[float] = []
    for var in system.variables:
        if var.name not in assignment:
            raise MissingVariableError(f"assignment lacks {var.name}")
        value = float(assignment[var.name])
        if var.kind in ("binary", "integer"):
            if not _is_integral(value):
                return False
        if not (var.lb - tol <= value <= var.ub + tol):
            return False
        values.append(value)
    index = system.index
    for con in system.constraints:
        exact = True
        total_int = 0
        total = 0.0
        for vid, coef in con.coeffs:
            value = values[vid]
            if exact and _is_integral(coef) and _is_integral(value):
                total_int += int(coef) * int(value)
            else:
                if exact:
                    total = float(total_int)
                    exact = False
                total += coef * value
        if exact:
            lhs: float = total_int
            rhs = con.rhs
            if _is_integral(rhs):
                rhs = int(rhs)
            eps = 0
        else:
            lhs = total_int + total if total_int else total
            rhs = con.rhs
            eps = tol if tol else 1e-9
        if con.sense == "<=" and not lhs <= rhs + eps:
            return False
        if con.sense == ">=" and not lhs >= rhs - eps:
            return False
        if con.sense == "==" and not (rhs - eps <= lhs <= rhs + eps):
            return False
    return True


# ---------------------------------------------------------------------------
# exhaustive feasibility counting (bijection verification)


def _diag_patterns(n: int, n_min: int) -> list[tuple[int, ...]]:
    """Monotone node-existence patterns with at least n_min ones."""
    if n_min == n:
        return [tuple([1] * n)]
    return [tuple([1] * k + [0] * (n - k)) for k in range(n_min, n + 1)]


def _forced_delta(n: int, d: np.ndarray) -> np.ndarray | None:
    """The unique on-path indicator assignment compatible with the triangle
    rows given a distance matrix, or None when none exists."""
    delta = np.zeros((n, n, n), dtype=np.int8)
    for v in range(n):
        delta[v, v, v] = 1
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            delta[u, v, u] = 1
            delta[u, v, v] = 1
            for w in range(n):
                if w == u or w == v:
                    continue
                gap = int(d[u, w]) + int(d[w, v]) - int(d[u, v])
                if gap < 0:
                    return None
                delta[u, v, w] = 1 if gap == 0 else 0
    return delta


def count_feasible(system: ConstraintBlock, size_spec: SizeSpec, directed: bool,
                   cap: int = COUNT_CAP) -> int:
    """Exhaustively count assignments of (A, d, delta) feasible for the system.

    Enumerates edge patterns and distance matrices over their declared
    domains (after fixing symmetric copies in undirected mode), derives the
    unique on-path completion, and validates every candidate with
    ``check_feasible``. Raises SpaceTooLargeError when more than ``cap``
    candidates would be enumerated.
    """
    n_min, n = _size_bounds(size_spec)
    fixed = n_min == n
    d_max = n - 1 if fixed else n
    pairs = ([(u, v) for u in range(n) for v in range(n) if u != v]
             if directed else [(u, v) for u in range(n) for v in range(u + 1, n)])

    count = 0
    examined = 0
    for diag in _diag_patterns(n, n_min):
        exists = [bool(b) for b in diag]
        free_pairs = [(u, v) for (u, v) in pairs if exists[u] and exists[v]]
        for edge_bits in itertools.product((0, 1), repeat=len(free_pairs)):
            adjacency = np.zeros((n, n), dtype=np.int8)
            np.fill_diagonal(adjacency, diag)
            for (u, v), bit in zip(free_pairs, edge_bits):
                adjacency[u, v] = bit
                if not directed:
                    adjacency[v, u] = bit
            candidates: list[list[int]] = []
            for (u, v) in pairs:
                if not (exists[u] and exists[v]):
                    candidates.append([n])  # "no path" value, forced
                elif adjacency[u, v]:
                    candidates.append([1])
                else:
                    candidates.append(list(range(2, d_max + 1)))
            space = 1
            for cand in candidates:
                space *= len(cand)
                if space > cap:
                    raise SpaceTooLargeError(f"more than {cap} assignments")
            examined += space
            if examined > cap:
                raise SpaceTooLargeError(f"more than {cap} assignments")
            for dist_choice in itertools.product(*candidates):
                d = np.zeros((n, n), dtype=np.int64)
                for (u, v), value in zip(pairs, dist_choice):
                    d[u, v] = value
                    if not directed:
                        d[v, u] = value
                delta = _forced_delta(n, d)
                if delta is None:
                    continue
                assignment: dict[str, float] = {}
                for u in range(n):
                    for v in range(n):
                        assignment[f"A_{u}_{v}"] = int(adjacency[u, v])
                        assignment[f"d_{u}_{v}"] = int(d[u, v])
                        for w in range(n):
                            assignment[f"delta_{u}_{v}_{w}"] = int(delta[u, v, w])
                if check_feasible(system, assignment):
                    count += 1
    return count


# ---------------------------------------------------------------------------
# partial assignments and bounds


@dataclass
class PartialAssignment:
    """Structural bits under branching: -1 unknown, else 0/1.

    ``adj`` covers the full grid including the diagonal (node existence in
    bounded mode; preset to 1 in fixed mode). ``feat`` covers the feature
    grid. Undirected domains keep ``adj`` symmetric.
    """

    domain: DomainSpec
    adj: np.ndarray
    feat: np.ndarray

    @staticmethod
    def empty(domain: DomainSpec) -> "PartialAssignment":
        n, m = domain.n, domain.num_features
        adj = np.full((n, n), -1, dtype=np.int8)
        if domain.fixed_size:
            np.fill_diagonal(adj, 1)
        feat = np.full((n, m), -1, dtype=np.int8)
        return PartialAssignment(domain, adj, feat)

    def set_adj(self, u: int, v: int, value: int) -> None:
        self.adj[u, v] = value
        if not self.domain.directed and u != v:
            self.adj[v, u] = value

    def set_feat(self, v: int, m: int, value: int) -> None:
        self.feat[v, m] = value

    @property
    def complete(self) -> bool:
        return not (self.adj == -1).any() and not (self.feat == -1).any()

    def diag_fixed(self) -> bool:
        return not (np.diag(self.adj) == -1).any()


def branch_bits(domain: DomainSpec) -> list[tuple[str, int, int]]:
    """Branching order: in bounded-size mode the existence (diagonal) bits
    first, then edge bits in lexicographic (row-major) order, then feature
    bits. Fixing the size first lets every edge-phase node use the
    count-space bound instead of the crude box bound."""
    n = domain.n
    bits: list[tuple[str, int, int]] = []
    if not domain.fixed_size:
        bits += [("adj", v, v) for v in range(n)]
    for u in range(n):
        for v in range(n):
            if u != v and (domain.directed or u < v):
                bits.append(("adj", u, v))
    for v in range(n):
        for m in range(domain.num_features):
            bits.append(("feat", v, m))
    return bits


def _propagate_labels(pa: PartialAssignment) -> np.ndarray:
    """Set the feature bits that one-hot labels force, in place, and return
    the mask of bits set.

    Forced are every feature bit of a surely absent node (0), the open label
    bits of a block that already holds a 1 (0), and the last open label of a
    surely present node whose other label bits are 0 (1). The other value of
    each has no feasible completion. One pass reaches the fixpoint: a bit set
    to 1 leaves its block no open label, and bits set to 0 sit in blocks that
    hold a 1 or belong to absent nodes.
    """
    feat = pa.feat
    labels = feat[:, : pa.domain.num_labels]
    diag = np.diag(pa.adj)
    has_one = (labels == 1).any(axis=1)
    forced = np.full(feat.shape, -1, dtype=np.int8)
    forced[diag == 0] = 0
    forced[has_one, : labels.shape[1]] = 0
    last = (diag == 1) & ~has_one & ((labels == -1).sum(axis=1) == 1)
    forced[last, : labels.shape[1]] = 1
    mask = (feat == -1) & (forced >= 0)
    feat[mask] = forced[mask]
    return mask


def _quick_infeasible(pa: PartialAssignment, intervals=None) -> bool:
    """Cheap conservative pruning checks; never cuts a feasible completion.

    ``intervals`` are the node's distance intervals (``_distance_intervals``)
    once its diagonal is fixed; their optimistic distances then decide
    connectivity.
    """
    domain = pa.domain
    n, L = domain.n, domain.num_labels
    adj, feat = pa.adj, pa.feat
    diag = np.diag(adj)
    absent = diag == 0
    if not domain.fixed_size:
        # monotone existence and the minimum node count
        if np.any(absent[:-1] & (diag[1:] == 1)):
            return True
        if int(absent.sum()) > n - domain.n_min:
            return True
        # edges and features of surely-absent nodes must stay off
        if ((adj[absent] == 1).any() or (adj[:, absent] == 1).any()
                or (feat[absent] == 1).any()):
            return True
    # one-hot labels of surely-present nodes
    labels = feat[:, :L]
    ones = (labels == 1).sum(axis=1)
    if np.any((diag == 1) & ((ones > 1) | (labels == 0).all(axis=1))):
        return True
    # optimistic connectivity: treat unknowns as present
    if intervals is not None:
        if not np.isfinite(intervals[0]).all():
            return True
    else:
        maybe = np.flatnonzero(diag != 0)
        present = np.flatnonzero(diag[maybe] == 1)
        if len(present):
            sub = adj[np.ix_(maybe, maybe)] != 0
            if not _covers(sub, present, domain.directed):
                return True
    # label-count interval check
    if domain.label_count_bounds is not None:
        lo, hi = np.array(domain.label_count_bounds).T
        sure = (labels == 1).sum(axis=0)
        open_ = (labels == -1) & ((diag != 0) & (ones == 0))[:, None]
        if np.any(sure > hi) or np.any(sure + open_.sum(axis=0) < lo):
            return True
    # degree caps: committed in-edges vs the best possible cap
    if domain.degree_caps is not None:
        caps = np.array(domain.degree_caps)
        committed = (adj == 1).sum(axis=0) - (diag == 1)
        cap = np.where(ones > 0, caps[(labels == 1).argmax(axis=1)], caps.max())
        if np.any(committed > cap):
            return True
    return False


def _covers(sub: np.ndarray, present: np.ndarray, directed: bool) -> bool:
    """All ``present`` indices mutually reachable inside ``sub``."""
    start = int(present[0])
    if not _reachable_from(sub, start)[present].all():
        return False
    return not directed or _reachable_from(sub.T, start)[present].all()


def _distance_intervals(pa: PartialAssignment):
    """Per ordered pair of existing nodes of ``pa``, whose diagonal is
    fixed: the distance [lo, hi] over all completions.

    ``lo`` counts unknown edges as present and is +inf where no completion
    joins the pair; ``hi`` counts only fixed edges and caps pairs no fixed
    path joins at (number of nodes - 1). Both come from one batched
    distance pass.
    """
    nodes = np.flatnonzero(np.diag(pa.adj) == 1)
    sub = pa.adj[np.ix_(nodes, nodes)]
    lo, hi = _all_pairs_distances(np.stack([sub != 0, sub == 1]))
    return lo, np.where(np.isfinite(hi), hi, len(nodes) - 1.0)


def _range_tables(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min and max of ``counts[:, s]`` over every length range lo <= s <= hi.

    ``counts`` is (t, n, ...); both tables are (n, n, t, ...), indexed
    [lo, hi]. Entries with hi < lo are never read.
    """
    by_length = np.moveaxis(counts, 1, 0)
    n = len(by_length)
    low = np.zeros((n,) + by_length.shape)
    high = np.zeros_like(low)
    for lo in range(n):
        low[lo, lo:] = np.minimum.accumulate(by_length[lo:], axis=0)
        high[lo, lo:] = np.maximum.accumulate(by_length[lo:], axis=0)
    return low, high


class _BoundContext:
    """Precomputed tables for interval bounds on the acquisition value.

    Every kernel entry k_i gets an interval from the node's distance
    intervals: the count of each node pair lies between the min and the max
    of training point i's counts over that pair's length range (and over the
    label pairs its endpoints still allow, for sp/esp). The range tables
    hold those min/max values for every range, so a node reads them with one
    index over its pairs. Counts are integers, so the sums are exact.
    """

    def __init__(self, model: GpModel, beta_sqrt: float, domain: DomainSpec):
        self.beta_sqrt = float(beta_sqrt)
        self.domain = domain
        self.variant = model.variant
        self.hyper = model.hyper
        self.t = model.size
        self.w_pos = np.clip(model.weights, 0.0, None)
        self.w_neg = np.clip(model.weights, None, 0.0)
        # factor F of the precision (F'F = Q): z = F k gives k'Qk = |z|^2
        factor = model.inverse_factor()
        self.ct_pos = np.clip(factor, 0.0, None)
        self.ct_neg = np.clip(factor, None, 0.0)
        # the training profile with counts cut or padded to the domain's
        # path lengths; length counts carry unit label axes, so both kinds
        # of variant read (t, n, labels, labels) counts
        profile = model.profile.resized(domain.n)
        self.train_sizes = profile.sizes.astype(float)
        self.feature_tab = profile.feature_sums
        counts = (profile.labeled_counts if self.variant.labeled
                  else profile.length_counts[:, :, None, None])
        self.range_min, self.range_max = _range_tables(counts)
        self.k_box_crude = kernel_range(self.variant, self.hyper)

    def bound(self, pa: PartialAssignment, intervals=None) -> float:
        """A lower bound on the LCB over every feasible completion.

        ``intervals`` may pass the distance intervals already computed for
        ``pa``'s adjacency state.
        """
        if not pa.diag_fixed():
            k_lo = np.full(self.t, self.k_box_crude[0])
            k_hi = np.full(self.t, self.k_box_crude[1])
            kxx_hi = self.k_box_crude[1]
        else:
            nodes = np.flatnonzero(np.diag(pa.adj) == 1)
            npx = len(nodes)
            if not npx:
                return math.inf
            lo, hi = _distance_intervals(pa) if intervals is None else intervals
            if not np.isfinite(lo).all():
                return math.inf
            L, M = self.domain.num_labels, self.domain.num_features
            feat = pa.feat[nodes]
            labels = feat[:, :L]
            ones = labels == 1
            n_ones = ones.sum(axis=1)
            # labels each node may still take: its fixed one, else its open
            # ones; a node with none or with two fixed (which the search
            # never reaches) leaves no label column possible
            allowed = np.where((n_ones == 1)[:, None], ones, labels != 0)
            labels_valid = bool((n_ones <= 1).all() and allowed.any(axis=1).all())
            if self.variant.labeled:
                if not labels_valid:
                    return math.inf
                pair_labels = (allowed[:, None, :, None]
                               & allowed[None, :, None, :]).reshape(npx * npx, L, L)
            else:
                pair_labels = np.ones((npx * npx, 1, 1), dtype=bool)

            s_hi = np.minimum(hi.ravel(), self.domain.n - 1).astype(np.intp)
            s_lo = np.minimum(lo.ravel(), s_hi).astype(np.intp)
            mask = pair_labels[:, None]
            sums = np.stack([
                np.where(mask, self.range_min[s_lo, s_hi], np.inf).min(axis=(2, 3)),
                np.where(mask, self.range_max[s_lo, s_hi], -np.inf).max(axis=(2, 3)),
            ]).sum(axis=1)
            n_lo = ones.sum(axis=0).astype(float)
            n_hi = allowed.sum(axis=0).astype(float) if labels_valid else np.zeros(L)
            n_lo = np.concatenate([n_lo, (feat[:, L:] == 1).sum(axis=0)])
            n_hi = np.concatenate([n_hi, (feat[:, L:] != 0).sum(axis=0)])
            (g_lo, g_hi), (f_lo, f_hi) = _normalize(
                sums, np.stack([n_lo, n_hi]) @ self.feature_tab.T, float(npx),
                self.train_sizes, M)

            var = self.hyper.require_variance(self.variant)
            if self.variant.exponential:
                k_lo = self.hyper.alpha * np.exp(g_lo) / var + self.hyper.beta * f_lo
                k_hi = self.hyper.alpha * np.exp(g_hi) / var + self.hyper.beta * f_hi
            else:
                k_lo = self.hyper.alpha * g_lo + self.hyper.beta * f_lo
                k_hi = self.hyper.alpha * g_hi + self.hyper.beta * f_hi

            # the self kernel is largest when every pair may sit at every
            # length and label pair its intervals allow
            lengths = np.arange(self.domain.n)
            covers = (s_lo[:, None] <= lengths) & (lengths <= s_hi[:, None])
            self_counts = covers.T.astype(float) @ pair_labels.reshape(npx * npx, -1)
            self_lin, self_feat = _normalize(float(np.sum(self_counts ** 2)),
                                             float(np.dot(n_hi, n_hi)),
                                             float(npx), float(npx), M)
            self_lin_hi = min(1.0, self_lin)
            if self.variant.exponential:
                self_graph_hi = math.exp(self_lin_hi) / var
            else:
                self_graph_hi = self_lin_hi
            kxx_hi = self.hyper.alpha * self_graph_hi + self.hyper.beta * min(1.0, self_feat)

        mu_lo = float(self.w_pos @ k_lo + self.w_neg @ k_hi)
        z_lo = self.ct_pos @ k_lo + self.ct_neg @ k_hi
        z_hi = self.ct_pos @ k_hi + self.ct_neg @ k_lo
        inner = np.where((z_lo <= 0.0) & (z_hi >= 0.0), 0.0,
                         np.minimum(np.abs(z_lo), np.abs(z_hi)))
        q_lo = float(np.dot(inner, inner))
        sigma_hi = math.sqrt(max(kxx_hi - q_lo, 0.0))
        return mu_lo - self.beta_sqrt * sigma_hi


def dual_bound(partial: PartialAssignment, gp_model: GpModel,
               beta_sqrt: float) -> float:
    """Valid lower bound on the LCB over all completions of ``partial``."""
    check_acquisition_inputs(gp_model, partial.domain, beta_sqrt)
    ctx = _BoundContext(gp_model, beta_sqrt, partial.domain)
    return ctx.bound(partial)

def _leaf_graph(adjacency_bits: np.ndarray, feature_bits: np.ndarray,
                domain: DomainSpec) -> AttributedGraph | _PrunedType:
    adjacency = np.asarray(adjacency_bits, dtype=np.int8)
    features = np.asarray(feature_bits, dtype=np.int8)
    n = domain.n
    diag = np.diag(adjacency)
    size = int(diag.sum())
    if size < domain.n_min:
        return PRUNED
    if any(diag[v] == 0 and diag[v + 1] == 1 for v in range(n - 1)):
        return PRUNED
    for v in range(n):
        if diag[v] == 0:
            if adjacency[v, :].sum() or adjacency[:, v].sum() or features[v, :].sum():
                return PRUNED
    live = slice(0, size)
    sub_adj = adjacency[live, live].copy()
    np.fill_diagonal(sub_adj, 0)
    try:
        graph = build_graph(sub_adj, features[live, :], domain.directed,
                            domain.num_labels)
    except GraphBoError:
        return PRUNED
    if not domain_feasible(domain, graph):
        return PRUNED
    return graph


def propagate_leaf(adjacency_bits: np.ndarray, feature_bits: np.ndarray,
                   gp_model: GpModel, beta_sqrt: float, domain: DomainSpec):
    """Exact LCB of a fully assigned structural point, or PRUNED.

    ``adjacency_bits`` includes the diagonal existence bits in bounded-size
    mode; the realized graph is the existing-node prefix. The value equals
    the GP confidence bound at the realized graph exactly.
    """
    graph = _leaf_graph(adjacency_bits, feature_bits, domain)
    if graph is PRUNED:
        return PRUNED
    return gp_lcb(gp_model, graph, beta_sqrt)


# ---------------------------------------------------------------------------
# incumbents


def _improves(value: float, key: tuple, best_value: float,
              best_key: tuple | None) -> bool:
    """Lower LCB wins; ties break toward the smaller ``graph_sort_key``."""
    return value < best_value or (value == best_value
                                  and (best_key is None or key < best_key))


def _best_warm_start(model: GpModel, domain: DomainSpec, beta_sqrt: float,
                     warm: Sequence[AttributedGraph]):
    """(graph, LCB, sort key) of the best domain-feasible warm start, or
    (None, inf, None) without one."""
    best: tuple = (None, math.inf, None)
    for graph in warm:
        if not domain_feasible(domain, graph):
            continue
        value = gp_lcb(model, graph, beta_sqrt)
        key = graph_sort_key(graph)
        if _improves(value, key, best[1], best[2]):
            best = (graph, value, key)
    return best


# ---------------------------------------------------------------------------
# enumeration strategy over a per-domain profile table


_profile_tables: dict[DomainSpec, ProfileTable] = {}


def _solve_enumerate(model: GpModel, domain: DomainSpec, beta_sqrt: float,
                     budget: float, warm: Sequence[AttributedGraph]) -> SolveResult:
    start = time.monotonic()
    table = _profile_tables.get(domain)
    if table is None:
        table = profile_table(
            domain, out_of_time=lambda: time.monotonic() - start >= budget)
        if table.complete:
            _profile_tables[domain] = table
    if table.complete and not len(table):
        return SolveResult(None, None, math.inf, "Infeasible", 0,
                           time.monotonic() - start)
    best: tuple = (None, math.inf, None)
    if len(table):
        mu, var = predict(model, table.profiles)
        values = mu - beta_sqrt * np.sqrt(var)
        # rows ascend in enumeration order, so argmin keeps the tie-break toward
        # the lexicographically smallest graph
        graph = table.graph(int(np.argmin(values)))
        # report the incumbent's value through the per-graph reference path so
        # both strategies quote identical numbers for identical graphs
        best = (graph, gp_lcb(model, graph, beta_sqrt), graph_sort_key(graph))
    if table.complete:
        return SolveResult(best[0], best[1], best[1], "Optimal", len(table),
                           time.monotonic() - start)
    # a build cut short proves nothing, but a warm start may beat its rows
    warm_best = _best_warm_start(model, domain, beta_sqrt, warm)
    if _improves(warm_best[1], warm_best[2], best[1], best[2]):
        best = warm_best
    graph, value, _ = best
    if graph is None:
        return SolveResult(None, None, -math.inf, "BudgetExhausted", len(table),
                           time.monotonic() - start)
    return SolveResult(graph, value, -math.inf, "FeasibleTimeLimit", len(table),
                       time.monotonic() - start)


# ---------------------------------------------------------------------------
# branch and propagate


def _solve_branch(model: GpModel, domain: DomainSpec, beta_sqrt: float,
                  budget: float, warm: Sequence[AttributedGraph],
                  log_interval: int) -> SolveResult:
    start = time.monotonic()
    ctx = _BoundContext(model, beta_sqrt, domain)
    bits = branch_bits(domain)
    incumbent, incumbent_obj, incumbent_key = _best_warm_start(
        model, domain, beta_sqrt, warm)

    nodes = 0
    open_bounds: list[float] = []
    timed_out = False
    # one partial assignment, set and restored in place along the search
    pa = PartialAssignment.empty(domain)

    def out_of_time() -> bool:
        return (time.monotonic() - start) > budget

    def search(depth: int, intervals) -> None:
        """Bound the node at ``pa`` and branch on its next open bit.

        ``intervals`` are the distance intervals of the node's adjacency
        state once its diagonal is fixed; feature branches reuse them.
        """
        nonlocal nodes, incumbent, incumbent_obj, incumbent_key, timed_out
        if _quick_infeasible(pa, intervals):
            return
        nodes += 1
        node_bound = ctx.bound(pa, intervals)
        if log_interval and nodes % log_interval == 0:
            logger.info("node=%d depth=%d bound=%g incumbent=%s", nodes, depth,
                        node_bound,
                        "none" if incumbent is None else f"{incumbent_obj:g}")
        # with no incumbent incumbent_obj is inf, which prunes only inf bounds
        if node_bound >= incumbent_obj:
            return
        # feature bits set by propagation are not branched
        while (depth < len(bits) and bits[depth][0] == "feat"
               and pa.feat[bits[depth][1], bits[depth][2]] != -1):
            depth += 1
        if depth == len(bits):
            graph = _leaf_graph(pa.adj, pa.feat, domain)
            if graph is PRUNED:
                return
            value = gp_lcb(model, graph, beta_sqrt)
            key = graph_sort_key(graph)
            if _improves(value, key, incumbent_obj, incumbent_key):
                incumbent, incumbent_obj, incumbent_key = graph, value, key
            return
        if timed_out or out_of_time():
            timed_out = True
            open_bounds.append(node_bound)
            return
        kind, a, b = bits[depth]
        for value in (1, 0):
            forced = None
            if kind == "adj":
                pa.set_adj(a, b, value)
                if a == b:
                    forced = _propagate_labels(pa)
                child = _distance_intervals(pa) if pa.diag_fixed() else None
            else:
                pa.set_feat(a, b, value)
                forced = _propagate_labels(pa)
                child = intervals
            search(depth + 1, child)
            if kind == "adj":
                pa.set_adj(a, b, -1)
            else:
                pa.set_feat(a, b, -1)
            if forced is not None:
                pa.feat[forced] = -1
            if timed_out:
                open_bounds.append(node_bound)
                return

    _propagate_labels(pa)
    search(0, _distance_intervals(pa) if pa.diag_fixed() else None)
    elapsed = time.monotonic() - start

    if incumbent is None:
        if timed_out:
            return SolveResult(None, None, min(open_bounds, default=-math.inf),
                               "BudgetExhausted", nodes, elapsed)
        return SolveResult(None, None, math.inf, "Infeasible", nodes, elapsed)
    if timed_out:
        bound = min([incumbent_obj] + open_bounds)
        status = "FeasibleTimeLimit"
    else:
        # the search prunes at bound >= incumbent, so completion certifies
        # a zero gap
        bound = incumbent_obj
        status = "Optimal"
    logger.info("status=%s gap=%g time=%.3fs nodes=%d", status,
                incumbent_obj - bound, elapsed, nodes)
    return SolveResult(incumbent, incumbent_obj, bound, status, nodes, elapsed)


def solve(gp_model: GpModel, domain: DomainSpec, beta_sqrt: float,
          budget: float = DEFAULT_BUDGET,
          strategy: SolveStrategy | str = SolveStrategy.BRANCH_AND_PROPAGATE,
          warm_start: Iterable[AttributedGraph] = (),
          log_interval: int = 0) -> SolveResult:
    """Minimize the LCB over the domain.

    ``enumerate`` scores one row per distinct feasible kernel profile of the
    domain through ``gp.predict``; the table is built once per domain and
    cached only when complete, and a domain over the enumeration bit cap
    raises DomainTooLargeError. Objective ties still break toward the
    lexicographically smallest graph, and ``nodes_explored`` counts the
    profile rows scored.
    The budget is checked per structure while the table is built: a build
    cut short scores the rows found so far and the domain-feasible warm
    starts, and keeps the better (FeasibleTimeLimit, bound -inf) or, with
    neither, ends BudgetExhausted. A complete table ignores warm starts.

    ``branch_and_propagate`` branches on the existence bits (bounded sizes
    only), then edge bits, then feature bits, starting from the best
    domain-feasible warm start. Label bits that one-hot labels force are set
    by propagation, not branched, and ``nodes_explored`` counts the nodes
    whose bound was computed. The search runs single-threaded, which keeps
    results bit-for-bit reproducible.

    Both strategies first check their inputs with
    ``encode.check_acquisition_inputs``, as the encoder does: an unfitted
    model raises UnfittedModelError, a domain whose label/feature scheme or
    directedness differs from the training set's IncompatibleDomainError,
    and a negative ``beta_sqrt`` ValueError.
    """
    check_acquisition_inputs(gp_model, domain, beta_sqrt)
    strategy = SolveStrategy(strategy)
    warm = list(warm_start)
    if strategy is SolveStrategy.ENUMERATE:
        return _solve_enumerate(gp_model, domain, beta_sqrt, budget, warm)
    return _solve_branch(gp_model, domain, beta_sqrt, budget, warm, log_interval)
