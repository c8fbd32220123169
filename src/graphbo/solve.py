"""Exact minimization of the acquisition problem.

Two strategies: exhaustive enumeration of the (guarded) domain, and
branch-and-propagate over the adjacency bits. Enumeration scores one row
per distinct feasible kernel profile (``graphs.profile_table``), since the
LCB reads a graph only through its profile. Branch-and-propagate searches
each graph size on its own, largest first: present nodes are a prefix, so
a size fixes the node-existence bits, and the search branches on the edge
bits among the present nodes only. Once a structure is fixed and its bound
does not prune it, every feasible labeling of it is scored exactly, one
``gp.predict`` call per block of labelings (``graphs.structure_profiles``,
which the profile table also reads). Distance/on-path variables are never
branched: once the structural bits are fixed they are uniquely determined.
A search state is one graph size and its edge bits; it is pruned with
interval-arithmetic lower bounds on the acquisition value, read from
per-training-point range-min/max tables of the count profile. The nodes of
one size differ only in their edge bits, so a node whose whole subtree fits
the ``SUBTREE_ELEMENTS`` budget computes the distance intervals, the
edge-dependent quick checks, the kernel boxes and the bounds of every node
of that subtree in one batch; the walk over the batch visits, counts, prunes
and polls the budget exactly as a node-by-node search would. The search
keeps one numbering of each connected graph, a breadth-first one from node 0
(``_bfs_order_violated``). It keeps the labelings that tie its incumbent as
(adjacency, features) pairs, builds graphs only for the final ties, and
renumbers those to the smallest sort key (``graphs.smallest_relabeling``).
Both strategies break objective ties toward the smallest
``graph_sort_key``.

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
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .encode import ConstraintBlock, SizeSpec, _size_bounds, check_acquisition_inputs
from .errors import MissingVariableError, SpaceTooLargeError
from .gp import GpModel, _rowdot, lcb as gp_lcb, predict
from .graphs import (  # noqa: F401  enumerate_domain is re-exported
    AttributedGraph,
    DomainSpec,
    ProfileTable,
    _all_pairs_distances,
    adjacency_pairs,
    build_graph,
    domain_feasible,
    enumerate_domain,
    graph_sort_key,
    profile_table,
    smallest_relabeling,
    structure_profiles,
)
from .kernels import _combine, _normalize
from .kernels import cross_gram  # noqa: F401  kept for perfbench's span hooks

logger = logging.getLogger("graphbo.solve")

DEFAULT_BUDGET = 600.0
COUNT_CAP = 1 << 24
# subtree rows x present-node pairs x training points bounded in one batch.
# The largest array of a batch, the stacked min/max gather of
# ``_BoundContext.boxes``, then holds 2 x 8,192 float64: 128 KiB, glibc's
# default mmap threshold. Twice the budget ran bnp_exact_small's solves about
# 9% faster but raised their peak RSS by 0.3 MiB (2-vCPU Xeon VM, one BLAS
# thread).
SUBTREE_ELEMENTS = 8192


class SolveStrategy(str, enum.Enum):
    ENUMERATE = "enumerate"
    BRANCH_AND_PROPAGATE = "branch_and_propagate"


DEFAULT_STRATEGY = SolveStrategy.BRANCH_AND_PROPAGATE


@dataclass(frozen=True)
class SolveResult:
    incumbent: AttributedGraph | None
    objective: float | None
    bound: float
    status: str  # Optimal | FeasibleTimeLimit | Infeasible | BudgetExhausted
    nodes_explored: int
    wall_time: float
    # work counters: B&P reports nodes, subtrees, structures_scored and
    # graphs_built; enumerate reports rows, table_s and cache_hit
    stats: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        if self.objective is None:
            return math.inf
        return self.objective - self.bound


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
    # the (id, coefficient) pairs of every row in turn, off the flat buffers
    pairs = zip(system.cols, system.coefs)
    start = 0
    for end, sense, con_rhs in zip(system.row_ends, system.senses, system.rhs):
        exact = True
        total_int = 0
        total = 0.0
        for vid, coef in itertools.islice(pairs, end - start):
            value = values[vid]
            if exact and _is_integral(coef) and _is_integral(value):
                total_int += int(coef) * int(value)
            else:
                if exact:
                    total = float(total_int)
                    exact = False
                total += coef * value
        start = end
        if exact:
            lhs: float = total_int
            rhs = int(con_rhs) if _is_integral(con_rhs) else con_rhs
            eps = 0
        else:
            lhs = total_int + total if total_int else total
            rhs = con_rhs
            eps = tol if tol else 1e-9
        if sense == "<=" and not lhs <= rhs + eps:
            return False
        if sense == ">=" and not lhs >= rhs - eps:
            return False
        if sense == "==" and not (rhs - eps <= lhs <= rhs + eps):
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
    pairs = adjacency_pairs(n, directed)

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
    """A state of the search over graphs of ``size`` nodes: nodes
    0..size-1 present, the others absent, and each edge bit among the
    present nodes -1 (open), 0 or 1.

    ``adj`` covers the domain's full n x n grid: its diagonal holds the
    node-existence bits and every edge bit of an absent node is 0.
    Undirected domains keep ``adj`` symmetric. Feature bits are never
    fixed: once every edge bit is, all labelings are scored at once.
    """

    domain: DomainSpec
    size: int
    adj: np.ndarray

    @staticmethod
    def root(domain: DomainSpec, size: int) -> "PartialAssignment":
        """The root of the search over graphs of ``size`` nodes: every
        edge bit among the present nodes open."""
        adj = np.zeros((domain.n, domain.n), dtype=np.int8)
        adj[:size, :size] = -1
        np.fill_diagonal(adj, np.arange(domain.n) < size)
        return PartialAssignment(domain, size, adj)

    def set_adj(self, u: int, v: int, value: int) -> None:
        self.adj[u, v] = value
        if not self.domain.directed:
            self.adj[v, u] = value


def _size_infeasible(domain: DomainSpec, size: int) -> bool:
    """No labeling of ``size`` nodes meets the label-count bounds. Each node
    carries exactly one label, so the counts sum to ``size``, and counts
    with lo <= count <= hi reach that sum exactly when every lo <= hi and
    sum(lo) <= size <= sum(hi)."""
    if domain.label_count_bounds is None:
        return False
    lo, hi = np.array(domain.label_count_bounds).T
    return bool((lo > hi).any() or not lo.sum() <= size <= hi.sum())


def _bfs_order_violated(states: np.ndarray, size: int) -> np.ndarray:
    """Per adjacency state of the stack ``states``: no completion numbers
    the present nodes 0..size-1 as a breadth-first search from node 0 does.

    Such a numbering gives every present node v >= 1 a neighbour u < v,
    and its first one, p(v), does not decrease in v; every connected graph
    has one. Directed states are read as their underlying undirected
    graphs. In every completion p(v) lies between p_min(v), the first row
    u < v whose edge may be present, and p_max(v), the first whose edge
    surely is, or else the last that may be. A state is cut when a node has
    no possible parent or p_min(v) > p_max(w) for some v < w.
    """
    if size < 2:
        return np.zeros(len(states), dtype=bool)
    n = states.shape[-1]
    cols = np.arange(1, size)
    below = np.arange(n)[:, None] < cols  # row u < column v
    down, across = states[:, :, cols], np.swapaxes(states, 1, 2)[:, :, cols]
    maybe = ((down != 0) | (across != 0)) & below
    sure = ((down == 1) | (across == 1)) & below
    p_min = maybe.argmax(axis=1)
    last = n - 1 - maybe[:, ::-1].argmax(axis=1)
    p_max = np.where(sure.any(axis=1), sure.argmax(axis=1), last)
    p_min_before = np.maximum.accumulate(p_min, axis=1)[:, :-1]
    return (~maybe.any(axis=1)).any(axis=1) | (p_min_before > p_max[:, 1:]).any(axis=1)


def _edges_infeasible(pa: PartialAssignment, states: np.ndarray) -> np.ndarray:
    """The quick checks that read edge bits, for each adjacency state of the
    stack ``states`` (which share ``pa``'s size): committed in-edges over
    the largest degree cap (no label is fixed while edges are branched),
    and the breadth-first numbering of the present nodes
    (``_bfs_order_violated``). User rows name nodes, so with any the
    numbering is left free."""
    domain = pa.domain
    bad = np.zeros(len(states), dtype=bool)
    if not domain.extra_rows:
        bad |= _bfs_order_violated(states, pa.size)
    if domain.degree_caps is not None:
        committed = (states == 1).sum(axis=1) - (np.diag(pa.adj) == 1)
        bad |= (committed > max(domain.degree_caps)).any(axis=1)
    return bad


def _distance_intervals(states: np.ndarray, size: int):
    """Per adjacency state of the stack ``states`` and per ordered pair of
    its ``size`` present nodes: the distance [lo, hi] over all completions,
    each (states, size, size).

    ``lo`` counts unknown edges as present and is +inf where no completion
    joins the pair; ``hi`` counts only fixed edges and caps pairs no fixed
    path joins at (number of nodes - 1). Both come from one batched
    distance pass.
    """
    sub = states[:, :size, :size]
    lo, hi = _all_pairs_distances(np.stack([sub != 0, sub == 1]))
    return lo, np.where(np.isfinite(hi), hi, size - 1.0)


def _subtree_states(adj: np.ndarray, bits, directed: bool) -> np.ndarray:
    """``adj`` and every adjacency state below it when ``bits`` are branched
    in order, 1 before 0, stacked in the search's preorder."""
    if not bits:
        return adj[None].copy()
    a, b = bits[0]
    below = _subtree_states(adj, bits[1:], directed)
    half = len(below)
    states = np.concatenate([adj[None], below, below])
    states[1 : 1 + half, a, b] = 1
    states[1 + half :, a, b] = 0
    if not directed:
        states[1:, b, a] = states[1:, a, b]
    return states


def _range_tables(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min and max of ``counts[:, s]`` over every length range lo <= s <= hi
    and every label pair.

    ``counts`` is (t, n, L, L); both tables are (n, n, t), indexed
    [lo, hi]. Entries with hi < lo are never read.
    """
    low_by_length = np.moveaxis(counts.min(axis=(2, 3)), 1, 0)
    high_by_length = np.moveaxis(counts.max(axis=(2, 3)), 1, 0)
    n = len(low_by_length)
    low = np.zeros((n,) + low_by_length.shape)
    high = np.zeros_like(low)
    for lo in range(n):
        low[lo, lo:] = np.minimum.accumulate(low_by_length[lo:], axis=0)
        high[lo, lo:] = np.maximum.accumulate(high_by_length[lo:], axis=0)
    return low, high


class _BoundContext:
    """Precomputed tables for interval bounds on the acquisition value over
    the states of the search.

    Every kernel entry k_i gets an interval from the state's distance
    intervals: the count of each node pair lies between the min and the max
    of training point i's counts over that pair's length range and, for
    sp/esp, over every label pair, since no label is fixed while edges are
    branched. The range tables hold those min/max values for every range,
    so a state reads them with one index over its pairs. Counts are
    integers, so the sums are exact. The feature box depends only on the
    size: a node's label is known only when the domain has one label, and
    every other feature bit is open. The graph and feature bounds are
    combined by ``kernels._combine``, the GP's own combine, so a box
    rounds as the kernel it bounds does.
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
        factor = model.inverse_factor
        self.ct_pos = np.clip(factor, 0.0, None)
        self.ct_neg = np.clip(factor, None, 0.0)
        # the training profile with counts cut or padded to the domain's
        # path lengths; length counts carry unit label axes, so both kinds
        # of variant read (t, n, labels, labels) counts
        profile = model.profile.resized(domain.n)
        self.train_sizes = profile.sizes.astype(float)
        counts = (profile.labeled_counts if self.variant.labeled
                  else profile.length_counts[:, :, None, None])
        self.range_min, self.range_max = _range_tables(counts)
        self.label_pairs = counts.shape[2] * counts.shape[3]
        # feature-sum products with the training points per present node:
        # at least its label when the domain has only one, at most every bit
        L, M = domain.num_labels, domain.num_features
        sure = np.zeros(M)
        sure[:L] = L == 1
        self.feature_per_node = np.stack([sure, np.ones(M)]) @ profile.feature_sums.T

    def boxes(self, size: int, lo: np.ndarray, hi: np.ndarray):
        """Kernel boxes of a stack of adjacency states of ``size`` present
        nodes, from their distance intervals ``lo``/``hi``
        (``_distance_intervals``).

        Returns k_lo and k_hi, (states, t), and the self-kernel upper bound
        per state, each from ``kernels._combine``. Every step is an integer
        sum or elementwise, so each state's values equal those of a stack
        of one.
        """
        rows = len(lo)
        s_hi = np.minimum(hi.reshape(rows, -1), self.domain.n - 1).astype(np.intp)
        s_lo = np.minimum(lo.reshape(rows, -1), s_hi).astype(np.intp)
        sums = np.stack([self.range_min[s_lo, s_hi],
                         self.range_max[s_lo, s_hi]]).sum(axis=2)
        M = self.domain.num_features
        graph, feature = _normalize(
            sums, size * self.feature_per_node, float(size), self.train_sizes, M)
        k_lo, k_hi = _combine(graph, feature[:, None], self.variant, self.hyper)

        # the self kernel is largest when every pair may sit at every
        # length its interval allows, with every label pair; the linear
        # graph kernel and the feature kernel of a graph with itself are at
        # most 1
        lengths = np.arange(self.domain.n)
        covered = (s_lo[..., None] <= lengths) & (lengths <= s_hi[..., None])
        per_length = covered.sum(axis=1).astype(float)
        self_lin, _ = _normalize(self.label_pairs * np.sum(per_length ** 2, axis=1),
                                 0.0, float(size), float(size), M)
        kxx_hi = _combine(np.minimum(self_lin, 1.0), 1.0, self.variant, self.hyper)
        return k_lo, k_hi, kxx_hi

    def row_bounds(self, boxes) -> list[float]:
        """The bound of every state of a ``boxes`` stack: the lowest
        mu - beta_sqrt * sigma over the state's kernel box.

        Each state's O(t^2) tail makes one BLAS call per product: the weight
        sums and |inner|^2 are ``gp._rowdot`` dot products, and z_lo/z_hi are
        stacked matrix-vector products, which numpy runs as one ``gemv`` per
        state, the call a 1-D ``ct_pos @ k_lo`` makes. So each state's bound
        equals that of a stack of one; a plain ``k_lo @ ct_pos.T`` would run
        ``gemm``, which rounds differently in the last ulp and could flip a
        tie.
        """
        k_lo, k_hi, kxx_hi = boxes
        rows = len(k_lo)
        mu_lo = (_rowdot(np.broadcast_to(self.w_pos, (rows, self.t)), k_lo)
                 + _rowdot(np.broadcast_to(self.w_neg, (rows, self.t)), k_hi))
        k_lo, k_hi = k_lo[:, :, None], k_hi[:, :, None]
        z_lo = (self.ct_pos @ k_lo + self.ct_neg @ k_hi)[:, :, 0]
        z_hi = (self.ct_pos @ k_hi + self.ct_neg @ k_lo)[:, :, 0]
        inner = np.where((z_lo <= 0.0) & (z_hi >= 0.0), 0.0,
                         np.minimum(np.abs(z_lo), np.abs(z_hi)))
        sigma_hi = np.sqrt(np.maximum(kxx_hi - _rowdot(inner, inner), 0.0))
        return (mu_lo - self.beta_sqrt * sigma_hi).tolist()

    def bound(self, pa: PartialAssignment) -> float:
        """A lower bound on the LCB over every feasible completion of
        ``pa``: the batched bound applied to a stack of one, or inf when no
        completion connects the present nodes."""
        lo, hi = _distance_intervals(pa.adj[None], pa.size)
        if not np.isfinite(lo).all():
            return math.inf
        return self.row_bounds(self.boxes(pa.size, lo, hi))[0]


def dual_bound(partial: PartialAssignment, gp_model: GpModel,
               beta_sqrt: float) -> float:
    """Valid lower bound on the LCB over all completions of ``partial``, a
    state of the search: one graph size and its edge bits."""
    check_acquisition_inputs(gp_model, partial.domain, beta_sqrt)
    ctx = _BoundContext(gp_model, beta_sqrt, partial.domain)
    return ctx.bound(partial)


@dataclass(frozen=True)
class _EdgeSubtree:
    """A search node and the nodes below it, in the search's preorder,
    with everything the search reads of them computed in one batch.

    Row 0 is the node itself; a row at depth d < ``end`` has its 1-child at
    row + 1 and its 0-child at row + 2**(end - d). Every row shares the
    node's size; only edge bits differ.
    """

    end: int
    infeasible: np.ndarray  # per row: connectivity and the other edge checks
    dist: np.ndarray  # per row: lower distance intervals, exact at leaves
    bounds: list | None  # ctx.row_bounds of the rows; None when row 0 is infeasible

    def bound(self, row: int) -> float:
        return self.bounds[row]


def _edge_subtree(ctx: _BoundContext, pa: PartialAssignment, depth: int,
                  bits: list) -> _EdgeSubtree:
    """The node at ``pa``, batched with its whole subtree when the
    subtree's rows x present-node pairs x training points fit the
    ``SUBTREE_ELEMENTS`` budget, else alone."""
    levels = len(bits) - depth
    if (2 ** (levels + 1) - 1) * pa.size ** 2 * ctx.t > SUBTREE_ELEMENTS:
        levels = 0
    states = _subtree_states(pa.adj, bits[depth : depth + levels], pa.domain.directed)
    lo, hi = _distance_intervals(states, pa.size)
    infeasible = ~np.isfinite(lo).all(axis=(1, 2)) | _edges_infeasible(pa, states)
    # below an infeasible node the search reads no row
    bounds = None if infeasible[0] else ctx.row_bounds(ctx.boxes(pa.size, lo, hi))
    return _EdgeSubtree(depth + levels, infeasible, lo, bounds)


# ---------------------------------------------------------------------------
# incumbents


def _improves(value: float, key: tuple, best_value: float,
              best_key: tuple | None) -> bool:
    """Lower LCB wins; ties break toward the smaller ``graph_sort_key``."""
    return value < best_value or (value == best_value
                                  and (best_key is None or key < best_key))


def _best_warm_start(model: GpModel, domain: DomainSpec, beta_sqrt: float,
                     warm: Iterable[AttributedGraph]):
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
                     budget: float, warm: Iterable[AttributedGraph]) -> SolveResult:
    start = time.monotonic()
    table = _profile_tables.get(domain)
    cache_hit = table is not None
    if not cache_hit:
        table = profile_table(
            domain, out_of_time=lambda: time.monotonic() - start >= budget)
        if table.complete:
            _profile_tables[domain] = table
    stats = {"rows": len(table), "table_s": time.monotonic() - start,
             "cache_hit": cache_hit}
    if table.complete and not len(table):
        return SolveResult(None, None, math.inf, "Infeasible", 0,
                           time.monotonic() - start, stats)
    best: tuple = (None, math.inf, None)
    if len(table):
        mu, var = predict(model, table.profiles)
        values = mu - beta_sqrt * np.sqrt(var)
        # rows ascend in enumeration order, so argmin keeps the tie-break toward
        # the lexicographically smallest graph
        row = int(np.argmin(values))
        graph = table.graph(row)
        best = (graph, float(values[row]), graph_sort_key(graph))
    if table.complete:
        return SolveResult(best[0], best[1], best[1], "Optimal", len(table),
                           time.monotonic() - start, stats)
    # a build cut short proves nothing, but a warm start may beat its rows
    warm_best = _best_warm_start(model, domain, beta_sqrt, warm)
    if _improves(warm_best[1], warm_best[2], best[1], best[2]):
        best = warm_best
    graph, value, _ = best
    if graph is None:
        return SolveResult(None, None, -math.inf, "BudgetExhausted", len(table),
                           time.monotonic() - start, stats)
    return SolveResult(graph, value, -math.inf, "FeasibleTimeLimit", len(table),
                       time.monotonic() - start, stats)


# ---------------------------------------------------------------------------
# branch and propagate


def _solve_branch(model: GpModel, domain: DomainSpec, beta_sqrt: float,
                  budget: float, warm: Iterable[AttributedGraph],
                  log_interval: int) -> SolveResult:
    start = time.monotonic()
    ctx = _BoundContext(model, beta_sqrt, domain)
    warm_best, incumbent_obj, _ = _best_warm_start(model, domain, beta_sqrt, warm)
    # the labelings met so far whose LCB equals the incumbent value, as
    # (adjacency, features) pairs; the warm start stays a graph until an
    # improvement drops it. Pruning reads only the value, so graphs are
    # built and their sort keys compared once, at the end
    tied: list[tuple[np.ndarray, np.ndarray]] = []

    nodes = subtrees = structures = 0
    open_bounds: list[float] = []
    timed_out = False

    def out_of_time() -> bool:
        return (time.monotonic() - start) > budget

    def score_structure(pa: PartialAssignment, node_bound: float,
                        dist: np.ndarray) -> None:
        """Score every feasible labeling of the structure at ``pa``, one
        ``predict`` call per block of labelings, and keep the labelings that
        improve or tie the incumbent value: ``predict`` gives a profile one
        value in any batch, ``gp.lcb``'s."""
        nonlocal incumbent_obj, tied, warm_best, timed_out, structures
        structures += 1
        adjacency = pa.adj[: pa.size, : pa.size].copy()
        np.fill_diagonal(adjacency, 0)
        for profiles, features in structure_profiles(domain, adjacency,
                                                     dist.astype(np.int64)):
            if out_of_time():
                timed_out = True
                open_bounds.append(node_bound)
                break
            if not len(features):
                continue
            mu, var = predict(model, profiles)
            values = mu - beta_sqrt * np.sqrt(var)
            low = float(values.min())
            if low > incumbent_obj:
                continue
            if low < incumbent_obj:
                incumbent_obj, tied, warm_best = low, [], None
            tied.extend((adjacency, f) for f in features[values == low])

    def search(pa: PartialAssignment, bits: list[tuple[int, int]], depth: int,
               subtree: _EdgeSubtree | None, row: int) -> None:
        """Bound the node at ``pa`` and branch on its next edge bit, or
        score its structure once every edge bit is fixed.

        The node is row ``row`` of ``subtree``: the batch of the nearest
        node on its path whose whole subtree fits the ``SUBTREE_ELEMENTS``
        budget, or a stack of the node alone (``_edge_subtree``). A
        ``subtree`` of None starts a new batch at the node.
        """
        nonlocal nodes, subtrees, timed_out
        if subtree is None:
            subtree, row = _edge_subtree(ctx, pa, depth, bits), 0
            subtrees += 1
        if subtree.infeasible[row]:
            return
        nodes += 1
        node_bound = subtree.bound(row)
        if log_interval and nodes % log_interval == 0:
            logger.info("node=%d depth=%d bound=%g incumbent=%s", nodes, depth,
                        node_bound,
                        "none" if incumbent_obj == math.inf else f"{incumbent_obj:g}")
        # a node whose bound equals the incumbent may still hold a tie with
        # a smaller sort key; with no incumbent only inf bounds prune
        if node_bound > incumbent_obj or node_bound == math.inf:
            return
        if depth == len(bits):
            score_structure(pa, node_bound, subtree.dist[row])
            return
        if timed_out or out_of_time():
            timed_out = True
            open_bounds.append(node_bound)
            return
        a, b = bits[depth]
        for value in (1, 0):
            pa.set_adj(a, b, value)
            if depth < subtree.end:
                search(pa, bits, depth + 1, subtree,
                       row + 1 if value else row + 2 ** (subtree.end - depth))
            else:
                search(pa, bits, depth + 1, None, 0)
            pa.set_adj(a, b, -1)
            if timed_out:
                open_bounds.append(node_bound)
                return

    # one search per graph size, largest first; each sets and restores its
    # partial assignment in place
    for size in reversed(domain.sizes):
        if _size_infeasible(domain, size):
            continue
        root = PartialAssignment.root(domain, size)
        if timed_out:
            # a size the budget left unsearched contributes its root bound
            open_bounds.append(ctx.bound(root))
        else:
            search(root, adjacency_pairs(size, domain.directed), 0, None, 0)
    graphs = [] if warm_best is None else [warm_best]
    graphs.extend(build_graph(adjacency, features, domain.directed, domain.num_labels)
                  for adjacency, features in tied)
    stats = {"nodes": nodes, "subtrees": subtrees, "structures_scored": structures,
             "graphs_built": len(tied)}
    elapsed = time.monotonic() - start

    if not graphs:
        if timed_out:
            return SolveResult(None, None, min(open_bounds, default=-math.inf),
                               "BudgetExhausted", nodes, elapsed, stats)
        return SolveResult(None, None, math.inf, "Infeasible", nodes, elapsed, stats)
    if timed_out or domain.extra_rows:
        incumbent = min(graphs, key=graph_sort_key)
    else:
        # a completed search met every isomorphism class that reaches the
        # incumbent value in at least one numbering, so the smallest sort
        # key is the smallest over their renumberings; a renumbering keeps
        # the kernel profile, hence the LCB
        incumbent = smallest_relabeling(graphs)
    if timed_out:
        bound = min([incumbent_obj] + open_bounds)
        status = "FeasibleTimeLimit"
    else:
        # the search prunes only at bound > incumbent, so completion
        # certifies a zero gap
        bound = incumbent_obj
        status = "Optimal"
    logger.info("status=%s gap=%g time=%.3fs nodes=%d", status,
                incumbent_obj - bound, elapsed, nodes)
    return SolveResult(incumbent, incumbent_obj, bound, status, nodes, elapsed, stats)


def solve(gp_model: GpModel, domain: DomainSpec, beta_sqrt: float,
          budget: float = DEFAULT_BUDGET,
          strategy: SolveStrategy | str = DEFAULT_STRATEGY,
          warm_start: Iterable[AttributedGraph] = (),
          log_interval: int = 0) -> SolveResult:
    """Minimize the LCB over the domain.

    ``enumerate`` scores one row per distinct feasible kernel profile of the
    domain through ``gp.predict`` and quotes the argmin row's value, which
    is ``gp.lcb``'s for its graph; the table is built once per domain and
    cached only when complete, and a domain over the enumeration bit cap
    raises DomainTooLargeError. Objective ties still break toward the
    lexicographically smallest graph, and ``nodes_explored`` counts the
    profile rows scored.
    The budget is checked per structure while the table is built (once per
    isomorphism class for undirected domains without user rows): a build
    cut short scores the rows found so far and the domain-feasible warm
    starts, and keeps the better (FeasibleTimeLimit, bound -inf) or, with
    neither, ends BudgetExhausted. A complete table ignores warm starts.

    ``branch_and_propagate`` searches each graph size on its own, largest
    first, starting from the best domain-feasible warm start. Present nodes
    form a prefix, so a size fixes every node-existence bit and the edge
    bits of the absent nodes; a size whose label-count bounds cannot sum to
    it is skipped. Each size branches on the edge bits among its present
    nodes only. Feature bits are not branched: once every edge bit is fixed
    and the node's bound does not prune it, the structure's feasible
    labelings are scored by ``gp.predict``, one call per block of labelings.
    ``predict`` gives a profile one value in any batch, equal to
    ``gp.lcb``'s, so the block's values are compared with the incumbent
    value directly, and a labeling that improves or ties it is kept as an
    (adjacency, features) pair; an improvement drops the pairs kept so far,
    and graphs are built only for the final ties, after the search. Nothing
    is re-scored. Each subtree whose rows x present-node pairs x training
    points fit ``SUBTREE_ELEMENTS`` (8,192) is bounded in one batch, with
    one BLAS call per row and product, so each row's bound is that of a
    stack of one; the nodes bounded, their values, the tie-breaks and the
    budget polls are those of a node-by-node search. ``nodes_explored``
    counts the nodes whose bound was computed: 369 at n=5 with 2 labels and
    10 random points, where searching every numbering bounded 1,598. With
    10 random points, a search per size bounds 417 nodes at n=2..5 with 2
    labels, 6,869 at n=3..6 with 1 label and 49 at n=1..4 with 2 labels,
    where branching on the existence bits first bounded 506, 7,042–7,058
    and 78.

    Symmetry: the search keeps only states whose present nodes can
    still be numbered as a breadth-first search from node 0 numbers them.
    Every node v >= 1 then has a neighbour u < v, and the first one does
    not decrease in v. Every connected graph has such a numbering, so
    every isomorphism class is searched; at fixed sizes 4, 5 and 6 the rule
    keeps 17 of 38, 171 of 728 and 3,113 of 26,704 structures. Each size
    applies the rule to its present nodes; directed domains apply it to the
    underlying undirected graph.
    Degree caps and label-count bounds do not depend on the numbering, but
    user rows name nodes, so with ``extra_rows`` the rule is off.

    A node is pruned only when its bound exceeds the incumbent value, so
    every class that reaches the optimum is met in some numbering. The
    graphs met at the optimum are renumbered by a canonical search
    (``graphs.smallest_relabeling``; features move with their nodes, which
    keeps the profile and hence the LCB), so ties break toward the smallest
    ``graph_sort_key`` as in ``enumerate``. Without the rule
    (``extra_rows``) and in a search cut short by the budget, the
    incumbent is the smallest sort key among the graphs met, unrenumbered.
    The budget is polled at every branching node and before each block of
    labelings; a structure cut short keeps its best scored labelings and
    contributes its bound to the reported bound, and each size left
    unsearched contributes the bound of its root. The search runs
    single-threaded, which keeps results bit-for-bit reproducible.

    "Optimal" means the search certified a zero gap in floating point, so
    it holds to the posterior's own roundoff. Against an exact rational
    reference (``fractions`` on the same float Gram matrix, targets and
    noise), ``gp.predict``'s mu is off by up to 2.0e-8 on ssp models of 10
    random points at n=5 (max |w| about 1.5e6), and by up to 5.8e-5 on
    essp models of the same set-up. A graph within that distance of the
    incumbent may be pruned or lose a tie on roundoff alone. Both
    strategies and ``gp.lcb`` quote one value per profile, so they agree
    with each other bit for bit, not with the exact value.

    ``warm_start`` may be any iterable, lazy ones included: it is read only
    by the strategy that needs it, ``branch_and_propagate`` always and
    ``enumerate`` only when its table build is cut short.

    ``SolveResult.stats`` counts each strategy's work: ``enumerate`` reports
    ``rows`` (profile rows scored), ``table_s`` (seconds to build or fetch
    the table) and ``cache_hit``; ``branch_and_propagate`` reports ``nodes``
    (as ``nodes_explored``), ``subtrees`` (batches built),
    ``structures_scored`` and ``graphs_built``.

    Both strategies first check their inputs with
    ``encode.check_acquisition_inputs``, as the encoder does: an unfitted
    model raises UnfittedModelError, a domain whose label/feature scheme or
    directedness differs from the training set's IncompatibleDomainError,
    and a negative ``beta_sqrt`` ValueError.
    """
    check_acquisition_inputs(gp_model, domain, beta_sqrt)
    strategy = SolveStrategy(strategy)
    if strategy is SolveStrategy.ENUMERATE:
        return _solve_enumerate(gp_model, domain, beta_sqrt, budget, warm_start)
    return _solve_branch(gp_model, domain, beta_sqrt, budget, warm_start,
                         log_interval)
