"""Exact minimization of the acquisition problem.

Two strategies: exhaustive enumeration of the (guarded) domain, and
branch-and-propagate over the domain's structures. Enumeration scores one
row per distinct feasible kernel profile (``graphs.profile_table``), since
the LCB reads a graph only through its profile. Branch-and-propagate takes
each graph size on its own, smallest first, and the same structures the
profile table reads, in its order (``graphs._structures``: one per
isomorphism class of an undirected domain without user rows). It bounds
them in chunks with interval-arithmetic lower bounds on the acquisition
value, read from per-training-point range-min/max tables of the count
profile, and scores every feasible labeling of each structure its bound
does not prune, one ``gp.predict`` call per block of labelings
(``graphs.structure_profiles``). It keeps the first labeling in that
order at the lowest value, as an (adjacency, features) pair, and builds
its graph once, after the search. Both strategies thus break objective
ties toward the smallest ``graph_sort_key``.

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
from typing import Iterable, Iterator, Mapping

import numpy as np

from .encode import ConstraintBlock, SizeSpec, _size_bounds, check_acquisition_inputs
from .errors import MissingVariableError, SpaceTooLargeError
from .gp import GpModel, _rowdot, lcb as gp_lcb, predict
from .graphs import enumerate_domain  # noqa: F401  re-exported from graphbo.solve
from .graphs import (
    BLOCK,
    AttributedGraph,
    DomainSpec,
    ProfileTable,
    _structures,
    _walks,
    adjacency_pairs,
    build_graph,
    domain_feasible,
    graph_sort_key,
    matrices_sort_key,
    profile_table,
    structure_profiles,
)
from .kernels import _combine, _normalize
from .kernels import cross_gram  # noqa: F401  kept for perfbench's span hooks

logger = logging.getLogger("graphbo.solve")

DEFAULT_BUDGET = 600.0
COUNT_CAP = 1 << 24


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
    # work counters: B&P reports nodes and structures_scored; enumerate
    # reports rows, table_s and cache_hit
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
# structures and bounds


def _size_infeasible(domain: DomainSpec, size: int) -> bool:
    """No labeling of ``size`` nodes meets the label-count bounds. Each node
    carries exactly one label, so the counts sum to ``size``, and counts
    with lo <= count <= hi reach that sum exactly when every lo <= hi and
    sum(lo) <= size <= sum(hi)."""
    if domain.label_count_bounds is None:
        return False
    lo, hi = np.array(domain.label_count_bounds).T
    return bool((lo > hi).any() or not lo.sum() <= size <= hi.sum())


def _first_row_can_be_smallest(adjacency: np.ndarray) -> np.ndarray:
    """Per structure of the stack ``adjacency`` (b, n, n): node 0 has the
    least out-degree d, and its out-neighbours are nodes n - d to n - 1.

    ``graph_sort_key`` reads the adjacency row by row, so the smallest
    numbering of a class has the smallest first row that any numbering
    gives (orderly generation: Read, Ann. Discrete Math. 2, 1978; McKay,
    J. Algorithms 26, 1998): a node of least out-degree first, its
    out-neighbours last. Every class's smallest numbering passes. The
    diagonal is not read.
    """
    n = adjacency.shape[1]
    out = (adjacency != 0) & ~np.eye(n, dtype=bool)
    degree = out.sum(axis=2)
    first = degree[:, 0]
    return (first == degree.min(axis=1)) & (
        out[:, 0] == (np.arange(n) >= n - first[:, None])).all(axis=1)


def _structure_chunks(domain: DomainSpec, size: int
                      ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stacks (b, size, size) of the adjacency and distances of the
    structures that branch-and-propagate bounds at ``size``: those of
    ``graphs._structures``, in its order and in chunks of at most BLOCK
    node pairs, less any whose in-degree exceeds every degree cap. A walk
    without user rows keeps only numberings whose first row can be the
    smallest (``_first_row_can_be_smallest``), which every class's smallest
    numbering passes; user rows name nodes, so with any the walk keeps
    every numbering. Each block of ``_structures`` yields at least one
    chunk, empty when none of its structures is kept, so the caller polls
    its budget between blocks."""
    rows = max(1, BLOCK // size ** 2)
    for adjacency, dist in _structures(domain, size):
        keep = np.ones(len(adjacency), dtype=bool)
        if domain.degree_caps is not None:
            keep &= (adjacency.sum(axis=1) <= max(domain.degree_caps)).all(axis=1)
        if _walks(domain, size) and not domain.extra_rows:
            keep &= _first_row_can_be_smallest(adjacency)
        adjacency, dist = adjacency[keep], dist[keep]
        for lo in range(0, max(len(adjacency), 1), rows):
            yield adjacency[lo: lo + rows], dist[lo: lo + rows]


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
    every graph of a given size whose node-pair distances lie in given
    intervals: a structure's exact distances, or a size's root intervals
    (every pair at 1 to size - 1), which hold every graph of that size.

    Every kernel entry k_i gets an interval from the distance intervals:
    the count of each node pair lies between the min and the max of
    training point i's counts over that pair's length range and, for
    sp/esp, over every label pair, since no label is fixed. The range
    tables hold those min/max values for every range, so a row reads them
    with one index over its pairs. Counts are integers, so the sums are
    exact. The feature box depends only on the size: a node's label is
    known only when the domain has one label, and every other feature bit
    is open. The graph and feature bounds are combined by
    ``kernels._combine``, the GP's own combine, so a box rounds as the
    kernel it bounds does.
    """

    def __init__(self, model: GpModel, beta_sqrt: float, domain: DomainSpec):
        self.beta_sqrt = float(beta_sqrt)
        self.domain = domain
        self.variant = model.variant
        self.hyper = model.hyper
        self.t = model.size
        self.w_pos = np.clip(model.weights, 0.0, None)
        self.w_neg = np.clip(model.weights, None, 0.0)
        self.w_abs = np.abs(model.weights)
        # gamma_t = t u / (1 - t u) bounds the rounding of a t-term dot
        # product relative to |w|'|k| (Higham 2002, 3.1)
        unit = np.finfo(float).eps / 2
        self.gamma = self.t * unit / (1 - self.t * unit)
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
        """Kernel boxes of a stack of ``size``-node distance intervals
        ``lo``/``hi``, each (rows, size, size).

        Returns k_lo and k_hi, (rows, t), and the self-kernel upper bound
        per row, each from ``kernels._combine``. Every step is an integer
        sum or elementwise, so each row's values equal those of a stack
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
        """The bound of every row of a ``boxes`` stack: the lowest
        mu - beta_sqrt * sigma over the row's kernel box.

        The mean's lower end, w+ k_lo + w- k_hi, and ``gp.predict``'s w k
        each round by up to gamma_t |w|'|k|, so the bound steps down by
        2 gamma_t |w|'max(|k_lo|, |k_hi|). Without that slack, a
        structure's bound exceeded the lowest ``predict`` LCB of its
        labelings by up to 9.5e-6 on 10-point models with |w| up to 2e6,
        and pruning at bound > incumbent could drop a tie. The sigma term
        carries no slack: its rounding is not bounded here.

        Each row's O(t^2) tail makes one BLAS call per product: the weight
        sums and |inner|^2 are ``gp._rowdot`` dot products, and z_lo/z_hi are
        stacked matrix-vector products, which numpy runs as one ``gemv`` per
        row, the call a 1-D ``ct_pos @ k_lo`` makes. So each row's bound
        equals that of a stack of one; a plain ``k_lo @ ct_pos.T`` would run
        ``gemm``, which rounds differently in the last ulp and could flip a
        tie.
        """
        k_lo, k_hi, kxx_hi = boxes
        rows = len(k_lo)
        mu_lo = (_rowdot(np.broadcast_to(self.w_pos, (rows, self.t)), k_lo)
                 + _rowdot(np.broadcast_to(self.w_neg, (rows, self.t)), k_hi))
        k_abs = np.maximum(np.abs(k_lo), np.abs(k_hi))
        mu_lo -= 2 * self.gamma * _rowdot(np.broadcast_to(self.w_abs, (rows, self.t)), k_abs)
        k_lo, k_hi = k_lo[:, :, None], k_hi[:, :, None]
        z_lo = (self.ct_pos @ k_lo + self.ct_neg @ k_hi)[:, :, 0]
        z_hi = (self.ct_pos @ k_hi + self.ct_neg @ k_lo)[:, :, 0]
        inner = np.where((z_lo <= 0.0) & (z_hi >= 0.0), 0.0,
                         np.minimum(np.abs(z_lo), np.abs(z_hi)))
        sigma_hi = np.sqrt(np.maximum(kxx_hi - _rowdot(inner, inner), 0.0))
        return (mu_lo - self.beta_sqrt * sigma_hi).tolist()


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
                  budget: float, warm: Iterable[AttributedGraph]) -> SolveResult:
    start = time.monotonic()
    ctx = _BoundContext(model, beta_sqrt, domain)
    warm_graph, warm_obj, warm_key = _best_warm_start(model, domain, beta_sqrt, warm)
    # the first labeling in enumerate order at the lowest value met, as an
    # (adjacency, features) pair; a labeling that ties the warm start
    # replaces it, so a completed search ends at enumerate's incumbent
    found: tuple[np.ndarray, np.ndarray] | None = None
    found_obj = math.inf
    nodes = structures = 0

    def out_of_time() -> bool:
        return (time.monotonic() - start) > budget

    def score_structure(adjacency: np.ndarray, dist: np.ndarray) -> bool:
        """Score every feasible labeling of one structure, one ``predict``
        call per block of labelings, and keep the block's first minimum if
        it is lower than the labeling kept and no higher than the warm
        start: ``predict`` gives a profile one value in any batch,
        ``gp.lcb``'s. False when the budget ran out first."""
        nonlocal found, found_obj
        for profiles, features in structure_profiles(domain, adjacency, dist):
            if out_of_time():
                return False
            if not len(features):
                continue
            mu, var = predict(model, profiles)
            values = mu - beta_sqrt * np.sqrt(var)
            row = int(np.argmin(values))
            if values[row] < found_obj and values[row] <= warm_obj:
                found, found_obj = (adjacency, features[row]), float(values[row])
        return True

    def search(size: int) -> bool:
        """Bound the structures of ``size`` chunk by chunk and score those
        that may hold a labeling the search keeps. False when the budget ran
        out first."""
        nonlocal nodes, structures
        for adjacency, dist in _structure_chunks(domain, size):
            if out_of_time():
                return False
            if not len(adjacency):
                continue
            bounds = ctx.row_bounds(ctx.boxes(size, dist, dist))
            nodes += len(bounds)
            for adj, d, bound in zip(adjacency, dist, bounds):
                if bound >= found_obj or bound > warm_obj:
                    continue
                structures += 1
                if not score_structure(adj, d):
                    return False
        return True

    timed_out = False
    open_bounds: list[float] = []
    for size in domain.sizes:
        if _size_infeasible(domain, size):
            continue
        if timed_out or not search(size):
            # a size cut short or left unsearched contributes the bound of
            # its root intervals: every node pair at distance 1 to size - 1
            timed_out = True
            apart = 1.0 - np.eye(size)[None]
            open_bounds.append(ctx.row_bounds(ctx.boxes(size, apart, (size - 1) * apart))[0])
    incumbent, objective = warm_graph, warm_obj
    # a completed search keeps its labeling, which is no worse than the warm
    # start; one cut short keeps the better of the two, as enumerate does
    if found is not None and (not timed_out or _improves(
            found_obj, matrices_sort_key(*found), warm_obj, warm_key)):
        incumbent = build_graph(*found, domain.directed, domain.num_labels)
        objective = found_obj
    stats = {"nodes": nodes, "structures_scored": structures}
    elapsed = time.monotonic() - start

    if incumbent is None:
        if timed_out:
            return SolveResult(None, None, min(open_bounds, default=-math.inf),
                               "BudgetExhausted", nodes, elapsed, stats)
        return SolveResult(None, None, math.inf, "Infeasible", nodes, elapsed, stats)
    if timed_out:
        bound = min([objective] + open_bounds)
        status = "FeasibleTimeLimit"
    else:
        # every structure pruned has no labeling below the incumbent value,
        # so completion certifies a zero gap
        bound = objective
        status = "Optimal"
    logger.info("status=%s gap=%g time=%.3fs nodes=%d", status,
                objective - bound, elapsed, nodes)
    return SolveResult(incumbent, objective, bound, status, nodes, elapsed, stats)


def solve(gp_model: GpModel, domain: DomainSpec, beta_sqrt: float,
          budget: float = DEFAULT_BUDGET,
          strategy: SolveStrategy | str = DEFAULT_STRATEGY,
          warm_start: Iterable[AttributedGraph] = ()) -> SolveResult:
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

    ``branch_and_propagate`` searches each graph size on its own, smallest
    first, starting from the best domain-feasible warm start; a size whose
    label-count bounds cannot sum to it is skipped. A size's structures
    are those the enumerate table reads, in its order
    (``graphs._structures``): one per isomorphism class of an undirected
    domain without user rows, up to ``graphs.CLASS_TABLE_MAX_NODES``
    nodes, else the walk over every connected structure. A walk without
    user rows keeps only numberings in which node 0 has the least
    out-degree d and its out-neighbours are nodes n - d to n - 1: the
    first row of every class's smallest numbering. User rows name nodes,
    so with any the walk keeps every numbering. A structure whose
    in-degree exceeds every degree cap is dropped. The rest are bounded in
    chunks of at most BLOCK node pairs, with their exact distances
    (``_BoundContext.row_bounds``: one BLAS call per structure and
    product, so a structure's bound does not depend on its chunk). The
    feasible labelings of a structure are scored by ``gp.predict``, one
    call per block of labelings, in enumeration order. ``predict`` gives a
    profile one value in any batch, equal to ``gp.lcb``'s, so the search
    keeps the first labeling at the lowest value as an (adjacency,
    features) pair: a later one must be strictly lower, except that one
    tying the warm start replaces it. A structure is pruned when its bound
    is at or above the kept labeling's value, or above the warm start's.
    The kept labeling's graph is built once, after the search, and nothing
    is re-scored. ``nodes_explored`` counts the structures bounded: 21 at
    n=5 with one label or two.

    The bound's mean term steps down by a bound on the rounding of its own
    sum and of ``predict``'s (``_BoundContext.row_bounds``). Its sigma term
    has no such slack, and ``predict`` forms sigma another way. So that the
    bound sits at or below ``predict``'s value at every labeling of its
    structure, and hence that every structure holding a labeling below the
    incumbent value is scored, is checked with no tolerance on small
    domains (``test_structure_bound_below_every_labeling``), not proved.

    Sizes, structures and labelings are all read in ``enumerate_domain``
    order, and the smallest numbering of a class comes first among its
    numberings, so a completed search returns ``enumerate``'s incumbent:
    objective ties break toward the smallest ``graph_sort_key``. A search
    cut short keeps the better of its labeling and the warm start, ties
    going to the smaller sort key, as ``enumerate``'s cut-short build does.
    The budget is polled before each chunk, empty ones included, and each
    block of labelings; a class-table build yields a chunk after each step.
    A size cut short contributes the bound of its root intervals (every
    node pair at distance 1 to size - 1, so every graph of that size) to
    the reported bound, as does each size left unsearched. The search runs
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
    (as ``nodes_explored``) and ``structures_scored``.

    Both strategies first check their inputs with
    ``encode.check_acquisition_inputs``, as the encoder does: an unfitted
    model raises UnfittedModelError, a domain whose label/feature scheme or
    directedness differs from the training set's IncompatibleDomainError,
    and a negative ``beta_sqrt`` ValueError. A NaN ``budget`` raises
    ValueError, since no elapsed time compares above it; 0 and inf work.
    """
    check_acquisition_inputs(gp_model, domain, beta_sqrt)
    if math.isnan(budget):
        raise ValueError("budget must be a number, got nan")
    strategy = SolveStrategy(strategy)
    if strategy is SolveStrategy.ENUMERATE:
        return _solve_enumerate(gp_model, domain, beta_sqrt, budget, warm_start)
    return _solve_branch(gp_model, domain, beta_sqrt, budget, warm_start)
