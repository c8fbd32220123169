"""Exact minimization of the acquisition problem.

Two strategies: exhaustive enumeration of the (guarded) domain, and
branch-and-propagate over structural bits only. Enumeration scores one row
per distinct feasible kernel profile (``graphs.profile_table``), since the
LCB reads a graph only through its profile. Distance/on-path variables
are never branched: once the structural bits are fixed they are uniquely
determined, so leaves are evaluated exactly through the graph machinery.
Partial assignments are pruned with interval-arithmetic lower bounds on the
acquisition value.

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
from scipy import linalg as sla

from .encode import ConstraintBlock, SizeSpec, _size_bounds
from .errors import (
    DimensionMismatchError,
    MissingVariableError,
    SpaceTooLargeError,
    UnfittedModelError,
)
from .gp import GpModel, lcb as gp_lcb
from .graphs import (  # noqa: F401  enumerate_domain is re-exported
    ENUMERATION_BIT_CAP,
    AttributedGraph,
    DomainSpec,
    ProfileTable,
    build_graph,
    domain_feasible,
    enumerate_domain,
    profile_table,
)
from .errors import GraphBoError
from .kernels import cross_gram, self_kernel_parts

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

    def copy(self) -> "PartialAssignment":
        return PartialAssignment(self.domain, self.adj.copy(), self.feat.copy())

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

    def existing_nodes(self) -> list[int]:
        return [v for v in range(self.domain.n) if self.adj[v, v] == 1]


def branch_bits(domain: DomainSpec) -> list[tuple[str, int, int]]:
    """Branching order: adjacency bits in lexicographic (row-major) order,
    then feature bits."""
    n = domain.n
    bits: list[tuple[str, int, int]] = []
    for u in range(n):
        for v in range(n):
            if u == v:
                if not domain.fixed_size:
                    bits.append(("adj", u, v))
            elif domain.directed or u < v:
                bits.append(("adj", u, v))
    for v in range(n):
        for m in range(domain.num_features):
            bits.append(("feat", v, m))
    return bits


def _quick_infeasible(pa: PartialAssignment) -> bool:
    """Cheap conservative pruning checks; never cuts a feasible completion."""
    domain = pa.domain
    n, L = domain.n, domain.num_labels
    diag = np.diag(pa.adj)
    if not domain.fixed_size:
        # monotone existence and the minimum node count
        for v in range(n - 1):
            if diag[v] == 0 and diag[v + 1] == 1:
                return True
        if int(np.sum(diag == 0)) > n - domain.n_min:
            return True
        # edges and features of surely-absent nodes must stay off
        for v in range(n):
            if diag[v] == 0:
                if (pa.adj[v, :] == 1).sum() or (pa.adj[:, v] == 1).sum():
                    return True
                if (pa.feat[v, :] == 1).any():
                    return True
    # one-hot labels of surely-present nodes
    for v in range(n):
        if diag[v] != 1:
            continue
        block = pa.feat[v, :L]
        if (block == 1).sum() > 1:
            return True
        if (block == 0).all():
            return True
    # optimistic connectivity: treat unknowns as present
    maybe = [v for v in range(n) if diag[v] != 0]
    if maybe:
        sub = pa.adj[np.ix_(maybe, maybe)] != 0
        np.fill_diagonal(sub, False)
        present = {i for i, v in enumerate(maybe) if diag[v] == 1}
        if present:
            if not _covers(sub, present, domain.directed):
                return True
    # label-count interval check
    if domain.label_count_bounds is not None:
        for l, (lo, hi) in enumerate(domain.label_count_bounds):
            col = pa.feat[:, l]
            sure = int((col == 1).sum())
            possible = sure + sum(
                1 for v in range(n)
                if col[v] == -1 and diag[v] != 0 and not (pa.feat[v, :L] == 1).any())
            if sure > hi or possible < lo:
                return True
    # degree caps: committed in-edges vs the best possible cap
    if domain.degree_caps is not None:
        max_cap = max(domain.degree_caps)
        for v in range(n):
            committed = int((pa.adj[:, v] == 1).sum()) - int(pa.adj[v, v] == 1)
            fixed_label = [l for l in range(L) if pa.feat[v, l] == 1]
            cap = domain.degree_caps[fixed_label[0]] if fixed_label else max_cap
            if committed > cap:
                return True
    return False


def _covers(sub: np.ndarray, present: set[int], directed: bool) -> bool:
    """All ``present`` indices mutually reachable inside ``sub``."""
    start = next(iter(present))
    fwd = _reach(sub, start)
    if not all(fwd[i] for i in present):
        return False
    if not directed:
        return True
    bwd = _reach(sub.T, start)
    return all(bwd[i] for i in present)


def _reach(adj: np.ndarray, start: int) -> np.ndarray:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(adj[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    nxt.append(int(v))
        frontier = nxt
    return seen


class _BoundContext:
    """Precomputed tables for interval bounds on the acquisition value."""

    def __init__(self, model: GpModel, beta_sqrt: float, domain: DomainSpec):
        self.model = model
        self.beta_sqrt = float(beta_sqrt)
        self.domain = domain
        self.variant = model.variant
        self.hyper = model.hyper
        self.t = model.size
        self.weights = model.weights
        self.w_pos = np.clip(model.weights, 0.0, None)
        self.w_neg = np.clip(model.weights, None, 0.0)
        # factor F of the precision (F'F = Q): z = F k gives k'Qk = |z|^2
        factor = model.inverse_factor()
        self.ct_pos = np.clip(factor, 0.0, None)
        self.ct_neg = np.clip(factor, None, 0.0)
        # the training profile with counts cut or padded to the domain's
        # path lengths; the bounds index it by the domain's labels and features
        profile = model.profile.resized(domain.n)
        if (profile.num_labels, profile.num_features) != (domain.num_labels,
                                                          domain.num_features):
            raise DimensionMismatchError(
                "domain label/feature scheme differs from the training set")
        self.train_sizes = profile.sizes
        self.length_tab = profile.length_counts
        self.labeled_tab = profile.labeled_counts
        self.feature_tab = profile.feature_sums
        var = self.hyper.require_variance(self.variant)
        if self.variant.exponential:
            self.k_box_crude = (self.hyper.alpha / var,
                                self.hyper.alpha * math.e / var + self.hyper.beta)
            self.kxx_crude = self.hyper.alpha * math.e / var + self.hyper.beta
        else:
            self.k_box_crude = (0.0, self.hyper.alpha + self.hyper.beta)
            self.kxx_crude = self.hyper.alpha + self.hyper.beta

    # -- interval helpers --------------------------------------------------

    def _label_sets(self, pa: PartialAssignment, nodes: list[int]) -> list[list[int]] | None:
        L = self.domain.num_labels
        sets = []
        for v in nodes:
            block = pa.feat[v, :L]
            fixed = [l for l in range(L) if block[l] == 1]
            if len(fixed) > 1:
                return None
            if fixed:
                sets.append(fixed)
            else:
                options = [l for l in range(L) if block[l] != 0]
                if not options:
                    return None
                sets.append(options)
        return sets

    def _distance_intervals(self, pa: PartialAssignment, nodes: list[int]):
        """Per ordered pair: [lo, hi] over all connected completions."""
        npx = len(nodes)
        sure = np.zeros((npx, npx), dtype=bool)
        opt = np.zeros((npx, npx), dtype=bool)
        for a, u in enumerate(nodes):
            for b, v in enumerate(nodes):
                if u == v:
                    continue
                state = pa.adj[u, v]
                if state == 1:
                    sure[a, b] = True
                if state != 0:
                    opt[a, b] = True
        lo = _bfs_all(opt)
        if not np.isfinite(lo).all():
            return None
        hi = _bfs_all(sure)
        hi = np.where(np.isfinite(hi), hi, npx - 1.0)
        return lo.astype(np.int64), hi.astype(np.int64)

    def bound(self, pa: PartialAssignment) -> float:
        """A lower bound on the LCB over every feasible completion."""
        if not pa.diag_fixed():
            k_lo = np.full(self.t, self.k_box_crude[0])
            k_hi = np.full(self.t, self.k_box_crude[1])
            kxx_hi = self.kxx_crude
        else:
            nodes = pa.existing_nodes()
            if not nodes:
                return math.inf
            npx = len(nodes)
            intervals = self._distance_intervals(pa, nodes)
            if intervals is None:
                return math.inf
            lo, hi = intervals
            label_sets = self._label_sets(pa, nodes) if self.variant.labeled else None
            if self.variant.labeled and label_sets is None:
                return math.inf

            norm = (npx * npx) * (self.train_sizes.astype(float) ** 2)
            g_lo = np.zeros(self.t)
            g_hi = np.zeros(self.t)
            hi_counts_lin = np.zeros(self.domain.n)
            hi_counts_lab = None
            if self.variant.labeled:
                L = self.domain.num_labels
                hi_counts_lab = np.zeros((self.domain.n, L, L))
            for a in range(npx):
                for b in range(npx):
                    s_lo = 0 if a == b else int(lo[a, b])
                    s_hi = 0 if a == b else int(hi[a, b])
                    s_hi = min(s_hi, self.domain.n - 1)
                    s_lo = min(s_lo, s_hi)
                    if self.variant.labeled:
                        lu, lv = label_sets[a], label_sets[b]
                        sub = self.labeled_tab[:, s_lo : s_hi + 1][:, :, lu][:, :, :, lv]
                        g_lo += sub.min(axis=(1, 2, 3))
                        g_hi += sub.max(axis=(1, 2, 3))
                        for l1 in lu:
                            for l2 in lv:
                                hi_counts_lab[s_lo : s_hi + 1, l1, l2] += 1
                    else:
                        sub = self.length_tab[:, s_lo : s_hi + 1]
                        g_lo += sub.min(axis=1)
                        g_hi += sub.max(axis=1)
                        hi_counts_lin[s_lo : s_hi + 1] += 1
            g_lo = g_lo / norm
            g_hi = g_hi / norm

            n_lo, n_hi = self._feature_sum_intervals(pa, nodes)
            m = self.domain.num_features
            f_lo = (self.feature_tab @ n_lo) / (npx * self.train_sizes * m)
            f_hi = (self.feature_tab @ n_hi) / (npx * self.train_sizes * m)

            var = self.hyper.require_variance(self.variant)
            if self.variant.exponential:
                k_lo = self.hyper.alpha * np.exp(g_lo) / var + self.hyper.beta * f_lo
                k_hi = self.hyper.alpha * np.exp(g_hi) / var + self.hyper.beta * f_hi
            else:
                k_lo = self.hyper.alpha * g_lo + self.hyper.beta * f_lo
                k_hi = self.hyper.alpha * g_hi + self.hyper.beta * f_hi

            if self.variant.labeled:
                self_lin_hi = min(1.0, float(np.sum(hi_counts_lab ** 2)) / npx ** 4)
            else:
                self_lin_hi = min(1.0, float(np.sum(hi_counts_lin ** 2)) / npx ** 4)
            if self.variant.exponential:
                self_graph_hi = math.exp(self_lin_hi) / var
            else:
                self_graph_hi = self_lin_hi
            self_feat_hi = min(1.0, float(np.dot(n_hi, n_hi)) / (npx * npx * m))
            kxx_hi = self.hyper.alpha * self_graph_hi + self.hyper.beta * self_feat_hi

        mu_lo = float(self.w_pos @ k_lo + self.w_neg @ k_hi)
        z_lo = self.ct_pos @ k_lo + self.ct_neg @ k_hi
        z_hi = self.ct_pos @ k_hi + self.ct_neg @ k_lo
        inner = np.where((z_lo <= 0.0) & (z_hi >= 0.0), 0.0,
                         np.minimum(np.abs(z_lo), np.abs(z_hi)))
        q_lo = float(np.dot(inner, inner))
        sigma_hi = math.sqrt(max(kxx_hi - q_lo, 0.0))
        return mu_lo - self.beta_sqrt * sigma_hi

    def _feature_sum_intervals(self, pa: PartialAssignment, nodes: list[int]):
        L, M = self.domain.num_labels, self.domain.num_features
        n_lo = np.zeros(M)
        n_hi = np.zeros(M)
        label_sets = self._label_sets(pa, nodes)
        for idx, v in enumerate(nodes):
            for m in range(M):
                state = pa.feat[v, m]
                if m < L:
                    possible = label_sets is not None and m in label_sets[idx]
                    if state == 1:
                        n_lo[m] += 1
                    if possible:
                        n_hi[m] += 1
                else:
                    if state == 1:
                        n_lo[m] += 1
                        n_hi[m] += 1
                    elif state == -1:
                        n_hi[m] += 1
        return n_lo, n_hi


def _bfs_all(adj: np.ndarray) -> np.ndarray:
    n = adj.shape[0]
    dist = np.full((n, n), np.inf)
    for s in range(n):
        dist[s, s] = 0.0
        frontier = [s]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                for v in np.nonzero(adj[u])[0]:
                    if not np.isfinite(dist[s, v]):
                        dist[s, v] = depth
                        nxt.append(int(v))
            frontier = nxt
    return dist


def dual_bound(partial: PartialAssignment, gp_model: GpModel,
               beta_sqrt: float) -> float:
    """Valid lower bound on the LCB over all completions of ``partial``."""
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
# enumeration strategy over a per-domain profile table


_profile_tables: dict[tuple[DomainSpec, int], ProfileTable] = {}


def _solve_enumerate(model: GpModel, domain: DomainSpec, beta_sqrt: float,
                     budget: float, bit_cap: int) -> SolveResult:
    start = time.monotonic()
    key = (domain, bit_cap)
    table = _profile_tables.get(key)
    if table is None:
        table = profile_table(
            domain, bit_cap,
            out_of_time=lambda: time.monotonic() - start >= budget)
        if table.complete:
            _profile_tables[key] = table
    if not len(table):
        status, bound = (("Infeasible", math.inf) if table.complete
                         else ("BudgetExhausted", -math.inf))
        return SolveResult(None, None, bound, status, 0, time.monotonic() - start)
    kmat = cross_gram(table.profiles, model.profile, model.variant, model.hyper)
    mu = kmat @ model.weights
    v = sla.solve_triangular(model.chol, kmat.T, lower=True)
    kself = self_kernel_parts(table.profiles, model.variant, model.hyper)
    var = np.clip(kself - np.sum(v * v, axis=0), 0.0, None)
    values = mu - beta_sqrt * np.sqrt(var)
    # rows ascend in enumeration order, so argmin keeps the tie-break toward
    # the lexicographically smallest graph
    incumbent = table.graph(int(np.argmin(values)))
    # report the incumbent's value through the per-graph reference path so
    # both strategies quote identical numbers for identical graphs
    objective = gp_lcb(model, incumbent, beta_sqrt)
    status, bound = (("Optimal", objective) if table.complete
                     else ("FeasibleTimeLimit", -math.inf))
    return SolveResult(incumbent, objective, bound, status, len(table),
                       time.monotonic() - start)


# ---------------------------------------------------------------------------
# branch and propagate


def _solve_branch(model: GpModel, domain: DomainSpec, beta_sqrt: float,
                  budget: float, warm: Sequence[AttributedGraph],
                  log_interval: int) -> SolveResult:
    start = time.monotonic()
    ctx = _BoundContext(model, beta_sqrt, domain)
    bits = branch_bits(domain)

    incumbent: AttributedGraph | None = None
    incumbent_obj = math.inf
    incumbent_key: tuple | None = None
    for graph in warm:
        if not domain_feasible(domain, graph):
            continue
        value = gp_lcb(model, graph, beta_sqrt)
        key = graph_sort_key(graph)
        if value < incumbent_obj or (value == incumbent_obj
                                     and (incumbent_key is None or key < incumbent_key)):
            incumbent, incumbent_obj, incumbent_key = graph, value, key

    nodes = 0
    open_bounds: list[float] = []
    timed_out = False

    def out_of_time() -> bool:
        return (time.monotonic() - start) > budget

    def search(pa: PartialAssignment, depth: int) -> None:
        nonlocal nodes, incumbent, incumbent_obj, incumbent_key, timed_out
        nodes += 1
        if _quick_infeasible(pa):
            return
        node_bound = ctx.bound(pa)
        if log_interval and nodes % log_interval == 0:
            logger.info("node=%d depth=%d bound=%g incumbent=%s", nodes, depth,
                        node_bound,
                        "none" if incumbent is None else f"{incumbent_obj:g}")
        if node_bound == math.inf:
            return
        if incumbent is not None and node_bound >= incumbent_obj:
            return
        if depth == len(bits):
            graph = _leaf_graph(np.maximum(pa.adj, 0), np.maximum(pa.feat, 0), domain)
            if graph is PRUNED:
                return
            value = gp_lcb(model, graph, beta_sqrt)
            key = graph_sort_key(graph)
            if value < incumbent_obj or (value == incumbent_obj
                                         and (incumbent_key is None or key < incumbent_key)):
                incumbent, incumbent_obj, incumbent_key = graph, value, key
            return
        if timed_out or out_of_time():
            timed_out = True
            open_bounds.append(node_bound)
            return
        kind, a, b = bits[depth]
        for value in (1, 0):
            child = pa.copy()
            if kind == "adj":
                child.set_adj(a, b, value)
            else:
                child.set_feat(a, b, value)
            search(child, depth + 1)
            if timed_out:
                open_bounds.append(node_bound)
                return

    search(PartialAssignment.empty(domain), 0)
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
          log_interval: int = 0,
          enumeration_bit_cap: int = ENUMERATION_BIT_CAP) -> SolveResult:
    """Minimize the LCB over the domain.

    ``enumerate`` scores one row per distinct feasible kernel profile of the
    domain; the table is built once per domain and cached only when
    complete. Objective ties still break toward the lexicographically
    smallest graph, and ``nodes_explored`` counts the profile rows scored.
    The budget is checked per structure while the table is built: a build
    cut short scores the rows found so far (FeasibleTimeLimit, bound -inf)
    or, with none, ends BudgetExhausted. The search runs single-threaded,
    which keeps results bit-for-bit reproducible.
    """
    if gp_model.size == 0:
        raise UnfittedModelError("solver needs a fitted model")
    strategy = SolveStrategy(strategy)
    warm = list(warm_start)
    if strategy is SolveStrategy.ENUMERATE:
        return _solve_enumerate(gp_model, domain, beta_sqrt, budget,
                                enumeration_bit_cap)
    return _solve_branch(gp_model, domain, beta_sqrt, budget, warm, log_interval)
