"""Attributed-graph data model, shortest paths, enumeration, profile tables,
and sampling.

Graphs are connected simple graphs (strongly connected when directed) with a
binary node-feature matrix whose first ``num_labels`` columns one-hot encode a
node label. All objects are immutable after construction.

``profile_table`` reduces a domain to one row per distinct feasible kernel
profile; the ``enumerate`` solve strategy scores those rows (its
``nodes_explored`` counts them) instead of every graph. Each row keeps the
first graph in ``enumerate_domain`` order with its profile, so ties still
break toward the lexicographically smallest graph. Undirected domains
without user rows build the table from one structure per isomorphism class
of connected graphs (``_connected_classes``: vertex augmentation), in its
smallest numbering, which is that first graph's structure, up to
CLASS_TABLE_MAX_NODES nodes; other domains and sizes walk every connected
structure. Both solve strategies read one structure's labelings through
``structure_profiles``, in ``enumerate_domain`` order, so the first
labeling at the lowest value is the smallest ``graph_sort_key`` among the
ties. A canonical search, ``_smallest_numberings``, finds each candidate's
smallest numbering while the class tables are built.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
# loaded up front: numpy 2 loads it on first use, and every sample and fit draws from it
import numpy.random  # noqa: F401

from .errors import (
    AsymmetricUndirectedError,
    BadOneHotError,
    DisconnectedError,
    DomainTooLargeError,
    InvalidSizeBoundsError,
    NonSquareError,
    SamplingExhaustedError,
    SelfLoopError,
)
from .kernels import StackedSummaries

ENUMERATION_BIT_CAP = 24
SAMPLING_ATTEMPTS = 1000
EXTRA_EDGE_PROB = 0.5


def _as_binary_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise NonSquareError(f"{name} must be a 2-d matrix, got shape {arr.shape}")
    if not ((arr == 0) | (arr == 1)).all():
        raise NonSquareError(f"{name} must contain only 0/1 entries")
    return arr.astype(np.int8)


@dataclass(frozen=True, eq=False)
class AttributedGraph:
    """A connected graph plus a binary node-feature matrix.

    ``adjacency`` is n x n with zero diagonal (no self-loops; the diagonal is
    reserved for the node-existence device inside the optimization model).
    ``features`` is n x M with the first ``num_labels`` columns one-hot.
    """

    adjacency: np.ndarray
    features: np.ndarray
    directed: bool
    num_labels: int

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @cached_property
    def labels(self) -> np.ndarray:
        """Per-node label index, from the one-hot block."""
        return np.argmax(self.features[:, : self.num_labels], axis=1)

    @cached_property
    def summary(self) -> "ShortestPathSummary":
        return summarize(self)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list; unordered pairs (u < v) for undirected graphs."""
        if self.directed:
            us, vs = np.nonzero(self.adjacency)
            return list(zip(us.tolist(), vs.tolist()))
        us, vs = np.nonzero(np.triu(self.adjacency))
        return list(zip(us.tolist(), vs.tolist()))

    def key(self) -> tuple:
        """Hashable identity: structure plus features plus scheme."""
        return (
            self.n,
            self.directed,
            self.num_labels,
            self.adjacency.tobytes(),
            self.features.tobytes(),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttributedGraph):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def to_dict(self) -> dict:
        return {
            "directed": self.directed,
            "n": self.n,
            "edges": [[int(u), int(v)] for u, v in self.edges()],
            "features": self.features.astype(int).tolist(),
            "num_labels": self.num_labels,
        }

    @staticmethod
    def from_dict(obj: dict) -> "AttributedGraph":
        n = int(obj["n"])
        directed = bool(obj["directed"])
        adjacency = np.zeros((n, n), dtype=np.int8)
        for edge in obj["edges"]:
            if not (isinstance(edge, (list, tuple)) and len(edge) == 2 and all(
                    isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n
                    for x in edge)):
                raise ValueError(f"edge {edge!r} is not a pair of node indices in [0, {n})")
            u, v = edge
            adjacency[u, v] = 1
            if not directed:
                adjacency[v, u] = 1
        return build_graph(
            adjacency,
            np.asarray(obj["features"]),
            directed=directed,
            num_labels=int(obj["num_labels"]),
        )


@dataclass(frozen=True, eq=False)
class ShortestPathSummary:
    """Shortest-path statistics of a connected graph.

    ``dist[u, v]`` is the shortest distance, ``length_counts[s]`` counts
    ordered pairs at distance s, ``labeled_counts[s, l1, l2]`` splits them by
    endpoint labels, and ``feature_sums[m]`` is the m-th feature column sum.
    """

    dist: np.ndarray
    length_counts: np.ndarray
    labeled_counts: np.ndarray
    feature_sums: np.ndarray

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def num_labels(self) -> int:
        return self.labeled_counts.shape[1]


def build_graph(adjacency, features, directed: bool = False,
                num_labels: int | None = None) -> AttributedGraph:
    """Validate raw matrices and return an immutable attributed graph.

    Raises NonSquareError, SelfLoopError, AsymmetricUndirectedError,
    BadOneHotError, or DisconnectedError on invalid input.
    """
    adjacency = _as_binary_matrix(adjacency, "adjacency")
    n = adjacency.shape[0]
    if adjacency.shape != (n, n) or n == 0:
        raise NonSquareError(f"adjacency must be square and nonempty, got {adjacency.shape}")
    if np.any(np.diag(adjacency)):
        raise SelfLoopError("adjacency has a nonzero diagonal entry")
    if not directed and not np.array_equal(adjacency, adjacency.T):
        raise AsymmetricUndirectedError("undirected adjacency must be symmetric")

    features = _as_binary_matrix(features, "features")
    if features.shape[0] != n:
        raise BadOneHotError(
            f"features must have one row per node: {features.shape[0]} != {n}")
    num_labels = features.shape[1] if num_labels is None else int(num_labels)
    if not 1 <= num_labels <= features.shape[1]:
        raise BadOneHotError(
            f"num_labels must lie in [1, {features.shape[1]}], got {num_labels}")
    if np.any(features[:, :num_labels].sum(axis=1) != 1):
        raise BadOneHotError("each node's first num_labels columns must sum to 1")

    if not is_connected(adjacency, directed):
        raise DisconnectedError("graph must be connected (strongly, if directed)")

    adjacency = adjacency.copy()
    features = features.copy()
    adjacency.setflags(write=False)
    features.setflags(write=False)
    return AttributedGraph(adjacency, features, bool(directed), num_labels)


def _all_pairs_distances(adjacency: np.ndarray) -> np.ndarray:
    """Floyd-Warshall distances; unreachable pairs are +inf. Leading axes of
    ``adjacency`` index independent graphs of the same size."""
    n = adjacency.shape[-1]
    dist = np.where(adjacency > 0, 1.0, np.inf)
    dist[..., np.arange(n), np.arange(n)] = 0.0
    for w in range(n):
        np.minimum(dist, dist[..., :, w : w + 1] + dist[..., w : w + 1, :], out=dist)
    return dist


def is_connected(adjacency, directed: bool) -> bool:
    """True iff every ordered node pair is joined by a path.

    Accepts a raw 0/1 adjacency matrix, so it can vet candidate structures
    before graph construction.
    """
    adjacency = np.asarray(adjacency)
    n = adjacency.shape[0]
    if n == 1:
        return True
    reach_fwd = _reachable_from(adjacency, 0)
    if not reach_fwd.all():
        return False
    if not directed:
        return True
    return _reachable_from(adjacency.T, 0).all()


def _reachable_from(adjacency: np.ndarray, source: int) -> np.ndarray:
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(adjacency[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    nxt.append(int(v))
        frontier = nxt
    return seen


def _distances(graph: AttributedGraph) -> np.ndarray:
    dist = _all_pairs_distances(graph.adjacency)
    if not np.isfinite(dist).all():
        raise DisconnectedError("graph must be connected")
    return dist.astype(np.int64)


def on_path_indicators(dist: np.ndarray) -> np.ndarray:
    """``on_path[u, v, w] = 1`` iff d(u, w) + d(w, v) = d(u, v); on the
    diagonal this leaves exactly ``on_path[v, v, v] = 1``."""
    return (dist[:, None, :] + dist.T[None, :, :] == dist[:, :, None]).astype(np.int8)


def floyd_warshall(graph: AttributedGraph) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs shortest distances and the on-path indicator tensor."""
    dist = _distances(graph)
    return dist, on_path_indicators(dist)


def summarize(graph: AttributedGraph) -> ShortestPathSummary:
    """Shortest-path statistics used by every kernel."""
    dist = _distances(graph)
    n = graph.n
    length_counts = np.bincount(dist.ravel(), minlength=n)[:n]
    labels = graph.labels
    L = graph.num_labels
    labeled_counts = np.zeros((n, L, L), dtype=np.int64)
    lab_u = np.repeat(labels, n)
    lab_v = np.tile(labels, n)
    np.add.at(labeled_counts, (dist.ravel(), lab_u, lab_v), 1)
    feature_sums = graph.features.sum(axis=0).astype(np.int64)
    return ShortestPathSummary(dist, length_counts.astype(np.int64),
                               labeled_counts, feature_sums)


# ---------------------------------------------------------------------------
# search domains


def _index(value) -> int:
    """A user-row index as an int; a fractional one raises ValueError
    rather than landing on the entry it truncates to."""
    index = int(value)
    if index != value:
        raise ValueError(f"user row index {value!r} is not an integer")
    return index


@dataclass(frozen=True)
class LinearRow:
    """A user-supplied linear constraint over adjacency/feature bits.

    Coefficient triples are (u, v, coef) over adjacency entries and
    (v, m, coef) over feature entries; indices refer to the size-n grid of
    the domain and contribute zero for nodes absent from a smaller graph.
    """

    adjacency: tuple[tuple[int, int, float], ...] = ()
    features: tuple[tuple[int, int, float], ...] = ()
    sense: str = "<="
    rhs: float = 0.0

    def __post_init__(self):
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown sense {self.sense!r}")
        object.__setattr__(self, "adjacency",
                           tuple((_index(u), _index(v), float(c)) for u, v, c in self.adjacency))
        object.__setattr__(self, "features",
                           tuple((_index(v), _index(m), float(c)) for v, m, c in self.features))

    def holds(self, value: float, tol: float = 1e-9) -> bool:
        if self.sense == "<=":
            return value <= self.rhs + tol
        if self.sense == ">=":
            return value >= self.rhs - tol
        return abs(value - self.rhs) <= tol


@dataclass(frozen=True)
class DomainSpec:
    """Search domain: graph size (fixed or bounded), label/feature scheme,
    and optional structural constraints.

    ``degree_caps[l]`` caps the (in-)degree of nodes with label l.
    ``label_count_bounds[l]`` bounds how many nodes carry label l.
    ``extra_rows`` may name only off-diagonal adjacency pairs and feature
    entries of the size-n grid (the diagonal is the optimization model's
    node-existence bit); other entries raise InvalidSizeBoundsError.
    """

    n: int
    n_min: int | None = None
    directed: bool = False
    num_labels: int = 1
    num_features: int | None = None
    degree_caps: tuple[int, ...] | None = None
    label_count_bounds: tuple[tuple[int, int], ...] | None = None
    extra_rows: tuple[LinearRow, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        n_min = self.n if self.n_min is None else int(self.n_min)
        object.__setattr__(self, "n_min", n_min)
        if not 1 <= n_min <= self.n:
            raise InvalidSizeBoundsError(f"need 1 <= n_min <= n, got [{n_min}, {self.n}]")
        m = self.num_labels if self.num_features is None else int(self.num_features)
        object.__setattr__(self, "num_features", m)
        if not 1 <= self.num_labels <= m:
            raise InvalidSizeBoundsError(
                f"need 1 <= num_labels <= num_features, got {self.num_labels} > {m}")
        if self.degree_caps is not None:
            caps = tuple(int(c) for c in self.degree_caps)
            if len(caps) != self.num_labels or any(c < 0 for c in caps):
                raise InvalidSizeBoundsError("degree_caps must be one nonnegative cap per label")
            object.__setattr__(self, "degree_caps", caps)
        if self.label_count_bounds is not None:
            bounds = tuple((int(lo), int(hi)) for lo, hi in self.label_count_bounds)
            if len(bounds) != self.num_labels:
                raise InvalidSizeBoundsError("label_count_bounds must cover every label")
            object.__setattr__(self, "label_count_bounds", bounds)
        object.__setattr__(self, "extra_rows", tuple(self.extra_rows))
        for row in self.extra_rows:
            for u, v, _ in row.adjacency:
                if not (0 <= u < self.n and 0 <= v < self.n and u != v):
                    raise InvalidSizeBoundsError(
                        f"user row names adjacency pair ({u}, {v}), outside the "
                        f"off-diagonal pairs of {self.n} nodes")
            for v, f, _ in row.features:
                if not (0 <= v < self.n and 0 <= f < m):
                    raise InvalidSizeBoundsError(
                        f"user row names feature entry ({v}, {f}), outside "
                        f"{self.n} nodes x {m} features")

    @property
    def fixed_size(self) -> bool:
        return self.n_min == self.n

    @property
    def sizes(self) -> range:
        return range(self.n_min, self.n + 1)

    def to_dict(self) -> dict:
        out: dict = {
            "n": self.n,
            "directed": self.directed,
            "num_labels": self.num_labels,
            "num_features": self.num_features,
        }
        if not self.fixed_size:
            out["n_min"] = self.n_min
        if self.degree_caps is not None:
            out["degree_caps"] = list(self.degree_caps)
        if self.label_count_bounds is not None:
            out["label_count_bounds"] = [list(b) for b in self.label_count_bounds]
        if self.extra_rows:
            out["extra_rows"] = [
                {
                    "adjacency": [list(t) for t in row.adjacency],
                    "features": [list(t) for t in row.features],
                    "sense": row.sense,
                    "rhs": row.rhs,
                }
                for row in self.extra_rows
            ]
        return out

    @staticmethod
    def from_dict(obj: dict) -> "DomainSpec":
        known = {"n", "n_min", "directed", "num_labels", "num_features",
                 "degree_caps", "label_count_bounds", "extra_rows"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown domain keys: {sorted(unknown)}")
        n = obj["n"]
        n_min = obj.get("n_min")
        if isinstance(n, (list, tuple)):
            n_min, n = n
        rows = tuple(
            LinearRow(
                adjacency=tuple(tuple(t) for t in r.get("adjacency", ())),
                features=tuple(tuple(t) for t in r.get("features", ())),
                sense=r.get("sense", "<="),
                rhs=float(r.get("rhs", 0.0)),
            )
            for r in obj.get("extra_rows", ())
        )
        caps = obj.get("degree_caps")
        bounds = obj.get("label_count_bounds")
        return DomainSpec(
            n=n,
            n_min=n_min,
            directed=bool(obj.get("directed", False)),
            num_labels=int(obj.get("num_labels", 1)),
            num_features=obj.get("num_features"),
            degree_caps=None if caps is None else tuple(caps),
            label_count_bounds=None if bounds is None else tuple(tuple(b) for b in bounds),
            extra_rows=rows,
        )


def row_value(row: LinearRow, adjacency: np.ndarray, features: np.ndarray):
    """Evaluate a user row on (possibly smaller-than-grid) realized matrices.

    ``features`` may carry leading batch axes (one feature matrix per
    labeling of the same structure); the value then has those axes too.
    """
    n, m = features.shape[-2:]
    total = 0.0
    for u, v, c in row.adjacency:
        if u < n and v < n:
            total += c * float(adjacency[u, v])
    for v, f, c in row.features:
        if v < n and f < m:
            total = total + c * features[..., v, f].astype(float)
    return total


def domain_feasible(domain: DomainSpec, graph: AttributedGraph) -> bool:
    """True iff the graph satisfies every domain constraint."""
    if graph.directed != domain.directed:
        return False
    if not domain.n_min <= graph.n <= domain.n:
        return False
    if graph.num_labels != domain.num_labels or graph.num_features != domain.num_features:
        return False
    if domain.degree_caps is not None:
        in_degree = graph.adjacency.sum(axis=0)
        caps = np.asarray(domain.degree_caps)[graph.labels]
        if np.any(in_degree > caps):
            return False
    if domain.label_count_bounds is not None:
        counts = graph.features[:, : domain.num_labels].sum(axis=0)
        for label, (lo, hi) in enumerate(domain.label_count_bounds):
            if not lo <= counts[label] <= hi:
                return False
    for row in domain.extra_rows:
        if not row.holds(row_value(row, graph.adjacency, graph.features)):
            return False
    return True


# ---------------------------------------------------------------------------
# exhaustive enumeration (the brute-force oracle)


def adjacency_pairs(n: int, directed: bool) -> list[tuple[int, int]]:
    """The free adjacency bits of n nodes in row-major order, u < v when
    undirected: the order in which enumeration and the bijection count
    range over them."""
    return [(u, v) for u in range(n) for v in range(n)
            if u != v and (directed or u < v)]


def domain_bit_count(domain: DomainSpec) -> int:
    """Structural bits of the largest size: adjacency + label + extra features."""
    n = domain.n
    adj_bits = len(adjacency_pairs(n, domain.directed))
    label_bits = n * math.ceil(math.log2(domain.num_labels)) if domain.num_labels > 1 else 0
    extra_bits = n * (domain.num_features - domain.num_labels)
    return adj_bits + label_bits + extra_bits


def _feature_rows(domain: DomainSpec) -> list[tuple[int, ...]]:
    """All admissible per-node feature rows, sorted as bit tuples."""
    L, M = domain.num_labels, domain.num_features
    rows = []
    for label in range(L):
        onehot = [0] * L
        onehot[label] = 1
        for extra in itertools.product((0, 1), repeat=M - L):
            rows.append(tuple(onehot) + extra)
    return sorted(rows)


def _check_bit_cap(domain: DomainSpec) -> None:
    bits = domain_bit_count(domain)
    if bits > ENUMERATION_BIT_CAP:
        raise DomainTooLargeError(
            f"domain needs {bits} structural bits, cap is {ENUMERATION_BIT_CAP}")


def enumerate_domain(domain: DomainSpec) -> Iterator[AttributedGraph]:
    """Yield every connected graph in the domain exactly once.

    Sizes ascend; within a size the order is lexicographic over the flattened
    adjacency bits and then the flattened feature bits.
    """
    _check_bit_cap(domain)
    feature_rows = _feature_rows(domain)
    for n in domain.sizes:
        pairs = adjacency_pairs(n, domain.directed)
        for adj_bits in itertools.product((0, 1), repeat=len(pairs)):
            adjacency = np.zeros((n, n), dtype=np.int8)
            for (u, v), bit in zip(pairs, adj_bits):
                adjacency[u, v] = bit
                if not domain.directed:
                    adjacency[v, u] = bit
            if not is_connected(adjacency, domain.directed):
                continue
            for rows in itertools.product(feature_rows, repeat=n):
                features = np.array(rows, dtype=np.int8)
                graph = build_graph(adjacency, features, domain.directed,
                                    domain.num_labels)
                if domain_feasible(domain, graph):
                    yield graph


# ---------------------------------------------------------------------------
# profile tables: the domain reduced to its distinct kernel profiles

BLOCK = 4096  # rows per vectorized block, which bounds the build's memory


@dataclass(frozen=True)
class ProfileTable:
    """One row per distinct feasible kernel profile of a domain.

    A graph's kernel profile is its size, its labeled shortest-path counts
    (which determine its length counts) and its feature sums. Every kernel
    reads a graph only through this profile, so graphs that share it share
    their GP posterior. Row i of ``profiles`` belongs to ``graph(i)``, the
    first graph in ``enumerate_domain`` order with that profile, and the rows
    ascend in that order. ``adjacency`` (rows, n, n) and ``features``
    (rows, n, M) hold those graphs, zero-padded beyond each row's size.
    ``complete`` is False when the build stopped early; the rows are then
    those of the structures built so far.
    """

    domain: DomainSpec
    profiles: StackedSummaries
    adjacency: np.ndarray
    features: np.ndarray
    complete: bool

    def __len__(self) -> int:
        return len(self.profiles.sizes)

    def graph(self, row: int) -> AttributedGraph:
        size = int(self.profiles.sizes[row])
        return build_graph(self.adjacency[row, :size, :size],
                           self.features[row, :size], self.domain.directed,
                           self.domain.num_labels)


def _code_blocks(total: int) -> Iterator[np.ndarray]:
    """0, 1, ..., total - 1 in blocks of at most BLOCK."""
    for lo in range(0, total, BLOCK):
        yield np.arange(lo, min(lo + BLOCK, total))


def _code_adjacency(codes: np.ndarray, n: int, directed: bool) -> np.ndarray:
    """Adjacency matrices (b, n, n) of adjacency codes: the
    ``adjacency_pairs`` bits with the first pair the most significant, as
    ``itertools.product`` orders them in ``enumerate_domain``."""
    pairs = adjacency_pairs(n, directed)
    us, vs = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    shifts = np.arange(len(pairs) - 1, -1, -1)
    bits = ((codes[:, None] >> shifts) & 1).astype(np.int8)
    adjacency = np.zeros((len(codes), n, n), dtype=np.int8)
    adjacency[:, us, vs] = bits
    if not directed:
        adjacency[:, vs, us] = bits
    return adjacency


def _connected_structures(n: int, directed: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(adjacency, distances) stacks of the connected n-node structures, one
    per block of BLOCK adjacency codes, in ``enumerate_domain`` order; a
    block with none yields an empty stack. Floyd-Warshall runs on a block at
    once; a pattern is connected iff all its distances are finite.
    """
    for codes in _code_blocks(1 << len(adjacency_pairs(n, directed))):
        adjacency = _code_adjacency(codes, n, directed)
        dist = _all_pairs_distances(adjacency)
        connected = np.isfinite(dist).all(axis=(1, 2))
        yield adjacency[connected], dist[connected].astype(np.int64)


def _group_starts(groups: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``groups`` begins."""
    return np.flatnonzero(np.diff(groups, prepend=-1))


def _smallest_numberings(adjacency: np.ndarray, features: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The numberings of smallest ``graph_sort_key`` of each graph in a stack
    (b, n, n) with features (b, n, M), up to swapping twins: (graph, order),
    graphs ascending; row p renumbers node p[i] as i.

    A canonical search (McKay & Piperno, J. Symb. Comput. 60, 2014). A
    node's signature is its bits from the placed nodes, the first placed
    most significant. Position k takes a node of least signature (a swap out
    of that order lowers the first row where the two differ) and, if
    directed, of least bits to the placed nodes; those lead row k, and the
    low bits of the sorted remaining signatures end it. A graph's states
    share the earlier rows, so those with the smallest row k go on.
    Symmetric stacks skip the bits to the placed nodes and the forced last
    position. Of two twin candidates (swapping them is an automorphism)
    only the one of smaller (feature row, index) goes on. n <= 62.
    """
    b, n = adjacency.shape[:2]
    directed = not np.array_equal(adjacency, adjacency.swapaxes(1, 2))
    rank = np.argsort(np.lexsort(np.moveaxis(features, -1, 0)[::-1], axis=-1), axis=-1)
    placed = 1 << 62  # the signature of a placed node: above the rest, low bit 0
    found = []
    chunk = 128  # graphs searched at once, which bounds the temporaries
    for lo in range(0, b, chunk):
        adj, r = adjacency[lo: lo + chunk].astype(np.int64), rank[lo: lo + chunk]
        # twin[g, x, y]: y ranks lower and swapping x, y is an automorphism
        twin = (adj == adj.swapaxes(1, 2)) & (r[:, None, :] < r[:, :, None])
        for a in (adj, adj.swapaxes(1, 2)):
            twin &= (a[:, :, None] == a[:, None]).sum(axis=3) == n - 2 * adj
        graph = np.arange(len(adj))  # ascends: each graph's states are adjacent
        order = np.zeros((len(adj), 0), dtype=np.intp)
        sig = into = np.zeros((len(adj), n), dtype=np.int64)  # into: bits to the placed nodes
        for width in range(n - 1, -1 if directed else 0, -1):  # n - 1 - k: row k's later bits
            candidate = sig == sig.min(axis=1, keepdims=True)
            if directed:
                lead = np.where(candidate, into, placed)
                candidate = lead == lead.min(axis=1, keepdims=True)
            candidate &= ~(candidate[:, None, :] & twin[graph]).any(axis=2)
            state, node = np.nonzero(candidate)
            graph, order = graph[state], np.column_stack([order[state], node])
            sig = np.where(sig[state] == placed, placed, sig[state] << 1 | adj[graph, node])
            sig[np.arange(len(node)), node] = placed
            code = (np.sort(sig, axis=1)[:, :width] & 1) @ (1 << np.arange(width - 1, -1, -1))
            if directed:
                code |= into[state, node] << width
            keep = code == np.minimum.reduceat(code, _group_starts(graph))[graph]
            state, graph, order, sig = state[keep], graph[keep], order[keep], sig[keep]
            if directed:
                into = into[state] << 1 | adj[graph, :, order[:, -1]]
        if not directed:
            order = np.column_stack([order, sig.argmin(axis=1)])
        found.append((lo + graph, order))
    return tuple(map(np.concatenate, zip(*found)))


# The largest size whose class table is built: 261,080 classes of 9 nodes
# take 21 MB, those of 10 nodes would take 1.2 GB. Larger sizes walk.
CLASS_TABLE_MAX_NODES = 9
_class_tables: dict[int, np.ndarray] = {1: np.zeros((1, 1, 1), dtype=np.int8)}


def _class_steps(n: int) -> Iterator[None]:
    """Build the class tables of up to n nodes, yielding after each block of
    at most BLOCK candidates so that a caller can stop between blocks; only
    complete tables enter ``_class_tables``.

    A table holds one read-only adjacency (classes, size, size) per
    isomorphism class of connected undirected graphs: its smallest
    numbering under ``graph_sort_key``, classes in ascending order. Classes
    are generated by vertex augmentation (McKay, J. Algorithms 26, 1998):
    each (size - 1)-class gets one new node joined to every nonempty subset
    of its nodes, and the candidates are deduplicated in their smallest
    numbering (``_smallest_numberings``). Removing a leaf of a spanning tree
    leaves a connected graph, so every class is reached.
    """
    for size in range(2, n + 1):
        if size in _class_tables:
            continue
        parents = _class_tables[size - 1]
        subsets = (np.arange(1, 1 << (size - 1))[:, None] >> np.arange(size - 1)) & 1
        step = max(1, BLOCK // len(subsets))
        rows: set[bytes] = set()
        for lo in range(0, len(parents), step):
            block = parents[lo: lo + step]
            candidates = np.zeros((len(block), len(subsets), size, size), dtype=np.int8)
            candidates[:, :, :-1, :-1] = block[:, None]
            candidates[:, :, -1, :-1] = subsets
            candidates[:, :, :-1, -1] = subsets
            candidates = candidates.reshape(-1, size, size)
            graph, order = _smallest_numberings(candidates, np.zeros_like(candidates[:, :, :1]))
            smallest = candidates[graph[:, None, None], order[:, :, None], order[:, None, :]]
            rows.update(matrix.tobytes() for matrix in smallest)
            yield
        # the byte order of 0/1 matrices is their lexicographic order
        classes = np.frombuffer(b"".join(sorted(rows)), dtype=np.int8).reshape(-1, size, size)
        classes.setflags(write=False)
        _class_tables[size] = classes


def _connected_classes(n: int) -> np.ndarray:
    """The class table of n nodes (``_class_steps``), built if need be."""
    for _ in _class_steps(n):
        pass
    return _class_tables[n]


def _walks(domain: DomainSpec, size: int) -> bool:
    """``_structures`` walks every connected structure of ``size`` instead
    of reading one per class: on directed domains (removing a node can break
    strong connectivity, which vertex augmentation relies on), with user
    rows (they name nodes) and above CLASS_TABLE_MAX_NODES."""
    return domain.directed or bool(domain.extra_rows) or size > CLASS_TABLE_MAX_NODES


def _structures(domain: DomainSpec, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(adjacency, distances) stacks of the structures whose labelings give
    every feasible profile of ``size`` nodes, in ``enumerate_domain`` order.

    Profiles and feasibility do not depend on the numbering unless user
    rows name nodes, and the first graph with a profile is then a class's
    smallest numbering; so undirected domains without ``extra_rows`` read
    one structure per isomorphism class, unless ``walks``. Every block
    yields, empty ones included (a walked block with no connected
    structure, a step of a class-table build), so a caller can poll a
    budget between blocks.
    """
    if _walks(domain, size):
        yield from _connected_structures(size, domain.directed)
        return
    empty = np.zeros((0, size, size), dtype=np.int8)
    for _ in _class_steps(size):
        yield empty, empty.astype(np.int64)
    classes = _class_tables[size]
    for lo in range(0, len(classes), BLOCK):
        block = classes[lo: lo + BLOCK]
        yield block, _all_pairs_distances(block).astype(np.int64)


@functools.lru_cache(maxsize=None)
def _labeling_digits(n: int, num_labels: int, num_features: int
                     ) -> tuple[tuple[int, ...], np.ndarray]:
    """The radices of the leading digits and every combination (inner, k)
    of the trailing k digits, which fit in one block (see ``_labelings``)."""
    radices = ([num_labels] + [2] * (num_features - num_labels)) * n
    split, inner = len(radices), 1
    while split and inner * radices[split - 1] <= BLOCK:
        split -= 1
        inner *= radices[split]
    tail = radices[split:]
    # the place value of each trailing digit: the product of the radices after it
    places = np.cumprod([1] + tail[:0:-1])[::-1]
    digits = np.arange(inner)[:, None] // places % np.array(tail, dtype=np.int64)
    digits.setflags(write=False)
    return tuple(radices[:split]), digits


def _decode_labelings(n: int, num_labels: int, num_features: int,
                      head: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Labels and feature rows of the block of labelings whose leading
    digits are ``head``, read-only so that a cached block stays intact."""
    L, M = num_labels, num_features
    tail = _labeling_digits(n, L, M)[1]
    digits = np.concatenate(
        [np.broadcast_to(np.array(head, dtype=np.int64), (len(tail), len(head))),
         tail], axis=1).reshape(len(tail), n, M - L + 1)
    labels = L - 1 - digits[:, :, 0]
    features = np.concatenate([labels[:, :, None] == np.arange(L),
                               digits[:, :, 1:]], axis=2).astype(np.int8)
    labels.setflags(write=False)
    features.setflags(write=False)
    return labels, features


_single_block = functools.lru_cache(maxsize=None)(_decode_labelings)


def _labelings(n: int, num_labels: int, num_features: int
               ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Labels (b, n) and feature rows (b, n, M) of every labeling of n
    nodes, in blocks of at most BLOCK and in ``enumerate_domain`` order.

    A labeling is a string of digits, node 0 first: per node its label
    counted down from L - 1 (read as bits, the one-hot block ascends that
    way), then its extra feature bits. The trailing digits whose
    combinations fit in one block vary within it; the leading ones are
    counted out one block at a time, so no labeling is numbered by a single
    integer, which would overflow on wide feature schemes. Only the block
    of a scheme whose labelings fit in one block is kept across calls.
    """
    head_radices = _labeling_digits(n, num_labels, num_features)[0]
    if not head_radices:
        yield _single_block(n, num_labels, num_features, ())
        return
    for head in itertools.product(*map(range, head_radices)):
        yield _decode_labelings(n, num_labels, num_features, head)


def _feasible_labelings(domain: DomainSpec, adjacency: np.ndarray,
                        labels: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Mask over a block of labelings of one structure: degree caps,
    label-count bounds and user rows, as ``domain_feasible`` checks them."""
    ok = np.ones(len(labels), dtype=bool)
    if domain.degree_caps is not None:
        caps = np.asarray(domain.degree_caps)[labels]
        ok &= (adjacency.sum(axis=0) <= caps).all(axis=1)
    if domain.label_count_bounds is not None:
        lo, hi = np.asarray(domain.label_count_bounds).T
        counts = features[:, :, : domain.num_labels].sum(axis=1)
        ok &= ((lo <= counts) & (counts <= hi)).all(axis=1)
    for row in domain.extra_rows:
        ok &= row.holds(row_value(row, adjacency, features))
    return ok


def _labeled_counts(dist: np.ndarray, labels: np.ndarray, num_labels: int) -> np.ndarray:
    """Flattened ``labeled_counts`` (b, n * L * L) of one structure under each
    of b labelings (b, n): one bincount over (labeling, distance, label pair)."""
    b, n = labels.shape
    cells = n * num_labels * num_labels
    codes = ((dist * num_labels * num_labels)[None]
             + labels[:, :, None] * num_labels + labels[:, None, :]
             + np.arange(b)[:, None, None] * cells)
    return np.bincount(codes.ravel(), minlength=b * cells).reshape(b, cells)


def structure_profiles(domain: DomainSpec, adjacency: np.ndarray, dist: np.ndarray
                       ) -> Iterator[tuple[StackedSummaries, np.ndarray]]:
    """Kernel profiles and feature rows (b, n, M) of the feasible labelings
    of one connected structure, block by block in ``enumerate_domain`` order.

    ``dist`` is the structure's distance matrix. Each labeling passes degree
    caps, label-count bounds and user rows as ``domain_feasible`` checks
    them; every block of labelings yields one pair, empty when none of its
    labelings is feasible, so a caller can poll a budget between blocks.
    The profiles carry integer counts.
    """
    size, L = len(adjacency), domain.num_labels
    for labels, features in _labelings(size, L, domain.num_features):
        ok = _feasible_labelings(domain, adjacency, labels, features)
        if not ok.all():
            labels, features = labels[ok], features[ok]
        counts = _labeled_counts(dist, labels, L).reshape(len(labels), size, L, L)
        yield (StackedSummaries(np.full(len(labels), size), counts,
                                features.sum(axis=1)), features)


def profile_table(domain: DomainSpec,
                  out_of_time: Callable[[], bool] | None = None) -> ProfileTable:
    """The domain's distinct feasible kernel profiles, each with the first
    graph in ``enumerate_domain`` order that realizes it.

    Works per structure from ``_structures``: one isomorphism class of an
    undirected domain without ``extra_rows``, else every connected
    structure. Each structure's feasible labelings give their profiles
    through ``structure_profiles``. Profiles are deduplicated first within
    the structure and then across the domain, keyed by (size, counts,
    sums). ``out_of_time`` is polled before each structure and at each
    empty block (a walked block with no connected structure, a step of a
    class-table build); once it returns True the build stops and the table
    is marked incomplete. Raises DomainTooLargeError above the same
    bit cap as ``enumerate_domain``.
    """
    _check_bit_cap(domain)
    n, L, M = domain.n, domain.num_labels, domain.num_features
    seen: set[bytes] = set()
    keys: list[np.ndarray] = []  # [size, labeled counts..., feature sums...]
    adjacency: list[np.ndarray] = []
    features: list[np.ndarray] = []
    expired = out_of_time or (lambda: False)
    # None stands for an empty block, so a run of them is polled too
    stream = itertools.chain.from_iterable(
        zip(*block) if len(block[0]) else [None]
        for size in domain.sizes for block in _structures(domain, size))
    complete = True
    for item in stream:
        if expired():
            complete = False
            break
        if item is None:
            continue
        adj, dist = item
        for profiles, feats in structure_profiles(domain, adj, dist):
            if not len(feats):
                continue
            block = np.concatenate([
                profiles.sizes[:, None],
                profiles.labeled_counts.reshape(len(feats), -1),
                profiles.feature_sums], axis=1)
            raw = block.view(np.dtype((np.void, block.itemsize * block.shape[1])))
            first: dict[bytes, int] = {}
            for i, key in enumerate(raw.ravel().tolist()):
                first.setdefault(key, i)
            for key, i in first.items():
                if key not in seen:
                    seen.add(key)
                    keys.append(block[i])
                    adjacency.append(adj)
                    features.append(feats[i])

    rows = len(keys)
    sizes = np.array([int(key[0]) for key in keys], dtype=np.int64)
    labeled_pad = np.zeros((rows, n, L, L))
    sums = np.zeros((rows, M))
    adjacency_pad = np.zeros((rows, n, n), dtype=np.int8)
    features_pad = np.zeros((rows, n, M), dtype=np.int8)
    for i, (key, size) in enumerate(zip(keys, sizes)):
        labeled_pad[i, :size] = key[1:-M].reshape(size, L, L)
        sums[i] = key[-M:]
        adjacency_pad[i, :size, :size] = adjacency[i]
        features_pad[i, :size] = features[i]
    profiles = StackedSummaries(sizes, labeled_pad, sums)
    return ProfileTable(domain, profiles, adjacency_pad, features_pad, complete)


# ---------------------------------------------------------------------------
# feasible-graph sampling


def _prufer_tree_edges(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Uniform random labeled tree on n nodes (Prufer decoding)."""
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, int(x))
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def _sample_structure(n: int, directed: bool, rng: np.random.Generator) -> np.ndarray:
    """Random connected structure: random spanning tree (undirected) or a
    random Hamiltonian cycle (directed), plus independent extra edges."""
    adjacency = np.zeros((n, n), dtype=np.int8)
    if directed:
        if n >= 2:
            order = rng.permutation(n)
            for i in range(n):
                adjacency[order[i], order[(i + 1) % n]] = 1
        for u in range(n):
            for v in range(n):
                if u != v and adjacency[u, v] == 0 and rng.random() < EXTRA_EDGE_PROB:
                    adjacency[u, v] = 1
    else:
        for u, v in _prufer_tree_edges(n, rng):
            adjacency[u, v] = adjacency[v, u] = 1
        for u in range(n):
            for v in range(u + 1, n):
                if adjacency[u, v] == 0 and rng.random() < EXTRA_EDGE_PROB:
                    adjacency[u, v] = adjacency[v, u] = 1
    return adjacency


def _sample_one(domain: DomainSpec, rng: np.random.Generator) -> AttributedGraph:
    n = int(rng.integers(domain.n_min, domain.n + 1))
    adjacency = _sample_structure(n, domain.directed, rng)
    L, M = domain.num_labels, domain.num_features
    features = np.zeros((n, M), dtype=np.int8)
    labels = rng.integers(0, L, size=n)
    features[np.arange(n), labels] = 1
    if M > L:
        features[:, L:] = rng.integers(0, 2, size=(n, M - L))
    return build_graph(adjacency, features, domain.directed, L)


# ---------------------------------------------------------------------------
# sort keys


def graph_sort_key(graph: AttributedGraph) -> tuple:
    """Size-major, then flattened adjacency bits, then feature bits."""
    return matrices_sort_key(graph.adjacency, graph.features)


def matrices_sort_key(adjacency: np.ndarray, features: np.ndarray) -> tuple:
    """``graph_sort_key`` of the graph of these matrices, without building it."""
    return (len(adjacency), tuple(adjacency.ravel().tolist()),
            tuple(features.ravel().tolist()))


def sample_feasible(domain: DomainSpec, seed, attempts: int = SAMPLING_ATTEMPTS) -> AttributedGraph:
    """One random connected graph satisfying every domain constraint.

    Deterministic for a given seed (an int or a numpy Generator). Structures
    come from a spanning tree / Hamiltonian-cycle backbone with independent
    extra edges, so connectivity holds by construction; remaining domain
    constraints are enforced by rejection within the attempt budget.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    for _ in range(attempts):
        graph = _sample_one(domain, rng)
        if domain_feasible(domain, graph):
            return graph
    raise SamplingExhaustedError(
        f"no feasible sample found in {attempts} attempts")


# ---------------------------------------------------------------------------
# file formats


def write_graphs(path, graphs: Iterable[AttributedGraph],
                 ids: Sequence[str] | None = None) -> None:
    """One JSON object per line; optional ``id`` field per graph."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, graph in enumerate(graphs):
            obj = graph.to_dict()
            if ids is not None:
                obj["id"] = ids[i]
            fh.write(json.dumps(obj) + "\n")


def read_graphs(path) -> list[AttributedGraph]:
    graphs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                graphs.append(AttributedGraph.from_dict(json.loads(line)))
    return graphs


def write_dataset(path, data: Iterable[tuple[AttributedGraph, float]]) -> None:
    """JSON array of {graph, y} records."""
    payload = [{"graph": g.to_dict(), "y": float(y)} for g, y in data]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def read_dataset(path) -> tuple[list[AttributedGraph], np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    graphs = [AttributedGraph.from_dict(rec["graph"]) for rec in payload]
    y = np.array([float(rec["y"]) for rec in payload])
    return graphs, y
