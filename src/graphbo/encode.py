"""Mixed-integer encoding of the acquisition problem.

The structural core is a linear system over edge bits A, integer shortest
distances d, and on-path indicators delta whose feasible points correspond
one-to-one with connected graphs (of fixed or bounded size). Indicator
layers link distances to path counts, label-pair counts, and feature sums;
the acquisition objective mu - beta_sqrt * sigma is tied to those counts
through kernel variables, one convex quadratic variance row, and, for
exponential kernels, explicit exp links.

A ``ConstraintBlock`` keeps its rows in flat typed buffers, with no object
per row or coefficient; ``add_con`` appends one row and ``add_rows`` many
from entry arrays (the t kernel rows of the acquisition model in one call).
``constraints`` reads the rows as ``LinearConstraint`` views built on
access, and the exporter reads the buffers as arrays.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, islice
from operator import eq

import numpy as np

from .errors import (
    IncompatibleDomainError,
    InfeasibleDomainError,
    InvalidSizeBoundsError,
    UnfittedModelError,
)
from .gp import GpModel, posterior
from .graphs import AttributedGraph, DomainSpec, on_path_indicators
from .kernels import (
    StackedSummaries,
    _count_products,
    cross_gram,
    kernel_range,
    self_kernel_parts,
)

SizeSpec = int | tuple[int, int]


def _size_bounds(size_spec: SizeSpec) -> tuple[int, int]:
    if isinstance(size_spec, int):
        n_min = n_max = size_spec
    else:
        n_min, n_max = size_spec
    if not 1 <= n_min <= n_max:
        raise InvalidSizeBoundsError(f"need 1 <= n_min <= n, got [{n_min}, {n_max}]")
    return int(n_min), int(n_max)


@dataclass(frozen=True)
class MipVariable:
    """One decision variable with bounds and a semantic tag."""

    name: str
    kind: str  # "binary" | "integer" | "continuous"
    lb: float
    ub: float
    tag: str
    index: tuple[int, ...] = ()


@dataclass(frozen=True)
class LinearConstraint:
    """coeffs . x  (sense)  rhs, with coeffs keyed by variable id."""

    name: str
    coeffs: tuple[tuple[int, float], ...]
    sense: str  # "<=", ">=", "=="
    rhs: float


@dataclass(frozen=True)
class QuadConstraint:
    """sigma^2 + k' Q k - kxx <= 0."""

    name: str
    sigma: int
    kernel_vars: tuple[int, ...]
    q: np.ndarray
    kxx: int


@dataclass(frozen=True)
class ExpLink:
    """out = exp(arg); kept symbolic for the exact solver, expanded into
    piecewise-linear rows at export time."""

    name: str
    out: int
    arg: int


class _LazySequence(Sequence):
    """Read-only sequence whose items are built on access; its length
    builds nothing."""

    def __init__(self, length: int, item: Callable[[int], object]) -> None:
        self._length = length
        self._item = item

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in range(*i.indices(self._length))]
        if i < 0:
            i += self._length
        if not 0 <= i < self._length:
            raise IndexError(i)
        return self._item(i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None


class ConstraintBlock:
    """Mutable container for variables and linear rows.

    The rows live in flat typed buffers, with no object per row or
    coefficient: row ``i`` is named ``row_names[i]`` and holds the column
    ids ``cols[row_ends[i - 1]:row_ends[i]]`` (ascending, each once; the
    first row starts at 0) with the coefficients ``coefs`` at the same
    positions, its sense ``senses[i]`` and its right-hand side ``rhs[i]``.
    ``constraints`` is a read-only view that builds a ``LinearConstraint``
    per row on access.
    """

    def __init__(self) -> None:
        self.variables: list[MipVariable] = []
        self.index: dict[str, int] = {}
        self.row_names: list[str] = []
        self.senses: list[str] = []
        self.rhs = array("d")
        self.row_ends = array("q")
        self.cols = array("q")
        self.coefs = array("d")

    def add_var(self, name: str, kind: str, lb: float, ub: float,
                tag: str, index: tuple[int, ...] = ()) -> int:
        if name in self.index:
            raise ValueError(f"duplicate variable {name}")
        self.variables.append(MipVariable(name, kind, lb, ub, tag, index))
        vid = len(self.variables) - 1
        self.index[name] = vid
        return vid

    def add_con(self, name: str, coeffs: Mapping[int, float] | Sequence[tuple[int, float]],
                sense: str, rhs: float) -> None:
        """Append a row; repeated ids are summed and the ids sorted."""
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        merged: dict[int, float] = {}
        for vid, coef in items:
            merged[vid] = merged.get(vid, 0.0) + float(coef)
        ids = sorted(merged)
        self._extend([name], [sense], [float(rhs)], [len(ids)], ids,
                     map(merged.__getitem__, ids))

    def add_rows(self, names: Sequence[str], senses: Sequence[str], rhs,
                 rows: np.ndarray, cols: np.ndarray, coefs: np.ndarray) -> None:
        """Append the rows ``names`` at once: entry k puts ``coefs[k]`` on the
        variable ``cols[k]`` of the new row ``rows[k]`` (0 for ``names[0]``).
        As in ``add_con``, repeated ids of a row are summed in entry order and
        each row's ids are sorted."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        # bincount adds each entry in turn to 0.0, as add_con's merge does
        sums = np.bincount(np.cumsum(first) - 1,
                           weights=np.asarray(coefs, dtype=float)[order])
        self._extend(names, senses, np.asarray(rhs, dtype=float).tolist(),
                     np.bincount(rows[first], minlength=len(names)).tolist(),
                     array("q", cols[first].tobytes()), array("d", sums.tobytes()))

    def _extend(self, names, senses, rhs, lengths, cols, coefs) -> None:
        """Append rows whose ids (ascending and distinct within each row) and
        coefficients, row after row, are ``cols`` and ``coefs``; row k holds
        ``lengths[k]`` of them."""
        self.row_ends.extend(islice(accumulate(lengths, initial=len(self.cols)), 1, None))
        self.cols.extend(cols)
        self.coefs.extend(coefs)
        self.row_names.extend(names)
        self.senses.extend(senses)
        self.rhs.extend(rhs)

    @property
    def constraints(self) -> Sequence[LinearConstraint]:
        return _LazySequence(len(self.row_names), self._constraint)

    def _constraint(self, i: int) -> LinearConstraint:
        lo, hi = self.row_ends[i - 1] if i else 0, self.row_ends[i]
        return LinearConstraint(self.row_names[i],
                                tuple(zip(self.cols[lo:hi].tolist(),
                                          self.coefs[lo:hi].tolist())),
                                self.senses[i], self.rhs[i])

    def var_id(self, name: str) -> int:
        return self.index[name]


# ---------------------------------------------------------------------------
# structural blocks


def encode_shortest_paths(size_spec: SizeSpec, directed: bool,
                          block: ConstraintBlock | None = None) -> ConstraintBlock:
    """Edge/distance/on-path variables and the linear rows tying them.

    Fixed-size mode pins every diagonal edge bit to one; bounded mode uses
    the diagonal as node-existence indicators, extends the distance domain by
    one value meaning "no path", and adds the existence-linking rows.
    Undirected mode appends symmetry equalities.
    """
    n_min, n = _size_bounds(size_spec)
    fixed = n_min == n
    block = block if block is not None else ConstraintBlock()

    a = [[block.add_var(f"A_{u}_{v}", "binary", 0, 1, "A", (u, v))
          for v in range(n)] for u in range(n)]
    d_ub = n - 1 if fixed else n
    d = [[block.add_var(f"d_{u}_{v}", "integer", 0, d_ub, "d", (u, v))
          for v in range(n)] for u in range(n)]
    delta = [[[block.add_var(f"delta_{u}_{v}_{w}", "binary", 0, 1, "delta", (u, v, w))
               for w in range(n)] for v in range(n)] for u in range(n)]

    if fixed:
        for v in range(n):
            block.add_con(f"fix_Adiag_{v}", {a[v][v]: 1.0}, "==", 1.0)
    else:
        for v in range(n - 1):
            block.add_con(f"node_order_{v}", {a[v][v]: 1.0, a[v + 1][v + 1]: -1.0},
                          ">=", 0.0)
        block.add_con("node_count_min", {a[v][v]: 1.0 for v in range(n)}, ">=",
                      float(n_min))
        for u in range(n):
            for v in range(n):
                if u != v:
                    block.add_con(f"edge_nodes_{u}_{v}",
                                  {a[u][v]: 2.0, a[u][u]: -1.0, a[v][v]: -1.0},
                                  "<=", 0.0)

    for v in range(n):
        block.add_con(f"fix_ddiag_{v}", {d[v][v]: 1.0}, "==", 0.0)

    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            # d <= 1 + n (1 - A) and d >= 2 - A
            block.add_con(f"dist_edge_ub_{u}_{v}", {d[u][v]: 1.0, a[u][v]: float(n)},
                          "<=", 1.0 + n)
            block.add_con(f"dist_edge_lb_{u}_{v}", {d[u][v]: 1.0, a[u][v]: 1.0},
                          ">=", 2.0)
            if not fixed:
                # d >= n (1 - A_uu) and d >= n (1 - A_vv)
                block.add_con(f"dist_inf_src_{u}_{v}",
                              {d[u][v]: 1.0, a[u][u]: float(n)}, ">=", float(n))
                block.add_con(f"dist_inf_dst_{u}_{v}",
                              {d[u][v]: 1.0, a[v][v]: float(n)}, ">=", float(n))

    big_m = 2.0 * n
    for u in range(n):
        for v in range(n):
            for w in range(n):
                # d_uv <= d_uw + d_wv - (1 - delta) ; d_uv >= d_uw + d_wv - 2n (1 - delta)
                block.add_con(f"tri_ub_{u}_{v}_{w}",
                              [(d[u][v], 1.0), (d[u][w], -1.0), (d[w][v], -1.0),
                               (delta[u][v][w], -1.0)], "<=", -1.0)
                block.add_con(f"tri_lb_{u}_{v}_{w}",
                              [(d[u][v], 1.0), (d[u][w], -1.0), (d[w][v], -1.0),
                               (delta[u][v][w], -big_m)], ">=", -big_m)

    for v in range(n):
        for w in range(n):
            block.add_con(f"fix_delta_diag_{v}_{w}", {delta[v][v][w]: 1.0}, "==",
                          1.0 if w == v else 0.0)
    for u in range(n):
        for v in range(n):
            if u != v:
                block.add_con(f"fix_delta_src_{u}_{v}", {delta[u][v][u]: 1.0}, "==", 1.0)
                block.add_con(f"fix_delta_dst_{u}_{v}", {delta[u][v][v]: 1.0}, "==", 1.0)

    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            row = {delta[u][v][w]: 1.0 for w in range(n)}
            up = dict(row)
            up[a[u][v]] = up.get(a[u][v], 0.0) + float(n - 2)
            block.add_con(f"pathsum_ub_{u}_{v}", up, "<=", float(n))
            if fixed:
                lo = dict(row)
                lo[a[u][v]] = lo.get(a[u][v], 0.0) + 1.0
                block.add_con(f"pathsum_lb_{u}_{v}", lo, ">=", 3.0)
            else:
                up_u = dict(row)
                up_u[a[u][u]] = up_u.get(a[u][u], 0.0) - float(n - 2)
                block.add_con(f"pathsum_ub_src_{u}_{v}", up_u, "<=", 2.0)
                up_v = dict(row)
                up_v[a[v][v]] = up_v.get(a[v][v], 0.0) - float(n - 2)
                block.add_con(f"pathsum_ub_dst_{u}_{v}", up_v, "<=", 2.0)
                lo = dict(row)
                lo[a[u][u]] = lo.get(a[u][u], 0.0) - 1.0
                lo[a[v][v]] = lo.get(a[v][v], 0.0) - 1.0
                lo[a[u][v]] = lo.get(a[u][v], 0.0) + 1.0
                block.add_con(f"pathsum_lb_{u}_{v}", lo, ">=", 1.0)

    if not directed:
        for u in range(n):
            for v in range(u + 1, n):
                block.add_con(f"sym_A_{u}_{v}", {a[u][v]: 1.0, a[v][u]: -1.0}, "==", 0.0)
                block.add_con(f"sym_d_{u}_{v}", {d[u][v]: 1.0, d[v][u]: -1.0}, "==", 0.0)
                for w in range(n):
                    block.add_con(f"sym_delta_{u}_{v}_{w}",
                                  {delta[u][v][w]: 1.0, delta[v][u][w]: -1.0}, "==", 0.0)
    return block


def encode_feature_block(domain: DomainSpec,
                         block: ConstraintBlock | None = None) -> ConstraintBlock:
    """Feature bits, per-node one-hot label rows, and feature-sum indicators.

    In bounded-size mode the label one-hot is tied to node existence and
    every feature bit of an absent node is forced to zero.
    """
    n, fixed = domain.n, domain.fixed_size
    L, M = domain.num_labels, domain.num_features
    block = block if block is not None else ConstraintBlock()

    f = [[block.add_var(f"F_{v}_{m}", "binary", 0, 1, "F", (v, m))
          for m in range(M)] for v in range(n)]
    for v in range(n):
        onehot = {f[v][l]: 1.0 for l in range(L)}
        if fixed:
            block.add_con(f"label_onehot_{v}", onehot, "==", 1.0)
        else:
            diag = block.var_id(f"A_{v}_{v}")
            onehot[diag] = onehot.get(diag, 0.0) - 1.0
            block.add_con(f"label_onehot_{v}", onehot, "==", 0.0)
            for m in range(L, M):
                block.add_con(f"feat_exists_{v}_{m}",
                              {f[v][m]: 1.0, diag: -1.0}, "<=", 0.0)

    for m in range(M):
        nv = block.add_var(f"N_{m}", "integer", 0, n, "N", (m,))
        row = {f[v][m]: 1.0 for v in range(n)}
        row[nv] = -1.0
        block.add_con(f"N_def_{m}", row, "==", 0.0)
        ncs = [block.add_var(f"Nc_{m}_{c}", "binary", 0, 1, "Nc", (m, c))
               for c in range(n + 1)]
        block.add_con(f"Nc_onehot_{m}", {vid: 1.0 for vid in ncs}, "==", 1.0)
        link = {vid: float(c) for c, vid in enumerate(ncs)}
        link[nv] = -1.0
        block.add_con(f"Nc_link_{m}", link, "==", 0.0)
    return block


def encode_path_indicators(size_spec: SizeSpec, L: int, block: ConstraintBlock,
                           directed: bool = True,
                           include_labels: bool = True) -> ConstraintBlock:
    """Distance indicators and the derived path-count layers.

    Emits per-pair distance one-hots (with the extra "no path" value), total
    path counts per length with their value one-hots, and, when labels are
    included, the label-pair path indicators with the standard three-way AND
    linearization. Undirected mode pins odd total-count indicators (for
    lengths >= 1) to zero and adds label-pair symmetry.
    """
    _, n = _size_bounds(size_spec)
    ds = np.empty((n, n, n + 1), dtype=np.int64)
    for u in range(n):
        for v in range(n):
            did = block.var_id(f"d_{u}_{v}")
            for s in range(n + 1):
                ds[u, v, s] = block.add_var(f"ds_{u}_{v}_{s}", "binary", 0, 1,
                                            "ds", (u, v, s))
            block.add_con(f"ds_onehot_{u}_{v}",
                          {int(ds[u, v, s]): 1.0 for s in range(n + 1)}, "==", 1.0)
            link = {int(ds[u, v, s]): float(s) for s in range(1, n + 1)}
            link[did] = -1.0
            block.add_con(f"ds_link_{u}_{v}", link, "==", 0.0)

    for s in range(n):
        dv = block.add_var(f"D_{s}", "integer", 0, n * n, "D", (s,))
        row = {int(ds[u, v, s]): 1.0 for u in range(n) for v in range(n)}
        row[dv] = -1.0
        block.add_con(f"D_def_{s}", row, "==", 0.0)
        dcs = [block.add_var(f"Dc_{s}_{c}", "binary", 0, 1, "Dc", (s, c))
               for c in range(n * n + 1)]
        block.add_con(f"Dc_onehot_{s}", {vid: 1.0 for vid in dcs}, "==", 1.0)
        link = {vid: float(c) for c, vid in enumerate(dcs)}
        link[dv] = -1.0
        block.add_con(f"Dc_link_{s}", link, "==", 0.0)
        if not directed and s >= 1:
            for c in range(1, n * n + 1, 2):
                block.add_con(f"Dc_odd_{s}_{c}", {dcs[c]: 1.0}, "==", 0.0)

    if not include_labels:
        return block

    for s in range(n):
        for l1 in range(L):
            for l2 in range(L):
                pv = block.add_var(f"P_{s}_{l1}_{l2}", "integer", 0, n * n,
                                   "P", (s, l1, l2))
                row: dict[int, float] = {pv: -1.0}
                for u in range(n):
                    for v in range(n):
                        pid = block.add_var(f"p_{u}_{v}_{s}_{l1}_{l2}", "binary",
                                            0, 1, "p", (u, v, s, l1, l2))
                        fu = block.var_id(f"F_{u}_{l1}")
                        fv = block.var_id(f"F_{v}_{l2}")
                        dsid = int(ds[u, v, s])
                        block.add_con(f"p_ub1_{u}_{v}_{s}_{l1}_{l2}",
                                      {pid: 1.0, fu: -1.0}, "<=", 0.0)
                        block.add_con(f"p_ub2_{u}_{v}_{s}_{l1}_{l2}",
                                      {pid: 1.0, dsid: -1.0}, "<=", 0.0)
                        block.add_con(f"p_ub3_{u}_{v}_{s}_{l1}_{l2}",
                                      {pid: 1.0, fv: -1.0}, "<=", 0.0)
                        block.add_con(f"p_lb_{u}_{v}_{s}_{l1}_{l2}",
                                      [(pid, 1.0), (fu, -1.0), (dsid, -1.0), (fv, -1.0)],
                                      ">=", -2.0)
                        row[pid] = row.get(pid, 0.0) + 1.0
                block.add_con(f"P_def_{s}_{l1}_{l2}", row, "==", 0.0)
                pcs = [block.add_var(f"Pc_{s}_{l1}_{l2}_{c}", "binary", 0, 1,
                                     "Pc", (s, l1, l2, c))
                       for c in range(n * n + 1)]
                block.add_con(f"Pc_onehot_{s}_{l1}_{l2}",
                              {vid: 1.0 for vid in pcs}, "==", 1.0)
                link = {vid: float(c) for c, vid in enumerate(pcs)}
                link[pv] = -1.0
                block.add_con(f"Pc_link_{s}_{l1}_{l2}", link, "==", 0.0)
    if not directed:
        for s in range(n):
            for l1 in range(L):
                for l2 in range(l1 + 1, L):
                    block.add_con(f"P_sym_{s}_{l1}_{l2}",
                                  {block.var_id(f"P_{s}_{l1}_{l2}"): 1.0,
                                   block.var_id(f"P_{s}_{l2}_{l1}"): -1.0}, "==", 0.0)
    return block


def apply_domain_constraints(block: ConstraintBlock, domain: DomainSpec) -> None:
    """Per-label degree caps, label-count bounds, and user rows."""
    n, L = domain.n, domain.num_labels
    if domain.label_count_bounds is not None:
        lows = [lo for lo, _ in domain.label_count_bounds]
        highs = [hi for _, hi in domain.label_count_bounds]
        if any(lo > hi for lo, hi in domain.label_count_bounds) or sum(lows) > domain.n \
                or sum(highs) < domain.n_min:
            raise InfeasibleDomainError("label-count bounds are contradictory")

    if domain.degree_caps is not None:
        for v in range(n):
            row: dict[int, float] = {}
            for u in range(n):
                if u != v:
                    row[block.var_id(f"A_{u}_{v}")] = 1.0
            for l in range(L):
                fid = block.var_id(f"F_{v}_{l}")
                row[fid] = row.get(fid, 0.0) - float(domain.degree_caps[l])
            block.add_con(f"degree_cap_{v}", row, "<=", 0.0)

    if domain.label_count_bounds is not None:
        for l, (lo, hi) in enumerate(domain.label_count_bounds):
            row = {block.var_id(f"F_{v}_{l}"): 1.0 for v in range(n)}
            if lo > 0:
                block.add_con(f"label_count_lb_{l}", row, ">=", float(lo))
            if hi < n:
                block.add_con(f"label_count_ub_{l}", row, "<=", float(hi))

    for i, user in enumerate(domain.extra_rows):
        row = {}
        for u, v, c in user.adjacency:
            vid = block.var_id(f"A_{u}_{v}")
            row[vid] = row.get(vid, 0.0) + c
        for v, m, c in user.features:
            vid = block.var_id(f"F_{v}_{m}")
            row[vid] = row.get(vid, 0.0) + c
        block.add_con(f"user_row_{i}", row, user.sense, user.rhs)


def structural_system(domain: DomainSpec, include_labels: bool = True) -> ConstraintBlock:
    """Assemble the full structural block for a domain."""
    size: SizeSpec = domain.n if domain.fixed_size else (domain.n_min, domain.n)
    block = encode_shortest_paths(size, domain.directed)
    encode_feature_block(domain, block)
    encode_path_indicators(size, domain.num_labels, block,
                           directed=domain.directed,
                           include_labels=include_labels)
    apply_domain_constraints(block, domain)
    return block


# ---------------------------------------------------------------------------
# acquisition model


@dataclass
class MipModel:
    """The materialized acquisition problem for the GP ``gp``.

    In fixed-size mode every kernel quantity has a linear defining row (plus
    exp links for exponential variants) and the model can be exported. In
    bounded-size mode the kernel normalizations depend on the realized size,
    so the kernel/mu defining rows are withheld and evaluation goes through
    the GP only.
    """

    gp: GpModel
    beta_sqrt: float
    domain: DomainSpec
    block: ConstraintBlock
    objective: dict[int, float]
    quad: QuadConstraint
    exp_links: list[ExpLink]
    # (breakpoints, ExportedModel) of the last ``modelio.export_model`` call,
    # so that writing a second format reuses the expansion
    _exported: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def variables(self) -> list[MipVariable]:
        return self.block.variables

    @property
    def constraints(self) -> Sequence[LinearConstraint]:
        return self.block.constraints

    def mu_sigma_for(self, graph: AttributedGraph) -> tuple[float, float]:
        """Exact mean and predictive deviation at a realized graph."""
        mu, var = posterior(self.gp, graph)
        return mu, math.sqrt(var)


def _count_coefficients(train: StackedSummaries, n: int, labeled: bool,
                        graph_scale: float, feature_scale: float):
    """Coefficients of a size-n graph's count cells and feature sums in its
    kernel entries against every training point.

    Both kernel parts are linear in a graph's counts, so the coefficient of
    one cell is the kernel part between a size-n profile holding just that
    cell, at the given scale, and the training point. Returns graph
    (n, L, L, t) and feature (M, t) arrays.
    """
    L, M = train.num_labels, train.num_features
    cells = n * L * L
    eye = np.eye(cells + M)
    probe = StackedSummaries(np.full(cells + M, n),
                             graph_scale * eye[:, :cells].reshape(-1, n, L, L),
                             feature_scale * eye[:, cells:])
    graph, feature = _count_products(probe, train, labeled)
    return graph[:cells].reshape(n, L, L, -1), feature[cells:]


def _count_indicator_ids(block: ConstraintBlock, n: int, L: int,
                         labeled: bool) -> np.ndarray:
    """Ids of the indicators that sum to each count cell, as an
    (n, L, L, n^2) grid over (s, l1, l2, node pair): the label-pair path
    indicators ``p``, or when unlabeled the distance indicators ``ds`` as an
    (n, 1, 1, n^2) grid."""
    if labeled:
        names = [f"p_{u}_{v}_{s}_{l1}_{l2}" for s in range(n) for l1 in range(L)
                 for l2 in range(L) for u in range(n) for v in range(n)]
        shape = (n, L, L, n * n)
    else:
        names = [f"ds_{u}_{v}_{s}" for s in range(n) for u in range(n) for v in range(n)]
        shape = (n, 1, 1, n * n)
    return np.fromiter(map(block.var_id, names), dtype=np.int64,
                       count=len(names)).reshape(shape)


def _self_values(n: int, L: int, M: int, labeled: bool):
    """Linear graph and feature self-kernel values of a size-n profile whose
    only nonzero count, in one cell, is c = 0, ..., n^2."""
    c = np.arange(n * n + 1, dtype=float)
    counts = np.zeros((len(c), n, L, L))
    counts[:, 0, 0, 0] = c
    sums = np.zeros((len(c), M))
    sums[:, 0] = c
    return _count_products(StackedSummaries(np.full(len(c), n), counts, sums),
                           None, labeled)


def check_acquisition_inputs(model: GpModel, domain: DomainSpec,
                             beta_sqrt: float) -> None:
    """Raise unless the model and domain form a valid acquisition problem:
    a fitted model, the training set's label/feature scheme and
    directedness, and a nonnegative ``beta_sqrt``. The encoder, the solver
    and ``solve.dual_bound`` all check their inputs here."""
    if model.size == 0 or model.chol is None:
        raise UnfittedModelError("the acquisition problem needs a fitted model")
    ref = model.points[0]
    if ref.num_labels != domain.num_labels or ref.num_features != domain.num_features:
        raise IncompatibleDomainError(
            "domain label/feature scheme differs from the training set")
    if ref.directed != domain.directed:
        raise IncompatibleDomainError("domain directedness differs from the training set")
    if beta_sqrt < 0:
        raise ValueError("beta_sqrt must be nonnegative")


def encode_acquisition(model: GpModel, domain: DomainSpec,
                       beta_sqrt: float) -> MipModel:
    """Assemble the full acquisition problem for a fitted GP over a domain."""
    check_acquisition_inputs(model, domain, beta_sqrt)
    variant, hyper = model.variant, model.hyper
    n = domain.n
    fixed = domain.fixed_size
    block = structural_system(domain, include_labels=variant.labeled)

    t = model.size
    sigma_scale = hyper.require_variance(variant)
    k_lo, k_hi = kernel_range(variant, hyper)

    k_ids = [block.add_var(f"k_{i}", "continuous", k_lo, k_hi, "k", (i,))
             for i in range(t)]
    kxx_id = block.add_var("kxx", "continuous", 0.0, k_hi, "kxx")
    mu_id = block.add_var("mu", "continuous", -math.inf, math.inf, "mu")
    sigma_id = block.add_var("sigma", "continuous", 0.0, math.sqrt(k_hi), "sigma")

    exp_links: list[ExpLink] = []
    if fixed:
        L, M = domain.num_labels, domain.num_features
        graph_scale = 1.0 if variant.exponential else hyper.alpha
        graph_coef, feature_coef = _count_coefficients(
            model.profile, n, variant.labeled, graph_scale, hyper.beta)
        if variant.exponential:
            g_ids = [block.add_var(f"g_{i}", "continuous", 0.0, 1.0, "g", (i,))
                     for i in range(t)]
            e_ids = [block.add_var(f"e_{i}", "continuous", 1.0, math.e, "eexp", (i,))
                     for i in range(t)]
        # kernel entry i: each node pair's indicator of a count cell carries
        # the cell's coefficient and N_m its feature coefficient; for the
        # exponential variants the graph part defines g_i in row g_def_i,
        # just before k_def_i, and k_i reads exp(g_i) through e_i
        cell_ids = _count_indicator_ids(block, n, L, variant.labeled)
        table = graph_coef[:, :cell_ids.shape[1], :cell_ids.shape[2]]
        s, l1, l2, cell_point = np.nonzero(table)
        feature, feature_point = np.nonzero(feature_coef)
        n_ids = np.array([block.var_id(f"N_{m}") for m in range(M)], dtype=np.int64)
        points = np.arange(t)
        if variant.exponential:
            names = [name for i in range(t) for name in (f"g_def_{i}", f"k_def_{i}")]
            graph_rows, k_rows = 2 * points, 2 * points + 1
            exp_links += [ExpLink(f"exp_{i}", e_ids[i], g_ids[i]) for i in range(t)]
        else:
            names = [f"k_def_{i}" for i in range(t)]
            graph_rows = k_rows = points
        # (rows, columns, coefficients) of each kind of entry
        entries = [(np.repeat(graph_rows[cell_point], n * n), cell_ids[s, l1, l2].ravel(),
                    np.repeat(table[s, l1, l2, cell_point], n * n)),
                   (k_rows[feature_point], n_ids[feature], feature_coef[feature, feature_point])]
        if variant.exponential:
            entries += [(graph_rows, g_ids, -1.0), (k_rows, e_ids, hyper.alpha / sigma_scale)]
        entries.append((k_rows, k_ids, -1.0))
        block.add_rows(names, ["=="] * len(names), np.zeros(len(names)),
                       np.concatenate([rows for rows, _, _ in entries]),
                       np.concatenate([cols for _, cols, _ in entries]),
                       np.concatenate([np.broadcast_to(coefs, len(rows))
                                       for rows, _, coefs in entries]))

        # self-kernel row: kxx = alpha * (graph self) + beta * (feature self),
        # each a sum over one-hot count indicators
        graph_self, feature_self = _self_values(n, L, M, variant.labeled)
        if variant.labeled:
            squares = [(f"Pc_{s}_{l1}_{l2}_{c}", c)
                       for s in range(n) for l1 in range(L) for l2 in range(L)
                       for c in range(1, n * n + 1)]
        else:
            squares = [(f"Dc_{s}_{c}", c) for s in range(n) for c in range(1, n * n + 1)]
        graph_row = {block.var_id(name): float(graph_self[c]) for name, c in squares}
        self_row: dict[int, float] = {}
        if variant.exponential:
            gs_id = block.add_var("g_self", "continuous", 0.0, 1.0, "g", (-1,))
            es_id = block.add_var("e_self", "continuous", 1.0, math.e, "eexp", (-1,))
            graph_row[gs_id] = -1.0
            block.add_con("g_self_def", graph_row, "==", 0.0)
            exp_links.append(ExpLink("exp_self", es_id, gs_id))
            self_row[es_id] = hyper.alpha / sigma_scale
        else:
            self_row = {vid: hyper.alpha * value for vid, value in graph_row.items()}
        for m in range(M):
            for c in range(1, n + 1):
                self_row[block.var_id(f"Nc_{m}_{c}")] = hyper.beta * float(feature_self[c])
        self_row[kxx_id] = -1.0
        block.add_con("kxx_def", self_row, "==", 0.0)

    mu_row = {k_ids[i]: float(model.weights[i]) for i in range(t)}
    mu_row[mu_id] = mu_row.get(mu_id, 0.0) - 1.0
    block.add_con("mu_def", mu_row, "==", 0.0)

    quad = QuadConstraint("var_bound", sigma_id, tuple(k_ids), model.precision(), kxx_id)
    objective = {mu_id: 1.0}
    if beta_sqrt > 0:
        objective[sigma_id] = -float(beta_sqrt)

    return MipModel(gp=model, beta_sqrt=float(beta_sqrt), domain=domain, block=block,
                    objective=objective, quad=quad, exp_links=exp_links)


# ---------------------------------------------------------------------------
# canonical assignments


def canonical_structural_assignment(graph: AttributedGraph, n: int) -> dict[str, int]:
    """The (A, d, delta) values a graph induces on a size-n grid.

    Nodes beyond the graph's size are absent: their edge bits and features
    are zero, pairwise distances take the "no path" value n, and only the
    endpoints sit on their (non-existent) shortest paths.
    """
    np_ = graph.n
    if np_ > n:
        raise ValueError("graph larger than the grid")
    dist = graph.summary.dist
    on_path = on_path_indicators(dist)
    out: dict[str, int] = {}
    for u in range(n):
        for v in range(n):
            exists = u < np_ and v < np_
            if u == v:
                out[f"A_{u}_{v}"] = 1 if u < np_ else 0
                out[f"d_{u}_{v}"] = 0
            else:
                out[f"A_{u}_{v}"] = int(graph.adjacency[u, v]) if exists else 0
                out[f"d_{u}_{v}"] = int(dist[u, v]) if exists else n
            for w in range(n):
                if u == v:
                    val = 1 if w == u else 0
                elif exists and w < np_:
                    val = int(on_path[u, v, w])
                else:
                    val = 1 if w in (u, v) else 0
                out[f"delta_{u}_{v}_{w}"] = val
    return out


def canonical_assignment(model_or_block, graph: AttributedGraph,
                         domain: DomainSpec | None = None) -> dict[str, float]:
    """Extend the structural assignment to every variable of a block/model."""
    if isinstance(model_or_block, MipModel):
        block = model_or_block.block
        domain = model_or_block.domain
        model = model_or_block
    else:
        block = model_or_block
        model = None
        if domain is None:
            raise ValueError("domain required when passing a raw block")

    n = domain.n
    out: dict[str, float] = dict(canonical_structural_assignment(graph, n))
    np_ = graph.n
    L, M = domain.num_labels, domain.num_features

    for v in range(n):
        for m in range(M):
            name = f"F_{v}_{m}"
            if name in block.index:
                out[name] = int(graph.features[v, m]) if v < np_ else 0
    for m in range(M):
        if f"N_{m}" in block.index:
            total = int(graph.summary.feature_sums[m])
            out[f"N_{m}"] = total
            for c in range(n + 1):
                out[f"Nc_{m}_{c}"] = 1 if c == total else 0

    if "ds_0_0_0" in block.index:
        for u in range(n):
            for v in range(n):
                val = int(out[f"d_{u}_{v}"])
                for s in range(n + 1):
                    out[f"ds_{u}_{v}_{s}"] = 1 if s == val else 0
        for s in range(n):
            total = sum(int(out[f"ds_{u}_{v}_{s}"]) for u in range(n) for v in range(n))
            if f"D_{s}" in block.index:
                out[f"D_{s}"] = total
                for c in range(n * n + 1):
                    out[f"Dc_{s}_{c}"] = 1 if c == total else 0
        if "P_0_0_0" in block.index:
            for s in range(n):
                for l1 in range(L):
                    for l2 in range(L):
                        total = 0
                        for u in range(n):
                            for v in range(n):
                                val = (int(out[f"F_{u}_{l1}"])
                                       * int(out[f"ds_{u}_{v}_{s}"])
                                       * int(out[f"F_{v}_{l2}"]))
                                out[f"p_{u}_{v}_{s}_{l1}_{l2}"] = val
                                total += val
                        out[f"P_{s}_{l1}_{l2}"] = total
                        for c in range(n * n + 1):
                            out[f"Pc_{s}_{l1}_{l2}_{c}"] = 1 if c == total else 0

    if model is not None:
        gp = model.gp
        point = StackedSummaries.build([graph])
        k = cross_gram(point, gp.profile, gp.variant, gp.hyper)[0]
        if gp.variant.exponential:
            labeled = gp.variant.labeled
            base = _count_products(point, gp.profile, labeled)[0][0]
            for i in range(gp.size):
                out[f"g_{i}"] = float(base[i])
                out[f"e_{i}"] = math.exp(base[i])
            self_base = float(_count_products(point, None, labeled)[0][0])
            out["g_self"] = self_base
            out["e_self"] = math.exp(self_base)
        for i in range(gp.size):
            out[f"k_{i}"] = float(k[i])
        out["kxx"] = float(self_kernel_parts(point, gp.variant, gp.hyper)[0])
        mu, sigma = model.mu_sigma_for(graph)
        out["mu"] = mu
        out["sigma"] = sigma
    return out
