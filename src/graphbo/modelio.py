"""Model file export (MPS and LP) with a bundled reader for round-trips.

``expand_model`` turns a fixed-size ``MipModel`` into one array-backed flat
model: the objective vector ``c``, the constraint matrix ``A`` (a
``scipy.sparse`` CSR array) with row names, senses and right-hand sides,
variable names, kinds and bounds ``lb``/``ub``, and the quadratic variance
row as variable-id and value arrays (``QuadEntry``). It reads the encoded
rows straight off the ``ConstraintBlock`` buffers. Exponential links are
expanded into big-M piecewise-linear rows over the argument range [0, 1],
built for every link and segment at once; the internal solver never uses
the expansion. The same arrays feed the writers (COLUMNS from the CSC view,
LP rows from CSR, QCMATRIX and the LP bracket from the quadratic arrays) and
a MILP solver such as ``scipy.optimize.milp``. The readers parse a file
straight into the same arrays (``ParsedModel.flat``): each section is split
once and its tokens are parsed in bulk, with no object per row, variable or
quadratic term. Export requires fixed-size models because bounded-size
kernel normalizations are not linear.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import defaultdict
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .encode import LinearConstraint, MipModel, _LazySequence
from .errors import UnsupportedBoundedSizeExportError

PWL_BIG_M = 4.0
DEFAULT_BREAKPOINTS = 64
OBJ_NAME = "OBJ"


def piecewise_exp_table(breakpoints: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform interpolation nodes of exp on [0, 1]."""
    if breakpoints < 2:
        raise ValueError("need at least two breakpoints")
    xs = np.linspace(0.0, 1.0, breakpoints)
    return xs, np.exp(xs)


def piecewise_exp_error(breakpoints: int, grid_size: int = 10_000) -> float:
    """Max deviation of the chord interpolant from exp on a dense grid."""
    xs, ys = piecewise_exp_table(breakpoints)
    grid = np.linspace(0.0, 1.0, grid_size)
    return float(np.max(np.abs(np.interp(grid, xs, ys) - np.exp(grid))))


@dataclass(eq=False)
class QuadEntry:
    """The quadratic part of the row ``row``: the value ``values[k]`` on the
    product of variables ``first[k]`` and ``second[k]``, ids into the
    model's ``names``. ``entries`` lists the terms as (name, name, value)
    triples, built on access."""

    row: str
    first: np.ndarray
    second: np.ndarray
    values: np.ndarray
    names: Sequence[str] = field(repr=False)

    @property
    def entries(self) -> Sequence[tuple[str, str, float]]:
        names, first, second, values = self.names, self.first, self.second, self.values
        return _LazySequence(len(values), lambda k: (
            names[first[k]], names[second[k]], float(values[k])))


class FlatVariable(NamedTuple):
    name: str
    kind: str  # "binary" | "integer" | "continuous"
    lb: float
    ub: float


@dataclass(eq=False)
class ExportedModel:
    """Flat model as written to disk.

    Variable ``j`` is ``names[j]`` of kind ``kinds[j]`` with bounds
    ``lb[j]``/``ub[j]`` and objective coefficient ``c[j]``. Row ``i`` of the
    CSR array ``A`` is the linear constraint ``row_names[i]``:
    ``A[i] . x  senses[i]  rhs[i]``, its column indices ascending. The
    linear part of the variance row comes last; its quadratic terms are the
    arrays of ``quad``. ``variables``, ``constraints`` and ``objective`` are
    views built from these arrays.
    """

    names: list[str]
    kinds: list[str]
    lb: np.ndarray
    ub: np.ndarray
    c: np.ndarray
    A: sparse.csr_array
    row_names: list[str]
    senses: list[str]  # "<=", ">=", "=="
    rhs: np.ndarray
    quad: QuadEntry | None

    @property
    def integrality(self) -> np.ndarray:
        """1 for binary and integer variables, 0 for continuous ones."""
        return np.array([kind != "continuous" for kind in self.kinds], dtype=np.uint8)

    @property
    def objective(self) -> dict[int, float]:
        return {j: float(self.c[j]) for j in np.flatnonzero(self.c).tolist()}

    @property
    def variables(self) -> Sequence[FlatVariable]:
        return _LazySequence(len(self.names), lambda j: FlatVariable(
            self.names[j], self.kinds[j], float(self.lb[j]), float(self.ub[j])))

    @property
    def constraints(self) -> Sequence[LinearConstraint]:
        return _LazySequence(len(self.row_names), self._constraint)

    def _constraint(self, i: int) -> LinearConstraint:
        lo, hi = self.A.indptr[i], self.A.indptr[i + 1]
        coeffs = tuple(zip(self.A.indices[lo:hi].tolist(), self.A.data[lo:hi].tolist()))
        return LinearConstraint(self.row_names[i], coeffs, self.senses[i],
                                float(self.rhs[i]))


def _piecewise_block(model: MipModel, breakpoints: int, first_var: int, first_row: int):
    """Variables and rows of the big-M piecewise-linear exp expansion.

    Link ``li`` gets one binary per segment, ``z_<link>_<j>``, then the rows
    ``EXP_<li>_sum`` (one segment active) and, per segment ``j``, ``arglo``
    and ``arghi`` (the argument lies in the active segment) and ``ub`` and
    ``lb`` (the output sits on that segment's chord). Returns variable
    names, row names, senses, right-hand sides and COO entries (row, column,
    value).
    """
    xs, ys = piecewise_exp_table(breakpoints)
    links = model.exp_links
    nl, ns = len(links), len(xs) - 1
    m = PWL_BIG_M
    x0, x1 = xs[:-1], xs[1:]
    slope = (ys[1:] - ys[:-1]) / (x1 - x0)
    intercept = ys[:-1] - slope * x0

    names = [f"z_{link.name}_{j}" for link in links for j in range(ns)]
    row_names = []
    for li in range(nl):
        row_names.append(f"EXP_{li}_sum")
        row_names += [f"EXP_{li}_{j}_{s}" for j in range(ns)
                      for s in ("arglo", "arghi", "ub", "lb")]
    senses = ["==", *[">=", "<=", "<=", ">="] * ns] * nl
    rhs = np.empty((nl, 1 + 4 * ns))
    rhs[:, 0] = 1.0
    rhs[:, 1:] = np.stack([x0 - m, x1 + m, intercept + m, intercept - m], axis=1).ravel()

    z = first_var + np.arange(nl * ns).reshape(nl, ns)
    out = np.array([link.out for link in links])[:, None]
    arg = np.array([link.arg for link in links])[:, None]
    link_row = first_row + (1 + 4 * ns) * np.arange(nl)[:, None]
    seg_row = link_row + 1 + 4 * np.arange(ns)
    shape = (nl, ns)
    # (row offset within the segment, column, value) of every segment entry
    terms = [(0, arg, 1.0), (0, z, -m),
             (1, arg, 1.0), (1, z, m),
             (2, out, 1.0), (2, arg, -slope), (2, z, m),
             (3, out, 1.0), (3, arg, -slope), (3, z, -m)]
    rows = [np.broadcast_to(link_row, shape)] + [seg_row + k for k, _, _ in terms]
    cols = [z] + [np.broadcast_to(col, shape) for _, col, _ in terms]
    vals = [np.ones(shape)] + [np.broadcast_to(val, shape) for _, _, val in terms]
    coo = tuple(np.concatenate([a.ravel() for a in arrays])
                for arrays in (rows, cols, vals))
    return names, row_names, senses, rhs.ravel(), coo


def expand_model(model: MipModel, breakpoints: int = DEFAULT_BREAKPOINTS) -> ExportedModel:
    """The model as one flat array model, each exp link replaced by
    piecewise-linear rows and the variance row's linear part appended."""
    if not model.domain.fixed_size:
        raise UnsupportedBoundedSizeExportError(
            "bounded-size models cannot be exported; fix the size first")
    block = model.block
    variables = block.variables
    names = [v.name for v in variables]
    kinds = [v.kind for v in variables]
    lb = [float(v.lb) for v in variables]
    ub = [float(v.ub) for v in variables]
    row_names = list(block.row_names)
    senses = list(block.senses)
    rhs = [np.frombuffer(block.rhs, dtype=float)]
    # the encoded rows already hold merged coefficients in ascending column order
    ends = np.frombuffer(block.row_ends, dtype=np.int64)
    rows = [np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))]
    cols = [np.frombuffer(block.cols, dtype=np.int64)]
    vals = [np.frombuffer(block.coefs, dtype=float)]

    if model.exp_links:
        z_names, z_rows, z_senses, z_rhs, coo = _piecewise_block(
            model, breakpoints, len(names), len(row_names))
        names += z_names
        kinds += ["binary"] * len(z_names)
        lb += [0.0] * len(z_names)
        ub += [1.0] * len(z_names)
        row_names += z_rows
        senses += z_senses
        rhs.append(z_rhs)
        for parts, part in zip((rows, cols, vals), coo):
            parts.append(part)

    # the variance row: sigma^2 + k' Q k, each nonzero of Q in row-major order
    q = model.quad.q
    qi, qj = np.nonzero(q)
    kernel = np.asarray(model.quad.kernel_vars, dtype=np.int64)
    sigma = np.array([model.quad.sigma])
    quad = QuadEntry(model.quad.name, np.concatenate((sigma, kernel[qi])),
                     np.concatenate((sigma, kernel[qj])),
                     np.concatenate(([1.0], q[qi, qj])), names)
    # linear part of the variance row: -kxx <= 0
    rows.append(np.array([len(row_names)]))
    cols.append(np.array([model.quad.kxx]))
    vals.append(np.array([-1.0]))
    row_names.append(model.quad.name)
    senses.append("<=")
    rhs.append([0.0])

    row, col, val = (np.concatenate(parts) for parts in (rows, cols, vals))
    order = np.lexsort((col, row))
    indptr = np.zeros(len(row_names) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=len(row_names)), out=indptr[1:])
    A = sparse.csr_array((val[order], col[order], indptr),
                         shape=(len(row_names), len(names)))
    c = np.zeros(len(names))
    for j, coef in model.objective.items():
        c[j] += coef
    return ExportedModel(names, kinds, np.array(lb), np.array(ub), c, A,
                         row_names, senses, np.concatenate(rhs), quad)


def export_model(model: MipModel, path, fmt: str = "mps",
                 breakpoints: int = DEFAULT_BREAKPOINTS) -> ExportedModel:
    """Write the model to ``path`` in MPS or LP form; returns the flat model."""
    flat = expand_model(model, breakpoints)
    if fmt == "mps":
        text = render_mps(flat)
    elif fmt == "lp":
        text = render_lp(flat)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return flat


# ---------------------------------------------------------------------------
# writers (numbers as repr(float), so every value survives a round-trip)


def _per_value(values, text: Callable[[float], str]) -> list[str]:
    """``text(v)`` for every value, computed once per distinct value: the
    kernel rows repeat one coefficient over every node pair, so an exported
    model has a few hundred distinct coefficients among ~10^5 entries."""
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64),
                              return_inverse=True)
    texts = [text(value) for value in bits.view(np.float64).tolist()]
    return list(map(texts.__getitem__, inverse.tolist()))


def _bound_lines(flat: ExportedModel, line: Callable[[str, str, float, float], list[str]]
                 ) -> list[str]:
    return [text for name, kind, lo, hi in zip(flat.names, flat.kinds,
                                               flat.lb.tolist(), flat.ub.tolist())
            for text in line(name, kind, lo, hi)]


def _mps_bound(name: str, kind: str, lo: float, hi: float) -> list[str]:
    if kind == "binary":
        return [f" BV BND  {name}"]
    if kind == "integer":
        return [f" LI BND  {name}  {int(lo)}", f" UI BND  {name}  {int(hi)}"]
    if math.isinf(lo) and math.isinf(hi):
        return [f" FR BND  {name}"]
    lines = [f" LO BND  {name}  {lo!r}" if not math.isinf(lo) else f" MI BND  {name}"]
    if not math.isinf(hi):
        lines.append(f" UP BND  {name}  {hi!r}")
    return lines


def _mps_columns(flat: ExportedModel) -> list[str]:
    """COLUMNS, column by column with rows ascending and the objective last.

    A column with no entry at all is written as a zero objective entry, and
    each run of integer columns sits between INTORG/INTEND markers.
    """
    nv = len(flat.names)
    empty = np.bincount(flat.A.indices, minlength=nv) == 0
    obj_cols = np.flatnonzero((flat.c != 0.0) | empty)
    obj_row = sparse.csr_array((flat.c[obj_cols], obj_cols, [0, len(obj_cols)]),
                               shape=(1, nv))
    csc = sparse.vstack([flat.A, obj_row], format="csc")
    row_names = flat.row_names + [OBJ_NAME]
    owners = map(flat.names.__getitem__,
                 np.repeat(np.arange(nv), np.diff(csc.indptr)).tolist())
    entries = [f"    {name}  {row}  {value}" for name, row, value in zip(
        owners, map(row_names.__getitem__, csc.indices.tolist()),
        _per_value(csc.data, repr))]

    # marker k sits before column switches[k]; even markers open an integer run
    switches = np.flatnonzero(np.diff(flat.integrality, prepend=0, append=0)).tolist()
    ptr = csc.indptr.tolist()
    lines, start = [], 0
    for k, col in enumerate(switches):
        lines += entries[ptr[start]:ptr[col]]
        flag = "'INTEND'" if k % 2 else "'INTORG'"
        lines.append(f"    MARKER{k}    'MARKER'    {flag}")
        start = col
    lines += entries[ptr[start]:]
    return lines


def render_mps(flat: ExportedModel) -> str:
    code = {"<=": "L", ">=": "G", "==": "E"}
    lines = ["NAME graphbo_acquisition", "OBJSENSE", "    MIN", "ROWS",
             f" N  {OBJ_NAME}"]
    lines += [f" {code[sense]}  {name}" for name, sense in zip(flat.row_names, flat.senses)]
    lines.append("COLUMNS")
    lines += _mps_columns(flat)
    lines.append("RHS")
    nonzero = np.flatnonzero(flat.rhs != 0.0)
    lines += [f"    RHS  {name}  {value}" for name, value in zip(
        map(flat.row_names.__getitem__, nonzero.tolist()),
        _per_value(flat.rhs[nonzero], repr))]
    lines.append("BOUNDS")
    lines += _bound_lines(flat, _mps_bound)
    quad = flat.quad
    if quad is not None:
        lines.append(f"QCMATRIX   {quad.row}")
        lines += [f"    {a}  {b}  {coef}" for a, b, coef in zip(
            map(flat.names.__getitem__, quad.first.tolist()),
            map(flat.names.__getitem__, quad.second.tolist()),
            _per_value(quad.values, repr))]
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def _lp_coef(coef: float) -> str:
    return f"{'-' if coef < 0 else '+'} {abs(coef)!r}"


def _lp_sum(terms) -> str:
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else text


def _lp_bound(name: str, kind: str, lo: float, hi: float) -> list[str]:
    if kind == "binary":
        return []
    if math.isinf(lo) and math.isinf(hi):
        return [f" {name} free"]
    low = "-inf" if math.isinf(lo) else repr(lo)
    high = "+inf" if math.isinf(hi) else repr(hi)
    return [f" {low} <= {name} <= {high}"]


def render_lp(flat: ExportedModel) -> str:
    names = flat.names
    lines = ["\\ graphbo acquisition model", "Minimize"]
    obj = [f"{_lp_coef(coef)} {names[j]}" for j, coef in flat.objective.items()]
    lines.append(" obj: " + (_lp_sum(obj) if obj else "0"))
    lines.append("Subject To")
    quad, quad_text = flat.quad, None
    if quad is not None:
        quad_text = _lp_sum([
            f"{coef} {names[a]} ^ 2" if a == b else f"{coef} {names[a]} * {names[b]}"
            for a, b, coef in zip(quad.first.tolist(), quad.second.tolist(),
                                  _per_value(quad.values, _lp_coef))])
    terms = iter([f"{coef} {name}" for coef, name in zip(
        _per_value(flat.A.data, _lp_coef), map(names.__getitem__, flat.A.indices.tolist()))])
    sense_txt = {"<=": "<=", ">=": ">=", "==": "="}
    for name, sense, rhs, count in zip(flat.row_names, flat.senses, flat.rhs.tolist(),
                                       np.diff(flat.A.indptr).tolist()):
        text = _lp_sum(islice(terms, count))
        if quad_text is not None and name == quad.row:
            text = f"[ {quad_text} ] " + ("+ " if not text.startswith("-") else "") + text
        lines.append(f" {name}: {text} {sense_txt[sense]} {rhs!r}")
    lines.append("Bounds")
    lines += _bound_lines(flat, _lp_bound)
    generals = [f" {name}" for name, kind in zip(names, flat.kinds) if kind == "integer"]
    if generals:
        lines += ["Generals", *generals]
    binaries = [f" {name}" for name, kind in zip(names, flat.kinds) if kind == "binary"]
    if binaries:
        lines += ["Binaries", *binaries]
    lines.append("End")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# readers: each file is parsed straight into the arrays of an ExportedModel


_KINDS = ("continuous", "integer", "binary")  # the kind codes 0, 1, 2
_INTEGER, _BINARY = 1, 2
_LINE_VALUE = "value"  # a bound rule that takes the number on the line

# MPS bound type -> the (kind, lb, ub) it sets; None leaves the field as it is
_MPS_BOUNDS = {
    "UP": (None, None, _LINE_VALUE),
    "LO": (None, _LINE_VALUE, None),
    "UI": (_INTEGER, None, _LINE_VALUE),
    "LI": (_INTEGER, _LINE_VALUE, None),
    "BV": (_BINARY, 0.0, 1.0),
    "FR": (None, -math.inf, math.inf),
    "MI": (None, -math.inf, None),
}
_MPS_BOUND_CODES = {btype: code for code, btype in enumerate(_MPS_BOUNDS)}
_MPS_ROW_CODES = {"N": -1, "L": 0, "G": 1, "E": 2}
_SENSES = ("<=", ">=", "==")  # by row code
_MARKER = "'MARKER'"
_LP_SENSES = {"<=": "<=", ">=": ">=", "=": "=="}
# (tokens on the line, its second token, its fourth token or else its second)
_LP_BOUND_SHAPES = {(2, "free", "free"), (5, "<=", "<=")}

# A section header is alone on its line; NAME and QCMATRIX carry one name.
# MPS headers start in the first column and data lines do not, so the
# search looks at the first character of each line only.
_MPS_HEADER = re.compile(
    r"\n(?=[A-Z])(?:(?P<key>OBJSENSE|ROWS|COLUMNS|RHS|BOUNDS|ENDATA)"
    r"|(?P<named>NAME|QCMATRIX)[ \t]+(?P<name>\S+))[ \t\r]*$",
    re.M)
_LP_HEADER = re.compile(
    r"\n[ \t]*(?=[a-z])(?P<key>minimize|maximize|subject to|bounds|generals|binaries|end)"
    r"[ \t\r]*$",
    re.M | re.I)


class _VariableView(Mapping):
    """Read-only name -> {"kind", "lb", "ub"} view of a flat model's
    variables; each entry is built on access."""

    def __init__(self, flat: ExportedModel, index: dict[str, int]) -> None:
        self._flat = flat
        self._index = index

    def __getitem__(self, name: str) -> dict:
        j, flat = self._index[name], self._flat
        return {"kind": flat.kinds[j], "lb": float(flat.lb[j]), "ub": float(flat.ub[j])}

    def __iter__(self):
        return iter(self._flat.names)

    def __len__(self) -> int:
        return len(self._flat.names)


@dataclass
class ParsedModel:
    """What the bundled readers recover from a model file.

    ``flat`` is the file's model as the arrays of an ``ExportedModel``: its
    variables are numbered in the order the reader first meets them,
    section by section (an LP file's quadratic part after its linear rows),
    and repeated entries of a row are summed. The other fields show
    it by name: ``variables`` maps each name to ``{"kind", "lb", "ub"}`` and
    ``constraints`` holds one ``{"name", "sense", "rhs", "coeffs"}`` dict
    per row (``coeffs`` keyed by variable name); ``quad_entries`` lists the
    quadratic terms as (name, name, value) triples. All three are read-only
    views whose entries are built on access. ``objective`` maps each
    variable with a nonzero coefficient to it.
    """

    variables: Mapping[str, dict]
    constraints: Sequence[dict]
    objective: dict[str, float]
    quad_entries: Sequence[tuple[str, str, float]] = field(default_factory=list)
    flat: ExportedModel | None = field(default=None, compare=False, repr=False)

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)


def _parsed(flat: ExportedModel, index: dict[str, int]) -> ParsedModel:
    names = flat.names

    def row(i: int) -> dict:
        con = flat._constraint(i)
        return {"name": con.name, "sense": con.sense, "rhs": con.rhs,
                "coeffs": {names[j]: coef for j, coef in con.coeffs}}

    objective = {names[j]: float(flat.c[j]) for j in np.flatnonzero(flat.c).tolist()}
    return ParsedModel(_VariableView(flat, index), _LazySequence(len(flat.row_names), row),
                       objective, flat.quad.entries if flat.quad is not None else [], flat)


class _Variables:
    """The variables of a file being read, numbered in order of first
    appearance. Each is continuous with bounds [0, inf) until lines of the
    file set its kind or a bound; of several such lines the last wins."""

    def __init__(self) -> None:
        # an unseen name gets the next id as it is looked up
        self.index: dict[str, int] = defaultdict(itertools.count().__next__)
        self._updates: dict[str, list] = {"kind": [], "lb": [], "ub": []}

    def ids(self, names: list[str]) -> np.ndarray:
        """Ids of ``names``; unseen names are added in order."""
        return np.fromiter(map(self.index.__getitem__, names), dtype=np.int64,
                           count=len(names))

    def pair_ids(self, first: list[str], second: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the names of each (first, second) pair; unseen names are
        added pair by pair."""
        ids = self.ids(list(chain.from_iterable(zip(first, second))))
        return ids[0::2], ids[1::2]

    def set(self, field_name: str, ids: np.ndarray, values) -> None:
        """``field_name[ids] = values``, applied in the order of the calls."""
        self._updates[field_name].append(
            (ids, np.broadcast_to(np.asarray(values, dtype=float), ids.shape)))

    def arrays(self) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
        """Names, kinds, lb and ub of every variable."""
        n = len(self.index)
        out = {"kind": np.zeros(n, dtype=np.int8), "lb": np.zeros(n),
               "ub": np.full(n, math.inf)}
        for name, updates in self._updates.items():
            if updates:
                ids, values = (np.concatenate(parts) for parts in zip(*updates))
                # the first of the reversed ids is the last of each
                rev = ids[::-1]
                _, last = np.unique(rev, return_index=True)
                out[name][rev[last]] = values[::-1][last]
        kinds = list(map(_KINDS.__getitem__, out["kind"].tolist()))
        return list(self.index), kinds, out["lb"], out["ub"]


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _sections(text: str, header: re.Pattern, comment: str
              ) -> tuple[dict[str, str], dict[str, str]]:
    """Body of each section, keyed by the header's lowercased keyword, and
    the name on each NAME/QCMATRIX header. Repeated sections are joined
    (their header names must agree) and comment lines are dropped. Text
    before the first header is ignored."""
    text = "\n" + text
    marks = list(header.finditer(text))
    bodies: dict[str, str] = {}
    names: dict[str, str] = {}
    for mark, following in zip(marks, marks[1:] + [None]):
        groups = mark.groupdict()
        key = (groups.get("key") or groups["named"]).lower()
        name = groups.get("name")
        if name is not None and names.setdefault(key, name) != name:
            raise ValueError(f"{key.upper()}: one section per file, not "
                             f"{names[key]!r} and {name!r}")
        end = following.start() if following is not None else len(text)
        bodies[key] = bodies.get(key, "") + text[mark.end():end]
    pattern = re.compile(rf"^[ \t]*{re.escape(comment)}.*$", re.M)
    bodies = {key: pattern.sub("", body) if comment in body else body
              for key, body in bodies.items()}
    return bodies, names


def _fields(body: str, width: int, section: str) -> list[list[str]]:
    """The section's tokens as ``width`` columns, one entry per line."""
    tokens = body.split()
    if len(tokens) % width:
        raise ValueError(f"{section}: every line must hold {width} fields")
    return [tokens[k::width] for k in range(width)]


def _lines(body: str, section: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The section's tokens, with the index of the first token of each
    non-blank line and the line's token count.

    Lines end at "\\n". The counts come from the section's bytes, so no
    per-line object is built: space and the control characters separate
    tokens, and a file whose tokens str.split() cuts elsewhere is refused.
    """
    tokens = body.split()
    raw = np.frombuffer(body.encode(), dtype=np.uint8)
    blank = raw <= ord(" ")
    starts = np.flatnonzero(blank[:-1] > blank[1:]) + 1
    if len(raw) and not blank[0]:
        starts = np.concatenate(([0], starts))
    if len(starts) != len(tokens):
        raise ValueError(f"{section}: tokens must be separated by ASCII whitespace")
    # tokens before each line end, then per line
    count = np.diff(np.searchsorted(starts, np.flatnonzero(raw == ord("\n"))),
                    prepend=0, append=len(tokens))
    count = count[count > 0]
    return tokens, np.cumsum(count) - count, count


def _take(tokens: list[str], positions: np.ndarray) -> list[str]:
    return list(map(tokens.__getitem__, positions.tolist()))


def _line(tokens: list[str], start: np.ndarray, count: np.ndarray, bad: np.ndarray) -> str:
    """The text of the first line flagged in ``bad``."""
    i = int(np.argmax(bad))
    return " ".join(tokens[start[i]:start[i] + count[i]])


class _FloatTable(dict):
    """float() of each token, parsed on its first lookup."""

    def __missing__(self, token: str) -> float:
        value = self[token] = float(token)
        return value


def _floats(tokens: list[str], section: str) -> np.ndarray:
    """float() of every token, parsed once per distinct token (see
    ``_per_value``)."""
    try:
        return np.fromiter(map(_FloatTable().__getitem__, tokens), dtype=float,
                           count=len(tokens))
    except ValueError as exc:
        raise ValueError(f"{section}: {exc}") from None


def _lookup(index: dict[str, int], names: list[str], section: str, what: str) -> np.ndarray:
    """``index[name]`` of every name, which ``index`` must hold."""
    try:
        return np.fromiter(map(index.__getitem__, names), dtype=np.int64, count=len(names))
    except KeyError as missing:
        raise ValueError(f"{section}: {what} {missing.args[0]!r}") from None


def read_mps(path) -> ParsedModel:
    """Read an MPS file as written by ``render_mps``: section headers in the
    first column, fixed field counts per line (two in ROWS, three in
    COLUMNS, RHS and QCMATRIX, three or four in BOUNDS), ``*`` comment
    lines and blank lines anywhere. The first N row is the objective;
    further N rows are dropped."""
    sections, header_names = _sections(_read_text(path), _MPS_HEADER, "*")
    row_types, names = _fields(sections.pop("rows", ""), 2, "ROWS")
    codes = _lookup(_MPS_ROW_CODES, row_types, "ROWS", "unknown row type")
    is_row = (codes >= 0).tolist()
    row_names = list(compress(names, is_row))
    senses = list(map(_SENSES.__getitem__, codes[codes >= 0].tolist()))
    nrows = len(row_names)
    row_index = dict(zip(row_names, range(nrows)))

    # the objective is row nrows, marker lines are row -1, other N rows -2
    column_rows = dict(row_index)
    free_rows = [name for name, keep in zip(names, is_row) if not keep]
    column_rows.update(dict.fromkeys(free_rows, -2))
    if free_rows:
        column_rows[free_rows[0]] = nrows
    column_rows[_MARKER] = -1
    columns, rows, values = _fields(sections.pop("columns", ""), 3, "COLUMNS")
    row_ids = _lookup(column_rows, rows, "COLUMNS", "undeclared row")
    # each variable takes the kind of the marker run it first appears in
    variables = _Variables()
    var_ids, start, integer = [], 0, False
    for stop in np.flatnonzero(row_ids == -1).tolist() + [len(columns)]:
        seen = len(variables.index)
        var_ids.append(variables.ids(columns[start:stop]))
        if integer:
            variables.set("kind", np.arange(seen, len(variables.index)), _INTEGER)
        if stop < len(columns):
            integer = values[stop] == "'INTORG'"
        start = stop + 1
    var_ids = np.concatenate(var_ids)
    coefs = _floats(list(compress(values, (row_ids != -1).tolist())), "COLUMNS")
    row_ids = row_ids[row_ids != -1]
    del columns, rows, values

    rhs = np.zeros(nrows)
    _, rhs_rows, rhs_values = _fields(sections.pop("rhs", ""), 3, "RHS")
    rhs[_lookup(row_index, rhs_rows, "RHS", "not a constraint row")] = _floats(rhs_values, "RHS")

    tokens, start, count = _lines(sections.pop("bounds", ""), "BOUNDS")
    types = _lookup(_MPS_BOUND_CODES, _take(tokens, start), "BOUNDS", "unsupported bound type")
    takes_value = np.array([_LINE_VALUE in rule for rule in _MPS_BOUNDS.values()])[types]
    bad = (count < 3) | (count > 4) | (takes_value & (count < 4))
    if bad.any():
        raise ValueError("BOUNDS: not a 'type bound name [value]' line: "
                         f"{_line(tokens, start, count, bad)!r}")
    bound_ids = variables.ids(_take(tokens, start + 2))
    line_values = np.full(len(start), math.nan)
    line_values[count == 4] = _floats(_take(tokens, start[count == 4] + 3), "BOUNDS")
    for k, fname in enumerate(("kind", "lb", "ub")):
        sets = np.zeros(len(start), dtype=bool)
        new = np.empty(len(start))
        for code, rule in enumerate(_MPS_BOUNDS.values()):
            if rule[k] is not None:
                lines = types == code
                sets |= lines
                new[lines] = line_values[lines] if rule[k] == _LINE_VALUE else rule[k]
        variables.set(fname, bound_ids[sets], new[sets])

    quad_terms = None
    if "qcmatrix" in sections:
        first, second, quad_values = _fields(sections.pop("qcmatrix"), 3, "QCMATRIX")
        quad_terms = (header_names["qcmatrix"], *variables.pair_ids(first, second),
                      _floats(quad_values, "QCMATRIX"))
        del first, second, quad_values

    var_names, kinds, lb, ub = variables.arrays()
    objective = row_ids == nrows
    entries = row_ids >= 0
    entries[objective] = False
    flat = ExportedModel(
        var_names, kinds, lb, ub,
        np.bincount(var_ids[objective], weights=coefs[objective], minlength=len(var_names)),
        sparse.csr_array((coefs[entries], (row_ids[entries], var_ids[entries])),
                         shape=(nrows, len(var_names))),
        row_names, senses, rhs, QuadEntry(*quad_terms, var_names) if quad_terms else None)
    return _parsed(flat, dict(variables.index))


_TERM_SIGNS = {"+": 1.0, "-": -1.0}


def _lp_terms(tokens: list[str], head: np.ndarray, length: np.ndarray,
              variables: _Variables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expression index, variable id and signed coefficient of every term of
    the expressions ``tokens[head[i] + 1:head[i] + 1 + length[i]]``.

    A term is "sign coefficient name" and the leading "+" may be left out;
    "0" alone is the empty expression. Every token is separated by spaces,
    so scientific notation like 1e-06 stays one token. ``head[i]``, the
    token before expression ``i``, stands in for a left-out sign, so the
    terms are one stream of triples.
    """
    def refuse(bad: np.ndarray) -> None:
        if bad.any():
            raise ValueError("LP: not a sum of 'sign coefficient name' terms: "
                             f"{_line(tokens, head + 1, length, bad)!r}")

    zero = np.zeros(len(head), dtype=bool)
    single = np.flatnonzero(length == 1)
    zero[single] = np.fromiter(map("0".__eq__, _take(tokens, head[single] + 1)), dtype=bool,
                               count=len(single))
    refuse((length % 3 == 1) & ~zero)
    bare = length % 3 == 2  # the leading "+" left out
    count = np.where(zero, 0, (length + bare) // 3)
    # the expression tokens, with the head of each bare expression
    inside = np.cumsum(np.bincount(head + 1, minlength=len(tokens) + 1)
                       - np.bincount(head + 1 + length, minlength=len(tokens) + 1))
    keep = inside[:-1] > 0
    keep[head[bare]] = True
    keep[head[zero] + 1] = False
    stream = list(compress(tokens, keep.tolist()))
    expr = np.repeat(np.arange(len(head)), count)
    sign = np.fromiter(map(_TERM_SIGNS.get, stream[0::3], repeat(0.0)), dtype=float,
                       count=len(expr))
    sign[(np.cumsum(count) - count)[bare & (count > 0)]] = 1.0
    refuse(np.bincount(expr[sign == 0.0], minlength=len(head)) > 0)
    values = _floats(stream[1::3], "LP") * sign
    return expr, variables.ids(stream[2::3]), values


def _lp_quad(text: str) -> tuple[list[str], list[str], np.ndarray]:
    """First names, second names and coefficients of a "[sign] coef a ^ 2"
    / "[sign] coef a * b" stream."""
    tokens = text.split()
    if tokens and tokens[0] not in _TERM_SIGNS:
        tokens.insert(0, "+")
    if len(tokens) % 5:
        raise ValueError("LP: malformed quadratic terms")
    signs, coefs, first, ops, second = (tokens[k::5] for k in range(5))
    if not set(signs) <= _TERM_SIGNS.keys() or not set(ops) <= {"^", "*"}:
        raise ValueError("LP: malformed quadratic terms")
    square = np.fromiter(map("^".__eq__, ops), dtype=bool, count=len(ops))
    second = np.where(square, np.array(first, dtype=object),
                      np.array(second, dtype=object)).tolist()
    sign = np.fromiter(map(_TERM_SIGNS.__getitem__, signs), dtype=float, count=len(signs))
    return first, second, _floats(coefs, "LP") * sign


def read_lp(path) -> ParsedModel:
    """Read an LP file as written by ``render_lp``: every token separated by
    spaces, one ``name: terms sense rhs`` line per constraint, a bracketed
    quadratic part opening at most one row, two-sided or ``free`` bounds,
    and ``\\`` comment lines and blank lines anywhere."""
    sections, _ = _sections(_read_text(path), _LP_HEADER, "\\")
    variables = _Variables()

    tokens = sections.pop("minimize", "").split()
    if not tokens or not tokens[0].endswith(":"):
        tokens.insert(0, "obj:")  # a name for an unnamed objective
    _, obj_ids, obj_values = _lp_terms(tokens, np.zeros(1, dtype=np.int64),
                                       np.array([len(tokens) - 1]), variables)

    body = sections.pop("subject to", "")
    quad_terms = None
    brackets = list(re.finditer(r"\[([^\]]*)\]", body))
    if len(brackets) > 1:
        raise ValueError("LP: more than one row has a quadratic part")
    if brackets:
        mark = brackets[0]
        head = body[body.rfind("\n", 0, mark.start()) + 1:mark.start()].split()
        if len(head) != 1 or not head[0].endswith(":"):
            raise ValueError("LP: a quadratic part must follow its row's name")
        first, second, quad_values = _lp_quad(mark.group(1))
        # a "+" after the bracket joins it to the linear terms
        body = body[:mark.start()] + re.sub(r"^[ \t]*\+?", " ", body[mark.end():], count=1)
    tokens, start, count = _lines(body, "LP")
    del body
    end = start + count
    names = _take(tokens, start)
    sense_tokens = _take(tokens, np.maximum(end - 2, start))
    bad = ((count < 3)
           | ~np.fromiter(map(str.endswith, names, repeat(":")), dtype=bool, count=len(names))
           | ~np.fromiter(map(_LP_SENSES.__contains__, sense_tokens), dtype=bool,
                          count=len(names)))
    if bad.any():
        raise ValueError("LP: not a 'name: terms sense rhs' line: "
                         f"{_line(tokens, start, count, bad)!r}")
    row_names = list(map(itemgetter(slice(None, -1)), names))
    senses = list(map(_LP_SENSES.__getitem__, sense_tokens))
    rhs = _floats(_take(tokens, end - 1), "LP")
    row_ids, var_ids, values = _lp_terms(tokens, start, count - 3, variables)
    del tokens, names, sense_tokens
    if brackets:
        quad_terms = (head[0][:-1], *variables.pair_ids(first, second), quad_values)
        del first, second

    tokens, start, count = _lines(sections.pop("bounds", ""), "LP")
    two_sided = count == 5
    after = start + np.minimum(1, count - 1)  # the second token, clipped to the line
    shapes = zip(count.tolist(), _take(tokens, after),
                 _take(tokens, np.where(two_sided, start + 3, after)))
    bad = ~np.fromiter(map(_LP_BOUND_SHAPES.__contains__, shapes), dtype=bool, count=len(start))
    if bad.any():
        raise ValueError("LP: not a 'lo <= name <= hi' or 'name free' line: "
                         f"{_line(tokens, start, count, bad)!r}")
    bound_ids = variables.ids(_take(tokens, np.where(two_sided, start + 2, start)))
    lo = np.full(len(start), -math.inf)
    hi = np.full(len(start), math.inf)
    lo[two_sided] = _floats(_take(tokens, start[two_sided]), "LP")
    hi[two_sided] = _floats(_take(tokens, start[two_sided] + 4), "LP")
    variables.set("lb", bound_ids, lo)
    variables.set("ub", bound_ids, hi)
    variables.set("kind", variables.ids(sections.pop("generals", "").split()), _INTEGER)
    binary = variables.ids(sections.pop("binaries", "").split())
    for fname, value in (("kind", _BINARY), ("lb", 0.0), ("ub", 1.0)):
        variables.set(fname, binary, value)

    var_names, kinds, lb, ub = variables.arrays()
    flat = ExportedModel(
        var_names, kinds, lb, ub,
        np.bincount(obj_ids, weights=obj_values, minlength=len(var_names)),
        sparse.csr_array((values, (row_ids, var_ids)), shape=(len(row_names), len(var_names))),
        row_names, senses, rhs, QuadEntry(*quad_terms, var_names) if quad_terms else None)
    return _parsed(flat, dict(variables.index))
