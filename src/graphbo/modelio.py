"""Model file export (MPS and LP) with a bundled reader for round-trips.

``expand_model`` turns a fixed-size ``MipModel`` into one array-backed flat
model: the objective vector ``c``, the constraint matrix ``A`` (a
``scipy.sparse`` CSR array) with row names, senses and right-hand sides,
variable names, kinds and bounds ``lb``/``ub``, and the quadratic variance
row. Exponential links are expanded into big-M piecewise-linear rows over
the argument range [0, 1], built for every link and segment at once; the
internal solver never uses the expansion. The same arrays feed the writers
(COLUMNS from the CSC view, LP rows from CSR) and a MILP solver such as
``scipy.optimize.milp``. The readers split each section once and parse its
tokens in bulk. Export requires fixed-size models because bounded-size
kernel normalizations are not linear.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, islice
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .encode import LinearConstraint, MipModel
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


@dataclass
class QuadEntry:
    row: str
    entries: list[tuple[str, str, float]]


class FlatVariable(NamedTuple):
    name: str
    kind: str  # "binary" | "integer" | "continuous"
    lb: float
    ub: float


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


@dataclass(eq=False)
class ExportedModel:
    """Flat model as written to disk.

    Variable ``j`` is ``names[j]`` of kind ``kinds[j]`` with bounds
    ``lb[j]``/``ub[j]`` and objective coefficient ``c[j]``. Row ``i`` of the
    CSR array ``A`` is the linear constraint ``row_names[i]``:
    ``A[i] . x  senses[i]  rhs[i]``, its column indices ascending. The
    linear part of the variance row comes last; its quadratic entries are
    in ``quad``. ``variables``, ``constraints`` and ``objective`` are views
    built from these arrays.
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
    variables, constraints = model.variables, model.constraints
    names = [v.name for v in variables]
    kinds = [v.kind for v in variables]
    lb = [float(v.lb) for v in variables]
    ub = [float(v.ub) for v in variables]
    row_names = [con.name for con in constraints]
    senses = [con.sense for con in constraints]
    rhs = [con.rhs for con in constraints]
    # the encoded rows already hold merged coefficients in ascending column order
    lengths = np.array([len(con.coeffs) for con in constraints], dtype=np.int64)
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(
        con.coeffs for con in constraints)), dtype=float, count=2 * int(lengths.sum()))
    rows = [np.repeat(np.arange(len(constraints)), lengths)]
    cols = [pairs[0::2].astype(np.int64)]
    vals = [pairs[1::2]]

    if model.exp_links:
        z_names, z_rows, z_senses, z_rhs, coo = _piecewise_block(
            model, breakpoints, len(names), len(row_names))
        names += z_names
        kinds += ["binary"] * len(z_names)
        lb += [0.0] * len(z_names)
        ub += [1.0] * len(z_names)
        row_names += z_rows
        senses += z_senses
        rhs += z_rhs.tolist()
        for parts, part in zip((rows, cols, vals), coo):
            parts.append(part)

    q = model.quad.q
    kernel = [names[i] for i in model.quad.kernel_vars]
    sigma = names[model.quad.sigma]
    qi, qj = np.nonzero(q)
    quad = QuadEntry(model.quad.name, [(sigma, sigma, 1.0)] + [
        (kernel[i], kernel[j], value)
        for i, j, value in zip(qi.tolist(), qj.tolist(), q[qi, qj].tolist())])
    # linear part of the variance row: -kxx <= 0
    rows.append(np.array([len(row_names)]))
    cols.append(np.array([model.quad.kxx]))
    vals.append(np.array([-1.0]))
    row_names.append(model.quad.name)
    senses.append("<=")
    rhs.append(0.0)

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
                         row_names, senses, np.array(rhs, dtype=float), quad)


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
    if flat.quad is not None:
        lines.append(f"QCMATRIX   {flat.quad.row}")
        lines += [f"    {a}  {b}  {coef!r}" for a, b, coef in flat.quad.entries]
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
    quad_text = None
    if flat.quad is not None:
        entries = flat.quad.entries
        quad_text = _lp_sum([f"{coef} {a} ^ 2" if a == b else f"{coef} {a} * {b}"
                             for (a, b, _), coef in zip(
                                 entries, _per_value([e[2] for e in entries], _lp_coef))])
    terms = iter([f"{coef} {name}" for coef, name in zip(
        _per_value(flat.A.data, _lp_coef), map(names.__getitem__, flat.A.indices.tolist()))])
    sense_txt = {"<=": "<=", ">=": ">=", "==": "="}
    for name, sense, rhs, count in zip(flat.row_names, flat.senses, flat.rhs.tolist(),
                                       np.diff(flat.A.indptr).tolist()):
        text = _lp_sum(islice(terms, count))
        if quad_text is not None and name == flat.quad.row:
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
# readers


@dataclass
class ParsedModel:
    """What the bundled reader recovers from an exported file."""

    variables: dict[str, dict]
    constraints: list[dict]
    objective: dict[str, float]
    quad_entries: list[tuple[str, str, float]] = field(default_factory=list)

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)


# A section header is alone on its line; NAME and QCMATRIX carry one name.
# The lookahead lets the search skip most data lines before the alternation.
_MPS_HEADER = re.compile(
    r"\n[ \t]*(?=[A-Z])"
    r"(?:(OBJSENSE|ROWS|COLUMNS|RHS|BOUNDS|ENDATA)|(NAME|QCMATRIX)[ \t]+\S+)[ \t\r]*$",
    re.M)
_LP_HEADER = re.compile(
    r"\n[ \t]*(?=[a-z])(minimize|maximize|subject to|bounds|generals|binaries|end)[ \t\r]*$",
    re.M | re.I)
_SIGNS = ("+", "-")


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _sections(text: str, header: re.Pattern, comment: str) -> dict[str, str]:
    """Body of each section, keyed by the header's lowercased keyword;
    repeated sections are joined and comment lines are dropped. Text before
    the first header is ignored."""
    text = "\n" + text
    marks = list(header.finditer(text))
    bodies: dict[str, str] = {}
    for mark, following in zip(marks, marks[1:] + [None]):
        key = mark.group(mark.lastindex).lower()
        end = following.start() if following is not None else len(text)
        bodies[key] = bodies.get(key, "") + text[mark.end():end]
    pattern = re.compile(rf"^[ \t]*{re.escape(comment)}.*$", re.M)
    return {key: pattern.sub("", body) if comment in body else body
            for key, body in bodies.items()}


def _fields(body: str, width: int, section: str) -> list[list[str]]:
    """The section's tokens as ``width`` columns, one entry per line."""
    tokens = body.split()
    if len(tokens) % width:
        raise ValueError(f"{section}: every line must hold {width} fields")
    return [tokens[k::width] for k in range(width)]


def _floats(tokens: list[str]) -> np.ndarray:
    """float() of every token, parsed once per distinct token (see
    ``_per_value``)."""
    parsed = {token: float(token) for token in dict.fromkeys(tokens)}
    return np.fromiter(map(parsed.__getitem__, tokens), dtype=float, count=len(tokens))


def _variable(variables: dict[str, dict], name: str) -> dict:
    """The entry of ``name``, added as a continuous [0, inf) variable when
    the file has not named it before."""
    var = variables.get(name)
    if var is None:
        var = variables[name] = {"kind": "continuous", "lb": 0.0, "ub": math.inf}
    return var


def _ids(names: list[str], index: dict[str, int]) -> np.ndarray:
    """Ids of ``names`` in ``index``; unseen names are added in order of
    first appearance."""
    for name in dict.fromkeys(names):
        index.setdefault(name, len(index))
    return np.fromiter(map(index.__getitem__, names), dtype=np.int64, count=len(names))


def _coefficient_dicts(row_ids: np.ndarray, var_ids: np.ndarray, values: np.ndarray,
                       var_names: list[str], num_rows: int) -> list[dict[str, float]]:
    """One {variable name: coefficient} dict per row from parallel entry
    arrays.

    A variable repeated within a row gets the sum of its entries, added in
    file order; keys keep the order of their first entry in the row.
    """
    width = max(len(var_names), 1)
    unique, first, inverse = np.unique(row_ids * width + var_ids,
                                       return_index=True, return_inverse=True)
    sums = np.bincount(inverse, weights=values, minlength=len(unique))
    rows = unique // width
    order = np.lexsort((first, rows))
    entries = zip(map(var_names.__getitem__, (unique % width)[order].tolist()),
                  sums[order].tolist())
    return [dict(islice(entries, count))
            for count in np.bincount(rows, minlength=num_rows).tolist()]


def read_mps(path) -> ParsedModel:
    """Read an MPS file as written by ``render_mps``: fixed field counts per
    line (two in ROWS, three in COLUMNS, RHS and QCMATRIX), ``*`` comment
    lines and blank lines anywhere."""
    sections = _sections(_read_text(path), _MPS_HEADER, "*")
    kinds, names = _fields(sections.get("rows", ""), 2, "ROWS")
    sense_map = {"L": "<=", "G": ">=", "E": "=="}
    objective_row = next((name for kind, name in zip(kinds, names) if kind == "N"), None)
    row_names = [name for kind, name in zip(kinds, names) if kind != "N"]
    senses = [sense_map[kind] for kind in kinds if kind != "N"]
    row_index = {name: i for i, name in enumerate(row_names)}
    nrows = len(row_names)

    # the objective is row nrows, marker lines are row -1
    columns, rows, values = _fields(sections.get("columns", ""), 3, "COLUMNS")
    column_rows = dict(row_index)
    column_rows["'MARKER'"] = -1
    if objective_row is not None:
        column_rows[objective_row] = nrows
    row_ids = np.fromiter(map(column_rows.__getitem__, rows), dtype=np.int64,
                          count=len(rows))
    markers = np.flatnonzero(row_ids < 0).tolist()
    # variables are numbered by first appearance; each takes the kind of the
    # marker run it first appears in
    index: dict[str, int] = {}
    var_kinds: list[str] = []
    var_ids = []
    kind, start = "continuous", 0
    for stop in markers + [len(columns)]:
        seen = len(index)
        var_ids.append(_ids(columns[start:stop], index))
        var_kinds += [kind] * (len(index) - seen)
        if stop < len(columns):
            kind = "integer" if values[stop] == "'INTORG'" else "continuous"
        start = stop + 1
    coefs = _floats(list(compress(values, (row_ids >= 0).tolist())))
    row_ids = row_ids[row_ids >= 0]
    var_ids = np.concatenate(var_ids)
    # drop the token lists before the dicts are built: every collector pass
    # over the young generation would walk them again
    del columns, rows, values
    # zero objective entries only name columns that hold no other entry
    keep = (row_ids < nrows) | (coefs != 0.0)
    var_names = list(index)
    coeffs = _coefficient_dicts(row_ids[keep], var_ids[keep], coefs[keep], var_names,
                                nrows + 1)
    objective = coeffs.pop()
    variables = {name: {"kind": kind, "lb": 0.0, "ub": math.inf}
                 for name, kind in zip(var_names, var_kinds)}

    rhs = np.zeros(nrows)
    _, rhs_rows, rhs_values = _fields(sections.get("rhs", ""), 3, "RHS")
    rhs[list(map(row_index.__getitem__, rhs_rows))] = _floats(rhs_values)

    for line in sections.get("bounds", "").splitlines():
        head = line.split()
        if not head:
            continue
        btype, name = head[0], head[2]
        var = _variable(variables, name)
        if btype == "BV":
            var.update(kind="binary", lb=0.0, ub=1.0)
        elif btype == "UI":
            var.update(kind="integer", ub=float(head[3]))
        elif btype == "LI":
            var.update(kind="integer", lb=float(head[3]))
        elif btype == "UP":
            var["ub"] = float(head[3])
        elif btype == "LO":
            var["lb"] = float(head[3])
        elif btype == "FR":
            var.update(lb=-math.inf, ub=math.inf)
        elif btype == "MI":
            var["lb"] = -math.inf
        else:
            raise ValueError(f"BOUNDS: unsupported bound type {btype!r}")

    first, second, quad_values = _fields(sections.get("qcmatrix", ""), 3, "QCMATRIX")
    quad_entries = list(zip(first, second, map(float, quad_values)))
    for name in first:
        _variable(variables, name)

    constraints = [{"name": name, "sense": sense, "rhs": value, "coeffs": row}
                   for name, sense, value, row in zip(row_names, senses, rhs.tolist(),
                                                      coeffs)]
    return ParsedModel(variables, constraints, objective, quad_entries)


def _push_terms(stream: list[str], tokens: list[str]) -> int:
    """Append one expression's "sign coefficient name" terms to ``stream``
    and return how many there are. A leading "+" may be left out, and "0"
    is the empty expression; every token is separated by spaces, so
    scientific notation like 1e-06 stays one token."""
    if tokens == ["0"]:
        return 0
    if tokens and tokens[0] not in _SIGNS:
        tokens.insert(0, "+")
    if len(tokens) % 3:
        raise ValueError(f"LP: not a sum of 'sign coefficient name' terms: "
                         f"{' '.join(tokens)!r}")
    stream += tokens
    return len(tokens) // 3


def _term_values(stream: list[str], index: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Variable ids (numbered in ``index``) and signed coefficients of a
    stream of "sign coefficient name" terms."""
    signs = stream[0::3]
    if not set(signs) <= set(_SIGNS):
        raise ValueError("LP: a term has no sign")
    values = _floats(stream[1::3])
    values[np.fromiter(map("-".__eq__, signs), dtype=bool, count=len(signs))] *= -1.0
    return _ids(stream[2::3], index), values


def _lp_quad(text: str) -> list[tuple[str, str, float]]:
    """Entries of a "[sign] coef a ^ 2" / "[sign] coef a * b" stream."""
    tokens = text.split()
    if tokens and tokens[0] not in _SIGNS:
        tokens.insert(0, "+")
    if len(tokens) % 5:
        raise ValueError("LP: malformed quadratic terms")
    signs, coefs, first, ops, second = (tokens[k::5] for k in range(5))
    if not set(signs) <= set(_SIGNS) or not set(ops) <= {"^", "*"}:
        raise ValueError("LP: malformed quadratic terms")
    return [(a, a if op == "^" else b, float(sign + coef))
            for sign, coef, a, op, b in zip(signs, coefs, first, ops, second)]


def read_lp(path) -> ParsedModel:
    """Read an LP file as written by ``render_lp``: every token separated by
    spaces, one ``name: terms sense rhs`` line per constraint, a bracketed
    quadratic part in the variance row, two-sided or ``free`` bounds, and
    ``\\`` comment lines and blank lines anywhere."""
    sections = _sections(_read_text(path), _LP_HEADER, "\\")
    index: dict[str, int] = {}

    text = sections.get("minimize", "")
    stream: list[str] = []
    _push_terms(stream, (text.split(":", 1)[1] if ":" in text else text).split())
    obj_ids, obj_values = _term_values(stream, index)

    body = sections.get("subject to", "")
    quad_entries = [entry for text in re.findall(r"\[([^\]]*)\]", body)
                    for entry in _lp_quad(text)]
    # a "+" after the bracket joins it to the linear terms
    body = re.sub(r"\[[^\]]*\][ \t]*\+?", " ", body)
    sense_map = {"<=": "<=", ">=": ">=", "=": "=="}
    row_names, senses, rhs, counts, stream = [], [], [], [], []
    for line in body.splitlines():
        name, colon, expr = line.partition(":")
        tokens = expr.split()
        if not colon and not name.strip():
            continue
        if not colon or len(tokens) < 2 or tokens[-2] not in sense_map:
            raise ValueError(f"LP: not a 'name: terms sense rhs' line: {line.strip()!r}")
        row_names.append(name.strip())
        senses.append(sense_map[tokens[-2]])
        rhs.append(float(tokens[-1]))
        counts.append(_push_terms(stream, tokens[:-2]))
    var_ids, values = _term_values(stream, index)
    row_ids = np.repeat(np.arange(len(row_names)), counts)
    del stream, body  # as in read_mps: no token lists while the dicts are built
    _ids([name for entry in quad_entries for name in entry[:2]], index)
    var_names = list(index)
    objective = _coefficient_dicts(np.zeros_like(obj_ids), obj_ids, obj_values,
                                   var_names, 1)[0]
    coeffs = _coefficient_dicts(row_ids, var_ids, values, var_names, len(row_names))

    variables = {name: {"kind": "continuous", "lb": 0.0, "ub": math.inf}
                 for name in var_names}
    for line in sections.get("bounds", "").splitlines():
        line = line.strip()
        if not line:
            continue
        if line.endswith(" free"):
            name = line[: -len(" free")].strip()
            _variable(variables, name).update(lb=-math.inf, ub=math.inf)
        else:
            lo, rest = line.split("<=", 1)
            name, hi = rest.split("<=", 1)
            var = _variable(variables, name.strip())
            var["lb"] = -math.inf if "inf" in lo else float(lo)
            var["ub"] = math.inf if "inf" in hi else float(hi)
    for name in sections.get("generals", "").split():
        _variable(variables, name)["kind"] = "integer"
    for name in sections.get("binaries", "").split():
        _variable(variables, name).update(kind="binary", lb=0.0, ub=1.0)

    constraints = [{"name": name, "sense": sense, "rhs": value, "coeffs": row}
                   for name, sense, value, row in zip(row_names, senses, rhs, coeffs)]
    return ParsedModel(variables, constraints, objective, quad_entries)
