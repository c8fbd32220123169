"""Model file export (MPS and LP) with a bundled reader for round-trips.

``expand_model`` turns a fixed-size ``MipModel`` into one array-backed flat
model: the objective vector ``c``, the constraint matrix ``A`` (a ``Csr``:
numpy arrays in ``scipy.sparse.csr_array``'s layout, so export needs no
SciPy) with row names, senses and right-hand sides, variable names, kinds
and bounds ``lb``/``ub``, and the quadratic variance row as variable-id and
value arrays (``QuadEntry``). It reads the encoded rows straight off the
``ConstraintBlock`` buffers. Exponential links are expanded into big-M
piecewise-linear rows over the argument range [0, 1], built for every link
and segment at once; the internal solver never uses the expansion.
``export_model`` keeps the expansion on the model, so a second format at
the same breakpoint count reuses it. The same arrays feed the writers and,
with ``A`` converted by ``scipy.sparse.csr_array(A[:3], shape=A.shape)``, a
MILP solver such as ``scipy.optimize.milp``. The writers build each section
as an object array of text pieces, indexed from texts formatted once per
variable, row and distinct value (COLUMNS from the entries sorted column by
column, LP rows from the CSR rows, QCMATRIX and the LP bracket from the
quadratic arrays), and join the pieces of the whole file once, with no
string per line. The readers parse a file straight into the same arrays
(``ParsedModel.flat``): tokens are parsed in bulk, with no object per row,
variable or quadratic term, and the long sections (MPS COLUMNS, LP Subject
To) in line-aligned blocks of about ``READ_BLOCK_CHARS`` characters, so no
token list of a whole section exists; one ``_FloatTable`` per file parses
each distinct number once. Export requires fixed-size models
because bounded-size kernel normalizations are not linear.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import defaultdict
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

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


class Csr(NamedTuple):
    """A sparse matrix in compressed sparse row form, the layout of
    ``scipy.sparse.csr_array``: row ``i`` holds ``data[k]`` in column
    ``indices[k]`` for ``k`` in ``range(indptr[i], indptr[i + 1])``."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]


def _csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int]) -> Csr:
    """The CSR form of the entries ``vals[k]`` at (``rows[k]``, ``cols[k]``):
    columns ascending in each row, and the entries of one position summed in
    the order given, explicit zeros kept (``scipy.sparse.csr_array``'s
    canonical form of the same triplets)."""
    order = np.lexsort((cols, rows))  # stable: repeats keep the order given
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    data = vals[first]
    repeat = ~first
    # np.add.at adds one entry after the other, so each sum runs in order
    np.add.at(data, np.cumsum(first)[repeat] - 1, vals[repeat])
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[first], minlength=shape[0]), out=indptr[1:])
    return Csr(data, cols[first], indptr, shape)


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
    ``Csr`` matrix ``A`` is the linear constraint ``row_names[i]``:
    ``A[i] . x  senses[i]  rhs[i]``, its column indices ascending; a
    ``scipy.sparse.csr_array`` with sorted indices works in its place, and
    ``scipy.sparse.csr_array(A[:3], shape=A.shape)`` turns ``A`` into one,
    for example for ``scipy.optimize.milp``. The
    linear part of the variance row comes last; its quadratic terms are the
    arrays of ``quad``. ``variables``, ``constraints`` and ``objective`` are
    views built from these arrays.
    """

    names: list[str]
    kinds: list[str]
    lb: np.ndarray
    ub: np.ndarray
    c: np.ndarray
    A: Csr
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

    A = _csr(*(np.concatenate(parts) for parts in (rows, cols, vals)),
             (len(row_names), len(names)))
    c = np.zeros(len(names))
    for j, coef in model.objective.items():
        c[j] += coef
    return ExportedModel(names, kinds, np.array(lb), np.array(ub), c, A,
                         row_names, senses, np.concatenate(rhs), quad)


def export_model(model: MipModel, path, fmt: str = "mps",
                 breakpoints: int = DEFAULT_BREAKPOINTS) -> ExportedModel:
    """Write the model to ``path`` in MPS or LP form; returns the flat model.

    The model keeps its last expansion, so writing it again at the same
    breakpoint count, in either format, expands it no second time and
    returns the same ``ExportedModel``.
    """
    if model._exported is not None and model._exported[0] == breakpoints:
        flat = model._exported[1]
    else:
        flat = expand_model(model, breakpoints)
        model._exported = (breakpoints, flat)
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
#
# Each section is an object array of text pieces, taken by index from texts
# formatted once per variable, row or distinct value; the file is the pieces
# of every section joined once.


def _value_texts(values, text: Callable[[float], str]) -> np.ndarray:
    """``text(v)`` of every value, formatted once per distinct value (bit
    pattern): the kernel rows repeat one coefficient over every node pair,
    so an exported model has a few hundred distinct coefficients among
    ~10^5 entries."""
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64),
                              return_inverse=True)
    return np.array([text(value) for value in bits.view(np.float64).tolist()],
                    dtype=object)[inverse]


def _pieces(*parts) -> np.ndarray:
    """The pieces of one line per entry, entry after entry: ``parts[0][i]``,
    ``parts[1][i]``, ...; a str part is the same on every line."""
    count = next(len(part) for part in parts if not isinstance(part, str))
    out = np.empty((count, len(parts)), dtype=object)
    for k, part in enumerate(parts):
        out[:, k] = part
    return out.ravel()


def _joined(sections) -> str:
    return "".join(chain.from_iterable(sections))


def _repr_line(value: float) -> str:
    return f"{value!r}\n"


def _mps_bound(name: str, kind: str, lo: float, hi: float) -> str:
    if kind == "binary":
        return f" BV BND  {name}\n"
    if kind == "integer":
        return f" LI BND  {name}  {int(lo)}\n UI BND  {name}  {int(hi)}\n"
    if math.isinf(lo) and math.isinf(hi):
        return f" FR BND  {name}\n"
    text = f" LO BND  {name}  {lo!r}\n" if not math.isinf(lo) else f" MI BND  {name}\n"
    if not math.isinf(hi):
        text += f" UP BND  {name}  {hi!r}\n"
    return text


def _bounds(flat: ExportedModel, text: Callable[[str, str, float, float], str]) -> list[str]:
    return list(map(text, flat.names, flat.kinds, flat.lb.tolist(), flat.ub.tolist()))


def _mps_columns(flat: ExportedModel, heads: np.ndarray, row_texts: np.ndarray) -> np.ndarray:
    """COLUMNS, column by column with rows ascending and the objective last.

    A column with no entry at all is written as a zero objective entry, and
    each run of integer columns sits between INTORG/INTEND markers.
    """
    A, nv = flat.A, len(flat.names)
    empty = np.bincount(A.indices, minlength=nv) == 0
    obj_cols = np.flatnonzero((flat.c != 0.0) | empty)
    # the entries of A and then the objective row, column by column
    rows = np.concatenate((np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)),
                           np.full(len(obj_cols), len(flat.row_names))))
    cols = np.concatenate((A.indices, obj_cols))
    order = np.lexsort((rows, cols))
    owners, rows = cols[order], rows[order]
    values = np.concatenate((A.data, flat.c[obj_cols]))[order]
    starts = np.searchsorted(owners, np.arange(nv + 1))  # the CSC column pointers
    pieces = _pieces(heads[owners], row_texts[rows], _value_texts(values, _repr_line))
    # marker k sits before column switches[k]; even markers open an integer run
    switches = np.flatnonzero(np.diff(flat.integrality, prepend=0, append=0))
    flags = ("'INTORG'", "'INTEND'")
    markers = [f"    MARKER{k}    'MARKER'    {flags[k % 2]}\n" for k in range(len(switches))]
    return np.insert(pieces, 3 * starts[switches], np.array(markers, dtype=object))


_MPS_ROW_TYPES = {"<=": " L  ", ">=": " G  ", "==": " E  "}


def render_mps(flat: ExportedModel) -> str:
    # "    name  " opens a COLUMNS or QCMATRIX line, "row  " follows it
    heads = np.array([f"    {name}  " for name in flat.names], dtype=object)
    row_texts = np.array([f"{name}  " for name in flat.row_names + [OBJ_NAME]], dtype=object)
    nonzero = np.flatnonzero(flat.rhs != 0.0)
    sections = [
        [f"NAME graphbo_acquisition\nOBJSENSE\n    MIN\nROWS\n N  {OBJ_NAME}\n"],
        _pieces(list(map(_MPS_ROW_TYPES.__getitem__, flat.senses)), flat.row_names, "\n"),
        ["COLUMNS\n"], _mps_columns(flat, heads, row_texts),
        ["RHS\n"], _pieces("    RHS  ", row_texts[nonzero],
                           _value_texts(flat.rhs[nonzero], _repr_line)),
        ["BOUNDS\n"], _bounds(flat, _mps_bound)]
    quad = flat.quad
    if quad is not None:
        ids, inverse = np.unique(quad.second, return_inverse=True)
        seconds = np.array([f"{flat.names[j]}  " for j in ids.tolist()], dtype=object)[inverse]
        sections += [[f"QCMATRIX   {quad.row}\n"],
                     _pieces(heads[quad.first], seconds, _value_texts(quad.values, _repr_line))]
    sections.append(["ENDATA\n"])
    return _joined(sections)


def _lp_coef(coef: float) -> str:
    return f" {'-' if coef < 0 else '+'} {abs(coef)!r}"


def _lp_lead(coef: float) -> str:
    """The coefficient text of a sum's first term: no "+" and no space."""
    return f"- {abs(coef)!r}" if coef < 0 else repr(abs(coef))


def _lp_coefs(values: np.ndarray, opens) -> np.ndarray:
    """Signed coefficient texts of sum terms; the terms at ``opens`` open
    their sum."""
    texts = _value_texts(values, _lp_coef)
    texts[opens] = _value_texts(values[opens], _lp_lead)
    return texts


def _lp_bound(name: str, kind: str, lo: float, hi: float) -> str:
    if kind == "binary":
        return ""
    if math.isinf(lo) and math.isinf(hi):
        return f" {name} free\n"
    low = "-inf" if math.isinf(lo) else repr(lo)
    high = "+inf" if math.isinf(hi) else repr(hi)
    return f" {low} <= {name} <= {high}\n"


_LP_SENSE_TEXTS = {"<=": " <= ", ">=": " >= ", "==": " = "}


def render_lp(flat: ExportedModel) -> str:
    A, quad = flat.A, flat.quad
    # " name" follows each coefficient; slice(1) picks the term that opens a sum
    tails = np.array([f" {name}" for name in flat.names], dtype=object)
    obj_cols = np.flatnonzero(flat.c)
    objective = (_pieces(_lp_coefs(flat.c[obj_cols], slice(1)), tails[obj_cols])
                 if len(obj_cols) else ["0"])
    # row i is " name: ", its terms and " sense rhs"; its first term opens
    # its sum unless the row's quadratic part comes first
    count = np.diff(A.indptr)
    heads = [f" {name}: " for name in flat.row_names]
    opens = count > 0
    if quad is not None:
        ids, inverse = np.unique(quad.second, return_inverse=True)
        factors = np.array([f" * {flat.names[j]}" for j in ids.tolist()],
                           dtype=object)[inverse]
        factors[quad.first == quad.second] = " ^ 2"
        quad_text = _joined([_pieces(_lp_coefs(quad.values, slice(1)), tails[quad.first],
                                     factors)])
        for i, name in enumerate(flat.row_names):
            if name == quad.row:
                heads[i] = f" {name}: [ {quad_text} ]" + ("" if count[i] else " + ")
                opens[i] = False
    # row i's head goes before its first term, its sense and rhs after its last
    rows = np.insert(_pieces(_lp_coefs(A.data, A.indptr[:-1][opens]), tails[A.indices]),
                     2 * np.stack((A.indptr[:-1], A.indptr[1:], A.indptr[1:]), axis=1).ravel(),
                     _pieces(heads, list(map(_LP_SENSE_TEXTS.__getitem__, flat.senses)),
                             _value_texts(flat.rhs, _repr_line)))
    sections = [["\\ graphbo acquisition model\nMinimize\n obj: "], objective,
                ["\nSubject To\n"], rows, ["Bounds\n"], _bounds(flat, _lp_bound)]
    kinds = np.array(flat.kinds)
    for header, kind in (("Generals\n", "integer"), ("Binaries\n", "binary")):
        ids = np.flatnonzero(kinds == kind)
        if len(ids):
            sections += [[header], _pieces(tails[ids], "\n")]
    sections.append(["End\n"])
    return _joined(sections)


# ---------------------------------------------------------------------------
# readers: each file is parsed straight into the arrays of an ExportedModel


# MPS COLUMNS and LP rows are parsed in pieces of this many characters, so
# the tokens of a whole section are never held at once: parsed in one piece
# per section, perfbench's mip_export_n6 peaked at 145-146 MiB, against
# 114-115 MiB in pieces (seeds 7 and 11, 2 vCPUs, Python 3.11)
READ_BLOCK_CHARS = 512 * 1024
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
    and repeated entries of a row are summed in file order (``_csr``). The
    other fields show it by name: ``variables`` maps each name to
    ``{"kind", "lb", "ub"}`` and ``constraints`` holds one
    ``{"name", "sense", "rhs", "coeffs"}`` dict per row (``coeffs`` keyed by
    variable name); ``quad_entries`` lists the quadratic terms as (name,
    name, value) triples. All three are read-only views whose entries are
    built on access. ``objective`` maps each variable with a nonzero
    coefficient to it.
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


def _blocks(body: str, span: tuple[int, int] = (0, 0)) -> Iterator[tuple[int, int]]:
    """Start and stop of the consecutive pieces a long section is parsed in,
    so that no token list of the whole section exists: each piece runs to
    the first line end at least ``READ_BLOCK_CHARS`` characters on, or to the
    end of ``body``, and never ends inside ``span``. An empty body is one
    empty piece."""
    start = 0
    while True:
        stop = body.find("\n", start + READ_BLOCK_CHARS) + 1 or len(body)
        if span[0] < stop < span[1]:
            stop = body.find("\n", span[1]) + 1 or len(body)
        yield start, stop
        if stop == len(body):
            return
        start = stop


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
    """float() of each token, parsed on its first lookup. A reader keeps one
    table for its whole file, so every distinct token is parsed once however
    many blocks and sections repeat it (see ``_value_texts``)."""

    def __missing__(self, token: str) -> float:
        value = self[token] = float(token)
        return value

    def parse(self, tokens: list[str], section: str) -> np.ndarray:
        """float() of every token."""
        try:
            return np.fromiter(map(self.__getitem__, tokens), dtype=float,
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
    numbers = _FloatTable()
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
    # each variable takes the kind of the marker run it first appears in
    variables = _Variables()
    var_ids, row_ids, coefs, integer = [], [], [], False
    body = sections.pop("columns", "")
    for lo, hi in _blocks(body):
        columns, rows, values = _fields(body[lo:hi], 3, "COLUMNS")
        ids = _lookup(column_rows, rows, "COLUMNS", "undeclared row")
        start = 0
        for stop in np.flatnonzero(ids == -1).tolist() + [len(columns)]:
            seen = len(variables.index)
            var_ids.append(variables.ids(columns[start:stop]))
            if integer:
                variables.set("kind", np.arange(seen, len(variables.index)), _INTEGER)
            if stop < len(columns):
                integer = values[stop] == "'INTORG'"
            start = stop + 1
        coefs.append(numbers.parse(list(compress(values, (ids != -1).tolist())), "COLUMNS"))
        row_ids.append(ids[ids != -1])
    del body
    var_ids, row_ids, coefs = map(np.concatenate, (var_ids, row_ids, coefs))

    rhs = np.zeros(nrows)
    _, rhs_rows, rhs_values = _fields(sections.pop("rhs", ""), 3, "RHS")
    rhs[_lookup(row_index, rhs_rows, "RHS", "not a constraint row")] = \
        numbers.parse(rhs_values, "RHS")

    tokens, start, count = _lines(sections.pop("bounds", ""), "BOUNDS")
    types = _lookup(_MPS_BOUND_CODES, _take(tokens, start), "BOUNDS", "unsupported bound type")
    takes_value = np.array([_LINE_VALUE in rule for rule in _MPS_BOUNDS.values()])[types]
    bad = (count < 3) | (count > 4) | (takes_value & (count < 4))
    if bad.any():
        raise ValueError("BOUNDS: not a 'type bound name [value]' line: "
                         f"{_line(tokens, start, count, bad)!r}")
    bound_ids = variables.ids(_take(tokens, start + 2))
    line_values = np.full(len(start), math.nan)
    line_values[count == 4] = numbers.parse(_take(tokens, start[count == 4] + 3), "BOUNDS")
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
                      numbers.parse(quad_values, "QCMATRIX"))
        del first, second, quad_values

    var_names, kinds, lb, ub = variables.arrays()
    objective = row_ids == nrows
    entries = row_ids >= 0
    entries[objective] = False
    flat = ExportedModel(
        var_names, kinds, lb, ub,
        np.bincount(var_ids[objective], weights=coefs[objective], minlength=len(var_names)),
        _csr(row_ids[entries], var_ids[entries], coefs[entries], (nrows, len(var_names))),
        row_names, senses, rhs, QuadEntry(*quad_terms, var_names) if quad_terms else None)
    return _parsed(flat, dict(variables.index))


_TERM_SIGNS = {"+": 1.0, "-": -1.0}


def _lp_terms(tokens: list[str], head: np.ndarray, length: np.ndarray, variables: _Variables,
              numbers: _FloatTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    values = numbers.parse(stream[1::3], "LP") * sign
    return expr, variables.ids(stream[2::3]), values


def _lp_quad(text: str, numbers: _FloatTable) -> tuple[list[str], list[str], np.ndarray]:
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
    return first, second, numbers.parse(coefs, "LP") * sign


def _lp_rows(text: str, variables: _Variables, numbers: _FloatTable):
    """Names, senses and right-hand sides of the ``name: terms sense rhs``
    lines of ``text``, and their terms as row index, variable id and
    coefficient arrays."""
    tokens, start, count = _lines(text, "LP")
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
    return (list(map(itemgetter(slice(None, -1)), names)),
            list(map(_LP_SENSES.__getitem__, sense_tokens)),
            numbers.parse(_take(tokens, end - 1), "LP"),
            *_lp_terms(tokens, start, count - 3, variables, numbers))


def read_lp(path) -> ParsedModel:
    """Read an LP file as written by ``render_lp``: every token separated by
    spaces, one ``name: terms sense rhs`` line per constraint, a bracketed
    quadratic part opening at most one row, two-sided or ``free`` bounds,
    and ``\\`` comment lines and blank lines anywhere."""
    sections, _ = _sections(_read_text(path), _LP_HEADER, "\\")
    variables, numbers = _Variables(), _FloatTable()

    tokens = sections.pop("minimize", "").split()
    if not tokens or not tokens[0].endswith(":"):
        tokens.insert(0, "obj:")  # a name for an unnamed objective
    _, obj_ids, obj_values = _lp_terms(tokens, np.zeros(1, dtype=np.int64),
                                       np.array([len(tokens) - 1]), variables, numbers)

    body = sections.pop("subject to", "")
    brackets = [(mark.span(), mark.group(1)) for mark in re.finditer(r"\[([^\]]*)\]", body)]
    if len(brackets) > 1:
        raise ValueError("LP: more than one row has a quadratic part")
    span, quad = (0, 0), None
    if brackets:
        span, terms = brackets[0]
        head = body[body.rfind("\n", 0, span[0]) + 1:span[0]].split()
        if len(head) != 1 or not head[0].endswith(":"):
            raise ValueError("LP: a quadratic part must follow its row's name")
        quad = (head[0][:-1], *_lp_quad(terms, numbers))
    row_names, senses, rhs, row_ids, var_ids, values = [], [], [], [], [], []
    for lo, hi in _blocks(body, span):
        text = body[lo:hi]
        if quad is not None and lo <= span[0] < hi:
            # a "+" after the bracket joins it to the linear terms
            text = body[lo:span[0]] + re.sub(r"^[ \t]*\+?", " ", body[span[1]:hi], count=1)
        names, block_senses, block_rhs, rows, ids, block_values = \
            _lp_rows(text, variables, numbers)
        row_ids.append(rows + len(row_names))
        row_names += names
        senses += block_senses
        rhs.append(block_rhs)
        var_ids.append(ids)
        values.append(block_values)
    del body, brackets
    rhs, row_ids, var_ids, values = map(np.concatenate, (rhs, row_ids, var_ids, values))
    if quad is not None:
        name, first, second, quad_values = quad
        quad = (name, *variables.pair_ids(first, second), quad_values)

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
    lo[two_sided] = numbers.parse(_take(tokens, start[two_sided]), "LP")
    hi[two_sided] = numbers.parse(_take(tokens, start[two_sided] + 4), "LP")
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
        _csr(row_ids, var_ids, values, (len(row_names), len(var_names))),
        row_names, senses, rhs, QuadEntry(*quad, var_names) if quad is not None else None)
    return _parsed(flat, dict(variables.index))
