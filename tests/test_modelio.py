"""File export round-trips and the piecewise-linear exponential expansion."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from graphbo import DomainSpec, KernelVariant, modelio
from graphbo.encode import ConstraintBlock, encode_acquisition
from graphbo.errors import UnsupportedBoundedSizeExportError
from graphbo.gp import fit
from graphbo.graphs import sample_feasible
from graphbo.modelio import (
    OBJ_NAME,
    PWL_BIG_M,
    ExportedModel,
    ParsedModel,
    QuadEntry,
    expand_model,
    export_model,
    piecewise_exp_error,
    piecewise_exp_table,
    read_lp,
    read_mps,
    render_lp,
    render_mps,
)
from graphbo.solve import solve


@pytest.fixture(scope="module")
def fitted():
    # the same draws as the function-scoped ``rng`` fixture, fitted once
    rng = np.random.default_rng(20240817)
    dom = DomainSpec(n=3, num_labels=2)
    points = [sample_feasible(dom, rng) for _ in range(4)]
    y = rng.normal(size=4)
    return dom, {variant: fit(points, y, variant, seed=0) for variant in KernelVariant}


@pytest.fixture(scope="module")
def smoke_fitted():
    # the export benchmark's smoke shape: n=4, 2 labels, 12 points
    rng = np.random.default_rng(4)
    dom = DomainSpec(n=4, num_labels=2)
    points = [sample_feasible(dom, rng) for _ in range(12)]
    y = rng.normal(size=12)
    return dom, {variant: fit(points, y, variant, seed=0) for variant in KernelVariant}


# ---------------------------------------------------------------------------
# the object-per-row export, written out loop by loop as the reference


def reference_expand(model, breakpoints):
    """Every row re-added through ``ConstraintBlock``, one big-M block per
    link and segment, and the q entries by a double loop."""
    block = ConstraintBlock()
    for v in model.variables:
        block.add_var(v.name, v.kind, v.lb, v.ub, v.tag, v.index)
    for con in model.constraints:
        block.add_con(con.name, dict(con.coeffs), con.sense, con.rhs)
    xs, ys = piecewise_exp_table(breakpoints)
    m = PWL_BIG_M
    for li, link in enumerate(model.exp_links):
        seg_ids = [block.add_var(f"z_{link.name}_{j}", "binary", 0, 1, "pwl", (li, j))
                   for j in range(len(xs) - 1)]
        block.add_con(f"EXP_{li}_sum", {z: 1.0 for z in seg_ids}, "==", 1.0)
        for j, z in enumerate(seg_ids):
            x0, x1 = float(xs[j]), float(xs[j + 1])
            slope = (float(ys[j + 1]) - float(ys[j])) / (x1 - x0)
            intercept = float(ys[j]) - slope * x0
            block.add_con(f"EXP_{li}_{j}_arglo", {link.arg: 1.0, z: -m}, ">=", x0 - m)
            block.add_con(f"EXP_{li}_{j}_arghi", {link.arg: 1.0, z: m}, "<=", x1 + m)
            block.add_con(f"EXP_{li}_{j}_ub", {link.out: 1.0, link.arg: -slope, z: m},
                          "<=", intercept + m)
            block.add_con(f"EXP_{li}_{j}_lb", {link.out: 1.0, link.arg: -slope, z: -m},
                          ">=", intercept - m)
    names = [model.variables[i].name for i in model.quad.kernel_vars]
    sigma = model.variables[model.quad.sigma].name
    entries = [(sigma, sigma, 1.0)]
    q = model.quad.q
    for i in range(len(names)):
        for j in range(len(names)):
            if q[i, j] != 0.0:
                entries.append((names[i], names[j], float(q[i, j])))
    block.add_con(model.quad.name, {model.quad.kxx: -1.0}, "<=", 0.0)
    return SimpleNamespace(variables=block.variables, constraints=list(block.constraints),
                           objective=dict(model.objective),
                           quad=SimpleNamespace(row=model.quad.name, entries=entries),
                           names=[v.name for v in block.variables])


def _num(x):
    return repr(float(x))


def reference_render_mps(flat):
    sense_code = {"<=": "L", ">=": "G", "==": "E"}
    lines = ["NAME graphbo_acquisition", "OBJSENSE", "    MIN", "ROWS", f" N  {OBJ_NAME}"]
    for con in flat.constraints:
        lines.append(f" {sense_code[con.sense]}  {con.name}")
    by_var = {i: [] for i in range(len(flat.variables))}
    for con in flat.constraints:
        for vid, coef in con.coeffs:
            by_var[vid].append((con.name, coef))
    for vid, coef in flat.objective.items():
        by_var[vid].append((OBJ_NAME, coef))
    lines.append("COLUMNS")
    in_int = False
    marker = 0
    for vid, var in enumerate(flat.variables):
        want_int = var.kind in ("binary", "integer")
        if want_int != in_int:
            flag = "'INTORG'" if want_int else "'INTEND'"
            lines.append(f"    MARKER{marker}    'MARKER'    {flag}")
            marker += 1
            in_int = want_int
        for row, coef in by_var[vid]:
            lines.append(f"    {var.name}  {row}  {_num(coef)}")
        if not by_var[vid]:
            lines.append(f"    {var.name}  {OBJ_NAME}  0.0")
    if in_int:
        lines.append(f"    MARKER{marker}    'MARKER'    'INTEND'")
    lines.append("RHS")
    for con in flat.constraints:
        if con.rhs != 0.0:
            lines.append(f"    RHS  {con.name}  {_num(con.rhs)}")
    lines.append("BOUNDS")
    for var in flat.variables:
        if var.kind == "binary":
            lines.append(f" BV BND  {var.name}")
        elif var.kind == "integer":
            lines.append(f" LI BND  {var.name}  {int(var.lb)}")
            lines.append(f" UI BND  {var.name}  {int(var.ub)}")
        elif math.isinf(var.lb) and math.isinf(var.ub):
            lines.append(f" FR BND  {var.name}")
        else:
            if not math.isinf(var.lb):
                lines.append(f" LO BND  {var.name}  {_num(var.lb)}")
            else:
                lines.append(f" MI BND  {var.name}")
            if not math.isinf(var.ub):
                lines.append(f" UP BND  {var.name}  {_num(var.ub)}")
    if flat.quad is not None:
        lines.append(f"QCMATRIX   {flat.quad.row}")
        for a, b, coef in flat.quad.entries:
            lines.append(f"    {a}  {b}  {_num(coef)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def _reference_lp_terms(coeffs):
    parts = []
    for name, coef in coeffs:
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {_num(abs(coef))} {name}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def reference_render_lp(flat):
    names = flat.names
    lines = ["\\ graphbo acquisition model", "Minimize"]
    obj = [(names[vid], coef) for vid, coef in flat.objective.items()]
    lines.append(" obj: " + (_reference_lp_terms(obj) if obj else "0"))
    lines.append("Subject To")
    sense_txt = {"<=": "<=", ">=": ">=", "==": "="}
    for con in flat.constraints:
        terms = _reference_lp_terms([(names[vid], coef) for vid, coef in con.coeffs])
        if flat.quad is not None and con.name == flat.quad.row:
            q_parts = []
            for a, b, coef in flat.quad.entries:
                sign = "-" if coef < 0 else "+"
                if a == b:
                    q_parts.append(f"{sign} {_num(abs(coef))} {a} ^ 2")
                else:
                    q_parts.append(f"{sign} {_num(abs(coef))} {a} * {b}")
            q_text = " ".join(q_parts)
            if q_text.startswith("+ "):
                q_text = q_text[2:]
            terms = f"[ {q_text} ] " + ("+ " if not terms.startswith("-") else "") + terms
        lines.append(f" {con.name}: {terms} {sense_txt[con.sense]} {_num(con.rhs)}")
    lines.append("Bounds")
    for var in flat.variables:
        if var.kind == "binary":
            continue
        if math.isinf(var.lb) and math.isinf(var.ub):
            lines.append(f" {var.name} free")
        else:
            lo = "-inf" if math.isinf(var.lb) else _num(var.lb)
            hi = "+inf" if math.isinf(var.ub) else _num(var.ub)
            lines.append(f" {lo} <= {var.name} <= {hi}")
    generals = [v.name for v in flat.variables if v.kind == "integer"]
    if generals:
        lines.append("Generals")
        lines.extend(f" {name}" for name in generals)
    binaries = [v.name for v in flat.variables if v.kind == "binary"]
    if binaries:
        lines.append("Binaries")
        lines.extend(f" {name}" for name in binaries)
    lines.append("End")
    return "\n".join(lines) + "\n"


class TestExpansion:
    def test_linear_model_counts_preserved(self, fitted):
        dom, models = fitted
        mip = encode_acquisition(models[KernelVariant.SSP], dom, 1.0)
        flat = expand_model(mip, breakpoints=16)
        # the quadratic variance row is the only addition
        assert len(flat.variables) == len(mip.variables)
        assert len(flat.constraints) == len(mip.constraints) + 1

    def test_exponential_expansion_rows(self, fitted):
        dom, models = fitted
        mip = encode_acquisition(models[KernelVariant.ESP], dom, 1.0)
        flat = expand_model(mip, breakpoints=9)
        links = len(mip.exp_links)
        segments = 8
        added_vars = links * segments
        added_rows = links * (1 + 4 * segments) + 1  # sums, big-M rows, quad row
        assert len(flat.variables) == len(mip.variables) + added_vars
        assert len(flat.constraints) == len(mip.constraints) + added_rows
        assert any(c.name == "EXP_0_sum" for c in flat.constraints)
        assert any(c.name == "EXP_0_3_ub" for c in flat.constraints)

    def test_bounded_size_export_refused(self, rng):
        dom = DomainSpec(n=3, n_min=1, num_labels=2)
        points = [sample_feasible(dom, rng) for _ in range(4)]
        model = fit(points, rng.normal(size=4), KernelVariant.SSP, seed=0)
        mip = encode_acquisition(model, dom, 1.0)
        with pytest.raises(UnsupportedBoundedSizeExportError):
            expand_model(mip)

    @pytest.mark.parametrize("variant", list(KernelVariant))
    def test_views_match_the_reference_expansion(self, fitted, variant):
        dom, models = fitted
        mip = encode_acquisition(models[variant], dom, 1.0)
        flat = expand_model(mip, breakpoints=8)
        ref = reference_expand(mip, 8)
        assert list(flat.constraints) == ref.constraints
        assert [tuple(v) for v in flat.variables] == [
            (v.name, v.kind, float(v.lb), float(v.ub)) for v in ref.variables]
        assert flat.objective == ref.objective
        assert flat.quad.row == ref.quad.row
        assert list(flat.quad.entries) == ref.quad.entries
        assert flat.names == ref.names
        assert flat.integrality.tolist() == [v.kind != "continuous" for v in ref.variables]


@pytest.mark.parametrize("breakpoints", [8, 64])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("variant", list(KernelVariant))
def test_writers_match_the_reference_byte_for_byte(variant, n, breakpoints):
    rng = np.random.default_rng(10 * n + breakpoints)
    dom = DomainSpec(n=n, num_labels=2)
    points = [sample_feasible(dom, rng) for _ in range(5)]
    model = fit(points, rng.normal(size=5), variant, seed=0, restarts=2)
    mip = encode_acquisition(model, dom, 1.0)
    flat = expand_model(mip, breakpoints)
    ref = reference_expand(mip, breakpoints)
    assert render_mps(flat) == reference_render_mps(ref)
    assert render_lp(flat) == reference_render_lp(ref)


def hand_built(quad: bool) -> ExportedModel:
    """A flat model with the writers' edge cases: an empty row, rows and an
    objective whose first coefficient is negative, a variance row with no
    linear part, a column with no entry (z) and an integer run that reaches
    the last column; ``quad`` False drops the quadratic part."""
    names = ["x", "y", "z", "w", "i", "b"]
    kinds = ["continuous"] * 4 + ["integer", "binary"]
    lb = np.array([-math.inf, 0.0, -math.inf, -1.0, 0.0, 0.0])
    ub = np.array([math.inf, math.inf, 3.5, 5.0, 4.0, 1.0])
    c = np.array([-1.0, -3.0, 0.0, 0.0, 0.5, 0.0])
    # rows: neg, empty, pos, var
    A = sparse.csr_array((np.array([-2.0, 1.5, 1.0, 0.25, 1e-06, -0.0]),
                          np.array([0, 1, 4, 1, 3, 5]), np.array([0, 3, 3, 6, 6])),
                         shape=(4, len(names)))
    entry = QuadEntry("var", np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                      np.array([1.0, -0.5, -0.5, 2.0]), names) if quad else None
    return ExportedModel(names, kinds, lb, ub, c, A, ["neg", "empty", "pos", "var"],
                         ["<=", "==", ">=", "<="], np.array([4.0, 0.0, -1.0, 0.0]), entry)


@pytest.mark.parametrize("quad", [True, False], ids=["quad", "no_quad"])
def test_writers_match_the_reference_on_edge_cases(quad):
    flat = hand_built(quad)
    mps, lp = render_mps(flat), render_lp(flat)
    assert mps == reference_render_mps(flat)
    assert lp == reference_render_lp(flat)
    # the cases are in the files
    assert "    z  OBJ  0.0\n" in mps and "    MARKER1    'MARKER'    'INTEND'\nRHS\n" in mps
    assert " obj: - 1.0 x - 3.0 y + 0.5 i\n" in lp and " empty:  = 0.0\n" in lp
    assert " neg: - 2.0 x + 1.5 y + 1.0 i <= 4.0\n" in lp
    assert (" var: [ 1.0 x ^ 2 - 0.5 x * y - 0.5 y * x + 2.0 y ^ 2 ] +  <= 0.0\n" in lp) == quad


def test_one_expansion_serves_both_formats(tmp_path, fitted):
    dom, models = fitted
    mip = encode_acquisition(models[KernelVariant.ESSP], dom, 1.0)
    flats = {}
    for breakpoints in (8, 16):
        for fmt in ("mps", "lp"):
            flats[breakpoints, fmt] = export_model(
                mip, tmp_path / f"model{breakpoints}.{fmt}", fmt=fmt, breakpoints=breakpoints)
    assert flats[8, "lp"] is flats[8, "mps"]
    assert flats[16, "mps"] is not flats[8, "mps"]
    assert flats[16, "lp"] is flats[16, "mps"]
    for breakpoints in (8, 16):
        fresh = expand_model(mip, breakpoints)
        assert (tmp_path / f"model{breakpoints}.mps").read_bytes() == render_mps(fresh).encode()
        assert (tmp_path / f"model{breakpoints}.lp").read_bytes() == render_lp(fresh).encode()


class TestPiecewiseExp:
    def test_table_endpoints(self):
        xs, ys = piecewise_exp_table(5)
        assert xs[0] == 0.0 and xs[-1] == 1.0
        assert ys[0] == 1.0 and ys[-1] == math.e

    def test_64_breakpoints_within_tolerance(self):
        assert piecewise_exp_error(64) <= 1e-3

    def test_error_shrinks_with_refinement(self):
        assert piecewise_exp_error(64) < piecewise_exp_error(8)

    def test_chord_overestimates_convex_exp(self):
        xs, ys = piecewise_exp_table(16)
        grid = np.linspace(0, 1, 1001)
        assert np.all(np.interp(grid, xs, ys) >= np.exp(grid) - 1e-12)


def assert_same_arrays(back: ExportedModel, flat: ExportedModel) -> None:
    """A read-back model equals the written one, array by array (==)."""
    # written column j is read-back column perm[j]
    assert sorted(back.names) == sorted(flat.names)
    position = {name: j for j, name in enumerate(back.names)}
    perm = np.array([position[name] for name in flat.names])
    back_a, flat_a = (sparse.csr_array((m.A.data, m.A.indices, m.A.indptr), shape=m.A.shape)
                      for m in (back, flat))
    assert (back_a[:, perm] - flat_a).nnz == 0
    assert back_a.shape == flat_a.shape
    assert np.array_equal(back.c[perm], flat.c)
    assert np.array_equal(back.lb[perm], flat.lb)
    assert np.array_equal(back.ub[perm], flat.ub)
    assert [back.kinds[j] for j in perm] == flat.kinds
    assert back.row_names == flat.row_names
    assert back.senses == flat.senses
    assert np.array_equal(back.rhs, flat.rhs)
    # the quadratic terms by name, in order, values ==
    assert back.quad.row == flat.quad.row
    assert np.array_equal(back.quad.first, perm[flat.quad.first])
    assert np.array_equal(back.quad.second, perm[flat.quad.second])
    assert np.array_equal(back.quad.values, flat.quad.values)


@pytest.mark.parametrize("variant", list(KernelVariant))
@pytest.mark.parametrize("fmt", ["mps", "lp"])
class TestRoundTrip:
    def test_counts_and_objective(self, tmp_path, fitted, variant, fmt):
        dom, models = fitted
        mip = encode_acquisition(models[variant], dom, 1.0)
        path = tmp_path / f"model.{fmt}"
        flat = export_model(mip, path, fmt=fmt, breakpoints=8)
        parsed = read_mps(path) if fmt == "mps" else read_lp(path)
        assert parsed.num_variables == len(flat.variables)
        assert parsed.num_constraints == len(flat.constraints)
        expected_obj = {flat.names[vid]: coef for vid, coef in flat.objective.items()}
        assert parsed.objective == expected_obj

    def test_rows_and_bounds_survive(self, tmp_path, fitted, variant, fmt):
        dom, models = fitted
        mip = encode_acquisition(models[variant], dom, 1.0)
        path = tmp_path / f"model.{fmt}"
        flat = export_model(mip, path, fmt=fmt, breakpoints=8)
        parsed = read_mps(path) if fmt == "mps" else read_lp(path)
        names = flat.names
        by_name = {c["name"]: c for c in parsed.constraints}
        for con in flat.constraints:
            got = by_name[con.name]
            assert got["sense"] == con.sense
            assert got["rhs"] == con.rhs
            assert got["coeffs"] == {names[vid]: coef for vid, coef in con.coeffs}
        for var in flat.variables:
            got = parsed.variables[var.name]
            assert got["kind"] == var.kind
            assert got["lb"] == var.lb and got["ub"] == var.ub

    def test_quadratic_entries_survive(self, tmp_path, fitted, variant, fmt):
        dom, models = fitted
        mip = encode_acquisition(models[variant], dom, 1.0)
        path = tmp_path / f"model.{fmt}"
        flat = export_model(mip, path, fmt=fmt, breakpoints=8)
        parsed = read_mps(path) if fmt == "mps" else read_lp(path)
        assert sorted(parsed.quad_entries) == sorted(flat.quad.entries)

    def test_arrays_match_exactly(self, tmp_path, fitted, smoke_fitted, variant, fmt):
        # the n=3 models at 8 breakpoints and the smoke shape at 16
        for (dom, models), breakpoints in ((fitted, 8), (smoke_fitted, 16)):
            mip = encode_acquisition(models[variant], dom, 1.0)
            path = tmp_path / f"model{dom.n}.{fmt}"
            flat = export_model(mip, path, fmt=fmt, breakpoints=breakpoints)
            back = (read_mps(path) if fmt == "mps" else read_lp(path)).flat
            assert_same_arrays(back, flat)
            if fmt == "mps":
                assert render_mps(back) == path.read_text()


# ---------------------------------------------------------------------------
# hand-written files: what the readers accept beyond the writers' own output

HAND_MPS = """\
* a hand-written model
NAME tiny

ROWS
 N  OBJ
 L  c1
 G  c2
 E  empty
 L  q
COLUMNS
    MARKER0    'MARKER'    'INTORG'
    x  c1  1.0
    x  OBJ  2.0
    b  c2  1.0
    MARKER1    'MARKER'    'INTEND'
* a comment inside a section
    y  c1  1.5

    y  c2  -1.0
    y  OBJ  -0.5
    z  c2  3.0
    w  q  -1.0
    v  OBJ  0.0
RHS
    RHS  c1  4.0
    RHS  c2  -2.5
BOUNDS
 UI BND  x  3
 BV BND  b
 FR BND  y
 MI BND  z
 UP BND  z  5.0
 LO BND  w  -1.0
QCMATRIX   q
    y  y  1.0
    y  z  2.0
ENDATA
"""

HAND_LP = """\
\\ a hand-written model
Minimize
 obj: 2.0 x - 0.5 y

Subject To
\\ a comment inside a section
 c1: 1.0 x + 1.5 y <= 4.0
 c2: 1.0 b - 1.0 y + 3.0 z >= -2.5

 empty:  = 0.0
 q: [ 1.0 y ^ 2 + 2.0 y * z ] - 1.0 w <= 0.0
Bounds
 0.0 <= x <= 3.0
 y free
 -inf <= z <= 5.0
 -1.0 <= w <= +inf
 0.0 <= v <= +inf
Generals
 x
Binaries
 b
End
"""

HAND_PARSED = ParsedModel(
    variables={
        "x": {"kind": "integer", "lb": 0.0, "ub": 3.0},
        "b": {"kind": "binary", "lb": 0.0, "ub": 1.0},
        "y": {"kind": "continuous", "lb": -math.inf, "ub": math.inf},
        "z": {"kind": "continuous", "lb": -math.inf, "ub": 5.0},
        "w": {"kind": "continuous", "lb": -1.0, "ub": math.inf},
        "v": {"kind": "continuous", "lb": 0.0, "ub": math.inf},
    },
    constraints=[
        {"name": "c1", "sense": "<=", "rhs": 4.0, "coeffs": {"x": 1.0, "y": 1.5}},
        {"name": "c2", "sense": ">=", "rhs": -2.5,
         "coeffs": {"b": 1.0, "y": -1.0, "z": 3.0}},
        {"name": "empty", "sense": "==", "rhs": 0.0, "coeffs": {}},
        {"name": "q", "sense": "<=", "rhs": 0.0, "coeffs": {"w": -1.0}},
    ],
    objective={"x": 2.0, "y": -0.5},
    quad_entries=[("y", "y", 1.0), ("y", "z", 2.0)],
)


@pytest.mark.parametrize("fmt, text", [("mps", HAND_MPS), ("lp", HAND_LP)],
                         ids=["mps", "lp"])
def test_hand_written_file(tmp_path, fmt, text):
    path = tmp_path / f"tiny.{fmt}"
    path.write_text(text)
    parsed = read_mps(path) if fmt == "mps" else read_lp(path)
    assert parsed == HAND_PARSED


def test_repeated_entries_are_summed(tmp_path):
    path = tmp_path / "twice.lp"
    path.write_text("Minimize\n obj: 1.0 x + 2.0 x\nSubject To\n"
                    " c: 1.0 x - 0.5 y + 0.25 x <= 1.0\nEnd\n")
    parsed = read_lp(path)
    assert parsed.objective == {"x": 3.0}
    assert parsed.constraints[0]["coeffs"] == {"x": 1.25, "y": -0.5}


def test_unnamed_objective_and_bare_first_terms(tmp_path):
    path = tmp_path / "bare.lp"
    path.write_text("Minimize\n 2.0 x - 1.0 y\nSubject To\n c: 1.5 y + 1.0 x >= 1.0\n"
                    " z: 0 = 0.0\nEnd\n")
    parsed = read_lp(path)
    assert parsed.objective == {"x": 2.0, "y": -1.0}
    assert list(parsed.constraints) == [
        {"name": "c", "sense": ">=", "rhs": 1.0, "coeffs": {"x": 1.0, "y": 1.5}},
        {"name": "z", "sense": "==", "rhs": 0.0, "coeffs": {}}]
    assert parsed.flat.names == ["x", "y"]


@pytest.mark.parametrize("fmt, text", [
    ("mps", "ROWS\n N  OBJ\nCOLUMNS\n    x  OBJ  1.0\n    y  OBJ  1.0\nBOUNDS\n"
            " UP BND  x  5.0\n FR BND  x\n LO BND  x  2.0\n BV BND  y\n UP BND  y  4.0\n"
            "ENDATA\n"),
    ("lp", "Minimize\n obj: 1.0 x + 1.0 y\nSubject To\nBounds\n 0.0 <= x <= 5.0\n x free\n"
           " 2.0 <= x <= +inf\n 0.0 <= y <= 4.0\nBinaries\n y\nEnd\n"),
], ids=["mps", "lp"])
def test_last_bound_line_wins(tmp_path, fmt, text):
    path = tmp_path / f"bounds.{fmt}"
    path.write_text(text)
    parsed = read_mps(path) if fmt == "mps" else read_lp(path)
    assert parsed.variables["x"] == {"kind": "continuous", "lb": 2.0, "ub": math.inf}
    # LP Binaries come after Bounds whatever the file order
    y_ub = 4.0 if fmt == "mps" else 1.0
    assert parsed.variables["y"] == {"kind": "binary", "lb": 0.0, "ub": y_ub}


def test_parsed_views_are_read_only(tmp_path):
    path = tmp_path / "tiny.mps"
    path.write_text(HAND_MPS)
    parsed = read_mps(path)
    assert parsed.variables["w"] == {"kind": "continuous", "lb": -1.0, "ub": math.inf}
    assert "nope" not in parsed.variables
    with pytest.raises(TypeError):
        parsed.variables["w"] = {}
    with pytest.raises(TypeError):
        parsed.constraints[0] = {}
    assert parsed.constraints[-1]["name"] == "q"


# a file's linear rows as read back: in row R1 the entry of x appears three
# times, then y with an explicit zero; row R2 lists y before x. Summed in file
# order, (1 + 2^53) - 2^53 is 0.0; summed in any order that adds the two large
# terms first it is 1.0.
BIG = 2.0 ** 53
CSR_FILES = {
    "mps": ("NAME csr\nROWS\n N  OBJ\n L  R1\n G  R2\nCOLUMNS\n"
            "    x  OBJ  1.0\n    x  R1  1.0\n    y  R2  2.0\n    x  R2  3.0\n"
            f"    x  R1  {BIG!r}\n    x  R1  {-BIG!r}\n    y  R1  0.0\n"
            "RHS\n    RHS  R1  1.0\nENDATA\n"),
    "lp": ("Minimize\n obj: 1.0 x\nSubject To\n"
           f" R1: 1.0 x + {BIG!r} x - {BIG!r} x + 0.0 y <= 1.0\n"
           " R2: 2.0 y + 3.0 x >= 0.0\nEnd\n"),
}


@pytest.mark.parametrize("fmt", ["mps", "lp"])
def test_readers_build_canonical_csr(tmp_path, fmt):
    path = tmp_path / f"csr.{fmt}"
    path.write_text(CSR_FILES[fmt], encoding="utf-8")
    flat = (read_mps(path) if fmt == "mps" else read_lp(path)).flat
    assert flat.names == ["x", "y"] and flat.row_names == ["R1", "R2"]
    A = flat.A
    assert A.shape == (2, 2)
    assert A.indptr.tolist() == [0, 2, 4]
    assert A.indices.tolist() == [0, 1, 0, 1]  # ascending in each row
    # the repeats summed in file order, and the explicit zero kept
    assert A.data.tolist() == [0.0, 0.0, 3.0, 2.0]
    rows = [0, 1, 1, 0, 0, 0]
    cols = [0, 1, 0, 0, 0, 1]
    vals = [1.0, 2.0, 3.0, BIG, -BIG, 0.0]
    ref = sparse.csr_array((vals, (rows, cols)), shape=(2, 2))
    assert ref.has_canonical_format
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(A, part), getattr(ref, part)), part


@pytest.mark.parametrize("fmt, text, section", [
    ("mps", "ROWS\n N  OBJ\n L  c\nCOLUMNS\n    x  c  1.0  OBJ\nENDATA\n", "COLUMNS"),
    ("mps", "ROWS\n N  OBJ\nCOLUMNS\n    x  OBJ  1.0\nBOUNDS\n FX BND  x  1.0\nENDATA\n",
     "BOUNDS"),
    ("mps", "ROWS\n N  OBJ\nCOLUMNS\n    x  c  1.0\nENDATA\n", "COLUMNS"),
    ("mps", "ROWS\n N  OBJ\n L  c\nCOLUMNS\n    x  c  1.0\nRHS\n    RHS  d  1.0\nENDATA\n",
     "RHS"),
    ("mps", "ROWS\n N  OBJ\n X  c\nCOLUMNS\n    x  OBJ  1.0\nENDATA\n", "ROWS"),
    ("mps", "ROWS\n N  OBJ\nCOLUMNS\n    x  OBJ  1.0\nBOUNDS\n UP BND  x\nENDATA\n", "BOUNDS"),
    ("mps", "ROWS\n N  OBJ\n L  q\n L  r\nCOLUMNS\n    x  q  1.0\nQCMATRIX   q\n"
            "    x  x  1.0\nQCMATRIX   r\n    x  x  1.0\nENDATA\n", "QCMATRIX"),
    ("lp", "Minimize\n obj: 1.0 x\nSubject To\n c: 1.0 x\nEnd\n", "LP"),
    ("lp", "Minimize\n obj: 1.0 x\nSubject To\n c: 1.0 x 2.0 y <= 1.0\nEnd\n", "LP"),
    ("lp", "Minimize\n obj: 1.0 x\nSubject To\n c: [ 1.0 x ^ 2 ] <= 1.0\n"
           " d: [ 1.0 x ^ 2 ] <= 1.0\nEnd\n", "LP"),
    ("lp", "Minimize\n obj: 1.0 x\nSubject To\n c: 1.0\u00a0x <= 1.0\nEnd\n", "LP"),
    ("lp", "Minimize\n obj: 1.0 x\nSubject To\nBounds\n 0.0 <= x\nEnd\n", "LP"),
], ids=["mps_columns_fields", "mps_bound_type", "mps_columns_row", "mps_rhs_row",
        "mps_row_type", "mps_bound_fields", "mps_two_qcmatrix", "lp_no_sense", "lp_no_sign",
        "lp_two_quadratic_rows", "lp_unicode_space", "lp_bound_shape"])
def test_malformed_input_raises(tmp_path, fmt, text, section):
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{section}: "):
        read_mps(path) if fmt == "mps" else read_lp(path)


# ---------------------------------------------------------------------------
# HiGHS on the exported arrays, an oracle that shares no code with the solver


def _milp_without_variance_row(flat):
    keep = np.array([name != flat.quad.row for name in flat.row_names])
    senses = np.array(flat.senses)[keep]
    rhs = flat.rhs[keep]
    lo = np.where(senses == "<=", -np.inf, rhs)
    hi = np.where(senses == ">=", np.inf, rhs)
    A = sparse.csr_array((flat.A.data, flat.A.indices, flat.A.indptr), shape=flat.A.shape)
    return milp(flat.c, constraints=LinearConstraint(A[keep], lo, hi),
                bounds=Bounds(flat.lb, flat.ub), integrality=flat.integrality)


@pytest.mark.parametrize("n, labels, variant", [
    (4, 2, KernelVariant.SSP),
    (4, 2, KernelVariant.SP),
    (5, 1, KernelVariant.SSP),
])
def test_milp_on_the_flat_arrays_matches_enumeration(tmp_path, n, labels, variant):
    # at beta_sqrt = 0 sigma has no weight, so the variance row can go and
    # the model is a pure MILP; the arrays read back from both files must
    # give the same optimum
    dom = DomainSpec(n=n, num_labels=labels)
    rng = np.random.default_rng(50 + n)
    points = [sample_feasible(dom, rng) for _ in range(6)]
    model = fit(points, rng.normal(size=6), variant, seed=0, restarts=2)
    mip = encode_acquisition(model, dom, 0.0)
    flats = {"written": expand_model(mip)}
    for fmt, reader in (("mps", read_mps), ("lp", read_lp)):
        path = tmp_path / f"model.{fmt}"
        export_model(mip, path, fmt=fmt)
        flats[fmt] = reader(path).flat
    exact = solve(model, dom, 0.0, strategy="enumerate")
    assert exact.status == "Optimal"
    for source, flat in flats.items():
        result = _milp_without_variance_row(flat)
        assert result.status == 0, source
        assert abs(result.fun - exact.objective) <= 1e-6, source


# ---------------------------------------------------------------------------
# block-wise reading: tiny blocks read every file as whole sections do


def small_blocks(monkeypatch, size: int) -> list[tuple[int, int]]:
    """Parse long sections in pieces of about ``size`` characters; returns
    the list that records each piece parsed."""
    monkeypatch.setattr(modelio, "READ_BLOCK_CHARS", size)
    pieces = []
    blocks = modelio._blocks

    def recording(body, *span):
        for piece in blocks(body, *span):
            pieces.append(piece)
            yield piece

    monkeypatch.setattr(modelio, "_blocks", recording)
    return pieces


@pytest.mark.parametrize("variant", list(KernelVariant))
@pytest.mark.parametrize("fmt", ["mps", "lp"])
def test_small_read_blocks_give_the_same_arrays(monkeypatch, tmp_path, fitted, smoke_fitted,
                                                variant, fmt):
    pieces = small_blocks(monkeypatch, 40)
    TestRoundTrip().test_arrays_match_exactly(tmp_path, fitted, smoke_fitted, variant, fmt)
    assert len(pieces) > 100


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("fmt", ["mps", "lp"])
def test_small_read_blocks_parse_each_number_once(monkeypatch, tmp_path, smoke_fitted, fmt):
    # one float table per file: a token repeated across blocks and sections
    # is parsed on its first appearance only
    dom, models = smoke_fitted
    path = tmp_path / f"model.{fmt}"
    flat = export_model(encode_acquisition(models[KernelVariant.ESP], dom, 1.0), path,
                        fmt=fmt, breakpoints=16)
    pieces = small_blocks(monkeypatch, 40)
    parsed = []
    missing = modelio._FloatTable.__missing__

    def counting(table, token):
        parsed.append(token)
        return missing(table, token)

    monkeypatch.setattr(modelio._FloatTable, "__missing__", counting)
    back = (read_mps(path) if fmt == "mps" else read_lp(path)).flat
    assert len(pieces) > 100
    # the 2 of an LP square term "x ^ 2" is syntax, not a number to parse
    tokens = path.read_text().split()
    numbers = {token for before, token in zip([""] + tokens, tokens)
               if before != "^" and _is_number(token)}
    assert sorted(parsed) == sorted(numbers)
    assert_same_arrays(back, flat)


@pytest.mark.parametrize("size", [1, 7, 40])
@pytest.mark.parametrize("fmt, text", [
    ("mps", HAND_MPS), ("lp", HAND_LP),
    ("lp", HAND_LP.replace("y ^ 2 + 2.0 y * z", "y ^ 2\n + 2.0 y * z")),
], ids=["mps", "lp", "lp_quadratic_over_two_lines"])
def test_small_read_blocks_read_hand_written_files(monkeypatch, tmp_path, size, fmt, text):
    path = tmp_path / f"tiny.{fmt}"
    path.write_text(text)
    read = read_mps if fmt == "mps" else read_lp
    assert read(path) == HAND_PARSED
    small_blocks(monkeypatch, size)
    assert read(path) == HAND_PARSED


def test_small_read_blocks_keep_an_integer_run_across_pieces(monkeypatch, tmp_path):
    # the kinds of a, b and c come from the markers alone
    path = tmp_path / "run.mps"
    path.write_text("ROWS\n N  OBJ\n L  r\nCOLUMNS\n    MARKER0    'MARKER'    'INTORG'\n"
                    "    a  r  1.0\n    b  r  2.0\n    c  r  3.0\n"
                    "    MARKER1    'MARKER'    'INTEND'\n    y  r  4.0\nENDATA\n")
    expected = {"a": "integer", "b": "integer", "c": "integer", "y": "continuous"}
    flat = read_mps(path).flat
    assert dict(zip(flat.names, flat.kinds)) == expected
    pieces = small_blocks(monkeypatch, 1)
    flat = read_mps(path).flat
    assert dict(zip(flat.names, flat.kinds)) == expected
    assert len(pieces) > 5


@pytest.mark.parametrize("fmt", ["mps", "lp"])
def test_small_read_blocks_refuse_a_late_malformed_line(monkeypatch, tmp_path, fmt):
    if fmt == "mps":
        lines = [f"    x{k}  c  1.0" for k in range(60)] + ["    x60  c"]
        text = "ROWS\n N  OBJ\n L  c\nCOLUMNS\n" + "\n".join(lines) + "\nENDATA\n"
        message = "COLUMNS: every line must hold 3 fields"
    else:
        lines = [f" c{k}: 1.0 x{k} <= 1.0" for k in range(60)] + [" c60: 1.0 x60"]
        text = "Minimize\n obj: 1.0 x0\nSubject To\n" + "\n".join(lines) + "\nEnd\n"
        message = "LP: not a 'name: terms sense rhs' line: 'c60: 1.0 x60'"
    path = tmp_path / f"late.{fmt}"
    path.write_text(text)
    read = read_mps if fmt == "mps" else read_lp
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read(path)
    pieces = small_blocks(monkeypatch, 40)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read(path)
    assert len(pieces) > 10  # the malformed line is in a later piece
