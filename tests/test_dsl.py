import itertools
import math
import operator
import re
from dataclasses import replace
from sys import getrecursionlimit

import numpy as np
import pytest
from catalog_oracle import (
    field_deviation,
    float_alone,
    oracle_field,
    shipped_hamiltonians,
    step_alone,
)

from toruslab import dsl
from toruslab.dsl import (
    Add,
    CanonicalPairing,
    Const,
    Cos,
    Div,
    Mul,
    Neg,
    PowInt,
    Sin,
    Sub,
    Var,
    compile_numpy,
    compile_rates,
    compile_tangent,
    differentiate,
    eval_expr,
    format_hamiltonian_file,
    free_variables,
    hamiltonian_vector_field,
    parse,
    parse_hamiltonian_file,
    simplify,
    to_text,
    tokenize,
)
from toruslab.errors import (
    EvalError,
    InvalidValue,
    LexError,
    NotHamiltonian,
    PairingError,
    ParseError,
    SimplifyError,
    UnboundVar,
)
from toruslab.integrators import _batch_midpoint, _dp54_step, _rk4_step
from toruslab.systems import (
    HAM_COMPACT,
    HAM_UNIQUE,
    REV_COMPACT,
    REV_UNIQUE,
    SystemParams,
    build_control_system,
    build_system,
    hamiltonian_text,
)


# ---------------------------------------------------------------------------
# tokenizer


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 300, 1000])
def test_generated_sum_adds_in_numpy_order(n):
    # the generated error norm must round as np.sum does, past the
    # 128-term blocks where numpy splits the array in halves
    values = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    text = dsl._numpy_sum([f"v[{i}]" for i in range(n)])
    assert eval(text, {"v": values.tolist()}) == np.sum(values)
    # summed as arrays, down the rows of a slot-major batch, it rounds as
    # numpy's sum along each state of the (rows, n) batch
    batch = np.random.default_rng(n).uniform(-1.0, 1.0, (64, n))
    assert np.array_equal(dsl._numpy_sum(list(batch.T), operator.add),
                          batch.sum(axis=-1))


def test_tokenize_kinds_and_positions():
    toks = tokenize("x1 + 2.5*sin(y)")
    assert [(t.kind, t.text) for t in toks] == [
        ("ident", "x1"), ("op", "+"), ("number", "2.5"), ("op", "*"),
        ("ident", "sin"), ("lparen", "("), ("ident", "y"), ("rparen", ")")]
    assert [t.position for t in toks] == [0, 3, 5, 8, 9, 12, 13, 14]


def test_tokenize_reports_offset_of_bad_character():
    with pytest.raises(LexError) as exc:
        tokenize("x $ y")
    assert exc.value.position == 2


def test_tokenize_rejects_non_ascii():
    with pytest.raises(LexError):
        tokenize("x × y")


def test_tokenize_scientific_numbers():
    toks = tokenize("1.5e-3 2E+4 7.")
    assert [t.text for t in toks] == ["1.5e-3", "2E+4", "7."]


# ---------------------------------------------------------------------------
# parser


def test_parse_precedence_power_over_unary_minus():
    assert parse("-x^2") == Neg(PowInt(Var("x"), 2))
    assert parse("(-x)^2") == PowInt(Neg(Var("x")), 2)


def test_parse_precedence_and_associativity():
    assert parse("a - b - c") == Sub(Sub(Var("a"), Var("b")), Var("c"))
    assert parse("a + b*c") == Add(Var("a"), Mul(Var("b"), Var("c")))
    assert parse("x^3/3") == Div(PowInt(Var("x"), 3), Const(3.0))
    assert parse("a/b/c") == Div(Div(Var("a"), Var("b")), Var("c"))
    assert parse("x + -y") == Add(Var("x"), Neg(Var("y")))


def test_parse_functions():
    assert parse("sin(x)*cos(y)") == Mul(Sin(Var("x")), Cos(Var("y")))
    with pytest.raises(ParseError):
        parse("sin x")


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("x + ")
    assert exc.value.position == 4
    with pytest.raises(ParseError) as exc:
        parse("x + + y")
    assert exc.value.position == 4
    with pytest.raises(ParseError) as exc:
        parse("(x + y")
    assert exc.value.position == 6
    with pytest.raises(ParseError):
        parse("x y")


def test_parse_exponent_must_be_bare_integer():
    with pytest.raises(ParseError):
        parse("x^2.5")
    with pytest.raises(ParseError):
        parse("x^-2")
    with pytest.raises(ParseError):
        parse("x^2^3")  # no chained powers without parens
    assert parse("(x^2)^3") == PowInt(PowInt(Var("x"), 2), 3)


def test_parse_rejects_a_literal_that_is_not_finite():
    with pytest.raises(ParseError) as exc:
        parse("x + 1e400*y")
    assert exc.value.position == 4
    assert parse("1e300") == Const(1e300)


def test_free_variables():
    assert free_variables(parse("x*sin(y) + 2")) == {"x", "y"}
    assert free_variables(parse("3.5")) == frozenset()


# ---------------------------------------------------------------------------
# evaluation


def test_eval_scalar():
    e = parse("2^3 + x*y - 1/2")
    assert eval_expr(e, {"x": 3.0, "y": 4.0}) == pytest.approx(19.5)


def test_eval_vectorized():
    e = parse("sin(x)^2 + cos(x)^2")
    xs = np.linspace(-3, 3, 50)
    np.testing.assert_allclose(eval_expr(e, {"x": xs}), 1.0, atol=1e-15)


def test_eval_errors():
    with pytest.raises(UnboundVar):
        eval_expr(parse("x + y"), {"x": 1.0})
    with pytest.raises(EvalError):
        eval_expr(parse("1/x"), {"x": 0.0})
    with pytest.raises(EvalError):
        eval_expr(parse("1/x"), {"x": np.array([1.0, 0.0])})


# ---------------------------------------------------------------------------
# differentiation and simplification


def test_differentiate_worked_example():
    # the cubic normal-form energy in one pair
    d = differentiate(parse("x^3/3 + x*y^2"), "x")
    assert d == Add(PowInt(Var("x"), 2), PowInt(Var("y"), 2))
    assert to_text(d) == "x^2+y^2"


def test_differentiate_product_value():
    d = differentiate(parse("x*y^2"), "y")
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
        assert eval_expr(d, b) == pytest.approx(2 * b["x"] * b["y"])


def test_differentiate_chain_and_quotient():
    d = differentiate(parse("sin(x^2)"), "x")
    for xv in (0.3, -1.2):
        assert eval_expr(d, {"x": xv}) == pytest.approx(
            2 * xv * math.cos(xv * xv))
    d2 = differentiate(parse("x/y"), "y")
    assert eval_expr(d2, {"x": 2.0, "y": 3.0}) == pytest.approx(-2 / 9)


def test_simplify_constant_folding():
    assert simplify(parse("2*3 + 0*x")) == Const(6.0)
    assert simplify(parse("x + 0")) == Var("x")
    assert simplify(parse("1*x")) == Var("x")
    assert simplify(parse("x^0")) == Const(1.0)
    assert simplify(parse("x^1")) == Var("x")
    assert simplify(parse("0 - x")) == Neg(Var("x"))
    assert simplify(parse("sin(0)")) == Const(0.0)


def test_simplify_folds_a_constant_down_the_left_spine():
    # the chain rule gives ((3*sin(x)^2)*cos(x))/3
    assert "3" not in to_text(differentiate(parse("sin(x)^3/3"), "x"))
    assert to_text(simplify(parse("(2*x)*y/4"))) == "0.5*x*y"
    sys = build_system(SystemParams(HAM_COMPACT, n=1, m=1, omega=(1.0,)))
    for kind in ("field", "jacobian"):
        assert "/" not in sys.compiled(kind).source


def test_simplify_rejects_constant_zero_denominator():
    with pytest.raises(SimplifyError):
        simplify(parse("x/(2-2)"))


def _random_expr(rng, depth, div_ok=True):
    leaves = ["x", "y", "z"]
    if depth == 0 or rng.random() < 0.28:
        if rng.random() < 0.4:
            return Const(round(float(rng.uniform(-3, 3)), 3))
        return Var(leaves[rng.integers(0, len(leaves))])
    r = rng.random()
    if r < 0.22:
        return Add(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if r < 0.40:
        return Sub(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if r < 0.60:
        return Mul(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if r < 0.68 and div_ok:
        den = Const(float(rng.choice([2.0, 3.0, 0.5, -4.0])))
        return Div(_random_expr(rng, depth - 1), den)
    if r < 0.78:
        return PowInt(_random_expr(rng, depth - 1),
                      int(rng.integers(0, 4)))
    if r < 0.84:
        return Neg(_random_expr(rng, depth - 1))
    if r < 0.92:
        return Sin(_random_expr(rng, depth - 1))
    return Cos(_random_expr(rng, depth - 1))


def test_simplify_idempotent_and_value_preserving():
    rng = np.random.default_rng(21)
    for _ in range(400):
        e = _random_expr(rng, depth=4)
        try:
            s = simplify(e)
        except SimplifyError:
            continue
        assert simplify(s) == s
        b = {v: float(rng.uniform(-1.5, 1.5)) for v in ("x", "y", "z")}
        assert eval_expr(s, b) == pytest.approx(eval_expr(e, b),
                                                rel=1e-12, abs=1e-12)


def test_print_parse_round_trip_is_fixed_point():
    rng = np.random.default_rng(22)
    for _ in range(400):
        e = _random_expr(rng, depth=4)
        text = to_text(e)
        again = parse(text)
        assert to_text(again) == text
        b = {v: float(rng.uniform(-1.5, 1.5)) for v in ("x", "y", "z")}
        assert eval_expr(again, b) == pytest.approx(eval_expr(e, b),
                                                    rel=1e-12, abs=1e-12)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(300):
        e = _random_expr(rng, depth=3)
        for v in sorted(free_variables(e)):
            d = differentiate(e, v)
            b = {name: float(rng.uniform(-1.2, 1.2))
                 for name in ("x", "y", "z")}
            h = 1e-5
            up = dict(b, **{v: b[v] + h})
            dn = dict(b, **{v: b[v] - h})
            fd = (eval_expr(e, up) - eval_expr(e, dn)) / (2 * h)
            sym = eval_expr(d, b)
            assert abs(fd - sym) <= 1e-6 * max(1.0, abs(sym), abs(fd))
            checked += 1
    assert checked > 200


# ---------------------------------------------------------------------------
# derived canonical fields


def test_hamiltonian_vector_field_oscillator():
    # H = (x^2 + y^2)/2 with pair (y, x): y' = x, x' = -y
    df = hamiltonian_vector_field(parse("(x^2 + y^2)/2"),
                                  CanonicalPairing(pairs=(("y", "x"),)))
    assert eval_expr(df.rate_exprs["y"], {"x": 0.7, "y": -0.2}) \
        == pytest.approx(0.7)
    assert eval_expr(df.rate_exprs["x"], {"x": 0.7, "y": -0.2}) \
        == pytest.approx(0.2)


def test_hamiltonian_vector_field_requires_covering_pairing():
    with pytest.raises(PairingError):
        hamiltonian_vector_field(parse("x + z"),
                                 CanonicalPairing(pairs=(("y", "x"),)))
    with pytest.raises(PairingError):
        CanonicalPairing(pairs=(("y", "x"), ("y", "p")))


def test_derived_field_matches_catalog_ham_unique():
    sys = build_system(SystemParams(HAM_UNIQUE, n=1, m=1, omega=(1.0,)))
    expr, pairing = parse_hamiltonian_file(
        hamiltonian_text(HAM_UNIQUE, 1, 1, (1.0,)))
    derived = hamiltonian_vector_field(expr, pairing).evaluator(sys.layout)
    dev = field_deviation(oracle_field(sys), derived, sys.layout,
                          samples=400, seed=1)
    assert dev <= 1e-12


def test_derived_field_matches_catalog_ham_compact():
    sys = build_system(SystemParams(HAM_COMPACT, n=1, m=1, omega=(1.0,)))
    expr, pairing = parse_hamiltonian_file(
        hamiltonian_text(HAM_COMPACT, 1, 1, (1.0,)))
    derived = hamiltonian_vector_field(expr, pairing).evaluator(sys.layout)
    dev = field_deviation(oracle_field(sys), derived, sys.layout,
                          samples=400, seed=2)
    assert dev <= 1e-12


def test_cross_check_distinguishes_unique_from_compact():
    a = build_system(SystemParams(HAM_UNIQUE, n=1, m=0, omega=(1.0,)))
    b = build_system(SystemParams(HAM_COMPACT, n=1, m=0, omega=(1.0,)))
    dev = field_deviation(a.field, b.field, a.layout, samples=200, seed=3)
    assert dev > 1e-3


def test_derived_evaluator_uncovered_layout():
    sys = build_system(SystemParams(HAM_UNIQUE, n=1, m=1, omega=(1.0,)))
    expr, pairing = parse_hamiltonian_file(
        hamiltonian_text(HAM_UNIQUE, 1, 0, (1.0,)))
    df = hamiltonian_vector_field(expr, pairing)
    with pytest.raises(PairingError):
        df.evaluator(sys.layout)  # layout has p_1/q_1, pairing does not


# ---------------------------------------------------------------------------
# text files


def test_hamiltonian_file_round_trip():
    text = hamiltonian_text(HAM_UNIQUE, 2, 1, (1.0, math.sqrt(2.0)))
    expr, pairing = parse_hamiltonian_file(text)
    assert pairing.pairs == (("phi_1", "u_1"), ("phi_2", "u_2"),
                             ("y", "x"), ("q_1", "p_1"))
    regenerated = format_hamiltonian_file(expr, pairing)
    expr2, pairing2 = parse_hamiltonian_file(regenerated)
    assert pairing2 == pairing
    rng = np.random.default_rng(5)
    names = sorted(free_variables(expr))
    for _ in range(10):
        b = {nm: float(rng.uniform(-1, 1)) for nm in names}
        assert eval_expr(expr2, b) == pytest.approx(eval_expr(expr, b),
                                                    rel=1e-12, abs=1e-12)


def test_hamiltonian_file_header_errors():
    with pytest.raises(ParseError):
        parse_hamiltonian_file("x + y\n")
    with pytest.raises(ParseError):
        parse_hamiltonian_file("pairs: (a,b) junk\nx\n")
    with pytest.raises(ParseError):
        parse_hamiltonian_file("pairs:\nx\n")


def test_hamiltonian_text_rejects_reversible():
    for fam in (REV_UNIQUE, REV_COMPACT):
        with pytest.raises(NotHamiltonian):
            hamiltonian_text(fam, 1, 0, (1.0,))


def test_shipped_texts_match_generator():
    shipped = shipped_hamiltonians()
    assert sorted(shipped) == ["ham_compact_n1_m0", "ham_compact_n1_m1",
                               "ham_unique_n1_m0", "ham_unique_n1_m1"]
    assert shipped["ham_unique_n1_m0"] == \
        hamiltonian_text(HAM_UNIQUE, 1, 0, (1.0,))
    assert shipped["ham_compact_n1_m1"] == \
        hamiltonian_text(HAM_COMPACT, 1, 1, (1.0,))


def test_all_shipped_texts_reproduce_catalog_fields():
    for stem, text in shipped_hamiltonians().items():
        family = HAM_UNIQUE if "unique" in stem else HAM_COMPACT
        m = int(stem[-1])
        sys = build_system(SystemParams(family, n=1, m=m, omega=(1.0,)))
        expr, pairing = parse_hamiltonian_file(text)
        derived = hamiltonian_vector_field(expr, pairing) \
            .evaluator(sys.layout)
        dev = field_deviation(oracle_field(sys), derived, sys.layout,
                              samples=250, seed=7)
        assert dev <= 1e-12, stem


# ---------------------------------------------------------------------------
# compilation to Python floats


@pytest.mark.parametrize("sys", [
    build_system(SystemParams(HAM_UNIQUE, n=1, m=0, omega=(1.0,))),
    build_system(SystemParams(HAM_UNIQUE, n=2, m=1,
                              omega=(1.0, math.sqrt(2.0)))),
    build_system(SystemParams(HAM_COMPACT, n=1, m=1, omega=(1.0,))),
    build_system(SystemParams(HAM_COMPACT, n=2, m=1,
                              omega=(1.0, math.sqrt(2.0)))),
    build_system(SystemParams(REV_UNIQUE, n=1, l=1, m=1, omega=(1.0,))),
    build_system(SystemParams(REV_UNIQUE, n=2, l=1, m=2,
                              omega=(1.0, math.sqrt(2.0)))),
    build_system(SystemParams(REV_COMPACT, n=1, l=1, m=1, omega=(1.0,))),
    build_system(SystemParams(REV_COMPACT, n=2, l=1, m=2,
                              omega=(1.0, math.sqrt(2.0)))),
    build_control_system(omega=1.0),
], ids=lambda s: f"{s.family}-{s.dim}")
def test_compiled_field_matches_system_field(sys):
    rng = np.random.default_rng(12)
    states = rng.uniform(-math.pi, math.pi, (256, sys.dim))
    rates = sys.compiled()
    got = np.array([rates.field(tuple(row)) for row in states.tolist()])
    # math.sin and numpy's sin may differ in the last bit
    assert np.max(np.abs(got - sys.field(states))) <= 1e-15


def test_compiled_code_never_sees_a_source_identifier():
    names = ("exec", "math", "_sin", "s0")
    rates = [parse("math*s0 + exec"), Neg(Var("_sin")),
             parse("sin(exec)^2 - 2.5"), Mul(Var("_sin"), Var("math"))]
    compiled = compile_rates(rates, names)
    field = compile_numpy(rates, names)
    tangent = compile_tangent(rates, names)
    assert "def dp54_step" in compiled.source
    for source in (compiled.source, field.source, tangent.source):
        assert "exec" not in source and "math" not in source
    state = (0.5, -1.5, 2.0, 0.25)
    b = dict(zip(names, state))
    want = [eval_expr(e, b) for e in rates]
    assert np.max(np.abs(np.subtract(compiled.field(state), want))) <= 1e-15
    assert np.max(np.abs(field(np.array(state)) - want)) <= 1e-15
    # the tangent flow: the rates, then J @ M, whose every entry moves
    assert tangent.moving == tuple(itertools.product(range(4), repeat=2))
    M = np.arange(16.0).reshape(4, 4) / 8.0 - 1.0
    J = np.array([[eval_expr(differentiate(e, name), b) for name in names]
                  for e in rates])
    got = tangent.field(state + tuple(M.ravel()))
    assert np.max(np.abs(np.subtract(got[:4], want))) <= 1e-15
    assert np.max(np.abs(np.subtract(got[4:], (J @ M).ravel()))) <= 1e-14
    # the fused Dormand-Prince step and its error norm
    y5, err, k7 = _dp54_step(field, np.array(state), field(np.array(state)),
                             0.1)
    r = err / (1e-10 + 1e-8 * np.maximum(np.abs(state), np.abs(y5)))
    y, norm, last = compiled.dp54_step(state, compiled.field(state), 0.1,
                                       1e-10, 1e-8)
    assert np.max(np.abs(np.subtract(y, y5))) <= 1e-15
    # first same as last: the last stage is the rates at the new state
    assert np.array_equal(k7, field(y5))
    assert last == compiled.field(y)
    assert norm == pytest.approx(float(np.sqrt(np.mean(r * r))), rel=1e-12)


@pytest.mark.parametrize("sys, sin, trig, step_sin, step_trig", [
    (build_system(SystemParams(REV_COMPACT, n=1, l=1, m=1, omega=(1.0,))),
     8, 8, 4, 4),
    (build_system(SystemParams(HAM_COMPACT, n=1, m=1, omega=(1.0,))),
     18, 36, 16, 32),
], ids=["rev-compact", "ham-compact"])
def test_rk4_step_shares_the_terms_of_first_integrals(sys, sin, trig,
                                                      step_sin, step_trig):
    # four stages evaluate sin(v_1), sin(q_1) of rev-compact and sin(u_1),
    # cos(u_1) of ham-compact twice: at the state, and at the state plus
    # h*0, which stages 2-4 share; 12 sin and 40 trig calls without that.
    # A step alone makes sin and trig calls. The float and the rows step
    # read both from their arguments, which a march computes once, by
    # two calls of conserved: it holds the rest of those calls
    text = sys.compiled().source
    floats = text[text.index("def rk4_step"):text.index("def midpoint")]
    held_floats = text[text.index("def conserved"):text.index("def rk4")]
    rows = sys.compiled("rk4_rows")

    def counts(source):
        return source.count("_sin("), source.count("_cos(")

    for step, held in ((floats, held_floats),
                       (rows.source, rows.conserved.source)):
        assert counts(step) == (step_sin, step_trig - step_sin)
        held = counts(held)
        assert (step_sin + 2 * held[0], step_trig + 2 * sum(held)) \
            == (sin, trig)
    if sys.family == REV_COMPACT:
        # phi_1 (slot 0) is read by no rate, so it has no stage states:
        # the float step reads it in its return alone, the batch step in
        # its next value alone
        unpack, new = [ln.strip() for ln in floats.splitlines()
                       if "s0" in ln]
        assert unpack.startswith("(s0, ") and unpack.endswith(") = s")
        assert new.startswith("return (s0 + h * c")
        [line] = [ln for ln in sys.compiled("rk4_rows").source.splitlines()
                  if "s0" in ln or "s[0]" in ln]
        assert re.fullmatch(r"\s*_add\(s\[0\], h \* c\d+, out\[0\]\)",
                            line)


def test_rows_step_repeats_the_numpy_step_on_any_rates():
    # moving slots 1, 3, 4, 5 are not adjacent; their rates include a bare
    # slot, a repeated rate and one that reads a zero-rate slot alone,
    # after a term of constants alone (a number, not an array to write to)
    names = ("a", "b", "c", "d", "e", "f")
    rates = [parse(text) for text in
             ("0", "b*c + sin(a)", "2.5", "a", "b*c + sin(a)",
              "cos(0.5)*sin(a)^2")]
    step = dsl.compile_rows(rates, names)
    field = compile_numpy(rates, names)
    floats = compile_rates(rates, names, functions=("conserved", "rk4_step"))
    s = np.random.default_rng(5).uniform(-1.0, 1.0, (6, 12))
    s[0, ::3] = -0.0
    for h in (0.1, -0.1):
        want = _rk4_step(field, s, h)
        got = step_alone(step, s, h)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for row, col in zip(got.T, s.T):
            new = np.array(float_alone(floats.rk4_step, floats.conserved)(
                tuple(col.tolist()), h))
            assert np.array_equal(new.view(np.int64), row.view(np.int64))


def _rows_systems():
    for family in (HAM_UNIQUE, HAM_COMPACT, REV_UNIQUE, REV_COMPACT):
        for n in (1, 2):
            l = None if family in (HAM_UNIQUE, HAM_COMPACT) else 1
            yield pytest.param(build_system(SystemParams(
                family, n=n, m=1, l=l, omega=(1.0, math.sqrt(2.0))[:n])),
                id=f"{family}-n{n}")
    yield pytest.param(build_control_system(), id="control")


@pytest.mark.parametrize("rows", [9, 100])
@pytest.mark.parametrize("sys", list(_rows_systems()))
def test_rows_step_never_writes_into_its_input(sys, rows):
    # the step writes into temporaries of its own; a write into s or a
    # view of it raises on a read-only s, and one into a term that a
    # later stage reads changes the bits
    step = sys.compiled("rk4_rows")
    rng = np.random.default_rng(rows)
    s = rng.uniform(-1.0, 1.0, (sys.dim, rows))
    s.setflags(write=False)
    signed = np.where(rng.uniform(size=rows) < 0.5, -1e-2, 1e-2)
    for h in (1e-2, -1e-2, signed):
        want = _rk4_step(sys.compiled("field"), s, h)
        got = step_alone(step, s, h)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _float_and_numpy_steps(texts, names, s):
    """One step of 0.1 of each float step of the rates `texts` from the
    state s, and the same step of numpy's, by method."""
    rates = [parse(text) for text in texts]
    floats = compile_rates(rates, names)
    field = compile_numpy(rates, names)
    state = np.array(s)
    with np.errstate(all="ignore"):
        want = {"rk4": _rk4_step(field, state, 0.1),
                "midpoint": _batch_midpoint(field, state, 0.1),
                "dp54": _dp54_step(field, state, field(state), 0.1)[0]}
    got = {"rk4": float_alone(floats.rk4_step, floats.conserved)(s, 0.1),
           "midpoint": float_alone(floats.midpoint_step,
                                   floats.conserved)(s, 0.1),
           "dp54": floats.dp54_step(s, floats.field(s), 0.1, 1e-10,
                                    1e-8)[0]}
    for method, value in got.items():
        value = np.array(value)
        assert np.array_equal(value.view(np.int64),
                              want[method].view(np.int64)), method
    return got


def test_an_overflowing_power_steps_as_numpy_steps():
    # a^3 and a^5 overflow at a = +-1e150 to numpy's inf of their sign,
    # so x / a^3 reads 0 and x keeps its value, while z runs off to that
    # inf; the float steps give numpy's states, where Python's ** raised
    # and the step came back NaN
    for s in ((1e150, 0.5, 0.0), (-1e150, 0.5, 0.0), (2.0, 0.5, 0.0)):
        got = _float_and_numpy_steps(("0", "x/a^3", "1e-300*a^5"),
                                     ("a", "x", "z"), s)
        if abs(s[0]) > 1e100:
            assert got["rk4"] == (s[0], 0.5, math.copysign(math.inf, s[0]))


def test_a_zero_divisor_steps_as_numpy_steps():
    # 1/a is numpy's inf at a = 0, so x/(1/a) reads 0 and x keeps its
    # value, and (x - x)/a is 0/0, nan; the float steps give numpy's
    # states, where Python's division raised and the step came back NaN
    for s in ((0.0, 0.5), (-0.0, 0.5), (2.0, 0.5)):
        got = _float_and_numpy_steps(("0", "x/(1/a)"), ("a", "x"), s)
        if s[0] == 0.0:
            assert got["rk4"] == s
    got = _float_and_numpy_steps(("0", "(x - x)/a"), ("a", "x"), (0.0, 0.5))
    assert math.isnan(got["rk4"][1])


def test_tangent_slots_cannot_meet_a_source_name():
    # a layout label spelled like a matrix slot is refused, not aliased
    with pytest.raises(InvalidValue):
        compile_tangent([parse("x"), Var("M[0,0]")], ("x", "M[0,0]"))


def test_compiled_rates_reject_an_unknown_variable():
    with pytest.raises(UnboundVar):
        compile_rates([parse("x + y")], ("x",))


# ---------------------------------------------------------------------------
# reversibility from the rate texts


def test_parity_of_each_kind_of_node():
    odd = frozenset({"y"})

    def parity(text):
        return dsl._parity(parse(text), odd)
    assert [parity(t) for t in ("y", "x", "2.5", "-y", "x*y", "y/y")] \
        == [1, 0, 0, 1, 1, 0]
    assert [parity(t) for t in ("y^3", "y^2", "sin(y)", "cos(y)",
                                "sin(x)*cos(y)")] == [1, 0, 1, 0, 0]
    assert [parity(t) for t in ("x + y", "y - x", "cos(x + y)",
                                "sin(x + y)")] == [None] * 4
    # the constant zero has either parity, and so does what it makes
    assert dsl._parity(Add(Const(0.0), Var("y")), odd) == 1
    assert dsl._parity(Sub(Var("x"), Const(0.0)), odd) == 0
    assert dsl._parity(Mul(Const(0.0), Var("y")), odd) == dsl._ZERO


def _reversible_members():
    for family in (HAM_UNIQUE, HAM_COMPACT, REV_UNIQUE, REV_COMPACT):
        reversible = family in (REV_UNIQUE, REV_COMPACT)
        for n, m, l in itertools.product(
                (1, 2), (0, 1), (0, 1) if reversible else (None,)):
            yield pytest.param(build_system(SystemParams(
                family, n=n, m=m, l=l, omega=(1.0, math.sqrt(2.0))[:n])),
                id=f"{family}-n{n}-m{m}" + (f"-l{l}" if reversible else ""))
    yield pytest.param(build_control_system(), id="control")


@pytest.mark.parametrize("sys", list(_reversible_members()))
def test_parity_proves_every_family_member_reversible(sys):
    assert dsl.prove_reversibility(sys) is None


def test_parity_names_the_first_rate_that_breaks():
    # a term 0.3*y in the y rate is odd under y -> -y, where the rate of
    # the flipped slot y must be even; so is a y*x term in an energy,
    # whose x rate -dH/dy then gains the even -x
    sys = build_system(SystemParams(REV_UNIQUE, n=1, l=1, m=1,
                                    omega=(1.0,)))
    damped = replace(sys, rates_source=tuple(
        f"{rate} + 0.3*y" if label == "y" else rate
        for label, rate in zip(sys.layout.labels, sys.rates_source)))
    assert dsl.prove_reversibility(damped) == "y"
    ham = build_system(SystemParams(HAM_UNIQUE, n=1, m=1, omega=(1.0,)))
    coupled = replace(ham, rates_source=ham.rates_source.rstrip()
                      + " + y*x\n")
    assert dsl.prove_reversibility(coupled) == "x"


# ---------------------------------------------------------------------------
# texts of any length


def _sum_text(terms):
    """An energy text of the given terms summed, in one pair (q, p)."""
    return "pairs: (q,p)\n" + "+".join(terms) + "\n"


def _monomials(count):
    """count distinct monomials 0.001*p^a*q^b."""
    return [f"0.001*p^{a}*q^{b}" for a, b in itertools.islice(
        itertools.product(range(1, 100), range(100)), count)]


def _nesting(source):
    """The deepest parenthesis nesting of a source text."""
    depth = deepest = 0
    for c in source:
        depth += (c == "(") - (c == ")")
        deepest = max(deepest, depth)
    return deepest


def test_fold_visits_children_left_to_right_before_their_parent():
    seen = []

    def visit(node, values):
        seen.append(getattr(node, "name", type(node).__name__))
        return 1 + sum(values)

    assert dsl._fold(parse("(x - sin(y))*z^2"), visit) == 7
    assert seen == ["x", "y", "Sin", "Sub", "z", "PowInt", "Mul"]


@pytest.mark.parametrize("walk", [
    free_variables, simplify, lambda e: differentiate(e, "x"),
    lambda e: eval_expr(e, {"x": 1.0}), to_text,
    lambda e: dsl._parity(e, frozenset()),
    lambda e: compile_numpy([e], ("x",))],
    ids=["free_variables", "simplify", "differentiate", "eval_expr",
         "to_text", "parity", "compile_numpy"])
def test_every_walker_refuses_a_node_that_is_not_an_expression(walk):
    with pytest.raises(InvalidValue, match="not an expression node: 3"):
        walk(Add(Var("x"), 3))


def test_a_sum_past_the_parser_nesting_limit_compiles_to_floats():
    # written into its reader, each single-use sum of the float code
    # would nest one parenthesis deeper, past the 200 CPython parses;
    # the code names a temporary every _NESTING levels instead
    text = _sum_text(["p*p"] * 203)
    # the tangent state is (q, p) and M[0, 1], the one entry that moves
    for kind, state in (("rates", (0.0, 0.5)), ("tangent", (0.0, 0.5, 0.0))):
        compiled = dsl.compile_system(kind, text, (), ("q", "p"))
        assert compiled.moving == (((0, 1),) if kind == "tangent" else ())
        assert _nesting(compiled.source) <= 2 * dsl._NESTING + 1
        # 406 exact additions of p = 0.5
        assert compiled.field(state)[:2] == (203.0, 0.0)


def test_a_sum_past_the_recursion_limit_prints_as_it_reads():
    # a printer taking two frames per term (to_text and _wrap) would
    # pass Python's recursion limit here
    text = _sum_text(["p*p"] * 499)
    assert format_hamiltonian_file(*parse_hamiltonian_file(text)) == text


def test_energy_kinds_derive_no_rates(monkeypatch):
    sys = build_system(SystemParams(HAM_COMPACT, n=2, m=1,
                                    omega=(1.0, math.sqrt(2.0))))
    args = (sys.rates_source, sys.integral_texts, sys.layout.labels)
    kinds = ("hamiltonian", "integrals", "integral_gradients")
    want = [dsl.compile_system(kind, *args).source for kind in kinds]

    def no_rates(*args):
        raise AssertionError("rates derived")

    monkeypatch.setattr(dsl, "hamiltonian_vector_field", no_rates)
    assert [dsl.compile_system(kind, *args).source
            for kind in kinds] == want
    with pytest.raises(AssertionError, match="rates derived"):
        dsl.compile_system("rates", *args)


def test_only_rate_kinds_check_the_pairing():
    # the pairing (q, p) leaves the label x out: the rates miss a slot,
    # the energy and the integrals do not
    args = (_sum_text(["p*p", "q*q"]), ("x",), ("q", "p", "x"))
    for kind in ("rates", "tangent", "field", "rk4_rows", "jacobian"):
        with pytest.raises(PairingError, match=r"\['x'\]"):
            dsl.compile_system(kind, *args)
    state = np.array([[0.5], [2.0], [3.0]])
    assert dsl.compile_system("hamiltonian", *args)(state).tolist() \
        == [4.25]
    assert dsl.compile_system("integrals", *args)(state).tolist() \
        == [[4.25], [3.0]]
    assert dsl.compile_system("integral_gradients", *args)(state).shape \
        == (2, 3, 1)


@pytest.mark.parametrize("kind", ["rates", "tangent", "field", "rk4_rows",
                                  "jacobian", "hamiltonian", "integrals",
                                  "integral_gradients"])
def test_every_kind_compiles_from_a_text_past_the_recursion_limit(kind):
    terms = ["0.001*p*q^2"] * 2000
    assert len(terms) > getrecursionlimit()
    compiled = dsl.compile_system(kind, _sum_text(terms), ("q",), ("q", "p"))
    assert compiled.source.startswith("def ")


def test_long_texts_walk_in_every_walker():
    # a sum of 3,000 terms, three times Python's default recursion limit
    e = parse("+".join(_monomials(3000)))
    assert free_variables(e) == {"p", "q"}
    simple = simplify(e)  # p^1 and q^0 fold
    assert to_text(simplify(simple)) == to_text(simple)
    at = {"p": 0.5, "q": 0.25}
    assert eval_expr(differentiate(e, "q"), at) == pytest.approx(sum(
        0.001 * 0.5 ** a * b * 0.25 ** (b - 1) for a, b in itertools.islice(
            itertools.product(range(1, 100), range(100)), 3000)),
        rel=1e-12)
    assert dsl._parity(parse("+".join(["q*p"] * 3000)),
                       frozenset({"q"})) == 1


def test_eval_passes_complex_scalars_through():
    # dsl check takes its reference derivative as Im H(x + i eps) / eps
    e = parse("x^3 + sin(y)*x")
    val = eval_expr(e, {"x": 2.0 + 1e-30j, "y": 0.5})
    assert isinstance(val, complex)
    assert val.imag / 1e-30 == pytest.approx(12.0 + math.sin(0.5),
                                             rel=1e-15)
    assert isinstance(eval_expr(e, {"x": 2.0, "y": 0.5}), float)
    # an overflowing power gives numpy's value, as a float's gives inf
    assert eval_expr(parse("x^3"), {"x": 1e200 + 1j}) \
        == complex(math.inf, math.inf)


def test_a_constant_power_that_overflows_is_infinite():
    # as numpy's power is, where Python's float power raises
    assert simplify(parse("2^2000")) == Const(math.inf)
    assert simplify(PowInt(Const(-2.0), 2001)) == Const(-math.inf)
    assert simplify(PowInt(Const(-2.0), 2000)) == Const(math.inf)
    assert eval_expr(parse("2^2000*x"), {"x": 1.0}) == math.inf
    assert eval_expr(parse("x^2001"), {"x": -2.0}) == -math.inf
    assert eval_expr(parse("x^3"), {"x": 1.1}) == 1.1 ** 3
