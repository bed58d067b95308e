import math

import numpy as np
import pytest
from catalog_oracle import oracle_field

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
    cross_check_fields,
    differentiate,
    eval_expr,
    format_hamiltonian_file,
    free_variables,
    hamiltonian_text,
    hamiltonian_vector_field,
    parse,
    parse_hamiltonian_file,
    shipped_hamiltonians,
    simplify,
    to_text,
    tokenize,
)
from toruslab.errors import (
    EvalError,
    InvalidValue,
    LayoutMismatch,
    LexError,
    NotHamiltonian,
    PairingError,
    ParseError,
    SimplifyError,
    UnboundVar,
)
from toruslab.integrators import _dp54_step
from toruslab.systems import (
    HAM_COMPACT,
    HAM_UNIQUE,
    REV_COMPACT,
    REV_UNIQUE,
    SystemParams,
    build_control_system,
    build_system,
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
    report = cross_check_fields(oracle_field(sys), derived, samples=400,
                                seed=1)
    assert report.max_abs_deviation <= 1e-12


def test_derived_field_matches_catalog_ham_compact():
    sys = build_system(SystemParams(HAM_COMPACT, n=1, m=1, omega=(1.0,)))
    expr, pairing = parse_hamiltonian_file(
        hamiltonian_text(HAM_COMPACT, 1, 1, (1.0,)))
    derived = hamiltonian_vector_field(expr, pairing).evaluator(sys.layout)
    report = cross_check_fields(oracle_field(sys), derived, samples=400,
                                seed=2)
    assert report.max_abs_deviation <= 1e-12


def test_cross_check_distinguishes_unique_from_compact():
    a = build_system(SystemParams(HAM_UNIQUE, n=1, m=0, omega=(1.0,)))
    b = build_system(SystemParams(HAM_COMPACT, n=1, m=0, omega=(1.0,)))
    report = cross_check_fields(a, b, samples=200, seed=3)
    assert report.max_abs_deviation > 1e-3


def test_cross_check_layout_mismatch():
    a = build_system(SystemParams(HAM_UNIQUE, n=1, m=0, omega=(1.0,)))
    b = build_system(SystemParams(REV_UNIQUE, n=1, m=1, l=1, omega=(1.0,)))
    with pytest.raises(LayoutMismatch):
        cross_check_fields(a, b)


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
        report = cross_check_fields(oracle_field(sys), derived,
                                    samples=250, seed=7)
        assert report.max_abs_deviation <= 1e-12, stem


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
    build_control_system(omega=1.0, nu=0.3),
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
    # the tangent flow: the rates, then J @ M
    M = np.arange(16.0).reshape(4, 4) / 8.0 - 1.0
    J = np.array([[eval_expr(differentiate(e, name), b) for name in names]
                  for e in rates])
    got = tangent.field(state + tuple(M.ravel()))
    assert np.max(np.abs(np.subtract(got[:4], want))) <= 1e-15
    assert np.max(np.abs(np.subtract(got[4:], (J @ M).ravel()))) <= 1e-14
    # the fused Dormand-Prince step and its error norm
    y5, err = _dp54_step(field, np.array(state), 0.1)
    r = err / (1e-10 + 1e-8 * np.maximum(np.abs(state), np.abs(y5)))
    y, norm = compiled.dp54_step(state, 0.1, 1e-10, 1e-8)
    assert np.max(np.abs(np.subtract(y, y5))) <= 1e-15
    assert norm == pytest.approx(float(np.sqrt(np.mean(r * r))), rel=1e-12)


def test_tangent_slots_cannot_meet_a_source_name():
    # a layout label spelled like a matrix slot is refused, not aliased
    with pytest.raises(InvalidValue):
        compile_tangent([parse("x"), Var("M[0,0]")], ("x", "M[0,0]"))


def test_compiled_rates_reject_an_unknown_variable():
    with pytest.raises(UnboundVar):
        compile_rates([parse("x + y")], ("x",))
