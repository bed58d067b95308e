"""A small expression language for polynomial-trigonometric Hamiltonians.

The grammar covers exactly what the shipped energy functions need:
numbers, variables, + - * /, integer powers via ^, and sin/cos. Operator
precedence is ^ above unary minus above * / above + -, so -x^2 means
-(x^2). Exponents are bare non-negative integer literals.

A Hamiltonian text file carries a pairing header followed by the
expression, e.g.::

    pairs: (phi_1,u_1)(y,x)(q_1,p_1)
    1.0*u_1 + x*u_1^2 + x^3/3 + x*y^2 + p_1^3/3 + p_1*q_1^2

The header lists (position, momentum) pairs; `hamiltonian_vector_field`
turns the expression into rate expressions via pos' = +dH/dmom,
mom' = -dH/dpos.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
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
from .phase import CoordinateLayout
from .systems import HAM_COMPACT, HAM_UNIQUE, REV_COMPACT, REV_UNIQUE


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class Token:
    kind: str        # number | ident | op | lparen | rparen
    text: str
    position: int    # character offset into the source


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^])"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
)


def tokenize(text: str) -> list[Token]:
    """Split source into tokens, reporting the offset of anything illegal.

    Examples
    --------
    >>> [t.kind for t in tokenize("x + 1")]
    ['ident', 'op', 'number']
    """
    if not text.isascii():
        bad = next(i for i, c in enumerate(text) if not c.isascii())
        raise LexError("non-ASCII character", position=bad)
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LexError(f"unexpected character {text[pos]!r}",
                           position=pos)
        kind = m.lastgroup
        if kind != "ws":
            out.append(Token(kind=kind, text=m.group(), position=pos))
        pos = m.end()
    return out


# ---------------------------------------------------------------------------
# syntax tree


class Expr:
    """Base class; all nodes are frozen dataclasses and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class PowInt(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr


@dataclass(frozen=True)
class Sin(Expr):
    child: Expr


@dataclass(frozen=True)
class Cos(Expr):
    child: Expr


class _Parser:
    def __init__(self, tokens: list[Token], length: int):
        self.toks = tokens
        self.i = 0
        self.length = length

    def peek(self) -> Optional[Token]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self) -> Token:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of expression",
                             position=self.length)
        self.i += 1
        return t

    def expect(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t is None or t.kind != kind:
            pos = t.position if t is not None else self.length
            raise ParseError(f"expected {what}", position=pos)
        return self.take()

    # expr := term (('+'|'-') term)*
    def expr(self) -> Expr:
        node = self.term()
        while (t := self.peek()) is not None and t.kind == "op" \
                and t.text in "+-":
            self.take()
            rhs = self.term()
            node = Add(node, rhs) if t.text == "+" else Sub(node, rhs)
        return node

    # term := unary (('*'|'/') unary)*
    def term(self) -> Expr:
        node = self.unary()
        while (t := self.peek()) is not None and t.kind == "op" \
                and t.text in "*/":
            self.take()
            rhs = self.unary()
            node = Mul(node, rhs) if t.text == "*" else Div(node, rhs)
        return node

    # unary := '-' unary | power
    def unary(self) -> Expr:
        t = self.peek()
        if t is not None and t.kind == "op" and t.text == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    # power := atom ('^' INT)?
    def power(self) -> Expr:
        node = self.atom()
        t = self.peek()
        if t is not None and t.kind == "op" and t.text == "^":
            self.take()
            e = self.expect("number", "an integer exponent")
            if not e.text.isdigit():
                raise ParseError("exponent must be a bare non-negative "
                                 "integer", position=e.position)
            node = PowInt(node, int(e.text))
        return node

    def atom(self) -> Expr:
        t = self.take()
        if t.kind == "number":
            return Const(float(t.text))
        if t.kind == "ident":
            if t.text in ("sin", "cos"):
                self.expect("lparen", "'(' after function name")
                inner = self.expr()
                self.expect("rparen", "')'")
                return Sin(inner) if t.text == "sin" else Cos(inner)
            return Var(t.text)
        if t.kind == "lparen":
            inner = self.expr()
            self.expect("rparen", "')'")
            return inner
        raise ParseError(f"unexpected token {t.text!r}", position=t.position)


def parse(text: str) -> Expr:
    """Parse source text to a syntax tree.

    Raises LexError/ParseError with character offsets on malformed input.
    """
    p = _Parser(tokenize(text), len(text))
    node = p.expr()
    t = p.peek()
    if t is not None:
        raise ParseError(f"trailing input starting at {t.text!r}",
                         position=t.position)
    return node


def free_variables(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset({e.name})
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, (Add, Sub, Mul, Div)):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, PowInt):
        return free_variables(e.base)
    if isinstance(e, (Neg, Sin, Cos)):
        return free_variables(e.child)
    raise InvalidValue(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# simplification through smart constructors

def _is_const(e: Expr, value=None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        raise SimplifyError("division by the constant zero")
    if _is_const(a) and _is_const(b):
        return Const(a.value / b.value)
    if _is_const(b, 1.0):
        return a
    # fold a shared constant factor: (c*e)/k -> (c/k)*e
    if isinstance(a, Mul) and _is_const(a.left) and _is_const(b):
        return _mul(Const(a.left.value / b.value), a.right)
    return Div(a, b)


def _pow(base: Expr, k: int) -> Expr:
    if k == 0:
        return Const(1.0)
    if k == 1:
        return base
    if _is_const(base):
        return Const(base.value ** k)
    return PowInt(base, k)


def _neg(e: Expr) -> Expr:
    if _is_const(e):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.child
    return Neg(e)


def simplify(e: Expr) -> Expr:
    """Constant folding plus 0/1 identities, applied bottom-up.

    Idempotent, and preserves values everywhere both sides are defined.
    """
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Add):
        return _add(simplify(e.left), simplify(e.right))
    if isinstance(e, Sub):
        return _sub(simplify(e.left), simplify(e.right))
    if isinstance(e, Mul):
        return _mul(simplify(e.left), simplify(e.right))
    if isinstance(e, Div):
        return _div(simplify(e.left), simplify(e.right))
    if isinstance(e, PowInt):
        return _pow(simplify(e.base), e.exponent)
    if isinstance(e, Neg):
        return _neg(simplify(e.child))
    if isinstance(e, Sin):
        c = simplify(e.child)
        return Const(math.sin(c.value)) if _is_const(c) else Sin(c)
    if isinstance(e, Cos):
        c = simplify(e.child)
        return Const(math.cos(c.value)) if _is_const(c) else Cos(c)
    raise InvalidValue(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# differentiation


def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to `var`, simplified.

    Examples
    --------
    >>> to_text(differentiate(parse("x^3/3 + x*y^2"), "x"))
    'x^2+y^2'
    """
    return simplify(_d(e, var))


def _d(e: Expr, var: str) -> Expr:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if e.name == var else Const(0.0)
    if isinstance(e, Add):
        return Add(_d(e.left, var), _d(e.right, var))
    if isinstance(e, Sub):
        return Sub(_d(e.left, var), _d(e.right, var))
    if isinstance(e, Mul):
        return Add(Mul(_d(e.left, var), e.right),
                   Mul(e.left, _d(e.right, var)))
    if isinstance(e, Div):
        if isinstance(e.right, Const):
            return Div(_d(e.left, var), e.right)
        num = Sub(Mul(_d(e.left, var), e.right),
                  Mul(e.left, _d(e.right, var)))
        return Div(num, PowInt(e.right, 2))
    if isinstance(e, PowInt):
        if e.exponent == 0:
            return Const(0.0)
        return Mul(Mul(Const(float(e.exponent)),
                       PowInt(e.base, e.exponent - 1)),
                   _d(e.base, var))
    if isinstance(e, Neg):
        return Neg(_d(e.child, var))
    if isinstance(e, Sin):
        return Mul(Cos(e.child), _d(e.child, var))
    if isinstance(e, Cos):
        return Neg(Mul(Sin(e.child), _d(e.child, var)))
    raise InvalidValue(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation


Bindings = dict[str, Union[float, np.ndarray]]


def eval_expr(e: Expr, bindings: Bindings):
    """Evaluate with numeric or numpy-array bindings.

    Array bindings broadcast; a scalar result is returned as float. Raises
    UnboundVar for missing names and EvalError on division by zero.
    """
    val = _ev(e, bindings)
    if np.ndim(val) == 0:
        return float(val)
    return val


def _ev(e: Expr, b: Bindings):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return b[e.name]
        except KeyError:
            raise UnboundVar(f"no binding for variable {e.name!r}") from None
    if isinstance(e, Add):
        return _ev(e.left, b) + _ev(e.right, b)
    if isinstance(e, Sub):
        return _ev(e.left, b) - _ev(e.right, b)
    if isinstance(e, Mul):
        return _ev(e.left, b) * _ev(e.right, b)
    if isinstance(e, Div):
        den = _ev(e.right, b)
        if np.any(np.asarray(den) == 0.0):
            raise EvalError("division by zero during evaluation")
        return _ev(e.left, b) / den
    if isinstance(e, PowInt):
        return _ev(e.base, b) ** e.exponent
    if isinstance(e, Neg):
        return -_ev(e.child, b)
    if isinstance(e, Sin):
        return np.sin(_ev(e.child, b))
    if isinstance(e, Cos):
        return np.cos(_ev(e.child, b))
    raise InvalidValue(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# printing


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return 1
    if isinstance(e, (Mul, Div)):
        return 2
    if isinstance(e, Neg):
        return 3
    if isinstance(e, Const) and e.value < 0:
        return 3  # prints with a leading minus
    if isinstance(e, PowInt):
        return 4
    return 5


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_text(e: Expr) -> str:
    """Render compactly; parse(to_text(e)) evaluates to the same values,
    and printing is a fixed point on its own output."""
    if isinstance(e, Const):
        return _fmt_number(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        left = _wrap(e.left, 1, strict=False)
        right = _wrap(e.right, 1, strict=isinstance(e, Sub))
        return f"{left}{op}{right}"
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        left = _wrap(e.left, 2, strict=False)
        right = _wrap(e.right, 2, strict=isinstance(e, Div))
        return f"{left}{op}{right}"
    if isinstance(e, Neg):
        return "-" + _wrap(e.child, 3, strict=False)
    if isinstance(e, PowInt):
        base = to_text(e.base)
        if _prec(e.base) < 5:
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Sin):
        return f"sin({to_text(e.child)})"
    if isinstance(e, Cos):
        return f"cos({to_text(e.child)})"
    raise InvalidValue(f"not an expression node: {e!r}")


def _wrap(e: Expr, parent_prec: int, strict: bool) -> str:
    text = to_text(e)
    p = _prec(e)
    if p < parent_prec or (strict and p == parent_prec):
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# canonical pairings and derived vector fields


@dataclass(frozen=True)
class CanonicalPairing:
    """(position, momentum) name pairs; all names distinct."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        names = [n for pq in self.pairs for n in pq]
        if len(set(names)) != len(names):
            raise PairingError("pairing names must be distinct")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for pq in self.pairs for n in pq)


@dataclass(frozen=True, eq=False)
class DerivedField:
    """Rate expressions derived from an energy function.

    rate_exprs maps each paired variable name to its (simplified) rate;
    position names get +dH/dmom, momentum names -dH/dpos.
    """

    energy: Expr
    pairing: CanonicalPairing
    rate_exprs: dict[str, Expr]

    def evaluator(self, layout: CoordinateLayout
                  ) -> Callable[[np.ndarray], np.ndarray]:
        """A vectorized field callable on states laid out per `layout`.

        Every layout label must have a rate expression, i.e. the pairing
        must cover the layout exactly.
        """
        missing = [lab for lab in layout.labels
                   if lab not in self.rate_exprs]
        if missing:
            raise PairingError(
                f"pairing does not cover layout labels {missing}")
        order = [self.rate_exprs[lab] for lab in layout.labels]

        def field(states: np.ndarray) -> np.ndarray:
            states = np.asarray(states, dtype=float)
            b = {lab: states[..., i]
                 for i, lab in enumerate(layout.labels)}
            out = np.zeros_like(states)
            for i, expr in enumerate(order):
                out[..., i] = _ev(expr, b)
            return out

        field.layout = layout
        return field


def hamiltonian_vector_field(energy: Expr,
                             pairing: CanonicalPairing) -> DerivedField:
    """Symbolic canonical field of an energy function.

    Raises PairingError if the energy mentions variables outside the
    pairing.
    """
    uncovered = free_variables(energy) - set(pairing.names)
    if uncovered:
        raise PairingError(
            f"energy uses unpaired variables {sorted(uncovered)}")
    rates: dict[str, Expr] = {}
    for pos, mom in pairing.pairs:
        rates[pos] = differentiate(energy, mom)
        rates[mom] = simplify(Neg(_d(energy, pos)))
    return DerivedField(energy=energy, pairing=pairing, rate_exprs=rates)


# ---------------------------------------------------------------------------
# field cross-checking


@dataclass(frozen=True)
class CrossCheckReport:
    max_abs_deviation: float
    worst_state: np.ndarray
    worst_slot: int
    samples: int


def _as_field(obj):
    if callable(obj):
        return obj, getattr(obj, "layout", None)
    # a System-like object with .field and .layout
    if hasattr(obj, "field") and hasattr(obj, "layout"):
        return obj.field, obj.layout
    raise InvalidValue(f"not a field: {obj!r}")


def cross_check_fields(f1, f2, layout: Optional[CoordinateLayout] = None,
                       samples: int = 256, seed: int = 0
                       ) -> CrossCheckReport:
    """Compare two fields on seeded random states; report the worst slot.

    Layouts (from the arguments or the `layout` parameter) must agree on
    dimension and labels; angle-slot sets may differ, so a compactified
    field can be checked against its non-compact source and simply show a
    nonzero deviation. Angular slots sample the full circle, real slots
    the box [-1, 1].
    """
    fn1, lay1 = _as_field(f1)
    fn2, lay2 = _as_field(f2)
    layouts = [la for la in (lay1, lay2, layout) if la is not None]
    if not layouts:
        raise InvalidValue("no layout available; pass layout=")
    ref = layouts[0]
    for la in layouts[1:]:
        if la.labels != ref.labels:
            raise LayoutMismatch("fields disagree on layout labels")
    rng = np.random.default_rng(seed)
    states = rng.uniform(-1.0, 1.0, size=(samples, ref.dim))
    states[:, ref.angle_mask] = rng.uniform(-math.pi, math.pi,
                                            size=(samples,
                                                  int(ref.angle_mask.sum())))
    dev = np.abs(np.asarray(fn1(states)) - np.asarray(fn2(states)))
    flat = int(np.argmax(dev))
    row, slot = divmod(flat, ref.dim)
    return CrossCheckReport(max_abs_deviation=float(dev[row, slot]),
                            worst_state=states[row].copy(),
                            worst_slot=slot, samples=samples)


# ---------------------------------------------------------------------------
# Hamiltonian text files


_PAIR_RE = re.compile(r"\(\s*([A-Za-z][A-Za-z0-9_]*)\s*,"
                      r"\s*([A-Za-z][A-Za-z0-9_]*)\s*\)")


def format_hamiltonian_file(energy: Expr, pairing: CanonicalPairing) -> str:
    pairs = "".join(f"({p},{q})" for p, q in pairing.pairs)
    return f"pairs: {pairs}\n{to_text(energy)}\n"


def parse_hamiltonian_file(text: str) -> tuple[Expr, CanonicalPairing]:
    """Parse a pairing header plus expression; inverse of the formatter."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].lstrip().startswith("pairs:"):
        raise ParseError("first line must be a 'pairs:' header", position=0)
    header = lines[0].split(":", 1)[1]
    pairs = tuple((p, q) for p, q in _PAIR_RE.findall(header))
    leftover = _PAIR_RE.sub("", header).strip()
    if leftover or not pairs:
        raise ParseError("malformed pairing header", position=0)
    expr = parse(" ".join(lines[1:]))
    return expr, CanonicalPairing(pairs=pairs)


def hamiltonian_text(family: str, n: int, m: int, omega) -> str:
    """The energy text of a Hamiltonian family member, ready to parse.

    Reversible family names raise NotHamiltonian; they have no energy
    function at all.
    """
    if family in (REV_UNIQUE, REV_COMPACT):
        raise NotHamiltonian(
            f"family {family!r} is reversible, not Hamiltonian")
    if family not in (HAM_UNIQUE, HAM_COMPACT):
        raise InvalidValue(f"unknown family {family!r}")
    if n < 1 or m < 0 or len(tuple(omega)) != n:
        raise InvalidValue("need n >= 1, m >= 0, len(omega) == n")

    def var(name):  # compact variant reads every slot through sin
        return f"sin({name})" if family == HAM_COMPACT else name

    terms = []
    for i in range(n):
        w = float(tuple(omega)[i])
        terms.append(f"{w!r}*{var(f'u_{i + 1}')}")
        terms.append(f"{var('x')}*{var(f'u_{i + 1}')}^2")
    terms.append(f"{var('x')}^3/3")
    terms.append(f"{var('x')}*{var('y')}^2")
    for j in range(m):
        terms.append(f"{var(f'p_{j + 1}')}^3/3")
        terms.append(f"{var(f'p_{j + 1}')}*{var(f'q_{j + 1}')}^2")
    pair_bits = "".join(f"(phi_{i + 1},u_{i + 1})" for i in range(n))
    pair_bits += "(y,x)"
    pair_bits += "".join(f"(q_{j + 1},p_{j + 1})" for j in range(m))
    return f"pairs: {pair_bits}\n{' + '.join(terms)}\n"


def shipped_hamiltonians() -> dict[str, str]:
    """The four energy texts installed with the package, keyed by stem."""
    out = {}
    base = resources.files(__package__) / "data"
    for entry in sorted(base.iterdir()):
        if entry.name.endswith(".ham"):
            out[entry.name[:-4]] = entry.read_text()
    return out
