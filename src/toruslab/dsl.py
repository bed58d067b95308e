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

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    EvalError,
    InvalidValue,
    LexError,
    PairingError,
    ParseError,
    SimplifyError,
    UnboundVar,
)
from .integrators import (_DP_A, _DP_B4, _DP_B5, _MIDPOINT_MAX_ITER,
                          _MIDPOINT_TOL)
from .phase import CoordinateLayout
from .systems import System, _on_states


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


_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
# the fields of each node type that hold its children, in fold order
_CHILDREN = {Const: (), Var: (), **dict.fromkeys(_BINARY, ("left", "right")),
             PowInt: ("base",), Neg: ("child",), Sin: ("child",),
             Cos: ("child",)}


def _fold(e: Expr, visit: Callable):
    """The value of visit(node, values) at the root e, values holding
    those of node's children in the order of their fields.

    visit is called once per node in post-order: every child before its
    parent, a left child's subtree before its right sibling's. The work
    is kept on lists, not on Python's call stack, so a tree of any depth
    folds; a subtree that a tree holds twice is folded twice."""
    order, todo = [], [e]
    while todo:  # pre-order, right before left, so reversed is post-order
        node = todo.pop()
        order.append(node)
        fields = _CHILDREN.get(type(node))
        if fields is None:
            raise InvalidValue(f"not an expression node: {node!r}")
        for f in fields:
            todo.append(getattr(node, f))
    values = []
    for node in reversed(order):
        n = len(_CHILDREN[type(node)])
        if n:
            args = values[-n:]
            del values[-n:]
            values.append(visit(node, args))
        else:
            values.append(visit(node, ()))
    return values[0]


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
            value = float(t.text)
            if not math.isfinite(value):  # 1e400 reads as inf
                raise ParseError(f"number {t.text} is out of range",
                                 position=t.position)
            return Const(value)
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
    return _fold(e, lambda node, names: frozenset({node.name})
                 if type(node) is Var else frozenset().union(*names))


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
    if _is_const(b) and (folded := _scaled(a, b.value)) is not None:
        return folded
    return Div(a, b)


def _scaled(e: Expr, k: float) -> Optional[Expr]:
    """e / k with k folded into the constant at the bottom of e's left
    spine of products, ((c*e1)*e2)/k -> ((c/k)*e1)*e2; None when the
    spine ends in no constant."""
    factors = []
    while isinstance(e, Mul):
        factors.append(e.right)
        e = e.left
    return functools.reduce(_mul, reversed(factors), Const(e.value / k)) \
        if _is_const(e) else None


def _power(x, k: int):
    """x ** k, where a float's overflows to inf of its sign, as numpy's,
    and a complex number's to numpy's value."""
    try:
        return x ** k
    except OverflowError:
        if isinstance(x, complex):
            with np.errstate(over="ignore", invalid="ignore"):
                return complex(np.power(x, k))
        return math.copysign(math.inf, x) if k % 2 else math.inf


def _quotient(a: float, b: float) -> float:
    """a / b of two floats as numpy divides them: a zero divisor gives
    inf of the quotient's sign, or nan for 0/0, where Python's raises."""
    try:
        return a / b
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.divide(a, b))


def _pow(base: Expr, k: int) -> Expr:
    if k == 0:
        return Const(1.0)
    if k == 1:
        return base
    if _is_const(base):
        return Const(_power(base.value, k))
    return PowInt(base, k)


def _neg(e: Expr) -> Expr:
    if _is_const(e):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.child
    return Neg(e)


_SMART = {Add: _add, Sub: _sub, Mul: _mul, Div: _div, Neg: _neg,
          Sin: lambda c: Const(math.sin(c.value)) if _is_const(c) else Sin(c),
          Cos: lambda c: Const(math.cos(c.value)) if _is_const(c) else Cos(c)}


def _simplified(node: Expr, args: list) -> Expr:
    if type(node) is PowInt:
        return _pow(args[0], node.exponent)
    return _SMART[type(node)](*args) if args else node


def simplify(e: Expr) -> Expr:
    """Constant folding plus 0/1 identities, applied bottom-up.

    Idempotent, and preserves values everywhere both sides are defined.
    """
    return _fold(e, _simplified)


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
    def visit(node, d):
        t = type(node)
        if t is Var:
            return Const(1.0) if node.name == var else Const(0.0)
        if t is Const or t is PowInt and node.exponent == 0:
            return Const(0.0)
        if t is Add or t is Sub or t is Neg:
            return t(*d)
        if t is Mul:
            return Add(Mul(d[0], node.right), Mul(node.left, d[1]))
        if t is Div:
            if isinstance(node.right, Const):
                return Div(d[0], node.right)
            num = Sub(Mul(d[0], node.right), Mul(node.left, d[1]))
            return Div(num, PowInt(node.right, 2))
        if t is PowInt:
            return Mul(Mul(Const(float(node.exponent)),
                           PowInt(node.base, node.exponent - 1)), d[0])
        if t is Sin:
            return Mul(Cos(node.child), d[0])
        return Neg(Mul(Sin(node.child), d[0]))
    return _fold(e, visit)


# ---------------------------------------------------------------------------
# evaluation


Bindings = dict[str, Union[float, np.ndarray]]
_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
               Neg: operator.neg, Sin: np.sin, Cos: np.cos}


def eval_expr(e: Expr, bindings: Bindings):
    """Evaluate with numeric or numpy-array bindings.

    Array bindings broadcast; a scalar result is returned as float, or as
    complex when a binding is complex. Raises UnboundVar for missing
    names and EvalError on division by zero.
    """
    def visit(node, v):
        t = type(node)
        if t is Const:
            return node.value
        if t is Var:
            try:
                return bindings[node.name]
            except KeyError:
                raise UnboundVar(
                    f"no binding for variable {node.name!r}") from None
        if t is Div:
            if np.any(np.asarray(v[1]) == 0.0):
                raise EvalError("division by zero during evaluation")
            return v[0] / v[1]
        if t is PowInt:
            return _power(v[0], node.exponent)
        return _ARITHMETIC[t](*v)
    val = _fold(e, visit)
    if np.ndim(val):
        return val
    return complex(val) if np.iscomplexobj(val) else float(val)


# ---------------------------------------------------------------------------
# printing


_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, PowInt: 4}


def _prec(e: Expr) -> int:
    if isinstance(e, Const) and e.value < 0:
        return 3  # prints with a leading minus
    return _PREC.get(type(e), 5)


def _fmt_number(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):
        return str(int(v))
    return repr(v)


def to_text(e: Expr) -> str:
    """Render compactly; parse(to_text(e)) evaluates to the same values,
    and printing is a fixed point on its own output."""
    def visit(node, texts):
        t = type(node)
        if t is Const:
            return _fmt_number(node.value)
        if t is Var:
            return node.name
        if t in _BINARY:
            p = _prec(node)
            return _wrap(node.left, texts[0], p, False) + _BINARY[t] \
                + _wrap(node.right, texts[1], p, t is Sub or t is Div)
        if t is Neg:
            return "-" + _wrap(node.child, texts[0], 3, False)
        if t is PowInt:
            return _wrap(node.base, texts[0], 5, False) + f"^{node.exponent}"
        return f"{t.__name__.lower()}({texts[0]})"
    return _fold(e, visit)


def _wrap(e: Expr, text: str, parent_prec: int, strict: bool) -> str:
    p = _prec(e)
    return f"({text})" if p < parent_prec or strict and p == parent_prec \
        else text


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

    rate_exprs: dict[str, Expr]

    def evaluator(self, layout: CoordinateLayout
                  ) -> Callable[[np.ndarray], np.ndarray]:
        """A vectorized field callable on states laid out per `layout`.

        The rates are compiled once by `compile_numpy`, and the callable
        takes states (..., dim) as a System's field does, with no layout
        check of its own. Every layout label must have a rate expression,
        i.e. the pairing must cover the layout exactly.
        """
        return functools.partial(_on_states, compile_numpy(
            _rates_in_order(self, layout.labels), layout.labels))


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
    return DerivedField(rate_exprs=rates)


def _rates_in_order(derived: DerivedField, labels) -> list[Expr]:
    missing = [lab for lab in labels if lab not in derived.rate_exprs]
    if missing:
        raise PairingError(f"pairing does not cover layout labels {missing}")
    return [derived.rate_exprs[lab] for lab in labels]


# ---------------------------------------------------------------------------
# compilation to straight-line code over Python floats


# the numpy function of each operation, for code that names its output
_UFUNCS = {"+": "_add", "-": "_subtract", "*": "_multiply", "/": "_divide",
           "**": "_power", "Neg": "_negative", "Sin": "_sin", "Cos": "_cos"}
# the most operations written into one another; each adds at most two
# parentheses, and CPython's parser refuses more than 200
_NESTING = 50


class _Dag:
    """Value numbering: each distinct subexpression becomes one node.

    A node is ("in", slot), ("const", index into consts) or an operation
    on earlier nodes, so the nodes are in dependency order and a
    subexpression shared by several rates is computed once.
    """

    def __init__(self, names: Sequence[str]):
        self.slot = {name: i for i, name in enumerate(names)}
        if len(self.slot) != len(names):
            raise InvalidValue("slot names must be distinct")
        self.consts: list[float] = []
        self.nodes: list[tuple] = []
        self._number: dict[tuple, int] = {}

    def add(self, e: Expr) -> int:
        """The node of e, numbering those of its subexpressions first."""
        def visit(expr, args):
            t = type(expr)
            if t is Var:
                if expr.name not in self.slot:
                    raise UnboundVar(f"no slot for variable {expr.name!r}")
                key = node = ("in", self.slot[expr.name])
            elif t is Const:
                key = ("const", expr.value.hex())  # tells 0.0 from -0.0
                node = ("const", len(self.consts))
            elif t is PowInt:
                key = node = ("^", args[0], expr.exponent)
            else:
                key = node = (_BINARY.get(t, t.__name__), *args)
            if key not in self._number:
                if node[0] == "const":
                    self.consts.append(expr.value)
                self._number[key] = len(self.nodes)
                self.nodes.append(node)
            return self._number[key]
        return _fold(e, visit)

    def operands(self, k: int) -> tuple[int, ...]:
        node = self.nodes[k]
        if node[0] in ("in", "const"):
            return ()
        return node[1:3] if node[0] in _BINARY.values() else node[1:2]

    def at(self, inputs) -> dict[int, str]:
        """The input nodes of the slots that `inputs` names, one code name
        per slot or a map from slots to code names."""
        if not isinstance(inputs, dict):
            inputs = dict(enumerate(inputs))
        return {k: inputs[node[1]] for k, node in enumerate(self.nodes)
                if node[0] == "in" and node[1] in inputs}

    def constant(self, value: float) -> str:
        """The code name of a further constant, bound by value as the
        constants of nodes are."""
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def emit(self, known, fresh, lines, indent, keep=None, outputs=None,
             targets=None, inplace=False) -> dict[int, str]:
        """Append one assignment per operation that `known`, a map from
        nodes to code names, lets the code compute and does not already
        name; return the code name of every node named.

        known holds the inputs (see `at`), and may hold operations
        computed elsewhere, which are then not computed again. Given
        `keep`, the nodes the caller reads afterwards, every other
        temporary is deleted after its last use, so that a numpy array
        frees its memory for the next one. With `inplace` as well, an
        operation that reads such a temporary for the last time writes
        its value into it instead, as its ufunc's positional out, and
        allocates nothing. Only a temporary that reads a slot is written
        into, since one of constants alone is a number; the slots must
        be whole arrays, as in the rows code, not the numpy scalars of
        `_numpy_function`'s code of one state. Given `outputs` instead, an
        operation that no output is and that the code reads once is
        written into its reader, in parentheses, and not assigned, up to
        _NESTING operations deep.
        Given `targets`, a map from nodes to the code of a numpy array,
        each of those operations writes its value there (out).
        """
        names = dict(known)
        depth = {}  # of the operations written into their readers
        todo, queued = [], set()
        varies = set()  # the nodes that read a slot
        for k, node in enumerate(self.nodes):
            if node[0] == "const":  # bound by value, never printed
                names.setdefault(k, f"c{node[1]}")
            elif node[0] == "in" or any(a in varies
                                        for a in self.operands(k)):
                varies.add(k)
            if node[0] not in ("in", "const") and k not in names and all(
                    a in names or a in queued for a in self.operands(k)):
                todo.append(k)
                queued.add(k)
        last = {a: k for k in todo for a in self.operands(k)}
        reads = dict.fromkeys(todo, 0)
        for k in todo:
            node = self.nodes[k]
            for a in self.operands(k):
                if a in queued:
                    reads[a] += 2 if node[0] == "^" and node[2] == 2 else 1
        for k in todo:
            node = self.nodes[k]
            op = node[0]
            args = [names[node[1]]]
            if op in _BINARY.values():
                args.append(names[node[2]])
            elif op == "^":  # a*a is the square numpy's ** 2 computes
                args += [args[0]] if node[2] == 2 else [str(node[2])]
                op = "*" if node[2] == 2 else "**"
            dead = [] if keep is None else [
                j for j in dict.fromkeys(self.operands(k))
                if last[j] == k and j not in keep and j in queued]
            out = (targets or {}).get(k)
            into = next((j for j in dead if j in varies), None) \
                if inplace and out is None else None
            if into is not None:
                out = names[into]
                dead.remove(into)
            if out is not None:
                code = f"{_UFUNCS[op]}({', '.join(args)}, {out})"
            elif op == "**":  # a float's overflow gives inf, as numpy's
                code = f"_intpow({args[0]}, {args[1]})"
            elif op == "/" and self.nodes[node[2]][0] != "const":
                # a zero divisor gives numpy's inf or nan, not an error
                code = f"_div({args[0]}, {args[1]})"
            elif len(args) == 2:
                code = f"{args[0]} {op} {args[1]}"
            elif op == "Neg":
                code = f"-{args[0]}"
            else:
                code = f"_{op.lower()}({args[0]})"
            if outputs is not None and reads[k] == 1 and k not in outputs:
                nest = 1 + max(depth.get(a, 0) for a in self.operands(k))
                if nest <= _NESTING:
                    names[k], depth[k] = f"({code})", nest
                    continue
            if into is not None:
                names[k] = out
                lines.append(f"{indent}{code}")
            else:
                names[k] = f"v{next(fresh)}"
                lines.append(f"{indent}{names[k]} = {code}")
            if dead:
                lines.append(f"{indent}del "
                             f"{', '.join(names[j] for j in dead)}")
        return names


def _tuple(items) -> str:
    return "(" + "".join(f"{x}, " for x in items) + ")"


def _numpy_sum(terms: list, add=lambda a, b: f"({a} + {b})"):
    """The sum of terms in the order numpy sums a contiguous float array:
    left to right below 8 terms; else eight interleaved running sums,
    added pairwise, then the tail; past 128 terms, each half apart. add
    writes the code of a sum, or, as operator.add, sums arrays."""
    n = len(terms)
    if n < 8:
        return functools.reduce(add, terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return add(_numpy_sum(terms[:half], add),
                   _numpy_sum(terms[half:], add))
    whole = n - n % 8
    r = [functools.reduce(add, terms[j:whole:8]) for j in range(8)]
    pairs = add(add(add(r[0], r[1]), add(r[2], r[3])),
                add(add(r[4], r[5]), add(r[6], r[7])))
    return functools.reduce(add, terms[whole:], pairs)


# the Dormand-Prince tableau by the names the generated dp54_step reads
_DP_NAMES = {f"_a{i}_{j}": a for i, row in enumerate(_DP_A)
             for j, a in enumerate(row)}
_DP_NAMES.update({f"_e{j}": b5 - b4 for j, (b5, b4)
                  in enumerate(zip(_DP_B5, _DP_B4))}, _b6=_DP_B5[6])

_FUNCTIONS = ("field", "conserved", "rk4_step", "midpoint_step", "dp54_step",
              "run")


@dataclass(frozen=True)
class _Rk4Slots:
    """How the rk4 step treats each slot of a system.

    zero holds the slots whose rate is the constant 0, of either sign,
    taken as the +0.0 of numpy's field. Every stage after the first sees
    such a slot at s + h*0.0 (hh*0.0 is h*0.0 to the bit, the zero of
    h's sign), which is also its next value, so the operations that read
    zero-rate slots alone, `shared`, are computed by conserved(s) once
    per march for every generated fixed step (see `_generate` and
    `_rk4_rows`); `handed` lists, in node order, those that other
    operations or the moving rates read, which conserved returns. const
    maps the other slots of constant rate c to the name of c, and step
    maps them to the folded (c + 2c + 2c + c) / 6 by which h is
    multiplied for their next value. moving lists the rest. A slot
    outside `read`, which no rate reads, gets no stage states.
    """

    zero: tuple[int, ...]
    const: dict
    step: dict
    moving: tuple[int, ...]
    read: frozenset
    shared: frozenset
    handed: tuple[int, ...]

    @classmethod
    def of(cls, dag: _Dag, rates: list[int]) -> "_Rk4Slots":
        fixed = {i: dag.nodes[r][1] for i, r in enumerate(rates)
                 if dag.nodes[r][0] == "const"}
        zero = tuple(i for i, j in fixed.items() if dag.consts[j] == 0.0)
        const = {i: j for i, j in fixed.items() if i not in zero}
        step = {}
        for i, j in const.items():
            c = dag.consts[j]
            step[i] = (c + 2.0 * c + 2.0 * c + c) / 6.0
        alone = []  # whether each node reads zero-rate slots alone
        for k, node in enumerate(dag.nodes):
            alone.append(node[1] in zero if node[0] == "in"
                         else all(alone[a] for a in dag.operands(k)))
        shared = {k for k, ok in enumerate(alone) if ok and dag.operands(k)}
        moving = tuple(i for i in range(len(rates)) if i not in fixed)
        handed = {a for k in range(len(dag.nodes)) if k not in shared
                  for a in dag.operands(k) if a in shared}
        handed |= {rates[i] for i in moving if rates[i] in shared}
        return cls(zero=zero, const={i: f"c{j}" for i, j in const.items()},
                   step=step, moving=moving,
                   read=frozenset(node[1] for node in dag.nodes
                                  if node[0] == "in"),
                   shared=frozenset(shared), handed=tuple(sorted(handed)))


def _generate(dag: _Dag, rates: list[int], dim: int,
              functions: Sequence[str] = _FUNCTIONS) -> list[str]:
    """Source of each named function of one state tuple, among field,
    conserved, rk4_step, midpoint_step, dp54_step and run.

    The steps repeat the arithmetic of integrators._rk4_step,
    _batch_midpoint and the adaptive loop's _dp54_step with its error
    norm on a single state, operation for operation. rk4_step and
    midpoint_step take the protocol of the rows step (see `_rk4_rows`),
    step(s, h, first, rest): they read the terms that `_Rk4Slots` hands
    on, the operations that read zero-rate slots alone, from first,
    conserved(s), at stage 1 and the midpoint's predictor, and from rest,
    conserved at s + h*0.0, at stages 2-4, every midpoint iteration and
    its stuck check. conserved(s) returns them as a tuple; where their
    arithmetic raises, it returns NaN terms, which turn the step's
    moving slots NaN, as the step itself would give NaN had it computed
    them. rk4_step skips what repeats a value already computed: a
    zero-rate slot advances by h*0.0, a constant-rate one by the folded
    constant h * ((c + 2c + 2c + c) / 6), and each shares its stage
    states. In midpoint_step, a slot of constant rate c, zero included,
    has m = s + hh*c and the same update at every iteration; the
    iteration tests convergence on the other slots by comparison chains,
    breaking when every update d satisfies -_tol <= d <= _tol, or when
    one fails -_INF < d < _INF or such a slot's m is not finite, which is
    _batch_midpoint's going mask on one row. Its stuck check after
    _MIDPOINT_MAX_ITER updates follows numpy's max of the residuals too:
    stuck when none is nan and one is above _tol.

    run marches a state in a stretch of steps (see `CompiledRates`). Its
    escape test is integrators._escaping as one chain of comparisons
    -escape_norm <= a_i <= escape_norm over the unpacked slots, which a
    nan or an infinity fails as it fails _escaping. On 4 to 12 slots
    that saves 0.45-0.65 us a step over integrators._run, the same loop
    calling _escaping (rk4 steps of 0.9-4.8 us; ham-unique and
    ham-compact n = m = 1, rev-compact n = m = l = 1, ham-compact n = 3,
    m = 1, 2; Python 3.11, best of 3 over 2,000 steps), and on the 8 to
    19 slots of a tangent flow 0.07-0.3 us (control, ham-unique n = 1,
    m = 0, 1; best of 5 over 6,283 steps).
    """
    fresh = itertools.count()
    s = [f"s{i}" for i in range(dim)]
    slots = _Rk4Slots.of(dag, rates)
    # the slots of constant rate, zero included, and the code of that rate
    fixed = dict(sorted({**dict.fromkeys(slots.zero, "0.0"),
                         **slots.const}.items()))

    def field_at(inputs, lines, indent, known=()):
        names = dag.emit({**dict(known), **dag.at(inputs)}, fresh, lines,
                         indent, outputs=set(rates))
        return [names[r] for r in rates]

    def terms(arg, lines):  # the handed terms, unpacked from arg; the
        # others are read by conserved terms alone, so no step names them
        names = dict.fromkeys(slots.shared, "_unread")
        if slots.handed:
            names.update({k: f"{arg[0]}{p}"
                          for p, k in enumerate(slots.handed)})
            lines.append(f"{body}{_tuple(names[k] for k in slots.handed)}"
                         f" = {arg}")
        return names

    def shifted(out, k, scale, lines, indent):  # out = s + scale * k
        lines += [f"{indent}{o} = {a} + {scale} * {b}"
                  for o, a, b in zip(out, s, k)]
        return out

    def temps():
        return [f"v{next(fresh)}" for _ in range(dim)]

    head = [f"    {_tuple(s)} = s", "    try:"]
    tail = ["    except _FAILS:", "        return _NAN", ""]
    body = "        "

    def field():
        lines = ["def field(s):"] + head
        k = field_at(s, lines, body)
        return lines + [f"{body}return {_tuple(k)}"] + tail

    def conserved():
        if not slots.handed:
            return ["def conserved(s):", "    return ()", ""]
        lines = ["def conserved(s):"] + head
        names = dag.emit(dag.at({i: s[i] for i in slots.zero}), fresh,
                         lines, body, outputs=set(slots.handed))
        return lines + [
            f"{body}return {_tuple(names[k] for k in slots.handed)}",
            "    except _FAILS:",
            f"        return {_tuple(['_NAN[0]'] * len(slots.handed))}", ""]

    def rk4_step():
        lines = ["def rk4_step(s, h, first, rest):"] + head \
            + [f"{body}hh = 0.5 * h"]
        first, rest = terms("first", lines), terms("rest", lines)

        def assign(code):
            name = f"v{next(fresh)}"
            lines.append(f"{body}{name} = {code}")
            return name

        ks = [dag.emit({**first, **dag.at(s)}, fresh, lines, body,
                       outputs=set(rates))]
        zero = {i: assign(f"{s[i]} + h * 0.0")
                for i in slots.zero if i in slots.read}
        half, full = ({i: assign(f"{s[i]} + {scale} * {c}")
                       for i, c in slots.const.items() if i in slots.read}
                      for scale in ("hh", "h"))
        for scale, at in (("hh", half), ("hh", half), ("h", full)):
            moved = {i: assign(f"{s[i]} + {scale} * {ks[-1][rates[i]]}")
                     for i in slots.moving if i in slots.read}
            ks.append(dag.emit({**rest, **dag.at({**zero, **at, **moved})},
                               fresh, lines, body, outputs=set(rates)))
        new = []
        for i, x in enumerate(s):
            if i in slots.zero:
                new.append(zero.get(i, f"{x} + h * 0.0"))
            elif i in slots.const:
                new.append(f"{x} + h * {dag.constant(slots.step[i])}")
            else:
                a, b, c, d = (names[rates[i]] for names in ks)
                new.append(f"{x} + h * (({a} + 2.0 * {b} + 2.0 * {c} + {d})"
                           " / 6.0)")
        return lines + [f"{body}return {_tuple(new)}"] + tail

    def midpoint_step():
        m = [f"m{i}" for i in range(dim)]
        moving = slots.moving
        loop = body + "    "
        mid = ["def midpoint_step(s, h, first, rest):"] + head
        mid.append(f"{body}hh = 0.5 * h")
        first, rest = terms("first", mid), terms("rest", mid)
        mid += [f"{body}m{i} = {s[i]} + hh * {c}" for i, c in fixed.items()]
        if moving:
            k = field_at(s, mid, body, first)
            mid += [f"{body}m{i} = {s[i]} + hh * {k[i]}" for i in moving]
            mid.append(f"{body}for _ in range(_max_iter):")
            k = field_at(m, mid, loop, rest)
            mid += [f"{loop}n{i} = {s[i]} + hh * {k[i]}" for i in moving]
            mid += [f"{loop}d{i} = n{i} - m{i}" for i in moving]
            mid += [f"{loop}m{i} = n{i}" for i in moving]
            converged = " and ".join(f"-_tol <= d{i} <= _tol"
                                     for i in moving)
            finite = " and ".join([f"-_INF < d{i} < _INF" for i in moving]
                                  + [f"-_INF < m{i} < _INF" for i in fixed])
            mid += [f"{loop}if {converged}:", f"{loop}    break",
                    f"{loop}if not ({finite}):", f"{loop}    break",
                    f"{body}else:"]
            # stuck as numpy's max of the residuals says: none nan, and one
            # above _tol (an infinite one too)
            k = field_at(m, mid, loop, rest)
            mid += [f"{loop}d{i} = {s[i]} + hh * {k[i]} - m{i}"
                    for i in moving]
            mid += [f"{loop}if not ({converged}) and "
                    + " and ".join(f"d{i} == d{i}" for i in moving) + ":",
                    f"{loop}    {' = '.join(m)} = _NAN[0]"]
        mid.append(f"{body}return "
                   + _tuple(f"2.0 * {a} - {b}" for a, b in zip(m, s)))
        return mid + tail

    def dp54_step():
        lines = ["def dp54_step(s, k1, h, abs_tol, rel_tol):"] + head
        ks = [temps()]
        lines.append(f"{body}{_tuple(ks[0])} = k1")

        def stage_sum(coefficient, x):  # Python's sum starts from 0
            return " + ".join(["0.0"] + [f"{coefficient(j)} * {k[x]}"
                                         for j, k in enumerate(ks)])

        for i in range(1, len(_DP_A)):
            incr = temps()
            lines += [f"{body}{o} = {stage_sum(lambda j: f'_a{i}_{j}', x)}"
                      for x, o in enumerate(incr)]
            ks.append(field_at(shifted(temps(), incr, "h", lines, body),
                               lines, body))
        # the 5th-order weights are the last stage's row and a zero, so
        # their sum continues that stage's increment
        y, e, r = temps(), temps(), temps()
        lines += [f"{body}{o} = {a} + h * ({b} + _b6 * {k})"
                  for o, a, b, k in zip(y, s, incr, ks[-1])]
        lines += [f"{body}{o} = h * ({stage_sum(lambda j: f'_e{j}', x)})"
                  for x, o in enumerate(e)]
        finite = " and ".join(f"-_INF < {a} < _INF" for a in y)
        lines += [f"{body}if not ({finite}):",
                  f"{body}    return {_tuple(y)}, _INF, _NAN"]
        for o, a, b, d in zip(r, s, y, e):
            lines += [f"{body}p = abs({a})", f"{body}q = abs({b})",
                      f"{body}{o} = {d} / (abs_tol + rel_tol"
                      " * (p if p >= q else q))"]
        norm = _numpy_sum([f"{a} * {a}" for a in r])
        # first same as last: the last stage's rates, taken at the 5th-order
        # state, are the next step's first stage
        lines.append(f"{body}return {_tuple(y)}, _sqrt(({norm}) / {dim}), "
                     f"{_tuple(ks[-1])}")
        return lines + ["    except _FAILS:",
                        "        return _NAN, _INF, _NAN", ""]

    def run():
        a = [f"a{i}" for i in range(dim)]
        return ["def run(step, s, h, n, escape_norm, slot, goal, first, "
                "rest):",
                "    low = -escape_norm",
                "    prev = s",
                "    for k in range(n):",
                "        t = step(s, h, first, rest)",
                f"        {_tuple(a)} = t",
                "        if not ("
                + " and ".join(f"low <= {x} <= escape_norm" for x in a)
                + "):",
                "            return prev, s, k + 1, 'escape'",
                "        prev = s",
                "        s = t",
                "        if t[slot] - goal >= 0.0:",
                "            return prev, s, k + 1, 'stop'",
                "    return prev, s, n, 'end'", ""]

    makers = {"field": field, "conserved": conserved,
              "rk4_step": rk4_step, "midpoint_step": midpoint_step,
              "dp54_step": dp54_step, "run": run}
    return ["\n".join(makers[name]()) for name in functions]


def _rk4_rows(dag: _Dag, rates: list[int],
              dim: int) -> tuple[str, str]:
    """Sources of conserved(s) and rk4_step(s, h, first, rest, out=None)
    over a slot-major batch s (dim, rows).

    conserved(s) gives the terms that `_Rk4Slots` hands on, the
    operations that read zero-rate slots alone, as the rows of one new
    (terms, rows) array. rk4_step reads them instead of computing them:
    stage 1 from first, conserved at s, and stages 2-4 from rest,
    conserved at s + h*0.0. A zero-rate slot holds s + h*0.0 after any
    step of h's sign, and the same again after the next, so the march
    computes the two once (see `integrators._march`), and rest is also
    first from its second step on.
    Together they give integrators._rk4_step with the field of
    `_numpy_function` bit for bit, less the work that is repeated, and
    never write into s. Each stage writes the moving slots' rates into
    the rows of one (moving, rows) array, so their stage states and
    weighted sum cost a few operations on whole arrays; every slot's next
    value is written into one (dim, rows) array, out or a new one, which
    is returned.
    Every ufunc that writes into an array takes it as its positional out.
    An operation that reads a temporary computed in the same emission (a
    stage, or the conserved terms) for the last time writes its value
    into that temporary (see `_Dag.emit`), so a stage allocates only
    where no such temporary is free; the rows of s, the stage states, the
    conserved terms and the rates are never written. h * 0.0 is computed
    once.
    """
    slots = _Rk4Slots.of(dag, rates)
    fresh = itertools.count()
    lines = ["def conserved(s):"]

    def say(code):
        lines.append(f"    {code}")

    def assign(code):
        name = f"v{next(fresh)}"
        say(f"{name} = {code}")
        return name

    inputs = [i for i in slots.zero if i in slots.read]
    for i in inputs:
        say(f"s{i} = s[{i}]")
    say(f"out = _empty(({len(slots.handed)}, s.shape[1]))")
    dag.emit(dag.at({i: f"s{i}" for i in inputs}), fresh, lines, "    ",
             keep=set(slots.handed), inplace=True,
             targets={k: f"out[{p}]" for p, k in enumerate(slots.handed)})
    conserved = "\n".join(lines + ["    return out", ""])

    lines = ["def rk4_step(s, h, first, rest, out=None):", "    hh = 0.5 * h",
             "    out = _empty(s.shape) if out is None else out"]

    def terms(arg):  # the handed terms as the rows of arg; the others
        # are read by conserved terms alone, so the step never names them
        names = dict.fromkeys(slots.shared, "_unread")
        if slots.handed:
            names.update({k: f"{arg[0]}{p}"
                          for p, k in enumerate(slots.handed)})
            say(f"{_tuple(names[k] for k in slots.handed)} = {arg}")
        return names

    first, rest = terms("first"), terms("rest")
    rows = {i: f"s[{i}]" for i in range(dim)}
    for i in sorted(slots.read):
        say(f"s{i} = s[{i}]")
        rows[i] = f"s{i}"
    zero = {}
    if slots.zero:
        say("hz = h * 0.0")
    for i in slots.zero:
        code = f"_add({rows[i]}, hz, out[{i}])"
        if i in slots.read:
            zero[i] = assign(code)
        else:
            say(code)
    for i in slots.const:
        say(f"_add({rows[i]}, h * {dag.constant(slots.step[i])}, out[{i}])")
    half, full = ({i: assign(f"{rows[i]} + {scale} * {c}")
                   for i, c in slots.const.items() if i in slots.read}
                  for scale in ("hh", "h"))
    moving = slots.moving
    if not moving:
        return conserved, "\n".join(lines + ["    return out", ""])
    lo, hi = moving[0], moving[-1] + 1
    dense = hi - lo == len(moving)
    sg = assign(f"s[{lo}:{hi}]" if dense else f"s[{list(moving)}]")

    def stage(known, k):  # the moving slots' rates into the rows of k
        targets = {}
        for p, i in enumerate(moving):
            targets.setdefault(rates[i], f"{k}[{p}]")
        names = dag.emit(known, fresh, lines, "    ", keep=set(rates),
                         targets=targets, inplace=True)
        for p, i in enumerate(moving):
            r = rates[i]
            if targets[r] != f"{k}[{p}]" or r in known \
                    or not dag.operands(r):
                say(f"{k}[{p}] = {names[r]}")

    say(f"K1 = _empty(({len(moving)}, s.shape[1]))")
    stage({**first, **dag.at(rows)}, "K1")
    # one block of stage states spans the moving slots that are read
    pos = [p for p, i in enumerate(moving) if i in slots.read]
    moved = {}
    if pos:
        a, b = pos[0], pos[-1] + 1
        sr = sg if (a, b) == (0, len(moving)) else assign(f"{sg}[{a}:{b}]")
        say(f"T = _multiply(K1[{a}:{b}], hh)")
        say(f"_add({sr}, T, T)")
        moved = {moving[p]: assign(f"T[{p - a}]") for p in pos}
    say("K2 = _empty_like(K1)")
    # stages 2-4; after 2 and 3, T moves to the next stage's states,
    # s + scale * the rates just written
    for scale, at in (("hh", half), ("h", half), (None, full)):
        stage({**rest, **dag.at({**zero, **at, **moved})}, "K2")
        if scale is not None:
            if pos:
                say(f"_multiply(K2[{a}:{b}], {scale}, T)")
                say(f"_add({sr}, T, T)")
            say("_multiply(K2, 2.0, K2)")
            say("_add(K1, K2, K1)")
    say("_add(K1, K2, K1)")
    dead = list(moved.values()) + (["T"] if pos else []) + ["K2"]
    say(f"del {', '.join(dead)}")
    say("_divide(K1, 6.0, K1)")
    say("_multiply(K1, h, K1)")
    if dense:
        say(f"_add({sg}, K1, out[{lo}:{hi}])")
    else:
        say(f"_add({sg}, K1, K1)")
        say(f"out[{list(moving)}] = K1")
    return conserved, "\n".join(lines + ["    return out", ""])


@dataclass(frozen=True, eq=False)
class CompiledRates:
    """Rate expressions compiled to straight-line code over Python floats.

    Every function takes the state as a tuple of floats, one per name, and
    returns a tuple. field(s) gives the rates; rk4_step(s, h, first,
    rest), midpoint_step(s, h, first, rest) and dp54_step(s, k1, h,
    abs_tol, rel_tol) repeat the arithmetic of the numpy steps in
    `integrators` on one state, rates inlined, midpoint_step iterating to
    _MIDPOINT_TOL and _MIDPOINT_MAX_ITER. The two fixed steps take the
    protocol of the rows step (see `compile_rows`): first =
    conserved(s) and rest = conserved(s + h*0.0), the terms of the slots
    with zero rate, which a march computes once (see `integrators._march`)
    and a step alone computes for itself. dp54_step takes the first
    stage's rates k1 and returns the 5th-order state, the adaptive loop's
    error norm and the last stage's rates, the next step's k1. Where that
    arithmetic raises (sin of inf, a division by zero) every slot comes
    back NaN (and the norm inf), where numpy gives inf or nan, so the
    integrators' escape test sees it either way, unless a later
    operation turns numpy's inf finite: x / (1/a) at a = 0 reads 0 in
    numpy. A conserved term that raises comes back NaN, and so do the
    moving slots of a step that reads it. An integer power that
    overflows does not raise: it gives numpy's inf, through `_power`.

    run(step, s, h, n, escape_norm, slot, goal, first, rest) takes a whole
    stretch of up to n steps s = step(s, h, first, rest) in one call, one
    of the fixed steps above, so that the march of one state makes one
    call per stretch. It ends at the first state that fails the
    integrators' escape test, or whose entry slot minus goal is >= 0.0
    (goal inf never stops), and returns (previous state, state, steps
    taken, reason): reason 'escape' keeps the last finite state and
    counts the escaping step, 'stop' and 'end' (n steps taken) give the
    new state and the one before it.
    Functions not compiled are None.

    moving is empty but for a tangent flow (see `compile_tangent`), whose
    state is the state plus the moving entries of M from the identity:
    it lists those entries' (i, j), in the order the state carries them.
    """

    source: str
    field: Callable[[tuple], tuple]
    conserved: Optional[Callable[[tuple], tuple]]
    rk4_step: Callable[[tuple, float, tuple, tuple], tuple]
    midpoint_step: Optional[Callable[[tuple, float, tuple, tuple], tuple]]
    dp54_step: Optional[Callable[[tuple, tuple, float, float, float],
                                 tuple]]
    run: Optional[Callable[..., tuple]]
    moving: tuple[tuple[int, int], ...] = ()


def _dag_of(rates: Sequence[Expr], names: Sequence[str]):
    """The names as a tuple, the value-numbered rates and their nodes."""
    names = tuple(names)
    if len(rates) != len(names):
        raise InvalidValue(f"{len(rates)} rates for {len(names)} names")
    dag = _Dag(names)
    # a zero rate is the +0.0 of numpy's field, whatever its sign
    return names, dag, [dag.add(Const(0.0) if _is_const(e, 0.0) else e)
                        for e in rates]


def compile_rates(rates: Sequence[Expr], names: Sequence[str],
                  functions: Sequence[str] = _FUNCTIONS) -> CompiledRates:
    """Compile one rate expression per name, in the order of `names`.

    functions names what to generate among field, conserved, rk4_step,
    midpoint_step, dp54_step and run; the others are None. The
    generated code names slots s0, s1, ... and constants c0, c1, ...,
    and binds the constants by value, so no identifier or number of the
    source text reaches it. Raises UnboundVar for a variable outside
    `names`.
    """
    names, dag, outs = _dag_of(rates, names)
    sources = _generate(dag, outs, len(names), functions)
    namespace = {f"c{j}": v for j, v in enumerate(dag.consts)}
    namespace.update(_DP_NAMES, _tol=_MIDPOINT_TOL,
                     _max_iter=_MIDPOINT_MAX_ITER, _sin=math.sin,
                     _cos=math.cos, _sqrt=math.sqrt, _intpow=_power,
                     _div=_quotient,
                     _INF=math.inf,
                     _NAN=(math.nan,) * len(names),
                     _FAILS=(ArithmeticError, ValueError))
    for text in sources:  # one at a time: the compiler's peak is per text
        exec(compile(text, "<compiled rates>", "exec"), namespace)
    return CompiledRates(source="\n".join(sources),
                         **{f: namespace.get(f) for f in _FUNCTIONS})


def compile_tangent(rates: Sequence[Expr],
                    names: Sequence[str]) -> CompiledRates:
    """The tangent flow of the rates from M = I, compiled: field,
    conserved, rk4_step and run.

    Its state is the dim slots of `names` followed by the entries of the
    dim x dim tangent matrix M that can move from the identity, listed
    row by row in the result's `moving`; every other entry keeps its
    identity value. (i, j) moves when some k has d rate_i / d name_k not
    identically zero and M[k, j] is the diagonal or itself moves
    (sparsity propagation; A. Griewank, A. Walther, Evaluating
    Derivatives, 2nd ed., SIAM 2008, ch. 7). Its rate is sum_k d rate_i
    / d name_k * M[k, j] over those k alone, in the order k = 0, 1, ...,
    a diagonal that does not move entering as 1. The terms left out are
    the products with an entry held at +0.0, which are +-0.0 while the
    state is finite; M's entries change only as M + c * K from +0.0 or
    1.0, so they never hold -0.0, and those zeros reach no bit of M. The
    matrix slots have generated names, which no identifier of a source
    text can spell.
    """
    names = tuple(names)
    dim = len(names)
    jac = _gradients(rates, names)
    reads = [[k for k in range(dim) if not _is_const(jac[i, k], 0.0)]
             for i in range(dim)]
    moves = set()  # (i, j): M[i, j] moves, reached from j by a rate
    for j in range(dim):
        todo = [j]
        while todo:
            k = todo.pop()
            for i in range(dim):
                if k in reads[i] and (i, j) not in moves:
                    moves.add((i, j))
                    todo.append(i)
    moving = tuple(sorted(moves))
    m = {(k, j): Var(f"M[{k},{j}]") for k, j in moving}
    products = [functools.reduce(_add, [
        _mul(jac[i, k], m.get((k, j), Const(1.0))) for k in reads[i]
        if k == j or (k, j) in m], Const(0.0)) for i, j in moving]
    return replace(compile_rates(list(rates) + products,
                                 names + tuple(v.name for v in m.values()),
                                 functions=("field", "conserved",
                                            "rk4_step", "run")),
                   moving=moving)


# ---------------------------------------------------------------------------
# compilation to numpy over the columns of a state array


def _numpy_function(name: str, entries: dict, shape: tuple,
                    names: Sequence[str]) -> Callable:
    """Compile `entries`, a map from index tuples to expressions, to one
    numpy function name(s) of slot-major states s, shape (len(names),
    ...), reading slot i as the row s[i] (see `systems._on_states`).

    Its result has shape shape + s.shape[1:], with each entry at its
    index and zeros elsewhere; a zero-dimensional one comes back as a
    numpy scalar. As in compile_rates, the code names slots and constants
    by number and binds the constants by value. Its text is the function's
    `source` attribute.
    """
    dag = _Dag(names)
    roots = {index: dag.add(e) for index, e in entries.items()
             if not _is_const(e, 0.0)}
    lines = [f"def {name}(s):", "    s = _asarray(s, dtype=float)"]
    # [()] reads one state's slot as a numpy scalar, whose arithmetic
    # costs a tenth of a zero-dimensional array's; a batch row is kept
    lines += [f"    s{node[1]} = s[{node[1]}][()]"
              for node in dag.nodes if node[0] == "in"]
    code = dag.emit(dag.at([f"s{i}" for i in range(len(names))]),
                    itertools.count(),
                    lines, "    ", keep=set(roots.values()))
    lines.append(f"    out = _zeros({shape!r} + s.shape[1:])")
    lines += [f"    out[{', '.join(map(str, index)) or '()'}] = {code[r]}"
              for index, r in roots.items()]
    lines.append("    return out[()]" if shape == () else "    return out")
    return _numpy_code(name, "\n".join(lines) + "\n", dag.consts)


# the names numpy code is generated with
_NUMPY_NAMES = dict(_sin=np.sin, _cos=np.cos, _add=np.add,
                    _subtract=np.subtract, _multiply=np.multiply,
                    _divide=np.divide, _power=np.power, _intpow=operator.pow,
                    _div=operator.truediv,
                    _negative=np.negative, _asarray=np.asarray,
                    _zeros=np.zeros, _empty=np.empty,
                    _empty_like=np.empty_like)


def _numpy_code(name: str, source: str, consts) -> Callable:
    """The function `name` of a generated numpy source, constants bound by
    value; its text is its `source` attribute."""
    namespace = {f"c{j}": v for j, v in enumerate(consts)}
    namespace.update(_NUMPY_NAMES)
    exec(compile(source, f"<numpy {name}>", "exec"), namespace)
    fn = namespace[name]
    fn.source = source
    return fn


def compile_numpy(rates: Sequence[Expr], names: Sequence[str]) -> Callable:
    """Compile one rate expression per name into a vectorized numpy field.

    The field takes a state of shape (len(names),) or a slot-major batch
    (len(names), ...) and returns the rates in the same shape (see
    `_numpy_function`). Raises UnboundVar for a variable outside `names`.
    """
    names = tuple(names)
    if len(rates) != len(names):
        raise InvalidValue(f"{len(rates)} rates for {len(names)} names")
    return _numpy_function("field", {(i,): e for i, e in enumerate(rates)},
                           (len(names),), names)


def compile_rows(rates: Sequence[Expr], names: Sequence[str]) -> Callable:
    """Compile the rk4 step of slot-major batches of the rates.

    rk4_step(s, h, first, rest, out=None) takes states s (len(names),
    rows) and returns the states one step on, written into out, an array
    of that shape that is not s, or else into a new one: to the bit what
    integrators._rk4_step gives with the field of compile_numpy, given
    first = rk4_step.conserved(s) and rest = rk4_step.conserved(s + h *
    0.0), the terms of the slots with zero rate (see `_rk4_rows`), which
    rk4_step.zero lists. A march computes those two once, so that a step
    of the shipped families (n = m = l = 1, 25 to 4,096 rows, Python
    3.11, best of 15) costs 0.28-0.68 of _rk4_step's on rev-compact,
    whose trig mostly reads first integrals, and 0.43-0.78 on ham-unique
    and ham-compact. Constants are bound by value as in compile_rates,
    and each function's text is its `source` attribute.
    """
    names, dag, outs = _dag_of(rates, names)
    conserved, step = _rk4_rows(dag, outs, len(names))
    fn = _numpy_code("rk4_step", step, dag.consts)
    fn.conserved = _numpy_code("conserved", conserved, dag.consts)
    fn.zero = _Rk4Slots.of(dag, outs).zero
    return fn


# ---------------------------------------------------------------------------
# one system from its texts


def _source_rates(source, labels) -> list[Expr]:
    """The rates of a rate source in label order."""
    if isinstance(source, str):
        derived = hamiltonian_vector_field(*parse_hamiltonian_file(source))
        return _rates_in_order(derived, labels)
    return [simplify(parse(text)) for text in source]


def _gradients(exprs, names) -> dict:
    return {(k, j): differentiate(e, name) for k, e in enumerate(exprs)
            for j, name in enumerate(names)}


def compile_system(kind: str, source, integrals: Sequence[str],
                   labels: Sequence[str]):
    """One evaluator of a system given by its texts, for the slots named
    by `labels`.

    source is an energy text with a pairs: header, whose canonical rates
    are derived, or one rate expression text per label. integrals holds
    the texts of the first integrals; an energy text's energy leads them.
    kind 'rates' gives the `CompiledRates` of the rates, 'tangent'
    those of the tangent flow (see `compile_tangent`) and 'rk4_rows' the
    rk4 step of slot-major batches (see `compile_rows`). The other kinds
    are numpy functions of slot-major states (dim, ...) (see
    `_numpy_function`): 'field' gives the (dim, ...) rates, 'jacobian'
    the (dim, dim, ...) derivatives d rate_i / d slot_j, 'hamiltonian'
    the energy, 'integrals' the (k, ...) integral values and
    'integral_gradients' their (k, dim, ...) gradients. Every derivative
    is exact, taken by `differentiate`. The last three kinds derive no
    rates, so they do not check that an energy text's pairing covers the
    labels; the others raise PairingError where it does not.
    """
    labels = tuple(labels)
    if kind not in ("hamiltonian", "integrals", "integral_gradients"):
        rates = _source_rates(source, labels)
    if kind == "rates":
        return compile_rates(rates, labels)
    if kind == "tangent":
        return compile_tangent(rates, labels)
    if kind == "field":
        return compile_numpy(rates, labels)
    if kind == "rk4_rows":
        return compile_rows(rates, labels)
    if kind == "jacobian":
        return _numpy_function(kind, _gradients(rates, labels),
                               (len(labels),) * 2, labels)
    energy = simplify(parse_hamiltonian_file(source)[0]) \
        if isinstance(source, str) else None
    if kind == "hamiltonian" and energy is not None:
        return _numpy_function(kind, {(): energy}, (), labels)
    exprs = [] if energy is None else [energy]
    exprs += [simplify(parse(text)) for text in integrals]
    if kind == "integrals":
        return _numpy_function(kind, {(k,): e for k, e in enumerate(exprs)},
                               (len(exprs),), labels)
    if kind == "integral_gradients":
        return _numpy_function(kind, _gradients(exprs, labels),
                               (len(exprs), len(labels)), labels)
    raise InvalidValue(f"no {kind!r} evaluator for this source")


# ---------------------------------------------------------------------------
# reversibility from the rate texts


_ZERO = "zero"  # the constant 0, even and odd at once


def _parity(e: Expr, odd: frozenset):
    """The parity of e when the variables named in odd change sign: 0
    even, 1 odd, _ZERO for the constant 0, None when e has neither."""
    def visit(node, parities):
        t = type(node)
        if t is Const:
            return _ZERO if node.value == 0.0 else 0
        if t is Var:
            return int(node.name in odd)
        a = parities[0]
        if t is Neg or t is Sin:
            return a
        if t is Cos:
            return None if a is None else 0
        if t is PowInt:
            return a if a in (None, _ZERO) or node.exponent % 2 else 0
        b = parities[1]
        if t is Mul or t is Div:
            return None if None in (a, b) else _ZERO if _ZERO in (a, b) \
                else a ^ b
        # + and - need equal parities; the constant 0 takes the other's
        return b if a == _ZERO else a if b in (_ZERO, a) else None
    return _fold(e, visit)


def prove_reversibility(sys: System) -> Optional[str]:
    """Prove from the rate texts that the involution G reverses the flow.

    G flips the sign of some slots, so f(Gx) = -G f(x) holds when the
    rate of every fixed slot is odd and the rate of every flipped slot
    is even under that flip. The parity of each rate is read off its
    expression tree: a variable is odd when G flips it, * and / combine
    parities by xor, + and - need equal ones, sin keeps its argument's
    parity, cos is even and a power keeps its base's parity for an odd
    exponent. Rounding commutes with a change of sign, so the proof
    covers the computed rates too, with a sine that is odd in floating
    point. Returns None when proved, else the label of the first rate
    whose parity breaks. A rate can be reversible and still fail this
    structural test, so a failure disproves nothing.
    """
    labels = sys.layout.labels
    rates = _source_rates(sys.rates_source, labels)
    odd = frozenset(lab for lab, g in zip(labels, sys.involution_signs)
                    if g < 0)
    for label, rate in zip(labels, rates):
        if _parity(rate, odd) not in (_ZERO, int(label not in odd)):
            return label
    return None


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
