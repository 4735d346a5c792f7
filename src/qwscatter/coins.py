"""A tiny expression language for coin matrix entries.

Coin families are matrices whose entries depend on a coupling parameter
``eps``.  Entries are closed-form expressions over decimal literals, the
constants ``i`` and ``pi``, the variable ``eps``, arithmetic
``+ - * / ^`` (integer exponents only), unary minus, and the functions
``sqrt``, ``exp``, ``cos``, ``sin``.  Precedence, tightest first:
``^``, unary minus, ``* /``, ``+ -``; binary operators associate left.

Evaluation is complex-valued with principal branches.  One removable
singularity is handled specially: an entry of the shape ``exp(c/eps)``
with ``c < 0`` evaluates to ``0`` at ``eps = 0`` (the limit from the
right), so exponentially flat coin families can be written down
directly.  Any other division by zero is an error.

A family is compiled once (:class:`CoinProgram`) and evaluated over a
whole stack of eps: each node of each entry shape is one numpy operation.
A stack returns every eps's coins or raises the first failing eps's
error, as that eps alone raises it.  Values keep the bits of CPython's
complex arithmetic and ``cmath``: a node uses CPython's formula where
numpy's differs, and an element numpy cannot be trusted with takes
CPython's own operation.
"""

from __future__ import annotations

import cmath
import itertools
import re
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

UNITARITY_TOL = 1e-10

_FUNCTIONS = ("sqrt", "exp", "cos", "sin")
# past this modulus of the argument cmath rescales exp, cos and sin, and numpy may round otherwise
_SAFE_ARGUMENT = 700.0


class ExprSyntaxError(ValueError):
    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"at position {position}: {message}")


class EvalError(ValueError):
    """Evaluation failed (division by zero, overflow, ...)."""


class NotUnitary(ValueError):
    def __init__(self, vertex, residual: float):
        self.vertex = vertex
        self.residual = residual
        super().__init__(
            f"coin at vertex {vertex!r} is not unitary "
            f"(max-entry residual {residual:.3e})"
        )


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    _prec = 5

    def eval(self, eps: float) -> complex:
        return complex(eval_matrix([[self]], eps)[0, 0])

    def _fmt(self, context: int) -> str:
        text = self._text()
        return f"({text})" if self._prec < context else text

    def __str__(self) -> str:
        return self._text()


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def _text(self):
        return repr(self.value) if self.value != int(self.value) else str(int(self.value))


@dataclass(frozen=True)
class Const(Expr):
    name: str  # "i" or "pi"

    def _text(self):
        return self.name


@dataclass(frozen=True)
class Eps(Expr):
    def _text(self):
        return "eps"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr
    _prec = 3

    def _text(self):
        return "-" + self.arg._fmt(4)


@dataclass(frozen=True)
class BinOp(Expr):
    lhs: Expr
    rhs: Expr


class Add(BinOp):
    _prec = 1

    def _text(self):
        return f"{self.lhs._fmt(1)} + {self.rhs._fmt(2)}"


class Sub(BinOp):
    _prec = 1

    def _text(self):
        return f"{self.lhs._fmt(1)} - {self.rhs._fmt(2)}"


class Mul(BinOp):
    _prec = 2

    def _text(self):
        return f"{self.lhs._fmt(2)}*{self.rhs._fmt(3)}"


class Div(BinOp):
    _prec = 2

    def _text(self):
        return f"{self.lhs._fmt(2)}/{self.rhs._fmt(3)}"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int
    _prec = 4

    def _text(self):
        return f"{self.base._fmt(5)}^{self.exponent}"


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr

    def _text(self):
        return f"{self.fn}({self.arg._text()})"


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise ExprSyntaxError(where, f"unexpected character {text[where]!r}")
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(pos, f"expected {op!r}")

    def parse(self) -> Expr:
        e = self.sum()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(pos, f"unexpected {val!r}")
        return e

    def sum(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = Add(e, rhs) if val == "+" else Sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                e = Mul(e, rhs) if val == "*" else Div(e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.next()
                e = Pow(e, self._integer_exponent())
            else:
                return e

    def _integer_exponent(self) -> int:
        sign = 1
        kind, val, pos = self.next()
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.next()
        if kind != "num" or not re.fullmatch(r"\d+", val):
            raise ExprSyntaxError(pos, "exponent must be a literal integer")
        return sign * int(val)

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "name":
            if val == "eps":
                return Eps()
            if val in ("i", "pi"):
                return Const(val)
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Call(val, arg)
            raise ExprSyntaxError(pos, f"unknown name {val!r}")
        if kind == "op" and val == "(":
            e = self.sum()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(pos, f"unexpected {val or 'end of input'!r}")


def parse(text: str) -> Expr:
    return _Parser(text).parse()


def const_expr(value: complex) -> Expr:
    """Build an expression tree for a literal complex number."""

    def real_part(x: float) -> Expr:
        return Neg(Num(-x)) if x < 0 else Num(x)

    z = complex(value)
    if z.imag == 0:
        return real_part(z.real)
    imag = Mul(Num(abs(z.imag)), Const("i"))
    if z.real == 0:
        return Neg(imag) if z.imag < 0 else imag
    if z.imag < 0:
        return Sub(real_part(z.real), imag)
    return Add(real_part(z.real), imag)


# ---------------------------------------------------------------------------
# Compiled evaluation
#
# Each operation node has a numpy formula over stacks, which also names
# the elements it cannot be trusted with, and CPython's operation for one
# element.  Those elements, and any whose operand is c/0 or an error, take
# ``_rule``, which meets operands as a left-to-right evaluation does.


class _OverZero(NamedTuple):
    """The state of a subexpression c/0, carrying c."""

    numerator: complex


def _odd(regular):
    return None if regular.all() else ~regular


def _mul(a, b):
    """CPython's complex product, part by part: numpy's may fuse a multiply and an add."""
    real = a.real * b.real - a.imag * b.imag
    out = np.empty(real.shape, complex)
    out.real, out.imag = real, a.real * b.imag + a.imag * b.real
    return out


def _power(n, a):
    """CPython's integer power (``c_powi``) for 0 < n <= 100: squarings from 1.
    Other exponents take a quotient or CPython's general power, element by element."""
    if not 0 < n <= 100:
        return a, np.ones(a.shape, bool)
    power, bit = np.array(1 + 0j), 1
    while bit <= n:
        power = _mul(power, a) if n & bit else power
        bit <<= 1
        a = _mul(a, a) if bit <= n else a
    return power, _odd(np.isfinite(power))


def _function(fn, a):
    if fn != "sqrt":
        return getattr(np, fn)(a), _odd(np.abs(a) <= _SAFE_ARGUMENT)
    # on the real axis numpy's sqrt is cmath's, away from cmath's scaled-down subnormals
    size = np.abs(a.real)
    return np.sqrt(a), _odd((a.imag == 0) & (size >= 8 * sys.float_info.min) & (size <= sys.float_info.max))


_NUMPY = {
    Neg: lambda _, a: (-a, None),
    Add: lambda _, a, b: (a + b, None),
    Sub: lambda _, a, b: (a - b, None),
    Mul: lambda _, a, b: (_mul(a, b), None),
    Div: lambda _, a, b: (a, np.ones(np.broadcast_shapes(a.shape, b.shape), bool)),  # CPython's quotient
    Pow: _power,
    Call: _function,
}
_CPYTHON = {
    Neg: lambda _, a: -a,
    Add: lambda _, a, b: a + b,
    Sub: lambda _, a, b: a - b,
    Mul: lambda _, a, b: a * b,
    Div: lambda _, a, b: a / b,
    Pow: lambda n, a: a**n,
    Call: lambda fn, a: getattr(cmath, fn)(a),
}


def _rule(node, param, a, b=None):
    """One element of a node, from its operands' states: values, c/0 or errors.

    Values take CPython's operation.  Otherwise the operands are met as a
    left-to-right evaluation meets them, except that a quotient reads its
    divisor first: an error stops everything, c/0 stops a sum and passes a
    power or a function, and a product or a quotient carries it on, scaled.
    """
    if isinstance(a, complex) and (b is None or isinstance(b, complex) and (b != 0 or node is not Div)):
        try:
            return _CPYTHON[node](param, a) if b is None else _CPYTHON[node](param, a, b)
        except (OverflowError, ZeroDivisionError) as exc:
            return EvalError(str(exc))
        except ValueError as exc:  # a cmath domain error is raised as it is
            return exc
    if node is Div:
        if not isinstance(b, complex):
            return b
        if b == 0:
            return _OverZero(a) if isinstance(a, complex) else a
        return _OverZero(a.numerator / b) if isinstance(a, _OverZero) else a
    if isinstance(a, _OverZero):
        if node is Call and param == "exp":
            if a.numerator.imag == 0 and a.numerator.real < 0:
                return 0j  # exp(c/eps) with c < 0, limit eps -> 0+
            return EvalError("exp of a diverging argument without a negative real limit")
        if node is Mul:
            return _OverZero(a.numerator * b) if isinstance(b, complex) else b
        return _OverZero(-a.numerator) if node is Neg else a
    if not isinstance(a, complex):
        return a
    return _OverZero(b.numerator * a) if node is Mul and isinstance(b, _OverZero) else b


_EPS, _LIT = ("eps",), ("lit",)


def _lift(expr: Expr, lits: list):
    """The shape of ``expr``, a tuple tree, its literals appended to ``lits`` in
    evaluation order; a subtree of literals that evaluates to a number is one literal."""
    kind = type(expr)
    if kind is Eps:
        return _EPS
    if kind is Num or kind is Const:
        lits.append(complex(expr.value) if kind is Num else 1j if expr.name == "i" else complex(cmath.pi))
        return _LIT
    if kind is Pow or kind is Call or kind is Neg:
        param = expr.exponent if kind is Pow else expr.fn if kind is Call else None
        kids = (_lift(expr.base if kind is Pow else expr.arg, lits),)
    else:
        param, kids = None, (_lift(expr.lhs, lits), _lift(expr.rhs, lits))
    if kids[0] is _LIT and kids[-1] is _LIT:
        value = _rule(kind, param, *lits[len(lits) - len(kids) :])
        if isinstance(value, complex):
            lits[len(lits) - len(kids) :] = [value]
            return _LIT
    return (kind, param, *kids)


def _run(shape, eps, lits):
    """A shape's values over the stack, and the elements its numpy formulas cannot
    be trusted with, or None.  ``eps`` is the (n, 1) column of eps and ``lits``
    yields the (1, k) literal columns in evaluation order."""
    if shape is _EPS or shape is _LIT:
        return eps if shape is _EPS else next(lits), None
    node, param, *kids = shape
    runs = [_run(kid, eps, lits) for kid in kids]
    out, odd = _NUMPY[node](param, *(values for values, _ in runs))
    for _, below in runs:
        odd = below if odd is None else odd if below is None else odd | below
    return out, odd


def _element(shape, eps, lits):
    """The shape at one eps and its literals (an iterator), by CPython's
    operations: an element's value, c/0 or an error."""
    if shape is _EPS or shape is _LIT:
        return eps if shape is _EPS else next(lits)
    node, param, *kids = shape
    return _rule(node, param, *[_element(kid, eps, lits) for kid in kids])


class CoinProgram:
    """A coin family compiled once into array operations.

    Its entries (vertex by vertex in family order, each grid row-major) are
    deduplicated, their literals compared by their bits, so ``0.0`` and
    ``-0.0`` stay apart, and grouped by shape: each group is one tree of
    numpy operations over its literal columns.
    """

    def __init__(self, coins: CoinFamily):
        self.vertices = tuple(coins)
        self.shapes = tuple((len(grid), len(grid[0]) if len(grid) else 0) for grid in coins.values())
        entries = [entry for grid in coins.values() for row in grid for entry in row]
        if len(entries) != sum(rows * cols for rows, cols in self.shapes):
            raise ValueError("every coin must be a rectangular matrix")
        distinct, known = {}, {}  # (shape, literals) -> its literals and entries; id -> that key
        for k, entry in enumerate(entries):
            key = known.get(id(entry))
            if key is None:
                lits = []
                key = known[id(entry)] = (_lift(entry, lits), repr(lits))
                distinct.setdefault(key, (lits, []))
            distinct[key][1].append(k)
        groups = {}
        for (shape, _), member in distinct.items():
            groups.setdefault(shape, []).append(member)
        # the distinct entries numbered group by group; each entry reads its distinct column
        self.groups, self.first, where = [], [], [0] * len(entries)
        for shape, members in groups.items():
            start = len(self.first)
            for lits, places in members:
                for place in places:
                    where[place] = len(self.first)
                self.first.append(places[0])  # the entry in family order that fails first
            each = [lits for lits, _ in members]  # each distinct entry's literals
            lits = np.array(each, complex).T[:, None]
            self.groups.append((shape, slice(start, len(self.first)), lits, each))
        self.where = np.array(where, dtype=np.intp)
        # each coin's first entry and shape, and the square coins of each size:
        # their entries' columns and their positions in family order
        starts = itertools.accumulate((rows * cols for rows, cols in self.shapes), initial=0)
        self.layout, squares = dict(zip(self.vertices, zip(starts, self.shapes))), {}
        for k, (start, (rows, cols)) in enumerate(self.layout.values()):
            if rows == cols and rows:
                columns, positions = squares.setdefault(rows, ([], []))
                columns.extend(range(start, start + rows * cols))
                positions.append(k)
        self.squares = [(size, np.array(columns, dtype=np.intp), positions)
                        for size, (columns, positions) in squares.items()]

    def evaluate(self, eps: np.ndarray) -> tuple:
        """Every entry at each of ``eps`` (a float array), (n_eps, entries) in
        family order, and each eps's error (its first failing entry's) or None.
        An element that a numpy formula cannot be trusted with takes CPython's
        operations throughout."""
        column = eps.astype(complex)[:, None]
        points = column[:, 0].tolist()
        distinct, failed = np.empty((len(column), len(self.first)), complex), {}
        with np.errstate(all="ignore"):
            for shape, columns, lits, each in self.groups:
                distinct[:, columns], odd = _run(shape, column, iter(lits))
                odd = () if odd is None else zip(*np.nonzero(np.broadcast_to(odd, distinct[:, columns].shape)))
                for i, j in odd:
                    state = _element(shape, points[i], iter(each[j]))
                    if isinstance(state, complex):
                        distinct[i, columns.start + j] = state
                    else:
                        failed[i, columns.start + j] = EvalError("division by zero") if isinstance(state, _OverZero) else state
        errors = [None] * len(column)
        for i, j in sorted(failed, key=lambda at: self.first[at[1]], reverse=True):
            errors[i] = failed[i, j]  # the first failing entry in family order is written last
        return distinct[:, self.where], errors


# ---------------------------------------------------------------------------
# Coin families

# A coin family maps each vertex to a rectangular grid of expressions;
# rows are outgoing slots, columns incoming slots.
CoinFamily = dict


def parse_coin_family(raw: dict) -> CoinFamily:
    """Parse string-valued coin grids into expression grids; equal texts share one tree."""
    family, trees = {}, {}
    for vertex, grid in raw.items():
        parsed = tuple(
            tuple(e if isinstance(e, Expr) else trees.get(e) or trees.setdefault(e, parse(e)) for e in row)
            for row in grid
        )
        if not parsed or any(len(row) != len(parsed[0]) for row in parsed):
            raise ValueError(f"coin at {vertex!r} is not a rectangular matrix")
        family[vertex] = parsed
    return family


def eval_matrix(grid, eps: float) -> np.ndarray:
    values, errors = CoinProgram({None: grid}).evaluate(np.array([eps], dtype=float))
    if errors[0] is not None:
        raise errors[0]
    return values[0].reshape(len(grid), -1)


class CoinStack(NamedTuple):
    """The coins of a family at each eps of a stack (:func:`eval_coins`)."""

    layout: dict  # vertex -> (its coin's first entry, its shape), in family order
    values: np.ndarray  # every entry at each eps, (n_eps, entries)


def _unitarity_residual(stack: np.ndarray) -> np.ndarray:
    """The unitarity rule's residual of each stacked square coin: max-entry ``|C*C - I|``, NaN if not finite."""
    with np.errstate(all="ignore"):
        product = np.einsum("kji,kjl->kil", stack.conj(), stack)
        error = np.abs(product - np.eye(stack.shape[-1])).max(axis=(1, 2))
        # the entries of a unitary are at most 1, so a finite coin has a finite sum
        error[~np.isfinite(stack.sum(axis=(1, 2)))] = np.nan
    return error


def eval_coins(coins, eps):
    """Evaluate every coin in the family at ``eps``, or at each of a 1-D array of eps.

    ``coins`` is a family or its :class:`CoinProgram`.  At one eps the
    result is a dict vertex -> matrix; at an array it is their
    :class:`CoinStack`.  Either way the first failing eps raises the error
    it raises alone.  Square coins are required to be unitary to
    ``UNITARITY_TOL`` (max-entry norm of C*C - I); a coin with a non-finite
    entry is not.  The coins of each size are checked in one stack, and the
    first failing vertex in family order is named.  Rectangular grids are
    left to the walk assembler, which will reject them with a dimension
    error.
    """
    program = coins if isinstance(coins, CoinProgram) else CoinProgram(coins)
    grid = np.asarray(eps, dtype=float)
    values, errors = program.evaluate(grid.reshape(-1))
    residual = np.zeros((len(values), len(program.vertices)))
    for size, columns, positions in program.squares:
        error = _unitarity_residual(values[:, columns].reshape(-1, size, size))
        residual[:, positions] = error.reshape(len(values), len(positions))
    for k in np.flatnonzero(~(residual <= UNITARITY_TOL).all(axis=1)):
        v = np.flatnonzero(~(residual[k] <= UNITARITY_TOL))[0]
        errors[k] = errors[k] or NotUnitary(program.vertices[v], float(residual[k, v]))
    for error in filter(None, errors):
        raise error  # the first failing eps's
    if grid.ndim:
        return CoinStack(program.layout, values)
    return {v: values[0, start : start + rows * cols].reshape(rows, cols)
            for v, (start, (rows, cols)) in program.layout.items()}
