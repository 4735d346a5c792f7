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
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass

import numpy as np

UNITARITY_TOL = 1e-10

_FUNCTIONS = ("sqrt", "exp", "cos", "sin")


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


class _Diverging(Exception):
    """Internal: a subexpression is c/0.  Carries the numerator value."""

    def __init__(self, numerator: complex):
        self.numerator = numerator


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    def eval(self, eps: float) -> complex:
        try:
            return self._eval(complex(eps))
        except _Diverging:
            raise EvalError("division by zero") from None
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvalError(str(exc)) from None

    def _eval(self, eps: complex) -> complex:  # pragma: no cover - abstract
        raise NotImplementedError

    def _prec(self) -> int:
        return 5

    def _fmt(self, context: int) -> str:
        text = self._text()
        return f"({text})" if self._prec() < context else text

    def __str__(self) -> str:
        return self._text()


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def _eval(self, eps):
        return complex(self.value)

    def _text(self):
        return repr(self.value) if self.value != int(self.value) else str(int(self.value))


@dataclass(frozen=True)
class Const(Expr):
    name: str  # "i" or "pi"

    def _eval(self, eps):
        return 1j if self.name == "i" else complex(cmath.pi)

    def _text(self):
        return self.name


@dataclass(frozen=True)
class Eps(Expr):
    def _eval(self, eps):
        return eps

    def _text(self):
        return "eps"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def _prec(self):
        return 3

    def _eval(self, eps):
        try:
            return -self.arg._eval(eps)
        except _Diverging as d:
            raise _Diverging(-d.numerator) from None

    def _text(self):
        return "-" + self.arg._fmt(4)


@dataclass(frozen=True)
class BinOp(Expr):
    lhs: Expr
    rhs: Expr


class Add(BinOp):
    def _prec(self):
        return 1

    def _eval(self, eps):
        return self.lhs._eval(eps) + self.rhs._eval(eps)

    def _text(self):
        return f"{self.lhs._fmt(1)} + {self.rhs._fmt(2)}"


class Sub(BinOp):
    def _prec(self):
        return 1

    def _eval(self, eps):
        return self.lhs._eval(eps) - self.rhs._eval(eps)

    def _text(self):
        return f"{self.lhs._fmt(1)} - {self.rhs._fmt(2)}"


class Mul(BinOp):
    def _prec(self):
        return 2

    def _eval(self, eps):
        try:
            left = self.lhs._eval(eps)
        except _Diverging as d:
            return self._scaled(d, self.rhs, eps)
        try:
            right = self.rhs._eval(eps)
        except _Diverging as d:
            raise _Diverging(d.numerator * left) from None
        return left * right

    @staticmethod
    def _scaled(d: _Diverging, other: Expr, eps) -> complex:
        factor = other._eval(eps)  # a second divergence falls through
        raise _Diverging(d.numerator * factor) from None

    def _text(self):
        return f"{self.lhs._fmt(2)}*{self.rhs._fmt(3)}"


class Div(BinOp):
    def _prec(self):
        return 2

    def _eval(self, eps):
        den = self.rhs._eval(eps)
        if den == 0:
            raise _Diverging(self.lhs._eval(eps))
        try:
            num = self.lhs._eval(eps)
        except _Diverging as d:
            raise _Diverging(d.numerator / den) from None
        return num / den

    def _text(self):
        return f"{self.lhs._fmt(2)}/{self.rhs._fmt(3)}"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def _prec(self):
        return 4

    def _eval(self, eps):
        return self.base._eval(eps) ** self.exponent

    def _text(self):
        return f"{self.base._fmt(5)}^{self.exponent}"


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr

    def _eval(self, eps):
        if self.fn == "exp":
            try:
                value = self.arg._eval(eps)
            except _Diverging as d:
                num = d.numerator
                if num.imag == 0 and num.real < 0:
                    return 0j  # exp(c/eps) with c < 0, limit eps -> 0+
                raise EvalError(
                    "exp of a diverging argument without a negative real limit"
                ) from None
            return cmath.exp(value)
        value = self.arg._eval(eps)
        if self.fn == "sqrt":
            return cmath.sqrt(value)
        if self.fn == "cos":
            return cmath.cos(value)
        if self.fn == "sin":
            return cmath.sin(value)
        raise EvalError(f"unknown function {self.fn!r}")

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
# Coin families

# A coin family maps each vertex to a rectangular grid of expressions;
# rows are outgoing slots, columns incoming slots.
CoinFamily = dict


def parse_coin_family(raw: dict) -> CoinFamily:
    """Parse string-valued coin grids into expression grids."""
    family = {}
    for vertex, grid in raw.items():
        parsed = tuple(
            tuple(e if isinstance(e, Expr) else parse(e) for e in row) for row in grid
        )
        if not parsed or any(len(row) != len(parsed[0]) for row in parsed):
            raise ValueError(f"coin at {vertex!r} is not a rectangular matrix")
        family[vertex] = parsed
    return family


def eval_matrix(grid, eps: float) -> np.ndarray:
    rows = [[entry.eval(eps) for entry in row] for row in grid]
    return np.array(rows, dtype=complex)


def eval_coins(coins: CoinFamily, eps: float) -> dict:
    """Evaluate every coin in the family at the given coupling.

    Square coins are required to be unitary to ``UNITARITY_TOL``
    (max-entry norm of C*C - I); rectangular grids are left to the walk
    assembler, which will reject them with a dimension error.
    """
    out = {}
    for vertex, grid in coins.items():
        mat = eval_matrix(grid, eps)
        if mat.shape[0] == mat.shape[1] and mat.size:
            residual = np.abs(mat.conj().T @ mat - np.eye(mat.shape[1])).max()
            if residual > UNITARITY_TOL:
                raise NotUnitary(vertex, float(residual))
        out[vertex] = mat
    return out
