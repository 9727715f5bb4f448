"""Scalar field expressions over Cartesian coordinates.

The coefficient fields of a weighted Neumann problem (weight w, log-density
rho, potential V) are given as closed-form expressions in the coordinates
``x1 .. xnu`` (aliases ``x``, ``y``, ``z`` are accepted for nu <= 3).  The
grammar is

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' exponent)*
    atom    := NUMBER | 'pi' | IDENT | IDENT '(' expr (',' expr)* ')'
             | '(' expr ')'
    exponent:= NUMBER | '(' ['-'] NUMBER ['/' NUMBER] ')'

``^`` takes a constant exponent, read as an exact rational (``x^(2/1.5)``
is ``x^(4/3)``), and binds tighter than unary minus, so ``-x^2`` means
``-(x^2)``.  A NUMBER is a decimal literal such as ``2``, ``.5`` or
``1.5e-3``; one that is not finite as a float, or that rounds to 0.0
although its digits are not all zero, is refused.  Available
functions: sin, cos, exp, log, sqrt, abs, min, max, step.  ``step(u)`` is 0
for u <= 0 and 1 for u > 0; it exists so that derivatives of the kinked
functions (abs, min, max) stay inside the language.

Differentiation is symbolic and one-sided at kinks: the branch that is
active just below the kink is used, so d|u| at u = 0 contributes -u',
and min/max keep their first argument at ties.

Expressions evaluate on scalars or numpy arrays; any non-finite value in
the result raises FieldEvaluationError.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

__all__ = [
    "ScalarFieldExpr",
    "FieldSyntaxError",
    "FieldEvaluationError",
    "parse_field",
    "differentiate",
    "is_constant",
    "const",
]

Coords = Sequence[Union[float, np.ndarray]]

_AXIS_NAMES = ("x", "y", "z")

# deepest nesting a source may have, both while it is parsed and in the
# parsed tree.  Differentiating twice (Vtilde holds |grad rho|^2, and the
# phase-space bound differentiates Vtilde) and evaluating a tree this deep
# take about 8 Python frames per level, well under the default limit of
# 1000
_MAX_DEPTH = 64


class FieldSyntaxError(ValueError):
    """Raised on malformed expression source; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FieldEvaluationError(ValueError):
    """Raised when an expression evaluates to NaN or infinity."""


# precedence levels used both by the parser and the printer
_PREC_ADD = 10
_PREC_MUL = 20
_PREC_UNARY = 30
_PREC_POW = 40
_PREC_ATOM = 100


class ScalarFieldExpr:
    """Immutable expression tree node; subclasses implement the operations."""

    precedence = _PREC_ATOM

    def evaluate(self, coords: Coords):
        """Evaluate at the given per-axis coordinate values.

        coords[i] holds the values of x_{i+1}; entries may be scalars or
        broadcastable numpy arrays.
        """
        with np.errstate(all="ignore"):
            out = self._eval(coords)
        if not np.all(np.isfinite(out)):
            raise FieldEvaluationError(
                f"expression '{self}' produced a non-finite value")
        return out

    def diff(self, axis: int) -> "ScalarFieldExpr":
        raise NotImplementedError

    def _eval(self, coords: Coords):
        raise NotImplementedError

    def _to_str(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self._to_str()

    def _wrap(self, parent_prec: int) -> str:
        s = self._to_str()
        return f"({s})" if self.precedence < parent_prec else s

    # operator support for building expressions programmatically
    def __add__(self, other):
        return _add(self, _as_expr(other))

    def __radd__(self, other):
        return _add(_as_expr(other), self)

    def __sub__(self, other):
        return _sub(self, _as_expr(other))

    def __rsub__(self, other):
        return _sub(_as_expr(other), self)

    def __mul__(self, other):
        return _mul(self, _as_expr(other))

    def __rmul__(self, other):
        return _mul(_as_expr(other), self)

    def __truediv__(self, other):
        return _div(self, _as_expr(other))

    def __pow__(self, exponent):
        return _pow(self, Fraction(exponent))

    def __neg__(self):
        return _neg(self)


@dataclass(frozen=True, eq=True)
class Const(ScalarFieldExpr):
    value: float

    def diff(self, axis):
        return Const(0.0)

    def _eval(self, coords):
        return self.value

    def _to_str(self):
        if self.value < 0:
            return f"({self.value!r})"
        # is_integer() is False for inf and nan, which print by repr
        if self.value.is_integer() and self.value < 1e16:
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True, eq=True)
class Var(ScalarFieldExpr):
    axis: int  # 0-based

    def diff(self, axis):
        return Const(1.0 if axis == self.axis else 0.0)

    def _eval(self, coords):
        if self.axis >= len(coords):
            raise FieldEvaluationError(
                f"no coordinate value supplied for x{self.axis + 1}")
        return coords[self.axis]

    def _to_str(self):
        return f"x{self.axis + 1}"


# operator -> (precedence, operation, derivative rule(u, v, du, dv)); all
# four operators are left-associative
_BINARY = {
    "+": (_PREC_ADD, operator.add, lambda u, v, du, dv: _add(du, dv)),
    "-": (_PREC_ADD, operator.sub, lambda u, v, du, dv: _sub(du, dv)),
    "*": (_PREC_MUL, operator.mul,
          lambda u, v, du, dv: _add(_mul(du, v), _mul(u, dv))),
    # (u/v)' = u'/v - u v'/v^2
    "/": (_PREC_MUL, operator.truediv,
          lambda u, v, du, dv: _sub(_div(du, v), _div(
              _mul(u, dv), _pow(v, Fraction(2))))),
}


@dataclass(frozen=True, eq=True)
class Binary(ScalarFieldExpr):
    op: str
    left: ScalarFieldExpr
    right: ScalarFieldExpr

    @property
    def precedence(self):
        return _BINARY[self.op][0]

    def diff(self, axis):
        return _BINARY[self.op][2](self.left, self.right,
                                   self.left.diff(axis), self.right.diff(axis))

    def _eval(self, coords):
        return _BINARY[self.op][1](np.asarray(self.left._eval(coords)),
                                   self.right._eval(coords))

    def _to_str(self):
        prec = self.precedence
        return f"{self.left._wrap(prec)}{self.op}{self.right._wrap(prec + 1)}"


@dataclass(frozen=True, eq=True)
class Pow(ScalarFieldExpr):
    base: ScalarFieldExpr
    exponent: Fraction

    precedence = _PREC_POW

    def diff(self, axis):
        c = self.exponent
        if c == 0:
            return Const(0.0)
        return _mul(_mul(Const(float(c)), _pow(self.base, c - 1)),
                    self.base.diff(axis))

    def _eval(self, coords):
        b = np.asarray(self.base._eval(coords))
        c = self.exponent
        if c.denominator == 1:
            return b ** int(c)
        return b ** float(c)

    def _to_str(self):
        c = self.exponent
        if c.denominator == 1 and c >= 0:
            exp_str = str(int(c))
        elif c.denominator == 1:
            exp_str = f"({int(c)})"
        else:
            exp_str = f"({c.numerator}/{c.denominator})"
        return f"{self.base._wrap(_PREC_POW + 1)}^{exp_str}"


@dataclass(frozen=True, eq=True)
class Neg(ScalarFieldExpr):
    operand: ScalarFieldExpr

    precedence = _PREC_UNARY

    def diff(self, axis):
        return _neg(self.operand.diff(axis))

    def _eval(self, coords):
        return -np.asarray(self.operand._eval(coords))

    def _to_str(self):
        return f"-{self.operand._wrap(_PREC_UNARY)}"


def _np_step(u):
    return np.where(np.asarray(u) > 0, 1.0, 0.0)


# name -> (arity, numpy function, derivative rule(f, *args, *dargs)), where
# f is the call node itself
_FUNCS = {
    "sin": (1, np.sin, lambda f, u, du: _mul(_call("cos", u), du)),
    "cos": (1, np.cos, lambda f, u, du: _neg(_mul(_call("sin", u), du))),
    "exp": (1, np.exp, lambda f, u, du: _mul(f, du)),
    "log": (1, np.log, lambda f, u, du: _div(du, u)),
    "sqrt": (1, np.sqrt, lambda f, u, du: _div(du, _mul(Const(2.0), f))),
    # left branch at u = 0: sign factor 2*step(u) - 1 equals -1 there
    "abs": (1, np.abs, lambda f, u, du: _mul(
        _sub(_mul(Const(2.0), _call("step", u)), Const(1.0)), du)),
    "step": (1, _np_step, lambda f, u, du: Const(0.0)),
    # first argument wins ties; step(u) = 0 at u = 0 selects it
    "min": (2, np.minimum, lambda f, u, v, du, dv: _add(
        du, _mul(_call("step", _sub(u, v)), _sub(dv, du)))),
    "max": (2, np.maximum, lambda f, u, v, du, dv: _add(
        du, _mul(_call("step", _sub(v, u)), _sub(dv, du)))),
}


@dataclass(frozen=True, eq=True)
class Call(ScalarFieldExpr):
    name: str
    args: tuple

    def diff(self, axis):
        return _FUNCS[self.name][2](self, *self.args,
                                    *(a.diff(axis) for a in self.args))

    def _eval(self, coords):
        return _FUNCS[self.name][1](
            *(np.asarray(a._eval(coords)) for a in self.args))

    def _to_str(self):
        inner = ",".join(a._to_str() for a in self.args)
        return f"{self.name}({inner})"


# ---------------------------------------------------------------------------
# smart constructors: fold constants so that derivatives stay readable

def _as_expr(v) -> ScalarFieldExpr:
    if isinstance(v, ScalarFieldExpr):
        return v
    return Const(float(v))


def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Binary("-", a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("*", a, b)


def _div(a, b):
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Binary("/", a, b)


def _pow(base, exponent: Fraction):
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    if _is_const(base) and (exponent.denominator == 1 or base.value >= 0):
        try:   # an int exponent is made a float by `**` all the same
            value = base.value ** float(exponent)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        # a power that is not a finite float stays a node: evaluating it
        # raises FieldEvaluationError like any other non-finite value
        if math.isfinite(value):
            return Const(value)
    return Pow(base, exponent)


def _neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _call(name, *args):
    return Call(name, tuple(args))


def const(value: float) -> ScalarFieldExpr:
    return Const(float(value))


def differentiate(f: ScalarFieldExpr, axis: int) -> ScalarFieldExpr:
    """Symbolic partial derivative along the given 0-based axis."""
    return f.diff(axis)


def is_constant(f: ScalarFieldExpr) -> bool:
    """Whether f reads no coordinate.  Unlike a derivative that folds to
    zero, this refuses step(x), whose derivative is zero off its jump."""
    if isinstance(f, Var):
        return False
    children = f.args if isinstance(f, Call) else vars(f).values()
    return all(is_constant(c) for c in children
               if isinstance(c, ScalarFieldExpr))


# ---------------------------------------------------------------------------
# tokenizer / parser

@dataclass
class _Token:
    kind: str  # 'num', 'ident', 'op'
    text: str
    pos: int


# one token and the white space after it; "1.2.3" reads as "1.2" ".3"
_TOKEN = re.compile(r"""(?:
    (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[^\W\d]\w*)
  | (?P<op>[-+*/^(),])
)\s*""", re.VERBOSE)


def _tokenize(src: str):
    tokens, i = [], len(src) - len(src.lstrip())
    while i < len(src):
        m = _TOKEN.match(src, i)
        if m is None:
            raise FieldSyntaxError(f"unexpected character {src[i]!r}", i)
        tokens.append(_Token(m.lastgroup, m[m.lastgroup], i))
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, nu: int, length: int):
        self.tokens = tokens
        self.k = 0
        self.depth = 0
        self.nu = nu
        self.end = length

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def next(self):
        t = self.peek()
        if t is not None:
            self.k += 1
        return t

    def accept(self, text):
        """Take the next token if it is the operator `text`."""
        t = self.peek()
        if t is not None and t.kind == "op" and t.text == text:
            self.k += 1
            return t
        return None

    def expect_op(self, text):
        if self.accept(text) is None:
            t = self.peek()
            raise FieldSyntaxError(f"expected {text!r}",
                                   t.pos if t else self.end)

    def parse(self):
        e = self.expr(0)
        t = self.peek()
        if t is not None:
            raise FieldSyntaxError(f"unexpected token {t.text!r}", t.pos)
        return e

    def nested(self, min_prec, pos):
        """expr one level deeper: in parentheses, in call arguments or
        under a unary minus."""
        if self.depth == _MAX_DEPTH:
            raise FieldSyntaxError(
                f"expression nests deeper than {_MAX_DEPTH} levels", pos)
        self.depth += 1
        e = self.expr(min_prec)
        self.depth -= 1
        return e

    def expr(self, min_prec):
        left = self.unary()
        while True:
            t = self.peek()
            if t is None or t.text not in _BINARY:
                return left
            prec = _BINARY[t.text][0]
            if prec < min_prec:
                return left
            self.next()
            left = Binary(t.text, left, self.expr(prec + 1))

    def unary(self):
        t = self.accept("-")
        if t is not None:
            # ^ binds tighter than unary minus: parse operand above ADD/MUL
            return Neg(self.nested(_PREC_UNARY, t.pos))
        e = self.atom()
        while self.accept("^") is not None:
            e = Pow(e, self.exponent())
        return e

    def literal(self, t, what):
        """The text of number token `t`, refused unless finite as a float
        and, when a digit before its exponent is nonzero, nonzero as a
        float.  A zero reads as "0": the exact rational of "1e-4000000" or
        "0e4000000" would expand the power of ten in its exponent."""
        if t is None or t.kind != "num":
            raise FieldSyntaxError(f"expected {what}",
                                   t.pos if t else self.end)
        value = float(t.text)
        if not math.isfinite(value):
            raise FieldSyntaxError(f"number {t.text} is not finite", t.pos)
        if value == 0.0:
            if re.search("[1-9]", re.split("[eE]", t.text)[0]):
                raise FieldSyntaxError(f"number {t.text} underflows to zero",
                                       t.pos)
            return "0"
        return t.text

    def exponent(self) -> Fraction:
        t = self.peek()
        if t is None:
            raise FieldSyntaxError("missing exponent", self.end)
        if t.kind == "num":
            return Fraction(self.literal(self.next(), "an exponent"))
        if self.accept("(") is None:
            raise FieldSyntaxError("exponent must be a constant", t.pos)
        sign = -1 if self.accept("-") is not None else 1
        value = Fraction(self.literal(self.next(), "a rational exponent"))
        if self.accept("/") is not None:
            t = self.next()
            den = Fraction(self.literal(t, "exponent denominator"))
            if den == 0:
                raise FieldSyntaxError("exponent denominator is zero", t.pos)
            value /= den
        self.expect_op(")")
        return sign * value

    def atom(self):
        t = self.next()
        if t is None:
            raise FieldSyntaxError("unexpected end of expression", self.end)
        if t.kind == "num":
            return Const(float(self.literal(t, "a number")))
        if t.kind == "ident":
            return self.identifier(t)
        if t.text == "(":
            e = self.nested(0, t.pos)
            self.expect_op(")")
            return e
        raise FieldSyntaxError(f"unexpected token {t.text!r}", t.pos)

    def identifier(self, t):
        name = t.text
        paren = self.accept("(")
        if paren is None:
            if name == "pi":
                return Const(np.pi)
            return Var(self.axis_of(name, t.pos))
        if name not in _FUNCS:
            raise FieldSyntaxError(f"unknown function {name!r}", t.pos)
        args = [self.nested(0, paren.pos)]
        while (comma := self.accept(",")) is not None:
            args.append(self.nested(0, comma.pos))
        self.expect_op(")")
        arity = _FUNCS[name][0]
        if len(args) != arity:
            raise FieldSyntaxError(
                f"{name} takes {arity} argument(s), got {len(args)}", t.pos)
        return Call(name, tuple(args))

    def axis_of(self, name, pos):
        if self.nu <= 3 and name in _AXIS_NAMES[:self.nu]:
            return _AXIS_NAMES.index(name)
        if len(name) >= 2 and name[0] == "x" and name[1:].isdigit():
            axis = int(name[1:]) - 1
            if 0 <= axis < self.nu:
                return axis
            raise FieldSyntaxError(
                f"coordinate {name!r} exceeds dimension {self.nu}", pos)
        raise FieldSyntaxError(f"unknown identifier {name!r}", pos)


def parse_field(source: str, nu: int) -> ScalarFieldExpr:
    """Parse an expression in the coordinates x1..xnu (x, y, z for nu <= 3)."""
    if nu < 1:
        raise ValueError("nu must be at least 1")
    tokens = _tokenize(source)
    if not tokens:
        raise FieldSyntaxError("empty expression", 0)
    tree = _Parser(tokens, nu, len(source)).parse()
    if _depth(tree) > _MAX_DEPTH:
        raise FieldSyntaxError(
            f"expression nests deeper than {_MAX_DEPTH} levels", 0)
    return tree


def _depth(root: ScalarFieldExpr) -> int:
    """Levels of an expression tree, counted without recursion."""
    deepest, stack = 0, [(root, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        for value in vars(node).values():
            for child in value if isinstance(value, tuple) else (value,):
                if isinstance(child, ScalarFieldExpr):
                    stack.append((child, level + 1))
    return deepest
