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
    exponent:= NUMBER | '(' ['-'] INT ['/' INT] ')'

``^`` takes a constant integer or rational exponent and binds tighter than
unary minus, so ``-x^2`` means ``-(x^2)``.  Available functions: sin, cos,
exp, log, sqrt, abs, min, max, step.  ``step(u)`` is 0 for u <= 0 and 1 for
u > 0; it exists so that derivatives of the kinked functions (abs, min, max)
stay inside the language.

Differentiation is symbolic and one-sided at kinks: the branch that is
active just below the kink is used, so d|u| at u = 0 contributes -u',
and min/max keep their first argument at ties.

Expressions evaluate on scalars or numpy arrays; any non-finite value in
the result raises FieldEvaluationError.
"""

from __future__ import annotations

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
    "const",
    "coordinate",
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

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._to_str()!r})"

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

    precedence = _PREC_ATOM

    def diff(self, axis):
        return Const(0.0)

    def _eval(self, coords):
        return self.value

    def _to_str(self):
        if self.value < 0:
            return f"({self.value!r})"
        if self.value == int(self.value) and abs(self.value) < 1e16:
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True, eq=True)
class Var(ScalarFieldExpr):
    axis: int  # 0-based

    precedence = _PREC_ATOM

    def diff(self, axis):
        return Const(1.0 if axis == self.axis else 0.0)

    def _eval(self, coords):
        if self.axis >= len(coords):
            raise FieldEvaluationError(
                f"no coordinate value supplied for x{self.axis + 1}")
        return coords[self.axis]

    def _to_str(self):
        return f"x{self.axis + 1}"


@dataclass(frozen=True, eq=True)
class Add(ScalarFieldExpr):
    left: ScalarFieldExpr
    right: ScalarFieldExpr

    precedence = _PREC_ADD

    def diff(self, axis):
        return _add(self.left.diff(axis), self.right.diff(axis))

    def _eval(self, coords):
        return np.asarray(self.left._eval(coords)) + self.right._eval(coords)

    def _to_str(self):
        return f"{self.left._wrap(_PREC_ADD)}+{self.right._wrap(_PREC_ADD + 1)}"


@dataclass(frozen=True, eq=True)
class Sub(ScalarFieldExpr):
    left: ScalarFieldExpr
    right: ScalarFieldExpr

    precedence = _PREC_ADD

    def diff(self, axis):
        return _sub(self.left.diff(axis), self.right.diff(axis))

    def _eval(self, coords):
        return np.asarray(self.left._eval(coords)) - self.right._eval(coords)

    def _to_str(self):
        return f"{self.left._wrap(_PREC_ADD)}-{self.right._wrap(_PREC_ADD + 1)}"


@dataclass(frozen=True, eq=True)
class Mul(ScalarFieldExpr):
    left: ScalarFieldExpr
    right: ScalarFieldExpr

    precedence = _PREC_MUL

    def diff(self, axis):
        return _add(_mul(self.left.diff(axis), self.right),
                    _mul(self.left, self.right.diff(axis)))

    def _eval(self, coords):
        return np.asarray(self.left._eval(coords)) * self.right._eval(coords)

    def _to_str(self):
        return f"{self.left._wrap(_PREC_MUL)}*{self.right._wrap(_PREC_MUL + 1)}"


@dataclass(frozen=True, eq=True)
class Div(ScalarFieldExpr):
    left: ScalarFieldExpr
    right: ScalarFieldExpr

    precedence = _PREC_MUL

    def diff(self, axis):
        # (u/v)' = u'/v - u v'/v^2
        u, v = self.left, self.right
        return _sub(_div(u.diff(axis), v),
                    _div(_mul(u, v.diff(axis)), _pow(v, Fraction(2))))

    def _eval(self, coords):
        return np.asarray(self.left._eval(coords)) / self.right._eval(coords)

    def _to_str(self):
        return f"{self.left._wrap(_PREC_MUL)}/{self.right._wrap(_PREC_MUL + 1)}"


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


_UNARY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "step": _np_step,
}

_BINARY_FUNCS = {"min": np.minimum, "max": np.maximum}


@dataclass(frozen=True, eq=True)
class Call(ScalarFieldExpr):
    name: str
    args: tuple

    precedence = _PREC_ATOM

    def diff(self, axis):
        a = self.args[0]
        da = a.diff(axis)
        if self.name == "sin":
            return _mul(_call("cos", a), da)
        if self.name == "cos":
            return _neg(_mul(_call("sin", a), da))
        if self.name == "exp":
            return _mul(self, da)
        if self.name == "log":
            return _div(da, a)
        if self.name == "sqrt":
            return _div(da, _mul(Const(2.0), self))
        if self.name == "abs":
            # left branch at u = 0: sign factor 2*step(u) - 1 equals -1 there
            sign = _sub(_mul(Const(2.0), _call("step", a)), Const(1.0))
            return _mul(sign, da)
        if self.name == "step":
            return Const(0.0)
        if self.name in ("min", "max"):
            b = self.args[1]
            db = b.diff(axis)
            # first argument wins ties; step(u) = 0 at u = 0 selects it
            gap = _sub(a, b) if self.name == "min" else _sub(b, a)
            return _add(da, _mul(_call("step", gap), _sub(db, da)))
        raise AssertionError(f"unhandled function {self.name}")

    def _eval(self, coords):
        if self.name in _UNARY_FUNCS:
            return _UNARY_FUNCS[self.name](np.asarray(self.args[0]._eval(coords)))
        f = _BINARY_FUNCS[self.name]
        return f(np.asarray(self.args[0]._eval(coords)),
                 np.asarray(self.args[1]._eval(coords)))

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
    return Add(a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def _div(a, b):
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def _pow(base, exponent: Fraction):
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    if _is_const(base):
        if exponent.denominator == 1:
            return Const(float(base.value ** int(exponent)))
        if base.value >= 0:
            return Const(float(base.value ** float(exponent)))
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


def coordinate(axis: int) -> ScalarFieldExpr:
    """The coordinate function x_{axis+1}."""
    if axis < 0:
        raise ValueError("axis must be non-negative")
    return Var(axis)


def differentiate(f: ScalarFieldExpr, axis: int) -> ScalarFieldExpr:
    """Symbolic partial derivative along the given 0-based axis."""
    return f.diff(axis)


# ---------------------------------------------------------------------------
# tokenizer / parser

@dataclass
class _Token:
    kind: str  # 'num', 'ident', 'op'
    text: str
    pos: int


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_e = False
            while j < n:
                c = src[j]
                if c.isdigit() or c == ".":
                    j += 1
                elif c in "eE" and not seen_e and j + 1 < n and (
                        src[j + 1].isdigit() or src[j + 1] in "+-"):
                    seen_e = True
                    j += 2 if src[j + 1] in "+-" else 1
                else:
                    break
            tokens.append(_Token("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise FieldSyntaxError(f"unexpected character {ch!r}", i)
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

    def expect_op(self, text):
        t = self.next()
        if t is None or t.kind != "op" or t.text != text:
            pos = t.pos if t else self.end
            raise FieldSyntaxError(f"expected {text!r}", pos)
        return t

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
            if t is None or t.kind != "op":
                return left
            if t.text in "+-" and _PREC_ADD >= min_prec:
                self.next()
                right = self.expr(_PREC_ADD + 1)
                left = Add(left, right) if t.text == "+" else Sub(left, right)
            elif t.text in "*/" and _PREC_MUL >= min_prec:
                self.next()
                right = self.expr(_PREC_MUL + 1)
                left = Mul(left, right) if t.text == "*" else Div(left, right)
            elif t.text == "^" and _PREC_POW >= min_prec:
                self.next()
                left = Pow(left, self.exponent())
            else:
                return left

    def unary(self):
        t = self.peek()
        if t is not None and t.kind == "op" and t.text == "-":
            self.next()
            # ^ binds tighter than unary minus: parse operand above ADD/MUL
            return Neg(self.nested(_PREC_UNARY, t.pos))
        return self.atom_with_power()

    def atom_with_power(self):
        e = self.atom()
        while True:
            t = self.peek()
            if t is not None and t.kind == "op" and t.text == "^":
                self.next()
                e = Pow(e, self.exponent())
            else:
                return e

    def exponent(self) -> Fraction:
        t = self.peek()
        if t is None:
            raise FieldSyntaxError("missing exponent", self.end)
        if t.kind == "num":
            self.next()
            try:
                return Fraction(t.text)
            except ValueError:
                raise FieldSyntaxError(
                    f"exponent {t.text!r} is not an exact rational", t.pos)
        if t.kind == "op" and t.text == "(":
            self.next()
            sign = 1
            t2 = self.peek()
            if t2 is not None and t2.kind == "op" and t2.text == "-":
                self.next()
                sign = -1
            num_tok = self.next()
            if num_tok is None or num_tok.kind != "num":
                pos = num_tok.pos if num_tok else self.end
                raise FieldSyntaxError("expected a rational exponent", pos)
            value = Fraction(num_tok.text)
            t3 = self.peek()
            if t3 is not None and t3.kind == "op" and t3.text == "/":
                self.next()
                den_tok = self.next()
                if den_tok is None or den_tok.kind != "num":
                    pos = den_tok.pos if den_tok else self.end
                    raise FieldSyntaxError("expected exponent denominator", pos)
                value = value / Fraction(den_tok.text)
            self.expect_op(")")
            return sign * value
        raise FieldSyntaxError("exponent must be a constant", t.pos)

    def atom(self):
        t = self.next()
        if t is None:
            raise FieldSyntaxError("unexpected end of expression", self.end)
        if t.kind == "num":
            return Const(float(t.text))
        if t.kind == "op" and t.text == "(":
            e = self.nested(0, t.pos)
            self.expect_op(")")
            return e
        if t.kind == "ident":
            return self.identifier(t)
        raise FieldSyntaxError(f"unexpected token {t.text!r}", t.pos)

    def identifier(self, t):
        name = t.text
        nxt = self.peek()
        if nxt is not None and nxt.kind == "op" and nxt.text == "(":
            if name not in _UNARY_FUNCS and name not in _BINARY_FUNCS:
                raise FieldSyntaxError(f"unknown function {name!r}", t.pos)
            self.next()
            args = [self.nested(0, nxt.pos)]
            while True:
                t2 = self.peek()
                if t2 is not None and t2.kind == "op" and t2.text == ",":
                    self.next()
                    args.append(self.nested(0, t2.pos))
                else:
                    break
            self.expect_op(")")
            want = 2 if name in _BINARY_FUNCS else 1
            if len(args) != want:
                raise FieldSyntaxError(
                    f"{name} takes {want} argument(s), got {len(args)}", t.pos)
            return Call(name, tuple(args))
        if name == "pi":
            return Const(np.pi)
        axis = self.axis_of(name, t.pos)
        return Var(axis)

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
