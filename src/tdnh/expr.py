"""Arithmetic expressions of the time variable with exact first derivatives.

Scenario coefficients (drive amplitudes, detunings, ...) are written as
small infix expressions of a single variable ``t``.  This module parses
them into immutable trees, evaluates them, and differentiates them with
forward-mode dual numbers, so derivatives are exact up to round-off
instead of finite-difference approximations.

Grammar::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" factor)?        # right-associative
    atom    := NUMBER | "t" | "pi" | "e"
             | NAME "(" expr ")" | "(" expr ")"

``NAME`` is one of sin, cos, tan, sinh, cosh, tanh, exp, log, sqrt,
atan.  ``^`` binds tighter than unary minus, so ``-t^2`` means
``-(t^2)``.

Parsed trees are immutable and evaluation is pure, so expressions can be
shared freely between threads.  Singular evaluations (division by zero,
log of a non-positive number, ...) raise :class:`EvalDomainError`
carrying the source offset of the offending node instead of propagating
NaN or infinity.

:func:`evaluate` and :func:`evaluate_dual` take a float ``t`` or a vector
of times.  A float walks the tree in plain Python floats.  A vector runs
a numpy program compiled from the tree, which walks the tree once for the
whole vector, returns arrays of its shape, and raises the error the float
walk raises at the first offending time, naming that time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

__all__ = [
    "ExprAst",
    "Num",
    "TimeVar",
    "NamedConst",
    "Unary",
    "Binary",
    "DualValue",
    "ExprError",
    "ParseError",
    "UnknownIdentifierError",
    "EvalDomainError",
    "parse",
    "evaluate",
    "evaluate_dual",
    "to_source",
    "constant_value",
    "UNARY_FUNCTIONS",
    "NAMED_CONSTANTS",
]

NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}
UNARY_FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "atan")


class ExprError(ValueError):
    """Base class for expression parsing and evaluation failures."""


class ParseError(ExprError):
    """Syntax error, with source offset and the token kinds expected there."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class UnknownIdentifierError(ParseError):
    """An identifier that is neither ``t``, a named constant, nor a function."""

    def __init__(self, name: str, offset: int):
        self.name = name
        super().__init__(f"unknown identifier '{name}'", offset)


class EvalDomainError(ExprError):
    """Evaluation hit a singularity (division by zero, log(x<=0), ...).

    ``t`` is the first offending time when a vector of times was evaluated.
    """

    def __init__(self, message: str, offset: int, t: float | None = None):
        self.reason = message
        self.offset = offset
        self.t = t
        detail = f"{message} at offset {offset}"
        if t is not None:
            detail += f", first at t={t!r}"
        super().__init__(detail)


# --------------------------------------------------------------------------
# AST nodes.  ``offset`` locates the node in the source for error reporting;
# it is excluded from equality so that parse(to_source(ast)) == ast.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class TimeVar:
    offset: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class NamedConst:
    name: str
    offset: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" or a function name
    arg: "ExprAst"
    offset: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"
    offset: int = field(default=0, compare=False, repr=False)


ExprAst = Union[Num, TimeVar, NamedConst, Unary, Binary]


def constant_value(ast: ExprAst) -> float | None:
    """Value of a literal constant node, or None if the tree involves t."""
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, NamedConst):
        return NAMED_CONSTANTS[ast.name]
    return None


# --------------------------------------------------------------------------
# Tokenizer / parser
# --------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = "+-*/^()"


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER | NAME | one of _OPS | END
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        m = _NUMBER_RE.match(source, i)
        if m:
            tokens.append(_Token("NUMBER", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(source, i)
        if m:
            tokens.append(_Token("NAME", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


_ATOM_EXPECTED = ("number", "'t'", "constant", "function", "'('", "'-'")


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {_describe(tok)}", tok.offset, expected)
        return self._next()

    def parse(self) -> ExprAst:
        ast = self._expr()
        tok = self._peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected {_describe(tok)}", tok.offset, ("end of input", "operator"))
        return ast

    def _expr(self) -> ExprAst:
        node = self._term()
        while self._peek().kind in ("+", "-"):
            op = self._next()
            node = Binary(op.kind, node, self._term(), offset=op.offset)
        return node

    def _term(self) -> ExprAst:
        node = self._factor()
        while self._peek().kind in ("*", "/"):
            op = self._next()
            node = Binary(op.kind, node, self._factor(), offset=op.offset)
        return node

    def _factor(self) -> ExprAst:
        tok = self._peek()
        if tok.kind == "-":
            self._next()
            return Unary("neg", self._factor(), offset=tok.offset)
        return self._power()

    def _power(self) -> ExprAst:
        base = self._atom()
        tok = self._peek()
        if tok.kind == "^":
            self._next()
            return Binary("^", base, self._factor(), offset=tok.offset)
        return base

    def _atom(self) -> ExprAst:
        tok = self._peek()
        if tok.kind == "NUMBER":
            self._next()
            return Num(float(tok.text), offset=tok.offset)
        if tok.kind == "NAME":
            self._next()
            if tok.text == "t":
                return TimeVar(offset=tok.offset)
            if tok.text in NAMED_CONSTANTS:
                return NamedConst(tok.text, offset=tok.offset)
            if tok.text in UNARY_FUNCTIONS:
                self._expect("(", ("'('",))
                arg = self._expr()
                self._expect(")", ("')'",))
                return Unary(tok.text, arg, offset=tok.offset)
            raise UnknownIdentifierError(tok.text, tok.offset)
        if tok.kind == "(":
            self._next()
            node = self._expr()
            self._expect(")", ("')'",))
            return node
        raise ParseError(f"unexpected {_describe(tok)}", tok.offset, _ATOM_EXPECTED)


def _describe(tok: _Token) -> str:
    return "end of input" if tok.kind == "END" else f"token {tok.text!r}"


def parse(source: str) -> ExprAst:
    """Parse an expression of t into an immutable AST."""
    return _Parser(_tokenize(source)).parse()


# --------------------------------------------------------------------------
# Dual numbers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DualValue:
    """A value together with its exact derivative with respect to t."""

    value: float
    derivative: float

    def __add__(self, other):
        o = _as_dual(other)
        return DualValue(self.value + o.value, self.derivative + o.derivative)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_dual(other)
        return DualValue(self.value - o.value, self.derivative - o.derivative)

    def __rsub__(self, other):
        o = _as_dual(other)
        return DualValue(o.value - self.value, o.derivative - self.derivative)

    def __mul__(self, other):
        o = _as_dual(other)
        return DualValue(self.value * o.value,
                         self.value * o.derivative + o.value * self.derivative)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_dual(other)
        v = self.value / o.value
        return DualValue(v, (self.derivative - v * o.derivative) / o.value)

    def __rtruediv__(self, other):
        return _as_dual(other).__truediv__(self)

    def __pow__(self, other):
        return _dual_pow(self, _as_dual(other))

    def __rpow__(self, other):
        return _dual_pow(_as_dual(other), self)

    def __neg__(self):
        return DualValue(-self.value, -self.derivative)


def _as_dual(x) -> DualValue:
    if isinstance(x, DualValue):
        return x
    return DualValue(float(x), 0.0)


def _dual_pow(base: DualValue, expo: DualValue) -> DualValue:
    v = math.pow(base.value, expo.value)
    if expo.derivative == 0.0:
        # exponent locally constant: d(b^c) = c b^(c-1) b'
        if expo.value == 0.0 or base.derivative == 0.0:
            d = 0.0
        else:
            d = expo.value * math.pow(base.value, expo.value - 1.0) * base.derivative
    else:
        if base.value <= 0.0:
            raise ValueError("power with varying exponent needs a positive base")
        d = v * (expo.derivative * math.log(base.value) + expo.value * base.derivative / base.value)
    return DualValue(v, d)


_FN_VALUE = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "exp": math.exp,
    "atan": math.atan,
}


def _fn_float(name: str, v: float) -> float:
    if name == "log":
        if v <= 0.0:
            raise ValueError("log of a non-positive value")
        return math.log(v)
    if name == "sqrt":
        if v < 0.0:
            raise ValueError("sqrt of a negative value")
        return math.sqrt(v)
    return _FN_VALUE[name](v)


def _fn_dual(name: str, x: DualValue) -> DualValue:
    v, d = x.value, x.derivative
    if name == "sin":
        return DualValue(math.sin(v), math.cos(v) * d)
    if name == "cos":
        return DualValue(math.cos(v), -math.sin(v) * d)
    if name == "tan":
        f = math.tan(v)
        return DualValue(f, (1.0 + f * f) * d)
    if name == "sinh":
        return DualValue(math.sinh(v), math.cosh(v) * d)
    if name == "cosh":
        return DualValue(math.cosh(v), math.sinh(v) * d)
    if name == "tanh":
        f = math.tanh(v)
        return DualValue(f, (1.0 - f * f) * d)
    if name == "exp":
        f = math.exp(v)
        return DualValue(f, f * d)
    if name == "log":
        if v <= 0.0:
            raise ValueError("log of a non-positive value")
        return DualValue(math.log(v), d / v)
    if name == "sqrt":
        if v < 0.0:
            raise ValueError("sqrt of a negative value")
        f = math.sqrt(v)
        if v == 0.0:
            if d == 0.0:
                return DualValue(0.0, 0.0)
            raise ValueError("sqrt derivative is singular at zero")
        return DualValue(f, d / (2.0 * f))
    if name == "atan":
        return DualValue(math.atan(v), d / (1.0 + v * v))
    raise ValueError(f"unknown function {name!r}")


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


def _is_vector(t) -> bool:
    # floats (numpy's included) skip np.ndim, which costs more than a short tree walk
    return not isinstance(t, float) and np.ndim(t) > 0


def evaluate(ast: ExprAst, t):
    """Value of the expression at time t, or an array of values over a vector t."""
    if _is_vector(t):
        return _run_program(ast, t, dual=False)[0]
    return _eval_float(ast, float(t))


def evaluate_dual(ast: ExprAst, t) -> DualValue:
    """Value and exact d/dt of the expression at time t (arrays over a vector t)."""
    if _is_vector(t):
        return DualValue(*_run_program(ast, t, dual=True))
    return _eval_dual(ast, float(t))


def _check_finite(v: float, offset: int) -> float:
    if not math.isfinite(v):
        raise EvalDomainError("non-finite result", offset)
    return v


def _eval_float(node: ExprAst, t: float) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, TimeVar):
        return t
    if isinstance(node, NamedConst):
        return NAMED_CONSTANTS[node.name]
    if isinstance(node, Unary):
        v = _eval_float(node.arg, t)
        if node.op == "neg":
            return -v
        try:
            return _check_finite(_fn_float(node.op, v), node.offset)
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(str(exc), node.offset) from exc
    if isinstance(node, Binary):
        a = _eval_float(node.left, t)
        b = _eval_float(node.right, t)
        try:
            if node.op == "+":
                v = a + b
            elif node.op == "-":
                v = a - b
            elif node.op == "*":
                v = a * b
            elif node.op == "/":
                v = a / b
            else:
                v = math.pow(a, b)
        except ZeroDivisionError as exc:
            raise EvalDomainError("division by zero", node.offset) from exc
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(str(exc), node.offset) from exc
        return _check_finite(v, node.offset)
    raise TypeError(f"not an expression node: {node!r}")


def _eval_dual(node: ExprAst, t: float) -> DualValue:
    if isinstance(node, Num):
        return DualValue(node.value, 0.0)
    if isinstance(node, TimeVar):
        return DualValue(t, 1.0)
    if isinstance(node, NamedConst):
        return DualValue(NAMED_CONSTANTS[node.name], 0.0)
    if isinstance(node, Unary):
        x = _eval_dual(node.arg, t)
        if node.op == "neg":
            return -x
        try:
            out = _fn_dual(node.op, x)
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(str(exc), node.offset) from exc
        _check_finite(out.value, node.offset)
        _check_finite(out.derivative, node.offset)
        return out
    if isinstance(node, Binary):
        a = _eval_dual(node.left, t)
        b = _eval_dual(node.right, t)
        try:
            if node.op == "+":
                out = a + b
            elif node.op == "-":
                out = a - b
            elif node.op == "*":
                out = a * b
            elif node.op == "/":
                out = a / b
            else:
                out = a ** b
        except ZeroDivisionError as exc:
            raise EvalDomainError("division by zero", node.offset) from exc
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(str(exc), node.offset) from exc
        _check_finite(out.value, node.offset)
        _check_finite(out.derivative, node.offset)
        return out
    raise TypeError(f"not an expression node: {node!r}")


# --------------------------------------------------------------------------
# Array evaluation.  A tree compiles into nested closures over numpy arrays
# that carry the value and, in dual mode, the exact derivative.  Every node
# records the first index at which its output is not finite; the earliest
# such index, and at that index the node first in evaluation order, is
# where the float walk stops, so the float walk at that time supplies the
# error message.
# --------------------------------------------------------------------------

_Program = Callable[[np.ndarray, list], tuple]

_ARRAY_FN = {  # name -> (value, derivative given value v, result f and dv/dt d)
    "sin": (np.sin, lambda v, f, d: np.cos(v) * d),
    "cos": (np.cos, lambda v, f, d: -np.sin(v) * d),
    "tan": (np.tan, lambda v, f, d: (1.0 + f * f) * d),
    "sinh": (np.sinh, lambda v, f, d: np.cosh(v) * d),
    "cosh": (np.cosh, lambda v, f, d: np.sinh(v) * d),
    "tanh": (np.tanh, lambda v, f, d: (1.0 - f * f) * d),
    "exp": (np.exp, lambda v, f, d: f * d),
    "log": (np.log, lambda v, f, d: d / v),
    "sqrt": (np.sqrt, lambda v, f, d: d / (2.0 * f)),
    "atan": (np.arctan, lambda v, f, d: d / (1.0 + v * v)),
}


def _flag(failures: list, offset: int, value, derivative) -> None:
    bad = ~np.isfinite(value)
    if derivative is not None:
        bad = bad | ~np.isfinite(derivative)
    if bad.any():
        failures.append((int(np.argmax(bad)) if bad.ndim else 0, len(failures), offset))


def _compile(node: ExprAst, dual: bool) -> _Program:
    """Closure ``(t, failures) -> (value, derivative)``; the derivative is
    None unless ``dual``."""
    zero = np.float64(0.0)
    if isinstance(node, (Num, NamedConst)):
        value = np.float64(constant_value(node))
        return lambda t, failures: (value, zero if dual else None)
    if isinstance(node, TimeVar):
        one = np.float64(1.0)
        return lambda t, failures: (t, one if dual else None)
    if isinstance(node, Unary):
        arg = _compile(node.arg, dual)
        if node.op == "neg":
            def neg(t, failures):
                v, d = arg(t, failures)
                return -v, (-d if dual else None)
            return neg
        fn, derivative = _ARRAY_FN[node.op]
        sqrt = node.op == "sqrt"

        def unary(t, failures):
            v, d = arg(t, failures)
            f = fn(v)
            df = None
            if dual:
                df = derivative(v, f, d)
                if sqrt:  # sqrt(0) with a flat argument has derivative 0, like the float walk
                    df = np.where((v == 0.0) & (d == 0.0), 0.0, df)
            _flag(failures, node.offset, f, df)
            return f, df
        return unary
    if isinstance(node, Binary):
        left = _compile(node.left, dual)
        right = _compile(node.right, dual)
        op = node.op

        def binary(t, failures):
            a, da = left(t, failures)
            b, db = right(t, failures)
            if op == "+":
                v, d = a + b, (da + db if dual else None)
            elif op == "-":
                v, d = a - b, (da - db if dual else None)
            elif op == "*":
                v, d = a * b, (a * db + b * da if dual else None)
            elif op == "/":
                v = a / b
                d = (da - v * db) / b if dual else None
            else:
                v = np.power(a, b)
                d = None
                if dual:
                    # the branches of _dual_pow, chosen per point
                    flat = np.where((b == 0.0) | (da == 0.0), 0.0,
                                    b * np.power(a, b - 1.0) * da)
                    d = np.where(db == 0.0, flat, v * (db * np.log(a) + b * da / a))
            _flag(failures, node.offset, v, d)
            return v, d
        return binary
    raise TypeError(f"not an expression node: {node!r}")


def _run_program(ast: ExprAst, t, dual: bool) -> tuple[np.ndarray, np.ndarray | None]:
    t = np.asarray(t, dtype=float)
    failures: list = []
    with np.errstate(all="ignore"):
        v, d = _compile(ast, dual)(t, failures)
    if failures:
        k, _, offset = min(failures)
        t_bad = float(t.flat[k])
        try:
            (_eval_dual if dual else _eval_float)(ast, t_bad)
        except EvalDomainError as exc:
            raise EvalDomainError(exc.reason, exc.offset, t_bad) from None
        raise EvalDomainError("non-finite result", offset, t_bad)
    v = np.array(np.broadcast_to(v, t.shape), dtype=float)
    if dual:
        d = np.array(np.broadcast_to(d, t.shape), dtype=float)
    return v, d


# --------------------------------------------------------------------------
# Printing.  to_source emits the minimal parenthesisation that reparses to
# an equal tree, so parse(to_source(ast)) == ast.
# --------------------------------------------------------------------------

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3
_ATOM_PREC = 9


def _prec(node: ExprAst) -> int:
    if isinstance(node, Binary):
        return _BIN_PREC[node.op]
    if isinstance(node, Unary) and node.op == "neg":
        return _NEG_PREC
    return _ATOM_PREC


def to_source(node: ExprAst) -> str:
    """Render the AST back to expression text."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, TimeVar):
        return "t"
    if isinstance(node, NamedConst):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = to_source(node.arg)
            if _prec(node.arg) < _NEG_PREC:
                inner = f"({inner})"
            return "-" + inner
        return f"{node.op}({to_source(node.arg)})"
    if isinstance(node, Binary):
        p = _BIN_PREC[node.op]
        left = to_source(node.left)
        right = to_source(node.right)
        if node.op == "^":
            if _prec(node.left) <= p:
                left = f"({left})"
            if _prec(node.right) < p:
                right = f"({right})"
        else:
            if _prec(node.left) < p:
                left = f"({left})"
            if _prec(node.right) <= p:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")
