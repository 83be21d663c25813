"""Parser and evaluator for closed-form diffusion coefficients a(r).

The CLI accepts coefficients as plain text like ``(1+r)^-2`` or
``(1+r)/r^2.5``.  This module turns such strings into an immutable
expression tree over the single free variable ``r`` and evaluates it on
scalars or numpy arrays.

The grammar is a whitelisted subset of Python expressions, with ``^`` for
``**``: ``ast.parse`` reads the text and a walk admits only decimal number
literals, ``r``, binary ``+ - * /``, ``^``, unary minus, and positional
calls of exp, ln, sqrt (arity 1) and pow (arity 2).  Precedence, highest
first:

    ^            right-associative, exponent may carry a unary minus
    unary -
    * /
    + -

Whitespace is insignificant, and a tree may nest at most ``MAX_DEPTH``
levels.  Evaluation never returns a non-finite value silently: division
by zero, ln of a non-positive argument and overflow all raise
``EvalDomainError``.

``evaluate`` runs a plan that each tree compiles once, on its first
evaluation: nested closures that apply the numpy operations of the checked
walk ``_eval`` to the same operands, with each constant subtree folded by
that walk.  The plan checks no domain.  It runs with numpy's floating-point
flags raising, and a flag (division by zero, an invalid operation such as
ln or sqrt of a negative value, or an overflow) hands the evaluation to
``_eval``, which names the error, or returns its value when the flag was
spurious.  Operations on an infinity raise no flag, so ``_eval`` also takes
every evaluation of a tree whose folded constants include one (as in
``1e400*exp(-r)``), and each evaluation whose r or result is not finite.
"""

from __future__ import annotations

import ast
import math
import operator
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

_FUNCTIONS = {"exp": 1, "ln": 1, "sqrt": 1, "pow": 2}


class ParseError(ValueError):
    """Syntax problem in a coefficient string; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ArithmeticError):
    """Evaluation left the real domain (ln <= 0, x/0, overflow, 0^negative)."""


# --- expression tree -------------------------------------------------------


class _Node:
    """Base of the tree nodes: the plan that ``evaluate`` runs, compiled on
    first use and cached on the node, outside the dataclass fields (so
    ``==``, ``hash`` and ``repr`` do not see it)."""

    @cached_property
    def _plan(self) -> Optional[Callable]:
        """r -> value by the numpy operations of ``_eval``, with no domain
        checks; None when every evaluation must take ``_eval``."""
        try:
            plan = _compile(self)
            if plan is None:
                value = _constant(self)
                plan = lambda r: value
        except _NeedsCheckedWalk:
            return None
        return plan

    def __getstate__(self):
        # a closure does not pickle; an unpickled tree compiles its own plan
        return {k: v for k, v in self.__dict__.items() if k != "_plan"}


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    pass


@dataclass(frozen=True)
class Neg(_Node):
    operand: "Node"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call(_Node):
    name: str
    args: tuple["Node", ...]


Node = Union[Num, Var, Neg, BinOp, Call]


# --- parser ----------------------------------------------------------------

# Deepest tree that parse_coefficient accepts: evaluate, pretty and the
# power-product matcher in coefficient.py recurse per level, and this keeps
# them far below Python's recursion limit.
MAX_DEPTH = 100

_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}
# a stand-alone integer gains a ".": a Python int may not carry leading
# zeros or more than 4300 digits
_INTEGER = re.compile(r"(?<![\w.])(?<![eE][+-])\d+(?![\w.])")


def _python_source(text: str) -> tuple[str, list[int]]:
    """``text`` as one line of Python, and the offset in ``text`` of each of
    its characters and of its end.  ``^`` becomes ``**``, whitespace a space
    (none before the first token, which Python reads as an indent) and a
    decimal digit an ASCII one; ``**`` and characters outside the grammar,
    such as ``#``, are errors."""
    integer_ends = {m.end() for m in _INTEGER.finditer(text)}
    pieces, origin = [], []
    for i, c in enumerate(text):
        if c.isspace():
            if not origin:
                continue
            c = " "
        elif c.isdecimal():
            c = str(int(c)) + ("." if i + 1 in integer_ends else "")
        elif c == "^":
            c = "**"
        elif not (c.isascii() and (c.isalpha() or c in "_.+-*/(),")) or text[i - 1 : i + 1] == "**":
            raise ParseError(f"unexpected character {c!r}", i)
        pieces.append(c)
        origin += [i] * len(c)
    return "".join(pieces), origin + [len(text)]


def _from_python(node: ast.expr, text: str, origin: list[int], depth: int = 1) -> Node:
    """The tree of a Python expression made only of float literals, ``r``,
    binary ``+ - * / **``, unary minus and calls in ``_FUNCTIONS``."""
    start, end = origin[node.col_offset], origin[node.end_col_offset]
    if depth > MAX_DEPTH:
        raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", start)

    def walk(child: ast.expr) -> Node:
        return _from_python(child, text, origin, depth + 1)

    # 1_000 is a Python float literal but not one of ours
    if isinstance(node, ast.Constant) and isinstance(node.value, float) and "_" not in text[start:end]:
        return Num(node.value)
    if isinstance(node, ast.Name) and node.id == "r":
        return Var()
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return BinOp(_BINARY[type(node.op)], walk(node.left), walk(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return Neg(walk(node.operand))
    # a bare function name with no trailing comma: not (exp)(r), not exp(r,)
    if (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in _FUNCTIONS
        and node.func.col_offset == node.col_offset
    ):
        name, arity = node.func.id, _FUNCTIONS[node.func.id]
        if len(node.args) != arity:
            raise ParseError(f"{name} takes {arity} argument(s), got {len(node.args)}", start)
        if "," not in text[origin[node.args[-1].end_col_offset] : end]:
            return Call(name, tuple(walk(arg) for arg in node.args))
    if isinstance(node, ast.Name) and node.id not in _FUNCTIONS:
        raise ParseError(f"unknown identifier {node.id!r}", start)
    raise ParseError(f"unexpected {text[start:end]!r}", start)


def parse_coefficient(text: str) -> Node:
    """Parse a coefficient string into an expression tree over ``r``."""
    if not text or not text.strip():
        raise ParseError("empty coefficient expression", 0)
    source, origin = _python_source(text)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "1if r else 2" warns of "1i"
            body = ast.parse(source, mode="eval").body
    except SyntaxError as err:
        raise ParseError(err.msg, origin[min(max((err.offset or 1) - 1, 0), len(source))]) from None
    except (MemoryError, RecursionError):  # the parser's own stack, far past MAX_DEPTH
        raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", 0) from None
    return _from_python(body, text, origin)


# --- evaluation -------------------------------------------------------------


def _check_finite(value, where: str):
    if not np.all(np.isfinite(value)):
        raise EvalDomainError(f"non-finite value in {where}")
    return value


def evaluate(tree: Node, r):
    """Evaluate ``tree`` at ``r`` (scalar or ndarray of positive reals).

    Raises ``EvalDomainError`` on any domain violation or overflow; an
    infinity is never returned silently.  Returns a float for a scalar r and
    a new array otherwise.
    """
    r_arr = np.asarray(r, dtype=float)
    try:
        out = _run_plan(tree._plan, r_arr)
    except FloatingPointError:
        out = None
    if out is None:
        with np.errstate(all="ignore"):
            out = _eval(tree, r_arr)
        _check_finite(out, "expression result")
    if r_arr.ndim == 0:
        return float(out)
    if out is r_arr or np.ndim(out) == 0:  # the tree r, or a constant
        out = np.array(np.broadcast_to(out, r_arr.shape))
    return out


@np.errstate(all="raise", under="ignore")
def _run_plan(plan: Optional[Callable], r_arr: np.ndarray):
    """The plan's value at r, or None when ``_eval`` must decide it; a flag
    raises ``FloatingPointError``."""
    if plan is None:
        return None
    out = plan(r_arr)
    # the sum is not finite when r or the result holds a non-finite value,
    # which the plan may have met without a flag (its overflow is a flag)
    return out if np.isfinite(out + r_arr).all() else None


def _eval(node: Node, r):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return r
    if isinstance(node, Neg):
        return -_eval(node.operand, r)
    if isinstance(node, BinOp):
        left = _eval(node.left, r)
        right = _eval(node.right, r)
        if node.op == "+":
            return _check_finite(left + right, "addition")
        if node.op == "-":
            return _check_finite(left - right, "subtraction")
        if node.op == "*":
            return _check_finite(left * right, "multiplication")
        if node.op == "/":
            if np.any(right == 0.0):
                raise EvalDomainError("division by zero")
            return _check_finite(left / right, "division")
        if node.op == "^":
            return _pow(left, right)
        raise AssertionError(f"unknown operator {node.op}")
    if isinstance(node, Call):
        args = [_eval(a, r) for a in node.args]
        if node.name == "exp":
            return _check_finite(np.exp(args[0]), "exp")
        if node.name == "ln":
            if np.any(np.asarray(args[0]) <= 0.0):
                raise EvalDomainError("ln of a non-positive value")
            return _check_finite(np.log(args[0]), "ln")
        if node.name == "sqrt":
            if np.any(np.asarray(args[0]) < 0.0):
                raise EvalDomainError("sqrt of a negative value")
            return _check_finite(np.sqrt(args[0]), "sqrt")
        if node.name == "pow":
            return _pow(args[0], args[1])
        raise AssertionError(f"unknown function {node.name}")
    raise AssertionError(f"unknown node {node!r}")


def _pow(base, exponent):
    base_arr = np.asarray(base, dtype=float)
    exp_arr = np.asarray(exponent, dtype=float)
    if np.any((base_arr == 0.0) & (exp_arr < 0.0)):
        raise EvalDomainError("zero raised to a negative power")
    if np.any((base_arr < 0.0) & (exp_arr != np.round(exp_arr))):
        raise EvalDomainError("negative base with non-integer exponent")
    return _check_finite(np.power(base_arr, exp_arr), "power")


class _NeedsCheckedWalk(Exception):
    """A constant subtree fails or is not finite: no plan can stand in for
    ``_eval``, which meets that constant on every evaluation."""


def _power(base, exponent):
    """``_pow`` without its checks."""
    return np.power(np.asarray(base, dtype=float), np.asarray(exponent, dtype=float))


_PLAN_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": _power}
_PLAN_FUNCTIONS = {"exp": np.exp, "ln": np.log, "sqrt": np.sqrt, "pow": _power}


def _constant(node: Node):
    """The value of a subtree without r, folded by ``_eval``."""
    try:
        with np.errstate(all="ignore"):
            value = _eval(node, None)
    except EvalDomainError:
        raise _NeedsCheckedWalk from None
    if not math.isfinite(value):  # a bare or negated non-finite literal
        raise _NeedsCheckedWalk
    return value


def _compile(node: Node) -> Optional[Callable]:
    """Closure r -> value of ``node`` applying the numpy operations of
    ``_eval`` to the same operands, or None when ``node`` holds no r."""
    if isinstance(node, Num):
        return None
    if isinstance(node, Var):
        return _identity
    if isinstance(node, Neg):
        children, op = (node.operand,), operator.neg
    elif isinstance(node, BinOp):
        children, op = (node.left, node.right), _PLAN_OPERATORS[node.op]
    else:
        children, op = node.args, _PLAN_FUNCTIONS[node.name]
    plans = [_compile(child) for child in children]
    if not any(plans):
        return None
    # a constant operand enters as its folded value, a Python or numpy float
    operands = [plan or _constant(child) for plan, child in zip(plans, children)]
    if len(operands) == 1:
        (f,) = operands
        return lambda r: op(f(r))
    f, g = operands
    if plans[0] and plans[1]:
        return lambda r: op(f(r), g(r))
    if plans[0]:
        return lambda r: op(f(r), g)
    return lambda r: op(f, g(r))


def _identity(r):
    return r


# --- pretty printing --------------------------------------------------------


def pretty(node: Node) -> str:
    """Fully parenthesized rendering; re-parsing reproduces the evaluation."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "r"
    if isinstance(node, Neg):
        return f"(-{pretty(node.operand)})"
    if isinstance(node, BinOp):
        return f"({pretty(node.left)} {node.op} {pretty(node.right)})"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(pretty(a) for a in node.args)})"
    raise AssertionError(f"unknown node {node!r}")
