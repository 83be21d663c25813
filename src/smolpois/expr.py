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
levels.

Every walk over a tree is a ``fold``, the only code that tells node kinds
apart.  ``OPERATIONS`` maps each operation name to its checked numpy
operation and the same operation unchecked.  The checked walk ``_eval``
folds with the checked ones and never returns a non-finite value silently:
division by zero, ln of a non-positive argument and overflow all raise
``EvalDomainError``, and ``coefficient`` folds to the factors of a power
product.

``evaluate`` runs a plan that each tree folds once, on its first
evaluation: nested closures that apply the unchecked operations to the
operands of ``_eval``, with each operation on constants applied at once,
checked.  The plan checks no domain.  It runs with numpy's floating-point
flags raising, and a flag (division by zero, an invalid operation such as
ln or sqrt of a negative value, or an overflow) hands the evaluation to
``_eval``, which names the error, or returns its value when the flag was
spurious.  Operations on an infinity raise no flag, so a tree with a
constant beside r that fails or is not finite (as in ``1e400*exp(-r)``)
has no plan, and ``_eval`` also takes each evaluation whose r or result is
not finite.
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
        """r -> value by the unchecked operations, applied to the operands
        of ``_eval``; None when every evaluation must take ``_eval``."""
        try:
            with np.errstate(all="ignore"):
                plan = _plan_operand(fold(self, _identity, _identity, _plan_step))
        except EvalDomainError:
            return None
        return plan if callable(plan) else lambda r: plan


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

# Deepest tree that parse_coefficient accepts: fold recurses per level in
# every walk, and a plan nests one closure per level; this keeps both far
# below Python's recursion limit.
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


# --- folds ------------------------------------------------------------------


def fold(node: Node, var, num: Callable, apply: Callable):
    """Fold ``node`` bottom-up, the only walk over a tree: ``var`` is the
    value of r, ``num(value)`` that of a literal and ``apply(name, values)``
    that of every other node, where ``name`` is "neg", the operator or the
    function name and ``values`` are the folds of its operands, in order."""
    if isinstance(node, Num):
        return num(node.value)
    if isinstance(node, Var):
        return var
    if isinstance(node, Neg):
        name, operands = "neg", (node.operand,)
    elif isinstance(node, BinOp):
        name, operands = node.op, (node.left, node.right)
    else:
        name, operands = node.name, node.args
    return apply(name, [fold(operand, var, num, apply) for operand in operands])


def _identity(value):
    return value


# --- evaluation -------------------------------------------------------------


def _check_finite(value, where: str):
    if not np.all(np.isfinite(value)):
        raise EvalDomainError(f"non-finite value in {where}")
    return value


def _checked_op(op: Callable, where: str, outside: Optional[Callable] = None, message: str = "") -> Callable:
    """``op``, raising ``EvalDomainError(message)`` where ``outside`` holds
    at some point of its operands, and on a value that is not finite."""

    def checked(*values):
        if outside is not None and np.any(outside(*values)):
            raise EvalDomainError(message)
        return _check_finite(op(*values), where)

    return checked


def _pow(base, exponent):
    base_arr = np.asarray(base, dtype=float)
    exp_arr = np.asarray(exponent, dtype=float)
    if np.any((base_arr == 0.0) & (exp_arr < 0.0)):
        raise EvalDomainError("zero raised to a negative power")
    if np.any((base_arr < 0.0) & (exp_arr != np.round(exp_arr))):
        raise EvalDomainError("negative base with non-integer exponent")
    return _check_finite(np.power(base_arr, exp_arr), "power")


# name -> (checked operation, the same operation unchecked).  The checked one
# raises EvalDomainError where the value leaves the reals or is not finite.
OPERATIONS = {
    "neg": (operator.neg, operator.neg),
    "+": (_checked_op(operator.add, "addition"), operator.add),
    "-": (_checked_op(operator.sub, "subtraction"), operator.sub),
    "*": (_checked_op(operator.mul, "multiplication"), operator.mul),
    "/": (_checked_op(operator.truediv, "division", lambda x, y: y == 0.0, "division by zero"), operator.truediv),
    "^": (_pow, np.power),
    "exp": (_checked_op(np.exp, "exp"), np.exp),
    "ln": (_checked_op(np.log, "ln", lambda x: np.asarray(x) <= 0.0, "ln of a non-positive value"), np.log),
    "sqrt": (_checked_op(np.sqrt, "sqrt", lambda x: np.asarray(x) < 0.0, "sqrt of a negative value"), np.sqrt),
    "pow": (_pow, np.power),
}


def _checked(name: str, values: list):
    return OPERATIONS[name][0](*values)


def _eval(node: Node, r):
    """The checked walk: ``node`` at r by the checked operations."""
    return fold(node, r, _identity, _checked)


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


def _plan_operand(value):
    """A closure, or a constant that is finite and so may stand beside r or
    for the whole tree; ``_eval`` meets any other constant on every
    evaluation, so it raises ``EvalDomainError``."""
    if callable(value) or math.isfinite(value):
        return value
    raise EvalDomainError("a constant that is not finite")


def _plan_step(name: str, values: list):
    """One step of the plan fold: an operation on constants is applied now,
    checked; one on a closure becomes a closure that applies it unchecked."""
    checked, op = OPERATIONS[name]
    plans = [callable(value) for value in values]
    if not any(plans):
        return checked(*values)
    if len(values) == 1:
        (f,) = values
        return lambda r: op(f(r))
    f, g = map(_plan_operand, values)
    if plans[0] and plans[1]:
        return lambda r: op(f(r), g(r))
    if plans[0]:
        return lambda r: op(f(r), g)
    return lambda r: op(f, g(r))
