import ast
import configparser
import inspect
import math
import random
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from smolpois import expr
from smolpois.coefficient import CoefficientError, coefficient_from_text
from smolpois.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    EvalDomainError,
    Neg,
    Node,
    Num,
    ParseError,
    Var,
    _check_finite,
    _eval,
    evaluate,
    parse_coefficient,
)
from smolpois.harness import _PRESETS, preset_config

ROOT = Path(__file__).resolve().parents[1]


class TestGolden:
    def test_negative_exponent(self):
        tree = parse_coefficient("(1+r)^-2")
        assert evaluate(tree, 1.0) == pytest.approx(0.25, abs=0)

    def test_reciprocal(self):
        tree = parse_coefficient("1/(1+r)")
        assert evaluate(tree, 1.0) == 0.5

    def test_power_right_associative(self):
        assert evaluate(parse_coefficient("2^3^2"), 1.0) == 512.0

    def test_mixed_product(self):
        tree = parse_coefficient("(1+r)/r^2.5")
        assert evaluate(tree, 1.0) == 2.0
        assert evaluate(tree, 4.0) == pytest.approx(5.0 / 32.0, rel=1e-15)

    def test_ln_at_one(self):
        assert evaluate(parse_coefficient("ln(r)"), 1.0) == 0.0

    def test_functions(self):
        assert evaluate(parse_coefficient("exp(r)"), 2.0) == pytest.approx(math.e**2, rel=1e-15)
        assert evaluate(parse_coefficient("sqrt(r)"), 9.0) == 3.0
        assert evaluate(parse_coefficient("pow(r, 3)"), 2.0) == 8.0

    def test_unary_minus_binds_below_power(self):
        # -2^2 is -(2^2), and exponents may be signed
        assert evaluate(parse_coefficient("1 + -2^2 + 5"), 1.0) == 2.0
        assert evaluate(parse_coefficient("2^-1"), 1.0) == 0.5

    def test_scientific_literals(self):
        assert evaluate(parse_coefficient("1e-3 + r"), 1.0) == pytest.approx(1.001)

    def test_whitespace_insignificant(self):
        a = parse_coefficient("( 1 + r ) ^ -2")
        b = parse_coefficient("(1+r)^-2")
        for r in (0.1, 1.0, 7.3):
            assert evaluate(a, r) == evaluate(b, r)


class TestPrecedenceProperties:
    def test_product_binds_tighter_than_sum(self):
        rng = np.random.default_rng(11)
        tree = parse_coefficient("2.5 + 3.25 * r")
        for r in rng.uniform(0.01, 100.0, 50):
            assert evaluate(tree, float(r)) == 2.5 + 3.25 * r

    def test_composed_precedence(self):
        rng = np.random.default_rng(12)
        tree = parse_coefficient("1 + 2*r^2 - r/4")
        for r in rng.uniform(0.01, 50.0, 50):
            assert evaluate(tree, float(r)) == pytest.approx(1 + 2 * r**2 - r / 4, rel=1e-15)


class TestErrors:
    def test_empty(self):
        with pytest.raises(ParseError):
            parse_coefficient("   ")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_coefficient("1 + * r")
        assert err.value.position == 4

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_coefficient("1 + x")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="argument"):
            parse_coefficient("pow(r)")
        with pytest.raises(ParseError, match="argument"):
            parse_coefficient("exp(r, 2)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_coefficient("1 + r )")

    def test_division_by_zero(self):
        tree = parse_coefficient("1/(r-2)")
        with pytest.raises(EvalDomainError):
            evaluate(tree, 2.0)

    def test_ln_domain(self):
        tree = parse_coefficient("ln(r - 5)")
        with pytest.raises(EvalDomainError):
            evaluate(tree, 1.0)

    def test_overflow_is_an_error(self):
        tree = parse_coefficient("exp(r)")
        with pytest.raises(EvalDomainError):
            evaluate(tree, 1e6)

    def test_zero_to_negative_power(self):
        tree = parse_coefficient("(r-1)^-2")
        with pytest.raises(EvalDomainError):
            evaluate(tree, 1.0)


class TestArrayEvaluation:
    def test_matches_scalar(self):
        tree = parse_coefficient("(1+r)^-2 + sqrt(r)")
        rs = np.geomspace(1e-3, 1e3, 64)
        vec = evaluate(tree, rs)
        for r, v in zip(rs, vec):
            assert v == evaluate(tree, float(r))


# --- the hand-written tokenizer and parser that ast.parse replaced -----------
#
# Kept as the reference: parse_coefficient must give an == tree wherever
# this accepts a string, and a ParseError wherever it rejects one.

FUNCTIONS = {"exp": 1, "ln": 1, "sqrt": 1, "pow": 2}
_OPERATOR_CHARS = set("+-*/^(),")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, position) triples; kinds: num, ident, op."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATOR_CHARS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            # optional exponent part: 1e-3, 2.5E+4
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise ParseError(f"malformed number {lit!r}", i) from None
            tokens.append(("num", lit, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, position = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text or 'end of input'!r}", position)
        return self.advance()

    def parse(self) -> Node:
        node = self.expression()
        kind, text, position = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {text!r}", position)
        return node

    def expression(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # right-associative, and the exponent may be signed: r^-2, 2^3^2
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        kind, text, position = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text == "r":
                return Var()
            if text in FUNCTIONS:
                self.expect_op("(")
                args = [self.expression()]
                while self.peek()[:2] == ("op", ","):
                    self.advance()
                    args.append(self.expression())
                self.expect_op(")")
                if len(args) != FUNCTIONS[text]:
                    raise ParseError(
                        f"{text} takes {FUNCTIONS[text]} argument(s), got {len(args)}",
                        position,
                    )
                return Call(text, tuple(args))
            raise ParseError(f"unknown identifier {text!r}", position)
        if kind == "op" and text == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {text or 'end of input'!r}", position)


def reference_parse(text: str) -> Node:
    """Parse a coefficient string into an expression tree over ``r``."""
    if not text or not text.strip():
        raise ParseError("empty coefficient expression", 0)
    return _Parser(text).parse()


def reference_outcome(text: str):
    """("tree", tree), ("error", None), or None where the reference
    parser itself overflows the stack (deep nesting)."""
    try:
        return "tree", reference_parse(text)
    except ParseError:
        return "error", None
    except RecursionError:
        return None


def outcome(text: str):
    try:
        return "tree", parse_coefficient(text)
    except ParseError:
        return "error", None


CERTIFY = ("(1+r)^-2", "(1+r)*r^-2.5", "(1+r)^-1", "(2+r)^-2", "exp(-r)", "1/(2+r)", "1/(1+r^2)", "(1+r)^-3")
# valid spellings that a parser on Python's grammar could get wrong, all in
# tools/golden/coefficients.txt
SPELLINGS = (
    "( 1 + r ) ^ -2",
    " (1+r)^-2",
    "\t1+r",
    "2^3^2",
    "r^-2^2",
    "1 + -2^2 + 5",
    "2*-r",
    ".5*r",
    "1.*r",
    "007*r",
    "1e400",
)
# two more coefficients of tools/golden/coefficients.txt
TAILS = ("(1+r)^-1.5", "r^-3*(1+r)^-1")
# more such spellings; a line break cannot go into that file
MORE_SPELLINGS = (
    "(1+\nr)^-2",
    "\u0663*r",  # ARABIC-INDIC DIGIT THREE is a decimal digit to float()
    "exp (r)",
    "1e+05*r",
    "r^ - 2",
)
REJECTED = (
    "r**2",
    "0x10",
    "1_000",
    "1j",
    "+r",
    "r(2)",
    "r.x",
    "r[1]",
    "1//2",
    "r%2",
    "pow(r, e=2)",
    "exp(*r)",
    "r if r else 1",
    "1if r else 2",
    "(1, 2)",
    "r # c",
    "exp",
    "2 r",
    "1.2.3",
    "2e",
    "(1+r",
    "exp(r,)",
    "pow(r, 2,)",
    "(exp)(r)",
    "exp()",
    "1 + r )",
    "r^^2",
    "r*^2",
    "not r",
    "r < 2",
    "True",
    "...",
    "lambda: r",
    "\u00b2",
    "\uff52",  # FULLWIDTH LATIN SMALL LETTER R, which Python reads as r
    "r\x00",
)


def golden_coefficients() -> list[str]:
    lines = (ROOT / "tools" / "golden" / "coefficients.txt").read_text(encoding="utf-8").split("\n")
    return [line for line in lines if line and not line.startswith("#")]


def repo_strings() -> set[str]:
    """Every string that could be a coefficient in the presets, the golden
    configs and coefficient list, the README and the test files."""
    texts = {preset_config(name).coefficient_text for name in _PRESETS}
    for path in sorted((ROOT / "tools" / "golden").glob("*.ini")):
        ini = configparser.ConfigParser()
        ini.read(path)
        texts.add(ini["coefficient"]["expr"])
    texts.update(golden_coefficients())
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    texts.update(m.group(2) for m in re.finditer(r"([\"'`])([^\"'`\n]+)\1", readme))
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts.add(node.value)
    return texts


class TestReferenceParity:
    @pytest.mark.parametrize("text", CERTIFY + TAILS + SPELLINGS + MORE_SPELLINGS)
    def test_tree_equals_reference(self, text):
        assert outcome(text) == ("tree", reference_parse(text))

    def test_golden_coefficients_cover_certify_and_spellings(self):
        assert set(CERTIFY + TAILS + SPELLINGS) <= set(golden_coefficients())

    def test_every_repo_string(self):
        texts = repo_strings()
        trees = 0
        for text in texts:
            expected = reference_outcome(text)
            if expected is not None:
                assert outcome(text) == expected, text
                trees += expected[0] == "tree"
        # the presets, README and test coefficients are real parses
        assert trees >= 60

    @pytest.mark.parametrize("text", REJECTED)
    def test_rejected_as_reference(self, text):
        assert reference_outcome(text) == ("error", None)
        with pytest.raises(ParseError):
            parse_coefficient(text)

    def test_long_digit_string_is_infinite(self):
        text = "1" * 5000
        assert parse_coefficient(text) == reference_parse(text) == Num(math.inf)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_spellings(self, seed):
        # grammatical strings, half of them with one character inserted,
        # replaced or deleted
        rng = random.Random(seed)
        numbers = ("1", "2", "0.5", ".5", "3.", "1e3", "2E-1", "007", "0", "12", "1.5e+2")
        noise = list("r1.e+-*/^(), _x\n0j#") + ["**", ""]

        def grammatical(depth):
            pick = rng.random()
            if depth > 4 or pick < 0.3:
                return rng.choice(("r",) + numbers)
            if pick < 0.6:
                space = rng.choice(("", " ", "\t", "\n"))
                return grammatical(depth + 1) + space + rng.choice("+-*/^") + grammatical(depth + 1)
            if pick < 0.7:
                return "-" + grammatical(depth + 1)
            if pick < 0.85:
                return "(" + grammatical(depth + 1) + ")"
            name = rng.choice(sorted(FUNCTIONS))
            return name + "(" + ", ".join(grammatical(depth + 1) for _ in range(FUNCTIONS[name])) + ")"

        trees = 0
        for _ in range(1500):
            text = rng.choice(("", " ")) + grammatical(0)
            if rng.random() < 0.5:
                i = rng.randrange(len(text) + 1)
                text = text[:i] + rng.choice(noise) + text[i + rng.randint(0, 1) :]
            expected = reference_outcome(text)
            if expected is not None:
                assert outcome(text) == expected, text
                trees += expected[0] == "tree"
        assert trees > 500


class TestPositions:
    @pytest.mark.parametrize(
        "text, position",
        [
            ("r^2 + x", 6),  # after "^" became "**" and "2" became "2."
            ("  r + x", 6),  # leading whitespace
            ("(1+\nr) + x", 9),
            ("007 + x", 6),
            ("r^3^2 + pow(r)", 8),
            ("r**2", 2),
            ("r # c", 2),
            ("1 + r )", 6),
        ],
    )
    def test_position_in_user_text(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_coefficient(text)
        assert err.value.position == position


class TestNesting:
    @pytest.mark.parametrize(
        "text",
        ["-" * 2000 + "r", "2^" * 600 + "r", "(" * 300 + "1+r" + ")" * 300 + "^-2", "-" * 50000 + "r"],
        ids=["minus-2000", "power-600", "parentheses-300", "minus-50000"],
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_coefficient(text)
        with pytest.raises(ParseError):
            coefficient_from_text(text)

    # the deepest tree of each shape that the limit lets through
    DEEPEST = {
        "negation": "-" * (MAX_DEPTH - 1) + "r",
        "power": "1^" * (MAX_DEPTH - 1) + "r",
        "sum": "+".join(["r"] * MAX_DEPTH),
        "sqrt": "sqrt(" * (MAX_DEPTH - 1) + "r" + ")" * (MAX_DEPTH - 1),
        "pow": "pow(" * (MAX_DEPTH - 1) + "r" + ", 1)" * (MAX_DEPTH - 1),
    }

    @pytest.mark.parametrize("shape", sorted(DEEPEST))
    def test_limit_is_exact(self, shape):
        text = self.DEEPEST[shape]
        parse_coefficient(text)
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
            parse_coefficient("-(" + text + ")")

    @pytest.mark.parametrize("shape", sorted(DEEPEST))
    def test_deepest_tree_fits_the_stack(self, shape):
        # every recursive walker needs at most a few frames per level, so a
        # tree that passes the limit leaves most of the default stack free
        text = self.DEEPEST[shape]
        tree = parse_coefficient(text)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 5 * MAX_DEPTH)
        try:
            assert parse_coefficient(text) == tree
            assert abs(evaluate(tree, 2.0)) >= 1.0
            repr(tree)
            try:
                coefficient_from_text(text)
            except CoefficientError:
                pass  # the odd negation chain is negative
        finally:
            sys.setrecursionlimit(limit)
        assert 5 * MAX_DEPTH <= limit // 2


# --- the compiled plan against the checked walk ----------------------------
#
# evaluate runs a plan with floating-point flags raising and hands flagged
# evaluations to the checked walk _eval.  checked_evaluate is evaluate with
# the walk alone, as it was before plans: every value must be bit-equal to
# its value and every error its error.


def checked_evaluate(tree: Node, r):
    r_arr = np.asarray(r, dtype=float)
    with np.errstate(all="ignore"):
        out = _eval(tree, r_arr)
    out = np.broadcast_to(np.asarray(out, dtype=float), r_arr.shape)
    _check_finite(out, "expression result")
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return np.array(out, dtype=float)


def result(evaluator, tree: Node, r):
    """The type, shape and bytes of the value, or the type and message of
    the error."""
    try:
        value = evaluator(tree, r)
    except Exception as err:
        return "error", type(err).__name__, str(err)
    return "value", type(value).__name__, np.shape(value), np.asarray(value).tobytes()


# r from 1e-300 to 1e300, and points where the error cases below bite
R_POINTS = np.concatenate((np.geomspace(1e-300, 1e300, 121), [0.5, 1.0, 2.0, 3.0, 700.0, 1000.0, 1e154, 1e308]))
# the whole range as one array, as 15-point panels (a Kronrod panel's
# size), as a 2-D array and as a 0-d array
R_ARRAYS = [R_POINTS, R_POINTS[:120].reshape(8, 15), np.asarray(2.0)] + [
    R_POINTS[i : i + 15] for i in range(0, R_POINTS.size, 15)
]


def assert_parity(tree: Node, points=R_POINTS) -> Counter:
    """Compare evaluate with checked_evaluate at every scalar point and on
    every array; count the outcomes."""
    outcomes = Counter()
    for r in [float(x) for x in points] + R_ARRAYS:
        got = result(evaluate, tree, r)
        assert got == result(checked_evaluate, tree, r), (tree, r)
        outcomes[got[0] if got[0] == "value" else got[2]] += 1
    return outcomes


class TestPlanParity:
    def test_repo_coefficients(self):
        # every coefficient of the presets, golden files, README and tests
        trees = []
        for text in sorted(repo_strings()):
            try:
                trees.append(parse_coefficient(text))
            except ParseError:
                pass
        assert len(trees) >= 60
        for tree in trees:
            assert_parity(tree)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_trees(self, seed):
        rng = random.Random(seed)
        leaves = (0.0, 0.5, 1.0, 2.0, 3.0, 7.25, 1e-300, 1e300, math.inf)

        def tree(depth):
            pick = rng.random()
            if depth >= 5 or pick < 0.25:
                return Var() if rng.random() < 0.5 else Num(rng.choice(leaves))
            if pick < 0.65:
                return BinOp(rng.choice("+-*/^"), tree(depth + 1), tree(depth + 1))
            if pick < 0.75:
                return Neg(tree(depth + 1))
            name = rng.choice(sorted(FUNCTIONS))
            return Call(name, tuple(tree(depth + 1) for _ in range(FUNCTIONS[name])))

        outcomes = Counter()
        planned = 0
        for _ in range(150):
            t = tree(0)
            outcomes += assert_parity(t, R_POINTS[::4])
            planned += t._plan is not None
        # both paths and every kind of domain error are exercised
        assert outcomes["value"] > 1000 and planned > 100
        for message in ("division by zero", "ln of a non-positive value", "sqrt of a negative value",
                        "non-finite value in exp", "non-finite value in power"):
            assert outcomes[message] > 0, message

    @pytest.mark.parametrize(
        "text, r, message",
        [
            ("1/(r-1)", 1.0, "division by zero"),
            ("1/(1/(r-r))", 2.0, "division by zero"),
            ("ln(r-1)", 0.5, "ln of a non-positive value"),
            ("ln(r-1)", 1.0, "ln of a non-positive value"),
            ("sqrt(r-1)", 0.5, "sqrt of a negative value"),
            ("(r-1)^-2", 1.0, "zero raised to a negative power"),
            ("pow(r-1, -0.5)", 1.0, "zero raised to a negative power"),
            ("(r-2)^0.5", 1.0, "negative base with non-integer exponent"),
            ("pow(r-2, 1.5)", 1.0, "negative base with non-integer exponent"),
            # overflow in each operation, in the result and in an
            # intermediate value only
            ("r+r", 1e308, "non-finite value in addition"),
            ("1/(r+r)", 1e308, "non-finite value in addition"),
            ("-r-r", 1e308, "non-finite value in subtraction"),
            ("1/(-r-r)", 1e308, "non-finite value in subtraction"),
            ("r*r", 1e200, "non-finite value in multiplication"),
            ("1/(r*r)", 1e200, "non-finite value in multiplication"),
            ("r/0.5", 1e308, "non-finite value in division"),
            ("1/(r/0.5)", 1e308, "non-finite value in division"),
            ("r^2", 1e200, "non-finite value in power"),
            ("1/r^2", 1e200, "non-finite value in power"),
            ("pow(r, 3)", 1e200, "non-finite value in power"),
            ("1/pow(r, 3)", 1e200, "non-finite value in power"),
            ("exp(r)", 1000.0, "non-finite value in exp"),
            ("1/exp(r)", 1000.0, "non-finite value in exp"),
            # non-finite literals, which operations pass on without a flag
            ("1e400*exp(-r)", 1.0, "non-finite value in multiplication"),
            ("exp(-1e400*r)", 1.0, "non-finite value in multiplication"),
            ("1/(1e400*r)", 1.0, "non-finite value in multiplication"),
            ("exp(1e400)*r", 1.0, "non-finite value in exp"),
            # a non-finite r
            ("exp(-(r+1))", math.inf, "non-finite value in addition"),
            ("exp(-(r+1))", math.nan, "non-finite value in addition"),
        ],
    )
    def test_domain_errors(self, text, r, message):
        tree = parse_coefficient(text)
        expected = ("error", "EvalDomainError", message)
        for r_in in (r, np.array([2.0, r, 3.0])):
            assert result(evaluate, tree, r_in) == result(checked_evaluate, tree, r_in) == expected

    def test_plan_runs_without_the_checked_walk(self, monkeypatch):
        tree = parse_coefficient("1/(1+r^2) + sqrt(r)*exp(-r) - ln(r)/pow(2+r, 3) + (-r)^2")
        rs = np.geomspace(1e-3, 1e3, 15)
        expected = [result(checked_evaluate, tree, r) for r in (rs, 2.0)]
        evaluate(tree, 1.0)  # compiles the plan

        def walk(*args):
            raise AssertionError("the checked walk ran")

        monkeypatch.setattr(expr, "_eval", walk)
        assert [result(evaluate, tree, r) for r in (rs, 2.0)] == expected

    @pytest.mark.parametrize("text", ["r", "2.5", "r+1", "exp(-1e400)*r"])
    def test_float_or_fresh_array(self, text):
        tree = parse_coefficient(text)
        r = np.array([1.0, 2.0])
        out = evaluate(tree, r)
        assert type(out) is np.ndarray and out.dtype == float and out.shape == r.shape
        assert not np.shares_memory(out, r)
        for scalar in (2.0, np.float64(2.0), np.asarray(2.0), 2):
            assert type(evaluate(tree, scalar)) is float

    def test_plan_leaves_equality_hash_and_repr(self):
        text = "1/(1+r^2)"
        tree = parse_coefficient(text)
        before = repr(tree), hash(tree)
        evaluate(tree, 2.0)
        assert "_plan" in vars(tree)
        assert (repr(tree), hash(tree)) == before and tree == parse_coefficient(text)


# --- one fold for every walk --------------------------------------------------

NODE_CLASSES = {"Node", "_Node", "Num", "Var", "Neg", "BinOp", "Call"}


def node_type_tests(source: str) -> list[tuple[str, str]]:
    """(enclosing function, class) of each ``isinstance`` test in a module
    against a tree node class of ``expr``, by bare name or as ``expr.X``;
    the classes of the ``ast`` module do not count."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            for kind in kinds:
                if isinstance(kind, ast.Attribute) and getattr(kind.value, "id", None) != "ast":
                    name = kind.attr
                else:
                    name = getattr(kind, "id", None)
                if name in NODE_CLASSES:
                    found.append((where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


class TestOneFold:
    def test_only_fold_tests_node_types(self):
        found = {
            (path.name, where, name)
            for path in sorted((ROOT / "src" / "smolpois").glob("*.py"))
            for where, name in node_type_tests(path.read_text(encoding="utf-8"))
        }
        assert found == {("expr.py", "fold", name) for name in ("Num", "Var", "Neg", "BinOp")}

    def test_guard_sees_every_spelling(self):
        source = (
            "def walk(node):\n"
            "    isinstance(node, expr.Var)\n"
            "    isinstance(node, (ast.Call, Call))\n"
            "    isinstance(node, ast.Num)\n"
            "    isinstance(node, int)\n"
        )
        assert node_type_tests(source) == [("walk", "Var"), ("walk", "Call")]
