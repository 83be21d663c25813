import math
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import exp1

from smolpois.coefficient import (
    CoefficientError,
    ExpressionCoefficient,
    Potentials,
    PowerProductCoefficient,
    PsiRangeError,
    TailDivergenceError,
    coefficient_from_text,
)
from smolpois import coefficient, expr
from smolpois.quadrature import QuadratureError, dyadic_decay_probe, integrate, integrate_tail
from smolpois.transform import pam_profile

GOLDEN_COEFFICIENTS = Path(__file__).resolve().parents[1] / "tools" / "golden" / "coefficients.txt"


def _parses(text):
    try:
        coefficient_from_text(text)
    except (CoefficientError, expr.ParseError):
        return False
    return True


# the coefficient lines of the golden list that give a coefficient
PARSED_GOLDEN = [
    line
    for line in GOLDEN_COEFFICIENTS.read_text(encoding="utf-8").split("\n")
    if line and not line.startswith("#") and _parses(line)
]


@pytest.fixture(scope="module")
def pot_decr():
    return Potentials(coefficient_from_text("(1+r)*r^-2.5"))


# power products with a constant factor or an exponent that is not finite,
# and the part the error names
NONFINITE = {
    "1e400": "a constant factor",
    "1e400*(1+r)^-2": "a constant factor",
    "r*1e400/(1+r)^2": "a constant factor",
    "1e400*0*r": "a constant factor",
    # a positive base whose power overflows a float
    "(1e200*r)^2": "a constant factor",
    "pow(1e200*r, 2)": "a constant factor",
    "r^1e400": "an exponent",
    "(1+r)^1e400": "an exponent",
}


class TestRecognition:
    def test_one_plus_r_family(self):
        c = coefficient_from_text("(1+r)^-2")
        assert isinstance(c, PowerProductCoefficient)
        assert (c.c, c.p, c.beta) == (1.0, 0.0, -2.0)

    def test_reciprocal_form(self):
        c = coefficient_from_text("1/(1+r)")
        assert isinstance(c, PowerProductCoefficient)
        assert (c.c, c.p, c.beta) == (1.0, 0.0, -1.0)

    def test_product_form(self):
        for text in ("(1+r)*r^-2.5", "(1+r)/r^2.5"):
            c = coefficient_from_text(text)
            assert isinstance(c, PowerProductCoefficient)
            assert (c.c, c.p, c.beta) == (1.0, -2.5, 1.0)

    def test_constant(self):
        c = coefficient_from_text("1")
        assert isinstance(c, PowerProductCoefficient)
        assert (c.c, c.p, c.beta) == (1.0, 0.0, 0.0)

    def test_scaled(self):
        c = coefficient_from_text("3*(1+r)^-2/r")
        assert isinstance(c, PowerProductCoefficient)
        assert (c.c, c.p, c.beta) == (3.0, -1.0, -2.0)

    def test_unrecognized_falls_back(self):
        c = coefficient_from_text("(1+r)/(2+r)")
        assert isinstance(c, ExpressionCoefficient)

    @pytest.mark.parametrize(
        "text, factors",
        [
            ("(1+r)^-2", (1.0, 0.0, -2.0, 1.0)),
            ("(2+r)^-2", (1.0, 0.0, -2.0, 2.0)),
            ("1/(2+r)", (1.0, 0.0, -1.0, 2.0)),
            ("r+1.5", (1.0, 0.0, 1.0, 1.5)),
            ("(0.5+r)^-3", (1.0, 0.0, -3.0, 0.5)),
            ("r^0.5*(3+r)^-2", (1.0, 0.5, -2.0, 3.0)),
            ("(2+r)^3", (1.0, 0.0, 3.0, 2.0)),
            ("3*(r+2)/r/(2+r)^2", (3.0, -1.0, -1.0, 2.0)),
        ],
    )
    def test_shifted_form(self, text, factors):
        c = coefficient_from_text(text)
        assert type(c) is PowerProductCoefficient
        assert (c.c, c.p, c.beta, c.b) == factors

    @pytest.mark.parametrize(
        "text",
        [
            "-(2+r)",              # c b^beta not positive
            "1e400*(2+r)^-2",      # c b^beta not finite
            "(2+r)^1e400",         # b^beta not finite
            "1e308*(0.9+r)^3",     # a power-sum term overflows
        ],
    )
    def test_shifted_products_that_do_not_evaluate_stay_expressions(self, text):
        tree = expr.parse_coefficient(text)
        with pytest.raises(CoefficientError) as promoted:
            coefficient_from_text(text)
        with pytest.raises(CoefficientError) as expression:
            ExpressionCoefficient(tree, text)
        assert str(promoted.value) == str(expression.value)

    def test_nonpositive_rejected(self):
        with pytest.raises(CoefficientError):
            coefficient_from_text("r - 2")

    @pytest.mark.parametrize("text", list(NONFINITE))
    def test_nonfinite_constant_rejected(self, text):
        with pytest.raises(CoefficientError) as err:
            coefficient_from_text(text)
        assert str(err.value) == f"coefficient {text!r} has {NONFINITE[text]} that is not finite"


def _random_product(rng, b="1", depth=0) -> tuple[str, bool]:
    """A random tree of r, b+r, r+b and positive constants under *, /,
    ^const, sqrt, pow and unary minus, as text; and whether it holds a
    unary minus."""
    pick = rng.random()
    if depth >= 4 or pick < 0.3:
        return rng.choice(["r", f"({b}+r)", f"(r+{b})", "0.5", "1", "2", "3", "7.25"]), False
    left, negated = _random_product(rng, b, depth + 1)
    exponent = rng.choice(["-2.5", "-1", "0.5", "2", "3"])
    if pick < 0.65:
        right, also = _random_product(rng, b, depth + 1)
        return f"({left}){rng.choice('*/')}({right})", negated or also
    if pick < 0.75:
        return f"({left})^({exponent})", negated
    if pick < 0.85:
        return f"sqrt({left})", negated
    if pick < 0.93:
        return f"pow({left}, {exponent})", negated
    return f"-({left})", True


class TestRecognitionProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_promoted_trees_equal_their_power_product(self, seed):
        # one shift b per tree: 1, and shifts on either side of it
        for b in ("1", "0.5", "2", "3"):
            rng = random.Random(seed)
            promoted = 0
            for _ in range(300):
                text, negated = _random_product(rng, b)
                try:
                    c = coefficient_from_text(text)
                except CoefficientError:
                    assert negated, text
                    continue
                # without a unary minus every such tree is a power product
                assert negated or isinstance(c, PowerProductCoefficient), text
                if not isinstance(c, PowerProductCoefficient):
                    continue
                promoted += 1
                assert c.b == (float(b) if f"{b}+r" in text or f"r+{b}" in text else 1.0), text
                tree = expr.parse_coefficient(text)
                for r in (0.3, 1.0, 2.5):
                    expected = c.c * r**c.p * (c.b + r) ** c.beta
                    assert expr.evaluate(tree, r) == pytest.approx(expected, rel=1e-12, abs=0.0), (text, r)
                    assert c(r) == pytest.approx(expected, rel=1e-12, abs=0.0), (text, r)
            assert promoted > 200, b

    # r + 0 has no shift b > 0, r^1 is not r, a factor 2 on r is not b + r,
    # and a product of two shifts is no power product
    @pytest.mark.parametrize(
        "text", ["r+0", "2+r^1", "2+2*r", "(1+r)*(2+r)", "1+r^1", "exp(-r)", "(1+r)-0"]
    )
    def test_near_misses_stay_expressions(self, text):
        assert type(coefficient_from_text(text)) is ExpressionCoefficient


class TestEval:
    def test_values(self):
        assert coefficient_from_text("(1+r)^-1").eval_a(1.0) == 0.5
        assert coefficient_from_text("(1+r)^-2").eval_a(3.0) == 0.0625
        assert coefficient_from_text("(1+r)*r^-2.5").eval_a(4.0) == pytest.approx(5.0 / 32.0, rel=1e-15)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(CoefficientError):
            coefficient_from_text("(1+r)^-1").eval_a(0.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize(
        "text, lo, hi",
        [
            ("exp(-r)", 1.0, 1e8),        # underflows to 0 at r ~ 745.6: not positive
            ("exp(r/10000)", 1.0, 1e8),   # the expression overflows: not finite
            ("r^-40", 1e-8, 1.0),         # the power product overflows: not finite
        ],
    )
    def test_array_error_names_first_point(self, text, lo, hi):
        c = coefficient_from_text(text)
        grid = np.geomspace(lo, hi, 2048)
        with pytest.raises((ArithmeticError, ValueError)) as pointwise:
            for r in grid:
                c.eval_a(r)
        with pytest.raises((ArithmeticError, ValueError)) as batched:
            c.eval_a(grid)
        assert type(batched.value) is type(pointwise.value)
        assert str(batched.value) == str(pointwise.value)

    def test_array_values_equal_pointwise(self):
        c = coefficient_from_text("1/(1+r^2)")
        grid = np.geomspace(1e-8, 1e8, 2048)
        assert c.eval_a(grid).tolist() == [c.eval_a(r) for r in grid]

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:divide by zero encountered")
    @pytest.mark.parametrize("text", ["(1+r)^-1", "3*(1+r)^-2", "(1+r)^2.5", "1", "(2+r)^-2", "1/(r+0.5)"])
    def test_p_zero_skips_only_a_unit_factor(self, text):
        # a(r) = c (b+r)^beta without the factor r^0 = 1: the same bits and types
        c = coefficient_from_text(text)
        assert c.p == 0.0

        def with_unit_factor(r):
            r = np.asarray(r, dtype=float) if not np.isscalar(r) else r
            return c.c * np.power(r, 0.0) * np.power(c.b + np.asarray(r, dtype=float), c.beta)

        grid = np.concatenate((np.geomspace(5e-324, 1e308, 1500), [0.0, -0.5, np.inf, np.nan]))
        for r in (grid, grid.tolist(), np.float64(0.25), 0.25, 3, np.asarray(2.0)):
            got, want = c(r), with_unit_factor(r)
            assert type(got) is type(want)
            assert np.array_equal(got, want, equal_nan=True)


def _reference_eval_a(c, r):
    """Coefficient.eval_a before its float path: numpy reductions on every r,
    and the offending r named as a plain float."""
    r_arr = np.asarray(r)
    if np.any(r_arr <= 0.0):
        raise CoefficientError("coefficient evaluated at r <= 0")
    try:
        value = c(r)
    except expr.EvalDomainError:
        if r_arr.ndim == 0:
            raise
        return np.array([_reference_eval_a(c, x) for x in r_arr.ravel()]).reshape(r_arr.shape)
    v = np.asarray(value)
    bad = ~np.isfinite(v) | (v <= 0.0)
    if np.any(bad):
        first = np.flatnonzero(bad)[0]
        at = float(r if r_arr.ndim == 0 else r_arr.flat[first])
        if not np.isfinite(v.flat[first]):
            raise expr.EvalDomainError(f"coefficient not finite at r={at!r}")
        raise CoefficientError(f"coefficient not positive at r={at!r}")
    return value


def _outcome(call, *args):
    """(type, bytes) of the value returned, or (type, message) of the error raised."""
    try:
        value = call(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)
    return type(value), np.asarray(value).tobytes()


class TestEvalScalar:
    """eval_a on a float runs the checks of the array path, in its order,
    with its messages, and returns the same object type."""

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize(
        "text, r",
        [
            ("(1+r)^-2", 3.0),            # valid: np.float64 from the power product
            ("1/(1+r^2)", 3.0),           # valid: float from the expression
            ("1/(1+r^2)", np.float64(3.0)),
            ("1/(1+r^2)", 2),             # an int takes the array path
            ("(1+r)^-2", 0.0),            # r <= 0
            ("1/(1+r^2)", -1.0),
            ("1/(1+r^2)", math.nan),      # not finite at r = nan
            ("r^-40", 1e-8),              # the power product overflows: not finite
            ("exp(r/10000)", 1e8),        # the expression raises on overflow
            ("exp(-r)", 1000.0),          # underflows to zero: not positive
            ("r-1e-7", 1e-8),             # negative below the positivity samples
            ("r-1e-7", np.float64(1e-8)),
        ],
    )
    def test_equals_reference(self, text, r):
        c = coefficient_from_text(text)
        assert _outcome(c.eval_a, r) == _outcome(_reference_eval_a, c, r)

    def test_value_types(self):
        assert type(coefficient_from_text("(1+r)^-2").eval_a(3.0)) is np.float64
        assert type(coefficient_from_text("1/(1+r^2)").eval_a(3.0)) is float

    @pytest.mark.parametrize(
        "text, r, error, message",
        [
            ("(1+r)^-2", 0.0, CoefficientError, "coefficient evaluated at r <= 0"),
            ("r^-40", 1e-8, expr.EvalDomainError, "coefficient not finite at r=1e-08"),
            ("exp(-r)", 1000.0, CoefficientError, "coefficient not positive at r=1000.0"),
            ("r-1e-7", 1e-8, CoefficientError, "coefficient not positive at r=1e-08"),
            # numpy scalars and 0-d arrays are named as plain floats
            pytest.param("r-1e-7", np.float64(1e-8), CoefficientError, "coefficient not positive at r=1e-08",
                         id="np.float64-not-positive"),
            pytest.param("exp(-r)", np.asarray(1000.0), CoefficientError, "coefficient not positive at r=1000.0",
                         id="0-d-array-not-positive"),
            pytest.param("r^-40", np.float64(1e-8), expr.EvalDomainError, "coefficient not finite at r=1e-08",
                         id="np.float64-not-finite"),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_error_messages(self, text, r, error, message):
        with pytest.raises(error) as err:
            coefficient_from_text(text).eval_a(r)
        assert type(err.value) is error and str(err.value) == message


class TestPositivitySampling:
    def test_one_evaluate_call(self, monkeypatch):
        calls = []
        real = expr.evaluate
        monkeypatch.setattr(expr, "evaluate", lambda *a, **k: (calls.append(1), real(*a, **k))[1])
        ExpressionCoefficient(expr.parse_coefficient("1/(1+r^2)"), "1/(1+r^2)")
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 - r", "coefficient not positive: value -0.24519708473503177 at r=1.245e+00"),
            ("sqrt(r-1)+1", "coefficient fails at r=1.000e-06: sqrt of a negative value"),
            ("exp(r)", "coefficient fails at r=8.962e+02: non-finite value in exp"),
            ("1e400*exp(-r)", "coefficient fails at r=1.000e-06: non-finite value in multiplication"),
            # its overflowing power beside r is not a power product
            ("(1e200*r)^2+r", "coefficient fails at r=1.000e-06: non-finite value in power"),
            # shifted power products whose c b^beta is not finite and positive
            ("(1e200+r)^3", "coefficient fails at r=1.000e-06: non-finite value in power"),
            ("(1e200+r)^-3", "coefficient not positive: value 0.0 at r=1.000e-06"),
        ],
    )
    def test_error_names_first_failing_sample(self, text, message):
        with pytest.raises(CoefficientError) as err:
            coefficient_from_text(text)
        assert str(err.value) == message


# shifted power products with a closed psi: p = 0 (a primitive in b + r,
# and partial fractions for psi1 when beta is a negative integer) or a
# nonnegative integer beta (a power sum), with b on either side of 1
SHIFTED_CLOSED = [
    "(2+r)^-2", "1/(2+r)", "(0.5+r)^-3", "3*(0.5+r)^-4", "(2+r)^-1.5", "(2+r)^3", "r+1.5", "r^-0.5*(3+r)^2",
    "(0.1+r)^-20", "(0.5+r)^-20",
]


class TestShiftedClosedForms:
    """psi, psi1, the tail integral and int_0^1 a of a shifted power product
    from its closed forms agree with quadrature to 1e-10, relative to values
    above 1.  For (0.1+r)^-20 the partial fractions of psi1 cancel terms of
    size 0.1^-20 = 1e20, so psi1 sums a series there instead."""

    @staticmethod
    def _close(value, oracle):
        return abs(value - oracle) <= 1e-10 * max(1.0, abs(oracle))

    @staticmethod
    def _integral(f, a, b):
        """int_a^b f by quadrature on 64 geometric pieces: on [1, 1000] one
        Kronrod panel misses the mass of (0.1+r)^-20 near 1."""
        edges = np.geomspace(a, b, 65)
        return sum(integrate(f, lo, hi, atol=1e-13) for lo, hi in zip(edges[:-1], edges[1:]))

    @pytest.mark.parametrize("text", SHIFTED_CLOSED)
    def test_against_quadrature(self, text):
        c = coefficient_from_text(text)
        assert type(c) is PowerProductCoefficient and c.b != 1.0
        assert c.primitive(1.0) is not None  # psi1 of (2+r)^-1.5 takes quadrature
        pot = Potentials(c)
        for r in np.geomspace(1e-3, 1e3, 25).tolist():
            assert self._close(pot.psi(r), self._integral(c, 1.0 / r, 1.0)), (text, r)
            assert self._close(pot.psi1(r), self._integral(lambda s: c(s) / s, 1.0 / r, 1.0)), (text, r)
            if c.tail_integrable:
                assert self._close(c.tail_integral(r), -integrate_tail(c, r)), (text, r)
        if c.integrable_at_zero:
            assert self._close(c.integral_zero_to_one(), integrate(c, 1e-300, 1.0)), text

    def test_exponents_are_exact(self):
        c = coefficient_from_text("r^0.5*(3+r)^-2")
        assert (c.smallr_exponent, c.tail_exponent) == (0.5, -1.5)
        assert c.verdict_source == "closed-form" and c.tail_integrable and c.integrable_at_zero


class TestPowerSumExpansion:
    """A nonnegative integer beta expands into binomial terms in order, and
    the first term that is not finite ends the expansion."""

    @pytest.fixture
    def comb_calls(self, monkeypatch):
        calls = []
        real = math.comb
        monkeypatch.setattr(math, "comb", lambda n, k: (calls.append(k), real(n, k))[1])
        return calls

    def test_shifted_terms(self):
        assert coefficient_from_text("2*(3+r)^2")._terms == [(18.0, 0.0), (12.0, 1.0), (2.0, 2.0)]

    # comb(2000, 230) is the first binomial coefficient of beta = 2000 that
    # no float holds; comb(1e300, 2) already overflows
    @pytest.mark.parametrize("text, first_bad", [("(1+r)^2000", 230), ("(1+r)^1e300", 2)])
    def test_large_beta_stops_at_the_first_overflow(self, text, first_bad, comb_calls):
        c = coefficient_from_text(text)
        assert type(c) is PowerProductCoefficient and c._terms is None
        assert comb_calls == list(range(first_bad + 1))
        beta = int(c.beta)
        with pytest.raises(OverflowError):
            float(math.comb(beta, first_bad))
        float(math.comb(beta, first_bad - 1))

    def test_unexpanded_closed_form_stands_in(self):
        c = coefficient_from_text("(1+r)^2000")
        assert c.primitive(0.1) == pytest.approx(1.1**2001 / 2001, rel=1e-12)
        assert c.primitive_over_s(0.1) is None

    def test_large_beta_classifies(self):
        from smolpois.regime import classify

        report = classify(coefficient_from_text("(1+r)^2000"))
        assert report.clause == "global" and report.source == "closed-form"


class TestTailIntegral:
    def test_closed_form(self):
        # A(r) = -1/(1+r) for a = (1+r)^-2
        c = coefficient_from_text("(1+r)^-2")
        assert c.tail_integral(1.0) == pytest.approx(-0.5, abs=1e-14)
        assert c.tail_integral(3.0) == pytest.approx(-0.25, abs=1e-14)

    def test_closed_form_cross_checked_against_quadrature(self):
        c = coefficient_from_text("(1+r)^-2")
        for r in (0.01, 0.5, 1.0, 10.0, 200.0):
            oracle = -integrate_tail(lambda s: (1.0 + s) ** -2.0, r)
            assert c.tail_integral(r) == pytest.approx(oracle, abs=1e-9)

    def test_divergent_flag(self):
        assert coefficient_from_text("(1+r)^-1").tail_integral(1.0) == -math.inf

    def test_power_sum(self):
        # int_r^inf (s^-3/2 + s^-5/2) ds = 2 r^-1/2 + (2/3) r^-3/2
        c = coefficient_from_text("(1+r)*r^-2.5")
        assert c.tail_integral(1.0) == pytest.approx(-8.0 / 3.0, rel=1e-14)
        assert c.tail_integral(4.0) == pytest.approx(-(1.0 + 1.0 / 12.0), rel=1e-14)

    def test_expression_route_matches_closed_route(self):
        from smolpois.expr import parse_coefficient

        closed = coefficient_from_text("(1+r)^-2")
        generic = ExpressionCoefficient(parse_coefficient("(1+r)^-2"), "(1+r)^-2")
        for r in (0.3, 1.0, 7.0):
            assert generic.tail_integral(r) == pytest.approx(closed.tail_integral(r), abs=1e-9)

    def test_tail_derivative_matches_minus_a(self):
        # d/dr A(r) = a(r)
        rng = np.random.default_rng(3)
        for text in ("(1+r)^-2", "(1+r)*r^-2.5"):
            c = coefficient_from_text(text)
            for r in rng.uniform(0.2, 20.0, 8):
                h = 1e-5 * r
                fd = (c.tail_integral(r + h) - c.tail_integral(r - h)) / (2.0 * h)
                assert fd == pytest.approx(c.eval_a(r), rel=1e-6)


class TestPsi:
    def test_log_form(self, pot_inv1):
        # psi(r) = ln(2r/(1+r)) for a = (1+r)^-1
        assert pot_inv1.psi(2.0) == pytest.approx(math.log(4.0 / 3.0), rel=1e-12)
        assert pot_inv1.psi(1.0) == 0.0

    def test_rational_form(self, pot_inv2):
        # psi(r) = r/(1+r) - 1/2 for a = (1+r)^-2
        assert pot_inv2.psi(1.0) == 0.0
        for r in (0.1, 0.5, 2.0, 42.0):
            assert pot_inv2.psi(r) == pytest.approx(r / (1.0 + r) - 0.5, rel=1e-12)

    def test_psi_tilde(self, pot_inv2):
        # psi~(r) = r/(1+r); psi~(1) = 1/2
        assert pot_inv2.psi_tilde(1.0) == pytest.approx(0.5, rel=1e-12)
        assert pot_inv2.psi_tilde(3.0) == pytest.approx(0.75, rel=1e-12)

    def test_psi_tilde_needs_integrable_tail(self, pot_inv1):
        with pytest.raises(TailDivergenceError):
            pot_inv1.psi_tilde(2.0)

    def test_quadrature_path_matches_closed_path(self, pot_inv2):
        import smolpois.expr as expr

        generic = Potentials(
            ExpressionCoefficient(expr.parse_coefficient("(1+r)^-2"), "(1+r)^-2")
        )
        for r in (0.05, 0.8, 1.0, 3.0, 50.0):
            assert generic.psi(r) == pytest.approx(pot_inv2.psi(r), abs=1e-9)
            assert generic.psi1(r) == pytest.approx(pot_inv2.psi1(r), abs=1e-9)

    def test_primitive_at_one_evaluated_once(self):
        c = coefficient_from_text("(1+r)^-2")
        pot = Potentials(c)
        rs = np.geomspace(0.02, 50.0, 40)
        for evaluate, name in ((pot.psi, "primitive"), (pot.psi1, "primitive_over_s")):
            primitive = getattr(c, name)
            scalars = []

            def recording(r, primitive=primitive, scalars=scalars):
                if np.ndim(r) == 0:
                    scalars.append(r)
                return primitive(r)

            setattr(c, name, recording)
            for _ in range(3):
                assert np.array_equal(evaluate(rs), primitive(1.0) - primitive(1.0 / rs))
                assert evaluate(2.0) == float(primitive(1.0) - primitive(0.5))
            assert scalars == [1.0, 0.5, 0.5, 0.5]

    def test_array_matches_scalar(self, pot_decr):
        rs = np.geomspace(0.02, 50.0, 40)
        vec = pot_decr.psi(rs)
        for r, v in zip(rs, vec):
            assert v == pytest.approx(pot_decr.psi(float(r)), rel=1e-12)

    def test_monotonicity(self):
        rng = np.random.default_rng(4)
        for text in ("(1+r)^-1", "(1+r)^-2", "(1+r)*r^-2.5"):
            pot = Potentials(coefficient_from_text(text))
            rs = np.sort(np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 20)))
            psis = [pot.psi(float(r)) for r in rs]
            psi1s = [pot.psi1(float(r)) for r in rs]
            assert all(a < b for a, b in zip(psis, psis[1:]))
            assert all(a < b for a, b in zip(psi1s, psi1s[1:]))

    def test_derivative_consistency(self):
        rng = np.random.default_rng(5)
        for text in ("(1+r)^-1", "(1+r)^-2"):
            pot = Potentials(coefficient_from_text(text))
            for r in np.exp(rng.uniform(math.log(0.01), math.log(100.0), 10)):
                h = 1e-6 * r
                fd = (pot.psi(r + h) - pot.psi(r - h)) / (2.0 * h)
                assert fd == pytest.approx(pot.psi_prime(r), rel=1e-6)

    def test_tilde_offset_cancels(self, pot_inv2):
        rng = np.random.default_rng(6)
        for _ in range(20):
            r, s = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 2))
            lhs = pot_inv2.psi_tilde(r) - pot_inv2.psi_tilde(s)
            rhs = pot_inv2.psi(r) - pot_inv2.psi(s)
            assert lhs == pytest.approx(rhs, abs=1e-12)


# psi and psi1 of two expression coefficients in closed form, at f from
# 1e-12 to 1e12.  psi1 of 1/(1+r^2) is -ln2/2 - ln(1/f) + ln(1 + 1/f^2)/2,
# written as -ln2/2 + log1p(f^2)/2, which does not cancel at small f
PIN_F = np.geomspace(1e-12, 1e12, 97)
PINNED = {
    ("1/(1+r^2)", "psi"): lambda f: math.pi / 4.0 - np.arctan(1.0 / f),
    ("1/(1+r^2)", "psi1"): lambda f: -0.5 * math.log(2.0) + 0.5 * np.log1p(f * f),
    ("exp(-r)", "psi"): lambda f: np.exp(-1.0 / f) - math.exp(-1.0),
    ("exp(-r)", "psi1"): lambda f: exp1(1.0 / f) - exp1(1.0),
}


class TestKnotTable:
    """A potential without a closed primitive: a cumulative table at the
    knots 2^(k/8) plus one Kronrod panel per point."""

    @pytest.mark.parametrize("text, name", list(PINNED))
    def test_closed_forms(self, text, name):
        want = PINNED[text, name](PIN_F)
        evaluate = getattr(Potentials(coefficient_from_text(text)), name)
        scalars = np.array([evaluate(float(f)) for f in PIN_F])
        for got in (evaluate(PIN_F), scalars):
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_long_cell_no_longer_misses_the_mass_near_one(self):
        # one 15-point panel on [1, 1e11] gave -1.5e-17 and -0.0 here
        psi1 = Potentials(coefficient_from_text("1/(1+r^2)")).psi1
        psi = Potentials(coefficient_from_text("exp(-r)")).psi
        for f in (1e-11, np.array([1e-11])):
            assert psi1(f) == pytest.approx(-0.5 * math.log(2.0), rel=1e-12)
            assert psi(f) == pytest.approx(-math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("text", ["1/(1+r^2)", "exp(-r)", "(1+r^2)^-0.5"])
    def test_bits_do_not_depend_on_what_was_asked_before(self, text):
        points = np.geomspace(1e-9, 1e9, 41)
        for name in ("psi", "psi1"):
            fresh = lambda: getattr(Potentials(coefficient_from_text(text)), name)
            first = fresh()(points)
            evaluate = fresh()
            evaluate(np.geomspace(1e-14, 1e14, 29))
            after_wider = evaluate(points)
            reverse = fresh()(points[::-1])[::-1]
            evaluate = fresh()
            scalars = np.array([evaluate(float(r)) for r in points])
            for other in (after_wider, reverse, scalars):
                assert other.tobytes() == first.tobytes(), name

    def test_overflow_ends_the_table(self, monkeypatch):
        # int_1^p a overflows near p = 2^512 for a = 1/(1+r)+r: the table ends
        # there after about one integrand call per 64 cells, where a quadrature
        # out to 2^930 bisected an overflowed panel to its 4000-panel budget
        pot = Potentials(coefficient_from_text("1/(1+r)+r"))
        calls = []
        real = expr.evaluate
        monkeypatch.setattr(expr, "evaluate", lambda *a, **k: (calls.append(1), real(*a, **k))[1])
        assert pot.psi(2.0**-930) == -math.inf
        assert len(calls) <= 70
        assert pot.psi(np.array([2.0**-930, 2.0**-600, 0.5])).tolist() == [-math.inf, -math.inf, pot.psi(0.5)]
        assert len(calls) <= 72


class TestTableLookAhead:
    """A table that must grow grows to at least twice its size in one call,
    and falls back to growing exactly to the request when that call raises."""

    def test_growth_order_does_not_change_the_bits(self):
        points = np.geomspace(1e-30, 1e30, 61)
        grown = []
        for order in ("large", "small", "reverse"):
            pot = Potentials(coefficient_from_text("1/(1+r^2)"))
            if order == "large":
                pot.psi1(points)
            else:
                for r in points if order == "small" else points[::-1]:
                    pot.psi1(float(r))
            grown.append(pot._tables)
        for key in grown[0]:
            tables = [tables[key] for tables in grown]
            size = min(table.size for table in tables)
            assert size > 8 * 30 * math.log2(10.0)  # every request is inside
            for table in tables[1:]:
                assert np.array_equal(table[:size], tables[0][:size]), key

    def test_overflow_past_the_request_falls_back(self):
        # g(s) = a(s)/s ~ s^-3 is not finite below about s = 1e-103: the
        # look-ahead of psi1(1e95) crosses that point, and must give what
        # growing exactly to the request gives, without a warning
        pot = Potentials(coefficient_from_text("1/(r^2*(1+r))+exp(-r)"))
        table = lambda: pot._tables["psi1", -1]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # "error" would turn a warning into a fallback
            pot.psi1(1e30)
            assert table().size == 798  # a fresh table grows to the request
            pot.psi1(1e40)
            assert table().size == 2 * 798  # twice its size, past k = 1063 of 1e40
            assert pot.psi1(1e60) == 4.9999999999999834e119
            assert pot.psi1(1e95) == 4.999999999999985e189
        assert caught == []
        assert table().size == 2525  # to k = 2524 of 1e95: the look-ahead to 3191 raised
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the exact growth overflows np.dot, as it always has
            with pytest.raises(QuadratureError, match="integrand not finite inside panel"):
                pot.psi1(1e103)


class TestDistinctPoints:
    """A table-backed potential takes one panel per distinct point."""

    @pytest.mark.parametrize("name", ["psi", "psi1"])
    def test_profile_equals_pointwise_with_one_panel_per_value(self, name, monkeypatch):
        f = pam_profile(1.0, 4.0, 0.0016, 400).values
        assert f.size == 400 and np.unique(f).size == 2
        evaluate = getattr(Potentials(coefficient_from_text("1/(1+r^2)")), name)
        pointwise = np.array([evaluate(float(x)) for x in f])  # grows the tables too
        nodes = []
        real = expr.evaluate
        monkeypatch.setattr(expr, "evaluate", lambda tree, r: (nodes.append(np.size(r)), real(tree, r))[1])
        assert evaluate(f).tobytes() == pointwise.tobytes()
        assert nodes == [2 * 15]  # one 15-node Kronrod panel per distinct value


class TestPartialFractionCrossover:
    """psi1 of c (b+r)^-m takes the knot table where the partial fractions
    need more numpy passes than ``_PARTIAL_FRACTION_PASSES``."""

    LAST = coefficient._PARTIAL_FRACTION_PASSES + 1  # m - 1 passes for b = 1

    def test_crossover(self):
        assert coefficient_from_text(f"(1+r)^-{self.LAST}").primitive_over_s(0.5) is not None
        assert coefficient_from_text(f"(1+r)^-{self.LAST + 1}").primitive_over_s(0.5) is None
        # b < 1 adds 6m + 10 passes of the series: 37 for m = 4, 44 for m = 5
        assert coefficient_from_text("(0.1+r)^-4").primitive_over_s(0.5) is not None
        assert coefficient_from_text("(0.1+r)^-5").primitive_over_s(0.5) is None

    def test_table_agrees_with_partial_fractions_at_the_crossover(self):
        c = coefficient_from_text(f"(1+r)^-{self.LAST}")
        pot = Potentials(c)
        closed = pot.psi1(PIN_F)
        table = pot._tabulated("psi1", lambda s: c(s) / s, PIN_F)
        assert np.all(np.abs(table - closed) <= 1e-12 * np.maximum(1.0, np.abs(closed)))

    def test_large_m_costs_one_table(self):
        # partial fractions made 99999 numpy passes per call here
        f = np.geomspace(1e-3, 1e3, 400)
        psi1 = Potentials(coefficient_from_text("(1+r)^-100000")).psi1(f)
        assert np.all(np.isfinite(psi1)) and np.all(np.diff(psi1) >= 0.0)


class _Bare(coefficient.Coefficient):
    """The least a ``Coefficient`` subclass states: its exponents, None
    when unknown, and a(r), which raises when ``law`` is None."""

    def __init__(self, smallr_exponent=None, tail_exponent=None, law=None):
        self.text = "bare"
        self.smallr_exponent = smallr_exponent
        self.tail_exponent = tail_exponent
        self.law = law

    def __call__(self, r):
        if self.law is None:
            raise AssertionError("a evaluated although its exponents are known")
        return self.law(np.asarray(r, dtype=float))


class TestIntegrabilityRule:
    """``Coefficient`` decides both integrability facts for every subclass:
    from the exponents when they are known, from ``dyadic_decay_probe``
    otherwise."""

    @pytest.mark.parametrize(
        "smallr, tail, at_zero, at_infinity",
        [
            (0.0, -2.0, True, True),
            (-0.5, -1.5, True, True),
            (-1.0, -1.0, False, False),  # both boundaries are divergent
            (-1.5, 0.5, False, False),
            (math.nextafter(-1.0, 0.0), math.nextafter(-1.0, -2.0), True, True),
        ],
    )
    def test_known_exponents_decide_without_evaluating(self, smallr, tail, at_zero, at_infinity):
        c = _Bare(smallr, tail)
        assert c.integrable_at_zero is at_zero
        assert c.tail_integrable is at_infinity
        assert c.verdict_source == "numeric"

    @pytest.mark.parametrize(
        "law, at_zero, at_infinity",
        [
            (lambda r: (1.0 + r) ** -2.0, True, True),
            (lambda r: 1.0 / (1.0 + r), True, False),
            (lambda r: r**-1.5, False, True),
            (lambda r: r**-0.5, True, False),
        ],
    )
    def test_unknown_exponents_take_the_probe(self, law, at_zero, at_infinity):
        c = _Bare(law=law)
        assert c.integrable_at_zero is dyadic_decay_probe(law, "down") is at_zero
        assert c.tail_integrable is dyadic_decay_probe(law, "up") is at_infinity


class TestLimits:
    def test_integrable_tail(self, pot_inv2):
        assert pot_inv2.coefficient.tail_integrable
        assert pot_inv2.psi0 == pytest.approx(-0.5, abs=1e-14)
        assert pot_inv2.coefficient.verdict_source == "closed-form"

    def test_divergent_tail(self, pot_inv1):
        assert not pot_inv1.coefficient.tail_integrable
        assert pot_inv1.psi0 == -math.inf

    def test_psi_sup(self, pot_inv1, pot_decr):
        # int_0^1 (1+s)^-1 ds = ln 2; the decr coefficient diverges at 0
        assert pot_inv1.psi_sup == pytest.approx(math.log(2.0), rel=1e-12)
        assert pot_decr.psi_sup == math.inf

    def test_psi_sup_reads_the_primitive_at_zero(self):
        # int_0^1 (b+s)^-0.999 ds = 1000 ((1+b)^0.001 - b^0.001) with b = 1e-300;
        # a primitive read at 1e-300 instead of 0 would give 498.465
        pot = Potentials(coefficient_from_text("(1e-300+r)^-0.999"))
        assert pot.psi_sup == pytest.approx(1000.0 * (1.0 - 1e-300**0.001), rel=1e-12)

    def test_numeric_verdict_labelled(self):
        c = coefficient_from_text("(1+r)/(2+r)")
        assert c.verdict_source == "numeric"
        assert not c.tail_integrable

    @pytest.mark.filterwarnings("ignore:overflow encountered")  # int_0^1 (1+r)^2000
    @pytest.mark.parametrize("text", PARSED_GOLDEN)
    def test_limits_equal_reference(self, text):
        # the value, or the error (r^300*(1+r)^-400 fails in the tail quadrature)
        c = coefficient_from_text(text)
        pot = Potentials(c)
        assert _outcome(lambda: pot.psi0) == _outcome(_reference_psi0, c)
        assert _outcome(lambda: pot.psi_sup) == _outcome(_reference_psi_sup, c)


def _reference_psi0(c):
    """psi(0) as Potentials computed it together with psi1(0)."""
    return c.tail_integral(1.0) if c.tail_integrable else -math.inf


def _reference_psi_sup(c):
    """sup psi as Potentials computed it together with psi1(0)."""
    if not c.integrable_at_zero:
        return math.inf
    prim = c.primitive(1.0)
    if prim is not None and isinstance(c, PowerProductCoefficient):
        if c._terms is not None and all(e > -1.0 for _, e in c._terms):
            return float(prim)
        if c.p == 0.0:
            return float(prim) - float(c.primitive(1e-300))
    return integrate(c.__call__, 1e-300, 1.0)


class TestPsiInverse:
    def test_at_normalization_point(self, pot_inv1, pot_inv2):
        assert pot_inv1.psi_inverse(0.0) == pytest.approx(1.0, rel=1e-9)
        assert pot_inv2.psi_inverse(0.0) == pytest.approx(1.0, rel=1e-9)

    def test_closed_form_inversions(self, pot_inv1, pot_inv2):
        # ln(2r/(1+r)) = ln(4/3) at r = 2; r/(1+r) - 1/2 = 0.25 at r = 3
        assert pot_inv1.psi_inverse(math.log(4.0 / 3.0)) == pytest.approx(2.0, rel=1e-9)
        assert pot_inv2.psi_inverse(0.25) == pytest.approx(3.0, rel=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for text in ("(1+r)^-1", "(1+r)^-2", "(1+r)*r^-2.5"):
            pot = Potentials(coefficient_from_text(text))
            for r in np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 12)):
                h = pot.psi(float(r))
                if not math.isfinite(h):
                    continue
                assert pot.psi_inverse(h) == pytest.approx(r, rel=1e-8)

    def test_range_errors(self, pot_inv2):
        # range of psi is (-1/2, 1/2) for a = (1+r)^-2
        with pytest.raises(PsiRangeError):
            pot_inv2.psi_inverse(0.75)
        with pytest.raises(PsiRangeError):
            pot_inv2.psi_inverse(-0.75)


class RecordingPotentials(Potentials):
    """Keeps every argument psi is evaluated at."""

    def __init__(self, coefficient):
        super().__init__(coefficient)
        self.psi_args = []

    def psi(self, r):
        self.psi_args.append(r)
        return super().psi(r)


def _scan_psi_inverse(pot, h):
    """psi_inverse for h < 0 as it was before the search consulted psi at
    its last point: the reference for the psi sequence and bits."""
    tol = 1e-10 * max(1.0, abs(h))
    lo = hi = 1.0
    while pot.psi(lo) > h:
        lo /= 8.0
        if lo < 1e-280:
            raise PsiRangeError(f"failed to bracket h={h!r} from below")
    r = math.sqrt(lo * hi)
    for _ in range(200):
        val = pot.psi(r)
        slope = pot.psi_prime(r)
        if abs(val - h) <= tol and abs(val - h) <= 1e-9 * r * slope:
            return r
        if val > h:
            hi = r
        else:
            lo = r
        step = r - (val - h) / slope if slope > 0.0 else None
        r = step if step is not None and lo < step < hi else math.sqrt(lo * hi)
        if hi - lo <= 1e-12 * max(r, 1e-300):
            return r
    raise AssertionError("reference did not converge")


class TestPsiInverseBracket:
    """An h < 0 below psi at the last point of the search from below fails
    without the search; every other call keeps its psi sequence."""

    # -C7 of the M = 100 cosine run of (1+r)^-1, far below psi(2^-930)
    H_FAR = -40003.93

    def test_floor_is_the_last_point_searched(self):
        lo = 1.0
        while lo / 8.0 >= 1e-280:
            lo /= 8.0
        assert coefficient._BRACKET_FLOOR == lo

    def test_unbracketable_h_fails_in_one_call(self):
        ref = RecordingPotentials(coefficient_from_text("(1+r)^-1"))
        with pytest.raises(PsiRangeError):
            _scan_psi_inverse(ref, self.H_FAR)
        assert len(ref.psi_args) == 311
        pot = RecordingPotentials(coefficient_from_text("(1+r)^-1"))
        message = f"failed to bracket h={self.H_FAR!r} from below"
        for calls in (1, 0):  # psi at the floor is kept
            with pytest.raises(PsiRangeError, match=re.escape(message) + "$"):
                pot.psi_inverse(self.H_FAR)
            assert pot.psi_args == [coefficient._BRACKET_FLOOR] * calls
            pot.psi_args.clear()

    @pytest.mark.parametrize("text", ["(1+r)^-1", "r", "1/(2+r)", "1/(1+r)+r", "(1+r^2)^-0.5"])
    def test_bracketed_calls_keep_their_psi_sequence(self, text):
        # closed forms (1/(2+r) with a shift), one that overflows at the
        # floor, and quadrature-backed psi (which is never evaluated at the
        # floor)
        pot = RecordingPotentials(coefficient_from_text(text))
        ref = RecordingPotentials(coefficient_from_text(text))
        pot.psi_inverse(-0.5)
        pot.psi_args.clear()
        for h in (-0.5, -3.0, -40.0):
            want = _scan_psi_inverse(ref, h)
            assert pot.psi_inverse(h) == want
            assert pot.psi_args == ref.psi_args
            pot.psi_args.clear()
            ref.psi_args.clear()


class TestCoefficientInvariant:
    def test_closed_tail_matches_quadrature_derivative(self):
        # derivative of the closed-form tail must match -a to 1e-8 relative
        for text in ("(1+r)^-2", "(1+r)*r^-2.5", "2*(1+r)^-3"):
            c = coefficient_from_text(text)
            for r in (0.5, 1.0, 5.0):
                h = 1e-6 * r
                d_tail = (c.tail_integral(r + h) - c.tail_integral(r - h)) / (2.0 * h)
                assert abs(d_tail - c.eval_a(r)) <= 1e-8 * max(1.0, abs(c.eval_a(r)))

    def test_psi_integral_identity(self, pot_decr):
        # psi(r) = int_{1/r}^1 a(s) ds against direct quadrature
        c = pot_decr.coefficient
        for r in (0.2, 0.9, 4.0):
            oracle = integrate(lambda s: c(s), 1.0 / r, 1.0)
            assert pot_decr.psi(r) == pytest.approx(oracle, abs=1e-9)
