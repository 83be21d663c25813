import math
from pathlib import Path

import numpy as np
import pytest

from smolpois.coefficient import (
    CoefficientError,
    ExpressionCoefficient,
    Potentials,
    PowerProductCoefficient,
    PsiRangeError,
    TailDivergenceError,
    coefficient_from_text,
)
from smolpois import expr
from smolpois.quadrature import integrate, integrate_tail

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
def pot_inv1():
    return Potentials(coefficient_from_text("(1+r)^-1"))


@pytest.fixture(scope="module")
def pot_inv2():
    return Potentials(coefficient_from_text("(1+r)^-2"))


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

    def test_nonpositive_rejected(self):
        with pytest.raises(CoefficientError):
            coefficient_from_text("r - 2")

    @pytest.mark.parametrize("text", list(NONFINITE))
    def test_nonfinite_constant_rejected(self, text):
        with pytest.raises(CoefficientError) as err:
            coefficient_from_text(text)
        assert str(err.value) == f"coefficient {text!r} has {NONFINITE[text]} that is not finite"


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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("text", ["(1+r)^-1", "3*(1+r)^-2", "(1+r)^2.5", "1"])
    def test_p_zero_skips_only_a_unit_factor(self, text):
        # a(r) = c (1+r)^beta without the factor r^0 = 1: the same bits and types
        c = coefficient_from_text(text)
        assert c.p == 0.0

        def with_unit_factor(r):
            r = np.asarray(r, dtype=float) if not np.isscalar(r) else r
            return c.c * np.power(r, 0.0) * np.power(1.0 + np.asarray(r, dtype=float), c.beta)

        grid = np.concatenate((np.geomspace(5e-324, 1e308, 1500), [0.0, -0.5, np.inf, np.nan]))
        for r in (grid, grid.tolist(), np.float64(0.25), 0.25, 3, np.asarray(2.0)):
            got, want = c(r), with_unit_factor(r)
            assert type(got) is type(want)
            assert np.array_equal(got, want, equal_nan=True)


def _reference_eval_a(c, r):
    """Coefficient.eval_a before its float path: numpy reductions on every r."""
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
        at = r if r_arr.ndim == 0 else r_arr.flat[first]
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
        ],
    )
    def test_error_names_first_failing_sample(self, text, message):
        with pytest.raises(CoefficientError) as err:
            coefficient_from_text(text)
        assert str(err.value) == message


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

    def test_numeric_verdict_labelled(self):
        c = coefficient_from_text("(1+r)/(2+r)")
        assert c.verdict_source == "numeric"
        assert not c.tail_integrable

    @pytest.mark.parametrize("text", PARSED_GOLDEN)
    def test_limits_equal_reference(self, text):
        c = coefficient_from_text(text)
        pot = Potentials(c)
        assert pot.psi0 == _reference_psi0(c)
        assert pot.psi_sup == _reference_psi_sup(c)


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
