import math

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


@pytest.fixture(scope="module")
def pot_inv1():
    return Potentials(coefficient_from_text("(1+r)^-1"))


@pytest.fixture(scope="module")
def pot_inv2():
    return Potentials(coefficient_from_text("(1+r)^-2"))


@pytest.fixture(scope="module")
def pot_decr():
    return Potentials(coefficient_from_text("(1+r)*r^-2.5"))


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
        limits = pot_inv2.limits
        assert limits.tail_integrable
        assert limits.psi0 == pytest.approx(-0.5, abs=1e-14)
        # psi1(0) = ln(1/2) + 1/2 by partial fractions
        assert limits.psi1_at_zero == pytest.approx(math.log(0.5) + 0.5, rel=1e-12)
        assert limits.source == "closed-form"

    def test_psi1_zero_quadrature_oracle(self, pot_inv2):
        oracle = -integrate_tail(lambda s: (1.0 + s) ** -2.0 / s, 1.0)
        assert pot_inv2.limits.psi1_at_zero == pytest.approx(oracle, abs=1e-9)

    def test_divergent_tail(self, pot_inv1):
        limits = pot_inv1.limits
        assert not limits.tail_integrable
        assert limits.psi0 == -math.inf
        # int_1^inf ds/(s(1+s)) = ln 2 converges even though the tail diverges
        assert limits.psi1_at_zero == pytest.approx(-math.log(2.0), rel=1e-12)

    def test_psi_sup(self, pot_inv1, pot_decr):
        # int_0^1 (1+s)^-1 ds = ln 2; the decr coefficient diverges at 0
        assert pot_inv1.limits.psi_sup == pytest.approx(math.log(2.0), rel=1e-12)
        assert pot_decr.limits.psi_sup == math.inf

    def test_numeric_verdict_labelled(self):
        pot = Potentials(coefficient_from_text("(1+r)/(2+r)"))
        assert pot.limits.source == "numeric"
        assert not pot.limits.tail_integrable


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
