import math
from functools import partial

import numpy as np
import pytest

from smolpois import quadrature
from smolpois.expr import EvalDomainError, evaluate, parse_coefficient
from smolpois.coefficient import ExpressionCoefficient
from smolpois.quadrature import (
    QuadratureError,
    dyadic_decay_probe,
    integrate,
    integrate_cells,
    integrate_tail,
)


class TestFiniteIntervals:
    def test_polynomial_exact(self):
        assert integrate(lambda x: 3.0 * x**2, 0.0, 2.0) == pytest.approx(8.0, abs=1e-12)

    def test_reversed_bounds_flip_sign(self):
        assert integrate(lambda x: np.ones_like(x), 3.0, 1.0) == pytest.approx(-2.0, abs=1e-13)

    def test_oscillatory(self):
        value = integrate(np.sin, 0.0, 10.0)
        assert value == pytest.approx(1.0 - math.cos(10.0), abs=1e-10)

    def test_endpoint_singularity(self):
        # int_0^1 x^{-1/2} dx = 2, graded automatically by bisection
        value = integrate(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0)
        assert value == pytest.approx(2.0, abs=1e-8)

    def test_zero_width(self):
        assert integrate(np.exp, 1.0, 1.0) == 0.0


class TestTails:
    def test_algebraic_tail(self):
        # int_1^inf (1+s)^-2 ds = 1/2
        value = integrate_tail(lambda s: (1.0 + s) ** -2.0, 1.0)
        assert value == pytest.approx(0.5, abs=1e-10)

    def test_shifted_start(self):
        # int_3^inf s^-3 ds = 1/18
        value = integrate_tail(lambda s: s**-3.0, 3.0)
        assert value == pytest.approx(1.0 / 18.0, abs=1e-12)

    def test_slow_tail(self):
        # int_1^inf s^-1.5 ds = 2
        value = integrate_tail(lambda s: s**-1.5, 1.0)
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_exponential_tail(self):
        value = integrate_tail(lambda s: np.exp(-s), 2.0)
        assert value == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_needs_positive_start(self):
        with pytest.raises(ValueError):
            integrate_tail(lambda s: s**-2.0, 0.0)

    def test_divergent_tail_raises(self):
        with pytest.raises(QuadratureError):
            integrate_tail(lambda s: 1.0 / s, 1.0)


class TestDecayProbe:
    def test_integrable_power(self):
        assert dyadic_decay_probe(lambda s: (1.0 + s) ** -2.0, 1.0)

    def test_harmonic_divergent(self):
        assert not dyadic_decay_probe(lambda s: 1.0 / (1.0 + s), 1.0)

    def test_constant_divergent(self):
        assert not dyadic_decay_probe(lambda s: np.ones_like(np.asarray(s)), 1.0)

    def test_slow_but_integrable(self):
        assert dyadic_decay_probe(lambda s: s**-1.5, 1.0)

    def test_toward_zero(self):
        # r^-1/2 integrable at 0, r^-2 not
        assert dyadic_decay_probe(lambda s: s**-0.5, 1.0, direction="down")
        assert not dyadic_decay_probe(lambda s: s**-2.0, 1.0, direction="down")


def _per_cell(f, edges, atol=quadrature.DEFAULT_ATOL):
    """The loop integrate_cells replaces: one integrate call per cell."""
    return np.array([integrate(f, a, b, atol=atol) for a, b in zip(edges[:-1], edges[1:])])


class TestIntegrateCells:
    """integrate_cells equals per-cell integrate bit for bit."""

    def assert_same(self, f, edges, atol=quadrature.DEFAULT_ATOL):
        edges = np.asarray(edges, dtype=float)
        got = integrate_cells(f, edges, atol=atol)
        assert got.tobytes() == _per_cell(f, edges, atol).tobytes()

    def test_smooth(self):
        self.assert_same(np.exp, np.linspace(-3.0, 2.0, 41))

    def test_log_grid_of_an_expression(self):
        c = ExpressionCoefficient(parse_coefficient("1/(1+r^2)"), "1/(1+r^2)")
        self.assert_same(c, np.geomspace(1e-8, 1.0 - 1e-15, 2048))

    def test_cells_that_need_refinement(self):
        edges = [1e-300, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0]
        f = lambda s: s**-0.5
        calls = []
        real = quadrature.integrate

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)

        quadrature.integrate = counting
        try:
            got = integrate_cells(f, edges)
        finally:
            quadrature.integrate = real
        assert got.tobytes() == _per_cell(f, edges).tobytes()
        # refined cells go through the module-level integrate
        assert (1e-300, 1e-12) in calls
        assert len(calls) < len(edges) - 1

    def test_zero_width_cells(self):
        self.assert_same(np.cos, [0.0, 0.5, 0.5, 1.0, 1.0, 1.0, 2.0])

    def test_descending_edges_flip_sign(self):
        edges = np.geomspace(1.0, 1e-4, 30)
        self.assert_same(lambda s: 1.0 / (1.0 + s * s), edges)
        assert np.all(integrate_cells(np.exp, edges) < 0.0)

    def test_more_than_one_block(self):
        edges = np.geomspace(1e-3, 1e3, 200)
        calls = []
        f = lambda s: (calls.append(1), 1.0 / (1.0 + s))[1]
        got = integrate_cells(f, edges)
        assert len(calls) == math.ceil(199 / 64)  # every cell accepted on its first panel
        assert got.tobytes() == _per_cell(lambda s: 1.0 / (1.0 + s), edges).tobytes()

    def test_empty_and_single(self):
        assert integrate_cells(np.exp, [1.0]).size == 0
        self.assert_same(np.exp, [0.0, 1.0])

    @pytest.mark.parametrize(
        "f, error",
        [
            (lambda s: 1.0 / (s - 0.5), QuadratureError),  # infinite at a node
            (partial(evaluate, parse_coefficient("1/(r-0.5)")), EvalDomainError),  # raises there
        ],
    )
    def test_non_finite_raises_like_per_cell(self, f, error):
        # the cell [0.25, 0.75] has its middle node at 0.5, where f is not finite
        edges = [0.1, 0.2, 0.25, 0.75, 0.9]
        with pytest.raises(error) as per_cell:
            _per_cell(f, edges)
        with pytest.raises(error) as batched:
            integrate_cells(f, edges)
        assert str(batched.value) == str(per_cell.value)
