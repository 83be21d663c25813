import math
from functools import partial

import numpy as np
import pytest

from smolpois import quadrature
from smolpois.expr import EvalDomainError, evaluate, parse_coefficient
from smolpois.coefficient import ExpressionCoefficient
from smolpois.quadrature import (
    _WG,
    _WK,
    _XK,
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

    def test_overflowed_sum_returned_at_once(self):
        # K15 and G7 both overflow, so their error estimate is nan: bisecting
        # halves of 1e308 over [0, 10] went on to the 4000-panel budget
        calls = []
        f = lambda x: (calls.append(1), np.full_like(x, 1e308))[1]
        with np.errstate(over="ignore"):  # the weighted sums overflow
            assert integrate(f, 0.0, 10.0) == math.inf and len(calls) == 1
            assert integrate(f, 10.0, 0.0) == -math.inf
            assert integrate_cells(f, [0.0, 10.0], [10.0, 0.0]).tolist() == [math.inf, -math.inf]
        assert len(calls) == 3

    def test_endpoint_singularity(self):
        # int_0^1 x^{-1/2} dx = 2, graded automatically by bisection
        value = integrate(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0)
        assert value == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("a, b, sign", [(1e-300, 1.0, 1.0), (1.0, 1e-300, -1.0)])
    def test_panel_budget_exhausted(self, monkeypatch, a, b, sign):
        # 1/sqrt(x) needs far more than 5 bisections at the default atol; the
        # error carries the signed sum of the panel values and the sum of
        # their errors, both in the order integrate keeps its panels
        f = lambda x: 1.0 / np.sqrt(x)
        value, error = quadrature._panel(f, 1e-300, 1.0)
        panels = [(error, 1e-300, 1.0, value)]  # (error, a, b, value), as integrate keeps them
        bisect = quadrature._bisect

        def recording(f, pa, mid, pb):
            halves = bisect(f, pa, mid, pb)
            panels.remove(next(p for p in panels if p[1:3] == (pa, pb)))
            panels.extend(halves)
            return halves

        monkeypatch.setattr(quadrature, "_MAX_PANELS", 5)
        monkeypatch.setattr(quadrature, "_bisect", recording)
        with pytest.raises(QuadratureError, match=r"^panel budget exhausted \(estimate ") as err:
            integrate(f, a, b)
        assert len(panels) == 6
        assert err.value.estimate == sign * sum(p[3] for p in panels)
        assert err.value.error == sum(p[0] for p in panels)

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
        assert dyadic_decay_probe(lambda s: (1.0 + s) ** -2.0)

    def test_harmonic_divergent(self):
        assert not dyadic_decay_probe(lambda s: 1.0 / (1.0 + s))

    def test_constant_divergent(self):
        assert not dyadic_decay_probe(lambda s: np.ones_like(np.asarray(s)))

    def test_slow_but_integrable(self):
        assert dyadic_decay_probe(lambda s: s**-1.5)

    def test_toward_zero(self):
        # r^-1/2 integrable at 0, r^-2 not
        assert dyadic_decay_probe(lambda s: s**-0.5, direction="down")
        assert not dyadic_decay_probe(lambda s: s**-2.0, direction="down")


def _per_cell(f, edges, atol=quadrature.DEFAULT_ATOL):
    """The loop integrate_cells replaces: one integrate call per cell."""
    return np.array([integrate(f, a, b, atol=atol) for a, b in zip(edges[:-1], edges[1:])])


class TestIntegrateCells:
    """integrate_cells equals per-cell integrate bit for bit."""

    def assert_same(self, f, edges, atol=quadrature.DEFAULT_ATOL):
        edges = np.asarray(edges, dtype=float)
        got = integrate_cells(f, edges[:-1], edges[1:], atol=atol)
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
            got = integrate_cells(f, edges[:-1], edges[1:])
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
        assert np.all(integrate_cells(np.exp, edges[:-1], edges[1:]) < 0.0)

    def test_one_call_for_every_cell(self):
        edges = np.geomspace(1e-3, 1e3, 200)
        calls = []
        f = lambda s: (calls.append(1), 1.0 / (1.0 + s))[1]
        got = integrate_cells(f, edges[:-1], edges[1:])
        assert len(calls) == 1  # every cell accepted on its first panel
        assert got.tobytes() == _per_cell(lambda s: 1.0 / (1.0 + s), edges).tobytes()

    def test_empty_and_single(self):
        assert integrate_cells(np.exp, [], []).size == 0
        self.assert_same(np.exp, [0.0, 1.0])

    @pytest.mark.parametrize(
        "f, error",
        [
            (lambda s: 1.0 / (s - 0.5), QuadratureError),  # infinite at a node
            (partial(evaluate, parse_coefficient("1/(r-0.5)")), EvalDomainError),  # raises there
            # the pole of cell 1104, in the second block of integrate_cells
            (partial(evaluate, parse_coefficient("1/(r-1100.5)")), EvalDomainError),
        ],
    )
    def test_non_finite_raises_like_per_cell(self, f, error):
        # the cell [0.25, 0.75] has its middle node at 0.5, and the cell
        # [1100, 1101] its middle node at 1100.5
        edges = [0.1, 0.2, 0.25, 0.75, 0.9, *np.arange(1.0, 1201.0)]
        assert quadrature._CELL_BLOCK < 1104 < len(edges) - 1
        with pytest.raises(error) as per_cell:
            _per_cell(f, edges)
        with pytest.raises(error) as batched:
            integrate_cells(f, edges[:-1], edges[1:])
        assert str(batched.value) == str(per_cell.value)


class TestVecdotKernel:
    """np.vecdot reduces each row with the kernel of the 1-D np.dot, so the
    batched panels equal the per-panel ones bit for bit; a numpy that
    changes this fails here instead of moving printed values."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_np_dot(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            rows = int(rng.integers(1, 65))
            y = rng.standard_normal((rows, 15)) * 10.0 ** rng.uniform(-300.0, 300.0, (rows, 1))
            want_k = np.array([np.dot(_WK, row) for row in y])
            want_g = np.array([np.dot(_WG, row[1::2]) for row in y])
            assert np.vecdot(y, _WK).tobytes() == want_k.tobytes()
            assert np.vecdot(y[:, 1::2], _WG).tobytes() == want_g.tobytes()


def _reference_panel(f, a, b):
    """One 7/15 panel as it was before panels were batched: ``np.dot`` on a
    1-D array of nodes."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    with np.errstate(all="ignore"):
        y = np.asarray(f(mid + half * _XK), dtype=float)
    if not np.all(np.isfinite(y)):
        raise QuadratureError("integrand not finite inside panel", np.nan, np.inf)
    k15 = half * float(np.dot(_WK, y))
    g7 = half * float(np.dot(_WG, y[1::2]))
    return k15, abs(k15 - g7)


def _reference_integrate(f, a, b, atol=quadrature.DEFAULT_ATOL):
    """integrate before its bisections were batched: two panel calls, and
    so two calls of f, per bisection."""
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    value, err = _reference_panel(f, a, b)
    panels = [(err, a, b, value)]
    for _ in range(quadrature._MAX_PANELS):
        total = sum(p[3] for p in panels)
        total_err = sum(p[0] for p in panels)
        if total_err <= atol * max(1.0, abs(total)):
            return sign * total
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, pa, pb, _ = panels.pop(worst)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            panels.append((0.0, pa, pb, _reference_panel(f, pa, pb)[0]))
            continue
        for qa, qb in ((pa, mid), (mid, pb)):
            val, err = _reference_panel(f, qa, qb)
            panels.append((err, qa, qb, val))
    total = sum(p[3] for p in panels)
    total_err = sum(p[0] for p in panels)
    raise QuadratureError("panel budget exhausted", sign * total, total_err)


def _counted(f):
    calls = []
    return calls, lambda x: (calls.append(1), f(x))[1]


_ULP = 2.0**-52
# On [0, 1] the first panel is finite; the first bisection puts the middle
# node of [0, 0.5] at 0.25 and that of [0.5, 1] at 0.75.
_RAISES_AT = {c: partial(evaluate, parse_coefficient(f"1/(r-{c})")) for c in (0.25, 0.75)}
_STEP = lambda x: np.where(x > 1.0, 1.0, 0.0)


class TestBatchedBisection:
    """integrate, with both halves of a bisection in one call of f, equals
    the per-panel reference bit for bit, type included."""

    @staticmethod
    def assert_same(got, want):
        assert type(got) is type(want)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize(
        "f, a, b, atol",
        [
            (np.sin, 0.0, 10.0, quadrature.DEFAULT_ATOL),                     # smooth
            (lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0, quadrature.DEFAULT_ATOL),  # peaked at an end
            (lambda x: 1.0 / (1.0 + x * x), 1e3, 1e-4, quadrature.DEFAULT_ATOL),  # reversed bounds
            (np.sin, np.float64(10.0), np.float64(0.0), quadrature.DEFAULT_ATOL),  # numpy scalars
            (_STEP, 1.0, 1.0 + 4 * _ULP, 1e-40),   # bisected below the spacing of floats
            (_STEP, 1.0 + 4 * _ULP, 1.0, 1e-40),
        ],
    )
    def test_equals_reference(self, f, a, b, atol):
        ref_calls, ref_f = _counted(f)
        calls, counted_f = _counted(f)
        want = _reference_integrate(ref_f, a, b, atol=atol)
        self.assert_same(integrate(counted_f, a, b, atol=atol), want)
        # one call for the first panel, then one per bisection instead of two
        assert len(calls) < len(ref_calls) or len(ref_calls) == 1

    @pytest.mark.parametrize(
        "f, r",
        [
            (lambda s: (1.0 + s) ** -2.0, 1.0),
            (lambda s: s**-1.5, 1.0),
            (lambda s: np.exp(-s), 2.0),
            (ExpressionCoefficient(parse_coefficient("1/(1+r^2)"), "1/(1+r^2)"), 1.0),
            (ExpressionCoefficient(parse_coefficient("1/(1+r^2)"), "1/(1+r^2)"), 1e-6),
            (ExpressionCoefficient(parse_coefficient("1/(1+r^2)"), "1/(1+r^2)"), 1e6),
        ],
    )
    def test_tail_equals_reference(self, monkeypatch, f, r):
        got = integrate_tail(f, r)
        monkeypatch.setattr(quadrature, "integrate", _reference_integrate)
        self.assert_same(got, integrate_tail(f, r))

    def test_divergent_tail_error_equals_reference(self, monkeypatch):
        with pytest.raises(QuadratureError) as got:
            integrate_tail(lambda s: 1.0 / s, 1.0)
        monkeypatch.setattr(quadrature, "integrate", _reference_integrate)
        with pytest.raises(QuadratureError) as ref:
            integrate_tail(lambda s: 1.0 / s, 1.0)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize(
        "f, error",
        [
            (lambda s: 1.0 / (s - 0.25), QuadratureError),            # left half not finite
            (lambda s: 1.0 / (s - 0.75), QuadratureError),            # right half not finite
            (_RAISES_AT[0.25], EvalDomainError),                      # left half raises
            (_RAISES_AT[0.75], EvalDomainError),                      # right half raises
            # both halves fail, differently: the left half's error wins (the
            # factor 2 keeps the first panel from cancelling to zero error)
            (lambda s: 1.0 / (s - 0.25) + 2.0 * _RAISES_AT[0.75](s), QuadratureError),
            (lambda s: 2.0 * _RAISES_AT[0.25](s) + 1.0 / (s - 0.75), EvalDomainError),
        ],
    )
    def test_failing_half_raises_like_reference(self, f, error):
        with pytest.raises(error) as ref:
            _reference_integrate(f, 0.0, 1.0)
        with pytest.raises(error) as got:
            integrate(f, 0.0, 1.0)
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)
