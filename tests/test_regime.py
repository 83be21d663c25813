import bisect
import dataclasses
import math
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from smolpois import coefficient, expr, quadrature, regime, transform
from smolpois.coefficient import CoefficientError, Potentials, PowerProductCoefficient, coefficient_from_text
from smolpois.diagnostics import corollary_square, lyapunov_L1, moment_mq
from smolpois.quadrature import integrate
from smolpois.regime import (
    ConcaveMajorant,
    DesignFailure,
    RegimeError,
    build_majorant,
    classify,
    compute_decr_constants,
    compute_gamma,
    default_candidates,
    design_blowup,
    moment_at_start,
    select_delta,
    verify_majorant,
)
from smolpois.transform import FieldError, delta_cap, pam_profile


class TestGamma:
    def test_integrable_tail_increasing(self):
        # -r A(r) = r/(1+r) climbs to 1/2 at the right end of (0,1)
        gamma = compute_gamma(coefficient_from_text("(1+r)^-2"))
        assert gamma == pytest.approx(0.5, abs=1e-6)

    def test_strong_singularity_diverges(self):
        # -r A(r) ~ (2/3) r^{-1/2} near zero
        assert compute_gamma(coefficient_from_text("(1+r)*r^-2.5")) == math.inf

    def test_divergent_tail_short_circuits(self):
        assert compute_gamma(coefficient_from_text("(1+r)^-1")) == math.inf

    def test_numeric_route_against_closed_sum(self):
        # a = (1+r)^-2 + (2+r)^-2 avoids the recognizer; the tail integral is
        # 1/(1+r) + 1/(2+r), so gamma = 1/2 + 1/3
        gamma = compute_gamma(coefficient_from_text("1/(1+r)^2 + 1/(2+r)^2"))
        assert gamma == pytest.approx(5.0 / 6.0, abs=1e-6)

    def test_numeric_route_detects_slow_divergence(self):
        # same r^{-1/2} blowup of -r A(r) but driven through the numeric path
        text = "(1+r)/r^2.5 + 1/(2+r)^3"
        assert compute_gamma(coefficient_from_text(text)) == math.inf


def _count_tail_integrals(monkeypatch) -> list:
    """A list that grows by one at every ``integrate_tail`` call."""
    calls = []
    real = coefficient.integrate_tail
    monkeypatch.setattr(coefficient, "integrate_tail", lambda *a, **k: (calls.append(1), real(*a, **k))[1])
    return calls


class TestGammaWithoutPrimitive:
    """A power product with no closed primitive takes the one cumulative
    sweep of an expression, not one improper integral per grid point."""

    def test_one_sweep(self, monkeypatch):
        c = coefficient_from_text("r^0.5*(3+r)^-2")
        assert isinstance(c, PowerProductCoefficient) and c.primitive(1.0) is None
        calls = _count_tail_integrals(monkeypatch)
        assert compute_gamma(c) == 0.8545997880355279
        # over 2,000 with one improper integral per grid point and refinement
        assert len(calls) <= 2

    def test_exponent_slice_budget(self, monkeypatch):
        # classify and design of a (p, beta) slice of a = r^p (1+r)^beta:
        # each cell needs psi(0) and the start of its gamma sweep, where it
        # made about 2,116 calls with one per grid point
        calls = _count_tail_integrals(monkeypatch)
        for p in (-1.5, -0.5, 0.5):
            for beta in (-3.5, -2.5, -1.7):
                c = coefficient_from_text(f"r^{p}*(1+r)^{beta}")
                assert c.primitive(1.0) is None
                assert classify(c).clause == "blowup-via-(1)"
                design_blowup(c, 1.0, *default_candidates(c, None, None))
        assert len(calls) <= 18


class TestDecrConstants:
    def test_one_plus_r_squared(self):
        gt, ci = compute_decr_constants(coefficient_from_text("(1+r)^-2"), 0.5, 2.0)
        assert gt == pytest.approx(0.25, abs=1e-6)
        assert ci == pytest.approx(1.0, abs=1e-6)

    def test_decr_coefficient(self):
        gt, ci = compute_decr_constants(coefficient_from_text("(1+r)*r^-2.5"), 0.5, 1.5)
        assert gt == pytest.approx(2.0, abs=1e-6)
        assert ci == pytest.approx(2.0, abs=1e-6)

    def test_too_singular_diverges(self):
        gt, _ = compute_decr_constants(coefficient_from_text("r^-3"), 0.5, 2.0)
        assert gt == math.inf

    # numeric coefficients, which take the grid suprema
    @pytest.mark.parametrize("text", ["1/(1+r^2)", "1/(2+r^2)"])
    def test_default_candidates_computes_only_c_inf(self, text, monkeypatch):
        # gamma_theta does not depend on alpha, so the candidate search skips it
        calls = []
        real = regime._sup_on_grid
        monkeypatch.setattr(regime, "_sup_on_grid", lambda *args: (calls.append(args[1:]), real(*args))[1])
        assert default_candidates(coefficient_from_text(text), None, None) == (0.5, 2.0)
        assert calls == [regime._FROM_ONE]

    def test_candidates_evaluate_a_once_on_the_grid(self, monkeypatch):
        # (1+r^2)^-0.6 ~ r^-1.2 tries alpha = 2.0, 1.9, ..., 1.2: nine grid
        # suprema, which took nine evaluations of a on the same 2048 points
        text = "(1+r^2)^-0.6"
        reference = coefficient_from_text(text)
        alphas = [float(a) for a in np.arange(2.0, 0.5 / 1.5, -0.1)[:9]]
        expected = [regime._weighted_sup(reference, alpha, regime._FROM_ONE) for alpha in alphas]
        assert [math.isfinite(v) for v in expected] == [False] * 8 + [True]
        sizes = []
        real = expr.evaluate
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "smolpois" and vars(module).get("evaluate") is real:
                monkeypatch.setattr(module, "evaluate", lambda tree, r: (sizes.append(np.size(r)), real(tree, r))[1])
        c = coefficient_from_text(text)
        assert default_candidates(c, None, None) == (0.5, alphas[-1])
        assert sizes.count(regime._GRID_POINTS) == 1
        assert c.weighted_suprema == {(alpha, regime._FROM_ONE): v for alpha, v in zip(alphas, expected)}
        assert repr(compute_decr_constants(c, 0.5, alphas[-1])[1]) == repr(expected[-1])

    @pytest.mark.parametrize("text", ["1/(1+r^2)", "1/(2+r^2)"])
    def test_design_reuses_the_candidate_suprema(self, text, monkeypatch):
        # one grid supremum per distinct (exponent, interval): C_inf at the
        # accepted alpha = 2 for the candidates, then gamma_theta at 2 + theta
        # for the design, which takes C_inf from the candidates
        calls = []
        real = regime._sup_on_grid
        monkeypatch.setattr(regime, "_sup_on_grid", lambda *args: (calls.append(args[1:]), real(*args))[1])
        c = coefficient_from_text(text)
        theta, alpha = default_candidates(c, None, None)
        design = design_blowup(c, 1.0, theta, alpha)
        design_blowup(c, 1.1, theta, alpha)
        assert calls == [regime._FROM_ONE, regime._UNIT_INTERVAL]
        fresh = coefficient_from_text(text)
        assert design.c_infinity == real(regime._weighted_a(fresh, alpha), *regime._FROM_ONE)
        assert design.gamma_theta == real(regime._weighted_a(fresh, 2.0 + theta), *regime._UNIT_INTERVAL)

    def test_parameter_range_enforced(self):
        c = coefficient_from_text("(1+r)^-2")
        with pytest.raises(RegimeError):
            compute_decr_constants(c, -0.1, 1.0)
        with pytest.raises(RegimeError):
            compute_decr_constants(c, 0.5, 2.5)
        with pytest.raises(RegimeError):
            compute_decr_constants(c, 0.5, 0.3)  # below theta/(1+theta) = 1/3


class TestClassify:
    def test_global_clause(self):
        report = classify(coefficient_from_text("(1+r)^-1"))
        assert report.clause == "global"
        assert not report.tail_integrable

    def test_blowup_via_gamma(self):
        report = classify(coefficient_from_text("(1+r)^-2"))
        assert report.clause == "blowup-via-(1)"
        assert report.gamma == pytest.approx(0.5, abs=1e-6)

    def test_blowup_via_decay_pair(self):
        report = classify(coefficient_from_text("(1+r)*r^-2.5"), theta=0.5, alpha=1.5)
        assert report.clause == "blowup-via-(decr)"
        assert report.gamma == math.inf
        assert report.gamma_theta == pytest.approx(2.0, abs=1e-6)
        assert report.c_infinity == pytest.approx(2.0, abs=1e-6)

    def test_default_candidates(self):
        # alpha defaults to the largest admissible value with finite C_inf
        report = classify(coefficient_from_text("(1+r)*r^-2.5"))
        assert report.clause == "blowup-via-(decr)"
        assert report.theta == 0.5
        assert report.alpha == 1.5

    def test_constant_coefficient_global(self):
        assert classify(coefficient_from_text("1")).clause == "global"

    def test_clause_consistency_invariants(self):
        for text in ("(1+r)^-1", "(1+r)^-2", "(1+r)*r^-2.5", "1"):
            report = classify(coefficient_from_text(text))
            if report.clause == "global":
                assert not report.tail_integrable
            if report.clause.startswith("blowup"):
                assert report.tail_integrable

    def test_deterministic(self):
        reports = [classify(coefficient_from_text("(1+r)^-2")) for _ in range(10)]
        assert all(r == reports[0] for r in reports)

    def test_numeric_expression_global(self):
        report = classify(coefficient_from_text("(1+r)/(2+r)"))
        assert report.clause == "global"
        assert report.source == "numeric"


@pytest.fixture(scope="module")
def majorant():
    return build_majorant(coefficient_from_text("(1+r)^-2"))


@pytest.fixture(scope="module")
def design():
    return design_blowup(coefficient_from_text("(1+r)^-2"), 1.0, 0.5, 2.0, n_y=400)


class TestMajorant:

    def test_slopes_closed_form(self, majorant):
        # b_i = int_{2^i}^inf (1+s)^-2 ds = 1/(1+2^i)
        for i, b in enumerate(majorant.slopes):
            assert b == pytest.approx(1.0 / (1.0 + 2.0**i), abs=1e-10)

    def test_value_on_first_branch(self, majorant):
        assert majorant(1.0) == pytest.approx(1.0, abs=1e-10)

    def test_value_on_second_branch(self, majorant):
        # B(3) = 3 b_1 + (b_0 - b_1) * 2 + gamma = 1 + 1/3 + 1/2
        assert majorant(3.0) == pytest.approx(11.0 / 6.0, abs=1e-10)

    def test_value_at_origin_is_gamma(self, majorant):
        assert majorant(0.0) == majorant.gamma

    def test_continuity_at_breakpoints(self, majorant):
        for i in range(1, 20):
            r = 2.0**i
            below = majorant(r * (1.0 - 1e-12))
            above = majorant(r * (1.0 + 1e-12))
            assert below == pytest.approx(above, rel=1e-9)

    def test_verification_passes(self, majorant):
        coeff = coefficient_from_text("(1+r)^-2")
        report = verify_majorant(coeff, majorant)
        assert report.passed
        assert report.slopes_decreasing
        assert report.nonnegative_ok
        assert report.domination_min_slack >= 0.0
        assert report.sublinear_value <= report.sublinear_bound

    def test_verification_catches_offset_error(self, majorant):
        # offsets accumulated with 2^{j+2} in place of 2^{j+1} for j >= 1 only
        # raise B, so domination and the sublinear surrogate still hold; the
        # branches no longer meet at r = 4, 8, ...
        coeff = coefficient_from_text("(1+r)^-2")
        b = majorant.slopes
        offsets = [0.0]
        for j in range(majorant.i_max):
            offsets.append(offsets[-1] + (b[j] - b[j + 1]) * 2.0 ** (j + 1 + (j >= 1)))
        broken = ConcaveMajorant(gamma=majorant.gamma, slopes=b, offsets=tuple(offsets))
        report = verify_majorant(coeff, broken)
        assert not report.passed
        assert report.continuity_gap > 1e-3
        assert report.domination_min_slack >= 0.0
        assert report.sublinear_value <= report.sublinear_bound
        assert verify_majorant(coeff, majorant).continuity_gap <= 1e-12

    def test_domination_example(self, majorant):
        # -r A(r) = 0.75 at r = 3, below B(3) = 11/6
        assert majorant(3.0) >= 0.75

    def test_requires_hypotheses(self):
        from smolpois.coefficient import TailDivergenceError

        with pytest.raises(TailDivergenceError):
            build_majorant(coefficient_from_text("(1+r)^-1"))
        with pytest.raises(RegimeError):
            build_majorant(coefficient_from_text("(1+r)*r^-2.5"))


class TestDesign:
    def test_q_selection(self, design):
        # constraint floor max(3.5, 6.5/2.5) = 3.5; exceed by 0.5, one decimal
        assert design.q == 4.0

    def test_eps_selection(self, design):
        # q(q+1)/M^2 * 1/(1+1/eps) <= 1/2 forces eps <= 1/39: largest dyadic 2^-6
        assert design.eps_m == 2.0**-6

    def test_mu_m_value(self, design):
        # 1 + 128 + 16 + 64*(2/3) + 8*(4/9) + 1/4 + 16 with psi(0) = -1/2
        expected = 1.0 + 128.0 + 16.0 + 64.0 * (2.0 / 3.0) + 8.0 * (4.0 / 9.0) + 0.25 + 16.0
        assert design.mu_m == pytest.approx(expected, rel=1e-12)
        assert design.mu_m == pytest.approx(207.47222222222223, rel=1e-12)

    def test_c1_value(self, design):
        assert design.c1 == pytest.approx(4.0 / 15.0, rel=1e-12)

    def test_c2_value(self, design):
        # q(q-1)(gamma_theta - psi(0) + eps)/eps with gamma_theta = 1/4
        expected = 12.0 * (0.25 + 0.5 + 2.0**-6) / 2.0**-6
        assert design.c2 == pytest.approx(expected, rel=1e-6)

    def test_invariants(self, design):
        design.validate()
        assert design.k0 > 1.0
        assert design.mu_m > 0.0
        assert design.lambda_m_q0 < 0.0
        cap = min(1.0, 2.0, 2.0 ** (-1.0 / design.q))
        assert 0.0 < design.delta < cap

    def test_lambda_at_zero(self, design):
        # both m-terms vanish: Lambda(0) = -M^{q+1}/(2(q+1)) = -1/10
        assert design.lambda_value(0.0) == pytest.approx(-0.1, rel=1e-12)

    def test_lambda_monotone(self, design):
        rng = np.random.default_rng(8)
        ms = np.sort(rng.uniform(0.0, 1.0, 30))
        values = [design.lambda_value(float(m)) for m in ms]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_lambda_negative_at_start(self, design):
        assert design.lambda_value(design.m_q0) == design.lambda_m_q0 < 0.0

    def test_search_trace_lambda_nonincreasing(self, design):
        lams = [lam for _, _, lam in design.search_trace]
        assert all(a >= b for a, b in zip(lams, lams[1:]))

    def test_trace_ends_with_accepted_delta(self, design):
        deltas = [d for d, _, _ in design.search_trace]
        assert deltas[-1] == design.delta

    def test_decr_coefficient_design(self):
        design = design_blowup(coefficient_from_text("(1+r)*r^-2.5"), 1.0, 0.5, 1.5, n_y=400)
        design.validate()
        assert design.q == pytest.approx(4.3)
        assert design.lambda_m_q0 < 0.0

    def test_requires_finite_constants(self):
        with pytest.raises(RegimeError):
            design_blowup(coefficient_from_text("r^-3"), 1.0, 0.5, 2.0)

    def test_shifted_design_takes_exact_potentials(self):
        # a = (2+r)^-2: psi(f) = f/(1+2f) - 1/3 and, from the partial fractions
        # of 1/(s(2+s)^2), psi1(f) = ln(1/3)/4 + 1/6 + log1p(2f)/4 - f/(2(1+2f))
        class Exact:
            def psi(self, f):
                return f / (1.0 + 2.0 * f) - 1.0 / 3.0

            def psi1(self, f):
                return math.log(1.0 / 3.0) / 4.0 + 1.0 / 6.0 + np.log1p(2.0 * f) / 4.0 - f / (2.0 * (1.0 + 2.0 * f))

        c = coefficient_from_text("(2+r)^-2")
        design = design_blowup(c, 1.0, *default_candidates(c, None, None))
        assert design.delta == 0.0065695032441696445  # the certify gate's reference
        f0 = pam_profile(1.0, design.q, design.delta, design.n_y)
        assert design.lyap_f0 == pytest.approx(lyapunov_L1(Exact(), f0, 1.0), rel=1e-12, abs=0.0)

    def test_requires_integrable_tail(self):
        from smolpois.coefficient import TailDivergenceError

        with pytest.raises(TailDivergenceError):
            design_blowup(coefficient_from_text("(1+r)^-1"), 1.0, 0.5, 2.0)


class TestStartMoment:
    def test_closed_form_value(self):
        # (2(1 - 1e-4)/30 + 1/5) * 1e-4 at M=1, q=4, delta=0.1
        assert moment_at_start(1.0, 4.0, 0.1) == pytest.approx(2.66660e-5, rel=1e-10)

    def test_against_fine_grid_quadrature(self):
        # independent oracle: discrete moment of the spike profile
        f0 = pam_profile(1.0, 4.0, 0.1, 100_000)
        oracle = moment_mq(f0, 4.0)
        assert moment_at_start(1.0, 4.0, 0.1) == pytest.approx(oracle, rel=1e-4)

    def test_decreases_with_delta(self):
        values = [moment_at_start(1.0, 4.0, d) for d in (0.2, 0.1, 0.05, 0.01)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSelectDelta:
    def test_accepted_delta_within_cap(self):
        pot = Potentials(coefficient_from_text("(1+r)^-2"))
        delta, k0, lyap, mq0, lam, trace = select_delta(
            pot, 1.0, 4.0, 0.5, 207.47222222222223, 588.0, n_y=400
        )
        cap = min(1.0, 2.0, 2.0**-0.25)
        assert 0.0 < delta < cap
        assert lam < 0.0
        assert k0 > 1.0

    def test_exhaustion_reports_trace(self):
        pot = Potentials(coefficient_from_text("(1+r)^-2"))
        with pytest.raises(DesignFailure) as err:
            select_delta(pot, 1.0, 4.0, 0.5, 207.47, 1e30, n_y=100)
        assert len(err.value.trace) > 10


class TestDeltaCap:
    """The spike profile, the delta search and the certificate check share
    one cap min(1, 2M, (2M)^(-1/q)); the masses make each term of the min
    the active one."""

    CASES = [(M, q) for M in (0.25, 0.5, 1.0, 4.0) for q in (3.6, 5.1)]

    def test_every_branch_is_active(self):
        active = set()
        for M, q in self.CASES:
            cap = delta_cap(M, q)
            active.update(i for i, term in enumerate((1.0, 2.0 * M, (2.0 * M) ** (-1.0 / q))) if term == cap)
        assert active == {0, 1, 2}

    @pytest.mark.parametrize("M, q", CASES)
    def test_pam_profile_admits_below_the_cap_only(self, M, q):
        cap = delta_cap(M, q)
        with pytest.raises(FieldError):
            pam_profile(M, q, cap, 64)
        pam_profile(M, q, np.nextafter(cap, 0.0), 64)

    @pytest.mark.parametrize("M, q", CASES)
    def test_search_starts_at_a_quarter_of_the_cap(self, M, q):
        pot = Potentials(coefficient_from_text("(1+r)^-2"))
        with pytest.raises(DesignFailure) as err:
            select_delta(pot, M, q, 0.5, 207.47, 1e30, n_y=64)
        assert err.value.trace[0][0] == delta_cap(M, q) / 4.0

    @pytest.mark.parametrize("M, q", CASES)
    def test_validate_admits_below_the_cap_only(self, design, M, q):
        cap = delta_cap(M, q)
        with pytest.raises(RegimeError, match="^delta="):
            dataclasses.replace(design, M=M, q=q, delta=cap).validate()
        dataclasses.replace(design, M=M, q=q, delta=float(np.nextafter(cap, 0.0))).validate()


# --- the scalar loops the batched regime path replaced, kept as the reference ---

CERTIFY = ("(1+r)^-2", "(1+r)*r^-2.5", "(1+r)^-1", "(2+r)^-2", "exp(-r)", "1/(2+r)", "1/(1+r^2)", "(1+r)^-3")
EXP_ERROR = "coefficient not positive at r=745.5835819317275"


def _scalar_cells(f, left, right, atol=quadrature.DEFAULT_ATOL):
    return np.array([integrate(f, a, b, atol=atol) for a, b in zip(left, right)])


def _pointwise_refine_max(phi, lo, hi):
    """The refinement's rounds with phi evaluated one point at a time: 65
    evenly spaced points of the bracket, the best value kept, the next round
    on the two cells around the first best point, until those two cells
    hold no float that this round did not evaluate."""
    best = -math.inf
    for _ in range(regime._REFINE_ROUNDS):
        xs = np.linspace(lo, hi, 65).tolist()
        vals = [float(phi(x)) for x in xs]
        j = vals.index(max(vals))
        best = max(best, vals[j])
        cells = xs[max(j - 1, 0):j + 2]
        if all(math.nextafter(x, math.inf) >= y for x, y in zip(cells, cells[1:])):
            break
        lo, hi = cells[0], cells[-1]
    return best


def _scalar_sup_on_grid(phi, lo, hi, corner):
    grid = np.geomspace(lo, hi, 2048)
    vals = np.array([phi(r) for r in grid])
    if corner == "left":
        corner_mask = grid < lo * 10.0
        next_mask = (grid >= lo * 10.0) & (grid < lo * 100.0)
    else:
        corner_mask = grid > hi / 10.0
        next_mask = (grid <= hi / 10.0) & (grid > hi / 100.0)
    m_corner = float(vals[corner_mask].max())
    m_next = float(vals[next_mask].max())
    if m_corner > 10.0 * m_next:
        return math.inf
    imax = int(np.argmax(vals))
    if bool(corner_mask[imax]) and m_corner > m_next * (1.0 + 1e-3):
        return math.inf
    a = grid[max(imax - 1, 0)]
    b = grid[min(imax + 1, grid.size - 1)]
    return max(float(vals[imax]), _pointwise_refine_max(phi, float(a), float(b)))


def _scalar_gamma_numeric(c):
    lo, hi = 1e-8, 1.0 - 1e-15
    grid = np.geomspace(lo, hi, 2048)
    tails = np.empty(2048)
    tails[-1] = -c.tail_integral(float(grid[-1]))
    for k in range(2046, -1, -1):
        tails[k] = tails[k + 1] + integrate(c, float(grid[k]), float(grid[k + 1]))
    vals = grid * tails
    corner_mask = grid < lo * 10.0
    next_mask = (grid >= lo * 10.0) & (grid < lo * 100.0)
    m_corner = float(vals[corner_mask].max())
    m_next = float(vals[next_mask].max())
    if m_corner > 10.0 * m_next:
        return math.inf
    imax = int(np.argmax(vals))
    if bool(corner_mask[imax]) and m_corner > m_next * (1.0 + 1e-3):
        return math.inf

    def phi(r):
        k = int(np.searchsorted(grid, r))
        if k >= 2048:
            return r * -c.tail_integral(r)
        return r * (tails[k] + integrate(c, r, float(grid[k])))

    a = grid[max(imax - 1, 0)]
    b = grid[min(imax + 1, grid.size - 1)]
    return max(float(vals[imax]), _pointwise_refine_max(phi, float(a), float(b)))


# the knots 2^(k/8) and 2^(-k/8), k = 0 ... 8600, of the potentials' tables,
# each with its keys sign * knot, which increase with k
with np.errstate(over="ignore"):
    _KNOTS = {sign: np.exp2(sign * np.arange(8601) / 8).tolist() for sign in (1, -1)}
_KNOT_KEYS = {sign: [sign * x for x in knots] for sign, knots in _KNOTS.items()}


def _scalar_tabulated(self, name, g, r_arr):
    """Potentials._tabulated point by point over the same knots: C(p_k) as
    the running sum of one integrate per cell, plus one integrate on the
    partial panel [p_k, p] of each point."""
    sums = {1: [0.0], -1: [0.0]}
    out = []
    for p in (1.0 / r_arr.ravel()).tolist():
        sign = 1 if p >= 1.0 else -1
        knots = _KNOTS[sign]
        k = bisect.bisect_right(_KNOT_KEYS[sign], sign * p) - 1  # the last knot from 1 toward p
        running = sums[sign]
        while len(running) <= k:
            j = len(running)
            running.append(running[-1] + integrate(g, knots[j - 1], knots[j], atol=quadrature.DEFAULT_ATOL))
        out.append(-(running[k] + integrate(g, knots[k], p, atol=quadrature.DEFAULT_ATOL)))
    return np.array(out).reshape(r_arr.shape)


def _regime_outputs(text, masses):
    """repr of every regime result for one coefficient, or the error raised;
    the candidate search runs, as in a certificate pass, for blowup clauses."""
    c = coefficient_from_text(text)
    out = []

    def record(fn, *args):
        try:
            result = fn(*args)
        except Exception as err:
            result = f"{type(err).__name__}: {err}"
        out.append(repr(result))
        return result

    record(compute_gamma, c)
    report = record(classify, c)
    pair = (0.5, 2.0)
    if report.clause.startswith("blowup"):
        pair = record(default_candidates, c, None, None)
        if isinstance(pair, str):
            return out
    record(compute_decr_constants, c, *pair)
    for mass in masses:
        design = record(design_blowup, c, mass, *pair)
        if not isinstance(design, str):
            out.append(repr(design.search_trace))
    return out


def _certify_pass(coefficients):
    """The certify benchmark operation at M = 1 on parsed coefficients."""
    for c in coefficients:
        try:
            if classify(c).clause.startswith("blowup"):
                design_blowup(c, 1.0, *default_candidates(c, None, None))
        except CoefficientError as err:
            assert c.text == "exp(-r)" and str(err) == EXP_ERROR


class TestBatchedRegimePath:
    """The batched grid and cell sweeps give what the scalar loops gave."""

    # the certify coefficients, and a power product whose gamma takes the sweep
    @pytest.mark.parametrize("text", CERTIFY + ("r^0.5*(3+r)^-2",))
    def test_equals_scalar_loops(self, text, monkeypatch):
        masses = (1.0, 0.93, 1.07)
        with monkeypatch.context() as m:
            m.setattr(regime, "_sup_on_grid", _scalar_sup_on_grid)
            m.setattr(regime, "_gamma_numeric", _scalar_gamma_numeric)
            m.setattr(Potentials, "_tabulated", _scalar_tabulated)
            m.setattr(quadrature, "integrate_cells", _scalar_cells)
            reference = _regime_outputs(text, masses)
        assert _regime_outputs(text, masses) == reference

    def test_underflow_error_kept(self):
        c = coefficient_from_text("exp(-r)")
        with pytest.raises(CoefficientError, match=re.escape(EXP_ERROR)):
            default_candidates(c, None, None)
        with pytest.raises(CoefficientError, match=re.escape(EXP_ERROR)):
            compute_decr_constants(c, 0.5, 2.0)

    def test_numeric_certificate_evaluation_budget(self, monkeypatch):
        c = coefficient_from_text("1/(1+r^2)")
        calls = []
        real = expr.evaluate
        monkeypatch.setattr(expr, "evaluate", lambda *a, **k: (calls.append(1), real(*a, **k))[1])
        classify(c)
        theta, alpha = default_candidates(c, None, None)
        design_blowup(c, 1.0, theta, alpha)
        # 12100 with one evaluate call per grid point and per cell; 971
        # (against a bound of 2000) with two calls per bisection; 644 with
        # 64 cells per call and an adaptive quadrature per potential cell;
        # 284 with a scalar golden-section search and knot tables grown to
        # each request; 91 with one psi~ call per eps_M and one psi and one
        # psi1 call per delta
        assert len(calls) <= 60

    def test_design_potential_calls(self, monkeypatch):
        # eps_M takes one round of psi~, mu_M one psi~(2/M), and delta one
        # round of psi and psi1: 15 and 8 calls with one call per level
        c = coefficient_from_text("1/(1+r^2)")
        theta, alpha = default_candidates(c, None, None)
        calls = {"psi": 0, "psi1": 0}
        for name in calls:
            real = getattr(Potentials, name)

            def counted(self, r, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, r)

            monkeypatch.setattr(Potentials, name, counted)
        design = design_blowup(c, 1.0, theta, alpha)
        assert len(design.search_trace) == 8
        assert calls == {"psi": 3, "psi1": 1}

    def test_second_certify_pass_builds_no_grid(self, monkeypatch):
        # the two supremum grids are built on first use and then shared: ten
        # np.geomspace calls per certify pass before
        regime._log_grid.cache_clear()
        calls = []
        real = np.geomspace
        monkeypatch.setattr(np, "geomspace", lambda *a, **k: (calls.append(a), real(*a, **k))[1])
        for passes in (2, 0):
            coefficients = [coefficient_from_text(text) for text in CERTIFY]
            calls.clear()
            _certify_pass(coefficients)
            assert len(calls) == passes

    def test_certify_pass_evaluation_budget(self, monkeypatch):
        # the certify benchmark operation at M = 1; each callable is counted
        # in every smolpois module that holds it, as the benchmark tracer does
        counts = {}
        for owner, attr in ((expr, "evaluate"), (quadrature, "integrate")):
            real = getattr(owner, attr)

            def counted(*args, _real=real, _attr=attr, **kwargs):
                counts[_attr] += 1
                return _real(*args, **kwargs)

            counts[attr] = 0
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "smolpois" and vars(module).get(attr) is real:
                    monkeypatch.setattr(module, attr, counted)
        _certify_pass(coefficient_from_text(text) for text in CERTIFY)
        # 2122 and 337 while Potentials also computed psi1(0); 1942 evaluate
        # calls (against a bound of 2077) with two calls per bisection; 754
        # and 183 with 64 cells per call and no knot table; 363 and 145
        # with every cell in one call, 2 more now that the 2047-cell gamma
        # sweeps of exp(-r) and 1/(1+r^2) take two blocks of 1024 each;
        # 114 and 12 with refinements in array rounds and knot tables that
        # grow to twice their size; 83 and 12 with the eps_M and delta
        # searches in rounds of eight levels
        assert counts["evaluate"] <= 83
        assert counts["integrate"] <= 12


# --- the level-by-level design searches the rounds replaced, kept as the reference ---


def _sequential_choose_eps(p, M, q):
    """regime._choose_eps with one psi~ call per dyadic eps, down to 2^-1022."""
    budget = 0.5 * M**2 / (q * (q + 1.0))
    for k in range(1, 1023):
        eps = 2.0**-k
        if p.psi_tilde(eps) <= budget:
            return eps
    raise RegimeError("no dyadic eps_M satisfied the tail-smallness condition")


def _sequential_select_delta(p, M, q, theta, mu_m, c2, n_y=400):
    """regime.select_delta with one psi and one psi1 call per halving level."""
    cap = regime.delta_cap(M, q)
    trace = []
    k = 1
    while True:
        delta = cap * 2.0**-k / 2.0
        if delta < regime.DELTA_FLOOR:
            raise DesignFailure(
                f"no certificate delta above {regime.DELTA_FLOOR:g}; Lambda stayed nonnegative",
                tuple(trace),
            )
        f0 = pam_profile(M, q, delta, n_y)
        lyap = lyapunov_L1(p, f0, M)
        k0 = corollary_square(lyap, M, mu_m) ** (1.0 / (2.0 * (2.0 + theta)))
        mq0 = moment_at_start(M, q, delta)
        lam = regime._lambda(M, q, theta, c2, k0, mq0)
        trace.append((delta, k0, lam))
        if lam < 0.0:
            return delta, k0, lyap, mq0, lam, tuple(trace)
        k += 1


def _design_outcome(text, M):
    """repr of the design and its search trace, or the error raised and, for
    a DesignFailure, its trace."""
    c = coefficient_from_text(text)
    try:
        design = design_blowup(c, M, *default_candidates(c, None, None))
    except DesignFailure as err:
        return f"DesignFailure: {err}", repr(err.trace)
    except Exception as err:
        return f"{type(err).__name__}: {err}", None
    return repr(design), repr(design.search_trace)


def _outcome(call, *args):
    try:
        return repr(call(*args))
    except Exception as err:
        return f"{type(err).__name__}: {err}"


class _PsiLimited(Potentials):
    """Potentials whose psi raises on any point outside [lo, hi], naming the
    point nearest the violated bound."""

    def __init__(self, coefficient, lo=0.0, hi=math.inf):
        super().__init__(coefficient)
        self.lo, self.hi = lo, hi

    def psi(self, r):
        if np.min(r) < self.lo:
            raise FloatingPointError(f"psi at r={float(np.min(r))!r}")
        if np.max(r) > self.hi:
            raise FloatingPointError(f"psi at r={float(np.max(r))!r}")
        return super().psi(r)


# select_delta's arguments for (1+r)^-2 at M = 1 (TestSelectDelta): the search
# accepts its 7th level, inside the first round of eight
_SEARCH_ARGS = (1.0, 4.0, 0.5, 207.47222222222223, 588.0)


class TestSearchRounds:
    """The eps_M and delta searches in rounds of eight levels give, bit for
    bit, what one call per level gave, and raise what it raised."""

    @pytest.mark.parametrize("M", (0.01, 0.1, 1.0, 10.0))
    @pytest.mark.parametrize("text", CERTIFY + ("1/(2+r^2)", "r^0.5*(3+r)^-2", "(1+r)^-1.1", "(1+r)^-1.01"))
    def test_equals_sequential_search(self, text, M, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(regime, "_choose_eps", _sequential_choose_eps)
            m.setattr(regime, "select_delta", _sequential_select_delta)
            reference = _design_outcome(text, M)
        assert _design_outcome(text, M) == reference

    def test_cases_cover_failures_and_two_rounds(self):
        c = coefficient_from_text("(1+r)*r^-2.5")
        assert len(design_blowup(c, 1.0, *default_candidates(c, None, None)).search_trace) == 10
        c = coefficient_from_text("(1+r)^-2")
        with pytest.raises(DesignFailure):
            design_blowup(c, 0.01, *default_candidates(c, None, None))
        # eps_M ~ 1e-70 lies below 2^-199, the old end of the eps_M levels
        c = coefficient_from_text("(1+r)^-1.1")
        with pytest.raises(DesignFailure) as err:
            design_blowup(c, 0.01, *default_candidates(c, None, None))
        assert len(err.value.trace) == 19
        # eps_M ~ 1e-800 is not a double
        c = coefficient_from_text("(1+r)^-1.01")
        with pytest.raises(RegimeError, match="no dyadic eps_M"):
            design_blowup(c, 0.01, *default_candidates(c, None, None))

    def test_no_level_above_the_floor(self):
        # at M = 1e-300 the cap 2M puts the first level, cap/4, below
        # DELTA_FLOOR: no delta is tried, and the reason names the cap
        c = coefficient_from_text("(1+r)^-2")
        with pytest.raises(DesignFailure) as err:
            design_blowup(c, 1e-300, *default_candidates(c, None, None))
        assert err.value.trace == ()
        assert str(err.value) == (
            "no certificate delta above 1e-08; delta_cap(M, q) = 2e-300 puts the first level, cap/4, below it"
        )

    def _profile_max(self, level):
        M, q = _SEARCH_ARGS[:2]
        return float(pam_profile(M, q, delta_cap(M, q) * 2.0**-level / 2.0, 400).values.max())

    @pytest.mark.parametrize("raising", ("after", "at"))
    def test_select_delta_fallback(self, raising):
        c = coefficient_from_text("(1+r)^-2")
        accepted = len(_sequential_select_delta(Potentials(c), *_SEARCH_ARGS)[-1])
        assert accepted == 7
        # psi raises from the level after the accepted one, or from the
        # accepted one itself; the levels before it always evaluate
        first_raising = accepted + 1 if raising == "after" else accepted
        hi = 0.5 * (self._profile_max(first_raising - 1) + self._profile_max(first_raising))
        got = _outcome(select_delta, _PsiLimited(c, hi=hi), *_SEARCH_ARGS)
        assert got == _outcome(_sequential_select_delta, _PsiLimited(c, hi=hi), *_SEARCH_ARGS)
        if raising == "after":
            assert got == repr(_sequential_select_delta(Potentials(c), *_SEARCH_ARGS))
        else:
            assert got == f"FloatingPointError: psi at r={self._profile_max(accepted)!r}"

    @pytest.mark.filterwarnings("ignore:divide by zero encountered")
    @pytest.mark.parametrize(
        "M, q, n_y, caps, message, judged",
        [
            (1.0, 4.0, 1, {}, "f needs a 1D array of at least 2 samples", 0),
            # the profiles' cap 16 times below the search's: its first level is outside
            (
                1.0, 4.0, 400, {transform: lambda M, q: delta_cap(M, q) / 16.0},
                "delta=0.21022410381342863 outside the admissible range (0, 0.052556025953357156)", 0,
            ),
            # delta^50 underflows to 0 at level 21, the fifth of the third round
            (1.0, 50.0, 64, {}, "f samples must be positive and finite", 20),
            # a cap of 1 admits delta > 2M, where the continuum sup exceeds 2/delta
            (
                0.01, 4.0, 400, {regime: lambda M, q: 1.0, transform: lambda M, q: 1.0},
                "spike profile exceeded its analytic sup bound", 0,
            ),
        ],
        ids=["samples", "range", "positive", "sup-bound"],
    )
    def test_profile_errors_at_the_same_level(self, M, q, n_y, caps, message, judged, monkeypatch):
        c = coefficient_from_text("(1+r)^-2")
        for module, cap in caps.items():
            monkeypatch.setattr(module, "delta_cap", cap)
        counted = []
        real_lambda = regime._lambda
        monkeypatch.setattr(regime, "_lambda", lambda *args: (counted.append(args[-1]), real_lambda(*args))[1])
        outcomes = []
        for search in (_sequential_select_delta, select_delta):
            counted.clear()
            # c2 = inf keeps Lambda(m_q(0)) from going negative
            outcomes.append((_outcome(search, Potentials(c), M, q, 0.5, 207.47, math.inf, n_y), list(counted)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[1][0] == f"FieldError: {message}"
        assert len(outcomes[1][1]) == judged

    @pytest.mark.parametrize("start", (1, 9, 25))
    @pytest.mark.parametrize("M, q", ((1.0, 4.0), (0.1, 6.2), (5.0, 5.1)))
    @pytest.mark.parametrize("text", ("(1+r)^-2", "(1+r)*r^-2.5", "(2+r)^-2", "1/(1+r^2)"))
    def test_round_lyapunov_equals_per_level(self, text, M, q, start):
        p = Potentials(coefficient_from_text(text))
        deltas = [delta_cap(M, q) * 2.0**-k / 2.0 for k in range(start, start + regime._SEARCH_ROUND)]
        values = regime._spike_lyapunov(p, M, q, deltas, 400)
        assert values == [lyapunov_L1(p, pam_profile(M, q, delta, 400), M) for delta in deltas]
        assert all(type(value) is float for value in values)

    @pytest.mark.parametrize("raising", ("after", "at"))
    def test_choose_eps_fallback(self, raising):
        c = coefficient_from_text("(1+r)^-2")
        M, q = _SEARCH_ARGS[:2]
        eps = _sequential_choose_eps(Potentials(c), M, q)
        assert eps == 2.0**-6
        # psi~(eps) is psi(eps) - psi(0): psi raises below 2^-6.5 (from the
        # level after the accepted one) or below 2^-5.5 (from the accepted one)
        lo = eps * 2.0**-0.5 if raising == "after" else eps * 2.0**0.5
        got = _outcome(regime._choose_eps, _PsiLimited(c, lo=lo), M, q)
        assert got == _outcome(_sequential_choose_eps, _PsiLimited(c, lo=lo), M, q)
        assert got == (repr(eps) if raising == "after" else f"FloatingPointError: psi at r={eps!r}")


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(phi, lo, hi):
    """The golden-section search the refinement replaced, kept as the
    reference of its values: the best value seen, stopped once every float
    strictly inside the bracket (a, b) is c or d."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = phi(c), phi(d)
    best = max(fc, fd)
    for _ in range(140):
        inside = math.nextafter(a, b)
        while inside < b and (inside == c or inside == d):
            inside = math.nextafter(inside, b)
        if inside >= b:
            break
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = phi(d)
        else:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = phi(c)
        best = max(best, fc, fd)
    return best


# array calls per refinement: 8-9 measured on the certify coefficients and
# 8-10 on two-cell brackets of the supremum grids, against 65-70 scalar calls
# of the golden section
REFINE_CALL_CAP = 10

_REFINE_MAX = regime._refine_max


def _refine_checked(phi, lo, hi):
    """(value, array calls) of one refinement, after checking its contract:
    it returns the best value it saw, which is at least phi at both ends,
    and its last round leaves no float inside the two cells around that
    round's first best point that no round evaluated."""
    rounds = []

    def recorded(x):
        vals = np.asarray(phi(x), dtype=float)
        rounds.append((x.tolist(), vals.tolist()))
        return vals

    value = _REFINE_MAX(recorded, lo, hi)
    assert len(rounds) <= regime._REFINE_ROUNDS
    assert value == max(v for _, vals in rounds for v in vals)
    assert value >= max(np.asarray(phi(np.array([lo, hi])), dtype=float).tolist())
    xs, vals = rounds[-1]
    j = vals.index(max(vals))
    cells = xs[max(j - 1, 0):j + 2]
    seen = {x for points, _ in rounds for x in points}
    inside = math.nextafter(cells[0], math.inf)
    for _ in range(1000):  # the last cells hold at most 2 floats each
        if inside >= cells[-1]:
            break
        assert inside in seen, (lo, hi, inside)
        inside = math.nextafter(inside, math.inf)
    else:
        raise AssertionError(f"more than 1000 floats inside the last cells of {(lo, hi)}")
    return value, len(rounds)


# power products of certify whose gamma is infinite: every supremum on their
# regime path is a closed form, so no refinement runs at all
CLOSED_FORM_ONLY = ("(1+r)*r^-2.5", "(1+r)^-1", "1/(2+r)")


class TestGoldenSectionStop:
    """The refinement in array rounds that replaced the golden-section
    search: its stop contract, and its values against the search's."""

    @pytest.mark.parametrize("text", CERTIFY)
    def test_certify_refinements_equal_reference(self, text, monkeypatch):
        refinements = []

        def checked(phi, lo, hi):
            value, calls = _refine_checked(phi, lo, hi)
            reference = _golden_section_max(lambda r: float(np.asarray(phi(np.array([r])))[0]), lo, hi)
            refinements.append((abs(value - reference) / math.ulp(reference), calls))
            return value

        monkeypatch.setattr(regime, "_refine_max", checked)
        _regime_outputs(text, (1.0,))
        if text in CLOSED_FORM_ONLY:
            assert refinements == []
            return
        assert refinements
        assert max(ulps for ulps, _ in refinements) <= 4.0
        assert max(calls for _, calls in refinements) <= REFINE_CALL_CAP

    @pytest.mark.parametrize(
        "text", [t for t in CERTIFY if isinstance(coefficient_from_text(t), PowerProductCoefficient)]
    )
    def test_decay_constants_of_power_products_skip_the_refinement(self, text, monkeypatch):
        def refused(*args):
            raise AssertionError("decay constants of a power product reached the grid")

        c = coefficient_from_text(text)
        expected = compute_decr_constants(c, 0.5, 2.0)
        monkeypatch.setattr(regime, "_refine_max", refused)
        monkeypatch.setattr(regime, "_sup_on_grid", refused)
        assert compute_decr_constants(coefficient_from_text(text), 0.5, 2.0) == expected

    @pytest.mark.parametrize(
        "phi, end",
        [
            (lambda r: -r, "lo"),                                                  # maximum at lo
            (lambda r: r, "hi"),                                                   # maximum at hi
            (lambda r: np.array([hash(x) % 1009 for x in r.tolist()]) / 1009.0, None),  # differs at every float
        ],
        ids=["max-at-lo", "max-at-hi", "float-noise"],
    )
    def test_grid_brackets(self, phi, end):
        grid = np.geomspace(1e-8, 1e8, 2048)
        for k in range(1, 2047, 23):
            lo, hi = float(grid[k - 1]), float(grid[k + 1])
            value, calls = _refine_checked(phi, lo, hi)
            assert calls <= REFINE_CALL_CAP, (lo, hi)
            if end is not None:
                assert value == phi(np.array({"lo": lo, "hi": hi}[end]))


class TestWeightedA:
    """_weighted_a's array branch equals its scalar branch bit for bit on
    the supremum grids, which np.power in place of Python's float pow
    would break (see its docstring)."""

    @pytest.mark.parametrize("text", ["(1+r)^-2", "1/(1+r^2)"])
    @pytest.mark.parametrize("interval", [regime._UNIT_INTERVAL, regime._FROM_ONE])
    @pytest.mark.parametrize("e", [0.7, 1.9, 2.0, 2.5])
    def test_array_equals_scalar(self, text, interval, e):
        phi = regime._weighted_a(coefficient_from_text(text), e)
        grid = np.geomspace(interval[0], interval[1], regime._GRID_POINTS)
        pointwise = np.array([phi(x) for x in grid.tolist()])
        assert np.asarray(phi(grid), dtype=float).tobytes() == pointwise.tobytes()


def _ulps(value, exact):
    return abs(value - exact) / math.ulp(exact)


class TestPowerProductSuprema:
    """gamma_theta and C_inf of c r^p (b+r)^beta in closed form: phi(1), the
    limit at the open end and phi at the critical point r* = -b k/m."""

    def test_end_point_and_limit_pins(self):
        gt, ci = compute_decr_constants(coefficient_from_text("(1+r)^-2"), 0.5, 2.0)
        assert _ulps(gt, 0.25) <= 1.0
        assert ci == 1.0  # the limit c at infinity, where m = 0
        assert _ulps(compute_decr_constants(coefficient_from_text("(2+r)^-2"), 0.5, 2.0)[0], 1.0 / 9.0) <= 1.0
        assert compute_decr_constants(coefficient_from_text("(1+r)*r^-2.5"), 0.5, 1.5) == (2.0, 2.0)

    def test_critical_point_from_one(self):
        # r^2 (1+r)^-3 peaks at r* = 2 with 4/27
        _, ci = compute_decr_constants(coefficient_from_text("(1+r)^-3"), 0.5, 2.0)
        assert _ulps(ci, 4.0 / 27.0) <= 1.0

    def test_interior_maximum_on_the_unit_interval(self):
        # r^2.5 (0.1+r)^-4 peaks at r* = 0.25/1.5 = 1/6: (1/6)^2.5 (4/15)^-4 = 50625/(9216 sqrt 6)
        with localcontext() as ctx:
            ctx.prec = 40
            exact = float(Decimal(50625) / (Decimal(9216) * Decimal(6).sqrt()))
        gt, _ = compute_decr_constants(coefficient_from_text("(0.1+r)^-4"), 0.5, 2.0)
        assert _ulps(gt, exact) <= 8.0

    def test_exponent_tests_decide_divergence(self):
        # k = e + p < 0 on (0,1), m = k + beta > 0 on [1, inf)
        assert compute_decr_constants(coefficient_from_text("r^-3"), 0.5, 2.0)[0] == math.inf
        assert compute_decr_constants(coefficient_from_text("(1+r)^-1"), 0.5, 2.0)[1] == math.inf

    def test_default_alpha_leaves_the_tail_exactly_flat(self):
        # alpha = -(p + beta) = 1.4; (1.4 - 2.3) + 0.9 rounds to 1.1e-16 > 0,
        # (-2.3 + 0.9) + 1.4 is exactly 0, as in default_candidates
        report = classify(coefficient_from_text("r^-2.3*(1+r)^0.9"))
        assert report.clause == "blowup-via-(decr)"
        assert report.alpha == 1.4
        assert report.c_infinity == 2.0**0.9

    def test_evaluated_candidate_keeps_the_scalar_error(self):
        # a(1) = 1e-300 * 2^-100 underflows to 0
        with pytest.raises(CoefficientError, match=re.escape("coefficient not positive at r=1.0")):
            compute_decr_constants(coefficient_from_text("1e-300*(1+r)^-100"), 0.5, 2.0)

    def test_no_grid_underflow_from_one(self):
        # the [1, 1e8] grid of r^2 a underflows a near 7.4e7; the closed form
        # evaluates a at r = 1 and r* = 2 only
        c = coefficient_from_text("1e-300*(1+r)^-3")
        with pytest.raises(CoefficientError):
            regime._sup_on_grid(regime._weighted_a(c, 2.0), *regime._FROM_ONE)
        assert compute_decr_constants(c, 0.5, 2.0)[1] == 4.0 * 1e-300 * 3.0**-3

    def test_random_products_against_the_grid(self):
        rng = np.random.default_rng(20261019)
        eps = sys.float_info.epsilon
        compared = 0
        for _ in range(800):
            c = 10.0 ** rng.uniform(-3.0, 3.0)
            p, beta, e = rng.uniform(-4.0, 2.0), rng.uniform(-6.0, 3.0), rng.uniform(0.5, 3.0)
            b = 10.0 ** rng.uniform(-1.5, 1.0)
            interval = (regime._UNIT_INTERVAL, regime._FROM_ONE)[int(rng.integers(2))]
            a = PowerProductCoefficient(c, p, beta, b)
            closed = regime._weighted_sup(a, e, interval)
            grid = regime._sup_on_grid(regime._weighted_a(a, e), *interval)
            draw = (c, p, beta, b, e, interval[2])
            if math.isfinite(closed) and math.isfinite(grid):
                compared += 1
                assert closed >= grid * (1.0 - 8.0 * eps), draw
                assert closed == pytest.approx(grid, rel=1e-12), draw
            else:
                # the grid's decade heuristics can miss a slow divergence or
                # flag a far maximum; the exponents decide, here summed
                # exactly so that the check does not share the code's rounding
                k = Fraction(p) + Fraction(e)
                diverges = k < 0 if interval[2] == "left" else k + Fraction(beta) > 0
                assert (closed == math.inf) == diverges, draw
        assert compared >= 400
