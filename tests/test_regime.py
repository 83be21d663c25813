import math

import numpy as np
import pytest

from smolpois.coefficient import Potentials, coefficient_from_text
from smolpois.diagnostics import moment_mq
from smolpois.regime import (
    ConcaveMajorant,
    DesignFailure,
    RegimeError,
    build_majorant,
    classify,
    compute_decr_constants,
    compute_gamma,
    design_blowup,
    lambda_value,
    moment_at_start,
    select_delta,
    verify_majorant,
)
from smolpois.transform import pam_profile


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
    return build_majorant(coefficient_from_text("(1+r)^-2"), i_max=40)


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

    def test_truncation_flag(self, majorant):
        assert majorant.is_truncated_at(2.0**42)
        assert not majorant.is_truncated_at(2.0**40)

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
        assert lambda_value(design, 0.0) == pytest.approx(-0.1, rel=1e-12)

    def test_lambda_monotone(self, design):
        rng = np.random.default_rng(8)
        ms = np.sort(rng.uniform(0.0, 1.0, 30))
        values = [lambda_value(design, float(m)) for m in ms]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_lambda_negative_at_start(self, design):
        assert lambda_value(design, design.m_q0) == design.lambda_m_q0 < 0.0

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
            pot, 1.0, 4.0, 0.5, 2.0**-6, 207.47222222222223, 588.0, n_y=400
        )
        cap = min(1.0, 2.0, 2.0**-0.25)
        assert 0.0 < delta < cap
        assert lam < 0.0
        assert k0 > 1.0

    def test_exhaustion_reports_trace(self):
        pot = Potentials(coefficient_from_text("(1+r)^-2"))
        with pytest.raises(DesignFailure) as err:
            select_delta(pot, 1.0, 4.0, 0.5, 2.0**-6, 207.47, 1e30, n_y=100)
        assert len(err.value.trace) > 10
