import math

import numpy as np
import pytest

from smolpois.coefficient import TailDivergenceError
from smolpois.diagnostics import (
    SIGMA_TOL,
    DiagnosticsRecord,
    check_global_bounds,
    check_lyapunov,
    check_moment_ode,
    check_sigma_comparison,
    psi_tilde_sup_bound,
    energy_E1,
    global_barrier,
    energy_norm_slacks,
    lyapunov_L1,
    lyapunov_interval_slack,
    moment_interval_slack,
    moment_mq,
    mu_mass,
    psi_tilde_max,
    sigma,
)
from smolpois.harness import RunConfig, preset_config
from smolpois.solver import run
from smolpois.transform import FieldF, pam_profile, u_to_f, FieldU


def flat_field(value: float, mass: float, n: int = 400) -> FieldF:
    # bypasses integral normalization: diagnostics accept arbitrary profiles
    return FieldF(values=np.full(n, value), mass=mass)


class TestLyapunov:
    def test_unit_constant_is_zero(self, pot_inv2):
        f = flat_field(1.0, 1.0)
        assert lyapunov_L1(pot_inv2, f, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_constant_profile_closed_form(self, pot_inv2):
        # zero gradient: L1 = M (psi(c) - M psi1(c))
        c, M = 3.0, 2.0
        f = flat_field(c, M)
        expected = M * (pot_inv2.psi(c) - M * pot_inv2.psi1(c))
        assert lyapunov_L1(pot_inv2, f, M) == pytest.approx(expected, rel=1e-12)

    def test_spike_profile_matches_fine_grid_oracle(self, pot_inv2):
        # brute-force refinement oracle: the spike kink concentrates the
        # gradient into a thin band, so agreement to 0.1% needs the refined
        # grids (at 400 cells the discrete energy of the kink is still low)
        fine = pam_profile(1.0, 4.0, 0.1, 100_000)
        finer = pam_profile(1.0, 4.0, 0.1, 200_000)
        v_fine = lyapunov_L1(pot_inv2, fine, 1.0)
        v_finer = lyapunov_L1(pot_inv2, finer, 1.0)
        assert v_fine == pytest.approx(v_finer, rel=1e-3)

    def test_smooth_profile_refinement(self, pot_inv1):
        x = (np.arange(400) + 0.5) / 400
        uf = FieldU.from_samples(1.0 + 0.5 * np.cos(np.pi * x), 1.0)
        f400 = u_to_f(uf, 400)
        f_fine = u_to_f(uf, 100_000)
        assert lyapunov_L1(pot_inv1, f400, 1.0) == pytest.approx(
            lyapunov_L1(pot_inv1, f_fine, 1.0), rel=5e-3
        )


class TestEnergy:
    def test_zero_profile(self):
        assert energy_E1(np.zeros(100), 1.0) == 0.0

    def test_negative_constant(self):
        assert energy_E1(np.full(200, -1.0), 2.0) == pytest.approx(-2.0, rel=1e-14)

    def test_sine_profile_closed_form(self):
        # h = sin(2 pi y), M = 1: (1/2)||h'||^2 = pi^2, negative part = -1/pi;
        # the face-difference convention omits the two boundary half-cells,
        # an O(h) bias for this profile with h'(0) != 0, hence the fine grid
        n = 100_000
        y = (np.arange(n) + 0.5) / n
        h = np.sin(2.0 * np.pi * y)
        expected = math.pi**2 - 1.0 / math.pi
        assert energy_E1(h, 1.0) == pytest.approx(expected, rel=1e-3)

    def test_refinement_agreement(self):
        # standard profile with zero end derivatives: 400 cells vs 100k
        y = (np.arange(400) + 0.5) / 400
        h = np.cos(2.0 * np.pi * y) - 0.3
        y_f = (np.arange(100_000) + 0.5) / 100_000
        h_f = np.cos(2.0 * np.pi * y_f) - 0.3
        assert energy_E1(h, 1.0) == pytest.approx(energy_E1(h_f, 1.0), rel=5e-3)


class TestMoment:
    def test_flat_profile(self):
        # int_0^1 y^4 dy = 1/5 up to the midpoint-rule h^2/6 error
        f = flat_field(1.0, 1.0)
        assert moment_mq(f, 4.0) == pytest.approx(0.2, rel=1e-5)
        assert moment_mq(flat_field(1.0, 1.0, n=100_000), 4.0) == pytest.approx(0.2, rel=1e-9)

    def test_spike_profile_against_closed_form(self):
        from smolpois.regime import moment_at_start

        f = pam_profile(1.0, 4.0, 0.1, 100_000)
        assert moment_mq(f, 4.0) == pytest.approx(moment_at_start(1.0, 4.0, 0.1), rel=1e-4)

    def test_four_hundred_cells_close_to_refined(self):
        f400 = pam_profile(1.0, 4.0, 0.1, 400)
        f_fine = pam_profile(1.0, 4.0, 0.1, 100_000)
        assert moment_mq(f400, 4.0) == pytest.approx(moment_mq(f_fine, 4.0), rel=5e-3)

    def test_needs_positive_order(self):
        with pytest.raises(ValueError):
            moment_mq(flat_field(1.0, 1.0), 0.0)


class TestSigma:
    def test_initial_value(self):
        assert sigma(1.0, 0.5, 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_growth(self):
        assert sigma(1.0, 0.5, 1.0) == pytest.approx(1.0 + math.e, rel=1e-14)

    def test_degenerate_steady(self):
        for t in (0.0, 1.0, 10.0):
            assert sigma(2.0, 2.0, t) == pytest.approx(0.5, rel=1e-15)

    def test_range(self):
        with pytest.raises(ValueError):
            sigma(1.0, 1.5, 0.0)
        with pytest.raises(ValueError):
            sigma(1.0, 0.0, 0.0)


class TestMuAndCorollary:
    def test_mu_value(self, pot_inv2):
        assert mu_mass(pot_inv2, 1.0) == pytest.approx(207.47222222222223, rel=1e-12)

    def test_mu_needs_integrable_tail(self, pot_inv1):
        with pytest.raises(TailDivergenceError):
            mu_mass(pot_inv1, 1.0)

    def test_flat_profile_bound_has_wide_margin(self, pot_inv2):
        # max psi~ = psi~(1) = 1/2 while the bound is at least sqrt(207.47)
        f = flat_field(1.0, 1.0)
        lyap = lyapunov_L1(pot_inv2, f, 1.0)
        bound = psi_tilde_sup_bound(lyap, 1.0, mu_mass(pot_inv2, 1.0))
        observed = psi_tilde_max(pot_inv2.psi(f.values), pot_inv2.psi0)
        assert observed == pytest.approx(0.5, rel=1e-9)
        assert bound >= 14.4
        assert bound - observed > 13.9

    def test_psi_tilde_nonnegative(self, pot_inv2):
        rng = np.random.default_rng(31)
        vals = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 500))
        f = FieldF(values=vals, mass=1.0)
        assert float(np.min(pot_inv2.psi_tilde(f.values))) >= 0.0


def random_unit_profiles(rng, M: float, n: int, count: int):
    y = (np.arange(n) + 0.5) * (M / n)
    for _ in range(count):
        vals = np.full(n, 1.0 / M)
        for k in range(1, 8):
            vals = vals + rng.uniform(-0.08, 0.08) / k * np.cos(k * np.pi * y / M)
        vals = np.maximum(vals, 0.02 / M)
        yield FieldF.from_samples(vals, M)


class TestLemma4:
    def test_flat_profile(self, pot_inv2):
        # h = psi(1/M) constant, zero gradient
        M = 1.0
        f = flat_field(1.0, M)
        s5, s6 = energy_norm_slacks(pot_inv2, f, M)
        assert s5 >= -1e-12
        # for M = 1, psi(1/M) = 0 and h = 0: the norm bound is tight
        assert s6 == pytest.approx(0.0, abs=1e-12)

    def test_random_profiles_nonnegative_slack(self, pot_inv1, pot_inv2):
        rng = np.random.default_rng(32)
        worst = math.inf
        for pot in (pot_inv1, pot_inv2):
            for f in random_unit_profiles(rng, 1.0, 256, 10):
                s5, s6 = energy_norm_slacks(pot, f, 1.0)
                worst = min(worst, s5, s6)
        assert worst >= -1e-8

    def test_spike_family(self, pot_inv2):
        for delta in (0.1, 0.05, 0.01):
            f = pam_profile(1.0, 4.0, delta, 400)
            s5, s6 = energy_norm_slacks(pot_inv2, f, 1.0)
            assert s5 >= -1e-8
            assert s6 >= -1e-8

    def test_off_unit_mass(self, pot_inv2):
        rng = np.random.default_rng(33)
        for f in random_unit_profiles(rng, 2.0, 256, 5):
            s5, s6 = energy_norm_slacks(pot_inv2, f, 2.0)
            assert s5 >= -1e-8
            assert s6 >= -1e-8


def lyapunov_series(l1s):
    """Records at t = 0, 1, 2, ... with the given L1 values and, after the
    first, the interval slack a run records."""
    recs = [DiagnosticsRecord(t=0.0, l1=l1s[0])]
    for l1 in l1s[1:]:
        prev = recs[-1]
        t = prev.t + 1.0
        recs.append(DiagnosticsRecord(t=t, l1=l1, slack_lyapunov=lyapunov_interval_slack(prev.t, prev.l1, t, l1)))
    return recs


def sigma_record(t, f_max, sigma_t):
    return DiagnosticsRecord(t=t, f_max=f_max, sigma_t=sigma_t, slack_sigma=sigma_t + SIGMA_TOL - f_max)


def moment_series(design, points):
    """Records of (t, m_q) with the three moment slacks a run records."""
    lam0 = design.lambda_value(design.m_q0)
    recs = []
    for t, m in points:
        rec = DiagnosticsRecord(t=t, m_q=m, slack_lambda_chain=lam0 - design.lambda_value(m))
        if recs:
            prev = recs[-1]
            rec.slack_m_q_decreasing = prev.m_q - m
            rec.slack_moment_ode = moment_interval_slack(design, prev.t, prev.m_q, t, m)
        recs.append(rec)
    return recs


class StubDesign:
    # the stand-in bound Lambda(m) = m - 1 is monotone with Lambda(m_q0) < 0
    # like the real certificate
    m_q0 = 0.5

    @staticmethod
    def lambda_value(m):
        return m - 1.0


# every check of summary.checks and the record slack it is the minimum of
CHECK_SLACKS = {
    "lyapunov": "slack_lyapunov",
    "sigma_comparison": "slack_sigma",
    "gex5": "slack_gex5",
    "gex6": "slack_gex6",
    "psi_tilde_bound_fixed": "slack_corollary",
    "psi_tilde_bound_pertime": "slack_corollary_pertime",
    "moment_ode": "slack_moment_ode",
    "m_q_decreasing": "slack_m_q_decreasing",
    "lambda_chain": "slack_lambda_chain",
    "prandtl": "slack_prandtl",
    "psi_l1_bound": "slack_psi_l1",
    "f_min_barrier": "slack_barrier",
}


class TestSeriesChecks:
    def test_lyapunov_monotone_detects_violation(self):
        good = lyapunov_series([1.0, 0.5, 0.25])
        assert check_lyapunov(good).passed
        bad = lyapunov_series([1.0, 0.5, 0.25, 0.9])
        result = check_lyapunov(bad)
        assert not result.passed
        assert result.first_violation_t == 3.0

    def test_sigma_comparison(self):
        recs = [sigma_record(0.0, 2.0, 2.0), sigma_record(1.0, 1.2, 3.7)]
        assert check_sigma_comparison(recs).passed
        recs.append(sigma_record(2.0, 9.0, 8.0))
        assert not check_sigma_comparison(recs).passed

    def test_moment_ode_requires_design(self):
        with pytest.raises(ValueError):
            check_moment_ode([DiagnosticsRecord(t=0.0, m_q=0.1)], None)

    def test_moment_ode_inequality_holds_on_synthetic_series(self):
        # a series decreasing strictly faster than its bound passes all three
        # sub-checks, each over five intervals
        m, t = 0.5, 0.0
        points = [(t, m)]
        for _ in range(5):
            rate = 1.2 * StubDesign.lambda_value(m)
            t += 1e-2
            m = m + 1e-2 * rate
            points.append((t, m))
        result = check_moment_ode(moment_series(StubDesign, points), StubDesign)
        assert result["moment_ode"].passed
        assert result["m_q_decreasing"].passed
        assert result["lambda_chain"].passed
        assert result["moment_ode"].min_slack > 0.0
        assert result["m_q_decreasing"].min_slack > 0.0
        assert result["lambda_chain"].min_slack == 0.0  # the t = 0 record

    def test_constant_moment_is_not_increasing(self):
        # m_q_decreasing tests that m_q does not increase between records:
        # a series whose m_q never moves passes it at slack 0
        points = [(0.1 * k, StubDesign.m_q0) for k in range(4)]
        result = check_moment_ode(moment_series(StubDesign, points), StubDesign)["m_q_decreasing"]
        assert result.passed and result.min_slack == 0.0

    def test_moment_ode_detects_too_slow_decrease(self):
        # rate -0.05 > Lambda = -0.5
        result = check_moment_ode(moment_series(StubDesign, [(0.0, 0.5), (1.0, 0.45)]), StubDesign)
        assert not result["moment_ode"].passed
        assert result["moment_ode"].first_violation_t == 1.0

    @pytest.mark.parametrize(
        "cfg",
        [
            preset_config("blowup-demo").with_overrides(t_max=0.5),
            preset_config("global-demo"),
            preset_config("decr-demo").with_overrides(t_max=0.5, n=100, n_y=100),
            RunConfig(coefficient_text="(1+r)^-2", initial_kind="cosine", t_max=0.5, output_interval=0.05).validate(),
        ],
        ids=["blowup-demo", "global-demo", "decr-demo-100", "cosine-inv2"],
    )
    def test_each_check_is_the_minimum_of_its_record_slack(self, cfg):
        summary, series = run(cfg)
        assert summary.checks and set(summary.checks) <= set(CHECK_SLACKS)
        for name, res in summary.checks.items():
            slacks = [getattr(rec, CHECK_SLACKS[name]) for rec in series]
            slacks = [s for s in slacks if s is not None]
            assert res.min_slack == (min(slacks) if slacks else None), name
        assert all(rec.slack_lyapunov is not None for rec in series[1:])
        assert series[0].slack_lyapunov is None

    def test_global_bounds_regime_guard(self):
        # the divergent-tail bound chain is recorded and checked only for a
        # divergent tail: its slacks live on the records, the checks read them
        chain = ("prandtl", "psi_l1_bound", "f_min_barrier")
        slacks = ("slack_prandtl", "slack_psi_l1", "slack_barrier")
        for text, divergent in (("(1+r)^-2", False), ("(1+r)^-1", True)):
            cfg = RunConfig(
                coefficient_text=text,
                initial_kind="cosine",
                t_max=0.05,
                n=50,
                n_y=50,
                output_interval=0.01,
            ).validate()
            summary, series = run(cfg)
            assert all((name in summary.checks) == divergent for name in chain), text
            assert all((getattr(rec, s) is not None) == divergent for rec in series for s in slacks), text
        bounds = check_global_bounds(series)
        assert bounds["prandtl"].min_slack == min(rec.slack_prandtl for rec in series)
        assert bounds["psi_l1_bound"].min_slack == min(rec.slack_psi_l1 for rec in series)
        assert bounds["f_min_barrier"].min_slack == min(rec.slack_barrier for rec in series)

    def test_global_barrier_is_positive_and_small(self, pot_inv1):
        c7, floor = global_barrier(pot_inv1, 0.2, 1.0, sigma(1.0, 0.5, 5.0))
        assert c7 > 0.0
        assert 0.0 < floor < 1.0
        # barrier really is psi^{-1}(-C7)
        assert pot_inv1.psi(floor) == pytest.approx(-c7, rel=1e-8)
