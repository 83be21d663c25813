import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from smolpois import regime, solver
from smolpois.coefficient import Potentials, coefficient_from_text
from smolpois.diagnostics import check_moment_ode, sigma
from smolpois.regime import BlowupDesign, moment_at_start
from smolpois.solver import (
    NEWTON_TOL,
    NearSingularity,
    SolverState,
    _lap_neumann,
    _newton_f,
    build_initial_data,
    poisson_residual,
    run,
    run_crossval,
    solve_poisson,
    step_f,
    step_u,
)
from smolpois.transform import FieldF, FieldU, f_to_u, pam_profile, u_to_f
from smolpois.harness import RunConfig, load_config, preset_config


@pytest.fixture(scope="module")
def pot_inv1():
    return Potentials(coefficient_from_text("(1+r)^-1"))


@pytest.fixture(scope="module")
def pot_inv2():
    return Potentials(coefficient_from_text("(1+r)^-2"))


def cosine_u(n: int, amp: float = 0.5) -> FieldU:
    x = (np.arange(n) + 0.5) / n
    return FieldU.from_samples(1.0 + amp * np.cos(np.pi * x), 1.0)


class TestPoisson:
    def test_flat_state(self):
        uf = FieldU.from_samples(np.full(200, 1.0), 1.0)
        fv = solve_poisson(uf)
        assert np.max(np.abs(fv)) == 0.0

    def test_cosine_against_closed_form(self):
        # v'' = -cos(pi x) with Neumann walls and zero mean: v = cos(pi x)/pi^2
        errs = []
        for n in (100, 200, 400):
            x = (np.arange(n) + 0.5) / n
            uf = FieldU.from_samples(1.0 + np.cos(np.pi * x), 1.0)
            fv = solve_poisson(uf)
            errs.append(float(np.max(np.abs(fv - np.cos(np.pi * x) / np.pi**2))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_mean_zero_exact(self):
        rng = np.random.default_rng(41)
        uf = FieldU.from_samples(1.0 + rng.uniform(0.0, 1.0, 256), 1.5)
        fv = solve_poisson(uf)
        assert abs(fv.mean()) <= 1e-13

    def test_discrete_residual(self):
        uf = cosine_u(400)
        fv = solve_poisson(uf)
        assert poisson_residual(uf, fv) <= 1e-9


def _reference_poisson(uf: FieldU) -> np.ndarray:
    """The Poisson solve before its factors were cached: the gauged Neumann
    band assembled on every call and solved by scipy's banded solver."""
    n = uf.n
    h = uf.h
    u = uf.values * (uf.mass / (h * float(uf.values.sum())))
    rhs = uf.mass - u
    h2 = h * h
    ab = np.zeros((3, n))
    ab[0, 2:] = 1.0 / h2
    ab[1, 0] = 1.0
    ab[1, 1:n - 1] = -2.0 / h2
    ab[1, n - 1] = -1.0 / h2
    ab[2, :n - 1] = 1.0 / h2
    rhs[0] = 0.0
    v = scipy.linalg.solve_banded((1, 1), ab, rhs)
    return v - v.mean()


def _assert_band_solve_matches_scipy(ab: np.ndarray, rhs: np.ndarray) -> None:
    expected = scipy.linalg.solve_banded((1, 1), ab, rhs)
    got = solver.solve_banded(ab.copy(), rhs.copy())
    assert np.array_equal(got, expected)


class TestBandSolve:
    """The direct LAPACK tridiagonal solves against scipy's banded solver."""

    def test_f_form_jacobian(self, pot_inv1):
        n = 400
        f = u_to_f(cosine_u(n), n).values
        h, dt, M = 1.0 / n, 1e-3, 1.0
        h2 = h * h
        dpsi = np.asarray(pot_inv1.psi_prime(f), dtype=float)
        ab = np.zeros((3, n))
        ab[0, 1:] = -dt * dpsi[1:] / h2
        ab[1] = 1.0 - dt * M + 2.0 * dt * dpsi / h2
        ab[1, 0] = 1.0 - dt * M + dt * dpsi[0] / h2
        ab[1, -1] = 1.0 - dt * M + dt * dpsi[-1] / h2
        ab[2, :-1] = -dt * dpsi[:-1] / h2
        rhs = np.random.default_rng(3).normal(size=n)
        _assert_band_solve_matches_scipy(ab, rhs)

    def test_u_form_diffusion_matrix(self, pot_inv2):
        uf = cosine_u(3200, amp=0.9)
        a_vals = np.asarray(pot_inv2.coefficient(uf.values), dtype=float)
        a_face = 2.0 * a_vals[:-1] * a_vals[1:] / (a_vals[:-1] + a_vals[1:])
        coupling = 1e-4 * a_face / uf.h**2
        ab = np.zeros((3, uf.n))
        ab[0, 1:] = -coupling
        ab[1] = 1.0
        ab[1, :-1] += coupling
        ab[1, 1:] += coupling
        ab[2, :-1] = -coupling
        _assert_band_solve_matches_scipy(ab, uf.values.copy())

    def test_pivoting_matrix(self):
        rng = np.random.default_rng(5)
        ab = rng.normal(size=(3, 500))
        # not diagonally dominant, so partial pivoting swaps rows
        assert np.any(np.abs(ab[1, :-1]) < np.abs(ab[2, :-1]))
        _assert_band_solve_matches_scipy(ab, rng.normal(size=500))

    def test_overwrites_its_inputs(self):
        ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])
        rhs = np.array([5.0, 6.0, 5.0])
        x = solver.solve_banded(ab, rhs)
        assert np.allclose(x, 1.0)
        assert np.shares_memory(x, rhs)

    def test_singular_matrix_raises(self):
        # rows 0 and 1 are equal: the second pivot is exactly zero
        ab = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            solver.solve_banded(ab, np.ones(3))

    def test_poisson_matches_assembled_solve(self):
        # sizes interleaved, so that factors cached under the wrong key
        # would be applied to another grid
        solver._poisson_factors.cache_clear()
        rng = np.random.default_rng(7)
        for n in (400, 2, 3200, 3, 2, 400, 3, 3200):
            uf = FieldU.from_samples(rng.uniform(0.1, 3.0, n), float(rng.uniform(0.5, 2.0)))
            assert np.array_equal(solve_poisson(uf), _reference_poisson(uf))

    def test_poisson_rejects_nan(self):
        values = np.full(64, 1.0)
        values[10] = np.nan
        with pytest.raises(ValueError):
            solve_poisson(FieldU(values=values, mass=1.0))

    def test_u_form_fine_run_regression(self, monkeypatch):
        # the benchmark's uform-fine run: one diffusion band solve per step
        # trial, and the Poisson solves never go through solve_banded
        calls = []
        band_solve = solver.solve_banded

        def counting(*args, **kwargs):
            calls.append(1)
            return band_solve(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_banded", counting)
        ini = Path(__file__).resolve().parents[1] / "tools" / "golden" / "uform-fine.ini"
        summary, _ = run(load_config(ini))
        assert summary.verdict == "global-so-far"
        assert summary.final_state.steps == 646
        assert summary.final_state.field.max_value == 1.432765562586791
        assert len(calls) == 646


class TestStepF:
    def test_steady_state_unchanged(self, pot_inv1):
        f0 = FieldF.from_samples(np.full(200, 1.0), 1.0)
        state = SolverState(t=0.0, field=f0, potentials=pot_inv1)
        out = step_f(state, 0.01)
        assert np.array_equal(out.field.values, f0.values)
        assert out.t == 0.01

    def test_integral_preserved_per_step(self, pot_inv1):
        f0 = u_to_f(cosine_u(200), 200)
        state = SolverState(t=0.0, field=f0, potentials=pot_inv1)
        for _ in range(25):
            state = step_f(state, 0.004)
        assert state.field.integral_error() <= 1e-12

    def test_constant_data_tracks_supersolution(self, pot_inv1):
        # spatially flat f solves the same ODE as Sigma; one implicit step
        # tracks it to O(dt^2)
        f0 = FieldF(values=np.full(100, 2.0), mass=1.0)
        state = SolverState(t=0.0, field=f0, potentials=pot_inv1)
        errors = []
        for dt in (0.02, 0.01, 0.005):
            out = step_f(state, dt)
            target = sigma(1.0, 0.5, dt)
            errors.append(abs(float(out.field.values[0]) - target))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.25)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.25)

    def test_positivity_maintained(self, pot_inv2):
        f0 = pam_profile(1.0, 4.0, 0.05, 200)
        state = SolverState(t=0.0, field=f0, potentials=pot_inv2)
        out = step_f(state, 1e-7)
        assert out.field.min_value > 0.0


class TestStepU:
    def test_steady_state(self, pot_inv1):
        uf = FieldU.from_samples(np.full(150, 1.0), 1.0)
        state = SolverState(t=0.0, field=uf, potentials=pot_inv1, v=solve_poisson(uf))
        out = step_u(state, 0.01)
        assert np.max(np.abs(out.field.values - 1.0)) <= 1e-13

    def test_mass_conserved(self, pot_inv1):
        uf = cosine_u(200)
        state = SolverState(t=0.0, field=uf, potentials=pot_inv1, v=solve_poisson(uf))
        for _ in range(50):
            state = step_u(state, 5e-4)
        assert state.field.mass_error() <= 1e-12

    def test_positivity(self, pot_inv1):
        uf = cosine_u(200, amp=0.95)
        state = SolverState(t=0.0, field=uf, potentials=pot_inv1, v=solve_poisson(uf))
        for _ in range(20):
            state = step_u(state, 1e-3)
        assert state.field.min_value > 0.0

    def test_small_perturbation_decays_toward_mean(self, pot_inv1):
        # divergent-tail regime: u = M + 0.01 cos(pi x) relaxes to the mean,
        # and the transformed-profile solver agrees on the trajectory
        uf = cosine_u(200, amp=0.01)
        amp0 = uf.max_value - 1.0
        state = SolverState(t=0.0, field=uf, potentials=pot_inv1, v=solve_poisson(uf))
        while state.t < 0.2:
            state = step_u(state, 2e-3)
        assert state.field.max_value - 1.0 < 0.5 * amp0

        fstate = SolverState(t=0.0, field=u_to_f(uf, 200), potentials=pot_inv1)
        while fstate.t < 0.2:
            fstate = step_f(fstate, 2e-3)
        u_from_f = f_to_u(fstate.field, 200)
        gap = float(np.max(np.abs(u_from_f.values - state.field.values)))
        assert gap < 0.02 * 0.01  # within 2% of the perturbation scale


class TestRunGlobal:
    def test_stationary_run(self):
        cfg = RunConfig(
            coefficient_text="(1+r)^-2",
            formulation="f",
            initial_kind="constant",
            t_max=1.0,
            n=100,
            n_y=100,
            dt_max=0.01,
            output_interval=0.1,
        ).validate()
        summary, series = run(cfg)
        assert summary.verdict == "global-so-far"
        l1s = [rec.l1 for rec in series]
        assert max(l1s) - min(l1s) <= 1e-10

    def test_cosine_decay_checks(self):
        cfg = RunConfig(
            coefficient_text="(1+r)^-1",
            formulation="f",
            initial_kind="cosine",
            amplitude=0.5,
            t_max=0.5,
            n=200,
            n_y=200,
            dt_max=0.005,
            output_interval=0.05,
        ).validate()
        summary, series = run(cfg)
        assert summary.verdict == "global-so-far"
        for name in ("lyapunov", "sigma_comparison", "gex5", "gex6", "prandtl", "f_min_barrier"):
            assert summary.checks[name].passed, name
        # min f observed stays above the explicit barrier with margin
        assert all(rec.slack_barrier > 0.0 for rec in series)
        # integral drift well under 1e-10 per unit time
        assert all(rec.mass_err <= 1e-10 * max(rec.t, 1.0) for rec in series)

    def test_u_form_cosine(self):
        cfg = RunConfig(
            coefficient_text="(1+r)^-1",
            formulation="u",
            initial_kind="cosine",
            amplitude=0.5,
            t_max=0.2,
            n=200,
            n_y=200,
            dt_max=0.002,
            output_interval=0.05,
        ).validate()
        summary, series = run(cfg)
        assert summary.verdict == "global-so-far"
        assert all(rec.mass_err <= 1e-12 for rec in series)


class TestRunBlowup:
    def test_touch_down_detected(self):
        # spike floor delta^q = 6.25e-6 decays at unit rate: touch-down fast
        cfg = RunConfig(
            coefficient_text="(1+r)^-2",
            theta=0.5,
            alpha=2.0,
            formulation="f",
            initial_kind="pam",
            pam_q=4.0,
            pam_delta=0.05,
            t_max=1.0,
            n=200,
            n_y=200,
            dt_init=1e-9,
            dt_max=0.01,
            output_interval=1e-6,
        ).validate()
        summary, series = run(cfg)
        assert summary.verdict == "blowup"
        assert summary.blowup_time is not None
        assert 0.0 < summary.blowup_time < 1e-4
        assert series[-1].f_min < 1e-6

    def test_moment_decreases_and_ode_slack_holds(self, pot_inv2):
        # real trajectory against the certificate inequality with a
        # hand-picked delta large enough to resolve on the grid
        n_y = 200
        q, delta, theta, eps_m = 4.0, 0.05, 0.5, 2.0**-6
        from smolpois.diagnostics import lyapunov_L1, mu_mass

        f0 = pam_profile(1.0, q, delta, n_y)
        mu = mu_mass(pot_inv2, 1.0)
        lyap = lyapunov_L1(pot_inv2, f0, 1.0)
        k0 = (32.0 * max(lyap, 0.0) + mu) ** (1.0 / 5.0)
        design = BlowupDesign(
            M=1.0,
            theta=theta,
            alpha=2.0,
            q=q,
            eps_m=eps_m,
            delta=delta,
            c1=(2.0 + 6.0) / 30.0,
            c2=q * (q - 1.0) * (0.25 + 0.5 + eps_m) / eps_m,
            mu_m=mu,
            k0=k0,
            lyap_f0=lyap,
            m_q0=moment_at_start(1.0, q, delta),
            lambda_m_q0=0.0,
            gamma_theta=0.25,
            c_infinity=1.0,
            n_y=n_y,
        )
        cfg = RunConfig(
            coefficient_text="(1+r)^-2",
            formulation="f",
            initial_kind="pam",
            pam_q=q,
            pam_delta=delta,
            t_max=1.0,
            n=n_y,
            n_y=n_y,
            dt_init=1e-9,
            dt_max=0.01,
            output_interval=2e-7,
        ).validate()
        summary, series = run(cfg)
        assert summary.verdict == "blowup"
        recs = [r for r in series if r.m_q is not None]
        assert len(recs) >= 3
        mqs = [r.m_q for r in recs]
        assert all(a > b for a, b in zip(mqs, mqs[1:]))
        result = check_moment_ode(series, design, tol=1e-3 * abs(design.lambda_value(design.m_q0)))
        assert result.ode_slack.passed

    def test_u_form_runaway_threshold(self):
        # spike-induced u data starts above a lowered runaway cap
        cfg = RunConfig(
            coefficient_text="(1+r)^-2",
            formulation="u",
            initial_kind="pam",
            pam_q=4.0,
            pam_delta=0.05,
            t_max=0.01,
            n=100,
            n_y=100,
            dt_max=1e-4,
            output_interval=1e-3,
            eps_touchdown=2e-2,  # u cap = 50, below the resampled peak ~75
        ).validate()
        summary, series = run(cfg)
        assert summary.verdict == "blowup"
        assert summary.blowup_time == 0.0
        note = f"initial max u = {series[0].u_max:.3e} already above the runaway cap 50"
        assert note in summary.notes

    def test_underflow_reports_touch_down(self):
        # threshold pushed out of reach: the stepper grinds into dt underflow
        cfg = RunConfig(
            coefficient_text="(1+r)^-2",
            formulation="f",
            initial_kind="pam",
            pam_q=4.0,
            pam_delta=0.05,
            t_max=1.0,
            n=100,
            n_y=100,
            dt_init=1e-9,
            dt_max=0.01,
            output_interval=0.1,
            eps_touchdown=1e-300,
        ).validate()
        summary, _ = run(cfg)
        assert summary.verdict == "blowup"
        assert any("near-singularity" in note for note in summary.notes)

    def test_designed_run_parses_once(self, monkeypatch):
        # the pam design reuses run()'s coefficient and potentials
        parses, potentials = [], []
        parse = solver.coefficient_from_text

        class RecordedPotentials(Potentials):
            def __init__(self, coefficient):
                potentials.append(self)
                super().__init__(coefficient)

        monkeypatch.setattr(solver, "coefficient_from_text", lambda text: parses.append(text) or parse(text))
        monkeypatch.setattr(solver, "Potentials", RecordedPotentials)
        monkeypatch.setattr(regime, "Potentials", RecordedPotentials)
        summary, _ = run(preset_config("blowup-demo").with_overrides(t_max=0.01))
        assert summary.design is not None
        assert parses == ["(1+r)^-2"]
        assert len(potentials) == 1


class TestRunVerdictPaths:
    """Verdict paths of the one step loop, for each formulation."""

    def test_u_form_runaway_mid_run(self):
        # spike data whose resampled peak (~75) starts below the cap of 80
        cfg = RunConfig(
            coefficient_text="(1+r)^-2",
            formulation="u",
            initial_kind="pam",
            pam_q=4.0,
            pam_delta=0.05,
            t_max=0.05,
            n=100,
            n_y=100,
            dt_max=1e-4,
            output_interval=1e-2,
            eps_touchdown=1.0 / 80.0,
        ).validate()
        summary, series = run(cfg)
        assert series[0].u_max < 80.0
        assert summary.verdict == "blowup"
        assert summary.blowup_time > 0.0
        assert series[-1].t == summary.blowup_time == summary.final_time
        assert series[-1].u_max > 80.0

    def test_f_form_starts_below_touch_down(self):
        cfg = RunConfig(
            coefficient_text="(1+r)^-2",
            formulation="f",
            initial_kind="pam",
            pam_q=4.0,
            pam_delta=0.05,
            t_max=1.0,
            n=100,
            n_y=100,
            eps_touchdown=0.5,
        ).validate()
        summary, series = run(cfg)
        assert summary.verdict == "blowup"
        assert summary.blowup_time == 0.0
        assert summary.final_state.steps == 0
        assert [rec.t for rec in series] == [0.0]
        assert any(
            note.startswith("initial min f = ") and "below the touch-down threshold 0.5" in note
            for note in summary.notes
        )

    def test_u_form_underflow_names_max_u(self, pot_inv1, monkeypatch):
        monkeypatch.setattr(solver, "_try_u_step", lambda *args: None)
        uf = cosine_u(50)
        state = SolverState(t=0.25, field=uf, potentials=pot_inv1)
        message = f"at t=0.25 (max u = {uf.max_value:.3e})"
        with pytest.raises(NearSingularity, match=re.escape(message) + "$"):
            step_u(state, 1e-3)


class TestCrossFormulation:
    def test_formulations_agree_in_the_global_regime(self):
        cfg = preset_config("crossval").with_overrides(n=200, n_y=200)
        gap, summary_f, summary_u, _, _ = run_crossval(cfg)
        assert summary_f.verdict == "global-so-far"
        assert summary_u.verdict == "global-so-far"
        assert gap <= 0.02


def _grinding_newton_f(pot, f_old, M, h, dt):
    """The f-form Newton loop before stalls were rejected: it runs all 30
    iterations unless it converges, and accepts a stall only within 64 times
    the target.  Reference for what an accepted solve must return."""
    w = f_old.copy()
    h2 = h * h
    n = w.size
    eps = np.finfo(float).eps
    best_w = None
    best_res = math.inf
    for iteration in range(30):
        psi_w = np.asarray(pot.psi(w), dtype=float)
        residual = w - f_old - dt * (_lap_neumann(psi_w, h) + M * w - 1.0)
        res_norm = float(np.max(np.abs(residual)))
        noise_floor = 16.0 * eps * (
            dt * (float(np.max(np.abs(psi_w))) / h2 + M * float(np.max(w)) + 1.0)
            + float(np.max(w))
        )
        tol = NEWTON_TOL * max(1.0, float(np.max(w))) + noise_floor
        if res_norm <= tol:
            return w
        if res_norm < best_res:
            if res_norm > 0.5 * best_res and iteration > 3 and res_norm <= 64.0 * tol:
                return w
            best_res = res_norm
            best_w = w
        elif iteration > 3 and best_res <= 64.0 * tol:
            return best_w
        dpsi = np.asarray(pot.psi_prime(w), dtype=float)
        main = 1.0 - dt * M + 2.0 * dt * dpsi / h2
        main[0] = 1.0 - dt * M + dt * dpsi[0] / h2
        main[-1] = 1.0 - dt * M + dt * dpsi[-1] / h2
        upper = np.zeros(n)
        lower = np.zeros(n)
        upper[1:] = -dt * dpsi[1:] / h2
        lower[:-1] = -dt * dpsi[:-1] / h2
        dw = scipy.linalg.solve_banded((1, 1), np.vstack((upper, main, lower)), -residual, check_finite=False)
        w = w + dw
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            return None
    return None


class CountingPotentials(Potentials):
    """Counts psi evaluations and keeps the arguments of psi and psi', so
    that a test can ask how often one array was evaluated."""

    def __init__(self, coefficient):
        super().__init__(coefficient)
        self.psi_calls = 0
        self.args = {"psi": [], "psi_prime": []}

    def psi(self, f):
        self.psi_calls += 1
        self.args["psi"].append(f)
        return super().psi(f)

    def psi_prime(self, f):
        self.args["psi_prime"].append(f)
        return super().psi_prime(f)

    def calls_at(self, values) -> tuple[int, int]:
        """(psi, psi') evaluations at the array ``values`` itself."""
        return tuple(sum(arg is values for arg in self.args[name]) for name in ("psi", "psi_prime"))


class TestNewtonStall:
    # near-flat data: at dt = 0.004096 the residual stalls at ~1e-11 from
    # the second iterate on, above 64 times the acceptance target
    @pytest.fixture(scope="class")
    def f0(self):
        cfg = preset_config("global-demo").with_overrides(
            initial_kind="cosine", amplitude=1e-3, n=1600, n_y=1600
        )
        coeff = coefficient_from_text(cfg.coefficient_text)
        return build_initial_data(cfg, coeff, Potentials(coeff))[1]

    def test_stalled_solve_rejected_at_once(self, f0):
        pot = CountingPotentials(coefficient_from_text("(1+r)^-1"))
        assert _newton_f(pot, f0.values, 1.0, f0.h, 0.004096) is None
        assert pot.psi_calls <= 5
        ref = CountingPotentials(coefficient_from_text("(1+r)^-1"))
        assert _grinding_newton_f(ref, f0.values, 1.0, f0.h, 0.004096) is None
        assert ref.psi_calls == 30

    @pytest.mark.parametrize("dt", [0.002048, 0.001024])
    def test_converging_solve_unchanged(self, f0, dt):
        pot = CountingPotentials(coefficient_from_text("(1+r)^-1"))
        w = _newton_f(pot, f0.values, 1.0, f0.h, dt)
        ref = _grinding_newton_f(pot, f0.values, 1.0, f0.h, dt)
        assert w is not None and ref is not None
        assert np.array_equal(w, ref)

    def test_near_steady_run_regression(self, monkeypatch):
        # the benchmark's global-fine run at its nominal inputs: every
        # accepted step as before, only the rejected trials get cheaper
        calls = {"band": 0, "psi": 0, "psi_prime": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(solver, "solve_banded", counted("band", solver.solve_banded))
        monkeypatch.setattr(Potentials, "psi", counted("psi", Potentials.psi))
        monkeypatch.setattr(Potentials, "psi_prime", counted("psi_prime", Potentials.psi_prime))
        cfg = preset_config("global-demo").with_overrides(
            initial_kind="cosine", amplitude=1e-3, n=1600, n_y=1600, t_max=0.2
        )
        summary, _ = run(cfg)
        assert summary.verdict == "global-so-far"
        assert summary.final_state.steps == 108
        assert abs(summary.final_state.field.min_value - 0.9995435001852524) <= 1e-12
        # before the dt-free Newton data was reused: 794 band solves (bound
        # 1000), 1044 psi and 814 psi' evaluations
        assert calls["band"] <= 794
        assert calls["psi"] <= 838
        assert calls["psi_prime"] <= 643


class TestNewtonReuse:
    """The dt-free Newton data of an iterate is computed once and reused
    across dt-halving retries and steps without changing a bit."""

    @pytest.fixture(scope="class")
    def f0(self):
        # near-flat data at n = 1600: at dt = 0.004096 every step is rejected
        # once and retried at dt / 2; at dt = 0.001 it is accepted at once
        cfg = preset_config("global-demo").with_overrides(
            initial_kind="cosine", amplitude=1e-3, n=1600, n_y=1600
        )
        coeff = coefficient_from_text(cfg.coefficient_text)
        return build_initial_data(cfg, coeff, Potentials(coeff))[1]

    def test_carried_start_changes_no_bit(self, f0, monkeypatch):
        solve = solver._solve_f
        exits = []

        def recording(start, f_old, M, h, dt):
            found = solve(start, f_old, M, h, dt)
            exits.append(found)
            return found

        monkeypatch.setattr(solver, "_solve_f", recording)
        pot = Potentials(coefficient_from_text("(1+r)^-1"))
        kinds = set()
        for dt in (0.004096, 0.001):
            state = SolverState(t=0.0, field=f0, potentials=pot)
            for _ in range(5):
                fresh = step_f(replace(state, start=None), dt)
                exits.clear()
                carried = step_f(state, dt)
                assert carried.t == fresh.t and carried.dt == fresh.dt
                assert np.array_equal(carried.field.values, fresh.field.values)
                for name in ("psi", "g", "psi_max", "w_max"):
                    assert np.array_equal(getattr(carried.start, name), getattr(fresh.start, name))
                assert carried.start.w is carried.field.values
                found = exits[-1]
                kinds.add("retried" if len(exits) > 1 else "first trial")
                if "dpsi" in vars(found):  # a Newton step was taken from it: best_w
                    kinds.add("stall exit at best_w")
                state = carried
        assert kinds == {"retried", "first trial", "stall exit at best_w"}

    def test_lap_neumann_is_the_diff_form(self):
        rng = np.random.default_rng(7)
        for vals, h in ((rng.standard_normal(50), 0.3), (np.geomspace(1e-300, 1e300, 64), 1e-3), (rng.random(2), 7.0)):
            flux = np.diff(vals) / h
            want = np.empty_like(vals)
            want[0] = flux[0] / h
            want[-1] = -flux[-1] / h
            want[1:-1] = np.diff(flux) / h
            assert np.array_equal(_lap_neumann(vals, h), want)

    def test_halving_evaluates_f_old_once(self, f0):
        pot = CountingPotentials(coefficient_from_text("(1+r)^-1"))
        state = SolverState(t=0.0, field=f0, potentials=pot)
        dt = 0.004096 * 8
        new = step_f(state, dt)
        assert new.dt <= dt / 16  # four or more trials rejected
        assert pot.calls_at(f0.values) == (1, 1)
        # the next step starts from the record the first one carries
        newer = step_f(new, dt)
        assert newer.dt <= dt / 16
        assert pot.calls_at(new.field.values) == (1, 1)  # both while it was an iterate

    def test_start_of_another_field_recomputed(self, f0):
        pot = CountingPotentials(coefficient_from_text("(1+r)^-1"))
        state0 = SolverState(t=0.0, field=f0, potentials=pot)
        state1 = step_f(state0, 0.001)
        want = step_f(state0, 0.001)
        # the carried record belongs to state1's field, not to f0
        got = step_f(replace(state1, field=f0, t=0.0), 0.001)
        assert np.array_equal(got.field.values, want.field.values)
        # equal values in another array: the record is recomputed for it
        copy = state1.field.with_values(state1.field.values.copy())
        got = step_f(replace(state1, field=copy), 0.001)
        assert pot.calls_at(copy.values)[0] == 1
        assert np.array_equal(got.field.values, step_f(replace(state1, start=None), 0.001).field.values)
        # other potentials: the record is recomputed with them
        other = CountingPotentials(coefficient_from_text("(1+r)^-2"))
        got = step_f(replace(state1, potentials=other), 0.001)
        assert other.calls_at(state1.field.values)[0] == 1
        want = step_f(SolverState(t=state1.t, field=state1.field, potentials=other), 0.001)
        assert np.array_equal(got.field.values, want.field.values)
