"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from smolpois.coefficient import Potentials, coefficient_from_text
from smolpois.diagnostics import energy_norm_slacks, mu_mass
from smolpois.expr import evaluate, parse_coefficient
from smolpois.harness import preset_config, simulate
from smolpois.regime import build_majorant, classify, verify_majorant
from smolpois.solver import run
from smolpois.transform import FieldF, FieldU, f_to_u, u_to_f


def _report(number: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


@pytest.fixture(scope="module")
def blowup_demo():
    t0 = time.perf_counter()
    summary, series = run(preset_config("blowup-demo"))
    return summary, series, time.perf_counter() - t0


@pytest.fixture(scope="module")
def global_demo():
    t0 = time.perf_counter()
    summary, series = run(preset_config("global-demo"))
    return summary, series, time.perf_counter() - t0


def test_criterion_1_regime_dichotomy():
    checks = []
    for text in ("(1+r)^-1", "1", "(1+r)/(2+r)"):
        t0 = time.perf_counter()
        report = classify(coefficient_from_text(text))
        elapsed = time.perf_counter() - t0
        checks.append(report.clause == "global" and elapsed < 1.0)

    t0 = time.perf_counter()
    report = classify(coefficient_from_text("(1+r)^-2"))
    elapsed = time.perf_counter() - t0
    checks.append(
        report.clause == "blowup-via-(1)"
        and abs(report.gamma - 0.5) <= 1e-6
        and elapsed < 1.0
    )

    t0 = time.perf_counter()
    report = classify(coefficient_from_text("(1+r)*r^-2.5"), theta=0.5, alpha=1.5)
    elapsed = time.perf_counter() - t0
    checks.append(
        report.clause == "blowup-via-(decr)"
        and abs(report.gamma_theta - 2.0) <= 1e-6
        and abs(report.c_infinity - 2.0) <= 1e-6
        and elapsed < 1.0
    )
    _report(1, "regime dichotomy over the canonical coefficients", all(checks))


def test_criterion_2_blowup_reproduction(blowup_demo):
    summary, series, wall = blowup_demo
    design = summary.design
    touch_down = (
        summary.verdict == "blowup"
        and summary.blowup_time is not None
        and summary.blowup_time < 50.0
        and series[-1].f_min < 1e-6
    )
    recs = [r for r in series if r.m_q is not None]
    mq_decreasing = all(a.m_q > b.m_q for a, b in zip(recs, recs[1:]))
    lam0 = design.lambda_value(design.m_q0)
    tol = 1e-3 * abs(lam0)
    ode_ok = all(
        r.slack_moment_ode >= -tol for r in series if r.slack_moment_ode is not None
    )
    ok = touch_down and mq_decreasing and ode_ok and lam0 < 0.0 and wall < 60.0
    _report(
        2,
        "designed blowup run touches down with a valid moment certificate",
        ok,
        f"T={summary.blowup_time!r}, Lambda(m_q(0))={lam0:.4g}, "
        f"{len(recs)} moment records, wall {wall:.1f}s",
    )


def test_criterion_3_global_reproduction(global_demo):
    summary, series, wall = global_demo
    verdict_ok = summary.verdict == "global-so-far" and summary.final_time >= 5.0
    sigma_ok = all(r.f_max <= r.sigma_t + 1e-8 for r in series)
    barrier_ok = all(r.slack_barrier is not None and r.slack_barrier >= 0.0 for r in series)
    prandtl_ok = all(r.slack_prandtl >= -1e-8 for r in series if r.slack_prandtl is not None)
    ok = verdict_ok and sigma_ok and barrier_ok and prandtl_ok and wall < 60.0
    _report(
        3,
        "divergent-tail run stays global with the full bound chain",
        ok,
        f"records={len(series)}, wall {wall:.1f}s",
    )


def test_criterion_4_lyapunov_monotone(blowup_demo, global_demo):
    ok = True
    details = []
    for name, (summary, series, _) in (("blowup-demo", blowup_demo), ("global-demo", global_demo)):
        worst = math.inf
        for prev, cur in zip(series, series[1:]):
            if prev.l1 is None or cur.l1 is None:
                continue
            slack = prev.l1 + 1e-8 * (cur.t - prev.t) - cur.l1
            worst = min(worst, slack)
        ok = ok and (worst == math.inf or worst >= 0.0)
        details.append(f"{name} min slack {worst!r}")
    _report(4, "Lyapunov energy non-increasing on both presets", ok, "; ".join(details))


def test_criterion_5_uniform_bound(blowup_demo):
    summary, series, _ = blowup_demo
    pot = Potentials(coefficient_from_text("(1+r)^-2"))
    # formula re-evaluation: psi(0) = -1/2 and psi~(2/M) = 2/3 exactly
    psi0, pt = -0.5, 2.0 / 3.0
    mu_formula = 1.0 + 128.0 - 32.0 * psi0 + 64.0 * pt + 8.0 * pt**2 + psi0**2 - 32.0 * psi0
    mu_lib = mu_mass(pot, 1.0)
    mu_ok = (
        abs(mu_formula - 207.47222222222223) < 1e-10
        and abs(mu_lib - mu_formula) < 1e-10
    )
    lyap_f0 = summary.design.lyap_f0
    bound_sq = 32.0 * max(lyap_f0, 0.0) + mu_lib
    slack_ok = all(
        bound_sq - r.psi_tilde_max**2 >= -1e-6
        for r in series
        if r.psi_tilde_max is not None
    )
    _report(
        5,
        "uniform psi~ bound holds at all records with mu_M re-verified",
        mu_ok and slack_ok,
        f"mu_M={mu_lib:.10f}",
    )


def test_criterion_6_energy_norm_inequalities():
    rng = np.random.default_rng(2027)
    M = 1.0
    n = 400
    y = (np.arange(n) + 0.5) * (M / n)
    worst = math.inf
    for text in ("(1+r)^-1", "(1+r)^-2"):
        pot = Potentials(coefficient_from_text(text))
        for _ in range(50):
            vals = np.full(n, 1.0 / M)
            for k in range(1, 9):
                vals = vals + rng.uniform(-0.08, 0.08) / k * np.cos(k * np.pi * y / M)
            vals = np.maximum(vals, 0.02 / M)
            f = FieldF.from_samples(vals, M)
            s5, s6 = energy_norm_slacks(pot, f, M)
            worst = min(worst, s5, s6)
    _report(
        6,
        "energy and norm inequalities on 50 random unit-integral profiles",
        worst >= -1e-8,
        f"min slack {worst:.3e}",
    )


def test_criterion_7_majorant_suite():
    coeff = coefficient_from_text("(1+r)^-2")
    majorant = build_majorant(coeff)
    assert majorant.i_max == 40
    slopes_ok = all(
        abs(b - 1.0 / (1.0 + 2.0**i)) <= 1e-10 for i, b in enumerate(majorant.slopes)
    )
    b3_ok = abs(majorant(3.0) - 11.0 / 6.0) <= 1e-10
    report = verify_majorant(coeff, majorant)
    domination_ok = report.domination_min_slack >= 0.0 and report.nonnegative_ok
    decreasing_ok = report.slopes_decreasing
    # The pinned slopes and B(2) = 2 b_0 + gamma = 3/2 fix B at every dyadic
    # point: B is continuous, so B(2^k) = 3/2 + sum_{i=1}^{k-1} b_i 2^i.
    gamma = Fraction(1, 2)
    exact = {}
    value = 2 * Fraction(1, 2) + gamma
    for k in range(2, 41):
        value += Fraction(2 ** (k - 1), 1 + 2 ** (k - 1))
        exact[k] = value
    pin_ok = all(
        abs(Fraction(majorant(2.0**k)) - exact[k]) <= 1e-12 * exact[k] for k in exact
    )
    # B(2^k) - b_{k-1} 2^k = gamma + sum_{j<k-1} (b_j - b_{j+1}) 2^{j+1}, and each
    # term of the sum is 2^{2j+1} / ((1+2^j)(1+2^{j+1})) < 1.
    sublinear_ok = all(
        majorant(2.0**k) / 2.0**k <= majorant.slopes[k - 1] + (float(gamma) + k - 1) / 2.0**k
        for k in exact
    )
    ok = slopes_ok and b3_ok and domination_ok and decreasing_ok and pin_ok and sublinear_ok
    sub_value = majorant(2.0**40) / 2.0**40
    _report(
        7,
        "concave majorant: slopes, values, domination, sublinear growth",
        ok,
        f"B(2^40)/2^40 = {sub_value:.6e} vs exact {float(exact[40]) / 2.0**40:.6e}, "
        f"bound b_39 + 39.5/2^40 = {majorant.slopes[39] + 39.5 / 2.0**40:.6e}",
    )


def test_criterion_8_cross_formulation():
    cfg = preset_config("crossval")
    t0 = time.perf_counter()
    summary, _ = simulate(cfg)
    gap_400 = summary.crossval_gap
    gap_800 = simulate(cfg.with_overrides(n=800, n_y=800))[0].crossval_gap
    wall = time.perf_counter() - t0
    ok = (
        summary.verdict == "global-so-far"
        and not any(note.startswith("formulations disagree") for note in summary.notes)
        and gap_400 <= 0.02
        and gap_800 <= 0.6 * gap_400
    )
    _report(
        8,
        "two formulations agree and the gap shrinks under refinement",
        ok,
        f"gap(400)={gap_400:.3e}, gap(800)={gap_800:.3e}, ratio={gap_800 / gap_400:.2f}, "
        f"wall {wall:.1f}s",
    )


def test_criterion_9_transform_and_parser():
    t0 = time.perf_counter()
    # round-trip second order on a smooth profile
    errors = []
    for n in (50, 100, 200):
        x = (np.arange(n) + 0.5) / n
        uf = FieldU.from_samples(1.0 + 0.5 * np.cos(np.pi * x), 1.0)
        back = f_to_u(u_to_f(uf, 4 * n), n)
        errors.append(float(np.max(np.abs(back.values - uf.values))))
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    roundtrip_ok = all(3.0 <= ratio <= 5.0 for ratio in ratios)

    # parser goldens and precedence
    goldens = [
        ("(1+r)^-2", 1.0, 0.25),
        ("1/(1+r)", 1.0, 0.5),
        ("2^3^2", 1.0, 512.0),
        ("(1+r)/r^2.5", 1.0, 2.0),
        ("ln(r)", 1.0, 0.0),
    ]
    parser_ok = all(
        abs(evaluate(parse_coefficient(text), r) - expect) <= 1e-12
        for text, r, expect in goldens
    )
    rng = np.random.default_rng(40)
    tree = parse_coefficient("2 + 3*r^2 - r/4")
    precedence_ok = all(
        abs(evaluate(tree, float(r)) - (2 + 3 * r**2 - r / 4)) <= 1e-12 * (1 + 3 * r**2)
        for r in rng.uniform(0.01, 50.0, 100)
    )
    wall = time.perf_counter() - t0
    ok = roundtrip_ok and parser_ok and precedence_ok and wall < 10.0
    _report(
        9,
        "transform round-trip is second order; parser goldens hold",
        ok,
        f"ratios {[f'{ratio:.2f}' for ratio in ratios]}, wall {wall:.1f}s",
    )
