"""Functionals and inequality checks evaluated along trajectories.

The discrete conventions are shared by every quantity so that slacks
compare like with like: derivatives are face-centered differences of
cell values, norms and integrals use the midpoint rule.

A *slack* is always (bound) - (quantity); negative slack marks a violated
inequality and is reported verbatim, never clipped.

The solver's per-record pass computes every functional and slack of a
profile from one evaluation of psi(f) (``energy_norm_terms``,
``global_bound_chain``) and from the previous record (the interval
slacks), and stores them on its ``DiagnosticsRecord``.  A suite check is
the minimum of one record slack over the series: it reads the records and
evaluates nothing.  A suite check returns one ``CheckResult``, or, when it
checks several inequalities, a dict of them keyed by their names in
``summary.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coefficient import Potentials, TailDivergenceError
from .transform import FieldF


# --- discrete building blocks -------------------------------------------------


def grad_norm_sq(h_vals: np.ndarray, dy: float) -> float:
    """Squared L2 norm of the face-centered derivative of cell values."""
    d = np.diff(h_vals) / dy
    return dy * float(np.dot(d, d))


def lyapunov_value(psi_f: np.ndarray, psi1_f: np.ndarray, dy: float, M: float, grad_sq: float) -> float:
    """``lyapunov_L1`` from psi(f), psi1(f), cell width dy and grad_sq = ||d_y psi(f)||^2."""
    return 0.5 * grad_sq + dy * float(np.sum(psi_f - M * psi1_f))


def lyapunov_L1(p: Potentials, f: FieldF, M: float) -> float:
    """Lyapunov energy (1/2)||d_y psi(f)||^2 + int (psi(f) - M psi1(f)) dy.

    Non-increasing along f-form trajectories; also evaluated on arbitrary
    profiles when building blowup certificates.
    """
    psi_f = np.asarray(p.psi(f.values), dtype=float)
    psi1_f = np.asarray(p.psi1(f.values), dtype=float)
    return lyapunov_value(psi_f, psi1_f, f.h, M, grad_norm_sq(psi_f, f.h))


def energy_E1(h_vals, M: float) -> float:
    """(1/2)||d_y h||^2 plus the integral of the negative part of h."""
    h_vals = np.asarray(h_vals, dtype=float)
    dy = M / h_vals.size
    negative_part = dy * float(np.sum(np.where(h_vals < 0.0, h_vals, 0.0)))
    return 0.5 * grad_norm_sq(h_vals, dy) + negative_part


def moment_mq(f: FieldF, q: float) -> float:
    """q-th moment int_0^M y^q f(y) dy by the midpoint rule."""
    if q <= 0.0:
        raise ValueError("moment order q must be positive")
    return f.h * float(np.sum(f.centers**q * f.values))


def sigma(M: float, m0: float, t: float) -> float:
    """Spatially flat supersolution 1/M + e^{Mt} (1/m0 - 1/M).

    m0 is the initial minimum of u; m0 = M gives the constant steady state.
    """
    if not (0.0 < m0 <= M):
        raise ValueError(f"need 0 < m0 <= M, got m0={m0!r}, M={M!r}")
    return 1.0 / M + math.exp(M * t) * (1.0 / m0 - 1.0 / M)


def mu_mass(p: Potentials, M: float) -> float:
    """Constant mu_M in the uniform bound on psi~(f); needs an integrable tail."""
    psi0 = p.psi0
    if not math.isfinite(psi0):
        raise TailDivergenceError("mu_M needs a integrable at infinity")
    pt2m = p.psi_tilde(2.0 / M)
    return (
        1.0
        + 128.0 * M**4
        - 32.0 * M**2 * psi0
        + 64.0 * M**2 * pt2m
        + 8.0 * pt2m**2
        + psi0**2
        - 32.0 * M * psi0
    )


def corollary_square(l1: float, M: float, mu_m: float) -> float:
    """32 M max(L1, 0) + mu_M, the square of the corollary bound on psi~."""
    return 32.0 * M * max(l1, 0.0) + mu_m


def psi_tilde_sup_bound(lyap_f0: float, M: float, mu_m: float) -> float:
    """sqrt(32 M max(L1(f0), 0) + mu_M), the uniform bound on psi~(f(t))."""
    return math.sqrt(corollary_square(lyap_f0, M, mu_m))


def psi_tilde_max(psi_f: np.ndarray, psi0: float) -> float:
    """max psi~(f) from psi(f) and psi(0): x -> fl(x - psi0) is monotone, so
    this is the maximum of psi~ = psi - psi0 taken cell by cell, bit for bit."""
    return float(np.max(psi_f)) - psi0


# --- per-record slacks ---------------------------------------------------------


def energy_norm_terms(
    h: np.ndarray, dy: float, M: float, psi_inv_m: float
) -> tuple[float, float, float, float]:
    """(||d_y h||_2^2, ||h||_1, gex5 slack, gex6 slack) of h = psi(f) on cells
    of width dy, given psi_inv_m = |psi(1/M)|; the slacks are those of

        E1(h) >= (1/4)||d_y h||^2 - M^3 - M |psi(1/M)|
        ||h||_1 <= M^{3/2} ||d_y h||_2 + M |psi(1/M)|

    valid whenever the profile f integrates to one.
    """
    grad_sq = grad_norm_sq(h, dy)
    h_l1 = dy * float(np.sum(np.abs(h)))
    slack_gex5 = energy_E1(h, M) - 0.25 * grad_sq + M**3 + M * psi_inv_m
    slack_gex6 = M**1.5 * math.sqrt(grad_sq) + M * psi_inv_m - h_l1
    return grad_sq, h_l1, slack_gex5, slack_gex6


def energy_norm_slacks(p: Potentials, f: FieldF, M: float) -> tuple[float, float]:
    """Signed slacks of the two energy/norm inequalities of
    ``energy_norm_terms`` for h = psi(f)."""
    h = np.asarray(p.psi(f.values), dtype=float)
    return energy_norm_terms(h, f.h, M, abs(p.psi(1.0 / M)))[2:]


LYAPUNOV_RATE_TOL = 1e-8  # allowed rise of L1 per unit time
SIGMA_TOL = 1e-8          # allowed excess of max f over Sigma(t)


def lyapunov_interval_slack(t0: float, l1_0: float, t1: float, l1_1: float) -> float:
    """Slack of L1(t1) <= L1(t0) + LYAPUNOV_RATE_TOL (t1 - t0) over one
    recorded interval."""
    return l1_0 + LYAPUNOV_RATE_TOL * (t1 - t0) - l1_1


def moment_interval_slack(design, t0: float, mq0: float, t1: float, mq1: float) -> float:
    """Slack of dm_q/dt <= Lambda(m_q) over one recorded interval."""
    rate = (mq1 - mq0) / (t1 - t0)
    return design.lambda_value(mq0) - rate


def gradient_bound_rhs(p: Potentials, l1_0: float, M: float, sigma_t: float, psi_inv_m: float) -> float:
    """Right-hand side L1(0) + M^3 + M|psi(1/M)| + M^2 psi1(Sigma(t)), given
    psi_inv_m = |psi(1/M)|."""
    return l1_0 + M**3 + M * psi_inv_m + M**2 * p.psi1(sigma_t)


def global_bound_chain(
    p: Potentials, l1_0: float, M: float, sigma_t: float, psi_inv_m: float
) -> tuple[float, float, float, float]:
    """Divergent-tail bound chain at time t, given psi_inv_m = |psi(1/M)|: the
    gradient bound X(t) on (1/4)||d_y psi(f)||^2, the bound
    2 M^{3/2} sqrt(X) + M|psi(1/M)| on ||psi(f)||_1, the sup-norm bound C7(t)
    on |psi(f)| and the induced positive lower barrier psi^{-1}(-C7(t)) on f."""
    x = gradient_bound_rhs(p, l1_0, M, sigma_t, psi_inv_m)
    root = math.sqrt(max(x, 0.0))
    rhs_l1 = 2.0 * M**1.5 * root + M * psi_inv_m
    c7 = rhs_l1 / M + math.sqrt(M) * (2.0 * root)
    return x, rhs_l1, c7, p.psi_inverse(-c7)


def global_barrier(p: Potentials, l1_0: float, M: float, sigma_t: float) -> tuple[float, float]:
    """C7(t) and the lower barrier psi^{-1}(-C7(t)) of ``global_bound_chain``."""
    return global_bound_chain(p, l1_0, M, sigma_t, abs(p.psi(1.0 / M)))[2:]


# --- records -------------------------------------------------------------------


@dataclass
class DiagnosticsRecord:
    """One row of the trajectory diagnostics."""

    t: float
    dt: Optional[float] = None
    f_min: Optional[float] = None
    f_max: Optional[float] = None
    u_max: Optional[float] = None
    mass_err: Optional[float] = None
    l1: Optional[float] = None
    m_q: Optional[float] = None
    sigma_t: Optional[float] = None
    psi_tilde_max: Optional[float] = None
    slack_lyapunov: Optional[float] = None
    slack_sigma: Optional[float] = None
    slack_corollary: Optional[float] = None
    slack_corollary_pertime: Optional[float] = None
    slack_gex5: Optional[float] = None
    slack_gex6: Optional[float] = None
    slack_moment_ode: Optional[float] = None
    slack_m_q_decreasing: Optional[float] = None
    slack_lambda_chain: Optional[float] = None
    slack_prandtl: Optional[float] = None
    slack_psi_l1: Optional[float] = None
    slack_barrier: Optional[float] = None


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    min_slack: Optional[float] = None
    first_violation_t: Optional[float] = None
    note: str = ""


def _suite(pairs: Sequence[tuple[float, float]], tol: float) -> CheckResult:
    """Aggregate (t, slack) pairs into a pass/fail verdict at tolerance tol."""
    if not pairs:
        return CheckResult(passed=True, note="no records to check")
    min_t, min_slack = min(pairs, key=lambda ts: ts[1])
    violations = [(t, s) for t, s in pairs if s < -tol]
    if violations:
        return CheckResult(passed=False, min_slack=min_slack, first_violation_t=violations[0][0])
    return CheckResult(passed=True, min_slack=min_slack)


# --- suite checks over a series -------------------------------------------------


def _slack_pairs(series: Sequence[DiagnosticsRecord], name: str) -> list[tuple[float, float]]:
    """(t, slack) of every record that carries the slack ``name``."""
    return [(r.t, getattr(r, name)) for r in series if getattr(r, name) is not None]


def check_lyapunov(series: Sequence[DiagnosticsRecord]) -> CheckResult:
    """L1 must not increase by more than LYAPUNOV_RATE_TOL per unit time."""
    return _suite(_slack_pairs(series, "slack_lyapunov"), tol=0.0)


def check_sigma_comparison(series: Sequence[DiagnosticsRecord]) -> CheckResult:
    """Pointwise comparison f(t, .) <= Sigma(t) + SIGMA_TOL via the recorded max."""
    return _suite(_slack_pairs(series, "slack_sigma"), tol=0.0)


def check_corollary_bound(series: Sequence[DiagnosticsRecord]) -> dict[str, CheckResult]:
    """Uniform bound on psi~ along the trajectory (integrable-tail regime):
    the fixed bound from L1(f0), and the sharper per-time variant, on the
    square, from L1(f(t))."""
    return {
        "psi_tilde_bound_fixed": _suite(_slack_pairs(series, "slack_corollary"), tol=1e-6),
        "psi_tilde_bound_pertime": _suite(_slack_pairs(series, "slack_corollary_pertime"), tol=1e-6),
    }


def check_energy_norm_series(series: Sequence[DiagnosticsRecord]) -> dict[str, CheckResult]:
    return {
        "gex5": _suite(_slack_pairs(series, "slack_gex5"), tol=1e-8),
        "gex6": _suite(_slack_pairs(series, "slack_gex6"), tol=1e-8),
    }


def check_moment_ode(series: Sequence[DiagnosticsRecord], design) -> dict[str, CheckResult]:
    """dm_q/dt <= Lambda(m_q) over recorded intervals, m_q not increasing
    between records (a constant m_q passes), and the chain Lambda(m_q(t)) <=
    Lambda(m_q(0)) < 0, at a tolerance of 1e-3 |Lambda(m_q(0))|."""
    if design is None:
        raise ValueError("moment ODE check needs a blowup design")
    lam0 = design.lambda_value(design.m_q0)
    tol = 1e-3 * abs(lam0)
    chain = _suite(_slack_pairs(series, "slack_lambda_chain"), tol=max(tol, 1e-12))
    if lam0 >= 0.0:
        chain = CheckResult(passed=False, min_slack=chain.min_slack, note=f"Lambda(m_q(0)) = {lam0!r} not negative")
    return {
        "moment_ode": _suite(_slack_pairs(series, "slack_moment_ode"), tol=tol),
        "m_q_decreasing": _suite(_slack_pairs(series, "slack_m_q_decreasing"), tol=0.0),
        "lambda_chain": chain,
    }


def check_global_bounds(series: Sequence[DiagnosticsRecord]) -> dict[str, CheckResult]:
    """Divergent-tail bound chain from the records' slacks: gradient bound,
    L1 bound on psi(f), and the induced lower barrier on min f."""
    return {
        "prandtl": _suite(_slack_pairs(series, "slack_prandtl"), tol=1e-8),
        "psi_l1_bound": _suite(_slack_pairs(series, "slack_psi_l1"), tol=1e-8),
        "f_min_barrier": _suite(_slack_pairs(series, "slack_barrier"), tol=0.0),
    }
