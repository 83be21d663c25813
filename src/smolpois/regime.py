"""Regime classification and explicit blowup certificates.

For a positive diffusion coefficient a the trichotomy is decided by the
tail of a and its singularity strength near zero:

  * tail divergent (a not integrable on (1, inf))  ->  every solution is
    global: clause ``global``;
  * tail integrable and gamma = sup_{(0,1)} r int_r^inf a < inf  ->
    blowup from suitable data: clause ``blowup-via-(1)``;
  * tail integrable, gamma = inf, but r^{2+theta} a bounded near 0 and
    r^alpha a bounded at infinity for admissible (theta, alpha)  ->
    clause ``blowup-via-(decr)``;
  * otherwise ``unclassified`` (the dichotomy is silent).

The module also builds the piecewise-linear concave majorant B of
-r A(r) with dyadic slopes b_i = int_{2^i}^inf a, and assembles the fully
explicit certificate (q, eps_M, delta, mu_M, K0, C1, C2) whose moment
inequality dm_q/dt <= Lambda(m_q) < 0 forces finite-time touch-down.

Suprema over open intervals are estimated on a 2048-point log grid with
golden-section refinement around the maximizer; divergence at the corner
of the interval is decided exactly for recognized power products and by
decade-growth heuristics (flagged "numeric") otherwise; one estimator,
``_sup_estimate``, serves every supremum.  Grid values come from one
array call (the numeric gamma's tail integrals from one ``integrate_cells``
sweep), bit-identical to a point-by-point loop; only the refinement
evaluates point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .coefficient import (
    CLOSED_FORM,
    NUMERIC,
    Coefficient,
    Potentials,
    PowerProductCoefficient,
    TailDivergenceError,
)
from .diagnostics import lyapunov_L1, mu_mass
from .quadrature import integrate, integrate_cells
from .transform import pam_profile

_GRID_POINTS = 2048
_GSS_ITERS = 140
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class RegimeError(ValueError):
    pass


class CertificateUnavailable(RegimeError):
    """The decay-pair constants are infinite, so the explicit moment
    certificate cannot be assembled for this coefficient."""


class DesignFailure(RuntimeError):
    """The halving search exhausted its range without a valid certificate."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = trace


# --- supremum estimation -------------------------------------------------------


def _gss_max(phi, lo: float, hi: float) -> float:
    """Best value of phi seen by a golden-section maximum search on [lo, hi].

    The search stops once every float strictly inside the bracket (a, b) is
    c or d: each later iterate would evaluate c, d or an end of the bracket,
    and an end is lo, hi or a point already evaluated.
    """
    best = -math.inf
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = phi(c), phi(d)
    best = max(best, fc, fd)
    for _ in range(_GSS_ITERS):
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


def _sup_on_grid(phi, lo: float, hi: float, corner: str) -> float:
    """Supremum of phi over the open interval via log grid plus refinement;
    phi is evaluated once on the whole grid, then point by point."""
    grid = np.geomspace(lo, hi, _GRID_POINTS)
    return _sup_estimate(grid, np.asarray(phi(grid), dtype=float), phi, corner)


def _sup_estimate(grid: np.ndarray, vals: np.ndarray, phi, corner: str) -> float:
    """Supremum from the values ``vals`` of phi on a log grid, refined by a
    golden-section search on the two cells around the grid maximizer.

    ``corner`` names the potentially divergent end ("left" or "right");
    returns math.inf when decade growth heuristics flag divergence: growth
    by a factor > 10 over the corner decade, or a maximizer inside the
    corner decade that still climbs into the corner.
    """
    lo, hi = grid[0], grid[-1]
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
        # maximizer sits in the corner decade and is still climbing: the
        # grid has not resolved a finite supremum
        return math.inf
    a = grid[max(imax - 1, 0)]
    b = grid[min(imax + 1, grid.size - 1)]
    return max(float(vals[imax]), _gss_max(phi, a, b))


# sup over (0,1): grid on [1e-8, 1) with the divergence corner at 0
_UNIT_INTERVAL = (1e-8, 1.0 - 1e-15, "left")
# sup over [1, inf): grid on [1, 1e8] with the divergence corner at inf
_FROM_ONE = (1.0, 1e8, "right")


# --- condition (gamma) and the decay-pair constants -----------------------------


def compute_gamma(c: Coefficient) -> float:
    """gamma = sup_{r in (0,1)} r * int_r^inf a(s) ds; inf when the tail
    diverges or the singularity of a near zero is stronger than 1/r^2."""
    if not c.tail_integrable:
        return math.inf
    if isinstance(c, PowerProductCoefficient):
        # -r A(r) ~ r^{p+2} near zero: divergent exactly when p < -2
        if c.smallr_exponent < -2.0:
            return math.inf
        return _sup_on_grid(lambda r: -r * c.tail_integral(r), *_UNIT_INTERVAL)
    return _gamma_numeric(c)


def _gamma_numeric(c: Coefficient) -> float:
    """Numeric gamma: one cumulative sweep of the tail integral over the log
    grid (2048 independent improper integrals would be needlessly slow)."""
    lo, hi, corner = _UNIT_INTERVAL
    grid = np.geomspace(lo, hi, _GRID_POINTS)
    cells = integrate_cells(c, grid)
    # tails[k] = tails[k + 1] + int_{grid[k]}^{grid[k+1]} a, summed downward
    start = -c.tail_integral(float(grid[-1]))
    tails = np.add.accumulate(np.concatenate(([start], cells[::-1])))[::-1]

    def phi(r: float) -> float:
        k = int(np.searchsorted(grid, r))
        if k >= _GRID_POINTS:
            return r * -c.tail_integral(r)
        return r * (tails[k] + integrate(c, r, float(grid[k])))

    return _sup_estimate(grid, grid * tails, phi, corner)


def compute_decr_constants(c: Coefficient, theta: float, alpha: float) -> tuple[float, float]:
    """(gamma_theta, C_inf) = (sup_{(0,1)} r^{2+theta} a, sup_{r>=1} r^alpha a).

    Requires theta > 0 and alpha in (theta/(1+theta), 2]; infinite values
    are returned as math.inf rather than raised.  For a power product the
    exponents decide divergence exactly.
    """
    _check_decr_pair(theta, alpha)
    return _gamma_theta(c, theta), _c_infinity(c, alpha)


def _check_decr_pair(theta: float, alpha: float) -> None:
    if theta <= 0.0:
        raise RegimeError("theta must be positive")
    if not (theta / (1.0 + theta) < alpha <= 2.0):
        raise RegimeError(
            f"alpha={alpha!r} outside the admissible range ({theta/(1+theta)!r}, 2]"
        )


def _gamma_theta(c: Coefficient, theta: float) -> float:
    """sup_{(0,1)} r^{2+theta} a(r), independent of alpha."""
    if isinstance(c, PowerProductCoefficient) and c.smallr_exponent + 2.0 + theta < 0.0:
        return math.inf
    return _weighted_sup(c, 2.0 + theta, _UNIT_INTERVAL)


def _c_infinity(c: Coefficient, alpha: float) -> float:
    """sup_{r>=1} r^alpha a(r), independent of theta."""
    if isinstance(c, PowerProductCoefficient) and c.tail_exponent + alpha > 0.0:
        return math.inf
    return _weighted_sup(c, alpha, _FROM_ONE)


def _weighted_sup(c: Coefficient, e: float, interval: tuple) -> float:
    """sup of r^e a(r) over ``interval``, estimated once per coefficient."""
    memo = c.weighted_suprema
    if (e, interval) not in memo:
        memo[e, interval] = _sup_on_grid(_weighted_a(c, e), *interval)
    return memo[e, interval]


def _weighted_a(c: Coefficient, e: float):
    """phi(r) = r^e a(r) on a scalar or an array, with r^e by Python's float
    pow per element, so the grid values equal the refinement's bit for bit.

    Kept on purpose: on the 2048-point supremum grids ``np.power`` differs
    from the scalar pow at 118 points for e = 2.5 on (1e-8, 1), at 82-131
    points for other non-integer e on either grid, and at 2-4 points even
    for e = 2.0.  A list comprehension over ``.tolist()`` in place of
    ``np.fromiter`` saves at most 0.09 ms of a 0.3 ms grid, within timing
    noise (2-vCPU shared host).
    """
    return lambda r: (r**e if np.ndim(r) == 0 else np.fromiter((x**e for x in r.flat), float, r.size)) * c.eval_a(r)


# --- classification --------------------------------------------------------------


@dataclass(frozen=True)
class RegimeReport:
    clause: str                      # global | blowup-via-(1) | blowup-via-(decr) | unclassified
    tail_integrable: bool
    gamma: float                     # may be math.inf
    theta: Optional[float] = None
    alpha: Optional[float] = None
    gamma_theta: Optional[float] = None
    c_infinity: Optional[float] = None
    source: str = CLOSED_FORM        # closed-form | numeric verdicts
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Every field, in field order; ``harness.dumps_deterministic``
        writes an infinite value as "inf" or "-inf"."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def default_candidates(c: Coefficient, theta: Optional[float], alpha: Optional[float]) -> tuple[float, float]:
    """Fill unspecified (theta, alpha): theta = 0.5 and alpha the largest
    admissible value in (theta/(1+theta), 2] keeping C_inf finite."""
    theta = 0.5 if theta is None else theta
    if alpha is not None:
        return theta, alpha
    alpha_floor = theta / (1.0 + theta)
    if isinstance(c, PowerProductCoefficient):
        alpha = min(2.0, -c.tail_exponent)
        if alpha <= alpha_floor:
            alpha = 2.0  # no admissible choice keeps C_inf finite; report as such
        return theta, alpha
    for candidate in np.arange(2.0, alpha_floor, -0.1):
        alpha = float(candidate)
        _check_decr_pair(theta, alpha)
        if math.isfinite(_c_infinity(c, alpha)):
            return theta, alpha
    return theta, 2.0


def classify(c: Coefficient, theta: Optional[float] = None, alpha: Optional[float] = None) -> RegimeReport:
    """Decide which clause of the dichotomy applies to a coefficient."""
    notes = []
    source = c.verdict_source
    if source == NUMERIC:
        notes.append("integrability and supremum verdicts are numeric heuristics")
    gamma = compute_gamma(c)  # inf when the tail diverges
    use_theta = use_alpha = gamma_theta = c_inf = None
    if not c.tail_integrable:
        clause = "global"
    elif math.isfinite(gamma):
        clause = "blowup-via-(1)"
        if theta is not None or alpha is not None:
            use_theta, use_alpha = default_candidates(c, theta, alpha)
            gamma_theta, c_inf = compute_decr_constants(c, use_theta, use_alpha)
    else:
        gamma = math.inf  # reported as inf whatever non-finite value the estimate gave
        use_theta, use_alpha = default_candidates(c, theta, alpha)
        gamma_theta, c_inf = compute_decr_constants(c, use_theta, use_alpha)
        if math.isfinite(gamma_theta) and math.isfinite(c_inf):
            clause = "blowup-via-(decr)"
            if theta is None or alpha is None:
                notes.append(
                    f"(theta, alpha) = ({use_theta}, {use_alpha}) chosen by default; "
                    "other admissible pairs may exist"
                )
        else:
            clause = "unclassified"
            notes.append("tail integrable but neither singularity condition verified")
    return RegimeReport(
        clause=clause,
        tail_integrable=c.tail_integrable,
        gamma=gamma,
        theta=use_theta,
        alpha=use_alpha,
        gamma_theta=gamma_theta,
        c_infinity=c_inf,
        source=source,
        notes=tuple(notes),
    )


# --- concave majorant -------------------------------------------------------------


@dataclass(frozen=True)
class ConcaveMajorant:
    """Piecewise-linear concave dominator of -r A(r) with sublinear growth.

    Slopes b_i = int_{2^i}^inf a on the dyadic blocks (2^i, 2^{i+1}];
    B(r) = b_0 r + gamma on [0, 2]; the evaluator extends the last branch
    beyond 2^{i_max + 1}.
    """

    gamma: float
    slopes: tuple[float, ...]        # b_0 .. b_{i_max}
    offsets: tuple[float, ...]       # sum_{j<i} (b_j - b_{j+1}) 2^{j+1}

    @property
    def i_max(self) -> int:
        return len(self.slopes) - 1

    def branch_index(self, r: float) -> int:
        if r <= 2.0:
            return 0
        i = int(math.floor(math.log2(r)))
        if 2.0**i >= r:  # exact powers of two belong to the lower branch
            i -= 1
        return min(i, self.i_max)

    def __call__(self, r: float) -> float:
        if r < 0.0:
            raise ValueError("majorant defined on r >= 0")
        i = self.branch_index(r)
        return self.slopes[i] * r + self.offsets[i] + self.gamma


def build_majorant(c: Coefficient, i_max: int = 40) -> ConcaveMajorant:
    """Assemble the dyadic-slope concave majorant; requires an integrable
    tail and finite gamma."""
    if not c.tail_integrable:
        raise TailDivergenceError("majorant needs a integrable at infinity")
    gamma = compute_gamma(c)
    if not math.isfinite(gamma):
        raise RegimeError("majorant needs gamma < inf")
    slopes = [-c.tail_integral(2.0**i) for i in range(i_max + 1)]
    offsets = [0.0]
    for j in range(i_max):
        offsets.append(offsets[-1] + (slopes[j] - slopes[j + 1]) * 2.0 ** (j + 1))
    return ConcaveMajorant(gamma=gamma, slopes=tuple(slopes), offsets=tuple(offsets))


CONTINUITY_RTOL = 1e-12


@dataclass(frozen=True)
class MajorantReport:
    passed: bool
    domination_min_slack: float
    nonnegative_ok: bool
    slopes_decreasing: bool
    sublinear_value: float           # B(2^{i_max}) / 2^{i_max}
    sublinear_bound: float           # b_{i_max-1} + (gamma + 2^{i_max-1} b_0) / 2^{i_max}
    continuity_gap: float            # largest relative jump of B at r = 2^i, i = 1..i_max


def verify_majorant(c: Coefficient, majorant: ConcaveMajorant) -> MajorantReport:
    """Check domination B(r) >= -r A(r) >= 0 on 200 log-spaced samples of
    [1e-6, 2^{i_max}], strict slope decrease (concavity), continuity at
    every breakpoint, and the sublinear-growth surrogate at the last
    breakpoint.

    Continuity is what pins the offsets: at r = 2^i, i = 1..i_max, the
    branches i-1 and i must meet, b_{i-1} r + off_{i-1} = b_i r + off_i, to
    CONTINUITY_RTOL relative.  Domination and the surrogate alone miss an
    offset that grows too fast, as it only raises B.

    The surrogate follows from the construction: with decreasing slopes,
    off_i = sum_{j<i} (b_j - b_{j+1}) 2^{j+1} <= 2^i (b_0 - b_i) <= 2^i b_0.
    As r = 2^{i_max} lies on branch i_max - 1,
    B(r)/r = b_{i_max-1} + (gamma + off_{i_max-1})/r
           <= b_{i_max-1} + (gamma + 2^{i_max-1} b_0)/r.
    """
    i_max = majorant.i_max
    min_slack = math.inf
    nonneg = True
    for r in np.geomspace(1e-6, 2.0**i_max, 200):
        target = -float(r) * c.tail_integral(float(r))
        if target < 0.0:
            nonneg = False
        min_slack = min(min_slack, majorant(float(r)) - target)
    slopes = majorant.slopes
    decreasing = all(b1 > b2 for b1, b2 in zip(slopes, slopes[1:]))
    offsets = majorant.offsets
    gap = 0.0
    for i in range(1, i_max + 1):
        r = 2.0**i
        left = slopes[i - 1] * r + offsets[i - 1]
        right = slopes[i] * r + offsets[i]
        scale = max(abs(left), abs(right))
        if scale > 0.0:
            gap = max(gap, abs(left - right) / scale)
    r_last = 2.0**i_max
    sub_value = majorant(r_last) / r_last
    sub_bound = slopes[i_max - 1] + (majorant.gamma + 2.0 ** (i_max - 1) * slopes[0]) / r_last
    passed = (
        min_slack >= 0.0 and nonneg and decreasing and gap <= CONTINUITY_RTOL and sub_value <= sub_bound
    )
    return MajorantReport(
        passed=passed,
        domination_min_slack=min_slack,
        nonnegative_ok=nonneg,
        slopes_decreasing=decreasing,
        sublinear_value=sub_value,
        sublinear_bound=sub_bound,
        continuity_gap=gap,
    )


# --- explicit blowup design --------------------------------------------------------


@dataclass(frozen=True)
class BlowupDesign:
    """All constants of the explicit finite-time blowup certificate."""

    M: float
    theta: float
    alpha: float
    q: float
    eps_m: float
    delta: float
    c1: float
    c2: float
    mu_m: float
    k0: float
    lyap_f0: float
    m_q0: float
    lambda_m_q0: float
    gamma_theta: float
    c_infinity: float
    n_y: int
    search_trace: tuple[tuple[float, float, float], ...] = field(default=(), repr=False)

    def lambda_value(self, m: float) -> float:
        """Lambda(m) = C2 K0^{theta+1} m^{(q-2)/q} + M m - M^{q+1}/(2(q+1))."""
        if m < 0.0:
            raise ValueError("moment must be nonnegative")
        return (
            self.c2 * self.k0 ** (self.theta + 1.0) * m ** ((self.q - 2.0) / self.q)
            + self.M * m
            - self.M ** (self.q + 1.0) / (2.0 * (self.q + 1.0))
        )

    def validate(self) -> None:
        cap = min(1.0, 2.0 * self.M, (2.0 * self.M) ** (-1.0 / self.q))
        q_floor = max(
            3.0 + self.theta,
            (5.0 + 3.0 * self.theta) / (self.alpha * (self.theta + 1.0) - self.theta),
        )
        if not self.q > q_floor:
            raise RegimeError(f"q={self.q} does not exceed its floor {q_floor}")
        if not (0.0 < self.delta < cap):
            raise RegimeError(f"delta={self.delta} outside (0, {cap})")
        if not self.k0 > 1.0:
            raise RegimeError(f"K0={self.k0} not > 1")
        if not self.mu_m > 0.0:
            raise RegimeError(f"mu_M={self.mu_m} not positive")
        if not self.lambda_m_q0 < 0.0:
            raise RegimeError(f"Lambda(m_q(0))={self.lambda_m_q0} not negative")

    def to_dict(self) -> dict:
        """Every constant, in field order; the search trace is left out."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "search_trace"}


def moment_at_start(M: float, q: float, delta: float) -> float:
    """Closed-form q-th moment of the spike profile:
    (2(1 - M delta^q)/((q+1)(q+2)) + M^{q+1}/(q+1)) delta^q."""
    dq = delta**q
    return (2.0 * (1.0 - M * dq) / ((q + 1.0) * (q + 2.0)) + M ** (q + 1.0) / (q + 1.0)) * dq


def _choose_q(theta: float, alpha: float) -> float:
    q_floor = max(3.0 + theta, (5.0 + 3.0 * theta) / (alpha * (theta + 1.0) - theta))
    # exceed the floor by 0.5, then round up to one decimal
    return math.ceil((q_floor + 0.5) * 10.0 - 1e-9) / 10.0


def _choose_eps(p: Potentials, M: float, q: float) -> float:
    """Largest dyadic 2^{-k} in (0,1) with q(q+1)/M^2 * psi~(eps) <= 1/2."""
    budget = 0.5 * M**2 / (q * (q + 1.0))
    for k in range(1, 200):
        eps = 2.0**-k
        if p.psi_tilde(eps) <= budget:
            return eps
    raise RegimeError("no dyadic eps_M satisfied the tail-smallness condition")


DELTA_FLOOR = 1e-8  # the halving search gives up below this spike width


def select_delta(
    p: Potentials,
    M: float,
    q: float,
    theta: float,
    eps_m: float,
    mu_m: float,
    c2: float,
    n_y: int = 400,
):
    """Halving search for the spike width delta.

    delta_k = min(1, 2M, (2M)^{-1/q}) * 2^{-k} / 2 for k = 1, 2, ...; each
    candidate builds the discrete spike profile, evaluates its Lyapunov value
    and the induced K0, and accepts the first delta whose certificate value
    Lambda(m_q(0)) is negative.  Returns (delta, k0, lyap_f0, m_q0,
    lambda_m_q0, trace).
    """
    cap = min(1.0, 2.0 * M, (2.0 * M) ** (-1.0 / q))
    trace = []
    k = 1
    while True:
        delta = cap * 2.0**-k / 2.0
        if delta < DELTA_FLOOR:
            raise DesignFailure(
                f"no certificate delta above {DELTA_FLOOR:g}; Lambda stayed nonnegative",
                tuple(trace),
            )
        f0 = pam_profile(M, q, delta, n_y)
        lyap = lyapunov_L1(p, f0, M)
        k0 = (32.0 * M * max(lyap, 0.0) + mu_m) ** (1.0 / (2.0 * (2.0 + theta)))
        mq0 = moment_at_start(M, q, delta)
        lam = (
            c2 * k0 ** (theta + 1.0) * mq0 ** ((q - 2.0) / q)
            + M * mq0
            - M ** (q + 1.0) / (2.0 * (q + 1.0))
        )
        trace.append((delta, k0, lam))
        if lam < 0.0:
            return delta, k0, lyap, mq0, lam, tuple(trace)
        k += 1


def design_blowup(
    c: Coefficient,
    M: float,
    theta: float,
    alpha: float,
    n_y: int = 400,
    potentials: Optional[Potentials] = None,
) -> BlowupDesign:
    """Assemble the explicit certificate for finite-time blowup at mass M.

    Requires the decay pair (theta, alpha) to hold with finite constants and
    an integrable tail; every constant is fully computed, nothing is left
    implicit.
    """
    if M <= 0.0:
        raise RegimeError("mass must be positive")
    if not c.tail_integrable:
        raise TailDivergenceError("blowup design needs a integrable at infinity")
    gamma_theta, c_inf = compute_decr_constants(c, theta, alpha)
    if not (math.isfinite(gamma_theta) and math.isfinite(c_inf)):
        raise CertificateUnavailable(
            f"decay pair (theta={theta}, alpha={alpha}) has infinite constants: "
            f"gamma_theta={gamma_theta}, C_inf={c_inf}"
        )
    p = potentials if potentials is not None else Potentials(c)
    q = _choose_q(theta, alpha)
    eps_m = _choose_eps(p, M, q)
    mu_m = mu_mass(p, M)
    psi0 = p.psi0
    c1 = (2.0 + (q + 2.0) * M ** (q + 1.0)) / ((q + 1.0) * (q + 2.0))
    c2 = q * (q - 1.0) * (gamma_theta - psi0 + eps_m) / eps_m
    delta, k0, lyap, mq0, lam, trace = select_delta(p, M, q, theta, eps_m, mu_m, c2, n_y=n_y)
    design = BlowupDesign(
        M=M,
        theta=theta,
        alpha=alpha,
        q=q,
        eps_m=eps_m,
        delta=delta,
        c1=c1,
        c2=c2,
        mu_m=mu_m,
        k0=k0,
        lyap_f0=lyap,
        m_q0=mq0,
        lambda_m_q0=lam,
        gamma_theta=gamma_theta,
        c_infinity=c_inf,
        n_y=n_y,
        search_trace=trace,
    )
    design.validate()
    return design
