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

The decay-pair suprema gamma_theta and C_inf of a recognized power product
c r^p (b+r)^beta are closed forms: the largest of the value at r = 1, the
limit at the open end and the value at the critical point, with divergence
decided by the exponents.  Every other supremum (gamma, and every
supremum of an expression coefficient) is estimated on a 2048-point log
grid, refined around the maximizer in rounds of 65 evenly spaced points;
divergence at the corner of the interval is decided exactly where the
exponents are known and by decade-growth heuristics (flagged "numeric")
otherwise; one estimator, ``_sup_estimate``, serves every grid supremum.
Whatever the class of a, gamma's tail integrals come from its closed
primitive when there is one and otherwise from one cumulative
``integrate_cells`` sweep.  The grid and each round are one array call of
phi, each value bit-identical to phi at that point alone.
"""

from __future__ import annotations

import functools
import itertools
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
from .diagnostics import corollary_square, grad_norm_sq, lyapunov_value, mu_mass
from .quadrature import integrate_cells
from .transform import delta_cap, pam_profiles

_GRID_POINTS = 2048
_REFINE_STEPS = np.arange(65) / 64  # a refinement round's points, as fractions of its bracket
_REFINE_ROUNDS = 24  # the refinement's cap
_SEARCH_ROUND = 8  # levels of a design search (delta, eps_M) per array call


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


def _refine_max(phi, lo: float, hi: float) -> float:
    """Best value of phi seen on [lo, hi] by rounds of 65 evenly spaced
    points (``np.linspace``'s, bit for bit), one array call each, the next
    round on the two cells around the best point, until no float inside them
    is unseen: 8-10 rounds on two cells of a supremum grid (under 2^49 floats)."""
    best = -math.inf
    for _ in range(_REFINE_ROUNDS):
        x = lo + (hi - lo) * _REFINE_STEPS
        x[-1] = hi
        vals = np.asarray(phi(x), dtype=float)
        j = int(np.argmax(vals))
        best = max(best, float(vals[j]))
        cells = x[max(j - 1, 0):j + 2]
        if np.all(np.nextafter(cells[:-1], math.inf) >= cells[1:]):
            break
        lo, hi = cells[0], cells[-1]
    return best


@functools.cache
def _log_grid(lo: float, hi: float) -> np.ndarray:
    """The 2048-point log grid of [lo, hi], built on first use and then
    shared (read-only) by every supremum on that interval."""
    grid = np.geomspace(lo, hi, _GRID_POINTS)
    grid.flags.writeable = False
    return grid


def _sup_on_grid(phi, lo: float, hi: float, corner: str) -> float:
    """Supremum of phi over the open interval via log grid plus refinement;
    phi is evaluated once on the whole grid, then once per refinement round."""
    grid = _log_grid(lo, hi)
    return _sup_estimate(grid, np.asarray(phi(grid), dtype=float), phi, corner)


def _sup_estimate(grid: np.ndarray, vals: np.ndarray, phi, corner: str) -> float:
    """Supremum from the values ``vals`` of phi on a log grid, refined by
    ``_refine_max`` on the two cells around the grid maximizer.

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
    return max(float(vals[imax]), _refine_max(phi, a, b))


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
    # -r A(r) ~ r^{p+2} near zero: divergent exactly when p < -2
    if c.smallr_exponent is not None and c.smallr_exponent < -2.0:
        return math.inf
    if c.primitive(1.0) is not None:
        return _sup_on_grid(lambda r: -r * c.tail_integral(r), *_UNIT_INTERVAL)
    return _gamma_numeric(c)


def _gamma_numeric(c: Coefficient) -> float:
    """gamma without a closed primitive: one cumulative sweep of the tail
    integral over the log grid (2048 independent improper integrals would
    be needlessly slow)."""
    lo, hi, corner = _UNIT_INTERVAL
    grid = _log_grid(lo, hi)
    cells = integrate_cells(c, grid[:-1], grid[1:])
    # tails[k] = tails[k + 1] + int_{grid[k]}^{grid[k+1]} a, summed downward
    start = -c.tail_integral(float(grid[-1]))
    tails = np.add.accumulate(np.concatenate(([start], cells[::-1])))[::-1]

    def phi(r: np.ndarray) -> np.ndarray:
        k = np.searchsorted(grid, r)  # the refinement brackets are grid cells: r <= grid[-1]
        return r * (tails[k] + integrate_cells(c, r, grid[k]))

    return _sup_estimate(grid, grid * tails, phi, corner)


def compute_decr_constants(c: Coefficient, theta: float, alpha: float) -> tuple[float, float]:
    """(gamma_theta, C_inf) = (sup_{(0,1)} r^{2+theta} a, sup_{r>=1} r^alpha a).

    Requires theta > 0 and alpha in (theta/(1+theta), 2]; infinite values
    are returned as math.inf rather than raised.  For a power product both
    are closed forms and the exponents decide divergence exactly.
    """
    _check_decr_pair(theta, alpha)
    return _weighted_sup(c, 2.0 + theta, _UNIT_INTERVAL), _weighted_sup(c, alpha, _FROM_ONE)


def _check_decr_pair(theta: float, alpha: float) -> None:
    if not theta > 0.0:
        raise RegimeError("theta must be positive")
    if not (theta / (1.0 + theta) < alpha <= 2.0):
        raise RegimeError(
            f"alpha={alpha!r} outside the admissible range ({theta/(1+theta)!r}, 2]"
        )


def _weighted_sup(c: Coefficient, e: float, interval: tuple, eval_a=None) -> float:
    """sup of r^e a(r) over ``interval``: in closed form for a power
    product, otherwise estimated on the grid once per coefficient, with a
    from ``eval_a`` (default ``c.eval_a``)."""
    if isinstance(c, PowerProductCoefficient):
        return _power_product_sup(c, e, interval)
    memo = c.weighted_suprema
    if (e, interval) not in memo:
        memo[e, interval] = _sup_on_grid(_weighted_a(c, e, eval_a), *interval)
    return memo[e, interval]


def _power_product_sup(c: PowerProductCoefficient, e: float, interval: tuple) -> float:
    """sup of phi(r) = r^e a(r) = c r^k (b+r)^beta, k = e + p, over (0,1)
    (``_UNIT_INTERVAL``) or [1, inf) (``_FROM_ONE``).

    phi'/phi = (k b + m r)/(r (b+r)) with m = k + beta, so phi is infinite
    near 0 when k < 0 and near infinity when m > 0; otherwise its supremum
    is the largest of phi(1), the limit at the open end (c b^beta when
    k = 0 on (0,1), c when m = 0 on [1, inf)) and phi at the critical point
    r* = -b k/m when r* lies strictly inside.  k and m are summed as
    smallr_exponent + e and tail_exponent + e, so m is exactly 0 for the
    alpha = -tail_exponent of ``default_candidates``.  phi(1) and phi(r*)
    are evaluated as ``_weighted_a`` does, so a value that is not finite
    and positive raises its errors.  phi(r*) may land a few ulp below the
    grid's best point: the value is an estimate, not an enclosure.
    """
    k = c.smallr_exponent + e
    m = c.tail_exponent + e
    left = interval[2] == "left"
    end_exponent = k if left else -m  # phi ~ r^k near 0 and ~ r^m near infinity
    if end_exponent < 0.0:
        return math.inf
    phi = _weighted_a(c, e)
    candidates = [phi(1.0)]
    if end_exponent == 0.0:
        candidates.append(c.c * c.b**c.beta if left else c.c)
    if m != 0.0:
        r_star = -c.b * k / m
        if (0.0 < r_star < 1.0) if left else r_star > 1.0:
            candidates.append(phi(r_star))
    return float(max(candidates))


def _weighted_a(c: Coefficient, e: float, eval_a=None):
    """phi(r) = r^e a(r) on a scalar or an array, with a from ``eval_a``
    (default ``c.eval_a``) and r^e by Python's float pow per element, so
    arrays equal ``_power_product_sup``'s scalars bit for bit.

    Kept on purpose: on the 2048-point supremum grids ``np.power`` differs
    from the scalar pow at 118 points for e = 2.5 on (1e-8, 1), at 82-131
    points for other non-integer e on either grid, and at 2-4 points even
    for e = 2.0.  A list comprehension over ``.tolist()`` in place of
    ``np.fromiter`` saves at most 0.09 ms of a 0.3 ms grid, within timing
    noise (2-vCPU shared host).
    """
    eval_a = c.eval_a if eval_a is None else eval_a
    return lambda r: (r**e if np.ndim(r) == 0 else np.fromiter((x**e for x in r.flat), float, r.size)) * eval_a(r)


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
    admissible value in (theta/(1+theta), 2] keeping C_inf finite.

    The candidates' grid suprema share one evaluation of a on the
    ``_FROM_ONE`` grid, made by the first that needs it and dropped on
    return; only r^alpha and the refinement rounds differ between them."""
    theta = 0.5 if theta is None else theta
    _check_decr_pair(theta, 2.0)  # theta first: alpha = 2 is admissible for every theta > 0
    if alpha is not None:
        return theta, alpha
    alpha_floor = theta / (1.0 + theta)
    if c.tail_exponent is not None:
        alpha = min(2.0, -c.tail_exponent)
        if alpha <= alpha_floor:
            alpha = 2.0  # no admissible choice keeps C_inf finite; report as such
        return theta, alpha
    grid = _log_grid(*_FROM_ONE[:2])
    a_on_grid = functools.cache(lambda: c.eval_a(grid))  # evaluated by the first candidate that needs it
    eval_a = lambda r: a_on_grid() if r is grid else c.eval_a(r)
    for candidate in np.arange(2.0, alpha_floor, -0.1):
        alpha = float(candidate)
        _check_decr_pair(theta, alpha)
        if math.isfinite(_weighted_sup(c, alpha, _FROM_ONE, eval_a)):
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


MAJORANT_I_MAX = 40  # the majorant's last dyadic slope is b_40, at r = 2^40


def build_majorant(c: Coefficient) -> ConcaveMajorant:
    """Assemble the dyadic-slope concave majorant with slopes b_0 ..
    b_MAJORANT_I_MAX; requires an integrable tail and finite gamma."""
    if not c.tail_integrable:
        raise TailDivergenceError("majorant needs a integrable at infinity")
    gamma = compute_gamma(c)
    if not math.isfinite(gamma):
        raise RegimeError("majorant needs gamma < inf")
    slopes = [-c.tail_integral(2.0**i) for i in range(MAJORANT_I_MAX + 1)]
    offsets = [0.0]
    for j in range(MAJORANT_I_MAX):
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
        """Lambda(m) of ``_lambda`` at this design's constants."""
        if m < 0.0:
            raise ValueError("moment must be nonnegative")
        return _lambda(self.M, self.q, self.theta, self.c2, self.k0, m)

    def validate(self) -> None:
        cap = delta_cap(self.M, self.q)
        q_floor = _q_floor(self.theta, self.alpha)
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


def _lambda(M: float, q: float, theta: float, c2: float, k0: float, m: float) -> float:
    """Lambda(m) = C2 K0^{theta+1} m^{(q-2)/q} + M m - M^{q+1}/(2(q+1))."""
    return c2 * k0 ** (theta + 1.0) * m ** ((q - 2.0) / q) + M * m - M ** (q + 1.0) / (2.0 * (q + 1.0))


def _q_floor(theta: float, alpha: float) -> float:
    """max(3 + theta, (5 + 3 theta) / (alpha (theta + 1) - theta)) < q."""
    return max(3.0 + theta, (5.0 + 3.0 * theta) / (alpha * (theta + 1.0) - theta))


def _choose_q(theta: float, alpha: float) -> float:
    q_floor = _q_floor(theta, alpha)
    # exceed the floor by 0.5, then round up to one decimal
    return math.ceil((q_floor + 0.5) * 10.0 - 1e-9) / 10.0


def _first_accepted(levels, evaluate, judge):
    """First ``judge(level, value)`` not None, levels in order, else None; ``evaluate`` takes
    ``_SEARCH_ROUND`` levels per call, or one at a time where that call raises, so
    the search raises what a level-by-level search raises, at the same level.
    ``levels`` is any iterable, drawn one round at a time."""
    levels = iter(levels)
    while chunk := list(itertools.islice(levels, _SEARCH_ROUND)):
        try:
            values = evaluate(chunk)
        except Exception:
            values = (evaluate([level])[0] for level in chunk)
        for level, value in zip(chunk, values):
            if (result := judge(level, value)) is not None:
                return result


EPS_LEVELS = 1022  # eps_M tries 2^-k for k <= 1022: 2^-1022 is the smallest normal double


def _choose_eps(p: Potentials, M: float, q: float) -> float:
    """Largest dyadic 2^{-k}, k = 1 ... EPS_LEVELS, with q(q+1)/M^2 * psi~(eps) <= 1/2."""
    budget = 0.5 * M**2 / (q * (q + 1.0))
    levels = (2.0**-k for k in range(1, EPS_LEVELS + 1))
    eps = _first_accepted(levels, p.psi_tilde, lambda e, value: e if value <= budget else None)
    if eps is None:
        raise RegimeError("no dyadic eps_M satisfied the tail-smallness condition")
    return eps


DELTA_FLOOR = 1e-8  # the halving search gives up below this spike width


def _spike_lyapunov(p: Potentials, M: float, q: float, deltas: list, n_y: int) -> list:
    """L1 of the spike profile of each delta, from one psi and one psi1 call
    on the stacked profiles, with h = M/n_y (``FieldF.h``)."""
    f = pam_profiles(M, q, deltas, n_y)
    psi_f, psi1_f, h = p.psi(f), p.psi1(f), M / n_y
    return lyapunov_value(psi_f, psi1_f, h, M, grad_norm_sq(psi_f, h))


def select_delta(
    p: Potentials,
    M: float,
    q: float,
    theta: float,
    mu_m: float,
    c2: float,
    n_y: int = 400,
):
    """Halving search for the spike width delta.

    delta_k = delta_cap(M, q) * 2^{-k} / 2 for k = 1, 2, ... down to
    DELTA_FLOOR.  Each round of eight candidates is one array pass: the
    spike profiles (``pam_profiles``), psi and psi1 on them in one call
    each, and their Lyapunov values (``_spike_lyapunov``).  The candidates
    are then judged in order, each with its induced K0, m_q(0) and
    certificate value Lambda(m_q(0)), and the first negative one is
    accepted.  Returns (delta, k0, lyap_f0, m_q0, lambda_m_q0, trace).
    """
    cap = delta_cap(M, q)
    levels = [d for d in (cap * 2.0**-k / 2.0 for k in range(1, 64)) if not d < DELTA_FLOOR]
    trace = []

    def judge(delta, lyap):
        k0 = corollary_square(lyap, M, mu_m) ** (1.0 / (2.0 * (2.0 + theta)))
        mq0 = moment_at_start(M, q, delta)
        lam = _lambda(M, q, theta, c2, k0, mq0)
        trace.append((delta, k0, lam))
        return (delta, k0, lyap, mq0, lam, tuple(trace)) if lam < 0.0 else None

    found = _first_accepted(levels, lambda deltas: _spike_lyapunov(p, M, q, deltas, n_y), judge)
    if found is None:
        reason = ("Lambda stayed nonnegative" if levels
                  else f"delta_cap(M, q) = {cap!r} puts the first level, cap/4, below it")
        raise DesignFailure(f"no certificate delta above {DELTA_FLOOR:g}; {reason}", tuple(trace))
    return found


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
    if not 0.0 < M < math.inf:
        raise RegimeError("mass must be positive and finite")
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
    delta, k0, lyap, mq0, lam, trace = select_delta(p, M, q, theta, mu_m, c2, n_y=n_y)
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
