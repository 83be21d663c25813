"""Adaptive Gauss-Kronrod quadrature with improper-integral support.

A 7/15-point Gauss-Kronrod pair drives a globally adaptive bisection of
the worst panel.  Semi-infinite integrals over [r, inf) are mapped to the
bounded interval (0, 1] by the substitution s = r/t,

    int_r^inf f(s) ds = int_0^1 f(r/t) * r / t^2 dt,

which turns algebraic tails into mild endpoint singularities the panel
subdivision grades into automatically.

Panels are evaluated in batches: ``integrate`` evaluates both halves of a
bisection in one integrand call, and many cells (a sweep over a grid or a
knot table, one panel per point) go through ``integrate_cells``, which
evaluates the integrand on the Kronrod nodes of up to ``_CELL_BLOCK``
cells in one call and accepts a cell whose single panel meets the
tolerance, the acceptance rule of QUADPACK (Piessens et al., 1983).  The rest go to ``integrate``.  The
batching contract: each panel is one row of the node array, reduced by
``np.vecdot``, which runs the 1-D ``np.dot`` kernel on each row (a matrix
product may sum in another order).  A set of cells or a pair of halves
whose evaluation raises an ``ArithmeticError`` or is not finite falls
back to per-cell ``integrate`` or per-panel ``_panel`` calls, in order.
So every value, and every error raised, is bit-identical to the
one-panel-per-call evaluation.  A panel however long is accepted when its
K15 and G7 agree, so callers keep cells short (``coefficient.Potentials``).

Integrability of a tail is *decided* separately (``dyadic_decay_probe``)
by checking geometric decay of the integral over 40 dyadic blocks
[2^k, 2^{k+1}] (or [2^{-k-1}, 2^{-k}] toward zero), swept as one ``integrate_cells`` call; the verdict is
a numeric heuristic and callers label it as such.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# 15-point Kronrod abscissae on [-1, 1] and weights; the embedded 7-point
# Gauss rule uses the odd-indexed abscissae.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])

DEFAULT_ATOL = 1e-10
_MAX_PANELS = 4000
_PROBE_BLOCKS = 40        # dyadic blocks of dyadic_decay_probe
_PROBE_RATIO_MAX = 0.99   # largest settled block ratio it calls integrable
_PROBE_ATOL = 1e-12       # block tolerance; the ratio after a block this small is 0
_CELL_BLOCK = 1024        # cells whose nodes integrate_cells evaluates in one call


class QuadratureError(ArithmeticError):
    """Adaptive refinement failed to reach the requested tolerance."""

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(f"{message} (estimate {estimate:.6e}, error estimate {error:.3e})")
        self.estimate = estimate
        self.error = error


def _panel(f: Callable, a: float, b: float) -> tuple[float, float]:
    """Kronrod value and |K15 - G7| error estimate on one panel."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _XK
    with np.errstate(all="ignore"):
        y = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(y)):
        raise QuadratureError("integrand not finite inside panel", np.nan, np.inf)
    k15 = half * float(np.dot(_WK, y))
    g7 = half * float(np.dot(_WG, y[1::2]))
    return k15, abs(k15 - g7)


def _kronrod_rows(f: Callable, mid: np.ndarray, half: np.ndarray):
    """The 15- and 7-point weighted sums of ``f`` on the panels with centres
    ``mid`` and half-widths ``half``, one row per panel, as ``_panel`` forms
    them before the factor ``half``; one call of ``f``.  None when ``f``
    raises an ``ArithmeticError`` or is not finite on some panel."""
    x = mid[:, None] + half[:, None] * _XK
    try:
        with np.errstate(all="ignore"):
            y = np.asarray(f(x), dtype=float)
    except ArithmeticError:
        return None
    if not np.all(np.isfinite(y)):
        return None
    return np.vecdot(y, _WK), np.vecdot(y[:, 1::2], _WG)


def _bisect(f: Callable, pa: float, mid: float, pb: float) -> list[tuple]:
    """The panels (error, a, b, value) of [pa, mid] and [mid, pb], with the
    values ``_panel`` gives, from one call of ``f``; when that call fails,
    from the two ``_panel`` calls in order, which raise the error of the
    first failing half."""
    bounds = ((pa, mid), (mid, pb))
    halves = [0.5 * (qb - qa) for qa, qb in bounds]
    sums = _kronrod_rows(f, np.array([0.5 * (qa + qb) for qa, qb in bounds]), np.array(halves))
    if sums is None:
        pairs = [_panel(f, qa, qb) for qa, qb in bounds]
    else:
        pairs = []
        for half, k, g in zip(halves, *(s.tolist() for s in sums)):
            k15 = half * k
            pairs.append((k15, abs(k15 - half * g)))
    return [(err, qa, qb, val) for (qa, qb), (val, err) in zip(bounds, pairs)]


def integrate(f: Callable, a: float, b: float, atol: float = DEFAULT_ATOL) -> float:
    """Integrate a vectorized ``f`` over the finite interval [a, b].

    The target is absolute error ``atol`` relaxed to relative once the
    integral magnitude exceeds one; a sum that overflowed is returned at
    once.  Each bisection evaluates both halves of the worst panel in one
    call of ``f`` on a (2, 15) node array (see ``_bisect``); the stop test
    sums the panels in list order and the worst panel is the first of
    largest error, so values do not depend on the batching.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    value, err = _panel(f, a, b)
    panels = [(err, a, b, value)]
    for _ in range(_MAX_PANELS):
        total = sum(p[3] for p in panels)
        total_err = sum(p[0] for p in panels)
        if total_err <= atol * max(1.0, abs(total)) or not math.isfinite(total):
            return sign * total  # an overflowed sum stays so under bisection
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, pa, pb, _ = panels.pop(worst)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            # interval below spacing of floats: accept what we have
            panels.append((0.0, pa, pb, _panel(f, pa, pb)[0]))
            continue
        panels.extend(_bisect(f, pa, mid, pb))
    total = sum(p[3] for p in panels)
    total_err = sum(p[0] for p in panels)
    raise QuadratureError("panel budget exhausted", sign * total, total_err)


def integrate_cells(f: Callable, left, right, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """``integrate(f, left[k], right[k], atol)`` for every k, in one array.

    Each cell gets one 7/15 Kronrod panel, with ``f`` evaluated on the nodes
    of ``_CELL_BLOCK`` cells at a time in one call and each cell's sums
    reduced by ``np.vecdot``, so that the call's arithmetic is numpy's and
    each row's is ``_panel``'s.  A cell whose panel meets the stop test of
    ``integrate`` on its first pass (its error within tolerance, or its
    value overflowed) takes that panel's value; a cell that misses it, and
    every cell of a block whose evaluation raises an ``ArithmeticError`` or
    is not finite go to ``integrate`` itself, in order.  So each cell has
    the bits of ``integrate`` on it alone, and raises what it raises.
    """
    left = np.asarray(left, dtype=float).ravel()
    right = np.asarray(right, dtype=float).ravel()
    out = np.empty(left.size)
    for start in range(0, left.size, _CELL_BLOCK):
        a, b = left[start:start + _CELL_BLOCK], right[start:start + _CELL_BLOCK]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        half = 0.5 * (hi - lo)
        sums = _kronrod_rows(f, 0.5 * (lo + hi), half)
        if sums is None:  # raised or not finite: the per-cell calls meet it again, in order
            refine = range(a.size)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # a panel that overflowed
                k15, g7 = half * sums[0], half * sums[1]
                total = 0.0 + k15  # as integrate's sum over panels: -0.0 becomes 0.0
                err_ok = np.abs(k15 - g7) <= atol * np.maximum(1.0, np.abs(total))
            accept = err_ok | ~np.isfinite(total)  # a zero-width cell: 0.0, as integrate gives
            out[start:start + a.size] = np.where(b < a, -total, total)
            refine = np.flatnonzero(~accept).tolist()
        for k in refine:
            out[start + k] = integrate(f, float(a[k]), float(b[k]), atol=atol)
    return out


def integrate_tail(f: Callable, r: float) -> float:
    """Integrate a vectorized ``f`` over [r, inf) via the s = r/t substitution.

    Assumes the tail is integrable; use ``dyadic_decay_probe`` first when in
    doubt, otherwise the panel refinement diverges and raises.
    """
    if r <= 0.0:
        raise ValueError("tail integration needs r > 0")

    def mapped(t):
        t = np.asarray(t, dtype=float)
        return f(r / t) * r / (t * t)

    # Avoid evaluating exactly at t = 0 (Kronrod nodes are interior, but the
    # bisection can push the left endpoint arbitrarily close).
    return integrate(mapped, 1e-300, 1.0)


def dyadic_decay_probe(f: Callable, direction: str = "up") -> bool:
    """Decide integrability of ``f`` toward infinity (``direction='up'``,
    blocks [2^k, 2^{k+1}]) or toward zero (``'down'``, blocks
    [2^{-k-1}, 2^{-k}]) by testing geometric decay of block integrals.

    Declares integrable when the later block ratios all stay below
    ``_PROBE_RATIO_MAX``; everything else is divergent.  Purely numeric, it
    errs both ways near the tail boundary: the block ratio of s^(-1-eps) is
    2^-eps > 0.99 for eps < 0.0145, so (1+s)^-1.001 and (1+s)^-1.01 are
    declared divergent, while the ratios of 1/((1+s) ln(2+s)^kappa) tend
    to 1 too slowly, so it is declared integrable at kappa = 0.5 and 1 (as
    at kappa = 2, where it is).
    """
    step = 1 if direction == "up" else -1
    edges = [2.0 ** (step * k) for k in range(_PROBE_BLOCKS + 1)]
    blocks = np.abs(integrate_cells(f, edges[:-1], edges[1:], atol=_PROBE_ATOL)).tolist()
    ratios = []
    for prev, cur in zip(blocks, blocks[1:]):
        if prev <= _PROBE_ATOL:
            ratios.append(0.0)
        else:
            ratios.append(cur / prev)
    # ignore the first quarter: transients before the asymptotic regime
    return all(rho <= _PROBE_RATIO_MAX for rho in ratios[_PROBE_BLOCKS // 4:])
