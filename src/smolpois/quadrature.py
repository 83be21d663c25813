"""Adaptive Gauss-Kronrod quadrature with improper-integral support.

A 7/15-point Gauss-Kronrod pair drives a globally adaptive bisection of
the worst panel.  Semi-infinite integrals over [r, inf) are mapped to the
bounded interval (0, 1] by the substitution s = r/t,

    int_r^inf f(s) ds = int_0^1 f(r/t) * r / t^2 dt,

which turns algebraic tails into mild endpoint singularities the panel
subdivision grades into automatically.

Many adjacent cells (a cumulative sweep over a grid) go through
``integrate_cells``: it evaluates the integrand on the Kronrod nodes of 64
cells per call and accepts a cell whose single panel meets the tolerance,
the acceptance rule of QUADPACK (Piessens et al., 1983).  The rest go to
``integrate``, so each cell's value is bit-identical to its own call.

Integrability of a tail is *decided* separately (``dyadic_decay_probe``)
by checking geometric decay of the integral over 40 dyadic blocks
[r 2^k, r 2^{k+1}], swept as one ``integrate_cells`` call; the verdict is
a numeric heuristic and callers label it as such.
"""

from __future__ import annotations

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
_CELL_BLOCK = 64          # cells per integrand call in integrate_cells
_PROBE_BLOCKS = 40        # dyadic blocks of dyadic_decay_probe
_PROBE_RATIO_MAX = 0.99   # largest settled block ratio it calls integrable
_PROBE_ATOL = 1e-12       # block tolerance; the ratio after a block this small is 0


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


def integrate(f: Callable, a: float, b: float, atol: float = DEFAULT_ATOL) -> float:
    """Integrate a vectorized ``f`` over the finite interval [a, b].

    The target is absolute error ``atol`` relaxed to relative once the
    integral magnitude exceeds one.
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
        if total_err <= atol * max(1.0, abs(total)):
            return sign * total
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, pa, pb, _ = panels.pop(worst)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            # interval below spacing of floats: accept what we have
            panels.append((0.0, pa, pb, _panel(f, pa, pb)[0]))
            continue
        for qa, qb in ((pa, mid), (mid, pb)):
            val, err = _panel(f, qa, qb)
            panels.append((err, qa, qb, val))
    total = sum(p[3] for p in panels)
    total_err = sum(p[0] for p in panels)
    raise QuadratureError("panel budget exhausted", sign * total, total_err)


def integrate_cells(f: Callable, edges, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """``integrate(f, edges[k], edges[k+1], atol)`` for every k, in one array.

    Each cell gets one 7/15 Kronrod panel, with ``f`` evaluated on the nodes
    of ``_CELL_BLOCK`` cells per call.  A cell whose panel meets the
    acceptance test of ``integrate`` on its first pass takes that panel's
    value; a zero-width cell, a cell that misses it, and every cell of a
    block whose evaluation raises or is not finite go to ``integrate``
    itself, in order.  Every value, and every error raised, is the one the
    per-cell ``integrate`` calls give.
    """
    edges = np.asarray(edges, dtype=float)
    out = np.empty(max(edges.size - 1, 0))
    for start in range(0, out.size, _CELL_BLOCK):
        stop = min(start + _CELL_BLOCK, out.size)
        left, right = edges[start:stop], edges[start + 1:stop + 1]
        lo, hi = np.minimum(left, right), np.maximum(left, right)
        half = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + half[:, None] * _XK
        try:
            with np.errstate(all="ignore"):
                y = np.asarray(f(x), dtype=float)
            finite = np.all(np.isfinite(y))
        except ArithmeticError:  # a domain error: the per-cell calls raise it again, in order
            finite = False
        for k in range(right.size):
            if finite and lo[k] < hi[k]:
                k15 = half[k] * float(np.dot(_WK, y[k]))
                g7 = half[k] * float(np.dot(_WG, y[k, 1::2]))
                total = 0.0 + k15  # as integrate's sum over panels: -0.0 becomes 0.0
                if abs(k15 - g7) <= atol * max(1.0, abs(total)):
                    out[start + k] = (-1.0 if right[k] < left[k] else 1.0) * total
                    continue
            out[start + k] = integrate(f, float(left[k]), float(right[k]), atol=atol)
    return out


def integrate_tail(f: Callable, r: float, atol: float = DEFAULT_ATOL) -> float:
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
    return integrate(mapped, 1e-300, 1.0, atol=atol)


def dyadic_decay_probe(f: Callable, r: float, direction: str = "up") -> bool:
    """Decide integrability of ``f`` toward infinity (``direction='up'``,
    blocks [r 2^k, r 2^{k+1}]) or toward zero (``'down'``, blocks
    [r 2^{-k-1}, r 2^{-k}]) by testing geometric decay of block integrals.

    Declares integrable when the later block ratios all stay below
    ``_PROBE_RATIO_MAX``; everything else is divergent.  Purely numeric:
    slowly converging integrals (e.g. 1/(s ln^2 s)) are declared divergent.
    """
    step = 1 if direction == "up" else -1
    edges = [r * 2.0 ** (step * k) for k in range(_PROBE_BLOCKS + 1)]
    blocks = np.abs(integrate_cells(f, edges, atol=_PROBE_ATOL)).tolist()
    ratios = []
    for prev, cur in zip(blocks, blocks[1:]):
        if prev <= _PROBE_ATOL:
            ratios.append(0.0)
        else:
            ratios.append(cur / prev)
    # ignore the first quarter: transients before the asymptotic regime
    return all(rho <= _PROBE_RATIO_MAX for rho in ratios[_PROBE_BLOCKS // 4:])
