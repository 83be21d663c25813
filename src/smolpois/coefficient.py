"""Diffusion coefficients a(r) and the derived potentials.

A coefficient is a positive function a on (0, infinity).  Three derived
potentials drive both the solver and every inequality check:

    psi'(r)   = a(1/r) / r^2,          psi(1) = 0
    psi1'(r)  = r psi'(r) = a(1/r)/r,  psi1(1) = 0
    psi~(r)   = psi(r) - psi(0)        (needs a integrable at infinity)

equivalently psi(r) = int_{1/r}^1 a(s) ds and psi(0) = -int_1^inf a(s) ds.
The tail antiderivative A(r) = -int_r^inf a(s) ds feeds the blowup
criterion machinery.

Coefficients c * r^p * (b+r)^beta, with a constant shift b > 0, are
recognized structurally from the parsed expression and carry exact
asymptotic exponents, and closed-form antiderivatives where they exist.
Integrability has one rule, in ``Coefficient``: a ~ r^e is integrable at
zero iff e > -1 and at infinity iff e < -1 where the exponent is known, and
``dyadic_decay_probe`` decides where it is not, a verdict labelled numeric.
Whatever the class, an integral with a closed primitive is read from it and
one without falls back to quadrature: A(r) to ``integrate_tail``, int_0^1 a
to ``integrate``, psi and psi1 to its cumulative table at the knots 2^(k/8) plus one panel per distinct point.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional

import numpy as np

from . import expr
from .quadrature import QuadratureError, dyadic_decay_probe, integrate, integrate_cells, integrate_tail

CLOSED_FORM = "closed-form"
NUMERIC = "numeric"

# numpy passes (m - 1, +6m + 10 for b < 1) above which the partial fractions of
# psi1 of c (b+r)^-m cost more than the knot table: on 400 and 800 points (2-vCPU
# host) they tie at 32-35 passes for b = 1, 37-44 for b = 0.5, agreeing to 1e-14
_PARTIAL_FRACTION_PASSES = 40

# the last point the from-below bracket search of ``psi_inverse`` reaches:
# 8^-310 = 2^-930, the smallest power of 1/8 not below 1e-280
_BRACKET_FLOOR = math.ldexp(1.0, -930)

# the knot tables' knots 2^(k/8), k = -8600 ... 8600: 0 to inf, 1 at KNOTS[KNOT_ONE]
KNOTS, KNOT_ONE = np.arange(-1075.0, 1075.0625, 0.125), 8600
with np.errstate(over="ignore"):
    np.exp2(KNOTS, out=KNOTS)  # in place: a quarter of the peak memory
_TABLE_CHUNK = 64  # cells per call of a table's exact growth, and at most past an overflow


class CoefficientError(ValueError):
    pass


class TailDivergenceError(ArithmeticError):
    """An operation needed a finite tail integral but a is not in L1(1, inf)."""


class PsiRangeError(ValueError):
    """Requested psi-inverse of a value outside the range of psi."""


# --- closed-form power sums --------------------------------------------------


def _powersum_primitive(terms, r):
    """Antiderivative of sum c s^e at r (log term for e = -1)."""
    out = 0.0
    for c, e in terms:
        if e == -1.0:
            out = out + c * np.log(r)
        else:
            out = out + c * np.power(r, e + 1.0) / (e + 1.0)
    return out


def _power_sum(c: float, p: float, beta: float, b: float):
    """Power-sum form [(c C(beta, k) b^(beta-k), p + k)] of c r^p (b+r)^beta
    when beta is a nonnegative integer, else None.  ArithmeticError when c
    b^beta or a term, built in order, is not finite and positive."""
    if not 0.0 < c * b**beta < math.inf:  # b**beta may raise OverflowError
        raise ArithmeticError(f"c b^beta = {c * b**beta!r} is not finite and positive")
    if not (beta == round(beta) and beta >= 0):
        return None
    m = int(beta)
    terms = []
    for k in range(m + 1):
        term = c * math.comb(m, k) * b ** (m - k)  # may overflow, in either factor
        if not 0.0 < term < math.inf:
            raise ArithmeticError(f"power-sum term {term!r} is not finite and positive")
        terms.append((term, p + k))
    return terms


# --- coefficient classes -----------------------------------------------------


class Coefficient:
    """Base: positive a(r) with tail machinery and asymptotic metadata."""

    text: str
    # a ~ r^smallr_exponent near 0 and a ~ r^tail_exponent near infinity,
    # None when unknown (expression coefficients)
    smallr_exponent: Optional[float] = None
    tail_exponent: Optional[float] = None
    verdict_source: str = NUMERIC

    def __call__(self, r):
        raise NotImplementedError

    def eval_a(self, r):
        """a(r) for r > 0 (scalar or array); guaranteed finite and positive.

        On an array, the error names the first offending point (a plain float)
        and is the one that evaluating point by point, in order, would raise.
        """
        r_arr = np.asarray(r)
        if np.any(r_arr <= 0.0):
            raise CoefficientError("coefficient evaluated at r <= 0")
        try:
            value = self(r)
        except expr.EvalDomainError:
            if r_arr.ndim == 0:
                raise
            return np.array([self.eval_a(x) for x in r_arr.ravel()]).reshape(r_arr.shape)
        v = np.asarray(value)
        bad = ~np.isfinite(v) | (v <= 0.0)
        if np.any(bad):
            first = np.flatnonzero(bad)[0]
            at = float(r if r_arr.ndim == 0 else r_arr.flat[first])
            if not np.isfinite(v.flat[first]):
                raise expr.EvalDomainError(f"coefficient not finite at r={at!r}")
            raise CoefficientError(f"coefficient not positive at r={at!r}")
        return value

    @cached_property
    def tail_integrable(self) -> bool:
        if self.tail_exponent is not None:
            return self.tail_exponent < -1.0
        return dyadic_decay_probe(self.__call__, "up")

    @cached_property
    def integrable_at_zero(self) -> bool:
        if self.smallr_exponent is not None:
            return self.smallr_exponent > -1.0
        return dyadic_decay_probe(self.__call__, "down")

    @cached_property
    def weighted_suprema(self) -> dict:
        """sup r^e a(r) over an interval, keyed by (e, interval), as the
        regime layer has estimated them on its grid for this coefficient;
        a power product's are closed forms and are not kept here."""
        return {}

    @cached_property
    def potentials(self) -> Potentials:
        """The coefficient's one ``Potentials``, which classify, the design and a run read."""
        return Potentials(self)

    @cached_property
    def knot_tables(self) -> dict:
        """``knot_table``'s tables by (potential name, +1 up or -1 down from p = 1)."""
        return {}

    def knot_table(self, name: str, g, direction: int, last: int) -> np.ndarray:
        """C(p_k) = int_1^{p_k} g at p_k = 2^(direction k/8), g = a for "psi" and a/s for
        "psi1", for every ``Potentials`` and for gamma; grown one cell per knot to at least
        twice its size and k = last in one silenced call, or to k = last in calls of
        ``_TABLE_CHUNK`` cells, raising what they raise, if that call raises; summed onto C_last
        by ``np.add.accumulate`` (the same bits whatever was asked before), ended by an overflow."""
        values = self.knot_tables.get((name, direction), np.zeros(1))
        knots = KNOTS[KNOT_ONE::direction]
        ahead = True
        while values.size <= last and np.isfinite(values[-1]):
            end = min(max(last, 2 * values.size - 1), KNOT_ONE) if ahead else min(last, values.size - 1 + _TABLE_CHUNK)
            try:
                with np.errstate(all="ignore" if ahead else None):
                    cells = integrate_cells(g, knots[values.size - 1:end], knots[values.size:end + 1])
            except Exception:
                if not ahead:
                    raise
                ahead = False
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                sums = np.add.accumulate(np.concatenate((values[-1:], cells)))
            self.knot_tables[name, direction] = values = np.concatenate((values, sums[1:]))
        return values

    def tail_integral(self, r):
        """A(r) = -int_r^inf a(s) ds, or -inf as the divergence flag: the
        closed ``primitive`` where there is one, elementwise on an array;
        else by quadrature, for a scalar r only."""
        if not self.tail_integrable:
            return -math.inf
        prim = self.primitive(r)
        if prim is not None:
            return float(prim) if np.ndim(r) == 0 else np.asarray(prim, dtype=float)
        return -integrate_tail(self.__call__, r)

    def integral_zero_to_one(self) -> float:
        """int_0^1 a(s) ds for a integrable at zero: the closed ``primitive``
        where there is one, else by quadrature."""
        prim = self.primitive(1.0)
        if prim is not None:
            return float(prim) - float(self.primitive(0.0))
        return integrate(self.__call__, 1e-300, 1.0)

    def primitive(self, r):
        """Closed-form antiderivative of a, or None; one that vanishes at
        infinity whenever the tail is integrable."""
        return None

    def primitive_over_s(self, r):
        """Closed-form antiderivative of a(s)/s, or None."""
        return None

    def __repr__(self):
        return f"{type(self).__name__}({self.text!r})"


class PowerProductCoefficient(Coefficient):
    """a(r) = c * r^p * (b+r)^beta with c > 0 and a shift b > 0 (1 by default).

    Closed antiderivatives exist when beta is a nonnegative integer (binomial
    expansion into a power sum) or when p = 0; the asymptotic exponents
    p (near zero) and p + beta (tail) are always exact.
    """

    verdict_source = CLOSED_FORM

    def __init__(self, c: float, p: float, beta: float, b: float = 1.0, text: str = ""):
        if c <= 0.0:
            raise CoefficientError("builtin coefficient needs a positive constant factor")
        self.c = float(c)
        self.p = float(p)
        self.beta = float(beta)
        self.b = float(b)
        self.text = text or f"{self.c}*r^{self.p}*({self.b}+r)^{self.beta}"
        self.smallr_exponent = self.p
        self.tail_exponent = self.p + self.beta
        try:
            self._terms = _power_sum(self.c, self.p, self.beta, self.b)
        except ArithmeticError:  # a term is not finite
            self._terms = None

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        shifted = np.power(self.b + r, self.beta)
        if self.p == 0.0:  # r^0 = 1 at every r, and c * 1.0 * x == c * x
            return self.c * shifted
        return self.c * np.power(r, self.p) * shifted

    def primitive(self, r):
        if self._terms is not None:
            return _powersum_primitive(self._terms, r)
        if self.p == 0.0:
            if self.beta == -1.0:
                return self.c * np.log(self.b + np.asarray(r, dtype=float))
            return self.c * np.power(self.b + np.asarray(r, dtype=float), self.beta + 1.0) / (self.beta + 1.0)
        return None

    def primitive_over_s(self, r):
        if self._terms is not None:
            shifted = [(c, e - 1.0) for c, e in self._terms]
            return _powersum_primitive(shifted, r)
        m, b = -self.beta, self.b
        if self.p == 0.0 and m == round(m) and m > 0:
            # partial fractions: 1/(s (b+s)^m) = b^-m/s - sum_{j=1}^m b^(j-1-m) (b+s)^-j
            m = int(round(m))
            if m - 1 + (6 * m + 10 if b < 1.0 else 0) > _PARTIAL_FRACTION_PASSES:
                return None  # psi1 takes the knot table, at a cost that does not grow with m
            s = np.asarray(r, dtype=float)
            out = b**-m * np.log(s / (b + s))
            for j in range(2, m + 1):
                out = out + b ** (j - 1 - m) * np.power(b + s, 1.0 - j) / (j - 1.0)
            if b < 1.0:
                # with x = b/(b+s), out = -b^-m sum_{j>=m} x^j/j: where x^m < 1e-3 the terms
                # above, of size b^-m, cancel, and that series is summed to x^(6m+10) instead
                x = b / (b + s)
                tail = sum(np.power(x, float(j)) / j for j in range(m, 7 * m + 10))
                out = np.where(np.power(x, float(m)) < 1e-3, -(b**-m) * tail, out)
            return self.c * out
        return None


class ExpressionCoefficient(Coefficient):
    """Coefficient backed by a parsed expression; all verdicts numeric."""

    def __init__(self, tree: expr.Node, text: str):
        self.tree = tree
        self.text = text
        # positivity sampling: negative, non-finite or failing samples are
        # hard errors; an exact zero at large r is tolerated as floating
        # underflow of a rapidly decaying positive tail (e.g. exp(-r)).  One
        # call samples every point; when it fails, the point-by-point loop
        # names the first failing r.
        samples = np.geomspace(1e-6, 1e6, 64)
        try:
            values = expr.evaluate(tree, samples).tolist()
        except expr.EvalDomainError:
            values = [None] * samples.size
        for r, value in zip(samples, values):
            if value is None:
                try:
                    value = expr.evaluate(tree, float(r))
                except expr.EvalDomainError as err:
                    raise CoefficientError(f"coefficient fails at r={r:.3e}: {err}") from None
            if value < 0.0 or (value == 0.0 and r < 1.0):
                raise CoefficientError(
                    f"coefficient not positive: value {value!r} at r={r:.3e}"
                )

    def __call__(self, r):
        return expr.evaluate(self.tree, r)


# --- structural recognition of builtins --------------------------------------


# The power-product fold gives each node a pair: its value when it holds no
# r and evaluates, else None; and (c, p, beta, b) when it is c * r^p *
# (b+r)^beta, else None, with shift b None until a factor b + r enters.  r
# folds to this very object, so that ``2 + r`` is told from ``2 + r^1``.
_R = (None, (1.0, 1.0, 0.0, None))


def _const_pair(value) -> tuple:
    """The pair of a constant, as a Python float: numpy's ``**`` can differ
    from Python's by one ulp."""
    value = float(value)
    return value, (value, 0.0, 0.0, None)


def _factor_step(name: str, operands: list) -> tuple:
    """The pair of an operation, from the pairs of its operands.  Each test
    of c is written so that a nan c takes the branch it has always taken."""
    consts = [const for const, _ in operands]
    if None not in consts:
        try:
            return _const_pair(expr.OPERATIONS[name][0](*consts))
        except expr.EvalDomainError:
            pass
    if name == "+":
        # the only additive pattern recognized is b + r (either order), with
        # b a finite constant > 0
        for shift, var in (operands, operands[::-1]):
            if var is _R and shift[0] is not None and 0.0 < shift[0] < math.inf:
                return None, (1.0, 0.0, 1.0, shift[0])
        return None, None
    factors = [match for _, match in operands]
    if None in factors:
        return None, None
    (c, p, beta, b), (rc, rp, rbeta, rb) = factors[0], factors[-1]
    if None not in (b, rb) and b != rb:  # two shifts, as in (1+r)/(2+r)
        return None, None
    b = rb if b is None else b
    if name == "neg":
        match = (-c, p, beta, b)
    elif name == "sqrt":
        match = None if c < 0.0 else (math.sqrt(c), 0.5 * p, 0.5 * beta, b)
    elif name == "*":
        match = (c * rc, p + rp, beta + rbeta, b)
    elif name == "/":
        match = None if rc == 0.0 else (c / rc, p - rp, beta - rbeta, b)
    elif name in ("^", "pow") and consts[1] is not None and not c <= 0.0:
        e = consts[1]
        try:
            power = c**e
        except OverflowError:  # of a positive base, so the power is +inf
            power = math.inf
        match = (power, p * e, beta * e, b)
    else:
        match = None
    return None, match


def _shift_promotes(c: float, p: float, beta: float, b: float) -> bool:
    """Whether c * r^p * (b+r)^beta with b != 1 becomes a power product: p
    must be finite, and c b^beta and every power-sum term finite and
    positive, or it stays an expression and keeps that error line."""
    try:
        _power_sum(c, p, beta, b)
    except ArithmeticError:
        return False
    return math.isfinite(p)


def coefficient_from_text(text: str) -> Coefficient:
    """Parse a coefficient string, promoting recognized power products
    (c * r^p * (b+r)^beta) to their closed-form implementation; their
    constant factor c must be finite and positive, and p and beta finite;
    a shifted one (b != 1) that ``_shift_promotes`` rejects stays an expression."""
    tree = expr.parse_coefficient(text)
    with np.errstate(all="ignore"):
        matched = expr.fold(tree, _R, _const_pair, _factor_step)[1]
    if matched is not None:
        c, p, beta, b = matched
        if b is not None and b != 1.0:
            if _shift_promotes(c, p, beta, b):
                return PowerProductCoefficient(c, p, beta, b, text=text)
            return ExpressionCoefficient(tree, text)
        if not math.isfinite(c):
            raise CoefficientError(f"coefficient {text!r} has a constant factor that is not finite")
        if c <= 0.0:
            raise CoefficientError(f"coefficient {text!r} is not positive")
        if not (math.isfinite(p) and math.isfinite(beta)):
            raise CoefficientError(f"coefficient {text!r} has an exponent that is not finite")
        return PowerProductCoefficient(c, p, beta, text=text)
    return ExpressionCoefficient(tree, text)


# --- potentials --------------------------------------------------------------


class Potentials:
    """Evaluators for psi, psi1 and psi~ derived from one coefficient.

    Closed forms are used when the coefficient provides antiderivatives, its
    knot table plus one Kronrod panel per point (abs tol 1e-10) otherwise.
    """

    def __init__(self, coefficient: Coefficient):
        self.coefficient = coefficient
        self._primitive_at_one = {}  # potential name -> its primitive at 1 (None: none)

    # -- limits --

    @cached_property
    def psi0(self) -> float:
        """psi(0) = -||a||_L1(1,inf), or -inf when the tail diverges."""
        return self.coefficient.tail_integral(1.0)

    @cached_property
    def psi_sup(self) -> float:
        """lim_{r->inf} psi(r) = int_0^1 a, or +inf when a is not integrable at zero."""
        coeff = self.coefficient
        return coeff.integral_zero_to_one() if coeff.integrable_at_zero else math.inf

    # -- pointwise potentials --

    def psi(self, r):
        """psi(r) = int_{1/r}^1 a(s) ds with psi(1) = 0."""
        return self._potential("psi", r, self.coefficient.__call__, self.coefficient.primitive)

    def psi1(self, r):
        """psi1(r) = int_{1/r}^1 a(s)/s ds with psi1(1) = 0."""
        g = lambda s: self.coefficient(s) / s
        return self._potential("psi1", r, g, self.coefficient.primitive_over_s)

    def _potential(self, name: str, r, g, primitive):
        """int_{1/r}^1 g(s) ds from the closed ``primitive`` of g when there
        is one, from the knot table of g otherwise."""
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr <= 0.0):
            raise CoefficientError(f"{name} needs r > 0")
        if name not in self._primitive_at_one:
            self._primitive_at_one[name] = primitive(1.0)
        prim = self._primitive_at_one[name]
        if prim is not None:
            value = prim - primitive(1.0 / r_arr)
        else:
            value = self._tabulated(name, g, r_arr)
        return float(value) if np.ndim(r) == 0 else np.asarray(value, dtype=float)

    def _tabulated(self, name: str, g, r_arr: np.ndarray) -> np.ndarray:
        """int_{1/r}^1 g = -(C(p_k) + int_{p_k}^p g) at p = 1/r, -C past a table's
        end, with p_k the last knot from 1 toward p, C from ``Coefficient.knot_table``
        and the panels of the distinct p, as they first occur, from one ``integrate_cells`` call."""
        p_all = 1.0 / r_arr.ravel()
        _, first, inverse = np.unique(p_all, return_index=True, return_inverse=True)
        p = p_all[np.sort(first)]
        up = p >= 1.0
        i = np.searchsorted(KNOTS, p, side="right") - 1
        i += ~up & (KNOTS[i] < p)  # below 1, the knot at or above p
        k = np.abs(i - KNOT_ONE)
        base = np.empty(p.size)
        for direction, at in ((1, up), (-1, ~up)):
            table = self.coefficient.knot_table(name, g, direction, int(k.max(initial=0, where=at)))
            base[at] = table[np.minimum(k[at], table.size - 1)]
        inside = np.isfinite(base)
        base[inside] += integrate_cells(g, KNOTS[i[inside]], p[inside])
        return -base[np.argsort(np.argsort(first))[inverse]].reshape(r_arr.shape)  # int_{p}^{1} = -int_1^p

    def psi_tilde(self, r):
        """psi~(r) = psi(r) - psi(0) = int_{1/r}^inf a(s) ds >= 0."""
        psi0 = self.psi0
        if not math.isfinite(psi0):
            raise TailDivergenceError("psi~ needs a integrable at infinity")
        return self.psi(r) - psi0

    def psi_prime(self, r):
        """psi'(r) = a(1/r) / r^2 > 0."""
        r_arr = np.asarray(r, dtype=float)
        value = self.coefficient(1.0 / r_arr) / (r_arr * r_arr)
        return float(value) if np.ndim(r) == 0 else np.asarray(value, dtype=float)

    # -- inverse --

    @cached_property
    def _psi_at_bracket_floor(self) -> float:
        """psi(_BRACKET_FLOOR) when psi has a closed form (-inf where that
        overflows); nan, which no h is below, for a knot table: the search then
        costs about as much, and can bracket h where psi(2^-930) would raise."""
        if self.coefficient.primitive(1.0) is None:
            return math.nan
        with np.errstate(over="ignore", invalid="ignore"):
            return self.psi(_BRACKET_FLOOR)

    def psi_inverse(self, h: float) -> float:
        """Solve psi(r) = h on the strictly increasing psi.

        Residual tolerance 1e-10 * max(1, |h|); raises ``PsiRangeError``
        outside (psi(0), sup psi), and without searching for an h < 0 below
        the closed-form psi(2^-930), the last point of the search from below.
        """
        if h <= self.psi0 or h >= self.psi_sup:
            raise PsiRangeError(
                f"h={h!r} outside the open range ({self.psi0!r}, {self.psi_sup!r}) of psi"
            )
        tol = 1e-10 * max(1.0, abs(h))
        lo = hi = 1.0
        if h >= 0.0:
            while self.psi(hi) < h:
                hi *= 8.0
                if hi > 1e280:
                    raise PsiRangeError(f"failed to bracket h={h!r} from above")
        else:
            if self._psi_at_bracket_floor > h:
                # psi increases, so the search would find every point above h
                raise PsiRangeError(f"failed to bracket h={h!r} from below")
            while self.psi(lo) > h:
                lo /= 8.0
                if lo < 1e-280:
                    raise PsiRangeError(f"failed to bracket h={h!r} from below")
        # safeguarded Newton within [lo, hi]; where psi flattens the residual
        # test alone does not pin r, so also require the implied r-error
        # (residual / slope) to drop below 1e-9 relative
        r = math.sqrt(lo * hi)
        for _ in range(200):
            val = self.psi(r)
            slope = self.psi_prime(r)
            if abs(val - h) <= tol and abs(val - h) <= 1e-9 * r * slope:
                return r
            if val > h:
                hi = r
            else:
                lo = r
            step = r - (val - h) / slope if slope > 0.0 else None
            if step is not None and lo < step < hi:
                r = step
            else:
                r = math.sqrt(lo * hi)
            if hi - lo <= 1e-12 * max(r, 1e-300):
                return r
        raise QuadratureError("psi_inverse did not converge", r, abs(self.psi(r) - h))
