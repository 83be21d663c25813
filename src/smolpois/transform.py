"""Conversion between the density profile u on [0,1] and its
mass-Lagrangian counterpart f on [0,M].

With U(x) = int_0^x u and F = U^{-1}, the transformed profile is
f(y) = 1/u(F(y)); mass conservation of u becomes int_0^M f dy = 1.
Blowup of u is the same event as f touching zero.

Both fields live on uniform cell-centered grids; cumulatives are taken
piecewise-linear (exact for the midpoint rule), inverses by monotone
linear interpolation, and a single multiplicative rescale restores the
integral constraint bit-tight after resampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

TOUCHDOWN_FLOOR = 1e-8  # f at/below this is treated as a touch-down for inversion


class TouchDownError(ArithmeticError):
    """f reached (numerical) zero; the corresponding u is unbounded."""


class FieldError(ValueError):
    pass


def _cell_centers(n: int, length: float) -> np.ndarray:
    h = length / n
    return (np.arange(n) + 0.5) * h


@dataclass(frozen=True)
class _Field:
    """Cell-centered samples of a profile on a uniform grid; ``mass`` is M.

    A subclass states its grid and integral through ``on_mass_axis``: the
    grid spans [0, M] and the integral is 1 (f), or the grid spans [0, 1]
    and the integral is M (u).  ``symbol`` names the profile in errors."""

    values: np.ndarray
    mass: float
    on_mass_axis: ClassVar[bool]
    symbol: ClassVar[str]

    @classmethod
    def from_samples(cls, values, mass: float):
        """The samples rescaled by one factor to the target integral."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise FieldError(f"{cls.symbol} needs a 1D array of at least 2 samples")
        if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
            raise FieldError(f"{cls.symbol} samples must be positive and finite")
        if mass <= 0.0:
            raise FieldError("mass must be positive")
        length, target = (mass, 1.0) if cls.on_mass_axis else (1.0, mass)
        current = length / values.size * float(values.sum())
        return cls(values=values * (target / current), mass=float(mass))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return (self.mass if self.on_mass_axis else 1.0) / self.values.size

    @cached_property
    def centers(self) -> np.ndarray:
        return _cell_centers(self.n, self.mass if self.on_mass_axis else 1.0)

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    def with_values(self, values: np.ndarray):
        return type(self)(values=values, mass=self.mass)

    def integral_error(self) -> float:
        """|discrete integral - target| / target."""
        target = 1.0 if self.on_mass_axis else self.mass
        return abs(self.h * float(self.values.sum()) - target) / target


@dataclass(frozen=True)
class FieldU(_Field):
    """Cell-centered samples of u on a uniform grid of [0,1] with mass M."""

    on_mass_axis = False
    symbol = "u"


@dataclass(frozen=True)
class FieldF(_Field):
    """Cell-centered samples of f on a uniform grid of [0,M] with integral 1;
    M is also the length of the y-domain."""

    on_mass_axis = True
    symbol = "f"


# --- interpolation helpers ---------------------------------------------------


def _interp_with_edge_extrapolation(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """Linear interpolation extended linearly (not clamped) past the ends.

    Keeps second-order accuracy for smooth data near the boundary half-cells;
    results are floored at a small positive value by the callers.
    """
    out = np.interp(x, xp, fp)
    left = x < xp[0]
    if np.any(left):
        slope = (fp[1] - fp[0]) / (xp[1] - xp[0])
        out[left] = fp[0] + slope * (x[left] - xp[0])
    right = x > xp[-1]
    if np.any(right):
        slope = (fp[-1] - fp[-2]) / (xp[-1] - xp[-2])
        out[right] = fp[-1] + slope * (x[right] - xp[-1])
    return out


# --- operations --------------------------------------------------------------


def u_to_f(uf: FieldU, n_y: int) -> FieldF:
    """Transform a density profile to its mass-Lagrangian profile.

    Builds the piecewise-linear cumulative U on cell faces, inverts it at the
    y cell centers, and sets f = 1/u at the mapped points with u linearly
    interpolated between cell centers.
    """
    if n_y < 2:
        raise FieldError("n_y must be at least 2")
    u = uf.values
    h = uf.h
    faces = np.linspace(0.0, 1.0, uf.n + 1)
    cumulative = np.concatenate(([0.0], np.cumsum(u) * h))
    if np.any(np.diff(cumulative) <= 0.0):
        raise FieldError("cumulative of u is not strictly increasing")
    # exact total mass at the right face after FieldU normalization
    cumulative[-1] = uf.mass
    y_centers = _cell_centers(n_y, uf.mass)
    x_mapped = np.interp(y_centers, cumulative, faces)  # invert the increasing cumulative
    u_at = _interp_with_edge_extrapolation(x_mapped, uf.centers, u)
    u_at = np.maximum(u_at, 1e-300)
    return FieldF.from_samples(1.0 / u_at, mass=uf.mass)


def f_to_u(ff: FieldF, n: int) -> FieldU:
    """Transform a mass-Lagrangian profile back to a density profile.

    F(y) = int_0^y f maps [0,M] onto [0,1]; u(F(y)) = 1/f(y) is resampled
    onto the uniform x grid by monotone linear interpolation.
    """
    if n < 2:
        raise FieldError("n must be at least 2")
    if ff.min_value <= TOUCHDOWN_FLOOR:
        raise TouchDownError(
            f"min f = {ff.min_value:.3e} at/below {TOUCHDOWN_FLOOR:.0e}; u is unbounded"
        )
    f = ff.values
    h_y = ff.h
    faces_y = np.linspace(0.0, ff.mass, ff.n + 1)
    big_f = np.concatenate(([0.0], np.cumsum(f) * h_y))  # F on y faces
    # F(M) = 1 exactly after FieldF normalization, so the mapped x
    # coordinates of the y cell centers already span (0, 1)
    x_of_centers = np.interp(ff.centers, faces_y, big_f)
    u_at = 1.0 / f
    x_targets = _cell_centers(n, 1.0)
    u_vals = _interp_with_edge_extrapolation(x_targets, x_of_centers, u_at)
    u_vals = np.maximum(u_vals, 1e-300)
    return FieldU.from_samples(u_vals, mass=ff.mass)


def delta_cap(M: float, q: float) -> float:
    """min(1, 2M, (2M)^(-1/q)): ``pam_profile`` needs delta in (0, cap)."""
    return min(1.0, 2.0 * M, (2.0 * M) ** (-1.0 / q))


def pam_profile(M: float, q: float, delta: float, n_y: int) -> FieldF:
    """Spike-plus-floor initial profile used by the blowup construction:

        f0(y) = 2 (1 - M delta^q) / delta^2 * (delta - y)_+ + delta^q

    The continuum integral is exactly 1 and the continuum sup is
    2(1 - M delta^q)/delta + delta^q <= 2/delta; midpoint sampling is
    renormalized so the discrete integral is 1 as well.  The one-row case
    of ``pam_profiles``.
    """
    return FieldF(values=pam_profiles(M, q, [delta], n_y)[0], mass=float(M))


def pam_profiles(M: float, q: float, deltas: list, n_y: int) -> np.ndarray:
    """The samples of ``pam_profile`` for each delta, one row each, as a
    (len(deltas), n_y) array.

    delta^q, the slope and the rescale factor 1/(M/n_y * row sum) are
    Python scalars per delta and the ramp is one broadcast, so every row
    has the bits of ``FieldF.from_samples`` on that delta's samples.
    Each check runs once over the whole round, in this order: every delta
    in (0, cap) with delta^2 > 0 and a finite slope, at least 2 samples,
    positive and finite samples, and the continuum sup bound.  Which delta
    of a failing round raises first is left to the caller
    (``regime._first_accepted`` reruns it delta by delta).
    """
    cap = delta_cap(M, q)
    for delta in deltas:
        if not 0.0 < delta < cap:
            raise FieldError(f"delta={delta!r} outside the admissible range (0, {cap!r})")
        if delta**2 == 0.0:  # the slope 2 (1 - M delta^q) / delta^2 would divide by zero
            raise FieldError(f"delta={delta!r} is too small: delta^2 underflows to 0")
        if np.isinf(2.0 * (1.0 - M * delta**q) / delta**2):  # inf * 0 past the ramp would be nan
            raise FieldError(f"delta={delta!r} is too small: the slope 2 (1 - M delta^q) / delta^2 overflows")
    if n_y < 2:
        raise FieldError("f needs a 1D array of at least 2 samples")
    floors = [delta**q for delta in deltas]
    weights = [2.0 * (1.0 - M * floor) for floor in floors]
    slopes = [weight / delta**2 for weight, delta in zip(weights, deltas)]
    y = _cell_centers(n_y, M)
    vals = np.array(slopes)[:, None] * np.maximum(np.array(deltas)[:, None] - y, 0.0) + np.array(floors)[:, None]
    if not np.all((vals > 0.0) & np.isfinite(vals)):
        raise FieldError("f samples must be positive and finite")
    if any(weight / delta + floor > 2.0 / delta + 1e-12 for weight, delta, floor in zip(weights, deltas, floors)):
        raise FieldError("spike profile exceeded its analytic sup bound")
    scales = [1.0 / (M / n_y * total) for total in vals.sum(axis=1).tolist()]
    return vals * np.array(scales)[:, None]
