"""Time integration of both formulations of the aggregation model.

f-form (mass-Lagrangian): d_t f = d_y^2 psi(f) - 1 + M f on (0, M) with
homogeneous Neumann conditions; advanced by backward Euler with a Newton
solve of the nonlinear tridiagonal system (Jacobian through
psi'(f) = a(1/f)/f^2, Neumann via ghost-cell reflection).  A step is
accepted only if Newton converges and the iterate stays positive;
otherwise dt halves, and dt underflow is touch-down evidence.  Near the
steady state the residual stalls at the rounding floor of psi, often from
the first update on, and further iterates do not bring it down.  So a
Newton update is accepted within 64 times the target, f_old only within
it; a solve that stops halving returns f_old if f_old is within 64 times
the target, and after the fourth iterate it is rejected.

u-form (original system): d_t u = d_x(a(u) d_x u - u d_x v) coupled to
the Neumann Poisson problem v'' = M - u with zero mean.  Conservative
finite volumes: implicit diffusion with harmonic-mean face coefficients
frozen at the current state, explicit upwind drift, zero total flux at
the walls, mass conserved by the flux form.  In one dimension the drift
needs no Poisson solve: d_x v(x) = M x - U(x), U the cumulative mass, so
the face velocity is -h times the tail sum of the projected mass deficit
M - u (``_face_velocity``), the gauged discrete system that
``solve_poisson`` solves, in exact arithmetic.

Both steppers share one halve-and-retry loop (``_advance``): a rejected
trial halves dt, and dt underflow raises ``NearSingularity``, whose message
names the monitored extremum; it returns the accepted dt and the trial's
result, from which each stepper builds its accepted ``SolverState`` once.
``run`` has one step loop for both formulations; it chooses the stepper,
the record function, the monitored extremum and its blowup test once,
before the loop.  It advances one formulation per call: the cross-check
of both from the same data is ``harness.simulate``'s.

Every tridiagonal solve goes through ``solve_banded``, which sends a band
by its storage to one of two LAPACK routines.  Three rows, a general band,
go to ``dgtsv`` (pivoting; the bits of ``scipy.linalg.solve_banded``): the
f-form Newton Jacobian is not symmetric, and the Poisson reference
``solve_poisson`` has a gauge row.  Two rows, the upper form of
``scipy.linalg.solveh_banded``, go to ``dptsv`` (LDL^T, no pivoting; its
bits): the u-form diffusion matrix I - dt/h^2 D is symmetric and, with
positive couplings, strictly diagonally dominant, hence positive definite.
``_load_flapack`` loads both from scipy's extension ``_flapack`` at import,
without running the ``scipy.linalg`` ``__init__`` (and its numpy.f2py and
numpy.testing imports), and registers it as ``scipy.linalg._flapack``: a
later ``import scipy.linalg`` reuses it, and ``dgtsv`` and ``dptsv`` are
the objects ``scipy.linalg.lapack`` exports.

Nothing of the f-form Newton solve that does not depend on dt is computed
twice for one iterate.  ``FIterate`` holds that data at an iterate w:
psi(w), g(w) = lap psi(w) + M w - 1, max |psi(w)|, max w, and psi'(w),
evaluated when first asked for.  The residual of a trial at w is
(w - f_old) - dt g(w), with the bits of evaluating it whole.  Every trial of
a step, the dt-halving retries included, starts from the record of f_old,
and the record of the accepted iterate is carried to the next step in
``SolverState.start``, where the per-record diagnostics also take psi(f)
from it.  A carried record is used only while it belongs to the state: its
w must be the very array ``state.field.values`` (an identity test, not an
equality test), and its potentials and mass those of the state; a state
built by hand, or copied with another field, gets its record recomputed.

Blowup is detected as touch-down of f (min f < 1e-6) or runaway of u
(max u > 1e6); dt underflow counts as touch-down evidence.  The adaptive
controller targets a 5% relative change of the monitored extremum per
step: it halves dt above that change and doubles it below a quarter of it,
between 1e-12 and dt_max, but never right after a rejected trial.  A step
whose accepted dt is below the dt it requested holds dt for the next
``wait`` steps; ``wait`` starts at 1, doubles with each such step up to
``HOLD_MAX`` and returns to 1 once a grown dt is accepted whole.  Near the
steady state Newton stalls on the doubled dt every time, and without the
hold every step would retry it.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from operator import attrgetter, gt, lt
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics as diag
from .coefficient import Coefficient, Potentials, coefficient_from_text
from .regime import BlowupDesign, RegimeReport, classify, default_candidates, design_blowup
from .transform import TOUCHDOWN_FLOOR, FieldError, FieldF, FieldU, f_to_u, pam_profile, u_to_f


def _load_flapack():
    """scipy's LAPACK extension module ``scipy.linalg._flapack``.

    ``find_spec("scipy")`` locates scipy without running any of its code;
    the extension is loaded from its ``linalg`` directory and registered in
    ``sys.modules`` under its own name.  Its initialisation runs once per
    process, so after an earlier ``import scipy.linalg`` the loader returns
    the module already registered.  Raises ``ImportError`` naming the
    directory searched when no ``_flapack`` file is there.
    """
    name = "scipy.linalg._flapack"
    spec = find_spec("scipy")
    if spec is None:
        raise ImportError("smolpois.solver needs scipy, which is not installed", name="scipy")
    directory = Path(spec.submodule_search_locations[0], "linalg")
    for suffix in EXTENSION_SUFFIXES:
        path = directory / f"_flapack{suffix}"
        if path.is_file():
            loader = ExtensionFileLoader(name, str(path))
            module = module_from_spec(spec_from_loader(name, loader))
            loader.exec_module(module)
            sys.modules[name] = module
            return module
    raise ImportError(f"scipy's LAPACK extension _flapack not found in {directory}", name=name)


_flapack = _load_flapack()
dgtsv = _flapack.dgtsv
dptsv = _flapack.dptsv

DT_FLOOR = 1e-12
DT_UNDERFLOW = 1e-14
NEWTON_TOL = 1e-13
TARGET_REL_CHANGE = 0.05
HOLD_MAX = 64  # longest hold of dt growth after a rejected trial, in steps


class SolverFailure(RuntimeError):
    pass


class NearSingularity(SolverFailure):
    """dt underflowed while retrying a step: touch-down evidence."""


@dataclass(frozen=True)
class SolverState:
    t: float
    field: object                    # FieldF or FieldU
    potentials: Potentials
    dt: float = 0.0
    steps: int = 0
    start: Optional[FIterate] = None  # Newton data at field.values (f-form)


def _advance(state: SolverState, dt: float, attempt, describe) -> tuple:
    """(trial, result) for the first trial of dt, dt/2, dt/4, ... for which
    ``attempt(trial)`` returns a result that is not None.

    Raises ``NearSingularity`` once dt underflows (touch-down evidence);
    ``describe()`` names the monitored extremum and is called only then.
    """
    trial = dt
    while True:
        result = attempt(trial)
        if result is not None:
            return trial, result
        trial *= 0.5
        if trial < DT_UNDERFLOW:
            raise NearSingularity(
                f"dt underflowed below {DT_UNDERFLOW:g} at t={state.t:.6g} ({describe()})"
            )


# --- tridiagonal solves ----------------------------------------------------------


def solve_banded(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system stored in ``ab``, overwriting ``ab`` and
    ``rhs``.  Three rows, the super-diagonal (``ab[0, 1:]``), the diagonal and
    the sub-diagonal (``ab[2, :-1]``), are solved by ``dgtsv`` as
    ``scipy.linalg.solve_banded((1, 1), ...)`` does; two rows, the upper form
    of a symmetric positive definite band, by ``dptsv`` as
    ``scipy.linalg.solveh_banded`` does.  Raises ``LinAlgError`` when the
    factorisation fails and ``ValueError`` on an illegal argument, as scipy does.
    """
    if len(ab) == 2:
        _, _, x, info = dptsv(ab[1], ab[0, 1:], rhs, 1, 1, 1)
    else:
        _, _, _, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, 1, 1, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}th leading minor not positive definite" if len(ab) == 2 else "singular matrix"
        )
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal {'ptsv' if len(ab) == 2 else 'gtsv'}")
    return x


# --- Poisson ------------------------------------------------------------------


def _mass_deficit(uf: FieldU) -> np.ndarray:
    """g = M - u, with u first projected multiplicatively onto mass M
    (discrete solvability of the Neumann problem needs exact compatibility).

    Raises ``SolverFailure`` when the projection misses the mass, and
    ``ValueError`` when g is not finite in a cell other than cell 0, whose
    entry neither the gauged Poisson system nor the face velocity uses.
    """
    h = uf.h
    u = uf.values
    total = h * float(u.sum())
    u = u * (uf.mass / total)
    if abs(h * float(u.sum()) - uf.mass) > 1e-10 * max(1.0, uf.mass):
        raise SolverFailure("u could not be projected onto its mass")
    g = uf.mass - u  # v'' = M - u
    if not np.isfinite(g[1:]).all():
        raise ValueError("array must not contain infs or NaNs")
    return g


def solve_poisson(uf: FieldU) -> np.ndarray:
    """Solve v'' = M - u with homogeneous Neumann walls and zero mean.

    u is first projected multiplicatively onto mass M (``_mass_deficit``).
    ``solve_banded`` solves the gauged band: row 0 pins v_0 = 0, rows
    1..n-2 are the three-point stencil and row n-1 reflects the ghost
    v_n = v_{n-1}; v is then shifted to zero mean.  Raises ``ValueError``
    on a non-finite right-hand side.
    """
    n = uf.n
    h2 = uf.h * uf.h
    ab = np.zeros((3, n))
    ab[0, 2:] = 1.0 / h2               # super-diagonal entries for rows 1..n-2
    ab[1, 0] = 1.0
    ab[1, 1:n - 1] = -2.0 / h2
    ab[1, n - 1] = -1.0 / h2
    ab[2, :n - 1] = 1.0 / h2           # sub-diagonal entries for rows 1..n-1
    rhs = _mass_deficit(uf)
    rhs[0] = 0.0       # the gauge row
    v = solve_banded(ab, rhs)
    return v - v.mean()


# --- f-form step --------------------------------------------------------------


def _lap_neumann(vals: np.ndarray, h: float) -> np.ndarray:
    """Second difference in flux form with reflecting ghosts: the cell sum of
    the result telescopes to exactly zero in floating point, which keeps the
    discrete integral of f bit-tight through the implicit solve."""
    flux = vals[1:] - vals[:-1]
    flux /= h
    out = np.empty_like(vals)
    out[0] = flux[0] / h
    out[-1] = -flux[-1] / h
    inner = out[1:-1]
    np.subtract(flux[1:], flux[:-1], out=inner)
    inner /= h
    return out


class FIterate:
    """The dt-free data of the f-form Newton solve at an iterate w.

    ``psi`` is psi(w); ``g`` is (lap psi(w) + M w) - 1, so that a trial's
    residual is (w - f_old) - dt g; ``psi_max`` and ``w_max`` are max |psi(w)|
    and max w; ``dpsi``, psi'(w), is evaluated when first asked for.  ``w``
    is kept by reference and must not be changed in place.
    """

    def __init__(self, pot: Potentials, w: np.ndarray, M: float, h: float):
        self.pot = pot
        self.w = w
        self.M = M
        self.psi = psi = np.asarray(pot.psi(w), dtype=float)
        g = _lap_neumann(psi, h)
        g += M * w
        g -= 1.0
        self.g = g
        self.psi_max = float(max(psi.max(), -psi.min()))
        self.w_max = float(w.max())

    @cached_property
    def dpsi(self) -> np.ndarray:
        return np.asarray(self.pot.psi_prime(self.w), dtype=float)


def _carried_start(state: SolverState) -> Optional[FIterate]:
    """The record ``state`` carries, if it was computed at this state's
    field values (the same array object), potentials and mass."""
    start, f = state.start, state.field
    if start is not None and start.w is f.values and start.pot is state.potentials and start.M == f.mass:
        return start
    return None


def _solve_f(start: FIterate, f_old: np.ndarray, M: float, h: float, dt: float) -> Optional[FIterate]:
    """The record of the iterate that one backward-Euler solve from f_old
    accepts, the first iterate being ``start`` (the record of f_old); None
    when Newton fails or positivity breaks.

    Convergence target is NEWTON_TOL plus the rounding floor of the stiff
    Laplacian term (eps * |psi| / h^2 scales far above eps for fine grids).
    Every Newton update is accepted once its residual lies within 64 times
    the target, ``start`` (f_old itself) only within the target: accepted
    at the allowance, f_old made runs near touch-down take null steps at a
    tiny dt instead of reaching dt underflow.  A residual that does not
    halve against the best one so far has stalled: the solve returns
    ``start`` if that lies within 64 times the current target, and after
    the fourth iterate it is rejected at once, so that the caller halves dt.
    """
    pot = start.pot
    h2 = h * h
    eps = np.finfo(float).eps
    diag_shift = 1.0 - dt * M
    # rows of the banded Jacobian: super-diagonal, main, sub-diagonal; the
    # corners ab[0, 0] and ab[2, -1] are never read
    ab = np.empty((3, f_old.size))
    main = ab[1]
    best_res = math.inf
    w = start.w
    for iteration in range(30):
        it = FIterate(pot, w, M, h) if iteration else start
        # the negated residual dt g - (w - f_old), the Newton right-hand side
        rhs = f_old - w
        rhs += dt * it.g
        res_norm = float(max(rhs.max(), -rhs.min()))
        w_max = it.w_max
        noise_floor = 16.0 * eps * (dt * (it.psi_max / h2 + M * w_max + 1.0) + w_max)
        tol = NEWTON_TOL * max(1.0, w_max) + noise_floor
        if res_norm <= (64.0 * tol if iteration else tol):
            return it
        if not iteration:
            start_res = res_norm
        # stalled (not halved against the best so far, or NaN): at the rounding
        # floor of the residual, or above it where iterates cannot get below
        if not res_norm <= 0.5 * best_res and (start_res <= 64.0 * tol or iteration > 3):
            return start if start_res <= 64.0 * tol else None
        best_res = min(best_res, res_norm)
        dpsi = it.dpsi
        # J = I - dt (T diag(psi') / h^2 + M I), T the Neumann Laplacian
        # stencil; the off-diagonals are -(dt psi' / h^2), the main row keeps
        # its own products (2 * off differs from them under underflow)
        off = dt * dpsi
        off /= h2
        np.negative(off[1:], out=ab[0, 1:])
        np.negative(off[:-1], out=ab[2, :-1])
        np.multiply(2.0 * dt, dpsi, out=main)
        main /= h2
        main += diag_shift
        main[0] = diag_shift + off[0]
        main[-1] = diag_shift + off[-1]
        try:
            dw = solve_banded(ab, rhs)
        except (np.linalg.LinAlgError, ValueError):
            return None
        w = w + dw
        # rejects NaN (the comparisons are false), +-inf and values <= 0
        if not (w.min() > 0.0 and w.max() < math.inf):
            return None
    return None


def step_f(state: SolverState, dt: float) -> SolverState:
    """Advance the f-form by one accepted implicit step, halving dt on
    Newton failure or loss of positivity.  Every trial starts from the
    record of the state's field, and the new state carries the record of
    the accepted iterate."""
    f: FieldF = state.field
    start = _carried_start(state) or FIterate(state.potentials, f.values, f.mass, f.h)
    attempt = partial(_solve_f, start, f.values, f.mass, f.h)
    trial, accepted = _advance(state, dt, attempt, lambda: f"min f = {f.min_value:.3e}")
    field = f.with_values(accepted.w)
    return SolverState(state.t + trial, field, state.potentials, trial, state.steps + 1, accepted)


# --- u-form step ---------------------------------------------------------------


def _face_velocity(uf: FieldU) -> np.ndarray:
    """d_x v on the n - 1 interior faces, with v the solution of
    ``solve_poisson``: velocity_i = -h sum_{j > i} g_j, g the projected mass
    deficit of ``_mass_deficit`` (and its errors).

    This is the gauged Neumann system solved in exact arithmetic: the ghost
    row gives v_{n-1} - v_{n-2} = -h^2 g_{n-1}, each stencil row i adds
    -h^2 g_i to the difference on its left face, and the gauge row leaves
    g_0 unused.
    """
    g = _mass_deficit(uf)
    tail = np.cumsum(g[:0:-1])[::-1]     # sum_{j > i} g_j for i = 0..n-2
    tail *= -uf.h
    return tail


def _try_u_step(pot: Potentials, uf: FieldU, dt: float) -> Optional[np.ndarray]:
    u = uf.values
    h = uf.h
    velocity = _face_velocity(uf)
    a_vals = np.asarray(pot.coefficient(u), dtype=float)
    # implicit diffusion (I - dt/h^2 D) u_new = rhs as a symmetric band: row 0
    # holds minus dt a_face / h^2, a_face the harmonic mean of a on the
    # interior faces at the current state; ab[0, 0] is never read
    ab = np.empty((2, u.size))
    off = ab[0, 1:]
    np.multiply(a_vals[:-1], a_vals[1:], out=off)
    off /= a_vals[:-1] + a_vals[1:]
    off *= -2.0 * dt / (h * h)
    main = ab[1]
    np.subtract(1.0, off, out=main[:-1])
    main[-1] = 1.0
    main[1:] -= off
    # explicit upwind drift: dt / h times the face flux u d_x v moves from
    # the cell left of each face to the cell right of it
    flux = np.where(velocity > 0.0, u[:-1], u[1:])
    flux *= velocity
    flux *= dt / h
    rhs = u.copy()
    rhs[:-1] -= flux
    rhs[1:] += flux
    try:
        u_new = solve_banded(ab, rhs)
    except np.linalg.LinAlgError:  # a band that is not positive definite
        return None
    # rejects NaN (the comparisons are false), +-inf and values <= 0
    if not (u_new.min() > 0.0 and u_new.max() < math.inf):
        return None
    return u_new


def step_u(state: SolverState, dt: float) -> SolverState:
    """Advance the original system by one accepted finite-volume step,
    halving dt on loss of positivity.  The drift velocity of each trial is
    taken from the cumulative mass deficit (``_face_velocity``), not from a
    Poisson solve."""
    u = state.field
    attempt = partial(_try_u_step, state.potentials, u)
    trial, values = _advance(state, dt, attempt, lambda: f"max u = {u.max_value:.3e}")
    return SolverState(state.t + trial, u.with_values(values), state.potentials, trial, state.steps + 1)


# --- run loop -------------------------------------------------------------------


@dataclass
class _RunContext:
    pot: Potentials
    M: float
    m0: float
    q: Optional[float]
    psi_inv_m: Optional[float] = None              # |psi(1/M)|
    mu_m: Optional[float] = None
    l1_0: Optional[float] = None                   # L1(f0), set by the first record
    design: Optional[BlowupDesign] = None
    prev: Optional[diag.DiagnosticsRecord] = None  # the last record


def _record_f(ctx: _RunContext, state: SolverState) -> diag.DiagnosticsRecord:
    """The one functional pass over the f profile of ``state``: psi(f) and
    psi1(f) are evaluated once (psi(f) is taken from the state's Newton
    record when it carries one of this profile), and every functional and
    slack of the record is derived from them, from the run's constants and
    from the previous record.  The first record is of f0, and its L1
    becomes the run's L1(f0)."""
    pot, M, prev, design = ctx.pot, ctx.M, ctx.prev, ctx.design
    t, dt, field = state.t, state.dt, state.field
    start = _carried_start(state)
    psi_f = start.psi if start is not None else np.asarray(pot.psi(field.values), dtype=float)
    psi1_f = np.asarray(pot.psi1(field.values), dtype=float)
    grad_sq, psi_l1, slack5, slack6 = diag.energy_norm_terms(psi_f, field.h, M, ctx.psi_inv_m)
    l1 = diag.lyapunov_value(psi_f, psi1_f, field.h, M, grad_sq)
    if ctx.l1_0 is None:
        ctx.l1_0 = l1
    sigma_t = diag.sigma(M, ctx.m0, t)
    rec = diag.DiagnosticsRecord(
        t=t,
        dt=dt,
        f_min=field.min_value,
        f_max=field.max_value,
        u_max=1.0 / field.min_value,
        mass_err=field.integral_error(),
        l1=l1,
        sigma_t=sigma_t,
        slack_sigma=sigma_t + diag.SIGMA_TOL - field.max_value,
        slack_gex5=slack5,
        slack_gex6=slack6,
    )
    if prev is not None:
        rec.slack_lyapunov = diag.lyapunov_interval_slack(prev.t, prev.l1, t, l1)
    if ctx.q is not None:
        rec.m_q = diag.moment_mq(field, ctx.q)
        if design is not None:
            rec.slack_lambda_chain = design.lambda_value(design.m_q0) - design.lambda_value(rec.m_q)
            if prev is not None:  # records come at strictly increasing t
                rec.slack_m_q_decreasing = prev.m_q - rec.m_q
                rec.slack_moment_ode = diag.moment_interval_slack(design, prev.t, prev.m_q, t, rec.m_q)
    if ctx.pot.coefficient.tail_integrable:
        rec.psi_tilde_max = diag.psi_tilde_max(psi_f, pot.psi0)
        rec.slack_corollary = diag.psi_tilde_sup_bound(ctx.l1_0, M, ctx.mu_m) - rec.psi_tilde_max
        rec.slack_corollary_pertime = diag.corollary_square(l1, M, ctx.mu_m) - rec.psi_tilde_max**2
    else:
        x, rhs_l1, _, f_floor = diag.global_bound_chain(pot, ctx.l1_0, M, sigma_t, ctx.psi_inv_m)
        rec.slack_prandtl = x - 0.25 * grad_sq
        rec.slack_psi_l1 = rhs_l1 - psi_l1
        rec.slack_barrier = rec.f_min - f_floor
    ctx.prev = rec
    return rec


def _record_u(ctx: _RunContext, state: SolverState) -> diag.DiagnosticsRecord:
    field = state.field
    return diag.DiagnosticsRecord(
        t=state.t,
        dt=state.dt,
        u_max=field.max_value,
        mass_err=field.integral_error(),
        sigma_t=diag.sigma(ctx.M, ctx.m0, state.t),
    )


@dataclass
class RunSummary:
    verdict: Optional[str]
    blowup_time: Optional[float]
    final_time: float
    regime: RegimeReport
    design: Optional[BlowupDesign]
    checks: dict
    config_echo: dict
    wall_clock_s: Optional[float]
    notes: tuple = ()
    final_state: object = None         # not serialized
    crossval_gap: Optional[float] = None

    def to_dict(self) -> dict:
        """The summary.json payload; the wall-clock time is left out (null)."""
        if self.verdict == "blowup" and self.blowup_time is None:
            raise ValueError("blowup verdict without a blowup time estimate")
        checks = {name: asdict(res) for name, res in sorted(self.checks.items())}
        return {
            "verdict": self.verdict,
            "blowup_time": self.blowup_time,
            "final_time": self.final_time,
            "regime": self.regime.to_dict() if self.regime is not None else None,
            "design": self.design.to_dict() if self.design is not None else None,
            "checks": checks,
            "config": self.config_echo,
            "crossval_gap": self.crossval_gap,
            "wall_clock_s": None,
            "notes": list(self.notes),
        }


def build_initial_data(config, coeff) -> tuple[FieldU | FieldF, Optional[BlowupDesign]]:
    """The initial field of ``config.formulation`` and, for 'auto' spike
    parameters, the blowup design from the run's coeff."""
    M = config.mass
    u_form = config.formulation == "u"
    field_type = FieldU if u_form else FieldF
    kind = config.initial_kind
    if kind == "constant":
        n, level = (config.n, M) if u_form else (config.n_y, 1.0 / M)
        return field_type.from_samples(np.full(n, level), M), None
    if kind == "cosine":
        amp = config.amplitude
        if not (0.0 <= amp < M):
            raise SolverFailure(f"cosine amplitude {amp!r} must lie in [0, M)")
        x = (np.arange(config.n) + 0.5) / config.n
        u0 = FieldU.from_samples(M + amp * np.cos(np.pi * x), M)
        return (u0 if u_form else u_to_f(u0, config.n_y)), None
    if kind == "pam":
        design = None
        if config.pam_q == "auto":  # validation leaves q and delta both 'auto' or both set
            theta, alpha = default_candidates(coeff, config.theta, config.alpha)
            design = design_blowup(coeff, M, theta, alpha, n_y=config.n_y)
            q, delta = design.q, design.delta
        else:
            q, delta = float(config.pam_q), float(config.pam_delta)
        f0 = pam_profile(M, q, delta, config.n_y)
        if u_form and f0.min_value <= TOUCHDOWN_FLOOR:
            raise SolverFailure("initial data does not define a u profile")
        return (f_to_u(f0, config.n) if u_form else f0), design
    if kind == "samples":
        values = _read_samples(config.samples_file)
        return field_type.from_samples(values, M), None
    raise SolverFailure(f"unknown initial data kind {config.initial_kind!r}")


def _read_samples(path: str) -> np.ndarray:
    """The last comma-separated cell of each line of ``path`` that holds a number."""
    values = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    values.append(float(line.split(",")[-1]))
                except ValueError:
                    continue  # a header or blank line
    except OSError as err:
        raise FieldError(f"cannot read initial.file {path!r}: {err.strerror}") from None
    return np.asarray(values, dtype=float)


def run(config, coeff: Optional[Coefficient] = None):
    """Advance one formulation to t_max or a verdict; ``coeff``, when given,
    is ``config.coefficient_text`` already parsed.

    Everything that depends on the formulation is chosen once, before the
    step loop: the initial field, the monitored extremum (min f or max u)
    and its blowup test, the record function, the stepper and the run's
    constants.  Returns (RunSummary, series).  Verdicts: "blowup" on
    touch-down of f / runaway of u / dt underflow, "global-so-far" at
    t_max, "inconclusive" on solver failure.
    """
    t_start = time.perf_counter()
    formulation = config.formulation
    if formulation not in ("f", "u"):
        raise SolverFailure(f"run() advances one formulation, got {formulation!r}")
    if coeff is None:
        coeff = coefficient_from_text(config.coefficient_text)
    pot = coeff.potentials
    regime_report = classify(coeff, config.theta, config.alpha)
    field0, design = build_initial_data(config, coeff)
    M = config.mass
    eps_td = config.eps_touchdown
    notes = list(regime_report.notes)

    if formulation == "f":
        m0 = 1.0 / field0.max_value
        monitor = attrgetter("min_value")
        threshold = eps_td
        crossed = partial(gt, threshold)        # touch-down: eps_td > min f
        start_note = "initial min f = {:.3e} already below the touch-down threshold {:g}"
        stepper, record = step_f, _record_f
        # psi(f0) is evaluated once: the t = 0 record and the first step
        # take it from this Newton record
        start = FIterate(pot, field0.values, field0.mass, field0.h)
        constants = dict(psi_inv_m=abs(pot.psi(1.0 / M)))
        if coeff.tail_integrable:
            constants["mu_m"] = diag.mu_mass(pot, M)
    else:
        m0 = field0.min_value
        monitor = attrgetter("max_value")
        threshold = 1.0 / eps_td
        crossed = partial(lt, threshold)        # runaway: 1/eps_td < max u
        start_note = "initial max u = {:.3e} already above the runaway cap {:g}"
        stepper, record = step_u, _record_u
        start, constants = None, {}

    ctx = _RunContext(
        pot=pot,
        M=M,
        m0=min(m0, M),
        q=design.q if design is not None else (None if config.pam_q == "auto" else float(config.pam_q)),
        design=design,
        **constants,
    )
    state = SolverState(
        t=0.0,
        field=field0,
        potentials=pot,
        dt=config.dt_init,
        start=start,
    )
    series = [record(ctx, state)]
    out_every = config.resolved_output_interval()
    dt_max = config.resolved_dt_max()
    next_record = out_every

    verdict = None
    blowup_time = None
    if config.initial_kind == "pam":
        delta_used = design.delta if design is not None else float(config.pam_delta)
        if delta_used < M / config.n_y:
            notes.append(
                f"spike width delta = {delta_used:.3e} is below the cell width "
                f"{M / config.n_y:.3e}; the discrete initial profile degenerates toward "
                "the constant steady state"
            )
    dt = min(config.dt_init, dt_max)

    prev_monitor = monitor(field0)
    if crossed(prev_monitor):
        verdict = "blowup"
        blowup_time = 0.0
        notes.append(start_note.format(prev_monitor, threshold))

    wait, hold = 1, 0
    try:
        while verdict is None:
            if state.t >= config.t_max:
                verdict = "global-so-far"
                break
            dt = min(dt, config.t_max - state.t)
            prev_dt = state.dt
            state = stepper(state, dt)
            new_monitor = monitor(state.field)
            if state.t >= next_record or state.t >= config.t_max:
                series.append(record(ctx, state))
                while next_record <= state.t:
                    next_record += out_every
            if crossed(new_monitor):
                verdict = "blowup"
                blowup_time = state.t
                break
            rel = abs(new_monitor - prev_monitor) / max(abs(prev_monitor), 1e-300)
            used = state.dt
            if used < dt:
                # cut: a trial was rejected; hold dt for the next `wait` steps
                hold, wait = wait, min(2 * wait, HOLD_MAX)
            elif used > prev_dt:
                wait = 1
            if rel > TARGET_REL_CHANGE:
                dt = max(used * 0.5, DT_FLOOR)
            elif rel < 0.25 * TARGET_REL_CHANGE and not hold:
                dt = min(used * 2.0, dt_max)
            else:
                dt = min(used, dt_max)
            hold = max(hold - 1, 0)
            prev_monitor = new_monitor
    except NearSingularity as err:
        verdict = "blowup"
        blowup_time = state.t
        notes.append(f"near-singularity: {err}")
    except SolverFailure as err:
        verdict = "inconclusive"
        notes.append(f"solver failure: {err}")

    # the state a verdict was reached at always ends the series
    if series[-1].t < state.t:
        series.append(record(ctx, state))

    checks = _assemble_checks(ctx, series, formulation)
    wall = time.perf_counter() - t_start
    summary = RunSummary(
        verdict=verdict,
        blowup_time=blowup_time,
        final_time=state.t,
        regime=regime_report,
        design=design,
        checks=checks,
        config_echo=config.to_dict(),
        wall_clock_s=wall,
        notes=tuple(notes),
        final_state=state,
    )
    return summary, series


def _assemble_checks(ctx: _RunContext, series, formulation: str) -> dict:
    checks: dict[str, diag.CheckResult] = {}
    if formulation != "f":
        return checks
    checks["lyapunov"] = diag.check_lyapunov(series)
    checks["sigma_comparison"] = diag.check_sigma_comparison(series)
    checks.update(diag.check_energy_norm_series(series))
    if ctx.pot.coefficient.tail_integrable:
        checks.update(diag.check_corollary_bound(series))
    else:
        checks.update(diag.check_global_bounds(series))
    if ctx.design is not None:
        checks.update(diag.check_moment_ode(series, ctx.design))
    return checks

