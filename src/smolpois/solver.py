"""Time integration of both formulations of the aggregation model.

f-form (mass-Lagrangian): d_t f = d_y^2 psi(f) - 1 + M f on (0, M) with
homogeneous Neumann conditions; advanced by backward Euler with a Newton
solve of the nonlinear tridiagonal system (Jacobian through
psi'(f) = a(1/f)/f^2, Neumann via ghost-cell reflection).  A step is
accepted only if Newton converges and the iterate stays positive;
otherwise dt halves, and dt underflow is touch-down evidence.  A Newton
solve whose residual stops halving after the fourth iterate, while still
above 64 times its target, is rejected at that iterate: near the steady
state the residual stalls at the rounding floor of psi, and further
iterates do not bring it down.

u-form (original system): d_t u = d_x(a(u) d_x u - u d_x v) coupled to
the Neumann Poisson problem v'' = M - u with zero mean.  Conservative
finite volumes: implicit diffusion with harmonic-mean face coefficients
frozen at the current state, explicit upwind drift, zero total flux at
the walls, mass conserved by the flux form.

Both steppers share one halve-and-retry loop (``_advance``): a rejected
trial halves dt, and dt underflow raises ``NearSingularity``, whose message
names the monitored extremum.  ``run`` has one step loop for both
formulations; it chooses the stepper, the record function, the monitored
extremum and its blowup test once, before the loop.

Every tridiagonal solve is a direct LAPACK call: the Newton and diffusion
systems go to ``dgtsv`` through ``solve_banded``, and the Poisson matrix,
which depends only on n, is LU-factored by ``dgttrf`` once per n and
solved by ``dgttrs`` on each step.  Both routes run the eliminations and
pivots of ``scipy.linalg.solve_banded`` and give its results bit for bit.
The three routines come from scipy's LAPACK extension ``_flapack``, which
``_load_flapack`` loads from scipy's ``linalg`` directory when this module
is imported, without running the ``scipy.linalg`` package ``__init__``
(and the numpy.f2py and numpy.testing imports that it pulls in).  It is
registered as ``scipy.linalg._flapack``, so a later ``import scipy.linalg``
reuses it, and the routines are the objects ``scipy.linalg.lapack`` exports.

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
built by hand or by ``replace(field=...)`` gets its record recomputed.

Blowup is detected as touch-down of f (min f < 1e-6) or runaway of u
(max u > 1e6); dt underflow counts as touch-down evidence.  The adaptive
controller targets a 5% relative change of the monitored extremum per
step by halving/doubling between 1e-12 and dt_max.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from operator import attrgetter, gt, lt
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics as diag
from .coefficient import Coefficient, Potentials, coefficient_from_text
from .regime import BlowupDesign, classify, default_candidates, design_blowup
from .transform import TOUCHDOWN_FLOOR, FieldF, FieldU, f_to_u, pam_profile, u_to_f


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
dgtsv, dgttrf, dgttrs = _flapack.dgtsv, _flapack.dgttrf, _flapack.dgttrs

DT_FLOOR = 1e-12
DT_UNDERFLOW = 1e-14
NEWTON_TOL = 1e-13
TARGET_REL_CHANGE = 0.05


class SolverFailure(RuntimeError):
    pass


class NearSingularity(SolverFailure):
    """dt underflowed while retrying a step: touch-down evidence."""


@dataclass(frozen=True)
class SolverState:
    t: float
    field: object                    # FieldF or FieldU
    potentials: Potentials
    v: Optional[np.ndarray] = None   # potential on the u grid (u-form)
    dt: float = 0.0
    steps: int = 0
    start: Optional[FIterate] = None  # Newton data at field.values (f-form)


def _advance(state: SolverState, dt: float, attempt, describe) -> SolverState:
    """The state advanced by the first of dt, dt/2, dt/4, ... for which
    ``attempt(trial)`` returns new field values.

    Raises ``NearSingularity`` once dt underflows (touch-down evidence);
    ``describe()`` names the monitored extremum and is called only then.
    """
    trial = dt
    while True:
        values = attempt(trial)
        if values is not None:
            return replace(
                state,
                t=state.t + trial,
                field=state.field.with_values(values),
                dt=trial,
                steps=state.steps + 1,
            )
        trial *= 0.5
        if trial < DT_UNDERFLOW:
            raise NearSingularity(
                f"dt underflowed below {DT_UNDERFLOW:g} at t={state.t:.6g} ({describe()})"
            )


# --- tridiagonal solves ----------------------------------------------------------


def solve_banded(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system whose rows of ``ab`` are the super-diagonal
    (``ab[0, 1:]``), the main diagonal and the sub-diagonal (``ab[2, :-1]``),
    with LAPACK ``dgtsv`` (partial pivoting), the routine behind
    ``scipy.linalg.solve_banded((1, 1), ...)``.  ``ab`` and ``rhs`` are
    overwritten.  Raises ``LinAlgError`` on an exactly singular pivot and
    ``ValueError`` on an illegal argument, as scipy does.
    """
    _, _, _, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, 1, 1, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


@lru_cache(maxsize=8)
def _poisson_factors(n: int) -> tuple:
    """The gauged Neumann Poisson matrix on n cells, factored once by LAPACK
    ``dgttrf`` (the eliminations and pivots of ``dgtsv``).

    Rows 1..n-2 are the three-point stencil, row n-1 reflects the ghost
    v_n = v_{n-1}, and row 0 is the gauge v_0 = 0.  scipy's ``dgttrf`` and
    ``dgttrs`` wrappers reject n = 2, so that matrix is kept as its band
    rows for ``solve_banded``.  The arrays are shared by every solve on n
    cells and are read-only.
    """
    h = 1.0 / n
    h2 = h * h
    ab = np.zeros((3, n))
    ab[0, 2:] = 1.0 / h2               # super-diagonal entries for rows 1..n-2
    ab[1, 0] = 1.0
    ab[1, 1:n - 1] = -2.0 / h2
    ab[1, n - 1] = -1.0 / h2
    ab[2, :n - 1] = 1.0 / h2           # sub-diagonal entries for rows 1..n-1
    if n == 2:
        factors = (ab,)
    else:
        *factors, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
        if info != 0:
            raise SolverFailure(f"dgttrf failed on the Poisson matrix (info = {info})")
    for array in factors:
        array.flags.writeable = False
    return tuple(factors)


# --- Poisson ------------------------------------------------------------------


def solve_poisson(uf: FieldU) -> np.ndarray:
    """Solve v'' = M - u with homogeneous Neumann walls and zero mean.

    u is first projected multiplicatively onto mass M (discrete solvability
    needs exact compatibility); the singular Neumann system is gauged by
    pinning v_0 and shifted to zero mean afterwards.  Raises ``ValueError``
    on a non-finite right-hand side.
    """
    n = uf.n
    h = uf.h
    u = uf.values
    total = h * float(u.sum())
    u = u * (uf.mass / total)
    if abs(h * float(u.sum()) - uf.mass) > 1e-10 * max(1.0, uf.mass):
        raise SolverFailure("u could not be projected onto its mass")
    rhs = uf.mass - u  # v'' = M - u
    rhs[0] = 0.0       # the gauge row
    if not np.all(np.isfinite(rhs)):
        raise ValueError("array must not contain infs or NaNs")
    factors = _poisson_factors(n)
    if n == 2:
        v = solve_banded(factors[0].copy(), rhs)
    else:
        v, info = dgttrs(*factors, rhs, overwrite_b=1)
        if info != 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gttrs")
    return v - v.mean()


def poisson_residual(uf: FieldU, v: np.ndarray) -> float:
    """Max residual of the three-point Neumann discretization."""
    h2 = uf.h**2
    u = uf.values * (uf.mass / (uf.h * float(uf.values.sum())))
    g = uf.mass - u
    res = np.empty_like(v)
    res[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h2 - g[1:-1]
    res[0] = (v[1] - v[0]) / h2 - g[0]
    res[-1] = (v[-2] - v[-1]) / h2 - g[-1]
    return float(np.max(np.abs(res)))


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
        self.psi_max = float(np.abs(psi).max())
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


def _newton_f(
    pot: Potentials, f_old: np.ndarray, M: float, h: float, dt: float, start: Optional[FIterate] = None
) -> Optional[np.ndarray]:
    """One backward-Euler solve from ``f_old``; None when Newton fails or
    positivity breaks.  ``start``, the record of f_old, is computed when it
    is not given."""
    if start is None:
        start = FIterate(pot, f_old, M, h)
    found = _solve_f(start, f_old, M, h, dt)
    return None if found is None else found.w


def _solve_f(start: FIterate, f_old: np.ndarray, M: float, h: float, dt: float) -> Optional[FIterate]:
    """The record of the iterate that one backward-Euler solve from f_old
    accepts, the first iterate being ``start`` (the record of f_old); None
    when Newton fails or positivity breaks.

    Convergence target is NEWTON_TOL plus the rounding floor of the stiff
    Laplacian term (eps * |psi| / h^2 scales far above eps for fine grids).
    After the fourth iterate a residual that no longer halves against the
    best one so far has stalled: the solve is accepted when that iterate or
    the best one lies within 64 times the target, and rejected at once
    otherwise, so that the caller halves dt without grinding through the
    remaining iterations.
    """
    pot = start.pot
    h2 = h * h
    eps = np.finfo(float).eps
    diag_shift = 1.0 - dt * M
    # rows of the banded Jacobian: super-diagonal, main, sub-diagonal; the
    # corners ab[0, 0] and ab[2, -1] are never read
    ab = np.empty((3, f_old.size))
    main = ab[1]
    best = None
    best_res = math.inf
    w = start.w
    for iteration in range(30):
        it = FIterate(pot, w, M, h) if iteration else start
        residual = w - f_old
        residual -= dt * it.g
        res_norm = float(np.abs(residual).max())
        w_max = it.w_max
        noise_floor = 16.0 * eps * (dt * (it.psi_max / h2 + M * w_max + 1.0) + w_max)
        tol = NEWTON_TOL * max(1.0, w_max) + noise_floor
        if res_norm <= tol:
            return it
        if res_norm < best_res:
            if res_norm > 0.5 * best_res and iteration > 3:
                # stalled: at the rounding floor of the residual evaluation,
                # or above it where further iterates cannot get below it
                return it if res_norm <= 64.0 * tol else None
            best_res = res_norm
            best = it
        elif iteration > 3:
            return best if best_res <= 64.0 * tol else None
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
        np.negative(residual, out=residual)
        try:
            dw = solve_banded(ab, residual)
        except (np.linalg.LinAlgError, ValueError):
            return None
        w = w + dw
        if not np.isfinite(w).all() or (w <= 0.0).any():
            return None
    return None


def step_f(state: SolverState, dt: float) -> SolverState:
    """Advance the f-form by one accepted implicit step, halving dt on
    Newton failure or loss of positivity.  Every trial starts from the
    record of the state's field, and the new state carries the record of
    the accepted iterate."""
    f: FieldF = state.field
    start = _carried_start(state) or FIterate(state.potentials, f.values, f.mass, f.h)
    accepted = None

    def attempt(trial):
        nonlocal accepted
        accepted = _solve_f(start, f.values, f.mass, f.h, trial)
        return None if accepted is None else accepted.w

    new = _advance(state, dt, attempt, lambda: f"min f = {f.min_value:.3e}")
    return replace(new, start=accepted)


# --- u-form step ---------------------------------------------------------------


def _try_u_step(pot: Potentials, uf: FieldU, v: np.ndarray, dt: float) -> Optional[np.ndarray]:
    u = uf.values
    n = u.size
    h = uf.h
    coeff = pot.coefficient
    a_vals = np.asarray(coeff(u), dtype=float)
    # harmonic-mean diffusivity on interior faces, frozen at the current state
    a_face = 2.0 * a_vals[:-1] * a_vals[1:] / (a_vals[:-1] + a_vals[1:])
    velocity = np.diff(v) / h            # d_x v on interior faces
    upwind = np.where(velocity > 0.0, u[:-1], u[1:])
    flux_adv = upwind * velocity                 # advective flux u * d_x v
    face_div = flux_adv / h
    div_adv = np.zeros(n)
    div_adv[:-1] += face_div
    div_adv[1:] -= face_div
    # implicit diffusion: (I - dt/h^2 D) u_new = u_old - dt * div_adv
    h2 = h * h
    coupling = dt * a_face / h2
    # the corners ab[0, 0] and ab[2, -1] are never read
    ab = np.empty((3, n))
    np.negative(coupling, out=ab[0, 1:])
    main = ab[1]
    main.fill(1.0)
    main[:-1] += coupling
    main[1:] += coupling
    np.negative(coupling, out=ab[2, :-1])
    rhs = u - dt * div_adv
    u_new = solve_banded(ab, rhs)
    if not np.all(np.isfinite(u_new)) or np.any(u_new <= 0.0):
        return None
    return u_new


def step_u(state: SolverState, dt: float) -> SolverState:
    """Advance the original system by one accepted finite-volume step,
    halving dt on loss of positivity, and re-solve the Poisson problem."""
    if state.v is None:
        state = replace(state, v=solve_poisson(state.field))
    u, v = state.field, state.v
    new = _advance(
        state,
        dt,
        lambda trial: _try_u_step(state.potentials, u, v, trial),
        lambda: f"max u = {u.max_value:.3e}",
    )
    return replace(new, v=solve_poisson(new.field))


# --- run loop -------------------------------------------------------------------


@dataclass
class _RunContext:
    pot: Potentials
    M: float
    m0: float
    q: Optional[float]
    tail_integrable: bool
    psi_inv_m: Optional[float] = None              # |psi(1/M)|
    lyap_f0: Optional[float] = None
    mu_m: Optional[float] = None
    l1_0: Optional[float] = None
    design: Optional[BlowupDesign] = None
    prev_mq: Optional[tuple[float, float]] = None  # (t, m_q)


def _record_f(ctx: _RunContext, state: SolverState) -> diag.DiagnosticsRecord:
    """The one functional pass over the f profile of ``state``: psi(f) and
    psi1(f) are evaluated once (psi(f) is taken from the state's Newton
    record when it carries one of this profile), and every functional and
    slack of the record is derived from them and from the run's constants."""
    pot, M = ctx.pot, ctx.M
    t, dt, field = state.t, state.dt, state.field
    start = _carried_start(state)
    psi_f = start.psi if start is not None else np.asarray(pot.psi(field.values), dtype=float)
    psi1_f = np.asarray(pot.psi1(field.values), dtype=float)
    grad_sq, psi_l1, slack5, slack6 = diag.energy_norm_terms(psi_f, field.h, M, ctx.psi_inv_m)
    rec = diag.DiagnosticsRecord(
        t=t,
        dt=dt,
        f_min=field.min_value,
        f_max=field.max_value,
        u_max=1.0 / field.min_value,
        mass_err=field.integral_error(),
        l1=0.5 * grad_sq + field.h * float(np.sum(psi_f - M * psi1_f)),
        sigma_t=diag.sigma(M, ctx.m0, t),
        slack_gex5=slack5,
        slack_gex6=slack6,
    )
    if ctx.q is not None:
        rec.m_q = diag.moment_mq(field, ctx.q)
        if ctx.design is not None and ctx.prev_mq is not None:
            t0, mq0 = ctx.prev_mq
            if t > t0:
                rec.slack_moment_ode = diag.moment_interval_slack(ctx.design, t0, mq0, t, rec.m_q)
        ctx.prev_mq = (t, rec.m_q)
    if ctx.tail_integrable:
        rec.psi_tilde_max = float(np.max(psi_f)) - pot.psi0
        rec.slack_corollary = diag.psi_tilde_sup_bound(ctx.lyap_f0, M, ctx.mu_m) - rec.psi_tilde_max
    else:
        x, rhs_l1, _, f_floor = diag.global_bound_chain(pot, ctx.l1_0, M, rec.sigma_t, ctx.psi_inv_m)
        rec.slack_prandtl = x - 0.25 * grad_sq
        rec.slack_psi_l1 = rhs_l1 - psi_l1
        rec.slack_barrier = rec.f_min - f_floor
    return rec


def _record_u(ctx: _RunContext, state: SolverState) -> diag.DiagnosticsRecord:
    field = state.field
    return diag.DiagnosticsRecord(
        t=state.t,
        dt=state.dt,
        u_max=field.max_value,
        mass_err=field.mass_error(),
        sigma_t=diag.sigma(ctx.M, ctx.m0, state.t),
    )


def build_initial_data(config, coeff, pot) -> tuple[Optional[FieldU], Optional[FieldF], Optional[BlowupDesign]]:
    """Construct the initial fields named by the config (and, for 'auto'
    spike parameters, the blowup design from the run's coeff and pot)."""
    M = config.mass
    design = None
    kind = config.initial_kind
    if kind == "constant":
        u0 = FieldU.from_samples(np.full(config.n, M), M)
        f0 = FieldF.from_samples(np.full(config.n_y, 1.0 / M), M)
        return u0, f0, None
    if kind == "cosine":
        amp = config.amplitude
        if not (0.0 <= amp < M):
            raise SolverFailure(f"cosine amplitude {amp!r} must lie in [0, M)")
        x = (np.arange(config.n) + 0.5) / config.n
        u0 = FieldU.from_samples(M + amp * np.cos(np.pi * x), M)
        f0 = u_to_f(u0, config.n_y)
        return u0, f0, None
    if kind == "pam":
        theta, alpha = default_candidates(coeff, config.theta, config.alpha)
        if config.pam_q == "auto" or config.pam_delta == "auto":
            design = design_blowup(coeff, M, theta, alpha, n_y=config.n_y, potentials=pot)
            q = design.q if config.pam_q == "auto" else float(config.pam_q)
            delta = design.delta if config.pam_delta == "auto" else float(config.pam_delta)
        else:
            q = float(config.pam_q)
            delta = float(config.pam_delta)
        f0 = pam_profile(M, q, delta, config.n_y)
        return None, f0, design
    if kind == "samples":
        values = _read_samples(config.samples_file)
        if config.formulation == "u":
            return FieldU.from_samples(values, M), None, None
        f0 = FieldF.from_samples(values, M)
        return None, f0, None
    raise SolverFailure(f"unknown initial data kind {config.initial_kind!r}")


def _read_samples(path: str) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            cell = line.split(",")[-1]
            try:
                values.append(float(cell))
            except ValueError:
                continue  # header line
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
    from .harness import RunSummary  # deferred: harness imports this module

    t_start = time.perf_counter()
    formulation = config.formulation
    if formulation not in ("f", "u"):
        raise SolverFailure(f"run() advances one formulation, got {formulation!r}")
    if coeff is None:
        coeff = coefficient_from_text(config.coefficient_text)
    pot = Potentials(coeff)
    regime_report = classify(coeff, config.theta, config.alpha)
    u0, f0, design = build_initial_data(config, coeff, pot)
    M = config.mass
    eps_td = config.eps_touchdown
    notes = list(regime_report.notes)

    if formulation == "f":
        if f0 is None:
            raise SolverFailure("initial data does not define an f profile")
        field0, m0 = f0, 1.0 / f0.max_value
        monitor = attrgetter("min_value")
        threshold = eps_td
        crossed = partial(gt, threshold)        # touch-down: eps_td > min f
        start_note = "initial min f = {:.3e} already below the touch-down threshold {:g}"
        stepper, record = step_f, _record_f
        if coeff.tail_integrable:
            constants = dict(mu_m=diag.mu_mass(pot, M), lyap_f0=diag.lyapunov_L1(pot, f0, M))
        else:
            constants = dict(l1_0=diag.lyapunov_L1(pot, f0, M))
        constants["psi_inv_m"] = abs(pot.psi(1.0 / M))
    else:
        if u0 is None:
            if f0 is not None and f0.min_value > TOUCHDOWN_FLOOR:
                u0 = f_to_u(f0, config.n)
            else:
                raise SolverFailure("initial data does not define a u profile")
        field0, m0 = u0, u0.min_value
        monitor = attrgetter("max_value")
        threshold = 1.0 / eps_td
        crossed = partial(lt, threshold)        # runaway: 1/eps_td < max u
        start_note = "initial max u = {:.3e} already above the runaway cap {:g}"
        stepper, record = step_u, _record_u
        constants = {}

    ctx = _RunContext(
        pot=pot,
        M=M,
        m0=min(m0, M),
        q=design.q if design is not None else (None if config.pam_q == "auto" else float(config.pam_q)),
        tail_integrable=coeff.tail_integrable,
        design=design,
        **constants,
    )
    state = SolverState(
        t=0.0,
        field=field0,
        potentials=pot,
        dt=config.dt_init,
    )
    series = [record(ctx, state)]
    out_every = config.resolved_output_interval()
    dt_max = config.resolved_dt_max()
    next_record = out_every

    verdict = None
    blowup_time = None
    if config.initial_kind == "pam":
        delta_used = design.delta if design is not None else float(config.pam_delta)
        if f0 is not None and delta_used < f0.h:
            notes.append(
                f"spike width delta = {delta_used:.3e} is below the cell width "
                f"{f0.h:.3e}; the discrete initial profile degenerates toward "
                "the constant steady state"
            )
    dt = min(config.dt_init, dt_max)

    prev_monitor = monitor(field0)
    if crossed(prev_monitor):
        verdict = "blowup"
        blowup_time = 0.0
        notes.append(start_note.format(prev_monitor, threshold))

    try:
        while verdict is None:
            if state.t >= config.t_max:
                verdict = "global-so-far"
                break
            dt = min(dt, config.t_max - state.t)
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
            if rel > TARGET_REL_CHANGE:
                dt = max(used * 0.5, DT_FLOOR)
            elif rel < 0.25 * TARGET_REL_CHANGE:
                dt = min(used * 2.0, dt_max)
            else:
                dt = min(used, dt_max)
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
    checks["gex5"], checks["gex6"] = diag.check_energy_norm_series(series)
    if ctx.tail_integrable:
        checks["psi_tilde_bound_fixed"], checks["psi_tilde_bound_pertime"] = diag.check_corollary_bound(
            series, ctx.M, ctx.mu_m
        )
    else:
        bounds = diag.check_global_bounds(series)
        checks["prandtl"] = bounds.prandtl
        checks["psi_l1_bound"] = bounds.psi_l1
        checks["f_min_barrier"] = bounds.barrier
    if ctx.design is not None:
        moment = diag.check_moment_ode(series, ctx.design)
        checks["moment_ode"] = moment.ode_slack
        checks["m_q_decreasing"] = moment.monotone
        checks["lambda_chain"] = moment.lambda_chain
    return checks


def run_crossval(config):
    """Run both formulations from the same data and compare at t_max.

    Returns (relative L1 gap of the two u profiles at t_max, f summary,
    u summary, f series, u series).
    """
    coeff = coefficient_from_text(config.coefficient_text)
    summary_f, series_f = run(config.with_overrides(formulation="f"), coeff)
    summary_u, series_u = run(config.with_overrides(formulation="u"), coeff)
    state_f = summary_f.final_state
    state_u = summary_u.final_state
    u_from_f = f_to_u(state_f.field, config.n)
    u_direct: FieldU = state_u.field
    gap = float(np.sum(np.abs(u_from_f.values - u_direct.values))) / float(
        np.sum(np.abs(u_direct.values))
    )
    return gap, summary_f, summary_u, series_f, series_u
