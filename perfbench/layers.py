"""The smolpois callables the tracer wraps, and the per-layer metrics
derived from their spans.

Each target is wrapped at the name the program looks it up under, so
nothing in the package changes.  Span names are ``<layer>.<what>``; the
layer is the smolpois module that owns the callable.
"""

from __future__ import annotations

import math
import os

from tracer import self_times, under

DIAGNOSTIC_FUNCTIONS = (
    "grad_norm_sq",
    "lyapunov_L1",
    "energy_E1",
    "moment_mq",
    "sigma",
    "mu_mass",
    "psi_tilde_sup_bound",
    "psi_tilde_max",
    "energy_norm_slacks",
    "moment_interval_slack",
    "gradient_bound_rhs",
    "global_barrier",
    "check_lyapunov",
    "check_sigma_comparison",
    "check_corollary_bound",
    "check_energy_norm_series",
    "check_moment_ode",
    "check_global_bounds",
)


def _points(args, kwargs, result) -> float:
    """Number of points a potential was evaluated at."""
    import numpy as np

    return float(np.size(args[1]))


def rejected_halvings(requested_dt: float, accepted_dt: float) -> float:
    """Trials a step rejected: it halves dt once per rejection."""
    return math.log2(requested_dt / accepted_dt)


def _halvings(args, kwargs, result) -> float:
    requested = args[1] if len(args) > 1 else kwargs["dt"]
    return rejected_halvings(requested, result.dt)


def _bytes(args, kwargs, result) -> float:
    return float(sum(os.path.getsize(path) for path in result))


def _candidates(args, kwargs, result) -> float:
    return float(len(result.search_trace))


def install(tracer) -> None:
    """Wrap every traced smolpois callable; undo with ``tracer.uninstall``."""
    from smolpois import coefficient, diagnostics, expr, harness, quadrature, regime, solver, transform

    targets = [
        (solver, "step_f", "solver.step", _halvings),
        (solver, "step_u", "solver.step", _halvings),
        (solver, "solve_banded", "solver.tridiag", None),
        (solver, "solve_poisson", "solver.poisson", None),
        (solver, "_record_f", "diagnostics.record", None),
        (solver, "_record_u", "diagnostics.record", None),
        (solver, "_assemble_checks", "diagnostics.checks", None),
        (coefficient.Potentials, "psi", "coefficient.psi", _points),
        (coefficient.Potentials, "psi1", "coefficient.psi1", None),
        (coefficient.Potentials, "psi_prime", "coefficient.psi_prime", None),
        (coefficient.Potentials, "psi_inverse", "coefficient.psi_inverse", None),
        (quadrature, "integrate", "quadrature.integrate", None),
        (expr, "evaluate", "expr.evaluate", None),
        (regime, "classify", "regime.classify", None),
        (regime, "design_blowup", "regime.design", _candidates),
        (transform, "u_to_f", "transform.convert", None),
        (transform, "f_to_u", "transform.convert", None),
        (transform, "pam_profile", "transform.convert", None),
        (harness, "emit_outputs", "harness.emit", _bytes),
    ]
    targets += [(diagnostics, fn, f"diagnostics.{fn}", None) for fn in DIAGNOSTIC_FUNCTIONS]
    for owner, attr, name, measure in targets:
        tracer.install(owner, attr, name, measure, package="smolpois")


def per_layer(spans: dict, window: tuple[float, float]) -> dict:
    """Per-layer counts and self times of one traced operation.

    ``window`` is the (start, end) of the operation's ``wall_s``;
    ``covered_s`` is the self time of the spans inside it.
    """
    import numpy as np

    own = self_times(spans)
    names = list(spans["names"])

    def sel(name):
        return spans["name"] == names.index(name) if name in names else np.zeros(own.size, bool)

    def calls(name):
        return float(sel(name).sum())

    def self_s(name):
        return float(own[sel(name)].sum())

    def value(name):
        return float(spans["value"][sel(name)].sum())

    diag = np.isin(spans["name"], [i for i, n in enumerate(names) if n.startswith("diagnostics.")])
    steps = calls("solver.step")
    rejected = value("solver.step")
    t0, t1 = window
    inside = (spans["start"] >= t0) & (spans["end"] <= t1)
    return {
        "solver.steps_accepted": steps,
        "solver.trials_rejected": rejected,
        "solver.accept_ratio": steps / (steps + rejected) if steps else 0.0,
        "solver.step_s": self_s("solver.step"),
        "solver.tridiag_calls": calls("solver.tridiag"),
        "solver.tridiag_s": self_s("solver.tridiag"),
        "solver.poisson_calls": calls("solver.poisson"),
        "solver.poisson_s": self_s("solver.poisson"),
        "coefficient.psi_calls": calls("coefficient.psi"),
        "coefficient.psi_points": value("coefficient.psi"),
        "coefficient.psi_s": self_s("coefficient.psi"),
        "coefficient.psi1_s": self_s("coefficient.psi1"),
        "coefficient.psi_prime_s": self_s("coefficient.psi_prime"),
        "coefficient.psi_inverse_calls": calls("coefficient.psi_inverse"),
        "coefficient.psi_inverse_s": self_s("coefficient.psi_inverse"),
        "quadrature.integrate_calls": calls("quadrature.integrate"),
        "quadrature.integrate_s": self_s("quadrature.integrate"),
        "expr.evaluate_calls": calls("expr.evaluate"),
        "expr.evaluate_s": self_s("expr.evaluate"),
        "regime.classify_s": self_s("regime.classify"),
        "regime.design_s": self_s("regime.design"),
        "regime.design_candidates": value("regime.design"),
        "transform.convert_s": self_s("transform.convert"),
        "diagnostics.records": calls("diagnostics.record"),
        "diagnostics.record_s": float(own[diag & under(spans, ["diagnostics.record"])].sum()),
        "diagnostics.checks_s": float(own[diag & under(spans, ["diagnostics.checks"])].sum()),
        "harness.emit_s": self_s("harness.emit"),
        "harness.bytes_written": value("harness.emit"),
        "covered_s": float(own[inside].sum()),
    }
