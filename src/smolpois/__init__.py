"""Numerical laboratory for the 1D quasilinear Smoluchowski-Poisson system.

Simulates the aggregation model in its original (u, v) form and in the
mass-Lagrangian f-form, classifies diffusion coefficients into the
global-existence / finite-time-blowup regimes, constructs explicit blowup
certificates, and checks the supporting inequalities along trajectories.

Submodules load on first use (PEP 562), so the regime layer runs without
importing scipy, which only ``solver`` and ``harness`` need.
"""

from importlib import import_module

# submodule -> the public names it exports, in the order of ``__all__``
_EXPORTS = {
    "coefficient": ("Coefficient", "Potentials", "coefficient_from_text"),
    "expr": ("parse_coefficient", "evaluate", "validate_positivity"),
    "regime": (
        "BlowupDesign", "ConcaveMajorant", "RegimeReport", "build_majorant", "classify",
        "compute_decr_constants", "compute_gamma", "design_blowup", "select_delta", "verify_majorant",
    ),
    "transform": ("FieldF", "FieldU", "f_to_u", "pam_profile", "u_to_f"),
    "solver": ("SolverState", "run", "solve_poisson", "step_f", "step_u"),
    "harness": ("RunConfig", "RunSummary", "emit_outputs", "load_config", "main", "preset_config", "simulate"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    elif name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
