"""Numerical laboratory for the 1D quasilinear Smoluchowski-Poisson system.

Simulates the aggregation model in its original (u, v) form and in the
mass-Lagrangian f-form, classifies diffusion coefficients into the
global-existence / finite-time-blowup regimes, constructs explicit blowup
certificates, and checks the supporting inequalities along trajectories.
"""

from .coefficient import Coefficient, Potentials, coefficient_from_text
from .expr import parse_coefficient, evaluate, validate_positivity
from .regime import (
    BlowupDesign,
    ConcaveMajorant,
    RegimeReport,
    build_majorant,
    classify,
    compute_decr_constants,
    compute_gamma,
    design_blowup,
    select_delta,
    verify_majorant,
)
from .transform import FieldF, FieldU, f_to_u, pam_profile, u_to_f
from .solver import SolverState, run, solve_poisson, step_f, step_u
from .harness import (
    RunConfig,
    RunSummary,
    emit_outputs,
    load_config,
    main,
    preset_config,
    simulate,
)

__all__ = [
    "Coefficient",
    "Potentials",
    "coefficient_from_text",
    "parse_coefficient",
    "evaluate",
    "validate_positivity",
    "BlowupDesign",
    "ConcaveMajorant",
    "RegimeReport",
    "build_majorant",
    "classify",
    "compute_decr_constants",
    "compute_gamma",
    "design_blowup",
    "select_delta",
    "verify_majorant",
    "FieldF",
    "FieldU",
    "f_to_u",
    "pam_profile",
    "u_to_f",
    "SolverState",
    "run",
    "solve_poisson",
    "step_f",
    "step_u",
    "RunConfig",
    "RunSummary",
    "emit_outputs",
    "load_config",
    "main",
    "preset_config",
    "simulate",
]

__version__ = "0.1.0"
