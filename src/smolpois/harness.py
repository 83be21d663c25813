"""CLI, configuration, presets, and reproducible file outputs.

Config files are flat INI sections of ``key = value`` pairs; unknown keys
are errors, never ignored.  All outputs are byte-deterministic for a given
config: CSV numbers carry 17 significant digits and the wall-clock time is
reported on stderr only (the summary file stores null).

Subcommands: classify, design, simulate, validate; ``simulate()`` composes
the two-formulation cross-check from two ``solver.run`` calls.  Exit status
0 means the work completed (whatever the verdict or a failed check), 1 is a
usage/config error, a rejected coefficient, an initial profile that
cannot be built (an unreadable ``initial.file``, samples that are not
positive and finite), an arithmetic failure of classify or design (one
``error: <Type>: <message>`` line) or a failed ``validate`` check, 2 a
solver failure (inconclusive).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import diagnostics as diag
from .coefficient import CoefficientError, Potentials, PsiRangeError, TailDivergenceError, coefficient_from_text
from .expr import ParseError, evaluate, parse_coefficient
from .regime import (
    CertificateUnavailable,
    DesignFailure,
    RegimeError,
    build_majorant,
    classify,
    default_candidates,
    design_blowup,
    verify_majorant,
)
from .solver import RunSummary, SolverFailure, run
from .transform import FieldError, FieldF, TouchDownError, f_to_u

# series.csv columns: header name -> the DiagnosticsRecord attribute it holds
_SERIES_COLUMNS = {
    "t": "t",
    "dt": "dt",
    "f_min": "f_min",
    "f_max": "f_max",
    "u_max": "u_max",
    "mass_err": "mass_err",
    "L1": "l1",
    "m_q": "m_q",
    "sigma": "sigma_t",
    "slack_corollary": "slack_corollary",
    "slack_gex5": "slack_gex5",
    "slack_gex6": "slack_gex6",
    "slack_moment_ode": "slack_moment_ode",
    "slack_prandtl": "slack_prandtl",
}
CSV_HEADER = ",".join(_SERIES_COLUMNS)

# RunConfig fields left out of the config echo in summary.json
_NOT_ECHOED = ("out_dir",)


class ConfigError(ValueError):
    pass


# --- run configuration ---------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    coefficient_text: str
    theta: Optional[float] = None
    alpha: Optional[float] = None
    mass: float = 1.0
    formulation: str = "f"             # f | u | both
    n: int = 400
    n_y: int = 400
    t_max: float = 5.0
    dt_init: float = 1e-6
    dt_max: object = 0.01              # float or "auto" (0.25 * finest cell)
    output_interval: Optional[float] = None
    initial_kind: str = "constant"     # constant | cosine | pam | samples
    amplitude: float = 0.5
    pam_q: object = "auto"
    pam_delta: object = "auto"
    samples_file: Optional[str] = None
    out_dir: Optional[str] = None
    eps_touchdown: float = 1e-6
    preset: Optional[str] = None

    def validate(self) -> "RunConfig":
        self._validate_settings()
        try:
            parse_coefficient(self.coefficient_text)
        except ParseError as err:
            raise ConfigError(f"coefficient.expr: {err}") from None
        return self

    def _validate_settings(self) -> "RunConfig":
        """Every check but the parse of the coefficient."""
        if self.mass <= 0.0:
            raise ConfigError("mass must be positive")
        if self.formulation not in ("f", "u", "both"):
            raise ConfigError("formulation must be one of f, u, both")
        if self.n < 2 or self.n_y < 2:
            raise ConfigError("grid.n and grid.n_y must be at least 2")
        if self.t_max <= 0.0:
            raise ConfigError("t_max must be positive")
        if self.dt_init <= 0.0:
            raise ConfigError("dt_init must be positive")
        if self.dt_max != "auto" and float(self.dt_max) <= 0.0:
            raise ConfigError("dt_max must be positive or 'auto'")
        if self.output_interval is not None and self.output_interval <= 0.0:
            raise ConfigError("output_interval must be positive")
        if self.initial_kind not in ("constant", "cosine", "pam", "samples"):
            raise ConfigError("initial.kind must be constant, cosine, pam or samples")
        if self.initial_kind == "samples" and not self.samples_file:
            raise ConfigError("initial.kind = samples needs initial.file")
        if self.eps_touchdown <= 0.0:
            raise ConfigError("eps_touchdown must be positive")
        for name, value in (("initial.q", self.pam_q), ("initial.delta", self.pam_delta)):
            if value != "auto":
                try:
                    float(value)
                except (TypeError, ValueError):
                    raise ConfigError(f"{name} must be a number or 'auto'") from None
        if self.initial_kind == "pam" and (self.pam_q == "auto") != (self.pam_delta == "auto"):
            # the certificate is designed for its own (q, delta), not for a half-given one
            raise ConfigError("initial.kind = pam needs both initial.q and initial.delta, or neither")
        return self

    def resolved_dt_max(self) -> float:
        if self.dt_max == "auto":
            return 0.25 * min(1.0 / self.n, self.mass / self.n_y)
        return float(self.dt_max)

    def resolved_output_interval(self) -> float:
        if self.output_interval is not None:
            return self.output_interval
        return self.t_max / 100.0

    def with_overrides(self, **kwargs) -> "RunConfig":
        """This config with ``kwargs`` replaced, validated; the coefficient
        is parsed again only when its text changed."""
        changed = replace(self, **kwargs)
        if changed.coefficient_text == self.coefficient_text:
            return changed._validate_settings()
        return changed.validate()

    def to_dict(self) -> dict:
        """The config echo of summary.json, in field order."""
        return {
            ("coefficient" if f.name == "coefficient_text" else f.name): getattr(self, f.name)
            for f in fields(self)
            if f.name not in _NOT_ECHOED
        }


# --- config file loading ---------------------------------------------------------

# config key -> (RunConfig field, kind)
_CONFIG_KEYS = {
    "coefficient.expr": ("coefficient_text", str),
    "coefficient.theta": ("theta", float),
    "coefficient.alpha": ("alpha", float),
    "run.mass": ("mass", float),
    "run.formulation": ("formulation", str),
    "run.t_max": ("t_max", float),
    "run.dt_init": ("dt_init", float),
    "run.dt_max": ("dt_max", "float_or_auto"),
    "run.output_interval": ("output_interval", float),
    "run.out_dir": ("out_dir", str),
    "run.eps_touchdown": ("eps_touchdown", float),
    "grid.n": ("n", int),
    "grid.n_y": ("n_y", int),
    "initial.kind": ("initial_kind", str),
    "initial.amplitude": ("amplitude", float),
    "initial.q": ("pam_q", "float_or_auto"),
    "initial.delta": ("pam_delta", "float_or_auto"),
    "initial.file": ("samples_file", str),
}


def _coerce(key: str, raw: str):
    kind = _CONFIG_KEYS[key][1]
    raw = raw.strip()
    if kind is str:
        return raw
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None
    if kind == "float_or_auto":
        if raw.lower() == "auto":
            return "auto"
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number or 'auto', got {raw!r}") from None
    raise AssertionError(kind)


def load_config(path) -> RunConfig:
    """Load and validate a run configuration file."""
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path):
        raise ConfigError(f"config file not found: {path}")
    kwargs = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            full = f"{section}.{key}"
            if full not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {full!r}")
            kwargs[_CONFIG_KEYS[full][0]] = _coerce(full, raw)
    if "coefficient_text" not in kwargs:
        raise ConfigError("config needs coefficient.expr")
    return RunConfig(**kwargs).validate()


# --- presets ----------------------------------------------------------------------

_PRESETS = {
    # one per dichotomy clause plus the two-formulation consistency run
    "blowup-demo": dict(
        coefficient_text="(1+r)^-2",
        theta=0.5,
        alpha=2.0,
        mass=1.0,
        formulation="f",
        initial_kind="pam",
        t_max=50.0,
        dt_init=1e-8,
        dt_max=0.01,
        output_interval=0.25,
    ),
    "global-demo": dict(
        coefficient_text="(1+r)^-1",
        mass=1.0,
        formulation="f",
        initial_kind="cosine",
        amplitude=0.5,
        t_max=5.0,
        dt_init=1e-6,
        dt_max=0.005,
        output_interval=0.05,
    ),
    "decr-demo": dict(
        coefficient_text="(1+r)*r^-2.5",
        theta=0.5,
        alpha=1.5,
        mass=1.0,
        formulation="f",
        initial_kind="pam",
        t_max=5.0,
        dt_init=1e-8,
        dt_max=0.005,
        output_interval=0.1,
    ),
    "crossval": dict(
        coefficient_text="(1+r)^-1",
        mass=1.0,
        formulation="both",
        initial_kind="cosine",
        amplitude=0.5,
        t_max=0.1,
        dt_init=1e-6,
        dt_max="auto",
        output_interval=0.02,
    ),
}


def preset_config(name: str) -> RunConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(_PRESETS)}")
    return RunConfig(preset=name, **_PRESETS[name]).validate()


# --- deterministic output writing ---------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.17g}"


def _json_encode(obj, indent: int = 0) -> str:
    """Floats at 17 significant digits ("nan", "inf" and "-inf" as strings)
    and non-empty containers two spaces deeper per level; every other value
    as ``json.dumps`` writes it."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return f"{x:.17g}" if math.isfinite(x) else json.dumps(str(x))
    if isinstance(obj, dict) and obj:
        items = [
            f"{pad_in}{json.dumps(str(k))}: {_json_encode(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)) and obj:
        items = [f"{pad_in}{_json_encode(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return json.dumps(int(obj) if isinstance(obj, np.integer) else obj)


def dumps_deterministic(obj) -> str:
    return _json_encode(obj) + "\n"


def emit_outputs(summary: RunSummary, series, out_dir) -> list[Path]:
    """Write series.csv and summary.json; deterministic byte-for-byte.

    Wall-clock time is deliberately excluded from the files (stderr only)
    so identical configs produce identical bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [CSV_HEADER]
    for rec in series:
        rows.append(",".join(_fmt(getattr(rec, attr)) for attr in _SERIES_COLUMNS.values()))
    series_path = out / "series.csv"
    series_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    summary_path = out / "summary.json"
    summary_path.write_text(dumps_deterministic(summary.to_dict()), encoding="utf-8")
    return [series_path, summary_path]


# --- subcommands -----------------------------------------------------------------


def _write_json(payload, out) -> int:
    """Print payload as JSON, and write the same text to ``out`` when given."""
    text = dumps_deterministic(payload)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def _cmd_classify(args) -> int:
    coeff = coefficient_from_text(args.coeff)
    return _write_json(classify(coeff, args.theta, args.alpha).to_dict(), args.out)


def _cmd_design(args) -> int:
    coeff = coefficient_from_text(args.coeff)
    theta, alpha = default_candidates(coeff, args.theta, args.alpha)
    try:
        design = design_blowup(coeff, args.mass, theta, alpha, n_y=args.grid)
        payload = design.to_dict()
        payload["design_failed"] = False
    except DesignFailure as err:
        payload = {
            "design_failed": True,
            "reason": str(err),
            "search_trace": [list(item) for item in err.trace],
        }
    except CertificateUnavailable as err:
        # the coefficient can sit in the blowup regime through the gamma
        # condition alone, without any admissible decay pair to build the
        # explicit certificate from
        if classify(coeff, args.theta, args.alpha).clause != "blowup-via-(1)":
            raise
        payload = {
            "design_failed": True,
            "verdict": "blowup expected, certificate unavailable - verify by simulation",
            "reason": str(err),
        }
    return _write_json(payload, args.out)


def _resolve_simulate_config(args) -> RunConfig:
    if bool(args.preset) == bool(args.config):
        raise ConfigError("simulate needs exactly one of --preset or --config")
    config = preset_config(args.preset) if args.preset else load_config(args.config)
    overrides = {}
    if args.coeff:
        overrides["coefficient_text"] = args.coeff
    if args.formulation:
        overrides["formulation"] = args.formulation
    if args.t_max is not None:
        overrides["t_max"] = args.t_max
    if args.grid is not None:
        overrides["n"] = args.grid
        overrides["n_y"] = args.grid
    if args.out:
        overrides["out_dir"] = args.out
    if overrides:
        config = config.with_overrides(**overrides)
    return config


def simulate(config: RunConfig) -> tuple[RunSummary, list]:
    """Run one formulation, or for ``both`` the cross-check: f, then u, from
    the same data, compared by the relative L1 gap of their u at the end (no
    gap, and a failed check, when f touched down).  Summary and series are
    f's, with the gap check, a note if the verdicts differ and both wall times."""
    if config.formulation != "both":
        return run(config)
    coeff = coefficient_from_text(config.coefficient_text)
    summary_f, series_f = run(config.with_overrides(formulation="f"), coeff)
    summary_u, _ = run(config.with_overrides(formulation="u"), coeff)
    u_direct = summary_u.final_state.field.values
    try:
        u_from_f = f_to_u(summary_f.final_state.field, config.n).values
    except TouchDownError as err:
        gap = None
        gap_check = diag.CheckResult(passed=False, note=f"no L1 gap at t_max: f touched down ({err})")
    else:
        gap = float(np.sum(np.abs(u_from_f - u_direct))) / float(np.sum(np.abs(u_direct)))
        note = f"relative L1 gap {gap:.6g} between formulations at t_max"
        gap_check = diag.CheckResult(passed=gap <= 0.02, min_slack=0.02 - gap, note=note)
    notes = summary_f.notes
    if summary_u.verdict != summary_f.verdict:
        notes += (f"formulations disagree: f={summary_f.verdict}, u={summary_u.verdict}",)
    summary = replace(
        summary_f,
        checks={**summary_f.checks, "crossval_gap": gap_check},
        config_echo=config.to_dict(),
        wall_clock_s=summary_f.wall_clock_s + summary_u.wall_clock_s,
        notes=notes,
        crossval_gap=gap,
    )
    return summary, series_f


def _cmd_simulate(args) -> int:
    config = _resolve_simulate_config(args)
    summary, series = simulate(config)
    emit_outputs(summary, series, config.out_dir or "out")
    if summary.wall_clock_s is not None:
        sys.stderr.write(f"wall clock: {summary.wall_clock_s:.3f} s\n")
    sys.stdout.write(dumps_deterministic(summary.to_dict()))
    return 2 if summary.verdict == "inconclusive" else 0


def _cmd_validate(args) -> int:
    results = validation_suite()
    for name, passed, detail in results:
        sys.stdout.write(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}\n")
    payload = {
        "passed": all(p for _, p, _ in results),
        "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in results],
    }
    if args.out:
        Path(args.out).write_text(dumps_deterministic(payload), encoding="utf-8")
    return 0 if payload["passed"] else 1


def _parser_golden() -> tuple[bool, str]:
    ok = (
        abs(evaluate(parse_coefficient("(1+r)^-2"), 1.0) - 0.25) < 1e-15
        and abs(evaluate(parse_coefficient("2^3^2"), 1.0) - 512.0) < 1e-12
        and abs(evaluate(parse_coefficient("1/(1+r)"), 1.0) - 0.5) < 1e-15
    )
    return ok, "precedence and arithmetic"


def _regime_clauses() -> tuple[bool, str]:
    """Regime clauses of the canonical coefficients."""
    canon = {
        "(1+r)^-1": "global",
        "1": "global",
        "(1+r)^-2": "blowup-via-(1)",
        "(1+r)*r^-2.5": "blowup-via-(decr)",
    }
    got = {text: classify(coefficient_from_text(text)).clause for text in canon}
    return got == canon, str(got)


def _potentials_check(text: str, rng) -> tuple[bool, str]:
    """Derivative consistency and inverse round-trip of the potentials of text."""
    pot = Potentials(coefficient_from_text(text))
    rs = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 12))
    worst = 0.0
    for r in rs:
        hstep = 1e-6 * r
        fd = (pot.psi(r + hstep) - pot.psi(r - hstep)) / (2.0 * hstep)
        worst = max(worst, abs(fd - pot.psi_prime(r)) / abs(pot.psi_prime(r)))
    inv_worst = 0.0
    for r in rs:
        inv_worst = max(inv_worst, abs(pot.psi_inverse(pot.psi(r)) - r) / r)
    return worst < 1e-6 and inv_worst < 1e-8, f"dpsi rel err {worst:.2e}, inverse rel err {inv_worst:.2e}"


def _majorant_check() -> tuple[bool, str]:
    """Majorant domination for the integrable-tail example."""
    coeff = coefficient_from_text("(1+r)^-2")
    report = verify_majorant(coeff, build_majorant(coeff))
    return report.passed, (
        f"min domination slack {report.domination_min_slack:.3e}, "
        f"B(r)/r surrogate {report.sublinear_value:.3e}, "
        f"breakpoint gap {report.continuity_gap:.1e}"
    )


def _energy_norm_random(rng) -> tuple[bool, str]:
    """Energy/norm inequalities on random unit-integral profiles."""
    worst = math.inf
    for text in ("(1+r)^-1", "(1+r)^-2"):
        pot = Potentials(coefficient_from_text(text))
        for _ in range(20):
            f = FieldF.from_samples(_random_profile(rng, 1.0, 200), 1.0)
            worst = min(worst, *diag.energy_norm_slacks(pot, f, 1.0))
    return worst >= -1e-8, f"min slack {worst:.3e}"


def validation_suite() -> list[tuple[str, bool, str]]:
    """Invariant battery over the builtin coefficients; returns
    (name, passed, detail) triples, in order, from one shared rng.  A check
    that raises fails with the error as its detail."""
    rng = np.random.default_rng(20240817)
    checks = [("parser_golden", _parser_golden), ("regime_clauses", _regime_clauses)]
    for text in ("(1+r)^-1", "(1+r)^-2", "(1+r)*r^-2.5"):
        checks.append((f"potentials[{text}]", partial(_potentials_check, text, rng)))
    checks += [("majorant", _majorant_check), ("energy_norm_random", partial(_energy_norm_random, rng))]
    results = []
    for name, check in checks:
        try:
            passed, detail = check()
        except Exception as err:  # pragma: no cover - report, don't crash
            passed, detail = False, repr(err)
        results.append((name, passed, detail))
    return results


def _random_profile(rng, M: float, n: int) -> np.ndarray:
    y = (np.arange(n) + 0.5) * (M / n)
    vals = np.full(n, 1.0 / M)
    for k in range(1, 6):
        vals = vals + rng.uniform(-0.1, 0.1) / k * np.cos(k * np.pi * y / M)
    return np.maximum(vals, 0.05 / M)


# --- argument parsing --------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="smolpois", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="regime verdict for a coefficient")
    p_classify.add_argument("--coeff", required=True, help="coefficient expression in r")
    p_classify.add_argument("--theta", type=float, default=None)
    p_classify.add_argument("--alpha", type=float, default=None)
    p_classify.add_argument("--out", default=None, help="also write the JSON report here")

    p_design = sub.add_parser("design", help="explicit blowup certificate")
    p_design.add_argument("--coeff", required=True)
    p_design.add_argument("--mass", type=float, default=1.0)
    p_design.add_argument("--theta", type=float, default=None)
    p_design.add_argument("--alpha", type=float, default=None)
    p_design.add_argument("--grid", type=int, default=400, help="n_y for the discrete profile")
    p_design.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", help="advance a configuration to a verdict")
    p_sim.add_argument("--preset", default=None, help=f"one of {sorted(_PRESETS)}")
    p_sim.add_argument("--config", default=None, help="INI config file")
    p_sim.add_argument("--coeff", default=None)
    p_sim.add_argument("--formulation", default=None, choices=["f", "u", "both"])
    p_sim.add_argument("--t-max", type=float, default=None, dest="t_max")
    p_sim.add_argument("--grid", type=int, default=None, help="sets both n and n_y")
    p_sim.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="invariant battery on builtin coefficients")
    p_val.add_argument("--out", default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        sys.stderr.write(f"usage error: {err}\n")
        return 1
    handlers = {
        "classify": _cmd_classify,
        "design": _cmd_design,
        "simulate": _cmd_simulate,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (
        ConfigError, FieldError, ParseError, RegimeError, CoefficientError, TailDivergenceError, PsiRangeError
    ) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except ArithmeticError as err:  # an overflow, a quadrature that fails, ...
        if args.command not in ("classify", "design"):
            raise  # an arithmetic failure inside a run is a bug; its traceback stays visible
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return 1
    except (SolverFailure, DesignFailure) as err:
        sys.stderr.write(f"solver error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
