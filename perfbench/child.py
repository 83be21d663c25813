"""One benchmark operation in a fresh interpreter.

Usage: python3 child.py <spec.json>

The spec names the workload, the operation's inputs, a work directory and
a mode: ``setup`` stops at the first unit of work, ``op`` runs the
operation to its outputs, ``trace`` does the same under the outside-in
tracer and also writes its spans.  The result goes to ``result.json`` in
the work directory.  Only the standard library is imported before the
set-up clock starts, so ``setup_s`` includes importing numpy and scipy.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import tracer as tr


class SetupDone(BaseException):
    """Ends a set-up-only run at its first unit of work.

    A BaseException, so that no handler in the program catches it.
    """


def mark_first_call(module, attr: str, marks: dict, stop: bool) -> None:
    """Stamp the first call of ``module.attr`` into ``marks['first']``.

    This is the only thing an untraced run installs.
    """
    original = getattr(module, attr)

    def first_call(*args, **kwargs):
        if "first" not in marks:
            marks["first"] = time.perf_counter()
            if stop:
                raise SetupDone
        return original(*args, **kwargs)

    setattr(module, attr, first_call)


def run_simulate(spec: dict, work: Path, t_setup0: float, tracer) -> dict:
    from smolpois import harness, solver, transform
    import numpy as np
    from workloads import samples_text

    overrides = dict(spec["inputs"]["overrides"])
    u_path = work / "u0.csv"
    samples = u_path
    config = harness.preset_config(spec["preset"])
    if overrides.get("formulation", "f") == "f":
        # an f-form run starts from the mass-Lagrangian profile of the density
        u0 = transform.FieldU.from_samples(np.loadtxt(u_path), config.mass)
        f0 = transform.u_to_f(u0, overrides.get("n_y", config.n_y))
        samples = work / "f0.csv"
        samples.write_text(samples_text(f0.values), encoding="utf-8")
    config = config.with_overrides(
        initial_kind="samples", samples_file=str(samples), out_dir=str(work / "out"), **overrides
    )
    marks: dict = {}
    for attr in ("step_f", "step_u"):
        mark_first_call(solver, attr, marks, stop=spec["mode"] == "setup")
    try:
        summary, series = harness.simulate(config)
    except SetupDone:
        return {"setup_s": marks["first"] - t_setup0}
    out_paths = harness.emit_outputs(summary, series, config.out_dir)
    t_end = time.perf_counter()
    if "first" not in marks:
        raise RuntimeError("the run took no step")
    last = series[-1]
    return {
        "setup_s": marks["first"] - t_setup0,
        "wall_s": t_end - marks["first"],
        "window": [marks["first"], t_end],
        "verdict": summary.verdict,
        "clause": summary.regime.clause,
        "checks": {name: bool(res.passed) for name, res in summary.checks.items()},
        "final": {"f_min": last.f_min, "l1": last.l1, "u_max": last.u_max, "t": last.t},
        "steps": summary.final_state.steps,
        "output_problems": check_outputs(harness, summary, series, out_paths),
    }


def check_outputs(harness, summary, series, out_paths) -> list[str]:
    """The written files hold what the run returned."""
    series_path, summary_path = (Path(p) for p in out_paths)
    problems = []
    lines = series_path.read_text(encoding="utf-8").splitlines()
    if lines[0] != harness.CSV_HEADER or len(lines) != len(series) + 1:
        problems.append(f"series.csv has {len(lines)} lines for {len(series)} records")
    written = json.loads(summary_path.read_text(encoding="utf-8"))
    if written["verdict"] != summary.verdict:
        problems.append(f"summary.json verdict {written['verdict']!r} != {summary.verdict!r}")
    return problems


def run_certify(spec: dict, work: Path, t_setup0: float, tracer) -> dict:
    from smolpois import coefficient, regime

    texts = spec["inputs"]["coefficients"]
    masses = spec["inputs"]["masses"]
    coeffs = [coefficient.coefficient_from_text(text) for text in texts]
    t_first = time.perf_counter()
    if spec["mode"] == "setup":
        return {"setup_s": t_first - t_setup0}
    entries = []
    for coeff, mass in zip(coeffs, masses):
        t_coeff = time.perf_counter()
        entry: dict = {}
        try:
            report = regime.classify(coeff)
            entry["clause"] = report.clause
            if report.clause.startswith("blowup"):
                with tracer.span("regime.design") if tracer else nullcontext():
                    theta, alpha = regime.default_candidates(coeff, None, None)
                    design = regime.design_blowup(coeff, mass, theta, alpha)
                entry.update(delta=design.delta, q=design.q, lambda_m_q0=design.lambda_m_q0)
        except Exception as err:  # one coefficient's failure is counted, the pass goes on
            entry["error"] = f"{type(err).__name__}: {err}"
        entry["wall_s"] = time.perf_counter() - t_coeff
        entries.append(entry)
    t_end = time.perf_counter()
    return {
        "setup_s": t_first - t_setup0,
        "wall_s": t_end - t_first,
        "window": [t_first, t_end],
        "entries": entries,
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    work = Path(spec["work"])
    sys.path.insert(0, spec["src"])
    t_setup0 = time.perf_counter()
    import smolpois

    if Path(smolpois.__file__).resolve().parent.parent != Path(spec["src"]).resolve():
        raise RuntimeError(f"imported smolpois from {smolpois.__file__}, not from {spec['src']}")
    tracer = None
    if spec["mode"] == "trace":
        import layers

        tracer = tr.Tracer()
        layers.install(tracer)
    runner = run_certify if spec["workload"] == "certify" else run_simulate
    try:
        try:
            result = runner(spec, work, t_setup0, tracer)
        except Exception as err:  # reported to the gate as a failed operation
            result = {"error": f"{type(err).__name__}: {err}"}
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(work / "spans.npz")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
