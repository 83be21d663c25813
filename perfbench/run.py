"""End-to-end and per-layer benchmark of smolpois.

Usage, from the root of a smolpois checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  The harness is closed-loop and
sequential: it runs one operation at a time, each in a fresh interpreter
(``child.py``) with BLAS and OpenMP pinned to one thread, for ``S``
seconds in all (one operation at least).  It first runs one discarded
set-up (it compiles bytecode and warms the file cache); every operation
then times its own set-up, so that ``setup_s`` is a median of as many
samples as there are operations.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones: ``setup_s`` and ``wall_s`` are the fastest of the
run's operations (see ``fastest``), ``peak_rss_mb`` their median.  With
``--trace 1`` it alternates untraced and traced operations and reports the
per-layer metrics of the traced ones; ``trace.overhead_s`` is the fastest
traced minus the fastest untraced ``wall_s``.  ``attempted`` and ``failed`` count operations (one simulate
run, or one coefficient of ``certify``); ``correct`` is false when any
failure is not one of the known failures recorded in ``workloads.py``.
A human-readable account goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 165.0       # every run ends well inside the 180 s a run may take

# metric names and units: BENCHMARK.json is the single list of both
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Run:
    """One benchmark run: its inputs, work directory and child processes."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.inputs = wl.inputs(workload, seed)
        self.work = root / ".perfbench_work" / str(os.getpid())
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
        # the discarded first set-up writes bytecode that later children load,
        # as an installed package's users do, whatever the caller's setting
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def child(self, mode: str) -> dict:
        """Run one child interpreter to completion and return its result."""
        self.count += 1
        work = self.work / f"{self.count:03d}-{mode}"
        work.mkdir(parents=True)
        spec = {
            "workload": self.workload,
            "mode": mode,
            "preset": wl.PRESET,
            "inputs": {k: v for k, v in self.inputs.items() if k != "samples"},
            "work": str(work),
            "src": str(self.root / "src"),
        }
        if "samples" in self.inputs:
            (work / "u0.csv").write_text(self.inputs["samples"], encoding="utf-8")
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(remaining, 1.0),
            )
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} child killed after the run's {RUN_LIMIT_S:g} s limit"}
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            return {"error": f"{mode} child exited {proc.returncode}: {tail[0]}"}
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if mode == "trace" and "error" not in result:
            spans = tr.load(work / "spans.npz")
            result["layers"] = layers.per_layer(spans, tuple(result["window"]))
        return result

    def operations(self, seconds: float, modes: tuple[str, ...]) -> dict[str, list]:
        """Cycle through ``modes`` (one cycle at least) while another cycle as
        long as the last one still ends within ``seconds`` of the run's start."""
        results = {mode: [] for mode in modes}
        while True:
            cycle_start = time.monotonic()
            for mode in modes:
                results[mode].append(self.child(mode))
            now = time.monotonic()
            cycle = now - cycle_start
            if now - self.started + cycle > min(seconds, RUN_LIMIT_S):
                return results


def judge(workload: str, seed: int, ops: list[dict]) -> tuple[int, int, list[str], bool]:
    """(attempted, failed, messages, correct) over a run's operations."""
    attempted = failed = 0
    messages = []
    correct = True
    for index, result in enumerate(ops):
        if workload == "certify":
            attempted += len(wl.CERTIFY)
            if "error" in result:
                failed += len(wl.CERTIFY)
                messages.append(f"op {index}: {result['error']}")
                correct = False
                continue
            for text, problem, known in wl.judge_certify(seed, result):
                failed += 1
                correct = correct and known
                messages.append(f"op {index}: {text}: {problem}{' (known)' if known else ''}")
        else:
            attempted += 1
            problems = wl.judge_simulate(workload, seed, result)
            if problems:
                failed += 1
                correct = False
                messages.extend(f"op {index}: {p}" for p in problems)
    return attempted, failed, messages, correct


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def fastest(results: list[dict], key: str = "wall_s") -> float:
    """The least ``key`` of a run's operations.

    All operations of a run do the same work on the same inputs.  The
    shared host slows them down in spells, by up to 80%, and never
    speeds them up, so the fastest operation is the one the host disturbed
    least; the median moves with how many spells the run happened to meet.
    A ``certify`` pass is eight operations, one per coefficient, and its
    ``wall_s`` is the sum of each coefficient's fastest time.
    """
    if key == "wall_s" and "entries" in results[0]:
        per_coefficient = zip(*([e["wall_s"] for e in r["entries"]] for r in results))
        return sum(min(times) for times in per_coefficient)
    return min(r[key] for r in results)


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(root, workload, seed)
    try:
        warm = run.child("setup")
        results = run.operations(seconds, ("op", "trace") if trace else ("op",))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    ops = [r for mode in results for r in results[mode]]
    attempted, failed, messages, correct = judge(workload, seed, ops)
    if "error" in warm:
        correct = False
        messages.append(f"setup: {warm['error']}")
    for message in messages:
        print(f"[{workload}] {message}", file=sys.stderr)
    good = [r for r in ops if "error" not in r]
    metrics = {}
    if good and "error" not in warm:
        if trace:
            metrics = per_layer_metrics(results, attempted, failed)
        else:
            setups = [r["setup_s"] for r in good]
            metrics = {
                "setup_s": fastest(good, "setup_s"),
                "wall_s": fastest(good),
                "peak_rss_mb": median_of(good, "peak_rss_mb"),
            }
            print(
                f"[{workload}] seed {seed}: {len(good)} ops, wall_s "
                + ", ".join(f"{r['wall_s']:.3f}" for r in good)
                + "; setup_s "
                + ", ".join(f"{s:.3f}" for s in setups),
                file=sys.stderr,
            )
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": bool(correct and len(metrics) == len(units)),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }


def per_layer_metrics(results: dict[str, list], attempted: int, failed: int) -> dict:
    traced = [r for r in results["trace"] if "error" not in r]
    untraced = [r for r in results["op"] if "error" not in r]
    if not (traced and untraced):
        return {}
    per_op = [r["layers"] for r in traced]
    metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    metrics["trace.coverage"] = statistics.median(
        op["covered_s"] / r["wall_s"] for op, r in zip(per_op, traced)
    )
    metrics["trace.overhead_s"] = fastest(traced) - fastest(untraced)
    metrics["gate.fail_rate"] = failed / attempted
    del metrics["covered_s"]
    for name in PER_LAYER:
        print(f"  {name:32s} {metrics[name]:.6g} {PER_LAYER[name]}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "smolpois" / "__init__.py").is_file():
        print(f"error: {root} is not a smolpois checkout (no src/smolpois)", file=sys.stderr)
        return 2
    result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
