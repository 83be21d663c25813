"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _snapshot():
    import smolpois  # noqa: F401
    from smolpois.coefficient import Potentials

    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("smolpois")}
    return mods, dict(vars(Potentials))


def test_wrappers_restore_originals():
    from smolpois import coefficient, solver

    before_mods, before_cls = _snapshot()
    tracer = tr.Tracer()
    layers.install(tracer)
    assert solver.step_f is not before_mods["smolpois.solver"]["step_f"]
    assert coefficient.Potentials.psi is not before_cls["psi"]
    # names imported into other modules are wrapped where they are looked up
    assert solver.classify is not before_mods["smolpois.solver"]["classify"]
    assert coefficient.integrate is not before_mods["smolpois.coefficient"]["integrate"]
    tracer.uninstall()
    after_mods, after_cls = _snapshot()
    for name, attrs in before_mods.items():
        for attr, obj in attrs.items():
            assert after_mods[name][attr] is obj, f"{name}.{attr} not restored"
    for attr, obj in before_cls.items():
        assert after_cls[attr] is obj, f"Potentials.{attr} not restored"


def test_rejected_trials_hand_built(tmp_path):
    plan = [0, 3, 0, 5, 1]      # rejections before each accepted step

    def step(state, dt):
        return SimpleNamespace(dt=dt * 0.5 ** plan.pop(0))

    tracer = tr.Tracer()
    wrapped = tracer.wrap(step, "solver.step", layers._halvings)
    for dt in (1e-3, 5e-3, 2.5e-4, 1e-2, 0.1):
        wrapped(None, dt)
    tracer.dump(tmp_path / "spans.npz")
    metrics = layers.per_layer(tr.load(tmp_path / "spans.npz"), (0.0, 0.0))
    assert metrics["solver.steps_accepted"] == 5
    assert metrics["solver.trials_rejected"] == 9
    assert metrics["solver.accept_ratio"] == pytest.approx(5 / 14)
    assert layers.rejected_halvings(1.0, 0.125) == 3


def test_self_times_and_ancestry():
    spans = {
        "names": np.array(["a", "b", "c"]),
        "name": np.array([0, 1, 2, 1], dtype=np.int32),
        "parent": np.array([-1, 0, 1, -1], dtype=np.int32),
        "start": np.array([0.0, 1.0, 2.0, 10.0]),
        "end": np.array([10.0, 5.0, 3.0, 11.0]),
        "value": np.zeros(4),
    }
    assert tr.self_times(spans).tolist() == [6.0, 3.0, 1.0, 1.0]
    assert tr.under(spans, ["b"]).tolist() == [False, True, True, True]
    assert tr.under(spans, ["a"]).tolist() == [True, True, True, False]


def _good_simulate_result(workload: str) -> dict:
    ref = wl.REFERENCE[workload]
    return {
        "verdict": wl.EXPECTED_VERDICT,
        "clause": wl.EXPECTED_CLAUSE,
        "checks": {name: True for name in wl.REQUIRED_CHECKS_F},
        "final": dict(ref),
        "output_problems": [],
    }


def test_wrong_verdict_counts_as_failure():
    good = _good_simulate_result("global-fine")
    assert wl.judge_simulate("global-fine", wl.DEFAULT_SEED, good) == []
    bad = dict(good, verdict="blowup")
    assert wl.judge_simulate("global-fine", wl.DEFAULT_SEED, bad)
    attempted, failed, _, correct = run.judge("global-fine", wl.DEFAULT_SEED, [good, bad])
    assert (attempted, failed, correct) == (2, 1, False)
    off_reference = dict(good, final=dict(good["final"], f_min=0.9))
    assert wl.judge_simulate("global-fine", wl.DEFAULT_SEED, off_reference)
    assert wl.judge_simulate("global-fine", 1, off_reference) == []


def _certify_entries() -> list[dict]:
    entries = []
    for text, clause in wl.CERTIFY:
        entry = {"clause": clause}
        if text in wl.KNOWN_FAILURES:
            entry["error"] = f"{wl.KNOWN_FAILURES[text]}: coefficient not positive"
        elif clause.startswith("blowup"):
            entry.update(delta=wl.REFERENCE_DELTA[text], q=4.0, lambda_m_q0=-0.01)
        entries.append(entry)
    return entries


def test_known_failure_is_counted_but_correct():
    result = {"entries": _certify_entries()}
    attempted, failed, _, correct = run.judge("certify", wl.DEFAULT_SEED, [result])
    assert (attempted, failed, correct) == (8, 1, True)
    wrong = _certify_entries()
    wrong[0]["clause"] = "global"
    attempted, failed, _, correct = run.judge("certify", wl.DEFAULT_SEED, [{"entries": wrong}])
    assert (attempted, failed, correct) == (8, 2, False)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = json.dumps(wl.inputs(workload, 12345), sort_keys=True).encode()
    again = json.dumps(wl.inputs(workload, 12345), sort_keys=True).encode()
    other = json.dumps(wl.inputs(workload, 12346), sort_keys=True).encode()
    assert first == again
    assert first != other


def test_default_seed_is_the_nominal_data():
    for workload in wl.SIMULATE:
        n = wl.grid_n(workload)
        x = (np.arange(n) + 0.5) / n
        nominal = 1.0 + wl.AMPLITUDE[workload] * np.cos(np.pi * x)
        assert np.array_equal(wl.u_samples(workload, wl.DEFAULT_SEED), nominal)
    assert wl.certify_masses(wl.DEFAULT_SEED) == [1.0] * len(wl.CERTIFY)
    for seed in range(200):
        assert wl.u_samples("uform-fine", seed).min() > 0.0


def test_metrics_match_benchmark_json():
    spans = {k: np.zeros(0) for k in ("start", "end", "value")}
    spans.update(names=np.array([], dtype=str), name=np.zeros(0, np.int32), parent=np.zeros(0, np.int32))
    derived = set(layers.per_layer(spans, (0.0, 1.0))) - {"covered_s"}
    derived |= {"trace.coverage", "trace.overhead_s", "gate.fail_rate"}
    assert derived == set(run.PER_LAYER)
    assert set(run.END_TO_END) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert [w["name"] for w in run._SPEC["workloads"]] == list(wl.WORKLOADS)
