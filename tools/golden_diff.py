"""Golden diff: run the same simulations and regime commands from two
smolpois source trees and byte-compare what they write.

Usage, from anywhere:

    python tools/golden_diff.py OLD_SRC NEW_SRC [PRESET ...]
        [--config INI ...] [--coeff TEXT ...] [--grid N] [--t-max T]

OLD_SRC and NEW_SRC are directories that hold the ``smolpois`` package
(a checkout's ``src/``).  Each run is ``python -m smolpois simulate`` with
``PYTHONPATH`` set to one tree, then the other, in a fresh temporary
directory with ``--out out``, so that the config echo in ``summary.json``
is the same on both sides.  Each such directory first gets a copy of
every ``tools/golden/*.csv``, so that a relative ``initial.file`` names
one of them; any other path inside an INI file should be absolute.  Runs
are the named presets and the INI files given with ``--config``.
When none of PRESET, ``--config`` and ``--coeff`` is given, it runs all
four presets, the runs of ``tools/golden/*.ini`` (u-form at n = 3200, an
f-form with a shifted closed-form psi and one with a quadrature-backed
psi, an integrable-tail u-form, the stall-heavy
f-form Newton path of near-flat ``global-demo`` data at n = n_y = 1600,
the step controller's hold, doubling and reset on ``global-demo``'s own
data at n = n_y = 1600,
the dt-underflow f-form path, the longest chain of dt-halving retries,
f- and u-form runs from ``initial.kind = samples``, a
two-formulation run from ``initial.kind = constant``, one whose f half
touches down while its u half stays bounded (the formulations disagree
and the gap check fails), and two f-form
divergent-tail runs whose lower barrier reads sup psi = int_0^1 a from a
power-sum primitive and by quadrature)
and ``--coeff`` for every line of ``tools/golden/coefficients.txt`` (the
``certify`` benchmark coefficients, parser-sensitive spellings, a parse
error, the error branches of recognition and evaluation, and designs that
fail), and
also ``python -m smolpois validate`` and the usage error of ``classify``
without ``--coeff``, so a bare ``python tools/golden_diff.py OLD/src src``
covers the regime layer, the validation battery (majorant check, psi
inverse, energy/norm slacks) and the CLI's usage errors too.  ``--grid``
and ``--t-max`` are passed through to every simulation.

The runs are independent, and up to ``os.cpu_count()`` of them run at a
time on worker threads, each child with its BLAS and OpenMP pools pinned
to one thread; the results print in the order the runs are listed here.

For each run it prints IDENTICAL when ``series.csv`` and ``summary.json``
match byte for byte, and otherwise the first record of ``series.csv``
that differs, the relative gap of every column of the final record that
differs, and, for every column that differs anywhere, its largest relative
and absolute gap over the records the two series have in common.  For a
JSON output that differs (``summary.json``, or the stdout of a regime
command) it prints the top-level keys that differ, then each differing
value inside them by its dotted key path, with the old and new value and
their relative gap.

Each ``--coeff TEXT`` adds two runs, ``python -m smolpois classify --coeff
TEXT`` and ``design --coeff TEXT`` (these take the numeric regime path
for a coefficient that is not a power product, which no preset does).
They, and the other commands, are IDENTICAL when stdout, the exit code
and the last line of stderr (the error message, if any; tracebacks name
the tree's paths) match.

The last line printed is the ``wc -l`` total of ``smolpois/*.py`` in
OLD_SRC and in NEW_SRC and their difference, new minus old.  Just before
it comes one line for each ``smolpois/*.py`` whose count differs, with
"absent" for a file that only one tree holds.

Every child run is killed after ``RUN_TIMEOUT_S`` seconds and reported as
``ERROR, timed out``, so that one run that loops cannot stall the diff.

The exit code is 0 when every run is identical, 1 when any differs and 2
when a simulation wrote no outputs or a run timed out.  Standard library
only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

PRESETS = ("blowup-demo", "crossval", "decr-demo", "global-demo")
GOLDEN_CONFIGS = Path(__file__).resolve().parent / "golden"
GOLDEN_COEFFICIENTS = GOLDEN_CONFIGS / "coefficients.txt"
OUTPUTS = ("series.csv", "summary.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# seconds one child run may take: each golden run takes under a second,
# and this leaves room for a larger --grid or --t-max
RUN_TIMEOUT_S = 300.0


def child_env(src: Path) -> dict:
    """The environment of a child run from ``src``: BLAS and OpenMP on one
    thread each, as the runs share the machine's cores."""
    return dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARS})


def run_child(src: Path, args: list[str], **kwargs):
    """The finished ``python -m smolpois ARGS`` from ``src``, or None when it
    was killed after ``RUN_TIMEOUT_S`` seconds."""
    try:
        return subprocess.run(
            [sys.executable, "-m", "smolpois", *args],
            env=child_env(src),
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
            **kwargs,
        )
    except subprocess.TimeoutExpired:
        return None


def simulate(src: Path, run_args: list[str], workdir: Path):
    """Run one simulation from ``src`` in ``workdir``, which first gets a
    copy of each ``tools/golden/*.csv``; the bytes of each output, or None
    where the run wrote none, and the run's stderr.  None when the run timed
    out."""
    workdir.mkdir(parents=True)
    for path in GOLDEN_CONFIGS.glob("*.csv"):
        shutil.copy(path, workdir)
    proc = run_child(src, ["simulate", *run_args, "--out", "out"], cwd=workdir)
    if proc is None:
        return None
    files = {}
    for name in OUTPUTS:
        path = workdir / "out" / name
        files[name] = path.read_bytes() if path.exists() else None
    files["stderr"] = proc.stderr
    return files


def regime_command(src: Path, run_args: list[str]):
    """stdout, exit code and last stderr line of one ``smolpois`` command;
    None when it timed out."""
    proc = run_child(src, run_args)
    if proc is None:
        return None
    lines = proc.stderr.strip().splitlines()
    return proc.stdout, proc.returncode, lines[-1] if lines else ""


def compare_command(label: str, old_src: Path, new_src: Path, run_args: list[str]) -> tuple[int, list[str]]:
    """The status of one command and the text to print for it."""
    old = regime_command(old_src, run_args)
    new = regime_command(new_src, run_args)
    if None in (old, new):
        return timed_out(label, old, new)
    if old == new:
        return 0, [f"{label}: IDENTICAL"]
    lines = describe_json("stdout", old[0], new[0]) if old[0] != new[0] else []
    lines += [f"{part}: old {a!r}, new {b!r}" for part, a, b in zip(("exit code", "error"), old[1:], new[1:]) if a != b]
    return 1, [f"{label}: DIFFERENT", "\n".join(f"  {line}" for line in lines)]


def golden_coefficients() -> list[str]:
    """The lines of ``coefficients.txt`` that are not empty or comments,
    each exactly as written apart from its line break."""
    lines = GOLDEN_COEFFICIENTS.read_text(encoding="utf-8").split("\n")
    return [line for line in lines if line and not line.startswith("#")]


def _rows(data: bytes) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader)
    return header, list(reader)


def _gaps(old: str, new: str) -> tuple[float, float]:
    """(relative, absolute) gap of two cells; inf for a cell that is not a
    number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return float("inf"), float("inf")
    if a == b:
        return 0.0, 0.0
    return abs(b - a) / max(abs(a), abs(b)), abs(b - a)


def describe_series(old: bytes, new: bytes) -> list[str]:
    """The first differing record, the final-record relative gaps and the
    largest gaps of each differing column over the common records."""
    header, rows_old = _rows(old)
    _, rows_new = _rows(new)
    lines = []
    first = next(
        (i for i, (a, b) in enumerate(zip(rows_old, rows_new)) if a != b),
        min(len(rows_old), len(rows_new)),
    )
    if first < min(len(rows_old), len(rows_new)):
        lines.append(f"series.csv: records differ from record {first} (old t = {rows_old[first][0]}, new t = {rows_new[first][0]})")
    if len(rows_old) != len(rows_new):
        lines.append(f"series.csv: {len(rows_old)} records old, {len(rows_new)} new")
    if rows_old and rows_new:
        gaps = [
            f"{name} {_gaps(a, b)[0]:.2e}"
            for name, a, b in zip(header, rows_old[-1], rows_new[-1])
            if a != b
        ]
        lines.append("final record relative gaps: " + (", ".join(gaps) if gaps else "none"))
        largest = {}  # column -> (relative, absolute)
        for row_old, row_new in zip(rows_old, rows_new):
            for name, a, b in zip(header, row_old, row_new):
                if a != b:
                    rel, ab = _gaps(a, b)
                    worst = largest.get(name, (0.0, 0.0))
                    largest[name] = (max(worst[0], rel), max(worst[1], ab))
        gaps = [f"{name} rel {largest[name][0]:.2e} abs {largest[name][1]:.2e}" for name in header if name in largest]
        common = min(len(rows_old), len(rows_new))
        lines.append(f"largest gaps over the {common} common records: " + (", ".join(gaps) if gaps else "none"))
    return lines


def _leaves(value, path: str) -> dict:
    """Every value inside nested JSON objects, by its dotted key path; a
    value that is not an object, a list included, is one leaf."""
    if not isinstance(value, dict):
        return {path: value}
    return {leaf: item for key, inner in value.items() for leaf, item in _leaves(inner, f"{path}.{key}").items()}


def describe_json(name: str, old, new) -> list[str]:
    """The top-level keys of a JSON object whose values differ, then, for
    each value inside them that differs, its dotted key path, old and new
    value and their relative gap (inf where one is not a number)."""
    try:
        a, b = json.loads(old), json.loads(new)
        keys = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    except (ValueError, AttributeError):
        return [f"{name} differs"]
    lines = [f"{name}: differs in {', '.join(keys)}"]
    for key in keys:
        leaves_old, leaves_new = _leaves(a.get(key), key), _leaves(b.get(key), key)
        for path in sorted(leaves_old.keys() | leaves_new.keys()):
            x, y = leaves_old.get(path), leaves_new.get(path)
            if x != y:
                lines.append(f"{name} {path}: old {x!r}, new {y!r}, relative gap {_gaps(str(x), str(y))[0]:.2e}")
    return lines


def timed_out(label: str, old, new) -> tuple[int, list[str]]:
    """The status and text of a run that timed out on one side or both,
    where that side's result is None."""
    sides = " and ".join(side for side, result in (("old", old), ("new", new)) if result is None)
    return 2, [f"{label}: ERROR, timed out after {RUN_TIMEOUT_S:g} s on {sides}"]


def compare(label: str, old_src: Path, new_src: Path, run_args: list[str], scratch: Path) -> tuple[int, list[str]]:
    """The status of one simulation and the text to print for it."""
    old = simulate(old_src, run_args, scratch / label / "old")
    new = simulate(new_src, run_args, scratch / label / "new")
    if None in (old, new):
        return timed_out(label, old, new)
    missing = [side for side, files in (("old", old), ("new", new)) if None in (files[n] for n in OUTPUTS)]
    if missing:
        text = [f"{label}: ERROR, no outputs from {' and '.join(missing)}"]
        for side in missing:
            tail = (old if side == "old" else new)["stderr"].strip().splitlines()[-3:]
            text.append("\n".join(f"  {side}: {line}" for line in tail))
        return 2, text
    if all(old[n] == new[n] for n in OUTPUTS):
        return 0, [f"{label}: IDENTICAL"]
    lines = []
    if old["series.csv"] != new["series.csv"]:
        lines += describe_series(old["series.csv"], new["series.csv"])
    if old["summary.json"] != new["summary.json"]:
        lines += describe_json("summary.json", old["summary.json"], new["summary.json"])
    return 1, [f"{label}: DIFFERENT", "\n".join(f"  {line}" for line in lines)]


def line_counts(src: Path) -> dict[str, int]:
    """The ``wc -l`` count of each ``smolpois/*.py`` under ``src``, by file
    name: the number of line breaks."""
    return {path.name: path.read_bytes().count(b"\n") for path in (src / "smolpois").glob("*.py")}


def line_count_report(old_src: Path, new_src: Path) -> list[str]:
    """One line per ``smolpois/*.py`` whose count differs, in name order,
    then the totals and their difference."""
    old, new = line_counts(old_src), line_counts(new_src)
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            a, b = old.get(name, "absent"), new.get(name, "absent")
            change = new.get(name, 0) - old.get(name, 0)
            lines.append(f"smolpois/{name} lines: old {a}, new {b}, difference {change:+d}")
    total_old, total_new = sum(old.values()), sum(new.values())
    return lines + [f"smolpois/*.py lines: old {total_old}, new {total_new}, difference {total_new - total_old:+d}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("presets", nargs="*", metavar="PRESET")
    parser.add_argument("--config", action="append", default=[], type=Path, help="INI config, repeatable")
    parser.add_argument("--coeff", action="append", default=[], help="coefficient for classify and design, repeatable")
    parser.add_argument("--grid", type=int, default=None, help="sets both n and n_y")
    parser.add_argument("--t-max", type=float, default=None, dest="t_max")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "smolpois" / "__init__.py").is_file():
            parser.error(f"{src} holds no smolpois package")
    overrides = []
    if args.grid is not None:
        overrides += ["--grid", str(args.grid)]
    if args.t_max is not None:
        overrides += ["--t-max", repr(args.t_max)]
    runs = [(name, ["--preset", name]) for name in args.presets]
    runs += [(path.stem, ["--config", str(path.resolve())]) for path in args.config]
    commands = []
    if not runs and not args.coeff:
        runs = [(name, ["--preset", name]) for name in PRESETS]
        runs += [(path.stem, ["--config", str(path)]) for path in sorted(GOLDEN_CONFIGS.glob("*.ini"))]
        args.coeff = golden_coefficients()
        commands += [("validate", ["validate"]), ("classify without --coeff", ["classify"])]
    old_src, new_src = args.old_src.resolve(), args.new_src.resolve()
    for text in args.coeff:
        for command in ("classify", "design"):
            commands.append((f"{command} {text!r}", [command, f"--coeff={text}"]))
    worst = 0
    # the pool is shut down, every run done, before the directory is removed
    with tempfile.TemporaryDirectory(prefix="golden_diff_") as tmp, ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        jobs = [
            partial(compare, label, old_src, new_src, run_args + overrides, Path(tmp) / str(i))
            for i, (label, run_args) in enumerate(runs)
        ]
        jobs += [partial(compare_command, label, old_src, new_src, command_args) for label, command_args in commands]
        for status, text in pool.map(lambda job: job(), jobs):
            print("\n".join(text))
            worst = max(worst, status)
    print("\n".join(line_count_report(old_src, new_src)))
    return worst


if __name__ == "__main__":
    sys.exit(main())
