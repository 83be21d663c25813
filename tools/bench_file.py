"""Bench file: run the repository's benchmark on one or more smolpois
checkouts and write every result to ``BENCH_<PR>.json``.

Usage, from the root of a smolpois checkout:

    python tools/bench_file.py PR [CHECKOUT ...]

Each CHECKOUT (default: the current directory) is a directory with
``BENCHMARK.json``, ``perfbench/`` and ``src/``.  For every workload that
the first checkout's ``BENCHMARK.json`` lists, at seeds 0 and 9137, its
benchmark command (``python3 perfbench/run.py``, unchanged) runs in each
checkout with ``--workload W --seed S --trace 0 --seconds T``, T being the
``run_seconds`` of that file.  The checkouts take turns for each workload
and seed, the first to go alternating, so that a slow spell of a shared
host falls on both.  Nothing is fetched: the runs are offline and
sequential.

``BENCH_<PR>.json`` is written to the current directory.  It records the
command, the host, and per checkout its commit (the output of ``git
rev-parse HEAD``, marked ``-dirty`` when tracked files differ from it, or
null outside a git repository), the sha256 of its ``src/smolpois/*.py``
(``source_digest``: it names the code measured even where the commit is
dirty or null) and the JSON object of the last line of each run's stdout,
keyed by workload and then by seed.  A run that ends without one is
recorded as ``{"error": ...}`` with its exit code and the last line of its
stderr; the exit code is then 1, and 0 otherwise.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

SEEDS = (0, 9137)


def commit_of(checkout: Path):
    """HEAD of the checkout's git repository, with ``-dirty`` when tracked
    files differ from it; None when the checkout is not in one."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def source_digest(checkout: Path):
    """sha256 over the checkout's ``src/smolpois/*.py`` in sorted order, each
    file as its name, its size and its bytes; None when there is none."""
    paths = sorted((checkout / "src" / "smolpois").glob("*.py"))
    digest = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        digest.update(f"{path.name}\n{len(data)}\n".encode())
        digest.update(data)
    return digest.hexdigest() if paths else None


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON of one benchmark run in ``checkout``."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--trace", "0", "--seconds", repr(seconds)]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"exit code {proc.returncode}: {tail[0]}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pr", type=int, help="number in the file name BENCH_<PR>.json")
    parser.add_argument("checkouts", nargs="*", type=Path, metavar="CHECKOUT")
    args = parser.parse_args(argv)
    checkouts = [path.resolve() for path in args.checkouts] or [Path.cwd()]
    for path in checkouts:
        if not (path / "BENCHMARK.json").is_file():
            parser.error(f"{path} holds no BENCHMARK.json")
    spec = json.loads((checkouts[0] / "BENCHMARK.json").read_text(encoding="utf-8"))
    command, seconds = spec["command"], float(spec["run_seconds"])
    workloads = [w["name"] for w in spec["workloads"]]
    entries = [{"commit": commit_of(path), "source_sha256": source_digest(path), "runs": {}} for path in checkouts]
    turn = 0
    for workload in workloads:
        for seed in SEEDS:
            order = list(range(len(checkouts)))
            if turn % 2:
                order.reverse()
            turn += 1
            for i in order:
                result = run_once(checkouts[i], command, workload, seed, seconds)
                entries[i]["runs"].setdefault(workload, {})[str(seed)] = result
                wall = result.get("metrics", {}).get("wall_s", {}).get("value")
                print(f"{workload} seed {seed} {checkouts[i]}: wall_s {wall}, correct {result.get('correct')}", file=sys.stderr)
    document = {
        "pr": args.pr,
        "command": [*command, "--workload", "W", "--seed", "S", "--trace", "0", "--seconds", repr(seconds)],
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "checkouts": entries,
    }
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0 if all("error" not in r for e in entries for w in e["runs"].values() for r in w.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
