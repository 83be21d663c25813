"""The standard-library tools under ``tools/``: the golden diff's series
report, its INI files and the bench file writer."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from smolpois.harness import load_config

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_diff = _load("golden_diff")
bench_file = _load("bench_file")


def _csv(rows) -> bytes:
    return ("\n".join(",".join(row) for row in [["t", "u_max", "note"], *rows]) + "\n").encode()


class TestGoldenDiffSeries:
    def test_largest_gaps_over_every_common_record(self):
        old = _csv([["0", "1.0", "a"], ["1", "2.0", "a"], ["2", "4.0", "a"]])
        # the largest gap is in the middle record, not the final one
        new = _csv([["0", "1.0", "a"], ["1", "2.5", "a"], ["2", "4.1", "b"]])
        lines = golden_diff.describe_series(old, new)
        assert lines == [
            "series.csv: records differ from record 1 (old t = 1, new t = 1)",
            "final record relative gaps: u_max 2.44e-02, note inf",
            "largest gaps over the 3 common records: u_max rel 2.00e-01 abs 5.00e-01, note rel inf abs inf",
        ]

    def test_identical_series_has_no_gaps(self):
        data = _csv([["0", "1.0", "a"]])
        assert golden_diff.describe_series(data, data)[-2:] == [
            "final record relative gaps: none",
            "largest gaps over the 1 common records: none",
        ]


class TestGoldenDiffLineCount:
    @staticmethod
    def _tree(root: Path, files: dict) -> Path:
        for name, text in files.items():
            path = root / "smolpois" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return root

    def test_reports_both_totals_and_the_difference_last(self, tmp_path, capsys):
        # only smolpois/*.py counts, and a last line without a break is not
        # a line, as for wc -l
        old = self._tree(tmp_path / "old", {"__init__.py": "", "a.py": "1\n2\n3\n", "b.py": "1\n2", "d.py": "1\n"})
        new = self._tree(
            tmp_path / "new",
            {
                "__init__.py": "",
                "a.py": "1\n",
                "d.py": "2\n",
                "e.py": "1\n2\n",
                "notes.txt": "1\n2\n",
                "sub/c.py": "1\n2\n",
            },
        )
        assert golden_diff.line_counts(old) == {"__init__.py": 0, "a.py": 3, "b.py": 1, "d.py": 1}
        assert golden_diff.line_counts(new) == {"__init__.py": 0, "a.py": 1, "d.py": 1, "e.py": 2}
        # the one regime command fails alike in both trees, which hold no
        # __main__, so the command is identical
        assert golden_diff.main([str(old), str(new), "--coeff", "r"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # each file whose count changed, in name order, then the totals;
        # files with the same count (__init__.py, d.py) are not listed
        assert lines[-5:] == [
            "design 'r': IDENTICAL",
            "smolpois/a.py lines: old 3, new 1, difference -2",
            "smolpois/b.py lines: old 1, new absent, difference -1",
            "smolpois/e.py lines: old absent, new 2, difference +2",
            "smolpois/*.py lines: old 5, new 4, difference -1",
        ]

    def test_run_past_the_limit_times_out(self, tmp_path, monkeypatch, capsys):
        # a child that loops is killed at the limit and reported, with
        # status 2, for a simulation and for a regime command alike
        for side in ("old", "new"):
            self._tree(tmp_path / side, {"__init__.py": "", "__main__.py": "import time\ntime.sleep(60)\n"})
        monkeypatch.setattr(golden_diff, "RUN_TIMEOUT_S", 0.5)
        assert golden_diff.main([str(tmp_path / "old"), str(tmp_path / "new"), "global-demo", "--coeff", "r"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [
            f"{label}: ERROR, timed out after 0.5 s on old and new"
            for label in ("global-demo", "classify 'r'", "design 'r'")
        ]


@pytest.mark.parametrize("path", sorted((TOOLS / "golden").glob("*.ini")), ids=lambda path: path.name)
def test_golden_config_loads(path):
    # a mistyped key or value fails here, not as an ERROR line of a golden diff
    assert load_config(path).coefficient_text


class TestGoldenDiffJson:
    def test_differing_values_with_their_gaps(self, tmp_path, capsys):
        # two fake trees whose classify prints JSON that differs by one ulp
        # in gamma, in a nested value, and in a value that is not a number
        reports = {
            "old": {"clause": "blowup-via-(1)", "gamma": 0.125, "checks": {"a": 1.0, "b": 2.0}, "notes": []},
            "new": {"clause": "blowup-via-(1)", "gamma": 0.12500000000000003, "checks": {"a": 1.0, "b": 2.5}, "notes": ["x"]},
        }
        for side, report in reports.items():
            for name, text in (("__init__.py", ""), ("__main__.py", f"print({json.dumps(json.dumps(report))})\n")):
                path = tmp_path / side / "smolpois" / name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
        assert golden_diff.main([str(tmp_path / "old"), str(tmp_path / "new"), "--coeff", "r"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:5] == [
            "classify 'r': DIFFERENT",
            "  stdout: differs in checks, gamma, notes",
            "  stdout checks.b: old 2.0, new 2.5, relative gap 2.00e-01",
            "  stdout gamma: old 0.125, new 0.12500000000000003, relative gap 2.22e-16",
            "  stdout notes: old [], new ['x'], relative gap inf",
        ]


class TestBenchFile:
    def test_records_every_workload_and_seed(self, tmp_path, monkeypatch):
        checkout = tmp_path / "checkout"
        checkout.mkdir()
        # a stand-in benchmark: echoes its arguments, fails on workload "b"
        # at seed 9137 without a result line
        (checkout / "bench.py").write_text(
            "import json, sys\n"
            "args = sys.argv[1:]\n"
            "if args[1] == 'b' and args[3] == '9137':\n"
            "    sys.exit('broken run')\n"
            "print('progress')\n"
            "print(json.dumps({'args': args, 'correct': True}))\n",
            encoding="utf-8",
        )
        spec = {"command": [sys.executable, "bench.py"], "run_seconds": 3, "workloads": [{"name": "a"}, {"name": "b"}]}
        (checkout / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert bench_file.main(["7", str(checkout)]) == 1
        document = json.loads((tmp_path / "BENCH_7.json").read_text(encoding="utf-8"))
        assert document["pr"] == 7
        [entry] = document["checkouts"]
        runs = entry["runs"]
        assert sorted(runs) == ["a", "b"] and all(sorted(runs[w]) == ["0", "9137"] for w in runs)
        assert runs["a"]["9137"]["args"] == ["--workload", "a", "--seed", "9137", "--trace", "0", "--seconds", "3.0"]
        assert runs["b"]["9137"] == {"error": "exit code 1: broken run"}
        assert entry["source_sha256"] is None  # the stand-in has no src/smolpois

    def test_source_digest_names_the_code(self, tmp_path):
        def checkout(name, files):
            for rel, text in files.items():
                path = tmp_path / name / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
            return tmp_path / name

        code = {"src/smolpois/a.py": "x = 1\n", "src/smolpois/b.py": "y = 2\n"}
        base = bench_file.source_digest(checkout("base", code))
        assert len(base) == 64
        # files outside src/smolpois/*.py do not count
        extra = {**code, "src/smolpois/__pycache__/a.pyc": "?", "tests/t.py": "", "src/smolpois/n.txt": ""}
        assert bench_file.source_digest(checkout("extra", extra)) == base
        # one changed byte, a renamed file, or bytes moved across files do
        assert bench_file.source_digest(checkout("edit", {**code, "src/smolpois/b.py": "y = 3\n"})) != base
        renamed = {"src/smolpois/a.py": "x = 1\n", "src/smolpois/c.py": "y = 2\n"}
        assert bench_file.source_digest(checkout("renamed", renamed)) != base
        moved = {"src/smolpois/a.py": "x = 1\ny", "src/smolpois/b.py": " = 2\n"}
        assert bench_file.source_digest(checkout("moved", moved)) != base
