"""The package's lazy exports: same names and objects as an eager import,
no scipy until a module that needs it is loaded, and then only scipy's
LAPACK extension."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smolpois
from smolpois import coefficient, expr, harness, regime, solver, transform

EXPORTS = [
    "Coefficient",
    "Potentials",
    "coefficient_from_text",
    "parse_coefficient",
    "evaluate",
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
OWNERS = [coefficient] * 3 + [expr] * 2 + [regime] * 10 + [transform] * 5 + [solver] * 5 + [harness] * 7

SRC = str(Path(smolpois.__file__).resolve().parents[1])


def fresh(code: str):
    """Run ``code`` in a new interpreter that imports this tree's smolpois;
    the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


LOADED_SCIPY = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"


class TestScipyDeferred:
    def test_bare_import_loads_no_scipy(self):
        assert fresh("import smolpois\n" + LOADED_SCIPY) == []

    def test_regime_layer_loads_no_scipy(self):
        code = "from smolpois import coefficient, regime, expr, quadrature, transform, diagnostics\n"
        assert fresh(code + LOADED_SCIPY) == []

    def test_solver_loads_only_the_lapack_extension(self):
        code = (
            "import json, sys\n"
            "from smolpois import harness, solver\n"
            "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(json.dumps([scipy, 'numpy.f2py' in sys.modules, 'numpy.testing' in sys.modules]))"
        )
        assert fresh(code) == [["scipy.linalg._flapack"], False, False]

    @pytest.mark.parametrize("first, then", [
        ("from smolpois import solver", "import scipy.linalg.lapack as lapack"),
        ("import scipy.linalg.lapack as lapack", "from smolpois import solver"),
    ])
    def test_routines_are_scipys(self, first, then):
        # one extension, initialised once, whichever module is imported first
        code = (
            f"import json, sys\n{first}\n{then}\n"
            "same = [solver.dgtsv is lapack.dgtsv, solver.dptsv is lapack.dptsv]\n"
            "same.append(solver._flapack is lapack._flapack is sys.modules['scipy.linalg._flapack'])\n"
            "print(json.dumps(same))"
        )
        assert fresh(code) == [True] * 3

    def test_missing_extension_names_the_directory(self, tmp_path):
        # a scipy package without the extension, found first on the path
        linalg = tmp_path / "scipy" / "linalg"
        linalg.mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), SRC]))
        proc = subprocess.run(
            [sys.executable, "-c", "import smolpois.solver"], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == (
            f"ImportError: scipy's LAPACK extension _flapack not found in {linalg}"
        )

    def test_missing_scipy_is_an_import_error(self):
        # find_spec reports a module that sys.modules maps to None as absent
        code = "import sys\nsys.modules['scipy'] = None\nimport smolpois.solver"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == "ImportError: smolpois.solver needs scipy, which is not installed"

    def test_submodule_attribute_after_bare_import(self):
        code = (
            "import json, smolpois\n"
            "report = smolpois.regime.classify(smolpois.coefficient_from_text('(1+r)^-2'))\n"
            "print(json.dumps(report.clause))"
        )
        assert fresh(code) == "blowup-via-(1)"


class TestExports:
    def test_all_unchanged(self):
        assert smolpois.__all__ == EXPORTS

    @pytest.mark.parametrize("name, owner", list(zip(EXPORTS, OWNERS)))
    def test_export_is_submodule_attribute(self, name, owner):
        assert getattr(smolpois, name) is getattr(owner, name)

    def test_submodules_resolve(self):
        for module in (coefficient, expr, regime, transform, solver, harness):
            assert getattr(smolpois, module.__name__.rsplit(".", 1)[1]) is module

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'not_an_export'"):
            smolpois.not_an_export

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from smolpois import *", namespace)
        assert {name for name in namespace if name != "__builtins__"} == set(EXPORTS)
        assert all(namespace[name] is getattr(smolpois, name) for name in EXPORTS)

    def test_run_summary_is_defined_in_solver(self):
        # harness imports solver, never the other way round
        assert harness.RunSummary is solver.RunSummary
        code = "import json, sys\nfrom smolpois import solver\nprint(json.dumps('smolpois.harness' in sys.modules))"
        assert fresh(code) is False

    def test_dir_lists_exports(self):
        listed = dir(smolpois)
        assert set(EXPORTS) <= set(listed)
        assert "regime" in listed and "solver" in listed
