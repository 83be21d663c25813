import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from smolpois import expr, harness
from smolpois.diagnostics import DiagnosticsRecord
from smolpois.harness import (
    CSV_HEADER,
    ConfigError,
    RunConfig,
    dumps_deterministic,
    emit_outputs,
    load_config,
    main,
    preset_config,
    simulate,
    validation_suite,
)


def write_config(tmp_path, body: str) -> Path:
    path = tmp_path / "run.ini"
    path.write_text(body, encoding="utf-8")
    return path


BASIC = """
[coefficient]
expr = (1+r)^-1

[run]
mass = 1.0
formulation = f
t_max = 0.2

[initial]
kind = cosine
amplitude = 0.5
"""


class TestLoadConfig:
    def test_defaults_applied(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASIC))
        assert cfg.n == 400
        assert cfg.n_y == 400
        assert cfg.dt_init == 1e-6
        assert cfg.coefficient_text == "(1+r)^-1"

    def test_unknown_key_rejected(self, tmp_path):
        bad = BASIC + "\n[run]\nwibble = 1\n"
        # configparser merges duplicate sections, so rewrite cleanly
        bad = BASIC.replace("t_max = 0.2", "t_max = 0.2\nwibble = 1")
        with pytest.raises(ConfigError, match="wibble"):
            load_config(write_config(tmp_path, bad))
        for key in ("sweep.key", "output.save_fields"):  # removed keys
            section, name = key.split(".")
            with pytest.raises(ConfigError, match=re.escape(repr(key))):
                load_config(write_config(tmp_path, BASIC + f"\n[{section}]\n{name} = 1\n"))
        assert main(["sweep", "--config", str(write_config(tmp_path, BASIC))]) == 1

    def test_negative_mass_names_key(self, tmp_path):
        bad = BASIC.replace("mass = 1.0", "mass = -2")
        with pytest.raises(ConfigError, match="mass"):
            load_config(write_config(tmp_path, bad))

    def test_type_mismatch(self, tmp_path):
        bad = BASIC.replace("t_max = 0.2", "t_max = soon")
        with pytest.raises(ConfigError, match="t_max"):
            load_config(write_config(tmp_path, bad))

    def test_auto_delta_dispatch(self, tmp_path):
        body = """
[coefficient]
expr = (1+r)^-2

[initial]
kind = pam
q = auto
delta = auto
"""
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.pam_q == "auto"
        assert cfg.pam_delta == "auto"

    def test_missing_coefficient(self, tmp_path):
        with pytest.raises(ConfigError, match="coefficient.expr"):
            load_config(write_config(tmp_path, "[run]\nmass = 1.0\n"))

    def test_bad_expression_rejected(self, tmp_path):
        bad = BASIC.replace("(1+r)^-1", "(1+r")
        with pytest.raises(ConfigError, match="coefficient.expr"):
            load_config(write_config(tmp_path, bad))


PAM = """
[coefficient]
expr = (1+r)^-2

[initial]
kind = pam
"""


class TestPamPair:
    @pytest.mark.parametrize("given", ["q = 5", "delta = 0.001"])
    def test_half_set_pair_rejected(self, tmp_path, given):
        # the certificate would be designed for a profile other than the one simulated
        with pytest.raises(ConfigError, match=r"both initial\.q and initial\.delta"):
            load_config(write_config(tmp_path, PAM + given + "\n"))

    @pytest.mark.parametrize("given", [{"pam_q": 5.0}, {"pam_delta": 0.001}])
    def test_half_set_override_rejected(self, given):
        with pytest.raises(ConfigError, match=r"both initial\.q and initial\.delta"):
            preset_config("blowup-demo").with_overrides(**given)

    def test_whole_or_no_pair_accepted(self, tmp_path):
        assert load_config(write_config(tmp_path, PAM + "q = 5\ndelta = 0.001\n")).pam_q == 5.0
        assert load_config(write_config(tmp_path, PAM)).pam_delta == "auto"


class TestParseOnce:
    def test_crossval_parses_the_coefficient_twice_at_most(self, tmp_path, monkeypatch, capsys):
        # once when the preset is validated and once for both formulations
        calls = []
        real = expr.parse_coefficient

        def counted(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(expr, "parse_coefficient", counted)
        monkeypatch.setattr(harness, "parse_coefficient", counted)
        assert main(["simulate", "--preset", "crossval", "--out", str(tmp_path)]) == 0
        assert 1 <= len(calls) <= 2

    def test_changed_text_is_parsed(self):
        cfg = preset_config("global-demo")
        with pytest.raises(ConfigError, match="coefficient.expr"):
            cfg.with_overrides(coefficient_text="1 + x")
        assert cfg.with_overrides(coefficient_text="(1+r)^-2").coefficient_text == "(1+r)^-2"


GOLDEN = Path(__file__).resolve().parents[1] / "tools" / "golden"


class TestCrossCheck:
    def test_disagreeing_formulations_merge_into_f_summary(self, monkeypatch):
        # f touches down near t = 5.3e-6 while u stays bounded to t_max
        runs = {}
        real_run = harness.run

        def recorded(config, coeff=None):
            runs[config.formulation] = real_run(config, coeff)
            return runs[config.formulation]

        monkeypatch.setattr(harness, "run", recorded)
        config = load_config(GOLDEN / "crossval-touchdown.ini")
        summary, series = simulate(config)
        (summary_f, series_f), (summary_u, _) = runs["f"], runs["u"]
        assert (summary.verdict, summary.blowup_time) == (summary_f.verdict, summary_f.blowup_time)
        assert (summary_f.verdict, summary_u.verdict) == ("blowup", "global-so-far")
        assert summary.notes == summary_f.notes + ("formulations disagree: f=blowup, u=global-so-far",)
        gap = summary.crossval_gap
        assert gap == pytest.approx(1.6, abs=1e-3)
        check = summary.checks["crossval_gap"]
        assert not check.passed
        assert check.min_slack == 0.02 - gap
        assert check.note == f"relative L1 gap {gap:.6g} between formulations at t_max"
        assert summary.config_echo == config.to_dict()
        assert summary.config_echo["formulation"] == "both"
        assert summary.wall_clock_s == summary_f.wall_clock_s + summary_u.wall_clock_s
        assert series is series_f

    def test_f_touch_down_fails_the_gap_check(self, tmp_path, capsys):
        # at eps_touchdown = 1e-300 the f run ends in dt underflow at
        # min f = 4.9e-15, where u = 1/f cannot be rebuilt for the gap
        body = (GOLDEN / "f-underflow.ini").read_text(encoding="utf-8")
        cfg_path = write_config(tmp_path, body.replace("formulation = f", "formulation = both"))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "series.csv").exists()
        payload = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        assert payload == json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "blowup"
        assert payload["crossval_gap"] is None
        check = payload["checks"]["crossval_gap"]
        assert check["passed"] is False and check["min_slack"] is None
        assert check["note"].startswith("no L1 gap at t_max: f touched down (min f = 4.911e-15")


class TestPresets:
    def test_known_presets(self):
        for name in ("blowup-demo", "global-demo", "decr-demo", "crossval"):
            cfg = preset_config(name)
            assert cfg.preset == name

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("nope")

    def test_auto_dt_max(self):
        cfg = preset_config("crossval")
        assert cfg.resolved_dt_max() == pytest.approx(0.25 / 400)
        assert cfg.with_overrides(n=800, n_y=800).resolved_dt_max() == pytest.approx(0.25 / 800)


class TestEmit:
    def _mini_series(self):
        return [
            DiagnosticsRecord(t=0.0, dt=1e-6, f_min=1.0, f_max=1.0, u_max=1.0,
                              mass_err=0.0, l1=0.5, sigma_t=2.0, slack_gex5=0.1,
                              slack_gex6=0.2),
            DiagnosticsRecord(t=0.5, dt=1e-3, f_min=0.9, f_max=1.1, u_max=1.11,
                              mass_err=1e-15, l1=0.4, sigma_t=2.5, slack_gex5=0.1,
                              slack_gex6=0.2),
        ]

    def _mini_summary(self, cfg):
        from smolpois.regime import RegimeReport
        from smolpois.harness import RunSummary

        return RunSummary(
            verdict="global-so-far",
            blowup_time=None,
            final_time=0.5,
            regime=RegimeReport(clause="global", tail_integrable=False, gamma=math.inf),
            design=None,
            checks={},
            config_echo=cfg.to_dict(),
            wall_clock_s=1.23,
        )

    def test_csv_schema(self, tmp_path):
        cfg = preset_config("global-demo")
        emit_outputs(self._mini_summary(cfg), self._mini_series(), tmp_path)
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert len(cells) == len(CSV_HEADER.split(","))
        # absent quantities stay empty
        header = CSV_HEADER.split(",")
        assert cells[header.index("m_q")] == ""
        assert cells[header.index("slack_corollary")] == ""

    def test_seventeen_digits(self, tmp_path):
        cfg = preset_config("global-demo")
        series = self._mini_series()
        series[0].l1 = 1.0 / 3.0
        emit_outputs(self._mini_summary(cfg), series, tmp_path)
        row = (tmp_path / "series.csv").read_text().splitlines()[1]
        assert "0.33333333333333331" in row

    def test_wall_clock_excluded_from_file(self, tmp_path):
        cfg = preset_config("global-demo")
        emit_outputs(self._mini_summary(cfg), self._mini_series(), tmp_path)
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["wall_clock_s"] is None

    def test_infinities_encoded(self, tmp_path):
        cfg = preset_config("global-demo")
        emit_outputs(self._mini_summary(cfg), self._mini_series(), tmp_path)
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["regime"]["gamma"] == "inf"

    def test_byte_determinism(self, tmp_path):
        cfg = RunConfig(
            coefficient_text="(1+r)^-2",
            formulation="f",
            initial_kind="constant",
            t_max=0.2,
            n=64,
            n_y=64,
            dt_max=0.01,
            output_interval=0.05,
        ).validate()
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            summary, series = simulate(cfg)
            emit_outputs(summary, series, out)
        assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_stationary_l1_column_constant(self, tmp_path):
        cfg = RunConfig(
            coefficient_text="(1+r)^-2",
            formulation="f",
            initial_kind="constant",
            t_max=1.0,
            n=64,
            n_y=64,
            dt_max=0.01,
            output_interval=0.1,
        ).validate()
        summary, series = simulate(cfg)
        emit_outputs(summary, series, tmp_path)
        lines = (tmp_path / "series.csv").read_text().splitlines()[1:]
        idx = CSV_HEADER.split(",").index("L1")
        l1s = [float(line.split(",")[idx]) for line in lines]
        assert max(l1s) - min(l1s) <= 1e-10


class TestTables:
    """The config echo and the series.csv header are derived from tables;
    their keys and their order are part of the output format."""

    def test_config_echo_keys(self):
        keys = list(RunConfig(coefficient_text="(1+r)^-1").to_dict())
        assert keys == [
            "coefficient", "theta", "alpha", "mass", "formulation", "n", "n_y",
            "t_max", "dt_init", "dt_max", "output_interval", "initial_kind",
            "amplitude", "pam_q", "pam_delta", "samples_file", "eps_touchdown",
            "preset",
        ]

    def test_csv_header(self):
        assert CSV_HEADER == (
            "t,dt,f_min,f_max,u_max,mass_err,L1,m_q,sigma,"
            "slack_corollary,slack_gex5,slack_gex6,slack_moment_ode,slack_prandtl"
        )


class TestJsonWriter:
    def test_sorted_and_stable(self):
        text = dumps_deterministic({"b": 1, "a": [1.5, None, True]})
        assert json.loads(text) == {"b": 1, "a": [1.5, None, True]}

    def test_nan_and_inf_strings(self):
        payload = json.loads(dumps_deterministic({"x": math.inf, "y": -math.inf, "z": math.nan}))
        assert payload == {"x": "inf", "y": "-inf", "z": "nan"}

    def test_scalars_and_empty_containers_as_json_writes_them(self):
        payload = {"i": np.int64(3), "f": np.float64(0.1), "s": "\u00e9", "b": False, "n": None, "e": {}, "l": [], "t": ()}
        assert dumps_deterministic(payload) == (
            '{\n  "i": 3,\n  "f": 0.10000000000000001,\n  "s": "\\u00e9",\n  "b": false,\n'
            '  "n": null,\n  "e": {},\n  "l": [],\n  "t": []\n}\n'
        )


class TestCli:
    def test_classify_global(self, capsys):
        code = main(["classify", "--coeff", "(1+r)^-1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clause"] == "global"

    def test_classify_blowup_via_gamma(self, capsys):
        code = main(["classify", "--coeff", "(1+r)^-2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clause"] == "blowup-via-(1)"
        assert payload["gamma"] == pytest.approx(0.5, abs=1e-6)

    def test_design_cli(self, capsys):
        code = main(["design", "--coeff", "(1+r)^-2", "--mass", "1.0", "--theta", "0.5",
                     "--alpha", "2.0", "--grid", "200"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design_failed"] is False
        assert payload["q"] == 4.0
        assert payload["lambda_m_q0"] < 0.0

    def test_usage_error_exit_one(self, capsys):
        assert main(["classify"]) == 1
        assert main(["simulate"]) == 1  # needs --preset or --config

    def test_bad_coefficient_exit_one(self):
        assert main(["classify", "--coeff", "(1+r"]) == 1

    @pytest.mark.parametrize("command, text, message", [
        ("design", "(1+r)^-1", "blowup design needs a integrable at infinity"),
        ("design", "1/(2+r)", "blowup design needs a integrable at infinity"),
        ("design", "exp(-r)", "coefficient not positive at r=745.5835819317275"),
        ("classify", "2*-r", "coefficient '2*-r' is not positive"),
        ("classify", "1e400", "coefficient '1e400' has a constant factor that is not finite"),
        ("classify", "1e400*(1+r)^-2",
         "coefficient '1e400*(1+r)^-2' has a constant factor that is not finite"),
        # other arithmetic failures are named by their type: r^300 (1+r)^-400
        # is nan inside a panel of its tail-integral quadrature, and
        # psi~(2/M)^2 in mu_M overflows a float
        ("classify", "r^300*(1+r)^-400",
         "QuadratureError: integrand not finite inside panel (estimate nan, error estimate inf)"),
        ("design", "r^300*(1+r)^-400",
         "QuadratureError: integrand not finite inside panel (estimate nan, error estimate inf)"),
        ("design", "1e300*(1+r)^-3", "OverflowError: (34, 'Numerical result out of range')"),
    ])
    def test_coefficient_error_is_one_line(self, capsys, command, text, message):
        assert main([command, "--coeff", text]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_solver_arithmetic_error_is_not_a_usage_error(self, monkeypatch):
        # only classify and design report an ArithmeticError as one line;
        # one raised inside simulate is a bug and propagates
        from smolpois.transform import TouchDownError

        def touch_down(args):
            raise TouchDownError("f reached 1")

        monkeypatch.setattr(harness, "_cmd_simulate", touch_down)
        with pytest.raises(TouchDownError):
            main(["simulate", "--preset", "crossval"])

    def test_psi_range_error_is_one_line(self, tmp_path, capsys):
        # at M = 100 the global-bound chain asks for psi^-1 of a value far
        # below psi(1e-280); the run ends in one error line, not a traceback
        body = BASIC.replace("mass = 1.0", "mass = 100").replace("t_max = 0.2", "t_max = 0.01")
        cfg_path = write_config(tmp_path, body + "\n[grid]\nn = 100\nn_y = 100\n")
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: failed to bracket h=-4000\d\.\d+ from below\n", captured.err)

    def test_simulate_writes_outputs(self, tmp_path, capsys):
        code = main([
            "simulate", "--preset", "global-demo", "--t-max", "0.1",
            "--grid", "64", "--out", str(tmp_path / "demo"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["verdict"] == "global-so-far"
        assert (tmp_path / "demo" / "series.csv").exists()
        assert (tmp_path / "demo" / "summary.json").exists()

    def test_validate_exits_one_on_a_failure(self, monkeypatch, capsys):
        checks = [("first", True, "fine"), ("second", False, "broken")]
        monkeypatch.setattr(harness, "validation_suite", lambda: checks)
        assert main(["validate"]) == 1
        assert "[FAIL] second: broken" in capsys.readouterr().out

    def test_validate_runs(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out


SAMPLES = BASIC.replace("kind = cosine\namplitude = 0.5", "kind = samples\nfile = samples.csv")


class TestErrorContract:
    """Bad input ends in one stderr line and an exit code, not a traceback."""

    @pytest.mark.parametrize("argv, files, code, message", [
        pytest.param(["simulate", "--config", "run.ini"], {"run.ini": SAMPLES}, 1,
                     "error: cannot read initial.file 'samples.csv': No such file or directory",
                     id="missing-samples-file"),
        pytest.param(["simulate", "--config", "run.ini"], {"run.ini": SAMPLES, "samples.csv": "1.0\n"}, 1,
                     "error: f needs a 1D array of at least 2 samples", id="one-sample"),
        pytest.param(["simulate", "--config", "run.ini"], {"run.ini": SAMPLES, "samples.csv": "1\n0\n3\n"}, 1,
                     "error: f samples must be positive and finite", id="zero-sample"),
        pytest.param(["simulate", "--config", "run.ini"], {"run.ini": SAMPLES, "samples.csv": "1\nnan\n3\n"}, 1,
                     "error: f samples must be positive and finite", id="nan-sample"),
        pytest.param(["simulate", "--config", "run.ini", "--formulation", "u"],
                     {"run.ini": SAMPLES, "samples.csv": "1\ninf\n3\n"}, 1,
                     "error: u samples must be positive and finite", id="inf-sample-u-form"),
        pytest.param(["design", "--coeff", "(1+r)^-2", "--grid", "1"], {}, 1,
                     "error: f needs a 1D array of at least 2 samples", id="design-grid-1"),
        pytest.param(["simulate", "--config", "run.ini"], {"run.ini": BASIC + "[grid]\nn_z = 10\n"}, 1,
                     "error: unknown config key 'grid.n_z'", id="unknown-key"),
        pytest.param(["simulate", "--preset", "global-demo", "--grid", "1"], {}, 1,
                     "error: grid.n and grid.n_y must be at least 2", id="simulate-grid-1"),
        pytest.param(["simulate", "--config", "run.ini"],
                     {"run.ini": BASIC.replace("amplitude = 0.5", "amplitude = 1.0")}, 2,
                     "solver error: cosine amplitude 1.0 must lie in [0, M)", id="amplitude-at-mass"),
        pytest.param(["simulate", "--preset", "blowup-demo", "--formulation", "u"], {}, 2,
                     "solver error: initial data does not define a u profile", id="pam-without-u-profile"),
        pytest.param(["simulate", "--preset", "global-demo", "--t-max", "nan"], {}, 1,
                     "error: t_max must be positive and finite", id="t-max-nan"),
        pytest.param(["simulate", "--preset", "global-demo", "--t-max", "inf"], {}, 1,
                     "error: t_max must be positive and finite", id="t-max-inf"),
        pytest.param(["simulate", "--config", "run.ini"], {"run.ini": BASIC.replace("mass = 1.0", "mass = nan")}, 1,
                     "error: mass must be positive and finite", id="config-mass-nan"),
        pytest.param(["design", "--coeff", "(1+r)^-2", "--mass", "nan"], {}, 1,
                     "error: mass must be positive and finite", id="design-mass-nan"),
        pytest.param(["design", "--coeff", "(1+r)^-2", "--mass", "inf"], {}, 1,
                     "error: mass must be positive and finite", id="design-mass-inf"),
        pytest.param(["classify", "--coeff", "(1+r)*r^-2.5", "--theta", "-1"], {}, 1,
                     "error: theta must be positive", id="classify-theta-minus-one"),
        pytest.param(["classify", "--coeff", "(1+r)*r^-2.5", "--theta", "nan"], {}, 1,
                     "error: theta must be positive", id="classify-theta-nan"),
        pytest.param(["classify", "--coeff", "(1+r)*r^-2.5", "--theta", "inf"], {}, 1,
                     "error: theta must be finite", id="classify-theta-inf"),
        pytest.param(["design", "--coeff", "(1+r)^-2", "--theta", "inf"], {}, 1,
                     "error: theta must be finite", id="design-theta-inf"),
        pytest.param(["simulate", "--config", "run.ini"], {"run.ini": PAM + "q = 4\ndelta = 1e-200\n"}, 1,
                     "error: delta=1e-200 is too small: delta^2 underflows to 0", id="pam-delta-square-underflows"),
        pytest.param(["simulate", "--config", "run.ini"], {"run.ini": PAM + "q = 4\ndelta = 1e-155\n"}, 1,
                     "error: delta=1e-155 is too small: the slope 2 (1 - M delta^q) / delta^2 overflows",
                     id="pam-slope-overflows"),
    ])
    def test_one_line_and_exit_code(self, tmp_path, monkeypatch, capsys, argv, files, code, message):
        monkeypatch.chdir(tmp_path)
        for name, body in files.items():
            (tmp_path / name).write_text(body, encoding="utf-8")
        out = ["--out", "out"] if argv[0] == "simulate" else []
        assert main([*argv, *out]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"


class TestSamplesInitialData:
    def test_f_profile_from_file(self, tmp_path):
        n = 64
        y = (np.arange(n) + 0.5) / n
        vals = 1.0 + 0.2 * np.cos(np.pi * y)
        sample_path = tmp_path / "profile.csv"
        sample_path.write_text("\n".join(str(v) for v in vals) + "\n", encoding="utf-8")
        cfg = RunConfig(
            coefficient_text="(1+r)^-2",
            formulation="f",
            initial_kind="samples",
            samples_file=str(sample_path),
            t_max=0.05,
            n=n,
            n_y=n,
            dt_max=0.01,
            output_interval=0.01,
        ).validate()
        summary, series = simulate(cfg)
        assert summary.verdict == "global-so-far"
        assert series[0].f_max == pytest.approx(1.2, rel=1e-2)

    def test_field_csv_format_accepted(self, tmp_path):
        # rows of index, cell centre and value under a header line
        y = (np.arange(32) + 0.5) / 32
        rows = [f"{i},{c:.17g},1" for i, c in enumerate(y)]
        sample_path = tmp_path / "field.csv"
        sample_path.write_text("\n".join(["index,coordinate,value", *rows]) + "\n", encoding="utf-8")
        cfg = RunConfig(
            coefficient_text="(1+r)^-2",
            formulation="f",
            initial_kind="samples",
            samples_file=str(sample_path),
            t_max=0.02,
            n=32,
            n_y=32,
            dt_max=0.01,
        ).validate()
        summary, _ = simulate(cfg)
        assert summary.verdict == "global-so-far"


class TestValidationSuite:
    def test_all_pass(self):
        results = validation_suite()
        assert results
        for name, passed, detail in results:
            assert passed, f"{name}: {detail}"
