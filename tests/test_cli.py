import csv
import dataclasses
import json
import math
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from steinlab import cli, er_model, jack_model

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def assert_one_line_error(result, prefix):
    code, out, err = result
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(prefix)


class TestErReport:
    def test_csv_row_contents(self, capsys, tmp_path):
        out = tmp_path / "er.csv"
        code, _, _ = run_cli(
            ["er-report", "--grid", "4,2;5,3", "--samples", "3000", "--seed", "9",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema=1"
        rows = list(csv.DictReader(lines[1:]))
        assert [r["n"] for r in rows] == ["4", "5"]
        first = rows[0]
        assert float(first["mu"]) == pytest.approx(0.8)
        assert float(first["sigma2"]) == pytest.approx(0.16)
        assert first["neg_corr_holds"] == "True"
        assert first["domain"] == "central"
        # exact enumeration column agrees with the estimate within the band
        assert abs(float(first["delta_hat"]) - float(first["exact_delta"])) <= float(
            first["dkw_band"]
        )

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ["er-report", "--grid", "4,2", "--samples", "500", "--seed", "3",
                "--format", "json"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_workers_do_not_change_output(self, capsys):
        base = ["er-report", "--grid", "4,2;4,3;5,3", "--samples", "400", "--seed", "5"]
        _, serial, _ = run_cli(base, capsys)
        _, parallel, _ = run_cli(base + ["--workers", "2"], capsys)
        assert serial == parallel

    @pytest.mark.parametrize(("workers", "started"), [(64, 3), (2, 2)])
    def test_pool_has_no_more_workers_than_rows(self, capsys, monkeypatch, workers, started):
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        base = ["er-report", "--grid", "4,2;4,3;5,3", "--samples", "400", "--seed", "5"]
        _, serial, _ = run_cli(base, capsys)
        code, parallel, _ = run_cli(base + ["--workers", str(workers)], capsys)
        assert code == 0 and parallel == serial
        assert pools == [started]

    def test_one_row_runs_serially(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a pool for one row")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        code, _, _ = run_cli(["er-report", "--grid", "4,2", "--samples", "200", "--workers", "8"], capsys)
        assert code == 0

    @pytest.mark.parametrize("where", ["missing-dir", "a-directory", "empty"])
    def test_bad_out_fails_before_sampling(self, capsys, monkeypatch, tmp_path, where):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(er_model, "sample_isolated_counts", no_sampling)
        out = {"missing-dir": tmp_path / "nonexistent" / "x.csv", "a-directory": tmp_path,
               "empty": ""}[where]
        code, stdout, err = run_cli(
            ["er-report", "--grid", "5,3", "--samples", "100", "--out", str(out)], capsys
        )
        assert code == 2
        assert stdout == ""
        assert err.count("\n") == 1 and err.startswith("config error: out: ")

    def test_empty_grid_is_config_error(self, capsys):
        code, _, err = run_cli(["er-report", "--grid", ";"], capsys)
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize(
        "flags",
        [["--workers", "0"], ["--workers", "-3"], ["--grid", "4,2;2,1"]],
        ids=["workers-0", "workers-negative", "bad-grid-point"],
    )
    def test_bad_value_is_config_error(self, capsys, flags):
        code, out, err = run_cli(["er-report", "--grid", "4,2", "--samples", "200"] + flags, capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error: ")

    def test_repeated_flag_is_config_error(self, capsys):
        argv = ["er-report", "--grid", "4,2", "--samples", "100", "--samples", "200"]
        assert_one_line_error(run_cli(argv, capsys), "config error: 'samples' is set more than once\n")

    def test_missing_grid(self, capsys):
        code, _, _ = run_cli(["er-report"], capsys)
        assert code == 2

    def test_small_sample_count_rejected(self, capsys):
        code, _, _ = run_cli(["er-report", "--grid", "4,2", "--samples", "10"], capsys)
        assert code == 2

    def test_degenerate_variance_row_has_no_estimates(self, capsys):
        code, out, _ = run_cli(
            ["er-report", "--grid", "4,1", "--samples", "500", "--format", "json"], capsys
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert float(row["sigma2"]) == 0.0
        assert row["delta_hat"] == "" and row["rate"] == "0.0"


class TestJackReport:
    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            ["jack-report", "--grid", "2,1;6,1", "--samples", "2000", "--seed", "2",
             "--epsilon", "0.4", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        rows = payload["rows"]
        assert [r["n"] for r in rows] == ["2", "6"]
        for row in rows:
            assert abs(float(row["delta_hat"]) - float(row["exact_delta"])) <= float(
                row["dkw_band"]
            )
        assert float(rows[0]["rate"]) == pytest.approx(2.0)

    def test_determinism(self, capsys):
        args = ["jack-report", "--grid", "5,2", "--samples", "300", "--seed", "8"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_degenerate_large_alpha_flagged(self, capsys):
        code, out, _ = run_cli(
            ["jack-report", "--grid", "8,512", "--samples", "300", "--seed", "4",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        # alpha = n^3: single-column probability near one, outside the window
        assert float(row["single_column_prob"]) >= math.exp(-1.0 / 8)
        assert row["in_region"] == "False"

    def test_zero_confidence_is_config_error(self, capsys):
        code, out, err = run_cli(
            ["jack-report", "--grid", "16,64", "--samples", "200", "--confidence", "0"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "config error" in err and "confidence" in err

    def test_bad_epsilon_fails_before_sampling(self, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(jack_model, "sample_jack_batch", no_sampling)
        code, out, err = run_cli(
            ["jack-report", "--grid", "16,64", "--samples", "200", "--epsilon", "2"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "config error" in err and "epsilon" in err

    def test_one_box_point_fails_before_sampling(self, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(jack_model, "sample_jack_batch", no_sampling)
        alpha_error = "alpha must be a nonzero finite float"
        for grid, message in [
            ("16,64;1,2", "point '1,2': n must be >= 2"),
            ("16,64;2,1e400", f"point '2,1e400': {alpha_error}"),  # float(alpha) overflows
            ("2,1e-400", f"point '2,1e-400': {alpha_error}"),  # float(alpha) is 0
        ]:
            code, out, err = run_cli(["jack-report", "--grid", grid, "--samples", "200"], capsys)
            assert code == 2
            assert out == ""
            assert err == f"config error: grid: {message}\n"


class TestVerify:
    def test_clean_suite_passes(self, capsys, tmp_path):
        out = tmp_path / "verify.json"
        code, _, _ = run_cli(["verify", "--out", str(out)], capsys)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["failed"] == []
        assert all(payload["results"].values())

    def test_golden_output(self, capsys):
        families = [
            "jack_normalization", "kerov_consistency", "conditional_t_moments",
            "zero_bias_identity", "jack_moments", "stein_identity_er", "er_moments_enumeration",
            "hypergeometric_grid", "exp_remainder_grid", "neg_correlation_grid",
            "moment_sandwich_grid", "recursion_closed_form", "efron_stein",
            "kolmogorov_quantile_grid",
        ]
        assert list(cli._verify_families()) == families
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        payload = {"schema": 1, "results": dict.fromkeys(families, True), "failed": []}
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run_cli(["verify"], capsys)
        code2, out2, _ = run_cli(["verify"], capsys)
        assert (code1, out1) == (code2, out2)

    def test_perturbed_kerov_weights_fail(self, capsys, monkeypatch):
        exact_law = jack_model.kerov_transition_probs

        def shifted_law(parts, alpha):
            dist = exact_law(parts, alpha)
            probs = (dist.probs[0] + Fraction(1, 10**9),) + dist.probs[1:]
            return dataclasses.replace(dist, probs=probs)

        monkeypatch.setattr(jack_model, "kerov_transition_probs", shifted_law)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert "kerov_consistency" in payload["failed"]

    def test_bad_out_fails_before_suite(self, capsys, monkeypatch, tmp_path):
        def no_suite(*args, **kwargs):
            raise AssertionError("ran the suite before the config was checked")

        monkeypatch.setattr(jack_model, "jack_probability", no_suite)
        result = run_cli(["verify", "--out", str(tmp_path / "nonexistent" / "v.json")], capsys)
        assert_one_line_error(result, "config error: out: ")

    def test_perturbed_weights_fail_after_clean_run(self, capsys, monkeypatch):
        # exact laws that verify checks against each other are never memoised
        # process-wide: a law cached by the clean run would hide the perturbation
        code, _, _ = run_cli(["verify"], capsys)
        assert code == 0
        self.test_perturbed_kerov_weights_fail(capsys, monkeypatch)


class TestRecursionCommand:
    def test_values_printed(self, capsys):
        code, out, _ = run_cli(["recursion", "--q", "0.5", "--c", "1", "--n", "4"], capsys)
        assert code == 0
        assert "a_1 = 1.0" in out
        assert "a_4 = 1.875" in out
        assert "limit c/(1-q) = 2.0" in out

    def test_chain_solve(self, capsys):
        code, out, _ = run_cli(
            ["recursion", "--q", "0.5", "--c", "1", "--n", "2", "--chain", "20"], capsys
        )
        assert code == 0
        assert "sup_ok = True" in out

    @pytest.mark.parametrize(
        "flags, key",
        [(["--n", "-2"], "n"), (["--n", "0"], "n"), (["--chain", "0"], "chain"),
         (["--chain", "-1"], "chain")],
        ids=["n-negative", "n-0", "chain-0", "chain-negative"],
    )
    def test_non_positive_length_is_config_error(self, capsys, flags, key):
        code, out, err = run_cli(["recursion", "--q", "0.5", "--c", "1"] + flags, capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"config error: {key}: ")

    @pytest.mark.parametrize(
        "flags, prefix",
        [(["--q", "abc", "--c", "1"], "config error: q: "),
         (["--q", "0.5"], "config error: recursion requires --c\n"),
         (["--q", "0.5", "--c", "1", "--chain", "3", "--chain", "4"],
          "config error: 'chain' is set more than once\n"),
         (["--q", "0.5", "--c", "inf", "--n", "2"], "error: c must lie in (0, inf)\n"),
         (["--q", "0.5", "--c", "nan", "--n", "2"], "error: c must lie in (0, inf)\n"),
         (["--q", "0.5", "--c", "1e308", "--n", "3"], "error: c/(1-q) must be finite\n"),
         (["--q", "0.1", "--c", "1", "--chain", "450"], "error: chain rates "),
         (["--q", "0.1", "--c", "1", "--chain", "1000"], "error: chain rates "),
         (["--q", "0.9", "--c", "1", "--chain", "3000"], "error: chain rates ")],
        ids=["q-not-a-number", "c-missing", "chain-repeated", "c-inf", "c-nan",
             "limit-overflow", "chain-rate-infinite", "chain-rate-underflow",
             "chain-rate-overflow"],
    )
    def test_bad_input_is_one_line_error(self, capsys, flags, prefix):
        assert_one_line_error(run_cli(["recursion"] + flags, capsys), prefix)


class TestHypCommand:
    def test_query(self, capsys):
        code, out, _ = run_cli(
            ["hyp", "--params", "3,1,2", "--k", "1", "--moment", "1", "--t", "1.0"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pmf"] == "2/3"
        assert payload["moment"] == "2/3"
        assert payload["zero_prob"] == "1/3"
        assert payload["tail_check"]["holds"]

    def test_bad_params(self, capsys):
        code, _, _ = run_cli(["hyp", "--params", "3,1"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "flags, prefix",
        [(["--params", "3,x,1"], "config error: params: "),
         (["--params", "3,1,2", "--k", "x"], "config error: k: "),
         (["--params", "20,5,6", "--t", "inf"], "error: t must lie in (0, inf)\n"),
         (["--params", "20,5,6", "--t", "1e400"], "error: t must lie in (0, inf)\n")],
        ids=["params-not-integers", "k-not-an-integer", "t-inf", "t-overflow"],
    )
    def test_bad_input_is_one_line_error(self, capsys, flags, prefix):
        assert_one_line_error(run_cli(["hyp"] + flags, capsys), prefix)


class TestConfigFile:
    def test_file_defaults_and_flag_override(self, capsys, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("samples=500\nseed=11\ngrid=4,2\nformat=json\n# comment\n")
        _, out_file, _ = run_cli(["er-report", "--config", str(conf)], capsys)
        payload = json.loads(out_file)
        assert len(payload["rows"]) == 1

        # flag overrides the file's grid
        _, out_flag, _ = run_cli(
            ["er-report", "--config", str(conf), "--grid", "4,2;4,3"], capsys
        )
        assert len(json.loads(out_flag)["rows"]) == 2

    def test_malformed_config(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("samples 500\n")
        code, _, err = run_cli(["er-report", "--config", str(conf), "--grid", "4,2"], capsys)
        assert code == 2
        assert "config error" in err

    def test_confidence_out_of_range_in_file(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("confidence=1.5\n")
        code, out, err = run_cli(["er-report", "--config", str(conf), "--grid", "4,2"], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "config error" in err and "confidence" in err

    @pytest.mark.parametrize(
        "line, key",
        [("format=xml", "format"), ("sampels=5", "sampels"), ("epsilon=0.3", "epsilon"),
         ("samples=50\nsamples=500", "samples")],
    )
    def test_bad_file_line_is_config_error(self, capsys, tmp_path, line, key):
        conf = tmp_path / "bad.conf"
        conf.write_text(line + "\n")
        code, out, err = run_cli(["er-report", "--config", str(conf), "--grid", "4,2"], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "config error" in err and key in err

    def test_thresholds_file_matches_flag(self, capsys, tmp_path):
        conf = tmp_path / "th.conf"
        conf.write_text("thresholds=5,1,1\n")
        base = ["er-report", "--grid", "10,5;20,30", "--samples", "200", "--seed", "1"]
        code_file, out_file, _ = run_cli(base + ["--config", str(conf)], capsys)
        code_flag, out_flag, _ = run_cli(base + ["--thresholds", "5,1,1"], capsys)
        assert code_file == code_flag == 0
        assert out_file == out_flag

    def test_thresholds_flag(self, capsys):
        code, out, _ = run_cli(
            ["er-report", "--grid", "10,5", "--samples", "200", "--seed", "1",
             "--thresholds", "5,1,1", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["in_region"] == "True"

    def test_negative_c_bar_is_config_error(self, capsys):
        code, out, err = run_cli(
            ["er-report", "--grid", "100,100", "--samples", "200", "--thresholds", "1,1,-1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error: thresholds")


class TestOptionTable:
    @pytest.mark.parametrize(
        "argv",
        [
            ["er-report", "--grid", "4,2", "--epsilon", "0.4"],
            ["jack-report", "--grid", "16,64", "--thresholds", "1,2,3"],
            ["verify", "--seed", "99"],
            ["verify", "--config", "exp.conf"],
        ],
        ids=["er-epsilon", "jack-thresholds", "verify-seed", "verify-config"],
    )
    def test_option_the_command_does_not_take_is_rejected(self, capsys, argv):
        assert_one_line_error(run_cli(argv, capsys), "config error: unrecognized arguments")

    @pytest.mark.parametrize(
        "argv, prefix",
        [(["er-report", "--grid", "10,10", "--bogus", "1"],
          "config error: unrecognized arguments: --bogus 1\n"),
         (["er-report", "--grid"], "config error: argument --grid: expected one argument\n"),
         (["bogus"], "config error: argument command: invalid choice: 'bogus'"),
         ([], "config error: the following arguments are required: command\n"),
         (["er-report", "--grid", "-3,1"],
          "config error: argument --grid: expected one argument\n"),
         (["hyp", "--params", "-1,0,0"],
          "config error: argument --params: expected one argument\n")],
        ids=["unknown-flag", "flag-without-value", "unknown-command", "no-command",
             "grid-starting-with-dash", "params-starting-with-dash"],
    )
    def test_parser_rejection_is_one_line_error(self, capsys, argv, prefix):
        assert_one_line_error(run_cli(argv, capsys), prefix)

    @pytest.mark.parametrize("argv", [["--help"], ["er-report", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage: steinlab" in capsys.readouterr().out

    def test_readme_report_lines_parse(self):
        lines = [
            line.strip()
            for line in README.read_text().splitlines()
            if re.match(r"\s*steinlab [a-z-]+ ", line)
        ]
        assert {shlex.split(line)[1] for line in lines} == set(cli.COMMANDS)
        for line in lines:
            args = cli._build_parser().parse_args(shlex.split(line)[1:])
            cli._assemble_config(args)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "steinlab.cli", "recursion", "--q", "0.5", "--c", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "a_1 = 1.0" in proc.stdout
