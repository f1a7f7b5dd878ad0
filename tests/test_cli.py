"""Command-line interface: argument handling, file outputs, config files."""

import json
import math

import pytest

from sparclab.cli import load_config, main
from sparclab.geometry import capacity


def run_cli(args):
    return main(args)


class TestSimulateCommand:
    def test_writes_csv_and_report(self, tmp_path, capsys):
        csv_path = tmp_path / "trials.csv"
        report_path = tmp_path / "report.json"
        rc = run_cli(["simulate", "--snr", "15", "--L", "3", "--B", "8",
                      "--rate-fraction", "0.6", "--trials", "12",
                      "--seed", "4", "--ell0-list", "1,2",
                      "--out", str(csv_path), "--report", str(report_path)])
        assert rc == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "trial,seed,mistakes,section_error_rate,block_ok"
        assert len(lines) == 13
        payload = json.loads(report_path.read_text())
        assert payload["config"]["trials"] == 12
        assert len(payload["tails"]) == 2
        assert "nats" in payload["units_note"]
        assert payload["power"]["analytic_mean"] == 15.0

    def test_byte_identical_across_worker_counts(self, tmp_path):
        outs = []
        for workers in ("1", "8"):
            path = tmp_path / f"w{workers}.csv"
            run_cli(["simulate", "--snr", "15", "--L", "3", "--B", "8",
                     "--rate-fraction", "0.6", "--trials", "30",
                     "--seed", "99", "--workers", workers,
                     "--out", str(path)])
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_stdout_default(self, capsys):
        run_cli(["simulate", "--snr", "15", "--L", "2", "--B", "4",
                 "--rate-fraction", "0.6", "--trials", "3", "--seed", "1"])
        captured = capsys.readouterr()
        assert captured.out.startswith("trial,seed,")
        assert "ell0=1" in captured.err

    def test_section_size_rate_flag(self, capsys):
        # --a 2 at L=3 gives B = next power of two >= 9 = 16
        run_cli(["simulate", "--snr", "15", "--L", "3", "--a", "2",
                 "--rate-fraction", "0.5", "--trials", "2", "--seed", "0"])
        assert capsys.readouterr().out.count("\n") == 3

    def test_rate_units(self, capsys):
        # 1 bit/use at snr 15 equals rate fraction 0.5: both must agree
        run_cli(["simulate", "--snr", "15", "--L", "2", "--B", "4",
                 "--rate", "1.0", "--trials", "2", "--seed", "8"])
        bits_out = capsys.readouterr().out
        run_cli(["simulate", "--snr", "15", "--L", "2", "--B", "4",
                 "--rate-fraction", "0.5", "--trials", "2", "--seed", "8"])
        frac_out = capsys.readouterr().out
        assert bits_out == frac_out

    def test_noiseless_flag(self, capsys):
        run_cli(["simulate", "--snr", "15", "--L", "2", "--B", "4",
                 "--rate-fraction", "0.6", "--trials", "5", "--seed", "2",
                 "--noiseless"])
        out = capsys.readouterr().out
        for line in out.strip().split("\n")[1:]:
            assert line.split(",")[2] == "0"


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("snr = 15\nL = 2\nB = 4\nrate_fraction = 0.6\n"
                       "trials = 4  # comment\nseed = 3\n")
        run_cli(["simulate", "--config", str(cfg)])
        out1 = capsys.readouterr().out
        assert out1.count("\n") == 5  # header + 4 trials
        run_cli(["simulate", "--config", str(cfg), "--trials", "2"])
        out2 = capsys.readouterr().out
        assert out2.count("\n") == 3  # flag overrides file

    @pytest.mark.parametrize("flag", [["--snr=20"], ["--snr", "20"]])
    def test_flag_beats_config_in_either_spelling(self, tmp_path, capsys, flag):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("snr = 5\nL = 3\nB = 4\nrate_fraction = 0.5\n")
        assert run_cli(["bounds", "--config", str(cfg), *flag]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert [row.split(",")[0] for row in rows] == ["20", "20", "20"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("snrr = 5\nL = 3\nB = 4\nrate_fraction = 0.5\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["bounds", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "snrr" in capsys.readouterr().err

    def test_key_of_another_subcommand_rejected(self, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("L = 3\nB = 4\nrate_fraction = 0.5\nrs_distance = 3\n")
        with pytest.raises(SystemExit):
            run_cli(["bounds", "--config", str(cfg)])

    def test_load_config_parses_types(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("snr=15.5\nL=4\nsigned=true\nell0_list=1,2\n")
        parsed = load_config(str(cfg))
        assert parsed == {"snr": 15.5, "L": 4, "signed": True,
                          "ell0_list": "1,2"}

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("snr 15\n")
        with pytest.raises(ValueError):
            load_config(str(cfg))


class TestOtherCommands:
    def test_bounds_table(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        rc = run_cli(["bounds", "--snr", "15", "--L", "10", "--B", "16",
                      "--rate-fraction", "0.5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("v,L,B,rate_bits,t,ell,alpha")
        assert len(lines) == 11
        assert "mistake tail" in capsys.readouterr().err

    def test_curves_ppv_stdout(self, capsys):
        rc = run_cli(["curves", "--kind", "ppv", "--snr", "20",
                      "--epsilon", "1e-3", "--n-list", "100,500"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "v,n,epsilon,capacity_bits,ppv_bits"
        assert len(lines) == 3

    def test_curves_fig2_default_configuration(self, tmp_path):
        out = tmp_path / "fig2.csv"
        run_cli(["curves", "--kind", "fig2", "--out", str(out)])
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 101

    def test_power_check_json(self, capsys):
        rc = run_cli(["power-check", "--snr", "15", "--L", "4", "--B", "8",
                      "--rate-fraction", "0.5", "--seed", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic_mean"] == 15.0
        assert payload["avg_power_ok"] is True

    def test_compose_demo_success_and_failure_codes(self, capsys):
        rc = run_cli(["compose-demo", "--L", "15", "--B", "16",
                      "--rs-distance", "5", "--errors", "2", "--seed", "3"])
        assert rc == 0
        assert "recovered=True" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_rate_points_must_be_a_positive_int(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["curves", "--kind", "fig1", "--L-list", "10",
                     "--rate-points", value])
        assert exc.value.code == 2
        assert "--rate-points" in capsys.readouterr().err

    def test_rate_points_from_config_checked(self, tmp_path, capsys):
        cfg = tmp_path / "fig1.cfg"
        cfg.write_text("rate_points = 0\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["curves", "--kind", "fig1", "--L-list", "10",
                     "--config", str(cfg)])
        assert exc.value.code == 2
        assert "rate point" in capsys.readouterr().err

    def test_rate_points_used(self, capsys):
        rc = run_cli(["curves", "--kind", "fig1", "--L-list", "10",
                      "--epsilon", "0.5", "--rate-points", "1"])
        assert rc == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        # the one interior rate of (0.3 C, C) is 0.65 C
        assert float(row[5]) == pytest.approx(0.65 * capacity(20.0) / math.log(2.0))

    def test_missing_required_combination(self):
        with pytest.raises(SystemExit):
            run_cli(["simulate", "--snr", "15", "--L", "3",
                     "--rate-fraction", "0.5", "--trials", "1"])


class TestErrorSurface:
    """Library errors end as one-line messages, not tracebacks."""

    @pytest.mark.parametrize("epsilon", ["2", "1e-320"])
    def test_bad_value_is_a_usage_error(self, epsilon, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["curves", "--kind", "ppv", "--epsilon", epsilon])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: sparclab curves")
        assert "sparclab curves: error: " in err and "Traceback" not in err

    @pytest.mark.parametrize("L", ["0", "1"])
    def test_fig3_bad_L_is_a_usage_error(self, L, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["curves", "--kind", "fig3", "--L", L])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"sparclab curves: error: L must be an integer >= 2, got {L}\n")

    def test_malformed_config_line_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("snr 15\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["bounds", "--config", str(cfg), "--L", "3", "--B", "4",
                     "--rate-fraction", "0.5"])
        assert exc.value.code == 2
        assert "not key=value" in capsys.readouterr().err

    def test_unreadable_config_and_unwritable_out_are_usage_errors(self, tmp_path,
                                                                  capsys):
        missing = tmp_path / "missing"
        for extra in (["--config", str(missing / "c.cfg")],
                      ["--out", str(missing / "ppv.csv")]):
            with pytest.raises(SystemExit) as exc:
                run_cli(["curves", "--kind", "ppv", *extra])
            assert exc.value.code == 2
            assert "No such file or directory" in capsys.readouterr().err

    def test_infeasible_target_is_one_line_exit_1(self, capsys):
        rc = run_cli(["curves", "--kind", "fig3", "--snr-list", "2,0.0001"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "sparclab: error: no section size rate up to 50.0 meets epsilon=")
        assert "v=0.0001" in captured.err and captured.err.count("\n") == 1
