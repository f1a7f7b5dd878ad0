"""Command-line interface: argument handling, file outputs, config files."""

import json
import math

import pytest

from sparclab import bounds
from sparclab.cli import _build_parsers, load_config, main
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

    def test_readme_bounds_command_bounds_each_count_once(self, monkeypatch, capsys):
        # the table and the tail from ell0 = 10 come from one tail bound
        calls = []
        inner = bounds._section_bounds

        def counted(ells, q):
            calls.append(list(ells))
            return inner(ells, q)

        monkeypatch.setattr(bounds, "_section_bounds", counted)
        assert run_cli(["bounds", "--snr", "15", "--L", "100", "--B", "8192",
                        "--rate-fraction", "0.7", "--alpha0", "0.1"]) == 0
        assert calls == [list(range(1, 101))]
        assert "mistake tail from ell0=10: " in capsys.readouterr().err

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

    @pytest.mark.parametrize("L,extra", [
        ("0", []), ("1", []), ("2", []),
        ("2", ["--epsilon", "0.9", "--rate-fraction", "0.1"])])
    def test_fig3_bad_L_is_a_usage_error(self, L, extra, capsys):
        # rejected before any bisection, so the target level does not matter
        with pytest.raises(SystemExit) as exc:
            run_cli(["curves", "--kind", "fig3", "--L", L, *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"sparclab curves: error: need L >= 3, got {L}\n")

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

    @pytest.mark.parametrize("argv,message", [
        (["bounds", "--L", "3", "--rate-fraction", "0.5"], "give either --B or --a"),
        (["bounds", "--B", "4", "--rate-fraction", "0.5"], "bounds needs --L"),
        (["simulate", "--L", "3", "--B", "4"], "give either --rate or --rate-fraction"),
        (["power-check", "--B", "4", "--rate-fraction", "0.5"], "power-check needs --L"),
        (["compose-demo", "--B", "16"], "compose-demo needs --L"),
        (["compose-demo", "--L", "7", "--B", "12"], "compose-demo needs a power-of-two B"),
        (["compose-demo", "--L", "15", "--B", "16", "--errors", "20"],
         "--errors must be in [0, L=15], got 20"),
        (["compose-demo", "--L", "15", "--B", "16", "--errors", "-1"],
         "--errors must be in [0, L=15], got -1"),
    ])
    def test_missing_or_bad_input_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: sparclab {argv[0]}")
        assert err.endswith(f"sparclab {argv[0]}: error: {message}\n")

    @pytest.mark.parametrize("argv,message", [
        (["bounds", "--alpha0", "1.5"], "alpha0 must be in [0, 1], got 1.5"),
        (["bounds", "--alpha0", "nan"], "alpha0 must be in [0, 1], got nan"),
        (["bounds", "--alpha0", "-3"], "alpha0 must be in [0, 1], got -3.0"),
        (["bounds", "--rate-fraction", "nan"], "rate must be positive and finite"),
        (["bounds", "--t", "nan"], "threshold must be nonnegative and finite"),
        (["bounds", "--t", "inf"], "threshold must be nonnegative and finite"),
        (["curves", "--kind", "fig2", "--t", "nan"],
         "threshold must be nonnegative and finite"),
        (["simulate", "--t", "nan"], "threshold must be nonnegative and finite"),
        (["bounds", "--snr", "inf"], "snr must be positive and finite, got inf"),
        (["bounds", "--snr", "nan"], "snr must be positive and finite, got nan"),
        (["curves", "--kind", "ppv", "--snr", "inf"],
         "snr must be positive and finite, got inf"),
        (["curves", "--kind", "ppv", "--snr", "nan"],
         "snr must be positive and finite, got nan"),
        (["simulate", "--snr", "inf"], "snr must be positive and finite, got inf"),
        (["curves", "--kind", "ppv", "--n-list", "nan,100"],
         "codelength must be finite and exceed 1, got nan"),
        (["curves", "--kind", "ppv", "--n-list", "inf"],
         "codelength must be finite and exceed 1, got inf"),
        (["bounds", "--a", "1e6"],
         "--a 1000000.0 gives a section size L^a beyond a float at L=4"),
    ] + [([command, "--a", value], f"--a must be positive and finite, got {float(value)}")
         for command in ("bounds", "simulate", "power-check", "compose-demo")
         for value in ("inf", "nan", "0", "-1")])
    def test_bad_value_fails_before_any_output(self, argv, message, tmp_path,
                                               capsys):
        # no --B with --a, which --B would otherwise take precedence over
        section = [] if "--a" in argv else ["--B", "16"]
        code = {"curves": [], "compose-demo": ["--L", "4", *section]}.get(
            argv[0], ["--snr", "15", "--L", "4", *section, "--rate-fraction", "0.5"])
        out = tmp_path / "out.csv"
        # compose-demo writes to stdout only
        extras = [[]] if argv[0] == "compose-demo" else [[], ["--out", str(out)]]
        for extra in extras:
            with pytest.raises(SystemExit) as exc:
                # later flags win, so argv's value replaces the code's
                run_cli([argv[0], *code, *argv[1:], *extra])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"sparclab {argv[0]}: error: {message}" in captured.err
        assert not out.exists()

    def test_infeasible_target_is_one_line_exit_1(self, capsys):
        rc = run_cli(["curves", "--kind", "fig3", "--snr-list", "2,0.0001"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "sparclab: error: no section size rate up to 50.0 meets epsilon=")
        assert "v=0.0001" in captured.err and captured.err.count("\n") == 1


CODE_FLAGS = {"snr", "L", "B", "a", "rate", "rate_fraction"}


class TestFlagSets:
    """Each subcommand takes exactly the flags its handler reads."""

    EXPECTED = {
        "bounds": {"config", *CODE_FLAGS, "alpha0", "t", "units", "out"},
        "curves": {"config", "kind", "snr", "snr_list", "L", "L_list", "B",
                   "rate_fraction", "rate_points", "alpha0", "epsilon", "t",
                   "n_list", "out"},
        "simulate": {"config", *CODE_FLAGS, "signed", "noiseless", "rs_distance",
                     "t", "seed", "trials", "ell0_list", "workers", "units", "out",
                     "report"},
        "power-check": {"config", *CODE_FLAGS, "signed", "epsilon", "seed",
                        "units", "out"},
        "compose-demo": {"config", "L", "B", "a", "rs_distance", "errors", "seed"},
    }

    def test_flag_sets_pinned(self):
        commands = _build_parsers()[1]
        assert set(commands) == set(self.EXPECTED)
        for name, sub in commands.items():
            dests = {a.dest for a in sub._actions} - {"help"}
            assert dests == self.EXPECTED[name], name
        assert sum(len(d) for d in self.EXPECTED.values()) == 62

    @pytest.mark.parametrize("argv", [
        ["bounds", "--L", "3", "--B", "4", "--rate-fraction", "0.5", "--trials", "5"],
        ["curves", "--kind", "ppv", "--seed", "3"],
        # not an abbreviation of --alpha0
        ["curves", "--kind", "fig3", "--a", "2"],
        ["simulate", "--L", "2", "--B", "4", "--rate-fraction", "0.5",
         "--epsilon", "0.1"],
        ["power-check", "--L", "2", "--B", "4", "--rate-fraction", "0.5",
         "--trials", "5"],
        ["compose-demo", "--L", "15", "--B", "16", "--out", "x"],
    ])
    def test_dropped_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    @pytest.mark.parametrize("argv,key", [
        (["bounds"], "epsilon"), (["curves", "--kind", "ppv"], "seed"),
        (["simulate"], "alpha0"), (["power-check"], "trials"),
        (["compose-demo"], "out")])
    def test_dropped_config_key_is_a_usage_error(self, argv, key, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = 1\n")
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--config", str(cfg)])
        assert exc.value.code == 2
        assert f"are not flags of '{argv[0]}': {key}\n" in capsys.readouterr().err

    # one flag each kind does not read
    UNREAD = [("fig1", "B", "64"), ("fig2", "epsilon", "0.1"),
              ("fig3", "snr", "20"), ("ppv", "L", "8")]

    @pytest.mark.parametrize("kind,dest,value", UNREAD)
    def test_curve_kind_rejects_unread_flag(self, kind, dest, value, capsys):
        flag = "--" + dest.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            run_cli(["curves", "--kind", kind, flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"sparclab curves: error: --kind {kind} does not read {flag}\n")

    @pytest.mark.parametrize("kind,dest,value", UNREAD)
    def test_curve_kind_rejects_unread_config_key(self, kind, dest, value,
                                                  tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{dest} = {value}\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["curves", "--kind", kind, "--config", str(cfg)])
        assert exc.value.code == 2
        assert f"--kind {kind} does not read --{dest.replace('_', '-')}" in \
            capsys.readouterr().err
