"""Command-line interface: outputs, config precedence, exit codes."""

import json

import numpy as np
import pytest

from mtmlab.cli import main
from mtmlab.grid import load_state
from mtmlab.soliton import SolitonParams, eval_soliton


def _usage_error(argv, capsys) -> str:
    """Run ``main`` on input the library refuses: a usage error with exit
    code 2 (1 is kept for failed verdicts), no traceback and a one-line
    message.  Returns stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("mtmlab: error: ") and err.count("\n") == 1, err
    return err


# settings a command does not read: it refuses them as flags
_UNREAD_FLAGS = {
    "soliton": ("--dt", "--t-end", "--seed"),
    "conserved": ("--dt", "--t-end", "--seed", "--out"),
    "spectrum": ("--grid-L", "--dt", "--t-end", "--seed"),
    "sigma": ("--grid-L", "--dt", "--t-end", "--seed"),
    "sweep": ("--omega", "--grid-L", "--dt", "--t-end", "--seed"),
    "h1bound": ("--omega",),
    "scatter": ("--dt", "--t-end", "--seed"),
}
_FLAG_VALUES = {"--omega": "0.5", "--grid-L": "80", "--dt": "0.5", "--t-end": "3",
                "--seed": "4", "--out": "results"}


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, flags in _UNREAD_FLAGS.items() for f in flags]
)
def test_unread_setting_flag_rejected(command, flag, capsys):
    err = _usage_error([command, flag, _FLAG_VALUES[flag]], capsys)
    assert f"unrecognized arguments: {flag}" in err


class TestSolitonCommand:
    def test_dump_matches_library(self, tmp_path):
        rc = main(
            [
                "soliton",
                "--omega", "0.5",
                "--grid-L", "30",
                "--grid-N", "256",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        state = load_state(tmp_path / "soliton.csv")
        from mtmlab.grid import Grid

        ref = eval_soliton(SolitonParams(0.5), Grid(30.0, 256))
        assert np.max(np.abs(state.u - ref.u)) == 0.0


class TestConservedCommand:
    def test_prints_values(self, capsys):
        rc = main(["conserved", "--omega", "0.5", "--grid-L", "35", "--grid-N", "1024"])
        assert rc == 0
        out = capsys.readouterr().out
        q_line = [ln for ln in out.splitlines() if ln.startswith("Q =")][0]
        assert float(q_line.split("=")[1]) == pytest.approx(2.0 * np.pi / 3.0, abs=1e-6)


class TestConfigPrecedence:
    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 0.5, "grid_L": 35.0, "grid_N": 512}))
        rc = main(["conserved", "--config", str(cfg), "--omega", "0.0"])
        assert rc == 0
        out = capsys.readouterr().out
        q_line = [ln for ln in out.splitlines() if ln.startswith("Q =")][0]
        # omega flag overrides the file: charge is pi, not 2 pi / 3
        assert float(q_line.split("=")[1]) == pytest.approx(np.pi, abs=1e-6)

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omegaa": 0.5}))
        assert "omegaa" in _usage_error(["conserved", "--config", str(cfg)], capsys)

    def test_unread_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 0.5, "dt": 0.1}))
        err = _usage_error(["spectrum", "--config", str(cfg), "--out", str(tmp_path)], capsys)
        assert "['dt']" in err and "'spectrum'" in err

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert missing in _usage_error(["conserved", "--config", missing], capsys)

    @pytest.mark.parametrize(
        "text, named",
        [('{"omega": "abc"}', "'omega'"), ('{"seed": 1.5}', "'seed'"),
         ('{"grid_N": true}', "'grid_N'"), ("[0.5]", "JSON object"), ("{", "not JSON")],
    )
    def test_malformed_config_rejected(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert named in _usage_error(["conserved", "--config", str(cfg)], capsys)

    def test_integer_config_value_passes_for_float(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 0, "grid_L": 35, "grid_N": 512}))
        assert main(["conserved", "--config", str(cfg)]) == 0
        q_line = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("Q =")][0]
        assert float(q_line.split("=")[1]) == pytest.approx(np.pi, abs=1e-6)


class TestEvolveCommand:
    def test_record_and_exit_code(self, tmp_path):
        rc = main(
            [
                "evolve",
                "--omega", "0.5",
                "--grid-L", "35",
                "--grid-N", "512",
                "--dt", "1e-3",
                "--t-end", "0.5",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        record = json.loads((tmp_path / "record.json").read_text())
        assert record["verdicts"]["charge_conserved"] is True
        assert record["verdicts"]["no_blowup"] is True
        assert 0.0 <= record["measurements"]["drift_Q"] < 1e-10
        assert record["config"]["grid_N"] == 512
        assert record["duration_s"] > 0.0
        lines = (tmp_path / "conserved.csv").read_text().splitlines()
        assert lines[0] == "t,Q,P,H,R,Lambda"
        assert (tmp_path / "final_state.csv").exists()

    def test_record_config_does_not_name_the_out_directory(self, tmp_path):
        argv = ["evolve", "--grid-N", "256", "--t-end", "0.01", "--delta", "1e-3"]
        configs = []
        for name in ("ev_a", "ev_b"):
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
            configs.append(json.loads((tmp_path / name / "record.json").read_text())["config"])
        assert "out" not in configs[0]
        assert configs[0] == configs[1]


    def test_negative_delta_rejected(self, tmp_path, capsys):
        argv = ["evolve", "--delta=-1e-2", "--grid-N", "256", "--out", str(tmp_path)]
        assert "nonnegative" in _usage_error(argv, capsys)

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_rejected(self, tmp_path, capsys, delta):
        out = tmp_path / "refused"
        argv = ["evolve", "--delta", delta, "--grid-N", "256", "--out", str(out)]
        assert "perturbation size must be nonnegative and finite" in _usage_error(argv, capsys)
        assert not out.exists()

    def test_fractional_step_count_rejected(self, tmp_path, capsys):
        argv = ["evolve", "--t-end", "0.0015", "--dt", "1e-3", "--grid-N", "256",
                "--out", str(tmp_path)]
        assert "not a whole number of steps" in _usage_error(argv, capsys)

    def test_infinite_step_rejected(self, tmp_path, capsys):
        out = tmp_path / "refused"
        argv = ["evolve", "--grid-N", "64", "--t-end", "1", "--dt", "inf", "--out", str(out)]
        assert "dt must be positive and finite" in _usage_error(argv, capsys)
        assert not out.exists()

    def test_subnormal_step_rejected(self, tmp_path, capsys):
        out = tmp_path / "refused"
        argv = ["evolve", "--grid-N", "64", "--t-end", "1", "--dt", "1e-320", "--out", str(out)]
        assert "takes too many steps" in _usage_error(argv, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_end_time_rejected(self, tmp_path, capsys, value):
        out = tmp_path / "refused"
        argv = ["evolve", "--t-end", value, "--grid-N", "256", "--out", str(out)]
        assert "t_end must be nonnegative and finite" in _usage_error(argv, capsys)
        assert not out.exists()


class TestScatterCommand:
    def test_scan_columns(self, tmp_path):
        rc = main(
            [
                "scatter",
                "--omega", "0.5",
                "--grid-L", "35",
                "--grid-N", "512",
                "--lambdas", "0.7",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "scatter.csv").read_text().splitlines()
        assert lines[0] == "lambda,re_log_a,im_log_a,t"
        assert lines[1].startswith("0.7,")

    def test_list_led_by_negative_value(self, tmp_path):
        tables = []
        for name, argv in (("spaced", ["--lambdas", "-0.5,0.8"]), ("glued", ["--lambdas=-0.5,0.8"])):
            out = tmp_path / name
            assert main(["scatter", *argv, "--grid-N", "256", "--out", str(out)]) == 0
            tables.append((out / "scatter.csv").read_text())
        assert tables[0] == tables[1]
        assert [line.split(",")[0] for line in tables[0].splitlines()[1:]] == ["-0.5", "0.8"]

    def test_lambda_outside_window_rejected(self, tmp_path, capsys):
        argv = ["scatter", "--lambdas", "30", "--grid-N", "256", "--out", str(tmp_path)]
        assert "conditioning window" in _usage_error(argv, capsys)

    def test_riccati_blowup_rejected(self, tmp_path, capsys):
        # phi_1 vanishes at the node x = 0 for lambda = 1 although |a(1)| = 1
        out = tmp_path / "refused"
        argv = ["scatter", "--lambdas", "1.0", "--out", str(out)]
        assert "Riccati ratio exceeded" in _usage_error(argv, capsys)
        assert not out.exists()


class TestSigmaCommand:
    def test_table_and_exit(self, tmp_path):
        rc = main(["sigma", "--omega", "0.5", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sigma.csv").read_text().splitlines()
        assert lines[0] == "omega,sign,sigma_numeric,sigma_closed_form"
        assert len(lines) == 3
        for line in lines[1:]:
            omega, _, numeric, closed = line.split(",")
            assert float(omega) == 0.5
            assert abs(float(numeric) - float(closed)) < 1e-3

    def test_unresolved_kernel_needs_no_deflation(self, tmp_path):
        # on this coarse lattice the plus-sector kernel eigenvalue sits near
        # 1e-5; the slope comes from the +1 parity block, which the kernel
        # does not enter
        rc = main(["sigma", "--omega", "-0.3", "--grid-N", "24", "--out", str(tmp_path)])
        assert rc == 0
        for line in (tmp_path / "sigma.csv").read_text().splitlines()[1:]:
            _, _, numeric, closed = line.split(",")
            assert abs(float(numeric) - float(closed)) < 1e-4

    def test_frequency_outside_range_rejected(self, tmp_path, capsys):
        # refused before the grid takes sqrt(1 - omega^2), which would warn
        argv = ["sigma", "--omega", "1.5", "--out", str(tmp_path)]
        assert "|omega| < 1" in _usage_error(argv, capsys)


class TestSpectrumCommand:
    def test_table_columns(self, tmp_path):
        rc = main(["spectrum", "--omega", "0.5", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "omega,operator,index,eigenvalue,below_edge"
        operators = {ln.split(",")[1] for ln in lines[1:]}
        assert operators == {"plus", "minus"}


    def test_config_file_grid_matches_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_N": 256}))
        assert main(["spectrum", "--omega", "0.5", "--config", str(cfg),
                     "--out", str(tmp_path / "file")]) == 0
        assert main(["spectrum", "--omega", "0.5", "--grid-N", "256",
                     "--out", str(tmp_path / "flag")]) == 0
        from_file = (tmp_path / "file" / "spectrum.csv").read_text()
        assert from_file == (tmp_path / "flag" / "spectrum.csv").read_text()


class TestSweepCommand:
    def test_subset_sweep(self, tmp_path):
        rc = main(
            [
                "sweep",
                "--omegas", "0.3",
                "--checks", "minus_sector",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        record = json.loads((tmp_path / "record.json").read_text())
        assert record["verdicts"]["minus_sector"] is True
        assert record["tables"]["sweep"][0]["omega"] == 0.3

    def test_misspelt_check_rejected(self, tmp_path, capsys):
        argv = ["sweep", "--omegas", "0.3", "--checks", "minus_secotr", "--out", str(tmp_path)]
        assert "minus_secotr" in _usage_error(argv, capsys)

    def test_list_led_by_negative_value(self, tmp_path):
        # argparse alone reads "-0.7,0.3" as a flag and exits 2
        records = []
        for name, argv in (("spaced", ["--omegas", "-0.7,0.3"]), ("glued", ["--omegas=-0.7,0.3"])):
            out = tmp_path / name
            assert main(["sweep", *argv, "--checks", "minus_sector", "--out", str(out)]) == 0
            record = json.loads((out / "record.json").read_text())
            del record["duration_s"]
            records.append(record)
        assert records[0] == records[1]
        assert [row["omega"] for row in records[0]["tables"]["sweep"]] == [-0.7, 0.3]

    def test_frequency_outside_range_rejected(self, tmp_path, capsys):
        out = tmp_path / "refused"
        argv = ["sweep", "--omegas", "1.5", "--out", str(out)]
        assert "|omega| < 1" in _usage_error(argv, capsys)
        assert not out.exists()


class TestStabilityCommand:
    def test_passing_run(self, tmp_path):
        rc = main(
            [
                "stability",
                "--omega", "0.3",
                "--delta", "1e-3",
                "--grid-L", "32",
                "--grid-N", "896",
                "--dt", "1e-3",
                "--t-end", "2.0",
                "--seed", "2",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        record = json.loads((tmp_path / "record.json").read_text())
        assert record["passed"] is True

    def test_infinite_domain_rejected(self, tmp_path, capsys):
        argv = ["stability", "--grid-L", "inf", "--out", str(tmp_path)]
        assert "half_length must be finite" in _usage_error(argv, capsys)

    def test_nan_delta_rejected(self, tmp_path, capsys):
        out = tmp_path / "refused"
        argv = ["stability", "--delta", "nan", "--out", str(out)]
        assert "perturbation size must be nonnegative and finite" in _usage_error(argv, capsys)
        assert not out.exists()


class TestH1BoundCommand:
    def test_record_is_written(self, tmp_path):
        rc = main(
            [
                "h1bound",
                "--t-end", "1",
                "--grid-L", "30",
                "--grid-N", "256",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        record = json.loads((tmp_path / "record.json").read_text())
        assert record["passed"] is True
        assert record["verdicts"]["charge_conserved"] is True

    def test_negative_charge_rejected(self, tmp_path, capsys):
        argv = ["h1bound", "--charge", "-0.1", "--out", str(tmp_path)]
        assert "charge must be nonnegative" in _usage_error(argv, capsys)

    def test_nan_charge_rejected(self, tmp_path, capsys):
        argv = ["h1bound", "--charge", "nan", "--out", str(tmp_path)]
        assert "charge must be nonnegative and finite" in _usage_error(argv, capsys)

    def test_refused_run_leaves_no_out_directory(self, tmp_path, capsys):
        out = tmp_path / "refused"
        _usage_error(["h1bound", "--charge", "-0.1", "--out", str(out)], capsys)
        assert not out.exists()
