"""Command-line interface: subcommands, exit codes, flags, config files."""

import json
import subprocess
import sys

import pytest

SCHEMA_LINE = "# pgl-schema v1"


def run_cli(*args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "pgl", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestBasics:
    def test_help_exits_zero(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "usage" in proc.stdout.lower()

    def test_no_arguments_is_a_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 1

    def test_unknown_subcommand_is_a_usage_error(self):
        proc = run_cli("sideways")
        assert proc.returncode == 1

    def test_selftest_passes(self):
        proc = run_cli("selftest")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        assert sum(1 for l in lines if l.startswith("ok")) >= 7
        assert not any("FAIL" in l for l in lines)

    def test_import_does_not_load_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, pgl; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=240,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestQuenchedCommand:
    def test_csv_on_stdout(self):
        proc = run_cli("quenched", "--schedule", "zero", "--k", "4",
                       "--trials", "2", "--seed", "5")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == SCHEMA_LINE
        assert lines[1].startswith("schedule,k,seed,")
        assert len(lines) == 2 + 2

    def test_comma_separated_and_repeated_schedule_flags(self):
        proc = run_cli("quenched", "--schedule", "zero,const:0.1",
                       "--schedule", "logpow:1.0", "--k", "3,4",
                       "--trials", "1")
        assert proc.returncode == 0, proc.stderr
        rows = proc.stdout.strip().splitlines()[2:]
        assert len(rows) == 3 * 2

    def test_json_output_to_file(self, tmp_path):
        out = tmp_path / "run.json"
        proc = run_cli("quenched", "--schedule", "zero", "--k", "4",
                       "--trials", "2", "--format", "json", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["mode"] == "quenched"
        assert len(payload["records"]) == 2
        assert payload["config"]["k_list"] == [4]

    def test_level_beyond_cap_exits_two(self):
        proc = run_cli("quenched", "--schedule", "zero", "--k", "30",
                       "--trials", "1")
        assert proc.returncode == 2
        assert "error" in proc.stderr.lower()

    def test_bad_schedule_exits_one(self):
        proc = run_cli("quenched", "--schedule", "bogus:1", "--k", "4")
        assert proc.returncode == 1
        assert "unknown kind" in proc.stderr

    @pytest.mark.parametrize("spec", ["const:0.7", "const:nan"])
    def test_out_of_range_bias_exits_one_before_any_work(self, spec):
        proc = run_cli("bounds", "--schedule", spec, "--k", "8")
        assert proc.returncode == 1
        assert "outside (-1/2, 1/2)" in proc.stderr
        assert proc.stdout == ""

    def test_out_of_range_table_entry_exits_one(self, tmp_path):
        path = tmp_path / "bias.txt"
        path.write_text("0.1\n0.6\n0.1\n")
        proc = run_cli("bounds", "--schedule", f"table:{path}", "--k", "8")
        assert proc.returncode == 1
        assert "gamma(2) = 0.6" in proc.stderr
        assert proc.stdout == ""

    def test_thread_flag_keeps_output_identical(self, tmp_path):
        outs = []
        for threads, name in ((1, "a.csv"), (3, "b.csv")):
            out = tmp_path / name
            proc = run_cli("annealed", "--schedule", "zero,logpow:1.0",
                           "--k", "4,6", "--trials", "4", "--seed", "7",
                           "--threads", str(threads), "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestConfigFiles:
    def test_flags_override_config_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"schedules": ["zero"], "k_list": [4], "trials": 2}
        ))
        proc = run_cli("quenched", "--config", str(cfg), "--trials", "3")
        assert proc.returncode == 0, proc.stderr
        rows = proc.stdout.strip().splitlines()[2:]
        assert len(rows) == 3

    def test_config_values_apply_when_no_flag_is_given(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"schedules": ["zero"], "k_list": [4], "trials": 2}
        ))
        proc = run_cli("quenched", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        rows = proc.stdout.strip().splitlines()[2:]
        assert len(rows) == 2

    def test_unknown_config_key_exits_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schedules": ["zero"], "wibble": 3}))
        proc = run_cli("quenched", "--config", str(cfg), "--k", "4")
        assert proc.returncode == 1
        assert "wibble" in proc.stderr

    @pytest.mark.parametrize(
        "field,value", [("master_seed", 1.5), ("trials", 2.5)]
    )
    def test_non_integer_config_value_exits_one(self, tmp_path, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        proc = run_cli("bounds", "--k", "4", "--schedule", "zero",
                       "--config", str(cfg))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {field} must be an integer, got {value}\n"
        assert proc.stdout == ""

    def test_missing_config_file_exits_one(self, tmp_path):
        proc = run_cli("quenched", "--config", str(tmp_path / "nope.json"),
                       "--k", "4")
        assert proc.returncode == 1


class TestOtherCommands:
    def test_bounds_json_values(self):
        proc = run_cli("bounds", "--schedule", "zero", "--k", "3",
                       "--format", "json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        record = payload["records"][0]
        assert record["A"] == pytest.approx(0.53125, rel=1e-12)
        assert record["C"] == 0.0
        assert record["j0"] == 1

    def test_nonconv_flags(self):
        proc = run_cli("nonconv", "--schedule", "zero", "--k", "8",
                       "--trials", "10", "--eta", "0.5",
                       "--union-bound-samples", "2")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == SCHEMA_LINE
        assert "tail_and_hit_rate" in lines[1]

    def test_schedule_info_reports_json(self):
        proc = run_cli("schedule-info", "logpow:1.0")
        assert proc.returncode == 0, proc.stderr
        info = json.loads(proc.stdout)
        assert info["label"] == "logpow:1.0"
        assert info["kakutani"] == "singular"

    def test_schedule_info_bad_spec_exits_one(self):
        proc = run_cli("schedule-info", "bogus:1")
        assert proc.returncode == 1
