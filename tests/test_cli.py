"""Command-line interface: subcommands, exit codes, flags, config files."""

import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgl.analytics import MC_SAMPLES_CAP, _pair_sum_exact
from pgl.cli import _build_config, build_parser
from pgl.runner import ExperimentConfig
from pgl.schedule import Constant

SCHEMA_LINE = "# pgl-schema v1"
GOLDEN_DIR = Path(__file__).parent / "golden"

# Children import pgl from this checkout's src, installed or not.
SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])),
}


def run_cli(*args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "pgl", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=CHILD_ENV,
    )


class TestBasics:
    def test_help_exits_zero(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "usage" in proc.stdout.lower()

    def test_help_lists_the_four_sweeps_and_two_tools(self):
        proc = run_cli("--help")
        # subcommands sit at an indent of four; wrapped help lines deeper
        commands = [
            line.split()[0] for line in proc.stdout.splitlines()
            if line.startswith("    ") and not line.startswith("     ")
        ]
        assert commands == ["quenched", "annealed", "bounds", "nonconv",
                            "schedule-info", "selftest"], proc.stdout

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
        assert not any("FAIL" in l for l in lines)
        # README's quick start states the size of the battery
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        stated = re.search(r"# (\d+) internal cross-checks", readme)
        assert stated, "README no longer states the selftest count"
        assert int(stated.group(1)) == sum(1 for l in lines if l.startswith("ok - "))

    def test_import_does_not_load_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, pgl; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=240, env=CHILD_ENV,
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

    @pytest.mark.parametrize("command", ["schedule-info", "quenched", "annealed", "bounds", "nonconv"])
    def test_bias_rounding_half_sum_to_one_exits_one_before_any_work(self, command, tmp_path):
        # 1/2 + 0.49999999999999994 rounds to 1.0 in double precision; the
        # next double down and the mirrored value still sample
        path = tmp_path / "bias.txt"
        path.write_text("0.1\n0.49999999999999994\n")
        specs = {
            "const:0.49999999999999994": 1,
            "logpow:1.0:cap=0.49999999999999994": 1,
            f"table:{path}": 1,
            "const:-0.49999999999999994": 0,
            "const:0.4999999999999999": 0,
        }
        for spec, code in specs.items():
            if command == "schedule-info":
                proc = run_cli(command, spec)
            else:
                proc = run_cli(command, "--schedule", spec, "--k", "4", "--trials", "2")
            assert proc.returncode == code, (spec, proc.stderr)
            if code:
                assert "rounds to 1" in proc.stderr, (spec, proc.stderr)
                assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["schedule-info", "quenched", "annealed", "bounds", "nonconv"])
    def test_infinite_log_power_exponent_exits_one_before_any_work(self, command):
        if command == "schedule-info":
            proc = run_cli(command, "logpow:inf")
        else:
            proc = run_cli(command, "--schedule", "logpow:inf", "--k", "4")
        assert proc.returncode == 1
        assert proc.stderr == "error: LogPower exponent must be a finite number > 0\n"
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


# A valid value for every config field; FLAGS names the flags not spelled
# like their field.
FIELD_VALUES = {
    "schedules": st.lists(st.sampled_from(("zero", "const:0.1", "logpow:1.0", "logpow:0.25")),
                          min_size=1, max_size=3),
    "k_list": st.lists(st.integers(1, 60), min_size=1, max_size=3),
    "trials": st.integers(1, 10**6),
    "master_seed": st.integers(0, 2**64 - 1),
    "epsilon": st.floats(0, 1, exclude_min=True, exclude_max=True),
    "eta": st.floats(0, 100),
    "mc_samples": st.integers(2, 10**6),
    "exact_cap": st.integers(1, 26),
    "threads": st.integers(1, 64),
    "union_bound_samples": st.integers(0, 100),
}
FLAGS = {"schedules": "--schedule", "k_list": "--k", "master_seed": "--seed"}
FIELD_NAMES = {field.name for field in fields(ExperimentConfig)}


def sweep_argv(values: dict) -> list[str]:
    argv = []
    for name, value in values.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else repr(value)
        argv += [FLAGS.get(name, "--" + name.replace("_", "-")), text]
    return argv


class TestConfigFiles:
    @settings(max_examples=60, deadline=None)
    @given(
        file=st.fixed_dictionaries({}, optional=FIELD_VALUES),
        flags=st.fixed_dictionaries({}, optional=FIELD_VALUES),
        unknown=st.dictionaries(
            st.sampled_from(["time_limit", "timeout", "theta", "seed", "k"])
            | st.text(max_size=8).filter(lambda key: key not in FIELD_NAMES),
            st.integers(),
            max_size=2,
        ),
    )
    @example(file={}, flags={}, unknown={"time_limit": 5.0})
    def test_flags_beat_the_file_which_beats_the_defaults(self, file, flags, unknown):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps({**file, **unknown}))
            args = build_parser().parse_args(["bounds", "--config", str(path), *sweep_argv(flags)])
            if unknown:
                with pytest.raises(ValueError) as excinfo:
                    _build_config(args)
                assert str(excinfo.value) == f"unknown config keys: {', '.join(sorted(unknown))}"
                return
            merged = {**ExperimentConfig().as_dict(), **file, **flags}
            assert _build_config(args).as_dict() == {
                name: tuple(value) if isinstance(value, list) else value
                for name, value in merged.items()
            }

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

    @pytest.mark.parametrize(
        "content,message",
        [
            ({"epsilon": "0.1"}, "epsilon must be a real number, got '0.1'"),
            ({"epsilon": None}, "epsilon must be a real number, got None"),
            ({"time_limit": 5.0}, "unknown config keys: time_limit"),
            ({"theta": 0.25}, "unknown config keys: theta"),
            ({"schedules": "zero"}, "schedules must be a list of strings, got 'zero'"),
        ],
    )
    def test_mistyped_config_value_exits_one(self, tmp_path, content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        proc = run_cli("bounds", "--k", "4", "--config", str(cfg))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
        assert proc.stdout == ""

    def test_infinite_eta_exits_one_before_any_work(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta": float("inf")}))  # written as Infinity
        for extra in (["--eta", "inf"], ["--config", str(cfg)]):
            proc = run_cli("nonconv", "--k", "4", "--trials", "2", "--schedule", "zero", *extra)
            assert proc.returncode == 1
            assert proc.stderr == "error: eta must be a finite number >= 0\n"
            assert proc.stdout == ""

    def test_huge_finite_eta_gives_the_empty_tail(self):
        # eta sqrt(k) overflows to inf: the tail is empty, not a traceback
        proc = run_cli("quenched", "--eta", "1e308", "--k", "10", "--trials", "1")
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("nonconv", "--eta", "1e308", "--k", "10", "--trials", "2")
        assert proc.returncode == 0, proc.stderr
        header, *rows = proc.stdout.strip().splitlines()[1:]
        cells = [dict(zip(header.split(","), row.split(","))) for row in rows]
        assert cells and {row["tail_mass_exact"] for row in cells} == {"0.0"}

    def test_mc_samples_above_the_cap_exits_two_before_any_work(self):
        # one above the cap: were the check gone, the run would hold ~130 MB
        proc = run_cli("bounds", "--k", "21", "--schedule", "zero",
                       "--mc-samples", str(MC_SAMPLES_CAP + 1))
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: mc_samples {MC_SAMPLES_CAP + 1} exceeds the memory policy "
            f"(cap {MC_SAMPLES_CAP})\n"
        )
        assert proc.stdout == ""

    def test_missing_config_file_exits_one(self, tmp_path):
        proc = run_cli("quenched", "--config", str(tmp_path / "nope.json"),
                       "--k", "4")
        assert proc.returncode == 1


class TestFlags:
    SWEEP_FLAGS = [
        "--schedule", "zero", "--schedule", "const:0.1,logpow:1.0", "--k", "4,5",
        "--k", "6", "--trials", "2", "--seed", "9", "--epsilon", "0.2",
        "--eta", "0.4", "--mc-samples", "10", "--exact-cap", "12",
        "--threads", "2", "--union-bound-samples", "1",
    ]

    @pytest.mark.parametrize("mode", ["quenched", "annealed", "bounds", "nonconv"])
    def test_every_sweep_flag_sets_its_config_field(self, mode):
        args = build_parser().parse_args([mode, *self.SWEEP_FLAGS])
        assert _build_config(args).as_dict() == {
            "schedules": ("zero", "const:0.1", "logpow:1.0"),
            "k_list": (4, 5, 6),
            "trials": 2,
            "master_seed": 9,
            "epsilon": 0.2,
            "eta": 0.4,
            "mc_samples": 10,
            "exact_cap": 12,
            "threads": 2,
            "union_bound_samples": 1,
        }

    def test_unset_flags_leave_the_defaults(self):
        args = build_parser().parse_args(["bounds"])
        assert _build_config(args) == ExperimentConfig()

    @pytest.mark.parametrize(
        "argv",
        [
            ("quenched", "--k", "4", "--trials", "1", "--time-limit", "5"),
            ("bounds", "--theta", "0.3"),
        ],
        ids=["time-limit", "theta"],
    )
    def test_removed_flags_are_usage_errors(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 1
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in proc.stderr
        assert proc.stdout == ""

    def test_non_integer_level_is_a_usage_error(self):
        proc = run_cli("quenched", "--k", "x")
        assert proc.returncode == 1
        assert "argument --k: expected integers, got 'x'" in proc.stderr


class TestGoldenOutput:
    """The whole path flag -> field -> mode -> sweep -> CSV, against the
    files that tests/test_golden.py checks in-process."""

    @pytest.mark.parametrize(
        "mode,levels,trials",
        [("quenched", "10,14", "3"), ("annealed", "10,14", "3"), ("nonconv", "10,12,14", "20")],
    )
    def test_stdout_matches_the_golden_csv(self, mode, levels, trials):
        proc = run_cli(mode, "--k", levels, "--trials", trials)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN_DIR / f"{mode}.csv").read_text()


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

    def test_bounds_rows_write_the_constant_rate_and_exponent(self):
        proc = run_cli("bounds", "--schedule", "zero,logpow:1.0", "--k", "3,8,22",
                       "--epsilon", "0.3", "--mc-samples", "16")
        assert proc.returncode == 0, proc.stderr
        header, *rows = proc.stdout.strip().splitlines()[1:]
        cells = [dict(zip(header.split(","), row.split(","))) for row in rows]
        assert len(cells) == 6
        for row in cells:
            assert (row["lambda"], row["epsilon"], row["theta"]) == ("1.0", "0.3", "0.25")

    def test_nonconv_flags(self):
        proc = run_cli("nonconv", "--schedule", "zero", "--k", "8",
                       "--trials", "10", "--eta", "0.5",
                       "--union-bound-samples", "2")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == SCHEMA_LINE
        assert "tail_and_hit_rate" in lines[1]

    def test_negative_constant_b_bound_has_no_onset(self):
        proc = run_cli("bounds", "--schedule", "const:-0.3", "--k", "14", "--exact-cap", "13")
        assert proc.returncode == 0, proc.stderr
        header, row = proc.stdout.strip().splitlines()[1:]
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["B_mode"], cells["j0"]) == ("bound", "")
        assert float(cells["B"]) >= _pair_sum_exact(Constant(-0.3), 14)

    def test_schedule_info_reports_json(self):
        proc = run_cli("schedule-info", "logpow:1.0")
        assert proc.returncode == 0, proc.stderr
        info = json.loads(proc.stdout)
        assert info["label"] == "logpow:1.0"
        assert info["kakutani"] == "singular"

    def test_schedule_info_bad_spec_exits_one(self):
        proc = run_cli("schedule-info", "bogus:1")
        assert proc.returncode == 1

    def test_schedule_info_out_of_range_bias_exits_one(self):
        proc = run_cli("schedule-info", "const:0.7")
        assert proc.returncode == 1
        assert proc.stderr == "error: const = 0.7 outside (-1/2, 1/2)\n"
        assert proc.stdout == ""
