"""Golden CSV guard: the sweeps print what they printed when the files in
tests/golden/ were recorded, whatever the thread count.

quenched, annealed and nonconv must match byte for byte.  bounds must match
every string cell exactly and every float cell within 1e-12 relative, so
that a change in floating-point summation order inside the Stein terms is
allowed and nothing else is.  The default-* files hold the four sweeps with
every config field at its default; the annealed one is checked by test_a11,
which runs that sweep anyway.  The table-* cases read two table files that
render() writes to a temporary directory: A holds 3 000 seeded uniform
values in [-0.45, 0.45], B holds 20 000 values 0.3/(1 + i/500).

To record the files again after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py`` and name the change in
CHANGES.md.
"""

import csv
import io
import math
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from pgl.runner import (
    ExperimentConfig,
    records_to_csv,
    run_annealed,
    run_bounds,
    run_nonconv,
    run_quenched,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

# Table specs name their files under this placeholder; render() writes the
# files and prints the placeholder back in place of their directory, so the
# recorded bytes do not depend on where the tests run.
TABLES = "<tables>"
_TABLE_A = random.Random(19)
TABLE_FILES = {
    "A.txt": [_TABLE_A.uniform(-0.45, 0.45) for _ in range(3000)],
    "B.txt": [0.3 / (1 + i / 500) for i in range(20_000)],
}
TABLE_SCHEDULES = (f"{TABLES}/A.txt:tail=zero", f"{TABLES}/B.txt")

# case name -> (mode, sweep, config fields); schedules default unless named.
CASES = {
    "quenched": ("quenched", run_quenched, {"k_list": (10, 14), "trials": 3}),
    # unsorted levels, a repeated level and a gap: each level of one trial
    # reads a prefix of the same sequence, and a repeated level repeats its
    # rows (but never adds trials to an aggregate; see the tests below)
    "quenched-levels": ("quenched", run_quenched, {"k_list": (16, 11, 16), "trials": 2}),
    "annealed": ("annealed", run_annealed, {"k_list": (10, 14), "trials": 3}),
    "nonconv": ("nonconv", run_nonconv, {"k_list": (10, 12, 14), "trials": 20}),
    # k = 8 full-sum C, k = 14 exact B with bound C, k = 21 bound B with
    # Monte Carlo C: every Stein path.
    "bounds": (
        "bounds",
        run_bounds,
        {"schedules": ("logpow:0.5", "logpow:1.0", "zero"), "k_list": (8, 14, 21)},
    ),
    # k = 6 and 12 full-sum C, k = 14 exact B with bound C, k = 15 and 21
    # bound B with Monte Carlo C, all on tables.
    "table-bounds": (
        "bounds",
        run_bounds,
        {"schedules": tuple(f"table:{spec}" for spec in TABLE_SCHEDULES),
         "k_list": (6, 12, 14, 15, 21), "exact_cap": 14},
    ),
    "table-annealed": (
        "annealed",
        run_annealed,
        {"schedules": tuple(f"table:{spec}" for spec in TABLE_SCHEDULES),
         "k_list": (10, 14), "trials": 4},
    ),
    "default-quenched": ("quenched", run_quenched, {}),
    "default-annealed": ("annealed", run_annealed, {}),
    "default-nonconv": ("nonconv", run_nonconv, {}),
    "default-bounds": ("bounds", run_bounds, {}),
}


def render(name: str, threads: int) -> str:
    mode, sweep, fields = CASES[name]
    with tempfile.TemporaryDirectory() as tables:
        for file_name, values in TABLE_FILES.items():
            (Path(tables) / file_name).write_text("".join(f"{v!r}\n" for v in values))
        if "schedules" in fields:
            schedules = tuple(s.replace(TABLES, tables) for s in fields["schedules"])
            fields = {**fields, "schedules": schedules}
        config = ExperimentConfig(threads=threads, **fields)
        return records_to_csv(mode, sweep(config)).replace(tables, TABLES)


def assert_close_cells(got: str, want: str) -> None:
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    assert len(got_rows) == len(want_rows)
    for got_row, want_row in zip(got_rows, want_rows):
        assert len(got_row) == len(want_row)
        for g, w in zip(got_row, want_row):
            if g == w:
                continue
            # Only float cells may differ, and only by rounding.
            assert math.isclose(float(g), float(w), rel_tol=1e-12, abs_tol=0.0), (g, w)


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize(
    "mode", ["quenched", "quenched-levels", "annealed", "nonconv", "table-annealed"]
)
def test_sweep_csv_is_byte_identical(mode, threads):
    want = (GOLDEN_DIR / f"{mode}.csv").read_text()
    assert render(mode, threads) == want


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("name", ["bounds", "table-bounds"])
def test_bounds_csv_matches_within_rounding(name, threads):
    want = (GOLDEN_DIR / f"{name}.csv").read_text()
    assert_close_cells(render(name, threads), want)


@pytest.mark.parametrize("mode", ["default-quenched", "default-nonconv"])
def test_default_sweep_csv_is_byte_identical(mode):
    want = (GOLDEN_DIR / f"{mode}.csv").read_text()
    assert render(mode, threads=1) == want


def test_default_bounds_csv_matches_within_rounding():
    want = (GOLDEN_DIR / "default-bounds.csv").read_text()
    assert_close_cells(render("default-bounds", threads=1), want)


def neumaier_sum(values, start=0):
    """The builtin sum() as Python 3.12 computes it: from 3.12 it adds floats
    with Neumaier compensated summation (What's New in Python 3.12; CPython
    gh-100425), while 3.10 and 3.11 add them left to right.  Ints alone
    still sum exactly."""
    values = list(values)
    if all(isinstance(value, int) for value in values):
        return sum(values, start)
    total, compensation = float(start), 0.0
    for value in map(float, values):
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation


@pytest.mark.parametrize("mode", ["quenched", "quenched-levels", "annealed", "nonconv"])
def test_sweep_csv_bytes_do_not_depend_on_how_sum_adds_floats(mode):
    # pgl runs on Python >= 3.10, so no printed float may come from sum().
    want = (GOLDEN_DIR / f"{mode}.csv").read_text()
    with mock.patch("pgl.stats.sum", neumaier_sum, create=True), mock.patch(
        "pgl.runner.sum", neumaier_sum, create=True
    ):
        assert render(mode, threads=1) == want


def test_a_repeated_level_adds_no_trials_to_the_annealed_aggregates():
    config = ExperimentConfig(k_list=(10, 14, 10), trials=3)
    text = records_to_csv("annealed", run_annealed(config))
    want = (GOLDEN_DIR / "annealed.csv").read_text()
    aggregates = [line for line in text.splitlines() if ",annealed," in line]
    assert aggregates == [line for line in want.splitlines() if ",annealed," in line]


def test_a_repeated_level_adds_no_trials_to_the_nonconv_rows():
    config = ExperimentConfig(k_list=(10, 12, 14, 12), trials=20)
    want = (GOLDEN_DIR / "nonconv.csv").read_text()
    assert records_to_csv("nonconv", run_nonconv(config)) == want


if __name__ == "__main__":
    for name in sys.argv[1:] or CASES:
        (GOLDEN_DIR / f"{name}.csv").write_text(render(name, threads=1))
