"""The three benchmark workloads and the checks on their outputs.

A workload is one ``pgl.runner`` sweep (the ``run_*`` call plus
``records_to_csv``), repeated in a closed loop.  Sweep ``i`` of a run with
benchmark seed ``s`` uses master seed ``1000 * s + i``, so every sweep draws
fresh sequences and patterns and no sweep can reuse another's results.

Checks compare against ``oracles`` (computed apart from ``pgl``) or against
properties the method must have.  ``CHECKS[mode](records, csv, config, deep)``
runs on every sweep; with ``deep`` set it also redraws sequences and
re-enumerates sums, which the worker asks for on the first sweep only.  All
checks run outside the timed interval.  Each returns a list of failure
messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from functools import lru_cache

import oracles

import pgl.runner as runner

# TV tolerances against a reference law.  Per-trial spread measured over 40
# seeds: |TV - predicted| has sd 0.0013 at k = 20 and about 0.0004 at
# k = 24; a fair-coin trial at k = 20 reads TV <= 0.0018.  The tolerances
# sit 7 or more standard deviations out, while scaling the sampled bias by
# 0.9 moves TV(18) by about 0.02.
PREDICTION_TOL = {20: 0.01, 24: 0.005}
FAIR_COIN_TOL = 0.01


@dataclass(frozen=True)
class Workload:
    """A runner mode and the config fields that differ from the defaults;
    README.md says why each workload is in the benchmark."""

    mode: str
    config: dict
    reference: str  # the reference pass in calibration.py its sweeps resemble

    def sweep_config(self, seed: int, index: int) -> runner.ExperimentConfig:
        return runner.ExperimentConfig(master_seed=1000 * seed + index, **self.config)


RUNS = {
    "annealed": runner.run_annealed,
    "bounds": runner.run_bounds,
    "quenched": runner.run_quenched,
}

WORKLOADS = {
    "annealed-sweep": Workload("annealed", {"trials": 2}, "streaming"),
    "bounds-sweep": Workload(
        "bounds", {"schedules": ("logpow:1.0", "zero"), "k_list": (8, 12, 16, 22)}, "small-calls"
    ),
    "quenched-deep": Workload("quenched", {"schedules": ("logpow:1.0",), "k_list": (24,), "trials": 1}, "streaming"),
}


def run_sweep(workload: Workload, config: runner.ExperimentConfig, wrap=lambda fn: fn):
    """One operation: the runner call and its rendered CSV.  ``wrap`` lets a
    traced sweep put spans around both."""
    records = wrap(RUNS[workload.mode])(config)
    return records, wrap(runner.records_to_csv)(workload.mode, records)


def failed_records(records) -> int:
    return sum(1 for r in records if getattr(r, "status", "ok") != "ok")


# ---------------------------------------------------------------------------
# Shared helpers


def _csv_rows(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != runner.SCHEMA_LINE:
        return []
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def _check_csv(records, text: str, key_columns: tuple[str, ...], problems: list) -> None:
    rows = _csv_rows(text)
    if len(rows) != len(records):
        problems.append(f"CSV has {len(rows)} rows for {len(records)} records")
        return
    for record, row in zip(records, rows):
        data = record.as_dict()
        for column in key_columns:
            value = data.get(column)
            cell = "" if value is None else (repr(value) if isinstance(value, float) else str(value))
            if row[column] != cell:
                problems.append(f"CSV cell {column}={row[column]!r}, record holds {cell!r}")
                return


@lru_cache(maxsize=None)
def _predicted_tv(spec: str, k: int) -> float:
    return oracles.tv_of_pmf_to_poisson_one(oracles.mixed_poisson_prediction(spec, k))


# ---------------------------------------------------------------------------
# quenched and annealed


def _check_trial_records(records, config, problems: list) -> None:
    seeds = sorted(oracles.derive_seed(config.master_seed, t) for t in range(config.trials))
    for cell in ((s, k) for s in config.schedules for k in config.k_list):
        got = sorted(r.seed for r in records if (r.schedule, r.k) == cell)
        if got != seeds:
            problems.append(f"{cell}: trial seeds {got} are not derive_seed(master, t)")
    poisson = [math.exp(-1.0) / math.factorial(m) for m in range(3)]
    for r in records:
        masses = (r.p0, r.p1, r.p2)
        if any(p is None or not 0.0 <= p <= 1.0 for p in masses) or sum(masses) > 1 + 1e-12:
            problems.append(f"{r.schedule} k={r.k}: masses {masses} are not a sub-law")
            continue
        partial = 0.5 * sum(abs(p - q) for p, q in zip(masses, poisson))
        if not partial - 1e-12 <= r.tv_to_po1 <= 1.0:
            problems.append(f"{r.schedule} k={r.k}: TV {r.tv_to_po1} below its first terms {partial}")


def _check_against_references(records, config, problems: list) -> None:
    """zero sits near Poisson(1); logpow:1.0 near its mixed-Poisson law."""
    for k, tol in PREDICTION_TOL.items():
        if k not in config.k_list or "logpow:1.0" not in config.schedules:
            continue
        predicted = _predicted_tv("logpow:1.0", k)
        for r in records:
            if (r.schedule, r.k) == ("logpow:1.0", k) and abs(r.tv_to_po1 - predicted) >= tol:
                problems.append(
                    f"logpow:1.0 k={k} seed={r.seed}: TV {r.tv_to_po1:.4f} is not within "
                    f"{tol} of the mixed-Poisson prediction {predicted:.4f}"
                )
    for r in records:
        if r.schedule == "zero" and r.k >= 20 and r.tv_to_po1 >= FAIR_COIN_TOL:
            problems.append(f"zero k={r.k}: TV {r.tv_to_po1} to Poisson(1) is not below {FAIR_COIN_TOL}")


def _recount_trial(records, config, trial: int, problems: list) -> None:
    """Redraw trial ``trial`` of every schedule apart from pgl and recount
    each level on its prefix; the record must equal the recount."""
    seed = oracles.derive_seed(config.master_seed, trial)
    top = max(config.k_list)
    for spec in config.schedules:
        bits = oracles.redraw_bits(spec, (1 << top) + top - 1, seed)
        for k in config.k_list:
            masses = oracles.quenched_masses(bits, k)
            n = 1 << k
            expected = tuple(masses.get(m, 0) / n for m in range(3))
            tv = oracles.tv_to_poisson_one(masses, n)
            match = [r for r in records if (r.schedule, r.k, r.seed) == (spec, k, seed)]
            if len(match) != 1:
                problems.append(f"{spec} k={k}: no record for trial {trial}")
                continue
            r = match[0]
            if (r.p0, r.p1, r.p2) != expected or abs(r.tv_to_po1 - tv) > 2e-12:
                problems.append(
                    f"{spec} k={k} trial {trial}: record {(r.p0, r.p1, r.p2, r.tv_to_po1)} "
                    f"!= recount {expected + (tv,)}"
                )


def _check_aggregates(trials, aggregates, config, problems: list) -> None:
    if len(aggregates) != len(config.schedules) * len(config.k_list):
        problems.append(f"{len(aggregates)} annealed rows for {len(config.schedules)}x{len(config.k_list)} cells")
    for a in aggregates:
        members = [r.p0 for r in trials if (r.schedule, r.k) == (a.schedule, a.k)]
        mean = math.fsum(members) / len(members)
        sd = math.sqrt(math.fsum((p - mean) ** 2 for p in members) / (len(members) - 1))
        if abs(a.p0 - mean) > 1e-14 or abs(a.p0_stderr - sd / math.sqrt(len(members))) > 1e-14:
            problems.append(f"{a.schedule} k={a.k}: annealed p0 {a.p0} +- {a.p0_stderr} is not the trial mean")
        if a.seed != config.master_seed:
            problems.append(f"{a.schedule} k={a.k}: annealed row carries seed {a.seed}")


def check_quenched(records, text, config, deep: bool) -> list[str]:
    problems: list[str] = []
    trials = [r for r in records if r.mode == "quenched"]
    _check_csv(records, text, ("schedule", "k", "seed", "mode", "p0", "p1", "p2", "tv_to_po1"), problems)
    _check_trial_records(trials, config, problems)
    _check_against_references(trials, config, problems)
    if deep:
        trial = random.Random(config.master_seed).randrange(config.trials)
        _recount_trial(trials, config, trial, problems)
    return problems


def check_annealed(records, text, config, deep: bool) -> list[str]:
    problems = check_quenched(records, text, config, deep)
    trials = [r for r in records if r.mode == "quenched"]
    _check_aggregates(trials, [r for r in records if r.mode == "annealed"], config, problems)
    return problems


# ---------------------------------------------------------------------------
# bounds


# Largest level whose C term sums all 2^k positions exactly (2^k Gray walks).
FULL_SUM_LEVEL = 13


def _expected_modes(k: int, exact_cap: int) -> tuple[str, str]:
    """(B_mode, C_mode) of the path level k should take."""
    if k > exact_cap:
        return "bound", "monte-carlo"
    return "exact", "exact" if k <= FULL_SUM_LEVEL else "bound"


def check_bounds(records, text, config, deep: bool) -> list[str]:
    problems: list[str] = []
    _check_csv(records, text, ("schedule", "k", "A", "B", "C", "total"), problems)
    if len(records) != len(config.schedules) * len(config.k_list):
        problems.append(f"{len(records)} bounds rows")
    for record in records:
        r = record.report
        where = f"{record.schedule} k={r.k}"
        terms = (r.a_term, r.b_term, r.c_term, r.c_stderr, r.total)
        if not all(math.isfinite(v) and v >= 0 for v in terms):
            problems.append(f"{where}: terms {terms} are not all finite and >= 0")
            continue
        if r.total != r.a_term + r.b_term + r.c_term:
            problems.append(f"{where}: total {r.total} != A + B + C")
        if r.a_term != oracles.neighbour_count_term(r.k):
            problems.append(f"{where}: A {r.a_term} != neighbour count {oracles.neighbour_count_term(r.k)}")
        if (r.b_mode, r.c_mode) != _expected_modes(r.k, config.exact_cap):
            problems.append(f"{where}: modes {(r.b_mode, r.c_mode)}")
        if r.c_mode != "monte-carlo" and r.c_stderr != 0.0:
            problems.append(f"{where}: {r.c_mode} C carries stderr {r.c_stderr}")
        if record.schedule == "zero":
            fair = oracles.fair_coin_pair_sum(r.k)
            if r.b_mode == "exact" and abs(r.b_term - fair) > 1e-12 * fair:
                problems.append(f"{where}: B {r.b_term} != fair-coin sum {fair}")
            if r.b_mode == "bound" and not r.b_term >= fair:
                problems.append(f"{where}: B bound {r.b_term} below the exact fair-coin sum {fair}")
            # every R_j is 1; only the Monte Carlo path adds a head-block bound
            if (r.c_mode != "monte-carlo" and r.c_term != 0.0) or r.c_stderr != 0.0 or r.onset_index != 1:
                problems.append(f"{where}: fair coin has C {r.c_term} +- {r.c_stderr}, j0 {r.onset_index}")
        else:
            if r.c_mode == "monte-carlo" and not r.c_stderr > 0:
                problems.append(f"{where}: Monte Carlo C without a standard error")
            exponent = float(record.schedule.partition(":")[2])
            if r.onset_index != oracles.onset_index_logpow(exponent):
                problems.append(f"{where}: j0 {r.onset_index} != {oracles.onset_index_logpow(exponent)}")
    if deep:
        small = min(config.k_list)
        for record in records:
            r = record.report
            if r.k != small or record.schedule == "zero":
                continue
            b = oracles.brute_pair_sum(record.schedule, small)
            c = oracles.brute_deviation_sum(record.schedule, small)
            if abs(r.b_term - b) > 1e-10 * b or abs(r.c_term - c) > 1e-10 * c:
                problems.append(
                    f"{record.schedule} k={small}: (B, C) = {(r.b_term, r.c_term)} != "
                    f"brute force {(b, c)}"
                )
    return problems


CHECKS = {
    "annealed": check_annealed,
    "quenched": check_quenched,
    "bounds": check_bounds,
}
