"""Experiment orchestration: deterministic sweeps, aggregation, CSV/JSON.

Four experiment modes share one configuration object; ``MODES`` maps each
to its sweep and its CSV columns:

* quenched  - per-trial law of the match count given one sampled sequence;
* annealed  - the quenched trials plus their pattern-and-sequence average;
* bounds    - Stein-method error terms A, B, C per schedule and level;
* nonconv   - joint word/sequence trials probing the non-convergence
              mechanism (tail patterns that fail to appear).

Determinism contract: records are pure functions of the configuration.
Trial t draws its sequence seed as derive_seed(master_seed, t) (shared
across schedules and levels, so trial t examines nested prefixes of one
sequence per schedule) and its pattern seed as
derive_seed(master_seed, t, WORD_TAG).  The histogram modes therefore
make one task of each trial: a worker samples the trial once for every
schedule, at the largest level, and reads every level off the window codes
into one table of trial outcomes per distinct (schedule label, level); each
mode folds it, so a repeated spec or level repeats quenched rows but never
adds trials to an aggregate.  Thread count never changes results: tasks are
mapped in a fixed order and reassembled positionally, and CSV output
excludes wall-clock fields (JSON carries them for diagnostics).
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import cached_property

from .analytics import (
    ChenSteinParams,
    ChenSteinReport,
    TailMass,
    chen_stein_terms,
    critical_onset_index,
    symbol_sum_tail_mass,
    union_bound_hit_probability,
)
from .counter import DENSE_CAP, level_codes, quenched_distribution, window_codes
from .errors import NanGuard, ResourceError
from .sampler import MAX_WORD_LEVEL, derive_seed, sample_sequences, sample_words
from .schedule import cesaro_average, parse_schedule
from .stats import POISSON_ONE, aggregate_annealed, binomial_ci, tv_distance

__all__ = [
    "DEFAULT_SCHEDULES",
    "DEFAULT_K_LIST",
    "SCHEMA_LINE",
    "MODES",
    "ExperimentConfig",
    "ResultRecord",
    "BoundsRecord",
    "NonconvRecord",
    "run_quenched",
    "run_annealed",
    "run_bounds",
    "run_nonconv",
    "schedule_info",
    "records_to_csv",
    "records_to_json",
]

DEFAULT_SCHEDULES = ("logpow:0.25", "logpow:0.5", "logpow:1.0", "zero")
DEFAULT_K_LIST = (10, 12, 14, 16, 18, 20)
SCHEMA_LINE = "# pgl-schema v1"

# Pattern seeds must not collide with sequence seeds for the same trial.
_WORD_TAG = 0x57
# Monte Carlo seed namespace for the bounds mode.
_BOUNDS_TAG = 0xB0

# Each scalar field's kind, keyed by its annotation (a string: future annotations).
_FIELD_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a real number")}


def _require(name: str, value, kind, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One immutable description of a sweep; every record derives from it."""

    schedules: tuple[str, ...] = DEFAULT_SCHEDULES
    k_list: tuple[int, ...] = DEFAULT_K_LIST
    trials: int = 50
    master_seed: int = 1
    epsilon: float = ChenSteinParams.epsilon
    eta: float = 0.1
    mc_samples: int = ChenSteinParams.mc_samples
    exact_cap: int = ChenSteinParams.exact_cap
    threads: int = 1
    union_bound_samples: int = 4

    def __post_init__(self) -> None:
        # Config files may carry strings, nulls, floats or bools where other
        # types belong; reject them before any comparison or seed mixing.
        _require("schedules", self.schedules, (list, tuple), "a list of strings")
        _require("k_list", self.k_list, (list, tuple), "a list of integers")
        object.__setattr__(self, "schedules", tuple(self.schedules))
        object.__setattr__(self, "k_list", tuple(self.k_list))
        for spec in self.schedules:
            _require("schedules entry", spec, str, "a string")
        for field in fields(self):
            if field.type in _FIELD_KINDS:
                _require(field.name, getattr(self, field.name), *_FIELD_KINDS[field.type])
        if not self.schedules:
            raise ValueError("need at least one schedule spec")
        if not self.k_list:
            raise ValueError("need at least one level k")
        for k in self.k_list:
            _require("k_list entry", k, numbers.Integral, "an integer")
            if not 1 <= k <= MAX_WORD_LEVEL:
                raise ValueError(f"level {k} outside 1..{MAX_WORD_LEVEL}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        # ChenSteinParams checks the Stein parameters, symbol_sum_tail_mass eta.
        self.stein_params(max(self.k_list))
        symbol_sum_tail_mass(max(self.k_list), self.eta)
        if self.union_bound_samples < 0:
            raise ValueError("union_bound_samples must be >= 0")
        # Parsing rejects malformed specs and out-of-range biases.
        self.parsed_schedules

    def stein_params(self, k: int) -> ChenSteinParams:
        """The Stein-term parameters of this sweep at level k."""
        return ChenSteinParams(
            k=k,
            epsilon=self.epsilon,
            mc_samples=self.mc_samples,
            exact_cap=self.exact_cap,
            seed=derive_seed(self.master_seed, _BOUNDS_TAG),
        )

    @cached_property
    def parsed_schedules(self) -> tuple:
        """The schedules, parsed once (table files read once) by
        ``__post_init__``; every sweep runs on these objects."""
        return tuple(parse_schedule(spec) for spec in self.schedules)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class ResultRecord(NanGuard):
    """One quenched trial, or one annealed aggregate (mode field tells).

    A trial or level that runs out of memory is emitted with status
    "error: ..." and None summaries; the sweep continues.  wall_time_s times
    only this row's summary (masses and TV distance): the shared trial pass
    that samples and counts belongs to no single row.
    """

    schedule: str
    k: int
    seed: int
    mode: str
    p0: float | None
    p1: float | None
    p2: float | None
    tv_to_po1: float | None
    p0_stderr: float | None = None
    status: str = "ok"
    wall_time_s: float = 0.0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


@dataclass(frozen=True)
class BoundsRecord:
    """Stein-method error terms for one (schedule, level) cell;
    wall_time_s times the whole cell."""

    schedule: str
    report: ChenSteinReport
    wall_time_s: float = 0.0

    def as_dict(self) -> dict:
        return {"schedule": self.schedule, **self.report.as_dict(), "wall_time_s": self.wall_time_s}


@dataclass(frozen=True, slots=True)
class NonconvRecord(NanGuard):
    """Joint word/sequence trials for one (schedule, level) cell.

    p0_hat estimates the annealed no-match probability with a Wilson 95%
    interval; tail_rate is the observed share of patterns in the negative
    symbol-sum tail, tail_and_hit_rate the share that were in the tail AND
    occurred at least once (the quantity that must vanish for slowly
    decaying bias); union_bound_mean averages the positionwise union bound
    over the first few tail patterns (None when none were seen).  Error
    rows ("error: ...") leave every sampled field None.  wall_time_s times
    the tail masses, the interval and the union bounds, not the shared
    trial pass.
    """

    schedule: str
    k: int
    eta: float
    trials: int
    tail_mass_exact: float
    tail_mass_normal: float
    p0_hat: float | None = None
    p0_lo: float | None = None
    p0_hi: float | None = None
    tail_rate: float | None = None
    tail_and_hit_rate: float | None = None
    union_bound_mean: float | None = None
    union_bound_samples: int = 0
    status: str = "ok"
    wall_time_s: float = 0.0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


# ---------------------------------------------------------------------------
# Shared machinery


def _map_tasks(fn, tasks, threads: int) -> list:
    if threads <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))


def _cells(config: ExperimentConfig) -> list[tuple[str, int]]:
    """The sorted (schedule label, level) cell of every (spec entry, level
    entry) pair; a repeated spec or level repeats its cell."""
    labels = [schedule.label for schedule in config.parsed_schedules]
    return sorted((label, k) for label in labels for k in config.k_list)


# ---------------------------------------------------------------------------
# Histogram sweeps: one outcome table, folded by each mode


def _level_outcomes(config: ExperimentConfig, mode: str, outcome) -> dict:
    """``{(label, k): [outcome(trial, k, codes) of trial 0, 1, ...]}`` over
    the distinct schedule labels and levels, ``codes`` the level-k window codes.

    One pass per trial, run by a worker thread, samples the trial once for
    every distinct schedule, at the largest level K; for each schedule it
    builds the level-K window codes once, and each level k masks those
    of its first 2^k windows (``level_codes``).  Levels go in ascending
    order, so at the top level, which comes last, ``outcome`` gets the
    level-K codes themselves and may sort them in place, as the count law
    does.  A MemoryError while sampling is the
    outcome of every schedule and level of the trial, one while building a
    schedule's codes that of each of its levels, and one at a level (its
    masked copy included) that of the level alone.
    """
    bad = [k for k in config.k_list if k > DENSE_CAP]
    if bad:
        raise ResourceError(
            f"{mode} mode counts all 2^k windows; levels {bad} exceed {DENSE_CAP}"
        )
    levels = sorted(set(config.k_list))
    top = levels[-1]
    length = (1 << top) + top - 1
    schedules = list({parsed.label: parsed for parsed in config.parsed_schedules}.values())

    def read_levels(trial, sequence):
        try:
            codes = window_codes(sequence, top)
        except MemoryError as exc:
            return [exc] * len(levels)
        outcomes = []
        for k in levels:
            try:
                outcomes.append(outcome(trial, k, level_codes(codes, k)))
            except MemoryError as exc:
                outcomes.append(exc)
        return outcomes

    def work(trial):
        try:
            sequences = sample_sequences(schedules, length, derive_seed(config.master_seed, trial))
        except MemoryError as exc:
            return [[exc] * len(levels)] * len(schedules)
        return [read_levels(trial, sequence) for sequence in sequences]

    rows = _map_tasks(work, range(config.trials), config.threads)
    return {
        (schedule.label, k): [row[s][i] for row in rows]
        for s, schedule in enumerate(schedules) for i, k in enumerate(levels)
    }


def _count_law(trial: int, k: int, codes):
    return quenched_distribution(codes)


def _law_record(
    label: str, k: int, seed: int, mode: str, law, p0_stderr: float | None = None
) -> ResultRecord:
    """Summarize a count law against Poisson(1); an exception in place of
    the law makes an error row."""
    start = time.perf_counter()
    p0 = p1 = p2 = tv = None
    status = "ok"
    if isinstance(law, BaseException):
        status = f"error: {law}"
    else:
        p0, p1, p2 = law.mass(0), law.mass(1), law.mass(2)
        tv = tv_distance(law, POISSON_ONE)
    return ResultRecord(
        schedule=label, k=k, seed=seed, mode=mode, p0=p0, p1=p1, p2=p2, tv_to_po1=tv,
        p0_stderr=p0_stderr, status=status, wall_time_s=time.perf_counter() - start,
    )


def _trial_records(config: ExperimentConfig, table: dict) -> list[ResultRecord]:
    """One sorted row per (spec entry, level entry, trial); a repeated spec
    or level repeats its rows."""
    records = [
        _law_record(label, k, derive_seed(config.master_seed, trial), "quenched", law)
        for label, k in _cells(config) for trial, law in enumerate(table[label, k])
    ]
    return sorted(records, key=lambda r: (r.schedule, r.k, r.seed))


def run_quenched(config: ExperimentConfig) -> list[ResultRecord]:
    """Per-trial match-count laws for every (schedule, level, trial)."""
    return _trial_records(config, _level_outcomes(config, "quenched", _count_law))


def run_annealed(config: ExperimentConfig) -> list[ResultRecord]:
    """Quenched trials plus, per (schedule, level), their trial average.

    Aggregate rows carry mode="annealed", the master seed, and the standard
    error of the no-match mass across trials.  Each distinct (schedule,
    level) cell averages the laws of its successful trials once each, in
    trial order.
    """
    table = _level_outcomes(config, "annealed", _count_law)
    aggregates = []
    for (label, k), outcomes in sorted(table.items()):
        laws = [law for law in outcomes if not isinstance(law, BaseException)]
        law, p0_stderr = RuntimeError("no successful trials to aggregate"), None
        if laws:
            law, stderr = aggregate_annealed(laws)
            p0_stderr = stderr.get(0, 0.0)
        aggregates.append(_law_record(label, k, config.master_seed, "annealed", law, p0_stderr))
    return _trial_records(config, table) + aggregates


# ---------------------------------------------------------------------------
# Bounds


def run_bounds(config: ExperimentConfig) -> list[BoundsRecord]:
    """Stein-method error terms A, B, C for every (schedule, level).

    Each distinct (schedule label, level) cell is computed once, and each
    schedule's onset index once for all its levels; a repeated spec or level
    repeats its row.
    """
    schedules = {schedule.label: schedule for schedule in config.parsed_schedules}
    onsets = {label: critical_onset_index(schedule) for label, schedule in schedules.items()}
    cells = _cells(config)
    # largest level first, so that the workers finish together
    distinct = sorted(set(cells), key=lambda cell: (-cell[1], cell[0]))

    def work(cell):
        label, k = cell
        start = time.perf_counter()
        report = chen_stein_terms(schedules[label], config.stein_params(k), onsets[label])
        return BoundsRecord(schedule=label, report=report, wall_time_s=time.perf_counter() - start)

    records = dict(zip(distinct, _map_tasks(work, distinct, config.threads)))
    return [records[cell] for cell in cells]


# ---------------------------------------------------------------------------
# Non-convergence probe


def run_nonconv(config: ExperimentConfig) -> list[NonconvRecord]:
    """Joint pattern/sequence probe of the non-convergence mechanism.

    Per (schedule, level), each trial draws an independent pattern and
    sequence; the probe returns the pattern code and whether it occurs, and
    the cell's TailMass says whether the pattern is in the symbol-sum tail.
    Like the quenched trials, trial t reads every level off one sequence per
    schedule, and its pattern at level k is the low k bits of one draw.
    """
    def probe(trial, k, codes):
        word = int(sample_words(k, derive_seed(config.master_seed, trial, _WORD_TAG), 1)[0])
        return word, bool((codes == word).any())

    records = []
    for (label, k), outcomes in sorted(_level_outcomes(config, "nonconv", probe).items()):
        start = time.perf_counter()
        tail = symbol_sum_tail_mass(k, config.eta)
        sampled = _sampled_statistics(config, label, k, tail, outcomes)
        records.append(NonconvRecord(
            schedule=label, k=k, eta=config.eta, trials=len(outcomes),
            tail_mass_exact=tail.exact, tail_mass_normal=tail.normal_approx,
            wall_time_s=time.perf_counter() - start, **sampled,
        ))
    return records


def _sampled_statistics(
    config: ExperimentConfig, label: str, k: int, tail: TailMass, outcomes
) -> dict:
    """The sampled fields of one nonconv cell, or its error status if a trial
    failed.  A pattern with at most tail.max_plus +1 symbols is in the tail, the
    set of mass tail.exact; the first union_bound_samples of them get a union bound."""
    failed = [outcome for outcome in outcomes if isinstance(outcome, BaseException)]
    if failed:
        return {"status": f"error: {failed[0]}"}
    trials = len(outcomes)
    absent = sum(1 for _, hit in outcomes if not hit)
    in_tail = [(word, hit) for word, hit in outcomes if word.bit_count() <= tail.max_plus]
    tail_hit = sum(1 for _, hit in in_tail if hit)
    tail_words = [word for word, _ in in_tail]
    lo, hi = binomial_ci(absent, trials, 0.95)
    schedule = next(s for s in config.parsed_schedules if s.label == label)
    union_words = tail_words[: config.union_bound_samples]
    union_total = 0.0
    for bound in union_bound_hit_probability(schedule, k, union_words):
        union_total += bound  # left to right, as in stats.tv_distance
    return {
        "p0_hat": absent / trials, "p0_lo": lo, "p0_hi": hi,
        "tail_rate": len(tail_words) / trials, "tail_and_hit_rate": tail_hit / trials,
        "union_bound_mean": union_total / len(union_words) if union_words else None,
        "union_bound_samples": len(union_words),
    }


# ---------------------------------------------------------------------------
# Schedule inspection


def schedule_info(spec_text: str) -> dict:
    """Parse one schedule spec string (which checks its range) and summarize it."""
    schedule = parse_schedule(spec_text)
    sample_points = (1, 2, 10, 100, 1000, 10**6)
    return {
        "spec": spec_text,
        "label": schedule.label,
        "kakutani": schedule.kakutani.value,
        "gamma": {str(n): schedule.gamma(n) for n in sample_points},
        "cesaro": {
            str(n): cesaro_average(schedule, n) for n in (10**3, 10**6)
        },
        "onset_index": critical_onset_index(schedule),
    }


# ---------------------------------------------------------------------------
# Serialization


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# Each mode's sweep and its CSV columns.  The columns are not the record
# fields: quenched rows leave out p0_stderr, and the bounds columns name the
# report's terms (lambda, A, j0, ...).
MODES = {
    "quenched": (
        run_quenched,
        ("schedule", "k", "seed", "mode", "p0", "p1", "p2", "tv_to_po1", "status"),
    ),
    "annealed": (
        run_annealed,
        ("schedule", "k", "seed", "mode", "p0", "p1", "p2", "p0_stderr", "tv_to_po1", "status"),
    ),
    "bounds": (
        run_bounds,
        ("schedule", "k", "lambda", "A", "B", "B_mode", "C", "C_mode", "C_stderr", "total",
         "j0", "epsilon", "theta"),
    ),
    "nonconv": (
        run_nonconv,
        ("schedule", "k", "eta", "trials", "tail_mass_exact", "tail_mass_normal", "p0_hat",
         "p0_lo", "p0_hi", "tail_rate", "tail_and_hit_rate", "union_bound_mean",
         "union_bound_samples", "status"),
    ),
}


def records_to_csv(mode: str, records) -> str:
    """Render records for one mode as deterministic CSV.

    The first line is the schema tag, then a header row, then one row per
    record.  Floats use shortest round-trip formatting; wall-clock fields
    are deliberately absent so repeated runs are byte-identical.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    _, columns = MODES[mode]
    buffer = io.StringIO()
    buffer.write(SCHEMA_LINE + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for record in records:
        data = record.as_dict()
        writer.writerow([_format_cell(data.get(col)) for col in columns])
    return buffer.getvalue()


def records_to_json(mode: str, records, config: ExperimentConfig) -> str:
    """Render records and their config as JSON, including wall-clock diagnostics."""
    payload = {
        "schema": SCHEMA_LINE.lstrip("# "),
        "mode": mode,
        "records": [record.as_dict() for record in records],
        "config": config.as_dict(),
    }
    return json.dumps(payload, indent=2) + "\n"
