"""Experiment sweeps: determinism, aggregation, serialization, error capture."""

import csv
import io
import json
import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgl.runner as runner
import pgl.sampler as sampler
from pgl.analytics import (
    MC_SAMPLES_CAP,
    ChenSteinParams,
    chen_stein_terms,
    critical_onset_index,
    symbol_sum_tail_mass,
)
from pgl.counter import quenched_distribution, window_codes
from pgl.errors import ResourceError
from pgl.runner import (
    DEFAULT_K_LIST,
    DEFAULT_SCHEDULES,
    MODES,
    ExperimentConfig,
    NonconvRecord,
    ResultRecord,
    SCHEMA_LINE,
    records_to_csv,
    records_to_json,
    run_annealed,
    run_bounds,
    run_nonconv,
    run_quenched,
    schedule_info,
)
from pgl.sampler import derive_seed, sample_sequence, sample_words
from pgl.schedule import LogPower, Table, Zero, parse_schedule
from pgl.stats import POISSON_ONE, aggregate_annealed, tv_distance

E_INV = math.exp(-1.0)


def small_config(**overrides) -> ExperimentConfig:
    base = dict(schedules=("zero", "logpow:1.0"), k_list=(4, 6), trials=3,
                master_seed=91)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_cover_the_standard_sweep(self):
        assert DEFAULT_SCHEDULES == ("logpow:0.25", "logpow:0.5", "logpow:1.0", "zero")
        assert DEFAULT_K_LIST == (10, 12, 14, 16, 18, 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(schedules=())
        with pytest.raises(ValueError):
            small_config(k_list=(0,))
        with pytest.raises(ValueError):
            small_config(k_list=(61,))
        with pytest.raises(ValueError):
            small_config(trials=0)
        with pytest.raises(ValueError):
            small_config(threads=0)
        with pytest.raises(ValueError):
            small_config(eta=-1.0)
        with pytest.raises(ValueError):
            small_config(schedules=("bogus:1",))

    @pytest.mark.parametrize(
        "field", ["trials", "master_seed", "threads", "mc_samples", "exact_cap",
                  "union_bound_samples"],
    )
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_rejects_non_integer_counts_and_seeds(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            small_config(**{field: value})

    @pytest.mark.parametrize("value", [4.5, 4.0, False])
    def test_rejects_non_integer_levels(self, value):
        with pytest.raises(ValueError, match="k_list entry must be an integer"):
            small_config(k_list=(3, value))

    @pytest.mark.parametrize("field", ["epsilon", "eta"])
    @pytest.mark.parametrize("value", ["0.1", True, None])
    def test_rejects_non_real_parameters(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            small_config(**{field: value})

    @pytest.mark.parametrize("field", ["eta"])
    def test_rejects_nan_parameters(self, field):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: float("nan")})

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_rejects_an_infinite_eta(self, value):
        with pytest.raises(ValueError, match="eta must be a finite number >= 0"):
            small_config(eta=value)

    def test_caps_mc_samples_before_any_work(self):
        # construction allocates nothing; the cap itself is accepted
        assert small_config(mc_samples=MC_SAMPLES_CAP).mc_samples == MC_SAMPLES_CAP
        with pytest.raises(ResourceError, match="mc_samples 4194305 exceeds the memory policy"):
            small_config(mc_samples=MC_SAMPLES_CAP + 1)

    @pytest.mark.parametrize("value", ["zero", None])
    def test_rejects_schedules_that_are_not_a_list(self, value):
        with pytest.raises(ValueError, match="schedules must be a list of strings"):
            small_config(schedules=value)

    def test_rejects_a_schedule_that_is_not_a_string(self):
        with pytest.raises(ValueError, match="schedules entry must be a string, got 1"):
            small_config(schedules=("zero", 1))

    def test_rejects_a_level_list_that_is_not_a_list(self):
        with pytest.raises(ValueError, match="k_list must be a list of integers"):
            small_config(k_list=4)

    def test_rebuilds_from_its_json_dict(self):
        config = small_config(schedules=["zero"], k_list=[4, 5])
        assert config.schedules == ("zero",) and config.k_list == (4, 5)
        loaded = json.loads(json.dumps(config.as_dict()))
        rebuilt = ExperimentConfig(
            **{k: tuple(v) if isinstance(v, list) else v for k, v in loaded.items()}
        )
        assert rebuilt == config

    def test_runs_use_the_table_validated_when_the_config_was_built(self, tmp_path):
        path = tmp_path / "bias.txt"
        path.write_text("0.1\n0.2\n0.1\n")
        cfg = small_config(schedules=(f"table:{path}",))
        sweeps = {"quenched": run_quenched, "bounds": run_bounds, "nonconv": run_nonconv}
        before = {mode: records_to_csv(mode, run(cfg)) for mode, run in sweeps.items()}
        path.write_text("0.1\n0.6\n0.1\n")
        after = {mode: records_to_csv(mode, run(cfg)) for mode, run in sweeps.items()}
        assert after == before

    def test_theta_is_not_a_field(self):
        assert "theta" not in small_config().as_dict()
        with pytest.raises(TypeError, match="theta"):
            small_config(theta=0.25)

    def test_accepts_numpy_integers(self):
        config = small_config(trials=np.int64(2), k_list=(np.int32(3),))
        assert config.trials == 2 and config.k_list == (3,)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("epsilon", 0.0, r"epsilon must lie in \(0, 1\)"),
            ("mc_samples", 1, "mc_samples must be >= 2"),
            ("exact_cap", 27, r"exact_cap must lie in 1\.\.26"),
        ],
    )
    def test_rejects_each_bad_stein_parameter(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            small_config(**{field: value})

    @pytest.mark.parametrize("spec", ["const:0.7", "const:nan", "const:-0.5"])
    def test_rejects_biases_outside_the_open_half_interval(self, spec):
        with pytest.raises(ValueError, match="outside"):
            small_config(schedules=("zero", spec))

    def test_checks_every_table_entry(self, tmp_path):
        # 0.6 sits at position 3, between positions 2 and 4
        path = tmp_path / "bias.txt"
        path.write_text("0.1\n0.2\n0.6\n0.1\n")
        with pytest.raises(ValueError, match=r"gamma\(3\) = 0\.6"):
            small_config(schedules=(f"table:{path}",))
        path.write_text("0.1\n0.2\n0.3\n0.1\n")
        assert small_config(schedules=(f"table:{path}",)).schedules

    def test_histogram_modes_enforce_the_dense_cap(self):
        cfg = small_config(k_list=(10, 30))
        with pytest.raises(ResourceError):
            run_quenched(cfg)
        with pytest.raises(ResourceError):
            run_annealed(cfg)
        with pytest.raises(ResourceError):
            run_nonconv(cfg)

    def test_one_level_cap_raises_one_error_class(self):
        # the sweeps and the code build refuse the first level above the cap alike
        cfg = small_config(k_list=(27,))
        for run in (run_quenched, run_annealed, run_nonconv):
            with pytest.raises(ResourceError, match="exceed 26"):
                run(cfg)
        seq = sample_sequence(Zero(), 64, seed=1)
        with pytest.raises(ResourceError, match="cap 26"):
            window_codes(seq, 27)


class TestQuenched:
    def test_records_are_sorted_and_deterministic(self):
        cfg = small_config()
        records = run_quenched(cfg)
        assert len(records) == 2 * 2 * 3
        keys = [(r.schedule, r.k, r.seed) for r in records]
        assert keys == sorted(keys)
        assert records_to_csv("quenched", records) == records_to_csv(
            "quenched", run_quenched(cfg)
        )

    def test_thread_count_does_not_change_the_output(self):
        csv_one = records_to_csv("quenched", run_quenched(small_config(threads=1)))
        csv_three = records_to_csv("quenched", run_quenched(small_config(threads=3)))
        assert csv_one == csv_three

    def test_seed_set_is_shared_across_cells(self):
        cfg = small_config()
        records = run_quenched(cfg)
        expected = {derive_seed(cfg.master_seed, t) for t in range(cfg.trials)}
        for schedule in cfg.schedules:
            for k in cfg.k_list:
                cell = {r.seed for r in records
                        if r.schedule == schedule and r.k == k}
                assert cell == expected

    def test_record_matches_a_direct_pipeline_run(self):
        cfg = small_config(schedules=("logpow:1.0",), k_list=(6,), trials=2)
        record = run_quenched(cfg)[0]
        sched = parse_schedule("logpow:1.0")
        seq = sample_sequence(sched, (1 << 6) + 5, seed=record.seed)
        law = quenched_distribution(window_codes(seq, 6))
        assert record.mode == "quenched"
        assert record.status == "ok"
        assert record.p0 == law.mass(0)
        assert record.p1 == law.mass(1)
        assert record.p2 == law.mass(2)
        tv = tv_distance(law, POISSON_ONE)
        assert record.tv_to_po1 == tv

    def test_each_trial_is_one_sampling_call_for_every_schedule(self, monkeypatch):
        cfg = small_config(schedules=("zero", "logpow:1.0", "zero"), k_list=(6, 4, 6), trials=5)
        whole = records_to_csv("quenched", run_quenched(cfg))
        real = runner.sample_sequences
        calls = []

        def spy(schedules, length, seed):
            calls.append(([s.label for s in schedules], length, seed))
            return real(schedules, length, seed)

        monkeypatch.setattr(runner, "sample_sequences", spy)
        seeds = [derive_seed(cfg.master_seed, t) for t in range(cfg.trials)]
        # one call per trial, in trial order, at the top level 6 (69 bits),
        # for each distinct schedule once
        assert records_to_csv("quenched", run_quenched(cfg)) == whole
        assert calls == [(["zero", "logpow:1.0"], (1 << 6) + 5, seed) for seed in seeds]
        calls.clear()
        threaded = records_to_csv("quenched", run_quenched(replace(cfg, threads=3)))
        assert threaded == whole
        assert sorted(seed for _, _, seed in calls) == sorted(seeds)

    def test_sampling_runs_in_the_worker_threads(self, monkeypatch):
        real = runner.sample_sequences
        threads = []

        def spy(schedules, length, seed):
            threads.append(threading.current_thread() is threading.main_thread())
            return real(schedules, length, seed)

        monkeypatch.setattr(runner, "sample_sequences", spy)
        run_quenched(small_config(threads=2, trials=3))
        assert threads == [False] * 3
        threads.clear()
        run_quenched(small_config(threads=1, trials=3))
        assert threads == [True] * 3

    def test_memory_error_in_a_shared_pass_marks_its_trial(self, monkeypatch):
        cfg = small_config(k_list=(6, 4), trials=3)
        failing_seed = derive_seed(cfg.master_seed, 1)
        # the shared pass samples 2^6 + 5 positions, at the top level
        failing = sample_sequence(Zero(), (1 << 6) + 5, failing_seed).packed
        real = runner.window_codes

        def short_of_memory(sequence, k):
            if np.array_equal(sequence.packed, failing):
                raise MemoryError("synthetic pressure")
            return real(sequence, k)

        monkeypatch.setattr(runner, "window_codes", short_of_memory)
        records = run_quenched(cfg)
        assert len(records) == 2 * 2 * 3
        for r in records:
            if (r.schedule, r.seed) == ("zero", failing_seed):
                assert r.status == "error: synthetic pressure" and r.p0 is None
            else:
                assert r.status == "ok"

    def test_memory_error_while_sampling_marks_that_trial_alone(self, monkeypatch):
        cfg = small_config(trials=3)
        failing_seed = derive_seed(cfg.master_seed, 1)
        real = runner.sample_sequences

        def short_of_memory(schedules, length, seed):
            if seed == failing_seed:
                raise MemoryError("synthetic pressure")
            return real(schedules, length, seed)

        monkeypatch.setattr(runner, "sample_sequences", short_of_memory)
        records = run_annealed(cfg)
        quenched = [r for r in records if r.mode == "quenched"]
        # 2 schedules x 2 levels x 3 trials, then one aggregate per cell
        assert len(quenched) == 12 and len(records) == 16
        for r in quenched:
            if r.seed == failing_seed:
                assert r.status == "error: synthetic pressure" and r.p0 is None
            else:
                assert r.status == "ok"
        # each aggregate folds the two other trials
        for r in records[12:]:
            laws = [
                quenched_distribution(window_codes(
                    sample_sequence(parse_schedule(r.schedule), (1 << r.k) + r.k - 1,
                                    derive_seed(cfg.master_seed, t)), r.k))
                for t in (0, 2)
            ]
            law, stderr = aggregate_annealed(laws)
            assert r.status == "ok"
            assert (r.p0, r.p0_stderr) == (law.mass(0), stderr.get(0, 0.0))

    def test_memory_error_while_sampling_gives_nonconv_error_rows(self, monkeypatch):
        def short_of_memory(schedules, length, seed):
            raise MemoryError("synthetic pressure")

        monkeypatch.setattr(runner, "sample_sequences", short_of_memory)
        records = run_nonconv(small_config(schedules=("zero",), trials=2))
        assert [(r.k, r.status) for r in records] == [
            (4, "error: synthetic pressure"), (6, "error: synthetic pressure")
        ]
        for r in records:
            tail = symbol_sum_tail_mass(r.k, r.eta)
            assert (r.trials, r.tail_mass_exact, r.tail_mass_normal) == (
                2, tail.exact, tail.normal_approx
            )
            assert (r.p0_hat, r.p0_lo, r.p0_hi, r.tail_rate, r.tail_and_hit_rate,
                    r.union_bound_mean, r.union_bound_samples) == (None,) * 6 + (0,)
        # the sampled statistics are empty cells
        row = records_to_csv("nonconv", records).splitlines()[2]
        assert row.endswith(",,,,,,,0,error: synthetic pressure")

    def test_memory_error_at_one_level_gives_one_nonconv_error_row(self, monkeypatch):
        real = runner.level_codes

        def flaky(codes, k):
            if k == 6:
                raise MemoryError("synthetic pressure")
            return real(codes, k)

        monkeypatch.setattr(runner, "level_codes", flaky)
        records = run_nonconv(small_config(schedules=("zero",), trials=2))
        assert [(r.k, r.status) for r in records] == [
            (4, "ok"), (6, "error: synthetic pressure")
        ]

    def test_fair_sequences_sit_close_to_poisson(self):
        cfg = small_config(schedules=("zero",), k_list=(18,), trials=5)
        records = run_quenched(cfg)
        assert len(records) == 5
        assert all(r.tv_to_po1 < 0.05 for r in records)

    def test_saturated_bias_leaves_most_patterns_absent(self):
        cfg = small_config(schedules=("logpow:0.25",), k_list=(16,), trials=3)
        for record in run_quenched(cfg):
            assert record.p0 > 0.5

    @pytest.mark.xfail(
        strict=True,
        reason="at level 18 the borderline log decay still holds the no-match "
        "mass ~0.09 above exp(-1); the 0.05 window needs far larger levels",
    )
    def test_borderline_decay_no_match_mass_within_five_points(self):
        cfg = small_config(schedules=("logpow:1.0",), k_list=(18,), trials=5)
        for record in run_quenched(cfg):
            assert abs(record.p0 - E_INV) < 0.05


@st.composite
def level_lists(draw):
    """Small unsorted level lists with repeats and gaps of 1 and 7."""
    levels = [draw(st.integers(1, 6))]
    for gap in draw(st.lists(st.sampled_from((1, 7)), max_size=2)):
        levels.append(levels[-1] + gap)
    repeats = draw(st.lists(st.sampled_from(levels), max_size=2))
    return tuple(draw(st.permutations(levels + repeats)))


class TestSharedPasses:
    """One pass per trial gives what a pass per record gives."""

    @settings(max_examples=20, deadline=None)
    @given(
        k_list=level_lists(),
        trials=st.integers(1, 3),
        threads=st.sampled_from((1, 4)),
        master_seed=st.integers(0, 2**32),
    )
    def test_records_equal_the_per_record_pipeline(self, k_list, trials, threads, master_seed):
        cfg = small_config(k_list=k_list, trials=trials, threads=threads,
                           master_seed=master_seed)
        expected = []
        for spec in cfg.schedules:
            schedule = parse_schedule(spec)
            for k in k_list:
                for trial in range(trials):
                    seed = derive_seed(master_seed, trial)
                    sequence = sample_sequence(schedule, (1 << k) + k - 1, seed)
                    law = quenched_distribution(window_codes(sequence, k))
                    tv = tv_distance(law, POISSON_ONE)
                    expected.append((spec, k, seed, "quenched", law.mass(0), law.mass(1),
                                     law.mass(2), tv, "ok"))
        expected.sort(key=lambda row: row[:3])
        got = [(r.schedule, r.k, r.seed, r.mode, r.p0, r.p1, r.p2, r.tv_to_po1, r.status)
               for r in run_quenched(cfg)]
        assert got == expected

    @settings(max_examples=10, deadline=None)
    @given(
        schedules=st.lists(st.sampled_from(("zero", "logpow:1", "logpow:1.0")),
                           min_size=1, max_size=3),
        k_list=level_lists(),
        trials=st.integers(1, 3),
        threads=st.sampled_from((1, 4)),
        master_seed=st.integers(0, 2**32),
    )
    def test_aggregates_count_each_trial_once(self, schedules, k_list, trials, threads,
                                              master_seed):
        cfg = small_config(schedules=tuple(schedules), k_list=k_list, trials=trials,
                           threads=threads, master_seed=master_seed, union_bound_samples=0)
        cells = sorted({(parse_schedule(spec).label, k) for spec in schedules for k in k_list})
        expected = []
        for label, k in cells:
            schedule = parse_schedule(label)
            laws = [
                quenched_distribution(window_codes(
                    sample_sequence(schedule, (1 << k) + k - 1, derive_seed(master_seed, t)), k
                ))
                for t in range(trials)
            ]
            law, stderr = aggregate_annealed(laws)
            tv = tv_distance(law, POISSON_ONE)
            expected.append((label, k, law.mass(0), law.mass(1), law.mass(2),
                             stderr.get(0, 0.0), tv))
        got = [(r.schedule, r.k, r.p0, r.p1, r.p2, r.p0_stderr, r.tv_to_po1)
               for r in run_annealed(cfg) if r.mode == "annealed"]
        assert got == expected
        assert [(r.schedule, r.k, r.trials) for r in run_nonconv(cfg)] == [
            (label, k, trials) for label, k in cells
        ]


    def test_each_trial_draws_its_words_once_for_every_schedule(self, monkeypatch):
        # 4 schedules x 3 trials over a 263-position sequence in chunks of
        # 64 positions: one generator per trial, read once per chunk in
        # order (3 x 5 reads), where one draw per schedule made 60
        generators = []

        class CountingPhilox:
            def __init__(self, key):
                self.key, self.reads = key, []
                self.inner = np.random.Philox(key=key)
                generators.append(self)

            def random_raw(self, count):
                self.reads.append(count)
                return self.inner.random_raw(count)

        cfg = small_config(schedules=DEFAULT_SCHEDULES, k_list=(6, 8), trials=3)
        whole = records_to_csv("annealed", run_annealed(cfg))
        monkeypatch.setattr(sampler, "_CHUNK", 64)
        monkeypatch.setattr(sampler, "Philox", CountingPhilox)
        assert records_to_csv("annealed", run_annealed(cfg)) == whole
        seeds = [derive_seed(cfg.master_seed, t) for t in range(3)]
        assert sorted(g.key for g in generators) == sorted(seeds)
        assert all(g.reads == [64, 64, 64, 64, 7] for g in generators)


class TestNanGuard:
    def test_result_record_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN in tv_to_po1"):
            ResultRecord(schedule="zero", k=4, seed=1, mode="quenched", p0=0.5,
                         p1=0.25, p2=0.25, tv_to_po1=math.nan)
        # None marks an error row and passes
        assert ResultRecord(schedule="zero", k=4, seed=1, mode="quenched", p0=None,
                            p1=None, p2=None, tv_to_po1=None).p0 is None

    def test_nonconv_record_rejects_nan(self):
        fields = dict(schedule="zero", k=4, eta=0.1, trials=2, tail_mass_exact=0.3,
                      tail_mass_normal=0.3, p0_hat=0.5, p0_lo=0.1, p0_hi=0.9,
                      tail_rate=0.5, tail_and_hit_rate=0.0, union_bound_mean=None,
                      union_bound_samples=0)
        assert NonconvRecord(**fields).p0_hat == 0.5
        fields["union_bound_mean"] = math.nan
        with pytest.raises(ValueError, match="NaN in union_bound_mean"):
            NonconvRecord(**fields)


class TestAnnealed:
    def test_aggregate_is_the_mean_of_its_trials(self):
        cfg = small_config(schedules=("zero",), k_list=(6,), trials=4)
        records = run_annealed(cfg)
        trials = [r for r in records if r.mode == "quenched"]
        aggregates = [r for r in records if r.mode == "annealed"]
        assert len(trials) == 4 and len(aggregates) == 1
        agg = aggregates[0]
        assert agg.seed == cfg.master_seed
        assert agg.p0 == pytest.approx(
            sum(r.p0 for r in trials) / 4, abs=1e-15
        )
        sd = math.sqrt(
            sum((r.p0 - agg.p0) ** 2 for r in trials) / 3
        )
        assert agg.p0_stderr == pytest.approx(sd / 2, rel=1e-12)

    def test_single_trial_aggregate_equals_the_trial(self):
        cfg = small_config(schedules=("zero",), k_list=(8,), trials=1)
        records = run_annealed(cfg)
        trial = next(r for r in records if r.mode == "quenched")
        agg = next(r for r in records if r.mode == "annealed")
        assert (agg.p0, agg.p1, agg.p2) == (trial.p0, trial.p1, trial.p2)
        assert agg.p0_stderr == 0.0

    def test_fair_sequences_match_poisson_mass_at_zero(self):
        cfg = small_config(schedules=("zero",), k_list=(14,), trials=100)
        agg = next(r for r in run_annealed(cfg) if r.mode == "annealed")
        assert abs(agg.p0 - E_INV) <= 4 * agg.p0_stderr

    def test_saturated_bias_overshoots_poisson_mass_at_zero(self):
        cfg = small_config(schedules=("logpow:0.25",), k_list=(14,), trials=100)
        agg = next(r for r in run_annealed(cfg) if r.mode == "annealed")
        assert agg.p0 - E_INV > 0.1

    def test_a_repeated_schedule_label_adds_no_trials(self):
        # both specs parse to logpow:1.0: one aggregate over three laws
        cfg = small_config(schedules=("logpow:1", "logpow:1.0"), k_list=(6,), trials=3)
        records = run_annealed(cfg)
        trials = [r for r in records if r.mode == "quenched"]
        aggregates = [r for r in records if r.mode == "annealed"]
        assert len(trials) == 6 and len(aggregates) == 1
        once = run_annealed(small_config(schedules=("logpow:1.0",), k_list=(6,), trials=3))
        assert records_to_csv("annealed", aggregates) == records_to_csv(
            "annealed", [r for r in once if r.mode == "annealed"]
        )
        nonconv = run_nonconv(cfg)
        assert [(r.schedule, r.trials) for r in nonconv] == [("logpow:1.0", 3)]

    def test_sorting_the_top_level_in_place_leaves_lower_levels_intact(self):
        # the count law sorts the top level's codes, the shared pass's own
        # array; the levels read before it must see the unsorted codes
        cfg = small_config(k_list=(6, 4, 6), trials=3)
        expected = []
        for spec in cfg.schedules:
            schedule = parse_schedule(spec)
            for k in (4, 6):
                laws = [
                    quenched_distribution(window_codes(
                        sample_sequence(schedule, (1 << k) + k - 1, derive_seed(91, t)), k
                    ))
                    for t in range(3)
                ]
                rows = [(spec, k, derive_seed(91, t), "quenched", law.mass(0), law.mass(1),
                         law.mass(2), None) for t, law in enumerate(laws)]
                expected += rows * (2 if k == 6 else 1)
                law, stderr = aggregate_annealed(laws)
                expected.append((spec, k, 91, "annealed", law.mass(0), law.mass(1),
                                 law.mass(2), stderr.get(0, 0.0)))
        got = [(r.schedule, r.k, r.seed, r.mode, r.p0, r.p1, r.p2, r.p0_stderr)
               for r in run_annealed(cfg)]
        assert sorted(got, key=repr) == sorted(expected, key=repr)

    def test_trial_errors_are_isolated_per_record(self, monkeypatch):
        real = runner.quenched_distribution

        def flaky(codes):
            if codes.size == 1 << 6:
                raise MemoryError("synthetic pressure")
            return real(codes)

        monkeypatch.setattr(runner, "quenched_distribution", flaky)
        cfg = small_config(schedules=("zero",), k_list=(4, 6), trials=2)
        records = run_annealed(cfg)
        ok = [r for r in records if r.k == 4]
        broken = [r for r in records if r.k == 6]
        assert all(r.status == "ok" for r in ok)
        assert all(r.status.startswith("error:") for r in broken)
        assert all(r.p0 is None for r in broken)
        # the sweep still renders; empty cells stay empty in CSV
        text = records_to_csv("annealed", records)
        assert "synthetic pressure" in text


class TestBounds:
    def test_reports_match_the_analytics_module(self):
        cfg = small_config(schedules=("logpow:1.0",), k_list=(8,))
        record = run_bounds(cfg)[0]
        params = ChenSteinParams(
            k=8,
            epsilon=cfg.epsilon,
            mc_samples=cfg.mc_samples,
            exact_cap=cfg.exact_cap,
            seed=derive_seed(cfg.master_seed, runner._BOUNDS_TAG),
        )
        assert record.report.as_dict() == chen_stein_terms(
            parse_schedule("logpow:1.0"), params
        ).as_dict()

    def test_unbiased_reports_have_no_deviation_term(self):
        cfg = small_config(schedules=("zero",), k_list=(3, 8))
        records = run_bounds(cfg)
        by_k = {r.report.k: r.report for r in records}
        assert by_k[3].a_term == pytest.approx(0.53125, rel=1e-14)
        for report in by_k.values():
            assert report.c_term == 0.0
            assert report.total == pytest.approx(
                report.a_term + report.b_term, rel=1e-14
            )

    def test_a_repeated_cell_is_computed_once(self, monkeypatch):
        real = runner.chen_stein_terms
        calls = []

        def counted(schedule, params):
            calls.append((schedule.label, params.k))
            return real(schedule, params)

        monkeypatch.setattr(runner, "chen_stein_terms", counted)
        # both logpow specs have the label logpow:1.0: 9 rows, 4 cells
        cfg = small_config(schedules=("logpow:1", "logpow:1.0", "zero"), k_list=(8, 12, 8))
        rows = records_to_csv("bounds", run_bounds(cfg)).splitlines()
        assert sorted(calls) == [("logpow:1.0", 8), ("logpow:1.0", 12), ("zero", 8), ("zero", 12)]
        monkeypatch.undo()
        once = small_config(schedules=("logpow:1.0", "zero"), k_list=(8, 12))
        expected = records_to_csv("bounds", run_bounds(once)).splitlines()
        header, (a8, a12, z8, z12) = expected[:2], expected[2:]
        assert rows == header + [a8] * 4 + [a12] * 2 + [z8] * 2 + [z12]

    def test_levels_beyond_the_histogram_cap_still_run(self):
        cfg = small_config(schedules=("zero",), k_list=(30,))
        record = run_bounds(cfg)[0]
        assert record.report.k == 30
        assert record.report.total > 0.0


class TestTableSchedules:
    def test_a_table_of_log_power_biases_gives_the_log_power_rows(self, tmp_path):
        # the table holds every bias the sweeps read at levels up to 13
        top = 13
        values = LogPower(1.0).gamma_slice(1, (1 << top) + 2 * top).tolist()
        path = tmp_path / "logpow.txt"
        path.write_text("".join(f"{v!r}\n" for v in values))
        table = f"table:{path}"
        cfg = small_config(schedules=("logpow:1.0", table), k_list=(4, 9, top), trials=2)
        # the repeated tail 1/ln(2^13 + 26) stays above the onset bound
        assert critical_onset_index(parse_schedule(table)) is None
        for mode in ("quenched", "annealed", "bounds"):
            rows = {}
            csv_text = records_to_csv(mode, MODES[mode][0](cfg))
            for row in csv.DictReader(io.StringIO(csv_text.split("\n", 1)[1])):
                rows.setdefault(row.pop("schedule"), []).append(row)
            got, ref = rows.pop(table), rows.pop("logpow:1.0")
            assert not rows and len(got) == len(ref) > 0
            if mode == "bounds":
                assert [row.pop("j0") for row in ref] == ["38966"] * 3
                assert [row.pop("j0") for row in got] == [""] * 3
                assert [row["B_mode"] for row in got] == ["exact"] * 3
                assert [row["C_mode"] for row in got] == ["exact"] * 3
            assert got == ref

    def test_bounds_build_a_tables_envelope_once(self, tmp_path, monkeypatch):
        # three levels read the envelope through the onset index, the bound
        # B and the Monte Carlo C, yet the sweep builds it once: an envelope
        # is the one Table built without a source file
        path = tmp_path / "bias.txt"
        path.write_text("".join(f"{0.3 * (-0.9) ** n!r}\n" for n in range(300)))
        real = Table.__post_init__
        envelopes = []

        def counted(table):
            real(table)
            if table.source is None:
                envelopes.append(table)

        monkeypatch.setattr(Table, "__post_init__", counted)
        cfg = small_config(schedules=(f"table:{path}",), k_list=(4, 8, 14), exact_cap=6,
                           mc_samples=64)
        reports = [record.report for record in run_bounds(cfg)]
        assert [(r.b_mode, r.c_mode) for r in reports] == [
            ("exact", "exact"), ("bound", "monte-carlo"), ("bound", "monte-carlo")
        ]
        assert len(envelopes) == 1


class TestNonconv:
    def test_fair_sequences_follow_the_independence_heuristic(self):
        cfg = small_config(schedules=("zero",), k_list=(10,), trials=200)
        record = run_nonconv(cfg)[0]
        assert record.eta == cfg.eta == 0.1
        assert record.trials == 200
        tail = symbol_sum_tail_mass(10, 0.1)
        assert record.tail_mass_exact == tail.exact
        assert record.tail_mass_normal == tail.normal_approx
        # no-match frequency brackets exp(-1)
        assert record.p0_lo < E_INV < record.p0_hi
        # tail-and-occurs mass tracks tail_mass * (1 - exp(-1))
        target = tail.exact * (1 - E_INV)
        sigma = math.sqrt(target * (1 - target) / 200)
        assert abs(record.tail_and_hit_rate - target) <= 4 * sigma + 1e-9
        # with zero bias the union bound is exactly 1 at every position
        assert record.union_bound_mean == pytest.approx(1.0, rel=1e-12)
        assert record.union_bound_samples == cfg.union_bound_samples

    def test_saturated_bias_starves_the_tail_intersection(self):
        cfg = small_config(
            schedules=("logpow:0.25",), k_list=(10, 12, 14, 16), trials=50
        )
        records = run_nonconv(cfg)
        rates = [r.tail_and_hit_rate for r in records]
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        assert rates[-1] <= rates[0]
        # contrast: fair sequences keep the intersection plainly positive
        fair = run_nonconv(small_config(schedules=("zero",), k_list=(10,),
                                        trials=50))[0]
        assert fair.tail_and_hit_rate > 0.05

    def test_tail_rates_count_the_set_of_the_exact_tail_mass(self):
        # eta sqrt(k) is 1 and 2 up to rounding: a pattern with symbol sum
        # -1 (k = 3) or -2 (k = 12) sits on the boundary, outside the tail
        eta = 0.5773502691896257
        cfg = small_config(schedules=("zero",), k_list=(3, 12), trials=200, eta=eta)
        top = max(cfg.k_list)
        sequences = [
            sample_sequence(Zero(), (1 << top) + top - 1, derive_seed(cfg.master_seed, t))
            for t in range(cfg.trials)
        ]
        for record in run_nonconv(cfg):
            k = record.k
            masses = [sum(math.comb(k, i) for i in range(m + 1)) / 2**k for m in range(k + 1)]
            m_max = max(m for m in range(k + 1) if masses[m] == record.tail_mass_exact)
            in_tail = hits = 0
            for t, sequence in enumerate(sequences):
                word = int(sample_words(k, derive_seed(cfg.master_seed, t, 0x57), 1)[0])
                if word.bit_count() <= m_max:
                    in_tail += 1
                    hits += bool((window_codes(sequence, k) == word).any())
            assert record.tail_rate == in_tail / cfg.trials
            assert record.tail_and_hit_rate == hits / cfg.trials

    def test_extreme_threshold_empties_everything(self):
        cfg = small_config(schedules=("zero",), k_list=(16,), trials=20, eta=10.0)
        record = run_nonconv(cfg)[0]
        assert record.tail_mass_exact == 0.0
        assert record.tail_rate == 0.0
        assert record.tail_and_hit_rate == 0.0
        assert record.union_bound_mean is None
        assert record.union_bound_samples == 0


class TestScheduleInfo:
    def test_fair_schedule_summary(self):
        info = schedule_info("zero")
        assert info["spec"] == "zero"
        assert info["label"] == "zero"
        assert info["kakutani"] == "equivalent"
        assert "violations" not in info
        assert set(info["gamma"]) == {"1", "2", "10", "100", "1000", "1000000"}
        assert all(v == 0.0 for v in info["gamma"].values())
        assert info["cesaro"]["1000"] == 0.0
        assert info["onset_index"] == 1

    def test_log_decay_summary(self):
        info = schedule_info("logpow:1.0")
        assert info["kakutani"] == "singular"
        assert info["gamma"]["100"] == pytest.approx(1 / math.log(100), rel=1e-15)
        assert info["cesaro"]["1000000"] < info["cesaro"]["1000"]
        assert info["onset_index"] == math.floor(
            math.exp(2.0 / (2.0**0.25 - 1.0))
        ) + 1

    def test_log_power_gamma_is_pinned_to_the_bit(self):
        # the printed gamma of the log-power decays, to the last bit
        points = ("1", "2", "10", "100", "1000", "1000000")
        pinned = {
            "logpow:0.25": (0.49,) * 6,
            "logpow:0.5": (0.49, 0.49, 0.49, 0.46599060178465607,
                           0.3804797331016252, 0.2690397993802069),
            "logpow:1.0": (0.49, 0.49, 0.43429448190325176, 0.21714724095162588,
                           0.14476482730108395, 0.07238241365054197),
            "logpow:2.0": (0.49, 0.49, 0.1886116970116139, 0.047152924252903475,
                           0.02095685522351266, 0.005239213805878165),
        }
        for spec, values in pinned.items():
            assert schedule_info(spec)["gamma"] == dict(zip(points, values)), spec

    def test_table_class_follows_its_tail(self, tmp_path):
        path = tmp_path / "bias.txt"
        path.write_text("0.1\n0.05\n")
        assert schedule_info(f"table:{path}")["kakutani"] == "singular"
        assert schedule_info(f"table:{path}:tail=zero")["kakutani"] == "equivalent"

    def test_negative_bias_onset_reads_the_absolute_bias(self):
        assert schedule_info("const:-0.3")["onset_index"] is None
        assert schedule_info("const:-0.05")["onset_index"] == 1

    def test_bad_spec_is_rejected(self):
        with pytest.raises(ValueError):
            schedule_info("bogus:1")


class TestSerialization:
    def test_csv_schema_and_columns(self):
        records = run_quenched(small_config(trials=1))
        text = records_to_csv("quenched", records)
        lines = text.strip().splitlines()
        assert lines[0] == SCHEMA_LINE == "# pgl-schema v1"
        assert lines[1] == "schedule,k,seed,mode,p0,p1,p2,tv_to_po1,status"
        assert len(lines) == 2 + len(records)
        assert "wall_time" not in text

    def test_nonconv_csv_columns(self):
        records = run_nonconv(small_config(schedules=("zero",), k_list=(8,),
                                           trials=5))
        lines = records_to_csv("nonconv", records).splitlines()
        assert lines[1] == (
            "schedule,k,eta,trials,tail_mass_exact,tail_mass_normal,"
            "p0_hat,p0_lo,p0_hi,tail_rate,tail_and_hit_rate,"
            "union_bound_mean,union_bound_samples,status"
        )

    def test_bounds_csv_columns(self):
        records = run_bounds(small_config(schedules=("zero",), k_list=(3,)))
        lines = records_to_csv("bounds", records).splitlines()
        assert lines[1] == (
            "schedule,k,lambda,A,B,B_mode,C,C_mode,C_stderr,total,"
            "j0,epsilon,theta"
        )

    def test_json_carries_timings_and_config(self):
        cfg = small_config(trials=1)
        records = run_quenched(cfg)
        payload = json.loads(records_to_json("quenched", records, cfg))
        assert payload["schema"] == "pgl-schema v1"
        assert payload["mode"] == "quenched"
        assert len(payload["records"]) == len(records)
        first = payload["records"][0]
        assert "wall_time_s" in first and "timeout" not in first
        assert "time_limit" not in payload["config"]
        assert payload["config"]["master_seed"] == cfg.master_seed
        assert payload["config"]["schedules"] == list(cfg.schedules)

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError):
            records_to_csv("sideways", [])
