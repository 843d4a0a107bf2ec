"""Bias schedules: values, range checks, classification, envelope, and parsing."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pgl.schedule as schedule_module
from pgl.sampler import sample_sequence
from pgl.schedule import (
    BiasSchedule,
    Constant,
    KakutaniClass,
    LogPower,
    Table,
    Zero,
    cesaro_average,
    first_persistent_below,
    parse_schedule,
)

# The spec grammar's characters (no '/', so a table path stays relative),
# and fragments that assemble into well-formed specs more often.
SPEC_ALPHABET = "zerocnstlgpwabifZL0123456789:=.-+_ #"
SPEC_TOKENS = [
    "zero", "const", "logpow", "table", ":", "cap=", "n0=", "tail=zero", "tail=repeat",
    "0", "0.1", "0.25", "0.49", "0.5", "1.0", "-0.3", "2", "16", "1e-3", "inf", "nan",
]

# Geometric probe grid {1, 2, 4, ..., 2^40} for log-power decay.
PROBE_GRID = tuple(1 << m for m in range(41))

# First index at which (ln n)^(-1) drops below b, derived by hand:
# 1/ln(n) < b  iff  n > e^(1/b), so the first integer is floor(e^(1/b)) + 1.
def first_index_below(b: float) -> int:
    return math.floor(math.exp(1.0 / b)) + 1


class TestValues:
    def test_zero_bias_is_identically_zero(self):
        sched = Zero()
        for n in (1, 2, 17, 10**6, 2**40):
            assert sched.gamma(n) == 0.0

    def test_zero_is_the_constant_zero_under_its_own_label(self):
        zero, const = Zero(), Constant(0.0)
        for start, count in ((1, 5), (7, 1), (2**40, 3)):
            assert np.array_equal(zero.gamma_slice(start, count), const.gamma_slice(start, count))
            assert zero.gamma_bounds(start, count) == const.gamma_bounds(start, count)
        assert np.array_equal(
            sample_sequence(zero, 1000, seed=5).bits01, sample_sequence(const, 1000, seed=5).bits01
        )
        assert zero.label == "zero"
        assert repr(zero) == "Zero()"
        assert zero.kakutani is KakutaniClass.EQUIVALENT
        with pytest.raises(TypeError):
            Zero(0.3)

    def test_gamma_bounds_are_the_extremes_of_the_run(self):
        # a table's values rise and fall, and its runs cross its end under
        # either tail rule; the other kinds never rise
        values = (0.1, -0.2, 0.3, -0.05)
        schedules = (
            Zero(), Constant(-0.2), LogPower(1.0), parse_schedule("logpow:0.7:cap=0.3:n0=40"),
            Table(values), Table(values, tail="zero"),
        )
        for sched in schedules:
            for start, count in ((1, 1), (1, 3), (2, 2), (3, 4), (4, 1), (5, 6), (30, 50)):
                gam = sched.gamma_slice(start, count)
                assert sched.gamma_bounds(start, count) == (gam.min(), gam.max()), (sched, start)
            with pytest.raises(ValueError, match="a run needs count >= 1"):
                sched.gamma_bounds(1, 0)

    def test_constant_bias_returns_its_value(self):
        sched = Constant(-0.2)
        assert sched.gamma(1) == -0.2
        assert sched.gamma(10**9) == -0.2

    def test_position_must_be_positive(self):
        for sched in (Zero(), Constant(0.1), LogPower(1.0), Table((0.1,))):
            with pytest.raises(ValueError):
                sched.gamma(0)
            with pytest.raises(ValueError):
                sched.gamma(-3)

    def test_log_power_cap_governs_small_positions(self):
        sched = LogPower(1.0)
        # below the floor index, and where the formula exceeds the cap
        assert sched.gamma(1) == 0.49
        assert sched.gamma(2) == 0.49          # 1/ln 2 > 1 > 0.49
        assert sched.gamma(7) == 0.49          # 1/ln 7 = 0.514 > 0.49
        assert sched.gamma(8) == pytest.approx(1.0 / math.log(8), rel=1e-15)

    def test_log_power_uses_natural_log(self):
        g = LogPower(1.0).gamma(55)
        assert g == pytest.approx(1.0 / math.log(55), rel=1e-15)
        assert abs(g - 0.2496) < 1e-3

    def test_log_power_general_exponent(self):
        sched = LogPower(0.5, cap=0.3, n0=10)
        assert sched.gamma(9) == 0.3           # below the floor index
        assert sched.gamma(10) == 0.3          # ln(10)^-0.5 = 0.659 > cap
        expected = math.log(10**6) ** -0.5
        assert expected < 0.3
        assert sched.gamma(10**6) == pytest.approx(expected, rel=1e-15)

    def test_a_huge_exponent_clips_to_the_cap_without_a_warning(self):
        # (ln 2)^-2000 overflows to inf and the cap clips it; warnings are
        # errors in this suite, so an overflow warning would fail the call
        gamma = LogPower(2000.0).gamma_slice(1, 4)
        assert gamma[:2].tolist() == [0.49, 0.49]
        expected = [math.log(3) ** -2000.0, math.log(4) ** -2000.0]
        assert gamma[2:].tolist() == pytest.approx(expected, rel=1e-15)

    def test_log_power_parameter_validation(self):
        with pytest.raises(ValueError):
            LogPower(0.0)
        with pytest.raises(ValueError):
            LogPower(-1.0)
        # (ln n)^-inf is 0 from n = 3: a schedule with finite sum gamma_n^2
        # that the log-power kind would class as singular
        for exponent in (math.inf, math.nan):
            with pytest.raises(ValueError, match="exponent must be a finite number > 0"):
                LogPower(exponent)
        with pytest.raises(ValueError):
            LogPower(1.0, cap=0.5)
        with pytest.raises(ValueError):
            LogPower(1.0, cap=0.0)
        with pytest.raises(ValueError):
            LogPower(1.0, n0=1)

    def test_table_lookup_and_tail_modes(self):
        rep = Table((0.1, -0.2))
        assert rep.gamma(1) == 0.1
        assert rep.gamma(2) == -0.2
        assert rep.gamma(3) == -0.2            # repeat last entry
        assert rep.gamma(10**6) == -0.2
        zero = Table((0.1, -0.2), tail="zero")
        assert zero.gamma(2) == -0.2
        assert zero.gamma(3) == 0.0

    def test_table_requires_values(self):
        with pytest.raises(ValueError):
            Table(())

    def test_gamma_slice_matches_pointwise_values(self):
        scheds = [
            Zero(), Constant(0.25), LogPower(0.5), LogPower(3.0, n0=6),
            Table((0.1, -0.2, 0.3)), Table((0.1, -0.2, 0.3), tail="zero"),
        ]
        # runs inside the table, up to its end, across it, past it, and
        # across the floor index 6 (positions 4 and 5 take the cap, not (ln n)^-3)
        runs = [(1, 7), (5, 7), (1, 2), (2, 2), (2, 4), (3, 1), (4, 3), (9, 2), (2, 0)]
        for sched in scheds:
            for start, count in runs:
                block = sched.gamma_slice(start, count)
                assert block.dtype == np.float64
                assert block.shape == (count,)
                for offset in range(count):
                    assert block[offset] == sched.gamma(start + offset)
        # bit for bit over positions 1..2^18 of the log-power decays, where
        # libm's log and pow once differed from numpy's by 1-3 ulps
        count = 1 << 18
        for exponent in (0.5, 1.0, 2.0):
            sched = LogPower(exponent)
            pointwise = np.fromiter(map(sched.gamma, range(1, count + 1)), np.float64, count)
            run = sched.gamma_slice(1, count)
            assert np.array_equal(pointwise.view(np.uint64), run.view(np.uint64)), exponent

    def test_gamma_is_one_method_over_the_array_evaluator(self):
        # no kind defines a scalar gamma of its own: every position is read
        # through _gamma_at, so past 2^53 it has float64 resolution
        for kind in (Zero, Constant, LogPower, Table):
            assert "gamma" not in vars(kind), kind.__name__
        for sched in (Constant(-0.2), LogPower(0.5, cap=0.3, n0=5), Table((0.1, 0.2))):
            assert sched.gamma(2**63 + 11) == sched.gamma(2**63)
            assert sched.gamma(2**53 + 1) == sched.gamma(2**53)
            # Python ints past int64 reach the run as float64 positions
            for n in (2**63, 2**63 + 11, 2**64 + 5):
                want = sched._gamma_at(np.array([float(n)]))
                assert np.array([sched.gamma(n)]).view(np.uint64) == want.view(np.uint64)
            with pytest.raises(ValueError):
                sched.gamma(0)

    def test_gamma_slice_hands_over_a_fresh_array(self):
        # the caller owns the result: writing into it (as the sampler does
        # when it builds thresholds) changes neither the schedule nor the
        # next evaluation, including runs that lie wholly inside a table
        values = (0.1, -0.2, 0.3, 0.05)
        scheds = [
            Zero(), Constant(0.25), LogPower(0.5), LogPower(3.0, n0=6),
            Table(values), Table(values, tail="zero"),
        ]
        for sched in scheds:
            for start, count in ((1, 4), (2, 2), (3, 6), (9, 3)):
                expected = sched.gamma_slice(start, count).copy()
                block = sched.gamma_slice(start, count)
                assert block.dtype == np.float64 and block.flags.writeable
                assert block.flags.owndata
                block += 0.5
                block[:] = -1.0
                assert np.array_equal(sched.gamma_slice(start, count), expected)
            if isinstance(sched, Table):
                assert sched.values.tolist() == list(values)

    @settings(max_examples=60, deadline=None)
    @given(
        exponent=st.floats(0.1, 3.0, allow_nan=False),
        cap=st.floats(0.01, 0.49, allow_nan=False),
        grid_pos=st.integers(0, len(PROBE_GRID) - 2),
    )
    def test_log_power_in_range_and_non_increasing_on_probe_grid(
        self, exponent, cap, grid_pos
    ):
        sched = LogPower(exponent, cap=cap)
        n, n_next = PROBE_GRID[grid_pos], PROBE_GRID[grid_pos + 1]
        g, g_next = sched.gamma(n), sched.gamma(n_next)
        assert 0.0 < g < 0.5 and 0.0 < g_next < 0.5
        assert g_next <= g + 1e-15


class TestValidation:
    def test_out_of_range_bias_is_reported(self):
        # the constructor is the range check
        with pytest.raises(ValueError, match=r"const = 0\.7 outside \(-1/2, 1/2\)"):
            Constant(0.7)
        with pytest.raises(ValueError, match="outside"):
            Constant(0.5)                       # boundary is excluded
        with pytest.raises(ValueError, match=r"const = nan outside"):
            Constant(math.nan)
        with pytest.raises(ValueError, match=r"gamma\(2\) = 0\.6 outside"):
            Table((0.1, 0.6))
        # 1/2 + 0.49999999999999994 rounds to 1.0, which leaves no randomness
        near = math.nextafter(0.5, 0.0)
        with pytest.raises(ValueError, match=r"const = 0\.49999999999999994: 1/2 \+ const rounds to 1"):
            Constant(near)
        with pytest.raises(ValueError, match=r"cap = 0\.49999999999999994: .* rounds to 1"):
            LogPower(1.0, cap=near)
        with pytest.raises(ValueError, match=r"gamma\(2\) = 0\.49999999999999994: .* rounds to 1"):
            Table((0.1, near, 0.2))
        assert Constant(-near).value == -near
        assert LogPower(1.0, cap=math.nextafter(near, 0.0)).gamma(1) < 0.5

    def test_extra_indices_are_probed(self):
        # the constructor checks every table entry and names the first
        # offender
        with pytest.raises(ValueError, match=r"gamma\(5\) = 0\.9 outside"):
            Table((0.1, 0.1, 0.1, 0.1, 0.9), tail="zero")
        with pytest.raises(ValueError, match=r"gamma\(2\) = nan outside"):
            Table((0.1, math.nan, 0.7))

    @settings(max_examples=200, deadline=None)
    @given(value=st.floats())
    @example(value=0.49999999999999994)
    @example(value=-0.49999999999999994)
    def test_any_float_makes_a_valid_constant_or_fails(self, value):
        # the one double inside (-1/2, 1/2) with 1/2 + value rounding to 1
        # is the largest below 1/2
        usable = -0.5 < value < 0.5 and value != math.nextafter(0.5, 0.0)
        try:
            sched = Constant(value)
        except ValueError:
            assert not usable
        else:
            assert usable
            assert sched.gamma_slice(1, 2).tolist() == [value, value]


class TestClassification:
    def test_known_kinds(self):
        assert Zero().kakutani is KakutaniClass.EQUIVALENT
        assert Constant(0.0).kakutani is KakutaniClass.EQUIVALENT
        assert Constant(0.1).kakutani is KakutaniClass.SINGULAR
        for c in (0.25, 0.5, 1.0, 2.0):
            assert LogPower(c).kakutani is KakutaniClass.SINGULAR
        assert Table((0.1,), tail="zero").kakutani is KakutaniClass.EQUIVALENT
        # the repeat tail holds the last value forever: sum gamma_n^2
        # diverges unless that value is 0
        assert Table((0.1,)).kakutani is KakutaniClass.SINGULAR
        assert Table((0.1, 0.0)).kakutani is KakutaniClass.EQUIVALENT

    def test_enum_values_are_strings(self):
        assert KakutaniClass.EQUIVALENT.value == "equivalent"
        assert KakutaniClass.SINGULAR.value == "singular"
        # the dichotomy has two classes and no third
        assert {c.value for c in KakutaniClass} == {"equivalent", "singular"}


class TestCesaro:
    def test_zero_and_constant(self):
        assert cesaro_average(Zero(), 1000) == 0.0
        assert cesaro_average(Constant(0.2), 1000) == pytest.approx(0.2, rel=1e-12)

    def test_log_power_small_average_matches_direct_sum(self):
        sched = LogPower(1.0)
        direct = math.fsum(
            min(0.49, 1.0 / math.log(n)) if n >= 2 else 0.49 for n in range(1, 11)
        ) / 10.0
        assert cesaro_average(sched, 10) == pytest.approx(direct, rel=1e-12)

    def test_log_power_average_decays(self):
        sched = LogPower(1.0)
        assert cesaro_average(sched, 10**6) < cesaro_average(sched, 10**3)

    def test_needs_at_least_one_term(self):
        with pytest.raises(ValueError):
            cesaro_average(Zero(), 0)


class TestPersistence:
    def test_zero_and_constant(self):
        assert first_persistent_below(Zero(), 0.1) == 1
        assert first_persistent_below(Zero(), 0.0) is None
        assert first_persistent_below(Constant(0.05), 0.1) == 1
        assert first_persistent_below(Constant(0.2), 0.1) is None
        assert first_persistent_below(Constant(-0.05), 0.1) == 1
        assert first_persistent_below(Constant(-0.2), 0.1) is None

    def test_table_scans_past_the_last_offender(self):
        sched = Table((0.3, 0.05, 0.2, 0.01))
        assert first_persistent_below(sched, 0.1) == 4
        assert first_persistent_below(Table((0.3, 0.2)), 0.1) is None
        assert first_persistent_below(Table((0.3, 0.2), tail="zero"), 0.1) == 3
        assert first_persistent_below(Table((0.3, -0.2, 0.05)), 0.1) == 3
        assert first_persistent_below(Table((0.05, -0.2)), 0.1) is None

    def test_log_power_crossing_matches_hand_formula(self):
        b = (2.0 ** 0.25 - 1.0) / 2.0
        expected = first_index_below(b)
        sched = LogPower(1.0)
        n = first_persistent_below(sched, b)
        assert n == expected
        assert sched.gamma(n) < b <= sched.gamma(n - 1)

    def test_log_power_cap_region_crossing(self):
        # 1/ln(n) < 0.49 first holds at n = 8 (1/ln 7 = 0.514, 1/ln 8 = 0.481)
        assert first_persistent_below(LogPower(1.0), 0.49) == 8
        assert first_persistent_below(LogPower(1.0), 0.5) == 1

    def test_crossing_past_2_53_sits_at_a_float64_step(self):
        # float64 rounding of positions is monotone, so the bisection still
        # finds the last step of the envelope above the bound
        sched = LogPower(0.5)
        bound = sched.gamma(2**60)
        n = first_persistent_below(sched, bound)
        assert 2**53 < n <= 2**63
        assert sched.gamma(n) < bound <= sched.gamma(n - 1)
        assert float(n - 1) < float(n)

    def test_log_power_beyond_search_ceiling_is_none(self):
        # (ln n)^(-1/2) < 0.0946 requires n > e^(111.7), past the 2^63 ceiling
        assert first_persistent_below(LogPower(0.5), 0.0946) is None

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.floats(-0.49, 0.49), min_size=1, max_size=64),
        tail=st.sampled_from(["repeat", "zero"]),
        data=st.data(),
    )
    def test_table_crossing_follows_the_last_offender(self, values, tail, data):
        bound = data.draw(
            st.one_of(st.floats(0.0, 0.5), st.sampled_from([abs(v) for v in values]))
        )
        tail_value = values[-1] if tail == "repeat" else 0.0
        offenders = [n for n, v in enumerate(values, start=1) if abs(v) >= bound]
        expected = None if abs(tail_value) >= bound else max(offenders, default=0) + 1
        assert first_persistent_below(Table(tuple(values), tail=tail), bound) == expected

    @pytest.mark.parametrize("spec", [
        "zero", "const:0.05", "const:-0.2", "logpow:0.25", "logpow:0.5", "logpow:0.7",
        "logpow:1.0", "logpow:1.5:cap=0.1", "logpow:2.0", "logpow:3.0", "logpow:1.2:n0=50",
    ])
    def test_batched_search_finds_the_bisection_index(self, spec):
        # the predicate is monotone in the position, so the rounds of
        # candidates land where one-position bisection does
        env = parse_schedule(spec).envelope
        for bound in (0.0, 1e-3, 0.01, 0.05, 0.0945, 0.0946, 0.1, 0.3, 0.49, 0.5):
            want = None
            if abs(env.gamma(1)) < bound:
                want = 1
            elif abs(env.gamma(1 << 63)) < bound:
                lo, hi = 1, 1 << 63
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    lo, hi = (lo, mid) if abs(env.gamma(mid)) < bound else (mid, hi)
                want = hi
            assert first_persistent_below(env, bound) == want, bound

    def test_envelope_is_the_suffix_maximum_of_the_absolute_bias(self):
        table = Table((0.1, -0.3, 0.2, -0.05, 0.0), tail="zero")
        assert table.envelope.values.tolist() == [0.3, 0.3, 0.2, 0.05, 0.0]
        assert table.envelope.tail == "zero"
        assert Table((0.1, -0.2)).envelope.values.tolist() == [0.2, 0.2]
        for sched in (Zero(), Constant(-0.3), LogPower(1.0)):
            assert sched.envelope is sched


class TestParsing:
    def test_simple_specs(self):
        assert isinstance(parse_schedule("zero"), Zero)
        const = parse_schedule("const:0.25")
        assert isinstance(const, Constant) and const.value == 0.25
        lp = parse_schedule("logpow:1.0")
        assert isinstance(lp, LogPower)
        assert (lp.exponent, lp.cap, lp.n0) == (1.0, 0.49, 2)

    def test_log_power_options(self):
        lp = parse_schedule("logpow:0.5:cap=0.3:n0=10")
        assert (lp.exponent, lp.cap, lp.n0) == (0.5, 0.3, 10)

    def test_labels_round_trip(self):
        for spec in ("zero", "const:0.25", "logpow:1.0", "logpow:0.5:cap=0.3:n0=10"):
            sched = parse_schedule(spec)
            again = parse_schedule(sched.label)
            assert again.label == sched.label
            for n in (1, 2, 100, 10**6):
                assert again.gamma(n) == sched.gamma(n)

    def test_table_files(self, tmp_path):
        path = tmp_path / "biases.txt"
        path.write_text("# comment line\n0.1\n\n-0.2\n  0.05  \n")
        sched = parse_schedule(f"table:{path}")
        assert isinstance(sched, Table)
        assert sched.values.tolist() == [0.1, -0.2, 0.05]
        assert sched.gamma(4) == 0.05           # repeat tail by default
        zeroed = parse_schedule(f"table:{path}:tail=zero")
        assert zeroed.gamma(4) == 0.0

    def test_table_file_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.1\nnot-a-number\n")
        with pytest.raises(ValueError, match="not a decimal bias"):
            parse_schedule(f"table:{bad}")
        empty = tmp_path / "empty.txt"
        empty.write_text("# only a comment\n")
        with pytest.raises(ValueError):
            parse_schedule(f"table:{empty}")
        with pytest.raises(ValueError):
            parse_schedule(f"table:{tmp_path / 'missing.txt'}")

    @pytest.mark.parametrize(
        "spec",
        ["", "bogus:1", "zero:extra", "logpow", "logpow:abc",
         "logpow:1.0:weird=2", "const", "const:x", "logpow:-1.0", "logpow:inf",
         "logpow:nan"],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            parse_schedule(spec)

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.one_of(
            st.text(alphabet=SPEC_ALPHABET, max_size=30),
            st.lists(st.sampled_from(SPEC_TOKENS), max_size=8).map("".join),
        )
    )
    def test_any_spec_text_parses_or_raises_value_error(self, text):
        try:
            schedule = parse_schedule(text)
        except ValueError:
            return
        assert isinstance(schedule, BiasSchedule)
        if not isinstance(schedule, Table):
            assert parse_schedule(schedule.label) == schedule

    def test_unknown_kind_message_names_the_kind(self):
        with pytest.raises(ValueError, match="unknown kind 'bogus'"):
            parse_schedule("bogus:1")


def reference_table(path: Path) -> tuple[float, ...]:
    """The table parser before it streamed lines: the whole file read and
    split with str.splitlines, each line parsed with float()."""
    lines = path.read_text().splitlines()
    values: list[float] = []
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            values.append(float(body))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a decimal bias: {body!r}") from None
    if not values:
        raise ValueError(f"table file {path} contains no values")
    return tuple(values)


def parse_outcome(parse, path: Path):
    """Values as their 64-bit patterns, or the error message."""
    try:
        return np.asarray(parse(path), dtype=np.float64).view(np.uint64).tolist()
    except ValueError as exc:
        return str(exc)


SHORT_DECIMAL = r"[+-]?(\d{1,3}(\.\d{0,4})?|\.\d{1,4})([eE][+-]?\d{1,2})?"
# Comment and padding text holds no line separator of any kind.
COMMENT_TEXT = st.text(alphabet="abc xyz019.-#\t", max_size=12)
TABLE_LINE = st.one_of(
    st.floats().map(repr),
    st.from_regex(SHORT_DECIMAL, fullmatch=True),
    st.tuples(
        st.sampled_from(["", " ", "\t", "  "]),
        st.one_of(st.floats(-0.49, 0.49).map(repr), st.from_regex(SHORT_DECIMAL, fullmatch=True)),
        st.sampled_from(["", " ", "\t "]),
        st.one_of(st.just(""), COMMENT_TEXT.map(lambda text: "#" + text)),
    ).map("".join),
    COMMENT_TEXT.map(lambda text: "#" + text),
    st.sampled_from(["", " ", "\t", " \t "]),
    st.sampled_from(["x", "0.1 0.2", "1..2", "--1", "0x1p-3", "1e", "0.1_0", "nan nan"]),
)


class TestTableFiles:
    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(TABLE_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12
        ),
        last_ending=st.booleans(),
    )
    def test_streamed_parser_matches_the_whole_file_reference(self, lines, last_ending):
        text = "".join(line + ending for line, ending in lines)
        if lines and not last_ending:
            text = text[: -len(lines[-1][1])]
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "bias.txt"
            path.write_bytes(text.encode())
            got = parse_outcome(schedule_module._load_table, path)
            assert got == parse_outcome(reference_table, path)

    @pytest.mark.parametrize("separator", ["\f", "\v", "\u2028"])
    def test_only_newline_characters_end_a_line(self, tmp_path, separator):
        # str.splitlines also splits at form feed, vertical tab and U+2028;
        # a table line ends at \n, \r\n or \r only
        path = tmp_path / "bias.txt"
        path.write_text(f"0.1\n0.2{separator}0.3\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bias\.txt:2: not a decimal bias"):
            parse_schedule(f"table:{path}")

    def test_values_are_one_read_only_array(self, tmp_path):
        path = tmp_path / "bias.txt"
        path.write_text("0.1\n-0.2\n")
        table = parse_schedule(f"table:{path}")
        assert table.values.dtype == np.float64 and table.values.shape == (2,)
        with pytest.raises(ValueError):
            table.values[0] = 0.3
        source = np.array([0.1, 0.2])
        copied = Table(source)
        source[0] = 0.6
        assert copied.gamma(1) == 0.1
        assert copied.envelope.values.flags.writeable is False

    def test_tables_compare_by_identity(self):
        table = Table((0.1, 0.2))
        assert table == table and table != Table((0.1, 0.2))
        assert len({table, Table((0.1, 0.2))}) == 2
        assert Zero() == Zero() and LogPower(1.0) == LogPower(1.0)

    def test_rejects_values_that_are_not_one_flat_sequence(self):
        with pytest.raises(ValueError, match="flat sequence"):
            Table(((0.1, 0.2), (0.1, 0.2)))
        with pytest.raises(ValueError, match="flat sequence"):
            Table(0.1)
