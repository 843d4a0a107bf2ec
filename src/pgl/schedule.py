"""Bias schedules: per-position coin biases gamma_n for product measures.

A schedule assigns to every position n >= 1 a bias gamma_n in (-1/2, 1/2);
the sampled sequence has P(x_n = +1) = 1/2 + gamma_n independently.  Four
kinds are supported: identically zero (the fair coin, constant 0 under its
own label), constant, log-power decay gamma_n = min(cap, (ln n)^-c), and
explicit tables with a tail rule.  A kind checks its range when built and
answers for itself: ``envelope`` is its non-increasing |gamma| bound,
``kakutani`` its dichotomy class and ``gamma_bounds`` a run's least and
greatest gamma.  Whether a run holds one bias is decided by its reader,
``analytics._bias_run``, from those bounds.

Natural logarithm throughout; swapping the base would only rescale the decay
constants, not the threshold structure.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "BiasSchedule",
    "Zero",
    "Constant",
    "LogPower",
    "Table",
    "KakutaniClass",
    "cesaro_average",
    "parse_schedule",
    "first_persistent_below",
]

_DEFAULT_CAP = 0.49
_DEFAULT_N0 = 2


class KakutaniClass(Enum):
    """Dichotomy class of the product measure against the fair-coin measure.

    By Kakutani's dichotomy the measures are equivalent iff sum(gamma_n^2)
    converges and singular iff it diverges; there is no third class.
    """

    EQUIVALENT = "equivalent"
    SINGULAR = "singular"


@dataclass(frozen=True, eq=False)
class BiasSchedule:
    """Base type; concrete kinds implement ``_gamma_at``, ``kakutani`` (the
    dichotomy class) and ``label``.  Kinds with scalar fields compare by
    them; a Table compares by identity."""

    @property
    def envelope(self) -> BiasSchedule:
        """A schedule whose |gamma*_n| is non-increasing and >= |gamma_m|
        for all m >= n: zero, constant and log-power decay are their own."""
        return self

    def gamma(self, n: int) -> float:
        """gamma_n at one position n >= 1: a one-position run, so it has the
        bits the sampler and the analytics read."""
        return float(self.gamma_slice(n, 1)[0])

    def gamma_slice(self, start: int, count: int) -> np.ndarray:
        """Vector of gamma at positions start, ..., start+count-1 (1-based).

        The result is a fresh, writable float64 array that the caller owns
        and may overwrite (the sampler builds its thresholds in it); no
        schedule keeps a reference to it.  Positions above 2^53 collapse to
        float64 resolution; the bias varies so slowly there that the loss is
        far below every tolerance used here.
        """
        return self._gamma_at(_run(start, count, np.arange(count, dtype=np.float64)))

    def gamma_bounds(self, start: int, count: int) -> tuple[float, float]:
        """(least, greatest) gamma over positions start, ..., start+count-1,
        for count >= 1: the run's two ends, for a kind whose gamma never
        rises (a Table answers for itself).  They are values
        ``gamma_slice`` itself computes."""
        if count < 1:
            raise ValueError("a run needs count >= 1")
        first, last = self._gamma_at(_run(start, count, np.array([0.0, count - 1.0]))).tolist()
        return last, first

    def _gamma_at(self, ns: np.ndarray) -> np.ndarray:
        """Gamma at ``ns``, ascending float64 positions >= 1, written over
        the caller's fresh ``ns`` and returned.  Runs and scattered positions
        go through the same ufuncs, so a position gets the same bits
        whichever way it is asked for."""
        raise NotImplementedError

    @property
    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(BiasSchedule):
    """Fixed bias gamma_n = value at every position."""

    value: float

    def __post_init__(self) -> None:
        _check_bias("const", self.value)

    @property
    def kakutani(self) -> KakutaniClass:
        return KakutaniClass.EQUIVALENT if self.value == 0 else KakutaniClass.SINGULAR

    def _gamma_at(self, ns: np.ndarray) -> np.ndarray:
        ns[:] = self.value
        return ns

    @property
    def label(self) -> str:
        return f"const:{self.value!r}"


@dataclass(frozen=True)
class Zero(Constant):
    """Fair coin: Constant(0) under the label ``zero``; it takes no argument."""

    value: float = field(default=0.0, init=False, repr=False)

    @property
    def label(self) -> str:
        return "zero"


@dataclass(frozen=True)
class LogPower(BiasSchedule):
    """Log-power decay: gamma_n = min(cap, (ln n)^-exponent) for n >= n0.

    Positions below n0, and any position where the formula reaches 1/2 or
    more, are clipped to ``cap``.  Non-increasing in n for n >= 2, which the
    threshold analysis relies on.
    """

    exponent: float
    cap: float = _DEFAULT_CAP
    n0: int = _DEFAULT_N0
    # the squared biases sum like n / log^2c n
    kakutani = KakutaniClass.SINGULAR

    def __post_init__(self) -> None:
        if not 0 < self.exponent < np.inf:
            raise ValueError("LogPower exponent must be a finite number > 0")
        if not self.cap > 0:
            raise ValueError("LogPower cap must lie in (0, 1/2)")
        _check_bias("cap", self.cap)
        if self.n0 < 2:
            raise ValueError("LogPower n0 must be >= 2")

    def _gamma_at(self, ns: np.ndarray) -> np.ndarray:
        skip = np.searchsorted(ns, self.n0)
        decay = ns[skip:]
        np.log(decay, out=decay)
        with np.errstate(over="ignore"):  # (ln 2)^-c is inf past c ~ 1936: the cap clips it
            decay **= -self.exponent
        np.minimum(decay, self.cap, out=decay)
        ns[:skip] = self.cap
        return ns

    @property
    def label(self) -> str:
        parts = [f"logpow:{self.exponent!r}"]
        if self.cap != _DEFAULT_CAP:
            parts.append(f"cap={self.cap!r}")
        if self.n0 != _DEFAULT_N0:
            parts.append(f"n0={self.n0}")
        return ":".join(parts)


@dataclass(frozen=True, eq=False)
class Table(BiasSchedule):
    """Explicit bias values for the first len(values) positions.

    ``values`` is one read-only float64 array, copied from the input once;
    tables compare by identity.  ``tail`` decides positions beyond the
    table: "repeat" holds the last value, "zero" switches to a fair coin.
    """

    values: np.ndarray
    tail: str = "repeat"
    source: str | None = None

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("Table schedule needs a flat sequence of at least one value")
        if self.tail not in ("repeat", "zero"):
            raise ValueError("Table tail rule must be 'repeat' or 'zero'")
        p = values + 0.5
        bad = np.flatnonzero(~((0.0 < p) & (p < 1.0)))
        if bad.size:
            n = int(bad[0]) + 1
            _check_bias(f"gamma({n})", float(values[n - 1]))

    @property
    def kakutani(self) -> KakutaniClass:
        """Constant's rule on the tail value: the last value repeated, or 0."""
        return Constant(float(self.values[-1]) if self.tail == "repeat" else 0.0).kakutani

    @cached_property
    def envelope(self) -> Table:
        """gamma*_n = sup_{m >= n} |gamma_m| by one backward pass, built once
        per table; it covers the tail too (|last value| when repeated, 0 when
        zero).  Threads that first read it at the same time may each build
        it; the copies are equal and the last one is kept."""
        return Table(np.maximum.accumulate(np.abs(self.values)[::-1])[::-1], self.tail)

    def gamma_bounds(self, start: int, count: int) -> tuple[float, float]:
        """The extremes of the run's ``gamma_slice``: a table's values may
        rise and fall."""
        if count < 1:
            raise ValueError("a run needs count >= 1")
        gam = self.gamma_slice(start, count)
        return float(gam.min()), float(gam.max())

    def _gamma_at(self, ns: np.ndarray) -> np.ndarray:
        inside = np.searchsorted(ns, len(self.values), side="right")
        ns[:inside] = self.values[ns[:inside].astype(np.intp) - 1]
        ns[inside:] = self.values[-1] if self.tail == "repeat" else 0.0
        return ns

    @property
    def label(self) -> str:
        if self.source is not None:
            base = f"table:{self.source}"
        else:
            base = f"table:<{len(self.values)} values>"
        return base if self.tail == "repeat" else f"{base}:tail=zero"


def _run(start: int, count: int, offsets: np.ndarray) -> np.ndarray:
    """The float64 positions start + offsets of a run start..start+count-1."""
    if start < 1 or count < 0:
        raise ValueError("positions are 1-based and count must be >= 0")
    offsets += start
    return offsets


def _check_bias(name: str, value: float) -> None:
    """Reject a bias unless 0 < 1/2 + value < 1 in double precision, the
    sampler's own condition: NaN fails, and so does a value just below 1/2
    for which 1/2 + value rounds to 1."""
    if not 0.0 < 0.5 + value < 1.0:
        if -0.5 < value < 0.5:
            raise ValueError(f"{name} = {value!r}: 1/2 + {name} rounds to 1 in double precision")
        raise ValueError(f"{name} = {value!r} outside (-1/2, 1/2)")


def cesaro_average(schedule: BiasSchedule, n_terms: int) -> float:
    """Mean of gamma_1..gamma_N; tends to 0 for admissible decay schedules."""
    if n_terms < 1:
        raise ValueError("cesaro_average needs at least one term")
    total = 0.0
    for start in range(1, n_terms + 1, 1 << 22):
        total += float(schedule.gamma_slice(start, min(1 << 22, n_terms + 1 - start)).sum())
    return total / n_terms


# Spans per round of first_persistent_below: the bracket 1..2^63 takes 11
# rounds, each one _gamma_at call at about 64 candidates.
_SPANS = 64


def first_persistent_below(schedule: BiasSchedule, bound: float) -> int | None:
    """Smallest n with |gamma(m)| < bound for every m >= n, or None.

    A search over the non-increasing envelope for its first position below
    the bound; the search ceiling is 2^63.  Each round cuts the bracket
    lo < n <= hi into about _SPANS equal spans and reads the envelope at the
    candidates between them in one ``_gamma_at`` call.  The envelope is
    evaluated at each candidate rounded to float64, and that rounding is
    monotone, so the envelope stays non-increasing in the candidate and the
    search holds up to the ceiling.  An index above 2^53 is exact only to
    float64 resolution.
    """
    env = schedule.envelope
    lo, hi = 1, 1 << 63
    first, last = _below(env, [lo, hi], bound)
    if first:
        return 1
    if not last:
        return None
    while hi - lo > 1:  # |gamma*(lo)| >= bound > |gamma*(hi)|
        step = max(1, (hi - lo) // _SPANS)
        candidates = range(lo + step, hi, step)
        # the envelope does not rise, so the candidates still at or above
        # the bound come first
        above = len(candidates) - int(np.count_nonzero(_below(env, candidates, bound)))
        if above:
            lo = candidates[above - 1]
        if above < len(candidates):
            hi = candidates[above]
    return hi


def _below(env: BiasSchedule, positions: Sequence[int], bound: float) -> np.ndarray:
    """|gamma(n)| < bound at each of the ascending positions, in one call."""
    return np.abs(env._gamma_at(np.array(positions, dtype=np.float64))) < bound


def parse_schedule(text: str) -> BiasSchedule:
    """Parse the CLI grammar: zero | const:<c0> | logpow:<c>[:cap=<v>][:n0=<n>]
    | table:<path>[:tail=zero].

    Raises ValueError with the offending fragment on malformed input.
    """
    spec = text.strip()
    if not spec:
        raise ValueError("empty schedule spec")
    head, _, rest = spec.partition(":")
    kind = head.lower()
    if kind == "zero":
        if rest:
            raise ValueError(f"schedule spec {spec!r}: 'zero' takes no arguments")
        return Zero()
    if kind == "const":
        return Constant(value=_parse_float(rest, spec, "constant bias"))
    if kind == "logpow":
        parts = rest.split(":") if rest else []
        if not parts or parts[0] == "":
            raise ValueError(f"schedule spec {spec!r}: logpow needs an exponent")
        exponent = _parse_float(parts[0], spec, "exponent")
        cap = _DEFAULT_CAP
        n0 = _DEFAULT_N0
        for part in parts[1:]:
            key, eq, value = part.partition("=")
            if not eq:
                raise ValueError(f"schedule spec {spec!r}: expected key=value, got {part!r}")
            if key == "cap":
                cap = _parse_float(value, spec, "cap")
            elif key == "n0":
                try:
                    n0 = int(value)
                except ValueError:
                    raise ValueError(f"schedule spec {spec!r}: n0 must be an integer") from None
            else:
                raise ValueError(f"schedule spec {spec!r}: unknown option {key!r}")
        return LogPower(exponent=exponent, cap=cap, n0=n0)
    if kind == "table":
        if not rest:
            raise ValueError(f"schedule spec {spec!r}: table needs a file path")
        tail = "repeat"
        path_text = rest
        if path_text.endswith(":tail=zero"):
            tail = "zero"
            path_text = path_text[: -len(":tail=zero")]
        elif path_text.endswith(":tail=repeat"):
            path_text = path_text[: -len(":tail=repeat")]
        values = _load_table(Path(path_text))
        return Table(values=values, tail=tail, source=path_text)
    raise ValueError(f"schedule spec {spec!r}: unknown kind {head!r}")


def _parse_float(text: str, spec: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"schedule spec {spec!r}: bad {what} {text!r}") from None


def _load_table(path: Path) -> np.ndarray:
    """Read one decimal bias per line, streamed into one array: '#' starts a
    comment, blank lines are skipped, and lines end at \\n, \\r\\n or \\r."""
    try:
        with path.open() as lines:
            values = np.fromiter(_table_values(path, lines), dtype=np.float64)
    except OSError as exc:
        raise ValueError(f"cannot read table file {path}: {exc}") from None
    if values.size == 0:
        raise ValueError(f"table file {path} contains no values")
    return values


def _table_values(path: Path, lines: Iterable[str]) -> Iterator[float]:
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            yield float(body)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a decimal bias: {body!r}") from None
