"""Bias schedules: per-position coin biases gamma_n for product measures.

A schedule assigns to every position n >= 1 a bias gamma_n in (-1/2, 1/2);
the sampled sequence has P(x_n = +1) = 1/2 + gamma_n independently.  Four
kinds are supported: identically zero (fair coin), constant, log-power decay
gamma_n = min(cap, (ln n)^-c), and explicit tables with a tail rule.  A kind
checks its range when built; ``envelope`` is its non-increasing |gamma| bound.

Natural logarithm throughout; swapping the base would only rescale the decay
constants, not the threshold structure.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "BiasSchedule",
    "Zero",
    "Constant",
    "LogPower",
    "Table",
    "KakutaniClass",
    "classify_kakutani",
    "cesaro_average",
    "parse_schedule",
    "envelope",
    "first_persistent_below",
]

_DEFAULT_CAP = 0.49
_DEFAULT_N0 = 2


class KakutaniClass(Enum):
    """Dichotomy class of the product measure against the fair-coin measure.

    The measures are equivalent iff sum(gamma_n^2) converges, singular iff it
    diverges; UNKNOWN is reported when the kind does not determine the tail.
    """

    EQUIVALENT = "equivalent"
    SINGULAR = "singular"
    UNKNOWN = "unknown"


@dataclass(frozen=True, eq=False)
class BiasSchedule:
    """Base type; concrete kinds implement ``gamma`` and ``label``.  Kinds
    with scalar fields compare by them; a Table compares by identity."""

    def gamma(self, n: int) -> float:
        raise NotImplementedError

    def gamma_slice(self, start: int, count: int) -> np.ndarray:
        """Vector of gamma at positions start, ..., start+count-1 (1-based).

        The result is a fresh, writable float64 array that the caller owns
        and may overwrite (the sampler builds its thresholds in it); no
        schedule keeps a reference to it.  Positions above 2^53 collapse to
        float64 resolution; the bias varies so slowly there that the loss is
        far below every tolerance used here.
        """
        if start < 1 or count < 0:
            raise ValueError("positions are 1-based and count must be >= 0")
        return self._gamma_run(start, count)

    def _gamma_run(self, start: int, count: int) -> np.ndarray:
        raise NotImplementedError

    @property
    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Zero(BiasSchedule):
    """Fair coin: gamma_n = 0 for all n."""

    def gamma(self, n: int) -> float:
        _check_index(n)
        return 0.0

    def _gamma_run(self, start: int, count: int) -> np.ndarray:
        return np.zeros(count)

    @property
    def label(self) -> str:
        return "zero"


@dataclass(frozen=True)
class Constant(BiasSchedule):
    """Fixed bias gamma_n = value at every position."""

    value: float

    def __post_init__(self) -> None:
        _check_bias("const", self.value)

    def gamma(self, n: int) -> float:
        _check_index(n)
        return self.value

    def _gamma_run(self, start: int, count: int) -> np.ndarray:
        return np.full(count, self.value)

    @property
    def label(self) -> str:
        return f"const:{self.value!r}"


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

    def __post_init__(self) -> None:
        if not self.exponent > 0:
            raise ValueError("LogPower exponent must be > 0")
        if not self.cap > 0:
            raise ValueError("LogPower cap must lie in (0, 1/2)")
        _check_bias("cap", self.cap)
        if self.n0 < 2:
            raise ValueError("LogPower n0 must be >= 2")

    def gamma(self, n: int) -> float:
        _check_index(n)
        if n < self.n0:
            return self.cap
        return min(self.cap, math.log(n) ** -self.exponent)

    def _gamma_run(self, start: int, count: int) -> np.ndarray:
        out = np.full(count, self.cap)
        skip = min(count, max(0, self.n0 - start))
        ns = np.arange(skip, count, dtype=np.float64)
        ns += start
        np.log(ns, out=ns)
        ns **= -self.exponent
        np.minimum(ns, self.cap, out=out[skip:])
        return out

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
    def _tail_value(self) -> float:
        return float(self.values[-1]) if self.tail == "repeat" else 0.0

    def gamma(self, n: int) -> float:
        _check_index(n)
        return float(self.values[n - 1]) if n <= len(self.values) else self._tail_value

    def _gamma_run(self, start: int, count: int) -> np.ndarray:
        out = np.full(count, self._tail_value)
        head = self.values[start - 1 : start - 1 + count]
        out[: len(head)] = head
        return out

    @property
    def label(self) -> str:
        if self.source is not None:
            base = f"table:{self.source}"
        else:
            base = f"table:<{len(self.values)} values>"
        return base if self.tail == "repeat" else f"{base}:tail=zero"


def _check_index(n: int) -> None:
    if n < 1:
        raise ValueError(f"positions are 1-based, got {n}")


def _check_bias(name: str, value: float) -> None:
    """Reject a bias unless 0 < 1/2 + value < 1 in double precision, the
    sampler's own condition: NaN fails, and so does a value just below 1/2
    for which 1/2 + value rounds to 1."""
    if not 0.0 < 0.5 + value < 1.0:
        if -0.5 < value < 0.5:
            raise ValueError(f"{name} = {value!r}: 1/2 + {name} rounds to 1 in double precision")
        raise ValueError(f"{name} = {value!r} outside (-1/2, 1/2)")


def classify_kakutani(schedule: BiasSchedule) -> KakutaniClass:
    """Analytic dichotomy class for the known kinds.

    Zero -> equivalent; nonzero constant -> singular; log-power decay ->
    singular (the squared biases sum like n / log^2c n); tables are
    equivalent when the tail rule is zero and unknown otherwise.
    """
    if isinstance(schedule, Zero):
        return KakutaniClass.EQUIVALENT
    if isinstance(schedule, Constant):
        return KakutaniClass.EQUIVALENT if schedule.value == 0 else KakutaniClass.SINGULAR
    if isinstance(schedule, LogPower):
        return KakutaniClass.SINGULAR
    if isinstance(schedule, Table):
        return KakutaniClass.EQUIVALENT if schedule.tail == "zero" else KakutaniClass.UNKNOWN
    return KakutaniClass.UNKNOWN


def cesaro_average(schedule: BiasSchedule, n_terms: int) -> float:
    """Mean of gamma_1..gamma_N; tends to 0 for admissible decay schedules."""
    if n_terms < 1:
        raise ValueError("cesaro_average needs at least one term")
    total = 0.0
    for start in range(1, n_terms + 1, 1 << 22):
        total += float(schedule.gamma_slice(start, min(1 << 22, n_terms + 1 - start)).sum())
    return total / n_terms


def envelope(schedule: BiasSchedule) -> BiasSchedule:
    """A schedule whose |gamma*_n| is non-increasing and >= |gamma_m| for all
    m >= n: zero, constant and log-power decay are their own; a table gets
    gamma*_n = sup_{m >= n} |gamma_m| by one backward pass, which covers the
    tail too (|last value| when repeated, 0 when zero)."""
    if not isinstance(schedule, Table):
        return schedule
    values = np.maximum.accumulate(np.abs(schedule.values)[::-1])[::-1]
    return Table(values=values, tail=schedule.tail)


def first_persistent_below(schedule: BiasSchedule, bound: float) -> int | None:
    """Smallest n with |gamma(m)| < bound for every m >= n, or None.

    Binary search over the non-increasing envelope for its first position
    below the bound; the search ceiling is 2^63.
    """
    env = envelope(schedule)
    ceiling = 1 << 63
    if abs(env.gamma(1)) < bound:
        return 1
    if not abs(env.gamma(ceiling)) < bound:
        return None
    lo, hi = 1, ceiling  # |gamma*(lo)| >= bound > |gamma*(hi)|
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if abs(env.gamma(mid)) < bound:
            hi = mid
        else:
            lo = mid
    return hi


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
