"""Spans around the calls into each ``pgl`` layer, recorded from outside.

The package is not edited.  ``Tracer.install`` rebinds, for the length of
one traced sweep, the names the program looks up at call time:

* every ``pgl`` function that ``pgl.runner`` imports into its namespace;
* ``overlap_pair_probabilities``, ``log_likelihood_values``,
  ``mean_abs_likelihood_deviation``, ``critical_onset_index`` and
  ``sample_words`` in ``pgl.analytics``;
* the method ``BiasSchedule.gamma_slice``.

``uninstall`` puts the originals back.  A span records its name, start, end,
parent span and self time (its duration less that of its direct children),
plus the counts of work its arguments describe.  Spans stay in memory until
the worker writes them out.
"""

from __future__ import annotations

import inspect
import itertools
import time
import tracemalloc

import pgl.analytics as analytics
import pgl.runner as runner
import pgl.schedule as schedule

_ANALYTICS_NAMES = (
    "overlap_pair_probabilities",
    "log_likelihood_values",
    "mean_abs_likelihood_deviation",
    "critical_onset_index",
    "sample_words",
)

# Work counts taken at a span's boundary from its bound arguments.
COUNTS = {
    "schedule.gamma_slice": lambda a: {"schedule.gamma_positions": a["count"]},
    "sampler.sample_sequence": lambda a: {"sampler.positions_sampled": a["length"]},
    "sampler.sample_words": lambda a: {"sampler.words_drawn": a["count"]},
    "counter.window_histogram": lambda a: {"counter.windows_counted": 1 << a["k"]},
    "analytics.overlap_pair_probabilities": lambda a: {"analytics.pairs_evaluated": a["count"]},
    "analytics.log_likelihood_values": lambda a: {
        "analytics.gray_walks": 1,
        "analytics.patterns_enumerated": 1 << a["k"],
    },
}

# Per-layer time metrics: the summed self time of the named spans.
SELF_TIMES = {
    "schedule.gamma_slice_s": ("schedule.gamma_slice",),
    "sampler.sample_sequence_s": ("sampler.sample_sequence",),
    "sampler.sample_words_s": ("sampler.sample_words",),
    "counter.window_histogram_s": ("counter.window_histogram",),
    "counter.quenched_distribution_s": ("counter.quenched_distribution",),
    "analytics.overlap_pairs_s": ("analytics.overlap_pair_probabilities",),
    "analytics.loglik_s": ("analytics.log_likelihood_values",),
    "analytics.mc_deviation_s": ("analytics.mean_abs_likelihood_deviation",),
    "analytics.chen_stein_self_s": ("analytics.chen_stein_terms",),
    "stats.tv_distance_s": ("stats.tv_distance",),
    "stats.aggregate_annealed_s": ("stats.aggregate_annealed",),
    "runner.self_s": (
        "runner.run_annealed",
        "runner.run_bounds",
        "runner.run_quenched",
    ),
    "runner.records_to_csv_s": ("runner.records_to_csv",),
}

COUNT_METRICS = (
    "schedule.gamma_positions",
    "sampler.positions_sampled",
    "sampler.words_drawn",
    "counter.windows_counted",
    "analytics.pairs_evaluated",
    "analytics.gray_walks",
    "analytics.patterns_enumerated",
)
PEAK_METRIC = "counter.window_histogram_peak_mb"


def span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """Records nested spans; one instance per worker process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._saved: list[tuple] = []
        self._wrapped = [(runner, name) for name, obj in vars(runner).items() if _is_pgl_import(obj)]
        self._wrapped += [(analytics, name) for name in _ANALYTICS_NAMES]
        self._wrapped.append((schedule.BiasSchedule, "gamma_slice"))

    def wrap(self, fn):
        """``fn`` with a span around every call."""
        name = span_name(fn)
        counter = COUNTS.get(name)
        signature = inspect.signature(fn) if counter else None
        measure_memory = name == "counter.window_histogram"
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
            counts = counter(signature.bind(*args, **kwargs).arguments) if counter else {}
            if measure_memory:
                counts[PEAK_METRIC] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            spans.append(
                (frame[0], parent[0] if parent else None, name, start, end, end - start - frame[1], counts)
            )
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self._saved = [(owner, name, getattr(owner, name)) for owner, name in self._wrapped]
        for owner, name, fn in self._saved:
            setattr(owner, name, self.wrap(fn))

    def uninstall(self) -> None:
        for owner, name, fn in self._saved:
            setattr(owner, name, fn)
        self._saved = []

    def take(self) -> list[tuple]:
        """The spans recorded since the last call, oldest first."""
        spans = sorted(self.spans, key=lambda span: span[3])
        self.spans.clear()
        return spans


def _is_pgl_import(obj) -> bool:
    return (
        inspect.isfunction(obj)
        and obj.__module__.startswith("pgl.")
        and obj.__module__ != runner.__name__
    )


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced sweep."""
    metrics = {name: 0.0 for name in SELF_TIMES}
    metrics.update({name: 0 for name in COUNT_METRICS})
    metrics[PEAK_METRIC] = 0.0
    owner = {span: metric for metric, names in SELF_TIMES.items() for span in names}
    for _, _, name, _, _, self_time, counts in spans:
        if name in owner:
            metrics[owner[name]] += self_time
        for key, value in counts.items():
            metrics[key] = max(metrics[key], value) if key == PEAK_METRIC else metrics[key] + value
    return metrics


def span_table(spans) -> dict[str, dict]:
    """Calls and self time of every span name, for the report."""
    table: dict[str, dict] = {}
    for _, _, name, _, _, self_time, _ in spans:
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_time
    return table
