"""The benchmark's tracer (perfbench/tracing.py) still finds every pgl name it
rebinds, wraps it for one traced sweep, and puts the original back.

A library cut that drops or renames one of those names breaks
``perfbench/run.py --trace 1`` without touching any other test.
"""

import importlib.util
from pathlib import Path

import pgl.analytics as analytics
import pgl.runner as runner
import pgl.schedule as schedule
from pgl.runner import ExperimentConfig, run_bounds

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_there_and_comes_back():
    tracing = load_tracing()
    named = [(analytics, name) for name in tracing._ANALYTICS_NAMES]
    named.append((schedule.BiasSchedule, "gamma_slice"))
    for owner, name in named:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name} is gone"
    originals = [getattr(owner, name) for owner, name in named]
    runner_names = dict(vars(runner))

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, name), original in zip(named, originals):
            assert getattr(owner, name).__wrapped__ is original, name
        run_bounds(ExperimentConfig(schedules=("logpow:1.0",), k_list=(4,)))
    finally:
        tracer.uninstall()

    for (owner, name), original in zip(named, originals):
        assert getattr(owner, name) is original, name
    assert all(vars(runner)[name] is value for name, value in runner_names.items())
    spans = {span[2] for span in tracer.take()}
    assert {
        "analytics.chen_stein_terms",
        "analytics.critical_onset_index",
        "analytics.overlap_pair_probabilities",
        "schedule.gamma_slice",
    } <= spans
