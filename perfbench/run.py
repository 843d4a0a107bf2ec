"""Benchmark of the ``pgl`` sweeps, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: annealed-sweep, bounds-sweep, quenched-deep (see README.md).
The workload runs in its own process (``worker.py``) with the BLAS and
OpenMP pools pinned to one thread, and everything runs on one CPU.
Afterwards this script times fresh interpreters that import ``pgl`` and
build the config, with a reference pass (``calibration.py``) before the
first and after each, so that set-up, like the sweeps, is also given in
reference seconds.  The last line of standard output is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced run with ``--trace 1``.  A traced run also writes its spans
and a report under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S, reference_pass

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
# Fresh interpreters timed per run; setup_s is their median time in
# reference seconds.
SETUP_REPEATS = 4
SETUP_REFERENCE = "streaming"
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# A fresh interpreter imports pgl, builds the workload's config and prints
# the monotonic clock, which the parent compares with its own reading taken
# before the start.
SETUP_PROBE = (
    "import json, sys, time\n"
    "import pgl\n"
    "fields = json.loads(sys.argv[1])\n"
    "pgl.ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})\n"
    "print(time.monotonic())\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONHASHSEED"] = "0"
    paths = [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(args, env) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(config: dict, env) -> float:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, json.dumps(config)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip()) - start


def import_times(env) -> dict[str, float]:
    """cli.import_s: cumulative import time of ``pgl.cli`` in a fresh
    interpreter; cli.import_scipy_s: the part spent under scipy modules,
    both from ``python -X importtime``."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import pgl.cli"],
        env=env, stderr=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    rows = []
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e6))
    # A module's line follows those of the modules it imported, indented
    # deeper; walk backwards so every line's ancestors are known.
    scipy_s = 0.0
    ancestors: list[tuple[int, bool]] = []
    cli_s = 0.0
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        under_scipy = any(flag for _, flag in ancestors)
        if is_scipy and not under_scipy:
            scipy_s += cumulative
        if name == "pgl.cli" and not ancestors:
            cli_s = cumulative
        ancestors.append((depth, is_scipy or under_scipy))
    return {"cli.import_s": cli_s, "cli.import_scipy_s": scipy_s}


def in_reference_seconds(times: list[float], passes: list[float]) -> float:
    """The median of ``times`` over the median of the reference passes made
    among them, times ``REFERENCE_S``: the time on a host that runs a pass
    in ``REFERENCE_S`` seconds."""
    return statistics.median(times) / statistics.median(passes) * REFERENCE_S


def setup_probes(config: dict, env) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters and the reference passes made
    before, between and after them.  Of the passes, ``streaming`` followed
    set-up time the more closely (README.md, Noise)."""
    reference_pass(SETUP_REFERENCE)  # makes the pass's inputs
    passes = [reference_pass(SETUP_REFERENCE)[0]]
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(setup_seconds(config, env))
        passes.append(reference_pass(SETUP_REFERENCE)[0])
    return setups, passes


def end_to_end(worker: dict, env) -> dict:
    setups, setup_passes = setup_probes(worker["config"], env)
    passes = worker["reference_pass_s"]
    for label, values in (
        ("setup probes", setups),
        (f"{SETUP_REFERENCE} passes among them", setup_passes),
        ("sweeps", worker["wall_s"]),
        (f"{worker['reference']} passes among them", passes),
    ):
        print(f"{label}: median {statistics.median(values):.4f} s of {', '.join(f'{v:.3f}' for v in values)}", file=sys.stderr)
    return {
        "wall_ref_s": {"value": in_reference_seconds(worker["wall_s"], passes), "unit": "s"},
        "cpu_ref_s": {"value": in_reference_seconds(worker["cpu_s"], worker["reference_pass_cpu_s"]), "unit": "s"},
        "setup_s": {"value": in_reference_seconds(setups, setup_passes), "unit": "s"},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(args, worker: dict, env) -> dict:
    values = dict(worker["layers"])
    values.update(import_times(env))
    values["trace.traced_wall_s"] = worker["traced_wall_s"]
    values["trace.untraced_wall_s"] = worker["untraced_wall_s"]
    values["trace.overhead_s"] = worker["traced_wall_s"] - worker["untraced_wall_s"]
    values["trace.unattributed_s"] = worker["first_traced_wall_s"] - worker["self_sum_s"]
    values["trace.reference_pass_s"] = statistics.median(worker["reference_pass_s"])
    write_report(args, worker, values)
    return {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def write_report(args, worker: dict, values: dict) -> None:
    lines = [
        f"# Traced run: {args.workload}, seed {args.seed}, {args.seconds} s",
        "",
        f"Untraced sweep wall time (median): {worker['untraced_wall_s']:.4f} s",
        f"Traced sweep wall time (median): {worker['traced_wall_s']:.4f} s",
        f"Tracing overhead: {values['trace.overhead_s']:+.4f} s",
        f"First traced sweep: wall {worker['first_traced_wall_s']:.4f} s, sum of self times "
        f"{worker['self_sum_s']:.4f} s, unattributed {values['trace.unattributed_s']:.6f} s",
        f"Spans: {worker['trace_file']}",
        "",
        "## Per-layer metrics (median over traced sweeps)",
        "",
        "| metric | value | unit |",
        "| --- | ---: | --- |",
    ]
    lines += [f"| `{name}` | {value:.6g} | {unit_of(name)} |" for name, value in sorted(values.items())]
    lines += ["", "## Self time by span, first traced sweep", "", "| span | calls | self s |", "| --- | ---: | ---: |"]
    table = sorted(worker["table"].items(), key=lambda item: -item[1]["self_s"])
    lines += [f"| `{name}` | {row['calls']} | {row['self_s']:.4f} |" for name, row in table]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-report.md"
    path.write_text("\n".join(lines) + "\n")
    print(f"traced-run report: {path}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="checked by worker.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "pgl" / "__init__.py").is_file():
        print(f"error: no pgl package under {SRC}", file=sys.stderr)
        return 2
    # Everything this script starts inherits one CPU, so that the reference
    # passes run where the sweeps and probes they measure run; nothing
    # here ever runs two things at once.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    try:
        worker = run_worker(args, env)
        metrics = per_layer(args, worker, env) if args.trace else end_to_end(worker, env)
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
