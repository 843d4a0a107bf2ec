"""One workload in its own process: warm-up, closed loop, output checks.

Run by ``run.py`` with the thread pools pinned to one thread.  Sweep 0
warms up and is not timed; sweeps 1, 2, ... follow one after another until
``--seconds`` have passed since sweep 1 began.  Each sweep is one operation:
it fails if it raises or yields a record whose status is not "ok".  A
reference pass (``calibration.py``) of the workload's kind runs in a child
process before sweep 1 and after every sweep, so that ``run.py`` can give
the sweeps' time in reference seconds.  With
``--trace 1`` the sweeps alternate between untraced (odd) and traced
(even), and the traced ones give the per-layer numbers.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibration import ReferenceProcess
from tracing import Tracer, layer_metrics, span_table
from workloads import CHECKS, WORKLOADS, failed_records, run_sweep

OUT_DIR = Path(__file__).resolve().parent / "out"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None

    outputs = []  # (config, records, csv) of every sweep that did not fail
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: list[float] = []
    passes: list[tuple[float, float]] = []
    traced_spans: list[tuple] = []
    failed = 0

    def attempt(index: int, traced: bool):
        """Sweep ``index``: its outputs are kept for the checks, and its
        wall and CPU time are returned, or None if it failed."""
        nonlocal failed
        config = workload.sweep_config(args.seed, index)
        if traced:
            tracer.install()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            records, text = run_sweep(workload, config, tracer.wrap if traced else lambda fn: fn)
        except Exception:
            if not failed:
                traceback.print_exc()
            records = None
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if traced:
                tracer.uninstall()
        spans = tracer.take() if traced else None
        if records is None or failed_records(records):
            failed += 1
            return None
        outputs.append((config, records, text))
        if traced:
            traced_spans.append((wall, spans))
        return wall, cpu

    # Sweep 0 warms up caches and lazy imports; it is checked but not timed.
    attempt(0, False)
    with ReferenceProcess(workload.reference) as reference:
        reference.run()  # makes the pass's inputs and faults its pages in
        passes.append(reference.run())
        index = 1
        loop_start = time.perf_counter()
        while True:
            traced = tracer is not None and index % 2 == 0
            timed = attempt(index, traced)
            passes.append(reference.run())
            if timed is not None:
                wall, cpu = timed
                walls[traced].append(wall)
                if not traced:
                    cpus.append(cpu)
            index += 1
            if time.perf_counter() - loop_start >= args.seconds and (tracer is None or index >= 3):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    for i, (config, records, text) in enumerate(outputs):
        problems += [f"sweep {config.master_seed}: {p}" for p in CHECKS[workload.mode](records, text, config, i == 0)]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if not walls[False] or (tracer is not None and not walls[True]):
        print(f"error: all {index} sweeps of the kind needed failed", file=sys.stderr)
        return 1
    result = {
        "attempted": index,
        "failed": failed,
        "correct": not problems,
        "wall_s": walls[False],
        "cpu_s": cpus,
        "reference": workload.reference,
        "reference_pass_s": [wall for wall, _ in passes],
        "reference_pass_cpu_s": [cpu for _, cpu in passes],
        "peak_rss_mb": peak_rss_mb,
        "config": workload.sweep_config(args.seed, 0).as_dict(),
    }
    if tracer is not None:
        result.update(_trace_summary(args, traced_spans, walls))
    print(json.dumps(result))
    return 0


def _trace_summary(args, traced_spans, walls) -> dict:
    per_sweep = [layer_metrics(spans) for _, spans in traced_spans]
    layers = {name: statistics.median(m[name] for m in per_sweep) for name in per_sweep[0]}
    wall, spans = traced_spans[0]
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(trace_file, "w") as fh:
        for sweep, (_, sweep_spans) in enumerate(traced_spans):
            for span_id, parent, name, start, end, self_time, counts in sweep_spans:
                fh.write(
                    json.dumps(
                        {"sweep": sweep, "id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end, "self_s": self_time, "counts": counts}
                    )
                    + "\n"
                )
    return {
        "layers": layers,
        "table": span_table(spans),
        "first_traced_wall_s": wall,
        "self_sum_s": sum(span[5] for span in spans),
        "traced_wall_s": statistics.median(walls[True]),
        "untraced_wall_s": statistics.median(walls[False]),
        "trace_file": str(trace_file),
    }


if __name__ == "__main__":
    sys.exit(main())
