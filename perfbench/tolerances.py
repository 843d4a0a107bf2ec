"""Regenerate the spreads behind the TV tolerances in ``workloads.py``.

    python3 perfbench/tolerances.py [trials]

For levels 20 and 24 it samples ``trials`` quenched laws (default 40 at
k = 20, a tenth of that at k = 24) and prints, for ``logpow:1.0``, the
mean, standard deviation and largest size of TV - predicted TV, and for
``zero`` at k = 20 the largest TV to Poisson(1).  ``PREDICTION_TOL`` and
``FAIR_COIN_TOL`` are set at 7 or more standard deviations of these.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from pgl.runner import ExperimentConfig, run_quenched  # noqa: E402


def main() -> None:
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    for k, count in ((20, trials), (24, max(2, trials // 10))):
        predicted = oracles.tv_of_pmf_to_poisson_one(oracles.mixed_poisson_prediction("logpow:1.0", k))
        schedules = ("logpow:1.0", "zero") if k == 20 else ("logpow:1.0",)
        records = run_quenched(ExperimentConfig(schedules=schedules, k_list=(k,), trials=count, master_seed=7))
        gaps = np.array([r.tv_to_po1 - predicted for r in records if r.schedule == "logpow:1.0"])
        print(
            f"k={k} logpow:1.0 predicted TV {predicted:.4f}; over {count} trials TV - predicted "
            f"has mean {gaps.mean():+.4f}, sd {gaps.std():.4f}, largest size {np.abs(gaps).max():.4f}"
        )
        fair = [r.tv_to_po1 for r in records if r.schedule == "zero"]
        if fair:
            print(f"k={k} zero: largest TV to Poisson(1) over {count} trials {max(fair):.4f}")


if __name__ == "__main__":
    main()
