"""Exact and Monte Carlo tools for window-match counts of biased binary
sequences, and for their Poisson(1) benchmark.

A bias schedule assigns each position n a bias gamma_n in (-1/2, 1/2); a
sequence samples symbol +1 at position n with probability 1/2 + gamma_n.
For a level k, the match count of a uniformly drawn k-symbol pattern over
the 2^k windows of the sequence is compared against its fair-coin benchmark,
the Poisson law with mean 1.  The package computes the quenched
(per-sequence) and annealed (sequence-averaged) laws exactly from window
histograms, exact and bounded Stein-method error terms for the Poisson
approximation, and the tail/union-bound mechanism that defeats convergence
when the bias decays too slowly.

Every name a submodule lists in its ``__all__`` is re-exported here.
"""

from . import analytics, counter, errors, runner, sampler, schedule, stats
from .analytics import *  # noqa: F403
from .counter import *  # noqa: F403
from .errors import *  # noqa: F403
from .runner import *  # noqa: F403
from .sampler import *  # noqa: F403
from .schedule import *  # noqa: F403
from .stats import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (errors, schedule, sampler, counter, stats, analytics, runner):
    __all__ += _module.__all__
del _module
