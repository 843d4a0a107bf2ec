"""Fixed reference computations that measure how fast the host runs now.

The VM this benchmark was built on shares its host, and the host runs it in
states that differ in speed by up to a third for minutes at a time (see
Noise in README.md).  A reference pass does the same work on every call.
The worker runs one after every sweep, and ``run.py`` divides the run's
median sweep time by the median pass time; ``REFERENCE_S`` turns that
ratio back into seconds.  The passes import only numpy, so no change to
``pgl`` can change their time.

The worker asks for its passes through ``ReferenceProcess``, which runs
them in a child process: the passes' arrays then do not count in the
worker's peak resident memory, and the worker's heap does not change their
time.  Run as a script, this module is that child: it reads a pass name
per line and answers with the pass's wall and CPU seconds.

The host's states do not slow every kind of work alike: many small numpy
calls and interpreter work slow down about twice as much as streaming over
large arrays.  So there are two passes, and each workload is divided by the
one like the work its sweeps spend their time in:

* ``streaming``: level-16 window codes built over 4 Mi bits by shifting and
  OR-ing, then ``log1p`` and ``exp`` over 2 Mi floats, like the sampler,
  the counter and the γ evaluations;
* ``small-calls``: 1500 Gray-code walks over 4096 patterns, each a few
  numpy calls on arrays of 12 and 4096 values with an extended-precision
  cumulative sum, like the exact Stein C term.

In a 270-second log of alternating sweeps and passes on the reference
machine, six-sweep medians of ``bounds-sweep`` had a spread (IQR over
median) of 18.7 % raw, 5.7 % over ``small-calls`` and 8.5 % over
``streaming``; those of ``annealed-sweep`` 9.5 % raw, 3.9 % over
``streaming`` and 7.6 % over ``small-calls``.  An interpreter loop and
Philox draws were tried too and followed the sweeps less closely.
"""

from __future__ import annotations

import functools
import math
import subprocess
import sys
import time

import numpy as np

# Seconds one pass is defined to take: about what each takes on the
# reference machine, so that reference seconds read close to seconds there.
REFERENCE_S = 0.15

_LEVEL = 16
_CHILD_TIMEOUT_S = 30

_WALK_LEVEL = 12
_WALKS = 1500
_FLIP_INDEX = np.random.default_rng(1).integers(0, _WALK_LEVEL, 1 << _WALK_LEVEL)
_FLIP_UP = np.random.default_rng(2).integers(0, 2, 1 << _WALK_LEVEL).astype(bool)
_GAMMA = np.linspace(0.01, 0.2, _WALKS + _WALK_LEVEL)


@functools.cache
def _streaming_inputs() -> tuple[np.ndarray, np.ndarray]:
    """Made on first use, so that importing this module costs no memory."""
    bits = (np.random.Philox(key=0x5EED).random_raw(1 << 22) >> np.uint64(63)).astype(np.uint32)
    return bits, np.linspace(0.0, 0.9, 1 << 21)


def _streaming() -> None:
    bits, grid = _streaming_inputs()
    n = bits.size - _LEVEL + 1
    codes = bits[:n].copy()
    for t in range(1, _LEVEL):
        codes |= bits[t : t + n] << np.uint32(t)
    total = float(np.exp(1.5 * np.log1p(-grid)).sum())
    if int(codes.max()) >= 1 << _LEVEL or not 0 < total < grid.size:
        raise RuntimeError("streaming reference pass computed a wrong result")


def _small_calls() -> None:
    total = 0.0
    for j in range(_WALKS):
        two_gamma = 2.0 * _GAMMA[j : j + _WALK_LEVEL]
        delta = np.log1p(two_gamma) - np.log1p(-two_gamma)
        values = np.empty(1 << _WALK_LEVEL, dtype=np.longdouble)
        values[0] = math.fsum(float(v) for v in np.log1p(-two_gamma))
        values[1:] = np.where(_FLIP_UP, delta[_FLIP_INDEX], -delta[_FLIP_INDEX])[1:]
        np.cumsum(values, out=values)
        total += float(np.abs(np.exp(values.astype(np.float64)) - 1.0).mean())
    if not math.isfinite(total) or total <= 0:
        raise RuntimeError("small-calls reference pass computed a wrong result")


PASSES = {"streaming": _streaming, "small-calls": _small_calls}


def reference_pass(kind: str) -> tuple[float, float]:
    """Wall and CPU seconds of one pass of the named reference work.  The
    first call of a kind also makes its inputs; time the second."""
    work = PASSES[kind]
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    work()
    return time.perf_counter() - wall0, time.process_time() - cpu0


class ReferenceProcess:
    """Passes of one kind, run on request in a child process that lives as
    long as the ``with`` block."""

    def __init__(self, kind: str) -> None:
        if kind not in PASSES:
            raise ValueError(f"no reference pass {kind!r}")
        self.kind = kind
        self._child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def __enter__(self) -> "ReferenceProcess":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._child.stdin.close()
            self._child.wait(timeout=_CHILD_TIMEOUT_S)
        finally:
            if self._child.poll() is None:
                self._child.kill()
                self._child.wait()
            self._child.stdout.close()

    def run(self) -> tuple[float, float]:
        """Wall and CPU seconds of one pass, timed inside the child."""
        self._child.stdin.write(self.kind + "\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited with code {self._child.wait()}")
        wall, cpu = line.split()
        return float(wall), float(cpu)


def _serve() -> None:
    for line in sys.stdin:
        wall, cpu = reference_pass(line.strip())
        print(wall, cpu, flush=True)


if __name__ == "__main__":
    _serve()
