"""Machine-speed calibration of the benchmark's timings.

On a few cores of a shared host the CPU throughput a process gets swings by
up to a factor of two, in phases lasting from seconds to minutes, and the
process's CPU time swings with it.  A run then reports the phase it landed
in more than the program, and no run length the time budget allows averages
the phases out.  So every timed stretch is bracketed by ``speed()``, a fixed
piece of work written here, independent of the program, in the same idiom as
the program's hot paths (Python integer bit arithmetic, small tuples and
dicts, small numpy products).  A time ``t`` measured at local kernel time
``k`` is reported as ``t * NOMINAL_S / k``: what it would have taken at the
reference speed, where the kernel takes ``NOMINAL_S``.  The raw times go in
the run's metadata.

A change to the program moves ``t`` and leaves ``k`` alone, so it shows in
full; a phase of the machine moves both and largely cancels out.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time at the reference speed: a 2-vCPU x86-64 VM, Python 3.11,
# numpy 2.4, outside its slow phases
NOMINAL_S = 3.0e-3
REPEATS = 3

_rng = np.random.default_rng(20171208)
_WORDS = tuple(int(w) for w in _rng.integers(0, 2 ** 62, size=64))
_MATRIX = _rng.random((8, 8))


def kernel() -> int:
    """A fixed amount of work; the result only keeps it from being idle."""
    acc, table = 0, {}
    for rep in range(120):
        for w in _WORDS:
            acc ^= (w & (acc | 0x5BD1E995)) >> 3
            acc += (w ^ acc).bit_count()
            table[w & 255] = (acc, rep)
    for rep in range(160):
        acc += int((_MATRIX @ _MATRIX[rep % 8]).sum() > 2.0)
    return acc + len(table)


def speed() -> float:
    """Seconds the kernel takes now: the least of REPEATS back-to-back
    runs, so a single interrupt does not count."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two ``speed()`` readings to
    the reference speed."""
    return NOMINAL_S / (0.5 * (before + after))
