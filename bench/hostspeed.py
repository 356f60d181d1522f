"""Host speed, measured by a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same invocation on the same input takes up to 1.7 times as long in one
minute as in the next, in CPU time as well as wall time, with no steal
time to show for it.  Those episodes last longer than a run, so a median
over one run cannot remove them.  The reference kernel below is part of the
benchmark, not of the program, and never changes between the two commits a
comparison measures.  It runs next to every timed piece of work; a time
divided by the adjacent reference time no longer depends on the episode.
Multiplied by ``NOMINAL_REFERENCE_S`` it reads as seconds again: seconds on
a host that runs the reference kernel in that time.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

# About the median reference time on a 2-vCPU Xeon (Sapphire Rapids) KVM
# guest with Python 3.11 and numpy 2.4.6.  A fixed scale, so that corrected
# times read as seconds; it does not change between the runs a comparison
# makes.
NOMINAL_REFERENCE_S = 0.14

# Small enough (2 x 1.2 MB) not to move the measuring process's peak RSS
# much; the interpreter part mirrors the oracle's partition loops, the array
# part the solver's elementwise passes.
_SIDE = 400
_ARRAY_PASSES = 120
_COMBINATION_RANGE = 64


def reference_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    x = np.linspace(-1.0, 1.0, _SIDE * _SIDE).reshape(_SIDE, _SIDE)
    y = np.empty_like(x)
    start = time.perf_counter()
    hits = 0
    for c in itertools.combinations(range(_COMBINATION_RANGE), 4):
        if (c[0] * 7 + c[3]) % 5 == 0 and c[1] != c[2] + 1:
            hits += 1
    for _ in range(_ARRAY_PASSES):
        np.multiply(x, x, out=y)
        y += 1.0
        np.sqrt(y, out=y)
        hits += int(y.sum() > 0.0)
    return time.perf_counter() - start


def corrected(seconds: float, reference_s: float) -> float:
    """``seconds`` scaled to the nominal host speed."""
    return seconds * NOMINAL_REFERENCE_S / reference_s
