"""Host speed, measured next to the queries, to take host contention
out of query times.

A shared host runs the same code up to twice as slow for phases of
seconds to minutes, depending on what else runs on it.  Such a phase
moves every timing of a run, so two runs of the same code would differ
by more than any change worth measuring.  A calibration times a fixed
piece of work of the same kind as a query, which no change to evlogic
can touch, and the worker runs one before every query and once after
the last:

- ``arithmetic``: Gauss-Jordan elimination of a fixed matrix of
  Fractions, the kind of work evlogic's simplex and sweeps do, for
  library queries;
- ``start``: starting an interpreter that skips ``site`` and does
  nothing, the kind of work that dominates a ``python -m evlogic`` query.

``scale`` turns each query's wall time into seconds on a reference host,
one on which the calibration takes ``REFERENCE_S[kind]``, using the
median of the calibrations around the query.  A change that makes
evlogic slower makes the scaled times longer; a busy neighbour makes the
calibration longer too and leaves them where they were.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# Seconds each calibration takes on the reference host: about its time
# in a quiet phase of the 2-vCPU Intel Xeon virtual machine it was
# written on.
REFERENCE_S = {"arithmetic": 0.002, "start": 0.01}
# Calibrations on each side of a query that make its local host speed.
WINDOW = 5

_MATRIX = [[Fraction((7 * i + 3 * j) % 11 + 1, (i + 2 * j) % 7 + 2) for j in range(10)]
           for i in range(8)]


def _arithmetic() -> float:
    t0 = perf_counter()
    rows = [list(r) for r in _MATRIX]
    for c in range(len(rows)):
        p = rows[c][c]
        rows[c] = [x / p for x in rows[c]]
        for r in range(len(rows)):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return perf_counter() - t0


def _start() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)
    return perf_counter() - t0


CALIBRATIONS = {"arithmetic": _arithmetic, "start": _start}


def scale(times: list[float], calibrations: list[float], kind: str) -> list[float]:
    """``times[i]`` in reference-host seconds; ``calibrations[i]`` was
    taken just before sample i and ``calibrations[i + 1]`` just after."""
    if len(calibrations) != len(times) + 1:
        raise ValueError("need one calibration before each sample and one after the last")
    return [t * REFERENCE_S[kind] / statistics.median(
                calibrations[max(0, i - WINDOW + 1): i + WINDOW + 1])
            for i, t in enumerate(times)]
