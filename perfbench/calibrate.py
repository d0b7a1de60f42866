"""Host-speed calibration: a fixed reference kernel sampled during the run.

The benchmark runs on a few cores of a shared host whose speed drifts by
±20% over seconds, in CPU time as much as in wall time, so a run's raw
times measure the neighbours as much as the program.  ``Sampler`` runs a
fixed reference kernel from a ``SIGALRM`` handler every ``INTERVAL_S``,
in the benchmark's own thread, so each sample sees the host as the
operation around it does.  A sample's speed is ``REF_SAMPLE_MS`` over its
duration.  An operation's normalised time is its wall time minus the
samples' own time, times the mean speed of the samples taken during it:
the time it would take on a host where one reference sample takes exactly
``REF_SAMPLE_MS``.  The mean of speeds, not the median of durations,
because the timer ticks at equal wall-time steps, so the mean speed is the
work done per second, and because the host flips between a fast and a slow
state, where a median jumps from one mode to the other.

The kernel lives here, not in the package, so a change to the package
cannot change it.  It mixes the two kinds of work the workloads do:
numpy calls on small arrays (a Gini split sweep) and pure-Python parsing.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.03
# Nominal duration of one reference sample; normalised times are in ms
# "at the speed where one sample takes this long".
REF_SAMPLE_MS = 1.0
# An operation with fewer samples inside it is scaled by the run's mean.
MIN_SAMPLES = 5

_rng = np.random.default_rng(20240715)
_X = _rng.normal(size=(32, 48))
_Y = (_rng.random((32, 48)) < 0.5).astype(int)
_CELLS = [f"{v:.6f}" for v in _rng.normal(size=1200)]


def reference_kernel() -> float:
    """A fixed amount of work, about 1 ms on a 2-core Xeon host."""
    acc = 0.0
    for x, y in zip(_X, _Y):
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y[order]
        cut = np.flatnonzero(xs[:-1] < xs[1:])
        left_n = cut + 1
        left_ones = np.cumsum(ys)[cut]
        gini = 1.0 - (left_ones / left_n) ** 2
        acc += float(gini[int(np.argmin(gini))])
    for cell in _CELLS:
        acc += float(cell)
    return acc


def time_reference(n: int) -> list[float]:
    """Seconds of ``n`` back-to-back reference samples."""
    out = []
    for _ in range(n):
        started = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - started)
    return out


def speed(durations: list[float]) -> float:
    """Mean speed of reference samples of these durations (1 = nominal)."""
    return statistics.fmean(REF_SAMPLE_MS / 1000.0 / d for d in durations)


class Sampler:
    """Reference samples taken on a timer while ``with`` is open.

    ``samples`` holds (start, seconds) pairs.  Use as a context manager;
    leaving it stops the timer and restores the previous handler.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _take(self, signum, frame):
        started = time.perf_counter()
        reference_kernel()
        self.samples.append((started, time.perf_counter() - started))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def window(self, start: float, end: float) -> list[float]:
        """Durations of the samples taken between ``start`` and ``end``."""
        return [d for s, d in self.samples if start <= s < end]


def normalised(wall_s: float, inside: list[float], fallback_speed: float) -> tuple[float, float]:
    """(net seconds, normalised seconds) of one operation.

    ``inside`` are the durations of the samples taken during it; their sum
    is not the operation's time.  With fewer than ``MIN_SAMPLES`` of them
    ``fallback_speed``, the whole run's, sets the scale.
    """
    net = wall_s - sum(inside)
    return net, net * (speed(inside) if len(inside) >= MIN_SAMPLES else fallback_speed)
