"""Host-speed calibration: convert clock time to time at a reference speed.

The benchmark's host is a few vCPUs of a shared machine whose speed
drifts by up to 2x over seconds to minutes.  A fixed loop's CPU time
tracks its wall time, so the drift is slower execution, not time taken
away from the process.  A run that happens to fall into a slow minute
then reads as a regression.

To take the drift out, ``SpeedClock`` runs a small fixed kernel (no
fedsim code) at the benchmark's boundaries (each round and each
client's training), at most once per ``INTERVAL_S``, and records how
long each run of it took.  The time between two kernel runs is scaled
by the kernel's reference time over the median duration of the
``WINDOW`` kernel runs on either side; time spent in the kernel itself
counts as zero.  ``ref_seconds(a, b)`` is
the scaled time between two clock reads: what the interval would have
taken with the host at the speed where the kernel takes its reference
time.  On an unloaded host the scale factor is near 1.

The drift does not slow all code alike: timed side by side,
interpreter-bound code and arithmetic on wide arrays drift by
different amounts.  So there are two kernels, and a workload uses the one that moves with it.  ``interp``
is plain Python plus numpy calls on 64-element arrays, like fedsim's
per-step code on a small model; ``vector`` is elementwise work on a
54,000-element array, like a step of a model of that size.  Timed next
to the workloads on a drifting host, the log of ``interp`` moved with
``desk``'s median round at slope 1.08 and the log of ``vector`` with
``mlp-wide``'s at slope 1.00, while ``interp`` against ``mlp-wide``
gave slope 0.46.

The kernel is the benchmark's own code, so a change to fedsim does not
change the scale, except by leaving work running (threads, processes)
between the calls the benchmark makes; that would slow the kernel and
is not expected of a batch simulator.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Least time between two kernel runs, so the kernel costs about 2%.
INTERVAL_S = 0.02
#: Kernel runs taken on each side of an interval for its scale factor.
WINDOW = 4
_SMALL = np.arange(64.0)
_WIDE = np.linspace(0.0, 1.0, 54_000)


def interp() -> int:
    """A fixed amount of interpreter and small-array work."""
    total = 0
    table: dict[int, int] = {}
    for i in range(1500):
        total += i * i % 7
        table[i & 63] = total
    for _ in range(60):
        total += float((_SMALL * 0.5 + _SMALL)[3]) > 0
    return total + len(table)


def vector() -> float:
    """A fixed amount of elementwise work on a 54,000-element array."""
    total = 0.0
    for _ in range(4):
        out = _WIDE * 0.5 + _WIDE
        total += float(out[7]) + bool(np.isfinite(out).all())
    return total


#: name -> (kernel, its median duration on the reference box: 2 vCPUs,
#: Python 3.11.7, numpy 2.4.6).  The reference time sets the scale of
#: every timing metric and is not changed between measurements that
#: are compared.
KERNELS = {"interp": (interp, 0.42e-3), "vector": (vector, 0.42e-3)}


class SpeedClock:
    """Kernel timings taken through a run, and the reference time they give."""

    def __init__(self, kernel: str) -> None:
        self.kernel, self.ref_s = KERNELS[kernel]
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._knots: tuple[np.ndarray, np.ndarray] | None = None

    def calibrate(self) -> None:
        """Run the kernel once and record its duration."""
        start = perf_counter()
        self.kernel()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self._knots = None

    def tick(self) -> None:
        """Run the kernel if ``INTERVAL_S`` has passed since its last run."""
        if not self.ends or perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.calibrate()

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def host_speed(self) -> float:
        """Median kernel duration over its reference time: 1 at reference speed."""
        return statistics.median(self.durations()) / self.ref_s

    def _build(self) -> tuple[np.ndarray, np.ndarray]:
        # Reference time as a piecewise-linear function of clock time:
        # flat while the kernel runs, and between kernel runs i and i+1
        # rising at the reference time over the median of the kernel runs
        # i-WINDOW+1 .. i+WINDOW.
        durs = self.durations()
        times = [self.starts[0], self.ends[0]]
        refs = [0.0, 0.0]
        for i in range(len(durs) - 1):
            local = statistics.median(durs[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
            gap = self.starts[i + 1] - self.ends[i]
            times += [self.starts[i + 1], self.ends[i + 1]]
            ref = refs[-1] + gap * self.ref_s / local
            refs += [ref, ref]
        return np.asarray(times), np.asarray(refs)

    def reference(self, t) -> np.ndarray:
        """Reference time at clock reads ``t``, measured from the first kernel run."""
        if self._knots is None:
            self._knots = self._build()
        times, refs = self._knots
        return np.interp(t, times, refs)

    def ref_seconds(self, a: float, b: float) -> float:
        """The interval from clock read ``a`` to ``b`` in reference seconds."""
        start, end = self.reference([a, b])
        return float(end - start)
