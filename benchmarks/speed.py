"""Machine-speed calibration for timings taken on a shared machine.

On the machines this benchmark was built on, a vCPU's speed drifts by up
to half for seconds at a time, and the two vCPUs drift independently.  Raw
wall times then spread by 15-25% between runs of identical work.  So every
process of a run is pinned to one CPU, a sampler thread times a fixed
pure-Python computation every SAMPLE_PERIOD_S while items run, and each
item has its wall time scaled by

    CALIBRATION_REF_S / median(calibration times during the item)

(the nearest calibration when the item is shorter than the period).
Scaled timings read as if the calibration had taken CALIBRATION_REF_S, about
its median time on that machine.  The computation does not
use schedlab, so a faster schedlab still reads as faster.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

CALIBRATION_REF_S = 0.0002
SAMPLE_PERIOD_S = 0.05


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU, so that
    the calibration measures the CPU the work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrate() -> float:
    """Seconds taken by a fixed computation of dict, list, tuple and string
    work, as in schedlab.  The best of three, so that one interrupt does
    not read as a slow machine."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        d = {}
        for i in range(200):
            d[(i % 97, i)] = [i, str(i)]
        acc = 0
        for k in sorted(d, key=lambda k: (k[1] % 13, k)):
            acc += len(d[k][1])
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedSampler:
    """Calibrates every SAMPLE_PERIOD_S on a background thread.

    The thread needs the interpreter lock to calibrate, so it pauses the
    measured work for a fraction of a millisecond per sample; the pause is
    the same on every commit."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = [(time.perf_counter(), calibrate())]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            t = time.perf_counter()
            self.samples.append((t, calibrate()))

    def __enter__(self) -> SpeedSampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        if self._thread.is_alive():
            raise RuntimeError("speed sampler did not stop")

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns wall time spent in [t0, t1] into calibrated
        time.  Uses the samples inside the interval, or the nearest one."""
        samples = self.samples[:]
        lo = bisect.bisect_left(samples, t0, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, t1, key=lambda s: s[0])
        if hi > lo:
            sample = statistics.median(d for _, d in samples[lo:hi])
        else:
            sample = samples[min(lo, len(samples) - 1)][1]
        return CALIBRATION_REF_S / sample

    def slowdown(self) -> float:
        """Median calibration time over the run, as a multiple of the
        reference."""
        return statistics.median(d for _, d in self.samples) / CALIBRATION_REF_S
