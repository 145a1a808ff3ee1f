"""Host-speed calibration interleaved with the measured work.

The benchmark runs on shared hosts whose throughput drifts by a third
within seconds; CPU time drifts with wall time, so it does not help. A
fixed loop in the style of the interpreted kernels (numpy scalar reads and
bit operations), timed between segments of the work, slows down in step.
Each segment's duration is therefore scaled by NOMINAL_S over the mean of
the loop times measured just before and just after it: the result is the
time the segment would take on the host at its nominal speed, in seconds.
The loop is the benchmark's own code, so a change to the program moves the
scaled times in the same proportion as the raw ones. Raw times are reported
next to them.

Work spread over a pool of N processes moves between the N CPUs, so a
clock for such work runs the loop on N CPUs at once, in N - 1 helper
processes besides the caller, and takes the mean time.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

#: iterations of the calibration loop, about 20 ms on the reference host
LOOP = 80_000

#: the loop's time on the reference host (2-vCPU Xeon, Python 3.11.7) when
#: uncontended; it only sets the scale of the calibrated seconds
NOMINAL_S = 0.019

_MASKS = np.arange(64, dtype=np.int64)


def loop_seconds() -> float:
    start = time.perf_counter()
    masks = _MASKS
    x = 0
    for i in range(LOOP):
        if masks[i & 63] >> 1 & 1:
            x |= 1 << (i & 15)
    return time.perf_counter() - start


def _helper(conn):
    while conn.recv():
        conn.send(loop_seconds())


class Clock:
    """Scales segments of work to nominal host speed; a context manager."""

    def __init__(self, cpus: int = 1):
        ctx = multiprocessing.get_context("spawn")
        self._helpers = []
        for _ in range(cpus - 1):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(theirs,), daemon=True)
            proc.start()
            self._helpers.append((proc, ours))
        self._last = self._measure()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for proc, conn in self._helpers:
            conn.send(False)
            proc.join()
            conn.close()

    def _measure(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        times = [loop_seconds()]
        times += [conn.recv() for _, conn in self._helpers]
        return sum(times) / len(times)

    def restart(self):
        """Calibrate before the first segment of a pass."""
        self._last = self._measure()

    def factor(self) -> float:
        """Calibrate again; the factor for the segment since the last call."""
        now = self._measure()
        factor = NOMINAL_S / ((self._last + now) / 2)
        self._last = now
        return factor
