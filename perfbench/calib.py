"""CPU-speed calibration taken on the thread that runs the work.

The speed of a CPU on a shared machine can drift by 40% within seconds to
minutes, more than the differences the benchmark has to resolve.  While a
pass runs, a SIGALRM handler runs a fixed pure-Python loop every PERIOD_S of
wall time.  The handler runs on the main thread between bytecodes, so on the
CPU and at the moment the work runs, and the loop is timed with
time.thread_time(), so time spent waiting for the GIL or for the CPU does
not count.  A pass's time divided by the mean loop time is its time in loop
units, "cal"; it varies far less with the machine's speed than seconds do.
The loop's own wall and CPU time are taken out of the pass's.
"""
from __future__ import annotations

import json
import math
import signal
import time

PERIOD_S = 0.1
LOOP_N = 2000


def _loop() -> float:
    acc = 0.0
    for i in range(1, LOOP_N):
        acc += math.lgamma(0.5 * i + 1.0) * 1e-9
    return acc


class Calibration:
    """Context manager: samples the loop time while the body runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall_s = 0.0

    def _tick(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.thread_time()
        _loop()
        self.samples.append(time.thread_time() - c0)
        self.wall_s += time.perf_counter() - w0

    def __enter__(self) -> "Calibration":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def summary(self) -> dict:
        """unit_s: mean loop time; wall_s and cpu_s: what the loops took."""
        if not self.samples:
            raise RuntimeError("pass too short for a calibration sample")
        return {"unit_s": sum(self.samples) / len(self.samples), "n": len(self.samples),
                "wall_s": self.wall_s, "cpu_s": sum(self.samples)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh)
