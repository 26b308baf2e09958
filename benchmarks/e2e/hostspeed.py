"""Host-speed correction for time metrics measured on a shared host.

On a shared virtual machine the speed of a virtual CPU drifts: within a
second, and for minutes at a time, every instruction on it runs up to
twice as slowly.  The guest sees no steal time and no scheduling gaps,
so user CPU time inflates exactly like wall time, and the virtual CPUs
drift independently of each other.

So while the program runs, the benchmark samples the speed of the CPUs
it runs on: every ``INTERVAL`` it runs a fixed probe loop and reads its
own thread CPU time, which the program's use of the CPU cannot inflate.
A time the program took over an interval is scaled by the mean speed
sampled in that interval::

    corrected = measured * mean(REFERENCE_PROBE_S / probe)   over the interval

so it reads as the time the work would take on a CPU running the probe
in ``REFERENCE_PROBE_S``.  A probe on another CPU than the program's does
not track the program's slowdowns, so the benchmark and every program
process run :func:`pinned` to one CPU.  The probe costs about 2% of
that CPU, the same in every run.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import subprocess
import time
from typing import Iterator

#: The probe's fastest time on the machine the benchmark was calibrated
#: on (2-vCPU Intel Xeon VM, Python 3.11).  It only sets the scale.
REFERENCE_PROBE_S = 0.00090

#: Seconds between probes while the program runs.
INTERVAL = 0.05


@contextlib.contextmanager
def pinned() -> Iterator[int]:
    """Run the block, and every process started in it, on one CPU (the
    highest-numbered this process may use); yields that CPU."""
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, allowed)


def probe() -> float:
    """CPU seconds this thread spends on one fixed probe loop."""
    start = time.thread_time()
    acc, table = 0, {}
    for i in range(6000):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 255] = i
    return time.thread_time() - start


class HostSpeed:
    """Speed samples, over one run, of the CPU this process runs on."""

    def __init__(self) -> None:
        #: ``(monotonic time, probe CPU seconds)``
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        self.samples.append((time.monotonic(), probe()))

    def idle(self, seconds: float) -> None:
        """Sleep ``seconds`` (overrunning by at most one probe), sampling
        every ``INTERVAL``."""
        deadline = time.monotonic() + seconds
        while deadline > time.monotonic():
            self.sample()
            time.sleep(max(0.0, min(INTERVAL, deadline - time.monotonic())))

    def wait(self, proc: subprocess.Popen, timeout: float) -> int:
        """Wait for ``proc`` to exit, sampling meanwhile; returns its exit
        code, or raises :class:`TimeoutError` after ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise TimeoutError(f"pid {proc.pid} still running after {timeout:g} s")
            self.sample()
            time.sleep(INTERVAL)
        return proc.returncode

    def factor(self, start: float, end: float) -> float:
        """Mean speed, relative to the reference, over ``[start, end]``
        (monotonic seconds) widened by one interval on each side; the
        nearest sample when none falls inside."""
        speeds = [REFERENCE_PROBE_S / p for t, p in self.samples
                  if start - INTERVAL <= t <= end + INTERVAL]
        if speeds:
            return statistics.fmean(speeds)
        middle = (start + end) / 2
        _, p = min(self.samples, key=lambda sample: abs(sample[0] - middle))
        return REFERENCE_PROBE_S / p

    def corrected(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over ``[start, end]``, on the reference CPU."""
        return seconds * self.factor(start, end)
