"""Host-speed probe behind the normalized timing metrics.

On a shared virtual machine the same loop runs at speeds up to about 2x
apart, in phases that last from seconds to minutes, so a raw wall-clock time
says as much about the neighbours as about the program. ``SpeedProbe`` runs a
fixed kernel every ``PROBE_EVERY_S`` seconds from a ``SIGALRM`` handler in
the benchmark's main thread and records the kernel's CPU time, which grows
with host slowness but not with time-sharing of the cores. A measured
interval is then reported as

    (wall time of the interval - probe time inside it)
        * mean over the probes around it of (REFERENCE_PROBE_S / probe CPU time)

that is, in seconds at the speed where one probe takes ``REFERENCE_PROBE_S``.
The kernel does not call groundspect, so a change to the program moves the
normalized time as it moves the wall time; the raw wall times are kept next
to the normalized ones in the details of every run.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_EVERY_S = 0.2
# CPU time of one probe at the reference speed (about a fast phase of a
# 2-vCPU Xeon VM); a constant, so normalized times compare across runs.
REFERENCE_PROBE_S = 1.5e-3
# Probes taken on each side of an interval on top of those inside it.
NEIGHBOURS = 2


def _kernel() -> int:
    """A pure interpreter loop: no numpy, no BLAS, no I/O.

    Of the kernels tried (this loop, small elementwise numpy work, a small
    Jacobi-style rotation loop and mixes of them), this one's time followed
    the program's best through the host's slow and fast phases.
    """
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return acc


class SpeedProbe:
    """Samples host speed while it is started; normalizes measured intervals.

    ``in_process`` says whether the probe interrupts the measured program
    (it runs in the same thread, so its own time is taken out of every
    interval) or runs beside it (a subprocess, whose wall time the probe does
    not lengthen).
    """

    def __init__(self, in_process: bool) -> None:
        self.in_process = in_process
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.cpu: list[float] = []
        self._previous = None

    def start(self) -> None:
        _kernel()  # warm-up, not recorded
        self._on_alarm(signal.SIGALRM, None)  # so that even a short run has a probe
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        cpu = time.thread_time()
        _kernel()
        self.cpu.append(time.thread_time() - cpu)
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def probe_wall(self, a: float, b: float) -> float:
        """Wall time the probe spent inside [a, b]."""
        lo = bisect.bisect_left(self.ends, a)
        hi = bisect.bisect_right(self.starts, b)
        return sum(max(0.0, min(self.ends[i], b) - max(self.starts[i], a)) for i in range(lo, hi))

    def speed(self, a: float, b: float) -> float:
        """Mean relative speed of the probes in [a, b] and NEIGHBOURS on each side.

        A probe's speed is REFERENCE_PROBE_S over its CPU time; the probes are
        evenly spaced in time, so the mean is the interval's mean speed.
        """
        lo = bisect.bisect_left(self.ends, a)
        hi = bisect.bisect_right(self.starts, b)
        near = self.cpu[max(0, lo - NEIGHBOURS) : hi + NEIGHBOURS]
        if not near:
            raise RuntimeError("no speed probe ran during the measurement")
        return statistics.fmean(REFERENCE_PROBE_S / c for c in near)

    def wall(self, a: float, b: float) -> float:
        """Wall time of [a, b] the program had: less the probe's when in process."""
        return b - a - (self.probe_wall(a, b) if self.in_process else 0.0)

    def normalized(self, a: float, b: float) -> float:
        """Seconds of [a, b] at the reference speed."""
        return self.wall(a, b) * self.speed(a, b)

    def summary(self) -> dict:
        """Probe count and CPU-time quartiles, for the run's details."""
        if len(self.cpu) < 2:
            return {"probes": len(self.cpu)}
        q = statistics.quantiles(self.cpu, n=4)
        return {"probes": len(self.cpu), "cpu_s_quartiles": q, "reference_s": REFERENCE_PROBE_S}
