"""CPU-speed probe that puts end-to-end timings on a steady scale.

On a shared host the CPU a process is given runs the same code up to twice
as slowly in phases that last from seconds to minutes, and the CPUs of a
small box slow down independently of each other, so a wall time moves with
the neighbours' load. To take that out, each measured process runs pinned
to one CPU next to a probe process (this file run as a script). The probe
does a fixed unit of pure-Python work every SLEEP_S seconds and records the
CPU time each unit took. The scheduler interleaves the two processes in
slices of a few milliseconds, so the units see the slowdowns the measured
process sees, and its CPU time is rescaled to a reference speed:

    normalised_s = cpu_s * REFERENCE_UNIT_S / mean(unit CPU times while it ran)

That is the time the process would take on a CPU where one unit takes
REFERENCE_UNIT_S, a fixed scale set near the unit's time in quiet phases of
the 2-vCPU Xeon host the baseline was recorded on. There, with a unit of
twice this size, seven back-to-back runs of grid_small had an IQR of 15% of
the median in CPU time and 4% once normalised, and six of universe_large 17%
and 2%; over those runs the program's CPU time grew as the 1.0 power of the
unit time, against 1.1 to 1.4 for a unit without the large table, which left
part of each slowdown in. With this unit, ten seeds of each workload spread
by 2% to 6% of the median, while their CPU times ranged over up to 1.6x. The probe
takes about a tenth of the CPU, which slows the wall time of the measured
process, not its CPU time.

    python3 perfbench/speed.py   # run by Probe; one line per unit at exit
"""

import os
import random
import signal
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Tuple

REFERENCE_UNIT_S = 2.4e-3
SLEEP_S = 0.03
# The probe ends by itself after this long, or when its parent is gone.
MAX_LIFETIME_S = 600.0


class _Bar:
    __slots__ = ("ts", "open", "close")

    def __init__(self, ts: int, open_: float, close: float) -> None:
        self.ts = ts
        self.open = open_
        self.close = close


# A table of a few tens of MB read in random order, so that the probe, like
# the program, also waits on the caches and memory a neighbour may contend.
_TABLE_SIZE = 400_000
_READS = 2_000


class Unit:
    """A few milliseconds of the kinds of work the program does: parse
    CSV-like rows into small objects, index them in a dict, loop over them,
    and read scattered objects of a large table."""

    def __init__(self) -> None:
        self.table = [_Bar(i, i * 0.5, i * 0.25) for i in range(_TABLE_SIZE)]
        self.order = list(range(_TABLE_SIZE))
        random.Random(1).shuffle(self.order)
        self.pos = 0

    def __call__(self) -> float:
        bars = []
        for i in range(300):
            parts = f"{i},{i * 0.37!r},{i * 0.29!r}".split(",")
            bars.append(_Bar(int(parts[0]), float(parts[1]), float(parts[2])))
        index = {b.ts: b for b in bars}
        acc = 0.0
        for _ in range(3):
            for b in bars:
                acc += index[b.ts].close - b.open
        table = self.table
        for i in self.order[self.pos:self.pos + _READS]:
            acc += table[i].close
        self.pos = (self.pos + _READS) % (_TABLE_SIZE - _READS)
        return acc


def probe_main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    end = time.monotonic() + MAX_LIFETIME_S
    unit = Unit()
    samples: List[Tuple[float, float]] = []
    while not stop and os.getppid() == parent and time.monotonic() < end:
        c0 = time.thread_time()
        unit()
        samples.append((time.monotonic(), time.thread_time() - c0))
        if len(samples) == 1:
            print("ready", flush=True)
        time.sleep(SLEEP_S)
    sys.stdout.writelines(f"{t!r} {d!r}\n" for t, d in samples)
    return 0


class Probe:
    """Pins this process (and so every child it starts) to one CPU and runs
    the probe next to it until the `with` block ends."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._proc: Optional[subprocess.Popen] = None
        self._affinity = os.sched_getaffinity(0)
        self.cpu = max(self._affinity)

    def __enter__(self) -> "Probe":
        os.sched_setaffinity(0, {self.cpu})
        try:
            self._proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__)],
                stdout=subprocess.PIPE, text=True)
            if self._proc.stdout.readline().strip() != "ready":
                raise RuntimeError("the speed probe did not start")
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _stop(self) -> None:
        try:
            if self._proc is not None:
                self._proc.terminate()
                try:
                    out, _ = self._proc.communicate(timeout=30)
                except subprocess.TimeoutExpired:
                    self._proc.kill()
                    out, _ = self._proc.communicate()
                self.samples = [(float(t), float(d)) for t, d in
                                (line.split() for line in out.splitlines())]
        finally:
            os.sched_setaffinity(0, self._affinity)

    def normalise(self, start: float, end: float, cpu_s: float) -> float:
        """cpu_s of a process that ran from start to end (time.monotonic),
        rescaled by the mean unit time of the probe over that interval; the
        mean over the whole probe run stands in when no unit ended in it."""
        units = [d for t, d in self.samples if start <= t <= end]
        if not units:
            units = [d for _, d in self.samples]
        if not units:
            raise RuntimeError("the speed probe recorded no samples")
        return cpu_s * REFERENCE_UNIT_S / statistics.fmean(units)


if __name__ == "__main__":
    sys.exit(probe_main())
