"""Host-speed calibration, so that timings survive a shared host's drift.

On a shared virtual machine the speed of single-threaded Python code
drifts by a fifth or more over seconds to minutes, with the host's other
tenants.  The benchmark therefore times, next to the program, a fixed
pure-Python calibration loop and scales each timing by how fast that
loop ran meanwhile:

    normalized seconds = measured seconds * mean(REF_NOMINAL_S / ref_i)

where ``ref_i`` are the loop's durations sampled while the timed work
ran.  ``REF_NOMINAL_S`` is the loop's duration on the baseline machine
when quiet, so normalized seconds read as seconds at that speed.  The
mean of the speeds ``1/ref_i`` over samples taken at even time steps is
the mean host speed over the interval.  A change to the program moves
the measured seconds and not the loop, so it shows in full.

Set-up (a fresh interpreter importing the program) is mostly process
start-up, file reads and module execution, which contention slows less
than it slows the loop.  It is scaled the same way, but by a reference
spawn, ``spawn_sample()``, in place of the loop.
"""
from __future__ import annotations

import signal
import subprocess
import sys
import time

# duration of one calibration() call on the baseline machine, quiet
REF_NOMINAL_S = 0.004
# seconds between samples while a Probe is running
INTERVAL_S = 0.2
# what spawn_sample() runs, and its duration on the baseline machine
SPAWN_CODE = "import argparse, dataclasses, decimal, fractions, json, typing"
SPAWN_NOMINAL_S = 0.058


# three fixed permutations of 96 points, standing in for the generators
# of a flag map
_PERMS = tuple([(j * m + c) % 96 for j in range(96)]
               for m, c in ((5, 1), (7, 3), (11, 2)))


def calibration() -> int:
    """A fixed mix of the work the program does.

    Mostly breadth-first relabellings from many start points, compared
    as byte strings (the shape of the census's canonical form), plus
    integer arithmetic and dict building.  On the baseline machine this
    mix tracked the census and codes ops better than the arithmetic
    alone, and the decode ops about as well.
    """
    acc = 0
    table: dict[tuple[int, int], int] = {}
    for i in range(2400):
        key = (i % 37, (i * 7) % 41)
        table[key] = table.get(key, 0) + (i * i) % 13
        acc ^= (acc << 1 | i) & 0xFFFFF
    best = None
    for start in range(96):
        label = [-1] * 96
        label[start] = 0
        order = [start]
        code = bytearray()
        head = 0
        while head < len(order):
            f = order[head]
            head += 1
            for perm in _PERMS:
                t = perm[f]
                lab = label[t]
                if lab < 0:
                    lab = label[t] = len(order)
                    order.append(t)
                code.append(lab)
        if best is None or code < best:
            best = bytes(code)
    return acc + len(table) + best[-1]


def sample() -> float:
    """Seconds one calibration() call takes now."""
    t0 = time.perf_counter()
    calibration()
    return time.perf_counter() - t0


def speed(samples: list[float], nominal: float = REF_NOMINAL_S) -> float:
    """Mean host speed over the samples, 1 at the nominal speed."""
    return sum(nominal / s for s in samples) / len(samples)


def spawn_sample() -> float:
    """Seconds a fresh interpreter takes to start and import SPAWN_CODE."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_CODE], check=True)
    return time.perf_counter() - t0


class Probe:
    """Samples host speed every INTERVAL_S seconds while it is running.

    A SIGALRM handler runs calibration() in this thread between
    bytecodes, so the samples land inside the timed work.  ``busy_s`` is
    the time the handler took, which callers subtract from their timings.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._old = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.busy_s += time.perf_counter() - t0

    def __enter__(self) -> "Probe":
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def take(self) -> None:
        """Take one sample now, outside the timer (counted in busy_s)."""
        self._on_alarm(None, None)
