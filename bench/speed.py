"""Machine-speed reference: times normalised to a fixed CPU speed.

On a shared virtual machine the speed a process gets changes by 1.3 to 1.5
times, from a fraction of a second to the next and from one minute to the
next (CPU time follows wall time, so it is not steal time). Whole runs fall
into fast or slow stretches, so raw times of one version spread by 20-35 %
over ten runs, more than any useful bound.

Every timed interval is therefore paired with runs of a fixed reference unit
on the same thread and CPU: a short pure-Python loop over ints and a dict,
plus a small numpy sort. The unit runs a few times right before and
right after the interval and, for an in-process job, once every
`INTERVAL_S` from a timer signal while the job runs (its own time is taken
out of the job's latency). The normalised time is

    measured time * NOMINAL_S / harmonic_mean(reference times around it)

that is, the time the interval would take where the reference unit takes
NOMINAL_S. The harmonic mean is the right average: speed is 1 / reference
time, and the work done in an interval is its speed summed over time, so
when the speed changes halfway through a job both halves count (a median
picks one of them). A reference run stretched by a preemption has a small
1 / time and barely counts. A change that makes vcreg slower makes it
slower in these units too; a change of machine speed mostly does not. Raw
times stay in the run record.

The two CPUs of that machine change speed independently (the reference
times of two processes pinned to different CPUs were uncorrelated), so the
reference must run on the CPU of the timed work, and the speed inside a
cli-cold child process can only be bracketed.

Measured on that machine: normalisation cut the spread of a run's
throughput over ten runs from 20-35 % to 2-6 %, but one sub-second job
still carries about 10 % noise, because the reference unit and vcreg's code
do not slow down by the same factor in every slow stretch. The reference
runs inside a job find their data evicted by the job; warming them up (a
second run per tick) tracked the job worse. These constants set the level
of every normalised time, so changing one needs a new baseline: a 10 ms
interval read 15 % lower throughput on weighted-stable than 20 ms.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy

# Typical reference time on the 2-vCPU machine this was tuned on; any fixed
# value works, it only sets the scale of the normalised seconds.
NOMINAL_S = 1.2e-4
BRACKET = 2
INTERVAL_S = 0.02
# an interval with at least this many reference times taken inside it is
# normalised by those alone
INSIDE_ENOUGH = 9

_ARR = numpy.random.default_rng(0).random(2048)


def probe():
    """Run the reference unit once and return its duration in seconds."""
    t0 = time.perf_counter()
    s, d = 0, {}
    for i in range(1200):
        s += i * i % 7
        d[i & 63] = s
    numpy.sort(_ARR)
    return time.perf_counter() - t0


def bracket():
    """BRACKET reference times, after one uncounted run: right after a job
    the unit finds its code and data evicted and reads up to 1.5x slow."""
    probe()
    return [probe() for _ in range(BRACKET)]


def pin_one_cpu():
    """Keep this process and its children on one CPU, so that the reference
    runs measure the CPU that the timed work runs on."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})


def reference(before, inside, after):
    if len(inside) >= INSIDE_ENOUGH:
        return statistics.harmonic_mean(inside)
    return statistics.harmonic_mean([*before, *inside, *after])


def normalise(seconds, ref):
    return seconds * NOMINAL_S / ref


class InsideSampler:
    """Runs the reference unit from SIGALRM every INTERVAL_S while armed.

    The handler runs between bytecodes of the main thread, so a long numpy
    call delays it; that only thins the samples."""

    def __init__(self):
        self.samples, self.spent = [], 0.0
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False
