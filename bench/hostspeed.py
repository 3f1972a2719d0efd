"""Host speed sampled during a timed call, to express its time at a fixed speed.

On a shared VM the host runs the same code 1.5-2x slower for minutes at
a time (other tenants, clock changes); wall-clock medians of runs made a
few minutes apart then differ by more than any useful bound.  A start and
end probe cannot follow this, because the speed changes within a run.

`Sampler` times a fixed pure-Python loop every `INTERVAL_S` seconds from a
SIGALRM handler, which the interpreter runs between the timed code's
bytecodes, so the samples see the host exactly while the call runs.
`scaled(wall)` gives wall * REFERENCE_S / mean sample: the call's time on
a host where one sample takes REFERENCE_S.  A slower program still reads
slower, since the loop's work is fixed; a slower host does not.  The mean
matches how a call's time adds up over short slow and fast stretches; a
sample over OUTLIER times the median is left out, since one preemption in
it would outweigh hundreds of samples.

Imports nothing that randhyp imports, so that timing set-up in a fresh
interpreter does not pre-load part of what it times.
"""

import signal
import time

INTERVAL_S = 0.01
LOOP = 1000
REFERENCE_S = 1e-4    # one sample's time on the reference host
OUTLIER = 3.0


def sample():
    """Seconds for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += (i * i) % 7
    return time.perf_counter() - t0


def typical(samples):
    """Mean of the samples, leaving out those over OUTLIER times the median."""
    ordered = sorted(samples)
    mid = len(ordered) // 2
    median = (ordered[mid] if len(ordered) % 2
              else 0.5 * (ordered[mid - 1] + ordered[mid]))
    kept = [s for s in ordered if s <= OUTLIER * median]
    return sum(kept) / len(kept)


class Sampler:
    """Samples host speed while the block runs; main thread only."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        # One sample before the timer, so that a call shorter than the
        # interval, or one long native call, still has one.
        self.samples = [sample()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, wall_s):
        """`wall_s` expressed on a host where one sample takes REFERENCE_S."""
        return wall_s * REFERENCE_S / typical(self.samples)
