"""Machine speed, sampled while the ops run, and times scaled to a fixed speed.

The benchmark's host is shared: over stretches of seconds the same code runs
up to about 30 % faster or slower, and a run of ops spans a few such
stretches, so raw seconds spread more between runs than any change worth
measuring.  A fixed integer loop (the probe) is timed about every 0.1 s
during the timed phase, from a ``SIGALRM`` interval timer in the one
benchmark thread, so it samples the machine's speed alongside the ops
without a second thread or process.  An op's time is its wall time less the
probe time inside it, scaled by ``REF_PROBE_S`` over the probe's mean time
during the op: the op's seconds on a machine that runs the probe in
``REF_PROBE_S``.  A program change moves the op time and not the probe, so it
shows in full.

The probe touches only a few integers, so its speed does not depend on what
the program leaves in the caches (a probe that reads a large table followed
this host's slowdowns a little more closely, but also slowed with the
program's own memory footprint), and it makes no container objects, so it
never triggers or pays for a garbage collection of what the program keeps
alive.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

PROBE_LOOPS = 25_000
# The probe's median time on a 2-vCPU Linux VM with CPython 3.11.7, rounded.
REF_PROBE_S = 0.002
INTERVAL_S = 0.1


def probe() -> float:
    """Seconds one pass of the fixed integer loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class Pacer:
    """Probes the machine every ``INTERVAL_S`` seconds while ``running``."""

    def __init__(self):
        self.probe_s = 0.0
        self.samples = 0
        self._last_speed = None

    def _tick(self, signum, frame) -> None:
        self.probe_s += probe()
        self.samples += 1

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            self._tick(None, None)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn):
        """Call ``fn()``; returns (reference seconds, raw seconds, its result).

        Raw seconds exclude the probes that ran inside the call.  A call too
        short to hold a probe is scaled by the speed of the last one that did.
        """
        probe_s, samples = self.probe_s, self.samples
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        inside_s, inside = self.probe_s - probe_s, self.samples - samples
        if inside:
            self._last_speed = REF_PROBE_S * inside / inside_s
        raw = elapsed - inside_s
        speed = self._last_speed or REF_PROBE_S * self.samples / self.probe_s
        return raw * speed, raw, result


def scaled_runs(fn, repeats: int) -> list[float]:
    """Reference seconds of ``repeats`` calls of ``fn``, each bracketed by
    probes; for calls that cannot run under the timer (such as a child
    process)."""
    times = []
    before = sum(probe() for _ in range(3)) / 3
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        after = sum(probe() for _ in range(3)) / 3
        times.append(elapsed * 2 * REF_PROBE_S / (before + after))
        before = after
    return times
