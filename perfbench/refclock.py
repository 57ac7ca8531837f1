"""Times measured against the host's speed, sampled while the work runs.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed pure-Python loop can take twice as long in one second as in the next,
CPU time drifts with wall time, and one core's speed does not follow the
other's.  Medians over a run do not remove drift that lasts longer than a
pass.  So `RefClock` samples the speed of the core the work runs on, on the
same thread, while the work runs: a timer signal interrupts the work every
`INTERVAL_S` and times `reference()`, a fixed piece of interpreter work of
the kind the library does.

`RefClock.at(t)` maps a `perf_counter` reading to reference seconds since
`start()`: the time the samples took is left out, and each stretch of work
between two samples is divided by the host's slowness around it, the
samples' time over `NOMINAL_S`.  A program that does twice the work takes
twice the reference seconds whatever the host's speed at the time.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

# Work between two samples, in seconds.  The timer is re-armed when a
# sample ends, so samples never nest.
INTERVAL_S = 0.01
# A fixed constant near the median time of reference() on the 2-CPU host
# the baseline was measured on.  It only sets the unit.
NOMINAL_S = 0.0003


# A fixed list of 24 exponent vectors in three variables.
_MONOMIALS = [tuple((i * 7 + j * 3) % 6 for j in range(3)) for i in range(24)]


def reference() -> int:
    """Fixed interpreter work of the kind the library does, about NOMINAL_S
    long: the minimal elements of a monomial list under divisibility, the
    monomials as text, and integer gcds."""
    acc = 0
    for _ in range(4):
        acc += len(_minimal(_MONOMIALS))
        acc += sum(len(_text(m)) for m in _MONOMIALS)
        acc += math.gcd(acc * 12345 + 678, 9876543)
    return acc


def _divides(u, v) -> bool:
    return all(a <= b for a, b in zip(u, v))


def _minimal(gens) -> list:
    out = []
    for m in sorted(gens, key=sum):
        if not any(_divides(k, m) for k in out):
            out.append(m)
    return out


def _text(m) -> str:
    return "*".join(f"x{i}^{e}" for i, e in enumerate(m) if e)


class RefClock:
    """Samples the host's speed on a timer signal between start() and stop()."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.slowness: list[float] = []
        self._previous = signal.SIG_DFL
        self._offsets: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.slowness.append((t1 - t0) / NOMINAL_S)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()

    def stop(self) -> None:
        # Ignore first: a sample still pending could re-arm the timer.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.close(time.perf_counter())

    def close(self, t: float) -> None:
        """End the last stretch of work at t and index the samples for at()."""
        self.starts.append(t)
        # reference seconds at the end of each sample
        self._offsets = [0.0]
        for i in range(len(self.slowness) - 1):
            self._offsets.append(self._offsets[-1]
                                 + (self.starts[i + 1] - self.ends[i]) / self._gap_slowness(i))

    def _gap_slowness(self, i: int) -> float:
        """Slowness of the stretch after sample i: the mean of the samples
        around it."""
        if i + 1 < len(self.slowness):
            return (self.slowness[i] + self.slowness[i + 1]) / 2
        return self.slowness[i]

    def at(self, t: float) -> float:
        """Reference seconds from start() to perf_counter reading t; only
        valid after stop(), for t between start() and stop()."""
        if not self._offsets:
            raise RuntimeError("RefClock.at before stop()")
        i = bisect.bisect_right(self.ends, t) - 1
        if i < 0:
            return 0.0
        t = min(t, self.starts[i + 1])
        return self._offsets[i] + (t - self.ends[i]) / self._gap_slowness(i)

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds between perf_counter readings a and b."""
        return self.at(b) - self.at(a)

    def overhead(self) -> float:
        """Share of the clock's lifetime spent in samples."""
        busy = sum(e - s for s, e in zip(self.starts, self.ends))
        return busy / (self.starts[-1] - self.starts[0])
