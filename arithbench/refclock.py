"""Reference clock: puts times on a scale that does not move with the host.

On a shared host the speed of one core drifts by tens of percent over tens of
seconds to minutes, which is more than any change to the program the benchmark
should detect.  So the loop times a fixed piece of pure-Python work, the
reference, between cases, one sample for each REF_INTERVAL_S of work, and
every time it reports is scaled by

    REF_SECONDS / (mean of the reference times measured in the same phase),

the time the program would have taken on a host where the reference takes
exactly REF_SECONDS.  The mean, not the median, because the speed also jumps
within a fraction of a second: samples spread evenly over the work meet those
jumps as often as the work does, and only their mean weighs them as the work
does.  The reference does the kinds of work the program does
(Fraction and big-integer arithmetic, mpmath at 128 bits, small containers)
and calls nothing of the program, so a faster program reads faster and a
faster host does not.  The raw times are kept in the details.
"""

import statistics
import time
from fractions import Fraction

from mpmath import mp

# Nominal reference time: about its mean on a shared 2-vCPU x86-64 VM under
# Python 3.11 and mpmath 1.3 (pure-Python backend).
REF_SECONDS = 2.5e-3
REF_INTERVAL_S = 0.1  # seconds of timed work per reference sample
MAX_BURST = 20  # samples taken at once after a long piece of work
MODULUS = (1 << 127) - 1


def reference_work():
    """A fixed mix of the program's kinds of arithmetic, 2-3 ms."""
    s = Fraction(0)
    for k in range(1, 80):
        s += Fraction(k, k * k + 1) * Fraction(k + 2, 3)
    x, h = 3, {}
    for k in range(800):
        x = (x * x + k) % MODULUS
        h[k & 63] = h.get(k & 63, 0) ^ x
    with mp.workprec(128):
        y = mp.mpf(2)
        for _ in range(80):
            y = mp.sqrt(y + 1) * mp.log(y + 3)
    return s, sorted(h.values()), y


class RefClock:
    """Reference samples spread evenly over timed work, taken between its
    pieces."""

    def __init__(self):
        self.times = []
        self._last = None  # end of the last sample

    def warm_up(self, n=3):
        """Samples that are not recorded, before timing starts."""
        for _ in range(n):
            reference_work()
        self._last = time.perf_counter()

    def tick(self):
        """Between two pieces of timed work: take the samples due since the
        last one, and return when the next piece starts."""
        now = time.perf_counter()
        due = min(int((now - self._last) / REF_INTERVAL_S), MAX_BURST)
        for _ in range(due):
            now = self._sample()
        return now

    def _sample(self):
        start = time.perf_counter()
        reference_work()
        self._last = time.perf_counter()
        self.times.append(self._last - start)
        return self._last

    def spent(self):
        return sum(self.times)

    def scale(self):
        """Factor that puts a time measured in this phase on the reference clock."""
        if not self.times:  # less work than one interval
            self._sample()
        return REF_SECONDS / statistics.mean(self.times)
