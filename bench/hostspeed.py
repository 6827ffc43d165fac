"""A reference loop, run alongside the program, that tracks how fast the
host runs from moment to moment.

The shared host this benchmark was written on changes how fast a
process runs, by up to 1.9x, on every time scale from a fraction of a
second to several minutes (README "Host drift"), so raw seconds of one
run say as much about the neighbours as about the program.  While a
`HostSpeed` is active, a SIGALRM handler interrupts the process every
`INTERVAL_S` and runs one small fixed chunk of the kind of work the
program spends its time on, exact `Fraction` elimination, but on no
program code.  The chunk's time follows the host and not the program;
the program's own time is read from `clock()`, which stops while the
handler runs.  `scale()` turns the program's seconds since its previous
call into reference seconds: the seconds they would have taken had the
chunk taken `REFERENCE_S`.  A change to the program moves the scaled
time as much as the raw one; a slow moment of the host slows the
program and the chunks around it alike, and cancels.
"""

import random
import signal
import statistics
import time
from fractions import Fraction

# About the chunk's time on a 2-vCPU Xeon VM at 2.1 GHz, so that a scaled
# time reads about as many seconds as it took there.
REFERENCE_S = 0.001
INTERVAL_S = 0.04
SIZE = 6


def _matrix():
    rng = random.Random(1)
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
             for _ in range(SIZE)] for _ in range(SIZE)]


MATRIX = _matrix()


def reference_chunk():
    """One Gauss-Jordan elimination of MATRIX."""
    m = [row[:] for row in MATRIX]
    for c in range(SIZE):
        p = next(r for r in range(c, SIZE) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(SIZE):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


class HostSpeed:
    """Runs `reference_chunk` every INTERVAL_S while the `with` block
    runs, and records each chunk's time."""

    def __init__(self):
        self.busy = 0.0
        self.chunks = []
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        reference_chunk()
        seconds = time.perf_counter() - t0
        self.busy += seconds
        self.chunks.append(seconds)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self):
        """`time.perf_counter()` less the time spent in the handler."""
        return time.perf_counter() - self.busy

    def scale(self):
        """The factor from seconds to reference seconds for the work done
        since the previous call: REFERENCE_S over the mean time of the
        chunks run meanwhile, leaving out the slowest tenth, where a
        single long interruption would otherwise weigh too much."""
        chunks, self.chunks = sorted(self.chunks), []
        kept = chunks[:max(1, len(chunks) * 9 // 10)]
        return REFERENCE_S / statistics.fmean(kept)
