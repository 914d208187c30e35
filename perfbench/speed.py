"""Scaling of wall times to a reference machine speed.

On a shared host the speed of the CPU this benchmark gets swings by up to
half from one second to the next, and back (measured with a fixed
interpreter loop; the process keeps its core, so it is the host, not the
scheduler).  A run of half a minute sees a different mix of fast and slow
seconds each time, and the median op time lands in one mode or the other.

So every in-process op's wall time is multiplied by ``REFERENCE_S / k``,
where ``k`` is the time of a fixed kernel of exact integer and Fraction
work measured in the same process just before the op (at most ``EVERY_S``
earlier).  The
kernel is the benchmark's own code, shares nothing with sasakit and does
the same kind of work as its exact layers, so the factor follows the
host's speed and not the program's.  The reported times are therefore
milliseconds on a machine where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import oracle

REFERENCE_S = 3.0e-3
EVERY_S = 0.25
# cli-cold's ops are processes of their own, mostly interpreter start-up and
# imports, which the in-process kernel does not follow.  Each of them is
# scaled instead by the wall time of `python -c pass` taken just before it:
# over five seeds in a slow hour this narrowed the range of its op_p50_ms
# from 8% to 3%.  The host's drift over longer spans is only partly
# followed (see README.md).
CHILD_REFERENCE_S = 0.065

_rng = random.Random("speed-kernel")
_MATRIX = [[_rng.randint(-9, 9) for _ in range(9)] for _ in range(7)]
_POINTS = [(_rng.randint(-50, 50), _rng.randint(-50, 50)) for _ in range(400)]


def kernel():
    """Fraction row reduction of a 7x9 matrix and a hull of 400 points."""
    rows = [[Fraction(x) for x in r] for r in _MATRIX]
    n = len(rows)
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    oracle.monotone_chain(_POINTS)
    return rows


def kernel_time() -> float:
    """Best of two runs of the kernel, in seconds."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Gauge:
    """The current scale factor ``reference / measure()``.

    ``measure`` is re-taken when the last one is older than ``every``
    seconds: the in-process kernel by default, or, for ops that are whole
    child processes, the start-up of a bare interpreter (CHILD_REFERENCE_S).
    """

    def __init__(self, measure=kernel_time, reference=REFERENCE_S, every=EVERY_S):
        self.measure, self.reference, self.every = measure, reference, every
        self.samples = []
        self._factor = None
        self._at = float("-inf")

    def factor(self) -> float:
        if time.perf_counter() - self._at >= self.every:
            self.samples.append(self.measure())
            self._factor = self.reference / self.samples[-1]
            self._at = time.perf_counter()
        return self._factor
