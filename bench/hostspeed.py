"""Host-speed reference that the benchmark scales its measured times by.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes, as other tenants come and go and clock frequencies
change; CPU time follows that drift. So the benchmark times a fixed
reference computation right before and right after every interval it
measures, and reports

    measured time * NOMINAL_S / mean(reference time before, after)

that is, the time the interval takes on this host at the speed where the
reference takes ``NOMINAL_S``. The reference does the kind of work ``mdcrt``
does (exact integer matrix products and rational Gaussian elimination on
small matrices held in tuples and frozen dataclasses, and seeded sampling
of small integer vectors counted in a dict) and calls no ``mdcrt`` code, so
a change to ``mdcrt`` changes the scaled times and not the scale. The
sampling part made the scaled sweep time of fig3 steadier than matrix work
alone did. On a 2-core shared host, the scaled decode time of 0.75-second
blocks varied 2 to 4 times less than the raw CPU time over 100 seconds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

# Reference time that defines the scale: about the median of
# ``reference_time()`` on the 2-core shared host the benchmark was tuned on.
NOMINAL_S = 0.009

MATRICES = 12
SAMPLES = 1500
CHECKSUM = 4 * MATRICES + 1  # what reference_work() returns; guards against a no-op reference


@dataclass(frozen=True)
class _Matrix:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows or len(self.rows) != len(self.rows[0]):
            raise ValueError("square matrix expected")

    def __matmul__(self, other: "_Matrix") -> "_Matrix":
        cols = tuple(zip(*other.rows))
        return _Matrix(tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in cols) for r in self.rows))


def _solve(rows, rhs) -> tuple[Fraction, ...]:
    """Solve rows @ x = rhs exactly by Gauss-Jordan elimination."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(v)] for r, v in zip(rows, rhs)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[p] = a[p], a[c]
        for i in range(n):
            if i != c and a[i][c] != 0:
                k = a[i][c] / a[c][c]
                a[i] = [x - k * y for x, y in zip(a[i], a[c])]
    return tuple(a[i][n] / a[i][i] for i in range(n))


def reference_work() -> int:
    """A fixed amount of exact small-matrix arithmetic and sampling; returns
    a checksum."""
    x = 12345
    out = 0
    for _ in range(MATRICES):
        rows = []
        for i in range(4):
            row = []
            for j in range(4):
                x = (x * 1103515245 + 12345) % 2147483648
                row.append(x % 201 - 100 + (300 if i == j else 0))
            rows.append(tuple(row))
        m = _Matrix(tuple(rows))
        # m @ x = column 0 of m^3 has the integer solution x = column 0 of m^2
        sol = _solve(m.rows, tuple(r[0] for r in (m @ m @ m).rows))
        out += sum(1 for v in sol if v.denominator == 1)
    rng = random.Random(7)
    counts: dict[tuple[int, int], int] = {}
    for _ in range(SAMPLES):
        v = (rng.randrange(-50, 50), rng.randrange(-50, 50))
        counts[v] = counts.get(v, 0) + 1
    return out + sum(counts.values()) // SAMPLES


def reference_time() -> float:
    """Thread CPU seconds of one ``reference_work()``."""
    start = time.thread_time()
    out = reference_work()
    elapsed = time.thread_time() - start
    if out != CHECKSUM:
        raise RuntimeError(f"reference computation returned {out}, expected {CHECKSUM}")
    return elapsed


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two reference times to
    nominal speed."""
    return NOMINAL_S / ((before + after) / 2)
