"""A fixed reference kernel that measures the machine's current speed.

On a shared machine the speed of one core drifts by 20% or more over tens of
seconds, and the drift moves every timing taken at that moment together.
Measured directly, the same seed on the same code spread by about 30%
between runs.  So the benchmark runs this kernel before every timed command,
(several times before a long one, see SHARE) and scales the command's wall
time by ``NOMINAL_MS / local kernel time``.
The local kernel time is the median over the nearest runs of the kernel.
The reported figures are thus milliseconds on a machine where this kernel
takes ``NOMINAL_MS``.  The summary lines also print the raw wall-clock
figures.

The kernel does the kinds of work invcat does: exact elimination over Q and
over GF(p), method dispatch per scalar, and hashing of tuples.  It imports
nothing from invcat, so a change to the program cannot change it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from typing import List

NOMINAL_MS = 1.0
WINDOW = 8  # kernel runs on each side that enter a local median
# Before a command, the kernel runs for about SHARE of the time the same
# command took last, and at least once.  With one run per command the local
# median of a corpus of long commands spans many seconds, and so misses drift
# that changes within it.
SHARE = 0.03
MAX_RUNS = 16
PRIME = 10007


class _Mod:
    def __init__(self, p: int):
        self.p = p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        return pow(a, self.p - 2, self.p)


def _rref(rows, zero, sub, mul, inv):
    n, m = len(rows), len(rows[0])
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if rows[i][c] != zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = inv(rows[r][c])
        rows[r] = [mul(x, scale) for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def kernel() -> int:
    q = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(5)] for i in range(5)]
    basis_q = _rref(q, 0, lambda a, b: a - b, lambda a, b: a * b, lambda a: 1 / a)
    gf = _Mod(PRIME)
    g = [[(i * 31 + j * 17 + i * j) % PRIME for j in range(8)] for i in range(8)]
    basis_p = _rref(g, 0, gf.sub, gf.mul, gf.inv)
    seen = {}
    for i in range(600):
        key = (i % 37, basis_p[i % len(basis_p)][:3])
        seen[key] = seen.get(key, 0) + 1
    return len(basis_q) + len(seen)


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def time_kernels(command_seconds: float) -> List[float]:
    """Kernel runs for about SHARE of ``command_seconds``: at least 1, at most MAX_RUNS."""
    runs = int(SHARE * command_seconds * 1000.0 / NOMINAL_MS)
    return [time_kernel() for _ in range(max(1, min(MAX_RUNS, runs)))]


def speed_factor_now() -> float:
    """NOMINAL_MS over the median of a window's worth of kernel runs made now."""
    runs = [time_kernel() for _ in range(2 * WINDOW + 1)]
    return NOMINAL_MS / (statistics.median(runs) * 1000.0)


def speed_factors(kernel_seconds: List[float]) -> List[float]:
    """For each kernel run, NOMINAL_MS over the local median kernel time."""
    out = []
    for i in range(len(kernel_seconds)):
        local = kernel_seconds[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(NOMINAL_MS / (statistics.median(local) * 1000.0))
    return out
