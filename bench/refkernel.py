"""Stdlib-only reference kernel: a fixed amount of interpreter work whose
wall time tracks how fast this machine runs Python at the moment.

The benchmark times it around the operations of each pass and divides them
by it, which cancels machine drift (shared hosts slow down and speed up by
tens of percent within seconds).  It must import nothing from the package
under test, so that no change to the package can move it.

Its mix was chosen by measurement on a shared 2-core host.  Three kinds of
operation (a light exact `analyze`, a determinant table with large
rationals, an exact `perturb`) were timed in turn with candidate kernel
parts for 200 s, and the medians of 30-sample chunks compared.  Raw chunk
medians spread 25-31 % (interquartile range over median); normalised by a
single part they spread 3-5 % (Fractions with multi-limb numbers, Fractions
with small numbers, dict work) or 10-15 % (big-int gcd); normalised by equal
shares of the first three they spread 1.3-2.4 %.
"""

from __future__ import annotations

import time
from fractions import Fraction

_ATOMS = (Fraction(37, 17), Fraction(41, 17), Fraction(45, 17), Fraction(50, 17))
_DENSITIES = (Fraction(15, 13), Fraction(19, 13), Fraction(22, 13), Fraction(24, 13))
_LARGE = tuple(sum(r * x**n for x, r in zip(_ATOMS, _DENSITIES)) for n in range(12))
_SMALL = tuple(Fraction(1, n + 1) for n in range(16))


def _faddeev_leverrier(moments: tuple[Fraction, ...], anchor: int, order: int) -> Fraction:
    a = [[moments[anchor + i + j] for j in range(order)] for i in range(order)]
    work = [[Fraction(int(i == j)) for j in range(order)] for i in range(order)]
    coeff = Fraction(0)
    for step in range(1, order + 1):
        work = [
            [sum(a[i][r] * work[r][j] for r in range(order)) for j in range(order)]
            for i in range(order)
        ]
        coeff = -sum(work[i][i] for i in range(order)) / step
        for i in range(order):
            work[i][i] += coeff
    return coeff


def reference_kernel() -> int:
    """Equal time shares of three parts: Faddeev-LeVerrier steps on Hankel
    blocks of a rational measure's moments (multi-limb numbers), the same on
    blocks of 1/(n+1) (small numbers), and plain int and dict work.  Returns
    a checksum so the work cannot be skipped."""
    check = 0
    for anchor in range(3):
        check ^= hash(_faddeev_leverrier(_LARGE, anchor, 5)) & 0xFFFF
    for anchor in range(9):
        check ^= hash(_faddeev_leverrier(_SMALL, anchor, 4)) & 0xFFFF
    table: dict[int, int] = {}
    for i in range(55_000):
        key = (i * 2_654_435_761) & 0x3FFF
        table[key] = table.get(key, 0) + i
    return check + len(table)


def time_reference() -> float:
    """Wall seconds of one reference-kernel run."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start
