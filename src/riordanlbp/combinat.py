"""Integer combinatorics: binomials, Catalan and Schroeder numbers, and a
brute-force enumerator of Schroeder lattice paths used as an independent
oracle for the moment identities."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb


def binomial(n: int, k: int) -> int:
    """Binomial coefficient extended to negative upper index.

    binomial(n, k) = 0 for k < 0; for n < 0 the falling-factorial extension
    (-1)^k * C(k - n - 1, k) applies, so e.g. binomial(-1, 0) = 1.
    """
    if k < 0:
        return 0
    if n >= 0:
        return comb(n, k) if k <= n else 0
    return (-1) ** k * comb(k - n - 1, k)


def catalan(n: int) -> int:
    """Catalan number C(2n, n)/(n + 1)."""
    return comb(2 * n, n) // (n + 1)


def schroeder(n: int) -> int:
    """Large Schroeder number, as the binomial-weighted Catalan sum."""
    return sum(binomial(n + k, 2 * k) * catalan(k) for k in range(n + 1))


def schroeder_path_statistics(n: int) -> dict[tuple[int, int], int]:
    """Count Schroeder paths from (0,0) to (2n,0) by (level steps, peaks).

    Paths use up (1,1), down (1,-1) and long level (2,0) steps and never dip
    below the axis.  A peak is an up step immediately followed by a down
    step.  Deliberately brute force: every path is walked explicitly, so the
    result is independent of all series machinery.
    """
    target = 2 * n
    counts: dict[tuple[int, int], int] = {}

    def walk(pos: int, height: int, levels: int, peaks: int, last_up: bool):
        if pos == target and height == 0:
            key = (levels, peaks)
            counts[key] = counts.get(key, 0) + 1
            return
        remaining = target - pos
        if height > remaining:
            return
        if pos + 1 <= target:
            walk(pos + 1, height + 1, levels, peaks, True)
            if height > 0:
                walk(pos + 1, height - 1, levels, peaks + (1 if last_up else 0), False)
        if pos + 2 <= target:
            walk(pos + 2, height, levels + 1, peaks, False)

    walk(0, 0, 0, 0, False)
    return counts


@lru_cache(maxsize=None)
def _path_counts(n: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """The walk's counts as ((levels, peaks), count) pairs, one walk per n."""
    return tuple(schroeder_path_statistics(n).items())


def colored_path_count(n: int, colors: Fraction) -> Fraction:
    """Weighted path count: each level step may take any of `colors` colors."""
    total = Fraction(0)
    for (levels, _), count in _path_counts(n):
        total += count * Fraction(colors) ** levels
    return total


def peak_count_row(n: int) -> list[int]:
    """Row n of the triangle counting Schroeder paths to (2n,0) by peaks."""
    row = [0] * (n + 1)
    for (_, peaks), count in _path_counts(n):
        row[peaks] += count
    return row


def level_count_row(n: int) -> list[int]:
    """Row n of the triangle counting Schroeder paths to (2n,0) by level steps."""
    row = [0] * (n + 1)
    for (levels, _), count in _path_counts(n):
        row[levels] += count
    return row
