"""Integer combinatorics: binomials, Catalan numbers, and a transfer
recursion counting Schroeder lattice paths, used as an independent oracle for
the moment identities.  The Schroeder numbers themselves are
`lbp.shifted_moment_sum(1, 1, n)`."""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from math import comb

from .scalars import as_fraction, check_size


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
    check_size("n", n)
    return comb(2 * n, n) // (n + 1)


def schroeder_path_statistics(n: int) -> dict[tuple[int, int], int]:
    """Count Schroeder paths from (0,0) to (2n,0) by (level steps, peaks).

    Paths use up (1,1), down (1,-1) and long level (2,0) steps and never dip
    below the axis.  A peak is an up step immediately followed by a down
    step.  A transfer recursion over the abscissa x, independent of all
    series machinery: prefixes[x] maps (height, last step was up) to the
    (levels, peaks) counts of the path prefixes ending there.
    """
    check_size("n", n)
    target = 2 * n
    prefixes = [defaultdict(Counter) for _ in range(target + 1)]
    prefixes[0][0, False][0, 0] = 1
    for x in range(target):
        for (height, last_up), stats in prefixes[x].items():
            if height:
                down = prefixes[x + 1][height - 1, False]
                for (levels, peaks), count in stats.items():
                    down[levels, peaks + last_up] += count
            # height has the parity of x, so this is when a path can still
            # return to the axis after an up or a level step
            if height < target - x:
                prefixes[x + 1][height + 1, True].update(stats)
                level = prefixes[x + 2][height, False]
                for (levels, peaks), count in stats.items():
                    level[levels + 1, peaks] += count
    return dict(prefixes[target][0, False])


def colored_path_count(stats: dict, colors: int | Fraction) -> int | Fraction:
    """Weighted count of the paths `stats` tallies: each level step may take
    any of `colors` colors.  An integral colour count sums in ints and gives
    an int; any other gives a Fraction."""
    colors = as_fraction(colors)
    if colors.denominator == 1:
        colors = colors.numerator
    terms = (count * colors ** levels for (levels, _), count in stats.items())
    return sum(terms, colors * 0)


def peak_count_row(stats: dict) -> list[int]:
    """Row n of the triangle counting Schroeder paths to (2n,0) by peaks,
    read off `stats` = schroeder_path_statistics(n); n is the largest entry
    of any key, as L^n has n level steps and (UD)^n has n peaks."""
    row = [0] * (1 + max((max(key) for key in stats), default=0))
    for (_, peaks), count in stats.items():
        row[peaks] += count
    return row


def level_count_row(stats: dict) -> list[int]:
    """Row n of the triangle counting Schroeder paths to (2n,0) by level steps,
    read off `stats` = schroeder_path_statistics(n)."""
    # peak_count_row tallies the second entry of each key
    return peak_count_row({(peaks, levels): count for (levels, peaks), count in stats.items()})
