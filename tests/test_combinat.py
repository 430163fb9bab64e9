"""Counting helpers: binomials, Catalan and Schroeder numbers, path statistics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlbp.combinat import (
    binomial,
    catalan,
    colored_path_count,
    level_count_row,
    peak_count_row,
    schroeder_path_statistics,
)
from riordanlbp.lbp import shifted_moment_sum

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
SCHROEDER = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098]

# Rows of the joint level/peak refinement for n = 0..5; row n lists the
# coefficients of the counting polynomial in one color variable.
STATISTIC_ROWS = [
    [1],
    [1, 1],
    [2, 3, 1],
    [5, 10, 6, 1],
    [14, 35, 30, 10, 1],
    [42, 126, 140, 70, 15, 1],
]


class TestBinomial:
    def test_small_table(self):
        assert [binomial(4, k) for k in range(5)] == [1, 4, 6, 4, 1]

    def test_out_of_range_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0

    def test_negative_upper_index(self):
        # (-1 choose k) = (-1)^k under the falling-factorial definition
        assert [binomial(-1, k) for k in range(4)] == [1, -1, 1, -1]

    @given(st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=50, deadline=None)
    def test_pascal_recurrence(self, n, k):
        assert binomial(n + 1, k + 1) == binomial(n, k) + binomial(n, k + 1)


class TestCatalanAndSchroeder:
    def test_catalan_prefix(self):
        assert [catalan(n) for n in range(10)] == CATALAN

    def test_schroeder_prefix(self):
        assert [shifted_moment_sum(1, 1, n) for n in range(10)] == SCHROEDER

    def test_schroeder_from_catalan_sum(self):
        # large Schroeder as a binomial-weighted Catalan sum
        for n in range(9):
            total = sum(
                binomial(2 * n - k, k) * catalan(n - k) for k in range(n + 1)
            )
            assert total == SCHROEDER[n]


def walked_path_statistics(n):
    """Reference: walk every Schroeder path to (2n,0) and tally (levels, peaks)."""
    counts = {}

    def walk(pos, height, levels, peaks, last_up):
        if pos == 2 * n and height == 0:
            counts[levels, peaks] = counts.get((levels, peaks), 0) + 1
            return
        if height > 2 * n - pos:
            return
        if pos + 1 <= 2 * n:
            walk(pos + 1, height + 1, levels, peaks, True)
            if height > 0:
                walk(pos + 1, height - 1, levels, peaks + last_up, False)
        if pos + 2 <= 2 * n:
            walk(pos + 2, height, levels + 1, peaks, False)

    walk(0, 0, 0, 0, False)
    return counts


class TestPathStatistics:
    @pytest.mark.parametrize("n", range(9))
    def test_recursion_matches_the_walk(self, n):
        assert schroeder_path_statistics(n) == walked_path_statistics(n)

    def test_counts_sum_to_schroeder(self):
        for n in range(15):
            stats = schroeder_path_statistics(n)
            assert sum(stats.values()) == shifted_moment_sum(1, 1, n)

    def test_levels_and_peaks_distributions_agree(self):
        # the two one-variable refinements coincide row by row
        for n in range(15):
            stats = schroeder_path_statistics(n)
            assert level_count_row(stats) == peak_count_row(stats)

    def test_negative_n_is_refused(self):
        with pytest.raises(ValueError, match="^n must be at least 0, got -1$"):
            schroeder_path_statistics(-1)

    def test_each_row_reads_its_own_statistic(self):
        # on path statistics the two rows coincide, so tell them apart on
        # made-up (levels, peaks) counts
        stats = {(2, 0): 1, (0, 1): 3, (1, 1): 5}
        assert level_count_row(stats) == [3, 5, 1]
        assert peak_count_row(stats) == [1, 8, 0]

    @pytest.mark.parametrize("n", range(6))
    def test_refinement_rows(self, n):
        assert level_count_row(schroeder_path_statistics(n)) == STATISTIC_ROWS[n]

    def test_colored_counts(self):
        # one color gives plain Schroeder; more colors weight each flat run
        stats = [schroeder_path_statistics(n) for n in range(7)]
        assert [colored_path_count(s, 1) for s in stats] == SCHROEDER[:7]
        assert [colored_path_count(s, 2) for s in stats[:5]] == [1, 3, 12, 57, 300]
        assert [colored_path_count(s, 3) for s in stats[:5]] == [1, 4, 20, 116, 740]

    def test_colored_count_refuses_a_float(self):
        with pytest.raises(TypeError, match="^not an exact rational: float$"):
            colored_path_count(schroeder_path_statistics(2), 0.5)

    def test_colored_matches_row_evaluation(self):
        for n in range(6):
            stats = schroeder_path_statistics(n)
            row = level_count_row(stats)
            for colors in (1, 2, 3):
                value = sum(coef * colors**k for k, coef in enumerate(row))
                assert value == colored_path_count(stats, colors)

    def test_statistics_are_a_fresh_dict(self):
        stats = schroeder_path_statistics(3)
        stats.clear()
        assert sum(schroeder_path_statistics(3).values()) == SCHROEDER[3]
        stats = schroeder_path_statistics(3)
        peak_count_row(stats)[0] = 999
        assert peak_count_row(stats) == level_count_row(stats) == STATISTIC_ROWS[3]
