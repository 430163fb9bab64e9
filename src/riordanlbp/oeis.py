"""Hermetic OEIS comparison against vendored fixture files.

Fixtures are plain text, one `<index> <integer>` pair per line with
consecutive indices; nothing is ever fetched from the network.  Each
supported id has a generator that recomputes the sequence from library
routines, so a check compares two independent sources: frozen data on one
side, live arithmetic on the other.

Triangles are compared in row-major flattened form, the convention the
fixture files use.
"""

from __future__ import annotations

from pathlib import Path

from .cfrac import tfraction_closed_form
from .lbp import schroeder_binomial_sums, shifted_moment_sum
from .report import Check
from .scalars import PARAM_C
from .series import TruncatedSeries, catalan_series

DEFAULT_FIXTURES_DIR = Path(__file__).parent / "fixtures"


class OeisFixture:
    __slots__ = ("sequence_id", "offset", "terms")

    def __init__(self, sequence_id: str, offset: int, terms: tuple):
        self.sequence_id = sequence_id
        self.offset = offset
        self.terms = terms

    def __len__(self) -> int:
        return len(self.terms)


def load_fixture(sequence_id: str, fixtures_dir: Path | str | None = None) -> OeisFixture:
    directory = Path(fixtures_dir) if fixtures_dir is not None else DEFAULT_FIXTURES_DIR
    path = directory / f"{sequence_id}.txt"
    if not path.is_file():
        raise FileNotFoundError(f"no fixture file for {sequence_id} in {directory}")
    indices, terms = [], []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        # int() alone would also take "5_0", "+5" and non-ASCII digits
        fields = line.split(" ")
        if len(fields) != 2 or not all(t.isascii() and t.removeprefix("-").isdigit()
                                       for t in fields):
            raise ValueError(f"{path}:{line_no}: expected '<index> <integer>'")
        index, term = map(int, fields)
        indices.append(index)
        terms.append(term)
    if not terms:
        raise ValueError(f"{path}: empty fixture")
    for prev, nxt in zip(indices, indices[1:]):
        if nxt != prev + 1:
            raise ValueError(f"{path}: indices are not consecutive at {nxt}")
    return OeisFixture(sequence_id, indices[0], tuple(terms))


def _catalan_terms(count: int) -> list:
    series = catalan_series(count - 1)
    return [int(v) for v in series.coeffs]


def _schroeder_terms(count: int) -> list:
    series = tfraction_closed_form(1, 1, count - 1)
    return [int(v) for v in series.coeffs]


def _peak_triangle_terms(count: int) -> list:
    """Flattened rows of [c^k] mu~_n at b=1; row n lists k = 0..n."""
    out = []
    n = 0
    while len(out) < count:
        row = shifted_moment_sum(1, PARAM_C, n)
        coeffs = row.num.c_coefficients()
        out.extend(int(v) for v in coeffs + [0] * (n + 1 - len(coeffs)))
        n += 1
    return out[:count]


def _reversion_terms(count: int) -> list:
    series = TruncatedSeries.ratio([0, 1, -2], [1, 1], count - 1).reversion()
    return [int(v) for v in series.coeffs]


GENERATORS = {
    "A000108": ("catalan number series", _catalan_terms),
    "A006318": ("shifted moments at b=c=1", _schroeder_terms),
    "A060693": ("peak-count triangle, flattened rows", _peak_triangle_terms),
    "A103210": ("reversion of t(1-2t)/(1+t)", _reversion_terms),
    "A155867": ("sum of binom(n+k,2k) weighted Schroeder numbers", schroeder_binomial_sums),
}


def known_ids() -> tuple:
    return tuple(sorted(GENERATORS))


def check_sequence(sequence_id: str, fixtures_dir: Path | str | None = None) -> Check:
    """Regenerate the sequence and compare it with the fixture's terms."""
    if sequence_id not in GENERATORS:
        raise KeyError(f"no generator registered for {sequence_id}")
    fixture = load_fixture(sequence_id, fixtures_dir)
    label, generator = GENERATORS[sequence_id]
    generated = generator(len(fixture))
    overlap = min(len(generated), len(fixture))
    for i in range(overlap):
        if generated[i] != fixture.terms[i]:
            return Check(
                f"{sequence_id} ({label})", False,
                f"index {fixture.offset + i}: generated {generated[i]} != fixture {fixture.terms[i]}",
            )
    return Check(f"{sequence_id} ({label})", True, f"{overlap} terms")
