"""Refusals that no other test reaches: each entry point raises the error
type and the full message that names the quantity at fault."""

import re

import pytest

from riordanlbp import cfrac, hankel_toeplitz
from riordanlbp.lbp import LBPFamily
from riordanlbp.riordan import LowerTriangularMatrix, RiordanArray
from riordanlbp.series import TruncatedSeries

# label -> (call that is refused, error type, full message)
REFUSALS = {
    "LBPFamily_empty": (lambda: LBPFamily((), (1,)),
                        ValueError, "coefficient sequences must be nonempty"),
    "LBPFamily.c_periodic": (lambda: LBPFamily.periodic([1], [1, 2]).c,
                             ValueError, "family does not have constant c"),
    "recover_parameters": (lambda: hankel_toeplitz.recover_parameters(
                               [1, 1, 0, 1], [1, 0, 1, 1], 1),
                           ZeroDivisionError, "vanishing denominator t_n t'_n"),
    "hankel_from_jfraction": (lambda: cfrac.hankel_from_jfraction([1], 3),
                              ValueError, "need 3 couplings"),
    "TruncatedSeries_empty": (lambda: TruncatedSeries([]),
                              ValueError, "a series needs at least the constant coefficient"),
    "reversion": (lambda: TruncatedSeries([1, 1, 0], 2).reversion(),
                  ValueError, "reversion requires f(0) = 0"),
    "LowerTriangularMatrix_empty": (lambda: LowerTriangularMatrix([]),
                                    ValueError, "empty matrix"),
    "RiordanArray": (lambda: RiordanArray(TruncatedSeries([1], 2),
                                          TruncatedSeries([0, 0, 1], 2)),
                     ValueError, "f'(0) must be invertible"),
}


@pytest.mark.parametrize("label", sorted(REFUSALS))
def test_refusal_names_the_quantity(label):
    call, error, message = REFUSALS[label]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
