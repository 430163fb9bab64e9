"""Refusals that no other test reaches: each entry point raises the error
type and the full message that names the quantity at fault."""

import re
from fractions import Fraction

import pytest

from riordanlbp import cfrac, hankel_toeplitz, lbp, orthopoly
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
    "moment_recurrence_float": (lambda: lbp.moment_recurrence(0.5, 1, 3),
                                TypeError, "not an exact scalar: float"),
    "moment_recurrence_float_c": (lambda: lbp.moment_recurrence(Fraction(1, 2), 0.0, 3),
                                  TypeError, "not an exact scalar: float"),
    "moment_recurrence_size": (lambda: lbp.moment_recurrence(1, 2, -1),
                               ValueError, "n_max must be at least 0, got -1"),
    "schroeder_binomial_sums": (lambda: lbp.schroeder_binomial_sums(-3),
                                ValueError, "count must be at least 0, got -3"),
    "toeplitz_closed_form": (lambda: hankel_toeplitz.toeplitz_closed_form(1, 0, 3),
                             ZeroDivisionError, "c must be nonzero"),
    "moment_gf": (lambda: lbp.moment_gf(0, 1, 3),
                  ZeroDivisionError, "b must be nonzero"),
    "tfraction_closed_form": (lambda: cfrac.tfraction_closed_form(0, 1, 3),
                              ZeroDivisionError, "b must be nonzero"),
    "ortho_inverse_f_closed_form": (lambda: orthopoly.ortho_inverse_f_closed_form(0, 1, 3),
                                    ZeroDivisionError, "b must be nonzero"),
    "ortho_inverse_f_closed_form_b_plus_c": (
        lambda: orthopoly.ortho_inverse_f_closed_form(2, -2, 3),
        ZeroDivisionError, "b + c must be nonzero"),
    "RiordanArray": (lambda: RiordanArray(TruncatedSeries([1], 2),
                                          TruncatedSeries([0, 0, 1], 2)),
                     ValueError, "f'(0) must be invertible"),
}


@pytest.mark.parametrize("label", sorted(REFUSALS))
def test_refusal_names_the_quantity(label):
    call, error, message = REFUSALS[label]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
