"""Every public entry point that takes a size refuses a negative one by name."""

import pytest

from riordanlbp import cfrac, hankel_toeplitz, lbp, orthopoly, series
from riordanlbp.lbp import LBPFamily

# label -> (entry point, arguments ending in the negative size, the size's name)
NEGATIVE_SIZES = {
    "rows_by_recurrence": (lbp.rows_by_recurrence, (LBPFamily.constant(1, 1), -1), "n_max"),
    "ortho_rows_q": (orthopoly.ortho_rows_by_recurrence, ("q", 1, 1, -1), "n_max"),
    "ortho_rows_qhat": (orthopoly.ortho_rows_by_recurrence, ("qhat", 1, 1, -1), "n_max"),
    "hankel_closed_form": (hankel_toeplitz.hankel_closed_form, (1, 1, -1), "n_max"),
    "toeplitz_closed_form": (hankel_toeplitz.toeplitz_closed_form, (1, 1, -1), "n_max"),
    "tfraction_fixed_point": (lbp.tfraction_fixed_point, (1, 1, -2), "order"),
    "shifted_moment_sum": (lbp.shifted_moment_sum, (1, 1, -1), "n"),
    "hankel_from_jfraction": (cfrac.hankel_from_jfraction, ([1, 2], -1), "n_max"),
    "moment_sfraction": (cfrac.moment_sfraction, (1, 1, -1), "order"),
    "moment_jfraction": (cfrac.moment_jfraction, (1, 1, -1), "order"),
    "constant_tfraction": (cfrac.constant_tfraction, (1, 1, -1), "order"),
    "TruncatedSeries": (series.TruncatedSeries, ([1], -1), "order"),
    "tfraction_closed_form": (cfrac.tfraction_closed_form, (1, 1, -1), "order"),
    "tfraction_via_transform": (cfrac.tfraction_via_transform, (1, 1, -1), "order"),
    "catalan_series": (series.catalan_series, (-1,), "order"),
}


@pytest.mark.parametrize("label", sorted(NEGATIVE_SIZES))
def test_negative_size_is_refused_by_name(label):
    entry, args, name = NEGATIVE_SIZES[label]
    with pytest.raises(ValueError, match=f"^{name} must be at least 0, got {args[-1]}$"):
        entry(*args)
