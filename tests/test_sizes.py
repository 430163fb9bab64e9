"""Sizes are arguments: no public size has a default, and a size out of
range is refused by the name and value the caller passed."""

import inspect

import pytest

import riordanlbp
from riordanlbp import cfrac, combinat, hankel_toeplitz, lbp, orthopoly, riordan, series
from riordanlbp.lbp import LBPFamily

UNIT = LBPFamily.constant(1, 1)
# mu_0..mu_3 at b = c = 1, extended two steps to negative index
BACKWARD_2 = hankel_toeplitz.BiInfiniteMoments((1, 1, 2, 6), 1, 2)

# label -> (entry point, arguments ending in the negative size, the size's name)
NEGATIVE_SIZES = {
    "rows_by_recurrence": (lbp.rows_by_recurrence, (UNIT, -1), "n_max"),
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
    "truncate": (series.TruncatedSeries([1, 2, 3, 4, 5]).truncate, (-3,), "order"),
    "truncate_to_nothing": (series.TruncatedSeries([1, 2, 3]).truncate, (-1,), "order"),
    "cf_expand": (cfrac.cf_expand, (cfrac.moment_sfraction(1, 1, 2), -1), "order"),
    "hankel_transform": (hankel_toeplitz.hankel_transform, ([1, 1, 3], -1), "n_max"),
    "hankel_and_shifted": (hankel_toeplitz.hankel_and_shifted, ([1, 1, 3], -1), "depth"),
    "BiInfiniteMoments": (hankel_toeplitz.BiInfiniteMoments, ((1, 1, 3), 1, -1), "backward depth"),
    "toeplitz_dets": (hankel_toeplitz.toeplitz_dets, (BACKWARD_2, -1), "n_max"),
    "lbp_by_determinant": (hankel_toeplitz.lbp_by_determinant, (BACKWARD_2, -1), "n"),
    "moments": (lbp.moments, (UNIT, "gf_expansion", -1), "n_max"),
    "shift_up": (series.TruncatedSeries([1, 2]).shift_up, (-1,), "shift exponent k"),
    "shift_down": (series.TruncatedSeries([0, 2]).shift_down, (-2,), "shift exponent k"),
    "ortho_inverse_f_closed_form": (orthopoly.ortho_inverse_f_closed_form, (1, 1, -1), "order"),
    "schroeder_path_statistics": (combinat.schroeder_path_statistics, (-1,), "n"),
}


@pytest.mark.parametrize("label", sorted(NEGATIVE_SIZES))
def test_negative_size_is_refused_by_name(label):
    entry, args, name = NEGATIVE_SIZES[label]
    with pytest.raises(ValueError, match=f"^{name} must be at least 0, got {args[-1]}$"):
        entry(*args)


# label -> (entry point, arguments that leave a size too small, the error it raises)
SMALL_SIZES = {
    "coefficient_matrix": (lbp.coefficient_matrix, (UNIT, 0),
                           "dim must be at least 1, got 0"),
    "moment_matrix": (lbp.moment_matrix, (UNIT, 0),
                      "dim must be at least 1, got 0"),
    "RiordanArray.matrix": (riordan.binomial_array(1, 4).matrix, (0,),
                            "dim must be at least 1, got 0"),
    "RiordanArray.matrix_negative": (riordan.binomial_array(1, 4).matrix, (-2,),
                                     "dim must be at least 1, got -2"),
    "coefficient_array": (lbp.coefficient_array, (UNIT, 0),
                          "f must have order at least 1, got 0"),
    "ortho_array": (orthopoly.ortho_array, ("q", 1, 1, 0),
                    "f must have order at least 1, got 0"),
    "binomial_array": (riordan.binomial_array, (1, 0),
                       "f must have order at least 1, got 0"),
    "production_of_inverse": (riordan.production_of_inverse,
                              (riordan.LowerTriangularMatrix([[1]]),),
                              "dim must be at least 2, got 1"),
    "rows_by_recurrence_width": (lbp.rows_by_recurrence, (UNIT, 3, 0),
                                 "width must be at least 1, got 0"),
    "moment_production": (lbp.moment_production, (UNIT, 0),
                          "dim must be at least 1, got 0"),
    "has_column_shift": (riordan.has_column_shift, ([[1, 0], [1, 1]],),
                         "dim must be at least 3, got 2"),
    "recover_parameters": (hankel_toeplitz.recover_parameters, ([1, 1, 1], [1, 1, 1], 0),
                           "n must be at least 1, got 0"),
    "reversion": (series.TruncatedSeries([0]).reversion, (),
                  "order must be at least 1, got 0"),
    "toeplitz_dets_depth": (hankel_toeplitz.toeplitz_dets, (BACKWARD_2, 5),
                            "backward depth must be at least 5, got 2"),
    "lbp_by_determinant_depth": (hankel_toeplitz.lbp_by_determinant, (BACKWARD_2, 4),
                                 "backward depth must be at least 3, got 2"),
}

# label -> (entry point, arguments ending in a size too large, the error it raises)
LARGE_SIZES = {
    "RiordanArray.matrix": (riordan.binomial_array(1, 4).matrix, (9,),
                            "dim must be at most 5 for order 4, got 9"),
    "truncate": (series.TruncatedSeries([1, 2, 3]).truncate, (5,),
                 "order must be at most 2, got 5"),
    "shift_down": (series.TruncatedSeries([1, 2]).shift_down, (3,),
                   "shift exponent k must be at most 1, got 3"),
}


@pytest.mark.parametrize("label", sorted(SMALL_SIZES))
def test_small_size_is_refused_by_name(label):
    entry, args, message = SMALL_SIZES[label]
    with pytest.raises(ValueError, match=f"^{message}$"):
        entry(*args)


@pytest.mark.parametrize("label", sorted(LARGE_SIZES))
def test_large_size_is_refused_by_name(label):
    entry, args, message = LARGE_SIZES[label]
    with pytest.raises(ValueError, match=f"^{message}$"):
        entry(*args)


SIZE_PARAMETERS = ("order", "n_max", "dim", "depth")
# callable -> why its size parameter keeps a default
SIZE_DEFAULTS_KEPT = {
    "LBPFamily.__init__": "the unread order field stays while perfbench/checks.py passes order=",
    "LBPFamily.constant": "the unread order field stays while perfbench/checks.py passes order=",
    "LBPFamily.periodic": "the unread order field stays while perfbench/checks.py passes order=",
    "TruncatedSeries.__init__": "order is worked out from the coefficients",
}


def public_callables():
    for name in riordanlbp.__all__:
        obj = getattr(riordanlbp, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_public_sizes_have_no_default():
    defaulted = sorted(
        name
        for name, func in public_callables()
        for param in inspect.signature(func).parameters.values()
        if param.name in SIZE_PARAMETERS and param.default is not param.empty
    )
    assert defaulted == sorted(SIZE_DEFAULTS_KEPT)
