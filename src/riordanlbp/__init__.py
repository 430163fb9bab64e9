"""Exact arithmetic for constant-coefficient Laurent biorthogonal polynomials.

The package closes the loop between four presentations of the same family:
the two-parameter recurrence, its Riordan coefficient array, the moment
sequence of the inverse array, and the continued fractions / determinant
transforms of those moments.  Everything is computed over exact scalars
(rationals or bivariate rational functions), so identity checks are equality
tests, not tolerance tests.
"""

from .scalars import (
    PARAM_B,
    PARAM_C,
    BivarPoly,
    RationalFunction,
    parse_rational,
)
from .series import TruncatedSeries, catalan_series
from .riordan import (
    LowerTriangularMatrix,
    RiordanArray,
    binomial_array,
    has_column_shift,
    production_matrix,
    production_of_inverse,
)
from .lbp import (
    DEFAULT_ORDER,
    LBPFamily,
    MOMENT_ROUTES,
    coefficient_array,
    coefficient_matrix,
    entry_closed_form,
    inverse_entry_lagrange,
    moment_gf,
    moment_matrix,
    moment_production,
    moments,
    rows_by_recurrence,
)
from .orthopoly import (
    ORTHO_KINDS,
    ortho_array,
    ortho_rows_by_recurrence,
    verify_factorizations,
)
from .cfrac import (
    JFraction,
    SFraction,
    TFraction,
    cf_expand,
    jfraction_from_moments,
    tfraction_closed_form,
    verify_uv_equality,
)
from .hankel_toeplitz import (
    BiInfiniteMoments,
    determinant,
    hankel_transform,
    lbp_by_determinant,
    recover_parameters,
    toeplitz_dets,
)
from .report import Check, ScenarioReport

__version__ = "0.1.0"

__all__ = [
    "PARAM_B", "PARAM_C", "BivarPoly", "RationalFunction", "parse_rational",
    "DEFAULT_ORDER", "TruncatedSeries", "catalan_series",
    "LowerTriangularMatrix", "RiordanArray", "binomial_array",
    "has_column_shift", "production_matrix", "production_of_inverse",
    "LBPFamily", "MOMENT_ROUTES", "coefficient_array",
    "coefficient_matrix", "entry_closed_form", "inverse_entry_lagrange",
    "moment_gf", "moment_matrix", "moment_production", "moments",
    "rows_by_recurrence",
    "ORTHO_KINDS", "ortho_array", "ortho_rows_by_recurrence",
    "verify_factorizations",
    "JFraction", "SFraction", "TFraction", "cf_expand",
    "jfraction_from_moments", "tfraction_closed_form", "verify_uv_equality",
    "BiInfiniteMoments", "determinant", "hankel_transform",
    "lbp_by_determinant", "recover_parameters", "toeplitz_dets",
    "Check", "ScenarioReport",
    "__version__",
]
