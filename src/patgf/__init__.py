"""patgf: exact generating functions for pattern-restricted permutations.

The package pairs a symbolic side (exact rational-function arithmetic,
continued fractions, Chebyshev-style closed forms, and a block-decomposition
recurrence engine for 132-avoiding pattern queries) with an exhaustive
brute-force census that serves as ground truth for everything the symbolic
side produces.
"""

from .chebyshev import (
    catalan_poly,
    catalan_series,
    cf_closed,
    cf_denominator,
    cf_iterative,
    cf_product_closed,
    reduced_chebyshev,
    reduced_w,
)
from .decompose import (
    CanonicalDecomposition,
    decompose,
    rtl_maxima,
)
from .engine import (
    GfState,
    avoid_contain_gf,
    avoid_set_gf,
    u2k_both_once_gf,
    ulk_avoid_gf,
    ulk_exact_once_gf,
    ulk_members,
)
from .errors import (
    DegenerateContinuedFraction,
    DivisionByZero,
    DuplicateEntries,
    IndexOutOfRange,
    LengthTooLarge,
    Not132Avoiding,
    ParseError,
    PatgfError,
    PoleAtOrigin,
    PreconditionViolated,
)
from .perms import (
    PatternQuery,
    census,
    census_series,
    contains,
    count_occurrences,
    flatten,
    is_permutation,
    parse_pattern,
    parse_pattern_set,
)
from .ratfunc import (
    P_ONE,
    P_X,
    P_ZERO,
    RF_ONE,
    RF_X,
    RF_ZERO,
    Poly,
    PowerSeries,
    RatFunc,
    as_ratfunc,
    poly_gcd,
)

__version__ = "0.1.0"
