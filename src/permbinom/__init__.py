"""permbinom: a verifiable toolkit for permutation binomials over F_{q^2}.

Covers the two-level field tower, exact polynomial algebra and resultants,
closed-form power sums with a brute-force oracle, permutation tests and
family classification, re-derivation of a transcribed set of reference
constants, and a deterministic parameter-space search harness with a CLI.
"""

__version__ = "0.1.0"

from .exactalg import (
    BiPolyRZ,
    Factorization,
    IntPoly,
    RatPoly,
    is_probable_prime,
    primality_and_factor_check,
    resultant_bivar_z,
    resultant_univar,
)
from .ff import (
    FieldCtx,
    FieldElement,
    PrimePower,
    build_tower,
    compute_z,
    enumerate_elements,
)
from .powersum import (
    PowerSumIndex,
    power_sum_brute,
    power_sum_t1_closed,
    power_sum_t2_closed,
    theta_numeric,
    theta_symbolic,
    verify_identities,
)
from .ppcheck import (
    BinomialParams,
    PPVerdict,
    classify_family,
    is_pp_brute,
    is_pp_powersum,
    thm21_bound,
)
from .report import CheckReport
from .search import cross_validate, search_exceptional
