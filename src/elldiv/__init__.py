"""Exact arithmetic of denominator sequences on elliptic curves over Q.

The library computes the terms D_n of x(nP+Q) = C_n/D_n exactly, detects
and certifies primitive divisors, evaluates naive/local/canonical heights,
and counts primes p <= x for which Q mod p lands in the cyclic group
generated by P mod p.
"""

from .denominators import (
    BadPrimeSet,
    CollisionWithIdentityError,
    DenomTerm,
    DistinctPrimeCount,
    IncompleteFactorizationError,
    IncompleteHistoryError,
    NonTorsionQError,
    PrimitiveDivisorReport,
    bad_set,
    denom_sequence,
    denom_term,
    growth_estimate,
    omega_product,
    primitive_parts,
    primitive_report,
    primitive_reports,
)
from .heights import (
    ARCHIMEDEAN,
    HeightConstants,
    HeightEstimate,
    IdentityPointError,
    NonConvergenceError,
    archimedean_local_height,
    canonical_height,
    height_pairing,
    local_height_exponent,
    naive_height,
    observed_height_constants,
    siegel_ratio,
)
from .modp import (
    BadReductionError,
    FpCurve,
    FpPoint,
    OrbitSweepResult,
    group_order,
    in_cyclic_subgroup,
    lang_trotter_sweep,
    point_order,
    reduce_curve,
    reduce_point,
)
from .numtheory import (
    Factorization,
    divisor_count,
    factorize,
    is_prime,
    primes_upto,
    valuation,
)
from .rational_ec import (
    Point,
    PointNotOnCurveError,
    SingularCurveError,
    TorsionPointError,
    WeierstrassCurve,
    torsion_order,
)

__version__ = "0.1.0"
