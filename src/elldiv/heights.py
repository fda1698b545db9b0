"""Naive, local, and canonical heights of rational points.

All heights are in natural-log units. The naive height of an affine point
is h(x) = log max(|num x|, den x); its exact decomposition over places is

    h(x) = sum_p v_p(den x) * log p  +  max(0, log |x|)

and the canonical height is the quadratic limit (1/2) * 4^(-N) * h(2^N P),
evaluated by literal repeated doubling with exact arithmetic.
"""

import math
from dataclasses import dataclass

from .numtheory import valuation
from .rational_ec import Point, torsion_order

DEFAULT_TOLERANCE = 1e-6
# Small points routinely have h(P) = h(2P) = 0, which would fake instant
# convergence of the doubling limit. Successive gaps are therefore not
# trusted until the doubled point's naive height clears a threshold (or
# failing that, until MIN_DOUBLINGS), and never before two doublings.
MIN_DOUBLINGS = 6
MAX_DOUBLINGS = 12
_NONDEGENERATE_HEIGHT = 1.0

ARCHIMEDEAN = None  # place marker accepted by siegel_ratio


class IdentityPointError(ValueError):
    """The identity has no x-coordinate, so this height is undefined."""


class NonConvergenceError(RuntimeError):
    def __init__(self, gap: float, iterations: int):
        self.gap = gap
        self.iterations = iterations
        super().__init__(
            f"height limit gap {gap:.3e} still above tolerance after {iterations} doublings"
        )


def log_int(n: int) -> float:
    """Natural log of a positive integer of arbitrary size.

    Floats overflow near 2^1024, so big inputs are split into a shifted
    900-bit mantissa plus an exact power of two.
    """
    if n <= 0:
        raise ValueError("log_int expects a positive integer")
    shift = n.bit_length() - 900
    if shift <= 0:
        return math.log(n)
    return math.log(n >> shift) + shift * math.log(2)


@dataclass(frozen=True)
class HeightEstimate:
    value: float
    error_bound: float
    iterations_used: int


@dataclass(frozen=True)
class HeightConstants:
    """Observed height-comparison constants over a sample of multiples.

    translation_bound: smallest C seen with h(R+S) <= C + 2 h(S);
    comparison_bound: largest |h(S) - 2 h^(S)| seen;
    pairing_constant: h^(R) + h^(M), the constant controlling how far
    h^(nR+M) can sag below h^(nR).
    """

    translation_bound: float
    comparison_bound: float
    pairing_constant: float


def naive_height(point: Point) -> float:
    """Weil height of x(P); the identity gets 0 by convention."""
    if point.is_identity:
        return 0.0
    x = point.x
    return log_int(max(abs(x.numerator), x.denominator))


def local_height_exponent(point: Point, p: int) -> int:
    """max(0, -ord_p(x(P))) as a bare exponent; multiply by log p to weight it."""
    if point.is_identity:
        raise IdentityPointError("local height of the identity is undefined")
    return valuation(point.x.denominator, p)


def archimedean_local_height(point: Point) -> float:
    """max(0, log |x(P)|), the contribution of the real place."""
    if point.is_identity:
        raise IdentityPointError("local height of the identity is undefined")
    x = point.x
    if x == 0:
        return 0.0
    return max(0.0, log_int(abs(x.numerator)) - log_int(x.denominator))


def canonical_height(
    point: Point,
    tol: float = DEFAULT_TOLERANCE,
    max_doublings: int = MAX_DOUBLINGS,
) -> HeightEstimate:
    """Neron-Tate height via the doubling limit (1/2) 4^(-N) h(2^N P).

    Torsion points (detected exactly) return 0 with no iteration. Otherwise
    the point is doubled until successive estimates differ by less than
    tol/2; the reported error bound max(last gap, tol) is a heuristic, not
    a rigorous enclosure.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if torsion_order(point) is not None:
        return HeightEstimate(0.0, 0.0, 0)

    estimate = naive_height(point) / 2.0
    doubled = point
    gap = math.inf
    for n in range(1, max_doublings + 1):
        doubled = doubled + doubled
        height = naive_height(doubled)
        nxt = height / (2.0 * 4 ** n)
        gap = abs(nxt - estimate)
        estimate = nxt
        settled = n >= MIN_DOUBLINGS or (n >= 2 and height >= _NONDEGENERATE_HEIGHT)
        if settled and gap < tol / 2:
            return HeightEstimate(estimate, max(gap, tol), n)
    if gap > tol:
        raise NonConvergenceError(gap, max_doublings)
    return HeightEstimate(estimate, max(gap, tol), max_doublings)


def height_pairing(r_point: Point, m_point: Point, tol: float = DEFAULT_TOLERANCE) -> float:
    """Bilinear pairing h^(R+M) - h^(R) - h^(M); error accumulates to ~3*tol."""
    total = canonical_height(r_point + m_point, tol).value
    return total - canonical_height(r_point, tol).value - canonical_height(m_point, tol).value


def observed_height_constants(
    r_point: Point,
    m_point: Point,
    sample_count: int = 30,
    tol: float = 1e-4,
) -> HeightConstants:
    """Empirical height constants, sampled over S = n*M for n = 1..sample_count.

    These are finite-sample observations, not proofs: genuine constants
    exist but are not effective, so diagnostics report the worst case seen.
    """
    base = canonical_height(m_point, tol).value
    translation = comparison = 0.0
    sample = m_point.curve.identity()
    for n in range(1, sample_count + 1):
        sample = sample + m_point
        h_sample = naive_height(sample)
        translation = max(translation, naive_height(r_point + sample) - 2 * h_sample)
        comparison = max(comparison, abs(h_sample - 2 * n * n * base))
    pairing = canonical_height(r_point, tol).value + base
    return HeightConstants(translation, comparison, pairing)


def siegel_ratio(point: Point, place: int | None) -> float:
    """Share of the naive height of an affine point carried by one place.

    ``place`` is a finite prime, or ARCHIMEDEAN (None) for the real place.
    Evaluated on the terms of a denominator sequence (``term.point`` is
    nP+Q), the ratio of the weighted local height to the full naive height
    tends to 0 in n for every fixed place; this evaluates one sample of it.
    """
    if point.is_identity:
        raise IdentityPointError("the identity has no height to share")
    total = naive_height(point)
    if total == 0.0:
        return 0.0
    if place is ARCHIMEDEAN:
        local = archimedean_local_height(point)
    else:
        local = local_height_exponent(point, place) * math.log(place)
    return local / total
