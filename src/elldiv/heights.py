"""Naive, local, and canonical heights of rational points.

All heights are in natural-log units. The naive height of an affine point
is h(x) = log max(|num x|, den x); its exact decomposition over places is

    h(x) = sum_p v_p(den x) * log p  +  max(0, log |x|)

and the canonical height is normalized as the quadratic limit
(1/2) * 4^(-N) * h(2^N P). It is evaluated as a sum of local heights
(Silverman, Computing heights on elliptic curves, Math. Comp. 51, 1988):
a multiple R = mP with nonsingular reduction at every prime has finite
parts (1/2) v_p(den x(R)) log p, and the real part is Silverman's series
for the archimedean local height, so 2^N P is never formed.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .numtheory import valuation
from .rational_ec import Point, torsion_order

DEFAULT_TOLERANCE = 1e-6

ARCHIMEDEAN = None  # place marker accepted by siegel_ratio


class IdentityPointError(ValueError):
    """The identity has no x-coordinate, so this height is undefined."""


class NonConvergenceError(RuntimeError):
    def __init__(self, gap: float, iterations: int):
        self.gap = gap
        self.iterations = iterations
        super().__init__(
            f"height error bound {gap:.3e} still above tolerance after {iterations} series terms"
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
    u, _, d = point.triple
    return log_int(max(abs(u), d * d))


def local_height_exponent(point: Point, p: int) -> int:
    """max(0, -ord_p(x(P))) as a bare exponent; multiply by log p to weight it."""
    if point.is_identity:
        raise IdentityPointError("local height of the identity is undefined")
    return 2 * valuation(point.triple[2], p)


def archimedean_local_height(point: Point) -> float:
    """max(0, log |x(P)|), the contribution of the real place."""
    if point.is_identity:
        raise IdentityPointError("local height of the identity is undefined")
    u, _, d = point.triple
    if u == 0:
        return 0.0
    return max(0.0, log_int(abs(u)) - log_int(d * d))


def canonical_height(point: Point, tol: float = DEFAULT_TOLERANCE) -> HeightEstimate:
    """Neron-Tate height as a sum of local heights, with a proven error bound.

    Let R = mP for the least m >= 1 at which R has nonsingular reduction at
    every prime (tested exactly, without factoring). Then

        hhat(P) = (log|a| + (1/4) * sum_{n<N} 4^(-n) l_n) / (2 m^2)  + error,

    where a = num x(R), or num x(R) + den x(R) when |x(R)| < 1/2, and l_n
    is the n-th term of Silverman's series for the archimedean local height
    (Cohen, GTM 138, Alg. 7.5.7); the finite local heights of R are
    (1/2) v_p(den x(R)) log p, and the log|Delta| terms of all places cancel
    by the product formula.

    error_bound = (T + E) / (2 m^2), a proven enclosure:

    - T = L * 4^(-N) / 3 bounds the series tail. L bounds every |l_n|: it
      is max(log sup|D|, log(4/f)) over both charts and both branches on
      |t| <= 9/4, where D is the term's polynomial and f a lower bound for
      max(|z(t)|, |w(t)|) from a Bezout identity b z + c w = 1.
    - E = 2^-48 * (log|a| + (N+1) * sum_n 4^(-n) (1 + |l_n|)) + 2^-60 is
      the rounding allowance. The doubling orbit is kept in binary fixed
      point with enough bits that its drift moves the sum by under 2^-64,
      the polynomial values are exact, and the rest covers correctly
      rounded integer quotients, a libm log within one ulp, and the float
      sums. Each step drops log2 of expansion = (sup|w'| + 5 sup|D'|) / low
      bits, low = f/4, which bounds the slope of the doubling map wherever
      the orbit's error e meets e * max(sup|D'|, sup|w'|) <= low; the
      starting precision meets that condition at every step
      (_archimedean_series has the proof).

    N is the least count with T <= 2^-54, so the value is as accurate as a
    double allows whatever ``tol`` is; ``tol`` only decides whether the
    bound suffices, and NonConvergenceError(gap=error_bound, iterations=N)
    is raised when it does not. iterations_used is N. Torsion points
    (detected exactly) return (0.0, 0.0, 0).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if torsion_order(point) is not None:
        return HeightEstimate(0.0, 0.0, 0)
    m, multiple = 1, point
    while not _nonsingular_everywhere(multiple):
        m, multiple = m + 1, multiple + point
    value, bound, terms = _archimedean_series(multiple)
    estimate = HeightEstimate(value / (2 * m * m), bound / (2 * m * m), terms)
    if estimate.error_bound > tol:
        raise NonConvergenceError(estimate.error_bound, terms)
    return estimate


def _nonsingular_everywhere(point: Point) -> bool:
    """Whether an affine point reduces to a nonsingular point mod every prime.

    With x = a/d^2 and y = b/d^3, the point reduces to O (nonsingular) at
    the primes of d; at any other prime p it is singular exactly when p
    divides Delta and both partials of the curve equation, whose numerators
    are d^4 F_x and d^3 F_y. No prime of d divides both numerators (they
    are -3a^2 and 2b mod d, with a and b prime to d), so one gcd decides.
    """
    c = point.curve
    a, b, d = point.triple
    f_x = c.a1 * b * d - 3 * a * a - 2 * c.a2 * a * d ** 2 - c.a4 * d ** 4
    f_y = 2 * b + c.a1 * a * d + c.a3 * d ** 3
    return math.gcd(c.discriminant, f_x, f_y) == 1


def _archimedean_series(point: Point) -> tuple[float, float, int]:
    """(log|a| + (1/4) sum_n 4^-n l_n, its error bound, terms N); see canonical_height.

    Chart 0 is u = x and chart 1 is u = x + 1. In either, t = 1/u, and
    doubling maps t to w(t)/D(t). A term stays in its chart when
    |w| <= 2|z| (D = z) and otherwise moves to the other one (D = z +- w),
    so |w/D| <= 2 and |t| <= 2 along the whole orbit, and l = log|D|. t is
    held as an integer over 2^bits, z and w are evaluated exactly, scaled by
    2^(4 bits), and each step drops step_bits = log2(expansion) bits.

    Why that precision suffices. Let f be the Bezout floor of max(|z|, |w|)
    on |t| <= 9/4 and low = f/4 (_series_constants). At a computed t the
    branch rule gives |D| >= f/2 = 2 low and |w/D| <= 2. Compare the
    computed orbit with the exact one that takes the same branches, and let
    e be their distance at a step. Smallness condition: e sup|D'| <= low
    and e sup|w'| <= low, that is e * lipschitz <= 1. Between the two
    points |D| then stays above |D(t)| - low >= low and
    |w/D| <= (2|D(t)| + low) / (|D(t)| - low) <= 5, so

        |d(w/D)/dt| = |w'/D - (w/D) D'/D| <= (sup|w'| + 5 sup|D'|) / low = expansion,
        |d log|D| / dt| <= sup|D'| / low <= lipschitz.

    Each floor division adds under 2^-bits, so with bits_n = bits_0 -
    n step_bits and expansion <= 2^step_bits, induction gives
    e_n <= (n + 1) 2^-bits_n. As bits_0 = 66 + N step_bits + log2(lipschitz)
    and step_bits >= 2, lipschitz e_n <= (n + 1) 2^-66 4^(n - N) <= N 2^-68
    for n < N. N is at most 539 because L is a finite double, so the
    smallness condition holds at every step. l_n moves by at most
    lipschitz e_n, and (1/4) sum_n 4^-n l_n by at most
    2^-68 4^-N sum_n (n + 1) <= 2^-70.
    """
    charts, lipschitz, expansion, ell_max = _series_constants(point.curve)
    u, den = point.triple[0], point.triple[2] ** 2
    chart = 0 if 2 * abs(u) >= den else 1
    a = u + chart * den
    terms = max(1, math.ceil((54 * math.log(2) + math.log(ell_max / 3)) / math.log(4)))
    step_bits = _log2_ceil(expansion)
    bits = 66 + terms * step_bits + _log2_ceil(lipschitz)
    t = (den << bits) // a
    total = magnitude = 0.0
    for n in range(terms):
        z_poly, w_poly = charts[chart]
        z, w = z_poly[0] << 4 * bits, w_poly[0] << 4 * bits
        power = 1
        for i in range(1, 5):
            power *= t
            scaled = power << bits * (4 - i)
            z, w = z + z_poly[i] * scaled, w + w_poly[i] * scaled
        d = z
        if abs(w) > 2 * abs(z):
            d, chart = z + (1 - 2 * chart) * w, 1 - chart
        ell = math.log(abs(d) / (1 << 4 * bits))
        total += ell / 4 ** n
        magnitude += (1 + abs(ell)) / 4 ** n
        bits -= step_bits
        t = (w << bits) // d
    log_a = log_int(abs(a))
    tail = ell_max / (3 * 4 ** terms)
    rounding = 2.0 ** -48 * (log_a + (terms + 1) * magnitude) + 2.0 ** -60
    return log_a + total / 4, tail + rounding, terms


@functools.lru_cache(maxsize=16)
def _series_constants(curve) -> tuple[tuple, Fraction, Fraction, float]:
    """Per-chart (z, w) polynomials and the bounds the series needs on |t| <= 9/4.

    low is a quarter of the Bezout floor of max(|z|, |w|), and the sups run
    over |t| <= 9/4 for each chart and each branch D in (z, z +- w). Returns
    the charts; lipschitz = max(sup|D'|, sup|w'|) / low, which bounds the
    slope of every l = log|D| and sets the smallness condition; expansion =
    (sup|w'| + 5 sup|D'|) / low, at least 2, which bounds the slope of every
    doubling step t -> w/D (derived in _archimedean_series); and the bound
    L on |l|. Polynomials are coefficient lists, constant term first.
    """
    bound = Fraction(9, 4)
    b2, b4, b6, b8 = curve.b2, curve.b4, curve.b6, curve.b8
    shifted = (b2 - 12, b4 - b2 + 6, b6 - 2 * b4 + b2 - 4, b8 - 3 * b6 + 3 * b4 - b2 + 3)
    charts = []
    lipschitz, expansion, ell_max = Fraction(1), Fraction(2), 0.0
    for sign, (c2, c4, c6, c8) in ((1, (b2, b4, b6, b8)), (-1, shifted)):
        z, w = [1, 0, -c4, -2 * c6, -c8], [0, 4, c2, 2 * c4, c6]
        charts.append((tuple(z), tuple(w)))
        low = _coprime_floor(z, w, bound) / 4
        sup_dw = _sup(_derivative(w), bound)
        for d in (z, [zi + sign * wi for zi, wi in zip(z, w)]):
            sup_d, sup_dd = _sup(d, bound), _sup(_derivative(d), bound)
            lipschitz = max(lipschitz, max(sup_dd, sup_dw) / low)
            expansion = max(expansion, (sup_dw + 5 * sup_dd) / low)
            ell_max = max(ell_max, _log_fraction(sup_d), -_log_fraction(low))
    return tuple(charts), lipschitz, expansion, ell_max


def _coprime_floor(f, g, bound) -> Fraction:
    """A lower bound for max(|f(t)|, |g(t)|) on |t| <= bound; f, g coprime, integral.

    Each step cancels the leading term of the row of higher degree against
    the other row, keeping r = s*f + u*g on every row (r, s, u); rows are
    kept integral and divided by their content, which scales r, s and u
    alike. At a nonzero constant r,
    |r| <= (|s(t)| + |u(t)|) * max(|f(t)|, |g(t)|).
    """
    rows = [(f, [1], [0]), (g, [0], [1])]
    while True:
        rows.sort(key=lambda row: _degree(row[0]))
        low, high = rows
        dl, dh = _degree(low[0]), _degree(high[0])
        if dl == 0:
            return Fraction(abs(low[0][0])) / (_sup(low[1], bound) + _sup(low[2], bound))
        a, b = low[0][dl], high[0][dh]
        row = [_minus_shifted(h, a, b, dh - dl, l) for h, l in zip(high, low)]
        content = math.gcd(*(c for poly in row for c in poly))
        rows[1] = tuple([c // content for c in poly] for poly in row)


def _degree(poly) -> int:
    return max((i for i, c in enumerate(poly) if c), default=-1)


def _minus_shifted(p, a, b, shift: int, q) -> list:
    """a * p - b * t^shift * q."""
    out = [a * c for c in p] + [0] * (len(q) + shift - len(p))
    for i, qi in enumerate(q):
        out[i + shift] -= b * qi
    return out


def _sup(poly, bound) -> Fraction:
    """sum |c_i| bound^i, an upper bound for |poly(t)| on |t| <= bound; integral poly."""
    num, den, n = bound.numerator, bound.denominator, len(poly) - 1
    return Fraction(sum(abs(c) * num ** i * den ** (n - i) for i, c in enumerate(poly)), den ** n)


def _derivative(poly) -> list:
    return [i * c for i, c in enumerate(poly)][1:]


def _log_fraction(q: Fraction) -> float:
    return log_int(q.numerator) - log_int(q.denominator)


def _log2_ceil(q: Fraction) -> int:
    """An integer >= log2(q) for q >= 1."""
    return q.numerator.bit_length() - q.denominator.bit_length() + 1


def height_pairing(r_point: Point, m_point: Point, tol: float = DEFAULT_TOLERANCE) -> float:
    """Bilinear pairing h^(R+M) - h^(R) - h^(M).

    Its error is at most the sum of the ``error_bound`` values of the three
    ``canonical_height`` estimates, each of which is at most tol.
    """
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
    return siegel_ratios(point, [place])[0]


def siegel_ratios(point: Point, places: list[int | None]) -> list[float]:
    """siegel_ratio at each of the places, taking the naive height once."""
    if point.is_identity:
        raise IdentityPointError("the identity has no height to share")
    total = naive_height(point)
    # every place is evaluated, and so checked, even when the height is 0
    local = [archimedean_local_height(point) if place is ARCHIMEDEAN
             else local_height_exponent(point, place) * math.log(place) for place in places]
    return [v / total if total else 0.0 for v in local]
