"""Independent cross-check arithmetic used by the tests.

Group arithmetic here goes through the completed-square model
y'^2 = x^3 + (b2/4) x^2 + (b4/2) x + (b6/4) with y' = y + (a1 x + a3)/2,
a deliberately different formula route from the library's chord-tangent
code on the general and the short model, so agreement is a meaningful dual
check. ``intercept_form_add`` is the textbook step (Silverman, AEC III.2.3)
that forms the line's intercept nu, which the library's steps no longer
compute. Two routes are the exceptions. ``fraction_add``, ``fraction_neg``
and ``fraction_mul`` are the chord-and-tangent law on the general model,
one Fraction at a time: the reference that the library's integer-triple
kernel must match exactly. The mod p membership route at the end is the
smallest-multiple BSGS that the library's ± search replaced, on modp's
general addition, so it never passes through the short model.
"""

import functools
import math
import random
from fractions import Fraction
from math import gcd

from elldiv import heights, modp
from elldiv.numtheory import (
    DEFAULT_FACTOR_BUDGET,
    TRIAL_DIVISION_BOUND,
    Factorization,
    is_prime,
    primes_upto,
)
from elldiv.rational_ec import SingularCurveError, WeierstrassCurve, torsion_order

# (curve, P, Q, bad primes <= 3000). Q has order 3 and 4 on the first two,
# and p = 3 resp. p = 2 divide that order while being good primes. On the
# rank-two curve 389a, Q is a second generator, so Q has infinite order.
ORACLE_CASES = {
    "order3": ((0, 1, 0, -2, 1), (-2, -1), (0, -1), [2, 31]),
    "order4": ((1, -1, 1, 4, 6), (0, -3), (2, -6), [3, 13]),
    "389a": ((0, 1, 1, -2, 0), (-1, 1), (0, 0), [389]),
}

# (curve, P, Q or None for O): the oracle cases and the two shipped fixtures
CURVES = {name: (coeffs, p_xy, q_xy) for name, (coeffs, p_xy, q_xy, _) in ORACLE_CASES.items()}
CURVES["65a"] = ((1, 0, 0, -1, 0), (1, 0), (0, 0))
CURVES["37a"] = ((0, 0, 1, -1, 0), (0, 0), None)


def curve_points(name):
    coeffs, p_xy, q_xy = CURVES[name]
    curve = WeierstrassCurve(*coeffs)
    return curve.point(*p_xy), curve.identity() if q_xy is None else curve.point(*q_xy)


class ShortModelCurve:
    def __init__(self, a1, a2, a3, a4, a6):
        self.a1, self.a3 = a1, a3
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        self.A = Fraction(b2, 4)
        self.B = Fraction(b4, 2)
        self.C = Fraction(b6, 4)

    def _to_short(self, pt):
        if pt is None:
            return None
        x, y = pt
        return (Fraction(x), Fraction(y) + (self.a1 * Fraction(x) + self.a3) / 2)

    def _from_short(self, spt):
        if spt is None:
            return None
        x, yp = spt
        return (x, yp - (self.a1 * x + self.a3) / 2)

    def _short_add(self, s1, s2):
        if s1 is None:
            return s2
        if s2 is None:
            return s1
        x1, y1 = s1
        x2, y2 = s2
        if x1 == x2:
            if y1 + y2 == 0:
                return None
            lam = (3 * x1 * x1 + 2 * self.A * x1 + self.B) / (2 * y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - self.A - x1 - x2
        return (x3, lam * (x1 - x3) - y1)

    def add(self, p1, p2):
        return self._from_short(self._short_add(self._to_short(p1), self._to_short(p2)))

    def neg(self, pt):
        if pt is None:
            return None
        x, yp = self._to_short(pt)
        return self._from_short((x, -yp))

    def mul(self, n, pt):
        if n < 0:
            return self.mul(-n, self.neg(pt))
        acc, add = None, pt
        while n:
            if n & 1:
                acc = self.add(acc, add)
            add = self.add(add, add)
            n >>= 1
        return acc

    def translated_multiples(self, p, q, count):
        """x(nP+Q) for n = 1..count as reduced (numerator, denominator) pairs."""
        out = []
        current = q
        for _ in range(count):
            current = self.add(current, p)
            if current is None:
                raise RuntimeError("hit the identity")
            out.append((current[0].numerator, current[0].denominator))
        return out


def intercept_form_add(coeffs, a, b, p=None):
    """a + b on the general model y = lam x + nu, as AEC III.2.3 writes it out.

    Over Q when p is None (Fraction coordinates), else mod p with reduced
    coordinates. None is the identity. x3 = lam^2 + a1 lam - a2 - x1 - x2
    and y3 = -(lam + a1) x3 - nu - a3, where a tangent has
    nu = (-x^3 + a4 x + 2 a6 - a3 y) / (2y + a1 x + a3) and a chord
    nu = (y1 x2 - y2 x1) / (x2 - x1).
    """
    if a is None or b is None:
        return b if a is None else a
    a1, a2, a3, a4, a6 = coeffs

    def reduced(v):
        return v if p is None else v % p

    def quotient(num, den):
        return Fraction(num) / den if p is None else num * pow(den, -1, p) % p

    (x1, y1), (x2, y2) = a, b
    if x1 == x2:
        if reduced(y1 + y2 + a1 * x1 + a3) == 0:
            return None
        den = 2 * y1 + a1 * x1 + a3
        lam = quotient(3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1, den)
        nu = quotient(-x1 ** 3 + a4 * x1 + 2 * a6 - a3 * y1, den)
    else:
        lam = quotient(y2 - y1, x2 - x1)
        nu = quotient(y1 * x2 - y2 * x1, x2 - x1)
    x3 = reduced(lam * lam + a1 * lam - a2 - x1 - x2)
    return x3, reduced(-(lam + a1) * x3 - nu - a3)


def fraction_neg(coeffs, a):
    """-a on affine (x, y) Fraction pairs; None is O."""
    if a is None:
        return None
    a1, _, a3, _, _ = coeffs
    x, y = a
    return x, -y - a1 * x - a3


def fraction_add(coeffs, a, b):
    """a + b on affine (x, y) Fraction pairs (None is O), one Fraction at a time."""
    if a is None or b is None:
        return b if a is None else a
    a1, a2, a3, a4, _ = coeffs
    (x1, y1), (x2, y2) = a, b
    if x1 == x2:
        if y1 + y2 + a1 * x1 + a3 == 0:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    return x3, lam * (x1 - x3) - y1 - a1 * x3 - a3


def fraction_mul(coeffs, n, a):
    """n a by double-and-add on affine (x, y) Fraction pairs; None is O."""
    if n < 0:
        return fraction_mul(coeffs, -n, fraction_neg(coeffs, a))
    acc = None
    for bit in bin(n)[2:]:
        acc = fraction_add(coeffs, acc, acc)
        if bit == "1":
            acc = fraction_add(coeffs, acc, a)
    return acc


def torsion_scan(curve, pt, bound=16):
    """Order of pt (the identity, None, has order 1) by plain addition up to bound, else None."""
    if pt is None:
        return 1
    acc = pt
    for n in range(2, bound + 1):
        acc = curve.add(acc, pt)
        if acc is None:
            return n
    return None


class DoublingLimitError(RuntimeError):
    def __init__(self, gap, iterations):
        self.gap = gap
        self.iterations = iterations
        super().__init__(f"doubling gap {gap:.3e} after {iterations} doublings")


def doubling_limit(curve, pt, tol=0.0, max_doublings=8):
    """(1/2) 4^-N h(x(2^N P)), the limit definition of the canonical height.

    Doubles until, from N = 2 on, two successive values differ by less than
    tol/2, or until max_doublings; with tol = 0 it returns the value at
    N = max_doublings. Raises DoublingLimitError when the last gap is still
    above a positive tol.
    """
    def half_height(point, n):
        x = point[0]
        return math.log(max(abs(x.numerator), x.denominator)) / (2 * 4 ** n)

    estimate = half_height(pt, 0)
    gap = math.inf
    for n in range(1, max_doublings + 1):
        pt = curve.add(pt, pt)
        nxt = half_height(pt, n)
        gap, estimate = abs(nxt - estimate), nxt
        if n >= 2 and gap < tol / 2:
            return estimate
    if tol > 0 and gap > tol:
        raise DoublingLimitError(gap, max_doublings)
    return estimate


@functools.cache
def series_constants_reference(curve):
    """The height series' constants with the two-power expansion bound it had first.

    Same return shape as heights._series_constants: the per-chart (z, w)
    polynomials, lipschitz = sup|D'| / low, expansion =
    (sup|w'| sup|D| + sup|w| sup|D'|) / low^2 (at least 2), the quotient
    rule with |D| >= low, and the bound L on |l|, all on |t| <= 9/4 with
    low a quarter of the Bezout floor of max(|z|, |w|). The charts, low and
    L are built the same way, so a series run on these constants takes the
    same N and differs only in its working precision.
    """
    bound = Fraction(9, 4)

    def sup(poly):
        return sum(abs(c) * bound ** i for i, c in enumerate(poly))

    def derivative(poly):
        return [i * c for i, c in enumerate(poly)][1:]

    def degree(poly):
        return max((i for i, c in enumerate(poly) if c), default=-1)

    def bezout_floor(f, g):
        # rows r = s f + u g; cancel the top term of the row of higher degree
        rows = [(list(f), [1], [0]), (list(g), [0], [1])]
        while True:
            rows.sort(key=lambda row: degree(row[0]))
            low_row, high_row = rows
            dl, dh = degree(low_row[0]), degree(high_row[0])
            if dl == 0:
                return abs(Fraction(low_row[0][0])) / (sup(low_row[1]) + sup(low_row[2]))
            c, shift = Fraction(high_row[0][dh], low_row[0][dl]), dh - dl
            new_row = []
            for h, l in zip(high_row, low_row):
                out = list(h) + [0] * (len(l) + shift - len(h))
                for i, li in enumerate(l):
                    out[i + shift] -= c * li
                new_row.append(out)
            rows[1] = tuple(new_row)

    def log(q):
        return math.log(q.numerator) - math.log(q.denominator)

    b2, b4, b6, b8 = curve.b2, curve.b4, curve.b6, curve.b8
    shifted = (b2 - 12, b4 - b2 + 6, b6 - 2 * b4 + b2 - 4, b8 - 3 * b6 + 3 * b4 - b2 + 3)
    charts = []
    lipschitz, expansion, ell_max = Fraction(1), Fraction(2), 0.0
    for sign, (c2, c4, c6, c8) in ((1, (b2, b4, b6, b8)), (-1, shifted)):
        z, w = [1, 0, -c4, -2 * c6, -c8], [0, 4, c2, 2 * c4, c6]
        charts.append((tuple(z), tuple(w)))
        low = bezout_floor(z, w) / 4
        sup_w, sup_dw = sup(w), sup(derivative(w))
        for d in (z, [zi + sign * wi for zi, wi in zip(z, w)]):
            sup_d, sup_dd = sup(d), sup(derivative(d))
            lipschitz = max(lipschitz, sup_dd / low)
            expansion = max(expansion, (sup_dw * sup_d + sup_w * sup_dd) / low ** 2)
            ell_max = max(ell_max, log(sup_d), -log(low))
    return tuple(charts), lipschitz, expansion, ell_max


def exact_archimedean_series(point):
    """heights._archimedean_series with every polynomial value exact.

    The same constants (heights._series_constants), term count N and step
    bits, and bits_0 = 66 + N step_bits + log2(lipschitz) with no guard:
    z and w are summed exactly at scale 2^(4 bits) from the exact powers of
    T. The only rounding before the floats is the floor division for the
    next T, so the proof in heights._archimedean_series holds here with
    C = 1 and bounds this orbit's drift on the sum by 2^-70.
    """
    charts, lipschitz, expansion, ell_max = heights._series_constants(point.curve)
    u, den = point.triple[0], point.triple[2] ** 2
    chart = 0 if 2 * abs(u) >= den else 1
    a = u + chart * den
    terms = max(1, math.ceil((54 * math.log(2) + math.log(ell_max / 3)) / math.log(4)))
    step_bits = heights._log2_ceil(expansion)
    bits = 66 + terms * step_bits + heights._log2_ceil(lipschitz)
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
    log_a = heights.log_int(abs(a))
    tail = ell_max / (3 * 4 ** terms)
    rounding = 2.0 ** -48 * (log_a + (terms + 1) * magnitude) + 2.0 ** -60
    return log_a + total / 4, tail + rounding, terms


def seeded_curves(count, seed):
    """(curve, points) for count small curves that have a point of infinite order.

    Coefficients are drawn from [-3, 3] by stdlib random with this seed, and
    singular draws are skipped. points holds the integral points with
    |x| <= 12 and |y| <= 60, then the other points with x = a/4, y = b/8
    and |x|, |y| <= 10.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        coeffs = [rng.randint(-3, 3) for _ in range(5)]
        try:
            curve = WeierstrassCurve(*coeffs)
        except SingularCurveError:
            continue
        a1, a2, a3, a4, a6 = coeffs
        points = []
        for x, y_max in [(Fraction(x), 60) for x in range(-12, 13)] + \
                [(Fraction(a, 4), 10) for a in range(-40, 41) if a % 4]:
            # y^2 + s y = r, so (2y + s)^2 = s^2 + 4r
            s, r = a1 * x + a3, x ** 3 + a2 * x ** 2 + a4 * x + a6
            disc = s * s + 4 * r
            if disc < 0:
                continue
            root = Fraction(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
            if root * root != disc:
                continue
            for y in sorted({(root - s) / 2, (-root - s) / 2}):
                if abs(y) <= y_max:
                    points.append(curve.point(x, y))
        if any(torsion_order(point) is None for point in points):
            out.append((curve, points))
    return out


def trial_division_primes(n):
    """The distinct primes of n >= 1, by plain trial division (small n only)."""
    primes = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.add(n)
    return primes


def strip_history(value, history):
    """Reference primitive part: plain loop, no shortcuts."""
    for earlier in history:
        g = gcd(value, earlier)
        while g > 1:
            value //= g
            g = gcd(value, g)
    return value


def coprime_triple_reference(point):
    """A coprime projective triple (X, Y, Z) of the point by lcm and gcd; O is (0, 1, 0)."""
    if point.is_identity:
        return 0, 1, 0
    x, y = point.x, point.y
    z = math.lcm(x.denominator, y.denominator)
    big_x = x.numerator * (z // x.denominator)
    big_y = y.numerator * (z // y.denominator)
    g = gcd(gcd(big_x, big_y), z)
    return big_x // g, big_y // g, z // g


@functools.cache
def _trial_primes():
    return primes_upto(TRIAL_DIVISION_BOUND)


def _int_root(n, k):
    """floor(n ** (1/k)) by bisection."""
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def _perfect_power_by_every_exponent(n):
    e = 2
    while (1 << e) <= n:
        root = _int_root(n, e)
        if root ** e == n:
            inner, inner_e = _perfect_power_by_every_exponent(root)
            return inner, e * inner_e
        e += 1
    return n, 1


def brent_rho_reference(n, budget, cut_last_cycle=True):
    """Brent rho with |x - y| in the product: (factor or None, spent, overran).

    With ``cut_last_cycle`` each cycle counts at most what the budget has
    left, the library's rule. Without it this is the route the library's
    rho replaced: a cycle starts whenever ``spent < budget``, advances its
    full r steps and counts 128-step chunks until the budget is reached, so
    ``spent`` can end past the budget. ``overran`` says that some cycle
    started with r above what the budget had left; uncut runs that never
    overran must agree with the library exactly.
    """
    spent = 0
    attempt = 0
    overran = False
    while spent < budget:
        attempt += 1
        c = attempt
        y = 2 + attempt
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and spent < budget:
            overran = overran or r > budget - spent
            if cut_last_cycle:
                r = min(r, budget - spent)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and spent < budget:
                ys = y
                steps = min(m, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                spent += steps
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g, spent, overran
    return None, spent, overran


PM1_REFERENCE_B1 = 10 ** 4
PM1_REFERENCE_BLOCK = 1024


@functools.cache
def _pm1_reference_exponent():
    return math.lcm(*range(1, PM1_REFERENCE_B1 + 1))


@functools.cache
def _pm1_reference_stage2_primes():
    return [q for q in _trial_primes() if q > PM1_REFERENCE_B1]


def pm1_reference_cost():
    """The work of a p-1 call that finds nothing: exponent bits plus stage-2 primes."""
    return _pm1_reference_exponent().bit_length() + len(_pm1_reference_stage2_primes())


def pm1_reference(n):
    """Pollard p-1 with x^q computed by pow for each stage-2 prime: (factor or None, spent).

    Stage 1 is x = 2^lcm(1..10^4) mod n; stage 2 multiplies x^q - 1 for
    every prime q in (10^4, 10^6] into one product and takes its gcd with n
    after every PM1_REFERENCE_BLOCK primes and after the last. The first
    gcd above 1 ends the search, and a gcd equal to n gives None. ``spent``
    is one unit per exponent bit and one per prime scanned.
    """
    exponent = _pm1_reference_exponent()
    spent = exponent.bit_length()
    x = pow(2, exponent, n)
    g = gcd(x - 1, n)
    if g > 1:
        return (g if g < n else None), spent
    stage2 = _pm1_reference_stage2_primes()
    acc = 1
    for start in range(0, len(stage2), PM1_REFERENCE_BLOCK):
        block = stage2[start : start + PM1_REFERENCE_BLOCK]
        for q in block:
            acc = acc * (pow(x, q, n) - 1) % n
        spent += len(block)
        g = gcd(acc, n)
        if g > 1:
            return (g if g < n else None), spent
    return None, spent


def factorize_by_prime_loop(n, factor_budget=DEFAULT_FACTOR_BUDGET):
    """Reference factorization by the route batch trial division replaced.

    One n % p per prime below the trial bound, with a primality exit after
    each prime found; then, while at least four times the full p-1 cost is
    left of the budget, p-1 by ``pm1_reference``, and with the rest the same
    budgeted Brent rho (last cycle cut to the budget, with |x - y| in the
    product); and a perfect-power test over every exponent, not just
    primes. The library's factorize must return the same factors in the
    same order and the same unfactored cofactor. Primality and the sieve
    come from the library; both are tested on their own.
    """
    result = Factorization()
    if n == 1:
        return result
    if is_prime(n):
        result.factors[n] = 1
        return result
    for p in _trial_primes():
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            result.factors[p] = e
            if n == 1:
                return result
            if is_prime(n):
                result.factors[n] = 1
                return result
    pending = [(n, 1)]
    budget = factor_budget
    while pending:
        m, mult = pending.pop()
        if m == 1:
            continue
        if is_prime(m):
            result.factors[m] = result.factors.get(m, 0) + mult
            continue
        root, e = _perfect_power_by_every_exponent(m)
        if e > 1:
            pending.append((root, mult * e))
            continue
        d = None
        if budget >= 4 * pm1_reference_cost():
            d, spent = pm1_reference(m)
            budget -= spent
        if d is None and budget > 0:
            d, spent, _ = brent_rho_reference(m, budget)
            budget -= spent
        if d is None:
            result.unfactored_cofactor *= m ** mult
        else:
            pending.append((d, mult))
            pending.append((m // d, mult))
    return result


# -- membership mod p by the smallest-multiple BSGS route ----------------------
#
# The library's annihilator returns some positive multiple of ord(a) from a
# ± search on the short model, stepped by ord(Q mod p). This route finds the
# smallest m in the Hasse interval with m*a = O by a plain baby-step /
# giant-step search keyed by whole points of the general model, and strips
# primes found by trial division. Its scalar multiples go through modp._add.

def sqrt_mod(a, p):
    """Tonelli-Shanks square root mod an odd prime; None for non-residues."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, x, t, m = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p), s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x, t, c, m = x * b % p, t * b * b % p, b * b % p, i
    return x


def random_point(cp, rng):
    """A random affine point of E mod an odd p, or None after 4p tries.

    x is drawn first, then a root u of the completed square
    u^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 with u = 2y + a1 x + a3.
    """
    p = cp.p
    b2, b4, b6 = cp.a1 * cp.a1 + 4 * cp.a2, 2 * cp.a4 + cp.a1 * cp.a3, cp.a3 * cp.a3 + 4 * cp.a6
    for _ in range(4 * p):
        x = rng.randrange(p)
        u = sqrt_mod(4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6, p)
        if u is None:
            continue
        if rng.randrange(2):
            u = (-u) % p
        return x, (u - cp.a1 * x - cp.a3) * pow(2, -1, p) % p
    return None


def fp_mul(cp, k, a):
    """k*a by double-and-add over modp._add."""
    if k < 0:
        k, a = -k, modp._neg(cp, a)
    acc = None
    while k:
        if k & 1:
            acc = modp._add(cp, acc, a)
        k >>= 1
        if k:
            a = modp._add(cp, a, a)
    return acc


def bsgs_smallest(cp, a, target, lo, width):
    """The smallest m >= lo with m*a = target, or None if none is below lo + width.

    Baby steps j*a for j < s = isqrt(width) + 1 go into one table (the
    first j per point); giant steps walk target - (lo + i*s)*a. Solutions
    a little past lo + width may also be returned.
    """
    s = math.isqrt(width) + 1
    table = {}
    cur = None
    for j in range(s):
        table.setdefault(cur, j)
        cur = modp._add(cp, cur, a)
    giant = modp._neg(cp, cur)
    t = modp._add(cp, target, fp_mul(cp, -lo, a))
    for i in range(width // s + 2):
        j = table.get(t)
        if j is not None:
            return lo + i * s + j
        t = modp._add(cp, t, giant)
    return None


def annihilator_smallest(cp, a):
    """The smallest m in the Hasse interval with m*a = O."""
    w = math.isqrt(4 * cp.p)
    m = bsgs_smallest(cp, a, None, cp.p + 1 - w, 2 * w + 1)
    if m is None:
        raise RuntimeError("annihilator search failed")
    return m


def order_from_multiple_reference(cp, a, multiple, primes=None):
    """ord(a) by stripping primes (default: every prime of multiple)."""
    order = multiple
    for q in trial_division_primes(multiple) if primes is None else primes:
        while order % q == 0 and fp_mul(cp, order // q, a) is None:
            order //= q
    return order


def discrete_log_reference(cp, a, q, primes=None):
    """k with k*a = q (0 <= k < ord(a) when primes is omitted), or None.

    The Pohlig-Hellman route in the primes-primary part of <a>, from the
    smallest-multiple annihilator.
    """
    if q is None:
        return 0
    if a is None:
        return None
    multiple = annihilator_smallest(cp, a)
    if primes is None:
        primes = trial_division_primes(multiple)
    cofactor = multiple
    for ell in primes:
        while cofactor % ell == 0:
            cofactor //= ell
    r = fp_mul(cp, cofactor, a)
    r_order = order_from_multiple_reference(cp, r, multiple // cofactor, primes)
    if fp_mul(cp, r_order, q) is not None:
        return None
    q_order = order_from_multiple_reference(cp, q, r_order, primes)
    step = r_order // q_order
    j = bsgs_smallest(cp, fp_mul(cp, step, r), q, 0, q_order)
    return None if j is None else j * step * cofactor % (cofactor * r_order)


def sweep_primes_reference(p_point, q_point, primes):
    """modp.sweep_primes by the smallest-multiple route, point by point."""
    t = torsion_order(q_point)
    torsion_primes = None if t is None else trial_division_primes(t)
    members, skipped = [], []
    for p in primes:
        try:
            cp = modp.reduce_curve(p_point.curve, p)
        except modp.BadReductionError:
            skipped.append(p)
            continue
        a = modp.reduce_point(p_point, cp)._tuple()
        q = modp.reduce_point(q_point, cp)._tuple()
        if discrete_log_reference(cp, a, q, primes=torsion_primes) is not None:
            members.append(p)
    return len(members), members, skipped
