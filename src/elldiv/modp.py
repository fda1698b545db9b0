"""Reduction mod good primes, finite group computations, and orbit counting.

Membership of Q mod p in <P mod p> costs one order computation per prime.
A ± baby-step / giant-step search over the Hasse interval (Shanks; Cohen,
GTM 138, ch. 7) finds some positive multiple M of ord(P), or a supplied
group order serves. Let S be a set of primes containing every prime of
ord(Q) and M_S the S-part of M. Then Q lies in <P> exactly when it lies
in the S-primary part of <P>, the cyclic group generated by
R = (M / M_S) P. Its order is found by stripping only the primes in S,
and the discrete log is solved by BSGS in the subgroup of <R> of order
ord(Q), as in Pohlig-Hellman. This is correct even when E(F_p) itself is
not cyclic. When Q is torsion of order t over Q, the orbit sweep takes S
from t once per call, so it factors nothing per prime, and its search
for M steps by ord(Q mod p), which divides #E(F_p) (Lagrange); otherwise
S is the set of primes of M.

Group orders come from exhaustive counting for p <= 229. Above that
they come from BSGS orders of random points on E and on its quadratic
twist E': since #E + #E' = 2p + 2, the two lcms of sampled orders narrow
the Hasse interval to one value, which Mestre's theorem guarantees for
p > 229.

Every operation is deterministic: the random points used by order-finding
are drawn from a random.Random seeded by the text "p:a1:a2:a3:a4:a6", so
results do not depend on call order, parallel scheduling or the hash seed.
random hashes a str seed with its own SHA-512, so hashlib is never loaded.
"""

import functools
import math
import random
from dataclasses import dataclass
from math import gcd, isqrt, lcm

from .numtheory import _pool_map, factorize, primes_upto
from .rational_ec import Point, WeierstrassCurve, require_infinite_order, torsion_order

MESTRE_BOUND = 229             # group_order enumerates at or below
BSGS_SAMPLE_LIMIT = 8          # random points per curve


class BadReductionError(ValueError):
    """The prime divides the discriminant, so the reduction is not elliptic."""


@dataclass(frozen=True)
class FpCurve:
    p: int
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    discriminant: int

    def identity(self) -> "FpPoint":
        return FpPoint(self)

    def __str__(self):
        return f"E mod {self.p}: ({self.a1},{self.a2},{self.a3},{self.a4},{self.a6})"


@dataclass(frozen=True)
class FpPoint:
    curve: FpCurve
    x: int | None = None
    y: int | None = None

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def on_curve(self) -> bool:
        if self.is_identity:
            return True
        c, p = self.curve, self.curve.p
        x, y = self.x, self.y
        return (y * y + c.a1 * x * y + c.a3 * y - x ** 3 - c.a2 * x * x - c.a4 * x - c.a6) % p == 0

    def _tuple(self):
        return None if self.is_identity else (self.x, self.y)

    def __neg__(self) -> "FpPoint":
        return _wrap(self.curve, _neg(self.curve, self._tuple()))

    def __add__(self, other: "FpPoint") -> "FpPoint":
        if self.curve != other.curve:
            raise ValueError("points reduced at different primes or curves")
        return _wrap(self.curve, _add(self.curve, self._tuple(), other._tuple()))

    def __sub__(self, other: "FpPoint") -> "FpPoint":
        return self + (-other)

    def __mul__(self, k: int) -> "FpPoint":
        if not isinstance(k, int):
            raise TypeError("points scale by integers only")
        return _wrap(self.curve, _mul(self.curve, k, self._tuple()))

    __rmul__ = __mul__

    def __str__(self):
        return "O" if self.is_identity else f"({self.x}, {self.y})"


def _wrap(cp: FpCurve, t) -> FpPoint:
    return FpPoint(cp) if t is None else FpPoint(cp, t[0], t[1])


# -- raw tuple arithmetic (affine pairs, None for the identity) --------------

def _neg(cp, a):
    if a is None:
        return None
    x, y = a
    return (x, (-y - cp.a1 * x - cp.a3) % cp.p)

def _add(cp, a, b):
    if a is None:
        return b
    if b is None:
        return a
    p = cp.p
    a1, a2, a3, a4, a6 = cp.a1, cp.a2, cp.a3, cp.a4, cp.a6
    x1, y1 = a
    x2, y2 = b
    if x1 == x2:
        if (y1 + y2 + a1 * x1 + a3) % p == 0:
            return None
        den = (2 * y1 + a1 * x1 + a3) % p
        inv = pow(den, -1, p)
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * inv % p
        mu = (-(x1 ** 3) + a4 * x1 + 2 * a6 - a3 * y1) * inv % p
    else:
        inv = pow(x2 - x1, -1, p)
        lam = (y2 - y1) * inv % p
        mu = (y1 * x2 - y2 * x1) * inv % p
    x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % p
    y3 = (-(lam + a1) * x3 - mu - a3) % p
    return (x3, y3)

def _mul(cp, k, a):
    """k*a by double-and-add, with the chord and tangent steps inline."""
    if k < 0:
        k, a = -k, _neg(cp, a)
    if a is None:
        return None
    p, a1, a2, a3, a4 = cp.p, cp.a1, cp.a2, cp.a3, cp.a4
    x, y = a
    acc = None
    while True:
        if k & 1:
            if acc is None or acc[0] == x:
                acc = _add(cp, acc, (x, y))
            else:
                lam = (acc[1] - y) * pow(acc[0] - x, -1, p) % p
                x3 = (lam * lam + a1 * lam - a2 - acc[0] - x) % p
                acc = (x3, (-(lam + a1) * x3 - (y - lam * x) - a3) % p)
        k >>= 1
        if not k:
            return acc
        den = (2 * y + a1 * x + a3) % p
        if den == 0:
            return acc              # the doubled point is O and adds nothing
        lam = (3 * x * x + 2 * a2 * x + a4 - a1 * y) * pow(den, -1, p) % p
        x3 = (lam * lam + a1 * lam - a2 - 2 * x) % p
        x, y = x3, (-(lam + a1) * x3 - (y - lam * x) - a3) % p


def reduce_curve(curve: WeierstrassCurve, p: int) -> FpCurve:
    """Residue model at a good prime; raises BadReductionError when p | disc."""
    if curve.discriminant % p == 0:
        raise BadReductionError(f"{p} divides the discriminant {curve.discriminant}")
    return FpCurve(p, curve.a1 % p, curve.a2 % p, curve.a3 % p,
                   curve.a4 % p, curve.a6 % p, curve.discriminant % p)


def _triple(point: Point):
    """A coprime projective triple (X, Y, Z) of the point; O is (0, 1, 0)."""
    if point.is_identity:
        return 0, 1, 0
    x, y = point.x, point.y
    z = lcm(x.denominator, y.denominator)
    big_x = x.numerator * (z // x.denominator)
    big_y = y.numerator * (z // y.denominator)
    g = gcd(gcd(big_x, big_y), z)
    return big_x // g, big_y // g, z // g


def _reduce_triple(big_x, big_y, z, p):
    if z % p == 0:
        return None
    inv = pow(z, -1, p)
    return big_x * inv % p, big_y * inv % p


def reduce_point(point: Point, cp: FpCurve) -> FpPoint:
    """Reduce an exact rational point mod p: O when p divides Z in its coprime
    triple (X : Y : Z), a point of the formal group; else (X/Z, Y/Z) mod p."""
    return _wrap(cp, _reduce_triple(*_triple(point), cp.p))


# -- group order --------------------------------------------------------------

def _sqrt_mod(a: int, p: int) -> int | None:
    """Tonelli-Shanks square root mod an odd prime; None for non-residues."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        t = t * b * b % p
        c = b * b % p
        m = i
    return x


def _b_invariants(cp):
    return cp.a1 * cp.a1 + 4 * cp.a2, 2 * cp.a4 + cp.a1 * cp.a3, cp.a3 * cp.a3 + 4 * cp.a6


def _quartic_rhs(cp, x):
    # completed square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
    b2, b4, b6 = _b_invariants(cp)
    return (4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6) % cp.p


def group_order_by_enumeration(cp: FpCurve) -> int:
    """#E(F_p) by counting solutions x by x; exact and branch-free, O(p)."""
    p = cp.p
    if p == 2:
        return 1 + sum(
            1 for x in (0, 1) for y in (0, 1) if FpPoint(cp, x, y).on_curve()
        )
    squares = {y * y % p for y in range(p // 2 + 1)}
    count = 1
    for x in range(p):
        rhs = _quartic_rhs(cp, x)
        if rhs == 0:
            count += 1
        elif rhs in squares:
            count += 2
    return count


def _seed(cp: FpCurve) -> str:
    # text, never hash(): random turns a str seed into the same state on
    # every run, whatever PYTHONHASHSEED says
    return f"{cp.p}:{cp.a1}:{cp.a2}:{cp.a3}:{cp.a4}:{cp.a6}"


def _random_affine(cp, rng):
    p = cp.p
    inv2 = pow(2, -1, p)
    for _ in range(4 * p):
        x = rng.randrange(p)
        rhs = _quartic_rhs(cp, x)
        u = _sqrt_mod(rhs, p)
        if u is None:
            continue
        if rng.randrange(2):
            u = (-u) % p
        y = (u - cp.a1 * x - cp.a3) * inv2 % p
        return (x, y)
    return None


def _hasse_interval(p: int) -> tuple[int, int]:
    w = isqrt(4 * p)
    return p + 1 - w, p + 1 + w


def _bsgs(cp, b, target, lo, hi) -> int | None:
    """Some m with m*b = target for b != O, or None if no m in [lo, hi] has it.

    ± matching: baby steps j*b, j = 1..s, are keyed by x, so a giant point
    G = c*b - target with x(G) = x(j*b) gives target = (c -+ j)*b as y
    decides. Centres c are the multiples of the stride 2s + 1. An order
    ord(b) <= 2s + 1 shows before the giant steps and is the answer for
    target = O, which always gets a positive m, in [lo, hi] or not.
    """
    p, a1, a2, a3 = cp.p, cp.a1, cp.a2, cp.a3
    s = isqrt(hi - lo) // 2 + 1
    (bx, by), g = b, _add(cp, b, b)
    table, order = {bx: (1, by)}, None if g else 2
    for j in range(2, s + 1 if g else 2):
        hit = table.get(g[0])
        if hit is not None:         # j*b = -i*b: the first repeat is ord(b) = i + j
            order = j + hit[0]
            break
        table[g[0]] = (j, g[1])
        lam = (g[1] - by) * pow(g[0] - bx, -1, p) % p
        x3 = (lam * lam + a1 * lam - a2 - g[0] - bx) % p
        g = (x3, (-(lam + a1) * x3 - (by - lam * bx) - a3) % p)
    if order is None:
        stride = _add(cp, _add(cp, g, g), _neg(cp, b))     # (2s + 1)*b
        order = None if stride else 2 * s + 1
    if order is not None:
        if target is None:
            return order
        hit = table.get(target[0])
        return None if hit is None else hit[0] if hit[1] == target[1] else -hit[0]

    w, (wx, wy) = 2 * s + 1, stride
    c = w * max((lo + s) // w, 1 if target is None else 0)
    g = _add(cp, _mul(cp, c // w, stride), _neg(cp, target))
    while c - s <= hi:
        if g is None:
            return c
        hit = table.get(g[0])
        if hit is not None:
            return c - hit[0] if g[1] == hit[1] else c + hit[0]
        if g[0] == wx:
            g = _add(cp, g, stride)
        else:
            lam = (g[1] - wy) * pow(g[0] - wx, -1, p) % p
            x3 = (lam * lam + a1 * lam - a2 - g[0] - wx) % p
            g = (x3, (-(lam + a1) * x3 - (wy - lam * wx) - a3) % p)
        c += w
    return None


def _annihilator(cp, a, step=1) -> int:
    """A positive multiple of ord(a), not always the smallest.

    step must divide #E(F_p): then #E / step lies in the Hasse interval
    divided by step, where a BSGS finds m with m*(step*a) = O.
    """
    lo, hi = _hasse_interval(cp.p)
    b = _mul(cp, step, a)
    m = 1 if b is None else _bsgs(cp, b, None, -(-lo // step), hi // step)
    if m is None:
        raise RuntimeError("annihilator search failed; group order outside Hasse window?")
    return step * m


def _order_from_multiple(cp, a, multiple: int, primes=None) -> int:
    """ord(a) from a multiple of it whose primes dividing ord(a) are all in primes.

    primes defaults to every prime of the multiple.
    """
    if primes is None:
        primes = factorize(multiple).factors
    order = multiple
    for q in primes:
        while order % q == 0 and _mul(cp, order // q, a) is None:
            order //= q
    return order


def _quadratic_twist(cp: FpCurve) -> FpCurve:
    """The twist D*Y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 by a non-residue D, for odd p.

    As a Weierstrass model with a1 = a3 = 0 its b-invariants are
    (D b2, D^2 b4, D^3 b6), and #E + #E' = 2p + 2.
    """
    p = cp.p
    d = 2
    while pow(d, (p - 1) // 2, p) != p - 1:
        d += 1
    b2, b4, b6 = _b_invariants(cp)
    inv2, inv4 = pow(2, -1, p), pow(4, -1, p)
    return FpCurve(p, 0, b2 * d * inv4 % p, 0, b4 * d * d * inv2 % p,
                   b6 * d ** 3 * inv4 % p, cp.discriminant * d ** 6 % p)


def _hasse_candidate(p: int, order_lcm: int, twist_lcm: int) -> int | None:
    """The one N in the Hasse interval with order_lcm | N and twist_lcm | 2p + 2 - N."""
    lo, hi = _hasse_interval(p)
    first = -(-lo // order_lcm) * order_lcm
    found = [n for n in range(first, hi + 1, order_lcm) if (2 * p + 2 - n) % twist_lcm == 0]
    return found[0] if len(found) == 1 else None


def group_order(cp: FpCurve) -> int:
    """#E(F_p): enumerated for p <= 229, from BSGS point orders above.

    Above the bound, the lcms of sampled point orders on E and on its
    quadratic twist E' divide #E and #E' = 2p + 2 - #E. Sampling
    alternates between the two curves until one value in the Hasse
    interval fits both. For p > 229 Mestre's theorem guarantees that the
    group exponents of E and E' leave only #E.
    """
    p = cp.p
    if p <= MESTRE_BOUND:
        return group_order_by_enumeration(cp)
    curves = (cp, _quadratic_twist(cp))
    lcms = [1, 1]
    rng = random.Random(_seed(cp))
    for _ in range(BSGS_SAMPLE_LIMIT):
        for i, curve in enumerate(curves):
            pt = _random_affine(curve, rng)
            lcms[i] = lcm(lcms[i], _order_from_multiple(curve, pt, _annihilator(curve, pt)))
            order = _hasse_candidate(p, *lcms)
            if order is not None:
                return order
    raise RuntimeError(f"group order mod {p} still ambiguous after "
                       f"{BSGS_SAMPLE_LIMIT} samples on E and its twist")


def point_order(point: FpPoint, group_order_hint: int | None = None) -> int:
    """Exact order: strip primes from the group order (or a supplied multiple)."""
    if point.is_identity:
        return 1
    multiple = group_order_hint if group_order_hint is not None else group_order(point.curve)
    return _order_from_multiple(point.curve, point._tuple(), multiple)


def _discrete_log(cp, a, q, multiple=None, primes=None) -> int | None:
    """k with k*a = q, or None when q is not in <a>.

    multiple is a multiple of ord(a), found by the annihilator search when
    omitted. primes must contain every prime of ord(q); it defaults to the
    primes of multiple, and then 0 <= k < ord(a). Only the primes-primary
    part of <a>, generated by r = (multiple / its primes-part) * a, can
    hold q; the log is solved by BSGS in its subgroup of order ord(q) and
    taken mod ord(q), so k does not depend on the multiple.
    """
    if q is None:
        return 0
    if a is None:
        return None
    if multiple is None:
        multiple = _annihilator(cp, a)
    if primes is None:
        primes = factorize(multiple).factors
    cofactor = multiple
    for ell in primes:
        while cofactor % ell == 0:
            cofactor //= ell
    r = _mul(cp, cofactor, a)
    r_order = _order_from_multiple(cp, r, multiple // cofactor, primes)
    if _mul(cp, r_order, q) is not None:
        return None
    q_order = _order_from_multiple(cp, q, r_order, primes)
    step = r_order // q_order
    j = _bsgs(cp, _mul(cp, step, r), q, 0, q_order - 1)
    return None if j is None else j * step * cofactor % (cofactor * r_order)


def in_cyclic_subgroup(
    q_point: FpPoint,
    p_point: FpPoint,
    group_order_hint: int | None = None,
) -> tuple[bool, int | None]:
    """Whether Q mod p lies in <P mod p>, with a discrete-log witness.

    One annihilator search gives a multiple of ord(P), or the group order
    hint is used; its full factorization gives ord(P). Q is a member
    exactly when ord(Q) divides ord(P) and Q lies in the subgroup of <P>
    of order ord(Q), generated by (ord(P)/ord(Q)) P, where a BSGS of size
    about sqrt(ord Q) finds the log. The witness k satisfies k * P = Q
    with 0 <= k < ord(P).
    """
    if q_point.curve != p_point.curve:
        raise ValueError("points reduced at different primes or curves")
    k = _discrete_log(q_point.curve, p_point._tuple(), q_point._tuple(), group_order_hint)
    return (False, None) if k is None else (True, k)


# -- Lang-Trotter sweep --------------------------------------------------------

@dataclass(frozen=True)
class OrbitSweepResult:
    x: int
    count: int
    ratio: float
    skipped_bad: list[int]
    member_primes: list[int] | None


def sweep_primes(
    p_point: Point,
    q_point: Point,
    primes: list[int],
) -> tuple[int, list[int], list[int]]:
    """Membership test over an explicit prime list.

    Returns (count, member primes, bad primes skipped). Results for each
    prime are independent, so any partition of the list merges by adding
    counts and concatenating lists.
    """
    curve = p_point.curve
    # ord(Q mod p) divides the torsion order t at every good prime, so the
    # primes of t are the only ones membership has to look at
    t = torsion_order(q_point)
    torsion_primes = None if t is None else list(factorize(t).factors)
    p_triple, q_triple = _triple(p_point), _triple(q_point)
    count = 0
    members: list[int] = []
    skipped: list[int] = []
    for p in primes:
        try:
            cp = reduce_curve(curve, p)
        except BadReductionError:
            skipped.append(p)
            continue
        pp, qp = _reduce_triple(*p_triple, p), _reduce_triple(*q_triple, p)
        # ord(Q mod p) divides #E(F_p), so the annihilator steps by it
        step = 1 if t is None else _order_from_multiple(cp, qp, t, torsion_primes)
        multiple = _annihilator(cp, pp, step)
        if _discrete_log(cp, pp, qp, multiple, torsion_primes) is not None:
            count += 1
            members.append(p)
    return count, members, skipped


def lang_trotter_sweep(
    p_point: Point,
    q_point: Point,
    x: int,
    keep_primes: bool = False,
    workers: int = 1,
) -> OrbitSweepResult:
    """Count primes p <= x, p not dividing disc, with Q mod p in <P mod p>.

    With workers > 1 the prime range is split across that many processes;
    per-prime results are independent and merged by commutative counting,
    so the outcome is identical for every partition. workers must be at
    least 1; the library reads no environment setting.
    """
    require_infinite_order(p_point)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    primes = primes_upto(x)

    if workers == 1 or len(primes) < 64:
        count, members, skipped = sweep_primes(p_point, q_point, primes)
    else:
        chunk_count = min(4 * workers, len(primes))
        size = -(-len(primes) // chunk_count)
        chunks = [primes[i : i + size] for i in range(0, len(primes), size)]
        results = _pool_map(functools.partial(sweep_primes, p_point, q_point), chunks, workers)
        # the chunks ascend and keep their order, so the joined lists are sorted
        count = sum(c for c, _, _ in results)
        members = [p for _, m, _ in results for p in m]
        skipped = [p for _, _, s in results for p in s]

    log_x = math.log(x) if x >= 2 else 0.0
    ratio = count / math.sqrt(log_x) if log_x > 0 else 0.0
    return OrbitSweepResult(x, count, ratio, skipped, members if keep_primes else None)
