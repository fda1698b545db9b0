"""Reduction mod good primes, finite group computations, and orbit counting.

At a good p >= 5 the group computations run on the short model
y^2 = x^3 + Ax + B with A = -27 c4 and B = -54 c6, reached by the
isomorphism (x, y) -> (36x + 3 b2, 108 (2y + a1 x + a3)) (Silverman, AEC
III.1), so orders, membership and discrete-log witnesses are unchanged. At
p = 2 and 3 there is no short model and #E(F_p) <= 7, so orders and logs
come from walking the multiples of P on the general model, which also
serves FpPoint arithmetic.

At p >= 5 every point order and discrete log takes its multiple M of
ord(P) from one place, a ± baby-step / giant-step search over the Hasse
interval (Shanks; Cohen, GTM 138, ch. 7), and stripping the primes of M
gives ord(P). Q mod p lies in <P mod p> exactly when ord(P) Q = O and Q
lies in the subgroup of <P> of order ord(Q), found from the same primes,
where a BSGS solves the log, as in Pohlig-Hellman. This is correct even
when E(F_p) itself is not cyclic.

The orbit sweep alone takes another route when Q is torsion of order t
over Q. Torsion injects into E(F_p) at good p >= 5 (AEC VII.3.1(b),
IV.6.1), so ord(Q mod p) = t, and the sweep factors nothing per prime: its
search for M steps by t, which divides #E(F_p) (Lagrange). With S the
primes of t and M_S the S-part of M, Q lies in <P> exactly when it lies in
the S-primary part of <P>, generated by R = (M / M_S) P, and membership is
a walk over the at most 12 multiples (Mazur) of the order-t subgroup of
<R>. A Q of infinite order takes the route above, and t = 2 the one below.

For t = 2 membership is a fact about the 2-Sylow subgroup of E(F_p), read
from quadratic characters (_order_two_member). With Q = (e, 0) on the
short model and f = (x - e) g, the characters of x - e_i over the roots
e_i of f in F_p give the class of a point in E(F_p)/2E(F_p), the complete
2-descent or reduced Tate pairing (AEC X.1; Miret, Moreno, Rio and Valls,
Math. Comp. 74, 2005). The classes of the points of order 2 tell which of
them are doubles, and so decide most primes from the class of P alone.
At the rest they prove that 4, 8 or 16 divides #E(F_p): Z/4 lies in
E(F_p) when the 2-Sylow is cyclic and Q is a double, Z/4 x Z/2 when one
point of order 2 is a double, and Z/4 x Z/4 when all three are. There the
search for M steps by that power of 2, and Q is in <P> exactly when
doubling the 2-part uP, u the odd part of M, ends at Q.

Group orders come from exhaustive counting for p <= 229. Above that
they come from BSGS orders of random points on E and on its quadratic
twist E': since #E + #E' = 2p + 2, the two lcms of sampled orders narrow
the Hasse interval to one value, which Mestre's theorem guarantees for
p > 229. Sampling takes no square roots (see group_order).

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
BSGS_SAMPLE_LIMIT = 8          # random points per curve, on average


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
# general model: FpPoint arithmetic, and every group computation at p <= 3

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
    """k*a by double-and-add over _add."""
    if k < 0:
        k, a = -k, _neg(cp, a)
    acc = None
    for bit in bin(k)[2:]:
        acc = _add(cp, _add(cp, acc, acc), a if bit == "1" else None)
    return acc


def _multiples(cp, a):
    """[O, a, 2a, ...] up to (ord(a) - 1)*a; for p <= 3, where #E(F_p) <= 7."""
    walk = [None]
    while (nxt := _add(cp, walk[-1], a)) is not None:
        walk.append(nxt)
    return walk


# -- the short model y^2 = x^3 + A x + B, for good p >= 5 ---------------------

def _short_model(c):
    """(A, B) = (-27 c4, -54 c6) of c's coefficients, not reduced mod p."""
    b2, b4, b6 = _b_invariants(c)
    return -27 * (b2 * b2 - 24 * b4), -54 * (36 * b2 * b4 - b2 ** 3 - 216 * b6)


def _short_triple(c, big_x, big_y, z):
    """(X : Y : Z) under (x, y) -> (36x + 3 b2, 108 (2y + a1 x + a3)), onto the short model."""
    return (36 * big_x + 3 * (c.a1 * c.a1 + 4 * c.a2) * z,
            108 * (2 * big_y + c.a1 * big_x + c.a3 * z), z)


def _to_short(cp, *points):
    """p, A mod p and the short-model images of general-model points, p >= 5."""
    p = cp.p
    return (p, _short_model(cp)[0] % p,
            *(None if a is None else _reduce_triple(*_short_triple(cp, *a, 1), p) for a in points))


def _short_add(p, A, a, b):
    if a is None or b is None:
        return b if a is None else a
    (x1, y1), (x2, y2) = a, b
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _short_mul(p, A, k, a):
    """k*a for k >= 0 by double-and-add, with the chord and tangent steps inline."""
    if a is None:
        return None
    x, y = a
    acc = None
    while True:
        if k & 1:
            if acc is None or acc[0] == x:
                acc = _short_add(p, A, acc, (x, y))
            else:
                lam = (acc[1] - y) * pow(acc[0] - x, -1, p) % p
                x3 = (lam * lam - acc[0] - x) % p
                acc = (x3, (lam * (x - x3) - y) % p)
        k >>= 1
        if not k or y == 0:         # done, or the doubled point is O and adds nothing
            return acc
        lam = (3 * x * x + A) * pow(2 * y, -1, p) % p
        x3 = (lam * lam - 2 * x) % p
        x, y = x3, (lam * (x - x3) - y) % p


def _sqrt_mod(a, p):
    """A square root of a nonzero quadratic residue a mod an odd prime p (Tonelli-Shanks)."""
    s = ((p - 1) & (1 - p)).bit_length() - 1        # p - 1 = q 2^s with q odd
    q = (p - 1) >> s
    x, t = pow(a, (q + 1) // 2, p), pow(a, q, p)    # x^2 = a t, t of order 2^i, i < s
    if t == 1:
        return x
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c = pow(z, q, p)                                # of order 2^s
    while t != 1:
        i, u = 0, t
        while u != 1:
            u, i = u * u % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        x, c, t, s = x * b % p, b * b % p, t * b * b % p, i
    return x


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

def _b_invariants(cp):
    return cp.a1 * cp.a1 + 4 * cp.a2, 2 * cp.a4 + cp.a1 * cp.a3, cp.a3 * cp.a3 + 4 * cp.a6


def group_order_by_enumeration(cp: FpCurve) -> int:
    """#E(F_p) by counting solutions x by x; exact and branch-free, O(p)."""
    p = cp.p
    if p == 2:
        return 1 + sum(
            1 for x in (0, 1) for y in (0, 1) if FpPoint(cp, x, y).on_curve()
        )
    squares = {y * y % p for y in range(p // 2 + 1)}
    b2, b4, b6 = _b_invariants(cp)
    count = 1
    for x in range(p):
        # completed square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
        rhs = (4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6) % p
        if rhs == 0:
            count += 1
        elif rhs in squares:
            count += 2
    return count


def _seed(cp: FpCurve) -> str:
    # text, never hash(): random turns a str seed into the same state on
    # every run, whatever PYTHONHASHSEED says
    return f"{cp.p}:{cp.a1}:{cp.a2}:{cp.a3}:{cp.a4}:{cp.a6}"


def _hasse_interval(p: int) -> tuple[int, int]:
    w = isqrt(4 * p)
    return p + 1 - w, p + 1 + w


def _bsgs(p, A, b, target, lo, hi) -> int | None:
    """Some m with m*b = target for b != O, or None if no m in [lo, hi] has it.

    ± matching: baby steps j*b, j = 1..s, are keyed by x, so a giant point
    G = c*b - target with x(G) = x(j*b) gives target = (c -+ j)*b as y
    decides. Centres c are the multiples of the stride 2s + 1. An order
    ord(b) <= 2s + 1 shows before the giant steps and is the answer for
    target = O, which always gets a positive m, in [lo, hi] or not.
    """
    s = isqrt(hi - lo) // 2 + 1
    (bx, by), g = b, _short_add(p, A, b, b)
    table, order = {bx: (1, by)}, None if g else 2
    for j in range(2, s + 1 if g else 2):
        hit = table.get(g[0])
        if hit is not None:         # j*b = -i*b: the first repeat is ord(b) = i + j
            order = j + hit[0]
            break
        table[g[0]] = (j, g[1])
        lam = (g[1] - by) * pow(g[0] - bx, -1, p) % p
        x3 = (lam * lam - g[0] - bx) % p
        g = (x3, (lam * (bx - x3) - by) % p)
    if order is None:
        stride = _short_add(p, A, _short_add(p, A, g, g), (bx, -by % p))     # (2s + 1)*b
        order = None if stride else 2 * s + 1
    if order is not None:
        if target is None:
            return order
        hit = table.get(target[0])
        return None if hit is None else hit[0] if hit[1] == target[1] else -hit[0]

    w, (wx, wy) = 2 * s + 1, stride
    c = w * max((lo + s) // w, 1 if target is None else 0)
    g = _short_mul(p, A, c // w, stride)
    if target is not None:
        g = _short_add(p, A, g, (target[0], -target[1] % p))
    while c - s <= hi:
        if g is None:
            return c
        hit = table.get(g[0])
        if hit is not None:
            return c - hit[0] if g[1] == hit[1] else c + hit[0]
        if g[0] == wx:
            g = _short_add(p, A, g, stride)
        else:
            lam = (g[1] - wy) * pow(g[0] - wx, -1, p) % p
            x3 = (lam * lam - g[0] - wx) % p
            g = (x3, (lam * (wx - x3) - wy) % p)
        c += w
    return None


def _annihilator(p, A, a, step=1) -> int:
    """A positive multiple of ord(a), not always the smallest.

    step must divide #E(F_p): then #E / step lies in the Hasse interval
    divided by step, where a BSGS finds m with m*(step*a) = O.
    """
    lo, hi = _hasse_interval(p)
    b = _short_mul(p, A, step, a)
    m = 1 if b is None else _bsgs(p, A, b, None, -(-lo // step), hi // step)
    if m is None:
        raise RuntimeError("annihilator search failed; group order outside Hasse window?")
    return step * m


def _order_from_multiple(p, A, a, multiple=None, primes=None) -> int:
    """ord(a) from a multiple of it whose primes dividing ord(a) are all in primes.

    multiple defaults to the annihilator's, primes to every prime of the multiple.
    """
    if multiple is None:
        multiple = _annihilator(p, A, a)
    if primes is None:
        primes = factorize(multiple).factors
    order = multiple
    for q in primes:
        while order % q == 0 and _short_mul(p, A, order // q, a) is None:
            order //= q
    return order


def _hasse_candidate(p: int, order_lcm: int, twist_lcm: int) -> int | None:
    """The one N in the Hasse interval with order_lcm | N and twist_lcm | 2p + 2 - N."""
    lo, hi = _hasse_interval(p)
    first = -(-lo // order_lcm) * order_lcm
    found = [n for n in range(first, hi + 1, order_lcm) if (2 * p + 2 - n) % twist_lcm == 0]
    return found[0] if len(found) == 1 else None


def group_order(cp: FpCurve) -> int:
    """#E(F_p): enumerated for p <= 229, from BSGS point orders above.

    Above the bound, each random x with f = x^3 + Ax + B != 0 on the short
    model gives the point (xf, f^2) of y^2 = x^3 + A f^2 x + B f^3. That
    curve is E when f is a square and its quadratic twist E' when not, so
    no square root is taken. The lcms of the point orders on E and on E'
    divide #E and #E' = 2p + 2 - #E, and sampling stops when one value in
    the Hasse interval fits both. For p > 229 Mestre's theorem guarantees
    that the group exponents of E and E' leave only #E.
    """
    p = cp.p
    if p <= MESTRE_BOUND:
        return group_order_by_enumeration(cp)
    A, B = (v % p for v in _short_model(cp))
    lcms = [1, 1]
    rng = random.Random(_seed(cp))
    for _ in range(2 * BSGS_SAMPLE_LIMIT):
        x = rng.randrange(p)
        f = (x ** 3 + A * x + B) % p
        if f:
            a, pt = A * f * f % p, (x * f % p, f * f % p)
            twist = pow(f, (p - 1) // 2, p) != 1
            lcms[twist] = lcm(lcms[twist], _order_from_multiple(p, a, pt))
            order = _hasse_candidate(p, *lcms)
            if order is not None:
                return order
    raise RuntimeError(f"group order mod {p} still ambiguous after "
                       f"{2 * BSGS_SAMPLE_LIMIT} random points on E and its twist")


def point_order(point: FpPoint) -> int:
    """Exact order: strip the primes of the annihilator's multiple of it.

    At p <= 3 the order comes from walking the multiples of the point.
    """
    cp = point.curve
    if point.is_identity:
        return 1
    if cp.p <= 3:
        return len(_multiples(cp, point._tuple()))
    return _order_from_multiple(*_to_short(cp, point._tuple()))


def _order_two_member(p, A, a, e):
    """Whether Q = (e, 0) lies in <a> on y^2 = x^3 + Ax + B mod a good p >= 5.

    f = (x - e) g with g = x^2 + e x + e^2 + A, and chi is the Legendre
    symbol. R is in 2E(F_p) exactly when x(R) - e_i is a square for every
    root e_i of f in F_p; at R = (e_i, 0) the product of e_i minus the other
    roots stands in for x(R) - e_i, which is g(e) at R = Q. Q is in <a>
    exactly when it is the point of order 2 in the cyclic 2-part of <a>.
    - chi(disc g) = -1: E(F_p)[2] = {O, Q}, so the 2-Sylow is cyclic. a
      outside 2E makes its 2-part a generator, so Q is in <a>; a in 2E and
      Q outside 2E make the 2-Sylow {O, Q} and ord(a) odd, so Q is not.
      With Q in 2E, Z/4 lies in E(F_p) and the walk steps by 4.
    - chi(disc g) = 1: with T = (e2, 0), delta(R) = (chi(x(R) - e),
      chi(x(R) - e2)) maps E/2E onto {1, -1}^2, and the points of order 2
      of class (1, 1) are the doubles D; D and O form a subgroup of E[2],
      so |D| is 0, 1 or 3.
      |D| = 0: the 2-Sylow is E[2], so the 2-part of a is Q exactly when
      delta(a) = delta(Q).
      |D| = 1: the 2-Sylow is Z/2^k x Z/2 with k >= 2, whose double of
      order 2 lies on the Z/2^k factor, and 8 divides #E(F_p). If it is Q,
      a class other than (1, 1) and the other points' makes the 2-part of a
      of order 2^k on that factor, so Q is in <a>. If not, Q is no double,
      so it can only be the 2-part of a itself, of class delta(Q).
      |D| = 3: E[2] lies in 2E, so Z/4 x Z/4 lies in E(F_p): step 16.
    Every other prime walks: the odd part u of a multiple of ord(a) from
    the annihilator, stepped by the proven power of 2, gives the 2-part u*a,
    which doubles down to the point of order 2 of <a>, if any, in at most
    v_2 of the multiple steps.
    """
    if a is None:
        return False
    x = a[0]
    if x == e:                                  # a = Q
        return True
    h = (p - 1) // 2                            # chi(v) = v^h, as 1 or p - 1
    disc, ge = (-3 * e * e - 4 * A) % p, pow(3 * e * e + A, h, p)
    if pow(disc, h, p) != 1:
        if pow(x - e, h, p) != 1:
            return True
        if ge != 1:
            return False
        step = 4
    else:
        r = _sqrt_mod(disc, p)
        e2 = (r - e) * (h + 1) % p              # h + 1 = 1/2 mod p; the third root is e2 - r
        if x == e2 or x == (e2 - r) % p:        # a has order 2 and is not Q
            return False
        dq, dt = (ge, pow(e - e2, h, p)), (pow(e2 - e, h, p), pow((e2 - e) * r, h, p))
        da, d3 = (pow(x - e, h, p), pow(x - e2, h, p)), (dq[0] * dt[0] % p, dq[1] * dt[1] % p)
        doubles = (dq, dt, d3).count((1, 1))
        if doubles == 0:
            return da == dq
        if doubles == 1 and dq == (1, 1) and da not in (dq, dt):    # dt = d3 here
            return True
        if doubles == 1 and dq != (1, 1) and da != dq:
            return False
        step = 8 if doubles == 1 else 16
    m = _annihilator(p, A, a, step)
    v = (m & -m).bit_length() - 1
    b = _short_mul(p, A, m >> v, a)             # the 2-part of a
    while b is not None and b[1]:               # double down to order 2
        b = _short_add(p, A, b, b)
    return b is not None and b[0] == e


def _primary_part(p, A, a, multiple, primes):
    """(r, ord(r)): r = c*a generates the primes-primary part of <a>.

    c is multiple with the primes stripped, and multiple is one of ord(a).
    """
    cofactor = multiple
    for ell in primes:
        while cofactor % ell == 0:
            cofactor //= ell
    r = _short_mul(p, A, cofactor, a)
    return r, _order_from_multiple(p, A, r, multiple // cofactor, primes)


def _discrete_log(p, A, a, q) -> int | None:
    """k with k*a = q and 0 <= k < ord(a), or None when q is not in <a>.

    ord(a) comes from the annihilator's multiple, factored once; q is in
    <a> only if ord(a)*q = O, and then ord(q), from the same primes, gives
    the subgroup of <a> of that order, where BSGS solves the log.
    """
    if q is None:
        return 0
    if a is None:
        return None
    multiple = _annihilator(p, A, a)
    primes = factorize(multiple).factors
    order = _order_from_multiple(p, A, a, multiple, primes)
    if _short_mul(p, A, order, q) is not None:
        return None
    q_order = _order_from_multiple(p, A, q, order, primes)
    step = order // q_order
    j = _bsgs(p, A, _short_mul(p, A, step, a), q, 0, q_order - 1)
    return None if j is None else j * step % order


def in_cyclic_subgroup(q_point: FpPoint, p_point: FpPoint) -> tuple[bool, int | None]:
    """Whether Q mod p lies in <P mod p>, with a discrete-log witness.

    One annihilator search gives a multiple of ord(P), and its full
    factorization gives ord(P). Q is a member exactly when ord(Q) divides
    ord(P) and Q lies in the subgroup of <P> of order ord(Q), generated by
    (ord(P)/ord(Q)) P, where a BSGS of size about sqrt(ord Q) finds the
    log; at p <= 3 the multiples of P are walked. The witness k satisfies
    k * P = Q with 0 <= k < ord(P).
    """
    if q_point.curve != p_point.curve:
        raise ValueError("points reduced at different primes or curves")
    cp, a, q = p_point.curve, p_point._tuple(), q_point._tuple()
    if cp.p <= 3:
        walk = _multiples(cp, a)
        k = walk.index(q) if q in walk else None
    else:
        k = _discrete_log(*_to_short(cp, a, q))
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
    # at good p >= 5 torsion injects into E(F_p) (AEC VII.3.1(b), IV.6.1), so
    # ord(Q mod p) = t and the primes of t are the only ones membership needs
    t = torsion_order(q_point)
    torsion_primes = None if t is None else list(factorize(t).factors)
    big_a = _short_model(curve)[0]
    p_triple, q_triple = _triple(p_point), _triple(q_point)
    p_short, q_short = _short_triple(curve, *p_triple), _short_triple(curve, *q_triple)
    members: list[int] = []
    skipped: list[int] = []
    for p in primes:
        if curve.discriminant % p == 0:
            skipped.append(p)
            continue
        A = big_a % p       # the short model is used only for p >= 5
        pp, qp = _reduce_triple(*p_short, p), _reduce_triple(*q_short, p)
        if p <= 3:
            member = (_reduce_triple(*q_triple, p) in
                      _multiples(reduce_curve(curve, p), _reduce_triple(*p_triple, p)))
        elif t == 2:
            member = _order_two_member(p, A, pp, qp[0])
        elif t is None:
            member = _discrete_log(p, A, pp, qp) is not None
        else:
            # ord(Q) = t divides #E(F_p), so the annihilator steps by it; Q lies
            # in <R> when <R> has the order-t subgroup <g> (at most 12 points
            # by Mazur) and Q is one of its multiples
            r, r_order = _primary_part(p, A, pp, _annihilator(p, A, pp, t), torsion_primes)
            walk = g = None if r_order % t else _short_mul(p, A, r_order // t, r)
            while walk != qp and walk is not None:
                walk = _short_add(p, A, walk, g)
            member = walk == qp
        if member:
            members.append(p)
    return len(members), members, skipped


def lang_trotter_sweep(
    p_point: Point,
    q_point: Point,
    x: int,
    keep_primes: bool = False,
    workers: int = 1,
) -> OrbitSweepResult:
    """Count primes p <= x, p not dividing disc, with Q mod p in <P mod p>.

    The primes go in ascending chunks of at least 64, about four per worker,
    to ``workers`` processes; one worker, or a single chunk, runs in the
    calling process. Per-prime results are independent and merged by
    commutative counting, so the outcome is identical for every partition.
    workers must be at least 1; the library reads no environment setting.
    """
    require_infinite_order(p_point)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    primes = primes_upto(x)
    size = max(64, -(-len(primes) // (4 * workers)))
    chunks = [primes[i : i + size] for i in range(0, len(primes), size)]
    results = _pool_map(functools.partial(sweep_primes, p_point, q_point), chunks, workers)
    # the chunks ascend and keep their order, so the joined lists are sorted
    count = sum(c for c, _, _ in results)
    members = [p for _, m, _ in results for p in m]
    skipped = [p for _, _, s in results for p in s]

    log_x = math.log(x) if x >= 2 else 0.0
    ratio = count / math.sqrt(log_x) if log_x > 0 else 0.0
    return OrbitSweepResult(x, count, ratio, skipped, members if keep_primes else None)
