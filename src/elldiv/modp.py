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
gives ord(P). Membership has one route, Pohlig-Hellman in the S-primary
part of <P> for a set S of primes holding those of ord(Q) (Pohlig and
Hellman, IEEE Trans. Inf. Theory 24, 1978): with c the part of M prime to
S, R = cP generates it, and Q lies in <P> exactly when ord(R) Q = O and a
BSGS in <R> solves the log. This is correct even when E(F_p) is not
cyclic. in_cyclic_subgroup takes S the primes of M, so R = P.

The orbit sweep takes S the primes of t when Q is torsion of order t over
Q. Torsion injects into E(F_p) at good p >= 5 (AEC VII.3.1(b), IV.6.1), so
ord(Q mod p) = t, and the sweep factors nothing per prime: its search for
M steps by t, which divides #E(F_p) (Lagrange). Q = O needs no search, and
t = 2 takes the route below.

For t = 2 membership is a fact about the 2-Sylow subgroup of E(F_p), read
from quadratic characters (_order_two_member). With Q = (e, 0) on the
short model and f = (x - e) g, the characters of x - e_i over the roots
e_i of f in F_p give the class of a point in E(F_p)/2E(F_p), the complete
2-descent or reduced Tate pairing (AEC X.1; Miret, Moreno, Rio and Valls,
Math. Comp. 74, 2005). The classes of the points of order 2 tell which of
them are doubles, and so decide most primes from the class of P alone.
chi(disc g), chi(g(e)) and chi(x(P) - e) are characters of three fixed
integers, which the sweep reads by the residue class of p
(_fixed_character), and square roots are taken in closed form where p
allows (_square_root).
Where classes do not decide, points are halved, x only, and their chains
of halves in 2E(F_p) compared in lockstep (_ends_first): through the
2-isogeny with kernel {O, Q} where the 2-Sylow is cyclic (AEC III.4.5,
X.4.9), and from the square roots of x - e_i where f splits (_half_split).
Only primes with E[4] in E(F_p) and a point of order 2 in 4E(F_p) search
for M, stepping by 16: Q is in <P> exactly when doubling the 2-part uP,
u the odd part of M, ends at Q.

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
from math import isqrt, lcm

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
    if a is None or b is None:
        return b if a is None else a
    p, a1, a2, a3 = cp.p, cp.a1, cp.a2, cp.a3
    (x1, y1), (x2, y2) = a, b
    if x1 == x2:
        if (y1 + y2 + a1 * x1 + a3) % p == 0:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + cp.a4 - a1 * y1) * pow(2 * y1 + a1 * x1 + a3, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1 - a1 * x3 - a3) % p

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


def _square_root(p):
    """The map a -> a square root of a mod the odd prime p, for one p.

    p = 3 mod 4 takes a^((p + 1)/4), and p = 5 mod 8 Atkin's a v (2a v^2 - 1)
    with v = (2a)^((p - 5)/8). p = 1 mod 8 takes Tonelli-Shanks (Cohen,
    GTM 138, 1.5.1), whose non-residue z, and its power c = z^q with
    p - 1 = q 2^s, are found here once. Every root is checked by squaring,
    so a non-square a raises a ValueError naming a and p.
    """
    def checked(a, x):
        if x * x % p != a % p:
            raise ValueError(f"{a} is not a square mod {p}")
        return x

    if p & 3 == 3:
        k = (p + 1) >> 2
        return lambda a: checked(a, pow(a, k, p))
    if p & 7 == 5:
        k = (p - 5) >> 3

        def atkin(a):
            v = pow(2 * a, k, p)
            return checked(a, a * v * (2 * a * v * v - 1) % p)
        return atkin
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q, z = (p - 1) >> s, 3          # 2 is a square when p = 1 mod 8, so the least
    while _chi(z, p) == 1:          # non-square above 2 is odd
        z += 2
    c0 = pow(z, q, p)                               # of order 2^s

    def tonelli_shanks(a):
        y = pow(a, (q - 1) // 2, p)
        x, t, c, m = a * y % p, a * y * y % p, c0, s    # x^2 = a t, t of order 2^i, i < m
        while t > 1:                                # t = 0 exactly when a = 0 mod p, and x = 0
            i, u = 0, t
            while u != 1:
                u, i = u * u % p, i + 1
            if i == m:                              # t of order 2^s: a is no square
                break
            b = pow(c, 1 << (m - i - 1), p)
            x, c, t, m = x * b % p, b * b % p, t * b * b % p, i
        return checked(a, x)
    return tonelli_shanks


def _chi(v, p):
    """The Legendre symbol (v/p) for v prime to p, as 1 or -1 (Euler's criterion)."""
    return 1 if pow(v, (p - 1) // 2, p) == 1 else -1


def _fixed_character(d):
    """The map p -> (d/p) at odd primes p, read by residue class, for a fixed d != 0.

    With d = s^2 d0, (d/p) = (d0/p) at p not dividing 2d, and by quadratic
    reciprocity that depends only on p mod 4|d0| (Ireland and Rosen, ch. 5),
    so each class pays one pow. |d| is factored at budget 0, so a large d
    never stalls: an unfactored cofactor stays in d0, which lengthens the
    period and keeps it correct. At p | d the value means nothing.
    """
    fac = factorize(abs(d), 0)
    core = math.prod(q for q, k in fac.factors.items() if k & 1) * fac.unfactored_cofactor
    d0, period, seen = core if d > 0 else -core, 4 * core, {}

    def chi(p):
        key = p % period
        value = seen.get(key)
        if value is None:
            value = seen[key] = _chi(d0, p)
        return value
    return chi


def reduce_curve(curve: WeierstrassCurve, p: int) -> FpCurve:
    """Residue model at a good prime; raises BadReductionError when p | disc."""
    if curve.discriminant % p == 0:
        raise BadReductionError(f"{p} divides the discriminant {curve.discriminant}")
    return FpCurve(p, curve.a1 % p, curve.a2 % p, curve.a3 % p,
                   curve.a4 % p, curve.a6 % p, curve.discriminant % p)


def _triple(point: Point):
    """A coprime projective triple (X, Y, Z) of the point; O is (0, 1, 0).

    On an integral model x = u/d^2 and y = v/d^3 with v prime to d, so
    (u d, v, d^3) is already coprime.
    """
    if point.is_identity:
        return 0, 1, 0
    u, v, d = point.triple
    return u * d, v, d ** 3


def _reduce_triple(big_x, big_y, z, p):
    if z == 1:
        return big_x % p, big_y % p
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


def _bsgs(p, A, b, target, lo, hi, order=None) -> int | None:
    """Some m with m*b = target for b != O, or None if no m in [lo, hi] has it.

    ± matching: baby steps j*b, j = 1..s, are keyed by x, so a giant point
    G = c*b - target with x(G) = x(j*b) gives target = (c -+ j)*b as y
    decides. Centres c are the multiples of the stride 2s + 1. An order
    ord(b) <= 2s + 1 shows before the giant steps and is the answer for
    target = O, which always gets a positive m, in [lo, hi] or not.

    A caller that knows ord(b) passes it as order, with lo = 0, hi =
    order - 1 and target != O. If order <= 2s + 1, <b> is O and ±j*b for
    j <= order // 2, so the baby steps stop at the target or there, and
    the order is not looked for again.
    """
    s = isqrt(hi - lo) // 2 + 1
    if order is not None and order <= 2 * s + 1:
        g, j = b, 1
        while g[0] != target[0]:
            if j == order // 2:
                return None
            g, j = _short_add(p, A, g, b), j + 1
        return j if g[1] == target[1] else -j
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
        sx = next(reversed(table))                  # x(s*b), the last baby step
        stride = _short_add(p, A, g, (sx, table[sx][1]))      # (s + 1)*b + s*b = (2s + 1)*b
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


def _half_x(p, root, alpha, beta, u):
    """x(S) - e for a half S of a point R != O of 2E(F_p), from u = x(R) - e.

    root is _square_root(p).

    Shifting x by the root e of the cubic gives y^2 = u (u^2 + alpha u + beta),
    with alpha = 3e and beta = g(e), and g must have no root in F_p.
    Doubling is the 2-isogeny phi with kernel {O, Q} onto
    Y^2 = X (X^2 - 2 alpha X + alpha^2 - 4 beta) followed by its dual, which
    takes a point at X to one at u = (X^2 - 2 alpha X + alpha^2 - 4 beta) / 4X
    (AEC III.4.5).
    So phi(S) has X = alpha + 2u +- 2w with w^2 = u^2 + alpha u + beta. The
    two X multiply to alpha^2 - 4 beta = disc g, a non-square, so exactly one
    is a square, and only a square X is phi of a point of E(F_p) (AEC
    X.4.9). Its preimages S and S + Q have x - e the two roots of
    u^2 + (alpha - X) u + beta.
    """
    h = (p - 1) // 2
    w = root((u * u + alpha * u + beta) % p)
    big_x = (alpha + 2 * u + 2 * w) % p
    if pow(big_x, h, p) != 1:
        big_x = (alpha + 2 * u - 2 * w) % p
    d = big_x - alpha
    return (d + root((d * d - 4 * beta) % p)) * (h + 1) % p     # h + 1 = 1/2 mod p


def _half_split(p, roots, classes, x0, rs):
    """x(S) and delta(S) of a half S of R = (x0, y) in 2E(F_p) where f splits in F_p.

    roots are the roots e, e2, e3 of f, classes the delta of (e_i, 0), and
    rs square roots r_i of x0 - e_i. A half S0 of R has
    x - e_i = (r_i + r_j)(r_i + r_k), so x = (t^2 - x0)/2 with
    t = r1 + r2 + r3, as e + e2 + e3 = 0; negating r_i gives S0 + (e_i, 0)
    (Miret, Moreno, Rio and Valls). delta is a homomorphism, so
    S0 + (e_i, 0) lies in 2E(F_p) exactly when delta(S0) is the class of
    (e_i, 0). S is S0, or S0 + (e_i, 0) where that one is in 2E(F_p), so
    delta(S) = (1, 1) exactly when R lies in 4E(F_p).
    """
    t, half = sum(rs), (p + 1) >> 1
    x = (t * t - x0) * half % p
    d = (_chi(x - roots[0], p), _chi(x - roots[1], p))
    if d != (1, 1) and d in classes:
        t -= 2 * rs[classes.index(d)]
        x, d = (t * t - x0) * half % p, (1, 1)
    return x, d


def _ends_first(halve, a, b):
    """Whether a's chain of halves in 2E(F_p) ends no later than b's.

    halve maps a point of 2E(F_p) to a half in 2E(F_p), or to None where
    there is none; a and b halve in lockstep, a first.
    """
    while True:
        a = halve(a)
        if a is None:
            return True
        b = halve(b)
        if b is None:
            return False


def _order_two_member(p, A, a, e, chi_disc, chi_ge, chi_x):
    """Whether Q = (e, 0) lies in <a> on y^2 = x^3 + Ax + B mod a good p >= 5.

    f = (x - e) g with g = x^2 + e x + e^2 + A, and chi is the Legendre
    symbol, as 1 or -1. The caller passes chi(disc g), chi(g(e)) and
    chi(x(a) - e); the last is read only when a is neither O nor Q. The
    sweep reads all three by residue class of p (_fixed_character).
    R is in 2E(F_p) exactly when x(R) - e_i is a square for every
    root e_i of f in F_p; at R = (e_i, 0) the product of e_i minus the other
    roots stands in for x(R) - e_i, which is g(e) at R = Q. Q is in <a>
    exactly when it is the point of order 2 in the cyclic 2-part of <a>.
    A chain of halves starts at a point of 2E(F_p) and halves while some
    half lies in 2E(F_p). Let v(R) be the 2-adic valuation of R's
    coordinate on a Z/2^k factor of the 2-Sylow (k when it is 0), R off
    any other factor. Every half in 2E of an R with v(R) < k has valuation
    v(R) - 1, so R's chain ends at the v(R)-th halving; an R with v(R) = k
    may pick halves of valuation k, but its chain ends at the k-th or later.
    - chi(g(e)) = -1 and chi(x(a) - e) = 1: Q is not in 2E(F_p), so Q = na
      needs n odd, and R -> chi(x(R) - e), a homomorphism, would agree at a
      and Q: no member.
    - chi(disc g) = -1: E(F_p)[2] = {O, Q}, so the 2-Sylow is cyclic. a
      outside 2E makes its 2-part a generator, so Q is in <a>. Otherwise
      both are in 2E, the 2-Sylow is Z/2^k with k >= 2, and a and Q halve
      in lockstep (_half_x, _ends_first). Q has v = k - 1, and Q is in <a>
      exactly when v(a) <= k - 1: when a's chain ends no later than Q's.
    - chi(disc g) = 1: with T = (e2, 0), delta(R) = (chi(x(R) - e),
      chi(x(R) - e2)) maps E/2E onto {1, -1}^2, and the points of order 2
      of class (1, 1) are the doubles D; D and O form a subgroup of E[2],
      so |D| is 0, 1 or 3. Halves come from _half_split.
      |D| = 0: the 2-Sylow is E[2], so the 2-part of a is Q exactly when
      delta(a) = delta(Q).
      |D| = 1: the 2-Sylow is Z/2^k x Z/2 with k >= 2, and the one double
      D0 has v = k - 1 on the Z/2^k factor. If D0 = Q, a class other than
      (1, 1) and the other points' makes the 2-part of a of order 2^k on
      that factor, so Q is in <a>. An a in 2E is a member exactly when
      v(a) <= k - 1: when its chain ends no later than Q's. An a of the
      class of T is one exactly when v(a) <= k - 2; a + T is in 2E with
      the same v, or both are at least k - 1: so when a + T's chain ends
      before Q's. If D0 != Q, Q is no double, so it can only be the 2-part
      of a itself, of class delta(Q); then a + Q is in 2E, with 2-part O
      exactly when a is a member: when its chain outlasts D0's.
      |D| = 3: E[2] lies in 2E, so E[4] lies in E(F_p). If no half of a
      point of order 2 is in 2E, the 2-Sylow is E[4] and meets 2E in E[2]:
      an a in 2E is a member exactly when a + Q is in 4E, and any other a
      exactly when 2a and Q agree on the 2-Sylow, so when a and a half of
      Q have one class. Otherwise Z/8 x Z/4 lies in E(F_p).
    That last kind of prime walks: the odd part u of a multiple of ord(a)
    from the annihilator, stepped by 16, gives the 2-part u*a, which
    doubles down to the point of order 2 of <a>, if any, in at most v_2 of
    the multiple steps.
    """
    if a is None:
        return False
    x = a[0]
    if x == e:                                  # a = Q
        return True
    if chi_x == 1 and chi_ge == -1:             # Q no double, and chi(x - e) tells a from Q
        return False
    if chi_x == -1 and chi_disc == -1:          # a's 2-part generates the cyclic 2-Sylow
        return True
    h, root, ge = (p - 1) // 2, _square_root(p), (3 * e * e + A) % p
    if chi_disc == -1:

        def halve_cyclic(u):
            u = _half_x(p, root, 3 * e, ge, u)
            return u if pow(u, h, p) == 1 else None
        return _ends_first(halve_cyclic, x - e, 0)
    r = root(-3 * e * e - 4 * A)
    e2 = (r - e) * (h + 1) % p                  # h + 1 = 1/2 mod p
    roots = (e, e2, (e2 - r) % p)
    if x in roots:                              # a has order 2 and is not Q
        return False
    dq, da = (chi_ge, _chi(e - e2, p)), (chi_x, _chi(x - e2, p))
    if dq != (1, 1) and da != dq:               # Q is no double, nor the 2-part of a
        return False
    c2 = dq[1] if p & 3 == 1 else -dq[1]        # chi(e2 - e) = chi(-1) chi(e - e2)
    dt = (c2, c2 * _chi(r, p))
    classes = (dq, dt, (dq[0] * dt[0], dq[1] * dt[1]))
    doubles = classes.count((1, 1))
    if doubles == 0:                            # the 2-part of a is Q
        return True

    def halve(x0):
        x0, d = _half_split(p, roots, classes, x0, [root(x0 - v) for v in roots])
        return x0 if d == (1, 1) else None
    if doubles == 1 and dq == (1, 1):           # Q is the one double
        if da == dq:
            return _ends_first(halve, x, e)
        if da != dt:
            return True
        return not _ends_first(halve, e, (e2 + (e2 - e) * r * pow(x - e2, -1, p)) % p)   # a + T
    plus_q = (e + ge * pow(x - e, -1, p)) % p   # x(a + Q)
    if doubles == 1:                            # delta(a) = delta(Q)
        return not _ends_first(halve, plus_q, roots[classes.index((1, 1))])
    # E[4] lies in E(F_p), so the Weil pairing puts i = sqrt(-1) in F_p (AEC III.8.1.1):
    # with s_ij^2 = e_i - e_j, e_j - e_i has the root i s_ij
    s12, s13, s23, i = (root(v) for v in (e - e2, e - roots[2], e2 - roots[2], -1))
    halves = [_half_split(p, roots, classes, v, rs)[1] for v, rs in
              zip(roots, [(0, s12, s13), (i * s12, 0, s23), (i * s13, i * s23, 0)])]
    if (1, 1) not in halves:                    # the 2-Sylow is E[4]; halves[0]: Q's halves
        return halve(plus_q) is not None if da == (1, 1) else da == halves[0]
    m = _annihilator(p, A, a, 16)
    v = (m & -m).bit_length() - 1
    b = _short_mul(p, A, m >> v, a)             # the 2-part of a
    while b is not None and b[1]:               # double down to order 2
        b = _short_add(p, A, b, b)
    return b is not None and b[0] == e


def _discrete_log(p, A, a, q, step=1, primes=None) -> int | None:
    """k with k*a = q, or None when q is not in <a>; 0 <= k < ord(a) by default.

    Pohlig-Hellman in the primes-primary part of <a>. The annihilator,
    stepped by step (which must divide #E(F_p)), gives a multiple M of
    ord(a); primes default to those of M, factored once. Stripping them
    from M leaves c, and r = c*a generates that part, of order ord(r) from
    the same primes. Every prime of ord(q) must be in primes: then q is in
    <a> exactly when ord(r)*q = O and a BSGS over 0 <= j < ord(r), told
    that order, finds j*r = q, and k = j*c mod c*ord(r). By default c = 1
    and r = a.
    """
    if q is None:
        return 0
    multiple = _annihilator(p, A, a, step)
    if primes is None:
        primes = factorize(multiple).factors
    cofactor = multiple
    for ell in primes:
        while cofactor % ell == 0:
            cofactor //= ell
    r = _short_mul(p, A, cofactor, a)
    order = _order_from_multiple(p, A, r, multiple // cofactor, primes)
    if _short_mul(p, A, order, q) is not None:      # also when r = O, as q != O
        return None
    j = _bsgs(p, A, r, q, 0, order - 1, order)
    return None if j is None else j * cofactor % (cofactor * order)


def in_cyclic_subgroup(q_point: FpPoint, p_point: FpPoint) -> tuple[bool, int | None]:
    """Whether Q mod p lies in <P mod p>, with a discrete-log witness.

    One annihilator search gives a multiple of ord(P), and its full
    factorization gives ord(P). Q is a member exactly when ord(P) Q = O and
    a BSGS of size about sqrt(ord P) in <P> finds the log; at p <= 3 the
    multiples of P are walked. The witness k satisfies k * P = Q with
    0 <= k < ord(P).
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
    torsion_primes = list(factorize(t).factors) if t is not None and t > 2 else None
    big_a = _short_model(curve)[0]
    p_triple, q_triple = _triple(p_point), _triple(q_point)
    p_short, q_short = _short_triple(curve, *p_triple), _short_triple(curve, *q_triple)
    if t == 2:
        # chi(disc g), chi(g(e)) and chi(x(P) - e) are those of fixed integers,
        # scaled by the squares Z_Q^2 and (Z_P Z_Q)^2, so read by residue class
        (xp, _, zp), (xq, _, zq) = p_short, q_short
        chi_disc, chi_ge, chi_x = (_fixed_character(d) for d in (
            -3 * xq * xq - 4 * big_a * zq * zq, 3 * xq * xq + big_a * zq * zq,
            (xp * zq - xq * zp) * zp * zq))
    members: list[int] = []
    skipped: list[int] = []
    for p in primes:
        if curve.discriminant % p == 0:
            skipped.append(p)
            continue
        if p <= 3:
            member = (_reduce_triple(*q_triple, p) in
                      _multiples(reduce_curve(curve, p), _reduce_triple(*p_triple, p)))
        else:
            # t, when finite, divides #E(F_p), so the annihilator steps by it
            A, pp, qp = big_a % p, _reduce_triple(*p_short, p), _reduce_triple(*q_short, p)
            if t == 2:
                member = _order_two_member(p, A, pp, qp[0], chi_disc(p), chi_ge(p), chi_x(p))
            else:
                member = _discrete_log(p, A, pp, qp, t or 1, torsion_primes) is not None
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

    The primes go in eight strided shares per worker (share k holds every
    shares-th prime from the k-th), with fewer shares where a share would
    hold fewer than 64 primes. The calling process and workers - 1 forked
    ones claim the shares one at a time, so a process that starts late or
    loses its core takes fewer; one worker, or a single share, runs here
    alone. Per-prime results are independent and merged by commutative
    counting and sorting, so the outcome is identical for every partition.
    workers must be at least 1; the library reads no environment setting.
    """
    require_infinite_order(p_point)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    primes = primes_upto(x)
    shares = max(1, min(8 * workers, len(primes) // 64))
    results = _pool_map(functools.partial(sweep_primes, p_point, q_point),
                        [primes[k::shares] for k in range(shares)], workers)
    count = sum(c for c, _, _ in results)
    members = sorted(p for _, m, _ in results for p in m)
    skipped = sorted(p for _, _, s in results for p in s)

    log_x = math.log(x) if x >= 2 else 0.0
    ratio = count / math.sqrt(log_x) if log_x > 0 else 0.0
    return OrbitSweepResult(x, count, ratio, skipped, members if keep_primes else None)
