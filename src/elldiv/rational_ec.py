"""Exact group law and torsion detection on elliptic curves over Q.

Curves are integral general-Weierstrass models

    y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6

and a point is stored in one form, its coprime integer triple (u, v, d):
x = u/d^2 and y = v/d^3 with d >= 1 and u, v prime to d, the shape of every
rational point of an integral model. The triple is canonical, so equality is
equality of triples. ``Point.x`` and ``Point.y`` are reduced ``Fraction``
views that cost a gcd on each access; library code reads ``Point.triple``.
A sum costs one gcd for the slope, two against the small d1 d2, one isqrt
and one exact division, so a scalar ladder or a torsion scan makes no
Fraction at all.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

# Mazur: rational torsion has order at most 12.
TORSION_SEARCH_BOUND = 12


class SingularCurveError(ValueError):
    """The coefficients define a singular (discriminant zero) model."""


class PointNotOnCurveError(ValueError):
    """Affine coordinates do not satisfy the curve equation."""


class TorsionPointError(ValueError):
    """A finite-order point was supplied where infinite order is required."""


@dataclass(frozen=True)
class WeierstrassCurve:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    b2: int = field(init=False, compare=False, repr=False)
    b4: int = field(init=False, compare=False, repr=False)
    b6: int = field(init=False, compare=False, repr=False)
    b8: int = field(init=False, compare=False, repr=False)
    discriminant: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            if not isinstance(getattr(self, name), int):
                raise TypeError(f"curve coefficient {name} must be an integer")
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if disc == 0:
            raise SingularCurveError(f"discriminant is zero for {(a1, a2, a3, a4, a6)}")
        object.__setattr__(self, "b2", b2)
        object.__setattr__(self, "b4", b4)
        object.__setattr__(self, "b6", b6)
        object.__setattr__(self, "b8", b8)
        object.__setattr__(self, "discriminant", disc)

    def identity(self) -> "Point":
        return Point(self)

    def point(self, x, y) -> "Point":
        """Affine point constructor that insists the equation holds."""
        pt = Point(self, x, y)
        if not pt.on_curve():
            raise PointNotOnCurveError(f"({x}, {y}) is not on {self}")
        return pt

    def __str__(self):
        return f"y^2 + {self.a1}xy + {self.a3}y = x^3 + {self.a2}x^2 + {self.a4}x + {self.a6}"


@dataclass(frozen=True, init=False)
class Point:
    """Identity (triple None) or an affine point (u, v, d) tagged with its curve.

    ``Point(curve, x, y)`` takes the rational coordinates and refuses a pair
    whose denominators are not d^2 and d^3.
    """

    curve: WeierstrassCurve
    triple: tuple[int, int, int] | None

    def __init__(self, curve: WeierstrassCurve, x=None, y=None):
        if (x is None) != (y is None):
            raise ValueError("affine points need both coordinates")
        triple = None
        if x is not None:
            x, y = Fraction(x), Fraction(y)
            d = isqrt(x.denominator)
            if d * d != x.denominator or d * d * d != y.denominator:
                raise PointNotOnCurveError(f"({x}, {y}) is not on {curve}")
            triple = x.numerator, y.numerator, d
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "triple", triple)

    @property
    def x(self) -> Fraction | None:
        return None if self.is_identity else Fraction(self.triple[0], self.triple[2] ** 2)

    @property
    def y(self) -> Fraction | None:
        return None if self.is_identity else Fraction(self.triple[1], self.triple[2] ** 3)

    @property
    def is_identity(self) -> bool:
        return self.triple is None

    def on_curve(self) -> bool:
        if self.is_identity:
            return True
        c, (u, v, d) = self.curve, self.triple
        dd = d * d
        return (v * v + c.a1 * u * v * d + c.a3 * v * dd * d
                == u ** 3 + c.a2 * u * u * dd + c.a4 * u * dd * dd + c.a6 * dd ** 3)

    def __neg__(self) -> "Point":
        return _point(self.curve, _neg(self.curve, self.triple))

    def __add__(self, other: "Point") -> "Point":
        if self.curve != other.curve:
            raise ValueError("points lie on different curves")
        return _point(self.curve, _add(self.curve, self.triple, other.triple))

    def __sub__(self, other: "Point") -> "Point":
        return self + (-other)

    def __mul__(self, n: int) -> "Point":
        if not isinstance(n, int):
            raise TypeError("points scale by integers only")
        c, t = self.curve, self.triple
        if n < 0:
            t, n = _neg(c, t), -n
        acc = None
        for bit in bin(n)[2:]:
            acc = _add(c, acc, acc)
            if bit == "1":
                acc = _add(c, acc, t)
        return _point(c, acc)

    __rmul__ = __mul__

    def __str__(self):
        return "O" if self.is_identity else f"({self.x}, {self.y})"


def _point(c: WeierstrassCurve, t) -> Point:
    point = object.__new__(Point)
    object.__setattr__(point, "curve", c)
    object.__setattr__(point, "triple", t)
    return point


def _neg(c: WeierstrassCurve, t):
    if t is None:
        return None
    u, v, d = t
    return u, -v - c.a1 * u * d - c.a3 * d ** 3, d


def _add(c: WeierstrassCurve, t1, t2):
    """t1 + t2 on triples, None for O, by the chord-and-tangent law (AEC III.2.3).

    The slope num/den is reduced by one gcd. With z = d1 d2 = g m and
    den = g k, g = gcd(den, z), x3 has numerator
    (num^2 + a1 num den - a2 den^2) m^2 - (u1 d2^2 + u2 d1^2) k^2 over
    (k z)^2; that numerator is prime to k, so gcd(., z^2) reduces it and
    leaves d3 = |k| sqrt(z^2/gcd). The line passes through both operands, so
    y3 comes from the one with the smaller d, by one exact division.
    """
    if t1 is None or t2 is None:
        return t2 if t1 is None else t1
    a1, a2, a3 = c.a1, c.a2, c.a3
    (u1, v1, d1), (u2, v2, d2) = t1, t2
    if u1 == u2 and d1 == d2:
        if v1 + v2 + a1 * u1 * d1 + a3 * d1 ** 3 == 0:
            return None
        if v1 != v2:
            raise PointNotOnCurveError("three points over one x: an operand is off the curve")
        dd = d1 * d1
        num = 3 * u1 * u1 + 2 * a2 * u1 * dd + c.a4 * dd * dd - a1 * v1 * d1
        den = d1 * (2 * v1 + a1 * u1 * d1 + a3 * dd * d1)
    else:
        num = v2 * d1 ** 3 - v1 * d2 ** 3
        den = d1 * d2 * (u2 * d1 * d1 - u1 * d2 * d2)
    g = gcd(num, den)
    num, den = num // g, den // g
    z = d1 * d2
    g = gcd(den, z)
    m, k = z // g, den // g
    x_num = ((num * num + a1 * num * den - a2 * den * den) * m * m
             - (u1 * d2 * d2 + u2 * d1 * d1) * k * k)
    g = gcd(x_num, z * z)
    u3, e = x_num // g, z * z // g
    d3 = abs(k) * isqrt(e)
    u, v, d = t2 if d2 < d1 else t1
    ee, d_cubed = d3 * d3, d ** 3
    v3, r = divmod(num * d * d3 * (u * ee - u3 * d * d)
                   - den * d3 * (v * ee + d_cubed * (a1 * u3 + a3 * ee)), den * d_cubed)
    if r or ee != k * k * e:
        raise PointNotOnCurveError("the sum is not a triple: an operand is off the curve")
    return u3, v3, d3


def torsion_order(point: Point) -> int | None:
    """Order of ``point`` when finite, else None.

    Over Q the torsion order is at most 12 (Mazur), so any point surviving
    multiples up to TORSION_SEARCH_BOUND has infinite order. On an integral
    model every torsion point has x in Z, except order 2, where 4x is in Z
    (Nagell-Lutz; Silverman, AEC VII.3.4; Cremona, Algorithms for Modular
    Elliptic Curves, 3.3), so the scan stops at the first multiple whose
    x-denominator does not divide 4.
    """
    if point.is_identity:
        return 1
    acc = t = point.triple
    for n in range(2, TORSION_SEARCH_BOUND + 1):
        if acc[2] > 2:
            return None
        acc = _add(point.curve, acc, t)
        if acc is None:
            return n
    return None


def require_infinite_order(point: Point) -> None:
    order = torsion_order(point)
    if order is not None:
        raise TorsionPointError(f"P has finite order {order}; an infinite-order point is required")
