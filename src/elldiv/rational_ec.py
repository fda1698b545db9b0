"""Exact group law and torsion detection on elliptic curves over Q.

Curves are integral general-Weierstrass models

    y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6

and point coordinates are ``fractions.Fraction`` values, kept reduced with
positive denominator by the Fraction type itself. Every identity checked
downstream is therefore an exact equality of reduced rationals.
"""

from dataclasses import dataclass, field
from fractions import Fraction

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
        pt = Point(self, Fraction(x), Fraction(y))
        if not pt.on_curve():
            raise PointNotOnCurveError(f"({x}, {y}) is not on {self}")
        return pt

    def __str__(self):
        return f"y^2 + {self.a1}xy + {self.a3}y = x^3 + {self.a2}x^2 + {self.a4}x + {self.a6}"


@dataclass(frozen=True)
class Point:
    """Identity (x = y = None) or an affine point tagged with its curve."""

    curve: WeierstrassCurve
    x: Fraction | None = None
    y: Fraction | None = None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("affine points need both coordinates")
        if self.x is not None and not (
            isinstance(self.x, Fraction) and isinstance(self.y, Fraction)
        ):
            object.__setattr__(self, "x", Fraction(self.x))
            object.__setattr__(self, "y", Fraction(self.y))

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def on_curve(self) -> bool:
        if self.is_identity:
            return True
        c = self.curve
        x, y = self.x, self.y
        return y * y + c.a1 * x * y + c.a3 * y == x ** 3 + c.a2 * x * x + c.a4 * x + c.a6

    def __neg__(self) -> "Point":
        if self.is_identity:
            return self
        c = self.curve
        return Point(c, self.x, -self.y - c.a1 * self.x - c.a3)

    def __add__(self, other: "Point") -> "Point":
        if self.curve != other.curve:
            raise ValueError("points lie on different curves")
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        c = self.curve
        a1, a2, a3 = c.a1, c.a2, c.a3
        x1, y1 = self.x, self.y
        x2, y2 = other.x, other.y
        if x1 == x2:
            if y1 + y2 + a1 * x1 + a3 == 0:
                return Point(c)
            # same point with nonvanishing tangent denominator: doubling
            lam = (3 * x1 * x1 + 2 * a2 * x1 + c.a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam + a1 * lam - a2 - x1 - x2
        # the line y = lam x + (y1 - lam x1) passes through both operands
        # (AEC III.2.3), so y3 may come from either: take the cheaper one
        if x2.denominator < x1.denominator:
            x1, y1 = x2, y2
        return Point(c, x3, lam * (x1 - x3) - y1 - a1 * x3 - a3)

    def __sub__(self, other: "Point") -> "Point":
        return self + (-other)

    def __mul__(self, n: int) -> "Point":
        if not isinstance(n, int):
            raise TypeError("points scale by integers only")
        if n < 0:
            return (-self) * (-n)
        acc = Point(self.curve)
        for bit in bin(n)[2:]:
            acc = acc + acc
            if bit == "1":
                acc = acc + self
        return acc

    __rmul__ = __mul__

    def __str__(self):
        return "O" if self.is_identity else f"({self.x}, {self.y})"


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
    acc = point
    for n in range(2, TORSION_SEARCH_BOUND + 1):
        if 4 % acc.x.denominator:
            return None
        acc = acc + point
        if acc.is_identity:
            return n
    return None


def require_infinite_order(point: Point) -> None:
    order = torsion_order(point)
    if order is not None:
        raise TorsionPointError(f"P has finite order {order}; an infinite-order point is required")
