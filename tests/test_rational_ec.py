from fractions import Fraction

import pytest

from elldiv.rational_ec import (
    Point,
    PointNotOnCurveError,
    SingularCurveError,
    WeierstrassCurve,
    torsion_order,
)
from _oracles import CURVES, ShortModelCurve, curve_points, intercept_form_add, torsion_scan


def test_curve_invariants_37():
    c = WeierstrassCurve(0, 0, 1, -1, 0)
    assert (c.b2, c.b4, c.b6, c.b8) == (0, -2, 1, -1)
    assert c.discriminant == 37


def test_curve_invariants_65():
    c = WeierstrassCurve(1, 0, 0, -1, 0)
    assert (c.b2, c.b4, c.b6, c.b8) == (1, -2, 0, -1)
    assert c.discriminant == 65


@pytest.mark.parametrize("coeffs", [
    (0, 0, 1, -1, 0), (1, 0, 0, -1, 0), (1, 2, 3, 4, 5), (-2, 3, -1, 7, 11),
])
def test_b_invariant_identity(coeffs):
    c = WeierstrassCurve(*coeffs)
    assert 4 * c.b8 == c.b2 * c.b6 - c.b4 * c.b4


def test_singular_curve_rejected():
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, 0, 0, 0, 0)
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, 1, 0, 0, 0)  # y^2 = x^3 + x^2 has a node


def test_non_integer_coefficients_rejected():
    with pytest.raises(TypeError):
        WeierstrassCurve(0, 0, 1, Fraction(1, 2), 0)


def test_on_curve(e37):
    assert Point(e37, Fraction(0), Fraction(0)).on_curve()
    assert not Point(e37, Fraction(1), Fraction(1)).on_curve()
    assert e37.identity().on_curve()


def test_point_constructor_validates(e37):
    with pytest.raises(PointNotOnCurveError):
        e37.point(1, 1)


def test_negation(e37, e65, p37):
    assert -p37 == Point(e37, Fraction(0), Fraction(-1))
    assert -e65.point(1, 0) == Point(e65, Fraction(1), Fraction(-1))
    assert -e37.identity() == e37.identity()
    for n in range(1, 8):
        assert -(-(n * p37)) == n * p37


def test_addition_examples(e37, p37, e65, p65):
    assert p37 + e37.point(1, 0) == Point(e37, Fraction(-1), Fraction(-1))
    assert p37 + e37.identity() == p37
    assert (p37 + (-p37)).is_identity
    assert 2 * p65 == Point(e65, Fraction(4), Fraction(-10))


def test_scalar_multiples(e37, p37):
    assert 5 * p37 == Point(e37, Fraction(1, 4), Fraction(-5, 8))
    assert (0 * p37).is_identity
    assert (-3) * p37 == -(3 * p37)
    assert p37 * 5 == 5 * p37


@pytest.mark.parametrize("coeffs,start", [
    ((0, 0, 1, -1, 0), (0, 0)),
    ((1, 0, 0, -1, 0), (1, 0)),
])
def test_multiples_match_short_model_oracle(coeffs, start):
    curve = WeierstrassCurve(*coeffs)
    point = curve.point(*start)
    oracle = ShortModelCurve(*coeffs)
    for n in range(-12, 13):
        got = n * point
        want = oracle.mul(n, (Fraction(start[0]), Fraction(start[1])))
        if want is None:
            assert got.is_identity
        else:
            assert (got.x, got.y) == want


def _affine(pt):
    return None if pt.is_identity else (pt.x, pt.y)


# 37a, 65a, and order4, whose model has a1, a2 and a3 all nonzero
@pytest.mark.parametrize("name", ["37a", "65a", "order4"])
def test_addition_matches_the_intercept_form(name):
    p_point, q_point = curve_points(name)
    points = {p_point.curve.identity(), q_point}
    for n in range(1, 7):
        for pt in (n * p_point, n * p_point + q_point):
            points |= {pt, -pt}
    # every ordered pair: chords, tangents (a + a), a + (-a) and O, with y3
    # read off the second operand when its x-denominator is smaller, else
    # off the first
    arms = set()
    for a in points:
        for b in points:
            assert _affine(a + b) == intercept_form_add(CURVES[name][0], _affine(a), _affine(b))
            if not (a.is_identity or b.is_identity or a.x == b.x):
                arms.add(b.x.denominator < a.x.denominator)
    assert arms == {False, True}


def test_closure_under_group_law(p37, p65, q65):
    for n in range(1, 21):
        assert (n * p37).on_curve()
        assert (n * p65 + q65).on_curve()


def test_group_laws_on_samples(e37, p37):
    pts = [e37.identity(), p37, 2 * p37, 3 * p37, -(5 * p37)]
    for a in pts:
        for b in pts:
            assert a + b == b + a
    for a in pts[:3]:
        for b in pts[1:4]:
            for c in pts[2:]:
                assert (a + b) + c == a + (b + c)
    for a in pts:
        assert a + e37.identity() == a
        assert (a + (-a)).is_identity


def test_scalar_mul_is_additive_in_the_scalar(p65):
    cache = {n: n * p65 for n in range(-20, 21)}
    for m in range(-10, 11):
        for n in range(-10, 11):
            assert cache[m + n] == cache[m] + cache[n]


def test_torsion_order(e37, p37, e65, p65, q65):
    assert torsion_order(q65) == 2
    assert (2 * q65).is_identity
    assert torsion_order(p37) is None
    assert torsion_order(p65) is None
    assert torsion_order(e37.identity()) == 1
    assert torsion_order(e65.identity()) == 1


def test_torsion_order_consistency():
    # 2-torsion with non-integral x on an integral model
    curve = WeierstrassCurve(1, 0, 0, -4, -1)
    q = curve.point(Fraction(-1, 4), Fraction(1, 8))
    t = torsion_order(q)
    assert t == 2
    assert (t * q).is_identity
    assert not q.is_identity


# (curve, T, order of T): 65a Q, the order-3 point of test_modp, and
# Tate-normal-form curves with T = (0, 0)
TORSION_CASES = [
    ((1, 0, 0, -1, 0), (0, 0), 2),
    ((0, 1, 0, -2, 1), (0, -1), 3),
    ((1, -2, -2, 0, 0), (0, 0), 4),
    ((-1, -2, -2, 0, 0), (0, 0), 5),
    ((-1, -6, -6, 0, 0), (0, 0), 6),
    ((-1, -4, -4, 0, 0), (0, 0), 7),
    ((-1, -12, -24, 0, 0), (0, 0), 8),
    ((-3, -12, -12, 0, 0), (0, 0), 9),
    ((-5, -24, -24, 0, 0), (0, 0), 10),
    ((43, -210, -210, 0, 0), (0, 0), 12),
]


@pytest.mark.parametrize("coeffs, point, order", TORSION_CASES)
def test_torsion_order_matches_the_plain_scan(coeffs, point, order):
    curve = WeierstrassCurve(*coeffs)
    oracle = ShortModelCurve(*coeffs)
    t = curve.point(*point)
    assert torsion_scan(oracle, (t.x, t.y)) == order
    for k in range(1, order + 1):
        multiple = k * t
        expected = torsion_scan(oracle, None if multiple.is_identity else (multiple.x, multiple.y))
        assert torsion_order(multiple) == expected
    assert torsion_order(t) == order


def test_torsion_order_exits_on_points_of_infinite_order(e37, p37, p65, q65):
    for p_point, q_point in [(p37, e37.identity()), (p65, q65)]:
        multiple = p_point.curve.identity()
        for _ in range(30):
            multiple = multiple + p_point
            assert torsion_order(multiple) is None
            assert torsion_order(multiple + q_point) is None


def test_cross_curve_addition_rejected(e37, e65, p37, p65):
    with pytest.raises(ValueError):
        p37 + p65
