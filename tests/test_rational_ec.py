import pickle
import random
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from elldiv import rational_ec
from elldiv.cli import load_fixture, parse_fixture
from elldiv.denominators import denom_sequence
from elldiv.rational_ec import (
    Point,
    PointNotOnCurveError,
    SingularCurveError,
    WeierstrassCurve,
    torsion_order,
)
from _oracles import (
    CURVES,
    ShortModelCurve,
    curve_points,
    fraction_add,
    fraction_mul,
    fraction_neg,
    intercept_form_add,
    torsion_scan,
)

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.fixture"))


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


def _coeffs(curve):
    return curve.a1, curve.a2, curve.a3, curve.a4, curve.a6


# ROADMAP item 17's probe fixtures: P has x = a/4, so the stream runs with d > 1
PROBES = ["curve=[-2,3,-2,0,3]; P=[-15/4,-23/8]; Q=[0,-1]",
          "curve=[-2,2,-2,-1,0]; P=[-11/4,-17/8]; Q=[0,2]"]


@pytest.mark.parametrize("source", FIXTURES + PROBES,
                         ids=[f.stem for f in FIXTURES] + ["probe-1", "probe-2"])
def test_triple_kernel_matches_the_fraction_law_on_the_fixtures(source):
    fixture = load_fixture(str(source)) if isinstance(source, Path) else parse_fixture(source)
    # the stored triple and the Fraction views round-trip on the stream and its negation
    for term in denom_sequence(fixture.p, fixture.q, 40):
        assert (term.numerator, term.denominator) == (term.point.x.numerator,
                                                      term.point.x.denominator)
        for pt in (term.point, -term.point):
            rebuilt = Point(pt.curve, pt.x, pt.y)
            assert rebuilt == pt and hash(rebuilt) == hash(pt)
            assert pickle.loads(pickle.dumps(pt)) == pt
    coeffs, start = _coeffs(fixture.p.curve), _affine(fixture.p)
    term, want = fixture.q, _affine(fixture.q)
    for _ in range(60):
        term, want = term + fixture.p, fraction_add(coeffs, want, start)
        assert _affine(term) == want
    for n in range(-5, 26):
        assert _affine(n * fixture.p) == fraction_mul(coeffs, n, start)


def _small_points(curve):
    """The points of curve with x = u or u/4, |u| <= 12, found by solving for v."""
    a1, a2, a3, a4, a6 = _coeffs(curve)
    points = set()
    for d in (1, 2):
        for u in range(-12, 13):
            # v^2 + s v = r with y = v/d^3, x = u/d^2, scaled by d^6
            s = a1 * u * d + a3 * d ** 3
            r = u ** 3 + a2 * u * u * d * d + a4 * u * d ** 4 + a6 * d ** 6
            root = isqrt(max(s * s + 4 * r, 0))
            if root * root == s * s + 4 * r:
                for twice_v in (-s + root, -s - root):
                    if twice_v % 2 == 0:
                        points.add(curve.point(Fraction(u, d * d), Fraction(twice_v // 2, d ** 3)))
    return points


def test_triple_kernel_matches_the_fraction_law_on_small_curves():
    rng, seen, curves = random.Random(0), {}, 0
    while curves < 300:
        try:
            curve = WeierstrassCurve(*(rng.randint(-3, 3) for _ in range(5)))
        except SingularCurveError:
            continue
        curves += 1
        coeffs, points = _coeffs(curve), _small_points(curve)
        for a in points:
            pa = _affine(a)
            assert _affine(-a) == fraction_neg(coeffs, pa)
            for k in (-7, -2, 0, 1, 2, 3, 5, 11, 17):
                assert _affine(k * a) == fraction_mul(coeffs, k, pa)
            for b in points:
                assert _affine(a + b) == fraction_add(coeffs, pa, _affine(b))
                order_two = a == -a
                for name, hit in (("a1 a3 nonzero", curve.a1 and curve.a3),
                                  ("x = u/4", a.x.denominator == 4),
                                  ("order 2", order_two),
                                  ("P + (-P)", b == -a and not order_two),
                                  ("double of order 2", a == b and order_two),
                                  ("chord", a.x != b.x),
                                  ("tangent", a == b and not order_two)):
                    seen[name] = seen.get(name, 0) + bool(hit)
    # the corpus reaches every arm of the law, on models with a1 a3 != 0 too
    assert min(seen.values()) > 0, seen


def test_a_pair_not_of_the_shape_is_refused_at_construction(e37, e65):
    # x's denominator is not a square: refused with no operation applied
    with pytest.raises(PointNotOnCurveError):
        Point(e65, Fraction(1, 2), Fraction(0))
    # the shape holds, so the point is built; only on_curve tells it is off the curve
    off = Point(e37, Fraction(1), Fraction(1))
    assert off.triple == (1, 1, 1) and not off.on_curve()


def test_a_hand_built_point_off_the_curve_is_refused(e65, p65):
    # x's denominator is not a square
    with pytest.raises(PointNotOnCurveError):
        Point(e65, Fraction(1, 2), Fraction(0)) + p65
    # a third y over x(P) = 1
    with pytest.raises(PointNotOnCurveError):
        Point(e65, Fraction(1), Fraction(-2)) + p65
    # x3's reduced denominator is not a square
    with pytest.raises(PointNotOnCurveError):
        Point(e65, Fraction(-5, 9), Fraction(-8, 27)) + p65
    # y3 is not a whole multiple of 1/d3^3
    with pytest.raises(PointNotOnCurveError):
        Point(e65, Fraction(-5, 4), Fraction(-7, 8)) + p65


def test_the_ladder_and_the_torsion_scan_build_no_intermediate_point(monkeypatch, p65, q65):
    built = []
    build = rational_ec._point

    def counting(curve, triple):
        built.append(triple)
        return build(curve, triple)

    monkeypatch.setattr(rational_ec, "_point", counting)
    twenty = 20 * p65
    assert len(built) == 1
    built.clear()
    assert torsion_order(p65) is None and torsion_order(twenty) is None
    assert torsion_order(q65) == 2
    assert built == []


def test_the_term_walk_the_ladder_and_the_torsion_scan_build_no_fraction(monkeypatch, p65, q65):
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(rational_ec, "Fraction", counting)
    list(denom_sequence(p65, q65, 40))
    20 * p65
    assert torsion_order(p65) is None
    assert built == []
    # a coordinate view is what builds one
    assert p65.x == 1 and len(built) == 1
