import math
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import HHAT_37A, HHAT_65A
from elldiv import heights
from elldiv.cli import load_fixture
from elldiv.heights import (
    ARCHIMEDEAN,
    IdentityPointError,
    NonConvergenceError,
    archimedean_local_height,
    canonical_height,
    height_pairing,
    local_height_exponent,
    log_int,
    naive_height,
    siegel_ratio,
    siegel_ratios,
)
from elldiv.denominators import denom_sequence
from elldiv.numtheory import factorize
from elldiv.rational_ec import Point, WeierstrassCurve
from _oracles import DoublingLimitError, ShortModelCurve, doubling_limit, series_constants_reference


def test_log_int():
    assert log_int(1) == 0.0
    assert math.isclose(log_int(4), math.log(4))
    big = 1 << 5000
    assert math.isclose(log_int(big), 5000 * math.log(2), rel_tol=1e-12)
    assert math.isclose(log_int(big + 12345), 5000 * math.log(2), rel_tol=1e-9)
    with pytest.raises(ValueError):
        log_int(0)


def test_naive_height(e37, p37, e65, p65, q65):
    assert naive_height(p37) == 0.0                      # x = 0
    assert math.isclose(naive_height(5 * p37), math.log(4))
    assert math.isclose(naive_height(2 * p65 + q65), math.log(4))
    assert naive_height(e37.identity()) == 0.0


def test_local_height_exponent(e37, p37):
    five = 5 * p37
    assert five == Point(e37, Fraction(1, 4), Fraction(-5, 8))
    assert local_height_exponent(five, 2) == 2
    assert local_height_exponent(five, 3) == 0
    with pytest.raises(IdentityPointError):
        local_height_exponent(e37.identity(), 2)


def test_height_decomposes_over_places(p37, e37, p65, q65):
    for p_point, q_point in [(p37, e37.identity()), (p65, q65)]:
        for term in denom_sequence(p_point, q_point, 25):
            fac = factorize(term.denominator)
            assert fac.is_complete
            finite = sum(e * math.log(p) for p, e in fac.factors.items())
            total = finite + archimedean_local_height(term.point)
            assert math.isclose(total, naive_height(term.point), rel_tol=0, abs_tol=1e-9)


def test_canonical_height_of_generators(p37, p65):
    est37 = canonical_height(p37, 1e-3)
    assert abs(est37.value - HHAT_37A) <= 1e-3
    est65 = canonical_height(p65, 1e-3)
    assert abs(est65.value - HHAT_65A) <= 1e-3
    # tighter tolerance sharpens the estimate
    assert abs(canonical_height(p37, 1e-6).value - HHAT_37A) <= 2e-5
    assert abs(canonical_height(p65, 1e-6).value - HHAT_65A) <= 2e-5


def test_canonical_height_estimate_invariants(p37):
    est = canonical_height(p37, 1e-4)
    assert est.error_bound >= 0
    assert est.value >= -est.error_bound
    assert est.iterations_used >= 2


def test_canonical_height_vanishes_on_torsion(e37, q65, e65):
    est = canonical_height(q65, 1e-6)
    assert (est.value, est.error_bound, est.iterations_used) == (0.0, 0.0, 0)
    assert canonical_height(e37.identity(), 1e-6).value == 0.0
    assert canonical_height(e65.identity(), 1e-9).value == 0.0


def test_doubling_quadruples_the_height(p37, p65):
    tol = 1e-4
    for point in (p37, p65):
        one = canonical_height(point, tol)
        two = canonical_height(2 * point, tol)
        assert abs(two.value - 4 * one.value) <= 2 * tol + two.error_bound + 4 * one.error_bound


@pytest.mark.parametrize("fixture_name", ["p37", "p65"])
def test_quadraticity(fixture_name, request):
    point = request.getfixturevalue(fixture_name)
    tol = 1e-4
    base = canonical_height(point, tol)
    for n in range(2, 9):
        est = canonical_height(n * point, tol)
        budget = (n * n + 1) * tol + est.error_bound + n * n * base.error_bound
        assert abs(est.value - n * n * base.value) <= budget


def test_pairing(p37, e37, p65, q65):
    tol = 1e-4
    base = canonical_height(p37, tol).value
    assert abs(height_pairing(p37, p37, tol) - 2 * base) <= 4 * tol + 3e-4
    assert height_pairing(p37, e37.identity(), tol) == pytest.approx(0.0, abs=3 * tol)
    # torsion lies in the kernel of the pairing
    assert abs(height_pairing(p65, q65, tol)) <= 3 * tol + 3e-4


def test_pairing_is_linear_in_the_first_argument(p37):
    tol = 1e-4
    base = height_pairing(p37, 2 * p37, tol)
    for a in range(1, 6):
        scaled = height_pairing(a * p37, 2 * p37, tol)
        assert abs(scaled - a * base) <= (3 * a + 3) * tol + 2e-3


def test_siegel_ratio_examples(p37):
    assert siegel_ratio(5 * p37, 2) == pytest.approx(1.0)
    assert siegel_ratio(2 * p37, ARCHIMEDEAN) == 0.0    # x = 1, height 0
    assert siegel_ratio(4 * p37, 3) == 0.0              # x = 2 is integral
    with pytest.raises(IdentityPointError):
        siegel_ratio(2 * p37 - 2 * p37, 2)


def test_local_heights_reject_a_place_below_two(p37):
    five = 5 * p37                                       # x = 1/4, nonzero height
    for place in (1, -1):
        with pytest.raises(ValueError):
            local_height_exponent(five, place)
        with pytest.raises(ValueError):
            siegel_ratio(five, place)


def test_siegel_ratios_reject_a_place_below_two_at_height_zero(p37):
    two = 2 * p37                                        # x = 1, naive height 0
    assert siegel_ratios(two, [2, ARCHIMEDEAN]) == [0.0, 0.0]
    for places in ([1], [0], [-1], [2, 1, ARCHIMEDEAN]):
        with pytest.raises(ValueError):
            siegel_ratios(two, places)
    with pytest.raises(ValueError):
        siegel_ratio(two, 1)


@pytest.mark.parametrize("fixture_names", [("p37", None), ("p65", "q65")])
def test_siegel_ratios_trend_to_zero(fixture_names, request, e37):
    p_name, q_name = fixture_names
    p_point = request.getfixturevalue(p_name)
    q_point = request.getfixturevalue(q_name) if q_name else e37.identity()
    terms = list(denom_sequence(p_point, q_point, 40))
    support = sorted({p for t in terms[:20] for p in factorize(t.denominator).factors})
    assert support, "fixture support should not be empty"
    rows = [siegel_ratios(t.point, support + [ARCHIMEDEAN]) for t in terms]
    for place, column in zip(support + [ARCHIMEDEAN], zip(*rows)):
        ratios = [siegel_ratio(t.point, place) for t in terms]
        assert max(ratios[20:]) <= max(ratios[:20])
        # the one-place route, and the local height over the naive one, bit for bit
        local = [archimedean_local_height(t.point) if place is ARCHIMEDEAN
                 else local_height_exponent(t.point, place) * math.log(place) for t in terms]
        assert list(column) == ratios == [
            v / h if (h := naive_height(t.point)) else 0.0 for v, t in zip(local, terms)]


def test_height_comparison_constant_evidence(p37, p65, hhat37_estimate, hhat65_estimate):
    # |h(nP) - 2 hhat(nP)| stays below a small per-fixture constant; frozen
    # development maxima were 0.460 (37a) and 0.376 (65a) over n <= 30.
    for point, hhat, bound in [(p37, hhat37_estimate.value, 0.55), (p65, hhat65_estimate.value, 0.45)]:
        worst = 0.0
        for n in range(1, 31):
            eta = abs(naive_height(n * point) - 2 * n * n * hhat)
            worst = max(worst, eta)
        assert worst <= bound


def test_observed_height_constants(p37, p65, q65, e37):
    from elldiv.heights import observed_height_constants

    constants = observed_height_constants(q65, p65)
    # pairing constant is hhat(R) + hhat(M); torsion R contributes 0
    assert constants.pairing_constant == pytest.approx(HHAT_65A, abs=1e-4)
    assert 0 <= constants.comparison_bound <= 0.45
    # the observed constants really bound a fresh sample
    for n in range(1, 31):
        sample = n * p65
        assert naive_height(q65 + sample) <= constants.translation_bound + 2 * naive_height(sample) + 1e-9

    constants37 = observed_height_constants(2 * p37, p37)
    expected_pairing = canonical_height(2 * p37, 1e-4).value + canonical_height(p37, 1e-4).value
    assert constants37.pairing_constant == pytest.approx(expected_pairing, abs=1e-6)
    assert constants37.comparison_bound <= 0.55


def test_non_convergence_reports_gap(p65):
    # the bound bottoms out near double precision, far above 1e-300
    with pytest.raises(NonConvergenceError) as info:
        canonical_height(p65, 1e-300)
    assert info.value.gap > 1e-300
    assert info.value.iterations == canonical_height(p65).iterations_used >= 1


def test_oracle_doubling_limit_reports_gap(p65):
    with pytest.raises(DoublingLimitError) as info:
        doubling_limit(ShortModelCurve(1, 0, 0, -1, 0), (p65.x, p65.y), 1e-9, max_doublings=7)
    assert info.value.gap > 1e-9
    assert info.value.iterations == 7


# (curve, P, hhat(P) frozen to six decimals). 389a and y^2 = x^3 - 2 were
# checked against exact doubling up to 2^9 P; [0,0,8,-16,0] is 37a scaled
# by u = 2, a non-minimal model; y^2 = x^3 - 4x + 4 needs m = 2; on the
# last curve the series changes chart at its first and third terms.
ENCLOSURE_CASES = [
    ((0, 1, 1, -2, 0), (0, 0), 0.163500),
    ((0, 0, 0, 0, -2), (3, 5), 0.674788),
    ((0, 0, 0, -4, 4), (0, 2), 0.080529),
    ((0, 0, 8, -16, 0), (0, 0), 0.025556),
    ((0, -1, 1, -3, 4), (2, 1), 0.388587),
]


@pytest.mark.parametrize("coeffs, xy, frozen", ENCLOSURE_CASES)
def test_error_bound_encloses_the_true_height(coeffs, xy, frozen):
    point = WeierstrassCurve(*coeffs).point(*xy)
    est = canonical_height(point, 1e-4)
    oracle = doubling_limit(ShortModelCurve(*coeffs), (point.x, point.y), max_doublings=8)
    assert abs(est.value - oracle) <= 1e-5
    assert 0 < est.error_bound <= 1e-4
    assert abs(est.value - frozen) <= est.error_bound + 5e-7   # half a unit in the 6th place


def test_height_does_not_depend_on_the_model(p37):
    scaled = WeierstrassCurve(0, 0, 8, -16, 0).point(0, 0)   # 37a with u = 2
    one, other = canonical_height(p37), canonical_height(scaled)
    assert abs(one.value - other.value) <= one.error_bound + other.error_bound


def test_tolerance_must_be_positive(p37):
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            canonical_height(p37, tol)


# -- the series' working precision -------------------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SHIPPED = ["37a", "65a", "order2-a", "order2-full", "order3", "search-a", "search-b", "search-c"]
LARGE_COEFFICIENTS = (0, 0, 0, 10 ** 31, -10 ** 31)


def series_points():
    """nP and nP+Q for n <= 20 on the shipped fixtures, and nP on a curve
    whose series changes chart (ENCLOSURE_CASES)."""
    out = []
    for name in SHIPPED:
        fixture = load_fixture(str(FIXTURES / f"{name}.fixture"))
        multiple = fixture.curve.identity()
        for _ in range(20):
            multiple = multiple + fixture.p
            out += [multiple, multiple + fixture.q]
    switching = WeierstrassCurve(0, -1, 1, -3, 4).point(2, 1)
    return out + [n * switching for n in range(1, 21)]


def estimates(points):
    return [(e.value, e.error_bound, e.iterations_used)
            for e in (canonical_height(point, 1.0) for point in points)]


def test_series_agrees_bit_for_bit_with_the_two_power_reference(monkeypatch):
    points = series_points()
    for curve in {point.curve for point in points}:
        charts, _, _, ell_max = heights._series_constants(curve)
        reference = series_constants_reference(curve)
        assert (charts, ell_max) == (reference[0], reference[3])
    proven = estimates(points)
    monkeypatch.setattr(heights, "_series_constants", series_constants_reference)
    assert estimates(points) == proven


def test_series_at_four_times_the_bits_agrees_within_the_drift(monkeypatch):
    # 2^8 expansion^4 and 2^206 lipschitz^4 give every step at least four
    # times its proven bits; the proven run's drift moves the sum by at most
    # 2^-70 (_archimedean_series), far below a double's spacing here
    points = series_points()
    proven = estimates(points)
    series_constants = heights._series_constants

    def four_times(curve):
        charts, lipschitz, expansion, ell_max = series_constants(curve)
        return charts, lipschitz ** 4 * 2 ** 206, expansion ** 4 * 2 ** 8, ell_max

    monkeypatch.setattr(heights, "_series_constants", four_times)
    for (value, bound, terms), (fine, fine_bound, fine_terms) in zip(proven, estimates(points)):
        assert abs(value - fine) <= 2.0 ** -70
        assert (bound, terms) == (fine_bound, fine_terms)


def scaled(poly, k, den, degree):
    """den^degree * poly(k / den), exactly."""
    return sum(c * k ** i * den ** (degree - i) for i, c in enumerate(poly))


def derivative(poly):
    return [i * c for i, c in enumerate(poly)][1:]


@pytest.mark.parametrize("curve", [load_fixture(str(FIXTURES / f"{name}.fixture")).curve
                                    for name in SHIPPED] + [WeierstrassCurve(*LARGE_COEFFICIENTS)],
                         ids=SHIPPED + ["large"])
def test_series_constants_bound_the_sampled_slopes(curve):
    # at t = k/64 on |t| <= 9/4, in each chart, on the branch the rule picks:
    # |d(w/D)/dt| <= expansion and |D'/D| <= lipschitz, in exact arithmetic
    charts, lipschitz, expansion, _ = heights._series_constants(curve)
    den = 64
    for sign, (z, w) in zip((1, -1), charts):
        branch = [zi + sign * wi for zi, wi in zip(z, w)]
        for k in range(-9 * den // 4, 9 * den // 4 + 1):
            z_t, w_t = scaled(z, k, den, 4), scaled(w, k, den, 4)
            d = z if abs(w_t) <= 2 * abs(z_t) else branch
            d_t, dd_t = scaled(d, k, den, 4), scaled(derivative(d), k, den, 3)
            dw_t = scaled(derivative(w), k, den, 3)
            assert den * abs(dw_t * d_t - w_t * dd_t) <= expansion * d_t * d_t
            assert den * abs(dd_t) <= lipschitz * abs(d_t)


def test_series_drops_at_least_twelve_fewer_bits_a_step():
    # one power of the floor, not two: 65a's step is 21 bits (36 with the
    # squared bound), and every shipped fixture saves at least 12
    curve = load_fixture(str(FIXTURES / "65a.fixture")).curve
    assert math.log2(heights._series_constants(curve)[2]) <= 22
    for name in SHIPPED:
        curve = load_fixture(str(FIXTURES / f"{name}.fixture")).curve
        step = heights._log2_ceil(heights._series_constants(curve)[2])
        assert heights._log2_ceil(series_constants_reference(curve)[2]) - step >= 12
