import math
from fractions import Fraction
from math import gcd

import pytest

from conftest import HHAT_37A, HHAT_65A
from elldiv import denominators
from elldiv.denominators import (
    REASON_BAD_REDUCTION,
    REASON_Q_NONINTEGRAL,
    REASON_TORSION,
    CollisionWithIdentityError,
    DenomTerm,
    IncompleteFactorizationError,
    IncompleteHistoryError,
    NonTorsionQError,
    bad_set,
    denom_sequence,
    denom_term,
    growth_estimate,
    omega_product,
    primitive_parts,
    primitive_report,
    primitive_reports,
    strip_shared_primes,
)
from elldiv.modp import reduce_curve, reduce_point
from elldiv.numtheory import factorize, primes_upto, valuation
from elldiv.rational_ec import TorsionPointError, WeierstrassCurve
from _oracles import CURVES, ShortModelCurve, curve_points, strip_history, trial_division_primes

D37_FIRST_TEN = [1, 1, 1, 1, 4, 1, 9, 25, 49, 16]
D65_FIRST_TEN = [1, 4, 25, 289, 11881, 498436, 90801841, 22217989249,
                 12003349222225, 19929760024531204]


def test_strip_shared_primes_rejects_a_value_below_one():
    assert strip_shared_primes(360, 6) == 5
    # 0 shares every prime with m > 1, and dividing it by them leaves 0
    for value, other in [(0, 6), (0, 2), (-4, 6)]:
        with pytest.raises(ValueError):
            strip_shared_primes(value, other)


def test_denom_term_examples(e37, p37, p65, q65):
    term = denom_term(p37, e37.identity(), 5)
    assert (term.numerator, term.denominator) == (1, 4)
    term = denom_term(p65, q65, 2)
    assert (term.numerator, term.denominator) == (-1, 4)
    assert term.point.x == Fraction(-1, 4) and term.point.y == Fraction(-3, 8)
    term = denom_term(p65, q65, 1)
    assert (term.numerator, term.denominator) == (-1, 1)


def test_denom_sequence_values(e37, p37, p65, q65):
    assert [t.denominator for t in denom_sequence(p37, e37.identity(), 5)] == [1, 1, 1, 1, 4]
    assert [t.denominator for t in denom_sequence(p37, e37.identity(), 10)] == D37_FIRST_TEN
    assert [t.denominator for t in denom_sequence(p65, q65, 10)] == D65_FIRST_TEN
    assert list(denom_sequence(p37, e37.identity(), 0)) == []


def test_denom_sequence_agrees_with_denom_term(p65, q65):
    for term in denom_sequence(p65, q65, 25):
        direct = denom_term(p65, q65, term.n)
        assert (direct.numerator, direct.denominator) == (term.numerator, term.denominator)
        assert direct.point == term.point


@pytest.mark.parametrize("coeffs,p_xy,q_xy", [
    ((0, 0, 1, -1, 0), (0, 0), None),
    ((1, 0, 0, -1, 0), (1, 0), (0, 0)),
])
def test_sequence_matches_short_model_oracle(coeffs, p_xy, q_xy):
    curve = WeierstrassCurve(*coeffs)
    p_point = curve.point(*p_xy)
    q_point = curve.point(*q_xy) if q_xy else curve.identity()
    oracle = ShortModelCurve(*coeffs)
    oracle_q = (Fraction(q_xy[0]), Fraction(q_xy[1])) if q_xy else None
    expected = oracle.translated_multiples((Fraction(p_xy[0]), Fraction(p_xy[1])), oracle_q, 40)
    got = [(t.numerator, t.denominator) for t in denom_sequence(p_point, q_point, 40)]
    assert got == expected


def test_terms_are_reduced_with_positive_denominator(p65, q65):
    for term in denom_sequence(p65, q65, 40):
        assert term.denominator >= 1
        assert gcd(abs(term.numerator), term.denominator) == 1
        assert term.point.x == Fraction(term.numerator, term.denominator)


def test_torsion_p_rejected(q65, e65):
    with pytest.raises(TorsionPointError):
        denom_term(q65, e65.identity(), 1)
    with pytest.raises(TorsionPointError):
        list(denom_sequence(q65, e65.identity(), 3))
    with pytest.raises(TorsionPointError):
        growth_estimate(q65, e65.identity(), 40)


def test_collision_with_identity(p37):
    q_point = -3 * p37
    with pytest.raises(CollisionWithIdentityError) as info:
        denom_term(p37, q_point, 3)
    assert info.value.n == 3
    seq = denom_sequence(p37, q_point, 5)
    assert next(seq).n == 1
    assert next(seq).n == 2
    with pytest.raises(CollisionWithIdentityError):
        next(seq)
    # every report is computed in the call, so the collision raises there
    with pytest.raises(CollisionWithIdentityError):
        primitive_reports(denom_sequence(p37, q_point, 5), workers=1)


def test_bad_set_65a(q65):
    bad = bad_set(q65)
    assert bad.primes == [2, 5, 13]
    assert bad.reasons[2] == (REASON_TORSION,)
    assert bad.reasons[5] == (REASON_BAD_REDUCTION,)
    assert bad.reasons[13] == (REASON_BAD_REDUCTION,)
    assert 5 in bad and 7 not in bad


def test_bad_set_37a_with_identity_q(e37):
    bad = bad_set(e37.identity())
    assert bad.primes == [2, 37]
    assert bad.reasons[2] == (REASON_TORSION,)
    assert bad.reasons[37] == (REASON_BAD_REDUCTION,)


def test_bad_set_rejects_non_torsion_q(p37):
    with pytest.raises(NonTorsionQError):
        bad_set(5 * p37)


def test_bad_set_with_non_integral_torsion_q(monkeypatch):
    curve = WeierstrassCurve(1, 0, 0, -4, -1)   # disc 3969 = 3^4 * 7^2
    q = curve.point(Fraction(-1, 4), Fraction(1, 8))
    factored = []

    def spy(n, *args, **kwargs):
        factored.append(n)
        return factorize(n, *args, **kwargs)

    monkeypatch.setattr(denominators, "factorize", spy)
    bad = bad_set(q)
    assert bad.primes == [2, 3, 7]
    assert bad.reasons[2] == (REASON_TORSION, REASON_Q_NONINTEGRAL)
    # by Nagell-Lutz den(x(Q)) is 4, so only |disc| and 2 ord(Q) are factored
    assert factored == [3969, 4]


def test_bad_set_raises_when_the_discriminant_does_not_factor():
    # disc = -16 N^2 (4N + 27) with N a product of two 16-17 digit primes;
    # with no rho budget nothing past trial division splits
    n = 1000000000000037 * 10000000000000061
    curve = WeierstrassCurve(0, 0, 0, n, -n)
    with pytest.raises(IncompleteFactorizationError) as info:
        bad_set(curve.identity(), factor_budget=0)
    assert isinstance(info.value, RuntimeError)
    assert "discriminant" in str(info.value)


def test_primitive_part_examples(e37, p37):
    parts = [part for _, part in primitive_parts(denom_sequence(p37, e37.identity(), 5))]
    assert parts == [1, 1, 1, 1, 4]

    def fake_terms(values):
        return [DenomTerm(i + 1, 1, v, e37.identity()) for i, v in enumerate(values)]

    # all powers of 2 stripped from 12
    assert [part for _, part in primitive_parts(fake_terms([2, 5, 12]))] == [2, 5, 3]
    assert [part for _, part in primitive_parts(fake_terms([7, 1]))] == [7, 1]
    term, part = next(primitive_parts(fake_terms([9])))
    assert (term.n, part) == (1, 9)


def test_primitive_part_requires_full_history(e37, p37):
    term = denom_term(p37, e37.identity(), 5)
    with pytest.raises(IncompleteHistoryError):
        next(primitive_parts([term]))
    terms = list(denom_sequence(p37, e37.identity(), 4))
    for out_of_order in (terms[:2] + terms[3:], terms[:2] + terms[1:]):
        stream = primitive_parts(out_of_order)
        assert [next(stream)[0].n, next(stream)[0].n] == [1, 2]
        with pytest.raises(IncompleteHistoryError):
            next(stream)


def test_primitive_part_is_sound(p65, q65):
    terms = list(denom_sequence(p65, q65, 40))
    for term, part in primitive_parts(terms):
        assert term.denominator % part == 0
        assert all(gcd(part, earlier.denominator) == 1 for earlier in terms[: term.n - 1])


def test_primitive_report_examples(e37, p37, p65, q65):
    stream37 = list(primitive_parts(denom_sequence(p37, e37.identity(), 5)))
    report = primitive_report(*stream37[4])
    assert report.n == 5
    assert report.has_primitive and report.primitive_part == 4
    assert report.certificate_prime == 2 and report.fully_factored

    report = primitive_report(*stream37[0])
    assert not report.has_primitive and report.certificate_prime is None

    report = primitive_report(*list(primitive_parts(denom_sequence(p65, q65, 2)))[1])
    assert report.has_primitive and report.certificate_prime == 2


def test_primitive_report_degrades_without_budget(p65, q65):
    term, part = list(primitive_parts(denom_sequence(p65, q65, 18)))[17]
    # part_18 is the square of a composite with no factor below the trial
    # bound, so with no rho budget nothing splits; the report still
    # certifies that a primitive divisor exists.
    report = primitive_report(term, part, factor_budget=0)
    assert report.has_primitive
    assert report.certificate_prime is None
    assert not report.fully_factored
    full = primitive_report(term, part)
    assert full.fully_factored and full.certificate_prime == 16210522753


@pytest.mark.parametrize("name", sorted(CURVES))
def test_primitive_reports_parallel_matches_serial(name):
    p_point, q_point = curve_points(name)
    # budget 0 leaves every cofactor beyond trial division unsplit
    for budget in (0, 1, 1024):
        serial = list(primitive_reports(denom_sequence(p_point, q_point, 30), budget, workers=1))
        assert serial == [(term, primitive_report(term, part, budget))
                          for term, part in primitive_parts(denom_sequence(p_point, q_point, 30))]
        parallel = list(primitive_reports(denom_sequence(p_point, q_point, 30), budget, workers=2))
        assert parallel == serial


def test_primitive_reports_rejects_fewer_than_one_worker(p65, q65):
    for workers in (0, -2):
        with pytest.raises(ValueError):
            primitive_reports(denom_sequence(p65, q65, 3), workers=workers)


def test_omega_product(e37, p37, p65, q65):
    def fake_terms(values):
        return [DenomTerm(i + 1, 1, v, e37.identity()) for i, v in enumerate(values)]

    assert omega_product(fake_terms([1, 1, 1, 1, 4])).count == 1
    assert omega_product(fake_terms([1, 1, 1])).count == 0
    result = omega_product(fake_terms([4, 9]))
    assert result.count == 2 and result.is_exact
    result = omega_product(fake_terms([6, 10, 15]))
    assert result.count == 3 and result.is_exact

    terms = list(denom_sequence(p65, q65, 12))
    exact = omega_product(terms)
    assert exact.is_exact
    # distinct primes seen in development: 2,5,17,109,353,13,733,149057,
    # 692917,73,966937,89,1361,49429,41,775152793
    assert exact.count == 16


def test_omega_product_requires_terms_in_order(e37, p37):
    terms = list(denom_sequence(p37, e37.identity(), 6))
    for out_of_order in (terms[:2] + terms[3:], terms[:3] + terms[2:], terms[1:]):
        with pytest.raises(IncompleteHistoryError):
            omega_product(out_of_order)


def test_omega_product_matches_trial_division_on_37a(e37, p37):
    terms = list(denom_sequence(p37, e37.identity(), 20))
    seen = set()
    for term in terms:
        seen |= trial_division_primes(term.denominator)
        result = omega_product(terms[: term.n])
        assert result.is_exact and result.count == len(seen)
    assert len(seen) == 17


def test_omega_lower_bound_under_budget(p65, q65):
    terms = list(denom_sequence(p65, q65, 20))
    exact = omega_product(terms)
    capped = omega_product(terms, factor_budget=0)
    assert exact.is_exact and exact.count == 34
    assert not capped.is_exact
    assert capped.count <= exact.count


def test_growth_estimate(e37, p37, p65, q65):
    slope37 = growth_estimate(p37, e37.identity(), 40)
    assert abs(slope37 - 2 * HHAT_37A) / (2 * HHAT_37A) <= 0.15
    slope65 = growth_estimate(p65, q65, 40)
    assert abs(slope65 - 2 * HHAT_65A) / (2 * HHAT_65A) <= 0.15
    with pytest.raises(ValueError):
        growth_estimate(p37, e37.identity(), 9)


def test_parity_of_valuations(e37, p37, p65, q65):
    # on an integral model x = a/d^2 at every prime, bad ones included, so each
    # D_n and each primitive part is a perfect square
    extra = [((0, 0, 8, -16, 0), (0, 0), None),   # 37a scaled by u = 2
             ((0, 0, 0, -4, 4), (0, 2), (2, -2)),
             ((0, 0, 1, -7, 6), (0, 2), (1, 0))]
    cases = [(p37, e37.identity()), (p65, q65)]
    for coeffs, p_xy, q_xy in extra:
        curve = WeierstrassCurve(*coeffs)
        cases.append((curve.point(*p_xy), curve.identity() if q_xy is None else curve.point(*q_xy)))
    for p_point, q_point in cases:
        for term, part in primitive_parts(denom_sequence(p_point, q_point, 40)):
            assert math.isqrt(term.denominator) ** 2 == term.denominator
            assert math.isqrt(part) ** 2 == part


def test_formal_group_valuation_law(e37, p37, e65, p65):
    # with Q = O: v_p(B_mk) = v_p(B_m) + 2 v_p(k) for good odd p
    for p_point, bad in [(p37, {2, 37}), (p65, {2, 5, 13})]:
        denoms = [t.denominator for t in denom_sequence(p_point, p_point.curve.identity(), 40)]
        candidates = {p for d in denoms for p in primes_upto(500) if d % p == 0} - bad
        for m in range(1, 41):
            for p in candidates:
                e = valuation(denoms[m - 1], p) if denoms[m - 1] % p == 0 else 0
                if e == 0:
                    continue
                for k in range(2, 40 // m + 1):
                    assert valuation(denoms[m * k - 1], p) == e + 2 * valuation(k, p)


def test_divisibility_of_untranslated_sequence(p37, p65):
    for p_point in (p37, p65):
        denoms = [t.denominator for t in denom_sequence(p_point, p_point.curve.identity(), 40)]
        for n in range(1, 41):
            for m in range(1, n):
                if n % m == 0:
                    assert denoms[n - 1] % denoms[m - 1] == 0


def test_denominator_divisibility_matches_reduction_to_identity(e37, p37, p65, q65):
    for p_point, q_point in [(p37, e37.identity()), (p65, q65)]:
        curve = p_point.curve
        terms = list(denom_sequence(p_point, q_point, 30))
        for p in primes_upto(500):
            if curve.discriminant % p == 0:
                continue
            cp = reduce_curve(curve, p)
            for term in terms:
                divides = term.denominator % p == 0
                assert divides == reduce_point(term.point, cp).is_identity


def test_theorem1_no_exceptions_on_65a(p65, q65):
    # frozen regression baseline: every n in [2, 60] has a primitive divisor
    parts = [part for _, part in primitive_parts(denom_sequence(p65, q65, 60))]
    exceptions = [n for n in range(2, 61) if parts[n - 1] == 1]
    assert exceptions == []

    # independent recomputation through the short-model oracle: the same
    # primitive part for every term, not only the same exceptions
    oracle = ShortModelCurve(1, 0, 0, -1, 0)
    denoms = [d for _, d in oracle.translated_multiples(
        (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)), 60)]
    assert parts == [strip_history(denoms[n - 1], denoms[: n - 1]) for n in range(1, 61)]
