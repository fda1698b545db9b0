"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 5 and 7 compare against baselines frozen on the first run
(the empty exception list and the sweep counts); those baselines must never
regress. The windows of n <= 80 without a primitive divisor on 37a, order2-a,
order2-full and order3 are frozen beside the 65a list and checked by primitive_parts.
"""

import math
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from conftest import HHAT_37A, HHAT_65A
from elldiv.denominators import (
    bad_set,
    denom_sequence,
    growth_estimate,
    omega_product,
    primitive_parts,
)
from elldiv.cli import load_fixture
from elldiv.heights import canonical_height
from elldiv.modp import (
    group_order,
    group_order_by_enumeration,
    in_cyclic_subgroup,
    lang_trotter_sweep,
    reduce_curve,
    reduce_point,
    sweep_primes,
)
from elldiv.numtheory import factorize, primes_upto, valuation
from elldiv.rational_ec import Point
from _oracles import ShortModelCurve, strip_history

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# frozen on first run (2026-08-08), brute-force orbit-walk oracle agreeing
# with the library below x = 3000
SWEEP_65A_BASELINE = {100: 6, 1000: 43, 10000: 334, 100000: 2685}
EXCEPTION_LIST_65A = []   # n in [2, 60] without a primitive divisor
# frozen 2026-10-20: n in [1, 80] without a primitive divisor; Q = O on 37a
# and Q of order 2 or 3 on the others
NON_PRIMITIVE_WINDOWS = {
    "37a": [1, 2, 3, 4, 6, 10],
    "order2-a": [1],
    "order2-full": [],
    "order3": [1],
}


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def sweep_1e5(p65, q65):
    start = time.monotonic()
    result = lang_trotter_sweep(p65, q65, 10 ** 5, keep_primes=True, workers=1)
    return result, time.monotonic() - start


def test_criterion_1_exact_sequence_values(e37, p37, e65, p65, q65):
    xs = [t.point.x for t in denom_sequence(p37, e37.identity(), 5)]
    ok = xs == [0, 1, -1, 2, Fraction(1, 4)]
    ok &= [t.denominator for t in denom_sequence(p37, e37.identity(), 5)] == [1, 1, 1, 1, 4]

    ok &= p65 + q65 == Point(e65, Fraction(-1), Fraction(1))
    ok &= 2 * p65 + q65 == Point(e65, Fraction(-1, 4), Fraction(-3, 8))
    ok &= [t.denominator for t in denom_sequence(p65, q65, 2)] == [1, 4]

    # independent chord-tangent route through the completed-square model
    oracle = ShortModelCurve(0, 0, 1, -1, 0)
    ok &= oracle.translated_multiples((Fraction(0), Fraction(0)), None, 5) == \
        [(0, 1), (1, 1), (-1, 1), (2, 1), (1, 4)]
    assert report(1, ok, "exact x(nP) and D_n values on 37a and 65a")


def test_criterion_2_canonical_height_and_growth(e37, p37, p65, q65):
    start = time.monotonic()
    est = canonical_height(p37, 1e-3)
    # Standard tables quote 0.0511114 for this point in the doubled
    # (regulator) normalization; the limit definition used here gives half
    # of that. The cross-check oracle h(nP)/(2 n^2), n = 20..30, converges
    # to 0.02555..., matching the limit formula, so that is the frozen
    # target.
    value_ok = abs(est.value - HHAT_37A) <= 1e-3
    doubled = 2 * est.value

    growth_ok = True
    for p_point, q_point, hhat in [(p37, e37.identity(), HHAT_37A), (p65, q65, HHAT_65A)]:
        slope = growth_estimate(p_point, q_point, 40)
        growth_ok &= abs(slope - 2 * hhat) / (2 * hhat) <= 0.15
    elapsed = time.monotonic() - start
    ok = value_ok and growth_ok and elapsed < 60
    assert report(
        2, ok,
        f"hhat(P)={est.value:.6f} (doubled normalization {doubled:.6f} vs tabulated 0.0511), "
        f"growth within 15% of 2*hhat on both fixtures, {elapsed:.1f}s < 60s",
    )


def test_criterion_3_parity(e37, p37, p65, q65):
    start = time.monotonic()
    violations = []
    checked = 0
    for p_point, q_point in [(p37, e37.identity()), (p65, q65)]:
        disc = p_point.curve.discriminant
        small = primes_upto(500)
        for term, part in primitive_parts(denom_sequence(p_point, q_point, 40)):
            candidates = {p for p in small if term.denominator % p == 0}
            if part > 1:
                candidates.update(factorize(part, 1 << 16).factors)
            for p in candidates:
                if disc % p:
                    checked += 1
                    if valuation(term.denominator, p) % 2:
                        violations.append((term.n, p))
    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 120
    assert report(3, ok, f"{checked} (n, p) parity checks, {len(violations)} violations, "
                         f"{elapsed:.1f}s < 120s")


def test_criterion_4_lemma_suite(e37, p37, e65, p65, q65):
    tol = 1e-6

    law_ok = True
    div_ok = True
    for p_point, bad in [(p37, {2, 37}), (p65, {2, 5, 13})]:
        denoms = [t.denominator for t in denom_sequence(p_point, p_point.curve.identity(), 40)]
        candidates = set()
        history = []
        for d in denoms:
            candidates.update(p for p in primes_upto(500) if d % p == 0)
            candidates.update(factorize(strip_history(d, history), 1 << 14).factors)
            history.append(d)
        candidates -= bad
        for m in range(1, 41):
            for p in candidates:
                e = valuation(denoms[m - 1], p) if denoms[m - 1] % p == 0 else 0
                if e == 0:
                    continue
                for k in range(2, 40 // m + 1):
                    if valuation(denoms[m * k - 1], p) != e + 2 * valuation(k, p):
                        law_ok = False
        for n in range(1, 41):
            for m in range(1, n):
                if n % m == 0 and denoms[n - 1] % denoms[m - 1]:
                    div_ok = False

    quad_ok = True
    for p_point, q_point in [(p37, e37.identity()), (p65, q65)]:
        base = canonical_height(p_point, 1e-5)
        translate = canonical_height(q_point, 1e-5)
        pair_slack = base.value + translate.value + base.error_bound + translate.error_bound
        for n in range(1, 31):
            lhs = canonical_height(n * p_point + q_point, 0.05)
            rhs = canonical_height(n * p_point, 0.05)
            slack = n * pair_slack + lhs.error_bound + rhs.error_bound + 5 * tol
            if lhs.value < rhs.value - slack:
                quad_ok = False
    ok = law_ok and div_ok and quad_ok
    assert report(4, ok, f"formal-group law {'ok' if law_ok else 'VIOLATED'}, "
                         f"divisibility {'ok' if div_ok else 'VIOLATED'}, "
                         f"height inequality {'ok' if quad_ok else 'VIOLATED'} (5*tol slack, tol=1e-6)")


def test_criterion_5_theorem1_exception_list(p65, q65):
    exceptions = [
        term.n for term, part in primitive_parts(denom_sequence(p65, q65, 60))
        if term.n >= 2 and part == 1
    ]

    oracle = ShortModelCurve(1, 0, 0, -1, 0)
    denoms = [d for _, d in oracle.translated_multiples(
        (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)), 60)]
    oracle_exceptions = [
        n for n in range(2, 61) if strip_history(denoms[n - 1], denoms[: n - 1]) == 1
    ]

    ok = exceptions == EXCEPTION_LIST_65A and oracle_exceptions == EXCEPTION_LIST_65A
    assert report(5, ok, f"exception list {exceptions} == frozen {EXCEPTION_LIST_65A} "
                         f"(oracle agrees: {oracle_exceptions == exceptions})")


@pytest.mark.parametrize("name", sorted(NON_PRIMITIVE_WINDOWS))
def test_frozen_non_primitive_windows(name):
    fixture = load_fixture(str(FIXTURES / f"{name}.fixture"))
    missing = [term.n for term, part in primitive_parts(denom_sequence(fixture.p, fixture.q, 80))
               if part == 1]
    assert missing == NON_PRIMITIVE_WINDOWS[name]


def test_criterion_6_mod_p_suite(e37, e65, p65, q65):
    dual = 0
    ok = True
    for curve in (e37, e65):
        for p in primes_upto(2000):
            if curve.discriminant % p == 0:
                continue
            cp = reduce_curve(curve, p)
            enumerated = group_order_by_enumeration(cp)
            if group_order(cp) != enumerated or (enumerated - p - 1) ** 2 > 4 * p:
                ok = False
            dual += 1

    cp2 = reduce_curve(e65, 2)
    member2 = in_cyclic_subgroup(reduce_point(q65, cp2), reduce_point(p65, cp2))
    cp3 = reduce_curve(e65, 3)
    member3 = in_cyclic_subgroup(reduce_point(q65, cp3), reduce_point(p65, cp3))
    ok = ok and member2 == (True, 2) and member3 == (False, None)
    assert report(6, ok, f"group_order == enumeration and Hasse for {dual} good p < 2000; "
                         f"membership p=2 -> {member2}, p=3 -> {member3}")


def test_criterion_7_growth_of_orbit_counts(p65, q65, sweep_1e5):
    result, elapsed = sweep_1e5
    members = result.member_primes
    counts = {x: sum(1 for p in members if p <= x) for x in (100, 1000, 10000, 100000)}
    increasing = counts[100] < counts[1000] < counts[10000] < counts[100000]
    baseline_ok = counts == SWEEP_65A_BASELINE

    primes = primes_upto(10 ** 5)
    left = sweep_primes(p65, q65, primes[: len(primes) // 2])
    right = sweep_primes(p65, q65, primes[len(primes) // 2:])
    partition_ok = left[0] + right[0] == result.count

    hhat = canonical_height(p65, 1e-6).value
    corollary = 1 / math.sqrt(2 * hhat)
    relaxed = 0.5 * corollary
    ratio_ok = result.ratio >= relaxed   # report-only threshold; see detail line

    ok = increasing and baseline_ok and partition_ok and elapsed < 600
    assert report(
        7, ok,
        f"counts {counts} strictly increasing and matching frozen baseline, "
        f"sweep {elapsed:.1f}s < 600s, partition-independent; "
        f"ratio {result.ratio:.1f} vs corollary liminf {corollary:.2f} "
        f"(relaxed threshold {relaxed:.2f}: {'met' if ratio_ok else 'NOT met (report only)'})",
    )


def test_criterion_8_omega_lower_bound(p65, q65):
    terms = list(denom_sequence(p65, q65, 40))
    omega = omega_product(terms, factor_budget=1 << 16)
    bad = bad_set(q65)
    bound = 40 - len(EXCEPTION_LIST_65A) - len(bad.primes)
    ok = omega.count >= bound
    assert report(8, ok, f"omega(prod D_n, n<=40) >= {omega.count} "
                         f"({'exact' if omega.is_exact else 'certified lower bound'}) "
                         f">= {bound} = 40 - {len(EXCEPTION_LIST_65A)} exceptions - "
                         f"{len(bad.primes)} bad primes")
