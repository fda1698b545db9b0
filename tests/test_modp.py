import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest

from _oracles import (
    CURVES,
    ORACLE_CASES,
    annihilator_smallest,
    curve_points,
    discrete_log_reference,
    fp_mul,
    order_from_multiple_reference,
    sweep_primes_reference,
    trial_division_primes,
)
from elldiv.modp import (
    MESTRE_BOUND,
    BadReductionError,
    FpPoint,
    _annihilator,
    _discrete_log,
    _hasse_interval,
    _random_affine,
    group_order,
    group_order_by_enumeration,
    in_cyclic_subgroup,
    lang_trotter_sweep,
    point_order,
    reduce_curve,
    reduce_point,
    sweep_primes,
)
from elldiv.numtheory import primes_upto
from elldiv.rational_ec import SingularCurveError, TorsionPointError, WeierstrassCurve

# 65a member primes up to 200; cross-checked against the orbit-walk oracle
# below (test_membership_witness_is_sound covers every p <= 300)
MEMBERS_65A_UPTO_200 = [2, 17, 41, 73, 89, 97, 109, 113, 137, 149, 157, 193, 197]
SWEEP_65A = {100: 6, 1000: 43, 3000: 117}
SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_python(code, **env):
    """stdout of code run in a new interpreter on this checkout's src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, **env, "PYTHONPATH": path}, check=True)
    return done.stdout


def orbit_walk_member(cp, p_reduced, q_reduced):
    """Reference membership test: walk the whole cyclic group."""
    if q_reduced.is_identity:
        return True
    current = cp.identity()
    while True:
        current = current + p_reduced
        if current == q_reduced:
            return True
        if current.is_identity:
            return False


@pytest.fixture(scope="module", params=sorted(ORACLE_CASES))
def oracle_case(request):
    coeffs, p_xy, q_xy, bad = ORACLE_CASES[request.param]
    curve = WeierstrassCurve(*coeffs)
    return curve.point(*p_xy), curve.point(*q_xy), bad


def test_reduce_curve(e65, e37):
    cp = reduce_curve(e65, 3)
    assert (cp.a1, cp.a2, cp.a3, cp.a4, cp.a6) == (1, 0, 0, 2, 0)
    assert cp.discriminant == 65 % 3
    with pytest.raises(BadReductionError):
        reduce_curve(e65, 5)
    with pytest.raises(BadReductionError):
        reduce_curve(e37, 37)


def test_reduce_point(e37, p37, e65, q65):
    five = 5 * p37                      # (1/4, -5/8); 2 divides D_5 = 4
    assert reduce_point(five, reduce_curve(e37, 2)).is_identity
    cp3 = reduce_curve(e37, 3)
    reduced = reduce_point(five, cp3)
    assert (reduced.x, reduced.y) == (1, 2)
    assert reduced.on_curve()
    assert reduce_point(q65, reduce_curve(e65, 3)) == FpPoint(reduce_curve(e65, 3), 0, 0)
    assert reduce_point(e37.identity(), reduce_curve(e37, 5)).is_identity


def test_group_order_examples(e65, e37):
    assert group_order(reduce_curve(e65, 3)) == 6
    assert group_order(reduce_curve(e65, 2)) == 4
    assert group_order(reduce_curve(e37, 2)) == 5


def test_group_order_dual_route(e37, e65):
    for curve in (e37, e65):
        for p in primes_upto(2000):
            if curve.discriminant % p == 0:
                continue
            cp = reduce_curve(curve, p)
            enumerated = group_order_by_enumeration(cp)
            assert group_order(cp) == enumerated, f"p={p}"
            assert (enumerated - p - 1) ** 2 <= 4 * p  # Hasse


def test_group_order_bsgs_above_enumeration_cutoff(e65):
    # spot-check the twist/BSGS route at large p against enumeration
    for p in (10007, 10937, 20011):
        cp = reduce_curve(e65, p)
        assert group_order(cp) == group_order_by_enumeration(cp)


def test_point_order(e65, p65, q65):
    cp = reduce_curve(e65, 3)
    assert point_order(reduce_point(p65, cp)) == 3
    assert point_order(reduce_point(q65, cp)) == 2
    assert point_order(cp.identity()) == 1


def test_point_order_divides_group_order(e37, p37, e65, p65):
    for curve, point in [(e37, p37), (e65, p65)]:
        for p in primes_upto(300):
            if curve.discriminant % p == 0:
                continue
            cp = reduce_curve(curve, p)
            order = group_order_by_enumeration(cp)
            reduced = reduce_point(point, cp)
            o = point_order(reduced, order)
            assert order % o == 0
            assert ((o * reduced).is_identity and
                    all(not ((o // q) * reduced).is_identity
                        for q in {2, 3, 5, 7} if o % q == 0))
            for k in (2, 3, 5):
                assert point_order(k * reduced, order) == o // gcd(k, o)


def test_membership_examples(e65, p65, q65):
    cp2 = reduce_curve(e65, 2)
    member, witness = in_cyclic_subgroup(reduce_point(q65, cp2), reduce_point(p65, cp2))
    assert member and witness == 2
    cp3 = reduce_curve(e65, 3)
    member, witness = in_cyclic_subgroup(reduce_point(q65, cp3), reduce_point(p65, cp3))
    assert not member and witness is None
    assert in_cyclic_subgroup(cp3.identity(), reduce_point(p65, cp3)) == (True, 0)


def test_membership_witness_is_sound(e65, p65, q65):
    for p in primes_upto(300):
        if 65 % p == 0:
            continue
        cp = reduce_curve(e65, p)
        p_reduced = reduce_point(p65, cp)
        q_reduced = reduce_point(q65, cp)
        member, witness = in_cyclic_subgroup(q_reduced, p_reduced)
        assert member == orbit_walk_member(cp, p_reduced, q_reduced)
        if member:
            assert witness is not None
            assert 0 <= witness < point_order(p_reduced, group_order_by_enumeration(cp))
            assert witness * p_reduced == q_reduced


def test_membership_of_affine_q_with_identity_p(e37, p37):
    # 5P reduces to the identity mod 2; affine points are not in <O>
    cp = reduce_curve(e37, 2)
    identity_p = reduce_point(5 * p37, cp)
    assert identity_p.is_identity
    affine_q = reduce_point(p37, cp)
    assert in_cyclic_subgroup(affine_q, identity_p) == (False, None)
    assert in_cyclic_subgroup(identity_p, affine_q)[0] is True


def test_reduction_is_a_homomorphism(e37, p37, e65, p65, q65):
    cases = [(e37, p37, e37.identity()), (e65, p65, q65)]
    for curve, p_point, q_point in cases:
        for p in primes_upto(200):
            if curve.discriminant % p == 0:
                continue
            cp = reduce_curve(curve, p)
            for a in (1, 2, 3, 5):
                lhs = reduce_point(a * p_point + q_point, cp)
                rhs = a * reduce_point(p_point, cp) + reduce_point(q_point, cp)
                assert lhs == rhs
            # also across terms whose reduction hits the identity
            lhs = reduce_point(5 * p_point + p_point, cp)
            assert lhs == reduce_point(5 * p_point, cp) + reduce_point(p_point, cp)


def test_sweep_counts_match_orbit_walk_oracle(p65, q65):
    result = lang_trotter_sweep(p65, q65, 200, keep_primes=True)
    assert result.member_primes == MEMBERS_65A_UPTO_200
    assert result.count == len(result.member_primes)
    for x, expected in SWEEP_65A.items():
        assert lang_trotter_sweep(p65, q65, x).count == expected


def test_sweep_examples(e37, p37, p65, q65):
    assert lang_trotter_sweep(p65, q65, 3).count == 1
    empty = lang_trotter_sweep(p65, q65, 1)
    assert empty.count == 0 and empty.ratio == 0.0 and empty.member_primes is None
    # Q = O is in every subgroup: every good prime counts
    result = lang_trotter_sweep(p37, e37.identity(), 10)
    assert result.count == 4 and result.skipped_bad == []


def test_sweep_skips_bad_primes(p65, q65):
    result = lang_trotter_sweep(p65, q65, 20)
    assert result.skipped_bad == [5, 13]


def test_sweep_monotone_in_x(p65, q65):
    counts = [lang_trotter_sweep(p65, q65, x).count for x in (10, 50, 100, 500, 1000)]
    assert counts == sorted(counts)


def test_sweep_is_partition_independent(p65, q65):
    primes = primes_upto(2000)
    full = sweep_primes(p65, q65, primes)
    for cut in (1, 7, len(primes) // 2, len(primes) - 3):
        left = sweep_primes(p65, q65, primes[:cut])
        right = sweep_primes(p65, q65, primes[cut:])
        assert left[0] + right[0] == full[0]
        assert sorted(left[1] + right[1]) == full[1]
        assert sorted(left[2] + right[2]) == full[2]
    reference = lang_trotter_sweep(p65, q65, 2000, keep_primes=True)
    assert reference.count == full[0]
    assert reference.member_primes == full[1]


def test_sweep_parallel_matches_serial(p65, q65):
    serial = lang_trotter_sweep(p65, q65, 2000, keep_primes=True, workers=1)
    parallel = lang_trotter_sweep(p65, q65, 2000, keep_primes=True, workers=2)
    assert serial == parallel
    assert lang_trotter_sweep(p65, q65, 2000, keep_primes=True) == serial
    for workers in (0, -2):
        with pytest.raises(ValueError):
            lang_trotter_sweep(p65, q65, 100, workers=workers)


def test_sweep_ratio_definition(p65, q65):
    import math
    result = lang_trotter_sweep(p65, q65, 100)
    assert result.ratio == pytest.approx(result.count / math.sqrt(math.log(100)))


def test_sweep_contains_denominator_divisors(p65, q65):
    # any good p dividing some D_n (n <= 30) must be counted as a member
    from elldiv.denominators import denom_sequence
    members = set(lang_trotter_sweep(p65, q65, 500, keep_primes=True).member_primes)
    divisor_primes = set()
    for term in denom_sequence(p65, q65, 30):
        divisor_primes.update(
            p for p in primes_upto(500) if 65 % p and term.denominator % p == 0
        )
    assert divisor_primes <= members


def test_orbit_counts_increase_on_both_fixtures(e37, p37, p65, q65):
    for p_point, q_point in [(p37, e37.identity()), (p65, q65)]:
        members = lang_trotter_sweep(p_point, q_point, 10 ** 4, keep_primes=True).member_primes
        counts = [sum(1 for p in members if p <= 10 ** k) for k in (2, 3, 4)]
        assert counts[0] < counts[1] < counts[2]


def test_sweep_matches_orbit_walk_beyond_order_two(oracle_case):
    p_point, q_point, bad = oracle_case
    primes = primes_upto(3000)
    count, members, skipped = sweep_primes(p_point, q_point, primes)
    assert skipped == bad
    expected = []
    for p in primes:
        if p not in bad:
            cp = reduce_curve(p_point.curve, p)
            if orbit_walk_member(cp, reduce_point(p_point, cp), reduce_point(q_point, cp)):
                expected.append(p)
    assert members == expected
    assert count == len(expected)


def test_membership_witness_beyond_order_two(oracle_case):
    p_point, q_point, bad = oracle_case
    for p in primes_upto(1000):
        if p in bad:
            continue
        cp = reduce_curve(p_point.curve, p)
        p_reduced, q_reduced = reduce_point(p_point, cp), reduce_point(q_point, cp)
        order = group_order(cp)
        for hint in (None, order):
            member, witness = in_cyclic_subgroup(q_reduced, p_reduced, hint)
            if member:
                assert 0 <= witness < point_order(p_reduced, order)
                assert witness * p_reduced == q_reduced
            else:
                assert witness is None


def test_sweep_parallel_matches_serial_beyond_order_two(oracle_case):
    p_point, q_point, _ = oracle_case
    serial = lang_trotter_sweep(p_point, q_point, 3000, keep_primes=True, workers=1)
    parallel = lang_trotter_sweep(p_point, q_point, 3000, keep_primes=True, workers=2)
    assert serial == parallel


@pytest.mark.parametrize("coeffs,p", [
    ((0, 0, 0, -1, 0), 1000457),   # y^2 = x^3 - x
    ((0, 0, 0, 0, 1), 1003003),    # y^2 = x^3 + 1
])
def test_group_order_bsgs_on_cm_curves_uses_the_twist(coeffs, p):
    # the lcm of point orders on E alone leaves two candidates here
    cp = reduce_curve(WeierstrassCurve(*coeffs), p)
    assert group_order(cp) == group_order_by_enumeration(cp)


def test_sweep_requires_non_torsion_p(q65, e65):
    with pytest.raises(TorsionPointError):
        lang_trotter_sweep(q65, e65.identity(), 100)


def test_hasse_interval_contains_order_for_larger_primes(e37, p37):
    for p in (10007, 31337):
        cp = reduce_curve(e37, p)
        order = group_order(cp)
        assert (order - p - 1) ** 2 <= 4 * p
        reduced = reduce_point(p37, cp)
        assert (order * reduced).is_identity


@pytest.mark.parametrize("name", sorted(ORACLE_CASES) + ["65a"])
def test_sweep_matches_orbit_walk_near_10_5(name):
    # the ± matching and the step by ord(Q mod p) only bite at large p
    p_point, q_point = curve_points(name)
    primes = [p for p in primes_upto(100_200) if p > 100_000][:10]
    _, members, skipped = sweep_primes(p_point, q_point, primes)
    assert skipped == []
    expected = []
    for p in primes:
        cp = reduce_curve(p_point.curve, p)
        if orbit_walk_member(cp, reduce_point(p_point, cp), reduce_point(q_point, cp)):
            expected.append(p)
    assert members == expected


def _random_membership_cases(count, seed):
    """(cp, P, Q) with P != O on random curves mod good primes p <= 2*10^5.

    A quarter of the primes are 2, 3, 5 or 7 and a quarter lie below 1000.
    Half the P are cut down to an order of at most 60, below 2s for the
    larger p. Q is a multiple of P, a point of small order, a random point
    or O.
    """
    rng = random.Random(seed)
    large, medium = primes_upto(2 * 10 ** 5), primes_upto(1000)
    cases = []
    while len(cases) < count:
        pool = rng.choice(((2, 3, 5, 7), medium, large, large))
        p = rng.choice(pool)
        try:
            curve = WeierstrassCurve(*(rng.randrange(p) for _ in range(5)))
            cp = reduce_curve(curve, p)
        except (SingularCurveError, BadReductionError):
            continue
        if p <= 7:      # _random_affine needs p odd; count the points instead
            points = [(x, y) for x in range(p) for y in range(p) if FpPoint(cp, x, y).on_curve()]
            a, r = (rng.choice(points), rng.choice(points)) if points else (None, None)
        else:
            a, r = _random_affine(cp, rng), _random_affine(cp, rng)
        if a is None or r is None:
            continue
        r_order = order_from_multiple_reference(cp, r, annihilator_smallest(cp, r))
        if rng.randrange(2):
            small = [d for d in range(1, 61) if r_order % d == 0]
            a = fp_mul(cp, r_order // rng.choice(small[1:] or small), r) or a
        kind = rng.randrange(4)
        if kind == 0:
            q = fp_mul(cp, rng.randrange(p + 2), a)
        elif kind == 1:
            q = fp_mul(cp, r_order // rng.choice([d for d in range(1, 9) if r_order % d == 0]), r)
        else:
            q = r if kind == 2 else None
        cases.append((cp, a, q))
    return cases


@pytest.fixture(scope="module")
def random_membership_cases():
    return _random_membership_cases(2000, seed=20261018)


def test_annihilator_returns_a_positive_multiple_of_the_order(random_membership_cases):
    small_orders = tiny_primes = 0
    for cp, a, q in random_membership_cases:
        order = order_from_multiple_reference(cp, a, annihilator_smallest(cp, a))
        q_order = 1 if q is None else order_from_multiple_reference(cp, q, annihilator_smallest(cp, q))
        lo, hi = _hasse_interval(cp.p)
        for step in (1, q_order):
            m = _annihilator(cp, a, step)
            assert m > 0 and m % order == 0, (cp, a, step, m)
            s = isqrt((hi - lo) // step) // 2 + 1
            small_orders += order <= 2 * s
        tiny_primes += cp.p <= 7
    assert small_orders >= 500 and tiny_primes >= 300


def test_membership_matches_the_oracle_route(random_membership_cases):
    members = 0
    for cp, a, q in random_membership_cases:
        multiple = annihilator_smallest(cp, a)
        p_point, q_point = FpPoint(cp, *a), cp.identity() if q is None else FpPoint(cp, *q)
        for hint in (None, multiple):
            k = discrete_log_reference(cp, a, q, hint)
            assert in_cyclic_subgroup(q_point, p_point, hint) == (k is not None, k)
        # the sweep's route: annihilator stepped by T = ord(Q), primes of T only
        q_order = 1 if q is None else order_from_multiple_reference(cp, q, annihilator_smallest(cp, q))
        k = _discrete_log(cp, a, q, _annihilator(cp, a, q_order), trial_division_primes(q_order))
        assert (k is not None) == (discrete_log_reference(cp, a, q) is not None)
        members += k is not None
    assert 300 <= members <= 1700


@pytest.mark.parametrize("name", sorted(CURVES))
def test_sweep_matches_the_oracle_route(name):
    p_point, q_point = curve_points(name)
    primes = primes_upto(4 * 10 ** 4)
    assert sweep_primes(p_point, q_point, primes) == sweep_primes_reference(p_point, q_point, primes)


def test_order_finding_points_do_not_depend_on_the_hash_seed():
    # the generator's seed is text, so str hash randomisation cannot reach it
    primes = [p for p in primes_upto(MESTRE_BOUND + 200) if p > MESTRE_BOUND][:3]
    code = (
        "import random\n"
        "from elldiv import WeierstrassCurve\n"
        "from elldiv.modp import _random_affine, _seed, reduce_curve\n"
        "curve = WeierstrassCurve(1, 0, 0, -1, 0)\n"
        f"for p in {primes}:\n"
        "    cp = reduce_curve(curve, p)\n"
        "    rng = random.Random(_seed(cp))\n"
        "    print(p, [_random_affine(cp, rng) for _ in range(4)])\n"
    )
    runs = [_fresh_python(code, PYTHONHASHSEED=seed) for seed in ("1", "2")]
    assert runs[0] == runs[1] and len(runs[0].splitlines()) == 3


def test_no_hashlib_after_setup_and_a_pooled_sweep():
    # hashlib loads OpenSSL, which would add megabytes to every command
    code = (
        "import sys\n"
        "import elldiv, elldiv.cli\n"
        "elldiv.factorize(4)\n"
        "curve = elldiv.WeierstrassCurve(1, 0, 0, -1, 0)\n"
        "result = elldiv.lang_trotter_sweep(curve.point(1, 0), curve.point(0, 0), 2000, workers=2)\n"
        "print(result.count, sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    assert _fresh_python(code) == "79 []\n"
