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
    coprime_triple_reference,
    curve_points,
    discrete_log_reference,
    fp_mul,
    intercept_form_add,
    order_from_multiple_reference,
    random_point,
    sqrt_mod,
    sweep_primes_reference,
)
from elldiv import modp
from elldiv.cli import load_fixture
from elldiv.denominators import denom_sequence
from elldiv.modp import (
    MESTRE_BOUND,
    BadReductionError,
    FpPoint,
    _annihilator,
    _fixed_character,
    _half_split,
    _half_x,
    _hasse_interval,
    _order_two_member,
    _short_add,
    _short_model,
    _short_mul,
    _square_root,
    _to_short,
    _triple,
    group_order,
    group_order_by_enumeration,
    in_cyclic_subgroup,
    lang_trotter_sweep,
    point_order,
    reduce_curve,
    reduce_point,
    sweep_primes,
)
from elldiv.numtheory import factorize, primes_upto
from elldiv.rational_ec import SingularCurveError, TorsionPointError, WeierstrassCurve, torsion_order

# 65a member primes up to 200; cross-checked against the orbit-walk oracle
# below (test_membership_witness_is_sound covers every p <= 300)
MEMBERS_65A_UPTO_200 = [2, 17, 41, 73, 89, 97, 109, 113, 137, 149, 157, 193, 197]
SWEEP_65A = {100: 6, 1000: 43, 3000: 117}
SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fresh_python(code, **env):
    """stdout of code run in a new interpreter on this checkout's src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, **env, "PYTHONPATH": path}, check=True)
    return done.stdout


def _euler(v, p):
    """The Legendre symbol (v/p) by Euler's criterion, as 1 or -1 (-1 at p | v)."""
    return 1 if pow(v % p, (p - 1) // 2, p) == 1 else -1


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


@pytest.fixture
def modp_calls(monkeypatch):
    """The steps of every modp._annihilator call and the n of every modp.factorize call."""
    calls = {"_annihilator": [], "factorize": []}
    real_annihilator, real_factorize = modp._annihilator, modp.factorize

    def annihilator(p, big_a, a, step=1):
        calls["_annihilator"].append(step)
        return real_annihilator(p, big_a, a, step)

    def factorize(n, *args, **kwargs):
        calls["factorize"].append(n)
        return real_factorize(n, *args, **kwargs)

    monkeypatch.setattr(modp, "_annihilator", annihilator)
    monkeypatch.setattr(modp, "factorize", factorize)
    return calls


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
            o = point_order(reduced)
            assert order % o == 0
            assert ((o * reduced).is_identity and
                    all(not ((o // q) * reduced).is_identity
                        for q in {2, 3, 5, 7} if o % q == 0))
            for k in (2, 3, 5):
                assert point_order(k * reduced) == o // gcd(k, o)


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
            assert 0 <= witness < point_order(p_reduced)
            assert witness * p_reduced == q_reduced


def test_membership_of_affine_q_with_identity_p(e37, p37):
    # 5P reduces to the identity mod 2; affine points are not in <O>
    cp = reduce_curve(e37, 2)
    identity_p = reduce_point(5 * p37, cp)
    assert identity_p.is_identity
    affine_q = reduce_point(p37, cp)
    assert in_cyclic_subgroup(affine_q, identity_p) == (False, None)
    assert in_cyclic_subgroup(identity_p, affine_q)[0] is True


@pytest.mark.parametrize("name", sorted(f.stem for f in FIXTURES.glob("*.fixture")))
def test_triple_matches_the_lcm_gcd_reference(name):
    fixture = load_fixture(str(FIXTURES / f"{name}.fixture"))
    for term in denom_sequence(fixture.p, fixture.q, 40):
        for point in (term.point, -term.point):
            assert _triple(point) == coprime_triple_reference(point)


def test_triple_of_a_non_integral_point():
    q = WeierstrassCurve(1, 0, 0, -4, -1).point(Fraction(-1, 4), Fraction(1, 8))
    for point in (q, -q, q.curve.identity()):
        assert _triple(point) == coprime_triple_reference(point)
    assert _triple(q) == (-2, 1, 8)


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


def test_sweep_examples(e37, p37, p65, q65, modp_calls):
    # Q = O is in every subgroup: every good prime counts, with no search
    # and nothing factored
    primes = primes_upto(10 ** 4)
    swept = sweep_primes(p37, e37.identity(), primes)
    assert modp_calls == {"_annihilator": [], "factorize": []}
    good = [p for p in primes if p != 37]
    assert swept == (len(good), good, [37])
    result = lang_trotter_sweep(p37, e37.identity(), 10)
    assert result.count == 4 and result.skipped_bad == []
    assert lang_trotter_sweep(p65, q65, 3).count == 1
    empty = lang_trotter_sweep(p65, q65, 1)
    assert empty.count == 0 and empty.ratio == 0.0 and empty.member_primes is None


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


def test_sweep_matches_orbit_walk_beyond_order_two(oracle_case, modp_calls):
    # a torsion Q of order t: every search steps by t, and t is the one
    # number factored; a Q of infinite order: M is factored once per prime
    p_point, q_point, bad = oracle_case
    primes = primes_upto(3000)
    count, members, skipped = sweep_primes(p_point, q_point, primes)
    assert skipped == bad
    t = torsion_order(q_point)
    if t is None:
        assert set(modp_calls["_annihilator"]) == {1}
        assert len(modp_calls["factorize"]) == len([p for p in primes[2:] if p not in bad])
    else:
        assert set(modp_calls["_annihilator"]) == {t} and modp_calls["factorize"] == [t]
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
        member, witness = in_cyclic_subgroup(q_reduced, p_reduced)
        if member:
            assert 0 <= witness < point_order(p_reduced)
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
        if p <= 7:      # random_point needs p odd; count the points instead
            points = [(x, y) for x in range(p) for y in range(p) if FpPoint(cp, x, y).on_curve()]
            a, r = (rng.choice(points), rng.choice(points)) if points else (None, None)
        else:
            a, r = random_point(cp, rng), random_point(cp, rng)
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
        tiny_primes += cp.p <= 7
        # from walking the multiples at p <= 3, from the annihilator above
        assert point_order(FpPoint(cp, *a)) == order
        if cp.p <= 3:   # no short model
            continue
        q_order = 1 if q is None else order_from_multiple_reference(cp, q, annihilator_smallest(cp, q))
        lo, hi = _hasse_interval(cp.p)
        p, big_a, short_a = _to_short(cp, a)
        for step in (1, q_order):
            m = _annihilator(p, big_a, short_a, step)
            assert m > 0 and m % order == 0, (cp, a, step, m)
            s = isqrt((hi - lo) // step) // 2 + 1
            small_orders += order <= 2 * s
    assert small_orders >= 500 and tiny_primes >= 300


def test_membership_matches_the_oracle_route(random_membership_cases):
    members = 0
    for cp, a, q in random_membership_cases:
        p_point, q_point = FpPoint(cp, *a), cp.identity() if q is None else FpPoint(cp, *q)
        k = discrete_log_reference(cp, a, q)
        assert in_cyclic_subgroup(q_point, p_point) == (k is not None, k)
        members += k is not None
    assert 300 <= members <= 1700


@pytest.mark.parametrize("name", sorted(CURVES))
def test_sweep_matches_the_oracle_route(name):
    p_point, q_point = curve_points(name)
    primes = primes_upto(4 * 10 ** 4)
    assert sweep_primes(p_point, q_point, primes) == sweep_primes_reference(p_point, q_point, primes)


@pytest.mark.parametrize("name", sorted(path.stem for path in FIXTURES.glob("*.fixture")))
def test_sweep_matches_a_brute_force_orbit_walk_below_600(name):
    # at every good p < 600 on every shipped fixture, Q mod p is a member
    # exactly when walking P, 2P, 3P, ... mod p reaches it before O, on the
    # oracle's intercept-form law; no search and no character takes part
    fixture = load_fixture(str(FIXTURES / f"{name}.fixture"))
    curve = fixture.curve
    coeffs = (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)
    primes = primes_upto(600)

    def reduced(point, p):
        if point.is_identity or point.x.denominator % p == 0:
            return None
        return tuple(v.numerator * pow(v.denominator, -1, p) % p for v in (point.x, point.y))

    expected = []
    for p in primes:
        if curve.discriminant % p:
            a, q = reduced(fixture.p, p), reduced(fixture.q, p)
            walk = a
            while walk is not None and walk != q:
                walk = intercept_form_add(coeffs, walk, a, p)
            expected += [p] * (walk == q)
    bad = [p for p in primes if curve.discriminant % p == 0]
    assert sweep_primes(fixture.p, fixture.q, primes) == (len(expected), expected, bad)


def test_order_finding_points_do_not_depend_on_the_hash_seed():
    # the generator's seed is text, so str hash randomisation cannot reach it
    primes = [p for p in primes_upto(MESTRE_BOUND + 200) if p > MESTRE_BOUND][:3]
    code = (
        "import random\n"
        "from elldiv import WeierstrassCurve\n"
        "from elldiv.modp import _seed, reduce_curve\n"
        "curve = WeierstrassCurve(1, 0, 0, -1, 0)\n"
        f"for p in {primes}:\n"
        "    rng = random.Random(_seed(reduce_curve(curve, p)))\n"
        "    print(p, [rng.randrange(p) for _ in range(4)])\n"
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


def test_pooled_calls_import_no_executor():
    # the pool forks directly: concurrent.futures and multiprocessing stay unloaded
    code = (
        "import sys\n"
        "import elldiv\n"
        "from elldiv.denominators import denom_sequence, primitive_reports\n"
        "curve = elldiv.WeierstrassCurve(1, 0, 0, -1, 0)\n"
        "p, q = curve.point(1, 0), curve.point(0, 0)\n"
        "result = elldiv.lang_trotter_sweep(p, q, 2000, workers=2)\n"
        "reports = primitive_reports(denom_sequence(p, q, 10), workers=2)\n"
        "loaded = {'concurrent.futures', 'multiprocessing'} & set(sys.modules)\n"
        "print(result.count, len(reports), sorted(loaded))\n"
    )
    assert _fresh_python(code) == "79 10 []\n"


def test_one_chunk_or_one_worker_starts_no_pool():
    # 46 primes make one share, and one worker runs in this process either
    # way; os.fork is stubbed to raise, so a fork would fail the run
    code = (
        "import os\n"
        "def no_fork():\n"
        "    raise AssertionError('forked')\n"
        "os.fork = no_fork\n"
        "import elldiv\n"
        "from elldiv.denominators import denom_sequence, primitive_reports\n"
        "curve = elldiv.WeierstrassCurve(1, 0, 0, -1, 0)\n"
        "p, q = curve.point(1, 0), curve.point(0, 0)\n"
        "result = elldiv.lang_trotter_sweep(p, q, 200, workers=2)\n"
        "reports = list(primitive_reports(denom_sequence(p, q, 10), workers=1))\n"
        "print(result.count, len(reports))\n"
    )
    assert _fresh_python(code) == "13 10\n"


def test_pooled_primitive_reports_sieve_the_trial_table_once(tmp_path):
    # 65a's parts to n = 40 reach 2^38, where factorize needs the whole 10^6
    # table: at 2 workers the caller sieves it once, before the fork, and the
    # forked child inherits it. Each 10^6 sieve writes its pid to a file.
    log = tmp_path / "sieves"
    code = (
        "import os\n"
        "from elldiv import numtheory\n"
        "from elldiv.cli import load_fixture\n"
        "from elldiv.denominators import denom_sequence, primitive_reports\n"
        "real = numtheory._prime_runs\n"
        "def runs(limit):\n"
        "    if limit == numtheory.TRIAL_DIVISION_BOUND:\n"
        f"        with open({str(log)!r}, 'a') as out:\n"
        "            out.write(f'{os.getpid()}\\n')\n"
        "    return real(limit)\n"
        "numtheory._prime_runs = runs\n"
        f"fixture = load_fixture({str(FIXTURES / '65a.fixture')!r})\n"
        "terms = list(denom_sequence(fixture.p, fixture.q, 40))\n"
        "two = primitive_reports(terms, 65536, workers=2)\n"
        "print(os.getpid(), two == primitive_reports(terms, 65536, workers=1))\n"
    )
    pid, same = _fresh_python(code).split()
    assert same == "True"
    assert log.read_text().split() == [pid]


def test_short_model_map_is_an_isomorphism():
    # random curves with a1 and a3 nonzero, at good primes 5 <= p <= 2*10^5
    rng = random.Random(20261019)
    pools = ((5, 7, 11, 13), primes_upto(1000)[2:], primes_upto(2 * 10 ** 5)[2:])
    checked = 0
    while checked < 300:
        p = rng.choice(rng.choice(pools))
        coeffs = [rng.randrange(1, p), rng.randrange(p), rng.randrange(1, p),
                  rng.randrange(p), rng.randrange(p)]
        try:
            cp = reduce_curve(WeierstrassCurve(*coeffs), p)
        except (SingularCurveError, BadReductionError):
            continue
        big_b = _short_model(cp)[1] % p
        a, b = FpPoint(cp, *random_point(cp, rng)), FpPoint(cp, *random_point(cp, rng))
        k = rng.randrange(1, 2 * p)
        general = [a, b, a + b, a + a, -a, a - a, k * a]
        _, big_a, *short = _to_short(cp, *(pt._tuple() for pt in general))
        sa, sb, s_sum, s_double, s_neg, s_zero, s_multiple = short
        for image in short:
            assert image is None or (image[1] ** 2 - image[0] ** 3 - big_a * image[0] - big_b) % p == 0
        assert s_sum == _short_add(p, big_a, sa, sb)
        assert s_double == _short_add(p, big_a, sa, sa)
        assert s_neg == (sa[0], -sa[1] % p) and s_zero is None
        assert _short_add(p, big_a, sa, s_neg) is None
        assert s_multiple == _short_mul(p, big_a, k, sa)
        checked += 1


def test_sweep_at_the_walk_boundary_matches_the_orbit_walk(oracle_case):
    # p = 2 and 3 walk the multiples of P on the general model; 5 and 7 map
    # to the short model. The order-3 and order-4 cases have t divisible by
    # a good prime 3 resp. 2 here
    p_point, q_point, bad = oracle_case
    primes = [2, 3, 5, 7]
    _, members, skipped = sweep_primes(p_point, q_point, primes)
    assert skipped == [p for p in primes if p in bad]
    expected = []
    for p in primes:
        if p not in bad:
            cp = reduce_curve(p_point.curve, p)
            p_reduced, q_reduced = reduce_point(p_point, cp), reduce_point(q_point, cp)
            member = orbit_walk_member(cp, p_reduced, q_reduced)
            assert in_cyclic_subgroup(q_reduced, p_reduced)[0] == member
            expected += [p] if member else []
    assert members == expected


def test_group_order_matches_enumeration_above_the_mestre_bound():
    # the twist of the short model decides #E at every good p in (229, 1500]
    for name in sorted(CURVES):
        curve = curve_points(name)[0].curve
        for p in primes_upto(1500):
            if p > MESTRE_BOUND and curve.discriminant % p:
                cp = reduce_curve(curve, p)
                assert group_order(cp) == group_order_by_enumeration(cp), (name, p)


def _order_two_cases(count, seed):
    """(P, Q) with Q of order 2 and P of infinite order.

    65a; the order2-a fixture, where the quadratic characters also find
    members; y^2 = x^3 + 3x with P = 3 (3, 6) = (27/121, -1098/1331), which
    reduces to O at p = 11; then count seeded curves y^2 = x^3 + ax^2 + bx
    moved by x -> x + r, y -> y + sx + t to general models with a1, a3 != 0.
    The first five also come with P replaced by 2P + Q, so that P = Q mod p
    at some p.
    """
    e65, fixture, cubic = (WeierstrassCurve(*c) for c in
                           [(1, 0, 0, -1, 0), (0, -1, 0, -3, 0), (0, 0, 0, 3, 0)])
    cases = [(e65.point(1, 0), e65.point(0, 0)), (fixture.point(3, 3), fixture.point(0, 0)),
             (3 * cubic.point(3, 6), cubic.point(0, 0))]
    rng, seeded = random.Random(seed), 0
    while seeded < count:
        a, b = rng.randint(-12, 12), rng.randint(-12, 12)
        squares = {x: v for x in range(-12, 40)
                   if (v := x ** 3 + a * x * x + b * x) > 0 and isqrt(v) ** 2 == v}
        if b == 0 or a * a == 4 * b or not squares:
            continue
        x = rng.choice(sorted(squares))
        nonzero = (-3, -2, -1, 1, 2, 3)
        r, s, t = rng.randint(-5, 5), rng.choice(nonzero), rng.choice(nonzero)
        curve = WeierstrassCurve(2 * s, 3 * r + a - s * s, 2 * t, 3 * r * r + 2 * a * r + b - 2 * s * t,
                                 r ** 3 + a * r * r + b * r - t * t)
        p_point = curve.point(x - r, isqrt(squares[x]) - s * (x - r) - t)
        q_point = curve.point(-r, s * r - t)
        if torsion_order(p_point) is None:
            cases += [(p_point, q_point)] + [(2 * p_point + q_point, q_point)] * (seeded < 5)
            seeded += 1
    return cases


def _order_two_route(cp, big_a, a, e):
    """(route, roots, D) of Q = (e, 0) and a on y^2 = x^3 + Ax + B mod p, worked out here.

    roots are those of x^3 + Ax + B in F_p and D the points of order 2 whose
    characters of x - e_i are all 1, the doubles. route is "cyclic" or "full"
    where the characters decide with E(F_p)[2] = {O, Q}, or with a of order
    at most 2 or |D| = 0; "member" or "non-member" where they decide with
    |D| = 1; 4 where a and Q halve with E(F_p)[2] = {O, Q}, so that Z/4
    lies in E(F_p); "lockstep" where chains of halves decide with |D| = 1;
    "E[4]" where |D| = 3 and #E(F_p) has 2-adic valuation 4, so that the
    2-Sylow is E[4]; else 16, the step of the 2-part walk.
    """
    p = cp.p

    def square(v):
        return pow(v % p, (p - 1) // 2, p) == 1

    root, half = sqrt_mod(-3 * e * e - 4 * big_a, p), (p + 1) // 2
    if root is None:                            # E(F_p)[2] = {O, Q}
        q_double = square(3 * e * e + big_a)
        plain = a is None or a[0] == e or not square(a[0] - e) or not q_double
        return "cyclic" if plain else 4, [e], [e] if q_double else []
    roots = [e, (root - e) * half % p, (-root - e) * half % p]

    def delta(x):
        return tuple(square(x - r) if x != r else square((r - s) * (r - t))
                     for r, s, t in [roots, roots[1:] + roots[:1], roots[2:] + roots[:2]])

    doubles = [r for r in roots if all(delta(r))]
    if a is None or a[0] in roots or not doubles:
        return "full", roots, doubles
    if len(doubles) == 3:
        order = group_order_by_enumeration(cp)
        return ("E[4]" if order & -order == 16 else 16), roots, doubles
    if doubles == [e]:
        other = delta(roots[1])
        return ("member" if delta(a[0]) not in (delta(e), other) else "lockstep"), roots, doubles
    return ("non-member" if delta(a[0]) != delta(e) else "lockstep"), roots, doubles


def test_order_two_member_agrees_with_the_oracle_route(modp_calls):
    # at every good 5 <= p <= 3000 the verdict is the oracle's, the route is
    # the one the characters of x - e_i call for, the walk's step divides
    # #E(F_p), and the halving routes (4, "lockstep" and "E[4]") walk
    # nothing; each route occurs at least 100 times, the halving and walk
    # routes of full 2-torsion with both verdicts, and P = O, Q and another
    # point of order 2 mod p all occur
    steps = modp_calls["_annihilator"]
    routes, verdicts, reduced_to = {}, set(), {"O": 0, "Q": 0, "T": 0}
    primes = primes_upto(3000)
    for p_point, q_point in _order_two_cases(20, seed=20261019):
        assert torsion_order(q_point) == 2
        reference = sweep_primes_reference(p_point, q_point, primes)
        members = set(reference[1])
        for p in primes[2:]:
            if p in reference[2]:
                continue
            cp = reduce_curve(p_point.curve, p)
            _, big_a, a, (e, zero) = _to_short(cp, reduce_point(p_point, cp)._tuple(),
                                               reduce_point(q_point, cp)._tuple())
            route, roots, doubles = _order_two_route(cp, big_a, a, e)
            assert zero == 0 and len(doubles) in (0, 1, 3), (p_point, p)
            steps.clear()
            chi = [_euler(v, p) for v in
                   (-3 * e * e - 4 * big_a, 3 * e * e + big_a, a[0] - e if a else 0)]
            verdict = _order_two_member(p, big_a, a, e, *chi)
            assert verdict == (p in members), (p_point, p, route)
            if route == 16:
                assert steps == [route] and group_order_by_enumeration(cp) % route == 0, (p_point, p)
            elif route == 4:
                assert not steps and group_order_by_enumeration(cp) % route == 0, (p_point, p)
            else:
                assert not steps and (route, verdict) not in [("member", False), ("non-member", True)]
            routes[route] = routes.get(route, 0) + 1
            verdicts.add((route, verdict))
            if a is None or a[0] in roots:
                reduced_to["O" if a is None else "Q" if a[0] == e else "T"] += 1
        assert sweep_primes(p_point, q_point, primes) == reference
    assert len(routes) == 8 and min(routes.values()) >= 100, routes
    assert {(route, v) for route in ("lockstep", "E[4]", 16) for v in (True, False)} <= verdicts
    assert min(reduced_to.values()) >= 1, reduced_to


def test_half_x_doubles_back_to_the_point():
    # at every prime p < 2000 where 65a or order2-a has E(F_p)[2] = {O, Q},
    # each R = 2S != O (every S up to p = 500, 30 seeded ones above) has a
    # half at the returned x, lifted with _square_root(p); the half from the other
    # X of phi fails that check at every R, so the check catches the wrong square.
    # Where 65a or order2-full has full 2-torsion, _half_split's x lifts to a
    # half of every such R as well; up to p = 500 its class is (1, 1) exactly
    # when brute force finds a half of R in 2E(F_p), and then that half is one
    rng, halved, other_fails = random.Random(27), 0, 0
    rng_split, split, split_in_2e = random.Random(28), 0, 0
    for name in ("65a", "order2-a", "order2-full"):
        fixture = load_fixture(str(FIXTURES / f"{name}.fixture"))
        curve = fixture.curve
        for p in primes_upto(2000)[2:]:
            if curve.discriminant % p == 0:
                continue
            cp = reduce_curve(curve, p)
            _, big_a, (e, _) = _to_short(cp, reduce_point(fixture.q, cp)._tuple())
            big_b, h, root = _short_model(curve)[1] % p, (p - 1) // 2, _square_root(p)
            alpha, beta = 3 * e % p, (3 * e * e + big_a) % p
            full = pow(alpha * alpha - 4 * beta, h, p) == 1
            if name == ("order2-a" if full else "order2-full"):
                continue

            def doubles_to(x, r):
                rhs = (x ** 3 + big_a * x + big_b) % p
                if pow(rhs, h, p) != 1:
                    return False
                half = (x, root(rhs))
                return _short_add(p, big_a, half, half)[0] == r[0]

            xs = range(p) if p <= 500 else [(rng_split if full else rng).randrange(p) for _ in range(30)]
            ss = [(x, y) for x in xs
                  if (y := sqrt_mod(x ** 3 + big_a * x + big_b, p)) is not None]
            doubles = {_short_add(p, big_a, s, s) for s in ss} - {None}
            if full:
                d = sqrt_mod(alpha * alpha - 4 * beta, p)
                roots = (e, (d - e) * (h + 1) % p, (-d - e) * (h + 1) % p)
                classes = tuple(tuple(_euler(v - r if v != r else (r - s) * (r - t), p)
                                      for r, s, t in (roots, roots[1:] + roots[:1]))
                                for v in roots)
                halves_by_x = {}            # x(2S) -> the x(S); 2E is closed under negation
                for s in ss:
                    if (double := _short_add(p, big_a, s, s)) is not None:
                        halves_by_x.setdefault(double[0], []).append(s[0])
                doubles_x = {r[0] for r in doubles}
                for r in doubles:
                    x, delta = _half_split(p, roots, classes, r[0], [root(r[0] - v) for v in roots])
                    assert doubles_to(x, r), (name, p, r)
                    if p <= 500:
                        assert (delta == (1, 1)) == any(
                            v in doubles_x for v in halves_by_x[r[0]]), (name, p, r)
                        assert delta != (1, 1) or x in doubles_x, (name, p, r)
                    split += 1
                    split_in_2e += delta == (1, 1)
                continue
            for r in doubles:
                u = (r[0] - e) % p
                assert doubles_to((_half_x(p, root, alpha, beta, u) + e) % p, r), (name, p, r)
                w = root((u * u + alpha * u + beta) % p)
                other = [big_x for big_x in ((alpha + 2 * u + 2 * w) % p, (alpha + 2 * u - 2 * w) % p)
                         if pow(big_x, h, p) != 1][0]
                d = sqrt_mod((other - alpha) ** 2 - 4 * beta, p)
                other_fails += d is None or not doubles_to(((other - alpha + d) * (h + 1) + e) % p, r)
                halved += 1
    assert halved > 10000 and other_fails == halved, (halved, other_fails)
    assert split > 10000 and 0 < split_in_2e < split, (split, split_in_2e)


@pytest.mark.parametrize("p", [103, 101, 97, 193, 257, 65537])
def test_sqrt_mod_matches_brute_force(p):
    # 103 = 3 mod 4 and 101 = 5 mod 8; the rest are 1 mod 8, 65537 = 2^16 + 1;
    # a = 0 has the root 0
    residues = sorted({r * r % p for r in range(p)})
    sample = residues if p < 1000 else random.Random(p).sample(residues, 3000) + [0, 1, p - 1]
    for a in sample:
        assert _square_root(p)(a) ** 2 % p == a


@pytest.mark.parametrize("p", [103, 101, 97])
def test_sqrt_mod_names_a_non_residue(p):
    # one prime of each route: 3 mod 4, 5 mod 8 and 1 mod 8
    residues = {r * r % p for r in range(p)}
    for a in sorted(set(range(p)) - residues):
        with pytest.raises(ValueError, match=f"^{a} is not a square mod {p}$"):
            _square_root(p)(a)
    assert _square_root(p)(0) == 0


def test_fixed_characters_follow_eulers_criterion():
    # D1, D3 and D2 of three t = 2 fixtures have the characters of disc g,
    # g(e) and x(P) - e at every good p that leaves P off {O, Q}; each D
    # below, read by residue class, agrees with Euler's criterion at every
    # prime p <= 20,000 not dividing 2D. The last D's factorization at
    # budget 0 stays incomplete, so its cofactor stays in the period
    primes = primes_upto(20000)[1:]
    incomplete = 3 * 7 ** 2 * 1000003 * 1000033
    assert not factorize(incomplete, 0).is_complete
    ds = [1, -1, 2, -2, 49 * 121, -49 * 121, incomplete]
    for name in ("65a", "order2-a", "order2-full"):
        fixture = load_fixture(str(FIXTURES / f"{name}.fixture"))
        curve, big_a = fixture.curve, _short_model(fixture.curve)[0]
        (xp, _, zp), (xq, _, zq) = (modp._short_triple(curve, *_triple(pt))
                                    for pt in (fixture.p, fixture.q))
        fixed = (-3 * xq * xq - 4 * big_a * zq * zq, 3 * xq * xq + big_a * zq * zq,
                 (xp * zq - xq * zp) * zp * zq)
        ds += fixed
        for p in primes[1:]:
            if curve.discriminant % p == 0:
                continue
            cp = reduce_curve(curve, p)
            _, a, pp, (e, _) = _to_short(cp, reduce_point(fixture.p, cp)._tuple(),
                                         reduce_point(fixture.q, cp)._tuple())
            if pp is not None and pp[0] != e:
                chars = [_euler(v, p) for v in (-3 * e * e - 4 * a, 3 * e * e + a, pp[0] - e)]
                assert [_euler(d, p) for d in fixed] == chars, (name, p)
    for d in ds:
        chi = _fixed_character(d)
        for p in primes:
            if d % p:
                assert chi(p) == _euler(d, p), (d, p)


def test_order_two_sweep_spends_fewer_eulers_criteria(monkeypatch, modp_calls):
    # 65a's sweep to 10^5 took 84,006 pows with exponent (p - 1)/2 while it
    # evaluated the characters of its three fixed integers at every prime;
    # read by residue class, and with the known characters of the full
    # 2-torsion branch, at most half that remain. Only the primes with all
    # three points of order 2 in 2E(F_p) and a 2-Sylow larger than E[4]
    # walk, at step 16.
    fixture = load_fixture(str(FIXTURES / "65a.fixture"))
    euler = 0

    def counting_pow(base, exp, mod=None):
        nonlocal euler
        euler += mod is not None and exp == (mod - 1) // 2
        return pow(base, exp, mod)

    monkeypatch.setattr(modp, "pow", counting_pow, raising=False)
    result = lang_trotter_sweep(fixture.p, fixture.q, 10 ** 5)
    monkeypatch.delattr(modp, "pow")
    assert result.count == 2685
    assert euler <= 42000, euler
    assert modp_calls["_annihilator"] == [16] * 283


def test_bsgs_told_the_order_spends_fewer_group_operations(monkeypatch):
    # order3's sweep to 10^4 solves logs in <r> of order 3^k; told ord(r),
    # _bsgs settles ord(r) = 3 from r alone instead of finding 3r = O again.
    # Each chord or tangent step takes one inverse, pow(v, -1, p).
    fixture = load_fixture(str(FIXTURES / "order3.fixture"))

    def sweep_and_count():
        inverses = 0

        def counting_pow(base, exp, mod=None):
            nonlocal inverses
            inverses += exp == -1
            return pow(base, exp, mod)

        monkeypatch.setattr(modp, "pow", counting_pow, raising=False)
        result = lang_trotter_sweep(fixture.p, fixture.q, 10 ** 4, keep_primes=True)
        monkeypatch.delattr(modp, "pow")
        return result, inverses

    told, told_inverses = sweep_and_count()
    real_bsgs = modp._bsgs
    monkeypatch.setattr(modp, "_bsgs", lambda p, big_a, b, target, lo, hi, order=None:
                        real_bsgs(p, big_a, b, target, lo, hi))
    untold, untold_inverses = sweep_and_count()
    assert told == untold
    assert told_inverses < untold_inverses


@pytest.mark.parametrize("name", ["37a", "65a", "order4"])
def test_general_addition_matches_the_intercept_form(name):
    coeffs = CURVES[name][0]
    a1, a2, a3, a4, a6 = coeffs
    curve = WeierstrassCurve(*coeffs)
    for p in (2, 3, 5, 7, 11, 13, 17, 29):
        if curve.discriminant % p == 0:
            continue
        cp = reduce_curve(curve, p)
        points = [None] + [(x, y) for x in range(p) for y in range(p)
                           if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % p == 0]
        for a in points:
            for b in points:
                assert modp._add(cp, a, b) == intercept_form_add(coeffs, a, b, p), (p, a, b)
