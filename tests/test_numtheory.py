import bisect
import math
import random
from array import array

import pytest

from _oracles import brent_rho_reference, factorize_by_prime_loop
from elldiv.denominators import denom_sequence, primitive_parts
from elldiv.numtheory import (
    DEFAULT_RHO_BUDGET,
    TRIAL_CHUNK,
    TRIAL_DIVISION_BOUND,
    Factorization,
    _brent_rho,
    _small_primes,
    _strong_lucas_probable_prime,
    divisor_count,
    factorize,
    is_prime,
    primes_upto,
    valuation,
)

# the least strong pseudoprimes to the first 12 and 13 prime bases
# (Sorenson & Webster, Math. Comp. 86, 2017)
PSI_12_FACTORS = (399165290221, 798330580441)
PSI_13_FACTORS = (1287836182261, 2575672364521)
PSI_12 = math.prod(PSI_12_FACTORS)
PSI_13 = math.prod(PSI_13_FACTORS)


def simple_sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i, f in enumerate(flags) if f]


def trial_division_is_prime(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def test_primes_upto_small():
    assert primes_upto(10) == [2, 3, 5, 7]
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(0) == []


def test_primes_upto_matches_simple_sieve():
    assert primes_upto(10 ** 5) == simple_sieve(10 ** 5)


def test_primes_upto_matches_simple_sieve_at_every_limit_to_3000():
    reference = simple_sieve(3000)
    for limit in range(3001):
        assert primes_upto(limit) == reference[: bisect.bisect_right(reference, limit)]


def test_primes_upto_one_million():
    primes = primes_upto(10 ** 6)
    assert len(primes) == 78_498 and primes[-1] == 999_983
    # the trial-division table holds the same primes in 4-byte entries
    table = _small_primes()
    assert isinstance(table, array) and table.itemsize == 4
    assert table.tolist() == primes_upto(TRIAL_DIVISION_BOUND) == primes


def test_primes_upto_segmentation_boundaries():
    # force several segments to make sure the stitching is seamless
    assert primes_upto(10 ** 4, segment_size=64) == simple_sieve(10 ** 4)
    # odd-only start offsets go wrong, if at all, where a p^2 or the limit
    # meets a segment edge; the segment k >= 1 starts at 3 + 2 k size
    reference = simple_sieve(10 ** 4)
    squares = [p * p for p in reference if p < 100]
    for size in (1, 2, 3, 7, 64):
        edges = [3 + 2 * k * size for k in range(1, 40)]
        for limit in sorted({m + d for m in squares + edges for d in (-2, -1, 0, 1)}):
            expected = reference[: bisect.bisect_right(reference, limit)]
            assert primes_upto(limit, segment_size=size) == expected, (size, limit)


def test_primes_upto_entries_pass_trial_division():
    for p in primes_upto(2000):
        assert trial_division_is_prime(p)


@pytest.mark.parametrize("n,expected", [
    (0, False), (1, False), (2, True), (3, True), (4, False),
    (561, False),             # Carmichael
    (7919, True),
    (2 ** 61 - 1, True),      # Mersenne prime
    (2 ** 61 + 1, False),
    (10 ** 12 + 39, True),
    (PSI_12, False),          # passes the strong tests to bases 2..37
    (PSI_13, False),          # passes bases 2..41: decided by BPSW
    (PSI_13 + 2, False),
    (2 ** 89 - 1, True),      # Mersenne primes above psi_13
    (2 ** 521 - 1, True),
    ((2 ** 89 - 1) * (2 ** 107 - 1), False),
    ((2 ** 89 - 1) ** 2, False),
])
def test_is_prime(n, expected):
    assert is_prime(n) is expected


def test_strong_lucas_test_passes_exactly_primes_and_known_pseudoprimes():
    # the odd composites below 10^5 that pass: OEIS A217255
    pseudoprimes = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
                    58519, 75077, 97439]
    primes = set(primes_upto(10 ** 5))
    passing = [n for n in range(5, 10 ** 5, 2) if _strong_lucas_probable_prime(n)]
    assert [n for n in passing if n not in primes] == pseudoprimes
    assert primes - {2, 3} <= set(passing)


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(37, 2) == 0
    assert valuation(-8, 2) == 3
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_divisor_count():
    assert divisor_count(12) == 6
    assert divisor_count(1) == 1
    for p in (2, 3, 97, 104729):
        assert divisor_count(p) == 2


def test_factorize_examples():
    assert factorize(65).factors == {5: 1, 13: 1}
    one = factorize(1)
    assert one.factors == {} and one.unfactored_cofactor == 1 and one.is_complete
    assert factorize(37888).factors == {2: 10, 37: 1}
    for n, pair in ((PSI_12, PSI_12_FACTORS), (PSI_13, PSI_13_FACTORS)):
        fac = factorize(n)
        assert sorted(fac.factors.items()) == [(pair[0], 1), (pair[1], 1)]
        assert fac.is_complete


def test_factorize_prime_square_beyond_trial_bound():
    q = 10 ** 7 + 19
    fac = factorize(q * q)
    assert fac.factors == {q: 2} and fac.is_complete


def test_factorize_budget_exhaustion_is_flagged():
    # product of two primes above the trial bound, no rho budget at all
    a, b = 10 ** 7 + 19, 10 ** 7 + 79
    fac = factorize(a * b, rho_budget=0)
    assert not fac.is_complete
    assert fac.unfactored_cofactor == a * b
    assert fac.value == a * b


def test_factorize_reconstructs_random_inputs():
    rng = random.Random(20240817)
    for _ in range(10 ** 4):
        n = rng.randrange(1, 10 ** 12)
        fac = factorize(n)
        assert fac.is_complete, n
        assert fac.value == n
        assert all(is_prime(p) for p in fac.factors)


def _factorization_inputs():
    primes = primes_upto(10 ** 6)
    last_start = (len(primes) - 1) // TRIAL_CHUNK * TRIAL_CHUNK
    # the last prime of one trial-division chunk and the first of the next
    edges = [primes[k + d] for k in (TRIAL_CHUNK, 2 * TRIAL_CHUNK, last_start) for d in (-1, 0)]
    inputs = [
        math.prod(edges),
        edges[0] ** 2, edges[1] ** 2, edges[0] * edges[1],
        edges[0] ** 2 * edges[1] ** 3 * edges[-1],
        edges[-2] * edges[-1],
        2 ** 5 * edges[-1] ** 2,
        999983, 999983 ** 2, 2 * 999983, 999983 * 1000003,
        (10 ** 6 + 3) ** 2, (10 ** 6 + 3) ** 3, 6 * (10 ** 6 + 3) ** 2,
        (10 ** 7 + 19) ** 3, (10 ** 6 + 3) ** 2 * (10 ** 7 + 19) ** 3,
        1000003 * 1000033, (10 ** 7 + 19) * (10 ** 7 + 79),
        3 * 1000003 * 1000033 * 999983,
    ]
    rng = random.Random(615)
    return inputs + [rng.randrange(2, 10 ** 12) for _ in range(300)]


def _same_factorization(n, budget):
    got, want = factorize(n, budget), factorize_by_prime_loop(n, budget)
    assert list(got.factors.items()) == list(want.factors.items()), (n, budget)
    assert got.unfactored_cofactor == want.unfactored_cofactor, (n, budget)


@pytest.mark.parametrize("budget", [0, 1 << 10, DEFAULT_RHO_BUDGET])
def test_factorize_matches_prime_loop_oracle(budget):
    for n in _factorization_inputs():
        _same_factorization(n, budget)


def test_factorize_matches_prime_loop_oracle_on_primitive_parts(p65, q65):
    for _, part in primitive_parts(denom_sequence(p65, q65, 40)):
        _same_factorization(part, 1 << 16)


def test_brent_rho_stops_at_its_budget_and_matches_the_uncut_route():
    # the last Brent cycle is cut to what the budget has left; every run the
    # uncut route made without starting such a cycle must come out the same
    rng = random.Random(1980)
    budgets = (1, 100, 128, 129, 500, 1024, 3000, 4096)
    compared = 0
    for _ in range(2000):
        n = rng.randrange(10 ** 10, 10 ** 15) | 1
        for budget in budgets:
            got = _brent_rho(n, budget)
            factor, spent, overran = brent_rho_reference(n, budget, cut_last_cycle=False)
            assert got[1] <= budget, (n, budget)
            if got[0] is None:
                assert got[1] == budget, (n, budget)
            else:
                assert 1 < got[0] < n and n % got[0] == 0, (n, budget)
            if not overran:
                assert got == (factor, spent), (n, budget)
                compared += 1
    assert compared > 10 ** 4


def test_divisor_count_bound_and_divisor_sum_bound():
    # mu(n) <= n for n <= 1e5, and sum_{d|n} log d <= mu(n) log n <= n log n
    # for n <= 1e4, with mu computed by a divisor-table oracle.
    limit = 10 ** 5
    mu = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            mu[m] += 1
    assert all(mu[n] <= n for n in range(1, limit + 1))

    log_sum = [0.0] * (10 ** 4 + 1)
    for d in range(1, 10 ** 4 + 1):
        ld = math.log(d)
        for m in range(d, 10 ** 4 + 1, d):
            log_sum[m] += ld
    for n in range(2, 10 ** 4 + 1):
        assert log_sum[n] <= mu[n] * math.log(n) + 1e-9
        assert mu[n] * math.log(n) <= n * math.log(n) + 1e-9

    # the library's divisor_count agrees with the table on a sample
    rng = random.Random(7)
    for n in rng.sample(range(1, limit + 1), 500):
        assert divisor_count(n) == mu[n]


def test_factorization_value_with_cofactor():
    fac = Factorization({2: 3, 5: 1}, unfactored_cofactor=49)
    assert fac.value == 8 * 5 * 49
    assert not fac.is_complete
