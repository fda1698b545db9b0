"""Elementary integer utilities: prime sieve, factorization, valuations.

Factoring is best-effort by design: batch trial division by the primes
below a fixed bound, then Pollard rho (Brent variant) under an iteration
budget. The budget counts the rho steps multiplied into the gcd product;
it is never exceeded, and rho makes at most twice the budget in squarings,
backtracking aside. Whatever does not split within the budget is reported
as an unfactored cofactor instead of raising, so callers can degrade
gracefully.
Every prime listed in a factorization passed ``is_prime``: a proof below
3.317e24, the BPSW test above.
"""

import itertools
import math
from array import array
from dataclasses import dataclass, field

TRIAL_DIVISION_BOUND = 10 ** 6
DEFAULT_RHO_BUDGET = 1 << 22
# primes per gcd in batch trial division; 200 primes near 10^6 make a
# product of about 4,000 bits
TRIAL_CHUNK = 200

# Strong tests to the 13 prime bases 2..41 decide primality for every
# n < psi_13 = 3317044064679887385961981 (Sorenson & Webster, Math. Comp.
# 86, 2017); the 12 bases up to 37 do so only below psi_12 =
# 318665857834031151167461, which passes all 12. The bases double as the
# small-prime screen.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3317044064679887385961981

_SMALL_PRIME_CACHE = array("I")
_CHUNK_PRODUCTS: dict[int, int] = {}


def is_prime(n: int) -> bool:
    """Primality of an integer, proven below 3.317e24 and BPSW above.

    Below psi_13 = 3317044064679887385961981 the strong tests to the bases
    2..41 are a proof. From psi_13 on the answer is BPSW: a strong test to
    base 2 and a strong Lucas test with Selfridge's parameters
    (Baillie & Wagstaff, Math. Comp. 35, 1980). No composite is known to
    pass BPSW, but none is proven not to exist above 2^64. The answer is
    deterministic either way.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_PROVEN_BELOW:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin strong test of odd n > a to base a."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of odd n > 3 with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4. With n + 1 = d 2^s, n passes when U_d = 0 or
    V_{d 2^r} = 0 for some r < s (all mod n). No such D exists for a square.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    if j == 0:
        # D shares a factor with n, so n is prime only if it is |D| itself
        return n == abs(D)
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    # binary ladder from k = 1: U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k,
    # U_k+1 = (U_k + V_k)/2, V_k+1 = (D U_k + V_k)/2, halving mod odd n
    U, V, Qk = 1, 1, Q
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _prime_runs(limit: int, segment_size: int):
    # The primes <= limit as ascending runs, one per segment of an odd-only
    # segmented sieve: 2 first, then entry i of the segment from lo stands
    # for lo + 2 i. The odd primes up to isqrt(limit) that strike the
    # segments come from the same sieve, one level down.
    if limit < 2:
        return
    yield (2,)
    base = list(itertools.chain.from_iterable(_prime_runs(math.isqrt(limit), segment_size)))[1:]
    for lo in range(3, limit + 1, 2 * segment_size):
        size = min(segment_size, (limit - lo) // 2 + 1)
        hi = lo + 2 * (size - 1)
        seg = bytearray([1]) * size
        for p in base:
            if p * p > hi:
                break
            # the least odd multiple of p that is >= lo, and at least p^2
            start = max(p * p, -(-lo // p) * p)
            if start % 2 == 0:
                start += p
            first = (start - lo) // 2
            seg[first::p] = bytes(len(range(first, size, p)))
        yield itertools.compress(range(lo, hi + 1, 2), seg)


def primes_upto(limit: int, *, segment_size: int = 1 << 18) -> list[int]:
    """All primes <= limit in ascending order.

    An odd-only segmented sieve: each segment holds ``segment_size`` odd
    numbers, one byte each. The trial-division table comes from the same
    sieve.
    """
    return list(itertools.chain.from_iterable(_prime_runs(limit, segment_size)))


def _pool_map(fn, items: list, workers: int) -> list:
    # fn over items on that many processes, sent and returned in list order;
    # every worker is joined before this returns, so none holds stdout open.
    # Imported here so that serial runs never load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _small_primes() -> array:
    # primes up to the trial-division bound, sieved once per process into
    # 4-byte entries; no list of them is ever built
    if not _SMALL_PRIME_CACHE:
        _SMALL_PRIME_CACHE.extend(itertools.chain.from_iterable(
            _prime_runs(TRIAL_DIVISION_BOUND, 1 << 18)))
    return _SMALL_PRIME_CACHE


def _chunk_product(start: int) -> int:
    # product of the TRIAL_CHUNK small primes from index start, built on
    # first use so that factoring small numbers never pays for the table
    product = _CHUNK_PRODUCTS.get(start)
    if product is None:
        product = math.prod(_small_primes()[start : start + TRIAL_CHUNK])
        _CHUNK_PRODUCTS[start] = product
    return product


def valuation(n: int, p: int) -> int:
    """Largest k with p^k dividing n (n nonzero)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


@dataclass
class Factorization:
    """Prime-power decomposition, possibly partial.

    ``factors`` maps prime -> exponent; ``unfactored_cofactor`` is 1 when the
    input split completely, otherwise a composite remainder coprime to every
    listed prime.
    """

    factors: dict[int, int] = field(default_factory=dict)
    unfactored_cofactor: int = 1

    @property
    def is_complete(self) -> bool:
        return self.unfactored_cofactor == 1

    @property
    def value(self) -> int:
        out = self.unfactored_cofactor
        for p, e in self.factors.items():
            out *= p ** e
        return out


def _iroot(n: int, k: int) -> int:
    """Integer k-th root of n (floor), by Newton iteration on big ints."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _as_perfect_power(n: int) -> tuple[int, int]:
    """(root, e) with root**e == n and e maximal; (n, 1) if n is no power.

    Denominator sequences are full of prime squares, which Pollard rho is
    hopeless at, so powers are peeled off before the rho stage. Only prime
    exponents are tried: an (ab)-th power is an a-th power, and the
    recursion on the root finds the rest.
    """
    for e in primes_upto(n.bit_length() - 1):
        root = _iroot(n, e)
        if root ** e == n:
            inner, inner_e = _as_perfect_power(root)
            return inner, e * inner_e
    return n, 1


def _brent_rho(n: int, budget: int) -> tuple[int | None, int]:
    """Brent-cycle Pollard rho. Returns (nontrivial factor or None, iterations spent).

    The budget counts the steps multiplied into the gcd product. Cycle r of
    an attempt first advances r steps without counting them, then counts
    r steps (Brent, BIT 20, 1980); the last cycle is cut to what the budget
    has left. So ``spent`` never exceeds the budget and equals it when no
    factor is found, and a call makes at most 2 * budget squarings, plus at
    most 128 backtracking steps for each attempt whose product collapses
    to n.
    The polynomial constant and starting point are derived from the attempt
    number only, so results are reproducible for a given n and budget.
    """
    spent = 0
    attempt = 0
    while spent < budget:
        attempt += 1
        c = attempt
        y = 2 + attempt
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and spent < budget:
            x = y
            r = min(r, budget - spent)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                spent += steps
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # backtrack one step at a time to recover the factor
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g, spent
        # g == n means the whole cycle collapsed; retry with the next constant
    return None, spent


def factorize(n: int, rho_budget: int = DEFAULT_RHO_BUDGET) -> Factorization:
    """Factor n >= 1: batch trial division to 10^6, then budgeted Pollard rho.

    Trial division takes one gcd of n with the product of each chunk of
    TRIAL_CHUNK consecutive small primes and scans only the chunks that
    share a factor with n (Bernstein, *How to find smooth parts of
    integers*, 2004). It stops at the first chunk whose least prime p has
    p*p > n, since what is left is then 1 or a prime. Primes are listed in
    the order found: the small ones ascending, then the rest.

    ``rho_budget`` is shared by every rho call on the cofactors of n: each
    call spends at most what is left (see ``_brent_rho``), so the total
    never exceeds the budget, and rho does at most 2 * rho_budget
    squarings, backtracking aside.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    result = Factorization()
    if n == 1:
        return result

    if is_prime(n):
        result.factors[n] = 1
        return result

    primes = _small_primes()
    for start in range(0, len(primes), TRIAL_CHUNK):
        if primes[start] ** 2 > n:
            break
        shared = math.gcd(n, _chunk_product(start))
        for p in primes[start : start + TRIAL_CHUNK]:
            if shared == 1:
                break
            if shared % p == 0:
                shared //= p
                result.factors[p] = valuation(n, p)
                n //= p ** result.factors[p]

    # n is now 1, a prime, or free of primes below the trial bound
    pending = [(n, 1)]
    budget = rho_budget
    while pending:
        m, mult = pending.pop()
        if m == 1:
            continue
        if is_prime(m):
            result.factors[m] = result.factors.get(m, 0) + mult
            continue
        root, e = _as_perfect_power(m)
        if e > 1:
            pending.append((root, mult * e))
            continue
        d = None
        if budget > 0:
            d, spent = _brent_rho(m, budget)
            budget -= spent
        if d is None:
            result.unfactored_cofactor *= m ** mult
        else:
            pending.append((d, mult))
            pending.append((m // d, mult))
    return result


def divisor_count(n: int) -> int:
    """Number of positive divisors of n."""
    if n < 1:
        raise ValueError("divisor_count expects n >= 1")
    fac = factorize(n)
    if not fac.is_complete:
        raise ValueError(f"could not fully factor {n} within budget")
    out = 1
    for e in fac.factors.values():
        out *= e + 1
    return out
