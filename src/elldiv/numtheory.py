"""Elementary integer utilities: prime sieve, factorization, valuations.

Factoring is best-effort by design: trial division up to a fixed bound,
then Pollard rho (Brent variant) under an iteration budget. Whatever does
not split within the budget is reported as an unfactored cofactor instead
of raising, so callers can degrade gracefully.
"""

import math
from dataclasses import dataclass, field

TRIAL_DIVISION_BOUND = 10 ** 6
DEFAULT_RHO_BUDGET = 1 << 22

# Deterministic Miller-Rabin bases, valid for every n < 3.317e24
# (Sorenson & Webster). Larger inputs get a strong probable-prime answer
# from the same bases, still deterministic for reproducibility.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIME_CACHE: list[int] = []


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test with fixed deterministic bases."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(limit: int, *, segment_size: int = 1 << 18) -> list[int]:
    """All primes <= limit in ascending order, by segmented sieve."""
    if limit < 2:
        return []
    root = math.isqrt(limit)
    base = bytearray([1]) * (root + 1)
    base[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(root) + 1):
        if base[i]:
            base[i * i :: i] = b"\x00" * len(base[i * i :: i])
    small = [i for i in range(2, root + 1) if base[i]]

    primes = list(small)
    lo = root + 1
    while lo <= limit:
        hi = min(lo + segment_size - 1, limit)
        seg = bytearray([1]) * (hi - lo + 1)
        for p in small:
            if p * p > hi:
                break
            start = max(p * p, (lo + p - 1) // p * p)
            if start > hi:
                continue
            seg[start - lo :: p] = b"\x00" * ((hi - start) // p + 1)
        primes.extend(i + lo for i, flag in enumerate(seg) if flag)
        lo = hi + 1
    return primes


def _small_primes() -> list[int]:
    # primes up to the trial-division bound, sieved once per process
    if not _SMALL_PRIME_CACHE:
        _SMALL_PRIME_CACHE.extend(primes_upto(TRIAL_DIVISION_BOUND))
    return _SMALL_PRIME_CACHE


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
    hopeless at, so powers are peeled off before the rho stage.
    """
    e = 2
    while (1 << e) <= n:
        root = _iroot(n, e)
        if root ** e == n:
            inner, inner_e = _as_perfect_power(root)
            return inner, e * inner_e
        e += 1
    return n, 1


def _brent_rho(n: int, budget: int) -> tuple[int | None, int]:
    """Brent-cycle Pollard rho. Returns (nontrivial factor or None, iterations spent).

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
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and spent < budget:
                ys = y
                steps = min(m, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                spent += steps
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # backtrack one step at a time to recover the factor
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g, spent
        # g == n means the whole cycle collapsed; retry with the next constant
    return None, spent


def factorize(n: int, rho_budget: int = DEFAULT_RHO_BUDGET) -> Factorization:
    """Factor n >= 1: trial division to 10^6, then budgeted Pollard rho."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    result = Factorization()
    if n == 1:
        return result

    if is_prime(n):
        result.factors[n] = 1
        return result

    for p in _small_primes():
        if p * p > n:
            break
        if n % p == 0:
            result.factors[p] = valuation(n, p)
            n //= p ** result.factors[p]
            if n == 1:
                return result
            if is_prime(n):
                result.factors[n] = result.factors.get(n, 0) + 1
                return result

    # n > 1 is now prime or has no prime factor below the trial bound
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
