"""Elementary integer utilities: prime sieve, factorization, valuations.

Factoring is best-effort by design: batch trial division by the primes
below a fixed bound, then Pollard p-1 and Pollard rho (Brent variant)
under one work budget. The budget counts the rho steps multiplied into
the gcd product plus the p-1 work (one unit per stage-1 exponent bit and
per stage-2 prime, 91,716 for a full run); it is never exceeded. p-1 runs
ahead of rho on a cofactor only while at least four full p-1 runs are left
of the budget, so budgets below 366,864 run rho alone, and rho makes at
most twice what it is given in squarings, backtracking aside. Whatever
does not split within the budget is reported as an unfactored cofactor
instead of raising, so callers can degrade gracefully.
Every prime listed in a factorization passed ``is_prime``: a proof below
3.317e24, the BPSW test above.
"""

import bisect
import functools
import itertools
import math
import os
from array import array
from dataclasses import dataclass, field

TRIAL_DIVISION_BOUND = 10 ** 6
DEFAULT_FACTOR_BUDGET = 1 << 22
# primes per gcd in batch trial division; 200 primes near 10^6 make a
# product of about 4,000 bits
TRIAL_CHUNK = 200
_SEGMENT_SIZE = 1 << 18
# Pollard p-1: stage 1 to B1, stage 2 over the trial-division primes in
# (B1, TRIAL_DIVISION_BOUND], D the stage-2 stride, one gcd per block of primes
_PM1_B1 = 10 ** 4
_PM1_STRIDE = 210
_PM1_BLOCK = 1024
# the work of a p-1 call that finds nothing: 14,447 bits of lcm(1..B1) plus
# the 77,269 stage-2 primes. factorize runs p-1 only while the budget left
# is at least _PM1_GATE, so a budget below 366,864 runs rho alone.
_PM1_COST = 14_447 + 77_269
_PM1_GATE = 4 * _PM1_COST

# Strong tests to the 13 prime bases 2..41 decide primality for every
# n < psi_13 = 3317044064679887385961981 (Sorenson & Webster, Math. Comp.
# 86, 2017); the 12 bases up to 37 do so only below psi_12 =
# 318665857834031151167461, which passes all 12. The bases double as the
# small-prime screen.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3317044064679887385961981


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
    # a square fails the Lucas test anyway; isqrt rejects it at a fraction of
    # the base-2 test's cost, and every primitive part is a square
    return (math.isqrt(n) ** 2 != n and _strong_probable_prime(n, 2)
            and _strong_lucas_probable_prime(n))


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


def _prime_runs(limit: int):
    # The primes <= limit as ascending runs, one per segment of an odd-only
    # segmented sieve: 2 first, then entry i of the segment from lo stands
    # for lo + 2 i. The odd primes up to isqrt(limit) that strike the
    # segments come from the same sieve, one level down.
    if limit < 2:
        return
    yield (2,)
    base = list(itertools.chain.from_iterable(_prime_runs(math.isqrt(limit))))[1:]
    for lo in range(3, limit + 1, 2 * _SEGMENT_SIZE):
        size = min(_SEGMENT_SIZE, (limit - lo) // 2 + 1)
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


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit in ascending order.

    An odd-only segmented sieve: each segment holds _SEGMENT_SIZE odd
    numbers, one byte each. The trial-division table comes from the same
    sieve.
    """
    return list(itertools.chain.from_iterable(_prime_runs(limit)))


def _pool_map(fn, items: list, workers: int) -> list:
    # fn over items, returned in list order. The one place that chooses
    # between this process and forked ones: one worker, fewer than two items,
    # or a platform without os.fork runs here. Otherwise the caller writes
    # every task index into one pipe as a 4-byte record, forks workers - 1
    # children that inherit fn and the items (the library starts no thread,
    # so a fork copies a consistent process), and works too; each process
    # claims the next task with one 4-byte read until EOF. At most PIPE_BUF
    # bytes of records go in one write, which is atomic and fits in an empty
    # pipe, so the write never blocks with no reader yet; more items are
    # grouped into contiguous tasks. A child pickles its (index, result)
    # pairs, or its exception, back through its own pipe and leaves by
    # os._exit, so it never flushes the caller's buffers. Every child is
    # reaped before this returns or raises, and killed first on an error, so
    # none holds stdout open.
    if workers == 1 or len(items) < 2 or not hasattr(os, "fork"):
        return list(map(fn, items))
    import pickle
    import select

    tasks = min(len(items), select.PIPE_BUF // 4)
    bounds = [k * len(items) // tasks for k in range(tasks + 1)]
    claim_fd, write_fd = os.pipe()
    os.write(write_fd, b"".join(k.to_bytes(4, "little") for k in range(tasks)))
    os.close(write_fd)

    def work_share() -> list:
        done = []
        while record := os.read(claim_fd, 4):
            k = int.from_bytes(record, "little")
            done.extend((i, fn(items[i])) for i in range(bounds[k], bounds[k + 1]))
        return done

    children = []
    try:
        for _ in range(min(workers, tasks) - 1):
            result_fd, child_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(result_fd)
                    try:
                        payload = pickle.dumps((True, work_share()))
                    except BaseException as exc:
                        payload = pickle.dumps((False, exc))
                    with open(child_fd, "wb") as out:
                        out.write(payload)
                finally:
                    os._exit(0)
            os.close(child_fd)
            children.append((pid, result_fd))
        results = [None] * len(items)
        for i, value in work_share():
            results[i] = value
        for _, result_fd in children:
            with open(result_fd, "rb", closefd=False) as stream:
                ok, value = pickle.load(stream)
            if not ok:
                raise value
            for i, result in value:
                results[i] = result
        return results
    except BaseException:
        import signal

        # a child not yet reaped can be signalled, even once it has exited
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(claim_fd)
        for pid, result_fd in children:
            os.close(result_fd)
            os.waitpid(pid, 0)


@functools.cache
def _small_primes(bits: int) -> array:
    # the primes up to min(2^bits, TRIAL_DIVISION_BOUND), sieved once per
    # process and size into 4-byte entries; no list of them is ever built.
    # bits = 20 is the whole trial-division table. Every caller passes bits,
    # since the cache would key a default apart from an explicit 20.
    runs = _prime_runs(min(1 << bits, TRIAL_DIVISION_BOUND))
    return array("I", itertools.chain.from_iterable(runs))


@functools.cache
def _chunk_product(bits: int, start: int) -> int:
    # product of the (up to) TRIAL_CHUNK primes from index start of the
    # table _small_primes(bits), built on first use
    return math.prod(_small_primes(bits)[start : start + TRIAL_CHUNK])


def valuation(n: int, p: int) -> int:
    """Largest k with p^k dividing n (n nonzero, p >= 2)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2:
        raise ValueError(f"valuation needs a base p >= 2, got {p}")
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
    """(root, e) with root**e == n for the least prime e; (n, 1) if n is no power.

    Denominator sequences are full of prime squares, which Pollard rho is
    hopeless at, so powers are peeled off before the rho stage. Only prime
    exponents are tried: an (ab)-th power is an a-th power, and factorize
    peels the root again. n must have no prime below TRIAL_DIVISION_BOUND,
    so a root exceeds it and e < log2(n) / log2(TRIAL_DIVISION_BOUND).
    """
    for e in primes_upto(int(n.bit_length() / math.log2(TRIAL_DIVISION_BOUND))):
        root = _iroot(n, e)
        if root ** e == n:
            return root, e
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


@functools.cache
def _pm1_exponent() -> int:
    # lcm(1..B1) as the product of the largest power of each prime p <= B1
    primes = _small_primes(20)
    exponent = 1
    for p in primes[: bisect.bisect_right(primes, _PM1_B1)]:
        power = p
        while power * p <= _PM1_B1:
            power *= p
        exponent *= power
    return exponent


def _pm1(n: int) -> tuple[int | None, int]:
    """Pollard p-1 on odd n. Returns (nontrivial factor or None, work spent).

    Catches a prime p | n when p - 1 divides lcm(1..B1) times at most one
    prime q <= TRIAL_DIVISION_BOUND (Pollard, Proc. Cambridge Philos. Soc.
    76, 1974). Stage 1 is x = 2^lcm(1..B1) mod n. Stage 2 writes each prime
    q > B1 as q = mD - j with 0 < j < D and multiplies x^(mD) - x^j =
    x^j (x^q - 1) into one product, so that a prime costs one modular
    multiplication (Montgomery, Math. Comp. 48, 1987); its gcd with n is
    taken after every _PM1_BLOCK primes. A gcd equal to n gives None.
    ``spent`` counts one unit per bit of the stage-1 exponent and one per
    stage-2 prime scanned, so it never exceeds _PM1_COST and equals it when
    no factor is found.
    """
    exponent = _pm1_exponent()
    spent = exponent.bit_length()
    x = pow(2, exponent, n)
    g = math.gcd(x - 1, n)
    if g > 1:
        return (g if g < n else None), spent
    powers = [1]
    for _ in range(_PM1_STRIDE):
        powers.append(powers[-1] * x % n)
    step = powers[_PM1_STRIDE]
    primes = _small_primes(20)
    first = bisect.bisect_right(primes, _PM1_B1)
    top = (primes[first] // _PM1_STRIDE + 1) * _PM1_STRIDE
    x_top = pow(x, top, n)
    acc = 1
    for start in range(first, len(primes), _PM1_BLOCK):
        block = primes[start : start + _PM1_BLOCK]
        for q in block:
            while q > top:
                top += _PM1_STRIDE
                x_top = x_top * step % n
            acc = acc * (x_top - powers[top - q]) % n
        spent += len(block)
        g = math.gcd(acc, n)
        if g > 1:
            return (g if g < n else None), spent
    return None, spent


def factorize(n: int, factor_budget: int = DEFAULT_FACTOR_BUDGET) -> Factorization:
    """Factor n >= 1: batch trial division to 10^6, then budgeted p-1 and rho.

    Trial division takes one gcd of n with the product of each chunk of
    TRIAL_CHUNK consecutive small primes and scans only the chunks that
    share a factor with n (Bernstein, *How to find smooth parts of
    integers*, 2004). It stops at the first chunk whose least prime p has
    p*p > n, since what is left is then 1 or a prime. Below n = 2^38 it
    sieves only the primes to the least power of two above sqrt(n), at
    least 2^10, so small inputs never build the whole table. Primes are
    listed in the order found: the small ones ascending, then the rest.

    ``factor_budget`` is shared by every p-1 and rho call on the cofactors of
    n. Each composite cofactor first gets ``_pm1`` if at least _PM1_GATE
    (four full p-1 runs, 366,864) is left, and then, if p-1 did not split
    it, ``_brent_rho`` with whatever is left. Each call spends at most what
    is left, so the total never exceeds the budget, and rho does at most
    2 * factor_budget squarings, backtracking aside.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    result = Factorization()
    if n == 1:
        return result

    if is_prime(n):
        result.factors[n] = 1
        return result

    # the primes up to a power of two above sqrt(n), and at least 2^10: what
    # is left after them is 1 or a prime. From n = 2^38 on this is the whole
    # table, which a composite left for p-1 and rho needs.
    bits = min(20, max(10, math.isqrt(n).bit_length()))
    primes = _small_primes(bits)
    for start in range(0, len(primes), TRIAL_CHUNK):
        if primes[start] ** 2 > n:
            break
        shared = math.gcd(n, _chunk_product(bits, start))
        for p in primes[start : start + TRIAL_CHUNK]:
            if shared == 1:
                break
            if shared % p == 0:
                shared //= p
                result.factors[p] = valuation(n, p)
                n //= p ** result.factors[p]

    # n is now 1, a prime, or free of primes below the trial bound
    pending = [(n, 1)]
    budget = factor_budget
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
        if budget >= _PM1_GATE:
            d, spent = _pm1(m)
            budget -= spent
        if d is None:
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
