"""The denominator sequence of x(nP+Q) and its divisor structure.

Writing x(nP+Q) = C_n / D_n in lowest terms with D_n >= 1, this module
computes the terms exactly, identifies the finite set of bad primes,
extracts primitive parts (the portion of D_n coprime to the whole history
D_1 ... D_{n-1}), certifies primitive divisors, counts distinct primes of
the product, and fits the quadratic-exponential growth rate.

``denom_sequence`` is the one stream of terms: each term carries its point
nP+Q, so consumers take the term they are given and never recompute a
scalar multiple. ``primitive_parts`` walks that stream once and keeps the
history of earlier denominators itself.
"""

import functools
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator

from .heights import log_int
from .numtheory import DEFAULT_FACTOR_BUDGET, Factorization, _pool_map, _small_primes, factorize
from .rational_ec import Point, require_infinite_order, torsion_order

REASON_BAD_REDUCTION = "divides_discriminant"
REASON_TORSION = "divides_two_times_order_of_Q"
REASON_Q_NONINTEGRAL = "Q_reduces_to_identity"


class CollisionWithIdentityError(ValueError):
    """nP+Q hit the identity, where x is undefined."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"{n}P+Q is the identity point")


class NonTorsionQError(ValueError):
    """bad_set needs ord(Q) finite; this Q has infinite order."""


class IncompleteHistoryError(ValueError):
    """primitive_parts needs the terms in order n = 1, 2, 3, ..., none missing."""


class IncompleteFactorizationError(RuntimeError):
    """bad_set could not fully factor the discriminant within the budget."""


@dataclass(frozen=True)
class DenomTerm:
    """x(nP+Q) = numerator/denominator in lowest terms, denominator >= 1."""

    n: int
    numerator: int
    denominator: int
    point: Point


@dataclass(frozen=True)
class PrimitiveDivisorReport:
    n: int
    primitive_part: int
    has_primitive: bool
    certificate_prime: int | None
    fully_factored: bool


@dataclass(frozen=True)
class DistinctPrimeCount:
    count: int
    is_exact: bool


@dataclass
class BadPrimeSet:
    """Finite set of excluded primes, each tagged with why it is excluded."""

    reasons: dict[int, tuple[str, ...]]

    @property
    def primes(self) -> list[int]:
        return sorted(self.reasons)

    def __contains__(self, p: int) -> bool:
        return p in self.reasons


def _term_from_point(n: int, point: Point) -> DenomTerm:
    if point.is_identity:
        raise CollisionWithIdentityError(n)
    u, _, d = point.triple
    return DenomTerm(n, u, d * d, point)


def denom_term(p_point: Point, q_point: Point, n: int) -> DenomTerm:
    """The n-th term, computed from scratch as nP + Q."""
    if n < 1:
        raise ValueError("term index starts at 1")
    require_infinite_order(p_point)
    return _term_from_point(n, n * p_point + q_point)


def denom_sequence(p_point: Point, q_point: Point, count: int) -> Iterator[DenomTerm]:
    """Terms 1..count, each obtained from the previous by one addition of P.

    The torsion precondition is checked eagerly, before the first term is
    consumed.
    """
    require_infinite_order(p_point)

    def walk():
        current = q_point
        for n in range(1, count + 1):
            current = current + p_point
            yield _term_from_point(n, current)

    return walk()


def bad_set(q_point: Point, factor_budget: int = DEFAULT_FACTOR_BUDGET) -> BadPrimeSet:
    """Primes dividing the discriminant, dividing 2*ord(Q), or where Q drops to O.

    Q must have finite order. The third class is, over Q, the primes dividing
    the denominator of x(Q) for affine Q. By Nagell-Lutz that denominator is
    1 or 4 (see torsion_order), so the class is {2} or empty. If the
    discriminant does not fully factor within the budget, the set cannot be
    certified and IncompleteFactorizationError is raised.
    """
    order = torsion_order(q_point)
    if order is None:
        raise NonTorsionQError("Q has infinite order, so ord(Q) is undefined")

    reasons: dict[int, list[str]] = {}

    disc_fac = factorize(abs(q_point.curve.discriminant), factor_budget)
    if not disc_fac.is_complete:
        raise IncompleteFactorizationError("could not fully factor the discriminant within budget")
    for p in disc_fac.factors:
        reasons.setdefault(p, []).append(REASON_BAD_REDUCTION)

    for p in factorize(2 * order, factor_budget).factors:
        reasons.setdefault(p, []).append(REASON_TORSION)

    if not q_point.is_identity and q_point.triple[2] > 1:
        # den x(Q) = 4, and 2 is a key already since 2 | 2 ord(Q)
        reasons[2].append(REASON_Q_NONINTEGRAL)

    return BadPrimeSet({p: tuple(tags) for p, tags in sorted(reasons.items())})


def strip_shared_primes(value: int, other: int) -> int:
    """Divide out of ``value`` (>= 1) every prime it shares with ``other``, completely."""
    if value < 1:
        raise ValueError(f"strip_shared_primes needs value >= 1, got {value}")
    g = gcd(value, other)
    while g > 1:
        value //= g
        g = gcd(value, g)
    return value


def primitive_parts(terms: Iterable[DenomTerm]) -> Iterator[tuple[DenomTerm, int]]:
    """Each term paired with its primitive part.

    The primitive part of D_n is its largest divisor coprime to
    D_1 * ... * D_{n-1}. Its prime divisors are exactly the primitive
    divisors of D_n, found by iterated gcd stripping with no factoring at
    all. The terms must arrive as n = 1, 2, 3, ..., as ``denom_sequence``
    yields them; a gap or a repeat raises IncompleteHistoryError when that
    term is reached.
    """
    history: list[int] = []
    for term in terms:
        if term.n != len(history) + 1:
            raise IncompleteHistoryError(
                f"term {term.n} needs {term.n - 1} earlier denominators, got {len(history)}"
            )
        part = term.denominator
        for earlier in history:
            part = strip_shared_primes(part, earlier)
            if part == 1:
                break
        yield term, part
        history.append(term.denominator)


def primitive_report(
    term: DenomTerm,
    part: int,
    factor_budget: int = DEFAULT_FACTOR_BUDGET,
) -> PrimitiveDivisorReport:
    """Primitive-divisor certificate for a term and its primitive part.

    has_primitive needs no factoring. The certificate prime is the smallest
    prime factor of the primitive part found within the budget; if nothing
    splits, the part itself still witnesses that primitive divisors exist.
    """
    return _report(term, part, factorize(part, factor_budget))


def _report(term: DenomTerm, part: int, fac: Factorization) -> PrimitiveDivisorReport:
    certificate = min(fac.factors) if fac.factors else None
    return PrimitiveDivisorReport(term.n, part, part > 1, certificate, fac.is_complete)


def primitive_reports(terms: Iterable[DenomTerm], factor_budget: int = DEFAULT_FACTOR_BUDGET,
                      workers: int = 1) -> list[tuple[DenomTerm, PrimitiveDivisorReport]]:
    """Each term paired with its ``primitive_report``; terms as for ``primitive_parts``.

    Every report is computed before this returns, so a precondition failure
    in the terms raises before any report exists. The parts are factored on
    ``workers`` processes, the calling one and forked ones, each claiming the
    next part when it is free, largest first so that the slowest starts
    earliest; one worker, or a single part, runs in the calling process. The
    reports do not depend on ``workers``, and no environment setting is read.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    pairs = list(primitive_parts(terms))
    # parts above 1 are pairwise coprime, so they are distinct keys
    parts = sorted((part for _, part in pairs if part > 1), reverse=True)
    if workers > 1 and len(parts) > 1 and parts[0] >= 1 << 38:
        _small_primes(20)       # factorize's whole table from 2^38 on: sieved here, before the fork
    factor = functools.partial(factorize, factor_budget=factor_budget)
    facs = dict(zip(parts, _pool_map(factor, parts, workers)))
    return [(term, _report(term, part, facs.get(part, Factorization()))) for term, part in pairs]


def omega_product(terms: Iterable[DenomTerm],
                  factor_budget: int = DEFAULT_FACTOR_BUDGET) -> DistinctPrimeCount:
    """Distinct primes dividing D_1 * ... * D_N, counted over the primitive parts.

    The primitive parts are pairwise coprime and together carry exactly the
    primes of the product, so each prime is counted once, in the part of the
    first D_n it divides. Each part is factored within the budget; a part
    that resists full factoring still holds at least one prime not listed,
    so an incomplete answer is a certified lower bound. The terms must
    arrive in order, as for ``primitive_parts``.
    """
    count = 0
    exact = True
    for _, part in primitive_parts(terms):
        fac = factorize(part, factor_budget)
        count += len(fac.factors)
        if not fac.is_complete:
            count += 1
            exact = False
    return DistinctPrimeCount(count, exact)


def growth_estimate(p_point: Point, q_point: Point, upto: int) -> float:
    """Least-squares slope of log D_n against n^2 over n in [upto/2, upto].

    The limit of the slope is twice the canonical height of P; restricting
    to the upper half of the range suppresses the O(n) and O(1) noise from
    height-comparison constants.
    """
    if upto < 10:
        raise ValueError("growth_estimate needs at least 10 terms")
    samples = []
    for term in denom_sequence(p_point, q_point, upto):
        if term.n >= upto // 2:
            d = term.denominator
            samples.append((term.n * term.n, log_int(d) if d > 1 else 0.0))
    u_mean = sum(u for u, _ in samples) / len(samples)
    v_mean = sum(v for _, v in samples) / len(samples)
    num = sum((u - u_mean) * (v - v_mean) for u, v in samples)
    den = sum((u - u_mean) ** 2 for u, _ in samples)
    return num / den
