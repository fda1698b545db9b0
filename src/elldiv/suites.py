"""Named invariant suites behind the ``verify`` CLI command.

Each suite takes the fixture's points and ``stream``: ``stream(T)`` returns
the terms 1 ... 40 of x(nP+T), so ``stream(Q)`` gives D_1 ... D_40 and
``stream(O)`` the untranslated orbit nP with its B_n. ``run_suite`` builds
each list at most once, and only when a suite calls for it. Each suite
returns a list of check results; all checks are deterministic for a given
fixture. These are smaller, faster cousins of the full test suite, meant to
validate a user-supplied fixture rather than the library itself.

Two checks rest on a theorem and factor nothing, so they cover every
prime. ``parity.even_valuations``: on an integral model every affine
rational point has x = a/d^2, so each D_n is a perfect square.
``sequence.formal_group_valuations``: v_p(B_mk) = v_p(B_m) + 2 v_p(k) for
the untranslated denominators B_n and every odd p | B_m not dividing the
discriminant, checked by gcds. No suite factors a term: the finite places
of the ``heights`` checks are the primes below PLACE_BOUND that divide
some D_1 ... D_20, so that each has a nonzero local height in the window
that ``siegel_trend`` compares the later terms against.
"""

import functools
import math
from dataclasses import dataclass
from math import gcd, isqrt

from . import denominators as dn
from . import heights as ht
from . import modp
from .numtheory import primes_upto
from .rational_ec import Point, torsion_order

PLACE_BOUND = 10 ** 4   # the heights suite's finite places are primes below this


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(results, name, ok, detail=""):
    results.append(CheckResult(name, bool(ok), detail))


def suite_group(p_point: Point, q_point: Point, stream) -> list[CheckResult]:
    curve = p_point.curve
    results = []
    sample = [p_point, 2 * p_point, 3 * p_point, 5 * p_point, q_point + p_point]
    if not q_point.is_identity:
        sample.append(q_point)

    _check(results, "closure", all(s.on_curve() for s in sample))
    _check(results, "commutativity",
           all(a + b == b + a for a in sample[:3] for b in sample[:3]))
    a, b, c = sample[0], sample[1], sample[-1]
    _check(results, "associativity", (a + b) + c == a + (b + c))
    _check(results, "identity_law", all(s + curve.identity() == s for s in sample))
    _check(results, "inverse_law", all((s + (-s)).is_identity for s in sample))
    _check(results, "negation_involution", all(-(-s) == s for s in sample))
    _check(results, "scalar_distributivity",
           all((m + n) * p_point == m * p_point + n * p_point
               for m in (-3, 1, 4) for n in (2, 5)))
    t = torsion_order(q_point)
    if t is None:
        _check(results, "torsion_scan", True, "Q has infinite order")
    else:
        proper = all(not (s * q_point).is_identity for s in range(1, t))
        _check(results, "torsion_scan", (t * q_point).is_identity and proper, f"ord(Q)={t}")
    return results


def suite_heights(p_point: Point, q_point: Point, stream) -> list[CheckResult]:
    results = []
    # the stream rejects a torsion P, whose height of 0 would divide by zero below
    terms = stream(q_point)
    orbit = [t.point for t in stream(p_point.curve.identity())]   # orbit[n - 1] = nP
    base = ht.canonical_height(p_point)

    # the deviation itself is float round-off, so report it as a share of the
    # proven bound: that figure does not depend on the platform's last bits
    multiples = {n: ht.canonical_height(orbit[n - 1]) for n in range(2, 6)}
    worst = max(abs(est.value - n * n * base.value) / (est.error_bound + n * n * base.error_bound)
                for n, est in multiples.items())
    _check(results, "quadraticity", worst <= 1.0, f"max deviation {worst:.2f} of the error bound")

    # proven bounds of the heights used, plus an ulp per operand for the float subtractions
    double = multiples[2]
    pair_self = double.value - base.value - base.value
    bound = double.error_bound + 4 * base.error_bound + math.ulp(double.value) + 4 * math.ulp(base.value)
    _check(results, "pairing_self", abs(pair_self - 2 * base.value) <= bound, f"<P,P>={pair_self:.6f}")
    if torsion_order(q_point) is not None:
        ests = [ht.canonical_height(terms[0].point), base, ht.canonical_height(q_point)]
        pair_q = ests[0].value - ests[1].value - ests[2].value
        bound = sum(e.error_bound + math.ulp(e.value) for e in ests)
        _check(results, "pairing_torsion_kernel", abs(pair_q) <= bound, f"<P,Q>={pair_q:.2e}")

    head = math.prod(t.denominator for t in terms[:20])
    places = [p for p in primes_upto(PLACE_BOUND) if head % p == 0]
    # each exponent must be v_p exactly, or the cofactor's log would absorb its error
    ok = True
    for term in terms[:12]:
        powers = [(p, ht.local_height_exponent(term.point, p)) for p in places]
        rest, r = divmod(term.denominator, math.prod(p ** e for p, e in powers))
        local = sum(e * math.log(p) for p, e in powers) + ht.archimedean_local_height(term.point)
        ok = ok and r == 0 and all(rest % p for p in places)
        ok = ok and abs(local + ht.log_int(rest) - ht.naive_height(term.point)) < 1e-9
    _check(results, "local_decomposition", ok)

    # one row of shares per term, so each term's naive height is taken once
    ratios = zip(*(ht.siegel_ratios(t.point, [*places, ht.ARCHIMEDEAN]) for t in terms))
    _check(results, "siegel_trend", all(max(r[20:]) <= max(r[:20]) for r in ratios),
           f"{len(places)} finite places")

    worst = max(abs(ht.naive_height(orbit[n - 1]) - 2 * n * n * base.value) for n in range(1, 31))
    _check(results, "height_comparison_bounded", worst < 10.0, f"empirical C_E ~ {worst:.3f}")
    return results


def suite_parity(p_point: Point, q_point: Point, stream) -> list[CheckResult]:
    results = []
    terms = stream(q_point)
    odd = [t.n for t in terms if isqrt(t.denominator) ** 2 != t.denominator]
    _check(results, "even_valuations", not odd,
           f"{len(terms) - len(odd)}/{len(terms)} denominators are squares"
           + (f"; first non-square D_{odd[0]}" if odd else ""))
    return results


def _primary(value: int, support: int) -> int:
    """The largest divisor of ``value`` whose primes all divide ``support``."""
    return value // dn.strip_shared_primes(value, support)


def suite_sequence(p_point: Point, q_point: Point, stream) -> list[CheckResult]:
    results = []
    terms = stream(q_point)

    _check(results, "reduced_terms",
           all(gcd(abs(t.numerator), t.denominator) == 1 and t.denominator >= 1 for t in terms))

    sound = all(gcd(part, earlier.denominator) == 1
                for t, part in dn.primitive_parts(terms) for earlier in terms[:t.n - 1])
    _check(results, "primitive_part_soundness", sound)

    # formal-group law and divisibility hold for the untranslated sequence
    denoms = [t.denominator for t in stream(p_point.curve.identity())]
    # with r = B_mk / B_m, the law at every good odd p | B_m says that r and k^2
    # have the same part over the primes of B_m that do not divide 2 * disc
    law_ok = True
    for m in range(1, 41):
        good = dn.strip_shared_primes(denoms[m - 1], 2 * p_point.curve.discriminant)
        for k in range(2, 40 // m + 1):
            r, rest = divmod(denoms[m * k - 1], denoms[m - 1])
            law_ok = law_ok and rest == 0 and _primary(r, good) == _primary(k * k, good)
    _check(results, "formal_group_valuations", law_ok)
    _check(results, "divisibility", all(
        denoms[n - 1] % denoms[m - 1] == 0
        for n in range(1, 41) for m in range(1, n) if n % m == 0
    ))

    cross_ok = True
    for p in primes_upto(200):
        if p_point.curve.discriminant % p == 0:
            continue
        cp = modp.reduce_curve(p_point.curve, p)
        for t in terms[:20]:
            divides = t.denominator % p == 0
            drops = modp.reduce_point(t.point, cp).is_identity
            cross_ok = cross_ok and (divides == drops)
    _check(results, "denominator_vs_reduction", cross_ok)
    return results


def suite_modp(p_point: Point, q_point: Point, stream) -> list[CheckResult]:
    results = []
    curve = p_point.curve
    good = [p for p in primes_upto(500) if curve.discriminant % p != 0]

    orders = {}
    hasse_ok = True
    for p in good:
        cp = modp.reduce_curve(curve, p)
        orders[p] = enum = modp.group_order_by_enumeration(cp)
        hasse_ok = hasse_ok and (enum - p - 1) ** 2 <= 4 * p
    # group_order itself enumerates at or below the bound, so compare above it
    routed = [p for p in good if p > modp.MESTRE_BOUND]
    dual_ok = all(orders[p] == modp.group_order(modp.reduce_curve(curve, p)) for p in routed)
    _check(results, "order_dual_route", dual_ok, f"{len(routed)} primes")
    _check(results, "hasse_bound", hasse_ok)

    homo_ok = lagrange_ok = witness_ok = True
    translates = {a: a * p_point + q_point for a in (1, 2, 3)}
    for p in good[:25]:
        cp = modp.reduce_curve(curve, p)
        order = orders[p]
        red = lambda pt: modp.reduce_point(pt, cp)
        for a, translate in translates.items():
            homo_ok = homo_ok and red(translate) == (a * red(p_point)) + red(q_point)
        r = red(p_point)
        o = modp.point_order(r)
        lagrange_ok = lagrange_ok and order % o == 0
        for k in (2, 3):
            lagrange_ok = lagrange_ok and modp.point_order(k * r) == o // gcd(k, o)
        member, witness = modp.in_cyclic_subgroup(red(q_point), r)
        if member:
            witness_ok = witness_ok and witness * r == red(q_point)
    _check(results, "reduction_homomorphism", homo_ok)
    _check(results, "lagrange", lagrange_ok)
    _check(results, "membership_witness", witness_ok)
    return results


SUITES = {
    "group": suite_group,
    "heights": suite_heights,
    "parity": suite_parity,
    "sequence": suite_sequence,
    "modp": suite_modp,
}


def run_suite(name: str, p_point: Point, q_point: Point) -> list[CheckResult]:
    if name != "all" and name not in SUITES:
        raise KeyError(name)
    # built on a translate's first call only: group and modp never call it, and
    # must still run on a fixture whose stream raises (torsion P, nP+Q = O)
    stream = functools.cache(lambda translate: list(dn.denom_sequence(p_point, translate, 40)))
    return [
        CheckResult(f"{suite_name}.{r.name}", r.ok, r.detail)
        for suite_name in (SUITES if name == "all" else [name])
        for r in SUITES[suite_name](p_point, q_point, stream)
    ]
