"""Named invariant suites behind the ``verify`` CLI command.

Each suite takes the fixture's curve and points and returns a list of
check results; all checks are deterministic for a given fixture. These
are smaller, faster cousins of the full test suite, meant to validate a
user-supplied fixture rather than the library itself.
"""

import math
from dataclasses import dataclass
from math import gcd

from . import denominators as dn
from . import heights as ht
from . import modp
from .numtheory import DEFAULT_RHO_BUDGET, factorize, primes_upto, valuation
from .rational_ec import Point, torsion_order


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(results, name, ok, detail=""):
    results.append(CheckResult(name, bool(ok), detail))


def suite_group(p_point: Point, q_point: Point) -> list[CheckResult]:
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


def _candidate_primes(terms, bad, rho_budget=1 << 14) -> set[int]:
    """The primes of D_1 ... D_N found within the budget, less ``bad``.

    Every prime of D_n divides exactly one primitive part P_k with k <= n,
    and factorize trial-divides each part to 10^6 at any budget.
    """
    found: set[int] = set()
    for _, part in dn.primitive_parts(terms):
        found.update(factorize(part, rho_budget).factors)
    return found - bad


def suite_heights(p_point: Point, q_point: Point, tol: float = 1e-4) -> list[CheckResult]:
    results = []
    base = ht.canonical_height(p_point, tol)

    # the deviation itself is float round-off, so report it as a share of the
    # proven bound: that figure does not depend on the platform's last bits
    worst = 0.0
    for n in range(2, 6):
        est = ht.canonical_height(n * p_point, tol)
        bound = est.error_bound + n * n * base.error_bound
        worst = max(worst, abs(est.value - n * n * base.value) / bound)
    _check(results, "quadraticity", worst <= 1.0, f"max deviation {worst:.2f} of the error bound")

    pair_self = ht.height_pairing(p_point, p_point, tol)
    _check(results, "pairing_self", abs(pair_self - 2 * base.value) <= 8 * tol,
           f"<P,P>={pair_self:.6f}")
    if torsion_order(q_point) is not None:
        pair_q = ht.height_pairing(p_point, q_point, tol)
        _check(results, "pairing_torsion_kernel", abs(pair_q) <= 6 * tol, f"<P,Q>={pair_q:.2e}")

    terms = list(dn.denom_sequence(p_point, q_point, 40))
    support = sorted(_candidate_primes(terms[:20], set(), DEFAULT_RHO_BUDGET))
    # every prime of D_n divides a part P_k with k <= n, so the primes of the
    # first 20 parts factor D_1..D_12 unless one of those parts did not split
    ok = True
    for term in terms[:12]:
        rest, finite = term.denominator, 0.0
        for p in support:
            if rest % p == 0:
                e = valuation(rest, p)
                rest //= p ** e
                finite += e * math.log(p)
        if rest != 1:
            continue
        total = finite + ht.archimedean_local_height(term.point)
        ok = ok and abs(total - ht.naive_height(term.point)) < 1e-9
    _check(results, "local_decomposition", ok)

    trend_ok = True
    for p in support:
        ratios = [ht.siegel_ratio(t.point, p) for t in terms]
        trend_ok = trend_ok and max(ratios[20:]) <= max(ratios[:20])
    arch = [ht.siegel_ratio(t.point, ht.ARCHIMEDEAN) for t in terms]
    trend_ok = trend_ok and max(arch[20:]) <= max(arch[:20])
    _check(results, "siegel_trend", trend_ok, f"{len(support)} finite places")

    worst = max(
        abs(ht.naive_height(n * p_point) - 2 * n * n * base.value) for n in range(1, 31)
    )
    _check(results, "height_comparison_bounded", worst < 10.0, f"empirical C_E ~ {worst:.3f}")
    return results


def suite_parity(p_point: Point, q_point: Point) -> list[CheckResult]:
    results = []
    disc = p_point.curve.discriminant
    terms = list(dn.denom_sequence(p_point, q_point, 40))
    candidates = _candidate_primes(terms, bad=set())
    violations = [
        (t.n, p)
        for t in terms
        for p in candidates
        if disc % p != 0 and t.denominator % p == 0 and valuation(t.denominator, p) % 2
    ]
    _check(results, "even_valuations", not violations,
           f"{len(candidates)} primes checked" + (f"; first violation {violations[0]}" if violations else ""))
    return results


def suite_sequence(p_point: Point, q_point: Point) -> list[CheckResult]:
    results = []
    terms = list(dn.denom_sequence(p_point, q_point, 40))

    _check(results, "reduced_terms",
           all(gcd(abs(t.numerator), t.denominator) == 1 and t.denominator >= 1 for t in terms))

    sound = all(gcd(part, earlier.denominator) == 1
                for t, part in dn.primitive_parts(terms) for earlier in terms[:t.n - 1])
    _check(results, "primitive_part_soundness", sound)

    # formal-group law and divisibility hold for the untranslated sequence
    base = list(dn.denom_sequence(p_point, p_point.curve.identity(), 40))
    denoms = [t.denominator for t in base]
    bad = {p for p in factorize(abs(p_point.curve.discriminant)).factors} | {2}
    candidates = _candidate_primes(base, bad)
    law_ok = True
    for m in range(1, 41):
        for p in candidates:
            e = valuation(denoms[m - 1], p) if denoms[m - 1] % p == 0 else 0
            if e == 0:
                continue
            k = 2
            while m * k <= 40:
                if valuation(denoms[m * k - 1], p) != e + 2 * valuation(k, p):
                    law_ok = False
                k += 1
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


def suite_modp(p_point: Point, q_point: Point) -> list[CheckResult]:
    results = []
    curve = p_point.curve
    good = [p for p in primes_upto(500) if curve.discriminant % p != 0]

    dual_ok = hasse_ok = True
    for p in good:
        cp = modp.reduce_curve(curve, p)
        enum = modp.group_order_by_enumeration(cp)
        dual_ok = dual_ok and enum == modp.group_order(cp)
        hasse_ok = hasse_ok and (enum - p - 1) ** 2 <= 4 * p
    _check(results, "order_dual_route", dual_ok, f"{len(good)} primes")
    _check(results, "hasse_bound", hasse_ok)

    homo_ok = lagrange_ok = witness_ok = True
    for p in good[:25]:
        cp = modp.reduce_curve(curve, p)
        order = modp.group_order_by_enumeration(cp)
        red = lambda pt: modp.reduce_point(pt, cp)
        for a in (1, 2, 3):
            lhs = red(a * p_point + q_point)
            rhs = (a * red(p_point)) + red(q_point)
            homo_ok = homo_ok and lhs == rhs
        r = red(p_point)
        o = modp.point_order(r, order)
        lagrange_ok = lagrange_ok and order % o == 0
        for k in (2, 3):
            lagrange_ok = lagrange_ok and modp.point_order(k * r, order) == o // gcd(k, o)
        member, witness = modp.in_cyclic_subgroup(red(q_point), r, order)
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
    if name == "all":
        out = []
        for suite_name, fn in SUITES.items():
            out.extend(
                CheckResult(f"{suite_name}.{r.name}", r.ok, r.detail)
                for r in fn(p_point, q_point)
            )
        return out
    if name not in SUITES:
        raise KeyError(name)
    return [CheckResult(f"{name}.{r.name}", r.ok, r.detail) for r in SUITES[name](p_point, q_point)]
