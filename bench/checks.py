"""Output checks for the benchmark workloads.

Every check here uses its own arithmetic and never imports elldiv, so a
defect in the library cannot hide itself. Where the repository's tests
froze a value, the check compares against it; elsewhere it checks an
invariant that every correct output satisfies. No check compares a stdout
digest: a better factoring stage legitimately changes certificate primes.

Each ``check_*`` function takes the child's result (see child.py) and the
workload's inputs, and returns ``(problems, quality)``: a list of
human-readable failures (empty when the output is correct) and a dict of
output-quality figures for the run's detail line.
"""

import json
import random
import re
from fractions import Fraction
from math import gcd, isqrt, log, sqrt

# Frozen in tests/test_acceptance.py, tests/test_modp.py and tests/conftest.py.
SWEEP_65A_BASELINE = {100: 6, 1000: 43, 10000: 334, 100000: 2685}
MEMBERS_65A_UPTO_200 = [2, 17, 41, 73, 89, 97, 109, 113, 137, 149, 157, 193, 197]
EXCEPTION_LIST_65A = []       # n >= 2 whose D_n has no primitive divisor
HHAT_65A = 0.1877570117274
HHAT_REFERENCE_ERROR = 2e-5   # how far the frozen value may sit from the true height
BAD_PRIMES_65A = [5, 13]

PRIMDIV_HEADER = ["n", "x_num", "x_den", "C_n", "D_n", "primitive_part",
                  "has_primitive", "certificate_prime", "fully_factored"]
VERIFY_CHECK_NAMES = [
    "group.closure", "group.commutativity", "group.associativity", "group.identity_law",
    "group.inverse_law", "group.negation_involution", "group.scalar_distributivity",
    "group.torsion_scan", "heights.quadraticity", "heights.pairing_self",
    "heights.pairing_torsion_kernel", "heights.local_decomposition", "heights.siegel_trend",
    "heights.height_comparison_bounded", "parity.even_valuations", "sequence.reduced_terms",
    "sequence.primitive_part_soundness", "sequence.formal_group_valuations",
    "sequence.divisibility", "sequence.denominator_vs_reduction", "modp.order_dual_route",
    "modp.hasse_bound", "modp.reduction_homomorphism", "modp.lagrange",
    "modp.membership_witness",
]
SPOT_CHECKS = 6               # primes whose orbit membership is re-derived per output


class Model:
    """A curve [a1, a2, a3, a4, a6] with affine points P and Q.

    Arithmetic runs on Y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 with Y = 2y + a1 x + a3,
    a different formula route from the library's general-model group law.
    """

    def __init__(self, coeffs, p, q):
        a1, a2, a3, a4, a6 = coeffs
        self.coeffs = tuple(coeffs)
        self.b2, self.b4, self.b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        self.discriminant = (-self.b2 ** 2 * b8 - 8 * self.b4 ** 3 - 27 * self.b6 ** 2
                             + 9 * self.b2 * self.b4 * self.b6)
        self.p, self.q = p, q

    @classmethod
    def curve_65a(cls, s=0, t=0):
        """65a (P = (1, 0), Q = (0, 0) of order 2) after y -> y + s x + t.

        The substitution keeps every x-coordinate, so D_n, heights, bad
        primes and orbit membership are those of the shipped fixture.
        """
        a1, a2, a3, a4, a6 = 1, 0, 0, -1, 0
        coeffs = (a1 + 2 * s, a2 - s * a1 - s * s, a3 + 2 * t,
                  a4 - s * a3 - t * a1 - 2 * s * t, a6 - t * a3 - t * t)
        return cls(coeffs, (Fraction(1), Fraction(-s - t)), (Fraction(0), Fraction(-t)))

    def fixture_text(self, label):
        def pair(pt):
            return f"[{pt[0]}, {pt[1]}]"
        return (f"curve = [{', '.join(map(str, self.coeffs))}]\n"
                f"P = {pair(self.p)}\nQ = {pair(self.q)}\nlabel = \"{label}\"\n")

    def _to_y(self, pt):
        a1, _, a3, _, _ = self.coeffs
        return (pt[0], 2 * pt[1] + a1 * pt[0] + a3)

    def add(self, u, v, mod=None):
        """Sum of two points given as (x, Y), None for the identity; over Q or mod a prime."""
        if u is None:
            return v
        if v is None:
            return u
        (x1, y1), (x2, y2) = u, v

        def div(a, b):
            return a * pow(b, -1, mod) % mod if mod else Fraction(a) / b

        if x1 == x2:
            if (y1 + y2) % mod == 0 if mod else y1 + y2 == 0:
                return None
            lam = div(12 * x1 * x1 + 2 * self.b2 * x1 + 2 * self.b4, 2 * y1)
        else:
            lam = div(y2 - y1, x2 - x1)
        x3 = div(lam * lam - self.b2, 4) - x1 - x2
        y3 = -(lam * (x3 - x1) + y1)
        return (x3 % mod, y3 % mod) if mod else (x3, y3)

    def translated_x(self, count):
        """x(nP+Q) for n = 1..count, as reduced Fractions."""
        step, current, out = self._to_y(self.p), self._to_y(self.q), []
        for _ in range(count):
            current = self.add(current, step)
            out.append(current[0])
        return out

    def member_mod(self, p):
        """Whether Q mod p lies in <P mod p>, by walking the orbit of P (odd good p)."""
        def reduce(pt):
            x, y = self._to_y(pt)
            if x.denominator % p == 0 or y.denominator % p == 0:
                return None
            return (x.numerator * pow(x.denominator, -1, p) % p,
                    y.numerator * pow(y.denominator, -1, p) % p)
        step, target = reduce(self.p), reduce(self.q)
        current = step
        while current is not None:
            if current == target:
                return True
            current = self.add(current, step, p)
        return target is None


def sieve(limit):
    """flags[i] == 1 exactly when i <= limit is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(flags[i * i :: i]))
    return flags


def probable_prime(n):
    """Miller-Rabin with the first 20 prime bases: exact below 3.3e24, and beyond
    that a composite passes with negligible probability."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        y = pow(b, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(r - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _strip(value, history):
    for earlier in history:
        g = gcd(value, earlier)
        while g > 1:
            value //= g
            g = gcd(value, g)
    return value


def _cli_stdout(result, problems):
    """The CLI's stdout when the command ran and exited 0, else None with a problem noted."""
    if result.get("error"):
        problems.append("exception: " + result["error"].strip().splitlines()[-1])
    elif result.get("exit") != 0:
        problems.append(f"exit code {result.get('exit')}")
    else:
        return result["stdout"]
    return None


def spot_primes(model, x, seed):
    """Odd good primes <= x whose membership the orbit check re-derives.

    Four are drawn from the whole range and two from above 10^5 when x
    reaches past it, so a window shift is checked where the frozen counts
    say nothing.
    """
    flags = sieve(x)
    good = [p for p in range(3, x + 1) if flags[p] and model.discriminant % p]
    rng = random.Random(f"spot:{seed}:{x}")
    high = [p for p in good if p > 10 ** 5]
    sample = rng.sample(good, min(SPOT_CHECKS - 2, len(good)))
    return sorted(set(sample + rng.sample(high, min(2, len(high)))))


def check_orbit(result, model, x, seed):
    problems = []
    text = _cli_stdout(result, problems)
    if text is None:
        return problems, {}
    try:
        payload = json.loads(text)
        count = int(payload["count"])
        members = [int(p) for p in payload["member_primes"]]
        skipped = [int(p) for p in payload["skipped_bad"]]
        ratio = float(payload["ratio"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable ltcount output: {exc!r}"], {}
    if payload.get("x") != str(x):
        problems.append(f"x is {payload.get('x')!r}, expected {x}")
    if skipped != BAD_PRIMES_65A:
        problems.append(f"skipped_bad {skipped} != {BAD_PRIMES_65A}")
    if count != len(members):
        problems.append(f"count {count} != {len(members)} member primes")
    flags = sieve(x)
    if members != sorted(set(members)) or any(
            not 2 <= p <= x or not flags[p] or p in BAD_PRIMES_65A for p in members):
        problems.append("member list is not an increasing list of good primes <= x")
    for bound, frozen in SWEEP_65A_BASELINE.items():
        seen = sum(1 for p in members if p <= bound)
        if bound <= x and seen != frozen:
            problems.append(f"{seen} members <= {bound}, frozen baseline {frozen}")
    if [p for p in members if p <= 200] != MEMBERS_65A_UPTO_200:
        problems.append("members <= 200 differ from the frozen list")
    if ratio != float(f"{count / sqrt(log(x)):.12g}"):
        problems.append(f"ratio {ratio} != count / sqrt(log x)")
    member_set = set(members)
    for p in spot_primes(model, x, seed):
        if model.member_mod(p) != (p in member_set):
            problems.append(f"membership of {p} disagrees with the orbit walk")
    return problems, {"member_count": len(members)}


def check_certify(result, model, count):
    problems = []
    text = _cli_stdout(result, problems)
    if text is None:
        return problems, {}
    lines = text.splitlines()
    if not lines or lines[0].split(",") != PRIMDIV_HEADER:
        return ["primdiv header differs"], {}
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != count or any(len(r) != len(PRIMDIV_HEADER) for r in rows):
        return [f"expected {count} rows of {len(PRIMDIV_HEADER)} fields"], {}
    expected_x = model.translated_x(count)
    history, with_part, certified, factored = [], 0, 0, 0
    for row, x_expected in zip(rows, expected_x):
        try:
            n, x_num, x_den, c_n, d_n, part = map(int, row[:6])
            cert = int(row[7]) if row[7] else None
        except ValueError:
            problems.append(f"row {row[0]}: non-integer field")
            break
        flags = row[6], row[8]
        where = f"n={n}"
        if n != len(history) + 1:
            problems.append(f"{where}: rows out of order")
        if d_n < 1 or (x_num, x_den) != (c_n, d_n) or gcd(c_n, d_n) != 1 \
                or Fraction(c_n, d_n) != x_expected:
            problems.append(f"{where}: C_n/D_n is not x(nP+Q) in lowest terms")
        if not 1 <= part <= d_n or d_n % part or any(gcd(part, d) != 1 for d in history) \
                or _strip(d_n // part, history) != 1:
            problems.append(f"{where}: primitive part is not the largest divisor "
                            "of D_n coprime to D_1..D_(n-1)")
        if any(f not in ("true", "false") for f in flags) or (flags[0] == "true") != (part > 1):
            problems.append(f"{where}: has_primitive flag disagrees with the part")
        if n >= 2 and part == 1 and n not in EXCEPTION_LIST_65A:
            problems.append(f"{where}: no primitive divisor, frozen exception list is empty")
        if cert is not None and (not probable_prime(cert) or part % cert):
            problems.append(f"{where}: certificate {cert} is not a prime factor of the part")
        if part == 1 and (cert is not None or flags[1] != "true"):
            problems.append(f"{where}: trivial part must be fully factored with no certificate")
        if part > 1 and flags[1] == "true" and cert is None:
            problems.append(f"{where}: fully factored part without a certificate prime")
        with_part += part > 1
        certified += cert is not None
        factored += flags[1] == "true"
        history.append(d_n)
    quality = {"certified_ratio": certified / max(with_part, 1),
               "factored_ratio": factored / len(rows)}
    return problems, quality


def check_verify(result):
    problems = []
    text = _cli_stdout(result, problems)
    if text is None:
        return problems, {}
    lines = text.splitlines()
    summary = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1]) if lines else None
    passed = [line.split(":")[0][5:] for line in lines[:-1] if line.startswith("PASS ")]
    if summary is None or summary[1] != summary[2] or int(summary[1]) != len(passed) \
            or len(passed) != len(lines) - 1:
        problems.append("verify did not end with N/N checks passed over N PASS lines")
    missing = sorted(set(VERIFY_CHECK_NAMES) - set(passed))
    if missing:
        problems.append(f"checks missing or not passed: {missing}")
    return problems, {"checks_passed": len(passed)}


def check_lemma(result, count):
    """HHAT_65A enclosed by each error bound, and h(nP+Q) >= h(nP) - slack."""
    if result.get("error"):
        return ["exception: " + result["error"].strip().splitlines()[-1]], {}
    rows = result.get("rows") or []
    if [r[0] for r in rows] != list(range(1, count + 1)):
        return [f"expected heights for n = 1..{count}"], {}
    problems, worst = [], 0.0
    for n, lhs, lhs_err, lhs_iter, rhs, rhs_err, rhs_iter in rows:
        exact = n * n * HHAT_65A
        for value, err, iters in ((lhs, lhs_err, lhs_iter), (rhs, rhs_err, rhs_iter)):
            if abs(value - exact) > err + n * n * HHAT_REFERENCE_ERROR or iters < 1:
                problems.append(f"n={n}: height {value} not within {err} of n^2*HHAT_65A")
            worst = max(worst, abs(value - exact) / exact)
        # criterion 4 of tests/test_acceptance.py allows n*(h(P) + h(Q)) of sag;
        # h(Q) = 0 because Q is torsion
        if lhs < rhs - n * (HHAT_65A + HHAT_REFERENCE_ERROR) - lhs_err - rhs_err:
            problems.append(f"n={n}: height inequality violated")
    return problems, {"hhat_rel_err": worst}
