"""Command-line front end: fixture files in, CSV/JSON reports out.

Exit codes: 0 success, 1 usage error (an out-of-range option or
ELLDIV_THREADS value included) or fixture parse error, 2 mathematical
precondition violation (torsion P, nP+Q hitting the identity, ...),
3 verification-suite failure, 4 ``badset`` could not fully factor the
discriminant within its budget.

ELLDIV_THREADS, an integer >= 1 (default 1), sets the number of processes
that ``ltcount`` and ``primdiv`` work on: this one and ELLDIV_THREADS - 1
forked ones (none where os.fork is missing); it is read here and nowhere
in the library.

Fixture grammar (keys separated by newlines or semicolons, # comments):

    curve = [a1, a2, a3, a4, a6]     # integers
    P = [x, y]                       # rationals like -5/8 or integers
    Q = [x, y] | O
    label = "free text"              # optional

JSON reports encode every exact-integer field as a decimal string (values
can exceed any native number range); real-valued fields are plain JSON
numbers with 12 significant digits.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import suites
from .denominators import (
    CollisionWithIdentityError,
    IncompleteFactorizationError,
    NonTorsionQError,
    bad_set,
    denom_sequence,
    primitive_reports,
)
from .heights import NonConvergenceError, canonical_height
from .modp import lang_trotter_sweep
from .numtheory import DEFAULT_FACTOR_BUDGET, _PM1_GATE
from .rational_ec import (
    Point,
    PointNotOnCurveError,
    SingularCurveError,
    TorsionPointError,
    WeierstrassCurve,
)


class FixtureParseError(ValueError):
    """Malformed fixture text."""


class UsageError(Exception):
    pass


@dataclass
class Fixture:
    label: str
    curve: WeierstrassCurve
    p: Point
    q: Point


def _parse_rational(token: str) -> Fraction:
    try:
        return Fraction(token.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise FixtureParseError(f"bad rational literal {token!r}") from exc


def _parse_bracket_list(value: str, key: str) -> list[str]:
    value = value.strip()
    if not (value.startswith("[") and value.endswith("]")):
        raise FixtureParseError(f"{key} expects a bracketed list, got {value!r}")
    return [tok for tok in value[1:-1].split(",")]


def parse_fixture(text: str) -> Fixture:
    """Parse the flat key-value fixture format and validate the geometry."""
    entries: dict[str, str] = {}
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0]
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            if "=" not in stmt:
                raise FixtureParseError(f"expected key = value, got {stmt!r}")
            key, _, value = stmt.partition("=")
            key = key.strip()
            if key in entries:
                raise FixtureParseError(f"duplicate key {key!r}")
            entries[key] = value.strip()

    unknown = set(entries) - {"curve", "P", "Q", "label"}
    if unknown:
        raise FixtureParseError(f"unknown keys {sorted(unknown)}")
    for key in ("curve", "P", "Q"):
        if key not in entries:
            raise FixtureParseError(f"missing key {key!r}")

    coeff_tokens = _parse_bracket_list(entries["curve"], "curve")
    if len(coeff_tokens) != 5:
        raise FixtureParseError("curve expects exactly [a1,a2,a3,a4,a6]")
    coeffs = []
    for tok in coeff_tokens:
        value = _parse_rational(tok)
        if value.denominator != 1:
            raise FixtureParseError(f"curve coefficients must be integers, got {tok.strip()!r}")
        coeffs.append(int(value))
    curve = WeierstrassCurve(*coeffs)

    def parse_point(key: str, allow_identity: bool) -> Point:
        value = entries[key]
        if value == "O":
            if not allow_identity:
                raise FixtureParseError(f"{key} must be an affine point")
            return curve.identity()
        tokens = _parse_bracket_list(value, key)
        if len(tokens) != 2:
            raise FixtureParseError(f"{key} expects [x, y]")
        return curve.point(_parse_rational(tokens[0]), _parse_rational(tokens[1]))

    label = entries.get("label", "fixture").strip('"')
    return Fixture(label, curve, parse_point("P", False), parse_point("Q", True))


def load_fixture(path: str) -> Fixture:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise FixtureParseError(f"cannot read fixture {path}: {exc}") from exc
    return parse_fixture(text)


def _float12(value: float) -> float:
    return float(f"{value:.12g}")


def _emit_json(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_seq(fixture: Fixture, args) -> int:
    terms = denom_sequence(fixture.p, fixture.q, args.n)
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "x_num", "x_den", "C_n", "D_n"])
    for term in terms:
        writer.writerow([term.n, term.numerator, term.denominator,
                         term.numerator, term.denominator])
    return 0


def _workers() -> int:
    try:
        return _int_at_least(1)(os.environ.get("ELLDIV_THREADS", "1"))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"ELLDIV_THREADS: {exc}")


def _cmd_primdiv(fixture: Fixture, args) -> int:
    terms = denom_sequence(fixture.p, fixture.q, args.n)
    reports = primitive_reports(terms, args.factor_budget, _workers())
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "x_num", "x_den", "C_n", "D_n", "primitive_part",
                     "has_primitive", "certificate_prime", "fully_factored"])
    for term, report in reports:
        writer.writerow([
            term.n, term.numerator, term.denominator, term.numerator, term.denominator,
            report.primitive_part,
            "true" if report.has_primitive else "false",
            "" if report.certificate_prime is None else report.certificate_prime,
            "true" if report.fully_factored else "false",
        ])
    return 0


def _cmd_height(fixture: Fixture, args) -> int:
    estimate = canonical_height(fixture.p, args.tol)
    _emit_json({
        "label": fixture.label,
        "point": "P",
        "value": _float12(estimate.value),
        "error_bound": _float12(estimate.error_bound),
        "iterations_used": str(estimate.iterations_used),
    })
    return 0


def _cmd_ltcount(fixture: Fixture, args) -> int:
    result = lang_trotter_sweep(fixture.p, fixture.q, args.x, keep_primes=args.keep_primes,
                                workers=_workers())
    _emit_json({
        "label": fixture.label,
        "x": str(result.x),
        "count": str(result.count),
        "ratio": _float12(result.ratio),
        "skipped_bad": [str(p) for p in result.skipped_bad],
        "member_primes": None if result.member_primes is None
        else [str(p) for p in result.member_primes],
    })
    return 0


def _cmd_badset(fixture: Fixture, args) -> int:
    bad = bad_set(fixture.q, args.factor_budget)
    _emit_json({
        "label": fixture.label,
        "primes": [str(p) for p in bad.primes],
        "reasons": {str(p): list(tags) for p, tags in bad.reasons.items()},
    })
    return 0


def _cmd_verify(fixture: Fixture, args) -> int:
    try:
        checks = suites.run_suite(args.suite, fixture.p, fixture.q)
    except KeyError:
        raise UsageError(f"unknown suite {args.suite!r}; choose from "
                         f"{sorted(suites.SUITES)} or 'all'")
    failed = 0
    for check in checks:
        status = "PASS" if check.ok else "FAIL"
        detail = f": {check.detail}" if check.detail else ""
        print(f"{status} {check.name}{detail}")
        failed += 0 if check.ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="elldiv",
                     description="denominator sequences, primitive divisors, heights, "
                                 "and orbit counts for elliptic curves over Q")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("fixture", help="path to a fixture file")
        p.set_defaults(fn=fn)
        return p

    p = add("seq", _cmd_seq, "emit terms (C_n, D_n) of x(nP+Q) as CSV")
    p.add_argument("--n", type=_int_at_least(1), required=True, help="number of terms")

    def add_factor_budget(p):
        p.add_argument("--factor-budget", type=_int_at_least(0), default=DEFAULT_FACTOR_BUDGET,
                       help="factoring work budget per factorization: Pollard-rho steps plus "
                            f"p-1 units, with p-1 only from {_PM1_GATE} up")

    p = add("primdiv", _cmd_primdiv, "emit primitive-divisor reports as CSV")
    p.add_argument("--n", type=_int_at_least(1), required=True, help="number of terms")
    add_factor_budget(p)

    p = add("height", _cmd_height, "canonical height of P as JSON")
    p.add_argument("--tol", type=_tolerance, default=1e-6, help="largest acceptable error bound")

    p = add("ltcount", _cmd_ltcount, "orbit-membership prime count up to x as JSON")
    p.add_argument("--x", type=_int_at_least(2), required=True, help="sweep bound")
    p.add_argument("--keep-primes", action="store_true", help="include the member primes")

    add_factor_budget(add("badset", _cmd_badset, "excluded-prime set for the fixture as JSON"))

    p = add("verify", _cmd_verify, "run a named invariant suite")
    p.add_argument("--suite", required=True,
                   help=f"one of {sorted(suites.SUITES)} or 'all'")
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        fixture = load_fixture(args.fixture)
        return args.fn(fixture, args)
    except (UsageError, FixtureParseError, SingularCurveError, PointNotOnCurveError) as exc:
        print(f"elldiv: error: {exc}", file=sys.stderr)
        return 1
    except (TorsionPointError, CollisionWithIdentityError, NonTorsionQError,
            NonConvergenceError) as exc:
        print(f"elldiv: precondition violated: {exc}", file=sys.stderr)
        return 2
    except IncompleteFactorizationError as exc:
        print(f"elldiv: incomplete factorization: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
