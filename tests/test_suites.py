"""The ``verify`` suites on corrupted term streams, and what each suite reads."""

import dataclasses
from pathlib import Path

import pytest

from elldiv import denominators, heights, numtheory, rational_ec, suites
from elldiv.cli import load_fixture

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# the shipped fixtures; the search-* curves took 20-40 s in `verify` while
# the heights suite factored primitive parts to find its places
ALL_FIXTURES = ["37a", "65a", "search-a", "search-b", "search-c", "order2-a",
                "order2-full", "order3"]

# (fixture, m, k, p): p is a good odd prime of the untranslated B_m, mk <= 40
FORMAL_GROUP_CORRUPTIONS = [("37a", 7, 3, 3), ("65a", 3, 3, 3)]


def points(name):
    fixture = load_fixture(str(FIXTURES / f"{name}.fixture"))
    return fixture.p, fixture.q


def outcomes(results):
    return {r.name: r.ok for r in results}


def scaled(terms, n, factor):
    """The terms with D_n multiplied by ``factor``."""
    out = list(terms)
    out[n - 1] = dataclasses.replace(out[n - 1], denominator=out[n - 1].denominator * factor)
    return out


@pytest.mark.parametrize("name", ["37a", "65a"])
def test_parity_rejects_a_non_square_denominator(name):
    p_point, q_point = points(name)
    terms = list(denominators.denom_sequence(p_point, q_point, 40))
    assert outcomes(suites.suite_parity(p_point, q_point, lambda _: terms))["even_valuations"]
    corrupted = scaled(terms, 10, 3)
    assert not outcomes(suites.suite_parity(p_point, q_point, lambda _: corrupted))["even_valuations"]


@pytest.mark.parametrize("name,m,k,p", FORMAL_GROUP_CORRUPTIONS)
def test_formal_group_check_rejects_a_wrong_valuation(name, m, k, p):
    p_point, q_point = points(name)
    real = denominators.denom_sequence
    b_m = next(t.denominator for t in real(p_point, p_point.curve.identity(), m) if t.n == m)
    assert b_m % p == 0 and (2 * p_point.curve.discriminant) % p != 0

    # the suite reads B_n from the stream's untranslated orbit, so corrupt B_mk there
    def corrupted(translate):
        out = list(real(p_point, translate, 40))
        return scaled(out, m * k, p) if translate.is_identity else out

    assert not outcomes(suites.suite_sequence(p_point, q_point, corrupted))["formal_group_valuations"]


@pytest.mark.parametrize("name", ["37a", "65a"])
@pytest.mark.parametrize("suite", ["parity", "sequence", "heights"])
def test_theorem_suites_factor_nothing(monkeypatch, name, suite):
    def refuse(*_args, **_kwargs):
        raise AssertionError("factorize called")

    assert not hasattr(suites, "factorize")
    for module in (numtheory, denominators):
        monkeypatch.setattr(module, "factorize", refuse)
    results = suites.run_suite(suite, *points(name))
    assert results and all(r.ok for r in results)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_verify_does_no_rho_or_pm1_work(monkeypatch, name):
    def refuse(*_args, **_kwargs):
        raise AssertionError("rho or p-1 called")

    monkeypatch.setattr(numtheory, "_brent_rho", refuse)
    monkeypatch.setattr(numtheory, "_pm1", refuse)
    results = suites.run_suite("all", *points(name))
    assert len(results) >= 24 and all(r.ok for r in results)


@pytest.mark.parametrize("shift", [1, -1])
def test_local_decomposition_catches_a_wrong_exponent(monkeypatch, shift):
    # 2 is a place of 65a (D_2 = 4); the cofactor's log must not absorb the error
    real = heights.local_height_exponent
    monkeypatch.setattr(heights, "local_height_exponent",
                        lambda point, p: max(real(point, p) + shift * (p == 2), 0))
    assert not outcomes(suites.run_suite("heights", *points("65a")))["heights.local_decomposition"]


# (suite, builds of the nP+Q stream, builds of the untranslated nP stream)
BUILDS = [("group", 0, 0), ("modp", 0, 0), ("heights", 1, 1),
          ("parity", 1, 0), ("sequence", 1, 1), ("all", 1, 1)]


@pytest.mark.parametrize("suite,builds,untranslated", BUILDS,
                         ids=[f"{suite}-{builds}" for suite, builds, _ in BUILDS])
def test_run_suite_builds_the_stream_at_most_once(monkeypatch, suite, builds, untranslated):
    p_point, q_point = points("65a")
    real = denominators.denom_sequence
    calls = []

    def counted(p_arg, q_arg, count):
        calls.append(q_arg)
        return real(p_arg, q_arg, count)

    monkeypatch.setattr(denominators, "denom_sequence", counted)
    suites.run_suite(suite, p_point, q_point)
    assert calls.count(q_point) == builds
    assert calls.count(p_point.curve.identity()) == untranslated


def test_heights_suite_takes_its_multiples_from_the_stream(monkeypatch):
    # nP for n <= 30 comes from the untranslated stream's additions
    real, calls = rational_ec.Point.__mul__, []

    def counted(point, n):
        calls.append(n)
        return real(point, n)

    monkeypatch.setattr(rational_ec.Point, "__mul__", counted)
    monkeypatch.setattr(rational_ec.Point, "__rmul__", counted)
    assert all(outcomes(suites.run_suite("heights", *points("65a"))).values())
    assert calls == []


def test_heights_suite_takes_each_naive_height_once(monkeypatch):
    # 40 for the siegel_trend rows, 12 for local_decomposition and 30 for
    # height_comparison_bounded; one per (term, place) pair made 642 on 65a
    real, calls = heights.naive_height, []
    monkeypatch.setattr(heights, "naive_height", lambda point: calls.append(point) or real(point))
    assert all(outcomes(suites.run_suite("heights", *points("65a"))).values())
    assert len(calls) == 82
