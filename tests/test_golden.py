"""CLI stdout on the shipped fixtures, compared byte for byte with stored output.

The files under tests/golden/ were written by the CLI before the refactors they
guard (the term stream; batch trial division in factorize); a change that
alters any row, check line or formatting fails here. The budget-2^16 primdiv
case is the benchmark's certify argv: it pins certificate primes and
fully_factored flags that the n = 25 rows do not reach. The verify files were
written again when the parity check became the square test on D_n, which
changed only the parity.even_valuations detail; every other verify line,
including the sequence checks that moved from factoring to gcds, is as first
written. The modp.order_dual_route line was written again when that check
came to compare only the primes where group_order does not enumerate. The
65a heights.siegel_trend line was written again (34 -> 14 finite places)
when the heights suite stopped factoring primitive parts: its places are
now the primes below 10^4 that divide some D_1 ... D_20, and 37a happens to
keep the same 17. The 65a ltcount file was written before the orbit sweep moved to the short
Weierstrass model, and pins every member prime of 65a up to 10^5. The order2-a
ltcount file was written before the sweep settled primes by quadratic
characters for a Q of order 2; on that fixture the characters find members,
which on 65a they never do. The order2-full ltcount file was written before
the sweep walked the 2-part of P for a Q of order 2; on that curve every good
prime has all three points of order 2 rational. The 37a (Q = O), search-a (Q
of infinite order) and order3 (Q of order 3) ltcount files were written before
the sweep sent every Q not of order 2 through one discrete-log route. The
height files, one per shipped fixture, were written before the height
series' expansion bound went from two powers of its floor to one, which
changed only the working precision. The verify files of the other six
fixtures (order2-a, order2-full, order3 and the three search curves) were
written before the heights and sequence suites came to read nP from the one
untranslated term stream, instead of walking and multiplying it themselves.
The three Tate normal form fixtures (t4-egg, t6-egg and t5, with Q = (0, 0)
of order 4, 6 and 5) got their ltcount, verify and height files before the
worker pool came to fork its processes directly; their sweeps take the
discrete-log route with a composite or prime t above 3. The seq files, one
per shipped fixture, were written before the group law moved from Fractions
to integer triples; they pin the terms C_n and D_n for n <= 30 on every
fixture, where primdiv pins them only on 37a and 65a. The primdiv-n30-b0
files, one per shipped fixture, were written before a point came to store
its integer triple instead of two Fractions; at budget 0 they pin every
fixture's primitive parts, certificate primes and fully_factored flags.
"""

from pathlib import Path

import pytest

from elldiv import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    (["primdiv", "--n", "25"], "primdiv-n25"),
    (["primdiv", "--n", "40", "--factor-budget", "65536"], "primdiv-n40-b65536"),
    (["verify", "--suite", "all"], "verify-all"),
]


# each case with ELLDIV_THREADS unset and at 2; the output must not change
THREADED = [(argv, stem, threads) for argv, stem in CASES for threads in (None, "2")]


@pytest.mark.parametrize("fixture", ["37a", "65a"])
@pytest.mark.parametrize("argv,stem,threads", THREADED,
                         ids=[stem if threads is None else f"{stem}-threads-{threads}"
                              for _, stem, threads in THREADED])
def test_cli_output_matches_golden(capsys, monkeypatch, fixture, argv, stem, threads):
    if threads is None:
        monkeypatch.delenv("ELLDIV_THREADS", raising=False)
    else:
        monkeypatch.setenv("ELLDIV_THREADS", threads)
    expected = next(GOLDEN.glob(f"{stem}-{fixture}.*")).read_bytes().decode("utf-8")
    code = cli.main([argv[0], str(ROOT / "fixtures" / f"{fixture}.fixture"), *argv[1:]])
    assert code == 0
    assert capsys.readouterr().out == expected


# the other nine fixtures' verify files; 37a and 65a run through CASES above
VERIFY = [(fixture, threads)
          for fixture in ("order2-a", "order2-full", "order3", "search-a", "search-b", "search-c",
                          "t4-egg", "t6-egg", "t5")
          for threads in (None, "2")]


@pytest.mark.parametrize("fixture,threads", VERIFY,
                         ids=[fixture + ("" if threads is None else f"-threads-{threads}")
                              for fixture, threads in VERIFY])
def test_verify_output_matches_golden(capsys, monkeypatch, fixture, threads):
    if threads is None:
        monkeypatch.delenv("ELLDIV_THREADS", raising=False)
    else:
        monkeypatch.setenv("ELLDIV_THREADS", threads)
    expected = (GOLDEN / f"verify-all-{fixture}.txt").read_bytes().decode("utf-8")
    code = cli.main(["verify", str(ROOT / "fixtures" / f"{fixture}.fixture"), "--suite", "all"])
    assert code == 0
    assert capsys.readouterr().out == expected


LTCOUNT = [(fixture, threads)
           for fixture in ("65a", "order2-a", "order2-full", "37a", "search-a", "order3",
                           "t4-egg", "t6-egg", "t5")
           for threads in (None, "2")]


@pytest.mark.parametrize("fixture,threads", LTCOUNT,
                         ids=[("" if fixture == "65a" else f"{fixture}-")
                              + ("serial" if threads is None else f"threads-{threads}")
                              for fixture, threads in LTCOUNT])
def test_ltcount_output_matches_golden(capsys, monkeypatch, fixture, threads):
    if threads is None:
        monkeypatch.delenv("ELLDIV_THREADS", raising=False)
    else:
        monkeypatch.setenv("ELLDIV_THREADS", threads)
    expected = (GOLDEN / f"ltcount-x100000-{fixture}.json").read_bytes().decode("utf-8")
    code = cli.main(["ltcount", str(ROOT / "fixtures" / f"{fixture}.fixture"),
                     "--x", "100000", "--keep-primes"])
    assert code == 0
    assert capsys.readouterr().out == expected


HEIGHT = [(fixture, threads)
          for fixture in ("37a", "65a", "order2-a", "order2-full", "order3",
                          "search-a", "search-b", "search-c", "t4-egg", "t6-egg", "t5")
          for threads in (None, "2")]


@pytest.mark.parametrize("fixture,threads", HEIGHT,
                         ids=[fixture + ("" if threads is None else f"-threads-{threads}")
                              for fixture, threads in HEIGHT])
def test_height_output_matches_golden(capsys, monkeypatch, fixture, threads):
    if threads is None:
        monkeypatch.delenv("ELLDIV_THREADS", raising=False)
    else:
        monkeypatch.setenv("ELLDIV_THREADS", threads)
    expected = (GOLDEN / f"height-tol1e-10-{fixture}.json").read_bytes().decode("utf-8")
    code = cli.main(["height", str(ROOT / "fixtures" / f"{fixture}.fixture"), "--tol", "1e-10"])
    assert code == 0
    assert capsys.readouterr().out == expected


SEQ = ["37a", "65a", "order2-a", "order2-full", "order3",
       "search-a", "search-b", "search-c", "t4-egg", "t6-egg", "t5"]


@pytest.mark.parametrize("fixture", SEQ)
def test_seq_output_matches_golden(capsys, fixture):
    expected = (GOLDEN / f"seq-n30-{fixture}.csv").read_bytes().decode("utf-8")
    code = cli.main(["seq", str(ROOT / "fixtures" / f"{fixture}.fixture"), "--n", "30"])
    assert code == 0
    assert capsys.readouterr().out == expected


PRIMDIV = [(fixture, threads) for fixture in SEQ for threads in (None, "2")]


@pytest.mark.parametrize("fixture,threads", PRIMDIV,
                         ids=[fixture + ("" if threads is None else f"-threads-{threads}")
                              for fixture, threads in PRIMDIV])
def test_primdiv_output_matches_golden(capsys, monkeypatch, fixture, threads):
    if threads is None:
        monkeypatch.delenv("ELLDIV_THREADS", raising=False)
    else:
        monkeypatch.setenv("ELLDIV_THREADS", threads)
    expected = (GOLDEN / f"primdiv-n30-b0-{fixture}.csv").read_bytes().decode("utf-8")
    code = cli.main(["primdiv", str(ROOT / "fixtures" / f"{fixture}.fixture"),
                     "--n", "30", "--factor-budget", "0"])
    assert code == 0
    assert capsys.readouterr().out == expected
