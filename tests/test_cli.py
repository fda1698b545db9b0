import csv
import io
import json
import os
from pathlib import Path

import pytest

from elldiv import cli
from elldiv.cli import FixtureParseError, parse_fixture
from elldiv.suites import CheckResult

FIXTURE_37A = 'curve = [0, 0, 1, -1, 0]\nP = [0, 0]\nQ = O\nlabel = "37a"\n'
FIXTURE_65A = 'curve=[1,0,0,-1,0]; P=[1,0]; Q=[0,0]; label="65a"'
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def fixture_path(tmp_path):
    def write(text, name="fx.fixture"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_fixture_multiline():
    fx = parse_fixture(FIXTURE_37A)
    assert fx.label == "37a"
    assert (fx.curve.a1, fx.curve.a3, fx.curve.a4) == (0, 1, -1)
    assert (fx.p.x, fx.p.y) == (0, 0)
    assert fx.q.is_identity


def test_parse_fixture_single_line_with_semicolons():
    fx = parse_fixture(FIXTURE_65A)
    assert fx.label == "65a"
    assert not fx.q.is_identity
    assert fx.q.x == 0


def test_parse_fixture_accepts_rational_coordinates():
    fx = parse_fixture("curve=[0,0,1,-1,0]; P=[1/4, -5/8]; Q=O")
    assert fx.p.x.denominator == 4
    assert fx.label == "fixture"


@pytest.mark.parametrize("text,fragment", [
    ("P=[0,0]; Q=O", "missing key 'curve'"),
    ("curve=[0,0,1,-1]; P=[0,0]; Q=O", "exactly"),
    ("curve=[0,0,1,-1,0]; P=[0,0]; Q=O; extra=1", "unknown keys"),
    ("curve=[0,0,1,-1,0]; P=[0,0]; P=[1,0]; Q=O", "duplicate"),
    ("curve=[0,0,1,-1,0]; P=[0,0]; Q=O; hello", "key = value"),
    ("curve=[0,0,1,-1,0]; P=[0,zebra]; Q=O", "rational"),
    ("curve=[0,0,1,-1/2,0]; P=[0,0]; Q=O", "integers"),
    ("curve=[0,0,1,-1,0]; P=O; Q=O", "affine"),
    ("curve=[0,0,1,-1,0]; P=0,0; Q=O", "bracketed"),
])
def test_parse_fixture_rejects_malformed_input(text, fragment):
    with pytest.raises(FixtureParseError) as info:
        parse_fixture(text)
    assert fragment in str(info.value)


def test_parse_fixture_rejects_singular_curve_and_off_curve_points():
    from elldiv.rational_ec import PointNotOnCurveError, SingularCurveError
    with pytest.raises(SingularCurveError):
        parse_fixture("curve=[0,0,0,0,0]; P=[0,0]; Q=O")
    with pytest.raises(PointNotOnCurveError):
        parse_fixture("curve=[0,0,1,-1,0]; P=[1,1]; Q=O")


def test_a_point_not_of_the_shape_exits_1_with_one_error_line(capsys, fixture_path):
    code, out, err = run_cli(capsys, "seq", fixture_path("curve=[1,0,0,-1,0]; P=[1/2,0]; Q=O"),
                             "--n", "3")
    assert (code, out) == (1, "")
    assert err == "elldiv: error: (1/2, 0) is not on y^2 + 1xy + 0y = x^3 + 0x^2 + -1x + 0\n"


def test_seq_command(capsys, fixture_path):
    code, out, _ = run_cli(capsys, "seq", fixture_path(FIXTURE_37A), "--n", "5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["D_n"] for r in rows] == ["1", "1", "1", "1", "4"]
    assert [r["x_num"] for r in rows] == ["0", "1", "-1", "2", "1"]
    assert rows[4]["C_n"] == "1" and rows[4]["x_den"] == "4"


def test_seq_round_trips_big_integers(capsys, fixture_path):
    code, out, _ = run_cli(capsys, "seq", fixture_path(FIXTURE_65A), "--n", "45")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    from elldiv import WeierstrassCurve, denom_sequence
    curve = WeierstrassCurve(1, 0, 0, -1, 0)
    terms = list(denom_sequence(curve.point(1, 0), curve.point(0, 0), 45))
    assert int(rows[-1]["D_n"]) == terms[-1].denominator
    assert int(rows[-1]["C_n"]) == terms[-1].numerator
    assert len(rows[-1]["D_n"]) > 300   # genuinely beyond native float range


def test_primdiv_command(capsys, fixture_path):
    code, out, _ = run_cli(capsys, "primdiv", fixture_path(FIXTURE_65A), "--n", "6")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["has_primitive"] == "false" and rows[0]["certificate_prime"] == ""
    assert rows[1]["has_primitive"] == "true" and rows[1]["certificate_prime"] == "2"
    assert rows[5]["primitive_part"] == "124609"
    assert rows[5]["certificate_prime"] == "353"
    assert all(r["fully_factored"] == "true" for r in rows)


def test_height_command(capsys, fixture_path):
    code, out, _ = run_cli(capsys, "height", fixture_path(FIXTURE_37A), "--tol", "1e-3")
    assert code == 0
    payload = json.loads(out)
    assert abs(float(payload["value"]) - 0.0255557) < 1e-3
    assert float(payload["error_bound"]) <= 1e-3
    assert payload["iterations_used"].isdigit()


def test_ltcount_command(capsys, fixture_path):
    code, out, _ = run_cli(capsys, "ltcount", fixture_path(FIXTURE_65A),
                           "--x", "100", "--keep-primes")
    assert code == 0
    payload = json.loads(out)
    assert payload["x"] == "100"
    assert payload["count"] == "6"
    assert payload["member_primes"] == ["2", "17", "41", "73", "89", "97"]
    assert payload["skipped_bad"] == ["5", "13"]
    assert isinstance(payload["ratio"], float)

    code, out, _ = run_cli(capsys, "ltcount", fixture_path(FIXTURE_65A), "--x", "2")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == "1" and payload["member_primes"] is None


def test_badset_command(capsys, fixture_path):
    code, out, _ = run_cli(capsys, "badset", fixture_path(FIXTURE_65A))
    assert code == 0
    payload = json.loads(out)
    assert payload["primes"] == ["2", "5", "13"]
    assert payload["reasons"]["5"] == ["divides_discriminant"]
    assert payload["reasons"]["2"] == ["divides_two_times_order_of_Q"]
    # 65 factors by trial division, so no budget changes the set
    assert run_cli(capsys, "badset", fixture_path(FIXTURE_65A), "--factor-budget", "0") == (0, out, "")


def test_verify_command_passes(capsys, fixture_path):
    code, out, _ = run_cli(capsys, "verify", fixture_path(FIXTURE_65A), "--suite", "group")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_command_reports_failures(capsys, fixture_path, monkeypatch):
    def broken_suite(p_point, q_point, stream):
        return [CheckResult("always_fails", False, "engineered failure")]
    monkeypatch.setitem(cli.suites.SUITES, "group", broken_suite)
    code, out, _ = run_cli(capsys, "verify", fixture_path(FIXTURE_65A), "--suite", "group")
    assert code == 3
    assert "FAIL group.always_fails" in out


# neither fixture has a term stream: P has order 2, resp. 2P+Q = O
@pytest.mark.parametrize("text", ["curve=[1,0,0,-1,0]; P=[0,0]; Q=O",
                                  "curve=[0,0,0,-4,4]; P=[0,2]; Q=[1,1]"],
                         ids=["torsion-P", "collision"])
@pytest.mark.parametrize("suite,expected", [("group", 0), ("modp", 0), ("heights", 2), ("all", 2)])
def test_verify_without_a_term_stream(capsys, fixture_path, text, suite, expected):
    code, out, err = run_cli(capsys, "verify", fixture_path(text), "--suite", suite)
    assert code == expected
    if expected == 0:
        lines = out.splitlines()
        assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"
    else:
        assert out == ""
        assert err.startswith("elldiv: precondition violated: ") and err.count("\n") == 1


def test_verify_unknown_suite(capsys, fixture_path):
    code, _, err = run_cli(capsys, "verify", fixture_path(FIXTURE_65A), "--suite", "nope")
    assert code == 1
    assert "unknown suite" in err


def test_usage_errors_exit_1(capsys, fixture_path):
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys, "seq", "/nonexistent/path", "--n", "3")[0] == 1
    assert run_cli(capsys, "seq", fixture_path("curve=[0,0,0,0,0]; P=[0,0]; Q=O"),
                   "--n", "3")[0] == 1
    assert run_cli(capsys, "seq", fixture_path(FIXTURE_37A))[0] == 1   # missing --n


@pytest.mark.parametrize("argv", [
    ["seq", FIXTURE_65A, "--n", "-3"],
    ["seq", FIXTURE_65A, "--n", "0"],
    ["primdiv", FIXTURE_65A, "--n", "0"],
    ["primdiv", FIXTURE_65A, "--n", "3", "--factor-budget", "-1"],
    ["badset", FIXTURE_65A, "--factor-budget", "-1"],
    ["ltcount", FIXTURE_65A, "--x", "-10"],
    ["ltcount", FIXTURE_65A, "--x", "1"],
    ["height", FIXTURE_37A, "--tol", "-1"],
    ["height", FIXTURE_37A, "--tol", "0"],
    ["height", FIXTURE_37A, "--tol", "nan"],
    ["height", FIXTURE_37A, "--tol", "inf"],
])
def test_out_of_range_arguments_exit_1(capsys, fixture_path, argv):
    command, text, *options = argv
    code, out, err = run_cli(capsys, command, fixture_path(text), *options)
    assert code == 1
    assert out == ""
    assert err.startswith(f"elldiv: error: argument {options[-2]}:")


def test_math_preconditions_exit_2(capsys, fixture_path):
    torsion_p = fixture_path("curve=[1,0,0,-1,0]; P=[0,0]; Q=O", "torsion.fixture")
    code, _, err = run_cli(capsys, "seq", torsion_p, "--n", "3")
    assert code == 2
    assert "finite order" in err

    collision = fixture_path("curve=[0,0,1,-1,0]; P=[0,0]; Q=[-1,0]", "collide.fixture")
    # Q = -3P, so the third term is the identity
    code, _, err = run_cli(capsys, "seq", collision, "--n", "5")
    assert code == 2

    non_torsion_q = fixture_path("curve=[0,0,1,-1,0]; P=[0,0]; Q=[1/4,-5/8]", "ntq.fixture")
    code, _, err = run_cli(capsys, "badset", non_torsion_q)
    assert code == 2


def test_badset_unfactorable_discriminant_exits_4(capsys, fixture_path):
    # disc = -16 N^2 (4N + 27), N = 1000000000000037 * 10000000000000061; at
    # the default budget this takes seconds to fail, so run with no rho budget
    n = 1000000000000037 * 10000000000000061
    path = fixture_path(f"curve=[0,0,0,{n},{-n}]; P=[1,1]; Q=O")
    code, out, err = run_cli(capsys, "badset", path, "--factor-budget", "0")
    assert code == 4 and out == ""
    assert err.startswith("elldiv: ") and err.count("\n") == 1
    assert "discriminant" in err


def test_emitted_json_reparses(capsys, fixture_path):
    for argv in (["height", fixture_path(FIXTURE_37A)],
                 ["ltcount", fixture_path(FIXTURE_65A), "--x", "50"],
                 ["badset", fixture_path(FIXTURE_65A)]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, dict) and payload["label"]


def test_ltcount_respects_thread_env(capsys, fixture_path, monkeypatch):
    path = fixture_path(FIXTURE_65A)
    _, serial_out, _ = run_cli(capsys, "ltcount", path, "--x", "2000", "--keep-primes")
    monkeypatch.setenv("ELLDIV_THREADS", "2")
    code, threaded_out, _ = run_cli(capsys, "ltcount", path, "--x", "2000", "--keep-primes")
    assert code == 0
    assert json.loads(threaded_out) == json.loads(serial_out)
    for bad in ("abc", "0", "-2"):
        monkeypatch.setenv("ELLDIV_THREADS", bad)
        code, out, err = run_cli(capsys, "ltcount", path, "--x", "10")
        assert code == 1 and out == ""
        assert err.startswith("elldiv: error: ELLDIV_THREADS") and repr(bad) in err


def test_primdiv_respects_thread_env(capsys, fixture_path, monkeypatch):
    path = fixture_path(FIXTURE_65A)
    for bad in ("abc", "0", "-2"):
        monkeypatch.setenv("ELLDIV_THREADS", bad)
        code, out, err = run_cli(capsys, "primdiv", path, "--n", "5")
        assert code == 1 and out == ""
        assert err.startswith("elldiv: error: ELLDIV_THREADS") and repr(bad) in err


def test_a_pool_asks_for_no_more_workers_than_items(capsys, fixture_path, monkeypatch):
    # ELLDIV_THREADS=500 must not fork 500 processes to factor 4 parts or to
    # sweep 168 primes in two shares of at least 64; the caller works one
    # part or share itself, so it forks at most one process per other one
    real_fork = os.fork
    forks = []

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    path = fixture_path(FIXTURE_65A)
    runs, counts = {}, {}
    for threads in ("1", "500"):
        monkeypatch.setenv("ELLDIV_THREADS", threads)
        runs[threads], counts[threads] = [], []
        for argv in (["primdiv", path, "--n", "5"],
                     ["ltcount", path, "--x", "1000", "--keep-primes"]):
            before = len(forks)
            runs[threads].append(run_cli(capsys, *argv))
            counts[threads].append(len(forks) - before)
    assert runs["500"] == runs["1"] and runs["1"][0][0] == runs["1"][1][0] == 0
    assert counts == {"1": [0, 0], "500": [3, 1]}


def test_primdiv_collision_writes_nothing_for_any_thread_count(capsys, fixture_path, monkeypatch):
    # Q = -3P, so D_3 is undefined; no row may reach stdout before the error
    path = fixture_path("curve=[0,0,1,-1,0]; P=[0,0]; Q=[-1,0]", "collide.fixture")
    monkeypatch.delenv("ELLDIV_THREADS", raising=False)
    serial = run_cli(capsys, "primdiv", path, "--n", "5", "--factor-budget", "0")
    monkeypatch.setenv("ELLDIV_THREADS", "2")
    pooled = run_cli(capsys, "primdiv", path, "--n", "5", "--factor-budget", "0")
    assert serial == pooled
    code, out, err = serial
    assert code == 2 and out == ""
    assert err.startswith("elldiv: ") and err.count("\n") == 1


def test_primdiv_leaves_no_worker_behind(capsys, monkeypatch):
    # a worker alive after main returns would hold the caller's stdout open
    monkeypatch.setenv("ELLDIV_THREADS", "2")
    code, _, _ = run_cli(capsys, "primdiv", str(ROOT / "fixtures" / "65a.fixture"),
                         "--n", "40", "--factor-budget", "65536")
    assert code == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_is_deterministic(capsys, fixture_path):
    path = fixture_path(FIXTURE_65A)
    _, first, _ = run_cli(capsys, "verify", path, "--suite", "group")
    _, second, _ = run_cli(capsys, "verify", path, "--suite", "group")
    assert first == second
