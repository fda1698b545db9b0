"""One benchmark operation in a fresh interpreter.

Usage: python3 bench/child.py '<json spec>'

Spec keys: ``op`` ("cli" with ``argv``, or "lemma" with ``n_max`` and
``tol``), ``fixture`` (path), ``trace`` (bool), ``spans_path`` (where a
traced child writes its spans) and ``t_spawn`` (the parent's monotonic
clock just before it started this process; Linux's monotonic clock is
shared by all processes).

Set-up runs from interpreter start to ready: import elldiv, parse the
fixture, and build the trial-division sieve that every factoring CLI call
pays for lazily. Then the operation runs once, with its stdout captured.
The last stdout line is one JSON object with the timings, the operation's
output, its exit code or traceback, and the peak RSS of this process and
of any pool workers it started.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def lemma(elldiv, fixture, n_max, tol):
    """The paper's height inequality inputs: h^(nP+Q) and h^(nP) for n = 1..n_max."""
    rows = []
    for n in range(1, n_max + 1):
        multiple = n * fixture.p
        lhs = elldiv.canonical_height(multiple + fixture.q, tol)
        rhs = elldiv.canonical_height(multiple, tol)
        rows.append([n, lhs.value, lhs.error_bound, lhs.iterations_used,
                     rhs.value, rhs.error_bound, rhs.iterations_used])
    return rows


def main():
    spec = json.loads(sys.argv[1])
    import elldiv
    from elldiv import cli

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    fixture = cli.load_fixture(spec["fixture"])
    elldiv.factorize(4)   # any composite builds the 10^6 trial-division sieve
    setup_s = time.monotonic() - spec["t_spawn"]

    result = {"setup_s": setup_s, "exit": None, "error": None, "rows": None}
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        if spec["op"] == "lemma":
            result["rows"] = lemma(elldiv, fixture, spec["n_max"], spec["tol"])
        else:
            with contextlib.redirect_stdout(captured):
                result["exit"] = cli.main(spec["argv"])
    except Exception:
        result["error"] = traceback.format_exc()
    result["wall_s"] = time.perf_counter() - start

    result["stdout"] = captured.getvalue()
    result["stdout_bytes"] = len(result["stdout"].encode())
    result["rss_kb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(spec["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
