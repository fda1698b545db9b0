"""elldiv benchmark: four workloads on the 65a fixture, end to end and per module.

Run from anywhere; paths resolve against the repository holding this file:

    python3 bench/run.py --workload orbit-65a --seed 0 --seconds 28 --trace 0
    python3 bench/run.py --workload all          # every workload, then one table

Each operation runs in a fresh interpreter (bench/child.py) with
ELLDIV_THREADS pinned, and this process checks every output
(bench/checks.py) outside the timed region. Operations repeat until the
next one would end past --seconds, and each metric is the median over the
operations of the run. With --trace 0 untraced operations alternate
between ELLDIV_THREADS=1 (wall_s) and ELLDIV_THREADS=2 (wall_2w_s). With
--trace 1 they alternate between untraced and traced (bench/spans.py), and
the per-layer metrics come from the traced ones. The metric names and
units are those of BENCHMARK.json. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it,
each starting with '#', record the environment, every operation and the
output-quality figures.
"""

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SHIPPED_FIXTURE = "fixtures/65a.fixture"
INT_MAX_STR_DIGITS = 2_000_000      # the limit cli.main sets
DEFAULT_SEED = 0                    # the shipped fixture and x = 10^5
ORBIT_X, X_WINDOW = 10 ** 5, 2000   # other seeds sweep x in (10^5, 10^5 + 2000)
CERTIFY_N, CERTIFY_BUDGET = 40, 65536
LEMMA_N, LEMMA_TOL = 20, 0.05
RUN_LIMIT_S = 170                   # a run must end within 180 s
WORKLOADS = ("orbit-65a", "certify-65a", "verify-65a", "lemma-65a")
# ELLDIV_THREADS per kind of operation; never more busy processes than cores
THREADS = {"1w": 1, "2w": min(2, len(os.sched_getaffinity(0))), "traced": 1}


def seed_inputs(seed):
    """The model and the orbit bound for a seed.

    The default seed is the shipped fixture with x = 10^5. Any other seed
    substitutes y -> y + s x + t with small nonzero (s, t), which keeps every
    x-coordinate, D_n, height and membership, so the frozen checks still
    hold and the cost stays in the same class, and moves x up by < 2%.
    """
    if seed == DEFAULT_SEED:
        return 0, 0, ORBIT_X
    rng = random.Random(seed)
    s, t = rng.choice([(s, t) for s in range(-2, 3) for t in range(-3, 4) if (s, t) != (0, 0)])
    return s, t, ORBIT_X + rng.randrange(1, X_WINDOW)


def workload_spec(name, seed, fixture, model, x):
    """The child spec of one workload and the check of its output."""
    if name == "orbit-65a":
        argv = ["ltcount", fixture, "--x", str(x), "--keep-primes"]
        spec, check = {"argv": argv}, lambda r: checks.check_orbit(r, model, x, seed)
    elif name == "certify-65a":
        argv = ["primdiv", fixture, "--n", str(CERTIFY_N), "--factor-budget", str(CERTIFY_BUDGET)]
        spec, check = {"argv": argv}, lambda r: checks.check_certify(r, model, CERTIFY_N)
    elif name == "verify-65a":
        spec, check = {"argv": ["verify", fixture, "--suite", "all"]}, checks.check_verify
    else:
        spec = {"op": "lemma", "n_max": LEMMA_N, "tol": LEMMA_TOL}
        check = lambda r: checks.check_lemma(r, LEMMA_N)
    return {"op": "cli", "fixture": fixture} | spec, check


def run_op(spec, threads, traced, timeout):
    """Run one operation in a fresh interpreter; its result dict, or None with a reason."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), ELLDIV_THREADS=str(threads),
               PYTHONINTMAXSTRDIGITS=str(INT_MAX_STR_DIGITS), PYTHONHASHSEED="0")
    spec = dict(spec, trace=traced, t_spawn=time.monotonic())
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    try:
        return json.loads(out.splitlines()[-1]), None
    except (IndexError, ValueError):
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return None, f"child failed: {tail[0]}"


def run_workload(name, seed, seconds, trace, log):
    s, t, x = seed_inputs(seed)
    model = checks.Model.curve_65a(s, t)
    WORK.mkdir(exist_ok=True)
    fixture_file = WORK / f"65a-seed{seed}-{os.getpid()}.fixture"
    if seed == DEFAULT_SEED:
        fixture = SHIPPED_FIXTURE
    else:
        fixture_file.write_text(model.fixture_text("65a"), encoding="utf-8")
        fixture = str(fixture_file.relative_to(ROOT))
    spec, check = workload_spec(name, seed, fixture, model, x)
    spec["spans_path"] = str(WORK / f"spans-{name}-seed{seed}.jsonl")
    log(f"# {name} seed {seed}: y -> y + s*x + t with (s, t) = ({s}, {t}), "
        + (f"argv {' '.join(spec['argv'])}" if spec["op"] == "cli"
           else f"canonical_height(nP+Q) and (nP) for n = 1..{LEMMA_N}, tol {LEMMA_TOL}"))

    kinds = ("1w", "traced") if trace else ("1w", "2w")
    ops, failures, verdicts, took = [], 0, {}, {}
    start = time.monotonic()
    try:
        while True:
            kind = kinds[len(ops) % 2]
            elapsed = time.monotonic() - start
            expected = took.get(kind, max(took.values(), default=0.0))
            if len(ops) >= 2 and elapsed + expected > seconds or elapsed > RUN_LIMIT_S - 10:
                break
            begun = time.monotonic()
            result, reason = run_op(spec, THREADS[kind], kind == "traced", RUN_LIMIT_S - elapsed)
            problems, quality = [reason], {}
            if result is not None:
                key = (result["exit"], result["error"], result["stdout"], json.dumps(result["rows"]))
                if key not in verdicts:
                    verdicts[key] = check(result)
                problems, quality = verdicts[key]
            took[kind] = time.monotonic() - begun
            ops.append((kind, result, quality))
            failures += bool(problems)
            status = "ok" if not problems else "FAILED: " + "; ".join(problems[:3])
            timing = "" if result is None else \
                f" setup {result['setup_s']:.4f} s, wall {result['wall_s']:.4f} s, " \
                f"rss {result['rss_kb'] / 1024:.1f} MB,"
            log(f"# op {len(ops)} {kind} (ELLDIV_THREADS={THREADS[kind]}):{timing} {status}")
    finally:
        fixture_file.unlink(missing_ok=True)
    return ops, failures


def metrics_of(ops, trace):
    """Medians over the run's operations, keyed by metric name."""
    def median_of(field, kinds=("1w", "2w", "traced")):
        values = [r[field] for kind, r, _ in ops if r is not None and kind in kinds]
        return statistics.median(values) if values else None

    if trace:
        traced = [r["layers"] | {"cli.stdout_bytes": r["stdout_bytes"]}
                  for kind, r, _ in ops if r is not None and kind == "traced"]
        untraced = median_of("wall_s", ["1w"])
        if not traced or not untraced:
            return None
        out = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
        out["trace.overhead_ratio"] = median_of("wall_s", ["traced"]) / untraced
        return out
    rss = median_of("rss_kb")
    return {
        "wall_s": median_of("wall_s", ["1w"]),
        "wall_2w_s": median_of("wall_s", ["2w"]),
        "setup_s": median_of("setup_s"),
        "peak_rss_mb": None if rss is None else rss / 1024,
    }


def quality_of(ops):
    figures = {}
    for _, _, quality in ops:
        for key, value in quality.items():
            figures.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in figures.items()}


def benchmark_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(name, seed, seconds, trace, log):
    """The result object of one workload run, or None when no operation produced timings."""
    units = benchmark_metrics(trace)
    ops, failures = run_workload(name, seed, seconds, trace, log)
    values = metrics_of(ops, trace)
    if values is None or any(v is None for v in values.values()):
        return None
    if set(values) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(values) ^ set(units))} "
                         "disagree with BENCHMARK.json")
    for key, value in quality_of(ops).items():
        log(f"# quality {key} = {value!r}")
    return {"correct": failures == 0, "attempted": len(ops), "failed": failures,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/elldiv/cli.py", SHIPPED_FIXTURE, "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: program files missing from {ROOT}: {missing}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(INT_MAX_STR_DIGITS)

    def log(line):
        print(line, flush=True)

    log(f"# env: python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
        f"ELLDIV_THREADS 1 ({THREADS['2w']} for wall_2w_s), int max str digits {INT_MAX_STR_DIGITS}, "
        f"{platform.machine()} {platform.system()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace), log)
        if result is None:
            print(f"bench: {name}: no operation produced timings", file=sys.stderr)
            return 1
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:.6g} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
