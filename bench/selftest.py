"""Show that each output check rejects a deliberately corrupted result.

Usage: python3 bench/selftest.py

Runs every workload once at the default seed, confirms that its check
accepts the real output, then corrupts that output once per check and
confirms that the check reports the corruption. Prints one line per case
and exits 1 if any real output is rejected or any corruption is missed.
"""

import json
import sys

import checks
import run


def edit_json(result, change):
    payload = json.loads(result["stdout"])
    change(payload)
    return dict(result, stdout=json.dumps(payload))


def edit_csv(result, n, column, value):
    lines = result["stdout"].splitlines()
    fields = lines[n].split(",")
    index = checks.PRIMDIV_HEADER.index(column)
    fields[index] = value(fields[index], fields) if callable(value) else value
    lines[n] = ",".join(fields)
    return dict(result, stdout="\n".join(lines) + "\n")


def edit_lines(result, change, exit_code=0):
    lines = result["stdout"].splitlines()
    change(lines)
    return dict(result, stdout="\n".join(lines) + "\n", exit=exit_code)


def edit_rows(result, change):
    rows = json.loads(json.dumps(result["rows"]))
    change(rows)
    return dict(result, rows=rows)


def orbit_cases(real, model, x):
    members = [int(p) for p in json.loads(real["stdout"])["member_primes"]]
    member_set = set(members)
    flags = checks.sieve(x)
    sampled = checks.spot_primes(model, x, run.DEFAULT_SEED)
    probe = sampled[-1]
    # a prime of the opposite membership in the same frozen band, not sampled,
    # so only the orbit walk can tell the swap
    band = min(b for b in checks.SWEEP_65A_BASELINE if b >= probe)
    swap = next(p for p in range(band // 10 + 1, band + 1)
                if flags[p] and model.discriminant % p and p not in sampled
                and (p in member_set) != (probe in member_set))
    swapped = sorted(member_set ^ {probe, swap})

    def set_members(values):
        return lambda d: d.update(member_primes=[str(p) for p in values], count=str(len(values)))

    def composite_member(d):
        d["member_primes"][-1] = str(members[-1] + 1)

    yield "x is echoed", "x is", edit_json(real, lambda d: d.update(x=str(x - 1)))
    yield "frozen skipped_bad", "skipped_bad", edit_json(real, lambda d: d.update(skipped_bad=["5"]))
    yield "count matches members", "member primes", \
        edit_json(real, lambda d: d.update(count=str(len(members) + 1)))
    yield "members are good primes", "increasing list", edit_json(real, composite_member)
    yield "frozen SWEEP_65A_BASELINE", "frozen baseline", \
        edit_json(real, set_members(members[:-1]))
    yield "frozen MEMBERS_65A_UPTO_200", "frozen list", \
        edit_json(real, set_members(sorted(member_set - {17} | {19})))
    yield "ratio is count/sqrt(log x)", "ratio", \
        edit_json(real, lambda d: d.update(ratio=d["ratio"] * 1.01))
    yield f"orbit walk at p={probe}", f"membership of {probe}", edit_json(real, set_members(swapped))


def certify_cases(real):
    rows = [line.split(",") for line in real["stdout"].splitlines()[1:]]
    col = checks.PRIMDIV_HEADER.index
    # the last row whose part splits into a certificate prime and a nontrivial rest
    n = max(int(r[0]) for r in rows if r[7] and int(r[5]) != int(r[7]))
    part, cert = int(rows[n - 1][col("primitive_part")]), int(rows[n - 1][col("certificate_prime")])
    other = next(q for q in range(cert + 1, 2 * cert + 2) if checks.probable_prime(q) and part % q)

    yield "header", "header", dict(real, stdout=real["stdout"].replace("D_n,", "Dn,", 1))
    yield "C_n/D_n is x(nP+Q)", "lowest terms", edit_csv(
        edit_csv(real, 5, "D_n", lambda v, _: str(int(v) * 3)), 5, "x_den",
        lambda v, _: str(int(v) * 3))
    yield "part coprime to history", "largest divisor", \
        edit_csv(real, n, "primitive_part", str(part * 2))
    yield "part is maximal", "largest divisor", \
        edit_csv(real, n, "primitive_part", str(part // cert))
    yield "has_primitive flag", "has_primitive", edit_csv(real, n, "has_primitive", "false")
    empty = edit_csv(edit_csv(real, 2, "primitive_part", "1"), 2, "has_primitive", "false")
    yield "frozen EXCEPTION_LIST_65A", "exception list", edit_csv(
        edit_csv(empty, 2, "certificate_prime", ""), 2, "fully_factored", "true")
    yield "certificate divides the part", "certificate", \
        edit_csv(real, n, "certificate_prime", str(other))
    yield "fully factored has a certificate", "without a certificate", edit_csv(
        edit_csv(real, n, "certificate_prime", ""), n, "fully_factored", "true")


def verify_cases(real):
    def fail_first(lines):
        lines[0] = "FAIL" + lines[0][4:]
        lines[-1] = f"{len(lines) - 2}/{len(lines) - 1} checks passed"

    def drop_first(lines):
        del lines[0]
        lines[-1] = f"{len(lines) - 1}/{len(lines) - 1} checks passed"

    yield "exit code 0", "exit code", edit_lines(real, lambda lines: None, exit_code=3)
    yield "N/N checks passed", "N/N", edit_lines(real, fail_first)
    yield "every named check present", "missing", edit_lines(real, drop_first)
    yield "summary counts the PASS lines", "N/N", \
        edit_lines(real, lambda lines: lines.__setitem__(-1, "26/26 checks passed"))


def lemma_cases(real):
    def shift(rows):
        rows[9][1] += 10 * rows[9][2]

    def sag(rows):
        rows[9][1] = rows[9][4] - 100.0

    yield "HHAT_65A within each error bound", "not within", edit_rows(real, shift)
    yield "height inequality", "inequality", edit_rows(real, sag)
    yield "rows for n = 1..20", "expected heights", edit_rows(real, lambda rows: rows.pop())


def main():
    s, t, x = run.seed_inputs(run.DEFAULT_SEED)
    model = checks.Model.curve_65a(s, t)
    missed = 0
    for name in run.WORKLOADS:
        spec, check = run.workload_spec(name, run.DEFAULT_SEED, run.SHIPPED_FIXTURE, model, x)
        real, reason = run.run_op(spec, 1, False, run.RUN_LIMIT_S)
        problems = [reason] if real is None else check(real)[0]
        print(f"{name}: real output {'accepted' if not problems else 'REJECTED: ' + str(problems)}")
        missed += bool(problems)
        if real is None:
            continue
        cases = {"orbit-65a": lambda: orbit_cases(real, model, x),
                 "certify-65a": lambda: certify_cases(real),
                 "verify-65a": lambda: verify_cases(real),
                 "lemma-65a": lambda: lemma_cases(real)}[name]()
        for label, expected, corrupted in cases:
            problems = check(corrupted)[0]
            caught = any(expected in p for p in problems)
            missed += not caught
            print(f"  {'caught' if caught else 'MISSED'}: {label}"
                  + (f" -> {problems[0]}" if problems else ""))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
