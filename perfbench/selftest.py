#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. Smoke: every workload runs briefly with --trace 0 and --trace 1, exits 0
   and reports correct answers with no failed request.
2. Names: the printed metrics (names and units) are exactly those listed in
   BENCHMARK.json, end_to_end untraced and per_layer traced.
3. Determinism: two runs of one seed give identical msgs_per_req and
   identical core.* and consistency.* counts.
4. Failure accounting: a net run whose round fails after its request loop
   (the binary's --fault harvest, in place of NetDriver::Harvest) exits 1
   with failed >= 1 and names the workload and seed.
5. Missing sources: in a directory holding only BENCHMARK.json and
   perfbench/, run.py exits non-zero without printing a result.

Scratch files go under .bench_build/. Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
SECONDS = "1"
EXACT_PREFIXES = ("core.", "consistency.gathers", "consistency.ghost_entries")


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", SECONDS,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result(proc, what):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("FAIL %s: exit %d\n%s" % (what, proc.returncode,
                                           proc.stderr[-3000:]))
    out = json.loads(lines[-1])
    if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("FAIL %s: result keys %s" % (what, sorted(out)))
    if not out["correct"] or out["failed"] != 0 or out["attempted"] < 1:
        sys.exit("FAIL %s: correct=%s attempted=%s failed=%s\n%s"
                 % (what, out["correct"], out["attempted"], out["failed"],
                    proc.stderr[-3000:]))
    return out["metrics"]


def check_names(metrics, specs, what):
    want = [(m["name"], m["unit"]) for m in specs]
    got = [(name, m["unit"]) for name, m in metrics.items()]
    if sorted(want) != sorted(got):
        sys.exit("FAIL %s: metric names/units differ from BENCHMARK.json\n"
                 "  missing: %s\n  extra: %s"
                 % (what, sorted(set(want) - set(got)),
                    sorted(set(got) - set(want))))
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            sys.exit("FAIL %s: %s is not a number" % (what, name))


def check_fault():
    binary = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
    for workload in ("net-seq", "net-read"):
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(SEED),
             "--seconds", SECONDS, "--trace", "0", "--fault", "harvest"],
            capture_output=True, text=True, timeout=180)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        out = json.loads(last) if last.startswith("{") else {}
        where = "%s seed %d after the last request" % (workload, SEED)
        if (proc.returncode != 1 or out.get("failed", 0) < 1
                or where not in proc.stderr):
            sys.exit("FAIL %s harvest fault: exit %d, result %r\n%s"
                     % (workload, proc.returncode, last, proc.stderr[-3000:]))
    print("ok   a failure after the request loop exits 1 with failed >= 1")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("verify", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or '"correct"' in last[0]:
        sys.exit("FAIL bare directory: exit %d, stdout %r"
                 % (proc.returncode, last[0]))
    print("ok   bare directory exits %d without a result" % proc.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        untraced = [result(run(workload, 0), workload + " trace 0")
                    for _ in range(2)]
        traced = [result(run(workload, 1), workload + " trace 1")
                  for _ in range(2)]
        check_names(untraced[0], spec["end_to_end"], workload + " trace 0")
        check_names(traced[0], spec["per_layer"], workload + " trace 1")
        a, b = untraced[0]["msgs_per_req"], untraced[1]["msgs_per_req"]
        if a["value"] != b["value"]:
            sys.exit("FAIL %s: msgs_per_req %r then %r for seed %d"
                     % (workload, a["value"], b["value"], SEED))
        for name in traced[0]:
            if name.startswith(EXACT_PREFIXES):
                a, b = traced[0][name]["value"], traced[1][name]["value"]
                if a != b:
                    sys.exit("FAIL %s: %s %r then %r for seed %d"
                             % (workload, name, a, b, SEED))
        print("ok   %-9s names match, answers correct, counts repeat "
              "(msgs_per_req %.4f)"
              % (workload, untraced[0]["msgs_per_req"]["value"]))
    check_fault()
    check_bare_directory()
    print("PASS")


if __name__ == "__main__":
    main()
