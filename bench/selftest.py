"""Self-test of the benchmark's checks, on tiny instances (K4, U(4,2),
a 4-element polymatroid, a sparse-paving matroid on 6 elements, scan
with nmax 8). Takes well under a minute.

    python3 bench/selftest.py

- every workload passes in smoke mode, untraced and traced;
- a deliberately corrupted oracle value gives failed_frac > 0;
- traced counts repeat exactly across two runs with the same seed;
- a crash, a validation error and a budget refusal are each counted
  as a failed instance with its own cause;
- BENCHMARK.json names exactly the metrics run.py reports.
"""

import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run      # noqa: E402
import tracer   # noqa: E402

FAILURES = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def bench(workload, *flags, trace=0, seed=1):
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke", *flags],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    if res.returncode != 0:
        return None
    return json.loads(res.stdout.strip().splitlines()[-1])


def check_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]}
           == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    layer_names = list(tracer.TIME_METRICS) + tracer.COUNT_METRICS
    expect([m["name"] for m in spec["per_layer"]] == layer_names,
           "BENCHMARK.json per_layer matches tracer.py")


def check_workloads():
    layer_names = set(tracer.TIME_METRICS) | set(tracer.COUNT_METRICS)
    for w in run.WORKLOADS:
        plain = bench(w)
        expect(plain is not None and plain["correct"]
               and plain["failed"] == 0
               and set(plain["metrics"]) == set(run.END_TO_END),
               f"{w}: smoke run correct, end-to-end metrics present")
        bad = bench(w, "--corrupt")
        expect(bad is not None and not bad["correct"]
               and bad["failed"] / bad["attempted"] > 0,
               f"{w}: corrupted oracle gives failed_frac > 0")
        t1, t2 = bench(w, trace=1), bench(w, trace=1)
        expect(t1 is not None and t2 is not None and t1["correct"]
               and set(t1["metrics"]) == layer_names,
               f"{w}: traced run correct, every per-layer metric present")
        if t1 is not None and t2 is not None:
            expect(all(t1["metrics"][n] == t2["metrics"][n]
                       for n in tracer.COUNT_METRICS),
                   f"{w}: per-layer counts repeat across runs")


def check_failure_accounting():
    from ehrmat import cli

    import props
    import workloads
    from worker import _run_instance

    def run_one(argv, doc):
        path = None
        if doc is not None:
            path = str(BENCH / "out" / "selftest-doc.json")
            Path(path).write_text(json.dumps(doc), encoding="utf-8")
        inst = workloads.Instance("probe", argv, doc, "hstar", [1], {})
        try:
            return _run_instance(cli, inst, path, None, workloads.CHECKS)
        finally:
            if path is not None:
                Path(path).unlink()

    crash = {"family": "bases", "kind": "table", "n": 1,
             "values": [{"subset": [1], "value": 1}]}
    r = run_one(["hstar", "{doc}"], crash)
    expect(not r["ok"] and r["cause"].startswith("exception_"),
           f"an exception in cli.main is a failure ({r['cause']})")
    invalid = {"family": "polymatroid", "kind": "table", "n": 2,
               "values": [{"subset": [1], "value": 2},
                          {"subset": [2], "value": 2},
                          {"subset": [1, 2], "value": 5}]}
    r = run_one(["hstar", "{doc}"], invalid)
    expect(r["cause"] == "exit_2_validation",
           f"a validation error is its own cause ({r['cause']})")
    r = run_one(["scan-uniform", "--nmax", "101"], None)
    expect(r["cause"] == "exit_3_budget",
           f"a budget refusal is its own cause ({r['cause']})")

    u42 = {"n": 4, "kind": "uniform"}
    indep = [tuple(int(i in c) for i in range(4))
             for size in range(3) for c in combinations(range(4), size)]
    expect(props.vertex_orbits(u42, [v for v in indep if sum(v) == 2]) == 1,
           "U(4,2) bases polytope has one vertex orbit")
    expect(props.vertex_orbits(u42, indep) == 3,
           "U(4,2) independence polytope has three vertex orbits")


def main():
    (BENCH / "out").mkdir(exist_ok=True)
    check_spec()
    check_failure_accounting()
    check_workloads()
    print("selftest:", "FAIL" if FAILURES else "PASS")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
