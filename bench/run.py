"""Benchmark of the exact Ehrhart pipeline: four workloads, each run as
passes of fresh single-threaded worker processes in a closed loop with
one caller.

    python3 bench/run.py --workload symmetric --seed 1 --seconds 20 --trace 0

Each pass is a new interpreter (bench/worker.py) that imports ehrmat
from this checkout's src/, so module caches never carry over, calls
`ehrmat.cli.main` on every instance and checks every output against an
exact oracle. Passes repeat until `--seconds` would be exceeded (at
least one pass; with --trace 1 at least one untraced and one traced
pass, alternating).

--trace 0 reports the end-to-end metrics, medians over the untraced
passes: wall_s, cpu_s, setup_s, peak_rss_mb (setup_s is topped up to
SETUP_SAMPLES set-ups by passes that stop after set-up). --trace 1
reports per-layer self times and counts from the traced passes, and the
tracing overhead in the detail file. Every time is rescaled to a fixed
host speed by the probe in speed.py; the raw times are in the detail
file. The last stdout line is the result JSON; a detail file
with every pass, failure cause, property record and an environment
stamp goes to bench/out/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

WORKLOADS = ("symmetric", "sparse_paving", "polymatroid_verify",
             "uniform_scan")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
HARD_LIMIT_S = 170      # a run must end within 180 s
SETUP_SAMPLES = 7       # set-up-only passes top up setup_s to this many

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _src_digest():
    h = hashlib.sha256()
    pkg = ROOT / "src" / "ehrmat"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _run_pass(args, deadline, traced=False, setup_only=False):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--traced"] * traced + ["--setup-only"] * setup_only
    cmd += ["--smoke"] * args.smoke + ["--corrupt"] * args.corrupt
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    res = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                         env=env, capture_output=True, text=True,
                         timeout=max(1.0, deadline - spawned))
    if res.returncode != 0:
        raise RuntimeError(f"worker exited {res.returncode}:\n{res.stderr}")
    report = json.loads(res.stdout.strip().splitlines()[-1])
    report["process_s"] = time.monotonic() - spawned
    return report


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances that exercise every code path")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt one oracle value (self-test)")
    args = ap.parse_args()

    if not (ROOT / "src" / "ehrmat" / "cli.py").is_file():
        sys.exit(f"no ehrmat sources under {ROOT / 'src'}")
    (BENCH / "out").mkdir(exist_ok=True)

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    load_start = os.getloadavg()
    min_passes = 2 if args.trace else 1
    passes = []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(_run_pass(args, deadline, traced=traced))
            elapsed = time.monotonic() - start
            last = passes[-1]["process_s"]
            if time.monotonic() + last > deadline:
                break
            if len(passes) >= min_passes and elapsed + last > args.seconds:
                break
        if len(passes) < min_passes:
            sys.exit("benchmark aborted: no time left for a traced pass")
        setups = [p["setup_s"] for p in passes]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(_run_pass(args, deadline, setup_only=True)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.exit(f"benchmark aborted: {exc}")

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    results = [r for p in passes for r in p["instances"]]
    attempted = len(results)
    failed = sum(not r["ok"] for r in results)
    causes = {}
    for r in results:
        if not r["ok"]:
            causes[r["cause"]] = causes.get(r["cause"], 0) + 1

    if args.trace:
        layers = [p["layers"] for p in traced]
        metrics = {}
        for name in tracer.TIME_METRICS:
            metrics[name] = {"value": statistics.median(l[name] for l in layers),
                             "unit": "s"}
        for name in tracer.COUNT_METRICS:
            metrics[name] = {"value": layers[0][name], "unit": "count"}
        counts_repeat = all(l[n] == layers[0][n] for l in layers
                            for n in tracer.COUNT_METRICS)
    else:
        metrics = {name: {"value": _median(untraced, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
        metrics["setup_s"]["value"] = statistics.median(setups)

    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "corrupt": args.corrupt,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failure_causes": causes,
        "passes": len(passes), "untraced_passes": len(untraced),
        "traced_passes": len(traced), "setup_samples": setups,
        "metrics": metrics,
        "env": {
            "commit": _commit(), "src_sha256": _src_digest(),
            "ehrmat_file": passes[0]["ehrmat_file"],
            "python": passes[0]["python"], "numpy": passes[0]["numpy"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        },
        "pass_reports": passes,
    }
    if args.trace:
        overhead = _median(traced, "wall_s") - _median(untraced, "wall_s")
        detail["trace_overhead_s"] = overhead
        detail["trace_overhead_frac"] = overhead / _median(untraced, "wall_s")
        detail["counts_repeat_across_passes"] = counts_repeat
        detail["records"] = traced[0]["records"]
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out_path = (BENCH / "out" / f"{args.workload}-seed{args.seed}"
                f"-trace{args.trace}-{stamp}-{os.getpid()}.json")
    out_path.write_text(json.dumps(detail, indent=1), encoding="utf-8")

    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, "
          f"{failed}/{attempted} failed {causes or ''}, detail {out_path}",
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
