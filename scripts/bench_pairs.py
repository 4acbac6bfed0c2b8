"""Run the benchmark in alternating pairs from two checkouts and write
every run, with a per-metric summary, to one JSON file.

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \
        --pairs sparse_paving=10 symmetric=5 polymatroid_verify=5 \
        uniform_scan=5 --seed 1 --seconds 20 --trace-seconds 6 \
        --what "one line on the change" --out BENCH_23.json

Each run is `python3 bench/run.py --workload W --seed S --seconds T
--trace 0` in that side's checkout, with PYTHONDONTWRITEBYTECODE taken
out of its environment, so that each side writes and reads its own
bytecode cache alike; its last stdout line is kept as
its result, with the median raw_wall_s of its passes from its detail
file added: `wall_s` is rescaled by the speed probe, so both are kept.
Odd pairs run the parent first, even pairs the change first. Both
checkouts must have paths of equal length, because peak RSS moves with
the path, and each workload needs at least 2 pairs. Each side must
have a commit to record: it must be a git checkout with a clean src/
whose top level is the side itself, so that a copy inside another
repository does not record that repository's HEAD; the change side may
instead be named by --change-commit. Otherwise the script exits before
any run. With --trace-seconds, the sides then make TRACED_PAIRS
alternating pairs of traced runs (`--trace 1`) per workload, in the
same order, and each layer keeps its median per side, so that a host
phase during one traced run does not shift every layer of one side;
layers that read 0 on both sides are left out.

The summary gives, per workload and metric (the end-to-end ones and
raw_wall_s), the median and the inclusive quartiles of each side, the
number of pairs in which the change read lower and the number in which
it read higher, `claim_met`: whether a gain may be claimed, i.e. at
least ten pairs ran, the change read lower in at least nine tenths of
them (ties count for neither side), and its median is below the
parent's by more than the parent's inter-quartile distance, and
`regressed`: whether the change's median is above the parent's upper
quartile, so that a rise in a metric no gain was claimed for shows.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# the bench's end-to-end metrics, and the median raw (not rescaled)
# wall time of the untraced passes, from each run's detail file
METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "raw_wall_s")

# alternating pairs of traced runs per workload under --trace-seconds
TRACED_PAIRS = 3


def pair_order(pair):
    """The sides in the order pair number `pair` (from 1) runs them:
    odd pairs the parent first, even pairs the change first."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def src_digest(root):
    """The digest `bench/run.py` stamps: every .py and .json file under
    src/ehrmat, by relative path and content."""
    h = hashlib.sha256()
    pkg = root / "src" / "ehrmat"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit(root):
    """HEAD of the git checkout whose top level is `root`, or None when
    `root` is no such checkout or its src/ differs from HEAD, tracked or
    untracked, so that the commit would not name the code that ran."""
    def git(*args):
        res = subprocess.run(["git", "-C", str(root), *args],
                             capture_output=True, text=True, check=False)
        return res.stdout.strip() if res.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != root.resolve():
        return None
    if git("status", "--porcelain", "--", "src") != "":
        return None
    return git("rev-parse", "HEAD") or None


def run_bench(root, workload, seed, seconds, trace):
    """The run's result line, with the median raw_wall_s of its
    untraced passes, read from the detail file that `bench/run.py`
    names on its last stderr line, added as result["raw_wall_s"]."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    # a checkout that already holds a cache would otherwise start faster
    # than one that may not write its own
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    res = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                         text=True, check=True)
    result = json.loads(res.stdout.strip().splitlines()[-1])
    summary_line = res.stderr.strip().splitlines()[-1]
    detail = json.loads(Path(summary_line.rsplit(" detail ", 1)[1])
                        .read_text(encoding="utf-8"))
    result["raw_wall_s"] = statistics.median(
        p["raw_wall_s"] for p in detail["pass_reports"] if not p["traced"])
    return result


def summarize(runs, workload, seed):
    out = []
    for metric in METRICS:
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                value = (r["result"]["raw_wall_s"] if metric == "raw_wall_s"
                         else r["result"]["metrics"][metric]["value"])
                pairs.setdefault(r["pair"], {})[r["side"]] = value
        parent = [p["parent"] for p in pairs.values()]
        change = [p["change"] for p in pairs.values()]
        better = sum(p["change"] < p["parent"] for p in pairs.values())
        worse = sum(p["change"] > p["parent"] for p in pairs.values())
        parent_quartiles = quartiles(parent)
        out.append({
            "workload": workload,
            "seed": seed,
            "metric": metric,
            "pairs": len(pairs),
            "parent_median": round(statistics.median(parent), 4),
            "parent_quartiles": parent_quartiles,
            "change_median": round(statistics.median(change), 4),
            "change_quartiles": quartiles(change),
            "change_better_in": better,
            "change_worse_in": worse,
            "claim_met": claim_met(better, parent, change),
            "regressed": (round(statistics.median(change), 4)
                          > parent_quartiles[1]),
        })
    return out


def claim_met(better, parent, change):
    """Whether the pairs support a claimed gain (every metric here reads
    better lower): at least ten pairs, the change lower in at least nine
    tenths of them, a tie counting for neither side, and the parent's
    median above the change's by more than the distance between the
    parent's quartiles."""
    q1, q3 = statistics.quantiles(parent, n=4, method="inclusive")[::2]
    return (len(parent) >= 10 and 10 * better >= 9 * len(parent)
            and statistics.median(parent) - statistics.median(change)
            > q3 - q1)


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", nargs="+", required=True,
                    help="workload=count, one per workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace-seconds", type=int, default=0)
    ap.add_argument("--what", default="")
    ap.add_argument("--change-commit", default=None,
                    help="recorded instead of the change checkout's HEAD")
    ap.add_argument("--host", default="")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(sides["parent"])) != len(str(sides["change"])):
        ap.error(f"checkout paths differ in length: {sides['parent']} and"
                 f" {sides['change']}")
    plan = [(w, int(n)) for w, n in (p.split("=") for p in args.pairs)]
    if any(n < 2 for _, n in plan):
        ap.error("each workload needs at least 2 pairs for its quartiles")
    commits = {"parent": commit(sides["parent"]),
               "change": args.change_commit or commit(sides["change"])}
    for side, sha in commits.items():
        if sha is None:
            ap.error(f"no commit to record for the {side} side"
                     f" {sides[side]}: it must be the top level of a git"
                     " checkout with a clean src/ (the change side may be"
                     " named by --change-commit)")
    runs, summary, traced = [], [], {}
    for workload, count in plan:
        for pair in range(1, count + 1):
            for side in pair_order(pair):
                result = run_bench(sides[side], workload, args.seed,
                                   args.seconds, 0)
                runs.append({"workload": workload, "seed": args.seed,
                             "seconds": args.seconds, "pair": pair,
                             "side": side, "result": result})
                print(workload, pair, side,
                      result["metrics"]["wall_s"]["value"], flush=True)
        summary += summarize(runs, workload, args.seed)
        if args.trace_seconds:
            layers = {"parent": [], "change": []}
            for pair in range(1, TRACED_PAIRS + 1):
                for side in pair_order(pair):
                    layers[side].append(run_bench(
                        sides[side], workload, args.seed,
                        args.trace_seconds, 1)["metrics"])
            medians = {name: [statistics.median(run[name]["value"]
                                                for run in layers[side])
                              for side in ("parent", "change")]
                       for name in layers["parent"][0]}
            traced[workload] = {name: [round(v, 4) for v in pair]
                                for name, pair in medians.items()
                                if any(pair)}
    doc = {
        "what": args.what,
        "command": (f"python3 bench/run.py --workload <workload> --seed"
                    f" {args.seed} --seconds {args.seconds} --trace 0, with"
                    f" bench/ unmodified; each 'result' is that command's"
                    f" last stdout line, plus raw_wall_s, the median raw"
                    f" wall time of its passes in its detail file"),
        "pairing": ", ".join(f"{n} pairs on {w}" for w, n in plan)
        + f", all at seed {args.seed}; odd pairs run the parent first,"
          " even pairs the change first",
        "checkouts": "each side ran from its own copy of the tree, at two"
                     " paths of equal length, because peak_rss_mb moves"
                     " with the checkout path",
        "host": args.host,
        "parent": {"commit": commits["parent"],
                   "src_sha256": src_digest(sides["parent"])},
        "change": {"commit": commits["change"],
                   "src_sha256": src_digest(sides["change"])},
        "summary_fields": "median and [lower, upper] quartile of each side;"
                          " change_better_in counts the pairs where the"
                          " change read lower, change_worse_in those where"
                          " it read higher; claim_met is true when at"
                          " least 10 pairs ran, the change read lower in"
                          " at least 9 of every 10 (ties count for"
                          " neither) and the medians differ by more than"
                          " the parent's inter-quartile distance;"
                          " regressed is true when the change's median is"
                          " above the parent's upper quartile",
        "summary": summary,
    }
    if traced:
        doc[f"traced_seed_{args.seed}"] = {
            "command": (f"python3 bench/run.py --workload <workload> --seed"
                        f" {args.seed} --seconds {args.trace_seconds}"
                        f" --trace 1, {TRACED_PAIRS} alternating pairs"
                        f" of runs, ordered as the untraced pairs"),
            **traced,
            "note": "each pair is [parent, change], the median of each"
                    " side's traced runs; layers that read 0 on both"
                    " sides are left out"}
    doc["runs"] = runs
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
