"""One pass over a workload, in a fresh interpreter.

Started by run.py. Imports ehrmat from the checkout's src/, generates
the seeded documents, writes them out and validates them (this is the
set-up), then calls `ehrmat.cli.main` in-process on every instance and
checks each output against its oracle (this is the timed region). With
--traced, spans are recorded around the library's public functions and
the workload-property records are computed after timing ends.

Every pass runs the host-speed probe (speed.py) and reports set-up,
wall and CPU time both raw and rescaled to the probe's reference speed.
A traced pass rescales its layer times by the same factor as its wall
time, which also takes out the probe's share of each span.

Prints one JSON object on its last stdout line.
"""

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

EXIT_CAUSES = {1: "exit_1_mismatch", 2: "exit_2_validation",
               3: "exit_3_budget"}


def _run_instance(cli, inst, path, tracer, checks):
    argv = [path if a == "{doc}" else a for a in inst.argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    cause = detail = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.span("cli.main", cli.main, argv)
    except SystemExit as exc:       # argparse rejects its arguments
        rc = exc.code
    except Exception as exc:        # a crash counts as a failed instance
        rc = None
        cause = f"exception_{type(exc).__name__}"
        detail = traceback.format_exc(limit=-3)
    if cause is None and rc != 0:
        cause = EXIT_CAUSES.get(rc, f"exit_{rc}")
        detail = err.getvalue()[-500:]
    if cause is None:
        try:
            cause = checks[inst.check](json.loads(out.getvalue()), inst.expect)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            cause, detail = "bad_output", repr(exc)
    return {"name": inst.name, "ok": cause is None, "cause": cause,
            "detail": detail, "rc": rc,
            "seconds": time.perf_counter() - start}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up; report only setup_s")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import ehrmat
    if src not in Path(ehrmat.__file__).resolve().parents:
        sys.exit(f"ehrmat imported from {ehrmat.__file__}, not from {src}")
    from ehrmat import cli
    import numpy
    import workloads

    instances = workloads.build(args.workload, args.seed, args.smoke,
                                args.corrupt)
    docdir = Path(tempfile.mkdtemp(prefix="docs-",
                                   dir=root / "bench" / "out"))
    try:
        paths = []
        for inst in instances:
            path = None
            if inst.doc is not None:
                path = str(docdir / f"{inst.name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(inst.doc, fh)
                cli.parse_document(inst.doc)    # raises on a bad generator
            paths.append(path)

        setup = time.monotonic() - args.spawned
        probe = speed.Probe()
        setup_rescaled = probe.rescale_setup(setup)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_rescaled,
                              "raw_setup_s": setup}))
            return

        tracer = None
        if args.traced:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()

        probe.start()
        first = time.monotonic()
        cpu0 = time.process_time()
        mark = probe.mark()
        results = []
        for i, (inst, path) in enumerate(zip(instances, paths)):
            if tracer is not None:
                tracer.begin_instance(i)
            results.append(_run_instance(cli, inst, path, tracer,
                                         workloads.CHECKS))
        wall = time.monotonic() - first
        cpu = time.process_time() - cpu0
        probe.stop()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(docdir, ignore_errors=True)

    report = {
        "traced": args.traced,
        "raw_setup_s": setup,
        "raw_wall_s": wall,
        "raw_cpu_s": cpu,
        "peak_rss_mb": rss_mb,
        "instances": results,
        "ehrmat_file": ehrmat.__file__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    end = probe.mark()
    report["setup_s"] = setup_rescaled
    report["wall_s"], report["cpu_s"] = probe.rescale(wall, cpu, mark, end)
    report["probe_samples"] = end - mark
    report["probe_quantiles_s"] = speed.quantiles(probe.wall[mark:end])
    report["probe_cpu_quantiles_s"] = speed.quantiles(probe.cpu[mark:end])
    if tracer is not None:
        tracer.uninstall()
        report.update(tracer.summary())
        scale = report["wall_s"] / wall
        for name in tracing.TIME_METRICS:
            report["layers"][name] *= scale
        report["records"] = _records(instances, tracer)
    print(json.dumps(report))


def _records(instances, tracer):
    """Workload-property record per instance; orbits come from a
    brute-force automorphism search, outside the timed region."""
    import props
    out = []
    for i, inst in enumerate(instances):
        cap = tracer.per_instance.get(i, {})
        verts = cap.get("vertices")
        rec = dict(inst.props, name=inst.name,
                   vertices=None if verts is None else len(verts),
                   vertex_orbits=None, terms=cap.get("terms"),
                   beta_classes=len(cap.get("beta_classes", ())) or None)
        if verts is not None and inst.doc is not None:
            rec["vertex_orbits"] = props.vertex_orbits(inst.doc, verts)
        out.append(rec)
    return out


if __name__ == "__main__":
    main()
