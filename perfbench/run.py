"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_cells --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run measures the workload untraced and
prints every end-to-end metric; with ``--trace 1`` it makes the traced
passes and prints the per-layer metrics (see ``tracing.py``).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics that ``BENCHMARK.json`` names
for the mode; the lines above it list every metric with its unit and
sample count.  The full record -- host facts, output digest, count
block, failures -- goes to ``perfbench/out/``, the only place the
benchmark writes.
"""

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Bytecode caches go under OUT too, so the source tree stays untouched.
#: They are written even where the environment disables them: users
#: import from a cache, so compiling must not count as set-up.
PYCACHE = OUT / "pycache"
CHILD_ENV = {key: value for key, value in os.environ.items()
             if key != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150

#: Units of the metrics BENCHMARK.json does not declare.
EXTRA_UNITS = {
    "cell_ms_p90": "ms", "warm_cells_per_s": "1/s", "report_s": "s",
    "failed_frac": "ratio", "paper_error_ms": "ms", "testbed.dispatch_s": "s",
}


def git_revision():
    """The checkout's revision, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def host_facts():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "git_revision": git_revision()}


def measure_setup(workload, seed):
    """Start fresh interpreters that import ``repro`` and run the
    warm-up cell, one after another; returns (seconds, digests)."""
    seconds, digests = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=True, env=CHILD_ENV)
        seconds.append(time.perf_counter() - start)
        digests.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["digest"])
    return seconds, digests


def import_program():
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    import repro
    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {SRC}")
    import workloads
    return workloads


def cell_failures(records):
    return [f"{r['spec'].describe()} seed={r['spec'].seed}: {r['failure']}"
            for r in records if r["failure"]]


def cycle_tally(cycles):
    """(attempted, failed, failure reasons) of campaign cycles; each
    cycle attempts every cell twice, cold and warm."""
    return (sum(2 * cycle["cells"] for cycle in cycles),
            sum(cycle["failed"] for cycle in cycles),
            [reason for cycle in cycles for reason in cycle["failures"]])


def run_untraced(wl, args, workdir):
    """Measure the workload; returns (metrics, attempted, failed, record)."""
    if args.workload == "campaign_cache":
        cycles = wl.run_campaign_workload(args.seed, args.seconds, workdir)
        attempted, failed, failures = cycle_tally(cycles)
        first = cycles[0].get("results", [])
        record = {
            "sampled": "cycles",
            "digest": wl.digest(first),
            "counts": wl.campaign_counts(first),
            "failures": failures,
            "cycles": [{key: cycle.get(key) for key in
                        ("cells", "cold_s", "warm_s", "report_s", "sim_s",
                         "failed")} for cycle in cycles],
        }
        return wl.campaign_metrics(cycles), attempted, failed, record
    rounds = wl.run_cell_workload(args.workload, args.seed, args.seconds)
    records = [record for records in rounds for record in records]
    record = {
        "sampled": "cells",
        "digest": wl.digest(r["result"] for r in rounds[0]
                            if r["result"] is not None),
        "counts": wl.cell_counts(rounds[0]),
        "failures": cell_failures(records),
        "rounds": [{"cells": len(records),
                    "wall_s": sum(r["wall_s"] for r in records)}
                   for records in rounds],
    }
    return (wl.cell_metrics(rounds), len(records), len(record["failures"]),
            record)


def run_traced(wl, args, workdir):
    import tracing
    if args.workload == "campaign_cache":
        traced = tracing.trace_campaign(args.seed, workdir, SRC / "repro")
        cycles = traced.pop("cycles")
        attempted, failed, traced["failures"] = cycle_tally(cycles)
        traced["digest"] = wl.digest(cycles[0].get("results", []))
        return traced.pop("metrics"), attempted, failed, traced
    traced = tracing.trace_cells(args.workload, args.seed, workdir,
                                 SRC / "repro")
    records = traced.pop("records")
    traced["digest"] = wl.digest(r["result"] for r in records
                                 if r["result"] is not None)
    traced["failures"] = cell_failures(records)
    return (traced.pop("metrics"), len(records), len(traced["failures"]),
            traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_cells", "cross_traffic",
                                 "campaign_cache"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = [m["name"] for m in
                declared["per_layer" if args.trace else "end_to_end"]]
    units = dict(EXTRA_UNITS)
    units.update((m["name"], m["unit"])
                 for m in declared["end_to_end"] + declared["per_layer"])

    setup_s, setup_digests = ([], []) if args.trace else measure_setup(
        args.workload, args.seed)
    wl = import_program()
    warmup = wl.warmup_spec(args.workload, args.seed)
    warmup_digest = wl.digest([wl.run_cell(
        warmup, collect_metrics=warmup.observe)])

    workdir = OUT / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        metrics, attempted, failed, record = run(wl, args, workdir)
    finally:
        try:
            workdir.rmdir()
        except OSError:
            pass
    # The warm-up cell, run once here and once in every set-up process,
    # must give one digest; a mismatch is nondeterminism.
    nondeterministic = [d for d in setup_digests if d != warmup_digest]
    if setup_digests:
        attempted += 1
        failed += bool(nondeterministic)
        if nondeterministic:
            record["failures"].append(
                "warm-up cell digest differs between processes")
    if setup_s:
        metrics["setup_s"] = statistics.median(setup_s)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
    metrics["failed_frac"] = failed / attempted
    samples = metrics.pop("samples", None)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name in sorted(metrics, key=lambda n: (n not in reported, n)):
        note = ""
        if name in ("cell_ms_p50", "cell_ms_p90") and samples:
            note = f"  (n={samples} {record['sampled']})"
        elif name == "setup_s":
            note = f"  (median of {len(setup_s)} processes)"
        print(f"  {name:28s} {metrics[name]:14.6g} {units[name]}{note}")
    print(f"  output digest {record['digest']}")
    for failure in record["failures"][:20]:
        print(f"  FAILED {failure}")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "args": vars(args), "host": host_facts(), "metrics": metrics,
        "units": {name: units[name] for name in metrics},
        "samples": samples, "setup_samples_s": setup_s,
        "attempted": attempted, "failed": failed, **record,
    }, indent=1, sort_keys=True, default=str))

    missing = [name for name in reported if name not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
