"""The benchmark's three workloads, their output checks and digests.

Every workload is a closed loop with one client: the next cell (or
campaign pass) is issued only when the previous one has returned.  The
program under test only ever sees the specs generated here; all seeds
derive from the workload seed given on the command line.

* ``paper_cells`` -- paper-sized idle cells through ``run_cell``.
* ``cross_traffic`` -- Fig. 8 "with" cells (iperf cross traffic).
* ``campaign_cache`` -- a cold sharded ``Campaign.run`` into a fresh
  store, a warm rerun against it, and the merged-metrics report.

Cell workloads run in *rounds*: each round is the whole grid with fresh
per-cell seeds, and a run stops at the first round boundary after its
time is up, so every run measures the same cell mix.  Round 0 is fixed
by the seed alone; its results feed the output digest and count block,
which therefore repeat exactly across runs of the same code and seed.
"""

import ast
import contextlib
import functools
import hashlib
import json
import multiprocessing
import os
import pathlib
import shutil
import signal
import statistics
import tempfile
import time

from repro.analysis.decompose import decompose_campaign, render_report
from repro.testbed.campaign import Campaign, run_cell
from repro.testbed.scenario import ScenarioSpec

TABLE5_PHONES = ("nexus5", "xperia_j", "galaxy_grand", "nexus4", "htc_one")
TABLE5_RTTS_MS = (20, 50, 85, 135)
PAPER_PROBES = 100
#: The paper's claim for Table 5 (and benchmarks/test_bench_table5.py):
#: under AcuteMon the sniffed dn stays within 3 ms of the emulated RTT.
TABLE5_LIMIT_S = 0.003

#: Cross-traffic cells: AcuteMon at full size, the per-probe-wake tools
#: with few probes, because every simulated second under iperf load
#: costs about 0.2 host seconds.
CROSS_PROBES = {"acutemon": 100, "ping": 3, "httping": 3, "javaping": 3}
CROSS_ORDER = ("acutemon", "ping", "httping", "javaping")

CAMPAIGN_GRID = {
    "envs": ("wifi", "cellular-lte", "wifi-twt"),
    "phones": ("nexus5", "nexus4", "xperia_j"),
    "rtts": (0.020, 0.050),
    "tools": ("acutemon", "ping", "httping"),
    "count": 5,
}
CAMPAIGN_SHARDS = 2

#: Host seconds after which a single cell (or campaign pass) counts as
#: stalled; far above the slowest cell of any workload (about 3 s).
CELL_STALL_S = 60
PASS_STALL_S = 120


class Stalled(Exception):
    """A cell or campaign pass ran past its stall limit."""


@contextlib.contextmanager
def stall_guard(seconds):
    """Raise :class:`Stalled` in the main thread after ``seconds``.

    A stalled campaign pass may be waiting on shard workers, so the
    guard terminates this process's children before raising; the
    runner then sees a broken pool instead of waiting forever.
    """
    def fire(signum, frame):
        for child in multiprocessing.active_children():
            child.terminate()
        raise Stalled(f"no result after {seconds} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def cell_seed(seed, round_index, index):
    """Per-cell seed: distinct for every (workload seed, round, cell)."""
    return seed * 1_000_000 + round_index * 1_000 + index


# -- grids ----------------------------------------------------------------


class CapturingSpec(ScenarioSpec):
    """A spec that keeps the environment it builds.

    ``run_cell`` returns only the :class:`CellResult`; keeping the
    environment lets the loop read the simulator's clock and event
    counters afterwards.  The caller drops it once read.
    """

    built = None

    def build(self):
        built = super().build()
        self.built = built[0]
        return built


def is_table5(spec):
    return (spec.tool == "acutemon" and spec.env == "wifi"
            and not spec.cross_traffic and spec.count == PAPER_PROBES
            and spec.phone in TABLE5_PHONES
            and round(spec.emulated_rtt * 1e3) in TABLE5_RTTS_MS)


def paper_round(seed, round_index, spec_type=ScenarioSpec):
    """Table 5 AcuteMon grid, Table 2 ping cells, Fig. 8 "without"."""
    cells = [dict(phone=phone, tool="acutemon", emulated_rtt=rtt / 1e3)
             for phone in TABLE5_PHONES for rtt in TABLE5_RTTS_MS]
    cells += [dict(phone=phone, tool="ping", emulated_rtt=rtt / 1e3,
                   interval=1.0)
              for phone in ("nexus4", "nexus5") for rtt in (30, 60)]
    cells += [dict(phone="nexus5", tool=tool, emulated_rtt=0.030)
              for tool in ("httping", "javaping", "mobiperf", "ping2")]
    return [spec_type(count=PAPER_PROBES,
                      seed=cell_seed(seed, round_index, index), **cell)
            for index, cell in enumerate(cells)]


def cross_round(seed, round_index, spec_type=ScenarioSpec):
    """Fig. 8 "with": Nexus 5 at 30 ms under iperf cross traffic."""
    return [spec_type(phone="nexus5", tool=tool, emulated_rtt=0.030,
                      count=CROSS_PROBES[tool], cross_traffic=True,
                      seed=cell_seed(seed, round_index, index))
            for index, tool in enumerate(CROSS_ORDER)]


CELL_ROUNDS = {"paper_cells": paper_round, "cross_traffic": cross_round}


def campaign(seed, cycle):
    """The ``campaign_cache`` grid for one cold/warm cycle."""
    return Campaign(base_seed=cell_seed(seed, cycle, 0), **CAMPAIGN_GRID)


def warmup_spec(workload, seed):
    """The untimed cell every process runs before timing begins.

    It exercises the workload's code paths (cross traffic, observed
    cells) so lazy imports and caches are filled, at a fraction of a
    timed cell's cost.
    """
    if workload == "paper_cells":
        return paper_round(seed, -1)[0]
    if workload == "cross_traffic":
        return cross_round(seed, -1)[0].replace(count=10)
    return next(campaign(seed, -1).cells()).replace(observe=True)


# -- checks and digests -----------------------------------------------------


def canonical(result):
    return json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))


def digest(results):
    """SHA-256 over the canonical ``CellResult.to_dict()`` JSON lines."""
    sha = hashlib.sha256()
    for result in results:
        sha.update(canonical(result).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def check_cell(spec, result):
    """Why this cell's output is wrong, or ``None`` when it is right."""
    if len(result.rtts) < spec.count:
        return f"{len(result.rtts)} of {spec.count} samples"
    if is_table5(spec):
        dn = statistics.fmean(result.layers["dn"])
        if abs(dn - spec.emulated_rtt) >= TABLE5_LIMIT_S:
            return (f"mean dn {dn * 1e3:.3f} ms vs emulated "
                    f"{spec.emulated_rtt * 1e3:.0f} ms")
    return None


def check_warm(cold, warm, run_metrics):
    """Check a warm pass against its cold pass.

    Every cell must be served from the store (``campaign.cache_hits``
    equals the grid size) and byte-identical to the cold result.
    Returns ``(failed_cells, reasons)``.
    """
    reasons = []
    hits = counter(run_metrics, "campaign.cache_hits")
    if hits != len(cold):
        reasons.append(f"warm pass hit the store {hits} of "
                       f"{len(cold)} times")
    differing = len(cold) - len(warm) + sum(
        canonical(a) != canonical(b) for a, b in zip(cold, warm))
    if differing:
        reasons.append(f"{differing} warm cell(s) differ from the cold pass")
    return min(len(cold), abs(len(cold) - hits) + differing), reasons


def counter(snapshot, name):
    """Sum of one counter or gauge over every label set of a snapshot."""
    if snapshot is None:
        return 0
    return sum(entry.get("value", 0) for entry in snapshot["metrics"]
               if entry["name"] == name)


# -- the cell workloads -----------------------------------------------------


def run_one(spec, keep=True):
    """Run one cell; returns a record with its wall and simulated time.

    The result itself is kept only with ``keep``, so a long run does
    not grow the benchmark's own heap.
    """
    record = {"spec": spec, "result": None, "failure": None}
    start = time.perf_counter()
    try:
        with stall_guard(CELL_STALL_S):
            result = run_cell(spec)
    except Exception as exc:  # any raising cell is a failed cell
        record["wall_s"] = time.perf_counter() - start
        record["failure"] = f"raised {type(exc).__name__}: {exc}"
        return record
    record["wall_s"] = time.perf_counter() - start
    record["failure"] = check_cell(spec, result)
    if is_table5(spec):
        reference = table5_reference()[(spec.phone,
                                        round(spec.emulated_rtt * 1e3))]
        record["paper_error_ms"] = abs(
            statistics.fmean(result.layers["dn"]) * 1e3 - reference)
    if keep:
        record["result"] = result
    env = getattr(spec, "built", None)
    if env is not None:
        spec.built = None
        record["sim_s"] = env.sim.now
        record["events"] = env.sim.events_fired
        record["canceled"] = env.sim.events_canceled
    return record


def run_cell_workload(workload, seed, seconds):
    """Closed loop over whole rounds until ``seconds`` have passed.

    Returns one list of per-cell records per round.
    """
    make_round = CELL_ROUNDS[workload]
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        specs = make_round(seed, len(rounds), spec_type=CapturingSpec)
        rounds.append([run_one(spec, keep=not rounds) for spec in specs])
    return rounds


def cell_metrics(rounds):
    """End-to-end metrics of a cell workload from its round records.

    Each grid position's wall time is its median over rounds: host
    slowdowns come in bursts of seconds, and a per-position median
    drops them where a per-round or pooled statistic would not.  Rates
    are those of this median round; ``cell_ms_p50`` is the median over
    its positions.
    """
    records = [record for records in rounds for record in records]
    walls_ms = sorted(record["wall_s"] * 1e3 for record in records)
    positions = list(zip(*rounds))
    walls = [statistics.median(r["wall_s"] for r in position)
             for position in positions]
    sim = sum(statistics.median(r.get("sim_s", 0.0) for r in position)
              for position in positions)
    metrics = {
        "cells_per_s": len(positions) / sum(walls),
        "cell_ms_p50": statistics.median(walls) * 1e3,
        "sim_s_per_host_s": sim / sum(walls),
        "samples": len(walls_ms),
    }
    # A tail percentile is reported only with >= 10 samples beyond it.
    if len(walls_ms) >= 100:
        metrics["cell_ms_p90"] = statistics.quantiles(walls_ms, n=10)[-1]
    errors = [record["paper_error_ms"] for record in records
              if "paper_error_ms" in record]
    if errors:
        metrics["paper_error_ms"] = statistics.fmean(errors)
    return metrics


def cell_counts(records):
    """The exact simulated counts of a round, per cell in grid order."""
    return {
        "cells": len(records),
        "events_fired": [record.get("events") for record in records],
        "events_canceled": [record.get("canceled") for record in records],
    }


# -- the campaign workload ----------------------------------------------------


def campaign_cycle(seed, cycle, workdir, transport=None):
    """One cold pass, one warm pass and the report, timed separately."""
    root = tempfile.mkdtemp(prefix=f"cycle{cycle}-", dir=workdir)
    store = os.path.join(root, "store")
    checkpoint = os.path.join(root, "checkpoint.jsonl")
    cold = campaign(seed, cycle)
    specs = list(cold.cells())
    out = {"cells": len(specs), "failed": 0, "failures": []}
    try:
        start = time.perf_counter()
        with stall_guard(PASS_STALL_S):
            cold.run(shards=CAMPAIGN_SHARDS, store=store,
                     checkpoint=checkpoint, collect_metrics=True,
                     transport=transport)
        out["cold_s"] = time.perf_counter() - start
        warm = campaign(seed, cycle)
        start = time.perf_counter()
        with stall_guard(PASS_STALL_S):
            warm.run(shards=CAMPAIGN_SHARDS, store=store,
                     collect_metrics=True, transport=transport)
        out["warm_s"] = time.perf_counter() - start
        start = time.perf_counter()
        merged = warm.merged_metrics()
        report = decompose_campaign(warm)
        rendered = [render_report(report, fmt)
                    for fmt in ("text", "json", "prom")]
        out["report_s"] = time.perf_counter() - start
    except Exception as exc:  # a failed pass fails both passes' cells
        out["failed"] = 2 * len(specs)
        out["failures"].append(f"raised {type(exc).__name__}: {exc}")
        return out
    finally:
        shutil.rmtree(root, ignore_errors=True)
    by_key = {result.key(): result for result in cold.results}
    for spec in specs:
        result = by_key.get(spec.key())
        reason = ("quarantined or missing" if result is None
                  else check_cell(spec, result))
        if reason:
            out["failed"] += 1
            out["failures"].append(f"{spec.describe()}: {reason}")
    failed, reasons = check_warm(cold.results, warm.results,
                                 warm.run_metrics)
    out["failed"] += failed
    out["failures"] += reasons
    if not merged or not all(rendered):
        out["failed"] += len(specs)
        out["failures"].append("report is empty")
    out["results"] = cold.results
    out["run_metrics"] = {"cold": cold.run_metrics, "warm": warm.run_metrics}
    out["sim_s"] = sum(counter(result.metrics, "sim_clock_seconds")
                       for result in cold.results)
    return out


def run_campaign_workload(seed, seconds, workdir):
    """Closed loop of cold/warm/report cycles until ``seconds`` pass."""
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        cycle = campaign_cycle(seed, len(cycles), workdir)
        if cycles:  # only cycle 0 feeds the digest and count block
            cycle.pop("results", None)
        cycles.append(cycle)
    return cycles


def campaign_metrics(cycles):
    done = [cycle for cycle in cycles if "report_s" in cycle]
    if not done:
        return {"samples": 0}
    return {
        "cells_per_s": statistics.median(c["cells"] / c["cold_s"]
                                         for c in done),
        "cell_ms_p50": statistics.median(c["cold_s"] * 1e3 / c["cells"]
                                         for c in done),
        "sim_s_per_host_s": statistics.median(c["sim_s"] / c["cold_s"]
                                              for c in done),
        "warm_cells_per_s": statistics.median(c["cells"] / c["warm_s"]
                                              for c in done),
        "report_s": statistics.median(c["report_s"] for c in done),
        "samples": len(done),
    }


def campaign_counts(results):
    """Exact simulated counts of one cold pass, from its cells' snapshots."""
    return {
        "cells": len(results),
        "events_fired": [counter(result.metrics, "scheduler_events_fired")
                         for result in results],
        "events_canceled": [counter(result.metrics,
                                    "scheduler_events_canceled")
                            for result in results],
    }


@functools.lru_cache(maxsize=1)
def table5_reference():
    """``TABLE5`` from benchmarks/paper_reference.py.

    ``benchmarks/`` is a pytest directory, not a package, so the table
    is parsed rather than imported.
    """
    path = (pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
            / "paper_reference.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "TABLE5"
                        for target in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError(f"no TABLE5 in {path}")
