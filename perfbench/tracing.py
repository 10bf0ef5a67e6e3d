"""The traced run: per-layer numbers for one workload.

Three kinds of measurement, each in its own pass so that one does not
inflate another:

* **spans** -- timed wrappers installed around the program's public
  calls (``ScenarioSpec.build``/``execute``/``fingerprint``,
  ``ResultStore.get``/``put``, ``CheckpointJournal.append``, shard
  ``dispatch``, ``Campaign.merged_metrics``, ``decompose_campaign``,
  ``render_report``) for the length of one pass, then removed;
* **profile** -- a ``cProfile`` pass whose self-time is grouped by
  ``repro.<pkg>``; time in code outside ``repro`` (builtins, stdlib,
  numpy) is charged to the ``repro`` package that called it, and the
  rest is the residual, so the shares sum to 100%;
* **counts** -- fired events by category, SDIO wakes and PSM
  transitions from each cell's ``observe=True`` metrics snapshot.
  They repeat exactly for a fixed seed.

``trace_overhead_pct`` compares the span pass with an untraced pass of
the same cells.  Cell workloads run unobserved, so their counts come
from a third, untimed pass with ``observe=True``.  Campaign shard
workers run in other processes, so the cell-level spans and the profile
of ``campaign_cache`` come from replaying its cycle through
``InProcessTransport``.
"""

import contextlib
import cProfile
import inspect
import os
import pathlib
import pstats
import shutil
import statistics
import tempfile
import time
from collections import Counter

import workloads as wl
from repro.testbed.campaign import Campaign, run_cell
from repro.testbed.fabric import InProcessTransport, MultiprocessTransport
from repro.testbed.resilience import CheckpointJournal
from repro.testbed.scenario import ScenarioSpec
from repro.testbed.store import ResultStore

#: Layers named after ``src/repro/<pkg>`` whose self-time is reported.
LAYERS = ("sim", "phone", "wifi", "net", "tools", "core", "sniffer", "obs",
          "cellular", "testbed", "analysis")

#: Per-cell count metrics: (metric, snapshot counter, event category).
EVENT_COUNTS = (
    ("phone.watchdog_ticks", None, "watchdog"),
    ("phone.sdio_wakes", "sdio_wakes_total", None),
    ("wifi.beacons", None, "beacon"),
    ("wifi.tbtt_wakes", None, "tbtt-wake"),
    ("wifi.psm_transitions", "psm_transitions_total", None),
    ("wifi.dcf_rounds", None, "dcf-round"),
    ("wifi.deliveries", None, "wifi-deliver"),
    ("net.link_deliveries", None, "link-deliver"),
    ("net.eth_tx", None, "eth-tx"),
)

CELL_CALLS = (
    (ScenarioSpec, "build", "testbed.build"),
    (ScenarioSpec, "execute", "testbed.execute"),
)
RUNNER_CALLS = (
    (ScenarioSpec, "fingerprint", "testbed.fingerprint"),
    (ResultStore, "get", "testbed.store_get"),
    (ResultStore, "put", "testbed.store_put"),
    (CheckpointJournal, "append", "testbed.journal_append"),
    (MultiprocessTransport, "dispatch", "testbed.dispatch"),
    (Campaign, "merged_metrics", "obs.merge"),
    (wl, "decompose_campaign", "analysis.decompose"),
    (wl, "render_report", "analysis.render"),
)


class Spans:
    """In-memory spans: ``[id, parent id, name, start, end]``.

    Nesting follows the call stack, so a span's parent is the span that
    caused it (``testbed.build`` inside ``cell``, a store ``put`` inside
    ``testbed.dispatch``).
    """

    def __init__(self):
        self.records = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        record = [len(self.records), self._stack[-1] if self._stack else None,
                  name, time.perf_counter(), None]
        self.records.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def traced(self, fn, name):
        """``fn`` wrapped in a span; a generator is timed per step, so
        time its consumer spends between items is not counted."""
        if inspect.isgeneratorfunction(fn):
            def stepped(*args, **kwargs):
                steps = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(steps)
                        except StopIteration:
                            return
                    yield item
            return stepped

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self, calls):
        """Wrap each ``(owner, attribute, span name)`` for the block."""
        saved = []
        try:
            for owner, attribute, name in calls:
                original = vars(owner)[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.traced(original, name))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def durations(self, name):
        return [end - start for _, _, span_name, start, end in self.records
                if span_name == name]

    def mean(self, name, scale):
        values = self.durations(name)
        return statistics.fmean(values) * scale if values else 0.0

    def summary(self):
        """Count, total and self seconds per span name (self = own
        duration minus the time its child spans cover)."""
        child_time = Counter()
        for _, parent, _, start, end in self.records:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for sid, _, name, start, end in self.records:
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[sid]
        return out


# -- profile grouping -------------------------------------------------------


def _layer(filename, package_root):
    try:
        relative = pathlib.Path(filename).resolve().relative_to(package_root)
    except ValueError:
        return None
    # Top-level modules (cli, __init__) belong to no layer: residual.
    return relative.parts[0] if len(relative.parts) > 1 else "repro"


def self_shares(profile, package_root):
    """Self-time share (%) per layer plus ``residual``; sums to 100."""
    stats = pstats.Stats(profile).stats
    layers = {}
    totals = Counter()
    for func, (_cc, _nc, self_s, _cum, callers) in stats.items():
        if func[0] not in layers:
            layers[func[0]] = _layer(func[0], package_root)
        layer = layers[func[0]]
        if layer is not None:
            totals[layer] += self_s
            continue
        charged = 0.0
        for caller, edge in callers.items():
            if caller[0] not in layers:
                layers[caller[0]] = _layer(caller[0], package_root)
            caller_layer = layers[caller[0]]
            if caller_layer is not None:
                totals[caller_layer] += edge[2]
                charged += edge[2]
        totals["residual"] += self_s - charged
    total = sum(totals.values())
    shares = {f"{name}.self_share": 100.0 * totals[name] / total
              for name in LAYERS}
    shares["residual.self_share"] = 100.0 - sum(shares.values())
    return shares


def profiled(fn):
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    return profile


# -- counts -----------------------------------------------------------------


def count_block(snapshots):
    """Fired events by category and the per-layer count metrics, summed
    over the cells' metrics snapshots."""
    by_category = Counter()
    for snapshot in snapshots:
        for entry in snapshot["metrics"]:
            if entry["name"] == "scheduler_events_fired_total":
                by_category[entry["labels"]["category"]] += entry["value"]
    cells = len(snapshots)
    metrics = {}
    for name, counter_name, category in EVENT_COUNTS:
        total = (by_category[category] if category else
                 sum(wl.counter(s, counter_name) for s in snapshots))
        metrics[name] = total / cells
    fired = sum(wl.counter(s, "scheduler_events_fired") for s in snapshots)
    canceled = sum(wl.counter(s, "scheduler_events_canceled")
                   for s in snapshots)
    metrics["sim.events_per_cell"] = fired / cells
    metrics["sim.canceled_per_cell"] = canceled / cells
    block = {"cells": cells, "events_fired": fired,
             "events_canceled": canceled,
             "fired_by_category": dict(sorted(by_category.items()))}
    return metrics, block


def runner_metrics(spans):
    """Per-call costs of the runner, obs and analysis layers."""
    renders = spans.durations("analysis.render")
    return {
        "testbed.fingerprint_us": spans.mean("testbed.fingerprint", 1e6),
        "testbed.store_get_us": spans.mean("testbed.store_get", 1e6),
        "testbed.store_put_us": spans.mean("testbed.store_put", 1e6),
        "testbed.journal_append_us": spans.mean("testbed.journal_append",
                                                1e6),
        "obs.merge_ms": spans.mean("obs.merge", 1e3),
        "analysis.decompose_ms": spans.mean("analysis.decompose", 1e3),
        # Three formats are rendered per report.
        "analysis.render_ms": 3 * statistics.fmean(renders) * 1e3,
    }


# -- the cell workloads -------------------------------------------------------


def runner_probe(specs, results, workdir):
    """Push a traced round through the runner's cache and report layers.

    Cell workloads bypass the campaign runner, so this gives their
    per-call store, journal, merge and report costs on their own cells.
    """
    root = tempfile.mkdtemp(prefix="probe-", dir=workdir)
    try:
        fingerprints = [spec.fingerprint() for spec in specs]
        with ResultStore(os.path.join(root, "store")) as store:
            for fingerprint, result in zip(fingerprints, results):
                store.put(fingerprint, result)
        store = ResultStore(os.path.join(root, "store"))
        for fingerprint in fingerprints:
            store.get(fingerprint)
        with CheckpointJournal(os.path.join(root, "journal.jsonl")) as journal:
            for fingerprint, result in zip(fingerprints, results):
                journal.append(fingerprint, result)
        campaign = Campaign()
        campaign.results = results
        campaign.merged_metrics()
        report = wl.decompose_campaign(campaign)
        for fmt in ("text", "json", "prom"):
            wl.render_report(report, fmt)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def trace_cells(workload, seed, workdir, package_root):
    """Per-layer metrics of a cell workload over its round 0."""
    make_round = wl.CELL_ROUNDS[workload]
    specs = make_round(seed, 0)
    spans = Spans()
    untraced, traced_s = [], 0.0
    # Each cell runs untraced and then traced, back to back, so a slow
    # spell of the host weighs on both passes alike.
    for capturing, spec in zip(make_round(seed, 0, wl.CapturingSpec),
                               specs):
        untraced.append(wl.run_one(capturing))
        with spans.installed(CELL_CALLS):
            start = time.perf_counter()
            with spans.span("cell"):
                run_cell(spec)
            traced_s += time.perf_counter() - start
    untraced_s = sum(record["wall_s"] for record in untraced)

    observed = [run_cell(spec, collect_metrics=True) for spec in specs]
    with spans.installed(RUNNER_CALLS):
        runner_probe(specs, observed, workdir)

    profile = profiled(lambda: [run_cell(spec) for spec in specs])

    metrics, block = count_block([result.metrics for result in observed])
    events = sum(record["events"] for record in untraced)
    metrics.update(self_shares(profile, package_root))
    metrics.update(runner_metrics(spans))
    metrics.update({
        "sim.host_us_per_event": untraced_s / events * 1e6,
        "tools.probes_lost": sum(spec.count - len(result.rtts)
                                 for spec, result in zip(specs, observed)),
        "testbed.build_ms": spans.mean("testbed.build", 1e3),
        "testbed.execute_ms": spans.mean("testbed.execute", 1e3),
        "testbed.cache_hit_ratio": 0.0,
        "testbed.shards_stolen": 0,
        "trace_overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
    })
    return {
        "metrics": metrics,
        "counts": block,
        "records": untraced,
        "spans": spans.summary(),
        "passes_s": {"untraced": untraced_s, "traced": traced_s},
    }


# -- the campaign workload ---------------------------------------------------


def trace_campaign(seed, workdir, package_root, repeats=5):
    """Per-layer metrics of ``campaign_cache`` over its cycle 0."""
    def cycle_s(cycle):
        return cycle["cold_s"] + cycle["warm_s"] + cycle["report_s"]

    spans = Spans()
    untraced, traced = [], []
    for _ in range(repeats):
        untraced.append(wl.campaign_cycle(seed, 0, workdir))
        with spans.installed(RUNNER_CALLS):
            traced.append(wl.campaign_cycle(seed, 0, workdir))
    cell_spans = Spans()
    with cell_spans.installed(CELL_CALLS):
        replay = wl.campaign_cycle(seed, 0, workdir,
                                   transport=InProcessTransport())
    profile = profiled(lambda: wl.campaign_cycle(
        seed, 0, workdir, transport=InProcessTransport()))

    cycle = untraced[0]
    results = cycle["results"]
    metrics, block = count_block([result.metrics for result in results])
    metrics.update(self_shares(profile, package_root))
    metrics.update(runner_metrics(spans))
    run_metrics = traced[0]["run_metrics"]
    hits = sum(wl.counter(m, "campaign.cache_hits")
               for m in run_metrics.values())
    misses = sum(wl.counter(m, "campaign.cache_misses")
                 for m in run_metrics.values())
    dispatch = [span for span in spans.records
                if span[2] == "testbed.dispatch"]
    metrics.update({
        "sim.host_us_per_event": (replay["cold_s"] / block["events_fired"]
                                  * 1e6),
        "tools.probes_lost": sum(wl.CAMPAIGN_GRID["count"] - len(r.rtts)
                                 for r in results),
        "testbed.build_ms": cell_spans.mean("testbed.build", 1e3),
        "testbed.execute_ms": cell_spans.mean("testbed.execute", 1e3),
        "testbed.dispatch_s": sum(end - start
                                  for *_, start, end in dispatch) / repeats,
        "testbed.cache_hit_ratio": hits / (hits + misses),
        "testbed.shards_stolen": wl.counter(run_metrics["cold"],
                                            "campaign.shards_stolen"),
        "trace_overhead_pct": 100.0 * (
            statistics.median(map(cycle_s, traced))
            / statistics.median(map(cycle_s, untraced)) - 1.0),
    })
    return {
        "metrics": metrics,
        "counts": block,
        "cycles": untraced + traced,
        "spans": {**spans.summary(), **cell_spans.summary()},
    }
