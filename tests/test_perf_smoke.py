"""Fast performance smoke checks (``-m perf_smoke``).

Single-round miniatures of the ``benchmarks/test_bench_simulator_perf``
benches.  They run inside tier-1 so a gross event-loop, wire-encoding,
or campaign regression (an accidental O(n) scan, a dropped cache) fails
fast without the full pytest-benchmark suite.  The floors are set far
below current throughput: they only trip on order-of-magnitude
regressions, never on machine noise.

The measured rates are written to a session temp file, and
``scripts/bench_compare.py`` (exercised last in this module) gates the
metrics recorded in ``seed_baseline`` against >10% regressions.  A test
run leaves the tree untouched.  Recording the perf trajectory in the
tracked ``BENCH_simulator.json`` at the repo root is an explicit step::

    PYTHONPATH=src python -m pytest tests/test_perf_smoke.py --record-bench

Workloads were raised in PR 6 from the seed's 20k chained events / 600
wire round trips so steady-state throughput is what gets measured: the
headline scheduler number now drives 200k ticks through batched
periodic trains (the workload the timing wheel optimizes), a separate
chain workload tracks the unbatched general path, and the wire workload
round-trips 3000 probe-id-varied packets through the batch codec.
"""

import json
import pathlib
import statistics
import sys
import time

import pytest

from repro.net import wire
from repro.net.addresses import ip
from repro.net.packet import IcmpEcho, Packet, TcpSegment, UdpDatagram
from repro.sim.scheduler import Simulator
from repro.testbed.campaign import Campaign

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
_BENCH_PATH = _REPO_ROOT / "BENCH_simulator.json"

#: Gate workload: one dense periodic train (the measurement probe loop,
#: period 100us) plus one 10ms watchdog — the steady state the wheel's
#: batched fast path serves.  Tick counts are exact: the train fires
#: 200_000 times in 20 simulated seconds, the watchdog 1_999 (its
#: phase-shifted grid has 1_999 points in (0, 20]).
_TRAIN_EVENTS = 200_000 + 1_999
#: Fidelity workload: self-rescheduling callback chain — the seed
#: benchmark's shape, which cannot batch (every tick schedules).
_CHAIN_EVENTS = 100_000
_WIRE_ROUND_TRIPS = 3_000
_CAMPAIGN_CELLS = 2
_SKETCH_OBSERVATIONS = 10_000
#: The two overhead gates time this many interleaved A/B pairs of short
#: runs (see ``_paired_overhead_pct``).
_OVERHEAD_PAIRS = 41
_OVERHEAD_CHAIN_EVENTS = 5_000
_DECOMPOSITION_CELLS = 2
_ANALYTIC_CALLS = 20_000

# Same-shape workloads run against the growth-seed commit on the
# reference container (1 CPU, CPython 3.11) — the denominator of the
# perf trajectory.  The seed had no train API, so its headline number
# is the chained-event rate; PR 6's ≥5x target compares the batched
# steady state against it.  ``scripts/bench_compare.py`` gates every
# metric listed here.
_SEED_BASELINE = {
    "scheduler_events_per_sec": 644_621.0,
    "wire_round_trips_per_sec": 34_739.0,
    # First recorded on PR 7 (the subsystem's birth), at ~1/3 of the
    # measured rate on the reference container so the >10% gate tracks
    # real regressions rather than machine noise.
    "decomposition_cells_per_sec": 8.0,
    # First recorded on PR 8 with the result store: the ISSUE's floor,
    # far under the measured ratio, so the gate trips on a store that
    # stopped short-circuiting execution rather than on timer noise.
    "cache_warm_speedup": 10.0,
    # First recorded with the analytic layer, at ~1/3 of the measured
    # rate on the reference container: closed-form predictions must
    # stay cheap enough to sweep inside tests and notebooks.
    "analytic_predict_calls_per_sec": 50_000.0,
}

_rates = {}


@pytest.fixture(scope="module")
def bench_path(request, tmp_path_factory):
    """Where the rates go: the tracked ``BENCH_simulator.json`` only with
    ``--record-bench``, a session temp file otherwise."""
    if request.config.getoption("--record-bench", default=False):
        return _BENCH_PATH
    return tmp_path_factory.mktemp("bench") / "BENCH_simulator.json"


def _elapsed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _rate(units, fn):
    elapsed = _elapsed(fn)
    return units / elapsed if elapsed > 0 else float("inf")


def _steady_rate(units, fn, rounds=3):
    """Best-of-N rate: steady-state throughput, not cold-start noise.

    The headline metrics gate a >10% regression budget
    (``scripts/bench_compare.py``); a single cold round swings 30%+ on
    allocator and branch-predictor warmup alone, so the trajectory
    metrics take the best of three warm rounds.
    """
    return max(_rate(units, fn) for _ in range(rounds))


def _paired_overhead_pct(baseline, candidate):
    """How much slower ``candidate`` runs than ``baseline``, in percent.

    The two run back to back in each of ``_OVERHEAD_PAIRS`` pairs,
    alternating which goes first, and the estimate is the median over
    pairs of ``1 - baseline_time / candidate_time``.  Host load on a shared
    machine comes in bursts that swing single runs by 20-40%: a burst
    slows both members of a pair alike, and the median drops the few
    pairs a burst splits.  Best-of-N rates taken on each side
    separately do neither, which made these gates flaky.
    """
    ratios = []
    for index in range(_OVERHEAD_PAIRS):
        if index % 2:
            candidate_s = _elapsed(candidate)
            baseline_s = _elapsed(baseline)
        else:
            baseline_s = _elapsed(baseline)
            candidate_s = _elapsed(candidate)
        ratios.append(1.0 - baseline_s / candidate_s)
    return max(0.0, statistics.median(ratios) * 100.0)


@pytest.mark.perf_smoke
def test_smoke_scheduler_train_rate():
    """Headline gate: batched periodic-train steady state.

    Two floors apply: this test asserts more than 500,000 events/s, and
    ``scripts/bench_compare.py`` fails the rate below 90% of its
    644,621 events/s seed baseline (580,159 events/s).
    """

    def run():
        sim = Simulator(seed=1)
        count = [0]

        def tick():
            count[0] += 1

        sim.schedule_periodic(1e-4, tick, label="probe:loop")
        sim.schedule_periodic(0.01, tick, phase=0.005, label="watchdog:bus")
        sim.run(until=20.0)
        assert count[0] == _TRAIN_EVENTS

    _rates["scheduler_events_per_sec"] = _steady_rate(_TRAIN_EVENTS, run)
    assert _rates["scheduler_events_per_sec"] > 500_000


@pytest.mark.perf_smoke
def test_smoke_scheduler_chain_rate():
    """Fidelity metric: the unbatched general path must not rot either."""

    def run():
        sim = Simulator(seed=1)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < _CHAIN_EVENTS:
                sim.schedule(1e-4, tick)

        sim.schedule(0.0, tick)
        sim.run()
        assert count[0] == _CHAIN_EVENTS

    _rates["scheduler_chain_events_per_sec"] = _steady_rate(_CHAIN_EVENTS, run)
    assert _rates["scheduler_chain_events_per_sec"] > 50_000


@pytest.mark.perf_smoke
def test_smoke_wire_round_trip_rate():
    """Batch encode + decode of probe-id-varied packets (sniffer shape)."""
    endpoints = (ip("10.0.0.1"), ip("10.0.0.2"))
    packets = []
    for index in range(_WIRE_ROUND_TRIPS):
        kind = index % 3
        meta = {"probe_id": index + 1}
        if kind == 0:
            payload = IcmpEcho(8, 1, index & 0xFFFF, 56)
        elif kind == 1:
            payload = UdpDatagram(40_000 + (index % 100), 33_434, 512)
        else:
            payload = TcpSegment(40_000 + (index % 100), 80,
                                 index, 0, 0x18, 1024)
        packets.append(Packet(endpoints[0], endpoints[1], payload,
                              meta=meta))

    def run():
        blobs = wire.encode_ipv4_batch(packets)
        for blob in blobs:
            wire.decode_ipv4(blob)

    _rates["wire_round_trips_per_sec"] = _steady_rate(_WIRE_ROUND_TRIPS, run)
    assert _rates["wire_round_trips_per_sec"] > 5_000


@pytest.mark.perf_smoke
def test_smoke_campaign_cell_rate():
    campaign = Campaign(phones=("nexus5",), rtts=(0.02, 0.05),
                        tools=("ping",), count=3)

    def run():
        campaign.run(workers=1)
        assert len(campaign.results) == _CAMPAIGN_CELLS

    _rates["campaign_cells_per_sec"] = _rate(_CAMPAIGN_CELLS, run)
    assert _rates["campaign_cells_per_sec"] > 1


@pytest.mark.perf_smoke
def test_smoke_scenario_build_overhead():
    """Spec construction must stay negligible next to cell execution.

    Campaign grids route every cell through ScenarioSpec (validate +
    JSON round-trip in the parallel path).  Best-of-3 timing of that
    per-cell spec machinery, expressed as a percentage of the measured
    per-cell execution time from ``test_smoke_campaign_cell_rate``
    (which runs earlier in this module).  The 5% gate only trips if
    spec handling grows real work — validation today is microseconds
    against cells that take tens of milliseconds.
    """
    from repro.testbed.scenario import ScenarioSpec

    specs = 200

    def build_round_trip():
        for index in range(specs):
            spec = ScenarioSpec(env="wifi", phone="nexus5", tool="ping",
                                emulated_rtt=0.02, count=3,
                                seed=index * 7919)
            ScenarioSpec.from_dict(spec.to_dict()).to_json()

    best = 0.0
    for _ in range(3):
        best = max(best, _rate(specs, build_round_trip))
    per_spec_seconds = 1.0 / best
    cells_per_sec = _rates["campaign_cells_per_sec"]
    overhead = per_spec_seconds * cells_per_sec * 100.0
    _rates["scenario_build_overhead_pct"] = overhead
    assert overhead <= 5.0


class _ReferenceSimulator(Simulator):
    """The wheel's fast loop with no observability dispatch at all —
    the zero-overhead yardstick for the bench below."""

    def run(self, until=None):
        self._running = True
        self._stopped = False
        try:
            self._run_fast(until)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now


@pytest.mark.perf_smoke
def test_smoke_obs_disabled_overhead():
    """Disabled metrics/spans/tracing must stay ~free on the hot loop.

    Paired runs (``_paired_overhead_pct``) of a short chain workload on
    the stock Simulator (obs attached but disabled) versus the reference
    replica above; the gate is the relative throughput loss.  3% is far
    above the one-attribute-check-per-run() cost actually added — the
    assert only trips if instrumentation leaks into the per-event path.
    Short runs let many pairs fit in about a second, each pair inside
    one host-load window.
    """

    def workload(sim_cls):
        def run():
            sim = sim_cls(seed=1)
            count = [0]

            def tick():
                count[0] += 1
                if count[0] < _OVERHEAD_CHAIN_EVENTS:
                    sim.schedule(1e-4, tick)

            sim.schedule(0.0, tick)
            sim.run()
            assert count[0] == _OVERHEAD_CHAIN_EVENTS

        return run

    overhead = _paired_overhead_pct(workload(_ReferenceSimulator),
                                    workload(Simulator))
    _rates["obs_disabled_overhead_pct"] = overhead
    assert overhead <= 3.0


class _NullSketch:
    """Drop-in that skips sketch maintenance — the yardstick for the
    sketch-observe overhead gate below."""

    def add(self, value, count=1):
        pass


@pytest.mark.perf_smoke
def test_smoke_sketch_observe_overhead():
    """The quantile sketch must stay a modest share of observe() cost.

    ``Histogram.observe`` pays one ``DDSketch.add`` (a ``log`` plus one
    dict update) on top of the bucket scan and min/max/sum bookkeeping.
    Paired A/B (``_paired_overhead_pct``) of the same histogram with the
    sketch swapped for a no-op: currently ~50% (the log costs about as
    much as the bisect and stats updates combined); the 60% gate trips
    if sketch
    maintenance grows real work (a rebalancing pass, per-add
    allocation), which would erode the "enable metrics freely" story
    of docs/OBSERVABILITY.md.
    """
    from repro.obs.metrics import MetricsRegistry

    values = [1e-4 * (1 + (index % 997)) for index in range(1000)]

    def workload(null_sketch):
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("perf_seconds")
        if null_sketch:
            hist.sketch = _NullSketch()

        def run():
            observe = hist.observe
            for _ in range(_SKETCH_OBSERVATIONS // len(values)):
                for value in values:
                    observe(value)

        return run

    overhead = _paired_overhead_pct(workload(True), workload(False))
    _rates["sketch_observe_overhead_pct"] = overhead
    assert overhead <= 60.0


@pytest.mark.perf_smoke
def test_smoke_decomposition_rate():
    """End-to-end decomposition: observed cells -> attribution ->
    merged snapshots -> rendered report.

    The trajectory metric (gated against ``seed_baseline`` by
    ``scripts/bench_compare.py``) covers the whole new pipeline: cells
    run with spans+metrics on, per-probe attribution lands in the
    ``probe_component_seconds`` series, and the campaign report renders
    in all three formats.
    """
    from repro.analysis.decompose import decompose_campaign, render_report

    campaign = Campaign(phones=("nexus5",), rtts=(0.02,),
                        tools=("ping", "acutemon"), count=3)

    def run():
        campaign.run(workers=1, collect_metrics=True)
        report = decompose_campaign(campaign)
        assert len(report.slices) == _DECOMPOSITION_CELLS
        for fmt in ("text", "json", "prom"):
            assert render_report(report, fmt)

    _rates["decomposition_cells_per_sec"] = _rate(_DECOMPOSITION_CELLS, run)
    assert _rates["decomposition_cells_per_sec"] > 1


@pytest.mark.perf_smoke
def test_smoke_analytic_predict_rate():
    """Closed-form prediction throughput (docs/ANALYTIC.md).

    ``predict_for_profile`` is the theory half of the theory-vs-sim
    harness and the ``repro analytic`` CLI; grid sweeps call it per
    cell, so it must stay in the 100k+/s range.  Gated against
    ``seed_baseline`` by ``scripts/bench_compare.py``.
    """
    from repro.analysis.analytic import predict_for_profile

    def run():
        for index in range(_ANALYTIC_CALLS):
            prediction = predict_for_profile(
                "nexus5", offered_load=(index % 7) * 0.5,
                base_rtt=0.02, listen_interval=index % 3)
        assert prediction["psm_mean_delay"] > 0.0

    _rates["analytic_predict_calls_per_sec"] = \
        _steady_rate(_ANALYTIC_CALLS, run)
    assert _rates["analytic_predict_calls_per_sec"] > 50_000


@pytest.mark.perf_smoke
def test_smoke_checkpoint_overhead(tmp_path):
    """Journaling cells must not meaningfully slow a campaign down.

    A checkpointed run (docs/RESILIENCE.md) adds exactly one unit of
    work per completed cell: hash the spec's canonical JSON and append
    one flushed JSONL record to the open journal.  Best-of-3 timing of
    that per-cell unit, expressed as a percentage of the per-cell
    execution time measured by ``test_smoke_campaign_cell_rate``
    (which runs earlier in this module) — the same methodology as
    ``test_smoke_scenario_build_overhead``.  Timing the unit directly
    keeps the gate deterministic where a wall-clock A/B of two ~20ms
    campaign runs drowns a ~30us/cell delta in scheduler noise.  The
    3% gate only trips if checkpointing grows real per-cell work (an
    fsync on the default path, re-serialising results, hashing more
    than once per cell).
    """
    from repro.testbed.resilience import CheckpointJournal

    campaign = Campaign(phones=("nexus5",), rtts=(0.02,),
                        tools=("ping",), count=3)
    campaign.run(workers=1)
    (result,) = campaign.results
    (spec,) = campaign.cells()

    ops = 200
    journal = CheckpointJournal(tmp_path / "perf_checkpoint.jsonl")

    def checkpoint_cells():
        for _ in range(ops):
            journal.append(spec.fingerprint(), result)

    best = 0.0
    with journal:
        for _ in range(3):
            best = max(best, _rate(ops, checkpoint_cells))
    per_cell_seconds = 1.0 / best
    cells_per_sec = _rates["campaign_cells_per_sec"]
    overhead = per_cell_seconds * cells_per_sec * 100.0
    _rates["checkpoint_overhead_pct"] = overhead
    assert overhead <= 3.0


@pytest.mark.perf_smoke
def test_smoke_store_lookup_overhead(tmp_path):
    """Consulting the result store must stay a sliver of cell cost.

    A store-backed cold run (docs/FABRIC.md) adds exactly one unit of
    work per cell: hash the spec's canonical JSON, miss the cache, and
    append the finished record to the writer segment plus one index
    line.  Best-of-3 timing of that unit over 200 distinct specs,
    expressed as a percentage of the per-cell execution time measured
    by ``test_smoke_campaign_cell_rate`` — the same methodology as the
    checkpoint gate above, and the same 3% budget: the gate only trips
    if the store grows real per-cell work (an fsync on the default
    path, a full segment rescan per miss, double hashing).
    """
    from repro.testbed.scenario import ScenarioSpec
    from repro.testbed.store import ResultStore

    campaign = Campaign(phones=("nexus5",), rtts=(0.02,),
                        tools=("ping",), count=3)
    campaign.run(workers=1)
    (result,) = campaign.results

    specs = [ScenarioSpec(env="wifi", phone="nexus5", tool="ping",
                          emulated_rtt=0.02, count=3, seed=index * 7919)
             for index in range(200)]

    def cold_units(store):
        def run():
            for spec in specs:
                fingerprint = spec.fingerprint()
                assert store.get(fingerprint) is None
                store.put(fingerprint, result)

        return run

    best = 0.0
    for attempt in range(3):
        with ResultStore(tmp_path / f"store-{attempt}") as store:
            best = max(best, _rate(len(specs), cold_units(store)))
    per_cell_seconds = 1.0 / best
    cells_per_sec = _rates["campaign_cells_per_sec"]
    overhead = per_cell_seconds * cells_per_sec * 100.0
    _rates["store_lookup_overhead_pct"] = overhead
    assert overhead <= 3.0


@pytest.mark.perf_smoke
def test_smoke_cache_warm_speedup(tmp_path):
    """A cache-warm campaign must beat its cold twin by >=10x.

    The headline number of the result store: a 50-cell sweep runs cold
    into an empty store, then a fresh campaign over the same grid runs
    warm out of it.  The warm run executes zero cells — its cost is
    hashing 50 specs and deserialising 50 cached payloads — so the
    ratio is the store's reason to exist, tracked in the perf
    trajectory and gated against ``seed_baseline`` like the other
    headline metrics.
    """
    from repro.testbed.store import ResultStore

    grid = dict(phones=("nexus5",),
                rtts=tuple(0.01 + 0.002 * index for index in range(25)),
                tools=("ping", "acutemon"), count=1)
    root = tmp_path / "store"

    cold = Campaign(**grid)
    start = time.perf_counter()
    cold.run(workers=1, store=ResultStore(root))
    cold_seconds = time.perf_counter() - start
    assert len(cold.results) == 50

    warm = Campaign(**grid)
    start = time.perf_counter()
    warm.run(workers=1, store=ResultStore(root))
    warm_seconds = time.perf_counter() - start
    assert len(warm.results) == 50
    assert [r.to_dict() for r in warm.results] \
        == [r.to_dict() for r in cold.results]
    stats = {metric["name"]: metric["value"]
             for metric in warm.run_metrics["metrics"]}
    assert stats["campaign.cache_hits"] == 50
    assert stats.get("campaign.cells_run", 0) == 0

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 \
        else float("inf")
    _rates["cache_warm_speedup"] = speedup
    assert speedup >= 10.0


@pytest.mark.perf_smoke
def test_smoke_lint_full_repo_under_budget():
    """A full-repo ``repro lint`` run must stay under 5 seconds.

    The engine is wired into tier-1 (tests/test_lint_clean.py), so its
    latency is tier-1 latency: this gate keeps rule authors honest about
    per-file cost.  The budget covers every registered rule including
    the dynamic registry contract (RL301), on the whole ``src/`` tree,
    with a generous margin over the current cost.
    """
    from repro.lint import run_lint

    src = _REPO_ROOT / "src"
    start = time.perf_counter()
    result = run_lint(src)
    elapsed = time.perf_counter() - start
    assert result.files_scanned > 90
    assert not result.findings
    _rates["lint_full_repo_seconds"] = elapsed
    assert elapsed < 5.0


@pytest.mark.perf_smoke
def test_smoke_emits_bench_json(bench_path):
    """Persist the rates measured above (runs late in this module)."""
    assert set(_rates) == {"scheduler_events_per_sec",
                           "scheduler_chain_events_per_sec",
                           "wire_round_trips_per_sec",
                           "campaign_cells_per_sec",
                           "decomposition_cells_per_sec",
                           "analytic_predict_calls_per_sec",
                           "scenario_build_overhead_pct",
                           "obs_disabled_overhead_pct",
                           "sketch_observe_overhead_pct",
                           "checkpoint_overhead_pct",
                           "store_lookup_overhead_pct",
                           "cache_warm_speedup",
                           "lint_full_repo_seconds"}
    payload = {key: round(value, 1) for key, value in sorted(_rates.items())}
    payload["seed_baseline"] = _SEED_BASELINE
    payload["workload"] = {
        "scheduler_train_events": _TRAIN_EVENTS,
        "scheduler_chain_events": _CHAIN_EVENTS,
        "wire_round_trips": _WIRE_ROUND_TRIPS,
        "campaign_cells": _CAMPAIGN_CELLS,
        "decomposition_cells": _DECOMPOSITION_CELLS,
        "analytic_predict_calls": _ANALYTIC_CALLS,
        "sketch_observations": _SKETCH_OBSERVATIONS,
        "overhead_pairs": _OVERHEAD_PAIRS,
        "overhead_chain_events": _OVERHEAD_CHAIN_EVENTS,
        "store_probe_specs": 200,
        "cache_warm_cells": 50,
    }
    bench_path.write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")
    assert json.loads(bench_path.read_text())


@pytest.mark.perf_smoke
def test_smoke_bench_compare_gate(bench_path):
    """The regression gate itself: scripts/bench_compare.py must pass
    on the numbers just written (runs after the emit above)."""
    scripts = _REPO_ROOT / "scripts"
    if str(scripts) not in sys.path:
        sys.path.insert(0, str(scripts))
    import bench_compare

    assert bench_compare.main(["--bench", str(bench_path)]) == 0
