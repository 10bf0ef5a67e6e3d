"""Golden cell corpus: pinned model output across code changes.

Every bit-identity test elsewhere compares execution modes with each
other (serial == workers == shards == resume).  This module compares
against *pinned* output: ``tests/data/golden_cells.json`` holds the
canonical ``CellResult.to_dict()`` of a fixed set of cells, and a cell
whose output drifts fails with a field-level diff.

The corpus covers

* the grid 3 phones x 5 tools x 2 RTTs at 30 probes,
* three cross-traffic cells,
* one ``bus_sleep=False`` cell (the parked-watchdog path),
* ``cellular-lte`` and ``wifi-twt`` cells (RRC, PSM and TWT timers),
* one server-side ``ping2`` cell,
* one observed cell per environment (``scheduler_*`` metric entries,
  which count events rather than describe the model, are dropped), and
* ``wired-burst``: several frames queued behind one busy Ethernet
  transmitter.  No scenario spec drives a wired port that hard (every
  wired link runs at 1 Gbps behind a slower radio), so this entry is a
  two-host LAN with a segmented TCP send and a UDP burst.

A deliberate model change rewrites the file with
``PYTHONPATH=src python -m pytest tests/test_golden_cells.py
--update-golden`` and says so in CHANGES.md.
"""

import hashlib
import json
import pathlib

import pytest

from repro.net.addresses import MacAddress, ip
from repro.net.arp import ArpTable
from repro.net.host import Host
from repro.net.link import Link
from repro.net.switch import Switch
from repro.sim.scheduler import Simulator
from repro.testbed.campaign import run_cell
from repro.testbed.scenario import ScenarioSpec

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_cells.json"

GRID_PHONES = ("nexus5", "nexus4", "xperia_j")
GRID_TOOLS = ("acutemon", "ping", "httping", "javaping", "mobiperf")
GRID_RTTS = (0.020, 0.050)
GRID_PROBES = 30
#: Per-tool probe counts under cross traffic; every simulated second
#: under iperf load is expensive, so the per-probe-wake tools send few.
CROSS_PROBES = {"acutemon": 30, "ping": 3, "httping": 3}
OBSERVED_ENVS = ("wifi", "wifi-twt", "wifi-predictive-sleep",
                 "cellular-lte", "cellular-3g")
OBSERVED_PROBES = 10
#: Metric families that count scheduler events, not model behaviour.
UNPINNED_METRIC_PREFIX = "scheduler_"


def _cells():
    """``(name, spec, observed)`` for every spec-driven corpus entry."""
    cells = []
    for phone in GRID_PHONES:
        for tool in GRID_TOOLS:
            for rtt in GRID_RTTS:
                cells.append((f"grid/{phone}/{tool}/{round(rtt * 1e3)}ms",
                              dict(phone=phone, tool=tool, emulated_rtt=rtt,
                                   count=GRID_PROBES), False))
    for tool, count in CROSS_PROBES.items():
        cells.append((f"cross/nexus5/{tool}/30ms",
                      dict(tool=tool, count=count, cross_traffic=True),
                      False))
    cells.append(("no-bus-sleep/nexus5/ping/30ms",
                  dict(tool="ping", count=GRID_PROBES, bus_sleep=False),
                  False))
    cells.append(("cellular-lte/nexus5/ping/30ms",
                  dict(env="cellular-lte", tool="ping", count=GRID_PROBES),
                  False))
    cells.append(("wifi-twt/nexus5/ping/30ms",
                  dict(env="wifi-twt", tool="ping", count=GRID_PROBES),
                  False))
    cells.append(("ping2/nexus5/30ms",
                  dict(tool="ping2", count=GRID_PROBES), False))
    for env in OBSERVED_ENVS:
        cells.append((f"observed/{env}/ping/30ms",
                      dict(env=env, tool="ping", count=OBSERVED_PROBES),
                      True))
    return [(name, ScenarioSpec(seed=1000 + index, **fields), observed)
            for index, (name, fields, observed) in enumerate(cells)]


CELLS = _cells()
WIRED_BURST = "wired-burst"
NAMES = [name for name, _spec, _observed in CELLS] + [WIRED_BURST]


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload):
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def _run_spec(spec, observed):
    result = run_cell(spec, collect_metrics=observed).to_dict()
    if observed:
        result["metrics"] = {"metrics": [
            entry for entry in result["metrics"]["metrics"]
            if not entry["name"].startswith(UNPINNED_METRIC_PREFIX)]}
    return result


def _run_wired_burst():
    """Two hosts on a switch; frames pile up behind ``a``'s transmitter.

    Returns every frame crossing ``a``'s port and ``b``'s port, in
    order, with its time and size, plus the TCP chunks ``b`` read.
    """
    sim = Simulator(seed=5)
    arp = ArpTable()
    switch = Switch(sim)
    frames = []

    def add_host(name, addr, index):
        host = Host(sim, name, ip(addr), MacAddress.from_index(index), arp,
                    rng=sim.rng.stream(f"golden:{name}"))
        link = Link(sim, name=f"{name}-sw")
        host.nic.attach_link(link)
        switch.new_port(link)
        host.nic.add_tap(lambda frame, direction: frames.append(
            [name, direction, sim.now, frame.wire_size]))
        return host

    a = add_host("a", "10.0.0.1", 1)
    b = add_host("b", "10.0.0.2", 2)
    chunks = []
    b.stack.tcp.listen(80, lambda conn: setattr(
        conn, "on_data", lambda c, n, m: chunks.append([sim.now, n])))
    client = a.stack.tcp.connect(b.ip_addr, 80)
    sim.run(until=0.5)
    client.send(9000)
    for size in (1400, 60, 900, 1400, 200):
        a.stack.send_udp(b.ip_addr, 9, src_port=4000, payload_size=size)
    sim.run(until=1.0)
    return {"frames": frames, "chunks": chunks}


def _run_entry(name):
    if name == WIRED_BURST:
        return _run_wired_burst()
    for cell_name, spec, observed in CELLS:
        if cell_name == name:
            return _run_spec(spec, observed)
    raise KeyError(name)


def _entry(name):
    spec = next((spec.to_dict() for cell_name, spec, _observed in CELLS
                 if cell_name == name), None)
    result = _run_entry(name)
    return {"name": name, "spec": spec, "digest": _digest(result),
            "result": result}


def write_corpus(path=GOLDEN_PATH):
    """Regenerate the corpus: one JSON object per line, one per entry."""
    lines = [_canonical(_entry(name)) for name in NAMES]
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")


def _flatten(value, prefix=""):
    """``{path: leaf}`` with lists indexed and dicts dotted."""
    if isinstance(value, dict):
        out = {}
        for key in sorted(value):
            out.update(_flatten(value[key], f"{prefix}.{key}" if prefix
                                else str(key)))
        return out
    if isinstance(value, list):
        out = {}
        for index, item in enumerate(value):
            out.update(_flatten(item, f"{prefix}[{index}]"))
        if not value:
            out[prefix] = []
        return out
    return {prefix: value}


def field_diff(expected, actual, limit=25):
    """Human-readable field-level differences, at most ``limit`` lines."""
    want, got = _flatten(expected), _flatten(actual)
    lines = []
    for path in sorted(set(want) | set(got)):
        old, new = want.get(path, "<absent>"), got.get(path, "<absent>")
        if old != new:
            lines.append(f"  {path}: expected {old!r}, got {new!r}")
    if len(lines) > limit:
        lines = lines[:limit] + [f"  ... {len(lines) - limit} more"]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def golden(request):
    if request.config.getoption("--update-golden", default=False):
        write_corpus()
    entries = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return {entry["name"]: entry for entry in entries}


def test_corpus_lists_exactly_the_defined_entries(golden):
    assert list(golden) == NAMES
    for name, spec, _observed in CELLS:
        assert golden[name]["spec"] == spec.to_dict(), name


@pytest.mark.parametrize("name", NAMES)
def test_cell_matches_golden(golden, name):
    entry = golden[name]
    result = _run_entry(name)
    if _digest(result) != entry["digest"]:
        pytest.fail(f"{name} drifted from tests/data/golden_cells.json:\n"
                    + field_diff(entry["result"], result), pytrace=False)


def test_stored_digests_match_stored_results(golden):
    for name, entry in golden.items():
        assert _digest(entry["result"]) == entry["digest"], name


def test_wired_burst_queues_behind_a_busy_transmitter(golden):
    """The entry really exercises a backlog: back-to-back departures."""
    departures = [(t, size) for host, direction, t, size
                  in golden[WIRED_BURST]["result"]["frames"]
                  if host == "a" and direction == "tx"]
    serialization = [size * 8 / 1e9 for _t, size in departures]
    back_to_back = sum(
        1 for (t0, _s), (t1, _s1), tx in zip(departures, departures[1:],
                                              serialization)
        if abs(t1 - (t0 + tx)) < 1e-12)
    assert back_to_back >= 3


def test_field_diff_names_the_changed_leaf():
    diff = field_diff({"rtts": [1.0, 2.0], "layers": {"dn": [3.0]}},
                      {"rtts": [1.0, 2.5], "layers": {"dn": [3.0]}})
    assert diff == "  rtts[1]: expected 2.0, got 2.5"
