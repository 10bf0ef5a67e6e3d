"""Tests for the benchmark's own output checks.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import argparse
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run as bench  # noqa: E402  (needs the paths above)
import workloads as wl  # noqa: E402
from repro.testbed.campaign import Campaign  # noqa: E402
from repro.testbed.store import ResultStore  # noqa: E402

GRID = {"phones": ("nexus5",), "rtts": (0.020,),
        "tools": ("ping", "acutemon"), "count": 2}


def tiny_round(seed, round_index, spec_type=wl.ScenarioSpec):
    return [spec_type(tool="ping", count=3,
                      seed=wl.cell_seed(seed, round_index, index))
            for index in range(2)]


def run_tiny(monkeypatch, tmp_path, seed=1):
    monkeypatch.setitem(wl.CELL_ROUNDS, "paper_cells", tiny_round)
    args = argparse.Namespace(workload="paper_cells", seed=seed,
                              seconds=0.001)
    return bench.run_untraced(wl, args, tmp_path)


def test_cell_with_too_few_samples_counts_as_failed(monkeypatch, tmp_path):
    _, attempted, failed, _ = run_tiny(monkeypatch, tmp_path)
    assert (attempted, failed) == (2, 0)

    real = wl.run_cell

    def drop_last_sample(spec):
        result = real(spec)
        result.rtts = result.rtts[:-1]
        return result

    monkeypatch.setattr(wl, "run_cell", drop_last_sample)
    _, attempted, failed, record = run_tiny(monkeypatch, tmp_path)
    assert (attempted, failed) == (2, 2)
    assert record["failures"][0].endswith("2 of 3 samples")


def test_warm_pass_that_executes_a_cell_fails_the_warm_check(tmp_path):
    cold = Campaign(**GRID)
    cold.run(store=tmp_path / "full", collect_metrics=True)
    warm = Campaign(**GRID)
    warm.run(store=tmp_path / "full", collect_metrics=True)
    assert wl.check_warm(cold.results, warm.results,
                         warm.run_metrics) == (0, [])

    # A store missing the first cell makes the warm pass execute it.
    with ResultStore(tmp_path / "partial") as partial:
        for spec, result in list(zip(cold.cells(), cold.results))[1:]:
            partial.put(spec.fingerprint(), result)
    warm = Campaign(**GRID)
    warm.run(store=tmp_path / "partial", collect_metrics=True)
    failed, reasons = wl.check_warm(cold.results, warm.results,
                                    warm.run_metrics)
    assert failed == 1
    assert reasons == ["warm pass hit the store 1 of 2 times"]


def test_same_seed_gives_the_same_digest(monkeypatch, tmp_path):
    first = run_tiny(monkeypatch, tmp_path, seed=3)[3]["digest"]
    assert run_tiny(monkeypatch, tmp_path, seed=3)[3]["digest"] == first
    assert run_tiny(monkeypatch, tmp_path, seed=4)[3]["digest"] != first

    cycles = [wl.campaign_cycle(3, 0, tmp_path) for _ in range(2)]
    assert [cycle["failed"] for cycle in cycles] == [0, 0]
    assert (wl.digest(cycles[0]["results"])
            == wl.digest(cycles[1]["results"]))
