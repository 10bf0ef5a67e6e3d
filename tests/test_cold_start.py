"""Cold start: scipy and numpy load at first use, never with ``repro``.

``import scipy.stats`` and ``import numpy`` once made up most of a fresh
process's start-up time, though no cell, campaign, report or CLI path
uses them.  The guard below runs those paths in a fresh interpreter and
checks that neither library was imported; the value tests pin that the
late loads compute exactly what the eager imports did.
"""

import importlib.util
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.analysis import stats
from repro.analysis.compare import ks_test
from repro.analysis.stats import mean_ci
from repro.net.checksum import internet_checksum, internet_checksum_batch

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_GUARD = """
import json, sys
import repro, repro.cli, repro.testbed.campaign, repro.analysis.decompose
from repro.analysis.decompose import decompose_campaign, render_report
from repro.testbed.campaign import Campaign, run_cell
from repro.testbed.scenario import ScenarioSpec

def heavy():
    return sorted(name for name in sys.modules
                  if name.partition(".")[0] in ("scipy", "numpy"))

cell = run_cell(ScenarioSpec(env="wifi", phone="nexus5", tool="acutemon",
                             emulated_rtt=0.02, count=3, seed=7))
assert len(cell.rtts) == 3
campaign = Campaign(phones=("nexus5",), rtts=(0.02, 0.05), tools=("ping",),
                    count=3)
campaign.run(workers=1, collect_metrics=True)
assert len(campaign.results) == 2
report = decompose_campaign(campaign)
for fmt in ("text", "json", "prom"):
    assert render_report(report, fmt)
loaded = heavy()

from repro.net.checksum import internet_checksum, internet_checksum_batch
blobs = [bytes(range(n % 256)) * 3 for n in range(40)]
batch_ok = (internet_checksum_batch(blobs)
            == [internet_checksum(blob) for blob in blobs])
print(json.dumps({"loaded": loaded, "batch_ok": batch_ok,
                  "numpy_after": "numpy" in sys.modules}))
"""


def test_repro_paths_never_import_scipy_or_numpy():
    done = subprocess.run(
        [sys.executable, "-c", _GUARD], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(_SRC)},
        check=False)
    assert done.returncode == 0, done.stderr
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    assert outcome["loaded"] == []
    # The batch checksum loads numpy on its first call, and agrees with
    # the scalar checksum once it has.
    assert outcome["batch_ok"]
    assert outcome["numpy_after"] is (
        importlib.util.find_spec("numpy") is not None)


def _sem(values):
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return math.sqrt(variance / n)


@pytest.fixture
def without_scipy(monkeypatch):
    """The loader as it behaves on an install without scipy."""
    monkeypatch.setitem(sys.modules, "scipy", None)
    stats.scipy_stats.cache_clear()
    yield
    stats.scipy_stats.cache_clear()


class TestScipyLoader:
    values = [3.1, 2.7, 4.4, 3.9, 3.0, 2.2, 5.1]

    def test_mean_ci_is_the_scipy_t_quantile_exactly(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        n = len(self.values)
        _mean, half = mean_ci(self.values)
        assert half == float(scipy_stats.t.ppf(0.975, n - 1)) * _sem(self.values)
        _mean, half = mean_ci(self.values, confidence=0.9)
        assert half == float(scipy_stats.t.ppf(0.95, n - 1)) * _sem(self.values)

    def test_loader_is_cached(self):
        assert stats.scipy_stats() is stats.scipy_stats()

    def test_ks_p_value_is_scipy_ks_2samp(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = random.Random(3)
        a = [rng.gauss(0, 1) for _ in range(120)]
        b = [rng.gauss(0.3, 1) for _ in range(90)]
        expected = scipy_stats.ks_2samp(a, b)
        assert ks_test(a, b) == (float(expected.statistic),
                                 float(expected.pvalue))

    def test_fallback_without_scipy(self, without_scipy):
        assert stats.scipy_stats() is None
        _mean, half = mean_ci(self.values)
        # The Cornish-Fisher approximation of t(0.975, df=6), not the
        # exact 2.44691 scipy gives.
        assert half / _sem(self.values) == pytest.approx(2.43374, abs=1e-5)
        with pytest.raises(ValueError, match="require scipy"):
            mean_ci(self.values, confidence=0.9)
        statistic, p_value = ks_test([1.0, 2.0], [1.5, 3.0])
        assert p_value is None and statistic == 0.5


class TestChecksumBatch:
    blobs = [b"", b"\x01", b"\x45\x00\x00\x1c", bytearray(b"abc"),
             memoryview(b"\xff\xff\xff"), bytes(range(256)) * 3,
             bytes(range(255))]

    def test_matches_scalar(self):
        assert internet_checksum_batch(self.blobs) == [
            internet_checksum(blob) for blob in self.blobs]

    def test_fallback_without_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert internet_checksum_batch(self.blobs) == [
            internet_checksum(blob) for blob in self.blobs]

    def test_empty(self):
        assert internet_checksum_batch([]) == []
