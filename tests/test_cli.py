"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main

FIXTURE = (pathlib.Path(__file__).resolve().parent / "data"
           / "lint_fixture.py")


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_global_options(self):
        args = build_parser().parse_args(["--seed", "7", "--count", "5",
                                          "phones"])
        assert args.seed == 7 and args.count == 5

    def test_compare_options(self):
        args = build_parser().parse_args(
            ["compare", "--phone", "nexus4", "--rtt", "60",
             "--cross-traffic"])
        assert args.phone == "nexus4"
        assert args.rtt == 60.0
        assert args.cross_traffic

    def test_unknown_phone_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--phone", "pixel"])

    def test_obs_options(self):
        args = build_parser().parse_args(
            ["obs", "--phone", "nexus4", "--rtt", "60", "--tool", "ping",
             "--out", "prefix"])
        assert args.phone == "nexus4"
        assert args.rtt == 60.0
        assert args.tool == "ping"
        assert args.out == "prefix"

    def test_campaign_metrics_out_option(self):
        args = build_parser().parse_args(
            ["campaign", "--metrics-out", "metrics.prom"])
        assert args.metrics_out == "metrics.prom"
        assert build_parser().parse_args(["campaign"]).metrics_out is None

    def test_campaign_env_option(self):
        args = build_parser().parse_args(
            ["campaign", "--env", "wifi", "cellular-lte"])
        assert args.env == ["wifi", "cellular-lte"]
        assert build_parser().parse_args(["campaign"]).env == ["wifi"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--env", "ethernet"])

    def test_campaign_resilience_options(self):
        args = build_parser().parse_args(
            ["campaign", "--checkpoint", "sweep.jsonl", "--resume",
             "--cell-timeout", "30", "--retries", "2",
             "--retry-backoff", "0.5"])
        assert args.checkpoint == "sweep.jsonl"
        assert args.resume
        assert args.cell_timeout == 30.0
        assert args.retries == 2
        assert args.retry_backoff == 0.5

    def test_campaign_resilience_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.checkpoint is None
        assert not args.resume
        assert args.cell_timeout is None
        assert args.retries == 0
        assert args.retry_backoff == 0.0

    def test_scenario_run_options(self):
        args = build_parser().parse_args(
            ["scenario", "run", "--env", "cellular-lte",
             "--tool", "acutemon", "--phone", "nexus4", "--rtt", "50",
             "--interval", "0.5", "--observe"])
        assert args.scenario_command == "run"
        assert args.env == "cellular-lte"
        assert args.tool == "acutemon"
        assert args.phone == "nexus4"
        assert args.rtt == 50.0
        assert args.interval == 0.5
        assert args.observe and not args.cross_traffic

    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_lint_options(self):
        args = build_parser().parse_args(
            ["lint", "src", "--format", "sarif", "--baseline", "b.json"])
        assert args.paths == ["src"]
        assert args.format == "sarif"
        assert args.baseline == "b.json"
        assert build_parser().parse_args(["lint"]).paths == []
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--format", "xml"])

    def test_campaign_fabric_options(self):
        args = build_parser().parse_args(
            ["campaign", "--shards", "4", "--store", "cache-dir"])
        assert args.shards == 4
        assert args.store == "cache-dir"
        defaults = build_parser().parse_args(["campaign"])
        assert defaults.shards is None and defaults.store is None

    def test_cache_options(self):
        args = build_parser().parse_args(
            ["cache", "stats", "--store", "cache-dir"])
        assert args.cache_command == "stats"
        assert args.store == "cache-dir"
        assert build_parser().parse_args(
            ["cache", "gc", "--store", "d"]).cache_command == "gc"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "stats"])  # --store required

    def test_scenario_rejects_unknown_env_and_tool(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "run", "--env",
                                       "ethernet"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "run", "--tool",
                                       "warpspeed"])


class TestCommands:
    def test_phones_lists_all_profiles(self, capsys):
        assert main(["phones"]) == 0
        out = capsys.readouterr().out
        for key in ("nexus5", "nexus4", "htc_one", "xperia_j",
                    "galaxy_grand"):
            assert key in out
        assert "BCM4339" in out

    def test_table3_runs_small(self, capsys):
        assert main(["--count", "5", "table3"]) == 0
        out = capsys.readouterr().out
        assert "dvsend" in out and "dvrecv" in out
        assert "Enabled" in out and "Disabled" in out

    def test_overheads_runs_small(self, capsys):
        assert main(["--count", "5", "overheads", "--phone", "nexus4"]) == 0
        out = capsys.readouterr().out
        assert "du_k" in out and "dk_n" in out

    def test_compare_runs_small(self, capsys):
        assert main(["--count", "5", "compare"]) == 0
        out = capsys.readouterr().out
        for tool in ("acutemon", "ping", "httping", "javaping"):
            assert tool in out

    def test_obs_prints_histograms_and_exports(self, capsys, tmp_path):
        prefix = tmp_path / "cell"
        assert main(["--count", "5", "obs", "--out", str(prefix)]) == 0
        out = capsys.readouterr().out
        assert "sdio_promotion_seconds" in out
        assert "psm_beacon_wait_seconds" in out
        assert "p50=" in out
        prom = (tmp_path / "cell.prom").read_text()
        assert "sdio_promotion_seconds_bucket" in prom
        assert (tmp_path / "cell.jsonl").read_text().strip()
        assert (tmp_path / "cell.trace.json").read_text().startswith("{")

    def test_campaign_metrics_out_writes_merged_snapshot(self, capsys,
                                                         tmp_path):
        path = tmp_path / "merged.prom"
        assert main(["--count", "4", "campaign", "--rtts", "20",
                     "--tools", "acutemon", "--metrics-out",
                     str(path)]) == 0
        out = capsys.readouterr().out
        assert "wrote merged metrics" in out
        text = path.read_text()
        assert "sdio_promotion_seconds_bucket" in text
        assert "psm_beacon_wait_seconds_bucket" in text

    def test_campaign_sweeps_environments(self, capsys):
        assert main(["--count", "3", "campaign", "--env", "wifi",
                     "cellular-lte", "--rtts", "20", "--tools",
                     "ping"]) == 0
        out = capsys.readouterr().out
        assert "over wifi" in out and "over cellular-lte" in out
        assert "Env" in out

    def test_campaign_checkpoint_and_resume(self, capsys, tmp_path):
        checkpoint = tmp_path / "sweep.ckpt.jsonl"
        base = ["--count", "3", "campaign", "--rtts", "20", "--tools",
                "ping", "--checkpoint", str(checkpoint)]
        assert main(base) == 0
        capsys.readouterr()
        assert checkpoint.read_text().strip()
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed 1 cell(s) from checkpoint" in out

    def test_campaign_resume_without_checkpoint_errors(self, capsys):
        assert main(["campaign", "--resume"]) == 2
        assert "--resume requires --checkpoint" \
            in capsys.readouterr().out

    def test_campaign_shards_and_workers_conflict(self, capsys):
        assert main(["campaign", "--shards", "2", "--workers", "4"]) == 2
        assert "mutually exclusive" in capsys.readouterr().out

    def test_campaign_store_cold_then_warm(self, capsys, tmp_path):
        store = tmp_path / "cache"
        base = ["--count", "3", "campaign", "--rtts", "20", "--tools",
                "ping", "--store", str(store)]
        assert main(base) == 0
        assert "store cache: 0 hit(s), 1 miss(es)" \
            in capsys.readouterr().out
        assert main(base) == 0
        assert "store cache: 1 hit(s), 0 miss(es)" \
            in capsys.readouterr().out

    def test_campaign_sharded_run_reports_shards(self, capsys):
        assert main(["--count", "3", "campaign", "--rtts", "20",
                     "--tools", "ping", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "shards: 1 dispatched, 0 stolen" in out
        assert "finished" in out

    def test_campaign_quarantined_cells_exit_nonzero(self, capsys,
                                                     monkeypatch):
        from tests.chaos import ChaosInjector
        # The single grid cell has seed 0 (base seed 0, index 0).
        ChaosInjector(always_fail={0}).install(monkeypatch)
        assert main(["--count", "3", "campaign", "--rtts", "20",
                     "--tools", "ping", "--retries", "1"]) == 1
        assert "Quarantined cells" in capsys.readouterr().out

    def test_cache_stats_and_gc(self, capsys, tmp_path):
        store = tmp_path / "cache"
        assert main(["--count", "3", "campaign", "--rtts", "20",
                     "--tools", "ping", "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "1 live cell(s)" in out
        assert "1 record(s) in 1 segment(s)" in out
        assert main(["cache", "gc", "--store", str(store)]) == 0
        assert "gc: kept 1 live cell(s), removed 1 segment(s), " \
            "dropped 0 stale or superseded record(s)" \
            in capsys.readouterr().out

    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for key in ("wifi", "cellular-3g", "cellular-lte"):
            assert key in out
        for tool in ("acutemon", "ping2", "mobiperf"):
            assert tool in out
        assert "nexus5" in out

    def test_scenario_run_cellular_acutemon(self, capsys):
        assert main(["--count", "4", "scenario", "run", "--env",
                     "cellular-lte", "--tool", "acutemon"]) == 0
        out = capsys.readouterr().out
        assert "cellular-lte" in out
        assert "probes: 4" in out
        assert "user RTT" in out

    def test_lint_clean_on_package_source(self, capsys):
        assert main(["lint"]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_lint_fixture_fails_with_expected_rules(self, capsys):
        assert main(["lint", str(FIXTURE), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert {row["rule"] for row in doc["findings"]} == {
            "RL001", "RL002", "RL101", "RL102", "RL103", "RL104",
            "RL105", "RL106", "RL107", "RL201", "RL202", "RL203",
        }

    def test_lint_update_baseline_round_trip(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(FIXTURE), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert "wrote baseline" in capsys.readouterr().out
        assert main(["lint", str(FIXTURE), "--baseline",
                     str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "lint clean" in out and "23 baselined" in out

    def test_lint_update_baseline_requires_path(self, capsys):
        assert main(["lint", str(FIXTURE), "--update-baseline"]) == 2

    def test_scenario_spec_save_and_load(self, capsys, tmp_path):
        spec_path = tmp_path / "cell.json"
        assert main(["--count", "3", "scenario", "run", "--tool", "ping",
                     "--interval", "0.05", "--save-spec",
                     str(spec_path)]) == 0
        first = capsys.readouterr().out
        assert "saved spec to" in first
        assert main(["scenario", "run", "--spec", str(spec_path)]) == 0
        second = capsys.readouterr().out
        # Same spec, same seed: the reported medians agree exactly.
        assert first.splitlines()[-2:] == second.splitlines()[-2:]
