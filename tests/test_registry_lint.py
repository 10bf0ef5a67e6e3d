"""Tier-1 wiring for the registry-contract lint rule ``RL301``.

The rule builds every registered environment, checks the
:class:`~repro.testbed.environment.Environment` protocol surface,
and constructs every registered tool — so a registry entry that would
detonate mid-campaign fails the suite instead.
"""

import pathlib

from repro.cli import main as cli_main
from repro.lint import RULES, run_lint
from repro.lint.rules_registry import environment_problems, tool_problems

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_registries_are_clean():
    findings = RULES["RL301"].check(SRC)
    problems = [finding.message for finding in findings]
    assert not problems, "registry problems:\n" + "\n".join(problems)


def test_main_exit_code_clean(capsys):
    # Without explicit paths ``repro lint`` runs the registry rule.
    assert cli_main(["lint"]) == 0
    assert "RL301" in capsys.readouterr().out


def test_lint_rejects_none_builder(monkeypatch):
    from repro.testbed import scenario

    monkeypatch.setitem(
        scenario.TOOLS, "broken",
        scenario.ToolEntry("broken", None, "phone", "placeholder"))
    problems = tool_problems()
    assert any("broken" in p and "None" in p for p in problems)
    result = run_lint(SRC, rules=[RULES["RL301"]])
    assert result.exit_code == 1
    assert any("broken" in f.message for f in result.findings)


def test_lint_rejects_unbuildable_environment(monkeypatch):
    from repro.testbed import environment

    def explode(seed=0, emulated_rtt=0.0, **params):
        raise RuntimeError("boom")

    monkeypatch.setitem(
        environment.ENVIRONMENTS, "exploding",
        environment.EnvironmentEntry("exploding", explode, "bad",
                                     frozenset()))
    problems = environment_problems()
    assert any("exploding" in p and "build failed" in p for p in problems)
