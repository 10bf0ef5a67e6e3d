"""The codebase itself passes its own lint (tier-1 acceptance gate).

``repro lint`` and ``scripts/lint_all.py`` must report zero
non-baselined findings on ``src/``, and the only in-tree suppressions
must be the two documented wall-clock reads in the observed scheduler
path.
"""

import importlib.util
import pathlib

from repro.cli import main as cli_main
from repro.lint import RULES, run_lint

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_tree_lints_clean():
    result = run_lint(SRC)
    formatted = "\n".join(f.describe() for f in result.findings)
    assert not result.findings, f"lint findings on src/:\n{formatted}"
    assert result.files_scanned > 90


def test_only_documented_suppressions():
    """Pragma suppressions must not accrete silently: the only in-tree
    ones are the scheduler's two volatile wall-clock self-time reads."""
    result = run_lint(SRC)
    suppressed = sorted((f.path, f.rule_id) for f in result.suppressed)
    assert suppressed == [("repro/sim/scheduler.py", "RL101")] * 2


def test_cli_lint_exit_code_and_output(capsys):
    assert cli_main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "lint clean" in out
    assert "RL301" in out  # the registry project rule ran


def test_lint_all_runner_clean(capsys):
    runner = _load_script("lint_all")
    assert runner.main([]) == 0
    out = capsys.readouterr().out
    assert "lint clean" in out
    assert "RL301" in out  # the registry project rule ran


def test_obs_rules_flag_seeded_violations(tmp_path):
    """RL001/RL002 on an ad-hoc tree: the pragma is recognised with
    flexible whitespace and trailing text, and a seeded tree fails."""
    bad = tmp_path / "pkg" / "module.py"
    bad.parent.mkdir()
    bad.write_text(
        "def f(sim):\n"
        "    sim.trace.record(sim.now, 'x', 'unguarded')\n"
        "    sim.metrics.inc('y_total')  #obs:caller-guarded (see caller)\n"
        "    x = 1  # obs: caller-guarded\n",
        encoding="utf-8")
    result = run_lint(tmp_path, rules=[RULES["RL001"], RULES["RL002"]],
                      include_project_rules=False)
    # Line 2 is unguarded; line 3's flexible pragma counts; line 4's
    # pragma is unused and flagged so suppressions cannot rot.
    assert [(f.line, f.rule_id) for f in result.findings] \
        == [(2, "RL001"), (4, "RL002")]
    assert result.exit_code == 1
