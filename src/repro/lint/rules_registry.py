"""Registry-contract rule ``RL301``.

A registry entry that imports but cannot build is a landmine: it passes
``import repro`` yet detonates mid-campaign, possibly hours into a
sweep.  This is a :class:`~repro.lint.registry.ProjectRule` — it cannot
be expressed per file, so it builds every registered environment,
checks the :class:`~repro.testbed.environment.Environment` protocol,
attaches a phone, round-trips a :class:`ScenarioSpec`, and constructs
every registered tool on a live WiFi cell, exactly the contract the
scenario executor drives.  :func:`environment_problems` and
:func:`tool_problems` return the problems as plain strings.
"""

from repro.lint.registry import ProjectRule, register_rule

#: Attributes/methods the Environment protocol promises to every layer
#: above it (scenario build, campaign cells, CLI).
PROTOCOL_ATTRS = ("sim", "server_ip", "server_host", "attach_phone",
                  "settle", "run", "set_emulated_rtt", "observe",
                  "metrics_snapshot")

#: Where registry findings anchor in reports (the registries live here).
ENVIRONMENT_MODULE = "repro/testbed/environment.py"
SCENARIO_MODULE = "repro/testbed/scenario.py"


def environment_problems():
    """Build every registered environment; return problem strings."""
    from repro.testbed.environment import ENVIRONMENTS, build_environment
    from repro.testbed.scenario import ScenarioSpec

    problems = []
    for key, entry in sorted(ENVIRONMENTS.items()):
        if entry.builder is None:
            problems.append(f"environment {key!r}: builder is None")
            continue
        try:
            env = build_environment(key, seed=0)
        except Exception as exc:  # noqa: BLE001 - lint reports, not raises
            problems.append(f"environment {key!r}: build failed: {exc!r}")
            continue
        for attr in PROTOCOL_ATTRS:
            if not hasattr(env, attr):
                problems.append(
                    f"environment {key!r}: missing protocol attr {attr!r}")
        if env.key != key:
            problems.append(
                f"environment {key!r}: instance reports key {env.key!r}")
        if env.capabilities != entry.capabilities:
            problems.append(
                f"environment {key!r}: instance capabilities "
                f"{sorted(env.capabilities)} != registry "
                f"{sorted(entry.capabilities)}")
        try:
            env.attach_phone("nexus5")
        except Exception as exc:  # noqa: BLE001
            problems.append(
                f"environment {key!r}: attach_phone failed: {exc!r}")
        try:
            spec = ScenarioSpec(env=key)
            if ScenarioSpec.from_json(spec.to_json()) != spec:
                problems.append(
                    f"environment {key!r}: spec JSON round-trip not "
                    "equal")
        except Exception as exc:  # noqa: BLE001
            problems.append(
                f"environment {key!r}: spec round-trip failed: {exc!r}")
    return problems


def tool_problems():
    """Construct every registered tool on a WiFi cell; return problems."""
    from repro.core.measurement import ProbeCollector
    from repro.testbed.environment import build_environment
    from repro.testbed.scenario import TOOLS, ScenarioSpec

    problems = []
    env = build_environment("wifi", seed=0)
    phone = env.attach_phone("nexus5")
    collector = ProbeCollector(phone)
    for key, entry in sorted(TOOLS.items()):
        if entry.builder is None:
            problems.append(f"tool {key!r}: builder is None (register a "
                            "real builder; None placeholders are banned)")
            continue
        if entry.side not in ("phone", "server"):
            problems.append(f"tool {key!r}: unknown side {entry.side!r}")
        try:
            spec = ScenarioSpec(tool=key, count=1)
            if ScenarioSpec.from_json(spec.to_json()) != spec:
                problems.append(
                    f"tool {key!r}: spec JSON round-trip not equal")
        except Exception as exc:  # noqa: BLE001
            problems.append(f"tool {key!r}: spec round-trip failed: {exc!r}")
            continue
        try:
            tool = entry.build(spec, env, phone, collector)
        except Exception as exc:  # noqa: BLE001
            problems.append(f"tool {key!r}: builder failed: {exc!r}")
            continue
        if not callable(getattr(tool, "run_sync", None)):
            problems.append(
                f"tool {key!r}: built object has no run_sync()")
    return problems


@register_rule
class RegistryContractRule(ProjectRule):
    """RL301: every registered environment and tool must actually work."""

    id = "RL301"
    category = "registry"
    severity = "error"
    description = ("registered environment fails to build / violates the "
                   "Environment protocol, or registered tool has no "
                   "working builder — the contract the scenario executor "
                   "drives")

    def check(self, root):
        del root  # the registries are process-global, not tree-local
        findings = [self.finding(ENVIRONMENT_MODULE, 1, problem)
                    for problem in environment_problems()]
        findings += [self.finding(SCENARIO_MODULE, 1, problem)
                     for problem in tool_problems()]
        return findings
