"""Exhaustive protocol model checking: coverage, verdicts, replay."""

import pytest

from repro.analysis.modelcheck import (
    CHECKER_RULES,
    CONFIGS,
    ModelConfig,
    explore,
    main,
    run_all,
    selfcheck,
)

#: Per-configuration floors measured at the saturated default depths;
#: regressions in reachable-state coverage fail here before CI's
#: aggregate --min-states/--min-transitions gate does.
_FLOORS = {
    "batch": (3, 12),
    "lazy": (13, 80),
    "rolling": (28, 196),
    "declared": (8, 52),
    "lazy-2dev": (32, 146),
}


def test_selfcheck_proves_every_rule_fires():
    assert selfcheck() == []


def test_selfcheck_covers_the_full_rule_list():
    # 16 rules, one synthetic minimal stream each — adding a checker rule
    # without a self-check stream fails here, not silently in CI.
    assert len(CHECKER_RULES) == 16
    assert len(set(CHECKER_RULES)) == len(CHECKER_RULES)


def test_configs_cover_all_four_protocols():
    assert {config.protocol for config in CONFIGS} == {
        "batch", "lazy", "rolling", "declared",
    }
    assert any(config.devices > 1 for config in CONFIGS)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.name)
def test_exploration_is_clean_and_covers_the_floor(config):
    result = explore(config)
    assert result.ok, "\n\n".join(
        counterexample.render()
        for counterexample in result.counterexamples
    )
    min_states, min_transitions = _FLOORS[config.name]
    assert result.states >= min_states
    assert result.transitions >= min_transitions


def test_depth_override_caps_the_search():
    base = CONFIGS[0]
    shallow = explore(ModelConfig(
        base.name, base.protocol, base.actions,
        base.protocol_options, base.devices, depth=1,
    ))
    assert shallow.ok
    assert shallow.transitions <= len(base.actions)


def test_run_all_explores_every_config():
    results = run_all(depth=2)
    assert [r.config.name for r in results] == [c.name for c in CONFIGS]
    assert all(r.ok for r in results)


def test_counterexamples_replay_from_the_event_stream():
    """A seeded protocol bug yields counterexamples that replay exactly."""
    from repro.core.blocks import BlockState
    from repro.core.protocols.lazy import LazyUpdate

    saved = LazyUpdate.pre_call

    def _pre_call_skip_flush(self, regions, written=None):
        # The lazy-lost-update seeded bug: release drops dirty blocks.
        for region in regions:
            self.manager.set_region_blocks(region, BlockState.INVALID)

    LazyUpdate.pre_call = _pre_call_skip_flush
    try:
        lazy = next(c for c in CONFIGS if c.name == "lazy")
        result = explore(ModelConfig(
            lazy.name, lazy.protocol, lazy.actions,
            lazy.protocol_options, lazy.devices, depth=3,
        ))
    finally:
        LazyUpdate.pre_call = saved
    assert not result.ok
    counterexample = result.counterexamples[0]
    assert counterexample.violations
    replayed = counterexample.replay()
    assert {v.rule for v in replayed} == {
        v.rule for v in counterexample.violations
    }
    rendered = counterexample.render()
    assert "counterexample [lazy]" in rendered
    assert "event stream:" in rendered


def test_main_enforces_floors(capsys):
    assert main(["--depth", "2", "--min-states", "10"]) == 0
    assert main(["--depth", "2", "--min-states", "1000000"]) == 1
    capsys.readouterr()
