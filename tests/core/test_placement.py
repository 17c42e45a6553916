"""Placement policies: deterministic choice, liveness, survivor picking."""

import pytest

from repro.util.errors import GmacError
from repro.util.units import MB
from repro.hw.machine import multi_device_system
from repro.core.placement import PLACEMENTS, PlacementPolicy, RoundRobin


@pytest.fixture
def multi_machine():
    return multi_device_system(devices=3)


class TestRoundRobin:
    def test_cycles_over_alive_devices(self, multi_machine):
        policy = RoundRobin(multi_machine)
        assert [policy.place(MB) for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_skips_dead_devices(self, multi_machine):
        policy = RoundRobin(multi_machine)
        policy.mark_dead(1)
        assert [policy.place(MB) for _ in range(4)] == [0, 2, 0, 2]

    def test_readmitted_device_rejoins_rotation(self, multi_machine):
        policy = RoundRobin(multi_machine)
        policy.mark_dead(0)
        policy.place(MB)
        policy.mark_alive(0)
        assert 0 in [policy.place(MB) for _ in range(3)]

    def test_no_alive_device_raises(self, multi_machine):
        policy = RoundRobin(multi_machine)
        for device in range(3):
            policy.mark_dead(device)
        with pytest.raises(GmacError):
            policy.place(MB)


class TestSurvivors:
    def test_survivor_excludes_the_lost_device(self, multi_machine):
        policy = RoundRobin(multi_machine)
        policy.mark_dead(1)
        for _ in range(4):
            assert policy.pick_survivor(1, MB) in (0, 2)

    def test_no_survivor_returns_none(self, multi_machine):
        policy = RoundRobin(multi_machine)
        policy.mark_dead(0)
        policy.mark_dead(2)
        assert policy.pick_survivor(1, MB) is None


class TestRegistryAndWiring:
    def test_registry_names(self):
        assert PLACEMENTS["round-robin"] is RoundRobin
        for cls in PLACEMENTS.values():
            assert issubclass(cls, PlacementPolicy)

    def test_gmac_resolves_policy_by_name(self, multi_machine):
        from repro.workloads.base import Application

        gmac = Application(multi_machine).gmac(
            protocol="rolling", layer="driver", placement="round-robin"
        )
        assert isinstance(gmac.placement, RoundRobin)
        assert gmac.manager.placement is gmac.placement

    def test_unknown_policy_name_raises(self, multi_machine):
        from repro.workloads.base import Application

        with pytest.raises(GmacError):
            Application(multi_machine).gmac(
                protocol="rolling", placement="nope"
            )

    def test_policy_needs_a_multi_device_machine(self, machine, app):
        policy = RoundRobin(machine)
        with pytest.raises(GmacError):
            app.gmac(protocol="rolling", placement=policy)
