"""Topology knobs in :class:`RunSpec`: normalization, keying, building."""

import pytest

from repro.experiments.spec import RunSpec


def make(**kwargs):
    kwargs.setdefault("workload", "vecadd")
    kwargs.setdefault("params", dict(elements=1024))
    return RunSpec.make(**kwargs)


class TestNormalization:
    def test_single_device_is_the_default(self):
        spec = make()
        assert spec.devices == 1
        assert spec.link_specs == ()
        assert spec.placement == "-"

    def test_multi_device_defaults_to_round_robin(self):
        spec = make(devices=3)
        assert spec.devices == 3
        assert spec.placement == "round-robin"

    def test_devices_one_collapses_topology_knobs(self):
        spec = make(devices=1, link_specs=["pcie2x16"], placement="custom")
        assert spec.link_specs == ()
        assert spec.placement == "-"
        assert spec.key() == make(devices=1).key()

    def test_non_gmac_mode_collapses_devices(self):
        spec = make(mode="cuda", devices=3, placement="custom")
        assert spec.devices == 1
        assert spec.placement == "-"
        assert spec.key() == make(mode="cuda").key()

    def test_unknown_link_preset_rejected(self):
        with pytest.raises(KeyError):
            make(devices=2, link_specs=["pcie2x16", "carrier-pigeon"])

    def test_link_spec_count_must_match_devices(self):
        with pytest.raises(ValueError):
            make(devices=3, link_specs=["pcie2x16", "qpi"])

    def test_integrated_machine_cannot_be_multi_device(self):
        with pytest.raises(ValueError):
            make(devices=2, machine="integrated")

    def test_devices_below_one_rejected(self):
        with pytest.raises(ValueError):
            make(devices=0)


class TestKeying:
    """Satellite: device topology must be part of the cache identity."""

    def test_key_contains_topology_fields(self):
        spec = make(devices=3, link_specs=["pcie2x16", "qpi", "qpi"],
                    placement="custom")
        key = spec.key()
        for fragment in ('"devices": 3', '"placement": "custom"', "qpi"):
            assert fragment in key

    def test_device_count_changes_the_key(self):
        assert make(devices=2).key() != make(devices=3).key()

    def test_placement_changes_the_key(self):
        assert (make(devices=3).key()
                != make(devices=3, placement="custom").key())

    def test_link_specs_change_the_key(self):
        symmetric = make(devices=2)
        asymmetric = make(devices=2, link_specs=["pcie2x16", "qpi"])
        assert symmetric.key() != asymmetric.key()


class TestBuilding:
    def test_multi_device_spec_builds_a_multi_device_machine(self):
        machine = make(devices=3)._build_machine()
        assert machine.multi_device
        assert len(machine.gpus) == 3

    def test_link_preset_names_resolve_to_specs(self):
        from repro.hw.specs import PCIE_2_0_X16, QPI

        machine = make(
            devices=2, link_specs=["pcie2x16", "qpi"]
        )._build_machine()
        assert [link.spec for link in machine.links] == [PCIE_2_0_X16, QPI]

    def test_multi_device_outcome_reports_peer_traffic(self):
        outcome = make(devices=3, layer="driver").execute()
        assert outcome.verified
        assert outcome.peer_bytes > 0
        assert sum(outcome.link_bytes_moved.values()) > 0

    def test_single_device_matches_legacy_reference_run(self):
        multi_off = make(devices=1).execute()
        legacy = RunSpec.make(
            workload="vecadd", params=dict(elements=1024)
        ).execute()
        assert multi_off.elapsed == legacy.elapsed
        assert multi_off.breakdown == legacy.breakdown
        assert multi_off.bytes_to_accelerator == legacy.bytes_to_accelerator
