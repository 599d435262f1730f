"""Detection-world generation invariants."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import AddressError, ConfigurationError
from repro.ixp.catalog import spec_by_acronym
from repro.sim.detection_world import (
    BehaviorRates,
    DetectionWorldConfig,
    build_detection_world,
    CONGESTED,
    NORMAL,
    STALE,
)
from tests.reference.views import ObjectWorld


class TestBehaviorRates:
    def test_defaults_valid(self):
        BehaviorRates()

    def test_rates_must_be_probabilities(self):
        with pytest.raises(ConfigurationError):
            BehaviorRates(blackhole=-0.1)

    def test_rates_must_sum_below_one(self):
        with pytest.raises(ConfigurationError):
            BehaviorRates(blackhole=0.5, os_change=0.5, stale=0.3)


class TestConfigValidation:
    @pytest.mark.parametrize("name,value", [
        ("second_interface_fraction", -1.0),
        ("second_interface_fraction", 1.5),
        ("far_metro_fraction", 2.0),
        ("far_metro_fraction", -0.01),
        ("short_remote_fraction", -0.5),
        ("short_remote_fraction", 1.01),
        ("target_scale", -1.0),
        ("target_scale", 0.0),
    ])
    def test_out_of_range_field_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            DetectionWorldConfig(**{name: value})

    def test_edges_accepted(self):
        config = DetectionWorldConfig(
            second_interface_fraction=0.0, far_metro_fraction=1.0,
            short_remote_fraction=1.0, target_scale=1e-9,
        )
        assert config.far_metro_fraction == 1.0


class TestLanBound:
    """Interface addresses fill the IXP's /22 after its looking glasses;
    the world keeps the allocator's bound and error.  The slot count
    depends on the seed's draws, so the edge is pinned at seed 3."""

    @staticmethod
    def torix(analyzed_interfaces: int) -> DetectionWorldConfig:
        spec = replace(
            spec_by_acronym("TorIX"), analyzed_interfaces=analyzed_interfaces
        )
        return DetectionWorldConfig(seed=3, specs=(spec,))

    def test_lan_filled_to_its_last_host(self):
        world = build_detection_world(self.torix(966))
        assert world.candidate_count() == 1021
        (entry,) = world.exchanges
        assert len(entry.vantages) + world.candidate_count() == (
            entry.lan.usable_hosts()
        )
        assert int(world.table.address.max()) == (
            entry.lan.network.value + entry.lan.usable_hosts()
        )

    def test_one_more_interface_overflows(self):
        with pytest.raises(
            AddressError,
            match=r"host index 1023 out of range for 193\.128\.0\.0/22",
        ):
            build_detection_world(self.torix(967))


class TestWorldStructure:
    def test_ixps_built(self, mini_views, mini_specs):
        assert set(mini_views.ixps) == {s.acronym for s in mini_specs}

    def test_lg_servers_match_spec(self, mini_views, mini_specs):
        for spec in mini_specs:
            operators = {s.operator for s in mini_views.lg_servers[spec.acronym]}
            expected = set()
            if spec.has_pch_lg:
                expected.add("PCH")
            if spec.has_ripe_lg:
                expected.add("RIPE")
            assert operators == expected

    def test_candidate_counts_near_spec(self, mini_views, mini_specs):
        for spec in mini_specs:
            count = sum(
                1 for key in mini_views.truth if key[0] == spec.acronym
            )
            assert count == pytest.approx(spec.analyzed_interfaces, rel=0.12)

    def test_remote_fraction_near_spec(self, mini_views, mini_specs):
        for spec in mini_specs:
            truths = [
                t for t in mini_views.truth.values()
                if t.ixp_acronym == spec.acronym
            ]
            remote = sum(1 for t in truths if t.is_remote)
            anchor_remotes = 2 if spec.acronym == "TorIX" else 0
            expected = spec.remote_fraction * len(truths)
            # Loose band: small IXPs and anchors add noise.
            assert remote <= expected + anchor_remotes + 8
            if spec.remote_fraction > 0:
                assert remote > 0

    def test_all_published_targets_have_truth(self, mini_views):
        for acr in mini_views.ixps:
            for record in mini_views.directory.targets_for(acr):
                truth = mini_views.truth_for(acr, record.address)
                assert truth.ixp_acronym == acr

    def test_stale_targets_not_on_lan(self, mini_views):
        for truth in mini_views.truth.values():
            ixp = mini_views.ixps[truth.ixp_acronym]
            if truth.behavior == STALE:
                assert not truth.on_lan
                assert not ixp.fabric.has_address(truth.address)
            else:
                assert ixp.fabric.has_address(truth.address)

    def test_ground_truth_direct_below_threshold(self, mini_views):
        """The paper's manual checks: no direct peer has min RTT >= 10 ms.
        Base RTTs of non-congested direct ports must sit below 10 ms."""
        for truth in mini_views.truth.values():
            if not truth.is_remote and truth.on_lan and truth.behavior == NORMAL:
                assert truth.base_rtt_ms < 10.0

    def test_remote_truth_matches_port_kind(self, mini_views):
        for truth in mini_views.truth.values():
            if not truth.on_lan:
                continue
            ixp = mini_views.ixps[truth.ixp_acronym]
            port = ixp.fabric.port_for(truth.address)
            assert port.is_remote == truth.is_remote

    def test_deterministic_rebuild(self, mini_specs):
        a, b = (
            ObjectWorld(build_detection_world(
                DetectionWorldConfig(seed=11, specs=mini_specs)))
            for _ in range(2)
        )
        assert set(a.truth) == set(b.truth)
        for key in a.truth:
            assert a.truth[key].base_rtt_ms == b.truth[key].base_rtt_ms

    def test_seed_changes_world(self, mini_views, mini_specs):
        other = ObjectWorld(build_detection_world(
            DetectionWorldConfig(seed=99, specs=mini_specs)
        ))
        assert set(other.truth) != set(mini_views.truth) or any(
            other.truth[k].base_rtt_ms != mini_views.truth[k].base_rtt_ms
            for k in other.truth if k in mini_views.truth
        )


class TestAnchors:
    def test_anchor_interfaces_present(self, mini_views):
        """TorIX carries the e4a-like anchor's remote interface."""
        anchors = [
            t for t in mini_views.truth.values()
            if t.ixp_acronym == "TorIX" and 64_600 <= t.asn < 64_650
        ]
        assert anchors
        assert any(t.is_remote for t in anchors)

    def test_anchors_can_be_disabled(self, mini_specs):
        world = ObjectWorld(build_detection_world(
            DetectionWorldConfig(seed=11, specs=mini_specs, with_anchors=False)
        ))
        anchors = [t for t in world.truth.values() if 64_600 <= t.asn < 64_650]
        assert not anchors


class TestRowChecks:
    """The builder checks its columns as the reference object model checks
    its objects: a bad value raises the constructor's own error."""

    @staticmethod
    def columns(world):
        from dataclasses import fields

        from repro.sim.detection_world import InterfaceTable

        return {
            f.name: getattr(world.table, f.name).copy()
            for f in fields(InterfaceTable)
        }

    @staticmethod
    def object_error(make) -> str:
        with pytest.raises(ConfigurationError) as caught:
            make()
        return str(caught.value)

    def test_bad_values_raise_the_object_errors(self, mini_world):
        from repro.sim.detection_world import ATTACH_STALE, _check_rows
        from tests.reference.objects import Device, OffLanTarget, PortProfile

        stale = int(np.flatnonzero(
            mini_world.table.attachment == ATTACH_STALE
        )[0])
        lan = int(np.flatnonzero(mini_world.table.on_lan)[0])
        device = Device(name="d")
        cases = [
            ("ttl_init", lan, 100,
             lambda: Device(name="d", ttl_init=100)),
            ("ttl_after", lan, 7, lambda: Device(
                name="d", ttl_after_change=7, os_change_time=1.0)),
            ("respond_prob", lan, 1.5,
             lambda: Device(name="d", respond_probability=1.5)),
            ("processing_ms", lan, -0.1,
             lambda: Device(name="d", processing_ms=-0.1)),
            ("tail_rtt_ms", lan, -1.0,
             lambda: PortProfile(tail_rtt_ms=-1.0)),
            ("offlan_rtt_ms", stale, -1.0,
             lambda: OffLanTarget(device=device, base_rtt_ms=-1.0)),
            ("offlan_hops", stale, 0, lambda: OffLanTarget(
                device=device, base_rtt_ms=1.0, extra_hops=0)),
        ]
        for column, row, value, make in cases:
            columns = self.columns(mini_world)
            columns[column][row] = value
            with pytest.raises(ConfigurationError) as caught:
                _check_rows(columns)
            assert str(caught.value) == self.object_error(make), column
        _check_rows(self.columns(mini_world))  # the built world is valid
