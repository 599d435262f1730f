"""Peer-group construction: exclusions and policy slicing."""

import pytest

from repro.core.offload.peergroups import (
    ALL_GROUPS,
    GROUP_LABELS,
    TOP_SELECTIVE_COUNT,
    PeerGroups,
)
from repro.errors import ConfigurationError
from repro.types import PeeringPolicy


class TestExclusions:
    def test_transit_providers_excluded(self, small_offload_world, small_groups):
        for provider in small_offload_world.transit_providers:
            assert provider not in small_groups.candidates

    def test_rediris_excluded(self, small_offload_world, small_groups):
        assert small_offload_world.rediris not in small_groups.candidates

    def test_home_ixp_members_excluded(self, small_offload_world, small_groups):
        home = (
            small_offload_world.memberships["CATNIX"]
            | small_offload_world.memberships["ESpanix"]
        )
        assert home.isdisjoint(small_groups.candidates)

    def test_all_tier1s_excluded(self, small_offload_world, small_groups):
        """Every tier-1 sits at ESpanix, so none survives the exclusion."""
        assert set(small_offload_world.tier1s).isdisjoint(
            small_groups.candidates
        )

    def test_geant_club_excluded(self, small_offload_world, small_groups):
        assert small_offload_world.geant not in small_groups.candidates
        assert set(small_offload_world.nrens).isdisjoint(
            small_groups.candidates
        )

    def test_candidates_are_ixp_members(self, small_offload_world, small_groups):
        union = set()
        for members in small_offload_world.memberships.values():
            union |= members
        assert small_groups.candidates <= union

    def test_rule_switches_widen_candidates(self, small_offload_world,
                                            small_groups):
        """Disabling any exclusion rule can only add candidates."""
        for kwargs in (
            {"exclude_transit_providers": False},
            {"exclude_home_ixp_members": False},
            {"exclude_geant_club": False},
        ):
            widened = PeerGroups.build(small_offload_world, **kwargs)
            assert small_groups.candidates <= widened.candidates

    def test_home_rule_readmits_tier1s(self, small_offload_world):
        widened = PeerGroups.build(
            small_offload_world, exclude_home_ixp_members=False
        )
        readmitted = set(small_offload_world.tier1s) & widened.candidates
        # Tier-1s sit at ESpanix; dropping rule 2 readmits those that are
        # not also the studied network's own providers (rule 1).
        providers = set(small_offload_world.transit_providers)
        assert readmitted == set(small_offload_world.tier1s) - providers


class TestGroups:
    def test_group_nesting(self, small_groups):
        """Paper nesting: group 1 ⊆ group 2 ⊆ group 3 ⊆ group 4."""
        g1 = small_groups.group_members(1)
        g2 = small_groups.group_members(2)
        g3 = small_groups.group_members(3)
        g4 = small_groups.group_members(4)
        assert g1 <= g2 <= g3 <= g4 == small_groups.candidates

    def test_group1_is_open_only(self, small_offload_world, small_groups):
        for asn in small_groups.group_members(1):
            assert small_offload_world.policy_of(asn) is PeeringPolicy.OPEN

    def test_group2_adds_at_most_10_selective(self, small_groups):
        extra = small_groups.group_members(2) - small_groups.group_members(1)
        assert len(extra) <= TOP_SELECTIVE_COUNT
        assert extra == small_groups.top_selective - small_groups.group_members(1)

    def test_top_selective_are_selective(self, small_offload_world, small_groups):
        for asn in small_groups.top_selective:
            assert small_offload_world.policy_of(asn) is PeeringPolicy.SELECTIVE

    def test_top_selective_are_biggest(self, small_offload_world, small_groups):
        """Each top-10 selective network's cone traffic is >= that of any
        other selective candidate."""
        world = small_offload_world

        def potential(asn):
            total = 0.0
            for member in world.cone(asn):
                idx = world.contributing_index(member)
                if idx is not None:
                    total += float(world.matrix.total_bps[idx])
            return total

        if small_groups.top_selective:
            floor = min(potential(a) for a in small_groups.top_selective)
            others = [
                a for a in small_groups.candidates
                if world.policy_of(a) is PeeringPolicy.SELECTIVE
                and a not in small_groups.top_selective
            ]
            if others:
                assert floor >= max(potential(a) for a in others) - 1e-6

    def test_unknown_group_rejected(self, small_groups):
        with pytest.raises(ConfigurationError):
            small_groups.group_members(5)

    def test_unknown_group_rejected_without_candidates(self, small_groups):
        """Validation does not depend on the data: with no candidates
        left (the joint study's restriction when detection calls nothing
        remote) an unknown group still raises."""
        empty = small_groups.restrict(frozenset())
        with pytest.raises(ConfigurationError):
            empty.group_members(9)
        with pytest.raises(ConfigurationError):
            empty.ixp_group_members("AMS-IX", 9)

    def test_ixp_group_members(self, small_groups):
        members = small_groups.ixp_group_members("AMS-IX", 4)
        assert members <= small_groups.candidates
        with pytest.raises(ConfigurationError):
            small_groups.ixp_group_members("NOPE-IX", 4)

    def test_labels_cover_groups(self):
        assert set(GROUP_LABELS) == set(ALL_GROUPS)
