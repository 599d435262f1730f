"""The member arrays both offload world types expose to the estimators."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.offload import PeerGroups
from repro.sim.offload_batch import build_offload_views
from repro.sim.offload_world import MemberArrays, build_offload_world
from repro.sim.scenarios import offload_preset_config


@pytest.fixture(scope="module", params=range(3))
def world_and_view(request):
    config = dataclasses.replace(
        offload_preset_config("small"), seed=request.param
    )
    return build_offload_world(config), build_offload_views([config])[0]


class TestViewMatchesGraphWorld:
    def test_member_arrays_identical(self, world_and_view):
        world, view = world_and_view
        built, drawn = world.member_arrays(), view.member_arrays()
        assert built.ixps == drawn.ixps
        for field in dataclasses.fields(MemberArrays):
            if field.name != "ixps":
                assert np.array_equal(
                    getattr(built, field.name), getattr(drawn, field.name)
                ), field.name

    def test_cones_match_the_per_network_tables(self, world_and_view):
        world, _ = world_and_view
        members = world.member_arrays()
        for k in range(0, members.asns.size, 7):
            cone = members.cone_indices[
                members.cone_indptr[k]:members.cone_indptr[k + 1]
            ]
            expected = world.cone_contrib_indices(int(members.asns[k]))
            assert cone.tolist() == expected.tolist()

    def test_peer_groups_identical(self, world_and_view):
        world, view = world_and_view
        built, drawn = PeerGroups.build(world), PeerGroups.build(view)
        assert built.candidates == drawn.candidates
        assert built.top_selective == drawn.top_selective
        for group in (1, 2, 3, 4):
            assert np.array_equal(
                built.member_mask(group), drawn.member_mask(group)
            )

    def test_view_memberships_built_on_first_access(self, world_and_view):
        world, view = world_and_view
        fresh = dataclasses.replace(view, _memberships=None)
        assert fresh._memberships is None
        assert fresh.memberships == world.memberships
        assert fresh._memberships is not None


class TestGraphWorldArrays:
    def test_follow_replaced_memberships(self, world_and_view):
        world, _ = world_and_view
        lone = dataclasses.replace(
            world, memberships={"AMS-IX": world.memberships["AMS-IX"]}
        )
        members = lone.member_arrays()
        assert members.ixps == ("AMS-IX",)
        assert members.asns.tolist() == sorted(world.memberships["AMS-IX"])

    def test_unknown_ixp_row_rejected(self, world_and_view):
        from repro.errors import ConfigurationError

        world, _ = world_and_view
        with pytest.raises(ConfigurationError):
            world.member_arrays().row_of("NOPE-IX")
