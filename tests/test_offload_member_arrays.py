"""The member arrays a world exposes to the estimators.

The product builds them from its drawn edge arrays and policy draws;
the reference world (:mod:`tests.reference.offload_world`) reads the
policies off its AS objects and the cones off breadth-first searches of
its graph.  Both must agree entry for entry.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.offload import PeerGroups
from repro.sim.offload_world import MemberArrays
from repro.sim.scenarios import offload_preset_config
from tests.engine_equivalence import offload_world_pair


@pytest.fixture(scope="module", params=range(3))
def world_and_view(request):
    """(reference world, product world) for one small-preset seed."""
    product, reference = offload_world_pair(dataclasses.replace(
        offload_preset_config("small"), seed=request.param
    ))
    return reference, product


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
        world, view = world_and_view
        members = view.member_arrays()
        for k in range(0, members.asns.size, 7):
            cone = members.cone_indices[
                members.cone_indptr[k]:members.cone_indptr[k + 1]
            ]
            expected = sorted(
                view.contributing_index(member)
                for member in world.cone(int(members.asns[k]))
                if view.contributing_index(member) is not None
            )
            assert cone.tolist() == expected

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
        fresh = dataclasses.replace(view, memberships=None)
        assert fresh._seats is None
        # Catalog order, as the reference world's dict.
        assert list(fresh.memberships.items()) == list(
            world.memberships.items()
        )
        assert fresh._seats is not None


class TestGraphWorldArrays:
    def test_follow_replaced_memberships(self, world_and_view):
        _, world = world_and_view
        lone = dataclasses.replace(
            world, memberships={"AMS-IX": world.memberships["AMS-IX"]}
        )
        members = lone.member_arrays()
        assert members.ixps == ("AMS-IX",)
        assert members.asns.tolist() == sorted(world.memberships["AMS-IX"])
        # Rows are gathered from the drawn members' policies and cones.
        drawn = world.member_arrays()
        rows = np.searchsorted(drawn.asns, members.asns)
        assert np.array_equal(members.policy, drawn.policy[rows])
        for k, row in enumerate(rows.tolist()):
            assert np.array_equal(
                members.cone_indices[
                    members.cone_indptr[k]:members.cone_indptr[k + 1]
                ],
                drawn.cone_indices[
                    drawn.cone_indptr[row]:drawn.cone_indptr[row + 1]
                ],
            )

    def test_replaced_memberships_seat_only_drawn_members(
        self, world_and_view
    ):
        from repro.errors import ConfigurationError

        _, world = world_and_view
        with pytest.raises(ConfigurationError, match="drawn members"):
            dataclasses.replace(world, memberships={"AMS-IX": {world.geant}})

    def test_unknown_ixp_row_rejected(self, world_and_view):
        from repro.errors import ConfigurationError

        _, world = world_and_view
        with pytest.raises(ConfigurationError):
            world.member_arrays().row_of("NOPE-IX")
