"""The offload estimator: masks, traffic sums, contributor decomposition."""

import hashlib

import numpy as np
import pytest

from repro.core.offload import OffloadEstimator, PeerGroups
from repro.errors import ConfigurationError
from repro.sim.offload_world import OffloadWorldConfig, build_offload_world
from repro.types import NetworkKind
from tests.reference.offload_world import build_scalar_offload_world

#: SHA-256 over every field of Figure 6's rows (floats by ``repr``),
#: taken from the graph world before Figure 6 routed on arrays: the top
#: 30 of group 4 on the small world and on the seed-42 paper-scale world
#: of ``benchmarks/conftest.py``, and every group-4 member's row on the
#: small world.
FIGURE6_DIGESTS = {
    "small-top30": (
        "2f057adb7ae6a1f76d04f8f94f8c393a"
        "d051400aebc0bdc4532cc8d03de3659e"
    ),
    "small-group4": (
        "b469d99cafa6eebffff0556cf9a05e93"
        "336a6b2177fcfd406117a1db9ebc5b31"
    ),
    "paper-seed42-top30": (
        "e451f5ca44066c98a951a21a57be6ee3"
        "49e352c458a62ff1ef3416cf68c39a71"
    ),
}


def shares_digest(shares) -> str:
    digest = hashlib.sha256()
    for s in shares:
        digest.update(repr((
            int(s.asn), s.name, s.kind.value, s.origin_bps,
            s.destination_bps, s.transient_in_bps, s.transient_out_bps,
        )).encode())
        digest.update(b"\n")
    return digest.hexdigest()


class TestMasks:
    def test_mask_monotone_in_group(self, small_estimator):
        """Bigger peer groups can only offload more."""
        ams1 = small_estimator.ixp_mask("AMS-IX", 1)
        ams4 = small_estimator.ixp_mask("AMS-IX", 4)
        assert not np.any(ams1 & ~ams4)

    def test_mask_monotone_in_ixps(self, small_estimator):
        one = small_estimator.mask_for(["AMS-IX"], 4)
        two = small_estimator.mask_for(["AMS-IX", "LINX"], 4)
        assert not np.any(one & ~two)

    def test_mask_is_union(self, small_estimator):
        a = small_estimator.ixp_mask("AMS-IX", 4)
        b = small_estimator.ixp_mask("LINX", 4)
        union = small_estimator.mask_for(["AMS-IX", "LINX"], 4)
        assert np.array_equal(union, a | b)

    def test_members_offloadable_themselves(self, small_estimator):
        """Every group member at a reached IXP is in its own cone."""
        world = small_estimator.world
        mask = small_estimator.ixp_mask("AMS-IX", 4)
        for member in small_estimator.groups.ixp_group_members("AMS-IX", 4):
            idx = world.contributing_index(member)
            if idx is not None:
                assert mask[idx]

    def test_unknown_group(self, small_estimator):
        with pytest.raises(ConfigurationError):
            small_estimator.mask_for(["AMS-IX"], 7)


class TestTraffic:
    def test_offload_bounded_by_totals(self, small_estimator):
        world = small_estimator.world
        inbound, outbound = small_estimator.offload_bps(
            small_estimator.reachable_ixps(), 4
        )
        assert 0 < inbound < world.matrix.inbound_bps.sum()
        assert 0 < outbound < world.matrix.outbound_bps.sum()

    def test_fractions_match_bps(self, small_estimator):
        world = small_estimator.world
        ixps = ["AMS-IX", "LINX"]
        fi, fo = small_estimator.offload_fractions(ixps, 4)
        bi, bo = small_estimator.offload_bps(ixps, 4)
        assert fi == pytest.approx(bi / world.matrix.inbound_bps.sum())
        assert fo == pytest.approx(bo / world.matrix.outbound_bps.sum())

    def test_group_monotonicity_in_traffic(self, small_estimator):
        ixps = small_estimator.reachable_ixps()
        totals = [sum(small_estimator.offload_bps(ixps, g)) for g in (1, 2, 3, 4)]
        assert totals == sorted(totals)

    def test_offloadable_network_count(self, small_estimator):
        ixps = small_estimator.reachable_ixps()
        count = small_estimator.offloadable_network_count(ixps, 4)
        assert 0 < count < len(small_estimator.world.contributing)

    def test_single_ixp_ranking_sorted(self, small_estimator):
        ranking = small_estimator.single_ixp_ranking(4, top=10)
        values = [v for _, v in ranking]
        assert values == sorted(values, reverse=True)
        assert len(ranking) == 10

    def test_ranked_offload_rates_descending(self, small_estimator):
        rates = small_estimator.ranked_offload_rates(["AMS-IX"], 4, "inbound")
        assert np.all(np.diff(rates) <= 0)
        with pytest.raises(ConfigurationError):
            small_estimator.ranked_offload_rates(["AMS-IX"], 4, "upward")


class TestContributors:
    def test_decomposition_consistency(self, small_estimator):
        shares = small_estimator.top_contributors(group=4, top=10)
        assert len(shares) == 10
        totals = [s.total_bps for s in shares]
        assert totals == sorted(totals, reverse=True)

    def test_giants_are_endpoint_dominant(self, small_offload_world,
                                           small_estimator):
        """Figure 6: content giants originate traffic, they do not carry it."""
        giant_set = set(small_offload_world.giants)
        shares = small_estimator.top_contributors(group=4, top=15)
        giant_shares = [s for s in shares if s.asn in giant_set]
        assert giant_shares, "giants must appear among top contributors"
        assert all(s.endpoint_dominant for s in giant_shares)

    def test_transit_contributors_carry_transient(self, small_estimator):
        """Transit members aggregate their cones: transient traffic > 0."""
        shares = small_estimator.top_contributors(group=4, top=30)
        transit = [s for s in shares if s.kind is NetworkKind.TRANSIT]
        assert len(transit) == 12
        assert all(s.transient_in_bps + s.transient_out_bps > 0
                   for s in transit)

    # Below, between and above the numbered ASN blocks.
    @pytest.mark.parametrize("asn", [0, 500, 9_000, 999_999_999])
    def test_unknown_asn_rejected(self, small_estimator, asn):
        with pytest.raises(ConfigurationError, match=f"unknown ASN {asn}"):
            small_estimator.contributor_share(asn)

    def test_contributor_share_matches_matrix(self, small_offload_world,
                                              small_estimator):
        world = small_offload_world
        asn = world.giants[0]
        share = small_estimator.contributor_share(asn)
        idx = world.contributing_index(asn)
        assert share.origin_bps == pytest.approx(
            float(world.matrix.inbound_bps[idx])
        )
        assert share.destination_bps == pytest.approx(
            float(world.matrix.outbound_bps[idx])
        )


class TestFigure6Digests:
    """Figure 6 keeps every number the graph world gave it."""

    def test_small_top_contributors(self, small_estimator):
        assert shares_digest(small_estimator.top_contributors(
            group=4, top=30
        )) == FIGURE6_DIGESTS["small-top30"]

    def test_small_group4_members(self, small_estimator):
        members = sorted(small_estimator.groups.group_members(4))
        assert shares_digest(
            small_estimator.contributor_share(asn) for asn in members
        ) == FIGURE6_DIGESTS["small-group4"]

    def test_paper_scale_top_contributors(self):
        world = build_offload_world(OffloadWorldConfig(seed=42))
        estimator = OffloadEstimator(world, PeerGroups.build(world))
        assert shares_digest(estimator.top_contributors(
            group=4, top=30
        )) == FIGURE6_DIGESTS["paper-seed42-top30"]


def _seed_transient_sums(world):
    """The seed's Figure 6 loop: each contributor's intermediaries, in
    contributing then path order, summed by two weighted bincounts."""
    index = {asn: i for i, asn in enumerate(world.graph.asns())}
    hops, owners = [], []
    for owner, asn in enumerate(world.contributing):
        path = world.inbound_paths.get(asn)
        for hop in path.intermediaries() if path is not None else ():
            hops.append(index[hop])
            owners.append(owner)
    return [
        np.bincount(hops, weights=column[owners], minlength=len(index))
        for column in (world.matrix.inbound_bps, world.matrix.outbound_bps)
    ]


class TestTransientSums:
    """Every AS's transient sums equal the seed's loop over the reference
    world's inbound paths, bit for bit (the tier-1s sum contributors met
    at several path depths)."""

    def test_small_world(self, small_estimator, small_reference_world):
        transient = small_estimator._transient_arrays()
        inbound, outbound = _seed_transient_sums(small_reference_world)
        assert np.array_equal(transient.inbound, inbound)
        assert np.array_equal(transient.outbound, outbound)

    def test_paper_scale_world(self):
        config = OffloadWorldConfig(seed=42)
        world = build_offload_world(config)
        transient = OffloadEstimator(world)._transient_arrays()
        inbound, outbound = _seed_transient_sums(
            build_scalar_offload_world(config)
        )
        assert np.array_equal(transient.inbound, inbound)
        assert np.array_equal(transient.outbound, outbound)
