"""End-to-end offload study on the small world: the Section 4 pipeline."""

import numpy as np
import pytest

from repro.core.economics import CostModel, CostParameters, fit_exponential_decay
from repro.core.offload import (
    greedy_expansion,
    greedy_reachability,
    remaining_traffic_series,
)
from repro.netflow.billing import offload_billing_report
from repro.types import TrafficDirection
from tests.engine_equivalence import inbound_routes


def _last_hops(world, asns) -> list[int]:
    """For each AS, the AS whose link into RedIRIS its best route crosses."""
    level, routes = inbound_routes(world)
    last = []
    for index in np.searchsorted(level.asns, asns).tolist():
        assert routes.kind[index] >= 0, level.asns[index]  # routed
        while level.asns[routes.next_hop[index]] != world.rediris:
            index = routes.next_hop[index]
        last.append(int(level.asns[index]))
    return last


class TestWorldInvariants:
    def test_contributing_count(self, small_offload_world):
        assert len(small_offload_world.contributing) == 3000

    def test_hierarchy_acyclic(self, small_offload_world):
        """Every provider has a lower ASN than its customer, so the
        customer→provider edges cannot close a cycle."""
        level = small_offload_world.as_level()
        assert level.customer.size
        assert np.all(level.asns[level.provider] < level.asns[level.customer])

    def test_every_contributor_routes_via_transit(self, small_offload_world):
        """Contributing networks reach RedIRIS through its two providers —
        that's what makes their traffic *transit* traffic."""
        world = small_offload_world
        last = _last_hops(world, world.contributing[::37])
        assert set(last) <= set(world.transit_providers)

    def test_nren_traffic_not_transit(self, small_offload_world):
        """NRENs reach RedIRIS over the GÉANT peering, not transit."""
        world = small_offload_world
        assert set(_last_hops(world, world.nrens)) == {world.geant}

    def test_memberships_cover_catalog(self, small_offload_world):
        assert len(small_offload_world.memberships) == 65


class TestStudyIntegration:
    def test_offload_fraction_ordering(self, small_estimator):
        """Peer groups 1..4 produce increasing offload (Figures 7/9)."""
        ixps = small_estimator.reachable_ixps()
        fractions = [
            sum(small_estimator.offload_fractions(ixps, g)) for g in (1, 2, 3, 4)
        ]
        assert fractions == sorted(fractions)
        assert 0.0 < fractions[0] < fractions[3] < 1.0

    def test_few_ixps_realize_most_potential(self, small_estimator):
        """Paper: reaching only 5 IXPs realizes most of the potential."""
        series = remaining_traffic_series(small_estimator, 4)
        total_reduction = series[0] - series[-1]
        five_reduction = series[0] - series[min(5, len(series) - 1)]
        assert five_reduction > 0.75 * total_reduction

    def test_offload_series_feeds_economics(self, small_estimator):
        """Section 4's curve parameterizes Section 5's model end-to-end."""
        series = np.array(remaining_traffic_series(small_estimator, 4,
                                                   max_ixps=15))
        fit = fit_exponential_decay(series)
        assert fit.rate > 0
        params = CostParameters(p=5.0, g=1.0, u=0.5, h=0.2, v=1.5,
                                b=max(fit.rate, 0.05))
        model = CostModel(params)
        assert model.total_cost(1, 1) < model.total_cost(0, 0)

    def test_billing_peaks_coincide(self, small_offload_world, small_estimator):
        """Figure 5b's punchline: offload cuts the 95th-percentile bill by
        roughly its average share, because peaks coincide."""
        world = small_offload_world
        collector = world.collector
        mask = small_estimator.mask_for(["AMS-IX"], 4)
        transit = collector.aggregate_series(TrafficDirection.INBOUND, seed=1)
        offload = collector.aggregate_series(TrafficDirection.INBOUND,
                                             mask=mask, seed=1)
        report = offload_billing_report(transit, offload)
        average_share = offload.mean() / transit.mean()
        assert report.savings_fraction == pytest.approx(average_share,
                                                        rel=0.15)

    def test_traffic_and_reachability_greedy_agree_roughly(
        self, small_offload_world, small_groups, small_estimator
    ):
        """Figures 9 and 10 show the same diminishing-returns shape."""
        traffic_first = greedy_expansion(small_estimator, 4, max_ixps=1)[0]
        reach_first = greedy_reachability(small_offload_world, small_groups,
                                          4, max_ixps=1)[0]
        # Both expansions start with a large, well-connected IXP (the small
        # world shifts which one, but it is always a multi-region heavy).
        big = {"AMS-IX", "LINX", "DE-CIX", "PTT", "Terremark", "NL-ix",
               "CoreSite"}
        assert traffic_first.ixp in big
        assert reach_first.ixp in big

    def test_deterministic_rebuild(self):
        from tests.conftest import small_offload_config
        from repro.sim import build_offload_world

        a = build_offload_world(small_offload_config(seed=8))
        b = build_offload_world(small_offload_config(seed=8))
        assert a.contributing == b.contributing
        assert np.array_equal(a.matrix.inbound_bps, b.matrix.inbound_bps)
        assert a.memberships == b.memberships
