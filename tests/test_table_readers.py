"""The route-server cross-check and the Section 6 inventory read the
interface table, and give the object model's numbers.

Both readers once walked the world's object model (fabrics, ports,
looking-glass servers, members); that model is now the oracle in
:mod:`tests.reference.views`.  The digests below were taken from the
object-model readers before the port, so the table readers are held to
numbers the object model produced, not only to an oracle that lives
beside them.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.detection import CampaignConfig, FilterPipeline, ProbeCampaign
from repro.core.detection.filters import FilterConfig
from repro.core.detection.results import (
    AnalyzedInterface,
    CampaignResult,
    build_result,
)
from repro.core.detection.validation import route_server_cross_check
from repro.core.structure.views import build_inventory
from repro.net.addr import IPv4Address
from repro.sim.detection_world import (
    ATTACH_REMOTE,
    ATTACH_STALE,
    LG_OPERATORS,
    DetectionWorldConfig,
    build_detection_world,
)
from tests.reference.views import (
    ObjectWorld,
    provider_of,
    reference_cross_check,
    reference_inventory,
)

#: Every TTL a reply can arrive with: stale (off-LAN) rows pass the
#: TTL-match filter and reach the cross-check.
EVERY_TTL = FilterConfig(accepted_ttls=frozenset(range(1, 256)))

#: sha256 of the cross-check's ``differences_ms`` for every IXP of the
#: seed-42 22-IXP world (campaign seed 7), under the paper's filters and
#: under :data:`EVERY_TTL`; and of the inventories of the seed-42 and
#: seed-3 22-IXP worlds.  Taken from the object-model readers.
CROSS_CHECK_DIGEST = (
    "69882be6a3e6765e580fc5422e9076154ffca1ebec0fff65dbd76a0795c8e366"
)
INVENTORY_DIGEST = (
    "2eb614727e489e1e692a973f4ef377e59d57d03ae6be8aea64f13988643d4821"
)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def results_for(world, *configs: FilterConfig) -> list[CampaignResult]:
    """One campaign (seed 7), filtered under each config."""
    measured = ProbeCampaign(world, CampaignConfig(seed=7)).collect()
    return [
        build_result(measured, FilterPipeline(config).run(measured),
                     threshold_ms=10.0)
        for config in configs
    ]


def inventory_export(inventory) -> dict:
    """Attachments, ``transit_of`` and ``network_names``, in order."""
    return {
        "attachments": [
            [int(a.asn), a.network_name, a.ixp_acronym, a.remote,
             a.provider_name]
            for a in inventory.attachments
        ],
        "transit_of": [
            [int(asn), list(carriers)]
            for asn, carriers in inventory.transit_of.items()
        ],
        "network_names": [
            [int(asn), name] for asn, name in inventory.network_names.items()
        ],
    }


@pytest.fixture(scope="module", params=(42, 1, 2, 3, 7))
def world(request):
    return build_detection_world(DetectionWorldConfig(seed=request.param))


class TestPinnedDigests:
    def test_cross_check_digest(self):
        world = build_detection_world(DetectionWorldConfig(seed=42))
        payload = [
            [entry.acronym, list(route_server_cross_check(
                world, result, entry.acronym).differences_ms)]
            for result in results_for(world, FilterConfig(), EVERY_TTL)
            for entry in world.exchanges
        ]
        assert _digest(payload) == CROSS_CHECK_DIGEST

    def test_inventory_digest(self):
        payload = [
            inventory_export(build_inventory(
                build_detection_world(DetectionWorldConfig(seed=seed))))
            for seed in (42, 3)
        ]
        assert _digest(payload) == INVENTORY_DIGEST


class TestCrossCheckMatchesObjectModel:
    @pytest.mark.parametrize("seed", (42, 1, 2))
    def test_every_ixp_of_a_campaign(self, seed):
        world = build_detection_world(DetectionWorldConfig(seed=seed))
        (result,) = results_for(world, FilterConfig())
        views = ObjectWorld(world)
        for entry in world.exchanges:
            assert route_server_cross_check(
                world, result, entry.acronym
            ).differences_ms == reference_cross_check(
                views, result, entry.acronym
            ).differences_ms, entry.acronym

    def test_every_row_analyzed(self):
        """Every row of the world analyzed, in a shuffled order, plus an
        address the world has no row for: stale rows, PCH-biased rows,
        congested, blackholed and OS-changing devices all take their
        branch (no campaign result reaches the first two)."""
        world = build_detection_world(DetectionWorldConfig(seed=42))
        table = world.table
        assert (table.attachment == ATTACH_STALE).any()
        assert (table.bias_ms[:, LG_OPERATORS.index("PCH")] > 0).any()
        names = [entry.acronym for entry in world.exchanges]
        order = np.random.default_rng(5).permutation(len(table))
        analyzed = [
            AnalyzedInterface(
                ixp_acronym=names[table.ixp[r]],
                address=IPv4Address(int(table.address[r])),
                min_rtt_ms=float(table.base_rtt_ms[r]),
                per_operator_min_ms=(),
                asn=None,
                identification_source=None,
                reply_count=0,
            )
            for r in order.tolist()
        ]
        analyzed.insert(7, AnalyzedInterface(
            ixp_acronym=names[0], address=IPv4Address.parse("10.0.0.1"),
            min_rtt_ms=1.0, per_operator_min_ms=(), asn=None,
            identification_source=None, reply_count=0,
        ))
        result = CampaignResult(analyzed)
        views = ObjectWorld(world)
        for acronym in names:
            ported = route_server_cross_check(world, result, acronym)
            oracle = reference_cross_check(views, result, acronym)
            assert ported.differences_ms == oracle.differences_ms, acronym


class TestInventoryMatchesObjectModel:
    def test_inventory(self, world):
        ported = build_inventory(world, seed=3)
        oracle = reference_inventory(ObjectWorld(world), seed=3)
        assert ported.attachments == oracle.attachments
        assert list(ported.transit_of.items()) == list(oracle.transit_of.items())
        assert list(ported.network_names.items()) == list(
            oracle.network_names.items()
        )
        assert ported.provider_owner == oracle.provider_owner

    def test_provider_column_names_the_wire_owner(self, world):
        """The provider a remote row's ``provider`` column names is the
        one whose circuits hold an equal wire."""
        views = ObjectWorld(world)
        table = world.table
        checked = 0
        for index, entry in enumerate(world.exchanges):
            for iface in views.ixps[entry.acronym].interfaces():
                if not iface.is_remote:
                    continue
                (row,) = table.find_rows([index], [iface.address.value])
                assert table.attachment[row] == ATTACH_REMOTE
                assert world.providers[table.provider[row]].name == (
                    provider_of(views, iface)
                )
                checked += 1
        assert checked == int((table.attachment == ATTACH_REMOTE).sum())
