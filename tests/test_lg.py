"""Looking-glass servers, and the per-query client of the reference
probe engine (``tests/reference/campaign.py``)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, RateLimitError
from repro.geo.cities import default_city_db
from repro.bgp.asys import AutonomousSystem
from repro.lg.server import PCH_PINGS, RIPE_PINGS
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.net.device import TTL_LINUX, TTL_NETWORK_OS
from repro.types import ASN
from tests.reference.campaign import ReferenceClient
from tests.reference.objects import (
    IXP,
    Device,
    LookingGlassServer,
    OffLanTarget,
    PortKind,
    Pseudowire,
)


@pytest.fixture
def ixp():
    cities = default_city_db()
    ixp = IXP(
        acronym="LG-IX", full_name="LG Test", city=cities.get("Dublin"),
        country="Ireland", lan=IPv4Prefix.parse("10.50.0.0/24"),
    )
    member = ixp.register(AutonomousSystem(asn=ASN(100), name="as100"))
    device = Device(name="r100", ttl_init=TTL_NETWORK_OS, processing_ms=0.05)
    ixp.add_interface(member, device, PortKind.DIRECT, tail_rtt_ms=0.8)
    remote_member = ixp.register(AutonomousSystem(asn=ASN(200), name="as200"))
    wire = Pseudowire(cities.get("Tokyo"), ixp.city)
    ixp.add_interface(
        remote_member, Device(name="r200", ttl_init=TTL_LINUX,
                              processing_ms=0.05),
        PortKind.REMOTE, pseudowire=wire,
    )
    return ixp


@pytest.fixture
def pch(ixp):
    return LookingGlassServer.create("PCH", ixp.acronym, ixp.fabric,
                                     ixp.allocate_address())


class TestServer:
    def test_operator_ping_counts(self, ixp):
        pch = LookingGlassServer.create("PCH", ixp.acronym, ixp.fabric,
                                        ixp.allocate_address())
        ripe = LookingGlassServer.create("RIPE", ixp.acronym, ixp.fabric,
                                         ixp.allocate_address())
        assert pch.pings_per_query == PCH_PINGS == 5
        assert ripe.pings_per_query == RIPE_PINGS == 3

    def test_unknown_operator_rejected(self, ixp):
        with pytest.raises(ConfigurationError):
            LookingGlassServer.create("NASA", ixp.acronym, ixp.fabric,
                                      ixp.allocate_address())

    def test_query_direct_member(self, ixp, pch):
        target = ixp.interfaces()[0].address
        rng = np.random.default_rng(0)
        replies = pch.query(target, 0.0, rng)
        assert len(replies) == 5
        for r in replies:
            assert r.ttl == TTL_NETWORK_OS
            assert 0.8 < r.rtt_ms < 5.0

    def test_query_remote_member_high_rtt(self, ixp, pch):
        target = ixp.interfaces()[1].address
        rng = np.random.default_rng(0)
        replies = pch.query(target, 0.0, rng)
        assert replies
        # Dublin-Tokyo is intercontinental: way above the 10 ms threshold.
        assert min(r.rtt_ms for r in replies) > 50.0
        assert all(r.ttl == TTL_LINUX for r in replies)

    def test_query_unknown_address_times_out(self, ixp, pch):
        rng = np.random.default_rng(0)
        assert pch.query(IPv4Address.parse("10.50.0.250"), 0.0, rng) == []

    def test_offlan_target_ttl_decremented(self, ixp, pch):
        stale = IPv4Address.parse("10.50.0.200")
        device = Device(name="offlan", ttl_init=TTL_NETWORK_OS,
                        processing_ms=0.05)
        pch.register_offlan_target(
            stale, OffLanTarget(device=device, base_rtt_ms=3.0, extra_hops=2)
        )
        rng = np.random.default_rng(0)
        replies = pch.query(stale, 0.0, rng)
        assert replies
        assert all(r.ttl == TTL_NETWORK_OS - 2 for r in replies)

    def test_operator_bias_applied(self, ixp):
        pch = LookingGlassServer.create("PCH", ixp.acronym, ixp.fabric,
                                        ixp.allocate_address())
        ripe = LookingGlassServer.create("RIPE", ixp.acronym, ixp.fabric,
                                         ixp.allocate_address())
        iface = ixp.interfaces()[0]
        iface.port.operator_bias["RIPE"] = 15.0
        rng = np.random.default_rng(0)
        pch_min = min(r.rtt_ms for r in pch.query(iface.address, 0.0, rng))
        ripe_min = min(r.rtt_ms for r in ripe.query(iface.address, 0.0, rng))
        assert ripe_min - pch_min > 10.0


class TestClient:
    def test_rate_limit_enforced(self, ixp, pch):
        client = ReferenceClient()
        target = ixp.interfaces()[0].address
        rng = np.random.default_rng(0)
        client.submit(pch, target, 0.0, rng)
        with pytest.raises(RateLimitError):
            client.submit(pch, target, 30.0, rng)

    def test_minute_spacing_allowed(self, ixp, pch):
        client = ReferenceClient()
        target = ixp.interfaces()[0].address
        rng = np.random.default_rng(0)
        client.submit(pch, target, 0.0, rng)
        result = client.submit(pch, target, 60.0, rng)
        assert result.reply_count == 5
        assert client.queries_sent(pch.name) == 2

    def test_independent_servers_independent_limits(self, ixp):
        pch = LookingGlassServer.create("PCH", ixp.acronym, ixp.fabric,
                                        ixp.allocate_address())
        ripe = LookingGlassServer.create("RIPE", ixp.acronym, ixp.fabric,
                                         ixp.allocate_address())
        client = ReferenceClient()
        target = ixp.interfaces()[0].address
        rng = np.random.default_rng(0)
        client.submit(pch, target, 0.0, rng)
        client.submit(ripe, target, 1.0, rng)  # different server: fine

    def test_result_metadata(self, ixp, pch):
        client = ReferenceClient()
        target = ixp.interfaces()[0].address
        rng = np.random.default_rng(0)
        result = client.submit(pch, target, 0.0, rng)
        assert result.operator == "PCH"
        assert result.target == target
        assert result.sent_at_s == 0.0
