"""A product detection world read through the seed implementation's objects.

:class:`ObjectWorld` realizes a world's interface table into the object
model of :mod:`tests.reference.objects` and :mod:`tests.reference.registry`
— IXPs with fabrics, ports and devices, looking-glass servers, a registry
directory, an identification pipeline, per-interface ground truth and
providers that keep their circuits — in catalog IXP order, and reads
every other attribute from the product world.  Member registration,
circuit order, device names and LG addresses follow the rows in order,
so the objects are the ones the table describes.

On those objects :func:`reference_cross_check` re-measures an IXP one
ping at a time (:meth:`~tests.reference.objects.LookingGlassServer.query`)
and :func:`reference_inventory` walks members and interfaces, matching
each remote interface's pseudowire against the providers' circuits.
They are the oracles of the product's table readers
(:func:`repro.core.detection.validation.route_server_cross_check`,
:func:`repro.core.structure.views.build_inventory`), and
:class:`ObjectWorld` is the world :class:`~tests.reference.campaign.ReferenceCampaign`
probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.core.detection.results import CampaignResult
from repro.core.detection.validation import CrossCheckReport
from repro.core.structure.views import (
    _PROVIDER_OWNERS,
    Attachment,
    InterconnectionInventory,
    _assign_carriers,
)
from repro.delaymodel.congestion import CongestionProcess, NoCongestion
from repro.errors import AnalysisError, ConfigurationError
from repro.net.addr import IPv4Address
from repro.rand import child_rng
from repro.sim.detection_world import (
    ATTACH_DIRECT,
    ATTACH_STALE,
    BEHAVIORS,
    CONGESTION_NONE,
    IDENTIFICATION_COVERAGE,
    LG_OPERATORS,
    POLICIES,
    STALE,
    DetectionWorld,
    InterfaceTable,
    congestion_process,
)
from repro.sim.netpool import PooledNetwork
from repro.types import ASN
from tests.reference.objects import (
    IXP,
    CircuitProvider,
    Device,
    LookingGlassServer,
    MemberInterface,
    OffLanTarget,
    PortKind,
    Pseudowire,
)
from tests.reference.registry import (
    IdentificationPipeline,
    InterfaceRecord,
    IXPDirectory,
    IXPWebsiteSource,
    PeeringDBSource,
    ReverseDNSSource,
)


@dataclass(frozen=True, slots=True)
class InterfaceTruth:
    """Ground truth for one candidate interface."""

    ixp_acronym: str
    address: IPv4Address
    asn: ASN
    is_remote: bool
    behavior: str
    base_rtt_ms: float
    circuit_km: float  # 0 for direct ports
    on_lan: bool  # False for stale registry entries


class ObjectWorld:
    """One product detection world with its object views.

    ``ixps``, ``lg_servers``, ``directory``, ``identification``,
    ``truth`` and ``providers`` are built once, at construction; any
    other attribute (``table``, ``exchanges``, ``window``, ``config``,
    ``candidate_count()`` ...) is the product world's.
    """

    def __init__(self, world: DetectionWorld) -> None:
        self.world = world
        self.ixps: dict[str, IXP] = {}
        self.lg_servers: dict[str, list[LookingGlassServer]] = {}
        self.directory = IXPDirectory()
        self.truth: dict[tuple[str, int], InterfaceTruth] = {}
        self.providers = [
            CircuitProvider(
                name=p.name,
                served_ixp_cities=set(p.served_ixp_cities),
                overhead_ms=p.overhead_ms,
                latency_model=p.latency_model,
            )
            for p in world.providers
        ]
        self._realize()
        seed = world.config.seed
        sources = dict(IDENTIFICATION_COVERAGE)
        self.identification = IdentificationPipeline(
            peeringdb=PeeringDBSource(
                self.directory, coverage=sources["peeringdb"], seed=seed
            ),
            website=IXPWebsiteSource(
                self.directory, coverage=sources["website"], seed=seed
            ),
            rdns=ReverseDNSSource(
                self.directory, coverage=sources["rdns"], seed=seed
            ),
        )

    def __getattr__(self, name: str):
        return getattr(self.world, name)

    def truth_for(self, ixp_acronym: str, address: IPv4Address) -> InterfaceTruth:
        """Ground-truth record for one (IXP, address) pair."""
        try:
            return self.truth[(ixp_acronym, address.value)]
        except KeyError:
            raise ConfigurationError(
                f"no ground truth for {ixp_acronym}/{address}"
            ) from None

    def _realize(self) -> None:
        """Build the objects from the tables, in catalog IXP order."""
        world = self.world
        no_congestion = NoCongestion()
        seated: dict[int, PooledNetwork] = {}
        c = {
            f.name: getattr(world.table, f.name).tolist()
            for f in fields(InterfaceTable)
        }
        for entry in world.exchanges:
            spec = entry.spec
            acronym = spec.acronym
            ixp = IXP(
                acronym=acronym,
                full_name=spec.full_name,
                city=entry.city,
                country=spec.country,
                lan=entry.lan,
                peak_traffic_tbps=spec.peak_traffic_tbps,
            )
            if entry.intersite_rtt_ms is not None:
                ixp.fabric.set_intersite_rtt("main", "b", entry.intersite_rtt_ms)
            self.ixps[acronym] = ixp
            servers = [
                LookingGlassServer.create(
                    vantage.operator, acronym, ixp.fabric, ixp.allocate_address()
                )
                for vantage in entry.vantages
            ]
            self.lg_servers[acronym] = servers
            for r in range(entry.start, entry.stop):
                if c["anchor"][r] >= 0:
                    asys = world.anchors[c["anchor"][r]]
                    suffix = "anchor"
                else:
                    index = c["pool_index"][r]
                    if index not in seated:
                        seated[index] = world.pool.network(index)
                    asys = seated[index].asys
                    suffix = str(c["device_index"][r])
                member = ixp.register(asys)
                os_change = c["os_change_s"][r] != math.inf
                device = Device(
                    name=f"rtr-as{asys.asn}-{acronym.lower()}-{suffix}",
                    ttl_init=c["ttl_init"][r],
                    ttl_after_change=c["ttl_after"][r] if os_change else None,
                    os_change_time=c["os_change_s"][r] if os_change else None,
                    respond_probability=c["respond_prob"][r],
                    processing_ms=c["processing_ms"][r],
                    reply_extra_hops=c["reply_hops"][r],
                )
                behavior = BEHAVIORS[c["behavior"][r]]
                if c["attachment"][r] == ATTACH_STALE:
                    address = ixp.allocate_address()
                    offlan = OffLanTarget(
                        device=device,
                        base_rtt_ms=c["offlan_rtt_ms"][r],
                        extra_hops=c["offlan_hops"][r],
                    )
                    for server in servers:
                        server.register_offlan_target(address, offlan)
                else:
                    if c["anchor"][r] >= 0:
                        congestion: CongestionProcess = NoCongestion()
                    elif c["congestion"][r] == CONGESTION_NONE:
                        congestion = no_congestion
                    else:
                        congestion = congestion_process(
                            c["congestion"][r], c["congestion_a"][r],
                            c["congestion_b"][r],
                        )
                    if c["attachment"][r] == ATTACH_DIRECT:
                        iface = ixp.add_interface(
                            member, device, PortKind.DIRECT,
                            tail_rtt_ms=c["tail_rtt_ms"][r],
                            congestion=congestion,
                            site="b" if c["site_b"][r] else "main",
                        )
                    else:
                        provider = self.providers[c["provider"][r]]
                        home = world.matrix.cities[c["home_city"][r]]
                        if c["partner"][r]:
                            wire = Pseudowire(
                                customer_city=home,
                                ixp_city=ixp.city,
                                overhead_ms=c["wire_overhead_ms"][r],
                                latency_model=provider.latency_model,
                            )
                            provider.circuits.append(wire)
                        else:
                            wire = provider.provision(home, ixp.city)
                        iface = ixp.add_interface(
                            member, device, PortKind.REMOTE,
                            pseudowire=wire, congestion=congestion,
                        )
                    for operator, extra in zip(LG_OPERATORS, c["bias_ms"][r]):
                        if extra:
                            iface.port.operator_bias[operator] = extra
                    address = iface.address
                record = InterfaceRecord(
                    ixp_acronym=acronym,
                    address=address,
                    asn=ASN(c["asn"][r]),
                    policy=POLICIES[c["policy"][r]],
                    stale=behavior == STALE,
                    well_known=c["well_known"][r],
                )
                if c["asn_after"][r] >= 0:
                    record.asn_after_change = ASN(c["asn_after"][r])
                    record.asn_change_time = c["asn_change_s"][r]
                self.directory.add(record)
                self.truth[(acronym, address.value)] = InterfaceTruth(
                    ixp_acronym=acronym,
                    address=address,
                    asn=ASN(c["asn"][r]),
                    is_remote=c["is_remote"][r],
                    behavior=behavior,
                    base_rtt_ms=c["base_rtt_ms"][r],
                    circuit_km=c["circuit_km"][r],
                    on_lan=c["attachment"][r] != ATTACH_STALE,
                )


def reference_cross_check(
    world: ObjectWorld,
    result: CampaignResult,
    ixp_acronym: str = "TorIX",
    probes_per_interface: int = 5,
    seed: int = 1914,
) -> CrossCheckReport:
    """The route-server re-measurement on the object model.

    A new PCH-style LG port on the IXP's fabric (a fresh address, no
    off-LAN targets) pings every analyzed interface of the IXP through
    :meth:`LookingGlassServer.query`; a burst with replies may then take
    a standing-queue penalty.
    """
    ixp = world.ixps[ixp_acronym]
    vantage = LookingGlassServer.create(
        "PCH", f"{ixp_acronym}-rs", ixp.fabric, ixp.allocate_address()
    )
    rng = child_rng(seed, "cross-check", ixp_acronym)
    diffs: list[float] = []
    queries = max(1, probes_per_interface // vantage.pings_per_query)
    for iface in result.analyzed:
        if iface.ixp_acronym != ixp_acronym:
            continue
        rtts: list[float] = []
        for q in range(queries):
            time_s = float(q) * 3600.0 + float(rng.uniform(0, 1800))
            replies = vantage.query(iface.address, time_s, rng)
            rtts.extend(r.rtt_ms for r in replies)
        if not rtts:
            continue
        remeasured = min(rtts)
        if rng.random() < 0.06:
            remeasured += float(rng.uniform(1.0, 8.0))
        diffs.append(abs(remeasured - iface.min_rtt_ms))
    if not diffs:
        raise AnalysisError(f"no analyzed interfaces at {ixp_acronym}")
    return CrossCheckReport(differences_ms=tuple(diffs))


def reference_inventory(
    world: ObjectWorld, seed: int = 0
) -> InterconnectionInventory:
    """The Section 6 inventory from the object model: IXPs by acronym,
    members in registration order, interfaces in attachment order."""
    attachments: list[Attachment] = []
    names: dict[ASN, str] = {}
    transit: dict[ASN, tuple[str, ...]] = {}
    for acronym, ixp in sorted(world.ixps.items()):
        for member in ixp.members:
            asn = member.network.asn
            names[asn] = member.network.name
            if asn not in transit:
                transit[asn] = _assign_carriers(asn, seed)
            for iface in member.interfaces:
                provider = None
                if iface.is_remote:
                    provider = provider_of(world, iface)
                attachments.append(
                    Attachment(
                        asn=asn,
                        network_name=member.network.name,
                        ixp_acronym=acronym,
                        remote=iface.is_remote,
                        provider_name=provider,
                    )
                )
    return InterconnectionInventory(
        attachments=attachments,
        transit_of=transit,
        provider_owner=dict(_PROVIDER_OWNERS),
        network_names=names,
    )


def provider_of(world: ObjectWorld, iface: MemberInterface) -> str:
    """The first provider with a circuit equal to the interface's wire."""
    wire = iface.port.pseudowire
    for provider in world.providers:
        if wire in provider.circuits:
            return provider.name
    # Hand-built wires: attribute to the first provider.
    return world.providers[0].name
