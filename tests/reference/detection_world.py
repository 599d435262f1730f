"""The seed implementation of the detection-world builder.

:class:`ScalarWorldBuilder` draws each IXP's members one at a time from
an object :class:`~tests.reference.netpool.NetworkPool` (drawn by the
per-network pool loop) and realizes every interface attribute with its
own draw, in interface order, from the same ``(seed, "ixp", acronym)``
streams the product builder opens.  It assembles IXP shells, looking
glasses, partnerships, anchors, stale targets, registry records and
ground truth as objects, with its own copy of the seed implementation's
scaffolding (the product fills an interface table and builds those
objects only as views), so a change to the product's scaffolding cannot
move the oracle with it.  The two builders agree in distribution, not
member-for-member (``tests/test_world_builder_engines.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bgp.asys import AutonomousSystem
from repro.delaymodel.congestion import (
    NoCongestion,
    PersistentCongestion,
    TransientCongestion,
)
from repro.errors import ConfigurationError
from repro.geo.cities import City, CityDB, default_city_db
from repro.geo.distances import CityDistanceMatrix
from repro.ixp.catalog import IXPSpec, paper_catalog
from repro.ixp.ixp import IXP
from repro.layer2.provider import RemotePeeringProvider
from repro.layer2.pseudowire import Pseudowire
from repro.lg.server import LookingGlassServer, OffLanTarget
from repro.net.addr import IPv4Address, IPv4Prefix, SubnetAllocator
from repro.net.device import Device, TTL_LINUX, TTL_NETWORK_OS, TTL_RARE
from repro.rand import child_rng, make_rng
from repro.registry.identify import IdentificationPipeline
from repro.registry.records import InterfaceRecord, IXPDirectory
from repro.registry.sources import (
    IXPWebsiteSource,
    PeeringDBSource,
    ReverseDNSSource,
)
from repro.sim.clock import CampaignWindow
from repro.sim.detection_world import (
    _BAND_DISTANCES,
    _BANDS,
    _MEMBER_PROVIDER_CHOICES,
    _PARTNER_SEATS,
    _PARTNERSHIPS,
    ASN_CHANGED,
    BLACKHOLE,
    CONGESTED,
    LG_BIASED,
    NORMAL,
    OS_CHANGE,
    RARE_TTL,
    STALE,
    DetectionWorldConfig,
    InterfaceTruth,
)
from repro.sim.netpool import NetworkPoolConfig, PooledNetwork
from repro.types import ASN, NetworkKind, PeeringPolicy, PortKind
from tests.reference.netpool import NetworkPool, generate_scalar_pool


def build_scalar_detection_world(
    config: DetectionWorldConfig | None = None,
) -> "ReferenceDetectionWorld":
    """The detection world for ``config``, drawn by the reference builder
    over the reference pool."""
    config = config or DetectionWorldConfig()
    city_db = default_city_db()
    pool = generate_scalar_pool(
        city_db, config.pool or NetworkPoolConfig(seed=config.seed)
    )
    return ScalarWorldBuilder(config, city_db, pool).build()


@dataclass
class ReferenceDetectionWorld:
    """The seed implementation's world: eager IXP, LG, registry and truth
    objects (the product builds them as views of its interface table)."""

    city_db: CityDB
    pool: NetworkPool
    window: CampaignWindow
    ixps: dict[str, IXP]
    lg_servers: dict[str, list[LookingGlassServer]]
    directory: IXPDirectory
    identification: IdentificationPipeline
    providers: list[RemotePeeringProvider]
    truth: dict[tuple[str, int], InterfaceTruth]
    config: DetectionWorldConfig
    partnerships: list = field(default_factory=list)
    #: Per-IXP count of remote-member draws that found no candidate in
    #: their nominal distance band (filled from a widened band, or — only
    #: when the whole pool was exhausted — dropped).  0 for every IXP of
    #: the paper catalog; custom scenarios read it to see how far their
    #: candidate counts drifted from calibration.
    shortfall: dict[str, int] = field(default_factory=dict)

    def truth_for(self, ixp_acronym: str, address: IPv4Address) -> InterfaceTruth:
        """Ground-truth record for one (IXP, address) pair."""
        try:
            return self.truth[(ixp_acronym, address.value)]
        except KeyError:
            raise ConfigurationError(
                f"no ground truth for {ixp_acronym}/{address}"
            ) from None

    def candidate_count(self) -> int:
        """Total candidate interfaces across all IXPs."""
        return len(self.truth)

    def remote_truth_count(self, ixp_acronym: str | None = None) -> int:
        """Ground-truth remote interfaces (optionally for one IXP)."""
        return sum(
            1
            for t in self.truth.values()
            if t.is_remote and (ixp_acronym is None or t.ixp_acronym == ixp_acronym)
        )

    def total_shortfall(self) -> int:
        """Remote-member draws that left their nominal band, world-wide."""
        return sum(self.shortfall.values())


def _make_providers(
    seed: int, specs: tuple[IXPSpec, ...], city_db: CityDB
) -> list[RemotePeeringProvider]:
    """Remote-peering providers present at every studied IXP."""
    rng = make_rng(seed)
    names_and_overheads = [
        ("reachix", float(rng.uniform(0.3, 1.0))),
        ("atrato-like", 4.0),  # the anchor provider: visible detour
        ("l2carrier", float(rng.uniform(0.5, 1.8))),
        ("metrowave", float(rng.uniform(0.3, 2.5))),
    ]
    providers = []
    for name, overhead in names_and_overheads:
        provider = RemotePeeringProvider(name=name, overhead_ms=overhead)
        for spec in specs:
            provider.add_presence(city_db.get(spec.city_name))
        providers.append(provider)
    return providers


class ScalarWorldBuilder:
    """One draw per interface attribute, over an object pool."""

    pool: NetworkPool

    def __init__(
        self,
        config: DetectionWorldConfig,
        city_db: CityDB,
        pool: NetworkPool,
    ) -> None:
        self.config = config
        self.specs = config.specs or paper_catalog()
        self.city_db = city_db
        self.matrix = CityDistanceMatrix.build(city_db)
        self.pool = pool
        self.directory = IXPDirectory()
        self.providers = _make_providers(config.seed, self.specs, city_db)
        self.ixps: dict[str, IXP] = {}
        self.lg_servers: dict[str, list[LookingGlassServer]] = {}
        self.truth: dict[tuple[str, int], InterfaceTruth] = {}
        self.partnerships: list = []
        self.shortfall: dict[str, int] = {}
        self._lans = SubnetAllocator(IPv4Prefix.parse("193.128.0.0/10"), 22)
        self._anchor_asn = ASN(64_600)
        self._anchor_plan: dict[str, list[tuple[AutonomousSystem, str, str]]] = {}
        #: One shared no-op process for every uncongested port.
        self._no_congestion = NoCongestion()

    # -- top level ------------------------------------------------------------

    def build(self) -> ReferenceDetectionWorld:
        if self.config.with_anchors:
            self._plan_anchors()
        for spec in self.specs:
            self.shortfall.setdefault(spec.acronym, 0)
            self._build_ixp(spec)
        seed = self.config.seed
        identification = IdentificationPipeline(
            peeringdb=PeeringDBSource(self.directory, coverage=0.54, seed=seed),
            website=IXPWebsiteSource(self.directory, coverage=0.30, seed=seed),
            rdns=ReverseDNSSource(self.directory, coverage=0.16, seed=seed),
        )
        return ReferenceDetectionWorld(
            city_db=self.city_db,
            pool=self.pool,
            window=self.config.window,
            ixps=self.ixps,
            lg_servers=self.lg_servers,
            directory=self.directory,
            identification=identification,
            providers=self.providers,
            truth=self.truth,
            config=self.config,
            partnerships=self.partnerships,
            shortfall=self.shortfall,
        )

    def _note_shortfall(self, spec: IXPSpec, count: int = 1) -> None:
        """Record remote draws that had to leave their nominal band."""
        self.shortfall[spec.acronym] = self.shortfall.get(spec.acronym, 0) + count

    # -- anchors ---------------------------------------------------------------

    def _plan_anchors(self) -> None:
        """Named validation networks mirroring the paper's Section 3.3.

        * ``e4a-like``: Italian access network, remote at 6 IXPs and direct
          at 3 — the paper's example of many remote interfaces.
        * ``invitel-like``: Hungarian access network, remote at AMS-IX and
          DE-CIX via the high-overhead provider (the Atrato anecdote).
        * ``turktelecom-like``: transit network peering remotely.
        * ``trunk-like``: hosting company peering remotely.
        """
        def anchor(name: str, kind: NetworkKind, city: str) -> AutonomousSystem:
            asys = AutonomousSystem(
                asn=self._anchor_asn,
                name=name,
                kind=kind,
                home_city=self.city_db.get(city),
                policy=PeeringPolicy.OPEN,
                address_space=2 ** 14,
            )
            self._anchor_asn = ASN(self._anchor_asn + 1)
            return asys

        e4a = anchor("e4a-like", NetworkKind.ACCESS, "Rome")
        invitel = anchor("invitel-like", NetworkKind.ACCESS, "Budapest")
        turk = anchor("turktelecom-like", NetworkKind.TRANSIT, "Istanbul")
        trunk = anchor("trunk-like", NetworkKind.HOSTING, "London")

        plan: list[tuple[str, AutonomousSystem, str, str]] = [
            ("AMS-IX", e4a, "remote", "reachix"),
            ("DE-CIX", e4a, "remote", "reachix"),
            ("France-IX", e4a, "remote", "reachix"),
            ("LoNAP", e4a, "remote", "reachix"),
            ("TorIX", e4a, "remote", "reachix"),
            ("TIE", e4a, "remote", "reachix"),
            ("MIX", e4a, "direct", ""),
            ("TOP-IX", e4a, "direct", ""),
            ("VIX", e4a, "direct", ""),
            ("AMS-IX", invitel, "remote", "atrato-like"),
            ("DE-CIX", invitel, "remote", "atrato-like"),
            ("AMS-IX", turk, "remote", "l2carrier"),
            ("LINX", turk, "remote", "l2carrier"),
            ("AMS-IX", trunk, "remote", "metrowave"),
        ]
        for ixp_acr, asys, kind, provider in plan:
            self._anchor_plan.setdefault(ixp_acr, []).append((asys, kind, provider))

    # -- shared geometry -------------------------------------------------------

    def _cities_within(self, city: City, low: float, high: float) -> list[City]:
        """Cities whose distance from ``city`` lies in [low, high] km."""
        return self.matrix.within(city.name, low, high)

    @staticmethod
    def _band_probabilities(spec: IXPSpec) -> np.ndarray:
        """Normalized band odds; all-zero ``band_weights`` fall back to
        a uniform draw over the three bands."""
        weights = np.array(spec.band_weights, dtype=float)
        total = weights.sum()
        if total <= 0:
            return np.full(3, 1.0 / 3.0)
        return weights / total

    # -- one IXP -----------------------------------------------------------------

    def _common_ixp_setup(
        self, spec: IXPSpec, rng: np.random.Generator
    ) -> tuple[IXP, list[LookingGlassServer], list, int, int, int]:
        """IXP shell, LGs and membership arithmetic (all but the members).

        The resolved city travels back as ``ixp.city``.
        """
        city = self.city_db.get(spec.city_name)
        ixp = IXP(
            acronym=spec.acronym,
            full_name=spec.full_name,
            city=city,
            country=spec.country,
            lan=self._lans.allocate(),
            peak_traffic_tbps=spec.peak_traffic_tbps,
        )
        if spec.sites > 1:
            ixp.fabric.set_intersite_rtt("main", "b", float(rng.uniform(0.15, 0.5)))
        self.ixps[spec.acronym] = ixp
        servers = self._attach_lgs(spec, ixp)
        self.lg_servers[spec.acronym] = servers

        anchors = self._anchor_plan.get(spec.acronym, [])
        target_count = round(spec.analyzed_interfaces * self.config.target_scale)
        target_count = max(1, target_count - len(anchors))
        membership_count = max(
            1, round(target_count / (1.0 + self.config.second_interface_fraction))
        )
        remote_members = round(spec.remote_fraction * membership_count)
        direct_members = membership_count - remote_members
        return (
            ixp, servers, anchors, target_count, remote_members, direct_members,
        )

    def _attach_lgs(self, spec: IXPSpec, ixp: IXP) -> list[LookingGlassServer]:
        servers = []
        if spec.has_pch_lg:
            servers.append(
                LookingGlassServer.create(
                    "PCH", spec.acronym, ixp.fabric, ixp.allocate_address()
                )
            )
        if spec.has_ripe_lg:
            servers.append(
                LookingGlassServer.create(
                    "RIPE", spec.acronym, ixp.fabric, ixp.allocate_address()
                )
            )
        return servers

    def _partner_slots(self, spec: IXPSpec, city: City) -> list[City]:
        """Partner-IXP cities whose members remote-peer here."""
        partners = _PARTNERSHIPS.get(spec.acronym)
        if not partners:
            return []
        from repro.ixp.partnerships import Partnership

        slots: list[City] = []
        for partner_name, partner_city_name in partners:
            partner_city = self.city_db.get(partner_city_name)
            self.partnerships.append(
                Partnership(
                    ixp_a=spec.acronym,
                    ixp_b=partner_name,
                    city_a=city,
                    city_b=partner_city,
                    carrier="l2carrier",
                )
            )
            slots.extend([partner_city] * _PARTNER_SEATS)
        return slots

    # -- interfaces -------------------------------------------------------------------

    def _record_truth(
        self,
        spec: IXPSpec,
        address: IPv4Address,
        asn: ASN,
        is_remote: bool,
        behavior: str,
        base_rtt_ms: float,
        circuit_km: float,
        on_lan: bool = True,
    ) -> None:
        self.truth[(spec.acronym, address.value)] = InterfaceTruth(
            ixp_acronym=spec.acronym,
            address=address,
            asn=asn,
            is_remote=is_remote,
            behavior=behavior,
            base_rtt_ms=base_rtt_ms,
            circuit_km=circuit_km,
            on_lan=on_lan,
        )

    def _provision_partner_wire(
        self,
        provider: RemotePeeringProvider,
        home_city: City,
        ixp: IXP,
        overhead_ms: float,
    ) -> Pseudowire:
        """Partner-IXP interconnect circuit.

        Inter-IXP interconnects chain several provider segments and detour
        through carrier hubs, so their overhead is well above a
        point-to-point circuit's — which is why the paper sees TOP-IX's
        partner members in the 10-20 ms band despite Padua/Lyon being only
        a few hundred kilometres away.
        """
        wire = Pseudowire(
            customer_city=home_city,
            ixp_city=ixp.city,
            overhead_ms=overhead_ms,
            latency_model=provider.latency_model,
        )
        provider.circuits.append(wire)
        return wire

    def _add_stale_target(
        self, spec, ixp, servers, asys, device, base_rtt_ms: float, extra_hops: int
    ) -> None:
        """Publish an address that is not on the LAN (website rot)."""
        address = ixp.allocate_address()
        offlan = OffLanTarget(
            device=device,
            base_rtt_ms=base_rtt_ms,
            extra_hops=extra_hops,
        )
        for server in servers:
            server.register_offlan_target(address, offlan)
        self._publish(spec, ixp, asys, address, STALE)
        self._record_truth(
            spec, address, asys.asn, False, STALE, offlan.base_rtt_ms, 0.0,
            on_lan=False,
        )

    def _publish(
        self,
        spec,
        ixp,
        asys,
        address,
        behavior,
        well_known=False,
        *,
        asn_change: tuple[ASN, float] | None = None,
    ) -> None:
        """Add the registry record; ``asn_change`` is the (new ASN, change
        time) of an ``ASN_CHANGED`` interface."""
        record = InterfaceRecord(
            ixp_acronym=spec.acronym,
            address=address,
            asn=asys.asn,
            policy=asys.policy,
            stale=behavior == STALE,
            well_known=well_known,
        )
        if asn_change is not None:
            record.asn_after_change, record.asn_change_time = asn_change
        self.directory.add(record)

    def _add_anchor_interface(
        self, spec, ixp, servers, rng, asys: AutonomousSystem, kind: str, provider_name: str
    ) -> None:
        member = ixp.register(asys)
        device = Device(
            name=f"rtr-as{asys.asn}-{spec.acronym.lower()}-anchor",
            ttl_init=TTL_NETWORK_OS,
            processing_ms=0.08,
            respond_probability=0.99,
        )
        if kind == "direct":
            tail = float(rng.uniform(0.3, 1.2))
            iface = ixp.add_interface(member, device, PortKind.DIRECT, tail_rtt_ms=tail)
            base_rtt, km, is_remote = tail, 0.0, False
        else:
            provider = next(p for p in self.providers if p.name == provider_name)
            assert asys.home_city is not None
            wire = provider.provision(asys.home_city, ixp.city)
            iface = ixp.add_interface(member, device, PortKind.REMOTE, pseudowire=wire)
            base_rtt, km, is_remote = (
                wire.base_rtt_ms(),
                asys.home_city.distance_km(ixp.city),
                True,
            )
        self._publish(spec, ixp, asys, iface.address, NORMAL, well_known=True)
        self._record_truth(
            spec, iface.address, asys.asn, is_remote, NORMAL, base_rtt, km,
        )


    def _build_ixp(self, spec: IXPSpec) -> None:
        rng = child_rng(self.config.seed, "ixp", spec.acronym)
        ixp, servers, anchors, target_count, remote_members, direct_members = (
            self._common_ixp_setup(spec, rng)
        )

        members = self._draw_members(
            spec, rng, ixp.city, remote_members, direct_members
        )

        dual_lg = spec.has_pch_lg and spec.has_ripe_lg
        produced = 0
        for network, wanted_kind in members:
            iface_count = 1
            if produced + 1 < target_count and rng.random() < self.config.second_interface_fraction:
                iface_count = 2
            for i in range(iface_count):
                if produced >= target_count:
                    break
                self._add_member_interface(
                    spec, ixp, servers, rng, network, wanted_kind, dual_lg, i
                )
                produced += 1
        for asys, kind, provider_name in anchors:
            self._add_anchor_interface(spec, ixp, servers, rng, asys, kind, provider_name)

    def _draw_members(
        self,
        spec: IXPSpec,
        rng: np.random.Generator,
        city: City,
        remote_members: int,
        direct_members: int,
    ) -> list[tuple[PooledNetwork, str]]:
        """Pick (network, direct|remote-band) pairs for one IXP."""
        continent = city.continent
        chosen: list[tuple[PooledNetwork, str]] = []
        used: set[ASN] = set()

        directs = self.pool.sample_members(rng, continent, direct_members, exclude=used)
        for network in directs:
            used.add(network.asn)
            chosen.append((network, "direct"))

        band_p = self._band_probabilities(spec)
        partner_slots = self._partner_slots(spec, city)
        for index in range(remote_members):
            if index < len(partner_slots):
                partner_city = partner_slots[index]
                network = self._draw_partner_network(spec, rng, partner_city, used)
                if network is not None:
                    used.add(network.asn)
                    chosen.append((network, f"partner:{partner_city.name}"))
                continue
            if rng.random() < self.config.short_remote_fraction:
                band = "short"
            else:
                band = _BANDS[int(rng.choice(3, p=band_p))]
            network = self._draw_remote_network(spec, rng, city, band, used)
            if network is None:
                continue
            used.add(network.asn)
            chosen.append((network, band))
        # Shuffle so remote/direct interleave in address space.
        order = rng.permutation(len(chosen))
        return [chosen[i] for i in order]

    def _draw_partner_network(
        self,
        spec: IXPSpec,
        rng: np.random.Generator,
        partner_city: City,
        used: set[ASN],
    ) -> PooledNetwork | None:
        """A member of the partner IXP: a network homed near its city.

        Falls back from "within 400 km" to "same continent" to "any unused
        network" — the seat is filled whenever the pool has *any* network
        left; the widened draws are counted as shortfall.
        """
        nearby = self._city_names_within(partner_city, 0.0, 400.0)
        candidates = [
            n
            for n in self.pool.networks
            if n.asn not in used and n.home_city.name in nearby
        ]
        if not candidates:
            candidates = [
                n
                for n in self.pool.networks
                if n.asn not in used
                and n.home_city.continent == partner_city.continent
            ]
        if not candidates:
            self._note_shortfall(spec)
            candidates = [n for n in self.pool.networks if n.asn not in used]
        if not candidates:
            return None
        weights = self._propensity_weights(candidates)
        return candidates[int(rng.choice(len(candidates), p=weights))]

    def _draw_remote_network(
        self,
        spec: IXPSpec,
        rng: np.random.Generator,
        ixp_city: City,
        band: str,
        used: set[ASN],
    ) -> PooledNetwork | None:
        """A network whose home city sits in the wanted distance band.

        When the band holds no unused candidate the draw widens to the
        whole pool (and is counted as shortfall) instead of silently
        dropping the member; ``_attach_remote`` later routes the widened
        member's circuit through an in-band provider PoP, so the IXP's
        RTT band mix stays calibrated.
        """
        low, high = _BAND_DISTANCES[band]
        eligible_cities = self._city_names_within(ixp_city, low, high)
        candidates = [
            n
            for n in self.pool.networks
            if n.asn not in used and n.home_city.name in eligible_cities
        ]
        if not candidates:
            self._note_shortfall(spec)
            candidates = [n for n in self.pool.networks if n.asn not in used]
        if not candidates:
            return None
        weights = self._propensity_weights(candidates)
        return candidates[int(rng.choice(len(candidates), p=weights))]

    def _city_names_within(self, city: City, low: float, high: float) -> set[str]:
        return {c.name for c in self._cities_within(city, low, high)}

    @staticmethod
    def _propensity_weights(candidates: list[PooledNetwork]) -> np.ndarray:
        """Normalized draw weights; uniform when all propensities are 0."""
        weights = np.array([n.propensity for n in candidates], dtype=float)
        total = weights.sum()
        if total <= 0:
            return np.full(len(candidates), 1.0 / len(candidates))
        return weights / total

    def _draw_behavior(self, rng: np.random.Generator, dual_lg: bool) -> str:
        edges, labels = self.config.rates.class_table(dual_lg)
        return labels[int(np.searchsorted(edges, rng.random(), side="right"))]

    def _make_device(
        self,
        rng: np.random.Generator,
        network: AutonomousSystem,
        spec: IXPSpec,
        behavior: str,
        index: int,
    ) -> Device:
        ttl = TTL_LINUX if rng.random() < 0.5 else TTL_NETWORK_OS
        kwargs: dict = {
            "name": f"rtr-as{network.asn}-{spec.acronym.lower()}-{index}",
            "ttl_init": ttl,
            "processing_ms": float(rng.uniform(0.03, 0.25)),
        }
        if behavior == RARE_TTL:
            kwargs["ttl_init"] = int(rng.choice(TTL_RARE))
        elif behavior == OS_CHANGE:
            kwargs["ttl_after_change"] = (
                TTL_NETWORK_OS if ttl == TTL_LINUX else TTL_LINUX
            )
            span = self.config.window.duration_s
            kwargs["os_change_time"] = float(rng.uniform(0.15, 0.85)) * span
        elif behavior == BLACKHOLE:
            kwargs["respond_probability"] = float(rng.uniform(0.0, 0.10))
        else:
            kwargs["respond_probability"] = float(rng.uniform(0.965, 1.0))
        return Device(**kwargs)

    def _port_congestion(self, rng: np.random.Generator, behavior: str):
        if behavior == CONGESTED:
            return PersistentCongestion(
                floor_ms=float(rng.uniform(2.0, 5.0)),
                spread_ms=float(rng.uniform(350.0, 650.0)),
            )
        if rng.random() < self.config.rates.transient_congestion:
            return TransientCongestion(
                peak_amplitude_ms=float(rng.uniform(0.5, 3.0)),
                peak_hour_utc=float(rng.uniform(0.0, 24.0)),
            )
        return self._no_congestion

    def _add_member_interface(
        self,
        spec: IXPSpec,
        ixp: IXP,
        servers: list[LookingGlassServer],
        rng: np.random.Generator,
        network: PooledNetwork,
        wanted_kind: str,
        dual_lg: bool,
        index: int,
    ) -> None:
        behavior = self._draw_behavior(rng, dual_lg)
        device = self._make_device(rng, network.asys, spec, behavior, index)
        member = ixp.register(network.asys)

        if behavior == STALE:
            self._add_stale_target(
                spec, ixp, servers, network.asys, device,
                base_rtt_ms=float(rng.uniform(1.0, 18.0)),
                extra_hops=int(rng.integers(1, 4)),
            )
            return

        if wanted_kind == "direct":
            iface, base_rtt, km = self._attach_direct(spec, ixp, rng, member, device, behavior)
            is_remote = False
        else:
            iface, base_rtt, km = self._attach_remote(
                spec, ixp, rng, member, device, behavior, wanted_kind, network.home_city
            )
            is_remote = True

        if behavior == LG_BIASED:
            operator = "RIPE" if rng.random() < 0.5 else "PCH"
            bias = max(6.0, 0.12 * base_rtt) + float(rng.uniform(3.0, 25.0))
            iface.port.operator_bias[operator] = bias

        asn_change = None
        if behavior == ASN_CHANGED:
            other = self.pool.networks[int(rng.integers(0, len(self.pool.networks)))]
            asn_change = (
                other.asn,
                float(rng.uniform(0.3, 0.7)) * self.config.window.duration_s,
            )
        self._publish(
            spec, ixp, network.asys, iface.address, behavior,
            asn_change=asn_change,
        )
        self._record_truth(
            spec, iface.address, network.asn, is_remote, behavior, base_rtt, km,
        )

    def _attach_direct(self, spec, ixp, rng, member, device, behavior):
        if rng.random() < self.config.far_metro_fraction:
            tail = float(rng.uniform(2.0, 9.0))
        else:
            tail = float(rng.uniform(0.22, 1.9))
        site = "b" if spec.sites > 1 and rng.random() < 0.4 else "main"
        iface = ixp.add_interface(
            member,
            device,
            PortKind.DIRECT,
            tail_rtt_ms=tail,
            congestion=self._port_congestion(rng, behavior),
            site=site,
        )
        return iface, tail, 0.0

    def _attach_remote(self, spec, ixp, rng, member, device, behavior, band, home_city):
        provider = self._pick_provider(rng)
        if band.startswith("partner:"):
            home_city = self.city_db.get(band.split(":", 1)[1])
            km = home_city.distance_km(ixp.city)
            wire = self._provision_partner_wire(
                provider, home_city, ixp, overhead_ms=float(rng.uniform(6.5, 11.0))
            )
            iface = ixp.add_interface(
                member,
                device,
                PortKind.REMOTE,
                pseudowire=wire,
                congestion=self._port_congestion(rng, behavior),
            )
            return iface, wire.base_rtt_ms(), km
        else:
            low, high = _BAND_DISTANCES[band]
            km = home_city.distance_km(ixp.city)
            if not low <= km <= high:
                # The member's circuit enters from a provider PoP in the band.
                candidates = self._cities_within(ixp.city, low, high)
                if candidates:
                    home_city = candidates[int(rng.integers(0, len(candidates)))]
                    km = home_city.distance_km(ixp.city)
        wire = provider.provision(home_city, ixp.city)
        iface = ixp.add_interface(
            member,
            device,
            PortKind.REMOTE,
            pseudowire=wire,
            congestion=self._port_congestion(rng, behavior),
        )
        return iface, wire.base_rtt_ms(), km

    def _pick_provider(self, rng: np.random.Generator) -> RemotePeeringProvider:
        choices = _MEMBER_PROVIDER_CHOICES
        return self.providers[choices[int(rng.integers(0, len(choices)))]]
