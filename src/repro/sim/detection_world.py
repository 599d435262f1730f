"""Builder for the detection world: the 22 studied IXPs, fully wired.

The output of :func:`build_detection_world` contains everything the
Section 3 campaign needs — IXPs with peering LANs and member devices,
PCH/RIPE looking glasses, registries (with their imperfections), and
remote-peering providers — plus the ground-truth labels the paper could
only obtain for TorIX, E4A and Invitel, which here exist for *every*
interface and power validation and ablation.

Behaviour classes are drawn per interface, mutually exclusively, at rates
calibrated so the six-filter pipeline discards roughly the paper's
20 / 82 / 20 / 100 / 28 / 5 interfaces out of ~4.7k candidates.

Draw order
----------
The builder draws its network pool as columns
(:class:`~repro.sim.netpool.ColumnarNetworkPool`), selects members as
pool indices, and materializes a :class:`~repro.sim.netpool.PooledNetwork`
view only for a network the world seats — once per world, so an AS
seated at several IXPs is one object.  It realizes each IXP's stochastic
content as per-IXP array draws from the ``(seed, "ixp", acronym)``
stream in a fixed order — the same struct-of-arrays discipline as
:mod:`repro.lg.batch`.  Per IXP the order is: intersite RTT (multi-site
only), direct-member sample, short-circuit coins, band draw, per-band
member draws (partner seats first, then
short/intercity/intercountry/intercontinental), interleave permutation,
second-interface coins, behaviour classes, device arrays (TTL coin,
processing, rare TTL, OS-change time, blackhole/healthy respond),
congestion arrays (persistent floor/spread, transient
coin/amplitude/peak), attachment arrays (far-metro coin, far/near tails,
site coin, provider pick, partner overhead, PoP relocation), LG-bias
arrays, stale-target arrays, ASN-change arrays, anchors.  Distance
queries are answered by one precomputed
:class:`repro.geo.distances.CityDistanceMatrix` instead of re-sorting
the city database per draw.

The seed implementation's per-interface draws over an object pool are
kept as the oracle in ``tests/reference/detection_world.py``.  It opens
the same streams in a different order, so the two builders agree in
distribution (remote fractions, behaviour-class counts, band histograms,
filter discard counts — see ``tests/test_world_builder_engines.py``),
not member-for-member.

Remote-member draws that find no eligible candidate in their nominal
distance band are *redrawn from a widened band* (any unused network; the
circuit still enters from an in-band provider PoP, so RTT calibration
holds) and counted in :attr:`DetectionWorld.shortfall` — members are
never silently dropped unless the whole pool is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.bgp.asys import AutonomousSystem
from repro.delaymodel.congestion import (
    CongestionProcess,
    NoCongestion,
    PersistentCongestion,
    TransientCongestion,
)
from repro.errors import ConfigurationError
from repro.geo.cities import City, CityDB, default_city_db
from repro.geo.distances import CityDistanceMatrix
from repro.ixp.catalog import IXPSpec, paper_catalog
from repro.ixp.ixp import IXP, MemberInterface
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
from repro.sim.netpool import (
    SCOPE_CONTINENTS,
    ColumnarNetworkPool,
    NetworkPoolConfig,
    PooledNetwork,
    generate_network_pool,
    weighted_index_sample,
)
from repro.types import ASN, NetworkKind, PeeringPolicy, PortKind

#: Behaviour class labels (ground truth annotations).
NORMAL = "normal"
BLACKHOLE = "blackhole"
OS_CHANGE = "os_change"
STALE = "stale"
RARE_TTL = "rare_ttl"
CONGESTED = "congested"
LG_BIASED = "lg_biased"
ASN_CHANGED = "asn_changed"

#: Great-circle distance windows (km) per remote band, chosen so the fiber
#: RTT lands in the paper's 10-20 / 20-50 / 50+ ms ranges.
_BAND_DISTANCES = {
    "short": (150.0, 560.0),  # deliberately sub-threshold: false negatives
    "intercity": (700.0, 1250.0),
    "intercountry": (1400.0, 3100.0),
    "intercontinental": (3500.0, 12000.0),
}

#: Remote bands in draw order (member draws are grouped by band).
_BANDS = ("intercity", "intercountry", "intercontinental")

#: Inter-IXP partnership programs the paper names (Section 2.3/3.2):
#: TOP-IX interconnects with VSIX (Padua) and LyonIX (Lyon); AMS-IX Hong
#: Kong reaches AMS-IX over third-party layer 2.  The builder seats some
#: remote members of these IXPs at the partner city, so the partner-driven
#: remote peering the paper observed at TOP-IX emerges in the data.
_PARTNERSHIPS: dict[str, tuple[tuple[str, str], ...]] = {
    "TOP-IX": (("VSIX", "Padua"), ("LyonIX", "Lyon")),
    "AMS-IX": (("AMS-IX-HK", "Hong Kong"),),
}

#: Remote members per partnership seat.
_PARTNER_SEATS = 4

#: Provider indices member circuits may use; index 1 (``atrato-like``,
#: the visible-detour provider) is reserved for the validation anchors.
_MEMBER_PROVIDER_CHOICES = (0, 2, 3)


@dataclass(frozen=True, slots=True)
class BehaviorRates:
    """Per-interface probabilities of each pathological behaviour.

    Defaults are calibrated against the paper's discard counts (Section
    3.1): 20 sample-size, 82 TTL-switch, 20 TTL-match, 100 RTT-consistent,
    28 LG-consistent and 5 ASN-change discards out of ~4,706 candidates.
    """

    blackhole: float = 0.0030
    os_change: float = 0.0174
    stale: float = 0.0025
    rare_ttl: float = 0.0025
    persistent_congestion: float = 0.0235
    lg_bias: float = 0.0110  # only drawn at dual-LG IXPs
    asn_change: float = 0.0018
    transient_congestion: float = 0.15  # benign; minimum stays clean

    def __post_init__(self) -> None:
        total = (
            self.blackhole + self.os_change + self.stale + self.rare_ttl
            + self.persistent_congestion + self.lg_bias + self.asn_change
        )
        if total >= 1.0:
            raise ConfigurationError("behaviour rates sum to >= 1")
        for value in (
            self.blackhole, self.os_change, self.stale, self.rare_ttl,
            self.persistent_congestion, self.lg_bias, self.asn_change,
            self.transient_congestion,
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError("rates must be probabilities")

    def class_table(self, dual_lg: bool) -> tuple[np.ndarray, tuple[str, ...]]:
        """Cumulative thresholds + labels for the mutually-exclusive draw.

        A uniform deviate ``u`` maps to ``labels[searchsorted(edges, u,
        'right')]``.
        """
        pairs = (
            (self.blackhole, BLACKHOLE),
            (self.os_change, OS_CHANGE),
            (self.stale, STALE),
            (self.rare_ttl, RARE_TTL),
            (self.persistent_congestion, CONGESTED),
            (self.lg_bias if dual_lg else 0.0, LG_BIASED),
            (self.asn_change, ASN_CHANGED),
        )
        edges = np.cumsum([rate for rate, _ in pairs])
        labels = tuple(label for _, label in pairs) + (NORMAL,)
        return edges, labels


@dataclass(frozen=True, slots=True)
class DetectionWorldConfig:
    """Knobs for detection-world generation."""

    seed: int = 42
    specs: tuple[IXPSpec, ...] = ()
    pool: NetworkPoolConfig | None = None
    rates: BehaviorRates = BehaviorRates()
    window: CampaignWindow = CampaignWindow()
    #: Candidate interfaces generated per analyzed interface in Table 1;
    #: 4,706/4,451 reproduces the paper's pre-filter population.
    target_scale: float = 4706.0 / 4451.0
    #: Fraction of members with a second LAN interface.
    second_interface_fraction: float = 0.05
    #: Direct members whose metro tail is long (2-9 ms).
    far_metro_fraction: float = 0.08
    #: Remote slots with deliberately sub-threshold circuits (<10 ms).
    short_remote_fraction: float = 0.08
    #: Whether to add the named validation anchors (E4A/Invitel analogues).
    with_anchors: bool = True
    #: Not settable (passing it raises ``TypeError``).  It stays the last
    #: field so this config's repr — embedded in every detection,
    #: economics and joint trial-spec repr that study fingerprints hash —
    #: is unchanged and stored artifacts stay addressable.
    engine: str = field(default="vectorized", init=False)


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


@dataclass
class DetectionWorld:
    """Everything the Section 3 campaign consumes, plus ground truth."""

    city_db: CityDB
    pool: ColumnarNetworkPool
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


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------


def build_detection_world(
    config: DetectionWorldConfig | None = None,
) -> DetectionWorld:
    """Generate the detection world for ``config`` (fully deterministic)."""
    config = config or DetectionWorldConfig()
    city_db = default_city_db()
    pool = generate_network_pool(
        city_db, config.pool or NetworkPoolConfig(seed=config.seed)
    )
    return _WorldBuilder(config, city_db, pool).build()


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


@dataclass(slots=True)
class _InterfaceDraws:
    """Per-interface stochastic components, drawn as arrays (length n).

    Every quantity is drawn for every slot (in the fixed order listed in
    the module docstring) and selected per behaviour class afterwards —
    the same marginal law as drawing each only where its class needs it.
    """

    behavior: list[str]
    ttl_linux: np.ndarray
    processing: np.ndarray
    rare_ttl_idx: np.ndarray
    os_change_frac: np.ndarray
    blackhole_respond: np.ndarray
    healthy_respond: np.ndarray
    persistent_floor: np.ndarray
    persistent_spread: np.ndarray
    transient_on: np.ndarray
    transient_amp: np.ndarray
    transient_peak: np.ndarray
    far_metro: np.ndarray
    far_tail: np.ndarray
    near_tail: np.ndarray
    site_b: np.ndarray
    provider_pick: np.ndarray
    partner_overhead: np.ndarray
    relocation_u: np.ndarray
    bias_ripe: np.ndarray
    bias_extra: np.ndarray
    stale_rtt: np.ndarray
    stale_hops: np.ndarray
    asn_other: np.ndarray
    asn_change_frac: np.ndarray


class _WorldBuilder:
    """Per-IXP array draws, then object assembly.

    All randomness for one IXP is realized up front as numpy arrays; the
    remaining per-interface loop only constructs devices, ports and truth
    records.  Member selection works on pool indices: boolean masks over
    the pool's columns (home-city matrix index, propensity, continent)
    against one city-distance-matrix row per band.  A pool entry becomes
    a :class:`PooledNetwork` only when the world seats it (:meth:`_seat`).
    """

    pool: ColumnarNetworkPool

    def __init__(
        self,
        config: DetectionWorldConfig,
        city_db: CityDB,
        pool: ColumnarNetworkPool,
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
        #: One shared no-op process: ports without congestion are
        #: indistinguishable, and the batch probe engine skips
        #: ``NoCongestion`` entirely, so sharing is safe and cheap.
        self._no_congestion = NoCongestion()
        self._seated: dict[int, PooledNetwork] = {}

    # -- top level ------------------------------------------------------------

    def build(self) -> DetectionWorld:
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
        return DetectionWorld(
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

    @cached_property
    def _net_city_idx(self) -> np.ndarray:
        """Distance-matrix index of every pool network's home city.

        Built from one padded row of matrix indices per continent, so
        every network's home city is one table lookup.
        """
        by_continent = [
            self.pool.cities_by_continent[c] for c in SCOPE_CONTINENTS
        ]
        table = np.zeros(
            (len(by_continent), max(len(c) for c in by_continent)),
            dtype=np.intp,
        )
        for row, cities in enumerate(by_continent):
            table[row, :len(cities)] = [
                self.matrix.index_of(c.name) for c in cities
            ]
        return table[self.pool.continent_idx, self.pool.city_idx]

    def _seat(self, index: int) -> PooledNetwork:
        """The view of pool entry ``index``, built the first time it is
        seated; an AS seated at several IXPs stays one object."""
        network = self._seated.get(index)
        if network is None:
            network = self._seated[index] = self.pool.network(index)
        return network

    # -- member selection -------------------------------------------------------

    def _weighted_sample_idx(
        self, rng: np.random.Generator, candidates: np.ndarray, count: int
    ) -> np.ndarray:
        """Propensity-weighted sample without replacement from pool indices
        (see :func:`repro.sim.netpool.weighted_index_sample` for the law)."""
        return weighted_index_sample(
            rng, self.pool.propensity[candidates], count, indices=candidates
        )

    def _draw_band_members(
        self,
        spec: IXPSpec,
        rng: np.random.Generator,
        ixp_city: City,
        band: str,
        count: int,
        used: np.ndarray,
    ) -> list[int]:
        """``count`` pool indices homed in ``band``, widening on shortfall."""
        if count <= 0:
            return []
        low, high = _BAND_DISTANCES[band]
        city_mask = self.matrix.band_mask(ixp_city.name, low, high)
        candidates = np.flatnonzero(~used & city_mask[self._net_city_idx])
        picked: list[int] = []
        take = min(count, len(candidates))
        if take:
            chosen = self._weighted_sample_idx(rng, candidates, take)
            used[chosen] = True
            picked.extend(int(i) for i in chosen)
        missing = count - take
        if missing:
            self._note_shortfall(spec, missing)
            widened = np.flatnonzero(~used)
            take = min(missing, len(widened))
            if take:
                chosen = self._weighted_sample_idx(rng, widened, take)
                used[chosen] = True
                picked.extend(int(i) for i in chosen)
        return picked

    def _draw_partner_member(
        self,
        spec: IXPSpec,
        rng: np.random.Generator,
        partner_city: City,
        used: np.ndarray,
    ) -> int | None:
        """One pool index homed near the partner city.

        Falls back from "within 400 km" to "same continent" to "any unused
        network" — the seat is filled whenever the pool has *any* network
        left; the widened draws are counted as shortfall.
        """
        near = self.matrix.band_mask(partner_city.name, 0.0, 400.0)
        candidates = np.flatnonzero(~used & near[self._net_city_idx])
        if not len(candidates):
            continent = SCOPE_CONTINENTS.index(partner_city.continent)
            candidates = np.flatnonzero(
                ~used & (self.pool.continent_idx == continent)
            )
        if not len(candidates):
            self._note_shortfall(spec)
            candidates = np.flatnonzero(~used)
        if not len(candidates):
            return None
        chosen = int(self._weighted_sample_idx(rng, candidates, 1)[0])
        used[chosen] = True
        return chosen

    def _draw_members(
        self,
        spec: IXPSpec,
        rng: np.random.Generator,
        city: City,
        remote_members: int,
        direct_members: int,
    ) -> list[tuple[int, str]]:
        """Pick (pool index, direct|remote-band) pairs for one IXP: directs,
        partner seats, banded remotes, then an interleave shuffle so
        remote and direct members mix in address space."""
        used = np.zeros(len(self.pool), dtype=bool)
        directs = self.pool.sample_member_indices(
            rng, city.continent, direct_members
        )
        used[directs] = True
        chosen = [(int(index), "direct") for index in directs]

        partner_slots = self._partner_slots(spec, city)
        n_partner = min(len(partner_slots), remote_members)
        n_banded = remote_members - n_partner

        short_coin = rng.random(n_banded) < self.config.short_remote_fraction
        band_idx = rng.choice(3, size=n_banded, p=self._band_probabilities(spec))
        band_counts = {"short": int(short_coin.sum())}
        for b, name in enumerate(_BANDS):
            band_counts[name] = int((band_idx[~short_coin] == b).sum())

        for partner_city in partner_slots[:n_partner]:
            index = self._draw_partner_member(spec, rng, partner_city, used)
            if index is not None:
                chosen.append((index, f"partner:{partner_city.name}"))
        for band in ("short", *_BANDS):
            for index in self._draw_band_members(
                spec, rng, city, band, band_counts[band], used
            ):
                chosen.append((index, band))

        order = rng.permutation(len(chosen))
        return [chosen[i] for i in order]

    # -- interface assembly -----------------------------------------------------

    def _draw_interface_arrays(
        self, spec: IXPSpec, rng: np.random.Generator, n: int, dual_lg: bool
    ) -> _InterfaceDraws:
        """All per-interface stochastic components for one IXP at once."""
        edges, labels = self.config.rates.class_table(dual_lg)
        class_idx = np.searchsorted(edges, rng.random(n), side="right")
        return _InterfaceDraws(
            behavior=[labels[k] for k in class_idx],
            ttl_linux=rng.random(n) < 0.5,
            processing=rng.uniform(0.03, 0.25, n),
            rare_ttl_idx=rng.integers(0, len(TTL_RARE), n),
            os_change_frac=rng.uniform(0.15, 0.85, n),
            blackhole_respond=rng.uniform(0.0, 0.10, n),
            healthy_respond=rng.uniform(0.965, 1.0, n),
            persistent_floor=rng.uniform(2.0, 5.0, n),
            persistent_spread=rng.uniform(350.0, 650.0, n),
            transient_on=rng.random(n) < self.config.rates.transient_congestion,
            transient_amp=rng.uniform(0.5, 3.0, n),
            transient_peak=rng.uniform(0.0, 24.0, n),
            far_metro=rng.random(n) < self.config.far_metro_fraction,
            far_tail=rng.uniform(2.0, 9.0, n),
            near_tail=rng.uniform(0.22, 1.9, n),
            site_b=rng.random(n) < 0.4,
            provider_pick=rng.integers(0, len(_MEMBER_PROVIDER_CHOICES), n),
            partner_overhead=rng.uniform(6.5, 11.0, n),
            relocation_u=rng.random(n),
            bias_ripe=rng.random(n) < 0.5,
            bias_extra=rng.uniform(3.0, 25.0, n),
            stale_rtt=rng.uniform(1.0, 18.0, n),
            stale_hops=rng.integers(1, 4, n),
            asn_other=rng.integers(0, len(self.pool), n),
            asn_change_frac=rng.uniform(0.3, 0.7, n),
        )

    def _build_ixp(self, spec: IXPSpec) -> None:
        rng = child_rng(self.config.seed, "ixp", spec.acronym)
        ixp, servers, anchors, target_count, remote_members, direct_members = (
            self._common_ixp_setup(spec, rng)
        )

        members = self._draw_members(
            spec, rng, ixp.city, remote_members, direct_members
        )

        # Expand members into interface slots (second-interface coins are
        # one array draw), capped at the candidate target.
        second = rng.random(len(members)) < self.config.second_interface_fraction
        slots: list[tuple[int, str, int]] = []
        for (pool_index, wanted_kind), extra in zip(members, second):
            slots.append((pool_index, wanted_kind, 0))
            if extra:
                slots.append((pool_index, wanted_kind, 1))
        slots = slots[:target_count]

        dual_lg = spec.has_pch_lg and spec.has_ripe_lg
        draws = self._draw_interface_arrays(spec, rng, len(slots), dual_lg)
        band_cities = {
            band: self._cities_within(ixp.city, low, high)
            for band, (low, high) in _BAND_DISTANCES.items()
        }
        for i, (pool_index, wanted_kind, index) in enumerate(slots):
            self._realize_interface(
                spec, ixp, servers, self._seat(pool_index), wanted_kind,
                index, draws, i, band_cities,
            )
        for asys, kind, provider_name in anchors:
            self._add_anchor_interface(
                spec, ixp, servers, rng, asys, kind, provider_name
            )

    def _device_from_draws(
        self,
        network: AutonomousSystem,
        spec: IXPSpec,
        behavior: str,
        index: int,
        d: _InterfaceDraws,
        i: int,
    ) -> Device:
        ttl = TTL_LINUX if d.ttl_linux[i] else TTL_NETWORK_OS
        kwargs: dict = {
            "name": f"rtr-as{network.asn}-{spec.acronym.lower()}-{index}",
            "ttl_init": ttl,
            "processing_ms": float(d.processing[i]),
        }
        if behavior == RARE_TTL:
            kwargs["ttl_init"] = int(TTL_RARE[d.rare_ttl_idx[i]])
        elif behavior == OS_CHANGE:
            kwargs["ttl_after_change"] = (
                TTL_NETWORK_OS if ttl == TTL_LINUX else TTL_LINUX
            )
            kwargs["os_change_time"] = (
                float(d.os_change_frac[i]) * self.config.window.duration_s
            )
        elif behavior == BLACKHOLE:
            kwargs["respond_probability"] = float(d.blackhole_respond[i])
        else:
            kwargs["respond_probability"] = float(d.healthy_respond[i])
        return Device(**kwargs)

    def _congestion_from_draws(
        self, behavior: str, d: _InterfaceDraws, i: int
    ) -> CongestionProcess:
        if behavior == CONGESTED:
            return PersistentCongestion(
                floor_ms=float(d.persistent_floor[i]),
                spread_ms=float(d.persistent_spread[i]),
            )
        if d.transient_on[i]:
            return TransientCongestion(
                peak_amplitude_ms=float(d.transient_amp[i]),
                peak_hour_utc=float(d.transient_peak[i]),
            )
        return self._no_congestion

    def _realize_interface(
        self,
        spec: IXPSpec,
        ixp: IXP,
        servers: list[LookingGlassServer],
        network: PooledNetwork,
        wanted_kind: str,
        index: int,
        d: _InterfaceDraws,
        i: int,
        band_cities: dict[str, list[City]],
    ) -> None:
        """Assemble one interface from precomputed draws (no RNG calls)."""
        behavior = d.behavior[i]
        device = self._device_from_draws(network.asys, spec, behavior, index, d, i)
        member = ixp.register(network.asys)

        if behavior == STALE:
            self._add_stale_target(
                spec, ixp, servers, network.asys, device,
                base_rtt_ms=float(d.stale_rtt[i]),
                extra_hops=int(d.stale_hops[i]),
            )
            return

        congestion = self._congestion_from_draws(behavior, d, i)
        if wanted_kind == "direct":
            tail = float(d.far_tail[i] if d.far_metro[i] else d.near_tail[i])
            site = "b" if spec.sites > 1 and d.site_b[i] else "main"
            iface = ixp.add_interface(
                member, device, PortKind.DIRECT,
                tail_rtt_ms=tail, congestion=congestion, site=site,
            )
            base_rtt, km, is_remote = tail, 0.0, False
        else:
            iface, base_rtt, km = self._attach_remote_from_draws(
                spec, ixp, member, device, congestion, wanted_kind,
                network.home_city, d, i, band_cities,
            )
            is_remote = True

        if behavior == LG_BIASED:
            operator = "RIPE" if d.bias_ripe[i] else "PCH"
            bias = max(6.0, 0.12 * base_rtt) + float(d.bias_extra[i])
            iface.port.operator_bias[operator] = bias

        asn_change = None
        if behavior == ASN_CHANGED:
            asn_change = (
                ASN(int(self.pool.asn[d.asn_other[i]])),
                float(d.asn_change_frac[i]) * self.config.window.duration_s,
            )
        self._publish(
            spec, ixp, network.asys, iface.address, behavior,
            asn_change=asn_change,
        )
        self._record_truth(
            spec, iface.address, network.asn, is_remote, behavior, base_rtt, km,
        )

    def _attach_remote_from_draws(
        self,
        spec: IXPSpec,
        ixp: IXP,
        member,
        device: Device,
        congestion: CongestionProcess,
        band: str,
        home_city: City,
        d: _InterfaceDraws,
        i: int,
        band_cities: dict[str, list[City]],
    ) -> tuple[MemberInterface, float, float]:
        provider = self.providers[
            _MEMBER_PROVIDER_CHOICES[int(d.provider_pick[i])]
        ]
        if band.startswith("partner:"):
            home_city = self.city_db.get(band.split(":", 1)[1])
            km = home_city.distance_km(ixp.city)
            wire = self._provision_partner_wire(
                provider, home_city, ixp, overhead_ms=float(d.partner_overhead[i])
            )
        else:
            low, high = _BAND_DISTANCES[band]
            km = home_city.distance_km(ixp.city)
            if not low <= km <= high:
                # The member's circuit enters from a provider PoP in the band.
                candidates = band_cities[band]
                if candidates:
                    pick = min(
                        int(d.relocation_u[i] * len(candidates)),
                        len(candidates) - 1,
                    )
                    home_city = candidates[pick]
                    km = home_city.distance_km(ixp.city)
            wire = provider.provision(home_city, ixp.city)
        iface = ixp.add_interface(
            member, device, PortKind.REMOTE,
            pseudowire=wire, congestion=congestion,
        )
        return iface, wire.base_rtt_ms(), km
