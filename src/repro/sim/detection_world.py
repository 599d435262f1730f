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
(:class:`~repro.sim.netpool.ColumnarNetworkPool`) and selects members as
pool indices.  It realizes each IXP's stochastic content as per-IXP
array draws from the ``(seed, "ixp", acronym)`` stream in a fixed order
— the same struct-of-arrays discipline as :mod:`repro.lg.batch`.  Per
IXP the order is: intersite RTT (multi-site only), direct-member sample,
short-circuit coins, band draw, per-band member draws (partner seats
first, then short/intercity/intercountry/intercontinental), interleave
permutation, second-interface coins, behaviour classes, device arrays
(TTL coin, processing, rare TTL, OS-change time, blackhole/healthy
respond), congestion arrays (persistent floor/spread, transient
coin/amplitude/peak), attachment arrays (far-metro coin, far/near tails,
site coin, provider pick, partner overhead, PoP relocation), LG-bias
arrays, stale-target arrays, ASN-change arrays, anchors.  Distance
queries are answered by one precomputed
:class:`repro.geo.distances.CityDistanceMatrix`, shared by every world
built over the same city table.

Interface table
---------------
The draws fill one :class:`InterfaceTable` per world: one row per
candidate interface, IXP-major in catalog order and in address order
within an IXP (member slots first, then the named anchors).  Columns:

* identity — ``ixp`` (row of :attr:`DetectionWorld.exchanges`),
  ``address`` (IPv4 value), ``pool_index`` (-1 for anchors), ``anchor``
  (-1 for pool members), ``asn``, ``device_index`` (the member's 0/1
  interface, -1 for an anchor);
* attachment — ``attachment`` (:data:`ATTACH_DIRECT`,
  :data:`ATTACH_REMOTE`, :data:`ATTACH_STALE`), ``behavior`` (index into
  :data:`BEHAVIORS`), ``tail_rtt_ms`` (metro tail or circuit RTT),
  ``site_b``, ``bias_ms`` (per-operator LG bias, one column per
  :data:`LG_OPERATORS` entry);
* device — ``ttl_init``, ``ttl_after`` (= ``ttl_init`` without an OS
  change), ``os_change_s`` (``+inf`` without one), ``respond_prob``,
  ``processing_ms``, ``reply_hops``;
* off-LAN target — ``offlan_rtt_ms``, ``offlan_hops`` (stale rows);
* congestion — ``congestion`` (:data:`CONGESTION_NONE` /
  ``_TRANSIENT`` / ``_PERSISTENT``) and its two parameters
  ``congestion_a``/``congestion_b`` (amplitude and peak hour, or floor
  and spread);
* registry — ``policy`` (index into :data:`POLICIES`), ``well_known``,
  ``asn_after`` (-1 without a change), ``asn_change_s``; the registry
  ASN is ``asn``;
* truth — ``is_remote``, ``base_rtt_ms``, ``circuit_km``, ``on_lan``;
* circuit — ``home_city`` (distance-matrix index), ``provider``,
  ``partner`` (an inter-IXP interconnect), ``wire_overhead_ms``.

The per-IXP :class:`ExchangeEntry` rows hold the LAN, city, intersite RTT
and looking-glass vantages.  Trials read only these tables.  The object
model — :attr:`DetectionWorld.ixps` with their fabrics, ports and
devices, ``lg_servers``, ``directory``, ``identification``, ``truth``
and the providers' circuits — is built from them in one pass, in catalog
IXP order, the first time any of it is read (the single-run CLI, the
route-server cross-check, structure views, examples).

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

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from repro.bgp.asys import AutonomousSystem
from repro.delaymodel.congestion import (
    CongestionProcess,
    NoCongestion,
    PersistentCongestion,
    TransientCongestion,
)
from repro.errors import AddressError, ConfigurationError
from repro.geo.cities import City, CityDB, default_city_db
from repro.geo.distances import CityDistanceMatrix
from repro.ixp.catalog import IXPSpec, paper_catalog
from repro.ixp.ixp import IXP
from repro.layer2.provider import RemotePeeringProvider
from repro.layer2.pseudowire import Pseudowire
from repro.lg.server import LGVantage, LookingGlassServer, OffLanTarget
from repro.net.addr import IPv4Address, IPv4Prefix, SubnetAllocator
from repro.net.device import (
    TTL_LINUX,
    TTL_NETWORK_OS,
    TTL_RARE,
    VALID_TTLS,
    Device,
)
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
    _POLICY_WEIGHTS,
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

    def __post_init__(self) -> None:
        # One chained test on the fast path: every trial spec ``replace``s
        # this config, and a warm study rerun resolves every trial.
        if (
            0.0 <= self.second_interface_fraction <= 1.0
            and 0.0 <= self.far_metro_fraction <= 1.0
            and 0.0 <= self.short_remote_fraction <= 1.0
            and self.target_scale > 0
        ):
            return
        for name in (
            "second_interface_fraction",
            "far_metro_fraction",
            "short_remote_fraction",
        ):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        raise ConfigurationError("target_scale must be positive")


#: Behaviour labels by table code: the class-table order of
#: :meth:`BehaviorRates.class_table`, so a drawn class index *is* the code.
BEHAVIORS: tuple[str, ...] = (
    BLACKHOLE, OS_CHANGE, STALE, RARE_TTL, CONGESTED, LG_BIASED,
    ASN_CHANGED, NORMAL,
)
_CODE = {label: code for code, label in enumerate(BEHAVIORS)}

#: Attachment codes of the interface table.
ATTACH_DIRECT, ATTACH_REMOTE, ATTACH_STALE = 0, 1, 2

#: Congestion codes of the interface table.
CONGESTION_NONE, CONGESTION_TRANSIENT, CONGESTION_PERSISTENT = 0, 1, 2

#: LG operators, one ``bias_ms`` column each (sorted, so the campaign's
#: per-operator order is this order).
LG_OPERATORS: tuple[str, ...] = ("PCH", "RIPE")

#: Registry policy codes: the pool's policy-index order.
POLICIES: tuple[PeeringPolicy, ...] = tuple(_POLICY_WEIGHTS)

#: Identification sources in the paper's order, with their coverage.
IDENTIFICATION_COVERAGE: tuple[tuple[str, float], ...] = (
    ("peeringdb", 0.54),
    ("website", 0.30),
    ("rdns", 0.16),
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


@dataclass(frozen=True, slots=True)
class ExchangeEntry:
    """One IXP of a detection world: what its interface rows share."""

    spec: IXPSpec
    city: City
    lan: IPv4Prefix
    #: Backhaul RTT between the main site and site "b" (None: one site).
    intersite_rtt_ms: float | None
    #: Looking glasses in address order (PCH before RIPE).
    vantages: tuple[LGVantage, ...]
    #: This IXP's rows of the interface table: ``[start, stop)``.
    start: int
    stop: int

    @property
    def acronym(self) -> str:
        return self.spec.acronym


@dataclass(eq=False)
class InterfaceTable:
    """Every candidate interface of a world as columns (see the module
    docstring for their meaning)."""

    ixp: np.ndarray
    address: np.ndarray
    pool_index: np.ndarray
    anchor: np.ndarray
    asn: np.ndarray
    device_index: np.ndarray
    attachment: np.ndarray
    behavior: np.ndarray
    tail_rtt_ms: np.ndarray
    site_b: np.ndarray
    bias_ms: np.ndarray  # (rows, len(LG_OPERATORS))
    ttl_init: np.ndarray
    ttl_after: np.ndarray
    os_change_s: np.ndarray
    respond_prob: np.ndarray
    processing_ms: np.ndarray
    reply_hops: np.ndarray
    offlan_rtt_ms: np.ndarray
    offlan_hops: np.ndarray
    congestion: np.ndarray
    congestion_a: np.ndarray
    congestion_b: np.ndarray
    policy: np.ndarray
    well_known: np.ndarray
    asn_after: np.ndarray
    asn_change_s: np.ndarray
    is_remote: np.ndarray
    base_rtt_ms: np.ndarray
    circuit_km: np.ndarray
    on_lan: np.ndarray
    home_city: np.ndarray
    provider: np.ndarray
    partner: np.ndarray
    wire_overhead_ms: np.ndarray

    def __len__(self) -> int:
        return len(self.address)

    @classmethod
    def concat(cls, parts: list[dict[str, np.ndarray]]) -> "InterfaceTable":
        """One table from per-IXP column dicts, in order."""
        return cls(**{
            f.name: np.concatenate([part[f.name] for part in parts])
            for f in fields(cls)
        })

    @cached_property
    def _row_keys(self) -> tuple[np.ndarray, np.ndarray]:
        keys = (self.ixp.astype(np.int64) << 32) | self.address
        order = np.argsort(keys, kind="stable")
        return keys[order], order

    def find_rows(self, ixp: np.ndarray, address: np.ndarray) -> np.ndarray:
        """Table rows of (IXP row, address) pairs; -1 where none exists."""
        keys, order = self._row_keys
        wanted = (np.asarray(ixp, dtype=np.int64) << 32) | np.asarray(
            address, dtype=np.int64
        )
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return np.where(keys[at] == wanted, order[at], -1)


#: Fill value and dtype of every interface-table column, for rows that do
#: not set it: an unowned direct interface of a healthy, uncongested,
#: unbiased device, with no circuit and no registry change.
_COLUMN_DEFAULTS: dict[str, tuple[object, type]] = {
    "ixp": (-1, np.int64), "address": (0, np.int64),
    "pool_index": (-1, np.int64), "anchor": (-1, np.int64),
    "asn": (-1, np.int64), "device_index": (-1, np.int64),
    "attachment": (ATTACH_DIRECT, np.int64),
    "behavior": (_CODE[NORMAL], np.int64),
    "tail_rtt_ms": (0.0, float), "site_b": (False, bool),
    "bias_ms": (0.0, float),
    "ttl_init": (TTL_NETWORK_OS, np.int64),
    "ttl_after": (TTL_NETWORK_OS, np.int64),
    "os_change_s": (np.inf, float), "respond_prob": (1.0, float),
    "processing_ms": (0.0, float), "reply_hops": (0, np.int64),
    "offlan_rtt_ms": (0.0, float), "offlan_hops": (0, np.int64),
    "congestion": (CONGESTION_NONE, np.int64),
    "congestion_a": (0.0, float), "congestion_b": (0.0, float),
    "policy": (POLICIES.index(PeeringPolicy.OPEN), np.int64),
    "well_known": (False, bool), "asn_after": (-1, np.int64),
    "asn_change_s": (np.nan, float), "is_remote": (False, bool),
    "base_rtt_ms": (0.0, float), "circuit_km": (0.0, float),
    "on_lan": (True, bool), "home_city": (-1, np.int64),
    "provider": (-1, np.int64), "partner": (False, bool),
    "wire_overhead_ms": (0.0, float),
}


def _rows(n: int, **columns: np.ndarray) -> dict[str, np.ndarray]:
    """``n`` table rows: the given columns, and the defaults for the rest."""
    for name, (value, dtype) in _COLUMN_DEFAULTS.items():
        if name not in columns:
            shape = (n, len(LG_OPERATORS)) if name == "bias_ms" else n
            columns[name] = np.full(shape, value, dtype=dtype)
    return columns


@dataclass(slots=True)
class _WorldViews:
    """The object model of one world, built from its tables on demand."""

    ixps: dict[str, IXP]
    lg_servers: dict[str, list[LookingGlassServer]]
    directory: IXPDirectory
    identification: IdentificationPipeline
    truth: dict[tuple[str, int], InterfaceTruth]


class DetectionWorld:
    """Everything the Section 3 campaign consumes, plus ground truth.

    Trials read :attr:`table` and :attr:`exchanges`.  The object views
    (``ixps``, ``lg_servers``, ``directory``, ``identification``,
    ``truth`` and the providers' circuits) are built on first access.
    """

    def __init__(
        self,
        *,
        city_db: CityDB,
        pool: ColumnarNetworkPool,
        window: CampaignWindow,
        config: "DetectionWorldConfig",
        table: InterfaceTable,
        exchanges: tuple[ExchangeEntry, ...],
        providers: list[RemotePeeringProvider],
        anchors: tuple[AutonomousSystem, ...],
        matrix: CityDistanceMatrix,
        partnerships: list,
        shortfall: dict[str, int],
    ) -> None:
        self.city_db = city_db
        self.pool = pool
        self.window = window
        self.config = config
        self.table = table
        self.exchanges = exchanges
        self.anchors = anchors
        self.matrix = matrix
        self.partnerships = partnerships
        #: Per-IXP count of remote-member draws that found no candidate in
        #: their nominal distance band (filled from a widened band, or —
        #: only when the whole pool was exhausted — dropped).  0 for every
        #: IXP of the paper catalog; custom scenarios read it to see how
        #: far their candidate counts drifted from calibration.
        self.shortfall = shortfall
        self._providers = providers
        self._views: _WorldViews | None = None

    # -- object views ------------------------------------------------------------

    def _realized(self) -> _WorldViews:
        if self._views is None:
            self._views = _realize_views(self)
        return self._views

    @property
    def ixps(self) -> dict[str, IXP]:
        return self._realized().ixps

    @property
    def lg_servers(self) -> dict[str, list[LookingGlassServer]]:
        return self._realized().lg_servers

    @property
    def directory(self) -> IXPDirectory:
        return self._realized().directory

    @property
    def identification(self) -> IdentificationPipeline:
        return self._realized().identification

    @property
    def truth(self) -> dict[tuple[str, int], InterfaceTruth]:
        return self._realized().truth

    @property
    def providers(self) -> list[RemotePeeringProvider]:
        self._realized()
        return self._providers

    # -- table reads ----------------------------------------------------------------

    @cached_property
    def exchange_index(self) -> dict[str, int]:
        """Row of :attr:`exchanges` per IXP acronym."""
        return {entry.acronym: i for i, entry in enumerate(self.exchanges)}

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
        return len(self.table)

    def remote_truth_count(self, ixp_acronym: str | None = None) -> int:
        """Ground-truth remote interfaces (optionally for one IXP)."""
        remote = self.table.is_remote
        if ixp_acronym is not None:
            index = self.exchange_index.get(ixp_acronym)
            if index is None:
                return 0
            remote = remote & (self.table.ixp == index)
        return int(remote.sum())

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

    behavior: np.ndarray  # codes into BEHAVIORS
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
    """Per-IXP array draws into interface-table columns.

    All randomness for one IXP is realized up front as numpy arrays and
    selected per behaviour class into columns; only the remote rows (a
    few dozen per IXP) loop in Python, for their circuit geometry.
    Member selection works on pool indices: boolean masks over the
    pool's columns (home-city matrix index, propensity, continent)
    against one city-distance-matrix row per band.  No per-interface
    object is built here (see :func:`_realize_views`).
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
        self.matrix = CityDistanceMatrix.for_cities(city_db)
        self.pool = pool
        self.providers = _make_providers(config.seed, self.specs, city_db)
        self.partnerships: list = []
        self.shortfall: dict[str, int] = {}
        self._lans = SubnetAllocator(IPv4Prefix.parse("193.128.0.0/10"), 22)
        self._anchor_asn = ASN(64_600)
        self._anchors: list[AutonomousSystem] = []
        self._anchor_plan: dict[str, list[tuple[int, str, str]]] = {}
        self._columns: list[dict[str, np.ndarray]] = []
        self._exchanges: list[ExchangeEntry] = []
        self._rows = 0

    # -- top level ------------------------------------------------------------

    def build(self) -> DetectionWorld:
        if self.config.with_anchors:
            self._plan_anchors()
        for spec in self.specs:
            self.shortfall.setdefault(spec.acronym, 0)
            self._build_ixp(spec)
        return DetectionWorld(
            city_db=self.city_db,
            pool=self.pool,
            window=self.config.window,
            config=self.config,
            table=InterfaceTable.concat(self._columns),
            exchanges=tuple(self._exchanges),
            providers=self.providers,
            anchors=tuple(self._anchors),
            matrix=self.matrix,
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
            self._anchors.append(asys)
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
        index = {id(asys): i for i, asys in enumerate(self._anchors)}
        for ixp_acr, asys, kind, provider in plan:
            self._anchor_plan.setdefault(ixp_acr, []).append(
                (index[id(asys)], kind, provider)
            )

    # -- shared geometry -------------------------------------------------------

    @staticmethod
    def _band_probabilities(spec: IXPSpec) -> np.ndarray:
        """Normalized band odds; all-zero ``band_weights`` fall back to
        a uniform draw over the three bands."""
        weights = np.array(spec.band_weights, dtype=float)
        total = weights.sum()
        if total <= 0:
            return np.full(3, 1.0 / 3.0)
        return weights / total

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

    # -- interface columns ------------------------------------------------------

    def _draw_interface_arrays(
        self, spec: IXPSpec, rng: np.random.Generator, n: int, dual_lg: bool
    ) -> _InterfaceDraws:
        """All per-interface stochastic components for one IXP at once."""
        edges, _ = self.config.rates.class_table(dual_lg)
        return _InterfaceDraws(
            behavior=np.searchsorted(edges, rng.random(n), side="right"),
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
        city = self.city_db.get(spec.city_name)
        lan = self._lans.allocate()
        intersite = float(rng.uniform(0.15, 0.5)) if spec.sites > 1 else None
        if intersite is not None and intersite < 0:
            raise ConfigurationError("inter-site RTT cannot be negative")
        vantages = tuple(
            LGVantage.at(operator, spec.acronym)
            for operator, present in (
                ("PCH", spec.has_pch_lg), ("RIPE", spec.has_ripe_lg)
            )
            if present
        )
        anchors = self._anchor_plan.get(spec.acronym, [])
        target_count = round(spec.analyzed_interfaces * self.config.target_scale)
        target_count = max(1, target_count - len(anchors))
        membership_count = max(
            1, round(target_count / (1.0 + self.config.second_interface_fraction))
        )
        remote_members = round(spec.remote_fraction * membership_count)
        direct_members = membership_count - remote_members

        members = self._draw_members(
            spec, rng, city, remote_members, direct_members
        )

        # Expand members into interface slots (second-interface coins are
        # one array draw), capped at the candidate target.
        second = rng.random(len(members)) < self.config.second_interface_fraction
        slot_member = np.repeat(
            np.arange(len(members)), 1 + second.astype(np.intp)
        )[:target_count]
        device_index = np.zeros(len(slot_member), dtype=np.int64)
        device_index[1:] = slot_member[1:] == slot_member[:-1]
        pool_index = np.array(
            [index for index, _ in members], dtype=np.int64
        )[slot_member]
        kinds = [members[m][1] for m in slot_member.tolist()]

        dual_lg = spec.has_pch_lg and spec.has_ripe_lg
        draws = self._draw_interface_arrays(spec, rng, len(slot_member), dual_lg)
        columns = self._slot_columns(
            spec, city, pool_index, device_index, kinds, draws
        )
        if anchors:
            columns = {
                name: np.concatenate([columns[name], part])
                for name, part in self._anchor_columns(
                    spec, city, rng, anchors
                ).items()
            }

        rows = len(columns["asn"])
        first_host = len(vantages) + 1
        if len(vantages) + rows > lan.usable_hosts():
            raise AddressError(
                f"host index {lan.usable_hosts() + 1} out of range for {lan}"
            )
        columns["address"] = lan.network.value + first_host + np.arange(
            rows, dtype=np.int64
        )
        columns["ixp"] = np.full(rows, len(self._exchanges), dtype=np.int64)
        _check_rows(columns)
        self._columns.append(columns)
        self._exchanges.append(
            ExchangeEntry(
                spec=spec,
                city=city,
                lan=lan,
                intersite_rtt_ms=intersite,
                vantages=vantages,
                start=self._rows,
                stop=self._rows + rows,
            )
        )
        self._rows += rows

    def _slot_columns(
        self,
        spec: IXPSpec,
        city: City,
        pool_index: np.ndarray,
        device_index: np.ndarray,
        kinds: list[str],
        d: _InterfaceDraws,
    ) -> dict[str, np.ndarray]:
        """Member-slot columns from one IXP's draws (no RNG calls)."""
        n = len(pool_index)
        behavior = d.behavior
        stale = behavior == _CODE[STALE]
        direct = np.array([k == "direct" for k in kinds], dtype=bool) & ~stale
        remote = ~direct & ~stale
        duration = self.config.window.duration_s

        ttl = np.where(d.ttl_linux, TTL_LINUX, TTL_NETWORK_OS)
        rare = behavior == _CODE[RARE_TTL]
        os_change = behavior == _CODE[OS_CHANGE]
        ttl_init = np.where(rare, np.asarray(TTL_RARE)[d.rare_ttl_idx], ttl)
        flipped = np.where(ttl == TTL_LINUX, TTL_NETWORK_OS, TTL_LINUX)
        respond = np.where(
            behavior == _CODE[BLACKHOLE], d.blackhole_respond, d.healthy_respond
        )
        # Rare-TTL and OS-change devices answer every probe (the device
        # default): their filters key on the TTL, not on loss.
        respond = np.where(rare | os_change, 1.0, respond)

        persistent = ~stale & (behavior == _CODE[CONGESTED])
        transient = ~stale & ~persistent & d.transient_on
        congestion = np.where(
            persistent, CONGESTION_PERSISTENT,
            np.where(transient, CONGESTION_TRANSIENT, CONGESTION_NONE),
        )

        tail = np.where(direct, np.where(d.far_metro, d.far_tail, d.near_tail), 0.0)
        home_city = np.full(n, -1, dtype=np.int64)
        provider = np.full(n, -1, dtype=np.int64)
        partner = np.zeros(n, dtype=bool)
        overhead = np.zeros(n)
        km = np.zeros(n)
        band_cities: dict[str, list[City]] = {}
        for i in np.flatnonzero(remote).tolist():
            (
                home_city[i], provider[i], partner[i], overhead[i], km[i],
                tail[i],
            ) = self._remote_circuit(
                city, kinds[i], int(pool_index[i]), d, i, band_cities
            )

        base_rtt = np.where(stale, d.stale_rtt, tail)
        bias = np.zeros((n, len(LG_OPERATORS)))
        biased = np.flatnonzero(behavior == _CODE[LG_BIASED])
        bias[biased, d.bias_ripe[biased].astype(np.intp)] = (
            np.maximum(6.0, 0.12 * base_rtt[biased]) + d.bias_extra[biased]
        )
        changed = behavior == _CODE[ASN_CHANGED]
        return _rows(n, **{
            "pool_index": pool_index,
            "asn": self.pool.asn[pool_index],
            "device_index": device_index,
            "attachment": np.where(
                stale, ATTACH_STALE, np.where(direct, ATTACH_DIRECT, ATTACH_REMOTE)
            ),
            "behavior": behavior,
            "tail_rtt_ms": tail,
            "site_b": direct & d.site_b & (spec.sites > 1),
            "bias_ms": bias,
            "ttl_init": ttl_init,
            "ttl_after": np.where(os_change, flipped, ttl_init),
            "os_change_s": np.where(
                os_change, d.os_change_frac * duration, np.inf
            ),
            "respond_prob": respond,
            "processing_ms": d.processing,
            "offlan_rtt_ms": np.where(stale, d.stale_rtt, 0.0),
            "offlan_hops": np.where(stale, d.stale_hops, 0),
            "congestion": congestion,
            "congestion_a": np.where(
                persistent, d.persistent_floor,
                np.where(transient, d.transient_amp, 0.0),
            ),
            "congestion_b": np.where(
                persistent, d.persistent_spread,
                np.where(transient, d.transient_peak, 0.0),
            ),
            "policy": self.pool.policy_idx[pool_index],
            "asn_after": np.where(changed, self.pool.asn[d.asn_other], -1),
            "asn_change_s": np.where(
                changed, d.asn_change_frac * duration, np.nan
            ),
            "is_remote": remote,
            "base_rtt_ms": base_rtt,
            "circuit_km": km,
            "on_lan": ~stale,
            "home_city": home_city,
            "provider": provider,
            "partner": partner,
            "wire_overhead_ms": overhead,
        })

    def _remote_circuit(
        self,
        city: City,
        band: str,
        pool_index: int,
        d: _InterfaceDraws,
        i: int,
        band_cities: dict[str, list[City]],
    ) -> tuple[int, int, bool, float, float, float]:
        """(home city, provider, partner, overhead, km, circuit RTT) of
        one remote slot; the RTT is the pseudowire's, bit for bit."""
        provider_index = _MEMBER_PROVIDER_CHOICES[int(d.provider_pick[i])]
        provider = self.providers[provider_index]
        if band.startswith("partner:"):
            home_city = self.city_db.get(band.split(":", 1)[1])
            km = home_city.distance_km(city)
            overhead = float(d.partner_overhead[i])
            if overhead < 0:
                raise ConfigurationError("pseudowire overhead cannot be negative")
        else:
            home_city = self.matrix.cities[int(self._net_city_idx[pool_index])]
            low, high = _BAND_DISTANCES[band]
            km = home_city.distance_km(city)
            if not low <= km <= high:
                # The member's circuit enters from a provider PoP in the band.
                if band not in band_cities:
                    band_cities[band] = self.matrix.within(city.name, low, high)
                candidates = band_cities[band]
                if candidates:
                    pick = min(
                        int(d.relocation_u[i] * len(candidates)),
                        len(candidates) - 1,
                    )
                    home_city = candidates[pick]
                    km = home_city.distance_km(city)
            _check_presence(provider, city)
            overhead = provider.overhead_ms
        rtt = provider.latency_model.baseline_rtt_ms(km) + overhead
        return (
            self.matrix.index_of(home_city), provider_index,
            band.startswith("partner:"), overhead, km, rtt,
        )

    def _anchor_columns(
        self,
        spec: IXPSpec,
        city: City,
        rng: np.random.Generator,
        anchors: list[tuple[int, str, str]],
    ) -> dict[str, np.ndarray]:
        """The named anchors' rows (direct anchors draw their tails here)."""
        columns = _rows(len(anchors))
        for i, (anchor, kind, provider_name) in enumerate(anchors):
            asys = self._anchors[anchor]
            columns["anchor"][i] = anchor
            columns["asn"][i] = int(asys.asn)
            if kind == "direct":
                columns["tail_rtt_ms"][i] = float(rng.uniform(0.3, 1.2))
                continue
            index = next(
                k for k, p in enumerate(self.providers) if p.name == provider_name
            )
            provider = self.providers[index]
            assert asys.home_city is not None
            _check_presence(provider, city)
            km = asys.home_city.distance_km(city)
            columns["tail_rtt_ms"][i] = (
                provider.latency_model.baseline_rtt_ms(km) + provider.overhead_ms
            )
            columns["circuit_km"][i] = km
            columns["wire_overhead_ms"][i] = provider.overhead_ms
            columns["home_city"][i] = self.matrix.index_of(asys.home_city)
            columns["provider"][i] = index
            columns["attachment"][i] = ATTACH_REMOTE
            columns["is_remote"][i] = True
        columns["base_rtt_ms"] = columns["tail_rtt_ms"].copy()
        columns["respond_prob"][:] = 0.99
        columns["processing_ms"][:] = 0.08
        columns["well_known"][:] = True
        return columns


def _check_presence(provider: RemotePeeringProvider, city: City) -> None:
    if not provider.serves(city):
        raise ConfigurationError(
            f"{provider.name} has no presence at {city.name}"
        )


def _check_rows(columns: dict[str, np.ndarray]) -> None:
    """The object model's construction checks, as array checks."""

    valid = np.array(sorted(VALID_TTLS))
    for column, label in (("ttl_init", "initial"), ("ttl_after", "post-change")):
        bad = ~(columns[column][:, None] == valid).any(axis=1)
        if bad.any():
            raise ConfigurationError(
                f"unrealistic {label} TTL {columns[column][bad][0]}"
            )
    respond = columns["respond_prob"]
    if ((respond < 0.0) | (respond > 1.0)).any():
        raise ConfigurationError("respond_probability must be in [0, 1]")
    if (columns["processing_ms"] < 0).any():
        raise ConfigurationError("processing_ms cannot be negative")
    if (columns["reply_hops"] < 0).any():
        raise ConfigurationError("reply_hops cannot be negative")
    on_lan = columns["on_lan"]
    if (columns["tail_rtt_ms"][on_lan] < 0).any():
        raise ConfigurationError("tail RTT cannot be negative")
    if (columns["offlan_rtt_ms"][~on_lan] < 0).any():
        raise ConfigurationError("base RTT cannot be negative")
    if (columns["offlan_hops"][~on_lan] < 1).any():
        raise ConfigurationError("an off-LAN target needs >= 1 extra hop")


# ---------------------------------------------------------------------------
# object views
# ---------------------------------------------------------------------------


def congestion_process(kind: int, a: float, b: float) -> CongestionProcess:
    """The congestion process of one table row (constructed, so validated)."""
    if kind == CONGESTION_PERSISTENT:
        return PersistentCongestion(floor_ms=a, spread_ms=b)
    if kind == CONGESTION_TRANSIENT:
        return TransientCongestion(peak_amplitude_ms=a, peak_hour_utc=b)
    return NoCongestion()


def _realize_views(world: DetectionWorld) -> _WorldViews:
    """Build the object model from the tables, in catalog IXP order.

    Member registration, provider circuit order, device names and LG
    addresses follow the rows in order, so the objects are the ones the
    tables describe: every port's tail, every device's ICMP behaviour and
    every registry record reads the row it came from.
    """
    t = world.table
    providers = world._providers
    no_congestion = NoCongestion()
    seated: dict[int, PooledNetwork] = {}
    ixps: dict[str, IXP] = {}
    lg_servers: dict[str, list[LookingGlassServer]] = {}
    directory = IXPDirectory()
    truth: dict[tuple[str, int], InterfaceTruth] = {}
    c = {f.name: getattr(t, f.name).tolist() for f in fields(InterfaceTable)}
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
        ixps[acronym] = ixp
        servers = [
            LookingGlassServer.create(
                vantage.operator, acronym, ixp.fabric, ixp.allocate_address()
            )
            for vantage in entry.vantages
        ]
        lg_servers[acronym] = servers
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
                    provider = providers[c["provider"][r]]
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
            directory.add(record)
            truth[(acronym, address.value)] = InterfaceTruth(
                ixp_acronym=acronym,
                address=address,
                asn=ASN(c["asn"][r]),
                is_remote=c["is_remote"][r],
                behavior=behavior,
                base_rtt_ms=c["base_rtt_ms"][r],
                circuit_km=c["circuit_km"][r],
                on_lan=c["attachment"][r] != ATTACH_STALE,
            )
    seed = world.config.seed
    sources = dict(IDENTIFICATION_COVERAGE)
    identification = IdentificationPipeline(
        peeringdb=PeeringDBSource(
            directory, coverage=sources["peeringdb"], seed=seed
        ),
        website=IXPWebsiteSource(directory, coverage=sources["website"], seed=seed),
        rdns=ReverseDNSSource(directory, coverage=sources["rdns"], seed=seed),
    )
    return _WorldViews(
        ixps=ixps,
        lg_servers=lg_servers,
        directory=directory,
        identification=identification,
        truth=truth,
    )
