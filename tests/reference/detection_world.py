"""The seed implementation of the detection-world builder.

:class:`ScalarWorldBuilder` draws each IXP's members one at a time from
an object :class:`~tests.reference.netpool.NetworkPool` (drawn by the
per-network pool loop) and realizes every interface attribute with its
own draw, in interface order, from the same ``(seed, "ixp", acronym)``
streams the product builder opens.  Everything that is not a draw —
IXP shells, looking glasses, partnerships, anchors, stale targets,
registry records and the world assembly — is inherited from
:class:`repro.sim.detection_world._WorldBuilder`, so the two builders
differ only in how they draw.  They agree in distribution, not
member-for-member (``tests/test_world_builder_engines.py``).
"""

from __future__ import annotations

import numpy as np

from repro.bgp.asys import AutonomousSystem
from repro.delaymodel.congestion import PersistentCongestion, TransientCongestion
from repro.geo.cities import City, default_city_db
from repro.ixp.catalog import IXPSpec
from repro.ixp.ixp import IXP
from repro.layer2.provider import RemotePeeringProvider
from repro.lg.server import LookingGlassServer
from repro.net.device import Device, TTL_LINUX, TTL_NETWORK_OS, TTL_RARE
from repro.rand import child_rng
from repro.sim.detection_world import (
    _BAND_DISTANCES,
    _BANDS,
    _MEMBER_PROVIDER_CHOICES,
    ASN_CHANGED,
    BLACKHOLE,
    CONGESTED,
    LG_BIASED,
    OS_CHANGE,
    RARE_TTL,
    STALE,
    DetectionWorld,
    DetectionWorldConfig,
    _WorldBuilder,
)
from repro.sim.netpool import NetworkPoolConfig, PooledNetwork
from repro.types import ASN, PortKind
from tests.reference.netpool import NetworkPool, generate_scalar_pool


def build_scalar_detection_world(
    config: DetectionWorldConfig | None = None,
) -> DetectionWorld:
    """The detection world for ``config``, drawn by the reference builder
    over the reference pool."""
    config = config or DetectionWorldConfig()
    city_db = default_city_db()
    pool = generate_scalar_pool(
        city_db, config.pool or NetworkPoolConfig(seed=config.seed)
    )
    return ScalarWorldBuilder(config, city_db, pool).build()


class ScalarWorldBuilder(_WorldBuilder):
    """One draw per interface attribute, over an object pool."""

    pool: NetworkPool  # type: ignore[assignment]

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
