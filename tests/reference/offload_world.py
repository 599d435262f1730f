"""The one-network-at-a-time offload-world builder.

:class:`ScalarOffloadBuilder` inherits every draw-bearing stage of
:class:`repro.sim.offload_world._OffloadBuilder` and replaces only the
two drawn-tier stages: it inserts each network and each edge through
the fully checked ``ASGraph.add_as`` / ``add_customer_provider`` calls
instead of the bulk array APIs.  It consumes the identical draws, so it
must build bit-identical worlds — which is what validates the bulk fast
paths (``tests/test_offload_world_engines.py``).
"""

from __future__ import annotations

from repro.sim.offload_world import (
    _REGIONS,
    _STUB_KINDS,
    OffloadWorld,
    OffloadWorldConfig,
    _OffloadBuilder,
    _StubDraws,
    _Tier2Draws,
)
from repro.types import ASN, NetworkKind


def build_scalar_offload_world(
    config: OffloadWorldConfig | None = None,
) -> OffloadWorld:
    """The offload world for ``config``, inserted network by network."""
    return ScalarOffloadBuilder(config or OffloadWorldConfig()).build()


class ScalarOffloadBuilder(_OffloadBuilder):
    """Materializes the drawn arrays through the fully-checked graph APIs."""

    def _materialize_tier2s(
        self, tier1s: list[ASN], draws: _Tier2Draws
    ) -> list[ASN]:
        cfg = self.config
        tier2s = []
        for i in range(cfg.tier2_count):
            region = _REGIONS[int(draws.region_idx[i])]
            mega = i < cfg.mega_carrier_count
            tier2 = self._add(
                3001 + i, f"transit-{region}-{i}", NetworkKind.TRANSIT,
                draws.policy(i, mega), region, 2 ** 16,
            )
            for u in draws.uplink_order[i, : int(draws.uplink_count[i])]:
                self.graph.add_customer_provider(tier2, tier1s[int(u)])
            if mega:
                self.mega_carriers.append(tier2)
            propensity = self._tier2_propensity(i)
            if propensity is not None:
                self.ixp_propensity[tier2] = propensity
            tier2s.append(tier2)
        return tier2s

    def _materialize_stubs(
        self, tier1s: list[ASN], tier2s: list[ASN], draws: _StubDraws
    ) -> list[ASN]:
        cfg = self.config
        n = len(draws.region_idx)
        tier2_by_region: dict[str, list[ASN]] = {r: [] for r in _REGIONS}
        for t in tier2s:
            tier2_by_region[self.region_of[t]].append(t)
        stubs = []
        eyeball_row = tier1_only_row = normal_row = 0
        for i in range(n):
            region = _REGIONS[int(draws.region_idx[i])]
            big_eyeball = bool(draws.big_eyeball[i])
            kind = (
                NetworkKind.ACCESS if big_eyeball
                else _STUB_KINDS[int(draws.kind_idx[i])]
            )
            stub = self._add(
                10_001 + i, f"stub-{region}-{i}", kind, draws.policy(i), region,
            )
            self._stub_kinds.append(kind)
            if big_eyeball:
                self._home_big_eyeball(stub, tier1s, draws, eyeball_row)
                eyeball_row += 1
                self.graph.get(stub).tags.add("big-eyeball")
                self.big_eyeballs.append(stub)
            elif draws.tier1_only[i]:
                self._home_tier1_only(stub, tier1s, draws, tier1_only_row, i)
                tier1_only_row += 1
                self.tier1_only_stubs.append(stub)
            else:
                self._home_stub(stub, region, tier2_by_region, tier2s,
                                draws, normal_row, i)
                normal_row += 1
                if draws.ixpgoer[i]:
                    self.ixp_propensity[stub] = float(draws.propensity[i])
            stubs.append(stub)
        self.tier1_only_stubs_set = set(self.tier1_only_stubs)
        return stubs

    def _home_big_eyeball(self, stub, tier1s, draws: _StubDraws, row: int) -> None:
        """Big eyeballs multihome to tier-1s, often plus one mega-carrier."""
        for p in draws.eyeball_order[row, :2]:
            self.graph.add_customer_provider(stub, tier1s[int(p)])
        if self.mega_carriers and draws.eyeball_mega_homed[row]:
            mega = self.mega_carriers[
                int(draws.eyeball_mega_pick_u[row] * len(self.mega_carriers))
            ]
            self.graph.add_customer_provider(stub, mega)

    def _home_tier1_only(self, stub, tier1s, draws: _StubDraws,
                         row: int, i: int) -> None:
        count = min(int(draws.provider_count[i]), 3)
        for p in draws.tier1_only_order[row, :count]:
            self.graph.add_customer_provider(stub, tier1s[int(p)])

    def _home_stub(self, stub, region, tier2_by_region, tier2s,
                   draws: _StubDraws, row: int, i: int) -> None:
        local = tier2_by_region[region]
        u = draws.pool_u[i]
        if u < 0.15 and self.mega_carriers:
            pool = self.mega_carriers
        elif u < 0.85 and local:
            pool = local
        else:
            pool = tier2s
        for j in range(int(draws.provider_count[i])):
            provider = pool[int(draws.pick_u[row, j] * len(pool))]
            if self.graph.relationship(stub, provider) is None:
                self.graph.add_customer_provider(stub, provider)
