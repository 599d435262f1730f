"""Individual identification sources with per-source coverage.

Each source answers "which ASN owns this address?" for a deterministic
subset of the directory.  Coverage membership is decided by seeded hashing,
so a given (source, address) pair always answers the same way — exactly how
a real registry's gaps behave across a campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigurationError
from repro.net.addr import IPv4Address
from repro.rand import derive_seed
from repro.registry.records import IXPDirectory
from repro.types import ASN


@lru_cache(maxsize=1 << 18)
def _coverage_draw(seed: int, label: str, value: int) -> int:
    # The sha256-based draw is pure in (seed, label, address); campaigns
    # look every address up at both campaign endpoints and across sources,
    # so the memo halves identification cost.
    return derive_seed(seed, label, value) % 10_000


def _covered(seed: int, label: str, address: IPv4Address, coverage: float) -> bool:
    """Deterministic membership test: is ``address`` in this source's view?"""
    return _coverage_draw(seed, label, address.value) < coverage * 10_000


def _record_answers(
    source, label: str, ixp: str, address: IPv4Address, times: tuple[float, ...]
) -> list[ASN | None]:
    """Per-time answers with one record resolution and one coverage draw.

    Coverage membership is pure in (seed, source, address) — time never
    enters the draw — so the record is resolved once and ``asn_at`` read
    per time.
    """
    record = source.directory.record_for(ixp, address)
    if not record.well_known and not _covered(
        source.seed, label, address, source.coverage
    ):
        return [None] * len(times)
    return [record.asn_at(t) for t in times]


@dataclass(frozen=True, slots=True)
class PeeringDBSource:
    """PeeringDB-style lookup: good ASN data, partial coverage."""

    directory: IXPDirectory
    coverage: float = 0.58
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise ConfigurationError("coverage must be in [0, 1]")

    def answers(
        self, ixp: str, address: IPv4Address, times: tuple[float, ...]
    ) -> list[ASN | None]:
        """The ASN for (ixp, address) at each time, None if not covered."""
        return _record_answers(self, "peeringdb", ixp, address, times)


@dataclass(frozen=True, slots=True)
class IXPWebsiteSource:
    """IXP member-list pages: different coverage, same underlying truth."""

    directory: IXPDirectory
    coverage: float = 0.42
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise ConfigurationError("coverage must be in [0, 1]")

    def answers(
        self, ixp: str, address: IPv4Address, times: tuple[float, ...]
    ) -> list[ASN | None]:
        """The ASN for (ixp, address) at each time, None if not covered."""
        return _record_answers(self, "website", ixp, address, times)


@dataclass(frozen=True, slots=True)
class ReverseDNSSource:
    """Reverse DNS: PTR names like ``as8903.ams-ix.example.net``.

    Coverage is the lowest of the three sources; when a PTR record exists
    we parse the ASN out of the hostname.
    """

    directory: IXPDirectory
    coverage: float = 0.30
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise ConfigurationError("coverage must be in [0, 1]")

    def answers(
        self, ixp: str, address: IPv4Address, times: tuple[float, ...]
    ) -> list[ASN | None]:
        """The ASN parsed from the PTR record at each time, or None.

        Answers round-trip through the PTR hostname parse so any ASN the
        hostname grammar would mangle stays mangled.
        """
        label = ixp.lower().replace(" ", "").replace("_", "-")
        return [
            None
            if asn is None
            else parse_asn_from_hostname(f"as{asn}.{label}.example.net")
            for asn in _record_answers(self, "rdns", ixp, address, times)
        ]


def parse_asn_from_hostname(hostname: str) -> ASN | None:
    """Extract an ASN from hostnames of the form ``as<digits>.<rest>``."""
    head = hostname.split(".", 1)[0].lower()
    if not head.startswith("as"):
        return None
    digits = head[2:]
    if not digits.isdigit():
        return None
    value = int(digits)
    return ASN(value) if value > 0 else None
