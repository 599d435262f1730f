"""The seed implementation's registry objects and identification pipeline.

A directory of :class:`InterfaceRecord` rows, three sources with seeded
coverage over it, and :class:`IdentificationPipeline`, which answers one
address at a time in the paper's source order (Section 3.1,
"Identification of networks").  The product identifies a whole IXP's
table rows at once (:func:`repro.registry.identify.identify_rows`) with
the same coverage draws; ``tests/test_campaign_digests.py`` holds it to
this pipeline row for row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ReproError
from repro.net.addr import IPv4Address
from repro.registry.identify import _coverage_draw
from repro.types import ASN, PeeringPolicy


class RegistryError(ReproError):
    """A registry (PeeringDB/PCH/DNS-like) lookup failed irrecoverably."""


@dataclass(slots=True)
class InterfaceRecord:
    """What the registries collectively know about one target address.

    ``asn`` / ``asn_after_change`` encode mid-campaign reassignment of the
    address to a different member.  ``stale`` marks addresses published
    for the IXP but not on its peering LAN.
    """

    ixp_acronym: str
    address: IPv4Address
    asn: ASN | None
    policy: PeeringPolicy | None = None
    stale: bool = False
    asn_after_change: ASN | None = None
    asn_change_time: float | None = None
    #: Well-known networks are listed in every registry; coverage
    #: sampling never hides them.
    well_known: bool = False

    def asn_at(self, time_s: float) -> ASN | None:
        """The ASN the registries would report at simulated time ``time_s``."""
        changed = (
            self.asn_after_change is not None
            and self.asn_change_time is not None
            and time_s >= self.asn_change_time
        )
        return self.asn_after_change if changed else self.asn


@dataclass
class IXPDirectory:
    """All published target addresses, grouped by IXP."""

    _records: dict[str, dict[int, InterfaceRecord]] = field(default_factory=dict)

    def add(self, record: InterfaceRecord) -> None:
        """Publish a record; duplicate (IXP, address) pairs are errors."""
        per_ixp = self._records.setdefault(record.ixp_acronym, {})
        key = record.address.value
        if key in per_ixp:
            raise RegistryError(
                f"{record.ixp_acronym}: duplicate record for {record.address}"
            )
        per_ixp[key] = record

    def targets_for(self, ixp_acronym: str) -> list[InterfaceRecord]:
        """Published target records for one IXP, in address order."""
        per_ixp = self._records.get(ixp_acronym, {})
        return [per_ixp[k] for k in sorted(per_ixp)]

    def record_for(self, ixp_acronym: str, address: IPv4Address) -> InterfaceRecord:
        """The record for one (IXP, address) pair."""
        per_ixp = self._records.get(ixp_acronym, {})
        try:
            return per_ixp[address.value]
        except KeyError:
            raise RegistryError(
                f"{ixp_acronym}: no record for {address}"
            ) from None

    def ixps(self) -> list[str]:
        """Acronyms of all IXPs with published records, sorted."""
        return sorted(self._records)

    def __len__(self) -> int:
        return sum(len(v) for v in self._records.values())


def _covered(seed: int, label: str, address: IPv4Address, coverage: float) -> bool:
    """Deterministic membership test: is ``address`` in this source's view?"""
    return _coverage_draw(seed, label, address.value) < coverage * 10_000


def _record_answers(
    source, label: str, ixp: str, address: IPv4Address, times: tuple[float, ...]
) -> list[ASN | None]:
    """Per-time answers with one record resolution and one coverage draw."""
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
    """Reverse DNS: PTR names like ``as8903.ams-ix.example.net``."""

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


@dataclass(frozen=True, slots=True)
class IdentificationResult:
    """Outcome of identifying one address at one point in time."""

    address: IPv4Address
    asn: ASN | None
    source: str | None  # "peeringdb" | "website" | "rdns" | None


class IdentificationPipeline:
    """Chains the identification sources in the paper's order."""

    def __init__(
        self,
        peeringdb: PeeringDBSource,
        website: IXPWebsiteSource,
        rdns: ReverseDNSSource,
    ) -> None:
        self._sources: list[tuple[str, object]] = [
            ("peeringdb", peeringdb),
            ("website", website),
            ("rdns", rdns),
        ]

    def identify_span(
        self,
        ixp: str,
        address: IPv4Address,
        start_s: float,
        end_s: float,
    ) -> tuple[IdentificationResult, IdentificationResult]:
        """Identify one address at both campaign endpoints in one pass.

        Each endpoint independently takes the first source, in the
        paper's order, with a non-None ASN.  Coverage draws are pure in
        (seed, source, address), so the registry resolutions are shared
        between the two endpoints.
        """
        first = last = None
        for name, source in self._sources:
            asns = source.answers(ixp, address, (start_s, end_s))  # type: ignore[attr-defined]
            if first is None and asns[0] is not None:
                first = IdentificationResult(
                    address=address, asn=asns[0], source=name
                )
            if last is None and asns[1] is not None:
                last = IdentificationResult(
                    address=address, asn=asns[1], source=name
                )
            if first is not None and last is not None:
                break
        missing = IdentificationResult(address=address, asn=None, source=None)
        return first or missing, last or missing
