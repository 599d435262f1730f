"""The IP → ASN identification pipeline (Section 3.1, "Identification of
networks").

The paper combines PeeringDB, IXP websites, LG servers and reverse DNS; we
chain the sources in that order and report which one answered.  The
pipeline is also queried at the start *and* end of the campaign so the
ASN-change filter can compare the two answers.  Campaigns identify a
whole IXP's registry rows at both endpoints with :func:`identify_rows`;
:class:`IdentificationPipeline` answers one address at a time over a
directory of records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.addr import IPv4Address
from repro.registry.sources import (
    IXPWebsiteSource,
    PeeringDBSource,
    ReverseDNSSource,
    _coverage_draw,
)
from repro.types import ASN


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
        (seed, source, address) — time never enters them — so the
        registry resolutions are shared between the two endpoints.
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


def identify_rows(
    seed: int,
    sources: tuple[tuple[str, float], ...],
    addresses: np.ndarray,
    asn: np.ndarray,
    well_known: np.ndarray,
    asn_after: np.ndarray,
    change_s: np.ndarray,
    times: tuple[float, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Identify registry rows at several times in one pass.

    The columns describe :class:`~repro.registry.records.InterfaceRecord`
    rows (ASN -1 for None; ``change_s`` NaN without a change).
    ``sources`` lists the (label, coverage) pairs in the pipeline's order.
    Returns ``(asns, picks)``, both ``(len(times), rows)``: the answered
    ASN (-1: unidentified) and the index into ``sources`` of the source
    that answered (-1: none).  Bit-identical to
    :meth:`IdentificationPipeline.identify_span` per row and time: each
    source covers the rows its ``_coverage_draw`` admits (well-known rows
    always), answers with the ASN at that time, and the first covering
    source with an answer wins; a reverse-DNS answer round-trips through
    the PTR hostname, so only an ASN > 0 counts.
    """
    n = len(addresses)
    at = np.stack([
        np.where((asn_after >= 0) & (t >= change_s), asn_after, asn)
        for t in times
    ]) if times else np.zeros((0, n), dtype=np.int64)
    asns = np.full((len(times), n), -1, dtype=np.int64)
    picks = np.full((len(times), n), -1, dtype=np.int64)
    for index, (label, coverage) in enumerate(sources):
        open_rows = np.flatnonzero((picks < 0).any(axis=0))
        if not len(open_rows):
            break
        covered = well_known[open_rows].copy()
        draw_rows = np.flatnonzero(~covered)
        threshold = coverage * 10_000
        covered[draw_rows] = np.fromiter(
            (
                _coverage_draw(seed, label, value) < threshold
                for value in addresses[open_rows[draw_rows]].tolist()
            ),
            dtype=bool,
            count=len(draw_rows),
        )
        rows = open_rows[covered]
        answer = at[:, rows]
        valid = answer > 0 if label == "rdns" else answer >= 0
        take = valid & (picks[:, rows] < 0)
        asns[:, rows] = np.where(take, answer, asns[:, rows])
        picks[:, rows] = np.where(take, index, picks[:, rows])
    return asns, picks
