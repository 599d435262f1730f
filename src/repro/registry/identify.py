"""The IP → ASN identification pipeline (Section 3.1, "Identification of
networks").

The paper combines PeeringDB, IXP websites, LG servers and reverse DNS; we
chain the sources in that order and report which one answered.  Each
source covers a deterministic subset of the addresses, decided by a
seeded hash (:func:`_coverage_draw`), so a given (source, address) pair
always answers the same way — exactly how a real registry's gaps behave
across a campaign.  Campaigns identify a whole IXP's registry rows at the
start *and* end of the campaign with :func:`identify_rows`, so the
ASN-change filter can compare the two answers.  The seed implementation's
one-address-at-a-time pipeline over a directory of record objects is
kept in ``tests/reference/registry.py`` as its oracle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.rand import derive_seed


@lru_cache(maxsize=1 << 18)
def _coverage_draw(seed: int, label: str, value: int) -> int:
    # The sha256-based draw is pure in (seed, label, address); campaigns
    # look every address up at both campaign endpoints and across sources,
    # so the memo halves identification cost.
    return derive_seed(seed, label, value) % 10_000


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

    The columns are one registry row per address: its ASN (-1 for
    None), whether every source lists it (``well_known``), and the ASN
    it is reassigned to at ``change_s`` (-1 and NaN without a change).
    ``sources`` lists the (label, coverage) pairs in the pipeline's order.
    Returns ``(asns, picks)``, both ``(len(times), rows)``: the answered
    ASN (-1: unidentified) and the index into ``sources`` of the source
    that answered (-1: none).  Each source covers the rows its
    ``_coverage_draw`` admits (well-known rows always) and answers with
    the ASN at that time; the first covering source with an answer wins.
    A reverse-DNS answer round-trips through the PTR hostname
    ``as<asn>.<ixp>.example.net``, so only an ASN > 0 counts.
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
