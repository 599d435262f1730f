"""Registries: where the detector learns *what* to probe and *who* owns it.

The paper finds target interfaces on the websites of PeeringDB, PCH and the
IXPs themselves, and maps interfaces to ASNs "through a combination of
looking up PeeringDB, using the IXPs' websites and LG servers, and issuing
reverse DNS queries" (Section 3.1).  All of those sources are imperfect —
stale addresses, missing entries, mid-campaign reassignments — and the
filters exist precisely to survive that.  A detection world holds the
registry view of every interface as table columns (``asn``, ``policy``,
``well_known``, ``asn_after``, ``asn_change_s``);
:func:`~repro.registry.identify.identify_rows` resolves them through the
sources *with* their imperfections.
"""

from repro.registry.identify import identify_rows

__all__ = ["identify_rows"]
