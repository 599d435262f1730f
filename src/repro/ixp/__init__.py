"""IXP substrate: exchanges, members, the paper's IXP datasets.

An IXP here is a layer-2 peering LAN (:class:`repro.layer2.PeeringFabric`)
plus an address plan, a membership list and the looking glasses the
detector probes from.
"""

from repro.ixp.ixp import IXP, IXPMember, MemberInterface
from repro.ixp.catalog import IXPSpec, paper_catalog, spec_by_acronym
from repro.ixp.euroix import EuroIXSpec, euroix_catalog
from repro.ixp.partnerships import Partnership

__all__ = [
    "IXP",
    "IXPMember",
    "MemberInterface",
    "IXPSpec",
    "paper_catalog",
    "spec_by_acronym",
    "EuroIXSpec",
    "euroix_catalog",
    "Partnership",
]
