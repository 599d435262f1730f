"""IXP substrate: the paper's IXP datasets.

The 22 studied exchanges (:mod:`repro.ixp.catalog`) and the 65-IXP
Euro-IX reachable set (:mod:`repro.ixp.euroix`).  A detection world
describes each studied IXP's peering LAN, members and looking glasses as
rows of its interface table (:mod:`repro.sim.detection_world`).
"""

from repro.ixp.catalog import IXPSpec, paper_catalog, spec_by_acronym
from repro.ixp.euroix import EuroIXSpec, euroix_catalog

__all__ = [
    "IXPSpec",
    "paper_catalog",
    "spec_by_acronym",
    "EuroIXSpec",
    "euroix_catalog",
]
