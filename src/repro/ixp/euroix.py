"""The 65-IXP set used by the offload study (Section 4.2).

The paper takes the Euro-IX association membership as of February 2013 —
65 IXPs, a superset of the 22 studied in Section 3 (the LG-server
constraint is dropped).  The association's actual member list is not in the
paper, so beyond the IXPs it names (the 22, Terremark, SFINX, CoreSite,
NL-ix, and RedIRIS's own CATNIX and ESpanix) we fill the set with
synthetic exchanges whose sizes follow the real-world IXP size
distribution.  ``region`` controls which membership pool an IXP draws from,
which in turn controls the membership overlap that drives Figures 7–9.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.ixp.catalog import paper_catalog


@dataclass(frozen=True, slots=True)
class EuroIXSpec:
    """One IXP in the offload study's reachable set."""

    acronym: str
    city_name: str
    country: str
    member_count: int
    region: str  # europe | north_america | latin_america | asia | africa

    def __post_init__(self) -> None:
        if self.member_count <= 0:
            raise ConfigurationError("member_count must be positive")
        valid = {"europe", "north_america", "latin_america", "asia", "africa"}
        if self.region not in valid:
            raise ConfigurationError(f"unknown region {self.region!r}")


_REGION_OF_COUNTRY = {
    "Netherlands": "europe", "Germany": "europe", "UK": "europe",
    "Russia": "europe", "Poland": "europe", "France": "europe",
    "Austria": "europe", "Italy": "europe", "Sweden": "europe",
    "Ireland": "europe", "Spain": "europe", "Switzerland": "europe",
    "Belgium": "europe", "Czechia": "europe", "Hungary": "europe",
    "Portugal": "europe", "Norway": "europe", "Denmark": "europe",
    "Finland": "europe", "Ukraine": "europe", "Turkey": "europe",
    "Greece": "europe", "Romania": "europe", "Bulgaria": "europe",
    "Luxembourg": "europe",
    "USA": "north_america", "Canada": "north_america",
    "Brazil": "latin_america", "Argentina": "latin_america",
    "Chile": "latin_america", "Colombia": "latin_america",
    "Mexico": "latin_america", "Peru": "latin_america",
    "China": "asia", "Japan": "asia", "South Korea": "asia",
    "Singapore": "asia", "UAE": "asia", "India": "asia",
    "South Africa": "africa", "Kenya": "africa", "Nigeria": "africa",
    "Egypt": "africa",
}

#: Extra IXPs the paper names in the offload study, plus RedIRIS's two.
_NAMED_EXTRAS: tuple[EuroIXSpec, ...] = (
    EuroIXSpec("Terremark", "Miami", "USA", 267, "north_america"),
    EuroIXSpec("SFINX", "Paris", "France", 84, "europe"),
    EuroIXSpec("CoreSite", "Los Angeles", "USA", 124, "north_america"),
    EuroIXSpec("NL-ix", "Rotterdam", "Netherlands", 212, "europe"),
    EuroIXSpec("CATNIX", "Barcelona", "Spain", 28, "europe"),
    EuroIXSpec("ESpanix", "Madrid", "Spain", 42, "europe"),
)

#: Synthetic fill: (acronym, city, country, member_count).
_SYNTHETIC: tuple[tuple[str, str, str, int], ...] = (
    ("ECIX-BER", "Berlin", "Germany", 96),
    ("ECIX-DUS", "Dusseldorf", "Germany", 72),
    ("ALP-IX", "Munich", "Germany", 58),
    ("SwissIX", "Zurich", "Switzerland", 118),
    ("CERN-IX", "Geneva", "Switzerland", 34),
    ("BNIX", "Brussels", "Belgium", 54),
    ("NIX-CZ", "Prague", "Czechia", 102),
    ("BIX-HU", "Budapest", "Hungary", 66),
    ("GigaPIX", "Lisbon", "Portugal", 40),
    ("NIX-NO", "Oslo", "Norway", 48),
    ("DIX-DK", "Copenhagen", "Denmark", 44),
    ("FICIX", "Helsinki", "Finland", 30),
    ("UA-IX", "Kyiv", "Ukraine", 88),
    ("TR-IX", "Istanbul", "Turkey", 52),
    ("GR-IX", "Athens", "Greece", 36),
    ("RoNIX", "Bucharest", "Romania", 62),
    ("B-IX", "Sofia", "Bulgaria", 46),
    ("LU-CIX", "Luxembourg", "Luxembourg", 38),
    ("IXManchester", "Manchester", "UK", 56),
    ("MarIX", "Marseille", "France", 42),
    ("RhoneIX", "Lyon", "France", 26),
    ("VSIX", "Padua", "Italy", 32),
    ("NaMeX", "Rome", "Italy", 58),
    ("SPB-IX", "Saint Petersburg", "Russia", 74),
    ("Any2-CHI", "Chicago", "USA", 98),
    ("DFW-IX", "Dallas", "USA", 64),
    ("Digital-ATL", "Atlanta", "USA", 72),
    ("WDC-IX", "Washington", "USA", 110),
    ("SFMIX", "San Francisco", "USA", 60),
    ("QIX-MTL", "Montreal", "Canada", 46),
    ("MEX-IX", "Mexico City", "Mexico", 38),
    ("PTT-RJ", "Rio de Janeiro", "Brazil", 124),
    ("NAP-CL", "Santiago", "Chile", 44),
    ("NAP-CO", "Bogota", "Colombia", 36),
    ("Equinix-SG", "Singapore", "Singapore", 142),
    ("UAE-IX", "Dubai", "UAE", 40),
    ("JINX", "Johannesburg", "South Africa", 54),
)


#: Pool size the catalog's absolute ``member_count`` figures assume — the
#: default :class:`~repro.sim.netpool.NetworkPoolConfig` population the
#: paper-scale worlds draw members from.
REFERENCE_POOL_SIZE = 5600


def scaled_member_count(
    spec: EuroIXSpec, pool_size: int, floor: int = 8
) -> int:
    """``spec.member_count`` rescaled to a ``pool_size``-network world.

    The catalog's absolute counts describe a :data:`REFERENCE_POOL_SIZE`
    pool; the mega tier keeps each IXP's *share* of the pool constant as
    the world grows to 10⁵–10⁶ networks, so AMS-IX stays ~11% of the
    population rather than freezing at 2013's absolute membership.
    ``floor`` keeps the smallest exchanges statistically meaningful.
    """
    if pool_size <= 0:
        raise ConfigurationError("pool_size must be positive")
    scaled = round(spec.member_count * pool_size / REFERENCE_POOL_SIZE)
    return max(floor, scaled)


@functools.cache
def euroix_catalog() -> tuple[EuroIXSpec, ...]:
    """The 65-IXP reachable set: 22 studied + named extras + synthetic fill.

    Built once per process: the specs are frozen and the tuple is shared
    by every offload and mega build and every mega attach.
    """
    specs: list[EuroIXSpec] = []
    for spec in paper_catalog():
        region = _REGION_OF_COUNTRY.get(spec.country)
        if region is None:
            raise ConfigurationError(
                f"no region mapping for country {spec.country!r}"
            )
        specs.append(
            EuroIXSpec(
                acronym=spec.acronym,
                city_name=spec.city_name,
                country=spec.country,
                member_count=spec.member_count,
                region=region,
            )
        )
    specs.extend(_NAMED_EXTRAS)
    for acronym, city, country, count in _SYNTHETIC:
        region = _REGION_OF_COUNTRY.get(country)
        if region is None:
            raise ConfigurationError(f"no region mapping for {country!r}")
        specs.append(EuroIXSpec(acronym, city, country, count, region))
    if len(specs) != 65:  # 22 + 6 + 37 — keep the paper's count honest
        raise ConfigurationError(
            f"euroix catalog has {len(specs)} IXPs, expected 65"
        )
    return tuple(specs)
