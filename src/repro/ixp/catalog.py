"""The 22-IXP catalog of the paper's measurement study (Table 1).

Identity fields (acronym, name, city, country, peak traffic, member count)
are the published values from Table 1.  The calibration fields
(``remote_fraction``, ``band_weights``, LG presence) are *our* knobs: they
shape the synthetic membership so the generated world reproduces the
qualitative structure of Figures 2–4 (remote peering at >90% of IXPs, up to
~20% remote members, intercontinental remotes at a majority of IXPs, none
at DIX-IE and CABASE).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class IXPSpec:
    """Static description + calibration knobs for one studied IXP.

    ``band_weights`` are the relative odds that a remote member's circuit is
    intercity / intercountry / intercontinental.  ``analyzed_interfaces`` is
    Table 1's published count — the generator sizes the candidate set so
    the filter pipeline lands near it.
    """

    acronym: str
    full_name: str
    city_name: str
    country: str
    peak_traffic_tbps: float | None
    member_count: int
    analyzed_interfaces: int
    remote_fraction: float
    band_weights: tuple[float, float, float]
    has_pch_lg: bool = True
    has_ripe_lg: bool = False
    sites: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.remote_fraction <= 1.0:
            raise ConfigurationError("remote_fraction must be in [0, 1]")
        if self.member_count <= 0 or self.analyzed_interfaces <= 0:
            raise ConfigurationError("counts must be positive")
        if len(self.band_weights) != 3 or any(w < 0 for w in self.band_weights):
            raise ConfigurationError("band_weights must be 3 non-negative values")
        # All-zero band_weights are allowed (a direct-only IXP, or "no
        # preference"): the world builder falls back to a uniform band draw
        # for any remote members.
        if not (self.has_pch_lg or self.has_ripe_lg):
            raise ConfigurationError(
                f"{self.acronym}: study requires at least one LG server"
            )


_CATALOG: tuple[IXPSpec, ...] = (
    IXPSpec("AMS-IX", "Amsterdam Internet Exchange", "Amsterdam", "Netherlands",
            5.48, 638, 665, 0.20, (0.35, 0.40, 0.25), True, True, 2),
    IXPSpec("DE-CIX", "German Commercial Internet Exchange", "Frankfurt", "Germany",
            3.21, 463, 535, 0.18, (0.35, 0.40, 0.25), True, True, 2),
    IXPSpec("LINX", "London Internet Exchange", "London", "UK",
            2.60, 497, 521, 0.17, (0.30, 0.40, 0.30), True, True, 2),
    IXPSpec("HKIX", "Hong Kong Internet Exchange", "Hong Kong", "China",
            0.48, 213, 278, 0.12, (0.20, 0.40, 0.40), True, False),
    IXPSpec("NYIIX", "New York International Internet Exchange", "New York", "USA",
            0.46, 132, 239, 0.12, (0.35, 0.35, 0.30), True, False),
    IXPSpec("MSK-IX", "Moscow Internet eXchange", "Moscow", "Russia",
            1.32, 367, 218, 0.08, (0.45, 0.40, 0.15), True, True),
    IXPSpec("PLIX", "Polish Internet Exchange", "Warsaw", "Poland",
            0.63, 235, 207, 0.10, (0.50, 0.35, 0.15), True, False),
    IXPSpec("France-IX", "France-IX", "Paris", "France",
            0.23, 230, 201, 0.16, (0.40, 0.40, 0.20), True, True),
    IXPSpec("PTT", "PTTMetro Sao Paolo", "Sao Paulo", "Brazil",
            0.30, 482, 180, 0.15, (0.55, 0.35, 0.10), True, False),
    IXPSpec("SIX", "Seattle Internet Exchange", "Seattle", "USA",
            0.53, 177, 175, 0.07, (0.40, 0.35, 0.25), True, False),
    IXPSpec("LoNAP", "London Network Access Point", "London", "UK",
            0.10, 142, 166, 0.12, (0.35, 0.40, 0.25), True, False),
    IXPSpec("JPIX", "Japan Internet Exchange", "Tokyo", "Japan",
            0.43, 131, 163, 0.15, (0.30, 0.30, 0.40), True, False),
    IXPSpec("TorIX", "Toronto Internet Exchange", "Toronto", "Canada",
            0.28, 177, 161, 0.08, (0.35, 0.35, 0.30), True, False),
    IXPSpec("VIX", "Vienna Internet Exchange", "Vienna", "Austria",
            0.19, 121, 134, 0.10, (0.50, 0.40, 0.10), True, True),
    IXPSpec("MIX", "Milan Internet Exchange", "Milan", "Italy",
            0.16, 133, 131, 0.10, (0.50, 0.35, 0.15), True, False),
    IXPSpec("TOP-IX", "Torino Piemonte Internet Exchange", "Turin", "Italy",
            0.05, 80, 91, 0.25, (0.70, 0.25, 0.05), True, False),
    IXPSpec("Netnod", "Netnod Internet Exchange", "Stockholm", "Sweden",
            1.34, 89, 71, 0.08, (0.40, 0.45, 0.15), True, True),
    IXPSpec("KINX", "Korea Internet Neutral Exchange", "Seoul", "South Korea",
            0.15, 46, 71, 0.06, (0.30, 0.30, 0.40), True, False),
    IXPSpec("CABASE", "Argentine Chamber of Internet", "Buenos Aires", "Argentina",
            0.02, 101, 68, 0.00, (1.0, 0.0, 0.0), True, False),
    IXPSpec("INEX", "Internet Neutral Exchange", "Dublin", "Ireland",
            0.13, 63, 66, 0.09, (0.40, 0.40, 0.20), True, False),
    IXPSpec("DIX-IE", "Distributed Internet Exchange in Edo", "Tokyo", "Japan",
            None, 36, 56, 0.00, (1.0, 0.0, 0.0), True, False),
    IXPSpec("TIE", "Telx Internet Exchange", "New York", "USA",
            0.02, 149, 54, 0.12, (0.30, 0.35, 0.35), True, False),
)


def paper_catalog() -> tuple[IXPSpec, ...]:
    """The 22 IXPs of the measurement study, in Table 1 order."""
    return _CATALOG


def spec_by_acronym(acronym: str) -> IXPSpec:
    """Look one spec up by acronym; unknown acronyms raise."""
    for spec in _CATALOG:
        if spec.acronym == acronym:
            return spec
    raise ConfigurationError(f"no IXP spec with acronym {acronym!r}")

