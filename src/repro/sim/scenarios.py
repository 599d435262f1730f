"""Named, ready-made scenarios.

Most users want one of a handful of standard setups; these constructors
freeze their configurations (and document what each is for) so scripts,
tests and benches share identical worlds.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.ixp.catalog import paper_catalog
from repro.sim.detection_world import (
    DetectionWorld,
    DetectionWorldConfig,
    build_detection_world,
)
from repro.sim.megatopo import MegaWorld, MegaWorldConfig, build_mega_world
from repro.sim.offload_world import (
    OffloadWorld,
    OffloadWorldConfig,
    build_offload_world,
)

#: The three-IXP subset used by fast tests and demos: one dual-LG
#: multi-site IXP (Netnod), the partner-heavy TOP-IX, and the
#: anchor-bearing TorIX.
MINI_IXPS = ("Netnod", "TOP-IX", "TorIX")


def paper22(seed: int = 42) -> DetectionWorld:
    """The full Section 3 world: all 22 studied IXPs, paper calibration."""
    return build_detection_world(DetectionWorldConfig(seed=seed))


def mini_specs() -> tuple:
    """The specs of the three mini-world IXPs (for custom configs)."""
    return tuple(s for s in paper_catalog() if s.acronym in MINI_IXPS)


def mini3(seed: int = 11) -> DetectionWorld:
    """A three-IXP world (~350 interfaces) that builds in well under a second."""
    return build_detection_world(
        DetectionWorldConfig(seed=seed, specs=mini_specs())
    )


def rediris(seed: int = 42) -> OffloadWorld:
    """The full Section 4 world: 29,570 contributing networks, 65 IXPs."""
    return build_offload_world(OffloadWorldConfig(seed=seed))


def rediris_small_config(seed: int = 5) -> OffloadWorldConfig:
    """Config of the ~3k-AS offload world (the ``small`` study preset).

    All structural features of the full world are present (tier-1s, megas,
    big eyeballs, giants, regional memberships); only the population is
    scaled down, so percentages move by a few points relative to the full
    scenario.
    """
    return OffloadWorldConfig(
        seed=seed,
        contributing_count=3000,
        tier2_count=80,
        nren_count=8,
        tier1_count=6,
        mega_carrier_count=8,
        big_eyeball_count=30,
        head_pin_count=40,
    )


def mega_config(seed: int = 0) -> MegaWorldConfig:
    """Config of the 100k-network mega world over the full Euro-IX catalog.

    The first internet-scale tier: a CAIDA-style clique/T1/T2/stub
    hierarchy over a columnar pool — no per-network Python objects are
    materialized anywhere on the build or study path.
    """
    return MegaWorldConfig(size=100_000, seed=seed)


def mega_smoke_config(seed: int = 0) -> MegaWorldConfig:
    """The ~20k-network mega world CI smokes (same shape, smaller pool)."""
    return MegaWorldConfig(size=20_000, seed=seed)


def mega(seed: int = 0) -> MegaWorld:
    """The built 100k-network mega world."""
    return build_mega_world(mega_config(seed))


# -- named study presets (the `preset` key of study requests) -----------------


def mega_preset_config(name: str) -> MegaWorldConfig:
    """Mega-world config of a named preset (seeds are set per trial)."""
    if name == "mega-smoke":
        return mega_smoke_config()
    if name == "mega":
        return mega_config()
    raise ConfigurationError(f"unknown mega preset {name!r}")


def detection_preset_specs(name: str) -> tuple:
    """IXP specs of a named detection preset (() = the full 22-IXP world)."""
    if name == "mini3":
        return mini_specs()
    if name == "paper22":
        return ()
    raise ConfigurationError(f"unknown detection preset {name!r}")


def offload_preset_config(name: str) -> OffloadWorldConfig:
    """Offload-world config of a named preset (seeds are set per trial)."""
    if name == "small":
        return rediris_small_config()
    if name == "paper65":
        return OffloadWorldConfig()
    raise ConfigurationError(f"unknown offload preset {name!r}")


def joint_preset_configs(
    name: str,
) -> tuple[DetectionWorldConfig, OffloadWorldConfig]:
    """World-family configs of a named joint detection→offload preset.

    ``small`` pairs the 3-IXP mini detection world with the ~3k-AS offload
    world (a 16-trial joint ensemble runs in seconds); ``paper`` pairs the
    full 22-IXP detection world with the 29,570-network offload world.
    Seeds are set per trial by the study engine.
    """
    if name == "small":
        return (
            DetectionWorldConfig(specs=mini_specs()),
            offload_preset_config("small"),
        )
    if name == "paper":
        return (DetectionWorldConfig(), offload_preset_config("paper65"))
    raise ConfigurationError(f"unknown joint preset {name!r}")
