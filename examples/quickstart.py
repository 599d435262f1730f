"""Quickstart: detect remote peering at three IXPs in under a minute.

Builds a small synthetic world (three of the paper's 22 IXPs), runs the
ping-based measurement campaign with the six conservative filters, and
prints the per-IXP classification — the minimal end-to-end use of the
library's public API.

Run:  python examples/quickstart.py
"""

from repro import (
    CampaignConfig,
    DetectionWorldConfig,
    ProbeCampaign,
    build_detection_world,
)
from repro.analysis.tables import render_table
from repro.core.detection.classify import BAND_LABELS
from repro.ixp.catalog import paper_catalog


def main() -> None:
    specs = tuple(
        s for s in paper_catalog() if s.acronym in ("AMS-IX", "TorIX", "TOP-IX")
    )
    print(f"Building a synthetic world with {len(specs)} IXPs...")
    world = build_detection_world(DetectionWorldConfig(seed=7, specs=specs))
    print(f"  {world.candidate_count()} candidate interfaces, "
          f"{sum(len(e.vantages) for e in world.exchanges)} looking glasses")

    print("Running the 4-month probing campaign (simulated)...")
    result = ProbeCampaign(world, CampaignConfig(seed=7)).run()

    rows = []
    for acronym, bands in sorted(result.band_counts_by_ixp().items()):
        remote = sum(v for k, v in bands.items() if k != "<10ms")
        rows.append([acronym, *(bands[b] for b in BAND_LABELS), remote])
    print()
    print(render_table(
        ["IXP", *BAND_LABELS, "remote"],
        rows,
        title="Interfaces by minimum-RTT band (threshold: 10 ms)",
    ))
    print()
    print(f"analyzed interfaces  : {result.analyzed_count()} "
          f"(of {result.candidate_count} candidates)")
    print(f"filter discards      : {result.discard_counts}")
    print(f"identified networks  : {len(result.identified_networks())}")
    print(f"remotely peering     : {len(result.remotely_peering_networks())} networks")


if __name__ == "__main__":
    main()
