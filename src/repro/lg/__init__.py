"""Looking-glass servers and the rate-limited client that drives them.

The campaign's vantage points: PCH and RIPE NCC operate LG servers at IXP
locations; an HTML query triggers 5 (PCH) or 3 (RIPE) pings from inside
the IXP subnet (Section 3.1).
"""

from repro.lg.server import (
    LGVantage,
    LookingGlassServer,
    OffLanTarget,
    PCH_PINGS,
    RIPE_PINGS,
)
from repro.lg.client import LookingGlassClient
from repro.lg.batch import (
    ProbePlan,
    SweepReplies,
    compile_probe_plan,
    run_sweeps,
)

__all__ = [
    "LGVantage",
    "LookingGlassServer",
    "OffLanTarget",
    "PCH_PINGS",
    "RIPE_PINGS",
    "LookingGlassClient",
    "ProbePlan",
    "SweepReplies",
    "compile_probe_plan",
    "run_sweeps",
]
