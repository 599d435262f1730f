"""World generation: synthetic Internets calibrated to the paper's datasets.

Three worlds matter:

* the **detection world** — the 22 studied IXPs with members, looking
  glasses, registries and all the messy device behaviours the Section 3
  filters were designed around;
* the **offload world** — a ~30k-AS Internet with a RedIRIS-like NREN, its
  transit providers, the 65 Euro-IX IXPs and a month of NetFlow-style
  traffic, driving the Section 4 offload study;
* the **mega world** — a 10⁵–10⁶-network CAIDA-style tiered hierarchy
  over a columnar (struct-of-arrays) pool and the full Euro-IX catalog,
  built without materializing a single per-network Python object — the
  internet-scale tier behind ``repro study mega``.
"""

from repro.sim.clock import CampaignWindow
from repro.sim.netpool import (
    ColumnarNetworkPool,
    NetworkPoolConfig,
    generate_network_pool,
)
from repro.sim.detection_world import (
    BehaviorRates,
    DetectionWorld,
    DetectionWorldConfig,
    build_detection_world,
)
from repro.sim.megatopo import (
    MegaWorld,
    MegaWorldConfig,
    build_mega_world,
)
from repro.sim.offload_world import (
    OffloadWorld,
    OffloadWorldConfig,
    build_offload_world,
)

__all__ = [
    "CampaignWindow",
    "ColumnarNetworkPool",
    "NetworkPoolConfig",
    "generate_network_pool",
    "BehaviorRates",
    "DetectionWorld",
    "DetectionWorldConfig",
    "build_detection_world",
    "MegaWorld",
    "MegaWorldConfig",
    "build_mega_world",
    "OffloadWorld",
    "OffloadWorldConfig",
    "build_offload_world",
]
