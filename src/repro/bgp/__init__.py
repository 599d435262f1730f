"""BGP substrate: the autonomous system as an economic entity.

The offload study's AS level (relationships, best routes toward the
studied network, customer cones) is array data of the offload world
(:mod:`repro.sim.offload_world`, :mod:`repro.core.offload`); this package
keeps the per-AS record the detection world's networks carry.
"""

from repro.bgp.asys import AutonomousSystem

__all__ = ["AutonomousSystem"]
