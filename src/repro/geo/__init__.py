"""Geography substrate: coordinates, city database, propagation latency.

The detector in the paper separates direct from remote peers purely through
round-trip delay, so the geography of members and IXPs is the physical root
of every RTT the simulator produces.
"""

from repro.geo.coords import GeoPoint, haversine_km
from repro.geo.cities import City, CityDB, default_city_db
from repro.geo.distances import CityDistanceMatrix, pairwise_distance_km
from repro.geo.latency import LatencyModel

__all__ = [
    "GeoPoint",
    "haversine_km",
    "City",
    "CityDB",
    "default_city_db",
    "CityDistanceMatrix",
    "pairwise_distance_km",
    "LatencyModel",
]
