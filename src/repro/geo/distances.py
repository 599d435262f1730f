"""Precomputed all-pairs city distances.

World builders repeatedly ask "which cities sit between ``low`` and
``high`` kilometres of this IXP?" — once per band in the detection
builder, once per remote-member draw in its scalar reference.  Sorting
the whole city database per query (the seed implementation) costs
O(C log C) each time; this module computes the full C x C great-circle
matrix once (vectorized haversine, ~160 x 160 for the built-in database)
and answers every band query with a boolean mask over one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.geo.cities import City, CityDB
from repro.geo.coords import EARTH_RADIUS_KM


def pairwise_distance_km(lat_deg: np.ndarray, lon_deg: np.ndarray) -> np.ndarray:
    """All-pairs haversine distances (km) for coordinate arrays.

    Same formula (and the same clamp against floating error) as
    :func:`repro.geo.coords.haversine_km`, broadcast over every pair, so
    matrix entries are bit-for-bit equal to the scalar helper.
    """
    lat = np.radians(np.asarray(lat_deg, dtype=float))
    lon = np.radians(np.asarray(lon_deg, dtype=float))
    sin_dlat = np.sin((lat[:, None] - lat[None, :]) / 2.0)
    sin_dlon = np.sin((lon[:, None] - lon[None, :]) / 2.0)
    h = sin_dlat**2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * sin_dlon**2
    h = np.clip(h, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))


@dataclass(frozen=True, slots=True)
class CityDistanceMatrix:
    """All-pairs great-circle distances over one :class:`CityDB` snapshot.

    ``cities`` fixes the index order (the database's insertion order), so
    row ``i`` of ``km`` holds the distances from ``cities[i]`` to every
    city.  Build once per world; query with :meth:`row`/:meth:`within`.
    """

    cities: tuple[City, ...]
    index: dict[str, int]
    km: np.ndarray  # float (C, C)

    @classmethod
    def build(cls, city_db: CityDB) -> "CityDistanceMatrix":
        """Compute the matrix for every city currently in ``city_db``."""
        cities = tuple(city_db.cities.values())
        if not cities:
            raise ConfigurationError("cannot build a distance matrix of no cities")
        lat = np.array([c.point.lat for c in cities])
        lon = np.array([c.point.lon for c in cities])
        return cls(
            cities=cities,
            index={c.name: i for i, c in enumerate(cities)},
            km=pairwise_distance_km(lat, lon),
        )

    def __len__(self) -> int:
        return len(self.cities)

    def index_of(self, city: City | str) -> int:
        """Matrix index of a city (by object or name)."""
        name = city if isinstance(city, str) else city.name
        try:
            return self.index[name]
        except KeyError:
            raise ConfigurationError(
                f"city {name!r} is not in the distance matrix"
            ) from None

    def distance_km(self, a: City | str, b: City | str) -> float:
        """Great-circle distance between two known cities."""
        return float(self.km[self.index_of(a), self.index_of(b)])

    def row(self, city: City | str) -> np.ndarray:
        """Distances (km) from ``city`` to every city, in index order."""
        return self.km[self.index_of(city)]

    def band_mask(
        self, city: City | str, low_km: float, high_km: float
    ) -> np.ndarray:
        """Boolean mask over cities with ``low <= distance <= high``."""
        distances = self.row(city)
        return (distances >= low_km) & (distances <= high_km)

    def within(
        self, city: City | str, low_km: float, high_km: float
    ) -> list[City]:
        """Cities in the [low, high] km band of ``city``, in index order."""
        mask = self.band_mask(city, low_km, high_km)
        return [c for c, keep in zip(self.cities, mask) if keep]
