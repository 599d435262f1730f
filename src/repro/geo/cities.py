"""A built-in database of world cities used to place IXPs and networks.

Coordinates are approximate city centres (decimal degrees); the latency
model only needs hundreds-of-kilometre accuracy.  The set covers every city
named in the paper (Table 1 IXPs, Figure 7 IXPs, RedIRIS's Barcelona and
Madrid) plus a worldwide pool for member home locations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint


@dataclass(frozen=True, slots=True)
class City:
    """A named city with coordinates, country, and continent."""

    name: str
    country: str
    continent: str
    point: GeoPoint

    def distance_km(self, other: "City") -> float:
        """Great-circle distance to another city in kilometres."""
        return self.point.distance_km(other.point)


def _c(name: str, country: str, continent: str, lat: float, lon: float) -> City:
    return City(name, country, continent, GeoPoint(lat, lon))


#: name -> (country, continent, lat, lon).  Continent codes: EU, NA, SA, AS,
#: AF, OC.
_RAW: list[tuple[str, str, str, float, float]] = [
    # --- Table 1 IXP cities --------------------------------------------------
    ("Amsterdam", "Netherlands", "EU", 52.37, 4.90),
    ("Frankfurt", "Germany", "EU", 50.11, 8.68),
    ("London", "UK", "EU", 51.51, -0.13),
    ("Hong Kong", "China", "AS", 22.32, 114.17),
    ("New York", "USA", "NA", 40.71, -74.01),
    ("Moscow", "Russia", "EU", 55.76, 37.62),
    ("Warsaw", "Poland", "EU", 52.23, 21.01),
    ("Paris", "France", "EU", 48.86, 2.35),
    ("Sao Paulo", "Brazil", "SA", -23.55, -46.63),
    ("Seattle", "USA", "NA", 47.61, -122.33),
    ("Tokyo", "Japan", "AS", 35.68, 139.69),
    ("Toronto", "Canada", "NA", 43.65, -79.38),
    ("Vienna", "Austria", "EU", 48.21, 16.37),
    ("Milan", "Italy", "EU", 45.46, 9.19),
    ("Turin", "Italy", "EU", 45.07, 7.69),
    ("Stockholm", "Sweden", "EU", 59.33, 18.07),
    ("Seoul", "South Korea", "AS", 37.57, 126.98),
    ("Buenos Aires", "Argentina", "SA", -34.60, -58.38),
    ("Dublin", "Ireland", "EU", 53.35, -6.26),
    # --- Figure 7 / offload-study cities ------------------------------------
    ("Miami", "USA", "NA", 25.76, -80.19),
    ("Madrid", "Spain", "EU", 40.42, -3.70),
    ("Barcelona", "Spain", "EU", 41.39, 2.17),
    ("Ashburn", "USA", "NA", 39.04, -77.49),
    ("Padua", "Italy", "EU", 45.41, 11.88),
    ("Lyon", "France", "EU", 45.76, 4.84),
    # --- Europe pool ----------------------------------------------------------
    ("Berlin", "Germany", "EU", 52.52, 13.41),
    ("Munich", "Germany", "EU", 48.14, 11.58),
    ("Hamburg", "Germany", "EU", 53.55, 9.99),
    ("Dusseldorf", "Germany", "EU", 51.23, 6.77),
    ("Zurich", "Switzerland", "EU", 47.37, 8.54),
    ("Geneva", "Switzerland", "EU", 46.20, 6.14),
    ("Brussels", "Belgium", "EU", 50.85, 4.35),
    ("Rotterdam", "Netherlands", "EU", 51.92, 4.48),
    ("Rome", "Italy", "EU", 41.90, 12.50),
    ("Naples", "Italy", "EU", 40.85, 14.27),
    ("Prague", "Czechia", "EU", 50.08, 14.44),
    ("Budapest", "Hungary", "EU", 47.50, 19.04),
    ("Bratislava", "Slovakia", "EU", 48.15, 17.11),
    ("Lisbon", "Portugal", "EU", 38.72, -9.14),
    ("Porto", "Portugal", "EU", 41.15, -8.61),
    ("Oslo", "Norway", "EU", 59.91, 10.75),
    ("Copenhagen", "Denmark", "EU", 55.68, 12.57),
    ("Helsinki", "Finland", "EU", 60.17, 24.94),
    ("Riga", "Latvia", "EU", 56.95, 24.11),
    ("Vilnius", "Lithuania", "EU", 54.69, 25.28),
    ("Tallinn", "Estonia", "EU", 59.44, 24.75),
    ("Kyiv", "Ukraine", "EU", 50.45, 30.52),
    ("Minsk", "Belarus", "EU", 53.90, 27.57),
    ("Istanbul", "Turkey", "EU", 41.01, 28.98),
    ("Ankara", "Turkey", "AS", 39.93, 32.86),
    ("Athens", "Greece", "EU", 37.98, 23.73),
    ("Bucharest", "Romania", "EU", 44.43, 26.10),
    ("Sofia", "Bulgaria", "EU", 42.70, 23.32),
    ("Belgrade", "Serbia", "EU", 44.79, 20.45),
    ("Zagreb", "Croatia", "EU", 45.81, 15.98),
    ("Ljubljana", "Slovenia", "EU", 46.06, 14.51),
    ("Manchester", "UK", "EU", 53.48, -2.24),
    ("Edinburgh", "UK", "EU", 55.95, -3.19),
    ("Marseille", "France", "EU", 43.30, 5.37),
    ("Valencia", "Spain", "EU", 39.47, -0.38),
    ("Seville", "Spain", "EU", 37.39, -5.98),
    ("Saint Petersburg", "Russia", "EU", 59.93, 30.34),
    ("Novosibirsk", "Russia", "AS", 55.03, 82.92),
    ("Yekaterinburg", "Russia", "AS", 56.84, 60.61),
    ("Krakow", "Poland", "EU", 50.06, 19.94),
    ("Wroclaw", "Poland", "EU", 51.11, 17.03),
    ("Luxembourg", "Luxembourg", "EU", 49.61, 6.13),
    ("Reykjavik", "Iceland", "EU", 64.15, -21.94),
    # --- North America pool ----------------------------------------------------
    ("Los Angeles", "USA", "NA", 34.05, -118.24),
    ("San Francisco", "USA", "NA", 37.77, -122.42),
    ("San Jose", "USA", "NA", 37.34, -121.89),
    ("Chicago", "USA", "NA", 41.88, -87.63),
    ("Dallas", "USA", "NA", 32.78, -96.80),
    ("Houston", "USA", "NA", 29.76, -95.37),
    ("Washington", "USA", "NA", 38.91, -77.04),
    ("Atlanta", "USA", "NA", 33.75, -84.39),
    ("Boston", "USA", "NA", 42.36, -71.06),
    ("Denver", "USA", "NA", 39.74, -104.99),
    ("Phoenix", "USA", "NA", 33.45, -112.07),
    ("Minneapolis", "USA", "NA", 44.98, -93.27),
    ("Montreal", "Canada", "NA", 45.50, -73.57),
    ("Vancouver", "Canada", "NA", 49.28, -123.12),
    ("Calgary", "Canada", "NA", 51.05, -114.07),
    ("Mexico City", "Mexico", "NA", 19.43, -99.13),
    ("Guadalajara", "Mexico", "NA", 20.67, -103.35),
    ("Panama City", "Panama", "NA", 8.98, -79.52),
    ("San Juan", "Puerto Rico", "NA", 18.47, -66.11),
    ("Guatemala City", "Guatemala", "NA", 14.63, -90.51),
    ("San Salvador", "El Salvador", "NA", 13.69, -89.22),
    ("Tegucigalpa", "Honduras", "NA", 14.07, -87.19),
    ("San Jose CR", "Costa Rica", "NA", 9.93, -84.08),
    ("Santo Domingo", "Dominican Republic", "NA", 18.49, -69.93),
    # --- South America pool ------------------------------------------------------
    ("Rio de Janeiro", "Brazil", "SA", -22.91, -43.17),
    ("Brasilia", "Brazil", "SA", -15.79, -47.88),
    ("Porto Alegre", "Brazil", "SA", -30.03, -51.23),
    ("Curitiba", "Brazil", "SA", -25.43, -49.27),
    ("Fortaleza", "Brazil", "SA", -3.72, -38.54),
    ("Recife", "Brazil", "SA", -8.05, -34.88),
    ("Salvador", "Brazil", "SA", -12.97, -38.50),
    ("Bogota", "Colombia", "SA", 4.71, -74.07),
    ("Medellin", "Colombia", "SA", 6.24, -75.58),
    ("Lima", "Peru", "SA", -12.05, -77.04),
    ("Santiago", "Chile", "SA", -33.45, -70.67),
    ("Caracas", "Venezuela", "SA", 10.48, -66.90),
    ("Quito", "Ecuador", "SA", -0.18, -78.47),
    ("Montevideo", "Uruguay", "SA", -34.90, -56.16),
    ("Asuncion", "Paraguay", "SA", -25.26, -57.58),
    ("La Paz", "Bolivia", "SA", -16.50, -68.15),
    ("Cordoba", "Argentina", "SA", -31.42, -64.18),
    # --- Asia pool -----------------------------------------------------------------
    ("Singapore", "Singapore", "AS", 1.35, 103.82),
    ("Taipei", "Taiwan", "AS", 25.03, 121.57),
    ("Beijing", "China", "AS", 39.90, 116.41),
    ("Shanghai", "China", "AS", 31.23, 121.47),
    ("Shenzhen", "China", "AS", 22.54, 114.06),
    ("Osaka", "Japan", "AS", 34.69, 135.50),
    ("Nagoya", "Japan", "AS", 35.18, 136.91),
    ("Busan", "South Korea", "AS", 35.18, 129.08),
    ("Mumbai", "India", "AS", 19.08, 72.88),
    ("Delhi", "India", "AS", 28.70, 77.10),
    ("Chennai", "India", "AS", 13.08, 80.27),
    ("Bangalore", "India", "AS", 12.97, 77.59),
    ("Bangkok", "Thailand", "AS", 13.76, 100.50),
    ("Jakarta", "Indonesia", "AS", -6.21, 106.85),
    ("Manila", "Philippines", "AS", 14.60, 120.98),
    ("Kuala Lumpur", "Malaysia", "AS", 3.14, 101.69),
    ("Hanoi", "Vietnam", "AS", 21.03, 105.85),
    ("Ho Chi Minh City", "Vietnam", "AS", 10.82, 106.63),
    ("Dubai", "UAE", "AS", 25.20, 55.27),
    ("Doha", "Qatar", "AS", 25.29, 51.53),
    ("Riyadh", "Saudi Arabia", "AS", 24.71, 46.68),
    ("Tel Aviv", "Israel", "AS", 32.09, 34.78),
    ("Amman", "Jordan", "AS", 31.96, 35.95),
    ("Karachi", "Pakistan", "AS", 24.86, 67.01),
    ("Dhaka", "Bangladesh", "AS", 23.81, 90.41),
    ("Colombo", "Sri Lanka", "AS", 6.93, 79.85),
    ("Almaty", "Kazakhstan", "AS", 43.24, 76.89),
    ("Tbilisi", "Georgia", "AS", 41.72, 44.83),
    ("Baku", "Azerbaijan", "AS", 40.41, 49.87),
    ("Yerevan", "Armenia", "AS", 40.18, 44.51),
    # --- Africa pool ------------------------------------------------------------------
    ("Johannesburg", "South Africa", "AF", -26.20, 28.05),
    ("Cape Town", "South Africa", "AF", -33.92, 18.42),
    ("Nairobi", "Kenya", "AF", -1.29, 36.82),
    ("Lagos", "Nigeria", "AF", 6.52, 3.38),
    ("Accra", "Ghana", "AF", 5.60, -0.19),
    ("Cairo", "Egypt", "AF", 30.04, 31.24),
    ("Casablanca", "Morocco", "AF", 33.57, -7.59),
    ("Tunis", "Tunisia", "AF", 36.81, 10.18),
    ("Algiers", "Algeria", "AF", 36.74, 3.09),
    ("Dakar", "Senegal", "AF", 14.72, -17.47),
    ("Kampala", "Uganda", "AF", 0.35, 32.58),
    ("Dar es Salaam", "Tanzania", "AF", -6.79, 39.21),
    ("Addis Ababa", "Ethiopia", "AF", 9.03, 38.74),
    ("Kinshasa", "DR Congo", "AF", -4.44, 15.27),
    ("Luanda", "Angola", "AF", -8.84, 13.23),
    ("Maputo", "Mozambique", "AF", -25.97, 32.57),
    ("Mauritius", "Mauritius", "AF", -20.16, 57.50),
    # --- Oceania pool -----------------------------------------------------------------
    ("Sydney", "Australia", "OC", -33.87, 151.21),
    ("Melbourne", "Australia", "OC", -37.81, 144.96),
    ("Brisbane", "Australia", "OC", -27.47, 153.03),
    ("Perth", "Australia", "OC", -31.95, 115.86),
    ("Auckland", "New Zealand", "OC", -36.85, 174.76),
    ("Wellington", "New Zealand", "OC", -41.29, 174.78),
]


@dataclass
class CityDB:
    """Lookup table of :class:`City` objects, indexed by name."""

    cities: dict[str, City] = field(default_factory=dict)

    def add(self, city: City) -> None:
        """Register a city; duplicate names are configuration errors."""
        if city.name in self.cities:
            raise ConfigurationError(f"duplicate city {city.name!r}")
        self.cities[city.name] = city

    def get(self, name: str) -> City:
        """Return the city called ``name`` or raise ConfigurationError."""
        try:
            return self.cities[name]
        except KeyError:
            raise ConfigurationError(f"unknown city {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.cities

    def __len__(self) -> int:
        return len(self.cities)

    def by_continent(self, continent: str) -> list[City]:
        """All cities in a continent code (EU/NA/SA/AS/AF/OC), name-sorted."""
        found = [c for c in self.cities.values() if c.continent == continent]
        return sorted(found, key=lambda c: c.name)

    def sample(
        self,
        rng: np.random.Generator,
        count: int = 1,
        continent: str | None = None,
        exclude: set[str] | None = None,
    ) -> list[City]:
        """Sample ``count`` distinct cities, optionally within one continent."""
        pool = self.by_continent(continent) if continent else sorted(
            self.cities.values(), key=lambda c: c.name
        )
        if exclude:
            pool = [c for c in pool if c.name not in exclude]
        if count > len(pool):
            raise ConfigurationError(
                f"cannot sample {count} cities from a pool of {len(pool)}"
            )
        idx = rng.choice(len(pool), size=count, replace=False)
        return [pool[i] for i in idx]


def default_city_db() -> CityDB:
    """Build the built-in city database (fresh, mutation-safe copy)."""
    db = CityDB()
    for name, country, continent, lat, lon in _RAW:
        db.add(_c(name, country, continent, lat, lon))
    return db
