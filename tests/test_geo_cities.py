"""The built-in city database."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geo.cities import City, CityDB, default_city_db
from repro.geo.coords import GeoPoint


@pytest.fixture(scope="module")
def db():
    return default_city_db()


class TestContent:
    def test_paper_ixp_cities_present(self, db):
        for name in [
            "Amsterdam", "Frankfurt", "London", "Hong Kong", "New York",
            "Moscow", "Warsaw", "Paris", "Sao Paulo", "Seattle", "Tokyo",
            "Toronto", "Vienna", "Milan", "Turin", "Stockholm", "Seoul",
            "Buenos Aires", "Dublin", "Miami", "Madrid", "Barcelona",
        ]:
            assert name in db

    def test_every_continent_represented(self, db):
        for code in ("EU", "NA", "SA", "AS", "AF", "OC"):
            assert db.by_continent(code), code

    def test_reasonable_size(self, db):
        assert len(db) >= 150

    def test_get_unknown_raises(self, db):
        with pytest.raises(ConfigurationError):
            db.get("Atlantis")

    def test_duplicate_add_rejected(self, db):
        with pytest.raises(ConfigurationError):
            db.add(db.get("Paris"))


class TestQueries:
    def test_by_continent_sorted(self, db):
        eu = db.by_continent("EU")
        assert [c.name for c in eu] == sorted(c.name for c in eu)

    def test_sample_distinct(self, db):
        rng = np.random.default_rng(0)
        picks = db.sample(rng, 10, continent="EU")
        assert len({c.name for c in picks}) == 10
        assert all(c.continent == "EU" for c in picks)

    def test_sample_exclude(self, db):
        rng = np.random.default_rng(0)
        eu_count = len(db.by_continent("EU"))
        picks = db.sample(rng, eu_count - 1, continent="EU",
                          exclude={"Paris"})
        assert "Paris" not in {c.name for c in picks}

    def test_sample_too_many_raises(self, db):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            db.sample(rng, 10_000)

    def test_city_distance_consistent(self, db):
        ams, fra = db.get("Amsterdam"), db.get("Frankfurt")
        assert ams.distance_km(fra) == pytest.approx(fra.distance_km(ams))
        assert ams.distance_km(fra) == pytest.approx(365, abs=30)

    def test_fresh_copy_isolated(self):
        one = default_city_db()
        two = default_city_db()
        one.add(City("Testville", "Nowhere", "EU", GeoPoint(0, 0)))
        assert "Testville" not in two
        assert "Testville" not in default_city_db()
        # The tables are separate; the frozen cities in them are shared.
        assert one.get("Amsterdam") is two.get("Amsterdam")
