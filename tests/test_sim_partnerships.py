"""Partner-IXP interconnects in the generated world (Section 2.3/3.2)."""

import numpy as np
import pytest

from repro.ixp.catalog import paper_catalog
from repro.sim import DetectionWorldConfig, build_detection_world


@pytest.fixture(scope="module")
def partner_world():
    specs = tuple(
        s for s in paper_catalog() if s.acronym in ("TOP-IX", "AMS-IX")
    )
    return build_detection_world(DetectionWorldConfig(seed=5, specs=specs))


def rows_of(world, acronym: str) -> slice:
    entry = world.exchanges[world.exchange_index[acronym]]
    return slice(entry.start, entry.stop)


class TestPartnerships:
    def test_partnerships_recorded(self, partner_world):
        """Partner members are remote rows flagged ``partner``, homed at
        the partner IXP's city: TOP-IX's from VSIX (Padua) and LyonIX
        (Lyon), AMS-IX's from AMS-IX Hong Kong."""
        t = partner_world.table
        homes = {}
        for acronym in ("TOP-IX", "AMS-IX"):
            rows = np.flatnonzero(t.partner[rows_of(partner_world, acronym)])
            rows += rows_of(partner_world, acronym).start
            assert t.is_remote[rows].all()
            homes[acronym] = sorted(
                partner_world.matrix.cities[c].name for c in t.home_city[rows]
            )
        assert homes == {
            "TOP-IX": ["Lyon"] * 4 + ["Padua"] * 5,
            "AMS-IX": ["Hong Kong"] * 4,
        }

    def test_partner_circuits_in_detectable_range(self, partner_world):
        """Partner members at TOP-IX sit in the 10-20 ms band (the paper's
        explanation for TOP-IX's high remote fraction)."""
        t = partner_world.table
        rows = rows_of(partner_world, "TOP-IX")
        near = t.is_remote[rows] & (t.circuit_km[rows] < 600)
        assert near.sum() >= 4
        rtts = t.base_rtt_ms[rows][near]
        assert ((9.0 < rtts) & (rtts < 22.0)).all()

    def test_ams_hk_partnership_is_intercontinental(self, partner_world):
        t = partner_world.table
        rows = rows_of(partner_world, "AMS-IX")
        hk = t.is_remote[rows] & (t.circuit_km[rows] > 8000)
        assert hk.any()  # AMS-IX-HK members reach Amsterdam over ~9,300 km
        assert (t.base_rtt_ms[rows][hk] > 50.0).all()
