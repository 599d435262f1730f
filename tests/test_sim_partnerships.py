"""Partner-IXP interconnects in the generated world (Section 2.3/3.2)."""

import pytest

from repro.ixp.catalog import paper_catalog
from repro.sim import DetectionWorldConfig, build_detection_world


@pytest.fixture(scope="module")
def partner_world():
    specs = tuple(
        s for s in paper_catalog() if s.acronym in ("TOP-IX", "AMS-IX")
    )
    return build_detection_world(DetectionWorldConfig(seed=5, specs=specs))


class TestPartnerships:
    def test_partnerships_recorded(self, partner_world):
        pairs = {(p.ixp_a, p.ixp_b) for p in partner_world.partnerships}
        assert ("TOP-IX", "VSIX") in pairs
        assert ("TOP-IX", "LyonIX") in pairs
        assert ("AMS-IX", "AMS-IX-HK") in pairs

    def test_partner_circuits_in_detectable_range(self, partner_world):
        """Partner members at TOP-IX sit in the 10-20 ms band (the paper's
        explanation for TOP-IX's high remote fraction)."""
        partner_truths = [
            t for t in partner_world.truth.values()
            if t.ixp_acronym == "TOP-IX" and t.is_remote
            and t.circuit_km < 600
        ]
        assert len(partner_truths) >= 4
        for truth in partner_truths:
            assert 9.0 < truth.base_rtt_ms < 22.0

    def test_ams_hk_partnership_is_intercontinental(self, partner_world):
        hk = [
            t for t in partner_world.truth.values()
            if t.ixp_acronym == "AMS-IX" and t.is_remote
            and t.circuit_km > 8000
        ]
        assert hk  # AMS-IX-HK members reach Amsterdam over ~9,300 km
        assert all(t.base_rtt_ms > 50.0 for t in hk)
