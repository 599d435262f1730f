"""Campaign orchestration over the mini world."""

import pytest

from repro.core.detection import CampaignConfig, ProbeCampaign
from repro.errors import ConfigurationError


class TestConfig:
    def test_defaults_match_paper(self):
        config = CampaignConfig()
        assert config.remoteness_threshold_ms == 10.0
        assert config.rounds_for("PCH") == 11
        assert config.rounds_for("RIPE") == 7

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(pch_rounds=0)
        with pytest.raises(ConfigurationError):
            CampaignConfig(remoteness_threshold_ms=0)

    def test_engine_not_settable(self):
        """One probe engine: ``engine`` keeps its place in the repr, which
        study fingerprints hash, but cannot be passed."""
        with pytest.raises(TypeError):
            CampaignConfig(engine="scalar")
        assert CampaignConfig().engine == "batch"
        assert repr(CampaignConfig()).endswith(", engine='batch', faults=None)")


class TestCollection:
    def test_every_target_measured(self, mini_world, mini_result):
        assert mini_result.candidate_count == mini_world.candidate_count()

    def test_reply_caps_match_paper(self, mini_world):
        """Max replies per interface: 55 from PCH (11x5), 21 from RIPE (7x3)
        — the paper reports maxima of 54 and 21."""
        campaign = ProbeCampaign(mini_world, CampaignConfig(seed=13))
        measurements = campaign.collect_ixp("Netnod")  # dual-LG IXP
        pch_max = max(m.reply_count("PCH") for m in measurements)
        ripe_max = max(m.reply_count("RIPE") for m in measurements)
        assert pch_max <= 55
        assert ripe_max <= 21
        assert pch_max >= 50  # healthy interfaces answer nearly everything
        assert ripe_max >= 19

    def test_identification_attached(self, mini_world):
        campaign = ProbeCampaign(mini_world, CampaignConfig(seed=13))
        measurements = campaign.collect_ixp("TorIX")
        identified = [m for m in measurements if m.asn_at_start is not None]
        # Coverage is ~73%: the majority but not all are identified.
        assert 0.5 < len(identified) / len(measurements) < 0.95

    def test_deterministic(self, mini_world):
        a = ProbeCampaign(mini_world, CampaignConfig(seed=13)).collect_ixp("TOP-IX")
        b = ProbeCampaign(mini_world, CampaignConfig(seed=13)).collect_ixp("TOP-IX")
        mins_a = [m.min_rtt_ms() for m in a]
        mins_b = [m.min_rtt_ms() for m in b]
        assert mins_a == mins_b

    def test_seed_changes_samples(self, mini_world):
        a = ProbeCampaign(mini_world, CampaignConfig(seed=13)).collect_ixp("TOP-IX")
        b = ProbeCampaign(mini_world, CampaignConfig(seed=14)).collect_ixp("TOP-IX")
        assert [m.min_rtt_ms() for m in a] != [m.min_rtt_ms() for m in b]


class TestEndToEnd:
    def test_analyzed_close_to_candidates(self, mini_result):
        discarded = sum(mini_result.discard_counts.values())
        assert mini_result.analyzed_count() + discarded == mini_result.candidate_count
        assert discarded < 0.15 * mini_result.candidate_count

    def test_minimum_rtts_have_direct_floor(self, mini_result):
        """Figure 2's structure: the bulk sits in the 0.3-2 ms range."""
        rtts = mini_result.min_rtts()
        bulk = ((rtts >= 0.2) & (rtts <= 2.5)).mean()
        assert bulk > 0.5

    def test_remote_detected_where_expected(self, mini_result):
        bands = mini_result.band_counts_by_ixp()
        # TOP-IX has remote fraction 0.25: must show remote interfaces.
        top_ix = bands["TOP-IX"]
        assert top_ix["10-20ms"] + top_ix["20-50ms"] + top_ix[">=50ms"] > 5
