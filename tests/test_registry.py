"""The reference registries: records, sources with coverage, the
identification pipeline."""

import pytest

from repro.net.addr import IPv4Address
from repro.types import ASN
from tests.reference.registry import (
    IdentificationPipeline,
    InterfaceRecord,
    IXPDirectory,
    IXPWebsiteSource,
    PeeringDBSource,
    RegistryError,
    ReverseDNSSource,
    parse_asn_from_hostname,
)


def record(address: str, asn: int | None = 100, **kwargs) -> InterfaceRecord:
    return InterfaceRecord(
        ixp_acronym="X-IX",
        address=IPv4Address.parse(address),
        asn=ASN(asn) if asn else None,
        **kwargs,
    )


@pytest.fixture
def directory():
    d = IXPDirectory()
    for i in range(1, 21):
        d.add(record(f"10.0.0.{i}", asn=100 + i))
    return d


class TestRecords:
    def test_asn_at_no_change(self):
        r = record("10.0.0.1")
        assert r.asn_at(0.0) == 100
        assert r.asn_at(1e9) == 100

    def test_asn_change_mid_campaign(self):
        r = record("10.0.0.1", asn_after_change=ASN(999), asn_change_time=50.0)
        assert r.asn_at(49.0) == 100
        assert r.asn_at(50.0) == 999

    def test_directory_duplicate_rejected(self, directory):
        with pytest.raises(RegistryError):
            directory.add(record("10.0.0.1"))

    def test_directory_lookup(self, directory):
        r = directory.record_for("X-IX", IPv4Address.parse("10.0.0.5"))
        assert r.asn == 105
        with pytest.raises(RegistryError):
            directory.record_for("X-IX", IPv4Address.parse("10.0.9.9"))

    def test_targets_sorted_by_address(self, directory):
        targets = directory.targets_for("X-IX")
        values = [t.address.value for t in targets]
        assert values == sorted(values)

    def test_len(self, directory):
        assert len(directory) == 20


def answer(source, address: str, time_s: float = 0.0) -> ASN | None:
    """One source's answer for one address at one time."""
    (asn,) = source.answers("X-IX", IPv4Address.parse(address), (time_s,))
    return asn


class TestSources:
    def test_full_coverage_answers(self, directory):
        src = PeeringDBSource(directory, coverage=1.0, seed=1)
        assert answer(src, "10.0.0.3") == 103

    def test_zero_coverage_silent(self, directory):
        src = PeeringDBSource(directory, coverage=0.0, seed=1)
        for i in range(1, 21):
            assert answer(src, f"10.0.0.{i}") is None

    def test_coverage_deterministic(self, directory):
        a = IXPWebsiteSource(directory, coverage=0.5, seed=3)
        b = IXPWebsiteSource(directory, coverage=0.5, seed=3)
        assert answer(a, "10.0.0.7") == answer(b, "10.0.0.7")

    def test_well_known_bypasses_coverage(self):
        d = IXPDirectory()
        d.add(record("10.0.0.1", well_known=True))
        src = PeeringDBSource(d, coverage=0.0, seed=1)
        assert answer(src, "10.0.0.1") == 100

    def test_rdns_hostname_format(self, directory):
        src = ReverseDNSSource(directory, coverage=1.0, seed=1)
        assert parse_asn_from_hostname("as104.x-ix.example.net") == 104
        assert answer(src, "10.0.0.4") == 104

    @pytest.mark.parametrize(
        "hostname,expected",
        [
            ("as123.linx.example.net", 123),
            ("AS77.vix.example.net", 77),
            ("router1.linx.example.net", None),
            ("as.linx.example.net", None),
            ("as0.linx.example.net", None),
            ("asx12.linx.example.net", None),
        ],
    )
    def test_parse_asn_from_hostname(self, hostname, expected):
        assert parse_asn_from_hostname(hostname) == expected


class TestPipeline:
    def make_pipeline(self, directory, pdb=1.0, web=1.0, rdns=1.0, seed=1):
        return IdentificationPipeline(
            peeringdb=PeeringDBSource(directory, coverage=pdb, seed=seed),
            website=IXPWebsiteSource(directory, coverage=web, seed=seed),
            rdns=ReverseDNSSource(directory, coverage=rdns, seed=seed),
        )

    def identify(self, pipeline, address: str, start_s=0.0, end_s=0.0):
        return pipeline.identify_span(
            "X-IX", IPv4Address.parse(address), start_s, end_s)

    def test_first_source_wins(self, directory):
        pipeline = self.make_pipeline(directory)
        result, _ = self.identify(pipeline, "10.0.0.2")
        assert result.asn is not None
        assert result.asn == 102
        assert result.source == "peeringdb"

    def test_falls_through_sources(self, directory):
        pipeline = self.make_pipeline(directory, pdb=0.0, web=0.0, rdns=1.0)
        result, _ = self.identify(pipeline, "10.0.0.2")
        assert result.source == "rdns"

    def test_unidentified(self, directory):
        pipeline = self.make_pipeline(directory, pdb=0.0, web=0.0, rdns=0.0)
        result, _ = self.identify(pipeline, "10.0.0.2")
        assert result.asn is None
        assert result.source is None

    def test_asn_changed_detection(self):
        d = IXPDirectory()
        d.add(record("10.0.0.1", asn_after_change=ASN(999),
                     asn_change_time=100.0))
        pipeline = self.make_pipeline(d)
        first, last = self.identify(pipeline, "10.0.0.1", 0.0, 200.0)
        assert (first.asn, last.asn) == (100, 999)
        first, last = self.identify(pipeline, "10.0.0.1", 0.0, 50.0)
        assert first.asn == last.asn == 100

    def test_unidentified_end_is_not_a_change(self):
        d = IXPDirectory()
        d.add(record("10.0.0.1", asn_after_change=ASN(999),
                     asn_change_time=100.0))
        pipeline = self.make_pipeline(d, pdb=0.0, web=0.0, rdns=0.0)
        first, last = self.identify(pipeline, "10.0.0.1", 0.0, 200.0)
        assert first.asn is None and last.asn is None
