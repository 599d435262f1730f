"""The array probe engine, and its equivalence with the per-probe
reference engine (``tests/reference/campaign.py``).

The two engines consume the same per-(seed, ixp, operator) RNG streams but
draw in different orders, so equivalence is statistical: reply counts,
min-RTT distributions, per-filter discard counts and the remote fraction
must agree within tolerance on the full 22-IXP world.
"""

import numpy as np
import pytest

from repro.bgp.asys import AutonomousSystem
from repro.core.detection import CampaignConfig, FilterPipeline, ProbeCampaign
from repro.core.detection.measurements import InterfaceMeasurement
from repro.core.detection.results import build_result
from repro.core.detection.validation import validate_against_truth
from repro.delaymodel.congestion import CongestionProcess, PersistentCongestion
from repro.errors import RateLimitError
from repro.geo.cities import default_city_db
from repro.lg.batch import run_sweeps, sweep_query_times
from repro.lg.client import LookingGlassClient
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.net.device import TTL_LINUX, TTL_NETWORK_OS
from repro.net.icmp import ReplyBatch
from repro.sim import scenarios
from repro.types import ASN
from tests.reference.campaign import ReferenceCampaign, compile_fabric_plan
from tests.reference.filters import product_measurement, replies_batch
from tests.reference.objects import (
    IXP,
    Device,
    LookingGlassServer,
    OffLanTarget,
    PortKind,
    Pseudowire,
)
from tests.reference.views import ObjectWorld


@pytest.fixture
def ixp():
    cities = default_city_db()
    ixp = IXP(
        acronym="B-IX", full_name="Batch Test", city=cities.get("Dublin"),
        country="Ireland", lan=IPv4Prefix.parse("10.60.0.0/24"),
    )
    direct = ixp.register(AutonomousSystem(asn=ASN(100), name="as100"))
    ixp.add_interface(
        direct,
        Device(name="r100", ttl_init=TTL_NETWORK_OS, processing_ms=0.05),
        PortKind.DIRECT, tail_rtt_ms=0.8,
    )
    remote = ixp.register(AutonomousSystem(asn=ASN(200), name="as200"))
    ixp.add_interface(
        remote,
        Device(name="r200", ttl_init=TTL_LINUX, processing_ms=0.05),
        PortKind.REMOTE, pseudowire=Pseudowire(cities.get("Tokyo"), ixp.city),
    )
    return ixp


@pytest.fixture
def pch(ixp):
    return LookingGlassServer.create("PCH", ixp.acronym, ixp.fabric,
                                     ixp.allocate_address())


class TestReplyBatch:
    def test_roundtrip_through_replies(self):
        batch = ReplyBatch(
            rtt_ms=np.array([1.5, 2.0]),
            ttl=np.array([255, 255]),
            sent_at_s=np.array([0.0, 1.0]),
        )
        replies = batch.to_replies("10.0.0.1")
        assert [r.rtt_ms for r in replies] == [1.5, 2.0]
        assert replies_batch(replies) == batch

    def test_select_and_concat(self):
        batch = ReplyBatch(
            rtt_ms=np.array([1.0, 9.0, 2.0]),
            ttl=np.array([255, 254, 255]),
            sent_at_s=np.array([0.0, 1.0, 2.0]),
        )
        kept = batch.select(batch.ttl == 255)
        assert len(kept) == 2 and list(kept.rtt_ms) == [1.0, 2.0]
        doubled = kept.concat(kept)
        assert len(doubled) == 4


class TestProbePlan:
    def test_static_arrays(self, ixp, pch):
        addresses = [iface.address for iface in ixp.interfaces()]
        plan = compile_fabric_plan(pch, addresses)
        assert len(plan) == 2
        assert plan.reachable.all()
        # Direct member: sub-ms base; Dublin-Tokyo remote: intercontinental.
        assert plan.base_rtt_ms[0] < 2.0
        assert plan.base_rtt_ms[1] > 50.0
        assert list(plan.ttl_init) == [TTL_NETWORK_OS, TTL_LINUX]

    def test_operator_bias_in_base_rtt(self, ixp):
        ripe = LookingGlassServer.create("RIPE", ixp.acronym, ixp.fabric,
                                         ixp.allocate_address())
        iface = ixp.interfaces()[0]
        iface.port.operator_bias["RIPE"] = 15.0
        plan = compile_fabric_plan(ripe, [iface.address])
        assert plan.base_rtt_ms[0] > 15.0

    def test_unreachable_address(self, ixp, pch):
        plan = compile_fabric_plan(pch, [IPv4Address.parse("10.60.0.250")])
        assert not plan.reachable[0]
        batches = run_sweeps(plan, np.array([0.0]), np.random.default_rng(0))
        assert len(batches[0]) == 0

    def test_offlan_target_hops(self, ixp, pch):
        stale = IPv4Address.parse("10.60.0.200")
        pch.register_offlan_target(
            stale,
            OffLanTarget(
                device=Device(name="off", ttl_init=TTL_NETWORK_OS,
                              processing_ms=0.05),
                base_rtt_ms=3.0, extra_hops=2,
            ),
        )
        plan = compile_fabric_plan(pch, [stale])
        assert plan.reachable[0] and plan.extra_hops[0] == 2
        batches = run_sweeps(plan, np.array([0.0]), np.random.default_rng(0))
        assert len(batches[0]) > 0
        assert (batches[0].ttl == TTL_NETWORK_OS - 2).all()


class TestRunSweeps:
    def test_reply_caps_and_rtt_ranges(self, ixp, pch):
        addresses = [iface.address for iface in ixp.interfaces()]
        plan = compile_fabric_plan(pch, addresses)
        starts = np.array([0.0, 7200.0, 86_400.0])
        assert sweep_query_times(plan, starts).shape == (3, 2)
        batches = run_sweeps(plan, starts, np.random.default_rng(1))
        # Healthy devices answer every ping: 3 rounds x 5 pings.
        assert len(batches[0]) == 15 and len(batches[1]) == 15
        assert batches[0].rtt_ms.min() > 0.8
        assert batches[1].rtt_ms.min() > 50.0

    def test_deterministic_given_stream(self, ixp, pch):
        addresses = [iface.address for iface in ixp.interfaces()]
        plan = compile_fabric_plan(pch, addresses)
        starts = np.array([0.0, 7200.0])
        a = run_sweeps(plan, starts, np.random.default_rng(3))
        b = run_sweeps(plan, starts, np.random.default_rng(3))
        assert a == b

    def test_query_time_grid(self, ixp, pch):
        plan = compile_fabric_plan(pch, [i.address for i in ixp.interfaces()])
        times = sweep_query_times(plan, np.array([100.0]))
        assert list(times[0]) == [100.0, 160.0]

    def test_custom_congestion_process_fallback(self, ixp, pch):
        """A third-party process overriding only delay_ms stays usable."""

        class Fixed(CongestionProcess):
            def delay_ms(self, time_s, rng):
                return 2.5

        iface = ixp.interfaces()[0]
        object.__setattr__(iface.port.profile, "congestion", Fixed())
        plan = compile_fabric_plan(pch, [iface.address])
        batches = run_sweeps(plan, np.array([0.0, 7200.0]),
                                np.random.default_rng(0))
        # Every probe crosses the fixed 2.5 ms standing delay.
        assert batches[0].rtt_ms.min() > 2.5 + 0.8

    def test_equal_congestion_on_both_endpoints_counted_twice(self, ixp):
        """Equal-valued processes on the LG and target port both apply."""
        congested = PersistentCongestion(floor_ms=5.0, spread_ms=1.0)
        iface = ixp.interfaces()[0]
        object.__setattr__(iface.port.profile, "congestion", congested)
        lg = LookingGlassServer.create("PCH", ixp.acronym, ixp.fabric,
                                       ixp.allocate_address())
        object.__setattr__(lg.port.profile, "congestion", congested)
        plan = compile_fabric_plan(lg, [iface.address])
        groups = [indices for _, indices in plan.congestion_groups]
        assert sum(int((indices == 0).sum()) for indices in groups) == 2
        assert all(len(np.unique(indices)) == len(indices) for indices in groups)
        batches = run_sweeps(plan, np.array([0.0]), np.random.default_rng(0))
        # Both endpoints' >= 5 ms floors must stack: > 10 ms on every probe.
        assert batches[0].rtt_ms.min() > 10.0

    def test_blackholed_target_yields_empty_batch(self, ixp, pch):
        member = ixp.register(AutonomousSystem(asn=ASN(300), name="as300"))
        iface = ixp.add_interface(
            member,
            Device(name="r300", ttl_init=TTL_LINUX, respond_probability=0.0),
            PortKind.DIRECT, tail_rtt_ms=0.5,
        )
        plan = compile_fabric_plan(pch, [iface.address])
        batches = run_sweeps(plan, np.array([0.0, 7200.0]),
                                np.random.default_rng(0))
        assert len(batches[0]) == 0


class TestRecordSweep:
    def test_valid_schedule_updates_ledger(self):
        client = LookingGlassClient()
        client.record_sweep("PCH@X", np.array([[0.0, 60.0], [600.0, 660.0]]))
        assert client.queries_sent("PCH@X") == 4
        # The next sweep must respect the last recorded query.
        with pytest.raises(RateLimitError):
            client.record_sweep("PCH@X", np.array([690.0]))

    def test_internal_violation_rejected(self):
        client = LookingGlassClient()
        with pytest.raises(RateLimitError):
            client.record_sweep("PCH@X", np.array([0.0, 30.0]))

    def test_empty_sweep_noop(self):
        client = LookingGlassClient()
        client.record_sweep("PCH@X", np.zeros((0,)))
        assert client.queries_sent("PCH@X") == 0


class TestFilterPurity:
    def test_ttl_match_does_not_mutate_input(self):
        m = InterfaceMeasurement(
            ixp_acronym="X-IX", address=IPv4Address.parse("10.0.0.1")
        )
        m.replies_by_operator["PCH"] = ReplyBatch(
            rtt_ms=np.linspace(1.0, 1.2, 12),
            ttl=np.array([255] * 11 + [254]),
            sent_at_s=np.arange(12.0),
        )
        # Mixed TTLs trip ttl-switch first; trimming shows without it.
        report = FilterPipeline().run([m], skip="ttl-switch")
        (survivor,) = report.passed
        assert survivor is not m
        assert m.reply_count("PCH") == 12  # input untouched
        assert survivor.reply_count("PCH") == 11
        assert len(report.passed.table.rtt_ms) == 12  # trimmed by mask

    def test_no_trim_returns_same_object(self):
        """An untrimmed survivor is a view of the table: its replies are
        the input's, and no reply array was copied for it."""
        m = InterfaceMeasurement(
            ixp_acronym="X-IX", address=IPv4Address.parse("10.0.0.1")
        )
        m.replies_by_operator["PCH"] = ReplyBatch(
            rtt_ms=np.linspace(1.0, 1.2, 12),
            ttl=np.array([255] * 12),
            sent_at_s=np.arange(12.0),
        )
        report = FilterPipeline().run([m])
        (survivor,) = report.passed
        assert survivor == m
        assert np.shares_memory(
            survivor.rtts("PCH"), report.passed.table.rtt_ms
        )


@pytest.mark.slow
class TestScalarBatchEquivalence:
    """Full 22-IXP world: the array engine and the per-probe reference
    must agree statistically."""

    @pytest.fixture(scope="class")
    def world(self):
        return scenarios.paper22(seed=42)

    @pytest.fixture(scope="class")
    def scalar_measurements(self, world):
        return [
            product_measurement(m)
            for m in ReferenceCampaign(world, CampaignConfig(seed=7)).collect()
        ]

    @pytest.fixture(scope="class")
    def batch_measurements(self, world):
        return ProbeCampaign(world, CampaignConfig(seed=7)).collect()

    def test_operator_keys_match_scalar(
        self, scalar_measurements, batch_measurements
    ):
        """Every probing operator appears, even with zero replies — the
        sample-size filter must see the same evidence under both engines."""
        for scalar_m, batch_m in zip(scalar_measurements, batch_measurements):
            assert set(scalar_m.replies_by_operator) == set(
                batch_m.replies_by_operator
            )

    def test_reply_counts_close(self, scalar_measurements, batch_measurements):
        scalar_total = sum(m.reply_count() for m in scalar_measurements)
        batch_total = sum(m.reply_count() for m in batch_measurements)
        assert batch_total == pytest.approx(scalar_total, rel=0.01)

    def test_min_rtt_distribution_close(
        self, scalar_measurements, batch_measurements
    ):
        def minima(measurements):
            values = [m.min_rtt_ms() for m in measurements]
            return np.array([v for v in values if v is not None])

        scalar_min = minima(scalar_measurements)
        batch_min = minima(batch_measurements)
        assert batch_min.size == pytest.approx(scalar_min.size, rel=0.01)
        for q in (10, 50, 90):
            assert np.percentile(batch_min, q) == pytest.approx(
                np.percentile(scalar_min, q), rel=0.15, abs=0.1
            )

    def test_filter_discards_and_remote_fraction_close(
        self, world, scalar_measurements, batch_measurements
    ):
        pipeline = FilterPipeline()
        outcomes = {}
        for name, measurements in (
            ("scalar", scalar_measurements), ("batch", batch_measurements)
        ):
            report = pipeline.run(measurements)
            result = build_result(measurements, report, threshold_ms=10.0)
            outcomes[name] = (report, result)
        scalar_report, scalar_result = outcomes["scalar"]
        batch_report, batch_result = outcomes["batch"]
        assert batch_result.analyzed_count() == pytest.approx(
            scalar_result.analyzed_count(), rel=0.02
        )
        for name, count in scalar_report.discard_counts.items():
            measured = batch_report.discard_counts[name]
            assert max(count, 1) / 2 <= max(measured, 1) <= max(count, 1) * 2, name
        assert batch_result.remote_spread_fraction() == pytest.approx(
            scalar_result.remote_spread_fraction(), abs=0.05
        )
        for result in (scalar_result, batch_result):
            assert validate_against_truth(world, result).precision > 0.99


class TestEmptyPlan:
    def test_zero_target_sweep_returns_no_batches(self, pch):
        plan = compile_fabric_plan(pch, [])
        batches = run_sweeps(plan, np.array([0.0]), np.random.default_rng(0))
        assert batches == []


class TestReplyTable:
    """A sweep's replies are one flat table; per-target batches are views."""

    def test_flat_layout_and_views(self, ixp, pch):
        plan = compile_fabric_plan(pch, [i.address for i in ixp.interfaces()])
        table = run_sweeps(plan, np.array([0.0, 7200.0]),
                           np.random.default_rng(2))
        assert list(table.counts) == [len(b) for b in table]
        assert len(table.rtt_ms) == int(table.counts.sum())
        second = table[1]
        assert np.shares_memory(second.rtt_ms, table.rtt_ms)
        assert np.array_equal(
            second.rtt_ms, table.rtt_ms[int(table.counts[0]):]
        )
        # Probe order within a target: send times never decrease.
        assert (np.diff(second.sent_at_s) >= 0).all()

    def test_table_plan_matches_object_plan(self):
        """The campaign's table plan and a plan compiled from the same
        world's object view (the reference compiler) agree on every
        static array, bit for bit."""
        from repro.lg.batch import compile_probe_plan
        from repro.sim.detection_world import (
            DetectionWorldConfig,
            build_detection_world,
        )
        from repro.sim.scenarios import mini_specs

        world = build_detection_world(
            DetectionWorldConfig(seed=11, specs=mini_specs())
        )
        views = ObjectWorld(world)
        for entry in world.exchanges:
            servers = views.lg_servers[entry.acronym]
            targets = [
                r.address for r in views.directory.targets_for(entry.acronym)
            ]
            for vantage, server in zip(entry.vantages, servers):
                table_plan = compile_probe_plan(world.table, entry, vantage)
                object_plan = compile_fabric_plan(server, targets)
                for name in ("address_values", "reachable", "base_rtt_ms",
                             "respond_prob", "processing_ms", "ttl_init",
                             "ttl_after", "os_change_s", "extra_hops"):
                    assert np.array_equal(
                        getattr(table_plan, name), getattr(object_plan, name)
                    ), name
                assert [
                    (p, list(i)) for p, i in table_plan.congestion_groups
                ] == [
                    (p, list(i)) for p, i in object_plan.congestion_groups
                ]
