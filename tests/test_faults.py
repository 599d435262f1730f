"""The fault-injection layer: windows, schedules, retries, failover.

Everything here is about determinism guarantees: the chaos a seed draws
is bit-reproducible, duration-scale sweeps produce *nested* window
unions on a fixed seed (the property the failover scenario's
monotonicity rests on), and the retry planner's output is a pure
function of (grid, outages, policy, stream).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.faults import (
    FAULT_KINDS,
    FaultConfig,
    RetryPolicy,
    build_fault_schedule,
    draw_windows,
    merge_windows,
    plan_retries,
    window_mask,
    window_overlap_fractions,
)
from repro.layer2.failover import FailoverState
from repro.netflow.billing import failover_billing_report
from repro.rand import child_rng
from repro.sim.detection_world import DetectionWorldConfig, build_detection_world
from repro.ixp.catalog import spec_by_acronym
from repro.units import DAY, FIVE_MINUTES, MINUTE
from tests.reference.objects import failover_extra_ms


class TestWindows:
    def test_merge_overlapping(self):
        edges = merge_windows(
            np.array([5.0, 1.0, 4.0]), np.array([1.0, 2.0, 1.5])
        )
        assert edges.tolist() == [1.0, 3.0, 4.0, 6.0]

    def test_merge_drops_zero_durations(self):
        edges = merge_windows(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
        assert edges.tolist() == [2.0, 3.0]

    def test_mask_parity(self):
        edges = np.array([1.0, 3.0, 4.0, 6.0])
        times = np.array([0.5, 1.0, 2.0, 3.0, 4.5, 6.5])
        assert window_mask(edges, times).tolist() == [
            False, True, True, False, True, False,
        ]

    def test_empty_edges_mask_nothing(self):
        assert not window_mask(np.zeros(0), np.array([1.0, 2.0])).any()

    def test_overlap_fractions_are_exact(self):
        rng = child_rng(3, "test", "overlap")
        edges = draw_windows(rng, 20.0, 2 * 3600.0, 28 * DAY)
        fracs = window_overlap_fractions(edges, 8064, FIVE_MINUTES)
        total = float((edges[1::2] - edges[0::2]).sum())
        assert fracs.sum() * FIVE_MINUTES == pytest.approx(total)
        assert fracs.min() >= 0.0 and fracs.max() <= 1.0

    def test_draw_windows_deterministic(self):
        a = draw_windows(child_rng(7, "x"), 5.0, 3600.0, 28 * DAY)
        b = draw_windows(child_rng(7, "x"), 5.0, 3600.0, 28 * DAY)
        assert np.array_equal(a, b)

    def test_zero_intensity_draws_nothing(self):
        edges = draw_windows(
            child_rng(7, "x"), 5.0, 3600.0, 28 * DAY, intensity=0.0
        )
        assert edges.size == 0

    def test_duration_scale_nests_window_unions(self):
        # The failover scenario's monotonicity property: on one stream,
        # a larger duration_scale can only grow the union of windows.
        span = 28 * DAY
        times = np.linspace(0.0, span, 20011)
        masks = {}
        for scale in (0.5, 1.0, 4.0):
            edges = draw_windows(
                child_rng(11, "nest"), 10.0, 3600.0, span,
                duration_scale=scale,
            )
            masks[scale] = window_mask(edges, times)
        assert masks[1.0][masks[0.5]].all()
        assert masks[4.0][masks[1.0]].all()
        assert masks[4.0].sum() > masks[0.5].sum()


class TestRetryPlanning:
    def test_policy_must_fit_the_minute_slot(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=6, base_backoff_s=4.0)
        assert RetryPolicy().worst_case_delay_s() <= MINUTE

    def test_retry_shifts_into_the_next_window_gap(self):
        # Outage covers the planned time but ends before the first retry.
        outage = np.array([99.0, 101.5])
        plan = plan_retries(
            np.array([100.0]),
            lambda t: window_mask(outage, t),
            RetryPolicy(max_jitter_s=0.0),
            child_rng(0, "b"),
        )
        assert plan.served.tolist() == [True]
        assert plan.attempts.tolist() == [2]
        assert plan.retries == 1
        assert plan.effective_s[0] == pytest.approx(102.0)

    def test_long_outage_drops_the_query(self):
        outage = np.array([90.0, 200.0])
        plan = plan_retries(
            np.array([100.0, 300.0]),
            lambda t: window_mask(outage, t),
            RetryPolicy(),
            child_rng(0, "b"),
        )
        assert plan.served.tolist() == [False, True]
        assert plan.dropped == 1
        assert plan.attempts[1] == 1

    def test_plan_is_deterministic(self):
        outage = np.array([50.0, 1000.0, 5000.0, 5600.0])
        times = np.arange(64, dtype=float) * 90.0
        plans = [
            plan_retries(
                times, lambda t: window_mask(outage, t),
                RetryPolicy(), child_rng(4, "det"),
            )
            for _ in range(2)
        ]
        assert np.array_equal(plans[0].effective_s, plans[1].effective_s)
        assert np.array_equal(plans[0].served, plans[1].served)
        assert np.array_equal(plans[0].attempts, plans[1].attempts)

    def test_effective_times_stay_inside_the_slot(self):
        outage = np.array([50.0, 1000.0])
        times = np.arange(32, dtype=float) * MINUTE
        plan = plan_retries(
            times, lambda t: window_mask(outage, t),
            RetryPolicy(), child_rng(4, "slot"),
        )
        delays = plan.effective_s - times
        assert (delays >= 0).all()
        assert (delays <= MINUTE).all()


class TestFaultSchedule:
    @pytest.fixture(scope="class")
    def world(self):
        return build_detection_world(
            DetectionWorldConfig(specs=(spec_by_acronym("TorIX"),), seed=5)
        )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(intensity=-1.0)
        with pytest.raises(ConfigurationError):
            FaultConfig(loss_severity=1.5)
        assert not FaultConfig(intensity=0.0).active
        assert FaultConfig().active

    def test_schedule_is_bit_reproducible(self, world):
        a = build_fault_schedule(FaultConfig(), 21, world)
        b = build_fault_schedule(FaultConfig(), 21, world)
        assert a.events == b.events
        assert len(a.events) > 0
        assert {e.kind for e in a.events} <= set(FAULT_KINDS)

    def test_seed_changes_the_chaos(self, world):
        a = build_fault_schedule(FaultConfig(), 21, world)
        b = build_fault_schedule(FaultConfig(), 22, world)
        assert a.events != b.events

    def test_inactive_config_builds_empty_schedule(self, world):
        schedule = build_fault_schedule(FaultConfig(intensity=0.0), 21, world)
        assert schedule.events == ()
        assert not schedule.probe_faults("TorIX").loss_edges.size

    def test_server_down_merges_outages_and_storms(self, world):
        schedule = build_fault_schedule(FaultConfig(), 21, world)
        name = next(iter(schedule.server_down))
        down = schedule.server_down_fn(name)
        edges = schedule.server_down[name]
        if edges.size:
            inside = 0.5 * (edges[0] + edges[1])
            assert down(np.array([inside]))[0]
        assert not down(np.array([-1.0]))[0]


class TestFailoverState:
    def test_scalar_and_batch_agree(self):
        from repro.net.addr import IPv4Address

        state = FailoverState(
            windows={42: (np.array([10.0, 20.0]), 6.5)}
        )
        times = np.array([5.0, 10.0, 15.0, 20.0, 25.0])
        addr = IPv4Address(42)
        scalar = [failover_extra_ms(state, addr, t) for t in times]
        assert scalar == [0.0, 6.5, 6.5, 0.0, 0.0]

    def test_unknown_address_adds_nothing(self):
        from repro.net.addr import IPv4Address

        state = FailoverState()
        assert not state
        assert failover_extra_ms(state, IPv4Address(1), 0.0) == 0.0


class TestFailoverBilling:
    def _series(self):
        rng = child_rng(9, "billing")
        transit = rng.uniform(10.0, 100.0, size=288)
        offload = transit * rng.uniform(0.2, 0.6, size=288)
        return transit, offload

    def test_zero_fallback_matches_ideal(self):
        transit, offload = self._series()
        report = failover_billing_report(
            transit, offload, np.zeros_like(transit)
        )
        assert report.realized_after_rate_bps == report.ideal_after_rate_bps
        assert report.burst_penalty == 0.0

    def test_full_fallback_erases_the_savings(self):
        transit, offload = self._series()
        report = failover_billing_report(transit, offload, offload)
        assert report.realized_savings_fraction == pytest.approx(0.0)
        assert report.ideal_savings_fraction > 0.0
        assert report.burst_penalty > 0.0

    def test_fallback_cannot_exceed_offload(self):
        transit, offload = self._series()
        with pytest.raises(AnalysisError):
            failover_billing_report(transit, offload, offload * 1.5)

    def test_series_must_align(self):
        transit, offload = self._series()
        with pytest.raises(AnalysisError):
            failover_billing_report(transit, offload, np.zeros(10))

    def test_monotone_in_fallback_share(self):
        transit, offload = self._series()
        errors = [
            failover_billing_report(
                transit, offload, offload * share
            ).ideal_savings_fraction
            - failover_billing_report(
                transit, offload, offload * share
            ).realized_savings_fraction
            for share in (0.0, 0.25, 0.5, 1.0)
        ]
        assert errors == sorted(errors)
