"""ICMP echo semantics: RTT and TTL observables."""

import numpy as np
import pytest

from repro.net.device import Device, TTL_LINUX, TTL_NETWORK_OS
from repro.net.icmp import reply_for_probe


def probe(device, rng=None, **kwargs):
    defaults = {
        "target_address": "10.0.0.1",
        "path_rtt_ms": 1.0,
        "sent_at_s": 0.0,
        "rng": rng if rng is not None else np.random.default_rng(0),
    }
    defaults.update(kwargs)
    return reply_for_probe(device, **defaults)


class TestReply:
    def test_healthy_device_replies(self):
        d = Device(name="r", respond_probability=1.0, processing_ms=0.0)
        obs = probe(d)
        assert obs.reply is not None
        assert obs.reply.ttl == TTL_NETWORK_OS
        assert obs.reply.rtt_ms == pytest.approx(1.0)

    def test_blackholing_device_never_replies(self):
        d = Device(name="r", respond_probability=0.0)
        for seed in range(10):
            assert probe(d, rng=np.random.default_rng(seed)).reply is None

    def test_processing_delay_added(self):
        d = Device(name="r", processing_ms=5.0)
        obs = probe(d)
        assert obs.reply.rtt_ms > 1.0

    def test_extra_hops_decrement_ttl(self):
        d = Device(name="r", ttl_init=TTL_LINUX, reply_extra_hops=2,
                   processing_ms=0.0)
        obs = probe(d)
        assert obs.reply.ttl == TTL_LINUX - 2

    def test_hop_override(self):
        d = Device(name="r", ttl_init=TTL_LINUX, processing_ms=0.0)
        obs = probe(d, reply_extra_hops=3)
        assert obs.reply.ttl == TTL_LINUX - 3

    def test_ttl_exhaustion_is_timeout(self):
        d = Device(name="r", ttl_init=32, processing_ms=0.0)
        obs = probe(d, reply_extra_hops=32)
        assert obs.reply is None

    def test_os_change_visible_in_ttl(self):
        d = Device(
            name="r", ttl_init=TTL_LINUX, ttl_after_change=TTL_NETWORK_OS,
            os_change_time=50.0, processing_ms=0.0,
        )
        before = probe(d, sent_at_s=0.0)
        after = probe(d, sent_at_s=100.0)
        assert before.reply.ttl == TTL_LINUX
        assert after.reply.ttl == TTL_NETWORK_OS

    def test_reply_records_target_and_time(self):
        d = Device(name="r", processing_ms=0.0)
        obs = probe(d, target_address="192.0.2.9", sent_at_s=123.0)
        assert obs.reply.target_address == "192.0.2.9"
        assert obs.reply.sent_at_s == 123.0
