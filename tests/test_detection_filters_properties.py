"""Property-based tests: invariants of the filter pipeline under arbitrary
reply streams."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.detection.filters import FilterConfig, FilterPipeline
from repro.core.detection.measurements import InterfaceMeasurement
from repro.net.addr import IPv4Address
from repro.net.icmp import EchoReply, ReplyBatch
from tests.reference.filters import envelope_ms, replies_batch

rtt = st.floats(min_value=0.05, max_value=500.0, allow_nan=False)
ttl = st.sampled_from([32, 64, 128, 253, 254, 255])


@st.composite
def reply_streams(draw):
    """A measurement with arbitrary per-operator reply streams."""
    operators = draw(st.sampled_from([("PCH",), ("PCH", "RIPE")]))
    m = InterfaceMeasurement(
        ixp_acronym="X-IX", address=IPv4Address.parse("10.0.0.1")
    )
    for operator in operators:
        count = draw(st.integers(min_value=0, max_value=30))
        replies = []
        for i in range(count):
            replies.append(
                EchoReply(
                    rtt_ms=draw(rtt),
                    ttl=draw(ttl),
                    target_address="10.0.0.1",
                    sent_at_s=float(i),
                )
            )
        m.replies_by_operator[operator] = replies_batch(replies)
    return m


class TestPipelineInvariants:
    @settings(max_examples=120, deadline=None)
    @given(streams=st.lists(reply_streams(), min_size=1, max_size=6))
    def test_conservation(self, streams):
        """Every input interface is either passed or discarded exactly once."""
        report = FilterPipeline().run(streams)
        assert len(report.passed) + report.total_discarded() == len(streams)

    @settings(max_examples=120, deadline=None)
    @given(m=reply_streams())
    def test_survivors_satisfy_all_filter_contracts(self, m):
        """Whatever survives must meet every filter's acceptance condition."""
        config = FilterConfig()
        report = FilterPipeline(config).run([m])
        if not report.passed:
            return
        survivor = report.passed[0]
        # sample-size: >= 8 replies per probing operator.
        for operator in survivor.operators():
            assert survivor.reply_count(operator) >= config.min_replies_per_lg
        # ttl-switch + ttl-match: one TTL value, and an accepted one.
        ttls = survivor.distinct_ttls()
        assert len(ttls) == 1
        assert ttls <= config.accepted_ttls
        # rtt-consistent: >= 4 replies within the envelope of the minimum.
        rtts = [r.rtt_ms for r in survivor.all_replies()]
        floor = min(rtts)
        ceiling = floor + envelope_ms(config, floor)
        assert sum(1 for r in rtts if r <= ceiling) >= 4
        # lg-consistent: per-operator minima agree.
        minima = [
            survivor.min_rtt_ms(op) for op in survivor.operators()
        ]
        if len(minima) == 2:
            low, high = min(minima), max(minima)
            assert high <= low + envelope_ms(config, low)

    @settings(max_examples=60, deadline=None)
    @given(m=reply_streams())
    def test_pipeline_deterministic(self, m):
        """Two runs over copies of the same stream agree."""
        def copy(measurement):
            duplicate = InterfaceMeasurement(
                ixp_acronym=measurement.ixp_acronym,
                address=measurement.address,
                replies_by_operator={
                    k: ReplyBatch(
                        rtt_ms=v.rtt_ms.copy(),
                        ttl=v.ttl.copy(),
                        sent_at_s=v.sent_at_s.copy(),
                    )
                    for k, v in measurement.replies_by_operator.items()
                },
            )
            return duplicate

        first = FilterPipeline().run([copy(m)])
        second = FilterPipeline().run([copy(m)])
        assert first.discard_counts == second.discard_counts
        assert len(first.passed) == len(second.passed)

    @settings(max_examples=60, deadline=None)
    @given(m=reply_streams())
    def test_trimming_never_adds_replies(self, m):
        """The pipeline only removes evidence, never invents it."""
        def rows(batch):
            return Counter(zip(
                batch.rtt_ms.tolist(), batch.ttl.tolist(),
                batch.sent_at_s.tolist(),
            ))

        original = {
            op: rows(replies) for op, replies in m.replies_by_operator.items()
        }
        report = FilterPipeline().run([m])
        if report.passed:
            survivor = report.passed[0]
            for op, replies in survivor.replies_by_operator.items():
                assert not rows(replies) - original[op]
