"""Unit tests for the structured event tracer (repro.obs.trace)."""

import json
from typing import Any, Optional

import pytest

from repro.obs.trace import EventKind, TraceEvent, Tracer


class LegacyEmitTracer(Tracer):
    """Reference for ``Tracer.emit``: the pre-optimization emit path.

    Serializes and hashes every event eagerly, one SHA-256 update per
    event, and always walks the subscriber loop. The optimized emit
    (lazy encoding, batched hashing, subscriber loop skipped when
    empty) must produce the same digest, ring and subscriber calls.
    """

    def emit(self, kind: EventKind, subject: str = "", **data: Any) -> Optional[TraceEvent]:
        if not self.enabled:
            return None
        event = TraceEvent(
            next(self._seq),
            self._clock(),
            kind.value if isinstance(kind, EventKind) else str(kind),
            subject,
            data,
        )
        self.events.append(event)
        self.emitted += 1
        if self._hash is not None:
            payload = json.dumps(
                event.data, sort_keys=True, separators=(",", ":"), default=str
            )
            line = f"{event.seq}|{event.time!r}|{event.kind}|{event.subject}|{payload}"
            self._hash.update(line.encode("utf-8"))
            self._hash.update(b"\n")
        for subscriber in self._subscribers:
            subscriber(event)
        return event


def make_tracer(**kwargs):
    clock = {"now": 0.0}
    tracer = Tracer(clock=lambda: clock["now"], **kwargs)
    return clock, tracer


class TestTracer:
    def test_emit_stamps_clock_and_seq(self):
        clock, tracer = make_tracer()
        clock["now"] = 1.5
        first = tracer.emit(EventKind.RECALL, "cg", region=1, pages=4)
        clock["now"] = 2.5
        second = tracer.emit(EventKind.RECALL, "cg", region=2, pages=4)
        assert (first.seq, first.time) == (0, 1.5)
        assert (second.seq, second.time) == (1, 2.5)
        assert first.kind == "region.recall"

    def test_ring_buffer_drops_oldest_but_counts_all(self):
        _, tracer = make_tracer(capacity=4)
        for i in range(10):
            tracer.emit(EventKind.ENGINE_EVENT, f"e{i}")
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        assert [e.subject for e in tracer.snapshot()] == ["e6", "e7", "e8", "e9"]

    def test_digest_covers_dropped_events(self):
        _, small = make_tracer(capacity=2)
        _, large = make_tracer(capacity=1000)
        for tracer in (small, large):
            for i in range(50):
                tracer.emit(EventKind.ENGINE_EVENT, f"e{i}", idx=i)
        assert small.digest() == large.digest()

    def test_digest_sensitive_to_payload(self):
        _, a = make_tracer()
        _, b = make_tracer()
        a.emit(EventKind.RECALL, "cg", pages=1)
        b.emit(EventKind.RECALL, "cg", pages=2)
        assert a.digest() != b.digest()

    def test_subscriber_sees_every_event(self):
        _, tracer = make_tracer(capacity=2)
        seen = []
        tracer.subscribe(seen.append)
        for i in range(5):
            tracer.emit(EventKind.ENGINE_EVENT, f"e{i}")
        assert len(seen) == 5  # ring capacity does not limit subscribers

    def test_disabled_tracer_is_a_no_op(self):
        _, tracer = make_tracer()
        tracer.enabled = False
        assert tracer.emit(EventKind.RECALL, "cg") is None
        assert tracer.emitted == 0

    def test_line_is_canonical(self):
        _, tracer = make_tracer()
        event = tracer.emit(EventKind.RECALL, "cg", b=2, a=1)
        # Keys sorted, compact separators: byte-stable across runs.
        assert event.line().endswith('|region.recall|cg|{"a":1,"b":2}')

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_tracer(capacity=0)

    def test_digest_disabled_raises(self):
        _, tracer = make_tracer(digest=False)
        tracer.emit(EventKind.ENGINE_EVENT, "e")
        with pytest.raises(ValueError):
            tracer.digest()


class TestEmitHotPath:
    """Regressions for the optimized emit path: same bytes, same digest."""

    def test_digest_matches_per_event_reference(self):
        """Batched hashing must equal one SHA-256 update per line."""
        import hashlib

        _, tracer = make_tracer()
        for i in range(200):
            if i % 3:
                tracer.emit(EventKind.ENGINE_EVENT, "exec")
            else:
                tracer.emit(EventKind.RECALL, f"cg-{i}", region=i, pages=8)
        reference = hashlib.sha256()
        for event in tracer.snapshot():
            reference.update(event.line().encode("utf-8"))
            reference.update(b"\n")
        assert tracer.digest() == reference.hexdigest()

    def test_digest_mid_stream_then_more_events(self):
        """Reading the digest early must not perturb the final digest."""
        _, probed = make_tracer()
        _, straight = make_tracer()
        for i in range(10):
            probed.emit(EventKind.ENGINE_EVENT, f"e{i}")
            straight.emit(EventKind.ENGINE_EVENT, f"e{i}")
        probed.digest()  # forces a hash flush mid-stream
        for i in range(10, 20):
            probed.emit(EventKind.ENGINE_EVENT, f"e{i}")
            straight.emit(EventKind.ENGINE_EVENT, f"e{i}")
        assert probed.digest() == straight.digest()

    def test_empty_payload_line_matches_json_dumps(self):
        """The fast-path literal "{}" is what json.dumps would produce."""
        _, tracer = make_tracer()
        event = tracer.emit(EventKind.ENGINE_EVENT, "exec")
        assert event.line().endswith("|engine.event|exec|{}")
        assert event.line().split("|")[-1] == json.dumps({})

    def test_encoded_line_is_cached(self):
        _, tracer = make_tracer()
        event = tracer.emit(EventKind.RECALL, "cg", pages=4)
        assert event.encoded() is event.encoded()  # serialized exactly once
        assert event.line() == event.encoded().decode("utf-8")

    def test_string_kind_accepted(self):
        """Emit sites may pass a plain string instead of an EventKind."""
        _, a = make_tracer()
        _, b = make_tracer()
        a.emit(EventKind.RECALL, "cg", pages=1)
        b.emit("region.recall", "cg", pages=1)
        assert a.digest() == b.digest()


class TestLegacyEmitReference:
    """``Tracer.emit`` against :class:`LegacyEmitTracer`."""

    def test_legacy_tracer_is_a_faithful_reference(self):
        # Same stream through both paths, including subscribers.
        seen = {"opt": [], "leg": []}
        opt = Tracer(clock=lambda: 1.0)
        leg = LegacyEmitTracer(clock=lambda: 1.0)
        opt.subscribe(seen["opt"].append)
        leg.subscribe(seen["leg"].append)
        for tracer in (opt, leg):
            tracer.emit(EventKind.RECALL, "cg", pages=4)
            tracer.emit(EventKind.ENGINE_EVENT, "exec")
        assert opt.digest() == leg.digest()
        assert [e.line() for e in seen["opt"]] == [e.line() for e in seen["leg"]]

    def test_tracer_digest_matches_legacy_emit_path(self):
        """The simulator's mix, 3 empty payloads to 1.

        4,000 events (~200 KB of lines) also cross the 64 KiB batched
        hash flush; 1,000 stay inside one batch.
        """
        for n in (1_000, 4_000):
            clock = {"now": 0.0}
            optimized = Tracer(clock=lambda: clock["now"], capacity=4096)
            legacy = LegacyEmitTracer(clock=lambda: clock["now"], capacity=4096)
            for tracer in (optimized, legacy):
                clock["now"] = 0.0
                for i in range(n):
                    clock["now"] += 0.001
                    if i % 4:
                        tracer.emit(EventKind.ENGINE_EVENT, "exec")
                    else:
                        tracer.emit(EventKind.RECALL, "cg-0", region=i, pages=8)
            assert optimized.emitted == legacy.emitted == n
            assert optimized.digest() == legacy.digest()
            assert [e.line() for e in optimized.snapshot()] == [
                e.line() for e in legacy.snapshot()
            ]


class TestExport:
    def test_to_json_round_trips(self, tmp_path):
        _, tracer = make_tracer()
        tracer.emit(EventKind.RECALL, "cg", region=7, pages=16)
        path = tmp_path / "events.json"
        text = tracer.to_json(str(path))
        loaded = json.loads(path.read_text())
        assert json.loads(text) == loaded
        assert loaded[0]["kind"] == "region.recall"
        assert loaded[0]["region"] == 7

    def test_to_csv_unions_columns(self, tmp_path):
        _, tracer = make_tracer()
        tracer.emit(EventKind.RECALL, "cg", region=7, pages=16)
        tracer.emit(EventKind.LINK_TRANSFER, "out", pages=4, start=0.0, completion=1.0)
        path = tmp_path / "events.csv"
        tracer.to_csv(str(path))
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["seq", "time", "kind", "subject"]
        assert {"region", "pages", "start", "completion"} <= set(header)
        assert len(lines) == 3

    def test_csv_serializes_lists_as_json(self):
        _, tracer = make_tracer()
        tracer.emit(EventKind.PUCKET_SEAL, "cg", regions=[1, 2, 3], pages=12)
        text = tracer.to_csv()
        assert '"[1,2,3]"' in text or "[1,2,3]" in text


class TestPlatformWiring:
    def test_platform_tracer_off_by_default(self, platform):
        assert platform.tracer is None
        assert platform.auditor is None
        assert platform.engine.tracer is None
        assert platform.link.tracer is None
        assert platform.fastswap.tracer is None

    def test_config_switch_builds_and_wires_tracer(self):
        from repro.baselines import NoOffloadPolicy
        from repro.faas import PlatformConfig, ServerlessPlatform

        platform = ServerlessPlatform(
            NoOffloadPolicy(), config=PlatformConfig(trace_events=True)
        )
        assert platform.tracer is not None
        assert platform.engine.tracer is platform.tracer
        assert platform.link.tracer is platform.tracer
        assert platform.fastswap.tracer is platform.tracer
        assert platform.auditor is None  # audit not requested

    def test_audit_switch_implies_tracing(self, web_platform):
        from repro.faas import PlatformConfig, ServerlessPlatform
        from repro.baselines import NoOffloadPolicy

        platform = ServerlessPlatform(
            NoOffloadPolicy(), config=PlatformConfig(audit_events=True)
        )
        assert platform.tracer is not None
        assert platform.auditor is not None

    def test_traced_run_emits_lifecycle_events(self):
        from repro.baselines import NoOffloadPolicy
        from repro.faas import PlatformConfig, ServerlessPlatform
        from repro.workloads import get_profile

        platform = ServerlessPlatform(
            NoOffloadPolicy(), config=PlatformConfig(trace_events=True)
        )
        platform.register_function("web", get_profile("web"))
        platform.submit("web", at_time=0.0)
        platform.run()
        kinds = {event.kind for event in platform.tracer.snapshot()}
        assert "engine.event" in kinds
        assert "container.state" in kinds
