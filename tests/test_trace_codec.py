"""Unit and property tests for the trace codecs and size accounting."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceFormatError
from repro.trace.codec import (
    BinaryTraceCodec,
    JsonTraceCodec,
    _compact_json,
    _decode_varint,
    _encode_varint,
    _payload_field_size,
    encoded_event_size,
    encoded_trace_size,
)
from repro.trace.columns import TraceColumns
from repro.trace.event import EventTypeRegistry, TraceEvent


def _sample_events():
    return [
        TraceEvent(0, "demux_packet", core=0, task="demuxer", args={"frame": 0, "bytes": 4321}),
        TraceEvent(100, "frame_decode_start", core=0, task="decoder", args={"frame": 0}),
        TraceEvent(14_000, "frame_decode_end", core=1, task="decoder", args={"frame": 0}),
        TraceEvent(14_000, "buffer_push", core=1, task="converter", args={"level": 3}),
        TraceEvent(40_000, "frame_display", core=0, task="sink"),
    ]


class TestVarint:
    @given(value=st.integers(min_value=0, max_value=2**60))
    def test_roundtrip(self, value):
        encoded = _encode_varint(value)
        decoded, offset = _decode_varint(encoded, 0)
        assert decoded == value
        assert offset == len(encoded)

    def test_negative_rejected(self):
        with pytest.raises(TraceFormatError):
            _encode_varint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(TraceFormatError):
            _decode_varint(b"\x80", 0)


class TestBinaryCodec:
    def test_roundtrip(self):
        events = _sample_events()
        blob = BinaryTraceCodec().encode(events)
        decoded = BinaryTraceCodec().decode(blob)
        assert decoded == events

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceFormatError):
            BinaryTraceCodec().decode(b"NOPE" + b"\x00" * 16)

    def test_core_out_of_range_rejected_on_encode(self):
        # Regression: core used to be masked with 0xFF, so core 300 silently
        # round-tripped as 44.  Out-of-range cores must raise instead.
        event = TraceEvent(0, "timer_tick", core=300)
        codec = BinaryTraceCodec()
        with pytest.raises(TraceFormatError):
            codec.encode_event(event)
        with pytest.raises(TraceFormatError):
            codec.encode([event])
        with pytest.raises(TraceFormatError):
            codec.event_size(event)
        with pytest.raises(TraceFormatError):
            encoded_trace_size([event])

    def test_core_boundaries_roundtrip_exactly(self):
        events = [
            TraceEvent(0, "timer_tick", core=0),
            TraceEvent(1, "timer_tick", core=255),
        ]
        codec = BinaryTraceCodec()
        assert BinaryTraceCodec().decode(codec.encode(events)) == events
        # encode / event_size / encoded_trace_size must agree on the 1-byte
        # core accounting for the full valid range.
        sizing_codec = BinaryTraceCodec()
        previous = 0
        total = 0
        for event in events:
            total += sizing_codec.event_size(event, previous)
            previous = event.timestamp_us
        assert encoded_trace_size(events) == total

    def test_truncated_header_rejected(self):
        blob = BinaryTraceCodec().encode(_sample_events())
        with pytest.raises(TraceFormatError):
            BinaryTraceCodec().decode(blob[:6])

    def test_out_of_order_events_rejected(self):
        codec = BinaryTraceCodec()
        with pytest.raises(TraceFormatError):
            codec.encode_event(TraceEvent(5, "x"), previous_timestamp_us=10)

    def test_event_size_positive_and_small(self):
        event = TraceEvent(1_000, "vsync", core=0, task="sink")
        size = encoded_event_size(event)
        assert 0 < size < 64

    def test_delta_encoding_shrinks_dense_traces(self):
        # Two traces with identical content except for the absolute timestamps:
        # the delta encoding should make the far-in-the-future trace barely
        # larger than the one near zero (only the first delta differs).
        near = [TraceEvent(i, "vsync") for i in range(0, 1_000, 10)]
        far = [TraceEvent(10**12 + i, "vsync") for i in range(0, 1_000, 10)]
        assert encoded_trace_size(far) <= encoded_trace_size(near) + 8

    def test_unknown_registry_grows_on_encode(self):
        registry = EventTypeRegistry()
        codec = BinaryTraceCodec(registry)
        codec.encode_event(TraceEvent(0, "brand_new_type"))
        assert "brand_new_type" in registry

    @settings(max_examples=40, deadline=None)
    @given(
        deltas=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60),
        types=st.lists(
            st.sampled_from(["a", "b", "c", "sched_switch", "frame_display"]),
            min_size=1,
            max_size=60,
        ),
    )
    def test_roundtrip_property(self, deltas, types):
        timestamp = 0
        events = []
        for delta, etype in zip(deltas, types):
            timestamp += delta
            events.append(TraceEvent(timestamp, etype, core=timestamp % 4, task="t"))
        blob = BinaryTraceCodec().encode(events)
        assert BinaryTraceCodec().decode(blob) == events


class TestJsonCodec:
    def test_roundtrip(self):
        events = _sample_events()
        text = JsonTraceCodec().encode(events)
        assert list(JsonTraceCodec().decode(text)) == events

    def test_malformed_line_rejected(self):
        with pytest.raises(TraceFormatError):
            JsonTraceCodec().decode_event("{not json")

    def test_blank_lines_ignored(self):
        events = _sample_events()
        text = JsonTraceCodec().encode(events) + "\n\n\n"
        assert list(JsonTraceCodec().decode(text)) == events


class TestSizeAccounting:
    def test_total_size_is_sum_of_event_sizes_with_deltas(self):
        events = _sample_events()
        total = encoded_trace_size(events)
        manual = 0
        previous = 0
        codec = BinaryTraceCodec()
        for event in events:
            manual += codec.event_size(event, previous)
            previous = event.timestamp_us
        assert total == manual

    def test_empty_trace_has_zero_size(self):
        assert encoded_trace_size([]) == 0


class TestPayloadSizing:
    """One reused compact encoder sizes every payload (columns + codec)."""

    PAYLOADS = [
        {},
        {"frame": 0, "bytes": 4321},
        {"b": 1, "a": [1.5, None, True, "x"]},
        {"ü": "日本", "nested": {"z": {}, "y": []}},
        {"nan": float("nan"), "inf": float("-inf"), "big": 2**70},
        {"quote": 'say "hi"\n\t\\', "ctl": "\x00\x1f"},
    ]

    def test_length_matches_sorted_dumps_and_written_payload(self):
        for args in self.PAYLOADS:
            written = BinaryTraceCodec().encode_event(
                TraceEvent(0, "a", core=0, task="", args=args)
            )
            # delta, code, core and the empty task take one byte each.
            assert _payload_field_size(args) == len(written) - 4
            if args:
                sorted_json = json.dumps(args, sort_keys=True, separators=(",", ":"))
                assert _compact_json(args) == sorted_json

    def test_pure_python_fallback_encodes_identically(self, monkeypatch):
        from repro.trace import codec

        monkeypatch.setattr(codec, "_c_make_encoder", None)
        fallback = codec._make_compact_json()
        # The prebuilt JSONEncoder then also runs without the C accelerator.
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        for args in self.PAYLOADS:
            assert fallback(args) == _compact_json(args)

    def test_sizing_rejects_the_payloads_the_codec_cannot_write(self):
        mixed = {1: 0, "a": 1}
        circular: dict = {}
        circular["self"] = circular
        for args, codec_error, sizing_error in (
            (mixed, TypeError, TypeError),
            (circular, ValueError, RecursionError),
        ):
            event = TraceEvent(0, "a", core=0, task="", args=args)
            with pytest.raises(codec_error):
                BinaryTraceCodec().encode_event(event)
            with pytest.raises(sizing_error):
                encoded_trace_size([event])
            with pytest.raises(sizing_error):
                TraceColumns.from_events([event])

    def test_encoder_keeps_no_state_after_an_error(self):
        with pytest.raises(TypeError):
            _compact_json({"bad": object()})
        args = {"frame": 1}
        assert _compact_json(args) == '{"frame":1}'
        assert _compact_json({"again": args, "twice": args}) == (
            '{"again":{"frame":1},"twice":{"frame":1}}'
        )
