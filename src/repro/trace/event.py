"""Trace events and the event-type registry.

A raw trace is a sequence of timestamped events (paper Section II, "Data
representation").  Each event carries:

* a timestamp in microseconds since the start of the run,
* an event *type* (scheduling, codec, buffer, interrupt, ... event),
* the core it was observed on,
* the task (thread) it belongs to,
* a small payload of keyword arguments (frame number, buffer level, ...).

Event types are interned in an :class:`EventTypeRegistry` which assigns each
type a dense integer code.  The codes are what the pmf abstraction and the
compact binary codec operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping

from ..errors import TraceFormatError

__all__ = ["EventType", "EventTypeRegistry", "TraceEvent", "DEFAULT_REGISTRY"]


class EventType(str, Enum):
    """Canonical event types emitted by the simulated platform and pipeline.

    The set mirrors what STMicroelectronics-style trace infrastructures
    expose: kernel scheduling activity, interrupts, syscalls, DMA traffic,
    plus multimedia-framework events (frame decode, buffer queue activity and
    QoS error messages, the GStreamer-equivalent signals used for ground
    truth in the paper's experiment).
    """

    # Kernel / platform events
    SCHED_SWITCH = "sched_switch"
    SCHED_WAKEUP = "sched_wakeup"
    SCHED_MIGRATE = "sched_migrate"
    IRQ_ENTER = "irq_enter"
    IRQ_EXIT = "irq_exit"
    SYSCALL_ENTER = "syscall_enter"
    SYSCALL_EXIT = "syscall_exit"
    DMA_TRANSFER = "dma_transfer"
    MEM_STALL = "mem_stall"
    PAGE_FAULT = "page_fault"
    TIMER_TICK = "timer_tick"
    # Multimedia pipeline events
    DEMUX_PACKET = "demux_packet"
    FRAME_DECODE_START = "frame_decode_start"
    FRAME_DECODE_END = "frame_decode_end"
    MB_ROW_DECODE = "mb_row_decode"
    CACHE_MISS = "cache_miss"
    AUDIO_DECODE = "audio_decode"
    FRAME_CONVERT = "frame_convert"
    FRAME_DISPLAY = "frame_display"
    VSYNC = "vsync"
    BUFFER_PUSH = "buffer_push"
    BUFFER_POP = "buffer_pop"
    BUFFER_LEVEL = "buffer_level"
    BUFFER_UNDERRUN = "buffer_underrun"
    BUFFER_OVERRUN = "buffer_overrun"
    FRAME_DROP = "frame_drop"
    QOS_ERROR = "qos_error"
    # Perturbation / background load events
    LOAD_BURST = "load_burst"
    LOAD_DONE = "load_done"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class EventTypeRegistry:
    """Bidirectional mapping between event-type names and dense integer codes.

    The registry defines the dimensionality of the pmf vectors: code ``i``
    corresponds to component ``i`` of every pmf built against this registry.
    New types can be registered lazily (the monitor may encounter types the
    reference run never produced); codes are never reused.
    """

    def __init__(self, names: Iterable[str] | None = None) -> None:
        self._code_by_name: dict[str, int] = {}
        self._name_by_code: list[str] = []
        for name in names or []:
            self.register(name)

    @classmethod
    def with_default_types(cls) -> "EventTypeRegistry":
        """Return a registry pre-populated with every :class:`EventType`."""
        return cls(event_type.value for event_type in EventType)

    def register(self, name: str | EventType) -> int:
        """Register ``name`` (idempotent) and return its integer code."""
        key = str(name)
        code = self._code_by_name.get(key)
        if code is None:
            code = len(self._name_by_code)
            self._code_by_name[key] = code
            self._name_by_code.append(key)
        return code

    def code(self, name: str | EventType) -> int:
        """Return the code of ``name``; raise if it was never registered."""
        key = str(name)
        try:
            return self._code_by_name[key]
        except KeyError:
            raise TraceFormatError(f"unknown event type: {key!r}") from None

    def name(self, code: int) -> str:
        """Return the name registered under ``code``."""
        try:
            return self._name_by_code[code]
        except IndexError:
            raise TraceFormatError(f"unknown event-type code: {code}") from None

    def __contains__(self, name: object) -> bool:
        return str(name) in self._code_by_name

    def __len__(self) -> int:
        return len(self._name_by_code)

    def __iter__(self) -> Iterator[str]:
        return iter(self._name_by_code)

    @property
    def names(self) -> tuple[str, ...]:
        """All registered names, in code order."""
        return tuple(self._name_by_code)

    def to_dict(self) -> dict[str, int]:
        """Return a serialisable ``name -> code`` mapping."""
        return dict(self._code_by_name)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, int]) -> "EventTypeRegistry":
        """Rebuild a registry from :meth:`to_dict` output, validating codes."""
        registry = cls()
        expected = 0
        for name, code in sorted(mapping.items(), key=lambda item: item[1]):
            if code != expected:
                raise TraceFormatError(
                    f"non-contiguous event-type codes in registry: {mapping!r}"
                )
            registry.register(name)
            expected += 1
        return registry


#: Shared registry holding the canonical event types.  Most of the library
#: accepts an explicit registry; this default keeps simple scripts short.
DEFAULT_REGISTRY = EventTypeRegistry.with_default_types()


#: Event types captured when the tracing hardware is configured for
#: application-scope tracing (framework / userspace instrumentation only, the
#: setup closest to the paper's GStreamer monitoring).  Full-platform tracing
#: additionally captures scheduling, interrupt, memory and DMA events.
APPLICATION_SCOPE_TYPES: frozenset[str] = frozenset(
    event_type.value
    for event_type in (
        EventType.SYSCALL_ENTER,
        EventType.SYSCALL_EXIT,
        EventType.DEMUX_PACKET,
        EventType.FRAME_DECODE_START,
        EventType.FRAME_DECODE_END,
        EventType.MB_ROW_DECODE,
        EventType.CACHE_MISS,
        EventType.AUDIO_DECODE,
        EventType.FRAME_CONVERT,
        EventType.FRAME_DISPLAY,
        EventType.VSYNC,
        EventType.BUFFER_PUSH,
        EventType.BUFFER_POP,
        EventType.BUFFER_LEVEL,
        EventType.BUFFER_UNDERRUN,
        EventType.BUFFER_OVERRUN,
        EventType.FRAME_DROP,
        EventType.QOS_ERROR,
    )
)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """A single timestamped trace event.

    Attributes
    ----------
    timestamp_us:
        Time of the event in microseconds since the start of the run.
    etype:
        Event type name (one of :class:`EventType` or any registered string).
    core:
        Index of the CPU core the event was observed on.
    task:
        Name of the task (thread) the event belongs to (empty for
        platform-wide events such as interrupts).
    args:
        Small immutable payload with event-specific details.
    """

    timestamp_us: int
    etype: str
    core: int = 0
    task: str = ""
    args: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.timestamp_us < 0:
            raise TraceFormatError(f"negative timestamp: {self.timestamp_us}")
        # Normalise EventType enum members to their string value so
        # downstream comparisons and serialisation are uniform.
        object.__setattr__(self, "etype", str(self.etype))

    @property
    def timestamp_s(self) -> float:
        """Timestamp in seconds."""
        return self.timestamp_us / 1e6

    def with_timestamp(self, timestamp_us: int) -> "TraceEvent":
        """Return a copy of the event shifted to ``timestamp_us``."""
        return TraceEvent(
            timestamp_us=timestamp_us,
            etype=self.etype,
            core=self.core,
            task=self.task,
            args=dict(self.args),
        )

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-serialisable representation of the event."""
        return {
            "t": self.timestamp_us,
            "type": self.etype,
            "core": self.core,
            "task": self.task,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        try:
            return cls(
                timestamp_us=int(data["t"]),
                etype=str(data["type"]),
                core=int(data.get("core", 0)),
                task=str(data.get("task", "")),
                args=dict(data.get("args", {})),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: int() of an Infinity literal.
            raise TraceFormatError(f"malformed event record: {data!r}") from exc
