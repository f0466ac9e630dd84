"""Span tracing: start/end/duration records with parent/child links.

A *span* is one timed region of protocol work — a handshake phase, a GSIG
signature, a room's relay loop.  Spans nest: the :func:`span` context
manager keeps the current span in a :class:`contextvars.ContextVar`, so
parent links are correct across threads *and* asyncio tasks (each task
gets a copy of the context at creation, exactly like the metrics scope
stack).  State machines that cannot bracket their work in a ``with``
block (e.g. :class:`repro.core.handshake.HandshakeDevice`, whose phases end
inside message callbacks) use :func:`start_span` / :meth:`Span.end` with
explicit parents instead.

Storage and the on/off switch live in :mod:`repro.metrics`: finished
spans land in the current :class:`~repro.metrics.Recorder` and recording
is gated by the same flag as trace events (:func:`metrics.enable_tracing`
/ :func:`metrics.tracing`), so "tracing off" really is zero-allocation —
the hot path does one attribute read and yields.

Trace context: every finished span carries a ``trace_id`` — a random
16-hex-digit identifier grouping all spans of one logical operation (one
handshake room) *across processes*.  A child inherits its parent's trace
id; a root either adopts a remote context (the compact string a HELLO
frame carries, see :func:`mint_trace_id` / :func:`valid_trace`) or mints
a fresh one.  Ids are minted from :mod:`secrets`, never :mod:`random` —
tracing must not consume seeded RNG streams (the observational-freeness
theorem: books and session keys are byte-identical tracing on vs off).

Anonymity rule (see docs/OBSERVABILITY.md): span names and attributes may
carry room *tokens* (random, unlinkable) and ``hs:<i>`` roster indices —
never member identifiers, payload bytes, or rendezvous room names.
"""

from __future__ import annotations

import contextlib
import re
import secrets
import threading
import time
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional

from repro import metrics

#: Wire form of a trace context: exactly 16 lowercase hex digits — short
#: enough for a HELLO frame, long enough to never collide in a run, and
#: *below* the redaction leak-scan's bigint threshold (20+ hex chars), so
#: a trace id can never be mistaken for key material.
_TRACE_RE = re.compile(r"^[0-9a-f]{16}$")


def mint_trace_id() -> str:
    """A fresh random trace id (16 hex chars).  Uses :mod:`secrets`, so
    minting never perturbs seeded ``random.Random`` streams."""
    return secrets.token_hex(8)


def valid_trace(text: object) -> Optional[str]:
    """``text`` if it is a well-formed trace context, else ``None`` —
    servers use this to adopt a client-supplied trace id leniently (a
    malformed context is ignored, not a protocol error)."""
    if isinstance(text, str) and _TRACE_RE.match(text):
        return text
    return None

#: Innermost live span in the current context (thread or asyncio task).
_CURRENT: ContextVar[Optional["Span"]] = ContextVar("repro.obs.span",
                                                    default=None)

_UNSET = object()


class Span:
    """One timed region.  ``ts`` is seconds since the owning recorder's
    epoch; ``dur`` is ``None`` until :meth:`end` runs (only *finished*
    spans are recorded/exported)."""

    __slots__ = ("name", "span_id", "parent_id", "trace_id", "ts", "dur",
                 "attrs", "tid", "_recorder", "_t0")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int],
                 recorder, attrs: Dict[str, object],
                 trace_id: Optional[str] = None) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id if trace_id is not None else mint_trace_id()
        self.attrs = attrs
        self.tid = threading.current_thread().name
        self._recorder = recorder
        self._t0 = time.perf_counter()
        self.ts = self._t0 - recorder.epoch
        self.dur: Optional[float] = None

    def end(self, **attrs: object) -> "Span":
        """Close the span (idempotent) and record it into the recorder it
        was started under — safe even if another task finishes it."""
        if self.dur is None:
            self.dur = time.perf_counter() - self._t0
            if attrs:
                self.attrs.update(attrs)
            self._recorder.record_span(self)
        return self

    @property
    def ts_end(self) -> Optional[float]:
        return None if self.dur is None else self.ts + self.dur

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "ts": self.ts,
            "dur": self.dur,
            "tid": self.tid,
            **{f"attr.{k}": v for k, v in sorted(self.attrs.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, ts={self.ts:.6f}, dur={self.dur})")


class _NoopSpan:
    """Recording disabled: a shared do-nothing stand-in so instrumented
    code never branches on the switch itself."""

    __slots__ = ()
    name = "<noop>"
    span_id = None
    parent_id = None
    trace_id = None
    ts = 0.0
    dur = None
    attrs: Dict[str, object] = {}

    def end(self, **attrs: object) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


def current_span() -> Optional[Span]:
    """The innermost live span of this context, or ``None``."""
    return _CURRENT.get()


def _trace_for(parent, trace: Optional[str]) -> Optional[str]:
    """Resolve the trace id a new span joins: an explicit remote context
    wins, then the parent's trace, then ``None`` (mint fresh)."""
    adopted = valid_trace(trace) if trace else None
    if adopted is not None:
        return adopted
    return getattr(parent, "trace_id", None)


def start_span(name: str, parent=_UNSET, trace: Optional[str] = None,
               **attrs: object):
    """Begin a manual span (caller must :meth:`Span.end` it).

    ``parent`` defaults to the context's current span at *start* time;
    pass another span (e.g. a device's root) or ``None`` for an explicit
    link — the pattern for callback-driven state machines.  ``trace`` is
    a remote trace context (the HELLO frame's compact id): a valid one is
    adopted so cross-process spans share one trace; parent links stay
    local (a remote parent's span id would collide with local numbering).
    Returns :data:`NOOP_SPAN` when the current recorder is not tracing."""
    rec = metrics.current_recorder()
    if not rec.tracing:
        return NOOP_SPAN
    if parent is _UNSET:
        parent = _CURRENT.get()
    parent_id = getattr(parent, "span_id", None)
    return Span(name, rec.next_span_id(), parent_id, rec, dict(attrs),
                trace_id=_trace_for(parent, trace))


@contextlib.contextmanager
def span(name: str, trace: Optional[str] = None,
         **attrs: object) -> Iterator[object]:
    """Record the block as a span, parented to the enclosing one.

    Token-based ContextVar handling restores the previous parent exactly,
    under exceptions and re-entrancy, per thread and per asyncio task.
    ``trace`` joins the block to a remote trace context (see
    :func:`start_span`)."""
    rec = metrics.current_recorder()
    if not rec.tracing:
        yield NOOP_SPAN
        return
    parent = _CURRENT.get()
    live = Span(name, rec.next_span_id(),
                getattr(parent, "span_id", None), rec, dict(attrs),
                trace_id=_trace_for(parent, trace))
    token = _CURRENT.set(live)
    try:
        yield live
    finally:
        _CURRENT.reset(token)
        live.end()


def finished_spans() -> List[Span]:
    """Finished spans in the current recorder (proxy for exporters)."""
    return [s for s in metrics.spans() if isinstance(s, Span)]
