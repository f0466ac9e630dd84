"""Observability layer: operation counters, timers, histograms, exporters.

The paper's efficiency claims are stated in *number of modular
exponentiations* and *number of messages* per participant (Sections 8.1 and
8.2).  To reproduce those claims we instrument the two primitives everything
else is built from:

* :func:`count_modexp` is called by :func:`repro.crypto.modmath.mexp` on every
  modular exponentiation;
* :class:`repro.net.simulator.Network` calls :func:`count_message_sent` /
  :func:`count_message_received` (with wire-level byte sizes) on every
  enqueue / delivery.

Counters are grouped into named scopes so a benchmark can attribute cost to a
particular party or protocol phase::

    with metrics.scope("party-3"):
        run_protocol()
    print(metrics.snapshot()["party-3"].modexp)

Scopes nest; an operation is charged to every *distinct* active scope plus
the implicit ``"total"`` scope.  Re-entering a name that is already on the
stack is legal and charges that scope **once** (the naive
charge-every-frame rule would double-count a party scope wrapped around a
sub-protocol that re-opens the same scope).

Concurrency model
-----------------

The scope stack lives in a :class:`contextvars.ContextVar`, so nesting is
restored exactly on exit (token-based, correct under exceptions and
re-entrancy) and coroutines see their own stacks.  Counter storage lives in
a :class:`Recorder`; the active recorder is resolved per thread (with an
optional :func:`using` override), so two threads running handshakes
concurrently observe fully independent counters — no cross-thread bleed.
All mutation of a recorder is guarded by a lock, so explicitly sharing one
recorder across threads (via :func:`using`) is also safe.

Beyond raw counts the layer records:

* **wall-clock timers** — every scope accrues ``wall_time`` (inclusive,
  charged once per distinct scope even when re-entered, and once per
  *union* interval when the same scope is open concurrently in several
  tasks or threads sharing one recorder);
* **histograms** — fixed-bucket distributions with percentile summaries
  (handshake latency, relay frame latency); see :func:`observe` /
  :func:`histogram`;
* **spans** — the one event model.  The :mod:`repro.obs` layer records
  start/end/duration spans with parent/child links into the current
  recorder (storage lives here so spans, counters and histograms share one
  measurement context).  Recording is off by default; see
  :func:`enable_tracing` / :func:`tracing`.  A context-manager span
  carries the book of the work done inside it (:func:`book`);
* **exporters** — :func:`export_json` / :func:`export_csv` /
  :func:`format_table` turn a snapshot into artifacts the benchmark
  harness and the ``python -m repro stats`` CLI consume; span exporters
  (Chrome ``trace_event`` JSON, JSONL) live in :mod:`repro.obs.export`.

Asyncio guidance: a :class:`contextvars.ContextVar` is copied into every
task at *creation* time, so tasks spawned inside ``with using(rec):``
inherit ``rec``; tasks spawned **before** the swap keep whatever recorder
their creation context had (usually the shared per-thread one) and will
interleave their counts with every other such task.  Either spawn tasks
inside the ``using`` block, or call :meth:`Recorder.bind_task` first thing
inside the task body to pin its books explicitly.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import io
import json
import threading
import time
from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Counters:
    """Tallies for one scope."""

    modexp: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    hashes: int = 0
    pairings: int = 0
    wall_time: float = 0.0
    extra: Dict[str, int] = field(default_factory=dict)

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment an ad-hoc named counter."""
        self.extra[name] = self.extra.get(name, 0) + amount

    def copy(self) -> "Counters":
        clone = Counters(
            modexp=self.modexp,
            messages_sent=self.messages_sent,
            messages_received=self.messages_received,
            bytes_sent=self.bytes_sent,
            bytes_received=self.bytes_received,
            hashes=self.hashes,
            pairings=self.pairings,
            wall_time=self.wall_time,
        )
        clone.extra = dict(self.extra)
        return clone

    def as_dict(self) -> Dict[str, object]:
        """Flat exporter view: fixed fields first, then ``extra`` inline."""
        out: Dict[str, object] = {f: getattr(self, f) for f in FIELDS}
        out.update(self.extra)
        return out

    def counts(self) -> Dict[str, int]:
        """The non-zero counts as a flat dict :func:`replay` accepts:
        fixed :data:`REPLAY_FIELDS`, then ``extra`` counters; wall time
        excluded."""
        out = {f: getattr(self, f) for f in REPLAY_FIELDS if getattr(self, f)}
        out.update((k, v) for k, v in self.extra.items() if v)
        return out


#: Fixed counter fields, in export order.
FIELDS: Tuple[str, ...] = (
    "modexp",
    "messages_sent",
    "messages_received",
    "bytes_sent",
    "bytes_received",
    "hashes",
    "pairings",
    "wall_time",
)

#: Fields a detached recorder's books can be replayed into the current
#: one (:func:`replay`): everything except wall time, which overlaps the
#: current clock and would double-book.
REPLAY_FIELDS: Tuple[str, ...] = tuple(f for f in FIELDS if f != "wall_time")

_REPLAY_SET = frozenset(REPLAY_FIELDS)

_TOTAL = "total"


#: Default bucket upper bounds for latency histograms (seconds).
LATENCY_BOUNDS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Histogram:
    """Fixed-bucket distribution with a percentile summary.

    Buckets are upper-inclusive (Prometheus ``le`` semantics): a value
    lands in the first bucket whose bound is ``>= value``; anything above
    the last bound lands in the overflow bucket.  Percentiles interpolate
    linearly inside a bucket; the overflow bucket reports the observed
    maximum (the honest answer when the tail is unbounded).

    Samples beyond the last bound also increment ``clamped``, exposed in
    :meth:`summary`: interpolation has no resolution out there (the whole
    overflow bucket collapses onto the observed max), so a nonzero
    ``clamped`` is the signal that tail percentiles (p99 under open-loop
    overload, typically) are clamped estimates and the bounds need to be
    widened before trusting them.

    Not locked itself — the owning :class:`Recorder` serializes access.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum", "min", "max",
                 "clamped")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted, "
                             "non-empty sequence")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.clamped = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value > self.bounds[-1]:
            self.clamped += 1

    def percentile(self, fraction: float) -> float:
        """Estimated value at ``fraction`` (0..1) of the distribution.

        Interpolated values are clamped to the observed ``[min, max]`` so a
        sparse histogram never reports a quantile outside what was seen."""
        if self.total == 0:
            return 0.0
        target = max(1.0, fraction * self.total)
        cumulative = 0
        for i, count in enumerate(self.counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                if i == len(self.bounds):       # overflow bucket
                    return float(self.max)
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                estimate = lo + (hi - lo) * ((target - cumulative) / count)
                return min(max(estimate, float(self.min)), float(self.max))
            cumulative += count
        return float(self.max)

    def summary(self) -> Dict[str, object]:
        """Exporter view: totals, extrema, p50/p90/p99, raw buckets."""
        return {
            "count": self.total,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": (self.sum / self.total) if self.total else 0.0,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "clamped": self.clamped,
            "buckets": [
                {"le": b, "count": c}
                for b, c in zip(self.bounds, self.counts)
            ] + [{"le": None, "count": self.counts[-1]}],
        }

    def copy(self) -> "Histogram":
        clone = Histogram(self.name, self.bounds)
        clone.counts = list(self.counts)
        clone.total = self.total
        clone.sum = self.sum
        clone.min = self.min
        clone.max = self.max
        clone.clamped = self.clamped
        return clone


class _Frame:
    """One scope or span-book activation: the name plus the counters it
    charges."""

    __slots__ = ("name", "counters")

    def __init__(self, name: str, counters: Counters) -> None:
        self.name = name
        self.counters = counters


class Recorder:
    """Counter, histogram and span storage for one logical measurement
    context.

    Normally one recorder exists per thread (created lazily); benchmarks
    never see it directly — the module-level functions proxy to the
    current one.  Pass a recorder to :func:`using` to pin it explicitly
    (e.g. to aggregate several worker threads into one set of books).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, Counters] = {_TOTAL: Counters()}
        self._hists: Dict[str, Histogram] = {}
        self._spans: List[object] = []
        self._next_span_id = 1
        #: id(Counters) -> [open-frame refcount, interval start]; the
        #: union-interval bookkeeping behind scope wall time.
        self._open: Dict[int, List[float]] = {}
        self._tracing = False
        self._epoch = time.perf_counter()

    # Storage ----------------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self._counters = {_TOTAL: Counters()}
            self._hists = {}
            self._spans = []
            self._next_span_id = 1
            self._open = {}
            self._epoch = time.perf_counter()

    def bind_task(self) -> Token:
        """Pin this recorder for the *current* context (thread or asyncio
        task) without a ``with`` block — the escape hatch for tasks that
        were spawned before a :func:`using` swap and would otherwise fall
        back to the shared per-thread recorder.  Call it first thing in
        the task body; the returned token can restore the previous binding
        via ``_RECORDER.reset(token)`` but normally dies with the task."""
        return _RECORDER.set(self)

    def counters_for(self, name: str) -> Counters:
        with self._lock:
            return self._counters.setdefault(name, Counters())

    def snapshot(self) -> Dict[str, Counters]:
        with self._lock:
            snap = {name: c.copy() for name, c in self._counters.items()}
            # "total" is never a scope frame, so its wall clock is the
            # recorder's own: time elapsed since creation / last reset.
            snap[_TOTAL].wall_time = time.perf_counter() - self._epoch
            return snap

    def total(self) -> Counters:
        with self._lock:
            clone = self._counters[_TOTAL].copy()
            clone.wall_time = time.perf_counter() - self._epoch
            return clone

    # Histograms -------------------------------------------------------------

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        """Get-or-create the named histogram (latency-style bounds by
        default).  Passing bounds that contradict an existing histogram's
        is a programming error — the buckets could not be merged."""
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = Histogram(name, bounds or LATENCY_BOUNDS)
                self._hists[name] = hist
            elif (bounds is not None
                    and tuple(float(b) for b in bounds) != hist.bounds):
                raise ValueError(
                    f"histogram {name!r} already exists with different "
                    f"bounds")
            return hist

    def observe(self, name: str, value: float,
                bounds: Optional[Sequence[float]] = None) -> None:
        with self._lock:
            self.histogram(name, bounds).observe(value)

    def histograms(self) -> Dict[str, Histogram]:
        """Copies of every histogram, keyed by name."""
        with self._lock:
            return {name: h.copy() for name, h in self._hists.items()}

    # Spans ------------------------------------------------------------------

    def next_span_id(self) -> int:
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
            return span_id

    def record_span(self, span: object) -> None:
        """Store one *finished* span (see :mod:`repro.obs.spans`)."""
        with self._lock:
            self._spans.append(span)

    def spans(self) -> List[object]:
        with self._lock:
            return list(self._spans)

    def drain_spans(self) -> List[object]:
        """Remove and return every finished span — the shipping half of
        cross-process traces (:mod:`repro.obs.export`): a shard's
        heartbeat loop drains its recorder and sends the batch over the
        supervision pipe, so the span store stays bounded however long
        the worker lives."""
        with self._lock:
            drained = self._spans
            self._spans = []
            return drained

    @property
    def epoch(self) -> float:
        """``time.perf_counter()`` value all ts fields are relative to."""
        return self._epoch

    # Tracing ----------------------------------------------------------------

    @property
    def tracing(self) -> bool:
        return self._tracing

    @tracing.setter
    def tracing(self, on: bool) -> None:
        self._tracing = bool(on)


# ---------------------------------------------------------------------------
# Recorder + stack resolution.
# ---------------------------------------------------------------------------

#: Scope stack: immutable tuple so token-based reset restores the exact
#: previous stack (the seed implementation's ``_active.remove(name)``
#: popped the *first* occurrence, corrupting re-entrant same-name scopes).
_STACK: ContextVar[Tuple[_Frame, ...]] = ContextVar("repro.metrics.stack",
                                                    default=())

#: Explicit recorder override (see :func:`using`); ``None`` means "use the
#: current thread's recorder".
_RECORDER: ContextVar[Optional[Recorder]] = ContextVar(
    "repro.metrics.recorder", default=None
)

_thread_state = threading.local()


def current_recorder() -> Recorder:
    """The recorder all module-level calls resolve to.

    An explicit :func:`using` override wins; otherwise each thread gets its
    own lazily-created recorder, so concurrent measurements stay disjoint.
    """
    rec = _RECORDER.get()
    if rec is not None:
        return rec
    rec = getattr(_thread_state, "recorder", None)
    if rec is None:
        rec = Recorder()
        _thread_state.recorder = rec
    return rec


@contextlib.contextmanager
def using(recorder: Recorder) -> Iterator[Recorder]:
    """Pin ``recorder`` as the active one for the dynamic extent."""
    token = _RECORDER.set(recorder)
    try:
        yield recorder
    finally:
        _RECORDER.reset(token)


@contextlib.contextmanager
def detached(recorder: Optional[Recorder] = None) -> Iterator[Recorder]:
    """Pin a fresh recorder *and* an empty scope stack for the extent.

    :func:`using` alone does not isolate a measurement: frames already on
    the scope stack keep charging their counter objects — which belong to
    the *outer* recorder — through :func:`_charged`.  A record-here,
    replay-there block (the batch-scan memo,
    :class:`repro.accel.batch.ScanCache`) run under active scopes would
    therefore charge those scopes twice: once by leak-through, once by
    the replay.  Detaching
    clears the stack too, so the block's counts land only in the fresh
    recorder; the caller replays them wherever they belong.
    """
    rec = recorder if recorder is not None else Recorder()
    stack_token = _STACK.set(())
    rec_token = _RECORDER.set(rec)
    try:
        yield rec
    finally:
        _RECORDER.reset(rec_token)
        _STACK.reset(stack_token)


def reset() -> None:
    """Drop all counters, histograms and spans (benchmarks call this
    between runs).  Scopes still open keep charging their (now detached)
    counter objects, which simply no longer appear in :func:`snapshot`."""
    current_recorder().reset()


# ---------------------------------------------------------------------------
# Scopes.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def scope(name: str) -> Iterator[Counters]:
    """Attribute operations performed inside the block to ``name``.

    Exit restores the exact prior stack (token-based), so re-entrant
    same-name scopes and teardown on exception are both correct.  Wall
    time is charged inclusively as the *union* of open intervals: the
    recorder refcounts open frames per counter object, so a same-name
    re-entry in one task — or the same scope open concurrently in two
    tasks or threads sharing the recorder — books each wall-clock second
    exactly once.  (The previous stack-local rule saw only its own task's
    frames and double-booked concurrent overlap.)
    """
    rec = current_recorder()
    counters = rec.counters_for(name)
    token = _STACK.set(_STACK.get() + (_Frame(name, counters),))
    with rec._lock:
        entry = rec._open.get(id(counters))
        if entry is None:
            rec._open[id(counters)] = [1, time.perf_counter()]
        else:
            entry[0] += 1
    try:
        yield counters
    finally:
        _STACK.reset(token)
        now = time.perf_counter()
        with rec._lock:
            entry = rec._open.get(id(counters))
            # A reset() between enter and exit drops the entry: the
            # detached counter simply misses its wall charge.
            if entry is not None:
                entry[0] -= 1
                if entry[0] <= 0:
                    counters.wall_time += now - entry[1]
                    del rec._open[id(counters)]


@contextlib.contextmanager
def book(name: str, counters: Optional[Counters] = None) -> Iterator[Counters]:
    """Charge the block's operations to a :class:`Counters` book as well:
    a fresh private one by default (the book a :func:`repro.obs.span`
    carries), or ``counters``, a book the caller owns and pushes again
    each time it resumes work (a relay room's book, read whole into every
    room checkpoint).

    The book is pushed onto the scope stack like a scope, so every count
    hook and :func:`replay` charge it with no code of their own.  It is
    not registered with the recorder: it never appears in
    :func:`snapshot`, it keeps no wall time, and it is freed with its
    owner."""
    if counters is None:
        counters = Counters()
    token = _STACK.set(_STACK.get() + (_Frame(name, counters),))
    try:
        yield counters
    finally:
        _STACK.reset(token)


def active_scopes() -> List[str]:
    """Names currently on the scope stack, outermost first, span books
    included (diagnostics)."""
    return [frame.name for frame in _STACK.get()]


def _charged() -> List[Counters]:
    """Every counter object the current operation must be charged to:
    the recorder's total plus each *distinct* active scope (a name opened
    twice on the stack shares one ``Counters`` and is charged once)."""
    rec = current_recorder()
    total = rec.counters_for(_TOTAL)
    targets = [total]
    seen = {id(total)}
    for frame in _STACK.get():
        ident = id(frame.counters)
        if ident not in seen:
            seen.add(ident)
            targets.append(frame.counters)
    return targets


# ---------------------------------------------------------------------------
# Counting hooks.
# ---------------------------------------------------------------------------


def count_modexp(amount: int = 1) -> None:
    rec = current_recorder()
    with rec._lock:
        for c in _charged():
            c.modexp += amount


def count_hash(amount: int = 1) -> None:
    rec = current_recorder()
    with rec._lock:
        for c in _charged():
            c.hashes += amount


def count_pairing(amount: int = 1) -> None:
    rec = current_recorder()
    with rec._lock:
        for c in _charged():
            c.pairings += amount


def count_message_sent(nbytes: int = 0) -> None:
    rec = current_recorder()
    with rec._lock:
        for c in _charged():
            c.messages_sent += 1
            c.bytes_sent += nbytes


def count_message_received(nbytes: int = 0) -> None:
    rec = current_recorder()
    with rec._lock:
        for c in _charged():
            c.messages_received += 1
            c.bytes_received += nbytes


def bump(name: str, amount: int = 1) -> None:
    rec = current_recorder()
    with rec._lock:
        for c in _charged():
            c.bump(name, amount)


def replay(counts: Dict[str, int]) -> None:
    """Charge a bulk dict of counts produced under *another* recorder —
    e.g. a :class:`repro.accel.batch.ScanCache` entry computed once under
    a detached recorder — to the current one.

    Keys are fixed field names (:data:`REPLAY_FIELDS`) or ``extra``
    counter names; everything is charged to the total plus each distinct
    active scope, exactly as if the operations had run inline here.
    ``wall_time`` keys are ignored (they overlap the current clock).
    """
    if not counts:
        return
    fixed = [(k, v) for k, v in counts.items() if k in _REPLAY_SET and v]
    extras = [(k, v) for k, v in counts.items()
              if k not in _REPLAY_SET and k != "wall_time" and v]
    if not fixed and not extras:
        return
    rec = current_recorder()
    with rec._lock:
        for c in _charged():
            for name, amount in fixed:
                setattr(c, name, getattr(c, name) + amount)
            for name, amount in extras:
                c.bump(name, amount)


# ---------------------------------------------------------------------------
# Reading results.
# ---------------------------------------------------------------------------


def snapshot() -> Dict[str, Counters]:
    """Return a copy of every scope's counters."""
    return current_recorder().snapshot()


def total() -> Counters:
    """Counters accumulated since the last :func:`reset`."""
    return current_recorder().total()


def value(scope_name: str, field_name: str, default: int = 0) -> object:
    """One value out of the current snapshot, via the exporter view.

    ``field_name`` may be a fixed field (``"modexp"``) or an ``extra``
    key (``"inversions"``).  Missing scope or field yields ``default`` —
    benchmark code reads counters through this instead of poking
    :class:`Counters` attributes."""
    counters = snapshot().get(scope_name)
    if counters is None:
        return default
    return counters.as_dict().get(field_name, default)


# ---------------------------------------------------------------------------
# Histograms + spans (module-level proxies).
# ---------------------------------------------------------------------------


def observe(name: str, value: float,
            bounds: Optional[Sequence[float]] = None) -> None:
    """Record one observation into the named histogram of the current
    recorder (created on first use; ``bounds`` only matter then)."""
    current_recorder().observe(name, value, bounds)


def histogram(name: str,
              bounds: Optional[Sequence[float]] = None) -> Histogram:
    """The live named histogram of the current recorder."""
    return current_recorder().histogram(name, bounds)


def histograms() -> Dict[str, Histogram]:
    """Copies of every histogram in the current recorder."""
    return current_recorder().histograms()


def spans() -> List[object]:
    """Finished spans recorded since the last :func:`reset` (see
    :mod:`repro.obs.spans` for the span type and how to start them)."""
    return current_recorder().spans()


# ---------------------------------------------------------------------------
# Tracing controls.
# ---------------------------------------------------------------------------


def enable_tracing(on: bool = True) -> None:
    """Switch span recording on (off by default — counting stays cheap
    unless someone asks for spans)."""
    current_recorder().tracing = on


@contextlib.contextmanager
def tracing() -> Iterator[None]:
    """Record spans for the extent of the block."""
    rec = current_recorder()
    before = rec.tracing
    rec.tracing = True
    try:
        yield
    finally:
        rec.tracing = before


# ---------------------------------------------------------------------------
# Exporters.
# ---------------------------------------------------------------------------


def export_json(snap: Optional[Dict[str, Counters]] = None, *,
                include_histograms: bool = True, indent: int = 2) -> str:
    """Serialize a snapshot (default: the live one) as JSON.

    Layout: ``{"scopes": {...}, "histograms": {...}}``; histograms
    whenever any exist."""
    snap = snapshot() if snap is None else snap
    doc: Dict[str, object] = {
        "scopes": {name: c.as_dict() for name, c in sorted(snap.items())}
    }
    if include_histograms:
        hists = histograms()
        if hists:
            doc["histograms"] = {
                name: hists[name].summary() for name in sorted(hists)
            }
    return json.dumps(doc, indent=indent, sort_keys=False)


def format_histograms(hists: Optional[Dict[str, Histogram]] = None,
                      title: str = "histograms") -> str:
    """Aligned percentile table, one row per histogram (CLI helper)."""
    hists = histograms() if hists is None else hists
    header = ["histogram", "count", "min", "p50", "p90", "p99", "max", "mean"]
    rows: List[List[str]] = []
    for name in sorted(hists):
        s = hists[name].summary()
        rows.append([name, str(s["count"])] + [
            "-" if s[k] is None else f"{s[k]:.6g}"
            for k in ("min", "p50", "p90", "p99", "max", "mean")
        ])
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title),
             "  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def export_csv(snap: Optional[Dict[str, Counters]] = None) -> str:
    """Serialize a snapshot as CSV: one row per scope, fixed fields plus
    the union of all ``extra`` keys as trailing columns."""
    snap = snapshot() if snap is None else snap
    extra_keys = sorted({k for c in snap.values() for k in c.extra})
    header = ["scope", *FIELDS, *extra_keys]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for name in sorted(snap):
        flat = snap[name].as_dict()
        writer.writerow([name] + [flat.get(col, 0) for col in header[1:]])
    return buf.getvalue()


def write_json(path: str, **kwargs) -> None:
    with open(path, "w") as handle:
        handle.write(export_json(**kwargs) + "\n")


def format_table(snap: Optional[Dict[str, Counters]] = None,
                 scopes: Optional[Sequence[str]] = None,
                 fields: Sequence[str] = ("modexp", "messages_sent",
                                          "messages_received", "bytes_sent",
                                          "bytes_received", "wall_time"),
                 title: str = "metrics") -> str:
    """Render selected scopes x fields as an aligned text table (the CLI
    and the benchmark harness share this)."""
    snap = snapshot() if snap is None else snap
    names = list(scopes) if scopes is not None else sorted(snap)
    header = ["scope", *fields]
    rows: List[List[str]] = []
    for name in names:
        counters = snap.get(name)
        flat = counters.as_dict() if counters is not None else {}
        cells = [name]
        for f in fields:
            v = flat.get(f, 0)
            cells.append(f"{v:.4f}" if isinstance(v, float) else str(v))
        rows.append(cells)
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title),
             "  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
