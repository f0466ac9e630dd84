"""Per-layer tracing for ``run.py --trace``.

The tracer wraps the public calls into each layer from the outside (no
file under ``src/`` changes) and is installed only around traced rooms.
The wrapped calls are synchronous, so a per-thread stack of open calls
gives exact self time: a call's duration minus the time its wrapped
children took.  A call re-entering its own group (``mac.verify`` calling
``mac.mac``) is part of the outer call, so ``calls`` counts public calls
into the layer.  Awaits (``framing.read_frame``) are timed as separate
wait intervals and never go on the stack: while one device waits, the
other device's work runs on the same loop.

Every wrapped call is also kept as a span in the ``Span.as_dict`` shape,
with the room as its trace id, and :meth:`Tracer.export` writes them with
:func:`repro.obs.telemetry.export_merged_trace`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

from repro.core.group_authority import GroupAuthority
from repro.core.member import GcdMember
from repro.crypto import mac, symmetric
from repro.crypto.cramer_shoup import CramerShoup
from repro.dgka.burmester_desmedt import BurmesterDesmedtParty
from repro.net.runner import HandshakeDevice
from repro.obs.telemetry import export_merged_trace
from repro.revocation.service import RevocationService
from repro.service import framing, protocol

#: ``(group, owner, attribute)`` of every wrapped call.
TARGETS = (
    ("gsig.sign", GcdMember, "gsig_sign"),
    ("gsig.verify", GcdMember, "gsig_verify"),
    ("gsig.shield", GcdMember, "distinction_shield"),
    ("crypto.cramer_shoup", CramerShoup, "encrypt_bytes"),
    ("crypto.symmetric", symmetric, "encrypt"),
    ("crypto.symmetric", symmetric, "decrypt"),
    ("crypto.mac", mac, "mac"),
    ("crypto.mac", mac, "verify"),
    ("dgka.emit", BurmesterDesmedtParty, "emit"),
    ("dgka.absorb", BurmesterDesmedtParty, "absorb"),
    ("net.runner.device", HandshakeDevice, "start"),
    ("net.runner.device", HandshakeDevice, "on_message"),
    ("service.protocol.codec", protocol, "encode_message"),
    ("service.protocol.codec", protocol, "decode_message"),
    ("revocation.admit", RevocationService, "admit"),
    ("revocation.seal", RevocationService, "seal_epoch"),
    ("core.group_authority.remove_users", GroupAuthority, "remove_users"),
    ("core.member.update", GcdMember, "update"),
)

#: Every wrapped group, in report order.
GROUPS = tuple(dict.fromkeys(group for group, _, _ in TARGETS))

#: Groups of the membership layer, reported per epoch instead of per room.
EPOCH_GROUPS = frozenset({
    "revocation.admit", "revocation.seal",
    "core.group_authority.remove_users", "core.member.update",
})


class _Stack(threading.local):
    def __init__(self) -> None:
        self.frames: List[list] = []      # [group, child_s, span_id]


class Tracer:
    """Counts, self times, wait time, framing bytes and spans of the
    wrapped calls made while installed."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.wait_s = 0.0
        self.framing_bytes = 0
        self.spans: List[dict] = []
        self.epoch = time.perf_counter()
        self._stack = _Stack()
        self._next_id = 0
        self._trace_id: Optional[str] = None
        self._root_id: Optional[int] = None
        self._saved: List[tuple] = []

    # Installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        patches = [(owner, attr, self._sync(group, vars(owner)[attr]))
                   for group, owner, attr in TARGETS]
        patches.append((framing, "read_frame",
                        self._wait(vars(framing)["read_frame"])))
        patches.append((framing, "encode_frame",
                        self._count_bytes(vars(framing)["encode_frame"])))
        for owner, attr, wrapped in patches:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, on: bool = True):
        if on:
            self.install()
        try:
            yield
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def unit(self, name: str, index: int):
        """Root span for one room or epoch; its index is the trace id."""
        self._trace_id = f"{index:016x}"
        self._root_id = self._new_id()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._span(name, self._root_id, None, t0,
                       time.perf_counter() - t0)
            self._root_id = None

    # Wrappers -----------------------------------------------------------

    def _sync(self, group: str, raw):
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) \
            else None
        fn = raw.__func__ if kind is not None else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames = self._stack.frames
            if frames and frames[-1][0] == group:
                return fn(*args, **kwargs)
            frame = [group, 0.0, self._new_id()]
            parent = frames[-1][2] if frames else self._root_id
            frames.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                frames.pop()
                if frames:
                    frames[-1][1] += dur
                self.calls[group] += 1
                self.self_s[group] += dur - frame[1]
                self._span(group, frame[2], parent, t0, dur)

        return kind(wrapper) if kind is not None else wrapper

    def _wait(self, fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                blob = await fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self.wait_s += dur
                self._span("service.framing.read_frame", self._new_id(),
                           self._root_id, t0, dur, wait=True)
            if blob is not None:
                self.framing_bytes += len(blob) + framing.HEADER_SIZE
            return blob

        return wrapper

    def _count_bytes(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = fn(*args, **kwargs)
            self.framing_bytes += len(frame)
            return frame

        return wrapper

    # Spans --------------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _span(self, name: str, span_id: int, parent_id: Optional[int],
              t0: float, dur: float, **attrs) -> None:
        row = {"name": name, "span_id": span_id, "parent_id": parent_id,
               "trace_id": self._trace_id, "ts": t0 - self.epoch,
               "dur": dur, "tid": threading.current_thread().name}
        row.update({f"attr.{k}": v for k, v in sorted(attrs.items())})
        self.spans.append(row)

    def export(self, path: str, label: str) -> int:
        """Write the merged trace and load it back; returns event count."""
        export_merged_trace(path, [{"label": label, "epoch": self.epoch,
                                    "spans": self.spans}])
        with open(path) as handle:
            return len(json.load(handle)["traceEvents"])
