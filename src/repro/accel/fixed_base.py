"""Fixed-base windowed precomputation (layer 1 of :mod:`repro.accel`).

The protocol exponentiates a handful of *long-lived* bases thousands of
times: the DGKA group generator ``g``, the ACJT public bases
``a, a0, g, h, y`` and the Pedersen pair ``ped_g, ped_h``, and the
Cramer-Shoup tracing bases.  For those we precompute the classic
fixed-base windowed table

    ``rows[j][d] = base ** (d << (j * window))  (mod modulus)``

so any exponent becomes one modular multiply per non-zero ``window``-bit
digit — no squarings at all — at the cost of ``2^window`` stored powers
per digit row, built once and cached.

Accounting contract (the E1 invariant): a table lookup **replaces** one
``pow`` call inside :func:`repro.crypto.modmath.uncounted_pow`, whose
callers (``mexp``, ``multi_exp``) charge the modexp whether or not the
hook answers — so the guarded counters are identical with the subsystem
on or off.  Cache behaviour is layered on top as new ``accel:fb-hit`` /
``accel:fb-miss`` extra counters.

Only *registered* bases get tables: :func:`register_base` is called from
the key-generation sites (ACJT manager, ``dh_group``, Cramer-Shoup
keygen), so random per-signature bases never pollute the cache.  The
table store itself is a bounded LRU keyed ``(base % modulus, modulus)``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro import metrics
from repro.accel import state

Key = Tuple[int, int]


class FixedBaseTable:
    """Digit-row table for one ``(base, modulus)`` pair.

    Rows are grown lazily: ACJT sigma responses run to ~3000 bits —
    far past the modulus size — so the number of rows follows the
    largest exponent actually seen instead of being fixed up front.
    """

    __slots__ = ("base", "modulus", "window", "rows", "mults",
                 "_row_base", "_lock")

    def __init__(self, base: int, modulus: int,
                 window: Optional[int] = None) -> None:
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        self.base = base % modulus
        self.modulus = modulus
        self.window = window if window is not None else state.window()
        self.rows: list = []
        #: raw modular multiplies spent building rows (precompute cost).
        self.mults = 0
        self._row_base = self.base
        self._lock = threading.Lock()
        with self._lock:
            self._grow(1)

    def _grow(self, nrows: int) -> None:
        """Extend to ``nrows`` digit rows (caller holds the lock)."""
        radix = 1 << self.window
        mod = self.modulus
        while len(self.rows) < nrows:
            g = self._row_base
            row = [1 % mod, g % mod]
            value = g % mod
            for _ in range(radix - 2):
                value = (value * g) % mod
                row.append(value)
            self.rows.append(row)
            # Generator for the next row: g^(2^window) = row[-1] * g.
            self._row_base = (row[-1] * g) % mod
            self.mults += radix - 1

    def pow(self, exponent: int) -> int:
        """``base ** exponent % modulus`` — bit-identical to builtin pow."""
        if exponent < 0:
            raise ValueError("fixed-base tables take non-negative exponents")
        mod = self.modulus
        if mod == 1:
            return 0
        needed = (max(exponent.bit_length(), 1)
                  + self.window - 1) // self.window
        # Hold the lock only to guarantee enough rows exist.  Rows are
        # append-only and never mutated in place, so indices < needed
        # stay valid under concurrent growth — the windowed evaluation
        # itself runs lock-free and threads sharing a table do not
        # serialize per exponentiation.
        with self._lock:
            if needed > len(self.rows):
                self._grow(needed)
            rows = self.rows
        mask = (1 << self.window) - 1
        result = 1
        j = 0
        e = exponent
        while e:
            digit = e & mask
            if digit:
                result = (result * rows[j][digit]) % mod
            e >>= self.window
            j += 1
        return result % mod


class TableCache:
    """Bounded LRU of :class:`FixedBaseTable`, with hit/miss accounting.

    Construction is **single-flight** per key: the first thread to miss
    builds the table outside the cache lock (big-int multiplies can be
    slow) while later arrivals wait on a per-key event instead of paying
    the full ``mults`` precompute for a table that would be thrown away.
    """

    def __init__(self, capacity: int) -> None:
        self._lock = threading.Lock()
        self._capacity = max(1, capacity)
        self._tables: "OrderedDict[Key, FixedBaseTable]" = OrderedDict()
        self._building: Dict[Key, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def resize(self, capacity: int) -> None:
        with self._lock:
            self._capacity = max(1, capacity)
            while len(self._tables) > self._capacity:
                self._tables.popitem(last=False)
                self.evictions += 1

    def lookup(self, key: Key) -> Tuple[FixedBaseTable, bool]:
        """Get-or-build the table for ``key``; returns ``(table, hit)``.
        LRU order is touch-on-use; waiters on an in-flight build count as
        hits (they pay no precompute)."""
        while True:
            with self._lock:
                table = self._tables.get(key)
                if table is not None:
                    self._tables.move_to_end(key)
                    self.hits += 1
                    return table, True
                pending = self._building.get(key)
                if pending is None:
                    done = self._building[key] = threading.Event()
                    self.misses += 1
                    break
            # Someone else is already building this table — wait, then
            # re-check (it may even have been evicted again by then).
            pending.wait()
        try:
            table = FixedBaseTable(key[0], key[1])
        except BaseException:
            with self._lock:
                self._building.pop(key, None)
            done.set()
            raise
        with self._lock:
            self._tables[key] = table
            self._tables.move_to_end(key)
            while len(self._tables) > self._capacity:
                self._tables.popitem(last=False)
                self.evictions += 1
            self._building.pop(key, None)
        done.set()
        return table, False

    def discard(self, key: Key) -> bool:
        """Drop one entry (registry eviction / unregistration); counted as
        an eviction when the key was present."""
        with self._lock:
            if self._tables.pop(key, None) is not None:
                self.evictions += 1
                return True
            return False

    def __len__(self) -> int:
        with self._lock:
            return len(self._tables)

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "tables": len(self._tables),
                "capacity": self._capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


_REG_LOCK = threading.Lock()
#: Keys that key-generation sites have marked as long-lived.  Bounded to a
#: multiple of the cache so a pathological caller cannot grow it forever.
_REGISTERED: "OrderedDict[Key, None]" = OrderedDict()
_CACHE = TableCache(state.cache_size())


def _registry_capacity() -> int:
    return 4 * state.cache_size()


def register_base(base: int, modulus: int) -> None:
    """Mark ``(base, modulus)`` as long-lived.

    Cheap and unconditional (a set insert) so key-generation sites call
    it regardless of whether acceleration is currently on; the table
    itself is only built on first use *while* the subsystem is enabled.
    """
    if modulus <= 1:
        return
    key = (base % modulus, modulus)
    evicted = []
    with _REG_LOCK:
        _REGISTERED[key] = None
        _REGISTERED.move_to_end(key)
        while len(_REGISTERED) > _registry_capacity():
            evicted.append(_REGISTERED.popitem(last=False)[0])
    # A key that left the registry can never be served by lookup_pow
    # again — drop its table too, or it would pin cache capacity forever.
    for old in evicted:
        _CACHE.discard(old)


def unregister_base(base: int, modulus: int) -> None:
    """Forget a base and drop its table — e.g. an accumulator value made
    obsolete by an epoch change (see :mod:`repro.accel.batch`)."""
    if modulus <= 1:
        return
    key = (base % modulus, modulus)
    with _REG_LOCK:
        present = key in _REGISTERED
        if present:
            del _REGISTERED[key]
    if present:
        _CACHE.discard(key)


def is_registered(base: int, modulus: int) -> bool:
    with _REG_LOCK:
        return (base % modulus, modulus) in _REGISTERED


def lookup_pow(base: int, exponent: int, modulus: int) -> Optional[int]:
    """The :func:`repro.crypto.modmath.uncounted_pow` hook.

    Returns the power for registered bases while acceleration is on, or
    ``None`` to fall back to builtin ``pow``.  Exponents must be
    non-negative (a negative one gets ``None``): ``mexp`` and
    ``multi_exp`` evaluate ``b^(-e)`` as ``(b^e)^(-1)``, so the hook
    only ever sees ``e``.  The caller charges the modexp; this layers
    ``accel:fb-hit`` / ``accel:fb-miss`` extras on top (a *miss* is a
    registered base whose table had to be built — unregistered bases
    count nothing).
    """
    if not state.is_enabled() or exponent < 0 or modulus <= 1:
        return None
    key = (base % modulus, modulus)
    with _REG_LOCK:
        if key not in _REGISTERED:
            return None
    table, hit = _CACHE.lookup(key)
    metrics.bump("accel:fb-hit" if hit else "accel:fb-miss")
    return table.pow(exponent)


def configure_cache(capacity: int) -> None:
    _CACHE.resize(capacity)


def clear() -> None:
    """Drop all tables and accounting (tests and ``accel.reset``)."""
    _CACHE.clear()
    with _REG_LOCK:
        _REGISTERED.clear()


def stats() -> Dict[str, int]:
    out = _CACHE.stats()
    with _REG_LOCK:
        out["registered"] = len(_REGISTERED)
    return out
