"""Global configuration for the acceleration subsystem.

Kept in its own leaf module (no imports beyond the standard library) so
``fixed_base``/``multi_exp`` can consult the switches without
pulling in the package ``__init__`` — which would create an import cycle
through :mod:`repro.crypto.modmath`.

The subsystem is **off by default**: every algorithm must produce
bit-identical results either way, so enabling it is purely a performance
decision (made by the CLI flags, the benchmarks, or a library caller via
:func:`repro.accel.configure`).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

_LOCK = threading.RLock()

_ENABLED = False
#: Fixed-base window width in bits; 2^window table entries per row.
_WINDOW = 5
#: Bounded LRU capacity for fixed-base tables (distinct (base, modulus)).
_CACHE_SIZE = 64


def configure(enabled: Optional[bool] = None,
              window: Optional[int] = None,
              cache_size: Optional[int] = None,
              batch: Optional[bool] = None) -> Dict[str, object]:
    """Update any subset of the switches; returns the resulting snapshot.

    ``batch`` is accepted only as ``True`` for older callers: room-scale
    batch verification is not a switch any more, it runs whenever the
    subsystem is enabled."""
    global _ENABLED, _WINDOW, _CACHE_SIZE
    if batch is not None and not batch:
        raise ValueError("batch verification cannot be turned off; "
                         "disable the subsystem instead (enabled=False)")
    with _LOCK:
        if enabled is not None:
            _ENABLED = bool(enabled)
        if window is not None:
            if not 1 <= int(window) <= 16:
                raise ValueError("window must be in [1, 16]")
            _WINDOW = int(window)
        if cache_size is not None:
            if int(cache_size) < 1:
                raise ValueError("cache_size must be >= 1")
            _CACHE_SIZE = int(cache_size)
        return snapshot()


def snapshot() -> Dict[str, object]:
    with _LOCK:
        return {
            "enabled": _ENABLED,
            "window": _WINDOW,
            "cache_size": _CACHE_SIZE,
        }


def is_enabled() -> bool:
    return _ENABLED


def window() -> int:
    return _WINDOW


def cache_size() -> int:
    return _CACHE_SIZE
