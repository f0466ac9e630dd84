"""repro.accel — crypto acceleration subsystem.

Two layers, both behaviour-preserving (see docs/PERFORMANCE.md):

1. **Algorithmic** (:mod:`repro.accel.fixed_base`,
   :mod:`repro.accel.multi_exp`, :mod:`repro.accel.batch`) — fixed-base
   windowed precomputation for long-lived bases, term-by-term
   multi-exponentiation that routes through those tables, and the
   room-wide :class:`ScanCache` for Phase III verify scans.
2. **Parallel** (:mod:`repro.accel.pool`) — a ``ProcessPoolExecutor``
   worker pool with batch submit (``sign_many`` / ``verify_many`` /
   ``modexp_many``) and counter replay into the caller's books; the
   engine's optional Phase III executor (``run_handshake(pool=...)``).

Everything is off by default and switched with :func:`configure` /
:func:`enable`; the guarded E1/E2 counters (modexp, messages, bytes) and
every protocol output are bit-identical with acceleration on or off.
New ``accel:*`` extra counters and histograms ride on top.

Importing this package installs the fixed-base hook into
:func:`repro.crypto.modmath.uncounted_pow`, the power step that ``mexp``
and ``multi_exp`` share; the hook is inert until enabled.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.accel import fixed_base, state
from repro.accel.fixed_base import (FixedBaseTable, lookup_pow,
                                    register_base, unregister_base)
from repro.accel.multi_exp import multi_exp
from repro.accel.pool import WorkerPool
from repro.crypto import modmath as _modmath
from repro.accel import batch  # noqa: E402  (needs fixed_base/state above)
from repro.accel.batch import ScanCache, verify_room

_modmath._install_accel_pow(lookup_pow)

__all__ = [
    "FixedBaseTable",
    "ScanCache",
    "WorkerPool",
    "batch",
    "configure",
    "disable",
    "enable",
    "get_pool",
    "is_enabled",
    "multi_exp",
    "register_base",
    "reset",
    "shutdown_pool",
    "stats",
    "unregister_base",
    "verify_room",
]

_POOL: Optional[WorkerPool] = None


def configure(enabled: Optional[bool] = None, *,
              window: Optional[int] = None,
              cache_size: Optional[int] = None,
              workers: Optional[int] = None,
              batch: Optional[bool] = None) -> Dict[str, object]:
    """Set any subset of the subsystem switches; returns the snapshot.
    ``batch=True`` is accepted and ignored; ``batch=False`` raises
    :class:`ValueError` (the ScanCache runs whenever accel is enabled)."""
    snap = state.configure(enabled=enabled, window=window,
                           cache_size=cache_size, workers=workers,
                           batch=batch)
    if cache_size is not None:
        fixed_base.configure_cache(cache_size)
    return snap


def enable(workers: Optional[int] = None) -> None:
    configure(enabled=True, workers=workers)


def disable() -> None:
    configure(enabled=False)


def is_enabled() -> bool:
    return state.is_enabled()


def get_pool(workers: Optional[int] = None) -> WorkerPool:
    """The shared process pool (created on first call)."""
    global _POOL
    if _POOL is None:
        _POOL = WorkerPool(workers=workers)
    return _POOL


def shutdown_pool() -> None:
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()


def reset() -> None:
    """Drop caches and the pool; configuration persists."""
    fixed_base.clear()
    shutdown_pool()


def stats() -> Dict[str, object]:
    """One structured snapshot for STATUS replies and the CLI."""
    snap = state.snapshot()
    return {
        "enabled": snap["enabled"],
        "window": snap["window"],
        "workers": snap["workers"],
        "fixed_base": fixed_base.stats(),
        "pool": dict(_POOL.stats, workers=_POOL.workers,
                     usable=_POOL.usable) if _POOL is not None else None,
    }
