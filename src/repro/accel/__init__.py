"""repro.accel — crypto acceleration subsystem.

One algorithmic layer, behaviour-preserving (see docs/PERFORMANCE.md):
fixed-base windowed precomputation for long-lived bases
(:mod:`repro.accel.fixed_base`), term-by-term multi-exponentiation that
routes through those tables (:mod:`repro.accel.multi_exp`), and the
room-wide :class:`ScanCache` for Phase III verify scans
(:mod:`repro.accel.batch`).

Everything is off by default and switched with :func:`configure` /
:func:`enable`; the guarded E1/E2 counters (modexp, messages, bytes) and
every protocol output are bit-identical with acceleration on or off.
New ``accel:*`` extra counters ride on top.

Importing this package installs the fixed-base hook into
:func:`repro.crypto.modmath.uncounted_pow`, the power step that ``mexp``
and ``multi_exp`` share; the hook is inert until enabled.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.accel import batch, fixed_base, state
from repro.accel.batch import ScanCache
from repro.accel.fixed_base import (FixedBaseTable, lookup_pow,
                                    register_base, unregister_base)
from repro.accel.multi_exp import multi_exp
from repro.crypto import modmath as _modmath

_modmath._install_accel_pow(lookup_pow)

__all__ = [
    "FixedBaseTable",
    "ScanCache",
    "batch",
    "configure",
    "disable",
    "enable",
    "is_enabled",
    "multi_exp",
    "register_base",
    "reset",
    "stats",
    "unregister_base",
]


def configure(enabled: Optional[bool] = None, *,
              window: Optional[int] = None,
              cache_size: Optional[int] = None,
              batch: Optional[bool] = None) -> Dict[str, object]:
    """Set any subset of the subsystem switches; returns the snapshot.
    ``batch=True`` is accepted and ignored; ``batch=False`` raises
    :class:`ValueError` (the ScanCache runs whenever accel is enabled)."""
    snap = state.configure(enabled=enabled, window=window,
                           cache_size=cache_size, batch=batch)
    if cache_size is not None:
        fixed_base.configure_cache(cache_size)
    return snap


def enable() -> None:
    configure(enabled=True)


def disable() -> None:
    configure(enabled=False)


def is_enabled() -> bool:
    return state.is_enabled()


def reset() -> None:
    """Drop the fixed-base tables; configuration persists."""
    fixed_base.clear()


def stats() -> Dict[str, object]:
    """One structured snapshot for STATUS replies and the CLI."""
    snap = state.snapshot()
    return {
        "enabled": snap["enabled"],
        "window": snap["window"],
        "fixed_base": fixed_base.stats(),
    }
