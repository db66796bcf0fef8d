"""Pausing Python's cyclic garbage collector around bulk phases.

Scenario generation and the inference pass allocate millions of small,
long-lived objects (messages, elems, observations) while everything built
before them stays alive.  Every full collection the allocations trigger
walks all of it, and almost none of it is cyclic garbage: reference
counting frees what dies.  On a multi-year scenario the collector took
about 40% of generation and 17% of the inference pass; pausing it for the
phase, and collecting as usual afterwards, left peak memory unchanged.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["paused_gc"]


@contextmanager
def paused_gc() -> Iterator[None]:
    """Disable the cyclic collector for the block (or decorated call).

    Re-entrant: a nested pause, or a caller that already disabled the
    collector, leaves it as it found it.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
