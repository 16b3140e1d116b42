"""Toggle for the data-plane fast paths (DESIGN.md §8).

The hot paths of the data plane — collect-time serialisation, cached
sort keys, offset-walking segment scans, raw-key heaps in ``Shared`` —
are algebraically equivalent to the straightforward reference code
they replace: same bytes, same record order, same counter charges.
This module is the single switch that selects between them, so the
counter-invariance golden test (and a suspicious developer) can run
the same job both ways and diff the counters.

The toggle defaults to *on* and can be disabled with the environment
variable ``REPRO_FASTPATH=0`` (or ``false`` / ``off``), or from code
via :func:`set_enabled` / the :func:`disabled` context manager.

Implementation notes: hot code reads the flag once per task phase (not
per record), so flipping it mid-task is unsupported; flip it between
jobs, as the tests do.

A second, stricter tier — the *batched* record dataflow (DESIGN.md
§11): run-oriented encode, ``collect_batch``, list-based run merges
and batched group iteration — has its own toggle, ``REPRO_BATCH``.
The batched paths refine the fast paths rather than replace them, so
:func:`batch_enabled` is only true when *both* toggles are on.  The
batched tier additionally assumes a deterministic Partitioner (the
same assumption LazySH decoding already makes): partition assignments
may be memoised per key.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "1").strip().lower() not in (
        "0",
        "false",
        "off",
    )


_enabled: bool = _env_flag("REPRO_FASTPATH")
_batch_enabled: bool = _env_flag("REPRO_BATCH")


def enabled() -> bool:
    """Whether the data-plane fast paths are active."""
    return _enabled


def set_enabled(value: bool) -> None:
    """Turn the fast paths on or off process-wide."""
    global _enabled
    _enabled = bool(value)


@contextmanager
def disabled() -> Iterator[None]:
    """Run a block on the reference path (restores the prior setting)."""
    previous = _enabled
    set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


@contextmanager
def forced(value: bool) -> Iterator[None]:
    """Run a block with the toggle pinned to ``value``."""
    previous = _enabled
    set_enabled(value)
    try:
        yield
    finally:
        set_enabled(previous)


# -- the batched-dataflow tier (REPRO_BATCH) -------------------------------


def batch_enabled() -> bool:
    """Whether the batched record dataflow is active.

    The batched paths build on the fast paths (cached payloads, raw-key
    orders), so they require ``REPRO_FASTPATH`` too: with the fast
    paths off this is always ``False``.
    """
    return _enabled and _batch_enabled


def set_batch_enabled(value: bool) -> None:
    """Turn the batched dataflow on or off process-wide."""
    global _batch_enabled
    _batch_enabled = bool(value)


@contextmanager
def batch_forced(value: bool) -> Iterator[None]:
    """Run a block with the batch toggle pinned to ``value``."""
    previous = _batch_enabled
    set_batch_enabled(value)
    try:
        yield
    finally:
        set_batch_enabled(previous)
