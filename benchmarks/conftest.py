"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` module regenerates one published artefact (table or
figure) of the paper, printing measured-vs-paper rows, and times the
regeneration with pytest-benchmark.  Printing happens once per module via
session-scoped fixtures so ``--benchmark-only`` output stays readable.
"""

from __future__ import annotations

import pytest

from repro.caching import LRUCache
from repro.flow import Flow
from repro.flow.memo import EngineCache


def print_report(title: str, text: str) -> None:
    """Emit one experiment report to stdout (shown with `pytest -s`)."""
    bar = "=" * 78
    print(f"\n{bar}\n{title}\n{bar}\n{text}\n")


def platform_cold_flow() -> Flow:
    """A :class:`Flow` that keeps workloads warm but builds every platform.

    The baselines that compare a flow against a hand-built
    ``HotSpotModel`` rebuild the platform on every call, so the flow
    side must too; a plain ``Flow()`` would lease it warm from the
    process memo and skip work the baseline still does.
    """
    cache = EngineCache()
    cache.platforms = LRUCache(max_entries=0)
    return Flow(cache=cache)

