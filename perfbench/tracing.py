"""Outside-in tracing: wrappers around each layer's public entry points.

The benchmark treats ``src/`` as a black box.  For a traced run it
replaces a handful of public callables (class methods, and module-level
functions in every ``repro`` module that bound them) with wrappers that
record a span — name, start, end, parent — and restores the originals
afterwards.  Spans stay in memory until :meth:`Tracer.write`.

Only the installing thread of the installing process records: forked
pool workers and any other thread call straight through, so the span
stack is a plain list.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One span: [name, start_s, end_s, parent_index or -1].
Span = List[Any]


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of *intervals*."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _geometry_key(model: Any) -> tuple:
    blocks = tuple(
        (b.name, b.rect.x, b.rect.y, b.rect.w, b.rect.h) for b in model.floorplan
    )
    return blocks, model.package


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.geometries: set = set()
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        naming: Optional[Callable[[tuple], str]] = None,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer._pid or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            span: Span = [naming(args) if naming else name, perf_counter(), 0.0,
                          tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        """Wrap ``owner.attr`` (a class or module attribute)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, **hooks))
        self._patches.append((owner, attr, original))

    def patch_function(self, fn: Callable, name: str, **hooks: Any) -> None:
        """Wrap *fn* in every loaded ``repro`` module that bound it by name."""
        attr = fn.__name__
        for module_name, module in sorted(sys.modules.items()):
            if module_name.split(".")[0] == "repro" and module.__dict__.get(attr) is fn:
                self.patch(module, attr, name, **hooks)

    def remove(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the layers ----------------------------------------------------
    def install(self) -> None:
        """Wrap the public entry points of every in-process layer."""
        from concurrent.futures import Future

        from repro.analysis.metrics import evaluate_schedule
        from repro.core.scheduler import ListScheduler
        from repro.cosynth.framework import CoSynthesisFramework
        from repro.floorplan.genetic import evolve_floorplan
        from repro.flow import Flow
        from repro.results import ResultStore
        from repro.thermal.hotspot import HotSpotModel

        def built(args: tuple, _result: Any) -> None:
            self.counts["thermal.build_calls"] += 1
            self.geometries.add(_geometry_key(args[0]))

        def scheduled(args: tuple, _result: Any) -> None:
            self.counts["scheduler.run_calls"] += 1
            stats = args[0].last_run_stats
            self.counts["scheduler.candidates"] += stats["candidates_evaluated"]

        def counted(key: str) -> Callable[[tuple, Any], None]:
            def bump(_args: tuple, _result: Any) -> None:
                self.counts[key] += 1
            return bump

        self.patch(Flow, "run", "flow.run")
        self.patch(HotSpotModel, "__init__", "thermal.build", after=built)
        self.patch(
            ListScheduler, "run", "scheduler",
            naming=lambda args: (
                "scheduler.screen" if args[0].thermal is None else "scheduler.thermal"
            ),
            after=scheduled,
        )
        self.patch(CoSynthesisFramework, "run", "cosynth.run")
        self.patch_function(
            evolve_floorplan, "floorplan.evolve", after=counted("floorplan.evolve_calls")
        )
        self.patch_function(evaluate_schedule, "flow.evaluate")
        self.patch(ResultStore, "append", "store.append", after=counted("store.append_calls"))
        self.patch(ResultStore, "load", "store.load")
        self.patch(Future, "result", "batch.wait")

    # -- windows -------------------------------------------------------
    def mark(self) -> int:
        """Start of a window: pass the value to :meth:`summary` later."""
        self.counts.clear()
        self.geometries.clear()
        return len(self.spans)

    def summary(self, start: int) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (total
        minus the time its child spans cover) for spans since *start*."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        window = self.spans[start:]
        for _name, s, e, parent in window:
            if parent >= start:
                children[parent].append((s, e))
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for offset, (name, s, e, _parent) in enumerate(window):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += e - s
            row["self_s"] += (e - s) - _covered(children.get(start + offset, ()))
        return dict(out)

    def write(self, path: Path, origin: float) -> None:
        """Write every span as one JSON line, times relative to *origin*."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, s, e, parent in self.spans:
                handle.write(
                    json.dumps([name, round(s - origin, 9), round(e - origin, 9), parent])
                    + "\n"
                )
