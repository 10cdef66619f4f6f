"""Outside-in layer timing: spans and work counts around layer entry points.

:func:`install` replaces the public entry points of each simulator layer
with timing wrappers, by ``setattr`` on their classes and modules, before
the run is built.  The program's own code is untouched, and the wrappers
only read the clock and count calls, so a traced run simulates exactly
what an untraced one does.

Every wrapper opens a span.  A span's *self time* is its duration minus
the time of the spans opened inside it, so the per-key self times add up
to the time spent inside the outermost spans.  A call into a layer that
is already the innermost open span (``fit`` calling ``fit_increment``, a
placement subclass calling ``super().place_block``) joins that span
instead of opening a new one, so each count is one call from outside the
layer.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Union


class LayerTracer:
    """Per-key self time and work counts of the wrapped entry points."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(int)
        #: Open spans, innermost last: ``[group, child_seconds]``.
        self._stack: List[list] = []

    def wrap(
        self,
        fn: Callable,
        key: str,
        group: Optional[str] = None,
        count: Union[str, Callable[..., None], None] = None,
    ) -> Callable:
        """Return ``fn`` timed as span ``key``.

        ``group`` names the layer for re-entry (default: ``key``).
        ``count`` is the name of a counter that each call adds 1 to, or
        ``count(counts, result, *args, **kwargs)``, which adds the call's
        work counts once it returns.
        """
        group = group or key
        counter = count if isinstance(count, str) else None
        tally = count if callable(count) else None
        stack = self._stack
        push, pop = stack.append, stack.pop
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == group:
                return fn(*args, **kwargs)
            frame = [group, 0.0]
            push(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                pop()
                self_s[key] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if counter is not None:
                counts[counter] += 1
            elif tally is not None:
                tally(counts, result, *args, **kwargs)
            return result

        return wrapper

    def patch(self, owner: Any, name: str, key: str, **options: Any) -> None:
        """Replace ``owner.name`` by its wrapped version."""
        setattr(owner, name, self.wrap(getattr(owner, name), key, **options))

    def patch_events(self, stream: Any) -> None:
        """Time every ``next()`` on the iterator ``stream.events()`` returns."""
        events = stream.events
        tracer = self

        def traced_events() -> Iterator:
            return _TimedIterator(events(), tracer)

        stream.events = traced_events


class _TimedIterator:
    """An iterator whose ``next()`` calls are the ``workload`` span."""

    def __init__(self, inner: Iterator, tracer: LayerTracer) -> None:
        self._next = tracer.wrap(
            inner.__next__, "workload.next", count="workload.events"
        )

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        return self._next()


def _rows(X: Any) -> int:
    shape = getattr(X, "shape", None)
    if shape is not None:
        return 1 if len(shape) == 1 else int(shape[0])
    return len(X)


def _count_fit(counts, result, model, X, y, num_rounds=None) -> None:
    # fit() grows the configured number of rounds; fit_increment() grows
    # ``num_rounds`` when given.  One tree per boosting round.
    counts["ml.fits"] += 1
    counts["ml.trees"] += (
        model.params.num_rounds if num_rounds is None else num_rounds
    )
    counts["ml.rows_trained"] += _rows(X)


def _count_predict(counts, result, model, X, *rest, **kwargs) -> None:
    counts["ml.rows_predicted"] += _rows(X)


def _count_solve(counts, result, flows, *rest, **kwargs) -> None:
    counts["flows.solves"] += 1
    counts["flows.solve_flows"] += len(flows)


def install(tracer: LayerTracer) -> None:
    """Wrap every layer's entry points (call before building the run)."""
    from repro.core.manager import ReplicationManager
    from repro.dfs import placement
    from repro.dfs.master import Master
    from repro.engine import flows
    from repro.engine.iomodel import IoModel
    from repro.engine.runner import WorkloadRunner
    from repro.engine.scheduler import TaskScheduler
    from repro.ml.gbt import GradientBoostedTrees
    from repro.sim.simulator import Simulator

    tracer.patch(WorkloadRunner, "run", "runner")
    tracer.patch(Simulator, "run", "sim")
    tracer.patch(TaskScheduler, "submit", "scheduler.submit", count="scheduler.jobs")
    for name in ("read", "write", "transfer", "start_read", "start_write"):
        tracer.patch(IoModel, name, "iomodel", count="iomodel.ops")
    tracer.patch(flows.FairShareEngine, "submit", "flows.submit")
    # The re-pricing pass every flow start and finish runs from the event
    # loop: component walk, byte draining and completion rescheduling.
    tracer.patch(flows.FairShareEngine, "_recompute", "flows.recompute")
    for name in (
        "compute_max_min_rates",
        "compute_max_min_rates_vectorized",
        "compute_max_min_rates_reference",
    ):
        tracer.patch(flows, name, "flows.solve", count=_count_solve)
    for cls in vars(placement).values():
        if isinstance(cls, type) and issubclass(cls, placement.PlacementPolicy):
            for name in (
                "place_block",
                "select_transfer_target",
                "select_copy_target",
                "select_cache_target",
            ):
                if name in vars(cls):
                    tracer.patch(cls, name, "dfs.placement", count="dfs.placements")
    for name, counter in (
        ("create_file", "dfs.creates"),
        ("read_file", "dfs.reads"),
        ("delete_file", "dfs.deletes"),
    ):
        tracer.patch(Master, name, "dfs.master", count=counter)
    tracer.patch(
        ReplicationManager, "run_downgrade", "core.downgrade", group="core",
        count="core.downgrade_calls",
    )
    tracer.patch(
        ReplicationManager, "run_upgrade", "core.upgrade", group="core",
        count="core.upgrade_calls",
    )
    for name in ("fit", "fit_increment"):
        tracer.patch(
            GradientBoostedTrees, name, "ml.fit", group="ml", count=_count_fit
        )
    for name in ("predict_margin", "predict_one"):
        tracer.patch(
            GradientBoostedTrees, name, "ml.predict", group="ml",
            count=_count_predict,
        )
