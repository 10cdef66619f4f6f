"""Slab-allocated event loop: the opt-in fast simulation core.

:class:`FastSimulator` keeps the exact execution semantics of
:class:`~repro.sim.simulator.Simulator` — events run in (time, priority,
seq) order, cancellation is lazy with tombstone counting and amortized
compaction — but stores the event queue as plain tuples over
slab-allocated parallel arrays instead of one Python ``Event`` object
per heap entry:

* The binary heap holds ``(time, priority, seq, slot)`` tuples, so heap
  sift comparisons run entirely in C (tuple comparison) instead of
  calling ``Event.__lt__`` once or twice per level.
* Callback/liveness state lives in preallocated parallel lists indexed
  by ``slot``; slots are recycled through a free list, so a steady-state
  run allocates no per-event storage at all.
* Each slot carries a generation counter, bumped on every recycle.  A
  handle's ``cancel()`` is ignored unless its generation still matches,
  which makes cancel-after-pop safe under slot reuse (e.g. a
  ``PeriodicTimer`` stopped from inside its own callback while a new
  event already occupies the slot).

Scheduling still returns a handle object (:class:`FastEvent`) because
callers hold it to cancel or inspect (``flows.py`` checks ``.time`` and
``.cancelled`` before rescheduling a completion) — but the handle never
enters the heap, so the hot pop/push path never touches it.

Ordering is bit-identical to the reference simulator: seq numbers are
unique, so the tuple order ``(time, priority, seq)`` is the same total
order as ``Event.__lt__`` and the ``slot`` element is never compared.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

from repro.common.errors import SimulationError
from repro.sim.simulator import Simulator

#: Slots added per slab growth (then doubling); sized so a typical run
#: grows the slab a handful of times and then recycles forever.
_SLAB_CHUNK = 1024

#: Same compaction floor as the reference simulator.
_COMPACT_MIN_TOMBSTONES = 64

_INF = float("inf")


class FastEvent:
    """Cancellation handle for a slab-scheduled event.

    Mirrors the parts of :class:`~repro.sim.simulator.Event` that
    engine code consumes (``time``, ``cancelled``, ``cancel()``); the
    heavy state (callback, liveness) lives in the simulator's slabs.
    """

    __slots__ = ("time", "cancelled", "_slot", "_gen", "_sim")

    def __init__(self, time: float, slot: int, gen: int, sim: "FastSimulator") -> None:
        self.time = time
        self.cancelled = False
        self._slot = slot
        self._gen = gen
        self._sim = sim

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        self._sim._cancel_slot(self._slot, self._gen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"FastEvent(t={self.time}, slot={self._slot}{state})"


class FastSimulator(Simulator):
    """Drop-in :class:`Simulator` with slab-allocated event storage.

    Public surface (``at``/``after``/``step``/``run``, the clock, and
    every diagnostic counter) matches the reference simulator; only the
    internal representation differs.  Execution order and tombstone /
    compaction accounting are bit-identical.
    """

    def __init__(self, start: float = 0.0) -> None:
        super().__init__(start)
        # The reference heap holds Event objects; ours holds tuples.
        # Slabs: parallel per-slot arrays, grown in chunks.
        self._heap: List[tuple] = []
        self._slab_callback: List[Optional[Callable[[], Any]]] = []
        self._slab_live: List[bool] = []
        self._slab_gen: List[int] = []
        self._free: List[int] = []
        self._seq_next = 0

    # -- slab bookkeeping ---------------------------------------------------
    def _grow_slab(self) -> None:
        base = len(self._slab_callback)
        chunk = max(_SLAB_CHUNK, base)
        self._slab_callback.extend([None] * chunk)
        self._slab_live.extend([False] * chunk)
        self._slab_gen.extend([0] * chunk)
        # LIFO free list: hand out low slots first for cache locality.
        self._free.extend(range(base + chunk - 1, base - 1, -1))

    def _free_slot(self, slot: int) -> None:
        """Recycle ``slot``: bump its generation and clear its state."""
        self._slab_gen[slot] += 1
        self._slab_callback[slot] = None
        self._slab_live[slot] = False
        self._free.append(slot)

    @property
    def slab_capacity(self) -> int:
        """Total slots ever allocated (diagnostics / tests)."""
        return len(self._slab_callback)

    def stats(self) -> dict:
        """Core counters plus slab-allocator gauges (occupancy, growth)."""
        stats = super().stats()
        stats["slab_capacity"] = len(self._slab_callback)
        stats["slab_free"] = len(self._free)
        return stats

    # -- scheduling ---------------------------------------------------------
    def at(
        self,
        time: float,
        callback: Callable[[], Any],
        name: str = "",
        priority: int = 0,
    ) -> FastEvent:
        """Schedule ``callback`` at absolute simulation ``time``.

        Same contract as the reference simulator; ``name`` is accepted
        for API compatibility but not stored (it is debugging-only).
        """
        # One chained comparison: NaN fails both sides, and so do -inf
        # (behind the clock) and +inf (never reached).
        if not self._now <= time < _INF:
            raise SimulationError(f"cannot schedule event at {time} (now={self._now})")
        free = self._free
        if not free:
            self._grow_slab()
        slot = free.pop()
        self._slab_callback[slot] = callback
        self._slab_live[slot] = True
        seq = self._seq_next
        self._seq_next = seq + 1
        heappush(self._heap, (time, priority, seq, slot))
        if len(self._heap) > self.max_heap_size:
            self.max_heap_size = len(self._heap)
        return FastEvent(time, slot, self._slab_gen[slot], self)

    # -- tombstone accounting -----------------------------------------------
    def _cancel_slot(self, slot: int, gen: int) -> None:
        if self._slab_gen[slot] != gen:
            return  # already popped (and possibly recycled): late no-op
        self._slab_live[slot] = False
        self.events_cancelled += 1
        self._tombstones += 1
        if (
            self._tombstones >= _COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (order-preserving)."""
        live = self._slab_live
        kept = []
        for entry in self._heap:
            if live[entry[3]]:
                kept.append(entry)
            else:
                self._free_slot(entry[3])
        self._heap[:] = kept
        heapify(self._heap)
        self._tombstones = 0
        self.heap_compactions += 1

    # -- running ------------------------------------------------------------
    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        heap = self._heap
        live = self._slab_live
        while heap:
            time_, _priority, _seq, slot = heappop(heap)
            if not live[slot]:
                self._tombstones -= 1
                self._free_slot(slot)
                continue
            callback = self._slab_callback[slot]
            self._free_slot(slot)
            self._now = time_
            self._events_processed += 1
            callback()
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Drain the event queue; same contract as the reference loop."""
        executed = 0
        heap = self._heap
        live = self._slab_live
        callbacks = self._slab_callback
        pop = heappop
        while heap:
            head = heap[0]
            slot = head[3]
            if not live[slot]:
                pop(heap)
                self._tombstones -= 1
                self._free_slot(slot)
                continue
            if until is not None and head[0] > until:
                break
            if max_events is not None and executed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            pop(heap)
            callback = callbacks[slot]
            self._free_slot(slot)
            self._now = head[0]
            self._events_processed += 1
            callback()
            executed += 1
        if until is not None and until > self._now:
            self._now = until
        return executed
