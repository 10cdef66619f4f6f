"""Unit tests for the slab-allocated fast simulator core.

The contract under test: :class:`FastSimulator` executes the same events
in the same order with the same diagnostic counters as the reference
:class:`Simulator`, while recycling event storage through a slab + free
list instead of allocating one object per event.
"""

import pytest

from repro.common.errors import SimulationError
from repro.sim.fastsim import _SLAB_CHUNK, FastEvent, FastSimulator
from repro.sim.simulator import PeriodicTimer, Simulator


class TestOrderingEquivalence:
    def test_same_order_as_reference(self):
        """A mixed schedule (ties, priorities, cancellations) fires in
        the identical sequence on both simulators."""
        schedule = [
            (5.0, 0),
            (1.0, 0),
            (5.0, -1),  # pumped-stream priority beats same-time default
            (3.0, 0),
            (5.0, 0),  # same (time, priority): seq breaks the tie
            (2.0, 1),
            (2.0, 0),
        ]
        logs = {}
        for cls in (Simulator, FastSimulator):
            sim = cls()
            log = logs.setdefault(cls.__name__, [])
            for i, (t, prio) in enumerate(schedule):
                sim.at(t, lambda i=i: log.append(i), priority=prio)
            sim.run()
        assert logs["Simulator"] == logs["FastSimulator"]

    def test_nested_scheduling_matches(self):
        """Events scheduled from inside callbacks keep the seq order."""
        logs = {}
        for cls in (Simulator, FastSimulator):
            sim = cls()
            log = logs.setdefault(cls.__name__, [])

            def chain(depth, sim=sim, log=log):
                log.append(depth)
                if depth < 5:
                    sim.after(0.0, lambda: chain(depth + 1))

            sim.at(1.0, lambda: chain(0))
            sim.at(1.0, lambda: log.append("sibling"))
            sim.run()
        assert logs["Simulator"] == logs["FastSimulator"]

    def test_past_scheduling_rejected(self):
        sim = FastSimulator(start=10.0)
        with pytest.raises(SimulationError):
            sim.at(9.0, lambda: None)

    def test_non_finite_times_rejected(self):
        """NaN and +/-inf are refused before they take a slab slot."""
        sim = FastSimulator()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError):
                sim.at(bad, lambda: None)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                sim.after(bad, lambda: None)
        log = []
        for t in (2.0, 3.0, 4.0, 1.0, 5.0):
            sim.at(t, lambda t=t: log.append(t))
        sim.run()
        assert log == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert sim.stats()["slab_free"] == sim.stats()["slab_capacity"]

    def test_run_until_and_max_events(self):
        sim = FastSimulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.at(t, lambda t=t: fired.append(t))
        assert sim.run(until=2.0) == 2
        assert fired == [1.0, 2.0]
        assert sim.now() == 2.0
        with pytest.raises(SimulationError):
            sim.run(max_events=0)


class TestSlab:
    def test_slot_recycling_bounds_capacity(self):
        """Sequential schedule/fire cycles reuse one slab chunk."""
        sim = FastSimulator()
        for i in range(3 * _SLAB_CHUNK):
            sim.at(float(i), lambda: None)
            sim.run(until=float(i))
        assert sim.slab_capacity == _SLAB_CHUNK
        assert sim.events_processed == 3 * _SLAB_CHUNK

    def test_slab_grows_with_concurrent_events(self):
        sim = FastSimulator()
        n = _SLAB_CHUNK + 1
        for i in range(n):
            sim.at(float(i), lambda: None)
        # One chunk was not enough for n concurrently queued events.
        assert sim.slab_capacity >= n
        capacity = sim.slab_capacity
        sim.run()
        # Draining frees every slot; scheduling again reuses them.
        for i in range(n):
            sim.after(1.0, lambda: None)
        assert sim.slab_capacity == capacity

    def test_generation_guard_protects_reused_slot(self):
        """cancel() on an already-fired handle must not kill the new
        occupant of its recycled slot."""
        sim = FastSimulator()
        fired = []
        first = sim.at(1.0, lambda: fired.append("first"))
        sim.run(until=1.0)
        # The slot is free now; the next event takes it over.
        second = sim.at(2.0, lambda: fired.append("second"))
        assert second._slot == first._slot
        first.cancel()  # stale handle: generation mismatch, no-op
        sim.run()
        assert fired == ["first", "second"]
        assert sim.events_cancelled == 0

    def test_cancel_is_idempotent(self):
        sim = FastSimulator()
        event = sim.at(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.events_cancelled == 1
        assert sim.pending == 0
        sim.run()
        assert sim.events_processed == 0

    def test_handle_surface_matches_reference_event(self):
        sim = FastSimulator()
        event = sim.at(4.5, lambda: None)
        assert isinstance(event, FastEvent)
        assert event.time == 4.5
        assert event.cancelled is False
        event.cancel()
        assert event.cancelled is True


class TestCompaction:
    def test_compaction_parity_with_reference(self):
        """Mass cancellation triggers identical tombstone/compaction
        accounting on both engines."""
        counters = {}
        for cls in (Simulator, FastSimulator):
            sim = cls()
            events = [sim.at(float(i + 1), lambda: None) for i in range(300)]
            # Cancelling two thirds crosses the 2 x tombstones > heap
            # compaction threshold partway through.
            for event in events[:200]:
                event.cancel()
            counters[cls.__name__] = (
                sim.events_cancelled,
                sim.heap_compactions,
                sim.pending,
                sim.heap_size,
            )
            sim.run()
            counters[cls.__name__] += (sim.events_processed,)
        assert counters["Simulator"] == counters["FastSimulator"]
        assert counters["FastSimulator"][1] >= 1  # compaction did fire

    def test_compaction_frees_tombstone_slots(self):
        sim = FastSimulator()
        events = [sim.at(float(i + 1), lambda: None) for i in range(200)]
        for event in events:
            event.cancel()
        assert sim.heap_compactions >= 1
        assert sim.pending == 0
        # All slots are reusable: a fresh burst fits without growth.
        capacity = sim.slab_capacity
        for i in range(200):
            sim.after(1.0, lambda: None)
        assert sim.slab_capacity == capacity


class TestTimers:
    def test_periodic_timer_stop_during_fire(self):
        """Stopping a timer from its own callback must not cancel the
        event that now occupies the recycled slot."""
        sim = FastSimulator()
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now()))

        def stopper():
            timer.stop()
            sim.after(0.5, lambda: fired.append("late"))

        sim.at(2.5, stopper)
        sim.run()
        assert fired == [1.0, 2.0, "late"]
        assert timer.stopped

    def test_periodic_timer_parity(self):
        ticks = {}
        for cls in (Simulator, FastSimulator):
            sim = cls()
            log = ticks.setdefault(cls.__name__, [])
            timer = PeriodicTimer(sim, 2.0, lambda: log.append(sim.now()))
            sim.at(7.0, timer.stop)
            sim.run()
        assert ticks["Simulator"] == ticks["FastSimulator"] == [2.0, 4.0, 6.0]
