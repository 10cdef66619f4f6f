"""Tests for the discrete-event simulation kernel."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.sim import ManualClock, PeriodicTimer, Simulator
from repro.sim.simulator import _COMPACT_MIN_TOMBSTONES


class TestManualClock:
    def test_advance(self):
        clock = ManualClock()
        clock.advance(5.0)
        assert clock.now() == 5.0

    def test_set_forward_only(self):
        clock = ManualClock(10.0)
        clock.set(12.0)
        assert clock.now() == 12.0
        with pytest.raises(ValueError):
            clock.set(1.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.at(5.0, lambda: log.append("b"))
        sim.at(1.0, lambda: log.append("a"))
        sim.at(9.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_run_fifo(self):
        sim = Simulator()
        log = []
        for name in "xyz":
            sim.at(3.0, lambda n=name: log.append(n))
        sim.run()
        assert log == ["x", "y", "z"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.at(7.5, lambda: None)
        sim.run()
        assert sim.now() == 7.5

    def test_after_is_relative(self):
        sim = Simulator(start=100.0)
        seen = []
        sim.after(3.0, lambda: seen.append(sim.now()))
        sim.run()
        assert seen == [103.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator(start=10.0)
        with pytest.raises(SimulationError):
            sim.at(5.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)

    def test_non_finite_times_rejected(self):
        """NaN and +/-inf never reach the heap: one NaN would silently
        reorder the events around it (2, 3, 4, 1, NaN, 5)."""
        sim = Simulator()
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
        assert sim.pending == 0

    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        log = []
        sim.at(1.0, lambda: log.append(1))
        sim.at(10.0, lambda: log.append(10))
        sim.run(until=5.0)
        assert log == [1]
        assert sim.now() == 5.0
        sim.run()
        assert log == [1, 10]

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        log = []
        event = sim.at(1.0, lambda: log.append("no"))
        event.cancel()
        sim.at(2.0, lambda: log.append("yes"))
        sim.run()
        assert log == ["yes"]

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        log = []

        def chain():
            log.append(sim.now())
            if sim.now() < 3:
                sim.after(1.0, chain)

        sim.after(1.0, chain)
        sim.run()
        assert log == [1.0, 2.0, 3.0]

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.after(0.0, forever)

        sim.after(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_max_events_counts_executed_callbacks_only(self):
        # Regression: cancelled events — skipped by run()'s loop or popped
        # inside step() — must not consume the max_events budget.
        sim = Simulator()
        ran = []
        for i in range(4):
            sim.at(float(i), lambda i=i: ran.append(i))
        cancelled = [sim.at(float(i) + 0.5, lambda: ran.append(-1)) for i in range(4)]
        for event in cancelled:
            event.cancel()
        executed = sim.run(max_events=4)  # exactly as many as real callbacks
        assert executed == 4
        assert ran == [0, 1, 2, 3]

    def test_max_events_budget_unaffected_by_mid_run_cancellation(self):
        sim = Simulator()
        ran = []
        later = sim.at(2.0, lambda: ran.append("later"))
        # The first callback cancels a pending event; the tombstone must
        # not count against the remaining budget.
        sim.at(1.0, lambda: (ran.append("first"), later.cancel()))
        sim.at(3.0, lambda: ran.append("last"))
        executed = sim.run(max_events=2)
        assert executed == 2
        assert ran == ["first", "last"]

    def test_run_returns_executed_count(self):
        sim = Simulator()
        for i in range(3):
            sim.at(float(i), lambda: None)
        assert sim.run() == 3
        assert sim.run() == 0  # empty queue

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestHeapCompaction:
    """Tombstone accounting and amortized compaction must be invisible:
    execution order, clocks, and counters behave exactly as if every
    cancelled event were lazily skipped."""

    @staticmethod
    def _random_schedule(seed: int, num_events: int, cancel_fraction: float):
        """Schedule events at random times, cancel a random subset.

        Returns (sim, expected execution log sorted by (time, seq)).
        """
        rng = random.Random(seed)
        sim = Simulator()
        log = []
        events = []
        for i in range(num_events):
            t = rng.uniform(0.0, 1000.0)
            events.append((t, i, sim.at(t, lambda i=i: log.append(i))))
        cancelled = set()
        for t, i, event in events:
            if rng.random() < cancel_fraction:
                event.cancel()
                cancelled.add(i)
        expected = [
            i for t, i, _ in sorted(events, key=lambda e: (e[0], e[1]))
            if i not in cancelled
        ]
        return sim, log, expected, cancelled

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_events=st.integers(min_value=1, max_value=400),
        cancel_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_execution_order_preserved(self, seed, num_events, cancel_fraction):
        sim, log, expected, cancelled = self._random_schedule(
            seed, num_events, cancel_fraction
        )
        executed = sim.run()
        assert log == expected
        assert executed == len(expected)
        assert sim.events_processed == len(expected)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_determinism_under_cancellation(self, seed):
        def run_once():
            sim, log, _, _ = self._random_schedule(seed, 300, 0.6)
            sim.run()
            return log

        assert run_once() == run_once()

    def test_pending_excludes_tombstones(self):
        sim = Simulator()
        events = [sim.at(float(i), lambda: None) for i in range(10)]
        assert sim.pending == 10
        for event in events[:4]:
            event.cancel()
        assert sim.pending == 6
        assert sim.heap_size == 10  # tombstones still physically queued
        assert sim.events_cancelled == 4
        sim.run()
        assert sim.pending == 0
        assert sim.events_processed == 6

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.at(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.events_cancelled == 1
        assert sim.pending == 0

    def test_cancel_after_execution_does_not_skew_counts(self):
        sim = Simulator()
        event = sim.at(1.0, lambda: None)
        sim.run()
        event.cancel()  # too late; event already left the heap
        assert sim.pending == 0
        assert sim.events_cancelled == 0

    def test_compaction_triggers_and_preserves_results(self):
        # Far more tombstones than live events forces a compaction pass;
        # the surviving schedule must be untouched.
        sim = Simulator()
        log = []
        keep = [sim.at(float(i), lambda i=i: log.append(i)) for i in range(5)]
        doomed = [
            sim.at(1000.0 + i, lambda: log.append(-1))
            for i in range(3 * _COMPACT_MIN_TOMBSTONES)
        ]
        for event in doomed:
            event.cancel()
        assert sim.heap_compactions >= 1
        assert sim.heap_size < len(keep) + len(doomed)
        assert sim.pending == len(keep)
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_interleaved_cancel_and_schedule_from_callbacks(self, seed):
        """Callbacks that cancel other events and schedule new ones mid-run
        keep counters consistent whether or not compaction fires."""
        rng = random.Random(seed)
        sim = Simulator()
        log = []
        pending_events = []

        def act(i):
            log.append(i)
            if pending_events and rng.random() < 0.7:
                pending_events.pop(rng.randrange(len(pending_events))).cancel()
            if rng.random() < 0.5:
                j = len(log) * 1000 + i
                pending_events.append(
                    sim.after(rng.uniform(0.1, 10.0), lambda j=j: log.append(j))
                )

        for i in range(150):
            pending_events.append(
                sim.at(rng.uniform(0.0, 100.0), lambda i=i: act(i))
            )
        executed = sim.run(max_events=10_000)
        assert sim.pending == 0
        assert sim.events_processed == executed == len(log)


class TestPeriodicTimer:
    def test_fires_every_interval(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, 10.0, lambda: ticks.append(sim.now()))
        sim.run(until=35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_stop_prevents_future_fires(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 5.0, lambda: ticks.append(sim.now()))
        sim.run(until=12.0)
        timer.stop()
        sim.run(until=100.0)
        assert ticks == [5.0, 10.0]
        assert timer.stopped

    def test_start_delay(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, 10.0, lambda: ticks.append(sim.now()), start_delay=1.0)
        sim.run(until=22.0)
        assert ticks == [1.0, 11.0, 21.0]

    def test_invalid_interval(self):
        with pytest.raises(SimulationError):
            PeriodicTimer(Simulator(), 0.0, lambda: None)

    def test_stop_from_within_callback(self):
        sim = Simulator()
        ticks = []
        holder = {}

        def tick():
            ticks.append(sim.now())
            if len(ticks) == 2:
                holder["t"].stop()

        holder["t"] = PeriodicTimer(sim, 1.0, tick)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
