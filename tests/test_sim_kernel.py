"""Tests for the event-driven simulation kernel."""

import pytest

from repro.sim.kernel import Event, Simulator, SimulationError


def test_simple_delay():
    sim = Simulator()
    log = []

    def proc():
        yield 5
        log.append(sim.now)
        yield 3
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [5, 8]


def test_fifo_order_same_cycle():
    sim = Simulator()
    order = []

    def make(name):
        def proc():
            yield 10
            order.append(name)
        return proc

    for name in "abc":
        sim.process(make(name)())
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_wakes_waiters():
    sim = Simulator()
    gate = sim.event("gate")
    log = []

    def waiter():
        payload = yield gate
        log.append((sim.now, payload))

    def firer():
        yield 7
        gate.fire("go")

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert log == [(7, "go")]


def test_fired_event_wakes_late_waiter_immediately():
    sim = Simulator()
    gate = sim.event()
    gate.fire(123)
    log = []

    def late():
        yield 4
        value = yield gate
        log.append((sim.now, value))

    sim.process(late())
    sim.run()
    assert log == [(4, 123)]


def test_event_reset_allows_refire():
    sim = Simulator()
    gate = sim.event()
    gate.fire()
    gate.reset()
    assert not gate.fired
    gate.fire("again")
    assert gate.payload == "again"


def test_event_reset_with_waiters_rejected():
    sim = Simulator()
    gate = sim.event()

    def waiter():
        yield gate

    sim.process(waiter())
    sim.run(until=0)
    with pytest.raises(SimulationError):
        gate.reset()


def test_wait_for_process_result():
    sim = Simulator()

    def child():
        yield 9
        return "done"

    def parent():
        result = yield sim.process(child())
        return (sim.now, result)

    assert sim.run_process(parent()) == (9, "done")


def test_negative_delay_rejected():
    sim = Simulator()

    def bad():
        yield -1

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_bool_yield_rejected():
    sim = Simulator()

    def bad():
        yield True

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_unsupported_yield_rejected():
    sim = Simulator()

    def bad():
        yield "nope"

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_pauses_clock():
    sim = Simulator()

    def proc():
        yield 100

    sim.process(proc())
    sim.run(until=40)
    assert sim.now == 40
    sim.run()
    assert sim.now == 100


def test_all_of_waits_for_every_event():
    sim = Simulator()
    events = [sim.event(f"e{i}") for i in range(3)]
    combined = sim.all_of(events)
    log = []

    def waiter():
        yield combined
        log.append(sim.now)

    def firer():
        for i, event in enumerate(events):
            yield 10
            event.fire()

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert log == [30]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    assert sim.all_of([]).fired


def test_exceptions_propagate():
    sim = Simulator()

    def bad():
        yield 1
        raise RuntimeError("boom")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_livelock_guard():
    sim = Simulator()

    def spinner():
        while True:
            yield 0

    sim.process(spinner())
    with pytest.raises(SimulationError, match="livelock"):
        sim.run(max_events=1000)


def test_run_process_detects_deadlock():
    sim = Simulator()
    never = sim.event()

    def stuck():
        yield never

    with pytest.raises(SimulationError, match="did not finish"):
        sim.run_process(stuck())


def test_determinism_across_runs():
    def build():
        sim = Simulator()
        trace = []

        def worker(name, delays):
            for d in delays:
                yield d
                trace.append((sim.now, name))

        sim.process(worker("a", [3, 3, 3]))
        sim.process(worker("b", [2, 4, 3]))
        sim.run()
        return trace

    assert build() == build()


def test_timeout_call():
    sim = Simulator()
    fired = []
    sim.timeout_call(15, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [15]


class TestFastForwardOrdering:
    """The same-cycle ready FIFO and single-runnable fast path must keep
    the documented FIFO determinism of the event loop."""

    def test_heap_entries_run_before_same_cycle_wakeups(self):
        # B was scheduled for cycle 5 in the past (heap); A is woken at
        # cycle 5 by an event fired during cycle 5 (ready FIFO).  B's
        # schedule predates A's wakeup, so B must step first.
        sim = Simulator()
        order = []
        gate = sim.event("gate")

        def firer():
            yield 5
            order.append("firer")
            gate.fire()

        def waiter():
            yield gate
            order.append("waiter")

        def sleeper():
            yield 5
            order.append("sleeper")

        sim.process(waiter(), name="waiter")
        sim.process(firer(), name="firer")
        sim.process(sleeper(), name="sleeper")
        sim.run()
        assert order == ["firer", "sleeper", "waiter"]

    def test_zero_delay_wakeups_preserve_fifo_order(self):
        sim = Simulator()
        order = []
        event = sim.event("e")

        def waiter(tag):
            yield event
            order.append(tag)

        for tag in range(5):
            sim.process(waiter(tag), name=f"w{tag}")
        sim.run()
        order.clear()
        event.fire()
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_single_process_advances_clock_correctly(self):
        sim = Simulator()
        seen = []

        def stepper():
            for _ in range(1000):
                yield 3
            seen.append(sim.now)

        sim.process(stepper(), name="stepper")
        sim.run()
        assert seen == [3000]
        assert sim.now == 3000

    def test_zero_delay_livelock_still_guarded(self):
        sim = Simulator()

        def spinner():
            while True:
                yield 0

        sim.process(spinner(), name="spinner")
        with pytest.raises(SimulationError, match="livelock"):
            sim.run(max_events=1000)

    def test_run_until_with_pending_ready_items(self):
        sim = Simulator()
        log = []

        def ticker():
            while True:
                log.append(sim.now)
                yield 10

        sim.process(ticker(), name="ticker")
        assert sim.run(until=25) == 25
        assert log == [0, 10, 20]
        assert sim.run(until=45) == 45
        assert log == [0, 10, 20, 30, 40]


class TestInlineAdvance:
    """``Simulator.advance`` skips a suspension only when the event loop
    would have resumed the caller next anyway, so any process mix must
    produce the identical ``(now, process, value)`` trace either way."""

    @staticmethod
    def _script(rng, index, n_events, length=12):
        actions = []
        for _ in range(length):
            kind = rng.choice(["delay", "delay", "delay", "wait", "fire", "join"])
            if kind == "delay":
                actions.append(("delay", int(rng.choice([0, 1, 2, 3, 5, 8, 13]))))
            elif kind == "join" and index > 0:
                actions.append(("join", int(rng.integers(0, index))))
            elif kind == "fire":
                actions.append(("fire", int(rng.integers(0, n_events)),
                                int(rng.integers(0, 100))))
            else:
                actions.append(("wait", int(rng.integers(0, n_events))))
        return actions

    @staticmethod
    def _run(scripts, n_events, use_advance, stops):
        sim = Simulator()
        events = [sim.event(f"e{i}") for i in range(n_events)]
        processes = []
        trace = []
        inline = [0]

        def body(name, actions):
            for step, action in enumerate(actions):
                kind = action[0]
                if kind == "delay":
                    if use_advance and sim.advance(action[1]):
                        inline[0] += 1
                    else:
                        yield action[1]
                    value = action[1]
                elif kind == "wait":
                    value = yield events[action[1]]
                elif kind == "join":
                    value = yield processes[action[1]]
                else:
                    events[action[1]].fire(action[2])
                    value = action[2]
                trace.append((sim.now, name, step, value))
            return name

        for index, actions in enumerate(scripts):
            processes.append(sim.process(body(f"p{index}", actions), name=f"p{index}"))
        for stop in stops:
            trace.append(("until", sim.run(until=stop)))
        trace.append(("end", sim.run()))
        return trace, inline[0]

    @pytest.mark.parametrize("seed", range(25))
    def test_random_process_mix_matches_plain_yields(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        n_events = 3
        scripts = [
            self._script(rng, index, n_events)
            for index in range(int(rng.integers(1, 6)))
        ]
        stops = sorted(int(t) for t in rng.integers(0, 60, int(rng.integers(0, 4))))
        plain, _ = self._run(scripts, n_events, False, stops)
        fast, _ = self._run(scripts, n_events, True, stops)
        assert fast == plain

    def test_advance_actually_fires_for_a_lone_process(self):
        trace_plain, _ = self._run([[("delay", 3)] * 5], 1, False, [7])
        trace_fast, inline = self._run([[("delay", 3)] * 5], 1, True, [7])
        assert trace_fast == trace_plain
        # 0 -> 3 -> 6 inline; 9 would pass until=7, then 12, 15 inline
        assert inline == 4

    def test_advance_is_refused_outside_run(self):
        sim = Simulator()
        assert sim.advance(5) is False
        assert sim.now == 0

    def test_advance_refuses_when_another_entry_is_due_first_or_tied(self):
        sim = Simulator()
        results = []

        def other():
            yield 10

        def caller():
            results.append(sim.advance(10))  # tie with other's wake-up
            results.append(sim.advance(9))
            results.append(sim.advance(1))  # now 9 + 1 == other's 10
            yield 0

        sim.process(other(), name="other")
        sim.process(caller(), name="caller")
        sim.run()
        assert results == [False, True, False]
