"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (AllOf, Event, Process, Resource, SimulationError,
                       Simulator, Timeout)


def test_empty_run_returns_zero():
    sim = Simulator()
    assert sim.run() == 0.0


def test_schedule_order_is_time_then_fifo():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, "b")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(5.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 5.0


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(10.0)
        yield sim.timeout(2.5)
        return sim.now

    result = sim.run_process(sim.spawn(proc()))
    assert result == 12.5


def test_yield_bare_number_is_timeout():
    sim = Simulator()

    def proc():
        yield 7
        return sim.now

    assert sim.run_process(sim.spawn(proc())) == 7.0


def test_event_wakes_waiter_with_value():
    sim = Simulator()
    gate = sim.event("gate")
    results = []

    def waiter():
        value = yield gate
        results.append((sim.now, value))

    def firer():
        yield sim.timeout(3.0)
        gate.succeed("hello")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert results == [(3.0, "hello")]


def test_event_double_succeed_raises():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_event_callback_after_trigger_still_fires():
    sim = Simulator()
    event = sim.event()
    event.succeed(42)
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == [42]


def test_process_join_returns_value():
    sim = Simulator()

    def child():
        yield sim.timeout(4.0)
        return "done"

    def parent():
        value = yield sim.spawn(child())
        return (sim.now, value)

    assert sim.run_process(sim.spawn(parent())) == (4.0, "done")


def test_all_of_waits_for_every_child():
    sim = Simulator()
    events = [sim.event(str(i)) for i in range(3)]

    def firer(i):
        yield sim.timeout(float(i + 1))
        events[i].succeed(i * 10)

    def waiter():
        values = yield sim.all_of(events)
        return (sim.now, values)

    for i in range(3):
        sim.spawn(firer(i))
    result = sim.run_process(sim.spawn(waiter()))
    assert result == (3.0, [0, 10, 20])


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def waiter():
        values = yield sim.all_of([])
        return values

    assert sim.run_process(sim.spawn(waiter())) == []


def test_yield_list_waits_for_all():
    sim = Simulator()

    def waiter():
        yield [sim.timeout(2.0), sim.timeout(5.0)]
        return sim.now

    assert sim.run_process(sim.spawn(waiter())) == 5.0


def test_process_yielding_garbage_raises():
    sim = Simulator()

    def proc():
        yield "nonsense"

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, seen.append, "late")
    sim.run(until=5.0)
    assert seen == []
    assert sim.now == 5.0


def test_deadlock_detected_by_run_process():
    sim = Simulator()

    def stuck():
        yield sim.event("never")

    with pytest.raises(SimulationError, match="did not finish"):
        sim.run_process(sim.spawn(stuck()))


def test_condition_notify_all():
    sim = Simulator()
    cond = sim.condition()
    woken = []

    def waiter(i):
        yield cond.wait()
        woken.append((i, sim.now))

    def notifier():
        yield sim.timeout(2.0)
        cond.notify_all()

    for i in range(3):
        sim.spawn(waiter(i))
    sim.spawn(notifier())
    sim.run()
    assert sorted(woken) == [(0, 2.0), (1, 2.0), (2, 2.0)]


class TestResource:
    def test_fifo_mutual_exclusion(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1, name="cpu")
        order = []

        def user(i, hold):
            yield resource.request()
            order.append((i, sim.now))
            yield sim.timeout(hold)
            resource.release()

        for i in range(3):
            sim.spawn(user(i, 10.0))
        sim.run()
        assert order == [(0, 0.0), (1, 10.0), (2, 20.0)]
        assert resource.total_waits == 2
        assert resource.total_wait_cycles == 30.0

    def test_capacity_two_allows_parallelism(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        starts = []

        def user(i):
            yield resource.request()
            starts.append((i, sim.now))
            yield sim.timeout(10.0)
            resource.release()

        for i in range(3):
            sim.spawn(user(i))
        sim.run()
        assert starts == [(0, 0.0), (1, 0.0), (2, 10.0)]

    def test_release_idle_raises(self):
        sim = Simulator()
        resource = Resource(sim)
        with pytest.raises(RuntimeError):
            resource.release()


class TestObsCounterBatching:
    """The dispatch loop batches event counters locally and folds
    them into the metrics registry once per run — exactly once, and in
    the same order, whichever wrapper drives it."""

    @staticmethod
    def _observed_sim():
        from repro.obs import Observability
        sim = Simulator()
        obs = Observability()
        sim.attach_obs(obs)
        events = obs.registry.get("sim.events_dispatched_total")
        return sim, events

    def test_run_flushes_batched_counter_once(self):
        sim, events = self._observed_sim()
        for i in range(7):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 7
        assert events.labels().value == 7

    def test_step_and_run_agree_on_event_count(self):
        sim, events = self._observed_sim()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.step()
        sim.run()
        assert not sim.step()        # empty queue: no count movement
        assert sim.processed_events == 2
        assert events.labels().value == 2

    def test_counters_survive_raising_callback(self):
        sim, events = self._observed_sim()
        sim.schedule(1.0, lambda: None)

        def boom():
            raise RuntimeError("callback failure")

        sim.schedule(2.0, boom)
        with pytest.raises(RuntimeError, match="callback failure"):
            sim.run()
        # The locally-batched count still reached the registry: the
        # event that completed is recorded (the raiser, whose
        # callback never finished, is not — same as step()).
        assert sim.processed_events == 1
        assert events.labels().value == 1

    # A clock so large that adding 1.0 rounds away: a positive-delay
    # schedule there lands on the heap due exactly at ``now``.
    FAR = 2.0 ** 53

    @classmethod
    def _program(cls, sim):
        """Zero-delay events, timed events, a heap entry due at
        ``now``, an event and a process to stop on.  Returns the
        callback log, the event and the process."""
        log = []
        milestone = sim.event("milestone")

        def note(name, *then):
            def callback():
                log.append((name, sim.now))
                for delay, child in then:
                    sim.schedule(delay, child)
            return callback

        def far():
            log.append(("far", sim.now))
            sim.schedule(0.0, note("far-ready-1"))
            sim.schedule(1.0, note("far-heap-at-now"))
            sim.schedule(0.0, note("far-ready-2"))
            milestone.succeed()

        def worker():
            for delay in (0, 1.5, 0.0, 2.0):
                yield delay
                log.append(("worker", sim.now))
            yield sim.timeout(0.5)
            log.append(("worker-done", sim.now))
            return "done"

        sim.schedule(0.0, note("a", (0.0, note("a-child")),
                               (1.0, note("a-timed"))))
        sim.schedule(0.0, note("b"))
        sim.schedule(1.0, note("t1", (0.0, note("t1-child"))))
        sim.schedule(2.0, note("t2a"))
        sim.schedule(2.0, note("t2b", (3.0, note("t5"))))
        sim.schedule(cls.FAR, far)
        sim.schedule(cls.FAR + 2.0 ** 12, note("after-far"))
        process = sim.spawn(worker())
        milestone.add_callback(lambda _event: log.append(
            ("milestone-cb", sim.now)))
        return log, milestone, process

    @classmethod
    def _drive(cls, how):
        sim, events = cls._observed_sim()
        log, milestone, process = cls._program(sim)
        if how == "run":
            sim.run()
        elif how == "run-until-time":
            for bound in (0.0, 0.5, 1.0, 1.5, 2.0, 4.0, cls.FAR,
                          cls.FAR + 1.0):
                sim.run(until=bound)
                # Everything due at or before the bound ran; nothing
                # later did.
                assert log[-1][1] <= bound
                assert sim._queue[0][0] > bound and not sim._ready
            sim.run()
        elif how == "run-until-event":
            sim.run_until(milestone)
            assert milestone.triggered
            sim.run()
        elif how == "run-process":
            assert sim.run_process(process) == "done"
            sim.run()
        elif how == "max-events":
            while sim.pending:
                sim.run(max_events=3)
        elif how == "step":
            while sim.step():
                pass
        depth = sim._obs_queue_depth.value
        return (log, sim.now, sim.processed_events,
                events.labels().value, depth)

    @pytest.mark.parametrize("how", [
        "run-until-time", "run-until-event", "run-process",
        "max-events", "step"])
    def test_wrappers_dispatch_in_order(self, how):
        reference = self._drive("run")
        log, now, processed, counted, depth = reference
        names = [name for name, _ in log]
        # The heap entry due at ``now`` runs between the ready events
        # scheduled around it, in sequence order.
        assert names.index("far-ready-1") < names.index(
            "far-heap-at-now") < names.index("far-ready-2")
        assert dict(log)["far-heap-at-now"] == self.FAR
        assert now == self.FAR + 2.0 ** 12
        assert processed == counted > len(log)
        assert depth > 1
        assert self._drive(how) == reference


def test_yield_bare_float_is_timeout():
    sim = Simulator()

    def proc():
        yield 2.5
        return sim.now

    assert sim.run_process(sim.spawn(proc())) == 2.5


def test_determinism_same_program_same_times():
    def build():
        sim = Simulator()
        trace = []

        def proc(i):
            yield sim.timeout(float(i))
            trace.append((i, sim.now))
            yield sim.timeout(2.0)
            trace.append((i, sim.now))

        for i in range(5):
            sim.spawn(proc(i))
        sim.run()
        return trace

    assert build() == build()


def test_process_pause_defers_resumes_until_unpause():
    """A paused process (a crashed node's frozen worker) banks every
    resume that lands during the freeze and replays them, in order,
    when unpaused — the continuation itself never observes the gap."""
    sim = Simulator()
    log = []

    def worker():
        yield 10
        log.append(("a", sim.now))
        yield 10
        log.append(("b", sim.now))

    process = sim.spawn(worker())
    sim.schedule(5, process.pause)     # freeze before the t=10 resume
    sim.schedule(50, process.unpause)  # thaw: deferred resume replays
    sim.run()
    assert log == [("a", 50), ("b", 60)]


def test_process_unpause_without_deferred_resumes_is_harmless():
    sim = Simulator()
    log = []

    def worker():
        yield 100
        log.append(sim.now)

    process = sim.spawn(worker())
    sim.schedule(5, process.pause)
    sim.schedule(6, process.unpause)   # nothing was deferred yet
    sim.run()
    assert log == [100]
