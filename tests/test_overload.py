"""Overload resilience: bounded mailboxes, reaction deadlines, load
shedding, and adaptive fleet admission control (docs/resilience.md,
"Overload & backpressure").

The two load-bearing properties:

* **Coalescing preserves semantics** — pumping a coalescing mailbox
  produces exactly the trace of reacting once per merged input map
  (the oracle applies the same merge rule by hand), identically on all
  three reaction backends.  Merging input maps mirrors within-instant
  multi-emission combining, so a flattened burst is a *legal* HipHop
  instant, not an approximation.
* **Budget aborts are recoverable** — a reaction that trips its
  net-evaluation deadline is rolled back by the supervisor to a
  byte-identical pre-instant snapshot, exactly like any other failed
  instant.
"""

from functools import reduce

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    MachineError,
    MachineFleet,
    MachineSupervisor,
    Mailbox,
    OverloadError,
    ReactionBudgetExceeded,
    ReactiveMachine,
    TokenBucket,
    parse_module,
)
from repro.host import CircuitBreaker, LoadGenerator, SimulatedLoop
from repro.runtime.fleet import FleetIngress
from repro.runtime.ingress import (
    ADMITTED,
    COALESCED,
    DROPPED_OLDEST,
    RATE_LIMITED,
    LatencyEwma,
    merge_inputs,
)
from repro.runtime.recovery import FleetSupervisor
from tests.strategies import bursty_schedules

BACKENDS = ("worklist", "levelized", "sparse")

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

# A module exercising every coalescing shape: a combined valued input
# (burst values must add, not overwrite), a plain valued input
# (last-wins), and a pure input (presence only).
ACC_SOURCE = """
module Acc(in add combine plus, in set, in ping,
           out total = 0, out latest, out pings = 0) {
  loop {
    if (add.now) { emit total(total.preval + add.nowval) }
    if (set.now) { emit latest(set.nowval) }
    if (ping.now) { emit pings(pings.preval + 1) }
    yield
  }
}
"""

HOST = {"plus": lambda a, b: a + b}


def _acc(backend="worklist", **kwargs):
    return ReactiveMachine(
        parse_module(ACC_SOURCE), host_globals=HOST, backend=backend, **kwargs
    )


def _observe(machine, result):
    iface = sorted(machine.compiled.circuit.interface)
    signals = tuple(
        (name, view.now, view.pre, view.nowval, view.preval)
        for name in iface
        for view in (machine.signal(name),)
    )
    return (dict(result), dict(result.statuses), signals, result.paused)


# ---------------------------------------------------------------------------
# merge rule
# ---------------------------------------------------------------------------


class TestMergeInputs:
    def test_combine_merges_values(self):
        merged = merge_inputs({"add": 2}, {"add": 3}, {"add": HOST["plus"]})
        assert merged == {"add": 5}

    def test_plain_valued_last_wins(self):
        assert merge_inputs({"set": "a"}, {"set": "b"}) == {"set": "b"}

    def test_pure_presence_stays_true(self):
        assert merge_inputs({"ping": True}, {"ping": True}, {"ping": HOST["plus"]}) == {
            "ping": True
        }

    def test_union_of_presence(self):
        merged = merge_inputs({"add": 1}, {"set": "x"}, {"add": HOST["plus"]})
        assert merged == {"add": 1, "set": "x"}


# ---------------------------------------------------------------------------
# mailbox policies and accounting
# ---------------------------------------------------------------------------


class TestMailbox:
    def test_validates_capacity_and_policy(self):
        with pytest.raises(ValueError):
            Mailbox(capacity=0)
        with pytest.raises(MachineError):
            Mailbox(policy="nope")

    def test_admits_until_capacity(self):
        mb = Mailbox(capacity=2, policy="coalesce")
        assert mb.offer({"a": 1}) == ADMITTED
        assert mb.offer({"a": 2}) == ADMITTED
        assert mb.offer({"a": 3}) == COALESCED
        assert mb.pending == 2
        mb.check_accounting()

    def test_coalesce_merges_into_newest(self):
        mb = Mailbox(capacity=1, policy="coalesce", combines={"add": HOST["plus"]})
        mb.offer({"add": 1})
        mb.offer({"add": 2})
        mb.offer({"add": 4, "set": "x"})
        assert mb.take() == {"add": 7, "set": "x"}
        assert mb.stats["coalesced"] == 2
        mb.check_accounting()

    def test_drop_oldest_evicts_head(self):
        mb = Mailbox(capacity=2, policy="drop-oldest")
        mb.offer({"n": 1})
        mb.offer({"n": 2})
        assert mb.offer({"n": 3}) == DROPPED_OLDEST
        assert mb.drain() == [{"n": 2}, {"n": 3}]
        assert mb.stats["dropped"] == 1 and mb.shed == 1
        mb.check_accounting()

    def test_reject_raises_recorded_overload(self):
        mb = Mailbox(capacity=1, policy="reject")
        mb.offer({"n": 1})
        with pytest.raises(OverloadError) as exc:
            mb.offer({"n": 2})
        assert exc.value.pending == 1 and exc.value.inputs == {"n": 2}
        assert mb.stats["rejected"] == 1 and mb.shed == 1
        mb.check_accounting()

    def test_collapse_merges_whole_backlog(self):
        mb = Mailbox(capacity=8, policy="coalesce", combines={"add": HOST["plus"]})
        for value in (1, 2, 4):
            mb.offer({"add": value})
        assert mb.collapse() == {"add": 7}
        assert mb.pending == 1
        mb.check_accounting()

    def test_collapse_empty_is_none(self):
        assert Mailbox().collapse() is None

    def test_for_machine_harvests_combines(self):
        machine = _acc()
        mb = Mailbox.for_machine(machine, capacity=1)
        mb.offer({"add": 1, "ping": True})
        mb.offer({"add": 2, "ping": True, "set": "x"})
        assert mb.take() == {"add": 3, "ping": True, "set": "x"}

    def test_take_empty_raises(self):
        with pytest.raises(MachineError):
            Mailbox().take()

    def test_accounting_invariant_random_traffic(self):
        import random

        rng = random.Random(7)
        for policy in ("coalesce", "drop-oldest", "reject"):
            mb = Mailbox(capacity=3, policy=policy, combines={"add": HOST["plus"]})
            for step in range(200):
                try:
                    mb.offer({"add": rng.randint(0, 5)})
                except OverloadError:
                    pass
                if rng.random() < 0.3 and mb.pending:
                    mb.take()
            mb.check_accounting()
            assert mb.stats["offered"] == 200


# ---------------------------------------------------------------------------
# semantics: coalesced bursts == one instant per merged map, all backends
# ---------------------------------------------------------------------------


class TestCoalescingSemantics:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pumped_burst_equals_merged_oracle(self, backend):
        burst = [{"add": 1, "ping": True}, {"add": 2, "set": "a"}, {"set": "b"}]
        machine = _acc(backend)
        mailbox = machine.attach_mailbox(capacity=1, policy="coalesce")
        for inputs in burst:
            machine.offer(inputs)
        [result] = machine.pump()

        oracle = _acc(backend)
        merged = reduce(
            lambda a, b: merge_inputs(a, b, mailbox.combines), burst
        )
        expected = oracle.react(merged)
        assert _observe(machine, result) == _observe(oracle, expected)
        assert result["total"] == 3 and result["latest"] == "b"

    @given(schedule=bursty_schedules(signals=("add", "set", "ping")))
    @settings(**_SETTINGS)
    def test_property_burst_trace_parity(self, schedule):
        # Group the schedule into its bursts (same timestamp = one burst).
        bursts = {}
        for at_ms, inputs in schedule:
            bursts.setdefault(at_ms, []).append(
                {k: (True if k == "ping" else v) for k, v in inputs.items()}
            )
        burst_list = [bursts[t] for t in sorted(bursts)]

        traces = []
        for backend in BACKENDS:
            machine = _acc(backend)
            mailbox = machine.attach_mailbox(capacity=1, policy="coalesce")
            oracle = _acc(backend)
            trace = []
            for burst in burst_list:
                for inputs in burst:
                    machine.offer(inputs)
                [result] = machine.pump()
                merged = reduce(
                    lambda a, b: merge_inputs(a, b, mailbox.combines), burst
                )
                expected = oracle.react(merged)
                assert _observe(machine, result) == _observe(oracle, expected)
                trace.append(_observe(machine, result))
            mailbox.check_accounting()
            traces.append(trace)
        assert traces[0] == traces[1] == traces[2]


# ---------------------------------------------------------------------------
# reaction deadlines
# ---------------------------------------------------------------------------


RUNAWAY_SOURCE = """
module Runaway(in go, in tick, out spin = 0) {
  loop {
    if (tick.now) { atom { requeue() } emit spin(spin.preval + 1) }
    yield
  }
}
"""


class TestReactionBudget:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tiny_budget_trips_every_backend(self, backend):
        machine = _acc(backend)
        with pytest.raises(ReactionBudgetExceeded) as exc:
            machine.react({"add": 1}, budget=1)
        assert exc.value.budget == 1 and exc.value.evaluated >= 1
        assert machine.health["budget_aborts"] == 1
        assert machine.health["failed_reactions"] == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_auto_budget_passes_normal_instants(self, backend):
        machine = _acc(backend, reaction_budget="auto")
        for step in range(20):
            machine.react({"add": 1})
        assert machine.health["budget_aborts"] == 0

    def test_budget_validation(self):
        machine = _acc()
        with pytest.raises(MachineError):
            machine.react({}, budget=0)
        with pytest.raises(MachineError):
            machine.react({}, budget=-3)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_runaway_deferred_chain_aborts(self, backend):
        """An atom that queues a reaction from within every instant spins
        the deferred-drain loop forever; the budget deadline is the only
        thing standing between that and a hung host loop."""
        module = parse_module(RUNAWAY_SOURCE)
        machine = ReactiveMachine(module, backend=backend)
        machine.host_globals["requeue"] = lambda: machine.queue_react({"tick": True})
        with pytest.raises(ReactionBudgetExceeded):
            machine.react({"tick": True}, budget="auto")
        assert machine.health["budget_aborts"] == 1

    def test_constructor_default_budget(self):
        machine = _acc(reaction_budget=1)
        with pytest.raises(ReactionBudgetExceeded):
            machine.react({"add": 1})
        # per-call override wins
        assert _acc(reaction_budget=1).react({"add": 1}, budget=100_000)["total"] == 1


class TestBudgetRecovery:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_supervisor_rolls_back_to_byte_identical_snapshot(self, backend):
        machine = _acc(backend)
        supervisor = MachineSupervisor(machine, max_retries=1)
        supervisor.react({"add": 5})
        before = json.dumps(machine.snapshot(), sort_keys=True)

        with pytest.raises(ReactionBudgetExceeded):
            supervisor.react({"add": 1}, budget=1)

        assert json.dumps(machine.snapshot(), sort_keys=True) == before
        assert supervisor.stats["budget_aborts"] == 2  # initial + one retry
        assert supervisor.stats["rollbacks"] == 2
        # the machine is fully usable after the rollback
        assert supervisor.react({"add": 2})["total"] == 7

    def test_repeated_budget_aborts_quarantine(self):
        machine = _acc()
        supervisor = MachineSupervisor(
            machine, max_retries=0, quarantine_after=2
        )
        for _ in range(2):
            with pytest.raises(ReactionBudgetExceeded):
                supervisor.react({"add": 1}, budget=1)
        assert supervisor.quarantined
        with pytest.raises(MachineError):
            supervisor.react({"add": 1})
        supervisor.revive()
        assert supervisor.react({"add": 1})["total"] == 1


# ---------------------------------------------------------------------------
# token bucket / EWMA / adaptive admission
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate_per_s=10, burst=2)
        assert bucket.try_acquire(0.0) and bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        # 100 ms at 10/s refills exactly one token
        assert bucket.try_acquire(100.0)
        assert not bucket.try_acquire(100.0)
        assert bucket.granted == 3 and bucket.refused == 2

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(0)
        with pytest.raises(ValueError):
            TokenBucket(1, burst=0)


class TestLatencyEwma:
    def test_tracks_recent_latency(self):
        ewma = LatencyEwma(alpha=0.5)
        assert ewma.observe(10.0) == 10.0
        assert ewma.observe(20.0) == 15.0
        assert ewma.samples == 2

    def test_validates_alpha(self):
        with pytest.raises(ValueError):
            LatencyEwma(alpha=0.0)


def _full_scan(ingress):
    """The reference for a pump round's choice, a scan over every member
    cyclic from the cursor: healthy members with mail, up to
    ``batch_size``.  Returns ``(chosen, next cursor)``."""
    size = len(ingress.mailboxes)
    chosen = []
    for step in range(size):
        index = (ingress._cursor + step) % size
        if ingress.mailboxes[index].pending and ingress.is_healthy(index):
            chosen.append(index)
            if len(chosen) >= ingress.batch_size:
                break
    cursor = (chosen[-1] + 1) % size if chosen else ingress._cursor
    return chosen, cursor


_READY_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["offer", "offer", "offer", "machine_offer"]),
                  st.integers(0, 7), st.integers(1, 9)),
        st.tuples(st.just("pump"), st.integers(1, 3)),
        st.tuples(st.sampled_from(["machine_pump", "retire", "quarantine",
                                   "revive"]),
                  st.integers(0, 7)),
        st.tuples(st.sampled_from(["pump_all", "add_member"])),
    ),
    min_size=8,
    max_size=40,
)


class TestFleetIngress:
    def _fleet(self, size=4, **kwargs):
        fleet = MachineFleet(
            parse_module(ACC_SOURCE), size=size, host_globals=HOST
        )
        return fleet, fleet.ingress(**kwargs)

    def test_route_prefers_least_loaded(self):
        fleet, ingress = self._fleet(size=3, capacity=4)
        ingress.offer(0, {"add": 1})
        ingress.offer(0, {"add": 1})
        ingress.offer(1, {"add": 1})
        index, decision = ingress.route({"add": 1})
        assert index == 2 and decision == ADMITTED

    def test_route_skips_quarantined_members(self):
        fleet, _ = self._fleet(size=3)
        supervisor = FleetSupervisor(fleet, max_retries=0, quarantine_after=1)
        ingress = fleet.ingress(supervisor=supervisor)
        with pytest.raises(ReactionBudgetExceeded):
            supervisor.members[0].react({"add": 1}, budget=1)
        assert supervisor.members[0].quarantined
        assert ingress.healthy_members() == [1, 2]
        targets = {ingress.route({"add": 1})[0] for _ in range(4)}
        assert 0 not in targets

    def test_route_skips_breaker_open_members(self):
        fleet, ingress = self._fleet(size=2)
        loop = SimulatedLoop()
        breaker = CircuitBreaker(
            loop, failure_threshold=1, cooldown_ms=60_000, name="svc"
        )
        fleet[0].register_breaker(breaker)

        def failing_operation():
            raise RuntimeError("down")

        breaker.call(failing_operation)  # synchronous failure opens it
        assert breaker.snapshot()["state"] == "open"
        assert ingress.healthy_members() == [1]
        assert ingress.route({"add": 1})[0] == 1

    def test_cooled_down_breaker_member_is_routable_again(self):
        fleet, ingress = self._fleet(size=2)
        loop = SimulatedLoop()
        breaker = CircuitBreaker(
            loop, failure_threshold=1, cooldown_ms=100, name="svc"
        )
        fleet[0].register_breaker(breaker)

        def failing_operation():
            raise RuntimeError("down")

        breaker.call(failing_operation)
        ingress.offer(1, {"add": 1})
        assert not ingress.is_healthy(0)
        assert ingress.stats()["healthy"] == 1
        loop.advance(100)
        # the health read itself moves the cooled-down breaker to half-open
        assert ingress.is_healthy(0)
        assert breaker.state == "half-open"
        assert ingress.healthy_members() == [0, 1]
        assert ingress.stats()["healthy"] == 2
        assert ingress.route({"add": 1})[0] == 0

    def test_health_reads_breakers_not_the_health_dict(self, monkeypatch):
        fleet, ingress = self._fleet(size=3)
        breaker = CircuitBreaker(SimulatedLoop(), failure_threshold=1, name="svc")
        fleet[2].register_breaker(breaker)

        def failing_operation():
            raise RuntimeError("down")

        breaker.call(failing_operation)

        def no_health(machine):
            raise AssertionError("routing built a member's health dict")

        monkeypatch.setattr(ReactiveMachine, "health", property(no_health))
        assert ingress.healthy_members() == [0, 1]
        assert ingress.stats()["healthy"] == 2
        assert ingress.route({"add": 1}) == (0, ADMITTED)
        assert ingress.pump() and ingress.is_healthy(0)

    def test_direct_offer_keeps_ingress_accounting(self):
        fleet, ingress = self._fleet(size=2)
        fleet[0].offer({"add": 1})  # straight to the mailbox, past the ingress
        ingress.offer(0, {"add": 2})
        ingress.offer(1, {"add": 3})
        ingress.check_accounting()
        assert ingress.pump_all() and ingress.stats()["pending"] == 0
        ingress.check_accounting()

    def test_accounting_catches_a_lost_mailbox_record(self):
        fleet, ingress = self._fleet(size=2)
        ingress.offer(0, {"add": 1})
        ingress.offer(0, {"add": 1})
        ingress.mailboxes[0] = Mailbox()  # the routed record is gone
        with pytest.raises(MachineError, match="fewer than the 2 routed"):
            ingress.check_accounting()

    def test_no_healthy_member_raises(self):
        fleet, _ = self._fleet(size=1)
        supervisor = FleetSupervisor(fleet, max_retries=0, quarantine_after=1)
        ingress = fleet.ingress(supervisor=supervisor)
        with pytest.raises(ReactionBudgetExceeded):
            supervisor.members[0].react({"add": 1}, budget=1)
        with pytest.raises(MachineError):
            ingress.route({"add": 1})

    def test_rate_limiter_records_refusals(self):
        fleet, ingress = self._fleet(size=2, rate_per_s=1000, burst=2)
        decisions = [ingress.offer(0, {"add": 1}, now_ms=0.0) for _ in range(4)]
        assert decisions.count(RATE_LIMITED) == 2
        ingress.check_accounting()
        assert ingress.stats()["rate_limited"] == 2

    def test_pump_drains_and_collects_failures(self):
        fleet, ingress = self._fleet(size=3, capacity=4, budget=None)
        for index in range(3):
            ingress.offer(index, {"add": index + 1})
        ingress.budget = 1  # every pumped react trips its deadline
        ingress.pump()
        assert set(ingress.last_failures) == {0, 1, 2}
        assert ingress.stats()["pump_failures"] == 3
        ingress.budget = None
        for index in range(3):
            ingress.offer(index, {"add": index + 1})
        results = ingress.pump()
        assert {i: r["total"] for i, r in results.items()} == {0: 1, 1: 2, 2: 3}

    def test_coalesce_on_pump_flattens_backlog(self):
        fleet, ingress = self._fleet(size=1, capacity=16)
        for _ in range(10):
            ingress.offer(0, {"add": 1})
        results = ingress.pump_all()
        assert results[0]["total"] == 10
        assert fleet[0].reaction_count == 1  # one merged instant, not ten

    def test_adaptive_batch_backs_off_and_recovers(self):
        fleet, ingress = self._fleet(
            size=4, target_latency_ms=5.0, min_batch=1
        )
        assert ingress.batch_size == 4
        # a fake clock (seconds, like perf_counter) making every react
        # look 20 ms slow — four times the 5 ms target
        ticks = (step * 0.020 for step in range(10_000))
        for index in range(4):
            ingress.offer(index, {"add": 1})
        ingress.pump(clock=lambda: next(ticks))
        assert ingress.batch_size == 2
        assert ingress.stats()["backoffs"] == 1
        # fast reactions (constant clock => 0 ms) grow the batch back
        for _ in range(30):
            for index in range(4):
                ingress.offer(index, {"add": 1})
            ingress.pump(clock=lambda: 0.0)
        assert ingress.batch_size == 4
        assert ingress.stats()["rampups"] >= 2

    def test_accounting_under_load_generator(self):
        fleet, ingress = self._fleet(size=4, capacity=4)
        loop = SimulatedLoop()
        generator = LoadGenerator(
            loop, lambda inputs: ingress.route(inputs, now_ms=loop.now_ms), seed=3
        )
        generator.poisson(2000.0, 500.0, lambda i: {"add": 1})
        loop.advance(500.0)
        ingress.pump_all()
        ingress.check_accounting()
        stats = ingress.stats()
        assert stats["offered"] == generator.stats["delivered"]
        assert stats["pending"] == 0
        total = sum(machine.signal("total").nowval or 0 for machine in fleet)
        # zero silent drops: every admitted-or-coalesced add=1 is summed
        assert total == stats["admitted"] + stats["coalesced"]

    def test_offer_to_retired_member_raises(self):
        fleet, ingress = self._fleet(size=3)
        ingress.offer(1, {"add": 1})
        assert ingress.retire(1) == [{"add": 1}]
        with pytest.raises(MachineError):
            ingress.offer(1, {"add": 2})
        assert ingress.mailboxes[1].pending == 0
        assert ingress.stats()["offered"] == 1
        ingress.check_accounting()

    def test_default_max_batch_follows_membership(self):
        fleet, ingress = self._fleet(size=1)
        for _ in range(3):
            ingress.add_member()
        assert ingress.max_batch == ingress.batch_size == 4
        for index in range(4):
            ingress.offer(index, {"add": 1})
        assert list(ingress.pump()) == [0, 1, 2, 3]
        # adaptive batching keeps its own batch size
        fleet, ingress = self._fleet(size=2, target_latency_ms=5.0)
        ingress.batch_size = 1
        ingress.add_member()
        assert ingress.max_batch == 3 and ingress.batch_size == 1

    def test_explicit_max_batch_survives_add_member(self):
        fleet, ingress = self._fleet(size=4, max_batch=2)
        ingress.add_member()
        assert ingress.max_batch == ingress.batch_size == 2

    @given(size=st.integers(1, 6), coalesce=st.booleans(), ops=_READY_OPS)
    @settings(**_SETTINGS)
    def test_rounds_match_the_full_scan(self, size, coalesce, ops):
        fleet, _ = self._fleet(size)
        supervisor = FleetSupervisor(fleet, max_retries=0, quarantine_after=1)
        ingress = fleet.ingress(
            capacity=3, supervisor=supervisor, coalesce_on_pump=coalesce
        )
        pumped = []
        ingress.on_instant = lambda index, inputs: pumped.append(index)
        for op, *args in ops:
            member = args[0] % len(ingress) if args else None
            if op == "offer":
                if member in ingress.retired:
                    with pytest.raises(MachineError):
                        ingress.offer(member, {"add": args[1]})
                else:
                    ingress.offer(member, {"add": args[1]})
            elif op == "machine_offer":
                fleet[member].offer({"add": args[1]})
            elif op == "machine_pump":
                fleet[member].pump()
            elif op == "retire":
                ingress.retire(member)
            elif op == "quarantine":
                if not supervisor.members[member].quarantined:
                    with pytest.raises(ReactionBudgetExceeded):
                        supervisor.members[member].react({"add": 1}, budget=1)
            elif op == "revive":
                supervisor.revive(member)
            elif op == "add_member":
                index = ingress.add_member()
                supervisor.members.append(MachineSupervisor(
                    fleet[index], max_retries=0, quarantine_after=1
                ))
            elif op == "pump":
                ingress.batch_size = args[0]
                expected, cursor = _full_scan(ingress)
                pumped.clear()
                ingress.pump()
                assert pumped == expected
                assert ingress._cursor == cursor
            else:
                ingress.pump_all()
                assert _full_scan(ingress)[0] == []
            ingress.check_accounting()
            assert ingress.pending == sum(m.pending for m in ingress.mailboxes)
            with_mail = [i for i, m in enumerate(ingress.mailboxes) if m.pending]
            assert set(with_mail) <= set(ingress._ready)
            assert ingress._ready == sorted(set(ingress._ready))

    def test_rounds_are_round_robin_from_the_cursor(self):
        fleet, ingress = self._fleet(size=3)
        ingress.batch_size = 1
        for index in range(3):
            ingress.offer(index, {"add": 1})
        assert list(ingress.pump()) == [0]
        ingress.offer(0, {"add": 1})
        assert [list(ingress.pump()) for _ in range(4)] == [[1], [2], [0], []]

    def test_round_reads_only_listed_mailboxes(self, monkeypatch):
        fleet, ingress = self._fleet(1000)
        for index in range(1000):
            ingress.offer(index, {"add": 1})
            fleet[index].pump()  # emptied elsewhere: still listed
        assert ingress.pump() == {}  # the round drops every emptied member
        ingress.offer(617, {"add": 1})
        reads = []
        pending = Mailbox.pending.fget
        monkeypatch.setattr(
            Mailbox, "pending",
            property(lambda mailbox: reads.append(mailbox) or pending(mailbox)),
        )
        assert list(ingress.pump()) == [617]
        assert len(reads) <= 3
        reads.clear()
        ingress.offer(3, {"add": 1})
        assert list(ingress.pump_all()) == [3]
        assert len(reads) <= 6

    def test_hook_reoffer_to_pumped_member_drives_it_next_round(self):
        fleet, ingress = self._fleet(3)

        def reoffer_once(index, inputs):
            if inputs == {"add": 1}:
                ingress.offer(index, {"add": 10})

        ingress.on_instant = reoffer_once
        ingress.offer(1, {"add": 1})
        assert list(ingress.pump()) == [1]
        assert ingress.mailboxes[1].pending == 1
        assert {i: r["total"] for i, r in ingress.pump().items()} == {1: 11}
        assert ingress.pump() == {}


# ---------------------------------------------------------------------------
# load generator determinism
# ---------------------------------------------------------------------------


class TestLoadGenerator:
    def _run(self, seed):
        loop = SimulatedLoop()
        seen = []
        generator = LoadGenerator(
            loop, lambda inputs: seen.append((loop.now_ms, dict(inputs))), seed=seed
        )
        generator.poisson(50.0, 2000.0, lambda i: {"event": i})
        generator.bursts(3, 100.0, 4, lambda i: {"burst": i}, start_ms=2000.0)
        loop.advance(3000.0)
        return seen, generator.stats

    def test_same_seed_same_schedule(self):
        first, stats1 = self._run(11)
        second, stats2 = self._run(11)
        assert first == second and stats1 == stats2
        assert stats1["delivered"] == stats1["scheduled"]

    def test_different_seed_different_schedule(self):
        assert self._run(1)[0] != self._run(2)[0]

    def test_burst_events_share_an_instant(self):
        loop = SimulatedLoop()
        seen = []
        generator = LoadGenerator(loop, lambda i: seen.append(loop.now_ms))
        generator.bursts(burst_size=4, gap_ms=50.0, count=2)
        loop.advance(200.0)
        assert seen == [0.0] * 4 + [50.0] * 4

    def test_sink_errors_counted_not_raised(self):
        loop = SimulatedLoop()
        mailbox = Mailbox(capacity=1, policy="reject")
        generator = LoadGenerator(loop, mailbox.offer)
        generator.bursts(5, 10.0, 1)
        loop.advance(10.0)
        assert generator.stats["sink_errors"] == 4
        mailbox.check_accounting()

    def test_validates_parameters(self):
        generator = LoadGenerator(SimulatedLoop(), lambda i: None)
        with pytest.raises(ValueError):
            generator.poisson(0, 100.0)
        with pytest.raises(ValueError):
            generator.bursts(0, 10.0, 1)
        with pytest.raises(ValueError):
            generator.bursts(1, 0.0, 1)


# ---------------------------------------------------------------------------
# machine mailbox API
# ---------------------------------------------------------------------------


class TestMachineMailboxApi:
    def test_offer_without_mailbox_raises(self):
        machine = _acc()
        with pytest.raises(MachineError):
            machine.offer({"add": 1})
        with pytest.raises(MachineError):
            machine.pump()

    def test_pump_respects_max_instants(self):
        machine = _acc()
        machine.attach_mailbox(capacity=8, policy="coalesce")
        for _ in range(4):
            machine.offer({"add": 1})
        assert len(machine.pump(max_instants=2)) == 2
        assert machine.mailbox.pending == 2
