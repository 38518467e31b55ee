"""Durability: snapshot/restore, write-ahead journaling, deterministic
replay recovery, and supervised fleets (docs/resilience.md, "Durability &
recovery").

The load-bearing property is the paper's synchronous-core purity: the
between-instant state (unit-delay registers + exec state) is the machine's
*only* memory, so ``snapshot()`` + journal replay reconstructs any run
byte-identically — across all three reaction backends, since snapshots
are backend-portable.  The hypothesis property here checks exactly that:
for random constructive programs and traces, snapshot at *any* instant,
restore on a fresh machine of *any* backend, replay the journal tail,
and the trace, statuses, causality errors, and final snapshot all match
the uninterrupted run.

The chaos suites then kill supervised paper apps (login, pillbox, Skini
audience) mid-instant and between instants for 20 seeds each and require
recovery to reproduce the unkilled run's host-effect trace exactly once
— no lost effects, no duplicated ``DeliverDose``.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    CausalityError,
    FleetReactionError,
    MachineError,
    MachineSupervisor,
    MemoryJournal,
    ReactiveMachine,
    SnapshotError,
    parse_module,
)
from repro.apps.login import build_login_machine
from repro.apps.pillbox import build_pillbox_machine
from repro.apps.skini import make_supervised_audience
from repro.errors import CrashError
from repro.host import AuthService, CircuitBreaker, MachineCrasher, SimulatedLoop
from repro.runtime.fleet import MachineFleet
from repro.runtime.journal import FileJournal, JournalEntry
from repro.runtime.recovery import FleetSupervisor
from tests.strategies import bursty_schedules, input_traces, pure_modules

BACKENDS = ("worklist", "levelized", "sparse")

_SETTINGS = dict(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

COUNTER_SOURCE = """
module Count(in tick, in reset, out n = 0) {
  do {
    let c = 0;
    every (tick.now) { atom { c = c + 1 } emit n(c) }
  } every (reset.now)
}
"""


def _observe_step(machine, result):
    """The per-instant observation tuple (same shape as the backend
    parity suite): outputs, statuses, full signal state, pause/termination."""
    iface = sorted(machine.compiled.circuit.interface)
    signals = tuple(
        (name, view.now, view.pre, view.nowval, view.preval)
        for name in iface
        for view in (machine.signal(name),)
    )
    return (dict(result), dict(result.statuses), signals, result.paused, result.terminated)


def _count_outputs(n_ticks):
    """Per-tick outputs of an unkilled Count machine (the oracle)."""
    m = ReactiveMachine(parse_module(COUNTER_SOURCE))
    return [dict(m.react({"tick": True})) for _ in range(n_ticks)]


# ---------------------------------------------------------------------------
# snapshot / restore
# ---------------------------------------------------------------------------


class TestSnapshotRestore:
    def _machine(self, backend="worklist"):
        return ReactiveMachine(parse_module(COUNTER_SOURCE), backend=backend)

    @pytest.mark.parametrize("src", BACKENDS)
    @pytest.mark.parametrize("dst", BACKENDS)
    def test_round_trip_across_backends(self, src, dst):
        m1 = self._machine(src)
        for _ in range(3):
            m1.react({"tick": True})
        snap = m1.snapshot()

        m2 = self._machine(dst)
        # through JSON: the snapshot is a plain serializable payload
        m2.restore(json.loads(json.dumps(snap)))
        assert m2.reaction_count == m1.reaction_count

        for _ in range(2):
            r1 = m1.react({"tick": True})
            r2 = m2.react({"tick": True})
            assert _observe_step(m1, r1) == _observe_step(m2, r2)
        assert m1.snapshot() == m2.snapshot()

    def test_snapshot_preserves_value_and_pre_state(self):
        m1 = self._machine()
        m1.react({"tick": True})
        m1.react({"tick": True})
        m2 = self._machine()
        m2.restore(m1.snapshot())
        # pre/preval of the restored machine reflect the snapshot instant
        assert m2.signal("n").pre == m1.signal("n").pre
        assert m2.signal("n").preval == m1.signal("n").preval
        # reset leg still works after restore
        r = m2.react({"reset": True, "tick": True})
        assert not r.present("n")

    def test_fingerprint_mismatch_rejected(self):
        m1 = self._machine()
        snap = m1.snapshot()
        other = ReactiveMachine(
            parse_module("module Other(in tick, out n = 0) { sustain n(1) }")
        )
        with pytest.raises(SnapshotError, match="fingerprint"):
            other.restore(snap)

    def test_tampered_payloads_rejected(self):
        """Every refusal leaves the machine's state untouched — including
        a checksum-less (pre-checksum, accepted by design) payload whose
        arity is off, which is only caught by the shape checks."""
        for backend in BACKENDS:
            m = self._machine(backend)
            for _ in range(3):
                m.react({"tick": True})
            snap = m.snapshot()
            digest = m.state_digest()
            legacy = {key: value for key, value in snap.items() if key != "checksum"}
            tampered = [
                {**snap, "format": 999},
                {**snap, "registers": snap["registers"][:-1]},
                "not a snapshot",
                {**legacy, "registers": snap["registers"][:-1]},
                {**legacy, "counters": snap["counters"] + [0]},
            ]
            for payload in tampered:
                with pytest.raises(SnapshotError):
                    m.restore(payload)
                assert m.state_digest() == digest, (backend, payload)
            with pytest.raises(SnapshotError, match="format"):
                m.restore(tampered[0])
            with pytest.raises(SnapshotError, match="registers"):
                m.restore(tampered[3])

    def test_snapshot_refused_mid_reaction(self):
        m = self._machine()
        m._reacting = True
        try:
            with pytest.raises(SnapshotError, match="mid-reaction"):
                m.snapshot()
        finally:
            m._reacting = False

    def test_fingerprint_is_stable_across_instances(self):
        assert self._machine().compiled.fingerprint == self._machine().compiled.fingerprint
        assert self._machine("sparse").compiled.fingerprint


# ---------------------------------------------------------------------------
# journal sinks
# ---------------------------------------------------------------------------


class TestJournalSinks:
    def test_memory_journal_basic(self):
        j = MemoryJournal()
        for seq in range(5):
            j.append(JournalEntry(seq, {"tick": True}))
        assert len(j) == 5 and j.last_seq == 4
        assert [e.seq for e in j.entries(2)] == [2, 3, 4]
        j.commit(3)
        assert [e.committed for e in j.entries()] == [False, False, False, True, False]
        assert j.rewind(4) == 1 and j.last_seq == 3
        assert j.truncate(2) == 2 and [e.seq for e in j.entries()] == [2, 3]
        with pytest.raises(MachineError, match="increasing seq"):
            j.append(JournalEntry(3, {}))

    def test_entry_json_round_trip(self):
        entry = JournalEntry(7, {"A": True, "v": 3}, [(0, "ok")], committed=True)
        again = JournalEntry.from_json(json.loads(json.dumps(entry.to_json())))
        assert (again.seq, again.inputs, again.execs, again.committed) == (
            7,
            {"A": True, "v": 3},
            [(0, "ok")],
            True,
        )

    def test_file_journal_survives_reopen(self, tmp_path):
        path = tmp_path / "machine.journal"
        j = FileJournal(path)
        j.append(JournalEntry(0, {"tick": True}))
        j.commit(0)
        j.append(JournalEntry(1, {"tick": True, "Time": 5}))
        j.close()

        j2 = FileJournal(path)
        assert [(e.seq, e.committed) for e in j2.entries()] == [(0, True), (1, False)]
        assert j2.entries()[1].inputs == {"tick": True, "Time": 5}
        # compaction on rewind/truncate rewrites the file
        j2.rewind(1)
        j2.close()
        j3 = FileJournal(path)
        assert [(e.seq, e.committed) for e in j3.entries()] == [(0, True)]
        j3.close()

    def test_file_journal_fsync_flag(self, tmp_path, monkeypatch):
        """``fsync=True`` forces stable storage on every append, commit
        and compaction rewrite; the default ``False`` never fsyncs (see
        docs/resilience.md for the durability trade-off)."""
        import os as os_module

        import repro.runtime.journal as journal_module

        synced = []
        monkeypatch.setattr(
            journal_module.os, "fsync", lambda fd: synced.append(fd)
        )
        assert journal_module.os is os_module  # patched at the use site

        lazy = FileJournal(tmp_path / "lazy.journal")
        lazy.append(JournalEntry(0, {"tick": True}))
        lazy.commit(0)
        lazy.close()
        assert synced == []
        assert lazy.fsync is False

        eager = FileJournal(tmp_path / "eager.journal", fsync=True)
        eager.append(JournalEntry(0, {"tick": True}))
        eager.commit(0)
        eager.rewind(0)  # compaction rewrite also syncs
        eager.close()
        assert len(synced) == 3

        reopened = FileJournal(tmp_path / "eager.journal", fsync=True)
        assert reopened.entries() == []
        reopened.append(JournalEntry(5, {"tick": True}))
        assert len(synced) == 4
        reopened.close()

    def test_file_journal_drives_recovery(self, tmp_path):
        """A machine journaling to disk can be recovered by a 'new
        process': fresh machine + snapshot file + journal file."""
        module = parse_module(COUNTER_SOURCE)
        m = ReactiveMachine(module)
        m.attach_journal(FileJournal(tmp_path / "j.log"))
        snap_path = tmp_path / "snap.json"
        snap_path.write_text(json.dumps(m.snapshot()))
        for _ in range(4):
            m.react({"tick": True})
        m.journal.close()

        fresh = ReactiveMachine(module, backend="levelized")
        journal = FileJournal(tmp_path / "j.log")
        fresh.restore(json.loads(snap_path.read_text()))
        fresh.replay(journal.entries())
        assert fresh.reaction_count == 4
        assert fresh.reaction_count == 4
        journal.close()


# ---------------------------------------------------------------------------
# the round-trip property
# ---------------------------------------------------------------------------


@settings(**_SETTINGS)
@given(pure_modules(), input_traces(), st.data())
def test_snapshot_replay_round_trip(module, trace, data):
    """For random programs and traces: journaled run on backend A,
    snapshot at any instant, restore onto a fresh machine of backend B
    (via JSON), replay the journal tail — the observations, causality
    errors, and final snapshot are identical to the uninterrupted run."""
    src = data.draw(st.sampled_from(BACKENDS), label="src_backend")
    dst = data.draw(st.sampled_from(BACKENDS), label="dst_backend")

    reference = ReactiveMachine(module, backend=src)
    journal = MemoryJournal()
    reference.attach_journal(journal)
    snaps = [reference.snapshot()]
    observations = []
    error = None
    for step in trace:
        try:
            result = reference.react({name: True for name in step})
        except CausalityError as e:
            error = (str(e), tuple(e.nets))
            break
        observations.append(_observe_step(reference, result))
        snaps.append(reference.snapshot())
        if reference.terminated:
            break

    cut = data.draw(st.integers(0, len(snaps) - 1), label="cut")
    snap = json.loads(json.dumps(snaps[cut]))

    machine = ReactiveMachine(module, backend=dst)
    machine.restore(snap)
    replayed = []
    replay_error = None
    try:
        for entry in journal.entries(snap["reaction_count"]):
            result = machine.replay([entry])[0]
            replayed.append(_observe_step(machine, result))
    except CausalityError as e:
        replay_error = (str(e), tuple(e.nets))

    assert replay_error == error, (
        f"replay causality diverged {src}->{dst} cut={cut}\n{module.body!r}\n{trace}"
    )
    assert replayed == observations[cut:], (
        f"replay trace diverged {src}->{dst} cut={cut}\n{module.body!r}\n{trace}"
    )
    if error is None:
        assert json.dumps(machine.snapshot(), sort_keys=True) == json.dumps(
            reference.snapshot(), sort_keys=True
        )


@settings(**_SETTINGS)
@given(pure_modules(), input_traces(), st.data())
def test_supervised_recovery_equals_unkilled_run(module, trace, data):
    """Property form of the chaos acceptance: kill a supervised machine
    at a random instant (mid-instant or between instants) and recovery
    reproduces the unkilled run's observations exactly."""
    backend = data.draw(st.sampled_from(BACKENDS), label="backend")

    try:
        reference_obs = []
        reference = ReactiveMachine(module, backend=backend)
        for step in trace:
            reference_obs.append(
                _observe_step(reference, reference.react({name: True for name in step}))
            )
            if reference.terminated:
                break
    except CausalityError:
        return  # non-constructive trace: covered by the parity suite

    machine = ReactiveMachine(module, backend=backend)
    supervisor = MachineSupervisor(
        machine, checkpoint_every=2, max_retries=1, quarantine_after=99
    )
    kill_at = data.draw(st.integers(0, max(0, len(reference_obs) - 1)), label="kill_at")
    mid = data.draw(st.booleans(), label="mid_instant")
    crasher = MachineCrasher(machine, seed=0)

    observed = []
    for index, step in enumerate(trace[: len(reference_obs)]):
        if index == kill_at:
            if mid:
                crasher.kill_mid_instant(after_calls=1)
            else:
                crasher.kill_between_instants()
        result = supervisor.react({name: True for name in step})
        if crasher.armed:  # instant had no host calls: crash never fired
            crasher.disarm()
        observed.append(_observe_step(machine, result))
        if machine.terminated:
            break

    assert observed == reference_obs


@settings(**_SETTINGS)
@given(schedule=bursty_schedules(signals=("tick", "reset"), values=st.just(True)))
def test_bursty_schedule_replay_round_trip(schedule):
    """Durability under bursty traffic (strategy shared with the overload
    suite): journal a bursty Count run, then restore the pre-run snapshot
    on a fresh machine of another backend and replay — byte-identical
    final state, burst or no burst."""
    module = parse_module(COUNTER_SOURCE)
    machine = ReactiveMachine(module)
    journal = machine.attach_journal(MemoryJournal())
    base = machine.snapshot()
    for _at_ms, inputs in schedule:
        machine.react(dict(inputs))

    fresh = ReactiveMachine(module, backend="levelized")
    fresh.restore(base)
    fresh.replay(journal.entries())
    assert fresh.snapshot() == machine.snapshot()


# ---------------------------------------------------------------------------
# reset satellites
# ---------------------------------------------------------------------------


class TestResetContract:
    def test_reset_clears_deferred_queue(self):
        m = ReactiveMachine(parse_module(COUNTER_SOURCE))
        # simulate an instant interrupted below react()'s cleanup (a
        # BaseException or injected crash): the deferred queue survives
        m._reacting = True
        m.queue_react({"tick": True})
        m._reacting = False
        assert m._deferred
        m.reset()
        assert m._deferred == []
        # the stale queued input must not replay into the fresh machine
        assert dict(m.react({})) == {}
        assert m.reaction_count == 1

    def test_reset_zeroes_emitted_counters(self):
        m = ReactiveMachine(parse_module(COUNTER_SOURCE))
        m.react({"tick": True})
        m.react({"tick": True})
        assert m.signal("n")._signal.emitted > 0
        m.reset()
        assert m.signal("n")._signal.emitted == 0

    def test_reset_rearms_breakers_and_health(self):
        loop = SimulatedLoop()
        breaker = CircuitBreaker(loop, failure_threshold=1)
        breaker._on_failure(RuntimeError("boom"))
        assert breaker.state == "open"

        m = ReactiveMachine(parse_module(COUNTER_SOURCE))
        m.register_breaker(breaker, "auth")
        m.react({"tick": True})
        m.reset()

        # post-reset health contract: cleared counters, closed breakers
        health = m.health
        assert breaker.state == "closed"
        assert health["reactions"] == 0
        assert health["failed_reactions"] == 0
        assert health["breakers"]["auth"]["state"] == "closed"


# ---------------------------------------------------------------------------
# fleet partial-batch isolation
# ---------------------------------------------------------------------------


class TestFleetReactionError:
    def _fleet(self, size=3):
        return MachineFleet(parse_module(COUNTER_SOURCE), size=size)

    def test_react_all_completes_healthy_members(self):
        fleet = self._fleet()
        MachineCrasher(fleet[1], seed=0).kill_between_instants()
        with pytest.raises(FleetReactionError) as info:
            fleet.react_all({"tick": True})
        err = info.value
        assert err.completed == [0, 2]
        assert set(err.failures) == {1}
        assert isinstance(err.failures[1], CrashError)
        assert dict(err.results[0]) == _count_outputs(1)[0]
        assert err.results[1] is None
        # healthy members really advanced; the dead one did not
        assert fleet[0].reaction_count == 1
        assert fleet[1].reaction_count == 0

    def test_broadcast_collects_make_inputs_failures(self):
        fleet = self._fleet()

        def make_inputs(index, machine):
            if index == 2:
                raise ValueError("bad member inputs")
            return {"tick": True}

        with pytest.raises(FleetReactionError) as info:
            fleet.broadcast(make_inputs)
        assert info.value.completed == [0, 1]
        assert isinstance(info.value.failures[2], ValueError)

    def test_mixed_partial_failures_exact_indices(self):
        """The mixed case: in one batch instant, some members succeed,
        one raises (injected crash), and one is quarantined (its
        supervisor refuses after repeated budget aborts).  The collected
        FleetReactionError must name the completed and failed indices
        exactly, with the right exception type per failure."""
        from repro.errors import ReactionBudgetExceeded

        fleet = self._fleet(size=5)

        # Member 1: dies on its next react.
        MachineCrasher(fleet[1], seed=0).kill_between_instants()

        # Member 3: quarantined by its supervisor after identical
        # runaway-instant (budget) failures; route the fleet's reacts
        # through the supervisor so the quarantine actually gates them.
        poisoned = MachineSupervisor(
            fleet[3], max_retries=0, quarantine_after=1
        )
        with pytest.raises(ReactionBudgetExceeded):
            poisoned.react({"tick": True}, budget=1)
        assert poisoned.quarantined

        def supervised_react(inputs=None, **kwargs):
            # un-shadow while the supervisor drives the real react
            del fleet[3].__dict__["react"]
            try:
                return poisoned.react(inputs, **kwargs)
            finally:
                fleet[3].__dict__["react"] = supervised_react

        fleet[3].__dict__["react"] = supervised_react

        with pytest.raises(FleetReactionError) as info:
            fleet.react_all({"tick": True})
        err = info.value
        assert err.completed == [0, 2, 4]
        assert sorted(err.failures) == [1, 3]
        assert isinstance(err.failures[1], CrashError)
        assert isinstance(err.failures[3], MachineError)
        assert "quarantined" in str(err.failures[3])
        oracle = _count_outputs(1)[0]
        for index in (0, 2, 4):
            assert dict(err.results[index]) == oracle
            assert fleet[index].reaction_count == 1
        for index in (1, 3):
            assert err.results[index] is None
            assert fleet[index].reaction_count == 0

        # recovery: revive the quarantined member and re-arm the crash;
        # the next batch completes for everyone but the dead member
        poisoned.revive()
        MachineCrasher(fleet[1], seed=0).kill_between_instants()
        with pytest.raises(FleetReactionError) as info:
            fleet.react_all({"tick": True})
        assert info.value.completed == [0, 2, 3, 4]
        assert sorted(info.value.failures) == [1]


# ---------------------------------------------------------------------------
# supervisors
# ---------------------------------------------------------------------------


class TestMachineSupervisor:
    def _supervised(self, **kwargs):
        machine = ReactiveMachine(parse_module(COUNTER_SOURCE))
        return machine, MachineSupervisor(machine, **kwargs)

    def test_rollback_and_retry_is_transparent(self):
        machine, sup = self._supervised(checkpoint_every=None, max_retries=1)
        for _ in range(3):
            sup.react({"tick": True})
        MachineCrasher(machine, seed=0).kill_mid_instant(after_calls=1)
        result = sup.react({"tick": True})
        assert dict(result) == _count_outputs(4)[3]
        assert sup.stats["retries"] == 1 and sup.stats["rollbacks"] == 1
        assert machine.reaction_count == 4

    def test_checkpoint_truncates_journal(self):
        machine, sup = self._supervised(checkpoint_every=2)
        for _ in range(5):
            sup.react({"tick": True})
        assert sup.last_checkpoint["reaction_count"] >= 4
        assert all(
            e.seq >= sup.last_checkpoint["reaction_count"]
            for e in sup.journal.entries()
        )

    def test_poison_input_quarantine_and_revive(self):
        machine, sup = self._supervised(max_retries=1, quarantine_after=2)
        sup.react({"tick": True})
        for _ in range(1):
            with pytest.raises(MachineError, match="unknown input"):
                sup.react({"bogus": True})
        assert sup.quarantined
        with pytest.raises(MachineError, match="quarantined"):
            sup.react({"tick": True})
        # the rollbacks left the machine at the pre-poison boundary
        assert machine.reaction_count == 1
        sup.revive()
        assert dict(sup.react({"tick": True})) == _count_outputs(2)[1]

    def test_recover_onto_fresh_machine(self):
        machine, sup = self._supervised(checkpoint_every=3)
        for _ in range(5):
            sup.react({"tick": True})
        fresh = ReactiveMachine(parse_module(COUNTER_SOURCE))
        recovered = sup.recover(fresh)
        assert recovered is fresh and sup.machine is fresh
        assert fresh.reaction_count == 5
        assert dict(fresh.react({"tick": True})) == _count_outputs(6)[5]
        # the dead machine no longer writes to the journal
        assert machine._journal is None

    def test_recover_redoes_uncommitted_instant_live(self):
        """A mid-instant kill leaves an uncommitted journal entry; recovery
        must redo that instant live so its host effects happen exactly once."""
        module = parse_module(COUNTER_SOURCE)
        machine = ReactiveMachine(module)
        effects = []
        machine.add_listener("n", effects.append)
        sup = MachineSupervisor(machine, max_retries=0, quarantine_after=99)
        for _ in range(2):
            sup.react({"tick": True})

        MachineCrasher(machine, seed=0).kill_mid_instant(after_calls=1)
        with pytest.raises(CrashError):
            machine.react({"tick": True})  # direct react: no supervised rollback
        assert [e.committed for e in sup.journal.entries()] == [True, True, False]

        fresh = ReactiveMachine(module)
        fresh.add_listener("n", effects.append)
        sup.recover(fresh)
        assert fresh.reaction_count == 3
        sup.react({"tick": True})
        # effects across old + fresh machine == the unkilled run's, once each
        reference = ReactiveMachine(module)
        ref_effects = []
        reference.add_listener("n", ref_effects.append)
        for _ in range(4):
            reference.react({"tick": True})
        assert effects == ref_effects
        assert all(e.committed for e in sup.journal.entries())


class TestFleetSupervisor:
    def test_batch_completes_with_rollback_retry(self):
        sup = FleetSupervisor(
            MachineFleet(parse_module(COUNTER_SOURCE), size=3),
            checkpoint_every=3,
            max_retries=1,
        )
        for _ in range(2):
            sup.react_all({"tick": True})
        MachineCrasher(sup[1].machine, seed=0).kill_mid_instant(after_calls=1)
        results = sup.react_all({"tick": True})
        assert [dict(r) for r in results] == [_count_outputs(3)[2]] * 3
        assert sup.last_failures == {}
        assert sup.stats()["retries"] == 1

    def test_quarantine_isolates_poison_member(self):
        sup = FleetSupervisor(
            MachineFleet(parse_module(COUNTER_SOURCE), size=3),
            max_retries=1,
            quarantine_after=2,
        )

        def poison(index, machine):
            return {"bogus": True} if index == 2 else {"tick": True}

        results = sup.broadcast(poison)
        assert results[2] is None and 2 in sup.last_failures
        assert sup.quarantined_members() == [2]
        # quarantined member is skipped, healthy ones keep reacting
        results = sup.react_all({"tick": True})
        expected = _count_outputs(2)[1]
        assert [dict(r) if r else None for r in results] == [expected, expected, None]
        sup.revive(2)
        sup.react_all({"tick": True})
        assert sup[2].machine.reaction_count == 1

    def test_recover_member_onto_fresh_machine(self):
        fleet = MachineFleet(parse_module(COUNTER_SOURCE), size=2)
        sup = FleetSupervisor(fleet, checkpoint_every=2)
        for _ in range(4):
            sup.react_all({"tick": True})
        fresh = fleet.spawn()
        fleet._machines.pop()  # spawn() appended it; recover() re-inserts
        recovered = sup.recover(0, fresh)
        assert recovered is fresh and fleet[0] is fresh
        assert [dict(r) for r in sup.react_all({"tick": True})] == [_count_outputs(5)[4]] * 2


# ---------------------------------------------------------------------------
# chaos: the paper apps, 20 seeds each
# ---------------------------------------------------------------------------

SEEDS = range(20)


def _pillbox_schedule(seed):
    """A deterministic minute-by-minute drive derived from the seed:
    Try/Conf presses scattered around the dose window."""
    import random

    rng = random.Random(seed)
    steps = []
    time = 19 * 60 + rng.randrange(0, 120)
    for _ in range(50):
        time += 1
        step = {"Mn": True, "Time": time}
        roll = rng.random()
        if roll < 0.12:
            step["Try"] = True
        elif roll < 0.2:
            step["Conf"] = True
        steps.append(step)
    return steps


@pytest.mark.parametrize("seed", SEEDS)
def test_pillbox_crash_recovery_no_double_dispense(seed):
    """Kill the pillbox at a random instant (mid-instant or between
    instants), recover onto a fresh machine from snapshot + journal, and
    the run is indistinguishable from the unkilled one — in particular
    DeliverDose fires at most once per slot (no duplicated doses)."""
    import random

    rng = random.Random(1000 + seed)
    schedule = _pillbox_schedule(seed)

    reference = build_pillbox_machine()
    reference_doses = []
    reference.add_listener("DeliverDose", reference_doses.append)
    reference_trace = [dict(reference.react(dict(step))) for step in schedule]

    machine = build_pillbox_machine()
    doses = []
    machine.add_listener("DeliverDose", doses.append)
    sup = MachineSupervisor(
        machine, checkpoint_every=7, max_retries=0, quarantine_after=99
    )
    kill_at = rng.randrange(1, len(schedule))
    crasher = MachineCrasher(machine, rng=rng)
    killed = False

    trace = []
    index = 0
    while index < len(schedule):
        step = schedule[index]
        if index == kill_at and not killed:
            killed = True
            if rng.random() < 0.5:
                crasher.kill_mid_instant(after_calls=1)
            else:
                crasher.kill_between_instants()
        try:
            result = sup.react(dict(step))
        except CrashError:
            # process death: recover onto a brand-new machine
            machine = build_pillbox_machine()
            machine.add_listener("DeliverDose", doses.append)
            sup.recover(machine)
            continue  # re-drive the killed instant
        if crasher.armed:
            crasher.disarm()
        trace.append(dict(result))
        index += 1

    assert trace == reference_trace
    assert doses == reference_doses  # exactly-once dispensing per slot


def _login_script(seed):
    import random

    rng = random.Random(seed)
    good = rng.random() < 0.7
    passwd = "secret" if good else "wrong"
    script = [
        ("react", {"name": "alice"}),
        ("react", {"passwd": passwd}),
        ("react", {"login": True}),
        ("advance", 400),  # auth round trip resolves
        ("advance", 2500),  # a few session Timer ticks (if connected)
        ("react", {"logout": True}),
        ("react", {"name": "al"}),
    ]
    return script


def _drive_login(script, supervisor=None, machine=None, loop=None, crash_plan=None):
    """Run the script; with a supervisor + crash_plan=(step, mid) arm a
    kill before that scripted react and let rollback+replay recover."""
    events = []
    target = supervisor.machine if supervisor else machine
    target.add_listener("connState", lambda v: events.append(("connState", v)))
    target.add_listener("enableLogin", lambda v: events.append(("enable", v)))
    crasher = MachineCrasher(target, seed=0) if crash_plan else None
    react_index = 0
    for action, arg in script:
        if action == "advance":
            loop.advance(arg)
            continue
        if crash_plan and react_index == crash_plan[0]:
            if crash_plan[1]:
                crasher.kill_mid_instant(after_calls=1)
            else:
                crasher.kill_between_instants()
        if supervisor:
            supervisor.react(dict(arg))
        else:
            target.react(dict(arg))
        if crasher is not None and crasher.armed:
            crasher.disarm()
        react_index += 1
    return events


@pytest.mark.parametrize("seed", SEEDS)
def test_login_crash_recovery_same_event_trace(seed):
    """Kill the supervised login machine at a random scripted instant;
    rollback + journal replay (exec completions re-injected, start
    actions suppressed) must reproduce the unkilled run's connState /
    enableLogin event trace with no duplicated auth requests."""
    import random

    rng = random.Random(2000 + seed)
    script = _login_script(seed)

    loop1 = SimulatedLoop()
    svc1 = AuthService(loop1, {"alice": "secret"})
    reference = build_login_machine(loop1, svc1)
    reference_events = _drive_login(script, machine=reference, loop=loop1)

    loop2 = SimulatedLoop()
    svc2 = AuthService(loop2, {"alice": "secret"})
    machine = build_login_machine(loop2, svc2)
    sup = MachineSupervisor(
        machine, checkpoint_every=3, max_retries=1, quarantine_after=99
    )
    n_reacts = sum(1 for action, _ in script if action == "react")
    crash_plan = (rng.randrange(n_reacts), rng.random() < 0.5)
    events = _drive_login(
        script, supervisor=sup, loop=loop2, crash_plan=crash_plan
    )

    assert events == reference_events
    # the crash did not replay the auth request against the service
    assert len(svc2.log) == len(svc1.log)


@pytest.mark.parametrize("seed", SEEDS)
def test_skini_audience_crash_recovery(seed):
    """A supervised Skini audience under member crashes: every batch
    completes for healthy members, crashed members roll back and retry,
    and the fleet converges to the same state as an unkilled audience."""
    import random

    rng = random.Random(3000 + seed)
    size = 6

    def conduct(step, index):
        # a deterministic conductor: stagger select/grant/stop per member
        phase = (step + index) % 4
        if phase == 1:
            return {"select": index % 3}
        if phase == 2:
            return {"grant": index % 2}
        if phase == 3:
            return {"stop": True}
        return {}

    reference = make_supervised_audience(size, checkpoint_every=None).fleet
    for step in range(12):
        reference.broadcast(lambda i, m, s=step: conduct(s, i))
    reference_state = [m.snapshot() for m in reference]

    sup = make_supervised_audience(
        size, checkpoint_every=4, max_retries=1, quarantine_after=99
    )
    for step in range(12):
        if rng.random() < 0.4:
            victim = rng.randrange(size)
            crasher = MachineCrasher(sup[victim].machine, rng=rng)
            crasher.kill_at_random()
        results = sup.broadcast(lambda i, m, s=step: conduct(s, i))
        assert sup.last_failures == {}, f"batch failed at step {step}"
        assert all(r is not None for r in results)
        for member in sup.members:
            # a crash that never fired (no host calls) must not leak
            for key in ("react", "env_for", "emit_value"):
                member.machine.__dict__.pop(key, None)

    assert [s.machine.snapshot() for s in sup.members] == reference_state


# ---------------------------------------------------------------------------
# FileJournal torn-tail recovery
# ---------------------------------------------------------------------------


class TestTornTailRecovery:
    """A process killed mid-append leaves a partially-written final line;
    reopening must recover (truncate the torn record) rather than abort,
    because a record that was never fully written belongs to an instant
    that never ran."""

    def _write_journal(self, path, count=4):
        journal = FileJournal(str(path))
        for seq in range(count):
            journal.append(JournalEntry(seq, {"tick": seq}, committed=False))
            journal.commit(seq)
        journal.close()
        return path

    def test_chopped_mid_record_truncates_and_warns(self, tmp_path):
        from repro.runtime.journal import TornJournalWarning

        path = self._write_journal(tmp_path / "torn.journal")
        raw = path.read_bytes()
        # chop inside the final record, leaving no trailing newline
        chopped = raw[: len(raw) - 7]
        assert not chopped.endswith(b"\n")
        path.write_bytes(chopped)

        with pytest.warns(TornJournalWarning):
            journal = FileJournal(str(path))
        assert journal.torn_tail is not None
        # the torn commit record is gone; entry 3 survives uncommitted,
        # entries 0..2 survive committed
        entries = journal.entries()
        assert [e.seq for e in entries] == [0, 1, 2, 3]
        assert [e.committed for e in entries] == [True, True, True, False]
        # the file itself was repaired: appending works and reopening is clean
        journal.append(JournalEntry(4, {"tick": 4}))
        journal.close()
        reopened = FileJournal(str(path))
        assert reopened.torn_tail is None
        assert [e.seq for e in reopened.entries()] == [0, 1, 2, 3, 4]
        reopened.close()

    def test_torn_newline_only_is_repaired_silently(self, tmp_path):
        import warnings as _warnings

        path = self._write_journal(tmp_path / "nl.journal")
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])  # the record is intact, only \n lost
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            journal = FileJournal(str(path))
        assert journal.torn_tail is None
        assert [e.committed for e in journal.entries()] == [True] * 4
        journal.append(JournalEntry(4, {}))
        journal.close()
        reopened = FileJournal(str(path))
        assert [e.seq for e in reopened.entries()] == [0, 1, 2, 3, 4]
        reopened.close()

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = self._write_journal(tmp_path / "corrupt.journal")
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"seq": 1, "inputs": {BROKEN\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(MachineError, match="not a torn tail"):
            FileJournal(str(path))

    def test_supervised_recovery_after_torn_tail(self, tmp_path):
        """End-to-end: kill a journaled machine 'mid-append' by chopping
        the file, then recover — the torn instant is simply gone, the
        machine lands exactly at the last intact instant."""
        module = parse_module(COUNTER_SOURCE)
        path = tmp_path / "machine.journal"
        machine = ReactiveMachine(module)
        sup = MachineSupervisor(machine, journal=FileJournal(str(path)))
        for _ in range(5):
            sup.react({"tick": True})
        snap_at = sup.last_checkpoint["reaction_count"]
        sup.journal.close()

        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])  # tear the final append

        recovered = ReactiveMachine(module)
        from repro.runtime.journal import TornJournalWarning

        with pytest.warns(TornJournalWarning):
            journal = FileJournal(str(path))
        assert journal.torn_tail is not None
        recovered.restore(sup.last_checkpoint)
        recovered.replay(journal.entries(snap_at))
        # the torn final record was the commit of instant 5; the entry
        # itself survived, so the replayed machine still reaches rc 5
        assert recovered.reaction_count == len(journal.entries(snap_at)) + snap_at
        journal.close()
