"""Checkpoints that cost what changed (docs/resilience.md §5).

A snapshot's signal rows are immutable tuples.  On the sparse backend a
capture reuses the previous capture's rows and rebuilds only the slots
its reactions touched since; anything that rewrites signals outside that
tracking (a full sweep, a failed reaction, ``restore``, ``reset``, a
lockstep demotion) makes the next capture build every row afresh.  These
tests pin that invalidation, where a payload is sealed with a checksum
(``snapshot()``, ``on_checkpoint``) and where it is not (the supervisor's
in-memory rollback point), and the bounds of the structures involved.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    MachineError,
    MachineSupervisor,
    MemoryJournal,
    ReactiveMachine,
    SnapshotError,
    parse_module,
)
from repro.errors import ReactionBudgetExceeded
from repro.runtime.machine import snapshot_checksum

#: valued signals, a combine (S on A and B together), a valued local
#: re-initialized on every abort (init_signal), and a sustained output
ROWS_SOURCE = """
module Rows(in A, in B, in R, out S = 0 combine plus, out T = 0, out U) {
  fork {
    loop {
      if (A.now) { emit S(A.nowval) }
      if (B.now) { emit S(2) }
      pause;
    }
  } par {
    every (S.now) { emit T(S.nowval + T.preval) }
  } par {
    loop {
      abort (R.now) {
        signal L = 0;
        loop { if (B.now) { emit L(B.nowval) } if (L.now) { emit U(L.nowval) } pause; }
      }
    }
  }
}
"""

HOST = {"plus": lambda a, b: a + b}


def _machine(backend="sparse"):
    machine = ReactiveMachine(parse_module(ROWS_SOURCE), host_globals=HOST, backend=backend)
    if backend == "sparse":
        assert machine._scheduler.sparse
    return machine


def _fresh_rows(machine):
    return [(s.now, s.pre, s.nowval, s.preval, s.emitted) for s in machine._signals]


_INPUTS = st.fixed_dictionaries(
    {},
    optional={
        "A": st.integers(0, 9),
        "B": st.integers(0, 9),
        "R": st.just(True),
    },
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("react"), _INPUTS),
        st.tuples(st.just("react"), _INPUTS),
        st.tuples(st.just("unknown_input"), _INPUTS),
        st.tuples(st.just("budget_abort"), _INPUTS, st.integers(1, 12)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore"), st.integers(0, 7)),
        st.tuples(st.just("reset")),
        st.tuples(st.just("replay"), st.lists(_INPUTS, max_size=4)),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_OPS)
def test_reused_rows_equal_a_fresh_capture(ops):
    """After every operation, the rows a sparse capture reuses and
    rebuilds equal rows built from scratch — whatever the operation left
    behind: a reaction, an aborted one, a restore, a reset or a replay."""
    machine = _machine()
    saved = [machine.snapshot()]
    for op in ops:
        kind = op[0]
        if kind == "react":
            machine.react(op[1])
        elif kind == "unknown_input":
            # the known inputs are written before the unknown name aborts
            with pytest.raises(MachineError, match="unknown input"):
                machine.react({**op[1], "nope": True})
        elif kind == "budget_abort":
            try:
                machine.react(op[1], budget=op[2])
            except ReactionBudgetExceeded:
                pass
        elif kind == "snapshot":
            saved.append(machine.snapshot())
        elif kind == "restore":
            machine.restore(saved[op[1] % len(saved)])
        elif kind == "reset":
            machine.reset()
        else:
            base = machine.snapshot()
            journal = machine.attach_journal(MemoryJournal())
            for inputs in op[1]:
                machine.react(inputs)
            digest = machine.state_digest()
            machine.attach_journal(None)
            machine.restore(base)
            machine.replay(journal.entries(base["reaction_count"]))
            assert machine.state_digest() == digest
        assert machine.snapshot()["signals"] == _fresh_rows(machine), op


def test_quiet_capture_rebuilds_only_touched_rows():
    """Between two captures of a sparse machine, only the slots its
    reactions touched are rebuilt; every other row is the same object."""
    machine = _machine()
    machine.react({})
    machine.react({"A": 3})
    first = machine.snapshot()["signals"]
    machine.react({"A": 4})
    assert machine._recapture
    assert len(machine._recapture) < len(machine._signals)
    second = machine.snapshot()["signals"]
    assert not machine._recapture
    assert second == _fresh_rows(machine)
    assert all(isinstance(row, tuple) for row in second)
    untouched = [slot for slot in range(len(second)) if second[slot] is first[slot]]
    assert untouched
    # the returned list is the caller's: editing it leaves the next capture alone
    second[0] = None
    assert machine.snapshot()["signals"] == _fresh_rows(machine)


@pytest.mark.parametrize("seed", range(6))
def test_reused_registers_equal_a_fresh_capture(seed, monkeypatch):
    """Seeded sparse traces through a supervisor, with checkpoints,
    rollbacks (budget aborts and unknown inputs), restores and resets:
    every capture's register row equals one built from scratch, and no
    capture shares a list with another, so a later capture never
    rewrites an earlier rollback point."""
    captures = []
    reused = []
    capture = ReactiveMachine._capture

    def recorded(self):
        reused.append(self._rows is not None)
        snap = capture(self)
        assert snap["registers"] == [1 if v else 0 for v in self._scheduler.state]
        captures.append((snap, list(snap["registers"]), list(snap["signals"])))
        return snap

    monkeypatch.setattr(ReactiveMachine, "_capture", recorded)
    rng = random.Random(seed)
    machine = _machine()

    def supervise():
        # a fresh journal: restore and reset move the instant count back
        return MachineSupervisor(
            machine, checkpoint_every=3, max_retries=0, quarantine_after=10**6
        )

    supervisor = supervise()
    saved = [machine.snapshot()]
    for _ in range(150):
        inputs = {name: rng.randrange(10) for name in ("A", "B") if rng.random() < 0.5}
        if rng.random() < 0.2:
            inputs["R"] = True
        roll = rng.random()
        if roll < 0.7:
            supervisor.react(inputs)
        elif roll < 0.8:
            try:
                supervisor.react(inputs, budget=rng.randint(1, 8))
            except ReactionBudgetExceeded:
                pass
        elif roll < 0.85:
            with pytest.raises(MachineError, match="unknown input"):
                supervisor.react({**inputs, "nope": True})
        elif roll < 0.9:
            saved.append(machine.snapshot())
        elif roll < 0.96:
            machine.restore(rng.choice(saved))
            supervisor = supervise()
        else:
            machine.reset()
            supervisor = supervise()
        assert len(machine._relatch or ()) <= len(machine._scheduler.state)
    assert sum(reused) >= 10  # captures that patched the kept rows
    for snap, registers, signals in captures:
        assert snap["registers"] == registers
        assert snap["signals"] == signals
    lists = [id(snap["registers"]) for snap, _, _ in captures]
    assert len(set(lists)) == len(lists)


def test_non_sparse_backends_keep_no_rows():
    for backend in ("levelized", "worklist"):
        machine = _machine(backend)
        machine.react({"A": 1})
        machine.snapshot()
        machine.react({"B": 2})
        assert machine._rows is None
        assert machine.snapshot()["signals"] == _fresh_rows(machine)


@pytest.mark.parametrize("backend", ("sparse", "levelized", "worklist"))
def test_state_digest_is_the_snapshot_checksum(backend):
    machine = _machine(backend)
    for inputs in ({}, {"A": 2, "B": 5}, {"R": True}, {"B": 1}):
        machine.react(inputs)
        assert machine.state_digest() == machine.snapshot()["checksum"]


def test_sealed_json_is_unchanged_by_tuple_rows():
    """Tuple rows render to the same JSON as list rows, so a snapshot's
    bytes and checksum do not depend on which form the rows took."""
    machine = _machine()
    machine.react({})
    machine.react({"A": 2, "B": 3})
    snap = machine.snapshot()
    as_lists = {**snap, "signals": [list(row) for row in snap["signals"]]}
    assert json.dumps(as_lists, sort_keys=True) == json.dumps(snap, sort_keys=True)
    assert snapshot_checksum(as_lists) == snap["checksum"]


class TestSupervisorSealing:
    STEPS = [{}, {"A": 3}, {"A": 1, "B": 4}, {"B": 2}, {"R": True}, {"A": 5}, {}, {"B": 6}]

    def test_rollback_point_unsealed_and_persisted_payload_sealed(self):
        persisted = []
        machine = _machine()
        supervisor = MachineSupervisor(machine, checkpoint_every=3, on_checkpoint=persisted.append)
        for inputs in self.STEPS:
            supervisor.react(inputs)
        assert supervisor.stats["checkpoints"] == len(persisted) >= 3
        assert "checksum" not in supervisor.last_checkpoint
        for payload in persisted:
            assert payload["checksum"] == snapshot_checksum(payload)
        latest = persisted[-1]
        assert {k: v for k, v in latest.items() if k != "checksum"} == supervisor.last_checkpoint

        # what left the process is verified on the way back in
        fresh = _machine()
        fresh.restore(json.loads(json.dumps(latest)))
        evil = json.loads(json.dumps(latest))
        evil["registers"][0] ^= 1
        with pytest.raises(SnapshotError, match="checksum"):
            _machine().restore(evil)

    @pytest.mark.parametrize("failure", ("unknown_input", "budget_abort"))
    def test_rollback_lands_on_the_levelized_reference(self, failure):
        machine = _machine()
        supervisor = MachineSupervisor(machine, checkpoint_every=3)
        reference = _machine("levelized")
        for inputs in self.STEPS:
            supervisor.react(inputs)
            reference.react(inputs)
            if failure == "unknown_input":
                with pytest.raises(MachineError):
                    supervisor.react({**inputs, "nope": True})
            else:
                with pytest.raises(ReactionBudgetExceeded):
                    supervisor.react({"A": 7, "B": 7}, budget=2)
            assert machine.state_digest() == reference.state_digest()
            assert machine.snapshot()["signals"] == _fresh_rows(machine)
        assert supervisor.stats["rollbacks"] == 2 * len(self.STEPS)


class TestBounds:
    @pytest.mark.parametrize("every", (1, 3, 5))
    def test_journal_between_checkpoints_stays_under_the_period(self, every):
        """With ``checkpoint_every=k`` the journal holds fewer than k
        entries after every supervised reaction, a rolled-back one too."""
        supervisor = MachineSupervisor(_machine(), checkpoint_every=every, max_retries=0)
        for step in range(40):
            supervisor.react({"A": step % 4} if step % 3 else {"B": step % 5})
            assert len(supervisor.journal) < every
            if step % 7 == 0:
                with pytest.raises(MachineError):
                    supervisor.react({"nope": True})
                assert len(supervisor.journal) < every

    def test_slots_awaiting_recapture_bounded_by_signal_count(self):
        machine = _machine()
        machine.react({})
        machine.snapshot()
        count = len(machine._signals)
        for step in range(200):
            machine.react({"A": step, "B": step % 3} if step % 2 else {"R": True})
            assert machine._rows is not None
            assert len(machine._recapture) <= count
            assert machine._recapture <= set(range(count))
