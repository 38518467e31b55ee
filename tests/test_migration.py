"""Versioned state migration and zero-downtime hot program upgrade
(:mod:`repro.runtime.migrate`, ``MachineSupervisor.upgrade``;
docs/resilience.md).

The contract: a running machine's between-instant state survives a
program edit *in place*.  State whose stable key — ``(segment path,
kind, label, occurrence)`` — exists in both versions carries over
byte-exactly, state new in v2 takes a fresh machine's boot value, state
removed by the edit is dropped loudly (reported, never silently), and no
instant is dropped across the swap: every pre-upgrade reaction ran on
v1, every post-upgrade reaction runs on v2, and host effects fire
exactly once across the whole timeline.
"""

import json

import pytest

from repro import (
    ReactiveMachine,
    compile_module,
    parse_program,
)
from repro.errors import MigrationError
from repro.runtime.migrate import (
    DESCRIPTOR_FORMAT,
    migrate_snapshot,
    state_descriptor,
)
from repro.runtime.recovery import MachineSupervisor, MemoryJournal

# v1: two Worker instances. v2 (the upgrade target) edits the
# program three ways at once — input R is REMOVED, input E and output Q
# are ADDED, and the Score body changes (rebindings + a third instance of
# a new module) — while the Worker body itself is untouched, so both
# Worker instances' segments must carry byte-exactly.
V1_SRC = """
module Worker(in T, in R, out O, out P) {
  loop {
    await count(2, T.now);
    emit O;
    if (R.pre) { emit P; }
    yield;
  }
}
module Score(in T, in R, out O, out P) {
  fork { run Worker(...); }
  par { run Worker(T as R, R as T, O as P, P as O); }
}
"""

V2_SRC = """
module Worker(in T, in R, out O, out P) {
  loop {
    await count(2, T.now);
    emit O;
    if (R.pre) { emit P; }
    yield;
  }
}
module Extra(in E, out Q) {
  loop { await E.now; emit Q; yield; }
}
module Score(in T, in E, out O, out P, out Q) {
  fork { run Worker(R as E, ...); }
  par { run Worker(T as E, R as T, O as P, P as O); }
  par { run Extra(...); }
}
"""

V1_STEPS = [{"T": True, "R": True}, {"T": True}, {"R": True}]
V2_STEPS = [{"T": True, "E": True}, {"T": True}, {"E": True}, {"T": True}]


def _compiled(src, name="Score"):
    table = parse_program(src)
    return compile_module(table.get(name), table), table


def _migrated_machine(v1_machine, v1_compiled, v2_compiled):
    """Migrate the way the supervisors do: boot defaults plus a post-boot
    probe so instances new in v2 start reacting immediately."""
    snap = v1_machine.snapshot()
    boot_machine = ReactiveMachine(v2_compiled)
    probe = ReactiveMachine(v2_compiled)
    probe.react({})
    migrated, report = migrate_snapshot(
        snap,
        state_descriptor(v1_compiled),
        state_descriptor(v2_compiled),
        boot_machine.snapshot(),
        probe.snapshot(),
    )
    boot_machine.restore(migrated)
    return boot_machine, report


class TestStateDescriptor:
    def test_descriptor_is_jsonable_and_versioned(self):
        compiled, _ = _compiled(V1_SRC)
        desc = state_descriptor(compiled)
        assert desc["format"] == DESCRIPTOR_FORMAT
        assert desc["fingerprint"] == compiled.fingerprint
        assert json.loads(json.dumps(desc)) == desc

    def test_keys_cover_every_snapshot_slot(self):
        compiled, _ = _compiled(V1_SRC)
        desc = state_descriptor(compiled)
        snap = ReactiveMachine(compiled).snapshot()
        assert len(desc["registers"]) == len(snap["registers"])
        assert len(desc["signals"]) == len(snap["signals"])
        assert len(desc["counters"]) == len(snap["counters"])
        assert len(desc["counter_arities"]) == len(desc["counters"])
        assert len(desc["execs"]) == len(snap["execs"])

    def test_linked_instances_get_distinct_segment_paths(self):
        compiled, _ = _compiled(V1_SRC)
        desc = state_descriptor(compiled)
        paths = {key[0] for key in desc["registers"]}
        assert "/Worker#0" in paths and "/Worker#1" in paths

    def test_keys_are_unique(self):
        compiled, _ = _compiled(V2_SRC)
        desc = state_descriptor(compiled)
        for table in ("registers", "signals", "counters", "execs"):
            keys = [tuple(k) for k in desc[table]]
            assert len(keys) == len(set(keys)), f"duplicate {table} keys"


# Two levels of instances: Level2 runs Level1 twice, each Level1 runs
# Worker twice.  A Worker owns a local signal, counters and registers.
NESTED_SRC = """
module Worker(in T, in R, out O, out P) {
  signal L;
  loop {
    await count(2, T.now);
    emit L;
    if (L.now) { emit O; }
    if (R.pre) { emit P; }
    yield;
  }
}
module Level1(in T, in R, out O, out P) {
  fork { run Worker(...); } par { run Worker(T as R, R as T, ...); }
}
module Level2(in T, in R, out O, out P) {
  fork { run Level1(...); } par { run Level1(...); }
}
"""

#: NESTED_SRC with a third Worker in every Level1
NESTED_V2_SRC = NESTED_SRC.replace(
    "par { run Worker(T as R, R as T, ...); }",
    "par { run Worker(T as R, R as T, ...); } par { run Worker(...); }",
)

NESTED_STEPS = [{"T": True}, {"R": True}, {"T": True, "R": True}, {"T": True}, {}]


#: every kind of state on both levels: Level1 itself owns an exec, a
#: local signal and registers beside its two Workers
STATEFUL_SRC = """
module Worker(in T, in R, out O, out P) {
  signal L;
  loop {
    await count(2, T.now);
    emit L;
    if (L.now) { emit O; }
    async { nothing(); }
  }
}
module Level1(in T, in R, out O, out P) {
  fork { async { nothing(); } }
  par { signal M; await T.now; emit M; }
  par { run Worker(...); }
  par { run Worker(T as R, R as T, ...); }
}
module Level2(in T, in R, out O, out P) {
  fork { run Level1(...); } par { run Level1(...); }
}
"""


def _segments(src, name="Level2"):
    compiled, _ = _compiled(src, name)
    return compiled, compiled.circuit.segments


def _keyed(compiled, snap):
    """``{stable key: value}`` over every state table of ``snap``."""
    desc = state_descriptor(compiled)
    return {
        tuple(key): value
        for table in ("registers", "signals", "counters", "execs")
        for key, value in zip(desc[table], snap[table])
    }


class TestInstanceSegments:
    """Inlined ``run`` instances record their own state segments."""

    def test_nested_instances_number_within_their_parent(self):
        _, segments = _segments(NESTED_SRC)
        assert [seg.path for seg in segments] == [
            "/Level1#0",
            "/Level1#0/Worker#0",
            "/Level1#0/Worker#1",
            "/Level1#1",
            "/Level1#1/Worker#0",
            "/Level1#1/Worker#1",
        ]
        assert [seg.module for seg in segments] == [
            "Level1", "Worker", "Worker", "Level1", "Worker", "Worker",
        ]

    def test_state_lies_in_at_most_one_segment(self):
        compiled, segments = _segments(STATEFUL_SRC)
        circuit = compiled.circuit
        for attr in ("registers", "signal_slots", "counter_slots", "exec_slots"):
            owned = [
                id(item) if attr == "registers" else item
                for seg in segments
                for item in getattr(seg, attr)
            ]
            assert len(owned) == len(set(owned)), f"{attr} owned twice"
        workers = [seg for seg in segments if seg.module == "Worker"]
        levels = [seg for seg in segments if seg.module == "Level1"]
        for seg in workers + levels:
            assert seg.registers and seg.signal_slots and seg.exec_slots, seg
        for seg in workers:
            assert seg.counter_slots, seg
        # every instance of one module owns the same share, and nothing
        # it owns is a machine interface signal
        for group in (workers, levels):
            shapes = {
                (len(seg.registers), len(seg.signal_slots),
                 len(seg.counter_slots), len(seg.exec_slots))
                for seg in group
            }
            assert len(shapes) == 1, shapes
        iface = {info.slot for info in circuit.interface.values()}
        assert not iface & {s for seg in segments for s in seg.signal_slots}
        live = {id(net) for net in circuit.nets}
        assert all(id(reg) in live for seg in segments for reg in seg.registers)

    def test_loop_duplicated_copies_get_distinct_paths(self):
        table = parse_program(
            NESTED_SRC
            + """
module Looped(in T, in R, out O, out P) {
  loop { run Worker(...); }
}
"""
        )
        compiled = compile_module(table.get("Looped"), table)
        segments = compiled.circuit.segments
        # a Worker owns a local signal, so the loop body is translated
        # twice: one instance per copy
        assert [seg.path for seg in segments] == ["/Worker#0", "/Worker#1"]
        first, second = segments
        assert first.signal_slots != second.signal_slots
        assert not {id(r) for r in first.registers} & {id(r) for r in second.registers}
        desc = state_descriptor(compiled)
        paths = {key[0] for key in desc["signals"]}
        assert {"/Worker#0", "/Worker#1"} <= paths

    def test_every_key_survives_adding_an_instance(self):
        """A third Worker in each Level1 moves no v1 key, exec registers
        included: an exec is numbered within its instance."""
        v2_src = STATEFUL_SRC.replace(
            "  par { run Worker(T as R, R as T, ...); }\n}",
            "  par { run Worker(T as R, R as T, ...); }\n"
            "  par { run Worker(...); }\n}",
        )
        keys = []
        for src in (STATEFUL_SRC, v2_src):
            desc = state_descriptor(_compiled(src, "Level2")[0])
            keys.append({
                tuple(key)
                for table in ("registers", "signals", "counters", "execs")
                for key in desc[table]
            })
        v1_keys, v2_keys = keys
        assert ("/Level1#1/Worker#1", "reg", "exec0.sel", 0) in v1_keys
        assert v1_keys < v2_keys, sorted(v1_keys - v2_keys)

    def test_adding_an_instance_carries_every_other_byte_exactly(self):
        """v2 runs a third Worker in each Level1.  Numbering within the
        enclosing instance keeps every v1 Worker's keys, so all their
        state lands on v2 unchanged and nothing is dropped."""
        v1, _ = _compiled(NESTED_SRC, "Level2")
        v2, _ = _compiled(NESTED_V2_SRC, "Level2")
        machine = ReactiveMachine(v1)
        for step in NESTED_STEPS:
            machine.react(step)
        target, report = _migrated_machine(machine, v1, v2)
        assert not report.dropped, report.dropped

        before = _keyed(v1, machine.snapshot())
        after = _keyed(v2, target.snapshot())
        workers = {
            key: value for key, value in before.items() if "/Worker#" in key[0]
        }
        assert any(workers.values()), "the v1 Workers hold no state to carry"
        assert {key: after[key] for key in workers} == workers
        assert any(key[0].endswith("/Worker#2") for key in after)


class TestMigrateSnapshot:
    def test_identical_program_is_positional_copy(self):
        compiled, _ = _compiled(V1_SRC)
        machine = ReactiveMachine(compiled)
        for step in V1_STEPS:
            machine.react(step)
        desc = state_descriptor(compiled)
        snap = machine.snapshot()
        boot = ReactiveMachine(compiled).snapshot()
        migrated, report = migrate_snapshot(snap, desc, desc, boot)
        assert report.identical
        assert migrated == dict(snap)

    def test_cross_version_carries_initializes_and_drops(self):
        v1, _ = _compiled(V1_SRC)
        v2, _ = _compiled(V2_SRC)
        machine = ReactiveMachine(v1)
        for step in V1_STEPS:
            machine.react(step)
        target, report = _migrated_machine(machine, v1, v2)
        assert not report.identical
        # untouched Worker segments carry
        assert any(key.startswith("/Worker#0:") for key in report.carried)
        assert any(key.startswith("/Worker#1:") for key in report.carried)
        # the new module and the new input boot fresh
        assert any(key.startswith("/Extra#0:") for key in report.initialized)
        assert any(":sig:E#" in key for key in report.initialized)
        # the removed input is dropped loudly
        assert any(":sig:R#" in key for key in report.dropped)
        assert target.reaction_count == machine.reaction_count

    def test_carried_worker_state_is_byte_exact(self):
        """The migrated machine's Worker segments hold exactly the values
        the v1 machine had: its future behaviour on the carried instances
        matches a v1 machine that was never upgraded."""
        v1, _ = _compiled(V1_SRC)
        v2, _ = _compiled(V2_SRC)
        machine = ReactiveMachine(v1)
        continuation = ReactiveMachine(v1)
        for step in V1_STEPS:
            machine.react(step)
            continuation.react(step)
        target, _ = _migrated_machine(machine, v1, v2)
        # drive both; v2's first Worker sees T, the v1 oracle's too — the
        # second instance's bindings changed, so compare the first only
        for step in [{"T": True}, {}, {"T": True}, {"T": True}]:
            got = target.react(step)
            want = continuation.react(step)
            assert got.get("O") == want.get("O"), (
                "carried Worker instance diverged from the v1 continuation"
            )

    def test_counter_arity_change_rearms_fresh(self):
        v2b_src = V1_SRC.replace("count(2, T.now)", "count(4, T.now)")
        v1, _ = _compiled(V1_SRC)
        v2b, _ = _compiled(v2b_src)
        machine = ReactiveMachine(v1)
        machine.react({"T": True})  # counters hold 1 of 2
        target, report = _migrated_machine(machine, v1, v2b)
        counter_inits = [k for k in report.initialized if ":counter:" in k]
        counter_drops = [k for k in report.dropped if ":counter:" in k]
        assert counter_inits and counter_drops, report.summary()
        snap = target.snapshot()
        boot = ReactiveMachine(v2b).snapshot()
        assert snap["counters"] == boot["counters"], (
            "a count accumulated under different arming semantics leaked"
        )

    def test_new_parallel_branch_starts_at_next_instant(self):
        """A ``run`` instance grafted into an already-running parallel
        can never re-receive the boot pulse the old program consumed.
        Seeded from the post-boot probe it starts reacting at the next
        instant (HipHop.js's appended-branch semantics); without the
        probe it stays dormant until a restart."""
        v1, _ = _compiled(V1_SRC)
        v2, _ = _compiled(V2_SRC)

        def emitted_q(started):
            machine = ReactiveMachine(v1)
            for step in V1_STEPS:
                machine.react(dict(step))
            boot = ReactiveMachine(v2)
            extra = [boot.snapshot()]
            if started:
                probe = ReactiveMachine(v2)
                probe.react({})
                extra.append(probe.snapshot())
            migrated, _ = migrate_snapshot(
                machine.snapshot(),
                state_descriptor(v1),
                state_descriptor(v2),
                *extra,
            )
            boot.restore(migrated)
            return any("Q" in boot.react({"E": True}) for _ in range(4))

        assert emitted_q(started=True)
        assert not emitted_q(started=False)

    def test_format_mismatch_refused(self):
        compiled, _ = _compiled(V1_SRC)
        machine = ReactiveMachine(compiled)
        desc = state_descriptor(compiled)
        bad = dict(desc, format=99)
        boot = ReactiveMachine(compiled).snapshot()
        with pytest.raises(MigrationError, match="format"):
            migrate_snapshot(machine.snapshot(), bad, desc, boot)
        with pytest.raises(MigrationError, match="format"):
            migrate_snapshot(machine.snapshot(), desc, bad, boot)

    def test_wrong_snapshot_for_descriptor_refused(self):
        v1, _ = _compiled(V1_SRC)
        v2, _ = _compiled(V2_SRC)
        stranger = ReactiveMachine(v2)
        boot = ReactiveMachine(v2).snapshot()
        with pytest.raises(MigrationError, match="fingerprint"):
            migrate_snapshot(
                stranger.snapshot(),
                state_descriptor(v1),
                state_descriptor(v2),
                boot,
            )

    def test_stale_boot_snapshot_refused(self):
        v1, _ = _compiled(V1_SRC)
        v2, _ = _compiled(V2_SRC)
        machine = ReactiveMachine(v1)
        wrong_boot = ReactiveMachine(v1).snapshot()  # v1 boot for v2 target
        with pytest.raises(MigrationError, match="boot snapshot"):
            migrate_snapshot(
                machine.snapshot(),
                state_descriptor(v1),
                state_descriptor(v2),
                wrong_boot,
            )


class TestSupervisorUpgrade:
    def test_upgrade_swaps_machine_and_checkpoints(self):
        v1, _ = _compiled(V1_SRC)
        v2, _ = _compiled(V2_SRC)
        supervisor = MachineSupervisor(ReactiveMachine(v1), MemoryJournal())
        for step in V1_STEPS:
            supervisor.react(step)
        report = supervisor.upgrade(ReactiveMachine(v2))
        assert supervisor.machine.compiled is v2
        assert supervisor.stats["upgrades"] == 1
        assert report.carried and report.initialized and report.dropped
        # the journal now belongs to the successor: a crash after the
        # upgrade recovers the v2 machine at the upgrade boundary
        digest = supervisor.machine.state_digest()
        recovered = supervisor.recover(ReactiveMachine(v2))
        assert recovered.state_digest() == digest
        # and it keeps reacting as v2: the grafted Extra branch was
        # seeded post-boot, so its armed await fires on the first E
        assert any("Q" in supervisor.react({"E": True}) for _ in range(4))

    def test_upgrade_refuses_used_target(self):
        v1, _ = _compiled(V1_SRC)
        v2, _ = _compiled(V2_SRC)
        supervisor = MachineSupervisor(ReactiveMachine(v1), MemoryJournal())
        used = ReactiveMachine(v2)
        used.react({})
        with pytest.raises(MigrationError, match="fresh"):
            supervisor.upgrade(used)


class TestHotUpgrade:
    """The acceptance property: a supervised machine hot-upgrades v1 -> v2
    mid-run with zero dropped instants, byte-exact carried state, and an
    exactly-once host-effect ledger equal to the oracle's."""

    EFFECTS = ("O", "P", "Q")

    def _oracle_ledger(self, v1, v2):
        """Drive v1 then migrate to v2 in-process: the reference timeline
        a hot-upgraded machine must reproduce exactly."""
        machine = ReactiveMachine(v1)
        ledger = []
        seq = 0
        for inputs in V1_STEPS:
            emitted = dict(machine.react(dict(inputs)))
            for name in self.EFFECTS:
                if name in emitted:
                    ledger.append((seq, name, emitted[name]))
            seq += 1
        machine, _ = _migrated_machine(machine, v1, v2)
        for inputs in V2_STEPS:
            emitted = dict(machine.react(dict(inputs)))
            for name in self.EFFECTS:
                if name in emitted:
                    ledger.append((seq, name, emitted[name]))
            seq += 1
        return machine, ledger

    def _record_effects(self, machine, ledger):
        """Append ``(instant, signal, value)`` to ``ledger`` for every
        effect signal ``machine`` emits.  An upgrade may add or remove
        outputs, so names this program version lacks are skipped."""
        for name in self.EFFECTS:
            if name not in machine.compiled.circuit.interface:
                continue
            machine.add_listener(
                name,
                lambda value, name=name: ledger.append(
                    (machine.reaction_count - 1, name, value)
                ),
            )

    def test_supervised_hot_upgrade_matches_oracle(self):
        v1, _ = _compiled(V1_SRC)
        v2, _ = _compiled(V2_SRC)
        oracle, expected_ledger = self._oracle_ledger(v1, v2)

        ledger = []
        supervisor = MachineSupervisor(ReactiveMachine(v1), MemoryJournal())
        self._record_effects(supervisor.machine, ledger)
        for inputs in V1_STEPS:
            supervisor.react(dict(inputs))

        successor = ReactiveMachine(v2)
        self._record_effects(successor, ledger)
        report = supervisor.upgrade(successor)
        assert any(key.startswith("/Worker#") for key in report.carried)

        for inputs in V2_STEPS:
            supervisor.react(dict(inputs))

        # zero dropped instants: the reaction counter is continuous
        # across the swap, and the end state equals the oracle's
        assert supervisor.machine.state_digest() == oracle.state_digest()
        assert ledger == expected_ledger, (
            "host effects lost or duplicated across the upgrade"
        )
