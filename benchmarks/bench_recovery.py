"""R2 — durable recovery on the largest Skini score (snapshot + restore
+ journal replay).

A reactive machine's between-instant state is tiny (registers + signal
``pre`` values + exec bookkeeping), so checkpoints are cheap; recovery
cost is dominated by replaying the journal tail, at roughly one
steady-state reaction per journaled instant.  Bounded-tail checkpointing
(``checkpoint_every``) is therefore what makes recovery constant-time.
Three measurements land in BENCH_recovery.json:

* ``snapshot``: snapshot / JSON round-trip / restore cost and payload
  size for the large-score machine;
* ``replay``: deterministic replay of 100 journaled instants onto a
  fresh machine — byte-identical final snapshot, cost recorded per
  instant;
* ``recovery`` (gated): crash at the worst point of a supervised run —
  just before the next checkpoint, so the journal tail is as long as it
  ever gets — and recover onto a fresh machine.  The gate is
  ``restore + tail replay < 50× one steady-state reaction``.
"""

import json
import time

import harness
from repro import MachineSupervisor, MemoryJournal, ReactiveMachine
from workloads import and_bool, mid_score, steady_ms, tick

INSTANTS = 100
CHECKPOINT_EVERY = 10
RECOVERY_GATE = 50.0


def _score_builder():
    """A zero-argument constructor for the mid-size Skini score machine."""
    module, table = mid_score()
    return lambda: ReactiveMachine(module, modules=table, host_globals={"andBool": and_bool})


def _settle(machine, instants=10):
    machine.react({})
    for _ in range(instants):
        machine.react(tick(machine.reaction_count))


def _state_digest(machine):
    return json.dumps(machine.snapshot(), sort_keys=True)


def test_snapshot_restore_round_trip_cost():
    """Checkpointing the largest score machine: snapshot, serialize to
    JSON, restore onto a fresh machine — state byte-identical."""
    build = _score_builder()
    machine = build()
    _settle(machine)
    steady = steady_ms(machine, rounds=40)

    start = time.perf_counter()
    snap = machine.snapshot()
    snapshot_ms = (time.perf_counter() - start) * 1000.0
    payload = json.dumps(snap)

    fresh = build()
    start = time.perf_counter()
    fresh.restore(json.loads(payload))
    restore_ms = (time.perf_counter() - start) * 1000.0
    assert _state_digest(fresh) == _state_digest(machine)

    harness.write(
        "recovery", "snapshot",
        {
            "workload": "skini-large-score",
            "nets": machine.stats()["nets"],
            "payload_bytes": len(payload),
            "snapshot_ms": round(snapshot_ms, 4),
            "restore_ms": round(restore_ms, 4),
            "steady_reaction_ms": round(steady, 4),
        },
    )


def test_replay_100_instants_byte_identical():
    """Deterministic replay: 100 journaled instants re-run on a fresh
    machine land on a byte-identical snapshot.  Cost is linear in the
    tail length — the reason periodic checkpoints truncate it."""
    build = _score_builder()
    machine = build()
    journal = MemoryJournal()
    machine.attach_journal(journal)
    _settle(machine)
    base = machine.snapshot()
    journal.truncate(base["reaction_count"])
    for _ in range(INSTANTS):
        machine.react(tick(machine.reaction_count))
    steady = steady_ms(machine, rounds=40)
    reference = _state_digest(machine)
    entries = journal.entries(base["reaction_count"])[:INSTANTS]
    assert len(entries) == INSTANTS

    fresh = build()
    start = time.perf_counter()
    fresh.restore(base)
    fresh.replay(entries)
    replay_ms = (time.perf_counter() - start) * 1000.0

    fresh.replay(journal.entries(base["reaction_count"] + INSTANTS))
    assert _state_digest(fresh) == reference

    harness.write(
        "recovery", "replay",
        {
            "instants": INSTANTS,
            "replay_ms": round(replay_ms, 4),
            "per_instant_us": round(1000.0 * replay_ms / INSTANTS, 2),
            "per_instant_vs_steady": round(replay_ms / INSTANTS / steady, 2),
        },
    )


def test_checkpointed_recovery_within_reaction_budget():
    """The gate: supervised run with ``checkpoint_every=10``, crash just
    before the next checkpoint (worst-case journal tail), recover onto a
    fresh machine.  Recovery (restore + tail replay) must cost less than
    50× one steady-state reaction."""
    build = _score_builder()
    reference_machine = build()
    _settle(reference_machine)
    steady = steady_ms(reference_machine, rounds=40)

    supervisor = MachineSupervisor(build(), checkpoint_every=CHECKPOINT_EVERY)
    supervisor.react({})
    for _ in range(INSTANTS):
        supervisor.react(tick(supervisor.machine.reaction_count))
    # crash at the worst point: just before the next checkpoint
    while (
        len(supervisor.journal.entries(supervisor.last_checkpoint["reaction_count"]))
        < CHECKPOINT_EVERY - 1
    ):
        supervisor.react(tick(supervisor.machine.reaction_count))
    tail = len(supervisor.journal.entries(supervisor.last_checkpoint["reaction_count"]))
    reference = _state_digest(supervisor.machine)

    samples = []
    for _ in range(15):
        fresh = build()
        samples.append(harness.time_ms(supervisor.recover, fresh))
        assert _state_digest(fresh) == reference
    recovery_ms = harness.median(samples)
    ratio = recovery_ms / steady

    harness.write(
        "recovery", "recovery",
        {
            "workload": "skini-large-score-supervised",
            "instants": INSTANTS,
            "checkpoint_every": CHECKPOINT_EVERY,
            "journal_tail": tail,
            "recovery_ms": round(recovery_ms, 4),
            "steady_reaction_ms": round(steady, 4),
            "ratio": round(ratio, 2),
            "gate": RECOVERY_GATE,
        },
    )
    assert ratio < RECOVERY_GATE, (
        f"recovery {recovery_ms:.3f} ms is {ratio:.1f}x one steady-state "
        f"reaction ({steady:.4f} ms); gate {RECOVERY_GATE:.0f}x"
    )
