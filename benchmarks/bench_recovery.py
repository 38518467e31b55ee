"""R2 — durable recovery on the mid-size Skini score (snapshot + restore
+ journal replay), and the cost of a checkpoint on the paper-scale one.

A reactive machine's between-instant state is tiny (registers + signal
``pre`` values + exec bookkeeping), so checkpoints are cheap; recovery
cost is dominated by replaying the journal tail, at roughly one
steady-state reaction per journaled instant.  Bounded-tail checkpointing
(``checkpoint_every``) is therefore what makes recovery constant-time.
Four measurements land in BENCH_recovery.json:

* ``snapshot``: snapshot / JSON round-trip / restore cost and payload
  size for the 724-net score machine;
* ``replay``: deterministic replay of 100 journaled instants onto a
  fresh machine — byte-identical final snapshot, cost recorded per
  instant;
* ``recovery`` (gated): crash at the worst point of a supervised run —
  just before the next checkpoint, so the journal tail is as long as it
  ever gets — and recover onto a fresh machine.  The gate is
  ``restore + tail replay < 50× one steady-state reaction``;
* ``checkpoint`` (gated): on the 10,247-net score, interleaved rounds of
  one steady supervised reaction and one ``checkpoint()``.  A sparse
  checkpoint rebuilds only the signal rows that changed and keeps its
  rollback point unsealed, so the gate is ``checkpoint median ≤ 3× the
  reaction median``; young collections per 100 checkpoints are recorded
  beside it as a work count.
"""

import gc
import json
import time

import harness
from repro import MachineSupervisor, MemoryJournal, ReactiveMachine
from repro.apps.skini import make_large_score
from repro.apps.skini.score import generate_score_module
from workloads import and_bool, mid_score, steady_ms, tick

INSTANTS = 100
CHECKPOINT_EVERY = 10
RECOVERY_GATE = 50.0
#: the paper-scale score: sections, groups per section, patterns per group
PAPER_SCORE = (115, 5, 6)
CHECKPOINT_ROUNDS = 300
CHECKPOINT_GATE = 3.0


def _score_builder():
    """A zero-argument constructor for the mid-size Skini score machine."""
    module, table = mid_score()
    return lambda: ReactiveMachine(module, modules=table, host_globals={"andBool": and_bool})


def _settle(machine, instants=10):
    machine.react({})
    for _ in range(instants):
        machine.react(tick(machine.reaction_count))


def test_snapshot_restore_round_trip_cost():
    """Checkpointing the mid-size score machine: snapshot, serialize to
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
    assert fresh.state_digest() == machine.state_digest()

    harness.write(
        "recovery", "snapshot",
        {
            "workload": "skini-mid-score",
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
    reference = machine.state_digest()
    entries = journal.entries(base["reaction_count"])[:INSTANTS]
    assert len(entries) == INSTANTS

    fresh = build()
    start = time.perf_counter()
    fresh.restore(base)
    fresh.replay(entries)
    replay_ms = (time.perf_counter() - start) * 1000.0

    fresh.replay(journal.entries(base["reaction_count"] + INSTANTS))
    assert fresh.state_digest() == reference

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
    reference = supervisor.machine.state_digest()

    samples = []
    for _ in range(15):
        fresh = build()
        samples.append(harness.time_ms(supervisor.recover, fresh))
        assert fresh.state_digest() == reference
    recovery_ms = harness.median(samples)
    ratio = recovery_ms / steady

    harness.write(
        "recovery", "recovery",
        {
            "workload": "skini-mid-score-supervised",
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


def test_checkpoint_costs_what_changed():
    """The gate: a supervised checkpoint of the 10,247-net score costs
    about one steady supervised reaction, not a whole-state snapshot.
    Each round times one reaction, then one ``checkpoint()``; the
    checkpoint median must be at most 3× the reaction median.  Young
    collections over the rounds are recorded per 100 checkpoints: a
    checkpoint that rebuilds every row allocates enough to trigger about
    one per round."""
    module, table = generate_score_module(make_large_score(*PAPER_SCORE))
    machine = ReactiveMachine(module, modules=table, host_globals={"andBool": and_bool})
    supervisor = MachineSupervisor(machine)
    supervisor.react({})
    for _ in range(10):
        supervisor.react(tick(machine.reaction_count))

    react_ms, checkpoint_ms = [], []
    young = gc.get_stats()[0]["collections"]
    for _ in range(CHECKPOINT_ROUNDS):
        react_ms.append(harness.time_ms(supervisor.react, tick(machine.reaction_count)))
        checkpoint_ms.append(harness.time_ms(supervisor.checkpoint))
    young = gc.get_stats()[0]["collections"] - young
    reaction, checkpoint = harness.median(react_ms), harness.median(checkpoint_ms)
    ratio = checkpoint / reaction

    harness.write(
        "recovery", "checkpoint",
        {
            "workload": "skini-paper-score-supervised",
            "nets": machine.stats()["nets"],
            "signals": len(machine.snapshot()["signals"]),
            "rounds": CHECKPOINT_ROUNDS,
            "reaction_ms": round(reaction, 4),
            "checkpoint_ms": round(checkpoint, 4),
            "ratio": round(ratio, 2),
            "young_collections_per_100": round(100.0 * young / CHECKPOINT_ROUNDS, 1),
            "gate": CHECKPOINT_GATE,
        },
    )
    assert ratio <= CHECKPOINT_GATE, (
        f"checkpoint {checkpoint:.4f} ms is {ratio:.1f}x one steady supervised "
        f"reaction ({reaction:.4f} ms); gate {CHECKPOINT_GATE:.0f}x"
    )
