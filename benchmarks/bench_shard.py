"""S1 — sharded fleets: live migration cost and multi-core ``react_all``
throughput on the large Skini score.

Two measurements land in BENCH_shard.json:

* ``migration`` (gated, always asserted): live-migrate a large-score
  machine between two worker processes — drain + snapshot + ship +
  restore, between instants, zero dropped inputs.  The gate is
  ``migration < 50x one steady-state reaction`` of the same machine:
  migration must stay in the same cost class as the checkpointed crash
  recovery it reuses (bench_recovery R2), not a stop-the-world event.

* ``throughput`` (recorded always, asserted only on >= 4 usable cores):
  ``ShardManager.react_all`` over 4 worker processes vs a single-process
  ``MachineFleet.react_all`` on the same fleet of large-score machines.
  The gate is ``>= 2x`` single-process throughput — the point of
  sharding the GIL away.  On fewer cores the ratio is still recorded
  (with a ``skipped`` note) since parallel speedup is physically
  unavailable.
"""

import json
import tempfile
import time

import harness
from repro import MachineFleet, ReactiveMachine, ShardManager
from workloads import and_bool, mid_score, steady_ms, tick

#: full and quick profile sizes (see harness.pick)
FULL = dict(members=16, instants=12, settle=5, migration_rounds=10, shards=4)
QUICK = dict(members=6, instants=6, settle=3, migration_rounds=4, shards=4)

MIGRATION_GATE = 50.0
THROUGHPUT_GATE = 2.0
MIN_CORES_FOR_GATE = 4


def test_live_migration_within_reaction_budget():
    """The gate: migrating a large-score machine between worker
    processes (drain + snapshot + ship + restore) costs less than 50x
    one steady-state *sharded* reaction of that machine — i.e. one
    ``react_member`` driven over the same pipe, the unit of work a
    deployment actually pays per instant.  (The raw in-process reaction
    is also recorded; on the sparse backend it is nearly free, so any
    cross-process operation dwarfs it.)"""
    profile = harness.pick(FULL, QUICK)
    module, table = mid_score()
    host_globals = {"andBool": and_bool}

    oracle = ReactiveMachine(module, modules=table, host_globals=host_globals)
    oracle.react({})
    for _ in range(profile["settle"]):
        oracle.react(tick(oracle.reaction_count))
    local_steady = steady_ms(oracle, rounds=30)

    with tempfile.TemporaryDirectory() as tmp, ShardManager(
        module,
        modules=table,
        shards=2,
        size=1,
        journal_dir=tmp,
        machine_kwargs={"host_globals": host_globals},
    ) as manager:
        manager.react_member(0, {})
        for _ in range(profile["settle"]):
            rc = manager.react_member(0, tick(0))["reaction_count"]
        steady_samples = []
        for n in range(30):
            start = time.perf_counter()
            rc = manager.react_member(0, tick(rc + n))["reaction_count"]
            steady_samples.append((time.perf_counter() - start) * 1000.0)
        steady = harness.median(steady_samples)
        workers = manager.live_workers()
        samples = []
        for i in range(profile["migration_rounds"]):
            samples.append(harness.time_ms(manager.migrate, 0, workers[(i + 1) % 2].id))
            # the machine still reacts correctly where it landed
            rc2 = manager.react_member(0, tick(rc + i))["reaction_count"]
            assert rc2 > rc
        migration_ms = harness.median(samples)
        assert manager.stats["migrations"] == profile["migration_rounds"]
    snapshot_bytes = len(json.dumps(oracle.snapshot()))

    ratio = migration_ms / steady
    harness.write(
        "shard", "migration",
        {
            "workload": "skini-large-score",
            "rounds": profile["migration_rounds"],
            "migration_ms": round(migration_ms, 4),
            "steady_reaction_ms": round(steady, 4),
            "local_steady_reaction_ms": round(local_steady, 4),
            "snapshot_bytes": snapshot_bytes,
            "ratio": round(ratio, 2),
            "gate": MIGRATION_GATE,
        },
    )
    assert ratio < MIGRATION_GATE, (
        f"live migration {migration_ms:.3f} ms is {ratio:.1f}x one "
        f"steady-state reaction ({steady:.4f} ms); gate {MIGRATION_GATE:.0f}x"
    )


def test_sharded_react_all_throughput():
    """Sharded ``react_all`` vs single-process ``MachineFleet.react_all``
    on a fleet of large-score machines.  Recorded always; the >= 2x gate
    is asserted only when at least 4 cores are usable (a single-core
    container cannot exhibit parallel speedup)."""
    profile = harness.pick(FULL, QUICK)
    module, table = mid_score()
    host_globals = {"andBool": and_bool}
    members = profile["members"]
    instants = profile["instants"]

    fleet = MachineFleet(
        module, modules=table, size=members, host_globals=host_globals
    )
    fleet.react_all({})
    for n in range(profile["settle"]):
        fleet.react_all(tick(n + 1))
    base = profile["settle"] + 1
    start = time.perf_counter()
    for n in range(instants):
        fleet.react_all(tick(base + n))
    single_ms = (time.perf_counter() - start) * 1000.0

    with tempfile.TemporaryDirectory() as tmp, ShardManager(
        module,
        modules=table,
        shards=profile["shards"],
        size=members,
        journal_dir=tmp,
        checkpoint_every=None,
        machine_kwargs={"host_globals": host_globals},
    ) as manager:
        manager.react_all({})
        for n in range(profile["settle"]):
            manager.react_all(tick(n + 1))
        start = time.perf_counter()
        for n in range(instants):
            manager.react_all(tick(base + n))
        sharded_ms = (time.perf_counter() - start) * 1000.0

    cores = harness.usable_cores()
    speedup = single_ms / sharded_ms if sharded_ms else float("inf")
    gated = cores >= MIN_CORES_FOR_GATE
    payload = {
        "workload": "skini-large-score-fleet",
        "members": members,
        "instants": instants,
        "shards": profile["shards"],
        "single_process_ms": round(single_ms, 2),
        "sharded_ms": round(sharded_ms, 2),
        "speedup": round(speedup, 2),
        "gate": THROUGHPUT_GATE,
        "gate_enforced": gated,
    }
    if not gated:
        payload["skipped"] = (
            f"only {cores} usable core(s); >= {MIN_CORES_FOR_GATE} needed "
            "for the parallel speedup gate"
        )
    harness.write("shard", "throughput", payload)
    if gated:
        assert speedup >= THROUGHPUT_GATE, (
            f"sharded react_all speedup {speedup:.2f}x on {cores} cores; "
            f"gate {THROUGHPUT_GATE:.1f}x"
        )

