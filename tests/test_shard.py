"""Multi-process sharded fleets: plan artifacts, the pipe protocol,
SIGKILL failover, and live migration (docs/resilience.md §7).

The invariant under test everywhere: *placement is invisible to the
reactive program*.  A member driven on a shard worker — or migrated
between workers, or recovered from a SIGKILLed worker — produces exactly
the trace and final state of a single-process oracle machine driven with
the same inputs, because the synchronous core's between-instant state is
fully captured by fingerprint-stamped snapshots + the write-ahead
journal.
"""

import json
import os
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    MemoryJournal,
    ReactiveMachine,
    ShardError,
    ShardManager,
    parse_module,
)
from repro.apps.skini.participant import participant_module
from repro.compiler.compile import hydrate_plan_artifact, plan_artifact
from repro.lang import ast as A
from repro.lang import expr as E
from repro.lang.signals import SignalDecl
from repro.runtime.worker import Channel, ShardWorker, WorkerConfig
from tests.strategies import bursty_schedules

BACKENDS = ("worklist", "levelized", "sparse")

PARTICIPANT_SCRIPT = [
    {"select": 7}, {}, {"grant": 2}, {}, {"stop": True}, {},
]


def drive_oracle(module, script, backend="auto"):
    machine = ReactiveMachine(module, backend=backend)
    trace = [dict(machine.react(dict(inputs))) for inputs in script]
    return machine, trace


# ---------------------------------------------------------------------------
# plan artifacts
# ---------------------------------------------------------------------------


class TestPlanArtifact:
    def test_round_trip_reproduces_fingerprint(self):
        module = participant_module()
        blob = plan_artifact(module)
        assert isinstance(blob, bytes)
        compiled = hydrate_plan_artifact(blob)
        from repro import compile_cached

        assert compiled.fingerprint == compile_cached(module).fingerprint

    def test_embedded_callable_refused(self):
        bad = A.Module(
            "Bad",
            [SignalDecl("A", "in"), SignalDecl("X", "out")],
            A.Emit("X", E.Call(E.Lit(lambda: 1), [])),
        )
        with pytest.raises(ShardError):
            plan_artifact(bad)

    def test_corrupt_artifact_refused(self):
        with pytest.raises(ShardError):
            hydrate_plan_artifact(b"not a pickle")

    def test_stored_artifact_with_retired_plan_fields_hydrates(
        self, tmp_path, monkeypatch
    ):
        """Format-2 artifacts written while evaluation plans still carried
        per-source cone tables (``cones``/``cone_sizes``) stay loadable
        from an ArtifactStore, embedded plan included."""
        from repro.compiler.compile import ArtifactStore, clear_hydrate_cache
        from repro.compiler.netlist import INPUT, REG
        from repro.compiler.plan import EvalPlan

        getstate = EvalPlan.__getstate__

        def with_cone_tables(plan):
            state = getstate(plan)
            sources = [
                net.id for net in plan.circuit.nets if net.kind in (INPUT, REG)
            ]
            state["cones"] = {net_id: 1 << net_id for net_id in sources}
            state["cone_sizes"] = {net_id: 1 for net_id in sources}
            return state

        module = participant_module()
        store = ArtifactStore(str(tmp_path))
        with monkeypatch.context() as patch:
            patch.setattr(EvalPlan, "__getstate__", with_cone_tables)
            key = store.put(module)
        clear_hydrate_cache()
        try:
            compiled = store.load(key)
            assert compiled._plan is not None  # the embedded plan, not a recompile
            for backend in BACKENDS:
                _, expected = drive_oracle(module, PARTICIPANT_SCRIPT, backend)
                _, hydrated = drive_oracle(compiled, PARTICIPANT_SCRIPT, backend)
                assert hydrated == expected
        finally:
            clear_hydrate_cache()


# ---------------------------------------------------------------------------
# in-process worker logic (no child process)
# ---------------------------------------------------------------------------


class TestShardWorkerInProcess:
    def test_spawn_react_and_extract_adopt_round_trip(self, tmp_path):
        module = participant_module()
        worker_a = ShardWorker(WorkerConfig(str(tmp_path / "a"), module=module))
        worker_b = ShardWorker(WorkerConfig(str(tmp_path / "b"), module=module))
        worker_a.spawn([7])
        oracle = ReactiveMachine(module)
        for inputs in PARTICIPANT_SCRIPT[:3]:
            got = worker_a.react(7, dict(inputs))
            assert got["emitted"] == dict(oracle.react(dict(inputs)))
        shipped = worker_a.extract(7)
        assert 7 not in worker_a.members
        adopted = worker_b.adopt(
            7, shipped["snapshot"], [], shipped["tail"], shipped["pending"]
        )
        assert adopted["digest"] == oracle.state_digest()
        for inputs in PARTICIPANT_SCRIPT[3:]:
            got = worker_b.react(7, dict(inputs))
            assert got["emitted"] == dict(oracle.react(dict(inputs)))
        assert worker_b.digest(7) == oracle.state_digest()
        worker_a.close()
        worker_b.close()

    def test_extract_ships_mailbox_backlog(self, tmp_path):
        module = participant_module()
        worker = ShardWorker(WorkerConfig(str(tmp_path), module=module))
        worker.spawn([0])
        worker.offer(0, {"select": True})
        worker.offer(0, {"grant": True})
        shipped = worker.extract(0)
        assert shipped["pending"] == [{"select": True, "grant": True}] or len(
            shipped["pending"]
        ) == 2  # coalesce policy may have merged the backlog
        worker.close()

    def test_unknown_member_raises(self, tmp_path):
        worker = ShardWorker(
            WorkerConfig(str(tmp_path), module=participant_module())
        )
        with pytest.raises(ShardError):
            worker.extract(42)
        worker.close()


# ---------------------------------------------------------------------------
# the sharded fleet, end to end
# ---------------------------------------------------------------------------


@pytest.mark.timeout(120)
class TestShardManager:
    def test_react_all_matches_single_process_oracle(self, tmp_path):
        module = participant_module()
        with ShardManager(
            module, shards=2, size=6, journal_dir=str(tmp_path)
        ) as manager:
            oracle, trace = drive_oracle(module, PARTICIPANT_SCRIPT)
            for step, inputs in enumerate(PARTICIPANT_SCRIPT):
                results = manager.react_all(inputs)
                assert set(results) == set(range(6))
                for gid in range(6):
                    assert results[gid]["emitted"] == trace[step]
            for gid in range(6):
                assert manager.member_digest(gid) == oracle.state_digest()

    def test_react_member_offer_route_pump(self, tmp_path):
        module = participant_module()
        with ShardManager(
            module, shards=2, size=4, journal_dir=str(tmp_path)
        ) as manager:
            oracle = ReactiveMachine(module)
            expected = dict(oracle.react({"select": 7}))
            got = manager.react_member(0, {"select": 7})
            assert got["emitted"] == expected
            assert manager.offer(1, {"select": 7}) == "admitted"
            gid, decision = manager.route({"select": 7})
            assert decision == "admitted"
            pumped = manager.pump_all()
            assert set(pumped) >= {1, gid}
            assert pumped[1]["emitted"] == expected

    def test_sigkill_failover_loses_no_committed_instant(self, tmp_path):
        module = participant_module()
        with ShardManager(
            module, shards=3, size=9, journal_dir=str(tmp_path),
            checkpoint_every=3,
        ) as manager:
            oracle = ReactiveMachine(module)
            for inputs in PARTICIPANT_SCRIPT:
                manager.react_all(inputs)
                oracle.react(dict(inputs))
            victim = manager.live_workers()[-1]
            doomed = sorted(victim.members)
            os.kill(victim.pid, signal.SIGKILL)
            time.sleep(0.05)
            manager.react_all({"select": True})
            oracle.react({"select": True})
            assert [d.worker_id for d in manager.last_deaths] == [victim.id]
            assert sorted(manager.last_deaths[0].recovered) == doomed
            assert manager.stats["members_recovered"] == len(doomed)
            for gid in range(9):
                assert manager.member_digest(gid) == oracle.state_digest()
            # the fleet keeps going after the failover
            manager.react_all({})
            oracle.react({})
            for gid in range(9):
                assert manager.member_digest(gid) == oracle.state_digest()

    def test_react_member_on_dead_worker_recovers_and_reacts(self, tmp_path):
        module = participant_module()
        with ShardManager(
            module, shards=2, size=2, journal_dir=str(tmp_path)
        ) as manager:
            oracle = ReactiveMachine(module)
            manager.react_all({"select": 7})
            oracle.react({"select": 7})
            home = manager.placement[0]
            os.kill(home.pid, signal.SIGKILL)
            time.sleep(0.05)
            got = manager.react_member(0, {"grant": 2})
            assert got["emitted"] == dict(oracle.react({"grant": 2}))
            assert manager.member_digest(0) == oracle.state_digest()

    def test_live_migration_preserves_state_and_backlog(self, tmp_path):
        module = participant_module()
        with ShardManager(
            module, shards=2, size=2, journal_dir=str(tmp_path)
        ) as manager:
            oracle = ReactiveMachine(module)
            manager.react_all({"select": 7})
            oracle.react({"select": 7})
            # park an undelivered input in the member's mailbox, then move it
            manager.offer(0, {"grant": 2})
            src = manager.placement[0]
            dst = next(w for w in manager.live_workers() if w is not src)
            value = manager.migrate(0, dst.id)
            assert manager.placement[0] is dst
            assert value["digest"] == oracle.state_digest()
            # the shipped backlog drains on the destination
            pumped = manager.pump_all()
            assert pumped[0]["emitted"] == dict(oracle.react({"grant": 2}))
            assert manager.member_digest(0) == oracle.state_digest()
            assert manager.stats["migrations"] == 1

    def test_rolling_restart_zero_dropped_instants(self, tmp_path):
        module = participant_module()
        with ShardManager(
            module, shards=2, size=6, journal_dir=str(tmp_path)
        ) as manager:
            oracle = ReactiveMachine(module)
            for inputs in PARTICIPANT_SCRIPT[:3]:
                manager.react_all(inputs)
                oracle.react(dict(inputs))
            original = [w.id for w in manager.live_workers()]
            for wid in original:
                manager.restart_worker(wid)
            assert [w.id for w in manager.live_workers()] == [2, 3]
            assert manager.stats["restarts"] == 2
            assert manager.stats["failovers"] == 0
            for inputs in PARTICIPANT_SCRIPT[3:]:
                manager.react_all(inputs)
                oracle.react(dict(inputs))
            for gid in range(6):
                assert manager.member_digest(gid) == oracle.state_digest()

    def test_rebalance_levels_the_placement(self, tmp_path):
        module = participant_module()
        with ShardManager(
            module, shards=3, size=9, journal_dir=str(tmp_path)
        ) as manager:
            # pile everything onto one worker, then level it out
            target = manager.live_workers()[0]
            for gid in range(9):
                if manager.placement[gid] is not target:
                    manager.migrate(gid, target.id)
            assert len(target.members) == 9
            manager.rebalance()
            sizes = sorted(len(w.members) for w in manager.live_workers())
            assert sizes == [3, 3, 3]
            manager.react_all({"select": True})
            oracle = ReactiveMachine(module)
            oracle.react({"select": True})
            for gid in range(9):
                assert manager.member_digest(gid) == oracle.state_digest()

    def test_checkpoint_all_and_heartbeat(self, tmp_path):
        module = participant_module()
        with ShardManager(
            module, shards=2, size=4, journal_dir=str(tmp_path)
        ) as manager:
            manager.react_all({"select": True})
            counts = manager.checkpoint_all()
            assert counts == {gid: 1 for gid in range(4)}
            beat = manager.heartbeat()
            assert set(beat) == {0, 1}
            assert all(isinstance(v, dict) for v in beat.values())
            victim = manager.live_workers()[0]
            os.kill(victim.pid, signal.SIGKILL)
            time.sleep(0.05)
            beat = manager.heartbeat(timeout=5)
            from repro import WorkerDied

            assert isinstance(beat[victim.id], WorkerDied)
            assert len(manager.live_workers()) == 1
            assert len(manager) == 4  # everyone was re-placed


# ---------------------------------------------------------------------------
# migration determinism (hypothesis)
# ---------------------------------------------------------------------------

MIGRATION_SOURCE = """
module Mig(in A = 0, in B = 0, in C = 0,
           out X = 0, out Y = 0, out Z) {
  fork {
    every (A.now) { emit X(A.nowval + (B.pre ? 10 : 1)) }
  } par {
    every (B.now) { emit Y(B.nowval + C.nowval) }
  } par {
    loop { await (C.now) emit Z pause }
  }
}
"""


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(schedule=bursty_schedules(), data=st.data())
def test_migration_trace_is_byte_identical(schedule, data):
    """The snapshot + journal-tail handoff :meth:`ShardManager.migrate`
    ships is trace-preserving: a machine cut over mid-run — onto *any*
    backend — continues with byte-identical emissions and lands on the
    byte-identical final state of a never-migrated machine."""
    module = parse_module(MIGRATION_SOURCE)
    script = [inputs for _, inputs in schedule]
    src_backend = data.draw(st.sampled_from(BACKENDS), label="src_backend")
    dst_backend = data.draw(st.sampled_from(BACKENDS), label="dst_backend")
    cut = data.draw(
        st.integers(min_value=0, max_value=len(script)), label="cut"
    )

    baseline = ReactiveMachine(module, backend=src_backend)
    expected = [
        json.dumps(dict(baseline.react(dict(inputs))), sort_keys=True)
        for inputs in script
    ]

    # the migration source journals everything after its checkpoint
    source = ReactiveMachine(module, backend=src_backend)
    journal = MemoryJournal()
    checkpoint = source.snapshot()
    source.attach_journal(journal)
    migrated_trace = [
        json.dumps(dict(source.react(dict(inputs))), sort_keys=True)
        for inputs in script[:cut]
    ]

    # handoff: restore the checkpoint on a fresh machine of a possibly
    # different backend, replay the journal tail, continue live
    destination = ReactiveMachine(module, backend=dst_backend)
    destination.restore(checkpoint)
    destination.replay(journal.entries())
    assert destination.state_digest() == source.state_digest()
    migrated_trace += [
        json.dumps(dict(destination.react(dict(inputs))), sort_keys=True)
        for inputs in script[cut:]
    ]

    assert migrated_trace == expected
    assert destination.state_digest() == baseline.state_digest()


@pytest.mark.timeout(120)
def test_sharded_migration_trace_matches_oracle(tmp_path):
    """End to end through real worker processes: migrate a member
    mid-run and require the full per-instant trace and final digest to
    match a never-migrated oracle."""
    module = parse_module(MIGRATION_SOURCE)
    script = [
        {"A": 3}, {"B": 2, "C": 5}, {}, {"A": 1, "B": 1}, {"C": 2}, {"A": 4},
    ]
    oracle = ReactiveMachine(module)
    with ShardManager(
        module, shards=2, size=1, journal_dir=str(tmp_path)
    ) as manager:
        trace = []
        for step, inputs in enumerate(script):
            if step == 3:
                src = manager.placement[0]
                dst = next(
                    w for w in manager.live_workers() if w is not src
                )
                manager.migrate(0, dst.id)
            got = manager.react_member(0, inputs)
            trace.append(got["emitted"])
        expected = [dict(oracle.react(dict(inputs))) for inputs in script]
        assert trace == expected
        assert manager.member_digest(0) == oracle.state_digest()


# ---------------------------------------------------------------------------
# the pipe framing itself
# ---------------------------------------------------------------------------


class TestChannelFraming:
    def test_round_trip_and_eof(self):
        a_r, b_w = os.pipe()
        b_r, a_w = os.pipe()
        left = Channel(a_r, a_w)
        right = Channel(b_r, b_w)
        left.send({"op": "ping", "payload": list(range(100))})
        assert right.recv(1.0) == {"op": "ping", "payload": list(range(100))}
        right.send("pong")
        assert left.recv(1.0) == "pong"
        right.close()
        with pytest.raises((EOFError, OSError)):
            left.recv(1.0)
        left.close()

    def test_recv_timeout(self):
        r1, w1 = os.pipe()
        r2, w2 = os.pipe()
        chan = Channel(r1, w2)
        with pytest.raises(TimeoutError):
            chan.recv(0.05)
        chan.close()
        os.close(w1)
        os.close(r2)
