"""Shared-plan machine fleets and the structural compile cache.

Covers the PR-3 tentpole invariants: N machines of one module share a
single CompiledModule/EvalPlan (construction is cache-hit-only after the
first), the fleet batch API drives members independently, and the memory
report splits the shared plan from per-machine state.
"""

import pytest

from repro import (
    MachineFleet,
    ReactiveMachine,
    clear_compile_cache,
    compile_cache_stats,
    compile_cached,
    parse_module,
)
from repro.apps.login import build_login_machine
from repro.apps.pillbox import PillboxApp
from repro.apps.skini import make_audience_fleet, participant_module
from repro.host import AuthService, SimulatedLoop
from repro.lang import dsl as hh

COUNTER_SOURCE = """
module Counter(in tick, out total = 0) {
  let n = 0;
  every (tick.now) {
    atom { n = n + 1 }
    emit total(n)
  }
}
"""


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


class TestCompileCache:
    def test_same_module_object_hits(self):
        module = parse_module(COUNTER_SOURCE)
        first = compile_cached(module)
        second = compile_cached(module)
        assert first is second
        stats = compile_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_structurally_equal_sources_hit(self):
        first = compile_cached(parse_module(COUNTER_SOURCE))
        second = compile_cached(parse_module(COUNTER_SOURCE))
        assert first is second

    def test_machines_share_compiled_module_and_plan(self):
        module = parse_module(COUNTER_SOURCE)
        a = ReactiveMachine(module)
        b = ReactiveMachine(module)
        assert a.compiled is b.compiled
        assert a.compiled.evaluation_plan() is b.compiled.evaluation_plan()
        assert compile_cache_stats()["hits"] >= 1

    def test_different_callables_do_not_collide(self):
        """Two structurally identical DSL modules with *different* host
        callables must compile separately — the cached payload table
        must never leak across modules."""
        log_a, log_b = [], []

        def make(log):
            return hh.module(
                "M", "in go, out done",
                hh.every(
                    hh.sig("go"),
                    hh.atom(lambda env: log.append("fired")),
                    hh.emit("done"),
                ),
            )

        a = ReactiveMachine(make(log_a))
        b = ReactiveMachine(make(log_b))
        assert a.compiled is not b.compiled
        a.react({})
        b.react({})
        a.react({"go": True})
        assert log_a == ["fired"] and log_b == []

    def test_lru_holds_its_bound_and_evicts_the_least_recent(self):
        """One module past the bound evicts the least recently used
        entry.  The first module compiled survives because it was hit
        just before the overflow; the second, untouched since it was
        compiled, goes and compiles again."""
        from repro.compiler.compile import COMPILE_CACHE_SIZE

        modules = [
            parse_module(f"module M{i}(in A, out O) {{ emit O }}")
            for i in range(COMPILE_CACHE_SIZE + 1)
        ]
        first = compile_cached(modules[0])
        for module in modules[1:-1]:
            compile_cached(module)
        assert compile_cached(modules[0]) is first
        compile_cached(modules[-1])
        stats = compile_cache_stats()
        assert stats["entries"] == COMPILE_CACHE_SIZE
        assert stats["misses"] == COMPILE_CACHE_SIZE + 1
        assert compile_cached(modules[0]) is first
        assert compile_cache_stats()["misses"] == COMPILE_CACHE_SIZE + 1
        compile_cached(modules[1])
        assert compile_cache_stats()["misses"] == COMPILE_CACHE_SIZE + 2
        assert compile_cache_stats()["entries"] == COMPILE_CACHE_SIZE

    def test_options_are_part_of_the_key(self):
        from repro import CompileOptions

        module = parse_module(COUNTER_SOURCE)
        optimized = compile_cached(module)
        raw = compile_cached(module, options=CompileOptions(optimize=False))
        assert optimized is not raw

    def test_app_builders_are_cache_hit_only_after_first(self):
        def build():
            loop = SimulatedLoop()
            svc = AuthService(loop, {"alice": "secret"}, latency_ms=10)
            return build_login_machine(loop, svc)

        first = build()
        baseline = compile_cache_stats()
        second = build()
        after = compile_cache_stats()
        assert first.compiled is second.compiled
        assert after["misses"] == baseline["misses"], "second build recompiled"
        assert after["hits"] > baseline["hits"]

    def test_pillbox_builder_hits_cache(self):
        first = PillboxApp()
        baseline = compile_cache_stats()["misses"]
        second = PillboxApp()
        assert second.machine.compiled is first.machine.compiled
        assert compile_cache_stats()["misses"] == baseline


class TestMachineFleet:
    def test_members_share_plan(self):
        fleet = MachineFleet(participant_module(), size=8)
        assert len(fleet) == 8
        assert all(m.compiled is fleet.compiled for m in fleet)
        assert all(
            m.compiled.evaluation_plan() is fleet.plan for m in fleet
        )

    def test_spawn_and_indexing(self):
        fleet = MachineFleet(parse_module(COUNTER_SOURCE))
        member = fleet.spawn()
        assert len(fleet) == 1 and fleet[0] is member
        fleet.spawn_many(3)
        assert len(fleet) == 4

    def test_react_all_is_independent_per_member(self):
        fleet = MachineFleet(parse_module(COUNTER_SOURCE), size=3)
        fleet.react_all({})
        results = fleet.react_all({"tick": True})
        assert [r["total"] for r in results] == [1, 1, 1]
        fleet.react_one(1, {"tick": True})
        results = fleet.react_all({"tick": True})
        assert [r["total"] for r in results] == [2, 3, 2]

    def test_react_each_only_touches_addressed_members(self):
        fleet = MachineFleet(parse_module(COUNTER_SOURCE), size=3)
        fleet.react_all({})
        out = fleet.react_each({0: {"tick": True}, 2: {"tick": True}})
        assert sorted(out) == [0, 2]
        assert fleet[1].reaction_count == 1  # only the boot reaction

    def test_react_one_bad_index(self):
        from repro import MachineError

        fleet = MachineFleet(parse_module(COUNTER_SOURCE), size=1)
        with pytest.raises(MachineError):
            fleet.react_one(5, {})

    def test_broadcast_member_specific_inputs(self):
        fleet = make_audience_fleet(4)
        fleet.react_all({})
        results = fleet.broadcast(
            lambda index, machine: {"select": f"p{index}"}
        )
        assert [dict(r)["request"] for r in results] == ["p0", "p1", "p2", "p3"]

    def test_memory_report_splits_shared_from_per_machine(self):
        fleet = make_audience_fleet(100)
        report = fleet.memory_report()
        assert report["members"] == 100
        assert report["shared_bytes"] > 0 and report["per_machine_bytes"] > 0
        assert (
            report["total_bytes"]
            == report["shared_bytes"] + 100 * report["per_machine_bytes"]
        )
        # sharing must beat 100 unshared machines by a wide margin
        assert report["unshared_total_bytes"] > 5 * report["total_bytes"]

    def test_participant_backend_policy_and_behaviour(self):
        # participants are tiny (~41 nets), so auto stays on the cheap
        # full sweep; an explicit sparse fleet must behave identically
        fleet = make_audience_fleet(4)
        assert fleet.stats()["backends"] == {"levelized": 4}
        sparse = make_audience_fleet(2, backend="sparse")
        assert sparse.stats()["backends"] == {"sparse": 2}
        for pool in (fleet, sparse):
            pool.react_all({})
            pool.react_all({"select": "p"})
            results = pool.react_all({"grant": True})
            assert all(dict(r) == {"playing": True} for r in results)
