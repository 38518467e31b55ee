#!/usr/bin/env python
"""Regenerate the EXPERIMENTS.md numbers: one row per §5.3 claim.

    python benchmarks/report.py [--quick]

A section that a benchmark gate owns (E6, C1, F1, R2, O1, S1, G1) runs
that gate and prints what the gate wrote to its ``BENCH_*.json``; the
other sections measure and print.  ``--quick`` switches every section
to its reduced-size profile (smaller score, fleets and cohorts, fewer
rounds) so CI can smoke the whole report, and writes the artifacts to
``.benchmarks/quick/`` so the committed ones stay as they are.  The E6,
C1, F1 and R2 gates have no reduced size and run in full either way.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

#: full and quick profile sizes (see harness.pick)
FULL = dict(linear_sizes=(2, 8, 32, 64), score_sections=60, rounds=20)
QUICK = dict(linear_sizes=(2, 8), score_sections=8, rounds=5)

import harness  # noqa: E402
from workloads import (  # noqa: E402
    compiled_machine,
    drive_steady_state,
    fit_slope,
    linear_module,
    schizo_module,
    statement_count,
)

from repro import CompileOptions, compile_module  # noqa: E402
from repro.apps.pillbox import pillbox_table  # noqa: E402
from repro.apps.skini import make_large_score  # noqa: E402
from repro.apps.skini.score import generate_score_module  # noqa: E402


def e1_e2():
    print("E1/E2 - compile time and circuit size vs source size")
    rows = []
    for units in harness.pick(FULL, QUICK)["linear_sizes"]:
        module = linear_module(units)
        stmts = statement_count(module)
        t = harness.median_ms(compile_module, module, rounds=3)
        nets = compile_module(module).stats()["nets"]
        rows.append((stmts, t, nets))
        print(f"  {stmts:>5} stmts: compile {t:8.1f} ms, {nets:>6} nets "
              f"({nets/stmts:.1f} nets/stmt)")
    slope_t, corr_t = fit_slope([r[0] for r in rows], [r[1] for r in rows])
    slope_n, corr_n = fit_slope([r[0] for r in rows], [r[2] for r in rows])
    print(f"  linear fit: time corr={corr_t:.4f}, nets corr={corr_n:.4f}")


def e3():
    print("\nE3 - reincarnation: nested schizophrenic loops (auto policy)")
    for depth in range(5):
        nets = compile_module(schizo_module(depth)).stats()["nets"]
        flat = compile_module(
            schizo_module(depth), options=CompileOptions(loop_duplication="never")
        ).stats()["nets"]
        print(f"  depth {depth}: {nets:>6} nets (linear/never policy: {flat})")


def e4_e5():
    print("\nE4 - Lisinopril footprint (paper: 399 nets, ~86 KB, 192-216 B/net)")
    table = pillbox_table()
    circuit = compile_module(table.get("Lisinopril"), table).circuit
    nets = circuit.stats()["nets"]
    size = circuit.memory_estimate()
    print(f"  ours: {nets} nets, {size/1024:.1f} KB, {size/nets:.0f} B/net")

    print("\nE5 - large Skini score (paper: ~10,000 nets, ~2.1 MB)")
    module, mtable = generate_score_module(
        make_large_score(
            sections=harness.pick(FULL, QUICK)["score_sections"],
            groups_per_section=5,
            patterns_per_group=6,
        )
    )
    circuit = compile_module(module, mtable).circuit
    nets = circuit.stats()["nets"]
    size = circuit.memory_estimate()
    print(f"  ours: {nets} nets, {size/1024/1024:.2f} MB, {size/nets:.0f} B/net")


def e6():
    print("\nE6 - reaction time vs circuit size (paper: linear; <=15ms for the"
          " largest score vs a 300ms pulse); all three backends, see "
          "docs/performance.md")
    import bench_reaction_time

    profile = harness.pick(FULL, QUICK)
    for backend in ("worklist", "levelized"):
        nets, times = [], []
        for units in profile["linear_sizes"]:
            machine = compiled_machine(units, backend=backend)
            inputs = drive_steady_state(machine)
            t = harness.median_ms(machine.react, inputs, rounds=profile["rounds"])
            nets.append(machine.stats()["nets"])
            times.append(t)
            print(f"  [{backend:>9}] {machine.stats()['nets']:>6} nets: "
                  f"{t:7.3f} ms/reaction")
        _s, corr = fit_slope(nets, times)
        print(f"  [{backend:>9}] linear fit corr={corr:.4f}")

    # The reaction gates own BENCH_reaction.json: run them (always at full
    # size, so the recorded speedups are the ones the gates assert) and
    # print what they recorded.
    bench_reaction_time.test_levelized_speedup_on_largest_score()
    bench_reaction_time.test_sparse_speedup_on_one_changed_input()
    data = harness.read("reaction")
    steady = data["levelized_vs_worklist"]
    nets = steady["circuit"]["nets"]
    for backend, ms in steady["median_reaction_ms"].items():
        print(f"  [{backend:>9}] largest score ({nets} nets): {ms:.2f} "
              f"ms/reaction (budget 300 ms)")
    print(f"  levelized speedup over worklist: {steady['speedup']:.2f}x "
          f"(gate 2x)")
    toggled = data["sparse_one_changed_input"]
    medians = toggled["median_reaction_ms"]
    print(f"  one-toggled-input workload: levelized "
          f"{medians['levelized']:.3f} ms, sparse {medians['sparse']:.3f} ms "
          f"({toggled['speedup']:.2f}x, gate 5x)")


def c1():
    print("\nC1 - modular sub-circuit compilation (link, cold-start, parity)")
    import tempfile

    import bench_compile

    bench_compile.test_link_speedup()
    with tempfile.TemporaryDirectory() as tmp:
        bench_compile.test_cold_start_from_artifact_store(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        bench_compile.test_linked_inlined_parity_smoke(Path(tmp))
    data = harness.read("compile")
    link, cache, cold = data["link"], data["link_cache"], data["cold_start"]
    print(f"  link: {link['instances']} instances x {link['stages']} stages: "
          f"inline {link['inline_ms']:.1f} ms -> linked {link['link_ms']:.1f} "
          f"ms ({link['speedup']:.1f}x, gate 5x)")
    print(f"  template cache: {cache['hits']} hits / {cache['misses']} miss "
          f"({100 * cache['hit_rate']:.1f}% hit rate)")
    print(f"  cold start to first reaction: sources {cold['fresh_ms']:.1f} ms "
          f"-> artifact store {cold['store_ms']:.1f} ms "
          f"({cold['speedup']:.1f}x, gate 10x); "
          f"artifact {cold['artifact_kib']:.0f} KiB")
    parity = data.get("parity", {})
    if parity:
        print(f"  parity over {parity['instants']} instants: "
              f"trace_equal={parity['trace_equal']}, "
              f"digest_equal={parity['digest_equal']}")
    deep = data.get("deep", {})
    for row in deep.get("shapes", ()):
        print(f"  nested runs depth {row['depth']} fanout {row['fanout']} "
              f"({row['leaves']} leaves): {row['speedup']:.2f}x "
              f"(reuse-proportional)")


def f1():
    print("\nF1 - shared-plan fleets (compile cache + per-machine state)")
    import bench_fleet

    bench_fleet.test_fleet_construction_amortization()
    bench_fleet.test_fleet_lockstep_word_parallel_speedup()
    bench_fleet.test_churned_broadcast_flat_in_fleet_size()
    data = harness.read("fleet")
    built, memory = data["construction"], data["memory"]
    size = built["members"]
    print(f"  fleet({size}):    {built['fleet_ms']:8.1f} ms "
          f"({built['per_member_us']:.0f} us/member)")
    print(f"  uncached x{size}: {built['uncached_ms']:8.1f} ms "
          f"({built['uncached_ms'] / size:.2f} ms each)")
    print(f"  construction speedup: {built['speedup']:.1f}x (gate "
          f"{bench_fleet.CONSTRUCTION_GATE:.0f}x)")
    print(f"  memory: shared {memory['shared_bytes'] / 1024:.1f} KB + "
          f"{memory['per_machine_bytes']} B/machine; "
          f"amortization {memory['amortization']:.1f}x at {memory['members']} members")
    lockstep, churn = data["lockstep"], data["lockstep_churn"]
    shared, mixed = lockstep["shared_inputs"], lockstep["mixed_10pct_scalar"]
    print(f"  lockstep({lockstep['members']}), shared inputs: "
          f"{shared['lockstep_ms']:.4f} ms vs scalar {shared['scalar_ms']:.3f} ms "
          f"= {shared['speedup']:.1f}x (gate {bench_fleet.LOCKSTEP_SHARED_GATE:.0f}x)")
    print(f"  lockstep, 10% pinned scalar ({mixed['resident']} resident): "
          f"{mixed['lockstep_ms']:.4f} ms = {mixed['speedup']:.1f}x "
          f"(gate {bench_fleet.LOCKSTEP_MIXED_GATE:.0f}x)")
    (small, large), (small_q, large_q), (small_c, large_c) = (
        churn["members"], churn["quiescent_ms"], churn["churned_ms"])
    print(f"  lockstep churn scaling, {small} -> {large} members: quiescent "
          f"{small_q:.4f} -> {large_q:.4f} ms = {churn['quiescent_ratio']:.2f}x, "
          f"{churn['tappers']} tapped {small_c:.4f} -> {large_c:.4f} ms = "
          f"{churn['churned_ratio']:.2f}x (gate {churn['gate']}x); one tapper "
          f"adds {churn['churn_ms_per_tapper']:.4f} ms at {large} (not gated)")


def e7():
    print("\nE7 - v1 -> v2 evolution cost")
    from repro.apps.login import CallbackLogin, CallbackLoginV2, login_table

    table = login_table()
    v1 = compile_module(table.get("Main"), table).stats()["nets"]
    v2 = compile_module(table.get("MainV2"), table).stats()["nets"]
    print(f"  HipHop: 0 of 5 v1 modules modified; 2 new (Freeze, MainV2); "
          f"circuit {v1} -> {v2} nets")
    print(f"  Callbacks: {len(CallbackLoginV2.MODIFIED_COMPONENTS)} of "
          f"{len(CallbackLogin.COMPONENTS)} components modified; "
          f"{len(CallbackLoginV2.NEW_COMPONENTS)} new")


def r1():
    print("\nR1 - resilience overhead (MainR vs Main, fault-free fast path)")
    from bench_resilience import CYCLES, measure_overhead

    plain, resilient, overhead = measure_overhead()
    print(f"  plain Main:      {plain:8.2f} ms / {CYCLES} login cycles")
    print(f"  resilient MainR: {resilient:8.2f} ms / {CYCLES} login cycles")
    print(f"  overhead:        {overhead:8.1%} (budget 10%)")


def r2():
    print("\nR2 - durable recovery (snapshot/restore + journal tail replay)")
    from bench_recovery import (
        test_checkpoint_costs_what_changed,
        test_checkpointed_recovery_within_reaction_budget,
        test_replay_100_instants_byte_identical,
        test_snapshot_restore_round_trip_cost,
    )

    test_snapshot_restore_round_trip_cost()
    test_replay_100_instants_byte_identical()
    test_checkpointed_recovery_within_reaction_budget()
    test_checkpoint_costs_what_changed()
    data = harness.read("recovery")
    snap, replay, rec = data["snapshot"], data["replay"], data["recovery"]
    ckpt = data["checkpoint"]
    print(f"  snapshot: {snap['snapshot_ms']:.3f} ms, restore "
          f"{snap['restore_ms']:.3f} ms, payload {snap['payload_bytes']/1024:.1f} KB "
          f"({snap['nets']} nets)")
    print(f"  replay {replay['instants']} instants: {replay['replay_ms']:.2f} ms "
          f"({replay['per_instant_us']:.1f} us/instant, "
          f"{replay['per_instant_vs_steady']:.1f}x one steady reaction)")
    print(f"  recovery (journal tail {rec['journal_tail']}, checkpoint_every "
          f"{rec['checkpoint_every']}): {rec['recovery_ms']:.3f} ms = "
          f"{rec['ratio']:.1f}x one steady reaction (gate {rec['gate']:.0f}x)")
    print(f"  supervised checkpoint ({ckpt['nets']} nets, {ckpt['rounds']} rounds): "
          f"{ckpt['checkpoint_ms']:.4f} ms = {ckpt['ratio']:.2f}x one supervised "
          f"reaction ({ckpt['reaction_ms']:.4f} ms; gate {ckpt['gate']:.0f}x), "
          f"{ckpt['young_collections_per_100']:.1f} young collections per 100")


def o1():
    print("\nO1 - overload resilience (coalescing ingress at 10x sustainable"
          " load)")
    import bench_overload

    bench_overload.test_overload_p99_within_gate()
    bench_overload.test_bounded_policies_shed_exactly()
    bench_overload.test_reaction_budget_overhead()
    bench_overload.test_pump_cost_flat_in_fleet_size()
    data = harness.read("overload")
    steady, over = data["steady"], data["overload"]
    print(f"  steady ({steady['members']} members): median "
          f"{steady['median_ms']:.4f} ms, p99 {steady['p99_ms']:.4f} ms")
    print(f"  overload: {over['events']} events at {over['rate_per_s']}/s "
          f"({over['overload_factor']:.0f}x sustainable) -> "
          f"{over['reacts']} coalesced reacts "
          f"({over['flattening']:.1f}x flattening), shed {over['shed']}")
    print(f"  p99 {over['p99_ms']:.4f} ms = {over['ratio']:.2f}x unloaded "
          f"p99 (gate {over['gate']:.0f}x)")
    policies = data["shedding"]["policies"]
    print("  shedding: " + ", ".join(
        f"{policy} {entry['shed']}/{entry['offered']}"
        for policy, entry in policies.items()))
    print(f"  budget overhead: {data['budget_overhead']['ratio']:.2f}x")
    scaling = data["pump_scaling"]
    (small, large), (small_ms, large_ms) = scaling["members"], scaling["median_ms"]
    print(f"  pump scaling (one member with mail): {small} members "
          f"{small_ms:.4f} ms, {large} members {large_ms:.4f} ms = "
          f"{scaling['ratio']:.2f}x (gate {scaling['gate']}x)")


def s1():
    print("\nS1 - sharded fleets (multi-process react_all + live migration)")
    import bench_shard

    bench_shard.test_live_migration_within_reaction_budget()
    bench_shard.test_sharded_react_all_throughput()
    data = harness.read("shard")
    mig, thr = data["migration"], data["throughput"]
    print(f"  migration: {mig['migration_ms']:.3f} ms = {mig['ratio']:.1f}x "
          f"one sharded steady reaction ({mig['steady_reaction_ms']:.4f} ms; "
          f"gate {mig['gate']:.0f}x); snapshot {mig['snapshot_bytes']} B")
    enforced = "enforced" if thr["gate_enforced"] else "recorded only"
    print(f"  throughput: {thr['members']} members x {thr['instants']} "
          f"instants over {thr['shards']} shards: "
          f"{thr['speedup']:.2f}x single-process on "
          f"{thr['env']['usable_cores']} core(s) (gate {thr['gate']:.1f}x, "
          f"{enforced})")


def g1():
    print("\nG1 - network edge (WebSocket gateway chaos reconnect storm)")
    import bench_gateway

    bench_gateway.test_gateway_storm_gates()
    data = harness.read("gateway")
    unloaded, clean, storm = data["unloaded"], data["clean"], data["storm"]
    print(f"  unloaded: p50 {unloaded['p50_ms']:.3f} ms, "
          f"p99 {unloaded['p99_ms']:.3f} ms")
    print(f"  clean ({clean['clients']} clients): {clean['events']} events "
          f"at {clean['events_per_s']}/s, p99 {clean['p99_ms']:.2f} ms")
    print(f"  storm: {storm['reconnects']} reconnects, "
          f"{storm['retransmits']} retransmits, {storm['resumed_replay']} "
          f"replays, {storm['snapshots']} snapshots; lost diffs "
          f"{storm['lost_diffs']}, double-applied {storm['double_applied']}, "
          f"digest parity {storm['digest_parity']}")
    print(f"  p99 {storm['p99_ms']:.2f} ms = {storm['ratio']:.2f}x clean "
          f"p99 (gate {storm['gate']:.0f}x)")


def a1():
    print("\nA1 - optimizer ablation (nets raw -> optimized)")
    from repro.apps.login import login_table

    for name, (module, table) in {
        "login-v1": (login_table().get("Main"), login_table()),
        "pillbox": (pillbox_table().get("Lisinopril"), pillbox_table()),
        "linear-32": (linear_module(32), None),
    }.items():
        raw = compile_module(module, table, CompileOptions(optimize=False)).stats()["nets"]
        opt = compile_module(module, table, CompileOptions(optimize=True)).stats()["nets"]
        print(f"  {name:<10} {raw:>6} -> {opt:>6}  (-{100*(raw-opt)/raw:.0f}%)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced-size sweep for CI smoke runs; artifacts go to "
        ".benchmarks/quick/",
    )
    if parser.parse_args().quick:
        harness.use_quick()
    e1_e2()
    e3()
    e4_e5()
    e6()
    e7()
    c1()
    f1()
    r1()
    r2()
    o1()
    s1()
    g1()
    a1()
    print(f"\nBENCH_*.json written to {harness.out_dir()}")
