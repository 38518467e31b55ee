"""F1 — shared-plan machine fleets (the Skini audience at concert scale).

The paper's Skini deployment runs one small synchronous program per
audience member — thousands of instances of the *same* module.  Three
claims are gated here and recorded in BENCH_fleet.json:

* construction amortization: building a 1000-member fleet through the
  structural compile cache must be ≥20× faster than 1000 cold
  ``ReactiveMachine`` constructions (each recompiling the module);
* steady state: a fleet of mid-size machines on the sparse dirty-cone
  backend must drive ``react_all`` ≥2× faster than the full levelized
  sweep (the per-member circuit is above the ``SPARSE_MIN_NETS`` auto
  floor, so this is also what ``backend="auto"`` picks);
* lockstep word parallelism: a 1024-member audience driven through the
  bit-parallel word engine must beat the scalar shared-plan drive ≥10×
  under all-shared inputs and ≥2× with 10% of the fleet pinned scalar;
* lockstep churn: a quiescent broadcast, and a broadcast after 20
  members tapped (each demoted out of the word), must each cost on a
  1024-member audience ≤1.5× what they cost on a 128-member one, so a
  pulse costs O(members that changed), not O(fleet).

The per-member memory split (shared compiled plan vs per-machine state)
rides along for the report.
"""

import random
import time

import harness
from repro import ReactiveMachine, clear_compile_cache
from repro.apps.skini import make_audience_fleet, participant_module
from repro.runtime.fleet import MachineFleet
from workloads import and_bool, mid_score

FLEET_SIZE = 1000
CONSTRUCTION_GATE = 20.0
STEADY_STATE_GATE = 2.0
LOCKSTEP_MEMBERS = 1024
LOCKSTEP_SHARED_GATE = 10.0
LOCKSTEP_MIXED_GATE = 2.0
#: churn-scaling gate: audience sizes compared, rounds taken on each
CHURN_SIZES = (128, LOCKSTEP_MEMBERS)
CHURN_ROUNDS = 400
CHURN_TAPPERS = 20
CHURN_GATE = 1.5


def test_fleet_construction_amortization():
    """1000 fleet members vs 1000 cold constructions of the same module.
    The cold loop clears the compile cache before every construction, so
    each one pays the full translate/optimize/levelize pipeline — exactly
    what N independent ``ReactiveMachine(module)`` calls cost without the
    structural cache."""
    module = participant_module()

    start = time.perf_counter()
    for _ in range(FLEET_SIZE):
        clear_compile_cache()
        ReactiveMachine(module)
    uncached_ms = (time.perf_counter() - start) * 1000.0

    clear_compile_cache()
    start = time.perf_counter()
    fleet = make_audience_fleet(FLEET_SIZE)
    fleet_ms = (time.perf_counter() - start) * 1000.0
    assert len(fleet) == FLEET_SIZE

    speedup = uncached_ms / fleet_ms
    report = fleet.memory_report()
    harness.write(
        "fleet", "construction",
        {
            "members": FLEET_SIZE,
            "module": "Participant",
            "fleet_ms": round(fleet_ms, 2),
            "uncached_ms": round(uncached_ms, 2),
            "per_member_us": round(1000.0 * fleet_ms / FLEET_SIZE, 2),
            "speedup": round(speedup, 1),
        },
    )
    harness.write(
        "fleet", "memory",
        {
            "members": report["members"],
            "shared_bytes": report["shared_bytes"],
            "per_machine_bytes": report["per_machine_bytes"],
            "total_bytes": report["total_bytes"],
            "unshared_total_bytes": report["unshared_total_bytes"],
            "amortization": round(report["amortization"], 2),
        },
    )
    assert speedup >= CONSTRUCTION_GATE, (
        f"fleet construction only {speedup:.1f}x faster than uncached "
        f"(fleet {fleet_ms:.1f} ms, uncached {uncached_ms:.1f} ms)"
    )


def test_fleet_sparse_steady_state_speedup():
    """A fleet of mid-size score machines (~700 nets each, above the
    sparse auto floor): steady-state ``react_all`` on the sparse backend
    vs the full levelized sweep."""
    module, table = mid_score()
    members = 8
    inputs = {"seconds": 1, "second": True}
    medians = {}
    nets = None
    for backend in ("levelized", "sparse", "auto"):
        fleet = MachineFleet(
            module,
            modules=table,
            host_globals={"andBool": and_bool},
            size=members,
            backend=backend,
        )
        if backend == "auto":
            assert fleet.stats()["backends"] == {"sparse": members}
        fleet.react_all({})
        nets = fleet.stats()["nets"]
        harness.median_ms(fleet.react_all, inputs, rounds=5)  # settle
        medians[backend] = harness.median_ms(fleet.react_all, inputs, rounds=20)

    speedup = medians["levelized"] / medians["sparse"]
    harness.write(
        "fleet", "steady_state",
        {
            "members": members,
            "nets_per_member": nets,
            "median_react_all_ms": {k: round(v, 4) for k, v in medians.items()},
            "per_member_us": {
                k: round(1000.0 * v / members, 2) for k, v in medians.items()
            },
            "speedup": round(speedup, 2),
        },
    )
    assert speedup >= STEADY_STATE_GATE, (
        f"sparse fleet only {speedup:.2f}x faster "
        f"(levelized {medians['levelized']:.3f} ms, "
        f"sparse {medians['sparse']:.3f} ms)"
    )


def test_fleet_lockstep_word_parallel_speedup():
    """The bit-parallel gate: a 1024-member audience on the lockstep
    word engine vs the scalar shared-plan fleet drive.

    Two scenarios are gated: all-shared quiescent inputs (one word
    evaluation serves the whole fleet, ≥10×) and a sustained mixed fleet
    where 10% of the members are pinned scalar — a reaction budget makes
    them permanently word-ineligible, modelling members the word cannot
    express — while the remaining 90% stay resident (≥2×)."""
    word = make_audience_fleet(LOCKSTEP_MEMBERS)
    assert word._engine is not None, "auto policy should pick lockstep"
    scalar = make_audience_fleet(LOCKSTEP_MEMBERS, backend="sparse")
    for fleet in (word, scalar):
        fleet.react_all({})
        harness.median_ms(fleet.react_all, {}, rounds=5)  # settle

    shared_word_ms = harness.median_ms(word.react_all, {}, rounds=20)
    shared_scalar_ms = harness.median_ms(scalar.react_all, {}, rounds=20)
    shared_speedup = shared_scalar_ms / shared_word_ms

    # sustained divergence: every 10th member gets a reaction budget
    # (word-ineligible) and is demoted through an external react
    for index in range(0, LOCKSTEP_MEMBERS, 10):
        word[index].reaction_budget = 10**9
        word[index].react({})
    word.react_all({})
    resident = word._engine.resident_count
    assert resident <= LOCKSTEP_MEMBERS - LOCKSTEP_MEMBERS // 10

    mixed_word_ms = harness.median_ms(word.react_all, {}, rounds=20)
    mixed_speedup = shared_scalar_ms / mixed_word_ms

    stats = word.stats()["lockstep"]
    packed = word.memory_report()["lockstep"]
    harness.write(
        "fleet", "lockstep",
        {
            "members": LOCKSTEP_MEMBERS,
            "module": "Participant",
            "shared_inputs": {
                "lockstep_ms": round(shared_word_ms, 4),
                "scalar_ms": round(shared_scalar_ms, 4),
                "speedup": round(shared_speedup, 1),
            },
            "mixed_10pct_scalar": {
                "resident": resident,
                "lockstep_ms": round(mixed_word_ms, 4),
                "scalar_ms": round(shared_scalar_ms, 4),
                "speedup": round(mixed_speedup, 1),
            },
            "lowered_nets": stats["lowered_nets"],
            "fired_nets": stats["fired_nets"],
            "packed_bytes": packed["total_bytes"],
        },
    )
    assert shared_speedup >= LOCKSTEP_SHARED_GATE, (
        f"lockstep only {shared_speedup:.1f}x under shared inputs "
        f"(word {shared_word_ms:.3f} ms, scalar {shared_scalar_ms:.3f} ms)"
    )
    assert mixed_speedup >= LOCKSTEP_MIXED_GATE, (
        f"mixed lockstep only {mixed_speedup:.1f}x "
        f"(word {mixed_word_ms:.3f} ms, scalar {shared_scalar_ms:.3f} ms)"
    )


def _churn_round(fleet, tappers):
    """One churn round: an untimed broadcast settles the last round, a
    timed quiescent broadcast, each tapper taps select/grant/stop
    (``react_one``, which demotes it out of the word), a timed churned
    broadcast.  Returns the two timings in ms."""
    fleet.react_all({})
    quiescent_ms = harness.time_ms(fleet.react_all, {})
    for member in tappers:
        for inputs in ({"select": "p"}, {"grant": "p"}, {"stop": True}):
            fleet.react_one(member, inputs)
    return quiescent_ms, harness.time_ms(fleet.react_all, {})


def test_churned_broadcast_flat_in_fleet_size():
    """The churn gate: a lockstep broadcast costs what its members that
    changed cost, whatever the audience size.  400 rounds alternate
    between a 128- and a 1024-member audience; in each, 20 members (a
    random order over the whole audience) tap between a quiescent and a
    churned broadcast.  At 1024 members the quiescent median and the
    churned median must each stay ≤1.5× their 128-member medians: a
    quiescent resident costs nothing per broadcast (the engine holds its
    count), and the tapped members rejoin the word before the instant
    instead of reacting scalar.

    What one tapped member adds to a broadcast is not gated: both sizes
    have the same tappers, so a slower promotion, or a rejoin that fell
    back to scalar reactions, costs the same at each size and passes.
    It is recorded as ``churn_ms_per_tapper`` (the 1024-member churned
    median minus the quiescent one, per tapper); tier-1
    ``test_broadcast_after_taps_reacts_no_tapped_member_scalar`` pins
    that tapped members rejoin rather than react scalar."""
    fleets, orders = [], []
    for size in CHURN_SIZES:
        fleet = make_audience_fleet(size)
        assert fleet._engine is not None, "auto policy should pick lockstep"
        fleet.react_all({})
        fleets.append(fleet)
        orders.append(random.Random(size).sample(range(size), size))
    engine = fleets[-1]._engine
    promotions, demotions = engine.promotions, sum(engine.demotions.values())
    samples = [([], []) for _ in CHURN_SIZES]
    for round_ in range(CHURN_ROUNDS):
        for fleet, order, (quiescent, churned) in zip(fleets, orders, samples):
            tappers = [
                order[(round_ * CHURN_TAPPERS + j) % len(order)]
                for j in range(CHURN_TAPPERS)
            ]
            quiescent_ms, churned_ms = _churn_round(fleet, tappers)
            quiescent.append(quiescent_ms)
            churned.append(churned_ms)
    for fleet in fleets:
        assert fleet._engine.resident_count == len(fleet)
    (small_q, small_c), (large_q, large_c) = (
        (harness.median(quiescent), harness.median(churned))
        for quiescent, churned in samples
    )
    quiescent_ratio, churned_ratio = large_q / small_q, large_c / small_c
    harness.write(
        "fleet", "lockstep_churn",
        {
            "members": list(CHURN_SIZES),
            "rounds": CHURN_ROUNDS,
            "tappers": CHURN_TAPPERS,
            "quiescent_ms": [round(small_q, 4), round(large_q, 4)],
            "churned_ms": [round(small_c, 4), round(large_c, 4)],
            "quiescent_ratio": round(quiescent_ratio, 2),
            "churned_ratio": round(churned_ratio, 2),
            "churn_ms_per_tapper": round((large_c - large_q) / CHURN_TAPPERS, 4),
            "promotions_per_round": (engine.promotions - promotions) / CHURN_ROUNDS,
            "demotions_per_round": (
                sum(engine.demotions.values()) - demotions
            ) / CHURN_ROUNDS,
            "gate": CHURN_GATE,
        },
    )
    small, large = CHURN_SIZES
    for kind, ratio, small_ms, large_ms in (
        ("quiescent", quiescent_ratio, small_q, large_q),
        ("churned", churned_ratio, small_c, large_c),
    ):
        assert ratio <= CHURN_GATE, (
            f"a {kind} broadcast costs {large_ms:.4f} ms on {large} members "
            f"against {small_ms:.4f} ms on {small}: {ratio:.2f}x (gate "
            f"{CHURN_GATE}x), so a broadcast grows with the fleet"
        )


def test_participant_fleet_reacts_in_audience_scale_budget():
    """Sanity envelope: a 1000-member participant fleet absorbs a full
    broadcast reaction well inside the 300 ms musical pulse."""
    fleet = make_audience_fleet(FLEET_SIZE)
    fleet.react_all({})
    median = harness.median_ms(fleet.react_all, {"select": "p"}, rounds=5)
    assert median < 300.0, f"audience reaction blew the pulse: {median:.1f} ms"
