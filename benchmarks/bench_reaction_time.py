"""E6 — reaction time is ≈ linear in circuit size, and even the largest
Skini score reacts far inside the 300 ms musical pulse (paper §5.3: "the
HipHop.js reaction time never exceeds 15ms").  Both reaction backends
are measured; the levelized plan must beat the worklist by ≥2× on the
largest steady-state Skini workload (see docs/performance.md), and the
per-backend medians are recorded in BENCH_reaction.json."""

import pytest

import harness
from repro import ReactiveMachine, compile_module
from repro.apps.skini import Audience, Performance, make_large_score
from workloads import compiled_machine, drive_steady_state, fit_slope

SIZES = (2, 8, 32, 64)
BACKENDS = ("worklist", "levelized", "sparse")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("units", SIZES)
def test_reaction(benchmark, units, backend):
    machine = compiled_machine(units, backend=backend)
    inputs = drive_steady_state(machine)
    benchmark(lambda: machine.react(inputs))


def test_reaction_time_linear_in_circuit_size():
    nets, times = [], []
    for units in SIZES:
        machine = compiled_machine(units)
        inputs = drive_steady_state(machine)
        nets.append(machine.stats()["nets"])
        times.append(harness.median_ms(machine.react, inputs, rounds=30))
    _slope, corr = fit_slope(nets, times)
    assert corr > 0.95, f"reaction time not linear in nets: {list(zip(nets, times))}"


def test_largest_score_within_pulse_budget(benchmark):
    """The paper's headline: the largest available score reacts in <=15 ms
    against a 300 ms pulse.  We build a comparable-scale score and require
    the same two orders of safety margin shape (well under the budget)."""
    score = make_large_score(sections=60, groups_per_section=5, patterns_per_group=6)
    perf = Performance(score, Audience(size=0))
    perf.step()
    group = score.groups[0]
    inputs = {"seconds": 1, "second": True}
    benchmark(lambda: perf.machine.react(inputs))
    median = harness.median_ms(perf.machine.react, inputs, rounds=20)
    assert median < 300.0, f"pulse budget blown: {median:.2f} ms"
    assert median < 50.0, f"expected a wide safety margin, got {median:.2f} ms"


def test_live_performance_latency_distribution():
    score = make_large_score(sections=20, groups_per_section=4)
    perf = Performance(score, Audience(size=60, eagerness=0.5, seed=5))
    perf.run(120)
    assert perf.reaction_times_ms, "performance produced no reactions"
    assert perf.max_reaction_ms() < 300.0


def test_levelized_speedup_on_largest_score():
    """The tentpole claim: on the largest steady-state Skini workload the
    levelized straight-line backend reacts ≥2× faster (median) than the
    worklist.  The per-backend medians land in BENCH_reaction.json for
    machine consumption (CI trend lines, the performance doc)."""
    score = make_large_score(sections=60, groups_per_section=5, patterns_per_group=6)
    inputs = {"seconds": 1, "second": True}
    medians = {}
    stats = {}
    for backend in BACKENDS:
        perf = Performance(score, Audience(size=0), backend=backend)
        assert perf.machine.backend == backend
        perf.step()
        # settle into steady state before sampling
        harness.median_ms(perf.machine.react, inputs, rounds=10)
        medians[backend] = harness.median_ms(perf.machine.react, inputs, rounds=40)
        stats[backend] = dict(perf.machine.stats())

    speedup = medians["worklist"] / medians["levelized"]
    harness.write(
        "reaction", "levelized_vs_worklist",
        {
            "workload": "skini-large-score-steady-state",
            "sections": 60,
            "groups_per_section": 5,
            "patterns_per_group": 6,
            "circuit": stats["levelized"],
            "median_reaction_ms": medians,
            "speedup": round(speedup, 2),
        },
    )
    assert speedup >= 2.0, (
        f"levelized backend only {speedup:.2f}x faster "
        f"(worklist {medians['worklist']:.3f} ms, "
        f"levelized {medians['levelized']:.3f} ms)"
    )


def test_sparse_speedup_on_one_changed_input():
    """The PR-3 tentpole claim: when a steady-state reaction changes a
    single input, the sparse dirty-cone backend only evaluates that
    input's cone and reacts ≥5× faster (median) than the full levelized
    sweep.  The workload alternates the presence of one group input on
    the largest Skini score while the clock inputs stay constant, so
    exactly one input changes per reaction.  It also records what one
    sparse reaction evaluates: the mean nets per reaction and the sparse
    median per evaluated net (not gated; docs/performance.md tracks it)."""
    score = make_large_score(sections=60, groups_per_section=5, patterns_per_group=6)

    def toggled(step):
        inputs = {"seconds": 1, "second": True}
        if step % 2 == 0:
            inputs["S10G0In"] = True
        return inputs

    medians = {}
    sparse_counters = {}
    for backend in ("levelized", "sparse"):
        perf = Performance(score, Audience(size=0), backend=backend)
        assert perf.machine.backend == backend
        perf.step()
        for step in range(10):  # settle
            perf.machine.react(toggled(step))
        sched = perf.machine._scheduler
        times, evaluated = [], []
        for step in range(40):
            times.append(harness.time_ms(perf.machine.react, toggled(step)))
            if sched.last_dirty is not None:
                evaluated.append(len(sched.last_dirty))
        medians[backend] = harness.median(times)
        if backend == "sparse":
            nets_per_reaction = sum(evaluated) / len(evaluated)
            sparse_counters = {
                "sparse_reactions": sched.sparse_reactions,
                "full_reactions": sched.full_reactions,
                "nets_per_sparse_reaction": round(nets_per_reaction, 1),
                "sparse_us_per_net": round(
                    medians["sparse"] * 1000.0 / nets_per_reaction, 3
                ),
            }

    speedup = medians["levelized"] / medians["sparse"]
    harness.write(
        "reaction", "sparse_one_changed_input",
        {
            "workload": "skini-large-score-one-toggled-input",
            "toggled_input": "S10G0In",
            "median_reaction_ms": medians,
            "speedup": round(speedup, 2),
            **sparse_counters,
        },
    )
    # steady state must actually stay on the sparse path
    assert sparse_counters["sparse_reactions"] > sparse_counters["full_reactions"]
    assert speedup >= 5.0, (
        f"sparse backend only {speedup:.2f}x faster "
        f"(levelized {medians['levelized']:.3f} ms, "
        f"sparse {medians['sparse']:.3f} ms)"
    )
