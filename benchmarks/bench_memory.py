"""E4 + E5 — memory footprints (paper §5.3).

Paper figures: each net is a JavaScript object of 192-216 bytes; the
Lisinopril program compiles to 399 nets ≈ 86 KB; a large Skini score
reaches ~10,000 nets ≈ 2.1 MB.  Absolute bytes differ between V8 and
CPython; the claims we reproduce are the *per-net linearity* of memory
and the relative scale pillbox ≪ large score.

The compiler's own footprint must be linear too: one gate compiles a
1.3k- and a 10k-net score and checks that the scope tables the payload
specs keep, and the peak memory of compile plus plan, grow no faster
than the net count (the ``memory_scaling`` section of
BENCH_compile.json)."""

import gc
import tracemalloc

import harness
import pytest

from repro import compile_module
from repro.apps.pillbox import pillbox_table
from repro.apps.skini import make_large_score
from repro.apps.skini.score import generate_score_module


def _pillbox_circuit():
    table = pillbox_table()
    return compile_module(table.get("Lisinopril"), table).circuit


def _score_circuit(sections):
    module, table = generate_score_module(
        make_large_score(sections=sections, groups_per_section=5, patterns_per_group=6)
    )
    return compile_module(module, table).circuit


def test_pillbox_footprint(benchmark):
    circuit = _pillbox_circuit()
    size = benchmark(circuit.memory_estimate)
    nets = circuit.stats()["nets"]
    # paper order of magnitude: hundreds of nets, tens of KB
    assert 100 <= nets <= 2000, nets
    assert size / nets < 1000, "per-net footprint should be a few hundred bytes"


def test_large_score_footprint(benchmark):
    circuit = _score_circuit(sections=60)
    size = benchmark(circuit.memory_estimate)
    nets = circuit.stats()["nets"]
    assert nets > 3000, nets  # thousands of nets, like the paper's scores
    pill = _pillbox_circuit()
    # relative scale: the big score dwarfs the pillbox, memory scales along
    ratio_nets = nets / pill.stats()["nets"]
    ratio_bytes = size / pill.memory_estimate()
    assert ratio_nets > 5
    assert 0.3 < ratio_bytes / ratio_nets < 3.0, (
        "memory should scale ~linearly with nets: "
        f"nets x{ratio_nets:.1f} vs bytes x{ratio_bytes:.1f}"
    )


def test_bytes_per_net_stable_across_programs():
    """The paper's per-net byte figure is program-independent; ours must
    be too (within 2x across very different programs)."""
    per_net = []
    for circuit in (_pillbox_circuit(), _score_circuit(sections=20)):
        per_net.append(circuit.memory_estimate() / circuit.stats()["nets"])
    assert max(per_net) < 2 * min(per_net), per_net


def test_per_machine_state_is_a_fraction_of_the_shared_plan():
    """With the structural compile cache, N machines of one module share
    the circuit + evaluation plan; each extra machine only pays its
    mutable state (value/register buffers, signal slots, exec slots).
    The split is what ``MachineFleet.memory_report()`` reports — the
    per-machine increment must be a small fraction of the shared part."""
    from repro import compile_cached
    from repro.apps.pillbox import pillbox_table
    from repro.apps.skini import participant_module

    table = pillbox_table()
    for module, mods in (
        (participant_module(), None),
        (table.get("Lisinopril"), table),
    ):
        compiled = compile_cached(module, mods)
        shared = compiled.circuit.memory_estimate()
        shared += compiled.evaluation_plan().memory_estimate()
        per_machine = compiled.circuit.per_machine_state_estimate()
        assert per_machine > 0
        assert per_machine < shared / 3, (
            f"{compiled.circuit.name}: per-machine state {per_machine} B "
            f"should be well under the shared footprint {shared} B"
        )


#: (sections, groups, patterns) of the two scores the scaling gate
#: compiles: 1,347 and 10,247 nets
SCALING_SHAPES = ((15, 5, 6), (115, 5, 6))
#: bounds on the 10k-net figure over the 1.3k-net one
TABLE_ENTRIES_GATE = 1.5
PEAK_PER_NET_GATE = 1.0

_SCOPED = ("expr", "arm", "ctest", "emitval", "atom", "siginit", "exec_start")


def _table_entries(circuit):
    """Scope-table entries the circuit's payload specs keep, each
    distinct table counted once."""
    tables = {}
    for net in circuit.nets:
        if net.spec is not None and net.spec[0] in _SCOPED:
            tables[id(net.spec[2])] = len(net.spec[2])
    return sum(tables.values())


def _compile_footprint(shape):
    module, table = generate_score_module(make_large_score(*shape))
    gc.collect()
    tracemalloc.start()
    try:
        compiled = compile_module(module, table)
        compiled.evaluation_plan()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nets = len(compiled.circuit.nets)
    return {
        "shape": list(shape),
        "nets": nets,
        "table_entries_per_net": round(_table_entries(compiled.circuit) / nets, 2),
        "retained_mb": round(retained / 1e6, 1),
        "peak_mb": round(peak / 1e6, 1),
        "peak_bytes_per_net": round(peak / nets),
    }


def test_compile_memory_linear_in_score_size():
    """Compile footprint per net does not grow from a 1.3k- to a 10k-net
    score: payload specs share one scope table per lexical scope, and
    the reaction plan is compiled in bounded pieces."""
    small, large = (_compile_footprint(shape) for shape in SCALING_SHAPES)
    entries_ratio = large["table_entries_per_net"] / small["table_entries_per_net"]
    peak_ratio = large["peak_bytes_per_net"] / small["peak_bytes_per_net"]
    harness.write("compile", "memory_scaling", {
        "sizes": [small, large],
        "table_entries_ratio": round(entries_ratio, 2),
        "peak_per_net_ratio": round(peak_ratio, 2),
        "gates": {
            "table_entries_ratio": TABLE_ENTRIES_GATE,
            "peak_per_net_ratio": PEAK_PER_NET_GATE,
        },
    })
    assert entries_ratio <= TABLE_ENTRIES_GATE, (
        f"scope-table entries per net grew {entries_ratio:.2f}x from "
        f"{small['nets']} to {large['nets']} nets: {small} vs {large}"
    )
    assert peak_ratio <= PEAK_PER_NET_GATE, (
        f"compile + plan peak per net grew {peak_ratio:.2f}x from "
        f"{small['nets']} to {large['nets']} nets: {small} vs {large}"
    )
