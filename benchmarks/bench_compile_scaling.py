"""E1 — compile time scales ≈ linearly with source size (paper §5.3:
"the compiling time of a HipHop.js program is roughly proportional to its
source code size")."""

import pytest

import harness
from bench_compile import best_compile_ms
from repro import CompileOptions, ReactiveMachine, compile_module
from workloads import fit_slope, linear_module, nested_run, statement_count

SIZES = (4, 8, 16, 32, 64)


@pytest.mark.parametrize("units", SIZES)
def test_compile_time(benchmark, units):
    module = linear_module(units)
    result = benchmark(lambda: compile_module(module))
    assert result.stats()["nets"] > 0


def test_compile_time_is_roughly_linear():
    """The shape claim itself: statement count vs compile time correlates
    linearly, and the per-statement cost does not blow up across a 16x
    size range."""
    statements, times = [], []
    for units in SIZES:
        module = linear_module(units)
        statements.append(statement_count(module))
        times.append(harness.median_ms(compile_module, module, rounds=3))
    slope, corr = fit_slope(statements, times)
    assert corr > 0.97, f"compile time not linear in size: corr={corr:.3f}"
    per_stmt_small = times[0] / statements[0]
    per_stmt_large = times[-1] / statements[-1]
    assert per_stmt_large < per_stmt_small * 4, (
        f"superlinear compile cost: {per_stmt_small:.2e} -> {per_stmt_large:.2e} ms/stmt"
    )


def test_deep_run_instantiation_scaling():
    """Deep ``run`` chains, 64 leaf instances in every shape: the linked
    compile's advantage scales with per-module *reuse* (how many times
    each unique module is instantiated per level), not with raw instance
    count.  At fanout 2 each template is only stamped twice and — since a
    template pre-optimizes its whole subtree — linking approaches parity
    with inlining; at fanout 8 the same 64 leaves compile several times
    faster.  Gates: trace parity at every shape, monotone speedup in
    fanout, and the low-reuse worst case is not a regression over the
    seed's inlining."""
    shapes = [(6, 2), (3, 4), (2, 8)]  # (depth, fanout), 64 leaves each
    rows = []
    for depth, fanout in shapes:
        entry, table = nested_run(depth, fanout)
        inline_ms, inlined = best_compile_ms(entry, table, CompileOptions(), rounds=3)
        link_ms, linked = best_compile_ms(entry, table, CompileOptions(link=True), rounds=3)
        mi, ml = ReactiveMachine(inlined), ReactiveMachine(linked)
        for i in range(12):
            inputs = {}
            if i % 2 == 0:
                inputs["T"] = True
            if i % 3 == 0:
                inputs["R"] = True
            a, b = sorted(mi.react(inputs)), sorted(ml.react(inputs))
            assert a == b, f"depth={depth} fanout={fanout} instant {i}: {a} != {b}"

        rows.append({
            "depth": depth,
            "fanout": fanout,
            "leaves": fanout ** depth,
            "inline_ms": round(inline_ms, 2),
            "link_ms": round(link_ms, 2),
            "speedup": round(inline_ms / link_ms, 2),
        })

    speedups = [row["speedup"] for row in rows]
    assert speedups == sorted(speedups), (
        f"link speedup should grow with per-level reuse: {rows}"
    )
    assert speedups[0] > 0.67, (
        f"low-reuse nesting regressed vs inlining: {rows[0]}"
    )
    assert speedups[-1] >= 2.0, (
        f"high-reuse nesting should win clearly: {rows[-1]}"
    )
    harness.write("compile", "deep", {"shapes": rows})
