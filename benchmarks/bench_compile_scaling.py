"""E1 — compile time scales ≈ linearly with source size (paper §5.3:
"the compiling time of a HipHop.js program is roughly proportional to its
source code size")."""

import pytest

import harness
from repro import compile_module
from workloads import fit_slope, linear_module, statement_count

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
