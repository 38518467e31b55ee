"""A1 — optimizer ablation: net counts and reaction latency with the
circuit optimizer on vs off.

The paper's compiler "balances simplicity of compilation and execution
with decent speed"; our optimizer is one of the knobs behind that
trade-off, so we quantify what it buys."""

import pytest

import harness
from repro import CompileOptions, ReactiveMachine, compile_module
from repro.apps.login import login_table
from repro.apps.pillbox import pillbox_table
from workloads import drive_steady_state, linear_module

SIZES = (8, 32)


@pytest.mark.parametrize("units", SIZES)
@pytest.mark.parametrize("optimize", (False, True), ids=("raw", "optimized"))
def test_reaction_latency(benchmark, units, optimize):
    compiled = compile_module(
        linear_module(units), options=CompileOptions(optimize=optimize)
    )
    machine = ReactiveMachine(compiled)
    inputs = drive_steady_state(machine)
    benchmark(lambda: machine.react(inputs))


@pytest.mark.parametrize("optimize", (False, True), ids=("raw", "optimized"))
def test_compile_cost(benchmark, optimize):
    module = linear_module(16)
    benchmark(lambda: compile_module(module, options=CompileOptions(optimize=optimize)))


def _stats(module, table, optimize):
    return compile_module(
        module, table, options=CompileOptions(optimize=optimize)
    ).stats()


def test_optimizer_shrinks_real_applications():
    rows = []
    for name, (module, table) in {
        "login-v1": (login_table().get("Main"), login_table()),
        "login-v2": (login_table().get("MainV2"), login_table()),
        "pillbox": (pillbox_table().get("Lisinopril"), pillbox_table()),
    }.items():
        raw = _stats(module, table, optimize=False)["nets"]
        opt = _stats(module, table, optimize=True)["nets"]
        rows.append((name, raw, opt))
        assert opt < raw, f"{name}: optimizer should shrink the circuit"
    # across the corpus the optimizer removes a meaningful fraction
    # (modest, since the translator already folds constants while wiring)
    total_raw = sum(r for _n, r, _o in rows)
    total_opt = sum(o for _n, _r, o in rows)
    assert total_opt < 0.95 * total_raw, rows


def test_optimizer_latency_not_worse():
    """Optimized circuits must react at least as fast (median over
    repeated reactions) as raw ones on the same workload."""
    medians = []
    for optimize in (False, True):
        compiled = compile_module(
            linear_module(32), options=CompileOptions(optimize=optimize)
        )
        machine = ReactiveMachine(compiled)
        inputs = drive_steady_state(machine)
        medians.append(harness.median_ms(machine.react, inputs, rounds=40))
    raw, optimized = medians
    assert optimized < raw * 1.2, (raw, optimized)
