"""Resilience overhead — the fault-tolerant authenticator (``MainR``:
retry + per-attempt timeout wrapped around the same ``Main`` orchestration)
must cost < 10% wall time on the fault-free fast path."""

import time

from repro.apps.login import (
    build_login_machine,
    build_resilient_login_machine,
    login_table,
)
from repro.host import AuthService, RetryPolicy, SimulatedLoop

ACCOUNTS = {"alice": "secret"}
CYCLES = 20  # login/session/logout gestures per scenario run


def _drive(machine, loop):
    machine.react({})
    machine.react({"name": "alice", "passwd": "secret"})
    for _ in range(CYCLES):
        machine.react({"login": True})
        loop.advance(200)  # reply lands, session starts
        loop.advance_seconds(2)  # session clock ticks
        machine.react({"logout": True})
    assert machine.connState.nowval == "disconnected"


def _scenario(builder, table):
    loop = SimulatedLoop()
    svc = AuthService(loop, ACCOUNTS, latency_ms=50)
    machine = builder(loop, svc, table)
    return machine, loop


def _time_scenario_ms(builder, table):
    machine, loop = _scenario(builder, table)
    start = time.perf_counter()
    _drive(machine, loop)
    return (time.perf_counter() - start) * 1000.0


def _build_plain(loop, svc, table):
    return build_login_machine(loop, svc, table=table)


def _build_resilient(loop, svc, table):
    return build_resilient_login_machine(
        loop, svc, table=table,
        retry_policy=RetryPolicy(max_attempts=4, base_delay_ms=200.0),
        timeout_ms=2_000,
    )


def measure_overhead(rounds=25):
    """Best wall time of the same gesture workload on ``Main`` vs
    ``MainR``; returns (plain_ms, resilient_ms, overhead_fraction).

    The two variants are interleaved round by round (so clock-speed drift
    hits both) and the minimum is compared — the standard estimator when
    the noise is strictly additive scheduler/container jitter."""
    table = login_table()
    # warm both paths (imports, parse caches) before timing
    _time_scenario_ms(_build_plain, table)
    _time_scenario_ms(_build_resilient, table)
    plain, resilient = [], []
    for _ in range(rounds):
        plain.append(_time_scenario_ms(_build_plain, table))
        resilient.append(_time_scenario_ms(_build_resilient, table))
    best_plain, best_resilient = min(plain), min(resilient)
    return best_plain, best_resilient, (best_resilient - best_plain) / best_plain


def test_fast_path_overhead_under_ten_percent():
    # one re-measure on a miss: the gate is for regressions, not for
    # container scheduler spikes
    plain, resilient, overhead = measure_overhead()
    if overhead >= 0.10:
        plain, resilient, overhead = min(
            (plain, resilient, overhead), measure_overhead(), key=lambda m: m[2]
        )
    assert overhead < 0.10, (
        f"resilience overhead {overhead:.1%} (plain {plain:.2f} ms, "
        f"resilient {resilient:.2f} ms)"
    )


def test_identical_observable_behaviour_on_fast_path():
    table = login_table()
    logs = []
    for builder in (_build_plain, _build_resilient):
        machine, loop = _scenario(builder, table)
        states = []
        machine.add_listener("connState", states.append)
        _drive(machine, loop)
        logs.append(states)
    assert logs[0] == logs[1]
