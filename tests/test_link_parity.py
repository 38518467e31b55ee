"""``run`` instance parity.

``run`` compiles one way: the expander inlines the callee's body, marked
as an instance so the translator records its state segment.  The
harness wraps random worker bodies in the instantiation shapes that
exercise every instance boundary: two parallel instances (both emitting
into shared caller signals), and a *sequenced* third instance that only
starts after both terminate — the completion-code (K0/K1) wires, which a
non-terminating worker never exercises.  Plan artifacts must round-trip
(same trace and state digest as the directly-compiled module) and be
byte-identical across cache-cold recompiles, segments included, and a
compile must agree with itself across every evaluation backend,
including the bit-parallel lockstep fleet.
"""

from hypothesis import HealthCheck, given, settings

from repro import (
    CausalityError,
    ReactiveMachine,
    clear_compile_cache,
    compile_module,
    parse_program,
)
from repro.compiler.compile import (
    clear_hydrate_cache,
    hydrate_plan_artifact,
    plan_artifact,
)
from repro.lang import ast as A
from repro.lang.signals import SignalDecl
from repro.runtime.fleet import MachineFleet
from tests.strategies import INPUTS, OUTPUTS, input_traces, pure_modules

_SETTINGS = dict(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

_IFACE = [SignalDecl(n, "in") for n in INPUTS] + [
    SignalDecl(n, "out") for n in OUTPUTS
]


def _score_table(worker: A.Module):
    """A table instantiating ``worker`` in the shapes instances must get
    right: ``fork { run } par { run }`` then, once both terminate, a
    sequenced third ``run``."""
    worker = A.Module("Gen", worker.interface, worker.body)
    body = A.Seq([
        A.Par([A.Run("Gen"), A.Run("Gen")]),
        A.Pause(),
        A.Run("Gen"),
    ])
    score = A.Module("Score", list(_IFACE), body)
    table = A.ModuleTable()
    table.add(worker)
    table.add(score)
    return score, table


def _observe(compiled, trace):
    """Trace or causality error of a compiled module on ``trace``."""
    try:
        machine = ReactiveMachine(compiled)
        outputs = []
        for step in trace:
            result = machine.react({name: True for name in step})
            outputs.append((
                dict(result),
                result.paused,
                result.terminated,
            ))
            if machine.terminated:
                break
        return outputs, None
    except CausalityError as e:
        return None, (str(e), tuple(e.nets))


@settings(**_SETTINGS)
@given(pure_modules(), input_traces())
def test_linked_backends_agree(worker, trace):
    """One compile, every scalar backend: identical observations and
    identical end-of-trace state digests."""
    score, table = _score_table(worker)
    compiled = compile_module(score, table)

    results = {}
    for backend in ("worklist", "levelized", "sparse"):
        try:
            machine = ReactiveMachine(compiled, backend=backend)
            outputs = [dict(machine.react({n: True for n in step}))
                       for step in trace]
            results[backend] = (outputs, machine.state_digest(), None)
        except CausalityError as e:
            results[backend] = (None, None, (str(e), tuple(e.nets)))
    reference = results["worklist"]
    for backend in ("levelized", "sparse"):
        assert results[backend] == reference, (
            f"{backend} diverged from worklist\n"
            f"{worker.body!r}\n{trace}\n{results[backend]}\n{reference}"
        )


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pure_modules(), input_traces())
def test_plan_artifact_roundtrip(worker, trace):
    """Hydrating a plan artifact yields a machine with the same trace
    and the same state digest as the directly-compiled module."""
    score, table = _score_table(worker)
    clear_hydrate_cache()
    compiled = compile_module(score, table)
    direct, direct_err = _observe(compiled, trace)

    try:
        blob = plan_artifact(score, table)
    except Exception:
        return  # unrenderable worker: artifacts are refused, not wrong
    hydrated = hydrate_plan_artifact(blob)
    assert hydrated.fingerprint == compiled.fingerprint
    got, got_err = _observe(hydrated, trace)
    assert (direct, direct_err is None) == (got, got_err is None)
    if direct_err is None:
        assert (
            ReactiveMachine(compiled).state_digest()
            == ReactiveMachine(hydrated).state_digest()
        )


SEQUENCED_SRC = """
module Once(in T, out O) {
  fork { await T.now; } par { emit O; }
}
module Twice(in T, out O, out D) {
  run Once(...);
  yield;
  run Once(O as D);
  emit O;
}
"""


def test_terminating_instances_sequence_correctly():
    """Completion wires: the second ``run`` must start only after the
    first instance terminates, and the trailing ``emit`` only after the
    second.  (A bug that mis-wires an instance's K wires is invisible to
    non-terminating workers; this pins the terminating case.)"""
    table = parse_program(SEQUENCED_SRC)
    compiled = compile_module(table.get("Twice"), table)
    assert [seg.path for seg in compiled.circuit.segments] == [
        "/Once#0", "/Once#1",
    ]
    machine = ReactiveMachine(compiled)
    steps = [{"T": True}, {}, {"T": True}, {}, {"T": True}, {}]
    got = []
    for step in steps:
        result = machine.react(step)
        got.append((sorted(result), result.paused, result.terminated))
    # instant 0: first Once emits O, its await arms; instant 2: T fires
    # the await, the first instance terminates, yield pauses; instant 3:
    # second Once starts and emits D (O as D); instant 4: its await
    # fires, the trailing emit O runs and Twice terminates
    emissions = [e for e, _, _ in got]
    assert emissions == [["O"], [], [], ["D"], ["O"], []], got
    assert got[4][2] and not got[3][2], got


def test_artifact_bytes_stable_across_cold_recompiles():
    """Two artifact builds of the same source from fully cold caches —
    fresh parse, fresh label counters — must be byte-identical, segments
    included, or artifact stores would churn on every deploy."""
    src = SEQUENCED_SRC
    blobs = []
    for _ in range(2):
        clear_compile_cache()
        clear_hydrate_cache()
        table = parse_program(src)
        blobs.append(plan_artifact(table.get("Twice"), table))
    assert blobs[0] == blobs[1], "plan artifact bytes are not reproducible"
    hydrated = hydrate_plan_artifact(blobs[0])
    assert [seg.path for seg in hydrated.circuit.segments] == [
        "/Once#0", "/Once#1",
    ]


def test_linked_lockstep_fleet_matches_scalar():
    """The word-parallel lockstep engine over a compile with ``run``
    instances tracks scalar members exactly."""
    src = """
    module Worker(in T, in R, out O, out P) {
      loop {
        await count(2, T.now);
        emit O;
        if (R.pre) { emit P; }
        yield;
      }
    }
    module Score(in T, in R, out O, out P) {
      fork { run Worker(...); } par { run Worker(T as R, O as P, ...); }
    }
    """
    table = parse_program(src)
    compiled = compile_module(table.get("Score"), table)
    word = MachineFleet(compiled, size=6, backend="lockstep")
    scalar = MachineFleet(compiled, size=6, backend="worklist")
    assert word._engine is not None
    for i in range(10):
        inputs = {}
        if i % 2 == 0:
            inputs["T"] = True
        if i % 3 == 0:
            inputs["R"] = True
        word.react_all(inputs)
        scalar.react_all(inputs)
    for member in range(6):
        assert word[member].state_digest() == scalar[member].state_digest(), (
            f"lockstep member {member} diverged"
        )
