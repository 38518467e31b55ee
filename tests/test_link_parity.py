"""Linked instantiation parity: sub-circuit linking
(``CompileOptions(link=True)``, :mod:`repro.compiler.link`) must be
observationally indistinguishable from the seed's run-inlining.

The harness wraps random worker bodies in the instantiation shapes that
exercise every linked wire: two parallel instances (shared status
splicing), and a *sequenced* third instance that only starts after both
terminate — the completion-code (K0/K1) wires, which a non-terminating
worker never exercises.  On top of the property, plan artifacts must
round-trip (same trace and state digest as the directly-compiled
module), byte-identical across cache-cold recompiles, and the linked
compile must agree with itself across every evaluation backend,
including the bit-parallel lockstep fleet.
"""

from hypothesis import HealthCheck, given, settings

from repro import (
    CausalityError,
    CompileOptions,
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
from repro.compiler.link import clear_link_cache, link_cache_stats
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
    """A table instantiating ``worker`` in the shapes linking must get
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
def test_linked_matches_inlined_on_random_workers(worker, trace):
    """Identical traces — or identical causality errors — from the
    linked and the inlined compile of the same instantiation harness."""
    score, table = _score_table(worker)
    clear_link_cache()
    inlined = compile_module(score, table, CompileOptions())
    linked = compile_module(score, table, CompileOptions(link=True))

    ref, ref_err = _observe(inlined, trace)
    got, got_err = _observe(linked, trace)
    assert (ref_err is None) == (got_err is None), (
        f"causality reporting diverged\n{worker.body!r}\n{trace}\n"
        f"inlined={ref_err}\nlinked={got_err}"
    )
    assert ref == got, (
        f"trace divergence\n{worker.body!r}\ninputs={trace}\n"
        f"inlined={ref}\nlinked={got}"
    )


@settings(**_SETTINGS)
@given(pure_modules(), input_traces())
def test_linked_backends_agree(worker, trace):
    """One linked compile, every scalar backend: identical observations
    and identical end-of-trace state digests."""
    score, table = _score_table(worker)
    clear_link_cache()
    linked = compile_module(score, table, CompileOptions(link=True))

    results = {}
    for backend in ("worklist", "levelized", "sparse"):
        try:
            machine = ReactiveMachine(linked, backend=backend)
            outputs = [dict(machine.react({n: True for n in step}))
                       for step in trace]
            results[backend] = (outputs, machine.state_digest(), None)
        except CausalityError as e:
            results[backend] = (None, None, (str(e), tuple(e.nets)))
    reference = results["worklist"]
    for backend in ("levelized", "sparse"):
        assert results[backend] == reference, (
            f"{backend} diverged from worklist on a linked compile\n"
            f"{worker.body!r}\n{trace}\n{results[backend]}\n{reference}"
        )


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pure_modules(), input_traces())
def test_plan_artifact_roundtrip(worker, trace):
    """Hydrating a linked plan artifact yields a machine with the same
    trace and the same state digest as the directly-compiled module."""
    score, table = _score_table(worker)
    clear_link_cache()
    clear_hydrate_cache()
    linked = compile_module(score, table, CompileOptions(link=True))
    direct, direct_err = _observe(linked, trace)

    try:
        blob = plan_artifact(score, table, CompileOptions(link=True))
    except Exception:
        return  # unrenderable worker: artifacts are refused, not wrong
    hydrated = hydrate_plan_artifact(blob)
    assert hydrated.fingerprint == linked.fingerprint
    got, got_err = _observe(hydrated, trace)
    assert (direct, direct_err is None) == (got, got_err is None)
    if direct_err is None:
        assert (
            ReactiveMachine(linked).state_digest()
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
    second — identically under both compiles.  (A stamping bug that
    mis-wires the template's K wires is invisible to non-terminating
    workers; this pins the terminating case.)"""
    table = parse_program(SEQUENCED_SRC)
    entry = table.get("Twice")
    steps = [{"T": True}, {}, {"T": True}, {}, {"T": True}, {}]
    expected = None
    for options in (CompileOptions(), CompileOptions(link=True)):
        clear_link_cache()
        compiled = compile_module(entry, table, options)
        machine = ReactiveMachine(compiled)
        got = []
        for step in steps:
            result = machine.react(step)
            got.append((sorted(result), result.paused, result.terminated))
        if expected is None:
            expected = got
            # instant 0: first Once emits O, its await arms; instant 2:
            # T fires the await, the first instance terminates, yield
            # pauses; instant 3: second Once starts and emits D (O as D);
            # instant 4: its await fires, the trailing emit O runs and
            # Twice terminates
            emissions = [e for e, _, _ in got]
            assert emissions == [["O"], [], [], ["D"], ["O"], []], got
            assert got[4][2] and not got[3][2], got
        else:
            assert got == expected


def test_artifact_bytes_stable_across_cold_recompiles():
    """Two artifact builds of the same source from fully cold caches —
    fresh parse, fresh templates, fresh label counters — must be
    byte-identical, or artifact stores would churn on every deploy."""
    src = SEQUENCED_SRC
    blobs = []
    for _ in range(2):
        clear_compile_cache()
        clear_link_cache()
        clear_hydrate_cache()
        table = parse_program(src)
        blobs.append(
            plan_artifact(table.get("Twice"), table, CompileOptions(link=True))
        )
    assert blobs[0] == blobs[1], "plan artifact bytes are not reproducible"


def test_linked_lockstep_fleet_matches_scalar():
    """The word-parallel lockstep engine over a *linked* compile tracks
    scalar members exactly."""
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
    clear_link_cache()
    linked = compile_module(table.get("Score"), table, CompileOptions(link=True))
    word = MachineFleet(linked, size=6, backend="lockstep")
    scalar = MachineFleet(linked, size=6, backend="worklist")
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
            f"lockstep member {member} diverged on a linked compile"
        )


def test_link_cache_one_template_per_module():
    """N instantiations of one module build exactly one template."""
    src = SEQUENCED_SRC
    table = parse_program(src)
    clear_link_cache()
    compile_module(table.get("Twice"), table, CompileOptions(link=True))
    stats = link_cache_stats()
    assert stats["entries"] == 1 and stats["misses"] == 1, stats
    assert stats["hits"] == 1, stats
