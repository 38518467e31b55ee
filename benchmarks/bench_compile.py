"""C1 — plan-artifact cold start and artifact parity.

A restarted process can cold-start from a plan artifact store instead of
its sources.  Two claims are gated here and recorded in
BENCH_compile.json, on a score with 64 ``run`` instantiations of one
2-stage module:

* **artifact cold-start** — a restarted process loading from the artifact
  store (hydrate the pickled circuit + evaluation plan, first reaction)
  reaches its first reaction ≥10× sooner than one cold-starting from
  sources (parse, compile, plan build, first reaction);
* **parity** — a machine hydrated from the store is observationally
  identical to one built from the direct compile: same trace and same
  state digest over a driven run.
"""

import gc
import time

import harness
from repro import ReactiveMachine, clear_compile_cache, compile_module
from repro.compiler.compile import ArtifactStore, clear_hydrate_cache
from repro.syntax.parser import parse_program
from workloads import modular_score, modular_score_source

INSTANCES = 64
STAGES = 2
COLD_START_GATE = 10.0
ROUNDS = 5
DRIVE_INSTANTS = 24


def _clear_all_caches():
    clear_compile_cache()
    clear_hydrate_cache()


def _drive(machine, instants=DRIVE_INSTANTS):
    trace = []
    for i in range(instants):
        inputs = {}
        if i % 2 == 0:
            inputs["T"] = True
        if i % 5 == 0:
            inputs["R"] = True
        trace.append(sorted(machine.react(inputs)))
    return trace


def test_cold_start_from_artifact_store(tmp_path):
    """Process restart: artifact store vs sources, both measured to the
    first reaction."""
    source = modular_score_source(INSTANCES, STAGES)
    entry, table = modular_score(INSTANCES, STAGES)

    store = ArtifactStore(str(tmp_path / "artifacts"))
    fingerprint = store.put(entry, table)

    def _timed(work):
        _clear_all_caches()
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            work()
            return (time.process_time() - start) * 1000.0
        finally:
            gc.enable()

    def cold_fresh():
        def work():
            fresh_table = parse_program(source)
            compiled = compile_module(fresh_table.get("Score"), fresh_table)
            ReactiveMachine(compiled).react({"T": True})

        return _timed(work)

    def cold_store():
        def work():
            compiled = store.load(fingerprint)
            ReactiveMachine(compiled).react({"T": True})

        return _timed(work)

    fresh_ms = min(cold_fresh() for _ in range(ROUNDS))
    store_ms = min(cold_store() for _ in range(ROUNDS))
    speedup = fresh_ms / store_ms

    artifact_bytes = len(store.get(fingerprint))
    harness.write(
        "compile", "cold_start",
        {
            "instances": INSTANCES,
            "stages": STAGES,
            "fresh_ms": round(fresh_ms, 2),
            "store_ms": round(store_ms, 2),
            "speedup": round(speedup, 2),
            "artifact_kib": round(artifact_bytes / 1024.0, 1),
        },
    )
    assert speedup >= COLD_START_GATE, (
        f"artifact cold-start only {speedup:.2f}x faster than fresh "
        f"(fresh {fresh_ms:.1f} ms, store {store_ms:.1f} ms)"
    )


def test_artifact_parity_smoke(tmp_path):
    """Trace and state-digest parity: the direct compile vs a machine
    hydrated from the artifact store."""
    entry, table = modular_score(INSTANCES, STAGES)

    _clear_all_caches()
    compiled = compile_module(entry, table)
    store = ArtifactStore(str(tmp_path / "artifacts"))
    fingerprint = store.put(entry, table)
    clear_hydrate_cache()
    hydrated = store.load(fingerprint)

    machines = {
        "compiled": ReactiveMachine(compiled),
        "hydrated": ReactiveMachine(hydrated),
    }
    traces = {name: _drive(machine) for name, machine in machines.items()}
    assert traces["hydrated"] == traces["compiled"], "hydrated trace diverged"

    digests = {
        name: machine.state_digest() for name, machine in machines.items()
    }
    assert digests["hydrated"] == digests["compiled"], (
        "hydrated machine state diverged from the direct compile"
    )
    harness.write(
        "compile", "parity",
        {
            "instants": DRIVE_INSTANTS,
            "trace_equal": True,
            "digest_equal": True,
        },
    )
