"""Plan artifacts: a compiled program serialized for another process
(``plan_artifact``), hydrated back (``hydrate_plan_artifact``) and kept
in a fingerprint-keyed ``ArtifactStore`` (docs/performance.md, artifact
cold start).

A hydrated program must land on the fingerprint of a fresh compile and
drive every backend exactly like it; a program whose fingerprint another
process could not reproduce, or an artifact that cannot be read, is
refused with :class:`~repro.errors.ArtifactError`.
"""

import pytest

from repro import ArtifactError, ReactiveMachine, compile_cached
from repro.apps.skini.participant import participant_module
from repro.compiler.compile import hydrate_plan_artifact, plan_artifact
from repro.lang import ast as A
from repro.lang import expr as E
from repro.lang.signals import SignalDecl

BACKENDS = ("worklist", "levelized", "sparse")

PARTICIPANT_SCRIPT = [
    {"select": 7}, {}, {"grant": 2}, {}, {"stop": True}, {},
]


def drive_oracle(module, script, backend="auto"):
    machine = ReactiveMachine(module, backend=backend)
    trace = [dict(machine.react(dict(inputs))) for inputs in script]
    return machine, trace


class TestPlanArtifact:
    def test_round_trip_reproduces_fingerprint(self):
        module = participant_module()
        blob = plan_artifact(module)
        assert isinstance(blob, bytes)
        compiled = hydrate_plan_artifact(blob)
        assert compiled.fingerprint == compile_cached(module).fingerprint

    def test_embedded_callable_refused(self):
        bad = A.Module(
            "Bad",
            [SignalDecl("A", "in"), SignalDecl("X", "out")],
            A.Emit("X", E.Call(E.Lit(lambda: 1), [])),
        )
        with pytest.raises(ArtifactError):
            plan_artifact(bad)

    def test_corrupt_artifact_refused(self):
        with pytest.raises(ArtifactError):
            hydrate_plan_artifact(b"not a pickle")

    def test_stored_artifact_with_retired_plan_fields_hydrates(
        self, tmp_path, monkeypatch
    ):
        """Format-2 artifacts written while evaluation plans still carried
        per-source cone tables (``cones``/``cone_sizes``) stay loadable
        from an ArtifactStore, embedded plan included."""
        from repro.compiler.compile import ArtifactStore, clear_hydrate_cache
        from repro.compiler.netlist import INPUT, REG
        from repro.compiler.plan import EvalPlan

        getstate = EvalPlan.__getstate__

        def with_cone_tables(plan):
            state = getstate(plan)
            sources = [
                net.id for net in plan.circuit.nets if net.kind in (INPUT, REG)
            ]
            state["cones"] = {net_id: 1 << net_id for net_id in sources}
            state["cone_sizes"] = {net_id: 1 for net_id in sources}
            return state

        module = participant_module()
        store = ArtifactStore(str(tmp_path))
        with monkeypatch.context() as patch:
            patch.setattr(EvalPlan, "__getstate__", with_cone_tables)
            key = store.put(module)
        clear_hydrate_cache()
        try:
            compiled = store.load(key)
            assert compiled._plan is not None  # the embedded plan, not a recompile
            for backend in BACKENDS:
                _, expected = drive_oracle(module, PARTICIPANT_SCRIPT, backend)
                _, hydrated = drive_oracle(compiled, PARTICIPANT_SCRIPT, backend)
                assert hydrated == expected
        finally:
            clear_hydrate_cache()
