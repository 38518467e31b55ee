"""The compiler's own footprint: one scope table per lexical scope, the
reaction plan compiled in bounded pieces, and a fingerprint that neither
change moves.

Payload specs share their lexical scope's ``{name: slot}`` table instead
of each carrying a copy, so the tables grow with the number of scopes,
not with the number of nets.  The straight-line reaction function is
compiled in pieces of at most ``plan.PIECE_STATEMENTS`` net statements;
``plan.fn`` runs them in order.  Plan artifacts carry every piece's
marshalled code, fall back to splitting ``source`` the same way, and
still load the older single-``__code__`` layout.
"""

import marshal

import pytest

from repro import ReactiveMachine, compile_module, parse_module, parse_program
from repro.apps.pillbox import pillbox_table
from repro.apps.skini import Audience, Performance, make_large_score, participant_module
from repro.compiler import plan as plan_mod
from repro.compiler.compile import (
    CompileOptions,
    _structural_key,
    clear_compile_cache,
    clear_hydrate_cache,
    hydrate_plan_artifact,
    plan_artifact,
)
from repro.compiler.plan import EvalPlan

#: spec kinds whose third field is the scope table
SCOPED = ("expr", "arm", "ctest", "emitval", "atom", "siginit", "exec_start")

BACKENDS = ("worklist", "levelized", "sparse")

PARTICIPANT_SCRIPT = [{"select": 7}, {}, {"grant": 2}, {}, {"stop": True}, {}]


def _tables(circuit):
    """(net, scope table) of every payload net that reads a scope."""
    return [
        (net, net.spec[2])
        for net in circuit.nets
        if net.spec is not None and net.spec[0] in SCOPED
    ]


def _line(net):
    return int(str(net.loc).split(":")[1])


# ---------------------------------------------------------------------------
# scope tables
# ---------------------------------------------------------------------------


class TestScopeTables:
    def test_nets_in_one_scope_share_one_table(self):
        module = parse_module(
            """
            module M(in I = 0, out X = 0, out Y) {
              loop {
                if (I.now) { emit X(I.nowval + 1) }
                await count(2, I.now);
                if (X.pre) { emit Y }
              }
            }
            """
        )
        tables = _tables(compile_module(module).circuit)
        assert len(tables) >= 4
        assert len({id(table) for _, table in tables}) == 1
        assert tables[0][1] == {"I": 0, "X": 1, "Y": 2}

    def test_signal_block_gets_its_own_table(self):
        module = parse_module(
            """
            module M(in I = 1, out X = 0, out Y = 0) {
              emit X(I.nowval);
              fork {
                signal I = 7;
                emit Y(I.nowval)
              }
              emit X(I.nowval + 100)
            }
            """
        )
        circuit = compile_module(module, options=CompileOptions(optimize=False)).circuit
        by_line = {}
        for net, table in _tables(circuit):
            by_line.setdefault(_line(net), []).append((net.spec[0], table))
        (_, before), = by_line[3]
        (_, init), = by_line[5]
        (_, inner), = by_line[6]
        (_, after), = by_line[8]
        # the block's body reads the local I; the enclosing table comes
        # back, the same object, once the block is over
        assert inner is not before
        assert inner["I"] != before["I"]
        assert after is before
        # the initializer is evaluated in the enclosing scope
        assert init is before

    def test_inlined_instances_share_the_callers_table(self):
        table = parse_program(
            """
            module Worker(in I, out O = 0) {
              loop { if (I.now) { emit O(O.preval + 1) } yield }
            }
            module Main(in A, in B, out X = 0, out Y = 0) {
              fork { run Worker(A as I, X as O) } par { run Worker(B as I, Y as O) }
            }
            """
        )
        compiled = compile_module(table.get("Main"), table)
        segments = compiled.circuit.segments
        assert [seg.path for seg in segments] == ["/Worker#0", "/Worker#1"]
        assert all(len(seg.registers) == 1 for seg in segments)
        # each body is renamed into Main's scope, so both read its table
        tables = {id(t): t for _, t in _tables(compiled.circuit)}
        assert list(tables.values()) == [{"A": 0, "B": 1, "X": 2, "Y": 3}]
        machine = ReactiveMachine(compiled)
        assert dict(machine.react({"A": True})) == {"X": 1}
        assert dict(machine.react({"A": True, "B": True})) == {"X": 2, "Y": 1}


# ---------------------------------------------------------------------------
# the structural fingerprint
# ---------------------------------------------------------------------------


class TestFingerprint:
    """Snapshots and plan artifacts carry the digest, so rendering the
    root once must hash exactly the bytes rendering it twice did."""

    def test_pillbox_digest_is_pinned(self):
        table = pillbox_table()
        assert _structural_key(table.get("Lisinopril"), table, None) == (
            "a5d8a0f273b335bca35019e50c8ec6830ca2766cedd9307bdba45c90943cc664"
        )

    def test_participant_digest_is_pinned(self):
        assert _structural_key(participant_module(), None, None) == (
            "0505577a9d0057ac241063cbfe57ca164ec82d0c5a45a8c6dc4bf7c9117d122b"
        )


# ---------------------------------------------------------------------------
# plan pieces
# ---------------------------------------------------------------------------


def _statements(piece_source):
    return [
        line for line in piece_source.splitlines()[1:-1]
        if not line.startswith(("     ", "    #", "    else:"))
    ]


class TestPlanPieces:
    def test_source_stays_one_function_and_splits_into_bounded_pieces(self, monkeypatch):
        monkeypatch.setattr(plan_mod, "PIECE_STATEMENTS", 3)
        plan = compile_module(participant_module()).evaluation_plan()
        assert plan.source.count("def __plan_react__") == 1
        assert plan.source.endswith("    return True\n")
        pieces = plan_mod._split_source(plan.source)
        assert len(pieces) == len(plan.pieces) > 1
        assert all(len(_statements(p)) <= 3 for p in pieces)
        assert all(len(_statements(p)) == 3 for p in pieces[:-1])
        body = [line for p in pieces for line in p.splitlines()[1:-1]]
        assert body == plan.source.splitlines()[1:-1]

    def test_multi_piece_score_agrees_on_every_backend(self):
        """The 1,347-net score spans several pieces at the default size."""
        runs = {}
        for backend in BACKENDS:
            perf = Performance(
                make_large_score(15, 5, 6), Audience(size=12, seed=7), backend=backend
            )
            perf.run(40)
            assert perf.machine.backend == backend
            runs[backend] = (
                [(p.time_s, p.pattern.pid, p.group) for p in perf.synth.timeline],
                [g.name for g in perf.open_groups()],
                perf.machine.state_digest(),
            )
        plan = perf.machine.compiled.evaluation_plan()
        assert len(plan.pieces) > 1
        assert len(perf.machine.compiled.circuit.nets) == 1347
        assert runs["worklist"][0]
        assert runs["worklist"] == runs["levelized"] == runs["sparse"]


# ---------------------------------------------------------------------------
# plan artifacts
# ---------------------------------------------------------------------------


@pytest.fixture
def small_pieces(monkeypatch):
    """Participant plans of several pieces, built and hydrated afresh."""
    monkeypatch.setattr(plan_mod, "PIECE_STATEMENTS", 5)
    clear_compile_cache()
    clear_hydrate_cache()
    yield
    clear_compile_cache()
    clear_hydrate_cache()


def _drive(module_or_compiled, backend):
    machine = ReactiveMachine(module_or_compiled, backend=backend)
    return [dict(machine.react(dict(inputs))) for inputs in PARTICIPANT_SCRIPT]


def _hydrated_agrees(blob):
    module = participant_module()
    compiled = hydrate_plan_artifact(blob)
    assert compiled._plan is not None  # the embedded plan, not a recompile
    for backend in BACKENDS:
        assert _drive(compiled, backend) == _drive(module, backend)
    return compiled._plan


class TestPieceArtifacts:
    @pytest.fixture
    def recompiles(self, monkeypatch):
        """The names of the plans compiled from source text."""
        calls = []
        compile_pieces = plan_mod._compile_pieces

        def counted(source, name):
            calls.append(name)
            return compile_pieces(source, name)

        monkeypatch.setattr(plan_mod, "_compile_pieces", counted)
        return calls

    def _artifact(self, monkeypatch, getstate=None):
        """A participant artifact and the piece count of its plan."""
        with monkeypatch.context() as patch:
            if getstate is not None:
                patch.setattr(EvalPlan, "__getstate__", getstate)
            blob = plan_artifact(participant_module())
        built = len(compile_module(participant_module()).evaluation_plan().pieces)
        clear_hydrate_cache()
        return blob, built

    def test_multi_piece_plan_round_trips_marshalled(
        self, small_pieces, recompiles, monkeypatch
    ):
        blob, built = self._artifact(monkeypatch)
        del recompiles[:]
        plan = _hydrated_agrees(blob)
        assert not recompiles
        assert len(plan.pieces) == built > 1

    def test_multi_piece_plan_round_trips_from_source(
        self, small_pieces, recompiles, monkeypatch
    ):
        getstate = EvalPlan.__getstate__

        def unreadable(plan):
            state = getstate(plan)
            state["__pieces__"] = b"\xff not marshal data"
            return state

        blob, built = self._artifact(monkeypatch, unreadable)
        del recompiles[:]
        plan = _hydrated_agrees(blob)
        assert recompiles == ["Participant"]
        assert len(plan.pieces) == built > 1

    def test_single_code_layout_still_hydrates(self, small_pieces, recompiles, monkeypatch):
        """Plans pickled before the split carry one ``__code__``."""
        getstate = EvalPlan.__getstate__

        def single_code(plan):
            state = getstate(plan)
            del state["__pieces__"]
            namespace = {}
            exec(compile(plan.source, "<plan>", "exec"), namespace)
            state["__code__"] = marshal.dumps(namespace["__plan_react__"].__code__)
            return state

        blob, _ = self._artifact(monkeypatch, single_code)
        del recompiles[:]
        plan = _hydrated_agrees(blob)
        assert not recompiles
        assert len(plan.pieces) == 1 and plan.fn is plan.pieces[0]
        assert plan.fn.__code__.co_filename == "<plan>"
