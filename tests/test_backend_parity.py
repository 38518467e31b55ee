"""Backend equivalence: the levelized straight-line plan and the sparse
dirty-cone evaluator against the worklist scheduler.

Both fast backends (``docs/performance.md``) must be observationally
indistinguishable from the worklist: identical signal traces, statuses
and ``pre``/``now`` values on random constructive programs, identical
termination/pause status, and identical
:class:`~repro.errors.CausalityError` reporting (message *and* offending
net list) on non-constructive ones.  Every random trace is replayed with
each step doubled, so the sparse mode is exercised on reactions with
*zero* changed inputs (the pure change-propagation path).  The paper
apps double as end-to-end parity fixtures, and the ``auto`` policy is
pinned: sparse for large acyclic circuits (>= ``SPARSE_MIN_NETS``),
levelized for small acyclic ones and the (cyclic-but-constructive)
pillbox, worklist fallback for heavily cyclic circuits.  A wide-fanout
program drives sparse reactions into the tail-scan bailout, the one
bound on a sparse reaction's cost.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, HealthCheck

from repro import (
    CausalityError,
    MachineError,
    MachineSupervisor,
    ReactionBudgetExceeded,
    ReactiveMachine,
    clear_compile_cache,
    compile_module,
    parse_module,
)
from repro.apps.login import build_login_machine
from repro.apps.pillbox import PillboxApp
from repro.apps.skini import Audience, Performance, make_paper_score
from repro.compiler import plan as plan_mod
from repro.host import AuthService, SimulatedLoop
from repro.lang.expr import EvalError
from repro.runtime.fastsched import SPARSE_BAILOUT_FRACTION, PlanScheduler
from tests.strategies import input_traces, pure_modules

BACKENDS = ("worklist", "levelized", "sparse")

_SETTINGS = dict(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _observe_step(machine, result):
    signals = tuple(
        (name, view.now, view.pre, view.nowval, view.preval)
        for name in sorted(machine.compiled.circuit.interface)
        for view in (machine.signal(name),)
    )
    return (
        dict(result),
        dict(result.statuses),
        signals,
        result.paused,
        result.terminated,
    )


def _run(module, trace, backend):
    machine = ReactiveMachine(module, backend=backend)
    outputs = []
    for step in trace:
        result = machine.react({name: True for name in step})
        outputs.append(_observe_step(machine, result))
        if machine.terminated:
            break
    return outputs


def _observe(module, trace, backend):
    """Run and capture either the full observation list or the causality
    error, so error reporting is compared exactly like traces."""
    try:
        return _run(module, trace, backend), None
    except CausalityError as e:
        return None, (str(e), tuple(e.nets))


def _assert_backends_agree(program, trace, label):
    """Run ``program`` (a module or a compiled module) on ``trace`` and on
    its doubled form, and compare both fast backends with the worklist;
    ``label`` names the program in failure messages."""
    doubled = [step for step in trace for _ in (0, 1)]
    for inputs in (trace, doubled):
        reference, reference_error = _observe(program, inputs, "worklist")
        for backend in ("levelized", "sparse"):
            observed, observed_error = _observe(program, inputs, backend)
            assert reference_error == observed_error, (
                f"causality reporting diverged ({backend})\n{label}\n"
                f"{inputs}\nworklist={reference_error}\n{backend}={observed_error}"
            )
            assert reference == observed, (
                f"trace divergence ({backend})\n{label}\ninputs={inputs}\n"
                f"worklist={reference}\n{backend}={observed}"
            )


@settings(**_SETTINGS)
@given(pure_modules(), input_traces())
def test_backends_agree_on_random_programs(module, trace):
    """Signal traces, statuses, pre/now values, pause/termination flags,
    and causality errors must be identical across all three backends —
    including on doubled traces, where every other reaction repeats the
    previous instant's inputs (zero changed inputs for the sparse mode).
    """
    _assert_backends_agree(module, trace, repr(module.body))


@pytest.mark.parametrize("size", (1, 2, 7))
@settings(**dict(_SETTINGS, max_examples=40))
@given(pure_modules(), input_traces())
def test_backends_agree_across_plan_pieces(size, module, trace):
    """The property above with the reaction plan compiled in pieces of
    ``size`` statements, so piece boundaries fall everywhere in these
    small programs: between a relaxation block and its riders, inside
    the latch epilogue, and after a block that does not converge (whose
    causality error must still be the worklist's)."""
    with mock.patch.object(plan_mod, "PIECE_STATEMENTS", size):
        compiled = compile_module(module)
        assert len(compiled.evaluation_plan().pieces) > 1
    _assert_backends_agree(compiled, trace, f"piece size {size}: {module.body!r}")


@pytest.mark.parametrize("size", (1, 2, 7))
def test_cyclic_programs_across_plan_pieces(size):
    """A block that does not converge stops the later pieces and reports
    the worklist's error; the pillbox's constructive blocks run through."""
    with mock.patch.object(plan_mod, "PIECE_STATEMENTS", size):
        clear_compile_cache()
        try:
            module = parse_module("module M(out X) { if (!X.now) { emit X } }")
            errors = {}
            for backend in BACKENDS:
                with pytest.raises(CausalityError) as info:
                    ReactiveMachine(module, backend=backend).react({})
                errors[backend] = (str(info.value), tuple(info.value.nets))
            assert errors["worklist"] == errors["levelized"] == errors["sparse"]
            plan = PillboxApp().machine.compiled.evaluation_plan()
            assert plan.blocks and len(plan.pieces) > 1
            worklist = _pillbox_trace("worklist")
            assert worklist[1:] == _pillbox_trace("levelized")[1:]
            assert worklist[1:] == _pillbox_trace("sparse")[1:]
        finally:
            clear_compile_cache()


class TestAutoPolicy:
    def test_cyclic_program_falls_back_to_worklist(self):
        module = parse_module(
            """
            module M(out X) {
              if (!X.now) { emit X }
            }
            """
        )
        machine = ReactiveMachine(module)  # backend="auto"
        assert machine.backend == "worklist"

    def test_small_acyclic_program_stays_levelized(self):
        """Pure but tiny: the full sweep is cheaper than the sparse
        bookkeeping, so ``auto`` applies the SPARSE_MIN_NETS floor (sparse
        dispatch itself still works when asked for)."""
        module = parse_module("module M(in I, out X) { if (I.now) { emit X } }")
        machine = ReactiveMachine(module)  # backend="auto"
        assert machine.compiled.evaluation_plan().is_pure
        assert machine.backend == "levelized"
        assert not machine._scheduler.sparse
        explicit = ReactiveMachine(module, backend="sparse")
        assert explicit.backend == "sparse"
        assert explicit._scheduler.sparse
        assert dict(explicit.react({"I": True})) == dict(
            ReactiveMachine(module, backend="worklist").react({"I": True})
        )

    def test_large_acyclic_program_picks_sparse(self):
        from repro.apps.skini import make_large_score

        score = make_large_score(sections=4, groups_per_section=5, patterns_per_group=6)
        perf = Performance(score, Audience(size=0))  # backend="auto"
        assert perf.machine.backend == "sparse"
        assert perf.machine.compiled.evaluation_plan().is_pure
        assert perf.machine._scheduler.sparse

    def test_cyclic_program_same_error_all_backends(self):
        module = parse_module(
            """
            module M(out X) {
              if (!X.now) { emit X }
            }
            """
        )
        errors = {}
        for backend in BACKENDS:
            machine = ReactiveMachine(module, backend=backend)
            with pytest.raises(CausalityError) as info:
                machine.react({})
            errors[backend] = (str(info.value), tuple(info.value.nets))
        assert errors["worklist"] == errors["levelized"] == errors["sparse"]

    def test_unknown_backend_rejected(self):
        module = parse_module("module M(out X) { emit X }")
        with pytest.raises(MachineError):
            ReactiveMachine(module, backend="turbo")

    def test_sparse_dispatch_off_for_relaxation_blocks(self):
        """A plan with relaxation blocks always takes the full sweep, even
        when "sparse" is asked for (the backend name is kept)."""
        machine = PillboxApp(backend="sparse").machine
        assert not machine.compiled.evaluation_plan().is_pure
        assert machine.backend == "sparse"
        assert not machine._scheduler.sparse


def _wide_source(fan=100, quiet=200):
    """A pure program in which toggling ``I`` flips ``fan`` output
    statuses at once — well past SPARSE_BAILOUT_FRACTION of the circuit —
    while ``J`` guards a larger region that stays quiet until asked.
    The valued ``N`` re-fires every instant ``I`` stays present."""
    outs = [f"out A{i}" for i in range(fan)] + [f"out B{i}" for i in range(quiet)]
    wide = " ".join(f"emit A{i};" for i in range(fan))
    calm = " ".join(f"emit B{i};" for i in range(quiet))
    return (
        f"module Wide(in I, in J, out N = 0, {', '.join(outs)}) {{ loop {{ "
        f"if (I.now) {{ emit N(N.preval + 1); {wide} }} "
        f"if (J.now) {{ {calm} }} yield }} }}"
    )


WIDE_TRACE = [[], [], ["I"], ["I"], [], ["J"], ["I", "J"], [], [], ["I"]]


class TestSparseBailout:
    """Past SPARSE_BAILOUT_FRACTION of actually-dirty nets a sparse
    reaction finishes as a straight-line tail scan.  It must stay
    byte-identical to the full sweep, and a deadline tripped inside the
    tail scan must roll back like any other failed instant."""

    @pytest.fixture
    def tail_scans(self, monkeypatch):
        starts = []
        tail_scan = PlanScheduler._tail_scan

        def spy(self, start_rank, *args):
            starts.append(start_rank)
            return tail_scan(self, start_rank, *args)

        monkeypatch.setattr(PlanScheduler, "_tail_scan", spy)
        return starts

    def test_bailed_reactions_match_levelized(self, tail_scans):
        module = parse_module(_wide_source())
        full = ReactiveMachine(module, backend="levelized")
        sparse = ReactiveMachine(module, backend="sparse")
        scheduler = sparse._scheduler
        nets = len(sparse.compiled.circuit.nets)
        # large enough that the fraction, not the 64-net floor, binds
        assert SPARSE_BAILOUT_FRACTION * nets > 64
        bailed = 0
        for step in WIDE_TRACE:
            inputs = {name: True for name in step}
            scans = len(tail_scans)
            expected = _observe_step(full, full.react(inputs))
            assert _observe_step(sparse, sparse.react(inputs)) == expected
            assert sparse.state_digest() == full.state_digest()
            if len(tail_scans) > scans:
                bailed += 1
                assert len(scheduler.last_dirty) > SPARSE_BAILOUT_FRACTION * nets
        assert bailed >= 3
        assert scheduler.sparse_reactions == len(WIDE_TRACE) - 1

    def test_budget_abort_in_tail_scan_rolls_back(self, tail_scans):
        module = parse_module(_wide_source())
        machine = ReactiveMachine(module, backend="sparse")
        supervisor = MachineSupervisor(machine, max_retries=0)
        for _ in range(3):
            supervisor.react({})
        before = machine.snapshot()
        digest = machine.state_digest()
        limit = machine._scheduler._bail_limit
        with pytest.raises(ReactionBudgetExceeded, match="tail-scan") as exc:
            # the heap loop reaches the bailout inside this budget, the
            # tail scan cannot finish inside it
            supervisor.react({"I": True}, budget=limit + 1)
        assert exc.value.evaluated == limit
        assert tail_scans
        assert machine.state_digest() == digest
        assert supervisor.stats["rollbacks"] == 1
        # the rolled-back machine continues exactly like a full sweep
        reference = ReactiveMachine(module, backend="levelized")
        reference.restore(before)
        for step in WIDE_TRACE:
            inputs = {name: True for name in step}
            expected = _observe_step(reference, reference.react(inputs))
            assert _observe_step(machine, supervisor.react(inputs)) == expected
        assert machine.state_digest() == reference.state_digest()

    def test_budget_abort_in_heap_loop_leaves_no_net_out(self, tail_scans):
        """A deadline tripped in the heap loop, before the bailout, leaves
        no net out of later reactions either."""
        module = parse_module(_wide_source())
        machine = ReactiveMachine(module, backend="sparse")
        supervisor = MachineSupervisor(machine, max_retries=0)
        for _ in range(3):
            supervisor.react({})
        before = machine.snapshot()
        budget = 10
        assert budget < machine._scheduler._bail_limit
        with pytest.raises(ReactionBudgetExceeded, match="10-net evaluation budget") as exc:
            supervisor.react({"I": True}, budget=budget)
        assert exc.value.evaluated == budget
        assert not tail_scans
        assert not any(machine._scheduler._queued)
        assert supervisor.stats["rollbacks"] == 1
        twin = ReactiveMachine(module, backend="levelized")
        twin.restore(before)
        assert machine.state_digest() == twin.state_digest()
        _assert_twin_agrees(machine, twin, random.Random(7))
        assert machine._scheduler.sparse_reactions >= 15


def _assert_twin_agrees(machine, twin, rng, steps=20):
    """Drive ``machine`` and its levelized ``twin`` through the same
    seeded steps: result for result, digest for digest."""
    for _ in range(steps):
        inputs = {name: True for name in ("I", "J") if rng.random() < 0.5}
        expected = _observe_step(twin, twin.react(inputs))
        assert _observe_step(machine, machine.react(inputs)) == expected
        assert machine.state_digest() == twin.state_digest()


#: a pure program whose ``check`` payload sits in the middle of the cone
#: ``I`` dirties: the hot emission of ``F`` ranks after it, and ``J``
#: emits the valued ``C`` ahead of it for the first time
CONE_SOURCE = """
module Cone(in I = 0, in J, out A = 0, out B = 0, out C = 0, out D, out E, out F = 0) {
  loop {
    if (J.now) { emit C(7) }
    if (I.now) {
      emit A(I.nowval + 1);
      fork {
        if (check(A.nowval)) { emit B(A.nowval * 2); emit D } else { emit E }
      } par {
        emit F(A.nowval + 1)
      }
    }
    yield
  }
}
"""


class TestSparseLoopPins:
    """The rank-queue loop keeps what the dirty-cone evaluator
    promises: no net is left out of later reactions after the loop
    stops early, and nets are evaluated in straight-line rank order."""

    @pytest.mark.parametrize("seed", range(3))
    def test_payload_raising_mid_cone_leaves_no_net_out(self, seed):
        queued_at_raise = []

        def check(value):
            if value == 14:
                queued_at_raise.append(sum(machine._scheduler._queued))
                raise RuntimeError("check refused 13")
            return value % 3 != 0

        module = parse_module(CONE_SOURCE)
        host = {"check": check}
        machine = ReactiveMachine(module, host_globals=host, backend="sparse")
        twin = ReactiveMachine(module, host_globals=host, backend="levelized")
        assert machine._scheduler.sparse
        rng = random.Random(seed)
        for value in (1, 2, 2, 5):
            expected = _observe_step(twin, twin.react({"I": value}))
            assert _observe_step(machine, machine.react({"I": value})) == expected
        for subject in (twin, machine):
            with pytest.raises(EvalError, match="check refused 13"):
                subject.react({"I": 13, "J": True})
        # the sparse raise came from inside the heap loop, with nets
        # still queued behind the raising payload
        assert queued_at_raise[-1] > 0
        assert not any(machine._scheduler._queued)
        assert machine.state_digest() == twin.state_digest()
        _assert_twin_agrees(machine, twin, rng)
        assert machine._scheduler.sparse_reactions >= 15

    @settings(**_SETTINGS)
    @given(pure_modules(), input_traces())
    def test_sparse_reactions_evaluate_in_rank_order(self, module, trace):
        """Payload effects depend on the straight-line order, so every
        sparse reaction evaluates its nets in ascending ``plan.rank``,
        each at most once."""
        machine = ReactiveMachine(module, backend="sparse")
        scheduler = machine._scheduler
        rank = machine.compiled.evaluation_plan().rank
        for step in (step for step in trace for _ in (0, 1)):
            try:
                machine.react({name: True for name in step})
            except CausalityError:
                return
            if scheduler.last_dirty is not None:
                ranks = [rank[net_id] for net_id in scheduler.last_dirty]
                assert all(a < b for a, b in zip(ranks, ranks[1:])), ranks
            if machine.terminated:
                return


ACCOUNTS = {"alice": "secret"}


def _login_trace(backend):
    loop = SimulatedLoop()
    svc = AuthService(loop, ACCOUNTS, latency_ms=100)
    machine = build_login_machine(loop, svc, backend=backend)
    machine.react({})
    trace = [machine.backend]
    machine.react({"name": "alice", "passwd": "secret"})
    trace.append(dict(machine.react({"login": True})))
    loop.advance(150)
    loop.advance_seconds(3)
    trace.append((machine.connState.nowval, machine.time.nowval))
    machine.react({"logout": True})
    trace.append(machine.connState.nowval)
    return trace


def _pillbox_trace(backend):
    app = PillboxApp(backend=backend)
    trace = [app.machine.backend]
    app.press_try()
    app.tick_hours(1)
    app.press_conf()
    app.tick_hours(30)  # ride through the Try alarm window
    app.press_try()
    app.tick_hours(4.5)  # ...and into the missed-dose error
    trace.append(app.log)
    return trace


def _skini_trace(backend):
    perf = Performance(
        make_paper_score(), Audience(size=12, seed=7), backend=backend
    )
    perf.run(40)
    return [
        perf.machine.backend,
        [(p.time_s, p.pattern.pid, p.group) for p in perf.synth.timeline],
        [g.name for g in perf.open_groups()],
    ]


class TestPaperAppParity:
    """The three paper apps, replayed on every backend, must agree
    event-for-event; under ``auto`` these small circuits all stay on a
    full-sweep backend (levelized), and the explicit sparse replays must
    still match event-for-event."""

    def test_login(self):
        worklist = _login_trace("worklist")
        auto = _login_trace("auto")
        sparse = _login_trace("sparse")
        assert auto[0] == "levelized"
        assert worklist[1:] == auto[1:] == sparse[1:]

    def test_pillbox(self):
        worklist = _pillbox_trace("worklist")
        auto = _pillbox_trace("auto")
        sparse = _pillbox_trace("sparse")
        assert auto[0] == "levelized"
        assert worklist[1:] == auto[1:] == sparse[1:]

    def test_skini(self):
        worklist = _skini_trace("worklist")
        auto = _skini_trace("auto")
        sparse = _skini_trace("sparse")
        assert auto[0] == "levelized"  # the paper score is only ~80 nets
        assert worklist[1:] == auto[1:] == sparse[1:]
