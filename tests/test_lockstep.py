"""The bit-parallel lockstep fleet backend: word/scalar parity, the
demotion/promotion lifecycle, the fleet backend policy, and the packed
observability surface.

The anchor property: driving a fleet with ``backend="lockstep"`` must be
byte-identical — emitted dicts, statuses, pause/termination flags,
``state_digest()`` — to driving the same fleet on every scalar backend,
including across demote→promote round-trips forced mid-trace.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.skini.participant import make_audience_fleet
from repro.errors import FleetReactionError, MachineError
from repro.lang import dsl as hh
from repro.runtime.fleet import LOCKSTEP_MIN_MEMBERS, MachineFleet
from repro.runtime.machine import ReactiveMachine
from repro.syntax import parse_module

SCALAR_BACKENDS = ("levelized", "worklist", "sparse")

CYCLIC = """
module M(out X) {
  if (!X.now) { emit X }
}
"""


def assert_result_parity(a, b, context=""):
    assert dict(a) == dict(b), (context, dict(a), dict(b))
    assert a.statuses == b.statuses, (context, a.statuses, b.statuses)
    assert a.terminated == b.terminated, context
    assert a.paused == b.paused, context


def assert_fleet_parity(word, scalar, context=""):
    for i in range(len(word)):
        assert (
            word[i].state_digest() == scalar[i].state_digest()
        ), f"{context}: member {i} diverged"


def assert_counts_match(word, scalar, context=""):
    """Every member's ``reaction_count`` equals its scalar twin's, and
    reading the counts demotes no word-resident member."""
    engine = word._engine
    resident, demotions = engine._resident, dict(engine.demotions)
    assert [m.reaction_count for m in word] == [
        m.reaction_count for m in scalar
    ], context
    assert engine._resident == resident and engine.demotions == demotions, context


def assert_bits_are_indices(fleet):
    """Every resident member sits at the bit of its fleet index, and the
    resident mask holds exactly those bits."""
    engine = fleet._engine
    resident = [i for i, m in enumerate(fleet) if m._lockstep is engine]
    assert all(fleet[i]._lockstep_bit == i for i in resident)
    assert engine._resident == sum(1 << i for i in resident)


# ---------------------------------------------------------------------------
# backend policy
# ---------------------------------------------------------------------------


class TestBackendPolicy:
    def test_auto_below_threshold_stays_scalar(self):
        fleet = make_audience_fleet(LOCKSTEP_MIN_MEMBERS - 1)
        assert fleet._engine is None

    def test_auto_at_threshold_gets_engine(self):
        fleet = make_audience_fleet(LOCKSTEP_MIN_MEMBERS)
        assert fleet._engine is not None
        assert fleet._engine.resident_count == LOCKSTEP_MIN_MEMBERS

    def test_explicit_lockstep_works_at_any_size(self):
        fleet = make_audience_fleet(3, backend="lockstep")
        assert fleet._engine is not None
        # members stay scalar machines underneath (auto-resolved backend)
        assert all(m.backend in SCALAR_BACKENDS for m in fleet)

    def test_explicit_lockstep_rejects_impure_plan(self):
        with pytest.raises(MachineError, match="pure straight-line plan"):
            MachineFleet(parse_module(CYCLIC), size=4, backend="lockstep")

    def test_auto_never_picks_lockstep_for_impure_plan(self):
        fleet = MachineFleet(
            parse_module(CYCLIC), size=LOCKSTEP_MIN_MEMBERS, backend="auto"
        )
        assert fleet._engine is None
        assert len(fleet) == LOCKSTEP_MIN_MEMBERS  # members still built

    def test_unknown_backend_rejected(self):
        with pytest.raises(MachineError, match="unknown fleet backend"):
            make_audience_fleet(2, backend="wordy")


# ---------------------------------------------------------------------------
# trace parity (the anchor property)
# ---------------------------------------------------------------------------


def _input_step(draw_ints):
    select, grant, stop = draw_ints
    step = {}
    if select:
        step["select"] = select
    if grant:
        step["grant"] = grant
    if stop:
        step["stop"] = True
    return step


participant_steps = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.booleans(),
).map(_input_step)

participant_scripts = st.lists(participant_steps, min_size=1, max_size=8)


class TestTraceParity:
    @pytest.mark.parametrize("scalar", SCALAR_BACKENDS)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        script=participant_scripts,
        probe=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    def test_shared_pulse_parity(self, scalar, script, probe):
        """Shared broadcasts with random digest probes: a probed member
        demotes (external access) mid-trace and must re-promote without
        any observable difference from the scalar fleet."""
        word = make_audience_fleet(8, backend="lockstep")
        ref = make_audience_fleet(8, backend=scalar)
        for step, inputs in enumerate(script):
            a = word.react_all(inputs)
            b = ref.react_all(inputs)
            for i in range(8):
                assert_result_parity(a[i], b[i], f"step {step} member {i}")
            for i, probed in enumerate(probe):
                if probed:
                    assert word[i].state_digest() == ref[i].state_digest()
        assert_fleet_parity(word, ref, "final")

    @pytest.mark.parametrize("scalar", SCALAR_BACKENDS)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scripts=st.lists(
            participant_scripts.map(lambda s: s[:4]),
            min_size=6,
            max_size=6,
        )
    )
    def test_divergent_member_parity(self, scalar, scripts):
        """Per-member divergent inputs via react_each: members follow
        individual lifecycles inside one word."""
        n = len(scripts)
        word = make_audience_fleet(n, backend="lockstep")
        ref = make_audience_fleet(n, backend=scalar)
        rounds = max(len(s) for s in scripts)
        for r in range(rounds):
            batch = {
                i: script[r] for i, script in enumerate(scripts) if r < len(script)
            }
            a = word.react_each(batch)
            b = ref.react_each(batch)
            for i in batch:
                assert_result_parity(a[i], b[i], f"round {r} member {i}")
        assert_fleet_parity(word, ref, "final")

    def test_full_lifecycle_at_audience_scale(self):
        """Coarse end-to-end check above the auto threshold: the whole
        select/grant/stop/done lifecycle through the word engine."""
        n = LOCKSTEP_MIN_MEMBERS + 6
        word = make_audience_fleet(n)
        ref = make_audience_fleet(n, backend="sparse")
        assert word._engine is not None
        script = [{}, {"select": 7}, {}, {"grant": 3}, {}, {"stop": True}, {}]
        for step, inputs in enumerate(script):
            a = word.react_all(inputs)
            b = ref.react_all(inputs)
            for i in range(n):
                assert_result_parity(a[i], b[i], f"step {step} member {i}")
        assert_fleet_parity(word, ref)
        assert word._engine.stats()["word_instants"] == len(script)


# ---------------------------------------------------------------------------
# demotion causes and re-promotion
# ---------------------------------------------------------------------------


def _exec_module():
    """One module instance shared by the word and the reference fleet —
    state digests embed the compile fingerprint, which hashes payload
    identity, so parity checks need literally the same module."""
    handles = []
    mod = hh.module(
        "ExecMod",
        "in go, out done, out after",
        hh.every(
            hh.sig("go"),
            hh.seq(
                hh.exec_(lambda ctx: handles.append(ctx), signal="done"),
                hh.emit("after"),
            ),
        ),
    )
    return mod, handles


class TestDemotion:
    def test_external_react_demotes_and_fleet_repromotes(self):
        fleet = make_audience_fleet(6, backend="lockstep")
        engine = fleet._engine
        fleet.react_all({})
        fleet.react_one(2, {"select": 1})
        assert engine.demotions["external"] == 1
        assert fleet[2]._lockstep is None
        assert engine.resident_count == 5
        fleet.react_all({})  # clean scalar reaction re-promotes
        assert engine.resident_count == 6
        assert fleet[2]._lockstep is engine

    def test_snapshot_and_digest_demote(self):
        fleet = make_audience_fleet(4, backend="lockstep")
        fleet.react_all({})
        fleet[0].snapshot()
        fleet[1].state_digest()
        assert fleet._engine.demotions["external"] == 2
        assert fleet._engine.resident_count == 2

    def test_exec_activity_demotes_with_parity(self):
        mod, handles = _exec_module()
        word = MachineFleet(mod, size=5, backend="lockstep")
        ref = MachineFleet(mod, size=5, backend="levelized")
        for f in (word, ref):
            f.react_all({})
        a = word.react_all({"go": True})
        b = ref.react_all({"go": True})
        for i in range(5):
            assert_result_parity(a[i], b[i], f"member {i}")
        assert word._engine.demotions["exec"] == 5
        assert word._engine.resident_count == 0
        assert_counts_match(word, ref, "exec demotion keeps the tick")
        for h in handles:
            h.notify(42)
        a = word.react_all({})
        b = ref.react_all({})
        for i in range(5):
            assert_result_parity(a[i], b[i], f"post-notify member {i}")
        # exec completed and drained: members rejoined the word (before
        # the digest probes below demote them again via external access)
        assert word._engine.resident_count == 5
        assert_counts_match(word, ref, "rejoined")
        assert_fleet_parity(word, ref)

    def test_deferred_sub_instant_demotes_with_parity(self):
        mod = hh.module(
            "DeferMod",
            "in go, in nudge, out seen",
            hh.every(
                hh.sig("go"),
                hh.atom(lambda env: env._machine.queue_react({"nudge": True})),
            ),
        )
        word = MachineFleet(mod, size=5, backend="lockstep")
        ref = MachineFleet(mod, size=5, backend="levelized")
        for f in (word, ref):
            f.react_all({})
        a = word.react_all({"go": True})
        b = ref.react_all({"go": True})
        for i in range(5):
            assert_result_parity(a[i], b[i], f"member {i}")
        assert word._engine.demotions["deferred"] == 5
        assert_counts_match(word, ref, "deferred sub-instants")
        assert_fleet_parity(word, ref)

    def test_payload_error_demotes_and_keeps_state(self):
        def build(backend):
            mod = hh.module(
                "ErrMod",
                "in go, out tick",
                hh.every(
                    hh.sig("go"),
                    hh.seq(hh.atom(boom), hh.emit("tick")),
                ),
            )
            return MachineFleet(mod, size=6, backend=backend)

        fail_members = {1, 4}
        calls = {"n": 0}

        def boom(machine):
            member = calls["n"] % 6
            calls["n"] += 1
            if member in fail_members and failing["on"]:
                raise RuntimeError("kaboom")
            return 1

        outcomes = {}
        for backend in ("lockstep", "levelized"):
            calls["n"] = 0
            failing = {"on": True}
            fleet = build(backend)
            fleet.react_all({})
            with pytest.raises(FleetReactionError) as exc:
                fleet.react_all({"go": True})
            failed_counts = [m.reaction_count for m in fleet]
            failing["on"] = False
            calls["n"] = 0
            recovery = fleet.react_all({"go": True})
            outcomes[backend] = (
                sorted(exc.value.failures),
                tuple(exc.value.completed),
                [dict(r) for r in recovery],
                failed_counts,
                [m.reaction_count for m in fleet],
                [m.state_digest() for m in fleet],
                [m._failed_reactions for m in fleet],
            )
        assert outcomes["lockstep"] == outcomes["levelized"]

    def test_budgeted_members_never_promoted(self):
        fleet = make_audience_fleet(4, backend="lockstep")
        fleet[0].reaction_budget = 1000
        fleet.react_one(0, {})  # demote via external access
        fleet.react_all({})
        assert fleet[0]._lockstep is None  # budget keeps it scalar
        assert fleet._engine.resident_count == 3


# ---------------------------------------------------------------------------
# churn: demoted members rejoin the word before the next full broadcast
# ---------------------------------------------------------------------------

CHURN_MEMBERS = 8
_member = st.integers(min_value=0, max_value=CHURN_MEMBERS - 1)
churn_ops = st.lists(
    st.one_of(
        st.tuples(st.just("tap"), _member, participant_steps),
        st.tuples(st.just("probe"), _member),
        st.tuples(st.just("pin"), _member),
        st.tuples(
            st.just("each"),
            st.dictionaries(_member, participant_steps, max_size=4),
        ),
        st.tuples(st.just("all"), participant_steps),
        st.tuples(
            st.just("cast"),
            st.lists(
                participant_steps,
                min_size=CHURN_MEMBERS,
                max_size=CHURN_MEMBERS,
            ),
        ),
    ),
    min_size=4,
    max_size=30,
)


class TestChurn:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=churn_ops)
    def test_churn_parity_with_levelized(self, ops):
        """Taps, digest probes, budget pins and react_each batches between
        broadcasts (shared ``react_all`` and per-member ``broadcast``):
        every result and probed digest matches a levelized fleet, and
        resident members always sit at their fleet index."""
        word = make_audience_fleet(CHURN_MEMBERS, backend="lockstep")
        ref = make_audience_fleet(CHURN_MEMBERS, backend="levelized")
        for step, (op, *args) in enumerate(ops):
            context = f"step {step} {op}"
            if op == "tap":
                member, inputs = args
                assert_result_parity(
                    word.react_one(member, inputs),
                    ref.react_one(member, inputs),
                    context,
                )
            elif op == "probe":
                member = args[0]
                assert word[member].state_digest() == ref[member].state_digest(), context
            elif op == "pin":
                for fleet in (word, ref):
                    fleet[args[0]].reaction_budget = 10**9
            elif op == "each":
                a, b = word.react_each(args[0]), ref.react_each(args[0])
                assert a.keys() == b.keys() == args[0].keys(), context
                for i in a:
                    assert_result_parity(a[i], b[i], f"{context} member {i}")
            else:
                if op == "all":
                    a, b = word.react_all(args[0]), ref.react_all(args[0])
                else:
                    steps = args[0]
                    a = word.broadcast(lambda i, machine: steps[i])
                    b = ref.broadcast(lambda i, machine: steps[i])
                for i in range(CHURN_MEMBERS):
                    assert_result_parity(a[i], b[i], f"{context} member {i}")
            assert_counts_match(word, ref, context)
            assert_bits_are_indices(word)
        assert word.stats()["reactions"] == ref.stats()["reactions"]
        assert_fleet_parity(word, ref, "final")

    def test_broadcast_after_taps_reacts_no_tapped_member_scalar(self, monkeypatch):
        """The k members tapped since the last full broadcast rejoin the
        word before the next one (``react_all`` or ``broadcast``): it
        reacts none of them scalar and leaves them resident, while a
        budget-pinned member still reacts scalar."""
        fleet = make_audience_fleet(LOCKSTEP_MIN_MEMBERS)
        engine = fleet._engine
        fleet.react_all({})
        pinned, tapped = LOCKSTEP_MIN_MEMBERS - 1, [0, 3, 17, 40]
        fleet[pinned].reaction_budget = 10**9
        for member in sorted(tapped + [pinned]):
            for inputs in ({"select": 1}, {"grant": 1}, {"stop": True}):
                fleet.react_one(member, inputs)
        assert engine.resident_count == LOCKSTEP_MIN_MEMBERS - len(tapped) - 1

        scalar = []
        react = ReactiveMachine.react

        def counting_react(machine, *args, **kwargs):
            scalar.append(machine)
            return react(machine, *args, **kwargs)

        monkeypatch.setattr(ReactiveMachine, "react", counting_react)
        promotions = engine.promotions
        results = fleet.react_all({})
        assert scalar == [fleet[pinned]]
        assert engine.promotions - promotions == len(tapped)
        assert all(fleet[m]._lockstep is engine for m in tapped)
        assert fleet[pinned]._lockstep is None
        assert engine.resident_count == LOCKSTEP_MIN_MEMBERS - 1
        assert all(results[m] is results[0] for m in tapped)

        # a per-member broadcast re-admits them the same way
        for member in tapped:
            fleet.react_one(member, {"select": 2})
        scalar.clear()
        results = fleet.broadcast(lambda index, machine: {})
        assert scalar == [fleet[pinned]]
        assert all(fleet[m]._lockstep is engine for m in tapped)
        assert all(results[m]["request"] == 2 for m in tapped)

    def test_quiescent_broadcast_looks_up_no_member(self):
        """The engine holds a broadcast's count: a quiescent ``react_all``
        on a fully resident fleet looks up no member, and a broadcast
        after one tap looks up only the tapped member."""
        fleet = make_audience_fleet(LOCKSTEP_MIN_MEMBERS)
        ref = make_audience_fleet(LOCKSTEP_MIN_MEMBERS, backend="levelized")
        engine = fleet._engine
        looked = []

        class Recording(dict):
            def __getitem__(self, bit):
                looked.append(bit)
                return dict.__getitem__(self, bit)

        engine._member_of = Recording(engine._member_of)
        for f in (fleet, ref):
            f.react_all({})
            f.react_all({})
        looked.clear()
        fleet.react_all({})
        ref.react_all({})
        assert looked == []
        assert_counts_match(fleet, ref, "quiescent")

        tapped = 17
        for f in (fleet, ref):
            f.react_one(tapped, {"select": 1})
        looked.clear()
        fleet.react_all({})
        ref.react_all({})
        assert set(looked) <= {tapped}
        assert engine.resident_count == LOCKSTEP_MIN_MEMBERS
        assert_counts_match(fleet, ref, "after a tap")
        assert fleet.stats()["reactions"] == ref.stats()["reactions"]

    def test_spawn_after_churn_keeps_parity(self):
        """Members spawned while others are demoted take the next fleet
        indices as their bits, never a demoted member's."""
        word = make_audience_fleet(6, backend="lockstep")
        ref = make_audience_fleet(6, backend="levelized")
        for fleet in (word, ref):
            fleet.react_all({})
            fleet.react_one(1, {"select": 2})
            fleet.react_one(4, {"select": 3})
            fleet.spawn()
            fleet.spawn_many(3)
            fleet.react_one(2, {"grant": 1})
        assert_bits_are_indices(word)
        for step, inputs in enumerate(({}, {"grant": 2}, {"stop": True}, {})):
            a, b = word.react_all(inputs), ref.react_all(inputs)
            for i in range(len(word)):
                assert_result_parity(a[i], b[i], f"step {step} member {i}")
            assert_bits_are_indices(word)
            assert word._engine.resident_count == len(word) == 10
        word.spawn()
        ref.spawn()
        a, b = word.react_all({"select": 1}), ref.react_all({"select": 1})
        for i in range(len(word)):
            assert_result_parity(a[i], b[i], f"after spawn member {i}")
        assert_bits_are_indices(word)
        assert_fleet_parity(word, ref)


# ---------------------------------------------------------------------------
# results and failure reporting
# ---------------------------------------------------------------------------


class TestResults:
    def test_quiescent_broadcast_shares_one_result_object(self):
        fleet = make_audience_fleet(LOCKSTEP_MIN_MEMBERS)
        fleet.react_all({})
        results = fleet.react_all({})
        assert results[0] is results[1] is results[-1]
        assert dict(results[0]) == {}

    def test_emitting_members_get_individual_results(self):
        fleet = make_audience_fleet(LOCKSTEP_MIN_MEMBERS)
        fleet.react_all({})
        fleet.react_each({0: {"select": 9}, 1: {"select": 8}})
        results = fleet.react_all({})  # 0 and 1 sustain request
        assert results[0]["request"] == 9
        assert results[1]["request"] == 8
        assert dict(results[2]) == {}
        assert results[2] is results[3]

    def test_shared_invalid_input_fails_whole_batch(self):
        fleet = make_audience_fleet(LOCKSTEP_MIN_MEMBERS)
        fleet.react_all({})
        with pytest.raises(FleetReactionError) as exc:
            fleet.react_all({"bogus": 1})
        assert len(exc.value.failures) == LOCKSTEP_MIN_MEMBERS
        assert "unknown input signal 'bogus'" in str(exc.value.failures[0])
        # members stay word-resident and the fleet recovers next instant
        assert fleet._engine.resident_count == LOCKSTEP_MIN_MEMBERS
        fleet.react_all({})

    def test_react_each_rejects_bad_index_eagerly(self):
        fleet = make_audience_fleet(4, backend="lockstep")
        with pytest.raises(MachineError, match="no index 9"):
            fleet.react_each({9: {}})

    def test_failed_prefix_write_resets_next_instant(self):
        """The stale-emit regression: a write that lands before the bad
        input name must be cleared by the next instant's begin_instant on
        every backend (word and scalar alike)."""
        traces = {}
        for backend in ("lockstep",) + SCALAR_BACKENDS:
            fleet = make_audience_fleet(4, backend=backend)
            fleet.react_all({})
            with pytest.raises(FleetReactionError):
                fleet.react_all({"select": 1, "bogus": 2})
            result = fleet.react_all({"select": 5})
            traces[backend] = (
                [dict(r) for r in result],
                [m.state_digest() for m in fleet],
            )
        assert len({repr(t) for t in traces.values()}) == 1


# ---------------------------------------------------------------------------
# spawn and observability
# ---------------------------------------------------------------------------


class TestSpawnAndStats:
    def test_spawn_many_bulk_promotes(self):
        fleet = make_audience_fleet(0, backend="lockstep")
        fleet.spawn_many(10)
        assert fleet._engine.resident_count == 10
        fleet.spawn()
        assert fleet._engine.resident_count == 11
        ref = make_audience_fleet(11, backend="sparse")
        a = fleet.react_all({"select": 2})
        b = ref.react_all({"select": 2})
        for i in range(11):
            assert_result_parity(a[i], b[i], f"member {i}")

    def test_stats_expose_lockstep_split(self):
        fleet = make_audience_fleet(LOCKSTEP_MIN_MEMBERS)
        fleet.react_all({})
        fleet.react_one(0, {})
        stats = fleet.stats()
        lockstep = stats["lockstep"]
        assert lockstep["resident"] == LOCKSTEP_MIN_MEMBERS - 1
        assert lockstep["scalar"] == 1
        assert lockstep["word_instants"] == 1
        assert lockstep["demotions"]["external"] == 1
        assert lockstep["lowered_nets"] > 0

    def test_scalar_fleet_stats_have_no_lockstep_section(self):
        fleet = make_audience_fleet(4)
        assert "lockstep" not in fleet.stats()
        assert "lockstep" not in fleet.memory_report()

    def test_memory_report_keeps_shared_split_invariant(self):
        fleet = make_audience_fleet(LOCKSTEP_MIN_MEMBERS)
        report = fleet.memory_report()
        assert report["total_bytes"] == (
            report["shared_bytes"]
            + report["per_machine_bytes"] * report["members"]
        )
        packed = report["lockstep"]
        assert packed["total_bytes"] == (
            packed["register_plane_bytes"]
            + packed["status_plane_bytes"]
            + packed["word_plan_bytes"]
        )

    def test_word_plan_describe(self):
        fleet = make_audience_fleet(4, backend="lockstep")
        description = fleet._engine.word_plan.describe()
        assert description["lowered_exprs"] > 0
        assert description["fired_payload_nets"] > 0
        assert "__word_react__" in fleet._engine.word_plan.source
