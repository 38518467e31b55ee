"""Tier-1 coverage for the ReactorFuzz subsystem.

The corpus replay tests are the regression net: every minimized repro
the fuzzer ever wrote is re-run through the full differential harness
on every test run, so a fixed divergence cannot silently come back.
A bounded smoke batch, generator round-trip/determinism properties,
and a shrinker self-test ride along.
"""

import os

import pytest

from repro.lang import ast as A
from repro.runtime.journal import MemoryJournal
from repro.runtime.machine import ReactiveMachine
from repro.runtime.recovery import MachineSupervisor
from repro.syntax.parser import parse_program

from repro.fuzz import corpus
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.gen import generate_program
from repro.fuzz.harness import Driver, run_case
from repro.fuzz.lifecycle import generate_plan
from repro.fuzz.shrink import shrink_case

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_PATHS = corpus.corpus_files(CORPUS_DIR)


def test_corpus_is_populated():
    assert CORPUS_PATHS, "tests/corpus/ must hold at least one repro"


@pytest.mark.parametrize(
    "path", CORPUS_PATHS, ids=[os.path.basename(p) for p in CORPUS_PATHS]
)
def test_corpus_replay(path):
    """Every minimized repro must agree across all configurations now
    that its bug is fixed."""
    program, plan = corpus.load_corpus_case(path)
    run_case(program, plan)
    entry = corpus.load_entry(path)
    if entry.get("expect") == "clean":
        # crash-consistency repros additionally pin that the lifecycle
        # completes without any fatal error (agreement alone would also
        # hold if every configuration crashed identically)
        driver = Driver(program, "worklist")
        driver.run_plan(plan)
        assert not any(entry[0] == "fatal" for entry in driver.obs)


def test_generator_round_trip():
    for seed in range(15):
        program = generate_program(seed)
        source = "\n\n".join(program.sources())
        assert list(parse_program(source)) == program.modules


def test_generator_deterministic():
    first = generate_program(7)
    second = generate_program(7)
    assert first.modules == second.modules
    assert first.pure == second.pure
    assert generate_plan(7, first.input_names()) == generate_plan(
        7, second.input_names()
    )


def test_generator_covers_both_flavours():
    flavours = {generate_program(seed).pure for seed in range(12)}
    assert flavours == {True, False}


@pytest.mark.fuzz
def test_smoke_batch():
    """A bounded differential sweep on every tier-1 run; CI's dedicated
    fuzz step and the nightly job run far more seeds via the CLI."""
    for seed in range(30):
        program = generate_program(seed)
        plan = generate_plan(seed, program.input_names())
        run_case(program, plan)


def test_cli_smoke(capsys):
    assert fuzz_main(["--seed", "0", "--cases", "3", "--corpus-dir", ""]) == 0
    out = capsys.readouterr().out
    assert "3 cases agreed" in out


def test_shrinker_minimizes_to_the_trigger():
    """Self-test with a synthetic predicate: 'fails' iff some react op
    has input A present.  The shrinker must strip everything else —
    every other op, every other input key, the whole program body, and
    all worker modules."""
    program = generate_program(11)
    plan = generate_plan(11, program.input_names())
    plan["ops"].append(["react", {"A": True, "B": True}])

    def predicate(_program, candidate_plan):
        return any(
            op[0] == "react" and op[1].get("A")
            for op in candidate_plan["ops"]
        )

    shrunk_program, shrunk_plan = shrink_case(program, plan, predicate)
    assert predicate(shrunk_program, shrunk_plan)
    assert len(shrunk_plan["ops"]) == 1
    op = shrunk_plan["ops"][0]
    assert op[0] == "react" and list(op[1]) == ["A"]
    assert isinstance(shrunk_program.main.body, A.Nothing)
    assert len(shrunk_program.modules) == 1


def test_shrinker_is_deterministic():
    program = generate_program(11)
    plan = generate_plan(11, program.input_names())
    plan["ops"].append(["react", {"A": True, "B": True}])

    def predicate(_program, candidate_plan):
        return any(
            op[0] == "react" and op[1].get("A")
            for op in candidate_plan["ops"]
        )

    once = shrink_case(program, plan, predicate)
    twice = shrink_case(program, plan, predicate)
    assert once[0].modules == twice[0].modules
    assert once[1] == twice[1]


def test_corpus_entry_round_trip(tmp_path):
    program = generate_program(5)
    plan = generate_plan(5, program.input_names())
    entry = corpus.entry_for(program, plan, seed=5, reason="self-test")
    path = str(tmp_path / "entry.json")
    corpus.save_entry(path, entry)
    loaded_program, loaded_plan = corpus.load_corpus_case(path)
    assert loaded_program.modules == program.modules
    assert loaded_program.pure == program.pure
    assert loaded_plan["ops"] == plan["ops"]


def test_upgrade_probe_resolves_textual_combines():
    """Regression (found by the fuzzer's upgrade op): the supervisor's
    boot probe must inherit the target machine's host_globals, or any
    program declaring a combine function by name crashes inside
    upgrade() while the probe resolves it."""

    def fz_sum(a, b):
        return a + b

    v1 = parse_program(
        "module M(in A, out VO combine fz_sum) { sustain VO(1); }"
    )
    v2 = parse_program(
        "module M(in A, out VO combine fz_sum, out UPG) {\n"
        "  sustain VO(1);\n"
        "}"
    )
    machine = ReactiveMachine(v1.get("M"), host_globals={"fz_sum": fz_sum})
    supervisor = MachineSupervisor(machine, journal=MemoryJournal())
    supervisor.react({"A": True})
    fresh = ReactiveMachine(v2.get("M"), host_globals={"fz_sum": fz_sum})
    report = supervisor.upgrade(fresh)
    assert report.carried
    result = supervisor.react({"A": True})
    assert result["VO"] == 1
