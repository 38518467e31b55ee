"""ReactorFuzz: whole-program differential fuzzing and lifecycle
crash-consistency testing for the reactive runtime.

The pieces:

* :mod:`repro.fuzz.gen` — seeded program generation (valued signals,
  combine functions, traps, suspend, nested ``run``), always parser
  round-trippable;
* :mod:`repro.fuzz.lifecycle` — op-script generation (reactions,
  snapshots, journal replay, crash injection, mailbox admission,
  reaction budgets, hot upgrade);
* :mod:`repro.fuzz.harness` — runs each case under every backend and
  asserts observational parity;
* :mod:`repro.fuzz.shrink` — deterministic delta-debugging minimizer;
* :mod:`repro.fuzz.corpus` — minimal repros under ``tests/corpus/``,
  replayed by tier-1;
* :mod:`repro.fuzz.cli` — the ``python -m repro.fuzz`` entry point.
"""

from repro.fuzz.gen import FuzzProgram, generate_program
from repro.fuzz.harness import CaseResult, Driver, FuzzFailure, run_case
from repro.fuzz.lifecycle import generate_plan
from repro.fuzz.shrink import shrink_case

__all__ = [
    "FuzzProgram",
    "generate_program",
    "generate_plan",
    "run_case",
    "Driver",
    "CaseResult",
    "FuzzFailure",
    "shrink_case",
]
