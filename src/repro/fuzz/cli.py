"""``python -m repro.fuzz`` — the ReactorFuzz runner.

Generates seeded cases, runs each through the differential harness
(:mod:`repro.fuzz.harness`), and on the first violation shrinks it to a
minimal repro and writes a corpus entry::

    python -m repro.fuzz --seed 0 --cases 300          # CI smoke
    python -m repro.fuzz --seed 20260807 --budget 600  # nightly

Exit status is 0 when every case agreed, 1 on a violation (the corpus
path and the pretty-printed repro are printed), 2 on a harness bug
(an exception that is not a differential finding).
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

from repro.fuzz import corpus
from repro.fuzz.gen import FuzzProgram, generate_program
from repro.fuzz.harness import FuzzFailure, run_case
from repro.fuzz.lifecycle import generate_plan
from repro.fuzz.shrink import shrink_case

__all__ = ["main", "fuzz_once", "make_predicate"]


def fuzz_once(seed: int, max_depth: int = 4):
    """Generate and run the case for one seed.  Returns the
    :class:`~repro.fuzz.harness.CaseResult`; raises
    :class:`FuzzFailure` on a violation."""
    program = generate_program(seed, max_depth=max_depth)
    plan = generate_plan(seed, program.input_names())
    return run_case(program, plan)


def make_predicate(kind: str):
    """A shrinker predicate that accepts exactly the same *kind* of
    failure (compile rejections and clean runs both count as 'fixed')."""

    def predicate(program: FuzzProgram, plan: Dict[str, Any]) -> bool:
        try:
            run_case(program, plan)
        except FuzzFailure as err:
            return err.kind == kind
        except Exception:
            return False
        return False

    return predicate


def _report_failure(
    seed: int,
    program: FuzzProgram,
    plan: Dict[str, Any],
    failure: FuzzFailure,
    corpus_dir: Optional[str],
    shrink: bool,
    max_checks: int,
) -> None:
    print(f"\nseed {seed}: {failure}", file=sys.stderr)
    if shrink:
        print("shrinking ...", file=sys.stderr)
        program, plan = shrink_case(
            program, plan, make_predicate(failure.kind), max_checks=max_checks
        )
    entry = corpus.entry_for(
        program, plan, seed=seed, reason=str(failure)
    )
    if corpus_dir:
        path = f"{corpus_dir}/repro-{seed}-{failure.kind}.json"
        corpus.save_entry(path, entry)
        print(f"wrote {path}", file=sys.stderr)
    print("\n--- minimal repro ---", file=sys.stderr)
    for source in entry["sources"]:
        print(source, file=sys.stderr)
    print(f"plan: {entry['plan']}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="whole-program differential fuzzing of the reactive "
        "runtime (backends x lifecycle ops)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed (case i uses seed+i)"
    )
    parser.add_argument(
        "--cases",
        type=int,
        default=0,
        help="number of cases (0 = run until --budget expires)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=60.0,
        help="wall-clock budget in seconds (used when --cases is 0)",
    )
    parser.add_argument("--max-depth", type=int, default=4)
    parser.add_argument(
        "--corpus-dir",
        default="tests/corpus",
        help="where minimized repros are written ('' disables)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true", help="skip minimization"
    )
    parser.add_argument(
        "--shrink-checks",
        type=int,
        default=400,
        help="max harness runs the shrinker may spend",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    started = time.time()
    ran = oracle = 0
    stats: Dict[str, int] = {}
    index = 0
    while True:
        if args.cases > 0:
            if index >= args.cases:
                break
        elif time.time() - started >= args.budget:
            break
        seed = args.seed + index
        index += 1
        try:
            program = generate_program(seed, max_depth=args.max_depth)
            plan = generate_plan(seed, program.input_names())
        except Exception:
            print(f"seed {seed}: generator error", file=sys.stderr)
            traceback.print_exc()
            return 2
        try:
            result = run_case(program, plan)
        except FuzzFailure as failure:
            _report_failure(
                seed,
                program,
                plan,
                failure,
                args.corpus_dir or None,
                not args.no_shrink,
                args.shrink_checks,
            )
            return 1
        except Exception:
            print(f"seed {seed}: harness error", file=sys.stderr)
            traceback.print_exc()
            return 2
        ran += 1
        oracle += result.oracle_checked
        for key, value in result.stats.items():
            stats[key] = stats.get(key, 0) + value
        if args.verbose:
            print(f"seed {seed}: ok {result!r}")

    elapsed = time.time() - started
    print(
        f"fuzz: {ran} cases agreed across all configurations "
        f"({oracle} oracle-checked) in {elapsed:.1f}s "
        f"[seeds {args.seed}..{args.seed + index - 1}] {stats}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
