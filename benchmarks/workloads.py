"""Shared workload generators for the benchmark suite.

The paper's evaluation (section 5.3) is parameterized by program size, so
most benchmarks sweep a synthetic program family whose source size grows
linearly, plus the paper's two real applications (pillbox, Skini scores).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import harness
from repro import CompileOptions, ReactiveMachine, compile_module, parse_module
from repro.apps.skini import make_large_score
from repro.apps.skini.score import generate_score_module
from repro.lang.ast import Module


def linear_source(units: int) -> str:
    """A program family whose statement count grows linearly in ``units``.

    Each unit is a realistic orchestration fragment: an every-loop with a
    parallel await/emit body — the bread and butter of HipHop programs.
    """
    blocks: List[str] = []
    for i in range(units):
        blocks.append(
            f"""
    fork {{
      every (go.now) {{
        fork {{ await a.now; emit o{i}() }} par {{ await b.now }}
        emit o{i}(a.nowval)
      }}
    }} par {{"""
        )
    body = "\n".join(blocks) + "\n      halt\n" + ("    }\n" * units)
    outs = ", ".join(f"out o{i} = 0" for i in range(units))
    return f"module Linear{units}(in go, in a = 0, in b, {outs}) {{\n{body}\n}}"


def linear_module(units: int) -> Module:
    return parse_module(linear_source(units))


def schizo_source(depth: int) -> str:
    """Nested loops with local signals: the reincarnation-sensitive family
    that exhibits the paper's quadratic special case."""
    body = "signal S; fork { emit S } par { if (S.now) { emit O } } await I.now"
    for _ in range(depth):
        body = f"loop {{ signal S; {body}; await I.now }}"
    return f"module Schizo{depth}(in I, out O) {{ loop {{ {body}; await I.now }} }}"


def schizo_module(depth: int) -> Module:
    return parse_module(schizo_source(depth))


def modular_score_source(instances: int, stages: int = 2) -> str:
    """A Skini-style score: ``instances`` parallel ``run Worker(...)``
    instantiations of one shared module whose body has ``stages``
    pipeline stages (locals, counted awaits, a trap over a 3-branch
    fork).  The expander inlines the callee's body at every ``run``
    site, so the circuit holds one copy per instance.
    """
    stage = """
    signal L1%i, L2%i;
    T%i: {
      fork {
        await count(3, T.now);
        emit L1%i;
      } par {
        loop {
          if (R.now) { emit L2%i; }
          await T.now;
        }
      } par {
        await L1%i.now;
        break T%i;
      }
    }
    emit O;
    if (L2%i.pre) { emit P; }
    await R.now;
"""
    body = "\n".join(stage.replace("%i", str(s)) for s in range(stages))
    worker = (
        "module Worker(in T, in R, out O, out P) {\n  loop {\n"
        + body
        + "  }\n}\n"
    )
    branches = ["    run Worker(...);"]
    branches += ["  } par {\n    run Worker(...);" for _ in range(instances - 1)]
    score = (
        "module Score(in T, in R, out O, out P) {\n  fork {\n"
        + "\n".join(branches)
        + "\n  }\n}\n"
    )
    return worker + score


def modular_score(instances: int, stages: int = 2):
    """Parse the modular score family; returns ``(entry, table)``."""
    from repro.syntax.parser import parse_program

    table = parse_program(modular_score_source(instances, stages))
    return table.get("Score"), table


def and_bool(a, b):
    """The generated Skini score's host predicate ``andBool``, which its
    machines receive by name through ``host_globals``."""
    return bool(a and b)


def mid_score():
    """The mid-size Skini score (8 sections, 724 nets) that the fleet
    and recovery benches drive; returns ``(module, table)``.  Its
    machines need ``host_globals={"andBool": and_bool}``."""
    score = make_large_score(sections=8, groups_per_section=5, patterns_per_group=6)
    return generate_score_module(score)


def tick(n):
    """The score's clock inputs for second ``n``."""
    return {"seconds": n, "second": True}


def steady_ms(machine, rounds):
    """Median wall time, in ms, of ``rounds`` steady score reactions."""
    return harness.median(
        [harness.time_ms(machine.react, tick(machine.reaction_count)) for _ in range(rounds)]
    )


def compiled_machine(
    units: int, optimize: bool = True, backend: str = "auto"
) -> ReactiveMachine:
    compiled = compile_module(
        linear_module(units), options=CompileOptions(optimize=optimize)
    )
    return ReactiveMachine(compiled, backend=backend)


def drive_steady_state(machine: ReactiveMachine, warmup: int = 3) -> Dict[str, bool]:
    machine.react({})
    inputs = {"go": True, "a": 1, "b": True}
    for _ in range(warmup):
        machine.react(inputs)
    return inputs


def statement_count(module: Module) -> int:
    return sum(1 for _ in module.body.walk())


def fit_slope(xs: List[float], ys: List[float]) -> Tuple[float, float]:
    """Least-squares slope and correlation coefficient."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    slope = cov / var_x if var_x else 0.0
    corr = cov / (var_x * var_y) ** 0.5 if var_x and var_y else 0.0
    return slope, corr
