"""Seeded random program generation for the ReactorFuzz harness.

Unlike the Hypothesis strategies in ``tests/strategies.py`` (which stay
inside the interpreter's pure kernel subset), this generator covers the
full surface the differential harness exercises:

* valued signals with textual ``combine`` functions (resolved against
  :data:`HOST_GLOBALS` at machine construction);
* pre/count/immediate delays, weak aborts, traps, suspend, every;
* local signal scopes — valued ones with initializers — including
  reincarnation inside loops;
* nested ``run`` module instantiation (worker modules may themselves
  run earlier workers).

Every generated program is *parser round-trippable*: the generator
asserts ``parse(pretty(modules)) == modules`` before handing a program
out, so any failure the harness reports can be reproduced from its
pretty-printed source alone (the corpus stores exactly that).

Programs are drawn from a seeded :class:`random.Random` — no Hypothesis
involvement — so a seed fully determines the case and CI can replay any
nightly finding from its seed number.

A ``pure`` program restricts itself to the construct set the
differential oracle (:class:`repro.interp.Interpreter`) supports, so the
harness can additionally check every reaction against the paper's
behavioral semantics; impure programs are checked backend-against-
backend only.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.compiler.compile import compile_cached
from repro.errors import HipHopError
from repro.lang import ast as A
from repro.lang import expr as E
from repro.lang.pretty import pretty_module
from repro.lang.signals import SignalDecl
from repro.syntax.parser import parse_program

__all__ = [
    "HOST_GLOBALS",
    "FuzzProgram",
    "generate_program",
    "mutate_program",
    "fz_sum",
]

PURE_INPUTS = ("A", "B", "C")
PURE_OUTPUTS = ("X", "Y", "Z")
VALUED_INPUT = "VI"
VALUED_OUTPUT = "VO"
LOCAL_NAMES = ("L1", "L2")
MAIN_NAME = "FzMain"
WORKER_NAMES = ("FzW1", "FzW2")
#: the output the deterministic v2 mutation adds (see :func:`mutate_program`)
UPGRADE_SIGNAL = "UPG"


def fz_sum(a, b):
    """The combine function every generated valued signal declares (by
    its textual name, exercising ``_resolve_combine``)."""
    return a + b


#: host scope handed to every machine the harness builds
HOST_GLOBALS = {"fz_sum": fz_sum}


def mutate_program(main: A.Module) -> A.Module:
    """The deterministic "v2" edit used by the hot-upgrade lifecycle op:
    add one output (:data:`UPGRADE_SIGNAL`) and graft a monitor branch
    emitting it whenever input ``A`` is present, in parallel with the
    old body.  Purely structural — no randomness — so a corpus entry can
    re-derive v2 from its stored v1 sources."""
    interface = list(main.interface) + [SignalDecl(UPGRADE_SIGNAL, "out")]
    monitor = A.Loop(
        A.Seq(
            [
                A.If(E.SigRef(PURE_INPUTS[0], E.NOW), A.Emit(UPGRADE_SIGNAL)),
                A.Pause(),
            ]
        )
    )
    return A.Module(
        main.name,
        interface,
        A.Par([main.body, monitor]),
        variables=tuple(main.variables),
    )


class FuzzProgram:
    """One generated program: the worker modules plus the main module
    (definition order, main last), its purity flag, and the derived v2
    used by the upgrade op."""

    __slots__ = ("modules", "main", "pure", "v2_main")

    def __init__(self, modules: List[A.Module], pure: bool):
        self.modules = list(modules)
        self.main = self.modules[-1]
        self.pure = pure
        self.v2_main = mutate_program(self.main)

    def table(self) -> A.ModuleTable:
        return A.ModuleTable(self.modules)

    def v2_table(self) -> A.ModuleTable:
        return A.ModuleTable(self.modules[:-1] + [self.v2_main])

    def sources(self) -> List[str]:
        """Pretty-printed module sources in definition order — the
        self-contained repro the corpus stores."""
        return [pretty_module(module) for module in self.modules]

    def input_names(self) -> List[str]:
        names = [
            decl.name for decl in self.main.interface if decl.direction == "in"
        ]
        return names

    def __repr__(self) -> str:
        kind = "pure" if self.pure else "impure"
        return f"FuzzProgram({self.main.name}, {kind}, {len(self.modules)} modules)"


# ---------------------------------------------------------------------------
# generation context
# ---------------------------------------------------------------------------


class _Ctx:
    """Scope carried down the recursive statement builder."""

    __slots__ = (
        "pure", "scope", "ins", "outs", "iface_outs",
        "valued_outs", "traps", "in_loop", "workers",
    )

    def __init__(
        self, pure, scope, ins, outs, iface_outs,
        valued_outs, traps, in_loop, workers,
    ):
        self.pure = pure
        #: interface inputs of the enclosing module (run-binding targets)
        self.ins = tuple(ins)
        #: interface outputs only (run-binding targets exclude locals)
        self.iface_outs = tuple(iface_outs)
        #: presence-readable names (guards draw from these)
        self.scope = tuple(scope)
        #: pure emittable targets (outputs + pure locals in scope)
        self.outs = tuple(outs)
        #: valued emittable targets (valued outputs + valued locals)
        self.valued_outs = tuple(valued_outs)
        self.traps = tuple(traps)
        self.in_loop = in_loop
        #: worker module names this body may ``run``
        self.workers = tuple(workers)

    def nested(self, **overrides) -> "_Ctx":
        fields = {slot: getattr(self, slot) for slot in self.__slots__}
        fields.update(overrides)
        return _Ctx(**fields)


class _Gen:
    def __init__(self, rng: random.Random, max_depth: int = 4):
        self.rng = rng
        self.max_depth = max_depth
        self._trap_counter = 0

    # -- expressions -----------------------------------------------------

    def guard(self, ctx: _Ctx, depth: int = 2) -> E.Expr:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.55:
            name = rng.choice(ctx.scope)
            kind = E.PRE if rng.random() < 0.3 else E.NOW
            return E.SigRef(name, kind)
        roll = rng.random()
        if roll < 0.34:
            return E.UnOp("!", self.guard(ctx, depth - 1))
        op = "&&" if roll < 0.67 else "||"
        return E.BinOp(op, self.guard(ctx, depth - 1), self.guard(ctx, depth - 1))

    def delay(self, ctx: _Ctx, immediate_ok: bool = True, count_ok: bool = False) -> A.Delay:
        rng = self.rng
        immediate = immediate_ok and rng.random() < 0.3
        count = None
        if count_ok and not ctx.pure and not immediate and rng.random() < 0.3:
            count = E.Lit(rng.randint(1, 3))
        return A.Delay(self.guard(ctx), immediate=immediate, count=count)

    # -- statements ------------------------------------------------------

    def emit(self, ctx: _Ctx) -> A.Stmt:
        rng = self.rng
        if ctx.valued_outs and not ctx.pure and rng.random() < 0.4:
            return A.Emit(rng.choice(ctx.valued_outs), E.Lit(rng.randint(0, 9)))
        return A.Emit(rng.choice(ctx.outs))

    def leaf(self, ctx: _Ctx) -> A.Stmt:
        rng = self.rng
        choices = ["nothing", "pause", "pause", "emit", "emit", "emit"]
        if ctx.traps:
            choices.append("break")
        if not ctx.pure:
            choices += ["await", "halt"]
        kind = rng.choice(choices)
        if kind == "nothing":
            return A.Nothing()
        if kind == "pause":
            return A.Pause()
        if kind == "emit":
            return self.emit(ctx)
        if kind == "break":
            return A.Break(rng.choice(ctx.traps))
        if kind == "await":
            return A.Await(self.delay(ctx, immediate_ok=False, count_ok=True))
        return A.Halt()

    def stmt(self, ctx: _Ctx, depth: int) -> A.Stmt:
        rng = self.rng
        if depth <= 0:
            return self.leaf(ctx)
        choices = [
            "leaf", "leaf",
            "seq", "seq",
            "par",
            "if",
            "abort",
            "suspend",
            "loop",
            "trap",
            "local",
        ]
        if ctx.workers:
            choices.append("run")
        if not ctx.pure:
            choices += ["weakabort", "every", "doevery", "sustain"]
        kind = rng.choice(choices)
        if kind == "leaf":
            return self.leaf(ctx)
        if kind == "seq":
            return A.Seq(
                [self.stmt(ctx, depth - 1) for _ in range(rng.randint(2, 3))]
            )
        if kind == "par":
            return A.Par(
                [self.stmt(ctx, depth - 1) for _ in range(rng.randint(2, 3))]
            )
        if kind == "if":
            orelse = self.stmt(ctx, depth - 1) if rng.random() < 0.5 else None
            return A.If(self.guard(ctx), self.stmt(ctx, depth - 1), orelse)
        if kind == "abort":
            return A.Abort(self.delay(ctx, count_ok=True), self.stmt(ctx, depth - 1))
        if kind == "weakabort":
            return A.WeakAbort(
                self.delay(ctx, count_ok=True), self.stmt(ctx, depth - 1)
            )
        if kind == "suspend":
            return A.Suspend(
                self.delay(ctx, immediate_ok=False), self.stmt(ctx, depth - 1)
            )
        if kind == "every":
            return A.Every(
                self.delay(ctx, immediate_ok=False), self.stmt(ctx, depth - 1)
            )
        if kind == "doevery":
            return A.DoEvery(
                self.stmt(ctx, depth - 1), self.delay(ctx, immediate_ok=False)
            )
        if kind == "sustain":
            if ctx.valued_outs and rng.random() < 0.4:
                return A.Sustain(
                    rng.choice(ctx.valued_outs), E.Lit(rng.randint(0, 9))
                )
            return A.Sustain(rng.choice(ctx.outs))
        if kind == "loop":
            # loop bodies always end in a pause so the loop can never be
            # instantaneous (the validator would reject it)
            inner = ctx.nested(in_loop=True)
            return A.Loop(A.Seq([self.stmt(inner, depth - 1), A.Pause()]))
        if kind == "trap":
            label = f"T{self._trap_counter}"
            self._trap_counter += 1
            inner = ctx.nested(traps=ctx.traps + (label,))
            return A.Trap(label, self.stmt(inner, depth - 1))
        if kind == "local":
            return self.local(ctx, depth)
        if kind == "run":
            return self.run(ctx)
        raise AssertionError(kind)

    def local(self, ctx: _Ctx, depth: int) -> A.Stmt:
        rng = self.rng
        # the pure subset keeps locals out of loops (reincarnation is not
        # part of the interpreter oracle's subset)
        if ctx.pure and ctx.in_loop:
            return self.leaf(ctx)
        names = [n for n in LOCAL_NAMES if n not in ctx.scope]
        if not names:
            return self.leaf(ctx)
        name = rng.choice(names)
        valued = not ctx.pure and rng.random() < 0.4
        if valued:
            init = E.Lit(rng.randint(0, 9)) if rng.random() < 0.5 else None
            decl = SignalDecl(name, "local", init=init, combine="fz_sum")
            inner = ctx.nested(
                scope=ctx.scope + (name,),
                valued_outs=ctx.valued_outs + (name,),
            )
        else:
            decl = SignalDecl(name, "local")
            inner = ctx.nested(
                scope=ctx.scope + (name,), outs=ctx.outs + (name,)
            )
        return A.Local([decl], self.stmt(inner, depth - 1))

    def run(self, ctx: _Ctx) -> A.Stmt:
        rng = self.rng
        name = rng.choice(ctx.workers)
        # workers read A/B and drive X/Y; rebind some of those to other
        # caller signals of the same direction, leaving the rest to the
        # implicit same-name "..." binding
        bindings = {}
        if rng.random() < 0.5:
            bindings["A"] = rng.choice(ctx.ins)
        if rng.random() < 0.4:
            bindings["X"] = rng.choice(ctx.iface_outs)
        return A.Run(name, bindings=bindings or None)

    # -- modules ---------------------------------------------------------

    def worker(self, name: str, pure: bool, runnable: Tuple[str, ...]) -> A.Module:
        interface = [
            SignalDecl("A", "in"),
            SignalDecl("B", "in"),
            SignalDecl("X", "out"),
            SignalDecl("Y", "out"),
        ]
        ctx = _Ctx(
            pure=pure,
            scope=("A", "B", "X", "Y"),
            ins=("A", "B"),
            outs=("X", "Y"),
            iface_outs=("X", "Y"),
            valued_outs=(),
            traps=(),
            in_loop=False,
            workers=runnable,
        )
        body = self.stmt(ctx, max(1, self.max_depth - 2))
        return A.Module(name, interface, body)

    def main(self, pure: bool, workers: Tuple[str, ...]) -> A.Module:
        interface = [SignalDecl(n, "in") for n in PURE_INPUTS] + [
            SignalDecl(n, "out") for n in PURE_OUTPUTS
        ]
        scope = PURE_INPUTS + PURE_OUTPUTS
        valued_outs: Tuple[str, ...] = ()
        if not pure:
            interface.append(SignalDecl(VALUED_INPUT, "in", combine="fz_sum"))
            interface.append(SignalDecl(VALUED_OUTPUT, "out", combine="fz_sum"))
            scope = scope + (VALUED_INPUT, VALUED_OUTPUT)
            valued_outs = (VALUED_OUTPUT,)
        ctx = _Ctx(
            pure=pure,
            scope=scope,
            ins=PURE_INPUTS,
            outs=PURE_OUTPUTS,
            iface_outs=PURE_OUTPUTS,
            valued_outs=valued_outs,
            traps=(),
            in_loop=False,
            workers=workers,
        )
        top = [
            self.stmt(ctx, self.max_depth)
            for _ in range(self.rng.randint(1, 3))
        ]
        body = top[0] if len(top) == 1 else (
            A.Par(top) if self.rng.random() < 0.5 else A.Seq(top)
        )
        return A.Module(MAIN_NAME, interface, body)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build(rng: random.Random, pure: bool, max_depth: int) -> FuzzProgram:
    gen = _Gen(rng, max_depth=max_depth)
    modules: List[A.Module] = []
    worker_names: Tuple[str, ...] = ()
    n_workers = rng.choice((0, 0, 1, 1, 2))
    for i in range(n_workers):
        name = WORKER_NAMES[i]
        # later workers may run earlier ones (nested instantiation)
        modules.append(gen.worker(name, pure, worker_names))
        worker_names = worker_names + (name,)
    modules.append(gen.main(pure, worker_names))
    return FuzzProgram(modules, pure)


def _validate(program: FuzzProgram) -> None:
    """Reject a candidate unless v1 and v2 compile and the program
    survives a pretty-print → parse round trip."""
    compile_cached(program.main, program.table())
    compile_cached(program.v2_main, program.v2_table())
    source = "\n\n".join(program.sources())
    reparsed = list(parse_program(source, filename="<fuzz>"))
    if reparsed != program.modules:
        raise HipHopError(
            f"pretty/parse round trip changed the program "
            f"({[m.name for m in program.modules]})"
        )


def generate_program(
    seed: int, max_depth: int = 4, max_attempts: int = 50
) -> FuzzProgram:
    """Generate the program for ``seed``.

    Candidates that fail static validation (instantaneous loops the
    appended pauses did not prevent, causality rejections at compile
    time, round-trip mismatches) are discarded and redrawn from a
    derived stream, so every seed deterministically yields *some* valid
    program.
    """
    last: Optional[Exception] = None
    for attempt in range(max_attempts):
        rng = random.Random(f"prog:{seed}:{attempt}")
        pure = rng.random() < 0.45
        try:
            program = _build(rng, pure, max_depth)
            _validate(program)
            return program
        except HipHopError as err:
            last = err
    raise RuntimeError(
        f"seed {seed}: no valid program in {max_attempts} attempts "
        f"(last rejection: {last})"
    )
