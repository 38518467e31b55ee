"""Statement AST of the HipHop language.

The surface statements mirror the paper's constructs; a lowering pass
(:mod:`repro.compiler.expand`) reduces them to the *kernel* subset that the
circuit translator understands:

    nothing, pause, emit, atom, seq, par, loop, if, suspend,
    abort (strong), trap/exit, local signal, exec (async)

plus the transparent ``Instance`` marker around each inlined ``run`` body.

Surface-only statements: ``halt``, ``sustain``, ``await``, ``every``,
``do/every``, ``loopeach``, ``weakabort``, ``run``.

All nodes support structural equality (for parser/pretty round-trip tests),
``children()`` traversal, and ``rename_signals`` (used when inlining
``run M(sig as other)``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.errors import SourceLocation
from repro.lang import expr as E
from repro.lang.signals import SignalDecl, VarDecl

# ---------------------------------------------------------------------------
# Host statements (the bodies of `atom { ... }` / `hop { ... }` blocks)
# ---------------------------------------------------------------------------


class HostStmt:
    """A statement of the embedded host mini-language."""

    __slots__ = ("loc",)

    def __init__(self, loc: Optional[SourceLocation] = None):
        self.loc = loc

    def exprs(self) -> Iterable[E.Expr]:
        return ()

    def rename_signals(self, mapping: Dict[str, str]) -> "HostStmt":
        raise NotImplementedError

    def execute(self, env: E.EvalEnv) -> None:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple:
        raise NotImplementedError


class Assign(HostStmt):
    """``name = expr`` — write a host variable in the machine frame."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: E.Expr, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.name = name
        self.value = value

    def exprs(self) -> Iterable[E.Expr]:
        return (self.value,)

    def rename_signals(self, mapping: Dict[str, str]) -> "HostStmt":
        return Assign(self.name, self.value.rename_signals(mapping), self.loc)

    def execute(self, env: E.EvalEnv) -> None:
        env.assign(self.name, self.value.eval(env))

    def _key(self) -> tuple:
        return (self.name, self.value)

    def __repr__(self) -> str:
        return f"Assign({self.name} = {self.value!r})"


class TargetAssign(HostStmt):
    """``target = expr`` where target is an attribute or index lvalue
    (``this.sec = 0`` in the paper's Timer)."""

    __slots__ = ("target", "value")

    def __init__(self, target: E.Expr, value: E.Expr, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.target = target
        self.value = value

    def exprs(self) -> Iterable[E.Expr]:
        return (self.target, self.value)

    def rename_signals(self, mapping: Dict[str, str]) -> "HostStmt":
        return TargetAssign(
            self.target.rename_signals(mapping), self.value.rename_signals(mapping), self.loc
        )

    def execute(self, env: E.EvalEnv) -> None:
        E.assign_target(self.target, self.value.eval(env), env)

    def _key(self) -> tuple:
        return (self.target, self.value)

    def __repr__(self) -> str:
        return f"TargetAssign({self.target!r} = {self.value!r})"


class ExprStmt(HostStmt):
    """Evaluate an expression for its side effect (typically a host call)."""

    __slots__ = ("value",)

    def __init__(self, value: E.Expr, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.value = value

    def exprs(self) -> Iterable[E.Expr]:
        return (self.value,)

    def rename_signals(self, mapping: Dict[str, str]) -> "HostStmt":
        return ExprStmt(self.value.rename_signals(mapping), self.loc)

    def execute(self, env: E.EvalEnv) -> None:
        self.value.eval(env)

    def _key(self) -> tuple:
        return (self.value,)

    def __repr__(self) -> str:
        return f"ExprStmt({self.value!r})"


# ---------------------------------------------------------------------------
# Delays
# ---------------------------------------------------------------------------


class Delay:
    """A temporal guard, as used by ``await``, ``abort``, ``every``...

    ``expr`` is the boolean host expression tested at each instant.
    ``immediate`` makes the guard checked already at the starting instant
    (paper section 3: abort/weakabort are *delayed* by default).
    ``count`` makes the guard fire only at the *n*-th occurrence
    (``await count(n, e)``); the count expression is evaluated when the
    guarded statement starts.
    """

    __slots__ = ("expr", "immediate", "count", "loc")

    def __init__(
        self,
        expr: E.Expr,
        immediate: bool = False,
        count: Optional[E.Expr] = None,
        loc: Optional[SourceLocation] = None,
    ):
        self.expr = expr
        self.immediate = immediate
        self.count = count
        self.loc = loc

    @property
    def counted(self) -> bool:
        return self.count is not None

    def rename_signals(self, mapping: Dict[str, str]) -> "Delay":
        return Delay(
            self.expr.rename_signals(mapping),
            self.immediate,
            None if self.count is None else self.count.rename_signals(mapping),
            self.loc,
        )

    def exprs(self) -> Iterable[E.Expr]:
        yield self.expr
        if self.count is not None:
            yield self.count

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Delay)
            and self.expr == other.expr
            and self.immediate == other.immediate
            and self.count == other.count
        )

    def __hash__(self) -> int:
        return hash((self.expr, self.immediate, self.count))

    def __repr__(self) -> str:
        flags = ", immediate" if self.immediate else ""
        count = f", count={self.count!r}" if self.count is not None else ""
        return f"Delay({self.expr!r}{flags}{count})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class of temporal statements."""

    __slots__ = ("loc",)

    KERNEL = False  # kernel statements survive macro expansion

    def __init__(self, loc: Optional[SourceLocation] = None):
        self.loc = loc

    def children(self) -> Iterable["Stmt"]:
        return ()

    def exprs(self) -> Iterable[E.Expr]:
        """Expressions directly attached to this node (not descendants)."""
        return ()

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        raise NotImplementedError

    # Traversal helpers ------------------------------------------------------

    def walk(self) -> Iterable["Stmt"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple:
        raise NotImplementedError


class Nothing(Stmt):
    """The empty statement; terminates instantly."""

    KERNEL = True
    __slots__ = ()

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return self

    def _key(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        return "Nothing()"


class Pause(Stmt):
    """Stop for the current instant; terminate at the next one (Esterel's
    ``pause``, HipHop's ``yield``)."""

    KERNEL = True
    __slots__ = ()

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return self

    def _key(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        return "Pause()"


class Halt(Stmt):
    """Stop forever (``loop { pause }``)."""

    __slots__ = ()

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return self

    def _key(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        return "Halt()"


class Emit(Stmt):
    """``emit S`` or ``emit S(expr)`` — set S present this instant, and
    update its value if an expression is given.  Instantaneous."""

    KERNEL = True
    __slots__ = ("signal", "value")

    def __init__(self, signal: str, value: Optional[E.Expr] = None, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.signal = signal
        self.value = value

    def exprs(self) -> Iterable[E.Expr]:
        if self.value is not None:
            yield self.value

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return Emit(
            mapping.get(self.signal, self.signal),
            None if self.value is None else self.value.rename_signals(mapping),
            self.loc,
        )

    def _key(self) -> tuple:
        return (self.signal, self.value)

    def __repr__(self) -> str:
        value = "" if self.value is None else f"({self.value!r})"
        return f"Emit({self.signal}{value})"


class Sustain(Stmt):
    """``sustain S(expr)`` — emit S at every instant forever."""

    __slots__ = ("signal", "value")

    def __init__(self, signal: str, value: Optional[E.Expr] = None, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.signal = signal
        self.value = value

    def exprs(self) -> Iterable[E.Expr]:
        if self.value is not None:
            yield self.value

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return Sustain(
            mapping.get(self.signal, self.signal),
            None if self.value is None else self.value.rename_signals(mapping),
            self.loc,
        )

    def _key(self) -> tuple:
        return (self.signal, self.value)

    def __repr__(self) -> str:
        value = "" if self.value is None else f"({self.value!r})"
        return f"Sustain({self.signal}{value})"


class Atom(Stmt):
    """``hop { ... }`` — run host statements instantaneously.

    The body is either a list of :class:`HostStmt` or an opaque Python
    callable taking the evaluation environment (with declared signal
    dependencies carried by :class:`repro.lang.expr.HostCall` wrappers).
    """

    KERNEL = True
    __slots__ = ("body",)

    def __init__(self, body: Sequence[HostStmt], loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.body = list(body)

    def exprs(self) -> Iterable[E.Expr]:
        for stmt in self.body:
            yield from stmt.exprs()

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return Atom([s.rename_signals(mapping) for s in self.body], self.loc)

    def _key(self) -> tuple:
        return (tuple(self.body),)

    def __repr__(self) -> str:
        return f"Atom({self.body!r})"


class Seq(Stmt):
    """Sequential composition (instantaneous control transfer)."""

    KERNEL = True
    __slots__ = ("items",)

    def __init__(self, items: Sequence[Stmt], loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.items = list(items)

    def children(self) -> Iterable[Stmt]:
        return tuple(self.items)

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return Seq([s.rename_signals(mapping) for s in self.items], self.loc)

    def _key(self) -> tuple:
        return (tuple(self.items),)

    def __repr__(self) -> str:
        return f"Seq({self.items!r})"


class Par(Stmt):
    """``fork { } par { }`` — synchronous parallel; terminates when all
    branches have terminated."""

    KERNEL = True
    __slots__ = ("branches",)

    def __init__(self, branches: Sequence[Stmt], loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.branches = list(branches)

    def children(self) -> Iterable[Stmt]:
        return tuple(self.branches)

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return Par([s.rename_signals(mapping) for s in self.branches], self.loc)

    def _key(self) -> tuple:
        return (tuple(self.branches),)

    def __repr__(self) -> str:
        return f"Par({self.branches!r})"


class Loop(Stmt):
    """``loop { body }`` — restart the body instantly when it terminates.
    The body must not be able to terminate in its starting instant."""

    KERNEL = True
    __slots__ = ("body",)

    def __init__(self, body: Stmt, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.body = body

    def children(self) -> Iterable[Stmt]:
        return (self.body,)

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return Loop(self.body.rename_signals(mapping), self.loc)

    def _key(self) -> tuple:
        return (self.body,)

    def __repr__(self) -> str:
        return f"Loop({self.body!r})"


class If(Stmt):
    """``if (expr) { } else { }`` — instantaneous branch on a host test."""

    KERNEL = True
    __slots__ = ("test", "then", "orelse")

    def __init__(
        self,
        test: E.Expr,
        then: Stmt,
        orelse: Optional[Stmt] = None,
        loc: Optional[SourceLocation] = None,
    ):
        super().__init__(loc)
        self.test = test
        self.then = then
        self.orelse = orelse if orelse is not None else Nothing()

    def children(self) -> Iterable[Stmt]:
        return (self.then, self.orelse)

    def exprs(self) -> Iterable[E.Expr]:
        yield self.test

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return If(
            self.test.rename_signals(mapping),
            self.then.rename_signals(mapping),
            self.orelse.rename_signals(mapping),
            self.loc,
        )

    def _key(self) -> tuple:
        return (self.test, self.then, self.orelse)

    def __repr__(self) -> str:
        return f"If({self.test!r}, {self.then!r}, {self.orelse!r})"


class Suspend(Stmt):
    """``suspend (delay) { body }`` — freeze the body (hold its state,
    don't run it) at instants where the delay guard holds."""

    KERNEL = True
    __slots__ = ("delay", "body")

    def __init__(self, delay: Delay, body: Stmt, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.delay = delay
        self.body = body

    def children(self) -> Iterable[Stmt]:
        return (self.body,)

    def exprs(self) -> Iterable[E.Expr]:
        return self.delay.exprs()

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return Suspend(self.delay.rename_signals(mapping), self.body.rename_signals(mapping), self.loc)

    def _key(self) -> tuple:
        return (self.delay, self.body)

    def __repr__(self) -> str:
        return f"Suspend({self.delay!r}, {self.body!r})"


class Abort(Stmt):
    """``abort (delay) { body }`` — strong preemption: kill the body the
    instant the guard holds (the body does not run at that instant)."""

    KERNEL = True
    __slots__ = ("delay", "body")

    def __init__(self, delay: Delay, body: Stmt, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.delay = delay
        self.body = body

    def children(self) -> Iterable[Stmt]:
        return (self.body,)

    def exprs(self) -> Iterable[E.Expr]:
        return self.delay.exprs()

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return Abort(self.delay.rename_signals(mapping), self.body.rename_signals(mapping), self.loc)

    def _key(self) -> tuple:
        return (self.delay, self.body)

    def __repr__(self) -> str:
        return f"Abort({self.delay!r}, {self.body!r})"


class WeakAbort(Stmt):
    """``weakabort (delay) { body }`` — weak preemption: the body *does*
    run at the abortion instant, then is discarded (paper section 3)."""

    __slots__ = ("delay", "body")

    def __init__(self, delay: Delay, body: Stmt, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.delay = delay
        self.body = body

    def children(self) -> Iterable[Stmt]:
        return (self.body,)

    def exprs(self) -> Iterable[E.Expr]:
        return self.delay.exprs()

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return WeakAbort(self.delay.rename_signals(mapping), self.body.rename_signals(mapping), self.loc)

    def _key(self) -> tuple:
        return (self.delay, self.body)

    def __repr__(self) -> str:
        return f"WeakAbort({self.delay!r}, {self.body!r})"


class Await(Stmt):
    """``await (delay)`` — pause until the guard holds."""

    __slots__ = ("delay",)

    def __init__(self, delay: Delay, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.delay = delay

    def exprs(self) -> Iterable[E.Expr]:
        return self.delay.exprs()

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return Await(self.delay.rename_signals(mapping), self.loc)

    def _key(self) -> tuple:
        return (self.delay,)

    def __repr__(self) -> str:
        return f"Await({self.delay!r})"


class Every(Stmt):
    """``every (delay) { body }`` — preemptive loop: wait for the guard,
    run the body, and kill/restart it at every further occurrence."""

    __slots__ = ("delay", "body")

    def __init__(self, delay: Delay, body: Stmt, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.delay = delay
        self.body = body

    def children(self) -> Iterable[Stmt]:
        return (self.body,)

    def exprs(self) -> Iterable[E.Expr]:
        return self.delay.exprs()

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return Every(self.delay.rename_signals(mapping), self.body.rename_signals(mapping), self.loc)

    def _key(self) -> tuple:
        return (self.delay, self.body)

    def __repr__(self) -> str:
        return f"Every({self.delay!r}, {self.body!r})"


class DoEvery(Stmt):
    """``do { body } every (delay)`` — run the body immediately, then
    restart it at every occurrence of the guard (paper's Identity module)."""

    __slots__ = ("body", "delay")

    def __init__(self, body: Stmt, delay: Delay, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.body = body
        self.delay = delay

    def children(self) -> Iterable[Stmt]:
        return (self.body,)

    def exprs(self) -> Iterable[E.Expr]:
        return self.delay.exprs()

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return DoEvery(self.body.rename_signals(mapping), self.delay.rename_signals(mapping), self.loc)

    def _key(self) -> tuple:
        return (self.body, self.delay)

    def __repr__(self) -> str:
        return f"DoEvery({self.body!r}, {self.delay!r})"


class Trap(Stmt):
    """A labelled statement: ``L: stmt``.  ``break L`` inside exits it
    instantly, weakly preempting concurrent branches (paper section 4.1)."""

    KERNEL = True
    __slots__ = ("label", "body")

    def __init__(self, label: str, body: Stmt, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.label = label
        self.body = body

    def children(self) -> Iterable[Stmt]:
        return (self.body,)

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return Trap(self.label, self.body.rename_signals(mapping), self.loc)

    def _key(self) -> tuple:
        return (self.label, self.body)

    def __repr__(self) -> str:
        return f"Trap({self.label}, {self.body!r})"


class Break(Stmt):
    """``break L`` — exit the enclosing :class:`Trap` labelled ``L``."""

    KERNEL = True
    __slots__ = ("label",)

    def __init__(self, label: str, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.label = label

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return self

    def _key(self) -> tuple:
        return (self.label,)

    def __repr__(self) -> str:
        return f"Break({self.label})"


class Local(Stmt):
    """``signal S1, S2=init; body`` — declare body-scoped signals."""

    KERNEL = True
    __slots__ = ("decls", "body")

    def __init__(self, decls: Sequence[SignalDecl], body: Stmt, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.decls = list(decls)
        self.body = body

    def children(self) -> Iterable[Stmt]:
        return (self.body,)

    def exprs(self) -> Iterable[E.Expr]:
        for decl in self.decls:
            if decl.init is not None:
                yield decl.init

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        # Locally declared names shadow outer ones: strip them from the map.
        inner = {k: v for k, v in mapping.items() if k not in {d.name for d in self.decls}}
        decls = [
            SignalDecl(
                d.name,
                d.direction,
                None if d.init is None else d.init.rename_signals(mapping),
                d.combine,
                d.loc,
            )
            for d in self.decls
        ]
        return Local(decls, self.body.rename_signals(inner), self.loc)

    def _key(self) -> tuple:
        return (tuple(self.decls), self.body)

    def __repr__(self) -> str:
        return f"Local({self.decls!r}, {self.body!r})"


class Run(Stmt):
    """``run M(...)`` — instantiate module ``M`` in place.

    ``bindings`` maps the callee's interface signal names to caller-scope
    names (``sig as connected`` gives ``{"sig": "connected"}``); interface
    signals absent from the map bind to the same name (the ``...`` form).
    ``var_args`` provides values for the module's ``var`` parameters.
    ``module`` may be a module name (resolved against a
    :class:`ModuleTable`) or a :class:`Module` object.
    """

    __slots__ = ("module", "bindings", "var_args")

    def __init__(
        self,
        module: Union[str, "Module"],
        bindings: Optional[Dict[str, str]] = None,
        var_args: Optional[Dict[str, E.Expr]] = None,
        loc: Optional[SourceLocation] = None,
    ):
        super().__init__(loc)
        self.module = module
        self.bindings = dict(bindings or {})
        self.var_args = dict(var_args or {})

    def exprs(self) -> Iterable[E.Expr]:
        return tuple(self.var_args.values())

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        bindings = {k: mapping.get(v, v) for k, v in self.bindings.items()}
        # Unbound interface signals implicitly bind by name; make the
        # renaming explicit for them so inlining later still lands on the
        # caller's (renamed) environment.
        module = self.module
        if isinstance(module, Module):
            for decl in module.interface:
                if decl.name not in bindings and decl.name in mapping:
                    bindings[decl.name] = mapping[decl.name]
        else:
            for name, target in mapping.items():
                if name not in bindings:
                    bindings[name] = target
        var_args = {k: v.rename_signals(mapping) for k, v in self.var_args.items()}
        return Run(self.module, bindings, var_args, self.loc)

    def _module_key(self) -> Any:
        return self.module if isinstance(self.module, str) else self.module.name

    def _key(self) -> tuple:
        return (self._module_key(), tuple(sorted(self.bindings.items())),
                tuple(sorted(self.var_args.items())))

    def __repr__(self) -> str:
        return f"Run({self._module_key()}, bindings={self.bindings!r})"


class Instance(Stmt):
    """One inlined ``run M(...)``: M's expanded body, renamed into the
    caller's scope, marked so the translator can record the state it
    creates as one instance segment (``/M#0``, nested ``/M#0/N#1``; see
    :class:`repro.compiler.netlist.StateSegment`).

    Produced by the expander; it behaves exactly as its body does, and
    every analysis sees through it.  ``spliced`` marks an instance that
    stands as an item of a sequence while its body (under any nested
    instance markers) is a sequence too: the translator takes those
    items as items of the enclosing sequence, as the expander flattens
    nested sequences, so the marker adds no gate.
    """

    KERNEL = True
    __slots__ = ("module", "body", "spliced")

    def __init__(
        self,
        module: str,
        body: Stmt,
        loc: Optional[SourceLocation] = None,
        spliced: bool = False,
    ):
        super().__init__(loc)
        self.module = module
        self.body = body
        self.spliced = spliced

    def children(self) -> Iterable[Stmt]:
        return (self.body,)

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        return Instance(
            self.module, self.body.rename_signals(mapping), self.loc, self.spliced
        )

    def _key(self) -> tuple:
        return (self.module, self.body, self.spliced)

    def __repr__(self) -> str:
        return f"Instance({self.module}, {self.body!r})"


class ExecContext:
    """The object bound to ``this`` inside an ``async`` body.

    Provided by the runtime; declared here so actions can be written and
    type-checked against it.
    """

    def notify(self, value: Any = None) -> None:
        """Complete the async block, emitting its completion signal (with
        ``value``) in the next reaction."""
        raise NotImplementedError

    def react(self, inputs: Optional[Dict[str, Any]] = None) -> None:
        """Queue a machine reaction with the given input signals."""
        raise NotImplementedError

    @property
    def machine(self) -> Any:
        raise NotImplementedError


#: An exec action: either an opaque Python callable taking the
#: :class:`ExecContext`, or a list of host statements executed with
#: ``this`` bound to the context (the textual ``async { ... }`` form).
ExecAction = Union[Callable[["ExecContext"], None], Sequence[HostStmt]]


class Exec(Stmt):
    """``async [S] { start } kill { cleanup }`` — the paper's bridge from
    synchronous to asynchronous code (section 2.2.4).

    ``start`` fires when the statement starts.  If ``signal`` is given the
    statement stays selected until the host calls ``ctx.notify(v)``, which
    emits the signal (valued with ``v``) and terminates the statement;
    without a signal the statement never terminates on its own (like the
    Timer of the paper).  ``kill`` runs whenever the statement is preempted
    while active — automatic resource cleanup.  ``suspend``/``resume``
    hooks mirror HipHop's suspend handling.

    Actions are either Python callables (receiving the
    :class:`ExecContext`) or lists of :class:`HostStmt` evaluated with
    ``this`` bound to the context — the latter is what the surface parser
    produces, and supports signal renaming when the module is inlined.
    """

    KERNEL = True

    _counter = 0

    __slots__ = ("signal", "start", "kill", "on_suspend", "on_resume", "name", "uid")

    def __init__(
        self,
        start: ExecAction,
        signal: Optional[str] = None,
        kill: Optional[ExecAction] = None,
        on_suspend: Optional[ExecAction] = None,
        on_resume: Optional[ExecAction] = None,
        name: str = "async",
        loc: Optional[SourceLocation] = None,
        uid: Optional[int] = None,
    ):
        super().__init__(loc)
        self.start = self._coerce(start)
        self.signal = signal
        self.kill = self._coerce(kill)
        self.on_suspend = self._coerce(on_suspend)
        self.on_resume = self._coerce(on_resume)
        self.name = name
        if uid is None:
            Exec._counter += 1
            uid = Exec._counter
        self.uid = uid

    @staticmethod
    def _coerce(action: Optional[ExecAction]) -> Optional[ExecAction]:
        if action is None or callable(action):
            return action
        return list(action)

    def exprs(self) -> Iterable[E.Expr]:
        for action in (self.start, self.kill, self.on_suspend, self.on_resume):
            if isinstance(action, list):
                for stmt in action:
                    yield from stmt.exprs()

    @staticmethod
    def _rename_action(action: Optional[ExecAction], mapping: Dict[str, str]) -> Optional[ExecAction]:
        if isinstance(action, list):
            return [s.rename_signals(mapping) for s in action]
        return action

    def rename_signals(self, mapping: Dict[str, str]) -> "Stmt":
        signal = self.signal
        if signal is not None:
            signal = mapping.get(signal, signal)
        return Exec(
            self._rename_action(self.start, mapping),
            signal,
            self._rename_action(self.kill, mapping),
            self._rename_action(self.on_suspend, mapping),
            self._rename_action(self.on_resume, mapping),
            self.name,
            self.loc,
            uid=self.uid,
        )

    def _key(self) -> tuple:
        return (self.uid,)

    def __repr__(self) -> str:
        sig = f" {self.signal}" if self.signal else ""
        return f"Exec({self.name}{sig})"


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------


class Module:
    """A HipHop module: named interface + body.

    :param interface: interface signals in declaration order.
    :param variables: ``var`` parameters.
    """

    __slots__ = ("name", "interface", "variables", "body", "loc")

    def __init__(
        self,
        name: str,
        interface: Sequence[SignalDecl],
        body: Stmt,
        variables: Sequence[VarDecl] = (),
        loc: Optional[SourceLocation] = None,
    ):
        self.name = name
        self.interface = list(interface)
        self.variables = list(variables)
        self.body = body
        self.loc = loc
        seen = set()
        for decl in self.interface:
            if decl.name in seen:
                raise ValueError(f"duplicate interface signal {decl.name!r} in module {name}")
            seen.add(decl.name)

    def signal(self, name: str) -> SignalDecl:
        for decl in self.interface:
            if decl.name == name:
                return decl
        raise KeyError(name)

    @property
    def inputs(self) -> List[SignalDecl]:
        return [d for d in self.interface if d.is_input]

    @property
    def outputs(self) -> List[SignalDecl]:
        return [d for d in self.interface if d.is_output]

    def __repr__(self) -> str:
        sigs = ", ".join(f"{d.direction} {d.name}" for d in self.interface)
        return f"Module({self.name}({sigs}))"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Module)
            and self.name == other.name
            and self.interface == other.interface
            and self.variables == other.variables
            and self.body == other.body
        )

    def __hash__(self) -> int:
        return hash(self.name)


class ModuleTable:
    """A name → :class:`Module` registry used to resolve ``run M(...)``."""

    def __init__(self, modules: Iterable[Module] = ()):
        self._modules: Dict[str, Module] = {}
        for module in modules:
            self.add(module)

    def add(self, module: Module) -> Module:
        self._modules[module.name] = module
        return module

    def get(self, name: str) -> Module:
        try:
            return self._modules[name]
        except KeyError:
            raise KeyError(f"unknown module {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._modules

    def __iter__(self) -> Iterable[Module]:
        return iter(self._modules.values())

    def names(self) -> List[str]:
        return sorted(self._modules)
