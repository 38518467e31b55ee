"""Macro expansion and ``run`` inlining (lowering to the kernel language).

Surface constructs are rewritten into the kernel subset understood by the
circuit translator:

* ``halt``                 → ``loop { pause }``
* ``sustain S(e)``         → ``loop { emit S(e); pause }``
* ``await d``              → ``abort (d) { halt }``
* ``every (d) { p }``      → ``await d; loop { abort (d') { p; halt } }``
* ``do { p } every (d)``   → ``loop { abort (d') { p; halt } }``
* ``weakabort (d) { p }``  → ``trap T { {p; break T} par {await d; break T} }``
* ``run M(...)``           → M's body with signal renaming and
                             alpha-renamed ``var`` parameters, wrapped in
                             an ``Instance`` marker for its state segment

where ``d'`` is ``d`` stripped of its ``immediate`` flag (restarts test
their guard only at instants strictly after the restart, paper section 3).

Counted delays stay attached to the kernel ``abort``/``suspend``; the
translator implements them with counter cells.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.errors import ExpansionError, LinkError
from repro.lang import ast as A
from repro.lang import expr as E
from repro.lang.transform import rename_vars_stmt


def _delayed(delay: A.Delay) -> A.Delay:
    """The delay used by restarted iterations: never immediate."""
    if not delay.immediate:
        return delay
    return A.Delay(delay.expr, False, delay.count, delay.loc)


def _spliced(item: A.Stmt) -> A.Stmt:
    """A sequence item.  An instance whose body, under any nested
    instance markers, is itself a sequence comes back marked
    ``spliced``: the translator takes the body's items as items of this
    sequence, as if the body were flattened into it like any nested
    sequence, so the marker adds no gate."""
    if not isinstance(item, A.Instance) or item.spliced:
        return item
    body = item.body
    while isinstance(body, A.Instance):
        body = body.body
    if not isinstance(body, A.Seq):
        return item
    return A.Instance(item.module, item.body, item.loc, spliced=True)


class Expander:
    """Stateful expander: resolves ``run`` against a module table and
    guards against recursive instantiation.

    The fresh-name counters are *per instance* so that two compiles of
    the same program produce byte-identical expansions (and therefore
    byte-identical plan artifacts); they were once module globals, which
    made label/frame names depend on process history.
    """

    def __init__(self, modules: Optional[A.ModuleTable] = None):
        self.modules = modules if modules is not None else A.ModuleTable()
        self._run_stack: List[str] = []
        #: (frame_name, init Expr|None) pairs for alpha-renamed module vars
        self.frame_vars: List[Tuple[str, Optional[E.Expr]]] = []
        self._labels = itertools.count()
        self._frames = itertools.count()

    def _fresh_label(self, prefix: str) -> str:
        return f"${prefix}{next(self._labels)}"

    # ------------------------------------------------------------------

    def expand_module(self, module: A.Module) -> A.Stmt:
        """Expand a module body to kernel form.  Top-level ``var``
        parameters keep their declared names (they are machine-level
        bindings the host can provide at machine construction)."""
        for var in module.variables:
            self.frame_vars.append((var.name, var.init))
        return self.expand(module.body)

    def expand(self, stmt: A.Stmt) -> A.Stmt:
        method = getattr(self, f"_expand_{type(stmt).__name__.lower()}", None)
        if method is None:
            raise ExpansionError(f"cannot expand {type(stmt).__name__}")
        return method(stmt)

    # -- kernel statements: recurse only ---------------------------------

    def _expand_nothing(self, stmt: A.Nothing) -> A.Stmt:
        return stmt

    def _expand_pause(self, stmt: A.Pause) -> A.Stmt:
        return stmt

    def _expand_emit(self, stmt: A.Emit) -> A.Stmt:
        return stmt

    def _expand_atom(self, stmt: A.Atom) -> A.Stmt:
        return stmt

    def _expand_break(self, stmt: A.Break) -> A.Stmt:
        return stmt

    def _expand_exec(self, stmt: A.Exec) -> A.Stmt:
        return stmt

    def _expand_instance(self, stmt: A.Instance) -> A.Stmt:
        return A.Instance(
            stmt.module, self.expand(stmt.body), stmt.loc, stmt.spliced
        )

    def _expand_seq(self, stmt: A.Seq) -> A.Stmt:
        items = [self.expand(s) for s in stmt.items]
        flat: List[A.Stmt] = []
        for item in items:
            if isinstance(item, A.Seq):
                flat.extend(item.items)
            elif not isinstance(item, A.Nothing):
                flat.append(item)
        if not flat:
            return A.Nothing(stmt.loc)
        if len(flat) == 1:
            return flat[0]
        return A.Seq([_spliced(item) for item in flat], stmt.loc)

    def _expand_par(self, stmt: A.Par) -> A.Stmt:
        branches = [self.expand(b) for b in stmt.branches]
        if len(branches) == 1:
            return branches[0]
        return A.Par(branches, stmt.loc)

    def _expand_loop(self, stmt: A.Loop) -> A.Stmt:
        return A.Loop(self.expand(stmt.body), stmt.loc)

    def _expand_if(self, stmt: A.If) -> A.Stmt:
        return A.If(stmt.test, self.expand(stmt.then), self.expand(stmt.orelse), stmt.loc)

    def _expand_suspend(self, stmt: A.Suspend) -> A.Stmt:
        if stmt.delay.immediate:
            raise ExpansionError("suspend does not support the immediate modifier")
        return A.Suspend(stmt.delay, self.expand(stmt.body), stmt.loc)

    def _expand_abort(self, stmt: A.Abort) -> A.Stmt:
        return A.Abort(stmt.delay, self.expand(stmt.body), stmt.loc)

    def _expand_trap(self, stmt: A.Trap) -> A.Stmt:
        return A.Trap(stmt.label, self.expand(stmt.body), stmt.loc)

    def _expand_local(self, stmt: A.Local) -> A.Stmt:
        return A.Local(stmt.decls, self.expand(stmt.body), stmt.loc)

    # -- macros ------------------------------------------------------------

    def _expand_halt(self, stmt: A.Halt) -> A.Stmt:
        return A.Loop(A.Pause(stmt.loc), stmt.loc)

    def _expand_sustain(self, stmt: A.Sustain) -> A.Stmt:
        return A.Loop(
            A.Seq([A.Emit(stmt.signal, stmt.value, stmt.loc), A.Pause(stmt.loc)], stmt.loc),
            stmt.loc,
        )

    def _expand_await(self, stmt: A.Await) -> A.Stmt:
        return A.Abort(stmt.delay, self._expand_halt(A.Halt(stmt.loc)), stmt.loc)

    def _expand_weakabort(self, stmt: A.WeakAbort) -> A.Stmt:
        label = self._fresh_label("weakabort")
        body = self.expand(stmt.body)
        return A.Trap(
            label,
            A.Par(
                [
                    A.Seq([body, A.Break(label, stmt.loc)], stmt.loc),
                    A.Seq(
                        [
                            self._expand_await(A.Await(stmt.delay, stmt.loc)),
                            A.Break(label, stmt.loc),
                        ],
                        stmt.loc,
                    ),
                ],
                stmt.loc,
            ),
            stmt.loc,
        )

    def _loop_each(self, delay: A.Delay, body: A.Stmt, loc) -> A.Stmt:
        """``loop { abort (d') { body; halt } }``"""
        return A.Loop(
            A.Abort(
                _delayed(delay),
                A.Seq([body, self._expand_halt(A.Halt(loc))], loc),
                loc,
            ),
            loc,
        )

    def _expand_doevery(self, stmt: A.DoEvery) -> A.Stmt:
        return self._loop_each(stmt.delay, self.expand(stmt.body), stmt.loc)

    def _expand_every(self, stmt: A.Every) -> A.Stmt:
        body = self.expand(stmt.body)
        return A.Seq(
            [
                self._expand_await(A.Await(stmt.delay, stmt.loc)),
                self._loop_each(stmt.delay, body, stmt.loc),
            ],
            stmt.loc,
        )

    # -- run instantiation -----------------------------------------------------

    def _resolve_module(self, run: A.Run) -> A.Module:
        if isinstance(run.module, A.Module):
            return run.module
        try:
            return self.modules.get(run.module)
        except KeyError as exc:
            raise LinkError(str(exc)) from exc

    def _resolve_bindings(self, module: A.Module, run: A.Run) -> Dict[str, str]:
        """Interpret ``A as B`` pairs.

        The paper uses both orders (``sig as connected`` binds interface
        ``sig`` to environment ``connected``; ``tmo as time`` binds
        environment ``tmo`` to interface ``time``), so we resolve against
        the callee's interface: whichever of the two names is an interface
        signal is the interface side.
        """
        iface = {d.name for d in module.interface}
        result: Dict[str, str] = {}
        for first, second in run.bindings.items():
            if first in iface:
                result[first] = second
            elif second in iface:
                result[second] = first
            else:
                raise LinkError(
                    f"run {module.name}: neither {first!r} nor {second!r} "
                    f"is an interface signal of {module.name}"
                )
        return result

    def _expand_run(self, run: A.Run) -> A.Stmt:
        module = self._resolve_module(run)
        if module.name in self._run_stack:
            chain = " -> ".join(self._run_stack + [module.name])
            raise LinkError(f"recursive module instantiation: {chain}")

        bindings = self._resolve_bindings(module, run)
        # Unbound interface signals bind to the caller signal of the same
        # name (the `...` form); an explicit identity map keeps renaming
        # deterministic under further renamings.
        mapping = {d.name: bindings.get(d.name, d.name) for d in module.interface}

        # var parameters: alpha-rename to a fresh frame slot per instance.
        var_names = {v.name for v in module.variables}
        unknown = set(run.var_args) - var_names
        if unknown:
            raise LinkError(
                f"run {module.name}: unknown var parameter(s) {sorted(unknown)}"
            )

        instance = next(self._frames)
        var_map = {v.name: f"{v.name}@{module.name}#{instance}" for v in module.variables}

        body = module.body.rename_signals(mapping)
        body = rename_vars_stmt(body, var_map)

        assigns: List[A.HostStmt] = []
        for var in module.variables:
            frame_name = var_map[var.name]
            init = run.var_args.get(var.name, var.init)
            self.frame_vars.append((frame_name, None))
            if init is not None:
                assigns.append(A.Assign(frame_name, init, run.loc))

        self._run_stack.append(module.name)
        try:
            expanded = self.expand(body)
        finally:
            self._run_stack.pop()

        if assigns:
            expanded = A.Seq([A.Atom(assigns, run.loc), expanded], run.loc)
        return A.Instance(module.name, expanded, run.loc)


def expand_module(
    module: A.Module,
    modules: Optional[A.ModuleTable] = None,
) -> Tuple[A.Stmt, List[Tuple[str, Optional[E.Expr]]]]:
    """Expand ``module`` to kernel form.

    Returns the kernel body and the list of frame variables (name, init)
    accumulated from ``var`` declarations of the module and all inlined
    instances.
    """
    expander = Expander(modules)
    body = expander.expand_module(module)
    return body, expander.frame_vars


def expand_statement(stmt: A.Stmt, modules: Optional[A.ModuleTable] = None) -> A.Stmt:
    """Expand a bare statement (used by tests and the interpreter)."""
    return Expander(modules).expand(stmt)
