"""Static validation of kernel programs.

Runs between macro expansion and circuit translation.  Checks:

* every signal referenced by an expression, ``emit`` or ``async`` is in
  scope;
* ``emit`` does not target a pure ``in`` signal (inputs are set by the
  environment only; ``inout`` is the two-way form);
* every ``break L`` is enclosed by a trap labelled ``L``;
* no ``loop`` body can terminate in the instant it starts (instantaneous
  loops diverge; Esterel and HipHop reject them statically).

The instantaneous-termination analysis computes, per statement, the set of
completion behaviours reachable in the statement's first instant: the
token ``0`` for normal termination plus the labels of escaping traps.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Set

from repro.errors import InstantaneousLoopError, ValidationError
from repro.lang import ast as A
from repro.lang import expr as E
from repro.lang.signals import IN, SignalDecl

#: instantaneous-completion token for normal termination
TERMINATE = 0


def instant_codes(stmt: A.Stmt) -> FrozenSet:
    """Completion behaviours possibly reachable in the starting instant.

    Returns a set containing ``0`` if the statement may terminate
    instantly, and each trap label it may instantly escape through.
    """
    if isinstance(stmt, (A.Nothing, A.Emit, A.Atom)):
        return frozenset({TERMINATE})
    if isinstance(stmt, (A.Pause, A.Exec)):
        return frozenset()
    if isinstance(stmt, A.Break):
        return frozenset({stmt.label})
    if isinstance(stmt, A.Seq):
        codes: Set = set()
        for item in stmt.items:
            item_codes = instant_codes(item)
            codes |= set(item_codes) - {TERMINATE}
            if TERMINATE not in item_codes:
                return frozenset(codes)
        return frozenset(codes | {TERMINATE})
    if isinstance(stmt, A.Par):
        codes = set()
        all_terminate = True
        for branch in stmt.branches:
            branch_codes = instant_codes(branch)
            codes |= set(branch_codes) - {TERMINATE}
            if TERMINATE not in branch_codes:
                all_terminate = False
        if all_terminate and stmt.branches:
            codes.add(TERMINATE)
        return frozenset(codes)
    if isinstance(stmt, A.Loop):
        return frozenset(instant_codes(stmt.body) - {TERMINATE})
    if isinstance(stmt, A.If):
        return instant_codes(stmt.then) | instant_codes(stmt.orelse)
    if isinstance(stmt, A.Suspend):
        return instant_codes(stmt.body)
    if isinstance(stmt, A.Abort):
        codes = set(instant_codes(stmt.body))
        if stmt.delay.immediate:
            codes.add(TERMINATE)
        return frozenset(codes)
    if isinstance(stmt, A.Trap):
        codes = set(instant_codes(stmt.body))
        if TERMINATE in codes or stmt.label in codes:
            codes.discard(stmt.label)
            codes.add(TERMINATE)
        return frozenset(codes)
    if isinstance(stmt, A.Local):
        return instant_codes(stmt.body)
    # Surface statements (validation may be called pre-expansion in tests)
    if isinstance(stmt, (A.Halt, A.Sustain)):
        return frozenset()
    if isinstance(stmt, A.Await):
        return frozenset({TERMINATE}) if stmt.delay.immediate else frozenset()
    if isinstance(stmt, A.WeakAbort):
        codes = set(instant_codes(stmt.body))
        if stmt.delay.immediate:
            codes.add(TERMINATE)
        return frozenset(codes)
    if isinstance(stmt, (A.Every,)):
        return frozenset()
    if isinstance(stmt, A.DoEvery):
        return frozenset(instant_codes(stmt.body) - {TERMINATE})
    if isinstance(stmt, A.Instance):
        return instant_codes(stmt.body)
    if isinstance(stmt, A.Run):
        # Unexpanded run: be conservative (may terminate instantly).
        return frozenset({TERMINATE})
    raise ValidationError(f"cannot analyse {type(stmt).__name__}")


class _Scope:
    """Lexical signal scope chain."""

    def __init__(self, decls: Iterable[SignalDecl], parent: Optional["_Scope"] = None):
        self.decls = {d.name: d for d in decls}
        self.parent = parent

    def find(self, name: str) -> Optional[SignalDecl]:
        scope: Optional[_Scope] = self
        while scope is not None:
            decl = scope.decls.get(name)
            if decl is not None:
                return decl
            scope = scope.parent
        return None


class Validator:
    """Single-pass validator; collects all problems before raising."""

    def __init__(self) -> None:
        self.errors: List[str] = []

    def error(self, message: str, loc=None) -> None:
        if loc is not None:
            message = f"{loc}: {message}"
        self.errors.append(message)

    # ------------------------------------------------------------------

    def validate_module(self, module: A.Module, body: Optional[A.Stmt] = None) -> None:
        """Validate ``module`` (or an already-expanded ``body`` for it)."""
        scope = _Scope(module.interface)
        stmt = body if body is not None else module.body
        self._check(stmt, scope, traps=())
        if self.errors:
            raise ValidationError(
                f"module {module.name}: " + "; ".join(self.errors)
            )

    def validate_statement(self, stmt: A.Stmt, decls: Iterable[SignalDecl]) -> None:
        self._check(stmt, _Scope(decls), traps=())
        if self.errors:
            raise ValidationError("; ".join(self.errors))

    # ------------------------------------------------------------------

    def _check_expr(self, expr: E.Expr, scope: _Scope, loc) -> None:
        for name, _kind in expr.signal_deps():
            if scope.find(name) is None:
                self.error(f"unknown signal {name!r}", loc)

    def _check_emit_target(self, name: str, scope: _Scope, loc) -> None:
        decl = scope.find(name)
        if decl is None:
            self.error(f"emit of unknown signal {name!r}", loc)
        elif decl.direction == IN:
            self.error(
                f"cannot emit input signal {name!r} from the program "
                "(declare it inout if both sides set it)",
                loc,
            )

    def _check(self, stmt: A.Stmt, scope: _Scope, traps: tuple) -> None:
        loc = stmt.loc
        if isinstance(stmt, (A.Nothing, A.Pause, A.Halt)):
            return
        if isinstance(stmt, (A.Emit, A.Sustain)):
            self._check_emit_target(stmt.signal, scope, loc)
            if stmt.value is not None:
                self._check_expr(stmt.value, scope, loc)
            return
        if isinstance(stmt, A.Atom):
            for host in stmt.body:
                for expr in host.exprs():
                    self._check_expr(expr, scope, loc)
            return
        if isinstance(stmt, A.Seq):
            for item in stmt.items:
                self._check(item, scope, traps)
            return
        if isinstance(stmt, A.Par):
            for branch in stmt.branches:
                self._check(branch, scope, traps)
            return
        if isinstance(stmt, A.Loop):
            if TERMINATE in instant_codes(stmt.body):
                raise InstantaneousLoopError(
                    f"{loc or ''} loop body may terminate instantly; "
                    "insert a pause or an await"
                )
            self._check(stmt.body, scope, traps)
            return
        if isinstance(stmt, A.If):
            self._check_expr(stmt.test, scope, loc)
            self._check(stmt.then, scope, traps)
            self._check(stmt.orelse, scope, traps)
            return
        if isinstance(stmt, (A.Suspend, A.Abort, A.WeakAbort)):
            self._check_expr(stmt.delay.expr, scope, loc)
            if stmt.delay.count is not None:
                self._check_expr(stmt.delay.count, scope, loc)
            self._check(stmt.body, scope, traps)
            return
        if isinstance(stmt, A.Await):
            self._check_expr(stmt.delay.expr, scope, loc)
            if stmt.delay.count is not None:
                self._check_expr(stmt.delay.count, scope, loc)
            return
        if isinstance(stmt, (A.Every, A.DoEvery)):
            self._check_expr(stmt.delay.expr, scope, loc)
            if stmt.delay.count is not None:
                self._check_expr(stmt.delay.count, scope, loc)
            self._check(stmt.body, scope, traps)
            return
        if isinstance(stmt, A.Trap):
            self._check(stmt.body, scope, traps + (stmt.label,))
            return
        if isinstance(stmt, A.Break):
            if stmt.label not in traps:
                self.error(f"break to unknown label {stmt.label!r}", loc)
            return
        if isinstance(stmt, A.Local):
            for decl in stmt.decls:
                if decl.init is not None:
                    self._check_expr(decl.init, scope, loc)
            self._check(stmt.body, _Scope(stmt.decls, scope), traps)
            return
        if isinstance(stmt, A.Exec):
            if stmt.signal is not None:
                self._check_emit_target(stmt.signal, scope, loc)
            for expr in stmt.exprs():
                # `this` is bound inside async bodies; signals still checked
                self._check_expr(expr, scope, loc)
            return
        if isinstance(stmt, A.Instance):
            self._check(stmt.body, scope, traps)
            return
        if isinstance(stmt, A.Run):
            self.error(
                "run statement survived expansion (validate after expansion)", loc
            )
            return
        self.error(f"unknown statement {type(stmt).__name__}", loc)


def validate_module(module: A.Module, body: Optional[A.Stmt] = None) -> None:
    Validator().validate_module(module, body)


def validate_statement(stmt: A.Stmt, decls: Iterable[SignalDecl]) -> None:
    Validator().validate_statement(stmt, decls)
