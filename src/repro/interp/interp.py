"""A direct constructive interpreter for the *pure* kernel language.

This is a second, independent implementation of the semantics (the
reference one being the circuit translation + ternary simulation).  It
follows Berry's constructive behavioral semantics:

1. **Must/Can resolution** — iterate: everything the program *must* do
   under current knowledge makes signals present; signals that *cannot*
   be emitted under current knowledge become absent; repeat to fixpoint.
   Signals still unknown at the fixpoint are a causality error.
2. **Execution** — with all statuses decided, a deterministic pass runs
   the reaction: computes the completion code and the set of ``pause``
   points selected for the next instant.

Supported subset: the pure kernel — ``nothing``, ``pause``, pure ``emit``,
``seq``, ``par``, ``loop``, ``if``/``present`` over boolean signal
expressions, delayed/immediate ``abort``, ``suspend``, ``trap``/``break``,
and ``local`` signals *outside loops* (the circuit backend handles loop
reincarnation by body duplication; this interpreter deliberately excludes
that case rather than duplicating the trick — a genuinely independent
oracle must not share the workaround).  Valued signals, counters, host
expressions and ``async`` are out of scope and raise
:class:`UnsupportedProgram`.

The property-based differential tests
(``tests/test_equivalence.py``) generate random pure programs and check
reaction-per-reaction output equality between this interpreter and the
compiled circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.errors import CausalityError, HipHopError
from repro.lang import ast as A
from repro.lang import expr as E
from repro.compiler.expand import expand_statement

# three-valued logic
TRUE = 1
FALSE = 0
BOT = None  # unknown


class UnsupportedProgram(HipHopError):
    """The program uses features outside the interpreter's pure subset."""


def _and3(a, b):
    # Strict (not Kleene-lazy) connectives: guards are host data
    # expressions, which the circuit backend treats as atomic black boxes
    # that wait for *every* signal they read to be resolved (the paper's
    # microscheduling).  `False && ⊥` must therefore stay ⊥, not short-
    # circuit to False, or the oracle diverges from the reference backend.
    if a is BOT or b is BOT:
        return BOT
    return TRUE if (a is TRUE and b is TRUE) else FALSE


def _or3(a, b):
    if a is BOT or b is BOT:
        return BOT
    return TRUE if (a is TRUE or b is TRUE) else FALSE


def _not3(a):
    if a is BOT:
        return BOT
    return TRUE if a is FALSE else FALSE


@dataclass
class _Result:
    """Outcome of a Must or Can analysis of one statement.

    ``codes`` — possible completion codes this instant (empty when the
    statement does not complete: not executing, blocked, or halted).
    ``emits`` — signal uids (must-/can-) emitted.
    """

    codes: FrozenSet[int] = frozenset()
    emits: FrozenSet[int] = frozenset()


_NOTHING_RESULT = _Result()


def _cartesian(code_sets: List[FrozenSet[int]]):
    """All tuples choosing one code per branch."""
    import itertools

    return itertools.product(*code_sets)


def _clone(stmt: A.Stmt) -> A.Stmt:
    """Rebuild the kernel tree with fresh node objects at every position,
    without instance markers."""
    if isinstance(stmt, A.Nothing):
        return A.Nothing(stmt.loc)
    if isinstance(stmt, A.Pause):
        return A.Pause(stmt.loc)
    if isinstance(stmt, A.Emit):
        return A.Emit(stmt.signal, stmt.value, stmt.loc)
    if isinstance(stmt, A.Break):
        return A.Break(stmt.label, stmt.loc)
    if isinstance(stmt, A.Seq):
        return A.Seq([_clone(s) for s in stmt.items], stmt.loc)
    if isinstance(stmt, A.Par):
        return A.Par([_clone(b) for b in stmt.branches], stmt.loc)
    if isinstance(stmt, A.Loop):
        return A.Loop(_clone(stmt.body), stmt.loc)
    if isinstance(stmt, A.If):
        return A.If(stmt.test, _clone(stmt.then), _clone(stmt.orelse), stmt.loc)
    if isinstance(stmt, A.Abort):
        return A.Abort(stmt.delay, _clone(stmt.body), stmt.loc)
    if isinstance(stmt, A.Suspend):
        return A.Suspend(stmt.delay, _clone(stmt.body), stmt.loc)
    if isinstance(stmt, A.Trap):
        return A.Trap(stmt.label, _clone(stmt.body), stmt.loc)
    if isinstance(stmt, A.Local):
        return A.Local(list(stmt.decls), _clone(stmt.body), stmt.loc)
    if isinstance(stmt, A.Instance):
        return _clone(stmt.body)  # the marker only matters to the compiler
    return stmt  # unsupported nodes are rejected later by _check


class _Scope:
    __slots__ = ("names", "parent")

    def __init__(self, names: Dict[str, int], parent: Optional["_Scope"]):
        self.names = names
        self.parent = parent

    def find(self, name: str) -> int:
        scope: Optional[_Scope] = self
        while scope is not None:
            uid = scope.names.get(name)
            if uid is not None:
                return uid
            scope = scope.parent
        raise UnsupportedProgram(f"unknown signal {name!r}")


class Interpreter:
    """Constructive interpreter for a module restricted to the pure kernel.

    Usage mirrors the reactive machine::

        interp = Interpreter(module)
        outputs = interp.react({"A", "B"})   # set of present inputs
        # outputs: set of present output signal names
    """

    def __init__(self, module: A.Module, modules: Optional[A.ModuleTable] = None):
        self.module = module
        # _clone forces a tree shape: DSL-built ASTs may share node objects
        # (a DAG), but the interpreter keys pause/local state by node
        # identity, so every position must be a distinct object
        self.body = _clone(expand_statement(module.body, modules))
        self._uids = 0
        self._signal_names: Dict[int, str] = {}
        self._root_scope_names: Dict[str, int] = {}
        self.inputs: Dict[str, int] = {}
        self.outputs: Dict[str, int] = {}
        for decl in module.interface:
            if decl.init is not None or decl.combine is not None:
                raise UnsupportedProgram("valued interface signals unsupported")
            uid = self._fresh(decl.name)
            self._root_scope_names[decl.name] = uid
            if decl.is_input:
                self.inputs[decl.name] = uid
            if decl.is_output:
                self.outputs[decl.name] = uid
        self._scope = _Scope(self._root_scope_names, None)
        self._check(self.body, in_loop=False)

        #: selected pause set (the control state between instants)
        self.sel: Set[int] = set()
        self._pause_ids: Dict[int, int] = {}  # id(node) -> uid
        self._subtree_pauses: Dict[int, FrozenSet[int]] = {}
        self._local_uids: Dict[int, Dict[str, int]] = {}  # id(node) -> name->uid
        self._index(self.body)
        self.booted = False
        self.terminated = False
        self._pre: Set[int] = set()

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------

    def _fresh(self, name: str) -> int:
        self._uids += 1
        self._signal_names[self._uids] = name
        return self._uids

    def _check(self, stmt: A.Stmt, in_loop: bool) -> None:
        if isinstance(stmt, (A.Nothing, A.Pause, A.Break)):
            return
        if isinstance(stmt, A.Emit):
            if stmt.value is not None:
                raise UnsupportedProgram("valued emit unsupported")
            return
        if isinstance(stmt, A.Seq):
            for item in stmt.items:
                self._check(item, in_loop)
            return
        if isinstance(stmt, A.Par):
            for branch in stmt.branches:
                self._check(branch, in_loop)
            return
        if isinstance(stmt, A.Loop):
            self._check(stmt.body, True)
            return
        if isinstance(stmt, A.If):
            self._check_expr(stmt.test)
            self._check(stmt.then, in_loop)
            self._check(stmt.orelse, in_loop)
            return
        if isinstance(stmt, (A.Abort, A.Suspend)):
            if stmt.delay.count is not None:
                raise UnsupportedProgram("counted delays unsupported")
            self._check_expr(stmt.delay.expr)
            self._check(stmt.body, in_loop)
            return
        if isinstance(stmt, A.Trap):
            self._check(stmt.body, in_loop)
            return
        if isinstance(stmt, A.Local):
            if in_loop:
                raise UnsupportedProgram(
                    "local signals inside loops (reincarnation) unsupported"
                )
            for decl in stmt.decls:
                if decl.init is not None:
                    raise UnsupportedProgram("initialized local unsupported")
            self._check(stmt.body, in_loop)
            return
        raise UnsupportedProgram(f"{type(stmt).__name__} unsupported")

    def _check_expr(self, expr: E.Expr) -> None:
        if isinstance(expr, E.SigRef):
            if expr.kind not in (E.NOW, E.PRE):
                raise UnsupportedProgram("value accesses unsupported")
            return
        if isinstance(expr, E.Lit):
            if not isinstance(expr.value, bool):
                raise UnsupportedProgram("non-boolean literal in guard")
            return
        if isinstance(expr, E.UnOp) and expr.op == "!":
            self._check_expr(expr.operand)
            return
        if isinstance(expr, E.BinOp) and expr.op in ("&&", "||"):
            self._check_expr(expr.left)
            self._check_expr(expr.right)
            return
        raise UnsupportedProgram(f"guard expression {expr!r} unsupported")

    def _index(self, stmt: A.Stmt) -> FrozenSet[int]:
        """Assign pause uids and collect per-subtree pause sets."""
        pauses: Set[int] = set()
        if isinstance(stmt, A.Pause):
            self._uids += 1
            self._pause_ids[id(stmt)] = self._uids
            pauses.add(self._uids)
        elif isinstance(stmt, A.Local):
            self._local_uids[id(stmt)] = {d.name: self._fresh(d.name) for d in stmt.decls}
            pauses |= self._index(stmt.body)
        else:
            for child in stmt.children():
                pauses |= self._index(child)
        self._subtree_pauses[id(stmt)] = frozenset(pauses)
        return frozenset(pauses)

    # ------------------------------------------------------------------
    # three-valued guard evaluation
    # ------------------------------------------------------------------

    def _eval3(self, expr: E.Expr, scope: _Scope, statuses: Dict[int, Optional[int]]):
        if isinstance(expr, E.SigRef):
            uid = scope.find(expr.signal)
            if expr.kind == E.PRE:
                return TRUE if uid in self._pre else FALSE
            return statuses[uid]
        if isinstance(expr, E.Lit):
            return TRUE if expr.value else FALSE
        if isinstance(expr, E.UnOp):
            return _not3(self._eval3(expr.operand, scope, statuses))
        if isinstance(expr, E.BinOp):
            left = self._eval3(expr.left, scope, statuses)
            right = self._eval3(expr.right, scope, statuses)
            return _and3(left, right) if expr.op == "&&" else _or3(left, right)
        raise UnsupportedProgram(f"guard {expr!r}")

    # ------------------------------------------------------------------
    # Must / Can analysis
    # ------------------------------------------------------------------

    def _analyse(
        self,
        stmt: A.Stmt,
        go: bool,
        res: bool,
        scope: _Scope,
        statuses: Dict[int, Optional[int]],
        must: bool,
    ) -> _Result:
        """Shared Must (``must=True``) / Can (``must=False``) analysis."""
        if not go and not res:
            return _NOTHING_RESULT

        if isinstance(stmt, A.Nothing):
            return _Result(frozenset({0}) if go else frozenset())

        if isinstance(stmt, A.Pause):
            codes: Set[int] = set()
            if go:
                codes.add(1)
            if res and self._pause_ids[id(stmt)] in self.sel:
                codes.add(0)
            return _Result(frozenset(codes))

        if isinstance(stmt, A.Emit):
            if not go:
                return _NOTHING_RESULT
            uid = scope.find(stmt.signal)
            return _Result(frozenset({0}), frozenset({uid}))

        if isinstance(stmt, A.Break):
            return _Result(frozenset({self._trap_code(stmt)}) if go else frozenset())

        if isinstance(stmt, A.Seq):
            codes: Set[int] = set()
            emits: Set[int] = set()
            run_go = go
            for item in stmt.items:
                result = self._analyse(item, run_go, res, scope, statuses, must)
                emits |= result.emits
                codes |= {c for c in result.codes if c != 0}
                run_go = 0 in result.codes
            if run_go:
                codes.add(0)
            return _Result(frozenset(codes), frozenset(emits))

        if isinstance(stmt, A.Par):
            emits = set()
            branch_codes: List[FrozenSet[int]] = []
            for branch in stmt.branches:
                executing = go or (res and self._selected(branch))
                result = self._analyse(branch, go, res, scope, statuses, must)
                emits |= result.emits
                if executing:
                    branch_codes.append(result.codes)
            if not branch_codes:
                return _Result(frozenset(), frozenset(emits))
            # In both analyses, a child with no possible completion code
            # (blocked in Must; provably non-completing in Can) prevents
            # the parallel from completing this instant.
            if any(not codes for codes in branch_codes):
                return _Result(frozenset(), frozenset(emits))
            combos = {max(choice) for choice in _cartesian(branch_codes)}
            return _Result(frozenset(combos), frozenset(emits))

        if isinstance(stmt, A.Loop):
            first = self._analyse(stmt.body, go or False, res, scope, statuses, must)
            emits = set(first.emits)
            codes = {c for c in first.codes if c != 0}
            if 0 in first.codes:
                second = self._analyse(stmt.body, True, False, scope, statuses, must)
                emits |= second.emits
                codes |= {c for c in second.codes if c != 0}
                if 0 in second.codes:
                    raise CausalityError("instantaneous loop at run time")
            return _Result(frozenset(codes), frozenset(emits))

        if isinstance(stmt, A.If):
            if not go:
                # only propagate to selected branches
                then = self._analyse(stmt.then, False, res, scope, statuses, must)
                orelse = self._analyse(stmt.orelse, False, res, scope, statuses, must)
                return _Result(then.codes | orelse.codes, then.emits | orelse.emits)
            value = self._eval3(stmt.test, scope, statuses)
            resumed_then = self._analyse(stmt.then, False, res, scope, statuses, must)
            resumed_else = self._analyse(stmt.orelse, False, res, scope, statuses, must)
            base = _Result(
                resumed_then.codes | resumed_else.codes,
                resumed_then.emits | resumed_else.emits,
            )
            if value is TRUE:
                taken = self._analyse(stmt.then, True, res, scope, statuses, must)
                return _Result(base.codes | taken.codes, base.emits | taken.emits)
            if value is FALSE:
                taken = self._analyse(stmt.orelse, True, res, scope, statuses, must)
                return _Result(base.codes | taken.codes, base.emits | taken.emits)
            if must:
                return _Result(frozenset(), base.emits)  # blocked on unknown test
            then = self._analyse(stmt.then, True, res, scope, statuses, must)
            orelse = self._analyse(stmt.orelse, True, res, scope, statuses, must)
            return _Result(
                base.codes | then.codes | orelse.codes,
                base.emits | then.emits | orelse.emits,
            )

        if isinstance(stmt, A.Abort):
            selected = self._selected(stmt.body)
            guard = BOT
            if res and selected:
                guard = self._eval3(stmt.delay.expr, scope, statuses)
            go_guard = None
            if go and stmt.delay.immediate:
                go_guard = self._eval3(stmt.delay.expr, scope, statuses)
            codes: Set[int] = set()
            emits: Set[int] = set()
            blocked = False
            # start path
            if go:
                if stmt.delay.immediate:
                    if go_guard is TRUE:
                        codes.add(0)
                    elif go_guard is BOT:
                        if must:
                            blocked = True
                        else:
                            codes.add(0)
                            result = self._analyse(stmt.body, True, False, scope, statuses, False)
                            codes |= result.codes
                            emits |= result.emits
                    if go_guard is FALSE:
                        result = self._analyse(stmt.body, True, False, scope, statuses, must)
                        codes |= result.codes
                        emits |= result.emits
                else:
                    result = self._analyse(stmt.body, True, False, scope, statuses, must)
                    codes |= result.codes
                    emits |= result.emits
            # resume path
            if res and selected:
                if guard is TRUE:
                    codes.add(0)
                elif guard is FALSE:
                    result = self._analyse(stmt.body, False, True, scope, statuses, must)
                    codes |= result.codes
                    emits |= result.emits
                else:  # unknown guard
                    if must:
                        blocked = True
                    else:
                        codes.add(0)
                        result = self._analyse(stmt.body, False, True, scope, statuses, False)
                        codes |= result.codes
                        emits |= result.emits
            if blocked:
                return _Result(frozenset(), frozenset(emits))
            return _Result(frozenset(codes), frozenset(emits))

        if isinstance(stmt, A.Suspend):
            selected = self._selected(stmt.body)
            codes = set()
            emits = set()
            blocked = False
            if go:
                result = self._analyse(stmt.body, True, False, scope, statuses, must)
                codes |= result.codes
                emits |= result.emits
            if res and selected:
                guard = self._eval3(stmt.delay.expr, scope, statuses)
                if guard is TRUE:
                    codes.add(1)
                elif guard is FALSE:
                    result = self._analyse(stmt.body, False, True, scope, statuses, must)
                    codes |= result.codes
                    emits |= result.emits
                else:
                    if must:
                        blocked = True
                    else:
                        codes.add(1)
                        result = self._analyse(stmt.body, False, True, scope, statuses, False)
                        codes |= result.codes
                        emits |= result.emits
            if blocked:
                return _Result(frozenset(), frozenset(emits))
            return _Result(frozenset(codes), frozenset(emits))

        if isinstance(stmt, A.Trap):
            self._trap_stack.append(stmt.label)
            try:
                result = self._analyse(stmt.body, go, res, scope, statuses, must)
            finally:
                self._trap_stack.pop()
            codes = set()
            for code in result.codes:
                if code == 2:
                    codes.add(0)
                elif code > 2:
                    codes.add(code - 1)
                else:
                    codes.add(code)
            return _Result(frozenset(codes), result.emits)

        if isinstance(stmt, A.Local):
            names = self._local_uids[id(stmt)]
            inner = _Scope(names, scope)
            return self._analyse(stmt.body, go, res, inner, statuses, must)

        raise UnsupportedProgram(type(stmt).__name__)

    def _selected(self, stmt: A.Stmt) -> bool:
        return bool(self._subtree_pauses[id(stmt)] & self.sel)

    _trap_stack: List[str] = []

    def _trap_code(self, stmt: A.Break) -> int:
        stack = self._trap_stack
        try:
            index = len(stack) - 1 - stack[::-1].index(stmt.label)
        except ValueError:
            raise UnsupportedProgram(f"unbound break {stmt.label!r}") from None
        return 2 + (len(stack) - 1 - index)

    # ------------------------------------------------------------------
    # execution (statuses fully known)
    # ------------------------------------------------------------------

    def _execute(
        self,
        stmt: A.Stmt,
        go: bool,
        res: bool,
        scope: _Scope,
        statuses: Dict[int, Optional[int]],
        new_sel: Set[int],
    ) -> Optional[int]:
        """Run the reaction; returns the completion code (None = does not
        complete this instant) and accumulates next-instant selections."""
        if not go and not res:
            return None

        if isinstance(stmt, A.Nothing):
            return 0 if go else None

        if isinstance(stmt, A.Pause):
            uid = self._pause_ids[id(stmt)]
            if res and uid in self.sel:
                return 0
            if go:
                new_sel.add(uid)
                return 1
            return None

        if isinstance(stmt, A.Emit):
            return 0 if go else None

        if isinstance(stmt, A.Break):
            return self._trap_code(stmt) if go else None

        if isinstance(stmt, A.Seq):
            run_go = go
            out: Optional[int] = None
            for item in stmt.items:
                code = self._execute(item, run_go, res, scope, statuses, new_sel)
                if code is not None and code != 0:
                    out = code if out is None else max(out, code)
                run_go = code == 0
            if out is not None:
                return out
            return 0 if run_go else None

        if isinstance(stmt, A.Par):
            codes: List[int] = []
            incomplete = False
            for branch in stmt.branches:
                executing = go or (res and self._selected(branch))
                code = self._execute(branch, go, res, scope, statuses, new_sel)
                if executing:
                    if code is None:
                        incomplete = True
                    else:
                        codes.append(code)
            if incomplete or not codes:
                return None
            return max(codes)

        if isinstance(stmt, A.Loop):
            code = self._execute(stmt.body, go, res, scope, statuses, new_sel)
            if code == 0:
                code = self._execute(stmt.body, True, False, scope, statuses, new_sel)
                if code == 0:
                    raise CausalityError("instantaneous loop at run time")
            return code

        if isinstance(stmt, A.If):
            taken = None
            if go:
                taken = stmt.then if self._eval3(stmt.test, scope, statuses) is TRUE else stmt.orelse
            then_code = self._execute(
                stmt.then, go and taken is stmt.then, res, scope, statuses, new_sel
            )
            else_code = self._execute(
                stmt.orelse, go and taken is stmt.orelse, res, scope, statuses, new_sel
            )
            if then_code is None:
                return else_code
            if else_code is None:
                return then_code
            return max(then_code, else_code)

        if isinstance(stmt, A.Abort):
            selected = self._selected(stmt.body)
            if res and selected:
                guard = self._eval3(stmt.delay.expr, scope, statuses)
                if guard is TRUE:
                    # strong preemption: the body does not run; its state decays
                    return 0
                code = self._execute(stmt.body, False, True, scope, statuses, new_sel)
                if code is not None:
                    return code
            if go:
                if stmt.delay.immediate and self._eval3(stmt.delay.expr, scope, statuses) is TRUE:
                    return 0
                return self._execute(stmt.body, True, False, scope, statuses, new_sel)
            return None

        if isinstance(stmt, A.Suspend):
            selected = self._selected(stmt.body)
            if res and selected:
                guard = self._eval3(stmt.delay.expr, scope, statuses)
                if guard is TRUE:
                    # frozen: keep the selection alive
                    new_sel.update(self._subtree_pauses[id(stmt.body)] & self.sel)
                    return 1
                code = self._execute(stmt.body, False, True, scope, statuses, new_sel)
                if code is not None:
                    return code
            if go:
                return self._execute(stmt.body, True, False, scope, statuses, new_sel)
            return None

        if isinstance(stmt, A.Trap):
            self._trap_stack.append(stmt.label)
            try:
                code = self._execute(stmt.body, go, res, scope, statuses, new_sel)
            finally:
                self._trap_stack.pop()
            if code is None:
                return None
            if code == 2:
                # the exit kills the whole body: discard its new selections
                new_sel.difference_update(self._subtree_pauses[id(stmt.body)])
                return 0
            if code > 2:
                return code - 1
            return code

        if isinstance(stmt, A.Local):
            names = self._local_uids[id(stmt)]
            return self._execute(stmt.body, go, res, _Scope(names, scope), statuses, new_sel)

        raise UnsupportedProgram(type(stmt).__name__)

    # ------------------------------------------------------------------
    # reactions
    # ------------------------------------------------------------------

    def react(self, present_inputs: Iterable[str] = ()) -> Set[str]:
        """One reaction; returns the set of present output names."""
        go = not self.booted
        res = self.booted
        self.booted = True

        statuses: Dict[int, Optional[int]] = {uid: BOT for uid in self._signal_names}
        present = set(present_inputs)
        unknown_inputs = present - set(self.inputs)
        if unknown_inputs:
            raise UnsupportedProgram(f"unknown inputs {sorted(unknown_inputs)}")
        for name, uid in self.inputs.items():
            # pure inputs are decided by the environment; inout signals can
            # additionally be emitted, so an absent inout stays unknown
            if name in present:
                statuses[uid] = TRUE
            elif self.module.signal(name).direction == "in":
                statuses[uid] = FALSE

        # constructive fixpoint
        while True:
            changed = False
            self._trap_stack = []
            must = self._analyse(self.body, go, res, self._scope, statuses, True)
            for uid in must.emits:
                if statuses[uid] is not TRUE:
                    statuses[uid] = TRUE
                    changed = True
            self._trap_stack = []
            can = self._analyse(self.body, go, res, self._scope, statuses, False)
            for uid, value in statuses.items():
                if value is BOT and uid not in can.emits and uid in self._maybe_program_signals():
                    statuses[uid] = FALSE
                    changed = True
            if not changed:
                break

        unresolved = [
            self._signal_names[uid]
            for uid, value in statuses.items()
            if value is BOT and uid in self._maybe_program_signals()
        ]
        if unresolved:
            raise CausalityError(
                "interpreter: causality error", unresolved
            )

        new_sel: Set[int] = set()
        self._trap_stack = []
        code = self._execute(self.body, go, res, self._scope, statuses, new_sel)
        self.sel = new_sel
        if code == 0:
            self.terminated = True

        self._pre = {uid for uid, value in statuses.items() if value is TRUE}
        return {
            name for name, uid in self.outputs.items() if statuses[uid] is TRUE
        }

    def _maybe_program_signals(self) -> Set[int]:
        """uids resolved by the program (locals + outputs + inouts)."""
        resolved = set(self._signal_names)
        for name, uid in self.inputs.items():
            if self.module.signal(name).direction == "in":
                resolved.discard(uid)
        return resolved
