"""Generic AST transformations: host-variable renaming.

When a module with ``var`` parameters is instantiated twice
(``run Button(d=TryDelay, ...)`` twice in the pillbox), each instance needs
its own frame slot for ``d``.  The expander alpha-renames the module's
declared variables to fresh frame names; this module implements the
underlying expression/statement renaming.
"""

from __future__ import annotations

from typing import Dict

from repro.lang import ast as A
from repro.lang import expr as E


def rename_vars_expr(node: E.Expr, mapping: Dict[str, str]) -> E.Expr:
    """Return ``node`` with free :class:`~repro.lang.expr.Var` occurrences
    renamed per ``mapping``.  Lambda parameters shadow outer names."""
    if isinstance(node, E.Var):
        new = mapping.get(node.name)
        return node if new is None else E.Var(new, node.loc)
    if isinstance(node, (E.Lit, E.SigRef, E.HostCall)):
        return node
    if isinstance(node, E.BinOp):
        return E.BinOp(
            node.op,
            rename_vars_expr(node.left, mapping),
            rename_vars_expr(node.right, mapping),
            node.loc,
        )
    if isinstance(node, E.UnOp):
        return E.UnOp(node.op, rename_vars_expr(node.operand, mapping), node.loc)
    if isinstance(node, E.Cond):
        return E.Cond(
            rename_vars_expr(node.test, mapping),
            rename_vars_expr(node.then, mapping),
            rename_vars_expr(node.orelse, mapping),
            node.loc,
        )
    if isinstance(node, E.Attr):
        return E.Attr(rename_vars_expr(node.obj, mapping), node.name, node.loc)
    if isinstance(node, E.Index):
        return E.Index(
            rename_vars_expr(node.obj, mapping), rename_vars_expr(node.key, mapping), node.loc
        )
    if isinstance(node, E.Call):
        return E.Call(
            rename_vars_expr(node.fn, mapping),
            [rename_vars_expr(a, mapping) for a in node.args],
            node.loc,
        )
    if isinstance(node, E.ArrayLit):
        return E.ArrayLit([rename_vars_expr(i, mapping) for i in node.items], node.loc)
    if isinstance(node, E.ObjectLit):
        return E.ObjectLit(
            [
                (rename_vars_expr(k, mapping) if isinstance(k, E.Expr) else k,
                 rename_vars_expr(v, mapping))
                for k, v in node.fields
            ],
            node.loc,
        )
    if isinstance(node, E.Lambda):
        inner = {k: v for k, v in mapping.items() if k not in node.params}
        return E.Lambda(node.params, rename_vars_expr(node.body, inner), node.loc)
    if isinstance(node, E.IncDec):
        return E.IncDec(node.op, rename_vars_expr(node.target, mapping), node.loc)
    if isinstance(node, E.AssignExpr):
        return E.AssignExpr(
            rename_vars_expr(node.target, mapping),
            rename_vars_expr(node.value, mapping),
            node.loc,
        )
    raise TypeError(f"unknown expression node {type(node).__name__}")


def rename_vars_host(stmt: A.HostStmt, mapping: Dict[str, str]) -> A.HostStmt:
    if isinstance(stmt, A.Assign):
        return A.Assign(
            mapping.get(stmt.name, stmt.name), rename_vars_expr(stmt.value, mapping), stmt.loc
        )
    if isinstance(stmt, A.TargetAssign):
        return A.TargetAssign(
            rename_vars_expr(stmt.target, mapping),
            rename_vars_expr(stmt.value, mapping),
            stmt.loc,
        )
    if isinstance(stmt, A.ExprStmt):
        return A.ExprStmt(rename_vars_expr(stmt.value, mapping), stmt.loc)
    raise TypeError(f"unknown host statement {type(stmt).__name__}")


def _rename_action(action, mapping: Dict[str, str]):
    if isinstance(action, list):
        return [rename_vars_host(s, mapping) for s in action]
    return action


def rename_vars_stmt(stmt: A.Stmt, mapping: Dict[str, str]) -> A.Stmt:
    """Rename free host variables in a statement tree."""
    if not mapping:
        return stmt
    rs = lambda s: rename_vars_stmt(s, mapping)  # noqa: E731
    re_ = lambda e: rename_vars_expr(e, mapping)  # noqa: E731

    def rd(delay: A.Delay) -> A.Delay:
        return A.Delay(
            re_(delay.expr),
            delay.immediate,
            None if delay.count is None else re_(delay.count),
            delay.loc,
        )

    if isinstance(stmt, (A.Nothing, A.Pause, A.Halt, A.Break)):
        return stmt
    if isinstance(stmt, A.Emit):
        return A.Emit(stmt.signal, None if stmt.value is None else re_(stmt.value), stmt.loc)
    if isinstance(stmt, A.Sustain):
        return A.Sustain(stmt.signal, None if stmt.value is None else re_(stmt.value), stmt.loc)
    if isinstance(stmt, A.Atom):
        return A.Atom([rename_vars_host(s, mapping) for s in stmt.body], stmt.loc)
    if isinstance(stmt, A.Seq):
        return A.Seq([rs(s) for s in stmt.items], stmt.loc)
    if isinstance(stmt, A.Par):
        return A.Par([rs(s) for s in stmt.branches], stmt.loc)
    if isinstance(stmt, A.Loop):
        return A.Loop(rs(stmt.body), stmt.loc)
    if isinstance(stmt, A.If):
        return A.If(re_(stmt.test), rs(stmt.then), rs(stmt.orelse), stmt.loc)
    if isinstance(stmt, A.Suspend):
        return A.Suspend(rd(stmt.delay), rs(stmt.body), stmt.loc)
    if isinstance(stmt, A.Abort):
        return A.Abort(rd(stmt.delay), rs(stmt.body), stmt.loc)
    if isinstance(stmt, A.WeakAbort):
        return A.WeakAbort(rd(stmt.delay), rs(stmt.body), stmt.loc)
    if isinstance(stmt, A.Await):
        return A.Await(rd(stmt.delay), stmt.loc)
    if isinstance(stmt, A.Every):
        return A.Every(rd(stmt.delay), rs(stmt.body), stmt.loc)
    if isinstance(stmt, A.DoEvery):
        return A.DoEvery(rs(stmt.body), rd(stmt.delay), stmt.loc)
    if isinstance(stmt, A.Trap):
        return A.Trap(stmt.label, rs(stmt.body), stmt.loc)
    if isinstance(stmt, A.Local):
        from repro.lang.signals import SignalDecl

        decls = [
            SignalDecl(d.name, d.direction, None if d.init is None else re_(d.init), d.combine, d.loc)
            for d in stmt.decls
        ]
        return A.Local(decls, rs(stmt.body), stmt.loc)
    if isinstance(stmt, A.Run):
        return A.Run(
            stmt.module,
            stmt.bindings,
            {k: re_(v) for k, v in stmt.var_args.items()},
            stmt.loc,
        )
    if isinstance(stmt, A.Exec):
        return A.Exec(
            _rename_action(stmt.start, mapping),
            stmt.signal,
            _rename_action(stmt.kill, mapping),
            _rename_action(stmt.on_suspend, mapping),
            _rename_action(stmt.on_resume, mapping),
            stmt.name,
            stmt.loc,
            uid=stmt.uid,
        )
    raise TypeError(f"unknown statement {type(stmt).__name__}")
