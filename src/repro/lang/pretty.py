"""Pretty printer: AST → concrete surface syntax.

``parse(pretty(ast))`` is structurally equal to ``ast`` for every program
the parser can produce (checked by property tests).  DSL-only constructs
with opaque Python callables (``HostCall`` expressions, callable exec
actions) cannot be rendered as source; they print as a placeholder and are
excluded from round-tripping.
"""

from __future__ import annotations

from typing import List

from repro.lang import ast as A
from repro.lang import expr as E

_INDENT = "  "

# Binary operator precedence (higher binds tighter).
_PREC = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "===": 3,
    "!==": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}

_TERNARY_PREC = 0
_UNARY_PREC = 7
_POSTFIX_PREC = 8


def _literal(value: object) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        # keep floats float-shaped so round-trips preserve the token kind
        return repr(value)
    return repr(value)


def pretty_expr(node: E.Expr, prec: int = 0) -> str:
    """Render an expression, parenthesizing per ``prec`` context."""
    text, my_prec = _expr(node)
    if my_prec < prec:
        return f"({text})"
    return text


def _expr(node: E.Expr):
    if isinstance(node, E.Lit):
        return _literal(node.value), _POSTFIX_PREC
    if isinstance(node, E.Var):
        return node.name, _POSTFIX_PREC
    if isinstance(node, E.SigRef):
        return f"{node.signal}.{node.kind}", _POSTFIX_PREC
    if isinstance(node, E.BinOp):
        prec = _PREC[node.op]
        left = pretty_expr(node.left, prec)
        right = pretty_expr(node.right, prec + 1)
        return f"{left} {node.op} {right}", prec
    if isinstance(node, E.UnOp):
        return f"{node.op}{pretty_expr(node.operand, _UNARY_PREC)}", _UNARY_PREC
    if isinstance(node, E.IncDec):
        return f"{node.op}{pretty_expr(node.target, _UNARY_PREC)}", _UNARY_PREC
    if isinstance(node, E.Cond):
        test = pretty_expr(node.test, _TERNARY_PREC + 1)
        then = pretty_expr(node.then, _TERNARY_PREC)
        orelse = pretty_expr(node.orelse, _TERNARY_PREC)
        return f"{test} ? {then} : {orelse}", _TERNARY_PREC
    if isinstance(node, E.Attr):
        return f"{pretty_expr(node.obj, _POSTFIX_PREC)}.{node.name}", _POSTFIX_PREC
    if isinstance(node, E.Index):
        return (
            f"{pretty_expr(node.obj, _POSTFIX_PREC)}[{pretty_expr(node.key)}]",
            _POSTFIX_PREC,
        )
    if isinstance(node, E.Call):
        args = ", ".join(pretty_expr(a) for a in node.args)
        return f"{pretty_expr(node.fn, _POSTFIX_PREC)}({args})", _POSTFIX_PREC
    if isinstance(node, E.ArrayLit):
        return "[" + ", ".join(pretty_expr(i) for i in node.items) + "]", _POSTFIX_PREC
    if isinstance(node, E.ObjectLit):
        fields = []
        for key, value in node.fields:
            if isinstance(key, E.Expr):
                fields.append(f"[{pretty_expr(key)}]: {pretty_expr(value)}")
            else:
                fields.append(f"{key}: {pretty_expr(value)}")
        return "{" + ", ".join(fields) + "}", _POSTFIX_PREC
    if isinstance(node, E.Lambda):
        params = ", ".join(node.params)
        if len(node.params) == 1:
            return f"{node.params[0]} => {pretty_expr(node.body)}", _TERNARY_PREC
        return f"({params}) => {pretty_expr(node.body)}", _TERNARY_PREC
    if isinstance(node, E.AssignExpr):
        return (
            f"{pretty_expr(node.target, _POSTFIX_PREC)} = {pretty_expr(node.value)}",
            _TERNARY_PREC,
        )
    if isinstance(node, E.HostCall):
        return f"$hostcall(/* {node.label} */)", _POSTFIX_PREC
    raise TypeError(f"cannot pretty-print {type(node).__name__}")


def _host_stmt(stmt: A.HostStmt) -> str:
    if isinstance(stmt, A.Assign):
        return f"{stmt.name} = {pretty_expr(stmt.value)}"
    if isinstance(stmt, A.TargetAssign):
        return f"{pretty_expr(stmt.target, _POSTFIX_PREC)} = {pretty_expr(stmt.value)}"
    if isinstance(stmt, A.ExprStmt):
        return pretty_expr(stmt.value)
    raise TypeError(f"cannot pretty-print host statement {type(stmt).__name__}")


def _host_block(stmts, indent: int) -> List[str]:
    pad = _INDENT * indent
    lines = ["{"]
    for stmt in stmts:
        lines.append(f"{pad}{_INDENT}{_host_stmt(stmt)};")
    lines.append(pad + "}")
    return lines


def _delay_head(delay: A.Delay) -> str:
    if delay.count is not None:
        head = f"count({pretty_expr(delay.count)}, {pretty_expr(delay.expr)})"
    else:
        head = f"({pretty_expr(delay.expr)})"
    if delay.immediate:
        return f"immediate {head}"
    return head


class _Printer:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, text: str) -> None:
        self.lines.append(_INDENT * self.indent + text)

    # -- statements -----------------------------------------------------------

    def statement(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Nothing):
            self.emit("nothing;")
        elif isinstance(stmt, A.Pause):
            self.emit("yield;")
        elif isinstance(stmt, A.Halt):
            self.emit("halt;")
        elif isinstance(stmt, A.Emit):
            value = "" if stmt.value is None else f"({pretty_expr(stmt.value)})"
            if stmt.value is None:
                value = "()"
            self.emit(f"emit {stmt.signal}{value};")
        elif isinstance(stmt, A.Sustain):
            value = "()" if stmt.value is None else f"({pretty_expr(stmt.value)})"
            self.emit(f"sustain {stmt.signal}{value};")
        elif isinstance(stmt, A.Atom):
            pad = _INDENT * self.indent
            body = _host_block(stmt.body, self.indent)
            self.emit("hop " + body[0])
            self.lines.extend(pad + line for line in body[1:])
        elif isinstance(stmt, A.Seq):
            for item in stmt.items:
                self.statement(item)
        elif isinstance(stmt, A.Par):
            first = True
            for branch in stmt.branches:
                self._braced("fork" if first else "par", branch)
                first = False
        elif isinstance(stmt, A.Loop):
            self._braced("loop", stmt.body)
        elif isinstance(stmt, A.If):
            self._braced(f"if ({pretty_expr(stmt.test)})", stmt.then)
            if not isinstance(stmt.orelse, A.Nothing):
                self._braced("else", stmt.orelse)
        elif isinstance(stmt, A.Suspend):
            self._braced(f"suspend {_delay_head(stmt.delay)}", stmt.body)
        elif isinstance(stmt, A.Abort):
            self._braced(f"abort {_delay_head(stmt.delay)}", stmt.body)
        elif isinstance(stmt, A.WeakAbort):
            self._braced(f"weakabort {_delay_head(stmt.delay)}", stmt.body)
        elif isinstance(stmt, A.Await):
            delay = stmt.delay
            immediate = "immediate " if delay.immediate else ""
            if delay.count is not None:
                self.emit(
                    f"await {immediate}count({pretty_expr(delay.count)}, "
                    f"{pretty_expr(delay.expr)});"
                )
            else:
                self.emit(f"await {immediate}{pretty_expr(delay.expr, _TERNARY_PREC + 1)};")
        elif isinstance(stmt, A.Every):
            self._braced(f"every {_delay_head(stmt.delay)}", stmt.body)
        elif isinstance(stmt, A.DoEvery):
            self._braced("do", stmt.body, trailing=f" every {_delay_head(stmt.delay)}")
        elif isinstance(stmt, A.Trap):
            self._braced(f"{stmt.label}:", stmt.body)
        elif isinstance(stmt, A.Break):
            self.emit(f"break {stmt.label};")
        elif isinstance(stmt, A.Local):
            decls = []
            for decl in stmt.decls:
                text = decl.name
                if decl.init is not None:
                    text += f" = {pretty_expr(decl.init)}"
                if isinstance(decl.combine, str):
                    text += f" combine {decl.combine}"
                decls.append(text)
            self.emit(f"signal {', '.join(decls)};")
            self.statement(stmt.body)
        elif isinstance(stmt, A.Run):
            name = stmt.module if isinstance(stmt.module, str) else stmt.module.name
            args = [f"{k} as {v}" for k, v in stmt.bindings.items()]
            args += [f"{k}={pretty_expr(v)}" for k, v in stmt.var_args.items()]
            args.append("...")
            self.emit(f"run {name}({', '.join(args)});")
        elif isinstance(stmt, A.Exec):
            signal = f" {stmt.signal}" if stmt.signal else ""
            self._exec("async" + signal, stmt.start)
            if stmt.kill is not None:
                self._exec("kill", stmt.kill)
            if stmt.on_suspend is not None:
                self._exec("suspend", stmt.on_suspend)
            if stmt.on_resume is not None:
                self._exec("resume", stmt.on_resume)
        else:
            raise TypeError(f"cannot pretty-print {type(stmt).__name__}")

    def _exec(self, keyword: str, action) -> None:
        if callable(action):
            self.emit(f"{keyword} {{ /* python callable */ }}")
            return
        pad = _INDENT * self.indent
        body = _host_block(action, self.indent)
        self.emit(f"{keyword} " + body[0])
        self.lines.extend(pad + line for line in body[1:])

    def _braced(self, head: str, body: A.Stmt, trailing: str = "") -> None:
        self.emit(head + " {")
        self.indent += 1
        self.statement(body)
        self.indent -= 1
        self.emit("}" + trailing)


def pretty_statement(stmt: A.Stmt) -> str:
    printer = _Printer()
    printer.statement(stmt)
    return "\n".join(printer.lines)


def pretty_module(module: A.Module) -> str:
    entries = []
    for var in module.variables:
        if var.init is not None:
            entries.append(f"var {var.name} = {pretty_expr(var.init)}")
        else:
            entries.append(f"var {var.name}")
    for decl in module.interface:
        direction = "" if decl.direction == "inout" else decl.direction + " "
        if decl.direction == "inout":
            direction = "inout "
        init = "" if decl.init is None else f" = {pretty_expr(decl.init)}"
        combine = f" combine {decl.combine}" if isinstance(decl.combine, str) else ""
        entries.append(f"{direction}{decl.name}{init}{combine}")
    printer = _Printer()
    printer.emit(f"module {module.name}({', '.join(entries)}) {{")
    printer.indent += 1
    printer.statement(module.body)
    printer.indent -= 1
    printer.emit("}")
    return "\n".join(printer.lines)
