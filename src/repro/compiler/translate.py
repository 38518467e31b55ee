"""Kernel statement → augmented boolean circuit translation (phase 2).

Each statement is compiled to a sub-circuit with the standard Esterel
interface (see *Compiling Esterel*, Potop-Butucaru, Edwards & Berry):

* inputs: ``GO`` (start now), ``RES`` (resume selected state), ``SUSP``
  (freeze selected state), ``KILL`` (clear selected state);
* outputs: ``SEL`` (has selected registers) and completion wires ``K0``
  (terminate), ``K1`` (pause) and ``K(2+d)`` for trap exits at depth *d*.

Signals become OR nets collecting their emitters (plus the machine input
wire for interface inputs); host expressions and actions become augmented
nets carrying data dependencies so that every potential writer of a signal
value is microscheduled before every reader (paper section 5.1).

Loop *reincarnation* is handled by duplicating loop bodies whose surface
contains incarnation-sensitive state (local signals, counters, execs):
``loop p`` becomes the unrolled ``loop {p ; p'}`` so every instantaneous
loop-back crosses from one body copy to the other.  This is the paper's
"quadratic expansion in special cases" (section 5.3); the policy can be
forced to ``always``/``never`` for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CompileError
from repro.lang import ast as A
from repro.lang import expr as E
from repro.lang.signals import SignalDecl
from repro.compiler.netlist import Circuit, Literal, Net, SignalInfo, StateSegment, lit

AUTO = "auto"
ALWAYS = "always"
NEVER = "never"


@dataclass
class Ctx:
    """Control wires feeding a statement's sub-circuit."""

    go: Literal
    res: Literal
    susp: Literal
    kill: Literal


@dataclass
class Ifc:
    """Wires produced by a statement's sub-circuit."""

    sel: Literal
    ks: Dict[int, Literal] = field(default_factory=dict)

    def k(self, code: int, default: Literal) -> Literal:
        return self.ks.get(code, default)


def _neg(literal: Literal) -> Literal:
    return (literal[0], not literal[1])


# ---------------------------------------------------------------------------
# payload specs → payload closures
# ---------------------------------------------------------------------------
#
# Every EXPR/ACTION net's payload closure is described by a plain data
# *spec* tuple stored on ``net.spec``: (kind, exprs/host statements, scope
# snapshot {name: slot}, slot numbers).  The closure is always built from
# the spec by :func:`build_payload`, so plan artifacts can pickle circuits
# closure-free and rebuild payloads on hydration
# (:func:`repro.compiler.compile.hydrate_plan_artifact`).


def build_payload(spec: tuple) -> Callable[[Any], Any]:
    """Build the runtime payload closure described by ``spec``."""
    kind = spec[0]
    if kind == "expr":
        _, expr, scope = spec

        def payload(rt: Any) -> bool:
            return E.truthy(expr.eval(rt.env_for(scope)))

        return payload
    if kind == "arm":
        _, count_expr, scope, counter_slot = spec

        def payload(rt: Any) -> None:
            value = count_expr.eval(rt.env_for(scope))
            rt.arm_counter(counter_slot, int(value))

        return payload
    if kind == "ctest":
        _, guard_expr, scope, counter_slot = spec

        def payload(rt: Any) -> bool:
            if E.truthy(guard_expr.eval(rt.env_for(scope))):
                return rt.tick_counter(counter_slot)
            return False

        return payload
    if kind == "emitval":
        _, value_expr, scope, sig_slot = spec

        def payload(rt: Any) -> None:
            rt.emit_value(sig_slot, value_expr.eval(rt.env_for(scope)))

        return payload
    if kind == "atom":
        _, body, scope = spec

        def payload(rt: Any) -> None:
            env = rt.env_for(scope)
            for host in body:
                host.execute(env)

        return payload
    if kind == "siginit":
        _, init_expr, scope, sig_slot = spec

        def payload(rt: Any) -> None:
            rt.init_signal(sig_slot, init_expr.eval(rt.env_for(scope)))

        return payload
    if kind == "exec_start":
        _, exec_slot, scope = spec

        def payload(rt: Any) -> None:
            rt.start_exec(exec_slot, scope)

        return payload
    if kind in ("exec_finish", "exec_kill", "exec_susp", "exec_resume"):
        _, exec_slot = spec
        method = {
            "exec_finish": "finish_exec",
            "exec_kill": "kill_exec",
            "exec_susp": "suspend_exec",
            "exec_resume": "resume_exec",
        }[kind]

        def payload(rt: Any) -> None:
            getattr(rt, method)(exec_slot)

        return payload
    raise CompileError(f"unknown payload spec kind {kind!r}")


def _render_arity(count_expr: Any) -> str:
    """Stable rendering of a counted delay's count expression — recorded on
    the counter so the shape fingerprint distinguishes counted-delay
    edits."""
    try:
        from repro.lang.pretty import pretty_expr

        return pretty_expr(count_expr)
    except Exception:
        return type(count_expr).__name__


def rebuild_payloads(circuit: Circuit) -> Circuit:
    """Rebuild every payload closure of ``circuit`` from its net specs
    (after unpickling a circuit from a plan artifact)."""
    for net in circuit.nets:
        if net.spec is not None and net.payload is None:
            net.payload = build_payload(net.spec)
    return circuit


class Translator:
    """Builds the circuit for one expanded module body."""

    def __init__(self, circuit: Circuit, loop_duplication: str = AUTO):
        if loop_duplication not in (AUTO, ALWAYS, NEVER):
            raise ValueError(f"bad loop duplication policy {loop_duplication!r}")
        self.circ = circuit
        self.loop_duplication = loop_duplication
        #: lexical signal scope: source name -> SignalInfo
        self.sigmap: Dict[str, SignalInfo] = {}
        #: the scope's {name: slot} table, shared by every payload spec
        #: built in this lexical scope; None until first asked for
        self._table: Optional[Dict[str, int]] = None
        #: enclosing trap labels, outermost first
        self.traps: List[str] = []
        #: reader nets awaiting data-dependency patching:
        #: (net, SignalInfo, wants_value)
        self._pending_reads: List[Tuple[Net, SignalInfo, bool]] = []
        #: exec incarnations per AST node uid: (start_action, kill_action)
        self._exec_incarnations: Dict[int, List[Tuple[Net, Optional[Net]]]] = {}
        #: the innermost open instance's state segment (a placeholder,
        #: never recorded, on the spine), and per-module-name counts of
        #: the instances opened directly inside it, which number their
        #: paths
        self._segment = StateSegment("", "")
        self._instances: Dict[str, int] = {}
        self.FALSE = lit(self.circ.const0())
        self.TRUE = lit(self.circ.const1())

    # ------------------------------------------------------------------
    # gate helpers with local constant folding
    # ------------------------------------------------------------------

    def _or(self, lits: Sequence[Literal], label: str = "or", loc=None) -> Literal:
        out: List[Literal] = []
        for li in lits:
            if li == self.TRUE or li == _neg(self.FALSE):
                return self.TRUE
            if li == self.FALSE or li == _neg(self.TRUE):
                continue
            out.append(li)
        if not out:
            return self.FALSE
        if len(out) == 1:
            return out[0]
        return lit(self.circ.gate_or(out, label, loc))

    def _and(self, lits: Sequence[Literal], label: str = "and", loc=None) -> Literal:
        out: List[Literal] = []
        for li in lits:
            if li == self.FALSE or li == _neg(self.TRUE):
                return self.FALSE
            if li == self.TRUE or li == _neg(self.FALSE):
                continue
            out.append(li)
        if not out:
            return self.TRUE
        if len(out) == 1:
            return out[0]
        return lit(self.circ.gate_and(out, label, loc))

    # ------------------------------------------------------------------
    # payload factories (closures over signal-scope snapshots)
    # ------------------------------------------------------------------

    def bind(self, name: str, info: SignalInfo) -> None:
        """Bring signal ``info`` into the current scope as ``name``."""
        self.sigmap[name] = info
        self._table = None

    def _snapshot(self) -> Dict[str, int]:
        """The current scope's {name: slot} table.  Every spec built in
        one lexical scope shares it (specs only read it), so the tables
        grow with the number of scopes, not with the number of nets."""
        if self._table is None:
            self._table = {name: info.slot for name, info in self.sigmap.items()}
        return self._table

    def _spec_expr_net(self, enable: Literal, spec: tuple, label: str, loc=None) -> Net:
        net = self.circ.expr_net(enable, build_payload(spec), (), label, loc)
        net.spec = spec
        return net

    def _spec_action_net(self, enable: Literal, spec: tuple, label: str, loc=None) -> Net:
        net = self.circ.action_net(enable, build_payload(spec), (), label, loc)
        net.spec = spec
        return net

    def _register_reads(self, net: Net, expr: E.Expr) -> None:
        for name, kind in expr.signal_deps():
            if kind not in E.CURRENT_INSTANT_KINDS:
                continue
            info = self.sigmap.get(name)
            if info is None:
                raise CompileError(f"unknown signal {name!r} (validation gap)")
            self._pending_reads.append((net, info, kind == E.NOWVAL))

    def _expr_net(self, enable: Literal, expr: E.Expr, label: str, loc=None) -> Net:
        net = self._spec_expr_net(enable, ("expr", expr, self._snapshot()), label, loc)
        # Keep the expression and its scope snapshot next to the payload:
        # the word plan lowers pure-status tests (now/pre/!/&&/||) to
        # bitwise column operations, which needs the source expression.
        net.expr_info = (net.spec[1], net.spec[2])
        self._register_reads(net, expr)
        return net

    # ------------------------------------------------------------------
    # delay guards (with counters)
    # ------------------------------------------------------------------

    def _delay_test(self, delay: A.Delay, enable: Literal, go: Literal, label: str) -> Net:
        """Build the guard net for a delay, arming a counter when counted.

        ``enable`` is the instant set at which the guard is evaluated;
        ``go`` is the statement's start wire (arms the counter).
        """
        loc = delay.loc
        if delay.count is None:
            return self._expr_net(enable, delay.expr, f"{label}.test", loc)

        counter = self.circ.new_counter(loc, _render_arity(delay.count))
        self._segment.counter_slots.append(counter.slot)
        scope = self._snapshot()
        count_expr = delay.count
        guard_expr = delay.expr

        arm_net = self._spec_action_net(
            go, ("arm", count_expr, scope, counter.slot), f"{label}.arm", loc
        )
        self._register_reads(arm_net, count_expr)

        test_net = self._spec_expr_net(
            enable, ("ctest", guard_expr, scope, counter.slot), f"{label}.test", loc
        )
        self._register_reads(test_net, guard_expr)
        self.circ.add_dep(test_net, arm_net)
        return test_net

    # ------------------------------------------------------------------
    # signal declaration helpers
    # ------------------------------------------------------------------

    def declare_signal(self, decl: SignalDecl, bound_name: Optional[str] = None) -> SignalInfo:
        info = self.circ.new_signal(decl.name, decl.direction, decl.init, decl.combine)
        info.status_net = self.circ.gate_or([], f"sig.{decl.name}.status", decl.loc)
        if bound_name is not None:
            info.bound_name = bound_name
        return info

    def _register(self, label: str, loc) -> Net:
        reg = self.circ.register(label, False, loc)
        self._segment.registers.append(reg)
        return reg

    # ------------------------------------------------------------------
    # instance segments
    # ------------------------------------------------------------------

    def _enter(self, module: str) -> tuple:
        """Open the state segment of the next instance of ``module`` in
        the current one; returns what :meth:`_leave` restores."""
        seq = self._instances.get(module, 0)
        self._instances[module] = seq + 1
        outer = (self._segment, self._instances)
        self._segment = StateSegment(f"{self._segment.path}/{module}#{seq}", module)
        self._instances = {}
        self.circ.segments.append(self._segment)
        return outer

    def _leave(self, outer: tuple) -> None:
        self._segment, self._instances = outer

    def _tr_instance(self, stmt: A.Instance, ctx: Ctx) -> Ifc:
        outer = self._enter(stmt.module)
        try:
            return self.translate(stmt.body, ctx)
        finally:
            self._leave(outer)

    def _seq_items(self, items: Sequence[A.Stmt]):
        """A sequence's items, with each spliced instance's body items in
        its place, translated inside the instance's segment."""
        for item in items:
            if isinstance(item, A.Instance) and item.spliced:
                outer = self._enter(item.module)
                try:
                    body = item.body
                    while isinstance(body, A.Instance):
                        self._enter(body.module)  # undone with the outermost
                        body = body.body
                    yield from self._seq_items(body.items)
                finally:
                    self._leave(outer)
            else:
                yield item

    # ------------------------------------------------------------------
    # statement translation
    # ------------------------------------------------------------------

    def translate(self, stmt: A.Stmt, ctx: Ctx) -> Ifc:
        method = getattr(self, f"_tr_{type(stmt).__name__.lower()}", None)
        if method is None:
            raise CompileError(f"cannot translate {type(stmt).__name__} (not kernel)")
        return method(stmt, ctx)

    def _tr_nothing(self, stmt: A.Nothing, ctx: Ctx) -> Ifc:
        return Ifc(self.FALSE, {0: ctx.go})

    def _tr_pause(self, stmt: A.Pause, ctx: Ctx) -> Ifc:
        reg = self._register("pause", stmt.loc)
        sel = lit(reg)
        holding = self._or([ctx.go, self._and([ctx.susp, sel], "pause.hold")], "pause.set")
        self.circ.set_register_input(
            reg, self._and([holding, _neg(ctx.kill)], "pause.in", stmt.loc)
        )
        k0 = self._and([sel, ctx.res], "pause.k0", stmt.loc)
        return Ifc(sel, {0: k0, 1: ctx.go})

    def _tr_emit(self, stmt: A.Emit, ctx: Ctx) -> Ifc:
        info = self.sigmap.get(stmt.signal)
        if info is None:
            raise CompileError(f"unknown signal {stmt.signal!r}")
        self.circ.or_into(info.status_net, ctx.go)
        if stmt.value is not None:
            action = self._spec_action_net(
                ctx.go,
                ("emitval", stmt.value, self._snapshot(), info.slot),
                f"emit.{stmt.signal}",
                stmt.loc,
            )
            self._register_reads(action, stmt.value)
            info.writers.append(action.id)
        return Ifc(self.FALSE, {0: ctx.go})

    def _tr_atom(self, stmt: A.Atom, ctx: Ctx) -> Ifc:
        body = tuple(stmt.body)
        action = self._spec_action_net(
            ctx.go, ("atom", body, self._snapshot()), "atom", stmt.loc
        )
        for host in body:
            for expr in host.exprs():
                self._register_reads(action, expr)
        return Ifc(self.FALSE, {0: ctx.go})

    def _tr_seq(self, stmt: A.Seq, ctx: Ctx) -> Ifc:
        sels: List[Literal] = []
        ks: Dict[int, List[Literal]] = {}
        go = ctx.go
        for item in self._seq_items(stmt.items):
            ifc = self.translate(item, Ctx(go, ctx.res, ctx.susp, ctx.kill))
            sels.append(ifc.sel)
            for code, wire in ifc.ks.items():
                if code != 0:
                    ks.setdefault(code, []).append(wire)
            go = ifc.ks.get(0, self.FALSE)
        result = {code: self._or(wires, f"seq.k{code}") for code, wires in ks.items()}
        result[0] = go
        return Ifc(self._or(sels, "seq.sel"), result)

    def _tr_par(self, stmt: A.Par, ctx: Ctx) -> Ifc:
        children = [self.translate(b, ctx) for b in stmt.branches]
        codes = sorted({code for c in children for code in c.ks})
        sel = self._or([c.sel for c in children], "par.sel")
        if not codes:
            return Ifc(sel, {})
        ks: Dict[int, Literal] = {}
        cumulative: List[Literal] = []
        for child in children:
            active = self._or(
                [ctx.go, self._and([child.sel, ctx.res], "par.act")], "par.active"
            )
            cumulative.append(_neg(active))  # DEAD_i
        for code in codes:
            fired = self._or(
                [c.ks.get(code, self.FALSE) for c in children], f"par.any.k{code}"
            )
            cumulative = [
                self._or([cumulative[i], children[i].ks.get(code, self.FALSE)],
                         f"par.w{code}")
                for i in range(len(children))
            ]
            ks[code] = self._and([fired] + cumulative, f"par.k{code}", stmt.loc)
        return Ifc(sel, ks)

    def _loop_needs_duplication(self, body: A.Stmt) -> bool:
        if self.loop_duplication == ALWAYS:
            return True
        if self.loop_duplication == NEVER:
            return False
        for node in body.walk():
            if isinstance(node, (A.Local, A.Exec)):
                return True
            if isinstance(node, (A.Abort, A.Suspend)) and node.delay.count is not None:
                return True
        return False

    def _tr_loop(self, stmt: A.Loop, ctx: Ctx) -> Ifc:
        if self._loop_needs_duplication(stmt.body):
            return self._tr_loop_duplicated(stmt, ctx)
        go_fwd = self.circ.gate_or([], "loop.go", stmt.loc)
        body = self.translate(stmt.body, Ctx(lit(go_fwd), ctx.res, ctx.susp, ctx.kill))
        self.circ.or_into(go_fwd, ctx.go)
        self.circ.or_into(go_fwd, body.ks.get(0, self.FALSE))
        ks = {code: wire for code, wire in body.ks.items() if code != 0}
        return Ifc(body.sel, ks)

    def _tr_loop_duplicated(self, stmt: A.Loop, ctx: Ctx) -> Ifc:
        """``loop p`` as the unrolled ``loop {p ; p'}``: each instantaneous
        loop-back crosses copies, giving fresh incarnations of local
        signals, counters and execs."""
        go1_fwd = self.circ.gate_or([], "loop.go1", stmt.loc)
        first = self.translate(stmt.body, Ctx(lit(go1_fwd), ctx.res, ctx.susp, ctx.kill))
        go2 = first.ks.get(0, self.FALSE)
        second = self.translate(stmt.body, Ctx(go2, ctx.res, ctx.susp, ctx.kill))
        self.circ.or_into(go1_fwd, ctx.go)
        self.circ.or_into(go1_fwd, second.ks.get(0, self.FALSE))
        ks: Dict[int, Literal] = {}
        for code in set(first.ks) | set(second.ks):
            if code == 0:
                continue
            ks[code] = self._or(
                [first.ks.get(code, self.FALSE), second.ks.get(code, self.FALSE)],
                f"loop.k{code}",
            )
        return Ifc(self._or([first.sel, second.sel], "loop.sel"), ks)

    def _tr_if(self, stmt: A.If, ctx: Ctx) -> Ifc:
        test = self._expr_net(ctx.go, stmt.test, "if.test", stmt.loc)
        then_go = self._and([ctx.go, lit(test)], "if.then")
        else_go = self._and([ctx.go, _neg(lit(test))], "if.else")
        then = self.translate(stmt.then, Ctx(then_go, ctx.res, ctx.susp, ctx.kill))
        orelse = self.translate(stmt.orelse, Ctx(else_go, ctx.res, ctx.susp, ctx.kill))
        ks: Dict[int, Literal] = {}
        for code in set(then.ks) | set(orelse.ks):
            ks[code] = self._or(
                [then.ks.get(code, self.FALSE), orelse.ks.get(code, self.FALSE)],
                f"if.k{code}",
            )
        return Ifc(self._or([then.sel, orelse.sel], "if.sel"), ks)

    def _tr_abort(self, stmt: A.Abort, ctx: Ctx) -> Ifc:
        sel_fwd = self.circ.gate_or([], "abort.sel", stmt.loc)
        enable_terms = [self._and([ctx.res, lit(sel_fwd)], "abort.resumed")]
        if stmt.delay.immediate:
            enable_terms.append(ctx.go)
        enable = self._or(enable_terms, "abort.enable")
        fire = lit(self._delay_test(stmt.delay, enable, ctx.go, "abort"))
        body_go = ctx.go if not stmt.delay.immediate else self._and(
            [ctx.go, _neg(fire)], "abort.go"
        )
        # Strong abortion does not KILL the body: simply withholding RES
        # makes its registers decay (they only hold under GO, SUSP or a
        # resumed wait).  Asserting KILL here would also destroy a same-
        # instant reincarnation when a loop restarts the abort.  KILL is
        # reserved for trap exits, which are weak and need the explicit
        # clear.  Exec cleanup on abortion is handled inside _tr_exec.
        body = self.translate(
            stmt.body,
            Ctx(
                body_go,
                self._and([ctx.res, _neg(fire)], "abort.res"),
                ctx.susp,
                ctx.kill,
            ),
        )
        self.circ.or_into(sel_fwd, body.sel)
        ks = dict(body.ks)
        ks[0] = self._or([body.ks.get(0, self.FALSE), fire], "abort.k0")
        return Ifc(body.sel, ks)

    def _tr_suspend(self, stmt: A.Suspend, ctx: Ctx) -> Ifc:
        sel_fwd = self.circ.gate_or([], "suspend.sel", stmt.loc)
        enable = self._and([ctx.res, lit(sel_fwd)], "suspend.resumed")
        fire = lit(self._delay_test(stmt.delay, enable, ctx.go, "suspend"))
        body = self.translate(
            stmt.body,
            Ctx(
                ctx.go,
                self._and([ctx.res, _neg(fire)], "suspend.res"),
                self._or([ctx.susp, fire], "suspend.susp"),
                ctx.kill,
            ),
        )
        self.circ.or_into(sel_fwd, body.sel)
        ks = dict(body.ks)
        ks[1] = self._or([body.ks.get(1, self.FALSE), fire], "suspend.k1")
        return Ifc(body.sel, ks)

    def _tr_trap(self, stmt: A.Trap, ctx: Ctx) -> Ifc:
        kill_fwd = self.circ.gate_or([], f"trap.{stmt.label}.kill", stmt.loc)
        self.circ.or_into(kill_fwd, ctx.kill)
        self.traps.append(stmt.label)
        try:
            body = self.translate(
                stmt.body, Ctx(ctx.go, ctx.res, ctx.susp, lit(kill_fwd))
            )
        finally:
            self.traps.pop()
        caught = body.ks.get(2, self.FALSE)
        self.circ.or_into(kill_fwd, caught)
        ks: Dict[int, Literal] = {}
        ks[0] = self._or([body.ks.get(0, self.FALSE), caught], f"trap.{stmt.label}.k0")
        if 1 in body.ks:
            ks[1] = body.ks[1]
        for code, wire in body.ks.items():
            if code >= 3:
                ks[code - 1] = wire
        return Ifc(body.sel, ks)

    def _tr_break(self, stmt: A.Break, ctx: Ctx) -> Ifc:
        try:
            index = len(self.traps) - 1 - self.traps[::-1].index(stmt.label)
        except ValueError:
            raise CompileError(f"break to unknown label {stmt.label!r}") from None
        code = 2 + (len(self.traps) - 1 - index)
        return Ifc(self.FALSE, {code: ctx.go})

    def _tr_local(self, stmt: A.Local, ctx: Ctx) -> Ifc:
        saved = (self.sigmap, self._table)
        infos: List[SignalInfo] = []
        for decl in stmt.decls:
            info = self.declare_signal(decl)
            self._segment.signal_slots.append(info.slot)
            infos.append(info)
            if decl.init is not None:
                init_expr = decl.init
                action = self._spec_action_net(
                    ctx.go,
                    ("siginit", init_expr, self._snapshot(), info.slot),
                    f"siginit.{decl.name}",
                    decl.loc,
                )
                self._register_reads(action, init_expr)
                info.writers.append(action.id)
                info.init_writers.append(action.id)
        # initializers above read the enclosing table; the body gets its own
        self.sigmap = dict(self.sigmap)
        for decl, info in zip(stmt.decls, infos):
            self.bind(decl.name, info)
        try:
            body = self.translate(stmt.body, ctx)
        finally:
            self.sigmap, self._table = saved
        return body

    def _tr_exec(self, stmt: A.Exec, ctx: Ctx) -> Ifc:
        signal_info = None
        if stmt.signal is not None:
            signal_info = self.sigmap.get(stmt.signal)
            if signal_info is None:
                raise CompileError(f"async completion signal {stmt.signal!r} unknown")
        info = self.circ.new_exec(stmt.name, signal_info, stmt.loc)
        self._segment.exec_slots.append(info.slot)
        info.stmt = stmt
        # numbered within its instance: migration keys registers by label,
        # so an edit elsewhere in the program must not renumber these
        tag = f"exec{len(self._segment.exec_slots) - 1}"
        done = self.circ.input_net(f"{tag}.done", stmt.loc)
        info.done_net = done

        reg = self._register(f"{tag}.sel", stmt.loc)
        sel = lit(reg)
        done_fire = self._and([sel, ctx.res, lit(done)], "exec.done", stmt.loc)
        hold_old = self._and(
            [
                _neg(ctx.kill),
                self._or(
                    [
                        self._and([ctx.susp, sel], "exec.hold"),
                        self._and([sel, ctx.res, _neg(lit(done))], "exec.wait"),
                    ],
                    "exec.keep",
                ),
            ],
            "exec.holdold",
        )
        holding = self._or([ctx.go, hold_old], "exec.set")
        self.circ.set_register_input(
            reg, self._and([holding, _neg(ctx.kill)], "exec.in", stmt.loc)
        )

        scope = self._snapshot()

        finish_action = self._spec_action_net(
            done_fire, ("exec_finish", info.slot), f"{tag}.finish", stmt.loc
        )
        if signal_info is not None:
            self.circ.or_into(signal_info.status_net, done_fire)
            signal_info.writers.append(finish_action.id)

        # The running invocation dies this instant when it is neither held
        # (resumed-and-waiting or suspended, and not trap-killed) nor
        # completing: this covers trap exits AND strong abortion, which
        # kills by withholding RES.  A simultaneous GO starts a *new*
        # invocation and must not keep the old one alive.
        kill_action = None
        kill_fire = self._and(
            [sel, _neg(done_fire), _neg(hold_old)], "exec.killfire", stmt.loc
        )
        if kill_fire != self.FALSE:
            kill_action = self._spec_action_net(
                kill_fire, ("exec_kill", info.slot), f"{tag}.kill", stmt.loc
            )
            info.kill_action = kill_action
            # a completing invocation must finish before a (vacuous) kill
            self.circ.add_dep(kill_action, finish_action)

        start_action = self._spec_action_net(
            ctx.go, ("exec_start", info.slot, scope), f"{tag}.start", stmt.loc
        )
        info.start_action = start_action
        if kill_action is not None:
            self.circ.add_dep(start_action, kill_action)
        if isinstance(stmt.start, list):
            for host in stmt.start:
                for expr in host.exprs():
                    self._register_reads(start_action, expr)
        self._exec_incarnations.setdefault(stmt.uid, []).append(
            (start_action, kill_action)
        )

        if stmt.on_suspend is not None or stmt.on_resume is not None:
            susp_fire = self._and([ctx.susp, sel], "exec.suspfire", stmt.loc)
            info.suspend_action = self._spec_action_net(
                susp_fire, ("exec_susp", info.slot), f"{tag}.susp", stmt.loc
            )
            susp_reg = self._register(f"{tag}.suspended", stmt.loc)
            self.circ.set_register_input(susp_reg, susp_fire)
            res_fire = self._and([lit(susp_reg), ctx.res, sel], "exec.resfire", stmt.loc)
            info.resume_action = self._spec_action_net(
                res_fire, ("exec_resume", info.slot), f"{tag}.resume", stmt.loc
            )

        k1 = self._or(
            [ctx.go, self._and([sel, ctx.res, _neg(lit(done))], "exec.k1w")],
            "exec.k1",
        )
        return Ifc(sel, {0: done_fire, 1: k1})

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Patch pending data dependencies (emit-before-read ordering, and
        init-before-emit ordering for re-initialized local signals)."""
        for net, info, wants_value in self._pending_reads:
            assert info.status_net is not None
            if info.status_net.id not in net.deps and net.id != info.status_net.id:
                net.deps.append(info.status_net.id)
            if wants_value:
                for writer in info.writers:
                    if writer != net.id and writer not in net.deps:
                        net.deps.append(writer)
        # Reincarnated execs (duplicated loop bodies): the starting copy's
        # invocation must begin after the dying copy's cleanup, whichever
        # copy is which this instant.
        for incarnations in self._exec_incarnations.values():
            if len(incarnations) < 2:
                continue
            for i, (start_i, _kill_i) in enumerate(incarnations):
                for j, (_start_j, kill_j) in enumerate(incarnations):
                    if i != j and kill_j is not None:
                        self.circ.add_dep(start_i, kill_j)
        for info in self.circ.signals:
            if not info.init_writers:
                continue
            for writer in info.writers:
                if writer in info.init_writers:
                    continue
                net = self.circ.nets[writer]
                for init_writer in info.init_writers:
                    if init_writer not in net.deps and init_writer != net.id:
                        net.deps.append(init_writer)


def translate_module(
    module: A.Module, body: A.Stmt, loop_duplication: str = AUTO
) -> Circuit:
    """Translate an expanded module body into a reactive-machine circuit."""
    circ = Circuit(module.name)
    tr = Translator(circ, loop_duplication)

    # Boot wiring: GO is 1 at the first reaction only; RES afterwards.
    boot_reg = circ.register("boot", False)
    circ.set_register_input(boot_reg, lit(circ.const1()))
    go = _neg(lit(boot_reg))
    res = lit(boot_reg)

    # Interface signals.
    for decl in module.interface:
        info = tr.declare_signal(decl, bound_name=decl.name)
        if decl.is_input:
            info.input_net = circ.input_net(f"input.{decl.name}", decl.loc)
            circ.or_into(info.status_net, lit(info.input_net))
        circ.interface[decl.name] = info
        tr.bind(decl.name, info)

    ifc = tr.translate(body, Ctx(go, res, tr.FALSE, tr.FALSE))
    unresolved = [code for code in ifc.ks if code >= 2]
    if unresolved:
        raise CompileError(f"unbound trap exit codes {unresolved} at top level")
    tr.finalize()

    circ.go_net = boot_reg  # exported for introspection (boot register)
    k0 = ifc.ks.get(0, tr.FALSE)
    k1 = ifc.ks.get(1, tr.FALSE)
    # Materialize completion/selection wires as real nets so the machine
    # can read them after propagation.
    circ.k0_net = circ.gate_or([k0], "root.k0")
    circ.k1_net = circ.gate_or([k1], "root.k1")
    circ.sel_net = circ.gate_or([ifc.sel], "root.sel")
    return circ
