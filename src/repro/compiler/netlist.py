"""The augmented boolean circuit intermediate representation (paper §5.1).

A circuit is a list of *nets*:

* **gates** — combinational AND/OR equations over literals (a literal is a
  net with an optional negation, so explicit NOT nets are not needed);
* **registers** — unit delays: their output at reaction *n+1* is their
  input at reaction *n* (the hardware ``pre``);
* **inputs** — set by the environment before each reaction (the boot wire,
  input signal statuses, async completion wires);
* **expression nets** — boolean nets whose value is computed by a host
  data expression ("augmented by a data expression", §5.1), guarded by an
  *enable* literal and ordered by data dependencies;
* **action nets** — like expression nets but executed for effect (signal
  emission, host atoms, exec start/kill hooks).

Data dependencies (``deps`` on expression/action nets) order every emitter
of a signal before every reader of its value within the instant, which is
exactly the microscheduling constraint of the paper.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import CompileError, SourceLocation

# Net kinds
AND = "and"
OR = "or"
REG = "reg"
INPUT = "input"
EXPR = "expr"
ACTION = "action"

#: A literal: (net_id, negated)
Literal = Tuple[int, bool]


def lit(net: "Net", negated: bool = False) -> Literal:
    return (net.id, negated)


class Net:
    """One net of the circuit."""

    __slots__ = (
        "id",
        "kind",
        "inputs",
        "label",
        "loc",
        "payload",
        "deps",
        "init",
        "expr_info",
        "spec",
    )

    def __init__(
        self,
        net_id: int,
        kind: str,
        inputs: Sequence[Literal] = (),
        label: str = "",
        loc: Optional[SourceLocation] = None,
    ):
        self.id = net_id
        self.kind = kind
        self.inputs: List[Literal] = list(inputs)
        self.label = label
        self.loc = loc
        #: for EXPR/ACTION nets: the payload callable (see :class:`Circuit`)
        self.payload: Optional[Callable[..., Any]] = None
        #: for EXPR/ACTION nets: ids of nets that must be *resolved* before
        #: the payload may run (signal status nets and writer action nets)
        self.deps: List[int] = []
        #: for REG nets: the boot value
        self.init: bool = False
        #: for EXPR nets built from a plain host expression: the
        #: ``(expr, scope)`` pair behind ``payload``, kept so the word
        #: plan (:mod:`repro.compiler.wordplan`) can lower pure-status
        #: tests to bitwise column operations instead of per-member
        #: payload calls; ``None`` for custom closures (counted delays,
        #: emit/atom/exec actions)
        self.expr_info: Optional[tuple] = None
        #: for EXPR/ACTION nets: the *payload spec* behind ``payload`` — a
        #: plain data tuple (kind, exprs/host statements, scope snapshot,
        #: slot numbers) from which :func:`repro.compiler.translate.build_payload`
        #: rebuilds the closure.  Specs make circuits picklable (plan
        #: artifacts drop the closure and rebuild it on hydration).
        #: ``None`` for non-payload nets.
        self.spec: Optional[tuple] = None

    def __getstate__(self) -> tuple:
        # Payload closures cannot cross a process boundary; they are
        # rebuilt from ``spec`` on the far side (see hydrate_plan_artifact).
        return (
            self.id, self.kind, self.inputs, self.label, self.loc,
            self.deps, self.init, self.expr_info, self.spec,
        )

    def __setstate__(self, state: tuple) -> None:
        (self.id, self.kind, self.inputs, self.label, self.loc,
         self.deps, self.init, self.expr_info, self.spec) = state
        self.payload = None

    @property
    def enable(self) -> Literal:
        """EXPR/ACTION nets have exactly one boolean input: the enable."""
        return self.inputs[0]

    def describe(self) -> str:
        where = f" @{self.loc}" if self.loc else ""
        return f"#{self.id} {self.kind} {self.label}{where}"

    def __repr__(self) -> str:
        return f"Net({self.describe()})"


class SignalInfo:
    """Compile-time record of one signal instance.

    Several signal *instances* can share a source-level name (locals in
    reincarnated loop copies, locals of repeatedly-instantiated modules);
    each instance owns a runtime slot identified by ``slot``.
    """

    __slots__ = (
        "slot",
        "name",
        "direction",
        "init",
        "combine",
        "status_net",
        "input_net",
        "writers",
        "init_writers",
        "bound_name",
    )

    def __init__(self, slot: int, name: str, direction: str, init: Any, combine: Any):
        self.slot = slot
        self.name = name
        self.direction = direction
        self.init = init  # an Expr or None
        self.combine = combine
        self.status_net: Optional[Net] = None
        self.input_net: Optional[Net] = None
        #: ids of action nets that may write the value this instant
        self.writers: List[int] = []
        #: subset of writers that (re-)initialize the value on scope entry;
        #: ordered before all other writers of the same signal
        self.init_writers: List[int] = []
        #: the machine-interface name (for `S.signame`); locals keep their own
        self.bound_name: str = name

    def __repr__(self) -> str:
        return f"SignalInfo({self.name}@{self.slot})"


class ExecInfo:
    """Compile-time record of one ``async`` statement occurrence."""

    __slots__ = (
        "slot",
        "name",
        "signal",
        "done_net",
        "start_action",
        "kill_action",
        "suspend_action",
        "resume_action",
        "stmt",
        "loc",
    )

    def __init__(self, slot: int, name: str, signal: Optional[SignalInfo], loc=None):
        self.slot = slot
        self.name = name
        self.signal = signal
        self.done_net: Optional[Net] = None
        self.start_action = None
        self.kill_action = None
        self.suspend_action = None
        self.resume_action = None
        #: the Exec AST node (holds the start/kill/suspend/resume actions)
        self.stmt = None
        self.loc = loc


class CounterInfo:
    """Compile-time record of a counted delay's counter cell."""

    __slots__ = ("slot", "loc", "arity")

    def __init__(self, slot: int, loc=None, arity: str = ""):
        self.slot = slot
        self.loc = loc
        #: rendered source of the count expression — part of the shape
        #: fingerprint so counted-delay edits can't alias (see
        #: ``compile._shape_fingerprint``)
        self.arity = arity


class StateSegment:
    """One ``run`` instance's share of a circuit's sequential state: the
    registers, local signals, counters and execs its body creates, less
    those of the instances nested in it.

    ``path`` is the instance path (``/M#0``, nested ``/M#0/N#1``): ``k``
    numbers the instances of ``M`` within the enclosing instance, and a
    loop body translated twice gets a path per copy.  The spine (state
    owned by the top-level module body) is the implicit remainder.
    Registers are recorded as Net *objects* (the optimizer's sweep
    renumbers them, and drops swept ones here); signals/counters/execs
    as slot numbers.  Versioned state migration keys state by
    ``(segment path, stable label, occurrence)`` so program edits inside
    one instance do not shift every other instance's keys.
    """

    __slots__ = ("path", "module", "registers", "signal_slots",
                 "counter_slots", "exec_slots")

    def __init__(self, path: str, module: str):
        self.path = path
        self.module = module
        self.registers: List[Net] = []
        self.signal_slots: List[int] = []
        self.counter_slots: List[int] = []
        self.exec_slots: List[int] = []

    def __repr__(self) -> str:
        return (f"StateSegment({self.path}, {len(self.registers)} regs, "
                f"{len(self.signal_slots)} sigs)")


class Circuit:
    """A complete augmented boolean circuit plus its interface tables."""

    def __init__(self, name: str = "<circuit>"):
        self.name = name
        self.nets: List[Net] = []
        #: boot wire: 1 at the first reaction only (via the boot register)
        self.go_net: Optional[Net] = None
        self.res_net: Optional[Net] = None
        #: root completion wires
        self.k0_net: Optional[Net] = None
        self.k1_net: Optional[Net] = None
        self.sel_net: Optional[Net] = None
        #: all signal instances, indexed by slot
        self.signals: List[SignalInfo] = []
        #: machine interface: name -> SignalInfo (inputs and outputs)
        self.interface: Dict[str, SignalInfo] = {}
        #: exec slots
        self.execs: List[ExecInfo] = []
        #: counter slots
        self.counters: List[CounterInfo] = []
        #: module `var` parameters and `let` variables with initializers:
        #: list of (frame_name, init Expr or None)
        self.frame_vars: List[Tuple[str, Any]] = []
        #: one :class:`StateSegment` per ``run`` instance, outer before
        #: inner, giving versioned state migration stable per-instance
        #: keys (see :mod:`repro.runtime.migrate`)
        self.segments: List[StateSegment] = []
        self._const0: Optional[Net] = None
        self._const1: Optional[Net] = None

    # -- construction -------------------------------------------------------

    def _new(self, kind: str, inputs: Sequence[Literal], label: str, loc=None) -> Net:
        net = Net(len(self.nets), kind, inputs, label, loc)
        self.nets.append(net)
        return net

    def input_net(self, label: str, loc=None) -> Net:
        return self._new(INPUT, (), label, loc)

    def gate_or(self, inputs: Sequence[Literal], label: str = "or", loc=None) -> Net:
        return self._new(OR, inputs, label, loc)

    def gate_and(self, inputs: Sequence[Literal], label: str = "and", loc=None) -> Net:
        return self._new(AND, inputs, label, loc)

    def const0(self) -> Net:
        if self._const0 is None:
            self._const0 = self.gate_or((), "const0")
        return self._const0

    def const1(self) -> Net:
        if self._const1 is None:
            self._const1 = self.gate_and((), "const1")
        return self._const1

    def register(self, label: str = "reg", init: bool = False, loc=None) -> Net:
        net = self._new(REG, (), label, loc)
        net.init = init
        return net

    def set_register_input(self, reg: Net, source: Literal) -> None:
        if reg.kind != REG:
            raise CompileError(f"not a register: {reg.describe()}")
        reg.inputs = [source]

    def expr_net(
        self,
        enable: Literal,
        payload: Callable[..., Any],
        deps: Iterable[Net] = (),
        label: str = "expr",
        loc=None,
    ) -> Net:
        net = self._new(EXPR, (enable,), label, loc)
        net.payload = payload
        net.deps = [d.id for d in deps]
        return net

    def action_net(
        self,
        enable: Literal,
        payload: Callable[..., Any],
        deps: Iterable[Net] = (),
        label: str = "action",
        loc=None,
    ) -> Net:
        net = self._new(ACTION, (enable,), label, loc)
        net.payload = payload
        net.deps = [d.id for d in deps]
        return net

    def add_dep(self, net: Net, dep: Net) -> None:
        if dep.id not in net.deps:
            net.deps.append(dep.id)

    def or_into(self, target: Net, source: Literal) -> None:
        """Append a fanin to an OR gate built incrementally (signal nets,
        completion collectors)."""
        if target.kind != OR:
            raise CompileError(f"cannot extend non-OR net {target.describe()}")
        target.inputs.append(source)

    # -- signals / execs / counters -----------------------------------------

    def new_signal(self, name: str, direction: str, init: Any, combine: Any) -> SignalInfo:
        info = SignalInfo(len(self.signals), name, direction, init, combine)
        self.signals.append(info)
        return info

    def new_exec(self, name: str, signal: Optional[SignalInfo], loc=None) -> ExecInfo:
        info = ExecInfo(len(self.execs), name, signal, loc)
        self.execs.append(info)
        return info

    def new_counter(self, loc=None, arity: str = "") -> CounterInfo:
        info = CounterInfo(len(self.counters), loc, arity)
        self.counters.append(info)
        return info

    # -- introspection --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Net-count statistics (the paper's §5.3 size metric)."""
        by_kind: Dict[str, int] = {}
        connections = 0
        for net in self.nets:
            by_kind[net.kind] = by_kind.get(net.kind, 0) + 1
            connections += len(net.inputs) + len(net.deps)
        return {
            "nets": len(self.nets),
            "gates": by_kind.get(AND, 0) + by_kind.get(OR, 0),
            "registers": by_kind.get(REG, 0),
            "inputs": by_kind.get(INPUT, 0),
            "exprs": by_kind.get(EXPR, 0),
            "actions": by_kind.get(ACTION, 0),
            "connections": connections,
            "signals": len(self.signals),
            "execs": len(self.execs),
            "counters": len(self.counters),
        }

    def memory_estimate(self) -> int:
        """Rough deep size in bytes of the net graph (for the §5.3
        memory-footprint experiment)."""
        import sys

        total = sys.getsizeof(self.nets)
        for net in self.nets:
            total += sys.getsizeof(net)
            total += sys.getsizeof(net.inputs)
            total += sum(sys.getsizeof(i) for i in net.inputs)
            total += sys.getsizeof(net.deps)
            total += sum(sys.getsizeof(d) for d in net.deps)
            if net.kind == REG:
                # one boolean of sequential state per register
                total += sys.getsizeof(net.init)
        return total

    def per_machine_state_estimate(self) -> int:
        """Rough size in bytes of the state one *additional* machine
        running this circuit must allocate — the net-values buffer,
        register state, and per-signal/exec/counter runtime slots.  The
        net graph itself (:meth:`memory_estimate`) and the compiled
        evaluation plan are shared across every machine built from one
        compiled module (see :mod:`repro.runtime.fleet`), so fleet
        footprint ≈ shared + members × this."""
        import sys

        pointer = 8
        registers = sum(1 for net in self.nets if net.kind == REG)
        # net values buffer + register state list
        total = sys.getsizeof([]) + pointer * len(self.nets)
        total += sys.getsizeof([]) + pointer * registers
        # RuntimeSignal slot objects (9 __slots__ fields + object header)
        total += (56 + 9 * pointer) * len(self.signals)
        # counters (small ints, list cells) and ExecState objects
        total += pointer * len(self.counters)
        total += (56 + 8 * pointer) * len(self.execs)
        return total

    def __repr__(self) -> str:
        return f"Circuit({self.name}, {len(self.nets)} nets)"


#: how many unresolved nets a :class:`~repro.errors.CausalityError`
#: message names before eliding the rest
CAUSALITY_REPORT_LIMIT = 12


def causality_error(circuit: "Circuit", values: List[Optional[bool]]):
    """Build the one normalized :class:`~repro.errors.CausalityError` every
    reaction backend raises for a synchronous deadlock.

    The unresolved set is collected in *net-id order* (never in scheduler
    iteration order) and the elision past ``CAUSALITY_REPORT_LIMIT`` is
    marked explicitly, so the message — and the ``nets`` attribute — is
    byte-identical whichever backend (worklist, levelized, sparse, or the
    lockstep word engine's scalar fallback) detected the deadlock.
    """
    from repro.errors import CausalityError

    unresolved = sorted(
        (net for net in circuit.nets if values[net.id] is None),
        key=lambda net: net.id,
    )
    nets = [net.describe() for net in unresolved[:CAUSALITY_REPORT_LIMIT]]
    if len(unresolved) > CAUSALITY_REPORT_LIMIT:
        nets.append(f"... and {len(unresolved) - CAUSALITY_REPORT_LIMIT} more")
    return CausalityError(
        f"synchronous deadlock in {circuit.name}: the reaction "
        f"left {len(unresolved)} net(s) undefined (causality cycle)",
        nets,
    )
