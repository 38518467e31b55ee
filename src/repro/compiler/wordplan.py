"""Word-parallel evaluation plans: one gate evaluation per *word* of machines.

A :class:`~repro.runtime.fleet.MachineFleet` holds N instances of one
circuit.  The scalar backends evaluate the shared
:class:`~repro.compiler.plan.EvalPlan` once per member per instant; for a
Skini audience that is thousands of structurally identical sweeps over
mostly identical values.  This module applies the classic bit-parallel
circuit-simulation trick: net ``i`` across all resident members becomes a
single arbitrary-precision Python int (*column*) whose bit ``b`` is the
value of net ``i`` in member ``b``, and each gate is evaluated once per
instant with a bitwise operation over whole columns — ``O(nets)`` word
operations for the entire fleet instead of ``O(nets * members)`` scalar
ones.

:func:`build_word_plan` lowers a *pure* (fully straight-line, no cyclic
relaxation blocks) plan to a generated-and-``compile()``d word function
mirroring the scalar plan statement for statement, in the identical
``(level, net id)`` order:

* OR/AND gates become ``|``/``&`` over column literals (negation is
  ``FM ^ col`` against the instant's member mask);
* REG nets read packed register bitplanes, INPUT nets read per-net input
  masks;
* EXPR nets whose source expression is in the **pure-status fragment**
  (``sig.now`` / ``sig.pre`` / ``!`` / ``&&`` / ``||`` / literals — the
  shape of every plain ``await``/``abort``/``if`` test) are lowered to
  bitwise column expressions: ``sig.now`` reads the signal's status-net
  column (already evaluated, by the plan's data-dependency ordering) and
  ``sig.pre`` reads the fleet's packed previous-instant bitplane.  These
  nets cost zero payload calls however many members await on them.
* remaining EXPR/ACTION nets (valued emissions, atoms, counted delays,
  exec actions) keep their per-member host payloads: the word function
  hands the enable column to a ``FIRE(net_id, mask)`` callback which
  fires the scalar payload for each set bit — in the same straight-line
  net order as every scalar backend, so host-effect interleavings per
  member are byte-identical.

Because the plan is pure, no net is ever ⊥ mid-sweep (every column is
fully defined by the time it is read), so a single value bitplane per net
suffices — the defined-plane of a two-plane ternary encoding would be
identically ``FM`` everywhere.  Constructive-but-cyclic circuits are not
word-eligible and stay on the scalar backends.

Aborts are per-member: when a member's payload raises, ``FIRE`` records
the member in the aborted-mask cell ``AB`` and excludes it from every
later payload; the final register latch masks aborted members out, so a
failed member keeps its pre-instant registers exactly like a failed
scalar reaction.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.lang import expr as E
from repro.compiler.netlist import ACTION, AND, EXPR, INPUT, OR, REG, Circuit
from repro.compiler.plan import EvalPlan


class WordPlan:
    """A compiled word-evaluation function plus its lowering metadata."""

    __slots__ = (
        "plan",
        "source",
        "fn",
        "lowered_ids",
        "fired_ids",
        "pre_slots",
        "status_net_of_slot",
    )

    def __init__(
        self,
        plan: EvalPlan,
        source: str,
        fn: Callable[..., None],
        lowered_ids: Tuple[int, ...],
        fired_ids: Tuple[int, ...],
        pre_slots: Tuple[int, ...],
        status_net_of_slot: Tuple[Tuple[int, int], ...],
    ):
        self.plan = plan
        self.source = source
        self.fn = fn
        #: EXPR net ids lowered to pure bitwise column expressions
        self.lowered_ids = lowered_ids
        #: EXPR/ACTION net ids still firing scalar payloads per member
        self.fired_ids = fired_ids
        #: signal slots whose *previous-instant* status the word function
        #: reads (the fleet must maintain a PRE bitplane for these; it
        #: keeps planes for every slot anyway, this is introspection)
        self.pre_slots = pre_slots
        #: (signal slot, status net id) pairs, for post-sweep status reads
        self.status_net_of_slot = status_net_of_slot

    def describe(self) -> Dict[str, int]:
        return {
            "nets": len(self.plan.circuit.nets),
            "lowered_exprs": len(self.lowered_ids),
            "fired_payload_nets": len(self.fired_ids),
            "pre_plane_slots": len(self.pre_slots),
        }

    def memory_estimate(self) -> int:
        import sys

        return sys.getsizeof(self.source) + sys.getsizeof(self.lowered_ids)

    def __repr__(self) -> str:
        d = self.describe()
        return (
            f"WordPlan({self.plan.circuit.name}, {d['nets']} nets, "
            f"{d['lowered_exprs']} lowered, {d['fired_payload_nets']} fired)"
        )


def _lower_status_expr(
    expr: E.Expr,
    scope: Dict[str, int],
    circuit: Circuit,
    pre_slots: Set[int],
) -> Optional[str]:
    """Lower ``expr`` to a bitwise column expression, or ``None`` when it
    leaves the pure-status fragment.

    Soundness: for every subexpression in the fragment the lowered column
    equals the per-member column of ``truthy(sub.eval(env))``.  The JS
    short-circuit operators return an *operand*, not a coerced boolean,
    but the scalar EXPR statement wraps the payload in ``bool(...)`` —
    and ``truthy(a && b) == truthy(a) and truthy(b)`` (dually ``||``), so
    ``&``/``|`` over truthiness columns is exact, whatever the operand
    values were.
    """
    if isinstance(expr, E.SigRef):
        slot = scope.get(expr.signal)
        if slot is None:
            return None
        if expr.kind == E.NOW:
            status = circuit.signals[slot].status_net
            if status is None:
                return None
            return f"W[{status.id}]"
        if expr.kind == E.PRE:
            pre_slots.add(slot)
            return f"PRE[{slot}]"
        return None  # nowval/preval/signame: host values, not statuses
    if isinstance(expr, E.Lit):
        try:
            return "FM" if E.truthy(expr.value) else "0"
        except Exception:
            return None
    if isinstance(expr, E.UnOp) and expr.op == "!":
        sub = _lower_status_expr(expr.operand, scope, circuit, pre_slots)
        return None if sub is None else f"(FM ^ {sub})"
    if isinstance(expr, E.BinOp) and expr.op in ("&&", "||"):
        left = _lower_status_expr(expr.left, scope, circuit, pre_slots)
        if left is None:
            return None
        right = _lower_status_expr(expr.right, scope, circuit, pre_slots)
        if right is None:
            return None
        op = "&" if expr.op == "&&" else "|"
        return f"({left} {op} {right})"
    return None


def _column(net_id: int, neg: bool) -> str:
    return f"(FM ^ W[{net_id}])" if neg else f"W[{net_id}]"


def build_word_plan(plan: EvalPlan) -> WordPlan:
    """Compile the word function for a pure plan (raises on impure ones:
    cyclic blocks relax through ⊥, which the single-bitplane encoding
    cannot represent — such circuits stay scalar)."""
    if not plan.is_pure:
        raise ValueError(
            f"word plans require a pure straight-line plan; "
            f"{plan.circuit.name!r} has {len(plan.blocks)} cyclic block(s)"
        )
    circuit = plan.circuit
    lev = plan.levelization
    reg_slot = plan.reg_slot
    lowered: List[int] = []
    fired: List[int] = []
    pre_slots: Set[int] = set()

    lines: List[str] = [
        "def __word_react__(W, R, IM, PRE, FM, FIRE, AB):",
        "    G = IM.get",
    ]
    # Identical component order to the scalar plan (see _generate_source):
    # levels strictly increase along augmented edges and ties break by net
    # id, so per-member payload firing order matches every scalar backend.
    for component in sorted(
        lev.order, key=lambda comp: (lev.levels[comp[0]], comp[0])
    ):
        net = circuit.nets[component[0]]
        i = net.id
        kind = net.kind
        if kind == INPUT:
            lines.append(f"    W[{i}] = G({i}, 0)")
        elif kind == REG:
            lines.append(f"    W[{i}] = R[{reg_slot[i]}]")
        elif kind == OR:
            if net.inputs:
                expr = " | ".join(_column(s, n) for s, n in net.inputs)
            else:
                expr = "0"
            lines.append(f"    W[{i}] = {expr}")
        elif kind == AND:
            if net.inputs:
                expr = " & ".join(_column(s, n) for s, n in net.inputs)
            else:
                expr = "FM"
            lines.append(f"    W[{i}] = {expr}")
        elif kind == EXPR or kind == ACTION:
            enable = _column(*net.inputs[0])
            low = None
            if kind == EXPR and net.expr_info is not None:
                low = _lower_status_expr(
                    net.expr_info[0], net.expr_info[1], circuit, pre_slots
                )
            if low is not None:
                lowered.append(i)
                lines.append(f"    W[{i}] = {enable} & {low}")
            else:
                fired.append(i)
                lines.append(f"    _m = {enable}")
                lines.append(f"    W[{i}] = FIRE({i}, _m) if _m else 0")
        else:  # pragma: no cover - exhaustive over net kinds
            raise AssertionError(f"unknown net kind {kind!r}")
    # Latch registers for every non-aborted member; aborted members keep
    # their pre-instant state (a failed scalar reaction never latches).
    lines.append("    _ok = FM ^ AB[0]")
    lines.append("    _nok = ~_ok")
    for net_id, slot in reg_slot.items():
        src, neg = circuit.nets[net_id].inputs[0]
        lines.append(f"    R[{slot}] = (R[{slot}] & _nok) | ({_column(src, neg)} & _ok)")
    source = "\n".join(lines) + "\n"
    namespace: Dict[str, Any] = {}
    exec(compile(source, f"<wordplan:{circuit.name}>", "exec"), namespace)

    status_net_of_slot = tuple(
        (info.slot, info.status_net.id)
        for info in circuit.signals
        if info.status_net is not None
    )
    return WordPlan(
        plan,
        source,
        namespace["__word_react__"],
        tuple(lowered),
        tuple(fired),
        tuple(sorted(pre_slots)),
        status_net_of_slot,
    )
