"""The plan scheduler: compiled straight-line reactions, full or sparse.

:class:`PlanScheduler` is a drop-in replacement for the worklist
:class:`~repro.runtime.scheduler.Scheduler` (same ``values`` / ``state``
/ ``react`` / ``clear_state`` surface, so the reactive machine and the
host payloads cannot tell them apart).  Its *full sweep* calls the
plan's compiled straight-line function, which evaluates every net
exactly once in level order — no queue, no ternary ⊥ bookkeeping, no
per-reaction allocation (the values buffer is recycled with a slice
copy).

Cyclic components the levelization could not sort (constructive-but-
cyclic programs) run as embedded *relaxation blocks*: a local ternary
fixpoint over just those nets, walked over the plan's CSR adjacency
arrays.  Because the constructive least fixpoint is unique and both
engines respect the same data-dependency edges, a reaction observes the
identical signal trace — and the identical
:class:`~repro.errors.CausalityError` — whichever engine runs it.

On a pure plan the scheduler can instead dispatch *sparsely*,
re-evaluating only the nets that can have changed since the previous
reaction (see :class:`PlanScheduler`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReactionBudgetExceeded
from repro.compiler.netlist import ACTION, AND, EXPR, OR, Net, causality_error
from repro.compiler.plan import (
    KIND_ACTION,
    KIND_AND,
    KIND_EXPR,
    KIND_OR,
    KIND_REG,
    EvalPlan,
)

UNKNOWN = None

#: sparse bailout: once the *actually dirty* net count crosses this
#: fraction of the circuit, the sparse evaluator stops heap-propagating
#: and finishes the reaction as a straight-line tail scan — the one
#: bound on a sparse reaction's cost.
SPARSE_BAILOUT_FRACTION = 0.25


class PlanScheduler:
    """Plan-based propagation engine for one circuit (one machine).

    With ``sparse`` off, every reaction is the compiled full sweep.
    With it on — honoured only for a pure plan, since relaxation blocks
    always take the full sweep — the scheduler keeps the previous
    reaction's net values and re-evaluates only the *dirty cone*:

    * **changed inputs** — INPUT nets whose presence differs from the
      previous reaction (detected by comparing the input id sets);
    * **changed registers** — REG nets whose latched state differs from
      the value they showed last reaction (recorded at latch time);
    * **hot payloads** — every EXPR/ACTION net whose enable is currently
      true.  Payloads re-run each instant in the full sweep (they read
      host state — signal values, ``pre``, frame vars, counters — that
      can change without any boolean net changing, and ACTION effects
      must repeat), so sparse mode re-fires exactly the same set.

    Dirty nets are evaluated in the plan's straight-line rank order via
    a min-heap of ranks, and a net's fanout (boolean consumers *and*
    data-dep readers, from the plan's CSR tables) joins the heap only
    when its value actually changed — so work is proportional to real
    activity, not circuit size.  Payloads fire under exactly the same
    conditions and in exactly the same order as the full sweep, which
    makes traces and host-effect interleavings byte-identical (checked
    by ``tests/test_backend_parity.py``).

    The heap loop counts the nets it actually dirtied, and past
    :data:`SPARSE_BAILOUT_FRACTION` of the circuit it degrades to a
    straight-line *tail scan* over the remaining ranks, so a sparse
    reaction never costs more than a full sweep.  The tail scan, unlike
    restarting the compiled sweep, is safe after payloads have already
    fired: every net still gets evaluated exactly once, in the
    straight-line order.

    The first reaction, and the first after :meth:`clear_state` or a
    failed reaction, is a full sweep that rebuilds the change-tracking
    state.  :attr:`last_dirty` holds the net ids the latest reaction
    evaluated, in evaluation order (``None`` after a full sweep), and
    :attr:`last_status` the signal status nets among them, from which
    the reactive machine updates signal statuses incrementally;
    :attr:`last_latched` holds the register slots the latest sparse
    reaction changed.  :attr:`sparse_reactions` and
    :attr:`full_reactions` count the two kinds of reaction.
    """

    def __init__(self, plan: EvalPlan, host: Any, sparse: bool = False):
        self.plan = plan
        self.circuit = plan.circuit
        self.host = host
        n = len(plan.circuit.nets)

        #: per-reaction net values; reused in place every reaction
        self.values: List[Optional[bool]] = [UNKNOWN] * n
        self._blank: Tuple[Optional[bool], ...] = (UNKNOWN,) * n
        #: register state (the sequential memory of the machine)
        self.state: List[bool] = [net.init for net in plan.registers]
        self._registers = plan.registers
        self._blocks: Tuple[Callable[[], bool], ...] = tuple(
            self._make_block(members, riders)
            for members, riders in zip(plan.blocks, plan.block_riders)
        )
        #: reaction deadline, in net evaluations (None = unlimited); set
        #: by the machine before each instant from its remaining budget
        self.budget: Optional[int] = None
        #: net evaluations spent by the last (possibly aborted) reaction
        self.last_evaluated: int = 0
        #: sparse dispatch, fixed for the scheduler's life
        self.sparse = sparse and plan.is_pure
        #: net ids evaluated by the last reaction; None = full sweep
        self.last_dirty: Optional[List[int]] = None
        #: the signal status nets among ``last_dirty``
        self.last_status: Optional[List[int]] = None
        #: register slots whose state the last sparse reaction changed
        self.last_latched: List[int] = []
        #: count of sparse vs full-sweep reactions (introspection)
        self.sparse_reactions = 0
        self.full_reactions = 0
        if self.sparse:
            self._bail_limit = max(int(SPARSE_BAILOUT_FRACTION * n), 64)
            #: INPUT net ids that were present last reaction
            self._prev_present: set = set()
            #: ranks of the REG nets whose state changed at the last latch
            self._dirty_regs: List[int] = []
            #: ranks of the EXPR/ACTION nets whose enable is currently true
            self._hot: set = set()
            #: heap-membership flags by rank, reused across reactions
            self._queued = bytearray(n)
            self._need_full = True

    # ------------------------------------------------------------------

    def value(self, net: Net) -> Optional[bool]:
        return self.values[net.id]

    def react(self, input_values: Dict[int, bool]) -> None:
        """Run one reaction (same contract as the worklist scheduler)."""
        if not self.sparse:
            self._sweep(input_values)
            return
        present = set(input_values)
        if self._need_full:
            self._react_full(input_values, present)
            return
        changed_inputs = present.symmetric_difference(self._prev_present)
        self._need_full = True  # stays set if a payload raises mid-cone
        self._react_sparse(input_values, changed_inputs)
        self._prev_present = present
        self._need_full = False
        self.sparse_reactions += 1

    def clear_state(self) -> None:
        """Reset all registers to their boot values (machine reset)."""
        self.state[:] = [net.init for net in self._registers]
        if self.sparse:
            self._need_full = True
            # Defensive: no queued marker may survive a reset/restore — a
            # stale one would exclude its net from incremental reactions.
            self._queued[:] = bytes(len(self._queued))

    def _sweep(self, input_values: Dict[int, bool]) -> None:
        """The full sweep both modes share: blank the values, run the
        compiled plan, and when a relaxation block failed to converge
        finish the fixpoint and raise the causality error."""
        values = self.values
        self._check_static_budget(len(values))
        values[:] = self._blank
        ok = self.plan.fn(
            values,
            self.state,
            self.plan.payloads,
            self.host,
            input_values.get,
            self._blocks,
        )
        if not ok:
            self._diverge()
        self.full_reactions += 1

    def _check_static_budget(self, evaluations: int) -> None:
        """Full sweeps evaluate a statically known net count, so the
        deadline check is a single comparison *before* anything runs —
        an over-budget sweep aborts cleanly at the instant boundary
        (no payload fired, no register latched).  Relaxation-block
        iterations are charged on top as they happen."""
        self.last_evaluated = evaluations
        if self.budget is not None and evaluations > self.budget:
            raise ReactionBudgetExceeded(
                f"reaction in {self.circuit.name} needs {evaluations} net "
                f"evaluations, exceeding its {self.budget}-net budget",
                budget=self.budget,
                evaluated=evaluations,
            )

    def _charge_budget(self, evaluations: int) -> None:
        """Charge mid-reaction work (relaxation sweeps) to the deadline."""
        self.last_evaluated += evaluations
        if self.budget is not None and self.last_evaluated > self.budget:
            raise ReactionBudgetExceeded(
                f"reaction in {self.circuit.name} exceeded its "
                f"{self.budget}-net evaluation budget while relaxing a "
                f"cyclic block",
                budget=self.budget,
                evaluated=self.last_evaluated,
            )

    # ------------------------------------------------------------------
    # ternary relaxation (cyclic blocks and the divergence error path)
    # ------------------------------------------------------------------

    def _relax_pass(self, net_ids: Iterable[int]) -> bool:
        """One monotone sweep of the ternary least-fixpoint rules over the
        still-unknown nets in ``net_ids``; True when something resolved.

        Matches the worklist semantics net for net: OR resolves to 1 on
        any true fanin and to 0 only when all fanins are 0 (dually AND);
        EXPR/ACTION payloads fire exactly once, after their enable is
        true and every data dependency is resolved.
        """
        plan = self.plan
        values = self.values
        nets = self.circuit.nets
        fanin_index = plan.fanin_index
        fanin_src = plan.fanin_src
        fanin_neg = plan.fanin_neg
        dep_index = plan.dep_index
        dep_ids = plan.dep_ids
        payloads = plan.payloads
        changed = False
        for net_id in net_ids:
            if values[net_id] is not UNKNOWN:
                continue
            kind = nets[net_id].kind
            lo, hi = fanin_index[net_id], fanin_index[net_id + 1]
            if kind == OR or kind == AND:
                want = kind == OR  # the absorbing fanin value
                result: Optional[bool] = not want
                for j in range(lo, hi):
                    value = values[fanin_src[j]]
                    if value is UNKNOWN:
                        if result is not want:
                            result = UNKNOWN
                    elif (value ^ bool(fanin_neg[j])) is want:
                        result = want
                        break
                if result is not UNKNOWN:
                    values[net_id] = result
                    changed = True
            elif kind == EXPR or kind == ACTION:
                enable = values[fanin_src[lo]]
                if enable is UNKNOWN:
                    continue
                if not (enable ^ bool(fanin_neg[lo])):
                    values[net_id] = False
                    changed = True
                    continue
                if any(
                    values[dep_ids[j]] is UNKNOWN
                    for j in range(dep_index[net_id], dep_index[net_id + 1])
                ):
                    continue
                result = payloads[net_id](self.host)
                values[net_id] = bool(result) if kind == EXPR else True
                changed = True
            # REG / INPUT are level-0 sources: always already resolved.
        return changed

    def _make_block(
        self, members: Tuple[int, ...], riders: Tuple[int, ...]
    ) -> Callable[[], bool]:
        """A runner relaxing one cyclic component to its local fixpoint.

        ``riders`` (acyclic payload nets enabled from inside the block)
        join the sweep so their side effects interleave with the block's
        own payloads in net-id order, exactly as the worklist fires a
        wire's fanout in creation order.  They do not gate convergence: a
        rider left unknown here (e.g. a data dependency evaluated after
        this block) is finished by its guarded straight-line statement.
        """
        values = self.values
        sweep = tuple(sorted(members + riders))

        def run() -> bool:
            while self._relax_pass(sweep):
                self._charge_budget(len(sweep))
            return all(values[net_id] is not UNKNOWN for net_id in members)

        return run

    def _diverge(self) -> None:
        """A block failed to converge: finish the global least fixpoint so
        the unresolved set — and therefore the reported error — is
        identical to the worklist scheduler's, then raise."""
        all_ids = range(len(self.circuit.nets))
        while self._relax_pass(all_ids):
            pass
        raise causality_error(self.circuit, self.values)

    # ------------------------------------------------------------------
    # sparse dispatch
    # ------------------------------------------------------------------

    def _react_full(self, input_values: Dict[int, bool], present: set) -> None:
        """The shared full sweep, then a rebuild of the change-tracking
        state from its values."""
        self._sweep(input_values)
        plan = self.plan
        values = self.values
        rank = plan.rank
        # Registers: the sweep showed V[reg] = old state, then latched the
        # new state, so a plain compare yields next reaction's dirty set.
        state = self.state
        self._dirty_regs = [
            rank[reg_id]
            for reg_id, slot in plan.reg_slot.items()
            if state[slot] != values[reg_id]
        ]
        # Hot payloads: every EXPR/ACTION whose enable settled true.
        fanin_index = plan.fanin_index
        fanin_src = plan.fanin_src
        fanin_neg = plan.fanin_neg
        hot = set()
        for net_id in plan.payload_ids:
            lo = fanin_index[net_id]
            if values[fanin_src[lo]] ^ fanin_neg[lo]:
                hot.add(rank[net_id])
        self._hot = hot
        self._prev_present = present
        self.last_dirty = None
        self.last_status = None
        self._need_full = False

    def _react_sparse(self, input_values: Dict[int, bool], changed_inputs: set) -> None:
        """Evaluate the dirty cone: a min-heap of bare ranks, seeded with
        the changed inputs, the changed registers and the hot payloads,
        popped in straight-line order; a net whose value changed queues
        its consumers' ranks.  Every consumer ranks above its producer,
        so a popped rank is never queued again this reaction and its
        queued marker is cleared on the spot."""
        plan = self.plan
        values = self.values
        state = self.state
        rank = plan.rank
        rank_order = plan.rank_order
        kind_code = plan.kind_code
        fanin_index = plan.fanin_index
        fanin_src = plan.fanin_src
        fanin_neg = plan.fanin_neg
        fanout_index = plan.fanout_index
        fanout_rank = plan.fanout_rank
        status_ids = plan.status_ids
        payloads = plan.payloads
        reg_slot = plan.reg_slot
        latch_of_wire = plan.latch_of_wire
        host = self.host
        hot = self._hot
        queued = self._queued

        heap: List[int] = []
        for net_id in changed_inputs:
            r = rank[net_id]
            queued[r] = 1
            heap.append(r)
        for r in self._dirty_regs:
            if not queued[r]:
                queued[r] = 1
                heap.append(r)
        for r in hot:
            if not queued[r]:
                queued[r] = 1
                heap.append(r)
        heapify(heap)

        dirty_order: List[int] = []
        statuses: List[int] = []
        pending_latches: List[Tuple[int, Tuple[Tuple[int, bool, int], ...]]] = []
        budget = self.budget
        bail_limit = self._bail_limit
        # one comparison per net covers both the deadline and the bailout
        limit = bail_limit if budget is None else min(budget, bail_limit)
        try:
            while heap:
                if len(dirty_order) >= limit:
                    if budget is not None and len(dirty_order) >= budget:
                        self.last_evaluated = len(dirty_order)
                        raise ReactionBudgetExceeded(
                            f"reaction in {self.circuit.name} exceeded its "
                            f"{budget}-net evaluation budget",
                            budget=budget,
                            evaluated=len(dirty_order),
                        )
                    # Too much of the circuit is actually dirty: finish
                    # the reaction as a straight-line tail scan from the
                    # next rank on (payloads already fired stay fired and
                    # every remaining net is evaluated exactly once).
                    self._tail_scan(
                        heap[0], input_values, dirty_order, statuses, pending_latches
                    )
                    break
                r = heappop(heap)
                queued[r] = 0
                i = rank_order[r]
                dirty_order.append(i)
                old = values[i]
                kind = kind_code[i]
                # payload nets first: they are most of what a reaction
                # re-evaluates (every hot payload re-fires each instant)
                if kind == KIND_EXPR or kind == KIND_ACTION:
                    lo = fanin_index[i]
                    if values[fanin_src[lo]] ^ fanin_neg[lo]:
                        if kind == KIND_EXPR:
                            new = bool(payloads[i](host))
                        else:
                            payloads[i](host)
                            new = True
                        hot.add(r)
                    else:
                        new = False
                        hot.discard(r)
                elif kind == KIND_AND:
                    new = True
                    for j in range(fanin_index[i], fanin_index[i + 1]):
                        if not (values[fanin_src[j]] ^ fanin_neg[j]):
                            new = False
                            break
                elif kind == KIND_OR:
                    new = False
                    for j in range(fanin_index[i], fanin_index[i + 1]):
                        if values[fanin_src[j]] ^ fanin_neg[j]:
                            new = True
                            break
                    if i in status_ids:
                        statuses.append(i)
                elif kind == KIND_REG:
                    new = state[reg_slot[i]]
                else:  # KIND_INPUT
                    new = i in input_values
                values[i] = new
                if new != old:
                    for j in range(fanout_index[i], fanout_index[i + 1]):
                        succ = fanout_rank[j]
                        if not queued[succ]:
                            queued[succ] = 1
                            heappush(heap, succ)
                    latches = latch_of_wire.get(i)
                    if latches is not None:
                        pending_latches.append((i, latches))
        finally:
            # Whatever stopped the loop (the end, the bailout, a deadline
            # or a payload that raised), no queued marker may survive it:
            # a stale one would silently exclude its net from every later
            # incremental reaction.
            for r in heap:
                queued[r] = 0

        self._latch(pending_latches)
        self.last_dirty = dirty_order
        self.last_status = statuses
        self.last_evaluated = len(dirty_order)

    def _tail_scan(
        self,
        start_rank: int,
        input_values: Dict[int, bool],
        dirty_order: List[int],
        statuses: List[int],
        pending_latches: List[Tuple[int, Tuple[Tuple[int, bool, int], ...]]],
    ) -> None:
        """Finish a bailed-out sparse reaction: evaluate every net from
        ``start_rank`` to the end in straight-line order.  All nets below
        ``start_rank`` are settled (dirty ones were heap-popped in rank
        order, the rest are unchanged), so this is exactly the tail of
        the full sweep — same values, same payload firing order."""
        plan = self.plan
        values = self.values
        state = self.state
        kind_code = plan.kind_code
        fanin_index = plan.fanin_index
        fanin_src = plan.fanin_src
        fanin_neg = plan.fanin_neg
        status_ids = plan.status_ids
        payloads = plan.payloads
        reg_slot = plan.reg_slot
        latch_of_wire = plan.latch_of_wire
        rank_order = plan.rank_order
        host = self.host
        hot = self._hot
        if self.budget is not None:
            # The tail evaluates exactly the remaining ranks, so the
            # deadline check is one comparison up front, not per net.
            total = len(dirty_order) + (len(rank_order) - start_rank)
            if total > self.budget:
                self.last_evaluated = len(dirty_order)
                raise ReactionBudgetExceeded(
                    f"reaction in {self.circuit.name} needs {total} net "
                    f"evaluations after its tail-scan bailout, exceeding "
                    f"its {self.budget}-net budget",
                    budget=self.budget,
                    evaluated=len(dirty_order),
                )
        for r in range(start_rank, len(rank_order)):
            i = rank_order[r]
            old = values[i]
            kind = kind_code[i]
            if kind == KIND_EXPR or kind == KIND_ACTION:
                lo = fanin_index[i]
                if values[fanin_src[lo]] ^ fanin_neg[lo]:
                    if kind == KIND_EXPR:
                        new = bool(payloads[i](host))
                    else:
                        payloads[i](host)
                        new = True
                    hot.add(r)
                else:
                    new = False
                    hot.discard(r)
            elif kind == KIND_AND:
                new = True
                for j in range(fanin_index[i], fanin_index[i + 1]):
                    if not (values[fanin_src[j]] ^ fanin_neg[j]):
                        new = False
                        break
            elif kind == KIND_OR:
                new = False
                for j in range(fanin_index[i], fanin_index[i + 1]):
                    if values[fanin_src[j]] ^ fanin_neg[j]:
                        new = True
                        break
                if i in status_ids:
                    statuses.append(i)
            elif kind == KIND_REG:
                new = state[reg_slot[i]]
            else:  # KIND_INPUT
                new = i in input_values
            values[i] = new
            dirty_order.append(i)
            if new != old:
                latches = latch_of_wire.get(i)
                if latches is not None:
                    pending_latches.append((i, latches))

    def _latch(
        self,
        pending_latches: List[Tuple[int, Tuple[Tuple[int, bool, int], ...]]],
    ) -> None:
        # Latch only the registers whose input wire was re-evaluated; all
        # other wires kept their value, so their registers keep their
        # state.  Deferred past the evaluation loop so a payload
        # exception cannot leave the register file half-latched.  The
        # changed registers are queued by rank for the next reaction and
        # reported by slot for the machine's checkpoint rows.
        values = self.values
        state = self.state
        rank = self.plan.rank
        dirty_regs: List[int] = []
        latched: List[int] = []
        for wire, latches in pending_latches:
            wire_value = bool(values[wire])
            for slot, neg, reg_id in latches:
                new_state = wire_value ^ neg
                if state[slot] != new_state:
                    state[slot] = new_state
                    dirty_regs.append(rank[reg_id])
                    latched.append(slot)
        self._dirty_regs = dirty_regs
        self.last_latched = latched
