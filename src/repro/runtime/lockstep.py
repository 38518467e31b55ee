"""The lockstep fleet engine: word-parallel reactions over bit-packed state.

:class:`LockstepFleet` is the runtime half of the bit-parallel backend
(the compile half is :mod:`repro.compiler.wordplan`).  It owns the packed
*bitplanes* of every **word-resident** fleet member:

* ``R[k]`` — register slot ``k`` across members (bit ``b`` = the member
  at fleet index ``b``);
* ``NOW[s]`` / ``PRE[s]`` — signal slot ``s``'s current/previous-instant
  presence across members.

One :meth:`react` call runs one logical instant for every addressed
resident member: per-member ``begin_instant`` on the (few) active signal
slots, a plane-level ``pre := now`` roll, one call of the compiled word
function, then plane/attr reconciliation and per-member
:class:`~repro.runtime.machine.ReactionResult` construction.  Members
whose instant stayed *quiescent* (no outputs present, not terminating,
uniform pause bit) share a single result object and are counted by one
epoch tick, so a broadcast over a mostly-idle audience costs a handful
of word operations plus O(active) per *active* member, and nothing per
quiescent one.

Invariants the engine maintains (and the parity suite checks):

* **Attrs are authoritative.**  Every member's ``RuntimeSignal``
  attributes (``now``/``pre``/``nowval``/``preval``/``emitted``),
  ``terminated``, counters, exec slots and frame are kept exactly as the
  scalar backends would — mid-instant payload reads (``sig.pre``,
  ``sig.nowval``) and between-instant host reads see identical values.
  Planes are a packed mirror used only by the word function.
* **A member's bit is its fleet index.**  No slot allocator and no
  cached batch partition: a full broadcast's scalar members are the set
  bits of ``all & ~resident``, results and failures come back keyed by
  index, and every per-member loop of an instant walks set bits, never
  the whole fleet.
* **Divergence demotes.**  Anything the word cannot express — exec-block
  activity, deferred sub-instants, payload failures, or any external
  access to the machine (direct ``react``/``snapshot``/``restore``/
  ``reset``/``replay``, journal or mailbox attachment) — exports the
  member's bits back into its scalar scheduler (the exact
  ``restore()`` pattern) and clears its bit in *every* plane, so a later
  promotion only ORs true bits into zeroed columns.
* **Demoted members rejoin before the next full broadcast.**  A demotion
  records the member's bit; the next full broadcast (:meth:`rejoin`)
  re-promotes the eligible ones *before* its word instant, so the word
  serves them and a broadcast after k taps costs O(k) promotions, not k
  scalar reactions.  A member still ineligible then (a reaction budget,
  a running exec) reacts scalar and rejoins after a later clean scalar
  reaction in a fleet batch.
* **The engine holds the broadcast's count.**  A resident member's
  ``_reactions`` is its instant count minus :attr:`LockstepFleet.epoch`
  (``promote`` subtracts the epoch, ``demote`` adds it back), and
  ``reaction_count`` adds the epoch while it is resident.  Every word
  instant ticks the epoch once, and the residents that did not complete
  it (not addressed, failed inputs) give the tick back, so a broadcast
  touches only the members that changed and a quiescent resident costs
  nothing per broadcast.  Aborted members are demoted before the count;
  members demoted after it (exec activity, deferred work) keep the tick.
* **Failure is per-member.**  A payload exception aborts only that
  member's bit: its registers stay unlatched, its statuses absent, its
  ``reaction_count`` unincremented and the exception is reported through
  the fleet's :class:`~repro.errors.FleetReactionError`, exactly like a
  failed scalar reaction.

The one observable (and documented) difference from driving members
scalar-by-scalar: payload host effects are interleaved net-major (net
order outer, member order inner) instead of member-major.  *Per member*
the effect order is byte-identical; only host sinks shared across
members can see the transposed interleaving.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import MachineError
from repro.compiler.plan import KIND_ACTION
from repro.compiler.wordplan import WordPlan, build_word_plan
from repro.runtime.machine import ReactionResult, ReactiveMachine

#: demotion causes, in the order stats report them
DEMOTION_CAUSES = ("external", "exec", "deferred", "error")

#: set-bit positions per byte value, for O(members/8) column iteration
_BYTE_BITS = tuple(
    tuple(b for b in range(8) if (value >> b) & 1) for value in range(256)
)


def bits_of(mask: int) -> List[int]:
    """The set bit positions of ``mask``, ascending (byte-table walk:
    linear in the column width, not quadratic like repeated shifting)."""
    out: List[int] = []
    if not mask:
        return out
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for b in _BYTE_BITS[byte]:
                out.append(base + b)
        base += 8
    return out


class _WordValues:
    """Member-slice view of the net columns: ``values[i]`` is member
    ``bit``'s value of net ``i``, so :class:`_MachineEnv.signal_now`
    reads resolve against the in-progress word sweep."""

    __slots__ = ("W", "bit")

    def __init__(self) -> None:
        self.W: List[int] = []
        self.bit = 0

    def __getitem__(self, net_id: int) -> int:
        return (self.W[net_id] >> self.bit) & 1


class _WordView:
    """Stand-in scheduler installed on a member while one of its payloads
    fires from the word sweep; only ``.values`` is ever read mid-payload."""

    __slots__ = ("values",)

    def __init__(self, values: _WordValues) -> None:
        self.values = values


class LockstepFleet:
    """Packed-state store and word-reaction engine for one fleet (see the
    module docstring; constructed by :class:`~repro.runtime.fleet.MachineFleet`
    when the plan is pure and the backend policy enables lockstep)."""

    def __init__(self, plan: Any, word_plan: Optional[WordPlan] = None):
        if not plan.is_pure:
            raise MachineError(
                f"backend='lockstep' requires a pure straight-line plan; "
                f"{plan.circuit.name!r} has cyclic relaxation blocks "
                f"(constructive-but-cyclic circuits stay on the scalar "
                f"backends)"
            )
        self.plan = plan
        self.word_plan = word_plan or build_word_plan(plan)
        circuit = plan.circuit
        self._payloads = plan.payloads
        self._kind_code = plan.kind_code
        self._k0 = circuit.k0_net.id
        self._k1 = circuit.k1_net.id
        #: (slot, status net id) for every signal instance
        self._status_pairs = self.word_plan.status_net_of_slot
        self._iface_slots: Tuple[Tuple[str, int], ...] = tuple(
            (name, info.slot) for name, info in circuit.interface.items()
        )
        self._out_slots: Tuple[Tuple[str, int, int], ...] = tuple(
            (name, info.slot, info.status_net.id)
            for name, info in circuit.interface.items()
            if info.direction in ("out", "inout")
        )
        self._interface = circuit.interface
        self._valid_inputs = sorted(
            name
            for name, info in circuit.interface.items()
            if info.input_net is not None
        )
        self._has_execs = bool(circuit.execs)
        self._init_reg_slots = tuple(
            slot for slot, net in enumerate(plan.registers) if net.init
        )

        # -- bitplanes ---------------------------------------------------
        self.R: List[int] = [0] * len(plan.registers)
        self.NOW: List[int] = [0] * len(circuit.signals)
        self.PRE: List[int] = [0] * len(circuit.signals)

        # -- membership (a member's bit is its fleet index) ---------------
        self._member_of: Dict[int, ReactiveMachine] = {}
        self._actives: Dict[int, Set[int]] = {}
        self._resident = 0
        self._term = 0
        #: bits whose active-slot set is non-empty (lets the word instant
        #: skip begin_instant and the slow epilogue for inert members)
        self._active_bits = 0
        #: bits demoted since the last full broadcast (:meth:`rejoin`)
        self._demoted = 0
        #: instants counted for every resident member at once: a resident
        #: member's ``reaction_count`` is its ``_reactions`` plus this
        self.epoch = 0

        # -- per-react scratch (rebound each instant) --------------------
        self._run = 0
        self._ab = [0]
        self._fired_bits = 0
        self._fire_errors: Dict[int, Exception] = {}
        self._values = _WordValues()
        self._view = _WordView(self._values)

        # -- observability ----------------------------------------------
        self.promotions = 0
        self.demotions: Dict[str, int] = {cause: 0 for cause in DEMOTION_CAUSES}
        self.word_instants = 0
        self.payload_fires = 0
        self.shared_results = 0
        self.special_results = 0

    # ------------------------------------------------------------------
    # membership: promotion and demotion
    # ------------------------------------------------------------------

    @property
    def resident_count(self) -> int:
        return len(self._member_of)

    def eligible(self, machine: ReactiveMachine) -> bool:
        """A member can live in the word only while nothing about it
        needs scalar machinery between instants: no journal or mailbox
        (those wrap ``react`` with per-instant bookkeeping), no reaction
        budget, no live or pending exec invocation, no queued deferred
        reactions, and not mid-react/replay."""
        return (
            machine._journal is None
            and machine._mailbox is None
            and machine.reaction_budget is None
            and not machine._deferred
            and not machine._reacting
            and not machine._replaying
            and not any(s.running or s.pending for s in machine._execs)
        )

    def try_promote(self, machine: ReactiveMachine, bit: int) -> bool:
        if machine._lockstep is not None or not self.eligible(machine):
            return False
        self.promote(machine, bit)
        return True

    def rejoin(self, machines: List[ReactiveMachine]) -> int:
        """Before a full broadcast's word instant: re-promote the eligible
        members demoted since the last one (``machines`` is the fleet's
        roster, indexed by bit), so the word serves them instead of a
        scalar reaction each.  Returns the resident mask."""
        demoted, self._demoted = self._demoted, 0
        for bit in bits_of(demoted):
            self.try_promote(machines[bit], bit)
        return self._resident

    def promote(self, machine: ReactiveMachine, bit: int) -> None:
        """Import ``machine``'s between-instant state into the planes at
        ``bit``, its fleet index.  The machine keeps its scalar scheduler
        (stale while resident); :meth:`demote` re-exports before any
        scalar code touches it."""
        mask = 1 << bit
        self._member_of[bit] = machine
        self._resident |= mask
        machine._lockstep = self
        machine._lockstep_bit = bit
        machine._reactions -= self.epoch
        R = self.R
        for slot, value in enumerate(machine._scheduler.state):
            if value:
                R[slot] |= mask
        # One walk over the signals builds the active set (the slots
        # that are not inert, as _rebuild_tracking defines it) and the
        # presence planes; the machine's own tracking sets stay stale
        # while it is resident and demote() rebuilds them.
        NOW, PRE = self.NOW, self.PRE
        active = set()
        for sig in machine._signals:
            if sig.now:
                NOW[sig.slot] |= mask
            elif not (sig.pre or sig.emitted or sig.nowval is not sig.preval):
                continue
            if sig.pre:
                PRE[sig.slot] |= mask
            active.add(sig.slot)
        machine._touched_slots.clear()
        self._actives[bit] = active
        if active:
            self._active_bits |= mask
        if machine.terminated:
            self._term |= mask
        self.promotions += 1

    def promote_fresh(self, machines: List[ReactiveMachine], start: int) -> int:
        """Bulk-promote freshly spawned members at fleet indices
        ``start, start + 1, ...``: they all carry the boot pattern (init
        registers, inert signals), so the planes take one OR of a
        contiguous mask per init register instead of a per-member state
        walk.  Returns how many were promoted (0 when the fleet's machine
        defaults make members ineligible, e.g. a reaction budget)."""
        if not machines or not self.eligible(machines[0]):
            return 0
        epoch = self.epoch
        for bit, machine in enumerate(machines, start):
            self._member_of[bit] = machine
            machine._lockstep = self
            machine._lockstep_bit = bit
            machine._reactions -= epoch
            self._actives[bit] = set()
        mask_new = ((1 << len(machines)) - 1) << start
        self._resident |= mask_new
        R = self.R
        for slot in self._init_reg_slots:
            R[slot] |= mask_new
        self.promotions += len(machines)
        return len(machines)

    def demote(self, machine: ReactiveMachine, cause: str) -> None:
        """Export ``machine``'s bits back into its scalar scheduler and
        signal-tracking sets (the ``restore()`` pattern: ``clear_state``
        flags sparse dispatch for a rebuilding full sweep), then zero
        its bit in every plane so a later promotion starts from zeroed
        columns; the next full broadcast re-admits it (:meth:`rejoin`)."""
        bit = machine._lockstep_bit
        mask = 1 << bit
        inv = ~mask
        scheduler = machine._scheduler
        scheduler.clear_state()
        state = scheduler.state  # fetched after clear_state: may rebind
        R = self.R
        for slot in range(len(state)):
            state[slot] = bool(R[slot] & mask)
            R[slot] &= inv
        NOW, PRE = self.NOW, self.PRE
        for slot in range(len(NOW)):
            NOW[slot] &= inv
            PRE[slot] &= inv
        machine._rebuild_tracking()
        del self._member_of[bit]
        del self._actives[bit]
        self._resident &= inv
        self._term &= inv
        self._active_bits &= inv
        self._demoted |= mask
        machine._lockstep = None
        machine._lockstep_bit = -1
        machine._reactions += self.epoch
        self.demotions[cause] = self.demotions.get(cause, 0) + 1

    # ------------------------------------------------------------------
    # the word instant
    # ------------------------------------------------------------------

    def _fire(self, net_id: int, enable_col: int) -> int:
        """Fire net ``net_id``'s scalar payload for every enabled,
        non-aborted member of the running word; returns the result
        column.  A raising payload aborts only that member's bit."""
        enable_col &= self._run & ~self._ab[0]
        if not enable_col:
            return 0
        self._fired_bits |= enable_col
        payload = self._payloads[net_id]
        is_action = self._kind_code[net_id] == KIND_ACTION
        members = self._member_of
        values = self._values
        view = self._view
        out = 0
        for bit in bits_of(enable_col):
            machine = members[bit]
            values.bit = bit
            saved = machine._scheduler
            machine._scheduler = view
            machine._reacting = True
            self.payload_fires += 1
            try:
                result = payload(machine)
            except Exception as err:
                self._ab[0] |= 1 << bit
                self._fire_errors[bit] = err
                continue
            finally:
                machine._reacting = False
                machine._scheduler = saved
            if is_action or result:
                out |= 1 << bit
        return out

    def react(
        self,
        run: int,
        shared: Optional[Dict[str, Any]] = None,
        inputs: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> Tuple[
        Optional[ReactionResult],
        Dict[int, ReactionResult],
        Dict[int, Exception],
    ]:
        """One instant for the resident members whose bits (fleet indices)
        are set in ``run``.  When ``shared`` is not None every member got
        that same input map (the broadcast fast path, enabling the shared
        quiescent result); otherwise ``inputs`` maps each bit to its own.

        Returns ``(default_result, specials, failures)``, keyed by fleet
        index: members in neither dict produced ``default_result``.
        """
        members = self._member_of
        actives = self._actives
        interface = self._interface
        began = run
        failures: Dict[int, Exception] = {}
        specials: Dict[int, ReactionResult] = {}

        # 1. begin_instant, per member over its active slots only (a
        # no-op on inert signals, and every non-inert slot is active by
        # the promote/refresh invariants — members with empty active
        # sets are skipped wholesale via the _active_bits mask).
        for bit in bits_of(began & self._active_bits):
            signals = members[bit]._signals
            for slot in actives[bit]:
                signals[slot].begin_instant()

        # 2. plane-level pre := now roll for every member that began the
        # instant (exact for inert slots too: both bits are zero).
        NOW, PRE = self.NOW, self.PRE
        not_began = ~began
        for slot in range(len(NOW)):
            now_col = NOW[slot]
            PRE[slot] = (PRE[slot] & not_began) | (now_col & began)
            NOW[slot] = now_col & not_began

        # 3. inputs: presence columns for the word function, value writes
        # on the member signals.  Scalar parity on a bad name: writes
        # before it stand, the member fails without running the sweep.
        IM: Dict[int, int] = {}
        written_shared: List[Tuple[int, Any]] = []
        if shared is not None:
            run_bits = bits_of(run) if shared else ()
            for name, value in shared.items():
                info = interface.get(name)
                if info is None or info.input_net is None:
                    err = MachineError(
                        f"unknown input signal {name!r}; machine inputs: "
                        f"{self._valid_inputs}"
                    )
                    for bit in run_bits:
                        failures[bit] = err
                        machine = members[bit]
                        machine._failed_reactions += 1
                        machine._deferred.clear()
                    run = 0
                    break
                slot = info.slot
                written_shared.append((slot, value))
                IM[info.input_net.id] = run
                for bit in run_bits:
                    sig = members[bit]._signals[slot]
                    # begin_instant reset emitted, so this is the first
                    # write of the instant: plain assignment, no combine
                    sig.nowval = value
                    sig.emitted = 1
                    # active immediately: if this instant fails (a later
                    # input name is unknown), the next begin_instant must
                    # still reset this signal's emit counter
                    actives[bit].add(slot)
                self._active_bits |= began
        else:
            for bit, member_inputs in inputs.items():
                machine = members[bit]
                signals = machine._signals
                for name, value in member_inputs.items():
                    info = interface.get(name)
                    if info is None or info.input_net is None:
                        failures[bit] = MachineError(
                            f"unknown input signal {name!r}; machine "
                            f"inputs: {self._valid_inputs}"
                        )
                        machine._failed_reactions += 1
                        machine._deferred.clear()
                        run &= ~(1 << bit)
                        break
                    slot = info.slot
                    sig = signals[slot]
                    sig.nowval = value
                    sig.emitted = 1
                    actives[bit].add(slot)
                    self._active_bits |= 1 << bit
                    IM[info.input_net.id] = IM.get(info.input_net.id, 0) | (
                        1 << bit
                    )

        # 4. the compiled word sweep (one evaluation per net per word)
        W = [0] * len(self.plan.circuit.nets)
        self._values.W = W
        self._run = run
        self._ab[0] = 0
        self._fired_bits = 0
        self._fire_errors.clear()
        if run:
            self.word_instants += 1
            self.word_plan.fn(W, self.R, IM, PRE, run, self._fire, self._ab)
        aborted = self._ab[0]
        ok = run & ~aborted

        # 5. reconcile planes and attrs; collect the specials mask.
        out_present = 0
        for slot, status_id in self._status_pairs:
            col = W[status_id] & ok
            if col:
                NOW[slot] |= col
                self._active_bits |= col
                for bit in bits_of(col):
                    members[bit]._signals[slot].now = True
                    actives[bit].add(slot)
        k0_col = W[self._k0] & ok
        k1_col = W[self._k1] & ok
        if k0_col:
            for bit in bits_of(k0_col):
                members[bit].terminated = True
            self._term |= k0_col
        for name, slot, status_id in self._out_slots:
            out_present |= W[status_id] & ok

        # Aborted members: scalar failed-react semantics (registers were
        # masked out of the latch by the word function; statuses absent;
        # count the failure) and a demotion, so they rejoin with freshly
        # rebuilt tracking state.
        for bit in bits_of(aborted):
            machine = members[bit]
            failures[bit] = self._fire_errors[bit]
            machine._failed_reactions += 1
            machine._deferred.clear()
            self.demote(machine, "error")

        # Count the instant before the epilogue's listeners can read it:
        # one epoch tick, given back by the residents that did not
        # complete it (not addressed, or their inputs failed).
        self.epoch += 1
        for bit in bits_of(self._resident & ~ok):
            members[bit]._reactions -= 1

        special_mask = out_present | k0_col | (self._term & ok)
        if shared is None:
            special_mask = ok
        shared_bits = ok & ~special_mask
        if shared_bits:
            k1_shared = k1_col & shared_bits
            if k1_shared and k1_shared != shared_bits:
                # non-uniform pause bit: the minority side gets
                # individual results, the majority keeps the shared one
                if 2 * k1_shared.bit_count() <= shared_bits.bit_count():
                    special_mask |= k1_shared
                else:
                    special_mask |= shared_bits ^ k1_shared
                shared_bits = ok & ~special_mask

        # 6. per-member epilogue: results, active-set refresh, divergence
        # demotions, deferred drains.
        default_result: Optional[ReactionResult] = None
        if shared_bits:
            shared_paused = bool(k1_col & shared_bits)
            written_slot_set = {slot for slot, _ in written_shared}
            shared_statuses = {
                name: slot in written_slot_set
                for name, slot in self._iface_slots
            }
            default_result = ReactionResult(
                {}, shared_statuses, False, shared_paused
            )
            self.shared_results += shared_bits.bit_count()

        # Quiescent members with inert signal sets and no payload fires
        # this instant need nothing from the epilogue: their result is
        # the shared one, their active sets stay empty, no payload can
        # have queued deferred work or started an exec, the listener walk
        # over an empty emitted dict is a no-op, and the epoch counted
        # them.  Only the rest are visited.
        slow = ok & ~(shared_bits & ~self._active_bits & ~self._fired_bits)
        iface_slots = self._iface_slots
        out_names = {slot: name for name, slot, _ in self._out_slots}
        has_execs = self._has_execs
        for bit in bits_of(slow):
            machine = members[bit]
            signals = machine._signals

            # active-set refresh: written slots were added at write time;
            # present slots were added above; payload value writes
            # (emit_value/init_signal) landed in _touched_slots; prune
            # whatever went inert.
            active = actives[bit]
            touched = machine._touched_slots
            if touched:
                active.update(touched)
                touched.clear()
            for slot in tuple(active):
                sig = signals[slot]
                if not (
                    sig.now
                    or sig.pre
                    or sig.emitted
                    or sig.nowval is not sig.preval
                ):
                    active.discard(slot)
            if active:
                self._active_bits |= 1 << bit
            else:
                self._active_bits &= ~(1 << bit)

            if (special_mask >> bit) & 1:
                emitted: Dict[str, Any] = {}
                statuses: Dict[str, bool] = {}
                for name, slot in iface_slots:
                    sig = signals[slot]
                    statuses[name] = sig.now
                    if sig.now and slot in out_names:
                        emitted[name] = sig.nowval
                specials[bit] = ReactionResult(
                    emitted,
                    statuses,
                    machine.terminated,
                    bool((k1_col >> bit) & 1),
                )
                self.special_results += 1
                machine._notify_listeners(emitted)

            # divergence: exec activity or queued sub-instants leave the
            # word; the deferred chain then drains scalar with react()'s
            # exception semantics.
            deferred = machine._deferred
            if deferred or (
                has_execs
                and any(s.running or s.pending for s in machine._execs)
            ):
                self.demote(machine, "deferred" if deferred else "exec")
                if deferred:
                    try:
                        while deferred:
                            machine._react_once(deferred.pop(0))
                    except Exception as err:
                        machine._failed_reactions += 1
                        deferred.clear()
                        failures[bit] = err
                        specials.pop(bit, None)

        return default_result, specials, failures

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "resident": len(self._member_of),
            "promotions": self.promotions,
            "demotions": dict(self.demotions),
            "word_instants": self.word_instants,
            "payload_fires": self.payload_fires,
            "shared_results": self.shared_results,
            "special_results": self.special_results,
            "lowered_nets": len(self.word_plan.lowered_ids),
            "fired_nets": len(self.word_plan.fired_ids),
        }

    def memory_bytes(self) -> Dict[str, int]:
        """The packed-column memory split: whole-fleet register planes
        vs status planes vs the shared compiled word plan."""
        register_planes = sys.getsizeof(self.R) + sum(
            sys.getsizeof(col) for col in self.R
        )
        status_planes = (
            sys.getsizeof(self.NOW)
            + sys.getsizeof(self.PRE)
            + sum(sys.getsizeof(col) for col in self.NOW)
            + sum(sys.getsizeof(col) for col in self.PRE)
        )
        plan_bytes = self.word_plan.memory_estimate()
        return {
            "register_plane_bytes": register_planes,
            "status_plane_bytes": status_planes,
            "word_plan_bytes": plan_bytes,
            "total_bytes": register_planes + status_planes + plan_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"LockstepFleet({self.plan.circuit.name}, "
            f"{len(self._member_of)} resident, "
            f"{self.word_instants} word instants)"
        )
