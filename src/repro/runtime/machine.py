"""The reactive machine (paper §2.2.1 and §5): the JavaScript-facing — here
Python-facing — wrapper around the compiled circuit.

Typical use::

    from repro import ReactiveMachine
    from repro.syntax import parse_module

    M = ReactiveMachine(parse_module(SOURCE))
    result = M.react({"name": "alice", "passwd": "secret"})
    if result["enableLogin"]:
        ...
    print(M.connState.nowval)

Each :meth:`react` call is one synchronous reaction: atomic, deterministic,
and linear-time in the circuit size.  Input signals are passed as a dict
(presence implied by the key, value attached when meaningful); output
signal statuses and values are returned and also exposed as attributes.

Asynchronous integration: ``async`` bodies receive an
:class:`~repro.runtime.execblock.ExecHandle` bound to ``this``; its
``notify(v)`` completes the async (emitting the completion signal at the
next reaction) and ``react(inputs)`` queues a machine reaction — both safe
to call from host callbacks.  Reactions requested *during* a reaction are
deferred and run immediately after it, preserving atomicity.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Union

from repro.errors import (
    MachineError,
    ReactionBudgetExceeded,
    SignalError,
    SnapshotError,
)
from repro.lang import ast as A
from repro.lang import expr as E
from repro.lang.signals import LOCAL
from repro.compiler.compile import CompiledModule, CompileOptions, compile_cached
from repro.runtime.execblock import ExecFailure, ExecHandle, ExecState
from repro.runtime.fastsched import PlanScheduler
from repro.runtime.ingress import Mailbox
from repro.runtime.journal import JournalEntry
from repro.runtime.scheduler import Scheduler
from repro.runtime.signal import RuntimeSignal, SignalView

BACKENDS = ("auto", "sparse", "levelized", "worklist")

#: the ``reaction_budget="auto"`` deadline, in full-sweep equivalents:
#: generous enough that no legitimate instant (even a bailed-out sparse
#: reaction plus a long-but-finite deferred chain) comes near it, tight
#: enough that a runaway deferred-reaction loop aborts after a bounded
#: amount of work instead of hanging the host loop.
AUTO_BUDGET_SWEEPS = 64

#: version tag of the :meth:`ReactiveMachine.snapshot` payload layout
SNAPSHOT_FORMAT = 1


def snapshot_checksum(payload: Mapping) -> str:
    """Content checksum of a snapshot payload: sha256 over the canonical
    JSON rendering of everything except the ``checksum`` field itself.

    Computed over the JSON form (``sort_keys``, tuples collapse to
    lists, non-JSON values render through ``repr``), so the checksum is
    stable across a JSON round-trip to disk or over a pipe — the
    transports snapshots actually cross."""
    body = {key: value for key, value in payload.items() if key != "checksum"}
    data = json.dumps(body, sort_keys=True, default=repr)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()

#: Below this circuit size the compiled full sweep is cheaper than sparse
#: dispatch's per-reaction bookkeeping (heap, dirty sets, incremental
#: statuses), so ``auto`` keeps small machines on the levelized backend.
#: Measured crossover on steady-state Skini scores is ~250 nets.
SPARSE_MIN_NETS = 256


class ReactionResult(Mapping):
    """The outcome of one reaction: a mapping of the *present* output
    signals to their values, plus machine status flags."""

    def __init__(
        self,
        emitted: Dict[str, Any],
        statuses: Union[Dict[str, bool], Callable[[], Dict[str, bool]]],
        terminated: bool,
        paused: bool,
    ):
        self._emitted = emitted
        # Either the statuses dict itself, or a zero-arg factory building
        # it on first access — the sparse backend defers the O(interface)
        # dict so a steady-state reaction that nobody inspects stays
        # proportional to activity, not interface size.
        self._statuses = statuses
        self.terminated = terminated
        self.paused = paused

    @property
    def statuses(self) -> Dict[str, bool]:
        if callable(self._statuses):
            self._statuses = self._statuses()
        return self._statuses

    def __getitem__(self, name: str) -> Any:
        return self._emitted[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._emitted)

    def __len__(self) -> int:
        return len(self._emitted)

    def present(self, name: str) -> bool:
        return name in self._emitted

    def __repr__(self) -> str:
        flags = " terminated" if self.terminated else ""
        return f"ReactionResult({self._emitted!r}{flags})"


class _MachineEnv(E.EvalEnv):
    """Evaluation environment for compiled expressions: signal accesses
    resolve through a lexical-scope snapshot; free identifiers resolve in
    the machine frame, then in the host globals."""

    __slots__ = ("_machine", "_scope")

    def __init__(self, machine: "ReactiveMachine", scope: Dict[str, int]):
        self._machine = machine
        self._scope = scope

    def _signal(self, name: str) -> RuntimeSignal:
        try:
            return self._machine._signals[self._scope[name]]
        except KeyError:
            raise SignalError(f"signal {name!r} not in scope") from None

    def signal_now(self, name: str) -> bool:
        signal = self._signal(name)
        if self._machine._reacting:
            info = self._machine.compiled.circuit.signals[signal.slot]
            status = self._machine._scheduler.values[info.status_net.id]
            if status is None:
                raise SignalError(
                    f"status of {name!r} read before it was resolved "
                    "(missing data dependency)"
                )
            return bool(status)
        return signal.now

    def signal_pre(self, name: str) -> bool:
        return self._signal(name).pre

    def signal_nowval(self, name: str) -> Any:
        return self._signal(name).nowval

    def signal_preval(self, name: str) -> Any:
        return self._signal(name).preval

    def signal_name(self, name: str) -> str:
        return self._signal(name).bound_name

    def lookup(self, name: str) -> Any:
        frame = self._machine.frame
        if name in frame:
            return frame[name]
        host = self._machine.host_globals
        if name in host:
            return host[name]
        raise KeyError(name)

    def assign(self, name: str, value: Any) -> None:
        self._machine.frame[name] = value


ModuleLike = Union[A.Module, CompiledModule]


class ReactiveMachine:
    """A compiled HipHop program ready to react."""

    def __init__(
        self,
        module: ModuleLike,
        modules: Optional[A.ModuleTable] = None,
        options: Optional[CompileOptions] = None,
        host_globals: Optional[Dict[str, Any]] = None,
        loop: Optional[Any] = None,
        on_exec_error: Union[str, Callable[[ExecFailure], None]] = "raise",
        backend: str = "auto",
        reaction_budget: Union[None, int, str] = None,
    ):
        if isinstance(module, CompiledModule):
            self.compiled = module
        else:
            # Raw modules go through the structural compile cache: building
            # N machines of one module compiles (and plans) once.
            self.compiled = compile_cached(module, modules, options)
        self.module = self.compiled.module
        self.name = self.module.name
        self.host_globals: Dict[str, Any] = dict(host_globals or {})
        #: host variable frame (module vars, `let` bindings)
        self.frame: Dict[str, Any] = {}
        self._loop = loop

        circuit = self.compiled.circuit
        #: which reaction backend runs this machine ("sparse", "levelized"
        #: or "worklist"); `backend="auto"` picks sparse dirty-cone
        #: evaluation for large pure straight-line plans, the levelized
        #: full sweep while straight-line statements dominate, and the
        #: worklist otherwise.  "sparse" and "levelized" are the plan
        #: scheduler with its sparse dispatch on or off.
        self.backend = self._select_backend(backend)
        if self.backend == "worklist":
            self._scheduler = Scheduler(circuit, self)
        else:
            self._scheduler = PlanScheduler(
                self.compiled.evaluation_plan(),
                self,
                sparse=self.backend == "sparse",
            )
        self._sparse = self.backend == "sparse"
        # Incremental signal bookkeeping (sparse backend): the slots whose
        # RuntimeSignal is not inert (needs begin_instant), the slots
        # currently present, and the slots written during this reaction.
        self._active_slots: set = set()
        self._present_slots: set = set()
        self._touched_slots: set = set()
        # Checkpoint row reuse (sparse backend): the signal rows of the
        # last capture, or None when the next capture builds every row
        # afresh, and (while there are rows) the slots whose row the next
        # capture must rebuild.
        self._rows: Optional[List[tuple]] = None
        self._recapture: Optional[set] = None
        (
            self._status_slot_of_net,
            self._iface_slots,
            self._out_name_of_slot,
        ) = self._signal_maps()
        self._signals: List[RuntimeSignal] = [
            RuntimeSignal(
                info.slot,
                info.name,
                info.bound_name,
                info.direction,
                self._resolve_combine(info.combine, info.name),
            )
            for info in circuit.signals
        ]
        self._counters: List[int] = [0] * len(circuit.counters)
        self._execs: List[ExecState] = [ExecState(i) for i in range(len(circuit.execs))]
        self._listeners: Dict[str, List[Callable[[Any], None]]] = {}
        self._reacting = False
        self._deferred: List[Dict[str, Any]] = []
        self.terminated = False
        #: the instant count behind :attr:`reaction_count`, minus the
        #: lockstep engine's epoch while the machine is word-resident
        self._reactions = 0
        #: attached write-ahead journal (see :meth:`attach_journal`)
        self._journal: Optional[Any] = None
        #: True while :meth:`replay` re-derives state from the journal:
        #: journaling, listeners and exec host actions are suppressed so
        #: recovery never duplicates an already-performed host effect
        self._replaying = False

        #: what to do with exceptions raised inside exec host actions:
        #: ``"raise"`` (default: record, then propagate), ``"signal:<name>"``
        #: (record and queue a reaction emitting input ``<name>`` with the
        #: error), or a callable invoked with the :class:`ExecFailure`.
        self.on_exec_error = on_exec_error
        self._failed_reactions = 0
        self._exec_failures = 0
        self._breakers: Dict[str, Any] = {}

        #: default reaction deadline, in net evaluations per :meth:`react`
        #: call (covering the instant *and* any deferred sub-instants it
        #: queues): ``None`` = unlimited, ``"auto"`` = a generous multiple
        #: of the circuit's full-sweep cost, or an explicit positive int.
        self.reaction_budget = reaction_budget
        self._budget_left: Optional[int] = None
        self._budget_aborts = 0
        #: attached bounded ingress mailbox (see :meth:`attach_mailbox`)
        self._mailbox: Optional[Mailbox] = None
        #: the lockstep fleet engine this machine is word-resident in,
        #: and its bit slot there (see :mod:`repro.runtime.lockstep`);
        #: while resident, the scalar scheduler's register state is stale
        #: and any scalar access must demote first (:meth:`_ensure_scalar`),
        #: and the engine's epoch holds the part of the instant count
        #: that ``_reactions`` lacks (read :attr:`reaction_count`)
        self._lockstep: Optional[Any] = None
        self._lockstep_bit = -1

        self._boot_values()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _select_backend(self, backend: str) -> str:
        if backend not in BACKENDS:
            raise MachineError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if backend != "auto":
            return backend
        plan = self.compiled.evaluation_plan()
        if plan.is_pure and len(plan.circuit.nets) >= SPARSE_MIN_NETS:
            return "sparse"
        return "levelized" if plan.auto_eligible else "worklist"

    def _signal_maps(self) -> tuple:
        """Shared (per compiled module) signal lookup tables: status-net
        id → slot, interface (name, slot) pairs, and slot → output name
        for the out/inout interface signals."""
        maps = self.compiled._signal_maps
        if maps is None:
            circuit = self.compiled.circuit
            status_slot_of_net = {
                info.status_net.id: info.slot for info in circuit.signals
            }
            iface_slots = tuple(
                (name, info.slot) for name, info in circuit.interface.items()
            )
            out_name_of_slot = {
                info.slot: name
                for name, info in circuit.interface.items()
                if info.direction in ("out", "inout")
            }
            maps = (status_slot_of_net, iface_slots, out_name_of_slot)
            self.compiled._signal_maps = maps
        return maps

    def _resolve_combine(self, combine: Any, signal_name: str) -> Any:
        """Combine functions declared textually (``combine fname``) resolve
        against the host globals at machine construction."""
        if combine is None or callable(combine):
            return combine
        fn = self.host_globals.get(combine)
        if fn is None or not callable(fn):
            raise MachineError(
                f"signal {signal_name!r} declares combine {combine!r}, which is "
                "not a callable in the machine's host globals"
            )
        return fn

    def _boot_values(self) -> None:
        env = self.env_for({})
        for name, init in self.compiled.circuit.frame_vars:
            # vars without an initializer stay unbound so lookups can fall
            # through to the host globals (or to a later instance Assign)
            if name not in self.frame and init is not None:
                self.frame[name] = init.eval(env)
        for info in self.compiled.circuit.signals:
            # a local whose initializer reads a signal gets its value from
            # its in-scope ``siginit`` action on scope entry; the empty
            # boot scope cannot resolve the signals it reads
            if info.init is not None and not (
                info.direction == LOCAL and info.init.signal_deps()
            ):
                value = info.init.eval(env)
                signal = self._signals[info.slot]
                signal.nowval = value
                signal.preval = value

    def attach_loop(self, loop: Any) -> None:
        """Attach a host event loop providing ``call_soon(fn)``; queued
        reactions (from ``this.react`` / ``notify``) are scheduled on it."""
        self._loop = loop

    @property
    def reaction_count(self) -> int:
        """How many instants this machine has completed.  Reading it
        never demotes a word-resident member: the lockstep engine counts
        its broadcasts in one epoch, added here."""
        lockstep = self._lockstep
        if lockstep is None:
            return self._reactions
        return self._reactions + lockstep.epoch

    def _ensure_scalar(self) -> None:
        """Leave the lockstep word before any scalar access: while a
        machine is word-resident its scheduler's register state lives in
        the fleet's packed bitplanes, so direct reacts, snapshots,
        restores, resets, replays and journal/mailbox attachment first
        demote it (exporting the packed bits back).  No-op otherwise, and
        mid-payload (the word engine owns the instant)."""
        if self._lockstep is not None and not self._reacting:
            self._lockstep.demote(self, "external")

    # ------------------------------------------------------------------
    # the public reaction API
    # ------------------------------------------------------------------

    def react(
        self,
        inputs: Optional[Dict[str, Any]] = None,
        budget: Union[None, int, str] = None,
    ) -> ReactionResult:
        """Run one atomic reaction with the given input signals present.

        ``inputs`` maps input-signal names to their emitted values (use
        ``True`` for pure presence).  Returns the present outputs.

        ``budget`` (default: the machine's :attr:`reaction_budget`) is a
        reaction deadline in net evaluations, spent across this instant
        *and* every deferred sub-instant it queues; exhausting it aborts
        the runaway instant with a recoverable
        :class:`~repro.errors.ReactionBudgetExceeded`.
        """
        if self._reacting:
            raise MachineError(
                "reentrant react(): reactions are atomic; use this.react() "
                "from async bodies to queue one"
            )
        self._ensure_scalar()
        limit = self._resolve_budget(budget)
        self._budget_left = limit
        try:
            result = self._react_once(inputs or {})
            # Serve reactions queued by notify()/this.react() during this one.
            while self._deferred:
                if self._budget_left is not None and self._budget_left <= 0:
                    raise ReactionBudgetExceeded(
                        f"machine {self.name!r} exhausted its {limit}-net "
                        f"reaction budget with {len(self._deferred)} deferred "
                        f"reaction(s) still queued (runaway instant)",
                        budget=limit,
                        evaluated=limit - self._budget_left,
                    )
                self._react_once(self._deferred.pop(0))
        except Exception as err:
            self._failed_reactions += 1
            if isinstance(err, ReactionBudgetExceeded):
                self._budget_aborts += 1
            self._deferred.clear()
            raise
        finally:
            self._budget_left = None
        return result

    def _resolve_budget(self, budget: Union[None, int, str]) -> Optional[int]:
        if budget is None:
            budget = self.reaction_budget
        if budget is None:
            return None
        if budget == "auto":
            return AUTO_BUDGET_SWEEPS * len(self.compiled.circuit.nets)
        limit = int(budget)
        if limit <= 0:
            raise MachineError(
                f"reaction budget must be a positive net-evaluation count, "
                f"got {budget!r}"
            )
        return limit

    # ------------------------------------------------------------------
    # bounded ingress (see repro.runtime.ingress)
    # ------------------------------------------------------------------

    def attach_mailbox(
        self,
        mailbox: Optional[Mailbox] = None,
        capacity: int = 64,
        policy: str = "coalesce",
    ) -> Mailbox:
        """Attach a bounded ingress :class:`~repro.runtime.ingress.Mailbox`
        in front of this machine (default: one built by
        :meth:`Mailbox.for_machine`, whose coalescing respects the
        machine's declared combine functions).  Returns the mailbox."""
        self._ensure_scalar()
        if mailbox is None:
            mailbox = Mailbox.for_machine(self, capacity=capacity, policy=policy)
        self._mailbox = mailbox
        return mailbox

    @property
    def mailbox(self) -> Optional[Mailbox]:
        return self._mailbox

    def offer(self, inputs: Optional[Dict[str, Any]] = None) -> str:
        """Offer an input map to the attached mailbox instead of reacting
        immediately; returns the recorded admission decision.  Drain with
        :meth:`pump`.  Requires :meth:`attach_mailbox` first."""
        if self._mailbox is None:
            raise MachineError(
                f"machine {self.name!r} has no mailbox; call attach_mailbox() "
                "before offer()"
            )
        return self._mailbox.offer(inputs or {})

    def pump(
        self,
        max_instants: Optional[int] = None,
        budget: Union[None, int, str] = None,
    ) -> List[ReactionResult]:
        """React through the pending mailbox entries, oldest first, up to
        ``max_instants`` (default: all pending).  Returns the results, one
        per admitted instant."""
        if self._mailbox is None:
            raise MachineError(
                f"machine {self.name!r} has no mailbox; call attach_mailbox() "
                "before pump()"
            )
        results: List[ReactionResult] = []
        remaining = max_instants if max_instants is not None else self._mailbox.pending
        while remaining > 0 and self._mailbox.pending:
            results.append(self.react(self._mailbox.take(), budget=budget))
            remaining -= 1
        return results

    def _react_once(self, inputs: Dict[str, Any]) -> ReactionResult:
        # Write-ahead journaling: record the instant's inputs *and* the
        # exec completions it is about to consume before any state moves,
        # so a crash at any later point replays deterministically.  The
        # commit record after the reaction marks the instant's host
        # effects as delivered; a trailing uncommitted entry tells
        # recovery to redo that instant *live* (effects never happened)
        # rather than replay it silently.
        journal = self._journal if not self._replaying else None
        seq = self._reactions  # scalar here: callers demote first
        if journal is not None:
            journal.append(
                JournalEntry(
                    seq,
                    inputs,
                    [
                        (state.slot, state.pending_value)
                        for state in self._execs
                        if state.running and state.pending
                    ],
                )
            )
        # Reaction deadline: the scheduler charges net evaluations against
        # the remaining budget of this react() call; whatever one
        # (sub-)instant spends is deducted before the next one runs.
        self._scheduler.budget = self._budget_left
        try:
            if self._sparse:
                result = self._react_once_sparse(inputs)
            else:
                result = self._react_once_classic(inputs)
        except BaseException:
            # A failed instant can leave signals written outside the
            # sparse path's change tracking: recapture every row.
            self._rows = None
            raise
        finally:
            if self._budget_left is not None:
                self._budget_left -= self._scheduler.last_evaluated
            self._scheduler.budget = None
        if journal is not None:
            journal.commit(seq)
        return result

    def _react_once_classic(self, inputs: Dict[str, Any]) -> ReactionResult:
        circuit = self.compiled.circuit
        input_values: Dict[int, bool] = {}

        for signal in self._signals:
            signal.begin_instant()

        for name, value in inputs.items():
            info = circuit.interface.get(name)
            if info is None or info.input_net is None:
                valid = sorted(
                    k for k, v in circuit.interface.items() if v.input_net is not None
                )
                raise MachineError(
                    f"unknown input signal {name!r}; machine inputs: {valid}"
                )
            input_values[info.input_net.id] = True
            self._signals[info.slot].write(value)

        for state in self._execs:
            if state.running and state.pending:
                info = circuit.execs[state.slot]
                input_values[info.done_net.id] = True

        self._reacting = True
        try:
            self._scheduler.react(input_values)
        finally:
            self._reacting = False

        # Post-reaction bookkeeping: statuses and outputs.
        values = self._scheduler.values
        emitted: Dict[str, Any] = {}
        statuses: Dict[str, bool] = {}
        for info in circuit.signals:
            present = bool(values[info.status_net.id])
            self._signals[info.slot].now = present
        for name, info in circuit.interface.items():
            signal = self._signals[info.slot]
            statuses[name] = signal.now
            if info.direction in ("out", "inout") and signal.now:
                emitted[name] = signal.nowval

        self._reactions += 1
        if values[circuit.k0_net.id]:
            self.terminated = True
        result = ReactionResult(
            emitted, statuses, self.terminated, bool(values[circuit.k1_net.id])
        )

        self._notify_listeners(emitted)
        return result

    def _react_once_sparse(self, inputs: Dict[str, Any]) -> ReactionResult:
        """The sparse backend's reaction: identical semantics to
        :meth:`_react_once`, but every per-signal step walks only the
        *active* signals (written, present, or carrying rolled-over
        state) rather than the whole interface, so a steady-state
        reaction costs O(activity) end to end.
        """
        circuit = self.compiled.circuit
        signals = self._signals
        input_values: Dict[int, bool] = {}
        touched = self._touched_slots
        touched.clear()

        # begin_instant is a no-op on an inert signal (now/pre False, no
        # emissions, nowval already rolled into preval), and every
        # non-inert signal is in the active set by construction.
        for slot in self._active_slots:
            signals[slot].begin_instant()

        for name, value in inputs.items():
            info = circuit.interface.get(name)
            if info is None or info.input_net is None:
                valid = sorted(
                    k for k, v in circuit.interface.items() if v.input_net is not None
                )
                raise MachineError(
                    f"unknown input signal {name!r}; machine inputs: {valid}"
                )
            input_values[info.input_net.id] = True
            signals[info.slot].write(value)
            touched.add(info.slot)
            # Active immediately, not just at the post-sweep refresh: if
            # this reaction aborts (a later input name is unknown, a
            # payload raises), the next begin_instant must still reset
            # this signal's instant state, exactly like the full-sweep
            # backends do for every slot.
            self._active_slots.add(info.slot)

        for state in self._execs:
            if state.running and state.pending:
                info = circuit.execs[state.slot]
                input_values[info.done_net.id] = True

        self._reacting = True
        try:
            self._scheduler.react(input_values)
        finally:
            self._reacting = False

        values = self._scheduler.values
        dirty = self._scheduler.last_dirty
        if dirty is None:
            # Full sweep (first reaction after boot, restore or a failed
            # instant, or a plan with relaxation blocks): classic
            # post-processing, rebuilding the tracking sets.
            return self._finish_full_sweep(values)

        # Statuses: only signals whose status net was re-evaluated can
        # have changed; everything else keeps last reaction's presence.
        status_slot_of_net = self._status_slot_of_net
        present = self._present_slots
        updated: set = set()
        for net_id in dirty:
            slot = status_slot_of_net.get(net_id)
            if slot is not None:
                updated.add(slot)
                if values[net_id]:
                    signals[slot].now = True
                    present.add(slot)
                else:
                    signals[slot].now = False
                    present.discard(slot)
        for slot in present:
            # Sustained signals: present before, status net untouched this
            # reaction (so still present), but begin_instant cleared `now`.
            if slot not in updated:
                signals[slot].now = True

        # Refresh the active set: only previously-active, written, or
        # status-updated slots can have become (or stayed) non-inert.
        # They are also the only slots whose checkpoint row can change.
        candidates = self._active_slots
        candidates |= touched
        candidates |= updated
        if self._rows is not None:
            self._recapture |= candidates
        active: set = set()
        for slot in candidates:
            signal = signals[slot]
            if (
                signal.now
                or signal.pre
                or signal.emitted
                or signal.nowval is not signal.preval
            ):
                active.add(slot)
        self._active_slots = active

        emitted: Dict[str, Any] = {}
        out_name_of_slot = self._out_name_of_slot
        for slot in sorted(present):
            name = out_name_of_slot.get(slot)
            if name is not None:
                emitted[name] = signals[slot].nowval

        self._reactions += 1
        if values[circuit.k0_net.id]:
            self.terminated = True
        snapshot = frozenset(present)
        iface_slots = self._iface_slots
        result = ReactionResult(
            emitted,
            lambda: {name: (slot in snapshot) for name, slot in iface_slots},
            self.terminated,
            bool(values[circuit.k1_net.id]),
        )

        self._notify_listeners(emitted)
        return result

    def _finish_full_sweep(self, values: List[Optional[bool]]) -> ReactionResult:
        """Post-reaction bookkeeping after a full sweep on the sparse
        backend: same as the classic path, plus a rebuild of the
        present/active tracking sets from scratch; the next capture
        builds every signal row afresh."""
        circuit = self.compiled.circuit
        signals = self._signals
        present: set = set()
        active: set = set()
        for info in circuit.signals:
            slot = info.slot
            signal = signals[slot]
            signal.now = now = bool(values[info.status_net.id])
            if now:
                present.add(slot)
            if (
                now
                or signal.pre
                or signal.emitted
                or signal.nowval is not signal.preval
            ):
                active.add(slot)
        self._present_slots = present
        self._active_slots = active
        self._rows = None

        emitted: Dict[str, Any] = {}
        statuses: Dict[str, bool] = {}
        for name, info in circuit.interface.items():
            signal = signals[info.slot]
            statuses[name] = signal.now
            if info.direction in ("out", "inout") and signal.now:
                emitted[name] = signal.nowval

        self._reactions += 1
        if values[circuit.k0_net.id]:
            self.terminated = True
        result = ReactionResult(
            emitted, statuses, self.terminated, bool(values[circuit.k1_net.id])
        )
        self._notify_listeners(emitted)
        return result

    def _notify_listeners(self, emitted: Dict[str, Any]) -> None:
        """Deliver output emissions to registered listeners — except
        during :meth:`replay`, when the original run already delivered
        them (exactly-once host effects across a recovery)."""
        if self._replaying:
            return
        for name, value in emitted.items():
            for listener in self._listeners.get(name, ()):
                listener(value)

    def queue_react(self, inputs: Dict[str, Any]) -> None:
        """Queue a reaction (callable from anywhere, including from inside
        async bodies during a reaction)."""
        if self._replaying:
            # Replay re-derives state only; queued sub-instants were
            # journaled individually by the original run.
            return
        if self._reacting:
            self._deferred.append(inputs)
        elif self._loop is not None:
            self._loop.call_soon(lambda: self.react(inputs))
        else:
            self.react(inputs)

    def reset(self) -> None:
        """Return the machine to its boot state (registers, signals —
        including per-signal ``emitted`` counters — counters, execs);
        host frame variables are re-initialized.

        The post-reset health contract (see :attr:`health`): zero
        reactions, zero failures, no exec errors, no queued reactions,
        and every breaker registered via :meth:`register_breaker`
        re-armed to its closed state — a reset machine is never born
        degraded by its previous life.
        """
        self._ensure_scalar()
        self._scheduler.clear_state()
        for state in self._execs:
            state.stop()
            state.last_error = None
            state.scope = None
        self._counters = [0] * len(self._counters)
        self._failed_reactions = 0
        self._exec_failures = 0
        self._budget_aborts = 0
        for signal in self._signals:
            signal.now = signal.pre = False
            signal.nowval = signal.preval = None
            signal.emitted = 0
        # Reactions queued during a failed or interrupted instant must not
        # replay into the freshly reset machine.
        self._deferred.clear()
        for breaker in self._breakers.values():
            reset = getattr(breaker, "reset", None)
            if callable(reset):
                reset()
        self.frame = {}
        self.terminated = False
        self._reactions = 0
        self._boot_values()
        self._rebuild_tracking()

    # ------------------------------------------------------------------
    # durability: snapshot / restore / journal replay
    # ------------------------------------------------------------------

    def attach_journal(self, journal: Any) -> Any:
        """Attach a write-ahead input journal (see
        :mod:`repro.runtime.journal`): every subsequent instant appends a
        :class:`~repro.runtime.journal.JournalEntry` *before* reacting.
        Returns the journal.  Pass ``None`` to detach."""
        self._ensure_scalar()
        self._journal = journal
        return journal

    @property
    def journal(self) -> Optional[Any]:
        return self._journal

    def snapshot(self) -> Dict[str, Any]:
        """Serialize exactly the between-instant state as a plain,
        JSON-able dict, sealed with a content ``checksum``.

        The payload holds the register values, per-signal
        ``now``/``pre``/``nowval``/``preval``/``emitted`` rows, ``await
        count`` counters, exec-slot state (running/generation/pending/
        scope/last_error summary), the host ``frame``, ``terminated`` and
        ``reaction_count`` — nothing else, because the synchronous model
        guarantees nothing else persists across instants.  It is stamped
        with the structural compile fingerprint so :meth:`restore`
        refuses payloads from structurally different programs, and
        sealed with :func:`snapshot_checksum` so :meth:`restore` refuses
        a corrupted one.  This is the form for anything that leaves the
        process.

        Snapshots are backend-portable: register order is identical
        across the worklist, levelized and sparse backends, and the
        sparse backend's dirty-set bookkeeping is deliberately *not*
        serialized (it is reconstructed by a full sweep on the first
        post-restore reaction).
        """
        snap = self._capture()
        snap["checksum"] = snapshot_checksum(snap)
        return snap

    def _capture(self) -> Dict[str, Any]:
        """The :meth:`snapshot` payload without its checksum: what an
        in-process rollback point keeps (see
        :meth:`MachineSupervisor.checkpoint
        <repro.runtime.recovery.MachineSupervisor.checkpoint>`).

        Signal rows are immutable tuples, so consecutive captures may
        share them; the JSON rendering is the same as for lists."""
        if self._reacting:
            raise SnapshotError(
                "cannot snapshot mid-reaction: snapshots are taken at "
                "instant boundaries"
            )
        self._ensure_scalar()
        execs: List[Dict[str, Any]] = []
        for state in self._execs:
            failure = state.last_error
            execs.append(
                {
                    "running": state.running,
                    "generation": state.generation,
                    "pending": state.pending,
                    "pending_value": state.pending_value,
                    "scope": dict(state.scope) if state.scope is not None else None,
                    "last_error": (
                        {
                            "phase": failure.phase,
                            "reaction": failure.reaction,
                            "error": repr(failure.error),
                        }
                        if failure is not None
                        else None
                    ),
                }
            )
        return {
            "format": SNAPSHOT_FORMAT,
            "fingerprint": self.compiled.fingerprint,
            "module": self.name,
            "registers": [1 if value else 0 for value in self._scheduler.state],
            "signals": self._signal_rows(),
            "counters": list(self._counters),
            "execs": execs,
            "frame": dict(self.frame),
            "terminated": self.terminated,
            "reaction_count": self.reaction_count,
        }

    def _signal_rows(self) -> List[tuple]:
        """One ``(now, pre, nowval, preval, emitted)`` row per signal.

        The sparse backend keeps the last capture's rows and rebuilds
        only the slots its reactions have touched since
        (``_recapture``), so a checkpoint of a quiet machine costs the
        rows that changed.  Every row is built afresh on the other
        backends, and on the sparse one after a full sweep, a failed
        reaction or :meth:`_rebuild_tracking`."""
        signals = self._signals
        rows = self._rows
        if rows is None:
            rows = [(s.now, s.pre, s.nowval, s.preval, s.emitted) for s in signals]
            if not self._sparse:
                return rows
            self._rows = rows
        else:
            for slot in self._recapture:
                s = signals[slot]
                rows[slot] = (s.now, s.pre, s.nowval, s.preval, s.emitted)
        self._recapture = set()
        return list(rows)

    def state_digest(self) -> str:
        """The checksum :meth:`snapshot` would seal the current state
        with — a compact, process-portable equality check for
        between-instant state, hashed once.  Two machines of the same
        compiled module have equal digests iff their observable state is
        identical, which is how recovery and upgrade tests assert a
        restored or crash-recovered machine landed exactly where the
        original was."""
        return snapshot_checksum(self._capture())

    def restore(self, snap: Mapping) -> None:
        """Overwrite this machine's between-instant state with a
        :meth:`snapshot` payload.

        Refuses (with :class:`~repro.errors.SnapshotError`) payloads
        whose compile fingerprint does not match this machine's compiled
        module.  Any in-flight exec invocations are invalidated
        (kill-on-restore: their generations are bumped past the
        snapshot's, so stale ``notify`` calls are discarded); slots that
        were logically running keep their state and can have their host
        work re-issued with :meth:`restart_execs`.
        """
        if self._reacting:
            raise SnapshotError("cannot restore mid-reaction")
        self._ensure_scalar()
        if not isinstance(snap, Mapping):
            raise SnapshotError(f"snapshot payload must be a mapping, got {type(snap).__name__}")
        if snap.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"unsupported snapshot format {snap.get('format')!r} "
                f"(this runtime writes format {SNAPSHOT_FORMAT})"
            )
        fingerprint = snap.get("fingerprint")
        if fingerprint != self.compiled.fingerprint:
            raise SnapshotError(
                f"snapshot fingerprint mismatch: payload was taken from "
                f"{snap.get('module')!r} with fingerprint {fingerprint!r}, "
                f"this machine is {self.name!r} with fingerprint "
                f"{self.compiled.fingerprint!r}"
            )
        recorded = snap.get("checksum")
        if recorded is not None:
            computed = snapshot_checksum(snap)
            if computed != recorded:
                raise SnapshotError(
                    f"snapshot checksum mismatch for {snap.get('module')!r}: "
                    f"payload recorded {recorded[:16]}..., content hashes to "
                    f"{computed[:16]}... — the snapshot is corrupt "
                    "(bit rot or a tampered field)"
                )
        registers = snap["registers"]
        signals = snap["signals"]
        counters = snap["counters"]
        execs = snap["execs"]
        # Every arity check precedes the first mutation: a refused payload
        # leaves the machine exactly as it was.
        if (
            len(signals) != len(self._signals)
            or len(counters) != len(self._counters)
            or len(execs) != len(self._execs)
        ):
            raise SnapshotError("snapshot state arity does not match this circuit")
        if len(registers) != len(self._scheduler.state):
            raise SnapshotError(
                f"snapshot has {len(registers)} registers, circuit has "
                f"{len(self._scheduler.state)}"
            )

        # clear_state() also flags sparse dispatch for a full sweep on the
        # next reaction, which reconstructs its dirty-set/net-value caches
        # from the restored registers — that state is derived, not
        # serialized.
        self._scheduler.clear_state()
        self._scheduler.state[:] = [bool(value) for value in registers]

        for signal, (now, pre, nowval, preval, emitted) in zip(self._signals, signals):
            signal.now = bool(now)
            signal.pre = bool(pre)
            signal.nowval = nowval
            signal.preval = preval
            signal.emitted = int(emitted)

        self._counters = [int(value) for value in counters]

        for estate, esnap in zip(self._execs, execs):
            estate.running = bool(esnap["running"])
            # One past the snapshot generation: any handle that survived
            # from before the crash/restore is stale and its notify()s
            # are silently discarded (paper §2.2.4 applied to recovery).
            estate.generation = int(esnap["generation"]) + 1
            estate.pending = bool(esnap["pending"])
            estate.pending_value = esnap["pending_value"]
            scope = esnap.get("scope")
            estate.scope = dict(scope) if scope is not None else None
            estate.handle = None
            estate.started_live = False
            estate.last_error = None

        self.frame = dict(snap["frame"])
        self.terminated = bool(snap["terminated"])
        self._reactions = int(snap["reaction_count"])
        self._deferred.clear()
        self._rebuild_tracking()

    def _rebuild_tracking(self) -> None:
        """Rebuild the incremental signal-tracking sets from the signal
        states, after something other than a reaction rewrote them
        (:meth:`restore`, :meth:`reset`, and lockstep demotion after word
        instants; a word-resident member is always demoted before it is
        captured): a slot is present iff its signal is, and active iff
        its signal is not inert, i.e. needs ``begin_instant`` at the next
        instant.  The next capture builds every signal row afresh.  The
        per-instant paths keep the sets current incrementally instead."""
        present: set = set()
        active: set = set()
        for signal in self._signals:
            if signal.now:
                present.add(signal.slot)
            if (
                signal.now
                or signal.pre
                or signal.emitted
                or signal.nowval is not signal.preval
            ):
                active.add(signal.slot)
        self._present_slots = present
        self._active_slots = active
        self._touched_slots.clear()
        self._rows = None

    def replay(self, entries: Any) -> List[ReactionResult]:
        """Deterministically re-run journaled instants against this
        machine's current state and return their results.

        During replay the machine re-derives state only: journaling,
        output listeners, exec host actions and queued reactions are all
        suppressed, so host effects already performed by the original
        run are never duplicated.  Entries must continue exactly at this
        machine's ``reaction_count`` (i.e. restore the matching snapshot
        first)."""
        if self._reacting:
            raise MachineError("cannot replay during a reaction")
        self._ensure_scalar()
        results: List[ReactionResult] = []
        self._replaying = True
        try:
            for entry in entries:
                if entry.seq != self.reaction_count:
                    raise SnapshotError(
                        f"journal entry seq {entry.seq} does not continue "
                        f"machine at reaction {self.reaction_count}"
                    )
                for slot, value in entry.execs:
                    estate = self._execs[slot]
                    if estate.running:
                        estate.pending = True
                        estate.pending_value = value
                results.append(self._react_once(dict(entry.inputs)))
        finally:
            self._replaying = False
            self._deferred.clear()
        return results

    def restart_execs(self) -> List[int]:
        """Re-issue host work for exec slots that are logically running
        but have no live invocation (the situation after :meth:`restore`):
        each gets a fresh generation/handle and its ``async`` body re-run.
        Slots whose completion is already pending are left alone — their
        value lands at the next reaction.  Returns the restarted slots."""
        restarted: List[int] = []
        for state in self._execs:
            if state.running and state.handle is None and not state.pending:
                info = self.compiled.circuit.execs[state.slot]
                handle = state.start(self, state.scope or {})
                state.started_live = True
                self._run_exec_action(info.stmt.start, handle, "start")
                restarted.append(state.slot)
        return restarted

    # ------------------------------------------------------------------
    # signal access (machine.connState.nowval, listeners)
    # ------------------------------------------------------------------

    def signal(self, name: str) -> SignalView:
        info = self.compiled.circuit.interface.get(name)
        if info is None:
            raise SignalError(f"no interface signal {name!r} on machine {self.name}")
        return SignalView(self._signals[info.slot])

    def __getattr__(self, name: str) -> Any:
        # Called only when normal lookup fails: expose interface signals.
        compiled = self.__dict__.get("compiled")
        signals = self.__dict__.get("_signals")
        if compiled is None or signals is None:
            raise AttributeError(name)
        info = compiled.circuit.interface.get(name)
        if info is None:
            raise AttributeError(name)
        return SignalView(signals[info.slot])

    def add_listener(self, name: str, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` whenever output ``name`` is emitted."""
        if name not in self.compiled.circuit.interface:
            raise SignalError(f"no interface signal {name!r}")
        self._listeners.setdefault(name, []).append(callback)

    def remove_listener(self, name: str, callback: Callable[[Any], None]) -> None:
        callbacks = self._listeners.get(name, [])
        if callback in callbacks:
            callbacks.remove(callback)

    # ------------------------------------------------------------------
    # payload host interface (called by compiled circuit payloads)
    # ------------------------------------------------------------------

    def env_for(self, scope: Dict[str, int]) -> _MachineEnv:
        return _MachineEnv(self, scope)

    def emit_value(self, slot: int, value: Any) -> None:
        self._signals[slot].write(value)
        self._touched_slots.add(slot)

    def init_signal(self, slot: int, value: Any) -> None:
        self._signals[slot].initialize(value)
        self._touched_slots.add(slot)

    def arm_counter(self, slot: int, value: int) -> None:
        self._counters[slot] = max(1, int(value))

    def tick_counter(self, slot: int) -> bool:
        self._counters[slot] -= 1
        return self._counters[slot] <= 0

    def exec_state(self, slot: int) -> ExecState:
        return self._execs[slot]

    def start_exec(self, slot: int, scope: Dict[str, int]) -> None:
        state = self._execs[slot]
        info = self.compiled.circuit.execs[slot]
        handle = state.start(self, scope)
        state.started_live = not self._replaying
        self._run_exec_action(info.stmt.start, handle, "start")

    def kill_exec(self, slot: int) -> None:
        state = self._execs[slot]
        if not state.running:
            return
        info = self.compiled.circuit.execs[slot]
        handle = state.handle
        live = state.started_live
        state.stop()
        # Kill cleanups pair with a live start: a handle rebuilt during
        # replay/restore owns no host resource, so there is nothing to
        # clean up (and its attribute bag is empty).
        if info.stmt.kill is not None and handle is not None and live:
            self._run_exec_action(info.stmt.kill, handle, "kill")

    def suspend_exec(self, slot: int) -> None:
        state = self._execs[slot]
        info = self.compiled.circuit.execs[slot]
        if (
            state.running
            and info.stmt.on_suspend is not None
            and state.handle
            and state.started_live
        ):
            self._run_exec_action(info.stmt.on_suspend, state.handle, "suspend")

    def resume_exec(self, slot: int) -> None:
        state = self._execs[slot]
        info = self.compiled.circuit.execs[slot]
        if (
            state.running
            and info.stmt.on_resume is not None
            and state.handle
            and state.started_live
        ):
            self._run_exec_action(info.stmt.on_resume, state.handle, "resume")

    def finish_exec(self, slot: int) -> None:
        """The completion instant: write the notified value into the
        completion signal (if any) and retire the invocation."""
        state = self._execs[slot]
        info = self.compiled.circuit.execs[slot]
        if info.signal is not None:
            self._signals[info.signal.slot].write(state.pending_value)
            self._touched_slots.add(info.signal.slot)
        state.stop()

    def notify_exec(self, slot: int, generation: int, value: Any) -> None:
        if self._replaying:
            # Completions consumed by the original run are re-injected
            # from the journal; a live callback firing during replay
            # belongs to a stale (pre-restore) invocation.
            return
        state = self._execs[slot]
        if not state.running or state.generation != generation:
            return  # stale invocation: silently discarded (paper §2.2.4)
        state.pending = True
        state.pending_value = value
        self.queue_react({})

    def _run_exec_action(self, action: Any, handle: ExecHandle, phase: str) -> None:
        """Run an exec host action under supervision: an exception is
        caught per-slot, recorded, and routed by ``on_exec_error`` instead
        of unconditionally crashing the reaction."""
        if self._replaying:
            # Host effects (service calls, timers, kill cleanups) already
            # happened in the original run; replay only rebuilds state.
            return
        try:
            if callable(action):
                action(handle)
                return
            env = E.ScopedEnv(handle.env, {"this": handle})
            for stmt in action:
                stmt.execute(env)
        except Exception as err:
            failure = ExecFailure(handle._slot, phase, err, self.reaction_count)
            self._execs[handle._slot].last_error = failure
            self._exec_failures += 1
            policy = self.on_exec_error
            if callable(policy):
                policy(failure)
            elif isinstance(policy, str) and policy.startswith("signal:"):
                name = policy[len("signal:"):]
                info = self.compiled.circuit.interface.get(name)
                if info is None or info.input_net is None:
                    raise MachineError(
                        f"on_exec_error policy names {name!r}, which is not an "
                        "input signal of this machine"
                    ) from err
                self.queue_react({name: err})
            else:
                raise

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    def register_breaker(self, breaker: Any, name: Optional[str] = None) -> Any:
        """Expose a :class:`~repro.host.CircuitBreaker`'s state in this
        machine's :attr:`health` snapshot.  Returns the breaker."""
        self._breakers[name or getattr(breaker, "name", f"breaker{len(self._breakers)}")] = breaker
        return breaker

    @property
    def health(self) -> Dict[str, Any]:
        """A point-in-time health snapshot: reaction and failure counts,
        exec-slot errors, and the state of every registered breaker.

        Post-reset contract: immediately after :meth:`reset`,
        ``reactions``/``failed_reactions``/``exec_failures`` are zero,
        ``execs_running`` is zero, ``exec_errors`` is empty, and every
        registered breaker reports ``closed`` with zero consecutive
        failures (reset re-arms them) — the health of a freshly built
        machine."""
        exec_errors = [
            state.last_error for state in self._execs if state.last_error is not None
        ]
        return {
            "reactions": self.reaction_count,
            "failed_reactions": self._failed_reactions,
            "exec_failures": self._exec_failures,
            "budget_aborts": self._budget_aborts,
            "execs_running": sum(1 for state in self._execs if state.running),
            "exec_errors": exec_errors,
            "breakers": {name: b.snapshot() for name, b in self._breakers.items()},
        }

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return self.compiled.circuit.stats()

    def __repr__(self) -> str:
        return f"ReactiveMachine({self.name}, {len(self.compiled.circuit.nets)} nets)"
