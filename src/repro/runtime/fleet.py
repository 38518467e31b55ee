"""Machine fleets: many reactive machines sharing one compiled plan.

The ROADMAP's north-star scenario — thousands of Skini participants or
multi-tenant login sessions, each an instance of the *same* HipHop
module — used to pay O(compile) per machine and O(circuit) per reaction.
:class:`MachineFleet` pairs the structural compile cache
(:func:`repro.compiler.compile.compile_cached`) with the sparse reaction
backend so a fleet pays compilation and planning **once**, each member
only its runtime state (net values, registers, signal slots — see
``Circuit.per_machine_state_estimate``), and each steady-state reaction
only its dirty cone.

Typical use::

    from repro import MachineFleet

    fleet = MachineFleet(participant_module, size=1000)
    fleet.react_all({"tick": True})            # batch-drive every member
    fleet.react_one(42, {"play": True})        # drive one participant
    fleet.memory_report()                      # shared vs per-machine split
"""

from __future__ import annotations

import time
from bisect import bisect_left
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import FleetReactionError, MachineError
from repro.lang import ast as A
from repro.compiler.compile import (
    CompiledModule,
    CompileOptions,
    compile_cached,
)
from repro.runtime.ingress import (
    RATE_LIMITED,
    LatencyEwma,
    Mailbox,
    TokenBucket,
)
from repro.runtime.lockstep import LockstepFleet, bits_of
from repro.runtime.machine import BACKENDS, ModuleLike, ReactionResult, ReactiveMachine

#: ``backend="auto"`` fleets enable the lockstep word engine only at or
#: above this construction size: below it, the per-instant word overhead
#: (plane rolls, the word sweep) costs more than the handful of scalar
#: reactions it replaces.
LOCKSTEP_MIN_MEMBERS = 64


class MachineFleet:
    """A pool of :class:`~repro.runtime.machine.ReactiveMachine` members
    built from one shared :class:`~repro.compiler.compile.CompiledModule`.

    Construction compiles (or cache-hits) the module once; every
    :meth:`spawn` then only allocates per-machine state, making member
    construction O(state) instead of O(compile).  Members are ordinary
    machines — they can be driven individually, via the batch helpers
    here, or handed out to host code.
    """

    def __init__(
        self,
        module: ModuleLike,
        modules: Optional[A.ModuleTable] = None,
        options: Optional[CompileOptions] = None,
        size: int = 0,
        backend: str = "auto",
        **machine_kwargs: Any,
    ):
        if isinstance(module, CompiledModule):
            self.compiled = module
        else:
            self.compiled = compile_cached(module, modules, options)
        # Build the shared evaluation plan eagerly so no member pays it.
        self.plan = self.compiled.evaluation_plan()
        if backend not in BACKENDS and backend != "lockstep":
            raise MachineError(
                f"unknown fleet backend {backend!r}; expected one of "
                f"{BACKENDS + ('lockstep',)}"
            )
        self.backend = backend
        # The lockstep word engine: explicit `backend="lockstep"` always
        # (raising on impure plans), `auto` only for pure plans at
        # audience scale; members themselves are always scalar machines
        # ("auto" backend) — the engine anchors correctness on them by
        # demoting anything it cannot express.
        if backend == "lockstep":
            # let the engine raise its MachineError on impure plans
            # before any word-plan compilation is attempted
            self._engine: Optional[LockstepFleet] = LockstepFleet(
                self.plan,
                self.compiled.word_plan() if self.plan.is_pure else None,
            )
        elif (
            backend == "auto"
            and self.plan.is_pure
            and size >= LOCKSTEP_MIN_MEMBERS
        ):
            self._engine = LockstepFleet(self.plan, self.compiled.word_plan())
        else:
            self._engine = None
        self._member_backend = "auto" if backend == "lockstep" else backend
        self._machine_kwargs = machine_kwargs
        self._machines: List[ReactiveMachine] = []
        if size:
            self.spawn_many(size)

    @classmethod
    def from_artifact(
        cls,
        source: Any,
        fingerprint: Optional[str] = None,
        **kwargs: Any,
    ) -> "MachineFleet":
        """Cold-start a fleet from a compiled plan artifact instead of
        from sources.

        ``source`` is either the raw bytes of a
        :func:`~repro.compiler.compile.plan_artifact` payload, or an
        :class:`~repro.compiler.compile.ArtifactStore` (then
        ``fingerprint`` selects which program to load).  Hydration skips
        the whole frontend — parse, expansion, translation, optimization
        and plan construction — so a worker process reaches its first
        reaction an order of magnitude sooner than a fresh compile (see
        ``benchmarks/bench_compile.py``)."""
        from repro.compiler.compile import hydrate_plan_artifact

        if isinstance(source, (bytes, bytearray)):
            compiled = hydrate_plan_artifact(bytes(source))
        else:
            if fingerprint is None:
                raise MachineError(
                    "from_artifact(store, ...) needs the fingerprint of "
                    "the program to load"
                )
            compiled = source.load(fingerprint)
        return cls(compiled, **kwargs)

    # -- membership -----------------------------------------------------

    def build_machine(self, **overrides: Any) -> ReactiveMachine:
        """Construct a machine from the fleet's shared plan *without*
        adding it to the fleet — e.g. to pre-warm spares whose circuit
        allocation should happen off a latency-critical path."""
        kwargs = {**self._machine_kwargs, **overrides}
        return ReactiveMachine(self.compiled, backend=self._member_backend, **kwargs)

    def spawn(self, **overrides: Any) -> ReactiveMachine:
        """Add one member (keyword overrides win over the fleet
        defaults) and return it."""
        machine = self.build_machine(**overrides)
        self._machines.append(machine)
        if self._engine is not None:
            self._engine.try_promote(machine, len(self._machines) - 1)
        return machine

    def spawn_many(self, count: int) -> List[ReactiveMachine]:
        """Bulk membership growth: builds ``count`` members off the
        shared plan, appends them in one extend, and — when the lockstep
        engine is on — promotes them with the boot-pattern bulk path
        (one plane OR per init register for the whole cohort) instead of
        ``count`` per-member state walks."""
        machines = [self.build_machine() for _ in range(count)]
        start = len(self._machines)
        self._machines.extend(machines)
        if self._engine is not None:
            self._engine.promote_fresh(machines, start)
        return machines

    def __len__(self) -> int:
        return len(self._machines)

    def __getitem__(self, index: int) -> ReactiveMachine:
        return self._machines[index]

    def __iter__(self) -> Iterator[ReactiveMachine]:
        return iter(self._machines)

    # -- batch driving --------------------------------------------------

    def react_all(
        self, inputs: Optional[Dict[str, Any]] = None
    ) -> List[ReactionResult]:
        """One reaction on every member with the same inputs (a broadcast
        instant — e.g. the Skini musical pulse); returns the results in
        member order.

        The instant is completed for *every* member even when some fail:
        failures are collected and raised afterwards as a single
        :class:`~repro.errors.FleetReactionError` carrying the completed
        and failed member indices (and the partial results), so one bad
        member can never leave the fleet half-advanced within a logical
        instant."""
        shared = inputs or {}
        return self._drive_batch(lambda index, machine: shared, shared=shared)

    def _drive_batch(
        self,
        make_inputs: Callable[[int, ReactiveMachine], Dict[str, Any]],
        shared: Optional[Dict[str, Any]] = None,
        addressed: Optional[Mapping[int, Any]] = None,
    ) -> Any:
        """Run one reaction on each addressed member (``addressed`` is
        ``react_each``'s mapping, whose results come back as a dict; None
        is a full broadcast, whose results are a list in member order),
        completing the whole batch before reporting failures.

        Word-resident members react in one lockstep word instant
        (``shared`` marks the broadcast case where every member got the
        same map, enabling the engine's shared-result path); everyone
        else reacts scalar, and a clean scalar reaction promotes the
        member into the word.  A full broadcast first re-admits the
        members demoted since the last one, so its scalar members are
        only those the word cannot hold, and its cost is O(members that
        changed) beyond the word instant itself.
        """
        machines = self._machines
        engine = self._engine
        everyone = range(len(machines)) if addressed is None else addressed
        failures: Dict[int, Exception] = {}
        specials: Dict[int, ReactionResult] = {}
        default: Optional[ReactionResult] = None
        run = 0
        if engine is None:
            scalar: Any = everyone
        elif addressed is None:
            run = engine.rejoin(machines)
            scalar = bits_of(((1 << len(machines)) - 1) & ~run)
        else:
            scalar = []
            for index in everyone:
                if machines[index]._lockstep is engine:
                    run |= 1 << index
                else:
                    scalar.append(index)
        if run:
            inputs: Optional[Dict[int, Dict[str, Any]]] = None
            if shared is None:
                inputs = {}
                for index in bits_of(run):
                    try:
                        inputs[index] = make_inputs(index, machines[index])
                    except Exception as err:
                        failures[index] = err
                        run &= ~(1 << index)
            default, specials, word_failures = engine.react(run, shared, inputs)
            failures.update(word_failures)
        if addressed is None:
            results: Any = [default] * len(machines)
            for index, result in specials.items():
                results[index] = result
        else:
            results = specials  # per-member inputs: every result is special
        for index in scalar:
            machine = machines[index]
            try:
                results[index] = machine.react(make_inputs(index, machine))
            except Exception as err:
                failures[index] = err
            else:
                if engine is not None:
                    engine.try_promote(machine, index)
        if failures:
            if addressed is None:
                for index in failures:
                    results[index] = None
            completed = sorted(i for i in everyone if i not in failures)
            raise FleetReactionError(
                f"{len(failures)} of {len(everyone)} addressed members "
                f"failed the instant (members {sorted(failures)}); "
                f"{len(completed)} completed",
                completed=completed,
                failures=failures,
                results=results,
            )
        return results

    def react_one(
        self, index: int, inputs: Optional[Dict[str, Any]] = None
    ) -> ReactionResult:
        """One reaction on member ``index`` only."""
        try:
            machine = self._machines[index]
        except IndexError:
            raise MachineError(
                f"fleet has {len(self._machines)} members, no index {index}"
            ) from None
        return machine.react(inputs or {})

    def react_each(
        self, inputs_by_member: Mapping[int, Dict[str, Any]]
    ) -> Dict[int, ReactionResult]:
        """One reaction per addressed member (others stay untouched).
        Like :meth:`react_all`, the whole batch is driven before any
        member's failure is raised (as a
        :class:`~repro.errors.FleetReactionError` whose ``results`` is a
        dict keyed by member index)."""
        for index in inputs_by_member:
            if not 0 <= index < len(self._machines):
                raise MachineError(
                    f"fleet has {len(self._machines)} members, no index "
                    f"{index}"
                )
        return self._drive_batch(
            lambda index, machine: inputs_by_member[index],
            addressed=inputs_by_member,
        )

    def broadcast(
        self, make_inputs: Callable[[int, ReactiveMachine], Dict[str, Any]]
    ) -> List[ReactionResult]:
        """One reaction on every member with member-specific inputs from
        ``make_inputs(index, machine)``; completes the instant for every
        member before raising a collected
        :class:`~repro.errors.FleetReactionError` (an exception from
        ``make_inputs`` itself counts as that member's failure)."""
        return self._drive_batch(make_inputs)

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        backends: Dict[str, int] = {}
        for machine in self._machines:
            backends[machine.backend] = backends.get(machine.backend, 0) + 1
        stats = {
            "members": len(self._machines),
            "module": self.compiled.module.name,
            "nets": len(self.compiled.circuit.nets),
            "backends": backends,
            "reactions": sum(m.reaction_count for m in self._machines),
        }
        engine = self._engine
        if engine is not None:
            lockstep = engine.stats()
            lockstep["scalar"] = len(self._machines) - lockstep["resident"]
            stats["lockstep"] = lockstep
        return stats

    def memory_report(self) -> Dict[str, Any]:
        """The shared-plan amortization story in bytes: one circuit and
        one evaluation plan however many members, plus per-member state.
        With the lockstep engine on, a ``lockstep`` sub-report adds the
        packed-column split (register planes / status planes / word
        plan); those bytes are engine overhead on top of ``total_bytes``,
        which keeps its shared + members × per-machine meaning."""
        circuit = self.compiled.circuit
        shared = circuit.memory_estimate() + self.plan.memory_estimate()
        per_machine = circuit.per_machine_state_estimate()
        members = len(self._machines)
        total = shared + per_machine * members
        naive = (shared + per_machine) * max(members, 1)
        report = {
            "members": members,
            "shared_bytes": shared,
            "per_machine_bytes": per_machine,
            "total_bytes": total,
            "unshared_total_bytes": naive,
            "amortization": round(naive / total, 2) if total else 0.0,
        }
        if self._engine is not None:
            report["lockstep"] = self._engine.memory_bytes()
        return report

    def __repr__(self) -> str:
        return (
            f"MachineFleet({self.compiled.module.name}, "
            f"{len(self._machines)} members, backend={self.backend!r})"
        )

    def ingress(self, **kwargs: Any) -> "FleetIngress":
        """Build a :class:`FleetIngress` admission-control front for this
        fleet (keyword arguments forwarded to its constructor)."""
        return FleetIngress(self, **kwargs)


class FleetIngress:
    """Admission control in front of a :class:`MachineFleet`: bounded
    per-member mailboxes, a fleet-wide token-bucket rate limiter,
    health-aware routing, and adaptive batch sizing.

    The contract mirrors :class:`~repro.runtime.ingress.Mailbox`'s —
    every offered input map is *admitted, coalesced, shed, rate-limited
    or rejected by a recorded decision*; nothing is silently lost and
    nothing buffers unboundedly, no matter the offered load.

    :param fleet: the fleet (or a :class:`~repro.runtime.recovery.FleetSupervisor`
        via ``supervisor``) whose members this ingress guards.
    :param capacity: per-member mailbox capacity.
    :param policy: per-member mailbox shedding policy (see
        :data:`~repro.runtime.ingress.POLICIES`).
    :param rate_per_s: fleet-wide sustained admission rate (offers per
        second, one token each); ``None`` disables rate limiting.
    :param burst: token-bucket capacity (defaults to one second's worth).
    :param supervisor: optional :class:`~repro.runtime.recovery.FleetSupervisor`;
        when given, pumping reacts through each member's supervisor
        (rollback/retry on failure) and routing skips quarantined members.
    :param target_latency_ms: adaptive batch-sizing target — when the
        EWMA of per-instant react latency exceeds it, the pump batch
        halves (down to ``min_batch``); when comfortably below (80 %),
        the batch grows by one (up to ``max_batch``).
    :param min_batch: smallest adaptive batch (members per pump round).
    :param max_batch: largest adaptive batch (default: the fleet size,
        following it as :meth:`add_member` grows the fleet).
    :param ewma_alpha: smoothing factor of the latency EWMA.
    :param budget: reaction deadline forwarded to every pumped react.
    :param coalesce_on_pump: collapse each member's whole backlog into
        one merged instant before reacting (the overload-flattening mode
        the bench gate measures); ``False`` drains one queued map per
        member per round instead.
    """

    def __init__(
        self,
        fleet: MachineFleet,
        capacity: int = 64,
        policy: str = "coalesce",
        rate_per_s: Optional[float] = None,
        burst: Optional[float] = None,
        supervisor: Optional[Any] = None,
        target_latency_ms: Optional[float] = None,
        min_batch: int = 1,
        max_batch: Optional[int] = None,
        ewma_alpha: float = 0.2,
        budget: Optional[Any] = None,
        coalesce_on_pump: bool = True,
        on_instant: Optional[Callable[[int, Dict[str, Any]], None]] = None,
    ):
        self.fleet = fleet
        self.supervisor = supervisor
        self.budget = budget
        self.coalesce_on_pump = coalesce_on_pump
        #: observation hook called with ``(member, inputs)`` for every
        #: instant actually applied by the pump — *post* mailbox
        #: coalescing, so replaying the recorded instants into a fresh
        #: fleet reproduces member state exactly (the digest-parity
        #: oracle of the gateway chaos tests rides on this)
        self.on_instant = on_instant
        self._capacity = capacity
        self._policy = policy
        #: member indices removed from routing (shard migration sources);
        #: their mailbox slots stay so historic indices remain stable
        self.retired: set = set()
        #: the ready list: sorted indices of members whose mailbox may hold
        #: mail.  Every member with mail is listed (its mailbox's
        #: ``on_mail`` lists it when an offer ends its emptiness); a listed
        #: member found empty is dropped by the pump round that meets it
        self._ready: List[int] = []
        self.mailboxes: List[Mailbox] = []
        #: per member, the offers :meth:`offer` passed to its mailbox; the
        #: rest of the mailbox's record came straight to it
        #: (``machine.offer()``), past this ingress
        self._routed: List[int] = []
        for machine in fleet:
            self._attach(machine)
        self.bucket: Optional[TokenBucket] = (
            TokenBucket(rate_per_s, burst) if rate_per_s is not None else None
        )
        self.latency = LatencyEwma(ewma_alpha)
        self.target_latency_ms = target_latency_ms
        if min_batch < 1:
            raise ValueError("min_batch must be >= 1")
        self.min_batch = min_batch
        #: a default max_batch follows the membership (see add_member)
        self._max_batch_follows = max_batch is None
        self.max_batch = max_batch if max_batch is not None else max(1, len(fleet))
        if self.max_batch < self.min_batch:
            raise ValueError("max_batch must be >= min_batch")
        #: current adaptive batch size (members reacted per pump round)
        self.batch_size = self.max_batch
        self._cursor = 0
        #: member index → exception, for the most recent pump round
        self.last_failures: Dict[int, BaseException] = {}
        self.stats_counters: Dict[str, int] = {
            "offered": 0,
            "rate_limited": 0,
            "pumped": 0,
            "pump_failures": 0,
            "backoffs": 0,
            "rampups": 0,
        }

    def __len__(self) -> int:
        return len(self.mailboxes)

    @property
    def pending(self) -> int:
        """Input maps waiting across the mailboxes, summed over the
        ready list only: every member with mail is listed."""
        mailboxes = self.mailboxes
        return sum(mailboxes[index].pending for index in self._ready)

    # -- health-aware membership ----------------------------------------

    def is_healthy(self, index: int) -> bool:
        """A member is routable unless it was retired, its supervisor
        quarantined it, or one of its circuit breakers is open.  Reads
        each breaker's ``snapshot()`` (which moves a cooled-down breaker
        to half-open), not the member's whole ``health`` dict."""
        if index in self.retired:
            return False
        if self.supervisor is not None and self.supervisor.members[index].quarantined:
            return False
        for breaker in self.fleet[index]._breakers.values():
            if breaker.snapshot().get("state") == "open":
                return False
        return True

    def healthy_members(self) -> List[int]:
        return [i for i in range(len(self.fleet)) if self.is_healthy(i)]

    # -- dynamic membership (shard adoption / migration) -----------------

    def add_member(self, machine: Optional[Any] = None, **overrides: Any) -> int:
        """Grow the guarded fleet by one member — either adopt an
        existing ``machine`` (a migrated member arriving on this shard,
        already restored; it is appended to the fleet) or spawn a fresh
        one from the fleet's shared plan.  The new member gets its own
        mailbox (same capacity/policy as the rest) and its index is
        returned.  A default ``max_batch`` follows the membership, and so
        does ``batch_size`` when batching is not adaptive.

        When a ``supervisor`` was given at construction, the caller must
        keep its ``members`` roster aligned (append a supervisor for the
        new machine) before routing to the new index.
        """
        if machine is None:
            machine = self.fleet.spawn(**overrides)
        else:
            self.fleet._machines.append(machine)
        self._attach(machine)
        if self._max_batch_follows:
            self.max_batch = max(self.max_batch, len(self.mailboxes))
            if self.target_latency_ms is None:
                self.batch_size = self.max_batch
        return len(self.mailboxes) - 1

    def _attach(self, machine: Any) -> None:
        mailbox = Mailbox.for_machine(
            machine, capacity=self._capacity, policy=self._policy
        )
        mailbox.on_mail = partial(self._list, len(self.mailboxes))
        machine.attach_mailbox(mailbox)
        self.mailboxes.append(mailbox)
        self._routed.append(0)

    def _list(self, index: int) -> None:
        ready = self._ready
        at = bisect_left(ready, index)
        if at == len(ready) or ready[at] != index:
            ready.insert(at, index)

    def _unlist(self, index: int) -> None:
        ready = self._ready
        at = bisect_left(ready, index)
        if at < len(ready) and ready[at] == index:
            del ready[at]

    def retire(self, index: int) -> List[Dict[str, Any]]:
        """Remove member ``index`` from routing (a migration source
        leaving this shard): drain and return its mailbox backlog —
        oldest first, to be shipped with the member — and mark the slot
        retired so no new input is admitted to it.  Idempotent."""
        backlog = self.mailboxes[index].drain()
        self.retired.add(index)
        return backlog

    # -- admission -------------------------------------------------------

    def offer(
        self, index: int, inputs: Mapping[str, Any], now_ms: float = 0.0
    ) -> str:
        """Offer one input map to member ``index``; returns the recorded
        admission decision (including :data:`~repro.runtime.ingress.RATE_LIMITED`
        when the token bucket refuses — the offer never reaches the
        mailbox but is still on the record).  A retired member admits
        nothing: the offer raises :class:`~repro.errors.MachineError`
        before it is counted."""
        if index in self.retired:
            raise MachineError(
                f"member {index} is retired; no new input is admitted to it"
            )
        self.stats_counters["offered"] += 1
        if self.bucket is not None and not self.bucket.try_acquire(now_ms):
            self.stats_counters["rate_limited"] += 1
            return RATE_LIMITED
        self._routed[index] += 1
        return self.mailboxes[index].offer(inputs)

    def offer_all(
        self, inputs: Mapping[str, Any], now_ms: float = 0.0
    ) -> Dict[int, str]:
        """Offer the same map to every *healthy* member (one token each);
        returns the per-member decisions."""
        return {
            index: self.offer(index, inputs, now_ms)
            for index in self.healthy_members()
        }

    def route(
        self, inputs: Mapping[str, Any], now_ms: float = 0.0
    ) -> Tuple[int, str]:
        """Admit one map to the least-loaded healthy member (fewest
        pending mailbox entries, lowest index breaking ties).  Returns
        ``(member index, decision)``."""
        healthy = self.healthy_members()
        if not healthy:
            raise MachineError(
                "no healthy fleet member to route to (all quarantined or "
                "breaker-open)"
            )
        index = min(healthy, key=lambda i: (self.mailboxes[i].pending, i))
        return index, self.offer(index, inputs, now_ms)

    # -- draining --------------------------------------------------------

    def _react_member(
        self, index: int, inputs: Dict[str, Any]
    ) -> ReactionResult:
        if self.supervisor is not None:
            return self.supervisor.members[index].react(inputs, budget=self.budget)
        return self.fleet[index].react(inputs, budget=self.budget)

    def pump(self, clock: Callable[[], float] = time.perf_counter) -> Dict[int, ReactionResult]:
        """One adaptive pump round: drive up to :attr:`batch_size`
        healthy members with pending mail (round-robin, so a noisy member
        cannot starve the rest), one instant each.  With
        ``coalesce_on_pump`` the member's whole backlog is first
        collapsed into one merged instant.  Failures are collected in
        :attr:`last_failures` without aborting the round; react latency
        feeds the EWMA and resizes the next round's batch.

        A round visits only the ready list, from the cursor on, so it
        costs O(members with mail), not O(members)."""
        ready, mailboxes = self._ready, self.mailboxes
        chosen: List[int] = []
        emptied: List[int] = []
        start = bisect_left(ready, self._cursor)
        for step in range(len(ready)):
            index = ready[(start + step) % len(ready)]
            if not mailboxes[index].pending:
                emptied.append(index)  # drained elsewhere since it was listed
            elif self.is_healthy(index):
                chosen.append(index)
                if len(chosen) >= self.batch_size:
                    break
        for index in emptied:
            self._unlist(index)
        if chosen:
            self._cursor = (chosen[-1] + 1) % len(mailboxes)
        results: Dict[int, ReactionResult] = {}
        failures: Dict[int, BaseException] = {}
        for index in chosen:
            mailbox = mailboxes[index]
            if self.coalesce_on_pump:
                mailbox.collapse()
            inputs = mailbox.take()
            if not mailbox.pending:
                # before the react, so a hook's re-offer lists it again
                self._unlist(index)
            started = clock()
            try:
                results[index] = self._react_member(index, inputs)
                self.stats_counters["pumped"] += 1
                if self.on_instant is not None:
                    self.on_instant(index, inputs)
            except Exception as err:
                failures[index] = err
                self.stats_counters["pump_failures"] += 1
            finally:
                self.latency.observe((clock() - started) * 1000.0)
        self.last_failures = failures
        self._resize_batch()
        return results

    def pump_all(
        self,
        max_rounds: int = 1_000_000,
        clock: Callable[[], float] = time.perf_counter,
    ) -> Dict[int, ReactionResult]:
        """Pump until every healthy member's mailbox is empty (or
        ``max_rounds`` rounds); returns each member's *last* result."""
        results: Dict[int, ReactionResult] = {}
        for _ in range(max_rounds):
            if not any(
                self.mailboxes[i].pending and self.is_healthy(i)
                for i in self._ready
            ):
                break
            results.update(self.pump(clock))
        return results

    def _resize_batch(self) -> None:
        if self.target_latency_ms is None or self.latency.value is None:
            return
        if self.latency.value > self.target_latency_ms:
            shrunk = max(self.min_batch, self.batch_size // 2)
            if shrunk < self.batch_size:
                self.stats_counters["backoffs"] += 1
            self.batch_size = shrunk
        elif (
            self.latency.value < 0.8 * self.target_latency_ms
            and self.batch_size < self.max_batch
        ):
            self.batch_size += 1
            self.stats_counters["rampups"] += 1

    # -- accounting ------------------------------------------------------

    def check_accounting(self) -> None:
        """Assert the zero-silent-drop invariant across every member
        mailbox plus the ingress-level rate-limit record: each offer to
        the ingress was rate-limited or routed, and each mailbox's record
        holds every offer routed to it.  Offers sent straight to a member
        (``machine.offer()``) are on its mailbox's record only, beyond
        what was routed."""
        routed = self._routed
        for index, mailbox in enumerate(self.mailboxes):
            mailbox.check_accounting()
            if mailbox.stats["offered"] < routed[index]:
                raise MachineError(
                    f"fleet ingress accounting violated: member {index}'s "
                    f"mailbox recorded {mailbox.stats['offered']} offers, "
                    f"fewer than the {routed[index]} routed to it"
                )
        c = self.stats_counters
        if c["offered"] != sum(routed) + c["rate_limited"]:
            raise MachineError(
                f"fleet ingress accounting violated: offered {c['offered']} "
                f"!= routed {sum(routed)} + rate-limited {c['rate_limited']}"
            )

    def stats(self) -> Dict[str, Any]:
        totals: Dict[str, int] = {
            "admitted": 0, "coalesced": 0, "rejected": 0, "dropped": 0,
        }
        for mailbox in self.mailboxes:
            for key in totals:
                totals[key] += mailbox.stats[key]
        shed = totals["rejected"] + totals["dropped"]
        return {
            **self.stats_counters,
            **totals,
            "shed": shed,
            "pending": self.pending,
            "batch_size": self.batch_size,
            "latency_ewma_ms": self.latency.value,
            "healthy": len(self.healthy_members()),
            "members": len(self.mailboxes),
            "retired": len(self.retired),
        }

    def __repr__(self) -> str:
        return (
            f"FleetIngress({len(self.mailboxes)} members, "
            f"batch={self.batch_size}, {self.stats_counters})"
        )
