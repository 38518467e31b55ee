"""Supervised recovery: checkpoints, rollback-and-retry, quarantine.

:class:`MachineSupervisor` makes one reactive machine durable by pairing
a write-ahead :mod:`journal <repro.runtime.journal>` with periodic
:meth:`~repro.runtime.machine.ReactiveMachine.snapshot` checkpoints:

* a *failed* instant (exception from ``react``) is rolled back to the
  pre-instant boundary — restore the last checkpoint, replay the journal
  up to the failed instant — and retried; after ``quarantine_after``
  consecutive identical failures the member is quarantined as poisoned;
* a *crashed* machine (process death, injected
  :class:`~repro.errors.CrashError`) is recovered onto the same or a
  fresh machine with :meth:`recover`, deterministically replaying the
  journal tail so no host effect is lost or duplicated.

:class:`FleetSupervisor` applies this per member of a
:class:`~repro.runtime.fleet.MachineFleet`: batch instants
(:meth:`react_all` / :meth:`broadcast`) always complete for healthy
members even when others throw, failed members are rolled back and
retried in place, and poisoned members are quarantined (skipped) until
:meth:`revive`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import MachineError, MigrationError, ReactionBudgetExceeded
from repro.runtime.journal import MemoryJournal
from repro.runtime.machine import ReactionResult, ReactiveMachine, snapshot_checksum


class MachineSupervisor:
    """Durability wrapper for one machine.

    :param machine: the supervised :class:`ReactiveMachine`.
    :param journal: a journal sink (default: a fresh
        :class:`~repro.runtime.journal.MemoryJournal`); it is attached to
        the machine.
    :param checkpoint_every: take a checkpoint (snapshot + journal
        truncation) every N successful instants; ``None`` keeps only the
        initial checkpoint and the full journal.
    :param max_retries: how many times a failed instant is rolled back
        and retried before the failure propagates.
    :param quarantine_after: consecutive *identical* failures (same
        exception type and message — the poison-input signature) before
        the machine is quarantined.
    :param on_checkpoint: called with each new checkpoint snapshot
        *before* the journal prefix it covers is truncated.  Persisting
        the snapshot here (rather than after :meth:`checkpoint` returns)
        is the crash-safe ordering: if the process dies between the two
        steps, the durable state is a *newer* snapshot plus a journal
        that still reaches it — never an old snapshot whose journal tail
        has already been dropped.
    """

    def __init__(
        self,
        machine: ReactiveMachine,
        journal: Optional[Any] = None,
        checkpoint_every: Optional[int] = None,
        max_retries: int = 1,
        quarantine_after: int = 3,
        on_checkpoint: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        self.machine = machine
        self.journal = journal if journal is not None else MemoryJournal()
        machine.attach_journal(self.journal)
        self.checkpoint_every = checkpoint_every
        self.max_retries = max_retries
        self.quarantine_after = quarantine_after
        self.on_checkpoint = on_checkpoint
        self.quarantined = False
        self.last_error: Optional[BaseException] = None
        self.consecutive_failures = 0
        self._failure_signature: Optional[tuple] = None
        self.stats: Dict[str, int] = {
            "reactions": 0,
            "retries": 0,
            "rollbacks": 0,
            "recoveries": 0,
            "checkpoints": 0,
            "quarantines": 0,
            "budget_aborts": 0,
        }
        self._checkpoint = self.checkpoint()

    # -- checkpointing ---------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Capture the machine's between-instant state now and truncate
        the journal prefix it covers.  Returns (and keeps) the capture as
        the in-memory rollback point.

        The rollback point never leaves the process, so it is unsealed:
        it carries no ``checksum``, and :meth:`restore
        <repro.runtime.machine.ReactiveMachine.restore>` verifies only
        payloads that do.  ``on_checkpoint`` receives the sealed form (a
        :meth:`~repro.runtime.machine.ReactiveMachine.snapshot` payload),
        and runs between the capture and the truncation: the snapshot
        must be durable *before* the journal entries it replaces are
        dropped."""
        snap = self.machine._capture()
        if self.on_checkpoint is not None:
            self.on_checkpoint({**snap, "checksum": snapshot_checksum(snap)})
        self.journal.truncate(snap["reaction_count"])
        self._checkpoint = snap
        self.stats["checkpoints"] += 1
        return snap

    @property
    def last_checkpoint(self) -> Dict[str, Any]:
        """The rollback point: the latest checkpoint's unsealed capture."""
        return self._checkpoint

    # -- supervised reactions --------------------------------------------

    def react(
        self,
        inputs: Optional[Dict[str, Any]] = None,
        budget: Optional[Any] = None,
    ) -> ReactionResult:
        """One supervised instant: on failure, roll the machine back to
        the pre-instant boundary and retry up to ``max_retries`` times;
        persistent identical failures quarantine the machine (the
        exception still propagates so callers see the poison input).

        A :class:`~repro.errors.ReactionBudgetExceeded` abort (the
        machine's reaction deadline, or an explicit ``budget`` for this
        call) takes the same rollback path: the runaway instant is undone
        to the pre-instant boundary, and identical repeats quarantine the
        member as poisoned."""
        if self.quarantined:
            raise MachineError(
                f"machine {self.machine.name!r} is quarantined after "
                f"{self.consecutive_failures} identical failures "
                f"({self.last_error!r}); revive() it first"
            )
        inputs = dict(inputs or {})
        base_seq = self.machine.reaction_count
        attempts = 0
        while True:
            try:
                result = self.machine.react(inputs, budget=budget)
            except Exception as err:
                if isinstance(err, ReactionBudgetExceeded):
                    self.stats["budget_aborts"] += 1
                self._record_failure(err)
                self._rollback_to(base_seq)
                if attempts < self.max_retries:
                    attempts += 1
                    self.stats["retries"] += 1
                    continue
                if self.consecutive_failures >= self.quarantine_after:
                    self.quarantined = True
                    self.stats["quarantines"] += 1
                raise
            else:
                self.consecutive_failures = 0
                self._failure_signature = None
                self.stats["reactions"] += 1
                if (
                    self.checkpoint_every
                    and self.machine.reaction_count
                    - self._checkpoint["reaction_count"]
                    >= self.checkpoint_every
                ):
                    self.checkpoint()
                return result

    def _record_failure(self, err: BaseException) -> None:
        self.last_error = err
        signature = (type(err).__name__, str(err))
        if signature == self._failure_signature:
            self.consecutive_failures += 1
        else:
            self._failure_signature = signature
            self.consecutive_failures = 1

    def _rollback_to(self, seq: int) -> None:
        """Restore the instant boundary ``seq``: drop the failed
        instant's write-ahead entries, restore the last checkpoint, and
        replay the surviving journal tail up to ``seq``."""
        self.journal.rewind(seq)
        self.machine.restore(self._checkpoint)
        self.machine.replay(self.journal.entries(self._checkpoint["reaction_count"]))
        self.stats["rollbacks"] += 1

    # -- crash recovery --------------------------------------------------

    def recover(self, machine: Optional[ReactiveMachine] = None) -> ReactiveMachine:
        """Recover from a crash: restore the latest checkpoint and replay
        the journal tail — onto ``machine`` (a fresh instance of the same
        compiled module, simulating a process restart) or, by default,
        onto the supervised machine itself.  The recovered machine is
        (re-)attached to the journal and becomes the supervised one.

        Committed entries replay silently (their host effects were
        already delivered before the crash); a trailing *uncommitted*
        suffix — instants killed mid-flight, whose effects never
        happened — is rewound from the journal and redone **live**, so
        listeners and exec actions fire exactly once overall."""
        target = machine if machine is not None else self.machine
        if target is not self.machine:
            # Detach the dead machine so a stale host callback can no
            # longer append to the journal the successor now owns.
            self.machine.attach_journal(None)
        entries = self.journal.entries(self._checkpoint["reaction_count"])
        committed = [e for e in entries if e.committed]
        tail = [e for e in entries if not e.committed]
        target.attach_journal(None)
        target.restore(self._checkpoint)
        target.replay(committed)
        if tail:
            self.journal.rewind(tail[0].seq)
        target.attach_journal(self.journal)
        self.machine = target
        for entry in tail:
            for slot, value in entry.execs:
                state = target._execs[slot]
                if state.running:
                    state.pending = True
                    state.pending_value = value
            target.react(dict(entry.inputs))
        self.quarantined = False
        self.stats["recoveries"] += 1
        return target

    def revive(self) -> None:
        """Lift a quarantine (operator override): the next failure starts
        a fresh identical-failure count."""
        self.quarantined = False
        self.consecutive_failures = 0
        self._failure_signature = None

    # -- hot program upgrade ---------------------------------------------

    def upgrade(self, machine: ReactiveMachine) -> "MigrationReport":
        """Swap the supervised machine for ``machine`` — a *fresh* (never
        reacted) machine of an edited program version — carrying the
        current between-instant state across the edit.

        Runs at an instant boundary: the old machine's state is
        checkpointed, mapped onto the new program with
        :func:`~repro.runtime.migrate.migrate_snapshot` (state whose
        segment keys survive the edit is carried byte-exactly, new state
        boots fresh, removed state is reported), and the successor takes
        over the journal with a fresh checkpoint.  No instant is dropped:
        every reaction before the call ran on v1, every reaction after it
        runs on v2, and the journal prefix the old checkpoint covered was
        already committed.

        Returns the :class:`~repro.runtime.migrate.MigrationReport`.
        Raises :class:`~repro.errors.MigrationError` if ``machine`` has
        already reacted (its boot snapshot must supply pristine defaults).
        """
        from repro.runtime.migrate import (
            migrate_snapshot,
            state_descriptor,
        )

        if machine.reaction_count != 0:
            raise MigrationError(
                f"upgrade target {machine.name!r} has already run "
                f"{machine.reaction_count} instants; pass a fresh machine"
            )
        snap = self.checkpoint()
        desc_from = state_descriptor(self.machine.compiled)
        desc_to = state_descriptor(machine.compiled)
        boot = machine.snapshot()
        # Boot-probe a scratch machine so instances new in v2 are seeded
        # with post-boot state and start reacting at the next instant
        # (a branch grafted into a running parallel can never re-receive
        # the boot pulse the old program already consumed).
        # The probe must resolve the same textual combine functions (and
        # host expressions) as the target, so it borrows its host scope.
        probe = ReactiveMachine(
            machine.compiled, host_globals=machine.host_globals
        )
        probe.react({})
        migrated, report = migrate_snapshot(
            snap, desc_from, desc_to, boot, probe.snapshot()
        )
        self.machine.attach_journal(None)
        machine.restore(migrated)
        machine.attach_journal(self.journal)
        self.machine = machine
        self.quarantined = False
        self.consecutive_failures = 0
        self._failure_signature = None
        self.checkpoint()
        self.stats["upgrades"] = self.stats.get("upgrades", 0) + 1
        return report

    def __repr__(self) -> str:
        state = "quarantined" if self.quarantined else "healthy"
        return (
            f"MachineSupervisor({self.machine.name}, {state}, "
            f"checkpoint@{self._checkpoint['reaction_count']}, "
            f"{len(self.journal)} journaled)"
        )


class FleetSupervisor:
    """Per-member fault isolation for a
    :class:`~repro.runtime.fleet.MachineFleet`.

    Every member gets its own :class:`MachineSupervisor` (journal +
    checkpoints + rollback/retry/quarantine).  Batch instants complete
    for all healthy members even when some throw; per-instant failures
    are collected in :attr:`last_failures` instead of aborting the batch,
    and members that keep failing identically are quarantined (skipped,
    reported by :meth:`quarantined_members`, revivable with
    :meth:`revive`).
    """

    def __init__(
        self,
        fleet: Any,
        checkpoint_every: Optional[int] = None,
        journal_factory: Callable[[], Any] = MemoryJournal,
        max_retries: int = 1,
        quarantine_after: int = 3,
    ):
        self.fleet = fleet
        self.checkpoint_every = checkpoint_every
        self.journal_factory = journal_factory
        self.max_retries = max_retries
        self.quarantine_after = quarantine_after
        self.members: List[MachineSupervisor] = [
            self._supervise(machine) for machine in fleet
        ]
        #: member index → exception, for the most recent batch instant
        self.last_failures: Dict[int, BaseException] = {}

    def _supervise(self, machine: ReactiveMachine) -> MachineSupervisor:
        return MachineSupervisor(
            machine,
            journal=self.journal_factory(),
            checkpoint_every=self.checkpoint_every,
            max_retries=self.max_retries,
            quarantine_after=self.quarantine_after,
        )

    def spawn(self, **overrides: Any) -> MachineSupervisor:
        """Add (and supervise) a new fleet member."""
        supervisor = self._supervise(self.fleet.spawn(**overrides))
        self.members.append(supervisor)
        return supervisor

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, index: int) -> MachineSupervisor:
        return self.members[index]

    # -- batch driving ---------------------------------------------------

    def react_all(
        self, inputs: Optional[Dict[str, Any]] = None
    ) -> List[Optional[ReactionResult]]:
        """One supervised instant on every non-quarantined member with
        shared inputs.  Always completes the batch; failed or quarantined
        members yield ``None`` and failures land in
        :attr:`last_failures`."""
        shared = inputs or {}
        return self._drive(lambda index, machine: shared)

    def broadcast(
        self, make_inputs: Callable[[int, ReactiveMachine], Dict[str, Any]]
    ) -> List[Optional[ReactionResult]]:
        """One supervised instant per member with member-specific inputs
        (same completion guarantee as :meth:`react_all`)."""
        return self._drive(make_inputs)

    def _drive(
        self, make_inputs: Callable[[int, ReactiveMachine], Dict[str, Any]]
    ) -> List[Optional[ReactionResult]]:
        results: List[Optional[ReactionResult]] = [None] * len(self.members)
        failures: Dict[int, BaseException] = {}
        for index, supervisor in enumerate(self.members):
            if supervisor.quarantined:
                continue
            try:
                results[index] = supervisor.react(
                    make_inputs(index, supervisor.machine)
                )
            except Exception as err:
                failures[index] = err
        self.last_failures = failures
        return results

    # -- health / recovery -----------------------------------------------

    def quarantined_members(self) -> List[int]:
        return [i for i, s in enumerate(self.members) if s.quarantined]

    def revive(self, index: int) -> None:
        self.members[index].revive()

    def checkpoint_all(self) -> None:
        for supervisor in self.members:
            supervisor.checkpoint()

    def recover(
        self, index: int, machine: Optional[ReactiveMachine] = None
    ) -> ReactiveMachine:
        """Crash-recover member ``index`` (optionally onto a fresh
        machine, which replaces the dead one in the fleet as well)."""
        supervisor = self.members[index]
        old = supervisor.machine
        recovered = supervisor.recover(machine)
        if recovered is not old:
            machines = self.fleet._machines
            machines[machines.index(old)] = recovered
        return recovered

    def stats(self) -> Dict[str, Any]:
        totals: Dict[str, int] = {}
        for supervisor in self.members:
            for key, value in supervisor.stats.items():
                totals[key] = totals.get(key, 0) + value
        return {
            "members": len(self.members),
            "quarantined": len(self.quarantined_members()),
            **totals,
        }

    def __repr__(self) -> str:
        return (
            f"FleetSupervisor({len(self.members)} members, "
            f"{len(self.quarantined_members())} quarantined)"
        )
