"""The ReactorFuzz differential harness.

One fuzz *case* = (program, lifecycle plan).  :func:`run_case` drives
the case through every backend —

    worklist, levelized, sparse, lockstep

(lockstep only when the compiled plan is pure, since the bit-parallel
word engine refuses impure plans) — and asserts that every backend
observed *the same thing*:

* per-instant emitted signals, pause/termination flags, and an
  interface-level state digest;
* fatal errors (causality deadlocks, budget violations that escape),
  byte-identical;
* snapshot round trips restore to byte-identical payloads;
* journal replays of the supervisor checkpoint reconverge with the live
  machine's state digest;
* the host-effect ledger (listener invocations) is *exactly once*:
  crash/retry cycles must not double-deliver or drop an effect.

Pure programs are additionally replayed through the behavioral
interpreter (:class:`repro.interp.Interpreter`) as a semantics oracle.

Any violation raises :class:`FuzzFailure` naming the divergent
backend and op index; the runner (``repro.fuzz.cli``) shrinks the
case and writes a corpus repro.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.compiler.compile import compile_cached
from repro.errors import (
    CausalityError,
    FleetReactionError,
    HipHopError,
    MachineError,
    ReactionBudgetExceeded,
)
from repro.host.chaos import MachineCrasher
from repro.interp import Interpreter, UnsupportedProgram
from repro.runtime.fleet import MachineFleet
from repro.runtime.journal import MemoryJournal
from repro.runtime.machine import ReactiveMachine
from repro.runtime.recovery import MachineSupervisor

from repro.fuzz.gen import HOST_GLOBALS, FuzzProgram

__all__ = ["FuzzFailure", "Driver", "run_case", "CaseResult", "CONFIGS"]

#: every backend a case runs under; reference is the first
CONFIGS: Tuple[str, ...] = ("worklist", "levelized", "sparse", "lockstep")
REFERENCE = CONFIGS[0]


class FuzzFailure(AssertionError):
    """A differential violation: what diverged, where, and between whom."""

    def __init__(
        self,
        kind: str,
        detail: str,
        config: Optional[str] = None,
        op_index: Optional[int] = None,
    ):
        self.kind = kind
        self.detail = detail
        self.config = config
        self.op_index = op_index
        where = ""
        if config is not None:
            where = f" [backend={config}]"
        if op_index is not None:
            where += f" [op #{op_index}]"
        super().__init__(f"{kind}{where}: {detail}")


def _norm_error(err: BaseException) -> List[Any]:
    """Normalized fatal-error observation.  CausalityError messages and
    net lists are byte-stable across backends by construction (the
    normalized constructor in ``repro.compiler.netlist``), so the full
    rendering participates in strict comparison."""
    if isinstance(err, CausalityError):
        return [type(err).__name__, str(err), list(getattr(err, "nets", []))]
    return [type(err).__name__, str(err), []]


def obs_digest(machine: ReactiveMachine) -> str:
    """Interface-level digest of a machine's between-instant state:
    presence/pre flags and values of every interface signal, the
    termination flag, and the reaction count.  Deliberately *not* the
    positional ``state_digest``: the interface view is what the paper's
    semantics defines."""
    machine._ensure_scalar()
    items = []
    for name in sorted(machine.compiled.circuit.interface):
        view = machine.signal(name)
        items.append([name, view.now, view.pre, view.nowval, view.preval])
    payload = json.dumps(
        [items, machine.terminated, machine.reaction_count], default=repr
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _emitted(result: Any) -> List[Any]:
    return sorted([name, value] for name, value in dict(result).items())


class Driver:
    """Runs one (program, plan) under one backend configuration,
    recording an observation trace the comparator diffs."""

    def __init__(self, program: FuzzProgram, backend: str):
        self.program = program
        self.backend = backend
        self.compiled = compile_cached(program.main, program.table())
        if backend == "lockstep":
            # a size-1 lockstep fleet: reactions run on the bit-parallel
            # word engine until a scalar-only feature (journal, mailbox,
            # snapshot) demotes the member — exactly the promote/demote
            # churn the fuzzer wants to exercise
            self.fleet: Optional[MachineFleet] = MachineFleet(
                self.compiled,
                size=1,
                backend="lockstep",
                host_globals=dict(HOST_GLOBALS),
            )
            self.machine = self.fleet[0]
        else:
            self.fleet = None
            self.machine = ReactiveMachine(
                self.compiled,
                host_globals=dict(HOST_GLOBALS),
                backend=backend,
            )
        self.sup: Optional[MachineSupervisor] = None
        self.upgraded = False
        self.done = False
        #: the observation trace compared across configurations
        self.obs: List[List[Any]] = []
        #: host-effect ledger: every listener invocation, in order
        self.ledger: List[List[Any]] = []
        #: committed live instants (inputs) — the oracle's script
        self.logical_inputs: List[Dict[str, Any]] = []
        #: present outputs of each committed live instant (oracle checks)
        self.logical_outputs: List[List[str]] = []
        self.stats: Dict[str, int] = {}
        self._install_listeners(self.machine)

    # -- plumbing --------------------------------------------------------

    def _install_listeners(self, machine: ReactiveMachine) -> None:
        for name, info in machine.compiled.circuit.interface.items():
            if info.direction in ("out", "inout"):
                machine.add_listener(
                    name,
                    lambda value, name=name: self.ledger.append([name, value]),
                )

    def _member_backend(self) -> str:
        return "auto" if self.backend == "lockstep" else self.backend

    def _fresh_machine(self) -> ReactiveMachine:
        compiled = (
            compile_cached(self.program.v2_main, self.program.v2_table())
            if self.upgraded
            else self.compiled
        )
        return ReactiveMachine(
            compiled,
            host_globals=dict(HOST_GLOBALS),
            backend=self._member_backend(),
        )

    def _ensure_sup(self) -> MachineSupervisor:
        if self.sup is None:
            self.sup = MachineSupervisor(
                self.machine, journal=MemoryJournal(), max_retries=1
            )
        return self.sup

    def _react_live(self, inputs: Dict[str, Any]) -> Any:
        if self.sup is not None:
            result = self.sup.react(inputs)
        elif self.fleet is not None:
            try:
                result = self.fleet.react_all(inputs)[0]
            except FleetReactionError as err:
                raise next(iter(err.failures.values()))
        else:
            result = self.machine.react(inputs)
        if not self.upgraded:
            self.logical_inputs.append(dict(inputs))
            self.logical_outputs.append(sorted(dict(result)))
        return result

    def _record(self, entry: List[Any]) -> None:
        self.obs.append(entry)

    def _count(self, key: str) -> None:
        self.stats[key] = self.stats.get(key, 0) + 1

    # -- op dispatch -----------------------------------------------------

    def run_plan(self, plan: Dict[str, Any]) -> None:
        for index, op in enumerate(plan["ops"]):
            if self.done:
                break
            try:
                self._dispatch(index, op, plan)
            except FuzzFailure:
                raise
            except HipHopError as err:
                # a fatal reactive error ends the run: the trace up to
                # and including the normalized error is what's compared
                self._record(["fatal", index, _norm_error(err)])
                self.done = True

    def _dispatch(self, index: int, op: List[Any], plan: Dict[str, Any]) -> None:
        kind = op[0]
        if kind == "react":
            result = self._react_live(op[1])
            self._record(
                [
                    "react",
                    index,
                    _emitted(result),
                    result.paused,
                    result.terminated,
                    obs_digest(self.machine),
                ]
            )
        elif kind == "budget_react":
            self._op_budget_react(index, op[1], op[2])
        elif kind == "offer":
            self._op_offer(index, op[1], plan)
        elif kind == "pump":
            self._op_pump(index, op[1])
        elif kind == "snapshot_roundtrip":
            self._op_snapshot_roundtrip(index)
        elif kind == "checkpoint":
            sup = self._ensure_sup()
            sup.checkpoint()
            self._record(["ckpt", index, obs_digest(self.machine)])
        elif kind == "journal_replay":
            self._op_journal_replay(index)
        elif kind == "crash_between":
            self._op_crash(index, "between", None, op[1])
        elif kind == "crash_mid":
            self._op_crash(index, "mid", op[1], op[2])
        elif kind == "upgrade":
            self._op_upgrade(index)
        else:
            raise AssertionError(f"unknown op {kind!r}")

    # -- individual ops --------------------------------------------------

    def _op_budget_react(
        self, index: int, inputs: Dict[str, Any], budget: int
    ) -> None:
        """Attempt the instant under a tiny net-evaluation budget; if the
        watchdog fires, roll back (snapshot + journal rewind) and redo it
        unbudgeted.  Whether the budget sufficed is backend-dependent
        (evaluation order differs), so only the converged result is
        compared."""
        self.machine._ensure_scalar()
        snap = self.machine.snapshot()
        try:
            result = self.machine.react(inputs, budget=budget)
        except ReactionBudgetExceeded:
            self._count("budget_aborts")
            if self.machine.journal is not None:
                self.machine.journal.rewind(snap["reaction_count"])
            self.machine.restore(snap)
            result = self.machine.react(inputs)
        if not self.upgraded:
            self.logical_inputs.append(dict(inputs))
            self.logical_outputs.append(sorted(dict(result)))
        self._record(
            [
                "budget",
                index,
                _emitted(result),
                result.paused,
                result.terminated,
                obs_digest(self.machine),
            ]
        )

    def _ensure_mailbox(self, plan: Dict[str, Any]) -> None:
        if self.machine.mailbox is None:
            self.machine._ensure_scalar()
            self.machine.attach_mailbox(
                capacity=plan["capacity"], policy=plan["policy"]
            )

    def _op_offer(
        self, index: int, inputs: Dict[str, Any], plan: Dict[str, Any]
    ) -> None:
        self._ensure_mailbox(plan)
        decision = self.machine.offer(inputs)
        self._record(["offer", index, decision])

    def _op_pump(self, index: int, max_instants: int) -> None:
        """Drain admitted instants manually (``take`` + live react) so
        the consumed inputs land in the oracle script like any other
        instant."""
        mailbox = self.machine.mailbox
        drained: List[List[Any]] = []
        if mailbox is not None:
            remaining = min(max_instants, mailbox.pending)
            while remaining > 0 and mailbox.pending:
                remaining -= 1
                result = self._react_live(mailbox.take())
                drained.append(_emitted(result))
        self._record(["pump", index, drained, obs_digest(self.machine)])

    def _op_snapshot_roundtrip(self, index: int) -> None:
        self.machine._ensure_scalar()
        snap = self.machine.snapshot()
        wire = json.loads(json.dumps(snap))
        fresh = self._fresh_machine()
        fresh.restore(wire)
        resnap = fresh.snapshot()
        if resnap != snap:
            diff = sorted(
                key
                for key in set(snap) | set(resnap)
                if snap.get(key) != resnap.get(key)
            )
            raise FuzzFailure(
                "snapshot-roundtrip",
                f"restore+snapshot changed fields {diff}",
                self.backend,
                index,
            )
        self._record(["snap", index, obs_digest(self.machine)])

    def _op_journal_replay(self, index: int) -> None:
        sup = self._ensure_sup()
        fresh = self._fresh_machine()
        fresh.restore(sup.last_checkpoint)
        fresh.replay(
            sup.journal.entries(sup.last_checkpoint["reaction_count"])
        )
        live = self.machine.state_digest()
        rebuilt = fresh.state_digest()
        if live != rebuilt:
            raise FuzzFailure(
                "journal-replay-divergence",
                f"cold rebuild digest {rebuilt} != live {live}",
                self.backend,
                index,
            )
        self._record(["replay", index, obs_digest(self.machine)])

    def _op_crash(
        self,
        index: int,
        shape: str,
        after_calls: Optional[int],
        inputs: Dict[str, Any],
    ) -> None:
        """Inject a crash and let the supervisor recover it.  Between-
        instant kills always fire; mid-instant kills count host payload
        calls, so whether one fires is backend-dependent — the crasher is
        disarmed afterwards either way so no countdown leaks into later
        ops."""
        sup = self._ensure_sup()
        crasher = MachineCrasher(sup.machine)
        if shape == "between":
            crasher.kill_between_instants()
        else:
            crasher.kill_mid_instant(after_calls=after_calls)
        try:
            result = sup.react(inputs)
        finally:
            if crasher.armed:
                self._count("crash_dud")
            else:
                self._count(f"crash_{shape}")
            crasher.disarm()
        if not self.upgraded:
            self.logical_inputs.append(dict(inputs))
            self.logical_outputs.append(sorted(dict(result)))
        self._record(
            [
                "crash",
                index,
                _emitted(result),
                result.paused,
                result.terminated,
                obs_digest(self.machine),
            ]
        )

    def _op_upgrade(self, index: int) -> None:
        sup = self._ensure_sup()
        v2 = compile_cached(self.program.v2_main, self.program.v2_table())
        fresh = ReactiveMachine(
            v2,
            host_globals=dict(HOST_GLOBALS),
            backend=self._member_backend(),
        )
        sup.upgrade(fresh)
        self.machine = fresh
        self.fleet = None
        self.upgraded = True
        self._install_listeners(fresh)
        self._record(["upgrade", index, obs_digest(fresh)])


# ---------------------------------------------------------------------------
# cross-configuration comparison
# ---------------------------------------------------------------------------


def _diff_index(a: List[Any], b: List[Any]) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"first divergence at entry {i}: {x!r} != {y!r}"
    return f"length mismatch: {len(a)} vs {len(b)} entries"


class CaseResult:
    __slots__ = ("configs", "stats", "oracle_checked")

    def __init__(self, configs, stats, oracle_checked):
        self.configs = configs
        self.stats = stats
        self.oracle_checked = oracle_checked

    def __repr__(self) -> str:
        return (
            f"CaseResult({len(self.configs)} configs, "
            f"oracle={'yes' if self.oracle_checked else 'no'}, {self.stats})"
        )


def _check_oracle(program: FuzzProgram, reference: Driver) -> bool:
    """Replay the reference run's committed instants through the
    behavioral interpreter.  Returns whether the oracle actually ran
    (programs using constructs outside its subset are skipped)."""
    try:
        interp = Interpreter(program.main, modules=program.table())
    except UnsupportedProgram:
        return False
    for step, inputs in enumerate(reference.logical_inputs):
        present = {name for name, value in inputs.items() if value}
        try:
            outs = interp.react(present)
        except UnsupportedProgram:
            return False
        expected = reference.logical_outputs[step]
        if sorted(outs) != expected:
            raise FuzzFailure(
                "oracle-divergence",
                f"instant {step} inputs {sorted(present)}: interpreter "
                f"emitted {sorted(outs)}, circuits emitted {expected}",
                REFERENCE,
                None,
            )
    return True


def run_case(program: FuzzProgram, plan: Dict[str, Any]) -> CaseResult:
    """Run one case under every configuration and compare.  Raises
    :class:`FuzzFailure` on any differential violation."""
    drivers: Dict[str, Driver] = {}
    lockstep_ok = compile_cached(
        program.main, program.table()
    ).evaluation_plan().is_pure
    for backend in CONFIGS:
        if backend == "lockstep" and not lockstep_ok:
            continue
        try:
            driver = Driver(program, backend)
        except MachineError as err:
            if backend == "lockstep":
                # word-plan rejection (e.g. cyclic-but-constructive
                # plans): scalar backends still cover this case
                continue
            raise FuzzFailure("construction", str(err), backend, None)
        driver.run_plan(plan)
        drivers[backend] = driver

    reference = drivers[REFERENCE]
    for config, driver in drivers.items():
        if config == REFERENCE:
            continue
        if driver.obs != reference.obs:
            raise FuzzFailure(
                "trace-divergence",
                _diff_index(driver.obs, reference.obs),
                config,
                None,
            )
        if driver.ledger != reference.ledger:
            raise FuzzFailure(
                "effect-ledger-divergence",
                _diff_index(driver.ledger, reference.ledger),
                config,
                None,
            )

    oracle_checked = False
    if program.pure:
        oracle_checked = _check_oracle(program, reference)

    stats: Dict[str, int] = {}
    for driver in drivers.values():
        for key, value in driver.stats.items():
            stats[key] = stats.get(key, 0) + value
    return CaseResult(sorted(drivers), stats, oracle_checked)
