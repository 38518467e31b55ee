"""Exception hierarchy for hiphop-py.

Every error raised by the library derives from :class:`HipHopError` so that
client code can catch library failures with a single handler.  The hierarchy
mirrors the paper's three phases: parse-time errors, compile-time errors, and
run-time errors (most importantly :class:`CausalityError`, the synchronous
deadlock detection described in section 5.2 of the paper).
"""

from __future__ import annotations

from typing import Optional, Sequence


class HipHopError(Exception):
    """Base class for all hiphop-py errors."""


class SourceLocation:
    """A position in a surface-syntax source text.

    Attributes are 1-based, matching common editor conventions.
    """

    __slots__ = ("filename", "line", "column")

    def __init__(self, filename: str = "<hiphop>", line: int = 1, column: int = 1):
        self.filename = filename
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SourceLocation)
            and self.filename == other.filename
            and self.line == other.line
            and self.column == other.column
        )

    def __hash__(self) -> int:
        return hash((self.filename, self.line, self.column))


class ParseError(HipHopError):
    """Raised by the lexer or parser on malformed surface syntax."""

    def __init__(self, message: str, location: Optional[SourceLocation] = None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class ExpansionError(HipHopError):
    """Raised while lowering surface statements to the kernel language."""


class LinkError(HipHopError):
    """Raised while inlining a ``run`` statement (unknown module, bad
    signal binding, arity mismatch on ``var`` parameters, ...)."""


class ValidationError(HipHopError):
    """Raised by static validation (unknown signals, unbound ``break``
    labels, instantaneous loops, ...)."""


class CompileError(HipHopError):
    """Raised during circuit translation for programs the compiler cannot
    implement (should be rare: validation catches most problems first)."""


class CausalityError(HipHopError):
    """A synchronous deadlock: the constructive fixpoint left some nets
    undefined.  The paper (section 5.2) requires these to be *detected and
    reported*, never silently mis-executed.

    :param nets: human-readable descriptions of the unresolved nets.
    """

    def __init__(self, message: str, nets: Sequence[str] = ()):
        self.nets = list(nets)
        if self.nets:
            message = message + "\n  unresolved: " + ", ".join(self.nets)
        super().__init__(message)


class SignalError(HipHopError):
    """Bad signal usage detected at run time (e.g. emitting an input
    signal from inside the program, or reading an undeclared signal)."""


class MultipleEmitError(SignalError):
    """A valued signal without a combine function was emitted more than
    once in a single reaction; the result would be nondeterministic."""


class MachineError(HipHopError):
    """Reactive-machine protocol violations (reacting re-entrantly,
    providing unknown input signal names, ...)."""


class SnapshotError(MachineError):
    """A machine snapshot could not be taken or restored: snapshot
    requested mid-reaction, malformed payload, or a compile-fingerprint
    mismatch (restoring onto a structurally different program)."""


class MigrationError(SnapshotError):
    """A snapshot could not be migrated across program versions: the
    descriptor does not match the snapshot's fingerprint, or the payload
    shape disagrees with the descriptor that claims to describe it."""


class OverloadError(MachineError):
    """A bounded :class:`~repro.runtime.ingress.Mailbox` refused an input
    under its ``reject`` policy (or an admission controller refused it at
    the fleet boundary).  The refusal is *recorded* in the mailbox stats
    before this is raised — overload shedding is always an explicit,
    observable policy decision, never a silent drop.

    :param inputs: the refused input map (``None`` when not applicable).
    :param pending: how many input maps were already queued.
    """

    def __init__(self, message: str, inputs: Optional[dict] = None,
                 pending: int = 0):
        self.inputs = inputs
        self.pending = pending
        super().__init__(message)


class ReactionBudgetExceeded(MachineError):
    """An instant ran past its reaction deadline: the net-evaluation
    budget threaded through :meth:`ReactiveMachine.react` was exhausted
    before the reaction (including any deferred sub-instants it queued)
    stabilized.

    This is a *recoverable* abort: registers are only latched after a
    successful fixpoint, so a :class:`~repro.runtime.recovery.MachineSupervisor`
    rolls the aborted instant back to its pre-instant boundary via the
    ordinary checkpoint/replay path.

    :param budget: the configured budget, in net evaluations.
    :param evaluated: how many evaluations had been spent when the
        deadline fired.
    """

    def __init__(self, message: str, budget: Optional[int] = None,
                 evaluated: Optional[int] = None):
        self.budget = budget
        self.evaluated = evaluated
        super().__init__(message)


class ArtifactError(MachineError):
    """A compiled plan artifact could not be written or loaded: the
    program is not portable or not picklable, the artifact is missing
    from its store or cannot be unpickled, its format is unsupported, or
    recompiling it does not land on the fingerprint it recorded."""


class FleetReactionError(MachineError):
    """One or more fleet members failed during a batch instant.

    The batch is *completed* for every healthy member before this is
    raised, so the fleet is never left half-advanced within one logical
    instant.

    :param completed: indices of the members whose reaction succeeded.
    :param failures: mapping of member index to the exception it raised.
    :param results: per-member results in member order (``None`` at the
        failed indices); a dict for ``react_each`` batches.
    """

    def __init__(self, message: str, completed: Sequence[int] = (),
                 failures: Optional[dict] = None, results: Optional[object] = None):
        self.completed = list(completed)
        self.failures = dict(failures or {})
        self.results = results
        super().__init__(message)


class CrashError(HipHopError):
    """An injected crash from the chaos harness
    (:class:`repro.host.MachineCrasher`): the process hosting a reactive
    machine is pretended dead, either mid-instant or between instants."""


class InstantaneousLoopError(ValidationError):
    """A ``loop`` body may terminate in the same instant it starts, which
    would make the reaction diverge.  Rejected statically, as in Esterel."""


# ---------------------------------------------------------------------------
# The asynchronous boundary (host services, supervision combinators)
# ---------------------------------------------------------------------------


class AsyncError(HipHopError):
    """Base class for failures crossing the asynchronous boundary: remote
    services rejecting, timing out, hanging, or being shielded by a
    supervision combinator.  These are *values* flowing through promise
    rejection paths, not control-flow exceptions inside a reaction."""


class ServiceFailure(AsyncError):
    """A simulated remote service rejected the request (the generic
    injected-fault rejection of :class:`repro.host.FlakyService`)."""


class ServiceUnavailable(ServiceFailure):
    """The request arrived during a configured outage window."""


class ServiceTimeout(AsyncError):
    """No reply arrived within the configured timeout; the late reply (if
    any) is discarded by the settle-once promise discipline."""


class CircuitOpenError(AsyncError):
    """A :class:`repro.host.CircuitBreaker` rejected the call without
    attempting it because the circuit is open (or saturated half-open)."""


class RetryExhaustedError(AsyncError):
    """``with_retry`` gave up: every attempt rejected.

    :param attempts: number of attempts made.
    :param errors: the per-attempt rejection reasons, oldest first.
    """

    def __init__(self, message: str, attempts: int = 0, errors: Sequence[BaseException] = ()):
        self.attempts = attempts
        self.errors = list(errors)
        super().__init__(message)
