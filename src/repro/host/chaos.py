"""Deterministic fault injection for the host loop.

:class:`ChaosLoop` is a :class:`~repro.host.SimulatedLoop` that perturbs
the schedule the way a loaded machine or a flaky transport would — timers
drift within a slack window (reordering near-simultaneous callbacks), and
``call_soon`` wakeups are dropped or duplicated — while staying fully
deterministic: one seed, one schedule.  A failing seed is therefore a
reproducible test case, not a flake.

The perturbations deliberately target the two channels the reactive
machine relies on: timers (service latencies, HipHop ``Timer`` modules)
and ``call_soon`` (queued reactions from ``this.react`` / ``notify``).
Safety invariants — no stale grant after preemption, no double dispense —
must survive *any* such schedule; liveness only holds when wakeups are
not dropped, so keep ``drop_soon_rate`` at zero for convergence checks.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional

from repro.errors import CrashError
from repro.host.loop import SimulatedLoop, TimerHandle


class _PhasedIntervalHandle:
    """Cancellation token for a phase-shifted interval: cancels the arming
    timeout and, once armed, the interval itself."""

    def __init__(self) -> None:
        self.cancelled = False
        self.inner: Optional[TimerHandle] = None

    def cancel(self) -> None:
        self.cancelled = True
        if self.inner is not None:
            self.inner.cancel()


class ChaosLoop(SimulatedLoop):
    """A seeded, schedule-perturbing :class:`SimulatedLoop`.

    :param seed: RNG seed; the whole perturbed schedule is a pure function
        of it (and the program's scheduling calls).  Pass ``rng`` to share
        a generator instead.
    :param timer_slack_ms: each ``set_timeout`` delay is shifted by a
        uniform draw in ``[-slack, +slack]`` (clamped at 0), reordering
        timers closer together than the slack.  Interval *periods* are
        kept exact so periodic processes stay periodic; only their phase
        shifts.
    :param drop_soon_rate: probability a ``call_soon`` callback is lost.
    :param duplicate_soon_rate: probability a ``call_soon`` callback runs
        twice (at-least-once delivery).
    """

    def __init__(
        self,
        seed: int = 0,
        timer_slack_ms: float = 0.0,
        drop_soon_rate: float = 0.0,
        duplicate_soon_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        super().__init__()
        self.seed = seed
        self.rng = rng if rng is not None else random.Random(seed)
        self.timer_slack_ms = timer_slack_ms
        self.drop_soon_rate = drop_soon_rate
        self.duplicate_soon_rate = duplicate_soon_rate
        #: how much chaos was actually injected, for reports and debugging
        self.chaos_stats: Dict[str, int] = {"jittered": 0, "dropped": 0, "duplicated": 0}

    def set_timeout(self, callback: Callable[[], None], delay_ms: float) -> TimerHandle:
        if self.timer_slack_ms:
            shift = self.rng.uniform(-self.timer_slack_ms, self.timer_slack_ms)
            delay_ms = max(0.0, delay_ms + shift)
            self.chaos_stats["jittered"] += 1
        return super().set_timeout(callback, delay_ms)

    def set_interval(self, callback: Callable[[], None], period_ms: float) -> Any:
        # Shift only the first firing: the period itself stays exact.
        if not self.timer_slack_ms:
            return super().set_interval(callback, period_ms)
        phase = self.rng.uniform(0.0, self.timer_slack_ms)
        self.chaos_stats["jittered"] += 1
        handle = _PhasedIntervalHandle()

        def arm() -> None:
            if not handle.cancelled:
                handle.inner = SimulatedLoop.set_interval(self, callback, period_ms)

        SimulatedLoop.set_timeout(self, arm, phase)
        return handle

    def call_soon(self, callback: Callable[[], None]) -> None:
        if self.drop_soon_rate and self.rng.random() < self.drop_soon_rate:
            self.chaos_stats["dropped"] += 1
            return
        super().call_soon(callback)
        if self.duplicate_soon_rate and self.rng.random() < self.duplicate_soon_rate:
            self.chaos_stats["duplicated"] += 1
            super().call_soon(callback)

    def __repr__(self) -> str:
        return (
            f"ChaosLoop(seed={self.seed}, slack={self.timer_slack_ms}ms, "
            f"stats={self.chaos_stats})"
        )


class MachineCrasher:
    """Deterministic crash injection for one reactive machine.

    Two fault shapes, both raising :class:`~repro.errors.CrashError`
    exactly once per arming (the crasher disarms itself as it fires):

    * :meth:`kill_between_instants` — the *next* ``react()`` call dies
      before touching any machine state (the clean crash: the machine is
      still at an instant boundary and a snapshot+journal recovery loses
      nothing but the killed instant's write-ahead entry).
    * :meth:`kill_mid_instant` — the machine dies *inside* a reaction,
      after a seeded number of payload-visible host calls
      (``env_for``/``emit_value``).  Signals, counters and the frame may
      be torn, but registers are not: all three backends latch registers
      only after a successful fixpoint, so restoring the last checkpoint
      and replaying the journal reconstructs the exact pre-crash state.

    Injection works by shadowing the machine's host-callback methods
    with instance attributes; :meth:`disarm` removes them.  Pair with a
    :class:`ChaosLoop` (share its ``rng``) for a fully seeded
    crash-under-chaos schedule.
    """

    def __init__(self, machine: Any, seed: int = 0, rng: Optional[random.Random] = None):
        self.machine = machine
        self.rng = rng if rng is not None else random.Random(seed)
        self.armed: Optional[str] = None
        self.crash_stats: Dict[str, int] = {"mid_instant": 0, "between_instants": 0}
        self._countdown = 0

    # -- fault arming ----------------------------------------------------

    def kill_between_instants(self) -> None:
        """Arm a crash of the next ``react()`` call, before it starts."""
        self.disarm()
        self.armed = "between"
        machine = self.machine

        def crashed_react(inputs: Optional[Dict[str, Any]] = None, **_kwargs: Any) -> Any:
            self.disarm()
            self.crash_stats["between_instants"] += 1
            raise CrashError(
                f"injected crash: machine {machine.name!r} killed between "
                f"instants (at reaction {machine.reaction_count})"
            )

        machine.__dict__["react"] = crashed_react

    def kill_mid_instant(self, after_calls: Optional[int] = None) -> None:
        """Arm a crash *inside* a subsequent reaction: the machine dies on
        the ``after_calls``-th payload host call (``env_for`` or
        ``emit_value``; seeded 1..8 when not given)."""
        self.disarm()
        self.armed = "mid"
        self._countdown = after_calls if after_calls is not None else self.rng.randint(1, 8)
        machine = self.machine
        original_env_for = machine.env_for
        original_emit_value = machine.emit_value

        def crash_if_due() -> None:
            self._countdown -= 1
            if self._countdown <= 0:
                self.disarm()
                self.crash_stats["mid_instant"] += 1
                raise CrashError(
                    f"injected crash: machine {machine.name!r} killed "
                    f"mid-instant (during reaction {machine.reaction_count})"
                )

        def env_for(scope: Dict[str, int]) -> Any:
            crash_if_due()
            return original_env_for(scope)

        def emit_value(slot: int, value: Any) -> None:
            crash_if_due()
            original_emit_value(slot, value)

        machine.__dict__["env_for"] = env_for
        machine.__dict__["emit_value"] = emit_value

    def kill_at_random(self) -> str:
        """Arm one of the two fault shapes, chosen by the seeded RNG;
        returns which (``"mid"`` / ``"between"``)."""
        if self.rng.random() < 0.5:
            self.kill_between_instants()
        else:
            self.kill_mid_instant()
        return self.armed or ""

    def disarm(self) -> None:
        """Remove any armed fault (also called automatically as a fault
        fires, so each arming kills at most once)."""
        self.armed = None
        for name in ("react", "env_for", "emit_value"):
            self.machine.__dict__.pop(name, None)

    def __repr__(self) -> str:
        return (
            f"MachineCrasher({self.machine.name}, armed={self.armed!r}, "
            f"stats={self.crash_stats})"
        )


class LoadGenerator:
    """Deterministic traffic generation against a loop's (virtual) time.

    Two canonical overload shapes, both pure functions of the seed:

    * :meth:`poisson` — **open-loop** traffic: events arrive with
      exponentially distributed gaps at a target rate, regardless of how
      fast the system drains them (the arrival process of independent
      Skini participants tapping their phones).
    * :meth:`bursts` — **closed-loop** burst traffic: a burst of
      back-to-back events, a gap, the next burst (the thundering-herd
      shape of a conductor cue or a reconnect storm).

    Each event calls ``sink(inputs)`` with the map built by
    ``make_inputs(event_index)``; the sink is typically
    :meth:`Mailbox.offer <repro.runtime.ingress.Mailbox.offer>`, a
    :class:`~repro.runtime.fleet.FleetIngress` route, or a bare
    ``machine.react``.  Sink exceptions (e.g.
    :class:`~repro.errors.OverloadError` under the ``reject`` policy)
    are counted in ``stats["sink_errors"]`` and do not stop the run —
    overload experiments must outlive the overload.
    """

    def __init__(
        self,
        loop: Any,
        sink: Callable[[Dict[str, Any]], Any],
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ):
        self.loop = loop
        self.sink = sink
        self.seed = seed
        self.rng = rng if rng is not None else random.Random(seed)
        self.stats: Dict[str, int] = {"scheduled": 0, "delivered": 0, "sink_errors": 0}

    def _deliver(self, make_inputs: Callable[[int], Dict[str, Any]], index: int) -> None:
        self.stats["delivered"] += 1
        try:
            self.sink(make_inputs(index))
        except Exception:
            self.stats["sink_errors"] += 1

    def poisson(
        self,
        rate_per_s: float,
        duration_ms: float,
        make_inputs: Callable[[int], Dict[str, Any]] = lambda i: {},
    ) -> int:
        """Schedule open-loop Poisson arrivals at ``rate_per_s`` over the
        next ``duration_ms`` of loop time (exponential inter-arrival
        gaps, drawn up front so the schedule is a pure function of the
        seed).  Returns the number of events scheduled; drive the loop
        (``advance`` / real time) to deliver them."""
        if rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")
        if duration_ms < 0:
            raise ValueError("duration must be >= 0")
        mean_gap_ms = 1000.0 / rate_per_s
        at = self.rng.expovariate(1.0) * mean_gap_ms
        index = 0
        while at <= duration_ms:
            event = index

            def fire(event: int = event) -> None:
                self._deliver(make_inputs, event)

            self.loop.set_timeout(fire, at)
            self.stats["scheduled"] += 1
            index += 1
            at += self.rng.expovariate(1.0) * mean_gap_ms
        return index

    def bursts(
        self,
        burst_size: int,
        gap_ms: float,
        count: int,
        make_inputs: Callable[[int], Dict[str, Any]] = lambda i: {},
        start_ms: float = 0.0,
    ) -> int:
        """Schedule ``count`` bursts of ``burst_size`` back-to-back events
        (same loop instant), ``gap_ms`` apart, starting ``start_ms`` from
        now.  Returns the number of events scheduled."""
        if burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if gap_ms <= 0:
            raise ValueError("gap_ms must be positive")
        index = 0
        for burst in range(count):
            at = start_ms + burst * gap_ms
            for _ in range(burst_size):
                event = index

                def fire(event: int = event) -> None:
                    self._deliver(make_inputs, event)

                self.loop.set_timeout(fire, at)
                self.stats["scheduled"] += 1
                index += 1
        return index

    def __repr__(self) -> str:
        return f"LoadGenerator(seed={self.seed}, stats={self.stats})"
