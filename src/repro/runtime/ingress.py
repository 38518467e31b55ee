"""Overload-resilient ingress: bounded mailboxes, rate limiting, EWMA.

The paper's reactive machine assumes the host feeds ``react(inputs)`` at
whatever rate events arrive; Skini explicitly targets audiences of
hundreds of concurrent participants.  Under a traffic spike that model
either queues unboundedly or stalls the host loop.  This module is the
explicit overload layer in between: every input offered to a machine is
**admitted, coalesced, shed, or rejected by a recorded policy decision**
— never silently dropped, never unboundedly buffered.

* :class:`Mailbox` — a bounded per-machine input queue with three
  shedding policies: ``reject`` (raise
  :class:`~repro.errors.OverloadError`, recorded), ``drop-oldest``
  (evict the head, recorded), and semantics-aware ``coalesce`` (merge
  the burst into the newest queued input map using each valued signal's
  combine function — last-wins for pure or combine-less signals — so a
  burst of N pending maps collapses into one instant whose trace equals
  the one-instant-per-merged-map oracle on every backend).
* :class:`TokenBucket` — the fleet admission rate limiter (tokens refill
  continuously against loop time; acquisition is all-or-nothing).
* :class:`LatencyEwma` — exponentially-weighted reaction latency tracker
  driving adaptive batch sizing in
  :class:`~repro.runtime.fleet.FleetIngress`.

Accounting invariant (checked by ``tests/test_overload.py`` and gated by
``benchmarks/bench_overload.py``): for every mailbox,

    offered == admitted + coalesced + rejected

and every eviction increments ``dropped`` — so the number of input maps
ever lost is exactly ``rejected + dropped``, all on the record.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional

from repro.errors import MachineError, OverloadError

#: the pluggable shedding policies of :class:`Mailbox`
POLICIES = ("reject", "drop-oldest", "coalesce")

#: admission decisions recorded by :meth:`Mailbox.offer`
ADMITTED = "admitted"
COALESCED = "coalesced"
DROPPED_OLDEST = "dropped-oldest"
REJECTED = "rejected"
RATE_LIMITED = "rate-limited"


def merge_inputs(
    older: Mapping[str, Any],
    newer: Mapping[str, Any],
    combines: Optional[Mapping[str, Optional[Callable[[Any, Any], Any]]]] = None,
) -> Dict[str, Any]:
    """Merge two pending input maps into the map of one combined instant.

    For each signal present in both maps, a declared combine function
    merges the values exactly as two emissions within one instant would
    (``RuntimeSignal.write`` combines re-emissions); signals without one
    — pure presence (``True``) or plain valued signals — keep the
    *newer* value (last-wins, matching the newest emission a machine
    would have observed last).  Signals present in only one map carry
    over unchanged, so presence is the union of the two instants.
    """
    merged = dict(older)
    combines = combines or {}
    for name, value in newer.items():
        if name in merged:
            combine = combines.get(name)
            if combine is not None and merged[name] is not True and value is not True:
                merged[name] = combine(merged[name], value)
            else:
                merged[name] = value
        else:
            merged[name] = value
    return merged


class Mailbox:
    """A bounded input queue guarding one reactive machine.

    :param capacity: maximum number of pending input maps (≥ 1).
    :param policy: what happens to an ``offer`` when full — ``"reject"``
        raises :class:`~repro.errors.OverloadError` (after recording the
        rejection), ``"drop-oldest"`` evicts the head of the queue, and
        ``"coalesce"`` merges the offered map into the newest queued map
        with :func:`merge_inputs`.
    :param combines: per-signal combine functions for ``coalesce``
        (typically harvested from the machine via :meth:`for_machine`).
    :param name: label used in error messages and stats.

    :attr:`on_mail`, when set, is called with no arguments each time an
    offer turns an empty queue into a non-empty one; a
    :class:`~repro.runtime.fleet.FleetIngress` uses it to list its
    member as ready, so a pump round visits only members with mail.
    """

    def __init__(
        self,
        capacity: int = 64,
        policy: str = "coalesce",
        combines: Optional[Mapping[str, Optional[Callable[[Any, Any], Any]]]] = None,
        name: str = "mailbox",
    ):
        if capacity < 1:
            raise ValueError(f"mailbox capacity must be >= 1, got {capacity}")
        if policy not in POLICIES:
            raise MachineError(
                f"unknown mailbox policy {policy!r}; expected one of {POLICIES}"
            )
        self.capacity = capacity
        self.policy = policy
        self.combines = dict(combines or {})
        self.name = name
        self._queue: Deque[Dict[str, Any]] = deque()
        #: the admission record: every offered map lands in exactly one of
        #: admitted / coalesced / rejected, and every eviction in dropped
        self.stats: Dict[str, int] = {
            "offered": 0,
            "admitted": 0,
            "coalesced": 0,
            "rejected": 0,
            "dropped": 0,
        }
        #: called when an offer ends the queue's emptiness (no owner: None)
        self.on_mail: Optional[Callable[[], None]] = None

    @classmethod
    def for_machine(
        cls,
        machine: Any,
        capacity: int = 64,
        policy: str = "coalesce",
    ) -> "Mailbox":
        """A mailbox whose coalescing respects ``machine``'s declared
        combine functions: each input/inout interface signal's resolved
        combine is used to merge burst values without changing HipHop
        semantics (a merged map reacts exactly like the same emissions
        combined within one instant)."""
        combines: Dict[str, Optional[Callable[[Any, Any], Any]]] = {}
        circuit = machine.compiled.circuit
        for sig_name, info in circuit.interface.items():
            if info.input_net is not None:
                combines[sig_name] = machine._signals[info.slot].combine
        return cls(capacity, policy, combines, name=f"mailbox:{machine.name}")

    # -- the admission API ----------------------------------------------

    def offer(self, inputs: Mapping[str, Any]) -> str:
        """Offer one input map; returns the recorded admission decision
        (one of :data:`ADMITTED` / :data:`COALESCED` /
        :data:`DROPPED_OLDEST`).  Under the ``reject`` policy a full
        mailbox records the rejection and raises
        :class:`~repro.errors.OverloadError`."""
        self.stats["offered"] += 1
        entry = dict(inputs)
        if len(self._queue) < self.capacity:
            self._queue.append(entry)
            self.stats["admitted"] += 1
            if len(self._queue) == 1 and self.on_mail is not None:
                self.on_mail()
            return ADMITTED
        if self.policy == "coalesce":
            self._queue[-1] = merge_inputs(self._queue[-1], entry, self.combines)
            self.stats["coalesced"] += 1
            return COALESCED
        if self.policy == "drop-oldest":
            self._queue.popleft()
            self.stats["dropped"] += 1
            self._queue.append(entry)
            self.stats["admitted"] += 1
            return DROPPED_OLDEST
        self.stats["rejected"] += 1
        raise OverloadError(
            f"{self.name} full ({self.capacity} pending) under policy "
            f"'reject'; input refused",
            inputs=entry,
            pending=len(self._queue),
        )

    # -- the drain side ---------------------------------------------------

    def take(self) -> Dict[str, Any]:
        """Dequeue the oldest pending input map."""
        if not self._queue:
            raise MachineError(f"{self.name} is empty")
        return self._queue.popleft()

    def drain(self) -> List[Dict[str, Any]]:
        """Dequeue everything, oldest first."""
        out = list(self._queue)
        self._queue.clear()
        return out

    def collapse(self) -> Optional[Dict[str, Any]]:
        """Merge *all* pending maps into one instant's map (oldest to
        newest, same merge rule as the coalesce policy) and leave it as
        the only queued entry.  Returns the merged map, or ``None`` when
        empty.  ``len(queue) - 1`` merges are recorded as coalesced."""
        if not self._queue:
            return None
        merged = self._queue.popleft()
        while self._queue:
            merged = merge_inputs(merged, self._queue.popleft(), self.combines)
            self.stats["coalesced"] += 1
            self.stats["admitted"] -= 1
        self._queue.append(merged)
        return dict(merged)

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return True

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def shed(self) -> int:
        """Total input maps lost — always on the record."""
        return self.stats["rejected"] + self.stats["dropped"]

    def check_accounting(self) -> None:
        """Assert the zero-silent-drop invariant (used by tests and the
        overload bench gate)."""
        s = self.stats
        if s["offered"] != s["admitted"] + s["coalesced"] + s["rejected"]:
            raise MachineError(
                f"{self.name} accounting violated: offered {s['offered']} != "
                f"admitted {s['admitted']} + coalesced {s['coalesced']} + "
                f"rejected {s['rejected']}"
            )

    def __repr__(self) -> str:
        return (
            f"Mailbox({self.name}, {len(self._queue)}/{self.capacity} "
            f"pending, policy={self.policy!r}, stats={self.stats})"
        )


class TokenBucket:
    """Continuous-refill token bucket for fleet admission control.

    Time is supplied by the caller in milliseconds (so the bucket runs
    against :class:`~repro.host.SimulatedLoop` virtual time just as well
    as a wall clock) and must be monotone.

    :param rate_per_s: sustained admission rate, tokens per second.
    :param burst: bucket capacity (defaults to one second's worth).
    """

    def __init__(self, rate_per_s: float, burst: Optional[float] = None,
                 now_ms: float = 0.0):
        if rate_per_s <= 0:
            raise ValueError("token bucket rate must be positive")
        self.rate_per_s = rate_per_s
        self.burst = float(burst) if burst is not None else max(1.0, rate_per_s)
        if self.burst <= 0:
            raise ValueError("token bucket burst must be positive")
        self.tokens = self.burst
        self._last_ms = now_ms
        self.granted = 0
        self.refused = 0

    def _refill(self, now_ms: float) -> None:
        elapsed = now_ms - self._last_ms
        if elapsed > 0:
            self.tokens = min(
                self.burst, self.tokens + elapsed * self.rate_per_s / 1000.0
            )
            self._last_ms = now_ms

    def try_acquire(self, now_ms: float, tokens: float = 1.0) -> bool:
        """All-or-nothing: take ``tokens`` if available at ``now_ms``."""
        self._refill(now_ms)
        if self.tokens >= tokens:
            self.tokens -= tokens
            self.granted += 1
            return True
        self.refused += 1
        return False

    def __repr__(self) -> str:
        return (
            f"TokenBucket({self.rate_per_s}/s, burst={self.burst}, "
            f"{self.tokens:.2f} tokens)"
        )


class LatencyEwma:
    """Exponentially-weighted moving average of reaction latency, the
    load signal for adaptive batch sizing (recent reactions dominate, so
    the controller reacts to the spike, not to the session average)."""

    def __init__(self, alpha: float = 0.2):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("EWMA alpha must be in (0, 1]")
        self.alpha = alpha
        self.value: Optional[float] = None
        self.samples = 0

    def observe(self, latency_ms: float) -> float:
        if self.value is None:
            self.value = latency_ms
        else:
            self.value += self.alpha * (latency_ms - self.value)
        self.samples += 1
        return self.value

    def __repr__(self) -> str:
        shown = f"{self.value:.3f} ms" if self.value is not None else "no samples"
        return f"LatencyEwma({shown}, n={self.samples})"
