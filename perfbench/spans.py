"""Layer spans for the traced run, recorded from the benchmark's side.

:func:`install` wraps public entry points of each layer (module
functions and class methods) in a :class:`Tracer` span.  The program's
own code is not edited: the wrappers are swapped in only in the traced
child interpreter.  Every wrapped call is synchronous, so spans nest as
a proper stack even while asyncio tasks interleave between them.

For each span name the tracer keeps the call count, the inclusive time
and the self time (inclusive minus the wrapped calls nested inside it).
The time covered by outermost spans is what the per-operation
``unattributed`` share is measured against.
"""

from __future__ import annotations

import functools
import gc
import time
from typing import Any, Callable, Dict, List


class Tracer:
    def __init__(self) -> None:
        #: one child-time accumulator per open span
        self._stack: List[List[float]] = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        #: seconds inside outermost spans while recording
        self.covered = 0.0
        #: name -> summed count (bytes encoded, ...)
        self.counts: Dict[str, float] = {}
        self.recording = False
        self._gc_start = 0.0
        #: generation -> [collections, pause seconds, max pause seconds]
        self.gc: Dict[int, List[float]] = {0: [0, 0.0, 0.0], 1: [0, 0.0, 0.0], 2: [0, 0.0, 0.0]}

    def split(self) -> "Tracer":
        """Hand what was recorded so far (the set-up) to a new tracer and
        start this one afresh for the timed window."""
        setup = Tracer()
        setup.spans, setup.counts, setup.gc = self.spans, self.counts, self.gc
        self.spans, self.counts, self.covered = {}, {}, 0.0
        self.gc = {0: [0, 0.0, 0.0], 1: [0, 0.0, 0.0], 2: [0, 0.0, 0.0]}
        return setup

    def wrap(self, fn: Callable, name: str, count: Callable[[Any], float] = None) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.covered += elapsed
                entry = tracer.spans.get(name)
                if entry is None:
                    entry = tracer.spans[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - children[0]
            if count is not None:
                tracer.counts[name] = tracer.counts.get(name, 0.0) + count(result)
            return result

        return span

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run one call from the benchmark's own code inside a span."""
        return self.wrap(fn, name)(*args, **kwargs)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if not self.recording:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_start
        entry = self.gc[info["generation"]]
        entry[0] += 1
        entry[1] += pause
        entry[2] = max(entry[2], pause)

    # -- derived figures -------------------------------------------------

    def mean_ms(self, name: str, inclusive: bool = True) -> float:
        entry = self.spans.get(name)
        if not entry or not entry[0]:
            return 0.0
        return 1000.0 * (entry[1] if inclusive else entry[2]) / entry[0]

    def total_ms(self, name: str, inclusive: bool = True) -> float:
        entry = self.spans.get(name)
        if not entry:
            return 0.0
        return 1000.0 * (entry[1] if inclusive else entry[2])

    def calls(self, name: str) -> int:
        entry = self.spans.get(name)
        return int(entry[0]) if entry else 0


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in ``tracer`` spans and
    register its garbage-collector callback."""
    from repro.runtime import gateway, recovery, wsproto
    from repro.runtime.fleet import FleetIngress, MachineFleet
    from repro.runtime.journal import MemoryJournal
    from repro.runtime.machine import ReactiveMachine

    def patch(owner: Any, attr: str, name: str, count: Callable = None) -> None:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count))

    patch(ReactiveMachine, "react", "machine.react")
    patch(ReactiveMachine, "snapshot", "machine.snapshot")
    patch(MachineFleet, "react_all", "fleet.react_all")
    patch(MachineFleet, "react_one", "fleet.react_one")
    patch(FleetIngress, "offer", "ingress.offer")
    patch(FleetIngress, "pump", "ingress.pump")
    patch(gateway.Gateway, "pump_now", "gateway.pump_now")
    patch(gateway.Session, "push_diff", "gateway.push_diff")
    # the gateway and its client encode through the name they imported
    patch(gateway, "encode_text", "wsproto.encode", count=len)
    patch(wsproto.FrameAssembler, "feed", "wsproto.decode")
    patch(recovery.MachineSupervisor, "react", "recovery.supervise")
    patch(recovery.MachineSupervisor, "checkpoint", "recovery.checkpoint")
    for attr in ("append", "commit", "truncate"):
        patch(MemoryJournal, attr, f"journal.{attr}")
    gc.callbacks.append(tracer._on_gc)
