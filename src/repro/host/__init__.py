"""Host substrate: event loops, simulated remote services, supervision.

The paper's HipHop.js runs inside JavaScript's event loop and talks to
remote services (the OAuth ``authenticateSvc``).  This package provides
the Python equivalents: a deterministic virtual-time loop for tests and
examples, an asyncio adapter for real deployments, simulated services
with configurable latency *and failures* (:class:`FlakyService`), the
supervision combinators that tame them (:func:`with_timeout`,
:func:`with_retry`, :class:`CircuitBreaker`), and a seeded fault-injection
loop (:class:`ChaosLoop`) for chaos testing in virtual time.
"""

from repro.host.loop import SimulatedLoop, AsyncioLoop
from repro.host.services import AuthService, FlakyService, ServiceResponse
from repro.host.resilience import (
    CircuitBreaker,
    RetryPolicy,
    loop_now_ms,
    with_retry,
    with_timeout,
)
from repro.host.chaos import ChaosLoop, LoadGenerator, MachineCrasher
from repro.host.netchaos import ChaosTransport, MemoryEndpoint, memory_pipe

__all__ = [
    "SimulatedLoop",
    "AsyncioLoop",
    "ChaosLoop",
    "MachineCrasher",
    "LoadGenerator",
    "ChaosTransport",
    "MemoryEndpoint",
    "memory_pipe",
    "AuthService",
    "FlakyService",
    "ServiceResponse",
    "CircuitBreaker",
    "RetryPolicy",
    "with_retry",
    "with_timeout",
    "loop_now_ms",
]
