"""Simulated remote services, with failures.

The paper's login example posts credentials to a third-party OAuth server
(``authenticateSvc(name, passwd).post().then(v => ...)``).  We reproduce
the same call shape against a deterministic in-process service: ``post()``
returns a promise-like :class:`ServiceResponse` whose ``then`` callback
fires after a configurable latency on the host loop.

This substitution keeps the paper's asynchronous code path intact — the
async statement starts a non-blocking request, the reply arrives in a
later reaction, and preempted requests are discarded — while making tests
deterministic.

Beyond the happy path, :class:`ServiceResponse` is a settle-once promise
with a rejection branch (``.catch``) and an optional timeout, and
:class:`FlakyService` injects every failure mode a real network exhibits
(errors, latency jitter, hangs, outage windows) from a seeded RNG, so the
whole failure space replays bit-identically in virtual time.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ServiceFailure, ServiceTimeout, ServiceUnavailable

#: ServiceResponse settlement states.
PENDING = "pending"
RESOLVED = "resolved"
REJECTED = "rejected"


class ServiceResponse:
    """A settle-once promise: ``.then(fn)`` runs ``fn(value)`` on success,
    ``.catch(fn)`` runs ``fn(error)`` on rejection.

    Delivery discipline (uniform, regardless of registration time): every
    callback is dispatched through ``loop.call_soon`` once the response is
    settled *and* the callback is registered, in registration order.
    Callbacks therefore never run synchronously inside the timer that
    settles the response, nor inside ``then``/``catch`` themselves — the
    same asynchrony a real network client exhibits.  The first settlement
    wins; later ``resolve``/``reject`` calls (e.g. a reply racing a
    timeout) are ignored.

    :param value_fn: when given, the response self-settles after
        ``latency_ms`` with ``value_fn()`` — or rejects with the exception
        it raises.  Without it, the creator settles the response
        explicitly through :meth:`resolve` / :meth:`reject`.
    :param timeout_ms: when given, reject with :class:`ServiceTimeout`
        unless settled earlier.
    """

    def __init__(
        self,
        loop: Any,
        value_fn: Optional[Callable[[], Any]] = None,
        latency_ms: float = 0.0,
        timeout_ms: Optional[float] = None,
    ):
        self._loop = loop
        self._callbacks: List[Tuple[str, Callable[[Any], None]]] = []
        self.state = PENDING
        self._value: Any = None
        self._error: Optional[BaseException] = None
        if value_fn is not None:
            loop.set_timeout(lambda: self._settle_from(value_fn), latency_ms)
        self._timeout_handle = (
            loop.set_timeout(self._on_timeout, timeout_ms) if timeout_ms is not None else None
        )

    # -- registration ------------------------------------------------------

    def then(self, callback: Callable[[Any], None]) -> "ServiceResponse":
        self._add("then", callback)
        return self

    def catch(self, callback: Callable[[Any], None]) -> "ServiceResponse":
        self._add("catch", callback)
        return self

    def _add(self, kind: str, callback: Callable[[Any], None]) -> None:
        if self.state == PENDING:
            self._callbacks.append((kind, callback))
        else:
            self._dispatch(kind, callback)

    # -- settlement --------------------------------------------------------

    def resolve(self, value: Any) -> None:
        self._settle(RESOLVED, value)

    def reject(self, error: BaseException) -> None:
        self._settle(REJECTED, error)

    def _settle_from(self, value_fn: Callable[[], Any]) -> None:
        try:
            value = value_fn()
        except Exception as err:
            self.reject(err)
        else:
            self.resolve(value)

    def _on_timeout(self) -> None:
        self.reject(ServiceTimeout("service reply timed out"))

    def _settle(self, state: str, payload: Any) -> None:
        if self.state != PENDING:
            return  # settle-once: late replies / racing timeouts are dropped
        self.state = state
        if state == RESOLVED:
            self._value = payload
        else:
            self._error = payload
        if self._timeout_handle is not None:
            self._timeout_handle.cancel()
        callbacks, self._callbacks = self._callbacks, []
        for kind, callback in callbacks:
            self._dispatch(kind, callback)

    def _dispatch(self, kind: str, callback: Callable[[Any], None]) -> None:
        if kind == "then" and self.state == RESOLVED:
            value = self._value
            self._loop.call_soon(lambda: callback(value))
        elif kind == "catch" and self.state == REJECTED:
            error = self._error
            self._loop.call_soon(lambda: callback(error))

    def __repr__(self) -> str:
        return f"ServiceResponse({self.state})"


class _PendingRequest:
    """The object returned by ``authenticateSvc(name, passwd)``; calling
    ``.post()`` actually sends it (mirrors the Hop.js service API)."""

    def __init__(self, service: "AuthService", name: str, passwd: str):
        self._service = service
        self.name = name
        self.passwd = passwd

    def post(self) -> ServiceResponse:
        return self._service.post(self.name, self.passwd)


class AuthService:
    """A simulated authentication server.

    :param loop: host loop used for latency simulation.
    :param accounts: mapping of valid name → password.
    :param latency_ms: round-trip time of one authentication request.
    """

    def __init__(
        self,
        loop: Any,
        accounts: Optional[Dict[str, str]] = None,
        latency_ms: float = 150.0,
    ):
        self.loop = loop
        self.accounts = dict(accounts or {})
        self.latency_ms = latency_ms
        #: request log: (time_ms, name, granted)
        self.log: List[Tuple[float, str, bool]] = []
        #: force the next n requests to fail regardless of credentials
        self.outage_requests = 0

    def check(self, name: str, passwd: str) -> bool:
        if self.outage_requests > 0:
            self.outage_requests -= 1
            return False
        return self.accounts.get(name) == passwd

    def _now(self) -> float:
        return float(getattr(self.loop, "now_ms", 0.0))

    def post(self, name: str, passwd: str) -> ServiceResponse:
        def resolve() -> bool:
            granted = self.check(name, passwd)
            self.log.append((self._now(), name, granted))
            return granted

        return ServiceResponse(self.loop, resolve, self.latency_ms)

    def __call__(self, name: str, passwd: str) -> _PendingRequest:
        """Make the service callable exactly like the paper's
        ``authenticateSvc(name, passwd)``."""
        return _PendingRequest(self, name, passwd)


class FlakyService(AuthService):
    """An :class:`AuthService` that misbehaves on purpose, reproducibly.

    Every request draws the same fixed sequence from the injected seeded
    RNG (hang draw, error draw, latency draw — always all three, even when
    a rate is zero), so a given seed always yields the same failure
    schedule regardless of which knobs are enabled.

    :param error_rate: probability a request rejects with
        :class:`ServiceFailure`.
    :param hang_rate: probability a request never settles at all (pair
        with ``timeout_ms`` to turn hangs into :class:`ServiceTimeout`).
    :param latency_jitter_ms: uniform extra latency in ``[0, jitter]``
        added to ``latency_ms`` per request.
    :param outage_windows: ``(start_ms, end_ms)`` virtual-time intervals;
        requests *completing* inside one reject with
        :class:`ServiceUnavailable`.
    :param timeout_ms: per-response timeout (see :class:`ServiceResponse`).
    :param seed: seed for the private RNG; pass ``rng`` to share one.
    """

    def __init__(
        self,
        loop: Any,
        accounts: Optional[Dict[str, str]] = None,
        latency_ms: float = 150.0,
        *,
        error_rate: float = 0.0,
        hang_rate: float = 0.0,
        latency_jitter_ms: float = 0.0,
        outage_windows: Tuple[Tuple[float, float], ...] = (),
        timeout_ms: Optional[float] = None,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(loop, accounts, latency_ms)
        self.error_rate = error_rate
        self.hang_rate = hang_rate
        self.latency_jitter_ms = latency_jitter_ms
        self.outage_windows = list(outage_windows)
        self.timeout_ms = timeout_ms
        self.rng = rng if rng is not None else random.Random(seed)
        #: per-failure-mode counters, for assertions and health reports
        self.stats: Dict[str, int] = {
            "requests": 0,
            "errors": 0,
            "hangs": 0,
            "outages": 0,
            "served": 0,
        }

    def in_outage(self, time_ms: float) -> bool:
        return any(start <= time_ms < end for start, end in self.outage_windows)

    def post(self, name: str, passwd: str) -> ServiceResponse:
        self.stats["requests"] += 1
        hang_draw = self.rng.random()
        error_draw = self.rng.random()
        latency = self.latency_ms + self.rng.uniform(0.0, self.latency_jitter_ms)

        response = ServiceResponse(self.loop, timeout_ms=self.timeout_ms)
        if hang_draw < self.hang_rate:
            self.stats["hangs"] += 1
            return response  # never settles; only a timeout can reject it

        def settle() -> None:
            now = self._now()
            if self.in_outage(now):
                self.stats["outages"] += 1
                self.log.append((now, name, False))
                response.reject(ServiceUnavailable(f"service outage at t={now:.0f}ms"))
            elif error_draw < self.error_rate:
                self.stats["errors"] += 1
                self.log.append((now, name, False))
                response.reject(ServiceFailure("injected service failure"))
            else:
                self.stats["served"] += 1
                granted = self.check(name, passwd)
                self.log.append((now, name, granted))
                response.resolve(granted)

        self.loop.set_timeout(settle, latency)
        return response
