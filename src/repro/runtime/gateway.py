"""The resilient network edge: an asyncio WebSocket gateway over a fleet.

The paper's deployments are *web* programs — Skini serves an audience of
phones — yet every robustness layer built so far (mailboxes, admission
control, durable replay) stops at the process boundary.  This
module is the edge that proves the story end to end: real(istic)
connections, with all their failure modes, in front of a
:class:`~repro.runtime.fleet.FleetIngress`-guarded fleet.

Architecture::

    client ──ws── Session ──mailbox── FleetIngress ──pump── machine
       │             │                                        │
       └── resume ───┴── replay buffer          reactive diffs┘

* **Sessions, not sockets, own state.**  A WebSocket connection is a
  disposable attachment to a :class:`Session`; the session owns the
  member binding, the monotonic diff sequence, the bounded replay
  buffer, and the applied-event record.  A reconnecting client presents
  its resume token and receives exactly the diffs it missed — or a full
  snapshot when the buffer aged out or the program was upgraded.
* **Admission is never silent.**  Client events funnel through
  :meth:`FleetIngress.offer`: token-bucket refusals come back as
  structured 429-style ``busy`` frames (with a ``retry_ms`` hint), a
  full ``reject``-policy mailbox as 503 — the client retries, nothing is
  dropped on the floor.  Duplicate deliveries (chaos, retransmission
  after an ack loss) are fenced by per-session event ids: an input is
  applied **exactly once** however many times it arrives.
* **A slow consumer degrades, the pump does not.**  Reactive diffs go
  out through a bounded per-connection queue; when it fills, adjacent
  diffs coalesce into one coarser diff (the degradation ladder: full
  diffs → coalesced diffs → resume snapshot).  The pump never awaits a
  slow socket.
* **Liveness is explicit.**  Heartbeat pings on quiet connections, idle
  timeouts on dead ones, and fencing of superseded sockets (two
  connections presenting one session: the older is told and closed).

:class:`GatewayClient` is the matching client harness — reconnect with
capped exponential backoff + jitter, resume, and retransmission of the
unacknowledged event — used by the chaos property tests and the
closed-loop load benchmark (``benchmarks/bench_gateway.py``).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import secrets
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import MachineError, OverloadError
from repro.runtime.fleet import FleetIngress, MachineFleet
from repro.runtime.ingress import RATE_LIMITED
from repro.runtime.wsproto import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    FrameAssembler,
    ProtocolError,
    encode_close,
    encode_frame,
    encode_text,
    handshake_accept,
    handshake_request,
    http_response,
    parse_http_head,
    read_http_head,
    accept_key,
)

#: close code sent to a socket superseded by a newer resume of its session
CLOSE_FENCED = 4001
#: close code sent to live sockets when the gateway adopts an upgraded fleet
CLOSE_UPGRADED = 4002

#: per-session replay buffer length (diffs); a resume older than this
#: falls back to a full snapshot
REPLAY_BUFFER = 256
#: per-connection outbound queue bound; beyond it diffs coalesce
OUTBOUND_CAPACITY = 32
#: dedupe window: applied event ids remembered per session
APPLIED_WINDOW = 4096
#: admit->diff latency samples kept for ``/statsz`` (the most recent)
LATENCY_WINDOW = 8192


def _json_bytes(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"), default=str)


def _percentile(samples: Deque[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Session:
    """One logical client session: member binding, diff sequence, replay
    buffer, view, and the exactly-once applied-event record.  Outlives
    any number of physical connections."""

    __slots__ = (
        "sid", "member", "fingerprint", "seq", "replay", "view",
        "terminated", "last_event_id", "applied_ids", "applied_order",
        "applied_count", "duplicate_count", "generation", "conn",
        "created_at", "confirmed",
    )

    def __init__(self, sid: str, member: Optional[int], fingerprint: str,
                 replay_limit: int = REPLAY_BUFFER):
        self.sid = sid
        self.member = member
        self.fingerprint = fingerprint
        self.seq = 0
        self.replay: Deque[Dict[str, Any]] = deque(maxlen=replay_limit)
        self.view: Dict[str, Any] = {}
        self.terminated = False
        self.last_event_id = 0
        self.applied_ids: Set[int] = set()
        self.applied_order: Deque[int] = deque()
        self.applied_count = 0
        self.duplicate_count = 0
        self.generation = 0
        self.conn: Optional["_Conn"] = None
        self.created_at = time.monotonic()
        #: a session is confirmed once *any* frame arrives after the
        #: welcome — proof the client holds the resume token.  An
        #: unconfirmed session whose socket dies is unreachable forever
        #: (the token died with the welcome), so it is safe to reap.
        self.confirmed = False

    # -- the exactly-once record ----------------------------------------

    def is_duplicate(self, event_id: int) -> bool:
        return event_id in self.applied_ids

    def record_applied(self, event_id: int) -> None:
        if len(self.applied_order) >= APPLIED_WINDOW:
            self.applied_ids.discard(self.applied_order.popleft())
        self.applied_ids.add(event_id)
        self.applied_order.append(event_id)
        self.applied_count += 1
        if event_id > self.last_event_id:
            self.last_event_id = event_id

    # -- the committed-diff record --------------------------------------

    def push_diff(self, emitted: Dict[str, Any], terminated: bool) -> Dict[str, Any]:
        """Commit one reactive diff: assign the next sequence number,
        fold it into the server-side view, append it to the replay
        buffer, and enqueue it on the live connection (if any)."""
        self.seq += 1
        diff = {
            "t": "diff",
            "seq": self.seq,
            "emitted": emitted,
            "ack": self.last_event_id,
        }
        if terminated:
            diff["terminated"] = True
            self.terminated = True
        self.view.update(emitted)
        self.replay.append(diff)
        if self.conn is not None:
            self.conn.enqueue(diff)
        return diff

    def resume_from(self, last_seq: int) -> Optional[List[Dict[str, Any]]]:
        """The diffs a client that saw up to ``last_seq`` missed, oldest
        first — or ``None`` when the replay buffer no longer covers the
        gap (aged out, or a token from the future) and only a full
        snapshot can resynchronize."""
        if last_seq > self.seq:
            return None
        if last_seq == self.seq:
            return []
        if self.replay and self.replay[0]["seq"] <= last_seq + 1:
            return [d for d in self.replay if d["seq"] > last_seq]
        return None

    def snapshot_frame(self, token: str, reason: str) -> Dict[str, Any]:
        return {
            "t": "snapshot",
            "sid": self.sid,
            "token": token,
            "member": self.member,
            "seq": self.seq,
            "view": dict(self.view),
            "terminated": self.terminated,
            "ack": self.last_event_id,
            "reason": reason,
        }


class _Conn:
    """One physical WebSocket connection: the bounded, coalescing
    outbound queue, its writer task, and heartbeat/idle handling."""

    def __init__(self, gateway: "Gateway", reader: Any, writer: Any):
        self.gateway = gateway
        self.reader = reader
        self.writer = writer
        self.session: Optional[Session] = None
        self.alive = True
        self.outbound: Deque[Dict[str, Any]] = deque()
        self.capacity = gateway.outbound_capacity
        self._wake = asyncio.Event()
        self._lock = asyncio.Lock()
        self._sending = False
        self.last_inbound = self.last_outbound = time.monotonic()
        self._writer_task: Optional[asyncio.Task] = None
        #: the heartbeat timer, due ``heartbeat_ms`` after the last
        #: outbound frame; it sets ``_beat_due`` and wakes the writer
        self._beat: Optional[asyncio.TimerHandle] = None
        self._beat_due = False

    # -- outbound --------------------------------------------------------

    def enqueue(self, payload: Mapping[str, Any]) -> None:
        """Queue a frame for the writer task.  A full queue degrades to
        coarser diffs: the newest queued diff absorbs the incoming one
        (merged emitted map, advanced seq/ack) instead of growing the
        queue or stalling the pump."""
        if not self.alive:
            return
        entry = dict(payload)
        if "emitted" in entry:
            entry["emitted"] = dict(entry["emitted"])
        if len(self.outbound) >= self.capacity and self.outbound:
            tail = self.outbound[-1]
            if tail.get("t") == "diff" and entry.get("t") == "diff":
                tail["emitted"].update(entry["emitted"])
                tail["seq"] = entry["seq"]
                tail["ack"] = max(tail.get("ack", 0), entry.get("ack", 0))
                tail["coalesced"] = tail.get("coalesced", 0) + 1
                if entry.get("terminated"):
                    tail["terminated"] = True
                self.gateway.counters["diffs_coalesced"] += 1
                self._wake.set()
                return
        self.outbound.append(entry)
        self._wake.set()

    async def send_json(self, obj: Mapping[str, Any]) -> None:
        data = encode_text(_json_bytes(obj))
        async with self._lock:
            self._sending = True
            try:
                self.writer.write(data)
                self.last_outbound = time.monotonic()
                await self.writer.drain()
            finally:
                self._sending = False

    async def send_raw(self, data: bytes) -> None:
        async with self._lock:
            self.writer.write(data)
            self.last_outbound = time.monotonic()
            await self.writer.drain()

    @property
    def busy(self) -> bool:
        return bool(self.outbound) or self._sending

    def start_writer(self) -> None:
        self._writer_task = asyncio.ensure_future(self._write_loop())
        self._arm_heartbeat()

    def _arm_heartbeat(self) -> None:
        delay_s = self.last_outbound + self.gateway.heartbeat_ms / 1000.0 - time.monotonic()
        self._beat = asyncio.get_running_loop().call_later(delay_s, self._on_heartbeat)

    def _on_heartbeat(self) -> None:
        """The heartbeat timer fired: after ``heartbeat_ms`` with no
        outbound frame the writer pings (or, past ``idle_timeout_ms``
        without inbound traffic, closes); either way the timer re-arms
        from the last outbound frame."""
        now = time.monotonic()
        if now - self.last_outbound >= self.gateway.heartbeat_ms / 1000.0:
            self.last_outbound = now
            self._beat_due = True
            self._wake.set()
        self._arm_heartbeat()

    async def _write_loop(self) -> None:
        gateway = self.gateway
        try:
            while self.alive:
                # cleared before the work: a wake set during it makes the
                # wait below return at once
                self._wake.clear()
                if self._beat_due:
                    self._beat_due = False
                    idle_ms = (time.monotonic() - self.last_inbound) * 1000.0
                    if idle_ms >= gateway.idle_timeout_ms:
                        gateway.counters["idle_closed"] += 1
                        await self._bail(1001, "idle timeout")
                        return
                    gateway.counters["pings"] += 1
                    await self.send_raw(encode_frame(OP_PING, b"hb"))
                while self.outbound:
                    payload = self.outbound.popleft()
                    await self.send_json(payload)
                await self._wake.wait()
        except (ConnectionError, OSError, RuntimeError):
            pass
        finally:
            self.detach()

    async def _bail(self, code: int, reason: str) -> None:
        try:
            await self.send_raw(encode_close(code, reason))
        except (ConnectionError, OSError):
            pass
        self.close()

    # -- lifecycle -------------------------------------------------------

    def detach(self) -> None:
        self.alive = False
        if self._beat is not None:
            self._beat.cancel()
            self._beat = None
        self._wake.set()  # a writer parked on the wake sees ``alive`` fall
        session, self.session = self.session, None
        if session is not None and session.conn is self:
            session.conn = None
            self.gateway._reap_if_orphaned(session)
        self.gateway._conns.discard(self)

    def close(self) -> None:
        self.detach()
        try:
            self.writer.close()
        except (ConnectionError, OSError):
            pass

    def cancel(self) -> None:
        self.close()
        # RST rather than FIN: unblock a handler parked in reader.read()
        abort = getattr(self.writer, "abort", None)
        if abort is not None:
            try:
                abort()
            except (ConnectionError, OSError):
                pass
        if self._writer_task is not None:
            self._writer_task.cancel()


class Gateway:
    """The asyncio WebSocket edge over a
    :class:`~repro.runtime.fleet.FleetIngress`-guarded fleet.

    :param ingress: the admission-control front to serve (a bare
        :class:`~repro.runtime.fleet.MachineFleet` is wrapped in a
        default coalescing ingress).  The ``drop-oldest`` mailbox policy
        is refused: evicting an already-acknowledged event would
        silently un-apply it, breaking the edge's exactly-once contract
        (``coalesce`` never sheds; ``reject`` refuses *before* the ack).
    :param replay_buffer: per-session committed-diff replay depth.
    :param outbound_capacity: per-connection outbound queue bound.
    :param heartbeat_ms: quiet-connection ping interval.
    :param idle_timeout_ms: close a connection with no inbound traffic
        (pongs count) for this long; the session stays resumable.
    :param pump_interval_ms: idle tick of the pump (admitted events
        schedule a pump immediately).
    :param grow: spawn new fleet members for sessions beyond the free
        pool (otherwise new sessions are refused with a 503 ``busy``).
    :param boot: drive one empty boot reaction on each member at start
        (and on grown members), the way the concert example boots its
        fleet.
    :param record_instants: keep the per-member log of exactly the input
        maps fed to machines (post-mailbox-coalescing) — the oracle
        replay feed for digest-parity chaos tests and benchmarks.
    """

    def __init__(
        self,
        ingress: Any,
        replay_buffer: int = REPLAY_BUFFER,
        outbound_capacity: int = OUTBOUND_CAPACITY,
        heartbeat_ms: float = 5_000.0,
        idle_timeout_ms: float = 20_000.0,
        pump_interval_ms: float = 20.0,
        grow: bool = True,
        boot: bool = True,
        record_instants: bool = False,
        ws_path: str = "/ws",
        name: str = "gateway",
    ):
        if isinstance(ingress, MachineFleet):
            ingress = ingress.ingress()
        if not isinstance(ingress, FleetIngress):
            raise MachineError(
                f"Gateway needs a FleetIngress or MachineFleet, got "
                f"{type(ingress).__name__}"
            )
        for mailbox in ingress.mailboxes:
            if mailbox.policy == "drop-oldest":
                raise MachineError(
                    "Gateway refuses the 'drop-oldest' mailbox policy: "
                    "evicting an acknowledged event would silently "
                    "un-apply it; use 'coalesce' (never sheds) or "
                    "'reject' (refuses before the ack)"
                )
        self.ingress = ingress
        self.name = name
        self.ws_path = ws_path
        self.replay_buffer = replay_buffer
        self.outbound_capacity = outbound_capacity
        self.heartbeat_ms = heartbeat_ms
        self.idle_timeout_ms = idle_timeout_ms
        self.pump_interval_ms = pump_interval_ms
        self.grow = grow
        self.boot = boot
        self.fingerprint: str = ingress.fleet.compiled.fingerprint

        self.sessions: Dict[str, Session] = {}
        self._session_of_member: Dict[int, Session] = {}
        self._free: Deque[int] = deque(range(len(ingress.fleet)))
        self._conns: Set[_Conn] = set()
        self._sids = itertools.count(1)
        self._handler_tasks: Set[asyncio.Task] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: the one scheduled pump (``None`` unless a pump is pending)
        self._pump_handle: Optional[asyncio.Handle] = None
        #: the idle tick, re-armed every ``pump_interval_ms``
        self._tick: Optional[asyncio.Handle] = None
        self._server: Optional[Any] = None
        self._running = False
        self._booted = False

        #: admitted-event → diff latency samples (ms), server side, the
        #: last :data:`LATENCY_WINDOW` of them
        self.latency_samples: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._pending_stamps: Dict[int, List[float]] = {}
        self.instant_log: Dict[int, List[Dict[str, Any]]] = {}
        self._record_instants = record_instants
        self._chain_instant_hook()

        self.counters: Dict[str, int] = {
            "connections": 0,
            "sessions": 0,
            "resumes": 0,
            "resumed_replay": 0,
            "snapshot_aged_out": 0,
            "snapshot_fingerprint": 0,
            "snapshot_unknown": 0,
            "fenced": 0,
            "events": 0,
            "events_applied": 0,
            "events_duplicate": 0,
            "events_rate_limited": 0,
            "events_rejected": 0,
            "diffs": 0,
            "diffs_coalesced": 0,
            "diffs_replayed": 0,
            "diffs_unattended": 0,
            "pump_failures": 0,
            "pings": 0,
            "idle_closed": 0,
            "http_requests": 0,
            "refused_sessions": 0,
            "sessions_reaped": 0,
            "duplicate_hellos": 0,
            "upgrades": 0,
            "protocol_errors": 0,
        }

    # -- wiring ----------------------------------------------------------

    def _chain_instant_hook(self) -> None:
        previous = getattr(self.ingress, "on_instant", None)

        def on_instant(index: int, inputs: Dict[str, Any]) -> None:
            if self._record_instants:
                self.instant_log.setdefault(index, []).append(dict(inputs))
            if previous is not None:
                previous(index, inputs)

        self.ingress.on_instant = on_instant

    def _boot_member(self, index: int) -> None:
        machine = self.ingress.fleet[index]
        if machine.reaction_count == 0:
            machine.react({})

    async def start(self) -> None:
        """Boot the fleet (when ``boot``) and start the pump's idle tick.
        Must run inside the event loop that will serve connections."""
        if self._running:
            return
        self._running = True
        if self.boot and not self._booted:
            self._booted = True
            self.ingress.fleet.react_all({})
        self._loop = asyncio.get_running_loop()
        self._tick = self._loop.call_soon(self._pump_tick)

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> Any:
        """Start (if needed) and listen on TCP; returns the asyncio
        server (``server.sockets[0].getsockname()`` for the bound
        port)."""
        await self.start()
        self._server = await asyncio.start_server(self.handle_connection, host, port)
        return self._server

    async def aclose(self) -> None:
        """Stop serving: close the listener, every live connection, and
        the pump.  Sessions are kept (a restarted gateway could readopt
        them; tests inspect them)."""
        self._running = False
        for handle in (self._pump_handle, self._tick):
            if handle is not None:
                handle.cancel()
        self._pump_handle = self._tick = None
        server, self._server = self._server, None
        if server is not None:
            server.close()
        owned = list(self._handler_tasks)
        for conn in list(self._conns):
            conn.cancel()
            if conn._writer_task is not None:
                owned.append(conn._writer_task)
        for task in self._handler_tasks:
            task.cancel()
        self._handler_tasks.clear()
        # wait for the cancelled tasks to unwind; meanwhile the handlers
        # of aborted TCP connections see the abort and return, before
        # the loop that serves them may stop
        await asyncio.gather(*owned, return_exceptions=True)
        if server is not None:
            try:
                # from CPython 3.12.1 on this also waits until every
                # accepted connection is lost, so it follows the aborts
                await server.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # -- the pump --------------------------------------------------------

    def _wake_pump(self) -> None:
        """Schedule one pump on the next loop iteration, unless one is
        already pending or the gateway is not running."""
        if self._pump_handle is None and self._running:
            self._pump_handle = self._loop.call_soon(self._pump_soon)

    def _pump_soon(self) -> None:
        # clear first: a pump that raises reaches the loop's exception
        # handler and leaves the next wake free to schedule another
        self._pump_handle = None
        self.pump_now()

    def _pump_tick(self) -> None:
        """The idle tick: pump every ``pump_interval_ms`` even when
        nothing woke the pump, so mail offered straight to the ingress
        is served too."""
        try:
            self.pump_now()
        finally:
            if self._running:
                self._tick = self._loop.call_later(
                    self.pump_interval_ms / 1000.0, self._pump_tick
                )

    def pump_now(self) -> int:
        """Drain every pending mailbox through the ingress pump,
        committing one diff per member reaction.  Returns the number of
        reactions driven.  Runs synchronously on the event loop — the
        pump is the serialization point, exactly like the host loop in
        the single-process deployments."""
        driven = 0
        while True:
            results = self.ingress.pump()
            failures = self.ingress.last_failures
            if failures:
                self.counters["pump_failures"] += len(failures)
            if not results and not failures:
                break
            now = time.perf_counter()
            for index, result in results.items():
                driven += 1
                self._deliver(index, result, now)
        return driven

    def _deliver(self, index: int, result: Any, now: float) -> None:
        stamps = self._pending_stamps.get(index)
        if stamps:
            for t0 in stamps:
                self.latency_samples.append((now - t0) * 1000.0)
            stamps.clear()
        session = self._session_of_member.get(index)
        if session is None:
            self.counters["diffs_unattended"] += 1
            return
        session.push_diff(dict(result), terminated=result.terminated)
        self.counters["diffs"] += 1

    # -- session management ----------------------------------------------

    def _new_sid(self) -> str:
        return f"s{next(self._sids):x}-{secrets.token_hex(4)}"

    def token_for(self, session: Session) -> str:
        return f"{session.sid}.{self.fingerprint}"

    def _claim_member(self) -> Optional[int]:
        while self._free:
            index = self._free.popleft()
            if index not in self._session_of_member:
                return index
        if not self.grow:
            return None
        index = self.ingress.add_member()
        if self.boot:
            self._boot_member(index)
        return index

    def _release_member(self, index: Optional[int]) -> None:
        if index is not None:
            self._session_of_member.pop(index, None)
            self._free.append(index)

    def _bind(self, session: Session) -> bool:
        """Ensure the session has a member (after an upgrade rebind it
        may not); returns False when capacity ran out."""
        if session.member is None:
            member = self._claim_member()
            if member is None:
                return False
            session.member = member
        self._session_of_member[session.member] = session
        return True

    def _attach(self, session: Session, conn: _Conn) -> None:
        """Make ``conn`` the session's live socket, fencing off any
        previous one (the duplicate-resume race: the newer socket always
        wins; the older is told, then closed)."""
        old = session.conn
        if old is not None and old is not conn and old.alive:
            self.counters["fenced"] += 1
            old.session = None  # stop its cleanup from detaching the winner
            asyncio.ensure_future(self._fence_close(old))
        prev = conn.session
        if prev is not None and prev is not session and prev.conn is conn:
            # the socket is switching sessions (duplicated/reordered hello
            # or resume frames): release its previous session cleanly so a
            # stale conn pointer cannot keep it looking live forever
            prev.conn = None
            self._reap_if_orphaned(prev)
        session.generation += 1
        session.conn = conn
        conn.session = session

    async def _fence_close(self, conn: _Conn) -> None:
        try:
            # tell, then close — in this order, on one task, so the close
            # frame cannot overtake the explanation
            await conn.send_json({"t": "fenced", "code": CLOSE_FENCED})
        except (ConnectionError, OSError):
            pass
        await conn._bail(CLOSE_FENCED, "session resumed elsewhere")

    def _reap_if_orphaned(self, session: Session) -> None:
        """Free a session no client can ever resume: its only socket died
        before any frame confirmed the welcome was received, and nothing
        was applied or committed on it.  Without this, a hello whose
        welcome is eaten by the network leaks a member per retry."""
        if (
            not session.confirmed
            and session.applied_count == 0
            and session.seq == 0
            and session.sid in self.sessions
        ):
            self.counters["sessions_reaped"] += 1
            del self.sessions[session.sid]
            self._release_member(session.member)

    def close_session(self, sid: str) -> None:
        session = self.sessions.pop(sid, None)
        if session is None:
            return
        if session.conn is not None:
            session.conn.close()
        self._release_member(session.member)

    def adopt_ingress(self, ingress: Any) -> None:
        """Swap the serving fleet for an upgraded one (the edge side of
        ``upgrade_program``): the program fingerprint changes, live
        sockets are closed with :data:`CLOSE_UPGRADED` (clients
        reconnect and resume), and every session's replay buffer is
        cleared — diffs from the old program version never replay, so a
        stale resume token yields a full snapshot of the new world.
        Member bindings survive where the new fleet still has the index
        (in-place supervised upgrades); others rebind lazily."""
        if isinstance(ingress, MachineFleet):
            ingress = ingress.ingress()
        self.ingress = ingress
        self.fingerprint = ingress.fleet.compiled.fingerprint
        self._chain_instant_hook()
        if self.boot:
            for machine in ingress.fleet:
                if machine.reaction_count == 0:
                    machine.react({})
        self.counters["upgrades"] += 1
        self._session_of_member.clear()
        size = len(ingress.fleet)
        bound: Set[int] = set()
        for session in self.sessions.values():
            session.replay.clear()
            if session.member is not None and session.member < size:
                self._session_of_member[session.member] = session
                bound.add(session.member)
            else:
                session.member = None
        self._free = deque(i for i in range(size) if i not in bound)
        for conn in list(self._conns):
            asyncio.ensure_future(conn._bail(CLOSE_UPGRADED, "program upgraded"))

    # -- connection handling ---------------------------------------------

    async def handle_connection(self, reader: Any, writer: Any = None) -> None:
        """Serve one inbound connection — a real asyncio stream pair or
        a single duplex endpoint (:func:`repro.host.netchaos.memory_pipe`
        end) passed as both roles."""
        if writer is None:
            writer = reader
        self.counters["connections"] += 1
        try:
            head, leftover = await read_http_head(reader)
            start_line, headers = parse_http_head(head)
            parts = start_line.split()
            if len(parts) < 2:
                raise ProtocolError(f"bad request line {start_line!r}")
            method, path = parts[0], parts[1]
        except ProtocolError:
            self.counters["protocol_errors"] += 1
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
            return
        try:
            if headers.get("upgrade", "").lower() == "websocket":
                await self._serve_ws(reader, writer, headers, leftover)
            else:
                await self._serve_http(writer, method, path)
        except (ConnectionError, ProtocolError, OSError):
            self.counters["protocol_errors"] += 1
        finally:
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def _serve_http(self, writer: Any, method: str, path: str) -> None:
        self.counters["http_requests"] += 1
        path = path.split("?", 1)[0]
        if method != "GET":
            writer.write(http_response(400, b'{"error":"GET only"}'))
        elif path == "/healthz":
            body = _json_bytes(self.health_payload()).encode("utf-8")
            writer.write(http_response(200, body))
        elif path == "/statsz":
            body = _json_bytes(self.stats_payload()).encode("utf-8")
            writer.write(http_response(200, body))
        else:
            writer.write(http_response(404, b'{"error":"not found"}'))
        await writer.drain()

    async def _serve_ws(
        self, reader: Any, writer: Any, headers: Dict[str, str], leftover: bytes
    ) -> None:
        key = headers.get("sec-websocket-key")
        if not key:
            writer.write(http_response(400, b'{"error":"missing websocket key"}'))
            await writer.drain()
            return
        writer.write(handshake_accept(key))
        await writer.drain()

        conn = _Conn(self, reader, writer)
        self._conns.add(conn)
        conn.start_writer()
        assembler = FrameAssembler()
        try:
            frames = assembler.feed(leftover) if leftover else []
            while conn.alive:
                for frame in frames:
                    conn.last_inbound = time.monotonic()
                    if conn.session is not None:
                        conn.session.confirmed = True
                    if frame.opcode == OP_TEXT:
                        await self._dispatch(conn, frame.payload)
                    elif frame.opcode == OP_PING:
                        await conn.send_raw(encode_frame(OP_PONG, frame.payload))
                    elif frame.opcode == OP_CLOSE:
                        await conn._bail(1000, "bye")
                        return
                    # OP_PONG: inbound-activity timestamp already updated
                if not conn.alive:
                    return
                chunk = await reader.read(65536)
                if not chunk:
                    return
                frames = assembler.feed(chunk)
        except (ConnectionError, OSError):
            pass
        except ProtocolError:
            self.counters["protocol_errors"] += 1
        finally:
            conn.cancel()

    # -- the session protocol --------------------------------------------

    async def _dispatch(self, conn: _Conn, payload: bytes) -> None:
        try:
            msg = json.loads(payload.decode("utf-8"))
            kind = msg["t"]
        except (ValueError, KeyError, UnicodeDecodeError):
            self.counters["protocol_errors"] += 1
            await conn.send_json({"t": "err", "error": "unparseable frame"})
            return
        if kind == "hello":
            await self._on_hello(conn)
        elif kind == "resume":
            await self._on_resume(conn, msg)
        elif kind == "ev":
            await self._on_event(conn, msg)
        elif kind == "sync":
            await self._on_sync(conn, msg)
        elif kind == "bye":
            session = conn.session
            await conn._bail(1000, "bye")
            if session is not None:
                self.close_session(session.sid)
        else:
            self.counters["protocol_errors"] += 1
            await conn.send_json({"t": "err", "error": f"unknown frame {kind!r}"})

    async def _on_hello(self, conn: _Conn, reason: Optional[str] = None) -> None:
        if conn.session is not None:
            # a duplicated hello (at-least-once delivery) on a socket that
            # already owns a session must be idempotent: re-send that
            # session's welcome instead of claiming a second member —
            # otherwise every duplicated hello leaks a member forever
            self.counters["duplicate_hellos"] += 1
            session = conn.session
            await conn.send_json(self._welcome_frame(session, reason))
            return
        member = self._claim_member()
        if member is None:
            self.counters["refused_sessions"] += 1
            await conn.send_json(
                {"t": "busy", "code": 503, "decision": "no-capacity",
                 "retry_ms": 500.0}
            )
            await conn._bail(1013, "no capacity")
            return
        session = Session(self._new_sid(), member, self.fingerprint,
                          replay_limit=self.replay_buffer)
        self.sessions[session.sid] = session
        self._session_of_member[member] = session
        self.counters["sessions"] += 1
        self._attach(session, conn)
        await conn.send_json(self._welcome_frame(session, reason))

    def _welcome_frame(
        self, session: Session, reason: Optional[str] = None
    ) -> Dict[str, Any]:
        welcome = {
            "t": "welcome",
            "sid": session.sid,
            "token": self.token_for(session),
            "member": session.member,
            "seq": session.seq,
            "view": dict(session.view),
            "fingerprint": self.fingerprint,
        }
        if reason is not None:
            welcome["reason"] = reason
        return welcome

    async def _on_resume(self, conn: _Conn, msg: Mapping[str, Any]) -> None:
        self.counters["resumes"] += 1
        token = str(msg.get("token", ""))
        last_seq = int(msg.get("last", 0))
        sid, _, fingerprint = token.partition(".")
        session = self.sessions.get(sid)
        if session is None:
            # unknown (or expired) session: a fresh one, flagged so the
            # client knows its old world is gone
            self.counters["snapshot_unknown"] += 1
            await self._on_hello(conn, reason="unknown-session")
            return
        if not self._bind(session):
            self.counters["refused_sessions"] += 1
            await conn.send_json(
                {"t": "busy", "code": 503, "decision": "no-capacity",
                 "retry_ms": 500.0}
            )
            await conn._bail(1013, "no capacity")
            return
        session.confirmed = True  # presenting the token is proof enough
        self._attach(session, conn)
        if fingerprint != self.fingerprint:
            # a token minted by a previous program version: the replay
            # stream does not survive an upgrade — full snapshot
            self.counters["snapshot_fingerprint"] += 1
            await conn.send_json(
                session.snapshot_frame(self.token_for(session), "fingerprint")
            )
            return
        missed = session.resume_from(last_seq)
        if missed is None:
            self.counters["snapshot_aged_out"] += 1
            await conn.send_json(
                session.snapshot_frame(self.token_for(session), "aged-out")
            )
            return
        self.counters["resumed_replay"] += 1
        self.counters["diffs_replayed"] += len(missed)
        await conn.send_json(
            {"t": "resumed", "sid": session.sid, "token": self.token_for(session),
             "member": session.member, "replayed": len(missed),
             "seq": session.seq, "ack": session.last_event_id}
        )
        # enqueue (not direct-send) so replay keeps strict order with any
        # new diffs the pump commits from here on
        for diff in missed:
            conn.enqueue(diff)

    async def _on_event(self, conn: _Conn, msg: Mapping[str, Any]) -> None:
        session = conn.session
        if session is None:
            # chaos can reorder the event ahead of its hello/resume; echo
            # the id so the client retries promptly instead of timing out
            self.counters["protocol_errors"] += 1
            await conn.send_json(
                {"t": "err", "id": msg.get("id"),
                 "error": "event before hello/resume"}
            )
            return
        self.counters["events"] += 1
        try:
            event_id = int(msg["id"])
            inputs = dict(msg["inputs"])
        except (KeyError, TypeError, ValueError):
            self.counters["protocol_errors"] += 1
            await conn.send_json({"t": "err", "error": "malformed event"})
            return
        if session.is_duplicate(event_id):
            # at-least-once delivery (retransmission, chaos duplication)
            # fenced down to exactly-once application
            session.duplicate_count += 1
            self.counters["events_duplicate"] += 1
            await conn.send_json(
                {"t": "ack", "id": event_id, "decision": "duplicate",
                 "ack": session.last_event_id}
            )
            return
        now_ms = asyncio.get_event_loop().time() * 1000.0
        try:
            decision = self.ingress.offer(session.member, inputs, now_ms)
        except OverloadError:
            # bounded 'reject' mailbox: a structured refusal, not a drop
            self.counters["events_rejected"] += 1
            await conn.send_json(
                {"t": "busy", "id": event_id, "code": 503,
                 "decision": "rejected", "retry_ms": 50.0}
            )
            return
        if decision == RATE_LIMITED:
            self.counters["events_rate_limited"] += 1
            await conn.send_json(
                {"t": "busy", "id": event_id, "code": 429,
                 "decision": RATE_LIMITED, "retry_ms": self._retry_hint_ms()}
            )
            return
        session.record_applied(event_id)
        self.counters["events_applied"] += 1
        self._pending_stamps.setdefault(session.member, []).append(time.perf_counter())
        self._wake_pump()
        await conn.send_json(
            {"t": "ack", "id": event_id, "decision": decision,
             "ack": session.last_event_id}
        )

    async def _on_sync(self, conn: _Conn, msg: Mapping[str, Any]) -> None:
        """Barrier helper for clients: replies with the session's current
        committed seq — once the client has seen that seq, it holds every
        committed diff."""
        session = conn.session
        if session is None:
            await conn.send_json({"t": "err", "error": "sync before hello/resume"})
            return
        await conn.send_json(
            {"t": "synced", "id": msg.get("id"), "seq": session.seq}
        )

    def _retry_hint_ms(self) -> float:
        bucket = self.ingress.bucket
        if bucket is None:  # pragma: no cover - rate limiting disabled
            return 25.0
        deficit = max(0.0, 1.0 - bucket.tokens)
        return max(1.0, 1000.0 * deficit / bucket.rate_per_s)

    # -- broadcast (conductor pulses in serve mode) ----------------------

    def broadcast(self, inputs: Mapping[str, Any]) -> Dict[int, str]:
        """Offer ``inputs`` to every connected session's member (one
        admission decision each) and wake the pump — the Skini conductor
        pulse at the edge."""
        now_ms = asyncio.get_event_loop().time() * 1000.0
        decisions = {}
        for session in self.sessions.values():
            if session.member is not None:
                decisions[session.member] = self.ingress.offer(
                    session.member, inputs, now_ms
                )
        self._wake_pump()
        return decisions

    # -- observability ---------------------------------------------------

    def health_payload(self) -> Dict[str, Any]:
        """``/healthz``: liveness + the aggregated
        :attr:`ReactiveMachine.health` counters across the fleet, plus
        the ingress accounting invariant (a violated invariant is a bug
        worth failing a probe over)."""
        fleet = self.ingress.fleet
        failed = aborts = breakers_open = execs_running = 0
        for machine in fleet:
            health = machine.health
            failed += health["failed_reactions"]
            aborts += health["budget_aborts"]
            execs_running += health["execs_running"]
            breakers_open += sum(
                1 for b in health["breakers"].values() if b.get("state") == "open"
            )
        accounting = "ok"
        try:
            self.ingress.check_accounting()
        except MachineError as err:
            accounting = str(err)
        status = "ok" if accounting == "ok" and not failed else "degraded"
        return {
            "status": status,
            "fingerprint": self.fingerprint,
            "members": len(fleet),
            "healthy_members": len(self.ingress.healthy_members()),
            "sessions": len(self.sessions),
            "connections": len(self._conns),
            "failed_reactions": failed,
            "budget_aborts": aborts,
            "execs_running": execs_running,
            "breakers_open": breakers_open,
            "accounting": accounting,
        }

    def stats_payload(self) -> Dict[str, Any]:
        """``/statsz``: the full scrapeable accounting — gateway
        counters, admission decisions (offered/admitted/coalesced/
        rejected/rate-limited), pump latency percentiles, fleet stats."""
        samples = self.latency_samples
        fleet_stats = self.ingress.fleet.stats()
        return {
            "gateway": {
                **self.counters,
                "live_sessions": len(self.sessions),
                "live_connections": len(self._conns),
                "latency_ms": {
                    "samples": len(samples),
                    "p50": round(_percentile(samples, 0.50), 4),
                    "p99": round(_percentile(samples, 0.99), 4),
                },
            },
            "ingress": self.ingress.stats(),
            "fleet": {
                "members": fleet_stats["members"],
                "reactions": fleet_stats["reactions"],
                "backends": fleet_stats["backends"],
            },
        }

    async def drain(self, timeout_s: float = 30.0) -> bool:
        """Wait until every mailbox is pumped and every outbound queue is
        flushed (the quiesce barrier tests and benchmarks use before
        checking parity).  Returns False on timeout."""
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout_s
        while loop.time() < deadline:
            self._wake_pump()
            await asyncio.sleep(0.005)
            pending = self.ingress.pending
            queued = any(conn.busy for conn in self._conns)
            if not pending and not queued:
                await asyncio.sleep(0.01)
                if (
                    not self.ingress.pending
                    and not any(conn.busy for conn in self._conns)
                ):
                    return True
        return False

    # -- in-memory client plumbing ---------------------------------------

    def local_connector(
        self, wrap: Optional[Callable[[Any], Any]] = None
    ) -> Callable[[], Any]:
        """A connector for :class:`GatewayClient` that dials this gateway
        over an in-memory duplex pipe (no sockets): each call creates a
        fresh pipe, serves the server end on a task, and returns the
        client end — optionally passed through ``wrap`` (e.g. a seeded
        :class:`~repro.host.netchaos.ChaosTransport`)."""
        from repro.host.netchaos import memory_pipe

        async def connect() -> Tuple[Any, Any]:
            client_end, server_end = memory_pipe()
            task = asyncio.ensure_future(
                self.handle_connection(server_end, server_end)
            )
            # strong ref: a handler parked on a quiet pipe must not be GC'd
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
            transport = wrap(client_end) if wrap is not None else client_end
            return transport, transport

        return connect

    def __repr__(self) -> str:
        return (
            f"Gateway({self.name}, {len(self.sessions)} sessions, "
            f"{len(self._conns)} connections, "
            f"fingerprint={self.fingerprint[:12]}...)"
        )


class GatewayClient:
    """The client half of the resumable edge, as a test/load harness.

    Wraps one logical session: connects through ``connector`` (TCP via
    :func:`tcp_connector`, in-memory via :meth:`Gateway.local_connector`,
    either optionally chaos-wrapped), performs the WebSocket handshake
    and the ``hello``/``resume`` exchange, then offers:

    * :meth:`send_event` — closed-loop event submission with exactly-once
      semantics: retransmits the *same* event id across 429/503 refusals
      (after the server's ``retry_ms`` hint, jittered) and across
      connection deaths (after resume), relying on server-side dedupe;
    * automatic reconnect with capped exponential backoff + full jitter
      (``base * 2^attempt``, capped, scaled by a seeded uniform draw) and
      session resume carrying the token and the last seen diff seq;
    * a client-side **view** folded from diffs/snapshots — the parity
      object chaos tests compare against the server's session view.

    A client whose session was fenced (resumed by a newer socket) or
    refused stops reconnecting and flags itself.
    """

    def __init__(
        self,
        connector: Callable[[], Any],
        seed: int = 0,
        name: str = "client",
        base_backoff_ms: float = 20.0,
        max_backoff_ms: float = 1_000.0,
        max_attempts: int = 64,
        ack_timeout_s: float = 15.0,
        connect_timeout_s: float = 5.0,
    ):
        self.connector = connector
        self.name = name
        self.rng = random.Random(seed)
        self.base_backoff_ms = base_backoff_ms
        self.max_backoff_ms = max_backoff_ms
        self.max_attempts = max_attempts
        self.ack_timeout_s = ack_timeout_s
        self.connect_timeout_s = connect_timeout_s

        self.sid: Optional[str] = None
        self.token: Optional[str] = None
        self.member: Optional[int] = None
        self.view: Dict[str, Any] = {}
        self.terminated = False
        self.last_seq = 0
        self.fenced = False
        self.closed = False

        self._transport: Optional[Any] = None
        self._connected = False
        self._conn_lock = asyncio.Lock()
        self._reader_task: Optional[asyncio.Task] = None
        self._session_fut: Optional[asyncio.Future] = None
        self._ack_futures: Dict[int, asyncio.Future] = {}
        self._sync_futures: Dict[int, asyncio.Future] = {}
        self._view_event = asyncio.Event()
        self._next_id = 1
        self._attempt = 0

        self.stats: Dict[str, int] = {
            "connects": 0,
            "reconnects": 0,
            "resumes": 0,
            "replayed": 0,
            "snapshots": 0,
            "backoffs": 0,
            "events_sent": 0,
            "events_admitted": 0,
            "retransmits": 0,
            "busy": 0,
            "duplicate_acks": 0,
            "diffs": 0,
            "stale_diffs": 0,
            "drops": 0,
        }

    # -- connection lifecycle --------------------------------------------

    async def connect(self) -> None:
        async with self._conn_lock:
            if self._connected or self.closed:
                return
            await self._connect_locked()

    async def _connect_locked(self) -> None:
        while not self.closed:
            try:
                # the whole attempt is bounded: chaos can eat any frame of
                # the handshake, and an unanswered upgrade must become a
                # backoff-and-retry, not a hang
                await asyncio.wait_for(
                    self._try_connect(), timeout=self.connect_timeout_s
                )
                self._attempt = 0
                return
            except (ConnectionError, ProtocolError, OSError, asyncio.TimeoutError):
                self._teardown(ConnectionResetError("connect attempt failed"))
                await self._backoff()
        raise ConnectionResetError(f"{self.name}: closed while connecting")

    async def _try_connect(self) -> None:
        reader, writer = await self.connector()
        self.stats["connects"] += 1
        if self.token is not None:
            self.stats["reconnects"] += 1
        # WebSocket upgrade
        request, key = handshake_request("gateway", "/ws")
        writer.write(request)
        await writer.drain()
        head, leftover = await read_http_head(reader)
        start_line, headers = parse_http_head(head)
        if " 101 " not in f" {start_line} ":
            raise ProtocolError(f"upgrade refused: {start_line!r}")
        if headers.get("sec-websocket-accept") != accept_key(key):
            raise ProtocolError("bad Sec-WebSocket-Accept")
        self._transport = writer
        session_fut: asyncio.Future = asyncio.get_event_loop().create_future()
        self._session_fut = session_fut
        self._connected = True
        self._reader_task = asyncio.ensure_future(
            self._read_loop(reader, writer, leftover)
        )
        # hello on first contact, resume with token + last seen seq after
        if self.token is None:
            await self._send_json(writer, {"t": "hello"})
        else:
            self.stats["resumes"] += 1
            await self._send_json(
                writer, {"t": "resume", "token": self.token, "last": self.last_seq}
            )
        await asyncio.wait_for(session_fut, timeout=self.ack_timeout_s)

    async def _backoff(self) -> None:
        self._connected = False
        self._attempt += 1
        if self._attempt > self.max_attempts:
            self.closed = True
            raise ConnectionResetError(
                f"{self.name}: gave up after {self.max_attempts} attempts"
            )
        delay_ms = min(
            self.max_backoff_ms, self.base_backoff_ms * (2 ** (self._attempt - 1))
        )
        # full jitter: uniform in [delay/2, delay) — desynchronizes the
        # reconnect storm the way AWS's "exponential backoff and jitter"
        # note prescribes
        delay_ms *= 0.5 + self.rng.random() * 0.5
        self.stats["backoffs"] += 1
        await asyncio.sleep(delay_ms / 1000.0)

    async def _ensure_connected(self) -> None:
        if self._connected and not self.closed:
            return
        await self.connect()

    def drop_connection(self) -> None:
        """Simulate abrupt network loss (the storm driver's hook): the
        transport dies; the next operation reconnects and resumes."""
        transport = self._transport
        if transport is None:
            return
        self.stats["drops"] += 1
        abort = getattr(transport, "abort", None)
        if abort is not None:
            abort()
        else:  # pragma: no cover - plain StreamWriter
            transport.close()

    async def close(self) -> None:
        """Polite shutdown: best-effort ``bye``, then tear down."""
        self.closed = True
        transport = self._transport
        if transport is not None and self._connected:
            try:
                await self._send_json(transport, {"t": "bye"})
            except (ConnectionError, OSError):
                pass
        self._teardown(ConnectionResetError("client closed"))
        if self._reader_task is not None:
            self._reader_task.cancel()

    def _drop_transport(self, writer: Any) -> None:
        """Retire ``writer`` if it is still the live transport — called on
        send failures, which surface *synchronously* on a dead chaos
        transport, before the reader task ever gets to notice."""
        if writer is not None and self._transport is writer:
            self._teardown(ConnectionResetError("transport failed mid-send"))

    def _teardown(self, error: Exception) -> None:
        self._connected = False
        transport, self._transport = self._transport, None
        if transport is not None:
            try:
                transport.close()
            except (ConnectionError, OSError):
                pass
        for fut in (*self._ack_futures.values(), *self._sync_futures.values()):
            if not fut.done():
                fut.set_exception(error)
                fut.exception()  # pre-retrieve: the waiter may be gone
        self._ack_futures.clear()
        self._sync_futures.clear()
        fut = self._session_fut
        if fut is not None and not fut.done():
            fut.set_exception(error)
            fut.exception()

    # -- the reader ------------------------------------------------------

    async def _read_loop(self, reader: Any, writer: Any, leftover: bytes) -> None:
        assembler = FrameAssembler()
        try:
            frames = assembler.feed(leftover) if leftover else []
            while True:
                for frame in frames:
                    if frame.opcode == OP_TEXT:
                        self._on_message(json.loads(frame.payload.decode("utf-8")))
                    elif frame.opcode == OP_PING:
                        await self._send_raw(
                            writer, encode_frame(OP_PONG, frame.payload, mask=True)
                        )
                    elif frame.opcode == OP_CLOSE:
                        raise ConnectionResetError("server closed")
                chunk = await reader.read(65536)
                if not chunk:
                    raise ConnectionResetError("connection lost")
                frames = assembler.feed(chunk)
        except (ConnectionError, ProtocolError, OSError, ValueError) as err:
            if self._transport is writer:
                self._teardown(
                    err if isinstance(err, ConnectionError)
                    else ConnectionResetError(str(err))
                )
        except asyncio.CancelledError:  # pragma: no cover - teardown path
            pass

    def _on_message(self, msg: Dict[str, Any]) -> None:
        kind = msg.get("t")
        if kind == "diff":
            seq = msg["seq"]
            if seq <= self.last_seq:
                self.stats["stale_diffs"] += 1
                return
            self.view.update(msg["emitted"])
            self.last_seq = seq
            if msg.get("terminated"):
                self.terminated = True
            self.stats["diffs"] += 1
            self._view_event.set()
        elif kind in ("ack", "busy", "err"):
            fut = self._ack_futures.get(msg.get("id"))
            if fut is not None and not fut.done():
                fut.set_result(msg)
        elif kind == "welcome":
            self.sid = msg["sid"]
            self.token = msg["token"]
            self.member = msg["member"]
            self.view = dict(msg["view"])
            self.last_seq = msg["seq"]
            if msg.get("reason") == "unknown-session":
                self.stats["snapshots"] += 1
            self._resolve_session(msg)
        elif kind == "resumed":
            self.token = msg["token"]
            self.member = msg["member"]
            self.stats["replayed"] += msg.get("replayed", 0)
            self._resolve_session(msg)
        elif kind == "snapshot":
            self.token = msg["token"]
            self.member = msg["member"]
            self.view = dict(msg["view"])
            self.last_seq = msg["seq"]
            self.terminated = bool(msg.get("terminated"))
            self.stats["snapshots"] += 1
            self._view_event.set()
            self._resolve_session(msg)
        elif kind == "synced":
            fut = self._sync_futures.get(msg.get("id"))
            if fut is not None and not fut.done():
                fut.set_result(msg["seq"])
        elif kind == "fenced":
            self.fenced = True
            self.closed = True
        # "err" frames surface through ack timeouts; nothing to resolve

    def _resolve_session(self, msg: Dict[str, Any]) -> None:
        # adopt the session's applied-event watermark: a client taking
        # over an existing session (resume from another device) must not
        # reuse event ids the server already fenced as applied
        self._next_id = max(self._next_id, int(msg.get("ack", 0)) + 1)
        fut = self._session_fut
        if fut is not None and not fut.done():
            fut.set_result(msg)

    # -- sending ---------------------------------------------------------

    async def _send_raw(self, writer: Any, data: bytes) -> None:
        writer.write(data)
        await writer.drain()

    async def _send_json(self, writer: Any, obj: Mapping[str, Any]) -> None:
        await self._send_raw(writer, encode_text(_json_bytes(obj), mask=True))

    async def send_event(
        self, inputs: Mapping[str, Any], max_refusals: int = 200
    ) -> str:
        """Submit one input event and return its final admission decision
        (``admitted`` / ``coalesced``).  Survives refusals (waits out the
        server's ``retry_ms`` hint) and connection deaths (reconnects,
        resumes, retransmits the same event id — the server dedupes)."""
        event_id = self._next_id
        self._next_id += 1
        self.stats["events_sent"] += 1
        payload = {"t": "ev", "id": event_id, "inputs": dict(inputs)}
        refusals = 0
        while True:
            if self.closed:
                raise ConnectionResetError(f"{self.name}: closed")
            writer = None
            try:
                await self._ensure_connected()
                writer = self._transport
                fut: asyncio.Future = asyncio.get_event_loop().create_future()
                self._ack_futures[event_id] = fut
                await self._send_json(writer, payload)
                ack = await asyncio.wait_for(fut, timeout=self.ack_timeout_s)
            except (ConnectionError, ProtocolError, OSError, asyncio.TimeoutError):
                if self.closed:
                    raise ConnectionResetError(f"{self.name}: closed") from None
                self._drop_transport(writer)
                self.stats["retransmits"] += 1
                await asyncio.sleep(0)
                continue
            finally:
                self._ack_futures.pop(event_id, None)
            decision = ack.get("decision")
            if ack.get("t") == "err":
                # the server saw the event out of order (e.g. reordered
                # ahead of the resume); settle and retransmit
                self.stats["retransmits"] += 1
                await asyncio.sleep(0.01)
                continue
            if ack.get("t") == "busy":
                refusals += 1
                self.stats["busy"] += 1
                if refusals > max_refusals:
                    raise OverloadError(
                        f"{self.name}: event {event_id} refused "
                        f"{refusals} times ({decision})",
                        inputs=dict(inputs),
                        pending=0,
                    )
                retry_ms = float(ack.get("retry_ms", 25.0))
                await asyncio.sleep(
                    retry_ms * (1.0 + self.rng.random()) / 1000.0
                )
                continue
            if decision == "duplicate":
                # it *was* applied — the original ack got lost in chaos
                self.stats["duplicate_acks"] += 1
                decision = "admitted"
            self.stats["events_admitted"] += 1
            return decision

    # -- synchronization -------------------------------------------------

    async def sync(self, timeout_s: float = 15.0) -> int:
        """Barrier: learn the server's committed seq for this session and
        wait until the local view has caught up to it (reconnecting and
        resuming as needed).  Returns the synced seq."""
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout_s
        while True:
            if loop.time() > deadline:
                raise asyncio.TimeoutError(f"{self.name}: sync timed out")
            sync_id = self._next_id
            self._next_id += 1
            writer = None
            try:
                await self._ensure_connected()
                writer = self._transport
                fut: asyncio.Future = loop.create_future()
                self._sync_futures[sync_id] = fut
                await self._send_json(writer, {"t": "sync", "id": sync_id})
                target = await asyncio.wait_for(fut, timeout=self.ack_timeout_s)
            except (ConnectionError, ProtocolError, OSError, asyncio.TimeoutError):
                if self.closed:
                    raise
                self._drop_transport(writer)
                await asyncio.sleep(0)
                continue
            finally:
                self._sync_futures.pop(sync_id, None)
            if self.last_seq >= target:
                return target
            # diffs (or the replay) are still in flight; wait for them
            try:
                self._view_event.clear()
                await asyncio.wait_for(
                    self._view_event.wait(),
                    timeout=max(0.01, min(1.0, deadline - loop.time())),
                )
            except asyncio.TimeoutError:
                continue

    async def wait_view(
        self, predicate: Callable[[Dict[str, Any]], bool], timeout_s: float = 15.0
    ) -> Dict[str, Any]:
        """Wait until the client-side view satisfies ``predicate``."""
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout_s
        while not predicate(self.view):
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise asyncio.TimeoutError(
                    f"{self.name}: view never satisfied predicate "
                    f"(view={self.view!r})"
                )
            try:
                self._view_event.clear()
                await asyncio.wait_for(
                    self._view_event.wait(), timeout=min(1.0, remaining)
                )
            except asyncio.TimeoutError:
                continue
        return self.view

    def __repr__(self) -> str:
        state = (
            "fenced" if self.fenced else
            "closed" if self.closed else
            "connected" if self._connected else "disconnected"
        )
        return f"GatewayClient({self.name}, {state}, sid={self.sid!r})"


def tcp_connector(host: str, port: int) -> Callable[[], Any]:
    """A :class:`GatewayClient` connector dialing a real TCP gateway."""

    async def connect() -> Tuple[Any, Any]:
        return await asyncio.open_connection(host, port)

    return connect
