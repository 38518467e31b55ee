"""Seeded network chaos for the WebSocket gateway.

:class:`~repro.host.chaos.MachineCrasher` proves a machine survives
crashes between and mid instants; this module is the same discipline
for the *network*: every failure a real edge sees — dropped
connections, stalled peers, writes torn mid-frame, duplicated and
reordered delivery after a reconnect — injected deterministically from a
seed, so a failing storm is a reproducible test case.

Two layers:

* :func:`memory_pipe` / :class:`MemoryEndpoint` — an in-process duplex
  byte stream with the asyncio ``StreamReader``/``StreamWriter`` surface
  the gateway uses (``read``/``write``/``drain``/``close``/``abort``).
  A thousand simulated WebSocket clients cost a thousand Python objects,
  not a thousand sockets, and the whole exchange is deterministic.
* :class:`ChaosTransport` — wraps any endpoint (memory or real TCP
  stream pair) and perturbs the *write* path with seeded faults, plus an
  externally callable :meth:`ChaosTransport.kill` for reconnect-storm
  drills.  Reads pass through untouched: TCP already guarantees ordered
  byte delivery within one connection, so the interesting chaos is what
  happens *around* connections — which is exactly what killing them
  mid-write and replaying client retransmissions exercises.

Fault model (independent seeded draws per write):

=================  ========================================================
``drop_rate``      the connection dies before the write reaches the wire
``partial_rate``   a strict prefix of the write is delivered, then death
                   (the peer is left holding a torn WebSocket frame)
``duplicate_rate`` the write is delivered twice (client retransmission
                   after an ack loss — the double-apply attack)
``reorder_rate``   the write is held and swapped with the next one
                   (re-delivery order after resume is not guaranteed)
``stall_rate``     ``drain`` sleeps a seeded delay first (a slow consumer
                   — the degradation-ladder trigger)
=================  ========================================================
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Dict, Optional, Tuple


class _Direction:
    """One direction of an in-memory duplex stream: a bounded byte buffer
    with EOF semantics and an async reader wakeup."""

    __slots__ = ("_buffer", "_eof", "_event")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._eof = False
        self._event = asyncio.Event()

    def feed(self, data: bytes) -> None:
        if self._eof or not data:
            return
        self._buffer += data
        self._event.set()

    def feed_eof(self) -> None:
        self._eof = True
        self._event.set()

    async def read(self, n: int = -1) -> bytes:
        while not self._buffer:
            if self._eof:
                return b""
            self._event.clear()
            await self._event.wait()
        if n is None or n < 0 or n >= len(self._buffer):
            data = bytes(self._buffer)
            self._buffer.clear()
        else:
            data = bytes(self._buffer[:n])
            del self._buffer[:n]
        return data

    def at_eof(self) -> bool:
        return self._eof and not self._buffer


class MemoryEndpoint:
    """One end of an in-memory duplex pipe, presenting the stream surface
    the gateway and its clients use (a ``StreamReader`` *and*
    ``StreamWriter`` in one object — pass it as both).

    ``close()`` half-closes like a TCP FIN (the peer's reads drain then
    EOF; its writes are discarded); ``abort()`` is the RST — both
    directions EOF immediately, pending readers wake up empty.
    """

    def __init__(self, inbox: _Direction, peer: "_Direction", name: str = "mem"):
        self._inbox = inbox
        self._peer_inbox = peer
        self._closed = False
        self.name = name

    # -- reader surface --------------------------------------------------

    async def read(self, n: int = -1) -> bytes:
        return await self._inbox.read(n)

    def at_eof(self) -> bool:
        return self._inbox.at_eof()

    # -- writer surface --------------------------------------------------

    def write(self, data: bytes) -> None:
        if self._closed:
            return
        self._peer_inbox.feed(bytes(data))

    async def drain(self) -> None:
        # yield so the peer's reader can run — keeps one chatty client
        # from monopolizing the event loop the way real sockets would not
        await asyncio.sleep(0)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._peer_inbox.feed_eof()

    def is_closing(self) -> bool:
        return self._closed

    async def wait_closed(self) -> None:
        await asyncio.sleep(0)

    def abort(self) -> None:
        self.close()
        self._inbox.feed_eof()

    def get_extra_info(self, name: str, default: Any = None) -> Any:
        if name == "peername":
            return ("memory", self.name)
        return default

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"MemoryEndpoint({self.name}, {state})"


def memory_pipe(name: str = "pipe") -> Tuple[MemoryEndpoint, MemoryEndpoint]:
    """A connected duplex pair ``(client_end, server_end)``."""
    a_to_b = _Direction()
    b_to_a = _Direction()
    client = MemoryEndpoint(b_to_a, a_to_b, name=f"{name}:client")
    server = MemoryEndpoint(a_to_b, b_to_a, name=f"{name}:server")
    return client, server


class ChaosTransport:
    """A seeded fault-injecting wrapper around a duplex endpoint (or a
    ``(reader, writer)`` pair — pass ``writer`` separately for real
    asyncio streams).  Use the wrapper itself as both reader and writer.

    All perturbation is on the write path (see the module docstring for
    the fault model); a fired drop or partial write kills the connection
    the way a mid-flight TCP reset would, and every subsequent operation
    raises :class:`ConnectionResetError` (writes) or returns EOF (reads).
    :meth:`kill` injects the same death externally — the storm trigger.

    The wrapper never reconnects; resurrection is the *client's* job
    (capped exponential backoff in
    :class:`~repro.runtime.gateway.GatewayClient`), which is the behavior
    under test.
    """

    def __init__(
        self,
        endpoint: Any,
        writer: Any = None,
        seed: int = 0,
        rng: Optional[random.Random] = None,
        drop_rate: float = 0.0,
        partial_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
        stall_rate: float = 0.0,
        stall_ms: Tuple[float, float] = (1.0, 20.0),
    ):
        self._reader = endpoint
        self._writer = writer if writer is not None else endpoint
        self.rng = rng if rng is not None else random.Random(seed)
        self.drop_rate = drop_rate
        self.partial_rate = partial_rate
        self.duplicate_rate = duplicate_rate
        self.reorder_rate = reorder_rate
        self.stall_rate = stall_rate
        self.stall_ms = stall_ms
        self.dead = False
        self._held: Optional[bytes] = None
        self.stats: Dict[str, int] = {
            "writes": 0, "dropped": 0, "partial": 0, "duplicated": 0,
            "reordered": 0, "stalled": 0, "killed": 0,
        }

    # -- reader surface --------------------------------------------------

    async def read(self, n: int = -1) -> bytes:
        if self.dead:
            return b""
        return await self._reader.read(n)

    def at_eof(self) -> bool:
        if self.dead:
            return True
        at_eof = getattr(self._reader, "at_eof", None)
        return bool(at_eof()) if at_eof is not None else False

    # -- writer surface --------------------------------------------------

    def write(self, data: bytes) -> None:
        if self.dead:
            raise ConnectionResetError("chaos transport is dead")
        self.stats["writes"] += 1
        rng = self.rng
        if self.drop_rate and rng.random() < self.drop_rate:
            self.stats["dropped"] += 1
            self.kill()
            raise ConnectionResetError("chaos: connection dropped before write")
        if self.partial_rate and len(data) > 1 and rng.random() < self.partial_rate:
            cut = rng.randrange(1, len(data))
            self._writer.write(data[:cut])
            self.stats["partial"] += 1
            self.kill()
            raise ConnectionResetError(
                f"chaos: connection died {cut}/{len(data)} bytes into a write"
            )
        if self.reorder_rate and self._held is None and rng.random() < self.reorder_rate:
            # hold this write; it goes out *after* the next one
            self._held = bytes(data)
            self.stats["reordered"] += 1
            return
        self._writer.write(data)
        if self._held is not None:
            held, self._held = self._held, None
            self._writer.write(held)
        if self.duplicate_rate and rng.random() < self.duplicate_rate:
            self._writer.write(data)
            self.stats["duplicated"] += 1

    async def drain(self) -> None:
        if self.stall_rate and self.rng.random() < self.stall_rate:
            self.stats["stalled"] += 1
            low, high = self.stall_ms
            await asyncio.sleep(self.rng.uniform(low, high) / 1000.0)
        if self.dead:
            raise ConnectionResetError("chaos transport is dead")
        await self._writer.drain()

    def close(self) -> None:
        if self._held is not None:
            held, self._held = self._held, None
            if not self.dead:
                self._writer.write(held)
        self._writer.close()

    def is_closing(self) -> bool:
        return self.dead or self._writer.is_closing()

    async def wait_closed(self) -> None:
        try:
            await self._writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass

    def abort(self) -> None:
        self.kill()

    def get_extra_info(self, name: str, default: Any = None) -> Any:
        return self._writer.get_extra_info(name, default)

    # -- external fault injection ---------------------------------------

    def kill(self) -> None:
        """Hard-kill the connection (both directions, like a TCP RST):
        the peer sees EOF, local reads see EOF, local writes raise.  The
        storm driver calls this on live connections to trigger reconnect
        waves."""
        if self.dead:
            return
        self.dead = True
        self._held = None
        self.stats["killed"] += 1
        abort = getattr(self._writer, "abort", None)
        if abort is not None:
            abort()
        else:  # real StreamWriter: reach for the transport-level RST
            transport = getattr(self._writer, "transport", None)
            if transport is not None:
                transport.abort()
            else:  # pragma: no cover - defensive
                self._writer.close()
        feed_eof = getattr(self._reader, "feed_eof", None)
        if feed_eof is not None and self._reader is not self._writer:
            try:
                feed_eof()
            except Exception:  # pragma: no cover - reader already done
                pass

    def __repr__(self) -> str:
        state = "dead" if self.dead else "live"
        return f"ChaosTransport({state}, stats={self.stats})"
