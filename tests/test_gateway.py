"""The network edge: WebSocket framing, the in-memory transports, the
gateway session protocol, and the resume-token edge cases
(docs/resilience.md, "The network edge").

The load-bearing properties:

* **Framing is exact and incremental** — RFC 6455 frames round-trip
  through :class:`FrameAssembler` whatever the chunking (byte-by-byte
  included), masked or not, fragmented or not; everything outside the
  accepted subset raises :class:`ProtocolError` instead of crashing.
* **Sessions outlive sockets** — a reconnecting client resumes with a
  token and gets exactly the missed diffs; a resume the replay buffer no
  longer covers, or a token minted by a previous program version,
  degrades to a full snapshot (never a wrong partial replay); of two
  sockets presenting one session, the older is fenced off.
* **Admission is never silent** — refusals come back as structured
  429/503 frames and the ingress accounting invariant
  (offered == admitted + coalesced + rejected [+ rate-limited]) holds
  end to end, scrapeable via ``/healthz`` / ``/statsz``.
"""

import asyncio
import json
import time

import pytest

from repro import (
    Gateway,
    GatewayClient,
    MachineError,
    MachineFleet,
    ReactionBudgetExceeded,
)
from repro.apps.skini.participant import make_audience_fleet
from repro.host import CircuitBreaker, SimulatedLoop
from repro.host.netchaos import ChaosTransport, memory_pipe
from repro.lang import dsl as hh
from repro.runtime import wsproto
from repro.runtime.gateway import LATENCY_WINDOW
from repro.runtime.recovery import FleetSupervisor
from repro.runtime.wsproto import (
    OP_BINARY,
    OP_CLOSE,
    OP_CONT,
    OP_PING,
    OP_TEXT,
    Frame,
    FrameAssembler,
    ProtocolError,
    accept_key,
    encode_close,
    encode_frame,
    encode_text,
    handshake_accept,
    handshake_request,
    parse_close,
    parse_http_head,
)
from repro.syntax import parse_module


def run(coro, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


# ---------------------------------------------------------------------------
# RFC 6455 framing
# ---------------------------------------------------------------------------


class TestFraming:
    def test_roundtrip_unmasked(self):
        frames = FrameAssembler().feed(encode_text("hello"))
        assert len(frames) == 1
        assert frames[0].opcode == OP_TEXT
        assert frames[0].payload == b"hello"

    def test_roundtrip_masked(self):
        frames = FrameAssembler().feed(encode_text("masked payload", mask=True))
        assert frames[0].payload == b"masked payload"

    @pytest.mark.parametrize("size", [0, 1, 125, 126, 127, 65535, 65536, 100_000])
    def test_length_encodings(self, size):
        payload = bytes(i & 0xFF for i in range(size))
        for mask in (False, True):
            frames = FrameAssembler().feed(
                encode_frame(OP_BINARY, payload, mask=mask)
            )
            assert frames[0].payload == payload

    def test_byte_by_byte_feed(self):
        wire = encode_text("drip", mask=True) + encode_frame(OP_PING, b"hb")
        asm = FrameAssembler()
        out = []
        for i in range(len(wire)):
            out += asm.feed(wire[i : i + 1])
        assert [(f.opcode, f.payload) for f in out] == [
            (OP_TEXT, b"drip"), (OP_PING, b"hb"),
        ]

    def test_fragmented_message_reassembled(self):
        wire = (
            encode_frame(OP_TEXT, b"one ", fin=False)
            + encode_frame(OP_CONT, b"two ", fin=False)
            + encode_frame(OP_CONT, b"three")
        )
        frames = FrameAssembler().feed(wire)
        assert len(frames) == 1
        assert frames[0].opcode == OP_TEXT
        assert frames[0].payload == b"one two three"

    def test_control_frame_interleaves_fragments(self):
        wire = (
            encode_frame(OP_TEXT, b"he", fin=False)
            + encode_frame(OP_PING, b"mid")
            + encode_frame(OP_CONT, b"llo")
        )
        frames = FrameAssembler().feed(wire)
        assert [(f.opcode, f.payload) for f in frames] == [
            (OP_PING, b"mid"), (OP_TEXT, b"hello"),
        ]

    def test_close_roundtrip(self):
        frames = FrameAssembler().feed(encode_close(1001, "going away"))
        assert frames[0].opcode == OP_CLOSE
        assert parse_close(frames[0].payload) == (1001, "going away")
        assert parse_close(b"") == (1005, "")

    @pytest.mark.parametrize(
        "wire",
        [
            bytes([0x80 | 0x40 | OP_TEXT, 0x00]),  # RSV bit set
            bytes([0x80 | 0x3, 0x00]),  # reserved opcode
            encode_frame(OP_PING, b"x", fin=False),  # fragmented control
            encode_frame(OP_CONT, b"x"),  # CONT without a message
            encode_frame(OP_TEXT, b"a", fin=False)
            + encode_frame(OP_TEXT, b"b"),  # data inside fragmented message
        ],
    )
    def test_protocol_errors(self, wire):
        with pytest.raises(ProtocolError):
            FrameAssembler().feed(wire)

    def test_oversize_frame_refused_before_allocation(self):
        head = bytes([0x80 | OP_BINARY, 127]) + (1 << 40).to_bytes(8, "big")
        with pytest.raises(ProtocolError):
            FrameAssembler().feed(head)

    def test_accept_key_rfc_vector(self):
        # RFC 6455 §1.3's worked example
        assert accept_key("dGhlIHNhbXBsZSBub25jZQ==") == (
            "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    def test_handshake_roundtrip(self):
        request, key = handshake_request("example.org", "/ws")
        start, headers = parse_http_head(request.rstrip(b"\r\n"))
        assert start.startswith("GET /ws")
        assert headers["sec-websocket-key"] == key
        start, headers = parse_http_head(handshake_accept(key).rstrip(b"\r\n"))
        assert " 101 " in start
        assert headers["sec-websocket-accept"] == accept_key(key)


# ---------------------------------------------------------------------------
# in-memory transports & chaos determinism
# ---------------------------------------------------------------------------


class TestMemoryPipe:
    def test_duplex_roundtrip_and_fin(self):
        async def scenario():
            a, b = memory_pipe()
            a.write(b"ping")
            await a.drain()
            assert await b.read() == b"ping"
            b.write(b"pong")
            assert await a.read() == b"pong"
            a.close()  # FIN: peer drains then EOF; writes discarded
            b.write(b"late")
            assert await a.read(100) == b"late"
            assert await b.read() == b""
            assert b.at_eof()

        run(scenario())

    def test_abort_is_rst_both_ways(self):
        async def scenario():
            a, b = memory_pipe()
            a.abort()
            assert await a.read() == b""
            assert await b.read() == b""

        run(scenario())

    def test_chaos_is_deterministic_per_seed(self):
        async def trace(seed):
            a, _ = memory_pipe()
            chaos = ChaosTransport(
                a, seed=seed, drop_rate=0.2, partial_rate=0.2,
                duplicate_rate=0.2, reorder_rate=0.2,
            )
            for i in range(50):
                try:
                    chaos.write(b"x" * (i + 2))
                except ConnectionResetError:
                    break
            return dict(chaos.stats)

        s1 = run(trace(11))
        s2 = run(trace(11))
        s3 = run(trace(12))
        assert s1 == s2
        assert s1 != s3

    def test_drop_and_partial_kill_the_connection(self):
        async def scenario():
            a, b = memory_pipe()
            chaos = ChaosTransport(a, seed=0, drop_rate=1.0)
            with pytest.raises(ConnectionResetError):
                chaos.write(b"doomed")
            assert chaos.dead
            with pytest.raises(ConnectionResetError):
                chaos.write(b"still dead")
            assert await b.read() == b""  # peer saw the RST

            c, d = memory_pipe()
            chaos = ChaosTransport(c, seed=0, partial_rate=1.0)
            with pytest.raises(ConnectionResetError):
                chaos.write(b"torn frame bytes")
            torn = await d.read()
            assert 0 < len(torn) < len(b"torn frame bytes")

        run(scenario())

    def test_duplicate_and_reorder(self):
        async def scenario():
            a, b = memory_pipe()
            chaos = ChaosTransport(a, seed=0, duplicate_rate=1.0)
            chaos.write(b"X")
            assert await b.read() == b"XX"

            c, d = memory_pipe()
            chaos = ChaosTransport(c, seed=0, reorder_rate=1.0)
            chaos.write(b"1")  # held
            chaos.write(b"2")  # flushes: 2 then 1
            got = await d.read()
            assert got.startswith(b"21")

        run(scenario())


# ---------------------------------------------------------------------------
# gateway sessions
# ---------------------------------------------------------------------------


def make_gateway(size=4, **kwargs):
    ingress_kwargs = kwargs.pop("ingress_kwargs", {})
    ingress_kwargs.setdefault("capacity", 32)
    fleet = make_audience_fleet(size)
    return Gateway(
        fleet.ingress(**ingress_kwargs), pump_interval_ms=2.0, **kwargs
    )


class TestGatewaySessions:
    def test_hello_event_diff_roundtrip(self):
        async def scenario():
            gw = make_gateway()
            await gw.start()
            client = GatewayClient(gw.local_connector(), seed=1)
            await client.connect()
            assert client.sid in gw.sessions
            decision = await client.send_event({"select": 5})
            assert decision in ("admitted", "coalesced")
            await gw.drain()
            await client.sync()
            assert client.view == {"request": 5}
            # second phase of the participant protocol
            await client.send_event({"grant": 5})
            await gw.drain()
            await client.sync()
            assert client.view == {"request": 5, "playing": 5}
            session = gw.sessions[client.sid]
            assert session.view == client.view
            assert session.applied_count == 2
            await client.close()
            await gw.aclose()

        run(scenario())

    def test_duplicate_event_id_applied_once(self):
        async def scenario():
            gw = make_gateway()
            await gw.start()
            client = GatewayClient(gw.local_connector(), seed=2)
            await client.connect()
            await client.send_event({"select": 1})
            # replay the same event id by hand (a chaos duplicate)
            await client._send_json(
                client._transport,
                {"t": "ev", "id": 1, "inputs": {"select": 99}},
            )
            await gw.drain()
            await client.sync()
            session = gw.sessions[client.sid]
            assert session.applied_count == 1
            assert session.duplicate_count == 1
            assert client.view == {"request": 1}  # the duplicate did nothing
            await client.close()
            await gw.aclose()

        run(scenario())

    def test_duplicate_hello_is_idempotent(self):
        # a chaos-duplicated hello frame must NOT claim a second member:
        # the abandoned first session would keep a stale conn pointer and
        # leak its member forever (found by the seed-3 reconnect storm)
        async def scenario():
            gw = make_gateway(size=2, grow=False)
            await gw.start()
            client = GatewayClient(gw.local_connector(), seed=7)
            await client.connect()
            sid = client.sid
            await client._send_json(client._transport, {"t": "hello"})
            await client.send_event({"select": 1})
            await gw.drain()
            await client.sync()
            assert gw.counters["duplicate_hellos"] == 1
            assert len(gw.sessions) == 1
            assert client.sid == sid
            assert gw.sessions[sid].applied_count == 1
            await client.close()
            await gw.aclose()

        run(scenario())

    def test_rate_limit_refusal_is_structured_and_survivable(self):
        async def scenario():
            gw = make_gateway(
                ingress_kwargs={"rate_per_s": 50.0, "burst": 1.0}
            )
            await gw.start()
            client = GatewayClient(gw.local_connector(), seed=3)
            await client.connect()
            # burst of 1: the second offer inside the same instant is
            # refused with a 429 and a retry hint; send_event waits it
            # out and succeeds — nothing is dropped
            for i in range(1, 4):
                decision = await client.send_event({"select": i})
                assert decision in ("admitted", "coalesced")
            assert gw.counters["events_rate_limited"] >= 1
            assert client.stats["busy"] >= 1
            session = gw.sessions[client.sid]
            assert session.applied_count == 3
            await client.close()
            await gw.aclose()

        run(scenario())

    def test_drop_oldest_policy_refused(self):
        fleet = make_audience_fleet(2)
        with pytest.raises(MachineError):
            Gateway(fleet.ingress(capacity=4, policy="drop-oldest"))

    def test_no_capacity_refusal(self):
        async def scenario():
            gw = make_gateway(size=1, grow=False)
            await gw.start()
            first = GatewayClient(gw.local_connector(), seed=4)
            await first.connect()
            second = GatewayClient(
                gw.local_connector(), seed=5, max_attempts=2,
                base_backoff_ms=1.0,
            )
            with pytest.raises(ConnectionError):
                await second.connect()
            assert gw.counters["refused_sessions"] >= 1
            await first.close()
            await gw.aclose()

        run(scenario())

    def test_grow_spawns_new_members(self):
        async def scenario():
            gw = make_gateway(size=1, grow=True)
            await gw.start()
            clients = []
            for i in range(3):
                client = GatewayClient(gw.local_connector(), seed=10 + i)
                await client.connect()
                clients.append(client)
            assert len(gw.ingress.fleet) == 3
            members = {c.member for c in clients}
            assert len(members) == 3
            for client in clients:
                await client.close()
            await gw.aclose()

        run(scenario())

    def test_slow_consumer_degrades_to_coalesced_diffs(self):
        async def scenario():
            gw = make_gateway(outbound_capacity=2)
            await gw.start()
            client = GatewayClient(gw.local_connector(), seed=6)
            await client.connect()
            session = gw.sessions[client.sid]
            conn = session.conn
            # wedge the writer task so the outbound queue backs up
            async with conn._lock:
                for i in range(1, 9):
                    gw.ingress.offer(session.member, {"select": i})
                    gw.pump_now()
                assert len(conn.outbound) <= conn.capacity
            assert gw.counters["diffs_coalesced"] > 0
            await gw.drain()
            await client.sync()
            # coarser diffs, same final state
            assert client.view == session.view
            assert client.last_seq == session.seq
            await client.close()
            await gw.aclose()

        run(scenario())


# ---------------------------------------------------------------------------
# resume-token edge cases
# ---------------------------------------------------------------------------


class TestResume:
    def test_resume_replays_exactly_the_missed_diffs(self):
        async def scenario():
            gw = make_gateway()
            await gw.start()
            client = GatewayClient(
                gw.local_connector(), seed=7, base_backoff_ms=1.0
            )
            await client.connect()
            await client.send_event({"select": 1})
            await gw.drain()
            await client.sync()
            client.drop_connection()
            await asyncio.sleep(0.01)
            # the world moves on while the client is gone
            session = gw.sessions[client.sid]
            for i in (2, 3):
                gw.ingress.offer(session.member, {"select": i})
                gw.pump_now()
            assert session.seq == 3
            await client.sync()  # reconnect + resume + catch up
            assert client.stats["resumes"] == 1
            assert client.stats["snapshots"] == 0
            assert client.stats["replayed"] == 2  # exactly the missed diffs
            assert client.view == session.view
            assert gw.counters["resumed_replay"] == 1
            await client.close()
            await gw.aclose()

        run(scenario())

    def test_aged_out_resume_degrades_to_snapshot(self):
        async def scenario():
            gw = make_gateway(replay_buffer=3)
            await gw.start()
            client = GatewayClient(
                gw.local_connector(), seed=8, base_backoff_ms=1.0
            )
            await client.connect()
            await client.send_event({"select": 1})
            await gw.drain()
            await client.sync()
            client.drop_connection()
            await asyncio.sleep(0.01)
            session = gw.sessions[client.sid]
            # commit more diffs than the replay buffer holds
            for i in range(2, 8):
                gw.ingress.offer(session.member, {"select": i})
                gw.pump_now()
            assert session.replay[0]["seq"] > client.last_seq + 1
            await client.sync()
            assert client.stats["snapshots"] == 1
            assert client.stats["replayed"] == 0
            assert gw.counters["snapshot_aged_out"] == 1
            assert client.view == session.view
            assert client.last_seq == session.seq
            await client.close()
            await gw.aclose()

        run(scenario())

    def test_fingerprint_mismatch_after_upgrade_snapshots(self):
        async def scenario():
            gw = make_gateway()
            await gw.start()
            client = GatewayClient(
                gw.local_connector(), seed=9, base_backoff_ms=1.0
            )
            await client.connect()
            await client.send_event({"select": 1})
            await gw.drain()
            await client.sync()
            old_token = client.token
            # v2 of the participant program: structurally different, so
            # its compiled fingerprint differs
            v2 = parse_module(
                """
                module Participant(in select, in grant, in stop,
                                   out request, out playing, out done = 0,
                                   out resumedv2) {
                  let played = 0;
                  loop {
                    await (select.now);
                    abort (grant.now) { sustain request(select.nowval) }
                    abort (stop.now) { sustain playing(grant.nowval) }
                    atom { played = played + 1 }
                    emit done(played);
                    emit resumedv2
                  }
                }
                """
            )
            from repro import MachineFleet

            fleet2 = MachineFleet(v2, size=4)
            old_fp = gw.fingerprint
            gw.adopt_ingress(fleet2.ingress(capacity=32))
            assert gw.fingerprint != old_fp
            # the upgrade closed the live socket; the next operation
            # reconnects with the stale token → full snapshot
            await client.sync()
            assert client.stats["snapshots"] == 1
            assert gw.counters["snapshot_fingerprint"] == 1
            assert client.token != old_token
            assert client.token.endswith(gw.fingerprint)
            # and the session keeps working against the new program
            await client.send_event({"select": 2})
            await gw.drain()
            await client.sync()
            assert client.view["request"] == 2
            await client.close()
            await gw.aclose()

        run(scenario())

    def test_unknown_session_token_gets_fresh_session(self):
        async def scenario():
            gw = make_gateway()
            await gw.start()
            client = GatewayClient(
                gw.local_connector(), seed=10, base_backoff_ms=1.0
            )
            # a token the gateway has never heard of (expired process)
            client.token = f"s0-deadbeef.{gw.fingerprint}"
            client.last_seq = 17
            await client.connect()
            assert client.sid in gw.sessions
            assert client.sid != "s0-deadbeef"
            assert client.last_seq == 0  # fresh world
            assert gw.counters["snapshot_unknown"] == 1
            await client.close()
            await gw.aclose()

        run(scenario())

    def test_duplicate_resume_fences_the_older_socket(self):
        async def scenario():
            gw = make_gateway()
            await gw.start()
            older = GatewayClient(gw.local_connector(), seed=11)
            await older.connect()
            await older.send_event({"select": 1})
            await gw.drain()
            await older.sync()
            # a second device presents the same session
            newer = GatewayClient(gw.local_connector(), seed=12)
            newer.token = older.token
            newer.last_seq = older.last_seq
            await newer.connect()
            await asyncio.sleep(0.05)  # let the fence frame reach `older`
            assert older.fenced
            assert older.closed
            assert gw.counters["fenced"] == 1
            assert len(gw.sessions) == 1  # one session, handed over
            # the winner owns the session: events keep flowing
            await newer.send_event({"grant": 1})
            await gw.drain()
            await newer.sync()
            assert newer.view["playing"] == 1
            await newer.close()
            await gw.aclose()

        run(scenario())


# ---------------------------------------------------------------------------
# /healthz, /statsz, and the accounting invariant
# ---------------------------------------------------------------------------


async def _http_get(gw, path):
    connector = gw.local_connector()
    reader, writer = await connector()
    writer.write(f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode("ascii"))
    await writer.drain()
    data = bytearray()
    while True:
        chunk = await reader.read(65536)
        if not chunk:
            break
        data += chunk
    head, _, body = bytes(data).partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(body) if body else None


class TestObservability:
    def test_healthz_statsz_and_accounting_invariant(self):
        async def scenario():
            gw = make_gateway(
                ingress_kwargs={"rate_per_s": 200.0, "burst": 2.0}
            )
            await gw.start()
            clients = []
            for i in range(3):
                client = GatewayClient(gw.local_connector(), seed=20 + i)
                await client.connect()
                clients.append(client)
            for rounds in range(5):
                for i, client in enumerate(clients):
                    await client.send_event({"select": rounds * 10 + i})
            await gw.drain()

            status, health = await _http_get(gw, "/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["accounting"] == "ok"
            assert health["members"] == 4
            assert health["sessions"] == 3
            assert health["budget_aborts"] == 0
            assert health["breakers_open"] == 0

            status, stats = await _http_get(gw, "/statsz")
            assert status == 200
            ingress = stats["ingress"]
            # the zero-silent-drop invariant, end to end: every offer is
            # accounted admitted, coalesced, rejected, or rate-limited
            assert ingress["offered"] == (
                ingress["admitted"] + ingress["coalesced"]
                + ingress["rejected"] + ingress["rate_limited"]
            )
            assert ingress["dropped"] == 0
            gateway_stats = stats["gateway"]
            assert gateway_stats["events_applied"] == sum(
                c.stats["events_admitted"] for c in clients
            )
            assert gateway_stats["latency_ms"]["p99"] >= 0.0

            status, _ = await _http_get(gw, "/nope")
            assert status == 404

            for client in clients:
                await client.close()
            await gw.aclose()

        run(scenario())

    def test_health_payload_sums_the_health_dicts(self):
        """/healthz's counters equal the sums of the members' ``health``
        dicts, and its healthy count equals the ingress's, on a fleet
        where one member failed a reaction, one was quarantined by a
        budget abort, one runs an exec, one has an open breaker and one
        is retired."""
        handles = []
        mod = hh.module(
            "HealthMod",
            "in go, out done",
            hh.every(
                hh.sig("go"),
                hh.exec_(lambda ctx: handles.append(ctx), signal="done"),
            ),
        )
        fleet = MachineFleet(mod, size=6)
        supervisor = FleetSupervisor(fleet, max_retries=0, quarantine_after=1)
        ingress = fleet.ingress(supervisor=supervisor)
        gw = Gateway(ingress)
        with pytest.raises(MachineError):
            fleet[0].react({"not_a_signal": 1})
        with pytest.raises(ReactionBudgetExceeded):
            supervisor.members[1].react({"go": True}, budget=1)
        fleet[2].react({})
        fleet[2].react({"go": True})
        breaker = CircuitBreaker(SimulatedLoop(), failure_threshold=1, name="svc")
        fleet[3].register_breaker(breaker)

        def failing_operation():
            raise RuntimeError("down")

        breaker.call(failing_operation)
        ingress.retire(4)

        payload = gw.health_payload()
        healths = [machine.health for machine in fleet]
        sums = {
            key: sum(health[key] for health in healths)
            for key in ("failed_reactions", "budget_aborts", "execs_running")
        }
        sums["breakers_open"] = sum(
            snap["state"] == "open"
            for health in healths
            for snap in health["breakers"].values()
        )
        assert {key: payload[key] for key in sums} == sums
        assert sums == {
            "failed_reactions": 2,
            "budget_aborts": 1,
            "execs_running": 1,
            "breakers_open": 1,
        }
        assert payload["healthy_members"] == len(ingress.healthy_members()) == 3
        assert payload["status"] == "degraded"
        assert payload["accounting"] == "ok"

    def test_latency_samples_keep_the_last_window(self):
        async def scenario():
            gw = make_gateway()
            await gw.start()
            client = GatewayClient(gw.local_connector(), seed=9)
            await client.connect()
            member = gw.sessions[client.sid].member
            # one delivery past the bound: stamps for LATENCY_WINDOW + 100
            # admitted events, the last of them sent for real
            stamps = gw._pending_stamps.setdefault(member, [])
            stamps.extend([time.perf_counter()] * (LATENCY_WINDOW + 99))
            await client.send_event({"select": 1})
            await gw.drain()
            status, stats = await _http_get(gw, "/statsz")
            assert status == 200
            assert stats["gateway"]["latency_ms"]["samples"] == LATENCY_WINDOW
            assert len(gw.latency_samples) == LATENCY_WINDOW
            await client.close()
            await gw.aclose()

        run(scenario())

    def test_health_degrades_on_failed_reactions(self):
        async def scenario():
            gw = make_gateway()
            await gw.start()
            # force a reaction failure on one member: drive an input that
            # is not an interface signal straight through the machine
            machine = gw.ingress.fleet[0]
            try:
                machine.react({"not_a_signal": 1})
            except Exception:
                pass
            payload = gw.health_payload()
            if payload["failed_reactions"]:
                assert payload["status"] == "degraded"
            await gw.aclose()

        run(scenario())


# ---------------------------------------------------------------------------
# real sockets (loopback TCP)
# ---------------------------------------------------------------------------


@pytest.mark.network
class TestTcpServing:
    """The same protocol over real asyncio TCP streams: serve, connect
    with :func:`tcp_connector`, drop, resume, and scrape /healthz."""

    def test_tcp_roundtrip_drop_and_resume(self):
        from repro.runtime.gateway import tcp_connector

        async def scenario():
            gw = make_gateway(size=4, grow=False)
            server = await gw.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = GatewayClient(
                tcp_connector("127.0.0.1", port), seed=5, name="tcp"
            )
            await client.connect()
            for pick in (1, 2):
                decision = await client.send_event({"select": pick})
                assert decision in ("admitted", "coalesced")
            await gw.drain()
            await client.sync()
            session = gw.sessions[client.sid]
            assert client.view == session.view

            # a torn TCP connection resumes onto the same session
            client.drop_connection()
            decision = await client.send_event({"grant": 2})
            assert decision in ("admitted", "coalesced")
            await gw.drain()
            await client.sync()
            assert client.stats["reconnects"] >= 1
            assert session.applied_count == 3
            assert client.view == session.view

            # plain HTTP on the same port
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /statsz HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            head = await reader.read(65536)
            assert b"200" in head.split(b"\r\n", 1)[0]
            body = json.loads(head.split(b"\r\n\r\n", 1)[1])
            assert body["gateway"]["live_sessions"] == 1
            writer.close()

            await client.close()
            server.close()
            await server.wait_closed()
            await gw.aclose()

        run(scenario())
