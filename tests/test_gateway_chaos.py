"""Network chaos property tests for the gateway (docs/resilience.md,
"The network edge").

The two contract properties the edge must hold across seeded storms of
connection drops, torn writes, duplicated/reordered delivery, stalls,
and reconnect waves:

* **No admitted input is double-applied.**  Clients retransmit freely
  (at-least-once delivery); per-session event ids fence application down
  to exactly-once.  Checked two ways: the server's per-session applied
  count equals the client's acked-unique count, and — the deep check —
  replaying the gateway's recorded post-coalescing instants into a fresh
  *oracle* fleet reproduces every member's state digest bit-for-bit.
  A double-applied (or lost) input could not digest-match.
* **No committed diff is lost.**  After quiescing, every client's folded
  view equals its session's server-side view and its diff sequence has
  caught up — whatever got coalesced, replayed, or snapshotted along the
  way.
"""

import asyncio
import random

import pytest

from repro import Gateway, GatewayClient
from repro.apps.skini.participant import make_audience_fleet
from repro.host.netchaos import ChaosTransport


def run(coro, timeout=120.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


CHAOS = dict(
    drop_rate=0.03,
    partial_rate=0.03,
    duplicate_rate=0.05,
    reorder_rate=0.03,
    stall_rate=0.05,
    stall_ms=(0.2, 2.0),
)


def chaos_client(gw, seed, name):
    rng = random.Random(seed)
    wrap = lambda endpoint: ChaosTransport(endpoint, rng=rng, **CHAOS)
    return GatewayClient(
        gw.local_connector(wrap),
        seed=seed,
        name=name,
        base_backoff_ms=1.0,
        max_backoff_ms=25.0,
        max_attempts=200,
        ack_timeout_s=2.0,
        connect_timeout_s=1.0,
    )


async def storm(seed, n_clients=10, n_events=15):
    """One full storm: chaos-wrapped clients driving events closed-loop
    while the driver kills random connections; returns the gateway and
    clients, quiesced and synced."""
    fleet = make_audience_fleet(n_clients)
    gw = Gateway(
        fleet.ingress(capacity=64),
        pump_interval_ms=1.0,
        grow=False,
        record_instants=True,
    )
    await gw.start()
    clients = [
        chaos_client(gw, seed * 1000 + i, f"c{i}") for i in range(n_clients)
    ]

    async def drive(i, client):
        storm_rng = random.Random(seed * 7777 + i)
        await client.connect()
        for j in range(1, n_events + 1):
            await client.send_event({"select": j})
            if storm_rng.random() < 0.15:
                client.drop_connection()  # reconnect wave
        # walk some members into the play phase for state diversity
        if i % 3 == 0:
            await client.send_event({"grant": i + 1})

    await asyncio.gather(*(drive(i, c) for i, c in enumerate(clients)))
    assert await gw.drain(timeout_s=30.0)
    await asyncio.gather(*(c.sync() for c in clients))
    return gw, clients


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_storm_exactly_once_and_no_lost_diffs(seed):
    async def scenario():
        gw, clients = await storm(seed)
        chaos_fired = sum(
            c.stats["drops"] + c.stats["retransmits"] + c.stats["reconnects"]
            for c in clients
        )
        assert chaos_fired > 0, "storm produced no faults — rates too low"
        for client in clients:
            session = gw.sessions[client.sid]
            # exactly-once: every acked event applied once, none twice
            assert session.applied_count == client.stats["events_admitted"]
            assert session.applied_count == client.stats["events_sent"]
            # zero lost committed diffs: the client caught all the way up
            assert client.last_seq == session.seq
            assert client.view == session.view
        # the refusal path is also loss-free accounting-wise
        stats = gw.ingress.stats()
        assert stats["offered"] == (
            stats["admitted"] + stats["coalesced"]
            + stats["rejected"] + stats["rate_limited"]
        )
        assert stats["dropped"] == 0
        gw.ingress.check_accounting()
        for client in clients:
            await client.close()
        await gw.aclose()

    run(scenario())


@pytest.mark.parametrize("seed", [5, 6])
def test_storm_digest_parity_with_oracle_fleet(seed):
    async def scenario():
        gw, clients = await storm(seed, n_clients=8, n_events=12)
        # oracle: a fresh fleet fed exactly the recorded instants — the
        # post-coalescing input maps the pump actually applied
        fleet = gw.ingress.fleet
        oracle = make_audience_fleet(len(fleet))
        oracle.react_all({})  # same boot instant as Gateway(boot=True)
        for index, instants in sorted(gw.instant_log.items()):
            for inputs in instants:
                oracle.react_one(index, inputs)
        mismatches = [
            i for i in range(len(fleet))
            if oracle[i].state_digest() != fleet[i].state_digest()
        ]
        assert not mismatches, f"digest mismatch on members {mismatches}"
        for client in clients:
            await client.close()
        await gw.aclose()

    run(scenario())


def test_reject_policy_under_pressure_loses_nothing(seed=9):
    async def scenario():
        fleet = make_audience_fleet(3)
        gw = Gateway(
            fleet.ingress(capacity=1, policy="reject"),
            pump_interval_ms=1.0,
            grow=False,
        )
        await gw.start()
        clients = [
            GatewayClient(
                gw.local_connector(), seed=seed + i, name=f"r{i}",
                base_backoff_ms=1.0, ack_timeout_s=2.0,
            )
            for i in range(3)
        ]

        async def drive(client):
            await client.connect()
            for j in range(1, 11):
                decision = await client.send_event({"select": j})
                assert decision in ("admitted", "coalesced")

        await asyncio.gather(*(drive(c) for c in clients))
        await gw.drain()
        await asyncio.gather(*(c.sync() for c in clients))
        for client in clients:
            session = gw.sessions[client.sid]
            assert session.applied_count == 10
            assert client.view == session.view
        # every 503 was a refusal the client retried, not a loss
        stats = gw.ingress.stats()
        assert stats["offered"] == (
            stats["admitted"] + stats["coalesced"]
            + stats["rejected"] + stats["rate_limited"]
        )
        for client in clients:
            await client.close()
        await gw.aclose()

    run(scenario())


def test_silent_stall_hits_idle_timeout_but_session_survives():
    async def scenario():
        fleet = make_audience_fleet(2)
        gw = Gateway(
            fleet.ingress(capacity=16),
            pump_interval_ms=2.0,
            heartbeat_ms=20.0,
            idle_timeout_ms=200.0,
        )
        await gw.start()
        client = GatewayClient(
            gw.local_connector(), seed=4, base_backoff_ms=1.0
        )
        await client.connect()
        await client.send_event({"select": 1})
        await gw.drain()
        await client.sync()
        # go silent without closing: stop answering pings entirely
        client._reader_task.cancel()
        session = gw.sessions[client.sid]
        await asyncio.sleep(0.1)
        # quiet for longer than heartbeat_ms: pinged, but not yet closed
        assert gw.counters["pings"] >= 1
        assert gw.counters["idle_closed"] == 0
        assert session.conn is not None
        await asyncio.sleep(0.4)
        assert gw.counters["idle_closed"] >= 1
        assert session.conn is None  # socket reaped...
        assert client.sid in gw.sessions  # ...session resumable
        client._connected = False  # the cancelled reader can't notice
        await client.sync()  # reconnect + resume against the same session
        assert client.stats["resumes"] == 1
        assert client.view == session.view
        await client.close()
        await gw.aclose()

    run(scenario())
