"""G1 — network-edge resilience: the WebSocket gateway under a seeded
chaos reconnect storm at 1000-client scale.

The gateway's claim (docs/resilience.md, "The network edge"), gated
here and recorded in BENCH_gateway.json:

* ``unloaded``: one well-behaved client on an otherwise idle gateway —
  the admit->diff latency of the pump path with nothing competing for
  the loop (recorded for the report; not a gate base, see below);
* ``clean``: the full client cohort (1000 simulated WebSocket sessions
  over in-memory pipes) driving closed-loop traffic with think time,
  **no** network faults — the like-for-like baseline;
* ``storm`` (gated): the same cohort behind seeded
  :class:`~repro.host.netchaos.ChaosTransport` wrappers (drops, torn
  writes, duplicated/reordered delivery, stalls) while the driver kills
  ~10% of connections mid-run (reconnect waves -> resume floods).
  Three gates:

  - **zero double-applied inputs** — every client's acked-unique event
    count equals its session's applied count, and replaying the
    gateway's recorded post-coalescing instants into a fresh *oracle*
    fleet reproduces every member's state digest bit-for-bit (a
    double-applied or lost input could not digest-match);
  - **zero lost committed diffs** — after quiescing, every client's
    folded view equals its session's server-side view and its diff
    sequence has caught all the way up;
  - **p99 admitted event->diff latency <= 5x the clean-cohort p99**.
    In a single-process simulation the absolute tail is dominated by
    cooperatively scheduling N client tasks — the chaos-free cohort
    carries the identical scheduling load, so the ratio isolates what
    the resilience machinery itself (reconnect storms, resume replay,
    retransmission, fencing) adds to the tail, which is the thing
    that must stay bounded.
"""

import asyncio
import random
import time

import harness
from repro import Gateway, GatewayClient
from repro.apps.skini.participant import make_audience_fleet
from repro.host.netchaos import ChaosTransport

#: full and quick profile sizes (see harness.pick)
FULL = dict(
    n_clients=1000, events=4, think_ms=(200.0, 500.0), ramp_s=2.0,
    baseline_events=300, capacity=64,
)
QUICK = dict(
    n_clients=120, events=4, think_ms=(25.0, 75.0), ramp_s=0.5,
    baseline_events=150, capacity=64,
)

P99_GATE = 5.0
STORM_P = 0.10  # per-event probability the driver kills the connection

CHAOS = dict(
    drop_rate=0.02,
    partial_rate=0.02,
    duplicate_rate=0.03,
    reorder_rate=0.02,
    stall_rate=0.03,
    stall_ms=(0.1, 1.0),
)


async def _unloaded_baseline(profile, seed=1):
    """One client, no chaos, idle gateway: the pump path's admit->diff
    latency with nothing competing for the event loop."""
    fleet = make_audience_fleet(4)
    gw = Gateway(fleet.ingress(capacity=profile["capacity"]),
                 pump_interval_ms=1.0, grow=False)
    await gw.start()
    client = GatewayClient(gw.local_connector(), seed=seed, name="base")
    await client.connect()
    for j in range(1, profile["baseline_events"] + 1):
        await client.send_event({"select": f"p{j % 3}"})
    assert await gw.drain()
    await client.sync()
    samples = list(gw.latency_samples)
    await client.close()
    await gw.aclose()
    return samples


async def _cohort(profile, seed, chaos, storm_p):
    """One full cohort run: ramped connects, closed-loop driving with
    think time, optional chaos + reconnect storms, quiesce, and the
    correctness gates.  Returns (gateway-ish summary dict, samples)."""
    n = profile["n_clients"]
    events = profile["events"]
    think_lo, think_hi = profile["think_ms"]
    fleet = make_audience_fleet(n)
    gw = Gateway(
        fleet.ingress(capacity=profile["capacity"]),
        pump_interval_ms=1.0,
        grow=False,
        record_instants=chaos,  # the storm run feeds the oracle replay
    )
    await gw.start()
    clients = []
    for i in range(n):
        wrap = None
        if chaos:
            rng = random.Random(seed * 1000 + i)
            wrap = (lambda r: (lambda ep: ChaosTransport(ep, rng=r, **CHAOS)))(rng)
        clients.append(GatewayClient(
            gw.local_connector(wrap), seed=seed * 1000 + i, name=f"c{i}",
            base_backoff_ms=1.0, max_backoff_ms=50.0, max_attempts=300,
            ack_timeout_s=5.0, connect_timeout_s=2.0,
        ))

    async def ramp(i, client):
        await asyncio.sleep((i / max(1, n)) * profile["ramp_s"])
        await client.connect()

    await asyncio.gather(*(ramp(i, c) for i, c in enumerate(clients)))
    gw.latency_samples.clear()  # measure the driven window only

    gave_up = []

    async def drive(i, client):
        storm_rng = random.Random(seed * 7777 + i)
        try:
            for j in range(1, events + 1):
                await client.send_event({"select": f"p{j % 3}"})
                if storm_rng.random() < storm_p:
                    client.drop_connection()  # reconnect wave
                await asyncio.sleep(storm_rng.uniform(think_lo, think_hi) / 1000.0)
        except Exception:  # noqa: BLE001 - a give-up is itself the failure
            gave_up.append(i)

    start = time.perf_counter()
    await asyncio.gather(*(drive(i, c) for i, c in enumerate(clients)))
    drive_s = time.perf_counter() - start
    assert not gave_up, f"clients gave up reconnecting: {gave_up}"
    assert await gw.drain(timeout_s=60.0), "gateway failed to quiesce"
    await asyncio.gather(*(c.sync() for c in clients))

    # -- gates: exactly-once and zero lost committed diffs ---------------
    for client in clients:
        session = gw.sessions[client.sid]
        assert session.applied_count == client.stats["events_admitted"]
        assert session.applied_count == client.stats["events_sent"]
        assert client.last_seq == session.seq
        assert client.view == session.view
    stats = gw.ingress.stats()
    assert stats["offered"] == (
        stats["admitted"] + stats["coalesced"]
        + stats["rejected"] + stats["rate_limited"]
    )
    assert stats["dropped"] == 0
    gw.ingress.check_accounting()

    chaos_fired = sum(
        c.stats["drops"] + c.stats["retransmits"] + c.stats["reconnects"]
        for c in clients
    )
    samples = list(gw.latency_samples)
    summary = {
        "clients": n,
        "events": n * events,
        "drive_s": round(drive_s, 2),
        "events_per_s": round(len(samples) / max(drive_s, 1e-9)),
        "chaos_fired": chaos_fired,
        "reconnects": sum(c.stats["reconnects"] for c in clients),
        "retransmits": sum(c.stats["retransmits"] for c in clients),
        "resumed_replay": gw.counters["resumed_replay"],
        "snapshots": (
            gw.counters["snapshot_aged_out"]
            + gw.counters["snapshot_fingerprint"]
            + gw.counters["snapshot_unknown"]
        ),
        "fenced": gw.counters["fenced"],
        "sessions_reaped": gw.counters["sessions_reaped"],
        "duplicate_hellos": gw.counters["duplicate_hellos"],
        "diffs_coalesced": gw.counters["diffs_coalesced"],
        "p50_ms": round(harness.percentile(samples, 0.50), 3),
        "p99_ms": round(harness.percentile(samples, 0.99), 3),
    }

    if chaos:
        # -- gate: digest parity against an in-process oracle fleet ------
        oracle = make_audience_fleet(n)
        oracle.react_all({})  # same boot instant as Gateway(boot=True)
        for index, instants in sorted(gw.instant_log.items()):
            for inputs in instants:
                oracle.react_one(index, inputs)
        mismatches = [
            i for i in range(n)
            if oracle[i].state_digest() != fleet[i].state_digest()
        ]
        assert not mismatches, (
            f"oracle digest mismatch on members {mismatches}: an admitted "
            f"input was double-applied or lost"
        )
        summary["digest_parity"] = True

    for client in clients:
        await client.close()
    await gw.aclose()
    return summary, samples


def test_gateway_storm_gates():
    """The headline run: unloaded baseline, clean cohort, chaos cohort —
    exactly-once, zero lost diffs, digest parity, and the latency-tail
    gate, all asserted in one pass."""
    profile = harness.pick(FULL, QUICK)

    async def scenario():
        unloaded = await _unloaded_baseline(profile)
        harness.write(
            "gateway", "unloaded",
            {
                "events": len(unloaded),
                "p50_ms": round(harness.percentile(unloaded, 0.50), 4),
                "p99_ms": round(harness.percentile(unloaded, 0.99), 4),
            },
        )

        clean, clean_samples = await _cohort(profile, seed=21, chaos=False, storm_p=0.0)
        harness.write("gateway", "clean", clean)

        storm, storm_samples = await _cohort(profile, seed=31, chaos=True, storm_p=STORM_P)
        assert storm["chaos_fired"] > 0, "storm produced no faults"
        clean_p99 = harness.percentile(clean_samples, 0.99)
        storm_p99 = harness.percentile(storm_samples, 0.99)
        ratio = storm_p99 / clean_p99
        storm.update({
            "clean_p99_ms": round(clean_p99, 3),
            "ratio": round(ratio, 2),
            "ratio_vs_unloaded": round(storm_p99 / harness.percentile(unloaded, 0.99), 1),
            "gate": P99_GATE,
            "lost_diffs": 0,
            "double_applied": 0,
        })
        harness.write("gateway", "storm", storm)
        assert ratio <= P99_GATE, (
            f"storm p99 admit->diff latency {storm_p99:.2f} ms is "
            f"{ratio:.1f}x the clean-cohort p99 {clean_p99:.2f} ms (gate "
            f"{P99_GATE:.0f}x): the resilience machinery is inflating the "
            f"tail"
        )

    asyncio.run(asyncio.wait_for(scenario(), 600.0))

