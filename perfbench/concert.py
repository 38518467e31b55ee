"""One measured run of one Skini concert workload, in a fresh interpreter.

``run.py`` starts this script once per measurement (and once per extra
set-up probe) with a fixed ``PYTHONHASHSEED`` and ``src`` on the path,
and reads the single JSON object it prints.  The script:

1. sets the workload up from scratch (imports, parse, compile, plan,
   spawn, boot; on ``edge`` also the gateway and both handshakes) and
   reports the time since the parent started the process;
2. runs the closed loop for ``--seconds``: one thread, no sleeps, a
   reference chunk (see ``refloop.py``) after every cycle;
3. checks every output against an independent replay, outside the
   timed window;
4. with ``--trace``, also reports the per-layer figures of ``spans.py``.

See NOTES.md for what each workload models and why it exists.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from array import array
from typing import Any, Dict, List, Optional

import refloop
import spans

clock = time.perf_counter

#: participant machines in the audience fleet (``audience`` and ``edge``)
MEMBERS = 1000
#: members tapping select -> grant -> stop between two pulses (``audience``)
TAPPERS = 20
#: audience selections per simulated second (``score``): an audience of
#: 80 at ``Audience``'s default eagerness of 0.25
SELECTIONS = 20
#: ``make_large_score`` arguments: the 724-net conductor and the
#: 10,247-net paper-scale score
CONDUCTOR_SHAPE = (8, 5, 6)
SCORE_SHAPE = (115, 5, 6)
#: supervised-score checkpoint period, in instants
CHECKPOINT_EVERY = 25
#: WebSocket clients on ``edge`` (the usable cores of the host the
#: workload was designed on)
CLIENTS = 2
#: distinct seeded pick streams a restarted performance cycles through;
#: performances on one stream must agree input for input, so the replay
#: check needs one reference replay per stream
STREAMS = 2
#: seeded draws per stream (picks wrap around beyond it)
DRAWS = 1 << 14
#: reference chunks timed right after set-up
SETUP_REF_CHUNKS = 41

HOST_GLOBALS = {"andBool": lambda a, b: bool(a and b)}


class Samples:
    """Raw timings of one run, each tagged with its cycle, plus the two
    reference-chunk halves timed after every cycle."""

    def __init__(self, walk_share: Dict[str, float]):
        #: memory-walk share of the reference each percentile is
        #: normalized against (see ``refloop.slowness``)
        self.walk_share = walk_share
        self.pulse = array("d")
        self.pulse_cycle = array("l")
        self.tap = array("d")
        self.tap_cycle = array("l")
        #: busy seconds of the timed operations of each cycle
        self.busy = array("d")
        self.arith = array("d")
        self.walk = array("d")
        #: units of work completed (member-instants, taps or instants)
        self.work = 0
        self.attempted = 0
        self.failed = 0

    def end_cycle(self, busy: float) -> None:
        self.busy.append(busy)
        arith, walk = refloop.time_ref()
        self.arith.append(arith)
        self.walk.append(walk)

    def metrics(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for kind, values, cycles in (
            ("pulse", self.pulse, self.pulse_cycle),
            ("tap", self.tap, self.tap_cycle),
        ):
            raw = refloop.summarize([v * 1000.0 for v in values])
            for q in ("p50", "p99"):
                name = f"{kind}_{q}_ms"
                factors = refloop.cycle_factors(self.arith, self.walk, self.walk_share[name])
                normed = refloop.summarize([v * 1000.0 * factors[c] for v, c in zip(values, cycles)])
                out[name] = {
                    "value": normed[q], "raw": raw[q], "n": normed["n"],
                    "beyond": normed["beyond_p99"], "unit": "ms",
                }
        # whole cycles mix the classes; their busy time follows CPU speed
        factors = refloop.cycle_factors(self.arith, self.walk, 0.0)
        busy_norm = sum(b * f for b, f in zip(self.busy, factors))
        out["throughput_per_s"] = {
            "value": self.work / busy_norm, "raw": self.work / sum(self.busy),
            "n": self.work, "unit": "1/s",
        }
        return out

    def reference(self) -> Dict[str, float]:
        """Median reference halves of the run, in ms."""
        return {"bench.ref_ms": statistics.median(self.arith),
                "bench.walk_ms": statistics.median(self.walk)}


class Show:
    """One performance of a Skini score: the conductor machine, the
    groups and tanks its outputs open and close, and the seeded stream
    its audience picks from.  Mirrors ``repro.apps.skini.Performance``
    but lets the caller time the clock reaction and each selection
    separately."""

    def __init__(self, compiled: Any, shape: tuple, stream: int, draws: List[float],
                 supervised: bool = False, backend: str = "auto"):
        from repro.apps.skini import make_large_score
        from repro.runtime import ReactiveMachine
        from repro.runtime.journal import MemoryJournal
        from repro.runtime.recovery import MachineSupervisor

        self.stream = stream
        self.draws = draws
        self.score = make_large_score(*shape)
        self.by_activate = {g.activate_signal: g for g in self.score.groups}
        #: the groups currently open, in the order they opened
        self.open: Dict[str, Any] = {}
        self.machine = ReactiveMachine(compiled, host_globals=HOST_GLOBALS, backend=backend)
        self.supervisor = (
            MachineSupervisor(self.machine, MemoryJournal(), checkpoint_every=CHECKPOINT_EVERY)
            if supervised else None
        )
        self._react = (self.supervisor or self.machine).react
        self.inputs: List[Dict[str, Any]] = []
        self.seconds = 0
        self.picks = 0
        self.react({})

    def react(self, inputs: Dict[str, Any]) -> Any:
        result = self._react(inputs)
        for name, value in result.items():
            group = self.by_activate.get(name)
            if group is not None:
                group.active = bool(value)
                if group.active:
                    self.open[name] = group
                else:
                    self.open.pop(name, None)
        self.inputs.append(inputs)
        return result

    def tick(self) -> Any:
        self.seconds += 1
        return self.react({"seconds": self.seconds, "second": True})

    def choose(self) -> Optional[tuple]:
        """The next audience pick: a selectable pattern of an open group,
        or None when every group is closed."""
        groups = [g for g in self.open.values() if g.selectable()]
        if not groups:
            return None
        draws, k = self.draws, 2 * self.picks
        self.picks += 1
        group = groups[int(draws[k % DRAWS] * len(groups))]
        patterns = group.selectable()
        return group, patterns[int(draws[(k + 1) % DRAWS] * len(patterns))]

    def select(self, group: Any, pattern: Any) -> Any:
        group.select(pattern)
        return self.react({group.input_signal: pattern.pid})


class ShowLedger:
    """Every performance a run played, checked against one reference
    replay per stream on another backend."""

    def __init__(self, compiled: Any):
        self.compiled = compiled
        self.logs: Dict[int, List[Dict[str, Any]]] = {}
        #: (stream, instants, digest, retries + rollbacks)
        self.ends: List[tuple] = []
        self.errors: List[str] = []
        self.sparse = 0
        self.full = 0

    def close(self, show: Show) -> None:
        """Record a finished (or interrupted) performance."""
        log = self.logs.setdefault(show.stream, show.inputs)
        if show.inputs is not log:
            longer, shorter = (log, show.inputs) if len(log) >= len(show.inputs) else (show.inputs, log)
            if longer[:len(shorter)] != shorter:
                self.errors.append(f"stream {show.stream}: two performances diverged")
            self.logs[show.stream] = longer
        slips = 0
        if show.supervisor is not None:
            slips = show.supervisor.stats["retries"] + show.supervisor.stats["rollbacks"]
        scheduler = show.machine._scheduler
        self.sparse += getattr(scheduler, "sparse_reactions", 0)
        self.full += getattr(scheduler, "full_reactions", 0)
        self.ends.append((show.stream, len(show.inputs), show.machine.state_digest(), slips))

    def check(self) -> List[str]:
        from repro.runtime import ReactiveMachine

        errors = list(self.errors)
        for stream, log in self.logs.items():
            wanted = {n for s, n, _, _ in self.ends if s == stream}
            machine = ReactiveMachine(self.compiled, host_globals=HOST_GLOBALS, backend="levelized")
            digests = {}
            for count, inputs in enumerate(log, 1):
                machine.react(inputs)
                if count in wanted:
                    digests[count] = machine.state_digest()
            for s, n, digest, slips in self.ends:
                if s != stream:
                    continue
                if digests.get(n) != digest:
                    errors.append(f"stream {s}: digest after {n} instants differs from the levelized replay")
                if slips:
                    errors.append(f"stream {s}: {slips} supervisor retries/rollbacks")
        return errors


class Workload:
    """What the three workloads share: the seed, the tracer, the samples
    and, for the two with a conductor, its restarted performances."""

    #: memory-walk share of the reference each percentile is normalized
    #: against (see ``refloop.slowness``)
    WALK_SHARE: Dict[str, float] = {}

    def __init__(self, seed: int, tracer: spans.Tracer, tracing: bool):
        self.seed = seed
        self.tracer = tracer
        self.tracing = tracing
        self.samples = Samples(self.WALK_SHARE)
        rng = random.Random(seed)
        #: the seeded pick streams restarted performances cycle through
        self.streams = [[rng.random() for _ in range(DRAWS)] for _ in range(STREAMS)]
        self.performances = 0

    def next_show(self, compiled: Any, shape: tuple, supervised: bool = False) -> Show:
        stream = self.performances % STREAMS
        self.performances += 1
        return Show(compiled, shape, stream, self.streams[stream], supervised)

    def layer_counters(self) -> Dict[str, Any]:
        return {}


# ---------------------------------------------------------------------------
# audience: the concert at audience scale, on the lockstep engine
# ---------------------------------------------------------------------------


class AudienceWorkload(Workload):
    #: a pulse sweeps all 1000 members; a tap touches one
    WALK_SHARE = {"pulse_p50_ms": 0.5, "pulse_p99_ms": 0.5, "tap_p50_ms": 0.0, "tap_p99_ms": 0.0}

    def setup(self) -> None:
        from repro.apps.skini import PARTICIPANT_PROGRAM, make_large_score
        from repro.apps.skini.score import generate_score_source
        from repro.compiler.compile import compile_cached
        from repro.runtime.fleet import MachineFleet
        from repro.syntax import parse_module, parse_program

        t = self.tracer
        participant = t.call("compiler.parse", parse_module, PARTICIPANT_PROGRAM)
        compiled = t.call("compiler.compile", compile_cached, participant)
        t.call("compiler.plan", compiled.evaluation_plan)
        t.call("compiler.word_plan", compiled.word_plan)
        table = t.call("compiler.parse", parse_program,
                       generate_score_source(make_large_score(*CONDUCTOR_SHAPE)))
        self.conductor = t.call("compiler.compile", compile_cached,
                                table.get("Score_Large"), table)
        t.call("compiler.plan", self.conductor.evaluation_plan)
        self.nets = len(compiled.circuit.nets) + len(self.conductor.circuit.nets)
        self.participant = compiled
        self.fleet = t.call("fleet.spawn", MachineFleet, compiled, size=MEMBERS)
        self.fleet.react_all({})
        self.order = list(range(MEMBERS))
        random.Random(self.seed + 1).shuffle(self.order)
        self.ledger = ShowLedger(self.conductor)
        self.show = self.next_show(self.conductor, CONDUCTOR_SHAPE)
        #: pattern id each tapper carried, per cycle (the replay input)
        self.tapped: List[List[str]] = []

    def members(self, cycle: int) -> List[int]:
        base = cycle * TAPPERS
        return [self.order[(base + j) % MEMBERS] for j in range(TAPPERS)]

    def run(self, deadline: float) -> None:
        s, fleet, tracer, tracing = self.samples, self.fleet, self.tracer, self.tracing
        engine = fleet._engine  # read-only: residency for the traced run
        self.resident: List[int] = []
        cycle = 0
        while clock() < deadline:
            if self.show.machine.terminated:
                self.ledger.close(self.show)
                self.show = self.next_show(self.conductor, CONDUCTOR_SHAPE)
            show = self.show
            if tracing:
                self.resident.append(engine.resident_count)
            tracer.recording = tracing
            s.attempted += 1
            start = clock()
            show.tick()
            fleet.react_all({})
            busy = clock() - start
            s.pulse.append(busy)
            s.pulse_cycle.append(cycle)
            s.work += MEMBERS
            pids = []
            for member in self.members(cycle):
                pick = show.choose()
                pid = pick[1].pid if pick else "rest"
                pids.append(pid)
                for inputs in ({"select": pid}, {"grant": pid}, {"stop": True}):
                    s.attempted += 1
                    t0 = clock()
                    fleet.react_one(member, inputs)
                    elapsed = clock() - t0
                    busy += elapsed
                    s.tap.append(elapsed)
                    s.tap_cycle.append(cycle)
                    s.work += 1
                    if pick is not None and "select" in inputs:
                        t0 = clock()
                        show.select(*pick)
                        busy += clock() - t0
            tracer.recording = False
            self.tapped.append(pids)
            s.end_cycle(busy)
            cycle += 1
        self.ledger.close(self.show)

    def check(self) -> List[str]:
        from repro.runtime.fleet import MachineFleet

        errors = self.ledger.check()
        reference = MachineFleet(self.participant, size=MEMBERS, backend="levelized")
        if reference._engine is not None:
            errors.append("reference fleet runs the lockstep engine")
        reference.react_all({})
        for cycle, pids in enumerate(self.tapped):
            reference.react_all({})
            for member, pid in zip(self.members(cycle), pids):
                reference.react_one(member, {"select": pid})
                reference.react_one(member, {"grant": pid})
                reference.react_one(member, {"stop": True})
        mismatched = [
            index for index in range(MEMBERS)
            if self.fleet[index].state_digest() != reference[index].state_digest()
        ]
        if mismatched:
            errors.append(f"{len(mismatched)} members differ from the lockstep-off replay "
                          f"(first: {mismatched[0]})")
        return errors

    def layer_counters(self) -> Dict[str, Any]:
        return {"lockstep": self.fleet.stats()["lockstep"]}

    def layers(self, before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
        a, b = after["lockstep"], before["lockstep"]
        pulses = max(1, len(self.samples.pulse))
        shared = a["shared_results"] - b["shared_results"]
        special = a["special_results"] - b["special_results"]
        demotions = sum(a["demotions"].values()) - sum(b["demotions"].values())
        return {
            "lockstep.resident_share": sum(self.resident) / (MEMBERS * max(1, len(self.resident))),
            "lockstep.promotions_per_pulse": (a["promotions"] - b["promotions"]) / pulses,
            "lockstep.demotions": demotions / pulses,
            "lockstep.shared_result_share": shared / max(1, shared + special),
            "fastsched.sparse_share": self.ledger.sparse / max(1, self.ledger.sparse + self.ledger.full),
        }


# ---------------------------------------------------------------------------
# score: the paper-scale conductor, supervised, on the sparse engine
# ---------------------------------------------------------------------------


class ScoreWorkload(Workload):
    #: a clock instant spreads over the 10k-net circuit and a selection
    #: does not, but the checkpoints that set both tails snapshot all of it
    WALK_SHARE = {"pulse_p50_ms": 0.5, "pulse_p99_ms": 0.5, "tap_p50_ms": 0.0, "tap_p99_ms": 0.5}

    def setup(self) -> None:
        from repro.apps.skini import make_large_score
        from repro.apps.skini.score import generate_score_source
        from repro.compiler.compile import compile_cached
        from repro.syntax import parse_program

        t = self.tracer
        table = t.call("compiler.parse", parse_program,
                       generate_score_source(make_large_score(*SCORE_SHAPE)))
        self.compiled = t.call("compiler.compile", compile_cached, table.get("Score_Large"), table)
        t.call("compiler.plan", self.compiled.evaluation_plan)
        self.nets = len(self.compiled.circuit.nets)
        self.ledger = ShowLedger(self.compiled)
        self.show = self.next_show(self.compiled, SCORE_SHAPE, supervised=True)
        if self.show.machine.backend != "sparse":
            raise RuntimeError(f"score runs on {self.show.machine.backend}, not sparse")

    def run(self, deadline: float) -> None:
        s, tracer = self.samples, self.tracer
        self.supervisor_stats: List[Dict[str, int]] = []
        cycle = 0
        while clock() < deadline:
            if self.show.machine.terminated:
                self._close()
                self.show = self.next_show(self.compiled, SCORE_SHAPE, supervised=True)
            show = self.show
            tracer.recording = self.tracing
            s.attempted += 1
            start = clock()
            show.tick()
            busy = clock() - start
            s.pulse.append(busy)
            s.pulse_cycle.append(cycle)
            s.work += 1
            for _ in range(SELECTIONS):
                pick = show.choose()
                if pick is None:
                    break
                s.attempted += 1
                t0 = clock()
                show.select(*pick)
                elapsed = clock() - t0
                busy += elapsed
                s.tap.append(elapsed)
                s.tap_cycle.append(cycle)
                s.work += 1
            tracer.recording = False
            s.end_cycle(busy)
            cycle += 1
        self._close()
        s.failed += sum(st["retries"] + st["rollbacks"] for st in self.supervisor_stats)

    def _close(self) -> None:
        self.supervisor_stats.append(dict(self.show.supervisor.stats))
        self.ledger.close(self.show)

    def check(self) -> List[str]:
        return self.ledger.check()

    def layers(self, before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
        return {
            # every performance takes one checkpoint when its supervisor starts
            "recovery.checkpoints": sum(st["checkpoints"] - 1 for st in self.supervisor_stats),
            "snapshot.bytes": len(json.dumps(self.show.machine.snapshot())),
            "fastsched.sparse_share": self.ledger.sparse / max(1, self.ledger.sparse + self.ledger.full),
        }


# ---------------------------------------------------------------------------
# edge: the audience behind admission control and the WebSocket gateway
# ---------------------------------------------------------------------------


class EdgeWorkload(Workload):
    #: operations touch one or two members and mostly run the asyncio
    #: loop, JSON and the frame codec, which follow CPU speed; a typical
    #: pulse also pays the pump's sweep over all 1000 mailboxes
    WALK_SHARE = {"pulse_p50_ms": 0.25, "pulse_p99_ms": 0.0, "tap_p50_ms": 0.0, "tap_p99_ms": 0.0}

    def __init__(self, seed: int, tracer: spans.Tracer, tracing: bool):
        super().__init__(seed, tracer, tracing)
        self.ack = array("d")
        self.diff_wait = array("d")

    def setup(self) -> None:
        """Everything up to the first handshake is synchronous; the
        gateway start and handshakes run in :meth:`connect`."""
        from repro.apps.skini import PARTICIPANT_PROGRAM
        from repro.compiler.compile import compile_cached
        from repro.runtime.fleet import MachineFleet
        from repro.runtime.gateway import Gateway
        from repro.syntax import parse_module

        t = self.tracer
        participant = t.call("compiler.parse", parse_module, PARTICIPANT_PROGRAM)
        compiled = t.call("compiler.compile", compile_cached, participant)
        t.call("compiler.plan", compiled.evaluation_plan)
        t.call("compiler.word_plan", compiled.word_plan)
        self.nets = len(compiled.circuit.nets)
        self.participant = compiled
        self.fleet = t.call("fleet.spawn", MachineFleet, compiled, size=MEMBERS)
        self.ingress = self.fleet.ingress(capacity=64)
        self.gateway = Gateway(self.ingress, grow=False, name="perfbench")
        self.pids = [f"inst{int(u * 5)}-{int(u * 30) % 6}" for u in self.streams[0]]

    async def connect(self) -> None:
        from repro.runtime.gateway import GatewayClient

        await self.gateway.start()
        self.clients = [
            GatewayClient(self.gateway.local_connector(), seed=self.seed + i, name=f"phone{i}")
            for i in range(CLIENTS)
        ]
        for client in self.clients:
            await client.connect()
        #: every input map each client's member reacted to, boot first
        self.sent: List[List[Dict[str, Any]]] = [[{}] for _ in self.clients]

    async def _await_diff(self, client: Any, seq: int) -> None:
        if client.last_seq < seq:
            await client.wait_view(lambda view: client.last_seq >= seq)

    async def _tap_cycle(self, index: int, cycle: int) -> None:
        client, s = self.clients[index], self.samples
        pid = self.pids[(cycle * CLIENTS + index) % DRAWS]
        for inputs in ({"select": pid}, {"grant": pid}, {"stop": True}):
            s.attempted += 1
            seq = client.last_seq + 1
            t0 = clock()
            decision = await client.send_event(inputs)
            t1 = clock()
            await self._await_diff(client, seq)
            t2 = clock()
            if decision != "admitted":
                s.failed += 1
            s.tap.append(t2 - t0)
            s.tap_cycle.append(cycle)
            self.ack.append(t1 - t0)
            self.diff_wait.append(t2 - t1)
            self.sent[index].append(inputs)
            s.work += 1

    async def run_async(self, deadline: float) -> None:
        s, gateway, clients = self.samples, self.gateway, self.clients
        cycle = 0
        while clock() < deadline:
            self.tracer.recording = self.tracing
            s.attempted += 1
            start = clock()
            targets = [c.last_seq + 1 for c in clients]
            gateway.broadcast({})
            for client, seq in zip(clients, targets):
                await self._await_diff(client, seq)
            pulse = clock() - start
            s.pulse.append(pulse)
            s.pulse_cycle.append(cycle)
            for sent in self.sent:
                sent.append({})
            await asyncio.gather(*(self._tap_cycle(i, cycle) for i in range(CLIENTS)))
            busy = clock() - start
            self.tracer.recording = False
            s.end_cycle(busy)
            cycle += 1
        s.failed += sum(c.stats["retransmits"] + c.stats["busy"] for c in clients)

    def check(self) -> List[str]:
        from repro.runtime import ReactiveMachine
        from repro.errors import MachineError

        errors = []
        try:
            self.ingress.check_accounting()
        except MachineError as err:
            errors.append(f"ingress accounting: {err}")
        for client, sent in zip(self.clients, self.sent):
            session = self.gateway.sessions[client.sid]
            events = sum(1 for inputs in sent[1:] if inputs)
            if client.view != session.view:
                errors.append(f"{client.name}: client view differs from its session view")
            if session.applied_count != events or client.stats["events_sent"] != events:
                errors.append(f"{client.name}: {session.applied_count} applied, "
                              f"{client.stats['events_sent']} sent, {events} expected")
            for key in ("retransmits", "busy", "reconnects", "stale_diffs"):
                if client.stats[key]:
                    errors.append(f"{client.name}: {client.stats[key]} {key}")
            fresh = ReactiveMachine(self.participant)
            for inputs in sent:
                fresh.react(inputs)
            if fresh.state_digest() != self.fleet[session.member].state_digest():
                errors.append(f"{client.name}: member {session.member} differs from a fresh replay")
        return errors

    def layer_counters(self) -> Dict[str, Any]:
        return {"ingress": self.ingress.stats(), "gateway": dict(self.gateway.counters)}

    def layers(self, before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
        a, b = after["ingress"], before["ingress"]
        t = self.tracer
        refused = sum(a[k] - b[k] for k in ("rate_limited", "rejected", "dropped"))
        pumps = t.calls("ingress.pump")
        taps = max(1, len(self.samples.tap))
        return {
            "ingress.pump_calls": pumps,
            "ingress.reactions_per_pump": (a["pumped"] - b["pumped"]) / max(1, pumps),
            "ingress.coalesced": a["coalesced"] - b["coalesced"],
            "ingress.refused": refused,
            "gateway.diffs_coalesced": after["gateway"]["diffs_coalesced"] - before["gateway"]["diffs_coalesced"],
            "wsproto.bytes_per_tap": t.counts.get("wsproto.encode", 0.0) / taps,
            "client.ack_ms": 1000.0 * sum(self.ack) / max(1, len(self.ack)),
            "client.diff_wait_ms": 1000.0 * sum(self.diff_wait) / max(1, len(self.diff_wait)),
        }

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.gateway.aclose()
        # let every cancelled reader and writer task finish unwinding
        tasks = asyncio.all_tasks() - {asyncio.current_task()}
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)


WORKLOADS = {"audience": AudienceWorkload, "edge": EdgeWorkload, "score": ScoreWorkload}


def layer_metrics(work: Any, setup: spans.Tracer, before: Dict[str, Any],
                  after: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer figure of a traced run; a layer the workload does
    not exercise reads 0."""
    t = work.tracer
    supervised = t.calls("recovery.supervise")
    journal_ms = sum(t.total_ms(f"journal.{op}") for op in ("append", "commit", "truncate"))
    gen = t.gc
    collections = sum(g[0] for g in gen.values())
    busy = sum(work.samples.busy)
    m = {
        "compiler.parse_ms": setup.total_ms("compiler.parse"),
        "compiler.compile_ms": setup.total_ms("compiler.compile"),
        "compiler.plan_ms": setup.total_ms("compiler.plan"),
        "compiler.word_plan_ms": setup.total_ms("compiler.word_plan"),
        "compiler.nets": work.nets,
        "machine.react_ms": t.mean_ms("machine.react", inclusive=False),
        "machine.reactions": t.calls("machine.react"),
        "fastsched.sparse_share": 0.0,
        "fleet.react_all_ms": t.mean_ms("fleet.react_all"),
        "fleet.react_one_ms": t.mean_ms("fleet.react_one"),
        "lockstep.resident_share": 0.0,
        "lockstep.promotions_per_pulse": 0.0,
        "lockstep.demotions": 0.0,
        "lockstep.shared_result_share": 0.0,
        "ingress.offer_ms": t.mean_ms("ingress.offer"),
        "ingress.pump_ms": t.mean_ms("ingress.pump"),
        "ingress.pump_calls": 0,
        "ingress.reactions_per_pump": 0.0,
        "ingress.coalesced": 0,
        "ingress.refused": 0,
        "gateway.pump_now_ms": t.mean_ms("gateway.pump_now"),
        "gateway.push_diff_ms": t.mean_ms("gateway.push_diff"),
        "wsproto.encode_ms": t.mean_ms("wsproto.encode"),
        "wsproto.decode_ms": t.mean_ms("wsproto.decode"),
        "wsproto.bytes_per_tap": 0.0,
        "gateway.diffs_coalesced": 0,
        "client.ack_ms": 0.0,
        "client.diff_wait_ms": 0.0,
        # supervision minus the reaction and the checkpoints it wraps,
        # plus the journal writes the reaction makes
        "recovery.journal_ms": (
            (t.total_ms("recovery.supervise", inclusive=False) + journal_ms) / supervised
            if supervised else 0.0
        ),
        "recovery.checkpoint_ms": t.mean_ms("recovery.checkpoint"),
        "recovery.checkpoints": 0,
        "journal.records": t.calls("journal.append"),
        "machine.snapshot_ms": t.mean_ms("machine.snapshot"),
        "snapshot.bytes": 0,
        "gc.pause_ms": 1000.0 * sum(g[1] for g in gen.values()) / collections if collections else 0.0,
        "gc.max_pause_ms": 1000.0 * max(g[2] for g in gen.values()),
        "gc.collections.gen0": gen[0][0],
        "gc.collections.gen1": gen[1][0],
        "gc.collections.gen2": gen[2][0],
        "unattributed": 1.0 - t.covered / busy if busy else 0.0,
        "trace.pulses": len(work.samples.pulse),
        "trace.taps": len(work.samples.tap),
    }
    m.update(work.layers(before, after))
    return m


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    started = float(os.environ["PERFBENCH_T0"])
    tracing = bool(args.trace)
    tracer = spans.Tracer()
    if tracing:
        spans.install(tracer)
        tracer.recording = True
    work = WORKLOADS[args.workload](args.seed, tracer, tracing)
    loop = asyncio.new_event_loop() if isinstance(work, EdgeWorkload) else None
    work.setup()
    if loop is not None:
        loop.run_until_complete(work.connect())
    setup_raw = time.monotonic() - started
    tracer.recording = False
    chunks = [refloop.time_ref() for _ in range(SETUP_REF_CHUNKS)]
    setup_ref = statistics.median(arith for arith, _ in chunks)
    result: Dict[str, Any] = {
        "python": sys.version.split()[0],
        "setup": {"raw_s": setup_raw, "ref_ms": setup_ref,
                  "value": setup_raw * refloop.ARITH_NOMINAL_MS / setup_ref},
    }
    if not args.setup_only:
        setup = tracer.split()
        before = work.layer_counters()
        gc.collect()
        deadline = clock() + args.seconds
        if loop is not None:
            loop.run_until_complete(work.run_async(deadline))
        else:
            work.run(deadline)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = work.layer_counters()
        errors = work.check()
        s = work.samples
        result.update({
            "e2e": s.metrics(),
            "reference": s.reference(),
            "attempted": s.attempted,
            "failed": s.failed,
            "errors": errors,
            "peak_rss_mb": peak_rss_mb,
        })
        if tracing:
            result["layers"] = layer_metrics(work, setup, before, after)
    if loop is not None:
        loop.run_until_complete(work.close())
        loop.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
