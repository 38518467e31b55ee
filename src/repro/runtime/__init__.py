"""Runtime: the reactive machine and its constructive circuit simulator."""

from repro.runtime.fleet import FleetIngress, MachineFleet
from repro.runtime.gateway import Gateway, GatewayClient, Session, tcp_connector
from repro.runtime.ingress import LatencyEwma, Mailbox, TokenBucket, merge_inputs
from repro.runtime.journal import (
    FileJournal,
    JournalEntry,
    MemoryJournal,
    TornJournalWarning,
)
from repro.runtime.machine import ReactiveMachine, ReactionResult, SNAPSHOT_FORMAT
from repro.runtime.recovery import FleetSupervisor, MachineSupervisor

__all__ = [
    "MachineFleet",
    "FleetIngress",
    "Gateway",
    "GatewayClient",
    "Session",
    "tcp_connector",
    "ReactiveMachine",
    "ReactionResult",
    "Mailbox",
    "TokenBucket",
    "LatencyEwma",
    "merge_inputs",
    "JournalEntry",
    "MemoryJournal",
    "FileJournal",
    "TornJournalWarning",
    "MachineSupervisor",
    "FleetSupervisor",
    "SNAPSHOT_FORMAT",
]
