"""hiphop-py: a Python reproduction of HipHop.js (Berry & Serrano, PLDI 2020).

Synchronous reactive programming for Python: Esterel-style concurrency,
signals and preemption, compiled to augmented boolean circuits and executed
atomically by a reactive machine.

Quickstart::

    from repro import ReactiveMachine, parse_module

    ABRO = parse_module('''
        module ABRO(in A, in B, in R, out O) {
          do {
            fork { await A.now } par { await B.now }
            emit O
          } every (R.now)
        }
    ''')
    machine = ReactiveMachine(ABRO)
    machine.react({"A": True})
    assert machine.react({"B": True}).present("O")
"""

from repro.errors import (
    ArtifactError,
    CausalityError,
    CompileError,
    CrashError,
    FleetReactionError,
    HipHopError,
    LinkError,
    MachineError,
    MultipleEmitError,
    OverloadError,
    ParseError,
    ReactionBudgetExceeded,
    SignalError,
    SnapshotError,
    ValidationError,
)
from repro.lang import ast, dsl, expr
from repro.lang.ast import Module, ModuleTable
from repro.lang.signals import SignalDecl, VarDecl
from repro.compiler import (
    CompileOptions,
    clear_compile_cache,
    compile_cache_stats,
    compile_cached,
    compile_module,
)
from repro.runtime import (
    FileJournal,
    FleetIngress,
    FleetSupervisor,
    Gateway,
    GatewayClient,
    MachineFleet,
    MachineSupervisor,
    Mailbox,
    MemoryJournal,
    ReactionResult,
    ReactiveMachine,
    TokenBucket,
    TornJournalWarning,
)
from repro.syntax import parse_expression, parse_module, parse_program, parse_statement

__version__ = "1.0.0"

__all__ = [
    "ReactiveMachine",
    "ReactionResult",
    "MachineFleet",
    "FleetIngress",
    "Gateway",
    "GatewayClient",
    "Mailbox",
    "TokenBucket",
    "MachineSupervisor",
    "FleetSupervisor",
    "MemoryJournal",
    "FileJournal",
    "TornJournalWarning",
    "Module",
    "ModuleTable",
    "SignalDecl",
    "VarDecl",
    "compile_module",
    "compile_cached",
    "compile_cache_stats",
    "clear_compile_cache",
    "CompileOptions",
    "parse_module",
    "parse_program",
    "parse_statement",
    "parse_expression",
    "dsl",
    "ast",
    "expr",
    "HipHopError",
    "ParseError",
    "ValidationError",
    "LinkError",
    "CompileError",
    "CausalityError",
    "SignalError",
    "MultipleEmitError",
    "MachineError",
    "SnapshotError",
    "FleetReactionError",
    "CrashError",
    "OverloadError",
    "ReactionBudgetExceeded",
    "ArtifactError",
    "__version__",
]
