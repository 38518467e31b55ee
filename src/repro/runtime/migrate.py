"""Versioned state migration: carry a machine snapshot across a program
edit.

A :func:`ReactiveMachine.snapshot` is positional — registers, signals,
counters and execs are flat lists in circuit order — and
:meth:`~repro.runtime.machine.ReactiveMachine.restore` refuses payloads
whose compile fingerprint differs, because a positional payload from a
structurally different circuit is meaningless.  Hot program upgrade needs
exactly that meaning: take the state a v1 machine accumulated and land it
on the v2 circuit so the machine resumes *in place* under the edited
program.

The bridge is the :func:`state_descriptor`: a JSON-able map from every
positional state slot to a *stable key*

    ``(segment path, kind, label, occurrence)``

where the segment path comes from the state segment the compiler
records for each ``run`` instance (``/M#0``, nested ``/M#0/N#2``, where
``k`` numbers the instances of ``M`` within the enclosing one; state
owned by the top-level body is the implicit spine ``/``).  Because each
instance owns its own path, an edit inside one module only perturbs
keys *inside its instances' segments*; every other instance's keys — and
the spine's — are unchanged, so their state carries over byte-exactly.

:func:`migrate_snapshot` then maps a v1 snapshot onto v2: slots whose
keys exist on both sides carry their v1 values verbatim, slots new in v2
take the value a freshly booted v2 machine has (its boot snapshot is the
explicit source of defaults — migration invents no values), and v1 state
with no v2 home is dropped and reported.  Instances *new* in v2 can
additionally be seeded from a post-boot snapshot so they start reacting
immediately (see :func:`migrate_snapshot`).  The result restores onto a
v2 machine through the ordinary :meth:`restore` path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import MigrationError

__all__ = [
    "DESCRIPTOR_FORMAT",
    "state_descriptor",
    "migrate_snapshot",
    "MigrationReport",
]

#: bump when the descriptor key derivation changes incompatibly
DESCRIPTOR_FORMAT = 1

SPINE = "/"

Key = Tuple[str, str, str, int]


def _keys(
    paths: List[str], labels: List[str], kind: str
) -> List[Key]:
    """Stable keys for one positional state table.

    ``occurrence`` counts repetitions of ``(path, label)`` in slot order,
    so two ``pause`` registers inside one instance stay distinct while
    remaining insensitive to edits elsewhere in the program.
    """
    seen: Dict[Tuple[str, str], int] = {}
    keys: List[Key] = []
    for path, label in zip(paths, labels):
        occurrence = seen.get((path, label), 0)
        seen[(path, label)] = occurrence + 1
        keys.append((path, kind, label, occurrence))
    return keys


def state_descriptor(compiled: Any) -> Dict[str, Any]:
    """Describe ``compiled``'s positional snapshot layout with stable keys.

    The result is plain JSON-able data, independent of the circuit
    object, so a supervisor can compute it once per program version and
    ship it across process boundaries alongside snapshots.
    """
    from repro.compiler.netlist import REG

    circuit = compiled.circuit

    reg_path: Dict[int, str] = {}
    sig_path: Dict[int, str] = {}
    counter_path: Dict[int, str] = {}
    exec_path: Dict[int, str] = {}
    for seg in circuit.segments:
        for net in seg.registers:
            reg_path[id(net)] = seg.path
        for slot in seg.signal_slots:
            sig_path[slot] = seg.path
        for slot in seg.counter_slots:
            counter_path[slot] = seg.path
        for slot in seg.exec_slots:
            exec_path[slot] = seg.path

    registers = [net for net in circuit.nets if net.kind == REG]
    reg_keys = _keys(
        [reg_path.get(id(net), SPINE) for net in registers],
        [net.label or "reg" for net in registers],
        "reg",
    )
    sig_keys = _keys(
        [sig_path.get(info.slot, SPINE) for info in circuit.signals],
        [info.name for info in circuit.signals],
        "sig",
    )
    counter_keys = _keys(
        [counter_path.get(cnt.slot, SPINE) for cnt in circuit.counters],
        ["counter" for cnt in circuit.counters],
        "counter",
    )
    exec_keys = _keys(
        [exec_path.get(info.slot, SPINE) for info in circuit.execs],
        [info.name for info in circuit.execs],
        "exec",
    )
    return {
        "format": DESCRIPTOR_FORMAT,
        "fingerprint": compiled.fingerprint,
        "module": circuit.name,
        "registers": [list(key) for key in reg_keys],
        "signals": [list(key) for key in sig_keys],
        "counters": [list(key) for key in counter_keys],
        "counter_arities": [cnt.arity for cnt in circuit.counters],
        "execs": [list(key) for key in exec_keys],
    }


class MigrationReport:
    """What :func:`migrate_snapshot` did with every piece of state."""

    __slots__ = ("carried", "initialized", "dropped", "identical")

    def __init__(self) -> None:
        #: keys present in both versions: v1 value carried verbatim
        self.carried: List[str] = []
        #: keys new in v2: fresh-boot value used
        self.initialized: List[str] = []
        #: keys only in v1: state lost by the edit (reported, not silent)
        self.dropped: List[str] = []
        #: same fingerprint on both sides — positional copy, nothing to map
        self.identical: bool = False

    def summary(self) -> str:
        if self.identical:
            return "identical program: positional copy"
        return (
            f"carried {len(self.carried)}, "
            f"initialized {len(self.initialized)}, "
            f"dropped {len(self.dropped)}"
        )

    def __repr__(self) -> str:
        return f"MigrationReport({self.summary()})"


def _render(key: Key) -> str:
    path, kind, label, occurrence = key
    return f"{path}:{kind}:{label}#{occurrence}"


def _check_descriptor(desc: Mapping, role: str) -> None:
    if desc.get("format") != DESCRIPTOR_FORMAT:
        raise MigrationError(
            f"{role} descriptor format {desc.get('format')!r} is not "
            f"{DESCRIPTOR_FORMAT}"
        )


def _table(
    desc_keys: List[List[Any]], values: List[Any], role: str, what: str
) -> Dict[Key, Any]:
    if len(desc_keys) != len(values):
        raise MigrationError(
            f"{role} snapshot has {len(values)} {what} but its descriptor "
            f"describes {len(desc_keys)} — descriptor/snapshot mismatch"
        )
    return {tuple(key): value for key, value in zip(desc_keys, values)}


def migrate_snapshot(
    snap: Mapping,
    desc_from: Mapping,
    desc_to: Mapping,
    boot_snap: Mapping,
    started_snap: Optional[Mapping] = None,
) -> Tuple[Dict[str, Any], MigrationReport]:
    """Map a snapshot of the ``desc_from`` program onto the ``desc_to``
    program.

    ``boot_snap`` must be a snapshot of a *freshly constructed* machine
    of the target program (taken before its first reaction): it supplies
    the value of every state slot that has no source in ``snap``, so the
    migrated machine is exactly "v1 state where the key survived, v2 boot
    state where it did not".

    ``started_snap`` (optional) is a snapshot of a fresh target machine
    *after* its boot instant.  When given, it overrides the default for
    slots whose whole **segment** is new in v2 — a ``run`` instance that
    did not exist in v1.  A branch grafted into an already-running
    parallel can never receive the ``go`` pulse the rest of the program
    consumed at boot; seeding it with post-boot state means it starts
    reacting at the next instant, matching HipHop.js's semantics for
    branches appended to a running machine.  (A new instance the edited
    program only *reaches* later re-receives ``go`` from its parent,
    which re-arms the same waits, so post-boot seeding is safe there
    too.)  Without ``started_snap``, new segments take pre-boot values
    and stay dormant until a full restart.

    Returns the migrated snapshot (restorable onto the target machine)
    and a :class:`MigrationReport`.  Raises :class:`MigrationError` when
    the descriptors do not actually describe their snapshots.
    """
    _check_descriptor(desc_from, "source")
    _check_descriptor(desc_to, "target")
    if snap.get("fingerprint") != desc_from.get("fingerprint"):
        raise MigrationError(
            f"snapshot fingerprint {snap.get('fingerprint')!r} does not "
            f"match source descriptor {desc_from.get('fingerprint')!r}"
        )
    if started_snap is not None and started_snap.get(
        "fingerprint"
    ) != desc_to.get("fingerprint"):
        raise MigrationError(
            f"started snapshot fingerprint "
            f"{started_snap.get('fingerprint')!r} does not match target "
            f"descriptor {desc_to.get('fingerprint')!r}"
        )
    if boot_snap.get("fingerprint") != desc_to.get("fingerprint"):
        raise MigrationError(
            f"boot snapshot fingerprint {boot_snap.get('fingerprint')!r} "
            f"does not match target descriptor "
            f"{desc_to.get('fingerprint')!r}"
        )

    report = MigrationReport()
    if desc_from.get("fingerprint") == desc_to.get("fingerprint"):
        # Same program: the snapshot already fits positionally.
        migrated = dict(snap)
        report.identical = True
        report.carried = [
            _render(tuple(key))
            for table in ("registers", "signals", "counters", "execs")
            for key in desc_to[table]
        ]
        return migrated, report

    arity_from = {
        tuple(key): arity
        for key, arity in zip(desc_from["counters"], desc_from["counter_arities"])
    }

    # Segment paths the source program had at all: a target key whose
    # path is absent here belongs to a brand-new instance.
    source_paths = {
        tuple(key)[0]
        for table in ("registers", "signals", "counters", "execs")
        for key in desc_from[table]
    }

    migrated: Dict[str, Any] = dict(boot_snap)
    migrated["module"] = boot_snap.get("module")
    migrated["terminated"] = snap.get("terminated", False)
    migrated["reaction_count"] = snap.get("reaction_count", 0)

    for table, what in (
        ("registers", "registers"),
        ("signals", "signals"),
        ("counters", "counters"),
        ("execs", "exec slots"),
    ):
        source = _table(desc_from[table], list(snap[table]), "source", what)
        defaults = _table(desc_to[table], list(boot_snap[table]), "target", what)
        started = (
            _table(desc_to[table], list(started_snap[table]), "target", what)
            if started_snap is not None
            else None
        )
        out: List[Any] = []
        for raw_key in desc_to[table]:
            key = tuple(raw_key)
            if key in source and (
                table != "counters"
                or arity_from.get(key)
                == desc_to["counter_arities"][len(out)]
            ):
                out.append(source.pop(key))
                report.carried.append(_render(key))
            else:
                # A counted-delay arity change also lands here: carrying
                # a count accumulated under different arming semantics
                # would silently mis-run the await, so it re-arms fresh
                # (the stale source value is reported as dropped below).
                if started is not None and key[0] not in source_paths:
                    out.append(started[key])
                else:
                    out.append(defaults[key])
                report.initialized.append(_render(key))
        report.dropped.extend(_render(key) for key in source)
        migrated[table] = out

    # host frame: dict keyed by variable name — names are already stable
    frame_from = dict(snap.get("frame", {}))
    frame_out = dict(boot_snap.get("frame", {}))
    for name in list(frame_out):
        if name in frame_from:
            frame_out[name] = frame_from.pop(name)
            report.carried.append(f"/:frame:{name}#0")
        else:
            report.initialized.append(f"/:frame:{name}#0")
    report.dropped.extend(f"/:frame:{name}#0" for name in frame_from)
    migrated["frame"] = frame_out

    # The migrated payload was assembled field by field, so the checksum
    # inherited from the boot snapshot no longer covers it: re-seal.
    from repro.runtime.machine import snapshot_checksum

    migrated["checksum"] = snapshot_checksum(migrated)
    return migrated, report
