"""End-to-end compilation driver: expand → validate → translate → optimize.

This is phase 2 and the front half of phase 3 of the paper's compiler; the
back half (the reactive machine wrapping the circuit simulator) lives in
:mod:`repro.runtime.machine`.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ArtifactError
from repro.lang import ast as A
from repro.lang import expr as E
from repro.lang.validate import validate_module
from repro.compiler.analysis import cycle_warnings
from repro.compiler.expand import expand_module
from repro.compiler.netlist import Circuit
from repro.compiler.optimize import optimize_circuit
from repro.compiler.translate import AUTO, translate_module


@dataclass
class CompileOptions:
    """Compilation knobs.

    :param optimize: run the net-level optimizer (constant folding, gate
        deduplication, dead-net sweeping).
    :param loop_duplication: reincarnation policy — ``auto`` duplicates
        loop bodies containing local signals/counters/execs, ``always`` and
        ``never`` force the choice (ablation A2 of DESIGN.md).
    :param check_cycles: run the static combinational-cycle analysis and
        collect warnings (the paper's compile-time deadlock warning).
    """

    optimize: bool = True
    loop_duplication: str = AUTO
    check_cycles: bool = True


@dataclass
class CompiledModule:
    """The output of compilation, consumed by the reactive machine."""

    module: A.Module
    circuit: Circuit
    #: frame variables (module/instance vars) with optional initializers
    frame_vars: List[Tuple[str, Optional[E.Expr]]] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    #: the expanded kernel body (useful for debugging and the interpreter)
    kernel: Optional[A.Stmt] = None
    #: lazily-built levelized evaluation plan (shared by every machine
    #: constructed from this compiled module)
    _plan: Optional[object] = field(default=None, repr=False, compare=False)
    #: lazily-built signal lookup tables (status-net → slot etc.), shared
    #: by every machine; see ``ReactiveMachine._signal_maps``
    _signal_maps: Optional[tuple] = field(default=None, repr=False, compare=False)
    #: lazily-built word-parallel plan (see ``repro.compiler.wordplan``),
    #: shared by every lockstep fleet constructed from this compiled
    #: module
    _word_plan: Optional[object] = field(default=None, repr=False, compare=False)
    #: backing store for :attr:`fingerprint`, computed on first access
    _fingerprint: Optional[str] = field(default=None, repr=False, compare=False)
    #: ``(modules, options)`` needed for the deferred fingerprint
    _fingerprint_inputs: Optional[tuple] = field(
        default=None, repr=False, compare=False
    )

    @property
    def fingerprint(self) -> str:
        """Structural compile fingerprint (the compile-cache key: sha256
        of the pretty-printed sources + embedded callable ids + options),
        used to stamp machine snapshots so they refuse to restore onto a
        structurally different program.  Unrenderable modules fall back to
        a circuit-shape digest.  Rendering the whole module table costs a
        nontrivial slice of a compile, so the digest is deferred until
        someone actually snapshots, persists, or caches."""
        if self._fingerprint is None:
            modules, options = self._fingerprint_inputs or (None, None)
            self._fingerprint = (
                _structural_key(self.module, modules, options)
                or _shape_fingerprint(self.circuit)
            )
        return self._fingerprint

    @fingerprint.setter
    def fingerprint(self, value: Optional[str]) -> None:
        self._fingerprint = value

    def stats(self):
        return self.circuit.stats()

    def evaluation_plan(self):
        """The circuit's compiled :class:`~repro.compiler.plan.EvalPlan`,
        built on first use and cached.  The circuit must not be mutated
        after the first call (compilation, including the optimizer, is
        already complete by construction)."""
        if self._plan is None:
            from repro.compiler.plan import build_plan

            self._plan = build_plan(self.circuit)
        return self._plan

    def word_plan(self):
        """The compiled word-parallel plan
        (:class:`~repro.compiler.wordplan.WordPlan`) over
        :meth:`evaluation_plan`, built on first use and cached; raises
        ``ValueError`` on impure (cyclic) plans, which are not
        word-eligible."""
        if self._word_plan is None:
            from repro.compiler.wordplan import build_word_plan

            self._word_plan = build_word_plan(self.evaluation_plan())
        return self._word_plan


def compile_module(
    module: A.Module,
    modules: Optional[A.ModuleTable] = None,
    options: Optional[CompileOptions] = None,
) -> CompiledModule:
    """Compile ``module`` to an augmented boolean circuit.

    ``modules`` resolves ``run`` statements by name.  Raises
    :class:`~repro.errors.ValidationError` /
    :class:`~repro.errors.LinkError` on bad programs; potential causality
    cycles are reported as warnings on the result.
    """
    options = options or CompileOptions()
    kernel, frame_vars = expand_module(module, modules)
    validate_module(module, kernel)
    circuit = translate_module(module, kernel, options.loop_duplication)
    circuit.frame_vars = list(frame_vars)
    if options.optimize:
        circuit = optimize_circuit(circuit)
    warnings = cycle_warnings(circuit) if options.check_cycles else []
    compiled = CompiledModule(module, circuit, list(frame_vars), warnings, kernel)
    compiled._fingerprint_inputs = (modules, options)
    return compiled


def _shape_fingerprint(circuit: Circuit) -> str:
    """Fallback snapshot fingerprint for unrenderable modules: a digest of
    the circuit shape (net kinds and fanin arities, interface, state
    slots).  Weaker than the structural key — it cannot see host callables
    — but still rejects restores across structurally different circuits."""
    digest = hashlib.sha256(b"circuit-shape\x00")
    digest.update(circuit.name.encode())
    for net in circuit.nets:
        digest.update(
            f"{getattr(net, 'kind', '?')}:{len(getattr(net, 'inputs', ()))};".encode()
        )
    for name, info in sorted(circuit.interface.items()):
        digest.update(f"\x00{name}:{info.direction}".encode())
    digest.update(
        f"\x00{len(circuit.signals)}\x00{len(circuit.execs)}"
        f"\x00{len(circuit.counters)}".encode()
    )
    for counter in circuit.counters:
        # counted-delay edits (await count change) alter runtime arming
        # semantics without changing net arities; the rendered count
        # expression keeps them from aliasing
        digest.update(b"\x00counter\x00")
        digest.update(counter.arity.encode())
    return "shape:" + digest.hexdigest()


# ---------------------------------------------------------------------------
# structural compile cache
# ---------------------------------------------------------------------------

#: cache capacity; beyond it the least-recently-used entry is evicted.
COMPILE_CACHE_SIZE = 256

_cache: "OrderedDict[str, CompiledModule]" = OrderedDict()
_cache_stats: Dict[str, int] = {"hits": 0, "misses": 0, "uncacheable": 0}


_MISSING = object()


@functools.cache
def _slot_names(cls: type) -> Tuple[str, ...]:
    """A ``repro.lang`` node type's slot names, in MRO order."""
    return tuple(
        name for klass in cls.__mro__ for name in getattr(klass, "__slots__", ())
    )


def _embedded_callables(module: A.Module) -> List[int]:
    """Identities of every host callable reachable from the module AST.

    Pretty-printing renders atoms, lambdas and ``async`` bodies opaquely
    (``/* python callable */``), so two modules that differ *only* in
    their host callables would otherwise hash alike — and the cache would
    hand one module's compiled payloads to the other.  The walk stays
    inside ``repro.lang`` node types (statements, expressions, the module
    itself) plus plain containers; everything else that is callable is
    recorded by ``id()``.  The cache holds strong references to its keys'
    modules — and therefore to these callables — so an id can not be
    recycled while its entry is alive.
    """
    out: List[int] = []
    seen = set()
    stack: List[Any] = [module]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (str, bytes, int, float, bool, type(None))):
            continue
        if isinstance(obj, (list, tuple)):
            stack.extend(reversed(obj))
        elif isinstance(obj, dict):
            for key, value in obj.items():
                stack.append(key)
                stack.append(value)
        elif type(obj).__module__.startswith("repro.lang"):
            if hasattr(obj, "__dict__"):
                stack.extend(reversed(list(vars(obj).values())))
            else:
                for name in _slot_names(type(obj)):
                    value = getattr(obj, name, _MISSING)
                    if value is not _MISSING:
                        stack.append(value)
        elif callable(obj):
            out.append(id(obj))
    return out


def _module_bytes(module: A.Module) -> bytes:
    """What the structural key hashes for one module: its pretty-printed
    source, then the ids of its embedded host callables."""
    from repro.lang.pretty import pretty_module

    parts = [pretty_module(module).encode()]
    parts.extend(
        ident.to_bytes(8, "little", signed=True)
        for ident in _embedded_callables(module)
    )
    return b"".join(parts)


def _structural_key(
    module: A.Module,
    modules: Optional[A.ModuleTable],
    options: Optional[CompileOptions],
) -> Optional[str]:
    """A content hash of everything compilation depends on.

    The key is the pretty-printed source of the module and of every
    module in the resolution table (``run`` targets), plus the identities
    of the embedded host callables (see :func:`_embedded_callables`) and
    the option knobs.  A root that is also in the table is rendered
    once.  Returns None when the module can not be rendered (treated as
    uncacheable).
    """
    digest = hashlib.sha256()
    try:
        root = _module_bytes(module)
        digest.update(root)
        if modules is not None:
            for name in modules.names():
                entry = modules.get(name)
                digest.update(b"\x00module\x00")
                digest.update(root if entry is module else _module_bytes(entry))
    except Exception:
        return None
    options = options or CompileOptions()
    # The trailing False is the value of a knob that no longer exists
    # (``run`` once compiled two ways).  Snapshots, journals and
    # artifact-store keys carry these digests, so the bytes stay as they
    # were for every program that compiled the default way.
    digest.update(
        f"\x00{options.optimize}\x00{options.loop_duplication}"
        f"\x00{options.check_cycles}\x00False".encode()
    )
    return digest.hexdigest()


def compile_cached(
    module: A.Module,
    modules: Optional[A.ModuleTable] = None,
    options: Optional[CompileOptions] = None,
) -> CompiledModule:
    """:func:`compile_module` through a structural-hash keyed LRU cache.

    N machines built from the same module share a single
    :class:`CompiledModule` — and therefore a single circuit and a single
    lazily-built :class:`~repro.compiler.plan.EvalPlan` — so constructing
    another machine costs O(per-machine state), not O(compile).  This is
    the module-level sharing behind :class:`~repro.runtime.fleet.MachineFleet`
    and the route every app builder and raw-module
    ``ReactiveMachine(...)`` construction takes.
    """
    key = _structural_key(module, modules, options)
    if key is None:
        _cache_stats["uncacheable"] += 1
        return compile_module(module, modules, options)
    cached = _cache.get(key)
    if cached is not None:
        _cache.move_to_end(key)
        _cache_stats["hits"] += 1
        return cached
    _cache_stats["misses"] += 1
    compiled = compile_module(module, modules, options)
    # the cache key IS the structural fingerprint; seed the lazy field so
    # snapshotting this module doesn't re-render the sources
    compiled.fingerprint = key
    _cache[key] = compiled
    if len(_cache) > COMPILE_CACHE_SIZE:
        _cache.popitem(last=False)
    return compiled


def clear_compile_cache() -> None:
    """Drop every cached compilation and zero the statistics."""
    _cache.clear()
    _cache_stats.update(hits=0, misses=0, uncacheable=0)


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss/uncacheable counters plus the current entry count."""
    return {**_cache_stats, "entries": len(_cache)}


# ---------------------------------------------------------------------------
# plan artifacts (process cold start)
# ---------------------------------------------------------------------------

#: version tag of the :func:`plan_artifact` payload layout.  Format 2
#: embeds the compiled circuit (closure-free; payload closures rebuilt
#: from payload specs on hydration) and the serialized evaluation plan, so
#: a new process cold-starts without ever touching the expander/translator.
#: Format-1 payloads (recompile-on-hydrate) are still readable.
PLAN_ARTIFACT_FORMAT = 2


def plan_artifact(
    module: A.Module,
    modules: Optional[A.ModuleTable] = None,
    options: Optional[CompileOptions] = None,
) -> bytes:
    """Serialize everything another process needs to rebuild this
    compiled module — the module AST, its resolution table, and the
    compile options — plus the structural fingerprint the rebuild must
    land on.

    A compiled :class:`CompiledModule` itself cannot cross a process
    boundary (its circuit embeds closures), but compilation is a pure
    function of the sources, so shipping the AST and recompiling through
    :func:`compile_cached` on the far side reproduces the *same*
    fingerprint — which is what makes snapshots and journals portable
    between processes.

    Only *portable* modules qualify: the AST must be renderable (the
    structural key exists) and must embed no host callables, because a
    callable's identity cannot survive pickling into another process —
    two processes would compute different fingerprints and refuse each
    other's snapshots.  Host callables passed by *name* through
    ``host_globals`` are fine (they are resolved per machine, not hashed
    into the fingerprint).  Raises
    :class:`~repro.errors.ArtifactError` for non-portable modules.
    """
    embedded = _embedded_callables(module)
    if modules is not None:
        for name in modules.names():
            embedded.extend(_embedded_callables(modules.get(name)))
    if embedded:
        raise ArtifactError(
            f"module {module.name!r} embeds {len(embedded)} host "
            "callable(s) in its AST; its compile fingerprint cannot be "
            "reproduced in another process.  Pass host functions by name "
            "via host_globals."
        )
    fingerprint = _structural_key(module, modules, options)
    if fingerprint is None:
        raise ArtifactError(
            f"module {module.name!r} is not renderable; cannot build a "
            "portable plan artifact for it"
        )
    payload = {
        "format": PLAN_ARTIFACT_FORMAT,
        "module": module,
        "modules": modules,
        "options": options,
        "fingerprint": fingerprint,
        "compiled": None,
    }
    # Embed the compiled circuit and evaluation plan so hydration is pure
    # deserialization (cold start).  Pickling them in the same payload as
    # the module shares the Net/AST objects through the pickle memo.  If
    # anything in the compiled form resists pickling, fall back to the
    # recompile-on-hydrate payload rather than failing: hydration handles
    # both.
    compiled = compile_cached(module, modules, options)
    if compiled.fingerprint == fingerprint:
        try:
            payload["compiled"] = {
                "circuit": compiled.circuit,
                "frame_vars": compiled.frame_vars,
                "warnings": compiled.warnings,
                "plan": compiled.evaluation_plan(),
            }
            return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            payload["compiled"] = None
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as err:
        raise ArtifactError(
            f"module {module.name!r} could not be pickled into a plan "
            f"artifact: {err}"
        ) from err


#: per-process cache of hydrated artifacts, keyed by fingerprint: every
#: machine built from one artifact shares its compiled circuit and eval
#: plan, and repeated hydrations of the same artifact are O(dict lookup)
_hydrate_cache: Dict[str, CompiledModule] = {}


def clear_hydrate_cache() -> None:
    _hydrate_cache.clear()


def hydrate_plan_artifact(data: bytes) -> CompiledModule:
    """Rebuild a :class:`CompiledModule` from a :func:`plan_artifact`
    payload.

    Format-2 payloads carry the compiled circuit and evaluation plan:
    hydration deserializes, rebuilds the payload closures from their
    payload specs and re-attaches the plan — the expander/translator/
    optimizer never run (the artifact cold-start path).  Format-1 (and
    format-2 payloads whose compiled form could not be pickled) recompile
    from the shipped AST through the structural compile cache and verify
    the recompiled fingerprint matches the one recorded at artifact
    creation — a mismatch means the two processes would disagree about
    snapshot compatibility, which must fail loudly here rather than
    corrupt a restore later.
    """
    try:
        payload = pickle.loads(data)
    except Exception as err:
        raise ArtifactError(f"plan artifact could not be unpickled: {err}") from err
    if not isinstance(payload, dict) or payload.get("format") not in (1, 2):
        raise ArtifactError(
            f"unsupported plan artifact format "
            f"{payload.get('format') if isinstance(payload, dict) else payload!r} "
            f"(this runtime reads formats 1..{PLAN_ARTIFACT_FORMAT})"
        )
    expected = payload["fingerprint"]
    cached = _hydrate_cache.get(expected)
    if cached is not None:
        return cached

    embedded = payload.get("compiled") if payload["format"] >= 2 else None
    if embedded is not None:
        from repro.compiler.translate import rebuild_payloads

        circuit = rebuild_payloads(embedded["circuit"])
        compiled = CompiledModule(
            payload["module"],
            circuit,
            list(embedded["frame_vars"]),
            list(embedded["warnings"]),
            None,
        )
        compiled.fingerprint = expected
        plan = embedded.get("plan")
        if plan is not None:
            compiled._plan = plan.rebind(circuit)
    else:
        compiled = compile_cached(
            payload["module"], payload["modules"], payload["options"]
        )
        if compiled.fingerprint != expected:
            raise ArtifactError(
                f"plan artifact fingerprint mismatch: artifact recorded "
                f"{expected!r}, hydration produced {compiled.fingerprint!r} — "
                "the module did not survive the process boundary structurally "
                "intact"
            )
    _hydrate_cache[expected] = compiled
    return compiled


class ArtifactStore:
    """Fingerprint-keyed on-disk store of plan artifacts.

    One entry per compiled program variant (module + resolution table +
    options), written atomically (temp file + ``os.replace``) so
    concurrent processes can share a store directory.  ``load`` goes
    through the per-process hydrate cache, so a process hosting many
    machines deserializes each artifact at most once.
    """

    SUFFIX = ".plan"

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.root, fingerprint + self.SUFFIX)

    def put(
        self,
        module: A.Module,
        modules: Optional[A.ModuleTable] = None,
        options: Optional[CompileOptions] = None,
    ) -> str:
        """Compile (through the caches) and persist; returns the
        fingerprint key.  Idempotent: an existing entry is kept."""
        fingerprint = _structural_key(module, modules, options)
        if fingerprint is not None and os.path.exists(self._path(fingerprint)):
            return fingerprint
        data = plan_artifact(module, modules, options)  # raises for non-portable
        path = self._path(fingerprint)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
        return fingerprint

    def get(self, fingerprint: str) -> bytes:
        try:
            with open(self._path(fingerprint), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            raise ArtifactError(
                f"artifact store {self.root!r} has no entry {fingerprint!r}"
            ) from None

    def load(self, fingerprint: str) -> CompiledModule:
        """Hydrate the stored artifact (cached per process)."""
        cached = _hydrate_cache.get(fingerprint)
        if cached is not None:
            return cached
        return hydrate_plan_artifact(self.get(fingerprint))

    def __contains__(self, fingerprint: str) -> bool:
        return os.path.exists(self._path(fingerprint))

    def fingerprints(self) -> List[str]:
        return sorted(
            name[: -len(self.SUFFIX)]
            for name in os.listdir(self.root)
            if name.endswith(self.SUFFIX)
        )
