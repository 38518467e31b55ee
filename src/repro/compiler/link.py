"""Sub-circuit compilation and linked instantiation.

Classic Esterel compilers (and HipHop's) re-translate a module's body at
every ``run`` site, so a program with N instantiations of M pays
O(N·|M|) compile time.  This module compiles each linkable module body
*once* into a relocatable **template** — a circuit with four port inputs
standing for the instantiation site's GO/RES/SUSP/KILL wires and the
interface signals left unwired — then stamps copies of the template into
caller circuits by net-index offsetting.  A ``run M(...)`` becomes
O(interface + |M| net copies) instead of a full re-translation,
re-optimization and re-analysis of M's body.

Relocation relies on two properties of the netlist IR:

* every EXPR/ACTION payload is described by a plain-data *relink spec*
  (``net.spec``) whose slot numbers can be remapped before the closure is
  rebuilt with :func:`repro.compiler.translate.build_payload`;
* signal status nets are never gate fanins — readers reach them through
  ``deps`` and slot-based runtime lookup only — so splicing an instance's
  emitters into the caller's status net is a pure ``or_into``.

Templates are optimized and cycle-checked once at build time; the final
linked circuit needs only a dead-net sweep
(:func:`repro.compiler.optimize.compact_circuit`).  Pending data
dependencies (emit-before-read microscheduling) are deliberately *not*
finalized inside the template: they are carried as metadata and resolved
in the caller, whose writer sets are only complete after all instances
are linked.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import CompileError
from repro.lang import ast as A
from repro.compiler.netlist import (
    REG,
    Circuit,
    ExecInfo,
    Net,
    SignalInfo,
    StateSegment,
    lit,
)
from repro.compiler.translate import Ctx, Ifc, Translator, build_payload

__all__ = [
    "ModuleTemplate",
    "get_template",
    "link_instance",
    "link_cache_stats",
    "clear_link_cache",
]


class ModuleTemplate:
    """One module body compiled to a relocatable sub-circuit."""

    __slots__ = (
        "module",
        "circuit",
        "ports",
        "sel_root",
        "k_roots",
        "n_iface",
        "registers",
        "pending_reads",
        "exec_incarnations",
        "warnings",
        "const0_id",
        "const1_id",
        "rank",
        "copy_plan",
    )

    def __init__(self, module: A.Module, circuit: Circuit):
        self.module = module
        self.circuit = circuit
        #: (go, res, susp, kill) port INPUT nets
        self.ports: Tuple[Net, Net, Net, Net] = None  # type: ignore[assignment]
        self.sel_root: Net = None  # type: ignore[assignment]
        self.k_roots: Dict[int, Net] = {}
        self.n_iface = len(module.interface)
        #: REG nets in post-optimization circuit order (state layout)
        self.registers: List[Net] = []
        #: unresolved (net, template SignalInfo, wants_value) reads
        self.pending_reads: List[Tuple[Net, SignalInfo, bool]] = []
        #: exec AST uid -> [(start_action, kill_action or None)]
        self.exec_incarnations: Dict[int, List[Tuple[Net, Optional[Net]]]] = {}
        #: causality warnings, already prefixed with the module name
        self.warnings: List[str] = []
        self.const0_id = -1
        self.const1_id = -1
        #: template id -> dense copy index, or -1-k for the k-th special
        #: wire (go, res, susp, kill, const0, const1)
        self.rank: List[int] = []
        #: (plan_pure, plan_rest, flat_pin, flat_pdeps, n_copied) — see
        #: _build_copy_plan
        self.copy_plan: tuple = ([], [], [], [], 0)


def _build_template(
    module: A.Module,
    body: A.Stmt,
    loop_duplication: str,
    optimize: bool,
    check_cycles: bool,
) -> ModuleTemplate:
    circ = Circuit(f"{module.name}<template>")
    tr = Translator(circ, loop_duplication,
                    template_options=(optimize, check_cycles))

    go = circ.input_net("port.go")
    res = circ.input_net("port.res")
    susp = circ.input_net("port.susp")
    kill = circ.input_net("port.kill")

    # Interface signals get a status OR collecting template-side emitters
    # but no machine input net: at link time the status is spliced into
    # the caller's signal and readers are re-pointed through the slot map.
    for decl in module.interface:
        info = tr.declare_signal(decl, bound_name=decl.name)
        circ.interface[decl.name] = info
        tr.bind(decl.name, info)

    ifc = tr.translate(body, Ctx(lit(go), lit(res), lit(susp), lit(kill)))
    bad = [code for code in ifc.ks if code >= 2]
    if bad:
        # _linkable_facts guarantees a closed body; defensive only
        raise CompileError(
            f"module {module.name}: free trap codes {bad} in linked body"
        )

    # Materialize the instance's selection/completion wires as real,
    # protected nets so the optimizer neither aliases nor sweeps them.
    sel_root = circ.gate_or([ifc.sel], "link.sel")
    k_roots = {
        code: circ.gate_or([wire], f"link.k{code}")
        for code, wire in ifc.ks.items()
    }
    circ.extra_protected = [go, res, susp, kill, sel_root, *k_roots.values()]

    # NOTE: no tr.finalize() — pending reads and exec-incarnation deps are
    # resolved in the caller, where the bound signals' writer sets live.
    if optimize:
        from repro.compiler.optimize import optimize_circuit

        optimize_circuit(circ)

    warnings: List[str] = []
    if check_cycles:
        from repro.compiler.analysis import cycle_warnings

        warnings = [f"{module.name}: {w}" for w in cycle_warnings(circ)]
        # nested templates' warnings were aggregated during translation;
        # keep them too (they carry the inner module prefix)
        warnings.extend(circ.link_warnings)
    else:
        warnings = list(circ.link_warnings)

    # The optimizer can sweep reader nets whose enable folded to constant
    # false; drop their pending reads.  Surviving Net objects keep their
    # (renumbered) ids, so later base-offsetting stays valid.
    survivors = {id(net) for net in circ.nets}
    template = ModuleTemplate(module, circ)
    template.ports = (go, res, susp, kill)
    template.sel_root = sel_root
    template.k_roots = k_roots
    template.registers = [net for net in circ.nets if net.kind == REG]
    template.pending_reads = [
        entry for entry in tr._pending_reads if id(entry[0]) in survivors
    ]
    for uid, incarnations in tr._exec_incarnations.items():
        kept = [
            (start, kill_act if (kill_act is not None
                                 and id(kill_act) in survivors) else None)
            for start, kill_act in incarnations
            if id(start) in survivors
        ]
        if kept:
            template.exec_incarnations[uid] = kept
    template.warnings = warnings
    template.const0_id = circ.const0().id
    template.const1_id = circ.const1().id
    _build_copy_plan(template)
    return template


def _build_copy_plan(template: ModuleTemplate) -> None:
    """Precompute everything about a stamp that does not depend on the
    instantiation site.

    Copied-net ids are ``base + rank``; only ``base`` and the six special
    wires (the four ctx ports and the two constants) vary per instance.
    Every literal is pre-ranked here (negative ranks mark specials), and
    the nets split into two loops: the overwhelming majority — pure fanin,
    no payload spec — take a branch-free fast path where the per-instance
    work is one base addition per literal; the rest (nets reading a ctx
    wire or carrying a relink spec) go through the general path.
    """
    circ = template.circuit
    ports = template.ports
    special_ix = {
        ports[0].id: 0,
        ports[1].id: 1,
        ports[2].id: 2,
        ports[3].id: 3,
        template.const0_id: 4,
        template.const1_id: 5,
    }
    rank = [0] * len(circ.nets)
    nxt = 0
    for net in circ.nets:
        ix = special_ix.get(net.id)
        if ix is not None:
            rank[net.id] = -1 - ix
        else:
            rank[net.id] = nxt
            nxt += 1

    # pure nets don't carry their literal lists: all pure literals are
    # concatenated into two flat arrays, shifted once per instance in a
    # single comprehension, and handed out by slicing
    flat_pin: List[Tuple[int, bool]] = []
    flat_pdeps: List[int] = []
    plan_pure: List[tuple] = []
    plan_rest: List[tuple] = []
    for net in circ.nets:
        if net.id in special_ix:
            continue
        pin = tuple((rank[s], n) for s, n in net.inputs)
        pdeps = tuple(rank[d] for d in net.deps)
        pure = (
            net.spec is None
            and all(r >= 0 for r, _ in pin)
            and all(r >= 0 for r in pdeps)
        )
        if pure:
            i0, j0 = len(flat_pin), len(flat_pdeps)
            flat_pin.extend(pin)
            flat_pdeps.extend(pdeps)
            plan_pure.append((
                rank[net.id], net.kind, net.label, net.loc, net.init,
                i0, len(flat_pin), j0, len(flat_pdeps),
            ))
        else:
            plan_rest.append((
                rank[net.id], net.kind, net.label, net.loc, net.init,
                pin, pdeps, net.spec,
            ))
    template.rank = rank
    template.copy_plan = (plan_pure, plan_rest, flat_pin, flat_pdeps, nxt)


# ---------------------------------------------------------------------------
# template cache
# ---------------------------------------------------------------------------

#: (id(module), loop_duplication, optimize, check_cycles) -> ModuleTemplate.
#: The template pins the module object, so id() cannot be recycled while
#: the entry lives; in-place mutation of a module body after compiling is
#: not detected (call clear_link_cache() after editing module objects).
_TEMPLATE_CACHE: Dict[tuple, ModuleTemplate] = {}
_CACHE_STATS = {"hits": 0, "misses": 0}


def get_template(
    module: A.Module,
    body: A.Stmt,
    loop_duplication: str,
    optimize: bool = True,
    check_cycles: bool = True,
) -> ModuleTemplate:
    """The compiled sub-circuit template for ``module``, built on first use.

    ``body`` is the expanded callee-side kernel body (from
    ``Expander._linkable_facts``); bodies from different expander
    instances are alpha-equivalent, so the first one seen wins.
    """
    key = (id(module), loop_duplication, bool(optimize), bool(check_cycles))
    entry = _TEMPLATE_CACHE.get(key)
    if entry is not None and entry.module is module:
        _CACHE_STATS["hits"] += 1
        return entry
    _CACHE_STATS["misses"] += 1
    entry = _build_template(module, body, loop_duplication, optimize, check_cycles)
    _TEMPLATE_CACHE[key] = entry
    return entry


def link_cache_stats() -> Dict[str, int]:
    return dict(_CACHE_STATS, entries=len(_TEMPLATE_CACHE))


def clear_link_cache() -> None:
    _TEMPLATE_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


# ---------------------------------------------------------------------------
# linking
# ---------------------------------------------------------------------------


def _remap_scope(
    scope: Dict[str, int], sigslot: Dict[int, int], tables: Dict[int, Dict[str, int]]
) -> Dict[str, int]:
    # one remapped table per template table, so an instance's specs share
    # their scope tables exactly as the template's do
    table = tables.get(id(scope))
    if table is None:
        table = tables[id(scope)] = {name: sigslot[slot] for name, slot in scope.items()}
    return table


def remap_spec(
    spec: tuple,
    sigslot: Dict[int, int],
    counters: Dict[int, int],
    execs: Dict[int, int],
    tables: Dict[int, Dict[str, int]],
) -> tuple:
    """Relocate a relink spec's slot numbers into the caller's tables.
    ``tables`` memoizes the remapped scope tables of one instance."""
    kind = spec[0]
    if kind == "expr":
        return ("expr", spec[1], _remap_scope(spec[2], sigslot, tables))
    if kind in ("arm", "ctest"):
        return (kind, spec[1], _remap_scope(spec[2], sigslot, tables), counters[spec[3]])
    if kind in ("emitval", "siginit"):
        return (kind, spec[1], _remap_scope(spec[2], sigslot, tables), sigslot[spec[3]])
    if kind == "atom":
        return ("atom", spec[1], _remap_scope(spec[2], sigslot, tables))
    if kind == "exec_start":
        return ("exec_start", execs[spec[1]], _remap_scope(spec[2], sigslot, tables))
    if kind in ("exec_finish", "exec_kill", "exec_susp", "exec_resume"):
        return (kind, execs[spec[1]])
    raise CompileError(f"cannot relocate payload spec kind {kind!r}")


def link_instance(tr: Translator, stmt: "A.LinkedRun", ctx: Ctx) -> Ifc:
    """Stamp one instance of ``stmt.module``'s template into ``tr.circ``.

    Returns the instance's statement interface (SEL and completion wires)
    exactly as if the body had been translated inline.
    """
    module = stmt.module
    if tr.template_options is not None:
        optimize, check_cycles = tr.template_options
    else:
        optimize, check_cycles = True, True
    template = get_template(module, stmt.body, tr.loop_duplication,
                            optimize, check_cycles)
    caller = tr.circ
    tmpl_circ = template.circuit
    base = len(caller.nets)

    # -- slot allocation ----------------------------------------------------
    # Template signal slots 0..n_iface-1 are the interface in declaration
    # order; they map onto the caller's bound signals.  Locals, counters
    # and execs get fresh caller slots in template order, preserving the
    # relative creation order inlining would have produced.
    sigslot: Dict[int, int] = {}
    local_infos: List[Tuple[SignalInfo, SignalInfo]] = []  # (template, caller)
    for idx, t_info in enumerate(tmpl_circ.signals):
        if idx < template.n_iface:
            caller_name = stmt.bindings[module.interface[idx].name]
            c_info = tr.sigmap.get(caller_name)
            if c_info is None:
                raise CompileError(
                    f"run {module.name}: unknown signal {caller_name!r}"
                )
            sigslot[idx] = c_info.slot
        else:
            c_info = caller.new_signal(
                t_info.name, t_info.direction, t_info.init, t_info.combine
            )
            c_info.bound_name = t_info.bound_name
            sigslot[idx] = c_info.slot
            local_infos.append((t_info, c_info))

    counter_map: Dict[int, int] = {}
    for t_cnt in tmpl_circ.counters:
        counter_map[t_cnt.slot] = caller.new_counter(t_cnt.loc, t_cnt.arity).slot

    exec_map: Dict[int, int] = {}
    new_execs: List[Tuple[ExecInfo, ExecInfo]] = []  # (template, caller)
    for t_exec in tmpl_circ.execs:
        sig = None
        if t_exec.signal is not None:
            sig = caller.signals[sigslot[t_exec.signal.slot]]
        c_exec = caller.new_exec(t_exec.name, sig, t_exec.loc)
        c_exec.stmt = t_exec.stmt
        exec_map[t_exec.slot] = c_exec.slot
        new_execs.append((t_exec, c_exec))

    # -- net copying --------------------------------------------------------
    # The four ports and the two constants are not copied at all: every
    # literal or dep through them is remapped onto the instantiation
    # site's wires (with the port literal's own negation XOR'd in), so
    # the linked circuit carries no per-instance debris and needs no
    # final sweep.  The template's precomputed copy plan ranks every
    # site-invariant literal ahead of time, so the per-net work here is
    # one base addition per literal — this loop IS the cost of an
    # instantiation.
    t_const0, t_const1 = template.const0_id, template.const1_id
    spec_lits = (ctx.go, ctx.res, ctx.susp, ctx.kill, tr.FALSE, tr.TRUE)
    rank = template.rank
    plan_pure, plan_rest, flat_pin, flat_pdeps, n_copied = template.copy_plan

    # the two loops below fill out of id order, so preallocate and
    # index-assign to keep the nets[i].id == i invariant
    caller_nets = caller.nets
    caller_nets.extend([None] * n_copied)
    new_net = Net.__new__
    shifted_in = [(base + s, n) for s, n in flat_pin]
    shifted_dep = [base + d for d in flat_pdeps]
    tables: Dict[int, Dict[str, int]] = {}
    for r, kind, label, loc, init, i0, i1, j0, j1 in plan_pure:
        net = new_net(Net)
        net.id = r = base + r
        net.kind = kind
        net.label = label
        net.loc = loc
        net.init = init
        net.payload = None
        net.expr_info = None
        net.spec = None
        net.inputs = shifted_in[i0:i1]
        net.deps = shifted_dep[j0:j1]
        caller_nets[r] = net

    for r, kind, label, loc, init, pin, pdeps, spec in plan_rest:
        net = new_net(Net)
        net.id = r = base + r
        net.kind = kind
        net.label = label
        net.loc = loc
        net.init = init
        net.payload = None
        net.expr_info = None
        ins = []
        for rs, n in pin:
            if rs >= 0:
                ins.append((base + rs, n))
            else:
                cid, cneg = spec_lits[-1 - rs]
                ins.append((cid, cneg ^ n))
        net.inputs = ins
        net.deps = [
            base + rd if rd >= 0 else spec_lits[-1 - rd][0] for rd in pdeps
        ]
        if spec is not None:
            spec = remap_spec(spec, sigslot, counter_map, exec_map, tables)
            net.payload = build_payload(spec)
            if spec[0] == "expr":
                net.expr_info = (spec[1], spec[2])
        net.spec = spec
        caller_nets[r] = net

    def copy_of(t_net: Net) -> Net:
        # only ever called for copied nets (status/action/root nets are
        # never ports or constants), so rank is non-negative here
        return caller_nets[base + rank[t_net.id]]

    def remap_writers(writers: List[int]) -> List[int]:
        # the optimizer resolves folded-away writer actions to the
        # constant-0 net; those entries never fire and are dropped here
        return [base + rank[w] for w in writers
                if w not in (t_const0, t_const1)]

    # -- interface splicing -------------------------------------------------
    for idx in range(template.n_iface):
        t_info = tmpl_circ.signals[idx]
        c_info = caller.signals[sigslot[idx]]
        status_copy = copy_of(t_info.status_net)
        if status_copy.inputs:
            # instance-side emitters feed the caller's status wire
            caller.or_into(c_info.status_net, lit(status_copy))
        c_info.writers.extend(remap_writers(t_info.writers))
        c_info.init_writers.extend(remap_writers(t_info.init_writers))

    for t_info, c_info in local_infos:
        c_info.status_net = copy_of(t_info.status_net)
        c_info.writers = remap_writers(t_info.writers)
        c_info.init_writers = remap_writers(t_info.init_writers)

    for t_exec, c_exec in new_execs:
        c_exec.done_net = copy_of(t_exec.done_net)
        for attr in ("start_action", "kill_action",
                     "suspend_action", "resume_action"):
            t_action = getattr(t_exec, attr)
            if t_action is not None:
                setattr(c_exec, attr, copy_of(t_action))

    # -- deferred microscheduling ------------------------------------------
    # Reader deps resolve against caller writer sets in the caller's
    # finalize(); incarnation entries are keyed by the exec AST node uid,
    # which rename_signals preserves, so instances of one module interact
    # exactly as their inlined copies would.
    for t_net, t_info, wants_value in template.pending_reads:
        c_info = caller.signals[sigslot[t_info.slot]]
        tr._pending_reads.append((copy_of(t_net), c_info, wants_value))
    for uid, incarnations in template.exec_incarnations.items():
        entries = tr._exec_incarnations.setdefault(uid, [])
        for start, kill_action in incarnations:
            entries.append((
                copy_of(start),
                None if kill_action is None else copy_of(kill_action),
            ))

    # -- state segments -----------------------------------------------------
    seq = tr._link_seq.get(module.name, 0)
    tr._link_seq[module.name] = seq + 1
    path = f"/{module.name}#{seq}"

    inner_regs = set()
    inner_sigs = set()
    inner_counters = set()
    inner_execs = set()
    inner_segments: List[StateSegment] = []
    for t_seg in tmpl_circ.segments:
        seg = StateSegment(path + t_seg.path, t_seg.module)
        seg.registers = [copy_of(reg) for reg in t_seg.registers]
        seg.signal_slots = [sigslot[s] for s in t_seg.signal_slots]
        seg.counter_slots = [counter_map[s] for s in t_seg.counter_slots]
        seg.exec_slots = [exec_map[s] for s in t_seg.exec_slots]
        inner_regs.update(id(reg) for reg in t_seg.registers)
        inner_sigs.update(t_seg.signal_slots)
        inner_counters.update(t_seg.counter_slots)
        inner_execs.update(t_seg.exec_slots)
        inner_segments.append(seg)

    root = StateSegment(path, module.name)
    root.registers = [
        copy_of(reg) for reg in template.registers if id(reg) not in inner_regs
    ]
    root.signal_slots = [
        sigslot[idx] for idx in range(template.n_iface, len(tmpl_circ.signals))
        if idx not in inner_sigs
    ]
    root.counter_slots = [
        counter_map[t_cnt.slot] for t_cnt in tmpl_circ.counters
        if t_cnt.slot not in inner_counters
    ]
    root.exec_slots = [
        exec_map[t_exec.slot] for t_exec in tmpl_circ.execs
        if t_exec.slot not in inner_execs
    ]
    caller.segments.append(root)
    caller.segments.extend(inner_segments)

    # -- warnings -----------------------------------------------------------
    cache_key = id(template)
    if template.warnings and cache_key not in tr._warned_templates:
        tr._warned_templates.add(cache_key)
        caller.link_warnings.extend(template.warnings)

    sel = (base + rank[template.sel_root.id], False)
    ks = {code: (base + rank[net.id], False)
          for code, net in template.k_roots.items()}
    return Ifc(sel, ks)
