"""Net-level circuit optimizer.

Three cooperating passes, iterated to a fixpoint and followed by a
dead-net sweep:

* **constant folding / aliasing** — OR/AND gates with constant fanins are
  simplified; single-fanin gates become aliases of their source (possibly
  negated);
* **gate deduplication** — structurally identical gates are merged (common
  subexpression elimination at the net level);
* **dead-net sweeping** — nets that no live net, register, action or
  machine-interface table references are removed and ids compacted.

Nets the runtime addresses directly (signal status nets, machine input
nets, exec wires, the root completion wires) are *protected*: they absorb
simplifications of their fanins but are never replaced, so the machine's
tables stay valid.

The optimizer exists both for performance and as an ablation axis
(DESIGN.md experiment A1): the paper's net counts are for its production
compiler, so we report optimized and unoptimized sizes.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.compiler.netlist import ACTION, AND, EXPR, OR, Circuit, Literal, Net

_MAX_ROUNDS = 12


def _protected_ids(circuit: Circuit) -> Set[int]:
    protected: Set[int] = set()
    for attr in ("k0_net", "k1_net", "sel_net", "go_net"):
        net = getattr(circuit, attr)
        if net is not None:
            protected.add(net.id)
    for info in circuit.signals:
        if info.status_net is not None:
            protected.add(info.status_net.id)
        if info.input_net is not None:
            protected.add(info.input_net.id)
    for info in circuit.execs:
        if info.done_net is not None:
            protected.add(info.done_net.id)
        for action in (info.start_action, info.kill_action,
                       info.suspend_action, info.resume_action):
            if action is not None:
                protected.add(action.id)
    return protected


class _Rewriter:
    """Union-find-ish literal replacement map: net id → literal."""

    def __init__(self) -> None:
        self.map: Dict[int, Literal] = {}

    def resolve(self, literal: Literal) -> Literal:
        net_id, neg = literal
        seen = set()
        while net_id in self.map and net_id not in seen:
            seen.add(net_id)
            target, target_neg = self.map[net_id]
            net_id, neg = target, neg ^ target_neg
        return (net_id, neg)

    def alias(self, net_id: int, target: Literal) -> None:
        resolved = self.resolve(target)
        if resolved[0] != net_id:
            self.map[net_id] = resolved

    def __bool__(self) -> bool:
        return bool(self.map)


def _fold_gates(circuit: Circuit, protected: Set[int],
                aliased: Set[int] = frozenset()) -> _Rewriter:
    """One round of constant folding + single-fanin aliasing.

    ``aliased`` holds net ids bypassed in earlier rounds; they stay in
    ``circuit.nets`` until the final sweep but are dead, so re-aliasing
    them would make every round look like progress and the fixpoint loop
    would always run to ``_MAX_ROUNDS``.
    """
    rewriter = _Rewriter()
    const0 = circuit.const0().id
    const1 = circuit.const1().id

    def is_true(literal: Literal) -> bool:
        return (literal[0] == const1 and not literal[1]) or (
            literal[0] == const0 and literal[1]
        )

    def is_false(literal: Literal) -> bool:
        return (literal[0] == const0 and not literal[1]) or (
            literal[0] == const1 and literal[1]
        )

    for net in circuit.nets:
        if net.kind not in (AND, OR) or net.id in aliased:
            continue
        inputs = [rewriter.resolve(li) for li in net.inputs]
        if net.kind == OR:
            if any(is_true(li) for li in inputs):
                inputs = [(const1, False)]
            else:
                inputs = [li for li in inputs if not is_false(li)]
        else:
            if any(is_false(li) for li in inputs):
                inputs = [(const0, False)]
            else:
                inputs = [li for li in inputs if not is_true(li)]
        # dedupe identical fanins; detect x OR !x (leave it: it is not
        # constant under constructive semantics)
        seen: Set[Literal] = set()
        unique: List[Literal] = []
        for li in inputs:
            if li not in seen:
                seen.add(li)
                unique.append(li)
        net.inputs = unique
        if net.id in protected or net.id in (const0, const1):
            continue
        if not unique:
            rewriter.alias(net.id, (const0 if net.kind == OR else const1, False))
        elif len(unique) == 1:
            if is_true(unique[0]):
                rewriter.alias(net.id, (const1, False))
            elif is_false(unique[0]):
                rewriter.alias(net.id, (const0, False))
            else:
                rewriter.alias(net.id, unique[0])
    return rewriter


def _dedup_gates(circuit: Circuit, protected: Set[int],
                 aliased: Set[int] = frozenset()) -> _Rewriter:
    rewriter = _Rewriter()
    table: Dict[Tuple, int] = {}
    for net in circuit.nets:
        if net.kind not in (AND, OR) or net.id in protected or net.id in aliased:
            continue
        key = (net.kind, tuple(sorted(net.inputs)))
        winner = table.get(key)
        if winner is None:
            table[key] = net.id
        else:
            rewriter.alias(net.id, (winner, False))
    return rewriter


def _apply(circuit: Circuit, rewriter: _Rewriter, protected: Set[int]) -> None:
    if not rewriter:
        return
    const0 = circuit.const0().id
    for net in circuit.nets:
        net.inputs = [rewriter.resolve(li) for li in net.inputs]
        if net.kind in (EXPR, ACTION):
            # an action/expr net whose enable folded to constant-false can
            # never fire: rewire it so the sweep can drop it
            enable = net.inputs[0]
            if enable[0] == const0 and not enable[1] and net.id not in protected:
                rewriter.alias(net.id, (const0, False))
        new_deps: List[int] = []
        for dep in net.deps:
            resolved = rewriter.resolve((dep, False))[0]
            if resolved not in new_deps and resolved != net.id:
                new_deps.append(resolved)
        net.deps = new_deps
    for info in circuit.signals:
        info.writers = sorted(
            {rewriter.resolve((w, False))[0] for w in info.writers}
        )
        info.init_writers = sorted(
            {rewriter.resolve((w, False))[0] for w in info.init_writers}
        )


def optimize_circuit(circuit: Circuit) -> Circuit:
    """Optimize ``circuit`` in place (and return it).

    A round counts as progress only when it aliased a net that no
    earlier round had bypassed: already-bypassed gates linger in
    ``circuit.nets`` until the final sweep, and re-deriving the same
    aliases from them every round would defeat the fixpoint test.
    """
    protected = _protected_ids(circuit)
    aliased: Set[int] = set()
    for _ in range(_MAX_ROUNDS):
        changed = False
        for pass_fn in (_fold_gates, _dedup_gates):
            rewriter = pass_fn(circuit, protected, aliased)
            if rewriter:
                _apply(circuit, rewriter, protected)
                fresh = set(rewriter.map) - aliased
                if fresh:
                    aliased |= fresh
                    changed = True
        if not changed:
            break
    _compact(circuit)
    return circuit


def _compact(circuit: Circuit) -> None:
    """Drop dead nets and renumber."""
    const0 = circuit.const0().id
    protected = _protected_ids(circuit)
    live: Set[int] = set(protected)
    live.add(const0)
    live.add(circuit.const1().id)
    for net in circuit.nets:
        if net.kind == ACTION:
            enable = net.inputs[0]
            if enable[0] == const0 and not enable[1]:
                continue
            live.add(net.id)
    stack = list(live)
    while stack:
        net = circuit.nets[stack.pop()]
        for source, _neg in net.inputs:
            if source not in live:
                live.add(source)
                stack.append(source)
        for dep in net.deps:
            if dep not in live:
                live.add(dep)
                stack.append(dep)

    if len(live) == len(circuit.nets):
        return

    remap: Dict[int, int] = {}
    survivors: List[Net] = []
    for net in circuit.nets:
        if net.id in live:
            remap[net.id] = len(survivors)
            survivors.append(net)
    for segment in circuit.segments:
        segment.registers = [reg for reg in segment.registers if reg.id in live]
    for net in survivors:
        net.inputs = [(remap[src], neg) for src, neg in net.inputs]
        net.deps = [remap[d] for d in net.deps if d in remap]
    for net in survivors:
        net.id = remap[net.id]
    circuit.nets = survivors
    # `_const0`/`_const1`, interface/exec tables and the root wires hold
    # Net *objects*, which survive with their ids updated in place.
    for info in circuit.signals:
        info.writers = [remap[w] for w in info.writers if w in remap]
        info.init_writers = [remap[w] for w in info.init_writers if w in remap]
