"""Static circuit analyses.

The main one is combinational-cycle detection: the paper notes (section
2.2.2) that the compiler emits *a warning if a dynamic deadlock is
possible*.  A synchronous deadlock can only arise from a cycle through
combinational nets (gates, expression and action nets); registers break
cycles.  Some cycles are harmless (they stabilize for every input — the
constructive programs of section 5.2), so a cycle is a warning, not an
error; actual deadlocks are detected at run time by the scheduler.

The second analysis is *levelization* (:func:`levelize`): a topological
sort of the augmented graph — boolean fanin edges *and* the EXPR/ACTION
data-dependency edges together — into the condensation of its strongly
connected components, with a longest-path level per net.  Statically
acyclic regions need no fixpoint iteration at all: they can be evaluated
as straight-line code, one net per statement, in level order (sorted-
equation evaluation in the sense of Gaffé/Ressouche/Roy's modular
Esterel compilation).  The levelization feeds the compiled evaluation
plans of :mod:`repro.compiler.plan`.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.compiler.netlist import INPUT, REG, Circuit, Net


def combinational_edges(circuit: Circuit) -> Dict[int, List[int]]:
    """Adjacency: edges source → consumer through combinational nets."""
    edges: Dict[int, List[int]] = {net.id: [] for net in circuit.nets}
    for net in circuit.nets:
        if net.kind in (REG, INPUT):
            continue  # outputs known at reaction start; no incoming edges
        for source, _neg in net.inputs:
            edges[source].append(net.id)
        for dep in net.deps:
            edges[dep].append(net.id)
    return edges


def strongly_connected_components(circuit: Circuit) -> List[List[int]]:
    """Iterative Tarjan over the combinational graph."""
    edges = combinational_edges(circuit)
    index_of: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = [0]

    for root in edges:
        if root in index_of:
            continue
        work = [(root, iter(edges[root]))]
        index_of[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


def find_cycles(circuit: Circuit) -> List[List[Net]]:
    """Return combinational cycles (SCCs of size > 1, or self-loops)."""
    cycles: List[List[Net]] = []
    for component in strongly_connected_components(circuit):
        if len(component) > 1:
            cycles.append([circuit.nets[i] for i in component])
        else:
            net = circuit.nets[component[0]]
            if any(src == net.id for src, _ in net.inputs) or net.id in net.deps:
                cycles.append([net])
    return cycles


class Levelization:
    """The condensation of the augmented graph in evaluation order.

    ``order``
        SCCs (member-id lists, ids ascending within an SCC) in a
        topological order of the condensation: every boolean fanin and
        every data dependency of a component lies in an earlier one.
    ``levels``
        per-net longest-path depth; all members of an SCC share their
        component's level.  Registers, inputs and source gates sit at
        level 0.
    ``cyclic``
        the subset of ``order`` that is *not* straight-line evaluable:
        components of size > 1, plus self-loops.
    """

    __slots__ = ("order", "levels", "cyclic")

    def __init__(self, order: List[List[int]], levels: List[int], cyclic: List[List[int]]):
        self.order = order
        self.levels = levels
        self.cyclic = cyclic

    @property
    def acyclic(self) -> bool:
        return not self.cyclic

    @property
    def cyclic_net_count(self) -> int:
        return sum(len(c) for c in self.cyclic)

    @property
    def depth(self) -> int:
        return 1 + max(self.levels) if self.levels else 0


def levelize(circuit: Circuit) -> Levelization:
    """Topologically sort the augmented circuit into SCC components with
    longest-path levels (proof of static acyclicity when ``.acyclic``)."""
    edges = combinational_edges(circuit)
    # Tarjan emits components sinks-first; reversed() is a topological
    # order of the condensation (sources before their consumers).
    components = list(reversed(strongly_connected_components(circuit)))
    comp_of: Dict[int, int] = {}
    for index, component in enumerate(components):
        component.sort()
        for net_id in component:
            comp_of[net_id] = index

    levels: List[int] = [0] * len(circuit.nets)
    comp_level = [0] * len(components)
    cyclic: List[List[int]] = []
    for index, component in enumerate(components):
        level = comp_level[index]
        for net_id in component:
            levels[net_id] = level
            for succ in edges[net_id]:
                succ_comp = comp_of[succ]
                if succ_comp != index and comp_level[succ_comp] <= level:
                    comp_level[succ_comp] = level + 1
        if len(component) > 1:
            cyclic.append(component)
        else:
            net = circuit.nets[component[0]]
            if any(src == net.id for src, _ in net.inputs) or net.id in net.deps:
                cyclic.append(component)
    return Levelization(components, levels, cyclic)


def cycle_warnings(circuit: Circuit) -> List[str]:
    """Human-readable warnings, one per potential causality cycle."""
    warnings = []
    for cycle in find_cycles(circuit):
        members = ", ".join(net.describe() for net in cycle[:6])
        suffix = ", ..." if len(cycle) > 6 else ""
        warnings.append(
            f"possible causality cycle through {len(cycle)} nets: {members}{suffix}"
        )
    return warnings
