"""Technology mapping: k-LUT covering (FPGA) and a simple standard-cell map.

The LUT mapper computes k-feasible cuts greedily in topological order and
covers the network from the outputs — a simplified FlowMap-style heuristic
minimizing mapped depth first, then cut size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aig import Aig, lit_compl, lit_node


@dataclass
class LutMapping:
    k: int
    luts: dict[int, frozenset[int]]  # root node -> leaf node set
    depth: int

    @property
    def lut_count(self) -> int:
        return len(self.luts)


def map_to_luts(aig: Aig, k: int = 4) -> LutMapping:
    """Cover the AIG with k-input LUTs."""
    if k < 2:
        raise ValueError("LUT size must be at least 2")
    levels: dict[int, int] = {0: 0}
    best_cut: dict[int, frozenset[int]] = {0: frozenset()}

    for node in aig.topological_order():
        if node == 0:
            continue
        if aig.is_input(node):
            levels[node] = 0
            best_cut[node] = frozenset({node})
            continue
        a, b = aig.fanins(node)
        na, nb = lit_node(a), lit_node(b)
        trivial = frozenset(n for n in (na, nb) if n != 0)
        options = [trivial]
        merged = best_cut.get(na, frozenset()) | best_cut.get(nb, frozenset())
        if merged and len(merged) <= k and merged != trivial:
            options.append(merged)

        def lvl(cut: frozenset[int]) -> int:
            return 1 + max((levels.get(leaf, 0) for leaf in cut), default=0)

        chosen = min(options, key=lambda c: (lvl(c), len(c)))
        best_cut[node] = chosen if chosen else frozenset({na, nb} - {0})
        levels[node] = lvl(best_cut[node])

    # Cover from outputs.
    luts: dict[int, frozenset[int]] = {}
    frontier = [lit_node(literal) for _, literal in aig.outputs]
    while frontier:
        node = frontier.pop()
        if node == 0 or aig.is_input(node) or node in luts:
            continue
        cut = best_cut.get(node, frozenset())
        luts[node] = cut
        frontier.extend(cut)
    depth = max((levels.get(lit_node(l), 0) for _, l in aig.outputs), default=0)
    return LutMapping(k=k, luts=luts, depth=depth)


@dataclass
class CellMapping:
    """Standard-cell statistics from a naive AND2/INV covering."""

    and2_count: int
    inv_count: int

    @property
    def area(self) -> float:
        # NAND2-equivalent areas: AND2 = 1.5, INV = 0.67.
        return 1.5 * self.and2_count + 0.67 * self.inv_count

    @property
    def gate_count(self) -> int:
        return self.and2_count + self.inv_count


def map_to_cells(aig: Aig) -> CellMapping:
    """Count AND2 cells plus inverters implied by complemented edges."""
    inverters = 0
    seen_inverted: set[int] = set()
    reachable = aig.topological_order()
    for node in reachable:
        if aig.is_input(node):
            continue
        for fan in aig.fanins(node):
            if lit_compl(fan) and lit_node(fan) not in seen_inverted:
                seen_inverted.add(lit_node(fan))
                inverters += 1
    for _, literal in aig.outputs:
        if lit_compl(literal) and lit_node(literal) not in seen_inverted:
            seen_inverted.add(lit_node(literal))
            inverters += 1
    and2 = sum(1 for n in reachable if not aig.is_input(n))
    return CellMapping(and2_count=and2, inv_count=inverters)
