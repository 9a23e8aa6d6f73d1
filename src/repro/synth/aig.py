"""And-Inverter Graphs (AIGs) — the synthesis engine's internal netlist form.

Literals follow the AIGER convention: literal ``2*n`` is node ``n`` plain,
``2*n + 1`` is node ``n`` complemented.  Node 0 is constant false, so literal
``0`` is FALSE and literal ``1`` is TRUE.  AND nodes are structurally hashed
at construction, which deduplicates isomorphic subgraphs for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

FALSE = 0
TRUE = 1


def lit(node: int, complemented: bool = False) -> int:
    return 2 * node + (1 if complemented else 0)


def lit_node(literal: int) -> int:
    return literal >> 1


def lit_compl(literal: int) -> bool:
    return bool(literal & 1)


def negate(literal: int) -> int:
    return literal ^ 1


@dataclass
class Aig:
    """A combinational AND-inverter graph with named inputs and outputs."""

    # node id -> (fanin0 literal, fanin1 literal); inputs/const have no entry.
    _ands: dict[int, tuple[int, int]] = field(default_factory=dict)
    _inputs: list[str] = field(default_factory=list)
    _input_ids: dict[str, int] = field(default_factory=dict)
    _outputs: list[tuple[str, int]] = field(default_factory=list)
    _strash: dict[tuple[int, int], int] = field(default_factory=dict)
    _next_id: int = 1
    # ``((next id, output count), order)`` of the last topological_order().
    # A plain class attribute, not a field, so it stays out of __init__, eq
    # and repr; __getstate__ keeps it out of pickles.
    _order_memo = None

    # -- construction --------------------------------------------------------

    def add_input(self, name: str) -> int:
        """Declare a primary input; returns its (plain) literal."""
        if name in self._input_ids:
            return lit(self._input_ids[name])
        node = self._next_id
        self._next_id += 1
        self._input_ids[name] = node
        self._inputs.append(name)
        return lit(node)

    def add_output(self, name: str, literal: int) -> None:
        self._outputs.append((name, literal))

    def and_(self, a: int, b: int) -> int:
        """AND of two literals with constant folding and structural hashing."""
        if a > b:
            a, b = b, a
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == b:
            return a
        if a == negate(b):
            return FALSE
        key = (a, b)
        existing = self._strash.get(key)
        if existing is not None:
            return lit(existing)
        node = self._next_id
        self._next_id += 1
        self._ands[node] = key
        self._strash[key] = node
        return lit(node)

    def or_(self, a: int, b: int) -> int:
        return negate(self.and_(negate(a), negate(b)))

    def xor_(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, negate(b)), self.and_(negate(a), b))

    def mux(self, sel: int, if_true: int, if_false: int) -> int:
        return self.or_(self.and_(sel, if_true), self.and_(negate(sel), if_false))

    # -- inspection ------------------------------------------------------------

    @property
    def inputs(self) -> list[str]:
        return list(self._inputs)

    @property
    def outputs(self) -> list[tuple[str, int]]:
        return list(self._outputs)

    @property
    def num_ands(self) -> int:
        return len(self._ands)

    def fanins(self, node: int) -> tuple[int, int]:
        return self._ands[node]

    def is_input(self, node: int) -> bool:
        return node != 0 and node not in self._ands

    def levels(self) -> dict[int, int]:
        """Logic depth of every reachable node (inputs are level 0)."""
        depth: dict[int, int] = {0: 0}
        order = self.topological_order()
        for node in order:
            if node in self._ands:
                a, b = self._ands[node]
                depth[node] = 1 + max(depth.get(lit_node(a), 0),
                                      depth.get(lit_node(b), 0))
            else:
                depth[node] = 0
        return depth

    def depth(self) -> int:
        levels = self.levels()
        if not self._outputs:
            return 0
        return max(levels.get(lit_node(l), 0) for _, l in self._outputs)

    def topological_order(self) -> list[int]:
        """Reachable nodes, fanins before fanouts.

        The order is a post-order DFS from each output in turn, visiting
        fanin 1 before fanin 0.  Passes number the nodes they rebuild in
        this order, so it is part of what they compute, not just a valid
        schedule.  It is memoized until the graph grows: callers iterate
        the returned list and must not mutate it.
        """
        key = (self._next_id, len(self._outputs))
        memo = self._order_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        ands = self._ands
        done = {0}
        order: list[int] = []
        for _, out in self._outputs:
            if lit_node(out) in done:
                continue
            stack = [lit_node(out)]
            while stack:
                node = stack[-1]
                pair = ands.get(node)
                if pair is not None:
                    fan = pair[1] >> 1
                    if fan not in done:
                        stack.append(fan)
                        continue
                    fan = pair[0] >> 1
                    if fan not in done:
                        stack.append(fan)
                        continue
                stack.pop()
                done.add(node)
                order.append(node)
        self._order_memo = (key, order)
        return order

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_order_memo", None)
        return state

    # -- evaluation ---------------------------------------------------------------

    def node_words(self, assignment: dict[str, int], bits: int = 64) -> dict[int, int]:
        """Bit-parallel evaluation: each input carries ``bits`` patterns.

        Returns the word of every reachable node (and of the constant and
        the inputs); raises ``KeyError`` when an input is unassigned.
        """
        mask = (1 << bits) - 1
        value: dict[int, int] = {0: 0}
        for name in self._inputs:
            if name not in assignment:
                raise KeyError(f"missing input '{name}'")
            value[self._input_ids[name]] = assignment[name] & mask
        ands = self._ands
        for node in self.topological_order():
            pair = ands.get(node)
            if pair is None:
                if node not in value:
                    value[node] = 0  # dangling node not in the inputs list
                continue
            a, b = pair
            va = value[a >> 1]
            if a & 1:
                va ^= mask
            vb = value[b >> 1]
            if b & 1:
                vb ^= mask
            value[node] = va & vb
        return value

    def evaluate_words(self, assignment: dict[str, int], bits: int = 64) -> dict[str, int]:
        """Output words for ``bits`` patterns per input (see ``node_words``)."""
        mask = (1 << bits) - 1
        value = self.node_words(assignment, bits)
        return {name: value[out >> 1] ^ (mask if out & 1 else 0)
                for name, out in self._outputs}

    # -- maintenance -----------------------------------------------------------------

    def cleanup(self) -> "Aig":
        """Return a copy with dangling AND nodes removed (inputs preserved)."""
        out = Aig()
        for name in self._inputs:
            out.add_input(name)
        mapping: dict[int, int] = {0: FALSE}
        for name, node in self._input_ids.items():
            mapping[node] = out.add_input(name)

        def map_lit(literal: int) -> int:
            base = mapping[lit_node(literal)]
            return negate(base) if lit_compl(literal) else base

        for node in self.topological_order():
            if node in self._ands:
                a, b = self._ands[node]
                mapping[node] = out.and_(map_lit(a), map_lit(b))
            elif node not in mapping:
                # Unreached input already added above; constants handled.
                mapping[node] = FALSE
        for name, literal in self._outputs:
            out.add_output(name, map_lit(literal))
        return out

    def stats(self) -> dict[str, int]:
        return {
            "inputs": len(self._inputs),
            "outputs": len(self._outputs),
            "ands": self.num_ands,
            "depth": self.depth(),
        }
