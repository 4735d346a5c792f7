"""Balanced directed multigraphs with numbered semi-infinite tails.

The objects here are purely combinatorial: a finite set of interior
vertices, a list of interior arcs (parallel arcs and self-loops are
allowed), and ``N`` numbered tail pairs.  Tail ``n`` contributes one
incoming boundary arc (feeding the interior at ``in_vertex``) and one
outgoing boundary arc (leaving the interior at ``out_vertex``); the two
anchors may differ.  Every vertex must have equal in- and out-degree
once boundary arcs are counted, which is what makes unitary coins
possible at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

import numpy as np


class GraphError(ValueError):
    """Base class for malformed graph input."""


class NotBalanced(GraphError):
    def __init__(self, vertex, in_degree, out_degree):
        self.vertex = vertex
        self.in_degree = in_degree
        self.out_degree = out_degree
        super().__init__(
            f"vertex {vertex!r} has in-degree {in_degree} but out-degree {out_degree}"
        )


class DanglingArc(GraphError):
    """An arc or tail references a vertex that is not part of the graph."""


class DuplicateTailIndex(GraphError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"tail index {index} appears more than once")


class EmptyInterior(GraphError):
    """The interior vertex set is empty, so there is nothing to scatter off."""


@dataclass(frozen=True)
class Arc:
    origin: Hashable
    terminus: Hashable
    name: str | None = None

    def label(self, position: int) -> str:
        return self.name if self.name is not None else f"arc{position}"


@dataclass(frozen=True)
class Tail:
    """Tail pair number ``index`` (1-based).

    ``in_vertex`` is where the incoming half-line delivers amplitude,
    ``out_vertex`` is where the outgoing half-line collects it.
    """

    index: int
    in_vertex: Hashable
    out_vertex: Hashable


# A slot key identifies one basis arc of the carrier space:
#   ("arc", i)  interior arc at position i of the arc list
#   ("in", n)   innermost arc of incoming tail n
#   ("out", n)  innermost arc of outgoing tail n
SlotKey = tuple[str, int]


@dataclass(frozen=True)
class TailedGraph:
    vertices: tuple
    arcs: tuple
    tails: tuple

    # -- sizes ---------------------------------------------------------

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    @property
    def n_tails(self) -> int:
        return len(self.tails)

    @property
    def carrier_dim(self) -> int:
        """Interior arcs plus one boundary arc for each tail direction."""
        return self.n_arcs + 2 * len(self.tails)

    # -- carrier indexing ----------------------------------------------
    #
    # The matrix basis is: interior arcs in list order, then incoming
    # boundary arcs by tail index, then outgoing boundary arcs by tail
    # index.

    def slot_index(self, key: SlotKey) -> int:
        kind, i = key
        if kind == "arc":
            return i
        if kind == "in":
            return self.n_arcs + (i - 1)
        if kind == "out":
            return self.n_arcs + self.n_tails + (i - 1)
        raise KeyError(key)

    def carrier_labels(self) -> list[str]:
        labels = [a.label(i) for i, a in enumerate(self.arcs)]
        labels += [f"in{t.index}" for t in self.tails]
        labels += [f"out{t.index}" for t in self.tails]
        return labels

    # -- coin slots ------------------------------------------------------

    @cached_property
    def _slots(self) -> tuple:
        """Every vertex's incoming and outgoing slots, from one pass over the arcs."""
        ins: dict = {v: [] for v in self.vertices}
        outs: dict = {v: [] for v in self.vertices}
        for i, a in enumerate(self.arcs):
            ins[a.terminus].append(("arc", i))
            outs[a.origin].append(("arc", i))
        for t in self.tails:
            ins[t.in_vertex].append(("in", t.index))
            outs[t.out_vertex].append(("out", t.index))
        return ins, outs

    @cached_property
    def coin_entries(self) -> tuple:
        """The carrier (row, col) of every coin entry, as two index arrays.

        Vertex by vertex in ``vertices`` order, each coin row-major: its
        rows run over the vertex's outgoing slots, its columns over the
        incoming ones, so the entries of the coins' ravelled matrices,
        concatenated, land at ``full[rows, cols]``.
        """
        rows, cols = [], []
        for v in self.vertices:
            ins = [self.slot_index(key) for key in self._slots[0][v]]
            for out_key in self._slots[1][v]:
                rows += [self.slot_index(out_key)] * len(ins)
                cols += ins
        out = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
        for array in out:
            array.flags.writeable = False
        return out

    @cached_property
    def coin_shapes(self) -> dict:
        """Each vertex's coin shape, (outgoing slots, incoming slots), in ``vertices`` order."""
        return {v: (len(self._slots[1][v]), len(self._slots[0][v])) for v in self.vertices}

    def in_slots(self, vertex) -> list[SlotKey]:
        """Arcs delivering amplitude to ``vertex``: interior first, then tails."""
        return list(self._slots[0].get(vertex, ()))

    def out_slots(self, vertex) -> list[SlotKey]:
        return list(self._slots[1].get(vertex, ()))

    def degree(self, vertex) -> int:
        return len(self.in_slots(vertex))


def build_graph(
    vertices: Sequence[Hashable],
    arcs: Iterable[Arc | tuple],
    tails: Iterable[Tail | tuple],
) -> TailedGraph:
    """Validate and assemble a tailed graph.

    ``arcs`` entries may be ``Arc`` objects or ``(origin, terminus)`` /
    ``(origin, terminus, name)`` tuples; ``tails`` entries may be ``Tail``
    objects or ``(index, in_vertex, out_vertex)`` tuples.
    """
    vertices = tuple(vertices)
    if not vertices:
        raise EmptyInterior("no interior vertices")
    if len(set(vertices)) != len(vertices):
        raise GraphError("duplicate vertex names")
    vset = set(vertices)

    arc_list = []
    for a in arcs:
        if not isinstance(a, Arc):
            a = Arc(*a)
        if a.origin not in vset:
            raise DanglingArc(f"arc {a} starts at unknown vertex {a.origin!r}")
        if a.terminus not in vset:
            raise DanglingArc(f"arc {a} ends at unknown vertex {a.terminus!r}")
        arc_list.append(a)

    tail_list = []
    seen = set()
    for t in tails:
        if not isinstance(t, Tail):
            t = Tail(*t)
        if t.index in seen:
            raise DuplicateTailIndex(t.index)
        seen.add(t.index)
        if t.in_vertex not in vset:
            raise DanglingArc(f"tail {t.index} feeds unknown vertex {t.in_vertex!r}")
        if t.out_vertex not in vset:
            raise DanglingArc(f"tail {t.index} leaves unknown vertex {t.out_vertex!r}")
        tail_list.append(t)
    if not tail_list:
        raise GraphError("a scattering graph needs at least one tail")
    tail_list.sort(key=lambda t: t.index)
    if [t.index for t in tail_list] != list(range(1, len(tail_list) + 1)):
        raise GraphError(
            f"tail indices must be 1..{len(tail_list)}, got "
            f"{[t.index for t in tail_list]}"
        )

    g = TailedGraph(vertices, tuple(arc_list), tuple(tail_list))
    for v in vertices:
        din, dout = len(g.in_slots(v)), len(g.out_slots(v))
        if din != dout:
            raise NotBalanced(v, din, dout)
    return g


def from_finite_graph(
    vertices: Sequence[Hashable],
    arcs: Iterable[Arc | tuple],
    boundary: Sequence[Hashable],
) -> TailedGraph:
    """Cut a balanced finite digraph open along a set of boundary vertices.

    Every arc touching a boundary vertex is replaced by a tail: the
    out-arcs and in-arcs of each boundary vertex are paired up in arc-list
    order, and each pair becomes one numbered tail (incoming half anchored
    at the out-arc's interior terminus, outgoing half at the in-arc's
    interior origin).  Tail numbers run through the boundary vertices in
    the order given.
    """
    vertices = tuple(vertices)
    vset = set(vertices)
    if len(vset) != len(vertices):
        raise GraphError("duplicate vertex names")
    arc_list = []
    for a in arcs:
        if not isinstance(a, Arc):
            a = Arc(*a)
        if a.origin not in vset or a.terminus not in vset:
            raise DanglingArc(f"arc {a} references an unknown vertex")
        arc_list.append(a)

    # The finite graph itself must be balanced.
    for v in vertices:
        din = sum(1 for a in arc_list if a.terminus == v)
        dout = sum(1 for a in arc_list if a.origin == v)
        if din != dout:
            raise NotBalanced(v, din, dout)

    bset = set(boundary)
    if not bset <= vset:
        raise DanglingArc("boundary contains vertices not in the graph")
    interior = tuple(v for v in vertices if v not in bset)
    if not interior:
        raise EmptyInterior("every vertex was declared as boundary")

    interior_arcs = []
    for a in arc_list:
        o_in, t_in = a.origin not in bset, a.terminus not in bset
        if o_in and t_in:
            interior_arcs.append(a)
        elif not o_in and not t_in:
            raise DanglingArc(
                f"arc {a} connects two boundary vertices; cutting it would "
                "leave a tail attached to nothing"
            )

    tails = []
    n = 0
    for b in boundary:
        outs = [a for a in arc_list if a.origin == b]
        ins = [a for a in arc_list if a.terminus == b]
        for a_out, a_in in zip(outs, ins):
            n += 1
            tails.append(Tail(n, a_out.terminus, a_in.origin))

    return build_graph(interior, interior_arcs, tails)
