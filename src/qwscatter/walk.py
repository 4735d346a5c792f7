"""One-step walk operators on tailed graphs.

The operator acts on amplitudes indexed by arcs.  Restricted to the
finite carrier (interior arcs, innermost incoming boundary arcs,
innermost outgoing boundary arcs) it is a single matrix ``full`` whose
(b, a) entry is the coin entry of the vertex where arc ``a`` ends and
arc ``b`` begins.  Rows of incoming boundary arcs and columns of
outgoing boundary arcs are identically zero: further out on the tails
the walk is a plain shift, so those amplitudes never feed back.

Four blocks of ``full`` drive everything downstream:

* ``interior``          -- interior arcs to interior arcs
* ``tail_to_interior``  -- incoming boundary arcs to interior arcs
* ``interior_to_tail``  -- interior arcs to outgoing boundary arcs
* ``tail_to_tail``      -- straight-through boundary to boundary

:func:`assemble` places one eps's coins, or a stack of eps's coins in one
indexed assignment, which gives each eps's walk or raises.  The support
floor ``SUPPORT_TOL`` is applied by :func:`_supported` alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .coins import CoinStack
from .graph import TailedGraph

SUPPORT_TOL = 1e-12


class DimensionMismatch(ValueError):
    """A coin's shape disagrees with its vertex's slot counts."""


class NotDeterministic(ValueError):
    def __init__(self, tail: int, step: int):
        self.tail = tail
        self.step = step
        super().__init__(
            f"walk started on tail {tail} stops being a single unit-amplitude "
            f"arc at step {step}; the zero-coupling walk does not route freely"
        )


class NoExit(ValueError):
    def __init__(self, tail: int):
        self.tail = tail
        super().__init__(
            f"walk started on tail {tail} never reaches an outgoing tail"
        )


class LabelMismatch(ValueError):
    def __init__(self, tail: int, reached: int):
        self.tail = tail
        self.reached = reached
        super().__init__(
            f"walk entering on tail {tail} exits on tail {reached}; "
            "free routing must preserve tail numbers"
        )


@dataclass(frozen=True)
class WalkOperator:
    graph: TailedGraph
    full: np.ndarray
    eps: float | None = None

    @property
    def n_interior(self) -> int:
        return self.graph.n_arcs

    @property
    def n_tails(self) -> int:
        return self.graph.n_tails

    # -- the four blocks -------------------------------------------------

    @property
    def interior(self) -> np.ndarray:
        n0 = self.n_interior
        return self.full[:n0, :n0]

    @property
    def tail_to_interior(self) -> np.ndarray:
        n0, nt = self.n_interior, self.n_tails
        return self.full[:n0, n0 : n0 + nt]

    @property
    def interior_to_tail(self) -> np.ndarray:
        n0, nt = self.n_interior, self.n_tails
        return self.full[n0 + nt :, :n0]

    @property
    def tail_to_tail(self) -> np.ndarray:
        n0, nt = self.n_interior, self.n_tails
        return self.full[n0 + nt :, n0 : n0 + nt]

    # -- indexing ---------------------------------------------------------

    def in_index(self, n: int) -> int:
        """Carrier index of incoming boundary arc ``n`` (1-based)."""
        return self.graph.slot_index(("in", n))

    # -- action -----------------------------------------------------------

    def apply(self, state: np.ndarray) -> np.ndarray:
        """One step of the walk on a carrier-indexed amplitude vector.

        Amplitudes on outgoing boundary arcs are ignored (they have left
        the carrier window), and the result has none on incoming ones.
        """
        return self.full @ state

    def isometry_residual(self) -> float:
        """Max-entry norm of C*C - I over the nonzero columns.

        The full operator is unitary on the infinite arc space; on the
        carrier this shows up as the interior + incoming columns forming
        an isometry.
        """
        n0, nt = self.n_interior, self.n_tails
        cols = self.full[:, : n0 + nt]
        gram = cols.conj().T @ cols
        return float(np.abs(gram - np.eye(n0 + nt)).max())


def assemble(graph: TailedGraph, coin_matrices, eps=None):
    """Place every coin into the carrier matrix.

    ``coin_matrices`` maps each vertex to a complex matrix whose rows run
    over the vertex's outgoing slots and columns over its incoming slots,
    both in carrier order (interior arcs by list position, then tails by
    index).  It may instead be a :class:`CoinStack`, the coins at each of
    ``eps``: then every eps is placed by one indexed assignment, and the
    result is the list of their walks.  A coin that does not fit raises.
    """
    stack = coin_matrices
    if not isinstance(stack, CoinStack):
        coins = [np.asarray(coin, dtype=complex) for coin in coin_matrices.values()]
        starts = itertools.accumulate((coin.size for coin in coins), initial=0)
        layout = dict(zip(coin_matrices, zip(starts, (coin.shape for coin in coins))))
        values = np.concatenate([coin.ravel() for coin in coins] + [np.zeros(0, complex)])
        stack = CoinStack(layout, values[None])
    dim = graph.carrier_dim
    full = np.zeros((len(stack.values), dim, dim), dtype=complex)
    full[(slice(None), *graph.coin_entries)] = stack.values[:, _placement(graph, stack.layout)]
    walks = [WalkOperator(graph, matrix, label)
             for matrix, label in zip(full, eps if stack is coin_matrices else [eps])]
    return walks if stack is coin_matrices else walks[0]


def _placement(graph: TailedGraph, layout: dict) -> np.ndarray:
    """The columns of a coin stack's entries in the order of ``graph.coin_entries``;
    the first vertex whose coin does not fit raises ``DimensionMismatch``."""
    take = []
    for v, (n_out, n_in) in graph.coin_shapes.items():
        if v not in layout:
            if n_in:
                raise DimensionMismatch(f"no coin given for vertex {v!r}")
            continue  # isolated vertex, nothing to place
        start, shape = layout[v]
        if shape != (n_out, n_in):
            raise DimensionMismatch(
                f"coin at vertex {v!r} has shape {shape}, "
                f"but the vertex has {n_in} incoming and {n_out} "
                "outgoing slots"
            )
        take += range(start, start + n_in * n_out)
    return np.array(take, dtype=np.intp)


def _supported(values):
    """Where ``values`` are not zero: the support floor, ``SUPPORT_TOL``, applied here alone."""
    return abs(values) > SUPPORT_TOL


@dataclass(frozen=True)
class FreeRouting:
    """How the zero-coupling walk carries each tail across the interior.

    ``steps[n-1]`` is the number of walk steps from the innermost
    incoming arc of tail ``n`` to its outgoing twin, and ``phases[n-1]``
    the unimodular amplitude it picks up on the way.
    """

    steps: tuple
    phases: tuple


def free_routing_check(w: WalkOperator) -> FreeRouting:
    """Verify that the walk pipes each tail straight through the interior.

    Starting from a unit amplitude on an incoming boundary arc, every
    step must keep the state on a single arc with unit amplitude, and
    the exit must be the outgoing arc of the *same* tail.  The interior
    has only ``n_interior`` arcs, so a free route takes at most
    ``n_interior + 1`` steps.
    """
    n0, nt = w.n_interior, w.n_tails
    steps = []
    phases = []
    for n in range(1, nt + 1):
        state = np.zeros(w.graph.carrier_dim, dtype=complex)
        state[w.in_index(n)] = 1.0
        for step in range(1, n0 + 2):
            state = w.apply(state)
            support = np.flatnonzero(_supported(state))
            if len(support) != 1:
                raise NotDeterministic(n, step)
            idx = int(support[0])
            amp = complex(state[idx])
            if _supported(abs(amp) - 1.0):  # not of unit modulus
                raise NotDeterministic(n, step)
            if idx >= n0 + nt:  # landed on an outgoing boundary arc
                reached = idx - (n0 + nt) + 1
                if reached != n:
                    raise LabelMismatch(n, reached)
                steps.append(step)
                phases.append(amp)
                break
        else:
            raise NoExit(n)
    return FreeRouting(tuple(steps), tuple(phases))


def free_scattering_matrix(routing: FreeRouting, z: complex) -> np.ndarray:
    """Scattering matrix of a freely routing walk: diag(z^(1-k_n) c_n).

    A wave entering tail ``n`` at spectral parameter ``z`` crosses the
    interior in ``k_n`` steps, so relative to the tail shift it is
    delayed by ``k_n - 1`` powers of ``z`` and multiplied by the routing
    phase.
    """
    z = complex(z)
    return np.diag(
        [z ** (1 - k) * c for k, c in zip(routing.steps, routing.phases)]
    )
