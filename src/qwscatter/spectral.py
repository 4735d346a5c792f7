"""Eigenvalue clusters and biorthogonal Jordan chains.

The interior restriction of a walk operator is a (generally
non-normal) contraction.  Everything downstream — resonance lists,
pole expansions of the scattering matrix, tunneling asymptotics —
reads its spectral data from one :class:`EigenSystem` of arrays:

* eigenvalues are merged into *clusters* (numerically coincident
  eigenvalues are one resonance with multiplicity): ``values`` holds
  one value per cluster and ``multiplicity`` its number of columns,
* the columns of ``right`` are right Jordan chains ``v_1, ..., v_L`` with
  ``(M - λ) v_l = v_{l-1}`` (``v_0 = 0``), cluster by cluster and chain by
  chain, and ``lengths`` holds the length of every chain,
* the rows of ``left_h`` are the conjugated co-chains ``w_1, ..., w_L``,
  with ``(M* - λ̄) w_l = w_{l+1}`` (``w_{L+1} = 0``): ``left_h`` is
  ``V^-1``, so ``<v, w>`` pairs to the identity,
* ``emission`` is ``T_it V`` and ``pickup`` is ``W* T_ti``, the chains'
  coupling to the tails, formed once here for every reader downstream,
* each cluster is on the unit circle exactly when its states do not
  couple to the tails (a bound state of the full walk), and carries a
  condition, the bound on its spectral projector ``V W*``.

The pole sums read a column selection of these arrays
(``EigenSystem.poles``, whose chain links :func:`_follows` masks); a
:class:`Cluster`, views of one cluster's columns, is built only when
asked for.  The zero cluster (``ZERO_VALUE_TOL``) is :func:`_is_zero`'s rule alone.

:func:`eigen_decompose` takes one walk, or a stack of them (a sweep's ε
grid, a chunk at a time).  Walks whose interiors share a dtype and a
sparsity pattern are decomposed together: one ``eig`` of their stacked
interiors (the real eigensolver for a real interior, whose nonreal pairs
come out exact conjugates), or one closed-form lift, serves every simple
cluster, and one sort, normalisation, ``inv`` and classification on or
off the circle run over the stack; each walk keeps the bits it gets
alone.  When a group fails, the stack is decomposed again walk by walk,
in order, so it raises the first failing walk's own error.  A multiple
cluster is *semisimple* when its ``eig`` values agree within the floor
and its unit columns are well conditioned (:func:`_semisimple`): those
columns are its chains.  The others run the Jordan staircase on their
own generalized eigenspace, walk by walk.

The co-chains are the dual basis of the whole right basis ``V``, the
rows of ``inv(V)``: if ``M V = V J`` then ``M* W = W J*``, which is the
co-chain recursion, so ``W* V = I`` holds across the whole spectrum.

A periodic interior takes its eigenpairs from a smaller problem: when
its arc digraph is one strongly connected component whose level classes
have one size ``m``, it is permutation-similar to a block-cyclic matrix
(Varga, *Matrix Iterative Analysis*, §4.2), lifted from the eigenpairs
of its ``m × m`` level product (:func:`_periodic_eig`).  A weighted
cycle (every cycle model, two-barrier line and ``crossing``) has
``m = 1`` and runs no ``eig``.  Any other interior, several components
among them, takes ``eig``, and so does a walk whose values coincide,
whose level product is singular or whose lifted vector leaves a
residual above ``n·u·||M||``.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

CLUSTER_REL_TOL = 1e-8
# Tail coupling below which a cluster is on the unit circle (see
# ``_classify``); a decoupled state shows ~1e-16 of roundoff there.
CIRCLE_COUPLING_TOL = 1e-12
RANK_REL_TOL = 1e-10
GRAM_REL_TOL = 1e-12
ZERO_VALUE_TOL = 1e-9
# The unit roundoff u of the float64 arithmetic every eigensolve runs in;
# eig's backward error on an n × n matrix is taken as n·u·||M||.
UNIT_ROUNDOFF = np.finfo(float).eps / 2


class NumericalError(ValueError):
    """A computation breached a numerical tolerance (command-line exit 2)."""


class ClusterAmbiguity(NumericalError):
    """Greedy eigenvalue clustering depends on processing order."""


class IllConditionedChain(NumericalError):
    def __init__(self, value: complex, condition: float):
        self.value = value
        self.condition = condition
        super().__init__(
            f"left/right chain pairing at eigenvalue {value:.6g} is numerically "
            f"singular (condition {condition:.3e}); chain data is unreliable"
        )


class NotSimple(NumericalError):
    """The operation requires a multiplicity-one cluster."""


class ZeroCluster(NumericalError):
    """The eigenvalue-zero cluster has no resonant-state extension."""


@dataclass(frozen=True)
class Cluster:
    """One cluster of an :class:`EigenSystem`: read-only views of its columns of
    ``right`` and ``emission`` and its rows of ``left_h`` and ``pickup``;
    ``chains`` and ``co_chains`` split them by ``lengths`` on first use."""

    value: complex
    right: np.ndarray  # (n0, m)
    left_h: np.ndarray  # (m, n0)
    emission: np.ndarray  # (n_tails, m)
    pickup: np.ndarray  # (m, n_tails)
    lengths: tuple
    on_unit_circle: bool
    condition: float  # the bound on its spectral projector (EigenSystem.condition)

    @property
    def multiplicity(self) -> int:
        return self.right.shape[1]

    @property
    def is_simple(self) -> bool:
        return self.multiplicity == 1

    @property
    def is_zero(self) -> bool:
        """The conventional zero resonance (eigenvalue zero, :func:`_is_zero`)."""
        return _is_zero(self.value)

    @cached_property
    def chains(self) -> tuple:
        """Each chain as an array of shape (length, n0); row l-1 is v_l."""
        return tuple(np.split(self.right.T, np.cumsum(self.lengths[:-1])))

    @cached_property
    def co_chains(self) -> tuple:
        """Each co-chain ``w_1, ..., w_L``, shaped as its chain."""
        return tuple(np.split(self.left_h.conj(), np.cumsum(self.lengths[:-1])))

    def right_basis(self) -> np.ndarray:
        """All chain vectors as columns, chain-major, l ascending (read-only)."""
        return self.right

    @cached_property
    def _left(self) -> np.ndarray:
        left = self.left_h.conj().T
        left.flags.writeable = False
        return left

    def left_basis(self) -> np.ndarray:
        return self._left


class PoleBasis(NamedTuple):
    """Every off-circle chain, stacked (column/row k is chain vector k)."""

    values: np.ndarray  # (s,): the cluster value of each column
    right: np.ndarray  # (n0, s): the chain vectors V
    left_h: np.ndarray  # (s, n0): the co-chain vectors W*
    emission: np.ndarray  # (n_tails, s): T_it V
    pickup: np.ndarray  # (s, n_tails): W* T_ti
    links: tuple  # columns k whose chain continues in column k + 1


def _follows(poles: PoleBasis) -> np.ndarray:
    """``poles.links`` as a mask: per column, whether its chain continues in the next one."""
    follows = np.zeros(len(poles.values), dtype=bool)
    follows[list(poles.links)] = True
    return follows


def _is_zero(values):
    """Which of ``values`` are the zero resonance: the zero-cluster rule, applied here alone."""
    return abs(values) <= ZERO_VALUE_TOL  # abs: numpy's for an array, hypot for a scalar


def _links(lengths) -> tuple:
    """The columns whose chain continues in the next one, for chains of ``lengths``."""
    heads = accumulate(lengths, initial=0)
    # a chain of one column adds no link: skipping its empty range keeps this
    # cheap on the all-simple spectra of the long lines and cycles
    return tuple(k for head, size in zip(heads, lengths) if size > 1
                 for k in range(head, head + size - 1))


def _pole_basis(clusters: list, n0: int, n_tails: int) -> PoleBasis:
    """The chains of ``clusters`` as one basis on ``n0`` interior sites and ``n_tails`` tails."""
    return PoleBasis(
        np.array([c.value for c in clusters for _ in range(c.multiplicity)], dtype=complex),
        np.concatenate([np.zeros((n0, 0), complex)] + [c.right for c in clusters], axis=1),
        np.concatenate([np.zeros((0, n0), complex)] + [c.left_h for c in clusters]),
        np.concatenate([np.zeros((n_tails, 0), complex)] + [c.emission for c in clusters], axis=1),
        np.concatenate([np.zeros((0, n_tails), complex)] + [c.pickup for c in clusters]),
        _links([length for c in clusters for length in c.lengths]),
    )


@dataclass(frozen=True)
class EigenSystem:
    """The clustered spectrum of an interior ``matrix``, as arrays.

    Column ``k`` of ``right`` is chain vector ``k`` and row ``k`` of
    ``left_h`` (``V^-1``) its dual; cluster ``c`` owns ``multiplicity[c]``
    consecutive columns, cluster by cluster in ``values`` order, and
    within a cluster chain by chain with ``l`` ascending.  ``lengths``
    holds every chain's length in the same order.  ``emission`` (``T_it V``)
    and ``pickup`` (``W* T_ti``) make ``Σ(z) = T_tt + emission (z - J)^-1
    pickup`` the interior block's modal realization.  ``on_unit_circle``,
    ``condition_bound`` and ``condition`` are per cluster.  The bound
    ``||V||_F·||W||_F`` is the condition of a simple cluster and bounds
    a multiple one's from above; ``eigen_decompose`` checks the bound,
    so a multiple cluster's 2-norms (singular values of its own columns)
    are taken only when ``condition`` is read or the bound fails.
    :class:`Cluster` objects are views of one cluster's columns, built
    when asked for (``cluster``, ``clusters``, ``nearest_cluster``,
    ``on_circle``, ``off_circle``, ``zero_cluster``).
    """

    matrix: np.ndarray
    values: np.ndarray  # (c,) complex
    right: np.ndarray  # (n0, n0)
    left_h: np.ndarray  # (n0, n0)
    emission: np.ndarray  # (n_tails, n0): T_it V
    pickup: np.ndarray  # (n0, n_tails): W* T_ti
    multiplicity: np.ndarray  # (c,) int
    lengths: np.ndarray  # (chains,) int
    on_unit_circle: np.ndarray  # (c,) bool
    condition_bound: np.ndarray  # (c,) float, ||V||_F·||W||_F of each cluster

    @cached_property
    def condition(self) -> np.ndarray:
        """Each cluster's bound on its spectral projector ``V W*``, on first use.

        A semisimple cluster's is the norm of that projector, which no
        choice of its eigenvectors changes: for a simple one its
        ``condition_bound``, 1/|<v, w>| of unit v, w.  A cluster with a
        longer Jordan chain takes ``||V||·||W||`` over its chains.  Each
        multiple cluster's 2-norms are taken on its own columns.
        """
        condition = np.array(self.condition_bound, dtype=float)
        for k in np.flatnonzero(self.multiplicity > 1).tolist():
            own = list(range(self._starts[k], self._starts[k] + int(self.multiplicity[k])))
            chains, co_chains = self.right.T[own], self.left_h[own]  # V^T and W*
            if len(self._chain_lengths[k]) < len(own):
                condition[k] = np.linalg.norm(chains, 2) * np.linalg.norm(co_chains, 2)
            else:
                condition[k] = np.linalg.norm(chains.T @ co_chains, 2)
        condition.flags.writeable = False
        return condition

    @cached_property
    def _starts(self) -> list:
        """The first column of each cluster."""
        return list(accumulate(self.multiplicity.tolist()[:-1], initial=0))

    def columns(self, k: int) -> slice:
        """The columns of ``right`` (rows of ``left_h``) that cluster ``k`` owns."""
        start = self._starts[k]
        return slice(start, start + int(self.multiplicity[k]))

    @cached_property
    def _chain_lengths(self) -> list:
        """Each cluster's chain lengths."""
        out, chains = [], iter(self.lengths.tolist())
        for m in self.multiplicity.tolist():
            own = [next(chains)]
            while sum(own) < m:
                own.append(next(chains))
            out.append(own)
        return out

    @cached_property
    def _built(self) -> dict:
        return {}

    def cluster(self, k: int) -> Cluster:
        """Cluster ``k`` as a :class:`Cluster` of views, built once."""
        built = self._built.get(k)
        if built is None:
            cut = self.columns(k)
            # a simple cluster's bound is its condition: no singular values needed
            condition = self.condition_bound if cut.stop - cut.start == 1 else self.condition
            built = self._built[k] = Cluster(
                complex(self.values[k]),
                self.right[:, cut],
                self.left_h[cut],
                self.emission[:, cut],
                self.pickup[cut],
                tuple(self._chain_lengths[k]),
                bool(self.on_unit_circle[k]),
                float(condition[k]),
            )
        return built

    @cached_property
    def clusters(self) -> tuple:
        return tuple(map(self.cluster, range(len(self.values))))

    def off_circle(self):
        return [self.cluster(k) for k in np.flatnonzero(~self.on_unit_circle).tolist()]

    def on_circle(self):
        return [self.cluster(k) for k in np.flatnonzero(self.on_unit_circle).tolist()]

    @cached_property
    def poles(self) -> PoleBasis:
        """The chains of every off-circle cluster, with their emission and pickup, as one basis.

        Columns run cluster by cluster and, within a cluster, chain by
        chain with ``l`` ascending, so ``M V = V J`` for the Jordan matrix
        ``J`` whose superdiagonal is one exactly at ``links``.  The basis
        depends on neither ``z`` nor the incoming data, so it is built
        once, as a column selection of the system, and each analytic
        route sums every pole in one pass.
        """
        values = self.values.repeat(self.multiplicity)
        links = _links(self.lengths.tolist())
        keep = (~self.on_unit_circle).repeat(self.multiplicity)
        kept = keep.nonzero()[0]
        if len(kept) == len(keep):
            return PoleBasis(values, self.right, self.left_h, self.emission, self.pickup, links)
        links = tuple(int(np.count_nonzero(keep[:k])) for k in links if keep[k])
        return PoleBasis(values[kept], self.right[:, kept], self.left_h[kept],
                         self.emission[:, kept], self.pickup[kept], links)

    def zero_cluster(self):
        zero = np.flatnonzero(_is_zero(self.values))
        return self.cluster(int(zero[0])) if len(zero) else None

    def nearest_cluster(self, value: complex) -> Cluster:
        return self.cluster(int(np.argmin(np.abs(self.values - value))))


def _cluster_indices(values: np.ndarray, tol: float):
    """Transitive merge of eigenvalues closer than ``tol``.

    The merge is the transitive closure of the ``tol``-neighbour relation
    (repeated boolean squaring), which is order-independent; ambiguity is
    flagged afterwards if transitivity stretched a cluster beyond diameter
    2*tol, which is exactly when a greedy pass would have been
    order-dependent.  ``eigen_decompose`` runs it only on a spectrum with
    two values that close (ms's double zero).  Returns each cluster's
    indices, ascending, and the clusters' values (an eigenvalue, or the
    mean of several), clusters in :func:`_sort_key` order, ties by index.
    """
    n = len(values)
    distance = np.abs(np.subtract.outer(values, values))
    reach = distance <= tol  # pairs joined by a path of at most 2^k steps
    count = direct = np.count_nonzero(reach)
    while count > n + 2:  # one close pair is transitive already
        reach = reach @ reach  # a superset, as reach holds the diagonal
        count, grown = np.count_nonzero(reach), count
        if count == grown:
            break
    groups: dict = {}
    for a, root in enumerate(reach.argmax(axis=1).tolist()):  # its smallest partner
        groups.setdefault(root, []).append(a)
    # only pairs that are not close themselves can stretch a cluster
    if count > direct and np.maximum.reduce(distance[reach]) > 2 * tol:
        for idx in groups.values():
            for pos, a in enumerate(idx):
                for b in idx[pos + 1 :]:
                    if distance[a, b] > 2 * tol:
                        raise ClusterAmbiguity(
                            f"eigenvalues {values[a]:.9g} and {values[b]:.9g} were "
                            f"merged only through intermediaries (tolerance {tol:.3e})"
                        )
    # deterministic cluster order: by mean eigenvalue, lexicographic
    listed = values.tolist()
    groups = list(groups.values())
    centres = [listed[idx[0]] if len(idx) == 1 else complex(np.add.reduce(values[idx]) / len(idx))
               for idx in groups]
    order = sorted(range(len(centres)), key=list(map(_sort_key, centres)).__getitem__)
    return [groups[g] for g in order], [centres[g] for g in order]


def _sort_key(z: complex):
    return (round(z.real, 12), round(z.imag, 12))


def _value_order(rows: list) -> np.ndarray:
    """Per row of ``rows`` (lists of one length), its indices sorted by :func:`_sort_key`, ties by index:
    a stable ``lexsort`` of the values, unless two neighbours in it differ, in the part that decides,
    by less than rounding can close (2e-12 and four ulps), which sorts that row by its keys."""
    z = np.array(rows, dtype=complex).reshape(len(rows), -1)
    order = np.lexsort((z.imag, z.real))
    z = z[np.arange(len(z))[:, None], order]
    step = np.diff(z, axis=1)
    reach = 2e-12 + 4 * np.spacing(np.maximum(np.abs(z[:, 1:]), np.abs(z[:, :-1])))
    sure = np.where(step.real == 0, (step.imag == 0) | (step.imag > reach), step.real > reach)
    for i in np.flatnonzero(~sure.all(axis=1)).tolist():
        order[i] = sorted(range(len(rows[i])), key=list(map(_sort_key, rows[i])).__getitem__)
    return order


def _null_dim(sigmas: np.ndarray, total: int, floor: float) -> int:
    thr = max(RANK_REL_TOL * sigmas[0], floor)
    return int(np.sum(sigmas < thr)) + (total - len(sigmas))


def _null_basis(power: np.ndarray, d: int) -> np.ndarray:
    """Orthonormal columns spanning the ``d``-dimensional null space of ``power``."""
    return np.linalg.svd(power)[2][power.shape[0] - d :].conj().T


def _nilpotent_chains(r: np.ndarray, floor: float):
    """Jordan chains of a (numerically) nilpotent matrix.

    Returns the chain lengths, longest first, and the chain vectors as
    the columns of one array, chain by chain, ``v_1 .. v_L`` with
    ``r @ v_l = v_{l-1}``.  The staircase is the textbook one: count
    nullities of powers (from their singular values alone), then pick
    chain tops in ``null(r^k)`` that are independent of ``null(r^(k-1))``
    and of the vectors already occupied by longer chains.  The longest
    chains' tops span the complement of ``null(r^(kmax-1))``, the row
    space of that power, so they need no search; with ``kmax = 1`` (a
    semisimple cluster, every singular value of ``r`` below the rank
    threshold) they span the whole space.
    """
    m = r.shape[0]
    powers, dims = [np.eye(m, dtype=complex)], [0]
    while dims[-1] < m:
        powers.append(powers[-1] @ r)
        sigmas = np.linalg.svd(powers[-1], compute_uv=False)
        # the m-th power vanishes: nilpotency is forced there
        dims.append(m if len(dims) == m else max(_null_dim(sigmas, m, floor), dims[-1]))
    kmax = len(dims) - 1
    geq = np.diff(dims).tolist() + [0]  # geq[k - 1]: chains of length >= k
    lengths, blocks, tops = [], [], []
    for k in range(kmax, 0, -1):
        n_new = geq[k - 1] - geq[k]
        if n_new <= 0:
            continue
        if k == kmax:
            new = np.linalg.svd(powers[k - 1])[2][:n_new].conj().T
        else:
            # height-k vectors of the longer chains, and null(r^(k-1))
            occupied = [powers[length - k] @ t for length, t in tops]
            blocker = np.concatenate([_null_basis(powers[k - 1], dims[k - 1])] + occupied, axis=1)
            q, _ = np.linalg.qr(blocker)
            candidates = _null_basis(powers[k], dims[k])
            new = np.linalg.svd(candidates - q @ (q.conj().T @ candidates))[0][:, :n_new]
        tops.append((k, new))
        lengths += [k] * n_new
        # v_l = r^(k-l) t for each top t, as columns (chain, l) of one stacked product
        blocks.append(np.transpose(np.stack(powers[k - 1 :: -1]) @ new, (1, 2, 0)).reshape(m, -1))
    return lengths, np.concatenate(blocks, axis=1)


@lru_cache(maxsize=16)
def _root_powers(size: int):
    """``e(q_k)`` and ``E[k, t] = e(-q_k t)`` for ``q_k = 2k + odd``, ``e(q) = exp(iπq/L)``.

    Row ``odd`` (0 or 1) of each array holds that parity's table.  One
    table over the integers ``q mod 2L``, mirrored so that
    ``e(2L - q) = conj(e(q))`` exactly: real cycles give exact conjugate pairs.
    """
    t = np.arange(size)
    half = np.exp(1j * np.pi / size * t)
    table = np.concatenate((half, [-1.0], half[:0:-1].conj()))
    q = 2 * t + np.array([[0], [1]])
    out = table[q], table[(q[:, :, None] * -t) % (2 * size)]
    for array in out:
        array.flags.writeable = False
    return out


def _levels(a: np.ndarray):
    """``(g, arcs)`` of ``a``'s arc digraph if it is one periodic component, else None.

    Arc ``j`` feeds arc ``k`` when ``a[k, j] != 0`` (exact zeros, as
    ``assemble`` leaves them).  A breadth-first search from arc 0 must
    reach every arc; it gives each a level, and the period ``g`` is the
    gcd of ``level[j] + 1 - level[k]`` over the arcs, so every arc runs
    from level class ``t`` to ``t + 1 (mod g)``.  A search back along the
    arcs must reach every arc too: the digraph is strongly connected.
    Returns ``(g, arcs)``, the arcs class by class (a cycle's in its own
    order, from arc 0), or None for period 1 with more than one arc,
    classes of unequal size, or an interior that is not one strongly
    connected component.  A weighted cycle (every cycle model, two-barrier
    line and ``crossing``) has period its length with one arc per class.
    """
    n = a.shape[0]
    feeds = [divmod(f, n) for f in np.flatnonzero(a != 0).tolist()]  # (k, j): arc j feeds arc k
    ahead = [[] for _ in range(n)]
    for k, j in feeds:
        ahead[j].append(k)
    level, arcs, g = [0] + [-1] * (n - 1), [0], 0
    for j in arcs:  # arcs grows as the search reaches new ones
        step = level[j] + 1
        for k in ahead[j]:
            if level[k] < 0:
                level[k] = step
                arcs.append(k)
            elif level[k] != step:
                g = math.gcd(g, step - level[k])
    if len(arcs) < n or not (g > 1 or n == g == 1):
        return None
    classes = [[] for _ in range(g)]
    for j in arcs:
        classes[level[j] % g].append(j)
    if any(len(c) * g != n for c in classes):
        return None
    back = [[] for _ in range(n)]
    for k, j in feeds:
        back[k].append(j)
    reached, seen = [0], {0}
    for k in reached:
        for j in back[k]:
            if j not in seen:
                seen.add(j)
                reached.append(j)
    return (g, [j for c in classes for j in c]) if len(reached) == n else None


def _cycle_eig(weights: np.ndarray, real: bool):
    """The eigenpairs of a weighted cycle, one per row of ``weights``, in closed form.

    On ``j_0 -> ... -> j_{L-1}``, ``a e_{j_t} = a_t e_{j_{t+1}}``, with
    weight product ``π`` and partial products ``P_t``, the values are the L
    roots ``μ`` of ``π``, ``v_{j_t} = P_t / μ^t`` and ``w*_{j_t} = 1 / (L v_{j_t})``.
    ``μ_0^t`` is ``exp((t/L)·log π)``; a real negative ``π`` takes the odd ``q``.
    Returns what :func:`_level_product_eig` does, a row per cycle, with
    residuals of 0, or a NaN norm and residual where ``π`` is 0 or not
    finite.  A cycle is the m = 1 case of that lift, skipped here, in scalar math per cycle.
    """
    size = weights.shape[1]
    prods = [list(accumulate(row, operator.mul, initial=1.0)) for row in weights.tolist()]
    good = [0 < abs(row[-1]) < math.inf for row in prods]
    prods = [row if ok else [1.0] * (size + 1) for row, ok in zip(prods, good)]  # a declined row stays finite
    pis = [row.pop() for row in prods]
    log_root = np.array([(math.log(abs(pi)) if real else cmath.log(pi)) / size for pi in pis])
    g = np.array(prods) / np.exp(np.arange(size) * log_root[:, None])  # P_t / μ_0^t
    odd = np.array([int(real and pi < 0) for pi in pis])
    odd = odd[0] if (odd == odd[0]).all() else odd  # one parity: its table, not a copy per row
    phases, powers = _root_powers(size)
    block = powers[odd] * g[:, None, :]
    norms = np.where(good, [max(map(abs, row)) for row in weights.tolist()], math.nan)
    return np.exp(log_root)[:, None] * phases[odd], block, np.divide(1 / size, block), norms, 0 * norms


def _level_product_eig(b: np.ndarray, real: bool):
    """The eigenpairs of a block-cyclic interior, from its level product, or None.

    ``b[k]`` (m × m) maps level class ``k`` to ``k + 1 (mod g)``.  Each
    eigenpair ``(μ, x)`` of ``P = b[g-1] ⋯ b[0]``, with ``y*`` the matching
    row of ``X^-1``, gives g values ``λ`` (the g-th roots of ``μ``,
    :func:`_root_powers`), the vectors ``v_k = b[k-1] ⋯ b[0] x / λ^k`` and
    the co-vectors ``w*_k = y* b[g-1] ⋯ b[k] λ^(k-g) / g``, so that
    ``W* V = I``.  A real ``P``'s pairs ``μ``, ``μ̄`` are lifted once and
    mirrored, and a real negative ``μ`` takes the odd roots, so a real
    interior's values and vectors come in exact conjugate pairs.  Rows
    run value by value, columns class by class.  Returns values, vector
    rows, dual rows, the 2-norm (the largest of a block's) and the
    largest relative residual ``||M v - λ v|| / ||v||`` of a lifted vector;
    None when ``P`` is singular.  The co-vectors are the vectors' duals
    through ``Y* X = I``, as ``inv(V)`` is on the ``eig`` path.
    """
    g, m = b.shape[:2]
    norms = np.linalg.svd(b, compute_uv=False)[:, 0]
    p = b[0]
    for block in b[1:]:
        p = block @ p
    mu, x = np.linalg.eig(p)
    mu = mu.astype(complex, copy=False)
    if not np.abs(mu).min() > m * UNIT_ROUNDOFF * np.multiply.reduce(norms):  # NaN too
        return None
    try:
        y = np.linalg.inv(x)
    except np.linalg.LinAlgError:
        return None
    # LAPACK gives a real matrix's nonreal values as pairs μ, μ̄ with conjugate
    # columns: lift the upper half-plane, then the real axis, and mirror the first
    mirrored = np.count_nonzero(mu.imag > 0) if real else 0
    keep = np.argsort(-np.sign(mu.imag), kind="stable")[: m - mirrored] if mirrored else slice(None)
    mu, x, y = mu[keep], x.T[keep], y[keep]
    # row-vector chains: x^T b[0]^T ⋯ b[k-1]^T forwards, y* b[g-1] ⋯ b[k] backwards
    lifted, pulled = np.empty((g + 1,) + x.shape, dtype=complex), np.empty((g,) + y.shape, dtype=complex)
    lifted[0], acc = x, y
    for k in range(g):
        lifted[k + 1] = lifted[k] @ b[k].T
        pulled[g - 1 - k] = acc = acc @ b[g - 1 - k]
    odd = real & (mu.imag == 0) & (mu.real < 0)
    log_root = np.log(np.where(odd, -mu, mu)) / g
    base = np.exp(np.multiply.outer(np.arange(g), log_root))  # μ_0^k, (g, K)
    pair = np.empty((2, g) + x.shape, dtype=complex)  # the levels of each v and w*
    np.divide(lifted[:g], base[:, :, None], out=pair[0])
    np.multiply(pulled, (base / (g * mu))[:, :, None], out=pair[1])
    # the lift leaves M v - λ v on level 0 alone: (P x - μ x) / λ^(g-1)
    residual = _squares(lifted[g] - mu[:, None] * x, 1) / np.square(np.abs(base[-1]))
    miss = math.sqrt((residual / _squares(pair[0], (0, 2))).max())
    phases, powers = _root_powers(g)
    parity = odd.astype(int)
    powers = powers[parity]  # (K, g, g): row j, column k holds e(-q_j k)
    size = g * m
    out = np.empty((2, m, g, g, m), dtype=complex)
    values = np.empty((m, g), dtype=complex)
    np.multiply(pair.transpose(0, 2, 1, 3)[:, :, None], np.stack((powers, powers.conj()))[..., None],
                out=out[:, : m - mirrored])
    np.multiply(np.exp(log_root)[:, None], phases[parity], out=values[: m - mirrored])
    if mirrored:  # the lower half-plane mirrors the upper one
        np.conjugate(out[:, :mirrored], out=out[:, m - mirrored :])
        np.conjugate(values[:mirrored], out=values[m - mirrored :])
    return values.ravel(), out[0].reshape(size, size), out[1].reshape(size, size), float(norms.max()), miss


def _squares(a: np.ndarray, axis) -> np.ndarray:
    """The summed squared moduli of complex ``a`` over ``axis`` (which holds its last axis)."""
    return np.square(a.view(float)).sum(axis=axis)


def _periodic_eig(a: np.ndarray):
    """Closed-form eigenpairs of the stacked ``a`` if their arc digraph is one periodic component.

    One :func:`_levels` search serves the stack's pattern.  Period g with
    one arc per class is a weighted cycle, lifted for the whole stack at
    once (:func:`_cycle_eig`); m > 1 arcs per class runs ``eig`` on each
    member's m × m level product (:func:`_level_product_eig`), whose lifted
    vectors must leave residuals within ``n·u·||M||``.  Returns stacked
    values, vectors, dual rows and 2-norms (NaN where declined), or None.
    """
    n = a.shape[1]
    levels = _levels(a[0])
    if levels is None:
        return None
    g, arcs = levels
    real = not np.iscomplexobj(a)
    if g == n:  # a cycle's arc feeds one arc: its column sum is its weight
        values, rows, co, scale, miss = _cycle_eig(a.sum(axis=1)[:, arcs], real)
    else:
        grid = np.array(arcs).reshape(g, -1)
        declined = (np.broadcast_to(0j, n), *[np.broadcast_to(0j, (n, n))] * 2, math.nan, 0.0)
        lifts = [_level_product_eig(b, real) or declined
                 for b in a[:, np.roll(grid, -1, axis=0)[:, :, None], grid[:, None, :]]]
        values, rows, co, scale, miss = map(np.stack, zip(*lifts))
    scale[~(miss <= n * UNIT_ROUNDOFF * scale)] = math.nan
    if arcs != list(range(n)):  # columns back in arc order
        inverse = np.argsort(arcs)
        rows, co = rows[:, :, inverse], co[:, :, inverse]
    return values, rows.transpose(0, 2, 1), co, scale


def _eig_pairs(a: np.ndarray):
    """Values, vectors (columns) and 2-norms of each of the stacked ``a``, LAPACK's call per member."""
    values, vectors = np.linalg.eig(a)
    scale = np.linalg.svd(a, compute_uv=False)[:, 0]
    return values.astype(complex, copy=False), vectors.astype(complex, copy=False), None, scale


def _unit_pivot(vectors: np.ndarray):
    """Per column of each stacked ``vectors``, its norm and the divisor to unit norm, real positive pivot."""
    size = np.abs(vectors)
    norms = np.sqrt(np.add.reduce(size * size, axis=1))
    pivot = np.arange(len(vectors))[:, None], size.argmax(axis=1), np.arange(vectors.shape[2])
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero column fails its caller's norm check
        return norms, vectors[pivot] * (norms / size[pivot])


def _right_chains(m: np.ndarray, lam: complex, mult: int, floor: float):
    """Right Jordan chains of a multiple cluster, each led by a unit eigenvector.

    The staircase runs on the cluster's generalized eigenspace, the null
    space of ``(M - λ)^mult``, and one product maps every chain vector
    back.  Returns the chain lengths and the vectors as columns, chain by
    chain; each chain is scaled so its eigenvector has unit norm and a
    real positive pivot, or raises ``IllConditionedChain`` below ``floor``.
    """
    n = m.shape[0]
    shifted = m - lam * np.eye(n)
    v0 = np.eye(n) if mult == n else _null_basis(np.linalg.matrix_power(shifted, mult), mult)
    lengths, coords = _nilpotent_chains(v0.conj().T @ shifted @ v0, floor)
    columns = v0 @ coords
    norms, divisors = _unit_pivot(columns[None, :, list(accumulate(lengths[:-1], initial=0))])
    if norms.min() < floor:
        raise IllConditionedChain(complex(lam), math.inf)
    return lengths, columns / divisors[0].repeat(lengths)


def _semisimple(spread: float, gram: list, n: int, scale: float, floor: float) -> bool:
    """Whether a multiple cluster takes its m unit ``eig`` columns X as its chains.

    ``spread`` is the largest distance from the cluster's value to one of
    its ``eig`` values, and ``gram`` the Gram matrix ``X* X`` (nested
    lists).  ``eig`` is backward stable, so each column's residual
    ``M x - μ x`` is within about ``n·u·||M||`` (u the unit roundoff) and,
    on the span of X, ``||(M - λ) y|| / ||y||`` is at most
    ``sqrt(m)·(spread + n·u·||M||) / σ_min(X)``, where Gershgorin's
    ``σ_min(X)² >= min_i (G_ii - Σ_{j≠i} |G_ij|)`` (exact for m = 2)
    bounds σ_min from below.  When the bound is below half the floor, every
    singular value of M - λ on that span is below the staircase's rank
    threshold (:func:`_nilpotent_chains`), and X spans the cluster's
    eigenspace.  A Jordan block fails: its ``eig`` columns are
    parallel to within ~u^(1/L), or its values split by as much.  ``ms``'s
    double zero passes, so its sweeps run no staircase at any ε.
    """
    gap = min(2 * abs(row[i]) - sum(map(abs, row)) for i, row in enumerate(gram))
    bound = math.sqrt(len(gram)) * (spread + n * UNIT_ROUNDOFF * scale)
    return bound < 0.5 * floor * math.sqrt(max(gap, 0.0))


def _multiple_clusters(m, columns, column_values, lams, widths, scale, floor):
    """Jordan chains of the multiple clusters that are not semisimple.

    Each multiple cluster is tested (:func:`_semisimple`) on the Gram
    matrix of its unit ``eig`` columns; a semisimple cluster keeps those
    columns as its chains, and each of the others runs the Jordan
    staircase, whose chains are written over its columns.  Returns the
    chain lengths of the latter, by cluster.
    """
    n = m.shape[0]
    staircase = {}
    for k, (start, width) in enumerate(zip(accumulate(widths, initial=0), widths)):
        if width > 1:
            own = slice(start, start + width)
            x = columns[:, own]
            spread = max(abs(value - lams[k]) for value in column_values[own].tolist())
            if not _semisimple(spread, (x.conj().T @ x).tolist(), n, scale, floor):
                staircase[k], columns[:, own] = _right_chains(m, lams[k], width, floor)
    return staircase


def _classify(to_tail: np.ndarray, from_tail: np.ndarray, right: np.ndarray, left_h: np.ndarray, starts):
    """Condition bound and on-circle flag of every cluster of a stack, in one
    pass, and the emission ``T_it V`` and pickup ``W* T_ti`` they are read from.

    ``right[i]`` and ``left_h[i]`` hold the chains V and co-chains W* of the
    walk with tail blocks ``to_tail[i]`` and ``from_tail[i]``; counting rows
    walk after walk, cluster ``k`` owns those from ``starts[k]`` to the next.
    The bound ``||V||_F·||W||_F`` is a simple cluster's condition, 1/|<v, w>|
    of unit v, w, and bounds a multiple one's ``EigenSystem.condition``.

    A cluster is on the unit circle when its states and co-states both
    miss the tails.  The walk maps interior + incoming arcs unitarily onto
    interior + outgoing arcs, so a unit (co-)eigenvector couples to the
    tails with norm sqrt(1 - |λ|²): 1.4e-8 at 1 - |λ| = 1e-16, which |λ|
    cannot resolve.  The coupling of a cluster is the Frobenius ratio
    ``||T V|| / ||V||``, summed over its chains' columns by one
    ``np.add.reduceat``, which keeps a one-column cluster's row bit for bit.
    """
    emission, pickup = to_tail @ right, left_h @ from_tail
    # row k of a walk: v_k, its emission, w_k* and its pickup; one squared norm of each,
    # summed over each block's columns by a 0/1 matrix
    blocks = (right.swapaxes(1, 2), emission.swapaxes(1, 2), left_h, pickup)
    segments = np.repeat(np.eye(4), [2 * block.shape[2] for block in blocks], axis=0)
    sq = np.square(np.concatenate(blocks, axis=2).view(float)) @ segments
    sq = np.add.reduceat(sq.reshape(-1, 4), starts, axis=0)
    circle = np.logical_and.reduce(sq[:, 1::2] <= CIRCLE_COUPLING_TOL**2 * sq[:, ::2], axis=1)
    return np.sqrt(sq[:, 0] * sq[:, 2]), circle, emission, pickup


class EigenStack(tuple):
    """The systems of a sequence of walks (:func:`eigen_decompose`), in order:
    ``matrix`` (the largest interior) and ``clusters`` (none) read as one system's."""

    clusters = ()

    def __new__(cls, systems, matrix: np.ndarray):
        out = super().__new__(cls, systems)
        out.matrix = matrix
        return out


def eigen_decompose(walks):
    """Cluster the interior spectrum of a walk, or of each of a sequence of walks,
    and build biorthogonal chains: an :class:`EigenSystem`, or their :class:`EigenStack`.

    One walk is a stack of one, on the same path: each step runs once over the walks of one dtype,
    tail shape and sparsity pattern, elementwise or as each walk's own LAPACK or BLAS call, so every
    array has the bits of its walk alone.  A stack that fails is decomposed again walk by walk, in
    order, so the first walk that fails alone raises its own error.
    """
    stack = walks if isinstance(walks, Sequence) else [walks]
    members, groups = [None] * len(stack), {}
    matrices = [np.asarray(walk.interior, dtype=complex) for walk in stack]
    # real where no entry is complex: LAPACK's real eig is 1.6-2.8x faster, its pairs exact
    inputs = [m if np.count_nonzero(m.imag) else m.real for m in matrices]
    for i, (walk, a) in enumerate(zip(stack, inputs)):
        groups.setdefault((a.dtype, np.shape(walk.interior_to_tail), (a != 0).tobytes()), []).append(i)
    largest = max(matrices, key=len, default=np.zeros((0, 0), complex))
    for own in groups.values():
        try:
            group = _decompose_group([stack[i] for i in own], [matrices[i] for i in own],
                                     np.stack([inputs[i] for i in own]))
        except (np.linalg.LinAlgError, NumericalError):
            if len(stack) == 1:  # a lone walk's error is its own
                raise
            return EigenStack(map(eigen_decompose, stack), largest)  # each walk alone, in order
        for i, member in zip(own, group):
            members[i] = member
    return EigenStack(members, largest) if stack is walks else members[0]


def _decompose_group(walks, matrices, a) -> list:
    """Each walk's system; ``a`` stacks their ``matrices``, of one dtype and pattern, for eig.
    The first failure raises, for :func:`eigen_decompose` to decompose each walk alone."""
    k, n = a.shape[:2]
    tails = [np.stack([getattr(w, t) for w in walks]) for t in ("interior_to_tail", "tail_to_interior")]
    if n == 0:
        empty = np.zeros(0, dtype=int)
        bound, flags, emission, pickup = _classify(*tails, a, a, empty)
        return [EigenSystem(m, np.zeros(0, complex), m, m, emission[i], pickup[i], empty, empty, flags, bound)
                for i, m in enumerate(matrices)]
    values, vectors, co, scale = _periodic_eig(a) or _eig_pairs(a)
    closed = np.isfinite(scale) & (co is not None)
    for _ in range(2):  # eig where the closed form declines (a NaN norm) or its values coincide
        tol = CLUSTER_REL_TOL * np.maximum(scale, 1e-300)
        close = np.abs(values[:, :, None] - values[:, None, :]) <= tol[:, None, None]
        simple = np.count_nonzero(close, axis=(1, 2)) == n  # the diagonal alone
        redo = np.isnan(scale) | closed & ~simple
        if not redo.any():
            break
        values[redo], vectors[redo], _, scale[redo] = _eig_pairs(a[redo])
        closed &= ~redo
    clusters, orders = {}, np.zeros((k, n), dtype=int)
    if simple.any():
        orders[simple] = _value_order(values[simple].tolist())
    for i in np.flatnonzero(~simple).tolist():
        groups, centres = _cluster_indices(values[i], float(tol[i]))
        orders[i] = [j for idx in groups for j in idx]
        clusters[i] = list(map(len, groups)), centres
    # each member's columns in Fortran order, as eig and the closed form give them alone
    members = np.arange(k)[:, None]
    columns = vectors.swapaxes(1, 2)[members, orders].swapaxes(1, 2)
    column_values = values[members, orders]
    floor = 1e-12 * np.maximum(scale, 1.0)
    # one pass normalises every column; the staircase writes its chains over its clusters' own
    norms, divisors = _unit_pivot(columns)
    short = norms.min(axis=1) < floor
    if short.any():  # a column too short to normalise
        i = int(short.argmax())
        raise IllConditionedChain(complex(column_values[i, norms[i].argmin()]), math.inf)
    columns /= divisors[:, None, :]
    staircase = {i: _multiple_clusters(matrices[i], columns[i], column_values[i], centres, widths, scale[i],
                                       floor[i]) for i, (widths, centres) in clusters.items()}
    left_h = np.empty(columns.shape, complex) if co is None else co[members, orders]
    if co is not None:  # the closed form's dual rows, scaled as their columns; eig's members take inv
        left_h *= divisors[:, :, None]
    solve = np.flatnonzero(~closed)
    try:
        left_h[solve] = np.linalg.inv(columns[solve])
    except np.linalg.LinAlgError:  # a singular basis: alone, blame the cluster nearest to another one
        if k > 1:
            raise  # each walk alone finds its own
        lams = np.array(clusters[0][1] if clusters else column_values[0])
        gaps = np.abs(np.subtract.outer(lams, lams)) + np.diag(np.full(len(lams), np.inf))
        raise IllConditionedChain(complex(lams[int(np.argmin(gaps.min(axis=1)))]), math.inf) from None
    widths = [clusters[i][0] if i in clusters else [1] * n for i in range(k)]
    starts = [i * n + start for i, own in enumerate(widths) for start in accumulate(own[:-1], initial=0)]
    bound, on_circle, emission, pickup = _classify(*tails, columns, left_h, starts)
    for array in (column_values, columns, left_h, emission, pickup):
        array.flags.writeable = False
    firsts = list(accumulate(map(len, widths), initial=0))
    systems = []
    for i, (own, cut) in enumerate(zip(widths, map(slice, firsts, firsts[1:]))):
        lams = column_values[i] if i not in clusters else np.array(clusters[i][1])
        lams.flags.writeable = False
        chains = staircase.get(i, {})
        lengths = [size for c, width in enumerate(own) for size in chains.get(c, [1] * width)]
        system = EigenSystem(matrices[i], lams, columns[i], left_h[i], emission[i], pickup[i],
                             np.array(own), np.array(lengths), on_circle[cut], bound[cut])
        if not np.maximum.reduce(bound[cut]) * GRAM_REL_TOL <= 1.0:  # NaN too: check the conditions
            condition = system.condition
            if not np.maximum.reduce(condition) * GRAM_REL_TOL <= 1.0:
                bad = int(condition.argmax())
                raise IllConditionedChain(complex(lams[bad]), float(condition[bad]))
        systems.append(system)
    return systems


# ---------------------------------------------------------------------------
# Resonances and resonant-state boundary data


@dataclass(frozen=True)
class Resonance:
    value: complex
    multiplicity: int
    on_unit_circle: bool


def resonance_set(walk):
    """All resonances of the walk, zero included (:func:`_resonances` of its system), and the system.

    Nonzero interior eigenvalues are resonances with their algebraic
    multiplicity; eigenvalue zero is reported as the conventional zero
    resonance.  Values on the unit circle are flagged — those are true
    eigenvalues of the full walk, whose states never reach the tails.
    """
    system = eigen_decompose(walk)
    return _resonances(system), system


def _resonances(system: EigenSystem) -> list:
    """One :class:`Resonance` per cluster of ``system``, a zero-value cluster at exactly 0."""
    values = np.where(_is_zero(system.values), 0j, system.values)
    return list(map(Resonance, values.tolist(), system.multiplicity.tolist(),
                    system.on_unit_circle.tolist()))


@dataclass(frozen=True)
class ResonantStateBoundary:
    """Innermost tail amplitudes of a simple resonance pair.

    ``interior`` is the unit right eigenvector, ``co_interior`` its dual
    left eigenvector.  ``out_data`` holds the outgoing-state values on
    the first outgoing tail arcs, ``in_data_co`` the incoming co-state
    values on the first incoming tail arcs.  For a unit-circle
    resonance both tail vectors vanish identically; the flag records
    that they were not computed but *are* exactly zero.
    """

    value: complex
    interior: np.ndarray
    co_interior: np.ndarray
    out_data: np.ndarray
    in_data_co: np.ndarray
    on_circle: bool


def boundary_data(walk, cluster: Cluster) -> ResonantStateBoundary:
    if not cluster.is_simple:
        raise NotSimple(
            f"cluster at {cluster.value:.6g} has multiplicity {cluster.multiplicity}"
        )
    lam = cluster.value
    v, w = cluster.right[:, 0], cluster.left_basis()[:, 0]
    if cluster.on_unit_circle:
        zero = np.zeros(walk.n_tails, dtype=complex)
        return ResonantStateBoundary(lam, v, w, zero, zero.copy(), True)
    if cluster.is_zero:
        raise ZeroCluster(
            "the zero resonance has no incoming/outgoing tail extension"
        )
    out_data = cluster.emission[:, 0] / lam
    in_data_co = cluster.pickup[0].conj() / np.conj(lam)
    return ResonantStateBoundary(lam, v, w, out_data, in_data_co, False)
