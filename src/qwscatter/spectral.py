"""Eigenvalue clusters and biorthogonal Jordan chains.

The interior restriction of a walk operator is a (generally
non-normal) contraction.  Everything downstream — resonance lists,
pole expansions of the scattering matrix, tunneling asymptotics —
consumes its spectral data in one fixed shape:

* eigenvalues are merged into *clusters* (numerically coincident
  eigenvalues are one resonance with multiplicity),
* each cluster carries right Jordan chains ``v_1, ..., v_L`` with
  ``(M - λ) v_l = v_{l-1}`` (``v_0 = 0``),
* co-chains ``w_1, ..., w_L`` with ``(M* - λ̄) w_l = w_{l+1}``
  (``w_{L+1} = 0``), normalized so that ``<v, w>`` pairs to the
  identity,
* and a cluster is on the unit circle exactly when its states do not
  couple to the tails (a bound state of the full walk).

One ``eig`` of the interior serves every simple cluster: its column is
the eigenvector.  A real interior (every builtin, line and cycle model)
runs the real eigensolver, so its nonreal clusters come in exact
conjugate pairs; the arrays downstream stay complex.  Every simple
cluster is normalised, conditioned and classified on or off the circle
in one vectorised pass over the whole basis.  Only clusters of
multiplicity above one run the Jordan staircase, on their own
generalized eigenspace, and take the 2-norms of their condition from
one stacked singular-value call.

The co-chains are *not* built by running the chain algorithm on the
adjoint: they are the dual basis of the whole right basis ``V`` (every
chain of every cluster), the columns of ``inv(V)*``.  If ``M V = V J``
then automatically ``M* W = W J*``, which is exactly the co-chain
recursion — so ``W* V = I`` holds across the whole spectrum, within
clusters and between them, and the chain relations hold to the
accuracy of the right basis.

A weighted permutation (one nonzero per row and column: every cycle
model, two-barrier line and ``crossing``), on which QR iteration is
slowest, takes its eigenpairs in closed form from its cycles, in O(n0²)
and to a few u, unless two of its values fall within the cluster
tolerance.  Normalisation and classification are shared.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

CLUSTER_REL_TOL = 1e-8
# Tail coupling below which a cluster is on the unit circle (see
# ``_decoupled``); a decoupled state shows ~1e-16 of roundoff there.
CIRCLE_COUPLING_TOL = 1e-12
RANK_REL_TOL = 1e-10
GRAM_REL_TOL = 1e-12
ZERO_VALUE_TOL = 1e-9


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


def _columns(blocks: tuple) -> np.ndarray:
    """The rows of ``blocks`` as read-only columns (a view for one block)."""
    out = (blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)).T
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Cluster:
    value: complex
    chains: tuple  # of ndarrays, shape (length, dim); row l-1 is v_l
    co_chains: tuple  # matching shapes
    on_unit_circle: bool
    condition: float  # ||V||·||W||, the bound on its spectral projector

    @cached_property
    def multiplicity(self) -> int:
        return sum(c.shape[0] for c in self.chains)

    @property
    def is_simple(self) -> bool:
        return self.multiplicity == 1

    @property
    def is_zero(self) -> bool:
        """The conventional zero resonance (eigenvalue zero)."""
        return abs(self.value) <= ZERO_VALUE_TOL

    @cached_property
    def _right(self) -> np.ndarray:
        return _columns(self.chains)

    @cached_property
    def _left(self) -> np.ndarray:
        return _columns(self.co_chains)

    def right_basis(self) -> np.ndarray:
        """All chain vectors as columns, chain-major, l ascending (read-only)."""
        return self._right

    def left_basis(self) -> np.ndarray:
        return self._left

    def project(self, f: np.ndarray) -> np.ndarray:
        """Spectral (oblique) projection of ``f`` onto this cluster."""
        v = self.right_basis()
        w = self.left_basis()
        return v @ (w.conj().T @ f)


class PoleBasis(NamedTuple):
    """Every off-circle chain, stacked (column/row k is chain vector k)."""

    values: np.ndarray  # (s,): the cluster value of each column
    right: np.ndarray  # (n0, s): the chain vectors V, C-contiguous
    left_h: np.ndarray  # (s, n0): the co-chain vectors W*
    links: tuple  # columns k whose chain continues in column k + 1


def _pole_basis(clusters, n0: int) -> PoleBasis:
    """The chains of ``clusters`` as one basis on ``n0`` interior sites."""
    empty = np.zeros((n0, 0), dtype=complex)
    right = np.concatenate([empty] + [c.right_basis() for c in clusters], axis=1)
    left = np.concatenate([empty] + [c.left_basis() for c in clusters], axis=1)
    values, links = [], []
    for c in clusters:
        for chain in c.chains:
            links += range(len(values), len(values) + chain.shape[0] - 1)
            values += [c.value] * chain.shape[0]
    return PoleBasis(
        np.array(values, dtype=complex),
        right,
        np.ascontiguousarray(left.conj().T),
        tuple(links),
    )


@dataclass(frozen=True)
class EigenSystem:
    matrix: np.ndarray
    clusters: tuple

    def off_circle(self):
        return [c for c in self.clusters if not c.on_unit_circle]

    @cached_property
    def poles(self) -> PoleBasis:
        """The chains of every off-circle cluster, as one basis.

        Columns run cluster by cluster and, within a cluster, chain by
        chain with ``l`` ascending, so ``M V = V J`` for the Jordan matrix
        ``J`` whose superdiagonal is one exactly at ``links``.  The basis
        depends on neither ``z`` nor the incoming data, so it is built
        once, and each analytic route sums every pole in one pass.
        """
        return _pole_basis(self.off_circle(), self.matrix.shape[0])

    def on_circle(self):
        return [c for c in self.clusters if c.on_unit_circle]

    def zero_cluster(self):
        for c in self.clusters:
            if c.is_zero:
                return c
        return None

    def nearest_cluster(self, value: complex) -> Cluster:
        return min(self.clusters, key=lambda c: abs(c.value - value))


def _cluster_indices(values: np.ndarray, tol: float):
    """Transitive merge of eigenvalues closer than ``tol``.

    Union-find is order-independent; ambiguity is flagged afterwards if
    transitivity stretched a cluster beyond diameter 2*tol, which is
    exactly when a greedy pass would have been order-dependent.  With no
    two eigenvalues that close, every cluster is one eigenvalue.
    """
    n = len(values)
    close = np.abs(np.subtract.outer(values, values)) <= tol
    if np.count_nonzero(close) == n:  # the diagonal of finite values alone
        keys = list(map(_sort_key, values.tolist()))
        return [[a] for a in sorted(range(n), key=keys.__getitem__)]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(*np.nonzero(np.triu(close, 1))):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[rb] = ra

    groups: dict = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(a)

    for idx in groups.values():
        for pos, a in enumerate(idx):
            for b in idx[pos + 1 :]:
                if abs(values[a] - values[b]) > 2 * tol:
                    raise ClusterAmbiguity(
                        f"eigenvalues {values[a]:.9g} and {values[b]:.9g} were "
                        f"merged only through intermediaries (tolerance {tol:.3e})"
                    )
    # deterministic cluster order: by mean eigenvalue, lexicographic
    return sorted(groups.values(), key=lambda idx: _sort_key(_centre(values, idx)))


def _centre(values: np.ndarray, idx) -> complex:
    """The value of the cluster ``idx``: its eigenvalue, or their mean."""
    return complex(values[idx[0]] if len(idx) == 1 else values[idx].mean())


def _sort_key(z: complex):
    return (round(z.real, 12), round(z.imag, 12))


def _null_dim(sigmas: np.ndarray, total: int, floor: float) -> int:
    if len(sigmas) == 0:
        return total
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
    semisimple cluster, most often shown by ``r``'s norm alone) they span
    the whole space.
    """
    m = r.shape[0]
    if np.vdot(r, r).real < 0.25 * floor * floor:
        # ||r||_F < floor/2: every singular value is below the rank threshold
        return [1] * m, np.eye(m)
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


def _eig_input(m: np.ndarray) -> np.ndarray:
    """``m`` in the arithmetic its entries need: real when none is complex.

    LAPACK's real eigensolver is 1.6-2.8 times faster than the complex one
    on the same matrix, and it returns the nonreal eigenvalues of a real
    matrix, and their eigenvectors, as exact conjugate pairs.  Every
    eigensolve of an interior goes through here, so the eigenvalues the
    clusters carry and the ones ``asymptotics`` tracks round alike.
    """
    return m if m.imag.any() else m.real


@lru_cache(maxsize=16)
def _root_powers(size: int, odd: int):
    """``e(q_k)`` and ``E[k, t] = e(-q_k t)`` for ``q_k = 2k + odd``, ``e(q) = exp(iπq/L)``.

    One table over the integers ``q mod 2L``, mirrored so that
    ``e(2L - q) = conj(e(q))`` exactly: real cycles give exact conjugate pairs.
    """
    t = np.arange(size)
    half = np.exp(1j * np.pi / size * t)
    table = np.concatenate((half, [-1.0], half[:0:-1].conj()))
    out = table[2 * t + odd], table[np.multiply.outer(2 * t + odd, -t) % (2 * size)]
    for array in out:
        array.flags.writeable = False
    return out


def _permutation_eig(a: np.ndarray):
    """Closed-form eigenpairs of ``a`` if it is a weighted permutation with distinct values.

    On a cycle ``j_0 -> ... -> j_{L-1}``, ``a e_{j_t} = a_t e_{j_{t+1}}``, with
    weight product ``π`` and partial products ``P_t``, the values are the L
    roots ``μ`` of ``π``, ``v_{j_t} = P_t / μ^t`` and ``w_{j_t} = conj(μ^t / (L P_t))``.
    ``μ_0^t`` is ``exp((t/L)·log π)``; a real negative ``π`` takes the odd ``q``.
    Returns values, vectors (columns), co-vectors (rows) and the 2-norm, or None.
    """
    n = a.shape[0]
    nz = a != 0
    if not n or np.count_nonzero(nz) != n:
        return None
    succ = nz.argmax(axis=0)
    weights, succ = a[succ, np.arange(n)].tolist(), succ.tolist()
    if len(set(succ)) != n or not all(weights):
        return None
    real = not np.iscomplexobj(a)
    values = np.empty(n, dtype=complex)
    rows, co = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    left, stop = set(range(n)), 0
    for head in range(n):
        if head not in left:
            continue
        cycle = [head]
        while succ[cycle[-1]] != head:
            cycle.append(succ[cycle[-1]])
        left.difference_update(cycle)
        size, cut, stop = len(cycle), slice(stop, stop + len(cycle)), stop + len(cycle)
        prods = list(accumulate((weights[j] for j in cycle), operator.mul, initial=1.0))
        pi = prods.pop()
        if not 0 < abs(pi) < math.inf:
            return None
        log_root = (math.log(abs(pi)) if real else cmath.log(pi)) / size
        g = np.array(prods) / np.exp(np.arange(size) * log_root)  # P_t / μ_0^t
        phases, powers = _root_powers(size, int(real and pi < 0))
        values[cut] = np.exp(log_root) * phases
        rows[cut, cycle] = block = powers * g
        co[cut, cycle] = np.multiply(powers, 1 / (size * g.conj()), out=block)
    scale = max(map(abs, weights))
    if np.count_nonzero(np.abs(np.subtract.outer(values, values)) <= CLUSTER_REL_TOL * scale) > n:
        return None
    return values, rows.T, co, scale


def _eig_pairs(a: np.ndarray):
    """Values, vectors (columns) and 2-norm of ``a`` from LAPACK; no co-vectors."""
    values, vectors = np.linalg.eig(a)
    return values.astype(complex, copy=False), vectors, None, float(np.linalg.svd(a, compute_uv=False)[0])


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """The eigenvalues of the interior ``m``, rounded as its clusters carry them."""
    a = _eig_input(m)
    closed = _permutation_eig(a)
    return closed[0] if closed is not None else np.linalg.eigvals(a).astype(complex, copy=False)


def _unit_pivot(vectors: np.ndarray, values, floor: float) -> np.ndarray:
    """Per column of ``vectors``, the divisor that leaves it unit with a real positive pivot.

    ``values[k]`` is the eigenvalue of column ``k``; a column shorter than
    ``floor`` raises ``IllConditionedChain`` there.
    """
    norms = np.sqrt(_column_sq(vectors))
    short = norms < floor
    if short.any():
        raise IllConditionedChain(complex(values[int(short.argmax())]), float("inf"))
    pivots = vectors[np.abs(vectors).argmax(axis=0), np.arange(vectors.shape[1])]
    return norms * (pivots / np.abs(pivots))


def _right_chains(m: np.ndarray, lam: complex, mult: int, floor: float):
    """Right Jordan chains of a multiple cluster, each led by a unit eigenvector.

    The staircase runs on the cluster's generalized eigenspace, the null
    space of ``(M - λ)^mult``, and one product maps every chain vector
    back.  Returns the chain lengths and the vectors as rows, chain by
    chain; each chain is scaled so its eigenvector has unit norm and a
    real positive pivot.
    """
    n = m.shape[0]
    shifted = m - lam * np.eye(n)
    v0 = np.eye(n) if mult == n else _null_basis(np.linalg.matrix_power(shifted, mult), mult)
    lengths, coords = _nilpotent_chains(v0.conj().T @ shifted @ v0, floor)
    columns = v0 @ coords
    heads = list(accumulate(lengths[:-1], initial=0))
    divisors = _unit_pivot(columns[:, heads], [lam] * len(heads), floor)
    return lengths, (columns / divisors.repeat(lengths)).T


def _column_sq(a: np.ndarray) -> np.ndarray:
    """Squared 2-norm of every column of ``a``."""
    return (a.real * a.real + a.imag * a.imag).sum(axis=0)


def _classify(walk, basis: np.ndarray, dual: np.ndarray, starts: np.ndarray):
    """Condition number and on-circle flag of every cluster, in one pass.

    Cluster ``k`` owns the columns from ``starts[k]`` up to the next start
    of ``basis`` (its chains V) and ``dual`` (its co-chains W).
    ``||V||·||W||`` bounds the cluster's spectral projector; for a simple
    cluster it is the eigenvalue condition number 1/|<v, w>| of unit v, w,
    taken from column norms, and a multiple one takes the largest singular
    values of V and W, from one stacked call.

    A cluster is on the unit circle when its states and co-states both
    miss the tails.  The walk maps interior + incoming arcs unitarily
    onto interior + outgoing arcs, so a unit eigenvector or co-eigenvector
    couples to the tails with norm sqrt(1 - |λ|²), and the gap to the
    circle shows as a square root: 1.4e-8 at 1 - |λ| = 1e-16, which |λ|
    cannot resolve.  The coupling of a cluster is the Frobenius ratio
    ``||T V|| / ||V||``, summed column by column over its chains.
    """
    tails = (walk.interior_to_tail @ basis, walk.tail_to_interior.conj().T @ dual)
    states_sq = np.array([_column_sq(basis), _column_sq(dual)])
    tails_sq = np.array([_column_sq(block) for block in tails])
    condition = np.sqrt(states_sq[0]) * np.sqrt(states_sq[1])
    if len(starts) < basis.shape[1]:  # some cluster owns several columns
        condition = condition[starts]
        ends = list(starts[1:]) + [basis.shape[1]]
        for k, (start, end) in enumerate(zip(starts, ends)):
            if end - start > 1:
                pair = np.stack([basis[:, start:end], dual[:, start:end]])
                sigmas = np.linalg.svd(pair, compute_uv=False)
                condition[k] = sigmas[0, 0] * sigmas[1, 0]
        states_sq = np.add.reduceat(states_sq, starts, axis=1)
        tails_sq = np.add.reduceat(tails_sq, starts, axis=1)
    coupling = np.sqrt(tails_sq / states_sq)
    return condition, np.logical_and.reduce(coupling <= CIRCLE_COUPLING_TOL)


def eigen_decompose(walk) -> EigenSystem:
    """Cluster the interior spectrum of ``walk`` and build biorthogonal chains."""
    m = np.asarray(walk.interior, dtype=complex)
    n = m.shape[0]
    if n == 0:
        return EigenSystem(m, ())
    a = _eig_input(m)
    values, vectors, co, scale = _permutation_eig(a) or _eig_pairs(a)
    floor = 1e-12 * max(scale, 1.0)
    groups = _cluster_indices(values, CLUSTER_REL_TOL * max(scale, 1e-300))
    lams = [_centre(values, idx) for idx in groups]
    widths = [len(idx) for idx in groups]
    starts = list(accumulate(widths[:-1], initial=0))

    # row k of ``rows`` is chain vector k: the columns of the right basis
    rows = np.empty((n, n), dtype=complex)
    simple = [idx[0] for idx in groups if len(idx) == 1]
    eigvecs = vectors[:, simple]
    simple_starts = [start for start, width in zip(starts, widths) if width == 1]
    divisors = _unit_pivot(eigvecs, values[simple], floor)
    rows[simple_starts] = (eigvecs / divisors).T
    lengths = [(1,)] * len(groups)  # of each cluster's chains
    for k, (lam, start, width) in enumerate(zip(lams, starts, widths)):
        if width > 1:
            lengths[k], rows[start : start + width] = _right_chains(m, lam, width, floor)
    basis = rows.T
    if co is not None:  # the closed form: every cluster is simple
        dual_rows = co[simple]
        dual_rows *= divisors.conj()[:, None]
    else:
        try:
            dual_rows = np.linalg.inv(basis).conj()
        except np.linalg.LinAlgError:
            # a singular basis: blame the cluster nearest to another one
            gaps = np.abs(np.subtract.outer(lams, lams)) + np.diag(np.full(len(lams), np.inf))
            raise IllConditionedChain(lams[int(np.argmin(gaps.min(axis=1)))], float("inf"))

    condition, on_circle = _classify(walk, basis, dual_rows.T, starts)
    good = condition * GRAM_REL_TOL <= 1.0
    if not good.all():
        bad = int(good.argmin())
        raise IllConditionedChain(lams[bad], float(condition[bad]))

    clusters, stop = [], 0
    for lam, chain_lengths, kappa, circle in zip(lams, lengths, condition.tolist(), on_circle.tolist()):
        cuts = []
        for length in chain_lengths:
            cuts.append(slice(stop, stop + length))
            stop += length
        chains = tuple(rows[cut] for cut in cuts)
        clusters.append(Cluster(lam, chains, tuple(dual_rows[cut] for cut in cuts), circle, kappa))
    return EigenSystem(m, tuple(clusters))


# ---------------------------------------------------------------------------
# Resonances and resonant-state boundary data


@dataclass(frozen=True)
class Resonance:
    value: complex
    multiplicity: int
    on_unit_circle: bool


def resonance_set(walk):
    """All resonances of the walk: interior eigenvalues, zero included.

    Nonzero interior eigenvalues are resonances with their algebraic
    multiplicity; eigenvalue zero is reported as the conventional zero
    resonance.  Values on the unit circle are flagged — those are true
    eigenvalues of the full walk, whose states never reach the tails.
    """
    system = eigen_decompose(walk)
    out = []
    for c in system.clusters:
        value = 0j if c.is_zero else c.value
        out.append(Resonance(value, c.multiplicity, c.on_unit_circle))
    return out, system


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
    v = cluster.chains[0][0]
    w = cluster.co_chains[0][0]
    nt = walk.n_tails
    if cluster.on_unit_circle:
        zero = np.zeros(nt, dtype=complex)
        return ResonantStateBoundary(lam, v, w, zero, zero.copy(), True)
    if cluster.is_zero:
        raise ZeroCluster(
            "the zero resonance has no incoming/outgoing tail extension"
        )
    out_data = (walk.interior_to_tail @ v) / lam
    in_data_co = (walk.tail_to_interior.conj().T @ w) / np.conj(lam)
    return ResonantStateBoundary(lam, v, w, out_data, in_data_co, False)
