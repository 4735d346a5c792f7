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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    exactly when a greedy pass would have been order-dependent.
    """
    n = len(values)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    close = np.abs(np.subtract.outer(values, values)) <= tol
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


def _nilpotent_chains(r: np.ndarray, floor: float):
    """Jordan chains of a (numerically) nilpotent matrix.

    Returns a list of chains, each an array of rows ``v_1 .. v_L`` with
    ``r @ v_l = v_{l-1}``.  The staircase is the textbook one: count
    nullities of powers, then pick chain tops in ``null(r^k)`` that are
    independent of ``null(r^(k-1))`` and of the vectors already occupied
    by longer chains.
    """
    m = r.shape[0]
    if m == 1:
        return [np.eye(1, dtype=complex)]

    null_bases = [np.zeros((m, 0), dtype=complex)]
    dims = [0]
    power = np.eye(m, dtype=complex)
    kmax = m
    for k in range(1, m + 1):
        power = power @ r
        u, s, vh = np.linalg.svd(power)
        d = max(_null_dim(s, m, floor), dims[-1])
        null_bases.append(vh[m - d :].conj().T if d else np.zeros((m, 0), dtype=complex))
        dims.append(d)
        if d >= m:
            kmax = k
            break
    else:
        # numerically the nilpotency never completed; force it
        dims[-1] = m
        null_bases[-1] = np.eye(m, dtype=complex)
        kmax = len(dims) - 1

    # r_k = chains of length >= k
    geq = [dims[k] - dims[k - 1] for k in range(1, kmax + 1)]
    chains = []
    for k in range(kmax, 0, -1):
        longer = geq[k] if k < kmax else 0
        n_new = geq[k - 1] - longer
        if n_new <= 0:
            continue
        occupied = [c[k - 1] for c in chains]  # height-k vectors of longer chains
        blockers = [null_bases[k - 1]] + [v.reshape(m, 1) for v in occupied]
        blocker = np.concatenate(blockers, axis=1)
        candidates = null_bases[k]
        if blocker.shape[1]:
            q, _ = np.linalg.qr(blocker)
            candidates = candidates - q @ (q.conj().T @ candidates)
        u, s, vh = np.linalg.svd(candidates)
        tops = u[:, :n_new]
        for t in tops.T:
            rows = [t]
            for _ in range(k - 1):
                rows.append(r @ rows[-1])
            chains.append(np.array(rows[::-1]))  # v_1 first
    # longest chains first, deterministic
    chains.sort(key=lambda c: -c.shape[0])
    return chains


def _eig_input(m: np.ndarray) -> np.ndarray:
    """``m`` in the arithmetic its entries need: real when none is complex.

    LAPACK's real eigensolver is 1.6-2.8 times faster than the complex one
    on the same matrix, and it returns the nonreal eigenvalues of a real
    matrix, and their eigenvectors, as exact conjugate pairs.  Every
    eigensolve of an interior goes through here, so the eigenvalues the
    clusters carry and the ones ``asymptotics`` tracks round alike.
    """
    return m if m.imag.any() else m.real


def _unit_pivot(vectors: np.ndarray, values, floor: float) -> np.ndarray:
    """Per column of ``vectors``, the divisor that leaves it unit with a real positive pivot.

    ``values[k]`` is the eigenvalue of column ``k``; a column shorter than
    ``floor`` raises ``IllConditionedChain`` there.
    """
    norms = np.sqrt(_column_sq(vectors))
    short = np.flatnonzero(norms < floor)
    if short.size:
        raise IllConditionedChain(complex(values[short[0]]), float("inf"))
    cols = np.arange(vectors.shape[1])
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), cols]
    return norms * (pivots / np.abs(pivots))


def _right_chains(m: np.ndarray, lam: complex, mult: int, floor: float):
    """Right Jordan chains of a multiple cluster, each led by a unit eigenvector.

    The staircase runs on the cluster's generalized eigenspace, the null
    space of ``(M - λ)^mult``.  Every chain is scaled so its eigenvector
    has unit norm and a real positive pivot.
    """
    n = m.shape[0]
    if mult == n:
        v0 = np.eye(n, dtype=complex)
    else:
        power = np.linalg.matrix_power(m - lam * np.eye(n), mult)
        v0 = np.linalg.svd(power)[2][n - mult :].conj().T
    restricted = v0.conj().T @ (m - lam * np.eye(n)) @ v0
    chains = [chain @ v0.T for chain in _nilpotent_chains(restricted, floor)]
    leads = np.stack([chain[0] for chain in chains], axis=1)
    divisors = _unit_pivot(leads, [lam] * len(chains), floor)
    return [chain / d for chain, d in zip(chains, divisors)]


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
    right_sq, left_sq = _column_sq(basis), _column_sq(dual)
    condition = np.sqrt(right_sq[starts]) * np.sqrt(left_sq[starts])
    ends = np.append(starts[1:], basis.shape[1])
    for k in np.flatnonzero(ends - starts > 1):
        cols = slice(starts[k], ends[k])
        sigmas = np.linalg.svd(np.stack([basis[:, cols], dual[:, cols]]), compute_uv=False)
        condition[k] = sigmas[0, 0] * sigmas[1, 0]

    def coupling(block, columns_sq):
        return np.sqrt(
            np.add.reduceat(_column_sq(block), starts) / np.add.reduceat(columns_sq, starts)
        )

    emitted = coupling(walk.interior_to_tail @ basis, right_sq)
    picked = coupling(walk.tail_to_interior.conj().T @ dual, left_sq)
    return condition, (emitted <= CIRCLE_COUPLING_TOL) & (picked <= CIRCLE_COUPLING_TOL)


def eigen_decompose(walk) -> EigenSystem:
    """Cluster the interior spectrum of ``walk`` and build biorthogonal chains."""
    m = np.asarray(walk.interior, dtype=complex)
    n = m.shape[0]
    if n == 0:
        return EigenSystem(m, ())
    a = _eig_input(m)
    scale = float(np.linalg.svd(a, compute_uv=False)[0])  # the 2-norm
    values, vectors = np.linalg.eig(a)
    values = values.astype(complex, copy=False)
    floor = 1e-12 * max(scale, 1.0)
    groups = _cluster_indices(values, CLUSTER_REL_TOL * max(scale, 1e-300))
    lams = [_centre(values, idx) for idx in groups]
    widths = np.array([len(idx) for idx in groups])
    starts = np.cumsum(widths) - widths

    # row k of ``rows`` is chain vector k: the columns of the right basis
    rows = np.empty((n, n), dtype=complex)
    simple = np.array([idx[0] for idx in groups if len(idx) == 1], dtype=int)
    eigvecs = vectors[:, simple]
    rows[starts[widths == 1]] = (eigvecs / _unit_pivot(eigvecs, values[simple], floor)).T
    chains = [None] * len(groups)
    for k in np.flatnonzero(widths > 1):
        chains[k] = _right_chains(m, lams[k], int(widths[k]), floor)
        rows[starts[k] : starts[k] + widths[k]] = np.concatenate(chains[k], axis=0)
    basis = rows.T
    try:
        dual_rows = np.linalg.inv(basis).conj()
    except np.linalg.LinAlgError:
        # a singular basis: blame the cluster nearest to another one
        gaps = np.abs(np.subtract.outer(lams, lams)) + np.diag(np.full(len(lams), np.inf))
        raise IllConditionedChain(lams[int(np.argmin(gaps.min(axis=1)))], float("inf"))

    condition, on_circle = _classify(walk, basis, dual_rows.T, starts)
    bad = np.flatnonzero(~(condition * GRAM_REL_TOL <= 1.0))
    if bad.size:
        raise IllConditionedChain(lams[bad[0]], float(condition[bad[0]]))

    clusters = []
    for k, lam in enumerate(lams):
        offset = int(starts[k])
        group = chains[k] or [rows[offset : offset + 1]]
        co_chains = []
        for chain in group:
            length = chain.shape[0]
            co_chains.append(dual_rows[offset : offset + length])
            offset += length
        clusters.append(
            Cluster(
                value=lam,
                chains=tuple(group),
                co_chains=tuple(co_chains),
                on_unit_circle=bool(on_circle[k]),
            )
        )

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
