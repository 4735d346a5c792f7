"""Scattering matrices of tailed walks, three ways.

For a spectral parameter ``z`` on (or off) the unit circle and an
incoming amplitude pattern ``amp_in`` on the tails, the scattered wave
is determined by an interior vector ``u`` solving

    (U_interior - z) u = -(tail_to_interior @ amp_in),

after which the outgoing amplitudes are
``interior_to_tail @ u + tail_to_tail @ amp_in``.

Three constructions of the same object live here:

* the *resolvent* route expands ``u`` over spectral projections and
  nilpotent corrections of the interior matrix,
* the *expansion* route never forms ``u`` at all — it sums one
  pole block per off-circle resonance, each block built purely from
  the resonance's boundary data (tail values of resonant states and
  co-states), plus the zero-resonance block that also carries the
  direct tail-to-tail term,
* the *oracle* solves the linear system head-on and exists so the two
  structured routes can be checked against something with no shared
  machinery.

``generalized_eigenfunction`` and ``oracle_direct_solve`` take one
incoming vector or a matrix of incoming columns, so the resolvent route
scatters every tail in one pass per ``z`` (``amp_in = np.eye(n_tails)``).

The routes agree wherever they are all defined; keeping them separate
is the point, so resist the urge to share intermediate results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    Cluster,
    EigenSystem,
    NumericalError,
    ZeroCluster,
    eigen_decompose,
)
from .walk import WalkOperator

SMALL_Z = 1e-6
EIGENVALUE_HIT_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-8
ORACLE_RESIDUAL_TOL = 1e-6
NORMALIZATION_TOL = 1e-10
SUPPORT_TOL = 1e-12


class PoleHit(NumericalError):
    """The spectral parameter sits on (or too near) a pole."""


class AtInteriorResonance(PoleHit):
    def __init__(self, z: complex, value: complex):
        super().__init__(
            f"z = {z:.9g} is within {EIGENVALUE_HIT_TOL:.0e} of the interior "
            f"eigenvalue {value:.9g}; the scattered wave has a pole there"
        )


class OrthogonalityViolated(NumericalError):
    """The driving vector overlaps a bound state of the walk.

    Incoming data whose interior drive has a component along a
    unit-circle eigenvector cannot be scattered: that part of the wave
    stays trapped.
    """


class SingularSystem(np.linalg.LinAlgError, NumericalError):
    """The direct solve did not produce a consistent solution."""


class BadSupport(ValueError):
    """Incoming amplitudes live outside the declared channel split."""


class NotNormalized(ValueError):
    def __init__(self, norm: float):
        self.norm = norm
        super().__init__(f"incoming amplitude has norm {norm!r}, expected 1")


@dataclass(frozen=True)
class ScatterSolution:
    """Scattered waves: interior amplitudes and outgoing tail data.

    ``interior`` and ``amp_out`` have one column per column of ``amp_in``
    (plain vectors for a vector input).
    """

    z: complex
    amp_in: np.ndarray
    interior: np.ndarray
    amp_out: np.ndarray
    circle_overlap: float


def _check_z(z: complex) -> complex:
    z = complex(z)
    if abs(z) < SMALL_Z:
        raise PoleHit(
            f"|z| = {abs(z):.3e} is inside the zero-resonance guard ({SMALL_Z:.0e})"
        )
    return z


def generalized_eigenfunction(
    walk: WalkOperator,
    z: complex,
    amp_in: np.ndarray,
    system: EigenSystem | None = None,
) -> ScatterSolution:
    """Scattered wave for incoming data ``amp_in`` at parameter ``z``.

    The interior part is assembled cluster by cluster from the spectral
    projections: for each off-circle cluster with value λ and
    multiplicity m, the contribution is

        sum_{k<m} (M - λ)^k P f / (z - λ)^(k+1),

    with ``f`` the interior drive.  Unit-circle clusters must not see
    any of ``f`` (they would trap amplitude forever); their projections
    are measured and reported, and a violation is an error.

    ``amp_in`` may be one incoming vector or a matrix whose columns are
    scattered at once; the overlap is checked column by column.
    """
    z = _check_z(z)
    amp_in = np.asarray(amp_in, dtype=complex)
    if system is None:
        system = eigen_decompose(walk)
    for cluster in system.off_circle():
        if abs(z - cluster.value) <= EIGENVALUE_HIT_TOL:
            raise AtInteriorResonance(z, cluster.value)

    f = walk.tail_to_interior @ amp_in
    scale = np.maximum(1.0, np.linalg.norm(amp_in, axis=0))
    overlap = np.zeros(amp_in.shape[1:])
    for cluster in system.on_circle():
        overlap = np.maximum(overlap, np.linalg.norm(cluster.project(f), axis=0))
    if np.any(overlap > ORTHOGONALITY_TOL * scale):
        raise OrthogonalityViolated(
            f"drive overlaps unit-circle eigenvectors with norm {np.max(overlap):.3e}"
        )

    u = np.zeros(f.shape, dtype=complex)
    m_mat = walk.interior
    for cluster in system.off_circle():
        lam = cluster.value
        current = cluster.project(f)
        for k in range(cluster.multiplicity):
            u += current / (z - lam) ** (k + 1)
            if k + 1 < cluster.multiplicity:
                current = m_mat @ current - lam * current
    amp_out = walk.interior_to_tail @ u + walk.tail_to_tail @ amp_in
    return ScatterSolution(z, amp_in, u, amp_out, float(np.max(overlap, initial=0.0)))


def oracle_direct_solve(
    walk: WalkOperator, z: complex, amp_in: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force scattered wave; the check everything else answers to.

    Solves the interior linear system directly.  When ``z`` sits on a
    unit-circle eigenvalue the system is singular but consistent (the
    drive is orthogonal to the trapped states), and the minimum-norm
    least-squares solution is returned — which is the same
    representative the spectral routes produce, since trapped states
    project orthogonally.

    ``amp_in`` may be one incoming vector or a matrix whose columns are
    solved at once (``np.eye(n_tails)`` gives the scattering matrix);
    the residual is checked column by column.
    """
    z = complex(z)
    amp_in = np.asarray(amp_in, dtype=complex)
    f = walk.tail_to_interior @ amp_in
    n0 = walk.n_interior
    a = walk.interior - z * np.eye(n0)
    if n0:
        smallest = np.linalg.svd(a, compute_uv=False)[-1]
        if smallest > EIGENVALUE_HIT_TOL:
            u = np.linalg.solve(a, -f)
        else:
            u = np.linalg.pinv(a, rcond=1e-8) @ (-f)
        residual = np.linalg.norm(a @ u + f, axis=0)
        bound = ORACLE_RESIDUAL_TOL * np.maximum(1.0, np.linalg.norm(f, axis=0))
        if np.any(residual > bound):
            raise SingularSystem(
                f"direct solve at z = {z:.9g} left residual {np.max(residual):.3e}"
            )
    else:
        u = np.zeros((0,) + amp_in.shape[1:], dtype=complex)
    amp_out = walk.interior_to_tail @ u + walk.tail_to_tail @ amp_in
    return u, amp_out


# ---------------------------------------------------------------------------
# Pole blocks (the expansion route)


def _chain_boundary_out(walk: WalkOperator, lam: complex, chain: np.ndarray):
    """Outgoing tail values of every state in a resonance chain, as columns.

    The chain states extend to the tails, and on the innermost outgoing
    arcs the walk relation turns into the two-term recursion
    ``tail_value(l) = (emission(l) - tail_value(l-1)) / λ`` with the
    emission ``interior_to_tail @ v_l``.
    """
    out = walk.interior_to_tail @ chain.T
    out[:, 0] /= lam
    for l in range(1, out.shape[1]):
        out[:, l] = (out[:, l] - out[:, l - 1]) / lam
    return out


def _chain_boundary_in_co(walk: WalkOperator, lam: complex, co_chain: np.ndarray):
    """Incoming tail values of the co-states, as columns.

    Same recursion as the outgoing side but running down from the end
    of the chain (the co-chain relation steps l -> l+1).
    """
    lam_bar = np.conj(lam)
    values = walk.tail_to_interior.conj().T @ co_chain.T
    values[:, -1] /= lam_bar
    for l in range(values.shape[1] - 2, -1, -1):
        values[:, l] = (values[:, l] - values[:, l + 1]) / lam_bar
    return values


def pole_block(
    walk: WalkOperator, cluster: Cluster, z: complex
) -> np.ndarray:
    """The rank-structured pole term of one off-circle, nonzero resonance.

    Acting on incoming data α, the block pairs α against shifted
    combinations of co-state tail values and emits resonant-state tail
    values:

        block(z) α = sum_{k,l,p} <α, λ̄² q_(l+p) + 2 λ̄ q_(l+p+1) + q_(l+p+2)>
                       * out_(l) / (z - λ)^(p+1),

    where q are the incoming co-state values and out the outgoing state
    values of chain k (q beyond the chain's end is zero).  The terms of
    one pole order p form one product.  Unit-circle clusters have
    identically zero boundary data and contribute nothing.
    """
    z = _check_z(z)
    lam = cluster.value
    nt = walk.n_tails
    block = np.zeros((nt, nt), dtype=complex)
    if cluster.on_unit_circle:
        return block
    if cluster.is_zero:
        raise ZeroCluster(
            "the zero resonance has its own block (with the pass-through term)"
        )
    lam_bar = np.conj(lam)
    for chain, co_chain in zip(cluster.chains, cluster.co_chains):
        length = chain.shape[0]
        outs = _chain_boundary_out(walk, lam, chain)
        q = np.concatenate(
            [_chain_boundary_in_co(walk, lam, co_chain), np.zeros((nt, 2))], axis=1
        )
        pairing = lam_bar**2 * q[:, :-2] + 2 * lam_bar * q[:, 1:-1] + q[:, 2:]
        for p in range(length):
            block += outs[:, : length - p] @ pairing[:, p:].conj().T / (z - lam) ** (p + 1)
    return block


def zero_pole_block(
    walk: WalkOperator, system: EigenSystem, z: complex
) -> np.ndarray:
    """Pole block of the conventional zero resonance.

    Always contains the direct tail-to-tail pass-through; when zero is
    an interior eigenvalue, its chains radiate after one walk step, and
    those emissions show up as pure powers of 1/z.
    """
    z = _check_z(z)
    block = np.array(walk.tail_to_tail, dtype=complex, copy=True)
    cluster = system.zero_cluster()
    if cluster is None:
        return block
    for chain, co_chain in zip(cluster.chains, cluster.co_chains):
        length = chain.shape[0]
        emissions = walk.interior_to_tail @ chain.T
        pickups = walk.tail_to_interior.conj().T @ co_chain.T
        for p in range(length):
            block += emissions[:, : length - p] @ pickups[:, p:].conj().T / z ** (p + 1)
    return block


# ---------------------------------------------------------------------------
# Scattering matrices


@dataclass(frozen=True)
class ScatteringReport:
    z: complex
    eps: float | None
    route: str
    matrix: np.ndarray
    unitarity_residual: float | None


def scattering_matrix(
    walk: WalkOperator,
    z: complex,
    route: str = "resolvent",
    system: EigenSystem | None = None,
) -> ScatteringReport:
    """The full tails-in to tails-out response at parameter ``z``."""
    z = _check_z(z)
    if system is None:
        system = eigen_decompose(walk)
    nt = walk.n_tails

    if route == "resolvent":
        matrix = generalized_eigenfunction(walk, z, np.eye(nt), system).amp_out
    elif route == "expansion":
        matrix = zero_pole_block(walk, system, z)
        for cluster in system.off_circle():
            if not cluster.is_zero:
                matrix = matrix + pole_block(walk, cluster, z)
    else:
        raise ValueError(f"unknown route {route!r}")

    residual = None
    if abs(abs(z) - 1.0) <= 1e-8:
        gram = matrix.conj().T @ matrix
        residual = float(np.abs(gram - np.eye(nt)).max())
    return ScatteringReport(z, walk.eps, route, matrix, residual)


def transmission_reflection(
    matrix: np.ndarray, split: set, amp_in: np.ndarray
) -> tuple[float, float]:
    """Transmitted and reflected power for a wave entering on channels ``split``.

    ``split`` holds 1-based tail numbers; the incoming amplitude must be
    a unit vector supported on those channels.  Transmission is the
    outgoing power on the complementary channels, reflection the power
    coming back out of ``split`` itself.
    """
    matrix = np.asarray(matrix, dtype=complex)
    amp_in = np.asarray(amp_in, dtype=complex)
    nt = matrix.shape[0]
    mask = np.zeros(nt, dtype=bool)
    for n in split:
        if not 1 <= n <= nt:
            raise BadSupport(f"channel {n} is not one of 1..{nt}")
        mask[n - 1] = True
    if np.any(np.abs(amp_in[~mask]) > SUPPORT_TOL):
        raise BadSupport("incoming amplitude has support outside the split")
    norm = float(np.linalg.norm(amp_in))
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(norm)
    out = matrix @ amp_in
    transmitted = float(np.sum(np.abs(out[~mask]) ** 2))
    reflected = float(np.sum(np.abs(out[mask]) ** 2))
    return transmitted, reflected


def comfortability(
    walk: WalkOperator,
    z: complex,
    amp_in: np.ndarray,
    system: EigenSystem | None = None,
) -> float:
    """Interior energy ``||u||²`` held by the scattered wave.

    This is the quantity that blows up like (1-|λ|)^(-1) when ``z``
    sits on top of a sharp resonance: the wave spends a long time
    rattling around the interior before it leaks back out.
    """
    sol = generalized_eigenfunction(walk, z, amp_in, system)
    return float(np.linalg.norm(sol.interior) ** 2)
