"""Scattering matrices of tailed walks, three ways.

For a spectral parameter ``z`` on (or off) the unit circle and an
incoming amplitude pattern ``amp_in`` on the tails, the scattered wave
is determined by an interior vector ``u`` solving

    (U_interior - z) u = -(tail_to_interior @ amp_in),

after which the outgoing amplitudes are
``interior_to_tail @ u + tail_to_tail @ amp_in``.

Three constructions of the same object live here:

* the *resolvent* route expands ``u`` over the stacked Jordan chains
  of the interior matrix: one pole sum, back-substituted along each
  chain,
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
scatters every tail in one pass (``amp_in = np.eye(n_tails)``).

Every function that takes ``z`` takes a scalar or a 1-d array of
points.  An array of ``nz`` points puts one leading axis of length
``nz`` on each result, so ``scattering_matrix`` returns an
``(nz, n_tails, n_tails)`` stack; a scalar is the one-point case of the
same computation and returns the shapes without that axis.  What does
not depend on ``z`` (the drive, the chain coefficients ``W* f``, the
chain boundary values) is computed once per call, and every check
names the first offending point.

The routes agree wherever they are all defined; keeping them separate
is the point, so resist the urge to share intermediate results.
"""

from __future__ import annotations

import math
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
    (plain vectors for a vector input), behind one leading axis per
    point when ``z`` is an array.
    """

    interior: np.ndarray
    amp_out: np.ndarray
    circle_overlap: float


def _first(mask: np.ndarray) -> int:
    """Flat index of the first true entry of ``mask``."""
    return int(np.argmax(mask.reshape(-1)))


def _check_z(z) -> np.ndarray:
    """``z`` as a complex array of shape () or (nz,), clear of the zero guard."""
    z = np.asarray(z, dtype=complex)
    if z.ndim > 1:
        raise ValueError(f"z must be a scalar or a 1-d array, got shape {z.shape}")
    small = np.abs(z) < SMALL_Z
    if np.count_nonzero(small):
        bad = complex(z.reshape(-1)[_first(small)])
        raise PoleHit(
            f"|z| = {abs(bad):.3e} at z = {bad:.9g} is inside the zero-resonance "
            f"guard ({SMALL_Z:.0e})"
        )
    return z


def _check_poles(z: np.ndarray, clusters) -> None:
    """Raise at the first point of ``z`` within the hit tolerance of a cluster value."""
    gaps = np.abs(z.reshape(-1, 1) - np.array([c.value for c in clusters], dtype=complex))
    hits = gaps <= EIGENVALUE_HIT_TOL
    if np.count_nonzero(hits):
        point, cluster = divmod(_first(hits), len(clusters))
        raise AtInteriorResonance(complex(z.reshape(-1)[point]), clusters[cluster].value)


def _pole_sum(poles, drive: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``V a`` with ``(z - J) a = W* drive``, for each point of ``shift = z``.

    ``poles`` stacks the chain vectors ``V`` (with ``M V = V J``), the
    co-chain vectors ``W*`` and the value λ_k of each column.  The
    coefficients ``a = W* drive / (z - λ)`` of the simple poles are
    final.  Along a Jordan chain, ``(M - λ) v_l = v_{l-1}`` couples each
    coefficient to the next one up the chain, so the chain is
    back-substituted from its top,

        a_k += a_(k+1) / (z - λ_k)   for k in ``links``, reversed.

    ``shift`` has shape (nz, 1, 1) and ``drive`` one column per incoming
    vector; the result has shape (nz, n0, columns).
    """
    values, right, left_h, links = poles
    a = (left_h @ drive) / (shift - values[:, None])
    for k in reversed(links):
        a[:, k] += a[:, k + 1] / (shift[:, 0] - values[k])
    return right @ a


def generalized_eigenfunction(
    walk: WalkOperator,
    z,
    amp_in: np.ndarray,
    system: EigenSystem | None = None,
) -> ScatterSolution:
    """Scattered wave for incoming data ``amp_in`` at parameter ``z``.

    The interior part is ``u = (z - M)^-1 f`` for the interior drive
    ``f``, one pole sum (:func:`_pole_sum`) over every off-circle chain,
    which ``system.poles`` stacks once.  Unit-circle clusters must not
    see any of ``f`` (they would trap amplitude forever); their
    projections are measured and reported, and a violation is an error.

    ``amp_in`` may be one incoming vector or a matrix whose columns are
    scattered at once; the overlap is checked column by column.  ``z``
    may be a scalar or a 1-d array (see the module docstring).
    """
    z = _check_z(z)
    amp_in = np.asarray(amp_in, dtype=complex)
    if system is None:
        system = eigen_decompose(walk)
    _check_poles(z, system.off_circle())

    f = walk.tail_to_interior @ amp_in
    scale = np.maximum(1.0, np.linalg.norm(amp_in, axis=0))
    overlap = np.zeros(amp_in.shape[1:])
    for cluster in system.on_circle():
        overlap = np.maximum(overlap, np.linalg.norm(cluster.project(f), axis=0))
    if np.any(overlap > ORTHOGONALITY_TOL * scale):
        raise OrthogonalityViolated(
            f"drive overlaps unit-circle eigenvectors with norm {np.max(overlap):.3e}"
        )

    # one leading axis over the points, incoming data as columns
    shift = z.reshape(-1, 1, 1)
    columns = math.prod(amp_in.shape[1:])
    drive = f.reshape(f.shape[0], columns)
    u = _pole_sum(system.poles, drive, shift)
    direct = walk.tail_to_tail @ amp_in
    amp_out = walk.interior_to_tail @ u + direct.reshape(direct.shape[0], columns)
    return ScatterSolution(
        u.reshape(z.shape + f.shape),
        amp_out.reshape(z.shape + direct.shape),
        float(np.max(overlap, initial=0.0)),
    )


def oracle_direct_solve(
    walk: WalkOperator, z, amp_in: np.ndarray
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
    the residual is checked per point and column by column.  An array
    of ``z`` is one batched singular-value scan and one stacked solve
    over the regular points; only singular points fall back to the
    pseudo-inverse.
    """
    z = np.asarray(z, dtype=complex)
    amp_in = np.asarray(amp_in, dtype=complex)
    f = walk.tail_to_interior @ amp_in
    n0 = walk.n_interior
    points = z.reshape(-1)
    columns = math.prod(amp_in.shape[1:])
    drive = f.reshape(n0, columns)
    u = np.zeros((len(points),) + drive.shape, dtype=complex)
    if n0:
        a = walk.interior - points[:, None, None] * np.eye(n0)
        regular = np.linalg.svd(a, compute_uv=False)[:, -1] > EIGENVALUE_HIT_TOL
        if np.count_nonzero(regular):
            # a leading length-1 axis makes -drive one right-hand side for every point
            u[regular] = np.linalg.solve(a[regular], -drive[None])
        for j in np.flatnonzero(~regular):
            u[j] = np.linalg.pinv(a[j], rcond=1e-8) @ (-drive)
        residual = np.linalg.norm(a @ u + drive, axis=-2)
        bound = ORACLE_RESIDUAL_TOL * np.maximum(1.0, np.linalg.norm(drive, axis=0))
        bad = residual > bound
        if np.count_nonzero(bad):
            j = _first(bad.any(axis=1))
            raise SingularSystem(
                f"direct solve at z = {complex(points[j]):.9g} left residual "
                f"{np.max(residual[j]):.3e}"
            )
    direct = walk.tail_to_tail @ amp_in
    amp_out = walk.interior_to_tail @ u + direct.reshape(direct.shape[0], columns)
    return u.reshape(z.shape + f.shape), amp_out.reshape(z.shape + direct.shape)


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


def pole_block(walk: WalkOperator, cluster: Cluster, z) -> np.ndarray:
    """The rank-structured pole term of one off-circle, nonzero resonance.

    Acting on incoming data α, the block pairs α against shifted
    combinations of co-state tail values and emits resonant-state tail
    values:

        block(z) α = sum_{k,l,p} <α, λ̄² q_(l+p) + 2 λ̄ q_(l+p+1) + q_(l+p+2)>
                       * out_(l) / (z - λ)^(p+1),

    where q are the incoming co-state values and out the outgoing state
    values of chain k (q beyond the chain's end is zero).  The boundary
    values are built once per call, and the terms of one pole order p
    form one product, scaled across every point of ``z``.  Unit-circle
    clusters have identically zero boundary data and contribute nothing.
    """
    z = _check_z(z)
    lam = cluster.value
    nt = walk.n_tails
    block = np.zeros(z.shape + (nt, nt), dtype=complex)
    if cluster.on_unit_circle:
        return block
    if cluster.is_zero:
        raise ZeroCluster(
            "the zero resonance has its own block (with the pass-through term)"
        )
    lam_bar = np.conj(lam)
    shift = z[..., None, None] - lam
    for chain, co_chain in zip(cluster.chains, cluster.co_chains):
        length = chain.shape[0]
        outs = _chain_boundary_out(walk, lam, chain)
        q = _chain_boundary_in_co(walk, lam, co_chain)
        pairing = lam_bar**2 * q
        pairing[:, :-1] += 2 * lam_bar * q[:, 1:]
        pairing[:, :-2] += q[:, 2:]
        power = shift
        for p in range(length):
            block += outs[:, : length - p] @ pairing[:, p:].conj().T / power
            if p + 1 < length:
                power = power * shift
    return block


def zero_pole_block(walk: WalkOperator, system: EigenSystem, z) -> np.ndarray:
    """Pole block of the conventional zero resonance.

    Always contains the direct tail-to-tail pass-through; when zero is
    an interior eigenvalue, its chains radiate after one walk step, and
    those emissions show up as pure powers of 1/z.
    """
    z = _check_z(z)
    nt = walk.n_tails
    block = np.empty(z.shape + (nt, nt), dtype=complex)
    block[...] = walk.tail_to_tail
    cluster = system.zero_cluster()
    if cluster is None:
        return block
    shift = z[..., None, None]
    for chain, co_chain in zip(cluster.chains, cluster.co_chains):
        length = chain.shape[0]
        emissions = walk.interior_to_tail @ chain.T
        pickups = walk.tail_to_interior.conj().T @ co_chain.T
        power = shift
        for p in range(length):
            block += emissions[:, : length - p] @ pickups[:, p:].conj().T / power
            if p + 1 < length:
                power = power * shift
    return block


# ---------------------------------------------------------------------------
# Scattering matrices


@dataclass(frozen=True)
class ScatteringReport:
    """Σ at one point ``z``, or the ``(nz, n_tails, n_tails)`` stack over an array.

    ``unitarity_residuals`` holds max|Σ*Σ - I| per point, NaN off the
    unit circle; ``unitarity_residual`` is the largest of them over the
    points on the circle, ``None`` when there are none.
    """

    z: complex | np.ndarray
    eps: float | None
    route: str
    matrix: np.ndarray
    unitarity_residual: float | None
    unitarity_residuals: np.ndarray


def scattering_matrix(
    walk: WalkOperator,
    z,
    route: str = "resolvent",
    system: EigenSystem | None = None,
) -> ScatteringReport:
    """The full tails-in to tails-out response at ``z``, a point or a 1-d array."""
    z = _check_z(z)
    if system is None:
        system = eigen_decompose(walk)
    nt = walk.n_tails

    if route == "resolvent":
        matrix = generalized_eigenfunction(walk, z, np.eye(nt), system).amp_out
    elif route == "expansion":
        off = system.off_circle()
        _check_poles(z, off)
        matrix = zero_pole_block(walk, system, z)
        for cluster in off:
            if not cluster.is_zero:
                matrix += pole_block(walk, cluster, z)
    else:
        raise ValueError(f"unknown route {route!r}")

    gram = np.swapaxes(matrix.conj(), -1, -2) @ matrix
    on_circle = np.abs(np.abs(z) - 1.0) <= 1e-8
    # fmax skips the NaN start, so a point off the circle (no entries
    # reduced) keeps NaN, and so does the worst point when none is on it
    residuals = np.fmax.reduce(
        np.abs(gram - np.eye(nt)),
        axis=(-2, -1),
        where=on_circle[..., None, None],
        initial=np.nan,
    )
    worst = float(np.fmax.reduce(residuals, axis=None, initial=np.nan))
    residual = None if np.isnan(worst) else worst
    return ScatteringReport(z[()], walk.eps, route, matrix, residual, residuals)


def transmission_reflection(matrix: np.ndarray, split: set, amp_in: np.ndarray) -> tuple:
    """Transmitted and reflected power for a wave entering on channels ``split``.

    ``split`` holds 1-based tail numbers; the incoming amplitude must be
    a unit vector supported on those channels.  Transmission is the
    outgoing power on the complementary channels, reflection the power
    coming back out of ``split`` itself.  ``matrix`` is one Σ, which
    gives two floats, or an ``(nz, n_tails, n_tails)`` stack, which gives
    two arrays of one value per point; the split and the amplitude are
    checked once per call.
    """
    matrix = np.asarray(matrix, dtype=complex)
    amp_in = np.asarray(amp_in, dtype=complex)
    nt = matrix.shape[-1]
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
    transmitted = np.sum(np.abs(out[..., ~mask]) ** 2, axis=-1)
    reflected = np.sum(np.abs(out[..., mask]) ** 2, axis=-1)
    if out.ndim == 1:
        return float(transmitted), float(reflected)
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
