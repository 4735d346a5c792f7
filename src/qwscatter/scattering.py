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
* the *expansion* route never forms ``u`` at all — it adds to the
  direct tail-to-tail term the pole blocks of the same stacked chains,
  built purely from their boundary data (tail values of resonant states
  and co-states), one product per pole order,
* the *oracle* solves the linear system head-on and exists so the two
  structured routes can be checked against something with no shared
  machinery.

``generalized_eigenfunction`` and ``oracle_direct_solve`` take one
incoming vector or a matrix of incoming columns, so the resolvent route
scatters every tail in one pass (``amp_in = np.eye(n_tails)``), as one
:class:`ResolventKernel` that can be evaluated at any number of ``z``.

Every function that takes ``z`` takes a scalar or a 1-d array of
points.  An array of ``nz`` points puts one leading axis of length
``nz`` on each result, so ``scattering_matrix`` returns an
``(nz, n_tails, n_tails)`` stack; a scalar is the one-point case of the
same computation and returns the shapes without that axis.  What does
not depend on ``z`` (the chain coefficients ``W* T_ti amp_in``, the
boundary values of every chain) is computed once per kernel or per
call, and every check names the first offending point.

The routes agree wherever they are all defined and check each other.
The analytic routes share the decomposition, with its emission
``T_it V`` and pickup ``W* T_ti``; they keep the z-dependent pole
algebra apart, and the oracle reads the walk itself.  The pole hit
(``EIGENVALUE_HIT_TOL``) is :func:`_hits`'s rule alone, for every route,
line shape and half-height search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .spectral import (
    Cluster,
    EigenSystem,
    NumericalError,
    PoleBasis,
    ZeroCluster,
    _follows,
    _is_zero,
    _pole_basis,
    eigen_decompose,
)
from .walk import WalkOperator, _supported

SMALL_Z = 1e-6
EIGENVALUE_HIT_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-8
# the direct solve's pseudo-inverse cut on σ_min(z - M): the hit rule's value, not its rule
_ORACLE_SINGULAR_TOL = 1e-9
ORACLE_RESIDUAL_TOL = 1e-6
NORMALIZATION_TOL = 1e-10


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
    """Scattered waves: outgoing tail data, and the interior wave ``V a``
    held as its chain vectors ``V`` and their coefficients ``a``.

    ``interior`` and ``amp_out`` have one column per column of ``amp_in``
    (plain vectors for a vector input), behind one leading axis per
    point when ``z`` is an array.  ``interior`` is formed when it is
    first read, so a caller that reads only ``amp_out`` (Σ) never pays
    for the n0-sized product.
    """

    amp_out: np.ndarray
    chains: np.ndarray  # V, (n0, s)
    coefficients: np.ndarray  # a, (nz, s, columns)
    shape: tuple  # of ``interior``

    @cached_property
    def interior(self) -> np.ndarray:
        return (self.chains @ self.coefficients).reshape(self.shape)


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


def _check_route(route: str) -> None:
    """Refuse a route other than the two analytic ones, before any work is done."""
    if route not in ("resolvent", "expansion"):
        raise ValueError(f"unknown route {route!r}")


def _hits(z: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Whether each point of ``z`` (given a new last axis) is within ``EIGENVALUE_HIT_TOL``
    of each of ``values``: the pole-hit rule, applied here alone."""
    return np.abs(z[..., None] - values) <= EIGENVALUE_HIT_TOL


def _check_poles(z: np.ndarray, values: np.ndarray) -> None:
    """Raise at the first point of ``z`` that hits a pole value (:func:`_hits`)."""
    hits = _hits(z.reshape(-1), values)
    if np.count_nonzero(hits):
        point, column = divmod(_first(hits), len(values))
        raise AtInteriorResonance(complex(z.reshape(-1)[point]), complex(values[column]))


def _checked(z, values: np.ndarray, overlap: float, trapped: bool) -> np.ndarray:
    """``z`` as an array, after the zero guard, the hits on the pole ``values``
    and a drive ``trapped`` by a unit-circle cluster, in that order."""
    z = _check_z(z)
    _check_poles(z, values)
    if trapped:
        raise OrthogonalityViolated(
            f"drive overlaps unit-circle eigenvectors with norm {overlap:.3e}"
        )
    return z


def _pole_sum(poles, coefficients: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The chain coefficients ``a`` with ``(z - J) a = W* f``, for each point of ``shift = z``.

    ``poles`` stacks the chain vectors ``V`` (with ``M V = V J``), the
    co-chain vectors ``W*`` and the value λ_k of each column, and
    ``coefficients`` is ``W* f``.  The coefficients ``a = W* f / (z - λ)``
    of the simple poles are final.  Along a Jordan chain,
    ``(M - λ) v_l = v_{l-1}`` couples each coefficient to the next one up
    the chain, so the chain is back-substituted from its top,

        a_k += a_(k+1) / (z - λ_k)   for k in ``links``, reversed.

    ``shift`` has shape (nz, 1, 1) and ``coefficients`` one column per
    incoming vector; the result ``a`` has shape (nz, s, columns).
    """
    values, links = poles.values, poles.links
    a = coefficients / (shift - values[:, None])
    for k in reversed(links):
        a[:, k] += a[:, k + 1] / (shift[:, 0] - values[k])
    return a


class ResolventKernel(NamedTuple):
    """The resolvent route for one incoming pattern, built once for any ``z``.

    :func:`resolvent_kernel` builds it.  Called at ``z`` (a point or a 1-d
    array), it checks ``z``, then the poles, then the overlap (:func:`_checked`),
    and makes one pole sum ``a`` (:func:`_pole_sum`) and its emission
    ``T_it V a`` into the tails; the wave ``V a`` is formed on first read.
    """

    poles: PoleBasis
    coefficients: np.ndarray  # W* T_ti amp_in, one column per incoming vector
    direct: np.ndarray  # the tail-to-tail term, the same columns
    shape: tuple  # of amp_in past its first axis
    overlap: float  # the largest projection of the drive onto a unit-circle cluster
    trapped: bool  # some column's overlap breaks ORTHOGONALITY_TOL

    def __call__(self, z) -> ScatterSolution:
        z = _checked(z, self.poles.values, self.overlap, self.trapped)
        a = _pole_sum(self.poles, self.coefficients, z.reshape(-1, 1, 1))
        amp_out = self.poles.emission @ a
        amp_out += self.direct  # in place: no third buffer of the z stack's size
        chains = self.poles.right
        return ScatterSolution(
            amp_out.reshape(z.shape + amp_out.shape[1:2] + self.shape),
            chains,
            a,
            z.shape + chains.shape[:1] + self.shape,
        )


def resolvent_kernel(walk: WalkOperator, amp_in, system: EigenSystem | None = None):
    """The z-independent half of the resolvent route for incoming data ``amp_in``.

    The coefficients ``W* f = pickup @ amp_in`` of the drive ``f = T_ti
    amp_in`` on every off-circle chain (``system.poles``), the direct
    tail-to-tail term, and the overlap of ``f`` with the unit-circle
    clusters, which must not see any of it (they would trap amplitude
    forever), checked column by column.
    """
    amp_in = np.asarray(amp_in, dtype=complex)
    if system is None:
        system = eigen_decompose(walk)
    scale = np.maximum(1.0, np.linalg.norm(amp_in, axis=0))
    overlap = np.zeros(amp_in.shape[1:])
    for k in np.flatnonzero(system.on_unit_circle).tolist():
        cut = system.columns(k)
        projection = system.right[:, cut] @ (system.pickup[cut] @ amp_in)
        overlap = np.maximum(overlap, np.linalg.norm(projection, axis=0))
    amp = amp_in.reshape(amp_in.shape[0], math.prod(amp_in.shape[1:]))
    return ResolventKernel(
        system.poles,
        system.poles.pickup @ amp,
        walk.tail_to_tail @ amp,
        amp_in.shape[1:],
        float(np.max(overlap, initial=0.0)),
        bool(np.any(overlap > ORTHOGONALITY_TOL * scale)),
    )


def generalized_eigenfunction(
    walk: WalkOperator, z, amp_in: np.ndarray, system: EigenSystem | None = None
) -> ScatterSolution:
    """Scattered wave for incoming data ``amp_in`` at parameter ``z``.

    The interior part is ``u = (z - M)^-1 f`` for the interior drive
    ``f``: one :func:`resolvent_kernel`, evaluated once.  ``amp_in`` may
    be one incoming vector or a matrix whose columns are scattered at
    once, and ``z`` a scalar or a 1-d array (see the module docstring).
    """
    if system is None:
        _check_z(z)  # the z guard comes before the decomposition
    return resolvent_kernel(walk, amp_in, system)(z)


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
        regular = np.linalg.svd(a, compute_uv=False)[:, -1] > _ORACLE_SINGULAR_TOL
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


def _pole_blocks(poles, z: np.ndarray) -> np.ndarray:
    """The pole blocks of every column of ``poles``, summed at each point of ``z``.

    The block of a chain at a nonzero λ pairs incoming data α against
    co-state tail values ``q`` and emits resonant-state tail values ``out``:

        block(z) α = sum_{l,p} <α, λ̄² q_(l+p) + 2 λ̄ q_(l+p+1) + q_(l+p+2)>
                       * out_l / (z - λ)^(p+1),

    with q zero beyond the chain's end.  ``out = T_it V / λ`` (the emission),
    then ``out[:, k+1] -= out[:, k] / λ`` for ``k`` in ``links`` ascending;
    ``q`` runs down each chain the same way from ``T_ti* W`` (the pickup's
    adjoint).  A zero-value column has no tail extension and enters with
    its raw emission and pick-up.  Pole order p is one product over the
    columns whose chain runs p further.
    """
    values, _, _, emission, pickup, links = poles
    zero = _is_zero(values)
    lam = np.where(zero, 0.0, values)
    lam_bar = lam.conj()
    unit = np.where(zero, 1.0, lam)
    follows = _follows(poles)
    steps = [k for k in links if not zero[k]]

    out = emission / unit
    for k in steps:
        out[:, k + 1] -= out[:, k] / lam[k]
    q = pickup.conj().T / unit.conj()
    for k in reversed(steps):
        q[:, k] -= q[:, k + 1] / lam_bar[k]
    pairing = np.where(zero, 1.0, lam_bar**2) * q
    for k in steps:
        pairing[:, k] += 2 * lam_bar[k] * q[:, k + 1]
        if follows[k + 1]:
            pairing[:, k] += q[:, k + 2]

    nt = len(emission)
    shift = z.reshape(-1, 1) - lam
    block = np.zeros((len(shift), nt, nt), dtype=complex)
    columns = np.arange(len(values))
    power = shift
    p = 0
    while columns.size:
        block += (out[:, columns] / power[:, None, :]) @ pairing[:, columns + p].conj().T
        further = follows[columns + p]
        columns = columns[further]
        power = power[:, further] * shift[:, columns]
        p += 1
    return block.reshape(z.shape + (nt, nt))


def pole_block(walk: WalkOperator, clusters, z) -> np.ndarray:
    """The summed pole terms of off-circle, nonzero resonances (:func:`_pole_blocks`).

    ``clusters`` is one :class:`Cluster` or a sequence of them, stacked
    into one basis; a cluster named twice is added twice.  Unit-circle
    clusters have zero boundary data and contribute nothing.  A point of
    ``z`` on a pole raises ``AtInteriorResonance``, as the expansion route does.
    """
    z = _check_z(z)
    if isinstance(clusters, Cluster):
        clusters = [clusters]
    clusters = [c for c in clusters if not c.on_unit_circle]
    if any(c.is_zero for c in clusters):
        raise ZeroCluster(
            "the zero resonance has its own block (with the pass-through term)"
        )
    poles = _pole_basis(clusters, walk.n_interior, walk.n_tails)
    _check_poles(z, poles.values)
    return _pole_blocks(poles, z)


def zero_pole_block(walk: WalkOperator, system: EigenSystem, z) -> np.ndarray:
    """Pole block of the conventional zero resonance.

    Always contains the direct tail-to-tail pass-through; when zero is
    an interior eigenvalue, its chains radiate after one walk step, and
    those emissions show up as pure powers of 1/z (:func:`_pole_blocks`
    on the zero cluster's chains).
    """
    z = _check_z(z)
    cluster = system.zero_cluster()
    poles = _pole_basis([] if cluster is None else [cluster], walk.n_interior, walk.n_tails)
    return walk.tail_to_tail + _pole_blocks(poles, z)


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
    _check_route(route)
    if system is None:
        system = eigen_decompose(walk)
    nt = walk.n_tails

    if route == "resolvent":
        matrix = generalized_eigenfunction(walk, z, np.eye(nt), system).amp_out
    else:
        _check_poles(z, system.poles.values)
        matrix = walk.tail_to_tail + _pole_blocks(system.poles, z)

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
    if np.any(_supported(amp_in[~mask])):
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
