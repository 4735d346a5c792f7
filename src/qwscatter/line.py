"""Quantum walks on the integer line with a finite number of coin barriers.

A line walk is free (pure shift) everywhere except at finitely many
*barrier* sites, each carrying a 2x2 unitary coin.  For any number of
barriers the transmission and reflection coefficients come from one
product of 2x2 transfer matrices, evaluated for a scalar z or a whole
1-d array of z at once; :func:`line_to_graph` embeds the same system into
the general tailed-graph framework so the two results can be
cross-checked through the full scattering pipeline.

Conventions.  The left barrier always sits at position 0.  The incident
wave comes from the left with amplitude normalised so that the state at
x <= -1 is (z^x, 0)^T; the transmission coefficient is read off past the
last barrier.  Off the unit circle the product's entries grow like
|z|^{+-x_last}, as the closed forms do, so a line with x_last = 300 stays
finite at |z| = 1/2 and 2.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coins import UNITARITY_TOL, _unitarity_residual, const_expr, eval_coins
from .graph import build_graph
from .scattering import _points, scattering_matrix
from .spectral import eigen_decompose
from .walk import assemble

# Transfer matrices divide by the upper-left coin entry; below this the
# barrier is a perfect mirror and the closed forms degenerate.
CORNER_TOL = 1e-14


class ZeroCorner(ValueError):
    """A barrier coin has (numerically) vanishing upper-left entry."""

    def __init__(self, entry):
        self.entry = entry
        super().__init__(
            f"coin entry C_11 = {entry!r} too small; transfer matrix undefined"
        )


class BadBarrier(ValueError):
    """Barrier positions or coins do not describe a valid line model."""


def _as_coin(matrix) -> np.ndarray:
    coin = np.asarray(matrix, dtype=complex)
    if coin.shape != (2, 2):
        raise BadBarrier(f"barrier coin must be 2x2, got shape {coin.shape}")
    residual = _unitarity_residual(coin[None])[0]
    if not residual <= UNITARITY_TOL:  # NaN too
        raise BadBarrier(f"barrier coin not unitary (residual {residual:.3e})")
    return coin


@dataclass(frozen=True)
class BarrierSpec:
    """Barrier positions (strictly increasing, first one at 0) and coins."""

    positions: tuple
    coins: tuple

    def __post_init__(self):
        positions = tuple(int(x) for x in self.positions)
        coins = tuple(_as_coin(c) for c in self.coins)
        if len(positions) != len(coins):
            raise BadBarrier("need one coin per barrier position")
        if len(positions) < 1:
            raise BadBarrier("need at least one barrier")
        if positions[0] != 0:
            raise BadBarrier("first barrier must sit at position 0")
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise BadBarrier("barrier positions must be strictly increasing")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "coins", coins)


def rotation_coin(r: float) -> np.ndarray:
    """The one-parameter real coin [[sqrt(1-r^2), r], [-r, sqrt(1-r^2)]]."""
    if not -1.0 < r < 1.0:
        raise BadBarrier(f"rotation parameter must lie in (-1, 1), got {r}")
    s = np.sqrt(1.0 - r * r)
    return np.array([[s, r], [-r, s]], dtype=complex)


def near_reflective_coin(strength: float, eps: float) -> np.ndarray:
    """A barrier coin with exponentially small transparency exp(-strength/eps).

    At eps = 0 this degenerates to the perfect mirror [[0,1],[-1,0]].
    """
    if strength <= 0:
        raise BadBarrier("barrier strength must be positive")
    if eps < 0:
        raise BadBarrier("eps must be nonnegative")
    kappa = 0.0 if eps == 0 else np.exp(-strength / eps)
    off = np.sqrt(max(0.0, 1.0 - kappa * kappa))
    return np.array([[kappa, off], [-off, kappa]], dtype=complex)


def _check_corners(*coins):
    for coin in coins:
        if abs(coin[0, 0]) <= CORNER_TOL:
            raise ZeroCorner(coin[0, 0])


def _det(coin) -> complex:
    return coin[0, 0] * coin[1, 1] - coin[0, 1] * coin[1, 0]


def transfer_matrix(coin, z) -> np.ndarray:
    """One-site transfer matrix (1/C11) [[z, -C12], [C21, det(C)/z]].

    Propagates the pair (left-moving amplitude at x, right-moving amplitude
    at x+1) across the site x carrying the given coin.  ``z`` is a finite
    point or a 1-d array of ``nz`` of them, which returns an ``(nz, 2, 2)`` stack.
    """
    coin = np.asarray(coin, dtype=complex)
    _check_corners(coin)
    z, _ = _points(z)
    if np.any(z == 0):
        raise ZeroCorner(0j)
    entries = np.broadcast_arrays(z, -coin[0, 1], coin[1, 0], _det(coin) / z)
    return np.stack(entries, axis=-1).reshape(z.shape + (2, 2)) / coin[0, 0]


@dataclass(frozen=True)
class BarrierScattering:
    """Scattering data of a barrier line at a scalar z or a 1-d array of z.

    ``a`` and ``b`` are the entries M_00 and M_10 of the transfer product
    M of :func:`barrier_scattering`: transmission = 1/|a|^2 and reflection
    = |b/a|^2, each an array over z when z is one.  For two barriers
    ``resonances`` lists the nonzero resonances (the conventional
    resonance at 0 is omitted) and ``peaks`` their radial projections
    λ/|λ|, the unit-circle points where a transmission peak can sit; both
    are empty for any other number of barriers.
    """

    z: complex
    transmission: float
    reflection: float
    a: complex
    b: complex
    resonances: tuple
    peaks: tuple


def barrier_scattering(spec: BarrierSpec, z) -> BarrierScattering:
    """Scattering through any number of barriers, at a scalar z or a 1-d array.

    M = tau(c_N) D^{x_N - x_{N-1} - 1} ... tau(c_1) D^{x_1 - 1} tau(c_0)
    carries the incident wave across the line, with D = diag(z, 1/z) the
    free step and tau = :func:`transfer_matrix`.
    """
    z = np.asarray(z, dtype=complex)
    total = transfer_matrix(spec.coins[0], z)
    for prev, cur, coin in zip(spec.positions, spec.positions[1:], spec.coins[1:]):
        gap = cur - prev - 1
        free = np.stack([z ** gap, z ** -gap], axis=-1)[..., None]
        total = transfer_matrix(coin, z) @ (free * total)
    a, b = total[..., 0, 0][()], total[..., 1, 0][()]
    resonances = peaks = ()
    if len(spec.positions) == 2:
        c0, cx = spec.coins
        resonances = _roots_of_power(2 * spec.positions[1], c0[1, 0] * cx[0, 1])
        peaks = tuple(lam / abs(lam) for lam in resonances if lam)
    return BarrierScattering(
        z=z[()],
        transmission=1.0 / np.abs(a) ** 2,
        reflection=np.abs(b / a) ** 2,
        a=a,
        b=b,
        resonances=resonances,
        peaks=peaks,
    )


def double_barrier(spec: BarrierSpec, z) -> BarrierScattering:
    """Scattering through two barriers at 0 and x0.

    On the unit circle the transmission probability equals
    |C(0)_11 C(x0)_11 / (z^{2 x0} - C(0)_21 C(x0)_12)|^2 and the nonzero
    resonances are the 2*x0 roots of lambda^{2 x0} = C(0)_21 C(x0)_12.
    """
    if len(spec.positions) != 2:
        raise BadBarrier("double_barrier needs exactly two barriers")
    return barrier_scattering(spec, z)


def _roots_of_power(order: int, value: complex) -> tuple:
    """All solutions of lambda**order == value, ordered by phase angle."""
    if value == 0:
        return (0.0 + 0.0j,) * order
    radius = abs(value) ** (1.0 / order)
    base = cmath.phase(value) / order
    roots = [
        radius * cmath.exp(1j * (base + 2.0 * cmath.pi * k / order))
        for k in range(order)
    ]
    return tuple(sorted(roots, key=lambda w: (round(cmath.phase(w), 12))))


def double_barrier_state_balance(spec: BarrierSpec, lam: complex):
    """Both sides of the resonant-state balance identity at a resonance.

    Returns (outgoing_amplitude, invariant_form): the modulus of the
    left-moving component of the resonant state just past the right
    barrier, and the equivalent expression |C(0)_21/C(x0)_12|^{1/2}
    |C(x0)_22/C(0)_11|.  They agree exactly when lam solves the
    two-barrier resonance equation; for mirror-symmetric barriers both
    are 1 up to the coin's deviation from symmetry.
    """
    if len(spec.positions) != 2:
        raise BadBarrier("state balance is a two-barrier identity")
    c0, cx = spec.coins
    x0 = spec.positions[1]
    _check_corners(c0, cx)
    if lam == 0:
        raise ZeroCorner(lam)
    if abs(cx[0, 1]) <= CORNER_TOL:
        raise ZeroCorner(cx[0, 1])
    amplitude = abs(
        cx[1, 0] * lam ** x0 + c0[1, 0] * _det(cx) * lam ** (-x0)
    ) / abs(c0[0, 0] * cx[0, 0])
    invariant = np.sqrt(abs(c0[1, 0] / cx[0, 1])) * abs(cx[1, 1] / c0[0, 0])
    return amplitude, invariant


def line_to_graph(spec: BarrierSpec):
    """Embed a barrier line model into the tailed-graph framework.

    The lattice interval [0, x_last] becomes the finite interior: each
    barrier position contributes one merged vertex carrying its 2x2 coin,
    every other position contributes a left-moving and a right-moving
    vertex with trivial 1x1 coins.  Tail pair 1 attaches on the left of
    barrier 0, tail pair 2 on the right of the last barrier, so that the
    2x2 scattering matrix of the embedded walk reproduces the closed-form
    transmission and reflection coefficients.

    Returns ``(graph, coins)`` ready for the expression-free assembler:
    coin entries are constant expressions, so the family evaluates
    identically for every eps.
    """
    positions = set(spec.positions)
    x_last = spec.positions[-1]

    def left_name(x):
        return f"m{x}" if x in positions else f"L{x}"

    def right_name(x):
        return f"m{x}" if x in positions else f"R{x}"

    vertices = []
    for x in range(0, x_last + 1):
        if x in positions:
            vertices.append(f"m{x}")
        else:
            vertices.extend([f"L{x}", f"R{x}"])

    arcs = []
    # Left-movers a_L(x) = (left(x+1), left(x)) for 0 <= x <= x_last - 1.
    for x in range(0, x_last):
        arcs.append((left_name(x + 1), left_name(x), f"aL{x}"))
    # Right-movers a_R(x) = (right(x-1), right(x)) for 1 <= x <= x_last.
    for x in range(1, x_last + 1):
        arcs.append((right_name(x - 1), right_name(x), f"aR{x}"))

    tails = [
        (1, "m0", "m0"),
        (2, f"m{x_last}", f"m{x_last}"),
    ]
    graph = build_graph(vertices, arcs, tails)

    coins = {}
    for pos, coin in zip(spec.positions, spec.coins):
        grid = _embedded_coin(coin, pos, x_last)
        coins[f"m{pos}"] = [[const_expr(v) for v in row] for row in grid]
    one = [[const_expr(1.0)]]
    for x in range(0, x_last + 1):
        if x not in positions:
            coins[f"L{x}"] = one
            coins[f"R{x}"] = one
    return graph, coins


def _embedded_coin(coin, pos: int, x_last: int):
    """Permute a barrier coin into the slot order of the embedded vertex.

    The line convention feeds (left-in, right-in) = (a_L(x), a_R(x)) into
    (a_L(x-1), a_R(x+1)); at the interval ends one of each pair is a tail,
    and the graph's slot order (interior arcs first, then tails) shuffles
    rows and columns accordingly.
    """
    c = np.asarray(coin, dtype=complex)
    if pos == 0:
        if x_last == 0:
            raise BadBarrier("single barrier at 0 leaves no interior arc")
        # in slots: (a_L(0), tail 1);  out slots: (a_R(1), tail 1)
        return [[c[1, 0], c[1, 1]], [c[0, 0], c[0, 1]]]
    if pos == x_last:
        # in slots: (a_R(x_last), tail 2);  out slots: (a_L(x_last-1), tail 2)
        return [[c[0, 1], c[0, 0]], [c[1, 1], c[1, 0]]]
    # interior barrier: ins (a_L(pos), a_R(pos)), outs (a_L(pos-1), a_R(pos+1))
    return [[c[0, 0], c[0, 1]], [c[1, 0], c[1, 1]]]


def graph_transmission(spec: BarrierSpec, z_values: Sequence[complex]) -> np.ndarray:
    """Transmission at each of ``z_values`` via the full graph pipeline.

    This is the cross-check route: the embedded walk is built and
    decomposed once, then scattered at every point in one call.
    """
    graph, coins = line_to_graph(spec)
    walk = assemble(graph, eval_coins(coins, 0.0))
    system = eigen_decompose(walk)
    sigma = scattering_matrix(walk, np.asarray(z_values), system=system).matrix
    # incidence from the right (tail 2), transmitted power read on tail 1
    return np.abs(sigma[:, 0, 1]) ** 2
