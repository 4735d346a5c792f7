"""Built-in walk families, their closed-form scattering matrices, and
random test models.

Closed forms are implemented straight from the displayed formulas, with
no code shared with the spectral pipeline below complex arithmetic:
they are the reference values everything else is checked against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coins import CoinFamily, CoinProgram, eval_coins, parse_coin_family
from .graph import TailedGraph, build_graph
from .scattering import PoleHit
from .walk import WalkOperator, assemble

CLOSED_FORM_POLE_TOL = 1e-12


class EpsOutOfRange(ValueError):
    def __init__(self, eps: float, reason: str):
        self.eps = eps
        super().__init__(f"eps = {eps!r} is outside the family's range: {reason}")


@dataclass(frozen=True)
class ModelFamily:
    """A graph with eps-dependent coins, evaluable to a walk at any eps, or at a stack of them."""

    name: str
    graph: TailedGraph
    coins: CoinFamily
    eps_limit: float

    def check_eps(self, eps: float) -> float:
        eps = float(eps)
        if not 0.0 <= eps < self.eps_limit:
            raise EpsOutOfRange(eps, f"valid range is 0 <= eps < {self.eps_limit:g}")
        return eps

    @cached_property
    def program(self) -> CoinProgram:
        """The coins compiled, at the first walk: families are often built long before."""
        return CoinProgram(self.coins)

    def walks(self, eps_values) -> list:
        """Each eps's walk, or the error its build raised (as ``walk`` raises it),
        from one coin evaluation and one assembly."""
        checked = []
        for eps in eps_values:
            try:
                checked.append(self.check_eps(eps))
            except EpsOutOfRange as exc:
                checked.append(exc)
        good = [eps for eps in checked if not isinstance(eps, Exception)]
        built = iter(assemble(self.graph, eval_coins(self.program, np.array(good, dtype=float)), good))
        return [eps if isinstance(eps, Exception) else next(built) for eps in checked]

    def walk(self, eps: float) -> WalkOperator:
        member = self.walks([eps])[0]
        if isinstance(member, Exception):
            raise member
        return member

    __call__ = walk


# ---------------------------------------------------------------------------
# Two-channel double-well family ("ms"): four interior vertices, six arcs,
# two tail pairs; the coupling rotates amplitude between the circulating
# arcs and the exit arcs.


def matrix_schrodinger_family() -> ModelFamily:
    graph = build_graph(
        ["L+", "R+", "L-", "R-"],
        [
            ("L-", "L+", "a1"),
            ("L+", "R+", "a2"),
            ("R+", "R-", "a3"),
            ("R-", "L-", "a4"),
            ("L+", "L-", "a5"),
            ("R-", "R+", "a6"),
        ],
        [(1, "L+", "L-"), (2, "R-", "R+")],
    )
    s = "sqrt(1-eps^2)"
    coins = parse_coin_family(
        {
            # rows (a2, a5), cols (a1, in1)
            "L+": [[s, "-eps"], ["eps", s]],
            # rows (a4, a6), cols (a3, in2)
            "R-": [[s, "-eps"], ["eps", s]],
            # rows (a1, out1), cols (a4, a5)
            "L-": [[s, "eps"], ["-eps", s]],
            # rows (a3, out2), cols (a2, a6)
            "R+": [[s, "eps"], ["-eps", s]],
        }
    )
    return ModelFamily("ms", graph, coins, eps_limit=1 / math.sqrt(2))


def closed_form_sigma_ms(eps: float, z: complex) -> np.ndarray:
    """Scattering matrix of the two-channel double-well family, in closed form."""
    z = complex(z)
    e2 = float(eps) ** 2
    den = z * (z * z + 1 - 2 * e2)
    if abs(den) < CLOSED_FORM_POLE_TOL:
        raise PoleHit(f"z = {z:.9g} is a pole of the closed form")
    diag = (1 - e2) * (z * z + 1) / den
    off = e2 * (z * z - 1) / den
    return np.array([[diag, off], [off, diag]], dtype=complex)


# ---------------------------------------------------------------------------
# Cycle family: N vertices on a directed cycle, one tail pair per vertex,
# vertex n couples its tail to the cycle with strength c_n * eps.


def cycle_family(n_vertices: int, strengths) -> ModelFamily:
    if n_vertices < 2:
        raise ValueError("the cycle family needs at least 2 vertices")
    strengths = [float(c) for c in strengths]
    if len(strengths) != n_vertices:
        raise ValueError(
            f"expected {n_vertices} coupling strengths, got {len(strengths)}"
        )
    if any(c < 0 for c in strengths):
        raise ValueError("coupling strengths must be nonnegative")

    names = [f"v{n}" for n in range(1, n_vertices + 1)]
    arcs = []
    for n in range(1, n_vertices + 1):
        origin = names[-1] if n == 1 else names[n - 2]
        arcs.append((origin, names[n - 1], f"a{n}"))
    tails = [(n, names[n - 1], names[n - 1]) for n in range(1, n_vertices + 1)]
    graph = build_graph(names, arcs, tails)

    coins = {}
    for n, c in enumerate(strengths, start=1):
        cc = repr(c * c)
        cr = repr(c)
        s = f"sqrt(1-{cc}*eps^2)"
        # rows (a_{n+1}, out_n), cols (a_n, in_n)
        coins[names[n - 1]] = [[s, f"{cr}*eps"], [f"-{cr}*eps", s]]
    cmax = max(strengths)
    limit = math.inf if cmax == 0 else 1.0 / cmax
    return ModelFamily("cycle", graph, parse_coin_family(coins), eps_limit=limit)


def closed_form_sigma_cycle(n_vertices: int, strengths, eps: float, z: complex) -> np.ndarray:
    """Scattering matrix of the cycle family, straight from its closed form."""
    z = complex(z)
    eps = float(eps)
    n = n_vertices
    c = [float(x) for x in strengths]
    taus = [1.0]
    for k in range(n):
        taus.append(taus[-1] * math.sqrt(1 - (c[k] * eps) ** 2))
    zn = z**n
    den = zn - taus[n]
    if abs(den) < CLOSED_FORM_POLE_TOL or abs(z) < CLOSED_FORM_POLE_TOL:
        raise PoleHit(f"z = {z:.9g} is a pole of the closed form")
    sigma = np.zeros((n, n), dtype=complex)
    for col in range(1, n + 1):
        s_col = math.sqrt(1 - (c[col - 1] * eps) ** 2)
        for row in range(1, n + 1):
            if row == col:
                sigma[row - 1, col - 1] = ((1 - (c[col - 1] * eps) ** 2) * zn - taus[n]) / (
                    s_col * den
                )
            elif row < col:
                sigma[row - 1, col - 1] = (
                    -c[col - 1]
                    * c[row - 1]
                    * eps**2
                    * taus[row - 1]
                    * taus[n]
                    * z ** (col - row)
                    / (taus[col] * den)
                )
            else:
                sigma[row - 1, col - 1] = (
                    -c[col - 1]
                    * c[row - 1]
                    * eps**2
                    * taus[row - 1]
                    * z ** (n + col - row)
                    / (taus[col] * den)
                )
    return sigma


# ---------------------------------------------------------------------------
# Crossing family: two tail pairs meeting at a hub whose internal 2-cycle is
# decoupled; the tails mix directly with angle arcsin(c*eps).  This is the
# minimal family whose scattering matrix varies at first order in eps,
# which the quadratic-order families above never do at fixed z.


def crossing_family(strength: float = 1.0) -> ModelFamily:
    c = float(strength)
    if c <= 0:
        raise ValueError("the crossing strength must be positive")
    graph = build_graph(
        ["hub", "far"],
        [("hub", "far", "l1"), ("far", "hub", "l2")],
        [(1, "hub", "hub"), (2, "hub", "hub")],
    )
    cr, cc = repr(c), repr(c * c)
    s = f"sqrt(1-{cc}*eps^2)"
    coins = parse_coin_family(
        {
            # rows (l1, out1, out2), cols (l2, in1, in2)
            "hub": [["1", "0", "0"], ["0", s, f"{cr}*eps"], ["0", f"-{cr}*eps", s]],
            "far": [["1"]],
        }
    )
    return ModelFamily("crossing", graph, coins, eps_limit=1.0 / c)


def closed_form_sigma_crossing(eps: float, z: complex, strength: float = 1.0) -> np.ndarray:
    """The crossing family scatters by a constant rotation, any z."""
    ce = float(strength) * float(eps)
    s = math.sqrt(1 - ce * ce)
    return np.array([[s, ce], [-ce, s]], dtype=complex)


# ---------------------------------------------------------------------------
# Partial-fraction identity used by the cycle closed form


def partial_fraction_identity(
    n_terms: int, p: int, c: float, z: complex
) -> tuple[complex, complex]:
    """Both sides of sum_k mu^(kp)/(z - c mu^k) = N c^(N-p) z^(p-1)/(z^N - c^N).

    ``mu`` is the primitive N-th root of unity.  Returns (lhs, rhs) so
    callers can compare them; they agree to roundoff whenever ``z`` is
    away from the poles.
    """
    if not 1 <= p <= n_terms:
        raise ValueError(f"p must be within 1..{n_terms}")
    c = float(c)
    z = complex(z)
    if abs(z**n_terms - c**n_terms) < CLOSED_FORM_POLE_TOL:
        raise PoleHit("z^N - c^N vanishes; both sides are singular")
    mu = cmath.exp(2j * cmath.pi / n_terms)
    lhs = sum(mu ** (k * p) / (z - c * mu**k) for k in range(n_terms))
    rhs = n_terms * c ** (n_terms - p) * z ** (p - 1) / (z**n_terms - c**n_terms)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Random balanced walks (test fodder)


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    if dim == 0:
        return np.zeros((0, 0), dtype=complex)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_walk(
    rng: np.random.Generator,
    max_vertices: int = 5,
    max_cycles: int = 3,
    max_tails: int = 3,
) -> WalkOperator:
    """A random balanced tailed graph with Haar-random coins.

    The interior is a union of random closed walks (always balanced);
    each tail pair anchors both halves at one vertex, which keeps the
    balance untouched.  No structure beyond validity is guaranteed —
    that is the point.
    """
    nv = int(rng.integers(1, max_vertices + 1))
    names = [f"v{i}" for i in range(nv)]
    arcs = []
    for _ in range(int(rng.integers(1, max_cycles + 1))):
        length = int(rng.integers(1, nv + 2))
        seq = [int(rng.integers(0, nv)) for _ in range(length)]
        for i in range(length):
            arcs.append((names[seq[i]], names[seq[(i + 1) % length]]))
    n_tails = int(rng.integers(1, max_tails + 1))
    tails = []
    for n in range(1, n_tails + 1):
        v = names[int(rng.integers(0, nv))]
        tails.append((n, v, v))
    graph = build_graph(names, arcs, tails)
    coins = {v: _haar_unitary(rng, graph.degree(v)) for v in graph.vertices}
    return assemble(graph, coins)
