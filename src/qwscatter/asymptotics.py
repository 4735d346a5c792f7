"""Parameter sweeps over the coin strength eps.

The interesting physics happens as eps -> 0: unit-circle resonances of
the decoupled walk drift slightly inside the disk, the scattering matrix
develops sharp peaks at the radial projections of those resonances, and
the interior energy of the scattered wave diverges.  This module turns
the corresponding asymptotic statements into measurements:

* :func:`track_resonances` follows each unit-circle resonance of the
  eps = 0 walk along an eps grid (nearest-neighbour matching with
  automatic step bisection),
* :func:`discrepancy_norm` measures how far the scattering matrix has
  moved from its decoupled limit,
* :func:`tunneling_check` evaluates the resonant-tunneling picture at a
  single (eps, resonance, channel-split) triple,
* :func:`peak_width` measures the half-height width of a transmission
  peak by bisection,
* :func:`comfortability_growth` compares the interior energy against its
  divergence rate (1 + |lambda|) |lambda|^2 / (1 - |lambda|).

The ``*_table`` variants wrap these into sweep tables (rows of
``(eps, z, quantity, value)``) plus a JSON-ready summary dict with
fitted slopes and band checks; the command line serialises them.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .scattering import (
    comfortability,
    pole_block,
    scattering_matrix,
    transmission_reflection,
)
from .spectral import (
    Cluster,
    EigenSystem,
    NumericalError,
    boundary_data,
    eigen_decompose,
)

# Fitted log-log slopes must land in these bands for the corresponding
# order-of-magnitude claims to count as verified.
FIRST_ORDER_BAND = (0.9, 1.1)
SECOND_ORDER_BAND = (1.8, 2.2)
# Relative slack for the measured-versus-predicted peak width comparison.
WIDTH_REL_SLACK = 0.2
# Transmission counts as a resonant peak when it exceeds this.
PEAK_FLOOR = 0.9
# Angular bisection tolerance for half-height crossings.
THETA_TOL = 1e-12
# Half-height scans stay within this angular window of the peak.
THETA_WINDOW = np.pi / 4
# z arguments for on-circle quantities may be off the circle by at most
# this much; they are projected radially.
CIRCLE_SLACK = 1e-3
# Maximum bisection depth when a tracking step is ambiguous.
MAX_TRACK_DEPTH = 20
# Test points should stay at least this far from every resonance; they
# are searched among this many evenly spaced circle points.
NONRESONANT_DIST = 0.3
NONRESONANT_SCAN = 256
# The default eps sweep is geometric over these decades.
EPS_GRID_START = 1e-3
EPS_GRID_STOP = 1e-1
EPS_PER_DECADE = 25


class SimplicityViolated(NumericalError):
    """A unit-circle resonance of the eps=0 walk is degenerate."""

    def __init__(self, value, multiplicity):
        self.value = value
        self.multiplicity = multiplicity
        super().__init__(
            f"unit-circle resonance {value:.6g} has multiplicity {multiplicity}"
        )


class TrackingAmbiguous(NumericalError):
    """Nearest-neighbour matching failed even after maximal refinement."""

    def __init__(self, eps):
        self.eps = eps
        super().__init__(f"resonance tracking ambiguous near eps = {eps:.6g}")


class ResonanceOnCircle(NumericalError):
    """The tracked resonance sits on the unit circle (nothing decays)."""


class NoCrossing(NumericalError):
    """Transmission never falls to one half inside the scan window."""


def default_eps_grid(include_zero: bool = True) -> np.ndarray:
    """Geometric eps grid over the default decades, optionally plus eps = 0."""
    decades = np.log10(EPS_GRID_STOP / EPS_GRID_START)
    count = int(round(EPS_PER_DECADE * decades)) + 1
    grid = np.geomspace(EPS_GRID_START, EPS_GRID_STOP, count)
    if include_zero:
        grid = np.concatenate([[0.0], grid])
    return grid


def geometric_grid(start: float, stop: float, count: int) -> np.ndarray:
    if count < 1:
        raise ValueError("grid needs at least one point")
    if count == 1:
        return np.array([float(start)])
    if not 0 < start <= stop:
        raise ValueError("need 0 < start <= stop for a geometric grid")
    return np.geomspace(start, stop, count)


def _project_to_circle(z: complex) -> complex:
    z = complex(z)
    radius = abs(z)
    if abs(radius - 1.0) > CIRCLE_SLACK:
        raise ValueError(f"z = {z:.6g} is not on the unit circle")
    return z / radius


# ---------------------------------------------------------------------------
# Resonance tracking


@dataclass(frozen=True)
class ResonanceTrack:
    """Paths of the unit-circle resonances of U(0) along an eps grid.

    ``paths[i, k]`` is the position at ``eps_grid[i]`` of the resonance
    that starts at ``starts[k]``; ``continuity[i, k]`` is the jump
    between consecutive grid points.  Steps are accepted only when each
    resonance moves by less than half its gap to the rest of the
    spectrum, refining the step if necessary, so the columns really are
    continuations of their starting values.
    """

    eps_grid: tuple
    starts: tuple
    paths: np.ndarray
    continuity: np.ndarray

    def column(self, start: complex) -> int:
        if not self.starts:
            raise ValueError("no resonances tracked")
        dists = [abs(s - start) for s in self.starts]
        return int(np.argmin(dists))

    def path(self, start: complex) -> np.ndarray:
        return self.paths[:, self.column(start)]

    def at(self, eps: float, start: complex) -> complex:
        i = int(np.argmin(np.abs(np.asarray(self.eps_grid) - eps)))
        if abs(self.eps_grid[i] - eps) > 1e-12 * max(1.0, abs(eps)):
            raise ValueError(f"eps = {eps!r} is not a grid point of this track")
        return complex(self.paths[i, self.column(start)])


def _eigenvalues(family, eps: float) -> np.ndarray:
    return np.linalg.eigvals(family(eps).interior)


def _match_step(vals0, cur, vals1):
    """Nearest-neighbour matching of tracked values into a new spectrum."""
    new = []
    used = set()
    for lam in cur:
        gaps = np.sort(np.abs(vals0 - lam))
        # the smallest gap is the tracked eigenvalue itself
        gap = float(gaps[1]) if len(gaps) > 1 else np.inf
        j = int(np.argmin(np.abs(vals1 - lam)))
        if j in used:
            return None
        move = abs(vals1[j] - lam)
        if not move < 0.5 * gap:
            return None
        used.add(j)
        new.append(complex(vals1[j]))
    return new


def _advance(family, e0, vals0, cur, e1, depth):
    vals1 = _eigenvalues(family, e1)
    new = _match_step(vals0, cur, vals1)
    if new is not None:
        return vals1, new
    if depth >= MAX_TRACK_DEPTH:
        raise TrackingAmbiguous(e1)
    mid = 0.5 * (e0 + e1)
    vals_m, cur_m = _advance(family, e0, vals0, cur, mid, depth + 1)
    return _advance(family, mid, vals_m, cur_m, e1, depth + 1)


def track_resonances(
    family: Callable[[float], object], eps_grid: Sequence[float]
) -> ResonanceTrack:
    """Follow each unit-circle resonance of U(0) along the eps grid.

    The grid must start at 0 and increase.  Every unit-circle resonance
    of the decoupled walk must be simple, otherwise the perturbation
    picture breaks down and ``SimplicityViolated`` is raised.
    """
    grid = np.asarray([float(e) for e in eps_grid])
    if len(grid) == 0:
        raise ValueError("empty eps grid")
    if grid[0] != 0.0:
        raise ValueError("eps grid must start at 0")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("eps grid must be strictly increasing")

    walk0 = family(0.0)
    system0 = eigen_decompose(walk0)
    starts = []
    for cluster in system0.on_circle():
        if not cluster.is_simple:
            raise SimplicityViolated(cluster.value, cluster.multiplicity)
        starts.append(cluster.value)
    starts.sort(key=lambda v: cmath.phase(v))

    paths = np.zeros((len(grid), len(starts)), dtype=complex)
    if starts:
        paths[0] = starts
        vals = _eigenvalues(family, 0.0)
        cur = list(starts)
        for i in range(1, len(grid)):
            vals, cur = _advance(family, grid[i - 1], vals, cur, grid[i], 0)
            paths[i] = cur
    continuity = np.abs(np.diff(paths, axis=0))
    return ResonanceTrack(
        eps_grid=tuple(float(e) for e in grid),
        starts=tuple(starts),
        paths=paths,
        continuity=continuity,
    )


# ---------------------------------------------------------------------------
# Discrepancy from the decoupled limit


def discrepancy_norm(family, z: complex, eps: float) -> float:
    """Operator norm of Sigma(eps, z) - Sigma(0, z) on the unit circle."""
    z = _project_to_circle(z)
    s_eps = scattering_matrix(family(eps), z).matrix
    s_zero = scattering_matrix(family(0.0), z).matrix
    return float(np.linalg.norm(s_eps - s_zero, 2))


def fit_loglog_slope(eps_values, values) -> tuple:
    """Least-squares slope of log(value) against log(eps)."""
    eps_values = np.asarray(eps_values, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (eps_values > 0) & (values > 0)
    if keep.sum() < 2:
        raise ValueError("need at least two positive points for a slope fit")
    slope, intercept = np.polyfit(np.log(eps_values[keep]), np.log(values[keep]), 1)
    return float(slope), float(intercept)


def nonresonant_point(family) -> complex:
    """A deterministic unit-circle point far from every resonance of U(0)."""
    values = _eigenvalues(family, 0.0)
    best, best_dist = None, -1.0
    for k in range(NONRESONANT_SCAN):
        z = cmath.exp(2j * cmath.pi * (k + 0.5) / NONRESONANT_SCAN)
        dist = float(np.min(np.abs(values - z))) if len(values) else np.inf
        if dist >= NONRESONANT_DIST:
            return z
        if dist > best_dist:
            best, best_dist = z, dist
    raise ValueError(
        f"no circle point stays {NONRESONANT_DIST} away from the resonances "
        f"(best gap {best_dist:.3g} at {best:.6g})"
    )


# ---------------------------------------------------------------------------
# Resonant tunneling


@dataclass(frozen=True)
class TunnelingReport:
    """Everything the resonant-tunneling picture predicts at one eps.

    Peak widths are ``None`` when the transmission at the peak is below
    ``PEAK_FLOOR`` — there is no peak to measure then.
    """

    lam: complex
    lambda_eps: complex
    eps: float
    z_star: complex
    split: tuple
    symmetry_residual: float
    t_at_peak: float
    r_at_peak: float
    out_channel_overlap: float
    peak_width_measured: float | None
    peak_width_predicted: float
    comfortability_value: float
    comfortability_bound: float

    def __post_init__(self):
        if not -1e-8 <= self.t_at_peak <= 1.0 + 1e-8:
            raise ValueError(f"transmission {self.t_at_peak} outside [0, 1]")


class _Peak(NamedTuple):
    """A tracked resonance and its transmission peak z* = λ_ε/|λ_ε|."""

    walk: object
    system: EigenSystem
    cluster: Cluster
    boundary: object
    lam_eps: complex
    z_star: complex
    profile: np.ndarray  # unit co-state tail profile


def _peak(family, eps, lam, lambda_eps=None) -> _Peak:
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if lambda_eps is None:
        track = track_resonances(family, (0.0, eps))
        lambda_eps = track.at(eps, lam)
    walk = family(eps)
    system = eigen_decompose(walk)
    cluster = system.nearest_cluster(lambda_eps)
    if cluster.on_unit_circle:
        raise ResonanceOnCircle(
            f"resonance {cluster.value:.6g} sits on the unit circle"
        )
    bd = boundary_data(walk, cluster)
    # an off-circle resonance couples to the tails, so the profile is nonzero
    in_co = np.asarray(bd.in_data_co, dtype=complex)
    value = cluster.value
    profile = in_co / float(np.linalg.norm(in_co))
    return _Peak(walk, system, cluster, bd, value, value / abs(value), profile)


def _split(peak: _Peak, split) -> tuple:
    """Sorted channels, their mask, and the profile restricted to them, normalised."""
    channels = sorted(set(int(n) for n in split))
    if not channels:
        raise ValueError("channel split must be nonempty")
    n_tails = peak.walk.n_tails
    mask = np.zeros(n_tails, dtype=bool)
    for n in channels:
        if not 1 <= n <= n_tails:
            raise ValueError(f"channel {n} is not one of 1..{n_tails}")
        mask[n - 1] = True
    if mask.all():
        raise ValueError("channel split must leave at least one channel out")
    restricted = np.where(mask, peak.profile, 0.0)
    weight = float(np.linalg.norm(restricted))
    if weight < 1e-15:
        raise ValueError("co-state has no weight on the chosen channels")
    return channels, mask, restricted / weight


def _transmission(peak: _Peak, z, channels, amp_in):
    """Σ at ``z`` (a point or an array) and the transmitted and reflected power."""
    sigma = scattering_matrix(peak.walk, z, system=peak.system).matrix
    return (sigma,) + transmission_reflection(sigma, channels, amp_in)


def tunneling_check(
    family,
    eps: float,
    lam: complex,
    split,
    lambda_eps: complex | None = None,
) -> TunnelingReport:
    """Evaluate the resonant-tunneling prediction at one parameter point.

    ``lam`` is a unit-circle resonance of the decoupled walk; its
    continuation ``lambda_eps`` is tracked automatically unless given
    (pass the value from a prior :func:`track_resonances` run when
    sweeping, which avoids re-tracking from 0 at every eps).  The
    incoming wave is the normalised restriction of the resonant
    co-state's tail profile to the channels in ``split``.
    """
    peak = _peak(family, eps, lam, lambda_eps)
    channels, mask, amp_in = _split(peak, split)
    weight_in = float(np.linalg.norm(np.where(mask, peak.profile, 0.0)))
    weight_out = float(np.linalg.norm(np.where(~mask, peak.profile, 0.0)))
    symmetry_residual = abs(weight_in - weight_out)

    sigma, t_peak, r_peak = _transmission(peak, peak.z_star, channels, amp_in)
    exit_profile = np.where(~mask, peak.boundary.out_data, 0.0)
    exit_norm = float(np.linalg.norm(exit_profile))
    if exit_norm < 1e-15:
        overlap = 0.0
    else:
        overlap = float(abs(np.vdot(exit_profile / exit_norm, sigma @ amp_in)))

    measured = None
    if t_peak >= PEAK_FLOOR:
        try:
            theta_minus, theta_plus = _half_height_window(peak, channels, amp_in)
            measured = theta_plus - theta_minus
        except NoCrossing:
            pass

    return TunnelingReport(
        lam=complex(lam),
        lambda_eps=peak.lam_eps,
        eps=float(eps),
        z_star=peak.z_star,
        split=tuple(channels),
        symmetry_residual=symmetry_residual,
        t_at_peak=t_peak,
        r_at_peak=r_peak,
        out_channel_overlap=overlap,
        peak_width_measured=measured,
        peak_width_predicted=2.0 * (1.0 - abs(peak.lam_eps)),
        comfortability_value=comfortability(
            peak.walk, peak.z_star, peak.profile, peak.system
        ),
        comfortability_bound=comfortability_bound(peak.lam_eps),
    )


def _half_height_window(peak: _Peak, channels, amp_in) -> tuple:
    """Bisect for the half-height angles on both sides of the peak.

    One stacked Σ evaluates the doubling steps
    ``max((1 - |λ_ε|)/16, 1e-12) * 2^k <= THETA_WINDOW`` on both sides;
    the first step below one half and the step before it (or 0) bracket
    each crossing.  Both brackets are then bisected to ``THETA_TOL``
    together, one Σ over the sides still open per step.
    """
    base = cmath.phase(peak.z_star)
    sides = np.array([-1.0, 1.0])

    def below_half(theta):
        t = _transmission(peak, np.exp(1j * (base + theta)), channels, amp_in)[1]
        return t < 0.5

    steps = []
    step = max((1.0 - abs(peak.lam_eps)) / 16.0, 1e-12)
    while step <= THETA_WINDOW:
        steps.append(step)
        step *= 2.0
    steps = np.array(steps)
    below = below_half(np.outer(sides, steps).reshape(-1)).reshape(2, -1)
    if not below.any(axis=1).all():
        raise NoCrossing(
            f"transmission stays above 1/2 within {THETA_WINDOW:.3f} rad"
        )
    first = np.argmax(below, axis=1)
    high = steps[first]
    low = np.where(first > 0, steps[first - 1], 0.0)
    while (open_ := high - low > THETA_TOL).any():
        mid = 0.5 * (low[open_] + high[open_])
        hit = below_half(sides[open_] * mid)
        high[open_] = np.where(hit, mid, high[open_])
        low[open_] = np.where(hit, low[open_], mid)
    theta = sides * 0.5 * (low + high)
    return float(theta[0]), float(theta[1])


def peak_width(
    family,
    eps: float,
    lam: complex,
    split,
    lambda_eps: complex | None = None,
) -> tuple:
    """Half-height angles (theta_minus, theta_plus) around the peak.

    The transmission through the ``split`` channels is scanned away from
    z* = lambda_eps/|lambda_eps| until it first falls below one half on
    each side; each crossing is then bisected to ``THETA_TOL``.
    """
    peak = _peak(family, eps, lam, lambda_eps)
    channels, _, amp_in = _split(peak, split)
    _, t_peak, _ = _transmission(peak, peak.z_star, channels, amp_in)
    if t_peak < PEAK_FLOOR:
        raise ValueError(
            f"transmission {t_peak:.3f} at the peak is below {PEAK_FLOOR}; "
            "nothing to measure"
        )
    return _half_height_window(peak, channels, amp_in)


def comfortability_bound(lambda_eps: complex) -> float:
    """Divergence-rate lower bound (1 + |l|) |l|^2 / (1 - |l|)."""
    mod = abs(lambda_eps)
    if mod >= 1.0:
        raise ResonanceOnCircle(f"|lambda| = {mod} is not inside the disk")
    return (1.0 + mod) * mod * mod / (1.0 - mod)


def comfortability_growth(
    family,
    eps: float,
    lam: complex,
    lambda_eps: complex | None = None,
) -> tuple:
    """Interior energy at the peak and its predicted divergence rate.

    The incoming wave is the full normalised tail profile of the
    resonant co-state; the bound uses that the resonant pair's interior
    norms multiply to at least one.
    """
    peak = _peak(family, eps, lam, lambda_eps)
    energy = comfortability(peak.walk, peak.z_star, peak.profile, peak.system)
    return energy, comfortability_bound(peak.lam_eps)


def resonant_block_norm(
    family,
    eps: float,
    lam: complex,
    lambda_eps: complex | None = None,
) -> tuple:
    """Norm of the resonance's pole block and its theoretical floor.

    Evaluated at z* = lambda_eps/|lambda_eps| the block's operator norm
    is at least 1 + |lambda_eps|.
    """
    peak = _peak(family, eps, lam, lambda_eps)
    block = pole_block(peak.walk, peak.cluster, peak.z_star)
    return float(np.linalg.norm(block, 2)), 1.0 + abs(peak.lam_eps)


# ---------------------------------------------------------------------------
# Sweep tables


class SweepRow(NamedTuple):
    eps: float
    z: complex
    quantity: str
    value: float


def _positive(eps_values) -> np.ndarray:
    grid = (
        default_eps_grid(include_zero=False)
        if eps_values is None
        else np.asarray([float(e) for e in eps_values])
    )
    grid = grid[grid > 0]
    if len(grid) == 0:
        raise ValueError("need at least one positive eps value")
    return np.sort(grid)


def _in_band(value: float, band) -> bool:
    return bool(band[0] <= value <= band[1])


def discrepancy_table(
    family, z: complex, eps_values=None, route: str = "resolvent"
) -> tuple:
    """Sweep ||Sigma(eps, z) - Sigma(0, z)|| and fit its log-log slope."""
    z = _project_to_circle(z)
    grid = _positive(eps_values)
    walk0 = family(0.0)
    system0 = eigen_decompose(walk0)
    s_zero = scattering_matrix(walk0, z, route, system0).matrix
    rows = []
    values = []
    for eps in grid:
        s_eps = scattering_matrix(family(eps), z, route).matrix
        value = float(np.linalg.norm(s_eps - s_zero, 2))
        values.append(value)
        rows.append(SweepRow(float(eps), z, "discrepancy", value))
    slope, intercept = fit_loglog_slope(grid, values)
    summary = {
        "quantity": "discrepancy",
        "z_re": z.real,
        "z_im": z.imag,
        "points": len(rows),
        "slope": slope,
        "intercept": intercept,
        "slope_band": list(FIRST_ORDER_BAND),
        "slope_in_band": _in_band(slope, FIRST_ORDER_BAND),
    }
    return rows, summary


def _peak_sweep(family, lam, eps_values, measure) -> tuple:
    """Rows of ``measure`` along the tracked peak, and each quantity as an array.

    λ is tracked once over the positive grid; ``measure(eps, lam_eps)``
    returns a dict of quantity -> value at each eps, where ``None`` is
    an absent value: it makes no row, and NaN in the quantity's array.
    Every row carries the peak z* = λ_ε/|λ_ε|.
    """
    grid = _positive(eps_values)
    track = track_resonances(family, np.concatenate([[0.0], grid]))
    rows = []
    columns: dict = {}
    for eps, lam_eps in zip(grid, track.path(lam)[1:]):
        value = complex(lam_eps)
        z_star = value / abs(value)
        for quantity, measured in measure(eps, lam_eps).items():
            columns.setdefault(quantity, []).append(measured)
            if measured is not None:
                rows.append(SweepRow(float(eps), z_star, quantity, measured))
    arrays = {q: np.array(values, dtype=float) for q, values in columns.items()}
    return rows, grid, arrays


def tunneling_table(
    family,
    lam: complex,
    split,
    eps_values=None,
) -> tuple:
    """Sweep the tunneling report along an eps grid."""

    def measure(eps, lam_eps):
        report = tunneling_check(family, eps, lam, split, lambda_eps=lam_eps)
        return {
            "t_at_peak": report.t_at_peak,
            "symmetry_residual": report.symmetry_residual,
            "overlap": report.out_channel_overlap,
            "width_measured": report.peak_width_measured,
            "width_predicted": report.peak_width_predicted,
        }

    rows, grid, values = _peak_sweep(family, lam, eps_values, measure)
    t_values = values["t_at_peak"]
    summary = {
        "quantity": "tunneling",
        "points": len(grid),
        "min_t_at_peak": float(t_values.min()),
        "peak_band_pass": bool(np.all(t_values >= 1.0 - 10.0 * grid)),
        "max_symmetry_residual": float(values["symmetry_residual"].max()),
        "overlap_sqrt_eps_constant": float(
            np.max((1.0 - values["overlap"]) / np.sqrt(grid))
        ),
    }
    return rows, summary


def width_table(
    family,
    lam: complex,
    split,
    eps_values=None,
) -> tuple:
    """Sweep measured versus predicted peak widths."""

    def measure(eps, lam_eps):
        theta_minus, theta_plus = peak_width(family, eps, lam, split, lambda_eps=lam_eps)
        measured = theta_plus - theta_minus
        predicted = 2.0 * (1.0 - abs(lam_eps))
        return {
            "width_measured": measured,
            "width_predicted": predicted,
            "width_ratio": measured / predicted,
        }

    rows, grid, values = _peak_sweep(family, lam, eps_values, measure)
    deviation = np.abs(values["width_ratio"] - 1.0)
    summary = {
        "quantity": "width",
        "points": len(grid),
        "max_ratio_deviation": float(np.max(deviation)),
        "rel_slack": WIDTH_REL_SLACK,
        "width_band_pass": bool(np.all(deviation <= WIDTH_REL_SLACK)),
    }
    return rows, summary


def comfort_table(
    family,
    lam: complex,
    eps_values=None,
) -> tuple:
    """Sweep interior energy against its divergence-rate bound."""

    def measure(eps, lam_eps):
        energy, bound = comfortability_growth(family, eps, lam, lambda_eps=lam_eps)
        return {
            "comfort": energy,
            "comfort_bound": bound,
            "comfort_scaled": energy * (1.0 - abs(lam_eps)),
        }

    rows, grid, values = _peak_sweep(family, lam, eps_values, measure)
    ratios = values["comfort"] / values["comfort_bound"]
    scaled = values["comfort_scaled"]
    summary = {
        "quantity": "comfort",
        "points": len(grid),
        "min_ratio_to_bound": float(ratios.min()),
        "growth_band_pass": bool(ratios.min() >= 0.9),
        "scaled_min": float(scaled.min()),
        "scaled_max": float(scaled.max()),
    }
    return rows, summary


def remainder_table(
    family,
    eps_values=None,
    n_grid: int = 64,
    route: str = "resolvent",
) -> tuple:
    """Residual of the pole-sum approximation to the scattering discrepancy.

    For each eps the walk's scattering matrix is compared against the
    decoupled one plus the pole blocks of all tracked resonances; the
    table records the supremum of the operator-norm residual over a
    uniform circle grid, and the summary fits the constant in the
    first-order bound residual <= C * eps.
    """
    grid = _positive(eps_values)
    z_points = np.array(
        [cmath.exp(2j * cmath.pi * k / n_grid) for k in range(n_grid)]
    )
    walk0 = family(0.0)
    s_zero = scattering_matrix(walk0, z_points, route, eigen_decompose(walk0)).matrix
    track = track_resonances(family, np.concatenate([[0.0], grid]))
    rows = []
    ratios = []
    for i, eps in enumerate(grid):
        walk = family(eps)
        system = eigen_decompose(walk)
        approx = s_zero
        for k in range(len(track.starts)):
            cluster = system.nearest_cluster(track.paths[i + 1, k])
            approx = approx + pole_block(walk, cluster, z_points)
        sigma = scattering_matrix(walk, z_points, route, system).matrix
        residuals = np.linalg.norm(sigma - approx, 2, axis=(1, 2))
        worst = int(np.argmax(residuals))
        sup = float(residuals[worst])
        rows.append(SweepRow(float(eps), complex(z_points[worst]), "remainder_sup", sup))
        ratios.append(sup / eps)
    summary = {
        "quantity": "remainder",
        "points": len(grid),
        "n_grid": n_grid,
        "constant": float(max(ratios)),
        "finite": bool(np.all(np.isfinite(ratios))),
    }
    return rows, summary
