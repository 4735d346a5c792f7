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
    family: Callable[[float], object],
    eps_grid: Sequence[float] | None = None,
) -> ResonanceTrack:
    """Follow each unit-circle resonance of U(0) along the eps grid.

    The grid must start at 0 and increase.  Every unit-circle resonance
    of the decoupled walk must be simple, otherwise the perturbation
    picture breaks down and ``SimplicityViolated`` is raised.
    """
    grid = (
        default_eps_grid()
        if eps_grid is None
        else np.asarray([float(e) for e in eps_grid])
    )
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


def discrepancy_norm(
    family, z: complex, eps: float, route: str = "resolvent"
) -> float:
    """Operator norm of Sigma(eps, z) - Sigma(0, z) on the unit circle."""
    z = _project_to_circle(z)
    s_eps = scattering_matrix(family(eps), z, route).matrix
    s_zero = scattering_matrix(family(0.0), z, route).matrix
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


class _ResonanceContext(NamedTuple):
    walk: object
    system: EigenSystem
    cluster: Cluster
    boundary: object


def _context(family, eps, lam, lambda_eps=None):
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
    return _ResonanceContext(walk, system, cluster, boundary_data(walk, cluster))


def _split_mask(split, n_tails: int) -> np.ndarray:
    channels = sorted(set(int(n) for n in split))
    if not channels:
        raise ValueError("channel split must be nonempty")
    mask = np.zeros(n_tails, dtype=bool)
    for n in channels:
        if not 1 <= n <= n_tails:
            raise ValueError(f"channel {n} is not one of 1..{n_tails}")
        mask[n - 1] = True
    if mask.all():
        raise ValueError("channel split must leave at least one channel out")
    return mask


def _incoming_profile(boundary, mask):
    """Unit co-state tail profile and its normalised restriction to a split.

    An off-circle resonance couples to the tails, so the profile is nonzero.
    """
    in_co = np.asarray(boundary.in_data_co, dtype=complex)
    profile = in_co / float(np.linalg.norm(in_co))
    restricted = np.where(mask, profile, 0.0)
    weight = float(np.linalg.norm(restricted))
    if weight < 1e-15:
        raise ValueError("co-state has no weight on the chosen channels")
    return profile, restricted / weight


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
    ctx = _context(family, eps, lam, lambda_eps)
    walk, system, cluster, bd = ctx
    mask = _split_mask(split, walk.n_tails)
    profile, amp_in = _incoming_profile(bd, mask)

    lam_eps = cluster.value
    z_star = lam_eps / abs(lam_eps)
    weight_in = float(np.linalg.norm(np.where(mask, profile, 0.0)))
    weight_out = float(np.linalg.norm(np.where(~mask, profile, 0.0)))
    symmetry_residual = abs(weight_in - weight_out)

    sigma = scattering_matrix(walk, z_star, system=system).matrix
    split_set = {int(n) for n in split}
    t_peak, r_peak = transmission_reflection(sigma, split_set, amp_in)

    exit_profile = np.where(~mask, np.asarray(bd.out_data, dtype=complex), 0.0)
    exit_norm = float(np.linalg.norm(exit_profile))
    if exit_norm < 1e-15:
        overlap = 0.0
    else:
        overlap = float(abs(np.vdot(exit_profile / exit_norm, sigma @ amp_in)))

    predicted = 2.0 * (1.0 - abs(lam_eps))
    measured = None
    if t_peak >= PEAK_FLOOR:
        try:
            theta_minus, theta_plus = _half_height_window(
                walk, system, z_star, split_set, amp_in, 1.0 - abs(lam_eps)
            )
            measured = theta_plus - theta_minus
        except NoCrossing:
            measured = None

    energy = comfortability(walk, z_star, profile, system)
    bound = comfortability_bound(lam_eps)
    return TunnelingReport(
        lam=complex(lam),
        lambda_eps=lam_eps,
        eps=float(eps),
        z_star=z_star,
        split=tuple(sorted(split_set)),
        symmetry_residual=symmetry_residual,
        t_at_peak=t_peak,
        r_at_peak=r_peak,
        out_channel_overlap=overlap,
        peak_width_measured=measured,
        peak_width_predicted=predicted,
        comfortability_value=energy,
        comfortability_bound=bound,
    )


def _half_height_window(walk, system, z_star, split_set, amp_in, scale):
    """Bisect for the half-height angles on both sides of the peak."""
    base = cmath.phase(z_star)

    def t_at(theta: float) -> float:
        z = cmath.exp(1j * (base + theta))
        sigma = scattering_matrix(walk, z, system=system).matrix
        t, _ = transmission_reflection(sigma, split_set, amp_in)
        return t

    def crossing(sign: int) -> float:
        low = 0.0
        step = max(scale / 16.0, 1e-12)
        while step <= THETA_WINDOW:
            if t_at(sign * step) < 0.5:
                high = step
                break
            low = step
            step *= 2.0
        else:
            raise NoCrossing(
                f"transmission stays above 1/2 within {THETA_WINDOW:.3f} rad"
            )
        while high - low > THETA_TOL:
            mid = 0.5 * (low + high)
            if t_at(sign * mid) < 0.5:
                high = mid
            else:
                low = mid
        return sign * 0.5 * (low + high)

    return crossing(-1), crossing(+1)


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
    ctx = _context(family, eps, lam, lambda_eps)
    walk, system, cluster, bd = ctx
    mask = _split_mask(split, walk.n_tails)
    _, amp_in = _incoming_profile(bd, mask)
    lam_eps = cluster.value
    z_star = lam_eps / abs(lam_eps)
    split_set = {int(n) for n in split}

    sigma = scattering_matrix(walk, z_star, system=system).matrix
    t_peak, _ = transmission_reflection(sigma, split_set, amp_in)
    if t_peak < PEAK_FLOOR:
        raise ValueError(
            f"transmission {t_peak:.3f} at the peak is below {PEAK_FLOOR}; "
            "nothing to measure"
        )
    return _half_height_window(
        walk, system, z_star, split_set, amp_in, 1.0 - abs(lam_eps)
    )


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
    ctx = _context(family, eps, lam, lambda_eps)
    walk, system, cluster, bd = ctx
    in_co = np.asarray(bd.in_data_co, dtype=complex)
    amp_in = in_co / float(np.linalg.norm(in_co))
    lam_eps = cluster.value
    z_star = lam_eps / abs(lam_eps)
    energy = comfortability(walk, z_star, amp_in, system)
    return energy, comfortability_bound(lam_eps)


def resonant_block_norm(
    family,
    eps: float,
    lam: complex,
    lambda_eps: complex | None = None,
    z: complex | None = None,
) -> tuple:
    """Norm of the resonance's pole block and its theoretical floor.

    Evaluated at z* = lambda_eps/|lambda_eps| (the default) the block's
    operator norm is at least 1 + |lambda_eps|.
    """
    ctx = _context(family, eps, lam, lambda_eps)
    walk, system, cluster, _ = ctx
    lam_eps = cluster.value
    if z is None:
        z = lam_eps / abs(lam_eps)
    block = pole_block(walk, cluster, z)
    return float(np.linalg.norm(block, 2)), 1.0 + abs(lam_eps)


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


def _tracked_values(family, lam, grid):
    track = track_resonances(family, np.concatenate([[0.0], grid]))
    return track.path(lam)[1:]


def tunneling_table(
    family,
    lam: complex,
    split,
    eps_values=None,
) -> tuple:
    """Sweep the tunneling report along an eps grid."""
    grid = _positive(eps_values)
    tracked = _tracked_values(family, lam, grid)
    rows = []
    t_values = []
    residuals = []
    overlap_consts = []
    for eps, lam_eps in zip(grid, tracked):
        report = tunneling_check(family, eps, lam, split, lambda_eps=lam_eps)
        z_star = report.z_star
        rows.append(SweepRow(float(eps), z_star, "t_at_peak", report.t_at_peak))
        rows.append(
            SweepRow(
                float(eps), z_star, "symmetry_residual", report.symmetry_residual
            )
        )
        rows.append(
            SweepRow(float(eps), z_star, "overlap", report.out_channel_overlap)
        )
        if report.peak_width_measured is not None:
            rows.append(
                SweepRow(
                    float(eps),
                    z_star,
                    "width_measured",
                    report.peak_width_measured,
                )
            )
        rows.append(
            SweepRow(
                float(eps), z_star, "width_predicted", report.peak_width_predicted
            )
        )
        t_values.append(report.t_at_peak)
        residuals.append(report.symmetry_residual)
        overlap_consts.append(
            (1.0 - report.out_channel_overlap) / np.sqrt(eps) if eps > 0 else 0.0
        )
    t_values = np.asarray(t_values)
    summary = {
        "quantity": "tunneling",
        "points": len(grid),
        "min_t_at_peak": float(t_values.min()),
        "peak_band_pass": bool(np.all(t_values >= 1.0 - 10.0 * grid)),
        "max_symmetry_residual": float(max(residuals)),
        "overlap_sqrt_eps_constant": float(max(overlap_consts)),
    }
    return rows, summary


def width_table(
    family,
    lam: complex,
    split,
    eps_values=None,
) -> tuple:
    """Sweep measured versus predicted peak widths."""
    grid = _positive(eps_values)
    tracked = _tracked_values(family, lam, grid)
    rows = []
    ratios = []
    for eps, lam_eps in zip(grid, tracked):
        theta_minus, theta_plus = peak_width(family, eps, lam, split, lambda_eps=lam_eps)
        measured = theta_plus - theta_minus
        predicted = 2.0 * (1.0 - abs(lam_eps))
        z_star = lam_eps / abs(lam_eps)
        rows.append(SweepRow(float(eps), z_star, "width_measured", measured))
        rows.append(SweepRow(float(eps), z_star, "width_predicted", predicted))
        rows.append(SweepRow(float(eps), z_star, "width_ratio", measured / predicted))
        ratios.append(measured / predicted)
    ratios = np.asarray(ratios)
    summary = {
        "quantity": "width",
        "points": len(grid),
        "max_ratio_deviation": float(np.max(np.abs(ratios - 1.0))),
        "rel_slack": WIDTH_REL_SLACK,
        "width_band_pass": bool(np.all(np.abs(ratios - 1.0) <= WIDTH_REL_SLACK)),
    }
    return rows, summary


def comfort_table(
    family,
    lam: complex,
    eps_values=None,
) -> tuple:
    """Sweep interior energy against its divergence-rate bound."""
    grid = _positive(eps_values)
    tracked = _tracked_values(family, lam, grid)
    rows = []
    ratios = []
    scaled = []
    for eps, lam_eps in zip(grid, tracked):
        energy, bound = comfortability_growth(family, eps, lam, lambda_eps=lam_eps)
        z_star = lam_eps / abs(lam_eps)
        rows.append(SweepRow(float(eps), z_star, "comfort", energy))
        rows.append(SweepRow(float(eps), z_star, "comfort_bound", bound))
        scaled_value = energy * (1.0 - abs(lam_eps))
        rows.append(SweepRow(float(eps), z_star, "comfort_scaled", scaled_value))
        ratios.append(energy / bound)
        scaled.append(scaled_value)
    summary = {
        "quantity": "comfort",
        "points": len(grid),
        "min_ratio_to_bound": float(min(ratios)),
        "growth_band_pass": bool(min(ratios) >= 0.9),
        "scaled_min": float(min(scaled)),
        "scaled_max": float(max(scaled)),
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
    z_points = [cmath.exp(2j * cmath.pi * k / n_grid) for k in range(n_grid)]
    walk0 = family(0.0)
    system0 = eigen_decompose(walk0)
    s_zero = {
        z: scattering_matrix(walk0, z, route, system0).matrix for z in z_points
    }
    track = track_resonances(family, np.concatenate([[0.0], grid]))
    rows = []
    ratios = []
    for i, eps in enumerate(grid):
        walk = family(eps)
        system = eigen_decompose(walk)
        clusters = []
        for k in range(len(track.starts)):
            clusters.append(system.nearest_cluster(track.paths[i + 1, k]))
        worst = 0.0
        worst_z = z_points[0]
        for z in z_points:
            sigma = scattering_matrix(walk, z, route, system).matrix
            approx = s_zero[z].copy()
            for cluster in clusters:
                approx = approx + pole_block(walk, cluster, z)
            residual = float(np.linalg.norm(sigma - approx, 2))
            if residual > worst:
                worst, worst_z = residual, z
        rows.append(SweepRow(float(eps), worst_z, "remainder_sup", worst))
        ratios.append(worst / eps)
    summary = {
        "quantity": "remainder",
        "points": len(grid),
        "n_grid": n_grid,
        "constant": float(max(ratios)),
        "finite": bool(np.all(np.isfinite(ratios))),
    }
    return rows, summary
