"""Parameter sweeps over the coin strength eps.

The interesting physics happens as eps -> 0: unit-circle resonances of
the decoupled walk drift slightly inside the disk, the scattering matrix
develops sharp peaks at the radial projections of those resonances, and
the interior energy of the scattered wave diverges.  This module turns
the corresponding asymptotic statements into measurements:

* :func:`track_resonances` follows each unit-circle resonance of the
  eps = 0 walk along an eps grid (nearest-neighbour matching with
  automatic step bisection),
* :func:`tunneling_check` evaluates the resonant-tunneling picture at one
  (eps, resonance, channel-split) triple: its :class:`TunnelingReport`
  has T and R at the peak, the interior energy against (1 + |lambda|)
  |lambda|^2 / (1 - |lambda|), and ``line_shape``, the
  :class:`LineShape` whose half-height window gives the measured width.

The ``*_table`` variants wrap these into sweep tables (rows of
``(eps, z, quantity, value)``) plus a JSON-ready summary dict with
fitted slopes and band checks; the command line serialises them.

The tables that follow a resonance (tunneling, width, comfort and
remainder) stream the eps grid (:func:`_stream`): each eps's walk is
built once and decomposed once, a chunk of eps in one ``family.walks``
and one ``eigen_decompose`` call (:func:`_decomposed`), tracking matches on that
decomposition's cluster values, and the measure at that eps reads the
same walk and decomposition, one eps at a time.  Each peak builds one
resolvent kernel over every tail and the co-state profile, and checks the split
once: one solve at z* gives T, R, the out-channel overlap and the
comfortability.  The half-height window reads a :class:`LineShape` off
the same kernel, with no new solve: T through the split as a pole–residue
sum, O(n_poles·n_channels) per z with no interior wave.  A sweep keeps
only each eps's line shape past the stream and searches every window
afterwards in one lockstep (:func:`_search_windows`), one stacked
evaluation per step for all the eps, each bracket stepping on its own
values, so every width has the bits of its eps searched alone.  The peak
floor is ``LineShape._peaked``'s rule alone, the weight floor
:func:`_weight`'s, and every uniform circle grid is :func:`_circle_grid`'s.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .scattering import (
    _check_route,
    _checked,
    _hits,
    pole_block,
    resolvent_kernel,
    scattering_matrix,
    transmission_reflection,
)
from .spectral import (
    UNIT_ROUNDOFF,
    Cluster,
    EigenSystem,
    NumericalError,
    _follows,
    boundary_data,
    eigen_decompose,
)

# Fitted log-log slopes must land in these bands for the corresponding
# order-of-magnitude claims to count as verified.
FIRST_ORDER_BAND = (0.9, 1.1)
SECOND_ORDER_BAND = (1.8, 2.2)
# Relative slack for the measured-versus-predicted peak width comparison.
WIDTH_REL_SLACK = 0.2
# Transmission counts as a resonant peak when it reaches this.
PEAK_FLOOR = 0.9
# A tail profile of smaller norm carries no weight.
_WEIGHT_FLOOR = 1e-15
# Angular tolerance for half-height crossings: each side's final bracket
# is at most this wide.
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
# A sweep decomposes its eps grid a chunk at a time, each chunk in one
# eigen_decompose call: a chunk's complex interiors take at most this many
# bytes (one walk at least), so a long line holds one chunk, never a grid.
CHUNK_BYTES = 1 << 20


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


class NoDetachingResonance(ValueError):
    """No unit-circle resonance of U(0) leaves the circle along the grid."""


def default_eps_grid() -> np.ndarray:
    """eps = 0, then a geometric eps grid over the default decades."""
    decades = np.log10(EPS_GRID_STOP / EPS_GRID_START)
    count = int(round(EPS_PER_DECADE * decades)) + 1
    return np.concatenate([[0.0], np.geomspace(EPS_GRID_START, EPS_GRID_STOP, count)])


def geometric_grid(start: float, stop: float, count: int) -> np.ndarray:
    if count < 1:
        raise ValueError("grid needs at least one point")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid ends must be finite, not {start!r} and {stop!r}")
    if not 0 < start:
        raise ValueError(f"need 0 < start for a geometric grid, not {start!r}")
    # start == stop would repeat one eps count times
    if count > 1 and not start < stop:
        raise ValueError("need start < stop for a geometric grid of several points")
    return np.geomspace(start, stop, count)


def _circle_grid(n: int) -> np.ndarray:
    """The ``n`` points e^(2πik/n), k = 0, ..., n - 1: every uniform circle grid."""
    return np.array([cmath.exp(2j * cmath.pi * k / n) for k in range(n)], dtype=complex)


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
    that starts at ``starts[k]``.  Steps are accepted only when each
    resonance moves by less than half its gap to the rest of the
    spectrum, refining the step if necessary, so the columns really are
    continuations of their starting values.
    """

    eps_grid: tuple
    starts: tuple
    paths: np.ndarray


def _column(starts, start: complex) -> int:
    """The nearest start's column; ``start`` must lie within half its gap
    to the next start, the rule of the tracking steps."""
    if len(starts) == 0:
        raise ValueError("no resonances tracked")
    dists = [abs(s - start) for s in starts]
    k = int(np.argmin(dists))
    gaps = [abs(s - starts[k]) for j, s in enumerate(starts) if j != k]
    if gaps and not dists[k] < 0.5 * min(gaps):
        named = ", ".join(f"{s:.6g}" for s in starts)
        raise ValueError(
            f"lambda = {complex(start):.6g} names none of the tracked "
            f"resonances ({named})"
        )
    return k


def _starts(system0: EigenSystem) -> list:
    """The unit-circle resonances of U(0) by phase; each must be simple."""
    circle = system0.on_unit_circle
    multiple = circle & (system0.multiplicity > 1)
    if multiple.any():
        k = int(multiple.argmax())
        raise SimplicityViolated(complex(system0.values[k]), int(system0.multiplicity[k]))
    return sorted(system0.values[circle].tolist(), key=cmath.phase)


def _spectrum(system: EigenSystem) -> np.ndarray:
    """The cluster values of ``system``, each repeated by its multiplicity:
    the spectrum every tracking step matches on."""
    return np.repeat(system.values, system.multiplicity)


def _match_step(vals0, cur, vals1):
    """Nearest-neighbour matching of tracked values into a new spectrum.

    Each tracked value ``cur[i]`` moves to its nearest value in ``vals1``;
    the step is refused (None) when one moves by half its gap to the rest
    of ``vals0`` or more, or two of them land on the same value.
    """
    cur = np.asarray(cur, dtype=complex)
    if not len(cur):
        return []
    gap = np.inf
    if len(vals0) > 1:  # the smallest gap is the tracked eigenvalue itself
        gap = np.partition(np.abs(np.subtract.outer(cur, vals0)), 1, axis=1)[:, 1]
    distance = np.abs(np.subtract.outer(cur, vals1))
    nearest = distance.argmin(axis=1)
    move = distance[np.arange(len(cur)), nearest]
    if not np.logical_and.reduce(move < 0.5 * gap) or len(set(nearest.tolist())) < len(cur):
        return None
    return vals1[nearest].tolist()


def _advance(family, e0, vals0, cur, e1, vals1, depth):
    """Match ``cur`` from the spectrum ``vals0`` at ``e0`` into ``vals1`` at ``e1``.

    A refused step is halved: each midpoint walks and decomposes
    ``family(mid)`` and is matched on its :func:`_spectrum`, as a grid
    point is.
    """
    new = _match_step(vals0, cur, vals1)
    if new is not None:
        return new
    if depth >= MAX_TRACK_DEPTH:
        raise TrackingAmbiguous(e1)
    mid = 0.5 * (e0 + e1)
    vals_m = _spectrum(eigen_decompose(family(mid)))
    cur_m = _advance(family, e0, vals0, cur, mid, vals_m, depth + 1)
    return _advance(family, mid, vals_m, cur_m, e1, vals1, depth + 1)


def track_resonances(
    family: Callable[[float], object], eps_grid: Sequence[float]
) -> ResonanceTrack:
    """Follow each unit-circle resonance of U(0) along the eps grid.

    The grid must start at 0 and increase.  Every unit-circle resonance
    of the decoupled walk must be simple, otherwise the perturbation
    picture breaks down and ``SimplicityViolated`` is raised.  The rows
    of ``paths`` are the ``tracked`` values of :func:`_stream`; with no
    start, no walk is built past eps = 0.
    """
    grid = np.asarray([float(e) for e in eps_grid])
    if len(grid) == 0:
        raise ValueError("empty eps grid")
    if grid[0] != 0.0:
        raise ValueError("eps grid must start at 0")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("eps grid must be strictly increasing")

    points = _stream(family, grid[1:])
    starts = next(points).tracked
    paths = np.zeros((len(grid), 0), dtype=complex)
    if len(starts):
        paths = np.array([starts] + [point.tracked for point in points])
    return ResonanceTrack(tuple(grid.tolist()), tuple(starts.tolist()), paths)


def _decomposed(family, eps_values, n0: int):
    """``(eps, walk, system)`` for each of ``eps_values``, decomposed a chunk at a time.

    Each chunk's walks are built in one ``family.walks`` call (eps by eps
    for a plain callable, up to the first that fails) and decomposed in one
    :func:`eigen_decompose` call, their ``n0 × n0`` interiors within
    ``CHUNK_BYTES``.  An error raises when the stream reaches its eps, after
    the chunk's earlier eps: a walk's when it was built, a decomposition's
    when its system is read.  One chunk is alive at a time.
    """
    size = max(1, CHUNK_BYTES // (16 * n0 * n0 or 1))
    for start in range(0, len(eps_values), size):
        chunk = eps_values[start : start + size]
        walks = family.walks(chunk) if hasattr(family, "walks") else _each_walk(family, chunk)
        stop = next((k for k, walk in enumerate(walks) if isinstance(walk, Exception)), len(walks))
        failure = walks[stop] if stop < len(walks) else None
        walks = walks[:stop]
        systems = eigen_decompose(walks) if walks else ()
        for k, walk in enumerate(walks):
            yield float(chunk[k]), walk, systems[k]
        del walks, systems  # the next chunk is built with this one gone
        if failure is not None:
            raise failure


def _each_walk(family, chunk) -> list:
    """``family(eps)`` for each eps of ``chunk``, up to and with the error of the first that fails."""
    walks = []
    for eps in chunk:
        try:
            walks.append(family(eps))
        except Exception as exc:  # raised once the eps before it are yielded
            return walks + [exc]
    return walks


class _GridPoint(NamedTuple):
    """One eps of a streamed track (:func:`_stream`)."""

    eps: float
    walk: object
    system: EigenSystem
    tracked: np.ndarray  # where each start is at eps: a row of ResonanceTrack.paths


def _stream(family, eps_values):
    """Walk, decompose and track at eps = 0 and then at each of ``eps_values``.

    ``eps_values`` are positive and increasing.  eps = 0 is walked and
    decomposed alone, so a track with no start builds no other walk; the
    others are walked and decomposed a chunk at a time
    (:func:`_decomposed`), each eps once.  The tracked resonances are
    matched on each decomposition's cluster values (:func:`_spectrum`),
    so the walk and system each point hands out are the ones its
    measure uses; a bisection midpoint is decomposed alone and matched
    the same way (:func:`_advance`).  A generator, so one chunk's
    decompositions are alive at a time; the first point's ``tracked`` are
    the starts, ordered by phase.
    """
    walk = family(0.0)
    system = eigen_decompose(walk)
    tracked = _starts(system)
    values = _spectrum(system)
    yield _GridPoint(0.0, walk, system, np.array(tracked, dtype=complex))
    e0 = 0.0
    for eps, walk, system in _decomposed(family, eps_values, len(walk.interior)):
        spectrum = _spectrum(system)
        tracked = _advance(family, e0, values, tracked, eps, spectrum, 0)
        values, e0 = spectrum, eps
        yield _GridPoint(eps, walk, system, np.array(tracked, dtype=complex))


# ---------------------------------------------------------------------------
# Slope fits and test points


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
    return _nonresonant(eigen_decompose(family(0.0)).values)


def _nonresonant(values) -> complex:
    """The first of ``NONRESONANT_SCAN`` circle points at least ``NONRESONANT_DIST`` from ``values``."""
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
class _Peak:
    """A tracked resonance and its transmission peak z* = λ_ε/|λ_ε|.

    One resolvent kernel over the columns [I | profile], built on first
    use, serves every z: its first ``n_tails`` columns give Σ and the
    last scatters the co-state profile.  Its one solve at z* gives Σ(z*)
    and the interior energy of the profile's wave (``comfort``).
    """

    walk: object
    system: EigenSystem
    cluster: Cluster
    boundary: object
    lam_eps: complex
    z_star: complex
    profile: np.ndarray  # unit co-state tail profile

    @cached_property
    def kernel(self):
        nt = self.walk.n_tails
        return resolvent_kernel(self.walk, np.column_stack([np.eye(nt), self.profile]), self.system)

    @cached_property
    def at_z_star(self):
        return self.kernel(self.z_star)

    @property
    def comfort(self) -> float:
        return float(np.linalg.norm(self.at_z_star.interior[:, -1]) ** 2)

    @property
    def comfort_bound(self) -> float:
        return comfortability_bound(self.lam_eps)

    @property
    def comfort_scaled(self) -> float:
        return self.comfort * (1.0 - abs(self.lam_eps))


def _peak_at(walk, system: EigenSystem, lambda_eps) -> _Peak:
    cluster = system.nearest_cluster(lambda_eps)
    if cluster.on_unit_circle:
        raise ResonanceOnCircle(
            f"resonance {cluster.value:.6g} sits on the unit circle"
        )
    bd = boundary_data(walk, cluster)
    # an off-circle resonance couples to the tails, so the profile is nonzero
    profile = bd.in_data_co / float(np.linalg.norm(bd.in_data_co))
    value = cluster.value
    return _Peak(walk, system, cluster, bd, value, value / abs(value), profile)


def _weight(profile: np.ndarray) -> float:
    """The norm of a tail ``profile``, 0.0 below ``_WEIGHT_FLOOR``: the weight floor, applied here alone."""
    norm = float(np.linalg.norm(profile))
    return norm if norm >= _WEIGHT_FLOOR else 0.0


class TunnelingReport:
    """One peak at one eps through one channel split, its quantities
    named as the sweep tables print them.

    ``peak`` holds the tracked resonance ``lambda_eps``, its walk,
    decomposition, cluster, co-state profile and resolvent kernel, and
    carries ``comfort`` and ``comfort_bound``.  The split is checked
    once: some but not all tails, with co-state weight on them; the
    incoming wave is that restriction, normalised.  T, R and the overlap
    read the peak's one solve at z*.  ``line_shape`` is T through the
    split in pole–residue form, read off the same kernel with no new
    solve: a call gives T, and its ``window``, ``width_measured`` and
    ``width_ratio`` read the half-height window, searched on first use.
    """

    def __init__(self, peak: _Peak, split, eps: float):
        channels = sorted(set(operator.index(n) for n in split))
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
        weight_in = _weight(restricted)
        if not weight_in:
            raise ValueError("co-state has no weight on the chosen channels")
        self.peak, self.channels, self.mask = peak, tuple(channels), mask
        self.eps, self.lambda_eps, self.z_star = float(eps), peak.lam_eps, peak.z_star
        self.amp_in = restricted / weight_in
        self.symmetry_residual = abs(weight_in - float(np.linalg.norm(peak.profile - restricted)))
        self.width_predicted = 2.0 * (1.0 - abs(peak.lam_eps))
        # Σ(z*) from the peak's one solve, as scattering_matrix's resolvent route gives it
        sigma = peak.at_z_star.amp_out[:, :n_tails]
        # the one check of the split and the incoming wave for this peak
        self.t_at_peak, self.r_at_peak = transmission_reflection(sigma, channels, self.amp_in)
        exit_profile = np.where(~mask, peak.boundary.out_data, 0.0)
        exit_norm = _weight(exit_profile)
        self.overlap = 0.0
        if exit_norm:
            self.overlap = float(abs(np.vdot(exit_profile / exit_norm, sigma @ self.amp_in)))

    @cached_property
    def line_shape(self) -> LineShape:
        """T through this split, from the peak's kernel (:meth:`LineShape.from_kernel`)."""
        peak = self.peak
        return LineShape.from_kernel(
            peak.kernel, self.mask, self.amp_in, peak.z_star, abs(peak.lam_eps), self.t_at_peak
        )


def tunneling_check(family, eps: float, lam: complex, split) -> TunnelingReport:
    """Evaluate the resonant-tunneling prediction at one parameter point.

    ``lam`` is a unit-circle resonance of the decoupled walk; its
    continuation ``lambda_eps`` is tracked from eps = 0 to ``eps`` on
    the walk and decomposition the peak is measured on (:func:`_stream`),
    as a sweep tracks each of its eps.  The incoming wave is the
    normalised restriction of the resonant co-state's tail profile to
    the channels in ``split``; a ``t_at_peak`` more than 1e-8 outside
    [0, 1] raises ``ValueError``.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    # at eps = 0 the track is its start, which sits on the circle
    points = list(_stream(family, [] if eps == 0 else [eps]))
    point = points[-1]
    lambda_eps = point.tracked[_column(points[0].tracked, lam)]
    report = TunnelingReport(_peak_at(point.walk, point.system, lambda_eps), split, eps)
    if not -1e-8 <= report.t_at_peak <= 1.0 + 1e-8:
        raise ValueError(f"transmission {report.t_at_peak} outside [0, 1]")
    return report


# ---------------------------------------------------------------------------
# Line shapes and the half-height search


@dataclass(eq=False)
class LineShape:
    """T(z) through one channel split near its peak, in pole–residue form.

    The transmitted amplitudes are the modal realization D + C(z − Λ)⁻¹B
    (Kailath, *Linear Systems*, 1980), pole order by pole order:

        out(z) = direct + sum_{p,k} residues[p, k] / (z - values[k])^(p+1),

    and T(z) = |out(z)|².  ``values`` are the kernel's off-circle pole
    values; ``residues[p, k]`` pairs column k's emission on the
    transmitted channels with the drive of the column p further up its
    Jordan chain, zero past the chain's end.  A call checks ``z`` as the
    kernel does (the zero guard, the pole hits, then the trapped drive)
    and costs O(n_poles·n_channels) per point, with no interior wave.
    ``z_star``, ``modulus`` = |λ_ε| and ``t_at_peak`` (T at z* from the
    peak's solve) set the half-height search; ``window`` runs it on first
    use, and a sweep searches many line shapes at once
    (:func:`_search_windows`).
    """

    z_star: complex
    modulus: float
    t_at_peak: float
    values: np.ndarray  # (n_poles,)
    residues: np.ndarray  # (orders, n_poles, transmitted channels)
    direct: np.ndarray  # (transmitted channels,)
    overlap: float = 0.0
    trapped: bool = False
    # the searched window, or the error that ended its search
    _window: object = field(default=None, init=False, repr=False)

    @classmethod
    def from_kernel(cls, kernel, mask, amp_in, z_star, modulus, t_at_peak) -> LineShape:
        """The line shape of ``kernel`` for the incoming wave ``amp_in`` on the
        channels of ``mask``: its poles and their emission, coefficients ``W* f``
        and direct term, with no solve.  Nothing in it refers to the decomposition."""
        poles, nt = kernel.poles, len(mask)
        values, emission = poles.values, poles.emission[~mask]
        drive = kernel.coefficients[:, :nt] @ amp_in
        follows = _follows(poles)
        # order p pairs column k with the drive of column k + p, while the
        # chain runs on from k through k + p
        residues = [(emission * drive).T]
        columns, p = np.flatnonzero(follows), 1
        while columns.size:
            order = np.zeros_like(residues[0])
            order[columns] = (emission[:, columns] * drive[columns + p]).T
            residues.append(order)
            columns = columns[follows[columns + p]]
            p += 1
        return cls(
            complex(z_star),
            float(modulus),
            float(t_at_peak),
            np.array(values, dtype=complex),
            np.stack(residues),
            (kernel.direct[:, :nt] @ amp_in)[~mask],
            kernel.overlap,
            kernel.trapped,
        )

    def __call__(self, z):
        """T at ``z``: a float at a point, one value per point of a 1-d array."""
        z = _checked(z, self.values, self.overlap, self.trapped)
        points = z.reshape(-1)
        t = _transmissions(_stacked([self]), np.zeros(len(points), dtype=int), points)
        return float(t[0]) if z.ndim == 0 else t

    def _peaked(self) -> bool:
        """Whether T at z* reaches ``PEAK_FLOOR``: the peak floor, applied here alone."""
        return self.t_at_peak >= PEAK_FLOOR

    @property
    def window(self) -> tuple:
        """The half-height angles (θ₋, θ₊): ``ValueError`` when T at z* is
        below ``PEAK_FLOOR``, ``NoCrossing`` when T stays above one half."""
        if not self._peaked():
            raise ValueError(
                f"transmission {self.t_at_peak:.3f} at the peak is below {PEAK_FLOOR}; "
                "nothing to measure"
            )
        if self._window is None:
            _search_windows([self])
        if isinstance(self._window, Exception):
            raise self._window
        return self._window

    @property
    def width_measured(self) -> float | None:
        """θ₊ − θ₋, or ``None`` where there is no peak or no crossing."""
        if self._peaked():
            with contextlib.suppress(NoCrossing):
                theta_minus, theta_plus = self.window
                return theta_plus - theta_minus
        return None

    @property
    def width_ratio(self) -> float:
        theta_minus, theta_plus = self.window
        return (theta_plus - theta_minus) / (2.0 * (1.0 - self.modulus))


def _pow2(n: int) -> int:
    """The least power of two that is at least ``max(n, 1)``."""
    return 1 << (max(n, 1) - 1).bit_length()


def _stacked(shapes) -> tuple:
    """The arrays of ``shapes``, one leading row per shape.

    Pole and channel axes are zero-padded to powers of two and the order
    axis to the longest chain.  A padded pole has value 0, which every
    checked point clears, and zero residues, so it adds exact zeros.
    """
    n_poles = _pow2(max(len(s.values) for s in shapes))
    orders = max(max(s.residues.shape[0] for s in shapes), 1)
    n_out = _pow2(max(len(s.direct) for s in shapes))
    values = np.zeros((len(shapes), n_poles), dtype=complex)
    residues = np.zeros((len(shapes), orders, n_poles, n_out), dtype=complex)
    direct = np.zeros((len(shapes), n_out), dtype=complex)
    for i, shape in enumerate(shapes):
        p, k, n = shape.residues.shape
        values[i, :k] = shape.values
        residues[i, :p, :k, :n] = shape.residues
        direct[i, : len(shape.direct)] = shape.direct
    return values, residues, direct


def _fold(terms: np.ndarray) -> np.ndarray:
    """The sum over axis 1, whose length is a power of two, by halves.

    Each point's sum is a fixed tree of elementwise additions, so it does
    not depend on the other points evaluated with it, and zero padding
    beyond its own power of two adds exact zeros: a shape gives the same
    bits alone and in any stack.
    """
    while terms.shape[1] > 1:
        half = terms.shape[1] // 2
        terms = terms[:, :half] + terms[:, half:]
    return terms[:, 0]


# points per block of a stacked evaluation: 2^16 padded pole-channel terms
_BLOCK_TERMS = 1 << 16


def _transmissions(stack: tuple, owner: np.ndarray, z: np.ndarray) -> np.ndarray:
    """T at each point ``z[i]`` of the stacked shape ``owner[i]`` (:func:`_stacked`).

    Unchecked: the caller has checked each shape's points.  Points run in
    blocks, so the temporaries stay small at any number of poles.
    """
    values, residues, direct = stack
    block = max(1, _BLOCK_TERMS // (values.shape[1] * direct.shape[1]))
    out = np.empty(len(z))
    for start in range(0, len(z), block):
        rows = owner[start : start + block]
        inv = 1.0 / (z[start : start + block, None] - values[rows])
        power = inv
        terms = residues[rows, 0] * inv[..., None]
        for p in range(1, residues.shape[1]):
            power = power * inv
            terms += residues[rows, p] * power[..., None]
        out[start : start + block] = _fold(np.abs(direct[rows] + _fold(terms)) ** 2)
    return out


def _excess(shapes, stack, base, owner, theta, failed) -> np.ndarray:
    """T − 1/2 at the angles ``theta`` off each owner's z* (phase ``base``).

    A shape whose points here hit one of its poles, or whose kernel traps
    the drive, gets the error its own call on those points raises (the
    kernel's checks, ``scattering._checked``) and joins ``failed``; a
    failed shape is not evaluated, and its points read NaN.
    """
    z = np.exp(1j * (base[owner] + theta))
    hit = _hits(z, stack[0][owner]).any(axis=1)
    suspect = np.zeros(len(shapes), dtype=bool)
    suspect[owner[hit]] = True
    suspect |= np.array([shape.trapped for shape in shapes])
    for i in np.flatnonzero(suspect & ~failed).tolist():
        try:
            _checked(z[owner == i], shapes[i].values, shapes[i].overlap, shapes[i].trapped)
        except NumericalError as exc:
            shapes[i]._window = exc
            failed[i] = True
    g = np.full(len(z), np.nan)
    keep = ~failed[owner]
    g[keep] = _transmissions(stack, owner[keep], z[keep]) - 0.5
    return g


def _search_windows(shapes) -> None:
    """Search the half-height windows of ``shapes`` together, in lockstep.

    Shapes already searched, and those below ``PEAK_FLOOR``, are skipped.
    One stacked evaluation covers every shape's doubling steps
    ``max((1 - |λ_ε|)/16, 1e-12) * 2^k <= THETA_WINDOW`` on both sides;
    per side, the first step
    below one half and the step before it (or 0, where T is
    ``t_at_peak``) bracket the crossing, and a shape with a side that
    never falls below one half has no crossing (``NoCrossing``).  Then
    every open (shape, side) bracket is closed to ``THETA_TOL`` together,
    one stacked evaluation per step, by regula falsi on T - 1/2 with the
    Illinois rule (Dowell & Jarratt, 1971): an end kept twice in a row
    has its value halved, so neither end stalls.  Each bracket steps on
    its own values, so a shape gets the bits it gets alone.  A step
    closer than ``THETA_TOL/2`` to an end moves out to that distance, so
    once one end sits on the crossing the next step closes the bracket.
    A step off the bracket, or any step once the bracket has not halved
    in three steps, bisects instead, so a bracket halves at least every
    four steps.  Each side's angle is the midpoint of its closed bracket.
    Each shape's ``_window`` gets its angles, or the error that stopped
    its search.
    """
    shapes = [s for s in shapes if s._window is None and s._peaked()]
    if not shapes:
        return
    n = len(shapes)
    stack = _stacked(shapes)
    base = np.array([cmath.phase(shape.z_star) for shape in shapes])
    failed = np.zeros(n, dtype=bool)
    # each shape's doubling steps max((1 - |λ_ε|)/16, 1e-12)·2^k up to
    # THETA_WINDOW, one row per shape, on both sides; doubling is exact
    first_step = np.maximum((1.0 - np.array([shape.modulus for shape in shapes])) / 16.0, 1e-12)
    step, depth = first_step.min(), 0
    while step <= THETA_WINDOW:
        step, depth = 2.0 * step, depth + 1
    steps = first_step[:, None] * 2.0 ** np.arange(depth)
    sides = np.array([-1.0, 1.0])
    theta = sides[:, None] * steps[:, None, :]
    valid = np.broadcast_to((steps <= THETA_WINDOW)[:, None, :], theta.shape)
    owner = np.broadcast_to(np.arange(n)[:, None, None], theta.shape)[valid]
    g = np.full(theta.shape, np.nan)
    g[valid] = _excess(shapes, stack, base, owner, theta[valid], failed)
    # the first step below one half and the one before it (or 0, where T is
    # t_at_peak) bracket each side's crossing; padding and failed shapes are NaN
    below = g < 0
    for i in np.flatnonzero(~below.any(axis=2).all(axis=1) & ~failed).tolist():
        shapes[i]._window = NoCrossing(
            f"transmission stays above 1/2 within {THETA_WINDOW:.3f} rad"
        )
        failed[i] = True
    first = below.argmax(axis=2)
    previous = np.maximum(first - 1, 0)
    rows, cols = np.arange(n)[:, None], np.arange(2)[None, :]
    t_at_peak = np.array([shape.t_at_peak for shape in shapes])[:, None]
    # per (shape, side), flat: the bracket, its values, the end kept last
    # (+1 low, -1 high) and the bracket widths one, two and three steps ago
    high = steps[rows, first].reshape(-1)
    g_high = g[rows, cols, first].reshape(-1)
    low = np.where(first > 0, steps[rows, previous], 0.0).reshape(-1)
    g_low = np.where(first > 0, g[rows, cols, previous], t_at_peak - 0.5).reshape(-1)
    kept = np.zeros(2 * n)
    before = np.full((2 * n, 3), np.inf)
    bracket_owner, side = np.repeat(np.arange(n), 2), np.tile(sides, n)
    near = 0.5 * THETA_TOL
    while (opened := np.flatnonzero((high - low > THETA_TOL) & ~failed[bracket_owner])).size:
        lo, hi, g_lo, g_hi = low[opened], high[opened], g_low[opened], g_high[opened]
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        bisect = ~((lo <= theta) & (theta <= hi)) | (hi - lo > 0.5 * before[opened, 2])
        theta = np.where(
            bisect, 0.5 * (lo + hi), np.minimum(np.maximum(theta, lo + near), hi - near)
        )
        g = _excess(shapes, stack, base, bracket_owner[opened], side[opened] * theta, failed)
        # a shape that failed at this step keeps no bracket
        stepped = ~failed[bracket_owner[opened]]
        opened, lo, hi, g_lo, g_hi, theta, g = (
            a[stepped] for a in (opened, lo, hi, g_lo, g_hi, theta, g)
        )
        below = g < 0
        now = np.where(below, 1.0, -1.0)
        halve = np.where(kept[opened] == now, 0.5, 1.0)
        before[opened] = np.column_stack([hi - lo, before[opened, :2]])
        high[opened] = np.where(below, theta, hi)
        g_high[opened] = np.where(below, g, halve * g_hi)
        low[opened] = np.where(below, lo, theta)
        g_low[opened] = np.where(below, halve * g_lo, g)
        kept[opened] = now
    angles = (side * 0.5) * (low + high)
    for i, shape in enumerate(shapes):
        if not failed[i]:
            shape._window = (float(angles[2 * i]), float(angles[2 * i + 1]))


def comfortability_bound(lambda_eps: complex) -> float:
    """Divergence-rate lower bound (1 + |l|) |l|^2 / (1 - |l|)."""
    mod = abs(lambda_eps)
    if mod >= 1.0:
        raise ResonanceOnCircle(f"|lambda| = {mod} is not inside the disk")
    return (1.0 + mod) * mod * mod / (1.0 - mod)


# ---------------------------------------------------------------------------
# Sweep tables


class SweepRow(NamedTuple):
    eps: float
    z: complex
    quantity: str
    value: float


def _positive(eps_values) -> np.ndarray:
    """The positive eps of ``eps_values`` (default: the default grid), sorted.

    An exact 0 is dropped; a negative, non-finite or repeated eps raises
    ``ValueError`` naming the first one.
    """
    if eps_values is None:
        return default_eps_grid()[1:]
    grid = np.asarray([float(e) for e in eps_values])
    seen = set()
    for eps in grid.tolist():
        if not (math.isfinite(eps) and eps >= 0):
            raise ValueError(f"eps = {eps!r} is not a finite nonnegative value")
        if eps in seen:
            raise ValueError(f"eps = {eps!r} appears more than once in the grid")
        seen.add(eps)
    grid = grid[grid > 0]
    if len(grid) == 0:
        raise ValueError("need at least one positive eps value")
    return np.sort(grid)


def _in_band(value: float, band) -> bool:
    return bool(band[0] <= value <= band[1])


def discrepancy_table(
    family, z: complex | None, eps_values=None, route: str = "resolvent"
) -> tuple:
    """Sweep ||Sigma(eps, z) - Sigma(0, z)|| and fit its log-log slope.

    ``z=None`` takes the :func:`nonresonant_point` of eps = 0's own walk and
    decomposition, so eps = 0 is walked and decomposed once.  Each positive
    eps takes its Σ from its own decomposition, decomposed a chunk at a time
    (:func:`_decomposed`).  The fit needs two positive eps; with fewer,
    ``ValueError`` is raised before any walk is built.
    """
    z = None if z is None else _project_to_circle(z)
    grid = _positive(eps_values)
    if len(grid) < 2:
        raise ValueError("need at least two positive points for a slope fit")
    _check_route(route)
    walk0 = family(0.0)
    system0 = eigen_decompose(walk0)
    z = _project_to_circle(_nonresonant(system0.values)) if z is None else z
    s_zero = scattering_matrix(walk0, z, route, system0).matrix
    rows = []
    values = []
    for eps, walk, system in _decomposed(family, grid, len(walk0.interior)):
        s_eps = scattering_matrix(walk, z, route, system).matrix
        value = float(np.linalg.norm(s_eps - s_zero, 2))
        values.append(value)
        rows.append(SweepRow(eps, z, "discrepancy", value))
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


# the quantities read off a line shape's half-height window
_WINDOWED = ("width_measured", "width_ratio")


def _peak_sweep(family, lam, eps_values, quantities, split=None) -> tuple:
    """Rows of ``quantities`` along λ's tracked peak, the grid, each as an array, a summary head.

    The positive grid is streamed (:func:`_stream`): each eps is walked
    and decomposed once, a chunk of eps per decomposition call, and the
    :class:`_Peak` of the tracked λ_ε is built on that eps's walk and
    system.  Each quantity is an attribute of that peak, or of its
    :class:`TunnelingReport` through ``split`` when one is given.  A width quantity is read off the report's
    :class:`LineShape`, the only part of an eps kept past the stream,
    and every eps's window is searched after the stream, in one lockstep
    (:func:`_search_windows`).  The rows come out in grid order, and so
    does the first error: an eps whose window fails raises before a later
    eps that failed in the stream.  ``lam=None`` picks the start that
    detaches fastest, whose path ends nearest the origin, from a track of
    eps = 0 and the grid's last eps alone (:func:`track_resonances`, one
    step that :func:`_advance` bisects where it must).
    A ``None`` value is absent: it makes no row, and NaN in the
    quantity's array.  Every row carries the peak z* = λ_ε/|λ_ε|.
    """
    grid = _positive(eps_values)
    if lam is None:
        track = track_resonances(family, [0.0, grid[-1]])
        if not track.starts:
            raise NoDetachingResonance("the eps=0 walk has no unit-circle resonances to track")
        finals = np.abs(track.paths[-1])
        lam = track.starts[int(np.argmin(finals))]
        if finals.min() > 1.0 - 1e-12:
            raise NoDetachingResonance(
                "every tracked resonance stays on the unit circle; "
                "pick one explicitly with --lambda"
            )
    lam = complex(lam)
    windowed = any(quantity in _WINDOWED for quantity in quantities)
    measured = []  # per eps: its z*, the quantities read in the stream, its line shape
    failure = None
    points = _stream(family, grid)
    k = _column(next(points).tracked, lam)
    try:
        for point in points:
            peak = _peak_at(point.walk, point.system, point.tracked[k])
            record = peak if split is None else TunnelingReport(peak, split, point.eps)
            read = {q: getattr(record, q) for q in quantities if q not in _WINDOWED}
            shape = record.line_shape if windowed else None
            measured.append((point.eps, peak.z_star, read, shape))
            # the next eps is measured with this one's peak and kernel gone
            del peak, record
    except Exception as exc:  # raised below, after the windows of the eps before it
        failure = exc
    if windowed:
        _search_windows([shape for *_, shape in measured])
    rows = []
    columns = {quantity: [] for quantity in quantities}
    for eps, z_star, read, shape in measured:
        for quantity in quantities:
            value = read[quantity] if quantity in read else getattr(shape, quantity)
            columns[quantity].append(value)
            if value is not None:
                rows.append(SweepRow(eps, z_star, quantity, value))
    if failure is not None:
        raise failure
    arrays = {q: np.array(values, dtype=float) for q, values in columns.items()}
    return rows, grid, arrays, {"lambda_re": lam.real, "lambda_im": lam.imag, "points": len(grid)}


def tunneling_table(
    family,
    lam: complex | None,
    split,
    eps_values=None,
) -> tuple:
    """Sweep the tunneling report along an eps grid.

    The summary's ``overlap_sqrt_eps_constant`` prints 17 digits but carries
    about six: at the small-eps end 1 - overlap is about 5e-10, so one ulp of
    the overlap moves it by about 2e-7 relative.
    """
    quantities = ("t_at_peak", "symmetry_residual", "overlap", "width_measured", "width_predicted")
    rows, grid, values, summary = _peak_sweep(family, lam, eps_values, quantities, split)
    t_values = values["t_at_peak"]
    summary |= {
        "quantity": "tunneling",
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
    lam: complex | None,
    split,
    eps_values=None,
) -> tuple:
    """Sweep measured versus predicted peak widths."""
    quantities = ("width_measured", "width_predicted", "width_ratio")
    rows, grid, values, summary = _peak_sweep(family, lam, eps_values, quantities, split)
    deviation = np.abs(values["width_ratio"] - 1.0)
    summary |= {
        "quantity": "width",
        "max_ratio_deviation": float(np.max(deviation)),
        "rel_slack": WIDTH_REL_SLACK,
        "width_band_pass": bool(np.all(deviation <= WIDTH_REL_SLACK)),
    }
    return rows, summary


def comfort_table(
    family,
    lam: complex | None,
    eps_values=None,
) -> tuple:
    """Sweep interior energy against its divergence-rate bound."""
    quantities = ("comfort", "comfort_bound", "comfort_scaled")
    rows, grid, values, summary = _peak_sweep(family, lam, eps_values, quantities)
    ratios = values["comfort"] / values["comfort_bound"]
    scaled = values["comfort_scaled"]
    summary |= {
        "quantity": "comfort",
        "min_ratio_to_bound": float(ratios.min()),
        "growth_band_pass": bool(ratios.min() >= 0.9),
        "scaled_min": float(scaled.min()),
        "scaled_max": float(scaled.max()),
    }
    return rows, summary


def _largest_norm(stack: np.ndarray) -> tuple:
    """Where and how large the largest 2-norm of a stack of square matrices is.

    Equal, bit for bit, to the argmax and the max of the stacked
    ``np.linalg.norm(stack, 2, axis=(1, 2))``, but with singular values
    only where they can reach the max: Gershgorin's bound on ``A*A``,
    widened by a roundoff margin relative to the unit roundoff, bounds
    each σ_max from above, and the exact σ_max at the largest Frobenius
    norm is a first value of the max.  A NaN bound keeps its point.  Every
    ``remainder_table`` row takes its sup here (the bench's ``sweep-small``).
    """
    gram = stack.conj().transpose(0, 2, 1) @ stack
    margin = 1.0 + 32 * stack.shape[-1] * UNIT_ROUNDOFF
    bound = np.sqrt(np.maximum.reduce(np.add.reduce(np.abs(gram), axis=2), axis=1)) * margin
    seed = int(np.argmax(gram.diagonal(axis1=1, axis2=2).real.sum(axis=1)))
    best = np.linalg.norm(stack[seed : seed + 1], 2, axis=(1, 2))[0]
    keep = ~(bound < best)
    keep[seed] = True
    candidates = np.flatnonzero(keep)
    norms = np.linalg.norm(stack[candidates], 2, axis=(1, 2))
    k = int(np.argmax(norms))
    return int(candidates[k]), float(norms[k])


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
    first-order bound residual <= C * eps.  The grid is streamed
    (:func:`_stream`): each eps, 0 included, is walked and decomposed once,
    the positive eps a chunk at a time.
    """
    if n_grid < 1:
        raise ValueError(f"n_grid must be at least 1, not {n_grid}")
    grid = _positive(eps_values)
    _check_route(route)
    z_points = _circle_grid(n_grid)
    points = _stream(family, grid)
    start = next(points)
    s_zero = scattering_matrix(start.walk, z_points, route, start.system).matrix
    del start  # one chunk of decompositions alive at a time
    rows = []
    ratios = []
    for point in points:
        clusters = [point.system.nearest_cluster(value) for value in point.tracked]
        approx = s_zero + pole_block(point.walk, clusters, z_points)
        sigma = scattering_matrix(point.walk, z_points, route, point.system).matrix
        worst, sup = _largest_norm(sigma - approx)
        rows.append(SweepRow(point.eps, complex(z_points[worst]), "remainder_sup", sup))
        ratios.append(sup / point.eps)
    summary = {
        "quantity": "remainder",
        "points": len(grid),
        "n_grid": n_grid,
        "constant": float(max(ratios)),
        "finite": bool(np.all(np.isfinite(ratios))),
    }
    return rows, summary
