"""Tests for resonance tracking and the small-eps sweep tables."""

import cmath
import dataclasses
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwscatter.asymptotics as asymptotics
import qwscatter.models as models
import qwscatter.scattering as scattering
import qwscatter.spectral as spectral
from qwscatter.asymptotics import (
    FIRST_ORDER_BAND,
    PEAK_FLOOR,
    SECOND_ORDER_BAND,
    THETA_TOL,
    THETA_WINDOW,
    LineShape,
    NoCrossing,
    NoDetachingResonance,
    ResonanceOnCircle,
    SimplicityViolated,
    TrackingAmbiguous,
    TunnelingReport,
    _peak_at,
    comfort_table,
    comfortability_bound,
    default_eps_grid,
    discrepancy_table,
    fit_loglog_slope,
    geometric_grid,
    nonresonant_point,
    remainder_table,
    track_resonances,
    tunneling_check,
    tunneling_table,
    width_table,
)
from qwscatter.coins import EvalError, Mul, NotUnitary, eval_coins, parse
from qwscatter.graph import build_graph
from qwscatter.line import BarrierSpec, line_to_graph, rotation_coin
from qwscatter.models import (
    EpsOutOfRange,
    ModelFamily,
    crossing_family,
    cycle_family,
    matrix_schrodinger_family,
)
from qwscatter.scattering import (
    EIGENVALUE_HIT_TOL,
    AtInteriorResonance,
    OrthogonalityViolated,
    PoleHit,
    comfortability,
    pole_block,
    scattering_matrix,
    transmission_reflection,
)
from qwscatter.spectral import boundary_data, eigen_decompose
from qwscatter.walk import assemble
from test_scattering import MIXED, TWO_CHAINS, coupled_to_two_tails, jordan_standin

TRACK_TOL = 1e-10
WIDTH_SLACK = 0.2


def tracked_at(track, eps, start):
    """Where the resonance that starts at ``start`` is at ``track``'s grid point ``eps``."""
    return complex(track.paths[track.eps_grid.index(eps), asymptotics._column(track.starts, start)])


def _degenerate_family():
    """eps-independent walk whose +-1 resonances are doubly degenerate."""
    g = build_graph(
        ["a", "b"],
        [("a", "b"), ("b", "a"), ("a", "b"), ("b", "a")],
        [(1, "a", "a")],
    )
    coins = {"a": np.eye(3, dtype=complex), "b": np.eye(2, dtype=complex)}
    walk = assemble(g, coins)
    return lambda eps: walk


def test_geometric_grid_endpoints_and_spacing():
    grid = geometric_grid(1e-3, 1e-1, 5)
    assert len(grid) == 5
    assert abs(grid[0] - 1e-3) <= 1e-18
    assert abs(grid[-1] - 1e-1) <= 1e-16
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0])
    with pytest.raises(ValueError):
        geometric_grid(1e-3, 1e-1, 0)


def test_geometric_grid_needs_distinct_ends():
    # start == stop would repeat one eps; one point may still name it
    with pytest.raises(ValueError, match="start < stop"):
        geometric_grid(0.05, 0.05, 3)
    with pytest.raises(ValueError, match="start < stop"):
        geometric_grid(0.1, 0.05, 3)
    assert geometric_grid(0.05, 0.05, 1).tolist() == [0.05]


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("start", [0.0, -1.0])
def test_geometric_grid_needs_a_positive_start(start, count):
    # also for one point, which is the start itself
    with pytest.raises(ValueError, match="need 0 < start"):
        geometric_grid(start, 0.1, count)


@pytest.mark.parametrize(
    "start, stop, count",
    [(0.01, np.inf, 3), (np.nan, 0.1, 1), (0.01, np.nan, 3), (0.01, np.inf, 1), (-np.inf, 0.1, 3)],
)
def test_geometric_grid_needs_finite_ends(start, stop, count):
    # also for one point, whose stop is not used; numpy's warnings are errors here
    with pytest.raises(ValueError, match="grid ends must be finite"):
        geometric_grid(start, stop, count)


SWEEPS = {
    "width": lambda eps_values: width_table(matrix_schrodinger_family(), 1j, (1,), eps_values),
    "discrepancy": lambda eps_values: discrepancy_table(
        matrix_schrodinger_family(), 1j, eps_values
    ),
    "remainder": lambda eps_values: remainder_table(
        matrix_schrodinger_family(), eps_values, n_grid=8
    ),
}


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
@pytest.mark.parametrize(
    "eps_values, named",
    [
        ([-0.01, 0.02], "eps = -0.01 is not"),
        ([0.02, float("nan"), -1.0], "eps = nan is not"),
        ([0.01, float("inf")], "eps = inf is not"),
        ([0.02, 0.01, 0.05, 0.01, 0.05], "eps = 0.01 appears more than once"),
    ],
    ids=["negative", "nan", "inf", "repeated"],
)
def test_sweeps_name_the_first_bad_eps(sweep, eps_values, named):
    with pytest.raises(ValueError, match=named):
        SWEEPS[sweep](eps_values)


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_sweeps_drop_an_exact_zero_eps(sweep):
    assert SWEEPS[sweep]([0.0, 0.05, 0.02]) == SWEEPS[sweep]([0.02, 0.05])


def test_default_eps_grid_shape():
    grid = default_eps_grid()
    assert grid[0] == 0.0
    assert np.all(np.diff(grid) > 0)
    assert grid[-1] == pytest.approx(0.1)


def test_tracking_follows_hidden_resonance():
    grid = [0.0, 0.02, 0.05, 0.1, 0.2]
    track = track_resonances(matrix_schrodinger_family(), eps_grid=grid)
    assert len(track.starts) == 4
    path = track.paths[:, asymptotics._column(track.starts, 1j)]
    for eps, value in zip(grid, path):
        assert abs(value - 1j * np.sqrt(1 - 2 * eps * eps)) <= TRACK_TOL
    assert abs(tracked_at(track, 0.1, 1j) - 1j * np.sqrt(0.98)) <= TRACK_TOL
    assert np.all(np.abs(np.diff(path))[1:] > 0)


def test_tracking_keeps_fixed_resonances_fixed():
    track = track_resonances(
        matrix_schrodinger_family(), eps_grid=[0.0, 0.1, 0.3]
    )
    for start in (1.0, -1.0):
        path = track.paths[:, asymptotics._column(track.starts, start)]
        assert np.max(np.abs(path - start)) <= TRACK_TOL


def test_tracking_grid_validation():
    fam = matrix_schrodinger_family()
    with pytest.raises(ValueError):
        track_resonances(fam, eps_grid=[0.1, 0.2])
    with pytest.raises(ValueError):
        track_resonances(fam, eps_grid=[])
    with pytest.raises(ValueError):
        track_resonances(fam, eps_grid=[0.0, 0.2, 0.1])


def test_tracking_rejects_degenerate_start():
    with pytest.raises(SimplicityViolated):
        track_resonances(_degenerate_family(), eps_grid=[0.0, 0.1])


def _jumping_family():
    """cycle4's walk at eps = 0 and cycle3's at every eps > 0: no bisection
    brings cycle4's four unit-circle values onto four distinct values."""
    start, jumped = cycle_family(4, [1] * 4).walk(0), cycle_family(3, [1] * 3).walk(0.1)
    return lambda eps: start if eps == 0 else jumped


def test_a_step_that_no_bisection_resolves_is_ambiguous():
    # every refused step halves down to 0.1 / 2^MAX_TRACK_DEPTH
    deepest = 0.1 / 2**asymptotics.MAX_TRACK_DEPTH
    assert deepest == 9.5367431640625e-08
    with pytest.raises(TrackingAmbiguous) as tracked:
        track_resonances(_jumping_family(), [0, 0.1])
    assert tracked.value.eps == deepest
    with pytest.raises(TrackingAmbiguous) as checked:
        tunneling_check(_jumping_family(), 0.1, 1.0, (1,))
    assert checked.value.eps == deepest


def test_a_refined_step_lands_where_a_fine_grid_does():
    # ms's one step from 0 to 0.7 is refused and halved six times; the
    # midpoints' decompositions carry it to the bits a 400-point grid reaches
    family, built = matrix_schrodinger_family(), []

    def counted(eps):
        built.append(eps)
        return family(eps)

    coarse = track_resonances(counted, [0.0, 0.7])
    assert built[2:] == pytest.approx([0.7 - 0.7 / 2**depth for depth in range(1, 7)])
    fine = track_resonances(family, np.concatenate([np.linspace(0.0, 0.69, 400), [0.7]]))
    assert coarse.paths[-1].tobytes() == fine.paths[-1].tobytes()


def test_a_walk_with_no_circle_start_is_built_at_eps_zero_alone():
    graph, coins = line_to_graph(BarrierSpec((0, 20), (rotation_coin(0.8), rotation_coin(0.6))))
    family, built = ModelFamily("line", graph, coins, eps_limit=math.inf), []

    def counted(eps):
        built.append(eps)
        return family(eps)

    track = track_resonances(counted, [0.0, 0.01, 0.02])
    assert built == [0.0]
    assert track.starts == () and track.paths.shape == (3, 0)


def test_nonresonant_point_keeps_distance():
    fam = matrix_schrodinger_family()
    z = nonresonant_point(fam)
    assert abs(abs(z) - 1.0) <= 1e-12
    walk0 = fam(0.0)
    eigenvalues = np.linalg.eigvals(walk0.interior)
    assert min(abs(z - w) for w in eigenvalues) >= 0.3


def test_tunneling_check_hidden_channel():
    report = tunneling_check(matrix_schrodinger_family(), 0.05, 1j, (1,))
    assert abs(report.z_star - 1j) <= 1e-4
    assert report.t_at_peak >= 1.0 - 1e-6
    assert report.r_at_peak <= 1e-6
    assert report.symmetry_residual <= 1e-12
    assert report.overlap >= 1.0 - 1e-6
    assert report.line_shape.width_measured is not None
    ratio = report.line_shape.width_measured / report.width_predicted
    assert abs(ratio - 1.0) <= WIDTH_SLACK
    assert report.peak.comfort >= report.peak.comfort_bound


def test_tunneling_check_rejects_a_transmission_outside_the_unit_band(monkeypatch):
    # the band applies to tunneling_check alone; the tables never applied it
    family, lam, split = PEAKS["ms"]
    monkeypatch.setattr(asymptotics, "transmission_reflection", lambda *args: (1.0 + 2e-8, 0.0))
    with pytest.raises(ValueError, match=r"transmission 1\.00000002 outside \[0, 1\]"):
        tunneling_check(family, 0.05, lam, split)
    rows, summary = tunneling_table(family, lam, split, [0.05])
    assert [row.value for row in rows if row.quantity == "t_at_peak"] == [1.0 + 2e-8]
    assert summary["min_t_at_peak"] == 1.0 + 2e-8


def test_peak_width_matches_gap_prediction():
    fam = cycle_family(4, [1.0] * 4)
    theta_minus, theta_plus = tunneling_check(fam, 0.05, 1.0, (1, 2)).line_shape.window
    assert theta_minus < 0 < theta_plus
    measured = theta_plus - theta_minus
    lam_eps = np.sqrt(1 - 0.05**2)  # |lambda_eps|^4 = (1 - eps^2)^2
    predicted = 2.0 * (1.0 - lam_eps)
    assert abs(measured / predicted - 1.0) <= 0.05


def test_peak_width_needs_balanced_split():
    fam = cycle_family(4, [1.0] * 4)
    with pytest.raises(ValueError):
        tunneling_check(fam, 0.05, 1.0, (1,)).line_shape.window


def bisect_side(t_at, sign, low, t_low, high, t_high):
    # plain bisection, one Σ per probe
    while high - low > THETA_TOL:
        mid = 0.5 * (low + high)
        if t_at(sign * mid) < 0.5:
            high = mid
        else:
            low = mid
    return sign * 0.5 * (low + high)


def illinois_side(t_at, sign, low, t_low, high, t_high):
    # the stacked search's rule on one side alone
    g_low, g_high = t_low - 0.5, t_high - 0.5
    kept, width_before = 0.0, [np.inf] * 3
    while high - low > THETA_TOL:
        width = high - low
        theta = (low * g_high - high * g_low) / (g_high - g_low)
        if not low <= theta <= high or width > 0.5 * width_before[2]:
            theta = 0.5 * (low + high)
        else:
            theta = min(max(theta, low + 0.5 * THETA_TOL), high - 0.5 * THETA_TOL)
        g = t_at(sign * theta) - 0.5
        now = 1.0 if g < 0 else -1.0
        halve = 0.5 if kept == now else 1.0
        if g < 0:
            high, g_high, g_low = theta, g, halve * g_low
        else:
            low, g_low, g_high = theta, g, halve * g_high
        kept = now
        width_before = [width] + width_before[:2]
    return sign * 0.5 * (low + high)


def half_height_by_scalar_search(family, eps, lam, split, close=bisect_side):
    # the scalar doubling the stacked search replaced, one Σ per probe,
    # each side then closed by ``close``; with bisection it is the
    # reference every width answers to
    walk = family(eps)
    system = eigen_decompose(walk)
    cluster = system.nearest_cluster(tracked_at(track_resonances(family, [0.0, eps]), eps, lam))
    in_co = boundary_data(walk, cluster).in_data_co
    mask = np.isin(np.arange(1, walk.n_tails + 1), split)
    restricted = np.where(mask, in_co / np.linalg.norm(in_co), 0.0)
    amp_in = restricted / np.linalg.norm(restricted)
    z_star = cluster.value / abs(cluster.value)
    base = cmath.phase(z_star)

    def t_at(theta):
        z = z_star if theta == 0.0 else cmath.exp(1j * (base + theta))
        sigma = scattering_matrix(walk, z, system=system).matrix
        return transmission_reflection(sigma, set(split), amp_in)[0]

    return scalar_window(t_at, abs(cluster.value), close)


def scalar_window(t_at, modulus, close):
    # the doubling steps one point at a time, from T at theta = 0; each
    # side's first bracket is then closed by ``close``
    def crossing(sign):
        low, t_low = 0.0, t_at(0.0)
        step = max((1.0 - modulus) / 16.0, 1e-12)
        while step <= THETA_WINDOW:
            t = t_at(sign * step)
            if t < 0.5:
                return close(t_at, sign, low, t_low, step, t)
            low, t_low = step, t
            step *= 2.0
        raise NoCrossing("no crossing")

    return crossing(-1), crossing(+1)


def two_loop_family():
    """Loops of lengths 1 and 2 through vertex a: peaks lean to one side."""
    g = build_graph(
        ["a", "b"], [("a", "b"), ("b", "a"), ("a", "a")], [(1, "a", "a"), (2, "b", "b")]
    )
    mix = np.array([[np.cos(0.6), np.sin(0.6), 0], [-np.sin(0.6), np.cos(0.6), 0], [0, 0, 1]])

    def walk(eps):
        s = np.sqrt(1 - eps**2)
        leak = np.array([[s, 0, eps], [0, 1, 0], [-eps, 0, s]])
        rotate = np.array([[s, eps], [-eps, s]])
        return assemble(g, {"a": (leak @ mix).astype(complex), "b": rotate.astype(complex)}, eps)

    return walk


PEAKS = {
    "ms": (matrix_schrodinger_family(), 1j, (1,)),
    "cycle4": (cycle_family(4, [1.0] * 4), 1.0, (1, 2)),
    "two_loop": (two_loop_family(), np.exp(0.42j), (1,)),
}


@pytest.mark.parametrize("eps", [1e-3, 1e-2, 0.05, 0.3, 0.7])
@pytest.mark.parametrize("model", sorted(PEAKS))
def test_peak_width_matches_the_scalar_search_bit_for_bit(model, eps):
    # both sides stepped in one stacked evaluation give the bits of each
    # side alone, one record.line_shape call per probe; T at z* is the
    # record's own, from the peak's solve
    family, lam, split = PEAKS[model]
    record = tunneling_check(family, eps, lam, split)
    base = cmath.phase(record.z_star)

    def t_at(theta):
        if theta == 0.0:
            return record.t_at_peak
        return record.line_shape(cmath.exp(1j * (base + theta)))

    try:
        expected = scalar_window(t_at, abs(record.lambda_eps), illinois_side)
    except NoCrossing:
        with pytest.raises(NoCrossing):
            tunneling_check(family, eps, lam, split).line_shape.window
        return
    assert tunneling_check(family, eps, lam, split).line_shape.window == expected


@pytest.mark.parametrize("eps", [1e-3, 1e-2, 0.05, 0.3, 0.7])
@pytest.mark.parametrize("model", sorted(PEAKS))
def test_peak_width_straddles_the_bisected_crossing(model, eps):
    family, lam, split = PEAKS[model]
    try:
        expected = half_height_by_scalar_search(family, eps, lam, split)
    except NoCrossing:
        with pytest.raises(NoCrossing):
            tunneling_check(family, eps, lam, split).line_shape.window
        return
    got = tunneling_check(family, eps, lam, split).line_shape.window
    assert np.all(np.abs(np.subtract(got, expected)) <= THETA_TOL)
    # T >= 1/2 just inside each crossing and < 1/2 just outside, through Σ
    walk = family(eps)
    lam_eps = tracked_at(track_resonances(family, [0.0, eps]), eps, lam)
    cluster = eigen_decompose(walk).nearest_cluster(lam_eps)
    in_co = boundary_data(walk, cluster).in_data_co
    amp_in = np.where(np.isin(np.arange(1, walk.n_tails + 1), split), in_co, 0.0)
    amp_in = amp_in / np.linalg.norm(amp_in)
    base = cmath.phase(cluster.value / abs(cluster.value))
    for theta in got:
        inside, outside = (np.sign(theta) * (abs(theta) + d) for d in (-THETA_TOL, THETA_TOL))
        z = np.exp(1j * (base + np.array([inside, outside])))
        t, _ = transmission_reflection(scattering_matrix(walk, z).matrix, set(split), amp_in)
        assert t[0] >= 0.5 > t[1], (theta, t)


def test_a_crossing_inside_the_first_step_starts_from_t_peak():
    # a synthetic peak narrower than the first doubling step: the bracket
    # is [0, step], whose low end is z* itself with T = t_peak, not 1.  One
    # pole at r z* with residue sqrt(t_peak) (1 - r) peaks at t_peak on z*
    # and crosses one half where 4 r sin²(θ/2) = (1 - r)² (2 t_peak - 1)
    family, lam, split = PEAKS["ms"]
    record = tunneling_check(family, 0.05, lam, split)
    modulus = abs(record.lambda_eps)
    step = (1.0 - modulus) / 16.0
    t_peak, gamma = 0.95, step / 4.0
    r = 1.0 - gamma
    shape = LineShape(
        z_star=record.z_star,
        modulus=modulus,
        t_at_peak=t_peak,
        values=np.array([r * record.z_star]),
        residues=np.full((1, 1, 1), np.sqrt(t_peak) * (1.0 - r), dtype=complex),
        direct=np.zeros(1, dtype=complex),
    )

    def t_at(theta):
        return shape(np.exp(1j * (cmath.phase(record.z_star) + theta)))

    assert t_at(-step) < 0.5 and t_at(step) < 0.5
    expected = tuple(illinois_side(t_at, s, 0.0, t_peak, step, t_at(s * step)) for s in (-1, 1))
    assert shape.window == expected
    crossing = 2.0 * np.arcsin((1.0 - r) * np.sqrt(2 * t_peak - 1) / (2.0 * np.sqrt(r)))
    assert np.all(np.abs(np.abs(expected) - crossing) <= THETA_TOL)


LINE_SHAPE_TOL = 1e-12


def jordan_records():
    # a split record on each Jordan fixture of test_scattering, at its simple
    # pole 0.9: its line shape carries every pole order of the other chains
    return [
        TunnelingReport(_peak_at(walk, eigen_decompose(walk), 0.9), (1,), 0.0)
        for walk in (
            jordan_standin(0.5),
            coupled_to_two_tails(TWO_CHAINS),
            coupled_to_two_tails(MIXED),
        )
    ]


@pytest.mark.parametrize("case", sorted(PEAKS) + ["jordan_standin", "two_chains", "mixed"])
def test_a_line_shape_gives_the_resolvent_routes_transmission(case):
    if case in PEAKS:
        family, lam, split = PEAKS[case]
        record = tunneling_check(family, 0.01, lam, split)
        # eight angles a side, from a quarter of the predicted width outwards
        theta = record.width_predicted * 2.0 ** np.arange(-2, 6)
        z = record.z_star * np.exp(1j * np.concatenate([-theta, theta]))
    else:
        record = jordan_records()[["jordan_standin", "two_chains", "mixed"].index(case)]
        z = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
    walk, system = record.peak.walk, record.peak.system
    sigma = scattering_matrix(walk, z, system=system).matrix
    want, _ = transmission_reflection(sigma, set(record.channels), record.amp_in)
    got = record.line_shape(z)
    assert np.all(np.abs(got - want) <= LINE_SHAPE_TOL * want)
    # a point gives the bits of the same point in an array
    assert [record.line_shape(point) for point in z] == got.tolist()


def test_a_line_shape_keeps_the_kernels_errors():
    record = jordan_records()[0]
    with pytest.raises(AtInteriorResonance):
        record.line_shape(0.9 + 1e-12)
    with pytest.raises(PoleHit, match="zero-resonance guard"):
        record.line_shape(0.0)
    trapped = dataclasses.replace(record.line_shape, overlap=0.5, trapped=True)
    with pytest.raises(OrthogonalityViolated, match="5.000e-01"):
        trapped(1j)


def test_a_lockstep_gives_each_peak_its_own_window():
    # ms from eps = 0.01 to 0.6: the widest peak stays above one half
    family, lam, split = PEAKS["ms"]
    grid = geometric_grid(0.01, 0.6, 5)

    def shapes_searched_alone():
        return [tunneling_check(family, eps, lam, split).line_shape for eps in grid]

    shapes = shapes_searched_alone()
    asymptotics._search_windows(shapes)
    assert all(shape._window is not None for shape in shapes)
    for shape, solo in zip(shapes[:-1], shapes_searched_alone()):
        assert shape.window == solo.window
    with pytest.raises(NoCrossing):
        shapes[-1].window
    with pytest.raises(NoCrossing):
        shapes_searched_alone()[-1].window


def skewed_line_shape(rng):
    # a peak of height 0.9-1 from one pole at r z*, leaning on a broader
    # pole beside it, so some brackets bisect while others do not; one to
    # five tiny far poles vary the pole count, and so the padding of a stack
    r = 1.0 - 10.0 ** rng.uniform(-5, -1)
    z_star = np.exp(1j * rng.uniform(0, 2 * np.pi))
    t_peak = rng.uniform(0.9, 1.0)
    near = 1.0 - 10.0 ** rng.uniform(-2, -0.5)
    far = rng.integers(1, 6)
    values = [r * z_star, near * z_star * np.exp(1j * rng.uniform(-0.3, 0.3))]
    values += list(0.5 * np.exp(2j * np.pi * rng.uniform(size=far)))
    residues = [np.sqrt(t_peak) * (1.0 - r), rng.uniform(-0.3, 0.3) * np.sqrt(1.0 - r)]
    residues += list(1e-6 * rng.normal(size=far))
    return LineShape(
        z_star=z_star,
        modulus=r,
        t_at_peak=t_peak,
        values=np.array(values),
        residues=np.array(residues, dtype=complex).reshape(1, -1, 1),
        direct=np.zeros(1, dtype=complex),
    )


def test_a_lockstep_steps_each_bracket_on_its_own_values():
    # forty skewed peaks searched together give each its window searched alone
    shapes = [skewed_line_shape(np.random.default_rng(seed)) for seed in range(40)]
    asymptotics._search_windows(shapes)
    for seed, shape in enumerate(shapes):
        alone = skewed_line_shape(np.random.default_rng(seed))
        assert shape.window == alone.window, seed


def test_a_lockstep_step_on_a_pole_fails_that_shape_alone():
    # a second pole 5e-10 inside the circle beside the fourth doubling step
    # on the + side of one peak: that shape's window raises what its own
    # call raises at that step, and the two searched with it keep their
    # windows searched alone
    def hit_shape():
        shape = skewed_line_shape(np.random.default_rng(2))
        step = max((1.0 - shape.modulus) / 16.0, 1e-12) * 2.0**3
        point = np.exp(1j * (np.array([cmath.phase(shape.z_star)]) + step))[0]
        values = np.append(shape.values, (1.0 - 5e-10) * point)
        residues = np.concatenate([shape.residues, np.zeros((1, 1, 1))], axis=1)
        return dataclasses.replace(shape, values=values, residues=residues), point

    hit, point = hit_shape()
    others = [skewed_line_shape(np.random.default_rng(seed)) for seed in (0, 1)]
    asymptotics._search_windows([others[0], hit, others[1]])
    with pytest.raises(AtInteriorResonance) as own:
        hit_shape()[0](point)
    with pytest.raises(AtInteriorResonance) as searched:
        hit.window
    assert str(searched.value) == str(own.value)
    for seed, shape in zip((0, 1), others):
        assert shape.window == skewed_line_shape(np.random.default_rng(seed)).window


def pole_at_the_hit_distance(z):
    """A pole nearly radially inside the circle point ``z`` = 1 + iy (y tiny) whose
    computed distance to ``z`` is exactly the hit tolerance, and the same pole one
    float further in.  Below 1 floats are 2^-53 apart, so the radial part is the
    largest such multiple within the tolerance and a tangential part of a few
    1e-13 makes up the rest: circle points 1e-12 or more from ``z`` lie further."""
    assert z.real == 1.0
    ulp = 2.0**-53
    real = 1.0 - math.floor(EIGENVALUE_HIT_TOL / ulp) * ulp
    radial = 1.0 - real
    pole = complex(real, z.imag - math.sqrt((EIGENVALUE_HIT_TOL - radial) * (EIGENVALUE_HIT_TOL + radial)))
    for _ in range(64):  # the tangential part to the last float
        distance = abs(z - pole)
        if distance == EIGENVALUE_HIT_TOL:
            break
        pole = complex(real, np.nextafter(pole.imag, math.inf if distance > EIGENVALUE_HIT_TOL else -math.inf))
    further = complex(np.nextafter(real, 0.0), pole.imag)
    assert abs(z - pole) == EIGENVALUE_HIT_TOL < abs(z - further)
    return pole, further


def flat_shape(pole):
    # T = 1 everywhere but at its pole: a search that hits nothing finds no crossing;
    # z* = 1 and |λ| ~ 1 put the first doubling step at 1e-12
    return LineShape(z_star=1.0 + 0j, modulus=1.0 - 1e-15, t_at_peak=1.0, values=np.array([pole]),
                     residues=np.zeros((1, 1, 1), dtype=complex), direct=np.ones(1, dtype=complex))


def test_a_pole_exactly_the_hit_tolerance_away_is_hit_by_every_path():
    # the first point of the lockstep's + side, e^(i·1e-12): a pole at exactly
    # EIGENVALUE_HIT_TOL raises in the resolvent kernel, in a line shape's call
    # and in a lockstep search alike, and the next float further out in none
    z = np.exp(1j * (np.zeros(1) + 1e-12))[0]
    pole, further = pole_at_the_hit_distance(z)
    for value, hit in [(pole, True), (further, False)]:
        one = np.ones((1, 1), dtype=complex)
        basis = scattering.PoleBasis(np.array([value]), one, one, 0 * one, 0 * one, ())
        kernel = scattering.ResolventKernel(basis, 0 * one, one, (1,), 0.0, False)
        shape, searched = flat_shape(value), flat_shape(value)
        asymptotics._search_windows([searched])
        if hit:
            with pytest.raises(AtInteriorResonance) as own:
                kernel(z)
            with pytest.raises(AtInteriorResonance, match=re.escape(str(own.value))):
                shape(z)
            with pytest.raises(AtInteriorResonance, match=re.escape(str(own.value))):
                searched.window
        else:
            assert kernel(z).amp_out.tolist() == [[1.0]]
            assert shape(z) == 1.0
            with pytest.raises(NoCrossing):
                searched.window


def peak_shape(t_at_peak):
    # one pole at r z*: T at z* is t_at_peak, and T falls to one half within the window
    r, z_star = 0.99, 1j
    residue = np.full((1, 1, 1), math.sqrt(t_at_peak) * (1 - r), dtype=complex)
    return LineShape(z_star=z_star, modulus=r, t_at_peak=t_at_peak, values=np.array([r * z_star]),
                     residues=residue, direct=np.zeros(1, dtype=complex))


def test_the_peak_floor_is_one_rule_for_a_window_and_a_sweep():
    # T at z* exactly PEAK_FLOOR is a peak to .window and to a lockstep alike;
    # one float below it is a peak to neither
    alone, swept = peak_shape(PEAK_FLOOR), peak_shape(PEAK_FLOOR)
    asymptotics._search_windows([swept])
    assert swept._window == alone.window and alone.width_measured is not None
    below = np.nextafter(PEAK_FLOOR, 0.0)
    alone, swept = peak_shape(below), peak_shape(below)
    asymptotics._search_windows([swept])
    assert swept._window is None and alone.width_measured is None
    with pytest.raises(ValueError, match="below 0.9"):
        alone.window


def test_a_window_error_comes_before_a_later_eps_that_fails(monkeypatch):
    # the windows are searched after the stream, yet the first eps in grid
    # order that fails raises: here the widest peak's NoCrossing at 0.6,
    # before a failure planted in the stream at 0.7
    family, lam, split = PEAKS["ms"]
    peak_at = asymptotics._peak_at

    def failing(walk, system, lambda_eps):
        if walk.eps == 0.7:
            raise ResonanceOnCircle("planted")
        return peak_at(walk, system, lambda_eps)

    monkeypatch.setattr(asymptotics, "_peak_at", failing)
    with pytest.raises(NoCrossing):
        width_table(family, lam, split, [0.01, 0.6, 0.7])
    with pytest.raises(ResonanceOnCircle, match="planted"):
        width_table(family, lam, split, [0.01, 0.3, 0.7])


def test_two_loop_peak_is_asymmetric():
    family, lam, split = PEAKS["two_loop"]
    theta_minus, theta_plus = tunneling_check(family, 0.3, lam, split).line_shape.window
    assert abs(theta_plus + theta_minus) > 1e-3


@pytest.mark.parametrize(
    "family, eps, lam, split",
    [(cycle_family(4, [1.0] * 4), 0.8, 1.0, (1, 2)), (matrix_schrodinger_family(), 0.6, 1j, (1,))],
    ids=["cycle4", "ms"],
)
def test_a_peak_wider_than_the_window_has_no_crossing(family, eps, lam, split):
    report = tunneling_check(family, eps, lam, split)
    with pytest.raises(NoCrossing):
        report.line_shape.window
    assert report.t_at_peak >= 0.9
    assert report.line_shape.width_measured is None


def kernel_calls(monkeypatch):
    """The points of every resolvent kernel evaluation, as they happen."""
    calls = []
    evaluate = scattering.ResolventKernel.__call__

    def spy(kernel, z):
        calls.append(z)
        return evaluate(kernel, z)

    monkeypatch.setattr(scattering.ResolventKernel, "__call__", spy)
    return calls


def line_shape_evaluations(monkeypatch):
    """The points of every stacked line-shape evaluation, as they happen."""
    calls = []
    evaluate = asymptotics._transmissions

    def spy(stack, owner, z):
        calls.append(z)
        return evaluate(stack, owner, z)

    monkeypatch.setattr(asymptotics, "_transmissions", spy)
    return calls


def sigma_calls_per_width(monkeypatch, model, eps):
    # a Σ is one evaluation of a resolvent kernel over every tail, whether
    # through scattering_matrix, generalized_eigenfunction or a peak's
    # kernel, or one evaluation of the line shape read off that kernel;
    # the kernel runs once, at z*
    family, lam, split = PEAKS[model]
    calls = kernel_calls(monkeypatch)
    evaluations = line_shape_evaluations(monkeypatch)
    tunneling_check(family, eps, lam, split).line_shape.window
    assert len(calls) == 1
    return len(calls) + len(evaluations)


@pytest.mark.parametrize("model", sorted(PEAKS))
def test_peak_width_makes_few_sigma_calls(monkeypatch, model):
    # z*, the doubling stack and the regula falsi steps
    assert 3 <= sigma_calls_per_width(monkeypatch, model, 0.01) <= 12


@pytest.mark.parametrize("eps", [1e-3, 0.05, 0.3])
@pytest.mark.parametrize("model", sorted(PEAKS))
def test_peak_width_stays_cheap_across_eps(monkeypatch, model, eps):
    assert 3 <= sigma_calls_per_width(monkeypatch, model, eps) <= 16


@pytest.mark.parametrize("model", sorted(PEAKS))
def test_a_peak_kernel_gives_the_resolvent_route_bits(monkeypatch, model):
    # one kernel per peak is called once, at z*, with the bits of a
    # scattering_matrix call there; the half-height steps read the line
    # shape and call no kernel
    family, lam, split = PEAKS[model]
    points = kernel_calls(monkeypatch)
    report = tunneling_check(family, 0.01, lam, split)
    report.line_shape.window
    peak = report.peak
    assert points == [peak.z_star]
    monkeypatch.undo()
    kernel = peak.kernel
    # its first n_tails columns are Σ; the last scatters the co-state profile
    nt = peak.walk.n_tails
    want = scattering_matrix(peak.walk, peak.z_star, "resolvent", peak.system).matrix
    assert np.array_equal(kernel(peak.z_star).amp_out[..., :nt], want)
    assert peak.kernel is kernel


@pytest.mark.parametrize("model", sorted(PEAKS))
def test_tunneling_check_solves_once_at_z_star(monkeypatch, model):
    # Σ(z*) and the profile's interior wave come from one resolvent solve
    family, lam, split = PEAKS[model]
    shifts = []
    pole_sum = scattering._pole_sum

    def spy(poles, drive, shift):
        shifts.append(shift.reshape(-1))
        return pole_sum(poles, drive, shift)

    monkeypatch.setattr(scattering, "_pole_sum", spy)
    report = tunneling_check(family, 0.01, lam, split)
    comfort = report.peak.comfort
    assert sum(len(s) == 1 and s[0] == report.z_star for s in shifts) == 1
    # the same numbers as a solve per quantity
    peak = report.peak
    sigma = scattering_matrix(peak.walk, peak.z_star, system=peak.system).matrix
    t_peak, _ = transmission_reflection(sigma, set(split), report.amp_in)
    assert report.t_at_peak == pytest.approx(t_peak, rel=1e-14)
    energy = comfortability(peak.walk, peak.z_star, peak.profile, peak.system)
    assert comfort == pytest.approx(energy, rel=1e-14)


def kernels_built(monkeypatch):
    """The incoming pattern of every resolvent kernel built, as it happens."""
    shapes = []
    build = scattering.resolvent_kernel

    def spy(walk, amp_in, system=None):
        shapes.append(np.shape(amp_in))
        return build(walk, amp_in, system)

    for module in (asymptotics, scattering):
        monkeypatch.setattr(module, "resolvent_kernel", spy)
    return shapes


@pytest.mark.parametrize("model", sorted(PEAKS))
def test_tunneling_check_builds_one_kernel_per_peak(monkeypatch, model):
    # one kernel over every tail and the profile serves z* and the width
    family, lam, split = PEAKS[model]
    shapes = kernels_built(monkeypatch)
    tunneling_check(family, 0.01, lam, split).line_shape.window
    nt = family(0.01).n_tails
    assert shapes == [(nt, nt + 1)]


@pytest.mark.parametrize("model", sorted(PEAKS))
def test_a_tunneling_table_builds_one_kernel_per_eps(monkeypatch, model):
    family, lam, split = PEAKS[model]
    grid = geometric_grid(1e-3, 0.1, 6)
    shapes = kernels_built(monkeypatch)
    tunneling_table(family, lam, split, grid)
    assert len(shapes) == len(grid)


@pytest.mark.parametrize("model", sorted(PEAKS))
def test_comfortability_growth_is_the_tunneling_reports_bits(model):
    # a one-eps comfort table and the report both read the interior
    # energy off the peak's one solve at z*
    family, lam, split = PEAKS[model]
    grid = geometric_grid(1e-3, 0.1, 5)
    for eps in grid:
        rows, _ = comfort_table(family, lam, [eps])
        energy = next(row.value for row in rows if row.quantity == "comfort")
        report = tunneling_check(family, eps, lam, split)
        assert energy == report.peak.comfort, eps


def test_comfortability_growth_and_bound():
    fam = cycle_family(4, [1.0] * 4)
    peak = tunneling_check(fam, 0.05, 1.0, (1, 2)).peak
    energy, bound = peak.comfort, peak.comfort_bound
    assert energy >= bound
    assert energy >= 1.0 / 0.05
    track = track_resonances(fam, eps_grid=[0.0, 0.05])
    lam_eps = tracked_at(track, 0.05, 1.0)
    assert abs(bound - comfortability_bound(lam_eps)) <= 1e-9


def test_resonant_block_norm_floor():
    fam = cycle_family(4, [1.0] * 4)
    # at z* the resonance's pole block has norm at least 1 + |lambda_eps|
    peak = tunneling_check(fam, 0.05, 1.0, (1, 2)).peak
    norm = float(np.linalg.norm(pole_block(peak.walk, peak.cluster, peak.z_star), 2))
    floor = 1.0 + abs(peak.lam_eps)
    assert norm >= floor - 1e-8
    assert floor >= 1.99
    track = track_resonances(fam, eps_grid=[0.0, 0.05])
    assert abs(floor - (1.0 + abs(tracked_at(track, 0.05, 1.0)))) <= 1e-9


def test_discrepancy_is_first_order_when_circle_is_stable():
    rows, summary = discrepancy_table(
        crossing_family(0.8), 1j, eps_values=geometric_grid(1e-3, 1e-1, 9)
    )
    assert len(rows) == 9
    assert all(r.quantity == "discrepancy" for r in rows)
    assert FIRST_ORDER_BAND[0] <= summary["slope"] <= FIRST_ORDER_BAND[1]
    assert summary["slope_in_band"]


def test_discrepancy_reports_higher_order_honestly():
    # moving resonances push the fixed-z discrepancy to second order
    rows, summary = discrepancy_table(
        matrix_schrodinger_family(),
        0.921 + 0.390j,
        eps_values=geometric_grid(1e-3, 1e-1, 9),
    )
    assert SECOND_ORDER_BAND[0] <= summary["slope"] <= SECOND_ORDER_BAND[1]
    assert not summary["slope_in_band"]


@pytest.mark.parametrize("eps_values", [[0.01], [0.0, 0.01]], ids=["one", "zero-and-one"])
def test_a_one_point_discrepancy_builds_no_walk(eps_values):
    # the slope fit needs two positive eps; nothing is computed before it says so
    calls = []
    family = crossing_family(0.8)

    def spy(eps):
        calls.append(eps)
        return family(eps)

    with pytest.raises(ValueError, match="need at least two positive points"):
        discrepancy_table(spy, 1j, eps_values)
    assert calls == []


def test_discrepancy_norm_single_point():
    # the slope fit needs two points; the first row is the one at 0.01
    rows, _ = discrepancy_table(crossing_family(0.8), 1j, [0.01, 0.02])
    value = rows[0].value
    assert value == pytest.approx(0.8 * 0.01, rel=1e-2)


def test_transmission_grows_at_second_order():
    fam = crossing_family(0.8)
    grid = geometric_grid(1e-3, 1e-1, 9)
    amp = np.array([1.0, 0.0], dtype=complex)
    values = []
    for eps in grid:
        sigma = scattering_matrix(fam(eps), 1j).matrix
        t, _ = transmission_reflection(sigma, {1}, amp)
        values.append(t)
    slope, _ = fit_loglog_slope(grid, values)
    assert SECOND_ORDER_BAND[0] <= slope <= SECOND_ORDER_BAND[1]


def test_width_table_ratio_band():
    rows, summary = width_table(
        cycle_family(4, [1.0] * 4), 1.0, (1, 2), eps_values=[0.02, 0.05]
    )
    assert len(rows) == 6
    quantities = {r.quantity for r in rows}
    assert quantities == {"width_measured", "width_predicted", "width_ratio"}
    assert summary["width_band_pass"]
    assert summary["max_ratio_deviation"] <= 0.05


def test_tunneling_table_peak_stays_high():
    rows, summary = tunneling_table(
        matrix_schrodinger_family(), 1j, (1,), eps_values=[0.02, 0.05]
    )
    assert summary["min_t_at_peak"] >= 1.0 - 1e-6
    assert summary["peak_band_pass"]
    assert summary["max_symmetry_residual"] <= 1e-10
    assert any(r.quantity == "t_at_peak" for r in rows)


def test_comfort_table_growth_band():
    rows, summary = comfort_table(
        cycle_family(4, [1.0] * 4), 1.0, eps_values=[0.02, 0.05]
    )
    assert summary["growth_band_pass"]
    assert summary["min_ratio_to_bound"] >= 0.9
    scaled = [r.value for r in rows if r.quantity == "comfort_scaled"]
    assert all(0.1 <= v <= 10.0 for v in scaled)


@pytest.mark.parametrize("model", ["ms", "cycle4"])
def test_every_peak_row_carries_the_peaks_z_star(model):
    # one z* per eps, rounded as the peak itself rounds it
    family, lam, split = PEAKS[model]
    grid = geometric_grid(1e-3, 0.1, 9)
    z_star = {float(eps): tunneling_check(family, eps, lam, split).z_star for eps in grid}
    tables = {
        "tunneling": tunneling_table(family, lam, split, grid),
        "width": width_table(family, lam, split, grid),
        "comfort": comfort_table(family, lam, grid),
    }
    for name, (rows, summary) in tables.items():
        assert summary["points"] == len(grid)
        assert {row.eps for row in rows} == set(z_star), name
        for row in rows:
            assert row.z == z_star[row.eps], (name, row)


@pytest.mark.parametrize("model", ["ms", "cycle4", "two_loop"])
def test_peak_tables_pick_the_fastest_start_for_lam_none(model, monkeypatch):
    # lam=None tracks once, picks the start nearest the origin at the last
    # eps, and gives the same tables as naming that start
    family, _, split = PEAKS[model]
    grid = geometric_grid(0.01, 0.05, 3)
    track = track_resonances(family, np.concatenate([[0.0], grid]))
    fastest = track.starts[int(np.argmin(np.abs(track.paths[-1])))]
    calls = []
    tracker = asymptotics.track_resonances

    def spy(*args):
        calls.append(args)
        return tracker(*args)

    monkeypatch.setattr(asymptotics, "track_resonances", spy)
    tables = {
        "tunneling": lambda lam: tunneling_table(family, lam, split, grid),
        "width": lambda lam: width_table(family, lam, split, grid),
        "comfort": lambda lam: comfort_table(family, lam, grid),
    }
    for name, table in tables.items():
        del calls[:]
        rows, summary = table(None)
        assert len(calls) == 1, name
        assert complex(summary["lambda_re"], summary["lambda_im"]) == fastest
        assert (rows, summary) == table(fastest), name


@pytest.mark.parametrize("grid", [None, geometric_grid(0.01, 0.6, 5)], ids=["default", "to-0.6"])
@pytest.mark.parametrize("model", ["ms", "cycle4", "two_loop"])
def test_lam_none_picks_as_a_track_of_the_whole_grid(monkeypatch, model, grid):
    # the pick tracks eps = 0 to the last eps in one step, bisected where it
    # must be, and ends where a track over every eps of the grid ends
    family = PEAKS[model][0]
    full = track_resonances(family, default_eps_grid() if grid is None else np.concatenate([[0.0], grid]))
    fastest = full.starts[int(np.argmin(np.abs(full.paths[-1])))]
    picks, tracker = [], asymptotics.track_resonances

    def spy(family, eps_grid):
        track = tracker(family, eps_grid)
        picks.append((list(eps_grid), track.starts[int(np.argmin(np.abs(track.paths[-1])))]))
        return track

    monkeypatch.setattr(asymptotics, "track_resonances", spy)
    _, summary = comfort_table(family, None, grid)
    assert picks == [([0.0, full.eps_grid[-1]], fastest)]
    assert complex(summary["lambda_re"], summary["lambda_im"]) == fastest


def test_lam_none_streams_the_grid_once(monkeypatch):
    # the pick walks and decomposes eps = 0 and the last eps, then the
    # streamed pass walks and decomposes N + 1 eps, with no eigvals; a
    # chunk counts each of its eps
    family, _, split = PEAKS["ms"]
    grid = geometric_grid(1e-3, 0.1, 25)
    counts = {"walk": 0, "decompose": 0, "eigvals": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            counts[name] += eps_handed(args[0]) if name == "decompose" else 1
            return fn(*args, **kwargs)

        return spy

    monkeypatch.setattr(asymptotics, "eigen_decompose", counted("decompose", eigen_decompose))
    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
    width_table(counted("walk", family), None, split, grid)
    assert counts == {"walk": len(grid) + 3, "decompose": len(grid) + 3, "eigvals": 0}


STREAMED = {
    "tunneling": lambda family, lam, split, grid: tunneling_table(family, lam, split, grid),
    "width": lambda family, lam, split, grid: width_table(family, lam, split, grid),
    "comfort": lambda family, lam, split, grid: comfort_table(family, lam, grid),
    "remainder": lambda family, lam, split, grid: remainder_table(family, grid, n_grid=8),
}


def eps_handed(walks):
    """The number of eps in one ``eigen_decompose`` call: a chunk's walks, or one walk."""
    return len(walks) if isinstance(walks, list) else 1


@pytest.mark.parametrize("table", sorted(STREAMED))
@pytest.mark.parametrize("model", ["ms", "cycle4"])
def test_a_sweep_walks_and_decomposes_each_eps_once(monkeypatch, model, table):
    # eps = 0 and each grid eps: one walk, one decomposition, no eigvals; a
    # chunk's call counts each of its eps
    family, lam, split = PEAKS[model]
    grid = geometric_grid(1e-3, 0.1, 6)
    counts = {"walk": 0, "decompose": 0, "eigvals": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            counts[name] += eps_handed(args[0]) if name == "decompose" else 1
            return fn(*args, **kwargs)

        return spy

    for module in (asymptotics, scattering):
        monkeypatch.setattr(module, "eigen_decompose", counted("decompose", module.eigen_decompose))
    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
    STREAMED[table](counted("walk", family), lam, split, grid)
    assert counts == {"walk": len(grid) + 1, "decompose": len(grid) + 1, "eigvals": 0}


@pytest.mark.parametrize("table", sorted(STREAMED))
def test_a_sweep_keeps_at_most_one_chunk_alive(monkeypatch, table):
    # chunks of two eps after eps = 0 alone: each measured eps sees the
    # systems of its own chunk, and none of an earlier one; while a chunk is
    # decomposed, at most the point its consumer still holds is left of the
    # chunk before it
    family, lam, split = PEAKS["ms"]
    grid = geometric_grid(1e-3, 0.1, 6)
    n0 = family.graph.n_arcs
    monkeypatch.setattr(asymptotics, "CHUNK_BYTES", 2 * 16 * n0 * n0)
    chunks, alive, held = [], [], []
    decompose = asymptotics.eigen_decompose

    def spy(walks):
        held.append(sum(ref() is not None for refs in chunks for ref in refs))
        out = decompose(walks)
        chunks.append([weakref.ref(system) for system in (out if isinstance(walks, list) else [out])])
        return out

    def counted(fn):
        def measured(*args, **kwargs):
            alive.append([sum(ref() is not None for ref in refs) for refs in chunks])
            return fn(*args, **kwargs)

        return measured

    monkeypatch.setattr(asymptotics, "eigen_decompose", spy)
    # each peak reads its resonance's boundary data; each remainder eps sums its pole blocks
    monkeypatch.setattr(asymptotics, "boundary_data", counted(asymptotics.boundary_data))
    monkeypatch.setattr(asymptotics, "pole_block", counted(asymptotics.pole_block))
    STREAMED[table](family, lam, split, grid)
    assert alive == [[0] * (1 + i // 2) + [2] for i in range(len(grid))]
    assert len(held) == 4 and max(held) <= 1


CHUNKED = {
    **STREAMED,
    "discrepancy": lambda family, lam, split, grid: discrepancy_table(family, cmath.exp(0.7j), grid),
    "track": lambda family, lam, split, grid: track_resonances(family, np.concatenate([[0.0], grid])),
}


def comparable(result):
    """A table's rows and summary, or a track's grid, starts and the bytes of its paths."""
    if isinstance(result, asymptotics.ResonanceTrack):
        return result.eps_grid, result.starts, result.paths.tobytes()
    return result


@pytest.mark.parametrize("table", sorted(CHUNKED))
@pytest.mark.parametrize("model", ["ms", "cycle4"])
def test_the_chunk_size_changes_nothing(monkeypatch, model, table):
    # one eps per chunk, and the whole grid in one chunk, give the same rows and summary
    family, lam, split = PEAKS[model]
    grid = geometric_grid(1e-3, 0.1, 7)
    n0 = family.graph.n_arcs
    decompose, calls, results = asymptotics.eigen_decompose, [], []

    def spy(walks):
        calls.append(eps_handed(walks))
        return decompose(walks)

    monkeypatch.setattr(asymptotics, "eigen_decompose", spy)
    for walks_per_chunk in (1, len(grid)):
        monkeypatch.setattr(asymptotics, "CHUNK_BYTES", walks_per_chunk * 16 * n0 * n0)
        results.append(comparable(CHUNKED[table](family, lam, split, grid)))
    assert calls == [1] * (len(grid) + 1) + [1, len(grid)]
    assert results[0] == results[1]


def test_a_chunk_raises_each_failure_when_the_stream_reaches_its_eps(monkeypatch):
    # a walk that fails to build, or a member whose decomposition failed,
    # raises once the eps before it in its chunk are measured
    family, lam, _ = PEAKS["ms"]
    measured, peak_at, decompose = [], asymptotics._peak_at, asymptotics.eigen_decompose

    def measuring(walk, system, lambda_eps):
        measured.append(walk.eps)
        return peak_at(walk, system, lambda_eps)

    def second_fails(walks):
        out = decompose(walks)
        if isinstance(walks, list) and len(walks) > 1:
            members = list(out.members)
            members[1] = spectral.IllConditionedChain(0.5, math.inf)
            out = spectral.EigenStack(tuple(members), out.matrix)
        return out

    monkeypatch.setattr(asymptotics, "_peak_at", measuring)
    with pytest.raises(EpsOutOfRange) as alone:
        family.walk(0.75)
    with pytest.raises(EpsOutOfRange) as streamed:
        comfort_table(family, lam, [0.01, 0.3, 0.75, 0.8])
    assert str(streamed.value) == str(alone.value)
    assert measured == [0.01, 0.3]
    monkeypatch.setattr(asymptotics, "eigen_decompose", second_fails)
    del measured[:]
    with pytest.raises(spectral.IllConditionedChain):
        comfort_table(family, lam, [0.01, 0.02, 0.03])
    assert measured == [0.01]


def test_a_plain_callable_raises_inside_a_chunk_after_the_eps_before_it(monkeypatch):
    # a family with no ``walks`` is walked eps by eps, up to the first that
    # fails: the two before it are decomposed in one call and measured, and
    # then its own error is raised; the eps after it is never walked
    ms, lam = matrix_schrodinger_family(), PEAKS["ms"][1]
    walked, handed, decompose = [], [], asymptotics.eigen_decompose

    def family(eps):
        walked.append(eps)
        return ms.walk(eps)

    def decomposing(walks):
        handed.append([walk.eps for walk in walks] if isinstance(walks, list) else [walks.eps])
        return decompose(walks)

    monkeypatch.setattr(asymptotics, "eigen_decompose", decomposing)
    with pytest.raises(EpsOutOfRange) as alone:
        ms.walk(0.8)
    with pytest.raises(EpsOutOfRange) as streamed:
        comfort_table(family, lam, [0.01, 0.02, 0.8, 0.9])
    assert str(streamed.value) == str(alone.value)
    assert walked == [0.0, 0.01, 0.02, 0.8]
    assert handed == [[0.0], [0.01, 0.02]]


def ms_with_factor(factor):
    """ms's graph and coins with every entry of its L+ coin multiplied by ``factor``,
    an expression that is exactly 1 away from eps = 0.3."""
    ms = matrix_schrodinger_family()
    coins = dict(ms.coins, **{"L+": [[Mul(entry, parse(factor)) for entry in row] for row in ms.coins["L+"]]})
    return ModelFamily("ms-factor", ms.graph, coins, eps_limit=ms.eps_limit)


@pytest.mark.parametrize(
    "factor, error",
    [("1 + 0.5*exp(-((eps - 0.3)*1000)^2)", NotUnitary), ("(eps - 0.3)/(eps - 0.3)", EvalError)],
    ids=["not-unitary", "division-by-zero"],
)
def test_a_coin_failure_inside_a_chunk_raises_when_the_stream_reaches_its_eps(monkeypatch, factor, error):
    # the chunk's coins are evaluated at once, and eps = 0.3 fails there; the
    # stream measures 0.01 and 0.02 first and raises family(0.3)'s own error
    family, lam = ms_with_factor(factor), PEAKS["ms"][1]
    measured, peak_at = [], asymptotics._peak_at

    def measuring(walk, system, lambda_eps):
        measured.append(walk.eps)
        return peak_at(walk, system, lambda_eps)

    monkeypatch.setattr(asymptotics, "_peak_at", measuring)
    with pytest.raises(error) as alone:
        family.walk(0.3)
    assert np.array_equal(family.walk(0.02).full, matrix_schrodinger_family().walk(0.02).full)
    with pytest.raises(error) as streamed:
        comfort_table(family, lam, [0.01, 0.02, 0.3, 0.4])
    assert str(streamed.value) == str(alone.value)
    assert measured == [0.01, 0.02]


@pytest.mark.parametrize("walks_per_chunk", [2, 25])
def test_each_chunk_is_built_by_one_coin_evaluation_and_one_assembly(monkeypatch, walks_per_chunk):
    # eps = 0 alone, then the grid a chunk at a time: one eval_coins and one
    # assemble call per chunk, each over the chunk's eps
    family, lam, split = PEAKS["ms"]
    grid = geometric_grid(1e-3, 0.1, 7)
    n0 = family.graph.n_arcs
    monkeypatch.setattr(asymptotics, "CHUNK_BYTES", walks_per_chunk * 16 * n0 * n0)
    evaluated, placed = [], []

    def evaluating(coins, eps):
        evaluated.append(np.asarray(eps).tolist())
        return eval_coins(coins, eps)

    def placing(graph, stack, eps=None):
        placed.append(list(eps))
        return assemble(graph, stack, eps)

    monkeypatch.setattr(models, "eval_coins", evaluating)
    monkeypatch.setattr(models, "assemble", placing)
    width_table(family, lam, split, grid)
    chunks = [grid[k : k + walks_per_chunk].tolist() for k in range(0, len(grid), walks_per_chunk)]
    assert evaluated == placed == [[0.0]] + chunks


def test_a_stack_of_walks_is_each_eps_walked_alone():
    # ModelFamily.walks keeps each eps's walk, bit for bit, and each build error in its place
    family = matrix_schrodinger_family()
    grid = [0.0, 0.3, 0.75, 0.1, -0.2, 0.5]
    stack = family.walks(grid)
    for eps, member in zip(grid, stack):
        if eps in (0.75, -0.2):
            with pytest.raises(EpsOutOfRange) as alone:
                family.walk(eps)
            assert isinstance(member, EpsOutOfRange) and str(member) == str(alone.value)
        else:
            assert member.eps == eps and member.full.tobytes() == family.walk(eps).full.tobytes()


def test_discrepancy_without_z_walks_and_decomposes_eps_zero_once(monkeypatch):
    # the nonresonant point comes from eps = 0's own walk and decomposition
    family = crossing_family(0.8)
    walked, decomposed = [], []
    walks, decompose = ModelFamily.walks, asymptotics.eigen_decompose

    def walking(self, eps_values):
        walked.extend(float(eps) for eps in eps_values)
        return walks(self, eps_values)

    def decomposing(walk_or_walks):
        decomposed.extend(w.eps for w in (walk_or_walks if isinstance(walk_or_walks, list) else [walk_or_walks]))
        return decompose(walk_or_walks)

    monkeypatch.setattr(ModelFamily, "walks", walking)
    monkeypatch.setattr(asymptotics, "eigen_decompose", decomposing)
    rows, summary = discrepancy_table(family, None, geometric_grid(1e-3, 0.1, 5))
    assert walked.count(0.0) == decomposed.count(0.0) == 1
    z = nonresonant_point(crossing_family(0.8))
    assert complex(summary["z_re"], summary["z_im"]) == z
    assert (rows, summary) == discrepancy_table(family, z, geometric_grid(1e-3, 0.1, 5))


def rows_from_the_public_functions(family, lam, split, grid):
    # each eps fed to the per-eps function on its own, and λ_ε for the
    # predicted width and the scaled comfort from a track over the whole grid
    track = track_resonances(family, np.concatenate([[0.0], grid]))
    rows = {"tunneling": [], "width": [], "comfort": []}
    for eps in grid:
        lam_eps = tracked_at(track, eps, lam)
        report = tunneling_check(family, eps, lam, split)
        at = (float(eps), report.z_star)
        for quantity, value in [
            ("t_at_peak", report.t_at_peak),
            ("symmetry_residual", report.symmetry_residual),
            ("overlap", report.overlap),
            ("width_measured", report.line_shape.width_measured),
            ("width_predicted", report.width_predicted),
        ]:
            if value is not None:
                rows["tunneling"].append(at + (quantity, value))
        theta_minus, theta_plus = report.line_shape.window
        measured, predicted = theta_plus - theta_minus, 2.0 * (1.0 - abs(lam_eps))
        rows["width"] += [
            at + ("width_measured", measured),
            at + ("width_predicted", predicted),
            at + ("width_ratio", measured / predicted),
        ]
        energy, bound = report.peak.comfort, report.peak.comfort_bound
        rows["comfort"] += [
            at + ("comfort", energy),
            at + ("comfort_bound", bound),
            at + ("comfort_scaled", energy * (1.0 - abs(lam_eps))),
        ]
    return rows


@pytest.mark.parametrize("model", sorted(PEAKS))
def test_streamed_rows_match_the_per_eps_functions_bit_for_bit(model):
    family, lam, split = PEAKS[model]
    grid = geometric_grid(1e-3, 0.1, 5)
    expected = rows_from_the_public_functions(family, lam, split, grid)
    for name in expected:
        rows, _ = STREAMED[name](family, lam, split, grid)
        assert [tuple(row) for row in rows] == expected[name], name


@pytest.mark.parametrize("model", sorted(PEAKS))
def test_tunneling_check_reads_the_trackers_lambda_eps(model):
    # tunneling_check tracks λ_ε on its own stream from 0 to eps;
    # track_resonances gives the same bits from 0 to eps, and over a whole
    # grid, whose steps and bisections differ
    family, lam, split = PEAKS[model]
    grid = np.concatenate([geometric_grid(1e-3, 0.1, 5), [0.3, 0.5]])
    whole = track_resonances(family, np.concatenate([[0.0], grid]))

    def bits(value):
        return np.array([value], dtype=complex).view(np.uint64).tolist()

    for eps in grid:
        got = bits(tunneling_check(family, eps, lam, split).lambda_eps)
        assert got == bits(tracked_at(track_resonances(family, [0.0, eps]), eps, lam)), eps
        assert got == bits(tracked_at(whole, eps, lam)), eps


def test_lam_none_needs_a_resonance_that_leaves_the_circle():
    grid = geometric_grid(0.01, 0.05, 3)
    with pytest.raises(NoDetachingResonance, match="stays on the unit circle"):
        comfort_table(crossing_family(0.8), None, grid)


def test_a_lambda_that_names_no_start_is_rejected():
    family = cycle_family(4, [1.0] * 4)
    grid = geometric_grid(0.01, 0.1, 3)
    with pytest.raises(ValueError, match="names none of the tracked resonances"):
        width_table(family, 0.2, (1, 2), grid)
    starts = track_resonances(family, np.concatenate([[0.0], grid])).starts
    # the start 1 lies sqrt(2) from the next, so it is named from 0.35
    # (0.65 away) but not from 0.25 (0.75 away)
    assert asymptotics._column(starts, 0.35) == asymptotics._column(starts, 1.0)
    with pytest.raises(ValueError, match="names none"):
        asymptotics._column(starts, 0.25)
    # two-loop: exp(0.42j) lies 1.03e-3 from its start
    family, lam, _ = PEAKS["two_loop"]
    starts = track_resonances(family, [0.0, 0.01]).starts
    assert abs(starts[asymptotics._column(starts, lam)] - lam) <= 1.1e-3


def test_remainder_constant_stays_finite():
    rows, summary = remainder_table(
        matrix_schrodinger_family(), eps_values=[0.02, 0.05], n_grid=16
    )
    assert summary["finite"]
    assert summary["constant"] <= 1.0
    assert all(r.quantity == "remainder_sup" for r in rows)
    assert all(r.value >= 0 for r in rows)


def remainder_by_scalar_loop(family, eps, n_grid, route):
    # the per-z loop the stacked table replaced, kept as its reference
    z_points = [cmath.exp(2j * cmath.pi * k / n_grid) for k in range(n_grid)]
    track = track_resonances(family, [0.0, eps])
    walk0, walk = family(0.0), family(eps)
    system = eigen_decompose(walk)
    clusters = [system.nearest_cluster(lam) for lam in track.paths[1]]
    residuals = []
    for z in z_points:
        approx = scattering_matrix(walk0, z, route).matrix
        for cluster in clusters:
            approx = approx + pole_block(walk, cluster, z)
        sigma = scattering_matrix(walk, z, route, system).matrix
        residuals.append(float(np.linalg.norm(sigma - approx, 2)))
    return z_points, residuals


@pytest.mark.parametrize("n_grid", [0, -1])
def test_remainder_table_needs_a_grid_point_before_any_walk(n_grid):
    calls = []
    family = matrix_schrodinger_family()

    def spy(eps):
        calls.append(eps)
        return family(eps)

    with pytest.raises(ValueError, match="n_grid"):
        remainder_table(spy, [0.01, 0.02], n_grid=n_grid)
    assert calls == []


ROUTE_TABLES = {
    "discrepancy": lambda family, route: discrepancy_table(family, None, [0.01, 0.02], route),
    "remainder": lambda family, route: remainder_table(family, [0.01, 0.02], route=route),
}


@pytest.mark.parametrize("table", sorted(ROUTE_TABLES))
def test_an_unknown_route_is_refused_before_any_walk(monkeypatch, table):
    calls, decomposed = [], []
    family = matrix_schrodinger_family()
    decompose = asymptotics.eigen_decompose
    monkeypatch.setattr(asymptotics, "eigen_decompose", lambda walks: decomposed.append(walks) or decompose(walks))

    def spy(eps):
        calls.append(eps)
        return family(eps)

    with pytest.raises(ValueError, match="unknown route 'bogus'"):
        ROUTE_TABLES[table](spy, "bogus")
    assert calls == decomposed == []


@pytest.mark.parametrize(
    "family, route",
    [(matrix_schrodinger_family(), "resolvent"), (cycle_family(8, [1.0] * 8), "expansion")],
    ids=["ms", "cycle8"],
)
def test_remainder_table_matches_a_loop_over_z(family, route):
    rows, _ = remainder_table(family, eps_values=[0.01, 0.05], n_grid=32, route=route)
    for row in rows:
        z_points, residuals = remainder_by_scalar_loop(family, row.eps, 32, route)
        assert abs(row.value - max(residuals)) <= 1e-15
        # the reported point attains the sup, up to ties at roundoff
        at = residuals[int(np.argmin(np.abs(np.array(z_points) - row.z)))]
        assert abs(at - row.value) <= 1e-15


def largest_norm_in_full(stack):
    """The stacked 2-norm of every matrix, then its argmax and max."""
    norms = np.linalg.norm(stack, 2, axis=(1, 2))
    worst = int(np.argmax(norms))
    return worst, float(norms[worst])


@pytest.mark.parametrize(
    "family, route",
    [
        (matrix_schrodinger_family(), "resolvent"),
        (cycle_family(8, [0.97, 1.02, 0.99, 1.01, 0.96, 1.03, 1.0, 0.98]), "expansion"),
        # its interior stays on the circle: each residual is a rotation minus
        # the identity, whose two singular values are equal
        (crossing_family(0.8), "resolvent"),
    ],
    ids=["ms", "cycle8", "crossing-flat"],
)
def test_remainder_rows_match_the_full_stacked_norm(monkeypatch, family, route):
    grid = geometric_grid(1e-3, 1e-1, 9)
    seen = []
    pruned = asymptotics._largest_norm

    def spy(stack):
        seen.append(stack)
        return pruned(stack)

    monkeypatch.setattr(asymptotics, "_largest_norm", spy)
    rows, summary = remainder_table(family, grid, 64, route)
    monkeypatch.setattr(asymptotics, "_largest_norm", largest_norm_in_full)
    assert (rows, summary) == remainder_table(family, grid, 64, route)  # bit for bit
    for stack in seen:
        assert pruned(stack) == largest_norm_in_full(stack)
    if family.name == "crossing":
        sigmas = np.linalg.svd(seen[-1], compute_uv=False)
        assert np.abs(sigmas[:, 0] - sigmas[:, 1]).max() <= 1e-15


def match_step_by_loop(vals0, cur, vals1):
    """The per-value matching loop that _match_step vectorises."""
    new, used = [], set()
    for lam in cur:
        gaps = np.sort(np.abs(vals0 - lam))
        gap = float(gaps[1]) if len(gaps) > 1 else np.inf
        moves = np.abs(vals1 - lam)
        j = int(np.argmin(moves))
        if j in used:
            return None
        if not moves[j] < 0.5 * gap:
            return None
        used.add(j)
        new.append(complex(vals1[j]))
    return new


# a coarse lattice, so that ties in the gaps and in the nearest value,
# and two tracked values with one nearest target, come up often
QUARTERS = st.integers(-3, 3).map(lambda k: k / 4)
LATTICE = st.builds(complex, QUARTERS, QUARTERS)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(LATTICE, min_size=1, max_size=7),
    st.lists(LATTICE, min_size=1, max_size=7),
    st.data(),
)
def test_match_step_agrees_with_the_loop(vals0, vals1, data):
    cur = data.draw(st.lists(st.sampled_from(vals0), max_size=4))
    if data.draw(st.booleans()):  # tracked values off the old spectrum too
        cur += data.draw(st.lists(LATTICE, max_size=2))
    vals0, vals1 = np.array(vals0), np.array(vals1)
    want = match_step_by_loop(vals0, cur, vals1)
    got = asymptotics._match_step(vals0, cur, vals1)
    assert got == want
    assert got is None or all(type(v) is complex for v in got)


def test_match_step_refuses_a_move_of_exactly_half_the_gap():
    # |0.25i - (0.75 + 0.75i)| is half of the gap |1 + 1.5i| exactly; the
    # scalar abs reads the move one ulp below the half gap np.abs gives
    vals0, cur, vals1 = np.array([0.75 + 0.75j, -0.25 - 0.75j]), [0.75 + 0.75j], np.array([0.25j])
    assert asymptotics._match_step(vals0, cur, vals1) is None
    assert match_step_by_loop(vals0, cur, vals1) is None


def test_match_step_refuses_two_values_on_one_target():
    vals0 = np.array([0.0, 0.1, 1.0], dtype=complex)
    assert asymptotics._match_step(vals0, [0.0, 0.1], np.array([0.05, 1.0])) is None
    assert asymptotics._match_step(vals0, [0.0, 1.0], np.array([0.01, 0.99])) == [0.01, 0.99]
    assert asymptotics._match_step(vals0, [], np.array([0.5])) == []


@pytest.mark.parametrize(
    "measure",
    [
        lambda family: tunneling_check(family, 0.0, 1j, (1,)),
    ],
    ids=["tunneling_check"],
)
def test_a_peak_at_eps_zero_sits_on_the_circle(measure):
    # the (0, 0) track is its start, which is on the circle
    family = matrix_schrodinger_family()
    with pytest.raises(ResonanceOnCircle):
        measure(family)


@pytest.mark.parametrize(
    "split, error, named",
    [
        ((), ValueError, "must be nonempty"),
        ((3,), ValueError, "channel 3 is not one of 1..2"),
        ((0, 1), ValueError, "channel 0 is not one of 1..2"),
        ((1, 2), ValueError, "leave at least one channel out"),
        ((1.5,), TypeError, "integer"),
        ((1.0,), TypeError, "integer"),
    ],
    ids=["empty", "past-the-tails", "zero", "every-channel", "fraction", "float"],
)
def test_a_bad_split_is_rejected(split, error, named):
    family = matrix_schrodinger_family()
    with pytest.raises(error, match=named):
        tunneling_check(family, 0.05, 1j, split)


def test_a_split_of_numpy_integers_is_a_split():
    family = matrix_schrodinger_family()
    got, want = (tunneling_check(family, 0.05, 1j, split) for split in [(np.int64(1),), (1,)])

    def fields(report):
        return (
            report.eps, report.channels, report.lambda_eps, report.z_star,
            report.symmetry_residual, report.t_at_peak, report.r_at_peak, report.overlap,
            report.line_shape.width_measured, report.width_predicted, report.peak.comfort,
            report.peak.comfort_bound,
        )

    assert fields(got) == fields(want)
    assert type(got.channels[0]) is int


def test_circle_resonance_has_no_tunneling_peak():
    fam = crossing_family(0.8)
    with pytest.raises(ResonanceOnCircle):
        tunneling_check(fam, 0.05, 1.0, (1,))


def test_fit_loglog_slope_recovers_power_law():
    grid = geometric_grid(1e-3, 1e-1, 7)
    slope, intercept = fit_loglog_slope(grid, 3.0 * grid**2)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-10)
    with pytest.raises(ValueError):
        fit_loglog_slope([1e-3], [1.0])
