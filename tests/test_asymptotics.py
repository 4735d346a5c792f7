"""Tests for resonance tracking and the small-eps sweep tables."""

import cmath

import numpy as np
import pytest

import qwscatter.asymptotics as asymptotics
from qwscatter.asymptotics import (
    FIRST_ORDER_BAND,
    SECOND_ORDER_BAND,
    THETA_TOL,
    THETA_WINDOW,
    NoCrossing,
    ResonanceOnCircle,
    SimplicityViolated,
    comfort_table,
    comfortability_bound,
    comfortability_growth,
    default_eps_grid,
    discrepancy_norm,
    discrepancy_table,
    fit_loglog_slope,
    geometric_grid,
    nonresonant_point,
    peak_width,
    remainder_table,
    resonant_block_norm,
    track_resonances,
    tunneling_check,
    tunneling_table,
    width_table,
)
from qwscatter.graph import build_graph
from qwscatter.models import (
    crossing_family,
    cycle_family,
    matrix_schrodinger_family,
)
from qwscatter.scattering import pole_block, scattering_matrix, transmission_reflection
from qwscatter.spectral import boundary_data, eigen_decompose
from qwscatter.walk import assemble

TRACK_TOL = 1e-10
WIDTH_SLACK = 0.2


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


def test_default_eps_grid_shape():
    grid = default_eps_grid()
    assert grid[0] == 0.0
    assert np.all(np.diff(grid) > 0)
    assert grid[-1] == pytest.approx(0.1)
    no_zero = default_eps_grid(include_zero=False)
    assert no_zero[0] > 0


def test_tracking_follows_hidden_resonance():
    grid = [0.0, 0.02, 0.05, 0.1, 0.2]
    track = track_resonances(matrix_schrodinger_family(), eps_grid=grid)
    assert len(track.starts) == 4
    path = track.path(1j)
    for eps, value in zip(grid, path):
        assert abs(value - 1j * np.sqrt(1 - 2 * eps * eps)) <= TRACK_TOL
    assert abs(track.at(0.1, 1j) - 1j * np.sqrt(0.98)) <= TRACK_TOL
    assert np.all(track.continuity[1:, track.column(1j)] > 0)


def test_tracking_keeps_fixed_resonances_fixed():
    track = track_resonances(
        matrix_schrodinger_family(), eps_grid=[0.0, 0.1, 0.3]
    )
    for start in (1.0, -1.0):
        path = track.path(start)
        assert np.max(np.abs(path - start)) <= TRACK_TOL


def test_tracking_grid_validation():
    fam = matrix_schrodinger_family()
    with pytest.raises(ValueError):
        track_resonances(fam, eps_grid=[0.1, 0.2])
    with pytest.raises(ValueError):
        track_resonances(fam, eps_grid=[])
    with pytest.raises(ValueError):
        track_resonances(fam, eps_grid=[0.0, 0.2, 0.1])
    track = track_resonances(fam, eps_grid=[0.0, 0.05])
    with pytest.raises(ValueError):
        track.at(0.03, 1j)


def test_tracking_rejects_degenerate_start():
    with pytest.raises(SimplicityViolated):
        track_resonances(_degenerate_family(), eps_grid=[0.0, 0.1])


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
    assert report.out_channel_overlap >= 1.0 - 1e-6
    assert report.peak_width_measured is not None
    ratio = report.peak_width_measured / report.peak_width_predicted
    assert abs(ratio - 1.0) <= WIDTH_SLACK
    assert report.comfortability_value >= report.comfortability_bound


def test_peak_width_matches_gap_prediction():
    fam = cycle_family(4, [1.0] * 4)
    theta_minus, theta_plus = peak_width(fam, 0.05, 1.0, (1, 2))
    assert theta_minus < 0 < theta_plus
    measured = theta_plus - theta_minus
    lam_eps = np.sqrt(1 - 0.05**2)  # |lambda_eps|^4 = (1 - eps^2)^2
    predicted = 2.0 * (1.0 - lam_eps)
    assert abs(measured / predicted - 1.0) <= 0.05


def test_peak_width_needs_balanced_split():
    fam = cycle_family(4, [1.0] * 4)
    with pytest.raises(ValueError):
        peak_width(fam, 0.05, 1.0, (1,))


def half_height_by_scalar_search(family, eps, lam, split):
    # the scalar doubling and bisection the stacked search replaced, one
    # Σ per probe, kept as its reference
    walk = family(eps)
    system = eigen_decompose(walk)
    cluster = system.nearest_cluster(track_resonances(family, [0.0, eps]).at(eps, lam))
    in_co = boundary_data(walk, cluster).in_data_co
    mask = np.isin(np.arange(1, walk.n_tails + 1), split)
    restricted = np.where(mask, in_co / np.linalg.norm(in_co), 0.0)
    amp_in = restricted / np.linalg.norm(restricted)
    base = cmath.phase(cluster.value / abs(cluster.value))

    def t_at(theta):
        sigma = scattering_matrix(walk, cmath.exp(1j * (base + theta)), system=system).matrix
        return transmission_reflection(sigma, set(split), amp_in)[0]

    def crossing(sign):
        low = 0.0
        step = max((1.0 - abs(cluster.value)) / 16.0, 1e-12)
        while step <= THETA_WINDOW:
            if t_at(sign * step) < 0.5:
                high = step
                break
            low = step
            step *= 2.0
        else:
            raise NoCrossing("no crossing")
        while high - low > THETA_TOL:
            mid = 0.5 * (low + high)
            if t_at(sign * mid) < 0.5:
                high = mid
            else:
                low = mid
        return sign * 0.5 * (low + high)

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
    family, lam, split = PEAKS[model]
    try:
        expected = half_height_by_scalar_search(family, eps, lam, split)
    except NoCrossing:
        with pytest.raises(NoCrossing):
            peak_width(family, eps, lam, split)
        return
    assert peak_width(family, eps, lam, split) == expected


def test_two_loop_peak_is_asymmetric():
    family, lam, split = PEAKS["two_loop"]
    theta_minus, theta_plus = peak_width(family, 0.3, lam, split)
    assert abs(theta_plus + theta_minus) > 1e-3


@pytest.mark.parametrize(
    "family, eps, lam, split",
    [(cycle_family(4, [1.0] * 4), 0.8, 1.0, (1, 2)), (matrix_schrodinger_family(), 0.6, 1j, (1,))],
    ids=["cycle4", "ms"],
)
def test_a_peak_wider_than_the_window_has_no_crossing(family, eps, lam, split):
    with pytest.raises(NoCrossing):
        peak_width(family, eps, lam, split)
    report = tunneling_check(family, eps, lam, split)
    assert report.t_at_peak >= 0.9
    assert report.peak_width_measured is None


@pytest.mark.parametrize("model", sorted(PEAKS))
def test_peak_width_makes_few_sigma_calls(monkeypatch, model):
    family, lam, split = PEAKS[model]
    lambda_eps = track_resonances(family, [0.0, 0.01]).at(0.01, lam)
    calls = []
    solve = asymptotics.scattering_matrix

    def spy(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "scattering_matrix", spy)
    peak_width(family, 0.01, lam, split, lambda_eps=lambda_eps)
    assert len(calls) <= 32


def test_comfortability_growth_and_bound():
    fam = cycle_family(4, [1.0] * 4)
    energy, bound = comfortability_growth(fam, 0.05, 1.0)
    assert energy >= bound
    assert energy >= 1.0 / 0.05
    track = track_resonances(fam, eps_grid=[0.0, 0.05])
    lam_eps = track.at(0.05, 1.0)
    assert abs(bound - comfortability_bound(lam_eps)) <= 1e-9


def test_resonant_block_norm_floor():
    fam = cycle_family(4, [1.0] * 4)
    norm, floor = resonant_block_norm(fam, 0.05, 1.0)
    assert norm >= floor - 1e-8
    assert floor >= 1.99
    track = track_resonances(fam, eps_grid=[0.0, 0.05])
    assert abs(floor - (1.0 + abs(track.at(0.05, 1.0)))) <= 1e-9


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


def test_discrepancy_norm_single_point():
    value = discrepancy_norm(crossing_family(0.8), 1j, 0.01)
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
    path = track_resonances(family, np.concatenate([[0.0], grid])).path(lam)[1:]
    z_star = {
        float(eps): tunneling_check(family, eps, lam, split, lambda_eps=lam_eps).z_star
        for eps, lam_eps in zip(grid, path)
    }
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


def test_circle_resonance_has_no_tunneling_peak():
    fam = crossing_family(0.8)
    with pytest.raises(ResonanceOnCircle):
        tunneling_check(fam, 0.05, 1.0, (1,))
    with pytest.raises(ResonanceOnCircle):
        peak_width(fam, 0.05, 1.0, (1,))


def test_fit_loglog_slope_recovers_power_law():
    grid = geometric_grid(1e-3, 1e-1, 7)
    slope, intercept = fit_loglog_slope(grid, 3.0 * grid**2)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-10)
    with pytest.raises(ValueError):
        fit_loglog_slope([1e-3], [1.0])
