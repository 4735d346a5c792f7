"""Tests for the one-dimensional barrier models and their graph embedding."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwscatter import line
from qwscatter.line import (
    BadBarrier,
    BarrierSpec,
    ZeroCorner,
    barrier_scattering,
    double_barrier,
    double_barrier_peaks,
    double_barrier_state_balance,
    graph_transmission,
    line_to_graph,
    near_reflective_coin,
    rotation_coin,
    transfer_matrix,
)
from qwscatter.walk import assemble
from qwscatter.coins import eval_coins
from qwscatter.scattering import oracle_direct_solve, scattering_matrix
from qwscatter.spectral import resonance_set

MATCH_TOL = 1e-12
PEAK_TOL = 1e-10

SYMMETRIC = BarrierSpec(
    (0, 1),
    (
        [[3 / 5, 4 / 5], [-4 / 5, 3 / 5]],
        [[3 / 5, 4 / 5], [-4 / 5, 3 / 5]],
    ),
)

TRIPLE = BarrierSpec(
    (0, 2, 3),
    tuple(rotation_coin(r) for r in (1 / 2, 2 / 5, 3 / 4)),
)


def _transfer_product(spec, z):
    """Independent route: chain single-site transfer matrices by hand."""
    pos, coins = spec.positions, spec.coins
    free = np.array([[z, 0.0], [0.0, 1.0 / z]], dtype=complex)
    total = transfer_matrix(coins[0], z)
    for prev, cur, coin in zip(pos, pos[1:], coins[1:]):
        total = (
            transfer_matrix(coin, z)
            @ np.linalg.matrix_power(free, cur - prev - 1)
            @ total
        )
    return total


def _random_spec(rng, n_barriers, max_gap=3):
    positions = [0]
    for _ in range(n_barriers - 1):
        positions.append(positions[-1] + int(rng.integers(1, max_gap + 1)))
    coins = tuple(
        rotation_coin(float(rng.uniform(-0.95, 0.95)) or 0.3)
        for _ in range(n_barriers)
    )
    return BarrierSpec(tuple(positions), coins)


def _random_unitary(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("z", [1j, -1j])
def test_symmetric_pair_transmits_perfectly(z):
    out = double_barrier(SYMMETRIC, z)
    assert abs(out.transmission - 1.0) <= PEAK_TOL
    assert out.reflection <= PEAK_TOL


def test_symmetric_pair_resonances_and_peaks():
    out = double_barrier(SYMMETRIC, cmath.exp(0.3j))
    values = sorted(out.resonances, key=lambda v: v.imag)
    assert len(values) == 2
    assert abs(values[0] - (-0.8j)) <= MATCH_TOL
    assert abs(values[1] - 0.8j) <= MATCH_TOL
    peaks = sorted(out.peaks, key=lambda v: v.imag)
    assert abs(peaks[0] - (-1j)) <= MATCH_TOL
    assert abs(peaks[1] - 1j) <= MATCH_TOL


def test_peaks_sit_radially_above_resonances():
    spec = BarrierSpec((0, 2), (rotation_coin(0.3), rotation_coin(0.8)))
    out = double_barrier(spec, 1j)
    for lam in out.resonances:
        direction = lam / abs(lam)
        assert min(abs(direction - p / abs(p)) for p in out.peaks) <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_double_barrier_matches_transfer_product(seed):
    rng = np.random.default_rng(7000 + seed)
    spec = _random_spec(rng, 2)
    for k in range(8):
        z = cmath.exp(2j * cmath.pi * (k + 0.37) / 8)
        out = double_barrier(spec, z)
        total = _transfer_product(spec, z)
        assert abs(out.transmission - 1.0 / abs(total[0, 0]) ** 2) <= MATCH_TOL
        assert (
            abs(out.reflection - abs(total[1, 0] / total[0, 0]) ** 2)
            <= MATCH_TOL
        )
        assert abs(out.transmission + out.reflection - 1.0) <= MATCH_TOL


@pytest.mark.parametrize("seed", range(4))
def test_double_barrier_amplitudes_match_product_entries(seed):
    rng = np.random.default_rng(7100 + seed)
    spec = _random_spec(rng, 2)
    z = cmath.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    out = double_barrier(spec, z)
    total = _transfer_product(spec, z)
    assert abs(total[0, 0] - out.a) <= 1e-12
    assert abs(total[1, 0] - out.b) <= 1e-12


def test_triple_barrier_reference_peak():
    out = barrier_scattering(TRIPLE, 1j)
    assert abs(out.transmission - 1.0) <= PEAK_TOL
    assert out.reflection <= PEAK_TOL


@pytest.mark.parametrize("seed", range(4))
def test_triple_barrier_matches_transfer_product(seed):
    rng = np.random.default_rng(7200 + seed)
    spec = _random_spec(rng, 3)
    for k in range(6):
        z = cmath.exp(2j * cmath.pi * (k + 0.21) / 6)
        out = barrier_scattering(spec, z)
        total = _transfer_product(spec, z)
        assert abs(out.transmission - 1.0 / abs(total[0, 0]) ** 2) <= MATCH_TOL
        assert (
            abs(out.reflection - abs(total[1, 0] / total[0, 0]) ** 2)
            <= MATCH_TOL
        )
        assert abs(total[0, 0] - out.a) <= 1e-12
        assert abs(total[1, 0] - out.b) <= 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_resonances_solve_characteristic_equation(seed):
    rng = np.random.default_rng(7300 + seed)
    spec = _random_spec(rng, 2)
    c0 = np.asarray(spec.coins[0])
    cx = np.asarray(spec.coins[1])
    x0 = spec.positions[1]
    out = double_barrier(spec, 1j)
    assert len(out.resonances) == 2 * x0
    target = c0[1, 0] * cx[0, 1]
    for lam in out.resonances:
        assert abs(lam ** (2 * x0) - target) <= 1e-10
        assert abs(lam) < 1.0


@pytest.mark.parametrize("seed", range(8))
def test_peak_angles_align_with_characteristic_phase(seed):
    rng = np.random.default_rng(7400 + seed)
    c0 = _random_unitary(rng)
    cx = _random_unitary(rng)
    det = cx[0, 0] * cx[1, 1] - cx[0, 1] * cx[1, 0]
    lhs = -c0[1, 0] * det / cx[1, 0]
    rhs = c0[1, 0] * cx[0, 1]
    assert abs(lhs / abs(lhs) - rhs / abs(rhs)) <= 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_state_balance_holds_at_resonances(seed):
    rng = np.random.default_rng(7500 + seed)
    spec = _random_spec(rng, 2)
    out = double_barrier(spec, 1j)
    for lam in out.resonances:
        amplitude, invariant = double_barrier_state_balance(spec, lam)
        assert abs(amplitude - invariant) <= 1e-10


def test_state_balance_symmetric_is_unity():
    out = double_barrier(SYMMETRIC, 1j)
    for lam in out.resonances:
        amplitude, invariant = double_barrier_state_balance(SYMMETRIC, lam)
        assert abs(invariant - 1.0) <= MATCH_TOL
        assert abs(amplitude - 1.0) <= MATCH_TOL


@pytest.mark.parametrize("spec", [SYMMETRIC, TRIPLE], ids=["pair", "triple"])
def test_graph_embedding_matches_closed_form(spec, monkeypatch):
    calls = []

    def spy(walk, z, *args, **kwargs):
        calls.append(np.shape(z))
        return scattering_matrix(walk, z, *args, **kwargs)

    monkeypatch.setattr(line, "scattering_matrix", spy)
    points = [cmath.exp(2j * cmath.pi * (k + 0.31) / 16) for k in range(16)]
    got = graph_transmission(spec, points)
    assert got.shape == (16,)
    assert calls == [(16,)]  # one call for the whole grid
    for z, t in zip(points, got):
        assert abs(t - barrier_scattering(spec, z).transmission) <= 1e-10


LONG_PAIR = BarrierSpec((0, 100), (rotation_coin(0.8), rotation_coin(0.6)))
SEVEN = np.arange(7)


@pytest.mark.parametrize(
    "points",
    [np.exp(2j * np.pi * SEVEN / 7), np.exp(2j * np.pi * (SEVEN + 0.5) / 7),
     np.exp(1j * np.linspace(0.1, 3.0, 7))],
    ids=["roots", "half-roots", "angles"],
)
def test_long_pair_resolvent_route_matches_the_transfer_product(points):
    # n0 = 200: the interior is one weighted cycle, decomposed in closed form
    got = graph_transmission(LONG_PAIR, points)
    assert np.abs(got - barrier_scattering(LONG_PAIR, points).transmission).max() <= 2e-13


def test_graph_embedding_produces_unitary_smatrix():
    graph, coins = line_to_graph(SYMMETRIC)
    walk = assemble(graph, eval_coins(coins, 0.0))
    z = cmath.exp(0.4j)
    report = scattering_matrix(walk, z)
    assert report.unitarity_residual is not None
    assert report.unitarity_residual <= 1e-10
    assert report.matrix.shape == (2, 2)


def test_near_reflective_pair_suppresses_transmission():
    spec = BarrierSpec(
        (0, 1),
        (near_reflective_coin(1.0, 0.1), near_reflective_coin(2.0, 0.1)),
    )
    worst = max(
        barrier_scattering(spec, cmath.exp(2j * cmath.pi * k / 512)).transmission
        for k in range(512)
    )
    assert worst <= 1e-6


def test_mismatched_pair_reflects():
    spec = BarrierSpec((0, 1), (rotation_coin(0.5), rotation_coin(0.7)))
    out = double_barrier(spec, cmath.exp(0.9j))
    assert out.reflection > 0.01


def test_rotation_coin_shape_and_domain():
    coin = rotation_coin(0.6)
    assert np.allclose(coin, [[0.8, 0.6], [-0.6, 0.8]])
    with pytest.raises(BadBarrier):
        rotation_coin(1.0)
    with pytest.raises(BadBarrier):
        rotation_coin(-1.5)


def test_near_reflective_coin_degenerates_to_mirror():
    coin = near_reflective_coin(2.0, 0.0)
    assert np.allclose(coin, [[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(BadBarrier):
        near_reflective_coin(0.0, 0.1)
    with pytest.raises(BadBarrier):
        near_reflective_coin(1.0, -0.1)


def test_spec_validation():
    coin = rotation_coin(0.5)
    with pytest.raises(BadBarrier):
        BarrierSpec((1, 2), (coin, coin))
    with pytest.raises(BadBarrier):
        BarrierSpec((0, 0), (coin, coin))
    with pytest.raises(BadBarrier):
        BarrierSpec((0, 1), (coin,))
    with pytest.raises(BadBarrier):
        BarrierSpec((), ())


def test_dispatch_rejects_unsupported_counts():
    with pytest.raises(BadBarrier):
        double_barrier(TRIPLE, 1j)
    with pytest.raises(BadBarrier):
        double_barrier_peaks(TRIPLE)
    with pytest.raises(BadBarrier):
        double_barrier_state_balance(TRIPLE, 0.5j)


def test_zero_corner_rejected():
    mirror = [[0.0, 1.0], [-1.0, 0.0]]
    with pytest.raises(ZeroCorner):
        transfer_matrix(mirror, 1j)
    with pytest.raises(ZeroCorner):
        transfer_matrix(rotation_coin(0.5), 0.0)
    with pytest.raises(ZeroCorner):
        double_barrier(BarrierSpec((0, 1), (mirror, mirror)), 1j)


def test_peaks_empty_when_condition_degenerates():
    # identity second coin: no reflection there, peak condition collapses
    spec = BarrierSpec((0, 1), (rotation_coin(0.5), np.eye(2)))
    assert double_barrier_peaks(spec) == ()


# ------------------------------------------------ any number of barriers

LONG_LINES = [(0, 5, 13), (0, 7, 15, 34), (0, 30, 60, 100, 150)]


def _rotation_line(positions):
    strengths = (0.8, 0.7, 0.6, 0.75, 0.65)
    return BarrierSpec(positions, tuple(rotation_coin(r) for r in strengths[: len(positions)]))


def _line_walk(spec):
    graph, coins = line_to_graph(spec)
    return assemble(graph, eval_coins(coins, 0.0))


def test_single_barrier_transmits_its_corner():
    coin = _random_unitary(np.random.default_rng(7600))
    points = np.exp(2j * np.pi * (np.arange(8) + 0.37) / 8)
    out = barrier_scattering(BarrierSpec((0,), (coin,)), points)
    assert np.abs(out.transmission - abs(coin[0, 0]) ** 2).max() <= 1e-14
    assert np.abs(out.reflection - abs(coin[1, 0]) ** 2).max() <= 1e-14


@pytest.mark.parametrize("positions", LONG_LINES, ids=["n3", "n4", "n5"])
def test_array_of_z_matches_scalar_calls(positions):
    spec = _rotation_line(positions)
    points = np.concatenate([np.exp(2j * np.pi * (np.arange(6) + 0.37) / 6), [0.6 + 0.2j, -1.1j]])
    stack = barrier_scattering(spec, points)
    assert transfer_matrix(spec.coins[0], points).shape == (len(points), 2, 2)
    with pytest.raises(ValueError):
        barrier_scattering(spec, points.reshape(2, -1))
    for k, z in enumerate(points):
        one = barrier_scattering(spec, z)
        assert np.ndim(one.a) == 0
        assert abs(one.a - stack.a[k]) <= 1e-15 * abs(one.a)
        assert abs(one.b - stack.b[k]) <= 1e-15 * abs(one.a)
        total = _transfer_product(spec, z)
        assert abs(total[0, 0] - one.a) <= 1e-12 * abs(total[0, 0])
        assert abs(total[1, 0] - one.b) <= 1e-12 * abs(total[0, 0])


@pytest.mark.parametrize("positions", LONG_LINES, ids=["n3", "n4", "n5"])
def test_line_resonances_zero_the_product_corner(positions):
    # certificate independent of the eigensolver: M_00 vanishes at each root
    spec = _rotation_line(positions)
    roots = [r for r in resonance_set(_line_walk(spec))[0] if r.value != 0]
    assert sum(r.multiplicity for r in roots) == 2 * positions[-1]
    for r in roots:
        total = _transfer_product(spec, r.value)
        assert abs(total[0, 0]) <= 1e-10 * np.linalg.norm(total, 2)


def test_five_barrier_line_matches_direct_solve():
    spec = _rotation_line(LONG_LINES[-1])
    walk = _line_walk(spec)
    sharpest = max((r.value for r in resonance_set(walk)[0]), key=abs)
    points = np.append(np.exp(2j * np.pi * np.arange(7) / 7), sharpest / abs(sharpest))
    sigma = oracle_direct_solve(walk, points, np.eye(2))[1]
    out = barrier_scattering(spec, points)
    t, r = out.transmission[:, None, None], out.reflection[:, None, None]
    err = np.abs(np.abs(sigma) ** 2 - np.where(np.eye(2, dtype=bool), r, t)).max(axis=(1, 2))
    assert err[:7].max() <= 1e-13
    # on the sharpest peak the direct solve's error grows like u/|z - lambda|
    assert err[7] <= 1e-12


@pytest.mark.parametrize("positions", LONG_LINES + [(0, 30, 61)], ids=["n3", "n4", "n5", "coprime"])
def test_long_lines_take_one_eig_of_their_level_product(monkeypatch, positions):
    # every step moves one site, so the arc digraph's period is twice the gaps' gcd
    walk = _line_walk(_rotation_line(positions))
    period = 2 * math.gcd(*np.diff(positions).tolist())
    shapes, eig = [], np.linalg.eig

    def spy(a):
        shapes.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", spy)
    resonance_set(walk)
    assert shapes == [(walk.n_interior // period,) * 2]


@pytest.mark.parametrize("points", [np.exp(2j * np.pi * SEVEN / 7), np.exp(2j * np.pi * (SEVEN + 0.5) / 7),
                                    np.exp(1j * np.linspace(0.1, 3.0, 7))],
                         ids=["roots", "half-roots", "angles"])
def test_five_barrier_resolvent_route_matches_the_transfer_product(points):
    # n0 = 300, period 20: eig runs on the 15 x 15 level product
    spec = _rotation_line(LONG_LINES[-1])
    sigma = scattering_matrix(_line_walk(spec), points, route="resolvent").matrix
    out = barrier_scattering(spec, points)
    t, r = out.transmission[:, None, None], out.reflection[:, None, None]
    assert np.abs(np.abs(sigma) ** 2 - np.where(np.eye(2, dtype=bool), r, t)).max() <= 2e-13


@pytest.mark.parametrize("radius", [0.5, 2.0])
def test_long_line_stays_finite_off_the_circle(radius):
    # any overflow warning fails here: the suite turns warnings into errors
    spec = _rotation_line((0, 60, 120, 200, 300))
    points = radius * np.exp(2j * np.pi * (np.arange(7) + 0.37) / 7)
    out = barrier_scattering(spec, points)
    assert np.all(np.isfinite(out.a)) and np.all(out.transmission > 0)
    assert np.all(np.isfinite(out.reflection))
    for k, z in enumerate(points):
        total = _transfer_product(spec, z)
        assert abs(total[0, 0] - out.a[k]) <= 1e-12 * abs(total[0, 0])


@settings(max_examples=40, deadline=None)
@given(
    r0=st.floats(min_value=-0.9, max_value=0.9),
    r1=st.floats(min_value=-0.9, max_value=0.9),
    gap=st.integers(min_value=1, max_value=4),
    angle=st.floats(min_value=0.0, max_value=6.28),
)
def test_transmission_plus_reflection_is_unity(r0, r1, gap, angle):
    if abs(r0) >= 0.999 or abs(r1) >= 0.999:
        return
    spec = BarrierSpec((0, gap), (rotation_coin(r0), rotation_coin(r1)))
    z = cmath.exp(1j * angle)
    out = double_barrier(spec, z)
    assert abs(out.transmission + out.reflection - 1.0) <= 1e-10


def test_spec_holds_its_coins_to_the_unitarity_rule():
    # the rule eval_coins applies: a coin with a NaN entry has a NaN residual,
    # which fails it, and a finite coin is named with its max-entry |C*C - I|
    coin = rotation_coin(0.5)
    with pytest.raises(BadBarrier, match=r"^barrier coin not unitary \(residual nan\)$"):
        BarrierSpec((0, 3), (np.array([[np.nan, 0], [0, 1]]), coin))
    with pytest.raises(BadBarrier, match=r"^barrier coin not unitary \(residual 3\.000e\+00\)$"):
        BarrierSpec((0, 3), (coin, 2 * coin))
    BarrierSpec((0, 3), (coin, coin * (1 + 4e-11)))
