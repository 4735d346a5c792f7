"""Tests for generalized eigenfunctions and the scattering matrix routes."""

import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwscatter.scattering as scattering
from qwscatter.asymptotics import TunnelingReport, _peak_at, tunneling_check
from qwscatter.coins import eval_coins
from qwscatter.graph import build_graph
from qwscatter.line import BarrierSpec, barrier_scattering, line_to_graph, rotation_coin
from qwscatter.models import (
    closed_form_sigma_cycle,
    closed_form_sigma_ms,
    crossing_family,
    cycle_family,
    matrix_schrodinger_family,
    random_walk,
)
from qwscatter.scattering import (
    AtInteriorResonance,
    BadSupport,
    NotNormalized,
    OrthogonalityViolated,
    PoleHit,
    SingularSystem,
    comfortability,
    generalized_eigenfunction,
    oracle_direct_solve,
    pole_block,
    resolvent_kernel,
    scattering_matrix,
    transmission_reflection,
    zero_pole_block,
)
from qwscatter.spectral import (
    EigenSystem,
    ZeroCluster,
    boundary_data,
    eigen_decompose,
    resonance_set,
)
from qwscatter.walk import assemble

ROUTE_TOL = 1e-10
UNITARITY_TOL = 1e-10


def ms_walk(eps=0.3):
    return matrix_schrodinger_family().walk(eps)


def test_solution_satisfies_the_walk_equation():
    w = ms_walk(0.4)
    z = np.exp(0.9j)
    amp = np.array([0.6, 0.8j])
    sol = generalized_eigenfunction(w, z, amp)
    interior_residual = (
        w.interior @ sol.interior + w.tail_to_interior @ amp - z * sol.interior
    )
    assert np.abs(interior_residual).max() <= 1e-12
    out = w.interior_to_tail @ sol.interior + w.tail_to_tail @ amp
    assert np.abs(out - sol.amp_out).max() <= 1e-12


def test_scattering_matrix_columns_are_unit_responses():
    w = ms_walk(0.4)
    z = np.exp(0.9j)
    sigma = scattering_matrix(w, z).matrix
    for n in range(2):
        amp = np.zeros(2, dtype=complex)
        amp[n] = 1.0
        sol = generalized_eigenfunction(w, z, amp)
        assert np.abs(sigma[:, n] - sol.amp_out).max() <= 1e-12


@pytest.mark.parametrize("route", ["resolvent", "expansion"])
def test_routes_match_the_direct_solve_oracle(route):
    w = ms_walk(0.35)
    for z in (np.exp(0.31j), np.exp(2.2j), 0.7 * np.exp(1.1j)):
        sigma = scattering_matrix(w, z, route=route).matrix
        oracle = np.zeros_like(sigma)
        for n in range(2):
            amp = np.zeros(2, dtype=complex)
            amp[n] = 1.0
            _, oracle[:, n] = oracle_direct_solve(w, z, amp)
        assert np.abs(sigma - oracle).max() <= ROUTE_TOL


TINY_EPS = (1e-4, 1e-6, 1e-8)
CLOSED_FORM_TOL = 1e-14


@pytest.mark.parametrize("eps", TINY_EPS)
@pytest.mark.parametrize("route", ["resolvent", "expansion"])
def test_ms_matches_closed_form_at_tiny_eps(route, eps):
    # the hidden pair sits within 1e-8 of the circle here but still
    # couples to the tails, so it is a resonance, not a bound state
    z = (0.7 + 0.1j) / abs(0.7 + 0.1j)
    sigma = scattering_matrix(ms_walk(eps), z, route=route).matrix
    assert np.abs(sigma - closed_form_sigma_ms(eps, z)).max() <= CLOSED_FORM_TOL


@pytest.mark.parametrize("eps", TINY_EPS)
@pytest.mark.parametrize("route", ["resolvent", "expansion"])
@pytest.mark.parametrize(
    "n, strengths", [(4, [1.0] * 4), (3, [0.9, 0.4, 0.7])], ids=["cycle4", "cycle3"]
)
def test_cycle_matches_closed_form_at_tiny_eps(n, strengths, route, eps):
    z = np.exp(1j * np.pi / n)
    walk = cycle_family(n, strengths).walk(eps)
    sigma = scattering_matrix(walk, z, route=route).matrix
    want = closed_form_sigma_cycle(n, strengths, eps, z)
    assert np.abs(sigma - want).max() <= CLOSED_FORM_TOL


def test_direct_solve_takes_all_columns_at_once():
    w = ms_walk(0.35)
    z = np.exp(2.2j)
    u, sigma = oracle_direct_solve(w, z, np.eye(2))
    assert u.shape == (w.n_interior, 2) and sigma.shape == (2, 2)
    for n in range(2):
        u_n, out_n = oracle_direct_solve(w, z, np.eye(2)[n])
        assert out_n.shape == (2,)
        assert np.abs(sigma[:, n] - out_n).max() <= 1e-14
        assert np.abs(u[:, n] - u_n).max() <= 1e-14


def test_resolvent_and_expansion_agree_on_random_models():
    rng = np.random.default_rng(42)
    for seed in range(10):
        w = random_walk(np.random.default_rng(seed))
        z = np.exp(2j * np.pi * rng.random())
        a = scattering_matrix(w, z, route="resolvent").matrix
        b = scattering_matrix(w, z, route="expansion").matrix
        assert np.abs(a - b).max() <= ROUTE_TOL


def test_expansion_is_zero_block_plus_pole_blocks():
    w = ms_walk(0.25)
    system = eigen_decompose(w)
    z = np.exp(1.3j)
    total = zero_pole_block(w, system, z)
    for cluster in system.clusters:
        if abs(cluster.value) <= 1e-9:
            continue
        total = total + pole_block(w, cluster, z)
    sigma = scattering_matrix(w, z, route="resolvent").matrix
    assert np.abs(total - sigma).max() <= ROUTE_TOL


def test_unitary_on_the_circle():
    w = ms_walk(0.55)
    for theta in np.linspace(0.1, 6.2, 14):
        rep = scattering_matrix(w, np.exp(1j * theta))
        sigma = rep.matrix
        assert np.abs(sigma.conj().T @ sigma - np.eye(2)).max() <= UNITARITY_TOL
        assert rep.unitarity_residual <= UNITARITY_TOL


def test_no_unitarity_residual_off_the_circle():
    rep = scattering_matrix(ms_walk(0.3), 0.8 * np.exp(0.3j))
    assert rep.unitarity_residual is None


def test_circle_eigenvalue_handled_by_reduced_resolvent():
    # z = 1 is an interior eigenvalue of this model, yet the scattering
    # matrix there is plain identity
    w = ms_walk(0.3)
    sigma = scattering_matrix(w, 1.0).matrix
    assert np.abs(sigma - np.eye(2)).max() <= 1e-10


def test_resonance_pole_rejected():
    w = ms_walk(0.3)
    lam = 0.9055385138137417j
    with pytest.raises(AtInteriorResonance):
        scattering_matrix(w, lam)
    with pytest.raises(SingularSystem):
        oracle_direct_solve(w, lam, np.array([1.0, 0.0]))


def test_small_z_guard():
    with pytest.raises(PoleHit):
        scattering_matrix(ms_walk(0.3), 1e-8)


def test_transmission_reflection_bookkeeping():
    w = ms_walk(0.5)
    sigma = scattering_matrix(w, 1j).matrix
    t, r = transmission_reflection(sigma, {1}, np.array([1.0, 0.0]))
    assert abs(t + r - 1) <= 1e-12
    assert t >= 1 - 1e-10  # resonant tunneling point of this model
    t2, r2 = transmission_reflection(sigma, {2}, np.array([0.0, 1.0]))
    assert abs(t2 + r2 - 1) <= 1e-12


def test_transmission_guards():
    sigma = scattering_matrix(ms_walk(0.3), np.exp(0.3j)).matrix
    with pytest.raises(BadSupport):
        transmission_reflection(sigma, {1}, np.array([0.0, 1.0]))
    with pytest.raises(NotNormalized):
        transmission_reflection(sigma, {1}, np.array([0.5, 0.0]))
    # the full channel group reflects everything by definition
    t, r = transmission_reflection(sigma, {1, 2}, np.array([0.6, 0.8]))
    assert t == 0.0
    assert abs(r - 1) <= 1e-12


def test_a_nan_amplitude_is_not_normalized():
    sigma = scattering_matrix(ms_walk(0.3), np.exp(0.3j)).matrix
    with pytest.raises(NotNormalized, match="nan"):
        transmission_reflection(sigma, {1}, np.array([np.nan, 0.0]))


def nonzero_off_circle(walk):
    return [c for c in eigen_decompose(walk).off_circle() if not c.is_zero]


# one callable per entry point that takes z
Z_ENTRY_POINTS = {
    "smatrix-resolvent": lambda z: scattering_matrix(ms_walk(), z),
    "smatrix-expansion": lambda z: scattering_matrix(ms_walk(), z, "expansion"),
    "generalized-eigenfunction": lambda z: generalized_eigenfunction(ms_walk(), z, np.array([1.0, 0.0])),
    "pole-block": lambda z: pole_block(ms_walk(), nonzero_off_circle(ms_walk()), z),
    "line-shape": lambda z: tunneling_check(matrix_schrodinger_family(), 0.1, 1j, (1,)).line_shape(z),
    "oracle": lambda z: oracle_direct_solve(ms_walk(), z, np.eye(2)),
    "barrier": lambda z: barrier_scattering(BarrierSpec((0, 3), (rotation_coin(0.8), rotation_coin(0.6))), z),
}


@pytest.mark.parametrize(
    "z, named",
    [(complex(np.nan, 0.0), "nan+0j"), (complex(np.inf, 0.0), "inf+0j"), (complex(0.0, -np.inf), "0-infj"),
     (np.array([1j, complex(np.nan, 1.0), np.inf]), "nan+1j")],
    ids=["nan", "inf", "minus-inf-imag", "first-bad-in-array"],
)
@pytest.mark.parametrize("entry", sorted(Z_ENTRY_POINTS))
def test_a_non_finite_z_is_refused_at_every_entry_point(entry, z, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(ValueError, match=re.escape(f"z = {named} is not a finite point")):
            Z_ENTRY_POINTS[entry](z)


def test_the_direct_solve_refuses_a_2d_z():
    with pytest.raises(ValueError, match=re.escape("got shape (2, 1)")):
        oracle_direct_solve(ms_walk(), np.array([[1j], [-1j]]), np.eye(2))


def test_comfortability_is_interior_mass():
    w = ms_walk(0.35)
    z = np.exp(0.7j)
    amp = np.array([1.0, 0.0])
    sol = generalized_eigenfunction(w, z, amp)
    assert abs(comfortability(w, z, amp) - np.linalg.norm(sol.interior) ** 2) <= 1e-12


def test_comfortability_diverges_towards_a_resonance_direction():
    fam = cycle_family(4, [1.0] * 4)
    w = fam.walk(0.05)
    resonances, _ = resonance_set(w)
    lam = min(
        (r.value for r in resonances if not r.on_unit_circle and abs(r.value) > 0.5),
        key=lambda v: abs(v - 1),
    )
    z_star = lam / abs(lam)
    amp = np.ones(4, dtype=complex) / 2  # matches the co-state of this resonance
    near = comfortability(w, z_star, amp)
    far = comfortability(w, z_star * np.exp(1j * np.pi / 4), amp)
    assert near > 50 * far


def test_crossing_model_scatters_without_entering():
    # the interior of this model is decoupled: the walk maps tails to
    # tails in one step, so the interior response vanishes identically
    w = crossing_family(1.0).walk(0.4)
    sol = generalized_eigenfunction(w, np.exp(0.2j), np.array([1.0, 0.0]))
    assert np.abs(sol.interior).max() <= 1e-14
    sigma = scattering_matrix(w, np.exp(0.2j)).matrix
    s = np.sqrt(1 - 0.4**2)
    assert np.abs(sigma - np.array([[s, 0.4], [-0.4, s]])).max() <= 1e-12


@given(
    st.floats(min_value=0.05, max_value=0.65),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
@settings(max_examples=40, deadline=None)
def test_unitarity_property(eps, theta):
    w = ms_walk(eps)
    try:
        rep = scattering_matrix(w, np.exp(1j * theta))
    except AtInteriorResonance:
        return
    assert rep.unitarity_residual <= 1e-8
    t, r = transmission_reflection(rep.matrix, {1}, np.array([1.0, 0.0]))
    assert abs(t + r - 1) <= 1e-8


JORDAN_ZS = (np.exp(0.4j), 0.6 + 0.2j, -1.1j)


def coupled_to_two_tails(interior):
    rng = np.random.default_rng(17)
    n = interior.shape[0]
    return SimpleNamespace(
        interior=interior,
        tail_to_interior=rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)),
        interior_to_tail=rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n)),
        tail_to_tail=rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
        n_interior=n,
        n_tails=2,
        eps=None,
    )


def jordan_standin(lam):
    # a triangular interior with a 2x2 Jordan block at lam and a simple 0.9,
    # coupled to two tails at random
    return coupled_to_two_tails(
        np.array([[lam, 1.0, 0.3], [0.0, lam, 0.2], [0.0, 0.0, 0.9]])
    )


JORDAN3 = np.array(
    [
        [0.5, 1.0, 0.0, 0.3],
        [0.0, 0.5, 1.0, 0.2],
        [0.0, 0.0, 0.5, 0.1],
        [0.0, 0.0, 0.0, 0.9],
    ]
)

# two chains at 0.5, of lengths 2 and 1, and a simple 0.9
TWO_CHAINS = np.array(
    [
        [0.5, 1.0, 0.0, 0.3],
        [0.0, 0.5, 0.0, 0.2],
        [0.0, 0.0, 0.5, 0.1],
        [0.0, 0.0, 0.0, 0.9],
    ]
)


# chains of length 2 at -0.4i, 2 at 0, 3 at 0.5 and a simple 0.9: stacked,
# the links meet cluster boundaries and the zero cluster sits inside
MIXED = np.diag([0, 0, 0.5, 0.5, 0.5, 0.9, -0.4j, -0.4j]) + np.diag(
    [1, 0, 1, 1, 0, 0, 1], 1
)
MIXED_LENGTHS = [[2], [2], [3], [1]]


def test_resolvent_steps_through_a_nonzero_jordan_chain():
    # the resolvent route must back-substitute along every chain, top down;
    # chain lengths per off-circle cluster
    cases = [
        (jordan_standin(0.5), [[2], [1]]),
        (coupled_to_two_tails(JORDAN3), [[3], [1]]),
        (coupled_to_two_tails(TWO_CHAINS), [[2, 1], [1]]),
        (coupled_to_two_tails(MIXED), MIXED_LENGTHS),
    ]
    for walk, lengths in cases:
        system = eigen_decompose(walk)
        chains = [[c.shape[0] for c in cl.chains] for cl in system.off_circle()]
        assert chains == lengths
        for z in JORDAN_ZS:
            for amp_in in np.eye(2):
                sol = generalized_eigenfunction(walk, z, amp_in, system)
                u, amp_out = oracle_direct_solve(walk, z, amp_in)
                assert np.abs(sol.interior - u).max() <= ROUTE_TOL
                assert np.abs(sol.amp_out - amp_out).max() <= ROUTE_TOL


@pytest.mark.parametrize(
    "walk, lengths",
    [
        (jordan_standin(0.5), [[2], [1]]),
        (jordan_standin(0.0), [[2], [1]]),
        (coupled_to_two_tails(JORDAN3), [[3], [1]]),
        (coupled_to_two_tails(TWO_CHAINS), [[2, 1], [1]]),
        (coupled_to_two_tails(MIXED), MIXED_LENGTHS),
    ],
    ids=["pole_block", "zero_pole_block", "pole_block_length3", "two_chains", "mixed"],
)
def test_expansion_steps_through_jordan_chains(walk, lengths):
    # every pole order of every Jordan chain; the third co-state term of the
    # pairing only reaches a chain of length 3; chain lengths per off-circle
    # cluster
    system = eigen_decompose(walk)
    assert [[c.shape[0] for c in cl.chains] for cl in system.off_circle()] == lengths
    for z in JORDAN_ZS:
        sigma = scattering_matrix(walk, z, "expansion", system).matrix
        _, oracle = oracle_direct_solve(walk, z, np.eye(2))
        assert np.abs(sigma - oracle).max() <= ROUTE_TOL


@pytest.mark.parametrize(
    "walk", [ms_walk(0.35), coupled_to_two_tails(MIXED)], ids=["ms", "mixed"]
)
def test_the_routes_do_not_share_a_pole_sum(walk, monkeypatch):
    # each analytic route must stand without the other's pole sum
    system = eigen_decompose(walk)
    points = np.array(JORDAN_ZS)
    _, oracle = oracle_direct_solve(walk, points, np.eye(2))

    def fail(*args):
        raise AssertionError("one route ran the other's pole sum")

    for route, other in [("expansion", "_pole_sum"), ("resolvent", "_pole_blocks")]:
        with monkeypatch.context() as patch:
            patch.setattr(scattering, other, fail)
            sigma = scattering_matrix(walk, points, route, system).matrix
        assert np.abs(sigma - oracle).max() <= ROUTE_TOL, route


class Uncoupled:
    """``walk`` whose interior/tail coupling blocks raise when read."""

    def __init__(self, walk):
        self._walk = walk

    def __getattr__(self, name):
        if name in ("interior_to_tail", "tail_to_interior"):
            raise AssertionError(f"walk.{name} read after the decomposition")
        return getattr(self._walk, name)


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except ValueError as exc:  # every numerical error of the package is one
        return type(exc), str(exc)


def same_bits(a, b):
    """Whether ``a`` and ``b`` (arrays, or nests of tuples and dicts of them) hold the same bits."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and same_bits(tuple(a.values()), tuple(b.values()))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_bits, a, b))
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize(
    "walk, lam_eps",
    [(ms_walk(0.01), 1j), (coupled_to_two_tails(MIXED), 0.9)],
    ids=["ms", "mixed"],
)
def test_the_coupling_is_read_from_the_decomposition(walk, lam_eps):
    # once eigen_decompose has formed T_it V and W* T_ti, no reader multiplies
    # the walk's coupling blocks into the chains again: the same bits without them
    system = eigen_decompose(walk)
    proxy = Uncoupled(walk)
    points = np.array(JORDAN_ZS)
    nonzero = [c for c in system.clusters if not c.is_zero]
    simple = [c for c in nonzero if c.is_simple]
    assert simple and system.zero_cluster() is not None
    calls = [
        lambda w: scattering_matrix(w, points, "resolvent", system).matrix,
        lambda w: scattering_matrix(w, points, "expansion", system).matrix,
        lambda w: vars(resolvent_kernel(w, np.eye(2), system)(points)),
        lambda w: pole_block(w, nonzero, points),
        lambda w: zero_pole_block(w, system, points),
        lambda w: tuple(vars(boundary_data(w, c)) for c in simple),
    ]
    for call in calls:
        assert same_bits(call(proxy), call(walk))
    reports = [TunnelingReport(_peak_at(w, system, lam_eps), (1,), 0.01) for w in (proxy, walk)]
    shapes = [report.line_shape for report in reports]
    for name in ("values", "residues", "direct"):
        assert np.array_equal(getattr(shapes[0], name), getattr(shapes[1], name))
    assert same_bits(outcome(lambda: shapes[0].window), outcome(lambda: shapes[1].window))


def test_a_bare_junction_scatters_through_its_coin():
    # no interior arc: both routes and the oracle give the coin itself
    coin = np.array([[0.0, 1.0], [1.0, 0.0]])
    walk = assemble(build_graph(["v"], [], [(1, "v", "v"), (2, "v", "v")]), {"v": coin})
    assert walk.n_interior == 0
    system = eigen_decompose(walk)
    assert system.emission.shape == (2, 0) and system.pickup.shape == (0, 2)
    for z in (np.exp(0.3j), np.exp(1j * np.array([0.1, 2.0, -1.2]))):
        for route in ("resolvent", "expansion"):
            sigma = scattering_matrix(walk, z, route).matrix
            assert np.array_equal(sigma, np.broadcast_to(coin, sigma.shape))
        _, direct = oracle_direct_solve(walk, z, np.eye(2))
        assert np.array_equal(direct, np.broadcast_to(coin, direct.shape))
    assert resonance_set(walk)[0] == []


def test_pole_block_sums_a_sequence_of_clusters():
    # one stack over the named clusters: a cluster named twice is added
    # twice, on-circle clusters add nothing and the zero cluster is refused
    walk = coupled_to_two_tails(MIXED)
    system = eigen_decompose(walk)
    z = np.array(JORDAN_ZS)
    nonzero = [c for c in system.clusters if not c.is_zero]
    blocks = [pole_block(walk, c, z) for c in nonzero]
    summed = pole_block(walk, nonzero + nonzero[:1], z)
    assert np.abs(summed - sum(blocks) - blocks[0]).max() <= 1e-13
    with pytest.raises(ZeroCluster):
        pole_block(walk, system.clusters, z)
    ms = ms_walk(0.35)
    system = eigen_decompose(ms)
    assert system.on_circle()
    assert not np.any(pole_block(ms, system.on_circle(), z))
    nonzero = [c for c in system.clusters if not c.is_zero]
    off_circle = [c for c in nonzero if not c.on_unit_circle]
    assert np.array_equal(pole_block(ms, nonzero, z), pole_block(ms, off_circle, z))


@pytest.mark.parametrize(
    "walk", [ms_walk(0.35), jordan_standin(0.5)], ids=["ms", "jordan"]
)
def test_generalized_eigenfunction_takes_all_columns_at_once(walk):
    rng = np.random.default_rng(5)
    amp_in = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    system = eigen_decompose(walk)
    for z in (np.exp(2.2j), 0.6 + 0.2j):
        sol = generalized_eigenfunction(walk, z, amp_in, system)
        assert sol.interior.shape == (walk.n_interior, 3)
        assert sol.amp_out.shape == (2, 3)
        for n in range(3):
            # the matrix and the vector products round differently, so
            # compare to 1e-14 relative to the column's size
            one = generalized_eigenfunction(walk, z, amp_in[:, n], system)
            scale = max(1.0, np.abs(one.amp_out).max(), np.abs(one.interior).max())
            assert np.abs(sol.interior[:, n] - one.interior).max() <= 1e-14 * scale
            assert np.abs(sol.amp_out[:, n] - one.amp_out).max() <= 1e-14 * scale


def bound_state_walk():
    # tail n drives interior state n; state 0 is declared a bound state
    walk = SimpleNamespace(
        interior=np.diag([1.0, 0.5]).astype(complex),
        tail_to_interior=np.eye(2),
        interior_to_tail=np.eye(2),
        tail_to_tail=np.zeros((2, 2)),
        n_interior=2,
    )
    e0, e1 = np.eye(2, dtype=complex)
    # the pole 0.5 on e1, then the bound state 1.0 on e0
    basis = np.array([e1, e0]).T
    system = EigenSystem(
        walk.interior,
        values=np.array([0.5, 1.0], dtype=complex),
        right=basis,
        left_h=basis.conj().T,
        emission=walk.interior_to_tail @ basis,
        pickup=basis.conj().T @ walk.tail_to_interior,
        multiplicity=np.array([1, 1]),
        lengths=np.array([1, 1]),
        on_unit_circle=np.array([False, True]),
        condition_bound=np.array([1.0, 1.0]),
    )
    return walk, system, e1


def test_drive_onto_a_bound_state_is_rejected_per_column():
    walk, system, e1 = bound_state_walk()
    z = np.exp(0.3j)
    with pytest.raises(OrthogonalityViolated):
        generalized_eigenfunction(walk, z, np.eye(2), system)
    sol = generalized_eigenfunction(walk, z, e1, system)
    assert resolvent_kernel(walk, e1, system).overlap == 0.0
    assert np.abs(sol.interior - e1 / (z - 0.5)).max() <= 1e-15


def test_resolvent_route_scatters_all_tails_in_one_call(monkeypatch):
    calls = []
    solve = scattering.generalized_eigenfunction

    def spy(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scattering, "generalized_eigenfunction", spy)
    walk = cycle_family(8, [1.0] * 8).walk(0.05)
    sigma = scattering_matrix(walk, np.exp(0.3j)).matrix
    assert len(calls) == 1
    _, oracle = oracle_direct_solve(walk, np.exp(0.3j), np.eye(walk.n_tails))
    assert np.abs(sigma - oracle).max() <= ROUTE_TOL


# ---------------------------------------------------------------------------
# A whole array of z in one call

STACK_TOL = 2e-15


def two_barrier_line(x0):
    spec = BarrierSpec((0, x0), (rotation_coin(0.8), rotation_coin(0.6)))
    graph, coins = line_to_graph(spec)
    return assemble(graph, eval_coins(coins, 0.0))


def stack_points(count):
    # the circle, a repeated point and points inside and outside the disk
    circle = np.exp(2j * np.pi * (np.arange(count) + 0.37) / count)
    return np.concatenate([circle, circle[:1], [0.6 + 0.2j, -1.1j, 1.4 * np.exp(0.5j)]])


def loop_of_scalar_calls(walk, points, route, system):
    if route == "oracle":
        return np.array(
            [oracle_direct_solve(walk, z, np.eye(walk.n_tails))[1] for z in points]
        )
    return np.array([scattering_matrix(walk, z, route, system).matrix for z in points])


def stack_call(walk, points, route, system):
    if route == "oracle":
        return oracle_direct_solve(walk, points, np.eye(walk.n_tails))[1]
    return scattering_matrix(walk, points, route, system).matrix


@pytest.mark.parametrize("route", ["resolvent", "expansion", "oracle"])
@pytest.mark.parametrize(
    "walk, tol",
    [
        (ms_walk(0.3), STACK_TOL),
        (cycle_family(8, [1.0] * 8).walk(0.2), STACK_TOL),
        (cycle_family(16, [1.0] * 16).walk(0.2), STACK_TOL),
        (jordan_standin(0.5), STACK_TOL),
        (jordan_standin(0.0), STACK_TOL),
        (coupled_to_two_tails(JORDAN3), STACK_TOL),
        (two_barrier_line(40), 1e-14),
    ],
    ids=["ms", "cycle8", "cycle16", "jordan", "jordan_zero", "jordan3", "line_n0_80"],
)
def test_stack_matches_a_loop_of_scalar_calls(walk, tol, route):
    system = eigen_decompose(walk)
    points = stack_points(24)
    stack = stack_call(walk, points, route, system)
    assert stack.shape == (len(points), walk.n_tails, walk.n_tails)
    loop = loop_of_scalar_calls(walk, points, route, system)
    assert np.abs(stack - loop).max() <= tol


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2 * np.pi),
            st.sampled_from([1.0, 1.0, 0.5, 1.7]),
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_stack_property(angle_radius, repeats):
    walk = ms_walk(0.35)
    system = eigen_decompose(walk)
    points = np.array([r * np.exp(1j * a) for a, r in angle_radius])
    points = np.concatenate([points, points[:repeats]])
    for route in ("resolvent", "expansion"):
        report = scattering_matrix(walk, points, route, system)
        loop = [scattering_matrix(walk, z, route, system) for z in points]
        assert np.abs(report.matrix - [r.matrix for r in loop]).max() <= STACK_TOL
        on_circle = [r.unitarity_residual for r in loop if r.unitarity_residual is not None]
        assert report.unitarity_residual == (max(on_circle) if on_circle else None)
        per_point = [np.nan if r.unitarity_residual is None else r.unitarity_residual
                     for r in loop]
        np.testing.assert_array_equal(report.unitarity_residuals, per_point)
    _, direct = oracle_direct_solve(walk, points, np.eye(2))
    assert np.abs(direct - loop_of_scalar_calls(walk, points, "oracle", system)).max() <= STACK_TOL


def test_a_scalar_z_keeps_the_one_point_report():
    walk = ms_walk(0.3)
    on = scattering_matrix(walk, np.exp(0.4j))
    assert on.matrix.shape == (2, 2)
    assert isinstance(on.z, complex)
    assert type(on.unitarity_residual) is float
    off = scattering_matrix(walk, 0.8 * np.exp(0.4j), "expansion")
    assert off.matrix.shape == (2, 2)
    assert off.unitarity_residual is None
    assert np.isnan(off.unitarity_residuals)
    u, amp_out = oracle_direct_solve(walk, 0.8, np.array([1.0, 0.0]))
    assert u.shape == (walk.n_interior,) and amp_out.shape == (2,)


def test_array_report_keeps_the_worst_on_circle_residual():
    walk = ms_walk(0.3)
    points = np.array([np.exp(0.4j), 0.8, np.exp(2.0j)])
    report = scattering_matrix(walk, points)
    assert report.z.shape == (3,)
    assert np.isnan(report.unitarity_residuals[1])
    assert report.unitarity_residual == max(report.unitarity_residuals[[0, 2]])
    assert type(report.unitarity_residual) is float
    assert scattering_matrix(walk, points[1:2]).unitarity_residual is None


RESONANCE_MS = 0.9055385138137417j  # an interior eigenvalue of ms at eps = 0.3


@pytest.mark.parametrize("route", ["resolvent", "expansion"])
def test_one_small_point_in_an_array_is_a_pole_hit(route):
    points = np.array([np.exp(0.3j), 1e-8j, np.exp(1.3j)])
    with pytest.raises(PoleHit, match=re.escape("z = 0+1e-08j ")):
        scattering_matrix(ms_walk(0.3), points, route)


def test_one_resonance_hit_in_an_array_names_that_point():
    points = np.array([np.exp(0.3j), np.exp(2.0j), RESONANCE_MS, np.exp(1.3j)])
    named = re.escape(f"z = {RESONANCE_MS:.9g} ")
    for route in ("resolvent", "expansion"):
        with pytest.raises(AtInteriorResonance, match=named):
            scattering_matrix(ms_walk(0.3), points, route)
    with pytest.raises(SingularSystem, match=named):
        oracle_direct_solve(ms_walk(0.3), points, np.eye(2))


@pytest.mark.parametrize("array", [False, True], ids=["point", "array"])
def test_pole_block_at_its_pole_names_that_point(array):
    # as the expansion route does at the same z, instead of returning inf
    walk = ms_walk(0.3)
    cluster = eigen_decompose(walk).nearest_cluster(RESONANCE_MS)
    assert not cluster.on_unit_circle and not cluster.is_zero
    z = np.array([np.exp(0.3j), cluster.value, np.exp(1.3j)]) if array else cluster.value
    named = re.escape(f"z = {cluster.value:.9g} ")
    with pytest.raises(AtInteriorResonance, match=named):
        scattering_matrix(walk, z, "expansion")
    with pytest.raises(AtInteriorResonance, match=named):
        pole_block(walk, [cluster] if array else cluster, z)


def test_drive_onto_a_bound_state_is_rejected_for_an_array():
    walk, system, e1 = bound_state_walk()
    points = np.exp(1j * np.array([0.3, 1.1]))
    with pytest.raises(OrthogonalityViolated):
        generalized_eigenfunction(walk, points, np.eye(2), system)
    sol = generalized_eigenfunction(walk, points, e1, system)
    assert sol.interior.shape == (2, 2)
    assert np.abs(sol.interior - e1 / (points[:, None] - 0.5)).max() <= 1e-15


def test_simple_poles_are_stacked_once():
    system = eigen_decompose(ms_walk(0.3))
    poles = system.poles
    assert system.poles is poles
    # the semisimple zero cluster (two chains of length one) is a simple pole
    assert len(poles.values) == sum(c.multiplicity for c in system.off_circle())
    assert len(poles.links) == 0
    assert np.abs(poles.left_h @ poles.right - np.eye(len(poles.values))).max() <= 1e-13


def test_transmission_reflection_on_a_stack_matches_single_matrices():
    walk = cycle_family(4, [1.0] * 4).walk(0.2)
    stack = scattering_matrix(walk, np.exp(1j * np.linspace(-0.5, 2.5, 7))).matrix
    amp = np.array([1.0, 1.0j, 0.0, 0.0]) / np.sqrt(2.0)
    t, r = transmission_reflection(stack, {1, 2}, amp)
    assert t.shape == r.shape == (7,)
    singles = [transmission_reflection(sigma, {1, 2}, amp) for sigma in stack]
    assert all(type(v) is float for pair in singles for v in pair)
    assert np.abs(t - [pair[0] for pair in singles]).max() <= 1e-15
    assert np.abs(r - [pair[1] for pair in singles]).max() <= 1e-15
    with pytest.raises(BadSupport):
        transmission_reflection(stack, {1}, amp)
    with pytest.raises(NotNormalized):
        transmission_reflection(stack, {1, 2}, 2 * amp)


def test_scattering_matrix_refuses_an_unknown_route_before_any_decomposition(monkeypatch):
    calls = []
    decompose = scattering.eigen_decompose
    monkeypatch.setattr(scattering, "eigen_decompose", lambda walk: calls.append(walk) or decompose(walk))
    walk = matrix_schrodinger_family()(0.3)
    with pytest.raises(ValueError, match="unknown route 'bogus'"):
        scattering_matrix(walk, 1j, "bogus")
    assert calls == []
