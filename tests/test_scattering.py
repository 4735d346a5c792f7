"""Tests for generalized eigenfunctions and the scattering matrix routes."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    PoleHit,
    SingularSystem,
    comfortability,
    generalized_eigenfunction,
    oracle_direct_solve,
    pole_block,
    scattering_matrix,
    transmission_reflection,
    zero_pole_block,
)
from qwscatter.spectral import eigen_decompose, resonance_set

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


def test_resolvent_steps_through_a_nonzero_jordan_chain():
    # a triangular interior with a 2x2 Jordan block at 0.5 and a simple 0.9,
    # coupled to two tails at random: the resolvent route must apply
    # (M - 0.5) along the chain
    rng = np.random.default_rng(17)
    walk = SimpleNamespace(
        interior=np.array([[0.5, 1.0, 0.3], [0.0, 0.5, 0.2], [0.0, 0.0, 0.9]]),
        tail_to_interior=rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)),
        interior_to_tail=rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)),
        tail_to_tail=rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
        n_interior=3,
    )
    system = eigen_decompose(walk)
    assert [c.multiplicity for c in system.off_circle()] == [2, 1]
    for z in (np.exp(0.4j), 0.6 + 0.2j, -1.1j):
        for amp_in in np.eye(2):
            sol = generalized_eigenfunction(walk, z, amp_in, system)
            u, amp_out = oracle_direct_solve(walk, z, amp_in)
            assert np.abs(sol.interior - u).max() <= ROUTE_TOL
            assert np.abs(sol.amp_out - amp_out).max() <= ROUTE_TOL
