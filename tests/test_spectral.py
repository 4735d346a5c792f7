"""Tests for eigenvalue clustering, Jordan chains, and resonance data."""

import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qwscatter
from qwscatter import spectral
from qwscatter.asymptotics import default_eps_grid
from qwscatter.graph import build_graph
from qwscatter.line import BarrierSpec, double_barrier, line_to_graph, rotation_coin
from qwscatter.coins import eval_coins, parse_coin_family
from qwscatter.modelfile import family_from_file, model_to_dict
from qwscatter.models import (
    ModelFamily,
    _haar_unitary,
    crossing_family,
    cycle_family,
    matrix_schrodinger_family,
    random_walk,
)
from qwscatter.scattering import oracle_direct_solve, scattering_matrix
from qwscatter.spectral import (
    CIRCLE_COUPLING_TOL,
    ClusterAmbiguity,
    IllConditionedChain,
    NotSimple,
    ZeroCluster,
    _classify,
    _cluster_indices,
    boundary_data,
    eigen_decompose,
    resonance_set,
)
from qwscatter.walk import assemble

CHAIN_TOL = 1e-8
PROJ_TOL = 1e-8
# W* V = I over the whole spectrum; per-cluster duals left 2.6e-13 between
# clusters of the 84-arc random walk below, the one dual basis leaves 3e-15
PAIRING_TOL = 1e-13


def bare(matrix):
    """A walk stand-in: ``matrix`` as the interior, coupled to no tail."""
    interior = np.asarray(matrix, dtype=complex)
    n = interior.shape[0]
    return SimpleNamespace(
        interior=interior,
        interior_to_tail=np.zeros((0, n), dtype=complex),
        tail_to_interior=np.zeros((n, 0), dtype=complex),
    )


def jordan_example():
    a = np.zeros((3, 3), dtype=complex)
    a[0, 0] = 0.5
    a[0, 1] = 1.0
    a[1, 1] = 0.5
    a[2, 2] = 0.9
    return a


def test_jordan_block_is_one_chain():
    system = eigen_decompose(bare(jordan_example()))
    assert len(system.clusters) == 2
    cluster = system.nearest_cluster(0.5)
    assert cluster.multiplicity == 2
    assert [c.shape[0] for c in cluster.chains] == [2]
    assert not cluster.is_simple


def test_chain_law():
    a = jordan_example()
    cluster = eigen_decompose(bare(a)).nearest_cluster(0.5)
    (chain,) = cluster.chains
    lam = cluster.value
    shifted = a - lam * np.eye(3)
    assert np.linalg.norm(shifted @ chain[0]) <= CHAIN_TOL
    assert np.linalg.norm(shifted @ chain[1] - chain[0]) <= CHAIN_TOL


def test_biorthogonality_and_projections():
    a = jordan_example()
    system = eigen_decompose(bare(a))
    total = np.zeros((3, 3), dtype=complex)
    for cluster in system.clusters:
        v = cluster.right_basis()
        w = cluster.left_basis()
        assert np.abs(w.conj().T @ v - np.eye(cluster.multiplicity)).max() <= PROJ_TOL
        p = v @ w.conj().T
        assert np.abs(p @ p - p).max() <= PROJ_TOL
        assert np.abs(p @ a - a @ p).max() <= PROJ_TOL
        total += p
    assert np.abs(total - np.eye(3)).max() <= PROJ_TOL


def test_random_nonnormal_diagonalizable():
    rng = np.random.default_rng(3)
    values = np.array([0.5, 0.9j, -0.3 + 0.1j])
    v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = v @ np.diag(values) @ np.linalg.inv(v)
    system = eigen_decompose(bare(a))
    got = sorted((c.value for c in system.clusters), key=lambda z: (z.real, z.imag))
    want = sorted(values, key=lambda z: (z.real, z.imag))
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-10
    for cluster in system.clusters:
        assert cluster.is_simple


def test_close_eigenvalues_merge():
    a = np.diag([0.5, 0.5 + 1e-13, 0.9]).astype(complex)
    system = eigen_decompose(bare(a))
    assert len(system.clusters) == 2
    assert system.nearest_cluster(0.5).multiplicity == 2


def test_cluster_indices_match_pairwise_loop():
    # reference: grow each group by scanning every pair until nothing joins
    rng = np.random.default_rng(8)
    centers = rng.normal(size=12) + 1j * rng.normal(size=12)
    values = np.repeat(centers, 3)[:30] + 1e-3 * rng.normal(size=30)
    tol = 0.01
    groups = [{a} for a in range(len(values))]
    merged = True
    while merged:
        merged = False
        for i, g in enumerate(groups):
            for h in groups[i + 1 :]:
                if any(abs(values[a] - values[b]) <= tol for a in g for b in h):
                    g |= h
                    groups.remove(h)
                    merged = True
                    break
            if merged:
                break
    got, centres = _cluster_indices(values, tol)
    assert sorted(map(sorted, got)) == sorted(map(sorted, groups))
    assert centres == [complex(values[idx].mean()) for idx in got]
    assert len(got) < len(values)


# parts on a coarse grid, nudged by less and more than the 1e-12 rounding step
NEAR_TIES = st.builds(
    lambda k, nudge: k / 4 + nudge,
    st.integers(-4, 4),
    st.sampled_from([0.0, -0.0, 1e-16, -1.9e-16, -2e-13, 6e-13, 1.5e-12, -3e-12, 5e-12]),
)
# ms's clusters at eps = 0.01: its hidden pair has real part -1.9e-16, beside the zero
MS_VALUES = [
    -0.9999999999999999 + 0j,
    -1.942890293094024e-16 - 0.9998999949995003j,
    0j,
    -1.942890293094024e-16 + 0.9998999949995003j,
    1.0000000000000002 + 0j,
]


@settings(max_examples=300, deadline=None)
@example(MS_VALUES)
@example(MS_VALUES[::-1])
@given(st.lists(st.builds(complex, NEAR_TIES, NEAR_TIES), max_size=8))
def test_value_order_is_the_rounded_key_order(values):
    want = sorted(range(len(values)), key=list(map(spectral._sort_key, values)).__getitem__)
    assert spectral._value_order([values])[0].tolist() == want


def test_ms_decomposes_as_with_every_value_rounded():
    # every value sorts by its rounded key: the hidden pair's real parts
    # (~1e-16) round to the zero cluster's 0, so the zero sorts between them
    eps = 0.01
    r = np.sqrt(1 - 2 * eps**2)
    system = eigen_decompose(matrix_schrodinger_family()(eps))
    assert np.abs(system.values - [-1, -1j * r, 0, 1j * r, 1]).max() <= 1e-12
    assert system.multiplicity.tolist() == [1, 1, 2, 1, 1]
    assert system.on_unit_circle.tolist() == [True, False, False, False, True]


def test_chained_merge_is_ambiguous():
    values = np.array([0.0, 0.09, 0.18, 0.27], dtype=complex)
    with pytest.raises(ClusterAmbiguity):
        _cluster_indices(values, 0.1)


def staircase(gap):
    """Ones above a diagonal of eigenvalues ``gap`` apart: near-defective."""
    return np.diag([0.5, 0.5 + gap, 0.5 + 2 * gap]) + np.diag([1.0, 1.0], 1)


def test_ill_conditioned_simple_pairing_rejected():
    # 1e-7 apart the three eigenvalues are separate clusters, but each
    # eigenvector pairs with its co-vector at condition ~5e13 > 1/GRAM_REL_TOL
    assert [c.multiplicity for c in eigen_decompose(bare(staircase(1e-5))).clusters] == [1] * 3
    with pytest.raises(IllConditionedChain):
        eigen_decompose(bare(staircase(1e-7)))


def test_on_circle_flag():
    # the hidden pair +-i is decoupled at eps = 0; at eps = 1e-8 it sits
    # within roundoff of the circle, yet couples to the tails with 1.4e-8
    family = matrix_schrodinger_family()
    decoupled = eigen_decompose(family.walk(0.0))
    assert [c.on_unit_circle for c in decoupled.clusters if not c.is_zero] == [True] * 4
    system = eigen_decompose(family.walk(1e-8))
    assert all(type(c.on_unit_circle) is bool for c in system.clusters)
    hidden = [system.nearest_cluster(1j), system.nearest_cluster(-1j)]
    assert [c.on_unit_circle for c in hidden] == [False, False]
    assert all(abs(abs(c.value) - 1.0) <= 1e-15 for c in hidden)
    assert system.nearest_cluster(1.0).on_unit_circle
    assert system.nearest_cluster(-1.0).on_unit_circle


def test_zero_cluster_lookup():
    a = np.diag([0.0, 0.7]).astype(complex)
    system = eigen_decompose(bare(a))
    zero = system.zero_cluster()
    assert zero is not None and zero.is_zero
    assert abs(zero.value) <= 1e-12
    assert [c.is_zero for c in system.clusters] == [True, False]
    none_sys = eigen_decompose(bare(np.diag([0.4, 0.7])))
    assert none_sys.zero_cluster() is None


def test_ms_resonances_frozen():
    walk = matrix_schrodinger_family().walk(0.3)
    resonances, _ = resonance_set(walk)
    by_mult = sorted(
        (round(r.value.real, 9), round(r.value.imag, 9), r.multiplicity)
        for r in resonances
    )
    hidden = math.sqrt(1 - 2 * 0.3**2)  # 0.9055385138137417
    want = sorted(
        [
            (0.0, 0.0, 2),
            (1.0, 0.0, 1),
            (-1.0, 0.0, 1),
            (0.0, round(hidden, 9), 1),
            (0.0, round(-hidden, 9), 1),
        ]
    )
    assert by_mult == want


def test_ms_on_circle_flags():
    walk = matrix_schrodinger_family().walk(0.3)
    resonances, _ = resonance_set(walk)
    for r in resonances:
        assert r.on_unit_circle == (abs(abs(r.value) - 1) <= 1e-8)


def test_width_identity_on_ms():
    walk = matrix_schrodinger_family().walk(0.4)
    _, system = resonance_set(walk)
    checked = 0
    for cluster in system.off_circle():
        if abs(cluster.value) <= 1e-9 or not cluster.is_simple:
            continue
        data = boundary_data(walk, cluster)
        lam = abs(cluster.value)
        ratio = np.linalg.norm(data.out_data) ** 2 / np.linalg.norm(data.interior) ** 2
        assert abs(ratio - (lam**-2 - 1)) <= 1e-10
        co_ratio = (
            np.linalg.norm(data.in_data_co) ** 2
            / np.linalg.norm(data.co_interior) ** 2
        )
        assert abs(co_ratio - (lam**-2 - 1)) <= 1e-10
        checked += 1
    assert checked == 2


@pytest.mark.parametrize("seed", range(8))
def test_width_identity_on_random_models(seed):
    walk = random_walk(np.random.default_rng(seed + 100))
    _, system = resonance_set(walk)
    for cluster in system.off_circle():
        if abs(cluster.value) <= 1e-9 or not cluster.is_simple:
            continue
        data = boundary_data(walk, cluster)
        lam = abs(cluster.value)
        ratio = np.linalg.norm(data.out_data) ** 2 / np.linalg.norm(data.interior) ** 2
        assert abs(ratio - (lam**-2 - 1)) <= 1e-8


def test_on_circle_resonance_has_silent_boundary():
    walk = matrix_schrodinger_family().walk(0.3)
    _, system = resonance_set(walk)
    circle = [c for c in system.on_circle() if c.is_simple]
    assert circle
    for cluster in circle:
        data = boundary_data(walk, cluster)
        assert data.on_circle
        assert np.abs(data.out_data).max() == 0.0
        assert np.abs(data.in_data_co).max() == 0.0


def test_zero_cluster_has_no_boundary_data():
    # a self-loop bounced straight to the tail leaves a simple zero behind
    g = build_graph(["u"], [("u", "u")], [(1, "u", "u")])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    walk = assemble(g, {"u": swap})
    _, system = resonance_set(walk)
    zero = system.zero_cluster()
    assert zero is not None and zero.is_simple
    with pytest.raises(ZeroCluster):
        boundary_data(walk, zero)


def two_cycles_walk():
    """Two decoupled interior 2-cycles: +-1 are doubly degenerate."""
    g = build_graph(
        ["a", "b"],
        [("a", "b"), ("b", "a"), ("a", "b"), ("b", "a")],
        [(1, "a", "a")],
    )
    coins = {"a": np.eye(3, dtype=complex), "b": np.eye(2, dtype=complex)}
    return assemble(g, coins)


def test_degenerate_cluster_rejected():
    walk = two_cycles_walk()
    _, system = resonance_set(walk)
    degenerate = [c for c in system.clusters if c.multiplicity > 1]
    assert degenerate
    with pytest.raises(NotSimple):
        boundary_data(walk, degenerate[0])


def test_resonances_of_cycle_are_roots_of_tau():
    eps = 0.25
    strengths = [0.9, 0.4, 0.7]
    walk = cycle_family(3, strengths).walk(eps)
    resonances, _ = resonance_set(walk)
    tau = math.prod(math.sqrt(1 - (c * eps) ** 2) for c in strengths)
    off = sorted(
        (r.value for r in resonances if not r.on_unit_circle and abs(r.value) > 1e-9),
        key=lambda z: np.angle(z),
    )
    assert len(off) == 3
    for lam in off:
        assert abs(lam**3 - tau) <= 1e-10


def full_bases(system):
    """Right and left bases of the whole spectrum, cluster by cluster."""
    right = np.concatenate([c.right_basis() for c in system.clusters], axis=1)
    left = np.concatenate([c.left_basis() for c in system.clusters], axis=1)
    return right, left


def coupled_jordan_example():
    # the same Jordan structure with non-orthogonal eigenspaces; triangular,
    # so roundoff cannot split the double eigenvalue
    a = jordan_example()
    a[0, 2] = 0.3
    a[1, 2] = 0.2
    return a


@pytest.mark.parametrize(
    "walk",
    [bare(jordan_example()), bare(coupled_jordan_example()), two_cycles_walk()],
    ids=["jordan", "coupled-jordan", "two-cycles"],
)
def test_mixed_spectrum_chains_and_full_pairing(walk):
    system = eigen_decompose(walk)
    a = np.asarray(walk.interior)
    n = a.shape[0]
    assert sum(c.multiplicity for c in system.clusters) == n
    assert any(not c.is_simple for c in system.clusters)
    for cluster in system.clusters:
        lam = cluster.value
        shifted = a - lam * np.eye(n)
        for chain, co_chain in zip(cluster.chains, cluster.co_chains):
            below = np.vstack([np.zeros(n), chain[:-1]])
            assert np.abs(chain @ shifted.T - below).max() <= CHAIN_TOL
            above = np.vstack([co_chain[1:], np.zeros(n)])
            assert np.abs(co_chain @ shifted.conj() - above).max() <= CHAIN_TOL
    right, left = full_bases(system)
    assert np.abs(left.conj().T @ right - np.eye(n)).max() <= PAIRING_TOL


def barrier_line_walk(x0):
    spec = BarrierSpec((0, x0), (rotation_coin(0.8), rotation_coin(0.6)))
    graph, coins = line_to_graph(spec)
    return spec, assemble(graph, eval_coins(coins, 0.0))


def large_random_walk():
    walk = random_walk(
        np.random.default_rng(4), max_vertices=20, max_cycles=8, max_tails=4
    )
    assert (walk.n_interior, walk.n_tails) == (84, 4)
    return walk


def check_routes_against_direct_solve(walk, system):
    eye = np.eye(walk.n_tails)
    for z in (np.exp(0.3j), np.exp(2.1j), 0.8 * np.exp(-1.2j), 1.3 * np.exp(0.7j)):
        _, want = oracle_direct_solve(walk, z, eye)
        for route in ("resolvent", "expansion"):
            got = scattering_matrix(walk, z, route=route, system=system).matrix
            assert np.abs(got - want).max() <= 1e-11


def test_large_barrier_line_matches_closed_form():
    x0 = 40
    spec, walk = barrier_line_walk(x0)
    assert walk.n_interior == 2 * x0
    resonances, system = resonance_set(walk)
    assert all(r.multiplicity == 1 for r in resonances)
    got = np.array([r.value for r in resonances])
    want = np.array(double_barrier(spec, 1j).resonances)
    assert len(got) == len(want) == 2 * x0
    distance = np.abs(np.subtract.outer(got, want))
    assert distance.min(axis=1).max() <= 1e-9
    assert distance.min(axis=0).max() <= 1e-9
    right, left = full_bases(system)
    assert np.abs(left.conj().T @ right - np.eye(2 * x0)).max() <= PAIRING_TOL
    check_routes_against_direct_solve(walk, system)


def test_large_random_walk_pairs_and_scatters():
    walk = large_random_walk()
    system = eigen_decompose(walk)
    right, left = full_bases(system)
    assert np.abs(left.conj().T @ right - np.eye(walk.n_interior)).max() <= PAIRING_TOL
    check_routes_against_direct_solve(walk, system)


def test_cluster_bases_are_built_once():
    cluster = eigen_decompose(bare(jordan_example())).nearest_cluster(0.5)
    assert cluster.right_basis() is cluster.right_basis()
    assert cluster.left_basis() is cluster.left_basis()
    assert not cluster.right_basis().flags.writeable
    assert not cluster.left_basis().flags.writeable


def test_import_does_not_load_scipy():
    # the package is numpy-only; importing scipy would double the start-up time
    src = os.path.dirname(os.path.dirname(qwscatter.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, qwscatter; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# Real arithmetic for real interiors, and the one pass over simple clusters

UNIT_ROUNDOFF = np.finfo(float).eps / 2


def three_barrier_line_walk():
    spec = BarrierSpec((0, 5, 13), tuple(rotation_coin(r) for r in (0.8, 0.6, 0.7)))
    graph, coins = line_to_graph(spec)
    return assemble(graph, eval_coins(coins, 0.0))


REAL_WALKS = {
    "ms": lambda: matrix_schrodinger_family().walk(0.3),
    "cycle5": lambda: cycle_family(5, [0.9, 1.0, 1.1, 0.8, 0.95]).walk(0.3),
    "cycle5-eps0": lambda: cycle_family(5, [0.9, 1.0, 1.1, 0.8, 0.95]).walk(0.0),
    "three-barrier": three_barrier_line_walk,
    # rotations 0.8 and 0.6 give the line's one cycle the product -0.48
    "two-barrier": lambda: barrier_line_walk(5)[1],
    # period 20 and 2: their level products are 15 x 15 and 61 x 61
    "five-barrier": lambda: rotation_line_walk((0, 30, 60, 100, 150)),
    "coprime-gaps": lambda: rotation_line_walk((0, 30, 61)),
}


@pytest.mark.parametrize("name", sorted(REAL_WALKS))
def test_real_interiors_give_exact_conjugate_pairs(name):
    walk = REAL_WALKS[name]()
    assert not np.asarray(walk.interior).imag.any()
    system = eigen_decompose(walk)
    by_value = {c.value: c for c in system.clusters}
    nonreal = [c for c in system.clusters if c.value.imag != 0]
    assert len(nonreal) >= 2
    for cluster in nonreal:
        partner = by_value[cluster.value.conjugate()]  # bit for bit
        assert partner.multiplicity == cluster.multiplicity
        for chain, mirror in zip(cluster.chains, partner.chains):
            assert np.abs(chain - mirror.conj()).max() <= 4 * UNIT_ROUNDOFF


def spy_on(monkeypatch, name):
    """Record the dtype of every array handed to ``np.linalg.<name>``."""
    seen = []
    original = getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return seen


@pytest.mark.parametrize(
    "build, dtype",
    [(lambda: matrix_schrodinger_family().walk(0.3), np.float64),
     (lambda: random_walk(np.random.default_rng(105)), np.complex128)],
    ids=["ms-real", "haar-digraph-complex"],
)
def test_eigensolver_arithmetic_follows_the_interior(monkeypatch, build, dtype):
    walk = build()
    assert np.iscomplexobj(walk.interior)  # the walk itself is always complex
    seen_eig = spy_on(monkeypatch, "eig")
    system = eigen_decompose(walk)
    assert seen_eig == [dtype]
    assert system.matrix.dtype == np.complex128 and system.values.dtype == np.complex128
    assert all(c.chains[0].dtype == np.complex128 for c in system.clusters)


def jordan_matrix(system):
    """The Jordan matrix J with M V = V J, cluster by cluster, chain by chain."""
    diagonal, links = [], []
    for cluster in system.clusters:
        for chain in cluster.chains:
            links += range(len(diagonal), len(diagonal) + chain.shape[0] - 1)
            diagonal += [cluster.value] * chain.shape[0]
    j = np.diag(np.array(diagonal, dtype=complex))
    j[links, [k + 1 for k in links]] = 1.0
    return j


@pytest.mark.parametrize(
    "build",
    [lambda: matrix_schrodinger_family().walk(0.3), three_barrier_line_walk,
     lambda: random_walk(np.random.default_rng(105)),
     lambda: rotation_line_walk((0, 30, 60, 100, 150)), lambda: bipartite_haar_walk(11)],
    ids=["ms", "three-barrier", "haar-digraph", "five-barrier", "bipartite-haar-seed-11"],
)
def test_decomposition_residuals_are_at_roundoff(build):
    walk = build()
    system = eigen_decompose(walk)
    m = np.asarray(walk.interior)
    n = m.shape[0]
    right, left = full_bases(system)
    bound = 64 * n * UNIT_ROUNDOFF * np.linalg.norm(m, 2)
    assert np.linalg.norm(m @ right - right @ jordan_matrix(system), 2) <= bound
    assert np.linalg.norm(left.conj().T @ right - np.eye(n), 2) <= bound
    for cluster in system.clusters:
        for chain in cluster.chains:
            # unit eigenvector whose largest entry (up to ties) is real positive
            v = chain[0]
            assert abs(np.linalg.norm(v) - 1.0) <= 4 * UNIT_ROUNDOFF
            near = v[np.abs(v) >= (1 - 1e-12) * np.abs(v).max()]
            assert np.any((near.real > 0) & (np.abs(near.imag) <= 4 * UNIT_ROUNDOFF))


def spy_calls(monkeypatch, name):
    """Record the arguments of every call to ``spectral.<name>``."""
    seen = []
    original = getattr(spectral, name)

    def spy(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(spectral, name, spy)
    return seen


@pytest.mark.parametrize("eps", [0.0, 1e-8, 1e-2, 0.5])
def test_one_pass_classification_matches_the_per_cluster_rule(monkeypatch, eps):
    # at eps = 0 the hidden pair +-i is on the circle, at 1e-8 it is off
    # it by 1e-16 but couples to the tails; the zero cluster is semisimple,
    # two chains of length one taken from eig's columns, with no staircase
    staircase = spy_calls(monkeypatch, "_right_chains")
    walk = matrix_schrodinger_family().walk(eps)
    system = eigen_decompose(walk)
    multiple = [cl for cl in system.clusters if cl.multiplicity > 1]
    assert [[c.shape[0] for c in cl.chains] for cl in multiple] == [[1, 1]]
    assert system.zero_cluster().multiplicity == 2
    assert staircase == []
    right, left = full_bases(system)
    widths = [c.multiplicity for c in system.clusters]
    starts = np.cumsum(widths) - widths
    tails = walk.interior_to_tail[None], walk.tail_to_interior[None]
    bound, on_circle, _, _ = _classify(*tails, right[None], left.conj().T[None], starts)
    condition = system.condition
    for k, cluster in enumerate(system.clusters):
        v, w = cluster.right_basis(), cluster.left_basis()
        # a semisimple cluster's condition is the norm of its projector
        want = np.linalg.norm(v @ w.conj().T, 2)
        assert condition[k] == pytest.approx(want, rel=4 * UNIT_ROUNDOFF, abs=0)
        assert cluster.condition == condition[k]
        frobenius = np.linalg.norm(v) * np.linalg.norm(w)
        assert bound[k] == pytest.approx(frobenius, rel=4 * UNIT_ROUNDOFF, abs=0)
        emitted = np.linalg.norm(walk.interior_to_tail @ v) / np.linalg.norm(v)
        picked = np.linalg.norm(walk.tail_to_interior.conj().T @ w) / np.linalg.norm(w)
        decoupled = emitted <= CIRCLE_COUPLING_TOL and picked <= CIRCLE_COUPLING_TOL
        assert on_circle[k] == decoupled == cluster.on_unit_circle
    hidden = [system.nearest_cluster(1j), system.nearest_cluster(-1j)]
    assert [c.on_unit_circle for c in hidden] == [eps == 0.0] * 2


def test_poles_are_a_column_selection_of_the_system():
    # the off-circle columns of the arrays, as the clusters' own chains would stack them
    for walk in (matrix_schrodinger_family().walk(0.3), jordan_walk_with_tails()):
        system = eigen_decompose(walk)
        # the tail coupling of every column is formed once, read-only
        assert np.array_equal(system.emission, walk.interior_to_tail @ system.right)
        assert np.array_equal(system.pickup, system.left_h @ walk.tail_to_interior)
        assert not system.emission.flags.writeable and not system.pickup.flags.writeable
        poles = system.poles
        kept = np.flatnonzero(np.repeat(~system.on_unit_circle, system.multiplicity))
        assert np.array_equal(poles.emission, system.emission[:, kept])
        assert np.array_equal(poles.pickup, system.pickup[kept])
        for k in range(len(system.values)):
            cluster, cut = system.cluster(k), system.columns(k)
            # a cluster's arrays are views of its own columns
            owned = [
                (cluster.right, system.right, system.right[:, cut]),
                (cluster.left_h, system.left_h, system.left_h[cut]),
                (cluster.emission, system.emission, system.emission[:, cut]),
                (cluster.pickup, system.pickup, system.pickup[cut]),
            ]
            for view, whole, columns in owned:
                assert view.base is not None and np.shares_memory(view, whole)
                assert np.array_equal(view, columns)
        stacked = spectral._pole_basis(
            system.off_circle(), walk.interior.shape[0], walk.interior_to_tail.shape[0]
        )
        assert np.array_equal(poles.values, stacked.values)
        assert np.array_equal(poles.right, stacked.right)
        assert np.array_equal(poles.left_h, stacked.left_h)
        assert np.array_equal(poles.emission, stacked.emission)
        assert np.array_equal(poles.pickup, stacked.pickup)
        assert poles.links == stacked.links
    assert system.on_unit_circle.any() and poles.links
    # with no cluster on the circle the poles are the system's own arrays
    system = eigen_decompose(cycle_family(5, STRENGTHS).walk(0.3))
    assert system.poles.right is system.right and system.poles.left_h is system.left_h


def test_clusters_are_built_only_when_asked():
    system = eigen_decompose(matrix_schrodinger_family().walk(0.3))
    shared = (system.values, system.right, system.left_h)
    assert not any(array.flags.writeable for array in shared)
    assert len(system.poles.values) < system.right.shape[1]  # +-1 sit on the circle
    cluster = system.nearest_cluster(1j)
    k = int(np.argmin(np.abs(system.values - 1j)))
    assert system.nearest_cluster(1j) is cluster and list(system._built) == [k]
    # a simple cluster's condition is its bound: no singular values taken
    assert "condition" not in vars(system)
    assert cluster.condition == system.condition_bound[k]
    assert system.clusters[k] is cluster
    assert [c.value for c in system.clusters] == system.values.tolist()
    assert system.zero_cluster() is system.clusters[int(np.argmin(np.abs(system.values)))]


def test_semisimple_rule_needs_agreeing_values_and_independent_columns():
    n, scale, floor = 6, 1.0, 1e-12
    orthogonal = [[1.0, 0.0], [0.0, 1.0]]
    skew = [[1.0, 0.6], [0.6, 1.0]]  # unit columns at condition 2
    parallel = [[1.0, 1 - 1e-16], [1 - 1e-16, 1.0]]  # a Jordan block's eig columns
    assert spectral._semisimple(0.0, orthogonal, n, scale, floor)
    assert spectral._semisimple(1e-14, skew, n, scale, floor)
    assert not spectral._semisimple(0.0, parallel, n, scale, floor)
    assert not spectral._semisimple(1e-12, orthogonal, n, scale, floor)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("fill", [0.0, 1e-14])
def test_a_negligible_nilpotent_part_gives_one_chain_per_column(m, fill):
    # ||r||_F < floor/2 puts every singular value under the rank threshold:
    # the staircase stops at one chain length, and its tops are the identity
    floor = 1e-12
    r = np.full((m, m), fill, dtype=complex)
    assert np.linalg.norm(r) < floor / 2
    lengths, coords = spectral._nilpotent_chains(r, floor)
    assert lengths == [1] * m
    assert coords.shape == (m, m) and np.array_equal(coords, np.eye(m))


def jordan_walk_with_tails():
    """A Jordan block at 0.5 with one tail, 0.9 coupled to it and 0.7 decoupled."""
    interior = np.diag([0.5, 0.5, 0.9, 0.7]).astype(complex)
    interior[0, 1] = 2.0
    return SimpleNamespace(
        interior=interior,
        interior_to_tail=np.array([[0.0, 1e-3, 0.0, 0.0]], dtype=complex),
        tail_to_interior=np.array([[0.0], [0.0], [1e-3], [0.0]], dtype=complex),
    )


def test_a_multiple_cluster_is_classified_by_all_its_columns():
    # the 0.5 block's chain is e1, e2/2, so ||V||·||W|| = 2 while its
    # eigenvector alone has condition 1; only e2 emits into the tail, only
    # the co-state e3 of 0.9 picks up from it, and 0.7 on e4 is decoupled
    walk = jordan_walk_with_tails()
    system = eigen_decompose(walk)
    assert [c.value for c in system.clusters] == [0.5, 0.7, 0.9]
    assert [c.shape[0] for c in system.clusters[0].chains] == [2]
    right, left = full_bases(system)
    tails = walk.interior_to_tail[None], walk.tail_to_interior[None]
    bound, on_circle, _, _ = _classify(*tails, right[None], left.conj().T[None], np.array([0, 2, 3]))
    assert system.condition[0] == pytest.approx(2.0, rel=1e-15)
    assert bound[0] >= system.condition[0]
    assert list(on_circle) == [False, True, False]
    assert [c.on_unit_circle for c in system.clusters] == [False, True, False]


# Well-separated values, zero among them, so that blocks planted at one
# value form one cluster and the clusters stay apart.
PLANTED_VALUES = (0.0, 0.6, -0.5 + 0.4j, 0.7j)


@st.composite
def planted_jordan(draw):
    """A triangular interior, n0 <= 8, similar to a Jordan matrix with planted blocks.

    Returns the matrix and, per value, its block sizes in decreasing order.
    The similarity is unit upper triangular, so the matrix is triangular
    with the Jordan matrix's diagonal: roundoff cannot split a value.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5).filter(lambda s: sum(s) <= 8))
    values = [draw(st.sampled_from(PLANTED_VALUES)) for _ in sizes]
    n = sum(sizes)
    jordan = np.zeros((n, n), dtype=complex)
    start = 0
    for size, value in zip(sizes, values):
        for i in range(start, start + size):
            jordan[i, i] = value
            if i + 1 < start + size:
                jordan[i, i + 1] = 1.0
        start += size
    entries = draw(st.lists(st.floats(-0.5, 0.5), min_size=n * n, max_size=n * n))
    similarity = np.eye(n) + np.triu(np.reshape(entries, (n, n)), 1)
    matrix = similarity @ jordan @ np.linalg.inv(similarity)
    blocks: dict = {}
    for size, value in zip(sizes, values):
        blocks.setdefault(value, []).append(size)
    return matrix, {value: sorted(b, reverse=True) for value, b in blocks.items()}


@settings(max_examples=60, deadline=None)
@given(planted_jordan())
def test_planted_jordan_blocks_come_back_as_chains(planted):
    matrix, blocks = planted
    system = eigen_decompose(bare(matrix))
    n = matrix.shape[0]
    assert len(system.clusters) == len(blocks)
    for value, sizes in blocks.items():
        cluster = system.nearest_cluster(value)
        assert abs(cluster.value - value) <= 1e-12
        assert cluster.multiplicity == sum(sizes)
        assert [chain.shape[0] for chain in cluster.chains] == sizes
    right, left = full_bases(system)
    # the chain law M V = V J and the pairing W* V = I, at roundoff of
    # the basis: u times ||M|| ||V|| and u times the condition of V
    residual = np.linalg.norm(matrix @ right - right @ jordan_matrix(system), 2)
    assert residual <= 64 * n * UNIT_ROUNDOFF * np.linalg.norm(matrix, 2) * np.linalg.norm(right, 2)
    pairing = np.linalg.norm(left.conj().T @ right - np.eye(n), 2)
    assert pairing <= 64 * n * UNIT_ROUNDOFF * np.linalg.cond(right)


@settings(max_examples=30, deadline=None)
@given(planted_jordan())
def test_planted_jordan_blocks_still_run_the_staircase(planted):
    # a value with a block longer than one is never taken for semisimple:
    # its eig columns are parallel, so it runs _right_chains
    matrix, blocks = planted
    with pytest.MonkeyPatch.context() as patch:
        staircase = spy_calls(patch, "_right_chains")
        eigen_decompose(bare(matrix))
    jordan = [value for value, sizes in blocks.items() if sizes[0] > 1]
    ran = [args[1] for args in staircase]
    assert all(min(abs(lam - value) for lam in ran) <= 1e-12 for value in jordan)


# ---------------------------------------------------------------------------
# Weighted-permutation interiors in closed form


def complex_permutation():
    """A complex weighted permutation with cycles of lengths 1, 2 and 5."""
    cycles = [[3], [0, 6], [1, 4, 7, 2, 5]]
    weights = [0.7j, 0.9 * np.exp(0.4j), -0.5, 0.95 * np.exp(-1.1j), 0.8, 1.0, 0.6j, 0.85]
    a = np.zeros((8, 8), dtype=complex)
    for cycle in cycles:
        for j, k in zip(cycle, cycle[1:] + cycle[:1]):
            a[k, j] = weights[j]
    return bare(a)


def two_cycle3_family():
    """Two disjoint cycle3 copies, strengths (0.9, 0.4, 0.7) and (0.5, 0.5, 0.5)."""
    names, arcs, tails, coins = [], [], [], {}
    for copy, strengths in enumerate([(0.9, 0.4, 0.7), (0.5, 0.5, 0.5)]):
        vertices = [f"c{copy}v{k}" for k in range(3)]
        names += vertices
        for k, c in enumerate(strengths):
            arcs.append((vertices[k - 1], vertices[k], f"c{copy}a{k}"))
            tails.append((len(tails) + 1, vertices[k], vertices[k]))
            root = f"sqrt(1-{c * c!r}*eps^2)"
            # rows (arc out, tail out), cols (arc in, tail in)
            coins[vertices[k]] = [[root, f"{c!r}*eps"], [f"-{c!r}*eps", root]]
    graph = build_graph(names, arcs, tails)
    return ModelFamily("two-cycle3", graph, parse_coin_family(coins), eps_limit=1 / 0.9)


STRENGTHS = [0.9, 0.4, 0.7, 1.1, 0.6]
PERMUTATION_WALKS = {
    **{
        f"cycle{n}-eps{eps}": (lambda n=n, eps=eps: cycle_family(
            n, [STRENGTHS[k % 5] for k in range(n)]).walk(eps))
        for n in (3, 4, 5, 64)
        for eps in (0.0, 0.3)
    },
    **{f"line-x{x0}": (lambda x0=x0: barrier_line_walk(x0)[1]) for x0 in (1, 40, 100)},
    "crossing": lambda: crossing_family().walk(0.3),
    "complex-cycles-1-2-5": complex_permutation,
}


@pytest.mark.parametrize("name", sorted(PERMUTATION_WALKS))
def test_closed_form_matches_the_eig_path(monkeypatch, name):
    walk = PERMUTATION_WALKS[name]()
    seen = spy_on(monkeypatch, "eig")
    closed = eigen_decompose(walk)
    assert seen == []
    # the eig path's own helper, in place of the closed form
    monkeypatch.setattr(spectral, "_periodic_eig", spectral._eig_pairs)
    reference = eigen_decompose(walk)
    assert len(seen) == 1
    assert_matches_the_eig_path(closed, reference)


def assert_matches_the_eig_path(closed, reference):
    """The closed form's system against the eig path's, cluster by cluster."""
    n = closed.matrix.shape[0]
    assert len(closed.clusters) == len(reference.clusters) == n
    for got, want in zip(closed.clusters, reference.clusters):
        assert abs(got.value - want.value) <= 1e-13
        assert got.on_unit_circle == want.on_unit_circle
        assert got.condition == pytest.approx(want.condition, rel=1e-12, abs=0)
        projector = got.right_basis() @ got.left_basis().conj().T
        assert np.abs(projector - want.right_basis() @ want.left_basis().conj().T).max() <= 1e-12
    right, left = full_bases(closed)
    assert np.abs(left.conj().T @ right - np.eye(n)).max() <= 1e-14


@pytest.mark.parametrize(
    "build, calls",
    [(lambda: cycle_family(5, STRENGTHS).walk(0.3), 0),
     (lambda: matrix_schrodinger_family().walk(0.3), 1),
     # equal cycles give every value twice: the eig path takes them
     (lambda: two_cycle3_family().walk(0.0), 1)],
    ids=["cycle5", "ms", "two-cycle3-eps0"],
)
def test_only_a_permutation_with_distinct_values_skips_eig(monkeypatch, build, calls):
    walk = build()
    seen = spy_on(monkeypatch, "eig")
    eigen_decompose(walk)
    assert len(seen) == calls


# ---------------------------------------------------------------------------
# Periodic interiors through their level product


def rotation_line_walk(positions):
    strengths = (0.8, 0.7, 0.6, 0.75, 0.65)
    spec = BarrierSpec(positions, tuple(rotation_coin(r) for r in strengths[: len(positions)]))
    graph, coins = line_to_graph(spec)
    return assemble(graph, eval_coins(coins, 0.0))


def bipartite_haar_walk(seed=0, half=10, n_arcs=100):
    """Haar coins on a digraph whose arcs alternate between two vertex sets.

    Every closed walk alternates, so the arc digraph has period 2 (a
    2-cycle is among them) with as many arcs out of each set as into it.
    At seed 0 no cluster's condition exceeds 2.2; at seed 11 one reaches
    59, and there the eig path's own projector is off by ~4e-12.
    """
    rng = np.random.default_rng(seed)
    a, b = [f"a{i}" for i in range(half)], [f"b{i}" for i in range(half)]
    walks = [[v for pair in zip(a, b) for v in pair], [a[0], b[3]]]
    while sum(map(len, walks)) < n_arcs:
        steps = min(13, (n_arcs - sum(map(len, walks))) // 2)
        walks.append([v for _ in range(steps) for v in (a[rng.integers(half)], b[rng.integers(half)])])
    arcs = [(w[i], w[(i + 1) % len(w)]) for w in walks for i in range(len(w))]
    tails = [(k + 1, v, v) for k, v in enumerate(rng.choice(a + b, 4, replace=False).tolist())]
    graph = build_graph(a + b, arcs, tails)
    return assemble(graph, {v: _haar_unitary(rng, graph.degree(v)) for v in graph.vertices})


# name -> (the walk, its period): a line's period is twice the gcd of its gaps
PERIODIC_WALKS = {
    "line-0-5-13": (lambda: rotation_line_walk((0, 5, 13)), 2),
    "line-0-7-15-34": (lambda: rotation_line_walk((0, 7, 15, 34)), 2),
    "line-0-30-60-100-150": (lambda: rotation_line_walk((0, 30, 60, 100, 150)), 20),
    "line-0-30-61": (lambda: rotation_line_walk((0, 30, 61)), 2),
    "line-0-30-60": (lambda: rotation_line_walk((0, 30, 60)), 60),
    "bipartite-haar": (bipartite_haar_walk, 2),
}


def spy_shapes(monkeypatch, name):
    """Record the matrix shape of every array handed to ``np.linalg.<name>``."""
    seen = []
    original = getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        seen.append(np.shape(a)[-2:])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return seen


@pytest.mark.parametrize("name", sorted(PERIODIC_WALKS))
def test_level_product_matches_the_eig_path(monkeypatch, name):
    build, period = PERIODIC_WALKS[name]
    walk = build()
    n = walk.n_interior
    seen = spy_shapes(monkeypatch, "eig")
    closed = eigen_decompose(walk)
    assert seen == [(n // period, n // period)]  # the level product's alone
    monkeypatch.setattr(spectral, "_periodic_eig", spectral._eig_pairs)
    reference = eigen_decompose(walk)
    assert seen == [(n // period, n // period), (n, n)]
    assert_matches_the_eig_path(closed, reference)


def not_strongly_connected():
    """Two period-2 lines, one arc from the first into the second's next level class."""
    first = np.asarray(rotation_line_walk((0, 5, 13)).interior)
    second = np.asarray(three_barrier_line_walk().interior)
    (_, arcs_first), = spectral._levels(first.real)
    (_, arcs_second), = spectral._levels(second.real)
    a = np.zeros((52, 52), dtype=complex)
    a[:26, :26], a[26:, 26:] = first, second
    a[26 + arcs_second[13], arcs_first[0]] = 0.5  # level class 0 feeds class 1
    return bare(a)


def tiny_root_level_product():
    """A period-2 interior whose 2 x 2 level product has a value 1e-9 below its norm.

    ``eig`` resolves that value of P only to ~u, so its square roots, two
    of the interior's values, would be off by ~u / 1e-4.5: the lift's
    residual check sends the interior to ``eig``.
    """
    def rotation(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    a = np.zeros((4, 4))
    a[2:, :2] = rotation(0.3) @ np.diag([1.0, 1e-9]) @ rotation(1.1)
    a[:2, 2:] = rotation(0.7)
    return bare(a)


def two_equal_lines():
    a = np.asarray(three_barrier_line_walk().interior)
    return bare(np.kron(np.eye(2), a))


def singular_level_product():
    """A period-2 interior whose first level block has rank one.

    Its level product is singular, so the closed form declines; ``eig``
    finds 0 twice, on one eigenvector: a Jordan chain of length 2.
    """
    a = np.zeros((4, 4))
    a[2:, :2] = [[0.5, 0.5], [0.5, 0.5]]
    a[:2, 2:] = [[0.6, -0.8], [0.8, 0.6]]
    return bare(a)


def underflowing_cycle():
    """A 40-cycle of weight 1e-9: its weight product 1e-360 underflows to 0."""
    return bare(1e-9 * np.roll(np.eye(40), 1, axis=0))


@pytest.mark.parametrize(
    "build",
    [lambda: matrix_schrodinger_family().walk(0.3),  # level classes of 2 and 4 arcs
     lambda: random_walk(np.random.default_rng(105)),  # period 1
     not_strongly_connected,
     two_equal_lines,  # every value twice
     tiny_root_level_product,
     singular_level_product,
     underflowing_cycle],
    ids=["ms", "haar-digraph-period-1", "not-strongly-connected", "two-equal-lines", "tiny-root",
         "singular-level-product", "underflowing-cycle"],
)
def test_other_interiors_keep_their_eig(monkeypatch, build):
    walk = build()
    n = walk.interior.shape[0]
    seen = spy_shapes(monkeypatch, "eig")
    system = eigen_decompose(walk)
    # equal lines decompose one by one before their values are found to coincide
    assert seen[-1] == (n, n) and seen.count((n, n)) == 1
    assert sum(system.multiplicity.tolist()) == n


def test_a_singular_level_product_decomposes_into_a_jordan_chain_at_zero():
    system = eigen_decompose(singular_level_product())
    zero = system.zero_cluster()
    assert zero.multiplicity == 2 and zero.lengths == (2,)


def test_level_search_needs_strong_connectivity():
    a = np.asarray(not_strongly_connected().interior).real
    assert spectral._levels(a[:26, :26]) is not None
    assert spectral._levels(a) is None


def weighted_permutation(succ, weights):
    """Arc ``j`` feeds arc ``succ[j]`` with weight ``weights[j]``."""
    weights = np.asarray(weights)
    a = np.zeros((len(succ),) * 2, dtype=weights.dtype)
    a[succ, np.arange(len(succ))] = weights
    return a


def cycles_of(succ):
    """Each cycle of the map ``succ``, from its lowest arc, in order of that arc."""
    out, seen = [], set()
    for head in range(len(succ)):
        if head not in seen:
            cycle = [head]
            while succ[cycle[-1]] != head:
                cycle.append(succ[cycle[-1]])
            seen.update(cycle)
            out.append((len(cycle), cycle))
    return out


def random_permutations():
    rng = np.random.default_rng(7)
    for n in list(range(1, 13)) * 4:
        weights = rng.uniform(0.1, 2, n) * rng.choice([-1, 1], n)
        if rng.random() < 0.5:
            weights = weights * np.exp(2j * np.pi * rng.random(n))
        yield rng.permutation(n).tolist(), weights


# cycles of lengths 1 (arc 3), 2 (0, 6) and 5 (1, 4, 7, 2, 5), interleaved
INTERLEAVED = [6, 4, 5, 3, 7, 1, 0, 2]


@pytest.mark.parametrize(
    "succ, weights",
    [(INTERLEAVED, np.exp(1j * np.arange(1, 9)) * np.linspace(0.3, 1.0, 8)), ([0], [0.5])]
    + list(random_permutations()),
)
def test_the_level_search_finds_a_weighted_permutations_cycles(succ, weights):
    assert spectral._levels(weighted_permutation(succ, weights)) == cycles_of(succ)


def test_a_zero_column_or_a_repeated_successor_is_no_permutation():
    a = weighted_permutation(INTERLEAVED, np.linspace(0.3, 1.0, 8))
    a[:, 4] = 0  # arc 4 feeds no arc
    assert spectral._levels(a) is None
    repeated = list(INTERLEAVED)
    repeated[1] = repeated[0]  # arcs 0 and 1 both feed arc 6, and no arc feeds arc 4
    assert spectral._levels(weighted_permutation(repeated, np.linspace(0.3, 1.0, 8))) is None


def test_a_zero_column_beside_a_doubled_one_is_no_permutation():
    # one nonzero per arc on average, but arc 0 feeds no arc and arc 1 feeds two
    a = weighted_permutation([0, 1, 2], [1.0, 1.0, 1.0])
    a[0, 0], a[2, 1] = 0.0, 1.0
    assert spectral._levels(a) is None


# ---------------------------------------------------------------------------
# A stack of walks decomposes as each walk alone


def assert_same_bits(got, want):
    """Every array of two systems, the pole basis's too, equal byte for byte and laid out alike."""
    pairs = [(name, getattr(got, name), getattr(want, name)) for name in (
        "matrix", "values", "right", "left_h", "emission", "pickup", "multiplicity", "lengths",
        "on_unit_circle", "condition_bound", "condition")]
    pairs += [(f"poles.{name}", getattr(got.poles, name), getattr(want.poles, name))
              for name in ("values", "right", "left_h", "emission", "pickup")]
    for name, a, b in pairs:
        assert (a.dtype, a.shape, a.strides, a.tobytes()) == (b.dtype, b.shape, b.strides, b.tobytes()), name
    assert got.poles.links == want.poles.links


def phased_ms_file(tmp_path):
    """ms with a phase on one coin, as a model file: complex coins, on the eig path."""
    doc = model_to_dict(matrix_schrodinger_family().graph, matrix_schrodinger_family().coins)
    doc["coins"]["L+"] = [[f"exp(0.3*i)*({entry})" for entry in row] for row in doc["coins"]["L+"]]
    path = tmp_path / "phased_ms.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return family_from_file(str(path))


STACKED_FAMILIES = {
    "ms": lambda tmp_path: matrix_schrodinger_family(),
    "cycle3": lambda tmp_path: cycle_family(3, [0.9, 0.4, 0.7]),
    "cycle4": lambda tmp_path: cycle_family(4, [1.02, 0.97, 1.0, 0.96]),
    "cycle8": lambda tmp_path: cycle_family(8, STRENGTHS + STRENGTHS[:3]),
    "crossing": lambda tmp_path: crossing_family(0.8),
    "phased-ms-file": phased_ms_file,
}


@pytest.mark.parametrize("name", sorted(STACKED_FAMILIES))
def test_a_stacked_grid_decomposes_as_each_eps_alone(tmp_path, name):
    family = STACKED_FAMILIES[name](tmp_path)
    walks = [family.walk(eps) for eps in default_eps_grid()]
    if name == "phased-ms-file":
        assert all(np.iscomplexobj(w.interior) and np.count_nonzero(w.interior.imag) for w in walks)
    stack = eigen_decompose(walks)
    assert len(stack) == len(walks)
    for walk, system in zip(walks, stack):
        assert_same_bits(system, eigen_decompose(walk))


def fixture_walks():
    """The suite's fixtures: real, permutation, periodic and staircase walks and random digraphs."""
    walks = [build() for build in REAL_WALKS.values()]
    walks += [build() for build in PERMUTATION_WALKS.values()]
    walks += [build() for build, _ in PERIODIC_WALKS.values()]
    walks += [bare(jordan_example()), bare(coupled_jordan_example()), two_cycles_walk(),
              jordan_walk_with_tails(), bare(staircase(1e-5)), singular_level_product(),
              two_equal_lines(), tiny_root_level_product(), underflowing_cycle(), not_strongly_connected()]
    return walks + [random_walk(np.random.default_rng(seed)) for seed in range(100, 106)]


def test_a_stack_of_every_fixture_decomposes_as_each_walk_alone():
    walks = fixture_walks()
    stack = eigen_decompose(walks + walks[::-1])
    for k, walk in enumerate(walks + walks[::-1]):
        assert_same_bits(stack[k], eigen_decompose(walk))


def test_a_mixed_stack_keeps_each_walks_system_and_error():
    # eps = 0 with on-circle clusters, a closed form, closed-form values that
    # coincide (eig takes them), a staircase, and two that raise: each member
    # is its walk alone, and a failure is raised when that member is read
    chained = bare(np.diag([1.0, 1.0 + 0.9e-8, 1.0 + 1.8e-8, 1.0 + 2.7e-8]))
    walks = [matrix_schrodinger_family().walk(0.0), bare(staircase(1e-7)),
             cycle_family(5, STRENGTHS).walk(0.3), two_cycle3_family().walk(0.0), chained,
             jordan_walk_with_tails(), bare(staircase(1e-5)), singular_level_product()]
    stack = eigen_decompose(walks)
    raised = {}
    for k, walk in enumerate(walks):
        try:
            alone = eigen_decompose(walk)
        except spectral.NumericalError as exc:
            with pytest.raises(type(exc)) as read:
                stack[k]
            assert str(read.value) == str(exc)
            raised[k] = type(exc)
        else:
            assert_same_bits(stack[k], alone)
    assert raised == {1: IllConditionedChain, 4: ClusterAmbiguity}
    assert stack[0].on_unit_circle.any()
    assert stack[3].multiplicity.max() == 2
    assert max(stack[5].lengths) == max(stack[7].lengths) == 2


def spy_groups(monkeypatch):
    """The number of walks in each ``_decompose_group`` call."""
    sizes, original = [], spectral._decompose_group

    def spy(walks, *args):
        sizes.append(len(walks))
        return original(walks, *args)

    monkeypatch.setattr(spectral, "_decompose_group", spy)
    return sizes


def assert_each_walk_alone(stack, walks):
    """Each member of ``stack`` is its walk's system, or raises its walk's error, decomposed alone."""
    for k, walk in enumerate(walks):
        try:
            alone = eigen_decompose(walk)
        except spectral.NumericalError as exc:
            with pytest.raises(type(exc)) as read:
                stack[k]
            assert str(read.value) == str(exc)
        else:
            assert_same_bits(stack[k], alone)


def test_a_failing_member_sends_its_group_walk_by_walk(monkeypatch):
    # one dtype and sparsity pattern: one group, decomposed once as a stack;
    # the second member raises there, so each walk is decomposed alone
    walks = [bare(staircase(1e-5)), bare(staircase(1e-7))]
    sizes = spy_groups(monkeypatch)
    stack = eigen_decompose(walks)
    assert sizes == [2, 1, 1]
    assert_each_walk_alone(stack, walks)
    with pytest.raises(IllConditionedChain):
        stack[1]


def upper_triangular(diagonal, fill):
    """A walk on the eig path: an upper-triangular interior, whose arc digraph is not strongly connected."""
    return bare(np.diag(diagonal) + np.triu(np.full((len(diagonal),) * 2, fill), 1))


def test_a_singular_basis_blames_the_value_nearest_another(monkeypatch):
    # alone, a walk whose inv fails names the cluster value nearest another
    # one; a group whose inv fails is decomposed walk by walk, each naming its own
    walks = [upper_triangular([0.1, 0.5, 0.52, 0.9], 0.1), upper_triangular([0.2, 0.9, 0.35, 0.85], 0.3)]
    assert [eigen_decompose(walk).values.tolist() for walk in walks] == [
        [0.1, 0.5, 0.52, 0.9], [0.2, 0.35, 0.85, 0.9]]

    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    for walk, nearest in zip(walks, [0.5, 0.85]):
        with pytest.raises(IllConditionedChain) as alone:
            eigen_decompose(walk)
        assert str(alone.value) == str(IllConditionedChain(complex(nearest), math.inf))
    sizes = spy_groups(monkeypatch)
    stack = eigen_decompose(walks)
    assert sizes == [2, 1, 1]
    assert_each_walk_alone(stack, walks)
