"""Tests for eigenvalue clustering, Jordan chains, and resonance data."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from qwscatter.models import cycle_family, matrix_schrodinger_family, random_walk
from qwscatter.spectral import (
    ClusterAmbiguity,
    NotSimple,
    ZeroCluster,
    _cluster_indices,
    boundary_data,
    eigen_decompose,
    resonance_set,
)

CHAIN_TOL = 1e-8
PROJ_TOL = 1e-8


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


def test_chained_merge_is_ambiguous():
    values = np.array([0.0, 0.09, 0.18, 0.27], dtype=complex)
    with pytest.raises(ClusterAmbiguity):
        _cluster_indices(values, 0.1)


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
    from qwscatter.graph import build_graph
    from qwscatter.walk import assemble

    g = build_graph(["u"], [("u", "u")], [(1, "u", "u")])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    walk = assemble(g, {"u": swap})
    _, system = resonance_set(walk)
    zero = system.zero_cluster()
    assert zero is not None and zero.is_simple
    with pytest.raises(ZeroCluster):
        boundary_data(walk, zero)


def test_degenerate_cluster_rejected():
    # two decoupled interior 2-cycles make +-1 doubly degenerate
    from qwscatter.graph import build_graph
    from qwscatter.walk import assemble

    g = build_graph(
        ["a", "b"],
        [("a", "b"), ("b", "a"), ("a", "b"), ("b", "a")],
        [(1, "a", "a")],
    )
    coins = {"a": np.eye(3, dtype=complex), "b": np.eye(2, dtype=complex)}
    walk = assemble(g, coins)
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
