"""Tests for the builtin model families and their closed-form references."""

import math

import numpy as np
import pytest

from qwscatter.cli import load_family
from qwscatter.graph import from_finite_graph
from qwscatter.models import (
    EpsOutOfRange,
    closed_form_sigma_crossing,
    closed_form_sigma_cycle,
    closed_form_sigma_ms,
    crossing_family,
    cycle_family,
    matrix_schrodinger_family,
    partial_fraction_identity,
    random_walk,
)
from qwscatter.scattering import PoleHit, scattering_matrix
from qwscatter.spectral import boundary_data, resonance_set
from qwscatter.walk import assemble, free_routing_check

CLOSED_FORM_TOL = 1e-10

# high-precision reference for the 2x2 closed form at eps=0.3, z=e^{0.7i},
# evaluated symbolically and frozen
MS_REFERENCE = np.array(
    [
        [
            0.7062756117580395 - 0.7030527385640015j,
            0.05856657552644891 + 0.058835051326310416j,
        ],
        [
            0.05856657552644891 + 0.058835051326310416j,
            0.7062756117580395 - 0.7030527385640015j,
        ],
    ]
)


def test_ms_closed_form_matches_frozen_reference():
    got = closed_form_sigma_ms(0.3, np.exp(0.7j))
    assert np.abs(got - MS_REFERENCE).max() <= 1e-14


def test_ms_pipeline_matches_frozen_reference():
    walk = matrix_schrodinger_family().walk(0.3)
    sigma = scattering_matrix(walk, np.exp(0.7j)).matrix
    assert np.abs(sigma - MS_REFERENCE).max() <= CLOSED_FORM_TOL


@pytest.mark.parametrize("eps", [0.1, 0.35, 0.6])
def test_ms_pipeline_matches_closed_form_on_the_circle(eps):
    walk = matrix_schrodinger_family().walk(eps)
    for theta in np.linspace(0.05, 2 * np.pi, 17):
        z = np.exp(1j * theta)
        sigma = scattering_matrix(walk, z).matrix
        want = closed_form_sigma_ms(eps, z)
        assert np.abs(sigma - want).max() <= CLOSED_FORM_TOL


def test_ms_antidiagonal_at_plus_minus_i():
    for eps in (0.1, 0.3, 0.5):
        for sign in (1, -1):
            got = closed_form_sigma_ms(eps, sign * 1j)
            want = np.array([[0, -sign * 1j], [-sign * 1j, 0]])
            assert np.abs(got - want).max() <= 1e-14


def test_ms_closed_form_at_zero_coupling_is_a_delay():
    z = np.exp(0.9j)
    got = closed_form_sigma_ms(0.0, z)
    assert np.abs(got - np.diag([1 / z, 1 / z])).max() <= 1e-14


def test_ms_closed_form_pole_rejected():
    with pytest.raises(PoleHit):
        closed_form_sigma_ms(0.3, 0.0)
    hidden = 1j * math.sqrt(1 - 2 * 0.3**2)
    with pytest.raises(PoleHit):
        closed_form_sigma_ms(0.3, hidden)


def test_ms_eps_limit():
    fam = matrix_schrodinger_family()
    with pytest.raises(EpsOutOfRange):
        fam.walk(1 / math.sqrt(2))
    fam.walk(1 / math.sqrt(2) - 1e-9)  # boundary is open


def test_ms_routing_at_zero_coupling():
    routing = free_routing_check(matrix_schrodinger_family().walk(0.0))
    assert routing.steps == (2, 2)
    assert routing.phases == (1 + 0j, 1 + 0j)


def test_ms_spectrum_frozen():
    walk = matrix_schrodinger_family().walk(0.5)
    resonances, _ = resonance_set(walk)
    values = sorted(
        (r.value for r in resonances for _ in range(r.multiplicity)),
        key=lambda v: (round(v.real, 9), round(v.imag, 9)),
    )
    want = sorted(
        [0.0, 0.0, 1.0, -1.0, 0.70710678118654752j, -0.70710678118654752j],
        key=lambda v: (round(complex(v).real, 9), round(complex(v).imag, 9)),
    )
    assert max(abs(a - b) for a, b in zip(values, want)) <= 1e-10


def test_cycle_pipeline_matches_closed_form():
    rng = np.random.default_rng(2024)
    for n in (2, 3, 4, 5):
        strengths = (0.05 + 0.95 * rng.random(n)).tolist()
        fam = cycle_family(n, strengths)
        for eps in (0.08, 0.25):
            walk = fam.walk(eps)
            for theta in rng.uniform(0.0, 2 * np.pi, 6):
                z = np.exp(1j * theta)
                sigma = scattering_matrix(walk, z).matrix
                want = closed_form_sigma_cycle(n, strengths, eps, z)
                assert np.abs(sigma - want).max() <= CLOSED_FORM_TOL


def test_cycle_closed_form_at_zero_coupling_is_identity():
    got = closed_form_sigma_cycle(3, [0.4, 0.9, 0.2], 0.0, np.exp(0.3j))
    assert np.abs(got - np.eye(3)).max() <= 1e-14


def test_cycle_spectrum_frozen():
    walk = cycle_family(4, [1.0] * 4).walk(0.6)
    resonances, _ = resonance_set(walk)
    off = [r.value for r in resonances if abs(r.value) > 1e-9]
    want = [-0.8, -0.8j, 0.8, 0.8j]
    assert len(off) == 4
    for target in want:
        assert min(abs(v - target) for v in off) <= 1e-10
    for r in resonances:
        if abs(r.value) > 1e-9:
            assert r.multiplicity == 1


def test_cycle_eps_limit_depends_on_strengths():
    fam = cycle_family(3, [2.0, 0.5, 0.5])
    fam.walk(0.49)
    with pytest.raises(EpsOutOfRange):
        fam.walk(0.5)


def test_cycle_resonant_state_ratios():
    # interior and boundary values of the resonant pair follow fixed
    # ratios: phi(a_{l+1})/phi(a_l), out/interior and co-in/co-interior
    eps = 0.2
    strengths = [0.9, 0.5, 0.7]
    n = 3
    walk = cycle_family(n, strengths).walk(eps)
    _, system = resonance_set(walk)
    s = [math.sqrt(1 - (c * eps) ** 2) for c in strengths]
    for cluster in system.off_circle():
        if abs(cluster.value) <= 1e-9 or not cluster.is_simple:
            continue
        lam = cluster.value
        data = boundary_data(walk, cluster)
        phi = data.interior
        co = data.co_interior
        for l in range(n - 1):
            assert abs(phi[l + 1] / phi[l] - s[l] / lam) <= 1e-10
            assert abs(co[l + 1] / co[l] - np.conj(lam) / s[l]) <= 1e-10
        for l in range(n):
            assert abs(data.out_data[l] / phi[l] - (-eps * strengths[l] / lam)) <= 1e-10
            assert abs(
                data.in_data_co[l] / co[l] - eps * strengths[l] / s[l]
            ) <= 1e-10


def test_cycle_situation_one_full_swap():
    # two equal couplings, all others switched off: at z^N = 1 the two
    # active channels trade places exactly, the rest pass through
    n, j0, c1, eps = 4, 3, 0.7, 0.3
    strengths = [0.0] * n
    strengths[0] = c1
    strengths[j0 - 1] = c1
    walk = cycle_family(n, strengths).walk(eps)
    for z in (1.0, 1j, -1.0, -1j):
        sigma = scattering_matrix(walk, z).matrix
        want = np.eye(n, dtype=complex)
        want[:, 0] = 0.0
        want[:, j0 - 1] = 0.0
        want[j0 - 1, 0] = -(z ** (1 - j0))
        want[0, j0 - 1] = -(z ** (j0 - 1))
        assert np.abs(sigma - want).max() <= 10 * eps**2


def test_cycle_situation_two_single_channel():
    # channel 1 balanced against all the others: its direct return is
    # second order and the leakage amplitudes are -c_l / (c_1 z^{l-1})
    n = 4
    strengths = [1.0, 0.6, 0.8, 0.0]
    eps = 0.05
    walk = cycle_family(n, strengths).walk(eps)
    for z in (1.0, 1j, -1.0, -1j):
        sigma = scattering_matrix(walk, z).matrix
        assert abs(sigma[0, 0]) <= 10 * eps**2
        for l in range(2, n + 1):
            want = -strengths[l - 1] / (strengths[0] * z ** (l - 1))
            assert abs(sigma[l - 1, 0] - want) <= 10 * eps**2


def test_cycle_situation_two_combined_profile():
    # the matched incoming profile drains into channel 1 completely
    n = 4
    strengths = [1.0, 0.6, 0.8, 0.0]
    c1 = strengths[0]
    eps = 0.05
    walk = cycle_family(n, strengths).walk(eps)
    tau = math.prod(math.sqrt(1 - (c * eps) ** 2) for c in strengths)
    taus = np.cumprod([1.0] + [math.sqrt(1 - (c * eps) ** 2) for c in strengths])
    for k in range(n):
        z = np.exp(2j * np.pi * k / n)
        alpha = np.zeros(n, dtype=complex)
        for ln in range(2, n + 1):
            alpha[ln - 1] = (
                strengths[ln - 1]
                * tau ** ((ln - 1) / n)
                / (c1 * taus[ln - 1])
                * z ** (-(ln - 1))
            )
        sigma = scattering_matrix(walk, z).matrix
        out = sigma @ alpha
        want = np.zeros(n, dtype=complex)
        want[0] = -1.0
        assert np.abs(out - want).max() <= 10 * eps**2


def test_cycle_situation_three_balanced_split():
    # equal coupling weight on both sides of the split: the matched
    # profile leaves entirely through the complementary channels
    n = 4
    strengths = [0.6, 0.8, 0.8, 0.6]
    split = (1, 2)
    c = math.sqrt(sum(strengths[j - 1] ** 2 for j in split))
    assert abs(c - 1.0) <= 1e-12
    eps = 0.05
    walk = cycle_family(n, strengths).walk(eps)
    tau = math.prod(math.sqrt(1 - (s * eps) ** 2) for s in strengths)
    taus = np.cumprod([1.0] + [math.sqrt(1 - (s * eps) ** 2) for s in strengths])
    for k in range(n):
        z = np.exp(2j * np.pi * k / n)
        alpha = np.zeros(n, dtype=complex)
        for ln in split:
            alpha[ln - 1] = (
                strengths[ln - 1]
                * tau ** ((ln - 1) / n)
                / (c * taus[ln - 1])
                * z ** (-(ln - 1))
            )
        out = scattering_matrix(walk, z).matrix @ alpha
        want = np.zeros(n, dtype=complex)
        for ln in range(1, n + 1):
            if ln not in split:
                # exit amplitudes carry the channel weight and the phase
                # accumulated on the way around
                want[ln - 1] = -strengths[ln - 1] / c * z ** (1 - ln)
        assert np.abs(out - want).max() <= 10 * eps**2


def test_crossing_closed_form_is_exact():
    fam = crossing_family(0.8)
    for eps in (0.1, 0.5, 1.0):
        walk = fam.walk(eps)
        for z in (np.exp(0.3j), np.exp(2.5j), 0.6 * np.exp(1j)):
            sigma = scattering_matrix(walk, z).matrix
            want = closed_form_sigma_crossing(eps, z, 0.8)
            assert np.abs(sigma - want).max() <= 1e-12


def test_crossing_interior_stays_on_circle():
    walk = crossing_family(1.0).walk(0.7)
    resonances, _ = resonance_set(walk)
    assert sorted(round(abs(r.value), 12) for r in resonances) == [1.0, 1.0]
    assert all(r.on_unit_circle for r in resonances)


def test_partial_fraction_frozen_point():
    lhs, rhs = partial_fraction_identity(4, 2, 0.9, np.exp(1j * np.pi / 7))
    want = -0.6933571330322927 - 2.36934547811257j
    assert abs(lhs - want) <= 1e-12
    assert abs(rhs - want) <= 1e-12


def test_partial_fraction_high_power_case():
    n = 4
    lhs, rhs = partial_fraction_identity(n, n, 1.0, 2.0)
    want = n * 2.0 ** (n - 1) / (2.0**n - 1)
    assert abs(lhs - want) <= 1e-12
    assert abs(rhs - want) <= 1e-12


def test_partial_fraction_random_tuples():
    rng = np.random.default_rng(99)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, n + 1))
        c = float(0.05 + 1.95 * rng.random())
        z = (c + 0.2 + rng.random()) * np.exp(2j * np.pi * rng.random())
        lhs, rhs = partial_fraction_identity(n, p, c, z)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_partial_fraction_pole_rejected():
    with pytest.raises(PoleHit):
        partial_fraction_identity(4, 2, 1.0, 1.0)


def test_builtin_registry():
    # the builtin names are load_family's branches, each one constructor
    fam = load_family("cycle", 3, "0.5")
    assert fam.graph.n_tails == 3
    for loaded, built in [
        (fam, cycle_family(3, [0.5, 0.5, 0.5])),
        (load_family("ms", None, None), matrix_schrodinger_family()),
        (load_family("crossing", None, "0.8"), crossing_family(0.8)),
    ]:
        assert loaded.name == built.name
        got, want = loaded.walk(0.3).full, built.walk(0.3).full
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_ms_model_from_finite_graph():
    # the same model arises from a closed 8-arc graph cut open at two
    # boundary vertices; the walk operators agree entry by entry
    fam = matrix_schrodinger_family()
    g2 = from_finite_graph(
        ["L-", "L+", "R+", "R-", "bL", "bR"],
        [
            ("L-", "L+"),
            ("L+", "R+"),
            ("R+", "R-"),
            ("R-", "L-"),
            ("L+", "L-"),
            ("R-", "R+"),
            ("bL", "L+"),
            ("L-", "bL"),
            ("bR", "R-"),
            ("R+", "bR"),
        ],
        ["bL", "bR"],
    )
    assert g2.n_arcs == 6
    assert g2.n_tails == 2
    assert [t.in_vertex for t in g2.tails] == ["L+", "R-"]
    assert [t.out_vertex for t in g2.tails] == ["L-", "R+"]
    eps = 0.3
    from qwscatter.coins import eval_coins

    coins = eval_coins(fam.coins, eps)
    w1 = fam.walk(eps)
    w2 = assemble(g2, coins, eps=eps)
    assert np.abs(w1.full - w2.full).max() <= 1e-15


@pytest.mark.parametrize("seed", range(6))
def test_random_walks_are_valid(seed):
    walk = random_walk(np.random.default_rng(seed))
    assert walk.isometry_residual() <= 1e-12
    resonances, _ = resonance_set(walk)
    assert sum(r.multiplicity for r in resonances) == walk.n_interior
