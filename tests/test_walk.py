"""Tests for walk-operator assembly, its blocks, and zero-coupling routing."""

import numpy as np
import pytest

import qwscatter.models as models
from qwscatter.coins import eval_coins
from qwscatter.graph import build_graph
from qwscatter.line import BarrierSpec, line_to_graph, rotation_coin
from qwscatter.models import (
    crossing_family,
    cycle_family,
    matrix_schrodinger_family,
    random_walk,
)
from qwscatter.walk import (
    DimensionMismatch,
    LabelMismatch,
    NotDeterministic,
    assemble,
    free_routing_check,
    free_scattering_matrix,
)

ISOMETRY_TOL = 1e-12


def ms_walk(eps=0.3):
    return matrix_schrodinger_family().walk(eps)


def test_assemble_records_eps():
    w = ms_walk(0.3)
    assert w.eps == 0.3


def test_blocks_tile_the_full_matrix():
    w = ms_walk(0.3)
    n, t = w.n_interior, w.n_tails
    full = w.full
    assert np.array_equal(w.interior, full[:n, :n])
    assert np.array_equal(w.tail_to_interior, full[:n, n : n + t])
    assert np.array_equal(w.interior_to_tail, full[n + t :, :n])
    assert np.array_equal(w.tail_to_tail, full[n + t :, n : n + t])
    assert w.interior.shape == (6, 6)
    assert w.tail_to_interior.shape == (6, 2)
    assert w.interior_to_tail.shape == (2, 6)
    assert w.tail_to_tail.shape == (2, 2)


def test_walk_is_an_isometry_on_its_domain():
    w = ms_walk(0.45)
    assert w.isometry_residual() <= ISOMETRY_TOL
    n, t = w.n_interior, w.n_tails
    dom = w.full[:, : n + t]
    gram = dom.conj().T @ dom
    assert np.abs(gram - np.eye(n + t)).max() <= ISOMETRY_TOL


def test_outgoing_columns_are_dead():
    # nothing flows out of the outgoing-tail slots back into the graph
    w = ms_walk(0.45)
    n, t = w.n_interior, w.n_tails
    assert np.abs(w.full[:, n + t :]).max() == 0.0


def test_incoming_rows_are_dead():
    # nothing is ever written onto an incoming-tail slot
    w = ms_walk(0.45)
    n, t = w.n_interior, w.n_tails
    assert np.abs(w.full[n : n + t, :]).max() == 0.0


def test_norm_preserved_on_random_states():
    rng = np.random.default_rng(11)
    w = ms_walk(0.6)
    n, t = w.n_interior, w.n_tails
    for _ in range(25):
        state = np.zeros(w.graph.carrier_dim, dtype=complex)
        state[: n + t] = rng.normal(size=n + t) + 1j * rng.normal(size=n + t)
        out = w.apply(state)
        assert abs(np.linalg.norm(out) - np.linalg.norm(state)) <= 1e-10


@pytest.mark.parametrize("seed", range(12))
def test_random_models_assemble_to_isometries(seed):
    w = random_walk(np.random.default_rng(seed))
    assert w.isometry_residual() <= ISOMETRY_TOL


def test_missing_coin_rejected():
    g = build_graph(["u", "v"], [("u", "v"), ("v", "u")], [(1, "u", "u")])
    with pytest.raises(DimensionMismatch):
        assemble(g, {"u": np.eye(2)})


def test_wrong_coin_shape_rejected():
    g = build_graph(["u", "v"], [("u", "v"), ("v", "u")], [(1, "u", "u")])
    with pytest.raises(DimensionMismatch):
        assemble(g, {"u": np.eye(3), "v": np.eye(1)})


def assemble_by_entry(graph, coin_matrices):
    """The carrier matrix placed one coin entry at a time."""
    dim = graph.carrier_dim
    full = np.zeros((dim, dim), dtype=complex)
    for v in graph.vertices:
        ins, outs = graph.in_slots(v), graph.out_slots(v)
        coin = np.asarray(coin_matrices[v], dtype=complex)
        for r, out_key in enumerate(outs):
            for c, in_key in enumerate(ins):
                full[graph.slot_index(out_key), graph.slot_index(in_key)] = coin[r, c]
    return full


def haar_coins(graph, rng):
    coins = {}
    for v in graph.vertices:
        d = len(graph.in_slots(v))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        coins[v] = q
    return coins


@pytest.mark.parametrize(
    "arcs, tails",
    [
        # a self-loop at u, and two parallel arcs each way between u and v
        (
            [("u", "u"), ("u", "v"), ("u", "v"), ("v", "u"), ("v", "u")],
            [(1, "u", "u"), (2, "v", "v")],
        ),
        # tails entering at one vertex and leaving at another
        ([("u", "v"), ("v", "u"), ("v", "w")], [(1, "u", "w"), (2, "v", "u")]),
        # two self-loops at w, one tail anchored at each end of an arc pair
        ([("w", "w"), ("w", "w"), ("u", "w"), ("w", "u")], [(2, "w", "u"), (1, "u", "w")]),
    ],
    ids=["self-loop-parallel", "tails-across", "double-self-loop"],
)
def test_one_indexed_assignment_places_every_coin_entry(arcs, tails):
    vertices = sorted({a for arc in arcs for a in arc[:2]})
    graph = build_graph(vertices, arcs, tails)
    coins = haar_coins(graph, np.random.default_rng(len(arcs)))
    full = assemble(graph, coins).full
    assert np.array_equal(full, assemble_by_entry(graph, coins))
    assert not graph.coin_entries[0].flags.writeable
    assert graph.coin_entries is graph.coin_entries


@pytest.mark.parametrize(
    "coins, message",
    [
        ({"u": np.eye(2)}, "no coin given for vertex 'v'"),
        ({"u": np.eye(3), "v": np.eye(1)},
         "coin at vertex 'u' has shape (3, 3), but the vertex has 2 incoming and 2 outgoing slots"),
    ],
    ids=["missing", "shape"],
)
def test_dimension_mismatch_names_the_vertex(coins, message):
    g = build_graph(["u", "v"], [("u", "v"), ("v", "u")], [(1, "u", "u")])
    with pytest.raises(DimensionMismatch) as raised:
        assemble(g, coins)
    assert str(raised.value) == message


def test_ms_routing():
    routing = free_routing_check(ms_walk(0.0))
    assert routing.steps == (2, 2)
    assert routing.phases == (1 + 0j, 1 + 0j)


def test_cycle_routing_is_immediate():
    w = cycle_family(3, [0.5, 0.5, 0.5]).walk(0.0)
    routing = free_routing_check(w)
    assert routing.steps == (1, 1, 1)
    assert routing.phases == (1 + 0j, 1 + 0j, 1 + 0j)


def test_free_scattering_matrix_is_diagonal_delay():
    routing = free_routing_check(ms_walk(0.0))
    z = np.exp(0.37j)
    sigma = free_scattering_matrix(routing, z)
    assert np.allclose(sigma, np.diag([z**-1, z**-1]), atol=1e-14)


def test_routing_phase_is_collected():
    # a single self-loop traversed with amplitude -1 on the way through
    g = build_graph(["u"], [("u", "u")], [(1, "u", "u")])
    coin = np.array([[0.0, 1.0], [-1.0, 0.0]])  # tail -> loop, loop -> -tail
    routing = free_routing_check(assemble(g, {"u": coin}))
    assert routing.steps == (2,)
    assert routing.phases == (-1 + 0j,)


def test_split_amplitude_is_not_deterministic():
    g = build_graph(["u"], [("u", "u")], [(1, "u", "u")])
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    with pytest.raises(NotDeterministic):
        free_routing_check(assemble(g, {"u": h}))


def test_crossed_tails_are_a_label_mismatch():
    g = build_graph(["u"], [], [(1, "u", "u"), (2, "u", "u")])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(LabelMismatch):
        free_routing_check(assemble(g, {"u": swap}))


def scanned_carrier(graph, coins):
    """The carrier matrix with each vertex's slots found by scanning every arc and tail."""
    full = np.zeros((graph.carrier_dim, graph.carrier_dim), dtype=complex)
    for v in graph.vertices:
        ins = [("arc", i) for i, a in enumerate(graph.arcs) if a.terminus == v]
        ins += [("in", t.index) for t in graph.tails if t.in_vertex == v]
        outs = [("arc", i) for i, a in enumerate(graph.arcs) if a.origin == v]
        outs += [("out", t.index) for t in graph.tails if t.out_vertex == v]
        for r, out_key in enumerate(outs):
            for c, in_key in enumerate(ins):
                full[graph.slot_index(out_key), graph.slot_index(in_key)] = coins[v][r, c]
    return full


def family_inputs(family):
    return family.graph, eval_coins(family.coins, 0.3)


def barrier_line_inputs():
    spec = BarrierSpec((0, 7, 19), (rotation_coin(0.8), rotation_coin(0.6), rotation_coin(0.3)))
    graph, coins = line_to_graph(spec)
    return graph, eval_coins(coins, 0.0)


def haar_digraph_inputs(monkeypatch):
    seen = []

    def spy(graph, coins, eps=None):
        seen.append((graph, coins))
        return assemble(graph, coins, eps)

    monkeypatch.setattr(models, "assemble", spy)
    random_walk(np.random.default_rng(11), max_vertices=9, max_cycles=6, max_tails=3)
    return seen[0]


@pytest.mark.parametrize(
    "inputs",
    [
        lambda mp: family_inputs(matrix_schrodinger_family()),
        lambda mp: family_inputs(cycle_family(5, [0.9, 1.0, 0.7, 1.1, 0.8])),
        lambda mp: family_inputs(crossing_family(0.8)),
        lambda mp: barrier_line_inputs(),
        haar_digraph_inputs,
    ],
    ids=["ms", "cycle5", "crossing", "barrier-line", "haar-digraph"],
)
def test_assembly_matches_a_scan_of_every_arc(monkeypatch, inputs):
    # the per-vertex slot lists are built once per graph, in one pass over
    # the arcs; each call still hands out a list of its own to edit
    graph, coins = inputs(monkeypatch)
    assert np.array_equal(assemble(graph, coins).full, scanned_carrier(graph, coins))
    assert graph.in_slots(graph.vertices[0]) is not graph.in_slots(graph.vertices[0])
