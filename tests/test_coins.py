"""Tests for the coin-entry expression language and coin evaluation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwscatter.coins import (
    EvalError,
    ExprSyntaxError,
    NotUnitary,
    UNITARITY_TOL,
    const_expr,
    eval_coins,
    eval_matrix,
    parse,
    parse_coin_family,
)

EVAL_TOL = 1e-12


@pytest.mark.parametrize(
    "text, eps, expected",
    [
        ("1+2*3", 0.0, 7),
        ("(1+2)*3", 0.0, 9),
        ("2^3^2", 0.0, 64),  # left-associative, like the other operators
        ("-2^2", 0.0, -4),
        ("2^-1", 0.0, 0.5),
        ("eps", 0.25, 0.25),
        ("i", 0.0, 1j),
        ("pi", 0.0, math.pi),
        ("i^2", 0.0, -1),
        ("sqrt(1-eps^2)", 0.6, math.sqrt(1 - 0.36)),
        ("exp(i*pi)", 0.0, -1),
        ("cos(pi/3)", 0.0, 0.5),
        ("sin(pi/6)", 0.0, 0.5),
        ("1/2 - 3/4", 0.0, -0.25),
        ("exp(i*pi*eps)", 0.5, 1j),
        ("0.25e1", 0.0, 2.5),
    ],
)
def test_eval_against_direct_arithmetic(text, eps, expected):
    assert abs(parse(text).eval(eps) - expected) <= EVAL_TOL


def test_eval_returns_complex():
    value = parse("2").eval(0.0)
    assert isinstance(value, complex)


def test_sqrt_of_negative_is_imaginary():
    value = parse("sqrt(-1)").eval(0.0)
    assert abs(value**2 - (-1)) <= EVAL_TOL


@pytest.mark.parametrize(
    "text, position",
    [
        ("2*", 2),
        ("sqrt 4", 5),
        ("foo(eps)", 0),
        ("(1+eps", 6),
        ("eps)", 3),
        ("", 0),
        ("1..2", 2),
    ],
)
def test_syntax_error_positions(text, position):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert err.value.position == position


def test_division_by_zero_is_an_eval_error():
    expr = parse("1/eps")
    assert abs(expr.eval(0.5) - 2.0) <= EVAL_TOL
    with pytest.raises(EvalError):
        expr.eval(0.0)


def test_const_expr_prints_and_evals():
    e = const_expr(0.5 - 0.25j)
    assert abs(e.eval(0.7) - (0.5 - 0.25j)) == 0
    assert abs(parse(str(e)).eval(0.0) - (0.5 - 0.25j)) <= EVAL_TOL


_atoms = st.one_of(
    st.integers(min_value=0, max_value=9).map(str),
    st.sampled_from(["eps", "i", "pi", "0.5", "2.25"]),
)


def _combine(children):
    binary = st.tuples(children, st.sampled_from(" + - * /".split()), children).map(
        lambda t: f"({t[0]}{t[1]}{t[2]})"
    )
    call = st.tuples(st.sampled_from(["sqrt", "exp", "cos", "sin"]), children).map(
        lambda t: f"{t[0]}({t[1]})"
    )
    power = st.tuples(children, st.integers(min_value=0, max_value=3)).map(
        lambda t: f"({t[0]})^{t[1]}"
    )
    neg = children.map(lambda s: f"-({s})")
    return st.one_of(binary, call, power, neg)


expression_texts = st.recursive(_atoms, _combine, max_leaves=12)


@given(expression_texts, st.floats(min_value=0.0, max_value=0.9))
@settings(max_examples=80, deadline=None)
def test_print_parse_round_trip(text, eps):
    expr = parse(text)
    try:
        want = expr.eval(eps)
    except (EvalError, OverflowError):
        assume(False)
    assume(abs(want) < 1e6)
    again = parse(str(expr)).eval(eps)
    assert abs(again - want) <= 1e-9 * (1 + abs(want))


def test_parse_coin_family_and_eval():
    family = parse_coin_family(
        {
            "v": [
                ["sqrt(1-eps^2)", "eps"],
                ["-eps", "sqrt(1-eps^2)"],
            ]
        }
    )
    coins = eval_coins(family, 0.6)
    got = coins["v"]
    s = math.sqrt(1 - 0.36)
    assert np.allclose(got, np.array([[s, 0.6], [-0.6, s]]), atol=1e-12)


def test_eval_matrix_matches_entrywise_eval():
    grid = [[parse("eps"), parse("1-eps")], [parse("i*eps"), parse("0")]]
    m = eval_matrix(grid, 0.25)
    assert m.shape == (2, 2)
    assert m[0, 0] == 0.25
    assert m[1, 0] == 0.25j


def test_eval_coins_rejects_non_unitary():
    family = parse_coin_family({"v": [["1", "1"], ["0", "1"]]})
    with pytest.raises(NotUnitary):
        eval_coins(family, 0.0)


def test_unitarity_tolerance_is_tight():
    off = 10 * UNITARITY_TOL
    family = parse_coin_family({"v": [[f"1+{off}"]]})
    with pytest.raises(NotUnitary):
        eval_coins(family, 0.0)


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        parse_coin_family({"v": [["1", "0"], ["0"]]})


def test_rotation_family_is_unitary_on_a_grid():
    family = parse_coin_family(
        {
            "v": [
                ["sqrt(1-eps^2)", "eps"],
                ["-eps", "sqrt(1-eps^2)"],
            ]
        }
    )
    for eps in np.linspace(0.0, 0.99, 12):
        coins = eval_coins(family, float(eps))
        m = coins["v"]
        assert np.linalg.norm(m.conj().T @ m - np.eye(2)) <= UNITARITY_TOL
