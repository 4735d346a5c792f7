"""Tests for the coin-entry expression language and coin evaluation."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwscatter.coins import (
    Add,
    Call,
    CoinProgram,
    Const,
    Div,
    Eps,
    EvalError,
    ExprSyntaxError,
    Mul,
    Neg,
    NotUnitary,
    Num,
    Pow,
    Sub,
    UNITARITY_TOL,
    const_expr,
    eval_coins,
    eval_matrix,
    parse,
    parse_coin_family,
)
from qwscatter.line import near_reflective_coin
from qwscatter.modelfile import load_model, save_model
from qwscatter.models import matrix_schrodinger_family

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


NEAR_REFLECTIVE = {
    "v": [
        ["exp(-1/eps)", "sqrt(1 - exp(-2/eps))"],
        ["-sqrt(1 - exp(-2/eps))", "exp(-1/eps)"],
    ]
}


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
def test_an_exponentially_flat_coin_is_the_mirror_at_eps_zero(eps):
    # exp(c/eps) with c < 0 takes its limit 0 at eps = 0, as the module promises
    coin = eval_coins(parse_coin_family(NEAR_REFLECTIVE), eps)["v"]
    assert np.abs(coin - near_reflective_coin(1.0, eps)).max() <= EVAL_TOL


@pytest.mark.parametrize(
    "text", ["exp(-(1/eps))", "exp(2*(-1/eps))", "exp((-1/eps)*2)", "exp((-1/eps)/2)", "exp(-1/eps^2)"]
)
def test_a_negative_divergence_carries_through_to_exp(text):
    # the divergence passes Neg, Mul on either side and Div with its sign
    assert parse(text).eval(0.0) == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("exp(1/eps)", "without a negative real limit"),
        ("exp(i/eps)", "without a negative real limit"),
        ("exp(-1/eps)/eps", "division by zero"),
    ],
)
def test_any_other_divergence_at_eps_zero_is_an_eval_error(text, message):
    with pytest.raises(EvalError, match=message):
        parse(text).eval(0.0)


def test_const_expr_prints_and_evals():
    e = const_expr(0.5 - 0.25j)
    assert abs(e.eval(0.7) - (0.5 - 0.25j)) == 0
    assert abs(parse(str(e)).eval(0.0) - (0.5 - 0.25j)) <= EVAL_TOL


@pytest.mark.parametrize("value, text", [(-0.25j, "-(0.25*i)"), (0.5 + 0.25j, "0.5 + 0.25*i")])
def test_const_expr_signs_print_eval_and_round_trip(value, text, tmp_path):
    # a negative pure imaginary is negated, a positive imaginary part added
    e = const_expr(value)
    assert str(e) == text
    assert e.eval(0.7) == value
    assert parse(str(e)).eval(0.0) == value
    # as a coin entry, through a model file on disk
    fam = matrix_schrodinger_family()
    (_, b), second = fam.coins["L+"]
    coins = dict(fam.coins, **{"L+": ((e, b), second)})
    path = str(tmp_path / "entry.json")
    save_model(fam.graph, coins, path)
    loaded = load_model(path)[1]["L+"][0][0]
    assert str(loaded) == text
    assert loaded.eval(0.3) == value


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


def test_eval_coins_rejects_a_nan_residual():
    family = parse_coin_family({"v": [["sqrt(1-eps^2)", "eps"], ["-eps", "sqrt(1-eps^2)"]]})
    with pytest.raises(NotUnitary):
        eval_coins(family, float("nan"))


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_eval_coins_rejects_a_non_finite_coin_before_forming_its_gram(eps):
    # warnings are errors here, so a matmul over inf or NaN entries would
    # raise RuntimeWarning instead of NotUnitary
    family = parse_coin_family({"u": [["1"]], "v": [["eps", "0"], ["0", "1"]], "w": [["eps"]]})
    with pytest.raises(NotUnitary) as info:
        eval_coins(family, eps)
    assert info.value.vertex == "v" and math.isnan(info.value.residual)


@pytest.mark.parametrize(
    "raw, vertex",
    [
        # a 3x3 coin off by 0.5 comes first in family order, a non-finite 2x2 later
        ({"a": [["1", "0"], ["0", "1"]], "b": [["1.5", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
          "c": [["eps", "0"], ["0", "1"]]}, "b"),
        # the non-finite 2x2 first, then the 3x3 off by 0.5
        ({"c": [["eps", "0"], ["0", "1"]], "a": [["1", "0"], ["0", "1"]],
          "b": [["1.5", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}, "c"),
        # two bad coins of one size: the later one is further off
        ({"a": [["1"]], "b": [["1", "0.1"], ["0", "1"]], "c": [["2", "0"], ["0", "1"]]}, "b"),
        # a 1x1 coin off by 0.5, checked padded to 3x3, before a 3x3 off by 0.5
        ({"a": [["1", "0"], ["0", "1"]], "d": [["1.5"]],
          "b": [["1.5", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}, "d"),
    ],
    ids=["size-3-first", "non-finite-first", "same-size", "size-1-padded"],
)
def test_eval_coins_names_the_first_failing_vertex_in_family_order(raw, vertex):
    family = parse_coin_family(raw)
    coin = eval_matrix(family[vertex], math.inf)
    with pytest.raises(NotUnitary) as info:
        eval_coins(family, math.inf)
    assert info.value.vertex == vertex
    if np.isfinite(coin).all():
        want = np.abs(coin.conj().T @ coin - np.eye(coin.shape[0])).max()
        assert info.value.residual == want
    else:
        assert math.isnan(info.value.residual)


@pytest.mark.parametrize("grid", [[0.0, 0.3, 0.1], [0.0, 0.5, 0.3]], ids=["division-first", "unitarity-first"])
def test_eval_coins_on_an_array_raises_the_first_failing_eps_as_it_fails_alone(grid):
    # 0/0 at eps = 0.3; the coin 1 + eps is not unitary at 0.1 and 0.5
    family = parse_coin_family({"v": [["(eps - 0.3)/(eps - 0.3)"]], "w": [["1 + eps"]]})
    assert eval_coins(family, np.array([0.0, 0.0])).values.tolist() == [[1, 1], [1, 1]]
    with pytest.raises(ValueError) as alone:
        eval_coins(family, grid[1])
    with pytest.raises(type(alone.value)) as stacked:
        eval_coins(family, np.array(grid))
    assert str(stacked.value) == str(alone.value)


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


# ---------------------------------------------------------------------------
# The scalar interpreter that evaluated coins before they were compiled, kept
# as the reference every compiled value and error is checked against


class _Diverging(Exception):
    """A subexpression is c/0; carries c."""

    def __init__(self, numerator):
        self.numerator = numerator


def reference_eval(expr, eps):
    try:
        return _reference(expr, complex(eps))
    except _Diverging:
        raise EvalError("division by zero") from None
    except (OverflowError, ZeroDivisionError) as exc:
        raise EvalError(str(exc)) from None


def _reference(e, eps):
    if isinstance(e, Num):
        return complex(e.value)
    if isinstance(e, Const):
        return 1j if e.name == "i" else complex(cmath.pi)
    if isinstance(e, Eps):
        return eps
    if isinstance(e, Neg):
        try:
            return -_reference(e.arg, eps)
        except _Diverging as d:
            raise _Diverging(-d.numerator) from None
    if isinstance(e, (Add, Sub)):
        left, right = _reference(e.lhs, eps), _reference(e.rhs, eps)
        return left + right if isinstance(e, Add) else left - right
    if isinstance(e, Mul):
        try:
            left = _reference(e.lhs, eps)
        except _Diverging as d:
            factor = _reference(e.rhs, eps)  # a second divergence falls through
            raise _Diverging(d.numerator * factor) from None
        try:
            right = _reference(e.rhs, eps)
        except _Diverging as d:
            raise _Diverging(d.numerator * left) from None
        return left * right
    if isinstance(e, Div):
        den = _reference(e.rhs, eps)
        if den == 0:
            raise _Diverging(_reference(e.lhs, eps))
        try:
            num = _reference(e.lhs, eps)
        except _Diverging as d:
            raise _Diverging(d.numerator / den) from None
        return num / den
    if isinstance(e, Pow):
        return _reference(e.base, eps) ** e.exponent
    if e.fn == "exp":
        try:
            value = _reference(e.arg, eps)
        except _Diverging as d:
            if d.numerator.imag == 0 and d.numerator.real < 0:
                return 0j  # exp(c/eps) with c < 0, limit eps -> 0+
            raise EvalError("exp of a diverging argument without a negative real limit") from None
        return cmath.exp(value)
    return getattr(cmath, e.fn)(_reference(e.arg, eps))


# literals that reach every formula's edge: both zeros, which equality of
# frozen dataclasses merges, subnormals, overflow for exp and powers
FUZZ_LITERALS = [0.0, -0.0, 0.5, 1.0, 2.0, 3.25, 1e-5, 1e-320, 1e300, 700.0, 710.0]
FUZZ_EPS = [0.0, -0.0, 0.5, 1.0, 2.0, 1e-300, 800.0, math.inf, math.nan]


def random_tree(rng, depth):
    """A random expression over every node kind, literals, i and pi, both signs of
    integer powers (past CPython's limit of 100 too) and each function."""
    if depth == 0 or rng.random() < 0.25:
        pick = rng.random()
        if pick < 0.35:
            return Eps()
        return Const(rng.choice(["i", "pi"])) if pick < 0.5 else Num(rng.choice(FUZZ_LITERALS))
    kind = rng.randrange(8)
    if kind == 0:
        return Neg(random_tree(rng, depth - 1))
    if kind <= 4:
        return (Add, Sub, Mul, Div)[kind - 1](random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind == 5:
        return Pow(random_tree(rng, depth - 1), rng.choice([-101, -3, -2, -1, 0, 1, 2, 3, 5, 7, 101]))
    return Call(rng.choice(["sqrt", "exp", "cos", "sin"]), random_tree(rng, depth - 1))


def outcome(fn, *args):
    """A value as the bits of its two parts (any NaN as NaN), or an error as its type and message."""
    try:
        value = complex(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return tuple("nan" if math.isnan(part) else part.hex() for part in (value.real, value.imag))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_eps", [1, 7, 25])
def test_compiled_evaluation_keeps_the_scalar_interpreters_bits(seed, n_eps):
    # every value bit for bit, and every error (a division by zero, the
    # exp(c/eps) limit and its refusal, 0 to a negative power, overflow) in
    # type, message and eps, over stacks with eps = 0 among them
    rng = random.Random(1000 * seed + n_eps)
    for _ in range(60):
        entries = [random_tree(rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 6))]
        eps = [rng.choice(FUZZ_EPS) if rng.random() < 0.3 else rng.uniform(-2, 2) for _ in range(n_eps)]
        eps[rng.randrange(n_eps)] = 0.0
        values, errors = CoinProgram({"v": [entries]}).evaluate(np.array(eps))
        for k, at in enumerate(eps):
            want = [outcome(reference_eval, entry, at) for entry in entries]
            first = next((w for w in want if isinstance(w[0], type)), None)
            if first is not None:
                assert (type(errors[k]), str(errors[k])) == first, (entries, at)
                continue
            assert errors[k] is None, (entries, at)
            assert [outcome(complex, value) for value in values[k]] == want, (entries, at)


def test_signed_zero_literals_stay_apart():
    # Num(0.0) == Num(-0.0), but the two entries keep their own signs
    assert Num(0.0) == Num(-0.0) == const_expr(-0.0)
    values, _ = CoinProgram({"v": [[Num(0.0), const_expr(-0.0), Mul(Num(-0.0), Eps())]]}).evaluate(np.array([0.5]))
    assert [math.copysign(1, v.real) for v in values[0]] == [1, -1, -1]


@pytest.mark.parametrize("n_eps", [1, 7])
def test_a_negative_power_of_zero_fails_with_cpythons_message(n_eps):
    with pytest.raises(ZeroDivisionError) as zero:
        complex(0) ** -2
    program = CoinProgram({"v": [[parse("eps^-2"), parse("eps")]]})
    values, errors = program.evaluate(np.linspace(0.0, 0.5, n_eps))
    assert type(errors[0]) is EvalError and str(errors[0]) == str(zero.value)
    assert errors[1:] == [None] * (n_eps - 1)
