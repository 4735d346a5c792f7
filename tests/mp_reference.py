"""An extended-precision reference for the tests: a family's coins, carrier,
scattering matrix and interior spectrum in mpmath, sharing nothing with the
package below its expression trees and graphs."""

import operator

import mpmath

from qwscatter.coins import Add, Call, Const, Div, Eps, Mul, Neg, Num, Pow, Sub

_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def mp_value(expr, eps):
    """An expression tree at ``eps`` (an mpf), in the working precision of mpmath."""
    kind = type(expr)
    if kind is Num:
        return mpmath.mpf(expr.value)
    if kind is Const:
        return mpmath.mpc(0, 1) if expr.name == "i" else +mpmath.pi
    if kind is Eps:
        return eps
    if kind is Neg:
        return -mp_value(expr.arg, eps)
    if kind is Pow:
        return mp_value(expr.base, eps) ** expr.exponent
    if kind is Call:
        return getattr(mpmath, expr.fn)(mp_value(expr.arg, eps))
    return _BINARY[kind](mp_value(expr.lhs, eps), mp_value(expr.rhs, eps))


def mp_carrier(family, eps):
    """The carrier matrix of ``family`` at ``eps``: entry (b, a) is the coin entry
    of the vertex where arc ``a`` ends and arc ``b`` begins."""
    graph, eps = family.graph, mpmath.mpf(eps)
    full = mpmath.zeros(graph.carrier_dim, graph.carrier_dim)
    for vertex, grid in family.coins.items():
        ins = [graph.slot_index(key) for key in graph.in_slots(vertex)]
        outs = [graph.slot_index(key) for key in graph.out_slots(vertex)]
        for b, row in zip(outs, grid):
            for a, entry in zip(ins, row):
                full[b, a] = mp_value(entry, eps)
    return full


def _block(full, rows, cols):
    return mpmath.matrix([[full[r, c] for c in cols] for r in rows])


def mp_blocks(family, eps):
    """The interior M and the tail blocks T_ti, T_it and T_tt of the carrier."""
    full = mp_carrier(family, eps)
    n0, nt = family.graph.n_arcs, family.graph.n_tails
    interior, tails_in, tails_out = range(n0), range(n0, n0 + nt), range(n0 + nt, n0 + 2 * nt)
    return (_block(full, interior, interior), _block(full, interior, tails_in),
            _block(full, tails_out, interior), _block(full, tails_out, tails_in))


def mp_sigma(family, eps, z):
    """Σ(z) = T_tt + T_it (z - M)^-1 T_ti, solved by LU, column by column, in the working precision."""
    interior, tail_to_interior, interior_to_tail, tail_to_tail = mp_blocks(family, eps)
    shifted = mpmath.mpc(z) * mpmath.eye(interior.rows) - interior
    solved = mpmath.matrix(interior.rows, tail_to_interior.cols)
    for j in range(tail_to_interior.cols):
        column = mpmath.lu_solve(shifted, tail_to_interior.column(j))
        for i in range(interior.rows):
            solved[i, j] = column[i]
    return tail_to_tail + interior_to_tail * solved


def mp_resonances(family, eps):
    """The eigenvalues of the interior, by ``mpmath.eig``."""
    return mpmath.eig(mp_blocks(family, eps)[0], left=False, right=False)
