"""Matrices, charpoly, exact solves, tensor and wedge constructions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altfrob.linalg import (
    AmbiguousSystem,
    divide_exact,
    Mat,
    NoSolution,
    charpoly,
    det,
    inv_field,
    inv_laurent,
    inv_series,
    kron,
    kron_sum,
    rank_field,
    solve_field,
    wedge_indices,
    wedge_metric,
    wedge_of_sum,
)
from altfrob.rings import Laurent, Series, qlaurent


F = Fraction
QV = ("q",)


def series_gen(svars, order, name):
    return Series.gen(svars, order, name, Laurent.const(QV, 1))


def test_charpoly_jordan_block():
    M = Mat([[F(1), F(1)], [F(0), F(1)]])
    assert charpoly(M) == [F(1), F(-2), F(1)]


def test_charpoly_offdiagonal():
    M = Mat([[F(0), F(2)], [F(2), F(0)]])
    assert charpoly(M) == [F(1), F(0), F(-4)]


def test_charpoly_reads_int_entries_as_fractions():
    # a diagonal-only update must not leave int entries off the diagonal
    cp = charpoly(Mat([[1, 2, 0], [3, 4, 1], [0, -1, 2]]))
    assert cp == [1, -7, 9, 3]
    assert all(type(c) is Fraction for c in cp)


def test_charpoly_quantum_plane_cube():
    # companion-style matrix with corner entry 3q scaled by 3
    z = Laurent.zero(("q",))
    three = Laurent.const(("q",), 3)
    corner = qlaurent([(1, 3)])
    M = Mat([[z, z, corner], [three, z, z], [z, three, z]])
    cp = charpoly(M)
    assert cp == [Laurent.const(("q",), 1), z, z, qlaurent([(1, -27)])]


def test_det_antidiagonal():
    G = Mat([[F(0), F(0), F(1)], [F(0), F(1), F(0)], [F(1), F(0), F(0)]])
    assert det(G) == F(-1)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=9, max_size=9))
def test_cayley_hamilton(entries):
    M = Mat([[F(entries[3 * i + j]) for j in range(3)] for i in range(3)])
    c = charpoly(M)
    acc = Mat.identity(3, F(0))
    power = Mat.identity(3, F(1))
    for coeff in reversed(c):
        acc = acc + power.scale(coeff)
        power = power @ M
    assert acc.is_zero()


def test_solve_field_unique():
    A = Mat([[F(2), F(1)], [F(1), F(3)]])
    b = Mat.column([F(5), F(10)])
    x = solve_field(A, b)
    assert x.column_vector() == (F(1), F(3))


def test_solve_field_inconsistent():
    A = Mat([[F(1), F(1)], [F(2), F(2)]])
    b = Mat.column([F(1), F(3)])
    with pytest.raises((NoSolution, AmbiguousSystem)):
        solve_field(A, b)


def test_solve_field_underdetermined():
    A = Mat([[F(1), F(1)], [F(2), F(2)]])
    b = Mat.column([F(1), F(2)])
    with pytest.raises(AmbiguousSystem):
        solve_field(A, b)


def test_inv_field_rational():
    A = Mat([[F(2), F(1)], [F(1), F(1)]])
    Ainv = inv_field(A)
    assert (A @ Ainv) == Mat.identity(2, F(1))


def test_solve_and_inv_over_laurent():
    q = Laurent.gen(("q",), "q")
    one = Laurent.const(("q",), 1)
    z = Laurent.zero(("q",))
    A = Mat([[q, one], [z, q]])
    # A has determinant q^2, a unit, so W is the inverse and s = 1
    W, s = inv_laurent(A)
    assert s == 1
    assert A @ W == Mat.identity(2, one)
    assert (W @ Mat.column([q * q, q])).column_vector() == (q - q ** -1, one)
    # determinant 1 - q^2 is not a unit: W is the adjugate, s the determinant
    B = Mat([[one, q], [q, one]])
    W, s = inv_laurent(B)
    assert s == one - q * q
    assert B @ W == Mat.identity(2, s)
    # B x = (1 + q^2, 2q) has the solution x = (1, q) over Q[q, 1/q]
    x = divide_exact(W @ Mat.column([one + q * q, q * 2]), s)
    assert x.column_vector() == (one, q)
    assert divide_exact(W @ Mat.column([one, z]), s) is None
    with pytest.raises(ZeroDivisionError, match="singular matrix"):
        inv_laurent(Mat([[one, q], [q, q * q]]))


def test_rank_field():
    A = Mat([[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]])
    assert rank_field(A) == 2
    assert rank_field(Mat([[1, 2], [3, 4]])) == 2


def test_inv_series_neumann():
    one = Series.const(("x",), 3, Laurent.const(QV, 1))
    x, zero = series_gen(("x",), 3, "x"), one * 0
    M = Mat([[one, x], [zero, one]])
    Minv, s = inv_series(M)
    ident = Mat([[one, zero], [zero, one]])
    assert s == 1
    assert (M @ Minv) == ident
    assert Minv[0, 1] == -x


def test_inv_series_with_q_constant_slice():
    q = Series.const(("x",), 2, Laurent.gen(QV, "q"))
    x = series_gen(("x",), 2, "x")
    M = Mat([[q + x]])
    Minv, s = inv_series(M)
    assert s == 1
    assert (M @ Minv)[0, 0] == Series.const(("x",), 2, Laurent.const(QV, 1))


@pytest.mark.parametrize("order", [0, 1, 3])
def test_inv_series_with_non_unit_determinant(order):
    svars = ("x", "y")
    one = Series.const(svars, order, Laurent.const(QV, 1))
    q = Series.const(svars, order, Laurent.gen(QV, "q"))
    x, y = series_gen(svars, order, "x"), series_gen(svars, order, "y")
    # the constant slice [[1, q], [q, 1]] has determinant 1 - q^2
    M = Mat([[one + x, q], [q + y, one - x * y]])
    W, s = inv_series(M)
    delta = Laurent.const(("q",), 1) - Laurent.gen(("q",), "q", 2)
    # N = -A M_+ has a nonzero power N^order, so s = delta^(order + 1)
    assert s == delta ** (order + 1)
    assert M @ W == Mat.identity(2, Series.const(svars, order, s))
    assert W @ M == Mat.identity(2, Series.const(svars, order, s))


def test_inv_series_of_zero_matrix_is_singular():
    zero = Series.zero(("x",), 2)
    with pytest.raises(ZeroDivisionError, match="singular matrix"):
        inv_series(Mat([[zero, zero], [zero, zero]]))


def test_kron_and_kron_sum_on_diagonals():
    A = Mat.diag([F(2), F(3)])
    B = Mat.diag([F(5), F(7)])
    K = kron(A, B)
    assert [K[i, i] for i in range(4)] == [F(10), F(14), F(15), F(21)]
    S = kron_sum(A, B)
    assert [S[i, i] for i in range(4)] == [F(7), F(9), F(8), F(10)]


def test_wedge_indices_order():
    assert wedge_indices(4, 2) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_wedge_of_sum_diagonal():
    B = Mat.diag([F(0), F(1), F(2), F(3)])
    W = wedge_of_sum(B, 2)
    assert [W[i, i] for i in range(6)] == [F(1), F(2), F(3), F(3), F(4), F(5)]
    off = [W[i, j] for i in range(6) for j in range(6) if i != j]
    assert all(v == 0 for v in off)


def test_wedge_of_sum_offdiagonal_sign():
    # B maps e_0 -> e_2 only; on e_0 ^ e_1 this gives e_2 ^ e_1 = -(e_1 ^ e_2)
    B = Mat([[F(1) if (i, j) == (2, 0) else F(0) for j in range(3)] for i in range(3)])
    W = wedge_of_sum(B, 2)
    basis = wedge_indices(3, 2)
    i_01, i_12 = basis.index((0, 1)), basis.index((1, 2))
    assert W[i_12, i_01] == F(-1)


def test_wedge_metric_antidiagonal_pairs():
    # with the reflection-invariant base pairing G_{ij} = [i + j == 3], the
    # wedge pairing is +1 exactly on reflected index pairs J = {3 - i: i in I}
    G = Mat([[F(1) if i + j == 3 else F(0) for j in range(4)] for i in range(4)])
    W = wedge_metric(G, 2)
    basis = wedge_indices(4, 2)
    for a, I in enumerate(basis):
        for b, J in enumerate(basis):
            expected = F(1) if J == tuple(sorted(3 - i for i in I)) else F(0)
            assert W[a, b] == expected, (I, J)


@pytest.mark.parametrize("d", range(1, 6))
def test_wedge_metric_is_the_signed_minors(d):
    # the definition by minors, (-1)^(r(r-1)/2) * det(G[I, J]), as the oracle
    rng = random.Random(d)
    G = Mat([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
             for _ in range(d)])
    for r in range(1, d + 1):
        basis = wedge_indices(d, r)
        sign = (-1) ** (r * (r - 1) // 2)
        minors = Mat([[sign * det(Mat([[G[i, j] for j in J] for i in I]))
                       for J in basis] for I in basis])
        assert wedge_metric(G, r) == minors
