"""Projective-space constructors and the q-line product table."""

from fractions import Fraction

from altfrob.linalg import Mat, charpoly, det
from altfrob.presaito import check_metric, check_pre_saito
from altfrob.projective import (
    build_pn,
    pn_small_family,
    qline_products,
    quotient_ring_products,
)
from altfrob.rings import Laurent, qlaurent

F = Fraction


def test_build_p1_matrices():
    P = build_pn(1)
    assert P.base == ()
    assert P.B0 == Mat([[P.const(0), P.const(2)], [P.const(2), P.const(0)]])
    assert P.Binf == Mat([[P.const(0), P.const(0)], [P.const(0), P.const(1)]])
    assert P.w == 1


def test_build_p3_metric_antidiagonal():
    P = build_pn(3)
    for i in range(4):
        for j in range(4):
            expected = P.const(1 if i + j == 3 else 0)
            assert P.G[i, j] == expected


def test_omega_is_cyclic_for_r0():
    for n in (1, 2, 3, 4):
        P = build_pn(n)
        vec = Mat.column([P.const(1 if i == 0 else 0) for i in range(n + 1)])
        cols = []
        for _ in range(n + 1):
            cols.append(vec.column_vector())
            vec = P.B0 @ vec
        K = Mat.from_columns(cols)
        assert det(K) != 0


def test_small_family_charpoly():
    for n in (1, 2, 3):
        fam = pn_small_family(n)
        cp = charpoly(fam.B0)
        expected = [Laurent.zero(("q",))] * (n + 2)
        expected[0] = Laurent.const(("q",), 1)
        expected[n + 1] = qlaurent([(1, -((n + 1) ** (n + 1)))])
        assert cp == expected


def test_small_family_checks_through_n6():
    for n in range(1, 7):
        fam = pn_small_family(n)
        assert check_pre_saito(fam).ok
        assert check_metric(fam).ok


def test_qline_products_match_quotient_ring():
    for n in (1, 2, 3, 4):
        assert qline_products(n) == quotient_ring_products(n)


def test_hyperplane_power_relation():
    # (d_{t_1} *)^{n+1} = q * identity
    for n in (1, 2, 3):
        mats = qline_products(n)
        M1 = mats[1]
        power = mats[n] @ M1
        q = Laurent.gen(("q",), "q")
        assert power == Mat.identity(n + 1, q)
