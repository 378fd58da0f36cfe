"""Acceptance gate: one test, and one printed pass line, per criterion.

Every check here is exact rational arithmetic; the only tolerances are the
wall-clock budgets on criteria 1, 2, and 5.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from altfrob.deform import (
    expand_trivial_in_log,
    gw_pn2,
    hm_extend,
    potential,
    trivial_deformation_problem,
    universal_big_quantum,
    wdvv_oracle,
)
from altfrob.grassmann import (
    alt_metric,
    alt_structure_constants,
    complement_partition,
    rimhook_oracle,
)
from altfrob.linalg import Mat, charpoly
from altfrob.mirror import (
    compare_quantum_gm,
    gm_wedge,
    jacobian_algebra,
    mirror_brieskorn,
    mirror_f,
    mult_f_matrix,
    subset_sum_charpoly,
    ts_tensor,
)
from altfrob.presaito import check_metric, check_pre_saito, wedge
from altfrob.projective import build_pn, pn_small_family
from altfrob.rings import Laurent

Q = Laurent(("q",), {(1,): Fraction(1)})
ONE = Laurent.const(("q",), 1)
ZERO = Laurent.zero(("q",))

GRASSMANN_RANGE = [(r, n) for r in (1, 2, 3) for n in range(r, 6)]


def _stamp(num: int, label: str, t0: float, bound: float | None = None) -> None:
    dt = time.perf_counter() - t0
    print(f"criterion {num}: PASS  {label}  ({dt:.2f}s)")
    if bound is not None:
        assert dt < bound, f"criterion {num} took {dt:.2f}s, budget {bound}s"


def _table_product(table, factors):
    acc = {factors[0]: ONE}
    for nxt in factors[1:]:
        out: dict = {}
        for nu, cf in acc.items():
            for rho, cf2 in table.product(nu, nxt).items():
                out[rho] = out.get(rho, ZERO) + cf * cf2
        acc = {k: v for k, v in out.items() if not v.is_zero()}
    return acc


def test_criterion_01_relation_suite():
    t0 = time.perf_counter()
    for n in range(1, 7):
        fam = pn_small_family(n)
        assert fam.w == n
        rep = check_pre_saito(fam)
        assert rep.ok, f"n={n}: {rep.first_witness()}"
        rep = check_metric(fam)
        assert rep.ok, f"n={n}: {rep.first_witness()}"
    _stamp(1, "pn_small_family(1..6) satisfies the flatness and metric axioms",
           t0, bound=5.0)


def test_criterion_02_grassmann_oracle_equivalence():
    t0 = time.perf_counter()
    for r, n in GRASSMANN_RANGE:
        assert alt_structure_constants(r, n) == rimhook_oracle(r, n), (r, n)
    table = alt_structure_constants(2, 3)
    assert table.product((2,), (1, 1)) == {(): Q}
    assert table.product((1,), (2, 1)) == {(2, 2): ONE, (): Q}
    assert table.product((2,), (2,)) == {(2, 2): ONE}
    _stamp(2, "alternate product equals the rim-hook oracle for r <= 3, n <= 5",
           t0, bound=60.0)


def test_criterion_03_positivity_and_associativity():
    t0 = time.perf_counter()
    for r, n in GRASSMANN_RANGE:
        table = alt_structure_constants(r, n)
        for key, cf in table.entries.items():
            for _, c in cf.terms.items():
                assert c.denominator == 1 and c >= 0, (key, c)
        basis = table.basis()
        rng = random.Random(300 + 10 * r + n)
        for _ in range(100):
            a, b, c = (rng.choice(basis) for _ in range(3))
            left = _table_product(table, [a, b, c])
            right_inner = _table_product(table, [b, c])
            right: dict = {}
            for nu, cf in right_inner.items():
                for rho, cf2 in table.product(a, nu).items():
                    right[rho] = right.get(rho, ZERO) + cf * cf2
            right = {k: v for k, v in right.items() if not v.is_zero()}
            assert left == right, (r, n, a, b, c)
    _stamp(3, "coefficients are nonnegative integers; 100 seeded triples "
              "per (r, n) associate", t0)


def test_criterion_04_g23_is_quantum_p2():
    t0 = time.perf_counter()
    table = alt_structure_constants(2, 2)
    assert _table_product(table, [(1,), (1,), (1,)]) == {(): Q}

    fam = pn_small_family(2)
    mult = fam.B0.map(lambda x: x * Fraction(1, 3))
    assert fam.C["q"] == mult.map(lambda x: x * Fraction(-1))
    assert mult @ mult @ mult == Mat.diag([Q, Q, Q])
    _stamp(4, "G(2,3) gives sigma_1 cubed = q, matching the plane's "
              "degree-1 multiplication", t0)


def test_criterion_05_big_quantum_plane():
    t0 = time.perf_counter()
    F = universal_big_quantum(pn_small_family(2), 9)
    phi = potential(F, (1, 0, 0))
    t2 = F.svars.index("t2")
    counts = []
    for d in (1, 2, 3):
        exps = tuple((3 * d - 1) if i == t2 else 0 for i in range(len(F.svars)))
        cv = phi.coeff(exps)
        split = {e[0]: c for e, c in cv.terms.items()} if cv is not None else {}
        nd = split.get(d, Fraction(0)) * math.factorial(3 * d - 1)
        assert nd.denominator == 1, d
        counts.append(int(nd))
    assert counts == [1, 1, 12]
    assert counts == wdvv_oracle(3)
    assert gw_pn2(3) == counts
    _stamp(5, "big-quantum plane potential yields N = [1, 1, 12] = WDVV oracle",
           t0, bound=600.0)


def test_criterion_06_hertling_manin_closed_form():
    t0 = time.perf_counter()
    for n in (1, 2):
        P = build_pn(n)
        got = hm_extend(trivial_deformation_problem(P, (1,) + (0,) * n, order=8))
        want = expand_trivial_in_log(P, order=8)
        assert got.B0 == want.B0, n
        assert got.C["y"] == want.C["y"], n
        assert got.Binf == want.Binf, n
        assert check_pre_saito(got).ok and check_metric(got).ok, n
    _stamp(6, "the extension recursion reproduces the trivial deformation "
              "of the line and the plane through order 8", t0)


def test_criterion_07_mirror_identification():
    t0 = time.perf_counter()
    for n in range(1, 5):
        J = jacobian_algebra(mirror_f(n))
        assert J.dim == n + 1, n
        M = mult_f_matrix(J)
        rows = [[ZERO] * (n + 1) for _ in range(n + 1)]
        for k in range(n):
            rows[k + 1][k] = Laurent.const(("q",), n + 1)
        rows[0][n] = Q * (n + 1)
        expected = Mat(rows)
        assert M == expected, n
        assert M == pn_small_family(n).B0, n
    _stamp(7, "torus-mirror Jacobian algebras have dimension n+1 and the "
              "displayed multiplication matrices for n <= 4", t0)


def test_criterion_08_quantum_vs_gauss_manin():
    t0 = time.perf_counter()
    for n in range(1, 5):
        for r in range(1, n + 1):
            rep = compare_quantum_gm(r, n)
            assert rep.ok, f"(r, n) = ({r}, {n}): {rep.first_witness()}"

    z3_plus_27q = [ONE, ZERO, ZERO, Q * 27]
    wedge_mirror = gm_wedge(mirror_brieskorn(2), 2)
    assert charpoly(wedge_mirror.R0) == z3_plus_27q
    assert charpoly(wedge(pn_small_family(2), 2).B0) == z3_plus_27q

    lattices = [mirror_brieskorn(n) for n in range(1, 5)]
    lattices.append(ts_tensor(mirror_brieskorn(1), mirror_brieskorn(1)))
    for B in lattices:
        p = charpoly(B.R0)
        for r in range(1, B.rank + 1):
            assert subset_sum_charpoly(p, r) == charpoly(gm_wedge(B, r).R0)
    _stamp(8, "wedge Gauss-Manin matches the quantum side for r <= n <= 4, "
              "with the subset-sum oracle on every lattice", t0)


def test_criterion_09_metric_normalization():
    t0 = time.perf_counter()
    for r, n in ((2, 4), (2, 3)):
        pm = alt_metric(r, n)
        for lam in pm.labels:
            for mu in pm.labels:
                expected = Fraction(1 if mu == complement_partition(lam, r, n) else 0)
                assert pm.entry(lam, mu) == expected, (r, n, lam, mu)
    for n in range(1, 5):
        for r in range(1, n + 1):
            W = wedge(build_pn(n), r)
            assert W.w == r * n, (r, n)
            rep = check_metric(W)
            assert rep.ok, f"(r, n) = ({r}, {n}): {rep.first_witness()}"
    _stamp(9, "the induced pairing is +1 exactly on complementary pairs, with "
              "R0 self-adjoint and Rinf + Rinf* = -rn id on every wedge", t0)
