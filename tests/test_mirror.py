"""Torus mirrors, Jacobian quotients, and wedge spectra."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altfrob.linalg import Mat, charpoly, kron_sum, row_reduce, wedge_indices, wedge_of_sum
from altfrob.mirror import (
    NotTame,
    _box_echelon,
    _flag_monomials,
    _grading,
    _mirror_brieskorn,
    _poly_str,
    compare_quantum_gm,
    convenience_witness,
    is_convenient,
    jacobian_algebra,
    kouchnirenko_bound,
    mirror_brieskorn,
    mirror_f,
    mult_f_matrix,
    subset_sum_charpoly,
    torus_relations,
    torus_vars,
)
from altfrob.presaito import (check_pre_saito, dumps_family, family_from_json, family_to_json,
                              loads_family, tensor, wedge)
from altfrob.projective import pn_small_family
from altfrob.rings import Laurent

QV = ("q",)
ONE = Laurent.const(QV, 1)
ZERO = Laurent.zero(QV)
Q = Laurent.gen(QV, "q")


def qc(c):
    return Laurent.const(QV, c)


def torus_poly(n, terms):
    """The Laurent polynomial sum c * u^e over (q, u1..un), from {e: c}."""
    return Laurent(torus_vars(n), {(0,) + e: Fraction(c) for e, c in terms.items()})


# 2u + 3q/u, whose Jacobian relation u^2 = (3/2)q needs a non-unit pivot
SCALED_LINE = torus_poly(1, {(1,): 2}) + Laurent(torus_vars(1), {(1, -1): Fraction(3)})
# u1 + u2 + q/(u1 u2^2): deg u1 = deg u2 = 1, deg q = 4
WEIGHTED_PLANE = torus_poly(2, {(1, 0): 1, (0, 1): 1}) + Laurent(torus_vars(2),
                                                                 {(1, -1, -2): Fraction(1)})


class TestTorusLaurent:
    def test_mirror_terms(self):
        f = mirror_f(2)
        assert f.vars == ("q", "u1", "u2")
        assert f.terms == {(0, 1, 0): 1, (0, 0, 1): 1, (1, -1, -1): 1}

    def test_relations_are_binomial(self):
        for rel in torus_relations(mirror_f(3)):
            assert len(rel.terms) == 2

    def test_logderiv(self):
        f = mirror_f(2)
        assert torus_relations(f)[0].terms == {(0, 1, 0): 1, (1, -1, -1): -1}


class TestConvenience:
    def test_mirror_is_convenient(self):
        for n in range(1, 6):
            assert is_convenient(mirror_f(n))

    def test_single_monomial_is_not(self):
        assert not is_convenient(torus_poly(1, {(1,): 1}))
        assert not is_convenient(torus_poly(3, {(1, 2, 1): 1}))

    def test_half_space_support(self):
        # u1 + u2 + 1/u1: the second coordinate never goes negative
        f = torus_poly(2, {(1, 0): 1, (0, 1): 1, (-1, 0): 1})
        witness = convenience_witness(f)
        assert witness is not None and "one side" in witness

    def test_rank_deficient_support(self):
        f = torus_poly(2, {(1, 0): 1, (-1, 0): 1})
        assert "rank 1" in convenience_witness(f)

    def test_kouchnirenko_bound(self):
        for n in range(1, 6):
            assert kouchnirenko_bound(mirror_f(n)) == n + 1
        with pytest.raises(ValueError, match="simplex"):
            kouchnirenko_bound(torus_poly(1, {(1,): 1, (-1,): 1, (2,): 1}))


class TestJacobianAlgebra:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mirror_dimension_and_flag_basis(self, n):
        J = jacobian_algebra(mirror_f(n), expected_dim=n + 1)
        assert J.dim == n + 1
        expected = [(0,) * n] + [(0,) * (k - 1) + (-1,) * (n - k + 1)
                                 for k in range(1, n + 1)]
        assert list(J.basis) == expected
        assert J.dressing == (0,) + (1,) * n

    def test_not_convenient_raises(self):
        with pytest.raises(ValueError, match="not convenient"):
            jacobian_algebra(torus_poly(1, {(1,): 1}))

    def test_double_cover_of_the_line(self):
        J = jacobian_algebra(torus_poly(1, {(1,): 1, (-1,): 1}))
        assert J.dim == 2
        assert J.basis == ((0,), (-1,))

    def test_expected_dim_mismatch_raises(self):
        with pytest.raises(ValueError, match="does not match"):
            jacobian_algebra(mirror_f(1), expected_dim=3)

    def test_reduce_monomial_reaches_outside_the_box(self):
        J = jacobian_algebra(mirror_f(1))
        B = J.box
        # u^2 = q in the quotient, so u^(2B+2) is q^(B+1) times the unit
        assert J.reduce_monomial((2 * B + 2,)) == {(0,): Q ** (B + 1)}

    def test_shell_monomial_left_free_grows_the_box(self):
        # u^(-4,4) lies in the padding shell of the stabilized box, where the
        # echelon leaves it free; its class is the unit, as for u^(-3,3)
        f = mirror_f(2)
        J = jacobian_algebra(f)
        assert J._ech.reach == 4
        assert J.reduce_monomial((-4, 4)) == {(0, 0): ONE}
        assert J.reduce_monomial((-3, 3)) == {(0, 0): ONE}
        assert _box_echelon(torus_relations(f), 2, 5).rewrites[(-4, 4)] == {(0, 0): 1}
        g = Laurent(f.vars, {(0, -4, 4): Fraction(1), (0, -3, 3): Fraction(2)})
        assert jacobian_algebra(f).reduce_poly(g) == {(0, 0): qc(3)}

    def test_fraction_fallback_of_the_integral_echelon(self):
        f = SCALED_LINE
        J = jacobian_algebra(f, expected_dim=kouchnirenko_bound(f))
        assert J.reduce_monomial((2,)) == {(0,): Fraction(3, 2) * Q}
        assert mult_f_matrix(J) == Mat([[ZERO, 4 * Q], [qc(6), ZERO]])

    @pytest.mark.parametrize("f", [mirror_f(1), mirror_f(2), mirror_f(3), SCALED_LINE],
                             ids=["mirror1", "mirror2", "mirror3", "scaled-line"])
    def test_coordinates_hold_fractions(self, f):
        n = len(f.vars) - 1
        J = jacobian_algebra(f, expected_dim=kouchnirenko_bound(f))
        values = [a for r in mult_f_matrix(J).rows for a in r]
        values += J.reduce_poly(f * f * f).values()
        for m in product(range(-2, 3), repeat=n):
            values += J.reduce_monomial(m).values()
        coeffs = [c for v in values for c in v.terms.values()]
        assert coeffs and all(type(c) is Fraction for c in coeffs)

    def test_non_integral_q_power_raises(self):
        J = jacobian_algebra(mirror_f(1))
        J._grading = ((1,), 4)  # a wrong grading: u^2 = q would need q^(1/2)
        with pytest.raises(ValueError, match="non-integral q-power 1/2"):
            J.reduce_monomial((2,))


def macaulay_echelon(f, B):
    """(free, rewrites) of the padded box [-B-1,B+1]^n by a dense route.

    Every relation shift inside the padded box is a row over Fraction at
    q = 1, and the columns run least preferred first (the reverse of flags,
    inner box by graded lex, shell by graded lex), so ``row_reduce`` takes
    each row's least preferred column as its pivot.
    """
    n, R = len(f.vars) - 1, B + 1

    def graded_lex(m):
        return (sum(map(abs, m)), m)

    flags = _flag_monomials(n)
    inner = [m for m in product(range(-B, B + 1), repeat=n) if m not in flags]
    shell = [m for m in product(range(-R, R + 1), repeat=n) if max(map(abs, m)) > B]
    order = flags + sorted(inner, key=graded_lex) + sorted(shell, key=graded_lex)
    cols = order[::-1]
    at = {m: j for j, m in enumerate(cols)}
    rows = []
    for rel in torus_relations(f):
        for shift in product(range(-2 * R, 2 * R + 1), repeat=n):
            row = {tuple(a + b for a, b in zip(e[1:], shift)): Fraction(c)
                   for e, c in rel.terms.items()}
            if all(m in at for m in row):
                dense = [Fraction(0)] * len(cols)
                for m, c in row.items():
                    dense[at[m]] = c
                rows.append(dense)
    pivots = row_reduce(rows, len(cols))
    bound = set(pivots)
    rewrites = {cols[p]: {cols[j]: -a for j, a in enumerate(rows[k]) if a and j not in bound}
                for k, p in enumerate(pivots)}
    free = [m for m in order[:(2 * B + 1) ** n] if m not in rewrites]
    return free, rewrites


# name: (f, largest box B checked against the dense route); in the echelon
# of u1 + u2 + 1/(u1 u2) + u1 u2 the back-substitution cancels entries
ECHELON_CASES = {"mirror2": (mirror_f(2), 3), "mirror3": (mirror_f(3), 2),
                 "scaled-line": (SCALED_LINE, 3), "weighted": (WEIGHTED_PLANE, 3),
                 "cancelling": (torus_poly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1,
                                               (1, 1): 1}), 3)}


class TestBoxEchelon:
    @pytest.mark.parametrize("name,B", [(name, B) for name, (_, top) in ECHELON_CASES.items()
                                        for B in range(1, top + 1)])
    def test_matches_the_dense_macaulay_matrix(self, name, B):
        f = ECHELON_CASES[name][0]
        n = len(f.vars) - 1
        ech = _box_echelon(torus_relations(f), n, B)
        free, rewrites = macaulay_echelon(f, B)
        assert (ech.dim, ech.free, ech.reach) == (len(free), free, B + 1)
        assert ech.rewrites == rewrites

    def test_too_small_a_box_bound_fails_before_any_box(self, monkeypatch):
        def no_box(*args):
            raise AssertionError("a box was built")

        monkeypatch.setattr("altfrob.mirror._box_echelon", no_box)
        with pytest.raises(NotTame, match="did not stabilize"):
            jacobian_algebra(mirror_f(9), box_max=2)


class TestGrading:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_mirror_grading(self, n):
        assert _grading(mirror_f(n)) == ((1,) * n, n + 1)

    def test_weighted_mirror(self):
        f = WEIGHTED_PLANE
        assert _grading(f) == ((1, 1), 4)
        J = jacobian_algebra(f, expected_dim=kouchnirenko_bound(f))
        assert (J.dim, kouchnirenko_bound(f), J.box) == (4, 4, 3)
        assert J.basis == ((0, 0), (-1, -1), (0, -1), (0, 1))
        M = mult_f_matrix(J)
        assert M == Mat([[ZERO, ZERO, 2 * Q, ZERO],
                         [ZERO, ZERO, ZERO, 4 * Q],
                         [ZERO, qc(4), ZERO, ZERO],
                         [2 * Laurent.gen(QV, "q", -1), ZERO, ZERO, ZERO]])
        assert charpoly(M) == [ONE, ZERO, ZERO, ZERO, -64 * Q]

    def test_ungraded_f_raises(self):
        # u + q/u + q^2/u^2: the q-exponents 0, 1, 2 at u-exponents 1, -1, -2
        f = Laurent(torus_vars(1), {(0, 1): Fraction(1), (1, -1): Fraction(1),
                                    (2, -2): Fraction(1)})
        with pytest.raises(ValueError, match="no quasi-homogeneous grading"):
            _grading(f)
        with pytest.raises(ValueError, match="no quasi-homogeneous grading"):
            jacobian_algebra(f)


class TestMultiplication:
    def test_printed_matrix_line(self):
        J = jacobian_algebra(mirror_f(1))
        assert mult_f_matrix(J) == Mat([[ZERO, 2 * Q], [qc(2), ZERO]])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_subdiagonal_shape(self, n):
        M = mult_f_matrix(jacobian_algebra(mirror_f(n)))
        d = n + 1
        for i in range(d):
            for j in range(d):
                if i == j + 1:
                    assert M[i, j] == qc(n + 1)
                elif i == 0 and j == d - 1:
                    assert M[i, j] == (n + 1) * Q
                else:
                    assert M[i, j].is_zero(), (i, j)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trace_and_charpoly(self, n):
        M = mult_f_matrix(jacobian_algebra(mirror_f(n)))
        assert sum((M[i, i] for i in range(n + 1)), ZERO).is_zero()
        cp = charpoly(M)
        expected = [ONE] + [ZERO] * n + [qc(-((n + 1) ** (n + 1))) * Q]
        assert cp == expected


def mirror_b0(n):
    return mirror_brieskorn(n)[0].B0


class TestTensorAndWedge:
    def test_kronecker_sum_spectrum(self):
        # the tensor square along the diagonal of the q-line
        T = kron_sum(mirror_b0(1), mirror_b0(1))
        assert T.shape == (4, 4)
        # eigenvalues +-2 sqrt(q) doubled: at q = 1 the spectrum is 4,0,0,-4
        assert charpoly(T) == [ONE, ZERO, -16 * Q, ZERO, ZERO]

    def test_tensor_is_associative(self):
        P1, P2 = mirror_b0(1), mirror_b0(2)
        left = kron_sum(kron_sum(P1, P2), P1)
        right = kron_sum(P1, kron_sum(P2, P1))
        assert charpoly(left) == charpoly(right)
        assert left.shape == right.shape == (12, 12)

    def test_external_tensor_over_two_lines_is_pre_saito(self):
        doc = family_to_json(mirror_brieskorn(2)[0])
        doc["vars"], doc["C"] = ["p"], {"p": doc["C"]["q"]}
        T = tensor(mirror_brieskorn(1)[0], family_from_json(doc))
        assert T.d == 6 and T.qvars == ("q", "p")
        assert check_pre_saito(T).ok

    def test_wedge_of_projective_plane_mirror(self):
        W = wedge(mirror_brieskorn(2)[0], 2)
        assert W.d == 3
        assert charpoly(W.B0) == [ONE, ZERO, ZERO, 27 * Q]

    def test_wedge_labels_and_rank(self):
        F, labels = mirror_brieskorn(2)
        assert labels == ("1", "q*u^(-1,-1)", "q*u^(0,-1)")
        assert wedge(F, 2).d == len(wedge_indices(len(labels), 2)) == 3


class TestMirrorFamily:
    @pytest.mark.parametrize("r,n", [(r, n) for n in range(1, 5)
                                     for r in range(1, n + 1)])
    def test_wedge_is_the_quantum_wedge(self, r, n):
        # check_pre_saito holds C + q d_q B0 = [Binf, C], which pins Binf up to a scalar
        W = wedge(mirror_brieskorn(n)[0], r)
        quantum = wedge(pn_small_family(n), r)
        assert W.base == quantum.base
        assert W.Binf == quantum.Binf
        assert W.B0 == quantum.B0
        assert W.C["q"] == quantum.C["q"]
        rep = check_pre_saito(W)
        assert rep.ok, "\n".join(rep.lines())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_json_round_trip(self, n):
        F = mirror_brieskorn(n)[0]
        back = loads_family(dumps_family(F))
        assert (back.base, back.Binf, back.B0, back.C) == (F.base, F.Binf, F.B0, F.C)

    def test_cache_counts_one_lattice_for_two_wedges(self):
        # the bench tracer reads these counts off the public name
        _mirror_brieskorn.cache_clear()
        compare_quantum_gm(1, 2)
        compare_quantum_gm(2, 2)
        info = mirror_brieskorn.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestSubsetSumCharpoly:
    def test_cube_root_pairs(self):
        p = [ONE, ZERO, ZERO, -27 * Q]
        assert subset_sum_charpoly(p, 2) == [ONE, ZERO, ZERO, 27 * Q]

    def test_plus_minus_two(self):
        assert subset_sum_charpoly([ONE, ZERO, qc(-4)], 2) == [ONE, ZERO]

    def test_singletons_reproduce_the_input(self):
        p = [ONE, qc(3), -5 * Q, qc(7)]
        assert subset_sum_charpoly(p, 1) == p

    def test_full_subset_is_the_trace(self):
        # the only 3-subset of a 3x3 spectrum sums to the trace, here 0
        p = [ONE, ZERO, ZERO, -27 * Q]
        assert subset_sum_charpoly(p, 3) == [ONE, ZERO]

    def test_matches_wedge_for_tensor_square(self):
        T = kron_sum(mirror_b0(1), mirror_b0(1))
        for r in (1, 2, 3):
            assert subset_sum_charpoly(charpoly(T), r) == charpoly(wedge_of_sum(T, r))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_the_wedge_of_random_laurent_matrices(self, data):
        N = data.draw(st.integers(1, 4))
        entry = st.dictionaries(st.tuples(st.integers(-2, 2)),
                                st.fractions(-3, 3, max_denominator=2), max_size=2)
        M = Mat([[Laurent(("q",), data.draw(entry)) for _ in range(N)] for _ in range(N)])
        p = charpoly(M)
        for r in range(N + 1):
            assert subset_sum_charpoly(p, r) == charpoly(wedge_of_sum(M, r))
        with pytest.raises(ValueError, match="out of range"):
            subset_sum_charpoly(p, N + 1)


class TestQuantumComparison:
    @pytest.mark.parametrize("r,n", [(r, n) for n in range(1, 5)
                                     for r in range(1, n + 1)])
    def test_all_small_wedges_agree(self, r, n):
        rep = compare_quantum_gm(r, n)
        assert rep.ok, "\n".join(rep.lines())

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_all_wedges_agree_at_n5(self, r):
        rep = compare_quantum_gm(r, 5)
        assert rep.ok, "\n".join(rep.lines())

    def test_brieskorn_cache_ignores_spelling(self):
        assert mirror_brieskorn(3) is mirror_brieskorn(3, box_max=8)
        assert mirror_brieskorn(3) is mirror_brieskorn(3, 8)

    def test_projective_plane_charpoly_value(self):
        W = wedge(mirror_brieskorn(2)[0], 2)
        assert charpoly(W.B0) == [ONE, ZERO, ZERO, 27 * Q]

    def test_witness_polynomial_writes_negative_terms_with_a_minus(self):
        assert _poly_str([ONE, ZERO, -Q]) == "z^2 - q"
        assert _poly_str([ONE, -ONE, qc(2)]) == "z^2 - z + 2"
        assert _poly_str([ONE, ONE - Q, ZERO, Q * 27]) == "z^3 + (1 - q)*z^2 + 27*q"

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError):
            compare_quantum_gm(3, 2)
        with pytest.raises(ValueError):
            wedge(mirror_brieskorn(1)[0], 3)
