"""Torus mirrors, Jacobian quotients, and wedge spectra."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altfrob.linalg import Mat, charpoly, kron_sum, row_reduce, wedge_indices, wedge_of_sum
from altfrob.mirror import (
    NotTame,
    _binomial_echelon,
    _box_echelon,
    _Echelon,
    _elimination,
    _flag_monomials,
    _grading,
    _kept_shifts,
    _poly_str,
    compare_quantum_gm,
    convenience_witness,
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

# the ladder mirror of G(2,4) over (x11, x21, x12, x22), after Batyrev,
# Ciocan-Fontanine, Kim and van Straten: boxes 1..3 all leave 6 monomials
# free, but the quotient has dimension 4
LADDER = torus_poly(4, {(1, 0, 0, 0): 1, (-1, 1, 0, 0): 1, (-1, 0, 1, 0): 1,
                        (0, -1, 0, 1): 1, (0, 0, -1, 1): 1}) + Laurent(
    torus_vars(4), {(1, 0, 0, 0, -1): Fraction(1)})


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
            assert convenience_witness(mirror_f(n)) is None

    def test_single_monomial_is_not(self):
        assert convenience_witness(torus_poly(1, {(1,): 1})) is not None
        assert convenience_witness(torus_poly(3, {(1, 2, 1): 1})) is not None

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
        J = jacobian_algebra(mirror_f(n))
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

    def test_expected_dim_mismatch_raises(self, monkeypatch):
        # a simplex support is checked against its Kouchnirenko number
        monkeypatch.setattr("altfrob.mirror.kouchnirenko_bound", lambda f: 3)
        with pytest.raises(ValueError, match="stabilized dimension 2 does not match the "
                                             "Kouchnirenko number 3"):
            jacobian_algebra(mirror_f(1))

    @pytest.mark.xfail(strict=True, raises=NotTame,
                       reason="ROADMAP item 2: the box route refuses this tame f; "
                              "the lattice index gives 7")
    def test_tame_binomial_mirror_has_its_kouchnirenko_dimension(self):
        # the critical points are u1 = u2 = x with x^7 = 3q; the box route
        # sees dimensions 9, 15, 15, 15 and its stop at box 4 is not closed
        f = torus_poly(2, {(1, 0): 1, (0, 1): 1}) + Laurent(torus_vars(2),
                                                            {(1, -3, -3): Fraction(1)})
        assert jacobian_algebra(f).dim == 7 == kouchnirenko_bound(f)

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
        assert J.reduce_monomial((-4, 4)) == {(0, 0): ONE}
        assert J.reduce_monomial((-3, 3)) == {(0, 0): ONE}
        ech = _box_echelon(torus_relations(f), 2, 5)
        assert decoded(ech)[(-4, 4)] == {(0, 0): 1}
        g = Laurent(f.vars, {(0, -4, 4): Fraction(1), (0, -3, 3): Fraction(2)})
        assert jacobian_algebra(f).reduce_poly(g) == {(0, 0): qc(3)}

    def test_fraction_fallback_of_the_integral_echelon(self):
        J = jacobian_algebra(SCALED_LINE)
        assert J.reduce_monomial((2,)) == {(0,): Fraction(3, 2) * Q}
        assert mult_f_matrix(J) == Mat([[ZERO, 4 * Q], [qc(6), ZERO]])

    @pytest.mark.parametrize("f", [mirror_f(1), mirror_f(2), mirror_f(3), SCALED_LINE],
                             ids=["mirror1", "mirror2", "mirror3", "scaled-line"])
    def test_coordinates_hold_fractions(self, f):
        n = len(f.vars) - 1
        J = jacobian_algebra(f)
        values = [a for r in mult_f_matrix(J).rows for a in r]
        values += J.reduce_poly(f * f * f).values()
        for m in product(range(-2, 3), repeat=n):
            values += J.reduce_monomial(m).values()
        coeffs = [c for v in values for c in v.terms.values()]
        assert coeffs and all(type(c) is Fraction for c in coeffs)

    def test_exponent_of_the_wrong_length_raises(self):
        f = mirror_f(2)
        J = jacobian_algebra(f)
        for exps in [(1,), (1, 0, 0), ()]:
            with pytest.raises(ValueError, match="expected an exponent of length 2"):
                J.reduce_monomial(exps)
        with pytest.raises(ValueError, match="expected an exponent of length 2"):
            J.reduce_poly(mirror_f(1))
        with pytest.raises(ValueError, match="expected an exponent of length 2"):
            J.reduce_poly(mirror_f(3))

    def test_ladder_of_the_grassmannian_is_refused_at_the_stop(self):
        with pytest.raises(NotTame, match=r"dimensions \[6, 6, 6\] stopped in box \[-3,3\]\^4, "
                           r"but its free monomials are not closed: u\^\(-4,0,0,3\), "
                           r"next to the free u\^\(-3,0,0,3\), leaves the inner box"):
            jacobian_algebra(LADDER)

    def test_a_neighbour_that_reduces_off_the_free_set_is_named(self):
        ech = _box_echelon(torus_relations(mirror_f(1)), 1, 3)
        assert ech.free == [(0,), (-1,)] and ech.torus_action()[1] is None
        ech.rewrites[ech.key((1,))] = {ech.key((2,)): 1}
        assert ech.torus_action()[1] == ("u^(1), next to the free u^(0), "
                                         "does not reduce onto the free monomials")

    def test_non_integral_q_power_raises(self):
        J = jacobian_algebra(mirror_f(1))
        J._grading = ((1,), 4)  # a wrong grading: u^2 = q would need q^(1/2)
        with pytest.raises(ValueError, match="non-integral q-power 1/2"):
            J.reduce_monomial((2,))


def macaulay_order(n, B):
    """The cells of the padded box [-B-1,B+1]^n, most preferred first: flags,
    then the inner box by graded lex, then the shell by graded lex."""
    R = B + 1

    def graded_lex(m):
        return (sum(map(abs, m)), m)

    flags = _flag_monomials(n)
    inner = [m for m in product(range(-B, B + 1), repeat=n) if m not in flags]
    shell = [m for m in product(range(-R, R + 1), repeat=n) if max(map(abs, m)) > B]
    return flags + sorted(inner, key=graded_lex) + sorted(shell, key=graded_lex)


def macaulay_echelon(rels, n, B):
    """(free, rewrites) of the padded box [-B-1,B+1]^n by a dense route.

    Every shift of a relation over ``torus_vars(n)`` inside the padded box
    is a row over Fraction at q = 1, and the columns run least preferred
    first (the reverse of ``macaulay_order``), so ``row_reduce`` takes each
    row's least preferred column as its pivot.
    """
    R = B + 1
    order = macaulay_order(n, B)
    cols = order[::-1]
    at = {m: j for j, m in enumerate(cols)}
    rows = []
    for rel in rels:
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


def decoded(ech):
    """The rewrites of an echelon with pivots and columns as exponent tuples."""
    return {ech.cell(p): {ech.cell(c): v for c, v in ech.rewrite(p).items()}
            for p in ech.rewrites}


# name: (f, largest box B checked against the dense route); in the echelon
# of u1 + u2 + 1/(u1 u2) + u1 u2 the back-substitution cancels entries,
# u + q/u + v + q/v is the Thom-Sebastiani sum of two mirrors of the line, and
# in u1 + u2/u1 + q/u2 the relation u1 - u2/u1 has its lex-largest exponent
# (1, 0) below its largest second coordinate, which the Koszul boxes depend on
ECHELON_CASES = {"mirror2": (mirror_f(2), 3), "mirror3": (mirror_f(3), 2),
                 "scaled-line": (SCALED_LINE, 3), "weighted": (WEIGHTED_PLANE, 3),
                 "cancelling": (torus_poly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1,
                                               (1, 1): 1}), 3),
                 "line-plus-line": (torus_poly(2, {(1, 0): 1, (0, 1): 1})
                                    + Laurent(torus_vars(2), {(1, -1, 0): Fraction(1),
                                                              (1, 0, -1): Fraction(1)}), 3),
                 "ladder-plane": (torus_poly(2, {(1, 0): 1, (-1, 1): 1})
                                  + Laurent(torus_vars(2), {(1, 0, -1): Fraction(1)}), 3)}


class TestBoxEchelon:
    @pytest.mark.parametrize("name,B", [(name, B) for name, (_, top) in ECHELON_CASES.items()
                                        for B in range(1, top + 1)])
    def test_matches_the_dense_macaulay_matrix(self, name, B):
        f = ECHELON_CASES[name][0]
        n = len(f.vars) - 1
        ech = _box_echelon(torus_relations(f), n, B)
        free, rewrites = macaulay_echelon(torus_relations(f), n, B)
        assert (ech.dim, ech.free, ech.reach) == (len(free), free, B + 1)
        assert decoded(ech) == rewrites

    @pytest.mark.parametrize("n,B", [(n, B) for n in (1, 2, 3) for B in (1, 2, 3)])
    def test_keys_run_in_the_preference_order(self, n, B):
        ech = _Echelon(0, [], {}, B + 1, tuple(_flag_monomials(n)))
        order = macaulay_order(n, B)
        keys = [ech.key(m) for m in order]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert [ech.cell(k) for k in keys] == order
        assert [ech.key(ech.cell(k)) for k in keys] == keys

    def test_koszul_shifts_are_skipped(self):
        # mirror_f(4) at B = 3: relation i has 7 shifts on axis i and 8 on the
        # others, and the second relation loses one 6*6*7*7 box to the first
        supports = [{e[1:]: c for e, c in rel.terms.items()}
                    for rel in torus_relations(mirror_f(4))]
        kept = _kept_shifts(supports, 4, 4)
        assert [len(k) for k in kept] == [3584, 3584 - 6 * 6 * 7 * 7, 1568, 1532]
        assert sum(map(len, kept)) == 8504 < 4 * 7 * 8 ** 3 == 14336
        assert all(k == sorted(k) for k in kept)

    def test_bench_counter_reads_the_pivots(self, monkeypatch):
        # the benchmark wraps the module attribute and counts len(result.rewrites)
        calls = []
        monkeypatch.setattr("altfrob.mirror._box_echelon",
                            lambda *args: calls.append(args[1:]) or _box_echelon(*args))
        J = jacobian_algebra(mirror_f(2))
        J.reduce_monomial((5, 0))
        assert calls == [(2, 1), (2, 2), (2, 3)]
        assert len(_box_echelon(torus_relations(mirror_f(4)), 4, 3).rewrites) == 5786

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_mirror_search_stops_at_box_3(self, monkeypatch, n):
        # n + 1 free monomials in each of the boxes 1, 2 and 3, so every
        # box bound from 3 up gives the same algebra
        dims = []

        def recording(*args):
            ech = _box_echelon(*args)
            dims.append((args[2], ech.dim))
            return ech

        monkeypatch.setattr("altfrob.mirror._box_echelon", recording)
        assert jacobian_algebra(mirror_f(n)).box == 3
        assert dims == [(1, n + 1), (2, n + 1), (3, n + 1)]

    def test_too_small_a_box_bound_fails_before_any_box(self, monkeypatch):
        def no_box(*args):
            raise AssertionError("a box was built")

        monkeypatch.setattr("altfrob.mirror._box_echelon", no_box)
        with pytest.raises(NotTame, match="did not stabilize"):
            jacobian_algebra(mirror_f(9), box_max=2)


def by_both_routes(rels, n, B):
    """_box_echelon by its union-find route, which it must take, and by the
    general elimination run in its place on the same rows."""
    def refuse(rows):
        raise AssertionError("binomial rows reached the general elimination")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("altfrob.mirror._elimination", refuse)
        got = _box_echelon(rels, n, B)
        mp.setattr("altfrob.mirror._binomial_echelon", lambda rows: _elimination(
            [(x, a), (y, b)] for x, a, y, b in rows))
        return got, _box_echelon(rels, n, B)


# binomial: every relation has two terms; line-plus-line is the
# Thom-Sebastiani sum of two mirrors of the line
BINOMIAL_CASES = ([(f"mirror{n}", mirror_f(n), B) for n in (1, 2, 3, 4) for B in (1, 2, 3)]
                  + [("mirror5", mirror_f(5), B) for B in (1, 2)]
                  + [(name, f, B) for name, (f, top) in ECHELON_CASES.items()
                     if all(len(r.terms) == 2 for r in torus_relations(f))
                     for B in range(1, top + 1)])
# u1 = u2 and u1 = 2 u2: every component with a row has a cycle whose weights disagree
ZERO_CYCLES = [torus_poly(2, {(1, 0): 1, (0, 1): -1}), torus_poly(2, {(1, 0): 1, (0, 1): -2})]


class TestBinomialEchelon:
    @pytest.mark.parametrize("name,f,B", BINOMIAL_CASES,
                             ids=[f"{name}-B{B}" for name, _, B in BINOMIAL_CASES])
    def test_union_find_matches_the_general_elimination(self, name, f, B):
        n = len(f.vars) - 1
        got, ref = by_both_routes(torus_relations(f), n, B)
        assert (got.dim, got.free, got.reach) == (ref.dim, ref.free, ref.reach)
        assert decoded(got) == decoded(ref)

    def test_the_three_term_case_takes_the_general_elimination(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("three-term rows reached the union-find")

        monkeypatch.setattr("altfrob.mirror._binomial_echelon", refuse)
        f = ECHELON_CASES["cancelling"][0]
        assert _box_echelon(torus_relations(f), 2, 2).dim == 4

    @pytest.mark.parametrize("B", [1, 2, 3])
    def test_a_cycle_whose_weights_disagree_is_zero(self, B):
        got, ref = by_both_routes(ZERO_CYCLES, 2, B)
        assert decoded(got) == decoded(ref) == macaulay_echelon(ZERO_CYCLES, 2, B)[1]
        assert got.dim == 0 and got.rewrites and not any(map(got.rewrite, got.rewrites))

    def test_a_zero_component_absorbs_the_one_it_meets(self):
        # {3, 5} is zero by its cycle, {1, 2} then joins it; {7, 9} stays alive
        rows = [(3, 1, 5, -1), (3, 1, 5, -2), (1, 1, 2, 1), (2, 1, 5, 1),
                (7, 2, 9, 3), (9, 1, 7, Fraction(2, 3))]
        got = _Echelon(0, [], _binomial_echelon(iter(rows)), 0, ())
        ref = _elimination([(x, a), (y, b)] for x, a, y, b in rows)
        assert {p: got.rewrite(p) for p in got.rewrites} == ref
        assert ref == {2: {}, 3: {}, 5: {}, 1: {}, 9: {7: Fraction(-2, 3)}}
        # the union-find keeps (root, weight) pairs, weight 0 on the zero component
        assert got.rewrites == {1: (1, 0), 2: (1, 0), 3: (1, 0), 5: (1, 0),
                                9: (7, Fraction(-2, 3))}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_binomial_systems_match_the_dense_route(self, data):
        n, B = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        exponent = st.tuples(*[st.integers(-2, 2)] * n)
        coefficient = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
        rels = []
        for _ in range(data.draw(st.integers(1, 3))):
            a, b = data.draw(st.lists(exponent, min_size=2, max_size=2, unique=True))
            rels.append(torus_poly(n, {a: data.draw(coefficient), b: data.draw(coefficient)}))
        got, _ = by_both_routes(rels, n, B)
        free, rewrites = macaulay_echelon(rels, n, B)
        assert (got.dim, got.free) == (len(free), free)
        assert decoded(got) == rewrites


def box_coordinates(f, ech, m):
    """The class of u^m read off a box echelon through ``rewrite`` and the grading."""
    rw = ech.rewrite(ech.key(m))
    if rw is None:
        return {m: ONE}
    (w, wq), out = _grading(f), {}
    for key, v in rw.items():
        c = ech.cell(key)
        k, rest = divmod(sum(wi * (a - b) for wi, a, b in zip(w, m, c)), wq)
        assert rest == 0, (m, c)
        out[c] = Laurent(QV, {(k,): Fraction(v)})
    return out


WALK_CASES = {"mirror1": mirror_f(1), "mirror2": mirror_f(2), "mirror3": mirror_f(3),
              "scaled-line": SCALED_LINE, "weighted": WEIGHTED_PLANE,
              "line-plus-line": ECHELON_CASES["line-plus-line"][0]}


class TestTorusAction:
    @pytest.mark.parametrize("name", list(WALK_CASES))
    def test_walk_matches_the_grown_box(self, name):
        # the box B = 5 is the route a monomial past the stop box used to take
        f = WALK_CASES[name]
        n = len(f.vars) - 1
        J = jacobian_algebra(f)
        ech = _box_echelon(torus_relations(f), n, 5)
        assert ech.free == list(J.basis)
        top = 4 if n <= 2 else 3
        for m in product(range(-top, top + 1), repeat=n):
            assert J.reduce_monomial(m) == box_coordinates(f, ech, m), m

    def test_the_walk_builds_no_box(self, monkeypatch):
        J = jacobian_algebra(mirror_f(4))

        def no_box(*args):
            raise AssertionError("a box was built")

        monkeypatch.setattr("altfrob.mirror._box_echelon", no_box)
        assert J.reduce_monomial((5, 0, 0, -2)) == {(0, 0, -1, -1): Q}

    def test_the_action_is_indexed_by_axis_and_step(self):
        # on the line u^2 = q: u sends 1 to u and u^(-1) to 1 at q = 1
        J = jacobian_algebra(mirror_f(1))
        assert J.basis == ((0,), (-1,))
        assert J.action == [[{1: 1}, {0: 1}], [{1: 1}, {0: 1}]]


class TestGrading:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_mirror_grading(self, n):
        assert _grading(mirror_f(n)) == ((1,) * n, n + 1)

    def test_weighted_mirror(self):
        f = WEIGHTED_PLANE
        assert _grading(f) == ((1, 1), 4)
        J = jacobian_algebra(f)
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
        F, J = mirror_brieskorn(2)
        labels = J.labels()
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
        mirror_brieskorn.cache_clear()
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

    def test_a_different_quantum_matrix_gets_its_own_charpoly(self, monkeypatch):
        # B0 of the P^2 family doubled: z^3 - 27q becomes z^3 - 216q
        def doubled(n):
            fam = pn_small_family(n)
            fam.B0 = fam.B0.map(lambda x: 2 * x)
            return fam

        monkeypatch.setattr("altfrob.mirror.pn_small_family", doubled)
        rep = compare_quantum_gm(1, 2)
        assert rep.lines() == [
            "PASS  wedge ranks agree",
            "FAIL  multiplication charpolys agree over Q[q]  [z^3 - 27*q vs z^3 - 216*q]",
            "PASS  subset-sum route reproduces the wedge charpoly",
            "PASS  integer spectra at infinity agree"]

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
