"""Deformation recursion, the universal big-quantum family, and curve counts."""

from fractions import Fraction

import pytest

from altfrob import deform, linalg
from altfrob.deform import (
    DeformationProblem,
    InvariantViolation,
    NotPrePrimitive,
    expand_trivial_in_log,
    gw_pn2,
    hm_extend,
    potential,
    potential_to_json,
    problem_from_json,
    problem_to_json,
    trivial_deformation_problem,
    universal_big_quantum,
    wdvv_oracle,
    word_basis,
)
from altfrob.linalg import Mat, inv_laurent, wedge_indices
from altfrob.presaito import (
    check_metric,
    check_pre_saito,
    dumps_family,
    frobenius_data,
    loads_family,
    wedge,
)
from altfrob.projective import build_pn, pn_small_family
from altfrob.rings import Laurent, Series


F = Fraction


def qc(c):
    return Laurent.const(("q",), c)


class TestWordBasis:
    def test_identity_word_comes_first(self):
        fam = pn_small_family(2)
        omega = [qc(1), qc(0), qc(0)]
        words = word_basis([fam.C["q"], fam.B0], omega, 3)
        assert words[0] == ()
        assert len(words) == 3

    def test_krylov_words_on_the_q_line(self):
        fam = pn_small_family(3)
        omega = [qc(1), qc(0), qc(0), qc(0)]
        words = word_basis([fam.C["q"], fam.B0], omega, 4)
        # powers of the first generator already span
        assert words == [(), (0,), (0, 0), (0, 0, 0)]

    def test_dependent_word_is_not_counted(self):
        # omega = e0 spans a plane: M e0 = e0 + q e1, M e1 = -e0/q, M^2 e0 = q e1
        q = Laurent.gen(("q",), "q")
        M = Mat([[qc(1), -q ** -1, qc(0)], [q, qc(0), qc(0)], [qc(0), qc(0), qc(1)]])
        with pytest.raises(NotPrePrimitive, match="dimension 2"):
            word_basis([M], [qc(1), qc(0), qc(0)], 3)

    def test_non_cyclic_vector_is_rejected(self):
        zero = Mat([[qc(0), qc(0)], [qc(0), qc(0)]])
        with pytest.raises(NotPrePrimitive):
            word_basis([zero], [qc(1), qc(0)], 2)


class TestUnitDirection:
    """Adding the unit coordinate t0 has closed-form output."""

    def _extend(self, n, K):
        fam = pn_small_family(n)
        svars = ("t0",)
        psi = tuple(
            Series.gen(svars, K, "t0", Laurent.const(("q",), 1)) if i == 0
            else Series.zero(svars, K)
            for i in range(n + 1))
        omega = tuple(F(1 if i == 0 else 0) for i in range(n + 1))
        prob = DeformationProblem(fam, ("t0",), psi, omega, K)
        return fam, hm_extend(prob)

    def test_c_t0_is_minus_identity(self):
        fam, big = self._extend(2, 4)
        minus_id = Mat.identity(3, big.const(-1))
        assert big.C["t0"] == minus_id

    def test_b0_shifts_by_t0(self):
        fam, big = self._extend(2, 4)
        t0 = Series.gen(("t0",), 4, "t0", Laurent.const(("q",), 1))
        expect = fam.B0.map(lambda x: Series.const(("t0",), 4, x)) + Mat.identity(3, t0)
        assert big.B0 == expect

    def test_c_q_is_unchanged(self):
        fam, big = self._extend(2, 4)
        lifted = fam.C["q"].map(lambda x: Series.const(("t0",), 4, x))
        assert big.C["q"] == lifted

    def test_checks_pass_on_the_extension(self):
        _, big = self._extend(2, 4)
        assert check_pre_saito(big).ok
        assert check_metric(big).ok


class TestTrivialDeformationRoundTrip:
    """The recursion reproduces the grading flow written in y = log(lambda)."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_closed_form_through_order_8(self, n):
        P = build_pn(n)
        prob = trivial_deformation_problem(P, (1,) + (0,) * n, order=8)
        got = hm_extend(prob)
        want = expand_trivial_in_log(P, order=8)
        assert got.B0 == want.B0
        assert got.C["y"] == want.C["y"]
        assert got.Binf == want.Binf

    def test_reversed_generator_order_gives_the_same_family(self):
        P = build_pn(2)
        prob = trivial_deformation_problem(P, (1, 0, 0), order=5)
        a = hm_extend(prob)
        b = hm_extend(prob, reverse_generators=True)
        assert a.B0 == b.B0
        assert a.C == b.C

    def test_closed_form_is_pre_saito(self):
        want = expand_trivial_in_log(build_pn(2), order=6)
        assert check_pre_saito(want).ok


class TestUniversalBigQuantum:
    def test_base_order_and_kinds(self):
        big = universal_big_quantum(pn_small_family(2), 4)
        assert [v.name for v in big.base] == ["t0", "q", "t2"]
        assert [v.kind for v in big.base] == ["series", "q", "series"]

    def test_reorder_base_moves_only_the_q_directions(self):
        big = universal_big_quantum(pn_small_family(2), 3)
        moved = big.reorder_base(["t0", "t2", "q"])
        assert [v.name for v in moved.base] == ["t0", "t2", "q"]
        assert moved.svars == big.svars and moved.B0 == big.B0 and moved.C == big.C
        with pytest.raises(ValueError, match="series directions in their order"):
            big.reorder_base(["t2", "q", "t0"])
        with pytest.raises(ValueError, match="permute"):
            big.reorder_base(["t0", "q"])

    def test_extension_is_pre_saito_with_metric(self):
        big = universal_big_quantum(pn_small_family(2), 4)
        assert check_pre_saito(big).ok
        assert check_metric(big).ok

    def test_flat_metric_is_constant(self):
        big = universal_big_quantum(pn_small_family(2), 4)
        fd = frobenius_data(big, (1, 0, 0))
        g = fd.gmat
        want = big.G
        assert g == want

    def test_family_round_trips_through_json(self):
        big = universal_big_quantum(pn_small_family(1), 3)
        assert dumps_family(loads_family(dumps_family(big))) == dumps_family(big)

    @pytest.mark.parametrize("n,K", [(1, 2), (1, 5), (2, 3), (3, 3), (4, 2)])
    def test_extension_loads_back_equal(self, n, K):
        big = universal_big_quantum(pn_small_family(n), K)
        assert loads_family(dumps_family(big)) == big

    def test_wedge_of_extension_loads_back_equal(self):
        g24 = wedge(universal_big_quantum(pn_small_family(3), 3), 2)
        back = loads_family(dumps_family(g24))
        assert back == g24
        assert back != wedge(universal_big_quantum(pn_small_family(3), 2), 2)

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            universal_big_quantum(pn_small_family(2), 1)

    def test_word_matrix_slice_is_inverted_once_per_stage(self, monkeypatch):
        slices, matrices = [], []

        def counted(A):
            slices.append(A)
            return inv_laurent(A)

        def counted_series(M):
            matrices.append(M)
            return linalg.inv_series(M)
        monkeypatch.setattr(linalg, "inv_laurent", counted)
        monkeypatch.setattr(deform, "inv_series", counted_series)
        big = universal_big_quantum(pn_small_family(4), 6)
        assert len(slices) <= len(big.svars) == 4
        assert len(matrices) == len(big.svars)

    def test_reversed_generators_give_the_same_big_quantum_family(self):
        fam, K = pn_small_family(2), 3
        svars = fam.svars + ("t0", "t2")
        one = Laurent.const(fam.qvars, 1)
        psi = (Series.gen(svars, K, "t0", one), Series.zero(svars, K),
               Series.gen(svars, K, "t2", one))
        prob = DeformationProblem(fam, ("t0", "t2"), psi, (F(1), F(0), F(0)), K)
        a = hm_extend(prob)
        b = hm_extend(prob, reverse_generators=True)
        assert a.B0 == b.B0
        assert a.C == b.C


class TestGrassmannCompletion:
    """G(2,4): the wedge of big-quantum P^3, completed along the wedge vectors it misses."""

    @staticmethod
    def _complete(reverse_generators=False):
        g24, K = wedge(universal_big_quantum(pn_small_family(3), 3), 2), 3
        new = {(0, 3): "y03", (2, 3): "y23"}
        svars = g24.svars + tuple(new.values())
        one = Laurent.const(g24.qvars, 1)
        psi = tuple(Series.gen(svars, K, new[I], one) if I in new else Series.zero(svars, K)
                    for I in wedge_indices(4, 2))
        omega = (F(1),) + (F(0),) * 5  # e_01
        prob = DeformationProblem(g24, tuple(new.values()), psi, omega, K)
        return hm_extend(prob, reverse_generators=reverse_generators)

    def test_completion_is_pre_saito_with_metric(self):
        full = self._complete()
        assert full.svars == ("t0", "t2", "t3", "y03", "y23")
        assert check_pre_saito(full).ok
        assert check_metric(full).ok
        assert full == self._complete(reverse_generators=True)


class TestPotential:
    def test_p1_potential_is_q_plus_nothing_else(self):
        big = universal_big_quantum(pn_small_family(1), 4)
        phi = potential(big, (1, 0))
        # classical t0^2 t1 / 2 is not representable; quantum part is q
        assert sorted(phi.terms) == [(0,)]
        assert phi.terms[(0,)] == Laurent(("q",), {(1,): F(1)})

    def test_p2_classical_and_first_quantum_terms(self):
        big = universal_big_quantum(pn_small_family(2), 5)
        phi = potential(big, (1, 0, 0))
        # (t0, t2) exponents; coefficient of t0^2 t2 is 1/2
        assert phi.coeff((2, 1)) == Laurent(("q",), {(0,): F(1, 2)})
        # one line through two points: q t2^2 / 2
        assert phi.coeff((0, 2)) == Laurent(("q",), {(1,): F(1, 2)})

    def test_p3_potential_carries_the_enumerative_invariants(self):
        big = universal_big_quantum(pn_small_family(3), 5)
        phi = potential(big, (1, 0, 0, 0))
        # flat keys (t0, t2, t3, q-power)
        assert phi.flat[(0, 0, 2, 1)] == F(1, 2)       # one line through two points
        assert phi.flat[(0, 2, 1, 1)] == F(1, 2)       # <l, l, pt>_1 = 1
        assert phi.flat[(0, 4, 0, 1)] == F(2, 24)      # two lines meet four lines
        assert phi.flat[(0, 8, 0, 2)] == F(92, 40320)  # 92 conics meet eight lines
        assert phi.flat[(0, 0, 6, 3)] == F(1, 720)     # one twisted cubic through six points

    @pytest.mark.parametrize("n", [2, 3])
    def test_requested_order_below_the_family_order(self, n):
        omega = (1,) + (0,) * n
        low = potential(universal_big_quantum(pn_small_family(n), 6), omega, 4)
        assert low == potential(universal_big_quantum(pn_small_family(n), 4), omega)
        assert low.order == 7

    def test_wedge_family_is_rejected_before_integration(self):
        g23 = wedge(universal_big_quantum(pn_small_family(2), 4), 2)
        with pytest.raises(InvariantViolation) as err:
            potential(g23, (1, 0, 0))
        assert str(err.value) == "nabla c is not symmetric at (t0,q,t2,q)"

    def test_potential_json_is_sorted(self):
        big = universal_big_quantum(pn_small_family(1), 3)
        doc = potential_to_json(potential(big, (1, 0)))
        assert doc == {"monomials": [{"qpow": 1, "exps": [0], "coef": "1"}]}
        # by q-power first: the classical t0^2 t2 / 2 leads, then one term per degree
        doc = potential_to_json(potential(universal_big_quantum(pn_small_family(2), 5), (1, 0, 0)))
        assert [(m["qpow"], m["exps"], m["coef"]) for m in doc["monomials"]] == [
            (0, [2, 1], "1/2"), (1, [0, 2], "1/2"), (2, [0, 5], "1/120"), (3, [0, 8], "1/3360")]


class TestCurveCounts:
    def test_wdvv_oracle_frozen_values(self):
        assert wdvv_oracle(5) == [1, 1, 12, 620, 87304]

    def test_gw_matches_oracle_through_degree_3(self):
        assert gw_pn2(3) == wdvv_oracle(3) == [1, 1, 12]

    def test_gw_matches_oracle_through_degree_12(self):
        assert gw_pn2(12) == wdvv_oracle(12)


class TestProblemSerialization:
    def test_round_trip(self):
        fam = pn_small_family(1)
        svars = ("t0",)
        psi = (Series.gen(svars, 3, "t0", Laurent.const(("q",), 1)),
               Series.zero(svars, 3))
        prob = DeformationProblem(fam, ("t0",), psi, (F(1), F(0)), 3)
        doc = problem_to_json(prob)
        back = problem_from_json(fam, doc)
        assert back == prob

    def test_validation_rejects_nonvanishing_psi(self):
        fam = pn_small_family(1)
        svars = ("t0",)
        bad = (Series.const(svars, 3, Laurent.const(("q",), 1)),
               Series.zero(svars, 3))
        prob = DeformationProblem(fam, ("t0",), bad, (F(1), F(0)), 3)
        with pytest.raises(ValueError):
            hm_extend(prob)

    @pytest.mark.parametrize("qkind,new_vars,message", [
        ("base", ("t0", "q"), "new variable 'q' collides with a base variable"),
        ("param", ("q",), "new variable 'q' collides with a parameter"),
        ("base", ("t0", "t0"), "new variable 't0' collides with a new variable"),
        ("base", (), "a deformation needs at least one new variable"),
    ], ids=["base", "parameter", "repeated", "none"])
    def test_colliding_new_variable_fails_before_extension(self, monkeypatch, qkind,
                                                           new_vars, message):
        import altfrob.deform as deform
        from altfrob.presaito import PreSaitoFamily

        def no_work(*args, **kwargs):
            raise AssertionError("the extension started")

        monkeypatch.setattr(deform, "_promote_entries", no_work)
        monkeypatch.setattr(deform, "word_basis", no_work)
        fam = pn_small_family(1)
        if qkind == "param":
            fam = PreSaitoFamily((), 2, fam.Binf, fam.B0, {}, params=("q",))
        psi = tuple(Series.zero(new_vars, 2) for _ in range(2))
        prob = DeformationProblem(fam, new_vars, psi, (F(1), F(0)), 2)
        with pytest.raises(ValueError) as err:
            hm_extend(prob)
        assert str(err.value) == message

    def test_corrupted_initial_family_trips_an_invariant(self):
        from altfrob.presaito import PreSaitoFamily

        fam = pn_small_family(1)
        qv = ("q",)
        bad_b0 = Mat([[Laurent.zero(qv), Laurent.gen(qv, "q")],
                      [Laurent.const(qv, 2), Laurent.zero(qv)]])
        bad = PreSaitoFamily(fam.base, 2, fam.Binf, bad_b0, dict(fam.C),
                             fam.G, fam.w)
        svars = ("t",)
        psi = (Series.zero(svars, 3),
               Series.gen(svars, 3, "t", Laurent.const(qv, 1)))
        prob = DeformationProblem(bad, ("t",), psi, (F(1), F(0)), 3)
        with pytest.raises(InvariantViolation) as err:
            hm_extend(prob)
        assert str(err.value) == "[D', B0] != 0 at order 0 of t, entry (0,0)"

    @pytest.mark.parametrize("matrix,psi_index,omega,order,message", [
        ("Binf", 1, (1, 0), 3, "[D', B0] != 0 at order 1 of t, entry (0,0)"),
        # D' also has a q-denominator here: the invariant is reported first
        ("B0", 0, (1, 1), 2, "[D', B0] != 0 at order 0 of t, entry (0,1)"),
    ], ids=["order-1", "before-q-denominator"])
    def test_invariant_names_the_first_failing_order(self, matrix, psi_index,
                                                     omega, order, message):
        from altfrob.presaito import PreSaitoFamily

        fam = pn_small_family(1)
        qv = ("q",)
        mats = {"Binf": fam.Binf, "B0": fam.B0}
        rows = [list(r) for r in mats[matrix].rows]
        rows[0][0] = rows[0][0] + Laurent.const(qv, 1)
        mats[matrix] = Mat(rows)
        bad = PreSaitoFamily(fam.base, 2, mats["Binf"], mats["B0"], dict(fam.C),
                             fam.G, fam.w)
        svars = ("t",)
        psi = tuple(Series.gen(svars, order, "t", Laurent.const(qv, 1)) if i == psi_index
                    else Series.zero(svars, order) for i in range(2))
        prob = DeformationProblem(bad, ("t",), psi, tuple(map(F, omega)), order)
        with pytest.raises(InvariantViolation) as err:
            hm_extend(prob)
        assert str(err.value) == message

    def test_q_denominator_in_d_prime_is_rejected(self):
        from altfrob.presaito import PreSaitoFamily

        # no base direction differentiates D', so nothing else would notice
        qv = ("q",)
        one, zero = Laurent.const(qv, 1), Laurent.zero(qv)
        fam = PreSaitoFamily((), 2, Mat([[zero, zero], [zero, -one]]),
                             Mat([[zero, Laurent.gen(qv, "q") * 2], [one * 2, zero]]),
                             {}, params=qv)
        psi = (Series.zero(("y",), 2), Series.gen(("y",), 2, "y", one))
        prob = DeformationProblem(fam, ("y",), psi, (F(1), F(1)), 2)
        with pytest.raises(ValueError, match=r"D' leaves Q\[q, 1/q\] at order 0 of y"):
            hm_extend(prob)

    def test_non_unit_closed_point_determinant_can_still_extend(self):
        from altfrob.presaito import PreSaitoFamily

        # det T_0 = 2 - 2q is not a unit, yet D' = -I lies over Q[q, 1/q]
        qv = ("q",)
        one, zero = Laurent.const(qv, 1), Laurent.zero(qv)
        fam = PreSaitoFamily((), 2, Mat([[zero, zero], [zero, -one]]),
                             Mat([[zero, Laurent.gen(qv, "q") * 2], [one * 2, zero]]),
                             {}, params=qv)
        y = Series.gen(("y",), 2, "y", one)
        prob = DeformationProblem(fam, ("y",), (y, y), (F(1), F(1)), 2)
        big = hm_extend(prob)
        assert big.C["y"] == Mat.identity(2, big.const(-1))

    def test_non_unit_closed_point_determinant_extends_along_two_variables(self):
        from altfrob.presaito import PreSaitoFamily

        # the family above with Psi = -(y^2 + y z^2)/2 * omega, so D'_y = y, D'_z = y z;
        # the z-stage word matrix at z = 0 depends on y through B0 = B0(0) - y^2/2
        qv = ("q",)
        one, zero = Laurent.const(qv, 1), Laurent.zero(qv)
        fam = PreSaitoFamily((), 2, Mat([[zero, zero], [zero, -one]]),
                             Mat([[zero, Laurent.gen(qv, "q") * 2], [one * 2, zero]]),
                             {}, params=qv)
        sv, K = ("y", "z"), 3
        y, z = (Series.gen(sv, K, v, one) for v in sv)
        p = (y * y + y * z * z).scale(F(-1, 2))
        big = hm_extend(DeformationProblem(fam, sv, (p, p), (F(1), F(1)), K))
        assert check_pre_saito(big).ok
        assert big.C["y"] == Mat.identity(2, y + (z * z).scale(F(1, 2)))
        assert big.C["z"] == Mat.identity(2, y * z)


class TestDivisorDirection:
    """Moving omega along the hyperplane class rescales q exponentially."""

    def test_p1_hyperplane_extension_exponentiates_q(self):
        fam = pn_small_family(1)
        qv = ("q",)
        svars = ("t",)
        psi = (Series.zero(svars, 4),
               Series.gen(svars, 4, "t", Laurent.const(qv, 1)))
        prob = DeformationProblem(fam, ("t",), psi, (F(1), F(0)), 4)
        big = hm_extend(prob)
        assert check_pre_saito(big).ok
        # C^(t) = [[0, -q e^t], [-1, 0]] truncated at order 4
        exp_t = Series(svars, 4, {(k,): Laurent(qv, {(1,): F(-1, [1, 1, 2, 6, 24][k])})
                                  for k in range(5)})
        got = big.C["t"]
        assert got[0, 1] == exp_t
        assert got[1, 0] == Series.const(svars, 4, Laurent.const(qv, -1))
        assert got[0, 0].is_zero() and got[1, 1].is_zero()
