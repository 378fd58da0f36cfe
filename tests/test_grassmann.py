"""Grassmannian structure constants: two routes, one table."""

import json
import random
from fractions import Fraction
from itertools import permutations

import pytest

from altfrob.grassmann import (
    QLRTable,
    alt_metric,
    alt_structure_constants,
    alternant,
    bialternant_reduce,
    complement_partition,
    indices_from_partition,
    lr_count,
    metric_sign_report,
    partition_from_indices,
    rect_partitions,
    rimhook_oracle,
    rimhook_reduce,
    schur_poly,
    vandermonde,
)
from altfrob.rings import Laurent


def qpoly(*pairs):
    return Laurent(("q",), {(p,): Fraction(c) for p, c in pairs})


ONE = qpoly((0, 1))
Q = qpoly((1, 1))


class TestPartitionBookkeeping:
    def test_rect_partition_order_two_by_two(self):
        assert rect_partitions(2, 3) == [
            (), (1,), (2,), (1, 1), (2, 1), (2, 2)]

    def test_rect_partition_count_is_binomial(self):
        import math
        for r in range(1, 4):
            for n in range(r, 6):
                assert len(rect_partitions(r, n)) == math.comb(n + 1, r)

    def test_index_round_trip(self):
        for r in range(1, 4):
            for n in range(r, 6):
                for lam in rect_partitions(r, n):
                    I = indices_from_partition(lam, r)
                    assert partition_from_indices(I, r) == lam

    def test_complement_is_an_involution(self):
        for lam in rect_partitions(2, 4):
            comp = complement_partition(lam, 2, 4)
            assert complement_partition(comp, 2, 4) == lam
            assert sum(lam) + sum(comp) == 2 * 3

    def test_complement_matches_reflected_indices(self):
        r, n = 2, 3
        for lam in rect_partitions(r, n):
            I = indices_from_partition(lam, r)
            reflected = tuple(sorted(n - i for i in I))
            assert partition_from_indices(reflected, r) == \
                complement_partition(lam, r, n)


class TestSchurAndAlternants:
    def test_schur_single_box(self):
        s = schur_poly((1,), 2)
        assert s == Laurent.gen(("q", "y1", "y2"), "y1") + \
            Laurent.gen(("q", "y1", "y2"), "y2")

    def test_schur_too_many_rows_vanishes(self):
        assert schur_poly((1, 1, 1), 2).is_zero()

    def test_schur_bialternant_identity(self):
        # s_lambda * Delta == a_{lambda + delta}
        for r in range(2, 5):
            for lam in rect_partitions(r, 6):
                mu = indices_from_partition(lam, r)[::-1]
                assert schur_poly(lam, r) * vandermonde(r) == alternant(mu, r), lam

    @pytest.mark.parametrize("r,n", [(r, n) for r in range(1, 5)
                                     for n in range(r, 7)])
    def test_tableau_weights(self, r, n):
        for lam in rect_partitions(r, n):
            kostka = {e[1:]: c for e, c in schur_poly(lam, r).terms.items()}
            padded = lam + (0,) * (r - len(lam))
            weyl = Fraction(1)
            for i in range(r):
                for j in range(i + 1, r):
                    weyl *= Fraction(padded[i] - padded[j] + j - i, j - i)
            assert sum(kostka.values()) == weyl, lam
            for w, c in kostka.items():
                assert c.denominator == 1 and c > 0
                assert sum(w) == sum(lam)
                for v in set(permutations(w)):
                    assert kostka.get(v) == c, (lam, w, v)

    def test_alternant_requires_strict_decrease(self):
        with pytest.raises(ValueError):
            alternant((1, 1), 2)


class TestBialternantReduce:
    def test_vandermonde_reduces_to_unit(self):
        assert bialternant_reduce(vandermonde(2), 2, 3) == {(): ONE}

    def test_single_wraparound_picks_up_minus_q(self):
        assert bialternant_reduce(alternant((4, 1), 2), 2, 3) == \
            {(): qpoly((1, -1))}

    def test_repeated_residues_annihilate(self):
        assert bialternant_reduce(alternant((3, 0), 2), 2, 2) == {}

    def test_symmetric_input_rejected(self):
        y1 = Laurent.gen(("q", "y1", "y2"), "y1")
        y2 = Laurent.gen(("q", "y1", "y2"), "y2")
        with pytest.raises(ValueError, match="antisymmetric"):
            bialternant_reduce(y1 + y2, 2, 3)

    def test_negative_exponent_rejected(self):
        vars_ = ("q", "y1", "y2")
        P = (Laurent.gen(vars_, "y1", -1) * Laurent.gen(vars_, "y2")
             - Laurent.gen(vars_, "y2", -1) * Laurent.gen(vars_, "y1"))
        with pytest.raises(ValueError, match="polynomial"):
            bialternant_reduce(P, 2, 3)


class TestLittlewoodRichardson:
    def test_pieri_rule(self):
        # s_1 * s_1 = s_2 + s_11
        assert lr_count((2,), (1,), (1,)) == 1
        assert lr_count((1, 1), (1,), (1,)) == 1
        assert lr_count((2,), (2,), (1,)) == 0

    def test_multiplicity_two(self):
        # the smallest LR number above 1
        assert lr_count((3, 2, 1), (2, 1), (2, 1)) == 2

    def test_containment_required(self):
        assert lr_count((2, 2), (3,), (1,)) == 0


class TestRimHooks:
    def test_wraparound_hook(self):
        assert rimhook_reduce((3, 1), 2, 3) == ((), 1, 1)

    def test_fitting_shape_untouched(self):
        assert rimhook_reduce((2, 1), 2, 3) == ((2, 1), 0, 1)

    def test_stuck_shape_dies(self):
        assert rimhook_reduce((3, 1), 2, 2) is None

    def test_double_removal(self):
        core, qpow, sign = rimhook_reduce((3, 3), 2, 2)
        assert (core, qpow) == ((), 2)
        assert sign in (-1, 1)


class TestAnchorProducts:
    def test_two_planes_in_four_space(self):
        T = alt_structure_constants(2, 3)
        assert T.product((2,), (1, 1)) == {(): Q}
        assert T.product((1,), (2, 1)) == {(2, 2): ONE, (): Q}
        assert T.product((2,), (2,)) == {(2, 2): ONE}

    def test_two_planes_in_three_space(self):
        T = alt_structure_constants(2, 2)
        assert T.product((1,), (1,)) == {(1, 1): ONE}
        assert T.product((1,), (1, 1)) == {(): Q}

    def test_unit_row(self):
        T = alt_structure_constants(2, 3)
        for lam in T.basis():
            assert T.product((), lam) == {lam: ONE}

    def test_projective_line_of_lines(self):
        # r = 1 recovers the small quantum ring of projective space
        T = alt_structure_constants(1, 2)
        assert T.product((2,), (2,)) == {(1,): Q}
        assert T.product((1,), (2,)) == {(): Q}


class TestOracleAgreement:
    @pytest.mark.parametrize("r,n", [(r, n) for r in range(1, 4)
                                     for n in range(r, 6)]
                             + [(4, n) for n in range(4, 8)])
    def test_tables_agree(self, r, n):
        assert alt_structure_constants(r, n) == rimhook_oracle(r, n)


@pytest.fixture(scope="module")
def tables():
    return {(r, n): alt_structure_constants(r, n)
            for r in range(1, 4) for n in range(r, 6)}


class TestTableInvariants:

    def test_positivity(self, tables):
        for T in tables.values():
            for key, cf in T.entries.items():
                for _, c in cf.terms.items():
                    assert c.denominator == 1 and c > 0, (key, str(cf))

    def test_degree_constraint(self, tables):
        for (r, n), T in tables.items():
            for (lam, mu, nu), cf in T.entries.items():
                for (qpow,), _ in cf.terms.items():
                    assert sum(lam) + sum(mu) == sum(nu) + qpow * (n + 1)

    def test_classical_stratum_is_littlewood_richardson(self, tables):
        for (r, n), T in tables.items():
            parts = T.basis()
            for i, lam in enumerate(parts):
                for mu in parts[i:]:
                    for nu in parts:
                        got = T.entry(lam, mu, nu).terms.get((0,), 0)
                        assert got == lr_count(nu, lam, mu), (r, n, lam, mu, nu)

    def test_frobenius_symmetry(self, tables):
        for (r, n), T in tables.items():
            parts = T.basis()

            def lowered(a, b, c):
                return T.entry(a, b, complement_partition(c, r, n))

            rng = random.Random(7)
            for _ in range(40):
                a, b, c = (rng.choice(parts) for _ in range(3))
                vals = {str(lowered(*p)) for p in permutations((a, b, c))}
                assert len(vals) == 1, (r, n, a, b, c, vals)

    def test_associativity_on_seeded_triples(self, tables):
        for (r, n), T in tables.items():
            parts = T.basis()

            def mul(vec, lam):
                out = {}
                for mu, cf in vec.items():
                    for nu, c2 in T.product(mu, lam).items():
                        prod = cf * c2
                        out[nu] = out.get(nu, Laurent.zero(("q",))) + prod
                return {k: v for k, v in out.items() if not v.is_zero()}

            rng = random.Random(10 * r + n)
            for _ in range(25):
                a, b, c = (rng.choice(parts) for _ in range(3))
                left = mul(T.product(a, b), c)
                right = mul(T.product(b, c), a)
                assert left == right, (r, n, a, b, c)


class TestSerialization:
    def test_json_round_trip(self):
        T = alt_structure_constants(2, 3)
        doc = T.to_json()
        assert QLRTable.from_json(doc) == T

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d["entries"][0]["q"][0].__setitem__(1, 0.1), "q must be a list of"),
        (lambda d: d["entries"][0]["q"][0].__setitem__(0, True), "q must be a list of"),
        (lambda d: d.__setitem__("r", "1"), "r must be an integer, got '1'"),
        (lambda d: d.__setitem__("entries", 3), "entries must be a list of objects, got 3"),
        (lambda d: d["entries"].__setitem__(0, 5), "entries must be a list of objects"),
        (lambda d: d["entries"][0].__setitem__("mu", "21"),
         "partitions must be lists of integers"),
        (None, "a table must be a JSON object, got list"),
    ], ids=["float-coefficient", "bool-exponent", "r-str", "entries-int",
            "entry-int", "mu-str", "not-an-object"])
    def test_mistyped_table_is_rejected(self, mutate, message):
        doc = json.loads(json.dumps(alt_structure_constants(2, 3).to_json()))
        if mutate is None:
            doc = [doc]
        else:
            mutate(doc)
        with pytest.raises(ValueError, match=message):
            QLRTable.from_json(doc)

    @pytest.mark.parametrize("write", [QLRTable.to_json, QLRTable.to_csv],
                             ids=["json", "csv"])
    def test_non_integer_coefficient_is_rejected(self, write):
        doc = json.loads(json.dumps(alt_structure_constants(2, 3).to_json()))
        doc["entries"][0]["q"][0][1] = "1/2"
        with pytest.raises(ValueError, match="non-integer coefficient"):
            write(QLRTable.from_json(doc))

    def test_json_is_deterministic(self):
        a = json.dumps(alt_structure_constants(2, 4).to_json(), sort_keys=True)
        b = json.dumps(alt_structure_constants(2, 4).to_json(), sort_keys=True)
        assert a == b

    def test_json_shape(self):
        doc = alt_structure_constants(2, 2).to_json()
        assert set(doc) == {"r", "n", "entries"}
        item = doc["entries"][0]
        assert set(item) == {"lambda", "mu", "nu", "q"}
        keys = [(d["lambda"], d["mu"], d["nu"]) for d in doc["entries"]]
        assert keys == sorted(keys)

    def test_csv_header_and_determinism(self):
        text = alt_structure_constants(2, 3).to_csv()
        lines = text.splitlines()
        assert lines[0] == "lambda,mu,nu,qpow,coef"
        assert text == alt_structure_constants(2, 3).to_csv()

    def test_entry_is_order_insensitive(self):
        T = alt_structure_constants(2, 3)
        assert T.entry((1, 1), (2,), ()) == T.entry((2,), (1, 1), ())


class TestWedgeMetric:
    @pytest.mark.parametrize("r,n", [(2, 3), (2, 4), (3, 4)])
    def test_supported_on_complements_with_unit_value(self, r, n):
        pm = alt_metric(r, n)
        for lam in pm.labels:
            for mu in pm.labels:
                expected = 1 if mu == complement_partition(lam, r, n) else 0
                assert pm.entry(lam, mu) == expected, (lam, mu)

    def test_sign_report_passes(self):
        assert metric_sign_report(2, 3).ok
        assert metric_sign_report(2, 4).ok

    def test_json_shape(self):
        doc = alt_metric(2, 3).to_json()
        assert doc["partitions"][0] == []
        assert doc["entries"][0][-1] == "1"
