"""Grassmannian structure constants: two routes, one table."""

import json
import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altfrob.grassmann import (
    QLRTable,
    _straighten,
    alt_metric,
    alt_structure_constants,
    alternant,
    complement_partition,
    indices_from_partition,
    lr_count,
    lr_products,
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


def partitions(size, rows, cap):
    """The partitions of size with at most rows parts, each at most cap."""
    if size == 0:
        yield ()
    elif rows:
        for first in range(min(size, cap), 0, -1):
            for rest in partitions(size - first, rows - 1, first):
                yield (first,) + rest


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
    """_straighten reduces one alternant a_exps into the bialternant basis."""

    def test_vandermonde_reduces_to_unit(self):
        assert _straighten((1, 0), 3) == (1, 0, (0, 1))

    def test_single_wraparound_picks_up_minus_q(self):
        assert _straighten((4, 1), 3) == (-1, 1, (0, 1))

    def test_repeated_residues_annihilate(self):
        assert _straighten((3, 0), 2) is None


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

    def test_products_keep_at_most_r_rows(self):
        assert lr_products((1, 1), (1,), 2) == {(2, 1): 1}
        assert lr_products((1, 1, 1), (1,), 2) == {} == lr_products((1,), (1, 1, 1), 2)

    @pytest.mark.parametrize("r,n", [(r, n) for r in range(1, 4) for n in range(r, 6)]
                             + [(4, n) for n in range(4, 7)])
    def test_products_agree_with_skew_fillings(self, r, n):
        """Lattice tableaux of one factor against skew fillings, both orders."""
        for lam, mu in product(rect_partitions(r, n), repeat=2):
            size = sum(lam) + sum(mu)
            nus = list(partitions(size, r, size))
            want = {nu: c for nu in nus if (c := lr_count(nu, lam, mu))}
            assert lr_products(lam, mu, r) == want, (lam, mu)
            assert all(lr_count(nu, mu, lam) == want.get(nu, 0) for nu in nus), (lam, mu)


class TestRimHooks:
    def test_wraparound_hook(self):
        assert rimhook_reduce((3, 1), 2, 3) == ((), 1, 1)

    def test_fitting_shape_untouched(self):
        assert rimhook_reduce((2, 1), 2, 3) == ((2, 1), 0, 1)

    def test_stuck_shape_dies(self):
        assert rimhook_reduce((3, 1), 2, 2) is None

    def test_double_removal(self):
        assert rimhook_reduce((3, 3), 2, 2) == ((), 2, 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_agrees_with_straightening_shape_by_shape(self, n):
        """nu strips to its core as a_(nu + delta) straightens, up to the q twist.

        A shape with r + 1 rows vanishes, whatever hooks it has.
        """
        for r in range(1, n + 1):
            for size in range(3 * (n + 1) + 1):
                for nu in partitions(size, r + 1, size):
                    got = rimhook_reduce(nu, r, n)
                    padded = nu + (0,) * (r - len(nu))
                    straight = len(nu) <= r and _straighten(
                        [padded[i] + r - 1 - i for i in range(r)], n)
                    if not straight:
                        assert got is None, (nu, r, n)
                        continue
                    sign, carries, I = straight
                    assert got == (partition_from_indices(I, r), carries,
                                   sign * (-1) ** ((r - 1) * carries)), (nu, r, n)


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
                             + [(4, n) for n in range(4, 8)]
                             + [(2, 10), (3, 8), (5, 7), (4, 8)])
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


@st.composite
def mutated_table(draw, doc):
    """A copy of a valid table document with one entry reordered, repeated or zeroed.

    Returns the document and the start of the error it must raise.
    """
    doc = json.loads(json.dumps(doc))
    entries = doc["entries"]
    how = draw(st.sampled_from(["swap", "repeat", "zero", "repeat-q"]))
    if how == "swap":  # the pair out of wedge order
        item = draw(st.sampled_from([e for e in entries if e["lambda"] != e["mu"]]))
        item["lambda"], item["mu"] = item["mu"], item["lambda"]
        return doc, "lambda, mu must be in wedge order"
    item = draw(st.sampled_from(entries))
    if how == "repeat":  # the same (lambda, mu, nu), its coefficient kept or changed
        twin = {**item, "q": draw(st.sampled_from([item["q"], [[0, 7]]]))}
        entries.insert(draw(st.integers(0, len(entries))), twin)
        return doc, "repeated entry"
    if how == "zero":
        item["q"] = draw(st.sampled_from([[], [[e, 0] for e, _ in item["q"]]]))
        return doc, "zero coefficient"
    e, c = item["q"][0]
    item["q"].append([e, draw(st.sampled_from([c, 7]))])
    return doc, "repeated q exponent"


@st.composite
def table_documents(draw):
    """A valid table document: entries and q exponents in any order, coefficients
    small or large, negative, and as integers or integer strings."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r, r + 2))
    parts = rect_partitions(r, n)
    triples = [(lam, mu, nu) for i, lam in enumerate(parts) for mu in parts[i:]
               for nu in parts]
    coef = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30)).filter(bool)
    entries = []
    for lam, mu, nu in draw(st.lists(st.sampled_from(triples), unique=True, max_size=12)):
        q = draw(st.dictionaries(st.integers(-4, 6), coef, min_size=1, max_size=4))
        entries.append({"lambda": list(lam), "mu": list(mu), "nu": list(nu),
                        "q": [[e, draw(st.sampled_from([c, str(c)]))] for e, c in q.items()]})
    return {"r": r, "n": n, "entries": entries}


class TestSerialization:
    @settings(max_examples=80, deadline=None)
    @given(table_documents())
    @example({"r": 2, "n": 3, "entries": []})
    def test_json_text_is_the_sorted_indent_2_layout(self, doc):
        T = QLRTable.from_json(doc)
        text = T.to_json_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        back = json.loads(text)
        assert QLRTable.from_json(back) == T
        keys = [(d["lambda"], d["mu"], d["nu"]) for d in back["entries"]]
        assert keys == sorted(keys)
        assert all(d["q"] == sorted(d["q"]) for d in back["entries"])

    def test_json_round_trip(self):
        T = alt_structure_constants(2, 3)
        assert QLRTable.from_json(json.loads(T.to_json_text())) == T

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d["entries"][0]["q"][0].__setitem__(1, 0.1), "q must be a list of"),
        (lambda d: d["entries"][0]["q"][0].__setitem__(0, True), "q must be a list of"),
        (lambda d: d.__setitem__("r", "1"), "r must be an integer, got '1'"),
        (lambda d: d.__setitem__("entries", 3), "entries must be a list of objects, got 3"),
        (lambda d: d["entries"].__setitem__(0, 5), "entries must be a list of objects"),
        (lambda d: d["entries"][0].__setitem__("mu", "21"),
         "partitions must be lists of integers"),
        (None, "a table must be a JSON object, got list"),
        (lambda d: d.pop("entries"), "missing field entries"),
        (lambda d: d["entries"][0].pop("nu"), "missing field nu"),
        (lambda d: d["entries"][0].pop("q"), "missing field q"),
        (lambda d: d["entries"][0]["q"][0].__setitem__(1, "1/0"), "zero denominator in '1/0'"),
        (lambda d: d.__setitem__("r", 0), "need 1 <= r <= n, got r = 0, n = 3"),
        (lambda d: d.__setitem__("r", 4), "need 1 <= r <= n, got r = 4, n = 3"),
        (lambda d: d["entries"][0].__setitem__("lambda", [5]),
         "partitions must fit the 2 x 2 rectangle"),
    ], ids=["float-coefficient", "bool-exponent", "r-str", "entries-int",
            "entry-int", "mu-str", "not-an-object", "missing-entries", "missing-nu",
            "missing-q", "zero-denominator", "r-zero", "r-above-n", "lambda-outside"])
    def test_mistyped_table_is_rejected(self, mutate, message):
        doc = json.loads(alt_structure_constants(2, 3).to_json_text())
        if mutate is None:
            doc = [doc]
        else:
            mutate(doc)
        with pytest.raises(ValueError, match=message):
            QLRTable.from_json(doc)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mutated_table_documents_are_rejected(self, data):
        doc, message = data.draw(
            mutated_table(json.loads(alt_structure_constants(2, 3).to_json_text())))
        with pytest.raises(ValueError, match=message) as info:
            QLRTable.from_json(doc)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("write", [QLRTable.to_json_text, QLRTable.to_csv],
                             ids=["json", "csv"])
    def test_non_integer_coefficient_is_rejected(self, write):
        doc = json.loads(alt_structure_constants(2, 3).to_json_text())
        doc["entries"][0]["q"][0][1] = "1/2"
        with pytest.raises(ValueError, match="non-integer coefficient"):
            write(QLRTable.from_json(doc))

    def test_json_is_deterministic(self):
        assert (alt_structure_constants(2, 4).to_json_text()
                == alt_structure_constants(2, 4).to_json_text())

    def test_json_shape(self):
        doc = json.loads(alt_structure_constants(2, 2).to_json_text())
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

    def test_json_shape(self):
        doc = alt_metric(2, 3).to_json()
        assert doc["partitions"][0] == []
        assert doc["entries"][0][-1] == "1"
