"""Scalar tower: Laurent polynomials, exact division, truncated series."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altfrob.linalg import Mat
from altfrob.rings import Laurent, Series, json_text, laurent_dot, qlaurent, series_dot

QV = ("q",)


def sgen(svars, order, name, qvars=QV):
    """A formal variable of the Series ring over Laurent(qvars)."""
    return Series.gen(svars, order, name, Laurent.const(qvars, 1))


def test_laurent_basic_arithmetic():
    q = Laurent.gen(("q",), "q")
    p = (q + 1) * (q - 1)
    assert p == q * q - 1
    assert p.terms == {(2,): Fraction(1), (0,): Fraction(-1)}


def test_laurent_negative_exponents():
    q = Laurent.gen(("q",), "q")
    qinv = Laurent.gen(("q",), "q", power=-1)
    assert q * qinv == 1
    assert (qinv ** 3) * (q ** 3) == 1
    assert q ** -2 == qinv * qinv


def test_laurent_nonmonomial_negative_power_raises():
    q = Laurent.gen(("q",), "q")
    with pytest.raises(ValueError):
        (q + 1) ** -1


def test_laurent_log_deriv():
    # q d/dq on 5 q^3 - 2 q^{-1} + 7
    p = qlaurent([(3, 5), (-1, -2), (0, 7)])
    assert p.log_deriv("q") == qlaurent([(3, 15), (-1, 2)])


def test_laurent_plain_deriv():
    p = qlaurent([(3, 5), (-1, -2), (0, 7)])
    assert p.deriv("q") == qlaurent([(2, 15), (-2, 2)])


def test_laurent_scale_var_sign_twist():
    p = qlaurent([(2, 3), (1, 1), (0, 4)])
    twisted = p.scale_var("q", -1)
    assert twisted == qlaurent([(2, 3), (1, -1), (0, 4)])


def test_laurent_compress_var():
    p = qlaurent([(6, 2), (3, -1), (0, 4)])
    assert p.compress_var("q", 3) == qlaurent([(2, 2), (1, -1), (0, 4)])
    with pytest.raises(ValueError):
        qlaurent([(2, 1)]).compress_var("q", 3)


def test_laurent_multivariate_promote_and_eval():
    p = qlaurent([(2, 3), (0, 1)])
    big = p.promote(("t", "q"))
    assert big.terms == {(0, 2): Fraction(3), (0, 0): Fraction(1)}
    back = big.eval_var("t", 7)
    assert back == p


def test_laurent_str_writes_a_unit_coefficient_as_a_bare_sign():
    q = Laurent.gen(QV, "q")
    assert str(1 - q * q) == "1 - q^2"
    assert str(-q) == "-q"
    assert str(q ** -1 - 2 * q + 3) == "q^-1 + 3 - 2*q"
    assert str(Laurent.const(QV, -1)) == "-1"
    assert str(q * Fraction(-1, 2)) == "-1/2*q"
    assert str(Laurent(("lam", "q"), {(1, 1): Fraction(-1), (0, 0): Fraction(1)})) \
        == "1 - lam*q"


def test_laurent_eval_negative_power_at_zero_raises():
    p = qlaurent([(-1, 1)])
    with pytest.raises(ZeroDivisionError):
        p.eval_var("q", 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-9, 9)), max_size=5),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(-9, 9)), max_size=5),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(-9, 9)), max_size=5))
def test_laurent_arithmetic_axioms(xs, ys, zs):
    a = qlaurent(xs)
    b = qlaurent(ys)
    c = qlaurent(zs)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a - a == Laurent.zero(("q",))


laurent_terms = st.lists(st.tuples(st.integers(-4, 4), st.integers(-9, 9)), max_size=4)


@settings(max_examples=60, deadline=None)
@given(laurent_terms, laurent_terms.filter(lambda t: not qlaurent(t).is_zero()))
def test_laurent_divide_recovers_a_factor(xs, ys):
    a, b = qlaurent(xs), qlaurent(ys)
    assert (a * b).divide(b) == a


@settings(max_examples=60, deadline=None)
@given(laurent_terms, st.integers(-3, 3), st.integers(1, 3), st.integers(1, 3))
def test_laurent_divide_reports_a_nondivisor(xs, shift, root, degree):
    # b = q^shift (q - root)^degree does not divide a*b + q^shift
    q = Laurent.gen(("q",), "q")
    b = q ** shift * (q - root) ** degree
    a = qlaurent(xs)
    assert (a * b + q ** shift).divide(b) is None
    assert (a * b).divide(b) == a


def test_laurent_divide_by_a_monomial_in_two_variables():
    lam = Laurent.gen(("lam", "q"), "lam")
    q = Laurent.gen(("lam", "q"), "q")
    a = lam * lam + q ** -1 + 3
    mono = (lam ** -2) * q * Fraction(2, 3)
    assert (a * mono).divide(mono) == a
    assert a.divide(mono) * mono == a


def test_laurent_divide_rejects_a_non_monomial_in_two_variables():
    lam = Laurent.gen(("lam", "q"), "lam")
    q = Laurent.gen(("lam", "q"), "q")
    with pytest.raises(ValueError, match="non-monomial"):
        (lam * q).divide(lam + q)
    with pytest.raises(ZeroDivisionError):
        lam.divide(Laurent.zero(("lam", "q")))


def test_series_truncation_total_degree():
    x, y = sgen(("x", "y"), 2, "x"), sgen(("x", "y"), 2, "y")
    p = (x + y) * (x + y)
    assert p.coeff((2, 0)) == Laurent.const(("q",), 1)
    assert p.coeff((1, 1)) == Laurent.const(("q",), 2)
    cubic = p * x
    assert cubic.is_zero()  # degree 3 exceeds order 2


def test_series_deriv_integrate_roundtrip():
    x = sgen(("x",), 5, "x")
    p = x * x * x  # x^3
    assert p.deriv("x") == (x * x).scale(3)
    assert (x * x).scale(3).integrate("x") == p


def test_series_integrate_overflow_raises():
    x = sgen(("x",), 2, "x")
    with pytest.raises(ValueError):
        (x * x).integrate("x")


def test_series_q_coefficients_and_map():
    x = sgen(("x",), 3, "x")
    qx = Laurent.gen(QV, "q") * x          # q * x
    d = qx.map_coeffs(lambda c: c.log_deriv("q"))
    assert d == qx                 # q d/dq (q x) = q x


def test_series_coeff_of_var_and_times_var():
    x, y = sgen(("x", "y"), 3, "x"), sgen(("x", "y"), 3, "y")
    p = x * y * y + x * x
    cy2 = p.coeff_of_var("y", 2)
    assert cy2 == x
    assert x.times_var("y", 2) == x * y * y


def test_series_restrict_zero():
    x, y = sgen(("x", "y"), 3, "x"), sgen(("x", "y"), 3, "y")
    p = x + y + x * y
    assert p.restrict_zero(["y"]) == x


def test_series_promote():
    big = sgen(("x",), 2, "x").promote(("x", "y"), 4)
    assert big == sgen(("x", "y"), 4, "x")


# -- fused Series products against pairwise products -------------------------


def reference_dot(pairs):
    """Sum of a * b built from pairwise coefficient products and Series sums.

    Series() drops the terms past the truncation order and the zero sums.
    """
    total = Series.zero(pairs[0][0].vars, pairs[0][0].order)
    for a, b in pairs:
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms[e] + c1 * c2 if e in terms else c1 * c2
        total = total + Series(a.vars, a.order, terms)
    return total


SVARS = ("t0", "t1", "t2")
QVAR_CHOICES = [("q",), ("lam", "q")]
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def series_rings(draw):
    """(series variables, order, Laurent variables): 1-3 variables, orders 0-4."""
    return (SVARS[:draw(st.integers(1, 3))], draw(st.integers(0, 4)),
            draw(st.sampled_from(QVAR_CHOICES)))


@st.composite
def series(draw, ring):
    """A Series over Laurent coefficients, negative q-powers and cancellations allowed."""
    svars, order, qvars = ring
    laurent = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * len(qvars)),
                              small_fractions, max_size=3)
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, order)] * len(svars)),
                                 laurent.map(lambda t: Laurent(qvars, t)), max_size=6))
    return Series(svars, order, terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_mul_matches_pairwise_reference(data):
    ring = data.draw(series_rings())
    a, b = data.draw(series(ring)), data.draw(series(ring))
    assert a * b == reference_dot([(a, b)])


@settings(max_examples=25, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_series_matmul_matches_pairwise_reference(data, n, m, p):
    ring = data.draw(series_rings())
    A = Mat([[data.draw(series(ring)) for _ in range(m)] for _ in range(n)])
    B = Mat([[data.draw(series(ring)) for _ in range(p)] for _ in range(m)])
    got = A @ B
    for i in range(n):
        for j in range(p):
            assert got[i, j] == reference_dot(list(zip(A.row(i), B.col(j))))


@st.composite
def sparse_series_matrix(draw, ring, nrows, ncols):
    """A Series matrix with zero entries and non-monomial, mixed-denominator coefficients.

    Every nonzero coefficient has two or three Laurent terms, so the kernel's
    inner coefficient loop runs more than once per pair of series terms.
    """
    svars, order, qvars = ring
    laurent = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * len(qvars)),
                              st.fractions(min_value=-3, max_value=3, max_denominator=6)
                              .filter(bool), min_size=2, max_size=3)
    entry = st.dictionaries(st.tuples(*[st.integers(0, order)] * len(svars)),
                            laurent.map(lambda t: Laurent(qvars, t)), min_size=1, max_size=4)
    zero = Series.zero(svars, order)
    return Mat([[zero if draw(st.booleans()) else Series(svars, order, draw(entry))
                 for _ in range(ncols)] for _ in range(nrows)])


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_sparse_series_matmul_matches_entrywise_reference(data, n, m, p):
    ring = data.draw(series_rings())
    A = data.draw(sparse_series_matrix(ring, n, m))
    B = data.draw(sparse_series_matrix(ring, m, p))
    got = A @ B
    for i in range(n):
        for j in range(p):
            pairs = list(zip(A.row(i), B.col(j)))
            assert got[i, j] == reference_dot(pairs) == series_dot(pairs)
            assert all(sum(e) <= got[i, j].order and not c.is_zero()
                       for e, c in got[i, j].terms.items())


def test_series_matmul_checks_every_entry():
    x, zero = sgen(("x",), 3, "x"), Series.zero(("x",), 3)
    # a zero entry of another series ring
    for bad in (Series.zero(("y",), 3), Series.zero(("x",), 2)):
        with pytest.raises(ValueError, match="series ring mismatch"):
            Mat([[x, bad]]) @ Mat([[x], [x]])
        with pytest.raises(ValueError, match="series ring mismatch"):
            Mat([[x, x]]) @ Mat([[x], [bad]])
    # a coefficient of the wrong kind, in an entry whose partner is zero
    xp = sgen(("x",), 3, "x", qvars=("p",))
    xf = Series.gen(("x",), 3, "x", Fraction(1))
    with pytest.raises(ValueError, match="variable mismatch"):
        Mat([[x, xp]]) @ Mat([[x], [zero]])
    with pytest.raises(ValueError, match="variable mismatch"):
        Mat([[x, zero]]) @ Mat([[x], [xp]])
    with pytest.raises(ValueError, match="variable mismatch"):
        series_dot([(x, x), (xp, zero)])
    with pytest.raises(TypeError, match="Laurent coefficients"):
        Mat([[x, xf]]) @ Mat([[x], [zero]])
    with pytest.raises(TypeError, match="Laurent coefficients"):
        series_dot([(x, x), (zero, xf)])


def test_series_dot_zero_operands():
    x, zero = sgen(("x", "y"), 3, "x"), Series.zero(("x", "y"), 3)
    assert (zero * x).is_zero() and (x * zero).is_zero()
    assert series_dot([(zero, x), (x, zero)]) == zero
    pairs = [(zero, x), (x, Series.const(("x", "y"), 3, Laurent.gen(QV, "q", -1)))]
    assert series_dot(pairs) == reference_dot(pairs) != zero
    Z = Mat([[zero, zero]])
    assert (Z @ Mat([[x], [x]])).is_zero()
    # a sum that cancels leaves no term behind
    assert series_dot([(x, x), (x, -x)]).terms == {}


def test_series_dot_rejects_mismatched_series_rings():
    x = sgen(("x",), 3, "x")
    other_vars = sgen(("y",), 3, "y")
    other_order = sgen(("x",), 2, "x")
    for bad in (other_vars, other_order):
        with pytest.raises(ValueError, match="series ring mismatch"):
            x * bad
        with pytest.raises(ValueError, match="series ring mismatch"):
            series_dot([(x, x), (x, bad)])
        with pytest.raises(ValueError, match="series ring mismatch"):
            Mat([[x, x]]) @ Mat([[x], [bad]])


def test_series_dot_rejects_mismatched_laurent_variables():
    xq = sgen(("x",), 3, "x")
    xp = sgen(("x",), 3, "x", qvars=("p",))
    with pytest.raises(ValueError, match="variable mismatch"):
        xq * xp
    with pytest.raises(ValueError, match="variable mismatch"):
        series_dot([(xq, xq), (xp, xp)])
    with pytest.raises(ValueError, match="variable mismatch"):
        Mat([[xq, xp]]) @ Mat([[xq], [xp]])
    # the tower is fixed: a Series over rationals has no product
    xf = Series.gen(("x",), 3, "x", Fraction(1))
    with pytest.raises(TypeError, match="Laurent coefficients"):
        xf * xf
    with pytest.raises(TypeError, match="Laurent coefficients"):
        series_dot([(xq, xq), (xf, xq)])


def random_laurent(rng, variables):
    """A sparse random Laurent polynomial, zero about a third of the time."""
    if rng.random() < 0.35:
        return Laurent.zero(variables)
    return Laurent(variables, {tuple(rng.randint(-2, 2) for _ in variables):
                               Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                               for _ in range(rng.randint(1, 3))})


@pytest.mark.parametrize("variables", [QV, ("q", "p")])
@pytest.mark.parametrize("seed", range(6))
def test_laurent_matmul_matches_pairwise_sum(variables, seed):
    rng = random.Random(seed)
    m, k, n = (rng.randint(2, 5) for _ in range(3))
    zero = Laurent.zero(variables)
    A = [[random_laurent(rng, variables) for _ in range(k)] for _ in range(m)]
    B = [[random_laurent(rng, variables) for _ in range(n)] for _ in range(k)]
    A[rng.randrange(m)] = [zero] * k                 # a zero row
    col = rng.randrange(n)
    for row in B:                                    # a zero column
        row[col] = zero
    product = Mat(A) @ Mat(B)
    for i in range(m):
        for j in range(n):
            expected = sum((A[i][t] * B[t][j] for t in range(k)), zero)
            assert product[i, j] == expected
            assert all(type(c) is Fraction and c for c in product[i, j].terms.values())


def test_laurent_dot_cancels_and_rejects_mismatched_variables():
    q, p = Laurent.gen(QV, "q"), Laurent.gen(("p",), "p")
    assert laurent_dot([(q, q), (q, -q)]).terms == {}
    with pytest.raises(ValueError, match="variable mismatch"):
        laurent_dot([(q, q), (p, p)])
    with pytest.raises(ValueError, match="variable mismatch"):
        laurent_dot([(q, Laurent.zero(("p",)))])
    with pytest.raises(ValueError, match="variable mismatch"):
        Mat([[q, p]]) @ Mat([[q], [p]])


# Leaves json_text accepts: ints of any size and sign, booleans next to 0 and 1
# (equal and hashing alike, yet written differently), None, and any text.
json_leaves = (st.integers() | st.sampled_from([0, 1, -1, True, False, None, 2 ** 70, -2 ** 70])
               | st.text() | st.sampled_from(["", '"', "\\", "\n\t\x00\x1f\x7f", "é☃\U0001f600"]))
json_docs = st.recursive(
    json_leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(json_docs)
def test_json_text_matches_json_dumps(doc):
    assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_json_text_keeps_booleans_and_ints_apart():
    doc = [[False], [0], [True], [1], {"a": [0, False, None]}]
    assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [1.5, [Fraction(1, 2)], {"a": [0.0]}, {1: "x"},
                                 {"a": {2: 3}}, {"a": 1, None: 2}, {3}],
                         ids=["float", "fraction", "nested-float", "int-key",
                              "nested-int-key", "none-key", "set"])
def test_json_text_refuses_other_types(doc):
    with pytest.raises(TypeError):
        json_text(doc)
