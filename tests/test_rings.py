"""Scalar tower: Laurent polynomials, exact division, truncated series."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altfrob.linalg import Mat, product_sum
from altfrob.presaito import dscalar
from altfrob.rings import (KEY_LIMIT, Laurent, Series, _pack, json_text, laurent_dot,
                           qlaurent, series_dot, series_matmul)

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


def test_series_deriv_of_a_power():
    x = sgen(("x",), 5, "x")
    p = x * x * x  # x^3
    assert p.deriv("x") == (x * x).scale(3)


def test_series_q_coefficients_and_map():
    x = sgen(("x",), 3, "x")
    qx = Laurent.gen(QV, "q") * x          # q * x
    assert qx.log_deriv("q") == qx    # q d/dq (q x) = q x


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
# () is the Laurent ring of a point family: constant coefficients, no q
QVAR_CHOICES = [(), ("q",), ("lam", "q")]
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def series_rings(draw, qvar_choices=QVAR_CHOICES):
    """(series variables, order, Laurent variables): 1-3 variables, orders 0-4."""
    return (SVARS[:draw(st.integers(1, 3))], draw(st.integers(0, 4)),
            draw(st.sampled_from(qvar_choices)))


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
            assert got[i, j] == reference_dot(list(zip(A.rows[i], B.col(j))))


@st.composite
def sparse_series_matrix(draw, ring, nrows, ncols):
    """A Series matrix with zero entries and non-monomial, mixed-denominator coefficients.

    Every nonzero coefficient has two or three Laurent terms (one over the
    empty Laurent tuple), so the kernel's inner coefficient loop runs more
    than once per pair of series terms.
    """
    svars, order, qvars = ring
    laurent = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * len(qvars)),
                              st.fractions(min_value=-3, max_value=3, max_denominator=6)
                              .filter(bool), min_size=2 if qvars else 1, max_size=3)
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
            pairs = list(zip(A.rows[i], B.col(j)))
            assert got[i, j] == reference_dot(pairs) == series_dot(pairs)
            assert all(sum(e) <= got[i, j].order and not c.is_zero()
                       for e, c in got[i, j].terms.items())


def reference_product_sum(products, addend):
    """sum of sign * A @ B plus the addend, entry by entry from reference_dot and Series sums."""
    A0, B0 = products[0][1], products[0][2]
    rows = []
    for i in range(A0.nrows):
        row = []
        for j in range(B0.ncols):
            acc = Series.zero(A0[0, 0].vars, A0[0, 0].order) if addend is None else addend[i, j]
            for sign, A, B in products:
                p = reference_dot(list(zip(A.rows[i], B.col(j))))
                acc = acc + p if sign > 0 else acc - p
            row.append(acc)
        rows.append(row)
    return Mat(rows)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.booleans())
def test_signed_product_sum_matches_pairwise_reference(data, n, m, p, sparse):
    ring = data.draw(series_rings())

    def matrix(rows, cols):
        if sparse:
            return data.draw(sparse_series_matrix(ring, rows, cols))
        return Mat([[data.draw(series(ring)) for _ in range(cols)] for _ in range(rows)])
    products = [(data.draw(st.sampled_from([1, -1])), matrix(n, m), matrix(m, p))
                for _ in range(data.draw(st.integers(1, 3)))]
    addend = matrix(n, p) if data.draw(st.booleans()) else None
    got = product_sum(products, addend)
    assert got == reference_product_sum(products, addend)
    assert got == Mat(series_matmul([(s, A.rows, B.rows) for s, A, B in products],
                                     addend and addend.rows))
    # a sum that cancels is the zero matrix, entry by entry the zero of the ring
    A, B = products[0][1], products[0][2]
    for zero in (product_sum([(1, A, B), (-1, A, B)]), product_sum([(-1, A, B)], A @ B),
                 product_sum(products + [(-s, X, Y) for s, X, Y in products])):
        assert zero.is_zero()
        assert all(x == Series.zero(*ring[:2]) for r in zero.rows for x in r)


def test_product_sum_checks_every_operand_of_every_term():
    x, zero = sgen(("x",), 3, "x"), Series.zero(("x",), 3)
    good = Mat([[x, zero], [zero, x]])
    for bad in (Series.zero(("y",), 3), Series.zero(("x",), 2)):
        # a zero entry of another series ring, where its partners are zero too
        B = Mat([[x, zero], [zero, bad]])
        for products, addend in (([(1, good, good), (-1, B, good)], None),
                                 ([(1, good, good), (-1, good, B)], None),
                                 ([(1, good, good), (-1, good, good)], B)):
            with pytest.raises(ValueError, match="series ring mismatch"):
                product_sum(products, addend)
    xp = sgen(("x",), 3, "x", qvars=("p",))
    B = Mat([[x, zero], [xp, zero]])
    for products, addend in (([(1, good, good), (-1, B, good)], None),
                             ([(1, good, good), (-1, good, B)], None),
                             ([(1, good, good)], B)):
        with pytest.raises(ValueError, match=r"variable mismatch: \('q',\) vs \('p',\)"):
            product_sum(products, addend)
    with pytest.raises(ValueError, match="cannot multiply"):
        product_sum([(1, good, good), (-1, Mat([[x, x]]), good)])
    with pytest.raises(ValueError, match="shape mismatch"):
        product_sum([(1, good, good)], Mat([[x, x]]))


def test_product_sum_key_limit_message_is_unchanged():
    top = Series.const(("x",), 2, Laurent.gen(QV, "q", KEY_LIMIT))
    q = Series.const(("x",), 2, Laurent.gen(QV, "q"))
    one = Series.const(("x",), 2, Laurent.const(QV, 1))
    message = (f"Laurent exponents in {KEY_LIMIT}..{KEY_LIMIT} and 1..1 "
               f"multiply past the Series key limit {KEY_LIMIT}")
    for fn in (lambda: top * q,
               lambda: product_sum([(1, Mat([[one]]), Mat([[one]])),
                                    (-1, Mat([[top]]), Mat([[q]]))]),
               lambda: product_sum([(-1, Mat([[top]]), Mat([[q]]))], Mat([[one]]))):
        with pytest.raises(ValueError) as err:
            fn()
        assert str(err.value) == message


# -- elementwise Series operations against their Laurent view ------------------


def rebuild(svars, order, pairs):
    """The Series summing the Laurent coefficients of (exponents, Laurent) pairs.

    Series() drops the terms past the truncation order and the zero sums.
    """
    terms = {}
    for e, c in pairs:
        terms[e] = terms[e] + c if e in terms else c
    return Series(svars, order, terms)


def bump(e, i, k):
    return e[:i] + (e[i] + k,) + e[i + 1:]


def assert_canonical(x):
    """Lowest terms over a positive denominator, keys of the right length, terms in the order."""
    width = len(x.vars) + len(x.qvars or ())
    assert (x.qvars is None) == x.is_zero()
    assert type(x.den) is int and x.den > 0 and math.gcd(x.den, *x.num.values()) == 1
    assert all(type(n) is int and n != 0 for n in x.num.values())
    for key, c in x.flat.items():
        assert type(c) is Fraction and c != 0
        assert len(key) == width and sum(key[:len(x.vars)]) <= x.order


@st.composite
def nonmonomial_laurent(draw, qvars):
    """Two or three terms; over the empty tuple, which has only the constant, one."""
    terms = draw(st.dictionaries(st.tuples(*[st.integers(-2, 2)] * len(qvars)),
                                 small_fractions.filter(bool),
                                 min_size=2 if qvars else 1, max_size=3))
    return Laurent(qvars, terms)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_series_sums_and_scalings_match_the_laurent_view(data):
    ring = data.draw(series_rings())
    svars, order, qvars = ring
    a, b = data.draw(series(ring)), data.draw(series(ring))
    r, lam = data.draw(small_fractions), data.draw(nonmonomial_laurent(qvars))
    A, B = list(a.terms.items()), list(b.terms.items())
    cases = [
        (a + b, A + B),
        (a - b, A + [(e, -c) for e, c in B]),
        (-a, [(e, -c) for e, c in A]),
        (a.scale(r), [(e, c * r) for e, c in A]),
        (a * r, [(e, c * r) for e, c in A]),
        (a.scale(lam), [(e, c * lam) for e, c in A]),
        (lam * a, [(e, c * lam) for e, c in A]),
    ]
    for got, pairs in cases:
        assert got == rebuild(svars, order, pairs)
        assert_canonical(got)
    assert Series(svars, order, a.terms) == a
    assert hash(Series(svars, order, a.terms)) == hash(a)
    assert (a - a).is_zero() and a - a == Series.zero(svars, order)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_structure_maps_match_the_laurent_view(data):
    ring = data.draw(series_rings())
    svars, order, qvars = ring
    x = data.draw(series(ring))
    X = list(x.terms.items())
    i = data.draw(st.integers(0, len(svars) - 1))
    name, k = svars[i], data.draw(st.integers(0, 3))
    names = data.draw(st.lists(st.sampled_from(svars), unique=True))
    idx = [svars.index(n) for n in names]
    cases = [
        (x.deriv(name), [(bump(e, i, -1), c * e[i]) for e, c in X if e[i]]),
        (x.times_var(name, k), [(bump(e, i, k), c) for e, c in X]),
        (x.coeff_of_var(name, k), [(bump(e, i, -k), c) for e, c in X if e[i] == k]),
        (x.truncate(k), [(e, c) for e, c in X if sum(e) <= k]),
        (x.restrict_zero(names), [(e, c) for e, c in X if all(e[j] == 0 for j in idx)]),
    ]
    for got, pairs in cases:
        assert got == rebuild(svars, order, pairs)
        assert_canonical(got)
    # a wider series ring at another order, and a wider Laurent ring
    big_s, big_q = ("s",) + svars[::-1], qvars + ("p",)
    new_order = data.draw(st.integers(0, 4))

    def embed(e):
        return (0,) + e[::-1]
    for qv, coeff in ((None, lambda c: c), (big_q, lambda c: c.promote(big_q))):
        got = x.promote(big_s, new_order, qv)
        assert got == rebuild(big_s, new_order, [(embed(e), coeff(c)) for e, c in X])
        assert_canonical(got)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_coefficient_derivations_match_the_laurent_view(data):
    ring = data.draw(series_rings([qv for qv in QVAR_CHOICES if qv]))
    svars, order, qvars = ring
    x = data.draw(series(ring))
    X = list(x.terms.items())
    cases = [(dscalar(x, name, "q"), [(e, c.log_deriv(name)) for e, c in X])
             for name in qvars]
    for got, pairs in cases:
        assert got == rebuild(svars, order, pairs)
        assert_canonical(got)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_zero_series_takes_the_laurent_ring_of_the_other_operand(data):
    ring = (data.draw(series_rings())[0], data.draw(st.integers(0, 4)), ("lam", "q"))
    svars, order, qvars = ring
    x = data.draw(series(ring))
    zero = Series.zero(svars, order)
    assert zero.qvars is None and zero == Series(svars, order, {})
    assert zero + x == x == x + zero == x - zero
    assert zero - x == -x
    assert (zero * x).is_zero() and (x * zero).is_zero()
    assert zero.scale(Laurent.gen(qvars, "lam")) == zero
    assert dscalar(zero, "lam", "q") == zero == zero.promote(svars, order, ("p",) + qvars)
    # a zero entry of another Laurent ring is still the zero of this one
    assert x + Series.const(svars, order, Laurent.zero(("p",))) == x
    if not x.is_zero():
        other = Series.const(svars, order, Laurent.const(("p",), 1))
        with pytest.raises(ValueError, match="variable mismatch"):
            x + other
        with pytest.raises(ValueError, match="variable mismatch"):
            x.scale(Laurent.const(("p",), 2))


# -- canonical form and packed keys ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_are_canonical_so_equal_values_are_equal_objects(data):
    ring = data.draw(series_rings())
    svars, order, qvars = ring
    a, b, c = (data.draw(series(ring)) for _ in range(3))
    r = data.draw(small_fractions.filter(bool))
    for x in (a, b, a + b, a - b, a * b, a.scale(r), -a):
        assert_canonical(x)
    # one value reached five ways is one object with one hash
    same = [a, (a + c) - c, a.scale(r).scale(1 / r), Series(svars, order, a.terms),
            series_dot([(a, Series.const(svars, order, Laurent.const(qvars, 1)))])]
    for x in same:
        assert x == a and hash(x) == hash(a) and (x.den, x.num) == (a.den, a.num)
    assert (a == b) == (dict(a.terms) == dict(b.terms))
    if not a.is_zero():
        assert a.scale(2) != a and a + a == a.scale(2)


# every stored exponent: series exponents of total degree up to the order,
# Laurent exponents anywhere in -KEY_LIMIT..KEY_LIMIT
laurent_exponent = st.one_of(st.integers(-KEY_LIMIT, KEY_LIMIT),
                             st.sampled_from([-KEY_LIMIT, -1, 0, 1, KEY_LIMIT]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_keys_round_trip_and_sort_by_degree(data):
    svars, _, qvars = data.draw(series_rings())
    order = data.draw(st.sampled_from([0, 3, 40, KEY_LIMIT]))
    exps = st.tuples(*[st.integers(0, order)] * len(svars)).filter(lambda e: sum(e) <= order)
    coeff = st.dictionaries(st.tuples(*[laurent_exponent] * len(qvars)),
                            small_fractions.filter(bool), min_size=1, max_size=3)
    terms = data.draw(st.dictionaries(exps, coeff, max_size=5))
    x = Series(svars, order, {e: Laurent(qvars, t) for e, t in terms.items()})
    assert_canonical(x)
    assert dict(x.terms) == {e: Laurent(qvars, t) for e, t in terms.items()}
    assert x.flat == {e + k: f for e, t in terms.items() for k, f in t.items()}
    if qvars:  # the Laurent digits read back, extreme exponents included
        name = qvars[-1]
        assert x.log_deriv(name) == Series(
            svars, order, {e: c.log_deriv(name) for e, c in x.terms.items()})
    # the packed key of q^k t^e orders the terms by total degree first
    degree = {_pack(len(svars), len(qvars), e, k): sum(e) for e, t in terms.items() for k in t}
    assert set(degree) == set(x.num)
    assert [degree[key] for key in sorted(degree)] == sorted(degree.values())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_series_exponents_at_the_key_limit_work_and_past_it_raise(data):
    svars, order, qvars = data.draw(series_rings([qv for qv in QVAR_CHOICES if qv]))
    j = data.draw(st.integers(0, len(qvars) - 1))
    sign = data.draw(st.sampled_from([1, -1]))

    def mono(k):
        return Series.const(svars, order, Laurent(
            qvars, {tuple(k if i == j else 0 for i in range(len(qvars))): Fraction(1)}))
    edge = mono(sign * KEY_LIMIT)
    assert edge.coeff((0,) * len(svars)).degree_range(qvars[j]) == (sign * KEY_LIMIT,) * 2
    assert edge * mono(0) == edge
    assert edge.log_deriv(qvars[j]) == edge.scale(sign * KEY_LIMIT)
    assert (edge + mono(-sign * KEY_LIMIT)).coeff((0,) * len(svars)).terms == {
        (0,) * j + (k,) + (0,) * (len(qvars) - j - 1): 1 for k in (KEY_LIMIT, -KEY_LIMIT)}
    with pytest.raises(ValueError, match="key limit"):
        mono(sign * (KEY_LIMIT + 1))
    # a product is checked before its keys are formed, one Laurent variable at a time
    assert edge * mono(-sign * KEY_LIMIT) == mono(0)
    if len(qvars) == 2:
        both = Series.const(svars, order, Laurent(qvars, {(sign * KEY_LIMIT,) * 2: Fraction(1)}))
        assert mono(sign * KEY_LIMIT) * Series.const(svars, order, Laurent.gen(
            qvars, qvars[1 - j], sign * KEY_LIMIT)) == both
    a = data.draw(st.integers(0, KEY_LIMIT))
    assert mono(sign * a) * mono(sign * (KEY_LIMIT - a)) == edge
    with pytest.raises(ValueError, match="key limit"):
        mono(sign * a) * mono(sign * (KEY_LIMIT + 1 - a))
    with pytest.raises(ValueError, match="key limit"):
        edge.scale(Laurent.gen(qvars, qvars[j], sign))
    # the truncation order and the series exponents have the same limit
    one = Laurent.const(qvars, 1)
    top = Series.gen(svars, KEY_LIMIT, svars[0], one)
    assert (top.times_var(svars[0], KEY_LIMIT - 1).coeff_of_var(svars[0], KEY_LIMIT)
            == Series.const(svars, KEY_LIMIT, one))
    negative = (-1,) + (0,) * (len(svars) - 1)
    for bad in (lambda: Series.zero(svars, KEY_LIMIT + 1),
                lambda: top.promote(svars, KEY_LIMIT + 1),
                lambda: Series(svars, order, {negative: one})):
        with pytest.raises(ValueError, match="at most|outside"):
            bad()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_products_past_the_key_limit_raise_exactly_when_a_digit_leaves_it(data):
    svars, order, qvars = data.draw(series_rings([qv for qv in QVAR_CHOICES if qv]))
    exps = st.tuples(*[laurent_exponent] * len(qvars))

    def coeff():
        return Laurent(qvars, data.draw(st.dictionaries(
            exps, small_fractions.filter(bool), min_size=1, max_size=2)))
    a, b = coeff(), coeff()
    x, y = Series.const(svars, order, a), Series.const(svars, order, b)
    fits = all(abs(i + j) <= KEY_LIMIT
               for e1 in a.terms for e2 in b.terms for i, j in zip(e1, e2))
    if fits:
        assert x * y == Series.const(svars, order, a * b)
    else:
        with pytest.raises(ValueError, match="key limit"):
            x * y


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
    with pytest.raises(ValueError, match="variable mismatch"):
        Mat([[x, xp]]) @ Mat([[x], [zero]])
    with pytest.raises(ValueError, match="variable mismatch"):
        Mat([[x, zero]]) @ Mat([[x], [xp]])
    with pytest.raises(ValueError, match="variable mismatch"):
        series_dot([(x, x), (xp, zero)])
    # a coefficient that is not a Laurent polynomial never makes a Series
    with pytest.raises(TypeError, match="Laurent coefficients"):
        Series.gen(("x",), 3, "x", Fraction(1))
    with pytest.raises(TypeError, match="Laurent coefficients"):
        Series(("x",), 3, {(0,): Laurent.const(QV, 1), (1,): 1})


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
    # the tower is fixed: there is no Series over rationals to multiply
    with pytest.raises(TypeError, match="Laurent coefficients"):
        Series.gen(("x",), 3, "x", Fraction(1))
    with pytest.raises(TypeError, match="Laurent coefficients"):
        Series.const(("x",), 3, 1)
    # nor one whose coefficients mix Laurent variable tuples
    with pytest.raises(ValueError, match="variable mismatch"):
        Series(("x",), 3, {(0,): Laurent.const(QV, 1), (1,): Laurent.const(("p",), 1)})


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


def test_laurent_product_visits_only_pairs_of_nonzero_entries():
    q, p = Laurent.gen(QV, "q"), Laurent.gen(("p",), "p")
    zero = Laurent.zero(QV)
    P = Mat([[q, zero], [zero, zero]]) @ Mat([[q, zero], [Laurent.zero(("p",)), q]])
    assert P == Mat([[q * q, zero], [zero, zero]])
    assert P[0, 1] is P[1, 0] is P[1, 1]  # one shared zero of the ring
    # a nonzero entry of another ring raises, even where its partner is zero
    for A, B in ((Mat([[q, zero]]), Mat([[q], [p]])), (Mat([[zero, p]]), Mat([[q], [q]]))):
        with pytest.raises(ValueError, match="variable mismatch"):
            A @ B


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
