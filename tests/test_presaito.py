"""Family checkers, trivial deformation, tensor, wedge, frobenius data, io."""

import json
from fractions import Fraction

import pytest

from altfrob import presaito
from altfrob.deform import DeformationProblem, hm_extend, universal_big_quantum
from altfrob.linalg import Mat, charpoly, product_sum
from altfrob.presaito import (
    BaseVar,
    NotPrimitive,
    PreSaitoFamily,
    check_metric,
    check_pre_saito,
    dumps_family,
    family_from_json,
    family_to_json,
    frobenius_data,
    loads_family,
    tensor,
    trivial_deformation,
    wedge,
)
from altfrob.projective import build_pn, pn_small_family
from altfrob.rings import Laurent, Series, is_zero, json_text, qlaurent

F = Fraction


def test_pn_family_passes_relations():
    fam = pn_small_family(2)
    rep = check_pre_saito(fam)
    assert rep.ok, rep.first_witness()


def test_pn_family_passes_metric():
    fam = pn_small_family(3)
    rep = check_metric(fam)
    assert rep.ok, rep.first_witness()
    assert fam.w == 3


def test_point_family_checks_vacuous():
    P = build_pn(2)
    assert P.base == ()
    assert check_pre_saito(P).ok
    assert check_metric(P).ok


def test_adjoint_is_g_inverse_transpose_g():
    # G = diag(1, 2) is not its own inverse: B0 is self-adjoint exactly when G B0 is symmetric
    c = lambda x: Laurent.const((), F(x))
    G = Mat.diag([F(1), F(2)])
    half = Mat.diag([F(1, 2), F(1, 2)])
    good = PreSaitoFamily((), 2, half, Mat([[c(0), c(2)], [c(1), c(0)]]), {}, G, w=1)
    assert check_metric(good).ok, check_metric(good).first_witness()
    bad = PreSaitoFamily((), 2, half, Mat([[c(0), c(1)], [c(1), c(0)]]), {}, G, w=1)
    assert check_metric(bad).first_witness() == "B0* = B0: entry (0,1): 1"


def test_non_self_adjoint_higgs_field_keeps_its_witness():
    """Symmetric G: M* = M is tested as G M symmetric, and a failure still names M* - M."""
    fam = pn_small_family(2)
    rows = [list(r) for r in fam.C["q"].rows]
    rows[1][0] = rows[1][0] + qlaurent([(1, 3)])
    bad = PreSaitoFamily(fam.base, fam.d, fam.Binf, fam.B0, {"q": Mat(rows)}, fam.G, fam.w)
    rep = check_metric(bad)
    assert failures(rep) == ["FAIL  C(q)* = C(q)  [entry (1,0): -3*q]"]
    assert rep.first_witness() == "C(q)* = C(q): entry (1,0): -3*q"


def test_non_symmetric_metric_keeps_the_adjoint_form():
    """G B0 symmetric does not make B0 self-adjoint when G is not symmetric."""
    c = lambda x: Laurent.const((), F(x))
    G = Mat([[F(1), F(1)], [F(0), F(1)]])
    half = Mat.diag([F(1, 2), F(1, 2)])
    swap = PreSaitoFamily((), 2, half, Mat([[c(0), c(1)], [c(1), c(0)]]), {}, G, w=1)
    assert failures(check_metric(swap)) == ["FAIL  G symmetric  [G != G^T]",
                                            "FAIL  B0* = B0  [entry (0,0): -1]"]
    one = PreSaitoFamily((), 2, half, Mat([[c(1), c(0)], [c(0), c(1)]]), {}, G, w=1)
    assert failures(check_metric(one)) == ["FAIL  G symmetric  [G != G^T]"]


def test_corrupted_corner_fails_deformation_relation():
    fam = pn_small_family(2)
    qv = ("q",)
    q2 = qlaurent([(2, 3)])
    rows = [list(r) for r in fam.B0.rows]
    rows[0][2] = q2  # corner 3q -> 3q^2
    bad_B0 = Mat(rows)
    bad_C = (-bad_B0).scale(F(1, 3))
    bad = PreSaitoFamily(fam.base, fam.d, fam.Binf, bad_B0, {"q": bad_C},
                         fam.G, fam.w)
    rep = check_pre_saito(bad)
    failing = [name for name, ok, _ in rep.checks if not ok]
    assert failing == ["C(q) + d_q B0 = [Binf, C(q)]"]


def line(kind):
    """P^1's q-line (kind "q") or big-quantum P^1 at order 2 (kind "series")."""
    fam = pn_small_family(1)
    return universal_big_quantum(fam, 2) if kind == "series" else fam


def test_wrong_weight_fails_metric():
    for kind in ("q", "series"):
        fam = line(kind)
        bad = PreSaitoFamily(fam.base, fam.d, fam.Binf, fam.B0, fam.C, fam.G,
                             F(0), fam.order, fam.params)
        rep = check_metric(bad)
        failing = [name for name, ok, _ in rep.checks if not ok]
        assert failing == ["Binf + Binf* = w id"], kind
        # the weight is checked over Q, so a series family names no deformation exponent
        assert rep.first_witness() == "Binf + Binf* = w id: entry (0,0): 1", kind


@pytest.mark.parametrize("name", ["Binf", "G"])
@pytest.mark.parametrize("kind", ["q", "series"])
def test_binf_and_metric_must_be_rational(kind, name):
    """A Laurent (kind "q") or Series (kind "series") entry is refused, a constant one too."""
    fam = line(kind)
    mats = {"Binf": fam.Binf, "G": fam.G}
    mats[name] = fam.lift_fraction_matrix(mats[name])
    with pytest.raises(ValueError, match=f"^{name} must have rational entries"):
        PreSaitoFamily(fam.base, fam.d, mats["Binf"], fam.B0, fam.C, mats["G"],
                       fam.w, fam.order, fam.params)


def bumped_big_plane(exps, qpow):
    """The big-quantum plane at order 3 with q^qpow * t^exps added to C(t2)[1, 0]."""
    fam = universal_big_quantum(pn_small_family(2), 3)
    rows = [list(r) for r in fam.C["t2"].rows]
    rows[1][0] = rows[1][0] + Series(fam.svars, fam.order,
                                     {exps: Laurent(fam.qvars, {(qpow,): F(1)})})
    return PreSaitoFamily(fam.base, fam.d, fam.Binf, fam.B0, {**fam.C, "t2": Mat(rows)},
                          fam.G, fam.w, fam.order, fam.params)


def failures(rep):
    return [line for line in rep.lines() if line.startswith("FAIL")]


def test_checkers_name_the_witness_of_a_perturbed_entry():
    bad = bumped_big_plane((1, 0), 0)
    rep = check_pre_saito(bad)
    assert failures(rep) == [
        "FAIL  d_t2 C(t0) = d_t0 C(t2)  [entry (1,0), deformation exponent [0, 0]: -1]",
        "FAIL  [C(q), C(t2)] = 0  [entry (0,0), deformation exponent [1, 1]: -q]",
        "FAIL  [B0, C(t2)] = 0  [entry (0,0), deformation exponent [1, 1]: 2*q]"]
    assert rep.first_witness() == \
        "d_t2 C(t0) = d_t0 C(t2): entry (1,0), deformation exponent [0, 0]: -1"
    rep = check_metric(bad)
    assert failures(rep) == [
        "FAIL  C(t2)* = C(t2)  [entry (1,0), deformation exponent [1, 0]: -1]"]
    assert rep.first_witness() == \
        "C(t2)* = C(t2): entry (1,0), deformation exponent [1, 0]: -1"


def test_top_degree_perturbation_passes_the_series_direction_relations():
    bad = bumped_big_plane((0, 3), 1)      # total degree K = 3 only
    rep = check_pre_saito(bad)
    status = {name: ok for name, ok, _ in rep.checks}
    # a relation with a derivative in a series direction is compared at K - 1
    for name in ("d_t2 C(t0) = d_t0 C(t2)", "d_t2 C(q) = d_q C(t2)",
                 "C(t2) + d_t2 B0 = [Binf, C(t2)]"):
        assert status[name], name
    assert failures(rep) == [
        "FAIL  [C(q), C(t2)] = 0  [entry (1,2), deformation exponent [0, 3]: q^2]",
        "FAIL  [B0, C(t2)] = 0  [entry (1,2), deformation exponent [0, 3]: -3*q^2]"]
    assert check_metric(bad).first_witness() == \
        "C(t2)* = C(t2): entry (1,0), deformation exponent [0, 3]: -q"
    assert check_pre_saito(bad, order=2).ok and check_metric(bad, order=2).ok


def test_trivial_deformation_relations_and_metric():
    P = build_pn(2)
    fam = trivial_deformation(P)
    assert [v.kind for v in fam.base] == ["q"]
    assert check_pre_saito(fam).ok
    assert check_metric(fam).ok


def test_trivial_deformation_matches_small_family():
    # compress lambda^{n+1} -> q; rescale the Higgs matrix for t1 = (n+1)x
    for n in (1, 2, 3, 4):
        P = build_pn(n)
        fam = trivial_deformation(P)
        small = pn_small_family(n)

        def to_q(x):
            return x.compress_var("lambda", n + 1).rename_vars(("q",))

        assert fam.B0.map(to_q) == small.B0
        scaled_C = fam.C["lambda"].scale(F(1, n + 1))
        assert scaled_C.map(to_q) == small.C["q"]


def test_trivial_deformation_restricts_to_point_at_one():
    P = build_pn(3)
    fam = trivial_deformation(P)

    def at_one(x):
        return x.eval_var("lambda", 1)

    assert fam.B0.map(at_one) == P.B0
    assert fam.Binf == P.Binf


def test_trivial_deformation_zero_point():
    zero = Laurent.zero(())
    P = PreSaitoFamily((), 2, Mat.diag([F(0), F(1)]), Mat.diag([zero, zero]), {})
    fam = trivial_deformation(P)
    assert fam.B0.is_zero()
    assert fam.C["lambda"].is_zero()


def test_trivial_deformation_rejects_nonintegral():
    P = PreSaitoFamily((), 1, Mat([[F(-1, 2)]]), Mat([[Laurent.const((), 1)]]), {})
    with pytest.raises(ValueError, match="non-integer eigenvalue"):
        trivial_deformation(P)


def test_trivial_deformation_rejects_a_family_over_a_line():
    with pytest.raises(ValueError, match="empty base"):
        trivial_deformation(pn_small_family(1))


def _rename_q(fam, new):
    doc = family_to_json(fam)
    doc["vars"] = [new]
    doc["C"] = {new: doc["C"]["q"]}
    return family_from_json(doc)


def test_tensor_of_p1_families():
    f1 = _rename_q(pn_small_family(1), "q1")
    f2 = _rename_q(pn_small_family(1), "q2")
    T = tensor(f1, f2)
    assert T.d == 4
    assert T.w == 2
    assert check_pre_saito(T).ok
    assert check_metric(T).ok
    # B0 spectrum at q1 = q2 = 1 is the pairwise sums {4, 0, 0, -4}
    at_one = T.B0.map(lambda x: x.eval_var("q1", 1).eval_var("q2", 1))
    cp = charpoly(at_one)
    vals = [c.as_fraction() for c in cp]
    # z^4 - 16 z^2: roots 4, -4, 0, 0
    assert vals == [F(1), F(0), F(-16), F(0), F(0)]


def test_tensor_of_a_series_family_with_a_laurent_family():
    big = universal_big_quantum(pn_small_family(1), 3)
    T = tensor(big, _rename_q(pn_small_family(1), "p"))
    assert (T.d, T.w, T.order) == (4, 2, 3)
    assert T.svars == big.svars and T.qvars == ("q", "p")
    assert all(isinstance(x, Series) for r in T.B0.rows for x in r)
    assert check_pre_saito(T).ok
    assert check_metric(T).ok


def test_tensor_with_rank_one_trivial_point():
    fam = pn_small_family(1)
    triv = PreSaitoFamily((), 1, Mat([[F(0)]]), Mat([[Laurent.zero(())]]), {},
                          Mat([[F(1)]]), w=F(0))
    T = tensor(fam, triv)
    assert T.d == fam.d
    assert T.B0 == fam.B0
    assert T.C["q"] == fam.C["q"]
    assert T.w == fam.w


def test_wedge_rank_and_top_power():
    P = build_pn(3)
    W = wedge(P, 2)
    assert W.d == 6
    top = wedge(P, 4)
    assert top.d == 1
    # top exterior power: B0 acts by its trace, here 0
    assert top.B0[0, 0].is_zero()


def test_wedge_r1_is_identity():
    P = build_pn(2)
    W = wedge(P, 1)
    assert W.B0 == P.B0
    assert W.Binf == P.Binf
    assert W.G == P.G
    assert W.w == P.w


def test_wedge_metric_weight_and_adjointness():
    # R0* = R0 and Rinf + Rinf* = -(r w) id on the wedge structure
    for n, r in ((2, 2), (3, 2), (3, 3), (4, 2)):
        P = build_pn(n)
        W = wedge(P, r)
        rep = check_metric(W)
        assert rep.ok, (n, r, rep.first_witness())
        assert W.w == F(r * n)


def test_wedge_family_along_qline():
    fam = wedge(pn_small_family(2), 2)
    assert fam.d == 3
    assert fam.base == pn_small_family(2).base
    assert check_pre_saito(fam).ok
    assert check_metric(fam).ok
    cp = charpoly(fam.B0)
    # wedge of the P^2 matrix: z^3 + 27q
    assert cp == [Laurent.const(("q",), 1), Laurent.zero(("q",)),
                  Laurent.zero(("q",)), qlaurent([(1, 27)])]


def test_wedge_rejects_overflow():
    for r in (3, 0, -1):
        with pytest.raises(ValueError, match="wedge degree"):
            wedge(build_pn(1), r)


def test_frobenius_requires_square_period_map():
    with pytest.raises(NotPrimitive):
        frobenius_data(pn_small_family(2), (1, 0, 0))


def test_frobenius_rejects_vanishing_series_period_map():
    from altfrob.rings import Series
    zero = Mat([[Series.zero(("t",), 2)]])
    fam = PreSaitoFamily(base=(BaseVar("t", "series"),), d=1, Binf=Mat([[F(0)]]), B0=zero,
                         C={"t": zero}, order=2)
    with pytest.raises(NotPrimitive):
        frobenius_data(fam, (1,))


def test_frobenius_rejects_a_period_map_not_invertible_over_laurent():
    # phi = 1 + q: the products and the Euler field divide, the unit does not
    qv = ("q",)
    one_plus_q = Laurent.const(qv, 1) + Laurent.gen(qv, "q")
    fam = PreSaitoFamily(base=(BaseVar("q", "q"),), d=1,
                         Binf=Mat([[F(0)]]), B0=Mat([[one_plus_q]]),
                         C={"q": Mat([[-one_plus_q]])})
    with pytest.raises(NotPrimitive, match=r"not invertible over Q\[q, 1/q\]"):
        frobenius_data(fam, (1,))


def test_frobenius_data_on_t0_extended_p1():
    # rank-2 family over (q, t0): C(t0) = -I extends the P^1 q-line family
    fam = pn_small_family(1)
    from altfrob.rings import Series
    svars, K = ("t0",), 3
    qv = ("q",)

    def lift(M):
        return M.map(lambda x: Series.const(svars, K, x))

    one = Series.const(svars, K, Laurent.const(qv, 1))
    zero = Series.zero(svars, K)
    t0 = Series.gen(svars, K, "t0", Laurent.const(qv, 1))
    minus_id = Mat([[-one, zero], [zero, -one]])
    B0 = lift(fam.B0) + Mat([[t0, zero], [zero, t0]])
    big = PreSaitoFamily(
        base=(BaseVar("q", "q"), BaseVar("t0", "series")), d=2,
        Binf=fam.Binf, B0=B0,
        C={"q": lift(fam.C["q"]), "t0": minus_id},
        G=fam.G, w=F(1), order=K)
    assert check_pre_saito(big).ok
    assert check_metric(big).ok

    fd = frobenius_data(big, (one, zero))
    # unit is the t0 direction
    assert fd.unit[fd.names.index("t0")] == one
    assert fd.unit[fd.names.index("q")].is_zero()
    # d_q * d_q = q * d_t0 on the q-line (column q of the product matrix)
    Pq = fd.products["q"]
    col = Pq.col(fd.names.index("q"))
    q_series = Series.const(svars, K, Laurent.gen(qv, "q"))
    assert col[fd.names.index("t0")] == q_series
    assert col[fd.names.index("q")].is_zero()
    # unit axiom: sum_i unit_i P_i = identity
    acc = Pq.scale(fd.unit[fd.names.index("q")]) + \
        fd.products["t0"].scale(fd.unit[fd.names.index("t0")])
    ident = Mat([[one, zero], [zero, one]])
    assert acc == ident
    # Euler field phi^{-1}(B0 omega) at the origin: B0 omega = 2 omega_1 + t0 omega_0
    assert fd.euler[fd.names.index("q")] == Series.const(svars, K, Laurent.const(qv, 2))


def test_json_roundtrip_small_family():
    fam = pn_small_family(2)
    text = dumps_family(fam)
    back = loads_family(text)
    assert dumps_family(back) == text
    assert back.B0 == fam.B0
    assert back.C["q"] == fam.C["q"]
    assert back.w == fam.w


def test_a_parameter_may_not_repeat_a_name():
    fam = pn_small_family(1)
    for params in (("q",), ("p", "p")):
        with pytest.raises(ValueError, match="duplicate names"):
            PreSaitoFamily(fam.base, fam.d, fam.Binf, fam.B0, fam.C, params=params)
    # the document form: the names are checked before any entry is decoded
    doc = family_to_json(fam)
    doc["params"] = ["q"]
    with pytest.raises(ValueError, match="duplicate names"):
        family_from_json(doc)


def test_json_roundtrip_trivial_deformation():
    fam = trivial_deformation(build_pn(2))
    text = dumps_family(fam)
    back = loads_family(text)
    assert dumps_family(back) == text
    assert back.base == (BaseVar("lambda", "q"),)


@pytest.mark.parametrize("n,K", [(2, 3), (3, 3)])
def test_wedge_of_a_series_family(n, K):
    W = wedge(universal_big_quantum(pn_small_family(n), K), 2)
    assert W.svars == ("t0", "t2", "t3")[:n] and W.order == K
    assert W.w == 2 * n
    assert check_pre_saito(W).ok
    assert check_metric(W).ok
    text = dumps_family(W)
    assert dumps_family(loads_family(text)) == text


# -- the commutator certificate by a cyclic B0 --------------------------------


def hm_output(n, K):
    """What ``hm`` writes for the bench's problem: P^n's q-line, Psi = sum_{j != 1} t_j omega_j."""
    fam = pn_small_family(n)
    new_vars = tuple(f"t{j}" for j in range(n + 1) if j != 1)
    one = Laurent.const(fam.qvars, 1)
    psi = tuple(Series.zero(new_vars, K) if i == 1 else Series.gen(new_vars, K, f"t{i}", one)
                for i in range(fam.d))
    omega = tuple(F(int(i == 0)) for i in range(fam.d))
    return hm_extend(DeformationProblem(fam, new_vars, psi, omega, K))


@pytest.fixture(scope="module")
def hm_outputs():
    return {(n, K): hm_output(n, K) for n, K in [(1, 3), (4, 6)]}


def checked(monkeypatch, fam):
    """check_pre_saito(fam) and the number of product_sum passes it made."""
    calls = []

    def spy(products, addend=None):
        calls.append(len(products))
        return product_sum(products, addend)
    monkeypatch.setattr(presaito, "product_sum", spy)
    return check_pre_saito(fam), len(calls)


def pairwise_commutators_vanish(fam):
    names = [v.name for v in fam.base]
    return all(is_zero(x) for a, i in enumerate(names) for j in names[a + 1:]
               for row in product_sum([(1, fam.C[i], fam.C[j]), (-1, fam.C[j], fam.C[i])]).rows
               for x in row)


@pytest.mark.parametrize("case", ["P2", "P3", "P4", "hm-P4-o6", "G(2,5)"])
def test_cyclic_b0_certifies_the_pairwise_commutators(monkeypatch, hm_outputs, case):
    fam = {"P2": lambda: universal_big_quantum(pn_small_family(2), 4),
           "P3": lambda: universal_big_quantum(pn_small_family(3), 3),
           "P4": lambda: universal_big_quantum(pn_small_family(4), 3),
           "hm-P4-o6": lambda: hm_outputs[(4, 6)],
           "G(2,5)": lambda: wedge(universal_big_quantum(pn_small_family(4), 2), 2)}[case]()
    m = len(fam.base)
    rep, passes = checked(monkeypatch, fam)
    assert rep.ok, rep.first_witness()
    # one [B0, C] and one [Binf, C] pass per direction, none for the m(m-1)/2 pairs
    assert presaito._cyclic_at_closed_point(fam)
    assert passes == 2 * m
    assert sum(line.startswith("PASS  [C(") for line in rep.lines()) == m * (m - 1) // 2
    assert pairwise_commutators_vanish(fam)


def test_a_repeated_subset_sum_keeps_the_pairwise_check(monkeypatch):
    # G(2,4): the 2-subset sums of the fourth roots of q meet at 0, so the
    # Krylov matrix of B0 at the closed point is singular
    fam = wedge(universal_big_quantum(pn_small_family(3), 3), 2)
    m = len(fam.base)
    assert not presaito._cyclic_at_closed_point(fam)
    rep, passes = checked(monkeypatch, fam)
    assert rep.ok, rep.first_witness()
    assert passes == 2 * m + m * (m - 1) // 2


def test_a_non_cyclic_b0_does_not_certify_a_failing_pair():
    # B0 = x id commutes with everything and is not cyclic; C(x) and C(y) do not commute
    qv = ("x", "y")
    one, zero, x = Laurent.const(qv, 1), Laurent.zero(qv), Laurent.gen(qv, "x")
    fam = PreSaitoFamily((("x", "q"), ("y", "q")), 2, Mat([[0, 0], [0, 0]]),
                         Mat([[x, zero], [zero, x]]),
                         {"x": Mat([[zero, one], [zero, zero]]),
                          "y": Mat([[zero, zero], [one, zero]])})
    assert check_pre_saito(fam).lines() == [
        "PASS  Binf constant",
        "PASS  d_y C(x) = d_x C(y)",
        "FAIL  [C(x), C(y)] = 0  [entry (0,0): 1]",
        "PASS  [B0, C(x)] = 0",
        "FAIL  C(x) + d_x B0 = [Binf, C(x)]  [entry (0,0): x]",
        "PASS  [B0, C(y)] = 0",
        "FAIL  C(y) + d_y B0 = [Binf, C(y)]  [entry (1,0): 1]",
    ]


# -- the family codec against the document route -----------------------------


def series_family(qvars, params):
    """A rank-2 family over a series line t with rational, zero and non-integer entries."""
    def entry(terms):  # {(t-power, k): c}
        return Series.from_ratios(("t",), 3, qvars, [
            ((e,), {k: (c.numerator, c.denominator) for (e2, k), c in terms.items() if e2 == e})
            for e in {e for e, _ in terms}])
    k0, k1 = (0,) * len(qvars), (1,) + (0,) * (len(qvars) - 1) if qvars else ()
    k2 = (-2,) + (3,) * (len(qvars) - 1) if qvars else ()
    B0 = Mat([[entry({(0, k0): F(1, 3), (2, k1): F(-5, 4)}), entry({})],
              [entry({(1, k2): F(7)}), entry({(0, k1): F(2, 9), (0, k2): F(-1, 2), (3, k0): 1})]])
    base = (("t", "series"),) + tuple((v, "q") for v in qvars[len(params):])
    C = {v: B0 for v, _ in base}
    return PreSaitoFamily(base, 2, Mat([[F(1, 2), 0], [0, F(-1, 2)]]), B0, C,
                          Mat([[0, 1], [1, 0]]), F(1), 3, params)


CODEC_CASES = {
    **{f"big-P{n}": (lambda n=n: universal_big_quantum(pn_small_family(n), 3)) for n in (1, 2, 3, 4)},
    "small-P3": lambda: pn_small_family(3),
    "point": lambda: build_pn(2),
    "lambda-line": lambda: trivial_deformation(build_pn(2)),
    "params": lambda: series_family(("a", "b", "q"), ("a", "b")),
    "one-param": lambda: series_family(("a",), ("a",)),
    "no-laurent-variable": lambda: series_family((), ()),
}


@pytest.mark.parametrize("case", list(CODEC_CASES) + ["hm-P1-o3", "hm-P4-o6"])
def test_family_text_is_the_document_text(hm_outputs, case):
    fam = (hm_outputs[(1, 3) if case == "hm-P1-o3" else (4, 6)] if case.startswith("hm")
           else CODEC_CASES[case]())
    text = dumps_family(fam)
    assert text == json_text(family_to_json(fam))
    assert loads_family(text) == family_from_json(json.loads(text)) == fam
