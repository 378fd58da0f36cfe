"""Family checkers, trivial deformation, tensor, wedge, frobenius data, io."""

from fractions import Fraction

import pytest

from altfrob.deform import universal_big_quantum
from altfrob.linalg import Mat, charpoly
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
from altfrob.rings import Laurent, Series, qlaurent

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
    G = Mat.diag([c(1), c(2)])
    half = Mat.diag([c(F(1, 2)), c(F(1, 2))])
    good = PreSaitoFamily((), 2, half, Mat([[c(0), c(2)], [c(1), c(0)]]), {}, G, w=1)
    assert check_metric(good).ok, check_metric(good).first_witness()
    bad = PreSaitoFamily((), 2, half, Mat([[c(0), c(1)], [c(1), c(0)]]), {}, G, w=1)
    assert check_metric(bad).first_witness() == "B0* = B0: entry (0,1): 1"


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


def test_wrong_weight_fails_metric():
    fam = pn_small_family(1)
    bad = PreSaitoFamily(fam.base, fam.d, fam.Binf, fam.B0, fam.C, fam.G,
                         w=F(0))
    rep = check_metric(bad)
    failing = [name for name, ok, _ in rep.checks if not ok]
    assert failing == ["Binf + Binf* = w id"]


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
    assert fam.Binf.map(at_one) == P.Binf


def test_trivial_deformation_zero_point():
    zero, one = Laurent.zero(()), Laurent.const((), 1)
    P = PreSaitoFamily((), 2, Mat.diag([zero, one]), Mat.diag([zero, zero]), {})
    fam = trivial_deformation(P)
    assert fam.B0.is_zero()
    assert fam.C["lambda"].is_zero()


def test_trivial_deformation_rejects_nonintegral():
    half = Laurent.const((), F(1, 2))
    P = PreSaitoFamily((), 1, Mat([[-half]]), Mat([[Laurent.const((), 1)]]), {})
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
    zero, one = Laurent.zero(()), Laurent.const((), 1)
    triv = PreSaitoFamily((), 1, Mat([[zero]]), Mat([[zero]]), {}, Mat([[one]]), w=F(0))
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
    fam = PreSaitoFamily(base=(BaseVar("t", "series"),), d=1, Binf=zero, B0=zero,
                         C={"t": zero}, order=2)
    with pytest.raises(NotPrimitive):
        frobenius_data(fam, (1,))


def test_frobenius_rejects_a_period_map_not_invertible_over_laurent():
    # phi = 1 + q: the products and the Euler field divide, the unit does not
    qv = ("q",)
    one_plus_q = Laurent.const(qv, 1) + Laurent.gen(qv, "q")
    fam = PreSaitoFamily(base=(BaseVar("q", "q"),), d=1,
                         Binf=Mat([[Laurent.zero(qv)]]), B0=Mat([[one_plus_q]]),
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
        Binf=lift(fam.Binf), B0=B0,
        C={"q": lift(fam.C["q"]), "t0": minus_id},
        G=lift(fam.G), w=F(1), order=K)
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
    # the document form: entries over the ring ("q", "q") as exponent lists
    doc = family_to_json(fam)
    doc["params"] = ["q"]
    for rows in (doc["B0"], doc["C"]["q"]):
        for row in rows:
            row[:] = [[[[0, k], c] for k, c in entry] for entry in row]
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
