"""Order-by-order extension of pre-Saito families by new deformation variables.

Given a family with a cyclic (pre-primitive) flat section omega and period
data Psi prescribing how omega moves in the new directions, the extension is
reconstructed one variable at a time, one order at a time, following the
Hertling-Manin correspondence: at each order the new Higgs matrix D' is the
unique operator that sends P(C, B_0) omega to P(C, B_0) D'(omega) for every
word P in the known matrices, and the next-order slices of the old matrices
are recovered by integrating

    dC'^(i)/dy = d_i D',        dB_0'/dy = [B_inf, D'] - D'.

The word basis is found once per variable by a greedy shortlex Krylov search
at the closed point (all deformation variables zero), which also certifies
the cyclicity of omega; its independence test is over Q(q) but runs
fraction-free over Q[q, 1/q].  Each word's columns are its parent word's
columns with one more generator applied.  D' solves D' T = U, with T the
word matrix on omega and U the same words on Psi, by back-substitution in
the stage variable y: order k only adds y^(k+1) terms, so T at y = 0 is
inverted once per stage, up to a scalar s (``inv_series``), and
D'_k = (U - D'_{<k} T)[y^k] (T at y = 0)^(-1), cut to the degree K - k through
which that slice is exact, is an exact quotient by s, which is 1 whenever
the closed-point determinant is a unit.  The residual R = U - D'_{<k} T is
formed in full, in one ``product_sum`` pass, and a stage ends at the first
order where R is zero: nothing moves after it (see ``hm_extend``), so the
unit direction t0 of a big-quantum family, whose D' = -I is constant, takes
two orders instead of K + 1.  The slices of C and of B_0 integrate D'_k
scaled once by 1/(k + 1); the bracket [B_inf, D'_k] - D'_k is one pass too.

The commutation invariant [D', M] = 0 for every known matrix M is asserted
once per stage, covering every order: the order-k step only adds terms at
y^(k+1), so the final D' and matrices agree with those of order k through
y^k, and the lowest order at which the final commutator is nonzero is the
first order at which the invariant fails.  Each commutator D' M - M D' is
one ``product_sum`` pass, tested for zero.  Its failure means inconsistent
input data.

The same machinery specializes to the universal big-quantum family of
projective space (tautological period data) and, with the potential and the
WDVV recursion, to rational Gromov-Witten numbers of the plane.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import NamedTuple, Sequence

from .linalg import Mat, divide_exact, inv_series, product_sum, series_constant_slice
from .presaito import (BaseVar, PreSaitoFamily, _decode_entry, _encode_entry, _names,
                       _promote_entries, dscalar, frobenius_data, residue_grading)
from .projective import pn_small_family
from .rings import (KEY_LIMIT, Laurent, Series, as_fraction, fraction_from_str, fraction_to_str,
                    json_field)


class NotPrePrimitive(Exception):
    """omega is not cyclic for the Higgs and residue matrices at the closed point."""


class InvariantViolation(Exception):
    """An internal commutation identity failed: the input data is inconsistent."""


class DeformationProblem(NamedTuple):
    """Extension data: initial family, new variables, period data, order.

    ``psi`` is the coordinate vector of the section Psi in the initial frame:
    a tuple of Series over all deformation variables (the initial family's
    series variables followed by ``new_vars``) truncated at ``order``, with
    Psi = 0 when all new variables vanish.  ``omega`` is the flat section
    being deformed, as a tuple of rationals.
    """

    initial: PreSaitoFamily
    new_vars: tuple[str, ...]
    psi: tuple[Series, ...]
    omega: tuple[Fraction, ...]
    order: int


def _check_new_vars(initial: PreSaitoFamily, new_vars: Sequence[str]) -> None:
    """At least one new variable, each new to the family and named once."""
    if not new_vars:
        raise ValueError("a deformation needs at least one new variable")
    taken = {v.name: "base variable" for v in initial.base}
    taken.update((name, "parameter") for name in initial.params)
    for name in new_vars:
        if name in taken:
            raise ValueError(f"new variable {name!r} collides with a {taken[name]}")
        taken[name] = "new variable"


def _validate_problem(p: DeformationProblem) -> tuple[str, ...]:
    _check_new_vars(p.initial, p.new_vars)
    svars_all = p.initial.svars + tuple(p.new_vars)
    if len(p.psi) != p.initial.d:
        raise ValueError("psi must have one coordinate per rank")
    for s in p.psi:
        if s.vars != svars_all or s.order != p.order:
            raise ValueError("psi coordinates must live in the full "
                             "deformation ring at the requested order")
        if not s.restrict_zero(p.new_vars).is_zero():
            raise ValueError("psi must vanish when the new variables do")
    if len(p.omega) != p.initial.d:
        raise ValueError("omega must have one coordinate per rank")
    return svars_all


# ---------------------------------------------------------------------------
# Word basis at the closed point
# ---------------------------------------------------------------------------


def _reduce_against(vec: list[Laurent], rows: list[tuple[int, list[Laurent]]]):
    """Eliminate each pivot of ``rows`` from vec by v <- p*v - v[piv]*row."""
    v = list(vec)
    for piv, row in rows:
        c = v[piv]
        if not c.is_zero():
            p = row[piv]
            v = [p * a - c * b for a, b in zip(v, row)]
    return v


def word_basis(generators: Sequence[Mat], omega: Sequence[Laurent],
               d: int) -> list[tuple[int, ...]]:
    """Greedy shortlex Krylov search for d independent words applied to omega.

    Words are tuples of generator indices, applied right-to-left; the empty
    word (omega itself) is examined first, then children of each accepted
    word in generator order.  Independence is over the fraction field,
    tested by division-free elimination over the Laurent entries.  Raises
    NotPrePrimitive when the span closes before reaching full rank.
    """
    rows: list[tuple[int, list[Laurent]]] = []
    words: list[tuple[int, ...]] = []
    queue: deque[tuple[tuple[int, ...], list[Laurent]]] = deque()
    queue.append(((), list(omega)))
    while queue and len(words) < d:
        w, vec = queue.popleft()
        res = _reduce_against(vec, rows)
        piv = next((i for i, a in enumerate(res) if not a.is_zero()), None)
        if piv is None:
            continue
        rows.append((piv, res))
        words.append(w)
        for gi, M in enumerate(generators):
            queue.append(((gi,) + w, (M @ Mat.column(vec)).column_vector()))
    if len(words) < d:
        raise NotPrePrimitive(
            f"omega generates a proper invariant subspace of dimension {len(words)}")
    return words


# ---------------------------------------------------------------------------
# The extension recursion
# ---------------------------------------------------------------------------


def _assert_commutes(D: Mat, gens: Sequence[Mat], names: Sequence[str],
                     yvar: str, k: int) -> None:
    """Raise for the lowest order m <= k of yvar at which some [D', M] is nonzero.

    The witness is the first generator, then the first entry, failing at m;
    each entry's lowest order is read off its series exponents.  Each
    commutator D' M - M D' is one ``product_sum`` pass and is inspected only
    when it is not zero.
    """
    lowest = None  # (m, generator name, i, j)
    for M, name in zip(gens, names):
        comm = product_sum([(1, D, M), (-1, M, D)])
        if comm.is_zero():
            continue
        for i, row in enumerate(comm.rows):
            for j, x in enumerate(row):
                if x.num:
                    y = x.vars.index(yvar)
                    m = min(e[y] for e in x.terms)
                    if m <= k and (lowest is None or m < lowest[0]):
                        lowest = (m, name, i, j)
    if lowest is not None:
        m, name, i, j = lowest
        raise InvariantViolation(f"[D', {name}] != 0 at order {m} of {yvar}, entry ({i},{j})")


def hm_extend(problem: DeformationProblem) -> PreSaitoFamily:
    """Extend the initial family by the new variables, one at a time.

    By the uniqueness of the correspondence the output family does not
    depend on which word basis the search finds (exercised in tests).  Raises
    InvariantViolation for inconsistent data, NotPrePrimitive when omega is
    not cyclic, and ValueError when a slice of D' has a genuine q-denominator,
    that is, when the scalar s of the inverse of the word matrix at y = 0
    does not divide it.

    A stage stops at the first order k whose residual R = U - D'_{<k} T is
    the zero matrix, and the result is the one the full loop through order K
    would give.  By induction on the later orders m > k: the generators and
    D' at the start of order m are those of order k, so the word columns,
    T, U and R are rebuilt unchanged, R = 0, and D'_m = R[y^m] T(0)^(-1) = 0;
    then D' gains nothing, and each slice of C and B_0 is an integral of
    D'_m or of [B_inf, D'_m] - D'_m, so it is zero too.  So the final D',
    the generators and the witness of the commutation check are the full
    loop's.
    """
    F0 = problem.initial
    K = problem.order
    svars_all = _validate_problem(problem)
    qvars = F0.qvars
    d = F0.d

    up = _promote_entries(qvars, svars_all, K)
    base: list[BaseVar] = list(F0.base)
    C: dict[str, Mat] = {v.name: F0.C[v.name].map(up) for v in base}
    B0 = F0.B0.map(up)
    # Binf lifted once, for the bracket of every new slice of B0
    Binf = F0.Binf.map(lambda c: Series.const(svars_all, K, Laurent.const(qvars, c)))
    omega_q = [Laurent.const(qvars, as_fraction(c)) for c in problem.omega]
    omega_s = [Series.const(svars_all, K, c) for c in omega_q]

    for stage, yname in enumerate(problem.new_vars):
        later = problem.new_vars[stage + 1:]
        data = [(-problem.psi[i].deriv(yname)).restrict_zero(later) for i in range(d)]
        gens = [C[v.name] for v in base] + [B0]
        gen_names = [f"C({v.name})" for v in base] + ["B0"]
        words = word_basis([series_constant_slice(M, qvars) for M in gens],
                           omega_q, d)

        # D' T = U, solved by back-substitution in y: the y^<=k slices of T and
        # U are final at order k, so (U - D'_{<k} T)[y^k] = D'_k T|_{y=0} through
        # degree K - k in the other variables; above it, X need not divide by s0
        for k in range(K + 1):
            # the word (g,) + w sends (omega, Psi) to gens[g] applied to w's columns
            cols = {(): Mat.from_columns([omega_s, data])}
            for w in words[1:]:
                cols[w] = gens[w[0]] @ cols[w[1:]]
            T = Mat.from_columns([cols[w].col(0) for w in words])
            U = Mat.from_columns([cols[w].col(1) for w in words])
            if k == 0:
                W0, s0 = inv_series(T.map(lambda e: e.restrict_zero((yname,))))
                D = U.scale(0)
            R = product_sum([(-1, D, T)], U)
            if R.is_zero():
                break  # D'_k = 0 and nothing moves: every later order rebuilds R = 0
            X = R.map(lambda e: e.coeff_of_var(yname, k)) @ W0
            X = X.map(lambda e: e.truncate(K - k))  # s0 * D'_k
            Dk = divide_exact(X, s0)
            if Dk is None:
                # s0 * D'_{<=k} has the zero pattern of D'_{<=k}, so the same witness
                _assert_commutes(D.scale(s0) + X.map(lambda e: e.times_var(yname, k)),
                                 gens, gen_names, yname, k)
                raise ValueError(f"D' leaves Q[q, 1/q] at order {k} of {yname}")
            D = D + Dk.map(lambda e: e.times_var(yname, k))
            if k == K:
                break
            # integrate in y: the slices are linear in D'_k, so it is scaled once
            Dk = Dk.scale(Fraction(1, k + 1))
            for v in base:
                C[v.name] = C[v.name] + Dk.map(lambda s, _v=v: dscalar(
                    s, _v.name, _v.kind).times_var(yname, k + 1))
            bpiece = product_sum([(1, Binf, Dk), (-1, Dk, Binf)], -Dk)
            B0 = B0 + bpiece.map(lambda s: s.times_var(yname, k + 1))
            gens = [C[v.name] for v in base] + [B0]
        _assert_commutes(D, gens, gen_names, yname, K)
        newvar = BaseVar(yname, "series")
        base.append(newvar)
        C[yname] = D

    return PreSaitoFamily(tuple(base), d, F0.Binf, B0, C, F0.G, F0.w, K, F0.params)


# ---------------------------------------------------------------------------
# Closed-form problems
# ---------------------------------------------------------------------------


def trivial_deformation_problem(P: PreSaitoFamily, omega: Sequence,
                                order: int) -> DeformationProblem:
    """Period data whose extension is the trivial deformation in y = log(lambda).

    P is a point (a family over the empty base) and omega a rational vector.
    The section moves by the exponential of the grading:
    dPsi/dy = B_0 exp-rescaled, i.e. the coordinate at basis index i is
    (B_0 omega)_i * (e^{m y} - 1)/m with m = 1 + d_i - d_0 (y itself when
    m = 0), truncated at the requested order.
    """
    dvals = residue_grading(P)
    svars = ("y",)
    omega = tuple(as_fraction(c) for c in omega)
    degs = {dvals[i] for i, c in enumerate(omega) if c != 0}
    if len(degs) != 1:
        raise ValueError("omega must be concentrated in one grading degree "
                         "for the closed-form period data")
    d0 = degs.pop()
    r0w = (P.B0.map(Laurent.as_fraction) @ Mat.column(omega)).column_vector()
    psi = []
    for i, coord in enumerate(r0w):
        m = 1 + dvals[i] - d0
        terms = {}
        if coord != 0:
            if m == 0:
                terms[(1,)] = Laurent.const(P.params, coord)
            else:
                for j in range(1, order + 1):
                    terms[(j,)] = Laurent.const(
                        P.params, coord * Fraction(m) ** (j - 1) / math.factorial(j))
        psi.append(Series(svars, order, terms))
    return DeformationProblem(P, svars, tuple(psi), omega, order)


def expand_trivial_in_log(P: PreSaitoFamily, order: int) -> PreSaitoFamily:
    """The trivial deformation of the point P written in the coordinate y = log(lambda).

    Closed form: B_0(y)_{ij} = (B_0)_{ij} e^{(1 + d_i - d_j) y} truncated,
    C^(y) = -B_0(y).  Used as the exact target for the extension recursion.
    """
    dvals = residue_grading(P)
    svars = ("y",)

    def exp_series(m: int) -> Series:
        terms = {(j,): Laurent.const(P.params, Fraction(m) ** j / math.factorial(j))
                 for j in range(order + 1)}
        return Series(svars, order, terms)

    def entry(i: int, j: int) -> Series:
        x = P.B0[i, j]
        if x.is_zero():
            return Series.zero(svars, order)
        return exp_series(1 + dvals[i] - dvals[j]).scale(x)

    B0 = Mat([[entry(i, j) for j in range(P.d)] for i in range(P.d)])
    return PreSaitoFamily((("y", "series"),), P.d, P.Binf, B0, {"y": -B0},
                          P.G, P.w, order, P.params)


def universal_big_quantum(F: PreSaitoFamily, order: int) -> PreSaitoFamily:
    """The full big-quantum family over (t_0, q, t_2, ..., t_n).

    The input is the small q-line family of projective n-space; the period
    data is tautological (Psi = sum_{j != 1} t_j omega_j), and the output
    base is reordered so that the flat coordinates come in cohomological
    order with q sitting in the degree-2 slot.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    n = F.d - 1
    new_vars = tuple(f"t{j}" for j in range(n + 1) if j != 1)
    svars = F.svars + new_vars
    psi = []
    for i in range(F.d):
        if i == 1:
            psi.append(Series.zero(svars, order))
        else:
            psi.append(Series.gen(svars, order, f"t{i}",
                                  Laurent.const(F.qvars, 1)))
    omega = tuple(Fraction(1 if i == 0 else 0) for i in range(F.d))
    problem = DeformationProblem(F, new_vars, tuple(psi), omega, order)
    big = hm_extend(problem)
    flat_order = ["t0", "q"] + [f"t{j}" for j in range(2, n + 1)]
    return big.reorder_base(flat_order)


# ---------------------------------------------------------------------------
# Potential and Gromov-Witten numbers
# ---------------------------------------------------------------------------


def potential(F: PreSaitoFamily, omega: Sequence, order: int | None = None) -> Series:
    """The Frobenius potential: a series whose triple derivatives are c_{ijk}.

    Base directions are the flat coordinates; the q-direction derivative is
    q*d/dq.  Each term q^d t^e of each lowered constant c_{abc} is integrated
    once, into the monomial q^d t^alpha with alpha = e raised by the t-slots
    of (a, b, c); its coefficient is the term's divided by the exponents the
    three derivatives bring down (d once per q-slot).  A term where that
    product is 0, a q-derivative of a q^0 term, is skipped: purely classical
    monomials involving the never-materialized degree-2 coordinate cannot be
    represented, so the result has no q^0 terms of total degree <= 2, and the
    verification of every triple derivative skips exactly the q^0 sectors
    with a q-direction.  That verification certifies the result, and with it
    that all the terms integrating to one monomial agree.  An ``order`` below
    the family's cuts each c_{abc} at that order first.
    """
    K = F.order if order is None else order
    if F.order is None or K > F.order:
        raise ValueError("potential extraction needs a truncated family "
                         "covering the requested order")
    fd = frobenius_data(F, list(omega))
    names = fd.names
    if fd.gmat is None:
        raise ValueError("potential extraction needs a metric")
    qdirs = [n for n in names if F.kind_of(n) != "series"]
    if len(qdirs) != 1:
        raise ValueError("exactly one quantum direction is supported")
    qdir = qdirs[0]
    tvars = F.svars
    ns = len(tvars)

    # the g-lowered constants c_{abc} = g(d_a * d_b, d_c), one product per a
    pos = {n: i for i, n in enumerate(names)}
    lowered = {a: fd.gmat @ fd.products[a] for a in names}
    # cut at the requested order: terms above K would integrate past K + 3
    low = {(a, b, c): lowered[a][pos[c], pos[b]].promote(tvars, K)
           for a in names for b in names for c in names}

    # check total symmetry of c_{abc} and of its first derivatives
    for (a, b, c), x in low.items():
        for perm in ((b, a, c), (a, c, b)):
            if x != low[perm]:
                raise InvariantViolation(f"c_{{{a}{b}{c}}} is not symmetric")
    for (a, b, c), x in low.items():
        for l_ in names:
            lhs = dscalar(x, l_, F.kind_of(l_))
            rhs = dscalar(low[(l_, b, c)], a, F.kind_of(a))
            # a derivative in a formal direction is exact only one
            # order below the family truncation
            m = K
            if "series" in (F.kind_of(l_), F.kind_of(a)):
                m -= 1
            if not (lhs - rhs).truncate(m).is_zero():
                raise InvariantViolation(
                    f"nabla c is not symmetric at ({a},{b},{c},{l_})")

    if len(F.qvars) != 1:
        raise ValueError("potential extraction expects a single quantum variable")
    # integrate each flat term e + (d,) of each c_{abc} once
    tindex = {v: i for i, v in enumerate(tvars)}
    phi_terms: dict[tuple[int, ...], dict] = {}
    for (a, b, c), x in low.items():
        for key, coeff in x.flat.items():
            alpha, factor = list(key[:ns]), 1
            for nm in (a, b, c):
                if nm == qdir:
                    factor *= key[ns]
                else:
                    i = tindex[nm]
                    alpha[i] += 1
                    factor *= alpha[i]
            if factor:
                phi_terms.setdefault(tuple(alpha), {})[key[ns:]] = coeff / factor
    phi = Series(tvars, K + 3, {e: Laurent(F.qvars, t) for e, t in phi_terms.items()})

    # verify all triple derivatives against the structure constants
    for (a, b, c), x in low.items():
        dd = phi
        for nm in (a, b, c):
            dd = dscalar(dd, nm, F.kind_of(nm))
        through_q = qdir in (a, b, c)
        for key in sorted((x - dd.promote(tvars, K)).flat):
            if through_q and key[ns] == 0:
                continue  # classical sector through the q-direction
            raise InvariantViolation(
                f"d3 potential mismatch at c_{{{a}{b}{c}}}, "
                f"q^{key[ns]} t^{list(key[:ns])}")
    return phi


# the largest degree for gw_pn2: its potential has Series order max(5, 3 * dmax - 1)
GW_DMAX = (KEY_LIMIT + 1) // 3


def gw_pn2(dmax: int) -> list[int]:
    """Degree-d counts of rational plane curves through 3d-1 points, d <= dmax.

    Read off the potential of the big-quantum plane:
    N_d = (3d-1)! * [q^d t_2^(3d-1)] Phi.  The family is built at order
    K = 3 dmax - 4 (at least 2, the least ``universal_big_quantum`` takes),
    the least whose potential, of Series order K + 3, holds t_2^(3 dmax - 1).
    """
    if not 1 <= dmax <= GW_DMAX:
        raise ValueError(f"dmax must be in 1..{GW_DMAX}")
    F = universal_big_quantum(pn_small_family(2), max(2, 3 * dmax - 4))
    phi = potential(F, (1, 0, 0))
    out, flat = [], phi.flat
    t2 = F.svars.index("t2")
    for dd in range(1, dmax + 1):
        exps = tuple((3 * dd - 1) if i == t2 else 0 for i in range(len(F.svars)))
        nd = flat.get(exps + (dd,), 0) * math.factorial(3 * dd - 1)
        if nd.denominator != 1:
            raise InvariantViolation(f"non-integer curve count at degree {dd}")
        out.append(int(nd))
    return out


def wdvv_oracle(dmax: int) -> list[int]:
    """The classical associativity recursion for plane curve counts.

    N_1 = 1 and, for d >= 2,
    N_d = sum over d1 + d2 = d of N_{d1} N_{d2} d1^2 d2
          (d2 C(3d-4, 3d1-2) - d1 C(3d-4, 3d1-1)).
    """
    if dmax < 1:
        raise ValueError("dmax must be at least 1")
    N = {1: 1}
    for dd in range(2, dmax + 1):
        acc = 0
        for d1 in range(1, dd):
            d2 = dd - d1
            acc += (N[d1] * N[d2] * d1 * d1 * d2
                    * (d2 * math.comb(3 * dd - 4, 3 * d1 - 2)
                       - d1 * math.comb(3 * dd - 4, 3 * d1 - 1)))
        N[dd] = acc
    return [N[i] for i in range(1, dmax + 1)]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def potential_to_json(phi: Series) -> dict:
    """The monomials q^d t^e of a potential, sorted by d and then by e."""
    return {"monomials": [{"qpow": key[-1], "exps": list(key[:-1]), "coef": fraction_to_str(c)}
                          for key, c in sorted(phi.flat.items(), key=lambda kc: (kc[0][-1], kc[0]))]}


def problem_to_json(p: DeformationProblem) -> dict:
    return {
        "newVars": list(p.new_vars),
        "order": p.order,
        "omega": [fraction_to_str(as_fraction(c)) for c in p.omega],
        "psi": [_encode_entry(s) for s in p.psi],
    }


def problem_from_json(initial: PreSaitoFamily, doc: dict) -> DeformationProblem:
    """Decode a problem document; a mistyped or missing field raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"a problem must be a JSON object, got {type(doc).__name__}")
    order, new_vars, psi, omega = (json_field(doc, k) for k in ("order", "newVars", "psi", "omega"))
    if type(order) is not int:
        raise ValueError(f"order must be an integer, got {order!r}")
    if order < 0:
        raise ValueError(f"order must be at least 0, got {order}")
    _check_new_vars(initial, _names("newVars", new_vars))
    if not isinstance(psi, list):
        raise ValueError(f"psi must be a list, got {psi!r}")
    if not isinstance(omega, list) or any(type(x) not in (int, str) for x in omega):
        raise ValueError(f"omega must be a list of rational strings or integers, got {omega!r}")
    new_vars = tuple(new_vars)
    svars_all = initial.svars + new_vars
    psi = tuple(_decode_entry(item, initial.qvars, svars_all, order) for item in psi)
    omega = tuple(fraction_from_str(x) for x in omega)
    return DeformationProblem(initial, new_vars, psi, omega, order)
