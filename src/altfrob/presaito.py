"""Pre-Saito structures: families, checkers, deformations, tensor and wedge.

A pre-Saito family over a base with coordinates x_1..x_m is the matrix data

    (B_inf, B_0(x), C^(1)(x), ..., C^(m)(x))          all d x d,

subject to the flatness relations (checked by ``check_pre_saito``)

    d_j C^(i) = d_i C^(j),   [C^(i), C^(j)] = 0,   [B_0, C^(i)] = 0,
    C^(i) + d_i B_0 = [B_inf, C^(i)],               B_inf constant,

and optionally a constant metric G of some weight w (``check_metric``).
Operators act on basis row vectors from the right, so these matrices are the
ordinary column-coordinate matrices; the residue endomorphism R_inf has
matrix -B_inf and R_0 has matrix B_0.  A pre-Saito structure on a point is
the family over the empty base; ``wedge`` and ``tensor`` act on families of
any base, and ``trivial_deformation`` spreads a point over a line.

Base coordinates come in two kinds.  A "q" coordinate is an invertible
Laurent variable whose attached derivation is q*d/dq (the exponentiated flat
coordinate of a quantum parameter); a "series" coordinate is a formal
deformation variable truncated in total degree.  Entries of the matrices
live in Laurent polynomials over the q-type coordinates (plus any declared
parameters), wrapped in truncated power series when series coordinates are
present.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .linalg import (
    Mat,
    divide_exact,
    inv_field,
    inv_laurent,
    inv_series,
    kron,
    kron_sum,
    series_constant_slice,
    wedge_metric,
    wedge_of_sum,
)
from .rings import (
    Exponents,
    Laurent,
    Series,
    as_fraction,
    fraction_from_str,
    fraction_to_str,
    is_zero,
    json_field,
    json_text,
)

VAR_KINDS = ("q", "series")


class BaseVar(NamedTuple):
    name: str
    kind: str


class NotPrimitive(Exception):
    """The period map of the proposed primitive section is not invertible."""


def dscalar(x, name: str, kind: str):
    """The derivation of a base direction applied to a Laurent or Series entry.

    A "q" direction acts by q*d/dq, which a Laurent and a Series (on its
    coefficients) both provide as ``log_deriv``; a "series" direction
    differentiates the series.
    """
    if kind != "series":
        return x.log_deriv(name)
    if not isinstance(x, Series):
        raise TypeError("series derivation on a non-series entry")
    return x.deriv(name)


class PreSaitoFamily:
    """Matrix data of a pre-Saito structure over a coordinatized base.

    ``base`` is the ordered tuple of BaseVar directions; ``params`` names
    Laurent parameters that appear in entries without being directions (no
    C-matrix, no derivation).  ``order`` is the series truncation order and
    is required exactly when a series direction is present.
    """

    __slots__ = ("base", "params", "d", "Binf", "B0", "C", "G", "w", "order")

    def __init__(self, base: Sequence, d: int, Binf: Mat, B0: Mat,
                 C: dict[str, Mat], G: Mat | None = None,
                 w: Fraction | None = None, order: int | None = None,
                 params: tuple[str, ...] = ()):
        self.base = tuple(v if isinstance(v, BaseVar) else BaseVar(*v) for v in base)
        self.params = tuple(params)
        for v in self.base:
            if v.kind not in VAR_KINDS:
                raise ValueError(f"unknown base variable kind {v.kind!r}")
        names = [v.name for v in self.base]
        if len(set(names + list(self.params))) != len(names) + len(self.params):
            raise ValueError("duplicate names among the base variables and parameters")
        if set(C) != set(names):
            raise ValueError("C matrices must be keyed by the base variable names")
        self.d = d
        self.Binf = Binf
        self.B0 = B0
        self.C = dict(C)
        self.G = G
        self.w = as_fraction(w) if w is not None else None
        if (w is None) != (G is None):
            raise ValueError("metric G and weight w must be supplied together")
        self.order = order
        if self.svars and order is None:
            raise ValueError("series directions require a truncation order")
        for name, M in [("Binf", Binf), ("B0", B0)] + list(C.items()):
            if M.shape != (d, d):
                raise ValueError(f"{name} must be {d}x{d}, got {M.shape}")
        if G is not None and G.shape != (d, d):
            raise ValueError("G has the wrong shape")

    def __eq__(self, other):
        if not isinstance(other, PreSaitoFamily):
            return NotImplemented
        # the ring first: matrices of two series rings do not compare
        return all(getattr(self, a) == getattr(other, a)
                   for a in ("base", "params", "d", "order", "w", "Binf", "B0", "C", "G"))

    # -- coordinate bookkeeping ------------------------------------------------

    @property
    def qvars(self) -> tuple[str, ...]:
        """Laurent variables of the entry ring: parameters, then q-type directions."""
        return self.params + tuple(v.name for v in self.base if v.kind != "series")

    @property
    def svars(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.base if v.kind == "series")

    def kind_of(self, name: str) -> str:
        for v in self.base:
            if v.name == name:
                return v.kind
        raise KeyError(name)

    def const(self, value: int | Fraction):
        """The constant scalar of the entry ring with rational value."""
        c = Laurent.const(self.qvars, value)
        if self.svars:
            return Series.const(self.svars, self.order, c)
        return c

    def lift_fraction_matrix(self, M: Mat) -> Mat:
        return M.map(lambda a: self.const(as_fraction(a)))

    # -- derivations -------------------------------------------------------------

    def dmat(self, M: Mat, name: str) -> Mat:
        kind = self.kind_of(name)
        return M.map(lambda x: dscalar(x, name, kind))

    # -- structural helpers --------------------------------------------------------

    def _constant_slice(self, M: Mat) -> Mat:
        """M over Laurent(qvars): a Series entry keeps only its constant term."""
        return series_constant_slice(M, self.qvars) if self.svars else M

    def matrix_is_constant(self, M: Mat) -> bool:
        """Constant in every base direction (parameters allowed to remain)."""
        if self.svars and any(s.truncate(0) != s for r in M.rows for s in r):
            return False
        directions = [v.name for v in self.base if v.kind != "series"]
        return all(x.degree_range(v) == (0, 0)
                   for r in self._constant_slice(M).rows for x in r for v in directions)

    def constant_fraction_matrix(self, M: Mat) -> Mat:
        """Extract the rational matrix underlying a constant matrix."""
        return self._constant_slice(M).map(Laurent.as_fraction)

    def reorder_base(self, names: Sequence[str]) -> "PreSaitoFamily":
        """Permute the declared base order, keeping the series directions in order."""
        if sorted(names) != sorted(v.name for v in self.base):
            raise ValueError("reorder must permute the existing base variables")
        new_base = tuple(next(v for v in self.base if v.name == n) for n in names)
        if tuple(v.name for v in new_base if v.kind == "series") != self.svars:
            raise ValueError("reorder must keep the series directions in their order")
        return PreSaitoFamily(new_base, self.d, self.Binf, self.B0, self.C,
                              self.G, self.w, self.order, self.params)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class Report:
    """Accumulated pass/fail results with a witness for each failure."""

    def __init__(self, title: str):
        self.title = title
        self.checks: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, witness: str = "") -> None:
        self.checks.append((name, bool(ok), witness))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def first_witness(self) -> str:
        for name, ok, witness in self.checks:
            if not ok:
                return f"{name}: {witness}" if witness else name
        return ""

    def lines(self) -> list[str]:
        out = []
        for name, ok, witness in self.checks:
            tag = "PASS" if ok else "FAIL"
            suffix = f"  [{witness}]" if (witness and not ok) else ""
            out.append(f"{tag}  {name}{suffix}")
        return out

    def __str__(self) -> str:
        return "\n".join([self.title] + self.lines())


def _diff_witness(A: Mat, B: Mat, k: int | None = None) -> str | None:
    """First nonzero coefficient of A - B, truncated to total degree k.

    Entries are canonical, so they are compared first, truncated when they
    differ and k applies; A - B is built only at a mismatch, to name it.
    """
    for i in range(A.nrows):
        for j in range(A.ncols):
            a, b = A[i, j], B[i, j]
            if a == b:
                continue
            if k is not None and isinstance(a, Series) and isinstance(b, Series):
                a, b = a.truncate(k), b.truncate(k)
                if a == b:
                    continue
            x = a - b
            if is_zero(x):
                continue
            if isinstance(x, Series):
                e, c = x.sorted_terms()[0]
                return f"entry ({i},{j}), deformation exponent {list(e)}: {c}"
            return f"entry ({i},{j}): {x}"
    return None


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def check_pre_saito(F: PreSaitoFamily, order: int | None = None) -> Report:
    """Verify the flatness relations, to total degree ``order`` when truncated.

    A derivative in a series direction is only known one order below the
    truncation, so relations involving one are compared at order-1.
    """
    rep = Report("pre-Saito relations")
    if F.svars:
        K = F.order if order is None else order
        if K > F.order:
            raise ValueError(
                f"requested order {K} exceeds the family's truncation {F.order}")
    else:
        K = None

    def drop(*names: str) -> int | None:
        if K is None:
            return None
        if any(F.kind_of(n) == "series" for n in names):
            return K - 1
        return K

    const_w = None
    if not F.matrix_is_constant(F.Binf):
        const_w = "Binf has non-constant entries"
    rep.record("Binf constant", const_w is None, const_w or "")

    names = [v.name for v in F.base]
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            i, j = names[a], names[b]
            lhs = F.dmat(F.C[i], j)
            rhs = F.dmat(F.C[j], i)
            w = _diff_witness(lhs, rhs, drop(i, j))
            rep.record(f"d_{j} C({i}) = d_{i} C({j})", w is None, w or "")
            w = _diff_witness(F.C[i] @ F.C[j], F.C[j] @ F.C[i], drop())
            rep.record(f"[C({i}), C({j})] = 0", w is None, w or "")
    for i in names:
        w = _diff_witness(F.B0 @ F.C[i], F.C[i] @ F.B0, drop())
        rep.record(f"[B0, C({i})] = 0", w is None, w or "")
        lhs = F.C[i] + F.dmat(F.B0, i)
        rhs = F.Binf @ F.C[i] - F.C[i] @ F.Binf
        w = _diff_witness(lhs, rhs, drop(i))
        rep.record(f"C({i}) + d_{i} B0 = [Binf, C({i})]", w is None, w or "")
    return rep


def check_metric(F: PreSaitoFamily, order: int | None = None) -> Report:
    """Verify the metric axioms: constancy, symmetry, adjointness, weight."""
    rep = Report("metric relations")
    if F.G is None:
        raise ValueError("family carries no metric")
    K = (F.order if order is None else order) if F.svars else None

    ok_const = F.matrix_is_constant(F.G)
    rep.record("G constant", ok_const, "" if ok_const else "non-constant entry")
    if not ok_const:
        return rep
    G0 = F.constant_fraction_matrix(F.G)
    ok_sym = G0 == G0.transpose()
    rep.record("G symmetric", ok_sym, "" if ok_sym else "G != G^T")
    try:
        Ginv = inv_field(G0)
        rep.record("G invertible", True)
    except ZeroDivisionError:
        rep.record("G invertible", False, "singular metric")
        return rep

    # the adjoint M* = G^{-1} M^T G, with G and G^{-1} lifted into the entry ring once
    G, Ginv = F.lift_fraction_matrix(G0), F.lift_fraction_matrix(Ginv)
    wI = Mat.identity(F.d, F.const(F.w))
    w = _diff_witness(F.Binf + Ginv @ F.Binf.transpose() @ G, wI, K)
    rep.record("Binf + Binf* = w id", w is None, w or "")
    for name, M in [("B0", F.B0)] + [(f"C({v.name})", F.C[v.name]) for v in F.base]:
        w = _diff_witness(Ginv @ M.transpose() @ G, M, K)
        rep.record(f"{name}* = {name}", w is None, w or "")
    return rep


# ---------------------------------------------------------------------------
# The trivial one-parameter deformation of a point
# ---------------------------------------------------------------------------


def residue_grading(P: PreSaitoFamily) -> list[int]:
    """The diagonal of R_inf = -B_inf of a point as integers.

    A point is a family over the empty base; raises ValueError for any other
    family, for a non-diagonal R_inf and for a non-integer eigenvalue.
    """
    if P.base:
        raise ValueError("expected a point, i.e. a family over the empty base")
    R = -P.constant_fraction_matrix(P.Binf)
    if any(R[i, j] for i in range(P.d) for j in range(P.d) if i != j):
        raise ValueError("R_inf is not diagonal")
    if any(R[i, i].denominator != 1 for i in range(P.d)):
        raise ValueError("R_inf has a non-integer eigenvalue; "
                         "the exponential uniformization is unsupported")
    return [int(R[i, i]) for i in range(P.d)]


def trivial_deformation(P: PreSaitoFamily, var: str = "lambda") -> PreSaitoFamily:
    """Spread a point over the lambda-line along its R_inf grading.

    With integer R_inf eigenvalues d_i, the deformed matrix is
    B_0(lambda)_{ij} = (B_0)_{ij} * lambda^(1 + d_i - d_j).  lambda is a "q"
    direction, so its Higgs matrix is lambda times the one of d/dlambda,
    C = lambda * (-B_0(lambda)/lambda) = -B_0(lambda).  At lambda = 1 the
    family restricts to the point.
    """
    dvals = residue_grading(P)
    qvars = P.params + (var,)
    lam = Laurent.gen(qvars, var)

    def spread(i: int, j: int) -> Laurent:
        x = P.B0[i, j]
        if is_zero(x):
            return Laurent.zero(qvars)
        return x.promote(qvars) * lam ** (1 + dvals[i] - dvals[j])

    B0 = Mat([[spread(i, j) for j in range(P.d)] for i in range(P.d)])
    Binf = P.Binf.map(lambda x: x.promote(qvars))
    G = P.G.map(lambda x: x.promote(qvars)) if P.G is not None else None
    return PreSaitoFamily(
        base=((var, "q"),), d=P.d, Binf=Binf, B0=B0, C={var: -B0},
        G=G, w=P.w, params=P.params)


# ---------------------------------------------------------------------------
# Tensor product of families
# ---------------------------------------------------------------------------


def _promote_entries(qvars: tuple[str, ...], svars: tuple[str, ...],
                     order: int | None):
    def up(x):
        if isinstance(x, Series):
            return x.promote(svars, order, qvars)
        y = x.promote(qvars)
        if svars:
            return Series.const(svars, order, y)
        return y
    return up


def tensor(F1: PreSaitoFamily, F2: PreSaitoFamily) -> PreSaitoFamily:
    """External tensor product on the disjoint union of the two bases.

    B_inf and B_0 become Kronecker sums, the Higgs matrices act in their own
    factor, the metrics multiply and the weights add.
    """
    names1 = {v.name for v in F1.base} | set(F1.params)
    names2 = {v.name for v in F2.base} | set(F2.params)
    if names1 & names2:
        raise ValueError(f"bases must be disjoint; shared: {names1 & names2}")
    if F1.svars and F2.svars and F1.order != F2.order:
        raise ValueError("mismatched truncation orders")
    order = F1.order if F1.order is not None else F2.order
    qvars = F1.qvars + F2.qvars
    svars = F1.svars + F2.svars
    up = _promote_entries(qvars, svars, order)
    one = up(F1.const(1))
    id1 = Mat.identity(F1.d, one)
    id2 = Mat.identity(F2.d, one)
    C = {}
    for v in F1.base:
        C[v.name] = kron(F1.C[v.name].map(up), id2)
    for v in F2.base:
        C[v.name] = kron(id1, F2.C[v.name].map(up))
    return PreSaitoFamily(
        F1.base + F2.base, F1.d * F2.d,
        kron_sum(F1.Binf.map(up), F2.Binf.map(up)),
        kron_sum(F1.B0.map(up), F2.B0.map(up)),
        C,
        (kron(F1.G.map(up), F2.G.map(up))
         if F1.G is not None and F2.G is not None else None),
        (F1.w + F2.w if F1.w is not None and F2.w is not None else None),
        order, F1.params + F2.params)


# ---------------------------------------------------------------------------
# Wedge (anti-invariant) power
# ---------------------------------------------------------------------------


def wedge(F: PreSaitoFamily, r: int) -> PreSaitoFamily:
    """The family induced on the r-th wedge power, along the diagonal of the base.

    The wedge basis is e_I = e_{i_1} ^ ... ^ e_{i_r} over strictly increasing
    index tuples I (no 1/r! normalization), on which the tensor-power
    operators sum_p 1 (x) .. B (x) .. 1 restrict; the metric picks up the
    alternation factor (-1)^(r(r-1)/2) in front of det[G(u_i, v_j)] and the
    weight is multiplied by r.  B_inf, B_0 and every C wedge alike, so a
    point, the q-line and a truncated series family all keep their base,
    order and parameters.
    """
    if not 1 <= r <= F.d:
        raise ValueError(f"wedge degree {r} is out of range 1..{F.d}")
    G = None
    if F.G is not None:
        G = F.lift_fraction_matrix(wedge_metric(F.constant_fraction_matrix(F.G), r))
    return PreSaitoFamily(
        F.base, math.comb(F.d, r), wedge_of_sum(F.Binf, r), wedge_of_sum(F.B0, r),
        {name: wedge_of_sum(M, r) for name, M in F.C.items()},
        G, F.w * r if F.w is not None else None, F.order, F.params)


# ---------------------------------------------------------------------------
# Frobenius data from a primitive section
# ---------------------------------------------------------------------------


class FrobeniusData:
    """Flat-frame product data extracted from a family and a primitive omega."""

    __slots__ = ("names", "phi", "products", "unit", "euler", "gmat")

    def __init__(self, names, phi, products, unit, euler, gmat):
        self.names = names
        self.phi = phi
        self.products = products
        self.unit = unit
        self.euler = euler
        self.gmat = gmat


def frobenius_data(F: PreSaitoFamily, omega: Sequence) -> FrobeniusData:
    """Extract products, unit and Euler field from a primitive flat section.

    The period map phi sends the coordinate field d_i to -C^(i)(omega); it
    must be square (one base direction per rank) and invertible, otherwise
    ``NotPrimitive`` is raised.  Products satisfy
    phi(d_i * d_j) = -C^(i) phi(d_j); the unit is phi^{-1}(omega) and the
    Euler field is phi^{-1}(B_0 omega).  With phi @ W = s * I, each of them
    is computed through W and divided by s exactly; when s does not divide
    one, it leaves Q[q, 1/q] and ``NotPrimitive`` is raised.
    """
    names = [v.name for v in F.base]
    if len(names) != F.d:
        raise NotPrimitive(
            f"need {F.d} base directions for a rank-{F.d} family, have {len(names)}")
    omega_col = Mat.column([x if not isinstance(x, (int, Fraction)) else F.const(x)
                            for x in omega])
    phi = Mat.from_columns([((-F.C[n]) @ omega_col).column_vector() for n in names])
    try:
        W, s = inv_series(phi) if F.svars else inv_laurent(phi)
    except ZeroDivisionError:
        where = " at the origin" if F.svars else ""
        raise NotPrimitive(f"period map is singular{where}") from None

    def solve(M: Mat) -> Mat:
        X = divide_exact(W @ M, s)  # phi^{-1} M
        if X is None:
            raise NotPrimitive("period map is not invertible over Q[q, 1/q]")
        return X

    products = {n: solve((-F.C[n]) @ phi) for n in names}
    unit = solve(omega_col).column_vector()
    euler = solve(F.B0 @ omega_col).column_vector()
    gmat = None
    if F.G is not None:
        gmat = phi.transpose() @ F.G @ phi
    return FrobeniusData(names, phi, products, unit, euler, gmat)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _encode_laurent(x: Laurent) -> list:
    out = []
    for e, c in x.sorted_terms():
        if len(x.vars) == 0:
            key = 0
        elif len(x.vars) == 1:
            key = e[0]
        else:
            key = list(e)
        out.append([key, fraction_to_str(c)])
    return out


def _exponent_list(key, n: int) -> Exponents:
    if not isinstance(key, list) or len(key) != n or any(type(x) is not int for x in key):
        raise ValueError(f"expected a list of {n} integer exponents, got {key!r}")
    return tuple(key)


def _decode_laurent(data: list, qvars: tuple[str, ...]) -> Laurent:
    if not isinstance(data, list) or any(not isinstance(t, list) for t in data):
        raise ValueError(f"a Laurent entry must be a list of [exponent, coefficient] "
                         f"pairs, got {data!r}")
    terms: dict[Exponents, Fraction] = {}
    for key, cs in data:
        if isinstance(key, list):
            e = _exponent_list(key, len(qvars))
        elif type(key) is not int:
            raise ValueError(f"an exponent must be an integer or a list of integers, "
                             f"got {key!r}")
        elif len(qvars) == 0:
            if key != 0:
                raise ValueError("nonzero q-power in a parameter-free entry")
            e = ()
        elif len(qvars) == 1:
            e = (key,)
        else:
            raise ValueError("multivariate entries need exponent lists")
        terms[e] = fraction_from_str(cs)
    return Laurent(qvars, terms)


def _encode_entry(x) -> object:
    if isinstance(x, Series):
        return [{"exps": list(e), "coef": _encode_laurent(c)}
                for e, c in x.sorted_terms()]
    return _encode_laurent(x)


def _decode_entry(data, qvars, svars, order):
    if svars:
        if not isinstance(data, list) or any(not isinstance(t, dict) for t in data):
            raise ValueError(f"a series entry must be a list of objects, got {data!r}")
        terms = {_exponent_list(json_field(item, "exps"), len(svars)):
                 _decode_laurent(json_field(item, "coef"), qvars) for item in data}
        return Series(svars, order, terms)
    return _decode_laurent(data, qvars)


def _encode_matrix(M: Mat) -> list:
    return [[_encode_entry(x) for x in row] for row in M.rows]


def _encode_fraction_matrix(M: Mat) -> list:
    return [[fraction_to_str(x) for x in row] for row in M.rows]


def family_to_json(F: PreSaitoFamily) -> dict:
    """Serialize to the interchange dict (deterministic, exact)."""
    doc = {
        "rank": F.d,
        "vars": [v.name for v in F.base],
        "kinds": [v.kind for v in F.base],
        "Binf": _encode_fraction_matrix(F.constant_fraction_matrix(F.Binf)),
        "B0": _encode_matrix(F.B0),
        "C": {v.name: _encode_matrix(F.C[v.name]) for v in F.base},
        "G": (_encode_fraction_matrix(F.constant_fraction_matrix(F.G))
              if F.G is not None else None),
        "w": fraction_to_str(F.w) if F.w is not None else None,
    }
    if F.order is not None:
        doc["order"] = F.order
    if F.params:
        doc["params"] = list(F.params)
    return doc


def family_from_json(doc: dict) -> PreSaitoFamily:
    """Decode a family document; a mistyped or missing field raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"a family must be a JSON object, got {type(doc).__name__}")

    def strings(key: str, value) -> list:
        if not isinstance(value, list) or any(type(x) is not str for x in value):
            raise ValueError(f"{key} must be a list of strings, got {value!r}")
        return value

    names = strings("vars", json_field(doc, "vars"))
    kinds = strings("kinds", doc.get("kinds", ["q"] * len(names)))
    if len(kinds) != len(names):
        raise ValueError(f"kinds must name one kind per variable, got {kinds!r} for {names!r}")
    params = tuple(strings("params", doc.get("params", [])))
    base = tuple(BaseVar(n, k) for n, k in zip(names, kinds))
    d = json_field(doc, "rank")
    if type(d) is not int or d < 1:
        raise ValueError(f"rank must be a positive integer, got {d!r}")
    w = doc.get("w")
    if w is not None and type(w) not in (int, str):
        raise ValueError(f"w must be a rational string or an integer, got {w!r}")
    C = json_field(doc, "C")
    if not isinstance(C, dict):
        raise ValueError(f"C must be an object keyed by the base variables, got {C!r}")
    if set(C) - set(names):
        raise ValueError(f"C has matrices for undeclared variables {sorted(set(C) - set(names))}")
    qvars = params + tuple(n for n, k in zip(names, kinds) if k != "series")
    svars = tuple(n for n, k in zip(names, kinds) if k == "series")
    order = doc.get("order")
    if (svars or order is not None) and (type(order) is not int or order < 0):
        raise ValueError(f"order must be a non-negative integer, got {order!r}")

    def dec_matrix(key: str, rows, decode) -> Mat:
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise ValueError(f"{key} must be a list of lists, got {rows!r}")
        return Mat([[decode(x) for x in row] for row in rows])

    def entry(x):
        return _decode_entry(x, qvars, svars, order)

    def rational(x):
        c = Laurent.const(qvars, fraction_from_str(x))
        return Series.const(svars, order, c) if svars else c

    return PreSaitoFamily(
        base=base, d=d,
        Binf=dec_matrix("Binf", json_field(doc, "Binf"), rational),
        B0=dec_matrix("B0", json_field(doc, "B0"), entry),
        C={n: dec_matrix(f"C[{n}]", json_field(C, n, f"C[{n}]"), entry) for n in names},
        G=(dec_matrix("G", doc["G"], rational) if doc.get("G") is not None else None),
        w=(fraction_from_str(w) if w is not None else None),
        order=order, params=params)


def dumps_family(F: PreSaitoFamily) -> str:
    return json_text(family_to_json(F))


def loads_family(text: str) -> PreSaitoFamily:
    return family_from_json(json.loads(text))
