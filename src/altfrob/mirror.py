"""Gauss-Manin side: torus mirrors, Jacobian algebras, and wedge spectra.

The mirror of projective n-space is f = u_1 + ... + u_n + q/(u_1...u_n) on
the n-torus over Q[q].  Its Jacobian algebra is computed exactly by linear
algebra in a growing exponent box: f is quasi-homogeneous (deg u_i = 1,
deg q = n+1), so the box is row-reduced at q = 1 over the rationals and
each q-power is read back off the grading.  On a dressed monomial basis the
Brieskorn lattice of f is a pre-Saito family over the q-line (Douai and
Sabbah): B_0 is multiplication by f and C_q is minus multiplication by
q*df/dq, which reproduce the small quantum family of projective n-space.
Its wedge powers are ``presaito.wedge`` of that family, compared against the
wedge of the quantum side through characteristic polynomials.  A separate
Newton-identity route computes subset-sum characteristic polynomials
straight from eigenvalue symmetric functions, so the wedge spectra are
checked twice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import add
from typing import NamedTuple, Sequence

from .linalg import Mat, charpoly, det, rank_field, row_reduce
from .presaito import PreSaitoFamily, Report, wedge
from .projective import pn_small_family
from .rings import QVARS, Laurent, fraction_to_str


def _as_qlaurent(value) -> Laurent:
    if isinstance(value, Laurent):
        if value.vars != QVARS:
            raise ValueError(f"coefficients must live over {QVARS}")
        return value
    return Laurent.const(QVARS, value)


# ---------------------------------------------------------------------------
# Laurent polynomials on the torus
# ---------------------------------------------------------------------------


def torus_vars(n: int) -> tuple[str, ...]:
    """The variables (q, u1, ..., un) of Laurent polynomials on the n-torus over Q[q]."""
    return QVARS + tuple(f"u{i}" for i in range(1, n + 1))


def mirror_f(n: int) -> Laurent:
    """u_1 + ... + u_n + q/(u_1...u_n), the torus mirror of projective n-space."""
    if n < 1:
        raise ValueError("n must be at least 1")
    terms = {(0,) + tuple(int(i == j) for j in range(n)): Fraction(1)
             for i in range(n)}
    terms[(1,) + (-1,) * n] = Fraction(1)
    return Laurent(torus_vars(n), terms)


def torus_relations(f: Laurent) -> list[Laurent]:
    """The generators u_i df/du_i (times u_i) of the Jacobian ideal."""
    return [f.log_deriv(v) for v in f.vars[1:]]


def _by_u(g: Laurent) -> dict[tuple[int, ...], Laurent]:
    """g as {u-exponents: coefficient in Q[q, 1/q]}, for g over torus_vars(n)."""
    if g.vars[:1] != QVARS:
        raise ValueError(f"expected a Laurent polynomial over {QVARS} + torus variables")
    split: dict = {}
    for e, c in g.terms.items():
        split.setdefault(e[1:], {})[e[:1]] = c
    return {u: Laurent(QVARS, terms) for u, terms in split.items()}


# ---------------------------------------------------------------------------
# Convenience of the Newton polytope
# ---------------------------------------------------------------------------


def _kernel_vector(rows: list[tuple[Fraction, ...]], n: int):
    """One kernel generator of an (n-1)-row system, or None if rank < n-1."""
    mat = [list(r) for r in rows]
    pivots = row_reduce(mat, n)
    if len(pivots) != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    vec = [Fraction(0)] * n
    vec[free] = Fraction(1)
    for row, col in enumerate(pivots):
        vec[col] = -mat[row][free]
    return tuple(vec)


def convenience_witness(f: Laurent) -> str | None:
    """None when 0 is interior to the Newton polytope, else a witness message.

    The test is exact and complete: the positive hull of the support is all
    of R^n iff the support has full rank and no hyperplane spanned by n-1
    support points has the whole support on one closed side.  Any violated
    hyperplane is an extreme ray certificate.
    """
    n = len(f.vars) - 1
    S = [s for s in _by_u(f) if any(s)]
    if not S:
        return "empty support"
    rank = rank_field(Mat([[Fraction(x) for x in s] for s in S]))
    if rank < n:
        return f"support spans rank {rank} < {n}"
    for sub in combinations(S, n - 1):
        c = _kernel_vector([tuple(Fraction(x) for x in s) for s in sub], n)
        if c is None:
            continue
        dots = [sum(ci * si for ci, si in zip(c, s)) for s in S]
        for normal in (c, tuple(-x for x in c)):
            if all(d <= 0 for d in dots):
                pretty = "(" + ",".join(fraction_to_str(x) for x in normal) + ")"
                return f"support on one side of the hyperplane with normal {pretty}"
            dots = [-d for d in dots]
    return None


def is_convenient(f: Laurent) -> bool:
    return convenience_witness(f) is None


def kouchnirenko_bound(f: Laurent) -> int:
    """n! times the Newton volume, for supports that are full simplices."""
    S = list(_by_u(f))
    n = len(f.vars) - 1
    if len(S) != n + 1:
        raise ValueError("the volume shortcut needs a simplex support "
                         f"(n+1 points), got {len(S)}")
    base = S[0]
    M = Mat([[Fraction(s[j] - base[j]) for j in range(n)] for s in S[1:]])
    vol = det(M)
    if vol == 0:
        raise ValueError("degenerate simplex support")
    return abs(int(vol))


# ---------------------------------------------------------------------------
# Jacobian algebra in an exponent box
# ---------------------------------------------------------------------------


def _flag_monomials(n: int) -> list[tuple[int, ...]]:
    flags = [(0,) * n]
    for k in range(1, n + 1):
        flags.append((0,) * (k - 1) + (-1,) * (n - k + 1))
    return flags


class NotTame(ValueError):
    """The Jacobian quotient did not stabilize within the largest box tried."""


class _Echelon(NamedTuple):
    dim: int
    free: list[tuple[int, ...]]
    rewrites: dict
    reach: int


def _grading(f: Laurent) -> tuple[tuple[int, ...], int]:
    """Weights (w, w_q), w_q > 0, for which every term q^k u^a of f has the
    same degree w.a + w_q*k.

    Such a grading exists iff the q-exponent of f's terms is an affine
    function k = alpha.a + beta of their u-exponents, found by one small
    rational solve; w_q is the least positive integer making w = -w_q*alpha
    integral.  The relations u_i df/du_i are then homogeneous too.
    """
    n = len(f.vars) - 1
    rows = [[Fraction(x) for x in e[1:]] + [Fraction(1), Fraction(e[0])]
            for e in f.terms]
    pivots = row_reduce(rows, n + 1)
    if any(r[-1] for r in rows[len(pivots):]):
        raise ValueError("f has no quasi-homogeneous grading: its q-exponents "
                         "are not an affine function of its u-exponents")
    alpha = [Fraction(0)] * (n + 1)
    for r, col in zip(rows, pivots):
        alpha[col] = r[-1]
    wq = math.lcm(*(a.denominator for a in alpha[:n]))
    return tuple(int(-a * wq) for a in alpha[:n]), wq


def _quotient(a, b):
    """a / b for rationals, as an int whenever it is integral."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _box_echelon(rels: Sequence[Laurent], n: int, B: int) -> _Echelon:
    """Row-reduce all relation shifts supported in the padded box [-B-1,B+1]^n.

    Columns are ranked most-preferred first: flag monomials, then the rest
    of the inner box [-B,B]^n by graded lex, then the padding shell.  Each
    row pivots on its least preferred column, so the surviving free columns
    of the inner box form the greedy monomial basis and the quotient
    dimension is read off from the inner box alone.  The one-shell padding
    is what lets relation chains leave the inner box and come back.

    The relations must be homogeneous for a ``_grading`` of f, and the
    reduction runs at q = 1 over the rationals.  That is exact: putting
    q = t^(w_q) and scaling column u^a by t^(w.a) turns the system over
    Q(q) into this one times invertible diagonals, so every step pivots on
    the same column, and a rewrite value v of u^p on u^c stands for
    v * q^k with w.p = w.c + w_q*k (see ``JacobianAlgebra.reduce_monomial``).

    Coefficients and rewrite values are ints while they are integral; a
    Fraction enters only through a pivot that does not divide its row.  For
    the mirrors of projective space none does (checked for n <= 5, B <= 3).
    """
    R = B + 1

    def graded_lex(e):
        return (sum(map(abs, e)), e)

    flags = _flag_monomials(n)
    flagset = set(flags)
    inner = list(product(range(-B, B + 1), repeat=n))
    shell = [m for m in product(range(-R, R + 1), repeat=n)
             if max(map(abs, m)) > B]
    order = flags + sorted((m for m in inner if m not in flagset),
                           key=graded_lex) + sorted(shell, key=graded_lex)
    rank = {m: i for i, m in enumerate(order)}
    n_inner = len(inner)

    rewrites: dict = {}
    uses: dict = {}

    def insert(row: dict) -> None:
        acc: dict = {}
        for col, val in row.items():
            if col in rewrites:
                for c2, v2 in rewrites[col].items():
                    acc[c2] = acc.get(c2, 0) + val * v2
            else:
                acc[col] = acc.get(col, 0) + val
        acc = {c: v for c, v in acc.items() if v}
        if not acc:
            return
        piv = max(acc, key=rank.__getitem__)
        pval = acc.pop(piv)
        rw = {c: _quotient(-v, pval) for c, v in acc.items()}
        for user in list(uses.get(piv, ())):
            other = rewrites[user]
            coef = other.pop(piv)
            uses[piv].discard(user)
            for c, v in rw.items():
                new = other.get(c, 0) + coef * v
                if not new:
                    if c in other:
                        del other[c]
                        uses[c].discard(user)
                else:
                    if c not in other:
                        uses.setdefault(c, set()).add(user)
                    other[c] = new
        rewrites[piv] = rw
        for c in rw:
            uses.setdefault(c, set()).add(piv)

    for rel in rels:
        # graded: each u-exponent carries one q-power, which q = 1 drops
        terms = {e[1:]: _quotient(c, 1) for e, c in rel.terms.items()}
        mins = [min(s[j] for s in terms) for j in range(n)]
        maxs = [max(s[j] for s in terms) for j in range(n)]
        ranges = [range(-R - mins[j], R - maxs[j] + 1) for j in range(n)]
        for m in product(*ranges):
            insert({tuple(map(add, s, m)): c for s, c in terms.items()})

    free = [m for m in order[:n_inner] if m not in rewrites]
    return _Echelon(len(free), free, rewrites, R)


class JacobianAlgebra:
    """The quotient of the torus Laurent ring by a Jacobian ideal, in a box.

    ``basis`` lists the surviving monomial exponents, most preferred first;
    ``dressing[k]`` is the q-power attached to basis monomial k so that the
    dressed classes match the quantum normalization (0 on the unit, 1 on
    everything else).
    """

    __slots__ = ("f", "n", "dim", "basis", "dressing", "box", "_ech", "_grading")

    def __init__(self, f: Laurent, dim: int, basis, box: int,
                 ech: _Echelon, grading: tuple[tuple[int, ...], int]):
        self.f = f
        self.n = len(f.vars) - 1
        self.dim = dim
        self.basis = tuple(basis)
        self.dressing = tuple(0 if not any(m) else 1 for m in self.basis)
        self.box = box
        self._ech = ech
        self._grading = grading

    def labels(self) -> tuple[str, ...]:
        out = []
        for m, a in zip(self.basis, self.dressing):
            if not any(m) and a == 0:
                out.append("1")
            else:
                head = "q*" if a == 1 else (f"q^{a}*" if a else "")
                out.append(head + "u^(" + ",".join(map(str, m)) + ")")
        return tuple(out)

    def _ensure_reach(self, norm: int) -> None:
        """Grow the box so that its inner part, which alone reduces onto
        the basis, holds every monomial of this norm."""
        if norm < self._ech.reach:
            return
        ech = _box_echelon(torus_relations(self.f), self.n, norm)
        if ech.dim != self.dim or ech.free != list(self.basis):
            raise ValueError("the quotient changed when the box grew; "
                             "the stabilized dimension was spurious")
        self._ech = ech

    def reduce_monomial(self, exps: Sequence[int]) -> dict:
        """Coordinates of the class of u^exps on the free monomials.

        Each coordinate is a Laurent monomial v*q^k: the echelon holds v,
        and the grading fixes k by w.exps = w.c + w_q*k for free monomial c.
        """
        exps = tuple(exps)
        self._ensure_reach(max(map(abs, exps)) if exps else 0)
        rw = self._ech.rewrites.get(exps)
        if rw is None:
            return {exps: Laurent.const(QVARS, 1)}
        w, wq = self._grading
        out = {}
        for c, v in rw.items():
            k, rest = divmod(sum(wi * (a - b) for wi, a, b in zip(w, exps, c)), wq)
            if rest:
                raise ValueError(f"u^{exps} rewrites onto u^{c} at the "
                                 f"non-integral q-power {k + Fraction(rest, wq)}")
            out[c] = Laurent(QVARS, {(k,): Fraction(v)})
        return out

    def reduce_poly(self, g: Laurent) -> dict:
        """Coordinates of the class of g on the free monomials, in Q[q, 1/q]."""
        vec: dict = {}
        for exps, coef in _by_u(g).items():
            for b, v in self.reduce_monomial(exps).items():
                vec[b] = vec.get(b, 0) + coef * v
        return {b: v for b, v in vec.items() if not v.is_zero()}


def jacobian_algebra(f: Laurent, box_max: int = 8,
                     expected_dim: int | None = None) -> JacobianAlgebra:
    """The Jacobian quotient of f, computed exactly by box stabilization.

    The quotient dimension is evaluated in growing exponent boxes until
    three consecutive boxes agree; the support must be convenient (0 in the
    interior of the Newton polytope) for the quotient to be finite at all.
    When ``expected_dim`` is given (for example the Kouchnirenko volume
    bound), a mismatch with the stabilized dimension raises.  f must also be
    quasi-homogeneous (see ``_grading``); otherwise this raises ValueError.
    """
    witness = convenience_witness(f)
    if witness is not None:
        raise ValueError(f"f is not convenient: {witness}")
    grading = _grading(f)
    rels = torus_relations(f)
    n = len(f.vars) - 1
    dims: list[int] = []
    for B in range(1, box_max + 1):
        ech = _box_echelon(rels, n, B)
        dims.append(ech.dim)
        if len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]:
            if expected_dim is not None and ech.dim != expected_dim:
                raise ValueError(
                    f"stabilized dimension {ech.dim} does not match the "
                    f"expected value {expected_dim}")
            return JacobianAlgebra(f, ech.dim, ech.free, B, ech, grading)
    raise NotTame(f"not tame in box [-{box_max},{box_max}]^{n}: "
                  f"dimensions {dims} did not stabilize")


def mult_f_matrix(J: JacobianAlgebra, g: Laurent | None = None) -> Mat:
    """The matrix of multiplication by g (default: by f) on the dressed basis.

    Column j holds the coordinates of g * q^(a_j) u^(m_j); the dressing
    powers cancel the q-denominators of the raw monomial classes, so for
    the mirror of projective n-space the entries land in Q[q].
    """
    if g is None:
        g = J.f
    if g.vars != J.f.vars:
        raise ValueError(f"variables differ: {g.vars} vs {J.f.vars}")
    cols = []
    index = {m: k for k, m in enumerate(J.basis)}
    for mj, aj in zip(J.basis, J.dressing):
        vec = J.reduce_poly(g * Laurent(g.vars, {(0,) + mj: Fraction(1)}))
        col = [Laurent.zero(QVARS)] * J.dim
        for b, v in vec.items():
            if b not in index:
                raise ValueError(f"the product leaves the basis at {b}; "
                                 "the box is too small for this multiplier")
            k = index[b]
            col[k] = v * Laurent.gen(QVARS, "q", aj - J.dressing[k])
        cols.append(col)
    return Mat.from_columns(cols)


# ---------------------------------------------------------------------------
# The mirror lattice as a family over the q-line
# ---------------------------------------------------------------------------


def mirror_brieskorn(n: int, box_max: int = 8) -> tuple[PreSaitoFamily, tuple[str, ...]]:
    """The Brieskorn lattice of the mirror of projective n-space over the
    q-line, with the labels of its dressed Jacobian basis.

    On that basis B_0 is multiplication by f, C_q is minus multiplication
    by the q-term q*df/dq = q/(u_1...u_n), and B_inf = diag(0..n) is the
    cohomological grading of the flag classes.  Cached on (n, box_max),
    however the call spells them.
    """
    return _mirror_brieskorn(n, box_max)


@lru_cache(maxsize=None)
def _mirror_brieskorn(n: int, box_max: int) -> tuple[PreSaitoFamily, tuple[str, ...]]:
    f = mirror_f(n)
    J = jacobian_algebra(f, box_max=box_max, expected_dim=kouchnirenko_bound(f))
    Binf = Mat.diag([Laurent.const(QVARS, k) for k in range(n + 1)])
    C = -mult_f_matrix(J, f.log_deriv("q"))
    return PreSaitoFamily((("q", "q"),), n + 1, Binf, mult_f_matrix(J), {"q": C}), J.labels()


# the hit and miss counts stay readable under the public name
mirror_brieskorn.cache_info = _mirror_brieskorn.cache_info


# ---------------------------------------------------------------------------
# Subset-sum characteristic polynomials by Newton identities
# ---------------------------------------------------------------------------


def _bimul(a: dict, b: dict, zmax: int, tmax: int) -> dict:
    out: dict = {}
    for (za, ta), ca in a.items():
        for (zb, tb), cb in b.items():
            z, t = za + zb, ta + tb
            if z > zmax or t > tmax:
                continue
            prod = ca * cb
            key = (z, t)
            out[key] = out.get(key, Laurent.zero(QVARS)) + prod
    return {k: v for k, v in out.items() if not v.is_zero()}


def subset_sum_charpoly(p: Sequence, r: int) -> list[Laurent]:
    """Characteristic polynomial of the r-subset-sum spectrum of p's roots.

    Given the monic charpoly coefficients [1, c_1, ..., c_N] of some matrix,
    returns the same encoding for the operator whose eigenvalues are sums
    over r-element subsets of the original eigenvalues, without ever
    constructing a matrix: Newton's identities produce power sums, a
    bivariate exponential generating function extracts the subset-sum power
    sums, and Newton's identities run backwards.
    """
    coeffs = [_as_qlaurent(c) for c in p]
    N = len(coeffs) - 1
    if not 0 <= r <= N:
        raise ValueError(f"subset size {r} out of range for degree {N}")
    M = math.comb(N, r)
    one = Laurent.const(QVARS, 1)
    zero = Laurent.zero(QVARS)

    # elementary symmetric functions of the roots: c_k = (-1)^k e_k
    e = [coeffs[k] * ((-1) ** k) for k in range(N + 1)]
    # power sums P as far as we need them
    P = [Laurent.const(QVARS, N)]
    for k in range(1, M + 1):
        acc = zero
        for i in range(1, k):
            if i <= N:
                acc = acc + e[i] * P[k - i] * ((-1) ** (i - 1))
        if k <= N:
            acc = acc + e[k] * (((-1) ** (k - 1)) * k)
        P.append(acc)

    # F(z, t) = sum_m (-1)^(m+1) z^m/m * sum_k P(k) m^k t^k / k!
    F: dict = {}
    for m in range(1, r + 1):
        sign = Fraction((-1) ** (m + 1), m)
        for k in range(M + 1):
            val = P[k] * (sign * m ** k / math.factorial(k))
            if not val.is_zero():
                F[(m, k)] = F.get((m, k), zero) + val

    # exp(F) truncated to z-degree r, t-degree M
    total = {(0, 0): one}
    power = {(0, 0): one}
    for j in range(1, r + 1):
        power = _bimul(power, F, r, M)
        inv = Fraction(1, math.factorial(j))
        for key, val in power.items():
            total[key] = total.get(key, zero) + val * inv

    Q = [total.get((r, k), zero) * math.factorial(k) for k in range(M + 1)]

    # Newton back-substitution for the subset-sum spectrum
    enew = [one]
    for k in range(1, M + 1):
        acc = zero
        for i in range(1, k + 1):
            acc = acc + enew[k - i] * Q[i] * ((-1) ** (i - 1))
        enew.append(acc * Fraction(1, k))

    return [enew[k] * ((-1) ** k) for k in range(M + 1)]


# ---------------------------------------------------------------------------
# Quantum vs Gauss-Manin comparison
# ---------------------------------------------------------------------------


def compare_quantum_gm(r: int, n: int, box_max: int = 8) -> Report:
    """Wedge of the mirror lattice against the wedge of the quantum family.

    Records whether the characteristic polynomials of the two induced
    multiplication operators agree over Q[q], whether the subset-sum route
    reproduces the same polynomial, and whether the integer spectra of the
    residues at infinity match.
    """
    if not 0 < r <= n:
        raise ValueError("need 0 < r <= n")
    rep = Report(f"quantum vs Gauss-Manin, wedge {r} of the n={n} mirror")

    mirror, _ = mirror_brieskorn(n, box_max=box_max)
    Wm = wedge(mirror, r)
    quantum = wedge(pn_small_family(n), r)

    rep.record("wedge ranks agree", Wm.d == quantum.d,
               witness=f"{Wm.d} vs {quantum.d}")

    cp_mirror = charpoly(Wm.B0)
    cp_quantum = charpoly(quantum.B0)
    rep.record("multiplication charpolys agree over Q[q]",
               cp_mirror == cp_quantum,
               witness=" vs ".join(_poly_str(c)
                                   for c in (cp_mirror, cp_quantum)))

    cp_subset = subset_sum_charpoly(charpoly(mirror.B0), r)
    rep.record("subset-sum route reproduces the wedge charpoly",
               cp_subset == cp_mirror,
               witness=_poly_str(cp_subset))

    spec_m, spec_q = (sorted(-W.Binf[i, i].as_fraction() for i in range(W.d))
                      for W in (Wm, quantum))
    rep.record("integer spectra at infinity agree", spec_m == spec_q,
               witness=f"{spec_m} vs {spec_q}")
    return rep


def _poly_str(coeffs: Sequence[Laurent]) -> str:
    """The charpoly z^d + c_1 z^(d-1) + ... of a report witness, as text."""
    d = len(coeffs) - 1
    parts = []
    for k, c in enumerate(coeffs):
        if c.is_zero():
            continue
        body = str(c)
        power = d - k
        if power == 0:
            parts.append(body)
        else:
            head = {"1": "", "-1": "-"}.get(body, f"({body})*")
            parts.append(f"{head}z^{power}" if power > 1 else f"{head}z")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"
