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
from typing import NamedTuple, Sequence

from .linalg import Mat, charpoly, det, rank_field, row_reduce
from .presaito import PreSaitoFamily, Report, wedge
from .projective import pn_small_family
from .rings import QVARS, Laurent, fraction_to_str, laurent_dot


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

    Inside, a column is its integer rank: each cell of the padded box has a
    mixed-radix index, one flat list maps that index to the rank, and each
    relation's shifts are integer offsets added to its terms' indices.  The
    rows are streamed, one relation and then its shifts, so no exponent
    tuple is built per row and the rows are never held all at once.  The
    result is translated back once: ``free`` and the keys and values of
    ``rewrites`` are exponent tuples.

    The relations must be homogeneous for a ``_grading`` of f, and the
    reduction runs at q = 1 over the rationals.  That is exact: putting
    q = t^(w_q) and scaling column u^a by t^(w.a) turns the system over
    Q(q) into this one times invertible diagonals, so every step pivots on
    the same column, and a rewrite value v of u^p on u^c stands for
    v * q^k with w.p = w.c + w_q*k (see ``JacobianAlgebra.reduce_monomial``).

    Coefficients and rewrite values are ints while they are integral; a
    Fraction enters only through a pivot that does not divide its row.  For
    the mirrors of projective space none does (checked for n <= 6, B <= 3).
    """
    R = B + 1
    strides = [(2 * R + 1) ** (n - 1 - j) for j in range(n)]

    def index(e):
        return sum((a + R) * s for a, s in zip(e, strides))

    # product() lists the padded box in mixed-radix order: cell i has index i
    cells = list(product(range(-R, R + 1), repeat=n))
    flags = [index(m) for m in _flag_monomials(n)]
    order = flags + [i for *_, i in sorted((max(map(abs, m)) > B, sum(map(abs, m)), m, i)
                                           for i, m in enumerate(cells) if i not in flags)]
    rank_at = sorted(range(len(order)), key=order.__getitem__)  # order's inverse

    rewrites: dict = {}
    uses: dict = {}

    def insert(row: list) -> None:
        acc: dict = {}
        for col, val in row:
            rw = rewrites.get(col)
            if rw is None:
                acc[col] = acc.get(col, 0) + val
            else:
                for c, v in rw.items():
                    acc[c] = acc.get(c, 0) + val * v
        if not any(acc.values()):
            return
        piv = max(c for c, v in acc.items() if v)  # the least preferred column
        pval = acc.pop(piv)
        rw = {c: _quotient(-v, pval) for c, v in acc.items() if v}
        # a user whose rewrite no longer holds piv is stale and skipped
        for user in uses.pop(piv, ()):
            other = rewrites[user]
            coef = other.pop(piv, None)
            if coef is None:
                continue
            for c, v in rw.items():
                new = other.get(c, 0) + coef * v
                if new:
                    if c not in other:
                        uses.setdefault(c, []).append(user)
                    other[c] = new
                else:
                    other.pop(c, None)
        rewrites[piv] = rw
        for c in rw:
            uses.setdefault(c, []).append(piv)

    for rel in rels:
        # graded: each u-exponent carries one q-power, which q = 1 drops
        terms = {e[1:]: _quotient(c, 1) for e, c in rel.terms.items()}
        base = [(index(s), c) for s, c in terms.items()]
        offsets = [0]
        for j, s in enumerate(strides):
            shifts = range(-R - min(e[j] for e in terms), R - max(e[j] for e in terms) + 1)
            offsets = [o + k * s for o in offsets for k in shifts]
        for off in offsets:
            insert([(rank_at[i + off], c) for i, c in base])

    cells = [cells[i] for i in order]  # now by rank
    free = [m for r, m in enumerate(cells[:(2 * B + 1) ** n]) if r not in rewrites]
    for p, rw in rewrites.items():  # in place: int- and tuple-keyed copies never coexist
        rewrites[p] = {cells[c]: v for c, v in rw.items()}
    return _Echelon(len(free), free, {cells[p]: rw for p, rw in rewrites.items()}, R)


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
    three consecutive boxes agree, so a ``box_max`` below 3 raises NotTame
    before any box is built; the support must be convenient (0 in the
    interior of the Newton polytope) for the quotient to be finite at all.
    When ``expected_dim`` is given (for example the Kouchnirenko volume
    bound), a mismatch with the stabilized dimension raises.  f must also be
    quasi-homogeneous (see ``_grading``); otherwise this raises ValueError.
    """
    witness = convenience_witness(f)
    if witness is not None:
        raise ValueError(f"f is not convenient: {witness}")
    grading = _grading(f)
    n = len(f.vars) - 1
    if box_max < 3:
        raise NotTame(f"dimensions did not stabilize in box [-{box_max},{box_max}]^{n}: "
                      "stabilizing takes three equal boxes, so box_max must be at least 3")
    rels = torus_relations(f)
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


def subset_sum_charpoly(p: Sequence, r: int) -> list[Laurent]:
    """Characteristic polynomial of the r-subset-sum spectrum of p's roots.

    Given the monic charpoly coefficients [1, c_1, ..., c_N] of some matrix,
    returns the same encoding for the operator whose eigenvalues are sums
    over r-element subsets of the original eigenvalues, without ever
    constructing a matrix.  With x_i = exp(lambda_i t), e_r(x) is the sum
    over r-subsets S of exp(t * sum_S lambda), so k! [t^k] e_r(x) is the k-th
    power sum of the subset sums.  Newton's identity runs three times, each
    accumulation one ``laurent_dot``: from the c_k to the roots' power sums
    P_k, from p_m(x) = sum_k P_k m^k t^k / k! to e_1(x), ..., e_r(x) modulo
    t^(M+1), and from the subset-sum power sums back to the charpoly.
    """
    c = [_as_qlaurent(x) for x in p]
    N = len(c) - 1
    if not 0 <= r <= N:
        raise ValueError(f"subset size {r} out of range for degree {N}")
    M = math.comb(N, r)
    one, zero = Laurent.const(QVARS, 1), Laurent.zero(QVARS)
    c += [zero] * M  # c_k = 0 past N

    # k c_k + sum_{i=1..k} c_{k-i} P_i = 0, solved for the power sum P_k
    P = [Laurent.const(QVARS, N)]
    for k in range(1, M + 1):
        P.append(-laurent_dot([(c[k], Laurent.const(QVARS, k))]
                              + [(c[k - i], P[i]) for i in range(1, k)]))

    # (-1)^(m-1) p_m(x), then j e_j = sum_m (-1)^(m-1) e_{j-m} p_m in t-coefficients
    p_signed = {m: [P[k] * Fraction((-1) ** (m - 1) * m ** k, math.factorial(k))
                    for k in range(M + 1)] for m in range(1, r + 1)}
    e = [[one] + [zero] * M]
    for j in range(1, r + 1):
        e.append([laurent_dot([(e[j - m][a], p_signed[m][k - a])
                               for m in range(1, j + 1) for a in range(k + 1)])
                  * Fraction(1, j) for k in range(M + 1)])

    # the same identity with the subset-sum power sums k! [t^k] e_r(x), solved for c_k
    Q = [e[r][k] * math.factorial(k) for k in range(M + 1)]
    out = [one]
    for k in range(1, M + 1):
        out.append(laurent_dot([(out[k - i], Q[i]) for i in range(1, k + 1)])
                   * Fraction(-1, k))
    return out


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
