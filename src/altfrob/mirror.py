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
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

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
    """The box search found no certified Jacobian quotient within the largest box tried."""


class _Echelon(NamedTuple):
    """A reduced echelon of the padded box [-reach, reach]^n, n = len(flags) - 1.

    ``rewrites`` maps a pivot column to {column: value}, or to (column,
    value) from the union-find, value 0 for {}; ``rewrite`` reads both, and
    ``key``/``cell`` translate these integer keys of ``_box_echelon``.
    """

    dim: int
    free: list[tuple[int, ...]]
    rewrites: dict
    reach: int
    flags: tuple

    def key(self, m: tuple[int, ...]) -> int:
        """The column key of the padded-box cell u^m."""
        if m in self.flags:
            return self.flags.index(m) - len(self.flags)
        R, n = self.reach, len(m)
        W = 2 * R + 1
        index = 0
        for a in m:
            index = index * W + a + R
        shell = max(map(abs, m)) >= R
        return (shell * (n * R + 1) + sum(map(abs, m))) * W ** n + index

    def cell(self, key: int) -> tuple[int, ...]:
        """The exponent of the column ``key``, the inverse of ``key``."""
        if key < 0:
            return self.flags[key]
        R, n = self.reach, len(self.flags) - 1
        W = 2 * R + 1
        index, out = key % W ** n, []
        for _ in range(n):
            index, d = divmod(index, W)
            out.append(d - R)
        return tuple(out[::-1])

    def rewrite(self, key: int) -> dict | None:
        """The rewrite {column: value} of the pivot ``key``; None if it is free."""
        rw = self.rewrites.get(key)
        if type(rw) is tuple:
            return {rw[0]: rw[1]} if rw[1] else {}
        return rw

    def torus_action(self) -> tuple[list | None, str | None]:
        """(action, None) when every neighbour u_i^(+-1) u^m of a free
        monomial m lies in the inner box and reduces onto the free ones,
        else (None, a witness naming the first that does not).

        ``action[2i + (step > 0)][k]`` is the class of u_i^step times free
        monomial k, as {free index: value} at q = 1.  Every rewrite is a
        consequence of the relations, so the span of the free classes is
        closed under the torus action; it holds the class of 1, the most
        preferred column, which is free unless it is zero, so it is the
        whole quotient and dim bounds its dimension.
        """
        free = {self.key(m): k for k, m in enumerate(self.free)}
        action = [[None] * len(self.free) for _ in range(2 * (len(self.flags) - 1))]
        for k, m in enumerate(self.free):
            for i in range(len(m)):
                for step in (-1, 1):
                    nb = m[:i] + (m[i] + step,) + m[i + 1:]
                    if abs(nb[i]) < self.reach:
                        key = self.key(nb)
                        rw = {key: 1} if key in free else self.rewrite(key)
                        if free.keys() >= rw.keys():
                            action[2 * i + (step > 0)][k] = {free[c]: v for c, v in rw.items()}
                            continue
                        why = "does not reduce onto the free monomials"
                    else:
                        why = "leaves the inner box"
                    return None, (f"u^{_exponent_str(nb)}, next to the free "
                                  f"u^{_exponent_str(m)}, {why}")
        return action, None


def _exponent_str(m: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, m)) + ")"


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


def _kept_shifts(supports: Sequence[dict], n: int, R: int) -> list[list[int]]:
    """For each relation support, its shifts into [-R, R]^n that are not Koszul rows.

    A shift m is given as its offset sum_j m_j (2R+1)^(n-1-j) of the
    mixed-radix cell index, and each list is in lex order of m.  Shift m
    of relation i is dropped when, for some earlier relation j with
    lex-largest exponent t_j, every row of u^(m - t_j) (r_j r_i - r_i r_j)
    fits the box (see ``_box_echelon``): per axis, m - t_j plus the
    exponents of r_i and r_j stays within [-R, R].  That box of m lies in
    the shift box of r_i, where distinct shifts have distinct offsets.
    """
    strides = [(2 * R + 1) ** (n - 1 - j) for j in range(n)]

    def grid(lows, highs):
        """The offsets of the shifts lows <= m <= highs, in lex order of m."""
        out = [0]
        for lo, hi, s in zip(lows, highs, strides):
            out = [o + k * s for o in out for k in range(lo, hi + 1)]
        return out

    lows = [[min(e[j] for e in t) for j in range(n)] for t in supports]
    highs = [[max(e[j] for e in t) for j in range(n)] for t in supports]
    kept = []
    for i in range(len(supports)):
        skip: set = set()
        for j in range(i):
            lead = max(supports[j])
            skip.update(grid([t - R - a - b for t, a, b in zip(lead, lows[i], lows[j])],
                             [t + R - a - b for t, a, b in zip(lead, highs[i], highs[j])]))
        kept.append([off for off in grid([-R - a for a in lows[i]], [R - a for a in highs[i]])
                     if off not in skip])
    return kept


def _elimination(rows: Iterable[list]) -> dict:
    """The reduced echelon of rows of (column, value) pairs, by Gauss-Jordan.

    Each row is reduced by the rewrites so far and pivots on its largest
    column; its rewrite is then substituted into every earlier rewrite that
    holds that column, found through the ``uses`` index.  Returns the
    rewrites {pivot: {column: value}}.
    """
    rewrites: dict = {}
    uses: dict = {}
    for row in rows:
        acc: dict = {}
        for col, val in row:
            rw = rewrites.get(col)
            if rw is None:
                acc[col] = acc.get(col, 0) + val
            else:
                for c, v in rw.items():
                    acc[c] = acc.get(c, 0) + val * v
        if not any(acc.values()):
            continue
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
    return rewrites


def _binomial_echelon(rows: Iterable[tuple]) -> dict:
    """The reduced echelon of two-term rows (x, a, y, b), a*u^x + b*u^y, as
    a weighted union-find.

    ``parent`` maps a column x to (p, w), p < x, with u^x = w * u^p; a root
    has no entry.  A row points the larger of the roots of x and y at the
    smaller, or, when they share one, puts it in ``dead`` if its weights
    disagree.  A root or a root's child is resolved inline, and ``find``
    walks longer chains iteratively.  Every path is then compressed and
    ``parent`` is the echelon: (root, w), w = 0 on a dead component, whose
    root is a pivot too (see ``_box_echelon`` and ``_Echelon.rewrite``).
    """
    parent: dict = {}
    dead: set = set()
    get = parent.get

    def find(x):
        """(root, w) with u^x = w * u^root, x two or more links below it."""
        path = [x]
        x = parent[x][0]
        while x in parent:
            path.append(x)
            x = parent[x][0]
        w = 1
        for y in reversed(path):
            w = parent[y][1] * w
            parent[y] = (x, w)
        return x, w

    for x, a, y, b in rows:
        link = get(x)
        x, wx = (x, 1) if link is None else find(x) if link[0] in parent else link
        link = get(y)
        y, wy = (y, 1) if link is None else find(y) if link[0] in parent else link
        if x == y:
            if a * wx + b * wy:
                dead.add(x)
            continue
        if x < y:
            x, wx, a, y, wy, b = y, wy, b, x, wx, a
        parent[x] = (y, _quotient(-b * wy, a * wx))  # a wx u^x + b wy u^y = 0
        if x in dead:
            dead.discard(x)
            dead.add(y)
    for x, (p, _) in parent.items():
        if p in parent:
            find(x)
    if dead:
        parent.update((root, (root, 0)) for root in dead)
        parent.update({x: (root, 0) for x, (root, _) in parent.items() if root in dead})
    return parent


def _box_echelon(rels: Sequence[Laurent], n: int, B: int) -> _Echelon:
    """Row-reduce all relation shifts supported in the padded box [-B-1,B+1]^n.

    Columns are ranked most-preferred first: flag monomials, then the rest
    of the inner box [-B,B]^n by graded lex, then the padding shell.  Each
    row pivots on its least preferred column, so the surviving free columns
    of the inner box form the greedy monomial basis and the quotient
    dimension is read off from the inner box alone.  The one-shell padding
    is what lets relation chains leave the inner box and come back.

    A column is an integer key whose order is that preference, so the
    least preferred column is the largest key.  With R = B + 1, the padded
    box has N = (2R+1)^n cells, and cell m has the mixed-radix index
    sum_j (m_j + R)(2R+1)^(n-1-j), which runs in lex order.  The k-th of
    the n+1 flag monomials has key k - (n+1); any other cell has key
    (max|m_j| > B)*SH + (sum|m_j|)*N + index(m) with SH = (n*R + 1)*N.  One
    flat list, built axis by axis, maps each index to its key, and each
    relation's shifts are integer offsets added to its terms' indices.
    The rows are streamed, one relation and then its shifts, so no
    exponent tuple is built per row and the rows are never held all at
    once.  The result keeps the integer keys; ``free`` alone is decoded,
    and ``_Echelon.key``/``cell`` translate the rest.

    Koszul rows are never built.  For relations r_j before r_i, let t_j
    be the lex-largest exponent of r_j.  The shift u^m r_i is skipped when
    every row of the syzygy u^s (r_j r_i - r_i r_j) = 0, s = m - t_j, fits
    the padded box, which holds for m in one box per pair (i, j).  Order
    the rows by (i, m), m in lex order.  In that syzygy, u^m r_i has the
    nonzero coefficient of u^(t_j) in r_j; every other row is u^(s+t) r_i
    with t lex-below t_j, or a shift of r_j, so each skipped row is a
    combination of strictly smaller rows.  By induction on that order the
    kept rows span the same space, and the reduced echelon of a row space
    under one column order is unique, so the result is unchanged.

    The relations must be homogeneous for a ``_grading`` of f, and the
    reduction runs at q = 1 over the rationals.  That is exact: putting
    q = t^(w_q) and scaling column u^a by t^(w.a) turns the system over
    Q(q) into this one times invertible diagonals, so every step pivots on
    the same column, and a rewrite value v of u^p on u^c stands for
    v * q^k with w.p = w.c + w_q*k (see ``JacobianAlgebra.reduce_monomial``).

    The route is chosen from the relations alone.  When each has exactly
    two terms, as the u_i df/du_i of the mirrors of projective space and of
    their Thom-Sebastiani sums do, ``_binomial_echelon`` reduces the rows;
    otherwise ``_elimination`` does.  A binomial row a u^x + b u^y touches
    two columns, so the row space splits over the connected components of
    the graph whose edges are the rows (Eisenbud and Sturmfels, "Binomial
    ideals", 1996).  Where every cycle of a component agrees, u^x = w_x u^r
    for its smallest column r, and its rows span the vectors orthogonal to
    (w_x): every column but r is a pivot rewriting onto r with weight w_x.
    A cycle that disagrees adds a row outside that span, so the rows reach
    every column of the component, and each is a pivot with the empty
    rewrite.  Either way that is the reduced echelon, which is unique, so
    the two routes agree.

    Coefficients and rewrite values are ints while they are integral; a
    Fraction enters only through a pivot that does not divide its row, or
    a weight -b/a that is not integral.  For the mirrors of projective
    space none does (checked for n <= 6, B <= 3).
    """
    R = B + 1
    W = 2 * R + 1
    N = W ** n
    strides = [W ** (n - 1 - j) for j in range(n)]

    def index(e):
        return sum((a + R) * s for a, s in zip(e, strides))

    # keys[index(m)] is the key of cell m; each shell axis adds SH, counted once
    SH = (n * R + 1) * N
    keys = [0]
    for s in strides:
        axis = [abs(a) * N + (a + R) * s + (abs(a) > B) * SH for a in range(-R, R + 1)]
        keys = [k + c for k in keys for c in axis]
    keys = [k if k < SH else SH + k % SH for k in keys]
    flags = tuple(_flag_monomials(n))
    for k, m in enumerate(flags):
        keys[index(m)] = k - len(flags)

    # graded: each u-exponent carries one q-power, which q = 1 drops
    supports = [{e[1:]: _quotient(c, 1) for e, c in rel.terms.items()} for rel in rels]

    bases = [[(index(e), c) for e, c in terms.items()] for terms in supports]
    kept = zip(bases, _kept_shifts(supports, n, R))
    if all(len(base) == 2 for base in bases):
        rewrites = _binomial_echelon((keys[i + off], a, keys[j + off], b)
                                     for ((i, a), (j, b)), offsets in kept for off in offsets)
    else:
        rewrites = _elimination([(keys[k + off], c) for k, c in base]
                                for base, offsets in kept for off in offsets)

    ech = _Echelon(0, [], rewrites, R, flags)
    free = [ech.cell(k) for k in sorted(k for k in keys if k < SH and k not in rewrites)]
    return ech._replace(dim=len(free), free=free)


class JacobianAlgebra:
    """The quotient of the torus Laurent ring by a Jacobian ideal, as a torus action.

    ``basis`` lists the surviving monomial exponents, most preferred first;
    ``dressing[k]`` is the q-power attached to basis monomial k so that the
    dressed classes match the quantum normalization (0 on the unit, 1 on
    everything else).  ``box`` is the box B at which the search stopped.
    """

    __slots__ = ("f", "n", "dim", "basis", "dressing", "box", "action", "_grading")

    def __init__(self, f: Laurent, basis, box: int, action: list,
                 grading: tuple[tuple[int, ...], int]):
        self.f = f
        self.n = len(f.vars) - 1
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.dressing = tuple(0 if not any(m) else 1 for m in self.basis)
        self.box = box
        self.action = action
        self._grading = grading

    def labels(self) -> tuple[str, ...]:
        out = []
        for m, a in zip(self.basis, self.dressing):
            if not any(m) and a == 0:
                out.append("1")
            else:
                head = "q*" if a == 1 else (f"q^{a}*" if a else "")
                out.append(head + "u^" + _exponent_str(m))
        return tuple(out)

    def reduce_monomial(self, exps: Sequence[int]) -> dict:
        """Coordinates of the class of u^exps on the free monomials.

        The class of 1, basis monomial 0 or zero, is walked to u^exps one
        u_i^(+-1) step of ``action`` at a time, at q = 1.  Each coordinate
        is then a Laurent monomial v*q^k: the grading fixes k by w.exps =
        w.c + w_q*k for free monomial c.  An exponent whose length is not n
        raises ValueError.
        """
        exps = tuple(exps)
        if len(exps) != self.n:
            raise ValueError(f"expected an exponent of length {self.n}, got {exps}")
        vec = {0: 1} if self.basis and not any(self.basis[0]) else {}
        for i, e in enumerate(exps):
            step = self.action[2 * i + (e > 0)]
            for _ in range(abs(e)):
                nxt: dict = {}
                for k, v in vec.items():
                    for c, a in step[k].items():
                        nxt[c] = nxt.get(c, 0) + v * a
                vec = {c: v for c, v in nxt.items() if v}
        w, wq = self._grading
        out = {}
        for index, v in sorted(vec.items()):
            c = self.basis[index]
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


def jacobian_algebra(f: Laurent, box_max: int = 8) -> JacobianAlgebra:
    """The Jacobian quotient of f, computed exactly by box stabilization.

    The quotient dimension is evaluated in growing exponent boxes until
    three consecutive boxes agree, so a ``box_max`` below 3 raises NotTame
    before any box is built.  At that box the free monomials must be closed
    under the torus action (``_Echelon.torus_action``), which certifies
    the dimension as an upper bound and is all the result keeps; otherwise
    this raises NotTame.  The support must be convenient (0 in the interior
    of the Newton polytope) for the quotient to be finite at all.  A
    convenient simplex support (n+1 points, as for the mirror of projective
    n-space) is nondegenerate, so its dimension is exactly the Kouchnirenko
    number ``kouchnirenko_bound(f)`` (Kouchnirenko, Invent. Math. 32, 1976);
    the stabilized dimension is compared with it and a mismatch raises
    ValueError.  f must also be quasi-homogeneous (see ``_grading``);
    otherwise this raises ValueError.
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
            action, witness = ech.torus_action()
            if witness is not None:
                raise NotTame(f"dimensions {dims} stopped in box [-{B},{B}]^{n}, "
                              f"but its free monomials are not closed: {witness}")
            if len(_by_u(f)) == n + 1 and ech.dim != (volume := kouchnirenko_bound(f)):
                raise ValueError(f"stabilized dimension {ech.dim} does not match the "
                                 f"Kouchnirenko number {volume}")
            return JacobianAlgebra(f, ech.free, B, action, grading)
        del ech  # not held while the next box is reduced
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
            k = index[b]
            col[k] = v * Laurent.gen(QVARS, "q", aj - J.dressing[k])
        cols.append(col)
    return Mat.from_columns(cols)


# ---------------------------------------------------------------------------
# The mirror lattice as a family over the q-line
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def mirror_brieskorn(n: int) -> tuple[PreSaitoFamily, JacobianAlgebra]:
    """The Brieskorn lattice of the mirror of projective n-space over the
    q-line, with the Jacobian algebra J on whose dressed basis it is written.

    On that basis B_0 is multiplication by f, C_q is minus multiplication
    by the q-term q*df/dq = q/(u_1...u_n), and B_inf = diag(0..n) is the
    cohomological grading of the flag classes.  J's dimension n+1 is
    certified by ``jacobian_algebra``'s Kouchnirenko check, and its labels
    name the basis.  Cached on n.
    """
    J = jacobian_algebra(mirror_f(n))
    Binf = Mat.diag([Fraction(k) for k in range(n + 1)])
    C = -mult_f_matrix(J, J.f.log_deriv("q"))
    return PreSaitoFamily((("q", "q"),), n + 1, Binf, mult_f_matrix(J), {"q": C}), J


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


def compare_quantum_gm(r: int, n: int) -> Report:
    """Wedge of the mirror lattice against the wedge of the quantum family.

    The mirror side is the cached ``mirror_brieskorn(n)``, so the wedges of
    one n share one Jacobian algebra.  Records whether the characteristic
    polynomials of the two induced multiplication operators agree over Q[q],
    whether the subset-sum route reproduces the same polynomial, and whether
    the integer spectra of the residues at infinity match.
    """
    if not 0 < r <= n:
        raise ValueError("need 0 < r <= n")
    rep = Report(f"quantum vs Gauss-Manin, wedge {r} of the n={n} mirror")

    mirror, _ = mirror_brieskorn(n)
    Wm = wedge(mirror, r)
    quantum = wedge(pn_small_family(n), r)

    rep.record("wedge ranks agree", Wm.d == quantum.d,
               witness=f"{Wm.d} vs {quantum.d}")

    cp_mirror = charpoly(Wm.B0)
    # equal matrices, as the mirror and the quantum family of P^n are, share it
    cp_quantum = cp_mirror if quantum.B0 == Wm.B0 else charpoly(quantum.B0)
    rep.record("multiplication charpolys agree over Q[q]",
               cp_mirror == cp_quantum,
               witness=" vs ".join(_poly_str(c)
                                   for c in (cp_mirror, cp_quantum)))

    cp_subset = subset_sum_charpoly(charpoly(mirror.B0), r)
    rep.record("subset-sum route reproduces the wedge charpoly",
               cp_subset == cp_mirror,
               witness=_poly_str(cp_subset))

    spec_m, spec_q = (sorted(-W.Binf[i, i] for i in range(W.d))
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
