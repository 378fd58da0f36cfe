"""Exact dense linear algebra over the coefficient tower.

Matrices are immutable tuples of tuples; the entries are scalars of one
ring of the tower in rings.py (Fraction, Laurent, or Series over Laurent)
and operations are duck-typed.  Entries know their ring: a zero is taken
from an entry as ``x * 0``, and an identity is built from the one it is
handed, so no function here takes a ring argument.
The column convention is fixed once and for all: the matrix M of an operator
T in a basis (e_0, ..., e_{d-1}) satisfies

    T(e_j) = sum_i e_i * M[i][j],

so composition of operators is the usual matrix product and coordinate
vectors are columns.  Every matrix product, ``A @ B`` included, is a
``product_sum``, a signed sum of products plus an addend, which over Series
entries is one kernel pass per output entry.

Characteristic polynomials use the Faddeev-LeVerrier recursion, which only
ever divides by integers and therefore stays inside any Q-algebra; this is
what lets us take charpolys of matrices with Laurent entries without passing
through a fraction field.  The same recursion yields the adjugate, so Laurent
and Series matrices are inverted fraction-free: up to a scalar ``s`` that is 1
whenever the determinant is a unit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import add, mul
from typing import Callable, Sequence

from .rings import Laurent, Series, is_zero, laurent_dot, series_matmul


class Mat:
    """An immutable dense matrix with exact entries."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, d: int, one) -> "Mat":
        """``one`` on the diagonal (any scalar: the identity scaled by it)."""
        return cls.diag([one] * d)

    @classmethod
    def diag(cls, entries: Sequence) -> "Mat":
        d = len(entries)
        zero = entries[0] * 0 if d else None
        return cls([[entries[i] if i == j else zero for j in range(d)]
                    for i in range(d)])

    @classmethod
    def column(cls, entries: Sequence) -> "Mat":
        return cls([[e] for e in entries])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "Mat":
        ncols = len(cols)
        nrows = len(cols[0])
        return cls([[cols[j][i] for j in range(ncols)] for i in range(nrows)])

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def column_vector(self) -> tuple:
        if self.ncols != 1:
            raise ValueError("not a column vector")
        return tuple(r[0] for r in self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Mat([[a + b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Mat([[a - b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in r] for r in self.rows])

    def __matmul__(self, other: "Mat") -> "Mat":
        return product_sum([(1, self, other)])

    def scale(self, scalar) -> "Mat":
        return Mat([[a * scalar for a in r] for r in self.rows])

    def transpose(self) -> "Mat":
        return Mat(tuple(zip(*self.rows)))

    def trace(self):
        acc = self.rows[0][0]
        for i in range(1, min(self.nrows, self.ncols)):
            acc = acc + self.rows[i][i]
        return acc

    def map(self, fn: Callable) -> "Mat":
        return Mat([[fn(a) for a in r] for r in self.rows])

    def is_zero(self) -> bool:
        return all(is_zero(a) for r in self.rows for a in r)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        # canonical entries compare directly; a difference is built only for
        # entries that compare unequal, so a ring mismatch still raises
        return self.shape == other.shape and all(
            a == b or is_zero(a - b)
            for r1, r2 in zip(self.rows, other.rows) for a, b in zip(r1, r2))

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "\n".join("  [" + ", ".join(str(a) for a in r) + "]"
                         for r in self.rows)
        return f"Mat(\n{body}\n)"


def product_sum(products: Sequence[tuple[int, Mat, Mat]], addend: Mat | None = None) -> Mat:
    """The sum of sign * A @ B over (sign, A, B), plus addend when given; a sign is 1 or -1.

    The one matrix product: ``A @ B`` is the sum of one term, and a residual
    C - A B or a commutator A B - B A is one call.  When every entry of every
    operand is a Series, the whole sum is one ``series_matmul`` pass, which
    forms each output entry once; otherwise each product is formed (by
    ``_laurent_product`` over Laurent entries, the generic loop for
    rationals) and the products are added and subtracted in order.
    """
    shape = (products[0][1].nrows, products[0][2].ncols)
    for _, A, B in products:
        if A.ncols != B.nrows or (A.nrows, B.ncols) != shape:
            raise ValueError(f"cannot multiply {A.shape} by {B.shape}")
    if addend is not None and addend.shape != shape:
        raise ValueError(f"shape mismatch {addend.shape} vs {shape}")
    mats = [M for _, A, B in products for M in (A, B)] + ([] if addend is None else [addend])
    kinds = {id(M): {type(a) for r in M.rows for a in r} for M in mats}
    if set().union(*kinds.values()) == {Series}:
        return Mat(series_matmul([(s, A.rows, B.rows) for s, A, B in products],
                                 None if addend is None else addend.rows))
    acc = addend
    for sign, A, B in products:
        if kinds[id(A)] | kinds[id(B)] == {Laurent}:
            P = _laurent_product(A, B)
        else:
            bt = tuple(zip(*B.rows))
            P = Mat([[reduce(add, map(mul, r, c)) for c in bt] for r in A.rows])
        if acc is None:
            acc = P if sign > 0 else -P
        else:
            acc = acc + P if sign > 0 else acc - P
    return acc


def _laurent_product(A: Mat, B: Mat) -> Mat:
    """A @ B over one Laurent ring, one ``laurent_dot`` per output entry.

    An entry visits only the pairs where A[i][k] and B[k][j] are both
    nonzero, and an entry with no such pair is one shared zero of the ring.
    Nonzero entries over differing variable tuples raise ValueError.
    """
    nonzero = [x for M in (A, B) for r in M.rows for x in r if x.terms]
    zero = Laurent.zero((nonzero or [A[0, 0]])[0].vars)
    for x in nonzero:
        if x.vars != zero.vars:
            raise ValueError(f"variable mismatch: {zero.vars} vs {x.vars}")
    cols = [{k: x for k, x in enumerate(c) if x.terms} for c in zip(*B.rows)]
    out = []
    for r in A.rows:
        row = [(k, x) for k, x in enumerate(r) if x.terms]
        out.append([laurent_dot(pairs) if (pairs := [(a, c[k]) for k, a in row if k in c])
                    else zero for c in cols])
    return Mat(out)


# ---------------------------------------------------------------------------
# Characteristic polynomial (Faddeev-LeVerrier)
# ---------------------------------------------------------------------------


def _leverrier(M: Mat) -> tuple[list, Mat]:
    """The charpoly coefficients of M and the iterate N_{d-1}.

    N_0 = I and N_k = M N_{k-1} + c_k I, so N_d = 0 by Cayley-Hamilton:
    M N_{d-1} = -c_d I, and -N_{d-1} is the adjugate up to the sign (-1)^d.
    The one of I is that of the entries' ring: rationals (ints read as
    Fraction) or one Laurent ring; any other entry raises TypeError.
    """
    if M.nrows != M.ncols:
        raise ValueError("charpoly of a non-square matrix")
    d = M.nrows
    a = M[0, 0] if d else Fraction(0)
    if isinstance(a, Laurent):
        one = Laurent.const(a.vars, 1)
    elif isinstance(a, (int, Fraction)):
        one = Fraction(1)
    else:
        raise TypeError(f"charpoly needs Fraction or Laurent entries, got {type(a).__name__}")
    ident = Mat.identity(d, one)
    coeffs = [one]
    N = prev = ident
    for k in range(1, d + 1):
        prev = N
        MN = M @ N
        c = -(MN.trace() / k)
        coeffs.append(c)
        N = Mat([[a + c if i == j else a for j, a in enumerate(r)] for i, r in enumerate(MN.rows)])
    return coeffs, prev


def charpoly(M: Mat) -> list:
    """Coefficients [1, c_1, ..., c_d] of det(z*I - M) = z^d + c_1 z^{d-1} + ...

    Division-free apart from divisions by the integers 1..d, so valid over
    a Fraction or Laurent ring.
    """
    return _leverrier(M)[0]


def det(M: Mat) -> object:
    """Determinant via the charpoly's constant coefficient."""
    c_d = charpoly(M)[-1]
    return -c_d if M.nrows % 2 else c_d


# ---------------------------------------------------------------------------
# Rational linear algebra
# ---------------------------------------------------------------------------


def row_reduce(rows: list[list], ncols: int) -> list[int]:
    """Gauss-Jordan elimination, in place, on the first ``ncols`` columns.

    Entries are rationals (int or Fraction); columns past
    ``ncols`` are carried along.  Returns the pivot columns: row k then has
    a 1 in column pivots[k], every other row a 0 there, and the rows past
    len(pivots) vanish on the first ``ncols`` columns.
    """
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        piv = next((r for r in range(rank, len(rows)) if not is_zero(rows[r][col])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [a * inv for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not is_zero(rows[r][col]):
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    return pivots


def inv_field(A: Mat) -> Mat:
    """Gauss-Jordan inverse of a rational matrix."""
    if A.nrows != A.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = A.nrows
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(A.rows)]
    if len(row_reduce(aug, n)) < n:
        raise ZeroDivisionError("singular matrix")
    return Mat([r[n:] for r in aug])


def rank_field(A: Mat) -> int:
    """Rank of a rational matrix, by row echelon elimination."""
    return len(row_reduce([list(r) for r in A.rows], A.ncols))


# -- Laurent matrices: fraction-free inverse ---------------------------------


def inv_laurent(A: Mat) -> tuple[Mat, Laurent]:
    """(W, s) with A @ W = s * I, for a square Laurent matrix A.

    From the Faddeev-LeVerrier recursion, W = -N_{d-1} and s = c_d, which
    is det A up to the sign (-1)^d.  A monomial c_d (a unit) is divided out:
    then W is the inverse and s = 1.  A zero determinant raises
    ZeroDivisionError.
    """
    coeffs, N = _leverrier(A)
    c = coeffs[-1]
    if c.is_zero():
        raise ZeroDivisionError("singular matrix")
    if len(c.terms) == 1:
        return N.scale(-(c ** -1)), Laurent.const(c.vars, 1)
    return -N, c


def divide_exact(M: Mat, s: Laurent) -> Mat | None:
    """M / s for Laurent or Series entries, None when s does not divide; M if s = 1."""
    if s == 1:
        return M

    def quotient(a):
        if isinstance(a, Laurent):
            return a.divide(s)
        terms = {e: c.divide(s) for e, c in a.terms.items()}
        return None if None in terms.values() else Series(a.vars, a.order, terms)

    rows = [[quotient(a) for a in r] for r in M.rows]
    return None if any(a is None for r in rows for a in r) else Mat(rows)


# ---------------------------------------------------------------------------
# Series matrices
# ---------------------------------------------------------------------------


def series_constant_slice(M: Mat, qvars: tuple[str, ...]) -> Mat:
    """Drop all positive-order terms, giving a matrix over Laurent(qvars)."""
    zero = Laurent.zero(qvars)
    return M.map(lambda s: s.constant_slice() or zero)


def inv_series(M: Mat) -> tuple[Mat, Laurent]:
    """(W, s) with M @ W = s * I, for a square Series matrix M.

    Write M = M_0 + M_+ with M_0 the constant slice, and let (A, delta) be
    ``inv_laurent(M_0)``, so delta is det M_0 up to sign, or 1 for a unit.  With
    N = delta * I - A @ M = -A @ M_+, which is nilpotent,
    W = sum_k delta^(m-1-k) N^k A over the nonzero powers N^k, k < m, and
    s = delta^m.  When delta = 1, W is the inverse from the finite Neumann
    expansion and s = 1.  A singular constant slice, the zero matrix
    included, raises ZeroDivisionError.
    """
    sample = M.rows[0][0]
    svars, order = sample.vars, sample.order
    qvars = next((s.qvars for r in M.rows for s in r if s.num), None)
    if qvars is None:
        raise ZeroDivisionError("singular matrix")
    A, delta = inv_laurent(series_constant_slice(M, qvars))
    unit = delta == 1
    A = A.map(lambda a: Series.const(svars, order, a))
    ident = Mat.identity(M.nrows, Series.const(svars, order, Laurent.const(qvars, 1)))
    N = (ident if unit else ident.scale(delta)) - (A @ M)
    acc = power = ident
    s = delta
    for _ in range(order):
        power = power @ N
        if power.is_zero():
            break
        acc = (acc if unit else acc.scale(delta)) + power
        s = s * delta
    return acc @ A, s


# ---------------------------------------------------------------------------
# Tensor and wedge constructions
# ---------------------------------------------------------------------------


def kron(A: Mat, B: Mat) -> Mat:
    """Kronecker product: the matrix of A (x) B on e_i (x) e_j, ordered (i, j)."""
    rows = []
    for i in range(A.nrows):
        for k in range(B.nrows):
            rows.append([A[i, j] * B[k, l]
                         for j in range(A.ncols) for l in range(B.ncols)])
    return Mat(rows)


def kron_sum(A: Mat, B: Mat) -> Mat:
    """A (x) I + I (x) B on the tensor product basis."""
    zero = A[0, 0] * 0
    return Mat([[(A[i, j] if k == l else zero) + (B[k, l] if i == j else zero)
                 for j in range(A.ncols) for l in range(B.ncols)]
                for i in range(A.nrows) for k in range(B.nrows)])


def wedge_indices(d: int, r: int) -> list[tuple[int, ...]]:
    """Strictly increasing r-tuples in range(d), lexicographically ordered."""
    return list(combinations(range(d), r))


def permutation_sign(vals: Sequence[int]) -> int:
    """The sign of the permutation sorting distinct values increasingly: (-1)^inversions."""
    return -1 if sum(a > b for a, b in combinations(vals, 2)) & 1 else 1


def wedge_of_sum(B: Mat, r: int) -> Mat:
    """Derivation action of B on the r-th wedge power.

    For a single endomorphism B of V, this is the matrix of
    sum_p 1 (x) ... (x) B (x) ... (x) 1 restricted to wedge basis vectors
    e_I = e_{i_1} ^ ... ^ e_{i_r} with I strictly increasing.
    """
    d = B.nrows
    basis = wedge_indices(d, r)
    pos = {I: a for a, I in enumerate(basis)}
    n = len(basis)
    zero = B[0, 0] * 0
    out = [[zero] * n for _ in range(n)]
    for col, I in enumerate(basis):
        for p in range(r):
            for k in range(d):
                coeff = B[k, I[p]]
                if is_zero(coeff):
                    continue
                if k != I[p] and k in I:  # e_k ^ e_k = 0
                    continue
                target = I[:p] + (k,) + I[p + 1:]
                a = pos[tuple(sorted(target))]
                add = coeff if permutation_sign(target) == 1 else -coeff
                out[a][col] = out[a][col] + add
    return Mat(out)


def wedge_metric(G: Mat, r: int) -> Mat:
    """Induced pairing on the r-th wedge power, in the wedge index basis.

    With the alternation normalized so that squared norms stay rational,
    the pairing of e_I and e_J is (-1)^(r(r-1)/2) * det(G[I, J]).  Column J
    is computed by functoriality, G e_{j_1} ^ ... ^ G e_{j_r} =
    sum_I det(G[I, J]) e_I, one factor at a time; columns that share a
    prefix of J share its partial wedge.
    """
    basis = wedge_indices(G.nrows, r)
    sign = (-1) ** (r * (r - 1) // 2)
    zero = G[0, 0] * 0
    partial: dict = {(): {(): sign}}
    for J in basis:
        for p in range(1, r + 1):
            if J[:p] in partial:
                continue
            vec: dict = {}
            col = G.col(J[p - 1])
            for K, c in partial[J[:p - 1]].items():
                for k, g in enumerate(col):
                    if k in K or is_zero(g):
                        continue
                    I = tuple(sorted(K + (k,)))
                    term = c * g if permutation_sign(K + (k,)) > 0 else -(c * g)
                    vec[I] = vec[I] + term if I in vec else term
            partial[J[:p]] = vec
    return Mat.from_columns([[partial[J].get(I, zero) for I in basis] for J in basis])
