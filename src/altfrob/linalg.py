"""Exact dense linear algebra over the coefficient tower.

Matrices are immutable tuples of tuples; the entry type is any scalar of
rings.py (Fraction, Laurent, QFrac, Series) and operations are duck-typed.
The column convention is fixed once and for all: the matrix M of an operator
T in a basis (e_0, ..., e_{d-1}) satisfies

    T(e_j) = sum_i e_i * M[i][j],

so composition of operators is the usual matrix product and coordinate
vectors are columns.

Characteristic polynomials use the Faddeev-LeVerrier recursion, which only
ever divides by integers and therefore stays inside any Q-algebra; this is
what lets us take charpolys of matrices with Laurent entries without passing
through a fraction field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .rings import Laurent, QFrac, Series, demote, is_zero, series_dot


class NoSolution(Exception):
    """The linear system is inconsistent."""


class AmbiguousSystem(Exception):
    """The linear system has more than one solution."""


class Ring:
    """Descriptor bundling the zero and one scalars of an entry ring."""

    __slots__ = ("zero", "one")

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one


RATIONAL_RING = Ring(Fraction(0), Fraction(1))


def laurent_ring(variables: tuple[str, ...]) -> Ring:
    return Ring(Laurent.zero(variables), Laurent.const(variables, 1))


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
    def identity(cls, d: int, ring: Ring) -> "Mat":
        return cls([[ring.one if i == j else ring.zero for j in range(d)]
                    for i in range(d)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int, ring: Ring) -> "Mat":
        return cls([[ring.zero] * ncols for _ in range(nrows)])

    @classmethod
    def diag(cls, entries: Sequence, ring: Ring) -> "Mat":
        d = len(entries)
        return cls([[entries[i] if i == j else ring.zero for j in range(d)]
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

    def row(self, i: int) -> tuple:
        return self.rows[i]

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
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        bt = tuple(zip(*other.rows))
        if self.ncols and all(type(a) is Series for m in (self, other)
                              for r in m.rows for a in r):
            return Mat([[series_dot(list(zip(r, c))) for c in bt] for r in self.rows])
        out = []
        for r in self.rows:
            out_row = []
            for c in bt:
                acc = None
                for a, b in zip(r, c):
                    term = a * b
                    acc = term if acc is None else acc + term
                out_row.append(acc)
            out.append(out_row)
        return Mat(out)

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
        return self.shape == other.shape and (self - other).is_zero()

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "\n".join("  [" + ", ".join(str(a) for a in r) + "]"
                         for r in self.rows)
        return f"Mat(\n{body}\n)"

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        return Mat([[self.rows[i][j] for j in col_idx] for i in row_idx])


# ---------------------------------------------------------------------------
# Characteristic polynomial (Faddeev-LeVerrier)
# ---------------------------------------------------------------------------


def charpoly(M: Mat, ring: Ring) -> list:
    """Coefficients [1, c_1, ..., c_d] of det(z*I - M) = z^d + c_1 z^{d-1} + ...

    Division-free apart from divisions by the integers 1..d, so valid over
    any ring of characteristic zero in the tower.
    """
    if M.nrows != M.ncols:
        raise ValueError("charpoly of a non-square matrix")
    d = M.nrows
    ident = Mat.identity(d, ring)
    coeffs = [ring.one]
    N = ident
    for k in range(1, d + 1):
        MN = M @ N
        c = -(MN.trace() / k)
        coeffs.append(c)
        N = MN + ident.scale(c)
    return coeffs


def det(M: Mat, ring: Ring) -> object:
    """Determinant via the charpoly's constant coefficient."""
    if M.nrows == 0:
        return ring.one
    c_d = charpoly(M, ring)[-1]
    return -c_d if M.nrows % 2 else c_d


def poly_str(coeffs: Sequence, var: str = "z") -> str:
    """Human-readable monic polynomial from a charpoly coefficient list."""
    d = len(coeffs) - 1
    parts = []
    for k, c in enumerate(coeffs):
        if is_zero(c):
            continue
        power = d - k
        cs = str(c)
        if power == 0:
            parts.append(cs)
            continue
        mono = var if power == 1 else f"{var}^{power}"
        if cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append(f"-{mono}")
        else:
            if ("+" in cs) or ("-" in cs[1:]) or (" " in cs):
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}")
    if not parts:
        return "0"
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Field linear algebra (Fraction or QFrac entries)
# ---------------------------------------------------------------------------


def _field_inv(a):
    if isinstance(a, (int, Fraction)):
        return Fraction(1) / a
    return a.inverse()


def row_reduce(rows: list[list], ncols: int) -> list[int]:
    """Gauss-Jordan elimination, in place, on the first ``ncols`` columns.

    Entries must support exact division (Fraction or QFrac); columns past
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
        inv = _field_inv(rows[rank][col])
        rows[rank] = [a * inv for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not is_zero(rows[r][col]):
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    return pivots


def solve_field(A: Mat, B: Mat) -> Mat:
    """Solve A @ X = B over a field; raise NoSolution / AmbiguousSystem.

    The entries of ``A`` and ``B`` must support exact division (Fraction or
    QFrac).  Use ``lift_qfrac`` first for Laurent matrices.
    """
    m = A.ncols
    rows = [list(ar) + list(br) for ar, br in zip(A.rows, B.rows)]
    pivots = row_reduce(rows, m)
    if len(pivots) < m:
        free = next(c for c in range(m) if c not in pivots)
        raise AmbiguousSystem(f"free column {free}")
    if any(not is_zero(a) for r in rows[m:] for a in r[m:]):
        raise NoSolution("inconsistent system")
    return Mat([r[m:] for r in rows[:m]])


def inv_field(A: Mat) -> Mat:
    """Gauss-Jordan inverse over a field (Fraction or QFrac entries)."""
    if A.nrows != A.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = A.nrows
    zero = A[0, 0] * 0 if n else 0  # the zero of the entry field
    aug = [list(r) + [zero + 1 if i == j else zero for j in range(n)]
           for i, r in enumerate(A.rows)]
    if len(row_reduce(aug, n)) < n:
        raise ZeroDivisionError("singular matrix")
    return Mat([r[n:] for r in aug])


def rank_field(A: Mat) -> int:
    """Rank over a field, by row echelon elimination."""
    return len(row_reduce([list(r) for r in A.rows], A.ncols))


# -- Laurent matrices: lift to the fraction field and back -------------------


def lift_qfrac(M: Mat) -> Mat:
    return M.map(lambda a: a if isinstance(a, QFrac) else QFrac.from_laurent(a))


def solve_laurent(A: Mat, B: Mat) -> Mat:
    """Solve over Q(q) for Laurent-entried A, B; demote when denominators cancel."""
    return solve_field(lift_qfrac(A), lift_qfrac(B)).map(demote)


def inv_laurent(A: Mat) -> Mat:
    return inv_field(lift_qfrac(A)).map(demote)


# ---------------------------------------------------------------------------
# Series matrices
# ---------------------------------------------------------------------------


def series_constant_slice(M: Mat, qvars: tuple[str, ...]) -> Mat:
    """Drop all positive-order terms, giving a matrix over Laurent(qvars)."""
    zero = Laurent.zero(qvars)
    return M.map(lambda s: s.constant_slice() or zero)


def inv_series(M: Mat) -> Mat:
    """Inverse of a Series-entried square matrix with invertible constant slice.

    The constant slice is inverted over Q(q); the rest follows from the
    finite Neumann expansion, which terminates at the truncation order.
    Entries of the result are Series with QFrac coefficients demoted to
    Laurent wherever the denominator cancels.  A singular constant slice,
    the zero matrix included, raises ZeroDivisionError.
    """
    sample = M.rows[0][0]
    svars, order = sample.vars, sample.order
    coeff = next((c for r in M.rows for s in r for c in s.terms.values()), None)
    if coeff is None:
        raise ZeroDivisionError("singular matrix")
    V0 = inv_laurent(series_constant_slice(M, coeff.vars)).map(
        lambda a: Series.const(svars, order, a))

    def lift_series(s: Series) -> Series:
        return s.map_coeffs(lambda c: QFrac.from_laurent(c)
                            if isinstance(c, Laurent) else c)

    need_frac = any(isinstance(t, QFrac)
                    for r in V0.rows for s in r for t in s.terms.values())
    Ms = M.map(lift_series) if need_frac else M
    V0s = V0.map(lift_series) if need_frac else V0

    coeff = next(c for r in Ms.rows for s in r for c in s.terms.values())
    ring = Ring(Series.zero(svars, order), Series.const(svars, order, coeff * 0 + 1))
    ident = Mat.identity(M.nrows, ring)
    N = ident - (V0s @ Ms)
    acc = ident
    power = ident
    for _ in range(order):
        power = power @ N
        if power.is_zero():
            break
        acc = acc + power
    return (acc @ V0s).map(demote)


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


def kron_sum(A: Mat, B: Mat, ring: Ring) -> Mat:
    """A (x) I + I (x) B on the tensor product basis."""
    ia = Mat.identity(A.nrows, ring)
    ib = Mat.identity(B.nrows, ring)
    return kron(A, ib) + kron(ia, B)


def wedge_indices(d: int, r: int) -> list[tuple[int, ...]]:
    """Strictly increasing r-tuples in range(d), lexicographically ordered."""
    out: list[tuple[int, ...]] = []

    def rec(start: int, prefix: tuple[int, ...]) -> None:
        if len(prefix) == r:
            out.append(prefix)
            return
        for i in range(start, d - (r - len(prefix)) + 1):
            rec(i + 1, prefix + (i,))
    rec(0, ())
    return out


def _sort_with_sign(idx: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Sort indices, tracking the permutation sign; None when repeated."""
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(lst)):
        if lst[i - 1] == lst[i]:
            return None
    return tuple(lst), sign


def wedge_of_sum(B: Mat, r: int, ring: Ring) -> Mat:
    """Derivation action of B on the r-th wedge power.

    For a single endomorphism B of V, this is the matrix of
    sum_p 1 (x) ... (x) B (x) ... (x) 1 restricted to wedge basis vectors
    e_I = e_{i_1} ^ ... ^ e_{i_r} with I strictly increasing.
    """
    d = B.nrows
    basis = wedge_indices(d, r)
    pos = {I: a for a, I in enumerate(basis)}
    n = len(basis)
    out = [[ring.zero for _ in range(n)] for _ in range(n)]
    for col, I in enumerate(basis):
        for p in range(r):
            for k in range(d):
                coeff = B[k, I[p]]
                if is_zero(coeff):
                    continue
                target = I[:p] + (k,) + I[p + 1:]
                sorted_sign = _sort_with_sign(target)
                if sorted_sign is None:
                    continue
                J, sign = sorted_sign
                a = pos[J]
                add = coeff if sign == 1 else -coeff
                out[a][col] = out[a][col] + add
    return Mat(out)


def wedge_metric(G: Mat, r: int, ring: Ring) -> Mat:
    """Induced pairing on the r-th wedge power, in the wedge index basis.

    With the alternation normalized so that squared norms stay rational,
    the pairing of e_I and e_J is (-1)^(r(r-1)/2) * det(G[I, J]).
    """
    d = G.nrows
    basis = wedge_indices(d, r)
    sign = (-1) ** (r * (r - 1) // 2)
    rows = []
    for I in basis:
        row = []
        for J in basis:
            sub = G.submatrix(I, J)
            val = det(sub, ring)
            row.append(val if sign == 1 else -val)
        rows.append(row)
    return Mat(rows)
