"""Canonical structures for projective space: the point and its q-line family.

The rank-(n+1) point structure has basis omega_0..omega_n (the cohomology
classes of degrees 0, 2, ..., 2n), R_inf = -diag(0..n), R_0 the scaled
cyclic matrix (n+1)*(subdiagonal 1s, top-right 1), and the anti-diagonal
intersection pairing.  The small family over the q-line carries
B_0(q) = (n+1)*(subdiagonal 1s, corner q), whose Higgs matrix -B_0/(n+1) is
multiplication by the hyperplane class in Q[q][y]/(y^{n+1} - q).
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Mat
from .presaito import BaseVar, PointStructure, PreSaitoFamily
from .rings import Laurent


def build_pn(n: int) -> PointStructure:
    """The point structure of projective n-space at q = 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    d = n + 1
    zero, one = Fraction(0), Fraction(1)

    def const(c: Fraction) -> Laurent:
        return Laurent.const((), c)

    R0 = Mat([[const((n + 1) * one) if (i == j + 1) or (i == 0 and j == n)
               else const(zero) for j in range(d)] for i in range(d)])
    Rinf = Mat([[const(Fraction(-i)) if i == j else const(zero)
                 for j in range(d)] for i in range(d)])
    G = Mat([[const(one if i + j == n else zero) for j in range(d)]
             for i in range(d)])
    omega = tuple(const(one if i == 0 else zero) for i in range(d))
    return PointStructure(d, R0, Rinf, G, w=Fraction(n), omega=omega,
                          delta0=Fraction(0))


def pn_small_family(n: int) -> PreSaitoFamily:
    """The small quantum family of projective n-space over the q-line.

    The base variable q carries the derivation q*d/dq (it is the exponential
    of the degree-2 flat coordinate, which is never materialized).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    d = n + 1
    qv = ("q",)
    q = Laurent.gen(qv, "q")
    zero = Laurent.zero(qv)

    def b0(i: int, j: int) -> Laurent:
        if i == j + 1:
            return Laurent.const(qv, n + 1)
        if i == 0 and j == n:
            return q * (n + 1)
        return zero

    B0 = Mat([[b0(i, j) for j in range(d)] for i in range(d)])
    C = (-B0).scale(Fraction(1, n + 1))
    Binf = Mat.diag([Laurent.const(qv, i) for i in range(d)])
    G = Mat([[Laurent.const(qv, 1) if i + j == n else zero for j in range(d)]
             for i in range(d)])
    return PreSaitoFamily(base=(BaseVar("q", "q"),), d=d, Binf=Binf, B0=B0,
                          C={"q": C}, G=G, w=Fraction(n))


def qline_products(n: int) -> list[Mat]:
    """Matrices of (d_{t_k} *) on the q-line, k = 0..n, in the flat frame.

    The hyperplane product matrix is M_1 = B_0/(n+1); the degree-2k field
    multiplies by its k-th power, realizing Q[q][y]/(y^{n+1} - q) with
    d_{t_k} acting as [y^k].
    """
    F = pn_small_family(n)
    M1 = F.B0.scale(Fraction(1, n + 1))
    out = [Mat.identity(F.d, F.const(1))]
    for _ in range(n):
        out.append(out[-1] @ M1)
    return out


def quotient_ring_products(n: int) -> list[Mat]:
    """Multiplication by y^k in Q[q][y]/(y^{n+1} - q), basis (1, y, .., y^n).

    Independent of the family constructors: built directly from polynomial
    reduction, for use as an oracle against ``qline_products``.
    """
    qv = ("q",)
    q = Laurent.gen(qv, "q")
    zero = Laurent.zero(qv)
    one = Laurent.const(qv, 1)
    d = n + 1

    def reduce_power(m: int) -> list[Laurent]:
        # y^m = q^(m // (n+1)) * y^(m % (n+1))
        coords = [zero] * d
        coords[m % d] = q ** (m // d) if m >= d else one
        return coords

    out = []
    for k in range(d):
        cols = [reduce_power(k + j) for j in range(d)]
        out.append(Mat.from_columns(cols))
    return out
