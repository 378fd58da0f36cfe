"""Canonical structures for projective space: the q-line family and its point at q = 1.

The small family of projective n-space over the q-line has basis
omega_0..omega_n (the cohomology classes of degrees 0, 2, ..., 2n),
B_inf = diag(0..n), the anti-diagonal intersection pairing, and
B_0(q) = (n+1)*(subdiagonal 1s, corner q), whose Higgs matrix -B_0/(n+1) is
multiplication by the hyperplane class in Q[q][y]/(y^{n+1} - q).  Its point
at q = 1 is the same data over the empty base.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Mat
from .presaito import BaseVar, PreSaitoFamily
from .rings import Laurent


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
    Binf = Mat.diag([Fraction(i) for i in range(d)])
    G = Mat([[Fraction(int(i + j == n)) for j in range(d)] for i in range(d)])
    return PreSaitoFamily(base=(BaseVar("q", "q"),), d=d, Binf=Binf, B0=B0,
                          C={"q": C}, G=G, w=Fraction(n))


def build_pn(n: int) -> PreSaitoFamily:
    """Projective n-space at q = 1: ``pn_small_family(n)`` over the empty base."""
    F = pn_small_family(n)
    B0 = F.B0.map(lambda x: x.eval_var("q", 1))
    return PreSaitoFamily(base=(), d=F.d, Binf=F.Binf, B0=B0, C={}, G=F.G, w=F.w)


def quotient_ring_products(n: int) -> list[Mat]:
    """Multiplication by y^k in Q[q][y]/(y^{n+1} - q), basis (1, y, .., y^n).

    Independent of the family constructors: built directly from polynomial
    reduction, for use as an oracle against the powers of B_0/(n+1) of
    ``pn_small_family(n)``.
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
