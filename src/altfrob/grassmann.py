"""Quantum cohomology of the Grassmannian as an alternate product.

The small quantum ring of G(r, n+1) is realized on the anti-invariant part
of the r-fold product of the projective line of projective n-space:
classes are written in the bialternant basis {[s_lambda * Delta]} of
Q[q][y_1..y_r]/(y_i^(n+1) - q), Delta the Vandermonde determinant, and the
quantum parameter is twisted by q -> (-1)^(r-1) q.  The independent oracle
computes the same structure constants combinatorially: classical
Littlewood-Richardson numbers followed by (n+1)-rim-hook reduction into the
r x (n+1-r) rectangle with the matching sign.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Sequence

from .linalg import Mat, wedge_indices, wedge_metric
from .presaito import Report
from .projective import build_pn
from .rings import Laurent, fraction_to_str

Partition = tuple[int, ...]


# ---------------------------------------------------------------------------
# Partition bookkeeping
# ---------------------------------------------------------------------------


def normalize_partition(parts: Iterable[int]) -> Partition:
    out = tuple(int(p) for p in parts if p != 0)
    if any(p < 0 for p in out):
        raise ValueError("negative part")
    if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
        raise ValueError("parts must be weakly decreasing")
    return out

def partition_from_indices(I: Sequence[int], r: int) -> Partition:
    """The partition whose shifted parts are the strictly increasing indices."""
    return normalize_partition(tuple(I[r - j] - (r - j) for j in range(1, r + 1)))


def indices_from_partition(lam: Partition, r: int) -> tuple[int, ...]:
    padded = tuple(lam) + (0,) * (r - len(lam))
    return tuple(sorted(padded[j - 1] + (r - j) for j in range(1, r + 1)))


def rect_partitions(r: int, n: int) -> list[Partition]:
    """All partitions in the r x (n+1-r) rectangle, in wedge-index order."""
    return [partition_from_indices(I, r) for I in wedge_indices(n + 1, r)]


def complement_partition(lam: Partition, r: int, n: int) -> Partition:
    width = n + 1 - r
    padded = tuple(lam) + (0,) * (r - len(lam))
    return normalize_partition(tuple(width - padded[r - 1 - j] for j in range(r)))


# ---------------------------------------------------------------------------
# Alternants and Schur polynomials in y_1..y_r over Q[q]
# ---------------------------------------------------------------------------


def yq_vars(r: int) -> tuple[str, ...]:
    return ("q",) + tuple(f"y{i}" for i in range(1, r + 1))


def _desc_sort_sign(vals: Sequence[int]) -> int:
    """The sign of the permutation sorting distinct values into decreasing order."""
    return (-1) ** sum(a < b for a, b in combinations(vals, 2))


def alternant(mu: Sequence[int], r: int) -> Laurent:
    """a_mu = det(y_i^mu_j) for a strictly decreasing exponent vector mu."""
    if len(mu) != r:
        raise ValueError("exponent vector must have one entry per variable")
    if any(mu[i] <= mu[i + 1] for i in range(r - 1)):
        raise ValueError("exponents must be strictly decreasing")
    return Laurent(yq_vars(r), {(0,) + exps: Fraction(_desc_sort_sign(exps))
                                for exps in permutations(mu)})


def vandermonde(r: int) -> Laurent:
    return alternant(tuple(range(r - 1, -1, -1)), r)


def _tableau_weights(lam: Partition, r: int,
                     memo: dict) -> dict[tuple[int, ...], int]:
    """The weights w of SSYT(lam, [r]) with their multiplicities K_{lam, w}.

    Branching rule: the entries r fill a horizontal strip lam/kappa
    (lam_(i+1) <= kappa_i <= lam_i, kappa in r-1 rows), and kappa carries a
    tableau in 1..r-1.  ``memo`` keeps each (lam, r) of one computation.
    """
    if len(lam) > r:
        return {}
    if not lam:
        return {(0,) * r: 1}
    if (lam, r) not in memo:
        out: dict[tuple[int, ...], int] = {}
        below = lam[1:] + (0,)
        for kappa in product(*(range(below[i], lam[i] + 1)
                               for i in range(min(len(lam), r - 1)))):
            kappa = tuple(p for p in kappa if p)
            for w, k in _tableau_weights(kappa, r - 1, memo).items():
                w += (sum(lam) - sum(kappa),)
                out[w] = out.get(w, 0) + k
        memo[lam, r] = out
    return memo[lam, r]


def schur_poly(lam: Partition, r: int) -> Laurent:
    """s_lambda as a polynomial: the sum of K_{lambda, w} y^w over tableau weights."""
    lam = normalize_partition(lam)
    return Laurent(yq_vars(r), {(0,) + w: Fraction(k)
                                for w, k in _tableau_weights(lam, r, {}).items()})


# ---------------------------------------------------------------------------
# Bialternant reduction
# ---------------------------------------------------------------------------


def _straighten(exps: Sequence[int], n: int) -> tuple[int, int, tuple[int, ...]] | None:
    """a_exps = sign * q^carries * a_(lambda + delta) under y^(n+1) -> q.

    Each exponent is lowered into [0, n], one q per wrap; a repeated residue
    kills the alternant (None), and the rest sort decreasingly with a sign.
    Returns (sign, carries, I) with I = indices_from_partition(lambda).
    """
    rem = [e % (n + 1) for e in exps]
    if len(set(rem)) < len(rem):
        return None
    carries = (sum(exps) - sum(rem)) // (n + 1)
    return _desc_sort_sign(rem), carries, tuple(sorted(rem))


def _swap12(P: Laurent) -> Laurent:
    terms = {}
    for e, c in P.terms.items():
        terms[(e[0], e[2], e[1]) + e[3:]] = c
    return Laurent(P.vars, terms)


def bialternant_reduce(P: Laurent, r: int, n: int) -> dict[Partition, Laurent]:
    """Expand an antisymmetric polynomial in the reduced alternant basis.

    Every monomial exponent is lowered by y^(n+1) -> q until it lies in
    [0, n]; repeated exponents die, the rest sort with a sign, and the
    strictly decreasing survivor mu = lambda + delta names the coefficient
    of [s_lambda * Delta].  Antisymmetry is asserted on one transposition.
    """
    vars_ = yq_vars(r)
    if P.vars != vars_:
        raise ValueError(f"expected a polynomial in {vars_}")
    if r >= 2 and _swap12(P) != -P:
        raise ValueError("input is not antisymmetric")
    acc: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for exps, coef in P.terms.items():
        qe, ys = exps[0], exps[1:]
        if any(e < 0 for e in ys):
            raise ValueError("negative y-exponent; the input must be "
                             "polynomial in the y's")
        st = _straighten(ys, n)
        if st is None:
            continue
        sign, carries, I = st
        bucket = acc.setdefault(I, {})
        key = (qe + carries,)
        bucket[key] = bucket.get(key, Fraction(0)) + sign * coef
    rfact = math.factorial(r)
    out: dict[Partition, Laurent] = {}
    for I, bucket in acc.items():
        coeff = Laurent(("q",), {e: c / rfact for e, c in bucket.items()})
        if not coeff.is_zero():
            out[partition_from_indices(I, r)] = coeff
    return out


# ---------------------------------------------------------------------------
# Structure-constant tables
# ---------------------------------------------------------------------------


class QLRTable:
    """Structure constants of a rank-|rectangle| Frobenius algebra over Q[q].

    Keys are canonically ordered pairs (lambda, mu) in wedge order plus the
    output partition nu; coefficients are nonzero Laurent polynomials in q.
    """

    __slots__ = ("r", "n", "entries", "_order", "_products")

    def __init__(self, r: int, n: int,
                 entries: dict[tuple[Partition, Partition, Partition], Laurent]):
        self.r = r
        self.n = n
        self.entries = dict(entries)
        self._order = {lam: i for i, lam in enumerate(rect_partitions(r, n))}
        self._products: dict[tuple[Partition, Partition], dict[Partition, Laurent]] = {}
        for (lam, mu, nu), cf in self.entries.items():
            self._products.setdefault((lam, mu), {})[nu] = cf

    def _canon(self, lam: Partition, mu: Partition) -> tuple[Partition, Partition]:
        if self._order[lam] <= self._order[mu]:
            return lam, mu
        return mu, lam

    def basis(self) -> list[Partition]:
        return rect_partitions(self.r, self.n)

    def product(self, lam, mu) -> dict[Partition, Laurent]:
        lam = normalize_partition(lam)
        mu = normalize_partition(mu)
        return dict(self._products.get(self._canon(lam, mu), {}))

    def entry(self, lam, mu, nu) -> Laurent:
        a, b = self._canon(normalize_partition(lam), normalize_partition(mu))
        return self.entries.get((a, b, normalize_partition(nu)),
                                Laurent.zero(("q",)))

    def __eq__(self, other):
        if not isinstance(other, QLRTable):
            return NotImplemented
        return (self.r, self.n, self.entries) == (other.r, other.n, other.entries)

    def __hash__(self):
        raise TypeError("unhashable")

    def _integer_terms(self, key) -> list[list[int]]:
        """The [q-power, coefficient] pairs of one entry; raises unless integral."""
        terms = self.entries[key].sorted_terms()
        if any(c.denominator != 1 for _, c in terms):
            raise ValueError(f"non-integer coefficient at {key}")
        return [[e, int(c)] for (e,), c in terms]

    def to_json(self) -> dict:
        entries = [{"lambda": list(lam), "mu": list(mu), "nu": list(nu),
                    "q": self._integer_terms((lam, mu, nu))}
                   for lam, mu, nu in self.entries]
        entries.sort(key=lambda d: (d["lambda"], d["mu"], d["nu"]))
        return {"r": self.r, "n": self.n, "entries": entries}

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["lambda", "mu", "nu", "qpow", "coef"])
        rows = []
        for lam, mu, nu in self.entries:
            for e, c in self._integer_terms((lam, mu, nu)):
                rows.append((" ".join(map(str, lam)), " ".join(map(str, mu)),
                             " ".join(map(str, nu)), e, c))
        rows.sort()
        writer.writerows(rows)
        return buf.getvalue()

    @classmethod
    def from_json(cls, doc: dict) -> "QLRTable":
        """Decode a table document; a mistyped field raises ValueError."""
        if not isinstance(doc, dict):
            raise ValueError(f"a table must be a JSON object, got {type(doc).__name__}")
        for name in ("r", "n"):
            if type(doc[name]) is not int:
                raise ValueError(f"{name} must be an integer, got {doc[name]!r}")
        items = doc["entries"]
        if not isinstance(items, list) or any(not isinstance(i, dict) for i in items):
            raise ValueError(f"entries must be a list of objects, got {items!r}")
        entries = {}
        for item in items:
            parts, pairs = [item["lambda"], item["mu"], item["nu"]], item["q"]
            if any(not isinstance(p, list) or any(type(x) is not int for x in p)
                   for p in parts):
                raise ValueError(f"partitions must be lists of integers, got {parts!r}")
            if not isinstance(pairs, list) or any(
                    not isinstance(t, list) or len(t) != 2 or type(t[0]) is not int
                    or type(t[1]) not in (int, str) for t in pairs):
                raise ValueError("q must be a list of [integer exponent, rational string "
                                 f"or integer coefficient] pairs, got {pairs!r}")
            entries[tuple(map(normalize_partition, parts))] = Laurent(
                ("q",), {(e,): Fraction(c) for e, c in pairs})
        return cls(doc["r"], doc["n"], entries)


def _ordered_pairs(parts: list[Partition]) -> Iterator[tuple[Partition, Partition]]:
    for i, lam in enumerate(parts):
        for mu in parts[i:]:
            yield lam, mu


def alt_structure_constants(r: int, n: int) -> QLRTable:
    """Products [s_lam s_mu Delta] reduced and twisted by q -> (-1)^(r-1) q.

    By the bialternant formula s_lam * a_(mu+delta) is the sum of
    a_(mu+delta+w) over the tableau weights w of SSYT(lam, [r]) with
    multiplicity K_{lam, w}; each such alternant straightens in one step.
    The product commutes, so the factor with fewer weights is expanded.
    """
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    part_of = {I: partition_from_indices(I, r) for I in wedge_indices(n + 1, r)}
    parts = list(part_of.values())
    shifted = {lam: I[::-1] for I, lam in part_of.items()}
    memo: dict = {}
    weights = {lam: _tableau_weights(lam, r, memo) for lam in parts}
    entries = {}
    for lam, mu in _ordered_pairs(parts):
        a, b = (lam, mu) if len(weights[lam]) <= len(weights[mu]) else (mu, lam)
        acc: dict[tuple[int, ...], dict[int, int]] = {}
        for w, k in weights[a].items():
            st = _straighten([s + x for s, x in zip(shifted[b], w)], n)
            if st is None:
                continue
            sign, carries, I = st
            bucket = acc.setdefault(I, {})
            twisted = sign * k * (-1) ** ((r - 1) * carries)
            bucket[carries] = bucket.get(carries, 0) + twisted
        for I, bucket in acc.items():
            cf = Laurent(("q",), {(e,): Fraction(c) for e, c in bucket.items()})
            if not cf.is_zero():
                entries[(lam, mu, part_of[I])] = cf
    return QLRTable(r, n, entries)


# ---------------------------------------------------------------------------
# Littlewood-Richardson + rim-hook oracle
# ---------------------------------------------------------------------------


def _partitions_above(lam: Partition, size: int, maxlen: int,
                      maxfirst: int) -> Iterator[Partition]:
    """Partitions of ``size`` containing lam, with bounded length and width."""

    def rec(row: int, prev: int, remaining: int, acc: list[int]):
        if remaining == 0:
            yield tuple(acc)
            return
        if row >= maxlen:
            return
        low = lam[row] if row < len(lam) else 0
        high = min(prev, remaining)
        if high < max(low, 1):
            return
        for part in range(high, max(low, 1) - 1, -1):
            acc.append(part)
            yield from rec(row + 1, part, remaining - part, acc)
            acc.pop()

    yield from rec(0, maxfirst, size, [])


def lr_count(nu: Partition, lam: Partition, mu: Partition) -> int:
    """Littlewood-Richardson number: lattice column-strict fillings of nu/lam."""
    if len(mu) > len(nu):
        return 0
    padlam = tuple(lam) + (0,) * (len(nu) - len(lam))
    if any(padlam[i] > nu[i] for i in range(len(nu))):
        return 0
    cells = []
    for i in range(len(nu)):
        for j in range(nu[i] - 1, padlam[i] - 1, -1):
            cells.append((i, j))
    if len(cells) != sum(mu):
        return 0
    nvals = len(mu)
    fill: dict[tuple[int, int], int] = {}
    counts = [0] * (nvals + 1)

    def rec(pos: int) -> int:
        if pos == len(cells):
            return 1
        i, j = cells[pos]
        lo, hi = 1, nvals
        above = fill.get((i - 1, j))
        if above is not None:
            lo = max(lo, above + 1)
        right = fill.get((i, j + 1))
        if right is not None:
            hi = min(hi, right)
        total = 0
        for v in range(lo, hi + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v >= 2 and counts[v] >= counts[v - 1]:
                continue  # lattice-word prefix condition
            counts[v] += 1
            fill[(i, j)] = v
            total += rec(pos + 1)
            del fill[(i, j)]
            counts[v] -= 1
        return total

    return rec(0)


def rimhook_reduce(nu: Partition, r: int, n: int):
    """Strip (n+1)-rim-hooks until nu fits the rectangle.

    Returns (core, qpow, sign) or None when the shape gets stuck outside the
    rectangle.  Each removed hook spanning rows a..b contributes one power
    of q and the sign (-1)^(b-a) * (-1)^(r-1).
    """
    h = n + 1
    width = n + 1 - r
    shape = list(nu)
    qpow = 0
    sign = 1
    while True:
        while shape and shape[-1] == 0:
            shape.pop()
        if len(shape) > r:
            return None
        if not shape or shape[0] <= width:
            return normalize_partition(shape), qpow, sign
        found = None
        for a in range(len(shape)):
            for b in range(a, len(shape)):
                rho = list(shape)
                removed = 0
                for i in range(a, b):
                    rho[i] = shape[i + 1] - 1
                    removed += shape[i] - rho[i]
                need_b = h - removed
                if need_b < 1:
                    continue
                rho[b] = shape[b] - need_b
                nxt = shape[b + 1] if b + 1 < len(shape) else 0
                if rho[b] < 0 or rho[b] < nxt:
                    continue
                if any(rho[i] < 0 for i in range(a, b)):
                    continue
                found = (rho, b - a + 1)
                break
            if found:
                break
        if found is None:
            return None
        shape, ht = found
        qpow += 1
        sign *= (-1) ** (ht - 1) * (-1) ** (r - 1)


def rimhook_oracle(r: int, n: int) -> QLRTable:
    """Classical LR numbers reduced by rim hooks: the combinatorial route."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    parts = rect_partitions(r, n)
    entries: dict[tuple[Partition, Partition, Partition], Laurent] = {}
    for lam, mu in _ordered_pairs(parts):
        size = sum(lam) + sum(mu)
        first = (lam[0] if lam else 0) + (mu[0] if mu else 0)
        acc: dict[Partition, dict[tuple[int, ...], Fraction]] = {}
        for nutil in _partitions_above(lam, size, r, first):
            c = lr_count(nutil, lam, mu)
            if c == 0:
                continue
            red = rimhook_reduce(nutil, r, n)
            if red is None:
                continue
            core, qpow, sign = red
            bucket = acc.setdefault(core, {})
            key = (qpow,)
            bucket[key] = bucket.get(key, Fraction(0)) + sign * c
        for core, bucket in acc.items():
            cf = Laurent(("q",), bucket)
            if not cf.is_zero():
                entries[(lam, mu, core)] = cf
    return QLRTable(r, n, entries)


# ---------------------------------------------------------------------------
# The wedge metric on rectangle partitions
# ---------------------------------------------------------------------------


class PartitionMatrix:
    """A rational matrix indexed by the rectangle partitions in wedge order."""

    __slots__ = ("r", "n", "labels", "mat")

    def __init__(self, r: int, n: int, labels: list[Partition], mat: Mat):
        self.r = r
        self.n = n
        self.labels = labels
        self.mat = mat

    def entry(self, lam, mu) -> Fraction:
        i = self.labels.index(normalize_partition(lam))
        j = self.labels.index(normalize_partition(mu))
        return self.mat[i, j]

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "partitions": [list(lam) for lam in self.labels],
            "entries": [[fraction_to_str(self.mat[i, j])
                         for j in range(len(self.labels))]
                        for i in range(len(self.labels))],
        }


def alt_metric(r: int, n: int) -> PartitionMatrix:
    """The induced pairing of wedge classes e_(lam+delta), as rationals."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    G = build_pn(n).G
    Gw = wedge_metric(G, r)
    labels = rect_partitions(r, n)
    mat = Gw.map(lambda x: x.as_fraction())
    return PartitionMatrix(r, n, labels, mat)


def metric_sign_report(r: int, n: int) -> Report:
    """Computed sign pattern of the wedge metric; reported, not asserted."""
    pm = alt_metric(r, n)
    rep = Report(f"alt_metric({r},{n}) sign pattern")
    for lam in pm.labels:
        comp = complement_partition(lam, r, n)
        val = pm.entry(lam, comp)
        rep.record(f"g({lam or '()'} , {comp or '()'}) == 1", val == 1,
                   witness=f"value {val}")
    off = []
    for lam in pm.labels:
        comp = complement_partition(lam, r, n)
        for mu in pm.labels:
            if mu != comp and pm.entry(lam, mu) != 0:
                off.append((lam, mu))
    rep.record("off-complement entries vanish", not off,
               witness=f"nonzero at {off[:3]}" if off else "")
    return rep
