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
from fractions import Fraction
from itertools import permutations, product
from typing import Iterable, Iterator, Sequence

from .linalg import Mat, permutation_sign, wedge_indices, wedge_metric
from .projective import build_pn
from .rings import Laurent, fraction_from_str, fraction_to_str, json_field

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


def alternant(mu: Sequence[int], r: int) -> Laurent:
    """a_mu = det(y_i^mu_j) for a strictly decreasing exponent vector mu."""
    if len(mu) != r:
        raise ValueError("exponent vector must have one entry per variable")
    if any(mu[i] <= mu[i + 1] for i in range(r - 1)):
        raise ValueError("exponents must be strictly decreasing")
    # the sign of sorting distinct values decreasingly is that of sorting them reversed
    return Laurent(yq_vars(r), {(0,) + exps: Fraction(permutation_sign(exps[::-1]))
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
    return permutation_sign(rem[::-1]), carries, tuple(sorted(rem))


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

    def _integer_terms(self, key) -> list[list[int]]:
        """The [q-power, coefficient] pairs of one entry; raises unless integral."""
        out = []
        for (e,), c in self.entries[key].sorted_terms():
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient at {key}")
            out.append([e, c.numerator])
        return out

    def to_json_text(self) -> str:
        """The table document as ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``.

        Written in one pass over the sorted entries, each rectangle partition's
        list text rendered once, and joined once.  Every int goes through
        ``int.__repr__``, so a value that is not an int raises TypeError
        instead of reaching the text.
        """
        rep, at = int.__repr__, "\n        "
        part = {lam: f"[{at}{(',' + at).join(map(rep, lam))}\n      ]" if lam else "[]"
                for lam in self._order}
        out, sep = ['{\n  "entries": ['], "\n    "
        for key in sorted(self.entries):
            lam, mu, nu = key
            q = ",\n        ".join([f"[\n          {rep(e)},\n          {rep(c)}\n        ]"
                                    for e, c in self._integer_terms(key)])
            q = f"[\n        {q}\n      ]" if q else "[]"
            out.append(f'{sep}{{\n      "lambda": {part[lam]},\n      "mu": {part[mu]},\n'
                       f'      "nu": {part[nu]},\n      "q": {q}\n    }}')
            sep = ",\n    "
        out.append("\n  ]," if self.entries else "],")
        out.append(f'\n  "n": {rep(self.n)},\n  "r": {rep(self.r)}\n}}\n')
        return "".join(out)

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
        """Decode a table document; a mistyped or missing field raises ValueError.

        So does a pair (lambda, mu) out of wedge order, a repeated entry or q
        exponent, and a zero coefficient: a computed table holds none of them.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"a table must be a JSON object, got {type(doc).__name__}")
        r, n = json_field(doc, "r"), json_field(doc, "n")
        for name, value in (("r", r), ("n", n)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 1 <= r <= n:
            raise ValueError(f"need 1 <= r <= n, got r = {r}, n = {n}")
        items = json_field(doc, "entries")
        if not isinstance(items, list) or any(not isinstance(i, dict) for i in items):
            raise ValueError(f"entries must be a list of objects, got {items!r}")
        empty = cls(r, n, {})  # its wedge order checks the keys
        entries = {}
        for item in items:
            parts = [json_field(item, name) for name in ("lambda", "mu", "nu")]
            pairs = json_field(item, "q")
            if any(not isinstance(p, list) or any(type(x) is not int for x in p)
                   for p in parts):
                raise ValueError(f"partitions must be lists of integers, got {parts!r}")
            if not isinstance(pairs, list) or any(
                    not isinstance(t, list) or len(t) != 2 or type(t[0]) is not int
                    or type(t[1]) not in (int, str) for t in pairs):
                raise ValueError("q must be a list of [integer exponent, rational string "
                                 f"or integer coefficient] pairs, got {pairs!r}")
            key = tuple(map(normalize_partition, parts))
            if any(p not in empty._order for p in key):
                raise ValueError(f"partitions must fit the {r} x {n + 1 - r} rectangle, "
                                 f"got {parts!r}")
            if empty._canon(*key[:2]) != key[:2]:
                raise ValueError(f"lambda, mu must be in wedge order, got {parts!r}")
            if key in entries:
                raise ValueError(f"repeated entry {parts!r}")
            coeffs = {(e,): fraction_from_str(c) for e, c in pairs}
            if len(coeffs) < len(pairs):
                raise ValueError(f"repeated q exponent at {parts!r}")
            if not any(coeffs.values()):
                raise ValueError(f"zero coefficient at {parts!r}")
            entries[key] = Laurent(("q",), coeffs)
        return cls(r, n, entries)


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
    straightened: dict = {}     # exponent vector -> _straighten of it, each done once
    coefficient: dict[int, Fraction] = {}   # one shared Fraction per value
    entries = {}
    for lam, mu in _ordered_pairs(parts):
        a, b = (lam, mu) if len(weights[lam]) <= len(weights[mu]) else (mu, lam)
        acc: dict[tuple[int, ...], dict[int, int]] = {}
        for w, k in weights[a].items():
            exps = tuple([s + x for s, x in zip(shifted[b], w)])
            if exps not in straightened:
                straightened[exps] = _straighten(exps, n)
            st = straightened[exps]
            if st is None:
                continue
            sign, carries, I = st
            bucket = acc.setdefault(I, {})
            twisted = sign * k * (-1) ** ((r - 1) * carries)
            bucket[carries] = bucket.get(carries, 0) + twisted
        for I, bucket in acc.items():
            terms = {}
            for e, c in bucket.items():
                if c:
                    if c not in coefficient:
                        coefficient[c] = Fraction(c)
                    terms[(e,)] = coefficient[c]
            if terms:
                entries[(lam, mu, part_of[I])] = Laurent._trusted(("q",), terms)
    return QLRTable(r, n, entries)


# ---------------------------------------------------------------------------
# Littlewood-Richardson + rim-hook oracle
# ---------------------------------------------------------------------------


def lr_products(lam: Partition, mu: Partition, r: int) -> dict[Partition, int]:
    """The nonzero Littlewood-Richardson numbers c^nu_(lam mu) with len(nu) <= r.

    Remmel-Whitney: the smaller shape is filled as an SSYT in 1..r, read
    row by row from the top, each row right to left.  A filling survives
    while the larger partition plus the weight read so far stays a
    partition, and each finished filling adds 1 to nu = larger + weight.
    """
    base, shape = (lam, mu) if sum(lam) >= sum(mu) else (mu, lam)
    if len(base) > r:
        return {}
    cur = list(base) + [0] * (r - len(base))
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row - 1, -1, -1)]
    fill = [[r] * (row + 1) for row in shape]
    out: dict[Partition, int] = {}

    def rec(pos: int) -> None:
        if pos == len(cells):
            nu = tuple(cur)
            out[nu] = out.get(nu, 0) + 1
            return
        i, j = cells[pos]
        for v in range(fill[i - 1][j] + 1 if i else 1, fill[i][j + 1] + 1):
            if v == 1 or cur[v - 2] > cur[v - 1]:
                cur[v - 1] += 1
                fill[i][j] = v
                rec(pos + 1)
                cur[v - 1] -= 1

    rec(0)
    return {tuple(p for p in nu if p): c for nu, c in out.items()}


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
    """Strip (n+1)-rim hooks until nu fits the rectangle.

    A hook is the rim of a cell (a, j) of hook length nu_a - j + nu'_j - a - 1
    = n+1.  It spans rows a..b with b = nu'_j - 1; removing it sets rows
    a..b-1 to nu_(i+1) - 1 and row b to j, and contributes one power of q and
    the sign (-1)^(b-a) * (-1)^(r-1), whichever hook goes first.  Returns
    (core, qpow, sign), or None when nu has more than r rows or gets stuck
    outside the rectangle.
    """
    shape = list(normalize_partition(nu))
    if len(shape) > r:
        return None
    qpow, sign = 0, 1
    while shape and shape[0] > n + 1 - r:
        conj = [sum(1 for p in shape if p > j) for j in range(shape[0])]
        cell = next(((a, j) for a, row in enumerate(shape) for j in range(row)
                     if row - j + conj[j] - a - 1 == n + 1), None)
        if cell is None:
            return None
        a, j = cell
        b = conj[j] - 1
        shape[a:b + 1] = [p - 1 for p in shape[a + 1:b + 1]] + [j]
        qpow += 1
        sign *= (-1) ** (b - a + r - 1)
    return normalize_partition(shape), qpow, sign


def rimhook_oracle(r: int, n: int) -> QLRTable:
    """Classical LR numbers reduced by rim hooks: the combinatorial route."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    reduced: dict[Partition, tuple[Partition, int, int] | None] = {}
    entries: dict[tuple[Partition, Partition, Partition], Laurent] = {}
    for lam, mu in _ordered_pairs(rect_partitions(r, n)):
        acc: dict[Partition, dict[int, int]] = {}
        for nutil, c in lr_products(lam, mu, r).items():
            if nutil not in reduced:
                reduced[nutil] = rimhook_reduce(nutil, r, n)
            if reduced[nutil] is None:
                continue
            core, qpow, sign = reduced[nutil]
            bucket = acc.setdefault(core, {})
            bucket[qpow] = bucket.get(qpow, 0) + sign * c
        for core, bucket in acc.items():
            cf = Laurent(("q",), {(e,): Fraction(c) for e, c in bucket.items()})
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
    return PartitionMatrix(r, n, rect_partitions(r, n), wedge_metric(build_pn(n).G, r))

