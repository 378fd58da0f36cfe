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
from typing import Iterable, Sequence

from .linalg import Mat, permutation_sign, wedge_indices, wedge_metric
from .projective import build_pn
from .rings import QVARS, Laurent, fraction_to_str, json_field

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

    ``pairs`` maps each pair (lambda, mu) in wedge order whose product is
    nonzero to its row {nu: c}, c a nonzero int: lambda * mu is the sum of
    c * q^d * nu with d = (|lambda| + |mu| - |nu|) / (n+1), the degree drop,
    since q has degree n+1 (``alt_structure_constants``).  ``entry`` and
    ``product`` return these as Laurent polynomials in q.
    """

    __slots__ = ("r", "n", "pairs", "_order")

    def __init__(self, r: int, n: int,
                 pairs: dict[tuple[Partition, Partition], dict[Partition, int]]):
        self.r = r
        self.n = n
        self.pairs = pairs
        self._order = {lam: i for i, lam in enumerate(rect_partitions(r, n))}

    def _canon(self, lam: Partition, mu: Partition) -> tuple[Partition, Partition]:
        if self._order[lam] <= self._order[mu]:
            return lam, mu
        return mu, lam

    def basis(self) -> list[Partition]:
        return rect_partitions(self.r, self.n)

    def _fit(self, parts) -> tuple[Partition, ...]:
        """The partitions normalized; ValueError unless each fits the rectangle."""
        key = tuple(map(normalize_partition, parts))
        if any(p not in self._order for p in key):
            raise ValueError(f"partitions must fit the {self.r} x {self.n + 1 - self.r} "
                             f"rectangle, got {parts!r}")
        return key

    def _degree(self, lam: Partition, mu: Partition, nu: Partition) -> int:
        """The q-power d of an entry: the degree drop over deg q = n+1."""
        return (sum(lam) + sum(mu) - sum(nu)) // (self.n + 1)

    def _term(self, lam: Partition, mu: Partition, nu: Partition, c: int) -> Laurent:
        return Laurent(QVARS, {(self._degree(lam, mu, nu),): Fraction(c)})

    def coefficients(self, lam, mu) -> dict[Partition, int]:
        """nu -> c with lam * mu = sum of c * q^d * nu, d the degree drop: a copy of the row."""
        return dict(self.pairs.get(self._canon(*self._fit((lam, mu))), {}))

    def product(self, lam, mu) -> dict[Partition, Laurent]:
        return {nu: self._term(lam, mu, nu, c) for nu, c in self.coefficients(lam, mu).items()}

    def entry(self, lam, mu, nu) -> Laurent:
        lam, mu, nu = self._fit((lam, mu, nu))
        return self._term(lam, mu, nu, self.pairs.get(self._canon(lam, mu), {}).get(nu, 0))

    def __eq__(self, other):
        if not isinstance(other, QLRTable):
            return NotImplemented
        return (self.r, self.n, self.pairs) == (other.r, other.n, other.pairs)

    def to_json_text(self) -> str:
        """The table document as ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``.

        Written in one pass over the sorted pairs and each row's sorted nu,
        each rectangle partition's list text rendered once, and joined once;
        "q" is the one term [d, c].  Every int goes through ``int.__repr__``,
        so a value that is not an int raises TypeError instead of reaching
        the text.
        """
        rep, at, m = int.__repr__, "\n        ", self.n + 1
        part = {lam: f"[{at}{(',' + at).join(map(rep, lam))}\n      ]" if lam else "[]"
                for lam in self._order}
        size = {lam: sum(lam) for lam in self._order}
        out, sep = ['{\n  "entries": ['], "\n    "
        for (lam, mu), row in sorted(self.pairs.items()):  # unique keys: no two rows compare
            for nu in sorted(row):
                d = (size[lam] + size[mu] - size[nu]) // m
                out.append(f'{sep}{{\n      "lambda": {part[lam]},\n      "mu": {part[mu]},\n'
                           f'      "nu": {part[nu]},\n      "q": [{at}[{at}  {rep(d)},'
                           f'{at}  {rep(row[nu])}{at}]\n      ]\n    }}')
                sep = ",\n    "
        out.append("\n  ]," if self.pairs else "],")
        out.append(f'\n  "n": {rep(self.n)},\n  "r": {rep(self.r)}\n}}\n')
        return "".join(out)

    def to_csv(self) -> str:
        """One row (lambda, mu, nu, d, c) per entry, sorted."""
        text = {lam: " ".join(map(str, lam)) for lam in self._order}
        rows = sorted((text[lam], text[mu], text[nu], self._degree(lam, mu, nu), c)
                      for (lam, mu), row in self.pairs.items() for nu, c in row.items())
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["lambda", "mu", "nu", "qpow", "coef"])
        writer.writerows(rows)
        return buf.getvalue()

    @classmethod
    def from_json(cls, doc: dict) -> "QLRTable":
        """Decode a table document; a mistyped or missing field raises ValueError.

        So does a pair (lambda, mu) out of wedge order, a repeated entry, and a
        "q" other than one [d, c] with d = (|lambda| + |mu| - |nu|) / (n+1) an
        integer and c a nonzero int or integer string: nothing else is a table.
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
        table = cls(r, n, {})  # its wedge order checks the keys
        for item in items:
            parts = [json_field(item, name) for name in ("lambda", "mu", "nu")]
            terms = json_field(item, "q")
            if any(not isinstance(p, list) or any(type(x) is not int for x in p)
                   for p in parts):
                raise ValueError(f"partitions must be lists of integers, got {parts!r}")
            lam, mu, nu = table._fit(parts)
            if table._canon(lam, mu) != (lam, mu):
                raise ValueError(f"lambda, mu must be in wedge order, got {parts!r}")
            row = table.pairs.setdefault((lam, mu), {})
            if nu in row:
                raise ValueError(f"repeated entry {parts!r}")
            if (not isinstance(terms, list) or len(terms) != 1 or not isinstance(terms[0], list)
                    or len(terms[0]) != 2):
                raise ValueError(f"q must be one [degree, coefficient] pair, got {terms!r} "
                                 f"at {parts!r}")
            (d, c), drop = terms[0], sum(lam) + sum(mu) - sum(nu)
            if drop % (n + 1) or type(d) is not int or d != drop // (n + 1):
                raise ValueError(f"q exponent must be the degree drop (|lambda| + |mu| - |nu|)"
                                 f" / (n + 1) = {drop} / {n + 1}, got {d!r} at {parts!r}")
            if type(c) is str and c.isascii() and c.removeprefix("-").isdigit():
                c = int(c)
            if type(c) is not int or not c:
                raise ValueError(f"coefficient must be a nonzero integer, got {c!r} "
                                 f"at {parts!r}")
            row[nu] = c
        return table


class _Memo(dict):
    """A dict that fills a missing key with ``fn(key)``: one lookup on a hit."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _exponent_code(v: Sequence[int], radix: int) -> int:
    """The int sum of v_i * radix^i: codes add as vectors while no entry of a sum reaches radix."""
    code = 0
    for x in reversed(v):
        code = code * radix + x
    return code


def _exponent_digits(code: int, r: int, radix: int) -> tuple[int, ...]:
    """The r-vector whose ``_exponent_code`` is code."""
    out = []
    for _ in range(r):
        code, x = divmod(code, radix)
        out.append(x)
    return tuple(out)


def _straightening(r: int, n: int) -> _Memo:
    """Exponent code -> (wedge position of I, sign * (-1)^((r-1) * carries)), or None.

    The memo of ``_straighten`` on ``_exponent_code`` keys with radix 2n+2:
    the position is that of I in ``wedge_indices(n + 1, r)``, and the sign
    already carries the twist q -> (-1)^(r-1) q of every wrap.
    """
    radix = 2 * n + 2
    position = {I: i for i, I in enumerate(wedge_indices(n + 1, r))}

    def reduce(code: int):
        st = _straighten(_exponent_digits(code, r, radix), n)
        if st is None:
            return None
        sign, carries, I = st
        return position[I], -sign if (r - 1) * carries & 1 else sign

    return _Memo(reduce)


def alt_structure_constants(r: int, n: int) -> QLRTable:
    """Products [s_lam s_mu Delta] reduced and twisted by q -> (-1)^(r-1) q.

    By the bialternant formula s_lam * a_(mu+delta) is the sum of
    a_(mu+delta+w) over the tableau weights w of SSYT(lam, [r]) with
    multiplicity K_{lam, w}; each such alternant straightens in one step.
    The product commutes, so the factor with fewer weights is expanded.

    Shifted indices mu+delta (entries at most n) and weights w (entries at
    most lam_1 <= n+1-r) are ``_exponent_code``s with radix 2n+2: every
    entry of a sum is at most 2n+1-r, so no digit carries, one int add is
    the vector sum and one lookup in ``_straightening`` its reduction.  The
    exponents of a_(mu+delta+w) sum to |lam| + |mu| + |delta| and those of
    a_(nu+delta) to |nu| + |delta|, so the wraps, one q each, number
    (|lam| + |mu| - |nu|) / (n+1): one q-power per (lam, mu, nu), so the
    row of (lam, mu) keeps only the int coefficient of each nu.
    """
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    radix = 2 * n + 2
    indices = wedge_indices(n + 1, r)
    parts = [partition_from_indices(I, r) for I in indices]
    shifted = [_exponent_code(I[::-1], radix) for I in indices]
    memo: dict = {}
    weights = [[(_exponent_code(w, radix), k) for w, k in _tableau_weights(lam, r, memo).items()]
               for lam in parts]
    straightened = _straightening(r, n)
    pairs = {}
    for i, lam in enumerate(parts):
        for j in range(i, len(parts)):
            a, b = (i, j) if len(weights[i]) <= len(weights[j]) else (j, i)
            base, acc = shifted[b], {}
            for w, k in weights[a]:
                st = straightened[base + w]
                if st is not None:
                    nu, sign = st
                    acc[nu] = acc.get(nu, 0) + sign * k
            row = {parts[nu]: c for nu, c in acc.items() if c}
            if row:
                pairs[lam, parts[j]] = row
    return QLRTable(r, n, pairs)


# ---------------------------------------------------------------------------
# Littlewood-Richardson + rim-hook oracle
# ---------------------------------------------------------------------------


def _lr_base(base: Partition, r: int, radix: int) -> tuple[int, ...]:
    """(code, gap_2, ..., gap_r) of base padded to r parts, gap_v = base_(v-1) - base_v."""
    padded = tuple(base) + (0,) * (r - len(base))
    return (_exponent_code(padded, radix),) + tuple(
        padded[v - 2] - padded[v - 1] for v in range(2, r + 1))


def _lr_walk(shape: Partition, bases: list[tuple], r: int,
             radix: int) -> list[tuple[int, list[tuple]]]:
    """Littlewood-Richardson fillings of shape in 1..r over many bases, one walk.

    Remmel-Whitney: for len(nu) <= r, c^nu_(base shape) counts the fillings
    of shape as an SSYT in 1..r, read row by row from the top, each row
    right to left, in which base plus the weight c read so far stays a
    partition, nu being base + weight.  Placing v >= 2 keeps it a partition
    iff base_(v-1) - base_v > c_v - c_(v-1), a gap threshold on the counts
    read so far, and every base clears a negative one.  So the fillings do
    not depend on the base: each node keeps the alive bases whose gap
    clears its threshold, one comparison each, and a branch ends when none
    does.  A base is a tuple that starts with ``_lr_base`` of a partition
    of at most r parts; what follows rides along.  Each finished filling is
    one leaf (w, alive): w the ``_exponent_code`` of its weight with radix,
    and alive the bases it counts for.  The code of base plus w is that of
    nu while no part of nu reaches radix.
    """
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row - 1, -1, -1)]
    fill = [[r] * (row + 1) for row in shape]
    count = [0] * (r + 1)
    step = [0] + [radix ** v for v in range(r)]
    leaves: list[tuple[int, list[tuple]]] = []

    def rec(pos: int, alive: list[tuple], w: int) -> None:
        if pos == len(cells):
            leaves.append((w, alive))
            return
        i, j = cells[pos]
        for v in range(fill[i - 1][j] + 1 if i else 1, fill[i][j + 1] + 1):
            t = count[v] - count[v - 1] if v > 1 else -1
            live = alive if t < 0 else [g for g in alive if g[v - 1] > t]
            if not live:
                continue
            count[v] += 1
            fill[i][j] = v
            rec(pos + 1, live, w + step[v])
            count[v] -= 1

    rec(0, bases, 0)
    del rec  # its cell refers to it: a cycle that would hold the leaves until a full collection
    return leaves


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
    """Classical LR numbers reduced by rim hooks: the combinatorial route.

    Each nu~ with c^nu~_(lam mu) nonzero has |nu~| = |lam| + |mu|, and k
    hooks of size n+1 strip it to its core, so every nu~ reaching one core
    carries the same q^k: the entry is the signed sum of their LR numbers.
    Only the gap thresholds of ``_lr_walk`` see the larger partition, so the
    pairs are grouped by their filled (smaller) shape and ``_lr_walk`` fills
    each shape once over all of its bases; every finished filling adds the
    reduction of base + weight to the row of each base alive at it.  Bases
    and weights are ``_exponent_code``s with radix 2n+2: every part of nu~
    is at most lam_1 + mu_1 <= 2(n+1-r), so no digit carries, and
    ``rimhook_reduce`` is memoised on the code.
    """
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    radix = 2 * n + 2
    reduced = _Memo(lambda code: rimhook_reduce(_exponent_digits(code, r, radix), r, n))
    parts = rect_partitions(r, n)
    size = {lam: sum(lam) for lam in parts}
    head = {lam: _lr_base(lam, r, radix) for lam in parts}
    groups: dict[Partition, list[tuple]] = {}
    for i, lam in enumerate(parts):
        for mu in parts[i:]:
            base, shape = (lam, mu) if size[lam] >= size[mu] else (mu, lam)
            groups.setdefault(shape, []).append(head[base] + ((lam, mu), {}))
    pairs = {}
    while groups:  # popped, so a group's running sums go once its rows are kept
        shape, bases = groups.popitem()
        for w, alive in _lr_walk(shape, bases, r, radix):
            for g in alive:
                st = reduced[g[0] + w]
                if st is not None:
                    core, _, sign = st
                    acc = g[-1]
                    acc[core] = acc.get(core, 0) + sign
        for *_, key, acc in bases:
            row = {core: c for core, c in acc.items() if c}
            if row:
                pairs[key] = row
    return QLRTable(r, n, pairs)


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

