"""Exact coefficient rings: rationals, Laurent polynomials, truncated series.

Everything in this package computes over the fixed scalar tower

    Fraction  ->  Laurent  ->  Series over Laurent

where ``Laurent`` is the ring of Laurent polynomials in a fixed tuple of
invertible variables (usually the single quantum parameter ``q``) with
``Fraction`` coefficients, and ``Series`` is a multivariate power series
truncated in *total* degree of its formal variables, with ``Laurent``
coefficients in one variable tuple.  The quantum parameter is a genuine
Laurent variable: it is never truncated, carries negative powers, and its
natural derivation is ``q * d/dq``.  There is no fraction field: linear
algebra over ``Laurent`` is fraction-free, and its one division,
``Laurent.divide``, is exact or reports that the divisor does not divide.

An entry knows its ring: ``x * 0`` is the zero of the ring of ``x`` for
every scalar of the tower, so no separate ring descriptor exists.

Every ``Series`` product, a single ``a * b``, a ``series_dot`` or a whole
``Series`` matrix product, goes through one matrix-level kernel,
``series_matmul``: each operand entry is checked, flattened and sorted by
degree once per product, zero entries are skipped structurally, and each
output entry is built once, without re-validating its terms.  Every
``Laurent`` product, a single ``a * b`` or an entry of a ``Laurent`` matrix
product, goes through ``laurent_dot``: pairs with a zero operand are skipped
and the result is built once, with no intermediate ``Laurent`` products or
sums.

No floating point is used anywhere; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from math import lcm
from operator import add, itemgetter
from typing import Callable, Iterable, Mapping, Sequence

Exponents = tuple[int, ...]


def as_fraction(value: int | Fraction) -> Fraction:
    """Coerce an int (or Fraction) to Fraction, rejecting floats loudly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


def fraction_to_str(value: Fraction) -> str:
    """Canonical "num/den" form, "num" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def fraction_from_str(text: str | int) -> Fraction:
    """Read a "num/den" string or an integer; anything else raises ValueError."""
    if type(text) is not int and not isinstance(text, str):
        raise ValueError(f"expected a rational string or an integer, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def json_field(doc: dict, key: str, name: str | None = None):
    """doc[key]; a missing key raises a ValueError naming the field."""
    if key not in doc:
        raise ValueError(f"missing field {name or key}")
    return doc[key]


def json_text(doc) -> str:
    """The one JSON writer: ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``.

    Byte for byte the same text, without the stdlib's pure-Python indenting
    encoder.  Only dicts with ``str`` keys, lists, tuples, ints, strings,
    booleans and None are written; anything else, a float or a Fraction
    included, raises TypeError.
    """
    return _json_value(doc, "\n") + "\n"


def _json_value(x, nl: str) -> str:
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = nl + "  "
        # int leaves inline; a bool fails `type(v) is int` and recurses
        return "[" + inner + ("," + inner).join(
            [int.__repr__(v) if type(v) is int else _json_value(v, inner) for v in x]
        ) + nl + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = nl + "  "
        # a key that is not a str raises TypeError in sorted() or _json_str
        return "{" + inner + ("," + inner).join(
            [_json_str(k) + ": " + _json_value(v, inner) for k, v in sorted(x.items())]
        ) + nl + "}"
    if isinstance(x, str):
        return _json_str(x)
    if isinstance(x, int):
        return "true" if x is True else "false" if x is False else int.__repr__(x)
    if x is None:
        return "null"
    raise TypeError(f"cannot write {type(x).__name__} as JSON: {x!r}")


class Laurent:
    """A Laurent polynomial over Q in a fixed tuple of variables.

    Terms are held in a dict mapping integer exponent tuples to nonzero
    Fractions.  Instances are immutable by convention: no method mutates
    ``terms`` after construction.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...], terms: Mapping[Exponents, Fraction]):
        self.vars = variables
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], terms: dict) -> "Laurent":
        """Wrap terms already known to be nonzero Fractions, without a copy."""
        x = object.__new__(cls)
        x.vars = variables
        x.terms = terms
        return x

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: tuple[str, ...]) -> "Laurent":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: tuple[str, ...], value: int | Fraction) -> "Laurent":
        c = as_fraction(value)
        if c == 0:
            return cls(variables, {})
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def gen(cls, variables: tuple[str, ...], name: str, power: int = 1,
            coeff: int | Fraction = 1) -> "Laurent":
        i = variables.index(name)
        exps = tuple(power if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exps: as_fraction(coeff)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.terms)

    def constant_value(self) -> Fraction:
        """The constant coefficient (the full value if ``is_constant``)."""
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.constant_value()

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Laurent") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Laurent.const(self.vars, other)
        if not isinstance(other, Laurent):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Laurent(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Laurent(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Laurent.const(self.vars, other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                return Laurent.zero(self.vars)
            return Laurent(self.vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, Laurent):
            return NotImplemented
        self._check(other)
        return laurent_dot([(self, other)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                raise ZeroDivisionError("division of Laurent by zero scalar")
            return self * (1 / c)
        return NotImplemented

    def divide(self, other: "Laurent") -> "Laurent | None":
        """The exact quotient self / other, or None when other does not divide self.

        A monomial divides in any ring; a non-monomial divisor needs a
        univariate ring, where long division decides.
        """
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if len(other.terms) == 1:
            return self * other ** -1
        if len(self.vars) != 1:
            raise ValueError("division by a non-monomial needs a univariate ring")
        (name,) = self.vars
        lo, hi = other.degree_range(name)
        lead = other.terms[(hi,)]
        floor = self.degree_range(name)[0]
        quotient, rest = Laurent.zero(self.vars), self
        # polynomial division of q^-floor * self by q^-lo * other
        while not rest.is_zero():
            top = rest.degree_range(name)[1]
            if top - floor < hi - lo:
                return None
            mono = Laurent(self.vars, {(top - hi,): rest.terms[(top,)] / lead})
            quotient = quotient + mono
            rest = rest - mono * other
        return quotient

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self.terms) == 1:
                ((e, c),) = self.terms.items()
                return Laurent(self.vars, {tuple(n * x for x in e): c ** n})
            raise ValueError("negative power of a non-monomial Laurent polynomial")
        result = Laurent.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if type(other) is not Laurent:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Laurent.const(self.vars, other)
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- derivations and substitutions --------------------------------------

    def log_deriv(self, name: str) -> "Laurent":
        """The logarithmic derivation q * d/dq in the named variable."""
        i = self.vars.index(name)
        return Laurent(self.vars, {e: c * e[i] for e, c in self.terms.items() if e[i] != 0})

    def deriv(self, name: str) -> "Laurent":
        """The plain derivation d/dq in the named variable."""
        i = self.vars.index(name)
        terms: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            shifted = tuple(x - 1 if j == i else x for j, x in enumerate(e))
            terms[shifted] = terms.get(shifted, Fraction(0)) + c * e[i]
        return Laurent(self.vars, {e: c for e, c in terms.items() if c != 0})

    def scale_var(self, name: str, factor: int | Fraction) -> "Laurent":
        """Substitute q -> factor * q (factor a nonzero rational)."""
        c0 = as_fraction(factor)
        if c0 == 0:
            raise ValueError("scale factor must be invertible")
        i = self.vars.index(name)
        return Laurent(self.vars, {e: c * c0 ** e[i] for e, c in self.terms.items()})

    def eval_var(self, name: str, value: int | Fraction) -> "Laurent":
        """Substitute a rational value, returning a Laurent in the remaining variables."""
        v = as_fraction(value)
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        terms: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] < 0 and v == 0:
                raise ZeroDivisionError("evaluating a negative power at 0")
            coeff = c * v ** e[i]
            key = e[:i] + e[i + 1:]
            s = terms.get(key, Fraction(0)) + coeff
            if s == 0:
                terms.pop(key, None)
            else:
                terms[key] = s
        return Laurent(rest, terms)

    def compress_var(self, name: str, m: int) -> "Laurent":
        """Substitute q^m -> q.  All exponents of ``name`` must be divisible by m."""
        i = self.vars.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] % m != 0:
                raise ValueError(f"exponent {e[i]} of {name} not divisible by {m}")
            terms[tuple(x // m if j == i else x for j, x in enumerate(e))] = c
        return Laurent(self.vars, terms)

    def rename_vars(self, new: tuple[str, ...]) -> "Laurent":
        if len(new) != len(self.vars):
            raise ValueError("variable count mismatch")
        return Laurent(new, dict(self.terms))

    def promote(self, new: tuple[str, ...]) -> "Laurent":
        """Embed into a larger variable tuple (old variables keep their names)."""
        pos = [new.index(v) for v in self.vars]
        terms = {}
        for e, c in self.terms.items():
            big = [0] * len(new)
            for p, x in zip(pos, e):
                big[p] = x
            terms[tuple(big)] = c
        return Laurent(new, terms)

    # -- inspection ---------------------------------------------------------

    def degree_range(self, name: str) -> tuple[int, int]:
        """(min, max) exponent of the named variable; (0, 0) for the zero polynomial."""
        i = self.vars.index(name)
        if not self.terms:
            return (0, 0)
        exps = [e[i] for e in self.terms]
        return (min(exps), max(exps))

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(name if x == 1 else f"{name}^{x}"
                            for name, x in zip(self.vars, e) if x != 0)
            if not mono:
                parts.append(fraction_to_str(c))
            elif abs(c) == 1:
                parts.append(mono if c == 1 else f"-{mono}")
            else:
                parts.append(f"{fraction_to_str(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


QVARS = ("q",)


def qlaurent(pairs: Iterable[tuple[int, int | Fraction]]) -> Laurent:
    """Convenience constructor for the univariate quantum ring Q[q, q^-1]."""
    return Laurent(QVARS, {(p,): as_fraction(c) for p, c in pairs})


# ---------------------------------------------------------------------------
# Truncated multivariate power series
# ---------------------------------------------------------------------------


class Series:
    """A power series in formal variables, truncated in total degree.

    Coefficients are Laurent polynomials in one variable tuple, the top of
    the tower; ``series_matmul``, behind every product, rejects any other.  A
    term whose exponents sum to more than ``order`` is discarded by every
    operation, so instances represent elements of R[[x]] / (x)^{order+1}
    with R a Laurent ring.
    """

    __slots__ = ("vars", "order", "terms")

    def __init__(self, variables: tuple[str, ...], order: int,
                 terms: Mapping[Exponents, object]):
        self.vars = variables
        self.order = order
        kept = {}
        for e, c in terms.items():
            if sum(e) > order:
                continue
            if is_zero(c):
                continue
            kept[e] = c
        self.terms = kept

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], order: int, terms: dict) -> "Series":
        """Wrap terms already known to be nonzero and within the order, without a copy."""
        x = object.__new__(cls)
        x.vars = variables
        x.order = order
        x.terms = terms
        return x

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: tuple[str, ...], order: int) -> "Series":
        return cls(variables, order, {})

    @classmethod
    def const(cls, variables: tuple[str, ...], order: int, value) -> "Series":
        return cls(variables, order, {(0,) * len(variables): value})

    @classmethod
    def gen(cls, variables: tuple[str, ...], order: int, name: str, one) -> "Series":
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, order, {exps: one})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "Series") -> None:
        if self.vars != other.vars or self.order != other.order:
            raise ValueError("series ring mismatch")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                s = terms[e] + c
                if is_zero(s):
                    del terms[e]
                else:
                    terms[e] = s
            else:
                terms[e] = c
        return Series(self.vars, self.order, terms)

    def __neg__(self):
        return Series._trusted(self.vars, self.order, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Laurent)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        return series_dot([(self, other)])

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Laurent)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            return self.scale(1 / c)
        return NotImplemented

    def scale(self, scalar) -> "Series":
        if isinstance(scalar, (int, Fraction)) and scalar == 0:
            return Series.zero(self.vars, self.order)
        return Series(self.vars, self.order,
                      {e: c * scalar for e, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.vars == other.vars and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, self.order, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------------

    def deriv(self, name: str) -> "Series":
        """Partial derivative in a formal series variable."""
        i = self.vars.index(name)
        terms: dict[Exponents, object] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            shifted = tuple(x - 1 if j == i else x for j, x in enumerate(e))
            terms[shifted] = c * e[i]
        return Series(self.vars, self.order, terms)

    def integrate(self, name: str) -> "Series":
        """Antiderivative in a formal variable, vanishing at 0.

        Raises if a term would land beyond the truncation order, since the
        information content would silently be wrong otherwise.
        """
        i = self.vars.index(name)
        terms: dict[Exponents, object] = {}
        for e, c in self.terms.items():
            if sum(e) + 1 > self.order:
                raise ValueError("integration exceeds truncation order")
            lifted = tuple(x + 1 if j == i else x for j, x in enumerate(e))
            terms[lifted] = c * Fraction(1, e[i] + 1)
        return Series(self.vars, self.order, terms)

    def map_coeffs(self, fn: Callable) -> "Series":
        """Apply a coefficient-ring map (e.g. the q-derivation) termwise."""
        return Series(self.vars, self.order, {e: fn(c) for e, c in self.terms.items()})

    # -- structure -----------------------------------------------------------

    def coeff(self, exps: Exponents):
        return self.terms.get(tuple(exps))

    def coeff_of_var(self, name: str, k: int) -> "Series":
        """The coefficient of name^k, as a series with that exponent zeroed."""
        i = self.vars.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == k:
                terms[tuple(0 if j == i else x for j, x in enumerate(e))] = c
        return Series._trusted(self.vars, self.order, terms)

    def times_var(self, name: str, k: int) -> "Series":
        i = self.vars.index(name)
        terms = {}
        for e, c in self.terms.items():
            lifted = tuple(x + k if j == i else x for j, x in enumerate(e))
            if sum(lifted) <= self.order:
                terms[lifted] = c
        return Series(self.vars, self.order, terms)

    def truncate(self, k: int, name: str | None = None) -> "Series":
        """Drop the terms of total degree above k, or of degree above k in ``name``."""
        if name is None:
            return Series._trusted(self.vars, self.order,
                                   {e: c for e, c in self.terms.items() if sum(e) <= k})
        i = self.vars.index(name)
        return Series._trusted(self.vars, self.order,
                               {e: c for e, c in self.terms.items() if e[i] <= k})

    def restrict_zero(self, names: Iterable[str]) -> "Series":
        """Set the named formal variables to 0."""
        idx = [self.vars.index(n) for n in names]
        terms = {e: c for e, c in self.terms.items() if all(e[i] == 0 for i in idx)}
        return Series._trusted(self.vars, self.order, terms)

    def promote(self, new_vars: tuple[str, ...], order: int) -> "Series":
        """Embed into a larger formal-variable tuple and/or truncation order."""
        pos = [new_vars.index(v) for v in self.vars]
        terms = {}
        for e, c in self.terms.items():
            big = [0] * len(new_vars)
            for p, x in zip(pos, e):
                big[p] = x
            terms[tuple(big)] = c
        return Series(new_vars, order, terms)

    def constant_slice(self):
        """The scalar at exponent 0, or None when absent."""
        return self.terms.get((0,) * len(self.vars))

    def sorted_terms(self) -> list[tuple[Exponents, object]]:
        return sorted(self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"{name}^{x}" if x > 1 else name
                            for name, x in zip(self.vars, e) if x != 0)
            cs = str(c)
            if "+" in cs or "-" in cs[1:]:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    __repr__ = __str__


def series_matmul(a_rows: Sequence[Sequence[Series]],
                  b_rows: Sequence[Sequence[Series]]) -> list[list[Series]]:
    """The rows of the matrix product A @ B of Series matrices of one ring.

    Every entry of A and B is checked once, zero partner or not: a series
    ring other than that of the first entry raises ValueError, a coefficient
    that is not a Laurent polynomial raises TypeError, and Laurent
    coefficients in differing variable tuples raise ValueError.  Each
    nonzero entry is flattened once into (degree, [(series and Laurent
    exponents, numerator, denominator)]) terms sorted by degree, so a left
    term of degree d meets the right terms up to ``order - d`` and stops.
    Output entry (i, j) visits only the k where A[i][k] and B[k][j] are both
    nonzero, accumulates integer numerator/denominator pairs on the flat
    exponent keys, and builds each coefficient once.
    """
    first = next(x for rows in (a_rows, b_rows) for r in rows for x in r)
    svars, order = first.vars, first.order
    ns = len(svars)
    for rows in (a_rows, b_rows):
        for r in rows:
            for x in r:
                if x.vars != svars or x.order != order:
                    raise ValueError("series ring mismatch")
    qvars = None

    def flat(x: Series) -> list:
        nonlocal qvars
        out = []
        for e, c in x.terms.items():
            if type(c) is not Laurent:
                raise TypeError(f"Series products need Laurent coefficients, got {type(c).__name__}")
            if c.vars != qvars:
                if qvars is not None:
                    raise ValueError(f"variable mismatch: {qvars} vs {c.vars}")
                qvars = c.vars
            out.append((sum(e), [(e + k, f.numerator, f.denominator)
                                 for k, f in c.terms.items()]))
        out.sort(key=itemgetter(0))
        return out

    left = [[(k, flat(x)) for k, x in enumerate(r) if x.terms] for r in a_rows]
    right = [{} for _ in b_rows[0]]
    for k, r in enumerate(b_rows):
        for j, x in enumerate(r):
            if x.terms:
                right[j][k] = flat(x)
    out = []
    for row in left:
        out_row = []
        for col in right:
            acc: dict = {}
            for k, a in row:
                b = col.get(k)
                if b is None:
                    continue
                for d1, c1 in a:
                    room = order - d1
                    for d2, c2 in b:
                        if d2 > room:
                            break
                        for k1, n1, den1 in c1:
                            for k2, n2, den2 in c2:
                                key = tuple(map(add, k1, k2))
                                n, den = n1 * n2, den1 * den2
                                cur = acc.get(key)
                                if cur is None:
                                    acc[key] = [n, den]
                                elif cur[1] == den:
                                    cur[0] += n
                                else:
                                    m = lcm(cur[1], den)
                                    cur[0] = cur[0] * (m // cur[1]) + n * (m // den)
                                    cur[1] = m
            grouped: dict[Exponents, dict] = {}
            for ek, (n, den) in acc.items():
                if n:
                    grouped.setdefault(ek[:ns], {})[ek[ns:]] = \
                        Fraction(n) if den == 1 else Fraction(n, den)
            out_row.append(Series._trusted(svars, order, {
                e: Laurent._trusted(qvars, t) for e, t in grouped.items()}))
        out.append(out_row)
    return out


def series_dot(pairs: Sequence[tuple[Series, Series]]) -> Series:
    """The sum of a * b over (Series, Series) pairs of one ring.

    It is the 1 x n by n x 1 case of ``series_matmul``, checks included.
    """
    return series_matmul([[a for a, _ in pairs]], [[b] for _, b in pairs])[0][0]


def laurent_dot(pairs: Sequence[tuple[Laurent, Laurent]]) -> Laurent:
    """The sum of a * b over (Laurent, Laurent) pairs of one ring, built once.

    The products of terms accumulate on exponent keys, so a pair with a zero
    operand costs nothing and no intermediate Laurent is built.  Differing
    variable tuples raise ValueError.
    """
    variables = pairs[0][0].vars
    acc: dict = {}
    for a, b in pairs:
        if a.vars != variables or b.vars != variables:
            other = b.vars if a.vars == variables else a.vars
            raise ValueError(f"variable mismatch: {variables} vs {other}")
        for k1, c1 in a.terms.items():
            for k2, c2 in b.terms.items():
                key = tuple(map(add, k1, k2))
                acc[key] = acc.get(key, 0) + c1 * c2
    return Laurent(variables, acc)


def is_zero(value) -> bool:
    """Zero test for any scalar of the tower, rationals included."""
    if isinstance(value, (int, Fraction)):
        return value == 0
    return value.is_zero()
