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

A ``Series`` is a positive integer denominator and a dict from one packed
integer key per monomial (its exponents as 16-bit digits, total degree on
top) to a nonzero integer numerator, in lowest terms, so every ``Series``
operation is integer arithmetic; the tuple-keyed views ``Series.terms`` and
``Series.flat`` are built on demand for the document encoder, the potential
and printing, ``Series.sorted_numerators`` gives the family text writer its
integer terms, and ``Series.from_ratios`` packs decoded integer ratios directly.
Every ``Series`` product, a single ``a * b``, a ``series_dot``, a whole
``Series`` matrix product or a signed sum of matrix products plus an addend
(a residual C - A B, a commutator A B - B A), goes through one matrix-level
kernel, ``series_matmul``: each operand's terms are sorted by key once and
memoised on it (a series is never mutated), zero entries are skipped
structurally, and each output entry accumulates integers over one
denominator on packed keys, across all the products, and is reduced once.
Every ``Laurent`` product, a single ``a * b`` or
an entry of a ``Laurent`` matrix product, goes through ``laurent_dot``:
pairs with a zero operand are skipped and the result is built once, with no
intermediate ``Laurent`` products or sums.

No floating point is used anywhere; all arithmetic is exact.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd, lcm
from operator import add, lshift
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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


def ratio_from_str(text: str | int) -> tuple[int, int]:
    """(numerator, positive denominator), not reduced, of what ``fraction_from_str`` reads."""
    if type(text) is not int and not isinstance(text, str):
        raise ValueError(f"expected a rational string or an integer, got {text!r}")
    num, slash, den = str(text).partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
        d = int(den) if slash else 1
        if d:  # the plain "num/den" form, read without Fraction's parser
            return int(num), d
    try:
        f = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    return f.numerator, f.denominator


def fraction_from_str(text: str | int) -> Fraction:
    """Read a "num/den" string or an integer; anything else raises ValueError."""
    return Fraction(*ratio_from_str(text))


def json_field(doc: dict, key: str, name: str | None = None):
    """doc[key]; a missing key raises a ValueError naming the field."""
    if key not in doc:
        raise ValueError(f"missing field {name or key}")
    return doc[key]


def json_text(doc) -> str:
    """A JSON writer: ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``.

    Byte for byte the same text, without the stdlib's pure-Python indenting
    encoder; ``QLRTable.to_json_text`` writes Grassmann tables.  Only dicts
    with ``str`` keys, lists, tuples, ints, strings, booleans and None are
    written; anything else, a float or a Fraction included, raises TypeError.
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
    def gen(cls, variables: tuple[str, ...], name: str, power: int = 1) -> "Laurent":
        i = variables.index(name)
        exps = tuple(power if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exps: Fraction(1)})

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


# -- packed monomial keys ------------------------------------------------------

_BITS = 16
_MASK = (1 << _BITS) - 1
_BIAS = 1 << (_BITS - 1)
KEY_LIMIT = _BIAS - 1  # the largest |Laurent exponent| and the largest Series order


@lru_cache(maxsize=None)
def _layout(ns: int, nq: int) -> tuple[struct.Struct, int, int]:
    """(digit codec, packed zero Z, shift of the degree digit) of ns + nq exponents."""
    zero = sum(_BIAS << (_BITS * (ns + j)) for j in range(nq))
    return struct.Struct(f"<{ns + nq + 1}H"), zero, _BITS * (ns + nq)


def _pack(ns: int, nq: int, e: Exponents, k: Exponents) -> int:
    """The key of q^k t^e: e, then k biased by 2^15, then sum(e), one 16-bit digit each."""
    if len(e) != ns or len(k) != nq:
        raise ValueError(f"expected {ns} series and {nq} Laurent exponents, got {e} and {k}")
    degree = sum(e)
    if e and min(e) < 0 or degree > KEY_LIMIT:
        raise ValueError(f"series exponents {list(e)} are outside 0..{KEY_LIMIT}")
    if k and (min(k) < -KEY_LIMIT or max(k) > KEY_LIMIT):
        raise ValueError(f"Laurent exponents {list(k)} are past the Series key limit {KEY_LIMIT}")
    return int.from_bytes(_layout(ns, nq)[0].pack(*e, *[x + _BIAS for x in k], degree), "little")


def _packed(ns: int, nq: int, order: int,
            items: Sequence[tuple[Exponents, Mapping[Exponents, tuple[int, int]]]]
            ) -> tuple[int, dict]:
    """(den, num) of the terms (n/d) q^k t^e, from [(e, {k: (n, d)})] with 0 < d.

    Terms past ``order`` and zero numerators are dropped.  den is the lcm of
    the denominators; when every kept n/d is in lowest terms, the numerators
    have gcd 1 with it.  Keys are those of ``_pack``, summed digit by digit:
    e once per term, then each k; an exponent that ``_pack`` rejects raises
    its error.
    """
    den = lcm(*[d for _, t in items for _, d in t.values()])
    _, zero, shift = _layout(ns, nq)
    eshifts = range(0, _BITS * ns, _BITS)
    kshifts = range(_BITS * ns, shift, _BITS)
    num = {}
    for e, t in items:
        degree = sum(e)
        if degree > order:
            continue
        if len(e) != ns or e and min(e) < 0:
            _pack(ns, nq, e, (0,) * nq)  # raises
        base = sum(map(lshift, e, eshifts)) + zero + (degree << shift)
        for k, (n, d) in t.items():
            if not n:
                continue
            if k and (min(k) < -KEY_LIMIT or max(k) > KEY_LIMIT):
                _pack(ns, nq, e, k)  # raises
            num[base + sum(map(lshift, k, kshifts))] = n * (den // d)
    return den, num


def _check_order(order: int) -> None:
    if order > KEY_LIMIT:
        raise ValueError(f"a Series order is at most {KEY_LIMIT}, got {order}")


class Series:
    """A power series in formal variables, truncated in total degree.

    Coefficients are Laurent polynomials in one variable tuple ``qvars``, the
    top of the tower; a coefficient of any other kind raises TypeError at
    construction.  A series is a positive integer ``den`` and a dict ``num``
    from packed monomial keys to nonzero integer numerators, kept in lowest
    terms (gcd(den, every numerator) = 1), so ``==`` and ``hash`` are
    structural.  A term with sum(e) > ``order`` is discarded by every
    operation, so instances represent elements of R[[x]] / (x)^{order+1}
    with R a Laurent ring.  The zero series has no Laurent ring (``qvars`` is
    None) and takes the ring of the other operand.  Instances are never
    mutated.

    The key of q^k t^e has 16-bit digits, least significant first: e_1 ..
    e_ns, then k_j + 2^15 for each Laurent variable, then sum(e).  A series
    order is at most ``KEY_LIMIT``, which bounds every series digit, and a
    Laurent exponent at most ``KEY_LIMIT`` in absolute value, so no digit
    carries into the next; a construction, product or derivation that would
    leave these bounds raises ValueError.
    """

    __slots__ = ("vars", "order", "qvars", "den", "num", "_terms", "_prep")

    def __init__(self, variables: tuple[str, ...], order: int,
                 terms: Mapping[Exponents, Laurent]):
        _check_order(order)
        qvars, items = None, []
        for e, c in terms.items():
            if type(c) is not Laurent:
                raise TypeError(f"Series needs Laurent coefficients, got {type(c).__name__}")
            if sum(e) > order or not c.terms:
                continue
            if c.vars != qvars:
                if qvars is not None:
                    raise ValueError(f"variable mismatch: {qvars} vs {c.vars}")
                qvars = c.vars
            items.append((e, {k: (f.numerator, f.denominator) for k, f in c.terms.items()}))
        den, num = _packed(len(variables), len(qvars), order, items) if items else (1, {})
        self.vars, self.order, self.qvars, self.den, self.num = variables, order, qvars, den, num
        self._terms = self._prep = None

    @classmethod
    def _reduced(cls, variables: tuple[str, ...], order: int, qvars, den: int,
                 num: dict) -> "Series":
        """Wrap nonzero numerators over den, without a copy, divided to lowest terms."""
        if not num:
            qvars, den = None, 1
        elif den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {key: n // g for key, n in num.items()}
        x = object.__new__(cls)
        x.vars, x.order, x.qvars, x.den, x.num = variables, order, qvars, den, num
        x._terms = x._prep = None
        return x

    def _like(self, num: dict, den: int | None = None) -> "Series":
        return Series._reduced(self.vars, self.order, self.qvars,
                               self.den if den is None else den, num)

    def _shift(self) -> int:
        """The bit position of the degree digit."""
        return _BITS * (len(self.vars) + len(self.qvars or ()))

    def _unpacked(self):
        """(series exponents, Laurent exponents, Fraction coefficient) of each term."""
        den = self.den
        for e, k, n in self.sorted_numerators():
            yield e, k, Fraction(n) if den == 1 else Fraction(n, den)

    def sorted_numerators(self) -> list[tuple[Exponents, Exponents, int]]:
        """(e, k, numerator over ``den``) of each term q^k t^e, sorted by (e, k)."""
        ns = len(self.vars)
        codec = _layout(ns, len(self.qvars or ()))[0]
        unpack, size = codec.unpack, codec.size
        # the digits are e, then k + 2^15, then sum(e), so they sort by (e, k)
        digits = sorted([(unpack(key.to_bytes(size, "little")), n) for key, n in self.num.items()])
        return [(d[:ns], tuple([x - _BIAS for x in d[ns:-1]]), n) for d, n in digits]

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: tuple[str, ...], order: int) -> "Series":
        return cls(variables, order, {})

    @classmethod
    def const(cls, variables: tuple[str, ...], order: int, value) -> "Series":
        return cls(variables, order, {(0,) * len(variables): value})

    @classmethod
    def from_ratios(cls, variables: tuple[str, ...], order: int, qvars: tuple[str, ...],
                    terms: Sequence[tuple[Exponents, Mapping[Exponents, tuple[int, int]]]]
                    ) -> "Series":
        """The series with coefficient sum_k (n_k/d_k) q^k at t^e, from [(e, {k: (n_k, d_k)})].

        What ``Series(variables, order, {e: Laurent(qvars, ...)})`` builds, with
        the same checks, but packed straight from integer ratios (d_k > 0, not
        necessarily reduced): zero numerators and terms past the order are
        dropped, and the result is reduced once.
        """
        _check_order(order)
        den, num = _packed(len(variables), len(qvars), order, terms)
        return cls._reduced(variables, order, qvars, den, num)

    @classmethod
    def gen(cls, variables: tuple[str, ...], order: int, name: str, one) -> "Series":
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, order, {exps: one})

    # -- tuple-keyed views ----------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Laurent]:
        """The read-only view {series exponents: Laurent coefficient}, built once."""
        if self._terms is None:
            grouped = {}
            for e, k, c in self._unpacked():
                grouped.setdefault(e, {})[k] = c
            self._terms = MappingProxyType(
                {e: Laurent._trusted(self.qvars, t) for e, t in grouped.items()})
        return self._terms

    @property
    def flat(self) -> dict[Exponents, Fraction]:
        """A new dict {series exponents + Laurent exponents: coefficient}."""
        return {e + k: c for e, k, c in self._unpacked()}

    def _prepared(self) -> tuple[int, list, list]:
        """(den, [(key, numerator)] sorted by key, so by degree, [(min, max) exponent]).

        The last entry holds the range of each Laurent variable's exponents.
        Memoised: it is the form in which ``series_matmul`` reads an operand.
        """
        if self._prep is None:
            ns, ranges = len(self.vars), []
            for j in range(len(self.qvars or ())):
                digits = [(key >> (_BITS * (ns + j))) & _MASK for key in self.num]
                ranges.append((min(digits) - _BIAS, max(digits) - _BIAS))
            self._prep = (self.den, sorted(self.num.items()), ranges)
        return self._prep

    def is_zero(self) -> bool:
        return not self.num

    # -- ring operations -----------------------------------------------------

    def _sum(self, other: "Series", negate: bool) -> "Series":
        if self.vars != other.vars or self.order != other.order:
            raise ValueError("series ring mismatch")
        if not other.num:
            return self
        if not self.num:
            return -other if negate else other
        if other.qvars != self.qvars:
            raise ValueError(f"variable mismatch: {self.qvars} vs {other.qvars}")
        den = lcm(self.den, other.den)
        f1, f2 = den // self.den, den // other.den
        num = dict(self.num) if f1 == 1 else {key: n * f1 for key, n in self.num.items()}
        if negate:
            f2 = -f2
        get = num.get
        for key, n in other.num.items():
            n *= f2
            s = get(key)
            if s is None:
                num[key] = n
            elif s + n:
                num[key] = s + n
            else:
                del num[key]
        return self._like(num, den)

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self._sum(other, False)

    def __neg__(self):
        return self._like({key: -n for key, n in self.num.items()})

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self._sum(other, True)

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

    def scale(self, scalar) -> "Series":
        """Multiply every coefficient by a rational or a Laurent polynomial."""
        if not isinstance(scalar, Laurent):
            c0 = as_fraction(scalar)
            p = c0.numerator
            return self._like({key: n * p for key, n in self.num.items()} if p else {},
                              self.den * c0.denominator)
        if self.num and scalar.vars != self.qvars:
            raise ValueError(f"variable mismatch: {self.qvars} vs {scalar.vars}")
        return series_dot([(self, Series.const(self.vars, self.order, scalar))])

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.vars == other.vars and self.order == other.order
                and self.qvars == other.qvars and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.vars, self.order, self.qvars, self.den,
                     frozenset(self.num.items())))

    # -- calculus ------------------------------------------------------------

    def _deriv(self, s: int, bias: int, step: int) -> "Series":
        """Multiply each term by its digit at bit s less bias, and lower its key by step."""
        num = {}
        for key, n in self.num.items():
            p = ((key >> s) & _MASK) - bias
            if p:
                num[key - step] = n * p
        return self._like(num)

    def deriv(self, name: str) -> "Series":
        """Partial derivative in a formal series variable."""
        s = _BITS * self.vars.index(name)
        return self._deriv(s, 0, (1 << s) + (1 << self._shift()))

    def log_deriv(self, name: str) -> "Series":
        """q * d/dq of the coefficients in the Laurent variable ``name``; no key moves."""
        if not self.num:
            return self
        return self._deriv(_BITS * (len(self.vars) + self.qvars.index(name)), _BIAS, 0)

    # -- structure -----------------------------------------------------------

    def coeff(self, exps: Exponents):
        return self.terms.get(tuple(exps))

    def coeff_of_var(self, name: str, k: int) -> "Series":
        """The coefficient of name^k, as a series with that exponent zeroed."""
        s = _BITS * self.vars.index(name)
        step = k * ((1 << s) + (1 << self._shift()))
        return self._like({key - step: n for key, n in self.num.items()
                           if (key >> s) & _MASK == k})

    def times_var(self, name: str, k: int) -> "Series":
        s, shift = _BITS * self.vars.index(name), self._shift()
        room, step = (self.order - k + 1) << shift, k * ((1 << s) + (1 << shift))
        return self._like({key + step: n for key, n in self.num.items() if key < room})

    def truncate(self, k: int) -> "Series":
        """Drop the terms of total degree above k."""
        room = (k + 1) << self._shift()
        return self._like({key: n for key, n in self.num.items() if key < room})

    def restrict_zero(self, names: Iterable[str]) -> "Series":
        """Set the named formal variables to 0."""
        mask = sum(_MASK << (_BITS * self.vars.index(n)) for n in names)
        return self._like({key: n for key, n in self.num.items() if not key & mask})

    def promote(self, new_vars: tuple[str, ...], order: int,
                qvars: tuple[str, ...] | None = None) -> "Series":
        """Embed into a larger formal-variable tuple and/or truncation order.

        With ``qvars``, each coefficient is embedded into that larger Laurent
        variable tuple by ``Laurent.promote``.
        """
        _check_order(order)
        if qvars is None:
            qvars = self.qvars
        if new_vars == self.vars and qvars == self.qvars:
            room = (order + 1) << self._shift()
            return Series._reduced(new_vars, order, qvars, self.den,
                                   {key: n for key, n in self.num.items() if key < room})
        pos = [new_vars.index(v) for v in self.vars]

        def embed(e):
            big = [0] * len(new_vars)
            for p, x in zip(pos, e):
                big[p] = x
            return tuple(big)

        return Series(new_vars, order,
                      {embed(e): c.promote(qvars) for e, c in self.terms.items()})

    def constant_slice(self):
        """The Laurent coefficient at exponent 0, or None when absent."""
        x = self.truncate(0)
        t = {k: c for _, k, c in x._unpacked()}
        return Laurent._trusted(self.qvars, t) if t else None

    def sorted_terms(self) -> list[tuple[Exponents, Laurent]]:
        return sorted(self.terms.items())

    def __str__(self):
        if not self.num:
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


def series_matmul(products: Sequence[tuple[int, Sequence[Sequence[Series]],
                                            Sequence[Sequence[Series]]]],
                  addend: Sequence[Sequence[Series]] | None = None) -> list[list[Series]]:
    """The rows of the sum of sign * A @ B over (sign, A, B), plus addend C when given.

    The one kernel behind every ``Series`` product: a matrix product is a sum
    of one term, and a residual C - A B or a commutator A B - B A is one pass.
    A sign is 1 or -1, the operands are row sequences of Series matrices of
    one ring and the shapes agree.  Every entry of every operand is checked,
    zero partner or not: a series ring other than that of the first entry
    raises ValueError, and so do nonzero entries over differing Laurent
    variable tuples.  Each nonzero operand is read in its memoised prepared
    form (``Series._prepared``): its terms sorted by packed key, hence by
    degree; a matrix that appears in several terms is prepared once.  The
    key of a product of terms is k1 + k2 - Z, with Z the packed zero of the
    ring, and it is past the truncation order exactly when it reaches
    (order + 1) << degree shift, so a left term meets the right terms up to
    that bound and stops.  A pair whose smallest or largest exponents of one
    Laurent variable sum past ``KEY_LIMIT`` in absolute value raises
    ValueError instead of wrapping a digit.  Output entry (i, j) visits only
    the pairs where A[i][k] and B[k][j] are both nonzero, across all terms,
    accumulates integers over one denominator on the packed keys, starting
    from C[i][j], and is reduced once.
    """
    first = products[0][1][0][0]
    svars, order = first.vars, first.order
    qvars = None

    def prepared(x: Series):
        """The prepared form of a nonzero entry, None for zero; checks the ring."""
        nonlocal qvars
        if x.vars != svars or x.order != order:
            raise ValueError("series ring mismatch")
        if not x.num:
            return None
        if x.qvars != qvars:
            if qvars is not None:
                raise ValueError(f"variable mismatch: {qvars} vs {x.qvars}")
            qvars = x.qvars
        return x._prep or x._prepared()

    # each row of a left operand and each column of a right one, once per matrix
    lefts: dict = {}
    rights: dict = {}
    terms = []
    for sign, a_rows, b_rows in products:
        left = lefts.get(id(a_rows))
        if left is None:
            left = lefts[id(a_rows)] = [[(k, p) for k, x in enumerate(r) if (p := prepared(x))]
                                        for r in a_rows]
        right = rights.get(id(b_rows))
        if right is None:
            right = rights[id(b_rows)] = [{} for _ in b_rows[0]]
            for k, r in enumerate(b_rows):
                for j, x in enumerate(r):
                    if p := prepared(x):
                        right[j][k] = p
        terms.append((sign, left, right))
    extra = None if addend is None else [[prepared(x) for x in r] for r in addend]
    _, zero, shift = _layout(len(svars), len(qvars or ()))
    limit = ((order + 1) << shift) + zero
    nil = Series._reduced(svars, order, None, 1, {})
    out = []
    for i in range(len(products[0][1])):
        out_row = []
        for j in range(len(terms[0][2])):
            pairs = [(sign, a, b) for sign, left, right in terms
                     for k, a in left[i] if (b := right[j].get(k)) is not None]
            c = extra and extra[i][j]
            if not pairs and not c:
                out_row.append(nil)
                continue
            den = lcm(*[a[0] * b[0] for _, a, b in pairs], c[0] if c else 1)
            acc: dict = {}
            if c:  # the addend's entry, over the common denominator
                f = den // c[0]
                acc = {key: n * f for key, n in c[1]}
            get = acc.get
            for sign, (da, ta, ma), (db, tb, mb) in pairs:
                for (lo1, hi1), (lo2, hi2) in zip(ma, mb):
                    if lo1 + lo2 < -KEY_LIMIT or hi1 + hi2 > KEY_LIMIT:
                        raise ValueError(f"Laurent exponents in {lo1}..{hi1} and {lo2}..{hi2} "
                                         f"multiply past the Series key limit {KEY_LIMIT}")
                f = sign * (den // (da * db))
                for k1, n1 in ta:
                    room = limit - k1  # k1 + k2 - Z is within the order iff k2 < room
                    k1 -= zero
                    n1 *= f
                    for k2, n2 in tb:
                        if k2 >= room:
                            break
                        key = k1 + k2
                        acc[key] = get(key, 0) + n1 * n2
            out_row.append(Series._reduced(svars, order, qvars, den,
                                           {key: n for key, n in acc.items() if n}))
        out.append(out_row)
    return out


def series_dot(pairs: Sequence[tuple[Series, Series]]) -> Series:
    """The sum of a * b over (Series, Series) pairs of one ring.

    It is the 1 x n by n x 1 case of ``series_matmul``, checks included.
    """
    return series_matmul([(1, [[a for a, _ in pairs]], [[b] for _, b in pairs])])[0][0]


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
