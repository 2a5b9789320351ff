"""Sparse, exact-rational, degree-truncated symmetric-function series.

A :class:`SymFunc` is a finite map from partitions to nonzero rationals,
tagged with one of the classical bases (m, e, h, p, s) and a truncation
degree N.  It stands for its series modulo terms of total degree > N, where
the variable indexed by k carries degree k; every operation propagates the
minimum N of its inputs.  Coefficients are ``fractions.Fraction`` values,
so everything is exact and canonical (lowest terms, positive denominator).
``terms`` is always the kernels' read-only integer form
``_kernels.IntTerms``: integer numerators over one reduced denominator,
fixed when the value is built and owned by it.  Kernels, comparisons,
arithmetic, ``truncate``, ``graded_component`` and JSON output and input
work on the numerators, so a chain of them builds no ``Fraction``; a
coefficient read builds one.  Operations return new values, and a
value's fields are read-only, so a shared or memoized series cannot be
changed through them.

Validation happens once, at the boundary, one owner per rule.  The
public constructor, the ``zero`` / ``one`` / ``single`` builders and
``from_json`` check every key and coefficient once, through one builder
(``_checked_terms``), which also builds the reduced ``IntTerms``; an
integer argument is checked by ``partitions._natural``, and the input of
exp or of a plethysm's g by ``_constant_free_p``.  The constructor takes
an ``int`` or a ``Fraction`` per coefficient, or an ``IntTerms`` read by
its numerators; ``from_json`` reads a JSON integer or a rational string
to a numerator and a denominator by one regex match; neither builds a
``Fraction``.  Every value then meets the invariant: ``terms`` an
``IntTerms`` with ``Partition`` keys, nonzero numerators, a positive
denominator in lowest terms with them, and weights at most the degree.
Operations on values that meet it build their results through the
trusted ``_of``, which only assigns fields; so every producer of terms
(the kernels and the conversion tables included) emits that form itself.

The five value classes of the package (``SymFunc``, ``Discrepancy``,
``VerificationReport``, ``UnivariateFactor``, ``FactorizedSeries``) share
one private base, ``_Value``, which derives their equality, hash, repr and
read-only fields from ``__slots__``; ``SymFunc`` keeps its own short repr
and, like ``FactorizedSeries``, has no hash.

JSON output is one sorted list of (partition, canonical coefficient
string) pairs, each string made from a numerator with one gcd.
``to_json_dict`` wraps those pairs in dicts, and ``to_json`` writes them
as text in the fixed layout of ``json.dumps(..., indent=2)``, byte for
byte, without building the dicts.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

from symkron import _kernels as kernels
from symkron._kernels import IntTerms
from symkron.partitions import Partition, _natural

BASES = ("m", "e", "h", "p", "s")
MULTIPLICATIVE_BASES = ("e", "h", "p")

_ZERO = Fraction(0)

#: The coefficient strings ``to_json_dict`` writes; JSON input must match.
#: The groups are the numerator and the denominator, if any.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class BasisError(ValueError):
    """An operation was applied to an unsupported or mismatched basis."""


def _exact(c) -> Fraction:
    """c as a Fraction; only an int (not a bool) or a Fraction is exact."""
    if isinstance(c, Fraction):
        return c
    if type(c) is int:  # bool is an int subclass
        return Fraction(c)
    kind = "floats" if isinstance(c, float) else type(c).__name__
    raise TypeError(f"coefficients must be exact rationals (int or Fraction), not {kind}")


def _ratio(c) -> tuple[int, int]:
    """(numerator, denominator) of c in lowest terms; c as in ``_exact``."""
    if type(c) is int:
        return c, 1
    c = _exact(c)
    return c.numerator, c.denominator


def _checked_terms(basis: str, degree: int, items, ratio=None) -> IntTerms:
    """The boundary's checks, each run once, and the reduced integer form.

    Checks the basis and the degree, then each (partition, coefficient) of
    ``items`` in turn: the partition (validated unless it is a
    ``Partition`` already), that it appears once, the coefficient, and,
    when it is nonzero, that the partition's weight is at most the
    degree.  A coefficient is a (numerator, denominator) pair with the
    denominator positive, or whatever ``ratio`` turns into one.  The
    result, over the lcm of the denominators, is reduced: either each pair
    is in lowest terms, and a prime dividing the lcm divides some
    denominator as often, so neither that term's numerator nor its scale
    factor; or the pairs are an ``IntTerms``, reduced as a whole, over its
    one denominator, which is then the lcm.
    """
    if basis not in BASES:
        raise BasisError(f"unknown basis {basis!r}; expected one of {BASES}")
    _natural(degree, "truncation degree")
    terms: dict[Partition, tuple[int, int]] = {}
    for lam, c in items:
        if not isinstance(lam, Partition):
            lam = Partition(lam)
        if lam in terms:
            raise ValueError(f"partition {list(lam)} appears twice")
        n, d = terms[lam] = c if ratio is None else ratio(c)
        if n and sum(lam) > degree:
            raise ValueError(f"term {lam!r} exceeds truncation degree {degree}")
    den = lcm(*[d for _, d in terms.values()])
    return IntTerms({lam: n * (den // d) for lam, (n, d) in terms.items() if n}, den)


def _select(terms: IntTerms, keep) -> IntTerms:
    """The reduced form of the terms whose weight w has keep(w), read from
    the numerators."""
    return IntTerms.reduced({k: v for k, v in terms.nums.items() if keep(k.weight)}, terms.den)


def term_order(lam) -> tuple:
    """Sort key for term listings: weight first, then lexicographic."""
    return (sum(lam), tuple(lam))


class _Value:
    """The base of the value classes: the fields are the subclass's
    ``__slots__``, set once by ``__init__`` in that order and read-only
    after; equality is class-exact over the fields, the hash is theirs, the
    repr is ``Name(field=value, ...)``, and copy and pickle rebuild a value
    from its fields."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        # copy and pickle rebuild through __init__: their default assigns
        # each slot, which the guards below refuse.
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class SymFunc(_Value):
    """A basis-tagged sparse series truncated at total degree ``degree``.
    Equal when all three fields are; unhashable, as a series is a map."""

    __slots__ = ("basis", "terms", "degree")

    def __init__(self, basis: str, terms, degree: int):
        items, ratio = terms, _ratio
        if type(terms) is IntTerms:
            items, ratio = terms.nums.items(), lambda n: (n, terms.den)
        elif isinstance(terms, Mapping):
            items = terms.items()
        _Value.__init__(self, basis, _checked_terms(basis, degree, items, ratio), degree)

    @classmethod
    def _of(cls, basis: str, terms: IntTerms, degree: int) -> "SymFunc":
        """Trusted constructor: assigns the fields without checking them.

        Only for terms that already meet the invariant (a reduced
        ``IntTerms`` with ``Partition`` keys and weights at most
        ``degree``), such as the results of operations on valid values and
        of the kernels.
        """
        f = object.__new__(cls)
        _Value.__init__(f, basis, terms, degree)
        return f

    # ------------------------------------------------------------ builders

    @classmethod
    def zero(cls, basis: str, degree: int) -> "SymFunc":
        return cls(basis, {}, degree)

    @classmethod
    def one(cls, basis: str, degree: int) -> "SymFunc":
        return cls(basis, {(): 1}, degree)

    @classmethod
    def single(cls, basis: str, lam, degree: int, coeff=1) -> "SymFunc":
        """The single term coeff * basis_lam."""
        return cls(basis, {Partition(lam): coeff}, degree)

    # ------------------------------------------------------------- queries

    def coefficient(self, lam) -> Fraction:
        """Coefficient of the given partition (0 if absent); lam that is not
        a ``Partition`` is validated as one first (ValueError otherwise)."""
        return self.terms.get(lam if type(lam) is Partition else Partition(lam), _ZERO)

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient(Partition())

    def is_zero(self) -> bool:
        return not self.terms

    def weights(self) -> list[int]:
        """Weights that carry at least one term, ascending."""
        return sorted({lam.weight for lam in self.terms})

    __hash__ = None

    def __repr__(self) -> str:
        return f"SymFunc({self.basis!r}, degree={self.degree}, {len(self.terms)} terms)"

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ---------------------------------------------------------- arithmetic

    def _check_basis(self, other: "SymFunc") -> None:
        if self.basis != other.basis:
            raise BasisError(
                f"basis mismatch: {self.basis!r} vs {other.basis!r} "
                "(convert explicitly; there is no implicit conversion)"
            )

    def _sum(self, other: "SymFunc", sign: int) -> "SymFunc":
        """self + sign * other, both cut to the smaller degree."""
        self._check_basis(other)
        degree = min(self.degree, other.degree)
        rows = [(1, self.truncate(degree).terms), (sign, other.truncate(degree).terms)]
        return SymFunc._of(self.basis, kernels.sum_terms(rows), degree)

    def __add__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self._sum(other, 1)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self._sum(other, -1)

    def scale(self, c) -> "SymFunc":
        """Multiply every coefficient by the rational c."""
        c = _exact(c)
        return SymFunc._of(self.basis, kernels.sum_terms([(c.numerator, self.terms)],
                                                         c.denominator), self.degree)

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            self._check_basis(other)
            if self.basis not in MULTIPLICATIVE_BASES:
                raise BasisError(
                    f"product is defined on the multiplicative bases {MULTIPLICATIVE_BASES}; "
                    f"convert {self.basis!r} inputs to p first"
                )
            degree = min(self.degree, other.degree)
            return SymFunc._of(self.basis, kernels.mul_terms(self.terms, other.terms, degree),
                               degree)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    # ---------------------------------------------------------- truncation

    def truncate(self, d: int) -> "SymFunc":
        """Drop terms of weight > d and set the truncation degree to d.

        d may not exceed the current truncation degree: terms beyond it are
        unknown, not zero.
        """
        if _natural(d, "truncation degree") > self.degree:
            raise ValueError(f"cannot raise truncation degree from {self.degree} to {d}")
        if d == self.degree:
            return self
        return SymFunc._of(self.basis, _select(self.terms, lambda w: w <= d), d)

    def graded_component(self, n: int) -> "SymFunc":
        """The homogeneous slice of weight exactly n (degree tag unchanged)."""
        if type(n) is not int or not 0 <= n <= self.degree:  # bool is an int subclass
            raise ValueError(f"weight must be a non-negative integer <= {self.degree}: {n!r}")
        return SymFunc._of(self.basis, _select(self.terms, lambda w: w == n), self.degree)

    # ------------------------------------------------------------- JSON IO

    def _json_terms(self) -> list[tuple[Partition, str]]:
        """(partition, coefficient string) of each term, sorted by (weight,
        lex); the string is canonical ("3", "-1/2"), read from the
        numerator with one gcd."""
        nums, den = self.terms.nums, self.terms.den
        out = []
        for lam in sorted(nums, key=term_order):
            n = nums[lam]
            g = gcd(n, den)
            d = den // g
            out.append((lam, str(n // g) if d == 1 else f"{n // g}/{d}"))
        return out

    def to_json_dict(self) -> dict:
        """Deterministic JSON form: terms sorted by (weight, lex), canonical
        rational strings ("3", "-1/2")."""
        return {
            "basis": self.basis,
            "degree": self.degree,
            "terms": [{"partition": list(lam), "coefficient": text}
                      for lam, text in self._json_terms()],
        }

    def to_json(self) -> str:
        """The text of ``json.dumps(self.to_json_dict(), indent=2)``,
        written directly in that fixed layout."""
        rows = []
        for lam, text in self._json_terms():
            if lam:
                parts = ",\n        ".join(map(str, lam))
                partition = f"[\n        {parts}\n      ]"
            else:
                partition = "[]"
            rows.append(f'    {{\n      "partition": {partition},\n'
                        f'      "coefficient": "{text}"\n    }}')
        terms = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        return (f'{{\n  "basis": "{self.basis}",\n  "degree": {self.degree},\n'
                f'  "terms": {terms}\n}}')

    @classmethod
    def from_json_dict(cls, data: dict) -> "SymFunc":
        """Inverse of :meth:`to_json_dict`.  Coefficients must be JSON
        integers or rational strings such as "-1/2": a JSON float is already
        inexact when parsed, and a string like "1e100000000" would take
        unbounded time to expand, so both are rejected rather than
        converted.  Each partition may appear once.

        Each coefficient is read straight to an integer numerator and
        denominator (one regex match) and checked; the constructor's checks
        (``_checked_terms``) build the integer form from those pairs, so no
        ``Fraction`` is made.  Every rejection is a ValueError whose message
        starts with "malformed series JSON:"."""
        try:
            basis = data["basis"]
            degree = data["degree"]
            items = []
            for t in data["terms"]:
                lam = tuple(t["partition"])
                c = t["coefficient"]
                match = _RATIONAL.fullmatch(c) if isinstance(c, str) else None
                if match is None and type(c) is not int:
                    raise TypeError(f"coefficient {c!r} is not an integer or a "
                                    "rational string")
                if match is None:
                    n, d = c, 1
                else:
                    n, d = int(match[1]), int(match[2] or 1)
                    if not d:
                        raise ValueError(f"coefficient {c!r} has a zero denominator")
                    g = gcd(n, d)
                    if g != 1:
                        n, d = n // g, d // g
                items.append((lam, (n, d)))
            terms = _checked_terms(basis, degree, items)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed series JSON: {exc}") from exc
        return cls._of(basis, terms, degree)

    @classmethod
    def from_json(cls, text: str) -> "SymFunc":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("malformed series JSON: nested too deeply") from None
        except ValueError as exc:
            raise ValueError(f"malformed series JSON: {exc}") from exc
        return cls.from_json_dict(data)


def _constant_free_p(f: SymFunc, what: str) -> None:
    """The precondition of exp and of plethysm's inner series, read from
    the numerators: f is a p-basis series with no constant term."""
    if f.basis != "p":
        raise BasisError(f"{what} expects a p-basis series")
    if f.terms.nums.get(()):
        raise ValueError(f"{what} needs a zero constant term")


def exp_series(f: SymFunc) -> SymFunc:
    """exp of a constant-free p-basis series, truncated at its degree.

    Built weight by weight with the Euler (degree-operator) recurrence
    k g_k = sum_{j=1..k} j f_j g_{k-j} from g_0 = 1, where f_j and g_j are
    the weight-j slices of f and of g = exp(f).  The kernel ``exp_terms``
    runs it (``_kernels._exp_slices``) on integer-coded keys and
    numerators, decodes each result key once and returns the integer form:
    no coefficient becomes a ``Fraction`` until it is read.
    """
    _constant_free_p(f, "exp_series")
    return SymFunc._of("p", kernels.exp_terms(f.terms, f.degree), f.degree)
