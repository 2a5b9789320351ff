"""Sparse, exact-rational, degree-truncated symmetric-function series.

A :class:`SymFunc` is a finite map from partitions to nonzero rationals,
tagged with one of the classical bases (m, e, h, p, s) and a truncation
degree N.  It stands for its series modulo terms of total degree > N, where
the variable indexed by k carries degree k; every operation propagates the
minimum N of its inputs.  Coefficients are ``fractions.Fraction`` values,
so everything is exact and canonical (lowest terms, positive denominator).

Values are immutable by convention: operations return new objects, and the
``terms`` dict of an existing value must never be mutated.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from symkron import _kernels as kernels
from symkron.partitions import Partition

BASES = ("m", "e", "h", "p", "s")
MULTIPLICATIVE_BASES = ("e", "h", "p")

#: Exact rational coefficient type.
Coefficient = Fraction

_ZERO = Fraction(0)

#: The coefficient strings ``to_json_dict`` writes; JSON input must match.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


class BasisError(ValueError):
    """An operation was applied to an unsupported or mismatched basis."""


def term_order(lam) -> tuple:
    """Sort key for term listings: weight first, then lexicographic."""
    return (sum(lam), tuple(lam))


class SymFunc:
    """A basis-tagged sparse series truncated at total degree ``degree``."""

    __slots__ = ("basis", "terms", "degree")

    def __init__(self, basis: str, terms, degree: int):
        if basis not in BASES:
            raise BasisError(f"unknown basis {basis!r}; expected one of {BASES}")
        if type(degree) is not int or degree < 0:  # bool is an int subclass
            raise ValueError(f"truncation degree must be a non-negative integer: {degree!r}")
        items = terms.items() if isinstance(terms, dict) else terms
        clean: dict[Partition, Fraction] = {}
        for lam, c in items:
            if not isinstance(lam, Partition):
                lam = Partition(lam)
            if not isinstance(c, Fraction):
                if isinstance(c, float):
                    raise TypeError("coefficients must be exact rationals, not floats")
                c = Fraction(c)
            if not c:
                continue
            if lam.weight > degree:
                raise ValueError(f"term {lam!r} exceeds truncation degree {degree}")
            clean[lam] = c
        self.basis = basis
        self.terms = clean
        self.degree = degree

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
        """Coefficient of the given partition (0 if absent)."""
        return self.terms.get(tuple(lam), _ZERO)

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((), _ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Partition, Fraction]]:
        """Terms ordered by (weight, lexicographic partition order)."""
        return sorted(self.terms.items(), key=lambda kv: term_order(kv[0]))

    def weights(self) -> list[int]:
        """Weights that carry at least one term, ascending."""
        return sorted({lam.weight for lam in self.terms})

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return (self.basis == other.basis
                and self.degree == other.degree
                and self.terms == other.terms)

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

    def __add__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        self._check_basis(other)
        degree = min(self.degree, other.degree)
        out = {k: c for k, c in self.terms.items() if k.weight <= degree}
        for k, c in other.terms.items():
            if k.weight > degree:
                continue
            s = out.get(k, _ZERO) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return SymFunc(self.basis, out, degree)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c) -> "SymFunc":
        """Multiply every coefficient by the rational c."""
        if isinstance(c, float):
            raise TypeError("coefficients must be exact rationals, not floats")
        c = Fraction(c)
        if not c:
            return SymFunc.zero(self.basis, self.degree)
        return SymFunc(self.basis, {k: c * v for k, v in self.terms.items()}, self.degree)

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            self._check_basis(other)
            if self.basis not in MULTIPLICATIVE_BASES:
                raise BasisError(
                    f"product is defined on the multiplicative bases {MULTIPLICATIVE_BASES}; "
                    f"convert {self.basis!r} inputs to p first"
                )
            degree = min(self.degree, other.degree)
            return SymFunc(self.basis, kernels.mul_terms(self.terms, other.terms, degree), degree)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # ---------------------------------------------------------- truncation

    def truncate(self, d: int) -> "SymFunc":
        """Drop terms of weight > d and set the truncation degree to d.

        d may not exceed the current truncation degree: terms beyond it are
        unknown, not zero.
        """
        if d > self.degree:
            raise ValueError(f"cannot raise truncation degree from {self.degree} to {d}")
        if d == self.degree:
            return self
        return SymFunc(self.basis, {k: c for k, c in self.terms.items() if k.weight <= d}, d)

    def graded_component(self, n: int) -> "SymFunc":
        """The homogeneous slice of weight exactly n (degree tag unchanged)."""
        if n < 0 or n > self.degree:
            raise ValueError(f"weight {n} outside the truncated range 0..{self.degree}")
        return SymFunc(self.basis, {k: c for k, c in self.terms.items() if k.weight == n},
                       self.degree)

    # ------------------------------------------------------------- JSON IO

    def to_json_dict(self) -> dict:
        """Deterministic JSON form: terms sorted by (weight, lex), canonical
        rational strings ("3", "-1/2")."""
        return {
            "basis": self.basis,
            "degree": self.degree,
            "terms": [
                {"partition": list(lam), "coefficient": str(c)}
                for lam, c in self.sorted_terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SymFunc":
        """Inverse of :meth:`to_json_dict`.  Coefficients must be JSON
        integers or rational strings such as "-1/2": a JSON float is already
        inexact when parsed, and a string like "1e100000000" would take
        unbounded time to expand, so both are rejected rather than
        converted.  Each partition may appear once."""
        try:
            basis = data["basis"]
            degree = data["degree"]
            terms = {}
            for t in data["terms"]:
                lam = tuple(t["partition"])
                c = t["coefficient"]
                if type(c) is not int and not (isinstance(c, str) and _RATIONAL.fullmatch(c)):
                    raise TypeError(f"coefficient {c!r} is not an integer or a "
                                    "rational string")
                if lam in terms:
                    raise ValueError(f"partition {list(lam)} appears twice")
                try:
                    terms[lam] = Fraction(c)
                except ZeroDivisionError:
                    raise ValueError(f"coefficient {c!r} has a zero denominator") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed series JSON: {exc}") from exc
        return cls(basis, terms, degree)

    @classmethod
    def from_json(cls, text: str) -> "SymFunc":
        return cls.from_json_dict(json.loads(text))


def exp_series(f: SymFunc) -> SymFunc:
    """exp of a constant-free p-basis series: sum of f**k / k!, truncated.

    Evaluated Horner style with per-step truncation, so the cost is bounded
    by the truncation degree rather than by term-count explosion.
    """
    if f.basis != "p":
        raise BasisError("exp_series expects the p basis")
    if f.constant_term:
        raise ValueError("exp_series needs a zero constant term")
    one = SymFunc.one("p", f.degree)
    result = one
    for k in range(f.degree, 0, -1):
        result = one + (f * result).scale(Fraction(1, k))
    return result


def log_series(f: SymFunc) -> SymFunc:
    """Inverse of exp_series, defined for constant term exactly 1:
    log(1+g) = g - g^2/2 + g^3/3 - ..., truncated."""
    if f.basis != "p":
        raise BasisError("log_series expects the p basis")
    if f.constant_term != 1:
        raise ValueError("log_series needs constant term exactly 1")
    g = f - SymFunc.one("p", f.degree)
    power = SymFunc.one("p", f.degree)
    result = SymFunc.zero("p", f.degree)
    sign = 1
    for k in range(1, f.degree + 1):
        power = power * g
        if power.is_zero():
            break
        result = result + power.scale(Fraction(sign, k))
        sign = -sign
    return result
