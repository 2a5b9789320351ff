"""The ten named generating series and their per-variable factorizations.

Every series here is exp of an exponent that splits as a sum over n >= 1 of
a univariate polynomial in p_n.  That split is what makes the product-form
Kronecker reduction applicable: F = prod f_n(p_n) and G = prod g_n(p_n)
give F (x) G = prod (f_n (x) g_n).

Per variable n, writing x for p_n, the defining exponents and their class
values (entry k = n^k k! [x^k], the ints ``_factor_exponent`` returns;
entries not listed are 0; ``exponent`` and a factor's embedding in p,
``UnivariateFactor.to_symfunc``, divide them by z(n^k) = n^k k! through
the one embedding of class values, ``kernels.class_terms``) are the rows
of ``_CLASS_VALUES``, one per tag:

    H      x/n                               [1] = 1
    E      (-1)^(n+1) x/n                    [1] = (-1)^(n+1)
    S      x^2/(2n) + [n odd] x/n            [2] = n, [1] = [n odd]
    SHinv  x^2/(2n) - [n even] x/n           [2] = n, [1] = -[n even]
    SEinv  x^2/(2n) + [n even] x/n           [2] = n, [1] = [n even]
    Modd   [n odd]  sum_{k>=1} x^k/n         [k] = [n odd] n^(k-1) k!
    Meven  [n even] sum_{k>=1} x^k/n         [k] = [n even] n^(k-1) k!
    N      sum_{k>=1} x^(2k)/(2n)            [2k] = n^(2k-1) (2k)!/2
    P      [n even] sum_{k>=1} (-1)^k x^k/n  [k] = [n even] (-1)^k n^(k-1) k!
    G      sum_{k>=1} x^(2k)/(2k)            [2k] = n^(2k) (2k-1)!

H, E and S sum all h_k, all e_k and all Schur functions; SHinv = S/H and
SEinv = S/E sum the Schur functions whose conjugate, or whose partition,
has all parts even.  Modd, Meven, N and P expand x/(n(1-x)),
x^2/(2n(1-x^2)) and -x/(n(1+x)); exp of G's exponent is (1-x^2)^(-1/2).

Geometric denominators are expanded to explicit finite sums at construction
time (degree of x^k is n*k, cut at the requested truncation), keeping the
series layer free of rational-function arithmetic.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from math import factorial

from symkron import _kernels as kernels
from symkron.partitions import Partition, _natural
from symkron.series import SymFunc, _Value, exp_series
from symkron.products import UnivariateFactor, kron_factor, poly_exp


class NamedSeries(enum.Enum):
    """Tags for the ten built-in series; values are the CLI names."""

    H = "H"
    E = "E"
    S = "S"
    SHINV = "SHinv"
    SEINV = "SEinv"
    MODD = "Modd"
    MEVEN = "Meven"
    N = "N"
    P = "P"
    G = "G"

    @classmethod
    def from_tag(cls, tag) -> "NamedSeries":
        try:
            return cls(tag)
        except ValueError:
            raise ValueError(f"unknown series tag {tag!r}; expected one of {TAGS}") from None


TAGS = tuple(member.value for member in NamedSeries)


#: The class value n^k k! [x^k] of each exponent at (n, k >= 1), as an int:
#: the rows of the table in the module docstring, in its order.
_CLASS_VALUES = {
    NamedSeries.H: lambda n, k: int(k == 1),
    NamedSeries.E: lambda n, k: (-1) ** (n + 1) * (k == 1),
    NamedSeries.S: lambda n, k: n * (k == 2) + n % 2 * (k == 1),
    NamedSeries.SHINV: lambda n, k: n * (k == 2) - (1 - n % 2) * (k == 1),
    NamedSeries.SEINV: lambda n, k: n * (k == 2) + (1 - n % 2) * (k == 1),
    NamedSeries.MODD: lambda n, k: n % 2 and n ** (k - 1) * factorial(k),
    NamedSeries.MEVEN: lambda n, k: (1 - n % 2) and n ** (k - 1) * factorial(k),
    NamedSeries.N: lambda n, k: (1 - k % 2) and n ** (k - 1) * factorial(k) // 2,
    NamedSeries.P: lambda n, k: (1 - n % 2) and (-1) ** k * n ** (k - 1) * factorial(k),
    NamedSeries.G: lambda n, k: (1 - k % 2) and n ** k * factorial(k - 1),
}


def _factor_exponent(tag: NamedSeries, n: int, order: int) -> list:
    """Class values of the exponent in x = p_n through x**order: entry k
    is n**k * k! times the coefficient of x**k, an int (``_CLASS_VALUES``)."""
    return [0] + [_CLASS_VALUES[tag](n, k) for k in range(1, order + 1)]


def exponent(tag, degree: int) -> SymFunc:
    """The p-basis exponent polynomial of the series, truncated at degree:
    its nonzero class values embedded by ``kernels.class_terms``, with no ``Fraction``."""
    _natural(degree, "degree")
    tag = NamedSeries.from_tag(tag)
    return SymFunc("p", kernels.class_terms(
        (tuple.__new__(Partition, (n,) * k), v) for n in range(1, degree + 1)
        for k, v in enumerate(_factor_exponent(tag, n, degree // n)) if v), degree)


@lru_cache(maxsize=None)
def _expand_cached(tag: NamedSeries, degree: int) -> SymFunc:
    return exp_series(exponent(tag, degree))


def expand(tag, degree: int) -> SymFunc:
    """The series itself as a p-basis SymFunc truncated at degree.

    Results are memoized per (tag, degree), and every caller gets the
    memo's value: it is read-only down to its terms' numerators, so no
    caller can change what another one reads.
    """
    _natural(degree, "degree")
    return _expand_cached(NamedSeries.from_tag(tag), degree)


class FactorizedSeries(_Value):
    """A series as a product over n of univariate factors in p_n.

    ``factors`` maps the variable index n to its UnivariateFactor, whose
    own ``n`` it must be; an absent index means the factor is the constant
    1.  Re-expanding the product and truncating reproduces
    expand(tag, degree) exactly.  Equal when both fields are; the dict of
    factors makes it unhashable.
    """

    __slots__ = ("degree", "factors")

    def __init__(self, degree: int, factors: dict):
        factors = dict(factors)
        for n, f in factors.items():
            if not isinstance(f, UnivariateFactor):
                raise TypeError(f"factor at {n!r} is not a UnivariateFactor: {f!r}")
            if type(n) is not int or n != f.n:  # bool is an int subclass
                raise ValueError(f"factor in p_{f.n} keyed by {n!r}")
        _Value.__init__(self, _natural(degree, "degree"), factors)

    __hash__ = None

    def __repr__(self):
        return f"FactorizedSeries(degree={self.degree}, variables={sorted(self.factors)})"

    def expand(self) -> SymFunc:
        """Multiply the embedded factors back out, truncated at degree."""
        result = SymFunc.one("p", self.degree)
        for n in sorted(self.factors):
            result = result * self.factors[n].to_symfunc(degree=self.degree)
        return result


def factor(tag, n: int, order: int) -> UnivariateFactor:
    """The single variable-n factor of the series, to the given k-order:
    exp of the univariate exponent listed in the module docstring."""
    tag = NamedSeries.from_tag(tag)
    _natural(n, "variable index", 1)
    _natural(order, "order")
    return UnivariateFactor(n, poly_exp(_factor_exponent(tag, n, order), order))


def factorize(tag, degree: int) -> FactorizedSeries:
    """Per-variable factorization: factor at n is exp of the univariate
    exponent, truncated in k at degree // n.  Trivial factors are omitted."""
    _natural(degree, "degree")
    tag = NamedSeries.from_tag(tag)
    factors = {}
    for n in range(1, degree + 1):
        f = factor(tag, n, degree // n)
        if any(f.values[1:]):  # exp(a) = 1 exactly when a = 0
            factors[n] = f
    return FactorizedSeries(degree, factors)


def kronecker_product_form(a, b, degree: int) -> SymFunc:
    """Kronecker product computed through the per-variable factorization:
    factor both series, Kronecker the factors variable by variable, and
    re-expand.  Must agree exactly with the direct p-basis product."""
    fa = factorize(a, degree).factors
    fb = factorize(b, degree).factors
    return FactorizedSeries(degree, {n: kron_factor(fa[n], fb[n])
                                     for n in fa.keys() & fb.keys()}).expand()
