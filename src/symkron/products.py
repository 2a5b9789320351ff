"""The bilinear products: scalar product, Kronecker product, plethysm, and
the single-variable Kronecker factor used by the product-form reduction.

Everything is evaluated in power-sum coordinates, where the two products
are diagonal:

    <p_lam, p_mu> = z_lam * delta(lam, mu)
    p_lam (x) p_mu = z_lam * delta(lam, mu) * p_lam

So a Kronecker coefficient <s_lam (x) s_mu, s_rho> is one class sum,
sum over cycle types nu of chi^lam(nu) chi^mu(nu) chi^rho(nu) / z_nu
(Macdonald I.7).  ``kronecker_coefficient`` reads the three dense
character rows of ``bases`` (``bases._char_row``, built from the
character columns) and takes one integer dot product with the class sizes
n! / z_nu, divided by n! once; it builds no series and no ``Fraction``.

A factor in one variable p_n is held by its integer class values
f[k] = <f, p_n^k> = n^k k! [p_n^k] f (``UnivariateFactor``): there the
Kronecker product is pointwise and exp has no division, and its p terms
are those values over z(n^k), embedded by ``kernels.class_terms``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial
from operator import mul

from symkron import _kernels as kernels
from symkron import bases
from symkron.partitions import Partition, _natural, partitions_of, z
from symkron.series import SymFunc, _constant_free_p, _Value

_ZERO = Fraction(0)


def scalar_product(f: SymFunc, g: SymFunc) -> Fraction:
    """<f, g>: sum over shared partitions of f_lam * g_lam * z_lam.

    Inputs are converted to p coordinates internally.  All stored terms
    participate; when the truncation degrees differ, bookkeeping about the
    unshared range is the caller's concern (the verifier compares equal
    degrees only).
    """
    return kernels.scalar_terms(bases.to_p(f).terms, bases.to_p(g).terms)


def kronecker(f: SymFunc, g: SymFunc) -> SymFunc:
    """Kronecker (internal) product, returned in the p basis.

    Cross-degree terms vanish on their own, so inhomogeneous inputs are
    fine; the result is truncated at the minimum input degree, which every
    key shared by both inputs already respects.
    """
    fp = bases.to_p(f)
    gp = bases.to_p(g)
    degree = min(fp.degree, gp.degree)
    return SymFunc._of("p", kernels.kron_terms(fp.terms, gp.terms), degree)


def plethysm(f: SymFunc, g: SymFunc) -> SymFunc:
    """f[g]: substitution defined on power sums by index dilation.

    Each p-monomial c * p_{l1} ... p_{lk} of f becomes c times the product
    of copies of g with every index multiplied by l_i.  g must be a
    constant-free p-basis series.  The result is truncated at
    min(f.degree, g.degree): substitution cannot recover terms that either
    truncation has already discarded.
    """
    _constant_free_p(g, "plethysm (g)")
    fp = bases.to_p(f)
    degree = min(fp.degree, g.degree)

    @cache
    def dilate(m: int) -> kernels.IntTerms:
        # m times a partition's parts is a partition: built unchecked
        return kernels.IntTerms.reduced(
            {tuple.__new__(Partition, [m * p for p in key]): v
             for key, v in g.terms.nums.items() if m * key.weight <= degree}, g.terms.den)

    def substitute(lam: Partition) -> kernels.IntTerms:
        acc = bases._EMPTY_ROW
        for m in lam:
            acc = kernels.mul_terms(acc, dilate(m), degree)
        return acc

    # every part of g has degree >= 1, so heavier terms of f vanish
    return SymFunc._of("p", bases._change_basis(fp.truncate(degree).terms, substitute), degree)


# ----------------------------------------------------- univariate factors

class UnivariateFactor(_Value):
    """A truncated series in the single power-sum variable p_n.

    values[k] = n**k * k! * [p_n**k] f, an int, so the term of index k has
    series degree n*k; the truncation order is in k (len(values) - 1), not
    in degree.  ``coefficient`` reads one as a ``Fraction``, over z(n^k).
    Immutable and hashable; equal when n and values are.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: tuple):
        _natural(n, "variable index", 1)
        values = tuple(values)
        for v in values:
            if type(v) is not int:
                raise TypeError(f"class values must be ints, not {type(v).__name__}")
        _Value.__init__(self, n, values or (0,))

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def coefficient(self, k: int) -> Fraction:
        """The p coefficient [p_n**k] f = values[k] / (n**k * k!)."""
        if 0 <= k <= self.order:
            return Fraction(self.values[k], self.n ** k * factorial(k))
        return _ZERO

    def to_symfunc(self, degree: int | None = None) -> SymFunc:
        """Embed into the ambient ring; degree defaults to n * order and
        must stay below n * (order + 1), where the next power is unknown."""
        if degree is None:
            degree = self.n * self.order
        elif _natural(degree, "truncation degree") >= self.n * (self.order + 1):
            raise ValueError(f"p_{self.n}^{self.order + 1} is unknown at degree {degree}")
        return SymFunc._of("p", kernels.class_terms(
            (tuple.__new__(Partition, (self.n,) * k), v)
            for k, v in enumerate(self.values[:degree // self.n + 1])), degree)


def kron_factor(a: UnivariateFactor, b: UnivariateFactor) -> UnivariateFactor:
    """Kronecker product of two factors in the same variable p_n: as
    p_n**j (x) p_n**k = delta(j, k) z(n^k) p_n**k, pointwise in class values,
    to the smaller order."""
    if a.n != b.n:
        raise ValueError(f"factors live in different variables: p_{a.n} vs p_{b.n}")
    return UnivariateFactor(a.n, tuple(map(mul, a.values, b.values)))


def poly_exp(a, order: int) -> list:
    """exp of class values a, a[0] == 0, through the order: under their
    binomial product, g = exp(a) solves g' = a' g as g_0 = 1 and
    g_k = sum_{j=1..k} C(k-1, j-1) a_j g_(k-j), so ints in give ints out."""
    if a and a[0]:
        raise ValueError("poly_exp needs a zero constant term")
    support = [(j, a[j]) for j in range(1, min(len(a), order + 1)) if a[j]]
    g = [1]
    for k in range(1, order + 1):
        g.append(sum(comb(k - 1, j - 1) * c * g[k - j] for j, c in support if j <= k))
    return g


# ------------------------------------------------- Kronecker coefficients

def kronecker_coefficient(lam, mu, rho, oracle: bool = False) -> int:
    """Multiplicity of s_rho in s_lam (x) s_mu; a non-negative integer.

    The value is the class sum

        sum over nu of chi^lam(nu) chi^mu(nu) chi^rho(nu) / z_nu.

    The default route reads the three dense character rows of ``bases``
    (``_char_row``, built from the character columns) and the class sizes
    n! / z_nu (``_class_sizes``), all in ``partitions_of(n)`` order, takes
    one integer dot product of the four and divides it by n!.  With
    oracle=True the same sum runs on ``Fraction`` with characters by
    strip removal (``bases._char``), which share no code with the columns.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    rho = Partition(rho)
    if not (lam.weight == mu.weight == rho.weight):
        raise ValueError("kronecker_coefficient needs |lam| == |mu| == |rho|")
    n = lam.weight
    if oracle:
        char = bases._char
        val = sum(
            (Fraction(char(lam, nu) * char(mu, nu) * char(rho, nu), z(nu))
             for nu in partitions_of(n)),
            _ZERO,
        )
        if val.denominator != 1:
            raise _non_integral(val, lam, mu, rho)
        return int(val)
    row = bases._char_row
    total = sum(map(mul, map(mul, row(lam), row(mu)),
                    map(mul, row(rho), bases._class_sizes(n))))
    order = factorial(n)
    val, rest = divmod(total, order)
    if rest:
        raise _non_integral(Fraction(total, order), lam, mu, rho)
    return val


def _non_integral(val: Fraction, lam, mu, rho) -> ArithmeticError:
    return ArithmeticError(f"non-integral Kronecker coefficient {val} at {lam}, {mu}, {rho}")
