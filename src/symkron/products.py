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
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import mul

from symkron import _kernels as kernels
from symkron import bases
from symkron.partitions import Partition, partitions_of, z
from symkron.series import BasisError, SymFunc, _exact, _select, _Value

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    if g.basis != "p":
        raise BasisError("plethysm expects g in the p basis")
    if g.constant_term:
        raise ValueError("plethysm needs a constant-free g")
    fp = bases.to_p(f)
    degree = min(fp.degree, g.degree)

    dilated: dict[int, kernels.IntTerms] = {}

    def dilate(m: int) -> kernels.IntTerms:
        cached = dilated.get(m)
        if cached is None:
            cached = dilated[m] = kernels.IntTerms.reduced(
                {Partition(m * p for p in key): v
                 for key, v in g.terms.nums.items() if m * key.weight <= degree},
                g.terms.den)
        return cached

    def substitute(lam: Partition) -> kernels.IntTerms:
        acc = bases._EMPTY_ROW
        for m in lam:
            acc = kernels.mul_terms(acc, dilate(m), degree)
        return acc

    # every part of g has degree >= 1, so heavier terms of f vanish
    kept = _select(fp.terms, lambda w: w <= degree)
    return SymFunc._of("p", bases._change_basis(kept, substitute), degree)


# ----------------------------------------------------- univariate factors

class UnivariateFactor(_Value):
    """A truncated polynomial in the single power-sum variable p_n.

    coeffs[k] multiplies p_n**k, so the term of index k has series degree
    n*k; the truncation order is in k (len(coeffs) - 1), not in degree.
    Immutable and hashable; equal when n and coeffs are.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple):
        if type(n) is not int or n < 1:  # bool is an int subclass
            raise ValueError("variable index must be a positive integer")
        coeffs = tuple(map(_exact, coeffs))
        _Value.__init__(self, n, coeffs or (_ZERO,))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k <= self.order else _ZERO

    def to_symfunc(self, degree: int | None = None) -> SymFunc:
        """Embed into the ambient ring; degree defaults to n * order."""
        if degree is None:
            degree = self.n * self.order
        terms = {
            (self.n,) * k: c
            for k, c in enumerate(self.coeffs)
            if self.n * k <= degree
        }
        return SymFunc("p", terms, degree)


def kron_factor(a: UnivariateFactor, b: UnivariateFactor) -> UnivariateFactor:
    """Kronecker product of two factors in the same variable p_n.

    Diagonal in k with weight z([n^k]) = n**k * k!, i.e. a coefficientwise
    (Hadamard-type) product; order is the minimum of the input orders.
    """
    if a.n != b.n:
        raise ValueError(f"factors live in different variables: p_{a.n} vs p_{b.n}")
    order = min(a.order, b.order)
    n = a.n
    return UnivariateFactor(n, tuple(a.coeffs[k] * b.coeffs[k] * n ** k * factorial(k)
                                     for k in range(order + 1)))


def poly_exp(a, order: int) -> list:
    """exp of a coefficient list with a[0] == 0, truncated at the order.

    The Euler recurrence k g_k = sum_{j=1..k} j a_j g_{k-j} from g_0 = 1
    gives each coefficient from the ones before it.
    """
    if a and a[0]:
        raise ValueError("poly_exp needs a zero constant term")
    ja = [j * c for j, c in enumerate(a[:order + 1])]
    ja += [_ZERO] * (order + 1 - len(ja))
    g = [_ONE]
    for k in range(1, order + 1):
        total = _ZERO
        for j in range(1, k + 1):
            if ja[j]:
                total += ja[j] * g[k - j]
        g.append(total / k)
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
    strip removal (``character``), which share no code with the columns.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    rho = Partition(rho)
    if not (lam.weight == mu.weight == rho.weight):
        raise ValueError("kronecker_coefficient needs |lam| == |mu| == |rho|")
    n = lam.weight
    if oracle:
        val = sum(
            (Fraction(bases.character(lam, nu)
                      * bases.character(mu, nu)
                      * bases.character(rho, nu), z(nu))
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
