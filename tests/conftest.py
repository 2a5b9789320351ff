import contextlib
import random
from fractions import Fraction
from math import lcm

from hypothesis import strategies as st

from symkron import _kernels as kernels
from symkron.partitions import partitions_of, z
from symkron.series import SymFunc


def int_terms(terms) -> kernels.IntTerms:
    """The integer form of a map of nonzero Fractions (or ints), over the
    lcm of their denominators: kernel inputs built from Fraction maps.
    That form is reduced already: a prime dividing the lcm divides some
    coefficient's denominator as often, and so neither its numerator nor
    its scale factor."""
    den = lcm(*[c.denominator for c in terms.values()])
    return kernels.IntTerms({k: c.numerator * (den // c.denominator)
                             for k, c in terms.items()}, den)


def sum_by_definition(rows, den=1) -> dict:
    """sum of c * row / den over the (c, Fraction map row) pairs, on
    Fractions and without its zeros: the reference for ``kernels.sum_terms``
    and for series addition, subtraction and scaling."""
    acc = {}
    for c, row in rows:
        for k, v in row.items():
            acc[k] = acc.get(k, Fraction(0)) + c * v / den
    return {k: v for k, v in acc.items() if v}


def random_symfunc(rng: random.Random, basis: str, degree: int,
                   max_terms: int = 8, constant_free: bool = False) -> SymFunc:
    """Random sparse series; coefficients may collide or cancel, which is
    exactly what the constructors must cope with."""
    terms = {}
    lowest = 1 if constant_free else 0
    if lowest <= degree:
        for _ in range(rng.randint(0, max_terms)):
            weight = rng.randint(lowest, degree)
            lam = rng.choice(partitions_of(weight))
            terms[lam] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return SymFunc(basis, terms, degree)


@st.composite
def constant_free_p_series(draw):
    """A p series of degree <= 10 with terms of mixed weights and
    denominators, and no constant term."""
    degree = draw(st.integers(0, 10))
    if not degree:
        return SymFunc.zero("p", 0)
    keys = [lam for n in range(1, degree + 1) for lam in partitions_of(n)]
    terms = draw(st.dictionaries(st.sampled_from(keys),
                                 st.fractions(-9, 9, max_denominator=12), max_size=6))
    return SymFunc("p", terms, degree)


@contextlib.contextmanager
def fractions_built():
    """Count the Fractions built inside the block: yields a list that gets
    the arguments of every ``Fraction.__new__`` call made there."""
    built = []
    real_new = Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real_new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        yield built
    finally:
        Fraction.__new__ = real_new


# ------------------------------------------ Fraction oracles, multivariate

def mul_by_definition(a: dict, b: dict, limit: int) -> dict:
    """The distributive product: a Fraction sum over all pairs, each key
    merged by sorting its parts."""
    acc: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if sum(ka) + sum(kb) <= limit:
                key = tuple(sorted(ka + kb, reverse=True))
                acc[key] = acc.get(key, Fraction(0)) + ca * cb
    return {k: c for k, c in acc.items() if c}


def exp_by_definition(a: dict, limit: int) -> dict:
    """The sum of a**k / k! over k <= limit, through mul_by_definition; a
    constant-free a has no key of weight 0, so higher powers vanish."""
    total = {(): Fraction(1)}
    power = {(): Fraction(1)}
    for k in range(1, limit + 1):
        power = {key: c / k for key, c in mul_by_definition(power, a, limit).items()}
        for key, c in power.items():
            total[key] = total.get(key, Fraction(0)) + c
    return {k: c for k, c in total.items() if c}


# ------------------------------------------ Fraction oracles, univariate

def poly_mul(a, b, order: int) -> list:
    """Product of coefficient lists as Fractions, truncated at the given
    order: the reference for products of univariate factors."""
    out = [Fraction(0)] * (order + 1)
    for i, ca in enumerate(a):
        if i > order or not ca:
            continue
        for j, cb in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ca * cb
    return out


def poly_exp_by_horner(a, order: int) -> list:
    """Reference for ``poly_exp``: the sum of a**k / k! by Horner's rule
    through poly_mul."""
    result = [Fraction(1)] + [Fraction(0)] * order
    for k in range(order, 0, -1):
        result = [c / k for c in poly_mul(a, result, order)]
        result[0] += 1
    return result


# ------------------------------------------ Fraction oracles, change of basis

def p_in_m_by_fractions(mu) -> kernels.IntTerms:
    """[m_lam] p_mu = z(mu) [p_mu] h_lam as one Fraction per entry, brought
    to the integer form by ``int_terms``: the reference for the integer
    rows of ``bases._p_in_m``."""
    from symkron.bases import _hlam_in_p

    out = {}
    for lam in partitions_of(sum(mu)):
        row = _hlam_in_p(lam)
        v = row.nums.get(mu)
        if v:
            out[lam] = Fraction(v * z(mu), row.den)
    return int_terms(out)


def m_in_p_by_fractions(lam) -> kernels.IntTerms:
    """[p_mu] m_lam = [h_lam] p_mu / z(mu) as one Fraction per entry,
    brought to the integer form by ``int_terms``: the reference for the
    integer rows of ``bases._m_in_p``."""
    from symkron.bases import _plam_in_h

    out = {}
    for mu in partitions_of(sum(lam)):
        row = _plam_in_h(mu)
        v = row.nums.get(lam)
        if v:
            out[mu] = Fraction(v, row.den * z(mu))
    return int_terms(out)
