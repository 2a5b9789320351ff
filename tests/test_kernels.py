import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from symkron import _kernels as kernels
from symkron.partitions import partitions_of, z

try:
    from symkron._kernels import _speedups
except ImportError:
    _speedups = None

needs_speedups = pytest.mark.skipif(_speedups is None,
                                    reason="compiled kernels not built")

F = Fraction
MULS = (kernels._mul_terms_py, kernels.mul_terms)


def random_terms(rng, max_terms, max_weight):
    out = {}
    for _ in range(rng.randint(0, max_terms)):
        w = rng.randint(0, max_weight)
        lam = tuple(rng.choice(partitions_of(w)))
        out[lam] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return out


def test_backend_name_is_available():
    assert kernels.backend_name() == ("python" if _speedups is None else "c")


def test_mul_respects_limit():
    a = {(2,): Fraction(1), (1,): Fraction(1)}
    b = {(2,): Fraction(1)}
    for mul in MULS:
        assert mul(a, b, 3) == {(2, 1): Fraction(1)}
        assert mul(a, b, 1) == {}
        assert mul({}, b, 9) == {}


def test_mul_cancellation_drops_zeros():
    a = {(1,): Fraction(1), (): Fraction(1)}
    b = {(1,): Fraction(-1), (): Fraction(1)}
    # (1 + p1)(1 - p1) = 1 - p1^2
    for mul in MULS:
        assert mul(a, b, 2) == {(): Fraction(1), (1, 1): Fraction(-1)}


TERM_MAPS = st.dictionaries(
    st.sampled_from([lam for n in range(8) for lam in partitions_of(n)]),
    st.fractions(-30, 30, max_denominator=12).filter(bool), max_size=12)


@settings(max_examples=200, deadline=None)
@given(TERM_MAPS, TERM_MAPS)
@example({}, {})
@example({(1,): F(3)}, {})
# 1/2 * 1 * z(1,1) - 1/2 * 1 * z(2) = 0: the scalar product cancels
@example({(1, 1): F(1, 2), (2,): F(-1, 2), (3,): F(1, 3)},
         {(1, 1): F(1), (2,): F(1), (2, 1): F(7)})
def test_kron_and_scalar_match_definition(a, b):
    products = {k: a[k] * b[k] * z(k) for k in a.keys() & b.keys()}
    assert kernels.kron_terms(a, b) == products
    total = kernels.scalar_terms(a, b)
    assert type(total) is Fraction
    assert total == sum(products.values(), F(0))


@needs_speedups
def test_compiled_mul_matches_reference_on_random_inputs():
    rng = random.Random(2024)
    for _ in range(300):
        a = random_terms(rng, 12, 8)
        b = random_terms(rng, 12, 8)
        limit = rng.randint(0, 10)
        assert kernels._mul_terms_py(a, b, limit) == _speedups.mul_terms(a, b, limit)


@needs_speedups
def test_compiled_mul_matches_reference_on_dense_series():
    from symkron import expand

    for tag in ("H", "S", "G", "Modd"):
        t = expand(tag, 10).terms
        assert kernels._mul_terms_py(t, t, 10) == _speedups.mul_terms(t, t, 10)
