import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fractions_built
from symkron.named import (
    FactorizedSeries,
    NamedSeries,
    TAGS,
    expand,
    exponent,
    factor,
    factorize,
    kronecker_product_form,
)
from symkron.products import UnivariateFactor, kron_factor, kronecker, plethysm
from symkron.series import SymFunc

F = Fraction


def test_tags_round_trip():
    assert TAGS == ("H", "E", "S", "SHinv", "SEinv", "Modd", "Meven", "N", "P", "G")
    for tag in TAGS:
        member = NamedSeries.from_tag(tag)
        assert member.value == tag
        assert NamedSeries.from_tag(member) is member
    with pytest.raises(ValueError):
        NamedSeries.from_tag("Q")


def test_expand_h_is_sum_of_complete_homogeneous():
    got = expand("H", 3)
    assert got == SymFunc("p", {
        (): 1,
        (1,): 1,
        (1, 1): F(1, 2), (2,): F(1, 2),
        (1, 1, 1): F(1, 6), (2, 1): F(1, 2), (3,): F(1, 3),
    }, 3)


def test_expand_e_alternates_signs():
    got = expand("E", 2)
    assert got == SymFunc("p", {(): 1, (1,): 1, (1, 1): F(1, 2), (2,): F(-1, 2)}, 2)


def test_expand_s_degree_two():
    assert expand("S", 2) == SymFunc("p", {(): 1, (1,): 1, (1, 1): 1}, 2)


def test_expand_g_degree_two():
    assert expand("G", 2) == SymFunc("p", {(): 1, (1, 1): F(1, 2)}, 2)


def test_expand_degree_zero_is_one():
    for tag in TAGS:
        assert expand(tag, 0) == SymFunc.one("p", 0)


def test_exponents_are_constant_free():
    for tag in TAGS:
        expo = exponent(tag, 8)
        assert expo.constant_term == 0
        assert expand(tag, 8).constant_term == 1


def test_quotient_exponents():
    for degree in (4, 10):
        s = exponent("S", degree)
        assert exponent("SHinv", degree) == s - exponent("H", degree)
        assert exponent("SEinv", degree) == s - exponent("E", degree)


def test_quotients_multiply_back():
    for degree in (6, 10):
        s = expand("S", degree)
        assert expand("SHinv", degree) * expand("H", degree) == s
        assert expand("SEinv", degree) * expand("E", degree) == s


def test_s_is_plethysm_of_h():
    for degree in range(11):
        u = SymFunc("p", {(1,): 1, (1, 1): F(1, 2), (2,): F(-1, 2)}, degree) \
            if degree >= 2 else SymFunc("p", {(1,): 1} if degree else {}, degree)
        assert expand("S", degree) == plethysm(expand("H", degree), u)


def test_factor_of_h():
    for n in (1, 2, 5):
        f = factor("H", n, 3)
        assert f.values == (1, 1, 1, 1)
        assert [f.coefficient(k) for k in range(4)] == \
            [F(1, n ** k * factorial(k)) for k in range(4)]


def test_factor_of_s_at_two():
    # exp(x^2/4): only even powers, x^(2m) carries 1/(4^m m!)
    f = factor("S", 2, 6)
    for k in range(7):
        if k % 2:
            assert f.coefficient(k) == 0
        else:
            m = k // 2
            assert f.coefficient(k) == F(1, 4 ** m * factorial(m))


def test_factor_of_g_binomial_series():
    f = factor("G", 1, 4)
    assert [f.coefficient(k) for k in range(5)] == [F(1), F(0), F(1, 2), F(0), F(3, 8)]


# The exponents' p coefficients as the module docstring of ``named``
# defines them, at variable n and power k of x = p_n.
_EXPONENT_DEFINITIONS = {
    "H": lambda n, k: F(int(k == 1), n),
    "E": lambda n, k: F(int(k == 1) * (-1) ** (n + 1), n),
    "S": lambda n, k: F(int(k == 2), 2 * n) + F(int(k == 1 and n % 2 == 1), n),
    "SHinv": lambda n, k: F(int(k == 2), 2 * n) - F(int(k == 1 and n % 2 == 0), n),
    "SEinv": lambda n, k: F(int(k == 2), 2 * n) + F(int(k == 1 and n % 2 == 0), n),
    "Modd": lambda n, k: F(n % 2, n),
    "Meven": lambda n, k: F(1 - n % 2, n),
    "N": lambda n, k: F(1 - k % 2, 2 * n),
    "P": lambda n, k: F((1 - n % 2) * (-1) ** k, n),
    "G": lambda n, k: F(1 - k % 2, k),
}


def test_exponents_match_their_definitions():
    # The definitions on Fraction, not through the class values of
    # _factor_exponent, which both the p-basis and the factor route read.
    degree = 40
    for tag in TAGS:
        definition = _EXPONENT_DEFINITIONS[tag]
        want = SymFunc("p", {(n,) * k: definition(n, k)
                             for n in range(1, degree + 1)
                             for k in range(1, degree // n + 1)}, degree)
        assert exponent(tag, degree) == want, tag
    # A factor holds only ints, so building each one is the check that
    # every class value through degree 200 is integral.
    for tag in TAGS:
        assert all(type(v) is int for f in factorize(tag, 200).factors.values()
                   for v in f.values)


def test_factors_and_their_kronecker_products_build_no_fraction():
    with fractions_built() as built:
        for tag in TAGS:
            for f in factorize(tag, 24).factors.values():
                kron_factor(f, f)
    assert built == []


def test_the_factor_layer_embeds_class_values_without_fractions():
    # Each p term of a factor is its class value over z(n^k), put over
    # one lcm per factor: no Fraction on the way.
    with fractions_built() as built:
        embedded = factor("G", 3, 6).to_symfunc()
        product = kronecker_product_form("S", "SHinv", 16)
    assert built == []
    assert embedded.coefficient((3, 3)) == F(1, 2)  # (1 - x^2)^(-1/2)
    assert product == kronecker(expand("S", 16), expand("SHinv", 16))


def test_factorize_reexpands_exactly():
    # The left side goes through poly_exp and UnivariateFactor, the right
    # through exp_series: two recurrences that share no code.
    for tag in TAGS:
        for degree in range(17):
            assert factorize(tag, degree).expand() == expand(tag, degree)


def test_factorize_omits_trivial_factors():
    fs = factorize("Meven", 6)
    assert set(fs.factors) == {2, 4, 6}
    assert factorize("Modd", 6).factors.keys() == {1, 3, 5}
    assert factorize("H", 0).factors == {}


def test_factorized_series_checks_its_keys_and_factors():
    # both used to build: the first expanded as a factor in p_3
    with pytest.raises(ValueError, match="p_3 keyed by 2"):
        FactorizedSeries(6, {2: UnivariateFactor(3, (1, 3, 18))})
    with pytest.raises(TypeError, match="not a UnivariateFactor"):
        FactorizedSeries(6, {0: "x"})
    with pytest.raises(ValueError):
        FactorizedSeries(2, {True: UnivariateFactor(1, (1, 1))})
    good = FactorizedSeries(6, {3: UnivariateFactor(3, (1, 3, 18))})
    assert good.expand() == SymFunc("p", {(): 1, (3,): 1, (3, 3): 1}, 6)


def test_product_form_matches_direct_kronecker():
    five = [NamedSeries.H, NamedSeries.E, NamedSeries.S,
            NamedSeries.SHINV, NamedSeries.SEINV]
    for a, b in itertools.combinations_with_replacement(five, 2):
        direct = kronecker(expand(a, 6), expand(b, 6))
        assert kronecker_product_form(a, b, 6) == direct


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TAGS), st.sampled_from(TAGS), st.integers(0, 10))
def test_product_form_matches_direct_kronecker_for_any_two_tags(a, b, degree):
    assert kronecker_product_form(a, b, degree) == \
        kronecker(expand(a, degree), expand(b, degree))


def test_triple_kronecker_power_is_order_independent():
    # no closed form is asserted for S(x)S(x)S; only self-consistency
    s = expand("S", 6)
    m = expand("Modd", 6)
    assert kronecker(kronecker(s, s), s) == kronecker(s, kronecker(s, s))
    assert kronecker(kronecker(s, m), s) == kronecker(kronecker(s, s), m)


@pytest.mark.parametrize("field, value", [("degree", 3), ("basis", "s")])
def test_memoized_expansion_fields_cannot_be_changed(field, value):
    memo = expand("H", 5)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(memo, field, value)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(memo, field)
    again = expand("H", 5)
    assert again is memo
    assert (again.basis, again.degree) == ("p", 5)


def test_expand_rejects_negative_degree():
    with pytest.raises(ValueError):
        expand("H", -1)


def test_factor_and_factorize_reject_negative_order():
    # factor used to return an order-0 factor, factorize a degree -3 product
    with pytest.raises(ValueError, match="order"):
        factor("S", 2, -1)
    with pytest.raises(ValueError, match="degree"):
        factorize("S", -3)
    # a bool or a non-int used to slip through, or fail inside range or poly_exp
    for bad in (True, 2.5, 2.0):
        with pytest.raises(ValueError, match="order"):
            factor("S", 2, bad)
        with pytest.raises(ValueError, match="variable index"):
            factor("S", bad, 2)
        for call in (expand, exponent, factorize):
            with pytest.raises(ValueError, match="degree"):
                call("H", bad)
