import copy
import json
import math
import pickle
import random
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import constant_free_p_series, fractions_built, random_symfunc, sum_by_definition
from symkron import _kernels as kernels
from symkron.named import expand, exponent
from symkron.partitions import Partition, partitions_of
from symkron.products import plethysm
from symkron.series import BasisError, SymFunc, exp_series

F = Fraction


def newton_h(n):
    """Independent oracle: h_n over p via n*h_n = sum_k p_k h_{n-k}."""
    if n == 0:
        return {(): F(1)}
    acc = {}
    for k in range(1, n + 1):
        for key, c in newton_h(n - k).items():
            merged = tuple(sorted(key + (k,), reverse=True))
            acc[merged] = acc.get(merged, F(0)) + c
    return {key: c / n for key, c in acc.items()}


def p(lam, degree, coeff=1):
    return SymFunc.single("p", lam, degree, coeff)


# ------------------------------------------------------------- construction

def test_zero_coefficients_dropped():
    f = SymFunc("p", {(1,): 0, (2,): F(1, 2)}, 4)
    assert f.terms == {(2,): F(1, 2)}
    assert not SymFunc.zero("p", 3) and not SymFunc("p", {(1,): 0}, 3)
    assert SymFunc.one("p", 3)


def test_overweight_term_rejected():
    with pytest.raises(ValueError):
        SymFunc("p", {(3,): 1}, 2)


def test_unknown_basis_rejected():
    with pytest.raises(BasisError):
        SymFunc("q", {}, 2)


def test_bad_degree_rejected():
    with pytest.raises(ValueError):
        SymFunc("p", {}, -1)


def test_int_form_input_is_read_by_its_numerators_and_checked():
    # An IntTerms is read over its one denominator, with no Fraction, and
    # meets every check of the boundary all the same.
    s6 = expand("S", 6)
    with fractions_built() as built:
        f = SymFunc("p", s6.terms, 6)
    assert built == []
    assert f == s6 and f.terms is not s6.terms
    with pytest.raises(ValueError, match="exceeds truncation degree 5"):
        SymFunc("p", s6.terms, 5)
    with pytest.raises(BasisError, match="unknown basis 'q'"):
        SymFunc("q", s6.terms, 6)
    for bad in (True, -1):
        with pytest.raises(ValueError, match=f"^truncation degree must be .*: {bad!r}$"):
            SymFunc("p", s6.terms, bad)
    with pytest.raises(ValueError, match="weakly decreasing"):
        SymFunc("p", kernels.IntTerms({(1, 2): 1}, 3), 3)
    g = SymFunc("p", kernels.IntTerms({(2, 1): 2, (): -1}, 3), 3)
    assert all(type(k) is Partition for k in g.terms)
    assert g.terms == {(2, 1): F(2, 3), (): F(-1, 3)}


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        SymFunc("p", {(1,): 0.5}, 2)
    with pytest.raises(TypeError):
        SymFunc.one("p", 2).scale(0.5)


def test_only_int_and_fraction_coefficients_accepted():
    # "1e20000" used to be stored, and then to_json could not write it out
    for bad in ("1e20000", "1/2", True, None):
        with pytest.raises(TypeError, match="int or Fraction"):
            SymFunc("p", {(1,): bad}, 2)
        with pytest.raises(TypeError, match="int or Fraction"):
            SymFunc.one("p", 2).scale(bad)
    assert SymFunc("p", {(1,): 3, (2,): F(1, 2)}, 2).terms == {(1,): F(3), (2,): F(1, 2)}


def test_repeated_partitions_rejected():
    # the last value used to win, zero or not
    for pairs in ([((1,), 1), ((1,), 2)], [((1,), 1), ((1,), 0)], [((), 0), ((), 0)]):
        with pytest.raises(ValueError, match="appears twice"):
            SymFunc("p", pairs, 2)
    assert SymFunc("p", [((1,), 1), ((2,), 0)], 2).terms == {(1,): F(1)}


def test_coefficient_reads_partitions_only():
    f = exp_series(p((2,), 6, F(1, 2)) + p((1,), 6))
    assert f.coefficient((2, 1)) == f.coefficient([2, 1]) == f.coefficient(Partition((2, 1)))
    assert f.coefficient(()) == 1 and f.coefficient((6,)) == 0
    # a Partition key is a plain lookup, an int-form value included
    assert f.coefficient(Partition((1, 1))) == f.terms[Partition((1, 1))] == F(1, 2)


def test_coefficient_reads_build_no_fraction_map():
    # Reading a present coefficient builds one Fraction, an absent one
    # none; the constant-term checks of exp_series and plethysm read f's
    # absent constant term.
    f = exponent("S", 20)
    with fractions_built() as built:
        present = [f.coefficient((1,)), f.coefficient((1, 1)), f.coefficient((3, 3))]
    assert present == [1, F(1, 2), F(1, 6)] and len(built) == 3
    with fractions_built() as built:
        absent = [f.coefficient((2,)), f.constant_term]
        g = exp_series(f)
        plethysm(SymFunc.single("p", (2,), 4), f.truncate(4))
    assert absent == [0, 0] and all(type(c) is Fraction for c in absent)
    assert built == []
    with fractions_built() as built:
        assert g.constant_term == 1
    assert len(built) == 1


@pytest.mark.parametrize("lam", [(True,), [1, 2], [0], [2.0], (3, -1), ("1",)])
def test_coefficient_rejects_what_is_not_a_partition(lam):
    with pytest.raises(ValueError):
        exp_series(p((1,), 6)).coefficient(lam)
    with pytest.raises(ValueError):
        SymFunc("s", {(1,): 1}, 6).coefficient(lam)


def test_equality_includes_basis_and_degree():
    a = SymFunc("p", {(1,): 1}, 3)
    assert a == SymFunc("p", {(1,): 1}, 3)
    assert a != SymFunc("h", {(1,): 1}, 3)
    assert a != SymFunc("p", {(1,): 1}, 4)
    assert a != SymFunc("p", {(1,): 2}, 3)


# --------------------------------------------------------------- arithmetic

def test_add_examples():
    one_p1 = p((1,), 3)
    assert one_p1 + one_p1 == p((1,), 3, 2)

    f = SymFunc("p", {(2, 1): F(1, 3), (1,): -2}, 4)
    assert (f + f.scale(-1)).is_zero()

    lhs = SymFunc("p", {(): 1, (2,): 1}, 3) + SymFunc("p", {(1,): 1, (2,): -1}, 3)
    assert lhs == SymFunc("p", {(): 1, (1,): 1}, 3)


def test_add_requires_same_basis():
    with pytest.raises(BasisError):
        SymFunc("p", {}, 2) + SymFunc("h", {}, 2)


def test_add_takes_min_degree():
    f = SymFunc("p", {(3,): 1}, 3)
    g = SymFunc("p", {(1,): 1}, 2)
    total = f + g
    assert total.degree == 2
    assert total.terms == {(1,): F(1)}


def test_scale_examples():
    f = SymFunc("p", {(1,): 2, (2, 2): F(1, 3)}, 4)
    assert f.scale(0).is_zero()
    assert f.scale(1) == f
    assert p((1,), 3, 2).scale(F(1, 2)) == p((1,), 3)
    assert 2 * p((1,), 3) == p((1,), 3, 2) == p((1,), 3) * 2


def test_multiply_merges_parts():
    assert p((2,), 5) * p((2, 1), 5) == p((2, 2, 1), 5)
    h = SymFunc.single("h", (1,), 4)
    assert h * h == SymFunc.single("h", (1, 1), 4)


def test_multiply_truncates():
    one = SymFunc.one("p", 2)
    f = one + p((1,), 2)
    g = one - p((1,), 2)
    assert f * g == SymFunc("p", {(): 1, (1, 1): -1}, 2)


def test_multiply_rejects_m_and_s():
    for basis in ("m", "s"):
        f = SymFunc.single(basis, (1,), 3)
        with pytest.raises(BasisError):
            f * f


def test_ring_axioms_on_random_inputs():
    rng = random.Random(101)
    for _ in range(25):
        degree = rng.randint(0, 8)
        f = random_symfunc(rng, "p", degree)
        g = random_symfunc(rng, "p", degree)
        h = random_symfunc(rng, "p", degree)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


@st.composite
def p_series(draw):
    """A p series of degree <= 8 with mixed weights and denominators."""
    degree = draw(st.integers(0, 8))
    keys = [lam for n in range(degree + 1) for lam in partitions_of(n)]
    return SymFunc("p", draw(st.dictionaries(st.sampled_from(keys),
                                             st.fractions(-9, 9, max_denominator=12),
                                             max_size=8)), degree)


def by_fractions(f, degree):
    """f's terms of weight <= degree as a Fraction map."""
    return {k: c for k, c in f.terms.items() if sum(k) <= degree}


def assert_canonical(f):
    t = f.terms
    assert type(t) is kernels.IntTerms and t.den > 0
    assert all(type(v) is int and v for v in t.nums.values())
    assert math.gcd(t.den, *t.nums.values()) == 1


@settings(max_examples=100, deadline=None)
@given(p_series(), p_series(), st.fractions(-9, 9, max_denominator=12))
@example(SymFunc("p", {(1,): F(1, 2), (2,): F(1, 3)}, 3),
         SymFunc("p", {(1,): F(-1, 2), (2,): F(2, 3)}, 2), F(0))
def test_add_sub_and_scale_match_fractions(f, g, c):
    degree = min(f.degree, g.degree)
    a, b = by_fractions(f, degree), by_fractions(g, degree)
    for got, signs in ((f + g, (1, 1)), (f - g, (1, -1)), (g - f, (-1, 1))):
        assert_canonical(got)
        assert got.degree == degree
        assert got.terms == sum_by_definition(zip(signs, (a, b)))
    scaled = f.scale(c)
    assert_canonical(scaled)
    assert scaled.degree == f.degree and scaled.terms == sum_by_definition([(c, f.terms)])
    for zero in (f - f, f.scale(0), f + f.scale(-1)):
        assert_canonical(zero)
        assert zero.is_zero() and zero.terms.den == 1 and zero.degree == f.degree


def test_coefficients_stay_canonical():
    rng = random.Random(33)
    for _ in range(10):
        f = random_symfunc(rng, "p", 6)
        g = random_symfunc(rng, "p", 6)
        for result in (f + g, f * g, f.scale(F(-6, 4))):
            for c in result.terms.values():
                assert isinstance(c, F)
                assert c.denominator > 0
                assert math.gcd(c.numerator, c.denominator) == 1


# ---------------------------------------------------------------------- exp

def test_exp_of_p1():
    got = exp_series(p((1,), 3))
    assert got == SymFunc("p", {(): 1, (1,): 1, (1, 1): F(1, 2), (1, 1, 1): F(1, 6)}, 3)


def test_exp_of_p1_fills_the_multiplicity_field():
    # The coded keys give each part size limit.bit_length() bits, so p1**15
    # fills a 4-bit field (0b1111) and p1**16 the top bit of a 5-bit one.
    for degree in (15, 16):
        expected = {(1,) * k: F(1, math.factorial(k)) for k in range(degree + 1)}
        assert exp_series(p((1,), degree)) == SymFunc("p", expected, degree)


def test_exp_of_mercator_series():
    # exp(p1 + p1^2/2 + p1^3/3) = 1/(1 - p1), truncated at degree 3
    mercator = SymFunc("p", {(1,): 1, (1, 1): F(1, 2), (1, 1, 1): F(1, 3)}, 3)
    geometric = SymFunc("p", {(): 1, (1,): 1, (1, 1): 1, (1, 1, 1): 1}, 3)
    assert exp_series(mercator) == geometric


def test_exp_of_zero():
    assert exp_series(SymFunc.zero("p", 5)) == SymFunc.one("p", 5)


def test_exp_matches_newton_oracle():
    # exp(p1 + p2/2 + p3/3) must equal h_0 + h_1 + h_2 + h_3
    f = SymFunc("p", {(1,): 1, (2,): F(1, 2), (3,): F(1, 3)}, 3)
    expected = {}
    for n in range(4):
        expected.update(newton_h(n))
    assert exp_series(f) == SymFunc("p", expected, 3)


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        exp_series(SymFunc("p", {(): 1, (1,): 1}, 3))
    with pytest.raises(BasisError):
        exp_series(SymFunc.single("h", (1,), 3))


def test_exp_is_a_homomorphism():
    rng = random.Random(7)
    for _ in range(10):
        degree = rng.randint(0, 8)
        f = random_symfunc(rng, "p", degree, constant_free=True)
        g = random_symfunc(rng, "p", degree, constant_free=True)
        assert exp_series(f + g) == exp_series(f) * exp_series(g)


def exp_by_definition(f):
    """Reference: the sum of f**k / k!, by Horner's rule through SymFunc
    products, independent of the weight-by-weight recurrence."""
    one = SymFunc.one("p", f.degree)
    result = one
    for k in range(f.degree, 0, -1):
        result = one + (f * result).scale(F(1, k))
    return result


@settings(max_examples=80, deadline=None)
@given(constant_free_p_series())
@example(SymFunc.zero("p", 0))
@example(SymFunc.zero("p", 7))
@example(SymFunc.single("p", (10,), 10, F(3, 7)))
@example(SymFunc.single("p", (4, 3, 3), 10, F(-5, 2)))
def test_exp_matches_definition(f):
    assert exp_series(f) == exp_by_definition(f)


# --------------------------------------------------------------- truncation

def test_truncate_examples():
    f = SymFunc("p", {(): 1, (1,): 1, (1, 1): 1}, 2)
    assert f.truncate(1) == SymFunc("p", {(): 1, (1,): 1}, 1)
    assert f.truncate(f.degree) == f
    assert exp_series(p((1,), 5)).truncate(2) == \
        SymFunc("p", {(): 1, (1,): 1, (1, 1): F(1, 2)}, 2)


def test_truncate_cannot_extend():
    with pytest.raises(ValueError):
        SymFunc.one("p", 2).truncate(3)
    for bad in (-1, True):
        with pytest.raises(ValueError, match="non-negative integer"):
            SymFunc.one("p", 2).truncate(bad)


def test_graded_component():
    f = SymFunc("p", {(): 1, (1,): 1, (1, 1): 1}, 2)
    assert f.graded_component(2).terms == {(1, 1): F(1)}
    assert f.graded_component(0).terms == {(): F(1)}
    h_series = exp_series(SymFunc(
        "p", {(1,): 1, (2,): F(1, 2), (3,): F(1, 3), (4,): F(1, 4)}, 4))
    assert h_series.graded_component(3).terms == newton_h(3)
    with pytest.raises(ValueError):
        f.graded_component(3)
    for bad in (-1, 1.5, True):
        with pytest.raises(ValueError, match="non-negative integer"):
            f.graded_component(bad)


# --------------------------------------------------------------------- JSON

def test_json_round_trip():
    rng = random.Random(55)
    for basis in ("p", "m", "s", "h", "e"):
        f = random_symfunc(rng, basis, 6)
        assert SymFunc.from_json(f.to_json()) == f


def test_json_shape_and_order():
    f = SymFunc("p", {(2,): F(-1, 2), (1, 1): F(1, 2), (): 3}, 2)
    data = f.to_json_dict()
    assert data == {
        "basis": "p",
        "degree": 2,
        "terms": [
            {"partition": [], "coefficient": "3"},
            {"partition": [1, 1], "coefficient": "1/2"},
            {"partition": [2], "coefficient": "-1/2"},
        ],
    }


def test_json_is_deterministic():
    f = SymFunc("p", {(3, 1): F(7, 3), (2, 2): -2, (4,): F(1, 6)}, 4)
    assert f.to_json() == SymFunc.from_json(f.to_json()).to_json()
    assert json.loads(f.to_json())["terms"][0]["partition"] == [2, 2]


def test_malformed_json_rejected():
    with pytest.raises(ValueError):
        SymFunc.from_json("{\"basis\": \"p\"}")


def _one_term_json(coefficient, degree=2, partition=(2,), basis="p"):
    return json.dumps({"basis": basis, "degree": degree,
                       "terms": [{"partition": partition, "coefficient": coefficient}]})


def test_json_accepts_integers_and_rational_strings():
    for coefficient, value in ((3, F(3)), ("3", F(3)), ("-1/2", F(-1, 2))):
        assert SymFunc.from_json(_one_term_json(coefficient)).terms == {(2,): value}


def test_json_rejects_inexact_or_boolean_values():
    # 0.1 used to be stored as 3602879701896397/36028797018963968
    for coefficient in (0.1, 1.0, True, None, [1], "1/0", "1e3", "0.5", " 1", "+1", "\u0661"):
        with pytest.raises(ValueError, match="coefficient"):
            SymFunc.from_json(_one_term_json(coefficient))
    with pytest.raises(ValueError, match="degree"):
        SymFunc.from_json(_one_term_json("1", degree=True))
    with pytest.raises(ValueError):
        SymFunc.from_json(json.dumps({"basis": "p", "degree": 1, "terms": [
            {"partition": [True], "coefficient": "1"}]}))


@st.composite
def json_series(draw):
    """A series in any basis, with negative, multi-digit and very large
    coefficients, the empty partition and the zero series among them."""
    basis = draw(st.sampled_from(("m", "e", "h", "p", "s")))
    degree = draw(st.integers(0, 7))
    keys = [lam for n in range(degree + 1) for lam in partitions_of(n)]
    numerators = st.one_of(st.integers(-99, 99), st.integers(-10**40, 10**40))
    denominators = st.one_of(st.integers(1, 12), st.integers(1, 10**25))
    coefficients = st.builds(Fraction, numerators, denominators)
    return SymFunc(basis, draw(st.dictionaries(st.sampled_from(keys), coefficients,
                                               max_size=8)), degree)


@settings(max_examples=150, deadline=None)
@given(json_series())
@example(SymFunc.zero("s", 0))
@example(SymFunc.zero("h", 5))
@example(SymFunc("p", {(): F(-10**30, 7)}, 0))
@example(SymFunc("m", {(): -12, (12,): F(3, 14), (1,) * 12: 10**50}, 12))
def test_to_json_is_the_indented_json_of_to_json_dict(f):
    with fractions_built() as built:
        text = f.to_json()
        g = SymFunc.from_json(text)
    assert built == []
    assert text == json.dumps(f.to_json_dict(), indent=2)
    assert g == f and g.to_json() == text


def test_from_json_matches_the_constructor_on_fractions():
    # The one-pass parse reads numerators and denominators itself; the
    # constructor gets the same strings as Fractions.
    strings = ["2/4", "-0", "007", "-6/3", "0/9", "-12/8", "5", "10/1"]
    terms = [{"partition": [len(strings) - i], "coefficient": c} for i, c in enumerate(strings)]
    # Zero coefficients above the degree are allowed, as in the constructor.
    terms += [{"partition": [9, 9], "coefficient": "0"}, {"partition": [20], "coefficient": "-0/4"},
              {"partition": [7, 1], "coefficient": 0}]
    text = json.dumps({"basis": "h", "degree": 8, "terms": terms})
    with fractions_built() as fractions:
        parsed = SymFunc.from_json(text)
    assert fractions == []
    built = SymFunc("h", {tuple(t["partition"]): Fraction(t["coefficient"]) for t in terms}, 8)
    assert (parsed.terms.den, parsed.terms.nums) == (built.terms.den, built.terms.nums)
    assert parsed.terms.den == 2
    for c in ("1/-2", "--1", "1/", "/2", ""):
        with pytest.raises(ValueError):
            Fraction(c)
        with pytest.raises(ValueError, match="malformed series JSON: coefficient"):
            SymFunc.from_json(_one_term_json(c))


def test_json_rejects_repeated_partitions():
    text = json.dumps({"basis": "p", "degree": 1, "terms": [
        {"partition": [1], "coefficient": 1}, {"partition": [1], "coefficient": 2}]})
    with pytest.raises(ValueError, match="appears twice"):
        SymFunc.from_json(text)


@pytest.mark.parametrize("text, message", [
    (_one_term_json(1, 3, [1, 2]), "parts must be weakly decreasing: (1, 2)"),
    (_one_term_json(1, 3, [0]), "parts must be positive integers: (0,)"),
    (_one_term_json(1, 3, "1"), "parts must be positive integers"),
    (_one_term_json(1, 3, 3), "'int' object is not iterable"),
    (json.dumps({"basis": "p", "degree": 3, "terms": [
        {"partition": [2, 1], "coefficient": 1}] * 2}), "partition [2, 1] appears twice"),
    (_one_term_json(1, basis="q"), "unknown basis 'q'"),
    (_one_term_json(1, -1), "truncation degree must be a non-negative integer: -1"),
    (_one_term_json(1, "3"), "truncation degree must be a non-negative integer: '3'"),
    (_one_term_json(1, 1), "term Partition(2,) exceeds truncation degree 1"),
    ('{"basis": "p", "degree": 3}', "'terms'"),
    ("[1,", "Expecting value"),
], ids=["increasing", "zero-part", "string", "not-a-list", "twice", "basis",
        "negative-degree", "string-degree", "above-degree", "no-terms", "cut-short"])
def test_json_rejections_carry_one_prefix(text, message):
    with pytest.raises(ValueError) as info:
        SymFunc.from_json(text)
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"malformed series JSON: {message}")


@settings(max_examples=100, deadline=None)
@given(constant_free_p_series(), st.integers(0, 10), st.fractions(-9, 9, max_denominator=12))
@example(SymFunc("p", {(1,): F(1, 2), (2,): F(1, 3), (3,): F(1, 6)}, 3), 2, F(0))
@example(SymFunc("p", {(1,): F(1, 2), (2,): F(1, 4)}, 2), 1, F(0))
def test_truncate_and_graded_component_stay_on_numerators(f, d, constant):
    # The same operation on the integer form and on the Fraction map; the
    # integer result keeps fewer terms, so it must divide out their gcd.
    if constant:
        f = SymFunc("p", {**f.terms, (): constant}, f.degree)
    fractions = dict(f.terms.items())
    d = min(d, f.degree)
    with fractions_built() as built:
        truncated, graded = f.truncate(d), f.graded_component(d)
    assert built == []
    for got, want in (
            (truncated,
             SymFunc("p", {k: c for k, c in fractions.items() if k.weight <= d}, d)),
            (graded,
             SymFunc("p", {k: c for k, c in fractions.items() if k.weight == d}, f.degree))):
        terms = got.terms
        assert type(terms) is kernels.IntTerms
        assert all(type(k) is Partition for k in terms.nums)
        assert terms.den > 0 and all(terms.nums.values())
        assert math.gcd(terms.den, *terms.nums.values()) == 1
        assert got.degree == want.degree and got.basis == want.basis
        assert terms == want.terms and got == want


# ------------------------------------------------------------ value classes

def value_examples():
    from symkron import (Discrepancy, FactorizedSeries, UnivariateFactor,
                         VerificationReport)
    disc = Discrepancy(Partition((1,)), F(1), F(2))
    factor = UnivariateFactor(2, (1, 1))
    return [
        (lambda: Discrepancy(Partition((1,)), F(1), F(2)),
         Discrepancy(Partition((1,)), F(1), F(3)), "partition",
         "Discrepancy(partition=Partition(1,), lhs=Fraction(1, 1), rhs=Fraction(2, 1))"),
        (lambda: VerificationReport("H⊗H=H", 3, "fail", Discrepancy(Partition((1,)), F(1), F(2)), 5),
         VerificationReport("H⊗H=H", 3, "fail", disc, 6), "millis",
         "VerificationReport(identity='H⊗H=H', degree=3, status='fail', first_discrepancy="
         "Discrepancy(partition=Partition(1,), lhs=Fraction(1, 1), rhs=Fraction(2, 1)), "
         "millis=5)"),
        (lambda: UnivariateFactor(2, (1, 1)),
         UnivariateFactor(2, (1,)), "values",
         "UnivariateFactor(n=2, values=(1, 1))"),
        (lambda: FactorizedSeries(4, {2: factor}),
         FactorizedSeries(4, {}), "factors",
         "FactorizedSeries(degree=4, variables=[2])"),
        (lambda: SymFunc("p", {(2,): F(1, 2)}, 2),
         SymFunc("p", {(2,): F(1, 2)}, 3), "degree",
         "SymFunc('p', degree=2, 1 terms)"),
    ]


@pytest.mark.parametrize("make, other, field, text", value_examples(),
                         ids=["Discrepancy", "VerificationReport", "UnivariateFactor",
                              "FactorizedSeries", "SymFunc"])
def test_value_classes_compare_hash_guard_and_print_by_their_fields(make, other, field, text):
    value, twin = make(), make()
    assert value is not twin and value == twin and not value != twin
    assert value != other and other != value
    # The same fields in another class, or as a plain tuple, never compare.
    fields = {name: getattr(value, name) for name in type(value).__slots__}
    for foreign in (tuple(fields.values()), types.SimpleNamespace(**fields)):
        assert value.__eq__(foreign) is NotImplemented
        assert value != foreign
    if type(value).__name__ in ("FactorizedSeries", "SymFunc"):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
        assert len({value, twin, other}) == 2
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    assert value == twin
    assert repr(value) == text
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value
