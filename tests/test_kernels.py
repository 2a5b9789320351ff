import copy
import pickle
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import symkron
from conftest import (exp_by_definition, fractions_built, int_terms, mul_by_definition,
                      sum_by_definition)
from symkron import _kernels as kernels
from symkron.partitions import Partition, partitions_of, z
from symkron.series import SymFunc

F = Fraction
IntTerms = kernels.IntTerms


def test_backend_name_is_available():
    assert kernels.backend_name() == "python"


def test_mul_respects_limit():
    a = {(2,): Fraction(1), (1,): Fraction(1)}
    b = {(2,): Fraction(1)}
    assert kernels.mul_terms(int_terms(a), int_terms(b), 3) == {(2, 1): Fraction(1)}
    assert kernels.mul_terms(int_terms(a), int_terms(b), 1) == {}
    assert kernels.mul_terms(int_terms({}), int_terms(b), 9) == {}


def test_mul_cancellation_drops_zeros():
    a = {(1,): Fraction(1), (): Fraction(1)}
    b = {(1,): Fraction(-1), (): Fraction(1)}
    # (1 + p1)(1 - p1) = 1 - p1^2
    assert kernels.mul_terms(int_terms(a), int_terms(b), 2) == \
        {(): Fraction(1), (1, 1): Fraction(-1)}


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
    assert kernels.kron_terms(int_terms(a), int_terms(b)) == products
    total = kernels.scalar_terms(int_terms(a), int_terms(b))
    assert type(total) is Fraction
    assert total == sum(products.values(), F(0))


@settings(max_examples=200, deadline=None)
@given(TERM_MAPS, TERM_MAPS, st.integers(0, 10))
@example({(): F(1)}, {(): F(-2, 3), (1,): F(1)}, 0)
# keys above the limit, in either input, contribute nothing
@example({(5,): F(1), (1,): F(1, 2)}, {(1,): F(3)}, 3)
@example({(1,): F(3)}, {(2, 2): F(1), (): F(1, 7)}, 3)
@example({}, {(1,): F(1)}, 5)
@example({(1,): F(1)}, {}, 5)
# (1 + p1)(1 - p1) truncated at weight 1 is 1: the p1 terms cancel
@example({(1,): F(1), (): F(1)}, {(1,): F(-1), (): F(1)}, 1)
# a part-1 multiplicity equal to the limit fills its field exactly, with
# the limit one below a power of two (3 = 0b11) and at one (4 = 0b100)
@example({(1, 1): F(1, 2)}, {(1,): F(3)}, 3)
@example({(1, 1, 1): F(1, 2)}, {(1,): F(3), (2,): F(5)}, 4)
@example({(1,) * 3: F(-1, 3)}, {(1,) * 4: F(2), (2,): F(1)}, 7)
@example({(1,) * 3: F(-1, 3)}, {(1,) * 5: F(2), (3,): F(1)}, 8)
def test_mul_matches_definition(a, b, limit):
    product = kernels.mul_terms(int_terms(a), int_terms(b), limit)
    assert product == mul_by_definition(a, b, limit)
    assert all(type(c) is Fraction for c in product.values())


@settings(max_examples=100, deadline=None)
@given(TERM_MAPS.map(lambda a: {k: c for k, c in a.items() if k}), st.integers(0, 9))
@example({}, 0)
@example({(1,): F(-2, 3)}, 0)
# a multiplicity equal to the limit fills its field: 7 = 0b111, 8 = 0b1000
@example({(1,): F(3)}, 7)
@example({(1,): F(1), (2,): F(-1, 2)}, 8)
# keys above the limit contribute nothing
@example({(5,): F(1), (1, 1): F(1, 2)}, 4)
def test_exp_matches_definition(a, limit):
    g = kernels.exp_terms(int_terms(a), limit)
    assert g == exp_by_definition(a, limit)
    assert all(type(c) is Fraction for c in g.values())


def test_both_decoders_give_back_every_partition():
    # The kernels' code decoder and the beta-mask decoder of the p -> s
    # conversions build their results without Partition's checks; each must
    # still return every partition of n <= 14, as a Partition, from its
    # independently computed code or mask.
    from symkron.bases import _beta_mask, _mask_partition
    limit = 14
    shift = limit.bit_length()
    for n in range(limit + 1):
        for lam in partitions_of(n):
            code = sum(1 << ((part - 1) * shift) for part in lam)
            for decoded in (kernels._decode(code, shift), _mask_partition(_beta_mask(lam, n))):
                assert type(decoded) is Partition
                assert decoded == lam and Partition(decoded) == decoded


def test_units_code_only_the_part_sizes_of_the_inputs():
    # Part 12 is above the limit: its key is dropped before coding.
    a = int_terms({(3, 1): F(1), (1,): F(2)})
    b = int_terms({(12,): F(1), (): F(1)})
    assert kernels._units(10, a, b) == (4, {1: 1, 3: 1 << 8})
    assert kernels._units(10) == (4, {})


def test_square_of_p1_at_degree_8000_stays_small():
    # A code for every part size up to the degree would hold O(d**2) bits,
    # tens of MiB at d = 8000; the inputs contain one part size.
    f = SymFunc("p", {(1,): 1}, 8000)
    tracemalloc.start()
    try:
        square = f * f
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert square == SymFunc("p", {(1, 1): 1}, 8000)
    assert peak < 1 << 20


# Plain-tuple keys: the kernels read only the parts of a key, whatever its type.
SMALL = {tuple(lam): F(len(lam) - 2, sum(lam) + 1) for n in range(5) for lam in partitions_of(n)}
CONSTANT_FREE = {k: F(1, len(k) + 1) for k in SMALL if 0 < sum(k) <= 3}


@pytest.mark.parametrize("limits", [(8, 15), (15, 8), (7, 8), (8, 7)])
def test_decoded_codes_serve_every_limit(limits):
    # 8 and 15 share a field width, 7 and 8 do not; each order starts cold.
    assert (8).bit_length() == (15).bit_length() != (7).bit_length()
    symkron.clear_caches()
    for limit in limits:
        product = kernels.mul_terms(int_terms(SMALL), int_terms(SMALL), limit)
        assert product == mul_by_definition(SMALL, SMALL, limit)
        g = kernels.exp_terms(int_terms(CONSTANT_FREE), limit)
        assert g == exp_by_definition(CONSTANT_FREE, limit)
        assert all(type(k) is Partition for k in (*product, *g))
        table = kernels._decoded(limit.bit_length())
        assert table and all(type(k) is Partition for k in table.values())


@pytest.mark.parametrize("first", ["mul", "exp"])
def test_calls_share_one_key_object_per_partition(first):
    symkron.clear_caches()
    calls = {"mul": lambda: kernels.mul_terms(int_terms({(2,): F(1)}),
                                              int_terms({(1,): F(1), (2,): F(3)}), 9),
             "exp": lambda: kernels.exp_terms(int_terms({(1,): F(1), (2,): F(-1, 2)}), 12)}
    second = calls["exp" if first == "mul" else "mul"]()
    results = [calls[first](), second]
    shared = results[0].keys() & results[1].keys()
    assert Partition((2, 1)) in shared and Partition((2, 2)) in shared
    for lam in shared:
        a, b = (next(k for k in r if k == lam) for r in results)
        assert a is b


def test_plain_tuple_inputs_stay_out_of_the_table():
    symkron.clear_caches()
    a = {(1,): F(1), (): F(2)}
    b = {(1,): F(-1), (2,): F(1, 3)}
    product = kernels.mul_terms(int_terms(a), int_terms(b), 5)
    assert product == mul_by_definition(a, b, 5)
    assert product.keys() >= {(1,), (2,)}
    assert all(type(k) is Partition for k in product)
    table = kernels._decoded((5).bit_length())
    assert all(type(k) is Partition for k in table.values())
    assert not any(k is key for k in table.values() for key in (*a, *b))


# ------------------------------------------------------- the integer form
#
# The kernels take and return IntTerms: integer numerators over one
# reduced denominator, whose Fraction values are built when first read.
# The oracles above stay on Fraction maps.


def assert_reduced(t: IntTerms) -> None:
    assert type(t) is IntTerms
    assert t.den > 0
    assert all(type(v) is int and v for v in t.nums.values())
    assert gcd(t.den, *t.nums.values()) == 1


@settings(max_examples=100, deadline=None)
@given(TERM_MAPS)
@example({})
@example({(1,): F(2, 3), (2,): F(-1, 6), (): F(5, 4)})
def test_int_form_equals_fraction_form_key_by_key(a):
    with fractions_built() as built:
        t = int_terms(a)
    assert built == []
    assert_reduced(t)
    assert set(t) == set(a) and len(t) == len(a)
    for k, c in a.items():
        with fractions_built() as built:
            v = t[k]
        assert len(built) == 1 and v == c and type(v) is Fraction
        assert t.get(k) == c
    assert t.get((99,)) is None and t.get((99,), F(0)) == 0
    assert t == a and a == t
    assert not t != a and not a != t
    assert dict(t.items()) == a and sorted(t.values()) == sorted(a.values())


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from([lam for n in range(8) for lam in partitions_of(n)]),
                       st.integers(-10**6, 10**6).filter(bool), max_size=12),
       st.integers(1, 10**6), st.integers(1, 720))
@example({}, 12, 1)
@example({(1,): 4, (2,): -6}, 8, 3)
def test_reduced_form_is_canonical(nums, den, scale):
    t = IntTerms.reduced(nums, den)
    assert_reduced(t)
    fractions = {k: F(v, den) for k, v in nums.items()}
    assert t == fractions and fractions == t
    # the same map over a larger denominator reduces to the same fields
    u = IntTerms.reduced({k: v * scale for k, v in nums.items()}, den * scale)
    assert (u.den, u.nums) == (t.den, t.nums)
    assert u == t and t == u
    if nums:
        k = next(iter(nums))
        other = dict(fractions)
        other[k] += 1
        assert t != other and other != t
        assert t != int_terms(other) and int_terms(other) != t
        # the same numerators over another denominator are another map
        assert t != IntTerms(t.nums, 2 * t.den) and IntTerms(t.nums, 2 * t.den) != t


def test_int_form_equality_with_other_values():
    t = IntTerms.reduced({Partition((1,)): 1}, 2)
    assert t != [(Partition((1,)), F(1, 2))]
    assert t != F(1, 2) and t != None  # noqa: E711
    assert t == {(1,): F(1, 2)} and t != {(1,): F(1, 3)} and t != {}
    assert IntTerms.reduced({}, 5) == {} == IntTerms({}, 1)
    assert repr(t) == "IntTerms({Partition(1,): 1}, den=2)"


def test_int_form_is_read_only():
    t = kernels.mul_terms(int_terms({(1,): F(1, 2)}), int_terms({(1,): F(1, 3), (): F(1)}), 4)
    before = (t.den, dict(t.nums))
    key = Partition((1,))
    with pytest.raises(TypeError):
        t[key] = F(1)
    with pytest.raises(TypeError):
        del t[key]
    with pytest.raises(AttributeError):
        t.extra = 1
    with pytest.raises(TypeError):
        hash(t)
    for field in ("nums", "den"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(t, field, 3)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(t, field)
    assert (t.den, dict(t.nums)) == before
    for copied in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert type(copied) is IntTerms and (copied.den, copied.nums) == (t.den, t.nums)
        assert repr(copied) == repr(t)


# ------------------------------------------------- the linear-combination kernel

@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-12, 12), TERM_MAPS), max_size=4),
       st.integers(1, 60))
@example([], 1)
@example([], 7)
@example([(3, {(1,): F(1, 2), (2,): F(1, 4)}), (-6, {(1,): F(1, 4)})], 2)
@example([(0, {(1,): F(5, 3)})], 3)
def test_sum_terms_matches_fractions(rows, den):
    got = kernels.sum_terms([(c, int_terms(row)) for c, row in rows], den)
    assert_reduced(got)
    assert got == sum_by_definition(rows, den)
    for c, row in rows:
        t = int_terms(row)
        # a row minus itself cancels to the empty map over 1
        diff = kernels.sum_terms([(c, t), (-c, t)], den)
        assert (diff.den, dict(diff.nums)) == (1, {})


# ------------------------------------------------- the class-value embedding

#: Keys of mixed weights up to 8, and the one-part powers (n,) * k of the
#: factors and exponents up to k = 30.
CLASS_KEYS = sorted({lam for n in range(9) for lam in partitions_of(n)}
                    | {Partition((n,) * k) for n in range(1, 5) for k in range(31)})


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(CLASS_KEYS),
                       st.one_of(st.just(0), st.integers(-10**40, 10**40)), max_size=12))
@example({})
@example({(): 0, (2, 1): 0})
@example({Partition((3,) * k): k - 7 for k in range(31)})
@example({Partition((1,) * k): z((1,) * k) for k in range(31)})
def test_class_terms_matches_fractions(values):
    # sum of v p_mu / z(mu) on Fractions, brought to the integer form
    got = kernels.class_terms(values.items())
    assert_reduced(got)
    assert got == int_terms({mu: F(v, z(mu)) for mu, v in values.items() if v})
    assert all(type(k) is Partition for k in got)


@settings(max_examples=100, deadline=None)
@given(TERM_MAPS, TERM_MAPS, st.integers(0, 10))
def test_key_reads_build_no_fractions(a, b, limit):
    ia, ib = int_terms(a), int_terms(b)
    results = [kernels.mul_terms(ia, ib, limit), kernels.kron_terms(ia, ib),
               kernels.exp_terms(int_terms({k: c for k, c in a.items() if k}), limit)]
    for t in results:
        assert_reduced(t)
        assert t.keys() == t.nums.keys()
        with fractions_built() as built:
            len(t), list(t), [k in t for k in a], (9,) in t
            t.keys() & b.keys(), t.keys() | b.keys()
            kernels.mul_terms(t, t, limit), kernels.kron_terms(t, ib)
            t == IntTerms(t.nums, t.den)
        assert built == []
        # the scalar builds one Fraction, its result
        with fractions_built() as built:
            kernels.scalar_terms(t, ia)
        assert len(built) == 1
        if t:
            with fractions_built() as built:
                t[next(iter(t))]
            assert len(built) == 1


@settings(max_examples=100, deadline=None)
@given(TERM_MAPS, TERM_MAPS, st.integers(0, 10))
@example({(1,): F(1, 2), (): F(1)}, {(1,): F(-2, 3)}, 3)
def test_kernels_on_mixed_inputs_match_definition(a, b, limit):
    ia, ib = int_terms(a), int_terms(b)
    product = mul_by_definition(a, b, limit)
    got = kernels.mul_terms(ia, ib, limit)
    assert_reduced(got)
    assert got == product and product == got
    diagonal = {k: a[k] * b[k] * z(k) for k in a.keys() & b.keys()}
    scalar = sum(diagonal.values(), F(0))
    assert kernels.kron_terms(ia, ib) == diagonal
    assert kernels.scalar_terms(ia, ib) == scalar
    free = {k: c for k, c in a.items() if k}
    g = kernels.exp_terms(int_terms(free), min(limit, 8))
    assert_reduced(g)
    assert g == exp_by_definition(free, min(limit, 8))


def test_diagonal_kernels_read_z_by_key_type(monkeypatch):
    # The Partition keys of a term map read z's memo itself, never the
    # validating z: the kernels do not import it.
    calls = []
    real_z = symkron.partitions.z

    def counted(k):
        calls.append(k)
        return real_z(k)

    monkeypatch.setattr(symkron.partitions, "z", counted)
    assert not hasattr(kernels, "z")
    a = {Partition((2, 1)): F(1, 2), Partition((1, 1, 1)): F(3), Partition((3,)): F(-1, 3)}
    b = {Partition((2, 1)): F(5), Partition((3,)): F(2, 7)}
    diagonal = {k: a[k] * b[k] * z(k) for k in a.keys() & b.keys()}
    scalar = sum(diagonal.values(), F(0))
    assert kernels.kron_terms(int_terms(a), int_terms(b)) == diagonal
    assert kernels.scalar_terms(int_terms(a), int_terms(b)) == scalar
    assert calls == []
