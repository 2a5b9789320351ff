import itertools
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from symkron import partitions
from symkron.bases import character, schur_by_gram_schmidt
from symkron.named import FactorizedSeries, expand, exponent, factor, factorize
from symkron.partitions import Partition, conjugate, partitions_of, z
from symkron.products import UnivariateFactor, kronecker_coefficient
from symkron.series import SymFunc
from symkron.verify import run_suite

# p(0) .. p(12)
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def brute_force_count(n):
    """Independent counting oracle: p(n, max part k) recursion."""
    def count(m, k):
        if m == 0:
            return 1
        if k == 0:
            return 0
        return sum(count(m - first, first) for first in range(1, min(m, k) + 1))
    return count(n, n)


def test_counts_match_known_sequence():
    for n, expected in enumerate(PARTITION_COUNTS):
        assert len(partitions_of(n)) == expected


def test_counts_match_brute_force():
    for n in range(9):
        assert len(partitions_of(n)) == brute_force_count(n)
    assert brute_force_count(8) == 22


def test_zero_gives_empty_partition():
    assert partitions_of(0) == [Partition(())]


def test_order_of_partitions_of_four():
    assert [tuple(p) for p in partitions_of(4)] == [
        (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]


def test_enumeration_strictly_increasing():
    for n in range(13):
        ps = partitions_of(n)
        assert all(a < b for a, b in zip(ps, ps[1:]))


def test_each_partition_exactly_once():
    for n in range(11):
        ps = partitions_of(n)
        assert len(set(ps)) == len(ps)
        assert all(p.weight == n for p in ps)


def largest_first(n, largest):
    """Independent enumeration: every partition of n with parts at most
    largest, in descending order, by recursion on the first part."""
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in largest_first(n - first, first):
            yield (first,) + rest


def test_partitions_of_matches_an_independent_enumeration():
    # Built cold from the largest weight down, so each list is made from
    # the shorter ones inside one call.
    partitions._partitions.cache_clear()
    for n in range(22, -1, -1):
        got = partitions_of(n)
        assert got == list(reversed(list(largest_first(n, n))))
        assert all(type(lam) is Partition for lam in got)
        again = partitions_of(n)
        assert again == got and again is not got
        assert all(a is b for a, b in zip(again, got))


def test_negative_weight_rejected():
    for n in (-1, True, 2.5):  # a bool is an int subclass
        with pytest.raises(ValueError):
            partitions_of(n)


@given(st.integers(min_value=0, max_value=12))
def test_conjugate_is_involutive(n):
    for lam in partitions_of(n):
        assert conjugate(conjugate(lam)) == lam
        assert conjugate(lam).weight == n


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()


def test_z_examples():
    assert z((1, 1, 1)) == 6
    assert z((2, 1)) == 2
    assert z(()) == 1
    # 1^1*1! * 4^2*2! * 7^2*2!
    assert z((7, 7, 4, 4, 1)) == 1 * 1 * 16 * 2 * 49 * 2 == 3136


def test_z_accepts_any_partition_sequence_and_memoizes_per_partition():
    assert z([3, 3, 1]) == z((3, 3, 1)) == z(Partition((3, 3, 1))) == 18
    assert z([]) == 1
    lam = Partition((5, 2, 2))
    z(lam)
    hits = partitions._z.cache_info().hits
    assert z((5, 2, 2)) == z(lam) == 5 * 4 * 2
    assert partitions._z.cache_info().hits == hits + 2


# None of these is a partition, so each must raise rather than be answered
# or cached; the tuples of bools and floats equal, and hash like, the
# partitions (1, 1) and (2,) put in the memo first.
@pytest.mark.parametrize("bad", [[1, 2, 1], [0], [-1, -1], [2.5], [True, True],
                                 (True, True), (2.0,), ["2"], (1, 2)])
def test_z_rejects_what_is_not_a_partition(bad):
    z((1, 1))
    z((2,))
    size = partitions._z.cache_info().currsize
    with pytest.raises(ValueError, match="parts must be"):
        z(bad)
    assert partitions._z.cache_info().currsize == size


def cycle_type(perm):
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def test_z_counts_conjugacy_classes():
    # n!/z(lam) must equal the number of permutations of cycle type lam
    for n in range(1, 6):
        sizes = {}
        for perm in itertools.permutations(range(n)):
            ct = cycle_type(perm)
            sizes[ct] = sizes.get(ct, 0) + 1
        for lam in partitions_of(n):
            assert factorial(n) % z(lam) == 0
            assert factorial(n) // z(lam) == sizes[tuple(lam)]


def test_z_class_equation():
    for n in range(11):
        assert sum(Fraction(1, z(lam)) for lam in partitions_of(n)) == 1


def test_multiplicities_round_trip():
    for n in range(9):
        for lam in partitions_of(n):
            mult = lam.multiplicities()
            rebuilt = sorted(
                (v for v, r in mult.items() for _ in range(r)), reverse=True)
            assert tuple(rebuilt) == tuple(lam)
            assert sum(v * r for v, r in mult.items()) == lam.weight


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((2, -1))
    with pytest.raises(ValueError):
        Partition(("2",))
    with pytest.raises(ValueError):
        Partition((True,))


def test_a_part_list_that_is_not_iterable_is_a_value_error():
    # each of these used to raise TypeError: 'int' object is not iterable
    calls = [Partition, z, SymFunc.one("p", 2).coefficient,
             lambda lam: SymFunc.single("p", lam, 3),
             lambda lam: character(lam, (1, 1, 1)),
             lambda lam: kronecker_coefficient(lam, (1,), (1,))]
    for call in calls:
        with pytest.raises(ValueError, match=r"^parts must be positive integers: 5$"):
            call(5)
    # the JSON boundary keeps its own prefix
    data = {"basis": "p", "degree": 3, "terms": [{"partition": 5, "coefficient": 1}]}
    with pytest.raises(ValueError, match="^malformed series JSON: "):
        SymFunc.from_json_dict(data)


#: Every public integer argument, by the call that takes it, the name its
#: message gives, and whether it must be positive rather than non-negative.
#: ``FactorizedSeries`` used to take any degree and fail only at ``expand``.
INTEGER_ARGUMENTS = {
    "partitions_of": (partitions_of, "n", False),
    "SymFunc": (lambda d: SymFunc.zero("p", d), "truncation degree", False),
    "SymFunc.truncate": (lambda d: SymFunc.one("p", 4).truncate(d), "truncation degree", False),
    "exponent": (lambda d: exponent("S", d), "degree", False),
    "expand": (lambda d: expand("S", d), "degree", False),
    "factorize": (lambda d: factorize("S", d), "degree", False),
    "factor n": (lambda n: factor("S", n, 3), "variable index", True),
    "factor order": (lambda k: factor("S", 2, k), "order", False),
    "run_suite": (run_suite, "verify degree", False),
    "schur_by_gram_schmidt": (schur_by_gram_schmidt, "weight", True),
    "UnivariateFactor": (lambda n: UnivariateFactor(n, (1,)), "variable index", True),
    "UnivariateFactor.to_symfunc": (lambda d: UnivariateFactor(1, (1, 1)).to_symfunc(d),
                                    "truncation degree", False),
    "FactorizedSeries": (lambda d: FactorizedSeries(d, {1: UnivariateFactor(1, (1, 1))}),
                         "degree", False),
}


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_every_integer_argument_follows_one_rule(name):
    call, what, positive = INTEGER_ARGUMENTS[name]
    kind = "positive" if positive else "non-negative"
    for bad in (True, 2.5, -1, "3") + ((0,) if positive else ()):
        with pytest.raises(ValueError, match=f"^{what} must be a {kind} integer: "
                                             f"{re.escape(repr(bad))}$"):
            call(bad)


def test_partition_behaves_like_tuple():
    lam = Partition((2, 1))
    assert lam == (2, 1)
    assert hash(lam) == hash((2, 1))
    assert {lam: 1}[(2, 1)] == 1
    assert Partition((2, 2)) < Partition((3, 1)) < Partition((4,))
