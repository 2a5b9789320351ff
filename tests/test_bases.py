import random
from fractions import Fraction
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

import symkron
from conftest import (constant_free_p_series, exp_by_definition, fractions_built,
                      m_in_p_by_fractions, p_in_m_by_fractions, random_symfunc)
from symkron import _kernels as kernels
from symkron.bases import (
    character,
    character_table,
    exp_in_s,
    from_p,
    schur_by_gram_schmidt,
    to_p,
)
from symkron.named import TAGS, expand, exponent
from symkron.partitions import Partition, partitions_of, z
from symkron.products import kronecker, kronecker_coefficient, scalar_product
from symkron.series import BASES, BasisError, SymFunc, exp_series

F = Fraction


def newton_in_p(n, sign):
    """h_n (sign 1) or e_n (sign -1) over p by Newton's identity
    k g_k = sum_{j=1..k} sign^(j - 1) p_j g_{k-j}; independent of the closed
    form sum over lam of p_lam / z_lam that the conversions use."""
    g = [{(): F(1)}]
    for k in range(1, n + 1):
        acc = {}
        for j in range(1, k + 1):
            for key, c in g[k - j].items():
                grown = tuple(sorted(key + (j,), reverse=True))
                acc[grown] = acc.get(grown, 0) + sign ** (j - 1) * c
        g.append({key: c / k for key, c in acc.items()})
    return g[n]


def h_in_p_oracle(n):
    return newton_in_p(n, 1)


def e_in_p_oracle(n):
    return newton_in_p(n, -1)


def hook_dimension(lam):
    """Number of standard Young tableaux, by the hook length formula."""
    lam = Partition(lam)
    conj = lam.conjugate()
    dim = factorial(lam.weight)
    for i, row in enumerate(lam):
        for j in range(row):
            dim //= row - j + conj[j] - i - 1
    return dim


# ------------------------------------------------------------ characters

def test_trivial_representation():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert character((n,), mu) == 1


def test_sign_representation_value():
    assert character((1, 1), (2,)) == -1


def test_standard_representation_dimension():
    assert character((2, 1), (1, 1, 1)) == 2


def test_character_weight_mismatch():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))


S3_CLASSES = [(1, 1, 1), (2, 1), (3,)]
S3_TABLE = {
    (3,): [1, 1, 1],
    (2, 1): [2, 0, -1],
    (1, 1, 1): [1, -1, 1],
}

S4_CLASSES = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
S4_TABLE = {
    (4,): [1, 1, 1, 1, 1],
    (3, 1): [3, 1, -1, 0, -1],
    (2, 2): [2, 0, 2, -1, 0],
    (2, 1, 1): [3, -1, -1, 0, 1],
    (1, 1, 1, 1): [1, -1, 1, 1, -1],
}


def test_frozen_small_tables():
    for lam, row in S3_TABLE.items():
        assert [character(lam, mu) for mu in S3_CLASSES] == row
    for lam, row in S4_TABLE.items():
        assert [character(lam, mu) for mu in S4_CLASSES] == row


def test_dimension_matches_hook_length_formula():
    for n in range(1, 8):
        ones = (1,) * n
        for lam in partitions_of(n):
            assert character(lam, ones) == hook_dimension(lam)


def test_row_orthogonality():
    for n in range(1, 9):
        lams = partitions_of(n)
        for lam in lams:
            for nu in lams:
                total = sum(
                    F(character(lam, mu) * character(nu, mu), z(mu)) for mu in lams)
                assert total == (1 if lam == nu else 0)


def test_column_orthogonality():
    for n in range(1, 8):
        lams = partitions_of(n)
        for mu in lams:
            for nu in lams:
                total = sum(character(lam, mu) * character(lam, nu) for lam in lams)
                assert total == (z(mu) if mu == nu else 0)


def test_character_table_object():
    table = character_table(4)
    lams = partitions_of(4)
    assert list(table) == [(l, m) for l in lams for m in lams]
    assert all(type(l) is Partition and type(m) is Partition for l, m in table)
    assert table[(2, 2), (3, 1)] == -1
    for lam in partitions_of(4):
        assert table[lam, (1, 1, 1, 1)] > 0


# ------------------------------------------------------------ conversions

def test_h2_and_e2_over_p():
    assert to_p(SymFunc.single("h", (2,), 2)).terms == \
        {(1, 1): F(1, 2), (2,): F(1, 2)}
    assert to_p(SymFunc.single("e", (2,), 2)).terms == \
        {(1, 1): F(1, 2), (2,): F(-1, 2)}


def test_schur_11_equals_e2():
    assert to_p(SymFunc.single("s", (1, 1), 2)) == to_p(SymFunc.single("e", (2,), 2))


def oracle_product(tables, lam):
    """prod_i tables[lam_i] over p, multiplied out term by term."""
    out = {(): F(1)}
    for part in lam:
        grown = {}
        for a, ca in out.items():
            for b, cb in tables[part].items():
                key = tuple(sorted(a + b, reverse=True))
                grown[key] = grown.get(key, 0) + ca * cb
        out = {key: c for key, c in grown.items() if c}
    return out


def test_hn_en_match_newton_oracle():
    # every h_lam, e_lam and p_mu table of weight <= 10, against products of
    # the Newton oracle's single-part tables
    h = [h_in_p_oracle(n) for n in range(11)]
    e = [e_in_p_oracle(n) for n in range(11)]
    for n in range(11):
        h_products = {lam: oracle_product(h, lam) for lam in partitions_of(n)}
        for lam, h_lam in h_products.items():
            assert to_p(SymFunc.single("h", lam, n)).terms == h_lam
            assert to_p(SymFunc.single("e", lam, n)).terms == oracle_product(e, lam)
        for mu in partitions_of(n):
            back = {}
            for lam, c in from_p(SymFunc.single("p", mu, n), "h").terms.items():
                for nu, d in h_products[lam].items():
                    back[nu] = back.get(nu, 0) + c * d
            assert {nu: c for nu, c in back.items() if c} == {mu: 1}


def test_from_p_examples():
    p1_squared = SymFunc.single("p", (1, 1), 2)
    assert from_p(p1_squared, "h") == SymFunc.single("h", (1, 1), 2)
    assert from_p(p1_squared, "m").terms == {(1, 1): F(2), (2,): F(1)}

    h2 = SymFunc("p", {(1, 1): F(1, 2), (2,): F(1, 2)}, 2)
    assert from_p(h2, "s") == SymFunc.single("s", (2,), 2)


def test_from_p_requires_p_input():
    with pytest.raises(BasisError):
        from_p(SymFunc.single("h", (1,), 1), "m")
    with pytest.raises(BasisError):
        from_p(SymFunc.single("p", (1,), 1), "q")


def test_round_trips_all_bases():
    rng = random.Random(42)
    for basis in BASES:
        for _ in range(6):
            f = random_symfunc(rng, basis, 8)
            assert from_p(to_p(f), basis) == f


def test_round_trips_from_p_side():
    rng = random.Random(43)
    for basis in BASES:
        for _ in range(6):
            f = random_symfunc(rng, "p", 8)
            assert to_p(from_p(f, basis)) == f


def test_weight_zero_passes_through():
    c = SymFunc("p", {(): F(5, 3)}, 0)
    for basis in BASES:
        assert from_p(c, basis).terms == {(): F(5, 3)}
        assert to_p(SymFunc(basis, {(): F(5, 3)}, 0)).terms == {(): F(5, 3)}


def test_classical_identities_in_m():
    # h_n = sum of all m_lam; e_n = m_(1^n); p_n = m_(n)
    for n in range(1, 9):
        h_m = from_p(to_p(SymFunc.single("h", (n,), n)), "m")
        assert h_m.terms == {tuple(lam): F(1) for lam in partitions_of(n)}
        e_m = from_p(to_p(SymFunc.single("e", (n,), n)), "m")
        assert e_m.terms == {(1,) * n: F(1)}
        p_m = from_p(SymFunc.single("p", (n,), n), "m")
        assert p_m.terms == {(n,): F(1)}


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from([lam for n in range(9) for lam in partitions_of(n)]),
                       st.fractions(-40, 40, max_denominator=36), max_size=10))
def test_from_p_to_m_matches_scalar_products_with_h(terms):
    # [m_lam] f = <f, h_lam>, one scalar product per lam of every weight up to 8
    f = SymFunc("p", terms, 8)
    expected = {lam: scalar_product(f, SymFunc.single("h", lam, 8))
                for n in range(9) for lam in partitions_of(n)}
    assert from_p(f, "m") == SymFunc("m", expected, 8)


def count_monomials(lam, k):
    """m_lam evaluated at x_1 = ... = x_k = 1: distinct monomial count."""
    lam = Partition(lam)
    if len(lam) > k:
        return 0
    count = factorial(k) // factorial(k - len(lam))
    for mult in lam.multiplicities().values():
        count //= factorial(mult)
    return count


def test_m_conversion_against_evaluation_oracle():
    # evaluating p_n -> k must agree with the monomial-count specialization
    rng = random.Random(99)
    for _ in range(8):
        f = random_symfunc(rng, "p", 7)
        m = from_p(f, "m")
        for k in (1, 2, 3, 5):
            direct = sum(c * k ** len(lam) for lam, c in f.terms.items())
            via_m = sum(c * count_monomials(lam, k) for lam, c in m.terms.items())
            assert direct == via_m


def test_h_evaluation_oracle():
    # h_n(1^k) = C(n + k - 1, n)
    for n in range(1, 8):
        hp = to_p(SymFunc.single("h", (n,), n))
        for k in (1, 2, 4):
            assert sum(c * k ** len(lam) for lam, c in hp.terms.items()) == \
                comb(n + k - 1, n)


def test_h_and_e_conversions_against_evaluation_oracle():
    # at x_1 = ... = x_k = 1: p_mu -> k^len(mu), h_lam -> prod C(lam_i + k - 1, lam_i)
    # and e_lam -> prod C(k, lam_i); the evaluations use no conversion table
    rng = random.Random(101)
    for _ in range(8):
        f = random_symfunc(rng, "p", 8)
        h = from_p(f, "h")
        e = from_p(f, "e")
        for k in (1, 2, 3, 5):
            direct = sum(c * k ** len(lam) for lam, c in f.terms.items())
            via_h = sum(c * prod(comb(part + k - 1, part) for part in lam)
                        for lam, c in h.terms.items())
            via_e = sum(c * prod(comb(k, part) for part in lam) for lam, c in e.terms.items())
            assert direct == via_h == via_e


# ----------------------------------------------------------- Schur layer

def test_schur_orthonormality():
    for n in range(1, 8):
        lams = partitions_of(n)
        schurs = {lam: SymFunc.single("s", lam, n) for lam in lams}
        for lam in lams:
            for mu in lams:
                assert scalar_product(schurs[lam], schurs[mu]) == \
                    (1 if lam == mu else 0)


def test_gram_schmidt_weight_one():
    assert schur_by_gram_schmidt(1) == {
        Partition((1,)): SymFunc.single("m", (1,), 1)}


def test_gram_schmidt_weight_two():
    got = schur_by_gram_schmidt(2)
    assert got[Partition((1, 1))] == SymFunc.single("m", (1, 1), 2)
    assert got[Partition((2,))] == SymFunc("m", {(2,): 1, (1, 1): 1}, 2)


def test_gram_schmidt_weight_three_kostka():
    got = schur_by_gram_schmidt(3)
    assert got[Partition((2, 1))] == SymFunc("m", {(2, 1): 1, (1, 1, 1): 2}, 3)
    assert got[Partition((3,))] == \
        SymFunc("m", {(3,): 1, (2, 1): 1, (1, 1, 1): 1}, 3)


def test_gram_schmidt_matches_character_route():
    for n in range(1, 10):
        got = schur_by_gram_schmidt(n)
        for lam in partitions_of(n):
            by_characters = from_p(to_p(SymFunc.single("s", lam, n)), "m")
            assert got[lam] == by_characters


def test_gram_schmidt_vectors_have_unit_norm():
    for n in range(1, 10):
        for vec in schur_by_gram_schmidt(n).values():
            assert scalar_product(vec, vec) == 1


def test_gram_schmidt_reads_only_the_m_to_p_rows():
    # The oracle reads the p -> h rows and the class sizes that build
    # [p_mu] m_lam, and nothing of the character route it is checked
    # against: no column, character row, p -> m row or oracle character.
    bases = symkron.bases
    symkron.clear_caches()
    try:
        schur_by_gram_schmidt(7)
        for memo in (bases._column, bases._char_row, bases._p_in_m, bases._hlam_in_p):
            assert memo.cache_info().currsize == 0, memo
        assert not bases._char_cache
        assert bases._plam_in_h.cache_info().currsize
        assert bases._class_sizes.cache_info().currsize == 1
    finally:
        symkron.clear_caches()


def test_gram_schmidt_rejects_weight_zero():
    for bad in (0, True, 1.5):
        with pytest.raises(ValueError):
            schur_by_gram_schmidt(bad)


# -------------------------------------- conversions against the oracle route
#
# The conversions read character columns; ``character`` strips rows through
# its own memo.  These tests hold the two routes against each other.

def s_expansion_by_oracle(f):
    """[s_lam] f = sum over mu of [p_mu] f * chi^lam(mu), from ``character``."""
    terms = {}
    for n in f.weights():
        for lam in partitions_of(n):
            terms[lam] = sum((c * character(lam, mu)
                              for mu, c in f.terms.items() if mu.weight == n), F(0))
    return SymFunc("s", terms, f.degree)


PARTITIONS_UP_TO_10 = [lam for n in range(11) for lam in partitions_of(n)]


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(PARTITIONS_UP_TO_10),
                       st.fractions(-40, 40, max_denominator=36), max_size=8))
def test_from_p_to_s_matches_character_sums(terms):
    f = SymFunc("p", terms, 10)
    assert from_p(f, "s") == s_expansion_by_oracle(f)


# The Horner sum groups terms by their smallest part, across weights; these
# inputs fill whole weights and share trie paths, which the random terms
# above seldom do.

def test_from_p_to_s_of_every_cycle_type_of_one_weight():
    rng = random.Random(11)
    for n in range(11):
        terms = {mu: F(rng.randint(-40, 40), rng.randint(1, 36)) for mu in partitions_of(n)}
        f = SymFunc("p", terms, n)
        assert from_p(f, "s") == s_expansion_by_oracle(f), n


def test_from_p_to_s_of_weights_sharing_trie_paths():
    # every prefix and every suffix of three long cycle types, so terms of
    # different weights share their smallest parts and their largest ones
    rng = random.Random(12)
    longest = [(5, 4, 2, 2, 1, 1), (3, 3, 2, 1, 1, 1, 1), (6, 2, 2, 2)]
    keys = {mu[:i] for mu in longest for i in range(len(mu) + 1)}
    keys |= {mu[i:] for mu in longest for i in range(len(mu) + 1)}
    terms = {mu: F(rng.randint(-40, 40), rng.randint(1, 36)) for mu in keys}
    f = SymFunc("p", terms, 16)
    assert f.weights() == sorted({sum(mu) for mu in keys})
    assert from_p(f, "s") == s_expansion_by_oracle(f)


@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_one_cycle_in_s_is_the_alternating_hook_sum(n):
    # p_n = sum over k < n of (-1)^k s_(n-k, 1^k) (Macdonald, I.3 Ex. 11),
    # from cold caches: a sparse input reads back only the masks it makes.
    symkron.clear_caches()
    hooks = {(n - k,) + (1,) * k: (-1) ** k for k in range(n)}
    assert from_p(SymFunc.single("p", (n,), n), "s") == SymFunc("s", hooks, n)


def test_from_p_to_s_keeps_the_constant_term():
    assert from_p(SymFunc.single("p", (), 4, F(-5, 3)), "s") == \
        SymFunc.single("s", (), 4, F(-5, 3))
    f = SymFunc("p", {(): F(7, 2), (1,): 1, (1, 1): F(1, 2)}, 3)
    assert from_p(f, "s") == SymFunc("s", {(): F(7, 2), (1,): 1, (2,): F(1, 2),
                                           (1, 1): F(1, 2)}, 3)
    assert from_p(SymFunc.zero("p", 3), "s") == SymFunc.zero("s", 3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["h", "e"]),
       st.dictionaries(st.sampled_from(PARTITIONS_UP_TO_10),
                       st.fractions(-40, 40, max_denominator=36), max_size=8))
def test_h_and_e_round_trip_through_p(basis, terms):
    f = SymFunc(basis, terms, 10)
    assert from_p(to_p(f), basis) == f


def test_schur_in_p_matches_characters_over_z():
    for n in range(11):
        for lam in partitions_of(n):
            expected = {mu: F(character(lam, mu), z(mu)) for mu in partitions_of(n)}
            expected = {mu: c for mu, c in expected.items() if c}
            assert to_p(SymFunc.single("s", lam, n)).terms == expected


def test_named_series_schur_expansions_match_oracle():
    for tag in TAGS:
        f = expand(tag, 12)
        assert from_p(f, "s") == s_expansion_by_oracle(f), tag


def test_kronecker_coefficients_weight_seven_match_oracle():
    lams = partitions_of(7)
    for lam in lams:
        for mu in lams:
            for rho in lams:
                assert kronecker_coefficient(lam, mu, rho) == \
                    kronecker_coefficient(lam, mu, rho, oracle=True), (lam, mu, rho)


def test_char_rows_and_class_sizes_are_dense_in_partition_order():
    for n in range(9):
        mus = partitions_of(n)
        sizes = symkron.bases._class_sizes(n)
        assert type(sizes) is tuple
        assert sizes == tuple(factorial(n) // z(mu) for mu in mus)
        for lam in mus:
            row = symkron.bases._char_row(lam)
            assert type(row) is tuple
            assert row == tuple(character(lam, mu) for mu in mus), lam


def test_p_to_m_rows_are_integers_equal_to_the_fraction_rows():
    for n in range(11):
        for mu in partitions_of(n):
            row = symkron.bases._p_in_m(mu)
            assert row.den == 1 and all(type(v) is int and v > 0 for v in row.nums.values())
            oracle = p_in_m_by_fractions(mu)
            assert (row.den, row.nums) == (oracle.den, oracle.nums), mu
            assert list(row.nums) == list(oracle.nums), mu


def test_m_to_p_rows_built_on_integers_equal_the_fraction_rows():
    # _m_in_p holds [h_lam] p_mu times the class size over n!, which needs
    # every p -> h row to be over 1
    for n in range(11):
        for lam in partitions_of(n):
            assert symkron.bases._plam_in_h(lam).den == 1, lam
            row = symkron.bases._m_in_p(lam)
            oracle = m_in_p_by_fractions(lam)
            assert (row.den, row.nums) == (oracle.den, oracle.nums), lam
            assert list(row.nums) == list(oracle.nums), lam


def test_clear_caches_gives_cold_results_equal_to_warm():
    f = expand("SEinv", 9)

    def results():
        return (from_p(f, "s"), from_p(f, "m"), from_p(f, "e"), from_p(f, "h"),
                to_p(SymFunc.single("s", (4, 3, 1, 1), 9)),
                to_p(SymFunc.single("m", (2, 2, 1), 5)),
                *(to_p(SymFunc.single(b, (3, 2, 1), 7, F(-3, 2))) for b in "shem"),
                *(from_p(SymFunc.single("p", (3, 1, 1), 5), b) for b in "hem"),
                character((3, 2, 1), (2, 2, 1, 1)),
                kronecker_coefficient((4, 3, 2), (5, 2, 2), (3, 3, 3)))

    warm = results()
    memos = {f"{module.__name__}.{name}": obj
             for module in (symkron.bases, symkron.named, symkron.partitions,
                            symkron._kernels)
             for name, obj in vars(module).items() if hasattr(obj, "cache_clear")}
    assert {"symkron.bases._column",
            "symkron.bases._hlam_in_p", "symkron.bases._plam_in_h",
            "symkron.bases._p_in_m", "symkron.bases._char_row",
            "symkron.bases._class_sizes",
            "symkron.named._expand_cached",
            "symkron.partitions._partitions", "symkron.partitions._z",
            "symkron._kernels._decoded"} <= memos.keys()
    assert all(memo.cache_info().currsize for memo in memos.values())
    assert symkron.bases._char_cache
    symkron.clear_caches()
    assert {name: memo.cache_info().currsize for name, memo in memos.items()} == \
        dict.fromkeys(memos, 0)
    assert not symkron.bases._char_cache
    assert results() == warm


def test_single_term_conversions_copy_rows_and_leave_them_intact():
    # A single term converts to terms of its own, equal to its memo row but
    # never that object, so no value holds a row; and no operation may
    # write through a row.
    lam = Partition((3, 2, 1))
    bases = symkron.bases
    memos = [bases._s_in_p, bases._hlam_in_p, bases._m_in_p, bases._plam_in_h, bases._p_in_m]
    keys = [lam, Partition((2,)), Partition((4, 2)), Partition((1,) * 6), Partition()]
    snapshot = {(memo, key): dict(memo(key)) for memo in memos for key in keys}

    for key in keys:
        for got, row in ((to_p(SymFunc.single("s", key, 6)).terms, bases._s_in_p(key)),
                         (to_p(SymFunc.single("h", key, 6)).terms, bases._hlam_in_p(key)),
                         (to_p(SymFunc.single("m", key, 6)).terms, bases._m_in_p(key)),
                         (from_p(SymFunc.single("p", key, 6), "h").terms, bases._plam_in_h(key)),
                         (from_p(SymFunc.single("p", key, 6), "m").terms, bases._p_in_m(key))):
            assert got == row and got is not row
    # the empty row, as h_() and p_() and as plethysm's empty substitution
    h2 = to_p(SymFunc.single("h", (2,), 6))
    for one in (to_p(SymFunc.one("h", 6)), from_p(SymFunc.one("p", 6), "h"),
                symkron.plethysm(SymFunc.one("p", 6), h2)):
        assert one.terms == bases._EMPTY_ROW and one.terms is not bases._EMPTY_ROW

    assert kronecker_coefficient(lam, lam, lam) == kronecker_coefficient(lam, lam, lam,
                                                                         oracle=True)
    kronecker(SymFunc.single("s", lam, 6), SymFunc.single("m", (4, 2), 6))
    kronecker(SymFunc.single("h", lam, 6), SymFunc.single("e", (1,) * 6, 6))
    scalar_product(SymFunc.single("m", lam, 6), SymFunc.single("h", lam, 6))
    symkron.plethysm(to_p(SymFunc.single("s", (2,), 6)), h2)
    symkron.plethysm(SymFunc.single("s", (2, 1), 6), h2)
    c = F(-3, 2)
    for key in keys:
        for b in "sehm":
            one = to_p(SymFunc.single(b, key, 6))
            assert to_p(SymFunc.single(b, key, 6, c)) == one.scale(c)
        for b in "hem":
            one = from_p(SymFunc.single("p", key, 6), b)
            assert from_p(SymFunc.single("p", key, 6, c), b) == one.scale(c)
    # the common-denominator sum of two terms agrees with the two rows
    two = SymFunc("s", {lam: c, (4, 2): 1}, 6)
    assert to_p(two) == to_p(SymFunc.single("s", lam, 6, c)) + to_p(SymFunc.single("s", (4, 2), 6))

    assert {(memo, key): memo(key) for memo, key in snapshot} == snapshot


def test_memoized_terms_refuse_every_write():
    # The memos hand out the same term map to every caller, so a write
    # through one would change what every later caller reads.
    symkron.clear_caches()
    bases = symkron.bases
    handed_out = [expand("H", 5).terms, bases._hlam_in_p(Partition((3, 2))),
                  bases._plam_in_h(Partition((3, 2))), bases._p_in_m(Partition((3, 2)))]
    writes = [lambda t: t.nums.clear(), lambda t: t.nums.update({Partition((9,)): 1}),
              lambda t: t.nums.__setitem__(next(iter(t.nums)), 7),
              lambda t: t.nums.__delitem__(next(iter(t.nums))),
              lambda t: setattr(t, "den", 3), lambda t: setattr(t, "nums", {}),
              lambda t: delattr(t, "nums")]
    for terms in handed_out:
        before = (terms.den, dict(terms.nums))
        for write in writes:
            with pytest.raises((AttributeError, TypeError)):
                write(terms)
        assert (terms.den, dict(terms.nums)) == before
    with pytest.raises(AttributeError):
        expand("H", 5).terms = handed_out[1]
    assert len(expand("H", 5).terms) == 19
    assert expand("H", 5) == exp_series(exponent("H", 5))


# ------------------------------------------------------------- omega route
#
# e goes through the h table and the involution omega.  These tests reach
# the same values without omega: e_n is the oracle sum over p_lam / z_lam,
# and e_n (x) f = omega(f) is a Kronecker product.

PARTITIONS_OF = {n: partitions_of(n) for n in range(1, 9)}


@st.composite
def homogeneous_p_series(draw):
    n = draw(st.integers(1, 8))
    terms = draw(st.dictionaries(st.sampled_from(PARTITIONS_OF[n]),
                                 st.fractions(-40, 40, max_denominator=36), max_size=8))
    return SymFunc("p", terms, n)


@settings(max_examples=60, deadline=None)
@given(homogeneous_p_series())
def test_from_p_to_e_matches_kronecker_with_e_n(f):
    n = f.degree
    e_n = SymFunc("p", e_in_p_oracle(n), n)
    assert to_p(SymFunc("h", from_p(f, "e").terms, n)) == kronecker(e_n, f)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from([lam for n in range(9) for lam in partitions_of(n)]),
                       st.fractions(-40, 40, max_denominator=36), max_size=6))
def test_e_to_p_matches_products_of_oracle_e_n(terms):
    expected = SymFunc.zero("p", 8)
    for lam, c in terms.items():
        product = SymFunc.one("p", 8)
        for part in lam:
            product = product * SymFunc("p", e_in_p_oracle(part), 8)
        expected = expected + product.scale(c)
    assert to_p(SymFunc("e", terms, 8)) == expected


# ------------------------------------------- exp in Schur coordinates
#
# exp_in_s runs the Euler recurrence on Schur vectors; from_p of the
# p-expansion and the character oracle are its independent routes.

def test_exp_in_s_of_every_named_exponent_matches_from_p():
    for tag in TAGS:
        for degree in range(13):
            got = exp_in_s(exponent(tag, degree))
            want = from_p(expand(tag, degree), "s")
            assert got.basis == "s" and got.degree == degree
            assert type(got.terms) is kernels.IntTerms
            assert (got.terms.den, got.terms.nums) == (want.terms.den, want.terms.nums), \
                (tag, degree)
            assert all(type(k) is Partition for k in got.terms.nums)


def test_exp_in_s_of_every_named_exponent_matches_the_oracle():
    for tag in TAGS:
        for degree in range(9):
            assert exp_in_s(exponent(tag, degree)) == \
                s_expansion_by_oracle(expand(tag, degree)), (tag, degree)


@settings(max_examples=80, deadline=None)
@given(constant_free_p_series())
@example(SymFunc.single("p", (10,), 10, F(3, 7)))
@example(SymFunc.single("p", (4, 3, 3), 10, F(-5, 2)))
@example(SymFunc("p", {(1,): F(1, 2), (2,): F(-1, 3), (2, 1): F(1, 6)}, 10))
def test_exp_in_s_matches_from_p_of_exp_series(f):
    got = exp_in_s(f)
    want = from_p(exp_series(f), "s")
    assert (got.terms.den, got.terms.nums) == (want.terms.den, want.terms.nums)
    assert gcd(got.terms.den, *got.terms.nums.values()) == 1


@settings(max_examples=40, deadline=None)
@given(constant_free_p_series())
@example(SymFunc("p", {(1,): F(1, 2), (2,): F(-1, 3), (2, 1): F(1, 6)}, 8))
def test_exp_in_s_matches_the_oracle_of_the_definition(f):
    # exp as the sum of f**k / k! on Fraction maps, then to s by
    # ``character``: this route shares neither the Euler recurrence nor
    # ``_add_strips`` with exp_in_s.
    g = SymFunc("p", exp_by_definition(dict(f.terms.items()), f.degree), f.degree)
    assert exp_in_s(f) == s_expansion_by_oracle(g)


def test_exp_in_s_boundaries():
    with pytest.raises(BasisError):
        exp_in_s(SymFunc.single("h", (1,), 3))
    with pytest.raises(BasisError):
        exp_in_s(from_p(exponent("S", 4), "s"))
    with pytest.raises(ValueError, match="constant term"):
        exp_in_s(SymFunc("p", {(): F(1, 2), (1,): 1}, 3))
    with pytest.raises(ValueError, match="constant term"):
        exp_in_s(SymFunc._of("p", kernels.IntTerms({Partition(()): 1}, 3), 2))
    for degree in (0, 5):
        assert exp_in_s(SymFunc.zero("p", degree)) == SymFunc.one("s", degree)


def test_exp_in_s_builds_no_fraction():
    # One input as a Fraction map, one in the integer form.
    inputs = [exponent("SEinv", 12), exponent("Modd", 9),
              SymFunc._of("p", kernels.IntTerms({Partition((2, 1)): -4, Partition((1,)): 3}, 6), 9)]
    with fractions_built() as built:
        results = [exp_in_s(f) for f in inputs]
    assert built == []
    assert results[2] == from_p(exp_series(inputs[2]), "s")
