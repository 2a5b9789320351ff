import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

import symkron
from conftest import poly_exp_by_horner, poly_mul, random_symfunc
from symkron import _kernels as kernels
from symkron.bases import from_p, to_p
from symkron.partitions import Partition, partitions_of, z
from symkron.products import (
    UnivariateFactor,
    kron_factor,
    kronecker,
    kronecker_coefficient,
    plethysm,
    poly_exp,
    scalar_product,
)
from symkron.series import BasisError, SymFunc

F = Fraction


def p(lam, degree, coeff=1):
    return SymFunc.single("p", lam, degree, coeff)


# ------------------------------------------------------------ scalar product

def test_scalar_product_on_power_sums():
    assert scalar_product(p((2,), 2), p((2,), 2)) == 2
    assert scalar_product(p((3,), 3), p((2, 1), 3)) == 0
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert scalar_product(p(lam, n), p(lam, n)) == z(lam)


def test_monomial_homogeneous_duality():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                m = SymFunc.single("m", lam, n)
                h = SymFunc.single("h", mu, n)
                assert scalar_product(m, h) == (1 if lam == mu else 0)


def test_scalar_product_h2_h2():
    h2 = SymFunc.single("h", (2,), 2)
    assert scalar_product(h2, h2) == 1


def test_scalar_product_is_bilinear_and_symmetric():
    rng = random.Random(5)
    for _ in range(10):
        f = random_symfunc(rng, "p", 8)
        g = random_symfunc(rng, "p", 8)
        h = random_symfunc(rng, "p", 8)
        c = F(rng.randint(-5, 5), rng.randint(1, 5))
        assert scalar_product(f, g) == scalar_product(g, f)
        assert scalar_product(f + g.scale(c), h) == \
            scalar_product(f, h) + c * scalar_product(g, h)


# --------------------------------------------------------- Kronecker product

def test_kronecker_diagonal_on_power_sums():
    assert kronecker(p((2, 1), 3), p((2, 1), 3)) == p((2, 1), 3, 2)
    assert kronecker(p((3,), 3), p((2, 1), 3)).is_zero()


def test_kronecker_h2_e2():
    h2 = SymFunc.single("h", (2,), 2)
    e2 = SymFunc.single("e", (2,), 2)
    assert kronecker(h2, e2) == to_p(e2)


def test_kronecker_bilinear_commutative_associative():
    rng = random.Random(6)
    for _ in range(8):
        f = random_symfunc(rng, "p", 6)
        g = random_symfunc(rng, "p", 6)
        h = random_symfunc(rng, "p", 6)
        c = F(rng.randint(-5, 5), rng.randint(1, 5))
        assert kronecker(f, g) == kronecker(g, f)
        assert kronecker(kronecker(f, g), h) == kronecker(f, kronecker(g, h))
        assert kronecker(f + g.scale(c), h) == \
            kronecker(f, h) + kronecker(g, h).scale(c)


def test_kronecker_respects_grading():
    rng = random.Random(16)
    f = random_symfunc(rng, "p", 8, max_terms=12)
    g = random_symfunc(rng, "p", 8, max_terms=12)
    product = kronecker(f, g)
    for n in range(9):
        assert product.graded_component(n) == \
            kronecker(f.graded_component(n), g.graded_component(n))


def test_hn_is_kronecker_identity_in_degree_n():
    rng = random.Random(17)
    for n in range(1, 9):
        hn = SymFunc.single("h", (n,), n)
        f = random_symfunc(rng, "p", n, max_terms=6).graded_component(n)
        assert kronecker(hn, f) == f


def test_en_twists_by_conjugation():
    for n in range(1, 7):
        en = SymFunc.single("e", (n,), n)
        for mu in partitions_of(n):
            twisted = from_p(kronecker(en, SymFunc.single("s", mu, n)), "s")
            assert twisted == SymFunc.single("s", mu.conjugate(), n)


def test_kronecker_with_mixed_truncation_degrees():
    from symkron.named import expand

    wide = expand("S", 6)
    narrow = expand("S", 4)
    product = kronecker(wide, narrow)
    assert product.degree == 4
    assert product == kronecker(expand("S", 4), expand("S", 4))


def test_scalar_product_uses_all_stored_terms():
    # mixed truncation degrees: the library sums over everything stored
    f = SymFunc("p", {(1,): 1, (3,): 1}, 3)
    g = SymFunc("p", {(1,): 1, (3,): 2}, 5)
    assert scalar_product(f, g) == 1 * 1 * 1 + 1 * 2 * 3


def test_nested_kronecker():
    f = SymFunc.single("h", (2,), 2)
    e2 = SymFunc.single("e", (2,), 2)
    assert kronecker(kronecker(f, f), e2) == to_p(e2)
    assert kronecker(f, kronecker(f, e2)) == to_p(e2)
    p2 = p((2,), 2)
    assert kronecker(kronecker(p2, p2), p2) == p((2,), 2, 4)


# ------------------------------------------------------------------ plethysm

def test_plethysm_index_dilation():
    g = SymFunc("p", {(1, 1): 1, (2,): -1}, 4)
    assert plethysm(p((2,), 4), g) == SymFunc("p", {(2, 2): 1, (4,): -1}, 4)
    assert plethysm(p((3,), 6), p((2,), 6, F(1, 2))) == p((6,), 6, F(1, 2))


def test_plethysm_of_h_series_degree_two():
    # H[p1 + p1^2/2 - p2/2] truncated at 2 is 1 + p1 + p1^2
    from symkron.named import expand

    u = SymFunc("p", {(1,): 1, (1, 1): F(1, 2), (2,): F(-1, 2)}, 2)
    got = plethysm(expand("H", 2), u)
    assert got == SymFunc("p", {(): 1, (1,): 1, (1, 1): 1}, 2)


def test_plethysm_is_linear_and_multiplicative():
    rng = random.Random(9)
    for _ in range(8):
        f = random_symfunc(rng, "p", 6)
        g = random_symfunc(rng, "p", 6)
        h = random_symfunc(rng, "p", 6, constant_free=True)
        assert plethysm(f + g, h) == plethysm(f, h) + plethysm(g, h)
        assert plethysm(f * g, h) == plethysm(f, h) * plethysm(g, h)


def test_plethysm_converts_f_to_p_first():
    # h2[p1] must be h2 itself in p coordinates
    h2 = SymFunc.single("h", (2,), 2)
    assert plethysm(h2, p((1,), 2)) == to_p(h2)
    # e2[2 p1]: (2 p1)^2/2 - (2 p2)/2 with the p2 index dilated from p1
    e2 = SymFunc.single("e", (2,), 2)
    assert plethysm(e2, p((1,), 2, 2)) == SymFunc("p", {(1, 1): 2, (2,): -1}, 2)


def test_plethysm_preconditions():
    with pytest.raises(ValueError):
        plethysm(p((1,), 2), SymFunc.one("p", 2))
    with pytest.raises(BasisError):
        plethysm(p((1,), 2), SymFunc.single("h", (1,), 2))


def test_plethysm_degree_contract():
    f = p((1,), 6)
    g = SymFunc.single("p", (1,), 3)
    assert plethysm(f, g).degree == 3


# -------------------------------------------------------- univariate factors

def test_factor_order_and_embedding():
    # class values n**k * k! * [p_3**k]: p coefficients 1, 2, 1/3
    f = UnivariateFactor(3, (1, 6, 6))
    assert f.order == 2
    assert f.coefficient(1) == 2
    assert f.coefficient(2) == F(1, 3)
    assert f.coefficient(9) == 0
    embedded = f.to_symfunc()
    assert embedded.degree == 6
    assert embedded.terms == {(): F(1), (3,): F(2), (3, 3): F(1, 3)}
    assert f.to_symfunc(degree=3).terms == {(): F(1), (3,): F(2)}
    assert f.to_symfunc(degree=8).terms == embedded.terms


def test_factor_refuses_to_embed_past_its_order():
    # the coefficient of p_3**2 is unknown, not zero: degree 9 used to
    # claim [p_3**2] = [p_3**3] = 0
    f = UnivariateFactor(3, (1, 1))
    assert f.to_symfunc(degree=5).terms == {(): F(1), (3,): F(1, 3)}
    for degree in (6, 9):
        with pytest.raises(ValueError, match="unknown"):
            f.to_symfunc(degree=degree)


def test_factor_validation():
    with pytest.raises(ValueError):
        UnivariateFactor(0, (1,))
    with pytest.raises(ValueError):
        UnivariateFactor(True, (1,))


def test_factor_rejects_float_coefficients():
    # Fraction(0.1) used to store 3602879701896397/36028797018963968; a
    # class value is an int, so a Fraction is refused too
    for bad, kind in ((0.5, "float"), (1.0, "float"), (True, "bool"),
                      ("1e20000", "str"), (F(1, 2), "Fraction"), (F(2), "Fraction")):
        with pytest.raises(TypeError, match=f"class values must be ints, not {kind}"):
            UnivariateFactor(1, (1, bad))
    assert type(UnivariateFactor(2, ()).values[0]) is int


def test_kron_factor_weights():
    # p coefficients 1 and 1: 1 + p_3 against itself gives 1 + 3 p_3
    one_plus_p = UnivariateFactor(3, (1, 3))
    product = kron_factor(one_plus_p, one_plus_p)
    assert product.values == (1, 9)
    assert (product.coefficient(0), product.coefficient(1)) == (F(1), F(3))


def test_kron_factor_annihilates_against_constant():
    a = UnivariateFactor(2, (7, 2, 8))
    b = UnivariateFactor(2, (1,))
    assert kron_factor(a, b).values == (7,)


def test_kron_factor_weighs_by_n_power_k_factorial_without_the_z_memo():
    # In class values the product is pointwise; reading a p coefficient
    # divides by z(n^k) = n**k * k!, computed, not read from the memo of
    # z, which would otherwise gain one key per k up to the order.
    symkron.clear_caches()
    ones = UnivariateFactor(2, tuple(2 ** k * factorial(k) for k in range(201)))
    product = kron_factor(ones, ones)
    coefficients = [product.coefficient(k) for k in range(201)]
    assert symkron.partitions._z.cache_info().currsize == 0
    assert coefficients == [F(z((2,) * k)) for k in range(201)]


def test_kron_factor_requires_same_variable():
    with pytest.raises(ValueError):
        kron_factor(UnivariateFactor(2, (1,)), UnivariateFactor(3, (1,)))


def test_kron_factor_central_binomials():
    # exp(x^2/4) against itself gives (1 - x^2)^(-1/2); x^2/4 at n = 2 has
    # class value 2**2 * 2! / 4 = 2
    order = 20
    expo = [0] * (order + 1)
    expo[2] = 2
    f = UnivariateFactor(2, poly_exp(expo, order))
    g = kron_factor(f, f)
    for m in range(order // 2 + 1):
        assert g.coefficient(2 * m) == F(comb(2 * m, m), 4 ** m)
        if 2 * m + 1 <= order:
            assert g.coefficient(2 * m + 1) == 0


def test_poly_helpers():
    assert poly_mul([1, 1], [1, 1], 2) == [F(1), F(2), F(1)]
    assert poly_mul([1, 1], [1, 1], 1) == [F(1), F(2)]
    # exp(y) has every class value 1
    assert poly_exp([0, 1], 5) == [1] * 6
    with pytest.raises(ValueError):
        poly_exp([1], 3)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=14), st.integers(0, 16))
@example([], 0)
@example([], 5)
@example([0] * 8 + [-40320 * 2], 12)
def test_poly_exp_matches_horner(tail, order):
    # class values v_k stand for the coefficients c_k = v_k / k! of a
    # series in y = x / n, whose exp poly_exp_by_horner takes on Fraction
    a = [0] + tail
    got = poly_exp(a, order)
    assert all(type(v) is int for v in got)
    c = [F(v, factorial(k)) for k, v in enumerate(a)]
    assert [F(v, factorial(k)) for k, v in enumerate(got)] == poly_exp_by_horner(c, order)


# ----------------------------------------------------- Kronecker coefficients

def test_gamma_trivial_row():
    for n in range(1, 6):
        for mu in partitions_of(n):
            for rho in partitions_of(n):
                expected = 1 if mu == rho else 0
                assert kronecker_coefficient((n,), mu, rho) == expected


def test_gamma_sign_twist():
    for n in range(1, 6):
        ones = (1,) * n
        for mu in partitions_of(n):
            for rho in partitions_of(n):
                expected = 1 if rho == mu.conjugate() else 0
                assert kronecker_coefficient(ones, mu, rho, oracle=True) == expected


def test_gamma_examples():
    assert kronecker_coefficient((1, 1), (1, 1), (2,)) == 1
    assert kronecker_coefficient((2, 1), (2, 1), (2, 1)) == 1
    assert kronecker_coefficient((2, 1), (2, 1), (2, 1), oracle=True) == 1


def test_gamma_routes_agree():
    for n in range(6):
        lams = partitions_of(n)
        for lam in lams:
            for mu in lams:
                for rho in lams:
                    direct = kronecker_coefficient(lam, mu, rho)
                    assert direct >= 0
                    assert direct == kronecker_coefficient(lam, mu, rho, oracle=True)


def product_route_coefficient(lam, mu, rho):
    """<s_lam (x) s_mu, s_rho> through the series pipeline: the Kronecker
    product of the two Schur functions, paired with s_rho."""
    n = sum(lam)
    product = kronecker(SymFunc.single("s", lam, n), SymFunc.single("s", mu, n))
    return scalar_product(product, SymFunc.single("s", rho, n))


def test_product_route_matches_oracle():
    triples = [(lam, mu, rho) for n in range(7) for lam in partitions_of(n)
               for mu in partitions_of(n) for rho in partitions_of(n)]
    rng = random.Random(21)
    for n in (10, 11, 12):
        lams = partitions_of(n)
        triples += [tuple(rng.choice(lams) for _ in range(3)) for _ in range(25)]
    for lam, mu, rho in triples:
        assert product_route_coefficient(lam, mu, rho) == \
            kronecker_coefficient(lam, mu, rho, oracle=True), (lam, mu, rho)


def test_default_and_oracle_routes_share_no_character_code(monkeypatch):
    bases = symkron.bases
    triples = [(lam, mu, rho) for lam in partitions_of(5) for mu in partitions_of(5)
               for rho in ((3, 2), (2, 2, 1))]
    symkron.clear_caches()
    try:
        default = [kronecker_coefficient(*t) for t in triples]
        assert not bases._char_cache
        symkron.clear_caches()
        assert [kronecker_coefficient(*t, oracle=True) for t in triples] == default
        for memo in (bases._column, bases._char_row, bases._class_sizes):
            assert memo.cache_info().currsize == 0, memo

        # chi^(5,1) on the 6-cycle is -1; raising it by z(6) = 6 moves the
        # default sum by chi^(6)(6)^2 = 1, so g((5,1), (6), (6)) = 0 reads 1
        lam, one_row = Partition((5, 1)), Partition((6,))
        column = bases._column((6,))
        mask = bases._beta_mask(lam, 6)
        monkeypatch.setitem(column, mask, column[mask] + 6)
        assert kronecker_coefficient(lam, one_row, one_row) == 1
        assert kronecker_coefficient(lam, one_row, one_row, oracle=True) == 0
    finally:
        monkeypatch.undo()
        symkron.clear_caches()


def test_a_non_integral_class_sum_raises_with_its_value(monkeypatch):
    # Raising chi^(5,1) on the 6-cycle by 1, in the default route's column
    # or in the oracle's memo, moves the class sum of g((5,1), (6), (6)) = 0
    # by chi^(6)(6)^2 / z(6) = 1/6.
    bases = symkron.bases
    lam, one_row = Partition((5, 1)), Partition((6,))
    for oracle in (False, True):
        symkron.clear_caches()
        try:
            if oracle:
                memo, key = bases._char_cache, (lam, one_row)
                bases.character(lam, one_row)
            else:
                memo, key = bases._column((6,)), bases._beta_mask(lam, 6)
            monkeypatch.setitem(memo, key, memo[key] + 1)
            with pytest.raises(ArithmeticError) as raised:
                kronecker_coefficient(lam, one_row, one_row, oracle=oracle)
            assert str(raised.value) == ("non-integral Kronecker coefficient 1/6 at "
                                         "Partition(5, 1), Partition(6,), Partition(6,)")
        finally:
            monkeypatch.undo()
            symkron.clear_caches()


@st.composite
def same_weight_triples(draw):
    """Three partitions of one weight n <= 12."""
    lams = partitions_of(draw(st.integers(0, 12)))
    return tuple(draw(st.sampled_from(lams)) for _ in range(3))


@settings(max_examples=150, deadline=None)
@given(same_weight_triples())
@example(((5, 1), (6,), (6,)))
@example(((4, 4, 4), (6, 6), (3, 3, 3, 3)))
def test_dense_rows_match_the_sparse_kernels(triple):
    # The dot product over dense character rows against the sparse p-row
    # kernels: the scalar product of s_lam (x) s_mu with s_rho.
    rows = [symkron.bases._s_in_p(lam) for lam in triple]
    expected = kernels.scalar_terms(kernels.kron_terms(rows[0], rows[1]), rows[2])
    value = kronecker_coefficient(*triple)
    assert type(value) is int and value == expected
    for perm in itertools.permutations(triple):
        assert kronecker_coefficient(*perm) == value


def test_gamma_symmetric_under_permutations():
    for n in (3, 4):
        lams = partitions_of(n)
        for lam in lams:
            for mu in lams:
                for rho in lams:
                    base = kronecker_coefficient(lam, mu, rho, oracle=True)
                    for a, b, c in itertools.permutations((lam, mu, rho)):
                        assert kronecker_coefficient(a, b, c, oracle=True) == base


def test_gamma_weight_mismatch():
    with pytest.raises(ValueError):
        kronecker_coefficient((2,), (1, 1), (1,))
