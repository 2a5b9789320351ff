import json
import math
import random
from fractions import Fraction

import pytest

from conftest import random_symfunc
from symkron.series import BasisError, SymFunc, exp_series, log_series

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


def test_overweight_term_rejected():
    with pytest.raises(ValueError):
        SymFunc("p", {(3,): 1}, 2)


def test_unknown_basis_rejected():
    with pytest.raises(BasisError):
        SymFunc("q", {}, 2)


def test_bad_degree_rejected():
    with pytest.raises(ValueError):
        SymFunc("p", {}, -1)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        SymFunc("p", {(1,): 0.5}, 2)
    with pytest.raises(TypeError):
        SymFunc.one("p", 2).scale(0.5)


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


# ------------------------------------------------------------------ exp/log

def test_exp_of_p1():
    got = exp_series(p((1,), 3))
    assert got == SymFunc("p", {(): 1, (1,): 1, (1, 1): F(1, 2), (1, 1, 1): F(1, 6)}, 3)


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


def test_log_of_one():
    assert log_series(SymFunc.one("p", 4)).is_zero()


def test_log_exp_round_trip_single_term():
    f = p((2,), 6)
    assert log_series(exp_series(f)) == f


def test_log_mercator():
    geometric = SymFunc("p", {(): 1, (1,): 1, (1, 1): 1, (1, 1, 1): 1}, 3)
    expected = SymFunc("p", {(1,): 1, (1, 1): F(1, 2), (1, 1, 1): F(1, 3)}, 3)
    assert log_series(geometric) == expected


def test_log_rejects_wrong_constant_term():
    with pytest.raises(ValueError):
        log_series(SymFunc.zero("p", 3))
    with pytest.raises(ValueError):
        log_series(SymFunc("p", {(): 2}, 3))


def test_exp_is_a_homomorphism():
    rng = random.Random(7)
    for _ in range(10):
        degree = rng.randint(0, 8)
        f = random_symfunc(rng, "p", degree, constant_free=True)
        g = random_symfunc(rng, "p", degree, constant_free=True)
        assert exp_series(f + g) == exp_series(f) * exp_series(g)


def test_exp_log_round_trips():
    rng = random.Random(8)
    one = lambda d: SymFunc.one("p", d)
    for _ in range(10):
        degree = rng.randint(0, 8)
        f = random_symfunc(rng, "p", degree, constant_free=True)
        assert log_series(exp_series(f)) == f
        assert exp_series(log_series(one(degree) + f)) == one(degree) + f


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


def test_graded_component():
    f = SymFunc("p", {(): 1, (1,): 1, (1, 1): 1}, 2)
    assert f.graded_component(2).terms == {(1, 1): F(1)}
    assert f.graded_component(0).terms == {(): F(1)}
    h_series = exp_series(SymFunc(
        "p", {(1,): 1, (2,): F(1, 2), (3,): F(1, 3), (4,): F(1, 4)}, 4))
    assert h_series.graded_component(3).terms == newton_h(3)
    with pytest.raises(ValueError):
        f.graded_component(3)


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


def _one_term_json(coefficient, degree=2):
    return json.dumps({"basis": "p", "degree": degree,
                       "terms": [{"partition": [2], "coefficient": coefficient}]})


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


def test_json_rejects_repeated_partitions():
    text = json.dumps({"basis": "p", "degree": 1, "terms": [
        {"partition": [1], "coefficient": 1}, {"partition": [1], "coefficient": 2}]})
    with pytest.raises(ValueError, match="appears twice"):
        SymFunc.from_json(text)
